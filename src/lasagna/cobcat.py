"""Dotted cobordisms between crossingless tangles, linearized over Q.

Objects are flat tangles: a perfect matching ("arcs") on a set of boundary
points plus a set of closed loops.  A cobordism between two flat tangles
with the same boundary points is recorded by its connected components; a
component knows which source/target arcs and loops it bounds, its dot count
and its genus.  Over Q this coarse data determines the morphism up to the
local relations, which is exactly what evaluation needs.

Local relations (Frobenius parameter c = value of a twice-dotted component):
undotted sphere = 0, once-dotted sphere = 1, two dots on a component = c
times no dots, and neck-cutting, whose closed consequence is that a handle
may be traded for a dot at the price of a factor 2.  `reduce` applies these
as rewrite steps; it never hard-codes higher-genus values.

Canonical form: a Cobordism stores its components sorted by (smallest
node key, dots, genus).  A node key is a string in which frozensets list
their members sorted, so it depends on the node's value only, never on
hash order or PYTHONHASHSEED.  Equal cobordisms therefore compare and hash
equal.  Node keys and boundary-circle partitions are memoized per node and
per node set in bounded LRU caches.  Each Component computes its order key
and hash once, when built, so sorting and hashing a Cobordism read stored
values.  A cobordism to which no relation applies is already normal, and
`reduce` passes it on as the same object.  `FlatTangle.without_loop` skips
the matching validation: dropping a loop leaves the validated arcs as is.

Normal form: every component has genus 0, at most one dot and exactly one
boundary circle, so no component is closed.  `reduce` marks each cobordism
it returns `normal`; the flag only records what is known and is no part of
the value.  Every entry a scanned complex stores is normal.  A loop node is
a whole boundary circle, so in a normal term the component holding it is
the disk {(side, loop)} with e <= 1 dots.  Capping or cupping that disk with
d dots gives a sphere with e + d dots, worth 1 if e + d = 1 and 0
otherwise, for c = 0 and c = 1 alike.  Delooping a normal entry therefore
partitions its terms between the two summands by the disk's dot
(`deloop_split`): each term loses the disk and keeps its coefficient and its
other components, still sorted; nothing is reduced.  A term not known to be
normal is reduced first and then split the same way.

`MorphismCombo.invertible_scalar` recognizes lambda * identity from the
shape of its single term (one undotted genus-0 component {("s", k),
("t", k)} per arc or loop k of the source) without building the identity
cobordism.  Gluing the identity onto a cobordism gives it back unchanged, so
composing a normal-form combo with lambda * identity is `scale(lambda)`.

Gradings are bookkept by the complexes that use these morphisms, not here.
The delooping maps follow the classical Khovanov convention: the circle is
isomorphic to the empty tangle shifted by q^{+1} and q^{-1}, with inclusion
(plain cup, dotted cup) and projection (dotted cap, plain cap) respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Optional


@dataclass(frozen=True)
class FrobeniusSpec:
    """The deformation parameter: dot^2 = c. Khovanov c=0, Lee c=1."""

    c: Fraction = Fraction(0)


KHOVANOV = FrobeniusSpec(Fraction(0))
LEE = FrobeniusSpec(Fraction(1))


class FlatTangle:
    """A crossingless matching of boundary points plus closed loops."""

    __slots__ = ("arcs", "loops", "_hash")

    def __init__(self, arcs: Iterable, loops: Iterable = ()):
        arcs = frozenset(frozenset(a) for a in arcs)
        for a in arcs:
            if len(a) != 2:
                raise ValueError("an arc joins exactly two boundary points")
        pts = [p for a in arcs for p in a]
        if len(pts) != len(set(pts)):
            raise ValueError("boundary points must be matched exactly once")
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "loops", frozenset(loops))
        object.__setattr__(self, "_hash", hash((arcs, frozenset(loops))))

    @property
    def points(self) -> frozenset:
        return frozenset(p for a in self.arcs for p in a)

    def keys(self):
        return list(self.arcs) + list(self.loops)

    def without_loop(self, loop) -> "FlatTangle":
        if loop not in self.loops:
            raise ValueError("no such loop")
        out = object.__new__(FlatTangle)  # self.arcs is already a validated matching
        out.arcs, out.loops = self.arcs, self.loops - {loop}
        out._hash = hash((out.arcs, out.loops))
        return out

    def with_loop(self, loop) -> "FlatTangle":
        return FlatTangle(self.arcs, self.loops | {loop})

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FlatTangle)
            and self._hash == other._hash
            and self.arcs == other.arcs
            and self.loops == other.loops
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        arcs = sorted(tuple(sorted(a, key=repr)) for a in self.arcs)
        return f"FlatTangle(arcs={arcs}, loops={sorted(self.loops, key=repr)})"


EMPTY_TANGLE = FlatTangle((), ())


def _canon(x) -> str:
    """A canonical string for an arc/loop key or a node.

    Frozensets list their members sorted, so equal values give equal
    strings whatever their hash order; `repr` of a frozenset does not.
    """
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(map(_canon, x))) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(map(_canon, x)) + ")"
    return repr(x)


# Bounded, like the circle-partition memo below: the nodes in use at any time
# lie on the current open boundary.  Scanning belt_link(4) twisted twice, a
# scan step uses at most 58 distinct nodes and 167 distinct node sets, and
# over 99.5% of lookups hit.
_node_key = lru_cache(maxsize=256)(_canon)


class Component:
    """A connected component: boundary nodes ('s'|'t', arc-or-loop key), dots, genus.

    Immutable; the order key (smallest node key, dots, genus) and the hash
    are computed once, here.  The components of a cobordism bound disjoint
    node sets, so only closed components share the empty first key.
    """

    __slots__ = ("nodes", "dots", "genus", "_key", "_hash")

    def __init__(self, nodes: frozenset, dots: int, genus: int):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dots", dots)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "_key", (min(map(_node_key, nodes), default=""), dots, genus))
        object.__setattr__(self, "_hash", hash((nodes, dots, genus)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Component is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self is other or (isinstance(other, Component) and self._hash == other._hash
                                 and self._key == other._key and self.nodes == other.nodes)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Component(nodes={self.nodes!r}, dots={self.dots!r}, genus={self.genus!r})"

    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - len(_boundary_circle_partition(self.nodes))


_order_key = attrgetter("_key")


class Cobordism:
    """A connected-component-encoded cobordism between two flat tangles.

    `normal` is True once `reduce` has found or made it normal; False means
    not known.  It is no part of the value: equality and hash ignore it.
    """

    __slots__ = ("source", "target", "comps", "_hash", "normal")

    def __init__(self, source: FlatTangle, target: FlatTangle, comps: Iterable[Component]):
        comps = tuple(sorted(comps, key=_order_key))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "_hash", hash((source, target, comps)))
        object.__setattr__(self, "normal", False)

    @staticmethod
    def _normal_sorted(source: FlatTangle, target: FlatTangle, comps: tuple) -> "Cobordism":
        """A cobordism from components already sorted and in normal form."""
        out = object.__new__(Cobordism)
        out.source, out.target, out.comps = source, target, comps
        out._hash = hash((source, target, comps))
        out.normal = True
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Cobordism)
            and self.source == other.source
            and self.target == other.target
            and self.comps == other.comps
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Cobordism({self.comps!r})"


@lru_cache(maxsize=256)
def _boundary_circle_partition(nodes: frozenset) -> tuple:
    """Boundary circles of a set of nodes as node subsets, in no fixed order.

    Each loop node is its own circle; arc-cycles alternate source and target
    arcs through shared endpoints (the vertical boundary line at a point p
    connects the source arc at p to the target arc at p).
    """
    circles = [frozenset([n]) for n in nodes if not isinstance(n[1], frozenset)]
    arc_at = {"s": {}, "t": {}}
    for side, k in nodes:
        if isinstance(k, frozenset):
            for p in k:
                arc_at[side][p] = k
    if arc_at["s"].keys() != arc_at["t"].keys():
        raise ValueError("component boundary points do not match on both sides")
    seen_arcs = set()
    for a in set(arc_at["s"].values()):
        if a in seen_arcs:
            continue
        members = []
        side, arc, entry = "s", a, next(iter(a))  # on arc a, entered at this point
        while True:
            members.append((side, arc))
            if side == "s":
                seen_arcs.add(arc)
            p, q = arc
            exit_pt = q if p == entry else p
            side = "t" if side == "s" else "s"
            arc, entry = arc_at[side][exit_pt], exit_pt
            if side == "s" and arc == a:
                break
        circles.append(frozenset(members))
    if len(circles) == 1:
        return (nodes,)
    return tuple(circles)


def _glued_component(nodes: frozenset, dots: int, chi: int) -> Component:
    """The connected surface with these boundary nodes, dots and Euler characteristic."""
    circles = _boundary_circle_partition(nodes)
    genus2 = 2 - len(circles) - chi
    if genus2 % 2 or genus2 < 0:
        raise AssertionError("non-surface gluing of cobordisms")
    return Component(nodes, dots, genus2 // 2)


def identity_cobordism(t: FlatTangle) -> Cobordism:
    comps = [Component(frozenset({("s", k), ("t", k)}), 0, 0) for k in t.keys()]
    return Cobordism(t, t, comps)


def cap(t: FlatTangle, loop, dotted: bool = False) -> Cobordism:
    """Kill a loop of t with a disk (optionally dotted)."""
    tgt = t.without_loop(loop)
    comps = [Component(frozenset({("s", loop)}), 1 if dotted else 0, 0)]
    for k in tgt.keys():
        comps.append(Component(frozenset({("s", k), ("t", k)}), 0, 0))
    return Cobordism(t, tgt, comps)


def cup(t: FlatTangle, loop, dotted: bool = False) -> Cobordism:
    """Create a loop on top of t with a disk (optionally dotted)."""
    tgt = t.with_loop(loop)
    comps = [Component(frozenset({("t", loop)}), 1 if dotted else 0, 0)]
    for k in t.keys():
        comps.append(Component(frozenset({("s", k), ("t", k)}), 0, 0))
    return Cobordism(t, tgt, comps)


def elementary_saddle(source: FlatTangle, target: FlatTangle, moved_keys_s, moved_keys_t) -> Cobordism:
    """Cobordism which is a product away from one saddle component."""
    nodes = {("s", k) for k in moved_keys_s} | {("t", k) for k in moved_keys_t}
    comps = [Component(frozenset(nodes), 0, 0)]
    for k in set(source.keys()) - set(moved_keys_s):
        comps.append(Component(frozenset({("s", k), ("t", k)}), 0, 0))
    return Cobordism(source, target, comps)


class MorphismCombo:
    """Finite Q-linear combination of cobordisms with common source/target.

    Coefficients are ints until a division makes them non-integral.
    """

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: FlatTangle, target: FlatTangle, terms: Optional[dict] = None):
        self.source = source
        self.target = target
        self.terms: dict[Cobordism, int | Fraction] = {}
        if terms:
            for cob, coeff in terms.items():
                self._add_term(cob, coeff)

    def _add_term(self, cob: Cobordism, coeff) -> None:
        if not coeff:
            return
        cur = self.terms.get(cob)
        cur = coeff if cur is None else cur + coeff
        if cur:
            self.terms[cob] = cur
        else:
            del self.terms[cob]

    @staticmethod
    def from_cobordism(cob: Cobordism, coeff=1) -> "MorphismCombo":
        return MorphismCombo(cob.source, cob.target, {cob: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MorphismCombo") -> "MorphismCombo":
        if self.source != other.source or self.target != other.target:
            raise ValueError("cannot add morphisms with different endpoints")
        out = MorphismCombo(self.source, self.target, dict(self.terms))
        for cob, coeff in other.terms.items():
            out._add_term(cob, coeff)
        return out

    def __neg__(self) -> "MorphismCombo":
        return self.scale(-1)

    def __sub__(self, other: "MorphismCombo") -> "MorphismCombo":
        return self + (-other)

    def scale(self, coeff) -> "MorphismCombo":
        return MorphismCombo(
            self.source, self.target, {c: v * coeff for c, v in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, MorphismCombo)
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"MorphismCombo({len(self.terms)} terms {self.source}->{self.target})"

    def then(self, other: "MorphismCombo", spec: FrobeniusSpec) -> "MorphismCombo":
        """Vertical composition self followed by other, reduced."""
        if self.target != other.source:
            raise ValueError("composition endpoint mismatch")
        out = MorphismCombo(self.source, other.target)
        for f, a in self.terms.items():
            for g, b in other.terms.items():
                cob = _compose_cobordisms(f, g)
                out._add_term(cob, a * b)
        return reduce(out, spec)

    def as_scalar(self) -> int | Fraction:
        """The coefficient of the empty cobordism, for empty endpoints."""
        if self.source.keys() or self.target.keys():
            raise ValueError("scalar extraction needs empty source and target")
        if not self.terms:
            return 0
        [(cob, coeff)] = self.terms.items()
        if cob.comps:
            raise ValueError("combo not reduced to a scalar")
        return coeff

    def invertible_scalar(self) -> Optional[int | Fraction]:
        """If self is lambda * identity (same tangle, lambda != 0), return lambda.

        Tested on the shape of the single term: one undotted genus-0
        component {("s", k), ("t", k)} per arc or loop k of the source.
        """
        if len(self.terms) != 1 or self.source != self.target:
            return None
        [(cob, coeff)] = self.terms.items()
        src = self.source
        if len(cob.comps) != len(src.arcs) + len(src.loops):
            return None
        seen = set()
        for c in cob.comps:
            if c.dots or c.genus or len(c.nodes) != 2:
                return None
            (_, k), (_, k2) = c.nodes
            if k != k2 or k in seen or not (k in src.arcs or k in src.loops):
                return None
            seen.add(k)
        return coeff


def _compose_cobordisms(f: Cobordism, g: Cobordism) -> Cobordism:
    if f.target != g.source:
        raise ValueError("cobordism composition endpoint mismatch")
    # union-find over the components of f then g, glued along middle arcs/loops
    pieces = f.comps + g.comps
    parent = list(range(len(pieces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    below = {k: i for i, c in enumerate(f.comps) for side, k in c.nodes if side == "t"}
    for j, c in enumerate(g.comps, len(f.comps)):
        for side, k in c.nodes:
            if side == "s":
                ra, rb = find(below[k]), find(j)
                if ra != rb:
                    parent[ra] = rb

    groups: dict[int, list] = {}
    for idx in range(len(pieces)):
        groups.setdefault(find(idx), []).append(idx)

    n_f = len(f.comps)
    comps = []
    for idxs in groups.values():
        nodes = []
        chi = 0
        dots = 0
        for i in idxs:
            c = pieces[i]
            chi += c.euler_characteristic()
            dots += c.dots
            outer = "s" if i < n_f else "t"
            for node in c.nodes:
                if node[0] == outer:
                    nodes.append(node)
                elif outer == "s" and isinstance(node[1], frozenset):
                    chi -= 1  # glued along a middle arc
        comps.append(_glued_component(frozenset(nodes), dots, chi))
    return Cobordism(f.source, g.target, comps)


def reduce(m: MorphismCombo, spec: FrobeniusSpec) -> MorphismCombo:
    """Apply the local relations until every term is in normal form."""
    out = MorphismCombo(m.source, m.target)
    for cob, coeff in m.terms.items():
        for cob2, coeff2 in _reduce_cobordism(cob, spec):
            out._add_term(cob2, coeff * coeff2)
    return out


def _reduce_cobordism(cob: Cobordism, spec: FrobeniusSpec):
    """Normal-form expansion of a single cobordism: list of (cobordism, coeff)."""
    pending = [(cob.comps, 1)]
    done = []
    while pending:
        comps, coeff = pending.pop()
        for i, c in enumerate(comps):
            if c.genus > 0:
                # neck-cutting along a handle: two (equal) terms, one dot each
                rest = comps[:i] + comps[i + 1 :]
                cut = Component(c.nodes, c.dots + 1, c.genus - 1)
                pending.append((rest + (cut,), coeff))
                pending.append((rest + (cut,), coeff))
                break
            circles = _boundary_circle_partition(c.nodes)
            if len(circles) >= 2:
                # neck-cutting along a separating curve: split off the first
                # boundary circle as a disk, dot on either side
                first = min(circles, key=lambda s: min(map(_node_key, s)))
                rest_nodes = c.nodes - first
                rest = comps[:i] + comps[i + 1 :]
                pending.append(
                    (rest + (Component(first, 1, 0), Component(rest_nodes, c.dots, 0)), coeff)
                )
                pending.append(
                    (rest + (Component(first, 0, 0), Component(rest_nodes, c.dots + 1, 0)), coeff)
                )
                break
            if c.dots >= 2:
                if spec.c != 0:
                    rest = comps[:i] + comps[i + 1 :]
                    pending.append(
                        (rest + (Component(c.nodes, c.dots - 2, 0),), coeff * spec.c)
                    )
                break
            if not c.nodes:
                # closed genus-0 component: sphere relations
                rest = comps[:i] + comps[i + 1 :]
                if c.dots == 1:
                    pending.append((rest, coeff))
                # undotted sphere = 0: drop the term entirely
                break
        else:
            if comps is cob.comps:  # no relation applied: cob is already normal
                cob.normal = True
                return [(cob, 1)]
            out = Cobordism(cob.source, cob.target, comps)
            out.normal = True
            done.append((out, coeff))
    return done


def deloop_split(m: MorphismCombo, side: str, loop, spec: FrobeniusSpec) -> tuple:
    """The plus and minus summands of delooping `loop` on one end of m, reduced.

    Side "t" caps the loop after m: plus = m then dotted cap, minus = m then
    plain cap.  Side "s" cups it before m: plus = plain cup then m, minus =
    dotted cup then m.  Equals composing with the maps of `deloop_maps`.
    A term not known to be normal is reduced first; every normal term then
    goes to the one summand its disk's dot selects (see the module docstring).
    """
    node = (side, loop)
    src = m.source.without_loop(loop) if side == "s" else m.source
    tgt = m.target.without_loop(loop) if side == "t" else m.target
    plus, minus = MorphismCombo(src, tgt), MorphismCombo(src, tgt)
    # the summand reached by adding 0 dots, then by adding 1
    by_dots = (minus, plus) if side == "t" else (plus, minus)
    for cob, coeff in m.terms.items():
        for normal, coeff2 in [(cob, 1)] if cob.normal else _reduce_cobordism(cob, spec):
            comps = normal.comps
            for i, c in enumerate(comps):
                if node in c.nodes:
                    rest = comps[:i] + comps[i + 1:]
                    by_dots[1 - c.dots]._add_term(
                        Cobordism._normal_sorted(src, tgt, rest), coeff * coeff2)
                    break
    return plus, minus


def deloop_maps(t: FlatTangle, loop, spec: FrobeniusSpec):
    """Structure maps of circle ~ empty{+1} + empty{-1}.

    Returns ((out_plus, in_plus), (out_minus, in_minus)) where the plus
    summand carries quantum shift +1: out_plus is the dotted cap, in_plus
    the plain cup, out_minus the plain cap, in_minus the dotted cup.
    """
    out_plus = MorphismCombo.from_cobordism(cap(t, loop, dotted=True))
    out_minus = MorphismCombo.from_cobordism(cap(t, loop, dotted=False))
    base = t.without_loop(loop)
    in_plus = MorphismCombo.from_cobordism(cup(base, loop, dotted=False))
    in_minus = MorphismCombo.from_cobordism(cup(base, loop, dotted=True))
    return (out_plus, in_plus), (out_minus, in_minus)
