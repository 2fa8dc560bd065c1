"""Dotted cobordisms between crossingless tangles, linearized over Q, kept
in Bar-Natan's "dots on disks" normal form (D. Bar-Natan, "Fast Khovanov
homology computations", J. Knot Theory Ramifications 16 (2007) 243-255).

Objects are flat tangles: a perfect matching ("arcs") on a set of boundary
points plus a set of closed loops.  A cobordism between two flat tangles
with the same boundary points is bounded by their closure circles: each
loop of either end is a circle, and the arcs of both ends, joined by the
vertical line at every boundary point, close up into the others.  A circle
is the set of its nodes ('s'|'t', arc-or-loop key), as
`_boundary_circle_partition` returns it; `closure_circles` lists them.

Local relations (Frobenius algebra Q[x]/(x^2 - c), c = the value of a
twice-dotted component): undotted sphere = 0, once-dotted sphere = 1, two
dots = c times no dots, and neck-cutting, a tube = (dot on one side) + (dot
on the other).  With them every cobordism is a combination of normal
terms: one genus-0 disk per closure circle, each with at most one dot.  A
normal term is therefore its set of dotted circles, a frozenset; the
undotted ones follow from the source and target.  `MorphismCombo.terms`
maps these dot sets to coefficients.  On a loop-free tangle the identity
is the empty dot set (each arc's tube is the disk on its closure circle),
so `invertible_scalar` tests one term; on a tangle with loops the identity
neck-cuts into two terms per loop and is no scalar entry.  Delooping a
loop (`deloop_split`) sends each term to the summand that the dot on the
loop's circle selects, and drops that circle.

Arbitrary surfaces are described by `Component` (boundary nodes, dots,
genus) and `Cobordism` (source, target, components); `reduce` brings a
combination of them to normal form.  A connected surface with b boundary
circles, genus g and d dots is Delta^(b-1)(x^d (2x)^g), or eps of it when
b = 0: with n = d + g, the sum over subsets S of its circles with
|S| = n + b - 1 - 2e, e >= 0, of 2^g c^e times the disks dotted on S
(`_neck_cut`, in closed form).

Composing is gluing, and one routine does it: `glue` joins connected
surfaces along intervals and circles, adds up their Euler characteristics
and reads off each genus.  Composing depends on the tangles only.  f: A ->
B then g: B -> C glue the disks of (A, B) and of (B, C) along the middle
tangle B, an interval per arc and a circle per loop, into the same surface
whatever the dots, so `_composite` builds that surface once per (A, B, C),
with maps from each input circle to the component it joins.  A pair of
terms is then mapped by looking up its dotted circles, and `reduce` expands
only the components that are not disks.  `complexes.glue_cobordism` glues
a tensor's surfaces through `glue` too, along an interval per glued pair of
points.  `closure_circles` keeps the circles of the last 256 tangle pairs,
which are those of the current open boundary.

Gradings are bookkept by the complexes that use these morphisms, not here.
The delooping maps follow the classical Khovanov convention: the circle is
isomorphic to the empty tangle shifted by q^{+1} and q^{-1}, with inclusion
(plain cup, dotted cup) and projection (dotted cap, plain cap) respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional
@dataclass(frozen=True)
class FrobeniusSpec:
    """The deformation parameter: dot^2 = c. Khovanov c=0, Lee c=1.

    An int c keeps integral coefficients ints.
    """

    c: int | Fraction = 0


KHOVANOV = FrobeniusSpec(0)
LEE = FrobeniusSpec(1)


def _unordered(self, other):
    raise TypeError(f"{type(self).__name__} objects have no order")


class FlatTangle(tuple):
    """A crossingless matching of boundary points plus closed loops.

    The pair (arcs, loops) of frozensets: hashing and equality are the
    tuple's, on the frozensets' cached hashes, so a FlatTangle equals the
    plain pair of its frozensets.  Tangles have no order.
    """

    __slots__ = ()

    def __new__(cls, arcs: Iterable, loops: Iterable = ()):
        arcs = frozenset(frozenset(a) for a in arcs)
        for a in arcs:
            if len(a) != 2:
                raise ValueError("an arc joins exactly two boundary points")
        pts = [p for a in arcs for p in a]
        if len(pts) != len(set(pts)):
            raise ValueError("boundary points must be matched exactly once")
        return tuple.__new__(cls, (arcs, frozenset(loops)))

    arcs = property(itemgetter(0))
    loops = property(itemgetter(1))
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __getnewargs__(self):
        return self.arcs, self.loops

    @property
    def points(self) -> frozenset:
        return frozenset(p for a in self.arcs for p in a)

    def keys(self):
        return list(self.arcs) + list(self.loops)

    def without_loop(self, loop) -> "FlatTangle":
        if loop not in self.loops:
            raise ValueError("no such loop")
        # self.arcs is already a validated matching
        return tuple.__new__(FlatTangle, (self.arcs, self.loops - {loop}))

    def with_loop(self, loop) -> "FlatTangle":
        return FlatTangle(self.arcs, self.loops | {loop})

    def __repr__(self):
        arcs = sorted(tuple(sorted(a, key=repr)) for a in self.arcs)
        return f"FlatTangle(arcs={arcs}, loops={sorted(self.loops, key=repr)})"


class Component(NamedTuple):
    """A connected surface: boundary nodes ('s'|'t', arc-or-loop key), dots, genus; unordered."""

    nodes: frozenset
    dots: int
    genus: int
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - len(_boundary_circle_partition(self.nodes))


class Cobordism:
    """A surface from source to target, given by its connected components.

    `circles[i]` are the boundary circles of component i; `necks` are the
    components that are not undotted disks.
    """

    __slots__ = ("source", "target", "comps", "circles", "necks")

    def __init__(self, source: FlatTangle, target: FlatTangle, comps: Iterable[Component]):
        comps = tuple(comps)
        self._set(source, target, comps, [_boundary_circle_partition(c.nodes) for c in comps])

    @staticmethod
    def _with_circles(source: FlatTangle, target: FlatTangle, comps, circles) -> "Cobordism":
        """A cobordism whose components' boundary circles are known already."""
        out = object.__new__(Cobordism)
        out._set(source, target, tuple(comps), circles)
        return out

    def _set(self, source, target, comps: tuple, circles) -> None:
        self.source, self.target, self.comps, self.circles = source, target, comps, tuple(circles)
        self.necks = [i for i, c in enumerate(comps) if c.dots or c.genus or len(circles[i]) != 1]

    def __repr__(self):
        return f"Cobordism({self.comps!r})"


def _circles(nodes: frozenset) -> tuple:
    """Boundary circles of a set of nodes as node subsets, in no fixed order.

    Each loop node is its own circle; arc-cycles alternate source and target
    arcs through shared endpoints (the vertical boundary line at a point p
    connects the source arc at p to the target arc at p).
    """
    circles, s_at, t_at = [], {}, {}
    for node in nodes:
        side, k = node
        if type(k) is frozenset:
            at = s_at if side == "s" else t_at
            for p in k:
                at[p] = k
        else:
            circles.append(frozenset((node,)))
    if s_at.keys() != t_at.keys():
        raise ValueError("component boundary points do not match on both sides")
    seen = set()
    for p, a in s_at.items():
        if a in seen:
            continue
        members = []
        arc = a
        while True:  # on the source arc `arc`, entered at p
            seen.add(arc)
            x, y = arc
            p = y if x == p else x
            t = t_at[p]
            members += (("s", arc), ("t", t))
            x, y = t
            p = y if x == p else x
            arc = s_at[p]
            if arc is a:
                break
        circles.append(frozenset(members))
    if len(circles) == 1:
        return (nodes,)
    return tuple(circles)


# Bounded: it serves the components of the surfaces in use, which lie on the
# current open boundary.
_boundary_circle_partition = lru_cache(maxsize=256)(_circles)


@lru_cache(maxsize=256)
def closure_circles(source: FlatTangle, target: FlatTangle) -> tuple:
    """The boundary circles of every cobordism from source to target."""
    nodes = [("s", k) for k in source.keys()] + [("t", k) for k in target.keys()]
    return _circles(frozenset(nodes))


def glue(pieces, joins) -> tuple[Cobordism, list[int]]:
    """Glue connected surfaces into one surface with no ends.

    Each piece is (boundary nodes left after gluing, dots, chi); each join
    (i, j, lost) glues pieces i and j along an interval (lost = 1) or a
    circle (lost = 0), lowering chi by `lost`.  A glued component adds up
    the nodes, dots and chi of its pieces, and its genus follows from chi
    and its boundary circles; one of chi 1 is a disk, whose one boundary
    circle is all its nodes, so only the others walk their boundary.
    Returns the glued surface and, per piece, the index of the component
    holding it.
    """
    parent = list(range(len(pieces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in joins:
        parent[find(i)] = find(j)
    members: dict[int, list[int]] = {}
    for i in range(len(pieces)):
        members.setdefault(find(i), []).append(i)
    lost = dict.fromkeys(members, 0)
    for i, _, n in joins:
        lost[find(i)] += n
    comps, circles, where = [], [], [0] * len(pieces)
    for root, idxs in members.items():
        for i in idxs:
            where[i] = len(comps)
        nodes = frozenset().union(*[pieces[i][0] for i in idxs])
        chi = sum(pieces[i][2] for i in idxs) - lost[root]
        if chi == 1:  # a disk: its one boundary circle holds every node
            assert nodes, "a glued disk has a boundary circle"
            bounds = (nodes,)
        else:
            bounds = _boundary_circle_partition(nodes)
        genus2 = 2 - len(bounds) - chi
        if genus2 % 2 or genus2 < 0:
            raise AssertionError("non-surface gluing of cobordisms")
        comps.append(Component(nodes, sum(pieces[i][1] for i in idxs), genus2 // 2))
        circles.append(bounds)
    return Cobordism._with_circles(None, None, comps, circles), where


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
    """Finite Q-linear combination of normal terms with common source/target.

    `terms` maps a dot set (the frozenset of dotted closure circles) to its
    coefficient.  Coefficients are ints until a division makes them
    non-integral.
    """

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: FlatTangle, target: FlatTangle, terms: Optional[dict] = None):
        self.source = source
        self.target = target
        self.terms: dict[frozenset, int | Fraction] = {}
        if terms:
            for dots, coeff in terms.items():
                self._add_term(dots, coeff)

    def _add_term(self, dots: frozenset, coeff) -> None:
        if not coeff:
            return
        cur = self.terms.get(dots)
        cur = coeff if cur is None else cur + coeff
        if cur:
            self.terms[dots] = cur
        else:
            del self.terms[dots]

    @staticmethod
    def from_cobordism(cob: Cobordism, coeff=1) -> "MorphismCombo":
        """A cobordism already in normal form: every component a disk with at most one dot."""
        pieces = list(zip(cob.comps, cob.circles))
        if any(c.genus or c.dots > 1 or len(circles) != 1 for c, circles in pieces):
            raise ValueError("cobordism not in normal form; reduce it")
        dots = frozenset(circles[0] for c, circles in pieces if c.dots)
        return MorphismCombo(cob.source, cob.target, {dots: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MorphismCombo") -> "MorphismCombo":
        if self.source != other.source or self.target != other.target:
            raise ValueError("cannot add morphisms with different endpoints")
        out = MorphismCombo(self.source, self.target, dict(self.terms))
        for dots, coeff in other.terms.items():
            out._add_term(dots, coeff)
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
        """Vertical composition self followed by other, in normal form."""
        if self.target != other.source:
            raise ValueError("composition endpoint mismatch")
        cob, lower, upper = _composite(self.source, self.target, other.target)
        raw = []
        for f, a in self.terms.items():
            dots_f = [lower[x] for x in f]
            for g, b in other.terms.items():
                raw.append((dots_f + [upper[y] for y in g], a * b))
        return reduce(cob, raw, spec)

    def as_scalar(self) -> int | Fraction:
        """The coefficient of the empty cobordism, for empty endpoints."""
        if self.source.keys() or self.target.keys():
            raise ValueError("scalar extraction needs empty source and target")
        return self.terms.get(frozenset(), 0)

    def invertible_scalar(self) -> Optional[int | Fraction]:
        """If self is lambda * identity (same loop-free tangle, lambda != 0), return lambda.

        On a loop-free tangle the identity is the empty dot set.
        """
        if len(self.terms) != 1 or self.source.loops or self.source != self.target:
            return None
        [(dots, coeff)] = self.terms.items()
        return None if dots else coeff


# BigradedComplex.simplify clears it; a belt_link(4) k <= 2 scan has 1,014 triples
@lru_cache(maxsize=1024)
def _composite(a: FlatTangle, b: FlatTangle, c: FlatTangle) -> tuple:
    """The undotted normal term a -> b followed by the undotted one b -> c.

    Their disks, with their outer nodes only, glue along the middle tangle
    b: each middle arc is an interval and each middle loop a circle.
    Returns the composite surface from a to c and maps from the closure
    circles of (a, b) and of (b, c) to the index of the component each one joins.
    """
    lower, upper = closure_circles(a, b), closure_circles(b, c)
    below = {k: i for i, circle in enumerate(lower) for side, k in circle if side == "t"}
    pieces = [(frozenset(x for x in circle if x[0] == "s"), 0, 1) for circle in lower]
    pieces += [(frozenset(x for x in circle if x[0] == "t"), 0, 1) for circle in upper]
    joins = [(below[k], j, int(type(k) is frozenset))
             for j, circle in enumerate(upper, len(lower)) for side, k in circle if side == "s"]
    cob, where = glue(pieces, joins)
    cob.source, cob.target = a, c
    return cob, dict(zip(lower, where)), dict(zip(upper, where[len(lower):]))


@lru_cache(maxsize=256)
def _neck_cut(b: int, genus: int, dots: int, c) -> tuple:
    """Normal form of one connected surface with b boundary circles:
    ((indices of the dotted circles, coefficient), ...).

    In Q[x]/(x^2 - c), where Delta(1) = 1 (x) x + x (x) 1 and a handle is 2x,
    the surface is Delta^(b-1)(x^dots (2x)^genus), or eps of it if b = 0.
    With n = dots + genus that is the sum over subsets S of the circles with
    |S| = n + b - 1 - 2e, e >= 0, of 2^genus c^e x^S.
    """
    n = dots + genus
    out = []
    for k in range(min(n + b - 1, b), -1, -1):
        e, odd = divmod(n + b - 1 - k, 2)
        weight = 0 if odd else 2 ** genus * c ** e
        if weight:
            out.extend((s, weight) for s in combinations(range(b), k))
    return tuple(out)


def reduce(cob: Cobordism, raw: Iterable[tuple[Iterable[int], int | Fraction]], spec: FrobeniusSpec) -> MorphismCombo:
    """The normal form of sum coeff * (cob with `added` dots), over (added, coeff) in raw.

    `added` lists a component index once for each dot it adds there.
    """
    out = MorphismCombo(cob.source, cob.target)
    for added, coeff in raw:
        for dots, w in _normal_terms(cob, added, coeff, spec.c):
            out._add_term(dots, w)
    return out


def _normal_terms(cob: Cobordism, added: Iterable[int], coeff, c) -> list:
    """The terms (dot set, coefficient) of coeff * (cob with `added` dots).

    An undotted disk is dotted when it gets an odd number of dots, times c
    per pair (x^2 = c); every other component goes through `_neck_cut`, and
    the result is the product over the components.
    """
    comps, circles, necks = cob.comps, cob.circles, cob.necks
    odd: set[int] = set()  # disks with an odd number of added dots
    extra: dict[int, int] = {}  # dots added to the other components
    for i in added:
        if i in necks:
            extra[i] = extra.get(i, 0) + 1
        elif i in odd:
            odd.remove(i)
            coeff *= c
        else:
            odd.add(i)
    if not coeff:
        return []
    terms = [([circles[i][0] for i in odd], coeff)]
    for i in necks:
        cut = _neck_cut(len(circles[i]), comps[i].genus, comps[i].dots + extra.get(i, 0), c)
        terms = [(d + [circles[i][j] for j in s], w * v) for d, w in terms for s, v in cut]
    return [(frozenset(d), w) for d, w in terms]


def deloop_split(m: MorphismCombo, side: str, loop, base: FlatTangle) -> tuple:
    """The plus and minus summands of delooping `loop` on one end of m.

    `base` is that end without the loop, shared by every entry split there.

    Side "t" caps the loop after m: plus = m then dotted cap, minus = m then
    plain cap.  Side "s" cups it before m: plus = plain cup then m, minus =
    dotted cup then m.  Equals composing with the maps of `deloop_maps`.
    The loop's circle bounds a disk with e <= 1 dots in every term; a cap or
    cup with d dots closes it into a sphere with e + d dots, worth 1 if
    e + d = 1 and 0 otherwise, for every c.  So each term goes to the one
    summand its dot on that circle selects, and loses that circle only.
    """
    circle = frozenset({(side, loop)})
    src = base if side == "s" else m.source
    tgt = base if side == "t" else m.target
    plus, minus = MorphismCombo(src, tgt), MorphismCombo(src, tgt)
    dotted, undotted = (minus, plus) if side == "t" else (plus, minus)
    for dots, coeff in m.terms.items():
        if circle in dots:
            dotted.terms[dots - {circle}] = coeff
        else:
            undotted.terms[dots] = coeff
    return plus, minus


def deloop_maps(t: FlatTangle, loop, spec: FrobeniusSpec):
    """Structure maps of circle ~ empty{+1} + empty{-1}.

    Returns ((out_plus, in_plus), (out_minus, in_minus)) where the plus
    summand carries quantum shift +1: out_plus is the dotted cap, in_plus
    the plain cup, out_minus the plain cap, in_minus the dotted cup.  Other
    loops of t make tubes, which `reduce` neck-cuts.
    """
    base = t.without_loop(loop)
    out_plus, out_minus, in_plus, in_minus = (
        reduce(cob, [((), 1)], spec)
        for cob in (cap(t, loop, True), cap(t, loop), cup(base, loop), cup(base, loop, True))
    )
    return (out_plus, in_plus), (out_minus, in_minus)
