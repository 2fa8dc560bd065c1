"""Dotted cobordisms between crossingless tangles, linearized over Q, kept
in Bar-Natan's "dots on disks" normal form (D. Bar-Natan, "Fast Khovanov
homology computations", J. Knot Theory Ramifications 16 (2007) 243-255).

Objects are flat tangles: a perfect matching ("arcs") on a set of boundary
points plus a set of closed loops.  A cobordism between two flat tangles
with the same boundary points is bounded by their closure circles: each
loop of either end is a circle, and the arcs of both ends, joined by the
vertical line at every boundary point, close up into the others.  A circle
is the set of its nodes ('s'|'t', arc-or-loop key); `closure_circles`
lists them, and every cobordism's boundary comes from it: no node set is
walked anywhere in the package (the tests keep such a walk as reference).

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
genus) and `Cobordism` (source, target, components), which gives each
closure circle to the component holding its nodes; `reduce` brings a
combination of them to normal form.  A connected surface with b boundary
circles, genus g and d dots is Delta^(b-1)(x^d (2x)^g), or eps of it when
b = 0: with n = d + g, the sum over subsets S of its circles with
|S| = n + b - 1 - 2e, e >= 0, of 2^g c^e times the disks dotted on S
(`_neck_cut`, in closed form).

Composing is gluing, and one routine does it: `glue` joins connected
surfaces along intervals and circles, adds up their Euler characteristics
and reads off each genus.  It walks no boundary: a cobordism's boundary is
the closure of its two ends, so each caller hands `glue` the closure
circles of the glued ends, each with a piece that holds one of its nodes,
and a glued component owns the circles its pieces hold.  Composing
depends on the tangles only.  f: A -> B then g: B -> C glue the disks of
(A, B) and of (B, C) along the middle tangle B, an interval per arc and a
circle per loop, into the same surface whatever the dots, so `_composite`
builds that surface once per (A, B, C), bounded by `closure_circles(A, C)`,
with maps from each input circle to the component it joins.  A pair of
terms is then mapped by looking up its dotted circles, and `reduce`
expands only the components that are not disks.  `complexes.glue_cobordism`
glues a tensor's surfaces through `glue` too, along an interval per glued
pair of points, and finds the piece holding each glued circle through the
reverse keymap of its gluing, from each glued key to one key it merges.
`closure_circles` walks the arcs of its two tangles and
keeps the circles of the last 256 tangle pairs, which are those of the
current open boundary; the glued circles are those same frozensets.

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


class Cobordism:
    """A surface from source to target, given by its connected components.

    Its boundary is `closure_circles(source, target)`, and `circles[i]` are
    the circles of component i: those `glue` passes, or else each closure
    circle goes to the component holding its nodes, which must partition
    the closure.  `necks` are the components that are not undotted disks.
    """

    __slots__ = ("source", "target", "comps", "circles", "necks")

    def __init__(self, source: FlatTangle, target: FlatTangle, comps: Iterable[Component], circles=None):
        comps = tuple(comps)
        if circles is None:
            owner = {node: i for i, c in enumerate(comps) for node in c.nodes}
            circles = [[] for _ in comps]
            closure = closure_circles(source, target)
            for x in closure:
                i = owner.get(next(iter(x)))
                if i is None or any(owner.get(node) != i for node in x):
                    raise ValueError("boundary points do not match the closure circles")
                circles[i].append(x)
            if sum(len(c.nodes) for c in comps) != sum(map(len, closure)):
                raise ValueError("boundary points do not match the closure circles")
        self.source, self.target, self.comps, self.circles = source, target, comps, tuple(circles)
        self.necks = [i for i, c in enumerate(comps) if c.dots or c.genus or len(circles[i]) != 1]

    def __repr__(self):
        return f"Cobordism({self.comps!r})"


@lru_cache(maxsize=256)
def closure_circles(source: FlatTangle, target: FlatTangle) -> tuple:
    """The boundary circles of every cobordism from source to target, as node sets.

    One per loop of either end, then the circles their arcs close up into:
    the vertical boundary line at a point connects the source and the
    target arc there, so a circle alternates source and target arcs through
    shared endpoints.
    """
    s_at = {p: a for a in source.arcs for p in a}
    t_at = {p: a for a in target.arcs for p in a}
    if s_at.keys() != t_at.keys():
        raise ValueError("boundary points do not match on both sides")
    circles = [frozenset((("s", k),)) for k in source.loops]
    circles += [frozenset((("t", k),)) for k in target.loops]
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
    return tuple(circles)


def glue(pieces, joins, circles) -> tuple[Cobordism, list[int]]:
    """Glue connected surfaces into one surface with no ends.

    Each piece is (dots, chi); each join (i, j, lost) glues pieces i and j
    along an interval (lost = 1) or a circle (lost = 0), lowering chi by
    `lost`.  `circles` pairs each boundary circle of the glued surface
    with a piece that holds one of its nodes.  A glued component adds up
    the dots and chi of its pieces and owns the circles they hold; its
    genus follows from chi and the number of those circles.  Returns the
    glued surface and, per piece, the index of the component holding it.
    """
    parent = list(range(len(pieces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in joins:
        parent[find(i)] = find(j)
    index: dict[int, int] = {}  # root -> component, in the order of the first piece
    where, dots, chi = [], [], []
    for i, (d, x) in enumerate(pieces):
        root = find(i)
        c = index.get(root)
        if c is None:
            c = index[root] = len(dots)
            dots.append(0)
            chi.append(0)
        where.append(c)
        dots[c] += d
        chi[c] += x
    bounds = [[] for _ in dots]
    for i, _, lost in joins:
        chi[where[i]] -= lost
    for circle, i in circles:
        bounds[where[i]].append(circle)
    comps = []
    for d, x, b in zip(dots, chi, bounds):
        genus2 = 2 - len(b) - x
        if genus2 % 2 or genus2 < 0:
            raise AssertionError("non-surface gluing of cobordisms")
        comps.append(Component(b[0] if len(b) == 1 else frozenset().union(*b), d, genus2 // 2))
    return Cobordism(None, None, comps, bounds), where


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


# BigradedComplex.simplify clears it: no composite recurs across a scan's
# simplify calls, since kh_dims(T(5,5)) makes 2,691 `then` calls on 1,425
# distinct triples and clearing at each simplify misses 1,425 times
@lru_cache(maxsize=1024)
def _composite(a: FlatTangle, b: FlatTangle, c: FlatTangle) -> tuple:
    """The undotted normal term a -> b followed by the undotted one b -> c.

    Their disks glue along the middle tangle b: each middle arc is an
    interval and each middle loop a circle.  The composite's boundary is
    `closure_circles(a, c)`, and each of its circles is held by the lower
    disk of one of its source nodes and the upper disk of one of its target
    nodes.  Returns the composite surface from a to c and maps from the
    closure circles of (a, b) and of (b, c) to the index of the component
    each one joins.
    """
    lower, upper = closure_circles(a, b), closure_circles(b, c)
    below = {k: i for i, circle in enumerate(lower) for side, k in circle if side == "t"}
    joins = [(below[k], j, int(type(k) is frozenset))
             for j, circle in enumerate(upper, len(lower)) for side, k in circle if side == "s"]
    owner = {x: i for i, circle in enumerate(lower) for x in circle if x[0] == "s"}
    owner.update({x: j for j, circle in enumerate(upper, len(lower)) for x in circle if x[0] == "t"})
    circles = [(x, owner[next(iter(x))]) for x in closure_circles(a, c)]
    cob, where = glue([(0, 1)] * (len(lower) + len(upper)), joins, circles)
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
