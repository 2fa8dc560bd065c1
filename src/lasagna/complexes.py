"""Bigraded chain complexes over the dotted-cobordism category.

A complex stores generators (id, grading, flat tangle) and a sparse
differential whose entries are MorphismCombos (or plain scalars once all
objects are empty).  Differentials raise h2 by exactly 2.  The main
consumers are the crossing-by-crossing scanning build of the Khovanov cube
(attach a crossing, glue shared edge endpoints, deloop, cancel invertible
entries) and the rank computations extracting homology dimensions.

Gluing identifies boundary points in pairs.  Loops created by a closing arc
chain are named by the frozenset of constituent arcs, so gluing a
generator's tangle and gluing a differential entry agree on the nose.
`planar_tensor` glues each distinct pair of factor tangles once and keeps
the glued tangle, keymap and joined source arcs for that call only.

Every stored entry is in the dot-set normal form of `cobcat` (Bar-Natan,
"Fast Khovanov homology computations", 2007).  Which surface an entry's
terms glue into depends only on the factor entry's source and target, the
other factor's tangle and which factor the entry belongs to: those fix the
disks, the identity tensored on, and both glued ends.  `planar_tensor`
glues only the pieces a glued pair touches, plus the identity's tubes on
glued arcs and on loops: every other disk keeps its circle and its dot.
The tubes are bare `Component`s, one per key, with no cobordism around
them, since only the glued boundary is ever read.  Those pieces and the
call's pairs fix the glued part, so keys with the same pieces share one,
built once per call.  `glue_cobordism` glues the pieces along an interval
per glued pair through `cobcat.glue`, the routine composition uses too,
and reads the glued boundary off the closure circles of the glued tangles:
each circle holding a node of a piece, found through the reverse keymap
`tangle_gluing` returns with each glued tangle, belongs to that piece's
component.  The glued part has no ends, since the keys sharing it have
their own.  A term is then mapped by
looking up its dotted circles in the map from the touched circles to the
glued components, which are neck-cut where they are not disks
(`cobcat._normal_terms`), once per dot set and glued part.  The Koszul sign
and the coefficient ride on the term, and an entry's ends are its
generators' tangles.

Elimination composes through `MorphismCombo.then`, which glues the
composite surface of each (source, middle, target) tangle triple once
along the middle tangle (`cobcat._composite`); `simplify` drops them when
it returns, as a scan step composes tangles of its own.  Delooping a
generator splits each incoming and outgoing entry into its plus and minus
summands (`cobcat.deloop_split`), a partition of its terms.

Whether an entry is lambda * id is decided once, when `set_entry` stores
it: `units` and `units_in` hold those entries by row and by column, and
lose them when an entry is overwritten, zeroed or dropped with its
generator.  `simplify` takes its pivot candidates from them alone.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Optional

from .cobcat import (
    Cobordism,
    Component,
    FlatTangle,
    FrobeniusSpec,
    KHOVANOV,
    MorphismCombo,
    _composite,
    _normal_terms,
    closure_circles,
    deloop_split,
    glue,
)
from .gradings import DimTable, Grading, graded_blocks
from .linalg import block_homology_dims, inverse


class ComplexError(ValueError):
    pass


class BigradedComplex:
    def __init__(self, spec: FrobeniusSpec = KHOVANOV):
        self.spec = spec
        self.gens: dict[int, tuple[Grading, FlatTangle]] = {}
        self.d: dict[int, dict[int, MorphismCombo]] = {}
        self.d_in: dict[int, set[int]] = {}
        # the entries lambda * id, decided once as they are stored: source ->
        # {target: lambda} and target -> sources, a row or column only once it has one
        self.units: dict[int, dict[int, int | Fraction]] = {}
        self.units_in: dict[int, set[int]] = {}
        self._next = 0

    # -- construction -------------------------------------------------------

    def add_generator(self, grading: Grading, tangle: FlatTangle) -> int:
        gid = self._next
        self._next += 1
        self.gens[gid] = (grading, tangle)
        self.d[gid] = {}
        self.d_in[gid] = set()
        return gid

    def set_entry(self, s: int, t: int, m: MorphismCombo) -> None:
        gs, _ = self.gens[s]
        gt, _ = self.gens[t]
        if gt.h2 - gs.h2 != 2:
            raise ComplexError("differential entries must raise h2 by exactly 2")
        if m.is_zero():
            self.d[s].pop(t, None)
            self.d_in[t].discard(s)
            lam = None
        else:
            self.d[s][t] = m
            self.d_in[t].add(s)
            lam = m.invertible_scalar()
        if lam is not None:
            self.units.setdefault(s, {})[t] = lam
            self.units_in.setdefault(t, set()).add(s)
        elif t in self.units.get(s, ()):
            del self.units[s][t]
            self.units_in[t].discard(s)

    def entry(self, s: int, t: int) -> Optional[MorphismCombo]:
        return self.d.get(s, {}).get(t)

    @staticmethod
    def unit(spec: FrobeniusSpec = KHOVANOV) -> "BigradedComplex":
        c = BigradedComplex(spec)
        c.add_generator(Grading(0, 0), FlatTangle((), ()))
        return c

    def generators(self) -> list[int]:
        return sorted(self.gens)

    # -- delooping and elimination --------------------------------------------

    def deloop_generator(self, gid: int) -> tuple[int, int]:
        """Split a generator whose tangle has a loop into q+1 and q-1 copies."""
        grading, tangle = self.gens[gid]
        if not tangle.loops:
            raise ComplexError("generator has no loop to remove")
        # repr order: the loop taken first fixes the new generators' ids, and
        # pivot choices depend on those; most tangles have one loop
        if len(tangle.loops) == 1:
            (loop,) = tangle.loops
        else:
            loop = min(tangle.loops, key=repr)
        base = tangle.without_loop(loop)
        g_p = self.add_generator(grading.shift(0, 2), base)
        g_m = self.add_generator(grading.shift(0, -2), base)
        ins = [(u, self.d[u][gid]) for u in self.d_in[gid]]
        outs = list(self.d[gid].items())
        self._drop_generator(gid)
        # the q+1 summand: dotted cap out, plain cup in; the q-1 summand the reverse
        for u, f in ins:
            plus, minus = deloop_split(f, "t", loop, base)
            self.set_entry(u, g_p, plus)
            self.set_entry(u, g_m, minus)
        for v, f in outs:
            plus, minus = deloop_split(f, "s", loop, base)
            self.set_entry(g_p, v, plus)
            self.set_entry(g_m, v, minus)
        return g_p, g_m

    def truncate(self, h2: int) -> None:
        """Drop the generators below degree h2, then those in h2 with no entry left.

        The generators from h2 up span a subcomplex, since differentials
        raise h2, and one with no entry spans a direct summand.
        """
        for gid in [g for g, (gr, _) in self.gens.items() if gr.h2 < h2]:
            self._drop_generator(gid)
        for gid in [g for g, (gr, _) in self.gens.items()
                    if gr.h2 == h2 and not self.d[g] and not self.d_in[g]]:
            self._drop_generator(gid)

    def deloop_all(self) -> None:
        again = True
        while again:
            again = False
            for gid in sorted(self.gens):
                if gid in self.gens and self.gens[gid][1].loops:
                    self.deloop_generator(gid)
                    again = True

    def gaussian_eliminate(self, s: int, t: int) -> None:
        """Remove an invertible entry s -> t with the zig-zag correction."""
        if self.entry(s, t) is None:
            raise ComplexError("no such differential entry")
        lam = self.units.get(s, {}).get(t)
        if lam is None:
            raise ComplexError("entry is not an isomorphism")
        # a -> (lam^-1 id) -> b, negated; entries are in normal form, so
        # composing with lam^-1 id is scaling by lam^-1
        ins = [(u, self.d[u][t].scale(-inverse(lam))) for u in self.d_in[t] if u != s]
        outs = [(v, f) for v, f in self.d[s].items() if v != t]
        self._drop_generator(s)
        self._drop_generator(t)
        for u, a in ins:
            for v, b in outs:
                corr = a.then(b, self.spec)
                old = self.entry(u, v)
                self.set_entry(u, v, old + corr if old else corr)

    def _drop_generator(self, gid: int) -> None:
        for v in self.d.pop(gid, {}):
            self.d_in[v].discard(gid)
        for u in self.d_in.pop(gid, set()):
            self.d[u].pop(gid, None)
        for v in self.units.pop(gid, ()):
            self.units_in[v].discard(gid)
        for u in self.units_in.pop(gid, ()):
            del self.units[u][gid]
        del self.gens[gid]

    def simplify(self) -> "BigradedComplex":
        """Deloop all circles and cancel invertible entries to a fixpoint.

        Each pivot minimizes the key (fill, h2, q2, s, t): the
        (incoming-1)*(outgoing-1) fill-in, ties broken by the source's
        (h2, q2, id) and the target's id; homology does not depend on the
        choice.  Candidates are the lambda * identity entries, which
        `set_entry` records in `units` and `units_in` as it stores them, so
        no entry is asked twice.  The keys sit in a lazy heap, filled from
        every recorded candidate: a pivot's key moves only with its source's
        out-degree or its target's in-degree, and an elimination changes
        those, and creates pivots, only at the eliminated pair's neighbours,
        so the candidates in their rows and columns are pushed again after
        it.  A popped key whose entry is gone, is no longer invertible or
        has another key now is dropped.  Elimination creates no generator
        and no loop, so delooping once up front suffices.
        """
        self.deloop_all()
        units, units_in = self.units, self.units_in

        def cost(s, t):
            g = self.gens[s][0]
            fill = (len(self.d_in[t]) - 1) * (len(self.d[s]) - 1)
            return (fill, g.h2, g.q2, s, t)

        heap = [cost(s, t) for s, row in units.items() for t in row]
        heapq.heapify(heap)
        while heap:
            key = heapq.heappop(heap)
            s, t = key[3:]
            if t not in units.get(s, ()) or cost(s, t) != key:
                continue
            sources = (self.d_in[s] | self.d_in[t]) - {s}
            targets = (self.d[s].keys() | self.d[t].keys()) - {t}
            self.gaussian_eliminate(s, t)
            push = {(u, v) for u in sources for v in units.get(u, ())}
            push.update((u, v) for v in targets for u in units_in.get(v, ()))
            for u, v in push:
                heapq.heappush(heap, cost(u, v))
        # no composite recurs across a scan's simplify calls: kh_dims(T(5,5))
        # makes 2,691 `then` calls on 1,425 distinct triples, and clearing here
        # misses 1,425 times; kept across tasks, rw-twist's peak RSS rises 3 MB
        _composite.cache_clear()
        return self

    # -- homology --------------------------------------------------------------

    def homology_dims(self) -> DimTable:
        """Homology dimensions per block (`block_homology_dims`).

        Requires every generator's tangle to be empty (fully scanned closed
        diagram), so every entry is a scalar.
        """
        for gid, (_, tangle) in self.gens.items():
            if tangle.keys():
                raise ComplexError(
                    "homology needs a fully reduced complex over the empty tangle"
                )

        def row(s):
            return {t: x for t, m in self.d[s].items() if (x := m.as_scalar())}

        gradings = ((gid, g) for gid, (g, _) in self.gens.items())
        return block_homology_dims(graded_blocks(gradings, self.spec.c == 0), row)


# -- gluing machinery -------------------------------------------------------


def glue_tangle(t: FlatTangle, pairs: list[tuple]) -> tuple[FlatTangle, dict]:
    """Identify boundary points of t in pairs.

    Returns the glued tangle and a key map old arc -> new arc or loop, for
    the arcs gluing changes; every other key stays.  A chain of arcs closing
    up becomes a loop named ('loop', frozenset of original arcs merged into
    it), deterministically.
    """
    arcs = set(t.arcs)
    loops = set(t.loops)
    arc_at: dict = {}
    for a in arcs:
        for p in a:
            arc_at[p] = a
    origin: dict = {a: frozenset([a]) for a in arcs}  # current arc -> original arcs
    keymap: dict = {}

    def remap(olds, new):
        for o in olds:
            keymap[o] = new

    for p, q in pairs:
        if p not in arc_at or q not in arc_at:
            raise ComplexError(f"gluing point {p!r} or {q!r} not on the boundary")
        A = arc_at.pop(p)
        if q not in A:
            B = arc_at.pop(q)
        else:
            B = A
        if A == B:
            if A != frozenset((p, q)):
                raise ComplexError("cannot glue two interior points of one arc")
            # arc closes into a loop
            loop = ("loop", origin[A])
            arcs.discard(A)
            loops.add(loop)
            remap(origin[A], loop)
            del origin[A]
            continue
        (r,) = A - {p}
        (s,) = B - {q}
        arcs.discard(A)
        arcs.discard(B)
        C = frozenset((r, s))
        arcs.add(C)
        merged = origin[A] | origin[B]
        origin[C] = merged
        del origin[A]
        if B in origin:
            del origin[B]
        arc_at[r] = C
        arc_at[s] = C
        remap(merged, C)
    return FlatTangle(arcs, loops), keymap


def tangle_gluing(t: FlatTangle, pairs: list[tuple]) -> tuple:
    """(glued tangle, keymap, source-arc node pairs joined, reverse keymap) for gluing t along pairs.

    The reverse keymap sends each glued arc or loop to one key it merges.
    """
    glued, keymap = glue_tangle(t, pairs)
    arc_at = {p: a for a in t.arcs for p in a}
    joins = [(("s", arc_at[p]), ("s", arc_at[q])) for p, q in pairs]
    return glued, keymap, joins, {v: k for k, v in keymap.items()}


def glue_cobordism(comps: tuple, src: tuple, tgt: tuple) -> tuple[Cobordism, list[int]]:
    """Self-glue a disjoint union of components between the tangles glued as src and tgt.

    `src` and `tgt` come from `tangle_gluing` with the same pairs.  Each
    component is a disk on one closure circle or the identity's tube on
    one key, which is a disk on an arc and an annulus on a loop.  The
    vertical boundary line at a point joins its source and target arcs, so
    each glued pair glues the components of its two source arcs along an
    interval (`cobcat.glue`).  The glued boundary is read off the closure
    circles of the glued tangles: a circle's first node, taken back through
    its end's reverse keymap to a key it merges, lies on the component
    whose glued component bounds that circle; every key a glued key merges
    lies on one glued component.  Returns the glued surface, with no ends,
    and, per input component, the index of the glued component holding it.
    """
    glued_s, _, joins, back_s = src
    glued_t, back_t = tgt[0], tgt[3]
    comp_of = {node: i for i, c in enumerate(comps) for node in c.nodes}
    circles = []
    for x in closure_circles(glued_s, glued_t):
        side, k = next(iter(x))
        i = comp_of.get((side, (back_s if side == "s" else back_t).get(k, k)))
        if i is not None:
            circles.append((x, i))
    # chi: 1 on a disk and on an arc's tube, 0 on a loop's tube (two loop nodes)
    pieces = [(c.dots, 1 if type(next(iter(c.nodes))[1]) is frozenset else 2 - len(c.nodes))
              for c in comps]
    return glue(pieces, [(comp_of[na], comp_of[nb], 1) for na, nb in joins], circles)


def _disjoint_tangle(a: FlatTangle, b: FlatTangle) -> FlatTangle:
    if a.points & b.points or a.loops & b.loops:
        raise ComplexError("tangles to tensor must have disjoint labels")
    # both are validated matchings on disjoint points
    return tuple.__new__(FlatTangle, (a.arcs | b.arcs, a.loops | b.loops))


def planar_tensor(
    a: BigradedComplex,
    b: BigradedComplex,
    gluing: Optional[list[tuple]] = None,
    h2_min: Optional[int] = None,
) -> BigradedComplex:
    """Koszul-signed tensor of two complexes, then glue listed point pairs.

    Gradings add; the sign on id (x) d_b entries is (-1)^(h(a-generator)).
    Generators below h2_min are left out: since differentials raise h2, the
    ones kept span a subcomplex, and no entry of theirs leads to one left out.
    """
    if a.spec != b.spec:
        raise ComplexError("tensor factors must share a Frobenius spec")
    out = BigradedComplex(a.spec)
    pairs = list(gluing or [])
    gluings: dict = {}  # (tangle of a, tangle of b) -> tangle_gluing of their union
    ends: dict[tuple[int, int], int] = {}  # (ga, gb) -> generator
    for ga in a.generators():
        gr_a, t_a = a.gens[ga]
        for gb in b.generators():
            gr_b, t_b = b.gens[gb]
            grading = gr_a + gr_b
            if h2_min is not None and grading.h2 < h2_min:
                continue
            if (t_a, t_b) not in gluings:
                gluings[(t_a, t_b)] = tangle_gluing(_disjoint_tangle(t_a, t_b), pairs)
            ends[(ga, gb)] = out.add_generator(grading, gluings[(t_a, t_b)][0])
    glued_points = {p for pair in pairs for p in pair}

    def changed(t):
        # the identity's tubes that the gluing joins, on glued arcs, and that
        # neck-cut, on loops; every other tube is an undotted disk no term dots
        keys = [a for a in t.arcs if not glued_points.isdisjoint(a)] + list(t.loops)
        return tuple(Component(frozenset({("s", k), ("t", k)}), 0, 0) for k in keys)

    ids = {t: changed(t) for t in {t for c in (a, b) for _, t in c.gens.values()}}
    memo: dict = {}  # (factor source, factor target, other tangle, side) -> glued part
    shapes: dict = {}  # touched pieces -> (glued part, piece -> its component, by dot set)

    def glued(m, other, side):
        key = (m.source, m.target, other, side)
        if key not in memo:
            pair_s, pair_t = (m.source, other), (m.target, other)
            if side == "b":
                pair_s, pair_t = pair_s[::-1], pair_t[::-1]
            src, tgt = gluings[pair_s], gluings[pair_t]
            joined = {node for join in src[2] for node in join}
            # a disk no pair touches keeps its circle, and its dot, unchanged
            disks = [Component(x, 0, 0) for x in closure_circles(m.source, m.target)
                     if not joined.isdisjoint(x)]
            pieces = tuple(disks) + ids[other]
            shape = frozenset(pieces)
            if shape not in shapes:
                cob, where = glue_cobordism(pieces, src, tgt)
                shapes[shape] = cob, {c.nodes: i for c, i in zip(pieces, where)}, {}
            memo[key] = shapes[shape]
        return memo[key]

    def glue_term(cob, where, dots):
        """The normal terms of one factor term glued into cob, for coefficient 1."""
        added = [where[x] for x in dots if x in where]
        kept = [x for x in dots if x not in where]
        return [(d.union(kept), w) for d, w in _normal_terms(cob, added, 1, out.spec.c)]

    for (ga, gb), gid in ends.items():
        gr_a, t_a = a.gens[ga]
        t_b = b.gens[gb][1]
        if gr_a.h2 % 2:
            raise ComplexError("Koszul sign needs integral h on the left factor")
        # d_a (x) id, then (-1)^h id (x) d_b
        sign = -1 if (gr_a.h2 // 2) % 2 else 1
        moves = [((ta, gb), m, 1, t_b, "a") for ta, m in a.d[ga].items()]
        moves += [((ga, tb), m, sign, t_a, "b") for tb, m in b.d[gb].items()]
        for pair, m, sgn, other, side in moves:
            cob, where, by_dots = glued(m, other, side)
            entry = MorphismCombo(out.gens[gid][1], out.gens[ends[pair]][1])
            for dots, v in m.terms.items():
                if dots not in by_dots:
                    by_dots[dots] = glue_term(cob, where, dots)
                for normal, w in by_dots[dots]:
                    entry._add_term(normal, sgn * v * w)
            out.set_entry(gid, ends[pair], entry)
    return out
