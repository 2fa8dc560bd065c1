"""Chain maps induced by elementary link cobordisms, in the dense model.

Morse moves (birth, death, saddle, dot, coevaluations) act state-by-state
through the Frobenius algebra; their matrices are exact and commute with the
cube differentials on the nose.  First and second Reidemeister moves carry
explicit strong-deformation-retract data between the small complex and the
kinked/poked one, written resolution-by-resolution.  R3 maps, where the two
diagrams share a crossing count, are composites through the fully reduced
minimal models and are therefore canonical on homology only; no test
asserts their chain-level signs.

This module owns the belt-permutation action (`_permutation_chain_map`,
labels transported along crossed tubes) and the symmetrizer built on it
(`_Symmetrizer`), which `skein` imports.  The symmetrizer builds only the
belt transpositions and checks every one of them to commute with the
differential.  `Movie` is the one place moves are dispatched and composed.
`homology_matrix` is the one routine turning a chain-level map into
matrices between homology blocks: each column is one reduction of an image
in the target block's coordinate echelon (`Cube.homology_basis`), with no
span rebuilt per column.

All formulas are classical-convention; consumers needing the gl2-normalized
degree of a move use -chi + 2*dots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .densecube import ChainMap, Cube, TrackedReduction, _acc
from .diagram import Crossing, LinkDiagram
from .gradings import DimTable, Grading, Window
from .linalg import Echelon, inverse, row_reduce


# -- diagram rewrites for Morse moves ----------------------------------------


def birth_diagram(d: LinkDiagram, new_edge: str) -> LinkDiagram:
    if new_edge in d.edges:
        raise ValueError(f"edge {new_edge!r} already present")
    orient = dict(d.orientations)
    orient[new_edge] = "up"
    return LinkDiagram(
        list(d.edges) + [new_edge], d.crossings, d.framing_points, d.regions, orient
    )


def death_diagram(d: LinkDiagram, edge: str) -> LinkDiagram:
    if edge not in d.free_loops:
        raise ValueError("death needs a crossingless circle")
    orient = {e: t for e, t in d.orientations.items() if e != edge}
    return LinkDiagram(
        [e for e in d.edges if e != edge],
        d.crossings,
        [(e, w) for e, w in d.framing_points if e != edge],
        d.regions,
        orient,
    )


def saddle_diagram(d: LinkDiagram, e: str, f: str) -> LinkDiagram:
    """Oriented saddle between edges e and f (e == f splits off a circle)."""
    free = set(d.free_loops)
    if e == f:
        base = "split"
        i = 0
        while f"{base}{i}" in d.edges:
            i += 1
        return birth_diagram(d, f"{base}{i}")
    if e in free and f in free:
        # merging two crossingless circles: one edge survives
        return _absorb(d, f)
    if e in free or f in free:
        # a crossingless circle is absorbed into the other strand
        return _absorb(d, e if e in free else f)
    # cross-join: each edge keeps its tail slot and receives the other's head
    crossings = [list(c.edges) for c in d.crossings]
    swaps = {e: f, f: e}
    for ci, c in enumerate(d.crossings):
        for slot in (0, 3 if c.sign == 1 else 1):  # head slots
            if c.edges[slot] in swaps:
                crossings[ci][slot] = swaps[c.edges[slot]]
    return LinkDiagram(
        d.edges,
        [Crossing(tuple(c), x.sign) for c, x in zip(crossings, d.crossings)],
        d.framing_points,
        d.regions,
        d.orientations,
    )


def _absorb(d: LinkDiagram, gone: str) -> LinkDiagram:
    orient = {e: t for e, t in d.orientations.items() if e != gone}
    return LinkDiagram(
        [e for e in d.edges if e != gone],
        d.crossings,
        [(e, w) for e, w in d.framing_points if e != gone],
        d.regions,
        orient,
    )


# -- per-state circle matching -------------------------------------------------


def _circle_index(circles, edge):
    for i, c in enumerate(circles):
        if edge in c:
            return i
    raise ValueError(f"edge {edge!r} not in any circle")


def _match_other_circles(src_circles, dst_circles, changed_src, changed_dst):
    """Match unchanged circles by edge content; return dst index per src index."""
    unchanged_dst = {c: i for i, c in enumerate(dst_circles) if i not in changed_dst}
    out = {}
    for i, c in enumerate(src_circles):
        if i in changed_src:
            continue
        if c not in unchanged_dst:
            raise ValueError("circle mismatch between diagrams")
        out[i] = unchanged_dst[c]
    return out


# -- Morse chain maps ---------------------------------------------------------


def birth_map(src: Cube, dst: Cube, new_edge: str) -> ChainMap:
    entries = {}
    for gen in src.generators():
        s, labels = gen
        dst_circles = dst.circles[s]
        j = _circle_index(dst_circles, new_edge)
        match = _match_other_circles(src.circles[s], dst_circles, set(), {j})
        new_labels = [0] * len(dst_circles)
        for i, l in enumerate(labels):
            new_labels[match[i]] = l
        new_labels[j] = 0
        entries[gen] = {(s, tuple(new_labels)): 1}
    return ChainMap(src, dst, entries)


def death_map(src: Cube, dst: Cube, edge: str) -> ChainMap:
    entries = {}
    for gen in src.generators():
        s, labels = gen
        src_circles = src.circles[s]
        j = _circle_index(src_circles, edge)
        if labels[j] == 0:  # eps(1) = 0
            continue
        match = _match_other_circles(src_circles, dst.circles[s], {j}, set())
        new_labels = [0] * len(dst.circles[s])
        for i, l in enumerate(labels):
            if i != j:
                new_labels[match[i]] = l
        entries[gen] = {(s, tuple(new_labels)): 1}
    return ChainMap(src, dst, entries)


def dot_map(cube: Cube, edge: str) -> ChainMap:
    entries = {}
    for gen in cube.generators():
        s, labels = gen
        j = _circle_index(cube.circles[s], edge)
        if labels[j] == 0:
            nl = list(labels)
            nl[j] = 1
            entries[gen] = {(s, tuple(nl)): 1}
        elif cube.c:
            nl = list(labels)
            nl[j] = 0
            entries[gen] = {(s, tuple(nl)): cube.c}
    return ChainMap(cube, cube, entries)


def saddle_map(src: Cube, dst: Cube, e: str, f: str) -> ChainMap:
    """TQFT map of the saddle between edges e and f (split when e == f)."""
    entries = {}
    split_edge = None
    if e == f:
        split_edge = [x for x in dst.diagram.edges if x not in src.diagram.edges]
        assert len(split_edge) == 1
        split_edge = split_edge[0]
    for gen in src.generators():
        s, labels = gen
        sc = src.circles[s]
        dc = dst.circles[s]
        if split_edge is not None:
            i = _circle_index(sc, e)
            j_new = _circle_index(dc, split_edge)
            j_old = _circle_index(dc, e)
            match = _match_other_circles(sc, dc, {i}, {j_new, j_old})
            base = [0] * len(dc)
            for k, l in enumerate(labels):
                if k != i:
                    base[match[k]] = l
            out: dict = {}
            # Delta: 1 -> 1(x)x + x(x)1 ; x -> x(x)x + c 1(x)1
            if labels[i] == 0:
                for la, lb in ((0, 1), (1, 0)):
                    nl = list(base)
                    nl[j_old], nl[j_new] = la, lb
                    _acc(out, (s, tuple(nl)), 1)
            else:
                nl = list(base)
                nl[j_old], nl[j_new] = 1, 1
                _acc(out, (s, tuple(nl)), 1)
                if src.c:
                    nl = list(base)
                    nl[j_old], nl[j_new] = 0, 0
                    _acc(out, (s, tuple(nl)), src.c)
            entries[gen] = out
            continue
        i1 = _circle_index(sc, e)
        i2 = _circle_index(sc, f)
        surviving = e if e in dst.diagram.edges else f
        if i1 == i2:
            # one circle splits into the two dst circles containing e and f
            j1 = _circle_index(dc, e)
            j2 = _circle_index(dc, f)
            assert j1 != j2, "saddle did not split"
            match = _match_other_circles(sc, dc, {i1}, {j1, j2})
            base = [0] * len(dc)
            for k, l in enumerate(labels):
                if k != i1:
                    base[match[k]] = l
            out = {}
            if labels[i1] == 0:
                for la, lb in ((0, 1), (1, 0)):
                    nl = list(base)
                    nl[j1], nl[j2] = la, lb
                    _acc(out, (s, tuple(nl)), 1)
            else:
                nl = list(base)
                nl[j1], nl[j2] = 1, 1
                _acc(out, (s, tuple(nl)), 1)
                if src.c:
                    nl = list(base)
                    nl[j1], nl[j2] = 0, 0
                    _acc(out, (s, tuple(nl)), src.c)
            entries[gen] = out
        else:
            # two circles merge
            j = _circle_index(dc, surviving)
            if e in dst.diagram.edges and f in dst.diagram.edges:
                assert j == _circle_index(dc, f), "saddle did not merge"
            match = _match_other_circles(sc, dc, {i1, i2}, {j})
            base = [0] * len(dc)
            for k, l in enumerate(labels):
                if k not in (i1, i2):
                    base[match[k]] = l
            tot = labels[i1] + labels[i2]
            out = {}
            if tot == 0:
                nl = list(base)
                nl[j] = 0
                _acc(out, (s, tuple(nl)), 1)
            elif tot == 1:
                nl = list(base)
                nl[j] = 1
                _acc(out, (s, tuple(nl)), 1)
            elif src.c:
                nl = list(base)
                nl[j] = 0
                _acc(out, (s, tuple(nl)), src.c)
            if out:
                entries[gen] = out
        if gen in entries and not entries[gen]:
            del entries[gen]
    return ChainMap(src, dst, entries)


def coev_map(src: Cube, dst: Cube, c1: str, c2: str, dotted: bool = False) -> ChainMap:
    """Create the split circle pair (c1, c2): 1 -> 1(x)x + x(x)1, dotted: x(x)x."""
    entries = {}
    c = src.c
    for gen in src.generators():
        s, labels = gen
        dc = dst.circles[s]
        j1 = _circle_index(dc, c1)
        j2 = _circle_index(dc, c2)
        match = _match_other_circles(src.circles[s], dc, set(), {j1, j2})
        base = [0] * len(dc)
        for k, l in enumerate(labels):
            base[match[k]] = l
        out: dict = {}
        if not dotted:
            pairs = [((0, 1), 1), ((1, 0), 1)]
        else:
            pairs = [((1, 1), 1)]
            if c:
                pairs.append(((0, 0), c))
        for (la, lb), coeff in pairs:
            nl = list(base)
            nl[j1], nl[j2] = la, lb
            _acc(out, (s, tuple(nl)), coeff)
        entries[gen] = out
    return ChainMap(src, dst, entries)


# -- Reidemeister retracts ------------------------------------------------------


class R2Retract:
    """Explicit strong deformation retract data for one R2 poke.

    The big diagram is the small one with crossings (X1, X2) added by
    r2_poke; the distinguished resolution (X1,X2) = (0,1) reproduces the two
    strands, while (1,0) contains the small middle circle O.  Writing sigma
    for the lane surgery (the reconnection at the X1 site), eta for the
    birth of O with unit label and eps for the counit on O, the retract is

        include(y)   = y|_(0,1) + (sigma(y) (x) eta)|_(1,0)
        project      = relabel on (0,1),  -(sigma' o (id (x) eps)) on (1,0),
                       0 on the other two resolutions,

    which satisfies project . include = id; both are chain maps.  This is
    the classical Reidemeister II retract written state-by-state.
    """

    def __init__(self, big: Cube, small: Cube, edge_projection: dict, new_crossings: list[int]):
        self.big = big
        self.small = small
        self.proj = dict(edge_projection)
        self.new = list(new_crossings)
        self.shared = [i for i in range(big.n) if i not in self.new]
        if small.n != len(self.shared):
            raise ValueError("crossing counts do not line up")
        x1, x2 = self.new
        self.state_K = {x1: 0, x2: 1}
        self.state_B = {x1: 1, x2: 0}
        # middle circle of the (1,0) resolution: the two swapped-out pieces
        # (they meet only the two new crossings)
        mids = [e for e, p in self.proj.items() if e != p]
        shared_edges = set()
        for i in self.shared:
            shared_edges.update(big.diagram.crossings[i].edges)
        self.middle = frozenset(e for e in mids if e not in shared_edges
                                and self._hits_both_new(e))
        if len(self.middle) != 2:
            raise ValueError("middle circle of the poke not recognized")
        self.lanes = tuple(sorted(self.proj[e] for e in self.middle))

    def _hits_both_new(self, e) -> bool:
        return all(e in self.big.diagram.crossings[i].edges for i in self.new)

    def _big_state(self, small_state: int, res: dict) -> int:
        out = 0
        for k, i in enumerate(self.shared):
            if (small_state >> k) & 1:
                out |= 1 << i
        for i, r in res.items():
            if r:
                out |= 1 << i
        return out

    def _small_state(self, big_state: int) -> int:
        out = 0
        for k, i in enumerate(self.shared):
            if (big_state >> i) & 1:
                out |= 1 << k
        return out

    def _match_by_projection(self, big_circles, small_circles):
        small_idx = {c: i for i, c in enumerate(small_circles)}
        out = {}
        for i, c in enumerate(big_circles):
            pc = frozenset(self.proj[e] for e in c)
            if pc not in small_idx:
                return None
            out[i] = small_idx[pc]
        return out

    def include(self) -> ChainMap:
        entries: dict = {}
        for gen in self.small.generators():
            ss, labels = gen
            out: dict = {}
            # K-component: straight relabeling through the projection
            bs = self._big_state(ss, self.state_K)
            bc = self.big.circles[bs]
            match = self._match_by_projection(bc, self.small.circles[ss])
            if match is None:
                raise AssertionError("distinguished resolution does not project")
            nl = [0] * len(bc)
            for i in range(len(bc)):
                nl[i] = labels[match[i]]
            _acc(out, (bs, tuple(nl)), 1)
            # B-component: lane surgery, unit label on the middle circle
            bs2 = self._big_state(ss, self.state_B)
            for tgt, coeff in self._lane_surgery_into_B(ss, labels, bs2):
                _acc(out, tgt, coeff)
            entries[gen] = out
        return ChainMap(self.small, self.big, entries)

    def _circle_data_B(self, bs2, ss):
        bc = self.big.circles[bs2]
        o_idx = None
        for i, c in enumerate(bc):
            if c == self.middle:
                o_idx = i
        if o_idx is None:
            raise AssertionError("middle circle missing in the (1,0) resolution")
        sc = self.small.circles[ss]
        la, lb = self.lanes
        i1 = _circle_index(sc, la)
        i2 = _circle_index(sc, lb)
        proj_rest = {}
        for i, c in enumerate(bc):
            if i != o_idx:
                proj_rest[i] = frozenset(self.proj[e] for e in c)
        changed_big = sorted(i for i, pc in proj_rest.items() if la in pc or lb in pc)
        small_unchanged = {}
        for i, c in enumerate(sc):
            if i not in (i1, i2):
                small_unchanged[c] = i
        return bc, sc, o_idx, i1, i2, proj_rest, changed_big, small_unchanged

    def _lane_surgery_into_B(self, ss, labels, bs2):
        """sigma(y) (x) unit on O, placed in the (1,0) resolution."""
        bc, sc, o_idx, i1, i2, proj_rest, changed_big, small_unchanged = (
            self._circle_data_B(bs2, ss)
        )
        base = [0] * len(bc)
        for i, pc in proj_rest.items():
            if i not in changed_big:
                base[i] = labels[small_unchanged[pc]]
        results = []
        if i1 != i2:
            # the two lane circles fuse under the surgery
            assert len(changed_big) == 1
            j = changed_big[0]
            tot = labels[i1] + labels[i2]
            if tot == 0:
                terms = [(0, 1)]
            elif tot == 1:
                terms = [(1, 1)]
            else:
                terms = [(0, self.small.c)] if self.small.c else []
            for lab, coeff in terms:
                nl = list(base)
                nl[j] = lab
                nl[o_idx] = 0
                results.append(((bs2, tuple(nl)), coeff))
        else:
            assert len(changed_big) == 2, "lane surgery did not split"
            j1, j2 = changed_big
            if labels[i1] == 0:
                pieces = [((0, 1), 1), ((1, 0), 1)]
            else:
                pieces = [((1, 1), 1)]
                if self.small.c:
                    pieces.append(((0, 0), self.small.c))
            for (p1, p2), coeff in pieces:
                nl = list(base)
                nl[j1], nl[j2] = p1, p2
                nl[o_idx] = 0
                results.append(((bs2, tuple(nl)), coeff))
        return results

    def project(self) -> ChainMap:
        entries: dict = {}
        x1, x2 = self.new
        for gen in self.big.generators():
            bs, labels = gen
            r1 = (bs >> x1) & 1
            r2 = (bs >> x2) & 1
            ss = self._small_state(bs)
            if (r1, r2) == (0, 1):
                bc = self.big.circles[bs]
                match = self._match_by_projection(bc, self.small.circles[ss])
                nl = [0] * len(self.small.circles[ss])
                for i, l in enumerate(labels):
                    nl[match[i]] = l
                entries[gen] = {(ss, tuple(nl)): 1}
            elif (r1, r2) == (1, 0):
                out: dict = {}
                for tgt, coeff in self._counit_and_split(bs, labels, ss):
                    _acc(out, tgt, -coeff)
                if out:
                    entries[gen] = out
        return ChainMap(self.big, self.small, entries)

    def _counit_and_split(self, bs, labels, ss):
        """(id (x) eps) then the reverse lane surgery, from the (1,0) state."""
        bc, sc, o_idx, i1, i2, proj_rest, changed_big, small_unchanged = (
            self._circle_data_B(bs, ss)
        )
        if labels[o_idx] == 0:
            return []  # eps(1) = 0
        base = [0] * len(sc)
        for i, pc in proj_rest.items():
            if i not in changed_big:
                base[small_unchanged[pc]] = labels[i]
        results = []
        if i1 != i2:
            # reverse of a merge: split the merged-lane label over two circles
            assert len(changed_big) == 1
            v = labels[changed_big[0]]
            if v == 0:
                pieces = [((0, 1), 1), ((1, 0), 1)]
            else:
                pieces = [((1, 1), 1)]
                if self.small.c:
                    pieces.append(((0, 0), self.small.c))
            for (p1, p2), coeff in pieces:
                nl = list(base)
                nl[i1], nl[i2] = p1, p2
                results.append(((ss, tuple(nl)), coeff))
        else:
            assert len(changed_big) == 2
            tot = labels[changed_big[0]] + labels[changed_big[1]]
            if tot == 0:
                terms = [(0, 1)]
            elif tot == 1:
                terms = [(1, 1)]
            else:
                terms = [(0, self.small.c)] if self.small.c else []
            for lab, coeff in terms:
                nl = list(base)
                nl[i1] = lab
                results.append(((ss, tuple(nl)), coeff))
        return results


def r2_poke(d: LinkDiagram, over_edge: str, under_edge: str):
    """Poke `over_edge` across `under_edge` (an R2 move adding 2 crossings).

    Returns (new_diagram, edge_projection, new_crossing_indices).
    """
    if over_edge == under_edge:
        raise ValueError("poke needs two distinct edges")
    used = set(d.edges)

    def fresh(base):
        i = 0
        while f"{base}'{i}" in used:
            i += 1
        used.add(f"{base}'{i}")
        return f"{base}'{i}"

    a, b = over_edge, under_edge
    heads = {}
    for ci, c in enumerate(d.crossings):
        heads[c.edges[0]] = (ci, 0)
        heads[c.edges[3 if c.sign == 1 else 1]] = (ci, 3 if c.sign == 1 else 1)
    a_m = fresh(a)
    b_m = fresh(b)
    # free loops close back onto their original id; open strands get a top stub
    a2 = fresh(a) if a in heads else a
    b2 = fresh(b) if b in heads else b
    crossings = [list(c.edges) for c in d.crossings]
    for old, new in ((a, a2), (b, b2)):
        if old in heads and new != old:
            ci, slot = heads[old]
            crossings[ci][slot] = new
    signs = [c.sign for c in d.crossings]
    # X1: a runs west->east over b (south->north): ccw from under-in (south)
    x1 = Crossing((b, a_m, b_m, a), 1)
    # X2: a returns east->west over b: under-in at south is b_m
    x2 = Crossing((b_m, a_m, b2, a2), -1)
    new_crossings = [Crossing(tuple(c), s) for c, s in zip(crossings, signs)] + [x1, x2]
    edges = list(d.edges) + [x for x in (a_m, a2, b_m, b2) if x not in d.edges]
    orient = dict(d.orientations)
    for x, base in ((a_m, a), (a2, a), (b_m, b), (b2, b)):
        orient[x] = d.orientations[base]
    big = LinkDiagram(edges, new_crossings, d.framing_points, d.regions, orient)
    # in the identity resolution the middle segments swap lanes: b_m lies on
    # a's strand and a_m on b's
    proj = {e: e for e in d.edges}
    proj.update({a_m: b, a2: a, b_m: a, b2: b})
    return big, proj, [len(d.crossings), len(d.crossings) + 1]


# -- movies, homology functors, symmetrizer -------------------------------------


def homology_matrix(apply: Callable[[dict], dict], H_src: dict, H_dst: dict, shift=(0, 0)) -> dict:
    """Matrix on homology of a chain-level map, block by block.

    `apply` sends a chain of the source to a chain of the target and moves
    the grading (h2, q2) by `shift`; H_src and H_dst are homology bases as
    returned by `Cube.homology_basis`.  Returns {source (h2,q2): columns},
    one coordinate list per source representative, in the target block's
    representatives.  Raises when an image is not a cycle of the target.
    """
    result = {}
    for (h2, q2), (reps, _ech) in H_src.items():
        if not reps:
            continue
        treps, tech = H_dst.get((h2 + shift[0], q2 + shift[1]), ([], Echelon()))
        cols = []
        for v in reps:
            sol = tech.coordinates(apply(v))
            if sol is None:
                raise AssertionError("image not a cycle coordinate in target homology")
            cols.append([sol.get(i, 0) for i in range(len(treps))])
        result[(h2, q2)] = cols
    return result


def block_ranks(matrices: dict) -> dict:
    """Rank of each block of a `homology_matrix` result."""
    return {
        key: len(row_reduce([{i: c for i, c in enumerate(col) if c} for col in cols]))
        for key, cols in matrices.items()
    }


@dataclass
class MovieStep:
    diagram: LinkDiagram
    cube: Cube
    map_from_prev: Optional[ChainMap]


class Movie:
    """A sequence of elementary moves with their composed chain map."""

    def __init__(self, start: LinkDiagram, c=Fraction(0)):
        self.steps = [MovieStep(start, Cube(start.forget_regions(), c), None)]
        self.c = c

    @property
    def current(self) -> LinkDiagram:
        return self.steps[-1].diagram

    def _push(self, d: LinkDiagram, f: ChainMap) -> None:
        self.steps.append(MovieStep(d, f.dst, f))

    def birth(self, new_edge: str) -> "Movie":
        d2 = birth_diagram(self.current, new_edge)
        cube2 = Cube(d2.forget_regions(), self.c)
        self._push(d2, birth_map(self.steps[-1].cube, cube2, new_edge))
        return self

    def death(self, edge: str) -> "Movie":
        d2 = death_diagram(self.current, edge)
        cube2 = Cube(d2.forget_regions(), self.c)
        self._push(d2, death_map(self.steps[-1].cube, cube2, edge))
        return self

    def dot(self, edge: str) -> "Movie":
        f = dot_map(self.steps[-1].cube, edge)
        self._push(self.current, f)
        return self

    def saddle(self, e: str, f: str) -> "Movie":
        d2 = saddle_diagram(self.current, e, f)
        cube2 = Cube(d2.forget_regions(), self.c)
        self._push(d2, saddle_map(self.steps[-1].cube, cube2, e, f))
        return self

    def coev(self, c1: str, c2: str, dotted: bool = False) -> "Movie":
        d2 = birth_diagram(birth_diagram(self.current, c1), c2)
        cube2 = Cube(d2.forget_regions(), self.c)
        self._push(d2, coev_map(self.steps[-1].cube, cube2, c1, c2, dotted=dotted))
        return self

    def r1_include(self, edge: str, sign: int) -> "Movie":
        big, proj, new = r1_kink(self.current, edge, sign)
        cube_big = Cube(big.forget_regions(), self.c)
        retract = R1Retract(cube_big, self.steps[-1].cube, proj, new)
        self._push(big, retract.include())
        return self

    def swap(self, belt_a: str, belt_b: str) -> "Movie":
        f = swap_map(self.steps[-1].cube, [belt_a], [belt_b])
        self._push(self.current, f)
        return self

    def r2_include(self, over: str, under: str) -> "Movie":
        big, proj, new = r2_poke(self.current, over, under)
        cube_big = Cube(big.forget_regions(), self.c)
        retract = R2Retract(cube_big, self.steps[-1].cube, proj, new)
        self._push(big, retract.include())
        return self

    def r2_project(self, small: LinkDiagram, proj: dict, new: list[int]) -> "Movie":
        cube_small = Cube(small.forget_regions(), self.c)
        retract = R2Retract(self.steps[-1].cube, cube_small, proj, new)
        self._push(small, retract.project())
        return self

    def composite(self) -> ChainMap:
        maps = [s.map_from_prev for s in self.steps[1:]]
        if not maps:
            from .densecube import identity_map

            return identity_map(self.steps[0].cube)
        f = maps[0]
        for g in maps[1:]:
            f = f.compose(g)
        return f


# -- symmetrizer -----------------------------------------------------------------


class LasagnaError(ValueError):
    pass


def _permutation_chain_map(cube: Cube, groups: list, perm: tuple) -> ChainMap:
    """Permute belt circles by transporting labels along crossed tubes.

    Works per state; where some belt is not exactly one circle, or two belts
    share a circle, the state is left fixed.  The belts' circles are found
    once per state.  Callers check the result with `is_chain_map`.
    """
    entries = {}
    belts: dict[int, Optional[list[int]]] = {}  # state -> circle index per belt group
    for gen in cube.generators():
        s, labels = gen
        if s not in belts:
            belts[s] = _belt_circle_indices(cube.circles[s], groups)
        idx = belts[s]
        if idx is not None:
            nl = list(labels)
            for a, b in enumerate(perm):
                nl[idx[b]] = labels[idx[a]]
            entries[gen] = {(s, tuple(nl)): 1}
        else:
            entries[gen] = {gen: 1}
    return ChainMap(cube, cube, entries)


def _belt_circle_indices(circles: list, groups: list) -> Optional[list[int]]:
    """The circle of each belt group, or None unless they are distinct single circles."""
    idx = []
    for grp in groups:
        found = {i for i, c in enumerate(circles) if any(e in c for e in grp)}
        if len(found) != 1:
            return None
        idx.append(found.pop())
    return idx if len(set(idx)) == len(idx) else None


def swap_map(cube: Cube, group_a: list[str], group_b: list[str]) -> ChainMap:
    """Transposition of two parallel belt circles.

    Labels are transported along the crossed-tube cobordism whenever both
    belts are honest circles of the resolution; states where a belt merges
    into the strands are fixed.  The result is verified to commute with the
    differential (it does for parallel belts around a common bundle).
    """
    f = _permutation_chain_map(cube, [group_a, group_b], (1, 0))
    if not f.is_chain_map():
        raise ValueError("belt swap is not a chain map for this configuration")
    return f


class _Symmetrizer:
    """Average of all belt permutations per region, on chains.

    Uses the Jucys-Murphy factorization Sym_k = X_k ... X_2 with
    X_j = (1/j)(1 + sum_{i<j} (i j)), so only the k(k-1)/2 transpositions
    are built.  Each is checked to be a chain map (one that fixes every
    generator is the identity, and needs no check); they generate S_k, so
    every permutation, and the average, is then one too.  `apply` runs the
    integral factors 1 + sum_{i<j} (i j) and divides by the product of the
    j (k! per region) once at the end, so chains stay ints until then.
    """

    def __init__(self, cube: Cube, region_groups: Iterable[list]):
        self.factors = []  # the transposition maps of X_2, X_3, ... per region
        for groups in region_groups:
            k = len(groups)
            for j in range(1, k):
                maps = []
                for i in range(j):
                    perm = list(range(k))
                    perm[i], perm[j] = j, i
                    f = _permutation_chain_map(cube, groups, tuple(perm))
                    moves = any(row != {g: 1} for g, row in f.entries.items())
                    if moves and not f.is_chain_map():
                        raise LasagnaError(
                            f"belt transposition of {groups[i][0]!r} and {groups[j][0]!r} "
                            "is not a chain map"
                        )
                    maps.append(f)
                self.factors.append(maps)
        self.weight = inverse(math.prod(len(maps) + 1 for maps in self.factors))

    def apply(self, vec: dict) -> dict:
        out = vec
        for maps in self.factors:
            acc = dict(out)
            for f in maps:
                for k, v in f.apply(out).items():
                    _acc(acc, k, v)
            out = acc
        return {k: self.weight * v for k, v in out.items()}


def symmetrizer_image_dims(
    cube: Cube, belt_edges: list[str], window: Optional[Window] = None
) -> DimTable:
    """Image dimensions of the projector (1/k!) sum over belt permutations.

    The belts must be split circles (crossingless free loops); each
    permutation acts by shuffling their tensor factors.
    """
    for circles in cube.circles:
        if len({_circle_index(circles, e) for e in belt_edges}) != len(belt_edges):
            raise ValueError("belts are not split circles in some state")
    H = cube.homology_basis()
    H_win = {key: b for key, b in H.items() if window is None or window.contains(Grading(*key))}
    sym = _Symmetrizer(cube, [[[e] for e in belt_edges]])
    return DimTable(block_ranks(homology_matrix(sym.apply, H_win, H)))


def r1_kink(d: LinkDiagram, edge: str, sign: int):
    """Add a kink of the given sign on `edge` (a Reidemeister I move).

    Returns (new_diagram, edge_projection, new_crossing_index).  The loop
    piece closes on itself in one resolution, forming the small circle.
    """
    used = set(d.edges)

    def fresh(base):
        i = 0
        while f"{base}'{i}" in used:
            i += 1
        used.add(f"{base}'{i}")
        return f"{base}'{i}"

    e = edge
    heads = {}
    for ci, c in enumerate(d.crossings):
        heads[c.edges[0]] = (ci, 0)
        heads[c.edges[3 if c.sign == 1 else 1]] = (ci, 3 if c.sign == 1 else 1)
    e_m = fresh(e)
    e2 = fresh(e) if e in heads else e
    crossings = [list(c.edges) for c in d.crossings]
    if e in heads and e2 != e:
        ci, slot = heads[e]
        crossings[ci][slot] = e2
    if sign == 1:
        x = Crossing((e, e2, e_m, e_m), 1)
    else:
        x = Crossing((e, e_m, e_m, e2), -1)
    new_crossings = [Crossing(tuple(c), s.sign) for c, s in zip(crossings, d.crossings)] + [x]
    edges = list(d.edges) + [p for p in (e_m, e2) if p not in d.edges]
    orient = dict(d.orientations)
    orient[e_m] = d.orientations[e]
    orient[e2] = d.orientations[e]
    big = LinkDiagram(edges, new_crossings, d.framing_points, d.regions, orient)
    proj = {x_: x_ for x_ in d.edges}
    proj.update({e_m: e, e2: e})
    return big, proj, len(d.crossings)


class R1Retract:
    """Strong deformation retract across one kink.

    For a positive kink the retract lives in the 0-resolution (strand plus
    the loop circle O): include(y) = y (x) x - (dot y) (x) 1 and project is
    the counit on O; for a negative kink the roles dualize: include(y) =
    y (x) 1, project(v (x) w) = eps(x w) v - eps(w) (dot v).
    """

    def __init__(self, big: Cube, small: Cube, edge_projection: dict, new_crossing: int):
        self.big = big
        self.small = small
        self.proj = dict(edge_projection)
        self.x = new_crossing
        self.sign = big.diagram.crossings[new_crossing].sign
        self.shared = [i for i in range(big.n) if i != new_crossing]
        cr = big.diagram.crossings[new_crossing].edges
        # the loop piece occupies slots (2,3) on a positive kink, (1,2) on a
        # negative one (the base strand may itself be a free loop)
        if self.sign == 1:
            if cr[2] != cr[3]:
                raise ValueError("not a positive kink crossing")
            self.loop_edge = cr[2]
        else:
            if cr[1] != cr[2]:
                raise ValueError("not a negative kink crossing")
            self.loop_edge = cr[1]
        self.keep_res = 0 if self.sign == 1 else 1

    def _big_state(self, small_state: int, r: int) -> int:
        out = 0
        for k, i in enumerate(self.shared):
            if (small_state >> k) & 1:
                out |= 1 << i
        if r:
            out |= 1 << self.x
        return out

    def _small_state(self, big_state: int) -> int:
        out = 0
        for k, i in enumerate(self.shared):
            if (big_state >> i) & 1:
                out |= 1 << k
        return out

    def _match(self, bs, ss):
        """big circle index -> small circle index, with O singled out."""
        bc = self.big.circles[bs]
        sc = self.small.circles[ss]
        o_idx = None
        for i, c in enumerate(bc):
            if c == frozenset([self.loop_edge]):
                o_idx = i
        if o_idx is None:
            raise AssertionError("kink circle missing in the retract resolution")
        small_idx = {c: i for i, c in enumerate(sc)}
        match = {}
        for i, c in enumerate(bc):
            if i == o_idx:
                continue
            pc = frozenset(self.proj[e] for e in c)
            match[i] = small_idx[pc]
        return o_idx, match

    def include(self) -> ChainMap:
        entries: dict = {}
        for gen in self.small.generators():
            ss, labels = gen
            bs = self._big_state(ss, self.keep_res)
            o_idx, match = self._match(bs, ss)
            bc = self.big.circles[bs]
            base = [0] * len(bc)
            for i in range(len(bc)):
                if i != o_idx:
                    base[i] = labels[match[i]]
            out: dict = {}
            if self.sign == 1:
                # y (x) x - (dot y) (x) 1 on the strand circle
                nl = list(base)
                nl[o_idx] = 1
                _acc(out, (bs, tuple(nl)), 1)
                strand = _circle_index(self.small.circles[ss], self.proj[self.loop_edge])
                strand_big = [i for i, m in match.items() if m == strand][0]
                if base[strand_big] == 0:
                    nl = list(base)
                    nl[strand_big] = 1
                    nl[o_idx] = 0
                    _acc(out, (bs, tuple(nl)), -1)
                elif self.small.c:
                    nl = list(base)
                    nl[strand_big] = 0
                    nl[o_idx] = 0
                    _acc(out, (bs, tuple(nl)), -self.small.c)
            else:
                nl = list(base)
                nl[o_idx] = 0
                _acc(out, (bs, tuple(nl)), 1)
            entries[gen] = out
        return ChainMap(self.small, self.big, entries)

    def project(self) -> ChainMap:
        entries: dict = {}
        for gen in self.big.generators():
            bs, labels = gen
            if ((bs >> self.x) & 1) != self.keep_res:
                continue
            ss = self._small_state(bs)
            o_idx, match = self._match(bs, ss)
            sc = self.small.circles[ss]
            base = [0] * len(sc)
            for i, l in enumerate(labels):
                if i != o_idx:
                    base[match[i]] = l
            out: dict = {}
            if self.sign == 1:
                # eps on O
                if labels[o_idx] == 1:
                    _acc(out, (ss, tuple(base)), 1)
            else:
                strand = _circle_index(sc, self.proj[self.loop_edge])
                if labels[o_idx] == 0:
                    # eps(x * 1) = 1
                    _acc(out, (ss, tuple(base)), 1)
                    # minus eps(1) (dot v): eps(1) = 0, no term
                else:
                    # eps(x*x) = eps(c) = 0; minus eps(x) (dot v) = -(dot v)
                    if base[strand] == 0:
                        nl = list(base)
                        nl[strand] = 1
                        _acc(out, (ss, tuple(nl)), -1)
                    elif self.small.c:
                        nl = list(base)
                        nl[strand] = 0
                        _acc(out, (ss, tuple(nl)), -self.small.c)
            if out:
                entries[gen] = out
        return ChainMap(self.big, self.small, entries)


def full_reduction(cube: Cube, q2s=None) -> TrackedReduction:
    """Reduce the cube to a zero-differential model (only in `q2s`, if given; c = 0)."""
    tr = TrackedReduction(cube, q2s=q2s)
    tr.eliminate_all()
    for g in tr.alive:
        if tr.d.get(g):
            raise AssertionError("full reduction left a nonzero differential")
    return tr


def reduction_equivalence(src: Cube, dst: Cube, q2s=None) -> ChainMap:
    """A chain homotopy equivalence C(src) -> C(dst) through minimal models.

    Both complexes reduce to zero-differential models; graded blocks are
    matched by a fixed basis ordering.  Canonical on dimensions, not on
    signs: used for moves (like R3) whose chain-level normalization is a
    convention.  `q2s` (c = 0 only) reduces both cubes in those quantum
    degrees alone and builds entries for the source generators there; they
    equal the full map's entries on those generators, since each degree is
    a direct summand that reduces as in the full run.
    """
    tr_s = full_reduction(src, q2s)
    tr_d = full_reduction(dst, q2s)

    def blocks(tr, cube):
        out: dict = {}
        for g in tr.alive:
            gr = cube.gen_grading(*g)
            out.setdefault((gr.h2, gr.q2), []).append(g)
        return {k: sorted(v, key=repr) for k, v in out.items()}

    bs = blocks(tr_s, src)
    bd = blocks(tr_d, dst)
    if {k: len(v) for k, v in bs.items()} != {k: len(v) for k, v in bd.items()}:
        raise ValueError("diagrams do not have matching reduced complexes")
    match = {g: bd[key][pos] for key, block in bs.items() for pos, g in enumerate(block)}
    entries: dict = {}
    for g in tr_s.gens:
        red = tr_s.project({g: 1})
        image: dict = {}
        for gg, v in red.items():
            for t, w in tr_d.include({match[gg]: 1}).items():
                _acc(image, t, v * w)
        if image:
            entries[g] = image
    return ChainMap(src, dst, entries)
