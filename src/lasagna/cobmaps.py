"""Chain maps induced by elementary link cobordisms, in the dense model.

Morse moves (birth, death, saddle, dot, coevaluations) act state-by-state
through the Frobenius algebra: eta, eps, m or Delta, x. and Delta(1) or
Delta(x).  The structure maps themselves live in `densecube`, next to the
cube differential built on them; `_state_map` here places them state by
state.  Their matrices are exact and commute with the cube differentials on
the nose.  First and second Reidemeister moves carry explicit
strong-deformation-retract data between the small complex and the
kinked/poked one, written resolution-by-resolution from the same maps (R2:
m or Delta with eta or eps on the middle circle; R1: eta, eps and x. on the
kink circle and the strand).  R3 maps, where the two
diagrams share a crossing count, are composites through the fully reduced
minimal models and are therefore canonical on homology only; no test
asserts their chain-level signs.

This module owns the belt-permutation action (`_permutation_chain_map`,
labels transported along crossed tubes) and the symmetrizer built on it
(`_Symmetrizer`), which `skein` imports.  The symmetrizer builds only the
belt transpositions and checks every one of them to commute with the
differential.  `homology_matrix` is the one routine turning a chain-level
map into matrices between homology blocks: each column is one reduction of
an image in the target block's coordinate echelon (`Cube.homology_basis`),
with no span rebuilt per column.

All formulas are classical-convention; consumers needing the gl2-normalized
degree of a move use -chi + 2*dots.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

from .densecube import (
    LABEL_ONE,
    LABEL_X,
    ChainMap,
    Cube,
    TrackedReduction,
    _acc,
    _all_labels,
    carry,
    comult,
    counit,
    match_circles,
    mult,
    times_x,
    unit,
)
from .diagram import Crossing, LinkDiagram, fresh_name
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
        return birth_diagram(d, fresh_name("split", set(d.edges)))
    if e in free and f in free:
        # merging two crossingless circles: one edge survives
        return death_diagram(d, f)
    if e in free or f in free:
        # a crossingless circle is absorbed into the other strand
        return death_diagram(d, e if e in free else f)
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


# -- per-state maps from the Frobenius structure --------------------------------


def _circle_index(circles, edge):
    for i, c in enumerate(circles):
        if edge in c:
            return i
    raise ValueError(f"edge {edge!r} not in any circle")


def _state_map(src: Cube, dst: Cube, plan) -> ChainMap:
    """Chain map built state by state from the structure maps of `densecube`.

    `plan(s)` lists, once per source state s, its parts (t, slots, ins,
    outs, op): the target state t, the circle matching `slots` (each target
    circle's source circle, or None, as `match_circles` gives it), and the
    local map `op` reading the labels at positions `ins` of the source and
    writing those at positions `outs` of the target.  A generator's row sums
    its parts' terms; an empty row is left out.  A target circle that is
    neither matched nor written, or a source circle that is neither matched
    nor read, raises ValueError.
    """
    entries = {}
    c = src.c
    for s, circles in enumerate(src.circles):
        parts = plan(s)
        for t, slots, ins, outs, op in parts:
            kept = set(slots)
            if any(i is None and j not in outs for j, i in enumerate(slots)) or any(
                i not in kept and i not in ins for i in range(len(circles))
            ):
                raise ValueError("circle mismatch between diagrams")
        for labels in _all_labels(len(circles)):
            row: dict = {}
            for t, slots, ins, outs, op in parts:
                for tl, coeff in carry(labels, slots, ins, outs, op, c):
                    _acc(row, (t, tl), coeff)
            if row:
                entries[(s, labels)] = row
    return ChainMap(src, dst, entries)


def _morse_map(src: Cube, dst: Cube, local) -> ChainMap:
    """A move that keeps the crossings, so state s goes to state s.

    `local(src circles, dst circles)` gives (ins, outs, op) for the circles
    the move touches; every other circle keeps its label.
    """

    def plan(s):
        sc, dc = src.circles[s], dst.circles[s]
        return [(s, match_circles(sc, dc)[0], *local(sc, dc))]

    return _state_map(src, dst, plan)


def _tensor(a, b):
    """Tensor product of two term lists."""
    return [(x + y, kx * ky) for x, kx in a for y, ky in b]


def _scaled(terms, k):
    return [(l, k * v) for l, v in terms]


def _keep(loc, c):
    """The identity on no circles: the carried labels alone, coefficient 1."""
    return (((), 1),)


# -- Morse chain maps ---------------------------------------------------------


def birth_map(src: Cube, dst: Cube, new_edge: str) -> ChainMap:
    return _morse_map(src, dst, lambda sc, dc: ((), (_circle_index(dc, new_edge),), unit))


def death_map(src: Cube, dst: Cube, edge: str) -> ChainMap:
    return _morse_map(src, dst, lambda sc, dc: ((_circle_index(sc, edge),), (), counit))


def dot_map(cube: Cube, edge: str) -> ChainMap:
    def local(sc, dc):
        j = _circle_index(sc, edge)
        return (j,), (j,), times_x

    return _morse_map(cube, cube, local)


def saddle_map(src: Cube, dst: Cube, e: str, f: str) -> ChainMap:
    """TQFT map of the saddle between edges e and f: Delta where they share
    a circle, m where they lie on two.  With e == f a new circle splits off
    e's, and f is read as its edge."""
    split_off = e == f
    if split_off:
        new = [x for x in dst.diagram.edges if x not in src.diagram.edges]
        assert len(new) == 1, "split needs exactly one new edge"
        [f] = new
    surviving = e if e in dst.diagram.edges else f
    cross_join = e in dst.diagram.edges and f in dst.diagram.edges

    def local(sc, dc):
        i = _circle_index(sc, e)
        if split_off or i == _circle_index(sc, f):
            j1, j2 = _circle_index(dc, e), _circle_index(dc, f)
            assert j1 != j2, "saddle did not split"
            return (i,), (j1, j2), comult
        j = _circle_index(dc, surviving)
        if cross_join:
            assert j == _circle_index(dc, f), "saddle did not merge"
        return (i, _circle_index(sc, f)), (j,), mult

    return _morse_map(src, dst, local)


def coev_map(src: Cube, dst: Cube, c1: str, c2: str, dotted: bool = False) -> ChainMap:
    """Create the split circle pair (c1, c2): Delta(1) = 1(x)x + x(x)1, dotted Delta(x)."""
    created = (LABEL_X if dotted else LABEL_ONE,)

    def op(loc, c):
        return comult(created, c)

    return _morse_map(src, dst, lambda sc, dc: ((), (_circle_index(dc, c1), _circle_index(dc, c2)), op))


# -- Reidemeister retracts ------------------------------------------------------


def _big_state(shared: list[int], small_state: int, extra: int = 0) -> int:
    """The big cube's state: the small state's bits on the shared crossings, plus `extra`."""
    out = extra
    for k, i in enumerate(shared):
        if (small_state >> k) & 1:
            out |= 1 << i
    return out


def _small_state(shared: list[int], big_state: int) -> int:
    out = 0
    for k, i in enumerate(shared):
        if (big_state >> i) & 1:
            out |= 1 << k
    return out


def _projected(circles, proj: dict, loop=None, missing=""):
    """Big circles in the small diagram's edge names, and the index of `loop`.

    The loop circle is written None, so `match_circles` pairs it with nothing;
    a `loop` given and not found raises AssertionError(missing).
    """
    out, at = [], None
    for i, c in enumerate(circles):
        if c == loop:
            out.append(None)
            at = i
        else:
            out.append(frozenset(proj[e] for e in c))
    if loop is not None and at is None:
        raise AssertionError(missing)
    return out, at


def _surgery(ins, outs):
    """m or Delta, by how many circles the lane surgery reads and writes."""
    if (len(ins), len(outs)) == (2, 1):
        return mult
    assert (len(ins), len(outs)) == (1, 2), "lane surgery did not split"
    return comult


class R2Retract:
    """Explicit strong deformation retract data for one R2 poke.

    The big diagram is the small one with crossings (X1, X2) added by
    r2_poke; the distinguished resolution (X1,X2) = (0,1) reproduces the two
    strands, while (1,0) contains the small middle circle O.  Writing sigma
    for the lane surgery (the reconnection at the X1 site: m where it fuses
    two circles, Delta where it splits one), eta for the birth of O with
    unit label and eps for the counit on O, the retract is

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
        self.bits_K = 1 << x2  # (X1, X2) = (0, 1)
        self.bits_B = 1 << x1  # (X1, X2) = (1, 0)
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

    def _lane_state(self, ss, bs):
        """The (1,0) state bs over small state ss, for the lane surgery.

        Returns its circles in small edge names (O written None), the index
        of O, the small circles of the two lanes (one when they share it) and
        the big circles the surgery changes: those whose projection holds a
        lane edge.  A changed circle can project onto a whole small circle
        when the lanes share one, so it is told by its edges, not by a failed
        match.
        """
        pc, o = _projected(self.big.circles[bs], self.proj, self.middle,
                           "middle circle missing in the (1,0) resolution")
        sc = self.small.circles[ss]
        lanes = tuple(dict.fromkeys(_circle_index(sc, e) for e in self.lanes))
        changed = tuple(j for j, p in enumerate(pc) if p is not None and not p.isdisjoint(self.lanes))
        return pc, o, lanes, changed

    def include(self) -> ChainMap:
        def plan(ss):
            sc = self.small.circles[ss]
            bs = _big_state(self.shared, ss, self.bits_K)
            slots_K = match_circles(sc, _projected(self.big.circles[bs], self.proj)[0])[0]
            bs2 = _big_state(self.shared, ss, self.bits_B)
            pc, o, lanes, changed = self._lane_state(ss, bs2)
            sigma = _surgery(lanes, changed)

            def op(loc, c):
                return _tensor(sigma(loc, c), unit((), c))

            slots = match_circles(sc, pc)[0]
            return [(bs, slots_K, (), (), _keep), (bs2, slots, lanes, (*changed, o), op)]

        return _state_map(self.small, self.big, plan)

    def project(self) -> ChainMap:
        new_bits = self.bits_K | self.bits_B

        def plan(bs):
            ss = _small_state(self.shared, bs)
            sc = self.small.circles[ss]
            if bs & new_bits == self.bits_K:
                pc = _projected(self.big.circles[bs], self.proj)[0]
                return [(ss, match_circles(pc, sc)[0], (), (), _keep)]
            if bs & new_bits != self.bits_B:
                return []
            pc, o, lanes, changed = self._lane_state(ss, bs)
            sigma = _surgery(changed, lanes)

            def op(loc, c):
                return _scaled(_tensor(counit(loc[-1:], c), sigma(loc[:-1], c)), -1)

            return [(ss, match_circles(pc, sc)[0], (*changed, o), lanes, op)]

        return _state_map(self.big, self.small, plan)


def r2_poke(d: LinkDiagram, over_edge: str, under_edge: str):
    """Poke `over_edge` across `under_edge` (an R2 move adding 2 crossings).

    Returns (new_diagram, edge_projection, new_crossing_indices).
    """
    if over_edge == under_edge:
        raise ValueError("poke needs two distinct edges")
    used = set(d.edges)
    a, b = over_edge, under_edge
    heads = d.head_slots()
    a_m = fresh_name(f"{a}'", used)
    b_m = fresh_name(f"{b}'", used)
    # free loops close back onto their original id; open strands get a top stub
    a2 = fresh_name(f"{a}'", used) if a in heads else a
    b2 = fresh_name(f"{b}'", used) if b in heads else b
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


# -- homology functors ---------------------------------------------------------


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


def r1_kink(d: LinkDiagram, edge: str, sign: int):
    """Add a kink of the given sign on `edge` (a Reidemeister I move).

    Returns (new_diagram, edge_projection, new_crossing_index).  The loop
    piece closes on itself in one resolution, forming the small circle.
    """
    used = set(d.edges)
    e = edge
    heads = d.head_slots()
    e_m = fresh_name(f"{e}'", used)
    e2 = fresh_name(f"{e}'", used) if e in heads else e
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

    def _strand(self, ss) -> int:
        return _circle_index(self.small.circles[ss], self.proj[self.loop_edge])

    def include(self) -> ChainMap:
        def plan(ss):
            bs = _big_state(self.shared, ss, self.keep_res << self.x)
            pc, o = _projected(self.big.circles[bs], self.proj, frozenset([self.loop_edge]),
                               "kink circle missing in the retract resolution")
            slots = match_circles(self.small.circles[ss], pc)[0]
            if self.sign == -1:
                return [(bs, slots, (), (o,), unit)]
            strand = self._strand(ss)
            return [(bs, slots, (strand,), (slots.index(strand), o), _kink_include)]

        return _state_map(self.small, self.big, plan)

    def project(self) -> ChainMap:
        def plan(bs):
            if ((bs >> self.x) & 1) != self.keep_res:
                return []
            ss = _small_state(self.shared, bs)
            pc, o = _projected(self.big.circles[bs], self.proj, frozenset([self.loop_edge]),
                               "kink circle missing in the retract resolution")
            slots = match_circles(pc, self.small.circles[ss])[0]
            if self.sign == 1:
                return [(ss, slots, (o,), (), counit)]
            strand = self._strand(ss)
            return [(ss, slots, (slots[strand], o), (strand,), _kink_project)]

        return _state_map(self.big, self.small, plan)


def _kink_include(loc, c):
    """Positive kink, on (strand, O): y -> y (x) x - (x y) (x) 1."""
    return [(loc + (LABEL_X,), 1)] + _scaled(_tensor(times_x(loc, c), unit((), c)), -1)


def _kink_project(loc, c):
    """Negative kink, on (strand, O) -> strand: v (x) w -> eps(x w) v - eps(w) (x v)."""
    v, w = loc[:1], loc[1:]
    eps_xw = sum(k * e for xw, k in times_x(w, c) for _, e in counit(xw, c))
    head = [(v, eps_xw)] if eps_xw else []
    return head + _scaled(_tensor(times_x(v, c), counit(w, c)), -1)


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
