"""Chain maps induced by elementary link cobordisms, in the dense model.

Morse moves (birth, death, saddle, dot) keep the crossings, so they act state
by state through the Frobenius algebra: eta, eps, m or Delta, and x.  The
structure maps themselves live in `densecube`, next to the cube differential
built on them; `_morse_map` here places them in each state.  Their matrices
are exact and commute with the cube differentials on the nose.  A move
between diagrams that share a crossing count but no state-by-state
correspondence (R3, or a winding circle unwound) goes through the fully
reduced minimal models (`reduction_equivalence`) and is therefore canonical
on homology only; no test asserts its chain-level signs.

This module owns the belt-permutation action (`_permutation_chain_map`,
labels transported along crossed tubes) and the symmetrizer built on it
(`_Symmetrizer`), which `skein` imports.  The symmetrizer builds only the
belt transpositions, checks every one of them to commute with the
differential, and sums in integers on chains; its 1/k! weight is applied
to matrices on homology.  `homology_matrix` is the one routine turning a
chain-level map into matrices between homology blocks: each column is one
reduction of an image in the target block's coordinate echelon
(`Cube.homology_basis`), with no span rebuilt per column.
`compose_matrices` multiplies two such matrices block by block.

All formulas are classical-convention; consumers needing the gl2-normalized
degree of a move use -chi + 2*dots.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

from .densecube import (
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
from .diagram import Crossing, DiagramError, LinkDiagram, check_planar, fresh_name
from .linalg import Echelon, exact, inverse


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
    """Oriented saddle between edges e and f (e == f splits off a circle).

    Between two crossing edges the saddle is a band in the plane, so the
    cross-joined diagram must embed in the plane (`check_planar`); for any
    other pair the saddle would neither split nor merge the circles it
    meets, and LasagnaError (an input error) is raised.
    """
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
    heads = d.head_slots()
    for x, y in ((e, f), (f, e)):
        ci, slot = heads[x]
        crossings[ci][slot] = y
    out = LinkDiagram(
        d.edges,
        [Crossing(tuple(c), x.sign) for c, x in zip(crossings, d.crossings)],
        d.framing_points,
        d.regions,
        d.orientations,
    )
    try:
        check_planar(out)
    except DiagramError as err:
        raise LasagnaError(f"saddle between {e!r} and {f!r} is not a planar band: {err}") from None
    return out


# -- per-state maps from the Frobenius structure --------------------------------


def _circle_index(circles, edge):
    for i, c in enumerate(circles):
        if edge in c:
            return i
    raise ValueError(f"edge {edge!r} not in any circle")


def _morse_map(src: Cube, dst: Cube, local) -> ChainMap:
    """A move that keeps the crossings, so state s goes to state s.

    `local(src circles, dst circles)` gives (ins, outs, op) for the circles
    the move touches: the structure map `op` of `densecube` reads the labels
    at positions `ins` of the source state and writes those at positions
    `outs` of the target.  Every other circle keeps its label, paired by
    `match_circles`; a target circle neither paired nor written, or a source
    circle neither paired nor read, raises ValueError.  An empty row is left
    out.
    """
    entries = {}
    c = src.c
    for s, sc in enumerate(src.circles):
        dc = dst.circles[s]
        slots, gone = match_circles(sc, dc)
        ins, outs, op = local(sc, dc)
        if any(i is None and j not in outs for j, i in enumerate(slots)) or any(
            i not in ins for i in gone
        ):
            raise ValueError("circle mismatch between diagrams")
        for labels in _all_labels(len(sc)):
            row = {(s, tl): coeff for tl, coeff in carry(labels, slots, ins, outs, op, c)}
            if row:
                entries[(s, labels)] = row
    return ChainMap(src, dst, entries)


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


def compose_matrices(outer: dict, inner: dict, shift=(0, 0), scale=1) -> dict:
    """`scale` times the matrix on homology of f∘g, from outer = H(f) and inner = H(g).

    Both are `homology_matrix` results in the same homology bases, and g
    moves the grading by `shift`: inner's block at a key lands in outer's
    block at key + shift, and the result is keyed like inner.  Exact,
    because homology is a functor on chain maps: the matrix of a composite
    is the product of the matrices in the same bases.  Each entry is
    multiplied by `scale` once, at the end, and is an int where integral.
    A block that inner maps into an empty middle block (columns of length 0)
    gets empty columns, so the outer map's target must be empty there too,
    as for an endomorphism.
    """
    result = {}
    for (h2, q2), cols in inner.items():
        ocols = outer.get((h2 + shift[0], q2 + shift[1]), [])
        width = len(ocols[0]) if ocols else 0
        out = []
        for col in cols:
            if len(col) != len(ocols):
                raise AssertionError("the outer matrix misses a block the inner one reaches")
            acc = [0] * width
            for c, ocol in zip(col, ocols):
                if c:
                    for i, x in enumerate(ocol):
                        acc[i] += c * x
            out.append([exact(scale * x) for x in acc])
        result[(h2, q2)] = out
    return result


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
    """Sum of all belt permutations per region, on chains, in integers.

    Uses the Jucys-Murphy factorization Sym_k = X_k ... X_2 with
    X_j = 1 + sum_{i<j} (i j), so only the k(k-1)/2 transpositions are
    built.  Each is checked to be a chain map (one that fixes every
    generator is the identity, and needs no check); they generate S_k, so
    every permutation, and the sum, is then one too.  `apply` runs the
    integral factors, so a chain of ints stays one; `weight`, the inverse of
    the product of the j (k! per region), turns the sum into the average,
    `weight * apply(v)`.  Callers weight matrices on homology, not chains:
    the sum is a chain map, so its matrix on homology times `weight` is the
    average's.
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
        return out


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

    def blocks(cube):
        tr = TrackedReduction(cube, q2s=q2s)
        tr.eliminate_all()
        out: dict = {}
        for g in tr.alive:
            if tr.d.get(g):
                raise AssertionError("full reduction left a nonzero differential")
            gr = cube.gen_grading(*g)
            out.setdefault((gr.h2, gr.q2), []).append(g)
        return tr, {k: sorted(v, key=repr) for k, v in out.items()}

    tr_s, bs = blocks(src)
    tr_d, bd = blocks(dst)
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
