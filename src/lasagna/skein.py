"""Graded dimensions of skein lasagna modules of 2-handlebodies.

The module of a 2-handlebody with boundary link L is the filtered colimit,
over the number r of added belt pairs per 2-handle, of the symmetrized gl2
homologies of the cable diagrams L with (n_+ + r, n_- + r) meridian circles
around each surgery region, with an overall quantum shift -||n|| - 2||r||;
the transition maps are symmetrized dotted annulus cobordism maps creating
one oppositely-oriented belt pair.

`s02_dims` has one path, the closed form below: every region strand-free.
A region crossed by strands is refused with a capacity error, after the
input errors and before any stage is built.  Its class is 2-divisible, so
two or more strands cross it, and stage 2 (r_max >= 2) has four or more
belts, each crossing each strand twice: 16 or more crossings, over the
dense cube's 14.  Crossed regions wait for the scanning complex.

The dense stages, which serve `belt_capping_class` and the tests' oracle,
are computed in the classical model and reindexed: a stage-r class at
classical (h, q) sits at global grading
    (-h,  q - w - ||n|| - 2||r||)
with w the (stage-independent) writhe of the cable diagram, and the
transition in the colimit direction is the linear dual of the classical
annulus-annihilation map from stage r+1 down to stage r (merge the newest
belt pair by a saddle, dot, kill the resulting circle).  Colimit dimensions
are the ranks of the last transition, flagged stable when the previous
transition already had the same rank; only these two transitions are
built.  The window decides which blocks are built at all: every stage's
homology basis and every transition's source generators are restricted to
the classical blocks whose global grading lies in it, which is exact since
with c = 0 every map here is q-homogeneous and keeps the global grading.

The belt-permutation action and its symmetrizer live in `cobmaps`, which
owns them; every stage builds one transposition map per pair of belts of a
region, checks each of them to be a chain map, and sums all permutations
through the Jucys-Murphy factorization, in integers on chains.  The colimit
symmetrizes on homology: each stage's sum becomes one integral matrix S_r
on the stage's homology basis (`cobmaps.homology_matrix`), whose block
ranks are the stage table, and a transition is
    w_r w_{r+1} S_r M_F S_{r+1},
M_F being the matrix on homology of the chain-level annihilation map F and
w the 1/k! weights, applied once per matrix.  This is exact: homology is a
functor on chain maps, so in the same bases the matrix of the averaged
chain-level composite P_r F P_{r+1} is the product of the three matrices.

A stage is one `ColimitStage` record, which `_window_stages` completes with
its window homology basis H, symmetrizer and integral matrix S; a transition
reads two records.  `catalog.encircle` keeps belt names stable, so no edge is
renamed: around a strand-free region, crossings elsewhere or not, the last
death map lands on the lower stage's own cube.  A pair still winding through
strands passes through the reduced models straight to the lower stage, so
`transition_down` takes the regions whose belts are free loops first.

When every region is strand-free, no stage is built: the colimit is known in
closed form, the 2-handle formula of Manolescu-Neithalath (Crelle 2022) with
the belts as free circles.  Let L be the boundary link with its regions
forgotten and N_j = |n_j| + 2r the belts around region j at stage r.
  * Stage r's cable is L beside N = sum N_j free circles, and C(O) = V =
    Q[x]/(x^2) with zero differential, 1 at classical (0, 1) and x at
    (0, -1).  So C(stage r) = C(L) (x) V^(x)N, and by Kuenneth over Q its
    homology is H(L) (x) V^(x)N.  The belts' global shift -N cancels their
    top degree, so H(L) enters in its own gl2 grading, `khr2_dims(L)`.
  * A belt transposition swaps two free circles, which permutes tensor
    factors of V^(x)N.  The orbits of S_(N_j) on the monomials in {1, x} of
    region j's belts are the monomials with k x's, k = 0..N_j, so the
    symmetrizer's image is Sym^(N_j) V with the orbit sums m_k as basis, the
    monomial basis.  m_k sits at classical q = N_j - 2k, that is at global
    doubled (0, -4k), whatever the offset n_j: that is U(N_j) below.
  * On free circles the Frobenius maps are the algebra's: the saddle merging
    the newest pair is the product u (x) d -> ud, the dot multiplies by x
    and the death is the counit, eps(x) = 1, eps(1) = 0.  So the pair goes
    to eps(x u d), which is 1 on 1 (x) 1 and 0 otherwise, and the transition
    sends m_k of stage r+1 to m_k of stage r for k <= N_j and to 0 above:
    diagonal in the monomial basis, grading-preserving, and of rank one
    exactly on stage r's monomials.  Its rank table is stage r's table.
Stage r's table is therefore khr2_dims(L) convolved with U(N_j) over the
regions, and the window's h-range cuts L's scan exactly, since U sits at
h = 0.  `_closed_form_ranks` returns those tables, the only ones
`s02_dims` reports; the tests' oracle (`tests/helpers.py`) ranks the same
tables on the dense stages, and the tests hold one against the other.

`MAX_BELTS` bounds the dense stage cables, which only the capping
certificate and the tests' oracle build.  One handlebody component, few
regions; the boundary link's transit strands must be crossingless circles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import catalog
from .cobmaps import (
    ChainMap,
    LasagnaError,
    _permutation_chain_map,  # noqa: F401  re-exported; perfbench/tracer.py wraps it here
    _Symmetrizer,
    birth_diagram,
    compose_matrices,
    death_diagram,
    death_map,
    dot_map,
    homology_matrix,
    reduction_equivalence,
    saddle_diagram,
    saddle_map,
)
from .densecube import CapacityError, Cube
from .diagram import LinkDiagram
from .gradings import DimTable, Grading, Window

MAX_BELTS = 8  # belts in one dense stage cable


@dataclass(frozen=True)
class HandlebodySpec:
    """A 2-handlebody presented by its boundary diagram's surgery regions."""

    boundary: LinkDiagram
    offset: tuple[int, ...] = ()  # skein class offset n per region

    def normalized_offset(self) -> tuple[int, ...]:
        m = len(self.boundary.regions)
        n = tuple(self.offset) + (0,) * (m - len(self.offset))
        if len(n) != m:
            raise LasagnaError("offset vector longer than the number of regions")
        return n


class StageCapacityError(LasagnaError, CapacityError):
    """A region crossed by strands, or a dense stage cable over the belt guard."""


@dataclass
class ColimitStage:
    r: int
    diagram: LinkDiagram
    cube: Cube
    belt_groups: dict  # region id -> list of belt edge groups (innermost first)
    newest_pair: dict  # region id -> (up group, down group) added at this stage
    q2_shift: int  # doubled global shift -2(||n|| + 2||r||)
    # set by `_window_stages`: window homology basis, symmetrizer, its matrix on H
    H: dict = field(init=False, repr=False)
    sym: _Symmetrizer = field(init=False, repr=False)
    S: dict = field(init=False, repr=False)


@dataclass
class LasagnaResult:
    table: DimTable
    window: Window
    stages: list
    stable: dict  # Grading -> bool
    zero: bool = False

    def to_json_obj(self) -> dict:
        return {
            "dims": self.table.to_json_obj(),
            "window": str(self.window),
            "stage_dims": [t.to_json_obj() for t in self.stages],
            "stable": {str(g): bool(v) for g, v in self.stable.items()},
            "zero": self.zero,
        }


def _two_divisible(d: LinkDiagram) -> bool:
    return all(r.signed_transit % 2 == 0 for r in d.regions)


def build_stage(spec: HandlebodySpec, r: int) -> ColimitStage:
    d = spec.boundary
    n = spec.normalized_offset()
    total = 0
    stage = d
    belt_groups: dict = {}
    newest: dict = {}
    for j, reg in enumerate(d.regions):
        a = max(n[j], 0) + r
        b = max(-n[j], 0) + r
        total += a + b
        stage, groups = catalog.encircle(stage, reg.region_id, a, b)
        belt_groups[reg.region_id] = groups
        if r > 0:
            # newest pair: outermost up-belt and innermost down-belt
            newest[reg.region_id] = (groups[a - 1], groups[a])
    if total > MAX_BELTS:
        raise StageCapacityError(
            f"stage cable of {total} belts exceeds the desk-scale guard ({MAX_BELTS})"
        )
    assert not stage.regions
    norm = sum(abs(x) for x in n) + 2 * r * len(d.regions)
    return ColimitStage(r, stage, Cube(stage), belt_groups, newest, -2 * norm)


def _classical_to_global(h2: int, q2: int, stage: ColimitStage) -> Grading:
    w = stage.diagram.writhe()
    return Grading(-h2, q2 - 2 * w + stage.q2_shift)


def transition_down(hi: ColimitStage, lo: ColimitStage, keys) -> ChainMap:
    """Classical annulus-annihilation map C(stage r+1) -> C(stage r), on the
    source generators in `keys`, a collection of classical (h2, q2) blocks.

    Merge each region's newest belt pair with a saddle, dot the merged
    circle, and kill it; if the intermediate circle still crosses strands,
    the identification with the lower stage goes through the reduced models,
    built only in the quantum degrees the restricted map reaches.  That step
    ends on the lower stage, so the regions whose belts are free loops go
    first.  Exact for c = 0, where every step is q-homogeneous: the entries
    equal the full map's on those generators.
    """
    free = set(hi.diagram.free_loops)
    pairs = sorted(hi.newest_pair.values(), key=lambda pair: pair[0][0] not in free)
    cur_diagram, cur_cube = hi.diagram, hi.cube
    composite: Optional[ChainMap] = None

    def push(f: ChainMap):
        nonlocal composite
        if composite is None:
            entries = {g: row for g, row in f.entries.items() if _block_key(f.src, g) in keys}
            composite = ChainMap(f.src, f.dst, entries)
        else:
            composite = composite.compose(f)

    for i, (grp_up, grp_down) in enumerate(pairs, 1):
        e_up, e_down = grp_up[0], grp_down[0]
        d2 = saddle_diagram(cur_diagram, e_up, e_down)
        cube2 = Cube(d2)
        push(saddle_map(cur_cube, cube2, e_up, e_down))
        cur_diagram, cur_cube = d2, cube2
        merged = e_up if e_up in d2.edges else e_down
        push(dot_map(cur_cube, merged))
        if merged in cur_diagram.free_loops:
            last = i == len(pairs)  # stable belt names: the last death leaves stage r
            d3 = lo.diagram if last else death_diagram(cur_diagram, merged)
            cube3 = lo.cube if last else Cube(d3)
            push(death_map(cur_cube, cube3, merged))
            cur_diagram, cur_cube = d3, cube3
        else:
            # the merged curve still winds through the strands: pass through
            # the reduced models to the split configuration, then kill it
            split = birth_diagram(lo.diagram, "annih")
            cube_split = Cube(split)
            q2s = {cur_cube.gen_grading(*t).q2 for row in composite.entries.values() for t in row}
            push(reduction_equivalence(cur_cube, cube_split, q2s))
            push(death_map(cube_split, lo.cube, "annih"))
            cur_diagram, cur_cube = lo.diagram, lo.cube
    assert composite is not None
    return composite


def _block_key(cube: Cube, gen) -> tuple[int, int]:
    g = cube.gen_grading(*gen)
    return (g.h2, g.q2)


def _window_stages(spec: HandlebodySpec, window: Window, r_max: int) -> list:
    """Stages 0 ... r_max, each with H, sym and S on the window's blocks.

    A stage's basis holds the classical blocks whose global grading lies in
    the window.  A transition keeps the global grading, so these are all the
    blocks the stage tables and the transitions between the stages read.
    """
    stages = [build_stage(spec, r) for r in range(r_max + 1)]
    for st in stages:
        st.H = st.cube.homology_basis(lambda key: window.contains(_classical_to_global(*key, st)))
        st.sym = _Symmetrizer(st.cube, st.belt_groups.values())
        st.S = homology_matrix(st.sym.apply, st.H, st.H)
    return stages


def s02_dims(spec: HandlebodySpec, window: Window, r_max: int = 3) -> LasagnaResult:
    """Colimit dimensions of the skein lasagna module at the given offset."""
    d = spec.boundary
    if not d.regions:
        raise LasagnaError("a 2-handlebody needs at least one surgery region")
    spec.normalized_offset()  # an input error before any verdict
    if not _two_divisible(d):
        # the boundary link's class fails 2-divisibility: the module vanishes
        return LasagnaResult(DimTable(), window, [], {}, zero=True)
    if r_max < 2:
        raise LasagnaError("r_max must be at least 2 to report stabilization")
    for reg in d.regions:
        catalog.require_free_transit(d, reg)
    for reg in d.regions:
        if reg.strands:
            raise StageCapacityError(
                f"region {reg.region_id} is crossed by {reg.strand_count} strands: "
                "crossed regions wait for the scanning complex"
            )
    stage_tables, prev_ranks, last_ranks = _closed_form_ranks(spec, window, r_max)
    table = DimTable()
    stable = {}
    for g in sorted({g for t in stage_tables for g in t}):
        last, prev = last_ranks[g], prev_ranks[g]
        if last:
            table.add(g, last)
        # a class that could not exist before stage r_max-1 is fresh, not
        # unstable; anything already visible must keep its image rank
        stable[g] = prev == last or prev == 0
    return LasagnaResult(table, window, stage_tables, stable)


def _closed_form_ranks(spec: HandlebodySpec, window: Window, r_max: int) -> tuple:
    """Stage tables and the ranks of the transitions into stages r_max-1 and
    r_max, in global grading, around strand-free regions (module docstring)."""
    n = spec.normalized_offset()
    L = spec.boundary.forget_regions()
    H = DimTable({Grading(0, 0): 1})
    if L.edges:
        from .khovanov import khr2_dims  # loads the scan only when L needs it

        H = khr2_dims(L, Window(window.h2_lo, window.h2_hi))
    stage_tables = []
    for r in range(r_max + 1):
        t = H
        for n_j in n:
            t = t.convolve(DimTable({Grading(0, -4 * k): 1 for k in range(abs(n_j) + 2 * r + 1)}))
        stage_tables.append(t.restrict(window))
    return stage_tables, stage_tables[r_max - 2], stage_tables[r_max - 1]


def _transition_matrix(hi: ColimitStage, lo: ColimitStage) -> dict:
    """Symmetrized annihilation H(hi) -> H(lo) on the blocks of hi.H.

    w_lo w_hi S_lo M_F S_hi, with M_F the matrix on homology of
    `transition_down` and S, w each stage's integral symmetrizer matrix and
    weight.  Each region loses a belt pair, so classical q2 drops by 4 per
    region.
    """
    shift = (0, -4 * len(hi.newest_pair))
    F = transition_down(hi, lo, hi.H)
    M = homology_matrix(F.apply, hi.H, lo.H, shift)
    return compose_matrices(lo.S, compose_matrices(M, hi.S), shift, lo.sym.weight * hi.sym.weight)


@dataclass
class CappingCertificate:
    grading: Grading
    survives: bool


def belt_capping_class(spec: HandlebodySpec) -> CappingCertificate:
    """Certify the class of the standard capping at (0, -#strands).

    The all-units class of the belt link's stage-0 homology is traced
    through the first symmetrized transition; the certificate records
    whether its image is nonzero (dually: whether the all-x classical
    coordinate row of the annihilation matrix survives symmetrization).

    Its window is that one grading, so stages 0 and 1 build one block each
    (see `_window_stages`).  This is exact: the algebra is undeformed
    (c = 0), so the differential, the saddle, dot and death maps, the belt
    permutations and the reduced models are all q-homogeneous, and every
    other block is a direct summand whose data the answer never reads.

    On a crossed belt link (e.g. `belt_link(2)`) the stage symmetrizer is
    the identity on every state: a smoothing never leaves two belts on
    circles of their own, so `_permutation_chain_map` fixes everything, and
    this certificate is in effect unsymmetrized (an open finding).
    """
    d = spec.boundary
    for reg in d.regions:
        catalog.require_free_transit(d, reg)
    if not _two_divisible(d):
        return CappingCertificate(Grading(0, 0), False)
    ell = sum(r.strand_count for r in d.regions)
    if ell == 0:
        return CappingCertificate(Grading(0, 0), True)
    grading = Grading(0, -2 * ell)
    lo, hi = _window_stages(spec, Window(0, 0, grading.q2, grading.q2), 1)
    if not any(reps for reps, _ech in lo.H.values()):
        return CappingCertificate(grading, False)
    mats = _transition_matrix(hi, lo)
    # coordinates of the all-x generator class in the stage-0 representatives
    ((_reps, ech),) = lo.H.values()
    allx = ech.coordinates({(0, (1,) * len(lo.cube.circles[0])): 1})
    if allx is None:
        raise AssertionError("image not a cycle coordinate in target homology")
    survives = any(sum(col[i] * a for i, a in allx.items()) for cols in mats.values() for col in cols)
    return CappingCertificate(grading, survives)
