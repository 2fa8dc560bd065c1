"""Graded dimensions of skein lasagna modules of 2-handlebodies.

The module of a 2-handlebody with boundary link L is the filtered colimit,
over the number r of added belt pairs per 2-handle, of the symmetrized gl2
homologies of the cable diagrams L with (n_+ + r, n_- + r) meridian circles
around each surgery region, with an overall quantum shift -||n|| - 2||r||;
the transition maps are symmetrized dotted annulus cobordism maps creating
one oppositely-oriented belt pair.

Everything is computed in the classical model and reindexed: a stage-r
class at classical (h, q) sits at global grading
    (-h,  q - w - ||n|| - 2||r||)
with w the (stage-independent) writhe of the cable diagram, and the
transition in the colimit direction is the linear dual of the classical
annulus-annihilation map from stage r+1 down to stage r (merge the newest
belt pair by a saddle, dot, kill the resulting circle).  Reported colimit
dimensions are the ranks of the last transition, flagged stable when the
previous transition already had the same rank; only these two transitions
are built.

The belt-permutation action and its symmetrizer live in `cobmaps`, which
owns them; every stage builds one transposition map per pair of belts of a
region, checks each of them to be a chain map, and averages through the
Jucys-Murphy factorization.  Matrices on homology come from
`cobmaps.homology_matrix`.

Desk-scale guard: one handlebody component, few regions, small cables; the
boundary link's transit strands must be crossingless circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import catalog
from .cobmaps import (
    ChainMap,
    LasagnaError,
    _permutation_chain_map,  # noqa: F401  re-exported; perfbench/tracer.py wraps it here
    _Symmetrizer,
    birth_diagram,
    block_ranks,
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
    """The stage cable has more belts than the guard allows."""


@dataclass
class ColimitStage:
    r: int
    diagram: LinkDiagram
    cube: Cube
    belt_groups: dict  # region id -> list of belt edge groups (innermost first)
    newest_pair: dict  # region id -> (up group, down group) added at this stage
    q2_shift: int  # doubled global shift -2(||n|| + 2||r||)


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


def build_stage(spec: HandlebodySpec, r: int, guard_strands: int = 8) -> ColimitStage:
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
    if total > guard_strands:
        raise StageCapacityError(
            f"stage cable of {total} belts exceeds the desk-scale guard "
            f"({guard_strands}); pass a larger guard to opt in"
        )
    assert not stage.regions
    norm = sum(abs(x) for x in n) + 2 * r * len(d.regions)
    return ColimitStage(r, stage, Cube(stage), belt_groups, newest, -2 * norm)


def _global_to_classical(g: Grading, stage: ColimitStage) -> tuple[int, int]:
    w = stage.diagram.writhe()
    return (-g.h2, g.q2 + 2 * w - stage.q2_shift)


def _classical_to_global(h2: int, q2: int, stage: ColimitStage) -> Grading:
    w = stage.diagram.writhe()
    return Grading(-h2, q2 - 2 * w + stage.q2_shift)


def transition_down(
    spec: HandlebodySpec, hi: ColimitStage, lo: ColimitStage, keys=None
) -> ChainMap:
    """Classical annulus-annihilation map C(stage r+1) -> C(stage r).

    Merge each region's newest belt pair with a saddle, dot the merged
    circle, and kill it; if the intermediate circle still crosses strands,
    the identification with the lower stage goes through the reduced models.
    `keys`, a collection of classical (h2, q2) of the upper stage, keeps
    only the source generators in those blocks; the reduced models are then
    built only in the quantum degrees the restricted map reaches.  Exact
    for c = 0, where every step is q-homogeneous: the entries equal the full
    map's on those generators.
    """
    cur_diagram = hi.diagram
    cur_cube = hi.cube
    composite: Optional[ChainMap] = None

    def push(f: ChainMap):
        nonlocal composite
        if composite is None and keys is not None:
            entries = {g: row for g, row in f.entries.items() if _block_key(f.src, g) in keys}
            f = ChainMap(f.src, f.dst, entries)
        composite = f if composite is None else composite.compose(f)

    for reg_id, (grp_up, grp_down) in hi.newest_pair.items():
        e_up, e_down = grp_up[0], grp_down[0]
        d2 = saddle_diagram(cur_diagram, e_up, e_down)
        cube2 = Cube(d2)
        push(saddle_map(cur_cube, cube2, e_up, e_down))
        cur_diagram, cur_cube = d2, cube2
        merged = e_up if e_up in d2.edges else e_down
        push(dot_map(cur_cube, merged))
        if merged in cur_diagram.free_loops:
            d3 = death_diagram(cur_diagram, merged)
            cube3 = Cube(d3)
            push(death_map(cur_cube, cube3, merged))
            cur_diagram, cur_cube = d3, cube3
        else:
            # the merged curve still winds through the strands: pass through
            # the reduced models to the split configuration, then kill it
            split = birth_diagram(lo.diagram, "annih")
            cube_split = Cube(split)
            q2s = None
            if keys is not None:
                q2s = {cur_cube.gen_grading(*t).q2 for row in composite.entries.values() for t in row}
            push(reduction_equivalence(cur_cube, cube_split, q2s))
            push(death_map(cube_split, lo.cube, "annih"))
            cur_diagram, cur_cube = lo.diagram, lo.cube
    # identify leftover edge names with the lower stage
    if set(cur_diagram.edges) != set(lo.diagram.edges):
        push(_rename_map(cur_cube, lo.cube))
        cur_diagram, cur_cube = lo.diagram, lo.cube
    assert composite is not None
    return composite


def _block_key(cube: Cube, gen) -> tuple[int, int]:
    g = cube.gen_grading(*gen)
    return (g.h2, g.q2)


def _rename_map(src: Cube, dst: Cube) -> ChainMap:
    """Identity map between cubes of equal diagrams up to edge names.

    Only supported for crossingless unlinks, where circles are single edges
    and the bijection follows the canonical circle order.
    """
    if src.n or dst.n:
        raise LasagnaError("edge renaming only supported for crossingless stages")
    src_c = src.circles[0]
    dst_c = dst.circles[0]
    if len(src_c) != len(dst_c):
        raise LasagnaError("stage identification failed: circle counts differ")
    entries = {}
    for gen in src.generators():
        s, labels = gen
        entries[gen] = {(0, labels): 1}
    return ChainMap(src, dst, entries)


def s02_dims(
    spec: HandlebodySpec,
    window: Window,
    r_max: int = 3,
    guard_strands: int = 8,
) -> LasagnaResult:
    """Colimit dimensions of the skein lasagna module at the given offset."""
    d = spec.boundary
    if not d.regions:
        raise LasagnaError("a 2-handlebody needs at least one surgery region")
    if not _two_divisible(d):
        # the boundary link's class fails 2-divisibility: the module vanishes
        return LasagnaResult(DimTable(), window, [], {}, zero=True)
    n = spec.normalized_offset()
    if r_max < 2:
        raise LasagnaError("r_max must be at least 2 to report stabilization")
    stages = [build_stage(spec, r, guard_strands) for r in range(r_max + 1)]
    syms = [_Symmetrizer(st.cube, st.belt_groups.values()) for st in stages]
    Hs = [st.cube.homology_basis() for st in stages]
    stage_tables = []
    for st, H, sym in zip(stages, Hs, syms):
        H_win = {key: b for key, b in H.items() if window.contains(_classical_to_global(*key, st))}
        ranks = block_ranks(homology_matrix(sym.apply, H_win, H))
        stage_tables.append(DimTable({_classical_to_global(*k, st): v for k, v in ranks.items()}))
    # only the two transitions read are built: M[r]: H(stage r+1) -> H(stage r),
    # symmetrized, for r = r_max-2 (the flags) and r = r_max-1 (the table)
    prev_ranks = block_ranks(_transition_matrix(spec, stages, syms, Hs, r_max - 2))
    last_ranks = block_ranks(_transition_matrix(spec, stages, syms, Hs, r_max - 1))
    table = DimTable()
    stable = {}
    gradings = set()
    for st, t in zip(stages, stage_tables):
        for g in t:
            gradings.add(g)
    for g in sorted(gradings):
        if not window.contains(g):
            continue
        last = last_ranks.get(_global_to_classical(g, stages[r_max]), 0)
        prev = prev_ranks.get(_global_to_classical(g, stages[r_max - 1]), 0)
        if last:
            table.add(g, last)
        # a class that could not exist before stage r_max-1 is fresh, not
        # unstable; anything already visible must keep its image rank
        fresh = prev == 0 and stage_tables[r_max - 2][g] == 0
        stable[g] = (prev == last) or fresh
    return LasagnaResult(table, window, stage_tables, stable)


def _transition_q2_drop(spec: HandlebodySpec) -> int:
    """Classical q2 change of one transition: each region loses a belt pair, q2 -4 each."""
    return -4 * len(spec.boundary.regions)


def _transition_matrix(spec, stages, syms, Hs, r, keys=None) -> dict:
    """Symmetrized annihilation H(stage r+1) -> H(stage r), lowering classical q2.

    `keys` restricts the chain map to those stage-(r+1) blocks (see
    `transition_down`); Hs[r + 1] must then hold only them, since any other
    block would read the restricted map as zero.
    """
    F = transition_down(spec, stages[r + 1], stages[r], keys)
    return homology_matrix(
        lambda v: syms[r].apply(F.apply(syms[r + 1].apply(v))), Hs[r + 1], Hs[r],
        (0, _transition_q2_drop(spec)),
    )


@dataclass
class CappingCertificate:
    grading: Grading
    survives: bool
    stage_checked: int
    image_nonzero: bool


def belt_capping_class(spec: HandlebodySpec, guard_strands: int = 6) -> CappingCertificate:
    """Certify the class of the standard capping at (0, -#strands).

    The all-units class of the belt link's stage-0 homology is traced
    through the first symmetrized transition; the certificate records
    whether its image is nonzero (dually: whether the all-x classical
    coordinate row of the annihilation matrix survives symmetrization).

    It reads two blocks only: key0, the classical block of the grading at
    stage 0, and src_key = key0 - drop at stage 1, the one block the
    transition maps into key0.  Homology bases and the transition are built
    in those blocks alone.  This is exact: the algebra is undeformed
    (c = 0), so the differential, the saddle, dot and death maps, the belt
    permutations and the reduced models are all q-homogeneous, and every
    other block is a direct summand whose data the answer never reads.

    On a crossed belt link (e.g. `belt_link(2)`) the stage symmetrizer is
    the identity on every state: a smoothing never leaves two belts on
    circles of their own, so `_permutation_chain_map` fixes everything, and
    this certificate is in effect unsymmetrized (an open finding).
    """
    d = spec.boundary
    free = set(d.free_loops)
    for r in d.regions:
        for s in r.strands:
            if s.edge not in free:
                raise LasagnaError("belt capping expects a standard belt link")
    if not _two_divisible(d):
        return CappingCertificate(Grading(0, 0), False, 0, False)
    ell = sum(r.strand_count for r in d.regions)
    grading = Grading(0, -2 * ell)
    stages = [build_stage(spec, 0, guard_strands), build_stage(spec, 1, guard_strands)]
    if ell == 0:
        return CappingCertificate(Grading(0, 0), True, 0, True)
    # classical block of the target grading in stage 0, and the one stage-1
    # block the transition maps into it
    key0 = _global_to_classical(grading, stages[0])
    src_key = (key0[0], key0[1] - _transition_q2_drop(spec))
    H0 = stages[0].cube.homology_basis({key0})
    if not H0.get(key0, ([], None))[0]:
        return CappingCertificate(grading, False, 1, False)
    syms = [_Symmetrizer(st.cube, st.belt_groups.values()) for st in stages]
    Hs = [H0, stages[1].cube.homology_basis({src_key})]
    mats = _transition_matrix(spec, stages, syms, Hs, 0, {src_key})
    # coordinates of the all-x generator class in the stage-0 representatives
    all_x = {(0, (1,) * len(stages[0].cube.circles[0])): 1}
    (allx,) = homology_matrix(lambda v: v, {key0: ([all_x], None)}, Hs[0])[key0]
    nonzero = any(sum(c * a for c, a in zip(col, allx)) for col in mats.get(src_key, []))
    return CappingCertificate(grading, nonzero, 1, nonzero)
