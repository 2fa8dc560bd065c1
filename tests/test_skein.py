import itertools
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lasagna import catalog
from lasagna.densecube import CapacityError, Cube
from lasagna.diagram import parse_diagram
from lasagna.gradings import DimTable, Grading, Window
from lasagna.khovanov import khr2_dims
from lasagna.skein import (
    CappingCertificate,
    HandlebodySpec,
    LasagnaError,
    belt_capping_class,
    build_stage,
    s02_dims,
    transition_down,
)

from helpers import (
    block_ranks,
    chain_level_transition,
    dense_ranks,
    disjoint_union,
    symmetrizer_average,
)

FIXTURE_WINDOW = Window(h2_lo=-4, h2_hi=4, q2_lo=-12, q2_hi=0)


@pytest.fixture
def dense(monkeypatch):
    """Route `s02_dims` through the dense stage cubes, the closed form's oracle."""
    from lasagna import skein

    monkeypatch.setattr(skein, "_closed_form_ranks", dense_ranks)


CROSSED = {"belt_link(2)": catalog.belt_link(2), "belt_link(4)": catalog.belt_link(4),
           "belt_link(1, 1)": catalog.belt_link(1, 1)}
BELT11_POKE = parse_diagram((Path(__file__).parent.parent / "fixtures" / "belt11_poke.json").read_text())


@pytest.mark.parametrize(
    "boundary, offset, r_max, outcome",
    [
        *(pytest.param(d, (alpha,), r_max, CapacityError, id=f"{name}-alpha{alpha}-r{r_max}")
          for name, d in CROSSED.items() for alpha in (0, 1, 2, 9) for r_max in (2, 3)),
        pytest.param(catalog.belt_link(1), (0,), 2, "zero", id="odd-class"),
        pytest.param(catalog.belt_link(1), (0,), 1, "zero", id="odd-class-r1"),
        pytest.param(catalog.belt_link(2), (0,), 1, "r_max must be at least 2 to report stabilization",
                     id="r1"),
        pytest.param(catalog.belt_link(2), (0, 0), 2, "offset vector longer than the number of regions",
                     id="long-offset"),
        pytest.param(catalog.belt_link(1), (0, 0), 2, "offset vector longer than the number of regions",
                     id="long-offset-odd-class"),
        pytest.param(BELT11_POKE, (), 2, "encircle supports free-loop transit strands only",
                     id="belt11-poke"),
    ],
)
def test_crossed_regions_are_refused_before_any_stage(boundary, offset, r_max, outcome, monkeypatch):
    # input errors and the zero verdict first, then the crossed region's
    # capacity error; no stage cable and no dense cube is built on the way
    from lasagna import densecube, skein

    def built(*args):
        raise AssertionError("a stage or a dense cube was built")

    monkeypatch.setattr(skein, "build_stage", built)
    monkeypatch.setattr(densecube.Cube, "__init__", built)
    spec = HandlebodySpec(boundary, offset)
    if outcome == "zero":
        res = s02_dims(spec, FIXTURE_WINDOW, r_max)
        assert res.zero and res.table == DimTable()
        return
    with pytest.raises(ValueError) as exc:
        s02_dims(spec, FIXTURE_WINDOW, r_max)
    if outcome is CapacityError:
        (region,) = boundary.regions
        assert isinstance(exc.value, CapacityError)
        assert str(exc.value) == (
            f"region 1 is crossed by {region.strand_count} strands: "
            "crossed regions wait for the scanning complex"
        )
    else:
        assert not isinstance(exc.value, CapacityError)
        assert str(exc.value) == outcome


def test_stage_bookkeeping():
    spec = HandlebodySpec(catalog.empty_surgery(1), (0,))
    st0 = build_stage(spec, 0)
    st2 = build_stage(spec, 2)
    assert st0.q2_shift == 0
    assert st2.q2_shift == -8  # -2 * (||n|| + 2r)
    assert st2.diagram.component_count == 4
    spec1 = HandlebodySpec(catalog.empty_surgery(1), (1,))
    st1 = build_stage(spec1, 1)
    assert st1.q2_shift == -2 * (1 + 2)
    assert st1.diagram.component_count == 3


def test_stage_writhe_is_stage_independent():
    spec = HandlebodySpec(catalog.belt_link(2), (0,))
    w = [build_stage(spec, r).diagram.writhe() for r in range(2)]
    assert w[0] == w[1]


def test_s02_d2s2_alpha0():
    spec = HandlebodySpec(catalog.empty_surgery(1), (0,))
    res = s02_dims(spec, FIXTURE_WINDOW, r_max=3)
    assert res.table == DimTable({(0, 0): 1, (0, -4): 1, (0, -8): 1, (0, -12): 1})
    assert all(g.h2 == 0 for g in res.table)


def test_s02_d2s2_alpha1():
    spec = HandlebodySpec(catalog.empty_surgery(1), (1,))
    res = s02_dims(spec, FIXTURE_WINDOW, r_max=3)
    assert res.table == DimTable({(0, 0): 1, (0, -4): 1, (0, -8): 1, (0, -12): 1})


def test_s02_odd_class_zero():
    spec = HandlebodySpec(catalog.belt_link(1), (0,))
    res = s02_dims(spec, FIXTURE_WINDOW, r_max=2)
    assert res.zero and res.table == DimTable()


def test_transitions_injective_on_window():
    # for the empty boundary link the annulus maps are injective on the
    # symmetrized stages: one-step image ranks equal the source dims
    spec = HandlebodySpec(catalog.empty_surgery(1), (0,))
    res = s02_dims(spec, Window(h2_lo=0, h2_hi=0, q2_lo=-8, q2_hi=0), r_max=3)
    for g, dim in res.table.items():
        if res.stable[g]:
            assert dim >= 1
    # stage dims grow towards the colimit but never shrink on the window
    for earlier, later in zip(res.stages[1:-1], res.stages[2:]):
        for g, v in earlier.items():
            assert later[g] >= v


def test_quantum_shift_bookkeeping_unit():
    # the generator of stage r sits 2r quantum levels lower before shifting
    spec = HandlebodySpec(catalog.empty_surgery(1), (0,))
    st1 = build_stage(spec, 1)
    from lasagna.skein import _classical_to_global

    g = _classical_to_global(0, -4, st1)  # x (x) x class of the 2-belt stage
    assert g == Grading(0, -8)


def test_guard_rejects_large_cables():
    # a many-belt strand-free neighbour: the capping certificate's stage 1
    # cable holds 2 + 10 belts
    belt = disjoint_union(catalog.belt_link(2), catalog.empty_surgery(1))
    with pytest.raises(LasagnaError, match="guard"):
        belt_capping_class(HandlebodySpec(belt, (0, 8)))


def test_two_regions_are_the_tensor_square_of_one():
    # boundary sums tensor: each transition drops classical q2 by 4 per region
    one = s02_dims(HandlebodySpec(catalog.empty_surgery(1), (0,)), Window(), r_max=2)
    two = s02_dims(HandlebodySpec(catalog.empty_surgery(2), (0, 0)), Window(), r_max=2)
    assert one.table == DimTable({(0, 0): 1, (0, -4): 1, (0, -8): 1})
    assert two.table == one.table.convolve(one.table)


def test_two_regions_at_r3_hit_the_stage_guard(dense):
    # 2 regions x 3 pairs = 12 belts, over the 8-belt guard of the dense stages
    spec = HandlebodySpec(catalog.empty_surgery(2), (0, 0))
    with pytest.raises(LasagnaError, match="12 belts exceeds the desk-scale guard"):
        s02_dims(spec, Window(), r_max=3)


def test_two_regions_at_r3_are_the_tensor_square_of_one():
    # the closed form builds no stage cable, so the 12 free belts run
    one = s02_dims(HandlebodySpec(catalog.empty_surgery(1), (0,)), Window(), r_max=3)
    two = s02_dims(HandlebodySpec(catalog.empty_surgery(2), (0, 0)), Window(), r_max=3)
    assert one.table == DimTable({(0, q2): 1 for q2 in range(0, -17, -4)})
    assert two.table == one.table.convolve(one.table)
    assert two.stages == [t.convolve(t) for t in one.stages]


def test_size_guards_raise_capacity_errors():
    spec = HandlebodySpec(catalog.empty_surgery(2), (0, 0))
    belts = r"^stage cable of 12 belts exceeds the desk-scale guard \(8\)$"
    with pytest.raises(CapacityError, match=belts):
        build_stage(spec, 3)
    with pytest.raises(CapacityError, match="^dense cube guard: 15 crossings exceeds 14$"):
        Cube(catalog.torus_link(4, 5))


def test_capping_certificates():
    assert belt_capping_class(HandlebodySpec(catalog.empty_surgery(1), (0,))).survives
    cert1 = belt_capping_class(HandlebodySpec(catalog.belt_link(1), (0,)))
    assert not cert1.survives
    cert2 = belt_capping_class(HandlebodySpec(catalog.belt_link(2), (0,)))
    assert cert2.survives
    assert cert2.grading == Grading(0, -4)
    cert11 = belt_capping_class(HandlebodySpec(catalog.belt_link(1, 1), (0,)))
    assert cert11.survives
    assert cert11.grading == Grading(0, -4)


def test_capping_certificate_does_not_depend_on_region_order():
    # the winding pair's step ends on stage 0 itself, so the free pair goes first
    belt, empty = catalog.belt_link(2), catalog.empty_surgery(1)
    first = belt_capping_class(HandlebodySpec(disjoint_union(belt, empty)))
    second = belt_capping_class(HandlebodySpec(disjoint_union(empty, belt)))
    assert first == second == CappingCertificate(Grading(0, -4), True)


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_lower_stage_is_the_upper_one_without_its_newest_pair(alpha):
    # stable belt names: the transitions rename no edge
    spec = HandlebodySpec(catalog.empty_surgery(1), (alpha,))
    stages = [build_stage(spec, r) for r in range(4)]
    for lo, hi in zip(stages, stages[1:]):
        (pair,) = hi.newest_pair.values()
        gone = {e for grp in pair for e in grp}
        assert gone <= set(hi.diagram.edges)
        assert list(lo.diagram.edges) == [e for e in hi.diagram.edges if e not in gone]
        (lo_groups,), (hi_groups,) = lo.belt_groups.values(), hi.belt_groups.values()
        assert lo_groups == [grp for grp in hi_groups if grp not in pair]


@pytest.mark.parametrize("r_max", [2, 3])
def test_split_union_with_a_strand_free_region_is_the_tensor_product(r_max):
    # the belts never meet the trefoil's crossings: every stage, and the
    # colimit, is the trefoil's table convolved with the empty link's
    union = disjoint_union(catalog.trefoil_right(), catalog.empty_surgery(1))
    res = s02_dims(HandlebodySpec(union), Window(), r_max)
    empty = s02_dims(HandlebodySpec(catalog.empty_surgery(1)), Window(), r_max)
    kh = khr2_dims(catalog.trefoil_right())
    assert res.table == kh.convolve(empty.table)
    assert res.stages == [kh.convolve(t) for t in empty.stages]


WINDOWS = (Window(), Window(h2_lo=-2, h2_hi=2, q2_lo=-12, q2_hi=0), Window(0, 0, -8, -2))


@pytest.mark.parametrize(
    "boundary, offsets, r_maxes, windows",
    [
        (catalog.empty_surgery(1), [(a,) for a in range(-2, 3)], (2, 3), WINDOWS),
        (catalog.empty_surgery(2), [(0, 0)], (2,), WINDOWS),
        (disjoint_union(catalog.trefoil_right(), catalog.empty_surgery(1)), [()], (2, 3), WINDOWS[:2]),
        (disjoint_union(catalog.unknot(), catalog.empty_surgery(1)), [()], (2, 3), WINDOWS[:2]),
    ],
    ids=["d2xs2", "two-regions", "trefoil-beside", "unknot-beside"],
)
def test_closed_form_equals_the_dense_stages(boundary, offsets, r_maxes, windows, monkeypatch):
    # every strand-free case the dense stages run under the belt guard
    from lasagna import skein

    for offset, r_max, w in itertools.product(offsets, r_maxes, windows):
        spec, case = HandlebodySpec(boundary, offset), (offset, r_max, w)
        got = s02_dims(spec, w, r_max)
        with monkeypatch.context() as m:
            m.setattr(skein, "_closed_form_ranks", dense_ranks)
            want = s02_dims(spec, w, r_max)
        assert got.table, case
        assert (got.table, got.stable, got.stages) == (want.table, want.stable, want.stages), case


def test_torus_knot_beside_a_region_is_the_tensor_product():
    # T(3,4) beside a strand-free region took 161 s on the dense stages at r_max 3
    t34 = catalog.torus_link(3, 4)
    start = time.perf_counter()
    res = s02_dims(HandlebodySpec(disjoint_union(t34, catalog.empty_surgery(1))), Window(), 3)
    elapsed = time.perf_counter() - start
    region = s02_dims(HandlebodySpec(catalog.empty_surgery(1)), Window(), 3)
    kh = khr2_dims(t34)
    assert res.table == kh.convolve(region.table)
    assert res.stages == [kh.convolve(t) for t in region.stages]
    assert elapsed < 1.0


def test_capping_certificate_without_belts_builds_no_stage(monkeypatch):
    from lasagna import skein

    def no_stage(spec, r):
        raise AssertionError(f"stage {r} built")

    monkeypatch.setattr(skein, "build_stage", no_stage)
    cert = belt_capping_class(HandlebodySpec(catalog.empty_surgery(1), (0,)))
    assert cert.survives and cert.grading == Grading(0, 0)


@pytest.mark.parametrize(
    "boundary, r",
    [(catalog.belt_link(1), 0), (catalog.empty_surgery(1), 1)],
    ids=["belt-link-1-winding", "d2xs2-crossingless"],
)
def test_transition_on_keys_is_the_full_transition_restricted(boundary, r, monkeypatch):
    from lasagna import skein

    spec = HandlebodySpec(boundary, (0,))
    hi, lo = build_stage(spec, r + 1), build_stage(spec, r)

    def key(g):
        gr = hi.cube.gen_grading(*g)
        return (gr.h2, gr.q2)

    keys = sorted({key(g) for g in hi.cube.generators()})
    # the reference: every block, with the reduced models over all degrees
    real = skein.reduction_equivalence
    with monkeypatch.context() as m:
        m.setattr(skein, "reduction_equivalence", lambda src, dst, q2s: real(src, dst))
        full = transition_down(hi, lo, set(keys))
    for chosen in [{k} for k in keys] + [set(keys[::2])]:
        part = transition_down(hi, lo, chosen)
        assert part.src is hi.cube and part.dst is lo.cube
        assert part.entries == {g: row for g, row in full.entries.items() if key(g) in chosen}


def test_capping_requires_belt_link():
    from lasagna.diagram import LinkDiagram, RegionStrand, SurgeryRegion

    d = catalog.trefoil_right()
    with_region = LinkDiagram(
        d.edges,
        d.crossings,
        d.framing_points,
        [SurgeryRegion("1", (RegionStrand("s0", "up"), RegionStrand("e1", "up")))],
        d.orientations,
    )
    # a region strand that is not a free loop, and belt11's R2-poked strand
    for boundary in (with_region, BELT11_POKE):
        with pytest.raises(ValueError, match="^encircle supports free-loop transit strands only$"):
            belt_capping_class(HandlebodySpec(boundary))


def test_transition_one_step_ranks_injective():
    # rank of each one-step symmetrized transition equals the source stage
    # dims inside the window: the maps are injective there
    from lasagna.skein import _classical_to_global, _transition_matrix, _window_stages

    spec = HandlebodySpec(catalog.empty_surgery(1), (0,))
    window = Window(h2_lo=0, h2_hi=0, q2_lo=-8, q2_hi=0)
    res = s02_dims(spec, window, r_max=3)
    stages = _window_stages(spec, Window(), 3)
    for lo, hi in zip(stages, stages[1:]):
        ranks = block_ranks(_transition_matrix(hi, lo))
        ranks = {_classical_to_global(*k, hi): v for k, v in ranks.items()}
        for g, dim in res.stages[lo.r].items():
            assert ranks.get(g, 0) == dim, (lo.r, str(g))


def test_colimit_builds_only_the_two_transitions_it_reads(monkeypatch, dense):
    from lasagna import skein

    calls = []
    real = skein.transition_down
    monkeypatch.setattr(skein, "transition_down", lambda *a: calls.append(a[0].r) or real(*a))
    res = s02_dims(HandlebodySpec(catalog.empty_surgery(1), (0,)), Window(), r_max=3)
    assert calls == [2, 3]  # the stage r+1 -> r maps for r = r_max-2 and r_max-1
    assert res.table == DimTable({(0, q2): 1 for q2 in range(0, -17, -4)})
    assert res.stable == {Grading(0, q2): True for q2 in range(0, -25, -4)}


def _ranked_from_full_bases(spec, window, r_max):
    """Table, flags and stage dims of `s02_dims`, ranked on every block of every stage."""
    from lasagna.skein import _classical_to_global, _transition_matrix, _window_stages

    stages = _window_stages(spec, Window(), r_max)

    def global_ranks(matrices, st):
        return {_classical_to_global(*k, st): v for k, v in block_ranks(matrices).items()}

    stage_dims = [DimTable(global_ranks(st.S, st)).restrict(window) for st in stages]
    prev, last = (
        global_ranks(_transition_matrix(stages[r + 1], stages[r]), stages[r + 1])
        for r in (r_max - 2, r_max - 1)
    )
    table, stable = DimTable(), {}
    for g in sorted({g for t in stage_dims for g in t}):
        p = prev.get(g, 0)
        q = last.get(g, 0)
        table.add(g, q)
        stable[g] = p == q or (p == 0 and stage_dims[r_max - 2][g] == 0)
    return table, stable, stage_dims


def test_colimit_builds_only_the_window_blocks(monkeypatch, dense):
    from lasagna import skein

    window = Window(h2_lo=-2, h2_hi=2, q2_lo=-12, q2_hi=0)  # the lasagna-colimit benchmark's
    columns = []
    real = skein.homology_matrix

    def counting(apply, H_src, H_dst, shift=(0, 0)):
        if shift != (0, 0):  # a transition; the stage tables keep the grading
            columns.append(sum(len(reps) for reps, _ech in H_src.values()))
        return real(apply, H_src, H_dst, shift)

    with monkeypatch.context() as m:
        m.setattr(skein, "homology_matrix", counting)
        s02_dims(HandlebodySpec(catalog.empty_surgery(1), (2,)), window, r_max=3)
    assert columns == [42, 93]  # of 64 and 256 representatives on every block
    for alpha in (0, 1, 2):
        spec = HandlebodySpec(catalog.empty_surgery(1), (alpha,))
        for w in (window, Window()):
            res = s02_dims(spec, w, r_max=3)
            reference = _ranked_from_full_bases(spec, w, 3)
            assert (res.table, res.stable, res.stages) == reference, (alpha, w)


def _types(matrices: dict) -> dict:
    return {key: [[type(x) for x in col] for col in cols] for key, cols in matrices.items()}


@pytest.mark.parametrize("alpha, r_max", [(0, 3), (2, 2)])
def test_transition_on_homology_equals_the_chain_level_composite(alpha, r_max):
    # w_r w_{r+1} S_r M_F S_{r+1} against homology_matrix of the averaged
    # chain-level composite, entry for entry and type for type
    from lasagna.cobmaps import homology_matrix
    from lasagna.skein import _classical_to_global, _transition_matrix, _window_stages

    spec = HandlebodySpec(catalog.empty_surgery(1), (alpha,))
    stages = _window_stages(spec, Window(), r_max)
    for r in range(r_max):
        got = _transition_matrix(stages[r + 1], stages[r])
        want = chain_level_transition(stages[r + 1], stages[r])
        assert got == want and _types(got) == _types(want), r
    res = s02_dims(spec, Window(), r_max)
    for st, table in zip(stages, res.stages):
        ranks = block_ranks(homology_matrix(lambda v: symmetrizer_average(st.sym, v), st.H, st.H))
        assert table == DimTable({_classical_to_global(*k, st): v for k, v in ranks.items()})


def test_capping_transition_on_homology_equals_the_chain_level_composite():
    from lasagna.skein import _transition_matrix, _window_stages

    spec = HandlebodySpec(catalog.belt_link(2), (0,))
    # the capping certificate's window: classical (0, -4) at stage 0, (0, 0) at stage 1
    lo, hi = _window_stages(spec, Window(0, 0, -4, -4), 1)
    got = _transition_matrix(hi, lo)
    want = chain_level_transition(hi, lo)
    assert got and got == want and _types(got) == _types(want)


@pytest.mark.parametrize("alpha, r_max", [(0, 3), (2, 2)])
def test_weighted_stage_matrix_is_a_projector(alpha, r_max):
    from lasagna.cobmaps import compose_matrices
    from lasagna.skein import _window_stages

    spec = HandlebodySpec(catalog.empty_surgery(1), (alpha,))
    for st in _window_stages(spec, Window(), r_max):
        w, S = st.sym.weight, st.S
        P = {key: [[w * x for x in col] for col in cols] for key, cols in S.items()}
        assert compose_matrices(P, P) == P, st.r
        assert (P != S) == (w != 1), st.r  # only a stage without belts has weight 1


@pytest.mark.parametrize(
    "boundary, offset, r, moves",
    [
        (catalog.empty_surgery(1), (1,), 2, True),  # 5 belts, 120 permutations
        (catalog.belt_link(2), (0,), 1, False),  # belts crossing the strands
    ],
    ids=["d2xs2-five-belts", "belt-link-2-crossing"],
)
def test_symmetrizer_equals_average_over_all_permutations(boundary, offset, r, moves):
    from lasagna.skein import _permutation_chain_map, _Symmetrizer

    st = build_stage(HandlebodySpec(boundary, offset), r)
    sym = _Symmetrizer(st.cube, st.belt_groups.values())
    per_region = []
    for groups in st.belt_groups.values():
        perms = itertools.permutations(range(len(groups)))
        per_region.append([_permutation_chain_map(st.cube, groups, p) for p in perms])

    def average(vec):
        for maps in per_region:
            acc = {}
            for f in maps:
                for k, v in f.apply(vec).items():
                    acc[k] = acc.get(k, 0) + v
            vec = {k: Fraction(v, len(maps)) for k, v in acc.items() if v}
        return vec

    reps = [v for reps, _img in st.cube.homology_basis().values() for v in reps]
    assert reps
    for v in reps:
        # the sum keeps an int chain in ints; weighted once, it is the average
        if all(type(x) is int for x in v.values()):
            assert all(type(x) is int for x in sym.apply(v).values())
        assert symmetrizer_average(sym, v) == average(v)
    if moves:
        assert any(f.apply(v) != v for maps in per_region for f in maps for v in reps)
    else:
        # No state of belt_link(2)'s stage-1 cube has both belts on circles of
        # their own, so every permutation fixes every chain and this case
        # compares two identities (see the FOUND: line on
        # `_permutation_chain_map` in CHANGES.md; whether that is right is open).
        # The sum is then 2! times the identity.
        assert all(symmetrizer_average(sym, v) == v for v in reps)
        assert all(sym.apply(v) == {k: 2 * x for k, x in v.items()} for v in reps)


def test_symmetrizer_checks_every_transposition_that_moves_a_generator(monkeypatch):
    from lasagna import cobmaps
    from lasagna.densecube import ChainMap
    from lasagna.skein import _Symmetrizer

    checked = []
    real_check = ChainMap.is_chain_map
    monkeypatch.setattr(ChainMap, "is_chain_map", lambda f: checked.append(f) or real_check(f))

    five = build_stage(HandlebodySpec(catalog.empty_surgery(1), (1,)), 2)
    _Symmetrizer(five.cube, five.belt_groups.values())
    assert len(checked) == 10  # all 5 * 4 / 2 transpositions move some generator

    # belt_link(2)'s stage-1 transposition fixes every generator: it is the
    # identity, kept as a factor (weight 1/2) but not checked; that the
    # symmetrizer is then the identity is checked above
    crossed = build_stage(HandlebodySpec(catalog.belt_link(2), (0,)), 1)
    cube, groups = crossed.cube, list(crossed.belt_groups.values())
    checked.clear()
    sym = _Symmetrizer(cube, groups)
    assert checked == []
    assert [len(maps) for maps in sym.factors] == [1] and sym.weight == Fraction(1, 2)

    # a transposition that moves one generator and breaks commutation is refused
    gens = list(cube.generators())
    cycle = next(g for g in gens if not cube.differential(g))
    other = next(g for g in gens if cube.differential(g))

    def broken(cube, groups, perm):
        entries = {g: {g: 1} for g in cube.generators()}
        entries[cycle] = {other: 1}
        return ChainMap(cube, cube, entries)

    assert not real_check(broken(cube, groups, None))
    monkeypatch.setattr(cobmaps, "_permutation_chain_map", broken)
    with pytest.raises(LasagnaError, match="not a chain map"):
        _Symmetrizer(cube, groups)
