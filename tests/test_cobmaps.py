from fractions import Fraction

import pytest

from lasagna import catalog
from lasagna.cobmaps import (
    LasagnaError,
    _permutation_chain_map,
    _Symmetrizer,
    birth_diagram,
    birth_map,
    death_diagram,
    death_map,
    dot_map,
    homology_matrix,
    reduction_equivalence,
    saddle_diagram,
    saddle_map,
)
from lasagna.densecube import Cube
from lasagna.gradings import DimTable, Window
from lasagna.khovanov import kh_dims

from helpers import bidegree_shifts, block_ranks, identity_map


def _nonzero_ranks(f):
    """Nonzero block ranks of a chain map on homology."""
    mats = homology_matrix(f.apply, f.src.homology_basis(), f.dst.homology_basis())
    return {key: r for key, r in block_ranks(mats).items() if r}


def sum_entries(*maps):
    out = {}
    for m in maps:
        for g, row in m.entries.items():
            acc = out.setdefault(g, {})
            for k, v in row.items():
                nv = acc.get(k, Fraction(0)) + v
                if nv:
                    acc[k] = nv
                else:
                    acc.pop(k, None)
    return {g: r for g, r in out.items() if r}


def test_birth_into_empty_hits_unit():
    src = Cube(catalog.empty_diagram())
    d2 = birth_diagram(catalog.empty_diagram(), "u")
    dst = Cube(d2)
    b = birth_map(src, dst, "u")
    assert b.is_chain_map()
    [(gen, row)] = b.entries.items()
    [(tgt, coeff)] = row.items()
    assert coeff == 1
    # classical label "1" sits at classical q=+1, i.e. the gl2 class at -1
    assert dst.gen_grading(*tgt).q2 == 2
    assert bidegree_shifts(b) == {(0, 2)}


# the dense maps run at c = 0 and in the Lee deformation c = 1, where the
# c-terms of m, Delta and x. are live; each test loops over both, so its id
# stays the one it had at c = 0 alone
C_VALUES = (Fraction(0), Fraction(1))


def test_dotted_birth_then_death_is_identity():
    for c in C_VALUES:
        d = catalog.trefoil_right()
        c1 = Cube(d, c)
        d2 = birth_diagram(d, "u")
        c2 = Cube(d2, c)
        composite = birth_map(c1, c2, "u").compose(dot_map(c2, "u")).compose(
            death_map(c2, c1, "u")
        )
        assert composite.entries == identity_map(c1).entries


def test_saddle_commutes_and_handleslide_decomposition():
    # splitting a circle off a trefoil strand equals
    # (birth)(x)(dot on the strand) + (dotted birth)(x)1
    for c in C_VALUES:
        d = catalog.trefoil_right()
        c1 = Cube(d, c)
        d2 = saddle_diagram(d, "s0", "s0")
        c2 = Cube(d2, c)
        split = saddle_map(c1, c2, "s0", "s0")
        assert split.is_chain_map()
        new_edge = [e for e in d2.edges if e not in d.edges][0]
        term1 = birth_map(c1, c2, new_edge).compose(dot_map(c2, "s0"))
        term2 = birth_map(c1, c2, new_edge).compose(dot_map(c2, new_edge))
        assert split.entries == sum_entries(term1, term2)


def test_saddle_merge_two_unknots():
    for c in C_VALUES:
        d = catalog.unlink(2)
        c1 = Cube(d, c)
        d2 = saddle_diagram(d, "a0", "a1")
        c2 = Cube(d2, c)
        m = saddle_map(c1, c2, "a0", "a1")
        assert m.is_chain_map()
        # merge: 1(x)1 -> 1, 1(x)x -> x, x(x)x -> c 1
        assert m.entries[(0, (0, 0))] == {(0, (0,)): Fraction(1)}
        assert m.entries[(0, (0, 1))] == m.entries[(0, (1, 0))] == {(0, (1,)): Fraction(1)}
        if c:
            assert m.entries[(0, (1, 1))] == {(0, (0,)): c}
        else:
            assert (0, (1, 1)) not in m.entries


def test_saddle_diagram_rejects_a_band_that_is_not_planar():
    d = catalog.trefoil_right()
    x = d.crossings[0]
    # the two ends of the under-strand: saddle_map on this cross-join failed
    # with AssertionError('saddle did not split')
    with pytest.raises(LasagnaError, match="not a planar band"):
        saddle_diagram(d, x.edges[0], x.edges[2])
    # the belt pairs the colimit transitions merge, crossed and free
    from lasagna.skein import HandlebodySpec, build_stage

    cross_joins = 0
    for spec, r in [(HandlebodySpec(catalog.belt_link(1), (0,)), 1),
                    (HandlebodySpec(catalog.belt_link(1), (0,)), 2),
                    (HandlebodySpec(catalog.belt_link(2), (0,)), 1),
                    (HandlebodySpec(catalog.empty_surgery(1), (0,)), 2)]:
        st = build_stage(spec, r)
        for up, down in st.newest_pair.values():
            d2 = saddle_diagram(st.diagram, up[0], down[0])
            saddle_map(st.cube, Cube(d2), up[0], down[0])
            cross_joins += up[0] in d2.edges and down[0] in d2.edges
    assert cross_joins >= 2


def test_r3_reduction_equivalence_iso():
    d1 = catalog.braid_closure([1, 2, 1, -1, 2], 3)
    d2 = catalog.braid_closure([2, 1, 2, -1, 2], 3)
    f = reduction_equivalence(Cube(d1), Cube(d2))
    assert f.is_chain_map()
    ranks = _nonzero_ranks(f)
    assert ranks == {(g.h2, g.q2): v for g, v in kh_dims(d1).items()}


def test_q2_restricted_reduction_equivalence_is_the_full_one_restricted():
    d1 = catalog.braid_closure([1, 2, 1, -1, 2], 3)
    d2 = catalog.braid_closure([2, 1, 2, -1, 2], 3)
    src, dst = Cube(d1), Cube(d2)
    full = reduction_equivalence(src, dst)
    degrees = sorted({src.gen_grading(*g).q2 for g in src.generators()})
    for q2s in [{q} for q in degrees] + [set(degrees[1::2])]:
        part = reduction_equivalence(src, dst, q2s)
        assert part.entries == {
            g: row for g, row in full.entries.items() if src.gen_grading(*g).q2 in q2s
        }
    assert reduction_equivalence(src, dst, set()).entries == {}


def test_homology_matrix_rejects_image_outside_target():
    cube = Cube(catalog.unknot())
    H = cube.homology_basis()
    # every class goes to the x generator, which is no cycle of the q2 = 2 block
    to_x = lambda v: {(0, (1,)): Fraction(1)}
    assert homology_matrix(to_x, {(0, -2): H[(0, -2)]}, H) == {(0, -2): [[Fraction(1)]]}
    with pytest.raises(AssertionError, match="target homology"):
        homology_matrix(to_x, H, H)


def test_symmetrizer_identity_for_single_belt():
    d = catalog.unlink(2)
    cube = Cube(d)
    H = cube.homology_basis()
    sym = _Symmetrizer(cube, [[["a0"]]])
    dims = DimTable(block_ranks(homology_matrix(sym.apply, H, H)))
    full = kh_dims(d)
    assert dims == full


def test_symmetrizer_two_split_belts_symmetric_square():
    # Sym^2 on (Q[x]/x^2)^(x)2: dims 1,1,1 at q = -2, 0, 2
    d = catalog.unlink(2)
    cube = Cube(d)
    H = cube.homology_basis()
    sym = _Symmetrizer(cube, [[["a0"], ["a1"]]])
    dims = DimTable(block_ranks(homology_matrix(sym.apply, H, H)))
    assert dims == DimTable({(0, -4): 1, (0, 0): 1, (0, 4): 1})


def test_symmetrizer_idempotent():
    # averaging twice changes nothing: image dims of P equal image dims of
    # P restricted to its own image, checked via a third split circle
    d = catalog.unlink(3)
    cube = Cube(d)
    H = cube.homology_basis()
    sym = _Symmetrizer(cube, [[["a0"], ["a1"], ["a2"]]])
    dims = DimTable(block_ranks(homology_matrix(sym.apply, H, H)))
    # Sym^3 of V: dims 1 at q = -3,-1,1,3
    assert dims == DimTable({(0, -6): 1, (0, -2): 1, (0, 2): 1, (0, 6): 1})


def test_dot_map_bidegree():
    for c in C_VALUES:
        cube = Cube(catalog.unknot(), c)
        f = dot_map(cube, "a")
        assert f.is_chain_map()
        assert f.entries[(0, (0,))] == {(0, (1,)): 1}
        assert f.entries.get((0, (1,)), {}) == ({(0, (0,)): c} if c else {})
        # classical degree -2; the c-term x.x = c sits 8 above in doubled q
        assert bidegree_shifts(f) == ({(0, -4), (0, 4)} if c else {(0, -4)})


def test_swap_map_split_and_nonsplit():
    from lasagna.catalog import encircle

    # split: honest transposition on homology
    cube = Cube(catalog.unlink(2))
    f = _permutation_chain_map(cube, [["a0"], ["a1"]], (1, 0))
    assert f.is_chain_map()
    assert f.entries[(0, (0, 1))] == {(0, (1, 0)): Fraction(1)}
    # involution
    assert f.compose(f).entries == identity_map(cube).entries
    # non-split: two belts around the 2-strand bundle
    stage, groups = encircle(catalog.belt_link(2), "1", 2, 0)
    cube2 = Cube(stage)
    g = _permutation_chain_map(cube2, [groups[0], groups[1]], (1, 0))
    assert g.is_chain_map()
    assert g.compose(g).entries == identity_map(cube2).entries


def test_movie_with_dotted_births_and_swap():
    d0 = Cube(catalog.unknot())
    half = Cube(birth_diagram(d0.diagram, "c1"))
    d1 = Cube(birth_diagram(half.diagram, "c2"))
    d2 = Cube(saddle_diagram(d1.diagram, "c1", "c2"))
    d3 = Cube(death_diagram(d2.diagram, "c1"))
    swap = _permutation_chain_map(d1, [["c1"], ["c2"]], (1, 0))
    assert swap.is_chain_map()
    births = birth_map(d0, half, "c1").compose(birth_map(half, d1, "c2"))
    # a dotted birth is a birth followed by a dot
    dotted = births.compose(dot_map(d1, "c1")).compose(dot_map(d1, "c2"))
    f = (
        dotted.compose(swap)
        .compose(saddle_map(d1, d2, "c1", "c2"))
        .compose(death_map(d2, d3, "c1"))
    )
    assert f.src is d0 and f.dst is d3
    assert f.is_chain_map()
    # two dotted circles merge to x*x = 0, so the composite vanishes
    assert not f.entries
    # one dot: the swap carries it from c1 to c2, where the death reads eps(x) = 1
    back = Cube(death_diagram(d1.diagram, "c2"))
    one = births.compose(dot_map(d1, "c1"))
    kill = death_map(d1, back, "c2")
    assert not one.compose(kill).entries
    moved = one.compose(swap).compose(kill)
    assert moved.is_chain_map()
    assert moved.entries == birth_map(d0, back, "c1").entries


def _belt_link_2_stage_1():
    from lasagna.skein import HandlebodySpec, build_stage

    st = build_stage(HandlebodySpec(catalog.belt_link(2), (0,)), 1)
    (groups,) = st.belt_groups.values()
    return st.cube, groups


def _trefoil_and_two_circles():
    d = birth_diagram(birth_diagram(catalog.trefoil_right(), "x"), "y")
    return Cube(d), [["x"], ["y"], [catalog.trefoil_right().edges[0]]]


@pytest.mark.parametrize(
    "make, moves",
    [
        (_belt_link_2_stage_1, False),  # a belt crossing strands never is its own circle
        (_trefoil_and_two_circles, True),  # 8 states, circle positions vary by state
    ],
    ids=["belt-link-2-stage-1", "trefoil-and-two-circles"],
)
def test_permutation_chain_map_finds_belts_once_per_state(make, moves):
    from itertools import permutations

    from lasagna.cobmaps import _permutation_chain_map

    cube, groups = make()

    def per_generator(perm):
        entries = {}
        for gen in cube.generators():
            s, labels = gen
            circles = cube.circles[s]
            idx = []
            for grp in groups:
                found = {i for i, c in enumerate(circles) if any(e in c for e in grp)}
                if len(found) != 1:
                    break
                idx.append(found.pop())
            if len(idx) == len(groups) and len(set(idx)) == len(idx):
                nl = list(labels)
                for a, b in enumerate(perm):
                    nl[idx[b]] = labels[idx[a]]
                entries[gen] = {(s, tuple(nl)): 1}
            else:
                entries[gen] = {gen: 1}
        return entries

    moved = 0
    for perm in permutations(range(len(groups))):
        expected = per_generator(perm)
        assert _permutation_chain_map(cube, groups, perm).entries == expected
        moved += sum(1 for g, row in expected.items() if row != {g: 1})
    assert bool(moved) == moves
