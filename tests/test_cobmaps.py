from fractions import Fraction

import pytest

from lasagna import catalog
from lasagna.cobmaps import (
    Movie,
    R1Retract,
    R2Retract,
    birth_diagram,
    birth_map,
    block_ranks,
    coev_map,
    death_map,
    dot_map,
    homology_matrix,
    r1_kink,
    r2_poke,
    reduction_equivalence,
    saddle_diagram,
    saddle_map,
    symmetrizer_image_dims,
)
from lasagna.densecube import Cube, identity_map
from lasagna.gradings import DimTable, Window
from lasagna.khovanov import kh_dims


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
    assert b.bidegree_shifts() == {(0, 2)}


def test_dotted_birth_then_death_is_identity():
    d = catalog.trefoil_right()
    c1 = Cube(d)
    d2 = birth_diagram(d, "u")
    c2 = Cube(d2)
    composite = birth_map(c1, c2, "u").compose(dot_map(c2, "u")).compose(
        death_map(c2, c1, "u")
    )
    assert composite.entries == identity_map(c1).entries


def test_coev_and_dotted_coev_formulas():
    src = Cube(catalog.unknot())
    d2 = birth_diagram(birth_diagram(catalog.unknot(), "c1"), "c2")
    dst = Cube(d2)
    plain = coev_map(src, dst, "c1", "c2", dotted=False)
    dotted = coev_map(src, dst, "c1", "c2", dotted=True)
    assert plain.is_chain_map() and dotted.is_chain_map()
    # on the generator labeled 1: plain hits 1(x)x + x(x)1, dotted hits x(x)x
    gen = (0, (0,))
    assert set(plain.entries[gen]) == {(0, (0, 0, 1)), (0, (0, 1, 0))}
    assert set(dotted.entries[gen]) == {(0, (0, 1, 1))}
    assert plain.bidegree_shifts() == {(0, 0)}
    assert dotted.bidegree_shifts() == {(0, -4)}


def test_saddle_commutes_and_handleslide_decomposition():
    # splitting a circle off a trefoil strand equals
    # (birth)(x)(dot on the strand) + (dotted birth)(x)1
    d = catalog.trefoil_right()
    c1 = Cube(d)
    d2 = saddle_diagram(d, "s0", "s0")
    c2 = Cube(d2)
    split = saddle_map(c1, c2, "s0", "s0")
    assert split.is_chain_map()
    new_edge = [e for e in d2.edges if e not in d.edges][0]
    term1 = birth_map(c1, c2, new_edge).compose(dot_map(c2, "s0"))
    term2 = birth_map(c1, c2, new_edge).compose(dot_map(c2, new_edge))
    assert split.entries == sum_entries(term1, term2)


def test_saddle_merge_two_unknots():
    d = catalog.unlink(2)
    c1 = Cube(d)
    d2 = saddle_diagram(d, "a0", "a1")
    c2 = Cube(d2)
    m = saddle_map(c1, c2, "a0", "a1")
    assert m.is_chain_map()
    # merge: 1(x)1 -> 1, 1(x)x -> x, x(x)x -> 0
    assert m.entries[(0, (0, 0))] == {(0, (0,)): Fraction(1)}
    assert (0, (1, 1)) not in m.entries


def test_r2_retract_is_sdr():
    d = birth_diagram(catalog.trefoil_right(), "c")
    big, proj, new = r2_poke(d, "c", "e1")
    r = R2Retract(Cube(big), Cube(d), proj, new)
    inc, prj = r.include(), r.project()
    assert inc.is_chain_map() and prj.is_chain_map()
    assert inc.compose(prj).entries == identity_map(Cube(d)).entries
    assert inc.bidegree_shifts() == {(0, 0)}


def test_r1_retracts_are_sdr():
    d = catalog.hopf_positive()
    for sign in (1, -1):
        big, proj, new = r1_kink(d, "s0", sign)
        r = R1Retract(Cube(big), Cube(d), proj, new)
        inc, prj = r.include(), r.project()
        assert inc.is_chain_map() and prj.is_chain_map()
        assert inc.compose(prj).entries == identity_map(Cube(d)).entries


def test_empty_movie_is_identity():
    d = catalog.hopf_positive()
    f = Movie(d).composite()
    assert f.entries == identity_map(Cube(d)).entries


def test_movie_r2_then_inverse_is_homology_iso():
    d = catalog.unlink(2)
    m = Movie(d)
    m.r2_include("a0", "a1")
    big, proj, new = r2_poke(d, "a0", "a1")
    assert m.current.to_json_obj() == big.to_json_obj()
    m.r2_project(d, proj, new)
    f = m.composite()
    ranks = _nonzero_ranks(f)
    expected = {(g.h2, g.q2): v for g, v in kh_dims(d).items()}
    assert ranks == expected


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
    dims = symmetrizer_image_dims(cube, ["a0"])
    full = kh_dims(d)
    assert dims == full


def test_symmetrizer_two_split_belts_symmetric_square():
    # Sym^2 on (Q[x]/x^2)^(x)2: dims 1,1,1 at q = -2, 0, 2
    d = catalog.unlink(2)
    dims = symmetrizer_image_dims(Cube(d), ["a0", "a1"])
    assert dims == DimTable({(0, -4): 1, (0, 0): 1, (0, 4): 1})


def test_symmetrizer_idempotent():
    # averaging twice changes nothing: image dims of P equal image dims of
    # P restricted to its own image, checked via a third split circle
    d = catalog.unlink(3)
    dims = symmetrizer_image_dims(Cube(d), ["a0", "a1", "a2"])
    # Sym^3 of V: dims 1 at q = -3,-1,1,3
    assert dims == DimTable({(0, -6): 1, (0, -2): 1, (0, 2): 1, (0, 6): 1})


def test_symmetrizer_rejects_missing_or_shared_belts():
    with pytest.raises(ValueError, match="not in any circle"):
        symmetrizer_image_dims(Cube(catalog.unlink(2)), ["a0", "zz"])
    # the Hopf link's two components share a circle in the mixed states
    with pytest.raises(ValueError, match="not split"):
        symmetrizer_image_dims(Cube(catalog.hopf_positive()), ["s0", "e2"])


def test_dot_map_bidegree():
    cube = Cube(catalog.unknot())
    f = dot_map(cube, "a")
    assert f.is_chain_map()
    assert f.bidegree_shifts() == {(0, -4)}  # classical degree -2


def test_swap_map_split_and_nonsplit():
    from lasagna.cobmaps import swap_map
    from lasagna.catalog import encircle

    # split: honest transposition on homology
    cube = Cube(catalog.unlink(2))
    f = swap_map(cube, ["a0"], ["a1"])
    assert f.entries[(0, (0, 1))] == {(0, (1, 0)): Fraction(1)}
    # involution
    assert f.compose(f).entries == identity_map(cube).entries
    # non-split: two belts around the 2-strand bundle
    stage, groups = encircle(catalog.belt_link(2), "1", 2, 0)
    cube2 = Cube(stage)
    g = swap_map(cube2, groups[0], groups[1])
    assert g.compose(g).entries == identity_map(cube2).entries


def test_movie_with_coev_and_swap():
    d = catalog.unknot()
    f = (
        Movie(d)
        .coev("c1", "c2", dotted=True)
        .swap("c1", "c2")
        .saddle("c1", "c2")
        .death("c1")
        .composite()
    )
    assert f.is_chain_map()
    # dotted coev then merge gives x*x = 0, so the composite vanishes
    assert not f.entries


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
