"""The scalar convention: a coefficient is an int until a division makes it
non-integral, then a Fraction, and never a float."""

from fractions import Fraction

import pytest

from lasagna import catalog
from lasagna.cobmaps import homology_matrix
from lasagna.densecube import Cube
from lasagna.gradings import Window
from lasagna.khovanov import scan_complex
from lasagna.linalg import exact, inverse
from lasagna.skein import HandlebodySpec, _transition_matrix, _window_stages

from helpers import full_reduction


def _types(values) -> set:
    return {type(v) for v in values}


def _strict(values) -> bool:
    """Every value an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values)


def test_inverse_of_a_unit_is_an_int():
    for x in (1, -1, Fraction(1), Fraction(-1)):
        y = inverse(x)
        assert type(y) is int and y * x == 1


def test_inverse_of_a_non_unit_is_an_exact_fraction():
    for x, expected in ((2, Fraction(1, 2)), (Fraction(-3, 2), Fraction(-2, 3))):
        y = inverse(x)
        assert type(y) is Fraction and y == expected


@pytest.fixture(scope="module")
def r3_pair():
    """Full reductions of the R3 pair; only the second meets non-unit pivots."""
    return [full_reduction(Cube(catalog.braid_closure(w, 3)))
            for w in ([1, 2, 1, -1, 2], [2, 1, 2, -1, 2])]


def _reduction_values(tr):
    """Every coefficient a reduction stores or hands out."""
    for rows in (tr.d, tr.d_in):
        for row in rows.values():
            yield from row.values()
    for _, _, lam, out_row, in_col in tr.log:
        yield lam
        yield from out_row.values()
        yield from in_col.values()
    for g in tr.gens:
        yield from tr.project({g: 1}).values()
    for a in tr.alive:
        yield from tr.include({a: 1}).values()


def test_reduction_coefficients_are_exact(r3_pair):
    unit, mixed = r3_pair
    assert all(lam in (1, -1) for _, _, lam, _, _ in unit.log)
    assert _types(_reduction_values(unit)) == {int}
    assert any(lam not in (1, -1) for _, _, lam, _, _ in mixed.log)
    assert _types(_reduction_values(mixed)) == {int, Fraction}


def test_symmetrizer_and_homology_matrix_are_exact():
    """The symmetrizer sums in ints; its weight, applied once to the matrix
    on homology, gives exact Fractions where the average divides."""
    st = _window_stages(HandlebodySpec(catalog.empty_surgery(1), (0,)), Window(), 2)[2]
    reps = [v for reps, _img in st.H.values() for v in reps]
    assert reps
    images = [c for v in reps for c in st.sym.apply(v).values()]
    assert images and _types(images) == {int}
    cols = [c for block in st.S.values() for col in block for c in col]
    assert cols and _types(cols) == {int}
    assert any(c not in (0, 1, -1) for c in cols)
    averaged = [exact(st.sym.weight * c) for c in cols]
    assert _strict(averaged) and _types(averaged) == {int, Fraction}


def test_capping_coordinates_follow_the_convention_strictly():
    """The belt_link(2) transition block and all-x coordinates behind the
    capping certificate: integral coordinates are ints."""
    spec = HandlebodySpec(catalog.belt_link(2), (0,))
    lo, hi = _window_stages(spec, Window(0, 0, -4, -4), 1)
    block = _transition_matrix(hi, lo)[(0, 0)]
    all_x = {(0, (1,) * len(lo.cube.circles[0])): 1}
    (allx,) = homology_matrix(lambda v: v, {(0, -4): ([all_x], None)}, lo.H)[(0, -4)]
    coords = [c for col in block + [allx] for c in col]
    assert coords and _strict(coords)


def test_dense_cube_keeps_an_integral_c_an_int():
    for c in (1, Fraction(1)):
        cube = Cube(catalog.trefoil_right(), c)
        assert type(cube.c) is int
        coeffs = [v for g in cube.generators() for v in cube.differential(g).values()]
        assert coeffs and _types(coeffs) == {int}
    assert Cube(catalog.unknot(), Fraction(1, 2)).c == Fraction(1, 2)


def test_unsimplified_scan_coefficients_are_ints():
    c = scan_complex(catalog.trefoil_right(), simplify=False)
    terms = [v for row in c.d.values() for m in row.values() for v in m.terms.values()]
    assert terms and _types(terms) == {int}
