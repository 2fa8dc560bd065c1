import os
import random
from fractions import Fraction

from lasagna import catalog, parse_diagram
from lasagna.cobcat import KHOVANOV, LEE, Component, Cobordism, FlatTangle, FrobeniusSpec, MorphismCombo, reduce
from lasagna.densecube import Cube
from lasagna.khovanov import scan_complex
from lasagna.lee import ClosedSurface, eval_closed_surface, lee_total_dim

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_sphere_values():
    assert eval_closed_surface(ClosedSurface(((0, 0),))) == 0
    assert eval_closed_surface(ClosedSurface(((0, 1),))) == 1
    assert eval_closed_surface(ClosedSurface(((0, 2),))) == 0  # x^2 = 0
    assert eval_closed_surface(ClosedSurface(((0, 2),), Fraction(1))) == 0  # eps(c)=0
    assert eval_closed_surface(ClosedSurface(((0, 3),), Fraction(1))) == 1  # x^3 = x


def test_torus_values():
    for c in (Fraction(0), Fraction(1), Fraction(5, 2)):
        assert eval_closed_surface(ClosedSurface(((1, 0),), c)) == 2
    assert eval_closed_surface(ClosedSurface(((1, 1),))) == 0
    assert eval_closed_surface(ClosedSurface(((1, 1),), Fraction(1))) == 0  # eps(2c) = 0
    assert eval_closed_surface(ClosedSurface(((2, 0),))) == 0
    assert eval_closed_surface(ClosedSurface(((2, 0),), Fraction(1))) == 0


def test_multiplicativity():
    s = ClosedSurface(((1, 0), (0, 1), (0, 1)))
    assert eval_closed_surface(s) == 2


def test_matches_cobcat_reduction():
    rng = random.Random(2024)
    for trial in range(40):
        c = rng.choice([Fraction(0), Fraction(1), Fraction(2)])
        comps = tuple((rng.randint(0, 2), rng.randint(0, 3)) for _ in range(rng.randint(1, 3)))
        cob = Cobordism(
            FlatTangle(()), FlatTangle(()),
            [Component(frozenset(), dots, genus) for genus, dots in comps],
        )
        via_cobcat = reduce(MorphismCombo.from_cobordism(cob), FrobeniusSpec(c)).as_scalar()
        via_trace = eval_closed_surface(ClosedSurface(comps, c))
        assert via_cobcat == via_trace, (comps, c)


def test_lee_total_dims_are_two_to_components():
    cases = [
        (catalog.unknot(), 1),
        (catalog.trefoil_right(), 1),
        (catalog.figure_eight(), 1),
        (catalog.hopf_positive(), 2),
        (catalog.torus_link(2, 4), 2),
        (catalog.unlink(3), 3),
    ]
    for d, comps in cases:
        assert lee_total_dim(d) == 2 ** comps, d.to_json_obj()


def test_lee_total_dims_random_corpus():
    rng = random.Random(77)
    for _ in range(6):
        d = catalog.random_braid_diagram(rng, 6)
        assert lee_total_dim(d) == 2 ** d.component_count


def test_lee_total_dims_of_the_fixtures():
    """Ranked on the scan, T(4,4) included (the dense Lee cube took minutes)."""
    for name in sorted(n for n in os.listdir(FIXTURES) if n.endswith(".json")):
        with open(os.path.join(FIXTURES, name)) as fh:
            d = parse_diagram(fh.read()).forget_regions()
        assert lee_total_dim(d) == 2 ** d.component_count, name


def test_lee_scan_agrees_with_the_dense_cube_per_h():
    rng = random.Random(78)
    cases = [catalog.hopf_positive(), catalog.torus_link(2, 4), catalog.unlink(2)]
    cases += [catalog.random_braid_diagram(rng, 6) for _ in range(4)]
    for d in cases:
        dense = Cube(d, LEE.c).homology_dims()
        assert scan_complex(d, LEE).homology_dims() == dense, d.to_json_obj()
        assert all(g.q2 == 0 for g in dense)
