"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go;
each criterion is a separate test with its stated time budget enforced.
"""

import random
import time
from contextlib import contextmanager

from lasagna import catalog
from lasagna.cobcat import KHOVANOV, Component, Cobordism, FlatTangle, reduce as cob_reduce
from lasagna.densecube import Cube
from lasagna.cobmaps import (
    _permutation_chain_map,
    _Symmetrizer,
    birth_map,
    dot_map,
    homology_matrix,
    saddle_diagram,
    saddle_map,
)
from lasagna.gradings import DimTable, Grading, Window
from lasagna.khovanov import (
    jones_unnormalized,
    kh_dims,
    kh_dims_bruteforce,
    khr2_dims,
    scan_complex,
)
from lasagna.lee import lee_total_dim
from lasagna.rw import rw_plus
from lasagna.skein import HandlebodySpec, s02_dims

from helpers import block_ranks, identity_map, verify_d_squared


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed <= budget_seconds else "FAIL (over budget)"
    print(f"ACCEPTANCE {number}: {status}  {description}  [{elapsed:.2f}s/{budget_seconds}s]")
    assert elapsed <= budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_convention_anchor():
    with criterion(1, "KhR2(unknot) at (0,+-1); Lee(unknot) total 2", 1.0):
        assert khr2_dims(catalog.unknot()) == DimTable({(0, -2): 1, (0, 2): 1})
        assert lee_total_dim(catalog.unknot()) == 2


def test_criterion_2_torus_2_2():
    with criterion(2, "Kh^{2,4}(T(2,2)) = Q with vanishing pattern", 1.0):
        t = kh_dims(catalog.torus_link(2, 2))
        assert t[(4, 8)] == 1  # (h,q) = (2,4)
        for q2 in range(-20, 8, 2):
            assert t[(4, q2)] == 0  # q < 4 at h = 2
        assert all(g.h2 <= 4 for g in t)  # h > 2 vanishes


def test_criterion_3_torus_4_4():
    with criterion(3, "Kh^{8,20}(T(4,4)) = Q with vanishing pattern, scanning", 300.0):
        t = kh_dims(catalog.torus_link(4, 4))
        assert t[(16, 40)] == 1  # (h,q) = (8,20)
        for q2 in range(0, 40, 2):
            assert t[(16, q2)] == 0  # q < 20 at h = 8
        assert all(g.h2 <= 16 for g in t)  # h > 8 vanishes


def test_criterion_4_rw_belt():
    with criterion(4, "rw_plus(1_2): 1 at (0,-2), vanishing, stable k=2 vs 3", 120.0):
        window = Window(h2_lo=-4, h2_hi=2, q2_lo=-12, q2_hi=0)
        res = rw_plus(catalog.belt_link(2), window, k_max=3)
        assert res.table[(0, -4)] == 1  # (0,-2)
        for q2 in range(-12, -4, 2):
            assert res.table[(0, q2)] == 0  # (0, q < -2)
        assert all(g.h2 >= 0 for g in res.table)  # h < 0 vanishes
        assert res.all_stabilized()
        # stabilization is certified by the T(2,4) versus T(2,6) comparison
        assert set(res.twists.values()) == {2}


def test_criterion_5_rw_empty_and_odd():
    with criterion(5, "rw_plus(empty) = Q at (0,0); rw_plus(1_1) = 0", 10.0):
        w = Window(h2_lo=-4, h2_hi=4, q2_lo=-8, q2_hi=8)
        empty = rw_plus(catalog.empty_surgery(1), w)
        assert empty.table == DimTable({(0, 0): 1})
        odd = rw_plus(catalog.belt_link(1), w)
        assert odd.zero and odd.table == DimTable()


def test_criterion_6_lasagna_fixture():
    with criterion(6, "s02(D2xS2; empty; alpha=0,1): 1 at (0,0..-6)", 600.0):
        window = Window(h2_lo=-2, h2_hi=2, q2_lo=-12, q2_hi=0)
        expected = DimTable({(0, 0): 1, (0, -4): 1, (0, -8): 1, (0, -12): 1})
        for alpha in ((0,), (1,)):
            res = s02_dims(HandlebodySpec(catalog.empty_surgery(1), alpha), window, r_max=3)
            assert res.table == expected, alpha


def test_criterion_7_oracle_equivalence():
    with criterion(7, "25 random diagrams: scan == dense, Euler == bracket", 300.0):
        rng = random.Random(20260808)
        for i in range(25):
            d = catalog.random_braid_diagram(rng, max_crossings=8)
            scan = kh_dims(d)
            dense = kh_dims_bruteforce(d)
            assert scan == dense, (i, d.to_json_obj())
            assert scan.euler() == jones_unnormalized(d), (i, d.to_json_obj())


def test_criterion_8_mirror_duality():
    with criterion(8, "khr2(mirror d)(h,q) = khr2(d)(-h,-q) on the corpus", 120.0):
        corpus = [
            catalog.unknot(),
            catalog.unknot_with_framing(3),
            catalog.unlink(2),
            catalog.hopf_positive(),
            catalog.trefoil_right(),
            catalog.trefoil_left(),
            catalog.figure_eight(),
            catalog.torus_link(2, 2),
            catalog.torus_link(2, 4),
            catalog.torus_link(2, 6),
        ]
        for d in corpus:
            assert khr2_dims(d.mirror()) == khr2_dims(d).reflect(), d.to_json_obj()


def test_criterion_9_property_suites():
    with criterion(9, "d^2=0, reduce idempotent, symmetrizer, R-moves, handleslide", 300.0):
        # d^2 = 0 on every constructed cube
        for d in (catalog.trefoil_right(), catalog.figure_eight(), catalog.torus_link(2, 4)):
            assert verify_d_squared(scan_complex(d, simplify=False))
        # reduce idempotent on random closed cobordisms: the scalar it gives,
        # drawn as the empty cobordism, reduces to itself
        rng = random.Random(5)
        empty = FlatTangle(())
        for _ in range(20):
            comps = [
                Component(frozenset(), rng.randint(0, 3), rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            ]
            once = cob_reduce(Cobordism(empty, empty, comps), [((), 1)], KHOVANOV)
            assert cob_reduce(Cobordism(empty, empty, []), [((), once.as_scalar())], KHOVANOV) == once
        # symmetrizer: idempotent, image dims {1,1,1} on two split belts
        cube2 = Cube(catalog.unlink(2))
        H = cube2.homology_basis()
        sym = _Symmetrizer(cube2, [[["a0"], ["a1"]]])
        dims = DimTable(block_ranks(homology_matrix(sym.apply, H, H)))
        assert dims == DimTable({(0, -4): 1, (0, 0): 1, (0, 4): 1})
        swap = _permutation_chain_map(cube2, [["a0"], ["a1"]], (1, 0))
        assert swap.is_chain_map()
        ident = identity_map(cube2)
        averaged = {}
        for mp in (ident, swap):
            for g, row in mp.entries.items():
                acc = averaged.setdefault(g, {})
                for k, v in row.items():
                    acc[k] = acc.get(k, 0) + v / 2
        proj = Cube(catalog.unlink(2))
        from lasagna.densecube import ChainMap

        P = ChainMap(cube2, cube2, averaged)
        assert P.compose(P).entries == P.entries  # Sym . Sym = Sym
        # R2/R3 dimension invariance on curated pairs
        pairs = [
            (catalog.braid_closure([1, 1, 1], 2), catalog.braid_closure([1, 1, 1, 1, -1], 2)),
            (catalog.braid_closure([1, 2, 1, 1], 3), catalog.braid_closure([2, 1, 2, 1], 3)),
            (catalog.braid_closure([1, -2, 1, -2], 3), catalog.braid_closure([-2, 1, -2, 1], 3)),
        ]
        for d1, d2 in pairs:
            assert khr2_dims(d1) == khr2_dims(d2)
        # handleslide saddle decomposition in the dense model:
        # split saddle = (birth)(x)(dot) + (dotted birth)(x)1
        d = catalog.trefoil_right()
        c1 = Cube(d)
        d2 = saddle_diagram(d, "s0", "s0")
        c2 = Cube(d2)
        new_edge = [e for e in d2.edges if e not in d.edges][0]
        split = saddle_map(c1, c2, "s0", "s0")
        t1 = birth_map(c1, c2, new_edge).compose(dot_map(c2, "s0"))
        t2 = birth_map(c1, c2, new_edge).compose(dot_map(c2, new_edge))
        summed = {}
        for mp in (t1, t2):
            for g, row in mp.entries.items():
                acc = summed.setdefault(g, {})
                for k, v in row.items():
                    nv = acc.get(k, 0) + v
                    if nv:
                        acc[k] = nv
                    else:
                        acc.pop(k, None)
        summed = {g: r for g, r in summed.items() if r}
        assert split.entries == summed
