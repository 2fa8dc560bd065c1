import random
from pathlib import Path

from lasagna import catalog
from lasagna.gradings import DimTable, Grading, Window
from lasagna.densecube import Cube
from lasagna.diagram import Crossing, LinkDiagram, check_planar, crossing, parse_diagram
from lasagna.khovanov import (
    jones_unnormalized,
    kh_dims,
    kh_dims_bruteforce,
    khr2_dims,
    reidemeister_reduced,
    scan_complex,
    tilde_renormalize,
)
from lasagna.lee import lee_total_dim

from helpers import disjoint_union, r1_kink, r2_poke, relabeled

# frozen classical tables ((h, q) undoubled): published values
UNKNOT = {(0, -1): 1, (0, 1): 1}
HOPF_POS = {(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1}
TREFOIL_R = {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
FIG8 = {(-2, -5): 1, (-1, -1): 1, (0, -1): 1, (0, 1): 1, (1, 1): 1, (2, 5): 1}
T24 = {(0, 2): 1, (0, 4): 1, (2, 6): 1, (3, 10): 1, (4, 10): 1, (4, 12): 1}


def table(d):
    return DimTable({(2 * h, 2 * q): v for (h, q), v in d.items()})


def test_frozen_tables_scan_and_dense():
    cases = [
        (catalog.unknot(), UNKNOT),
        (catalog.hopf_positive(), HOPF_POS),
        (catalog.trefoil_right(), TREFOIL_R),
        (catalog.figure_eight(), FIG8),
        (catalog.torus_link(2, 4), T24),
    ]
    for d, expected in cases:
        assert kh_dims(d) == table(expected)
        assert kh_dims_bruteforce(d) == table(expected)


def test_khr2_unknot_anchor():
    assert khr2_dims(catalog.unknot()) == table({(0, -1): 1, (0, 1): 1})


def test_khr2_reindex_t22():
    # KhR2^{h,q} = Kh^{-h, q+w}: the top Stosic class of T(2,2) lands at
    # (-2,2) and the column below it vanishes.
    t = khr2_dims(catalog.torus_link(2, 2))
    assert t[(-4, 4)] == 1  # (h,q) = (-2,2)
    for q2 in range(-12, 4, 2):
        assert t[(-4, q2)] == 0, q2  # vanishing for q < 2 at h = -2
    for g in t:
        assert g.h2 >= -4  # nothing below h = -2


def test_khr2_framing_point_shift():
    d = catalog.unknot_with_framing(3)
    # weight 3 framing point: pure quantum shift by -3
    assert khr2_dims(d) == table({(0, -4): 1, (0, -2): 1})


def test_mirror_duality_dims():
    rng = random.Random(99)
    diagrams = [
        catalog.trefoil_right(),
        catalog.figure_eight(),
        catalog.hopf_positive(),
    ] + [catalog.random_braid_diagram(rng, 6) for _ in range(5)]
    for d in diagrams:
        a = khr2_dims(d)
        b = khr2_dims(d.mirror())
        assert b == a.reflect(), d.to_json_obj()


def test_tilde_renormalize():
    assert tilde_renormalize(DimTable({(0, 0): 1}), 0) == DimTable({(0, 0): 1})
    assert tilde_renormalize(DimTable({(-4, 4): 1}), 2) == DimTable({(-2, 2): 1})
    # odd writhe: genuine half-integer gradings
    t = tilde_renormalize(DimTable({(0, 0): 1}), 1)
    assert t == DimTable({(1, -1): 1})
    [(g, _)] = t.items()
    assert str(g) == "(1/2,-1/2)"


def test_euler_equals_kauffman_bracket():
    rng = random.Random(4242)
    diagrams = [catalog.unknot(), catalog.hopf_positive(), catalog.trefoil_right()]
    diagrams += [catalog.random_braid_diagram(rng, 6) for _ in range(6)]
    for d in diagrams:
        assert kh_dims(d).euler() == jones_unnormalized(d), d.to_json_obj()


def test_reidemeister_2_3_invariance():
    # curated pairs: same link, different diagrams
    pairs = [
        (catalog.braid_closure([1, 1, 1], 2), catalog.braid_closure([1, 1, 1, 1, -1], 2)),
        (catalog.braid_closure([1, -2, 1, -2], 3), catalog.braid_closure([-2, 1, -2, 1], 3)),
        # R3: braid relation s1 s2 s1 = s2 s1 s2
        (catalog.braid_closure([1, 2, 1, 1], 3), catalog.braid_closure([2, 1, 2, 1], 3)),
        (
            catalog.braid_closure([1, 2, 1, -1, 2], 3),
            catalog.braid_closure([2, 1, 2, -1, 2], 3),
        ),
    ]
    for d1, d2 in pairs:
        assert khr2_dims(d1) == khr2_dims(d2)
        assert kh_dims(d1).euler() == kh_dims(d2).euler()


def test_reidemeister_1_framing_trade():
    # removing a positive kink while adding a +1 framing point fixes khr2
    base = catalog.braid_closure([1, 1, 1], 2)
    stabilized = catalog.braid_closure([1, 1, 1, 2], 3)  # Markov stabilization
    traded = base.add_framing_points([("s0", 1)])
    assert khr2_dims(stabilized) == khr2_dims(traded)


def test_disjoint_union_tensor():
    d1 = catalog.trefoil_right()
    d2 = catalog.hopf_positive()
    both = disjoint_union(d1, d2)
    assert kh_dims(both) == kh_dims(d1).convolve(kh_dims(d2))


def test_lee_total_dims():
    assert lee_total_dim(catalog.unknot()) == 2
    assert lee_total_dim(catalog.trefoil_right()) == 2
    assert lee_total_dim(catalog.hopf_positive()) == 4
    assert lee_total_dim(catalog.torus_link(2, 4)) == 4


def test_window_restriction():
    t = khr2_dims(catalog.trefoil_right(), window=Window(h2_lo=-8, h2_hi=0))
    assert all(-8 <= g.h2 <= 0 for g in t)
    assert t.total() > 0


REGION_FREE_FIXTURES = ["figure8", "hopf", "t22", "t24", "t26", "t44", "trefoil", "trefoil_left",
                        "unknot", "unknot_fr3", "unlink2"]


def _support_windows(table):
    """Windows whose top h lies below, at each edge of and inside the h support of a table."""
    hs = sorted({g.h2 for g in table})
    lo, hi = hs[0], hs[-1]
    tops = {lo - 2, lo, lo + 2, lo + 2 * ((hi - lo) // 4), hi - 2, hi}
    windows = [Window(h2_lo=top - 4, h2_hi=top) for top in sorted(tops)]
    # a half-integer top gives an odd cut, which the scan raises to even
    return windows + [Window(h2_hi=hi - 2, q2_lo=-4, q2_hi=8), Window(h2_hi=lo + 1)]


def test_window_truncated_scan_equals_restricted_full_table():
    # a window's top cuts the scan two columns below it (in classical h, the
    # cut m = -top - 2): inside the window the table is exact, and the cut
    # scan holds the classical degrees h2 >= m + 2 alone once it has scanned
    # a crossing
    root = Path(__file__).resolve().parent.parent / "fixtures"
    diagrams = [parse_diagram((root / f"{name}.json").read_text()) for name in REGION_FREE_FIXTURES]
    rng = random.Random(20261019)
    diagrams += [catalog.random_braid_diagram(rng, max_crossings=8) for _ in range(30)]
    for d in diagrams:
        assert not d.regions
        full, classical = khr2_dims(d), kh_dims(d)
        for window in _support_windows(full):
            assert khr2_dims(d, window) == full.restrict(window), (d.to_json_obj(), window)
            cut = -window.h2_hi - 2
            kept = classical.restrict(Window(h2_lo=cut + 2)) if d.crossings else classical
            assert kh_dims(d, cut) == kept, (d.to_json_obj(), cut)


def test_cube_rejects_surgery_regions():
    import pytest

    with pytest.raises(ValueError, match="surgery"):
        scan_complex(catalog.belt_link(2))
    with pytest.raises(ValueError, match="surgery"):
        Cube(catalog.belt_link(2))


def test_bruteforce_crossing_guard():
    import pytest

    with pytest.raises(ValueError, match="guard"):
        kh_dims_bruteforce(catalog.torus_link(4, 5))  # 15 crossings


def test_cube_with_framing_points():
    d = catalog.trefoil_right().add_framing_points([("s0", 2)])
    assert khr2_dims(d, bruteforce=True) == khr2_dims(d)


def test_torus_3_3_consistency():
    # T(3,3): internal cross-checks (Euler char, Lee rank, top-degree cut)
    d = catalog.torus_link(3, 3)
    t = kh_dims(d)
    assert t.euler() == jones_unnormalized(d)
    assert lee_total_dim(d) == 8
    assert max(g.h2 for g in t) <= 2 * (9 // 2)  # vanishing above nm/2


def test_single_r2_move_invariance():
    # khr2 dims across diagram pairs related by exactly one R2 poke
    for d in (catalog.trefoil_right(), catalog.figure_eight()):
        edges = list(d.edges)[:2]
        poked = r2_poke(d, edges[0], edges[1])
        assert khr2_dims(poked) == khr2_dims(d)


def test_every_planar_r2_poke_is_invariant():
    # every ordered edge pair: a pair the poke cannot cross planarly raises,
    # and each accepted poke keeps the homology of the scan
    accepted = rejected = 0
    for d in (catalog.hopf_positive(), catalog.trefoil_right(), catalog.trefoil_left(),
              catalog.figure_eight()):
        dims = khr2_dims(d)
        for a in d.edges:
            for b in d.edges:
                if a == b:
                    continue
                try:
                    poked = r2_poke(d, a, b)
                except ValueError:
                    rejected += 1
                    continue
                accepted += 1
                assert khr2_dims(poked) == dims, (a, b)
    assert (accepted, rejected) == (16, 112)


def _nugatory_pair():
    """Two trefoil arcs, each closed through a nugatory crossing of its own.

    The crossings are joined by edges p and s, adjacent at both and under (p)
    and over (s) at both, but each arc lies on its own side of p and s, so
    they bound no bigon face.
    """
    crossings, edges = [], ["p", "s"]
    for k in "ab":
        t = relabeled(catalog.trefoil_right(), k)
        *rest, last = t.crossings
        assert last.edges[2] == f"{k}s0"  # the tail of s0: cut the trefoil open there
        crossings += rest + [Crossing(last.edges[:2] + (f"{k}o",) + last.edges[3:], last.sign)]
        edges += list(t.edges) + [f"{k}o"]
    crossings += [crossing(("p", "as0"), ("ao", "s"), 1), crossing(("bo", "p"), ("s", "bs0"), 1)]
    return LinkDiagram(edges, crossings, orientations={e: "up" for e in edges})


def _reduction_cases():
    """(diagram, crossings its reduction keeps, free loops it ends with)."""
    root = Path(__file__).resolve().parent.parent / "fixtures"
    trefoil = parse_diagram((root / "trefoil.json").read_text())
    figure8 = parse_diagram((root / "figure8.json").read_text())
    curl = LinkDiagram(["s1", "s2"], [Crossing(("s2", "s2", "s1", "s1"), 1)])
    return [
        (catalog.braid_closure([1, -1, 1], 2), 0, 1),  # an adjacent R2, then a kink
        (catalog.braid_closure([1, 3, -1], 4), 0, 3),  # an R2 across a far letter
        (catalog.braid_closure([1, 2, 2, -1], 3), 2, 1),  # an R2 across the closure
        (catalog.braid_closure([1, 2], 3), 0, 1),  # an R1 cascade to the unknot
        (catalog.braid_closure([1, -1], 2), 0, 2),  # full cancellation
        (curl, 0, 1),
        (r1_kink(trefoil, "e2", -1), 3, 0),
        (r1_kink(r1_kink(figure8, "s0", 1), "e3", 1), 4, 0),
        (r2_poke(trefoil, "e1", "e2"), 3, 0),
        (r2_poke(figure8, "s0", "s1"), 4, 0),
        (catalog.hopf_positive(), 2, 0),  # a clasp
        (figure8, 4, 0),
        (_nugatory_pair(), 8, 0),
        # kh-corpus words that R1 and R2 leave whole: one R3 move frees an
        # R1 or R2 move, and the cascade ends at the unknot
        (catalog.braid_closure([-1, 2, 1, 2, -1, -2, 1, 2, 1, -2], 3), 0, 1),
        (catalog.braid_closure([-2, 1, 2, 3, 2, -3, 1, -2, -3], 4), 0, 1),
        # T(3,3): each of its six triangles admits an R3 move that frees nothing
        (catalog.torus_link(3, 3), 6, 0),
    ]


def test_reidemeister_pass_keeps_the_homology():
    for d, kept, loops in _reduction_cases():
        r = reidemeister_reduced(d)
        assert (len(r.crossings), len(r.free_loops)) == (kept, loops), d.to_json_obj()
        if kept == len(d.crossings):
            assert r is d
        check_planar(r)
        assert r.component_count == d.component_count
        expected = scan_complex(d).homology_dims()
        assert kh_dims(d) == expected == kh_dims_bruteforce(d), d.to_json_obj()
        assert lee_total_dim(d) == 2 ** d.component_count


def test_reidemeister_pass_keeps_input_order_and_smallest_names():
    # the one bigon, sigma_2 sigma_2^-1, goes and frees the third strand;
    # the remaining crossings keep their order and each edge class its
    # smallest id
    d = catalog.braid_closure([1, 2, -2, 1, 1], 3)
    r = reidemeister_reduced(d)
    kept = [c for i, c in enumerate(d.crossings) if i not in (1, 2)]
    assert len(r.free_loops) == 1
    assert [c.sign for c in r.crossings] == [c.sign for c in kept]
    for c, old in zip(r.crossings, kept):
        for e, o in zip(c.edges, old.edges):
            assert e <= o and e in r.edges
    assert reidemeister_reduced(r) is r
    assert kh_dims(r) == kh_dims(d)


def test_an_r3_move_that_frees_nothing_is_undone():
    # beside a kink, which goes, T(3,3)'s crossings come back as they were,
    # though each of its six triangles admits an R3 move
    t33 = catalog.torus_link(3, 3)
    r = reidemeister_reduced(disjoint_union(t33, catalog.braid_closure([1], 2)))
    assert r.crossings == t33.crossings
    assert len(r.free_loops) == 1


def test_windowed_khr2_of_a_reducible_diagram():
    # the reduction may have no crossing left: the window's table is still
    # the restricted full one, and kh_dims keeps nothing below the cut + 2
    for d, _, _ in _reduction_cases():
        full, classical = khr2_dims(d), kh_dims(d)
        for window in _support_windows(full):
            assert khr2_dims(d, window) == full.restrict(window), (d.to_json_obj(), window)
            cut = -window.h2_hi - 2
            assert kh_dims(d, cut) == classical.restrict(Window(h2_lo=cut + 2))


def test_khr2_reads_the_input_writhe():
    # R1 changes the crossing writhe; the gl2 table is reindexed by the
    # input's, framing included
    base = catalog.trefoil_right().add_framing_points([("s0", 2)])
    kinked = r1_kink(r1_kink(base, "e1", 1), "e3", 1)
    assert khr2_dims(kinked) == khr2_dims(base).shift(0, -4)
    assert khr2_dims(kinked) == khr2_dims(kinked, bruteforce=True)


def test_dense_oracle_builds_the_input_cube(monkeypatch):
    from lasagna import khovanov

    built = []

    def recording(d, *args):
        built.append(len(d.crossings))
        return Cube(d, *args)

    monkeypatch.setattr(khovanov, "Cube", recording)
    d = catalog.braid_closure([1, -1, 1, 1], 2)
    assert kh_dims_bruteforce(d) == kh_dims(d)
    assert built == [4]
