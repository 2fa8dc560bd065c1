import json
from collections import Counter
from pathlib import Path

import pytest

from lasagna import catalog, khovanov, projector, rw
from lasagna.cobcat import MorphismCombo
from lasagna.complexes import BigradedComplex
from lasagna.diagram import parse_diagram
from lasagna.gradings import DimTable, Window
from lasagna.khovanov import khr2_dims, tilde_renormalize
from lasagna.rw import rw_plus

from helpers import r1_kink, r2_poke

BELT_WINDOW = Window(h2_lo=-4, h2_hi=2, q2_lo=-12, q2_hi=0)


def test_rw_plus_empty_manifold_link():
    res = rw_plus(catalog.empty_surgery(1), Window(h2_lo=-4, h2_hi=4, q2_lo=-8, q2_hi=8))
    assert res.table == DimTable({(0, 0): 1})
    assert res.all_stabilized()


def test_rw_plus_single_strand_is_zero():
    res = rw_plus(catalog.belt_link(1), BELT_WINDOW)
    assert res.zero
    assert res.table == DimTable()


def test_rw_plus_belt_two():
    res = rw_plus(catalog.belt_link(2), BELT_WINDOW, k_max=3)
    assert res.table[(0, -4)] == 1  # (h,q) = (0,-2)
    for q2 in range(-12, -4, 2):
        assert res.table[(0, q2)] == 0
    for g in res.table:
        assert g.h2 >= 0
    assert res.all_stabilized()
    assert all(k <= 3 for k in res.twists.values())


def test_rw_plus_belt_antiparallel():
    res = rw_plus(catalog.belt_link(1, 1), BELT_WINDOW, k_max=3)
    assert res.table[(0, -4)] == 1
    assert all(g.h2 >= 0 for g in res.table)


def test_rw_plus_gate_belt():
    # k = 1 and 2 already agree at h = -1 and 0
    res = rw_plus(catalog.belt_link(2), Window(h2_lo=-2, h2_hi=0, q2_lo=-8, q2_hi=0), k_max=3)
    assert res.stabilized == {"1": True}
    assert res.twists == {"1": 1}


def test_rw_plus_gate_negative_control():
    # at h = 0 alone k = 1 and 2 agree; once the h = 1 classes are in the
    # window they differ, and with k_max = 2 there is no third level to try
    d = catalog.belt_link(2)
    narrow = rw_plus(d, Window(h2_lo=0, h2_hi=0, q2_lo=-8, q2_hi=0), k_max=2)
    assert narrow.stabilized == {"1": True}
    assert narrow.twists == {"1": 1}
    wide = rw_plus(d, Window(h2_lo=0, h2_hi=2, q2_lo=-8, q2_hi=0), k_max=2)
    assert wide.stabilized == {"1": False}


def test_rw_plus_builds_each_twist_level_once(monkeypatch):
    # a run that does not stabilize reports level k_max, already built by the loop
    levels, ladders = [], set()
    real = rw.twisted_tilde_table

    def counting(ladder, k):
        levels.append(k)
        ladders.add(id(ladder))
        return real(ladder, k)

    monkeypatch.setattr(rw, "twisted_tilde_table", counting)
    res = rw_plus(catalog.belt_link(2), Window(h2_lo=0, h2_hi=2), k_max=2)
    assert res.stabilized == {"1": False} and res.twists == {"1": 2}
    assert levels == [1, 2]
    assert len(ladders) == 1  # both levels read off one scan


def test_rw_plus_scans_the_top_level_once(monkeypatch):
    # 24 crossings of the level-2 diagram and one closing step for level 1,
    # where scanning each level on its own takes 12 + 24 steps
    calls = []
    add, glue_step = khovanov.Scan.add, projector.glue_step
    monkeypatch.setattr(khovanov.Scan, "add", lambda *a, **kw: calls.append(1) or add(*a, **kw))
    monkeypatch.setattr(projector, "glue_step", lambda *a, **kw: calls.append(1) or glue_step(*a, **kw))
    res = rw_plus(catalog.belt_link(4), EDGE, k_max=2)
    assert res.all_stabilized()
    assert len(calls) == 25


def test_rw_plus_asks_each_entry_once_whether_it_is_invertible(monkeypatch):
    # set_entry decides it as it stores an entry; simplify and elimination
    # read that record instead of asking the entry again
    calls = Counter()
    for owner, name in ((MorphismCombo, "invertible_scalar"), (BigradedComplex, "set_entry")):
        def counting(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counting)
    rw_plus(catalog.belt_link(4), Window(h2_lo=-4, h2_hi=0, q2_lo=-16, q2_hi=0), k_max=2)
    assert 0 < calls["invertible_scalar"] <= calls["set_entry"], calls


def test_rw_plus_gate_empty_region():
    res = rw_plus(catalog.empty_surgery(1), Window(), k_max=2)
    assert res.stabilized == {"1": True}


def test_rw_plus_no_regions_recovers_tilde():
    # the windows with a low top cut the scan; the reference never does
    windows = [Window(h2_lo=-20, h2_hi=20, q2_lo=-40, q2_hi=40), Window(h2_lo=-3, h2_hi=0),
               Window(h2_lo=-8, h2_hi=-2, q2_lo=-20, q2_hi=20)]
    for d in (catalog.trefoil_right(), catalog.hopf_positive(), catalog.unknot(),
              catalog.figure_eight(), catalog.torus_link(4, 4)):
        for w in windows:
            res = rw_plus(d, w)
            assert res.table == tilde_renormalize(khr2_dims(d), d.writhe()).restrict(w)
            assert res.all_stabilized()


def test_rw_plus_odd_writhe_half_gradings():
    res = rw_plus(catalog.trefoil_right(), Window())
    assert any(g.h2 % 2 for g in res.table)


def test_rw_stabilization_failure_reported():
    # an absurdly wide window cannot stabilize with tiny k_max
    res = rw_plus(catalog.belt_link(2), Window(h2_lo=-2, h2_hi=20, q2_lo=-40, q2_hi=0), k_max=2)
    assert not res.all_stabilized()


def test_rw_invariance_admissible_pairs():
    # curated pairs of admissible diagrams related by moves away from the
    # surgery region: an R2 poke between the two transit strands, and a
    # kink traded against a framing point
    window = Window(h2_lo=-2, h2_hi=2, q2_lo=-8, q2_hi=4)
    for base in (catalog.belt_link(2), catalog.belt_link(1, 1)):
        strands = [s.edge for s in base.region("1").strands]
        poked = r2_poke(base, strands[0], strands[1])
        res_base = rw_plus(base, window, k_max=3)
        res_poked = rw_plus(poked, window, k_max=3)
        assert res_base.table == res_poked.table, base.to_json_obj()
    base = catalog.belt_link(2)
    kinked = r1_kink(base, base.region("1").strands[0].edge, 1)
    traded = kinked.add_framing_points([(kinked.region("1").strands[0].edge, -1)])
    res = rw_plus(traded, window, k_max=3)
    assert res.table == rw_plus(base, window, k_max=3).table


def test_rw_plus_belt_four():
    # the 4-strand belt: bottom class at (0,-4), vanishing below and at h<0
    window = Window(h2_lo=-4, h2_hi=0, q2_lo=-16, q2_hi=0)
    res = rw_plus(catalog.belt_link(4), window, k_max=2)
    assert res.table[(0, -8)] == 1
    for q2 in range(-16, -8, 2):
        assert res.table[(0, q2)] == 0
    assert all(g.h2 >= 0 for g in res.table)
    assert res.all_stabilized()


@pytest.fixture(scope="module")
def untruncated():
    """Level k's tilde table from its own uncut scan, each level scanned once per module."""
    tables = {}

    def table(d, k):
        key = (json.dumps(d.to_json_obj(), sort_keys=True), k)
        if key not in tables:
            twisted = projector.twist_all_regions(d, k)
            tables[key] = tilde_renormalize(khr2_dims(twisted), twisted.writhe())
        return tables[key]

    return table


def _fixture(name):
    root = Path(__file__).resolve().parent.parent / "fixtures"
    return parse_diagram((root / f"{name}.json").read_text())


# the tilde tables of the belt links start at h = 0: windows whose top sits on
# that edge, one column above it and inside the support, reaching k = 2, 3, 4
EDGE = Window(h2_lo=-4, h2_hi=0, q2_lo=-16, q2_hi=0)
ABOVE_EDGE = Window(h2_lo=0, h2_hi=2)
INTERIOR = Window(h2_lo=2, h2_hi=6, q2_lo=-20, q2_hi=4)
# a half-integer top against an even twisted writhe: the scan's cut is odd
ODD_TOP = Window(h2_lo=-1, h2_hi=3)


# (name, diagram, k_max, windows, the highest twist level the windows scan)
TRUNCATION_CASES = [
    ("fixture belt1", _fixture("belt1"), 3, [EDGE, INTERIOR], None),
    ("fixture belt11", _fixture("belt11"), 3, [EDGE, ABOVE_EDGE, INTERIOR, ODD_TOP], 3),
    ("fixture belt2", _fixture("belt2"), 3, [EDGE, ABOVE_EDGE, INTERIOR, ODD_TOP], 3),
    ("fixture belt4", _fixture("belt4"), 2, [EDGE, ABOVE_EDGE], 2),
    ("fixture empty_s1s2", _fixture("empty_s1s2"), 3, [EDGE, INTERIOR], 2),
    ("fixture empty_s1s2_x2", _fixture("empty_s1s2_x2"), 3, [EDGE, INTERIOR], 2),
    ("belt_link(4)", catalog.belt_link(4), 4, [EDGE, INTERIOR], 4),
    ("belt_link(2)", catalog.belt_link(2), 4, [EDGE, ABOVE_EDGE, INTERIOR, BELT_WINDOW], 4),
    ("belt_link(1, 1)", catalog.belt_link(1, 1), 4, [EDGE, ABOVE_EDGE, INTERIOR, ODD_TOP], 4),
    ("belt_link(2, 2)", catalog.belt_link(2, 2), 3, [EDGE, ABOVE_EDGE], 3),
]


@pytest.mark.parametrize("d, k_max, windows, top_level", [case[1:] for case in TRUNCATION_CASES],
                         ids=[case[0] for case in TRUNCATION_CASES])
def test_truncated_rw_plus_equals_untruncated(d, k_max, windows, top_level, untruncated,
                                              monkeypatch):
    levels = []  # the twist levels read with the window's cut
    real = rw.twisted_tilde_table
    monkeypatch.setattr(rw, "twisted_tilde_table",
                        lambda ladder, k: levels.append(k) or real(ladder, k))
    for window in windows:
        cut = rw_plus(d, window, k_max)
        with monkeypatch.context() as mp:
            mp.setattr(rw, "twisted_tilde_table", lambda ladder, k: untruncated(d, k))
            full = rw_plus(d, window, k_max)
        assert cut == full, window
    assert max(levels, default=None) == top_level


def test_truncated_window_below_the_support(untruncated, monkeypatch):
    # a window wholly below the table's support (h >= 0) leaves the cut table
    # empty, as the full one restricted to it
    d, window = catalog.belt_link(2), Window(h2_lo=-6, h2_hi=-2)
    cut = rw_plus(d, window, 2)
    with monkeypatch.context() as mp:
        mp.setattr(rw, "twisted_tilde_table", lambda ladder, k: untruncated(d, k))
        full = rw_plus(d, window, 2)
    assert cut.table == full.table == DimTable()
    assert (cut.twists, cut.stabilized) == (full.twists, full.stabilized) == ({"1": 1}, {"1": True})


def _admissible_pairs_diagrams():
    """The R2-poked and kink-traded diagrams of test_rw_invariance_admissible_pairs."""
    out = []
    for base in (catalog.belt_link(2), catalog.belt_link(1, 1)):
        strands = [s.edge for s in base.region("1").strands]
        out.append((f"r2_poke {base.region('1').signed_transit}", r2_poke(base, strands[0], strands[1])))
    base = catalog.belt_link(2)
    kinked = r1_kink(base, base.region("1").strands[0].edge, 1)
    out.append(("r1_kink", kinked.add_framing_points([(kinked.region("1").strands[0].edge, -1)])))
    return out


# (name, diagram, k_max, windows): crossings outside the region, and two regions
LADDER_CASES = [case[:4] for case in TRUNCATION_CASES] + [
    (name, d, 3, [EDGE, ABOVE_EDGE, ODD_TOP]) for name, d in _admissible_pairs_diagrams()
] + [
    ("two regions", catalog.empty_surgery(2).add_belts("1", 2, 0).add_belts("2", 2, 0), 2,
     [EDGE, ABOVE_EDGE, INTERIOR]),
]


@pytest.mark.parametrize("d, k_max, windows", [case[1:] for case in LADDER_CASES],
                         ids=[case[0] for case in LADDER_CASES])
def test_ladder_levels_equal_their_own_uncut_scans(d, k_max, windows, untruncated):
    if any(r.strand_count % 2 for r in d.regions):
        with pytest.raises(ValueError):
            projector.TwistLadder(d, k_max)
        return
    for window in windows:
        ladder = projector.TwistLadder(d, k_max, window.h2_hi)
        for k in range(1, k_max + 1):
            got = projector.twisted_tilde_table(ladder, k)
            assert got.restrict(window) == untruncated(d, k).restrict(window), (window, k)
