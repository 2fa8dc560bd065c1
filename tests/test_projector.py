import pytest

from lasagna import catalog
from lasagna.gradings import DimTable, Window
from lasagna.projector import (
    TwistLadder,
    approximate_projector,
    stable_window,
    twisted_tilde_table,
)


def tilde(d, k):
    """Level k alone, uncut."""
    return twisted_tilde_table(TwistLadder(d, k), k)


def test_approximate_projector_framing():
    d = catalog.belt_link(2)
    t = approximate_projector(d, "1", 1)
    # 2 crossings plus a +1 framing point on each of the 2 strands
    assert len(t.crossings) == 2
    assert sorted(w for _, w in t.framing_points) == [1, 1]
    assert t.writhe() == 4  # k * (signed transit)^2


def test_approximate_projector_mixed_orientations():
    d = catalog.belt_link(1, 1)
    t = approximate_projector(d, "1", 2)
    # writhe change is k * n^2 with n = 0
    assert t.writhe() == 0
    assert sorted(w for _, w in t.framing_points) == [2, 2]


def test_stable_window_shape():
    w1 = stable_window(2, 1)
    assert w1.contains_window(Window(h2_lo=0, h2_hi=0))
    w2 = stable_window(2, 2)
    w3 = stable_window(2, 3)
    assert w2.h2_hi >= w1.h2_hi
    assert w3.h2_hi >= w2.h2_hi


def test_twisted_tilde_top_degree_anchor():
    # the renormalized top class of the 2-strand approximation: one class at
    # (0,-2), nothing below it in q at h=0, nothing at h<0
    d = catalog.belt_link(2)
    ladder = TwistLadder(d, 2)
    for k in (1, 2):
        t = twisted_tilde_table(ladder, k)
        assert t[(0, -4)] == 1
        for q2 in range(-14, -4, 2):
            assert t[(0, q2)] == 0
        assert all(g.h2 >= 0 for g in t)


def test_twisted_tilde_top_degree_four_strands():
    # the 4-strand approximation puts its renormalized top class at (0,-4)
    t = tilde(catalog.belt_link(4), 1)
    assert t[(0, -8)] == 1
    for q2 in range(-20, -8, 2):
        assert t[(0, q2)] == 0
    assert all(g.h2 >= 0 for g in t)


def test_twisted_tilde_stable_tail_two_strands():
    # deeper stabilization: k=3 and k=4 agree through h <= 2, and the tail
    # matches the k=2 values there as well
    d = catalog.belt_link(2)
    w = Window(h2_lo=0, h2_hi=4, q2_lo=-16, q2_hi=4)
    ladder = TwistLadder(d, 4)
    t2 = twisted_tilde_table(ladder, 2).restrict(w)
    t3 = twisted_tilde_table(ladder, 3).restrict(w)
    t4 = twisted_tilde_table(ladder, 4).restrict(w)
    assert t3 == t4
    assert t2.restrict(Window(h2_lo=0, h2_hi=2)) == t3.restrict(Window(h2_lo=0, h2_hi=2))


def test_twisted_tilde_mixed_four_strands():
    # 2 up + 2 down strands: the signed count vanishes, the top class stays
    t = tilde(catalog.belt_link(2, 2), 1)
    assert t[(0, -8)] == 1
    for q2 in range(-20, -8, 2):
        assert t[(0, q2)] == 0
    assert all(g.h2 >= 0 for g in t)


def test_ladder_reads_levels_in_increasing_order():
    ladder = TwistLadder(catalog.belt_link(2), 3)
    assert twisted_tilde_table(ladder, 2) == tilde(catalog.belt_link(2), 2)
    for k in (1, 4):  # behind the prefix, and past the top level
        with pytest.raises(ValueError):
            twisted_tilde_table(ladder, k)
    assert twisted_tilde_table(ladder, 3) == tilde(catalog.belt_link(2), 3)
