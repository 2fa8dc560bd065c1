import json

import pytest

from lasagna.gradings import (
    DimTable,
    Grading,
    Window,
    format_half,
    parse_half,
    parse_window,
)


def test_format_parse_half_roundtrip():
    for x2 in (-7, -2, 0, 1, 6):
        assert parse_half(format_half(x2)) == x2
    assert format_half(3) == "3/2"
    assert format_half(4) == "2"
    with pytest.raises(ValueError):
        parse_half("1/3")


def test_grading_arithmetic():
    g = Grading(2, -4)
    assert g.shift(1, 1) == Grading(3, -3)
    assert g.neg() == Grading(-2, 4)
    assert g + Grading(1, 1) == Grading(3, -3)
    assert str(Grading(1, -3)) == "(1/2,-3/2)"


def test_window_contains():
    w = Window(h2_lo=-2, h2_hi=4, q2_lo=None, q2_hi=0)
    assert w.contains(Grading(0, -10))
    assert not w.contains(Grading(6, 0))
    with pytest.raises(ValueError):
        Window(h2_lo=2, h2_hi=0)


def test_parse_window():
    w = parse_window("-1:0,-4:0")
    assert (w.h2_lo, w.h2_hi, w.q2_lo, w.q2_hi) == (-2, 0, -8, 0)
    w2 = parse_window("*:*,-3/2:*")
    assert w2.h2_lo is None and w2.q2_lo == -3
    with pytest.raises(ValueError):
        parse_window("1:2")


def test_dimtable_tsv_and_json_roundtrip():
    t = DimTable({Grading(0, -2): 1, Grading(1, -3): 2})
    data = json.loads(json.dumps(t.to_json_obj()))
    assert {"h": "0", "q": "-1", "dim": "1"} in data


def test_dimtable_operations():
    t = DimTable({(0, 2): 1, (0, -2): 1})
    assert t.convolve(t) == DimTable({(0, 4): 1, (0, 0): 2, (0, -4): 1})
    assert t.shift(2, 0) == DimTable({(2, 2): 1, (2, -2): 1})
    assert t.reflect() == t
    assert t.total() == 2
    assert t.euler() == {2: 1, -2: 1}
    with pytest.raises(ValueError):
        DimTable({(1, 1): 1}).euler()
    assert t.restrict(Window(q2_lo=0)) == DimTable({(0, 2): 1})
