import copy
import hashlib
import json
import os
import pickle
import random
from dataclasses import dataclass

import pytest

from lasagna import catalog
from lasagna.diagram import (
    DOWN,
    UP,
    Crossing,
    DiagramError,
    LinkDiagram,
    RegionStrand,
    SurgeryRegion,
    check_planar,
    crossing,
    parse_diagram,
)
from lasagna.projector import twist_all_regions

from helpers import disjoint_union, r1_kink, r2_poke

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_empty_diagram():
    d = parse_diagram(json.dumps({
        "edges": [], "crossings": [], "framing_points": [], "regions": [],
        "orientations": {},
    }))
    assert d.component_count == 0
    assert d.writhe() == 0


def test_unknot_single_closed_edge():
    d = catalog.unknot()
    assert d.component_count == 1
    assert d.writhe() == 0
    assert d.free_loops == ("a",)


def test_hopf_from_parse_roundtrip():
    d = catalog.hopf_positive()
    assert d.component_count == 2
    assert d.writhe() == 2
    d2 = parse_diagram(json.dumps(d.to_json_obj()))
    assert d2.to_json_obj() == d.to_json_obj()


def test_parse_errors_have_locations(tmp_path):
    with pytest.raises(DiagramError, match="missing field"):
        parse_diagram("{}")
    with pytest.raises(DiagramError, match="invalid JSON"):
        parse_diagram("{")
    bad = {
        "edges": ["a", "b"],
        "crossings": [{"e": ["a", "b", "b", "a"], "sign": 1}],
        "framing_points": [],
        "regions": [],
        "orientations": {"a": "up", "b": "up"},
    }
    # edge a enters twice (slots 0 and 3 are both heads for sign +1)
    with pytest.raises(DiagramError, match="a"):
        parse_diagram(json.dumps(bad))
    dangling = {
        "edges": ["a", "b", "c"],
        "crossings": [{"e": ["a", "a", "b", "b"], "sign": 1}],
        "framing_points": [],
        "regions": [],
        "orientations": {"a": "up", "b": "up", "c": "up"},
    }
    d = parse_diagram(json.dumps(dangling))  # a kink; c is a free loop: fine
    assert "c" in d.free_loops
    # each strand closing across the crossing onto its own other end: the two
    # loops meet once more in any plane
    dangling["crossings"] = [{"e": ["a", "b", "a", "b"], "sign": 1}]
    with pytest.raises(DiagramError, match="not planar: the piece of crossing 0"):
        parse_diagram(json.dumps(dangling))
    with pytest.raises(DiagramError, match="half-integer"):
        parse_diagram(json.dumps({
            "edges": ["a"], "crossings": [], "framing_points": [["a", 1.5]],
            "regions": [], "orientations": {"a": "up"},
        }))
    with pytest.raises(DiagramError, match="orientations: unknown edge 'z'"):
        parse_diagram(json.dumps({
            "edges": ["a"], "crossings": [], "framing_points": [],
            "regions": [], "orientations": {"a": "up", "z": "up"},
        }))
    with pytest.raises(DiagramError, match="edge 'a' missing from orientations"):
        parse_diagram(json.dumps({
            "edges": ["a"], "crossings": [], "framing_points": [],
            "regions": [], "orientations": {},
        }))
    with pytest.raises(DiagramError, match="orientations: edge 'a' must be 'up' or 'down'"):
        parse_diagram(json.dumps({
            "edges": ["a"], "crossings": [], "framing_points": [],
            "regions": [], "orientations": {"a": "left"},
        }))
    # belt11's down strand tagged up: twisting would sign its crossings by
    # the strand and tag its stub by the edge
    with open(os.path.join(FIXTURES, "belt11.json")) as fh:
        obj = json.load(fh)
    obj["orientations"]["belt1#1"] = "up"
    edited = tmp_path / "belt11_mistagged.json"
    edited.write_text(json.dumps(obj))
    with pytest.raises(DiagramError, match="region '1': strand on edge 'belt1#1' runs down, "
                                           "but the edge is tagged up"):
        parse_diagram(edited.read_text())


def test_writhe_framing_points():
    d = catalog.unknot_with_framing(-3)
    assert d.writhe() == -3
    assert d.mirror().writhe() == 3


def test_mirror_negates_and_is_involution():
    for d in [catalog.trefoil_right(), catalog.figure_eight(), catalog.hopf_positive()]:
        m = d.mirror()
        assert m.writhe() == -d.writhe()
        mm = m.mirror()
        assert mm.to_json_obj() == d.to_json_obj()


def test_mirror_trefoil_writhe():
    assert catalog.trefoil_right().writhe() == 3
    assert catalog.trefoil_right().mirror().writhe() == -3


def test_belt_link_and_add_belts():
    d = catalog.belt_link(1, 1)
    assert d.component_count == 2
    reg = d.region("1")
    assert reg.strand_count == 2
    assert reg.signed_transit == 0
    d2 = d.add_belts("1", 0, 0)
    assert d2.region("1").strand_count == 2
    d3 = d.add_belts("1", 2, 1)
    assert d3.region("1").signed_transit == 0 + 2 - 1


def test_insert_full_twists_t22():
    d = catalog.belt_link(2)  # both strands up
    t = d.insert_full_twists("1", 1)
    assert not t.regions
    assert len(t.crossings) == 2
    assert all(c.sign == 1 for c in t.crossings)
    assert t.writhe() == 2
    assert t.component_count == 2


def test_insert_full_twists_k0_gives_unlink():
    d = catalog.belt_link(2)
    t = d.insert_full_twists("1", 0)
    assert not t.regions
    assert not t.crossings
    assert t.component_count == 2


def test_insert_full_twists_t44_writhe():
    d = catalog.belt_link(4)
    t = d.insert_full_twists("1", 1)
    assert len(t.crossings) == 4 * 3 * 1
    assert t.writhe() == 12
    assert t.component_count == 4


def test_insert_full_twists_mixed_orientation_signs():
    d = catalog.belt_link(1, 1)
    t = d.insert_full_twists("1", 1)
    # antiparallel pair: both crossings negative, writhe -2
    assert len(t.crossings) == 2
    assert t.writhe() == -2


def test_twisted_orientations_name_exactly_the_edges():
    for d in (twist_all_regions(catalog.belt_link(4), 2),
              twist_all_regions(r1_kink(catalog.belt_link(1, 1), "belt1#1", 1), 2)):
        assert set(d.orientations) == set(d.edges)


def test_crossing_slot_order():
    # counterclockwise from the incoming under strand; the over strand
    # enters at slot 3 for sign +1 and at slot 1 for sign -1
    for sign, edges, closure in ((1, ("u", "o'", "u'", "o"), ("s1", "s1", "s0", "s0")),
                                 (-1, ("u", "o", "u'", "o'"), ("s0", "s1", "s1", "s0"))):
        x = crossing(("u", "u'"), ("o", "o'"), sign)
        assert x == Crossing(edges, sign)
        assert [x.edges[i] for i in x.in_slots] == ["u", "o"]
        assert x.mirror() == crossing(("o", "o'"), ("u", "u'"), -sign)
        # sigma_1^sign on two strands: the strand from position 1 ends at position 2
        assert catalog.braid_closure([sign], 2).crossings == (Crossing(closure, sign),)
        # a kink: each edge has its head and its tail at the crossing
        kink = LinkDiagram(["a", "b"], [crossing(("a", "b"), ("b", "a"), sign)])
        assert kink.head_slots() == {"a": (0, 0), "b": (0, x.in_slots[1])}
        with pytest.raises(DiagramError, match="inconsistently oriented"):
            LinkDiagram(["a", "b"], [crossing(("a", "b"), ("a", "b"), sign)])


# sha256 of every rewrite's output on the corpus below; a rewrite may change
# only when it means to, shows which outputs move, and records the re-pin in
# CHANGES.md (the rule of PIVOT_DIGEST in test_hash_seed.py)
REWRITE_DIGEST = "640dc03d2da37412e22516214ffeab112e0d17f849ff952077e2ad82c7b67cce"


def _rewrite_corpus():
    """Fixtures, twists, belt cables and braid closures: 925 diagrams."""
    for name in ("belt1", "belt11", "belt11_poke", "belt2", "belt4", "empty_s1s2",
                 "empty_s1s2_x2", "figure8", "hopf", "t22", "t24", "t26", "t44", "trefoil",
                 "trefoil_left", "trefoil_s1s2", "unknot", "unknot_fr3", "unlink2"):
        with open(os.path.join(FIXTURES, f"{name}.json")) as fh:
            d = parse_diagram(fh.read())
        yield d
        if d.regions:
            for k in (1, 2):
                yield twist_all_regions(d, k)
    for d in (catalog.belt_link(a, b) for a in range(4) for b in range(4) if a + b):
        strands = [s.edge for s in d.region("1").strands]
        # strands through outside crossings: a kink, a poke either way
        variants = [d, r1_kink(d, strands[0], 1), r1_kink(d, strands[-1], -1)]
        if len(strands) > 1:
            variants += [r2_poke(d, strands[0], strands[-1]), r2_poke(d, strands[-1], strands[0])]
        for v in variants:
            for k in range(4):
                yield v.insert_full_twists("1", k)
        for up in range(4):
            for down in range(4):
                yield catalog.encircle(d, "1", up, down)
    pairs = [catalog.empty_surgery(2).add_belts("1", a, b).add_belts("2", c, e)
             for a, b, c, e in ((2, 0, 1, 1), (1, 1, 3, 1), (2, 2, 0, 0), (0, 2, 2, 0))]
    pairs.append(disjoint_union(catalog.trefoil_right(), catalog.belt_link(2, 2)))
    for d in pairs:
        for k in range(1, 4):
            yield twist_all_regions(d, k)
        for up, down in ((1, 0), (0, 1), (1, 1), (2, 1)):
            out = d
            for r in d.regions:
                out, groups = catalog.encircle(out, r.region_id, up, down)
                yield out, groups
                up, down = down, up
    rng = random.Random(28)
    for _ in range(300):
        yield catalog.random_braid_diagram(rng)
    for n in range(2, 5):
        for m in range(1, 6):
            yield catalog.torus_link(n, m)


def test_rewrites_match_the_pinned_digest():
    h, count = hashlib.sha256(), 0
    for v in _rewrite_corpus():
        count += 1
        obj = [v[0].to_json_obj(), v[1]] if isinstance(v, tuple) else v.to_json_obj()
        h.update(json.dumps(obj).encode())
    assert count == 925
    assert h.hexdigest() == REWRITE_DIGEST


def test_component_count_invariant_under_twisting():
    for a, b in [(2, 0), (1, 1), (3, 1), (2, 2)]:
        d = catalog.belt_link(a, b)
        for k in (1, 2):
            t = d.insert_full_twists("1", k)
            assert t.component_count == d.component_count, (a, b, k)


def test_belts_then_twist_gives_t33_pattern():
    d = catalog.belt_link(2).add_belts("1", 1, 0)
    t = d.insert_full_twists("1", 1)
    assert len(t.crossings) == 3 * 2
    assert t.writhe() == 6
    assert t.component_count == 3


def test_transit_counts_after_add_belts():
    d = catalog.belt_link(2, 1)
    before = d.region("1").signed_transit
    for a, b in [(1, 0), (0, 2), (2, 3)]:
        d2 = d.add_belts("1", a, b)
        assert d2.region("1").signed_transit == before + a - b


def test_disjoint_union():
    d = disjoint_union(catalog.belt_link(2), catalog.belt_link(2))
    assert d.component_count == 4
    assert len(d.regions) == 2


def test_region_unknown():
    with pytest.raises(DiagramError, match="unknown region"):
        catalog.belt_link(2).insert_full_twists("nope", 1)
    with pytest.raises(DiagramError, match="unknown region"):
        catalog.belt_link(2).add_belts("nope", 1, 0)


# The value semantics Crossing, RegionStrand and SurgeryRegion must keep:
# frozen dataclasses with the same fields.


@dataclass(frozen=True)
class _RefCrossing:
    edges: tuple
    sign: int

    def mirror(self):
        e = self.edges
        if self.sign == 1:
            return _RefCrossing((e[3], e[0], e[1], e[2]), -1)
        return _RefCrossing((e[1], e[2], e[3], e[0]), 1)


@dataclass(frozen=True)
class _RefRegionStrand:
    edge: str
    direction: str


@dataclass(frozen=True)
class _RefSurgeryRegion:
    region_id: str
    strands: tuple


def _random_value_pairs(rng):
    """(value, reference) pairs over a small alphabet, so equal values recur."""
    def edge():
        return rng.choice("abcd")

    pairs = []
    for _ in range(6):
        edges, sign = tuple(edge() for _ in range(4)), rng.choice((1, -1))
        pairs.append((Crossing(edges, sign), _RefCrossing(edges, sign)))
    strands = []
    for _ in range(6):
        e, d = edge(), rng.choice((UP, DOWN))
        strands.append((RegionStrand(e, d), _RefRegionStrand(e, d)))
    pairs += strands
    for _ in range(6):
        rid, chosen = rng.choice("12"), rng.sample(strands, rng.randint(0, 2))
        pairs.append((SurgeryRegion(rid, tuple(v for v, _ in chosen)),
                      _RefSurgeryRegion(rid, tuple(r for _, r in chosen))))
    return pairs


def test_value_classes_match_frozen_dataclass_reference():
    rng = random.Random(31)
    for _ in range(60):
        pairs = _random_value_pairs(rng)
        for v, r in pairs:
            assert hash(v) == hash(r)
            assert repr(v) == repr(r).replace("_Ref", "")
            assert v == type(v)(**{f: getattr(v, f) for f in type(v).__slots__})
            assert v != r and v != tuple(getattr(r, f) for f in type(v).__slots__)
            assert copy.deepcopy(v) == v == pickle.loads(pickle.dumps(v))
            if isinstance(v, Crossing):
                m, rm = v.mirror(), r.mirror()
                assert type(m) is Crossing and (m.edges, m.sign) == (rm.edges, rm.sign)
                assert m.mirror() == v
            if isinstance(v, SurgeryRegion):
                assert v.strand_count == len(r.strands)
                assert v.signed_transit == sum(1 if s.direction == UP else -1 for s in r.strands)
        for _ in range(40):
            (v, r), (v2, r2) = rng.choice(pairs), rng.choice(pairs)
            assert (v == v2) == (r == r2)
            assert (v != v2) == (r != r2)


@pytest.mark.parametrize("value", [
    Crossing(("a", "b", "c", "d"), 1),
    RegionStrand("a", UP),
    SurgeryRegion("1", (RegionStrand("a", UP),)),
], ids=["crossing", "strand", "region"])
def test_value_classes_are_immutable(value):
    before = repr(value)
    for name in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 2)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(FIXTURES) if n.endswith(".json")))
def test_fixture_round_trip(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        text = fh.read()
    d = parse_diagram(text)
    assert d.to_json_obj() == json.loads(text)
    again = parse_diagram(json.dumps(d.to_json_obj()))
    assert again.crossings == d.crossings and again.regions == d.regions
    assert again.to_json_obj() == d.to_json_obj()


def test_planarity_accepts_catalog_and_cable_diagrams():
    from lasagna.projector import twist_all_regions

    for d in (
        catalog.torus_link(4, 4),
        twist_all_regions(catalog.belt_link(4), 3),  # 36 crossings
        disjoint_union(catalog.trefoil_right(), catalog.figure_eight()),
    ):
        check_planar(d)
    for r in (1, 2, 3):  # the colimit's stage cables of belt_link(2)
        check_planar(catalog.encircle(catalog.belt_link(2), "1", r, r)[0])


def test_package_names_resolve():
    import lasagna
    from lasagna import cobcat, diagram, gradings

    assert lasagna.__all__ == [
        "DiagramError", "DimTable", "FrobeniusSpec", "Grading", "KHOVANOV", "LEE",
        "LinkDiagram", "Window", "parse_diagram", "parse_window",
    ]
    assert lasagna.Grading is gradings.Grading
    assert lasagna.parse_window is gradings.parse_window
    namespace = {}
    exec("from lasagna import *", namespace)
    for name in lasagna.__all__:
        home = next(m for m in (diagram, gradings, cobcat) if hasattr(m, name))
        assert namespace[name] is getattr(home, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        lasagna.no_such_name
