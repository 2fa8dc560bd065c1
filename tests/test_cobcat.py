import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from lasagna import cobcat
from lasagna.cobcat import (
    KHOVANOV,
    LEE,
    Component,
    Cobordism,
    FlatTangle,
    FrobeniusSpec,
    MorphismCombo,
    _canon,
    _reduce_cobordism,
    cap,
    cup,
    deloop_maps,
    deloop_split,
    elementary_saddle,
    identity_cobordism,
    reduce,
)
from lasagna.lee import ClosedSurface, eval_closed_surface


def circle(tag="c"):
    return FlatTangle((), [tag])


def test_identity_composition():
    t = FlatTangle([{1, 2}, {3, 4}])
    ident = MorphismCombo.from_cobordism(identity_cobordism(t))
    saddle = MorphismCombo.from_cobordism(
        elementary_saddle(t, FlatTangle([{1, 4}, {2, 3}]), t.arcs,
                          FlatTangle([{1, 4}, {2, 3}]).arcs)
    )
    assert ident.then(saddle, KHOVANOV) == saddle
    assert saddle.then(MorphismCombo.from_cobordism(
        identity_cobordism(FlatTangle([{1, 4}, {2, 3}]))), KHOVANOV) == saddle


def test_sphere_relations():
    t0 = FlatTangle(())
    # cup then cap on the empty tangle: closed undotted sphere = 0
    k = MorphismCombo.from_cobordism(cup(t0, "c")).then(
        MorphismCombo.from_cobordism(cap(circle("c"), "c")),
        KHOVANOV,
    )
    assert k.as_scalar() == 0
    k2 = MorphismCombo.from_cobordism(cup(t0, "c")).then(
        MorphismCombo.from_cobordism(cap(circle("c"), "c", dotted=True)),
        KHOVANOV,
    )
    assert k2.as_scalar() == 1


def cup_m(dotted=False, tag="c"):
    return MorphismCombo.from_cobordism(cup(FlatTangle(()), tag, dotted=dotted))


def cap_m(dotted=False, tag="c"):
    return MorphismCombo.from_cobordism(cap(circle(tag), tag, dotted=dotted))


def test_twice_dotted_component():
    two_dots = cup_m(dotted=True).then(cap_m(dotted=True), KHOVANOV)
    assert two_dots.as_scalar() == 0  # c = 0: x^2 = 0
    two_dots_lee = cup_m(dotted=True).then(cap_m(dotted=True), LEE)
    assert two_dots_lee.as_scalar() == 0  # eps(x^2) = c * eps(1) = 0
    half = FrobeniusSpec(Fraction(1, 2))
    tube_cut = cup_m(dotted=True).then(cap_m(dotted=True), half)
    assert tube_cut.as_scalar() == 0


def test_closed_torus_evaluates_to_two_for_any_c():
    for spec in (KHOVANOV, LEE, FrobeniusSpec(Fraction(7, 3))):
        # build a torus: cup, then a handle via pants pair, then cap.
        t = circle()
        pants_split = MorphismCombo.from_cobordism(
            Cobordism(t, FlatTangle((), ["c", "d"]),
                      [Component(frozenset({("s", "c"), ("t", "c"), ("t", "d")}), 0, 0)])
        )
        pants_merge = MorphismCombo.from_cobordism(
            Cobordism(FlatTangle((), ["c", "d"]), t,
                      [Component(frozenset({("s", "c"), ("s", "d"), ("t", "c")}), 0, 0)])
        )
        torus = cup_m().then(pants_split, spec).then(pants_merge, spec).then(cap_m(), spec)
        assert torus.as_scalar() == 2, spec


def test_reduce_matches_lee_oracle_on_random_closed_surfaces():
    rng = random.Random(7)
    for spec in (KHOVANOV, LEE):
        for _ in range(30):
            comps = tuple(
                (rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 3))
            )
            cob = Cobordism(
                FlatTangle(()),
                FlatTangle(()),
                [Component(frozenset(), d, g) for g, d in comps],
            )
            val = reduce(MorphismCombo.from_cobordism(cob), spec).as_scalar()
            oracle = eval_closed_surface(ClosedSurface(comps, spec.c))
            assert val == oracle, (comps, spec)


def test_reduce_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        comps = [
            Component(frozenset(), rng.randint(0, 3), rng.randint(0, 2))
            for _ in range(rng.randint(1, 3))
        ]
        cob = Cobordism(FlatTangle(()), FlatTangle(()), comps)
        m = MorphismCombo.from_cobordism(cob, Fraction(rng.randint(-3, 3), 1))
        once = reduce(m, KHOVANOV)
        twice = reduce(once, KHOVANOV)
        assert once == twice


def test_deloop_identities():
    t = circle()
    for spec in (KHOVANOV, LEE):
        (out_p, in_p), (out_m, in_m) = deloop_maps(t, "c", spec)
        assert in_p.then(out_p, spec).as_scalar() == 1
        assert in_m.then(out_m, spec).as_scalar() == 1
        assert in_p.then(out_m, spec).as_scalar() == 0
        assert in_m.then(out_p, spec).as_scalar() == 0
        # in.out summed is the identity tube (neck-cutting), in normal form
        total = out_p.then(in_p, spec) + out_m.then(in_m, spec)
        assert total == reduce(
            MorphismCombo.from_cobordism(identity_cobordism(t)), spec
        )
        assert len(total.terms) == 2


def _random_flat_tangles(rng, points):
    """Random planar matchings of 2k points arranged on a line."""
    def rec(pts):
        if not pts:
            return [[]]
        out = []
        first = pts[0]
        for i in range(1, len(pts), 2):
            inner = rec(pts[1:i])
            outer = rec(pts[i + 1:])
            for a in inner:
                for b in outer:
                    out.append([{first, pts[i]}] + a + b)
        return out
    all_matchings = rec(points)
    return FlatTangle(rng.choice(all_matchings))


def test_compose_associative_random():
    rng = random.Random(3)
    pts = list(range(6))
    for _ in range(40):
        a = _random_flat_tangles(rng, pts)
        b = _random_flat_tangles(rng, pts)
        c_ = _random_flat_tangles(rng, pts)
        d_ = _random_flat_tangles(rng, pts)
        f = MorphismCombo.from_cobordism(_connect(a, b), Fraction(rng.randint(1, 3)))
        g = MorphismCombo.from_cobordism(_connect(b, c_))
        h = MorphismCombo.from_cobordism(_connect(c_, d_), Fraction(rng.randint(-2, -1)))
        lhs = f.then(g, KHOVANOV).then(h, KHOVANOV)
        rhs = f.then(g.then(h, KHOVANOV), KHOVANOV)
        assert lhs == rhs


def _connect(a: FlatTangle, b: FlatTangle) -> Cobordism:
    """The cobordism whose components are the connectivity classes of a->b."""
    nodes = [("s", k) for k in a.keys()] + [("t", k) for k in b.keys()]
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    s_at = {p: arc for arc in a.arcs for p in arc}
    t_at = {p: arc for arc in b.arcs for p in arc}
    for p in s_at:
        union(("s", s_at[p]), ("t", t_at[p]))
    groups = {}
    for n in nodes:
        groups.setdefault(find(n), set()).add(n)
    comps = [Component(frozenset(g), 0, 0) for g in groups.values()]
    return Cobordism(a, b, comps)


def _random_cobordism(rng, source, target, loop_side):
    """Boundary circles of source -> target grouped at random into components.

    Components get 0-2 dots and genus 0-1; the circle of the loop "c" on
    `loop_side` is alone on its component in about half of the draws.
    """
    circles = [set(c.nodes) for c in _connect(source, target).comps]
    loop = (loop_side, "c")
    comps = []
    rng.shuffle(circles)
    if rng.random() < 0.5:
        circles.remove({loop})
        comps.append(Component(frozenset({loop}), rng.randint(0, 2), rng.randint(0, 1)))
    while circles:
        take = rng.randint(1, min(3, len(circles)))
        nodes = frozenset().union(*circles[:take])
        circles = circles[take:]
        comps.append(Component(nodes, rng.randint(0, 2), rng.randint(0, 1)))
    return Cobordism(source, target, comps)


@pytest.mark.parametrize("spec", [KHOVANOV, LEE], ids=["c=0", "c=1"])
def test_deloop_split_equals_composing_with_deloop_maps(spec, monkeypatch):
    """Both summands equal composing with the maps of `deloop_maps`.

    Each combo is split twice: as drawn, from fresh cobordisms not known to
    be normal (shared holders, genus, two dots), each reduced once before it
    is split; then reduced, which is split as it is and reduces nothing.
    """
    rng = random.Random(5)
    pts = list(range(4))
    reduced = []
    reduce_cobordism = cobcat._reduce_cobordism

    def counting(cob, spec):
        reduced.append(cob)
        return reduce_cobordism(cob, spec)

    seen, routes = set(), set()
    for _ in range(60):
        a = _random_flat_tangles(rng, pts)
        b = _random_flat_tangles(rng, pts)
        if rng.random() < 0.5:
            b = b.with_loop("d")
        for side in ("t", "s"):
            src, tgt = (a, b.with_loop("c")) if side == "t" else (b.with_loop("c"), a)
            m = MorphismCombo(src, tgt)
            for _ in range(rng.randint(1, 3)):
                cob = _random_cobordism(rng, src, tgt, side)
                m = m + MorphismCombo.from_cobordism(cob, rng.choice([1, -2, Fraction(1, 3)]))
                holder = next(c for c in cob.comps if (side, "c") in c.nodes)
                seen.add("alone" if len(holder.nodes) == 1 else "shared")
                seen.add("genus" if holder.genus else "disk")
            (out_p, in_p), (out_m, in_m) = deloop_maps(tgt if side == "t" else src, "c", spec)
            if side == "t":
                expected = (m.then(out_p, spec), m.then(out_m, spec))
            else:
                expected = (in_p.then(m, spec), in_m.then(m, spec))
            for route in ("reduce", "split"):
                f = m if route == "reduce" else reduce(m, spec)
                assert all(cob.normal == (route == "split") for cob in f.terms)
                del reduced[:]
                with monkeypatch.context() as mp:
                    mp.setattr(cobcat, "_reduce_cobordism", counting)
                    split = deloop_split(f, side, "c", spec)
                assert split == expected
                assert len(reduced) == (len(f.terms) if route == "reduce" else 0)
                assert all(cob.normal for summand in split for cob in summand.terms)
                if any(summand.terms for summand in split):
                    routes.add(route)
    assert seen == {"alone", "shared", "genus", "disk"}
    assert routes == {"reduce", "split"}


def test_domain_mismatch_raises():
    f = cup_m()
    with pytest.raises(ValueError, match="mismatch"):
        f.then(f, KHOVANOV)


@dataclass(frozen=True)
class _ReferenceComponent:
    """The value semantics Component must keep: a frozen dataclass."""

    nodes: frozenset
    dots: int
    genus: int


def _random_node_sets(rng):
    """Disjoint node sets: arc nodes and loop nodes on both sides, plus closed ones."""
    pts = list(range(2 * rng.randint(0, 4)))
    rng.shuffle(pts)
    arcs = [frozenset(pts[i:i + 2]) for i in range(0, len(pts), 2)]
    nodes = [(side, a) for a in arcs for side in "st" if rng.random() < 0.8]
    nodes += [(side, f"l{i}") for i in range(rng.randint(0, 3)) for side in "st"
              if rng.random() < 0.7]
    nodes += [(side, (i, "x")) for i in range(rng.randint(0, 2)) for side in "st"]
    rng.shuffle(nodes)
    sets = []
    while nodes:
        take = rng.randint(1, 3)
        sets.append(frozenset(nodes[:take]))
        nodes = nodes[take:]
    return sets + [frozenset()] * rng.randint(1, 3)


def test_component_matches_frozen_dataclass_reference():
    rng = random.Random(17)
    for _ in range(150):
        sets = _random_node_sets(rng)
        values = [(ns, rng.randint(0, 2), rng.randint(0, 1)) for ns in sets]
        comps = [Component(*v) for v in values]
        refs = [_ReferenceComponent(*v) for v in values]
        for c, r in zip(comps, refs):
            assert hash(c) == hash(r)
            assert repr(c) == repr(r).replace("_ReferenceComponent", "Component", 1)
            assert (c.nodes, c.dots, c.genus) == (r.nodes, r.dots, r.genus)
        pairs = list(zip(comps, refs))
        for _ in range(20):
            (c, r), (c2, r2) = rng.choice(pairs), rng.choice(pairs)
            assert (c == c2) == (r == r2)
            # same nodes, other dots or genus: unequal exactly when the reference is
            nd, ng = c.dots + rng.randint(0, 1), c.genus + rng.randint(0, 1)
            assert (c == Component(c.nodes, nd, ng)) == (r == _ReferenceComponent(r.nodes, nd, ng))
            assert c == Component(frozenset(c.nodes), c.dots, c.genus)
        shuffled = list(comps)
        rng.shuffle(shuffled)
        cob = Cobordism(FlatTangle(()), FlatTangle(()), shuffled)
        ordered = sorted(refs, key=lambda r: (min(map(_canon, r.nodes), default=""),
                                               r.dots, r.genus))
        assert [(c.nodes, c.dots, c.genus) for c in cob.comps] == [
            (r.nodes, r.dots, r.genus) for r in ordered]
        assert hash(cob) == hash(Cobordism(FlatTangle(()), FlatTangle(()), reversed(comps)))


def test_component_is_immutable():
    c = Component(frozenset({("s", "c")}), 1, 0)
    for name in ("nodes", "dots", "genus", "_key", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, 2)
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert (c.dots, c.genus) == (1, 0)
    assert c == Component(frozenset({("s", "c")}), 1, 0)


@pytest.mark.parametrize("spec", [KHOVANOV, LEE], ids=["c=0", "c=1"])
def test_reduce_returns_normal_cobordism_itself(spec):
    rng = random.Random(23)
    pts = list(range(4))
    normal = 0
    for _ in range(80):
        a = _random_flat_tangles(rng, pts)
        b = _random_flat_tangles(rng, pts).with_loop("c")
        raw = _random_cobordism(rng, a, b, "t")
        for cob, _coeff in reduce(MorphismCombo.from_cobordism(raw), spec).terms.items():
            [(same, coeff)] = _reduce_cobordism(cob, spec)
            assert same is cob and coeff == 1
            normal += 1
        ident = identity_cobordism(a)  # loop-free: every tube bounds one circle
        assert _reduce_cobordism(ident, spec)[0][0] is ident
        if any(c.genus or c.dots >= 2 for c in raw.comps):
            assert all(out is not raw for out, _ in _reduce_cobordism(raw, spec))
    assert normal >= 20


def test_without_loop_equals_rebuilt_tangle():
    rng = random.Random(29)
    for _ in range(40):
        t = _random_flat_tangles(rng, list(range(2 * rng.randint(0, 3))))
        loops = [f"l{i}" for i in range(rng.randint(1, 3))] + [(0, "x")]
        for loop in loops:
            t = t.with_loop(loop)
        loop = rng.choice(loops)
        out = t.without_loop(loop)
        ref = FlatTangle(t.arcs, t.loops - {loop})
        assert out == ref and hash(out) == hash(ref) and repr(out) == repr(ref)
        assert out.arcs == t.arcs and loop not in out.loops
        assert {ref: 1}[out] == 1
        with pytest.raises(ValueError, match="no such loop"):
            out.without_loop(loop)
