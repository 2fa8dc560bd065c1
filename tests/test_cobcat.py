import copy
import pickle
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
    _neck_cut,
    cap,
    closure_circles,
    cup,
    deloop_maps,
    deloop_split,
    identity_cobordism,
    reduce,
)
from lasagna.lee import ClosedSurface, _trace_component, eval_closed_surface

from helpers import boundary_walk, elementary_saddle, from_cobordism


def circle(tag="c"):
    return FlatTangle((), [tag])


def test_identity_composition():
    t = FlatTangle([{1, 2}, {3, 4}])
    ident = from_cobordism(identity_cobordism(t))
    saddle = from_cobordism(
        elementary_saddle(t, FlatTangle([{1, 4}, {2, 3}]), t.arcs,
                          FlatTangle([{1, 4}, {2, 3}]).arcs)
    )
    assert ident.then(saddle, KHOVANOV) == saddle
    assert saddle.then(from_cobordism(
        identity_cobordism(FlatTangle([{1, 4}, {2, 3}]))), KHOVANOV) == saddle


def test_sphere_relations():
    t0 = FlatTangle(())
    # cup then cap on the empty tangle: closed undotted sphere = 0
    k = from_cobordism(cup(t0, "c")).then(
        from_cobordism(cap(circle("c"), "c")),
        KHOVANOV,
    )
    assert k.as_scalar() == 0
    k2 = from_cobordism(cup(t0, "c")).then(
        from_cobordism(cap(circle("c"), "c", dotted=True)),
        KHOVANOV,
    )
    assert k2.as_scalar() == 1


def cup_m(dotted=False, tag="c"):
    return from_cobordism(cup(FlatTangle(()), tag, dotted=dotted))


def cap_m(dotted=False, tag="c"):
    return from_cobordism(cap(circle(tag), tag, dotted=dotted))


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
        pants_split = reduce(
            Cobordism(t, FlatTangle((), ["c", "d"]),
                      [Component(frozenset({("s", "c"), ("t", "c"), ("t", "d")}), 0, 0)]),
            [((), 1)], spec)
        pants_merge = reduce(
            Cobordism(FlatTangle((), ["c", "d"]), t,
                      [Component(frozenset({("s", "c"), ("s", "d"), ("t", "c")}), 0, 0)]),
            [((), 1)], spec)
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
            val = reduce(cob, [((), 1)], spec).as_scalar()
            oracle = eval_closed_surface(ClosedSurface(comps, spec.c))
            assert val == oracle, (comps, spec)


def test_reduce_idempotent():
    """Each term of a normal form, drawn as its disks, reduces to itself."""
    rng = random.Random(11)
    pts = list(range(4))
    for _ in range(25):
        a = _random_flat_tangles(rng, pts)
        b = _random_flat_tangles(rng, pts).with_loop("c")
        once = reduce(_random_cobordism(rng, a, b, "t"), [((), Fraction(rng.randint(-3, 3)))], KHOVANOV)
        twice = MorphismCombo(a, b)
        for dots, coeff in once.terms.items():
            disks = [Component(x, int(x in dots), 0) for x in closure_circles(a, b)]
            twice = twice + reduce(Cobordism(a, b, disks), [((), coeff)], KHOVANOV)
        assert once == twice


@pytest.mark.parametrize("spec", [KHOVANOV, LEE], ids=["c=0", "c=1"])
def test_reduce_adds_dots_like_dotted_components(spec):
    """Each (added, coeff) of raw equals reducing the cobordism with those dots drawn on."""
    rng = random.Random(11)
    pts = list(range(4))
    for _ in range(40):
        a = _random_flat_tangles(rng, pts)
        b = _random_flat_tangles(rng, pts).with_loop("c")
        cob = _random_cobordism(rng, a, b, "t")
        raw = [([rng.randrange(len(cob.comps)) for _ in range(rng.randint(0, 3))],
                rng.choice([1, -2, Fraction(1, 3)])) for _ in range(rng.randint(1, 3))]
        expected = MorphismCombo(a, b)
        for added, coeff in raw:
            comps = [Component(c.nodes, c.dots + added.count(i), c.genus)
                     for i, c in enumerate(cob.comps)]
            expected = expected + reduce(Cobordism(a, b, comps), [((), coeff)], spec)
        assert reduce(cob, raw, spec) == expected


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
        assert total == reduce(identity_cobordism(t), [((), 1)], spec)
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
        f = from_cobordism(_connect(a, b), Fraction(rng.randint(1, 3)))
        g = from_cobordism(_connect(b, c_))
        h = from_cobordism(_connect(c_, d_), Fraction(rng.randint(-2, -1)))
        lhs = f.then(g, KHOVANOV).then(h, KHOVANOV)
        rhs = f.then(g.then(h, KHOVANOV), KHOVANOV)
        assert lhs == rhs


def _then_from_scratch(f, g, spec, seen):
    """f then g, each term pair's surface built from scratch, then reduced.

    A normal term is one disk per closure circle.  The disks of both terms
    merge where they share a middle node (a key of f.target); a middle arc
    is an interval and lowers chi by one, a middle loop is a circle and
    does not, so chi = disks - middle arcs.  Records in `seen` whether a
    surface had genus or a non-disk component.
    """
    a, b, c = f.source, f.target, g.target
    lower, upper = closure_circles(a, b), closure_circles(b, c)
    disks = lower + upper
    parent = list(range(len(disks)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, x in enumerate(lower):
        for j, y in enumerate(upper, len(lower)):
            if any(("s", k) in y for side, k in x if side == "t"):
                parent[find(i)] = find(j)
    outer = [{n for n in x if n[0] == ("s" if i < len(lower) else "t")} for i, x in enumerate(disks)]
    roots = {find(i) for i in range(len(disks))}
    total = MorphismCombo(a, c)
    for df, cf in f.terms.items():
        for dg, cg in g.terms.items():
            dotted = [x in (df if i < len(lower) else dg) for i, x in enumerate(disks)]
            comps = []
            for root in roots:
                members = [i for i in range(len(disks)) if find(i) == root]
                nodes = frozenset().union(*[outer[i] for i in members])
                arcs = sum(1 for i in members if i < len(lower)
                           for side, k in disks[i] if side == "t" and type(k) is frozenset)
                chi = len(members) - arcs
                bounds = sum(1 for x in closure_circles(a, c) if x <= nodes)
                genus2 = 2 - bounds - chi
                assert genus2 >= 0 and genus2 % 2 == 0
                dots = sum(dotted[i] for i in members)
                comps.append(Component(nodes, dots, genus2 // 2))
                if genus2:
                    seen.add("genus")
                if bounds != 1:
                    seen.add("neck")
            total = total + reduce(Cobordism(a, c, comps), [((), cf * cg)], spec)
    return total


def _random_terms(rng, source, target):
    """A combination of 1-3 random dot sets on the closure circles."""
    circles = closure_circles(source, target)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        dots = frozenset(x for x in circles if rng.random() < 0.3)
        terms[dots] = rng.choice([1, -2, 3, Fraction(1, 2)])
    return MorphismCombo(source, target, terms)


@pytest.mark.parametrize("spec", [KHOVANOV, LEE], ids=["c=0", "c=1"])
def test_then_matches_composing_from_scratch(spec):
    """`then` against the surface glued disk by disk over the middle tangle.

    The middle tangle has 0-2 loops, so spheres, tubes and handles occur.
    """
    rng = random.Random(11)
    pts = list(range(6))
    seen = set()
    for _ in range(80):
        a, b, c = (_random_flat_tangles(rng, pts) for _ in range(3))
        for loop in range(rng.randint(0, 2)):
            b = b.with_loop(f"m{loop}")
        if rng.random() < 0.3:
            a = a.with_loop("x")
        f, g = _random_terms(rng, a, b), _random_terms(rng, b, c)
        assert f.then(g, spec) == _then_from_scratch(f, g, spec, seen)
    assert seen == {"genus", "neck"}


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


def test_closure_circles_equal_the_walk_of_their_node_set():
    """`closure_circles` walks the two tangles' arcs; the reference walks their nodes."""
    rng = random.Random(31)
    loops = ["m", "n", ("loop", frozenset({frozenset({0, 1})})), (2, "x")]
    counts = set()
    for _ in range(120):
        pts = list(range(2 * rng.randint(0, 4)))
        a = FlatTangle(_random_flat_tangles(rng, pts).arcs, rng.sample(loops, rng.randint(0, 2)))
        b = FlatTangle(_random_flat_tangles(rng, pts).arcs, rng.sample(loops, rng.randint(0, 2)))
        nodes = frozenset([("s", k) for k in a.keys()] + [("t", k) for k in b.keys()])
        circles = closure_circles(a, b)
        assert len(set(circles)) == len(circles)
        assert set(circles) == set(boundary_walk(nodes))
        counts.add((len(a.loops) + len(b.loops), len(circles)))
    assert len(counts) > 10


def test_closure_circles_refuse_mismatched_points():
    arc = FlatTangle([(0, 1)])
    for source, target in ((arc, FlatTangle([(0, 2)])), (arc, FlatTangle((), ["m"])),
                           (FlatTangle([(0, 1), (2, 3)]), arc)):
        for a, b in ((source, target), (target, source)):
            with pytest.raises(ValueError, match="boundary points do not match"):
                closure_circles(a, b)


def _assert_walked(cob):
    """Each component of cob has the circles, no more, that the walk of its nodes finds."""
    for comp, circles in zip(cob.comps, cob.circles):
        assert len(set(circles)) == len(circles), comp
        assert set(circles) == set(boundary_walk(comp.nodes)), comp


def test_every_cobordism_gets_the_circles_of_the_boundary_walk():
    """Identities, caps, cups, saddles and any grouping of the closure
    circles into components read their boundary off `closure_circles`."""
    rng = random.Random(37)
    loops = ["m", "n", ("loop", frozenset({frozenset({0, 1})})), (2, "x")]
    shapes = set()
    for _ in range(60):
        pts = list(range(2 * rng.randint(2, 4)))
        a = FlatTangle(_random_flat_tangles(rng, pts).arcs, rng.sample(loops, rng.randint(1, 2)))
        b = FlatTangle(_random_flat_tangles(rng, pts).arcs, rng.sample(loops, rng.randint(1, 2)))
        loop = rng.choice(sorted(a.loops, key=repr))
        # a saddle on two arcs of a, reconnected the other way
        (p, q), (r, t) = (tuple(x) for x in rng.sample(sorted(a.arcs, key=sorted), 2))
        moved = [frozenset((p, q)), frozenset((r, t))]
        swapped = [frozenset((p, r)), frozenset((q, t))]
        saddle_target = FlatTangle(a.arcs - set(moved) | set(swapped), a.loops)
        circles = list(closure_circles(a, b))
        rng.shuffle(circles)
        comps = []
        while circles:
            take = rng.randint(1, min(3, len(circles)))
            comps.append(Component(frozenset().union(*circles[:take]), rng.randint(0, 1), 0))
            circles = circles[take:]
        for cob in (identity_cobordism(a), identity_cobordism(b), cap(a, loop, rng.random() < 0.5),
                    cup(a.without_loop(loop), loop), elementary_saddle(a, saddle_target, moved, swapped),
                    Cobordism(a, b, comps)):
            _assert_walked(cob)
            shapes.add(tuple(sorted(len(x) for x in cob.circles)))
    assert len(shapes) > 10


@pytest.mark.parametrize("case", ["split circle", "missing node", "foreign node", "shared node"])
def test_cobordism_refuses_components_that_do_not_partition_the_closure(case):
    a, b = FlatTangle([(0, 1), (2, 3)], ["m"]), FlatTangle([(0, 3), (1, 2)])
    [arcs] = [x for x in closure_circles(a, b) if len(x) == 4]
    loop = frozenset({("s", "m")})
    lower = frozenset(n for n in arcs if n[0] == "s")
    comps = {
        "split circle": [lower, arcs - lower, loop],
        "missing node": [arcs],
        "foreign node": [arcs, loop | {("t", "z")}],
        "shared node": [arcs, loop, loop],
    }[case]
    _assert_walked(Cobordism(a, b, [Component(arcs, 0, 0), Component(loop, 0, 0)]))
    with pytest.raises(ValueError, match="boundary points do not match the closure circles"):
        Cobordism(a, b, [Component(nodes, 0, 0) for nodes in comps])


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
def test_deloop_split_equals_composing_with_deloop_maps(spec):
    """Both summands equal composing with the maps of `deloop_maps`.

    Each combo is the normal form of random surfaces (the loop's circle on
    a component of its own or shared, with genus or two dots), then split.
    """
    rng = random.Random(5)
    pts = list(range(4))
    seen, split_terms = set(), 0
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
                m = m + reduce(cob, [((), rng.choice([1, -2, Fraction(1, 3)]))], spec)
                holder = next(c for c in cob.comps if (side, "c") in c.nodes)
                seen.add("alone" if len(holder.nodes) == 1 else "shared")
                seen.add("genus" if holder.genus else "disk")
            looped = tgt if side == "t" else src
            (out_p, in_p), (out_m, in_m) = deloop_maps(looped, "c", spec)
            if side == "t":
                expected = (m.then(out_p, spec), m.then(out_m, spec))
            else:
                expected = (in_p.then(m, spec), in_m.then(m, spec))
            split = deloop_split(m, side, "c", looped.without_loop("c"))
            assert split == expected
            split_terms += sum(len(summand.terms) for summand in split)
    assert seen == {"alone", "shared", "genus", "disk"}
    assert split_terms > 50


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


def test_component_is_immutable():
    c = Component(frozenset({("s", "c")}), 1, 0)
    for name in ("nodes", "dots", "genus", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, 2)
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert (c.dots, c.genus) == (1, 0)
    assert c == Component(frozenset({("s", "c")}), 1, 0)


def test_tangles_and_components_have_no_order():
    """Tuple order would compare their frozensets by inclusion, which is no total order."""
    small, big = FlatTangle([(0, 1)]), FlatTangle([(0, 1)], ["o"])
    comp = Component(frozenset({("s", "o")}), 0, 0)
    for x, y in ((small, big), (comp, comp)):
        for compare in (x.__lt__, x.__le__, x.__gt__, x.__ge__):
            with pytest.raises(TypeError):
                compare(y)
    with pytest.raises(TypeError):
        sorted([big, small])


@pytest.mark.parametrize("spec", [KHOVANOV, LEE], ids=["c=0", "c=1"])
def test_reduce_returns_normal_cobordism_itself(spec):
    """A normal cobordism reduces to its own dot set, which `from_cobordism`
    reads without reducing; any other surface `from_cobordism` rejects."""
    rng = random.Random(23)
    pts = list(range(4))
    rejected = 0
    for _ in range(80):
        a = _random_flat_tangles(rng, pts)
        b = _random_flat_tangles(rng, pts).with_loop("c")
        raw = _random_cobordism(rng, a, b, "t")
        if any(c.genus or c.dots > 1 or len(circles) > 1 for c, circles in zip(raw.comps, raw.circles)):
            with pytest.raises(ValueError, match="normal form"):
                from_cobordism(raw)
            rejected += 1
        for dots, coeff in reduce(raw, [((), 1)], spec).terms.items():
            disks = Cobordism(a, b, [Component(x, int(x in dots), 0) for x in closure_circles(a, b)])
            assert reduce(disks, [((), coeff)], spec).terms == {dots: coeff}
            assert from_cobordism(disks, coeff).terms == {dots: coeff}
    assert rejected >= 20


def _neck_cut_stepwise(circles, genus, dots, c):
    """One relation at a time, as {dotted circles: coefficient}: a handle is
    two terms with one more dot each, a surface with two or more circles is
    cut off its first one as a disk with a dot on either side, two dots are
    c, a dotted sphere is 1 and an undotted one 0."""
    out = {}
    pending = [((), tuple(circles), genus, dots, 1)]  # (dotted disks cut off, circles left, genus, dots, coeff)
    while pending:
        done, rest, g, d, w = pending.pop()
        if g:
            pending += [(done, rest, g - 1, d + 1, w)] * 2
        elif len(rest) >= 2:
            pending += [(done + rest[:1], rest[1:], 0, d, w), (done, rest[1:], 0, d + 1, w)]
        elif d >= 2:
            pending.append((done, rest, 0, d - 2, w * c))
        elif rest or d:
            key = frozenset(done + rest[:d])
            out[key] = out.get(key, 0) + w
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("c", [0, 1])
def test_neck_cut_matches_stepwise_neck_cutting(c):
    for b in range(5):
        for genus in range(3):
            for dots in range(4):
                closed_form = {}
                for s, w in _neck_cut(b, genus, dots, c):
                    closed_form[frozenset(s)] = closed_form.get(frozenset(s), 0) + w
                assert closed_form == _neck_cut_stepwise(range(b), genus, dots, c), (b, genus, dots)


@pytest.mark.parametrize("c", [0, 1, Fraction(7, 3)])
def test_neck_cut_of_a_closed_surface_is_its_trace(c):
    for genus in range(4):
        for dots in range(5):
            [(dotted, value)] = _neck_cut(0, genus, dots, c) or [((), 0)]
            assert dotted == () and value == _trace_component(genus, dots, Fraction(c))


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
        assert copy.deepcopy(out) == out == pickle.loads(pickle.dumps(out))
        with pytest.raises(ValueError, match="no such loop"):
            out.without_loop(loop)


def test_glued_disks_match_the_boundary_walk(monkeypatch):
    # glue reads a component's boundary off the closure circles its pieces
    # hold, without walking its nodes: every component glued during an rw
    # scan of belt_link(4) and a scan of T(4,4) has the circles that walking
    # its boundary finds
    from lasagna import catalog, complexes, khovanov, rw
    from lasagna.gradings import Window

    glue, glued = cobcat.glue, []

    def recording(pieces, joins, circles):
        out = glue(pieces, joins, circles)
        glued.append(out[0])
        return out

    monkeypatch.setattr(cobcat, "glue", recording)
    monkeypatch.setattr(complexes, "glue", recording)
    rw.rw_plus(catalog.belt_link(4), Window(h2_lo=-4, h2_hi=0, q2_lo=-16, q2_hi=0), k_max=2)
    khovanov.scan_complex(catalog.torus_link(4, 4))
    disks = 0
    for cob in glued:
        for comp, circles in zip(cob.comps, cob.circles):
            walk = boundary_walk(comp.nodes)
            assert set(circles) == set(walk), comp
            disks += len(walk) == 1 and comp.genus == 0
    assert disks > 0 and len(glued) > 100
