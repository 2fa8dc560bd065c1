import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from lasagna import catalog
from lasagna.cobcat import (
    KHOVANOV,
    LEE,
    Cobordism,
    Component,
    FlatTangle,
    MorphismCombo,
    closure_circles,
    elementary_saddle,
    identity_cobordism,
    reduce,
)
from lasagna.complexes import (
    BigradedComplex,
    ComplexError,
    glue_cobordism,
    glue_tangle,
    planar_tensor,
    tangle_gluing,
)
from lasagna.diagram import parse_diagram
from lasagna.gradings import DimTable, Grading
from lasagna.khovanov import kh_dims_bruteforce, scan_complex

from helpers import copied, euler_characteristic, r1_kink, verify_d_squared


def unknot_complex():
    c = BigradedComplex(KHOVANOV)
    c.add_generator(Grading(0, 2), FlatTangle(()))
    c.add_generator(Grading(0, -2), FlatTangle(()))
    return c


def test_verify_d_squared_on_cubes():
    for d in [catalog.hopf_positive(), catalog.trefoil_right(), catalog.figure_eight()]:
        c = scan_complex(d, simplify=False)
        assert verify_d_squared(c)


def test_verify_d_squared_single_generator():
    c = BigradedComplex(KHOVANOV)
    c.add_generator(Grading(0, 0), FlatTangle(()))
    assert verify_d_squared(c)


def test_verify_d_squared_negative_control():
    c = scan_complex(catalog.hopf_positive(), simplify=False)
    gens = c.generators()
    # corrupt one existing entry by scaling it
    for s in gens:
        row = c.d.get(s, {})
        if row:
            t, m = next(iter(row.items()))
            # find a composable second arrow so the corruption matters
            if c.d.get(t, {}):
                c.set_entry(s, t, m.scale(2))
                assert not verify_d_squared(c)
                return
    raise AssertionError("no composable pair found in the Hopf cube")


def test_acyclic_pair_eliminates_to_empty():
    c = BigradedComplex(KHOVANOV)
    t = FlatTangle(())
    s = c.add_generator(Grading(0, 0), t)
    u = c.add_generator(Grading(2, 0), t)
    c.set_entry(s, u, MorphismCombo.from_cobordism(identity_cobordism(t)))
    c.gaussian_eliminate(s, u)
    assert not c.gens


def test_eliminate_requires_isomorphism():
    c = BigradedComplex(KHOVANOV)
    t = FlatTangle((), ["c"])
    s = c.add_generator(Grading(0, 0), t)
    u = c.add_generator(Grading(2, 0), t.without_loop("c"))
    from lasagna.cobcat import cap
    c.set_entry(s, u, MorphismCombo.from_cobordism(cap(t, "c")))
    with pytest.raises(ComplexError, match="isomorphism"):
        c.gaussian_eliminate(s, u)


def test_simplify_matches_dense_oracle_random():
    rng = random.Random(20240508)
    for _ in range(12):
        d = catalog.random_braid_diagram(rng, max_crossings=6)
        scan = scan_complex(d).simplify().homology_dims()
        dense = kh_dims_bruteforce(d)
        assert scan == dense, d.to_json_obj()


def test_elimination_order_independent():
    # eliminating in two different orders gives the same homology
    d = catalog.trefoil_right()
    c1 = scan_complex(d, simplify=False)
    c1.simplify()
    base = c1.homology_dims()
    c2 = scan_complex(d, simplify=True)
    assert c2.simplify().homology_dims() == base


def test_euler_invariant_under_simplify():
    for d in [catalog.trefoil_right(), catalog.figure_eight()]:
        c = scan_complex(d, simplify=False)
        before = euler_characteristic(c)
        c.simplify()
        assert euler_characteristic(c) == before


def test_homology_empty_complex():
    c = BigradedComplex(KHOVANOV)
    assert c.homology_dims() == DimTable()


def test_homology_unknot_convention():
    c = scan_complex(catalog.unknot())
    assert c.homology_dims() == DimTable({(0, 2): 1, (0, -2): 1})


def test_planar_tensor_with_unit_is_identity():
    unit = BigradedComplex.unit(KHOVANOV)
    c = scan_complex(catalog.trefoil_right()).simplify()
    t = planar_tensor(c, unit)
    assert t.homology_dims() == c.homology_dims()


def test_planar_tensor_disjoint_union_convolution():
    a = unknot_complex()
    b = unknot_complex()
    both = planar_tensor(a, b)
    assert both.homology_dims() == DimTable({(0, -4): 1, (0, 0): 2, (0, 4): 1})


def test_planar_tensor_associative_dims():
    rng = random.Random(5)
    ds = [catalog.random_braid_diagram(rng, 3) for _ in range(3)]
    cs = [scan_complex(d).simplify() for d in ds]
    left = planar_tensor(planar_tensor(cs[0], cs[1]), cs[2])
    right = planar_tensor(cs[0], planar_tensor(cs[1], cs[2]))
    assert left.homology_dims() == right.homology_dims()


def test_disjoint_eliminations_commute():
    # two disjoint invertible entries: eliminating in either order gives the
    # same dimension table
    from lasagna.cobcat import identity_cobordism

    def build():
        c = BigradedComplex(KHOVANOV)
        t = FlatTangle(())
        a = c.add_generator(Grading(0, 0), t)
        b = c.add_generator(Grading(2, 0), t)
        u = c.add_generator(Grading(0, 4), t)
        v = c.add_generator(Grading(2, 4), t)
        w = c.add_generator(Grading(0, 8), t)
        ident = MorphismCombo.from_cobordism(identity_cobordism(t))
        c.set_entry(a, b, ident)
        c.set_entry(u, v, ident.scale(3))
        return c, (a, b), (u, v)

    c1, p1, q1 = build()
    c1.gaussian_eliminate(*p1)
    c1.gaussian_eliminate(*q1)
    t1 = c1.homology_dims()
    c2, p2, q2 = build()
    c2.gaussian_eliminate(*q2)
    c2.gaussian_eliminate(*p2)
    assert t1 == c2.homology_dims() == DimTable({(0, 8): 1})


# -- the structural identity test and the maintained pivot set ----------------


@pytest.fixture(scope="module")
def unsimplified_scans():
    """(partial complexes, final delooped complexes) of unsimplified scans.

    The partial complexes carry open arcs and loops; built once, because
    T(3,4) takes seconds without simplification.
    """
    from lasagna import khovanov
    from lasagna.projector import twist_all_regions

    partial = []

    def recording(a, b, gluing=None, h2_min=None):
        c = planar_tensor(a, b, gluing, h2_min)
        partial.append(copied(c))
        return c

    diagrams = [
        catalog.trefoil_right(),
        catalog.figure_eight(),
        catalog.torus_link(3, 4),
        twist_all_regions(catalog.belt_link(2), 2),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(khovanov, "planar_tensor", recording)
        final = [scan_complex(d, simplify=False) for d in diagrams]
    return diagrams, partial, final


def _reference_invertible_scalar(m):
    """lambda when m is lambda times the normal form of identity_cobordism(source)."""
    if m.source != m.target or not m.terms:
        return None
    ident = reduce(identity_cobordism(m.source), [((), 1)], KHOVANOV)
    lam = next(iter(m.terms.values()))
    return lam if m == ident.scale(lam) and len(m.terms) == 1 else None


def _rescanned_pivots(c):
    return {
        (s, t) for s, row in c.d.items() for t, m in row.items() if m.invertible_scalar() is not None
    }


def test_invertible_scalar_matches_identity_comparison(unsimplified_scans):
    _, partial, final = unsimplified_scans
    outcomes = set()
    for c in partial + final:
        for row in c.d.values():
            for m in row.values():
                lam = m.invertible_scalar()
                assert lam == _reference_invertible_scalar(m)
                outcomes.add(lam is None)
    assert outcomes == {True, False}


def test_invertible_scalar_near_misses():
    t = FlatTangle([{1, 2}, {3, 4}])
    looped = t.with_loop("c")
    a, b = closure_circles(t, t)
    ident = identity_cobordism(t)

    def combo(src, tgt, *dotted, coeff=1):
        return MorphismCombo(src, tgt, {frozenset(dotted): coeff})

    cases = {
        "identity": (MorphismCombo.from_cobordism(ident), 1),
        "lambda != 1": (MorphismCombo.from_cobordism(ident, Fraction(-3, 2)), Fraction(-3, 2)),
        "dotted": (combo(t, t, a), None),
        "two terms": (combo(t, t) + combo(t, t, a, b), None),
        "zero": (MorphismCombo(t, t), None),
        "source != target": (MorphismCombo.from_cobordism(elementary_saddle(
            t, FlatTangle([{1, 4}, {2, 3}]), t.arcs, FlatTangle([{1, 4}, {2, 3}]).arcs)), None),
        # on a loop the identity tube neck-cuts into two terms; neither alone is a scalar
        "identity with a loop": (reduce(identity_cobordism(looped), [((), 1)], KHOVANOV), None),
        "one neck-cut term": (combo(looped, looped, frozenset({("s", "c")})), None),
        "undotted with a loop": (combo(looped, looped), None),
    }
    for name, (m, expected) in cases.items():
        assert m.invertible_scalar() == expected, name
        assert _reference_invertible_scalar(m) == expected, name


def _assert_pivot_index(c):
    """The pivots indexed by source and by target are the rescanned ones, on live generators."""
    rescanned = _rescanned_pivots(c)
    assert c.pivots == rescanned
    assert {(s, t) for t, sources in c.pivots_to.items() for s in sources} == rescanned
    assert c.pivots_from.keys() <= c.gens.keys() and c.pivots_to.keys() <= c.gens.keys()


def _simplify_every_scan(unsimplified_scans, monkeypatch, before, after):
    """Simplify the fixture's final complexes and rescan its diagrams, calling
    before(c, s, t) and after(c) around each elimination; returns their number."""
    diagrams, _, final = unsimplified_scans
    eliminate = BigradedComplex.gaussian_eliminate
    checked = []

    def checking(self, s, t):
        before(self, s, t)
        eliminate(self, s, t)
        after(self)
        checked.append((s, t))

    monkeypatch.setattr(BigradedComplex, "gaussian_eliminate", checking)
    for c in final:
        c = copied(c)
        after(c)
        c.simplify()
        assert not c.pivots
    for d in diagrams:
        # scanning with simplification: delooping and elimination on open tangles
        scan_complex(d)
    return len(checked)


def test_maintained_pivot_set_equals_rescan(unsimplified_scans, monkeypatch):
    for c in unsimplified_scans[1]:
        _assert_pivot_index(c)
    count = _simplify_every_scan(unsimplified_scans, monkeypatch, lambda c, s, t: None,
                                 _assert_pivot_index)
    assert count > 100


def test_popped_pivot_is_the_rescanned_minimum(unsimplified_scans, monkeypatch):
    def rescanned_min(c, s, t):
        def key(st):
            g = c.gens[st[0]][0]
            fill = (len(c.d_in[st[1]]) - 1) * (len(c.d[st[0]]) - 1)
            return (fill, g.h2, g.q2, *st)

        assert (s, t) == min(_rescanned_pivots(c), key=key)

    count = _simplify_every_scan(unsimplified_scans, monkeypatch, rescanned_min, lambda c: None)
    assert count > 100


# -- the fast paths against their general references ---------------------------


def _union(a, b):
    return FlatTangle(list(a.arcs) + list(b.arcs), list(a.loops) + list(b.loops))


def _glue_from_scratch(cob, pairs):
    """Glue a whole cobordism: glue_tangle on both ends, every component re-derived."""
    src, src_map = glue_tangle(cob.source, pairs)
    tgt, tgt_map = glue_tangle(cob.target, pairs)
    arc_at = {p: a for a in cob.source.arcs for p in a}
    comp_of = {n: i for i, c in enumerate(cob.comps) for n in c.nodes}
    parent = list(range(len(cob.comps)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p, q in pairs:
        parent[find(comp_of[("s", arc_at[p])])] = find(comp_of[("s", arc_at[q])])
    comps = []
    for root in {find(i) for i in range(len(cob.comps))}:
        members = [c for i, c in enumerate(cob.comps) if find(i) == root]
        glued = sum(1 for p, _ in pairs if find(comp_of[("s", arc_at[p])]) == root)
        nodes = frozenset((side, (src_map if side == "s" else tgt_map).get(k, k))
                          for c in members for side, k in c.nodes)
        chi = sum(2 - 2 * c.genus - _circle_count(cob.source, cob.target, c.nodes)
                  for c in members) - glued
        genus2 = 2 - _circle_count(src, tgt, nodes) - chi
        assert genus2 >= 0 and genus2 % 2 == 0
        comps.append(Component(nodes, sum(c.dots for c in members), genus2 // 2))
    return Cobordism(src, tgt, comps)


def _circle_count(source, target, nodes):
    """How many closure circles of (source, target) lie in a component's nodes."""
    return sum(1 for x in closure_circles(source, target) if x <= nodes)


def _disks(source, target, dots):
    """The normal term with dot set `dots` as components: one disk per closure circle."""
    return [Component(x, int(x in dots), 0) for x in closure_circles(source, target)]


def _tensor_from_scratch(a, b, pairs):
    """The Koszul-signed glued tensor built entry by entry, every term glued from scratch.

    Also checks that `glue_cobordism` on each term agrees with the from-scratch glue.
    """
    out = BigradedComplex(a.spec)
    index = {}
    for ga in a.generators():
        for gb in b.generators():
            (gr_a, t_a), (gr_b, t_b) = a.gens[ga], b.gens[gb]
            glued, _ = glue_tangle(_union(t_a, t_b), pairs)
            index[(ga, gb)] = out.add_generator(gr_a + gr_b, glued)
    for (ga, gb), gid in index.items():
        (gr_a, t_a), (_, t_b) = a.gens[ga], b.gens[gb]
        sign = -1 if (gr_a.h2 // 2) % 2 else 1
        moves = [((ta, gb), m, reduce(identity_cobordism(t_b), [((), 1)], a.spec))
                 for ta, m in a.d[ga].items()]
        moves += [((ga, tb), reduce(identity_cobordism(t_a), [((), sign)], a.spec), m)
                  for tb, m in b.d[gb].items()]
        for key, ma, mb in moves:
            src_t, tgt_t = _union(ma.source, mb.source), _union(ma.target, mb.target)
            entry = MorphismCombo(glue_tangle(src_t, pairs)[0], glue_tangle(tgt_t, pairs)[0])
            for ca, va in ma.terms.items():
                for cb, vb in mb.terms.items():
                    comps = _disks(ma.source, ma.target, ca) + _disks(mb.source, mb.target, cb)
                    cob = _glue_from_scratch(Cobordism(src_t, tgt_t, comps), pairs)
                    fast, _ = glue_cobordism(tuple(comps), tangle_gluing(src_t, pairs),
                                             tangle_gluing(tgt_t, pairs))
                    assert Counter(fast.comps) == Counter(cob.comps)
                    entry = entry + reduce(cob, [((), va * vb)], a.spec)
            old = out.entry(gid, index[key])
            out.set_entry(gid, index[key], old + entry if old else entry)
    return out


def test_planar_tensor_matches_from_scratch_gluing(monkeypatch):
    from lasagna import khovanov
    from lasagna.projector import twist_all_regions

    sizes = []

    def checking(a, b, gluing=None, h2_min=None):
        c = planar_tensor(a, b, gluing, h2_min)
        ref = _tensor_from_scratch(a, b, list(gluing or []))
        assert c.gens == ref.gens
        assert c.d == ref.d
        sizes.append(sum(len(row) for row in c.d.values()))
        return c

    monkeypatch.setattr(khovanov, "planar_tensor", checking)
    scan_complex(catalog.torus_link(3, 4))
    scan_complex(twist_all_regions(catalog.belt_link(2), 1))
    # a kink glues two points of one crossing: a component glued to itself
    kinked = r1_kink(catalog.trefoil_right(), catalog.trefoil_right().edges[0], 1)
    scan_complex(kinked)
    assert len(sizes) == 14 and sum(sizes) > 100


@pytest.mark.parametrize("spec", [KHOVANOV, LEE], ids=["c=0", "c=1"])
def test_planar_tensor_memo_matches_unmemoized_reference(spec, monkeypatch):
    """Every entry equals the term-by-term glue-and-reduce reference.

    a has a saddle p -> r and a second generator q on p's tangle; b has the
    same saddle from u and from w, both on one tangle.  So each factor
    cobordism meets the same other tangle for several generator pairs and
    is glued once, and b's saddle glued against p's tangle serves p in
    h = 0 and q in h = 1: Koszul signs of both parities from one glue.
    """
    from lasagna import complexes
    from lasagna.khovanov import crossing_complex

    def saddle_and_tangles(ci):
        piece = crossing_complex(ci, 1, spec)
        (g0, (_, res0)), (g1, (_, res1)) = sorted(piece.gens.items())
        return piece.entry(g0, g1), res0, res1

    saddle_a, res0_a, res1_a = saddle_and_tangles(0)
    a = BigradedComplex(spec)
    p, q = a.add_generator(Grading(0, 2), res0_a), a.add_generator(Grading(2, 4), res0_a)
    r = a.add_generator(Grading(2, 4), res1_a)
    a.set_entry(p, r, saddle_a)
    saddle_b, res0_b, res1_b = saddle_and_tangles(1)
    b = BigradedComplex(spec)
    u, w = b.add_generator(Grading(0, 0), res0_b), b.add_generator(Grading(0, 2), res0_b)
    x = b.add_generator(Grading(2, 2), res1_b)
    b.set_entry(u, x, saddle_b)
    b.set_entry(w, x, saddle_b.scale(-2))

    glued = []
    glue_cobordism = complexes.glue_cobordism

    def counting(comps, src, tgt):
        glued.append(comps)
        return glue_cobordism(comps, src, tgt)

    monkeypatch.setattr(complexes, "glue_cobordism", counting)
    pairs = [((0, 2), (1, 0)), ((0, 3), (1, 1))]  # closes a loop in res0 (x) res0
    c = planar_tensor(a, b, pairs)
    ref = _tensor_from_scratch(a, b, pairs)
    assert c.gens == ref.gens
    assert c.d == ref.d
    # 3 terms of d_a (x) id and 6 of id (x) d_b; one glue per (saddle, other tangle)
    assert len(glued) == 4
    # generator (ga, gb) of the tensor is 3 * ga + gb; q's id (x) d_b entries negate p's
    for v in (u, w):
        assert c.entry(3 * q + v, 3 * q + x) == -c.entry(3 * p + v, 3 * p + x)
    assert any(len(m.terms) > 1 for row in c.d.values() for m in row.values())


def _assert_dot_set_entries(c) -> int:
    """Every term of every entry is a set of closure circles of its entry; returns the term count."""
    count = 0
    for row in c.d.values():
        for m in row.values():
            circles = set(closure_circles(m.source, m.target))
            for dots in m.terms:
                assert isinstance(dots, frozenset) and dots <= circles
                count += 1
    return count


@pytest.mark.parametrize("spec", [KHOVANOV, LEE], ids=["c=0", "c=1"])
def test_unsimplified_fixture_scans_store_dot_sets_on_closure_circles(spec, monkeypatch):
    """Every region-free fixture, scanned without simplification, after each step.

    t44 is left out: its unsimplified scan ends with 45,456 generators and
    takes about a minute.
    """
    from lasagna import khovanov

    terms = []

    def checking(a, b, gluing=None, h2_min=None):
        c = planar_tensor(a, b, gluing, h2_min)
        terms.append(_assert_dot_set_entries(c))
        return c

    monkeypatch.setattr(khovanov, "planar_tensor", checking)
    names = ["figure8", "hopf", "t22", "t24", "t26", "trefoil", "trefoil_left", "unknot",
             "unknot_fr3", "unlink2"]
    root = Path(__file__).resolve().parent.parent / "fixtures"
    for name in names:
        d = parse_diagram((root / f"{name}.json").read_text())
        assert not d.regions
        c = scan_complex(d, spec, simplify=False)
        terms.append(_assert_dot_set_entries(c))
    assert sum(terms) > 1000


@pytest.mark.parametrize("name", ["T(4,4)", "belt_link(4) twisted once", "Lee T(3,3)"])
def test_scan_keeps_every_entry_in_normal_form(name, monkeypatch):
    """The precondition of splitting terms when delooping, after each scan step."""
    from lasagna import khovanov
    from lasagna.projector import twist_all_regions

    diagram, spec = {
        "T(4,4)": (catalog.torus_link(4, 4), KHOVANOV),
        "belt_link(4) twisted once": (twist_all_regions(catalog.belt_link(4), 1), KHOVANOV),
        "Lee T(3,3)": (catalog.torus_link(3, 3), LEE),
    }[name]
    steps, terms = [], []
    simplify = BigradedComplex.simplify

    def tensor_checking(a, b, gluing=None, h2_min=None):
        c = planar_tensor(a, b, gluing, h2_min)
        terms.append(_assert_dot_set_entries(c))
        return c

    def simplify_checking(self, *args):
        simplify(self, *args)
        terms.append(_assert_dot_set_entries(self))
        steps.append(len(self.gens))
        return self

    monkeypatch.setattr(khovanov, "planar_tensor", tensor_checking)
    monkeypatch.setattr(BigradedComplex, "simplify", simplify_checking)
    khovanov.scan_complex(diagram, spec)
    assert len(steps) == len(diagram.crossings) and max(steps) > 4 and sum(terms) > 100


def _eliminate_by_composition(c, s, t):
    """Gaussian elimination composing through lambda^-1 * identity, then negating."""
    from lasagna.linalg import inverse

    lam = c.entry(s, t).invertible_scalar()
    inv_map = MorphismCombo.from_cobordism(identity_cobordism(c.gens[t][1]), inverse(lam))
    ins = [(u, c.d[u][t]) for u in c.d_in[t] if u != s]
    outs = [(v, f) for v, f in c.d[s].items() if v != t]
    c._drop_generator(s)
    c._drop_generator(t)
    for u, a in ins:
        for v, b in outs:
            corr = a.then(inv_map, c.spec).then(b, c.spec).scale(-1)
            old = c.entry(u, v)
            c.set_entry(u, v, old + corr if old else corr)
    return lam, len(ins) * len(outs)


@pytest.mark.parametrize("spec", [KHOVANOV, LEE], ids=["c=0", "c=1"])
def test_scaled_elimination_equals_composing_with_inverse_identity(spec, monkeypatch):
    eliminate = BigradedComplex.gaussian_eliminate
    lams = []
    pairs = []

    def checking(self, s, t):
        ref = copied(self)
        lam, n = _eliminate_by_composition(ref, s, t)
        eliminate(self, s, t)
        assert self.gens == ref.gens
        assert self.d == ref.d
        lams.append(lam)
        pairs.append(n)

    monkeypatch.setattr(BigradedComplex, "gaussian_eliminate", checking)
    scan_complex(catalog.torus_link(3, 4), spec)
    assert sum(pairs) > 20
    assert any(abs(lam) != 1 for lam in lams)  # a non-unit inverse is exercised


def test_elimination_divides_by_a_non_unit_pivot():
    # u -> t (3 id), s -> t (2 id), s -> v (5 id): the zig-zag leaves u -> v = -3 * 5 / 2 id
    t = FlatTangle([{1, 2}])
    c = BigradedComplex(KHOVANOV)
    u, s = c.add_generator(Grading(0, 0), t), c.add_generator(Grading(0, 0), t)
    tt, v = c.add_generator(Grading(2, 0), t), c.add_generator(Grading(2, 0), t)
    ident = identity_cobordism(t)
    for src, tgt, lam in ((u, tt, 3), (s, tt, 2), (s, v, 5)):
        c.set_entry(src, tgt, MorphismCombo.from_cobordism(ident, lam))
    ref = copied(c)
    _eliminate_by_composition(ref, s, tt)
    c.gaussian_eliminate(s, tt)
    assert c.d == ref.d
    assert c.entry(u, v) == MorphismCombo.from_cobordism(ident, Fraction(-15, 2))
