"""The Frobenius-algebra kernel and the tabulated strong deformation retract of
densecube.TrackedReduction."""

import random
from fractions import Fraction

import pytest

from lasagna import catalog
from lasagna.cobmaps import birth_diagram, saddle_diagram
from lasagna.densecube import Cube, TrackedReduction, comult, counit, mult, times_x, unit
from lasagna.lee import _trace_component
from lasagna.skein import HandlebodySpec, build_stage

from helpers import full_reduction


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(5, 2)])
def test_frobenius_kernel_matches_closed_surface_traces(c):
    """eps(x^d (m o Delta)^g (1)) is the trace of a closed genus-g surface with
    d dots, which `lee` evaluates independently of the kernel."""

    def apply(op, vec: dict) -> dict:
        out: dict = {}
        for loc, k in vec.items():
            for loc2, k2 in op(loc, c):
                out[loc2] = out.get(loc2, 0) + k * k2
        return out

    for genus in range(4):
        for dots in range(4):
            v = apply(unit, {(): 1})
            for _ in range(genus):
                v = apply(mult, apply(comult, v))
            for _ in range(dots):
                v = apply(times_x, v)
            assert apply(counit, v).get((), 0) == _trace_component(genus, dots, c)


def _replay_project(log, v: dict) -> dict:
    """Reference: push one vector through every logged step, in log order."""
    v = dict(v)
    for s, t, lam, out_row, _ in log:
        ct = v.pop(t, Fraction(0))
        v.pop(s, None)
        if ct:
            for w, b in out_row.items():
                nv = v.get(w, Fraction(0)) - ct * b / lam
                if nv:
                    v[w] = nv
                else:
                    v.pop(w, None)
    return v


def _replay_include(log, z: dict) -> dict:
    """Reference: correct the source of every logged step, in reverse order."""
    z = dict(z)
    for s, t, lam, _, in_col in reversed(log):
        coeff = sum((z[u] * v for u, v in in_col.items() if u in z), Fraction(0))
        if coeff:
            nv = z.get(s, Fraction(0)) - coeff / lam
            if nv:
                z[s] = nv
            else:
                z.pop(s, None)
    return z


def _random_vector(rng, keys, size):
    return {k: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            for k in rng.sample(keys, min(size, len(keys)))}


def _winding_cubes():
    """Source and target of the reduction step of transition_down, belt_link(1)."""
    spec = HandlebodySpec(catalog.belt_link(1), (0,))
    hi, lo = build_stage(spec, 1), build_stage(spec, 0)
    [(grp_up, grp_down)] = hi.newest_pair.values()
    e_up, e_down = grp_up[0], grp_down[0]
    merged = saddle_diagram(hi.diagram, e_up, e_down)
    assert (e_up if e_up in merged.edges else e_down) not in merged.free_loops  # it winds
    return Cube(merged), Cube(birth_diagram(lo.diagram, "annih"))


@pytest.fixture(scope="module")
def reductions():
    r3 = [Cube(catalog.braid_closure([1, 2, 1, -1, 2], 3)),
          Cube(catalog.braid_closure([2, 1, 2, -1, 2], 3))]
    return [full_reduction(cube) for cube in r3 + list(_winding_cubes())]


def test_project_and_include_match_log_replay(reductions):
    rng = random.Random(4)
    assert all(tr.log for tr in reductions[:3])  # the split target has no crossing
    for tr in reductions:
        gens = list(tr.gens)
        alive = sorted(tr.alive, key=repr)
        for g in gens:
            assert tr.project({g: Fraction(1)}) == _replay_project(tr.log, {g: Fraction(1)})
        for a in alive:
            assert tr.include({a: Fraction(1)}) == _replay_include(tr.log, {a: Fraction(1)})
        for _ in range(30):
            v = _random_vector(rng, gens, rng.randint(1, 12))
            assert tr.project(v) == _replay_project(tr.log, v)
            z = _random_vector(rng, alive, rng.randint(1, 6))
            assert tr.include(z) == _replay_include(tr.log, z)


def test_retract_identities(reductions):
    for tr in reductions:
        cube = tr.cube
        for a in tr.alive:
            col = tr.include({a: Fraction(1)})
            assert tr.project(col) == {a: Fraction(1)}  # p o iota = id
            d_col: dict = {}
            for g, c in col.items():
                for t, w in cube.differential(g).items():
                    d_col[t] = d_col.get(t, Fraction(0)) + c * w
            assert not any(d_col.values())  # d o iota = 0
        for g in tr.gens:
            assert tr.project(cube.differential(g)) == {}  # p o d = 0


def test_returned_chains_are_fresh(reductions):
    tr = reductions[0]
    a = min(tr.alive, key=repr)
    removed = [g for g in tr.gens if g not in tr.alive]
    g = max(removed, key=lambda x: len(tr.project({x: Fraction(1)})))
    for op, v in ((tr.include, {a: Fraction(1)}), (tr.project, {g: Fraction(1)})):
        first = op(v)
        expected = dict(first)
        first[("junk",)] = Fraction(7)
        for k in expected:
            first[k] += 1
        assert op(v) == expected


def test_tables_follow_further_eliminations():
    cube = Cube(catalog.braid_closure([1, 2, 1, -1, 2], 3))
    tr = TrackedReduction(cube)
    for _ in range(3):
        s, t = next((s, t) for s in tr.gens for t in tr.d.get(s, {}) if tr._candidate_ok(s, t))
        tr._eliminate(s, t)
    early = {g: tr.project({g: Fraction(1)}) for g in tr.gens}
    assert early == {g: _replay_project(tr.log, {g: Fraction(1)}) for g in tr.gens}
    survivors = list(tr.alive)
    early_incl = {a: tr.include({a: Fraction(1)}) for a in survivors}
    tr.eliminate_all()
    late = {g: tr.project({g: Fraction(1)}) for g in tr.gens}
    assert late == {g: _replay_project(tr.log, {g: Fraction(1)}) for g in tr.gens}
    assert late != early
    late_incl = {a: tr.include({a: Fraction(1)}) for a in tr.alive}
    assert late_incl == {a: _replay_include(tr.log, {a: Fraction(1)}) for a in tr.alive}
    assert any(late_incl[a] != early_incl[a] for a in tr.alive)


def _q2(cube, g):
    return cube.gen_grading(*g).q2


def _degree_sets(cube):
    """Each quantum degree alone, and every other one together."""
    q2s = sorted({_q2(cube, g) for g in cube.generators()})
    return [{q} for q in q2s] + [set(q2s[::2])]


def _steps(log):
    return [(s, t, lam, list(row.items()), list(col.items())) for s, t, lam, row, col in log]


def test_q2_restricted_reduction_is_the_global_one_in_those_degrees(reductions):
    for full in reductions:
        cube = full.cube
        for q2s in _degree_sets(cube):
            tr = full_reduction(cube, q2s)
            assert tr.gens == [g for g in cube.generators() if _q2(cube, g) in q2s]
            assert _steps(tr.log) == _steps([st for st in full.log if _q2(cube, st[0]) in q2s])
            assert tr.alive == {g for g in full.alive if _q2(cube, g) in q2s}
            for g in tr.gens:
                assert tr.project({g: 1}) == full.project({g: 1})
            for a in tr.alive:
                assert tr.include({a: 1}) == full.include({a: 1})


def test_q2_restriction_needs_the_undeformed_algebra():
    cube = Cube(catalog.braid_closure([1, 2, 1, -1, 2], 3), c=Fraction(1))
    with pytest.raises(ValueError, match="c = 0"):
        TrackedReduction(cube, q2s={0})
    with pytest.raises(ValueError, match="c = 0"):
        full_reduction(cube, {0})
    TrackedReduction(cube)  # the unrestricted Lee reduction is still allowed


def test_homology_basis_on_keys_equals_the_full_basis():
    stage = build_stage(HandlebodySpec(catalog.belt_link(2), (0,)), 0)
    cubes = [Cube(catalog.braid_closure([1, 2, 1, -1, 2], 3)), stage.cube, *_winding_cubes()]
    for cube in cubes:
        full = cube.homology_basis()
        keys = list(full)
        for chosen in (keys[::3], keys[1::2], [keys[-1], (999, 999)]):
            part = cube.homology_basis(set(chosen).__contains__)
            assert set(part) == set(chosen) & set(full)
            for key, (reps, img) in part.items():
                assert reps == full[key][0]
                assert img.pivots == full[key][1].pivots
                assert img._index == full[key][1]._index


def test_homology_basis_computes_each_differential_once(monkeypatch):
    cube = Cube(catalog.torus_link(3, 4))
    calls = []
    differential = cube.differential

    def counting(g):
        calls.append(g)
        return differential(g)

    monkeypatch.setattr(cube, "differential", counting)
    cube.homology_basis()
    assert len(calls) == len(set(calls)) == len(list(cube.generators())) == 1602
