import random
from fractions import Fraction

from lasagna.linalg import Echelon, kernel_basis, row_reduce, solve_in_span


def _restart_reduce(pivots: dict, vec: dict) -> dict:
    """Reference: eliminate any pivot present, then rescan from the start."""
    v = dict(vec)
    changed = True
    while changed:
        changed = False
        for pivot in list(v):
            if pivot in pivots:
                coeff = v[pivot]
                for k, val in pivots[pivot].items():
                    nv = v.get(k, Fraction(0)) - coeff * val
                    if nv:
                        v[k] = nv
                    else:
                        v.pop(k, None)
                changed = True
                break
    return v


def _random_vector(rng, keys, size):
    return {k: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            for k in rng.sample(keys, size)}


def test_echelon_reduce_matches_restart_loop():
    rng = random.Random(20)
    for trial in range(40):
        keys = [("k", i) for i in range(rng.randint(4, 24))] + [f"x{i}" for i in range(4)]
        ech = Echelon()
        for _ in range(rng.randint(1, 20)):
            v = _random_vector(rng, keys, rng.randint(1, min(8, len(keys))))
            reduced = ech.reduce(v)
            assert reduced == _restart_reduce(ech.pivots, v)
            assert ech.add(v) == bool(reduced)
            assert ech.contains(v)
        assert ech.rank() == len(ech.pivots)
        for _ in range(10):
            v = _random_vector(rng, keys, rng.randint(1, len(keys)))
            assert ech.reduce(v) == _restart_reduce(ech.pivots, v)


# -- references: the leading-key elimination loops the kernel replaced ------------


def _sort_key(x):
    return (str(type(x)), repr(x))


def _ref_eliminate(ech: dict, v: dict, comb: dict):
    """Eliminate leading pivots of v, tracking comb; return the free pivot or None."""
    while v:
        pivot = min(v, key=_sort_key)
        if pivot not in ech:
            return pivot
        pv, pcomb = ech[pivot]
        coeff = v[pivot]
        for acc, sub in ((v, pv), (comb, pcomb)):
            for k, val in sub.items():
                nv = acc.get(k, 0) - coeff * val
                if nv:
                    acc[k] = nv
                else:
                    acc.pop(k, None)
    return None


def _ref_insert(vectors, combs):
    ech: dict = {}  # pivot -> (vector, combination)
    dependent = []
    for vec, comb in zip(vectors, combs):
        v, comb = dict(vec), dict(comb)
        pivot = _ref_eliminate(ech, v, comb)
        if pivot is None:
            dependent.append(comb)
        else:
            inv = 1 / Fraction(v[pivot])
            ech[pivot] = ({k: x * inv for k, x in v.items()}, {k: x * inv for k, x in comb.items()})
    return ech, dependent


def _ref_kernel_basis(entries, cols):
    by_col = {c: {} for c in cols}
    for (r, c), v in entries.items():
        by_col[c][r] = v
    return _ref_insert([by_col[c] for c in cols], [{c: 1} for c in cols])[1]


def _ref_solve_in_span(span_vectors, target):
    ech, _ = _ref_insert(span_vectors, [{i: 1} for i in range(len(span_vectors))])
    t, comb = dict(target), {}
    if _ref_eliminate(ech, t, comb) is not None:
        return None
    return [-comb.get(i, 0) for i in range(len(span_vectors))]


def _random_matrix(rng):
    """A sparse Fraction matrix with some columns combinations of earlier ones."""
    rows = [("r", i) for i in range(rng.randint(1, 9))] + [f"s{i}" for i in range(rng.randint(0, 3))]
    cols = list(range(rng.randint(1, 10)))
    by_col = {}
    for c in cols:
        if c >= 2 and rng.random() < 0.4:
            a, b = rng.sample(cols[:c], 2)
            x, y = (Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 4)) for _ in range(2))
            col = {r: x * by_col[a].get(r, 0) + y * by_col[b].get(r, 0) for r in rows}
            by_col[c] = {r: v for r, v in col.items() if v}
        else:
            by_col[c] = _random_vector(rng, rows, rng.randint(0, min(4, len(rows))))
    entries = {(r, c): v for c, col in by_col.items() for r, v in col.items()}
    return entries, cols, by_col


def test_kernel_basis_and_row_reduce_match_the_references():
    rng = random.Random(31)
    kernels = 0
    for _ in range(150):
        entries, cols, by_col = _random_matrix(rng)
        kernel = kernel_basis(entries, cols)
        assert kernel == _ref_kernel_basis(entries, cols)
        kernels += len(kernel)
        for vec in kernel:
            for r in {r for r, _ in entries}:
                assert sum(x * entries.get((r, c), 0) for c, x in vec.items()) == 0
        assert len(row_reduce(list(by_col.values()))) == len(cols) - len(kernel)
        assert len(row_reduce(list(by_col.values()))) == len(_ref_insert(by_col.values(), [{}] * len(cols))[0])
    assert kernels > 50


def test_solve_in_span_matches_the_reference():
    rng = random.Random(32)
    solved = unsolved = 0
    for _ in range(150):
        _, cols, by_col = _random_matrix(rng)
        span = [by_col[c] for c in cols]
        rows = sorted({r for v in span for r in v}, key=_sort_key) or ["r"]
        if rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in span]
            target = {}
            for x, v in zip(coeffs, span):
                for r, val in v.items():
                    target[r] = target.get(r, 0) + x * val
            target = {r: v for r, v in target.items() if v}
        else:
            target = _random_vector(rng, rows, rng.randint(1, len(rows)))
        sol = solve_in_span(span, target)
        assert sol == _ref_solve_in_span(span, target)
        if sol is None:
            unsolved += 1
        else:
            solved += 1
            got = {}
            for x, v in zip(sol, span):
                for r, val in v.items():
                    got[r] = got.get(r, 0) + x * val
            assert {r: v for r, v in got.items() if v} == target
    assert solved > 50 and unsolved > 20


def test_echelon_contains_ignores_tags():
    ech = Echelon()
    assert ech.add({"a": 2, "b": 1}, 0)
    assert ech.add({"b": 3}, 1)
    assert not ech.add({"a": 4, "b": 8}, 2)
    assert ech.contains({"a": 1})
    assert not ech.contains({"c": 1})
    assert ech.rank() == 2
    # the remainder of a member holds only tags: the combination subtracted
    assert ech.coordinates({"a": 4, "b": 8}) == {0: 2, 1: 2}
    assert ech.coordinates({"c": 1}) is None


def test_homology_matrix_equals_per_column_solve():
    """Coordinates read off the block echelon equal solving each column in the
    span of the target representatives reduced by the image."""
    from lasagna import catalog
    from lasagna.cobmaps import homology_matrix
    from lasagna.skein import HandlebodySpec, _Symmetrizer, build_stage

    st = build_stage(HandlebodySpec(catalog.empty_surgery(1), (0,)), 2)
    cube = st.cube
    H = cube.homology_basis()
    sym = _Symmetrizer(cube, st.belt_groups.values())
    mats = homology_matrix(sym.apply, H, H)
    checked = 0
    for key, (reps, _) in H.items():
        if not reps:
            continue
        h2, q2 = key
        img = Echelon()
        for g in cube.blocks().get((h2 - 2, q2), []):
            img.add(cube.differential(g))
        reduced = [img.reduce(r) for r in reps]
        cols = [solve_in_span(reduced, img.reduce(sym.apply(v))) for v in reps]
        assert mats[key] == cols
        checked += len(cols)
    assert checked > 10
