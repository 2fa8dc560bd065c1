import random
from fractions import Fraction

from lasagna.linalg import Echelon


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
