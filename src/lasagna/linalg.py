"""Sparse exact linear algebra over the rationals.

Matrices are dicts mapping (row, col) -> coefficient with zero entries
absent; rows and columns are indexed by arbitrary hashable keys.  A
coefficient is an int until a division makes it non-integral, and only then
a Fraction: int with int stays int, int with Fraction gives Fraction, and
equal values compare and hash equal across the two types.  `inverse` is the
one place a scalar is inverted, so the cube and cobordism differentials,
whose entries are mostly +-1, run on Python ints; `exact` turns a product
that came out integral back into an int.  Everything here is
deterministic: pivots are the smallest key present, by sorted key order.

`Echelon.reduce` is the one elimination kernel: every rank, kernel basis,
solution and homology coordinate here and in the modules above is read off
an `Echelon`, which is fraction-free (integer rows, one division at output).
A vector may be added with a tag, a bookkeeping key `Tag(t)` with
coefficient -1 that is never chosen as a pivot.  Eliminating pivot vectors
then carries their tags along, so the tags of a remainder record the
combination of tagged vectors that was subtracted from it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from .gradings import DimTable, Grading


def _sort_key(x) -> tuple:
    return (str(type(x)), repr(x))


def inverse(x):
    """The exact inverse of a nonzero scalar: an int for +-1, else a Fraction."""
    if x == 1 or x == -1:
        return int(x)
    return Fraction(1) / x


def exact(x):
    """The scalar x, an int or a Fraction, as an int where it is integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class Tag(tuple):
    """Bookkeeping key `Tag(label)` of a tagged vector.

    A tuple that starts with the class itself, so it is equal to no key a
    caller supplies, yet hashes and compares at tuple speed.
    """

    __slots__ = ()

    def __new__(cls, label):
        return tuple.__new__(cls, (cls, label))

    @property
    def label(self):
        return self[1]


def _untagged(v: dict) -> list:
    return [k for k in v if type(k) is not Tag]


def _integral(vec: dict) -> tuple[dict, int]:
    """(w, den): an int vector w and the least den > 0 with vec = w / den."""
    den = lcm(*(x.denominator for x in vec.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in vec.items()}, den


def _scaled(w: dict, den: int) -> dict:
    """The vector w / den: an int where den divides, else a Fraction."""
    return w if den == 1 else {k: Fraction(x, den) if x % den else x // den for k, x in w.items()}


class Echelon:
    """Incrementally maintained echelon basis supporting membership queries.

    Fraction-free: a pivot row is a primitive int vector, positive at its
    pivot.  A reduction clears its input's denominators once, on entry, and
    keeps the remainder as an int vector w over one int den > 0; only the
    outputs divide, handing out w / den as ints where integral.
    """

    def __init__(self):
        self._rows: dict = {}  # pivot key -> primitive int vector, positive there
        self._index: dict = {}  # pivot key -> insertion index

    @property
    def pivots(self) -> dict:
        """Read only: pivot key -> its pivot vector scaled to coefficient 1 there."""
        return {p: _scaled(row, row[p]) for p, row in self._rows.items()}

    def reduce(self, vec: dict) -> dict:
        """The remainder of vec free of pivot keys (unique, so order-free).

        One pass in insertion order: a pivot vector was reduced by every
        earlier one, so eliminating it can bring in later pivot keys only.
        Eliminating row r turns w / den into (a w - b r) / (a den), where
        a / b = r[pivot] / w[pivot] in lowest terms with a > 0.
        """
        w, den = _integral(vec)
        rows, index = self._rows, self._index
        heap = [(index[k], k) for k in w if k in index]
        heapq.heapify(heap)
        last = -1
        while heap:
            i, pivot = heapq.heappop(heap)
            if i == last:
                continue
            last = i
            coeff = w.get(pivot)
            if coeff is None:
                continue
            row = rows[pivot]
            if row[pivot] != 1:
                g = gcd(row[pivot], coeff)
                a, coeff = row[pivot] // g, coeff // g
                if a != 1:
                    w, den = {k: a * x for k, x in w.items()}, a * den
            for k, val in row.items():
                nv = w.get(k, 0) - coeff * val
                if nv:
                    if k not in w and k in index:
                        heapq.heappush(heap, (index[k], k))
                    w[k] = nv
                else:
                    w.pop(k, None)
        return _scaled(w, den)

    def add(self, vec: dict, tag=None) -> bool:
        """Insert vec, tagged `tag` unless None; True if it enlarged the span."""
        if tag is not None:
            vec = {**vec, Tag(tag): -1}
        return self._insert(self.reduce(vec))

    def _insert(self, v: dict) -> bool:
        """Make the remainder v a pivot row (primitive, positive at its pivot)
        unless it holds only tags."""
        keys = _untagged(v)
        if not keys:
            return False
        pivot = min(keys, key=_sort_key)
        w, _ = _integral(v)
        g = gcd(*w.values()) if w[pivot] > 0 else -gcd(*w.values())
        self._rows[pivot] = {k: x // g for k, x in w.items()}
        self._index[pivot] = len(self._index)
        return True

    def coordinates(self, vec: dict):
        """{tag: coefficient} of the tagged vectors that, with some untagged
        combination, sum to vec; None if vec is outside the span."""
        v = self.reduce(vec)
        if _untagged(v):
            return None
        return {k.label: val for k, val in v.items()}


def row_reduce(vectors: list[dict]) -> list[dict]:
    """Gaussian elimination of a list of sparse vectors (dict key->coefficient).

    Returns an independent list in echelon form, each with leading
    coefficient 1 at a distinct pivot key, sorted by pivot.  Deterministic:
    pivots are the smallest key present in each remainder.
    """
    ech = Echelon()
    for vec in vectors:
        ech.add(vec)
    pivots = ech.pivots
    return [pivots[p] for p in sorted(pivots, key=_sort_key)]


def block_homology_dims(blocks: dict, differential) -> DimTable:
    """Homology dimensions of a differential raising h2 by 2, block by block.

    `blocks` are as `gradings.graded_blocks` keys them and `differential(g)`
    is g's sparse image.  A block of n generators has dimension
    n - r(h2, q2) - r(h2 - 2, q2), r being the `row_reduce` rank of the
    differential out of a block.
    """
    ranks = {key: len(row_reduce([row for g in gens if (row := differential(g))]))
             for key, gens in blocks.items()}
    out = DimTable()
    for (h2, q2), gens in blocks.items():
        dim = len(gens) - ranks[(h2, q2)] - ranks.get((h2 - 2, q2), 0)
        if dim:
            out.add(Grading(h2, q2), dim)
    return out


def kernel_basis(entries: dict, cols: list) -> list[dict]:
    """Basis of the kernel of the matrix {(r,c): v} acting on column vectors.

    Columns are the domain.  Returns sparse vectors {col: coefficient}: one
    per column that depends on the earlier ones.  Each column is tagged +1,
    so the tags of a dependent column's remainder are its kernel vector.
    """
    by_col: dict = {c: {} for c in cols}
    for (r, c), v in entries.items():
        if v:
            by_col[c][r] = v
    ech = Echelon()
    kernel = []
    for c in cols:
        v = ech.reduce({**by_col[c], Tag(c): 1})
        if not ech._insert(v):
            kernel.append({k.label: val for k, val in v.items()})
    return kernel


def solve_in_span(span_vectors: list[dict], target: dict):
    """Express target as a combination of span_vectors, or return None.

    Returns a list of coefficients aligned with span_vectors.  Nothing in
    the package calls it any more (`Echelon.coordinates` does its job);
    `perfbench/tracer.py` still wraps it by name.
    """
    ech = Echelon()
    for i, vec in enumerate(span_vectors):
        ech.add(vec, i)
    sol = ech.coordinates(target)
    if sol is None:
        return None
    return [sol.get(i, 0) for i in range(len(span_vectors))]
