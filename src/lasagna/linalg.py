"""Sparse exact linear algebra over the rationals.

Matrices are dicts mapping (row, col) -> coefficient with zero entries
absent; rows and columns are indexed by arbitrary hashable keys.  A
coefficient is an int until a division makes it non-integral, and only then
a Fraction: int with int stays int, int with Fraction gives Fraction, and
equal values compare and hash equal across the two types.  `inverse` is the
one place a scalar is inverted, so the cube and cobordism differentials,
whose entries are mostly +-1, run on Python ints.  Everything here is
deterministic: pivots are the smallest key present, by sorted key order.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


def _sort_key(x) -> tuple:
    return (str(type(x)), repr(x))


def inverse(x):
    """The exact inverse of a nonzero scalar: an int for +-1, else a Fraction."""
    if x == 1 or x == -1:
        return int(x)
    return Fraction(1) / x


def row_reduce(vectors: list[dict], keygetter=_sort_key) -> list[dict]:
    """Gaussian elimination of a list of sparse vectors (dict key->coefficient).

    Returns an independent list in echelon form, each with leading
    coefficient 1 at a distinct pivot key.  Deterministic: pivots are the
    smallest key (by keygetter) present in each vector.
    """
    basis: dict = {}  # pivot key -> reduced vector
    for vec in vectors:
        v = dict(vec)
        while v:
            pivot = min(v, key=keygetter)
            if pivot in basis:
                coeff = v[pivot]
                for k, val in basis[pivot].items():
                    nv = v.get(k, 0) - coeff * val
                    if nv:
                        v[k] = nv
                    else:
                        v.pop(k, None)
            else:
                inv = inverse(v[pivot])
                v = {k: val * inv for k, val in v.items()}
                basis[pivot] = v
                break
    return [basis[p] for p in sorted(basis, key=keygetter)]


class Echelon:
    """Incrementally maintained echelon basis supporting membership queries."""

    def __init__(self):
        self.pivots: dict = {}  # pivot key -> vector with coefficient 1 there
        self._index: dict = {}  # pivot key -> insertion index

    def reduce(self, vec: dict) -> dict:
        """The remainder of vec free of pivot keys (unique, so order-free).

        One pass in insertion order: a pivot vector was reduced by every
        earlier one, so eliminating it can bring in later pivot keys only.
        """
        v = dict(vec)
        index = self._index
        heap = [(index[k], k) for k in v if k in index]
        heapq.heapify(heap)
        last = -1
        while heap:
            i, pivot = heapq.heappop(heap)
            if i == last:
                continue
            last = i
            coeff = v.get(pivot)
            if coeff is None:
                continue
            for k, val in self.pivots[pivot].items():
                nv = v.get(k, 0) - coeff * val
                if nv:
                    if k not in v and k in index:
                        heapq.heappush(heap, (index[k], k))
                    v[k] = nv
                else:
                    v.pop(k, None)
        return v

    def add(self, vec: dict) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v, key=_sort_key)
        inv = inverse(v[pivot])
        self.pivots[pivot] = {k: val * inv for k, val in v.items()}
        self._index[pivot] = len(self._index)
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def rank(self) -> int:
        return len(self.pivots)


def kernel_basis(entries: dict, cols: list) -> list[dict]:
    """Basis of the kernel of the matrix {(r,c): v} acting on column vectors.

    Columns are the domain.  Returns sparse vectors {col: coefficient}.
    """
    by_col: dict = {c: {} for c in cols}
    for (r, c), v in entries.items():
        if v:
            by_col[c][r] = v
    # Reduce columns, tracking the combination that produced each reduced col.
    ech: dict = {}  # pivot row -> (reduced col vector, combination)
    kernel = []
    for c in cols:
        v = dict(by_col[c])
        comb = {c: 1}
        while v:
            pivot = min(v, key=_sort_key)
            if pivot not in ech:
                inv = inverse(v[pivot])
                ech[pivot] = (
                    {k: val * inv for k, val in v.items()},
                    {k: val * inv for k, val in comb.items()},
                )
                v = None
                break
            pv, pcomb = ech[pivot]
            coeff = v[pivot]
            for k, val in pv.items():
                nv = v.get(k, 0) - coeff * val
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
            for k, val in pcomb.items():
                nc = comb.get(k, 0) - coeff * val
                if nc:
                    comb[k] = nc
                else:
                    comb.pop(k, None)
        if v is not None and not v:
            kernel.append(comb)
    return kernel


def solve_in_span(span_vectors: list[dict], target: dict):
    """Express target as a combination of span_vectors, or return None.

    Returns a list of coefficients aligned with span_vectors.
    """
    ech: dict = {}  # pivot -> (vector, combination over indices)
    for i, vec in enumerate(span_vectors):
        v = dict(vec)
        comb = {i: 1}
        while v:
            pivot = min(v, key=_sort_key)
            if pivot not in ech:
                inv = inverse(v[pivot])
                ech[pivot] = (
                    {k: val * inv for k, val in v.items()},
                    {k: val * inv for k, val in comb.items()},
                )
                break
            pv, pcomb = ech[pivot]
            coeff = v[pivot]
            for k, val in pv.items():
                nv = v.get(k, 0) - coeff * val
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
            for k, val in pcomb.items():
                nc = comb.get(k, 0) - coeff * val
                if nc:
                    comb[k] = nc
                else:
                    comb.pop(k, None)
    t = dict(target)
    out = {}
    while t:
        pivot = min(t, key=_sort_key)
        if pivot not in ech:
            return None
        pv, pcomb = ech[pivot]
        coeff = t[pivot]
        for k, val in pv.items():
            nv = t.get(k, 0) - coeff * val
            if nv:
                t[k] = nv
            else:
                t.pop(k, None)
        for k, val in pcomb.items():
            out[k] = out.get(k, 0) + coeff * val
    return [out.get(i, 0) for i in range(len(span_vectors))]
