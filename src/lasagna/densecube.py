"""Dense state-sum model of the Khovanov cube, used as an oracle.

Everything here is in the classical convention: the Frobenius algebra is
V = Q[x]/(x^2 - c) with deg(1) = +1, deg(x) = -1, counit eps(1) = 0,
eps(x) = 1; a state is a resolution vector over the crossings; the
0-resolution of a crossing (e0,e1,e2,e3) joins (e0,e1) and (e2,e3), the
1-resolution joins (e0,e3) and (e1,e2); homological degree |s| - n_-,
quantum degree deg + |s| + n_+ - 2n_-; the edge s -> s^i carries the sign
(-1)^(number of 1s before i).

No simplification happens here: this is the reference computation that the
scanning pipeline is checked against.  Gradings in the public containers are
doubled like everywhere else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .diagram import LinkDiagram
from .gradings import DimTable, Grading
from .linalg import Echelon, inverse, kernel_basis, row_reduce

LABEL_ONE = 0
LABEL_X = 1


def resolve_circles(d: LinkDiagram, state: int) -> list[frozenset[str]]:
    """Circles of the given resolution, each a frozenset of edge ids."""
    parent = {e: e for e in d.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i, c in enumerate(d.crossings):
        e0, e1, e2, e3 = c.edges
        if (state >> i) & 1:
            union(e0, e3)
            union(e1, e2)
        else:
            union(e0, e1)
            union(e2, e3)
    groups: dict[str, set[str]] = {}
    for e in d.edges:
        groups.setdefault(find(e), set()).add(e)
    return sorted((frozenset(g) for g in groups.values()), key=min)


class CapacityError(ValueError):
    """A guard on the size of a computation refused its input."""


class Cube:
    """Full cube of resolutions of a diagram over Q[x]/(x^2-c)."""

    def __init__(self, d: LinkDiagram, c: Fraction = Fraction(0), max_crossings: int = 14):
        if d.regions:
            raise ValueError("cube of resolutions requires a diagram without surgery regions")
        if len(d.crossings) > max_crossings:
            raise CapacityError(
                f"dense cube guard: {len(d.crossings)} crossings exceeds {max_crossings}"
            )
        self.diagram = d
        self.c = Fraction(c)
        self.n = len(d.crossings)
        self.n_plus = sum(1 for x in d.crossings if x.sign == 1)
        self.n_minus = self.n - self.n_plus
        self.circles = [resolve_circles(d, s) for s in range(1 << self.n)]

    # generators are (state, labels) with labels a tuple over the state's
    # circles in canonical order; label 0 is the unit, 1 is x.

    def gen_grading(self, state: int, labels: tuple[int, ...]) -> Grading:
        w = state.bit_count()
        deg = sum(1 - 2 * l for l in labels)
        h = w - self.n_minus
        q = deg + w + self.n_plus - 2 * self.n_minus
        return Grading(2 * h, 2 * q)

    def generators(self) -> Iterable[tuple[int, tuple[int, ...]]]:
        for s in range(1 << self.n):
            k = len(self.circles[s])
            for labels in _all_labels(k):
                yield (s, labels)

    def differential(self, gen) -> dict:
        """Sparse image of a generator under the cube differential."""
        s, labels = gen
        out: dict = {}
        circ = self.circles[s]
        for i in range(self.n):
            if (s >> i) & 1:
                continue
            sign = (-1) ** ((s & ((1 << i) - 1)).bit_count())
            s2 = s | (1 << i)
            circ2 = self.circles[s2]
            for tgt_labels, coeff in self._edge_map(circ, labels, circ2):
                key = (s2, tgt_labels)
                v = out.get(key, 0) + sign * coeff
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return out

    def _edge_map(self, circ, labels, circ2):
        """TQFT map along one cube edge: merge -> m, split -> Delta."""
        set2idx = {c: i for i, c in enumerate(circ2)}
        changed_src = [i for i, c in enumerate(circ) if c not in set2idx]
        if len(changed_src) == 2:
            # merge: two circles fuse into one
            a, b = changed_src
            tgt_circle = None
            for c2 in circ2:
                if c2 not in circ:
                    tgt_circle = c2
            la, lb = labels[a], labels[b]
            terms = []
            if la + lb == 0:
                terms = [(LABEL_ONE, 1)]
            elif la + lb == 1:
                terms = [(LABEL_X, 1)]
            else:
                if self.c:
                    terms = [(LABEL_ONE, self.c)]
            out = []
            for lt, coeff in terms:
                tl = _transfer(circ, labels, circ2, {tgt_circle: lt})
                out.append((tl, coeff))
            return out
        elif len(changed_src) == 1:
            # split: one circle becomes two
            a = changed_src[0]
            new_circles = [c2 for c2 in circ2 if c2 not in circ]
            assert len(new_circles) == 2
            u, v = new_circles
            la = labels[a]
            if la == LABEL_ONE:
                pieces = [({u: 1, v: 0}, 1), ({u: 0, v: 1}, 1)]
            else:
                pieces = [({u: 1, v: 1}, 1)]
                if self.c:
                    pieces.append(({u: 0, v: 0}, self.c))
            return [(_transfer(circ, labels, circ2, assign), coeff) for assign, coeff in pieces]
        else:
            raise AssertionError("cube edge must merge or split exactly one pair")

    # -- homology -----------------------------------------------------------

    def blocks(self, graded: Optional[bool] = None) -> dict:
        """Group generators into blocks keyed by (h2, q2) (graded) or h2."""
        if graded is None:
            graded = self.c == 0
        blocks: dict = {}
        for gen in self.generators():
            g = self.gen_grading(*gen)
            key = (g.h2, g.q2) if graded else g.h2
            blocks.setdefault(key, []).append(gen)
        return blocks

    def homology_dims(self) -> DimTable:
        """Classical homology dimensions (q-graded; requires c = 0)."""
        if self.c != 0:
            raise ValueError("q-graded homology needs the undeformed algebra")
        blocks = self.blocks(graded=True)
        ranks: dict = {}
        for key, gens in blocks.items():
            entries = {}
            for g in gens:
                for tgt, v in self.differential(g).items():
                    entries[(tgt, g)] = v
            by_row: dict = {}
            for (r, cgen), v in entries.items():
                by_row.setdefault(cgen, {})[r] = v
            ranks[key] = len(row_reduce(list(by_row.values())))
        out = DimTable()
        for (h2, q2), gens in blocks.items():
            r_out = ranks.get((h2, q2), 0)
            r_in = ranks.get((h2 - 2, q2), 0)
            dim = len(gens) - r_out - r_in
            if dim:
                out.add(Grading(h2, q2), dim)
        return out

    def total_homology_dims_by_h(self) -> dict[int, int]:
        """Homology dims per h2, ignoring q (works for any c, e.g. Lee)."""
        blocks = self.blocks(graded=False)
        ranks: dict = {}
        for h2, gens in blocks.items():
            by_row: dict = {}
            for g in gens:
                for tgt, v in self.differential(g).items():
                    by_row.setdefault(g, {})[tgt] = v
            ranks[h2] = len(row_reduce(list(by_row.values())))
        out = {}
        for h2, gens in blocks.items():
            dim = len(gens) - ranks.get(h2, 0) - ranks.get(h2 - 2, 0)
            if dim:
                out[h2] = dim
        return out

    def homology_basis(self, keys=None) -> dict:
        """Per (h2,q2) block: (cycle representatives, image echelon).

        Homology coordinates of a cycle are obtained by reducing modulo the
        image echelon and solving in the representative span.  Requires c=0.
        `keys`, a collection of (h2, q2), builds only those blocks (each one
        reads its own differentials and those of (h2-2, q2)); the result
        equals the full basis on them, and a key without generators is
        left out as there.
        """
        if self.c != 0:
            raise ValueError("graded homology basis needs c = 0")
        blocks = self.blocks(graded=True)
        data: dict = {}
        for key, gens in blocks.items():
            if keys is not None and key not in keys:
                continue
            entries = {}
            for g in gens:
                for tgt, v in self.differential(g).items():
                    entries[(tgt, g)] = v
            cycles = kernel_basis(entries, gens)
            h2, q2 = key
            img = Echelon()
            for g in blocks.get((h2 - 2, q2), []):
                img.add(self.differential(g))
            reps = []
            rep_ech = Echelon()
            for v in cycles:
                red = img.reduce(v)
                if red and rep_ech.add(red):
                    reps.append(v)
            data[key] = (reps, img)
        return data


def _all_labels(k: int):
    if k == 0:
        yield ()
        return
    for m in range(1 << k):
        yield tuple((m >> i) & 1 for i in range(k))


def _transfer(circ, labels, circ2, assign: dict) -> tuple[int, ...]:
    """Carry labels over to the target circle list by matching edge sets."""
    lab_by_set = {c: labels[i] for i, c in enumerate(circ)}
    out = []
    for c2 in circ2:
        if c2 in assign:
            out.append(assign[c2])
        else:
            out.append(lab_by_set[c2])
    return tuple(out)


class ChainMap:
    """Sparse chain map between two cubes, generator -> {generator: coeff}."""

    def __init__(self, src: Cube, dst: Cube, entries: dict, h2_shift: int = 0):
        self.src = src
        self.dst = dst
        self.entries = entries  # gen -> {gen: coefficient}, int or Fraction
        self.h2_shift = h2_shift

    def apply(self, vec: dict) -> dict:
        out: dict = {}
        for g, coeff in vec.items():
            for tgt, v in self.entries.get(g, {}).items():
                nv = out.get(tgt, 0) + coeff * v
                if nv:
                    out[tgt] = nv
                else:
                    out.pop(tgt, None)
        return out

    def compose(self, then: "ChainMap") -> "ChainMap":
        if then.src is not self.dst:
            raise ValueError("chain maps not composable")
        entries = {}
        for g, row in self.entries.items():
            acc: dict = {}
            for mid, v in row.items():
                for tgt, w in then.entries.get(mid, {}).items():
                    nv = acc.get(tgt, 0) + v * w
                    if nv:
                        acc[tgt] = nv
                    else:
                        acc.pop(tgt, None)
            if acc:
                entries[g] = acc
        return ChainMap(self.src, then.dst, entries, self.h2_shift + then.h2_shift)

    def is_chain_map(self) -> bool:
        """Check commutation with the differentials on every generator."""
        for g in self.src.generators():
            lhs: dict = {}
            for mid, v in self.src.differential(g).items():
                for tgt, w in self.entries.get(mid, {}).items():
                    _acc(lhs, tgt, v * w)
            rhs: dict = {}
            for mid, v in self.entries.get(g, {}).items():
                for tgt, w in self.dst.differential(mid).items():
                    _acc(rhs, tgt, v * w)
            if lhs != rhs:
                return False
        return True

    def bidegree_shifts(self) -> set[tuple[int, int]]:
        shifts = set()
        for g, row in self.entries.items():
            gg = self.src.gen_grading(*g)
            for tgt in row:
                tg = self.dst.gen_grading(*tgt)
                shifts.add((tg.h2 - gg.h2, tg.q2 - gg.q2))
        return shifts


def _acc(d: dict, k, v) -> None:
    nv = d.get(k, 0) + v
    if nv:
        d[k] = nv
    else:
        d.pop(k, None)


def identity_map(cube: Cube) -> ChainMap:
    return ChainMap(cube, cube, {g: {g: 1} for g in cube.generators()})


class TrackedReduction:
    """Gaussian elimination of a dense complex with tracked homotopy data.

    Eliminating an invertible differential entry lam: s -> t removes the
    pair and corrects the remaining differential by the zig-zag formula.
    Each step's pivot row (the entries out of s) and column (the entries
    into t) are logged; the strong deformation retract is read off the log:

        p(e_t) = -lam^-1 * sum_w row_s[w] * p(e_w),  p(e_s) = 0   (projection)
        iota_k(z) = z - lam^-1 * <z, col_t> * s         (inclusion, reversed log)

    with p∘iota = id and both chain maps.  Until the step that removes a
    generator no step touches it, so the row of a removed t only holds
    generators that die later or survive: one pass over the log in reverse
    order tabulates p on every generator, and `project` is a sparse sum over
    that table.  `include` memoizes iota on each basis vector it meets.  Both
    the table and the memo belong to one log length and are rebuilt once a
    later elimination grows the log.  A pivot_filter restricts which entries
    may be eliminated (used to steer Reidemeister retracts onto a
    distinguished resolution).

    `q2s`, a collection of doubled quantum degrees, reduces only the
    generators of those degrees, kept in `cube.generators()` order.  With
    c = 0 the differential preserves q, so they span a direct summand; the
    last-in-first-out queue restricted to it runs step for step as the
    global queue does in those degrees, and the log, the projection table
    and the inclusions there equal the global ones.  The Lee differential
    (c != 0) is not q-homogeneous, and `q2s` with it raises ValueError.
    """

    def __init__(self, cube: Cube, pivot_filter=None, q2s=None):
        if q2s is not None and cube.c != 0:
            raise ValueError("a q2-restricted reduction needs c = 0")
        self.cube = cube
        gens = cube.generators()
        if q2s is not None:
            gens = (g for g in gens if cube.gen_grading(*g).q2 in q2s)
        self.gens = list(gens)
        self.d: dict = {}
        self.d_in: dict = {}
        for g in self.gens:
            row = cube.differential(g)
            if row:
                self.d[g] = dict(row)
                for t, v in row.items():
                    self.d_in.setdefault(t, {})[g] = v
        self.alive = set(self.gens)
        self.pivot_filter = pivot_filter
        self.log: list = []  # (s, t, lam, out_row, in_col)
        self._maps_at = 0  # log length the projection table and inclusion memo belong to
        self._proj: dict = {}  # removed generator -> p(e_g)
        self._incl: dict = {}  # generator -> iota(e_g)

    # -- elimination --------------------------------------------------------

    def _candidate_ok(self, s, t) -> bool:
        if s not in self.alive or t not in self.alive:
            return False
        if self.pivot_filter and not self.pivot_filter(s, t):
            return False
        return bool(self.d.get(s, {}).get(t))

    def eliminate_all(self) -> int:
        queue = [
            (s, t)
            for s in self.gens
            for t in self.d.get(s, {})
            if self._candidate_ok(s, t)
        ]
        count = 0
        while queue:
            s, t = queue.pop()
            if not self._candidate_ok(s, t):
                continue
            created = self._eliminate(s, t)
            count += 1
            for u, v in created:
                if self._candidate_ok(u, v):
                    queue.append((u, v))
        return count

    def _eliminate(self, s, t) -> list:
        lam = self.d[s][t]
        inv = inverse(lam)
        in_col = {
            u: v for u, v in self.d_in.get(t, {}).items() if u in self.alive and u != s
        }
        out_row = {
            v: w for v, w in self.d.get(s, {}).items() if v in self.alive and v != t
        }
        self.log.append((s, t, lam, out_row, in_col))
        self.alive.discard(s)
        self.alive.discard(t)
        for g in (s, t):
            for v in self.d.pop(g, {}):
                self.d_in.get(v, {}).pop(g, None)
            for u in self.d_in.pop(g, {}):
                self.d.get(u, {}).pop(g, None)
        scaled_row = {v: inv * b for v, b in out_row.items()}
        created = []
        for u, a in in_col.items():
            row_u = self.d.setdefault(u, {})
            for v, b in scaled_row.items():
                cur = row_u.get(v, 0) - a * b
                if cur:
                    row_u[v] = cur
                    self.d_in.setdefault(v, {})[u] = cur
                    created.append((u, v))
                else:
                    row_u.pop(v, None)
                    self.d_in.get(v, {}).pop(u, None)
        return created

    # -- SDR maps --------------------------------------------------------------

    def _sync_maps(self) -> None:
        """Rebuild the projection table and clear the inclusion memo if the log grew."""
        if self._maps_at == len(self.log):
            return
        self._maps_at = len(self.log)
        self._incl = {}
        table: dict = {}
        for s, t, lam, out_row, _ in reversed(self.log):
            image: dict = {}
            inv = inverse(lam)
            for w, b in out_row.items():
                c = -b * inv
                later = table.get(w)
                if later is None:  # w survives
                    _acc(image, w, c)
                else:
                    for x, y in later.items():
                        _acc(image, x, c * y)
            table[t] = image
            table[s] = {}
        self._proj = table

    def include(self, z: dict) -> dict:
        """iota: chain in the reduced complex -> chain in the original one."""
        self._sync_maps()
        out: dict = {}
        for a, c in z.items():
            col = self._incl.get(a)
            if col is None:
                col = self._incl[a] = self._include_basis(a)
            for g, w in col.items():
                _acc(out, g, c * w)
        return out

    def _include_basis(self, a) -> dict:
        z = {a: 1}
        for s, t, lam, out_row, in_col in reversed(self.log):
            coeff = 0
            for u, v in in_col.items():
                if u in z:
                    coeff += z[u] * v
            if coeff:
                _acc(z, s, -coeff * inverse(lam))
        return z

    def project(self, v: dict) -> dict:
        """p: chain in the original complex -> chain in the reduced one."""
        self._sync_maps()
        out: dict = {}
        for g, c in v.items():
            image = self._proj.get(g)
            if image is None:  # g survives
                _acc(out, g, c)
            else:
                for w, y in image.items():
                    _acc(out, w, c * y)
        return out
