"""Dense state-sum model of the Khovanov cube, used as an oracle.

Everything here is in the classical convention: the Frobenius algebra is
V = Q[x]/(x^2 - c) with deg(1) = +1, deg(x) = -1, counit eps(1) = 0,
eps(x) = 1; a state is a resolution vector over the crossings; the
0-resolution of a crossing (e0,e1,e2,e3) joins (e0,e1) and (e2,e3), the
1-resolution joins (e0,e3) and (e1,e2); homological degree |s| - n_-,
quantum degree deg + |s| + n_+ - 2n_-; the edge s -> s^i carries the sign
(-1)^(number of 1s before i).

The structure maps of V are written once, here: `mult` (m), `comult`
(Delta), `counit` (eps), `unit` (eta) and `times_x` (x.), each on the labels
of the circles it touches.  `match_circles` pairs two states' circles and
`carry` keeps every untouched circle's label.  The cube differential and
the Morse maps of `cobmaps` are built on these.

No simplification happens here: this is the reference computation that the
scanning pipeline is checked against.  Gradings in the public containers are
doubled like everywhere else.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Iterable

from .diagram import LinkDiagram, edge_classes
from .gradings import DimTable, Grading, graded_blocks
from .linalg import Echelon, block_homology_dims, exact, inverse, kernel_basis

LABEL_ONE = 0
LABEL_X = 1

# -- the Frobenius algebra V, one circle at a time ----------------------------
#
# Each structure map takes the labels of the circles it reads and c, and
# returns the terms ((labels of the circles it writes, coefficient), ...); no
# zero coefficient is emitted.  `match_circles` and `carry` place the terms in
# a whole state, where every other circle keeps its label.

_UNIT = (((LABEL_ONE,), 1),)
_DELTA_ONE = (((LABEL_ONE, LABEL_X), 1), ((LABEL_X, LABEL_ONE), 1))


def mult(loc, c):
    """m: V (x) V -> V; 1.1 = 1, 1.x = x.1 = x, x.x = c."""
    a, b = loc
    if a == LABEL_ONE:
        return (((b,), 1),)
    if b == LABEL_ONE:
        return (((a,), 1),)
    return (((LABEL_ONE,), c),) if c else ()


def comult(loc, c):
    """Delta: V -> V (x) V; 1 -> 1(x)x + x(x)1, x -> x(x)x + c 1(x)1."""
    if loc[0] == LABEL_ONE:
        return _DELTA_ONE
    return (((LABEL_X, LABEL_X), 1), ((LABEL_ONE, LABEL_ONE), c)) if c else (((LABEL_X, LABEL_X), 1),)


def counit(loc, c):
    """eps: V -> Q; eps(1) = 0, eps(x) = 1."""
    return (((), 1),) if loc[0] == LABEL_X else ()


def unit(loc, c):
    """eta: Q -> V; the empty tensor goes to 1."""
    return _UNIT


def times_x(loc, c):
    """x.: V -> V, multiplication by x (a dot); 1 -> x, x -> c."""
    if loc[0] == LABEL_ONE:
        return (((LABEL_X,), 1),)
    return (((LABEL_ONE,), c),) if c else ()


def match_circles(src: list, dst: list) -> tuple[list, list]:
    """Match two states' circles by their edge sets.

    Returns (slots, gone): slots[j] is the index of dst[j] among src, None
    where no src circle equals it, and gone lists the src indices that equal
    no dst circle, in order.
    """
    where = {c: i for i, c in enumerate(src)}
    slots = [where.pop(c, None) for c in dst]
    return slots, list(where.values())


def carry(labels, slots, ins, outs, op, c) -> list:
    """Image of one generator's labels under a local structure map.

    `op` reads the labels at positions `ins` and writes its terms' labels at
    positions `outs` of the target; every other target position j gets the
    source label at slots[j] (as `match_circles` gives them).  Returns
    [(target labels, coefficient)].
    """
    base = [LABEL_ONE if i is None else labels[i] for i in slots]
    out = []
    for loc, coeff in op(tuple([labels[i] for i in ins]), c):
        for j, l in zip(outs, loc):
            base[j] = l
        out.append((tuple(base), coeff))
    return out


def resolve_circles(d: LinkDiagram, state: int) -> list[frozenset[str]]:
    """Circles of the given resolution, each a frozenset of edge ids."""
    pairs = []
    for i, c in enumerate(d.crossings):
        e0, e1, e2, e3 = c.edges
        pairs += [(e0, e3), (e1, e2)] if (state >> i) & 1 else [(e0, e1), (e2, e3)]
    return edge_classes(d.edges, pairs)


class CapacityError(ValueError):
    """A guard on the size of a computation refused its input."""


MAX_CROSSINGS = 14  # the dense cube holds every one of the 2^n states


class Cube:
    """Full cube of resolutions of a diagram over Q[x]/(x^2-c)."""

    def __init__(self, d: LinkDiagram, c: int | Fraction = 0):
        if d.regions:
            raise ValueError("cube of resolutions requires a diagram without surgery regions")
        if len(d.crossings) > MAX_CROSSINGS:
            raise CapacityError(
                f"dense cube guard: {len(d.crossings)} crossings exceeds {MAX_CROSSINGS}"
            )
        self.diagram = d
        self.c = exact(Fraction(c))  # an integral c stays an int
        self.n = len(d.crossings)
        self.n_plus = sum(1 for x in d.crossings if x.sign == 1)
        self.n_minus = self.n - self.n_plus
        self.circles = [resolve_circles(d, s) for s in range(1 << self.n)]
        self._out: dict[int, list] = {}  # state -> its `_edges_out`, once read

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
        edges = self._out.get(s)
        if edges is None:
            edges = self._out[s] = self._edges_out(s)
        out: dict = {}
        for s2, sign, slots, ins, outs, op in edges:
            for tgt_labels, coeff in carry(labels, slots, ins, outs, op, self.c):
                key = (s2, tgt_labels)
                v = out.get(key, 0) + sign * coeff
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return out

    def _edges_out(self, s) -> list:
        """(s2, sign, slots, ins, outs, op) per cube edge s -> s2.

        The TQFT map is m when two circles fuse and Delta when one splits;
        Delta(1) writes (x, 1) before (1, x) over the new circles in circ2
        order, and the differential's insertion order depends on it.
        """
        edges = []
        circ = self.circles[s]
        for i in range(self.n):
            if (s >> i) & 1:
                continue
            sign = (-1) ** ((s & ((1 << i) - 1)).bit_count())
            s2 = s | (1 << i)
            slots, gone = match_circles(circ, self.circles[s2])
            new = [j for j, k in enumerate(slots) if k is None]
            if len(gone) == 2 and len(new) == 1:
                edges.append((s2, sign, slots, gone, new, mult))
            elif len(gone) == 1 and len(new) == 2:
                edges.append((s2, sign, slots, gone, new[::-1], comult))
            else:
                raise AssertionError("cube edge must merge or split exactly one pair")
        return edges

    # -- homology -----------------------------------------------------------

    def blocks(self) -> dict:
        """Generators by block, as `graded_blocks` keys them for this c."""
        gradings = ((gen, self.gen_grading(*gen)) for gen in self.generators())
        return graded_blocks(gradings, self.c == 0)

    def homology_dims(self) -> DimTable:
        """Homology dimensions per block (for c != 0 at q2 = 0)."""
        return block_homology_dims(self.blocks(), self.differential)

    def homology_basis(self, keep=None) -> dict:
        """Per (h2,q2) block: (cycle representatives, coordinate echelon).

        The echelon holds the block's image untagged and the representatives
        tagged with their index, so its `coordinates` of a cycle are the
        cycle's homology coordinates.  A cycle is a representative exactly
        when it enlarges the span of the image and the earlier ones.
        Requires c=0.  `keep`, a predicate on (h2, q2), builds only the
        blocks it accepts (each one reads its own differentials and those of
        (h2-2, q2)); the result equals the full basis on them.
        """
        if self.c != 0:
            raise ValueError("graded homology basis needs c = 0")
        blocks = self.blocks()
        d = cache(self.differential)  # each generator's differential once per call
        data: dict = {}
        for key, gens in blocks.items():
            if keep is not None and not keep(key):
                continue
            entries = {}
            for g in gens:
                for tgt, v in d(g).items():
                    entries[(tgt, g)] = v
            h2, q2 = key
            ech = Echelon()
            for g in blocks.get((h2 - 2, q2), []):
                ech.add(d(g))
            reps = []
            for v in kernel_basis(entries, gens):
                if ech.add(v, len(reps)):
                    reps.append(v)
            data[key] = (reps, ech)
        return data


def _all_labels(k: int) -> list:
    """All label tuples over k circles, the first circle's label changing fastest."""
    return [p[::-1] for p in product((LABEL_ONE, LABEL_X), repeat=k)]


class ChainMap:
    """Sparse chain map between two cubes, generator -> {generator: coeff}."""

    def __init__(self, src: Cube, dst: Cube, entries: dict):
        self.src = src
        self.dst = dst
        self.entries = entries  # gen -> {gen: coefficient}, int or Fraction

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
        return ChainMap(self.src, then.dst, entries)

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


def _acc(d: dict, k, v) -> None:
    nv = d.get(k, 0) + v
    if nv:
        d[k] = nv
    else:
        d.pop(k, None)


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
    later elimination grows the log.

    `q2s`, a collection of doubled quantum degrees, reduces only the
    generators of those degrees, kept in `cube.generators()` order.  With
    c = 0 the differential preserves q, so they span a direct summand; the
    last-in-first-out queue restricted to it runs step for step as the
    global queue does in those degrees, and the log, the projection table
    and the inclusions there equal the global ones.  The Lee differential
    (c != 0) is not q-homogeneous, and `q2s` with it raises ValueError.
    """

    def __init__(self, cube: Cube, q2s=None):
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
        self.log: list = []  # (s, t, lam, out_row, in_col)
        self._maps_at = 0  # log length the projection table and inclusion memo belong to
        self._proj: dict = {}  # removed generator -> p(e_g)
        self._incl: dict = {}  # generator -> iota(e_g)

    # -- elimination --------------------------------------------------------

    def _candidate_ok(self, s, t) -> bool:
        return s in self.alive and t in self.alive and bool(self.d.get(s, {}).get(t))

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
