"""Bigraded chain complexes over the dotted-cobordism category.

A complex stores generators (id, grading, flat tangle) and a sparse
differential whose entries are MorphismCombos (or plain scalars once all
objects are empty).  Differentials raise h2 by exactly 2.  The main
consumers are the crossing-by-crossing scanning build of the Khovanov cube
(attach a crossing, glue shared edge endpoints, deloop, cancel invertible
entries) and the rank computations extracting homology dimensions.

Gluing identifies boundary points in pairs.  Loops created by a closing arc
chain are named by the frozenset of constituent arcs, so gluing a
generator's tangle and gluing a differential entry's cobordism agree on the
nose.  `planar_tensor` glues each distinct pair of factor tangles once and
keeps the glued tangle, keymap and joined source arcs for that call only;
every entry between two generators glues its components against the cached
gluings of its two ends, never re-gluing a tangle.

A glued and reduced term depends only on the factor cobordism, the other
factor's tangle and which factor the cobordism belongs to: those fix both
glued ends and the identity it is tensored with.  `planar_tensor` keeps
that normal form, keyed by (cobordism, other tangle, side), for the
duration of one call, and applies the coefficient and the Koszul sign
outside the memo.

Every stored entry is in normal form (see `cobcat`): gluing, delooping and
elimination each return reduced morphisms.  Delooping a generator splits
each incoming and outgoing entry once into its plus and minus summands
(`cobcat.deloop_split`), which for a normal entry partitions its terms.
"""

from __future__ import annotations

from typing import Optional

from .cobcat import (
    Cobordism,
    FlatTangle,
    FrobeniusSpec,
    KHOVANOV,
    MorphismCombo,
    _glued_component,
    _reduce_cobordism,
    deloop_split,
    identity_cobordism,
)
from .gradings import DimTable, Grading, Window
from .linalg import inverse, row_reduce


class ComplexError(ValueError):
    pass


class BigradedComplex:
    def __init__(self, spec: FrobeniusSpec = KHOVANOV, truncation: Optional[Window] = None):
        self.spec = spec
        self.gens: dict[int, tuple[Grading, FlatTangle]] = {}
        self.d: dict[int, dict[int, MorphismCombo]] = {}
        self.d_in: dict[int, set[int]] = {}
        self.pivots: set[tuple[int, int]] = set()  # entries s -> t that are lambda * identity
        self.truncation = truncation
        self._next = 0

    # -- construction -------------------------------------------------------

    def add_generator(self, grading: Grading, tangle: FlatTangle) -> int:
        gid = self._next
        self._next += 1
        self.gens[gid] = (grading, tangle)
        self.d[gid] = {}
        self.d_in[gid] = set()
        return gid

    def set_entry(self, s: int, t: int, m: MorphismCombo) -> None:
        gs, _ = self.gens[s]
        gt, _ = self.gens[t]
        if gt.h2 - gs.h2 != 2:
            raise ComplexError("differential entries must raise h2 by exactly 2")
        if m.is_zero():
            self.d[s].pop(t, None)
            self.d_in[t].discard(s)
            self.pivots.discard((s, t))
        else:
            self.d[s][t] = m
            self.d_in[t].add(s)
            if m.invertible_scalar() is None:
                self.pivots.discard((s, t))
            else:
                self.pivots.add((s, t))

    def entry(self, s: int, t: int) -> Optional[MorphismCombo]:
        return self.d.get(s, {}).get(t)

    def copy(self) -> "BigradedComplex":
        c = BigradedComplex(self.spec, self.truncation)
        c.gens = dict(self.gens)
        c.d = {s: dict(row) for s, row in self.d.items()}
        c.d_in = {t: set(srcs) for t, srcs in self.d_in.items()}
        c.pivots = set(self.pivots)
        c._next = self._next
        return c

    @staticmethod
    def unit(spec: FrobeniusSpec = KHOVANOV) -> "BigradedComplex":
        c = BigradedComplex(spec)
        c.add_generator(Grading(0, 0), FlatTangle((), ()))
        return c

    def generators(self) -> list[int]:
        return sorted(self.gens)

    # -- verification --------------------------------------------------------

    def verify_d_squared(self) -> bool:
        for u in self.gens:
            acc: dict[int, MorphismCombo] = {}
            for v, f in self.d.get(u, {}).items():
                for w, g in self.d.get(v, {}).items():
                    h = f.then(g, self.spec)
                    if w in acc:
                        acc[w] = acc[w] + h
                    else:
                        acc[w] = h
            for w, m in acc.items():
                if not m.is_zero():
                    return False
        return True

    # -- delooping and elimination --------------------------------------------

    def deloop_generator(self, gid: int) -> tuple[int, int]:
        """Split a generator whose tangle has a loop into q+1 and q-1 copies."""
        grading, tangle = self.gens[gid]
        if not tangle.loops:
            raise ComplexError("generator has no loop to remove")
        # repr order: the loop taken first fixes the new generators' ids, and
        # pivot choices depend on those
        loop = min(tangle.loops, key=repr)
        base = tangle.without_loop(loop)
        g_p = self.add_generator(grading.shift(0, 2), base)
        g_m = self.add_generator(grading.shift(0, -2), base)
        ins = [(u, self.d[u][gid]) for u in self.d_in[gid]]
        outs = list(self.d[gid].items())
        self._drop_generator(gid)
        # the q+1 summand: dotted cap out, plain cup in; the q-1 summand the reverse
        for u, f in ins:
            plus, minus = deloop_split(f, "t", loop, self.spec)
            self.set_entry(u, g_p, plus)
            self.set_entry(u, g_m, minus)
        for v, f in outs:
            plus, minus = deloop_split(f, "s", loop, self.spec)
            self.set_entry(g_p, v, plus)
            self.set_entry(g_m, v, minus)
        return g_p, g_m

    def deloop_all(self) -> None:
        again = True
        while again:
            again = False
            for gid in sorted(self.gens):
                if gid in self.gens and self.gens[gid][1].loops:
                    self.deloop_generator(gid)
                    again = True

    def gaussian_eliminate(self, s: int, t: int) -> None:
        """Remove an invertible entry s -> t with the zig-zag correction."""
        m = self.entry(s, t)
        if m is None:
            raise ComplexError("no such differential entry")
        lam = m.invertible_scalar()
        if lam is None:
            raise ComplexError("entry is not an isomorphism")
        # a -> (lam^-1 id) -> b, negated; entries are in normal form, so
        # composing with lam^-1 id is scaling by lam^-1
        ins = [(u, self.d[u][t].scale(-inverse(lam))) for u in self.d_in[t] if u != s]
        outs = [(v, f) for v, f in self.d[s].items() if v != t]
        self._drop_generator(s)
        self._drop_generator(t)
        for u, a in ins:
            for v, b in outs:
                corr = a.then(b, self.spec)
                old = self.entry(u, v)
                self.set_entry(u, v, old + corr if old else corr)

    def _drop_generator(self, gid: int) -> None:
        for v in self.d.pop(gid, {}):
            self.d_in[v].discard(gid)
            self.pivots.discard((gid, v))
        for u in self.d_in.pop(gid, set()):
            self.d[u].pop(gid, None)
            self.pivots.discard((u, gid))
        del self.gens[gid]

    def simplify(self, pivot_policy: str = "minfill") -> "BigradedComplex":
        """Deloop all circles and cancel invertible entries to a fixpoint.

        The default policy prefers pivots minimizing the
        (incoming-1)*(outgoing-1) fill-in, ties broken by the source's
        (h2, q2, id); the alternative "ordered" policy takes the lowest
        (h2, q2, id) outright.  Homology does not depend on the choice.

        Candidates come from `pivots`, the set of lambda * identity entries
        that `set_entry` and `_drop_generator` keep current, so no pass
        rescans the differential.  Elimination creates no generator and no
        loop, so delooping once up front suffices.
        """
        self.deloop_all()

        def cost(st):
            s, t = st
            g = self.gens[s][0]
            if pivot_policy == "ordered":
                return (g.h2, g.q2, s, t)
            fill = (len(self.d_in[t]) - 1) * (len(self.d[s]) - 1)
            return (fill, g.h2, g.q2, s, t)

        while self.pivots:
            self.gaussian_eliminate(*min(self.pivots, key=cost))
        return self

    # -- homology --------------------------------------------------------------

    def homology_dims(self, window: Optional[Window] = None) -> DimTable:
        """Kernel-minus-image dimensions per grading, inside the window.

        Requires every generator's tangle to be empty (fully scanned closed
        diagram); the sparse rank computation runs per (h2, q2) block.  With
        c != 0 the differential is not q-homogeneous: blocks are keyed by h2
        alone and each dimension is recorded at q2 = 0, as `Cube.blocks` does.
        """
        if window is None:
            window = Window()
        if self.truncation is not None:
            safe = Window(
                None if self.truncation.h2_lo is None else self.truncation.h2_lo + 2,
                None if self.truncation.h2_hi is None else self.truncation.h2_hi - 2,
                self.truncation.q2_lo,
                self.truncation.q2_hi,
            )
            if not safe.contains_window(window):
                raise ComplexError(
                    f"window {window} exceeds the built region {self.truncation} "
                    "minus one column of slack"
                )
        for gid, (_, tangle) in self.gens.items():
            if tangle.keys():
                raise ComplexError(
                    "homology needs a fully reduced complex over the empty tangle"
                )
        graded = self.spec.c == 0
        blocks: dict[tuple[int, int], list[int]] = {}
        for gid, (g, _) in self.gens.items():
            blocks.setdefault((g.h2, g.q2 if graded else 0), []).append(gid)
        ranks: dict[tuple[int, int], int] = {}
        for (h2, q2), gids in blocks.items():
            rows = []
            for s in gids:
                row = {t: x for t, m in self.d.get(s, {}).items() if (x := m.as_scalar())}
                if row:
                    rows.append(row)
            ranks[(h2, q2)] = len(row_reduce(rows))
        out = DimTable()
        for (h2, q2), gids in blocks.items():
            dim = len(gids) - ranks.get((h2, q2), 0) - ranks.get((h2 - 2, q2), 0)
            g = Grading(h2, q2)
            if dim and window.contains(g):
                out.add(g, dim)
        return out

    def euler_characteristic(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for g, _ in self.gens.values():
            if g.h2 % 2:
                raise ComplexError("Euler characteristic needs integral h")
            out[g.q2] = out.get(g.q2, 0) + (-1) ** (g.h2 // 2)
        return {q: c for q, c in out.items() if c}

    # -- structural operations ---------------------------------------------------

    def shift(self, dh2: int, dq2: int) -> "BigradedComplex":
        c = self.copy()
        c.gens = {gid: (g.shift(dh2, dq2), t) for gid, (g, t) in self.gens.items()}
        return c


# -- gluing machinery -------------------------------------------------------


def glue_tangle(t: FlatTangle, pairs: list[tuple]) -> tuple[FlatTangle, dict]:
    """Identify boundary points of t in pairs.

    Returns the glued tangle and a key map old arc/loop -> new arc or loop.
    A chain of arcs closing up becomes a loop named ('loop', frozenset of
    original arcs merged into it), deterministically.
    """
    arcs = set(t.arcs)
    loops = set(t.loops)
    arc_at: dict = {}
    for a in arcs:
        for p in a:
            arc_at[p] = a
    origin: dict = {a: frozenset([a]) for a in arcs}  # current arc -> original arcs
    keymap: dict = {k: k for k in list(arcs) + list(loops)}

    def remap(olds, new):
        for o in olds:
            keymap[o] = new

    for p, q in pairs:
        if p not in arc_at or q not in arc_at:
            raise ComplexError(f"gluing point {p!r} or {q!r} not on the boundary")
        A = arc_at.pop(p)
        if q not in A:
            B = arc_at.pop(q)
        else:
            B = A
        if A == B:
            if A != frozenset((p, q)):
                raise ComplexError("cannot glue two interior points of one arc")
            # arc closes into a loop
            loop = ("loop", origin[A])
            arcs.discard(A)
            loops.add(loop)
            remap(origin[A], loop)
            del origin[A]
            continue
        (r,) = A - {p}
        (s,) = B - {q}
        arcs.discard(A)
        arcs.discard(B)
        C = frozenset((r, s))
        arcs.add(C)
        merged = origin[A] | origin[B]
        origin[C] = merged
        del origin[A]
        if B in origin:
            del origin[B]
        arc_at[r] = C
        arc_at[s] = C
        remap(merged, C)
    return FlatTangle(arcs, loops), keymap


def tangle_gluing(t: FlatTangle, pairs: list[tuple]) -> tuple:
    """(glued tangle, keymap, source-arc node pairs joined) for gluing t along pairs."""
    glued, keymap = glue_tangle(t, pairs)
    arc_at = {p: a for a in t.arcs for p in a}
    return glued, keymap, [(("s", arc_at[p]), ("s", arc_at[q])) for p, q in pairs]


def glue_cobordism(comps: tuple, src: tuple, tgt: tuple) -> Cobordism:
    """Self-glue a disjoint union of components between the tangles glued as src and tgt.

    `src` and `tgt` come from `tangle_gluing` with the same pairs.  The
    vertical boundary line at a point joins its source and target arcs, so
    source arcs decide which components merge; each glued pair is one
    interval, lowering chi by one.  A component no pair touches is kept.
    """
    src_tangle, src_map, joins = src
    tgt_tangle, tgt_map, _ = tgt
    comp_of = {node: i for i, c in enumerate(comps) for node in c.nodes}
    parent = list(range(len(comps)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for na, nb in joins:
        ra, rb = find(comp_of[na]), find(comp_of[nb])
        if ra != rb:
            parent[ra] = rb
    counts: dict[int, int] = {}
    for na, _ in joins:
        root = find(comp_of[na])
        counts[root] = counts.get(root, 0) + 1
    groups: dict[int, list[int]] = {}
    for i in range(len(comps)):
        groups.setdefault(find(i), []).append(i)

    out = []
    for root, idxs in groups.items():
        if root not in counts:
            out.append(comps[root])
            continue
        nodes = set()
        chi = -counts[root]
        dots = 0
        for i in idxs:
            c = comps[i]
            chi += c.euler_characteristic()
            dots += c.dots
            for side, k in c.nodes:
                nodes.add((side, (src_map if side == "s" else tgt_map)[k]))
        out.append(_glued_component(frozenset(nodes), dots, chi))
    return Cobordism(src_tangle, tgt_tangle, out)


def _disjoint_tangle(a: FlatTangle, b: FlatTangle) -> FlatTangle:
    if a.points & b.points or a.loops & b.loops:
        raise ComplexError("tangles to tensor must have disjoint labels")
    return FlatTangle(list(a.arcs) + list(b.arcs), list(a.loops) + list(b.loops))


def planar_tensor(
    a: BigradedComplex,
    b: BigradedComplex,
    gluing: Optional[list[tuple]] = None,
) -> BigradedComplex:
    """Koszul-signed tensor of two complexes, then glue listed point pairs.

    Gradings add; the sign on id (x) d_b entries is (-1)^(h(a-generator)).
    """
    if a.spec != b.spec:
        raise ComplexError("tensor factors must share a Frobenius spec")
    out = BigradedComplex(a.spec)
    pairs = list(gluing or [])
    gluings: dict = {}  # (tangle of a, tangle of b) -> tangle_gluing of their union
    ends: dict[tuple[int, int], tuple[int, tuple]] = {}  # (ga, gb) -> (generator, gluing)
    for ga in a.generators():
        gr_a, t_a = a.gens[ga]
        for gb in b.generators():
            gr_b, t_b = b.gens[gb]
            if (t_a, t_b) not in gluings:
                gluings[(t_a, t_b)] = tangle_gluing(_disjoint_tangle(t_a, t_b), pairs)
            glued = gluings[(t_a, t_b)]
            ends[(ga, gb)] = (out.add_generator(gr_a + gr_b, glued[0]), glued)
    ids_a = {ga: identity_cobordism(t).comps for ga, (_, t) in a.gens.items()}
    ids_b = {gb: identity_cobordism(t).comps for gb, (_, t) in b.gens.items()}
    memo: dict = {}  # (factor cobordism, other tangle, side) -> its glued normal form

    def glue_term(cob, other, side, ids):
        key = (cob, other, side)
        if key not in memo:
            pair_s, pair_t = (cob.source, other), (cob.target, other)
            if side == "b":
                pair_s, pair_t = pair_s[::-1], pair_t[::-1]
            memo[key] = _reduce_cobordism(
                glue_cobordism(cob.comps + ids, gluings[pair_s], gluings[pair_t]), out.spec)
        return memo[key]

    for (ga, gb), (gid, src) in ends.items():
        gr_a, t_a = a.gens[ga]
        t_b = b.gens[gb][1]
        if gr_a.h2 % 2:
            raise ComplexError("Koszul sign needs integral h on the left factor")
        # d_a (x) id, then (-1)^h id (x) d_b
        sign = -1 if (gr_a.h2 // 2) % 2 else 1
        moves = [((ta, gb), m, 1, t_b, "a", ids_b[gb]) for ta, m in a.d[ga].items()]
        moves += [((ga, tb), m, sign, t_a, "b", ids_a[ga]) for tb, m in b.d[gb].items()]
        for pair, m, sgn, other, side, ids in moves:
            tgt_id, tgt = ends[pair]
            entry = MorphismCombo(src[0], tgt[0])
            for cob, v in m.terms.items():
                for normal, w in glue_term(cob, other, side, ids):
                    entry._add_term(normal, sgn * v * w)
            out.set_entry(gid, tgt_id, entry)
    return out
