"""Khovanov-Rozansky gl2 homology of link diagrams over Q.

Conventions, fixed once here:

* The classical cube uses V = Q[x]/(x^2-c) with deg 1 = +1, deg x = -1,
  homological degree |s| - n_-, quantum degree deg + |s| + n_+ - 2n_-; the
  unknot sits at (0, -1), (0, +1).
* The gl2 normalization is the graded dual reindexed by the writhe:
      dim KhR2^{h,q}(d) = dim Kh^{-h, q + w(d)}(underlying unframed d),
  where w(d) is the writhe including framing-point weights.  A framing
  point of weight n is a pure quantum shift by -n, and the unknot anchors
  at (0,-1),(0,1) in both conventions.
* The tilde renormalization multiplies by (t q^-1)^(w/2): every class moves
  by (+w/2, -w/2), which lands in half-integer gradings for odd writhe.

The default computation scans the diagram one crossing at a time, gluing
the local two-term complex onto the partial complex and simplifying
(delooping + Gaussian elimination) after every step (D. Bar-Natan, "Fast
Khovanov homology computations", 2007); `kh_dims_bruteforce` is the
independent dense oracle.

Window truncation.  A caller that reads only classical degrees h2 >= m + 2
passes `scan_complex` the cut h2_min = m; classical h2 is even, so an odd
cut is raised by one, which keeps the same degrees exact.  Every scan step
tensors with a complex in h2 {0, 2} (a positive crossing), {-2, 0} (a
negative one) or 0 (a free loop), so a generator's classical h2 grows by
at most twice the number p of positive crossings still to scan: one below
the moving cut c = m - 2p can only end below m.  For a partial complex T,
write F(T) for the complex that scanning the remaining crossings without
a cut makes of it.  Three moves keep H(F(T)) equal to the full homology
in every h2 >= m + 2:
- simplification, a homotopy equivalence, which F keeps;
- leaving out the generators below c.  The ones kept span a subcomplex
  K, because differentials raise h2, and F of the quotient L has all its
  generators below m, so the long exact sequence
  H^(h2-2)(F L) -> H^h2(F K) -> H^h2(F T) -> H^h2(F L) makes the two
  agree in every h2 >= m + 2.  At h2 = m, F K only maps onto F T: a kept
  cycle may be the boundary of a generator left out.  That one column of
  margin is why the cut sits two below the lowest degree read;
- dropping a generator on c with no entry: it spans a direct summand, and
  F of it ends at or below m.
Each step (`glue_step`; `Scan.add` is the one per-crossing step of every
scan) builds the tensor product from the column below the moving cut up,
simplifies, so that generators on the cut can cancel against that column,
then leaves out everything below the cut and the generators on it with no
entry (`BigradedComplex.truncate`).  Without that column, the
generators on the cut whose cancelling partners lie below it stay, and
the truncated complexes can outgrow the untruncated ones.  After the last
crossing every entry is a scalar that simplification cancels, so the
column h2 = m empties and the scan holds only the degrees from m + 2 up.
q is never cut, since loops closed later shift it.  `khr2_dims` cuts at
the top of its window (gl2 h = -classical h), and
`projector.twisted_tilde_table` at the top of the rw window; `lee` and
the dense oracle never truncate.

A prefix shared by several closures.  The argument holds for any partial
complex T, and for any cut at or below c: the generators left out below
c' <= c end below c' + 2p <= m.  So one partial complex can serve several
diagrams that continue it, cut at the lowest of their moving cuts, each
read off after its own remaining steps and cut at its own m.
`projector.TwistLadder` scans the diagram with k_max full twists at every
region once: the crossings outside the regions, then full twist 1 at
every region, full twist 2, and so on.  Level k is the prefix up to full
twist k, closed by gluing each strand's open end on top of full twist k
to the point where the top of full twist k_max attaches: one step with no
crossing, so with no positive crossing to come.  At any point of that
prefix, level k + 1 has one more full twist at every region still to
scan.  On a region of u up- and d down-strands, l = u + d, a full twist
adds (u - d)^2 to the writhe with framing, so to m = w - h2_hi - 2 for a
tilde window top h2_hi, and u(u-1) + d(d-1) positive crossings, each of
which lowers the moving cut by 2.  Level k + 1's cut therefore sits at
level k's plus, summed over the regions,
    (u - d)^2 - 2(u(u-1) + d(d-1)) = 2(u + d) - (u + d)^2 = l(2 - l),
which is at most 0 for l = 0 and for every even l >= 2 (an odd l has the
zero projector and is never twisted).  Level k_max's moving cut is thus
the lowest at every point, and a prefix cut there is exact for every
level it serves.

The reduced diagram.  `kh_dims` and `lee_total_dim` scan
`reidemeister_reduced(d)`, which removes kinks and bigons until none is
left.  An R1 kink is a crossing with one edge at two adjacent slots (3 and
0 count as adjacent).  An R2 bigon is two crossings bounding a face of two
darts, traced as `check_planar` traces faces, whose two sides sit at under
slots (0 and 2, `crossing`) at both ends or at over slots at both: one
strand passes under the other twice.  A bigon under at one end and over at
the other is a clasp and stays.  Two shared edges adjacent at both
crossings are not enough: two nugatory crossings joined by two edges have
that shape with the rest of the diagram on both sides of the edges, and
bound no bigon face.  A removed crossing's strands pass straight through,
slot 0 to 2 and 1 to 3 as `LinkDiagram.components` pairs them, by one
union-find over the edges; an edge class left at no crossing is a free
loop, and a work-list revisits the crossings next to each removal, since
one can expose a kink.  Once no kink or bigon is left, the pass tries R3
moves, at the crossings in index order.  An R3 site is a face of three
darts at three distinct crossings, traced as the bigon's, with a side at
two slots of one parity: one strand passes over both crossings it meets
on the triangle, or under both.  A triangle whose every strand is over at
one end and under at the other is cyclic, and no move applies.  The move
slides that strand across the third crossing: along each of the three
strands the two crossings come in the other order, so each strand's two
outer edges trade crossings and its triangle side moves to the opposite
slots.  Every slot keeps its role in `crossing`'s layout, so the three
crossings keep their signs and their indices, and every edge its name.
A move is kept only when the work-list then removes a crossing, and is
undone otherwise, so every kept move lowers the crossing count and the
pass ends; after a kept move the search starts again at the first
crossing.  The move takes a dart off each face across a side of the
triangle, adds one to each face opposite a corner and leaves every other
face as it was, so it can free a kink or a bigon only when a face across
a side has at most three darts; other sites are not tried, which keeps
the search cheap on diagrams where no move pays, such as positive braid
closures.  A move that pays only after a second R3 move is not tried.
The pass is exact: the normalized classical table is invariant under
Reidemeister moves (M. Khovanov, Duke Math. J. 2000; D. Bar-Natan, Geom.
Topol. 2005, in the cobordism category `cobcat` implements), and Lee
homology too, while `khr2_dims` reindexes by the input's `d.writhe()`,
framing included, which R1 would change.
`scan_complex`, whose complex the tests inspect, `TwistLadder`, whose
crossing blocks index the twisted diagram, and the dense oracle
`kh_dims_bruteforce`, which stays independent of the pass, scan the
diagram they are given.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .cobcat import FlatTangle, FrobeniusSpec, KHOVANOV, MorphismCombo, elementary_saddle
from .complexes import BigradedComplex, planar_tensor
from .densecube import Cube
from .diagram import Crossing, LinkDiagram
from .gradings import DimTable, Grading, Window


def crossing_complex(ci: int, sign: int, spec: FrobeniusSpec) -> BigradedComplex:
    """Two-term local complex of one crossing; boundary points are (ci, slot).

    The 0-resolution joins slots (0,1) and (2,3) (the oriented smoothing of
    a positive crossing); the 1-resolution joins (0,3) and (1,2).  Shifts: positive crossing [0-res at (0,+1) -> 1-res at
    (+1,+2)], negative crossing [(-1,-2) -> (0,-1)], gradings doubled.
    """
    pts = [(ci, k) for k in range(4)]
    res0 = FlatTangle([{pts[0], pts[1]}, {pts[2], pts[3]}])
    res1 = FlatTangle([{pts[0], pts[3]}, {pts[1], pts[2]}])
    c = BigradedComplex(spec)
    if sign == 1:
        g0 = c.add_generator(Grading(0, 2), res0)
        g1 = c.add_generator(Grading(2, 4), res1)
    else:
        g0 = c.add_generator(Grading(-2, -4), res0)
        g1 = c.add_generator(Grading(0, -2), res1)
    saddle = elementary_saddle(res0, res1, res0.arcs, res1.arcs)
    c.set_entry(g0, g1, MorphismCombo.from_cobordism(saddle))
    return c


def reidemeister_reduced(d: LinkDiagram) -> LinkDiagram:
    """d with its R1 kinks and R2 bigons removed until none is left, R3 moves
    that free one included (module docstring).

    Keeps the remaining crossings in input order and names each edge class
    by its smallest id; framing points are dropped, since the classical
    table ignores them.  d itself when no move applies or d has regions.
    """
    if d.regions:
        return d
    ends = [list(c.edges) for c in d.crossings]
    parent = {e: e for e in d.edges}
    at: dict[str, list[tuple[int, int]]] = {e: [] for e in d.edges}  # root -> live slots
    for ci, c in enumerate(ends):
        for k, e in enumerate(c):
            at[e].append((ci, k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def other(ci, k):
        a, b = at[find(ends[ci][k])]
        return b if a == (ci, k) else a

    alive = [True] * len(ends)
    work = deque(range(len(ends)))

    def shift(moves):
        """Move the edge at slot a to slot b, for every (a, b) in moves at once."""
        edges = [ends[ci][k] for (ci, k), _ in moves]
        for (a, (ci, k)), e in zip(moves, edges):
            ends[ci][k] = e
            slots = at[find(e)]
            slots[slots.index(a)] = (ci, k)

    def narrow(x, y):
        """Whether the face across the side from dart x to dart y has at most three darts."""
        for _ in range(2):
            x = (x[0], (x[1] + 1) % 4)
            if x == y:
                return True
            x = other(*x)
        return (x[0], (x[1] + 1) % 4) == y

    def triangle(ci, s):
        """The sides (leaving dart, arriving dart) of the face of three darts
        that ci's slot s leaves by, when ci is its smallest corner and an R3
        move on it can pay; else None."""
        sides, x = [], (ci, s)
        for _ in range(3):
            y = other(*x)
            if y[0] < ci:
                return None
            sides.append((x, y))
            x = (y[0], (y[1] + 1) % 4)
        if x != (ci, s) or len({a[0] for a, _ in sides}) < 3:
            return None
        # a side at two slots of one parity is over at both ends or under at
        # both; a triangle without one is cyclic and admits no R3 move
        if all((a[1] - b[1]) % 2 for a, b in sides):
            return None
        # only a face across a side shrinks (module docstring)
        return sides if any(narrow(x, y) for x, y in sides) else None

    def remove(*cis):
        for ci in cis:
            alive[ci] = False
            for k, e in enumerate(ends[ci]):
                at[find(e)].remove((ci, k))
        # each strand passes straight through: slot 0 to 2, slot 1 to 3
        for ci in cis:
            e = ends[ci]
            for a, b in ((e[0], e[2]), (e[1], e[3])):
                ra, rb = sorted((find(a), find(b)))
                if ra != rb:
                    parent[rb] = ra
                    at[ra] += at.pop(rb)
        # a removal can expose a kink or a bigon at the crossings next to it
        for ci in cis:
            work.extend(cj for e in ends[ci] for cj, _ in at[find(e)])

    def reduce():
        """Run the work-list of R1 and R2 moves."""
        while work:
            ci = work.popleft()
            if not alive[ci]:
                continue
            for s in range(4):
                cj, t = other(ci, s)
                if cj == ci and (t - s) % 2:  # one edge at two adjacent slots: a kink
                    remove(ci)
                    break
                # a face of two darts (traced as check_planar does) whose sides
                # are under at both ends or over at both, the under slots being
                # 0 and 2 (`crossing`): not a clasp
                if cj != ci and (t - s) % 2 == 0 and other(cj, (t + 1) % 4) == (ci, (s - 1) % 4):
                    remove(ci, cj)
                    break

    reduce()
    ci = 0
    while ci < len(ends):
        for s in range(4):
            sides = alive[ci] and triangle(ci, s)
            if not sides:
                continue
            # slide: each side's outer edges trade ends, and the side moves
            # to the opposite slots (module docstring)
            moves = []
            for x, y in sides:
                xo, yo = (x[0], (x[1] + 2) % 4), (y[0], (y[1] + 2) % 4)
                moves += [(yo, x), (xo, y), (x, xo), (y, yo)]
            live = alive.count(True)
            shift(moves)
            work.extend(x[0] for x, _ in sides)
            reduce()
            if alive.count(True) < live:
                ci = -1  # a kept move: look again from the first crossing
                break
            shift([(b, a) for a, b in moves])
        ci += 1
    if all(alive):
        return d
    edges = [e for e in d.edges if find(e) == e]
    crossings = [Crossing(tuple(map(find, e)), c.sign)
                 for e, c, live in zip(ends, d.crossings, alive) if live]
    return LinkDiagram(edges, crossings, (), (), {e: d.orientations[e] for e in edges})


def scan_order(d: LinkDiagram) -> list[int]:
    """Greedy crossing order keeping the open boundary small."""
    n = len(d.crossings)
    incident: dict[str, list[int]] = {}
    for i, c in enumerate(d.crossings):
        for e in c.edges:
            incident.setdefault(e, []).append(i)
    remaining = set(range(n))
    order = []
    open_edges: set[str] = set()
    while remaining:
        def gain(i):
            edges = set(d.crossings[i].edges)
            return (-len(edges & open_edges), i)

        best = min(remaining, key=gain)
        remaining.discard(best)
        order.append(best)
        for e in set(d.crossings[best].edges):
            if e in open_edges:
                open_edges.discard(e)
            elif sum(1 for j in incident[e] if j == best) == 2:
                pass  # kink edge: both ends consumed immediately
            else:
                open_edges.add(e)
    return order


class Scan:
    """A closed diagram's complex, built one crossing at a time.

    `complex` is the partial complex of the crossings in `done`; its open
    boundary points are the slots (ci, k) whose edge's other end is not
    done yet.  `add` is the one per-crossing step of every scan.  With
    h2_min (an odd one raised by one), each step is cut at the moving cut
    h2_min - 2p, p the positive crossings still to add.
    """

    def __init__(self, d: LinkDiagram, spec: FrobeniusSpec = KHOVANOV,
                 h2_min: Optional[int] = None):
        self.d = d
        # token (ci, slot) for each crossing incidence of each edge
        self.slots: dict[str, list[tuple[int, int]]] = {e: [] for e in d.edges}
        for i, c in enumerate(d.crossings):
            for k, e in enumerate(c.edges):
                self.slots[e].append((i, k))
        self.done: set[int] = set()
        self.complex = BigradedComplex.unit(spec)
        self.h2_min = None if h2_min is None else h2_min + h2_min % 2
        self.positive_left = sum(1 for c in d.crossings if c.sign == 1)

    def add(self, ci: int, simplify: bool = True) -> None:
        """Glue crossing ci on along the edges it shares with the crossings done."""
        crossing = self.d.crossings[ci]
        self.positive_left -= crossing.sign == 1
        pairs = []
        for k, e in enumerate(crossing.edges):
            here = (ci, k)
            for other in self.slots[e]:
                if other == here:
                    continue
                oc, ok = other
                if oc in self.done or (oc == ci and ok < k):
                    pairs.append((other, here))
        piece = crossing_complex(ci, crossing.sign, self.complex.spec)
        cut = None if self.h2_min is None else self.h2_min - 2 * self.positive_left
        self.complex = glue_step(self.complex, piece, pairs, cut, simplify)
        self.done.add(ci)


def glue_step(cur: BigradedComplex, piece: BigradedComplex, pairs: list[tuple],
              cut: Optional[int] = None, simplify: bool = True) -> BigradedComplex:
    """Tensor piece onto cur, glue the pairs, simplify, then cut at classical h2 = cut."""
    # the column below the cut is built too, so that simplifying can
    # cancel generators on the cut against it before it is dropped
    cur = planar_tensor(cur, piece, pairs, None if cut is None else cut - 2)
    if simplify:
        cur.simplify()
    if cut is not None:
        cur.truncate(cut)
    return cur


def close_free_loops(cur: BigradedComplex, loops, simplify: bool = True) -> BigradedComplex:
    """Tensor on one crossingless circle per edge in loops."""
    for e in loops:
        circle = BigradedComplex(cur.spec)
        circle.add_generator(Grading(0, 0), FlatTangle((), [("free", e)]))
        cur = glue_step(cur, circle, [], None, simplify)
    return cur


def scan_complex(d: LinkDiagram, spec: FrobeniusSpec = KHOVANOV, simplify: bool = True,
                 h2_min: Optional[int] = None) -> BigradedComplex:
    """Classical-convention complex of a closed diagram, built by scanning.

    With h2_min, its homology is exact in classical h2 >= h2_min + 2 and,
    simplified with a crossing scanned, zero below (window truncation, see
    the module docstring); None keeps every degree.
    """
    if d.regions:
        raise ValueError("resolve surgery regions before computing homology")
    scan = Scan(d, spec, h2_min)
    for ci in scan_order(d):
        scan.add(ci, simplify)
    cur = close_free_loops(scan.complex, d.free_loops, simplify)
    if not simplify:
        cur.deloop_all()
    return cur


def kh_dims(d: LinkDiagram, h2_min: Optional[int] = None) -> DimTable:
    """Classical homology dimensions, scanned on `reidemeister_reduced(d)`.

    With h2_min the table is exact in h2 >= h2_min + 2 and, when d has a
    crossing, empty below, even if its reduction has none: a scan of free
    loops alone is never cut, so that table is restricted here.
    """
    table = scan_complex(reidemeister_reduced(d), h2_min=h2_min).homology_dims()
    if h2_min is not None and d.crossings:
        table = table.restrict(Window(h2_lo=h2_min + 2))
    return table


def kh_dims_bruteforce(d: LinkDiagram) -> DimTable:
    """Dense full-cube oracle, no simplification (guarded crossing count)."""
    return Cube(d.forget_regions()).homology_dims()


def khr2_reindex(classical: DimTable, writhe: int) -> DimTable:
    return DimTable(
        {Grading(-g.h2, g.q2 - 2 * writhe): v for g, v in classical.items()}
    )


def khr2_dims(d: LinkDiagram, window: Optional[Window] = None, bruteforce: bool = False) -> DimTable:
    """gl2-normalized homology dims: KhR2^{h,q} = Kh^{-h, q+w} as dimensions.

    A window with a top h2 truncates the scan at classical h2_min =
    -h2_hi - 2 (the dense oracle computes everything).
    """
    if bruteforce:
        classical = kh_dims_bruteforce(d)
    else:
        cut = None if window is None or window.h2_hi is None else -window.h2_hi - 2
        classical = kh_dims(d, cut)
    table = khr2_reindex(classical, d.writhe())
    if window is not None:
        table = table.restrict(window)
    return table


def tilde_renormalize(table: DimTable, writhe: int) -> DimTable:
    """Shift a gl2 table by (t q^-1)^(w/2): gradings move by (w/2, -w/2)."""
    return table.shift(writhe, -writhe)


# -- independent Euler-characteristic oracle ---------------------------------


def kauffman_bracket(d: LinkDiagram) -> dict[int, int]:
    """Kauffman bracket as {exponent of A: coefficient}, loops = -A^2-A^-2."""
    n = len(d.crossings)
    poly: dict[int, int] = {}
    for s in range(1 << n):
        # independent circle count (plain union-find over edges)
        parent = {e: e for e in d.edges}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, c in enumerate(d.crossings):
            e0, e1, e2, e3 = c.edges
            pairs = ((e0, e3), (e1, e2)) if (s >> i) & 1 else ((e0, e1), (e2, e3))
            for a, b in pairs:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        circles = len({find(e) for e in d.edges})
        sigma = n - 2 * s.bit_count()
        # multiply A^sigma by (-A^2 - A^-2)^circles
        term = {sigma: 1}
        for _ in range(circles):
            nxt: dict[int, int] = {}
            for k, v in term.items():
                nxt[k + 2] = nxt.get(k + 2, 0) - v
                nxt[k - 2] = nxt.get(k - 2, 0) - v
            term = nxt
        for k, v in term.items():
            poly[k] = poly.get(k, 0) + v
    return {k: v for k, v in poly.items() if v}


def jones_unnormalized(d: LinkDiagram) -> dict[int, int]:
    """Graded Euler characteristic {q2: coeff}; unknot gives q + 1/q.

    Computed from the bracket via J = (-1)^w A^{-3w} <D> with A^2 -> -q^-1.
    """
    w = sum(c.sign for c in d.crossings)  # diagram writhe, no framing terms
    bracket = kauffman_bracket(d)
    out: dict[int, int] = {}
    for k, v in bracket.items():
        e = k - 3 * w
        if e % 2:
            raise AssertionError("odd A-exponent in writhe-corrected bracket")
        half = e // 2
        coeff = v * ((-1) ** w) * ((-1) ** half)
        q2 = -2 * half
        out[q2] = out.get(q2, 0) + coeff
    return {q2: c for q2, c in out.items() if c}
