"""Full-twist approximation of the through-degree-zero projector.

The idempotent complex on an even number of strands is approximated by k
positive full twists inserted at the surgery region.  One full twist on the
l-strand bundle adds l(l-1) crossings and, crucially, a +1 framing point on
every transit strand: the framed writhe of the insertion is then k*n^2 for
a region of signed transit count n, which is exactly the renormalization
that makes the twisted computations stabilize degree-by-degree.

The approximation is trusted inside a homological window whose upper cut
grows linearly with k; reported values are always paired with the
empirical k versus k+1 agreement check that `rw.rw_plus` runs.  On an odd
number of strands the projector is zero.

The levels 1..k_max come from one scan (`TwistLadder`): the level-k_max
diagram is scanned once, the crossings outside the regions first, then full
twist 1 at every region, full twist 2, and so on.  Level k branches off
after full twist k: each strand's open point on top of it is glued to the
point where full twist k_max's top attaches, which closes the level-k
diagram.  A twisted scan can stop at the top of the rw window; the one
prefix is then cut for the loosest level it serves (see `TwistLadder`).
"""

from __future__ import annotations

from typing import Optional

from .complexes import BigradedComplex
from .diagram import LinkDiagram
from .gradings import DimTable, Window
from .khovanov import Scan, close_free_loops, glue_step, khr2_reindex, scan_order, tilde_renormalize


def approximate_projector(d: LinkDiagram, region_id: str, k: int) -> LinkDiagram:
    """Replace a region by k framed full twists (crossings + framing points)."""
    reg = d.region(region_id)
    strands = [s.edge for s in reg.strands]
    out = d.insert_full_twists(region_id, k)
    if k > 0:
        out = out.add_framing_points([(e, k) for e in strands])
    return out


def twist_all_regions(d: LinkDiagram, k: int) -> LinkDiagram:
    """Framed twist insertion of k full twists at every region.

    The crossings are d's, then each region's in turn, full twist by full
    twist (`insert_full_twists` appends its crossings in braid order).
    """
    out = d
    for r in list(d.regions):
        out = approximate_projector(out, r.region_id, k)
    return out


def stable_window(strands: int, k: int) -> Window:
    """Declared trustworthy homological window [-inf, h_cut] of the k-twist model.

    For an even strand count (an odd one has the zero projector, which
    `rw.rw_plus` answers first).  The cut h_cut = k - 1 always contains the
    top renormalized degree h = 0 and widens monotonically with k.
    """
    if k < 1:
        raise ValueError("twist count must be positive")
    if strands == 0:
        return Window()  # the zero-strand projector is the empty diagram
    return Window(h2_lo=None, h2_hi=2 * (k - 1))


class TwistLadder:
    """The twist levels 0 < k <= k_max of d from one scan of level k_max.

    With h2_hi, each level is exact in tilde h2 <= h2_hi.  The prefix is
    cut at level k_max's moving cut, the lowest of the levels' on even
    strand counts (`khovanov`'s window truncation, for a prefix shared by
    several closures); level k's closure glues its open strand ends with
    no crossing and is cut at level k's own final cut.  Levels are read in
    increasing order, and the prefix goes on past full twist k only when
    level k + 1 is asked for.
    """

    def __init__(self, d: LinkDiagram, k_max: int, h2_hi: Optional[int] = None):
        if k_max < 1:
            raise ValueError("a twist ladder needs at least one full twist")
        if any(r.strand_count % 2 for r in d.regions):
            raise ValueError("full twists approximate the projector on even strand counts only")
        top = twist_all_regions(d, k_max)
        self.k_max = k_max
        self.n_squared = sum(r.signed_transit ** 2 for r in d.regions)
        self.writhe0 = d.writhe()
        self.free_loops = top.free_loops
        self.closed_strands = set(d.free_loops)
        # blocks[t]: full twist t + 1 at every region (crossing indices of top)
        self.blocks: list[list[int]] = [[] for _ in range(k_max)]
        first = len(d.crossings)
        for r in d.regions:
            size = r.strand_count * (r.strand_count - 1)
            for t in range(k_max):
                self.blocks[t] += range(first + t * size, first + (t + 1) * size)
            first += k_max * size
        self.pending = scan_order(d.forget_regions())  # the crossings outside the regions
        self.h2_hi = h2_hi
        self.scan = Scan(top, h2_min=self.final_cut(k_max))
        self.level_read = 0

    def writhe(self, k: int) -> int:
        """The framed writhe of level k."""
        return self.writhe0 + k * self.n_squared

    def final_cut(self, k: int) -> Optional[int]:
        """Level k's classical cut for tilde h2 <= h2_hi, raised to even like `Scan`'s."""
        if self.h2_hi is None:
            return None
        m = self.writhe(k) - self.h2_hi - 2
        return m + m % 2

    def level(self, k: int) -> BigradedComplex:
        """The classical complex of level k (exact in tilde h2 <= h2_hi); scans up to full twist k."""
        if not max(self.level_read, 1) <= k <= self.k_max:
            raise ValueError(f"a ladder up to level {self.k_max} that has read level "
                             f"{self.level_read} cannot read level {k}")
        for block in self.blocks[self.level_read:k]:
            self.pending += block
        self.level_read = k
        for ci in self.pending:
            self.scan.add(ci)
        self.pending = []
        cur = self.scan.complex
        pairs = self._closing_pairs(k) if k < self.k_max else []
        if pairs:
            cur = glue_step(cur, BigradedComplex.unit(cur.spec), pairs, self.final_cut(k))
        return close_free_loops(cur, self.free_loops)

    def _closing_pairs(self, k: int) -> list[tuple]:
        """Each strand's open point on top of full twist k, with the point the top of full twist k_max meets."""
        crossings, slots = self.scan.d.crossings, self.scan.slots
        following = set(self.blocks[k])
        above = {ci for block in self.blocks[k:] for ci in block}

        def across(point):
            # the other end of the edge at this slot
            a, b = slots[crossings[point[0]].edges[point[1]]]
            return b if a == point else a

        pairs = []
        for ci in self.blocks[k - 1]:
            for slot, e in enumerate(crossings[ci].edges):
                point = across((ci, slot))
                # an edge into the next full twist leaves this one's top, but a
                # strand closed on itself in d keeps one edge from the top of
                # full twist k_max round to the bottom of full twist 1
                if point[0] not in following or e in self.closed_strands:
                    continue
                # follow the strand up through full twists k + 1 .. k_max
                while point[0] in above:
                    point = across((point[0], (point[1] + 2) % 4))
                pairs.append(((ci, slot), point))
        return pairs


def twisted_tilde_table(ladder: TwistLadder, k: int) -> DimTable:
    """tilde-renormalized gl2 dims of level k: the S^3 diagram with k framed full twists at every region.

    The tilde shift is h2 = w - classical h2, w the level's writhe with
    framing; a ladder cut at h2_hi gives the degrees h2 <= h2_hi.
    """
    w = ladder.writhe(k)
    table = tilde_renormalize(khr2_reindex(ladder.level(k).homology_dims(), w), w)
    # a scan with no crossing is never cut
    return table if ladder.h2_hi is None else table.restrict(Window(h2_hi=ladder.h2_hi))
