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
number of strands the projector is zero.  A twisted scan can stop at the
top of the rw window (see `twisted_tilde_table`).
"""

from __future__ import annotations

from typing import Optional

from .diagram import LinkDiagram
from .gradings import DimTable, Window
from .khovanov import khr2_dims, tilde_renormalize


def approximate_projector(d: LinkDiagram, region_id: str, k: int) -> LinkDiagram:
    """Replace a region by k framed full twists (crossings + framing points)."""
    reg = d.region(region_id)
    strands = [s.edge for s in reg.strands]
    out = d.insert_full_twists(region_id, k)
    if k > 0:
        out = out.add_framing_points([(e, k) for e in strands])
    return out


def twist_all_regions(d: LinkDiagram, k: int) -> LinkDiagram:
    """Framed twist insertion of k full twists at every region."""
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


def twisted_tilde_table(d: LinkDiagram, k: int, h2_hi: Optional[int] = None) -> DimTable:
    """tilde-renormalized gl2 dims of the fully twisted S^3 diagram.

    With h2_hi, only the degrees h2 <= h2_hi: the tilde shift is h2 =
    w - classical h2, w the twisted writhe with framing, so the scan is cut
    at classical h2_min = w - h2_hi - 2 (`khovanov`'s window truncation).
    """
    twisted = twist_all_regions(d, k)
    w = twisted.writhe()
    window = None if h2_hi is None else Window(h2_hi=h2_hi - w)
    return tilde_renormalize(khr2_dims(twisted, window), w)
