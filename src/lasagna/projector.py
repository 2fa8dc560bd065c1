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
number of strands the projector is zero and the window is empty.
"""

from __future__ import annotations

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


def stable_window(strands: int, k: int):
    """Declared trustworthy homological window [-inf, h_cut] of the k-twist model.

    Returns (window, zero_flag); odd strand counts give (None, True).  The
    cut h_cut = k - 1 always contains the top renormalized degree h = 0 and
    widens monotonically with k.
    """
    if strands % 2:
        return None, True
    if k < 1:
        raise ValueError("twist count must be positive")
    if strands == 0:
        return Window(), False  # the zero-strand projector is the empty diagram
    return Window(h2_lo=None, h2_hi=2 * (k - 1)), False


def twisted_tilde_table(d: LinkDiagram, k: int) -> DimTable:
    """tilde-renormalized gl2 dims of the fully twisted S^3 diagram."""
    twisted = twist_all_regions(d, k)
    return tilde_renormalize(khr2_dims(twisted), twisted.writhe())
