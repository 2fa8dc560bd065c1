"""Full-twist approximation of the through-degree-zero projector.

The idempotent complex on an even number of strands is approximated by k
positive full twists inserted at the surgery region.  One full twist on the
l-strand bundle adds l(l-1) crossings and, crucially, a +1 framing point on
every transit strand: the framed writhe of the insertion is then k*n^2 for
a region of signed transit count n, which is exactly the renormalization
that makes the twisted computations stabilize degree-by-degree.

The approximation is trusted inside a homological window whose upper cut
grows linearly with k (configurable slope); reported values are always
paired with the empirical k versus k+1 agreement check.  On an odd number
of strands the projector is zero and the window is empty.
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


def twist_all_regions(d: LinkDiagram, k: int, overrides: Optional[dict] = None) -> LinkDiagram:
    """Framed twist insertion at every region; overrides give per-region k."""
    out = d
    for r in list(d.regions):
        kk = (overrides or {}).get(r.region_id, k)
        out = approximate_projector(out, r.region_id, kk)
    return out


def stable_window(strands: int, k: int, slope: int = 1):
    """Declared trustworthy homological window [-inf, h_cut] of the k-twist model.

    Returns (window, zero_flag); odd strand counts give (None, True).  The
    default cut h_cut = slope*(k-1) always contains the top renormalized
    degree h = 0 and widens monotonically with k.
    """
    if strands % 2:
        return None, True
    if k < 1:
        raise ValueError("twist count must be positive")
    if strands == 0:
        return Window(), False  # the zero-strand projector is the empty diagram
    h_cut = slope * (k - 1)
    return Window(h2_lo=None, h2_hi=2 * h_cut), False


def twisted_tilde_table(d: LinkDiagram, k: int, overrides: Optional[dict] = None) -> DimTable:
    """tilde-renormalized gl2 dims of the fully twisted S^3 diagram."""
    twisted = twist_all_regions(d, k, overrides)
    return tilde_renormalize(khr2_dims(twisted), twisted.writhe())


def stabilization_check(
    d: LinkDiagram, region_id: str, k: int, window: Window
) -> bool:
    """Empirical convergence gate: k and k+1 twists agree inside the window.

    Regions other than `region_id` are twisted at level k on both sides.
    """
    reg = d.region(region_id)
    if reg.strand_count == 0 or not d.edges:
        return True
    t_k = twisted_tilde_table(d, k).restrict(window)
    t_k1 = twisted_tilde_table(d, k, {region_id: k + 1}).restrict(window)
    return t_k == t_k1
