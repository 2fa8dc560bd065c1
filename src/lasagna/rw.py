"""Rozansky-Willis homology of admissible links in connected sums of S1xS2.

`rw_plus` is the one entry point, the variant the lasagna colimit takes as
its input.  It inserts framed full twists at every surgery region,
escalating the twist count until two consecutive levels agree inside the
requested window, computes the gl2 homology of the resulting S^3 diagram
and renormalizes by its writhe.  The levels do not rescan: they are read
off one scan of the diagram twisted k_max times (`projector.TwistLadder`),
which goes on past full twist k only when level k + 1 is read.  Links
whose class fails 2-divisibility (odd strand count through some region)
get the all-zero verdict.  The dual (minus) variant is
`reflect . rw_plus . mirror`, should a caller ever need it.

Gradings outside the certified window are unknown, never silently zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import LinkDiagram
from .gradings import DimTable, Window
from .khovanov import khr2_dims, tilde_renormalize
from .projector import TwistLadder, stable_window, twisted_tilde_table


@dataclass
class RWResult:
    table: DimTable
    window: Window
    twists: dict
    stabilized: dict
    zero: bool = False

    def all_stabilized(self) -> bool:
        return all(self.stabilized.values())

    def to_json_obj(self) -> dict:
        return {
            "dims": self.table.to_json_obj(),
            "window": str(self.window),
            "twists": dict(self.twists),
            "stabilized": {k: bool(v) for k, v in self.stabilized.items()},
            "zero": self.zero,
        }


def rw_plus(d: LinkDiagram, window: Window, k_max: int = 3) -> RWResult:
    """Truncated plus-variant homology via full-twist approximation.

    The one Rozansky-Willis entry point.  A caller that needs the dual
    (minus) variant takes `reflect . rw_plus . mirror`: the reflected table
    of the mirror on the window reflected through the origin.
    """
    if not d.regions:
        # no twist to insert: the reduced scan, cut at the window's top
        w, top = d.writhe(), window.h2_hi
        table = tilde_renormalize(khr2_dims(d, Window(h2_hi=None if top is None else top - w)), w)
        return RWResult(table.restrict(window), window, {}, {})
    if any(r.strand_count % 2 for r in d.regions):
        # non-2-divisible class: the projector is zero
        return RWResult(DimTable(), window, {}, {r.region_id: True for r in d.regions}, zero=True)
    if k_max < 2:
        raise ValueError("k_max must allow at least the k=1 vs k=2 comparison")
    # every level comes from one scan, cut for the window's top h
    ladder = TwistLadder(d, k_max, window.h2_hi)
    tables = {1: twisted_tilde_table(ladder, 1)}
    k_used = None
    for k in range(1, k_max):
        tables[k + 1] = twisted_tilde_table(ladder, k + 1)
        if tables[k].restrict(window) == tables[k + 1].restrict(window):
            k_used = k
            break
    stabilized = k_used is not None
    if not stabilized:
        k_used = k_max
    h_window = Window(window.h2_lo, window.h2_hi)
    # every strand count is even here, so each region has a declared window
    declared_ok = all(stable_window(r.strand_count, k_used).contains_window(h_window)
                      for r in d.regions)
    flags = {r.region_id: bool(stabilized and declared_ok) for r in d.regions}
    return RWResult(
        tables[k_used].restrict(window),
        window,
        {r.region_id: k_used for r in d.regions},
        flags,
    )

