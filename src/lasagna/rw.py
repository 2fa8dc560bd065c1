"""Rozansky-Willis homology of admissible links in connected sums of S1xS2.

The plus variant inserts framed full twists at every surgery region,
escalating the twist count until two consecutive levels agree inside the
requested window, computes the gl2 homology of the resulting S^3 diagram
and renormalizes by its writhe.  Links whose class fails 2-divisibility
(odd strand count through some region) get the all-zero verdict.  The minus
variant is the reflected plus variant of the mirror; disjoint manifold
components tensor.

Gradings outside the certified window are unknown, never silently zero; the
result records certified vanishing floors so tensor products can reason
about completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import LinkDiagram
from .gradings import DimTable, Grading, Window
from .khovanov import khr2_dims, tilde_renormalize
from .projector import stable_window, twist_all_regions, twisted_tilde_table


@dataclass
class RWResult:
    table: DimTable
    window: Window
    twists: dict
    stabilized: dict
    zero: bool = False
    floor: Optional[Grading] = None  # certified: table vanishes below these
    odd_writhe: bool = False  # half-integer gradings present(Koszul metadata)

    def all_stabilized(self) -> bool:
        return all(self.stabilized.values()) if self.stabilized else True

    def to_json_obj(self) -> dict:
        return {
            "dims": self.table.to_json_obj(),
            "window": str(self.window),
            "twists": dict(self.twists),
            "stabilized": {k: bool(v) for k, v in self.stabilized.items()},
            "zero": self.zero,
        }


def rw_plus(d: LinkDiagram, window: Window, k_max: int = 3) -> RWResult:
    """Truncated plus-variant homology via full-twist approximation."""
    if not d.regions:
        w = d.writhe()
        table = tilde_renormalize(khr2_dims(d), w)
        return RWResult(
            table.restrict(window),
            window,
            {},
            {},
            floor=_floor(table, window),
            odd_writhe=bool(w % 2),
        )
    if any(r.strand_count % 2 for r in d.regions):
        # non-2-divisible class: the projector is zero
        return RWResult(DimTable(), window, {}, {r.region_id: True for r in d.regions}, zero=True)
    if k_max < 2:
        raise ValueError("k_max must allow at least the k=1 vs k=2 comparison")
    # each level is computed only up to the window's top h (its scan is cut)
    tables = {1: twisted_tilde_table(d, 1, window.h2_hi)}
    k_used = None
    for k in range(1, k_max):
        tables[k + 1] = twisted_tilde_table(d, k + 1, window.h2_hi)
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
    table = tables[k_used]
    flags = {r.region_id: bool(stabilized and declared_ok) for r in d.regions}
    w_tw = twist_all_regions(d, k_used).writhe()
    return RWResult(
        table.restrict(window),
        window,
        {r.region_id: k_used for r in d.regions},
        flags,
        floor=_floor(table, window) if stabilized else None,
        odd_writhe=bool(w_tw % 2),
    )


def _floor(table: DimTable, window: Window) -> Optional[Grading]:
    """Certified vanishing bounds: the table is zero below these.

    The homological floor comes from the full stabilized table (the theory
    bounds the homology below); the quantum floor is taken over the entries
    whose homological degree lies inside the reported window, since high-h
    entries outside the window do not contribute to in-window tensor splits.

    A twisted table is computed only up to the window's top h
    (`twisted_tilde_table`), exactly there, and the full table's lowest h
    is then read unchanged unless the window lies wholly below the table's
    support.  The cut table is empty in that case alone (a link's homology
    never is), and the floor is the weaker but still certified bound just
    above the window.
    """
    if not len(table):
        return None if window.h2_hi is None else Grading(window.h2_hi + 1, 0)
    h_floor = min(g.h2 for g in table)
    in_h = [g.q2 for g in table
            if (window.h2_lo is None or g.h2 >= window.h2_lo)
            and (window.h2_hi is None or g.h2 <= window.h2_hi)]
    q_floor = min(in_h) if in_h else 0
    return Grading(h_floor, q_floor)


def rw_minus(d: LinkDiagram, window: Window, k_max: int = 3) -> RWResult:
    """Dual variant: reflected plus-variant of the mirror diagram."""
    res = rw_plus(d.mirror(), window.reflect(), k_max)
    return RWResult(
        res.table.reflect().restrict(window),
        window,
        res.twists,
        res.stabilized,
        zero=res.zero,
        floor=None,  # reflected tables are bounded above instead
        odd_writhe=res.odd_writhe,
    )


def rw_tensor(results: list[RWResult]) -> RWResult:
    """Graded tensor over disjoint manifold components.

    The certified window of the product is cut down so that every reported
    grading receives contributions only from certified gradings of the
    factors; this needs the factors' vanishing floors.
    """
    if not results:
        return RWResult(
            DimTable({Grading(0, 0): 1}), Window(), {}, {}, floor=Grading(0, 0)
        )
    acc = results[0]
    for nxt in results[1:]:
        acc = _tensor_pair(acc, nxt)
    return acc


def _tensor_pair(a: RWResult, b: RWResult) -> RWResult:
    if a.zero or b.zero:
        return RWResult(DimTable(), _sum_windows_zero(a.window, b.window), {}, {}, zero=True)
    if a.floor is None or b.floor is None:
        raise ValueError("tensor factors need certified vanishing floors")

    def hi(bound_a, floor_b, bound_b, floor_a):
        vals = []
        if bound_a is not None:
            vals.append(bound_a + floor_b)
        if bound_b is not None:
            vals.append(bound_b + floor_a)
        return min(vals) if vals else None

    h2_hi = hi(a.window.h2_hi, b.floor.h2, b.window.h2_hi, a.floor.h2)
    q2_hi = hi(a.window.q2_hi, b.floor.q2, b.window.q2_hi, a.floor.q2)

    window = Window(
        _add_bounds(a.window.h2_lo, b.window.h2_lo),
        h2_hi,
        _add_bounds(a.window.q2_lo, b.window.q2_lo),
        q2_hi,
    )
    table = a.table.convolve(b.table).restrict(window)
    twists = {**{f"a.{k}": v for k, v in a.twists.items()},
              **{f"b.{k}": v for k, v in b.twists.items()}}
    flags = {**{f"a.{k}": v for k, v in a.stabilized.items()},
             **{f"b.{k}": v for k, v in b.stabilized.items()}}
    return RWResult(
        table,
        window,
        twists,
        flags,
        floor=Grading(a.floor.h2 + b.floor.h2, a.floor.q2 + b.floor.q2),
        odd_writhe=a.odd_writhe != b.odd_writhe,
    )


def _add_bounds(x, y):
    """The sum of two window bounds; None (open) if either is open."""
    return None if x is None or y is None else x + y


def _sum_windows_zero(w1: Window, w2: Window) -> Window:
    return Window(_add_bounds(w1.h2_lo, w2.h2_lo), _add_bounds(w1.h2_hi, w2.h2_hi),
                  _add_bounds(w1.q2_lo, w2.q2_lo), _add_bounds(w1.q2_hi, w2.q2_hi))
