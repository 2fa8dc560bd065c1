"""Bigradings, grading windows, and dimension tables.

All homological/quantum gradings are stored doubled (h2 = 2h, q2 = 2q) so
that half-integer shifts coming from writhe renormalization stay exact
integers.  Display helpers format a doubled grading as an exact decimal when
integral and as ``p/2`` otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


def format_half(x2: int) -> str:
    """Render the half-integer x2/2: '3' when integral, '3/2' otherwise."""
    if x2 % 2 == 0:
        return str(x2 // 2)
    return f"{x2}/2"


def parse_half(text: str) -> int:
    """Inverse of format_half: '3' -> 6, '-3/2' -> -3."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) != 2:
            raise ValueError(f"only halves are supported, got {text!r}")
        return int(num)
    return 2 * int(text)


@dataclass(frozen=True, order=True)
class Grading:
    """A bigrading (h, q), stored doubled."""

    h2: int
    q2: int

    def shift(self, dh2: int, dq2: int) -> "Grading":
        return Grading(self.h2 + dh2, self.q2 + dq2)

    def neg(self) -> "Grading":
        return Grading(-self.h2, -self.q2)

    def __add__(self, other: "Grading") -> "Grading":
        return Grading(self.h2 + other.h2, self.q2 + other.q2)

    def __str__(self) -> str:
        return f"({format_half(self.h2)},{format_half(self.q2)})"


@dataclass(frozen=True)
class Window:
    """Truncation ranges in (h2, q2); None bounds are unbounded."""

    h2_lo: Optional[int] = None
    h2_hi: Optional[int] = None
    q2_lo: Optional[int] = None
    q2_hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.h2_lo is not None and self.h2_hi is not None and self.h2_lo > self.h2_hi:
            raise ValueError("window has h_lo > h_hi")
        if self.q2_lo is not None and self.q2_hi is not None and self.q2_lo > self.q2_hi:
            raise ValueError("window has q_lo > q_hi")

    def contains(self, g: Grading) -> bool:
        if self.h2_lo is not None and g.h2 < self.h2_lo:
            return False
        if self.h2_hi is not None and g.h2 > self.h2_hi:
            return False
        if self.q2_lo is not None and g.q2 < self.q2_lo:
            return False
        if self.q2_hi is not None and g.q2 > self.q2_hi:
            return False
        return True

    def contains_window(self, other: "Window") -> bool:
        """True if every grading inside `other` lies inside self."""

        def lo_ok(mine, theirs):
            return mine is None or (theirs is not None and theirs >= mine)

        def hi_ok(mine, theirs):
            return mine is None or (theirs is not None and theirs <= mine)

        return (
            lo_ok(self.h2_lo, other.h2_lo)
            and hi_ok(self.h2_hi, other.h2_hi)
            and lo_ok(self.q2_lo, other.q2_lo)
            and hi_ok(self.q2_hi, other.q2_hi)
        )

    def shift(self, dh2: int, dq2: int) -> "Window":
        def s(v, d):
            return None if v is None else v + d

        return Window(s(self.h2_lo, dh2), s(self.h2_hi, dh2), s(self.q2_lo, dq2), s(self.q2_hi, dq2))

    def reflect(self) -> "Window":
        """The window of (-h,-q) for (h,q) in self."""

        def n(v):
            return None if v is None else -v

        return Window(n(self.h2_hi), n(self.h2_lo), n(self.q2_hi), n(self.q2_lo))

    def __str__(self) -> str:
        def b(v):
            return "*" if v is None else format_half(v)

        return f"h:[{b(self.h2_lo)},{b(self.h2_hi)}] q:[{b(self.q2_lo)},{b(self.q2_hi)}]"


def parse_window(text: str) -> Window:
    """Parse 'hLo:hHi,qLo:qHi' with '*' (or empty) for an open bound."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"window must be 'hLo:hHi,qLo:qHi', got {text!r}")

    def bound(t: str) -> Optional[int]:
        t = t.strip()
        if t in ("", "*"):
            return None
        return parse_half(t)

    h = parts[0].split(":")
    q = parts[1].split(":")
    if len(h) != 2 or len(q) != 2:
        raise ValueError(f"window must be 'hLo:hHi,qLo:qHi', got {text!r}")
    return Window(bound(h[0]), bound(h[1]), bound(q[0]), bound(q[1]))


class DimTable:
    """Map Grading -> nonnegative dimension, with zero entries pruned."""

    def __init__(self, entries: Optional[dict] = None):
        self._d: dict[Grading, int] = {}
        if entries:
            for g, v in entries.items():
                if not isinstance(g, Grading):
                    g = Grading(*g)
                self.add(g, v)

    def add(self, g: Grading, v: int) -> None:
        if v < 0:
            raise ValueError("negative dimension")
        if v:
            self._d[g] = self._d.get(g, 0) + v

    def get(self, g: Grading) -> int:
        return self._d.get(g, 0)

    def __getitem__(self, g) -> int:
        if not isinstance(g, Grading):
            g = Grading(*g)
        return self._d.get(g, 0)

    def __iter__(self) -> Iterator[Grading]:
        return iter(sorted(self._d))

    def __len__(self) -> int:
        return len(self._d)

    def __eq__(self, other) -> bool:
        return isinstance(other, DimTable) and self._d == other._d

    def __repr__(self) -> str:
        inner = ", ".join(f"{g}:{v}" for g, v in self.items())
        return f"DimTable({inner})"

    def items(self) -> Iterable[tuple[Grading, int]]:
        return [(g, self._d[g]) for g in sorted(self._d)]

    def total(self) -> int:
        return sum(self._d.values())

    def shift(self, dh2: int, dq2: int) -> "DimTable":
        return DimTable({g.shift(dh2, dq2): v for g, v in self._d.items()})

    def reflect(self) -> "DimTable":
        """Dualize dimensions: entry at (h,q) moves to (-h,-q)."""
        return DimTable({g.neg(): v for g, v in self._d.items()})

    def restrict(self, w: Window) -> "DimTable":
        return DimTable({g: v for g, v in self._d.items() if w.contains(g)})

    def convolve(self, other: "DimTable") -> "DimTable":
        out = DimTable()
        for g1, v1 in self._d.items():
            for g2, v2 in other._d.items():
                out.add(g1 + g2, v1 * v2)
        return out

    def euler(self) -> dict[int, int]:
        """Graded Euler characteristic as {q2: coefficient}.

        Only defined when all h2 are even (integral homological degrees).
        """
        out: dict[int, int] = {}
        for g, v in self._d.items():
            if g.h2 % 2:
                raise ValueError("Euler characteristic needs integral h")
            out[g.q2] = out.get(g.q2, 0) + (-1) ** (g.h2 // 2) * v
        return {q2: c for q2, c in out.items() if c}

    def to_json_obj(self) -> list[dict]:
        return [
            {"h": format_half(g.h2), "q": format_half(g.q2), "dim": str(v)}
            for g, v in self.items()
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())
