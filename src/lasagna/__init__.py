"""Exact computations of gl2 link homology, Rozansky-Willis homology of
links in connected sums of S^1 x S^2, and skein lasagna module dimensions
of 2-handlebodies, everything over Q."""

from .diagram import DiagramError, LinkDiagram, parse_diagram
from .gradings import DimTable, Grading, Window, parse_window


def __getattr__(name):
    # cobcat loads on first use, so `import lasagna.cli` on a cache hit skips it
    if name in ("FrobeniusSpec", "KHOVANOV", "LEE"):
        from . import cobcat

        return getattr(cobcat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DiagramError",
    "DimTable",
    "FrobeniusSpec",
    "Grading",
    "KHOVANOV",
    "LEE",
    "LinkDiagram",
    "Window",
    "parse_diagram",
    "parse_window",
]
