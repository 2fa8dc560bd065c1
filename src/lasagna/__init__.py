"""Exact computations of gl2 link homology, Rozansky-Willis homology of
links in connected sums of S^1 x S^2, and skein lasagna module dimensions
of 2-handlebodies, everything over Q."""

# Each public name loads its module on first use, so `import lasagna.cli` on a
# cache hit loads no module the hit does not read.
_HOMES = {
    "DiagramError": "diagram",
    "LinkDiagram": "diagram",
    "parse_diagram": "diagram",
    "DimTable": "gradings",
    "Grading": "gradings",
    "Window": "gradings",
    "parse_window": "gradings",
    "FrobeniusSpec": "cobcat",
    "KHOVANOV": "cobcat",
    "LEE": "cobcat",
}


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{home}"), name)


__all__ = sorted(_HOMES)
