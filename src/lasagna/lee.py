"""Lee deformation utilities: closed-surface evaluation and rank oracles.

The Lee algebra is Q[x]/(x^2-1); over it every link has total homology rank
2^(number of components), which makes it a cheap nondegeneracy oracle, read
off the scanning complex and checked against the dense Lee cube in tests.  The
closed-surface evaluator computes Frobenius traces directly and serves as
the independent check of the cobordism-category reduction rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .cobcat import LEE
from .diagram import LinkDiagram
from .khovanov import reidemeister_reduced, scan_complex


@dataclass(frozen=True)
class ClosedSurface:
    """Disjoint closed orientable surfaces: (genus, dots) per component."""

    components: tuple[tuple[int, int], ...]
    c: Fraction = Fraction(0)

    def __post_init__(self):
        for g, dots in self.components:
            if g < 0 or dots < 0:
                raise ValueError("genus and dot count must be nonnegative")


def _trace_component(genus: int, dots: int, c: Fraction) -> Fraction:
    """Evaluate one component as the trace eps((2x)^genus x^dots).

    In Q[x]/(x^2-c): x^2 = c, eps(1) = 0, eps(x) = 1, and adding a handle
    multiplies by 2x (the neck-cutting identity m(Delta(1)) = 2x).
    """
    # represent the running element a + b x
    a, b = 1, 0
    for _ in range(genus):
        a, b = 2 * c * b, 2 * a
    for _ in range(dots):
        a, b = c * b, a
    return b


def eval_closed_surface(s: ClosedSurface) -> Fraction:
    out = 1
    for genus, dots in s.components:
        out *= _trace_component(genus, dots, s.c)
    return out


def lee_total_dim(d: LinkDiagram) -> int:
    """Total Lee homology dimension of a closed diagram: 2^components.

    Ranked on the scanning complex of `reidemeister_reduced(d)`, whose Lee
    homology is per h2 only.
    """
    if d.regions:
        raise ValueError("lee_total_dim needs a diagram without surgery regions")
    return scan_complex(reidemeister_reduced(d), LEE).homology_dims().total()
