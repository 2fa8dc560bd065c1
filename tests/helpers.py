"""Correctness checks and constructions that only the tests use.

Each works on the package's public data (a complex's entries, a chain map's
rows, a diagram's edges), so the package itself carries none of them.
"""

from lasagna.complexes import BigradedComplex
from lasagna.densecube import ChainMap, Cube
from lasagna.diagram import Crossing, LinkDiagram, RegionStrand, SurgeryRegion


def verify_d_squared(c: BigradedComplex) -> bool:
    """Whether every two-step path of the differential sums to zero."""
    for u in c.gens:
        acc = {}
        for v, f in c.d.get(u, {}).items():
            for w, g in c.d.get(v, {}).items():
                h = f.then(g, c.spec)
                acc[w] = acc[w] + h if w in acc else h
        if any(not m.is_zero() for m in acc.values()):
            return False
    return True


def bidegree_shifts(f: ChainMap) -> set[tuple[int, int]]:
    """The (h2, q2) moves of all nonzero entries of a chain map."""
    shifts = set()
    for g, row in f.entries.items():
        gg = f.src.gen_grading(*g)
        for tgt in row:
            tg = f.dst.gen_grading(*tgt)
            shifts.add((tg.h2 - gg.h2, tg.q2 - gg.q2))
    return shifts


def identity_map(cube: Cube) -> ChainMap:
    return ChainMap(cube, cube, {g: {g: 1} for g in cube.generators()})


def relabeled(d: LinkDiagram, prefix: str) -> LinkDiagram:
    """The same diagram with every edge and region id prefixed."""
    m = {e: f"{prefix}{e}" for e in d.edges}
    return LinkDiagram(
        [m[e] for e in d.edges],
        [Crossing(tuple(m[x] for x in c.edges), c.sign) for c in d.crossings],
        [(m[e], w) for e, w in d.framing_points],
        [
            SurgeryRegion(
                f"{prefix}{r.region_id}",
                tuple(RegionStrand(m[s.edge], s.direction) for s in r.strands),
            )
            for r in d.regions
        ],
        {m[e]: t for e, t in d.orientations.items()},
    )


def disjoint_union(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """a and b side by side; b is relabeled when their ids clash."""
    if set(a.edges) & set(b.edges) or {r.region_id for r in a.regions} & {
        r.region_id for r in b.regions
    }:
        b = relabeled(b, "r.")
    return LinkDiagram(
        list(a.edges) + list(b.edges),
        list(a.crossings) + list(b.crossings),
        list(a.framing_points) + list(b.framing_points),
        list(a.regions) + list(b.regions),
        {**a.orientations, **b.orientations},
    )
