"""Correctness checks and constructions that only the tests use.

Each works on the package's public data (a complex's entries, a chain map's
rows, a diagram's edges), so the package itself carries none of them.
"""

from lasagna.cobcat import Cobordism, Component, FlatTangle, MorphismCombo
from lasagna.cobmaps import homology_matrix
from lasagna.complexes import BigradedComplex
from lasagna.densecube import ChainMap, Cube, TrackedReduction
from lasagna.gradings import DimTable
from lasagna.linalg import row_reduce
from lasagna.diagram import (
    Crossing,
    LinkDiagram,
    RegionStrand,
    SurgeryRegion,
    check_planar,
    crossing,
    fresh_name,
)
from lasagna.skein import (
    _classical_to_global,
    _transition_matrix,
    _window_stages,
    transition_down,
)


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


def copied(c: BigradedComplex) -> BigradedComplex:
    """An independent copy of a complex, to compare a later state against."""
    out = BigradedComplex(c.spec)
    out.gens = dict(c.gens)
    out.d = {s: dict(row) for s, row in c.d.items()}
    out.d_in = {t: set(srcs) for t, srcs in c.d_in.items()}
    out.units = {s: dict(row) for s, row in c.units.items()}
    out.units_in = {t: set(srcs) for t, srcs in c.units_in.items()}
    out._next = c._next
    return out


def elementary_saddle(source: FlatTangle, target: FlatTangle, moved_keys_s, moved_keys_t) -> Cobordism:
    """Cobordism which is a product away from one saddle component."""
    nodes = {("s", k) for k in moved_keys_s} | {("t", k) for k in moved_keys_t}
    comps = [Component(frozenset(nodes), 0, 0)]
    for k in set(source.keys()) - set(moved_keys_s):
        comps.append(Component(frozenset({("s", k), ("t", k)}), 0, 0))
    return Cobordism(source, target, comps)


def from_cobordism(cob: Cobordism, coeff=1) -> MorphismCombo:
    """A cobordism already in normal form: every component a disk with at most one dot."""
    pieces = list(zip(cob.comps, cob.circles))
    if any(c.genus or c.dots > 1 or len(circles) != 1 for c, circles in pieces):
        raise ValueError("cobordism not in normal form; reduce it")
    dots = frozenset(circles[0] for c, circles in pieces if c.dots)
    return MorphismCombo(cob.source, cob.target, {dots: coeff})


def boundary_walk(nodes: frozenset) -> list:
    """The boundary circles of a set of nodes ('s'|'t', arc-or-loop key), as node subsets.

    The reference for `cobcat.closure_circles`, which the package uses for
    every cobordism: each loop node is its own circle, and the arc nodes
    close up through the vertical boundary line at each point, which joins
    the source and the target arc there.
    """
    circles, s_at, t_at = [], {}, {}
    for node in nodes:
        side, k = node
        if type(k) is frozenset:
            at = s_at if side == "s" else t_at
            for p in k:
                at[p] = k
        else:
            circles.append(frozenset((node,)))
    if s_at.keys() != t_at.keys():
        raise ValueError("boundary points do not match on both sides")
    seen = set()
    for p, a in s_at.items():
        if a in seen:
            continue
        members, arc = [], a
        while True:  # on the source arc `arc`, entered at p
            seen.add(arc)
            x, y = arc
            p = y if x == p else x
            t = t_at[p]
            members += (("s", arc), ("t", t))
            x, y = t
            p = y if x == p else x
            arc = s_at[p]
            if arc is a:
                break
        circles.append(frozenset(members))
    return circles


def euler_characteristic(c: BigradedComplex) -> dict[int, int]:
    """The graded Euler characteristic q2 -> sum of (-1)^h over the generators."""
    out: dict[int, int] = {}
    for g, _ in c.gens.values():
        if g.h2 % 2:
            raise ValueError("Euler characteristic needs integral h")
        out[g.q2] = out.get(g.q2, 0) + (-1) ** (g.h2 // 2)
    return {q: n for q, n in out.items() if n}


def full_reduction(cube: Cube, q2s=None) -> TrackedReduction:
    """Reduce the cube to a zero-differential model (only in `q2s`, if given; c = 0)."""
    tr = TrackedReduction(cube, q2s=q2s)
    tr.eliminate_all()
    for g in tr.alive:
        if tr.d.get(g):
            raise AssertionError("full reduction left a nonzero differential")
    return tr


def bidegree_shifts(f: ChainMap) -> set[tuple[int, int]]:
    """The (h2, q2) moves of all nonzero entries of a chain map."""
    shifts = set()
    for g, row in f.entries.items():
        gg = f.src.gen_grading(*g)
        for tgt in row:
            tg = f.dst.gen_grading(*tgt)
            shifts.add((tg.h2 - gg.h2, tg.q2 - gg.q2))
    return shifts


def symmetrizer_average(sym, vec: dict) -> dict:
    """The average of the belt permutations on a chain: the weighted integral sum."""
    return {k: sym.weight * v for k, v in sym.apply(vec).items()}


def chain_level_transition(hi, lo) -> dict:
    """The symmetrized annihilation H(hi) -> H(lo) between window stages, the slow way.

    `homology_matrix` of the weighted chain-level composite P_lo∘F∘P_hi,
    P being `symmetrizer_average` and F `skein.transition_down`: every
    column runs both averages and F on chains.
    """
    F = transition_down(hi, lo, hi.H)
    return homology_matrix(
        lambda v: symmetrizer_average(lo.sym, F.apply(symmetrizer_average(hi.sym, v))),
        hi.H, lo.H, (0, -4 * len(hi.newest_pair)),
    )


def block_ranks(matrices: dict) -> dict:
    """Rank of each block of a `homology_matrix` result."""
    return {
        key: len(row_reduce([{i: c for i, c in enumerate(col) if c} for col in cols]))
        for key, cols in matrices.items()
    }


def dense_ranks(spec, window, r_max: int) -> tuple:
    """`skein._closed_form_ranks`' tables from the dense stage cubes: the stage
    tables and the ranks of the transitions into stages r_max-1 and r_max,
    in global grading."""
    stages = _window_stages(spec, window, r_max)

    def global_table(matrices: dict, st) -> DimTable:
        return DimTable({_classical_to_global(*k, st): v for k, v in block_ranks(matrices).items()})

    # only the two transitions read are built: stage r+1 -> stage r,
    # symmetrized, for r = r_max-2 (the flags) and r = r_max-1 (the table);
    # a transition's blocks are its source stage's
    prev_ranks, last_ranks = (
        global_table(_transition_matrix(stages[r + 1], stages[r]), stages[r + 1])
        for r in (r_max - 2, r_max - 1)
    )
    return [global_table(st.S, st) for st in stages], prev_ranks, last_ranks


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


def r2_poke(d: LinkDiagram, over_edge: str, under_edge: str) -> LinkDiagram:
    """Poke `over_edge` across `under_edge` (an R2 move adding 2 crossings).

    Raises ValueError when the result is not planar: the two edges do not
    bound one face with orientations the poke can follow.
    """
    if over_edge == under_edge:
        raise ValueError("poke needs two distinct edges")
    used = set(d.edges)
    a, b = over_edge, under_edge
    heads = d.head_slots()
    a_m = fresh_name(f"{a}'", used)
    b_m = fresh_name(f"{b}'", used)
    # free loops close back onto their original id; open strands get a top stub
    a2 = fresh_name(f"{a}'", used) if a in heads else a
    b2 = fresh_name(f"{b}'", used) if b in heads else b
    crossings = [list(c.edges) for c in d.crossings]
    for old, new in ((a, a2), (b, b2)):
        if old in heads and new != old:
            ci, slot = heads[old]
            crossings[ci][slot] = new
    # X1: a runs west->east over b (south->north); X2: a returns over b
    x1 = crossing((b, b_m), (a, a_m), 1)
    x2 = crossing((b_m, b2), (a_m, a2), -1)
    new_crossings = [Crossing(tuple(c), x.sign) for c, x in zip(crossings, d.crossings)]
    edges = list(d.edges) + [x for x in (a_m, a2, b_m, b2) if x not in d.edges]
    orient = dict(d.orientations)
    for x, base in ((a_m, a), (a2, a), (b_m, b), (b2, b)):
        orient[x] = d.orientations[base]
    big = LinkDiagram(edges, new_crossings + [x1, x2], d.framing_points, d.regions, orient)
    check_planar(big)
    return big


def r1_kink(d: LinkDiagram, edge: str, sign: int) -> LinkDiagram:
    """Add a kink of the given sign on `edge` (a Reidemeister I move)."""
    used = set(d.edges)
    e = edge
    heads = d.head_slots()
    e_m = fresh_name(f"{e}'", used)
    e2 = fresh_name(f"{e}'", used) if e in heads else e
    crossings = [list(c.edges) for c in d.crossings]
    if e in heads and e2 != e:
        ci, slot = heads[e]
        crossings[ci][slot] = e2
    x = crossing((e, e_m), (e_m, e2), sign)
    new_crossings = [Crossing(tuple(c), s.sign) for c, s in zip(crossings, d.crossings)] + [x]
    edges = list(d.edges) + [p for p in (e_m, e2) if p not in d.edges]
    orient = dict(d.orientations)
    orient[e_m] = d.orientations[e]
    orient[e2] = d.orientations[e]
    return LinkDiagram(edges, new_crossings, d.framing_points, d.regions, orient)
