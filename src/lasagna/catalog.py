"""Constructors for the diagrams used by the library, CLI fixtures and tests.

Braid conventions: generators are numbered 1..n-1; a positive letter +p is
the crossing where the strand entering at position p passes over the strand
entering at position p+1 (so closures of positive words are positive links,
e.g. closure(sigma_1^3) is the right-handed trefoil with writhe 3).
"""

from __future__ import annotations

import itertools
import random

from .diagram import DOWN, UP, Crossing, LinkDiagram, SurgeryRegion, crossing, fresh_name


def empty_diagram() -> LinkDiagram:
    return LinkDiagram([], [], [], [], {})


def unknot() -> LinkDiagram:
    return LinkDiagram(["a"], [], [], [], {"a": UP})


def unknot_with_framing(weight: int) -> LinkDiagram:
    return LinkDiagram(["a"], [], [("a", weight)], [], {"a": UP})


def unlink(n: int) -> LinkDiagram:
    edges = [f"a{i}" for i in range(n)]
    return LinkDiagram(edges, [], [], [], {e: UP for e in edges})


def empty_surgery(m: int = 1) -> LinkDiagram:
    """The empty link in #^m(S^1 x S^2): no edges, m surgery regions."""
    regions = [SurgeryRegion(str(j + 1), ()) for j in range(m)]
    return LinkDiagram([], [], [], regions, {})


def belt_link(up: int, down: int = 0, region_id: str = "1") -> LinkDiagram:
    """The belt link 1_l: parallel fiber strands through one surgery region."""
    return empty_surgery(1).add_belts(region_id, up, down)


def braid_closure(word: list[int], strands: int) -> LinkDiagram:
    """Close a braid word into a link diagram (all strands oriented up)."""
    for letter in word:
        if letter == 0 or abs(letter) >= strands:
            raise ValueError(f"braid letter {letter} out of range for {strands} strands")
    edges = [f"s{i}" for i in range(strands)]
    cur = list(edges)
    crossings = []
    fresh = (f"e{i}" for i in itertools.count(1))
    for letter in word:
        p = abs(letter) - 1
        a, b = cur[p], cur[p + 1]
        c, d = next(fresh), next(fresh)
        # paths a--d and b--c; a positive letter puts a--d over
        sign = 1 if letter > 0 else -1
        under, over = ((b, c), (a, d))[::sign]
        crossings.append(crossing(under, over, sign))
        cur[p], cur[p + 1] = c, d
        edges.extend([c, d])
    # close up: identify the top segment at each position with the bottom one
    subst = {top: f"s{i}" for i, top in enumerate(cur) if top != f"s{i}"}
    edges = [e for e in edges if e not in subst]
    crossings = [
        Crossing(tuple(subst.get(x, x) for x in c.edges), c.sign) for c in crossings
    ]
    return LinkDiagram(edges, crossings, [], [], {e: UP for e in edges})


def hopf_positive() -> LinkDiagram:
    return braid_closure([1, 1], 2)


def trefoil_right() -> LinkDiagram:
    return braid_closure([1, 1, 1], 2)


def trefoil_left() -> LinkDiagram:
    return braid_closure([-1, -1, -1], 2)


def figure_eight() -> LinkDiagram:
    return braid_closure([1, -2, 1, -2], 3)


def torus_link(strands: int, twists: int) -> LinkDiagram:
    """T(strands, twists) as the closure of (s1 ... s_{n-1})^twists."""
    word = [p for _ in range(twists) for p in range(1, strands)]
    return braid_closure(word, strands)


def random_braid_diagram(rng: random.Random, max_crossings: int = 8) -> LinkDiagram:
    strands = rng.choice([2, 2, 3, 3, 4])
    length = rng.randint(1, max_crossings)
    word = []
    for _ in range(length):
        p = rng.randint(1, strands - 1)
        word.append(p if rng.random() < 0.5 else -p)
    return braid_closure(word, strands)


def require_free_transit(d: LinkDiagram, reg: SurgeryRegion) -> None:
    """Raise unless every transit strand of `reg` is a free loop, as `encircle` needs."""
    if not {s.edge for s in reg.strands} <= set(d.free_loops):
        raise ValueError("encircle supports free-loop transit strands only")


def encircle(
    d: LinkDiagram, region_id: str, up: int, down: int
) -> tuple[LinkDiagram, list[list[str]]]:
    """Surround region `region_id`'s strand bundle by up+down meridian circles.

    This builds the S^3 cable diagram whose homology enters the lasagna
    colimit: each added circle crosses every transit strand twice (once over
    below the region, once under above it), nested circles do not cross each
    other, and all surgery-region markers are dropped from the result.

    Positively oriented circles run west-to-east below the bundle; a
    positively oriented circle and an upward strand link once positively.
    Both crossings of a strand with a circle have the sign (strand direction)
    x (circle orientation), each +1 for up and -1 for down.  Only diagrams
    whose transit strands are free loops are supported.

    Returns (diagram, belt_groups) where belt_groups lists, innermost first,
    the edge pieces of each added circle.  Other regions are kept; the
    target region's marker is dropped.

    Belt names are stable across the lasagna colimit's stages: up-belts
    count from the inside (`B<region>.<k>.`), down-belts from the outside
    (`B<region>.d<k>.`), each in 2n pieces.  Up-belts sit inside down-belts,
    so the (up + 1, down + 1) stack is the (up, down) one plus the pair at
    their boundary, the newest pair; around a strand-free region, where each
    belt is one free loop, the smaller cable is the larger one without that
    pair, edge for edge.  Strand pieces are renamed with the stack size.
    """
    reg = d.region(region_id)
    require_free_transit(d, reg)
    n = reg.strand_count
    m = up + down
    rest_regions = tuple(r for r in d.regions if r.region_id != region_id)
    used = set(d.edges)
    new = {}  # added edge -> orientation, in edge order
    # strand j is cut into 2m pieces: piece 0 keeps the original id and sits
    # outside the belt stack; going upward through the stack the strand meets
    # belt m-1 (outermost) first.
    strand_piece = []
    for s in reg.strands:
        pieces = [fresh_name(f"{s.edge}^.", used) for _ in range(2 * m - 1)]
        new.update(dict.fromkeys(pieces, d.orientations[s.edge]))
        strand_piece.append([s.edge] + pieces)
    # belt i (i = 0 innermost) is cut into 2n pieces; piece 0 is its west arc.
    belt_piece = []
    for i in range(m):
        label = i if i < up else f"d{m - 1 - i}"  # down-belts count from the outside
        base = fresh_name(f"B{region_id}.{label}.", used)
        pieces = [base] + [fresh_name(f"{base}^.", used) for _ in range(2 * n - 1)]
        new.update(dict.fromkeys(pieces, UP if i < up else DOWN))
        belt_piece.append(pieces)

    crossings = list(d.crossings)
    for j, s in enumerate(reg.strands):
        d_j = 1 if s.direction == UP else -1
        sp = strand_piece[j]
        for i, bp in enumerate(belt_piece):
            b_i = 1 if i < up else -1
            # below the bundle, belt i (west to east for b_i = +1) runs over
            # strand j from piece j to piece j + 1, between the strand's
            # pieces m - 1 - i and m - i
            crossings.append(crossing(
                (sp[m - 1 - i], sp[m - i])[::d_j], (bp[j], bp[j + 1])[::b_i], d_j * b_i
            ))
            # above it, strand j runs over belt i (east to west for b_i = +1)
            # between the strand's pieces m + i and m + i + 1; piece
            # 2n - 1 - j of the belt is east of strand j
            east = 2 * n - 1 - j
            crossings.append(crossing(
                (bp[(east + 1) % (2 * n)], bp[east])[::-b_i],
                (sp[m + i], sp[(m + i + 1) % (2 * m)])[::d_j],
                d_j * b_i,
            ))
    out = LinkDiagram(list(d.edges) + list(new), crossings, d.framing_points, rest_regions,
                      {**d.orientations, **new})
    return out, belt_piece
