"""Constructors for the diagrams used by the library, CLI fixtures and tests.

Braid conventions: generators are numbered 1..n-1; a positive letter +p is
the crossing where the strand entering at position p passes over the strand
entering at position p+1 (so closures of positive words are positive links,
e.g. closure(sigma_1^3) is the right-handed trefoil with writhe 3).
"""

from __future__ import annotations

import random

from .diagram import DOWN, UP, Crossing, LinkDiagram, SurgeryRegion, fresh_name


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
    fresh = 0

    def new_edge():
        nonlocal fresh
        fresh += 1
        return f"e{fresh}"

    for letter in word:
        p = abs(letter) - 1
        a, b = cur[p], cur[p + 1]
        c, d = new_edge(), new_edge()
        if letter > 0:
            # strand entering at p goes over: over-path a--d, under b--c
            crossings.append(Crossing((b, d, c, a), 1))
        else:
            # strand entering at p+1 goes over: over-path b--c, under a--d
            crossings.append(Crossing((a, b, d, c), -1))
        cur[p], cur[p + 1] = c, d
        edges.extend([c, d])
    # close up: identify the top segment at each position with the bottom one
    subst = {}
    for i in range(strands):
        if cur[i] != f"s{i}":
            subst[cur[i]] = f"s{i}"
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


def encircle(d: LinkDiagram, region_id: str, up: int, down: int) -> LinkDiagram:
    """Surround region `region_id`'s strand bundle by up+down meridian circles.

    This builds the S^3 cable diagram whose homology enters the lasagna
    colimit: each added circle crosses every transit strand twice (once over
    below the region, once under above it), nested circles do not cross each
    other, and all surgery-region markers are dropped from the result.

    Positively oriented circles run west-to-east below the bundle; a
    positively oriented circle and an upward strand link once positively.
    Only diagrams whose transit strands are free loops are supported.

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
    n = reg.strand_count
    m = up + down
    free = set(d.free_loops)
    for s in reg.strands:
        if s.edge not in free:
            raise ValueError("encircle supports free-loop transit strands only")
    rest_regions = tuple(r for r in d.regions if r.region_id != region_id)
    if m == 0:
        return (
            LinkDiagram(d.edges, d.crossings, d.framing_points, rest_regions, d.orientations),
            [],
        )

    used = set(d.edges)
    # strand j is cut into 2m pieces: piece 0 keeps the original id and sits
    # outside the belt stack; going upward through the stack the strand meets
    # belt m-1 (outermost) first.
    strand_piece = []
    for j, s in enumerate(reg.strands):
        pieces = [s.edge] + [fresh_name(f"{s.edge}^.", used) for _ in range(2 * m - 1)]
        strand_piece.append(pieces)
    # belt i (i = 0 innermost) is cut into 2n pieces; piece 0 is its west arc.
    belt_piece = []
    belt_sign = []
    for i in range(m):
        label = i if i < up else f"d{m - 1 - i}"  # down-belts count from the outside
        base = fresh_name(f"B{region_id}.{label}.", used)
        pieces = [base] + [fresh_name(f"{base}^.", used) for _ in range(2 * n - 1)] if n else [base]
        belt_piece.append(pieces)
        belt_sign.append(1 if i < up else -1)

    crossings = list(d.crossings)
    orient = dict(d.orientations)
    for j, s in enumerate(reg.strands):
        for p in strand_piece[j][1:]:
            orient[p] = orient[s.edge]
    for i in range(m):
        for p in belt_piece[i]:
            orient[p] = UP if belt_sign[i] == 1 else DOWN

    def rot_sign(over_dir, under_dir):
        # +1 when rotating the over direction 90 degrees ccw gives the under
        rot = {"+x": "+y", "+y": "-x", "-x": "-y", "-y": "+x"}
        return 1 if rot[over_dir] == under_dir else -1

    for j, s in enumerate(reg.strands):
        d_j = 1 if s.direction == UP else -1
        for i in range(m):
            # belt index i: bottom crossing is the (m-1-i)-th met from below
            lower = strand_piece[j][m - 1 - i]
            upper_b = strand_piece[j][m - i]
            # above the region: belt i met at step m+i
            lower_t = strand_piece[j][m + i]
            upper_t = strand_piece[j][(m + i + 1) % (2 * m)]
            # belt arcs: below the bundle the belt runs w->e for sign +1;
            # piece j of the bottom arc is west of strand j
            bp = belt_piece[i]
            b_w, b_e = bp[j], bp[j + 1]
            # top arc runs e->w for sign +1; east of strand j is piece n+(n-1-j)
            t_e = bp[n + (n - 1 - j)]
            t_w = bp[(n + (n - 1 - j) + 1) % (2 * n)]
            # -- bottom crossing: belt over, strand under --
            under_in, under_out = (lower, upper_b) if d_j == 1 else (upper_b, lower)
            if belt_sign[i] == 1:
                over_in, over_out, over_dir = b_w, b_e, "+x"
            else:
                over_in, over_out, over_dir = b_e, b_w, "-x"
            sign = rot_sign(over_dir, "+y" if d_j == 1 else "-y")
            if d_j == 1:
                # slot0 = under-in at south; ccw S,E,N,W
                slots = (under_in, b_e, under_out, b_w)
            else:
                # slot0 = under-in at north; ccw N,W,S,E
                slots = (under_in, b_w, under_out, b_e)
            _check_over(slots, sign, over_in)
            crossings.append(Crossing(slots, sign))
            # -- top crossing: strand over, belt under --
            under_dir = "-x" if belt_sign[i] == 1 else "+x"
            over_dir = "+y" if d_j == 1 else "-y"
            sign = rot_sign(over_dir, under_dir)
            over_in = lower_t if d_j == 1 else upper_t
            if belt_sign[i] == 1:
                # under-in at east; ccw E,N,W,S (north port holds upper_t)
                slots = (t_e, upper_t, t_w, lower_t)
            else:
                # under-in at west; ccw W,S,E,N
                slots = (t_w, lower_t, t_e, upper_t)
            _check_over(slots, sign, over_in)
            crossings.append(Crossing(slots, sign))

    edges = [e for e in d.edges]
    for j in range(n):
        edges.extend(strand_piece[j][1:])
    for i in range(m):
        edges.extend(belt_piece[i])
    out = LinkDiagram(edges, crossings, d.framing_points, rest_regions, orient)
    return out, [list(belt_piece[i]) for i in range(m)]


def _check_over(slots, sign, over_in) -> None:
    expect = slots[3] if sign == 1 else slots[1]
    if expect != over_in:
        raise AssertionError("encircle wiring bug: over strand misplaced")
