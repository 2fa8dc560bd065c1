"""Planar link diagrams with framing points and surgery-region markers.

A diagram is a PD-style combinatorial object: a set of edge ids, a list of
crossings (four incident edges in counterclockwise order starting from the
incoming under-strand, plus an explicit sign), integer-weighted framing
points on edges, and surgery regions each recording the ordered list of
strands passing through it.

Edge orientation bookkeeping: at a crossing ``(e0,e1,e2,e3)`` the
under-strand enters at slot 0 and leaves at slot 2; for sign +1 the
over-strand enters at slot 3 and leaves at slot 1, for sign -1 the other way
around.  An edge id therefore occurs either at no crossing slot (a free
loop) or at exactly one "head" slot and one "tail" slot.  The convention has
one home: `crossing(under, over, sign)` lays out every crossing a rewrite
adds, and `Crossing.in_slots` names the head slots that validation,
`LinkDiagram.head_slots` and the saddle read.

Surgery regions are markers only; they are never resolved here.  Twisting
and belting are pure diagram rewrites returning new values.  One structural
restriction is enforced for tractability: an edge may pass through at most
one region transit in total.
"""

from __future__ import annotations

import json
from collections.abc import Iterable


class DiagramError(ValueError):
    """Schema or consistency violation, with a location-bearing message."""


UP = "up"
DOWN = "down"


class _Value:
    """An immutable value over the fields named in `__slots__`.

    Equal only to an instance of the same class with equal fields; hash and
    repr are those of a frozen dataclass with the same fields.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    __delattr__ = __setattr__


class Crossing(_Value):
    __slots__ = ("edges", "sign")

    def __init__(self, edges: tuple[str, str, str, str], sign: int):
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "sign", sign)

    @property
    def in_slots(self) -> tuple[int, int]:
        """The slots where the under and the over strand enter: their edges' heads."""
        return 0, 3 if self.sign == 1 else 1

    def mirror(self) -> "Crossing":
        e, (_, o) = self.edges, self.in_slots
        # the over strand enters at slot o and leaves at 4 - o; it goes under
        return crossing((e[o], e[4 - o]), (e[0], e[2]), -self.sign)


def crossing(under: tuple[str, str], over: tuple[str, str], sign: int) -> Crossing:
    """The crossing of the strands under = (in, out) and over = (in, out).

    The under strand enters at slot 0, the over strand at slot 3 for sign +1
    and at slot 1 for sign -1 (the module docstring's convention).
    """
    (ui, uo), (oi, oo) = under, over
    return Crossing((ui, oo, uo, oi) if sign == 1 else (ui, oi, uo, oo), sign)


class RegionStrand(_Value):
    __slots__ = ("edge", "direction")  # direction: UP or DOWN

    def __init__(self, edge: str, direction: str):
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "direction", direction)


class SurgeryRegion(_Value):
    __slots__ = ("region_id", "strands")

    def __init__(self, region_id: str, strands: tuple[RegionStrand, ...]):
        object.__setattr__(self, "region_id", region_id)
        object.__setattr__(self, "strands", strands)

    @property
    def strand_count(self) -> int:
        return len(self.strands)

    @property
    def signed_transit(self) -> int:
        return sum(1 if s.direction == UP else -1 for s in self.strands)


def fresh_name(prefix: str, used: set[str]) -> str:
    """The first of prefix0, prefix1, ... not in `used`, which it joins."""
    i = 0
    while f"{prefix}{i}" in used:
        i += 1
    name = f"{prefix}{i}"
    used.add(name)
    return name


def edge_classes(edges, pairs) -> list[frozenset]:
    """The classes of edges (or crossing indices) that the joined pairs make, sorted by smallest."""
    parent = {e: e for e in edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, set[str]] = {}
    for e in edges:
        groups.setdefault(find(e), set()).add(e)
    return sorted((frozenset(g) for g in groups.values()), key=min)


class LinkDiagram:
    """Immutable validated planar diagram; all transforms return new values."""

    def __init__(
        self,
        edges: Iterable[str],
        crossings: Iterable[Crossing] = (),
        framing_points: Iterable[tuple[str, int]] = (),
        regions: Iterable[SurgeryRegion] = (),
        orientations: dict[str, str] | None = None,
    ):
        self.edges = tuple(edges)
        self.crossings = tuple(crossings)
        self.framing_points = tuple((str(e), int(w)) for e, w in framing_points)
        self.regions = tuple(regions)
        self.orientations = (
            {e: UP for e in self.edges} if orientations is None else dict(orientations)
        )
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        edge_set = set(self.edges)
        if len(edge_set) != len(self.edges):
            raise DiagramError("duplicate edge id in edge list")
        heads: dict[str, int] = {e: 0 for e in self.edges}
        tails: dict[str, int] = {e: 0 for e in self.edges}
        for i, c in enumerate(self.crossings):
            if c.sign not in (1, -1):
                raise DiagramError(f"crossing {i}: sign must be +1 or -1, got {c.sign}")
            if len(c.edges) != 4:
                raise DiagramError(f"crossing {i}: needs exactly 4 incident edges")
            for e in c.edges:
                if e not in edge_set:
                    raise DiagramError(f"crossing {i}: unknown edge {e!r}")
            for slot, e in enumerate(c.edges):
                (heads if slot in c.in_slots else tails)[e] += 1
        for e in self.edges:
            if (heads[e], tails[e]) not in ((0, 0), (1, 1)):
                if heads[e] + tails[e] == 1 or heads[e] != tails[e]:
                    raise DiagramError(
                        f"edge {e!r}: dangling or inconsistently oriented "
                        f"(heads={heads[e]}, tails={tails[e]})"
                    )
                raise DiagramError(f"edge {e!r}: appears {heads[e]+tails[e]} times at crossings")
        for e, w in self.framing_points:
            if e not in edge_set:
                raise DiagramError(f"framing point on unknown edge {e!r}")
            if not isinstance(w, int):
                raise DiagramError(f"framing weight on {e!r} must be an integer")
        for e in self.edges:
            if e not in self.orientations:
                raise DiagramError(f"edge {e!r} missing from orientations")
        for e, tag in self.orientations.items():
            if e not in edge_set:
                raise DiagramError(f"orientations: unknown edge {e!r}")
            if tag not in (UP, DOWN):
                raise DiagramError(f"orientations: edge {e!r} must be 'up' or 'down', got {tag!r}")
        seen_regions = set()
        transit_edges: set[str] = set()
        for r in self.regions:
            if r.region_id in seen_regions:
                raise DiagramError(f"duplicate region id {r.region_id!r}")
            seen_regions.add(r.region_id)
            for s in r.strands:
                if s.edge not in edge_set:
                    raise DiagramError(f"region {r.region_id!r}: unknown edge {s.edge!r}")
                if s.direction not in (UP, DOWN):
                    raise DiagramError(
                        f"region {r.region_id!r}: direction must be 'up' or 'down'"
                    )
                if s.direction != self.orientations[s.edge]:
                    raise DiagramError(
                        f"region {r.region_id!r}: strand on edge {s.edge!r} runs {s.direction}, "
                        f"but the edge is tagged {self.orientations[s.edge]}"
                    )
                if s.edge in transit_edges:
                    raise DiagramError(
                        f"edge {s.edge!r} transits more than one region strand slot"
                    )
                transit_edges.add(s.edge)

    # -- derived structure -------------------------------------------------

    @property
    def free_loops(self) -> tuple[str, ...]:
        at_crossings = set()
        for c in self.crossings:
            at_crossings.update(c.edges)
        return tuple(e for e in self.edges if e not in at_crossings)

    def components(self) -> list[frozenset[str]]:
        # a strand goes straight through a crossing: slot 0 to 2, slot 1 to 3
        return edge_classes(self.edges, ((c.edges[i], c.edges[i + 2])
                                         for c in self.crossings for i in (0, 1)))

    @property
    def component_count(self) -> int:
        return len(self.components())

    def region(self, region_id: str) -> SurgeryRegion:
        for r in self.regions:
            if r.region_id == region_id:
                return r
        raise DiagramError(f"unknown region id {region_id!r}")

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings) + sum(w for _, w in self.framing_points)

    def head_slots(self) -> dict[str, tuple[int, int]]:
        """Edge -> (crossing index, slot) of the slot where the edge ends."""
        return {c.edges[slot]: (ci, slot)
                for ci, c in enumerate(self.crossings) for slot in c.in_slots}

    # -- transforms ---------------------------------------------------------

    def mirror(self) -> "LinkDiagram":
        return LinkDiagram(
            self.edges,
            [c.mirror() for c in self.crossings],
            [(e, -w) for e, w in self.framing_points],
            self.regions,
            self.orientations,
        )

    def forget_regions(self) -> "LinkDiagram":
        return LinkDiagram(
            self.edges, self.crossings, self.framing_points, (), self.orientations
        )

    def add_framing_points(self, points: Iterable[tuple[str, int]]) -> "LinkDiagram":
        return LinkDiagram(
            self.edges,
            self.crossings,
            list(self.framing_points) + [(e, int(w)) for e, w in points],
            self.regions,
            self.orientations,
        )

    def insert_full_twists(self, region_id: str, k: int) -> "LinkDiagram":
        """Replace region `region_id` by k positive full twists on its strands.

        Adds k*l*(l-1) crossings (signs follow strand orientations); the
        region marker is consumed.  Purely diagrammatic: framing points are
        not touched (see projector.approximate_projector for the framed
        variant used in homology pipelines).

        The crossings are appended after the diagram's own in braid order,
        full twist by full twist: each full twist is the word
        (s_1 ... s_{l-1})^l, read upward, the strand at the left position
        passing over.  `projector.TwistLadder`'s blocks and
        `twist_all_regions` rely on this order.  A full twist is a pure
        braid, so each strand ends on top at its own position, and one rename
        closes the braid: a free loop's top takes the loop's id; a strand
        through outside crossings is cut, and the piece that runs to its old
        head slot takes a fresh stub id (the top of an up strand, the bottom
        of a down strand, whose top keeps the old id).
        """
        if k < 0:
            raise DiagramError("twist count must be nonnegative")
        reg = self.region(region_id)
        rest_regions = tuple(r for r in self.regions if r.region_id != region_id)
        ell = reg.strand_count
        if k == 0 or ell <= 1:
            return LinkDiagram(
                self.edges, self.crossings, self.framing_points, rest_regions, self.orientations
            )

        used = set(self.edges)
        orient = dict(self.orientations)
        # (current segment, direction) at each braid position
        cur = [(s.edge, 1 if s.direction == UP else -1) for s in reg.strands]
        twist = []
        for _ in range(k * ell):
            for p in range(ell - 1):
                (a, da), (b, db) = cur[p], cur[p + 1]
                c, d = fresh_name("tw#", used), fresh_name("tw#", used)
                orient[c], orient[d] = (UP if db == 1 else DOWN), (UP if da == 1 else DOWN)
                # left strand over: over-path a--d, under-path b--c
                twist.append(crossing((b, c)[::db], (a, d)[::da], da * db))
                cur[p], cur[p + 1] = (c, db), (d, da)

        free = set(self.free_loops)
        heads = self.head_slots()
        rename, rewire = {}, {}
        for s, (top, _) in zip(reg.strands, cur):
            e = s.edge
            if e in free:
                rename[top] = e
                continue
            stub = fresh_name(f"{e}#", used)
            orient[stub] = self.orientations[e]
            if s.direction == UP:
                rename[top] = stub
            else:
                rename[e], rename[top] = stub, e
            rewire[heads[e]] = stub

        crossings = [
            Crossing(tuple(rewire.get((ci, slot), x) for slot, x in enumerate(c.edges)), c.sign)
            for ci, c in enumerate(self.crossings)
        ] + [Crossing(tuple(rename.get(x, x) for x in c.edges), c.sign) for c in twist]
        edges = list(self.edges) + sorted(used - set(self.edges) - set(rename))
        kept = set(edges)
        orient = {e: tag for e, tag in orient.items() if e in kept}
        return LinkDiagram(edges, crossings, self.framing_points, rest_regions, orient)

    def add_belts(self, region_id: str, up: int, down: int) -> "LinkDiagram":
        """Append up+down parallel circles through region `region_id`.

        Each belt is a crossingless closed edge transiting the region once;
        they are recorded at the end of the region's strand list, upward
        belts first.
        """
        if up < 0 or down < 0:
            raise DiagramError("belt counts must be nonnegative")
        reg = self.region(region_id)
        used = set(self.edges)
        new_edges = []
        new_strands = list(reg.strands)
        orient = dict(self.orientations)
        for _ in range(up):
            e = fresh_name(f"belt{region_id}#", used)
            new_edges.append(e)
            new_strands.append(RegionStrand(e, UP))
            orient[e] = UP
        for _ in range(down):
            e = fresh_name(f"belt{region_id}#", used)
            new_edges.append(e)
            new_strands.append(RegionStrand(e, DOWN))
            orient[e] = DOWN
        regions = tuple(
            SurgeryRegion(r.region_id, tuple(new_strands)) if r.region_id == region_id else r
            for r in self.regions
        )
        return LinkDiagram(
            list(self.edges) + new_edges, self.crossings, self.framing_points, regions, orient
        )

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "edges": list(self.edges),
            "crossings": [{"e": list(c.edges), "sign": c.sign} for c in self.crossings],
            "framing_points": [[e, w] for e, w in self.framing_points],
            "regions": [
                {
                    "id": r.region_id,
                    "strands": [{"edge": s.edge, "dir": s.direction} for s in r.strands],
                }
                for r in self.regions
            ],
            "orientations": dict(self.orientations),
        }


def check_planar(d: LinkDiagram) -> None:
    """Raise DiagramError unless the crossings' slot orders embed in the plane.

    A face is traced by arriving at a crossing slot along an edge and leaving
    by the next slot counterclockwise.  By Euler's formula a connected piece
    of the crossing graph with n crossings (4-valent, so 2n edges) traces at
    most n + 2 faces, and exactly n + 2 when it is planar.
    """
    ends: dict[str, list] = {}
    for ci, c in enumerate(d.crossings):
        for slot, e in enumerate(c.edges):
            ends.setdefault(e, []).append((ci, slot))
    other = {}
    for a, b in ends.values():
        other[a], other[b] = b, a
    pieces = edge_classes(range(len(d.crossings)), ((a[0], b[0]) for a, b in ends.values()))
    piece_of = {ci: i for i, p in enumerate(pieces) for ci in p}
    faces = [0] * len(pieces)
    seen = set()
    for dart in other:
        if dart in seen:
            continue
        faces[piece_of[dart[0]]] += 1
        while dart not in seen:
            seen.add(dart)
            ci, slot = other[dart]
            dart = (ci, (slot + 1) % 4)
    for p, f in zip(pieces, faces):
        if f != len(p) + 2:
            raise DiagramError(
                f"not planar: the piece of crossing {min(p)} ({len(p)} crossings) "
                f"traces {f} faces, a planar one {len(p) + 2}"
            )


def parse_diagram(text: str) -> LinkDiagram:
    """Parse and validate a diagram from its JSON file contents; it must be planar."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DiagramError("diagram file must contain a JSON object")
    for key in ("edges", "crossings", "framing_points", "regions", "orientations"):
        if key not in obj:
            raise DiagramError(f"missing field {key!r}")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, str) for e in edges):
        raise DiagramError("'edges' must be a list of string ids")
    crossings = []
    for i, c in enumerate(obj["crossings"]):
        if not isinstance(c, dict) or "e" not in c or "sign" not in c:
            raise DiagramError(f"crossing {i}: must be an object with 'e' and 'sign'")
        if not isinstance(c["e"], list) or len(c["e"]) != 4:
            raise DiagramError(f"crossing {i}: 'e' must list 4 edge ids")
        crossings.append(Crossing(tuple(str(x) for x in c["e"]), int(c["sign"])))
    fps = []
    for i, p in enumerate(obj["framing_points"]):
        if not isinstance(p, list) or len(p) != 2:
            raise DiagramError(f"framing point {i}: must be a [edge, weight] pair")
        e, w = p
        if isinstance(w, float) and not w.is_integer():
            raise DiagramError(f"framing point {i}: half-integer framing points are rejected")
        if not isinstance(w, int):
            raise DiagramError(f"framing point {i}: weight must be an integer")
        fps.append((str(e), w))
    regions = []
    for i, r in enumerate(obj["regions"]):
        if not isinstance(r, dict) or "id" not in r or "strands" not in r:
            raise DiagramError(f"region {i}: must be an object with 'id' and 'strands'")
        strands = []
        for j, s in enumerate(r["strands"]):
            if not isinstance(s, dict) or "edge" not in s or "dir" not in s:
                raise DiagramError(f"region {i} strand {j}: needs 'edge' and 'dir'")
            strands.append(RegionStrand(str(s["edge"]), str(s["dir"])))
        regions.append(SurgeryRegion(str(r["id"]), tuple(strands)))
    orientations = obj["orientations"]
    if not isinstance(orientations, dict):
        raise DiagramError("'orientations' must map edges to direction tags")
    d = LinkDiagram(edges, crossings, fps, regions, orientations)
    check_planar(d)
    return d
