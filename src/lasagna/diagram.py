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
loop) or at exactly one "head" slot and one "tail" slot.

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

    def mirror(self) -> "Crossing":
        e = self.edges
        if self.sign == 1:
            return Crossing((e[3], e[0], e[1], e[2]), -1)
        return Crossing((e[1], e[2], e[3], e[0]), 1)


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
        self.orientations = dict(orientations) if orientations else {e: UP for e in self.edges}
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
            e0, e1, e2, e3 = c.edges
            heads[e0] += 1
            tails[e2] += 1
            if c.sign == 1:
                heads[e3] += 1
                tails[e1] += 1
            else:
                heads[e1] += 1
                tails[e3] += 1
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
                if s.edge in transit_edges:
                    raise DiagramError(
                        f"edge {s.edge!r} transits more than one region strand slot"
                    )
                transit_edges.add(s.edge)
        for e in self.edges:
            if e not in self.orientations:
                raise DiagramError(f"edge {e!r} missing from orientations")

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
        heads = {}
        for ci, c in enumerate(self.crossings):
            slot = 3 if c.sign == 1 else 1
            heads[c.edges[0]] = (ci, 0)
            heads[c.edges[slot]] = (ci, slot)
        return heads

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
        free = set(self.free_loops)
        # Head slots of each transit edge, so the top stub can be rewired.
        heads = self.head_slots()

        # Current segment and direction at each braid position.
        cur = [s.edge for s in reg.strands]
        dirs = [1 if s.direction == UP else -1 for s in reg.strands]
        strand_dir = list(dirs)
        new_crossings: list[Crossing] = []
        new_orient = dict(self.orientations)

        def braid_generator(p: int) -> None:
            a, b = cur[p], cur[p + 1]
            da, db = strand_dir[p], strand_dir[p + 1]
            c_seg = fresh_name("tw#", used)
            d_seg = fresh_name("tw#", used)
            new_orient[c_seg] = UP if db == 1 else DOWN
            new_orient[d_seg] = UP if da == 1 else DOWN
            # Left segment goes over: over-path a--d, under-path b--c.
            if db == 1:
                new_crossings.append(Crossing((b, d_seg, c_seg, a), 1 if da == 1 else -1))
            else:
                new_crossings.append(Crossing((c_seg, a, b, d_seg), 1 if da == -1 else -1))
            cur[p], cur[p + 1] = c_seg, d_seg
            strand_dir[p], strand_dir[p + 1] = db, da

        for _ in range(k * ell):
            for p in range(ell - 1):
                braid_generator(p)

        # Glue top exits back to the outside of the diagram.
        #  - free-loop transit: the outside arc is the bottom segment itself;
        #  - up strand through crossings: top piece gets a fresh id at the
        #    old edge's head slot;
        #  - down strand: the cut is traversed top-to-bottom, so the original
        #    id stays on the piece holding the tail slot (the top), and the
        #    bottom entry should have used a fresh id.  Rather than thread
        #    that through the braid, run the braid on the original ids and
        #    substitute afterwards; the substitution is a bijection on the
        #    braid-local occurrences.
        subst: dict[str, str] = {}
        crossing_rewires: list[tuple[int, int, str]] = []
        for i, s in enumerate(reg.strands):
            e = s.edge
            top = cur[i]
            if e in free:
                subst[top] = e
            elif s.direction == UP:
                if top == e:
                    continue  # strand untouched by any crossing
                stub = fresh_name(f"{e}#", used)
                new_orient[stub] = self.orientations[e]
                subst[top] = stub
                ci, slot = heads[e]
                crossing_rewires.append((ci, slot, stub))
            else:
                # Downward strand: original id belongs above the braid.  The
                # braid consumed `e` at the bottom; rename that bottom piece.
                renamed = []
                done = False
                stub = fresh_name(f"{e}#", used)
                for c in new_crossings:
                    if not done and e in c.edges:
                        renamed.append(
                            Crossing(
                                tuple(stub if x == e else x for x in c.edges), c.sign
                            )
                        )
                        done = True
                    else:
                        renamed.append(c)
                if not done:
                    continue  # strand untouched by any crossing
                new_crossings = renamed
                new_orient[stub] = self.orientations[e]
                subst[top] = e
                ci, slot = heads[e]
                crossing_rewires.append((ci, slot, stub))

        new_crossings = [
            Crossing(tuple(subst.get(x, x) for x in c.edges), c.sign) for c in new_crossings
        ]
        old_crossings = list(self.crossings)
        for ci, slot, stub in crossing_rewires:
            e = list(old_crossings[ci].edges)
            e[slot] = stub
            old_crossings[ci] = Crossing(tuple(e), old_crossings[ci].sign)

        referenced = {x for c in old_crossings + new_crossings for x in c.edges}
        all_edges = list(self.edges)
        for e in sorted(used - set(self.edges)):
            if e in referenced:
                all_edges.append(e)
        for e in all_edges:
            new_orient.setdefault(e, UP)
        # Framing points stay on their (possibly bottom-piece) edges.
        fps = [(subst.get(e, e), w) for e, w in self.framing_points]
        return LinkDiagram(all_edges, old_crossings + new_crossings, fps, rest_regions, new_orient)

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
