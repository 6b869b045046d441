"""Cutting the surface along registered curves, combinatorially.

The surface is decomposed along the boundary of a regular neighbourhood
of the selected curves.  The result has two kinds of components:

* ``complement`` pieces - closures of the regions the curves cut the
  polygon into, reassembled through the side gluings (and the capping
  disk when the surface is closed);
* ``neighbourhood`` pieces - ribbons around each connected bunch of
  selected curves (an annulus for an isolated two-sided curve, a
  plumbing with Euler characteristic ``-crossings`` otherwise).

Cutting along circles never changes the total Euler characteristic, so
the components always sum to ``2 - g - n``; that identity doubles as a
built-in integrity check on the whole construction.

Everything is computed from the order of the chord endpoints on the
boundary, with no points: each chord is drawn along the boundary
interval between its ends, so which chords cross, where the crossings
sit along each chord and the rotation at every vertex are comparisons
of endpoint positions and integer ranks.  The complex reads each
curve's chords as ``polygon`` keys them, and polygon corner ``c`` gets
the key ``c * SIDE``, so keys sort as the coordinates do.  Faces come
from a half-edge walk of that drawing, and the side gluings are matched
interval-by-interval (the two copies of a crosscap side are subdivided
at identical parameters, one per crossing event).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from crosscap.polygon import (
    SIDE,
    CurveGeometry,
    DegeneratePositionError,
    _coordinate_text,
    _crosses,
    crossing_count,
)
from crosscap.surface import Registry, SurfaceSpec


def intersection_number(registry: Registry, u: str, v: str) -> int:
    """Transverse crossing count of two registered curves.

    A curve meets a parallel push-off of itself nowhere (all registered
    curves are two-sided), so ``u == v`` gives 0.
    """
    ru = registry.curve(u)
    rv = registry.curve(v)
    if ru.name == rv.name:
        return 0
    return crossing_count(registry.geometry(ru.name), registry.geometry(rv.name))


@dataclass(frozen=True)
class ComponentReport:
    """One piece of the cut surface."""

    kind: str  # "complement" or "neighbourhood"
    euler_characteristic: int
    boundary_circles: int
    orientable: bool

    @property
    def is_disk(self) -> bool:
        return (
            self.euler_characteristic == 1
            and self.boundary_circles == 1
            and self.orientable
        )

    def structured_line(self) -> str:
        return (
            f"chi={self.euler_characteristic} "
            f"boundaries={self.boundary_circles} "
            f"orientable={1 if self.orientable else 0} "
            f"disk={1 if self.is_disk else 0}"
        )


@dataclass(frozen=True)
class ComplementReport:
    genus: int
    boundary: int
    curve_names: tuple[str, ...]
    components: tuple[ComponentReport, ...]

    @property
    def total_euler(self) -> int:
        return sum(c.euler_characteristic for c in self.components)

    def non_disk_complement_pieces(self) -> tuple[ComponentReport, ...]:
        return tuple(
            c for c in self.components if c.kind == "complement" and not c.is_disk
        )

    def structured_lines(self) -> list[str]:
        return [c.structured_line() for c in self.components]

    def format_text(self) -> str:
        shown = ", ".join(self.curve_names) if self.curve_names else "(nothing)"
        lines = [
            f"cut along: {shown}",
            f"surface: genus {self.genus}, {self.boundary} boundary circle(s)",
        ]
        for i, c in enumerate(self.components, start=1):
            lines.append(
                f"  component {i} ({c.kind}): chi={c.euler_characteristic} "
                f"boundaries={c.boundary_circles} "
                f"orientable={'yes' if c.orientable else 'no'} "
                f"disk={'yes' if c.is_disk else 'no'}"
            )
        lines.append(f"total euler characteristic: {self.total_euler}")
        return "\n".join(lines)


# -- small union-find helpers ------------------------------------------------


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class _ParityUnionFind:
    """Union-find with a Z/2 weight per element; odd cycles are recorded.

    The weight of an element is its parity relative to its root; a
    union that closes a cycle of odd total parity marks the class as
    contradictory, which is exactly non-orientability for us.
    """

    def __init__(self) -> None:
        self.parent: dict = {}
        self.parity: dict = {}
        self.bad: set = set()

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.parity[x] = 0

    def find(self, x) -> tuple:
        self.add(x)
        chain = []
        root = x
        while self.parent[root] != root:
            chain.append(root)
            root = self.parent[root]
        p = 0
        for node in reversed(chain):
            p ^= self.parity[node]
            self.parent[node] = root
            self.parity[node] = p
        return root, self.parity[x]

    def union(self, a, b, parity: int) -> None:
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            if (pa ^ pb) != parity:
                self.bad.add(ra)
            return
        self.parent[rb] = ra
        self.parity[rb] = pa ^ pb ^ parity
        if rb in self.bad:
            self.bad.discard(rb)
            self.bad.add(ra)

    def contradictory(self, x) -> bool:
        return self.find(x)[0] in self.bad


_CAP_SLOT = -1
_CAP_FACE = -1


class _CutComplex:
    """The arrangement of selected curves on the glued polygon.

    Faces come from a half-edge walk of the chord-and-arc graph inside
    the circle; the side-pair gluings (parameter to parameter, both
    copies counterclockwise, hence orientation-reversing) and the
    optional capping disk are pure combinatorics on face slots.
    """

    def __init__(
        self, spec: SurfaceSpec, curves: Sequence[tuple[str, CurveGeometry]]
    ) -> None:
        self.spec = spec
        self.curves = curves
        g = spec.genus
        self._build_chords()
        self._build_vertices(g)
        self._build_crossings()
        self._build_edges(g)
        self._build_faces()
        self._build_pairings(g)
        self._account()

    # -- the drawing -----------------------------------------------------

    def _build_chords(self) -> None:
        # each curve's chords, and one entry per chord: (curve index,
        # chord index, tail key, head key); chord k follows crossing k.
        self.curve_chords = [geom.chords for _, geom in self.curves]
        self.chords: list[tuple[int, int, int, int]] = [
            (ci, k, tail, head)
            for ci, chords in enumerate(self.curve_chords)
            for k, (tail, head) in enumerate(chords)
        ]

    def _build_vertices(self, g: int) -> None:
        # boundary vertices: the polygon corners, then the chord ends
        self.coord_vid: dict[int, int] = {
            corner * SIDE: corner for corner in range(0, 2 * g + 1)
        }
        for _, _, tail, head in self.chords:
            for key in (tail, head):
                if key in self.coord_vid:
                    raise DegeneratePositionError(
                        "two curve endpoints share boundary coordinate "
                        f"{_coordinate_text(key)}"
                    )
                self.coord_vid[key] = len(self.coord_vid)

    def _build_crossings(self) -> None:
        # Each chord is drawn along the boundary interval between its
        # ends, the one that avoids the free side: down from its lower
        # end to its depth, along, and up at its upper end.  Shorter
        # chords run shallower, so nested or disjoint intervals never
        # meet, and chords whose ends interleave cross exactly once,
        # where the deeper one's end inside the shallower one's interval
        # comes down through it.  Depth ranks the intervals by their key
        # length: keys keep strict nesting, and no two endpoints share a
        # key, which is all the drawing needs.  A crossing's place on a
        # chord is the key (0, depth) on the way down, (1, x) along and
        # (2, -depth) on the way up, counted from the lower end, and
        # negated when the tail is the upper end, so keys ascend from
        # tail to head.
        n_chords = len(self.chords)
        spans = [sorted(chord[2:]) for chord in self.chords]  # [lower, upper]
        ranked = sorted(
            range(n_chords), key=lambda i: (spans[i][1] - spans[i][0], spans[i][0])
        )
        depth = {i: r for r, i in enumerate(ranked)}
        self.splits: dict[int, list[tuple[tuple, int]]] = {
            i: [] for i in range(n_chords)
        }
        # (vertex, chord a, key on a, chord b, key on b)
        self.crossings: list[tuple[int, int, tuple, int, tuple]] = []
        for i in range(n_chords):
            for j in range(i + 1, n_chords):
                if not _crosses(self.chords[i][2:], self.chords[j][2:]):
                    continue
                shallow, deep = sorted((i, j), key=depth.__getitem__)
                lo, hi = spans[shallow]
                x = next(c for c in spans[deep] if lo < c < hi)
                d = depth[shallow]
                key = {
                    shallow: (1, x),
                    deep: (0, d) if x == spans[deep][0] else (2, -d),
                }
                for c in (i, j):
                    if self.chords[c][2] > self.chords[c][3]:
                        # a literal, not tuple() of a generator, whose
                        # resized tuples pile up in CPython's free lists
                        key[c] = (-key[c][0], -key[c][1])
                vid = len(self.coord_vid) + len(self.crossings)
                self.splits[i].append((key[i], vid))
                self.splits[j].append((key[j], vid))
                self.crossings.append((vid, i, key[i], j, key[j]))

    def _build_edges(self, g: int) -> None:
        # edges: ("arc", u, v, side, t0, t1) with u -> v counterclockwise,
        # or ("chord", u, v, chord index).  Half-edge 2e is u -> v.  An
        # arc's t0 and t1 are parameters along its side: 0 at the start
        # corner, w = SIDE at the end corner.
        self.edges: list[tuple] = []
        w = SIDE
        coords = sorted(self.coord_vid)
        K = len(coords)
        for idx in range(K):
            a = coords[idx]
            if idx < K - 1:
                b = coords[idx + 1]
                side = a // w + 1
                t0, t1 = a - (side - 1) * w, b - (side - 1) * w
            else:
                # the wrap arc is exactly the free side: no curve touches it
                if a != 2 * g * w:
                    raise DegeneratePositionError(
                        "a curve endpoint landed on the free side"
                    )
                b = coords[0]
                side, t0, t1 = 2 * g + 1, 0, w
            self.edges.append(
                ("arc", self.coord_vid[a], self.coord_vid[b], side, t0, t1)
            )
        for i, (_, _, tail, head) in enumerate(self.chords):
            chain = (
                [self.coord_vid[tail]]
                + [vid for _, vid in sorted(self.splits[i])]
                + [self.coord_vid[head]]
            )
            for r in range(len(chain) - 1):
                self.edges.append(("chord", chain[r], chain[r + 1], i))

    # -- the half-edge walk --------------------------------------------

    def _he_tail(self, he: int) -> int:
        e = self.edges[he >> 1]
        return e[1] if he & 1 == 0 else e[2]

    def _he_head(self, he: int) -> int:
        e = self.edges[he >> 1]
        return e[2] if he & 1 == 0 else e[1]

    def _he_rank(self, he: int) -> int:
        # Half-edges leave a boundary vertex in the order counterclockwise
        # arc, chord, clockwise arc.  The four leaving a crossing reach
        # four boundary points without meeting one another, so they leave
        # in the order of those points.
        e = self.edges[he >> 1]
        if e[0] == "arc":
            return 2 * (he & 1)
        if self._he_tail(he) < len(self.coord_vid):
            return 1
        _, _, tail, head = self.chords[e[3]]
        return tail if he & 1 else head

    def _build_faces(self) -> None:
        incident: dict[int, list[int]] = {}
        for eidx in range(len(self.edges)):
            incident.setdefault(self._he_tail(2 * eidx), []).append(2 * eidx)
            incident.setdefault(self._he_tail(2 * eidx + 1), []).append(2 * eidx + 1)
        self.rotation: dict[int, list[int]] = {}
        self.rot_pos: dict[int, int] = {}
        for vid, hes in incident.items():
            ordered = sorted(hes, key=self._he_rank)
            self.rotation[vid] = ordered
            for i, h in enumerate(ordered):
                self.rot_pos[h] = i

        def next_he(h: int) -> int:
            w = self._he_head(h)
            ring = self.rotation[w]
            i = self.rot_pos[h ^ 1]
            return ring[(i - 1) % len(ring)]

        self.face_of: dict[int, int] = {}
        self.faces: list[list[int]] = []
        for h in range(2 * len(self.edges)):
            if h in self.face_of:
                continue
            cycle = []
            cur = h
            while cur not in self.face_of:
                self.face_of[cur] = len(self.faces)
                cycle.append(cur)
                cur = next_he(cur)
            if cur != h:
                raise RuntimeError("face walk did not close; rotation is corrupt")
            self.faces.append(cycle)
        # the outer face is the one walking the circle clockwise
        outer = None
        for fi, cycle in enumerate(self.faces):
            cw_arcs = [
                h for h in cycle if self.edges[h >> 1][0] == "arc" and (h & 1)
            ]
            if cw_arcs:
                if outer is not None or len(cw_arcs) != len(cycle):
                    raise RuntimeError("outer face is not the full clockwise circle")
                outer = fi
        if outer is None:
            raise RuntimeError("no outer face found")
        self.outer = outer
        self.prev_in_face: dict[int, int] = {}
        for fi, cycle in enumerate(self.faces):
            if fi == outer:
                continue
            for i, h in enumerate(cycle):
                self.prev_in_face[h] = cycle[i - 1]

    # -- gluing ----------------------------------------------------------

    def _build_pairings(self, g: int) -> None:
        # keyed by (side, t0, t1); both copies of a side carry the same
        # parameters, so their intervals match exactly
        arc_slot: dict[tuple[int, int, int], int] = {}
        for h, fi in self.face_of.items():
            if fi == self.outer:
                continue
            e = self.edges[h >> 1]
            if e[0] != "arc":
                continue
            if h & 1:
                raise RuntimeError("interior face contains a clockwise arc")
            arc_slot[(e[3], e[4], e[5])] = h
        self.pairings: list[tuple[int, int, int]] = []
        for pair in range(1, g + 1):
            side_a, side_b = 2 * pair - 1, 2 * pair
            ivals_a = sorted(
                (t0, t1) for (s, t0, t1) in arc_slot if s == side_a
            )
            ivals_b = sorted(
                (t0, t1) for (s, t0, t1) in arc_slot if s == side_b
            )
            if ivals_a != ivals_b:
                raise RuntimeError(
                    f"glued sides {side_a}/{side_b} subdivide differently"
                )
            for t0, t1 in ivals_a:
                self.pairings.append(
                    (arc_slot[(side_a, t0, t1)], arc_slot[(side_b, t0, t1)], 1)
                )
        free_slot = arc_slot[(2 * g + 1, 0, SIDE)]
        self.cap = self.spec.boundary == 0
        if self.cap:
            self.prev_in_face[_CAP_SLOT] = _CAP_SLOT
            self.face_of[_CAP_SLOT] = _CAP_FACE
            self.pairings.append((free_slot, _CAP_SLOT, 0))

    # -- bookkeeping -------------------------------------------------------

    def _account(self) -> None:
        face_uf = _ParityUnionFind()
        corner_uf = _UnionFind()
        interior_faces = [
            fi for fi in range(len(self.faces)) if fi != self.outer
        ]
        if self.cap:
            interior_faces.append(_CAP_FACE)
        for fi in interior_faces:
            face_uf.add(fi)
        slots = [
            h for h, fi in self.face_of.items() if fi != self.outer
        ]
        for s in slots:
            corner_uf.add(s)
        paired: set[int] = set()
        for sa, sb, flip in self.pairings:
            face_uf.union(self.face_of[sa], self.face_of[sb], flip)
            if flip:
                corner_uf.union(sa, sb)
                corner_uf.union(self.prev_in_face[sa], self.prev_in_face[sb])
            else:
                corner_uf.union(sa, self.prev_in_face[sb])
                corner_uf.union(sb, self.prev_in_face[sa])
            paired.update((sa, sb))
        self.boundary_slots = [s for s in slots if s not in paired]

        comp_of: dict[int, int] = {}
        for fi in interior_faces:
            comp_of[fi] = face_uf.find(fi)[0]
        self.n_faces: dict[int, int] = {}
        for fi in interior_faces:
            self.n_faces[comp_of[fi]] = self.n_faces.get(comp_of[fi], 0) + 1
        self.n_edges: dict[int, int] = {}
        for sa, sb, _ in self.pairings:
            c = comp_of[self.face_of[sa]]
            self.n_edges[c] = self.n_edges.get(c, 0) + 1
        for s in self.boundary_slots:
            c = comp_of[self.face_of[s]]
            self.n_edges[c] = self.n_edges.get(c, 0) + 1
        self.n_vertices: dict[int, int] = {}
        corner_comp: dict[int, int] = {}
        for s in slots + ([_CAP_SLOT] if self.cap else []):
            root = corner_uf.find(s)
            c = comp_of[self.face_of[s]]
            if root in corner_comp and corner_comp[root] != c:
                raise RuntimeError("a vertex class straddles two components")
            corner_comp[root] = c
        for root, c in corner_comp.items():
            self.n_vertices[c] = self.n_vertices.get(c, 0) + 1

        # boundary circles: the boundary corner classes form a 2-regular
        # multigraph whose components are the circles
        circle_uf = _UnionFind()
        degree: dict[int, int] = {}
        for s in self.boundary_slots:
            a = corner_uf.find(self.prev_in_face[s])
            b = corner_uf.find(s)
            circle_uf.union(a, b)
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        if any(d != 2 for d in degree.values()):
            raise RuntimeError("cut boundary is not a union of circles")
        circle_slots: dict[int, list[int]] = {}
        for s in self.boundary_slots:
            root = circle_uf.find(corner_uf.find(s))
            circle_slots.setdefault(root, []).append(s)
        self.n_circles: dict[int, int] = {}
        self.cut_circle_count = 0
        for root, members in circle_slots.items():
            c = comp_of[self.face_of[members[0]]]
            self.n_circles[c] = self.n_circles.get(c, 0) + 1
            if any(self.edges[s >> 1][0] == "chord" for s in members):
                self.cut_circle_count += 1

        self.components: list[ComponentReport] = []
        for c in sorted(set(comp_of.values())):
            chi = (
                self.n_vertices.get(c, 0)
                - self.n_edges.get(c, 0)
                + self.n_faces.get(c, 0)
            )
            self.components.append(
                ComponentReport(
                    kind="complement",
                    euler_characteristic=chi,
                    boundary_circles=self.n_circles.get(c, 0),
                    orientable=not face_uf.contradictory(c),
                )
            )

    # -- ribbon pieces -----------------------------------------------------

    def ribbons(self) -> list[ComponentReport]:
        """Neighbourhood pieces of the selected curves.

        Isolated curves give untwisted bands (the registered curves are
        two-sided, so annuli); curves joined by crossings give a plumbed
        ribbon whose boundary is traced strand by strand, with one side
        swap per crosscap passage.
        """
        curve_uf = _UnionFind()
        for ci in range(len(self.curves)):
            curve_uf.add(ci)
        for _, i, _, j, _ in self.crossings:
            curve_uf.union(self.chords[i][0], self.chords[j][0])

        out: list[ComponentReport] = []
        ribbon_circles = 0
        crossing_curves = set()
        for _, i, _, j, _ in self.crossings:
            crossing_curves.add(self.chords[i][0])
            crossing_curves.add(self.chords[j][0])
        for ci, (_, geom) in enumerate(self.curves):
            if ci in crossing_curves:
                continue
            m = len(geom.events)
            circles = 2 if m % 2 == 0 else 1
            ribbon_circles += circles
            out.append(
                ComponentReport(
                    kind="neighbourhood",
                    euler_characteristic=0,
                    boundary_circles=circles,
                    orientable=m % 2 == 0,
                )
            )
        if not self.crossings:
            self._check_ribbon_circles(ribbon_circles)
            return out

        # stations along each curve: (local chord index, key, crossing id)
        stations: dict[int, list[tuple[int, tuple, int]]] = {}
        for rid, (vid, i, s, j, u) in enumerate(self.crossings):
            for chord_idx, key in ((i, s), (j, u)):
                ci, k, *_ = self.chords[chord_idx]
                stations.setdefault(ci, []).append((k, key, rid))
        edges: list[tuple[int, int, int]] = []  # (rid_from, rid_to, parity)
        # (edge id, end) -> the boundary point the strand end heads for
        end_coord: dict[tuple[int, int], int] = {}
        ends_at: dict[int, list[tuple[int, int]]] = {}  # rid -> ends
        for ci, sts in stations.items():
            sts.sort()
            chords = self.curve_chords[ci]
            m = len(chords)
            n = len(sts)
            for q in range(n):
                k1, _, r1 = sts[q]
                k2, _, r2 = sts[(q + 1) % n]
                delta = k2 - k1 if q + 1 < n else (k2 + m - k1)
                eid = len(edges)
                edges.append((r1, r2, delta % 2))
                end_coord[(eid, 0)] = chords[k1][1]
                end_coord[(eid, 1)] = chords[k2][0]
                ends_at.setdefault(r1, []).append((eid, 0))
                ends_at.setdefault(r2, []).append((eid, 1))

        # strand ends leave a crossing in the order of the boundary points
        # they head for, as the half-edges do
        rotation: dict[int, list[tuple[int, int]]] = {}
        rot_pos: dict[tuple[int, int], int] = {}
        for rid, ends in ends_at.items():
            if len(ends) != 4:
                raise RuntimeError("a crossing without four strand ends")
            ordered = sorted(ends, key=end_coord.__getitem__)
            rotation[rid] = ordered
            for i, end in enumerate(ordered):
                rot_pos[end] = i

        vertex_uf = _ParityUnionFind()
        comp_cross: dict[int, int] = {}
        comp_orient_bad: set[int] = set()
        for rid, (vid, i, _, j, _) in enumerate(self.crossings):
            c = curve_uf.find(self.chords[i][0])
            comp_cross[c] = comp_cross.get(c, 0) + 1
        for eid, (r1, r2, parity) in enumerate(edges):
            vertex_uf.union(r1, r2, parity)
        for rid in range(len(self.crossings)):
            if vertex_uf.contradictory(rid):
                c = curve_uf.find(self.chords[self.crossings[rid][1]][0])
                comp_orient_bad.add(c)

        # strand tracing: state = (edge, departing end, side); a side is
        # 0 for the strand on the left of travel, swapped by each
        # crosscap passage; corners keep the side, left turns to the
        # rotation predecessor and right to the successor.
        def next_state(state: tuple[int, int, int]) -> tuple[int, int, int]:
            eid, end, side = state
            r_to = edges[eid][1 - end]
            side2 = side ^ edges[eid][2]
            arrive = (eid, 1 - end)
            ring = rotation[r_to]
            i = rot_pos[arrive]
            nxt = ring[(i - 1) % 4] if side2 == 0 else ring[(i + 1) % 4]
            return (nxt[0], nxt[1], side2)

        seen: set[tuple[int, int, int]] = set()
        orbit_count: dict[int, int] = {}
        for eid in range(len(edges)):
            for end in (0, 1):
                for side in (0, 1):
                    state = (eid, end, side)
                    if state in seen:
                        continue
                    comp = curve_uf.find(
                        self.chords[self.crossings[edges[eid][0]][1]][0]
                    )
                    cur = state
                    while cur not in seen:
                        seen.add(cur)
                        cur = next_state(cur)
                    if cur != state:
                        raise RuntimeError("strand walk did not close")
                    orbit_count[comp] = orbit_count.get(comp, 0) + 1

        for comp, crossings in sorted(comp_cross.items()):
            orbits = orbit_count.get(comp, 0)
            if orbits % 2 != 0:
                raise RuntimeError("odd strand orbit count")
            circles = orbits // 2
            ribbon_circles += circles
            out.append(
                ComponentReport(
                    kind="neighbourhood",
                    euler_characteristic=-crossings,
                    boundary_circles=circles,
                    orientable=comp not in comp_orient_bad,
                )
            )
        self._check_ribbon_circles(ribbon_circles)
        return out

    def _check_ribbon_circles(self, ribbon_circles: int) -> None:
        # every boundary circle of a neighbourhood piece is glued to
        # exactly one cut circle of a complement piece, so the counts
        # must agree; a mismatch means the complex is corrupt
        if ribbon_circles != self.cut_circle_count:
            raise RuntimeError(
                "ribbon boundary circles do not match the cut circles "
                f"({ribbon_circles} vs {self.cut_circle_count})"
            )


def cut_along(registry: Registry, names: Iterable[str]) -> ComplementReport:
    """Cut the surface along a set of registered curves.

    Unknown names raise; duplicates collapse; the empty set reports the
    uncut surface as a single component.  Components carry Euler
    characteristic, boundary circle count, orientability and diskness,
    and always sum to the Euler characteristic of the surface.
    """
    spec = registry.spec
    selected: list[str] = []
    for raw in names:
        rec = registry.curve(raw)
        if rec.name not in selected:
            selected.append(rec.name)
    ordered = [n for n in registry.names() if n in selected]
    complex_ = _CutComplex(
        spec, [(n, registry.geometry(n)) for n in ordered]
    )
    pieces = complex_.components + complex_.ribbons()
    pieces.sort(
        key=lambda c: (
            c.kind,
            c.euler_characteristic,
            c.boundary_circles,
            c.orientable,
        )
    )
    return ComplementReport(
        genus=spec.genus,
        boundary=spec.boundary,
        curve_names=tuple(ordered),
        components=tuple(pieces),
    )
