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
the key ``c * SIDE``, so keys sort as the coordinates do.  The crossing
pairs come from one sweep over the endpoints in key order (Bentley and
Ottmann, IEEE Trans. Comput. C-28, 1979): when a chord closes, the
chords that opened after it and are still open are exactly those that
cross it, so no pair of chords is tested.

Every object of the complex is a dense integer id: vertices, half-edges
``0..2E-1`` (``h ^ 1`` reverses ``h``), faces ``0..F-1``, curves,
crossings and strand ends.  The capping disk of a closed surface is one
more face, ``F``, with one slot, ``2E``.  Tables are lists indexed by
id.  One orbit walk over a successor list (``_orbits``) finds both the
faces, as cycles of half-edges, and the boundary of the curves'
neighbourhood, as cycles of strands; one union-find with a Z/2 weight
(``_UnionFind``) merges faces into pieces and tells their
orientability, and serves plainly for corners, circles and curves.
The side gluings are matched interval-by-interval (the two copies of a
crosscap side are subdivided at identical parameters, one per crossing
event).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from crosscap.polygon import (
    SIDE,
    CurveGeometry,
    DegeneratePositionError,
    _coordinate_text,
    crossing_count,
)
from crosscap.surface import Registry, SurfaceSpec
from crosscap.words import Record


def intersection_number(registry: Registry, u: str, v: str) -> int:
    """Crossings of two registered curves as they are drawn.

    This counts the crossings of the registered chord layouts, which is
    an upper bound on the geometric intersection number and not always
    equal to it: the layouts are not in minimal position, so
    ``alpha_1`` and ``epsilon`` give 2, though they can be drawn
    disjoint.  A curve meets a parallel push-off of itself nowhere (all
    registered curves are two-sided), so ``u == v`` gives 0.
    """
    ru = registry.curve(u)
    rv = registry.curve(v)
    if ru.name == rv.name:
        return 0
    return crossing_count(registry.geometry(ru.name), registry.geometry(rv.name))


class ComponentReport(Record):
    """One piece of the cut surface; ``kind`` is "complement" or "neighbourhood"."""

    __slots__ = ("kind", "euler_characteristic", "boundary_circles", "orientable")

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


class ComplementReport(Record):
    __slots__ = ("genus", "boundary", "curve_names", "components")

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


# -- one union-find and one orbit walk ---------------------------------------


class _UnionFind:
    """Union-find on the ids 0..n-1 with a Z/2 weight per id.

    An id's weight is its parity relative to its parent; a union that
    closes a cycle of odd total parity marks the class as contradictory,
    which is exactly non-orientability for us.  Unions of parity 0 never
    do, so the same class serves as a plain union-find.
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.parity = [0] * n
        self.bad = [False] * n

    def find(self, x: int) -> tuple[int, int]:
        # path halving: each id on the way is hung from its grandparent and
        # adds its old parent's weight to its own (a root's weight is 0)
        parent, parity = self.parent, self.parity
        p = 0
        while parent[x] != x:
            up = parent[x]
            parity[x] ^= parity[up]
            parent[x] = parent[up]
            p ^= parity[x]
            x = parent[x]
        return x, p

    def roots(self) -> list[int]:
        """The root of every id, in one pass.

        Each id is hung from its root on the way, its weight summed
        along, so that the parents are the roots.
        """
        parent, parity = self.parent, self.parity
        for x in range(len(parent)):
            up = parent[x]
            while parent[up] != up:
                parity[x] ^= parity[up]
                up = parent[x] = parent[up]
        return parent[:]

    def union(self, a: int, b: int, parity: int = 0) -> None:
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            if pa ^ pb != parity:
                self.bad[ra] = True
            return
        self.parent[rb] = ra
        self.parity[rb] = pa ^ pb ^ parity
        self.bad[ra] = self.bad[ra] or self.bad[rb]

    def contradictory(self, x: int) -> bool:
        return self.bad[self.find(x)[0]]


def _rotation(
    at: list[int], n: int, rank: list[int]
) -> tuple[list[list[int]], list[int]]:
    """The ring of ends at each of the vertices 0..n-1, and each end's place.

    End ``h`` sits at vertex ``at[h]``; each ring is sorted by ``rank[h]``.
    """
    rings: list[list[int]] = [[] for _ in range(n)]
    for h, v in enumerate(at):
        rings[v].append(h)
    place = [0] * len(at)
    for ring in rings:
        ring.sort(key=rank.__getitem__)
        for i, h in enumerate(ring):
            place[h] = i
    return rings, place


def _orbits(step: list[int]) -> list[list[int]]:
    """The cycles of the permutation ``step`` of the states 0..n-1.

    Each cycle starts at its least state, and the cycles come in the
    order of those states.
    """
    n = len(step)
    seen = bytearray(n)
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        state = start
        while not seen[state]:
            seen[state] = 1
            cycle.append(state)
            state = step[state]
        if state != start:
            raise RuntimeError("walk did not close; rotation is corrupt")
        cycles.append(cycle)
    return cycles


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
        #
        # The crossing pairs come from one sweep over the 2C endpoints in
        # key order, with the open chords listed in the order they
        # opened.  When chord a closes, the chords listed after it opened
        # inside its interval and close outside it, so they are exactly
        # the chords whose ends interleave with a's; those listed before
        # it contain its interval.  Each crossing is reported once, when
        # the first of its two chords closes.  For C chords and K
        # crossings that is one sort and K steps, not C(C - 1)/2 pair
        # tests; only the list's own index and delete, in compiled code,
        # also pass over the chords that contain the closing one.
        n_chords = len(self.chords)
        spans = [sorted(chord[2:]) for chord in self.chords]  # [lower, upper]
        ranked = sorted(
            range(n_chords), key=lambda i: (spans[i][1] - spans[i][0], spans[i][0])
        )
        depth = [0] * n_chords
        for r, i in enumerate(ranked):
            depth[i] = r
        tail_above = [tail > head for _, _, tail, head in self.chords]
        self.splits: list[list[tuple[tuple, int]]] = [[] for _ in range(n_chords)]
        # (vertex, chord a, key on a, chord b, key on b)
        self.crossings: list[tuple[int, int, tuple, int, tuple]] = []
        # end 2i is chord i's lower end and 2i + 1 its upper end
        ends = sorted(range(2 * n_chords), key=lambda e: spans[e >> 1][e & 1])
        opened: list[int] = []
        for e in ends:
            a = e >> 1
            if not e & 1:
                opened.append(a)
                continue
            at = opened.index(a)
            for b in opened[at + 1 :]:
                # lower a < lower b < upper a < upper b: the deeper
                # chord's end inside the shallower one's interval is b's
                # lower end or a's upper end
                if depth[a] < depth[b]:
                    key_a, key_b = (1, spans[b][0]), (0, depth[a])
                else:
                    key_a, key_b = (2, -depth[b]), (1, spans[a][1])
                # literals, not tuple() of a generator, whose resized
                # tuples pile up in CPython's free lists
                if tail_above[a]:
                    key_a = (-key_a[0], -key_a[1])
                if tail_above[b]:
                    key_b = (-key_b[0], -key_b[1])
                vid = len(self.coord_vid) + len(self.crossings)
                self.splits[a].append((key_a, vid))
                self.splits[b].append((key_b, vid))
                self.crossings.append((vid, a, key_a, b, key_b))
            del opened[at]

    def _build_edges(self, g: int) -> None:
        # edges: ("arc", u, v, side, t0, t1) with u -> v counterclockwise,
        # or ("chord", u, v, chord index).  Half-edge 2e is u -> v and
        # 2e + 1 is v -> u; tail[h] is the vertex h leaves.  An arc's t0
        # and t1 are parameters along its side: 0 at the start corner,
        # w = SIDE at the end corner.
        #
        # he_rank[h] orders the half-edges that leave h's tail.  They leave a
        # boundary vertex in the order counterclockwise arc, chord,
        # clockwise arc (ranks 0, 1, 2).  The four leaving a crossing
        # reach four boundary points without meeting one another, so they
        # leave in the order of those points' keys.
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
        rank = [0, 2] * K
        for i, (_, _, tail, head) in enumerate(self.chords):
            chain = (
                [self.coord_vid[tail]]
                + [vid for _, vid in sorted(self.splits[i])]
                + [self.coord_vid[head]]
            )
            last = len(chain) - 2
            for r in range(last + 1):
                self.edges.append(("chord", chain[r], chain[r + 1], i))
                rank += (1 if r == 0 else head, 1 if r == last else tail)
        self.tail = [v for e in self.edges for v in (e[1], e[2])]
        self.he_rank = rank

    # -- the half-edge walk --------------------------------------------

    def _build_faces(self) -> None:
        tail = self.tail
        rotation, rot_pos = _rotation(
            tail, len(self.coord_vid) + len(self.crossings), self.he_rank
        )

        # after h, at h's head, the half-edge before h's reverse
        next_he = [rotation[tail[h ^ 1]][rot_pos[h ^ 1] - 1] for h in range(len(tail))]
        self.faces = _orbits(next_he)
        self.face_of = [0] * len(tail)
        self.prev_in_face = [0] * len(tail)
        for fi, cycle in enumerate(self.faces):
            for i, h in enumerate(cycle):
                self.face_of[h] = fi
                self.prev_in_face[h] = cycle[i - 1]
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

    # -- gluing ----------------------------------------------------------

    def _build_pairings(self, g: int) -> None:
        # the counterclockwise arcs of the interior faces by side, as
        # (t0, t1, slot); both copies of a side carry the same
        # parameters, so their intervals match exactly
        by_side: list[list[tuple[int, int, int]]] = [[] for _ in range(2 * g + 2)]
        for h, fi in enumerate(self.face_of):
            e = self.edges[h >> 1]
            if fi == self.outer or e[0] != "arc":
                continue
            if h & 1:
                raise RuntimeError("interior face contains a clockwise arc")
            by_side[e[3]].append((e[4], e[5], h))
        self.pairings: list[tuple[int, int, int]] = []
        for pair in range(1, g + 1):
            side_a, side_b = 2 * pair - 1, 2 * pair
            arcs_a, arcs_b = sorted(by_side[side_a]), sorted(by_side[side_b])
            if [a[:2] for a in arcs_a] != [b[:2] for b in arcs_b]:
                raise RuntimeError(
                    f"glued sides {side_a}/{side_b} subdivide differently"
                )
            self.pairings += [(a[2], b[2], 1) for a, b in zip(arcs_a, arcs_b)]
        # the capping disk is face F with the one slot 2E, glued to the
        # free side without a flip
        self.cap = self.spec.boundary == 0
        if self.cap:
            cap_slot = len(self.face_of)
            self.face_of.append(len(self.faces))
            self.prev_in_face.append(cap_slot)
            ((_, _, free_slot),) = by_side[2 * g + 1]
            self.pairings.append((free_slot, cap_slot, 0))

    # -- bookkeeping -------------------------------------------------------

    def _account(self) -> None:
        # ids: faces 0..F (F is the cap) and slots 0..2E (2E is the cap)
        face_of, prev = self.face_of, self.prev_in_face
        n_faces, n_slots = len(self.faces) + self.cap, len(face_of)
        face_uf = _UnionFind(n_faces)
        corner_uf = _UnionFind(n_slots)
        paired = bytearray(n_slots)
        for sa, sb, flip in self.pairings:
            face_uf.union(face_of[sa], face_of[sb], flip)
            if flip:
                corner_uf.union(sa, sb)
                corner_uf.union(prev[sa], prev[sb])
            else:
                corner_uf.union(sa, prev[sb])
                corner_uf.union(sb, prev[sa])
            paired[sa] = paired[sb] = 1
        slots = [s for s in range(n_slots) if face_of[s] != self.outer]
        boundary_slots = [s for s in slots if not paired[s]]

        # per component, indexed by its root face
        interior = [fi for fi in range(n_faces) if fi != self.outer]
        comp_of = face_uf.roots()
        faces, edges, vertices, circles = ([0] * n_faces for _ in range(4))
        for fi in interior:
            faces[comp_of[fi]] += 1
        for s, _, _ in self.pairings:
            edges[comp_of[face_of[s]]] += 1
        for s in boundary_slots:
            edges[comp_of[face_of[s]]] += 1
        corner = corner_uf.roots()
        corner_comp = [-1] * n_slots
        for s in slots:
            root = corner[s]
            c = comp_of[face_of[s]]
            if corner_comp[root] == -1:
                corner_comp[root] = c
                vertices[c] += 1
            elif corner_comp[root] != c:
                raise RuntimeError("a vertex class straddles two components")

        # boundary circles: the boundary corner classes form a 2-regular
        # multigraph whose components are the circles; the corner classes
        # are final, so joining them in corner_uf leaves one class per circle
        ends = [(corner[prev[s]], corner[s]) for s in boundary_slots]
        degree = [0] * n_slots
        for a, b in ends:
            degree[a] += 1
            degree[b] += 1
        if any(degree[a] != 2 or degree[b] != 2 for a, b in ends):
            raise RuntimeError("cut boundary is not a union of circles")
        for a, b in ends:
            corner_uf.union(a, b)
        circle = corner_uf.roots()
        met, cut = bytearray(n_slots), bytearray(n_slots)
        for s in boundary_slots:
            root = circle[s]
            if not met[root]:
                met[root] = 1
                circles[comp_of[face_of[s]]] += 1
            if self.edges[s >> 1][0] == "chord":
                cut[root] = 1
        self.cut_circle_count = sum(cut)

        self.components: list[ComponentReport] = [
            ComponentReport(
                kind="complement",
                euler_characteristic=vertices[c] - edges[c] + faces[c],
                boundary_circles=circles[c],
                orientable=not face_uf.contradictory(c),
            )
            for c in sorted({comp_of[fi] for fi in interior})
        ]

    # -- ribbon pieces -----------------------------------------------------

    def ribbons(self) -> list[ComponentReport]:
        """Neighbourhood pieces of the selected curves.

        Isolated curves give untwisted bands (the registered curves are
        two-sided, so annuli); curves joined by crossings give a plumbed
        ribbon whose boundary is traced strand by strand, with one side
        swap per crosscap passage.
        """
        n_curves = len(self.curves)
        curve_uf = _UnionFind(n_curves)
        crossed = bytearray(n_curves)
        for _, i, _, j, _ in self.crossings:
            ci, cj = self.chords[i][0], self.chords[j][0]
            curve_uf.union(ci, cj)
            crossed[ci] = crossed[cj] = 1

        out: list[ComponentReport] = []
        ribbon_circles = 0
        for ci, (_, geom) in enumerate(self.curves):
            if crossed[ci]:
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
        stations: list[list[tuple[int, tuple, int]]] = [[] for _ in range(n_curves)]
        for rid, (_, i, s, j, u) in enumerate(self.crossings):
            for chord_idx, key in ((i, s), (j, u)):
                ci, k, *_ = self.chords[chord_idx]
                stations[ci].append((k, key, rid))
        # strand e runs between consecutive stations of curve
        # strand_curve[e] and swaps sides strand_parity[e] times; its
        # ends are 2e, at the station it starts from, and 2e + 1, at the
        # next one
        strand_curve: list[int] = []
        strand_parity: list[int] = []
        end_rid: list[int] = []  # the crossing at each strand end
        end_coord: list[int] = []  # the boundary point each end heads for
        for ci, sts in enumerate(stations):
            sts.sort()
            chords = self.curve_chords[ci]
            m = len(chords)
            n = len(sts)
            for q in range(n):
                k1, _, r1 = sts[q]
                k2, _, r2 = sts[(q + 1) % n]
                delta = k2 - k1 if q + 1 < n else (k2 + m - k1)
                strand_curve.append(ci)
                strand_parity.append(delta % 2)
                end_rid += (r1, r2)
                end_coord += (chords[k1][1], chords[k2][0])

        # strand ends leave a crossing in the order of the boundary points
        # they head for, as the half-edges do
        rotation, rot_pos = _rotation(
            end_rid, len(self.crossings), end_coord
        )
        if any(len(ring) != 4 for ring in rotation):
            raise RuntimeError("a crossing without four strand ends")

        vertex_uf = _UnionFind(len(self.crossings))
        for e, parity in enumerate(strand_parity):
            vertex_uf.union(end_rid[2 * e], end_rid[2 * e + 1], parity)
        curve_comp = curve_uf.roots()
        comp_cross = [0] * n_curves
        comp_orient_bad = bytearray(n_curves)
        for rid, (_, i, _, _, _) in enumerate(self.crossings):
            c = curve_comp[self.chords[i][0]]
            comp_cross[c] += 1
            if vertex_uf.contradictory(rid):
                comp_orient_bad[c] = 1

        # strand tracing: state = 2 * (departing end) + side; a side is
        # 0 for the strand on the left of travel, swapped by each
        # crosscap passage; corners keep the side, left turns to the
        # rotation predecessor and right to the successor.
        next_state: list[int] = []
        for state in range(2 * len(end_rid)):
            arrive = (state >> 1) ^ 1
            side = (state & 1) ^ strand_parity[arrive >> 1]
            ring = rotation[end_rid[arrive]]
            i = rot_pos[arrive]
            next_state.append(2 * (ring[(i + 1) % 4] if side else ring[i - 1]) + side)

        orbit_count = [0] * n_curves
        for cycle in _orbits(next_state):
            orbit_count[curve_comp[strand_curve[cycle[0] >> 2]]] += 1

        for comp, crossings in enumerate(comp_cross):
            if not crossings:
                continue
            orbits = orbit_count[comp]
            if orbits % 2 != 0:
                raise RuntimeError("odd strand orbit count")
            circles = orbits // 2
            ribbon_circles += circles
            out.append(
                ComponentReport(
                    kind="neighbourhood",
                    euler_characteristic=-crossings,
                    boundary_circles=circles,
                    orientable=not comp_orient_bad[comp],
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
