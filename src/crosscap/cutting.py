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
id.

* The ``K`` boundary vertices, polygon corners and chord ends, are
  numbered ``0..K-1`` in key order, so arc ``e`` runs from vertex ``e``
  to ``e + 1`` (the last one, back to vertex 0, is the free side).
* Half-edges ``2e`` and ``2e + 1`` are arc ``e`` counterclockwise and
  clockwise; the chords' segments follow, so a half-edge is a chord
  side exactly when it is at least ``2K``.
* Faces are the orbits of the rotation at each vertex composed with
  ``h ^ 1`` (Lando and Zvonkin, *Graphs on Surfaces and Their
  Applications*, 2004).  The rotation at a boundary vertex is always
  counterclockwise arc, chord, clockwise arc, and the one at a crossing
  is the key order of the four chord ends, which the sweep knows; so
  every face successor is written down directly and nothing is sorted.
  The clockwise arcs make up the outer face.
* The side gluings pair the counterclockwise arcs of two sides in key
  order (the two copies of a crosscap side are subdivided at identical
  parameters, one per crossing event).  So the slots of the interior
  faces, and which of them stay unpaired as cut boundary, are known by
  construction.

One orbit walk over a successor list (``_orbits``) finds both the
faces, as cycles of half-edges, and the boundary of the curves'
neighbourhood, as cycles of strands; one union-find with a Z/2 weight
(``_UnionFind``) merges faces into pieces and tells their
orientability, and serves plainly for corners, circles and curves.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from crosscap.polygon import (
    SIDE,
    CurveGeometry,
    DegeneratePositionError,
    _coordinate_text,
    _interleaved,
    crossing_count,  # not used here; perfbench's tests trace it through this module
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
    return registry.crossings.count(ru.name, rv.name)


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
        # the two finds, inlined: this is the complex's innermost loop
        parent, weight = self.parent, self.parity
        pa = 0
        while parent[a] != a:
            up = parent[a]
            weight[a] ^= weight[up]
            pa ^= weight[a]
            parent[a] = up = parent[up]
            a = up
        pb = 0
        while parent[b] != b:
            up = parent[b]
            weight[b] ^= weight[up]
            pb ^= weight[b]
            parent[b] = up = parent[up]
            b = up
        if a == b:
            if pa ^ pb != parity:
                self.bad[a] = True
            return
        parent[b] = a
        weight[b] = pa ^ pb ^ parity
        if self.bad[b]:
            self.bad[a] = True

    def contradictory(self, x: int) -> bool:
        return self.bad[self.find(x)[0]]


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
        # boundary vertices: the polygon corners and the chord ends,
        # numbered in key order; vertex_of maps a key to its number
        keys = [corner * SIDE for corner in range(0, 2 * g + 1)]
        for chords in self.curve_chords:
            for chord in chords:
                keys += chord
        self.coords = sorted(keys)
        self.vertex_of = dict(zip(self.coords, range(len(keys))))
        if len(self.vertex_of) < len(keys):
            seen: set[int] = set()
            for key in keys:
                if key in seen:
                    raise DegeneratePositionError(
                        "two curve endpoints share boundary coordinate "
                        f"{_coordinate_text(key)}"
                    )
                seen.add(key)
        # the arc from the last vertex round to vertex 0 is exactly the
        # free side: no curve touches it
        if self.coords[-1] != 2 * g * SIDE:
            raise DegeneratePositionError("a curve endpoint landed on the free side")

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
        depth = [0] * n_chords
        for r, i in enumerate(ranked):
            depth[i] = r
        tail_above = [tail > head for _, _, tail, head in self.chords]
        # per chord, (key on the chord, ring place) of each crossing on
        # it, sorted along the chord once the sweep is done
        self.splits: list[list[tuple[tuple, int]]] = [[] for _ in range(n_chords)]
        # (chord a, key on a, chord b, key on b), a the chord that closes first
        self.crossings: list[tuple[int, tuple, int, tuple]] = []
        # one sweep finds the crossings; no two of the 2C ends share a key
        ends = sorted(range(2 * n_chords), key=lambda e: spans[e >> 1][e & 1])
        for a, b in _interleaved(ends):
            # lower a < lower b < upper a < upper b: the deeper chord's end
            # inside the shallower one's interval is b's lower end or a's
            # upper end
            if depth[a] < depth[b]:
                key_a, key_b = (1, spans[b][0]), (0, depth[a])
            else:
                key_a, key_b = (2, -depth[b]), (1, spans[a][1])
            # literals, not tuple() of a generator, whose resized tuples
            # pile up in CPython's free lists
            if tail_above[a]:
                key_a = (-key_a[0], -key_a[1])
            if tail_above[b]:
                key_b = (-key_b[0], -key_b[1])
            # The four half-edges leaving crossing r head for a's lower
            # end, b's lower end, a's upper end and b's upper end: that is
            # the key order of those ends, so it is the rotation at r, and
            # they take the ring places 4r to 4r + 3.  A split records the
            # place of the one that leaves towards its chord's head;
            # place ^ 2 leaves towards the tail.
            place = 4 * len(self.crossings)
            self.splits[a].append((key_a, place if tail_above[a] else place + 2))
            self.splits[b].append((key_b, place + 1 if tail_above[b] else place + 3))
            self.crossings.append((a, key_a, b, key_b))
        for splits in self.splits:
            splits.sort()

    # -- the half-edge walk --------------------------------------------

    def _build_faces(self) -> None:
        # The face after half-edge h into vertex x leaves x just before
        # h's reverse in the rotation at x.  So a ccw arc into x goes on
        # along x's chord, or along arc 2x at a corner; a chord into x
        # goes on along 2x; a cw arc goes on along the cw arc before it;
        # and at a crossing, the ring place before.  Chord segments are
        # numbered chord by chord from the tail, 2s towards the head.
        K = len(self.coords)
        vertex_of = self.vertex_of
        succ = [0] * (2 * (K + len(self.chords) + 2 * len(self.crossings)))
        after_ccw = list(range(0, 2 * K, 2))  # after a ccw arc into each vertex
        ring = [0] * (4 * len(self.crossings))
        h = 2 * K
        for (_, _, tail, head), splits in zip(self.chords, self.splits):
            x = vertex_of[tail]
            after_ccw[x] = h
            succ[h + 1] = 2 * x
            for _, place in splits:
                ring[place ^ 2] = h + 1
                h += 2
                ring[place] = h
            x = vertex_of[head]
            after_ccw[x] = h + 1
            succ[h] = 2 * x
            h += 2
        succ[0 : 2 * K : 2] = after_ccw[1:] + after_ccw[:1]
        succ[1 : 2 * K : 2] = [2 * K - 1, *range(1, 2 * K - 2, 2)]
        for c in range(0, len(ring), 4):
            r0, r1, r2, r3 = ring[c : c + 4]
            succ[r0 ^ 1] = r3
            succ[r1 ^ 1] = r0
            succ[r2 ^ 1] = r1
            succ[r3 ^ 1] = r2
        self.next_he = succ

        self.faces = _orbits(succ)
        self.face_of = [0] * len(succ)
        self.prev_in_face = [0] * len(succ)
        for fi, cycle in enumerate(self.faces):
            for i, h in enumerate(cycle):
                self.face_of[h] = fi
                self.prev_in_face[h] = cycle[i - 1]
        # the outer face walks the circle clockwise
        self.outer = self.face_of[1]
        if len(self.faces[self.outer]) != K:
            raise RuntimeError("outer face is not the full clockwise circle")

    # -- gluing ----------------------------------------------------------

    def _build_pairings(self, g: int) -> None:
        # Side s is cut into the arcs from corner s - 1 to corner s, in
        # key order.  Both copies of a side carry the same parameters, so
        # their arcs match one to one; glued_a[i] and glued_b[i] are the
        # counterclockwise slots of one matched pair.
        coords, vertex_of = self.coords, self.vertex_of
        corner = [vertex_of[c * SIDE] for c in range(2 * g + 1)]
        self.glued_a: list[int] = []
        self.glued_b: list[int] = []
        for pair in range(1, g + 1):
            va, vb, vc = corner[2 * pair - 2], corner[2 * pair - 1], corner[2 * pair]
            if [key + SIDE for key in coords[va:vb]] != coords[vb:vc]:
                raise RuntimeError(
                    f"glued sides {2 * pair - 1}/{2 * pair} subdivide differently"
                )
            self.glued_a += range(2 * va, 2 * vb, 2)
            self.glued_b += range(2 * vb, 2 * vc, 2)
        # the capping disk is face F with the one slot 2E, glued to the
        # free side, the last arc, without a flip
        self.cap = self.spec.boundary == 0
        if self.cap:
            self.face_of.append(len(self.faces))
            self.prev_in_face.append(len(self.next_he))

    # -- bookkeeping -------------------------------------------------------

    def _account(self) -> None:
        # ids: faces 0..F (F is the cap) and slots 0..2E (2E is the cap)
        face_of, prev = self.face_of, self.prev_in_face
        n_faces, n_slots = len(self.faces) + self.cap, len(face_of)
        cap = len(self.next_he)
        first_chord = 2 * len(self.coords)
        free = first_chord - 2
        face_uf = _UnionFind(n_faces)
        corner_uf = _UnionFind(n_slots)
        join_faces, join_corners = face_uf.union, corner_uf.union
        for sa, sb in zip(self.glued_a, self.glued_b):
            join_faces(face_of[sa], face_of[sb], 1)
            join_corners(sa, sb)
            join_corners(prev[sa], prev[sb])
        if self.cap:
            join_faces(face_of[free], face_of[cap], 0)
            join_corners(free, cap)
            join_corners(cap, prev[free])
        # the interior slots are the ccw arcs, the chord sides and the
        # cap slot; those left unpaired are the chord sides, and the free
        # side when nothing caps it
        slots = [*range(0, first_chord, 2), *range(first_chord, n_slots)]
        boundary_slots = [*range(first_chord, cap)]
        if not self.cap:
            boundary_slots.append(free)

        # per component, indexed by its root face
        interior = [fi for fi in range(n_faces) if fi != self.outer]
        comp_of = face_uf.roots()
        slot_comp = [comp_of[fi] for fi in face_of]
        faces, edges, vertices, circles = ([0] * n_faces for _ in range(4))
        for fi in interior:
            faces[comp_of[fi]] += 1
        for s in self.glued_a:
            edges[slot_comp[s]] += 1
        if self.cap:
            edges[slot_comp[free]] += 1
        for s in boundary_slots:
            edges[slot_comp[s]] += 1
        corner = corner_uf.roots()
        corner_comp = [-1] * n_slots
        for s in slots:
            root = corner[s]
            c = slot_comp[s]
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
            join_corners(a, b)
        circle = corner_uf.roots()
        # a circle lies in one piece: count it at one of its slots
        for s in {circle[s]: s for s in boundary_slots}.values():
            circles[slot_comp[s]] += 1
        # a cut circle is one along a chord side
        self.cut_circle_count = len({circle[s] for s in range(first_chord, cap)})

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
        for i, _, j, _ in self.crossings:
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

        # stations along each curve, in order: (local chord index, ring
        # place towards the chord's head); chords come curve by curve in
        # order, and the splits of each are sorted along it
        stations: list[list[tuple[int, int]]] = [[] for _ in range(n_curves)]
        for (ci, k, _, _), splits in zip(self.chords, self.splits):
            for _, place in splits:
                stations[ci].append((k, place))
        # strand e runs between consecutive stations of curve
        # strand_curve[e] and swaps sides strand_parity[e] times; its
        # ends are 2e, at the station it starts from, and 2e + 1, at the
        # next one.  An end takes the ring place of the half-edge it runs
        # along, so the ring of crossing r holds the ends at 4r to 4r + 3
        # in rotation order.
        strand_curve: list[int] = []
        strand_parity: list[int] = []
        end_place: list[int] = []
        for ci, sts in enumerate(stations):
            m = len(self.curve_chords[ci])
            n = len(sts)
            for q in range(n):
                k1, p1 = sts[q]
                k2, p2 = sts[(q + 1) % n]
                delta = k2 - k1 if q + 1 < n else (k2 + m - k1)
                strand_curve.append(ci)
                strand_parity.append(delta % 2)
                end_place += (p1, p2 ^ 2)
        end_of_place = [0] * len(end_place)
        for end, place in enumerate(end_place):
            end_of_place[place] = end

        vertex_uf = _UnionFind(len(self.crossings))
        for e, parity in enumerate(strand_parity):
            vertex_uf.union(end_place[2 * e] >> 2, end_place[2 * e + 1] >> 2, parity)
        curve_comp = curve_uf.roots()
        comp_cross = [0] * n_curves
        comp_orient_bad = bytearray(n_curves)
        for rid, (i, _, _, _) in enumerate(self.crossings):
            c = curve_comp[self.chords[i][0]]
            comp_cross[c] += 1
            if vertex_uf.contradictory(rid):
                comp_orient_bad[c] = 1

        # strand tracing: state = 2 * (departing end) + side; a side is
        # 0 for the strand on the left of travel, swapped by each
        # crosscap passage; corners keep the side, left turns to the
        # rotation predecessor and right to the successor.
        next_state: list[int] = []
        for state in range(2 * len(end_place)):
            arrive = (state >> 1) ^ 1
            side = (state & 1) ^ strand_parity[arrive >> 1]
            place = end_place[arrive]
            turn = place + 1 if side else place - 1
            next_state.append(2 * end_of_place[(place & ~3) | (turn & 3)] + side)

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
    selected = {registry.curve(raw).name for raw in names}
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
