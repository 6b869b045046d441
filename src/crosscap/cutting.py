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
of endpoint positions and integer keys.  The complex reads each
curve's chords as ``polygon`` keys them, and polygon corner ``c`` gets
the key ``c * SIDE``, so keys sort as the coordinates do.  The crossing
pairs come from one sweep over the endpoints in key order (Bentley and
Ottmann, IEEE Trans. Comput. C-28, 1979): when a chord closes, the
chords that opened after it and are still open are exactly those that
cross it, so no pair of chords is tested.

Every object of the complex is a dense integer id: vertices, half-edges,
faces ``0..F-1``, curves, crossings and strand ends.  The capping disk
of a closed surface is one more face, ``F``, with one slot, the id after
the last half-edge.  Tables are lists indexed by id.

* The ``K`` boundary vertices, polygon corners and chord ends, are
  numbered ``0..K-1`` in key order, so arc ``e`` runs from vertex ``e``
  to ``e + 1`` (the last one, back to vertex 0, is the free side).
* The ``S`` chord segments come first, as half-edges ``0..2S-1``, where
  ``h ^ 1`` reverses ``h``.  Each boundary arc is one half-edge, arc
  ``e`` being ``2S + e``, counterclockwise: its clockwise twin would
  only bound the outer face, which nothing reads.  So a half-edge is a
  chord side exactly when it is below ``2S``.
* Faces are the orbits of the rotation at each vertex composed with
  reversal (Lando and Zvonkin, *Graphs on Surfaces and Their
  Applications*, 2004).  The rotation at a boundary vertex is always
  arc ahead, chord, arc back, and the one at a crossing is the key order
  of the four chord ends, which the sweep knows; so every face
  successor is written down directly and nothing is sorted.  The walk
  finds only the faces inside the circle, and the drawing there is a
  disk: with ``V = K + X`` vertices and ``E = K + C + 2X`` edges for
  ``C`` chords and ``X`` crossings, there must be ``1 + C + X`` faces,
  a count that any two swapped successors change.
* The side gluings pair the arcs of two sides in key order (the two
  copies of a crosscap side are subdivided at identical parameters, one
  per crossing event).  So the slots of the faces, and which of them
  stay unpaired as cut boundary, are known by construction.

One walk over a successor list (``_orbits``) numbers the faces, and
another counts the boundary cycles of the curves' neighbourhood on a
strand table indexed by ring place.  A union-find with a Z/2 weight
(``_UnionFind``) merges faces into pieces and crossings, along the
strands of the curves between them, into ribbons, telling the
orientability of each.  A corner has at most two gluings, so the corner
classes are paths along the cut boundary and cycles, and walking them
counts vertices and boundary circles; only polygon corners and the cap
lie off the cut boundary, so only they can close a cycle.  A table
whose entries come in id order is built whole, by a comprehension, a
slice or a sort by a key list; only scattered entries are written one at
a time.  The complex counts each piece as a plain tuple, and
``cut_along`` sorts them and makes one record per distinct piece.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

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


#: A piece as the cut complex counts it: its ``ComponentReport`` fields, in order.
Piece = tuple[str, int, int, bool]


class ComplementReport(Record):
    __slots__ = ("genus", "boundary", "curve_names", "components")

    @property
    def total_euler(self) -> int:
        return sum(c.euler_characteristic for c in self.components)

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


# -- a union-find and an orbit walk ------------------------------------------


class _UnionFind:
    """Union-find on the ids 0..n-1 with a Z/2 weight per id.

    An id's weight is its parity relative to its parent; a union that
    closes a cycle of odd total parity marks the class as contradictory
    (``bad`` at its root), which is exactly non-orientability for us.  It
    joins faces, and the ribbons' crossings, with parities.
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.parity = [0] * n
        self.bad = [False] * n

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

    def join(self, links: Iterable[tuple[int, int, int]]) -> None:
        """Join a and b, b at parity p to a, for each (a, b, p) of ``links``."""
        parent, weight, bad = self.parent, self.parity, self.bad
        for a, b, parity in links:
            # the two finds, inlined: this is the complex's innermost loop
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
                    bad[a] = True
                continue
            parent[b] = a
            weight[b] = pa ^ pb ^ parity
            if bad[b]:
                bad[a] = True


def _orbits(step: list[int]) -> tuple[list[int], list[int]]:
    """The cycle of each state of the permutation ``step`` of 0..n-1 and
    each cycle's first state, from one walk.

    Cycles are numbered in the order of their least states, and each
    walk starts there.
    """
    orbit_of = [-1] * len(step)
    firsts: list[int] = []
    start = 0
    while True:
        try:  # the next walk starts at the least state still unvisited
            start = state = orbit_of.index(-1, start)
        except ValueError:
            return orbit_of, firsts
        o = len(firsts)
        firsts.append(start)
        while orbit_of[state] < 0:
            orbit_of[state] = o
            state = step[state]
        if state != start:
            raise RuntimeError("walk did not close; rotation is corrupt")


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
        self._number_faces()
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
        # boundary vertices, numbered in key order by one sort: vertex[i]
        # for corner i <= 2g, and for end j = i - 2g - 1 (chord j >> 1's
        # tail, or its head when j is odd)
        keys = [*range(0, (2 * g + 1) * SIDE, SIDE)]
        for chords in self.curve_chords:
            for chord in chords:
                keys += chord
        self.order = sorted(range(len(keys)), key=keys.__getitem__)
        self.coords = [keys[i] for i in self.order]
        self.vertex = vertex = [0] * len(keys)
        for v, i in enumerate(self.order):
            vertex[i] = v
        if len(set(keys)) < len(keys):
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
        # comes down through it.  Depth orders the intervals by their key
        # length, then lower end: keys keep strict nesting, and no two
        # endpoints share a key, which is all the drawing needs.  A
        # crossing's place on a chord, counted from the lower end, is one
        # integer: depth on the way down, along + x along and up - depth on
        # the way up, each range above the one before.
        n_chords = len(self.chords)
        tail_above = [tail > head for _, _, tail, head in self.chords]
        spans = [  # (lower, upper)
            (head, tail) if above else (tail, head)
            for (_, _, tail, head), above in zip(self.chords, tail_above)
        ]
        m = self.coords[-1] + 1  # above every key
        depth = [(upper - lower) * m + lower for lower, upper in spans]
        along, up = m * m, 2 * m * m + m
        # per chord, (key on the chord, ring place) of each crossing on
        # it, sorted from tail to head once the sweep is done
        self.splits: list[list[tuple[int, int]]] = [[] for _ in range(n_chords)]
        # (chord a, key on a, chord b, key on b), a the chord that closes first
        self.crossings: list[tuple[int, int, int, int]] = []
        # one sweep over the chord ends in vertex order finds the crossings;
        # it takes 2a for chord a's lower end and 2a + 1 for its upper one,
        # so end j as j ^ tail_above[j >> 1]
        first_end = len(self.coords) - 2 * n_chords
        ends = [j - first_end for j in self.order if j >= first_end]
        for a, b in _interleaved([j ^ tail_above[j >> 1] for j in ends]):
            # lower a < lower b < upper a < upper b: the deeper chord's end
            # inside the shallower one's interval is b's lower end or a's
            # upper end
            if depth[a] < depth[b]:
                key_a, key_b = along + spans[b][0], depth[a]
            else:
                key_a, key_b = up - depth[b], along + spans[a][1]
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
        for splits, above in zip(self.splits, tail_above):
            splits.sort(reverse=above)

    # -- the half-edge walk --------------------------------------------

    def _build_faces(self) -> None:
        # The face after half-edge h into vertex x leaves x just before
        # h's reverse in the rotation at x.  So an arc into x goes on
        # along x's chord, or along arc x at a corner; a chord into x goes
        # on along arc x; and at a crossing, the ring place before.  Chord
        # segments are numbered chord by chord from the tail, 2s towards
        # the head.
        K = len(self.coords)
        first_arc = self.first_arc = 2 * (len(self.chords) + 2 * len(self.crossings))
        succ = [0] * (first_arc + K)
        after_arc = list(range(first_arc, first_arc + K))  # after the arc into each vertex
        ring = [0] * (4 * len(self.crossings))
        h = 0
        ends = self.vertex[K - 2 * len(self.chords) :]
        for x, y, splits in zip(ends[::2], ends[1::2], self.splits):
            after_arc[x] = h
            succ[h + 1] = first_arc + x
            for _, place in splits:
                ring[place ^ 2] = h + 1
                h += 2
                ring[place] = h
            after_arc[y] = h + 1
            succ[h] = first_arc + y
            h += 2
        succ[first_arc:] = after_arc[1:] + after_arc[:1]
        for c in range(0, len(ring), 4):
            r0, r1, r2, r3 = ring[c : c + 4]
            succ[r0 ^ 1] = r3
            succ[r1 ^ 1] = r0
            succ[r2 ^ 1] = r1
            succ[r3 ^ 1] = r2
        self.next_he = succ

    def _number_faces(self) -> None:
        self.face_of, firsts = _orbits(self.next_he)
        self.n_faces = len(firsts)
        # The drawing is a disk: V = K + X vertices, E = K + C + 2X edges
        # and F faces inside the circle make V - E + F = 1.
        disk_faces = 1 + len(self.chords) + len(self.crossings)
        if self.n_faces != disk_faces:
            raise RuntimeError(
                f"the faces do not tile a disk ({self.n_faces} faces, {disk_faces} expected)"
            )

    # -- gluing ----------------------------------------------------------

    def _build_pairings(self, g: int) -> None:
        # Side s is cut into the arcs from corner s - 1 to corner s, in
        # key order.  Both copies of a side carry the same parameters, so
        # their arcs match one to one; glued_a[i] and glued_b[i] are the
        # slots of one matched pair.
        coords, arc = self.coords, self.first_arc
        corner = self.vertex[: 2 * g + 1]
        shifted = [key + SIDE for key in coords]
        self.glued_a: list[int] = []
        self.glued_b: list[int] = []
        for pair in range(1, g + 1):
            va, vb, vc = corner[2 * pair - 2], corner[2 * pair - 1], corner[2 * pair]
            if shifted[va:vb] != coords[vb:vc]:
                raise RuntimeError(
                    f"glued sides {2 * pair - 1}/{2 * pair} subdivide differently"
                )
            self.glued_a += range(arc + va, arc + vb)
            self.glued_b += range(arc + vb, arc + vc)
        # the capping disk is face F with the one slot after the last arc,
        # glued to the free side, the last arc, without a flip.  The arcs
        # that start at polygon corners, and the cap, hold the only corners
        # that no chord side ends at.
        self.corner_slots = [arc + v for v in corner]
        self.cap = self.spec.boundary == 0
        if self.cap:
            self.face_of.append(self.n_faces)
            self.corner_slots.append(len(self.next_he))

    # -- bookkeeping -------------------------------------------------------

    def _account(self) -> None:
        # ids: faces 0..F (F is the cap) and slots 0..2S + K (2S + K is the cap)
        face_of = self.face_of
        n_faces, n_slots = self.n_faces + self.cap, len(face_of)
        cap = len(self.next_he)
        after = [*self.next_he, cap]  # the cap's one slot follows itself
        first_arc = self.first_arc
        free = cap - 1
        # the slots left unpaired are the chord sides, and the free side
        # when no cap is glued to it (the one gluing without a flip)
        glued = [*zip(self.glued_a, self.glued_b)]
        boundary = [*range(first_arc)]
        if self.cap:
            glued.append((free, cap))
        else:
            boundary.append(free)
        face_uf = _UnionFind(n_faces)
        face_uf.join([(face_of[sa], face_of[sb], sb != cap) for sa, sb in glued])

        # Corner s is where slot s starts and the one before it ends; its
        # sides are 2s, the start of s, and 2s + 1.  A gluing of x to y
        # links their starts and their ends, and a boundary slot its start
        # to its end, so each side of an interior corner has one link.  A
        # walk that crosses a link and then its corner goes round a
        # boundary circle, whose vertices are the corner paths between its
        # slots, or round one vertex.  An unlinked side leads back into its
        # own corner.
        link = [*range(2 * n_slots)]
        for x, y in glued:
            link[2 * x], link[2 * y] = 2 * y, 2 * x
            x, y = 2 * after[x] + 1, 2 * after[y] + 1
            link[x], link[y] = y, x
        ends = [2 * after[t] + 1 for t in boundary]
        # the chord sides are the slots 0..first_arc - 1
        link[: 2 * first_arc : 2] = ends[:first_arc]
        if not self.cap:
            link[2 * free] = ends[-1]
        for t, x in zip(boundary, ends):
            link[x] = 2 * t

        # per component, indexed by its root face; a corner keeps its
        # component until a walk passes it
        comp_of = face_uf.roots()
        mark = [comp_of[fi] for fi in face_of]
        faces, edges, cycles, circles = ([0] * n_faces for _ in range(4))
        for root in comp_of:
            faces[root] += 1
        for s, _ in glued:
            edges[mark[s]] += 1

        def walk(c: int) -> int:
            comp, mark[c], i = mark[c], -1, 2 * c
            while True:
                i = link[i] ^ 1
                if mark[i >> 1] != comp:
                    if i == 2 * c:
                        return comp
                    raise RuntimeError(
                        "a vertex class straddles two components" if mark[i >> 1] >= 0
                        else "cut boundary is not a union of circles"
                    )
                mark[i >> 1] = -1

        # a cut circle is one along a chord side, and those come first
        self.cut_circle_count = 0
        for t in boundary:
            if mark[t] >= 0:
                circles[walk(t)] += 1
                self.cut_circle_count += t != free
        for c in self.corner_slots:
            if mark[c] >= 0:
                cycles[walk(c)] += 1

        # the boundary slots add one vertex and one edge each, so
        # V - E = cycles - gluings; the ids are roots, so a piece's
        # orientability is its own flag
        bad = face_uf.bad
        self.components: list[Piece] = [
            ("complement", cycles[c] - edges[c] + faces[c], circles[c], not bad[c])
            for c in set(comp_of)
        ]

    # -- ribbon pieces -----------------------------------------------------

    def ribbons(self) -> list[Piece]:
        """Neighbourhood pieces of the selected curves.

        Isolated curves give untwisted bands (the registered curves are
        two-sided, so annuli); curves joined by crossings give a plumbed
        ribbon whose boundary is traced strand by strand, with one side
        swap per crosscap passage.
        """
        # stations along each curve, in order: (local chord index, ring
        # place towards the chord's head); chords come curve by curve in
        # order, and the splits of each are sorted along it
        stations: list[list[tuple[int, int]]] = [[] for _ in self.curves]
        for (ci, k, _, _), splits in zip(self.chords, self.splits):
            for _, place in splits:
                stations[ci].append((k, place))

        # Strand q of a curve runs from its station q to the next, the last
        # one round to the first, a lap (m chords) further along the curve,
        # and swaps sides once per chord it passes into.  Its ends are the
        # ring places of the half-edges it runs along: the one leaving
        # station q towards the head and the one leaving the next station
        # towards the tail.  So every ring place ends exactly one strand;
        # arrive[p] is 2 * (the place at its other end) + (its side swaps
        # mod 2).
        out: list[Piece] = []
        ribbon_circles = 0
        arrive = [0] * (4 * len(self.crossings))
        # the strands of a curve join all the crossings on it, so the
        # classes are the bunches of crossing curves: one ribbon each
        links: list[tuple[int, int, int]] = []
        for sts, chords in zip(stations, self.curve_chords):
            m = len(chords)
            if not sts:
                circles = 2 if m % 2 == 0 else 1
                ribbon_circles += circles
                out.append(("neighbourhood", 0, circles, m % 2 == 0))
                continue
            k, place = sts[0]
            for (k1, p1), (k2, p2) in zip(sts, [*sts[1:], (k + m, place)]):
                p2 ^= 2
                odd = (k2 - k1) & 1
                arrive[p1], arrive[p2] = 2 * p2 + odd, 2 * p1 + odd
                links.append((p1 >> 2, p2 >> 2, odd))
        vertex_uf = _UnionFind(len(self.crossings))
        vertex_uf.join(links)
        if not self.crossings:
            self._check_ribbon_circles(ribbon_circles)
            return out
        ribbon_of = vertex_uf.roots()
        ribbon_cross = [0] * len(ribbon_of)
        for root in ribbon_of:
            ribbon_cross[root] += 1

        # Strand tracing: state 2p + side leaves ring place p, and arrives
        # as state arrive[p] ^ side at the other end.  A side is 0 for the
        # strand on the left of travel, swapped by each crosscap passage;
        # corners keep the side, left turns to the rotation predecessor
        # and right to the successor.  So the arrival 8r + 2j + s at place
        # j of ring r leaves as turn[8r + 2j + s] = 8r + 2(j - 1 mod 4) for
        # s = 0 and 8r + 2(j + 1 mod 4) + 1 for s = 1.
        ring = (6, 3, 0, 5, 2, 7, 4, 1)
        turn = [8 * r + t for r in range(len(self.crossings)) for t in ring]
        next_state = [turn[x ^ side] for x in arrive for side in (0, 1)]

        # an orbit belongs to the ribbon of the crossing it starts at
        orbit_count = [0] * len(ribbon_of)
        for first in _orbits(next_state)[1]:
            orbit_count[ribbon_of[first >> 3]] += 1

        for root, crossings in enumerate(ribbon_cross):
            if not crossings:
                continue
            orbits = orbit_count[root]
            if orbits % 2 != 0:
                raise RuntimeError("odd strand orbit count")
            circles = orbits // 2
            ribbon_circles += circles
            out.append(
                ("neighbourhood", -crossings, circles, not vertex_uf.bad[root])
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
    # sorted by kind, euler characteristic, boundary circles and
    # orientability; equal pieces share one (immutable) record.  The
    # tuple is made from a list: tuple() of an iterator resizes it, and
    # resized tuples pile up in CPython's free lists.
    pieces = sorted(complex_.components + complex_.ribbons())
    records = {piece: ComponentReport(*piece) for piece in set(pieces)}
    return ComplementReport(
        spec.genus, spec.boundary, tuple(ordered), tuple([records[piece] for piece in pieces])
    )
