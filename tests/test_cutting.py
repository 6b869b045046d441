"""Cutting the surface along curve systems: components, Euler counts, ribbons."""

from collections import Counter
from itertools import combinations

import pytest

from crosscap import cutting
from crosscap.cutting import (
    ComponentReport,
    _CutComplex,
    _UnionFind,
    _orbits,
    cut_along,
    intersection_number,
)
from crosscap.polygon import (
    SIDE,
    CurveGeometry,
    DegeneratePositionError,
    Event,
    crossing_count,
    spell_cyclic,
)
from crosscap.surface import (
    CurveRecord,
    SurfaceSpec,
    UnknownCurveError,
    standard_registry,
    x0_names,
)

from arc_reference import crosses, flipped


def registry(genus, boundary=1):
    return standard_registry(SurfaceSpec(genus, boundary))


def pieces(report):
    return [
        (c.kind, c.euler_characteristic, c.boundary_circles, c.orientable)
        for c in report.components
    ]


# -- the uncut surface -------------------------------------------------------


@pytest.mark.parametrize("boundary", [0, 1])
def test_empty_cut_reports_the_surface_itself(boundary):
    rep = cut_along(registry(4, boundary), [])
    assert rep.curve_names == ()
    assert len(rep.components) == 1
    (only,) = rep.components
    assert only.kind == "complement"
    assert only.euler_characteristic == 2 - 4 - boundary
    assert only.boundary_circles == boundary
    assert not only.orientable
    assert not only.is_disk


# -- classical single-curve cuts ---------------------------------------------


def test_cutting_genus_two_along_the_first_chain_curve():
    """One two-sided curve in N_{2,1}: pair of pants plus the annulus
    neighbourhood of the curve itself."""
    rep = cut_along(registry(2), ["alpha_1"])
    assert pieces(rep) == [
        ("complement", -1, 3, True),
        ("neighbourhood", 0, 2, True),
    ]
    assert rep.total_euler == 2 - 2 - 1


def test_cutting_the_klein_bottle_gives_two_annuli():
    rep = cut_along(registry(2, 0), ["alpha_1"])
    assert pieces(rep) == [
        ("complement", 0, 2, True),
        ("neighbourhood", 0, 2, True),
    ]


# -- the chain ---------------------------------------------------------------


@pytest.mark.parametrize("genus,circles", [(4, 2), (5, 1), (6, 2)])
def test_chain_neighbourhood_is_one_plumbed_piece(genus, circles):
    """Consecutive chain curves meet once each, so their regular
    neighbourhood is a single plumbing with chi = -(genus - 2); its
    boundary circle count follows the alternating torus-link pattern."""
    chain = [f"alpha_{i}" for i in range(1, genus)]
    rep = cut_along(registry(genus), chain)
    ribbons = [c for c in rep.components if c.kind == "neighbourhood"]
    assert len(ribbons) == 1
    assert ribbons[0].euler_characteristic == -(genus - 2)
    assert ribbons[0].boundary_circles == circles
    assert ribbons[0].orientable


def test_chain_complement_in_closed_genus_five_is_a_moebius_band():
    chain = [f"alpha_{i}" for i in range(1, 5)]
    rep = cut_along(registry(5, 0), chain)
    complement = [c for c in rep.components if c.kind == "complement"]
    assert pieces_of(complement) == [(0, 1, False)]


def test_chain_complement_in_closed_genus_four_is_an_annulus():
    chain = [f"alpha_{i}" for i in range(1, 4)]
    rep = cut_along(registry(4, 0), chain)
    complement = [c for c in rep.components if c.kind == "complement"]
    assert pieces_of(complement) == [(0, 2, True)]


def pieces_of(components):
    return [
        (c.euler_characteristic, c.boundary_circles, c.orientable)
        for c in components
    ]


# -- the generating configuration --------------------------------------------


@pytest.mark.parametrize("genus", [4, 5])
def test_the_full_generating_set_fills_the_closed_surface(genus):
    rep = cut_along(registry(genus, 0), x0_names(genus))
    for c in rep.components:
        if c.kind == "complement":
            assert c.is_disk


def test_the_full_generating_set_leaves_only_a_collar_when_bounded():
    """With one boundary circle the cut leaves disks plus exactly one
    annulus: the collar of the boundary."""
    rep = cut_along(registry(4), x0_names(4))
    non_disks = [c for c in rep.components if c.kind == "complement" and not c.is_disk]
    assert pieces_of(non_disks) == [(0, 2, True)]


def test_the_generating_neighbourhood_is_nonorientable():
    rep = cut_along(registry(4), x0_names(4))
    (ribbon,) = [c for c in rep.components if c.kind == "neighbourhood"]
    assert not ribbon.orientable
    assert ribbon.euler_characteristic == -11
    assert ribbon.boundary_circles == 9


@pytest.mark.parametrize("genus", [4, 5, 6])
@pytest.mark.parametrize("boundary", [0, 1])
def test_dropping_one_curve_opens_the_complement(genus, boundary):
    reg = registry(genus, boundary)
    droppable = [f"alpha_{i}" for i in range(4, genus)] + ["epsilon"]
    for x0 in droppable:
        sel = [name for name in x0_names(genus) if name != x0]
        rep = cut_along(reg, sel)
        non_disk = [c for c in rep.components if c.kind == "complement" and not c.is_disk]
        assert non_disk, f"dropping {x0} left only disks"


# -- invariants over arbitrary selections ------------------------------------


@pytest.mark.parametrize("boundary", [0, 1])
def test_euler_characteristics_always_sum_to_the_surface(boundary):
    reg = registry(5, boundary)
    selections = [
        [],
        ["alpha_2"],
        ["beta"],
        ["alpha_1", "alpha_2"],
        ["alpha_1", "alpha_3"],
        ["alpha_1", "alpha_2", "alpha_3", "alpha_4"],
        ["beta", "epsilon"],
        ["alpha_2", "beta", "epsilon"],
        list(x0_names(5)),
    ]
    for sel in selections:
        rep = cut_along(reg, sel)
        assert rep.total_euler == 2 - 5 - boundary, sel


def test_an_isolated_two_sided_curve_gets_an_annulus_neighbourhood():
    # beta meets no other chain curve below alpha_4, so at genus 4 it is
    # disjoint from the whole chain
    rep = cut_along(registry(4), ["alpha_1", "beta"])
    ribbons = [c for c in rep.components if c.kind == "neighbourhood"]
    assert pieces_of(ribbons) == [(0, 2, True), (0, 2, True)]


def curve_systems():
    """A ``hypothesis`` strategy: a surface and 1-4 curves on it as event
    lists, one-sided and self-crossing ones included, with distinct
    parameters throughout."""
    from hypothesis import strategies as st

    @st.composite
    def systems(draw):
        genus = draw(st.integers(min_value=2, max_value=7))
        boundary = draw(st.sampled_from([0, 1]))
        lengths = draw(
            st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4)
        )
        params = iter(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=SIDE - 1),
                    min_size=sum(lengths),
                    max_size=sum(lengths),
                    unique=True,
                )
            )
        )
        curves = [
            [
                Event(
                    draw(st.integers(min_value=1, max_value=genus)),
                    draw(st.booleans()),
                    next(params),
                )
                for _ in range(m)
            ]
            for m in lengths
        ]
        return SurfaceSpec(genus, boundary), curves

    return systems()


def cut_complex(spec, curves):
    return _CutComplex(
        spec, [(f"c{i}", CurveGeometry(spec.genus, evs)) for i, evs in enumerate(curves)]
    )


def test_random_curve_systems_cut_consistently():
    """On random systems of 1-4 curves, one-sided and self-crossing ones
    included, the complex passes its own integrity checks, the pieces
    add up to the surface, the ribbons to minus the crossings, and
    neither the order of the curves nor their direction matters."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    def cut(spec, curves):
        complex_ = cut_complex(spec, curves)
        return sorted(complex_.components + complex_.ribbons())

    @settings(max_examples=200, deadline=None)
    @given(curve_systems())
    def check(drawn):
        spec, curves = drawn
        parts = cut(spec, curves)
        assert sum(chi for _, chi, _, _ in parts) == 2 - spec.genus - spec.boundary
        chords = [c for evs in curves for c in CurveGeometry(spec.genus, evs).chords]
        crossings = sum(crosses(p, q) for p, q in combinations(chords, 2))
        ribbons = [chi for kind, chi, _, _ in parts if kind == "neighbourhood"]
        assert sum(ribbons) == -crossings
        assert cut(spec, curves[::-1]) == parts
        backwards = [[flipped(ev) for ev in reversed(evs)] for evs in curves]
        assert cut(spec, backwards) == parts

    check()


def test_the_endpoint_sweep_reports_every_crossing_pair_once():
    """The crossings of the cut complex come from one sweep over the
    chord endpoints; on random systems, self-crossing curves included,
    they are the chord pairs that the pair test finds, each once."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None)
    @given(curve_systems())
    def check(drawn):
        complex_ = cut_complex(*drawn)
        chords = [chord[2:] for chord in complex_.chords]
        swept = [frozenset((i, j)) for i, _, j, _ in complex_.crossings]
        pairs = {
            frozenset((i, j))
            for i, j in combinations(range(len(chords)), 2)
            if crosses(chords[i], chords[j])
        }
        assert len(set(swept)) == len(swept)
        assert set(swept) == pairs

    check()


def successors_by_sorted_rotation(complex_):
    """The face successors of a cut complex found the general way: the
    half-edges leaving each vertex sorted by rank (at a boundary vertex
    the arc ahead 0, chord 1, the arc back 2; at a crossing the key of the
    boundary point each heads for), and the face after h the half-edge
    before h's reverse at h's head.  The arcs back walk the circle
    clockwise, the outer face; they are numbered last and left out."""
    K = len(complex_.coords)
    vertex = {key: v for v, key in enumerate(complex_.coords)}
    tail, rank = [], []  # the vertex each half-edge leaves, and its rank there
    splits = [[] for _ in complex_.chords]
    for r, (a, key_a, b, key_b) in enumerate(complex_.crossings):
        splits[a].append((key_a, K + r))
        splits[b].append((key_b, K + r))
    for (_, _, tail_key, head_key), along in zip(complex_.chords, splits):
        along.sort(reverse=tail_key > head_key)  # keys count from the lower end
        chain = [vertex[tail_key]] + [v for _, v in along] + [vertex[head_key]]
        last = len(chain) - 2
        for i in range(last + 1):
            tail += (chain[i], chain[i + 1])
            rank += (1 if i == 0 else head_key, 1 if i == last else tail_key)
    first_arc = len(tail)
    tail += [*range(K), *range(1, K), 0]  # arc e ahead, then arc e back
    rank += [0] * K + [2] * K
    reverse = [*(he ^ 1 for he in range(first_arc)), *range(first_arc + K, first_arc + 2 * K)]
    reverse += range(first_arc, first_arc + K)
    rings = [[] for _ in range(K + len(complex_.crossings))]
    for he, v in enumerate(tail):
        rings[v].append(he)
    place = [0] * len(tail)
    for ring in rings:
        ring.sort(key=rank.__getitem__)
        for i, he in enumerate(ring):
            place[he] = i
    return [rings[tail[reverse[he]]][place[reverse[he]] - 1] for he in range(first_arc + K)]


def numbered_cycles(step):
    """What ``_orbits`` returns, from the cycles of ``step`` listed one by
    one from their least states: the cycle of each state and each cycle's
    first state."""
    cycles, seen = [], set()
    for start in range(len(step)):
        if start not in seen:
            cycle = [start]
            while step[cycle[-1]] != start:
                cycle.append(step[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    orbit_of = [0] * len(step)
    for o, cycle in enumerate(cycles):
        for state in cycle:
            orbit_of[state] = o
    return orbit_of, [cycle[0] for cycle in cycles]


def test_the_face_walk_matches_the_sorted_rotation():
    """The face successors that the cut complex fills in directly are
    those that sorting every vertex's rotation gives, and its one walk
    numbers the faces as listing their cycles does; and the faces tile
    the disk: V - E + F = 1."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None)
    @given(curve_systems())
    def check(drawn):
        complex_ = cut_complex(*drawn)
        after = successors_by_sorted_rotation(complex_)
        face_of, firsts = numbered_cycles(after)
        assert _orbits(complex_.next_he) == (face_of, firsts)
        assert complex_.face_of[: len(after)] == face_of
        assert complex_.n_faces == len(firsts)
        K = len(complex_.coords)
        vertices = K + len(complex_.crossings)
        edges = K + complex_.first_arc // 2
        assert vertices - edges + len(firsts) == 1

    check()


def find(uf, x):
    """The root of ``x`` in a ``_UnionFind`` and the parity of ``x`` to it.
    Path halving, as ``join`` does: each id on the way is hung from its
    grandparent and adds its old parent's weight to its own (a root's
    weight is 0)."""
    parent, parity = uf.parent, uf.parity
    p = 0
    while parent[x] != x:
        up = parent[x]
        parity[x] ^= parity[up]
        parent[x] = parent[up]
        p ^= parity[x]
        x = parent[x]
    return x, p


def contradictory(uf, x):
    return uf.bad[find(uf, x)[0]]


def account_by_union_find(complex_):
    """The complement pieces, as sorted (chi, boundary circles,
    orientable), and the cut circle count of a built cut complex, by
    union-find over its slots: each gluing joins the corners at both ends
    of its two slots, every corner class must meet the cut boundary twice
    or not at all, and joining the two corner classes at the ends of each
    boundary slot leaves one class per boundary circle.  The reference
    for the count of ``_account`` and ``ribbons``, which read no corner."""
    face_of = complex_.face_of + [complex_.n_faces] * complex_.cap  # the cap is face F
    n_faces, n_slots = complex_.n_faces + complex_.cap, len(face_of)
    cap = len(complex_.next_he)
    prev = [0] * (cap + 1)  # the slot before each in its face; the cap's is itself
    for h, after in enumerate([*complex_.next_he, cap]):
        prev[after] = h
    first_arc = complex_.first_arc
    free = cap - 1
    face_uf, corner_uf = _UnionFind(n_faces), _UnionFind(n_slots)
    glued = [(a, b, 1) for a, b in zip(complex_.glued_a, complex_.glued_b)]
    boundary = [*range(first_arc)]
    if complex_.cap:
        glued.append((free, cap, 0))
    else:
        boundary.append(free)
    face_uf.join((face_of[sa], face_of[sb], parity) for sa, sb, parity in glued)
    corner_uf.join((sa, sb, 0) for sa, sb, _ in glued)
    corner_uf.join((prev[sa], prev[sb], 0) for sa, sb, _ in glued)
    comp = [find(face_uf, fi)[0] for fi in face_of]
    chi = Counter(find(face_uf, fi)[0] for fi in range(n_faces))
    for s in [sa for sa, _, _ in glued] + boundary:
        chi[comp[s]] -= 1
    corner = [find(corner_uf, s)[0] for s in range(n_slots)]
    vertex_comp = {}
    for s in range(n_slots):
        assert vertex_comp.setdefault(corner[s], comp[s]) == comp[s]
    chi.update(vertex_comp.values())
    ends = [(corner[prev[s]], corner[s]) for s in boundary]
    assert set(Counter(v for end in ends for v in end).values()) <= {2}
    corner_uf.join((a, b, 0) for a, b in ends)
    circle = [find(corner_uf, s)[0] for s in range(n_slots)]
    circles = Counter(comp[s] for s in {circle[s]: s for s in boundary}.values())
    pieces = sorted(
        (chi[c], circles[c], not contradictory(face_uf, c))
        for c in {find(face_uf, fi)[0] for fi in range(n_faces)}
    )
    return pieces, len({circle[s] for s in range(first_arc)})


def test_the_corner_walks_count_as_union_find_does():
    """On random curve systems, closed and bordered, the complement pieces
    that the gluings and the strand orbits count, and the ribbons'
    boundary circles, are the pieces and the cut circles that union-find
    over the corners of the slots finds."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None)
    @given(curve_systems())
    def check(drawn):
        complex_ = cut_complex(*drawn)
        counted = sorted(piece[1:] for piece in complex_.components)
        ribbon_circles = sum(circles for _, _, circles, _ in complex_.neighbourhoods)
        assert (counted, ribbon_circles) == account_by_union_find(complex_)

    check()


def ribbons_by_end_table(complex_):
    """The neighbourhood pieces of a built cut complex as keyword records,
    in the order ``ribbons`` gives them, from a strand table indexed by
    strand end, filled one state at a time and walked by ``_orbits``.  The
    reference for the place-indexed strand table of ``ribbons``."""
    stations = [[] for _ in complex_.curves]
    for (ci, k, _, _), splits in zip(complex_.chords, complex_.splits):
        for _, place in splits:
            stations[ci].append((k, place))
    out = []
    for sts, chords in zip(stations, complex_.curve_chords):
        if not sts:
            m = len(chords)
            out.append(
                ComponentReport(
                    kind="neighbourhood",
                    euler_characteristic=0,
                    boundary_circles=2 if m % 2 == 0 else 1,
                    orientable=m % 2 == 0,
                )
            )
    if not complex_.crossings:
        return out
    # strand e swaps sides strand_parity[e] times; its ends are 2e, at the
    # station it starts from, and 2e + 1, at the next one, and each takes
    # the ring place of the half-edge it runs along
    strand_parity, end_place = [], []
    for sts, chords in zip(stations, complex_.curve_chords):
        n = len(sts)
        for q in range(n):
            k1, p1 = sts[q]
            k2, p2 = sts[(q + 1) % n]
            delta = k2 - k1 if q + 1 < n else k2 + len(chords) - k1
            strand_parity.append(delta % 2)
            end_place += (p1, p2 ^ 2)
    end_of_place = [0] * len(end_place)
    for end, place in enumerate(end_place):
        end_of_place[place] = end
    vertex_uf = _UnionFind(len(complex_.crossings))
    vertex_uf.join(
        (end_place[2 * e] >> 2, end_place[2 * e + 1] >> 2, parity)
        for e, parity in enumerate(strand_parity)
    )
    ribbon_of = [find(vertex_uf, r)[0] for r in range(len(complex_.crossings))]
    # state = 2 * (departing end) + side; left turns to the rotation
    # predecessor, right to the successor
    next_state = []
    for state in range(2 * len(end_place)):
        arrive = (state >> 1) ^ 1
        side = (state & 1) ^ strand_parity[arrive >> 1]
        place = end_place[arrive]
        turn = place + 1 if side else place - 1
        next_state.append(2 * end_of_place[(place & ~3) | (turn & 3)] + side)
    orbits = Counter(ribbon_of[end_place[first >> 1] >> 2] for first in _orbits(next_state)[1])
    crossings = Counter(ribbon_of)
    for root in sorted(crossings):
        assert orbits[root] % 2 == 0
        out.append(
            ComponentReport(
                kind="neighbourhood",
                euler_characteristic=-crossings[root],
                boundary_circles=orbits[root] // 2,
                orientable=not contradictory(vertex_uf, root),
            )
        )
    return out


def fields(record):
    return tuple(getattr(record, name) for name in record.__slots__)


def test_the_strand_table_and_the_pieces_match_their_references():
    """On random curve systems, closed and bordered, ``ribbons`` gives the
    pieces, in order, of the strand table indexed by strand end; the
    complement pieces are the keyword records of the union-find count; and
    records made by position from the sorted pieces, as ``cut_along``
    makes them, are those that sorting the keyword records gives."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None)
    @given(curve_systems())
    def check(drawn):
        complex_ = cut_complex(*drawn)
        ribbons = complex_.ribbons()
        reference = ribbons_by_end_table(complex_)
        assert ribbons == [fields(r) for r in reference]
        counted, _ = account_by_union_find(complex_)
        complement = [
            ComponentReport(
                kind="complement",
                euler_characteristic=chi,
                boundary_circles=circles,
                orientable=orientable,
            )
            for chi, circles, orientable in counted
        ]
        assert sorted(complex_.components) == [fields(c) for c in complement]
        made = [ComponentReport(*piece) for piece in sorted(complex_.components + ribbons)]
        assert made == sorted(complement + reference, key=fields)

    check()


# -- integrity checks ------------------------------------------------------


def x0_complex(genus, boundary):
    reg = registry(genus, boundary)
    return _CutComplex(reg.spec, [(n, reg.geometry(n)) for n in x0_names(genus)])


@pytest.mark.parametrize("genus,boundary", [(4, 0), (5, 1), (6, 0)])
def test_a_corrupt_successor_table_is_refused(genus, boundary):
    """A face successor table that is no permutation stops the face walk,
    and one with two arcs' successors swapped has one face too many or too
    few to tile a disk."""
    complex_ = x0_complex(genus, boundary)
    complex_.next_he[0] = complex_.next_he[2]
    with pytest.raises(RuntimeError, match="walk did not close; rotation is corrupt"):
        complex_._number_faces()
    complex_ = x0_complex(genus, boundary)
    succ, arc = complex_.next_he, complex_.first_arc
    succ[arc], succ[arc + 1] = succ[arc + 1], succ[arc]
    with pytest.raises(RuntimeError, match="the faces do not tile a disk"):
        complex_._number_faces()


@pytest.mark.parametrize("genus,boundary", [(4, 0), (5, 1), (6, 0)])
def test_corrupt_gluings_are_refused(genus, boundary):
    """A slot glued twice, or two gluings swapped, leaves a piece whose
    Euler characteristic and boundary circles no surface has; a chord
    side's face moved into another piece moves one strand orbit of a cut
    circle there, leaving its piece an odd number; and the two copies of
    a side must be cut at the same parameters."""
    complex_ = x0_complex(genus, boundary)
    complex_.glued_b[0] = complex_.glued_b[1]
    complex_._account()
    with pytest.raises(RuntimeError, match="surface has chi=.* boundary circle"):
        complex_.ribbons()
    complex_ = x0_complex(genus, boundary)
    glued_b = complex_.glued_b
    glued_b[0], glued_b[1] = glued_b[1], glued_b[0]
    complex_._account()
    with pytest.raises(RuntimeError, match="surface has chi=.* boundary circle"):
        complex_.ribbons()
    complex_ = x0_complex(genus, boundary)
    face_of, piece_of, side = complex_.face_of, complex_.piece_of, complex_.ring[0]
    face_of[side] = next(f for f in face_of if piece_of[f] != piece_of[face_of[side]])
    with pytest.raises(RuntimeError, match="odd strand orbit count along a complement piece"):
        complex_.ribbons()
    complex_ = x0_complex(genus, boundary)
    inside = next(v for v, key in enumerate(complex_.coords) if 0 < key < SIDE)
    complex_.coords[inside] += 1
    with pytest.raises(RuntimeError, match="glued sides 1/2 subdivide differently"):
        complex_._build_pairings(genus)


def swapped(complex_, i):
    glued_b = complex_.glued_b
    glued_b[i], glued_b[i + 1] = glued_b[i + 1], glued_b[i]


def glued_twice(complex_, i):
    complex_.glued_b[i] = complex_.glued_b[i + 1]


def dropped(complex_, i):
    del complex_.glued_a[i], complex_.glued_b[i]


@pytest.mark.parametrize("corrupt", [swapped, glued_twice, dropped])
@pytest.mark.parametrize("genus,boundary", [(4, 0), (5, 1), (6, 0), (10, 1), (20, 0)])
def test_a_corrupt_gluing_never_gives_wrong_pieces(genus, boundary, corrupt, monkeypatch):
    """Cutting along X0 with any one of the first 40 gluings corrupted
    either is refused or gives the pieces of the sound complex."""
    reg = registry(genus, boundary)
    names = x0_names(genus)
    sound = cut_along(reg, names)
    build = _CutComplex._build_pairings
    for i in range(min(40, len(x0_complex(genus, boundary).glued_a) - 1)):

        def corrupted(self, g):
            build(self, g)
            corrupt(self, i)

        monkeypatch.setattr(_CutComplex, "_build_pairings", corrupted)
        try:
            assert cut_along(reg, names) == sound, (corrupt.__name__, i)
        except RuntimeError:
            pass


@pytest.mark.parametrize("genus,boundary", [(4, 0), (5, 1), (6, 0)])
def test_pieces_off_the_surface_euler_characteristic_are_refused(genus, boundary, monkeypatch):
    """The uncut surface with one gluing dropped is one non-orientable
    piece with one more Euler characteristic, which a non-orientable
    surface can have; only the sum over the pieces gives it away."""
    build = _CutComplex._build_pairings

    def dropped_first(self, g):
        build(self, g)
        dropped(self, 0)

    monkeypatch.setattr(_CutComplex, "_build_pairings", dropped_first)
    surface = 2 - genus - boundary
    with pytest.raises(
        RuntimeError,
        match=rf"Euler characteristics sum to {surface + 1}, not the surface's {surface}$",
    ):
        cut_along(registry(genus, boundary), [])


@pytest.mark.parametrize("genus,boundary", [(4, 0), (5, 1), (6, 0)])
def test_a_corrupt_strand_table_is_refused(genus, boundary, monkeypatch):
    """A strand table that is no permutation stops the strand walk, and
    one with a cycle split in two leaves its ribbon an odd number of
    strand orbits."""
    walk = cutting._orbits

    def merged(step):
        step[0] = step[2]
        return walk(step)

    def split(step):
        a = next(state for state, after in enumerate(step) if state != after)
        b = step[a]
        step[a], step[b] = step[b], step[a]
        return walk(step)

    complex_ = x0_complex(genus, boundary)
    monkeypatch.setattr(cutting, "_orbits", merged)
    with pytest.raises(RuntimeError, match="walk did not close; rotation is corrupt"):
        complex_.ribbons()
    monkeypatch.setattr(cutting, "_orbits", split)
    with pytest.raises(RuntimeError, match="odd strand orbit count"):
        complex_.ribbons()


def test_registry_ribbons_total_minus_the_pairwise_crossings():
    """On any subset of a standard registry, the neighbourhood pieces'
    Euler characteristics sum to minus the pairwise crossing counts, which
    polygon computes on its own, apart from the cut complex."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def cuts(draw):
        genus = draw(st.integers(min_value=4, max_value=12))
        boundary = draw(st.sampled_from([0, 1]))
        reg = registry(genus, boundary)
        names = draw(st.lists(st.sampled_from(reg.names()), unique=True))
        return reg, names

    @settings(max_examples=120, deadline=None)
    @given(cuts())
    def check(drawn):
        reg, names = drawn
        rep = cut_along(reg, names)
        ribbons = [
            c.euler_characteristic for c in rep.components if c.kind == "neighbourhood"
        ]
        geoms = [reg.geometry(name) for name in names]
        crossings = sum(crossing_count(a, b) for a, b in combinations(geoms, 2))
        assert sum(ribbons) == -crossings

    check()


def test_union_find_classes_and_parities_match_a_breadth_first_search():
    """On random multigraphs with 0/1 edge weights, the classes are the
    connected components, a class is contradictory exactly when its
    component cannot be 2-coloured by the weights, and otherwise the
    parities are such a colouring.  Faces, curves and crossings go
    through this one union-find, as does the reference count of corners
    and circles."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def graphs(draw):
        n = draw(st.integers(min_value=1, max_value=12))
        ends = st.integers(min_value=0, max_value=n - 1)
        edges = draw(st.lists(st.tuples(ends, ends, st.integers(0, 1)), max_size=20))
        return n, edges

    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def check(graph):
        n, edges = graph
        uf = _UnionFind(n)
        uf.join(edges)
        adjacent = [[] for _ in range(n)]
        for a, b, w in edges:
            adjacent[a].append((b, w))
            adjacent[b].append((a, w))
        component = [-1] * n
        colour = [0] * n
        odd = set()
        for start in range(n):
            if component[start] != -1:
                continue
            component[start] = start
            queue = [start]
            for x in queue:
                for y, w in adjacent[x]:
                    if component[y] == -1:
                        component[y] = start
                        colour[y] = colour[x] ^ w
                        queue.append(y)
                    elif colour[y] != colour[x] ^ w:
                        odd.add(start)
        for x in range(n):
            for y in range(n):
                same = find(uf, x)[0] == find(uf, y)[0]
                assert same == (component[x] == component[y])
            assert contradictory(uf, x) == (component[x] in odd)
        for a, b, w in edges:
            if component[a] not in odd:
                assert find(uf, a)[1] ^ find(uf, b)[1] == w

    check()


def test_union_find_matches_a_walk_without_compression():
    """Unions and finds in any order give the roots, parities and
    contradictions of the same unions over parent links that finds never
    shorten: path halving moves links, not roots."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def steps(draw):
        n = draw(st.integers(min_value=1, max_value=16))
        ids = st.integers(min_value=0, max_value=n - 1)
        step = st.tuples(st.booleans(), ids, ids, st.integers(0, 1))
        return n, draw(st.lists(step, max_size=40))

    @settings(max_examples=300, deadline=None)
    @given(steps())
    def check(case):
        n, steps = case
        uf = _UnionFind(n)
        parent, weight, bad = list(range(n)), [0] * n, [False] * n

        def walk(x):
            p = 0
            while parent[x] != x:
                p ^= weight[x]
                x = parent[x]
            return x, p

        for is_union, a, b, w in steps:
            if not is_union:
                assert find(uf, a) == walk(a)
                continue
            uf.join([(a, b, w)])
            (ra, pa), (rb, pb) = walk(a), walk(b)
            if ra == rb:
                bad[ra] = bad[ra] or pa ^ pb != w
            else:
                parent[rb], weight[rb] = ra, pa ^ pb ^ w
                bad[ra] = bad[ra] or bad[rb]
        for x in range(n):
            assert find(uf, x) == walk(x)
            assert contradictory(uf, x) == bad[walk(x)[0]]

    check()


# -- selection handling ------------------------------------------------------


def test_duplicates_collapse_and_registry_order_wins():
    rep = cut_along(registry(4), ["beta", "alpha_1", "BETA", "alpha_1"])
    assert rep.curve_names == ("alpha_1", "beta")


def test_aliases_resolve_before_cutting():
    assert cut_along(registry(4), ["EPSILON"]).curve_names == ("epsilon",)


def test_unknown_curve_is_rejected_by_name():
    with pytest.raises(UnknownCurveError, match="delta_9"):
        cut_along(registry(4), ["delta_9"])


def test_components_come_out_sorted():
    rep = cut_along(registry(5), list(x0_names(5)))
    keys = [
        (c.kind, c.euler_characteristic, c.boundary_circles, c.orientable)
        for c in rep.components
    ]
    assert keys == sorted(keys)


# -- intersection numbers ----------------------------------------------------


def test_chain_curves_meet_exactly_their_neighbours():
    reg = registry(6)
    for i in range(1, 6):
        for j in range(i, 6):
            expected = 1 if j == i + 1 else 0
            assert (
                intersection_number(reg, f"alpha_{i}", f"alpha_{j}") == expected
            ), (i, j)


def test_beta_hooks_the_fourth_chain_curve_only():
    reg = registry(6)
    assert intersection_number(reg, "alpha_4", "beta") == 1
    for i in (1, 2, 3, 5):
        assert intersection_number(reg, f"alpha_{i}", "beta") == 0


def test_a_curve_never_meets_its_own_pushoff():
    reg = registry(5)
    for name in reg.names():
        assert intersection_number(reg, name, name) == 0


def test_intersection_number_is_symmetric():
    reg = registry(5)
    names = reg.names()
    for u in names:
        for v in names:
            assert intersection_number(reg, u, v) == intersection_number(reg, v, u)


# -- reports -----------------------------------------------------------------


def test_component_report_disk_recognition():
    disk = ComponentReport("complement", 1, 1, True)
    assert disk.is_disk
    assert not ComponentReport("complement", 1, 1, False).is_disk
    assert not ComponentReport("complement", 0, 2, True).is_disk
    assert not ComponentReport("complement", 1, 2, True).is_disk


def test_component_report_structured_line():
    c = ComponentReport("neighbourhood", -3, 1, False)
    assert c.structured_line() == "chi=-3 boundaries=1 orientable=0 disk=0"
    d = ComponentReport("complement", 1, 1, True)
    assert d.structured_line() == "chi=1 boundaries=1 orientable=1 disk=1"


def test_text_report_mentions_curves_and_total():
    rep = cut_along(registry(2), ["alpha_1"])
    text = rep.format_text()
    assert "cut along: alpha_1" in text
    assert "genus 2, 1 boundary circle(s)" in text
    assert "total euler characteristic: -1" in text
    assert "component 1 (complement)" in text


def test_empty_selection_text_says_nothing():
    assert "(nothing)" in cut_along(registry(4), []).format_text()


# -- degeneracy guards -------------------------------------------------------


def test_curves_sharing_an_endpoint_are_rejected():
    reg = registry(4)
    events = (Event(3, True, SIDE // 3), Event(4, True, SIDE // 3))
    clashing = CurveRecord(
        name="alpha_3",
        word=spell_cyclic(4, events),
        events=events,
        arrow=1,
    )
    with pytest.raises(DegeneratePositionError) as excinfo:
        cut_along(reg.replaced(clashing), ["alpha_2", "alpha_3"])
    # named by its coordinate 4 + 1/3 on side 5, not by an internal key
    assert str(excinfo.value) == "two curve endpoints share boundary coordinate 13/3"


def test_an_endpoint_past_the_glued_sides_is_rejected():
    """A curve drawn on a surface of larger genus has endpoints past the
    glued sides of this one, on its free side, which no curve touches."""
    beyond = CurveGeometry(5, [Event(5, True, SIDE // 3), Event(5, True, SIDE // 2)])
    with pytest.raises(DegeneratePositionError, match="a curve endpoint landed on the free side"):
        _CutComplex(SurfaceSpec(4, 1), [("beyond", beyond)])
