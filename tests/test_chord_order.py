"""The order-based chord tests agree with exact rational circle geometry.

The twist engine decides crossings, their order along a chord and
their signs from the cyclic order of boundary coordinates alone, and the
cut complex decides its crossings the same way.  This module keeps an
exact rational reference: random coordinates are placed on the unit
circle as rational points, and each answer is checked against the
segment crossing parameter and the determinant sign computed there.
The integer keys that stand in for coordinates are checked against the
coordinates themselves.
"""

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from crosscap.polygon import (  # noqa: E402
    _ANCHOR,
    CurveGeometry,
    DegeneratePositionError,
    Event,
    _coordinate,
    _crosses,
    _crossings_along,
    _Keys,
    _twist_based_loop,
    crossing_count,
)

Point = tuple[Fraction, Fraction]


# -- the rational reference --------------------------------------------------


def _circle_point(genus: int, c: Fraction) -> Point:
    """Exact rational point of the unit circle at boundary coordinate c.

    The coordinate-to-circle map is strictly increasing (counter-
    clockwise) on [0, 2g+1), with c = 0 at (-1, 0).
    """
    L = 2 * genus + 1
    c = Fraction(c)
    if not (0 <= c < L):
        raise ValueError(f"boundary coordinate {c} outside [0, {L})")
    if c == 0:
        return (Fraction(-1), Fraction(0))
    s = (2 * c - L) / (c * (L - c))
    d = 1 + s * s
    return ((1 - s * s) / d, 2 * s / d)


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _det(u: Point, v: Point) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _orient(a: Point, b: Point, c: Point) -> Fraction:
    return _det(_sub(b, a), _sub(c, a))


def _between(a: Point, b: Point, p: Point) -> bool:
    # p collinear with segment ab: is it inside the closed box?
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segment_crossing_param(
    p1: Point, p2: Point, q1: Point, q2: Point
) -> Fraction | None:
    """Parameter in (0,1) along p1→p2 of a proper crossing with q1→q2.

    Returns None when the open segments are disjoint.  Endpoint contact,
    collinear overlap, or any other exact coincidence raises
    DegeneratePositionError rather than guessing a perturbation here.
    """
    o1 = _orient(q1, q2, p1)
    o2 = _orient(q1, q2, p2)
    o3 = _orient(p1, p2, q1)
    o4 = _orient(p1, p2, q2)
    if o1 == 0 and o2 == 0:
        # collinear: degenerate only on actual contact
        if _between(p1, p2, q1) or _between(p1, p2, q2) or _between(q1, q2, p1):
            raise DegeneratePositionError("collinear segment contact")
        return None
    for o, pt, (a, b) in (
        (o1, p1, (q1, q2)),
        (o2, p2, (q1, q2)),
        (o3, q1, (p1, p2)),
        (o4, q2, (p1, p2)),
    ):
        if o == 0 and _between(a, b, pt):
            raise DegeneratePositionError("segment endpoint touches another segment")
    if (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0):
        return o1 / (o1 - o2)
    return None


def test_circle_points_are_on_unit_circle_and_distinct():
    genus = 3
    coords = [Fraction(0), Fraction(1, 7)] + [Fraction(k, 2) for k in range(1, 14, 2)]
    pts = [_circle_point(genus, c) for c in coords]
    for x, y in pts:
        assert x * x + y * y == 1
    assert len(set(pts)) == len(pts)


def test_circle_points_in_counterclockwise_order():
    genus = 2
    coords = [Fraction(i, 10) for i in range(0, 50)]
    pts = [_circle_point(genus, c) for c in coords]
    # shoelace area of the inscribed polygon is positive iff ccw
    area = sum(
        pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1]
        for i in range(len(pts))
    )
    assert area > 0


def test_circle_point_rejects_out_of_range():
    with pytest.raises(ValueError):
        _circle_point(2, Fraction(5))
    with pytest.raises(ValueError):
        _circle_point(2, Fraction(-1, 2))


# -- the order-based tests against it -----------------------------------------


@st.composite
def coordinates(draw, count):
    """A genus and `count` distinct boundary coordinates in [0, 2g+1)."""
    genus = draw(st.integers(min_value=2, max_value=6))
    top = 2 * genus + 1
    denominator = draw(st.integers(min_value=3, max_value=12))
    numerators = draw(
        st.lists(
            st.integers(min_value=0, max_value=top * denominator - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return genus, [Fraction(n, denominator) for n in numerators]


def points(genus, chord):
    return tuple(_circle_point(genus, c) for c in chord)


def rational_crossing(genus, p, q):
    """(parameter along p, sign of det(q, p)) of a crossing, or None."""
    p1, p2 = points(genus, p)
    q1, q2 = points(genus, q)
    s = _segment_crossing_param(p1, p2, q1, q2)
    if s is None:
        return None
    return s, 1 if _det(_sub(q2, q1), _sub(p2, p1)) > 0 else -1


@settings(max_examples=300, deadline=None)
@given(coordinates(4))
def test_interleaving_is_the_rational_crossing_test(drawn):
    genus, (a, b, c, d) = drawn
    p, q = (a, b), (c, d)
    assert _crosses(p, q) == (rational_crossing(genus, p, q) is not None)
    assert _crosses(p, q) == _crosses(q, p)


@settings(max_examples=100, deadline=None)
@given(coordinates(3), st.integers(min_value=0, max_value=3))
def test_a_shared_endpoint_is_degenerate_in_both_tests(drawn, which):
    genus, (a, b, c) = drawn
    p = (a, b)
    q = [(a, c), (c, a), (b, c), (c, b)][which]
    with pytest.raises(DegeneratePositionError):
        _crosses(p, q)
    with pytest.raises(DegeneratePositionError):
        rational_crossing(genus, p, q)


@settings(max_examples=300, deadline=None)
@given(
    coordinates(14),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_order_and_sign_along_a_chord_match_the_rational_ones(drawn, flips):
    genus, values = drawn
    target = (values[0], values[1])
    # mutually non-crossing chords, as on an embedded curve
    chords = []
    for i, flip in enumerate(flips):
        chord = (values[2 * i + 2], values[2 * i + 3])
        chord = chord[::-1] if flip else chord
        if not any(_crosses(chord, kept) for kept in chords):
            chords.append(chord)
    expected = sorted(
        (hit[0], k, hit[1])
        for k, q in enumerate(chords)
        if (hit := rational_crossing(genus, target, q)) is not None
    )
    assert _crossings_along(target, chords) == [(k, sign) for _, k, sign in expected]


# -- integer keys against the coordinates --------------------------------------


def _event_at(genus, c):
    """The crossing event whose hit coordinate is c, or None when c is a
    corner or lies on the boundary side."""
    below, t = divmod(c, 1)
    if t == 0 or below >= 2 * genus:
        return None
    side = below + 1
    return Event((side + 1) // 2, side % 2 == 0, t)


def _outcome(f, *args):
    try:
        return f(*args)
    except DegeneratePositionError as exc:
        return f"degenerate: {exc}"


def _event_systems(drawn, split):
    """Two curves from the drawn coordinates; equal parameters on the two
    copies of one pair make shared endpoints, i.e. degenerate positions."""
    genus, values = drawn
    events = [ev for c in values if (ev := _event_at(genus, c)) is not None]
    assume(len(events) >= 2)
    split = min(split, len(events) - 1)
    return (
        CurveGeometry(genus, events[:split]),
        CurveGeometry(genus, events[split:]),
    )


@settings(max_examples=300, deadline=None)
@given(coordinates(8), st.integers(min_value=1, max_value=7))
@example((2, [Fraction(5, 2), Fraction(1, 3), Fraction(7, 2)]), 2)  # shares 7/2
def test_keyed_counts_match_the_coordinate_counts(drawn, split):
    a, b = _event_systems(drawn, split)
    assert _outcome(crossing_count, a, b) == _outcome(
        lambda: sum(_crosses(p, q) for p in a.chords for q in b.chords)
    )
    for curve in (a, b):
        assert _outcome(curve.self_crossing_count) == _outcome(
            lambda: sum(_crosses(p, q) for p, q in combinations(curve.chords, 2))
        )


@settings(max_examples=300, deadline=None)
@given(coordinates(8), st.integers(min_value=1, max_value=7))
def test_keyed_order_along_a_chord_matches_the_coordinate_order(drawn, split):
    a, b = _event_systems(drawn, split)
    keys = _Keys(a.params() | b.params())
    first = b.events[0]
    targets = list(zip(b.chords, keys.chords(b))) + [
        ((_ANCHOR, first.hit_coord), (_ANCHOR, keys.key(first.hit_side, first.t)))
    ]
    for exact, keyed in targets:
        want = _outcome(_crossings_along, exact, a.chords)
        got = _outcome(_crossings_along, keyed, keys.chords(a))
        if isinstance(want, str):
            assert isinstance(got, str)
        else:
            assert got == want


@settings(max_examples=200, deadline=None)
@given(coordinates(8), st.integers(min_value=1, max_value=7), st.sampled_from([1, -1]))
def test_keyed_splices_match_the_coordinate_ones(drawn, split, arrow):
    curve, loop = _event_systems(drawn, split)
    keys = _Keys(curve.params() | loop.params())
    exact = _outcome(_twist_based_loop, curve, arrow, loop.events, curve.chords, _coordinate)
    keyed = _outcome(_twist_based_loop, curve, arrow, loop.events, keys.chords(curve), keys.key)
    if isinstance(exact, str):
        assert isinstance(keyed, str)
    else:
        assert keyed == exact
