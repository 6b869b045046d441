"""The order-based chord tests agree with exact rational circle geometry.

The twist engine decides crossings, their order along a chord and
their signs from the cyclic order of endpoint keys alone, and the cut
complex decides its crossings the same way.  This module keeps an exact
rational reference: random keys are read as the boundary coordinates
``key / SIDE`` and placed on the unit circle as rational points, and
each answer is checked against the segment crossing parameter and the
determinant sign computed there.  The endpoint sweep of
``CrossingTable`` is checked against ``_crosses`` on every chord pair,
and through it against the same reference.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from crosscap.polygon import (  # noqa: E402
    _ANCHOR,
    SIDE,
    CrossingTable,
    CurveGeometry,
    DegeneratePositionError,
    Event,
    _crosses,
    _crossings_along,
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
def keys(draw, count):
    """A genus and `count` distinct keys in (0, (2g+1) * SIDE).

    The keys are multiples of a drawn step, coarse or 1, so that coarse
    draws often put equal parameters on both copies of a pair.
    """
    genus = draw(st.integers(min_value=2, max_value=6))
    top = (2 * genus + 1) * SIDE
    step = draw(st.sampled_from([1] + [SIDE // d for d in (3, 4, 5, 6, 8, 10, 12)]))
    multiples = draw(
        st.lists(
            st.integers(min_value=1, max_value=top // step - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return genus, [n * step for n in multiples]


def points(genus, chord):
    return tuple(_circle_point(genus, Fraction(key, SIDE)) for key in chord)


def rational_crossing(genus, p, q):
    """(parameter along p, sign of det(q, p)) of a crossing, or None."""
    p1, p2 = points(genus, p)
    q1, q2 = points(genus, q)
    s = _segment_crossing_param(p1, p2, q1, q2)
    if s is None:
        return None
    return s, 1 if _det(_sub(q2, q1), _sub(p2, p1)) > 0 else -1


def rational_count(genus, pairs):
    """How many of the chord pairs cross; a shared endpoint raises."""
    return sum(rational_crossing(genus, p, q) is not None for p, q in pairs)


def rational_order(genus, target, chords):
    """(index, sign) of each chord crossing `target`, in the order of the
    crossing points from its tail to its head."""
    expected = sorted(
        (hit[0], k, hit[1])
        for k, q in enumerate(chords)
        if (hit := rational_crossing(genus, target, q)) is not None
    )
    return [(k, sign) for _, k, sign in expected]


def non_crossing(values, flips):
    """Chords from consecutive pairs of `values`, each reversed where its
    flip says, keeping only those that cross none kept before, as the
    chords of an embedded curve cross none of one another."""
    chords = []
    for i, flip in enumerate(flips):
        chord = (values[2 * i], values[2 * i + 1])
        chord = chord[::-1] if flip else chord
        if not any(_crosses(chord, kept) for kept in chords):
            chords.append(chord)
    return chords


@settings(max_examples=300, deadline=None)
@given(keys(4))
def test_interleaving_is_the_rational_crossing_test(drawn):
    genus, (a, b, c, d) = drawn
    p, q = (a, b), (c, d)
    assert _crosses(p, q) == (rational_crossing(genus, p, q) is not None)
    assert _crosses(p, q) == _crosses(q, p)


@settings(max_examples=100, deadline=None)
@given(keys(3), st.integers(min_value=0, max_value=3))
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
    keys(14),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_order_and_sign_along_a_chord_match_the_rational_ones(drawn, flips):
    genus, values = drawn
    target = (values[0], values[1])
    chords = non_crossing(values[2:], flips)
    assert _crossings_along(target, chords) == rational_order(genus, target, chords)


@settings(max_examples=300, deadline=None)
@given(
    keys(13),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_order_and_sign_along_a_chord_from_the_anchor_match_the_rational_ones(
    drawn, flips
):
    # a based loop's first and last chords run from and to the anchor
    genus, values = drawn
    chords = non_crossing(values[1:], flips)
    for target in ((_ANCHOR, values[0]), (values[0], _ANCHOR)):
        assert _crossings_along(target, chords) == rational_order(genus, target, chords)


# -- curves against the reference -----------------------------------------------


def _event_at(genus, key):
    """The crossing event whose hit key is `key`, or None when the key
    is a corner or lies on the boundary side."""
    below, t = divmod(key, SIDE)
    if t == 0 or below >= 2 * genus:
        return None
    side = below + 1
    return Event((side + 1) // 2, side % 2 == 0, t)


def _outcome(f, *args):
    try:
        return f(*args)
    except DegeneratePositionError:
        return "degenerate"


def _event_systems(drawn, *splits):
    """Curves from the drawn keys, cut at the splits; equal parameters on
    the two copies of one pair make shared endpoints, i.e. degenerate
    positions.  A chord from a crossing straight back through it has no
    length, and the rational reference cannot place it, so none is drawn."""
    genus, values = drawn
    events = [ev for key in values if (ev := _event_at(genus, key)) is not None]
    cuts = sorted({min(split, len(events) - 1) for split in splits})
    assume(len(events) > len(splits) and len(cuts) == len(splits))
    curves = tuple(
        CurveGeometry(genus, events[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, None])
    )
    assume(all(tail != head for curve in curves for tail, head in curve.chords))
    return curves


@settings(max_examples=300, deadline=None)
@given(keys(8), st.integers(min_value=1, max_value=7))
@example((2, [5 * SIDE // 2, SIDE // 3, 7 * SIDE // 2]), 2)  # shares 7/2
def test_crossing_count_is_the_rational_count(drawn, split):
    a, b = _event_systems(drawn, split)
    want = _outcome(rational_count, a.genus, product(a.chords, b.chords))
    assert _outcome(crossing_count, a, b) == want


@settings(max_examples=300, deadline=None)
@given(keys(8), st.integers(min_value=1, max_value=7))
@example(  # the first curve crosses pair 1 at 1/2 both ways
    (2, [3 * SIDE // 2, 3 * SIDE + SIDE // 3, SIDE // 2, 3 * SIDE + SIDE // 5, 2 * SIDE + SIDE // 4]),
    4,
)
def test_self_crossing_count_is_the_rational_count(drawn, split):
    a, b = _event_systems(drawn, split)
    for curve in (a, b):
        want = _outcome(rational_count, curve.genus, combinations(curve.chords, 2))
        assert _outcome(curve.self_crossing_count) == want


def _text(f, *args):
    """f(*args), or the text of the DegeneratePositionError it raises."""
    try:
        return f(*args)
    except DegeneratePositionError as exc:
        return str(exc)


def _pair_tests(genus, a, b, same):
    """The count of _crosses over every chord pair of a and b (of a alone
    when same), checked against the rational count, or the text of the
    DegeneratePositionError it raises."""
    pairs = list(combinations(a.chords, 2) if same else product(a.chords, b.chords))
    count = _text(sum, (_crosses(p, q) for p, q in pairs))
    if isinstance(count, int):
        assert count == rational_count(genus, pairs)
    return count


@settings(max_examples=300, deadline=None)
@given(keys(12), st.lists(st.integers(1, 11), min_size=2, max_size=4, unique=True))
@example(  # curves 0 and 2 both cross pair 1 at 1/2, one each way; curve 1 is clean
    (2, [SIDE // 2, 2 * SIDE + SIDE // 3, 3 * SIDE + SIDE // 5, 3 * SIDE + SIDE // 7,
         SIDE + SIDE // 2, 2 * SIDE + SIDE // 4]),
    [2, 4],
)
def test_the_sweep_counts_every_pair_as_the_pair_tests_do(drawn, splits):
    curves = _event_systems(drawn, *splits)
    table = CrossingTable(dict(enumerate(curves)))
    for (u, a), (v, b) in product(enumerate(curves), repeat=2):
        want = _pair_tests(drawn[0], a, b, u == v)
        assert _text(table.count, u, v) == want
        if u == v:
            assert _text(a.self_crossing_count) == want
        else:
            assert _text(crossing_count, a, b) == want


def test_a_shared_endpoint_fails_only_the_pairs_that_share_it():
    genus, half = 2, SIDE // 2
    curves = {
        "a": CurveGeometry(genus, [Event(1, False, half), Event(2, True, SIDE // 3)]),
        "b": CurveGeometry(genus, [Event(2, False, SIDE // 5), Event(2, True, SIDE // 7)]),
        "c": CurveGeometry(genus, [Event(1, True, half), Event(2, False, SIDE // 4)]),
    }
    table = CrossingTable(curves)
    # a loop over the first curve's chords meets a different shared end first
    named = "two chords share the endpoint coordinate "
    assert _text(table.count, "a", "c") == named + "3/2"
    assert _text(table.count, "c", "a") == named + "1/2"
    for u, v in (("a", "b"), ("b", "c"), ("a", "a"), ("b", "b"), ("c", "c")):
        assert isinstance(table.count(u, v), int)
