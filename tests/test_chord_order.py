"""The order-based chord tests agree with exact rational circle geometry.

The twist engine decides crossings, their order along a chord and their
signs from the cyclic order of boundary coordinates alone.  Here random
coordinates are placed on the unit circle with the cut complex's exact
rational points, and each answer is checked against the segment
crossing parameter and the determinant sign computed there.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from crosscap.cutting import (  # noqa: E402
    _circle_point,
    _det,
    _segment_crossing_param,
    _sub,
)
from crosscap.polygon import (  # noqa: E402
    DegeneratePositionError,
    _crosses,
    _crossings_along,
)


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
