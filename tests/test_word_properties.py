"""Random-word properties of the word layer.

Products, inverses and substituted images are built without re-checking
their letters, on the grounds that they are valid and freely reduced by
construction; each must equal what the checking constructor gives for
the same letters.  The linear least rotation must agree with a scan of
every rotation.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from crosscap.polygon import apply_images  # noqa: E402
from crosscap.words import (  # noqa: E402
    Word,
    _cyclic_reduce,
    _least_rotation,
    _letter_key,
)

genera = st.integers(min_value=1, max_value=6)


def letter_lists(genus, max_size=24):
    letter = st.integers(1, genus).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letter, max_size=max_size)


def words(genus, max_size=24):
    return letter_lists(genus, max_size).map(lambda ls: Word(genus, tuple(ls)))


def assert_checked(word, expected):
    """`word` equals `expected` and survives the checking constructor."""
    assert type(word.letters) is tuple
    assert word == expected
    assert hash(word) == hash(expected)
    assert word == Word(word.genus, word.letters)


@settings(max_examples=200, deadline=None)
@given(genera.flatmap(lambda g: st.tuples(words(g), words(g))))
def test_product_equals_the_checked_concatenation(pair):
    u, v = pair
    assert_checked(u * v, Word(u.genus, u.letters + v.letters))


@settings(max_examples=200, deadline=None)
@given(genera.flatmap(words))
def test_inverse_equals_the_checked_reversal(u):
    inverse = u.inverse()
    assert_checked(inverse, Word(u.genus, tuple(-s for s in reversed(u.letters))))
    assert_checked(u * inverse, Word(u.genus))


@settings(max_examples=200, deadline=None)
@given(
    genera.flatmap(
        lambda g: st.tuples(st.lists(words(g, 8), min_size=g, max_size=g), words(g))
    )
)
def test_substituted_images_equal_the_checked_concatenation(case):
    images, word = case
    spelled: list[int] = []
    for s in word.letters:
        image = images[abs(s) - 1].letters
        spelled += image if s > 0 else [-t for t in reversed(image)]
    assert_checked(apply_images(images, word), Word(word.genus, tuple(spelled)))


def least_rotation_by_scan(letters):
    if not letters:
        return letters
    rotations = (letters[i:] + letters[:i] for i in range(len(letters)))
    return min(rotations, key=lambda r: [_letter_key(s) for s in r])


@settings(max_examples=200, deadline=None)
@given(
    genera.flatmap(lambda g: st.tuples(st.just(g), letter_lists(g, 12))),
    st.integers(min_value=1, max_value=4),
)
def test_least_rotation_matches_a_scan_of_every_rotation(case, power):
    genus, letters = case
    base = _cyclic_reduce(Word(genus, tuple(letters)).letters)
    periodic = base * power  # (base)^power, still cyclically reduced
    assert _least_rotation(periodic) == least_rotation_by_scan(periodic)


@pytest.mark.parametrize(
    "letters",
    [(), (1,), (-1,), (1, 2) * 3, (2, 1) * 4, (-2, 1, -2, 1), (2, 2, 1, 2, 2, 1), (1, -2) * 5],
    ids=repr,
)
def test_least_rotation_of_periodic_words(letters):
    assert _least_rotation(letters) == least_rotation_by_scan(letters)
