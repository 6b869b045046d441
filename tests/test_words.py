import random

import pytest

from crosscap.words import MAX_PARSED_LETTERS, CyclicWord, Word, boundary_word, is_conjugate


def w(text, genus=3):
    return Word.parse(text, genus)


def test_free_reduction_on_construction():
    assert Word(2, (1, -1)).letters == ()
    assert Word(2, (1, 2, -2, -1, 1)).letters == (1,)
    assert Word(3, (1, 2, -2, 3)).letters == (1, 3)


def test_multiplication_reduces_across_the_seam():
    u = w("x1 x2")
    v = w("x2^-1 x3")
    assert (u * v).letters == (1, 3)
    assert u * u.inverse() == Word(3)


def test_inverse():
    u = w("x1 x2^-1")
    assert u.inverse() == w("x2 x1^-1")
    assert u.inverse().inverse() == u
    assert u * u == w("x1 x2^-1 x1 x2^-1")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Word.parse("x1 y2", 3)
    with pytest.raises(ValueError):
        Word.parse("x4", 3)
    with pytest.raises(ValueError):
        Word.parse("x1^", 3)
    with pytest.raises(ValueError):
        Word(3, (0,))
    with pytest.raises(ValueError):
        Word(0, ())


@pytest.mark.parametrize(
    "letters", [(0,), (4,), (-4,), (1, 4, -1), (1.0,), ("x1",), (None,)], ids=repr
)
def test_the_constructor_rejects_every_invalid_letter(letters):
    with pytest.raises(ValueError, match="is not valid for genus 3"):
        Word(3, letters)


def test_parse_exponents_and_identity_token():
    assert Word.parse("x1^2 x2^-2", 3).letters == (1, 1, -2, -2)
    assert Word.parse("1", 3) == Word(3)
    assert Word.parse("x1 1 x2", 3).letters == (1, 2)


def test_parse_expands_up_to_the_letter_bound():
    assert len(Word.parse(f"x1^{MAX_PARSED_LETTERS}", 3)) == MAX_PARSED_LETTERS
    assert Word.parse("x1^0000002 x2^-0", 3).letters == (1, 1)
    half = MAX_PARSED_LETTERS // 2
    assert len(Word.parse(f"x1^{half} x2^-{MAX_PARSED_LETTERS - half}", 3)) == MAX_PARSED_LETTERS


@pytest.mark.parametrize(
    "text, token",
    [
        (f"x1^{MAX_PARSED_LETTERS + 1}", f"x1^{MAX_PARSED_LETTERS + 1}"),
        (f"x2^-{MAX_PARSED_LETTERS + 1}", f"x2^-{MAX_PARSED_LETTERS + 1}"),
        (f"x1^{MAX_PARSED_LETTERS} x2", "x2"),
        (f"x1^{MAX_PARSED_LETTERS // 2} x1^-{MAX_PARSED_LETTERS // 2 + 1}",
         f"x1^-{MAX_PARSED_LETTERS // 2 + 1}"),
        # more digits than int() converts: refused before any conversion
        ("x3^" + "9" * 5000, "x3^" + "9" * 5000),
    ],
)
def test_parse_refuses_a_token_past_the_letter_bound(text, token):
    # the running total counts letters before reduction: x1^k x1^-k is
    # refused past the bound even though it reduces to the identity
    with pytest.raises(ValueError) as err:
        Word.parse(text, 3)
    assert str(err.value) == (
        f"word token {token!r} takes the word past {MAX_PARSED_LETTERS} letters"
    )


def test_str_round_trip():
    for text in ["1", "x1", "x2^-1", "x1 x2 x1^-1", "x3 x3 x1^-1"]:
        u = w(text)
        assert Word.parse(str(u), 3) == u


def test_genus_mismatch_is_an_error():
    with pytest.raises(ValueError):
        Word.parse("x1", 2) * Word.parse("x1", 3)
    with pytest.raises(ValueError):
        is_conjugate(Word.parse("x1", 2), Word.parse("x1", 3))


def test_boundary_word():
    assert boundary_word(2) == Word.parse("x1 x1 x2 x2", 2)
    assert boundary_word(4).exponent_vector() == (2, 2, 2, 2)
    assert sum(boundary_word(4).exponent_vector()) == 8


def test_exponent_vector():
    assert w("x1 x2^-1 x1").exponent_vector() == (2, -1, 0)
    assert w("x1 x1^-1").exponent_vector() == (0, 0, 0)


def test_cyclic_canonical_form_is_rotation_invariant():
    u = w("x1 x2 x3")
    for rotated in ["x2 x3 x1", "x3 x1 x2"]:
        assert CyclicWord.of(u) == CyclicWord.of(w(rotated))


def test_cyclic_reduction_strips_conjugating_shell():
    shell = w("x3 x1^-1")
    core = w("x1 x2")
    assert CyclicWord.of(shell * core * shell.inverse()) == CyclicWord.of(core)


def test_cyclic_word_of_identity():
    assert CyclicWord.of(Word(3)).letters == ()
    # x1 x1^-1 cyclically reduces away entirely
    assert CyclicWord(3, (1, 2, -2, -1)).letters == ()


def test_unoriented_identifies_inverse_classes():
    u = CyclicWord.of(w("x1 x2"))
    v = u.inverse()
    assert u != v
    assert u.unoriented() == v.unoriented()


def test_conjugate_words_detected():
    u = w("x1 x2 x1^-1 x3")
    c = w("x2 x2 x1^-1")
    assert is_conjugate(u, c * u * c.inverse())
    assert not is_conjugate(w("x1"), w("x2"))
    assert not is_conjugate(w("x1"), w("x1^-1"))


# -- brute-force oracle ---------------------------------------------------
#
# Conjugacy decided by exhaustive search over short conjugating elements.
# Deliberately independent of the CyclicWord canonicalisation; used again
# by the acceptance suite.


def enumerate_reduced_words(genus, max_len):
    """All freely reduced words of length <= max_len, as Word objects."""
    alphabet = [s for i in range(1, genus + 1) for s in (i, -i)]
    out = [Word(genus)]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for tail in frontier:
            for s in alphabet:
                if tail and tail[-1] == -s:
                    continue
                nxt.append(tail + (s,))
        out.extend(Word(genus, t) for t in nxt)
        frontier = nxt
    return out


def brute_force_conjugate(u, v, conjugators):
    return any(c * u * c.inverse() == v for c in conjugators)


def random_reduced_word(rng, genus, max_len):
    length = rng.randint(0, max_len)
    letters = []
    alphabet = [s for i in range(1, genus + 1) for s in (i, -i)]
    while len(letters) < length:
        s = rng.choice(alphabet)
        if letters and letters[-1] == -s:
            continue
        letters.append(s)
    return Word(genus, tuple(letters))


def test_is_conjugate_matches_brute_force_on_random_pairs():
    rng = random.Random(1729)
    genus = 3
    conjugators = enumerate_reduced_words(genus, 4)
    checked_true = checked_false = 0
    for _ in range(120):
        u = random_reduced_word(rng, genus, 6)
        if rng.random() < 0.5:
            c = random_reduced_word(rng, genus, 2)
            v = c * u * c.inverse()
        else:
            v = random_reduced_word(rng, genus, 6)
        expected = brute_force_conjugate(u, v, conjugators)
        assert is_conjugate(u, v) == expected, f"u={u}, v={v}"
        checked_true += expected
        checked_false += not expected
    # the sample genuinely exercises both outcomes
    assert checked_true > 20
    assert checked_false > 20
