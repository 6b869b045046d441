"""Soundness by Stallings folding, against an independent decision.

``Automorphism.verify_sound`` folds the images into a graph and accepts
exactly when they generate the free group.  Here it is compared with
Nielsen reduction, which decides the same question by length-reducing
transformations of the image tuple and never builds a graph.  Maps
evaluated from twist expressions must pass, and three mutants of each,
none of them onto, must fail.
"""

import random
import time
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from test_acceptance import mutants  # noqa: E402

from crosscap.surface import SurfaceSpec, standard_registry  # noqa: E402
from crosscap.twists import (  # noqa: E402
    Automorphism,
    AutomorphismError,
    derive_generators,
    evaluate,
)
from crosscap.words import Word  # noqa: E402


def _inv(w):
    return tuple(-s for s in reversed(w))


def _mul(u, v):
    out = list(u)
    for s in v:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _canonical(ws):
    """The tuple up to order and up to inverting each word."""
    return tuple(sorted(min(w, _inv(w)) for w in ws))


def _nielsen_moves(ws):
    for i, u in enumerate(ws):
        for j, v in enumerate(ws):
            if i != j:
                for w in (v, _inv(v)):
                    for new in (_mul(u, w), _mul(w, u)):
                        yield ws[:i] + (new,) + ws[i + 1 :]


def nielsen_generates(genus, words):
    """Whether ``words`` (letter tuples, one per generator) generate F_genus.

    A Nielsen-reduced tuple generates the group exactly when it is the
    basis up to order and inverses (Lyndon and Schupp, Combinatorial Group
    Theory, I.2), and Nielsen reduction needs only moves that shorten the
    tuple or keep its length.  So: search the moves that keep the length
    for one that shortens, shorten, and repeat until no move shortens.
    """
    ws = _canonical(words)
    while all(ws):
        total = sum(map(len, ws))
        if total == genus:
            return sorted(abs(w[0]) for w in ws) == list(range(1, genus + 1))
        seen, frontier, shorter = {ws}, [ws], None
        while frontier and shorter is None:
            for nxt in _nielsen_moves(frontier.pop()):
                length = sum(map(len, nxt))
                if length < total:
                    shorter = nxt
                    break
                nxt = _canonical(nxt)
                if length == total and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if shorter is None:
            return False
        ws = _canonical(shorter)
    return False  # a trivial image leaves fewer than genus generators


def folds_sound(auto):
    try:
        auto.verify_sound()
    except AutomorphismError:
        return False
    return True


def letters(genus):
    return st.integers(1, genus).flatmap(lambda i: st.sampled_from((i, -i)))


@st.composite
def image_tuples(draw):
    """Random images of at most six letters, or the basis moved by random
    Nielsen moves that keep every image that short (always generating)."""
    genus = draw(st.integers(2, 3))
    if draw(st.booleans()):
        ws = [
            Word(genus, tuple(draw(st.lists(letters(genus), max_size=6)))).letters
            for _ in range(genus)
        ]
    else:
        ws = [(i,) for i in range(1, genus + 1)]
        moves = st.tuples(
            st.integers(0, genus - 1), st.integers(1, genus - 1), st.booleans(), st.booleans()
        )
        for i, shift, invert, left in draw(st.lists(moves, max_size=12)):
            v = ws[(i + shift) % genus]
            v = _inv(v) if invert else v
            new = _mul(v, ws[i]) if left else _mul(ws[i], v)
            if len(new) <= 6:
                ws[i] = new
    return genus, tuple(ws)


@settings(max_examples=300, deadline=None)
@given(image_tuples())
def test_folding_agrees_with_nielsen_reduction(case):
    genus, ws = case
    auto = Automorphism(genus, tuple(Word(genus, w) for w in ws))
    assert folds_sound(auto) == nielsen_generates(genus, ws)


@lru_cache(maxsize=None)
def genus_four_generators():
    return derive_generators(standard_registry(SurfaceSpec(4, 1)))


factors = st.tuples(st.sampled_from(sorted(genus_four_generators())), st.sampled_from((1, -1)))


@settings(max_examples=100, deadline=None)
@given(st.lists(factors, max_size=6), st.permutations(range(4)))
def test_evaluated_expressions_pass_and_their_mutants_fail(factors, order):
    auto = evaluate(factors, genus_four_generators(), 4)
    assert folds_sound(auto)
    # mutate at every position, not only x1, by permuting the generators
    permuted = Automorphism(4, tuple(auto.images[i] for i in order))
    assert folds_sound(permuted)
    assert not any(folds_sound(m) for m in mutants(permuted))


def test_a_long_expression_folds_in_about_linear_time():
    """A seeded 18-factor genus-4 expression whose images have 104,028
    letters folds as sound, and its x1-squared mutant is rejected."""
    generators = genus_four_generators()
    names = sorted(generators)
    rng = random.Random(1)
    factors = [(rng.choice(names), rng.choice((1, -1))) for _ in range(18)]
    auto = evaluate(factors, generators, 4)
    assert sum(len(w) for w in auto.images) == 104_028
    start = time.perf_counter()
    auto.verify_sound()
    squared = next(mutants(auto))
    with pytest.raises(AutomorphismError, match=r"fold to \d+ vertices, and x1"):
        squared.verify_sound()
    assert time.perf_counter() - start < 2.0


def test_the_error_names_the_vertex_count_and_the_missing_generators():
    x = [Word(3, (i,)) for i in (1, 2, 3)]
    with pytest.raises(
        AutomorphismError,
        match=r"^images do not generate the free group: they fold to 2 vertices, "
        r"and x1 is not in their span$",
    ):
        Automorphism(3, (x[0] * x[0], x[1], x[2])).verify_sound()
    with pytest.raises(AutomorphismError, match=r"fold to 1 vertex, and x2, x3 are not"):
        Automorphism(3, (x[0], Word(3), x[0])).verify_sound()
