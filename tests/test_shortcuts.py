"""Each shortcut of a ``verify-theorem`` run against the full computation.

``twist_images`` spells only the crosscaps a twist moves, the relation
checks compare composites only where one of the two maps moves a
generator, and pass maps with disjoint supports with nothing composed,
``HomologyMatrix.det`` skips the Bareiss row updates that
cannot change a row, and ``HomologyMatrix.__mul__`` skips zero entries.
This module keeps the full computation of each as a reference and checks
that the shortcut gives the same answer on random inputs.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from crosscap.homology import HomologyMatrix  # noqa: E402
from crosscap.polygon import (  # noqa: E402
    SIDE,
    CurveGeometry,
    DegeneratePositionError,
    Event,
    apply_images,
    fresh_params,
    spell_based_loop,
    twist_based_loop,
    twist_images,
)
from crosscap.surface import SurfaceSpec, standard_registry  # noqa: E402
from crosscap.twists import (  # noqa: E402
    Automorphism,
    _braid_holds,
    _commute_holds,
    _reach,
    derive_generators,
    evaluate,
)
from crosscap.words import Word  # noqa: E402


# -- twist_images against the full triangular recursion -------------------------


def full_recursion(curve, arrow):
    """Every image spelled: x_i ↦ S⁻¹ t(P x_i P⁻¹) S, S the image of P."""
    genus = curve.genus
    tau = fresh_params(1, curve.params())[0]
    images, shell = [], Word(genus)
    for i in range(1, genus + 1):
        spliced = twist_based_loop(curve, arrow, [Event(i, True, tau)])
        x_i = shell.inverse() * spell_based_loop(genus, spliced) * shell
        images.append(x_i)
        shell = shell * x_i * x_i
    return images


@st.composite
def random_curves(draw):
    """A two-sided curve of 2 or 4 events on drawn parameters; about one
    in ten of the 4-event draws is embedded, most 2-event ones are."""
    genus = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.sampled_from([2, 2, 4]))
    ts = draw(st.lists(st.integers(1, SIDE - 1), min_size=m, max_size=m, unique=True))
    pairs = draw(st.lists(st.integers(1, genus), min_size=m, max_size=m))
    hits = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return CurveGeometry(genus, [Event(*ev) for ev in zip(pairs, hits, ts)])


@lru_cache(maxsize=None)
def registered_curves(genus):
    reg = standard_registry(SurfaceSpec(genus, 1))
    return [reg.geometry(name) for name in reg.names()]


registered = st.integers(min_value=4, max_value=9).flatmap(
    lambda genus: st.sampled_from(registered_curves(genus))
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_curves(), registered), st.sampled_from([1, -1]))
def test_twist_images_match_the_full_recursion(curve, arrow):
    try:
        embedded = curve.self_crossing_count() == 0
    except DegeneratePositionError:
        embedded = False
    assume(embedded)
    assert twist_images(curve, arrow) == full_recursion(curve, arrow)


# -- the restricted relation checks against full composition ---------------------


@lru_cache(maxsize=None)
def generators(genus):
    return derive_generators(standard_registry(SurfaceSpec(genus, 1)))


def compose(outer, inner):
    """Images of outer∘inner at every generator."""
    return [apply_images(outer.images, w) for w in inner.images]


def commute_everywhere(p, q):
    return compose(p, q) == compose(q, p)


def braid_everywhere(p, q):
    pqp = [apply_images(compose(p, q), w) for w in p.images]
    qpq = [apply_images(compose(q, p), w) for w in q.images]
    return pqp == qpq


@st.composite
def map_pairs(draw, min_genus=4):
    """Two evaluated maps: random words in the generators, or a word with
    itself, its inverse, or a word in generators far down the chain."""
    genus = draw(st.integers(min_value=min_genus, max_value=6))
    gens = generators(genus)
    factors = st.tuples(st.sampled_from(sorted(gens)), st.sampled_from([1, -1]))
    p = draw(st.lists(factors, min_size=1, max_size=2))
    kind = draw(st.sampled_from(["random", "same", "inverse", "far"]))
    if kind == "random":
        q = draw(st.lists(factors, min_size=1, max_size=2))
    elif kind == "same":
        q = p
    elif kind == "inverse":
        q = [(name, -exp) for name, exp in reversed(p)]
    else:
        p = [(f"a{draw(st.integers(1, 2))}", draw(st.sampled_from([1, -1])))]
        far = st.sampled_from([f"a{i}" for i in range(2, genus)])
        q = draw(st.lists(st.tuples(far, st.sampled_from([1, -1])), min_size=1, max_size=2))
    return evaluate(p, gens, genus), evaluate(q, gens, genus)


@settings(max_examples=100, deadline=None)
@given(map_pairs())
def test_restricted_relation_checks_match_full_composition(pair):
    p, q = pair
    where = _reach(p)[0] | _reach(q)[0]
    assert _commute_holds(p, q, where) == commute_everywhere(p, q)
    assert _braid_holds(p, q, where) == braid_everywhere(p, q)


def supports_disjoint(p, q):
    return _reach(p)[1].isdisjoint(_reach(q)[1])


@st.composite
def nielsen_pairs(draw):
    """Two automorphisms at genus 3-6, each a product of one to three
    Nielsen moves x_i -> x_i x_j^(+-1), x_j^(+-1) x_i or x_i^-1: sparse
    maps whose images name letters they do not move."""
    genus = draw(st.integers(min_value=3, max_value=6))

    def one():
        auto = Automorphism.identity(genus)
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.lists(st.integers(1, genus), min_size=2, max_size=2, unique=True))
            sign, kind = draw(st.sampled_from([1, -1])), draw(st.sampled_from(["r", "l", "inv"]))
            letters = {"r": (i, sign * j), "l": (sign * j, i), "inv": (-i,)}[kind]
            images = [Word(genus, (k,)) for k in range(1, genus + 1)]
            images[i - 1] = Word(genus, letters)
            auto = auto.after(Automorphism(genus, tuple(images)))
        return auto

    return one(), one()


@settings(max_examples=300, deadline=None)
@given(st.one_of(nielsen_pairs(), map_pairs(min_genus=3)))
def test_maps_with_disjoint_supports_commute(pair):
    p, q = pair
    if supports_disjoint(p, q):
        assert p.after(q) == q.after(p)


def test_the_support_counts_the_letters_of_the_images():
    gens = generators(6)
    a1, a4 = gens["a1"].auto, gens["a4"].auto
    assert supports_disjoint(a1, a4)
    assert not supports_disjoint(a1, a1.after(a4))
    # x1 -> x1 x2 moves x1 only, but its image names x2, which q moves:
    # the maps do not commute, and the supports meet
    p = Automorphism(2, (Word(2, (1, 2)), Word(2, (2,))))
    q = Automorphism(2, (Word(2, (1,)), Word(2, (2, 2))))
    assert _reach(p) == ({0}, {0, 1}) and _reach(q) == ({1}, {1})
    assert not supports_disjoint(p, q) and p.after(q) != q.after(p)


def test_the_relation_references_see_both_outcomes():
    gens = generators(5)
    a1, a2, a3 = (gens[name].auto for name in ("a1", "a2", "a3"))
    assert commute_everywhere(a1, a3) and not commute_everywhere(a1, a2)
    assert braid_everywhere(a1, a2) and not braid_everywhere(a1, a3)
    assert not _commute_holds(a1, a2, _reach(a1)[0] | _reach(a2)[0])
    assert not _braid_holds(a1, a3, _reach(a1)[0] | _reach(a3)[0])


# -- det and __mul__ against the textbook computations ----------------------------


def fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            for c in range(col, n):
                mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return int(det)


def triple_loop(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@st.composite
def sparse_matrices(draw, n=None):
    """Square integer matrices with many zero entries, so pivots are often 0."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    return tuple(draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def near_identity_matrices(draw, n=None):
    """The identity with a few entries changed, like a product of twists."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=9))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, value in draw(st.lists(cells, max_size=2 * n)):
        rows[i][j] = value
    return tuple(tuple(row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_matrices(), near_identity_matrices()))
def test_det_matches_fraction_elimination(rows):
    assert HomologyMatrix(len(rows), rows).det() == fraction_det(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.one_of(sparse_matrices(n), near_identity_matrices(n)),
            st.one_of(sparse_matrices(n), near_identity_matrices(n)),
        )
    )
)
def test_product_matches_the_triple_loop(pair):
    a, b = pair
    n = len(a)
    assert (HomologyMatrix(n, a) * HomologyMatrix(n, b)).rows == triple_loop(a, b)
