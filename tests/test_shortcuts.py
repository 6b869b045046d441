"""Each shortcut of a ``verify-theorem`` run against the full computation.

``twist_images`` spells only the crosscaps a twist moves, a map stores,
composes and compares only the images of the generators it moves, the
relation checks compare composites only where one of the two maps moves
a generator, and pass maps with disjoint supports with nothing composed,
and ``HomologyMatrix.det`` expands along its unit columns.  This module
keeps the full computation of each as a reference (the one for ``det`` is
shared, in ``det_reference``) and checks that the shortcut gives the same
answer on random inputs.
"""

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
    _check_twistable,
    _twisted_loop,
    apply_images,
    fresh_params,
    twist_images,
)
from crosscap.surface import SurfaceSpec, standard_registry  # noqa: E402
from crosscap.twists import (  # noqa: E402
    Automorphism,
    _braid_holds,
    _commute_holds,
    _reach,
    derive_generators,
    equal,
    evaluate,
    first_difference,
)
from crosscap.words import Word, boundary_word  # noqa: E402

from det_reference import fraction_det  # noqa: E402


# -- twist_images against the full triangular recursion -------------------------


def full_recursion(curve, arrow):
    """Every image spelled: x_i ↦ S⁻¹ t(P x_i P⁻¹) S, S the image of P."""
    _check_twistable(curve, arrow)
    genus = curve.genus
    tau = fresh_params(1, curve.params())[0]
    images, shell = [], Word(genus)
    for i in range(1, genus + 1):
        loop = Word(genus, _twisted_loop(curve, arrow, i, tau))
        x_i = shell.inverse() * loop * shell
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
    fixed = [Word(curve.genus, (i,)) for i in range(1, curve.genus + 1)]
    full = full_recursion(curve, arrow)
    assert twist_images(curve, arrow) == {j: w for j, w in enumerate(full) if w != fixed[j]}


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


def nielsen_move(draw, genus):
    """All images of x_i -> x_i x_j^(+-1), x_j^(+-1) x_i or x_i^-1."""
    i, j = draw(st.lists(st.integers(1, genus), min_size=2, max_size=2, unique=True))
    sign, kind = draw(st.sampled_from([1, -1])), draw(st.sampled_from(["r", "l", "inv"]))
    images = [Word(genus, (k,)) for k in range(1, genus + 1)]
    images[i - 1] = Word(genus, {"r": (i, sign * j), "l": (sign * j, i), "inv": (-i,)}[kind])
    return tuple(images)


@st.composite
def nielsen_pairs(draw):
    """Two automorphisms at genus 3-6, each a product of one to three
    Nielsen moves x_i -> x_i x_j^(+-1), x_j^(+-1) x_i or x_i^-1: sparse
    maps whose images name letters they do not move."""
    genus = draw(st.integers(min_value=3, max_value=6))

    def one():
        auto = Automorphism.identity(genus)
        for _ in range(draw(st.integers(1, 3))):
            auto = auto.after(Automorphism(genus, nielsen_move(draw, genus)))
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


# -- sparse maps against dense image tuples --------------------------------------


def dense_after(outer, inner):
    """The images of outer∘inner, both given by all their images."""
    return tuple(apply_images(outer, w) for w in inner)


@st.composite
def sparse_and_dense_pairs(draw):
    """Two maps, each as evaluated (sparse) and as its dense image tuple: 1-6
    twist factors at genus 4-8, the second often equal to the first or one
    factor off; or products of Nielsen moves, which mostly move the boundary."""
    genus = draw(st.integers(min_value=4, max_value=8))
    identity = tuple(Word(genus, (i,)) for i in range(1, genus + 1))
    if draw(st.booleans()):
        gens = generators(genus)
        factor = st.tuples(st.sampled_from(sorted(gens)), st.sampled_from([1, -1]))
        p = draw(st.lists(factor, min_size=1, max_size=6))
        kind = draw(st.sampled_from(["random", "relator", "changed"]))
        if kind == "random":
            q = draw(st.lists(factor, min_size=1, max_size=6))
        elif kind == "relator":
            name, exp = draw(factor)
            at = draw(st.integers(0, len(p)))
            q = p[:at] + [(name, exp), (name, -exp)] + p[at:]
        else:
            q = p[:-1] + [draw(factor)]
        maps = []
        for factors in (p, q):
            dense = identity
            for name, exp in factors:
                step = gens[name].auto if exp > 0 else gens[name].inverse
                dense = dense_after(dense, step.images)
            maps.append((evaluate(factors, gens, genus), dense))
        return maps
    maps = []
    for _ in range(2):
        sparse, dense = Automorphism.identity(genus), identity
        for _ in range(draw(st.integers(1, 3))):
            move = nielsen_move(draw, genus)
            sparse, dense = sparse.after(Automorphism(genus, move)), dense_after(dense, move)
        maps.append((sparse, dense))
    return maps


@settings(max_examples=150, deadline=None)
@given(sparse_and_dense_pairs())
def test_sparse_maps_match_dense_composition(maps):
    (p, dp), (q, dq) = maps
    genus = p.genus
    assert p.images == dp and q.images == dq
    for auto in (p, q):
        assert all(w.letters != (j + 1,) for j, w in auto.moved.items())
    assert equal(p, q) == (dp == dq)
    first = next((f"x{i + 1}" for i in range(genus) if dp[i] != dq[i]), None)
    assert first_difference(p, q) == first
    delta = boundary_word(genus)
    assert p.fixes_boundary() == (apply_images(dp, delta) == delta)
    assert q.fixes_boundary() == (apply_images(dq, delta) == delta)


# -- det against the textbook computation -------------------------------------


@st.composite
def sparse_matrices(draw):
    """Square integer matrices with many zero entries, so pivots are often 0."""
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    return tuple(draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def near_identity_matrices(draw):
    """The identity with a few entries changed, like a product of twists."""
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
