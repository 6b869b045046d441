"""Integral and mod-2 homology actions of twist automorphisms."""

import random

import pytest

from crosscap import polygon
from crosscap.homology import HomologyMatrix, abelianize, mod2_class, transvection_fault
from crosscap.polygon import DegeneratePositionError, spell_cyclic, twist_images
from crosscap.surface import MAX_GENUS, SurfaceSpec, standard_registry
from crosscap.twists import Automorphism, derive_generators, evaluate, standard_certificates
from crosscap.words import Word

from det_reference import fraction_det, triple_loop


@pytest.fixture(scope="module")
def world4():
    reg = standard_registry(SurfaceSpec(4, 1))
    return reg, derive_generators(reg)


def test_identity_matrix():
    one = abelianize(Automorphism.identity(3))
    assert one.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert one.det() == 1
    assert triple_loop(one.rows, one.rows) == one.rows


def test_determinant_exact_on_random_integer_matrices():
    """Unit-column expansion against a rational elimination of the whole
    matrix, on seeded random matrices."""
    rng = random.Random(4171)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = tuple(
            tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)
        )
        assert HomologyMatrix(n, rows).det() == fraction_det(rows)


def test_unit_column_expansion_matches_whole_matrix_elimination():
    """On random, singular and near-identity integer matrices, including
    composites of large entries and columns that are unit vectors in the
    wrong row, the determinant of the block that the unit columns leave is
    that of the whole matrix."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def matrices(draw):
        n = draw(st.integers(min_value=1, max_value=7))
        kind = draw(st.sampled_from(["random", "singular", "near-identity"]))
        entries = st.integers(min_value=-5, max_value=5)
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        if kind == "near-identity":
            # a few columns replaced, by random columns or by unit columns
            # in another row
            for j in draw(st.lists(st.integers(0, n - 1), max_size=4)):
                if draw(st.booleans()):
                    column = [draw(entries) for _ in range(n)]
                else:
                    hot = draw(st.integers(0, n - 1))
                    column = [1 if i == hot else 0 for i in range(n)]
                for i in range(n):
                    rows[i][j] = column[i]
        else:
            rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
        if kind == "singular" and n > 1:
            a, b = draw(st.permutations(range(n)))[:2]
            scale = draw(entries)
            rows[a] = [scale * x for x in rows[b]]
        if draw(st.booleans()):
            # a composite: the product with another near-identity matrix
            factor = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            factor[i][j] += draw(st.integers(min_value=-40, max_value=40))
            rows = triple_loop(rows, factor)
        return tuple(tuple(r) for r in rows)

    @settings(max_examples=400, deadline=None)
    @given(matrices())
    def check(rows):
        assert HomologyMatrix(len(rows), rows).det() == fraction_det(rows)

    check()


def test_chain_twist_matrix_is_the_known_block(world4):
    _, gens = world4
    m = abelianize(gens["a1"].auto)
    assert m.rows == (
        (2, -1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    assert m.det() == 1


def test_abelianization_tracks_exponent_vectors(world4):
    """The matrix acting on exponent vectors must agree with applying the
    automorphism and abelianizing afterwards."""
    _, gens = world4
    rng = random.Random(905)
    names = sorted(gens)
    for _ in range(30):
        expr = " ".join(rng.choice(names) for _ in range(rng.randint(1, 5)))
        auto = evaluate(expr, gens, 4)
        matrix = abelianize(auto)
        letters = []
        for _ in range(rng.randint(0, 6)):
            letters.append(rng.choice([1, -1]) * rng.randint(1, 4))
        w = Word(4, tuple(letters))
        column = tuple(zip(w.exponent_vector()))
        assert triple_loop(matrix.rows, column) == tuple(zip(auto.apply(w).exponent_vector()))


@pytest.mark.parametrize("genus", [4, 6])
def test_all_generator_determinants_are_units(genus):
    gens = derive_generators(standard_registry(SurfaceSpec(genus, 1)))
    for name, gen in gens.items():
        assert abelianize(gen.auto).det() in (1, -1), name


def test_functoriality_of_abelianization(world4):
    _, gens = world4
    rng = random.Random(2024)
    names = sorted(gens)
    for _ in range(40):
        e1 = " ".join(rng.choice(names) for _ in range(rng.randint(1, 4)))
        e2 = " ".join(rng.choice(names) for _ in range(rng.randint(1, 4)))
        p = evaluate(e1, gens, 4)
        q = evaluate(e2, gens, 4)
        assert abelianize(p.after(q)).rows == triple_loop(abelianize(p).rows, abelianize(q).rows)


def test_matrix_level_certificate_agreement(world4):
    _, gens = world4
    cert = standard_certificates(4)["f"]
    direct = abelianize(gens["f"].auto)
    composed = abelianize(evaluate(cert.expression, gens, 4))
    assert direct == composed


# -- mod 2 ---------------------------------------------------------------


def test_mod2_class_of_registered_curves(world4):
    reg, _ = world4
    assert mod2_class(reg.curve("alpha_1").word) == 0b0011
    assert mod2_class(reg.curve("beta").word) == 0b1111
    assert mod2_class(reg.curve("epsilon").word) == 0b0011
    assert mod2_class(Word(4, (2, 2, -3, 1, 3))) == 0b0001


def test_twist_action_mod_two_is_the_transvection_of_its_curve():
    """Mod 2, a twist acts by z + B(z, c) c in the crosscap basis; this pins
    every registered twist and its inverse against its own curve class."""
    for genus in (*range(4, 31), MAX_GENUS):
        gens = derive_generators(standard_registry(SurfaceSpec(genus, 1)))
        for name, gen in gens.items():
            c = mod2_class(gen.curve.word)
            assert transvection_fault(gen.auto.images, c) is None, (genus, name)
            assert transvection_fault(gen.inverse.images, c) is None, (genus, name)


def test_random_embedded_twists_are_their_curves_transvections_mod_two():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st
    from test_shortcuts import random_curves

    @settings(max_examples=200, deadline=None)
    @given(random_curves(), st.sampled_from([1, -1]))
    def check(curve, arrow):
        try:
            embedded = curve.self_crossing_count() == 0
        except DegeneratePositionError:
            embedded = False
        assume(embedded)
        c = mod2_class(spell_cyclic(curve.genus, curve.events))
        assert transvection_fault(twist_images(curve, arrow), c) is None

    check()


def test_an_odd_class_is_a_fault():
    # x1 -> 1 is z + B(z, c) c for c = x1 column by column, but an odd class
    # is no two-sided curve's
    assert transvection_fault([Word(3), Word(3, (2,)), Word(3, (3,))], 0b001) == -1
    assert transvection_fault([Word(2, (2,)), Word(2, (1,))], 0b11) is None


@pytest.fixture(scope="module")
def world6():
    reg = standard_registry(SurfaceSpec(6, 1))
    return reg, derive_generators(reg)


@pytest.mark.parametrize(
    "images_of, class_of_twist, column",
    [
        ("a1", "a2", 0),  # a1's images checked against alpha_2's class
        ("b", "e", 0),  # beta's images checked against epsilon's class
        ("a2", "a1", 0),  # a1's images replaced by a2's
    ],
)
def test_a_twist_checked_against_another_class_is_reported(
    world6, images_of, class_of_twist, column
):
    _, gens = world6
    c = mod2_class(gens[class_of_twist].curve.word)
    assert transvection_fault(gens[images_of].auto.images, c) == column


def dropping_one_lap(monkeypatch):
    """Make `_detours` drop the first lap of the first detour list that has one."""
    real, dropped = polygon._detours, []

    def detours(curve, arrow, key, into):
        stops = real(curve, arrow, key, into)
        if stops and not dropped:
            dropped.append(key)
            return stops[len(curve.stops) :]
        return stops

    monkeypatch.setattr(polygon, "_detours", detours)
    return dropped


@pytest.mark.parametrize(
    "name, column",
    [("alpha_1", 0), ("alpha_2", 1), ("alpha_3", 2), ("alpha_4", 3), ("alpha_5", 4),
     ("beta", 0), ("epsilon", 0), ("zeta", 1)],
)
@pytest.mark.parametrize("arrow_sign", [1, -1])
def test_a_twist_that_drops_one_lap_is_reported(world6, monkeypatch, name, column, arrow_sign):
    # a lap spells its curve, so dropping one moves a column by the class;
    # gamma and psi have class 0 mod 2, where nothing shows
    reg, _ = world6
    rec = reg.curve(name)
    dropped = dropping_one_lap(monkeypatch)
    images = twist_images(reg.geometry(name), arrow_sign * rec.arrow)
    assert dropped
    assert transvection_fault(images, mod2_class(rec.word)) == column, name


def test_structured_and_text_renderings(world4):
    _, gens = world4
    m = abelianize(gens["a1"].auto)
    assert m.structured() == "4;2,-1,0,0;1,0,0,0;0,0,1,0;0,0,0,1"
    text = m.format_text()
    assert len(text.splitlines()) == 4
    assert "2" in text and "-1" in text
