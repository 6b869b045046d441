"""Integral and mod-2 homology actions of twist automorphisms."""

import random

import pytest

from crosscap.homology import HomologyMatrix, Mod2Matrix, abelianize, mod2_class
from crosscap.surface import SurfaceSpec, standard_registry
from crosscap.twists import derive_generators, evaluate, standard_certificates
from crosscap.words import Word

from det_reference import fraction_det


@pytest.fixture(scope="module")
def world4():
    reg = standard_registry(SurfaceSpec(4, 1))
    return reg, derive_generators(reg)


def test_identity_matrix():
    one = HomologyMatrix.identity(3)
    assert one.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert one.det() == 1
    assert one * one == one


def test_matrix_vector_action():
    m = HomologyMatrix(2, ((2, -1), (1, 0)))
    assert m.apply((1, 0)) == (2, 1)
    assert m.apply((0, 1)) == (-1, 0)


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
            other = HomologyMatrix.identity(n).rows
            factor = [list(r) for r in other]
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            factor[i][j] += draw(st.integers(min_value=-40, max_value=40))
            rows = (HomologyMatrix(n, rows) * HomologyMatrix(n, factor)).rows
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
        assert matrix.apply(w.exponent_vector()) == auto.apply(w).exponent_vector()


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
        assert abelianize(p.after(q)) == abelianize(p) * abelianize(q)


def test_matrix_level_certificate_agreement(world4):
    _, gens = world4
    cert = standard_certificates(4)["f"]
    direct = abelianize(gens["f"].auto)
    composed = abelianize(evaluate(cert.expression, gens, 4))
    assert direct == composed


# -- mod 2 ---------------------------------------------------------------


def test_mod2_class_of_registered_curves(world4):
    reg, _ = world4
    assert mod2_class(reg.curve("alpha_1").word) == (1, 1, 0, 0)
    assert mod2_class(reg.curve("beta").word) == (1, 1, 1, 1)
    assert mod2_class(reg.curve("epsilon").word) == (1, 1, 0, 0)


def test_transvection_requires_two_sided_classes():
    with pytest.raises(ValueError):
        Mod2Matrix.transvection(3, (1, 0, 0))


def test_transvections_are_involutions():
    t = Mod2Matrix.transvection(4, (1, 1, 0, 0))
    assert t != Mod2Matrix.identity(4)
    assert t * t == Mod2Matrix.identity(4)


def test_twist_action_mod_two_is_the_transvection_of_its_curve(world4):
    """Mod 2, a twist acts by v + <v,c>c in the crosscap basis; this pins
    every generator's homology action against its own curve class."""
    _, gens = world4
    for name, gen in gens.items():
        action = abelianize(gen.auto).mod2()
        expected = Mod2Matrix.transvection(4, mod2_class(gen.curve.word))
        assert action == expected, name


def test_structured_and_text_renderings(world4):
    _, gens = world4
    m = abelianize(gens["a1"].auto)
    assert m.structured() == "4;2,-1,0,0;1,0,0,0;0,0,1,0;0,0,0,1"
    text = m.format_text()
    assert len(text.splitlines()) == 4
    assert "2" in text and "-1" in text
