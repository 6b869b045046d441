"""Integral and mod-2 homology actions of twist automorphisms."""

import random
from fractions import Fraction

import pytest

from crosscap.homology import HomologyMatrix, Mod2Matrix, abelianize, mod2_class
from crosscap.surface import SurfaceSpec, standard_registry
from crosscap.twists import derive_generators, evaluate, standard_certificates
from crosscap.words import Word


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
    """Fraction-free elimination against a naive rational elimination."""

    def naive_det(rows):
        n = len(rows)
        mat = [[Fraction(x) for x in row] for row in rows]
        sign = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if mat[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                mat[col], mat[pivot] = mat[pivot], mat[col]
                sign = -sign
            for r in range(col + 1, n):
                factor = mat[r][col] / mat[col][col]
                for c in range(col, n):
                    mat[r][c] -= factor * mat[col][c]
        out = Fraction(sign)
        for i in range(n):
            out *= mat[i][i]
        assert out.denominator == 1
        return int(out)

    rng = random.Random(4171)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = tuple(
            tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)
        )
        assert HomologyMatrix(n, rows).det() == naive_det(rows)


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
