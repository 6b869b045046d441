"""Acceptance checklist: the package's headline guarantees, one test each.

Every test here states a user-visible promise — run ``pytest -v
tests/test_acceptance.py`` to get one pass/fail line per promise.  The
individual module suites cover the same ground in finer grain; this file
is the contract.
"""

import random
import time

import pytest

from det_reference import triple_loop
from test_words import (
    brute_force_conjugate,
    enumerate_reduced_words,
    random_reduced_word,
)

from crosscap.cutting import cut_along, intersection_number
from crosscap.homology import abelianize
from crosscap.surface import (
    SurfaceSpec,
    standard_registry,
    validate_registry,
    x0_names,
)
from crosscap.twists import (
    Automorphism,
    AutomorphismError,
    CertificateError,
    check_certificate,
    derive_generators,
    evaluate,
    relation_suite,
    standard_certificates,
    verify_key_conjugation,
)
from crosscap.words import Word, is_conjugate

GENERA = range(4, 11)

SECOND = 1.0  # wall-clock budget for the timed guarantees


@pytest.fixture(scope="module")
def worlds():
    built = {}
    for genus in GENERA:
        registry = standard_registry(SurfaceSpec(genus, 1))
        built[genus] = (registry, derive_generators(registry))
    return built


def random_expression(rng, names, max_len):
    length = rng.randint(1, max_len)
    return tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(length))


def mutants(auto):
    """Three maps that are not onto, whatever ``auto`` is: x1's image
    squared, x1 sent where x2 goes, and x1 sent to the identity."""
    genus, images = auto.genus, auto.images
    for first in (images[0] * images[0], images[1], Word(genus)):
        yield Automorphism(genus, (first,) + images[1:])


def test_key_conjugation_holds_at_every_genus(worlds):
    """phi carries epsilon to zeta, and the zeta twist is exactly the
    phi-conjugate of the inverse epsilon twist, for genus 4 through 10 —
    each check well under a second."""
    for genus, (registry, generators) in worlds.items():
        start = time.perf_counter()
        report = verify_key_conjugation(registry, generators)
        elapsed = time.perf_counter() - start
        assert report.curve_clause_ok, (genus, report.diagnostics)
        assert report.twist_clause_ok, (genus, report.diagnostics)
        assert elapsed < SECOND, f"genus {genus} took {elapsed:.2f}s"


def test_the_generation_certificate_verifies_at_every_genus(worlds):
    """The expression for f stays inside the g+1 advertised twists and
    evaluates to f exactly, for genus 4 through 10."""
    for genus, (_, generators) in worlds.items():
        certificate = standard_certificates(genus)["f"]
        assert set(certificate.allowed) == (
            {f"a{i}" for i in range(1, genus)} | {"b", "e"}
        )
        start = time.perf_counter()
        result = check_certificate(certificate, generators, genus)
        elapsed = time.perf_counter() - start
        assert result.ok, result.diagnostic
        assert elapsed < SECOND, f"genus {genus} took {elapsed:.2f}s"


def test_every_evaluated_twist_expression_is_sound(worlds):
    """Registered twists, their inverses and 200 seeded random expressions
    (length up to 10) all fix the boundary word, and their images generate
    the free group, so each is an automorphism.  Three mutants of each
    expression, none of them onto, are rejected."""
    genus = 4
    _, generators = worlds[genus]
    failures = []
    for name, gen in sorted(generators.items()):
        for label, auto in ((name, gen.auto), (f"{name}^-1", gen.inverse)):
            if not auto.fixes_boundary():
                failures.append(f"{label}: boundary moved")
            try:
                auto.verify_sound()
            except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
                failures.append(f"{label}: {exc}")
    rng = random.Random(1729)
    names = sorted(generators)
    for index in range(200):
        expression = random_expression(rng, names, 10)
        auto = evaluate(expression, generators, genus)
        if not auto.fixes_boundary():
            failures.append(f"expression {index}: boundary moved")
        try:
            auto.verify_sound()
        except Exception as exc:  # noqa: BLE001
            failures.append(f"expression {index}: {exc}")
        for kind, mutant in zip(("squared", "x1 as x2", "x1 killed"), mutants(auto)):
            try:
                mutant.verify_sound()
            except AutomorphismError:
                continue
            failures.append(f"expression {index}: mutant {kind} passed")
    assert failures == []


def test_braid_and_commutation_relations_hold_at_every_genus(worlds):
    """Neighbouring chain twists braid, the b twist braids across its
    crossing, and twists along disjoint curves commute — all verified as
    exact automorphism identities for genus 4 through 10."""
    for genus, (registry, generators) in worlds.items():
        by_curve = {gen.curve.name: name for name, gen in generators.items()}
        for i in range(1, genus - 1):
            p = generators[f"a{i}"].auto
            q = generators[f"a{i + 1}"].auto
            assert p.after(q).after(p).images == q.after(p).after(q).images, (
                f"braid a{i}~a{i + 1} fails at genus {genus}"
            )
        if genus >= 5:
            p = generators["a4"].auto
            q = generators["b"].auto
            assert p.after(q).after(p).images == q.after(p).after(q).images, (
                f"braid a4~b fails at genus {genus}"
            )
        names = registry.names()
        for idx, u in enumerate(names):
            for v in names[idx + 1 :]:
                if intersection_number(registry, u, v) != 0:
                    continue
                p = generators[by_curve[u]].auto
                q = generators[by_curve[v]].auto
                assert p.after(q).images == q.after(p).images, (
                    f"twists along disjoint {u}, {v} fail to commute at genus {genus}"
                )


def test_homology_matrices_are_functorial_units(worlds):
    """On 100 seeded expression pairs the matrix of a composite is the
    product of the matrices, every determinant is +-1, and f's matrix
    equals its certificate expression's matrix."""
    genus = 4
    _, generators = worlds[genus]
    names = sorted(generators)
    rng = random.Random(271828)
    for _ in range(100):
        e1 = random_expression(rng, names, 4)
        e2 = random_expression(rng, names, 4)
        p = evaluate(e1, generators, genus)
        q = evaluate(e2, generators, genus)
        mp, mq = abelianize(p), abelianize(q)
        assert mp.det() in (1, -1)
        assert mq.det() in (1, -1)
        composite = abelianize(p.after(q))
        assert composite.rows == triple_loop(mp.rows, mq.rows)
        assert composite.det() in (1, -1)
    certificate = standard_certificates(genus)["f"]
    direct = abelianize(generators["f"].auto)
    via_expression = abelianize(evaluate(certificate.expression, generators, genus))
    assert direct == via_expression


def test_cutting_the_generating_configuration_leaves_non_disk_pieces():
    """For genus 4-6, closed or with one boundary circle: the chain
    complement is never a union of disks, dropping any single late chain
    curve or epsilon from the generating set reopens the complement, and
    every component census sums to the Euler characteristic of the
    surface.  Each query answers well under a second."""
    for genus in (4, 5, 6):
        for boundary in (0, 1):
            registry = standard_registry(SurfaceSpec(genus, boundary))
            selections = [[f"alpha_{i}" for i in range(1, genus)]]
            for dropped in [f"alpha_{i}" for i in range(4, genus)] + ["epsilon"]:
                selections.append(
                    [name for name in x0_names(genus) if name != dropped]
                )
            for selection in selections:
                start = time.perf_counter()
                report = cut_along(registry, selection)
                elapsed = time.perf_counter() - start
                where = f"genus {genus}, n {boundary}, cut {selection}"
                assert any(
                    c.kind == "complement" and not c.is_disk for c in report.components
                ), where
                assert report.total_euler == 2 - genus - boundary, where
                assert elapsed < SECOND, f"{where} took {elapsed:.2f}s"


def test_conjugacy_agrees_with_brute_force_on_500_random_pairs():
    """The cyclic-word conjugacy decision matches exhaustive search over
    conjugating elements of length up to 4, on 500 seeded pairs of
    length up to 6 at genus 3 — with both outcomes well represented."""
    genus = 3
    rng = random.Random(1729)
    conjugators = enumerate_reduced_words(genus, 4)
    agreements_true = agreements_false = 0
    for _ in range(500):
        u = random_reduced_word(rng, genus, 6)
        if rng.random() < 0.5:
            c = random_reduced_word(rng, genus, 2)
            v = c * u * c.inverse()
        else:
            v = random_reduced_word(rng, genus, 6)
        expected = brute_force_conjugate(u, v, conjugators)
        assert is_conjugate(u, v) == expected, f"u={u}, v={v}"
        agreements_true += expected
        agreements_false += not expected
    assert agreements_true > 100
    assert agreements_false > 100


def test_deliberate_corruptions_are_detected_by_name():
    """Swapped curve words, a flipped arrow in a registry, and a bogus
    certificate are each caught by the matching validator, with a
    diagnostic naming the culprit."""
    registry = standard_registry(SurfaceSpec(4, 1))
    generators = derive_generators(registry)

    # swap two curve words without touching their layouts
    a1, a2 = registry.curve("alpha_1"), registry.curve("alpha_2")
    swapped = registry.replaced(
        type(a1)(name=a1.name, word=a2.word, events=a1.events, arrow=a1.arrow)
    ).replaced(
        type(a2)(name=a2.name, word=a1.word, events=a2.events, arrow=a2.arrow)
    )
    report = validate_registry(swapped)
    assert not report.ok
    named = [f for f in report.failures() if f.subject in ("alpha_1", "alpha_2")]
    assert named, [f"{f.check} {f.subject}" for f in report.failures()]

    # flip one curve's arrow: its derived twist becomes the inverse one,
    # which no longer braids with its neighbour on the chain
    flipped = registry.replaced(
        type(a1)(name=a1.name, word=a1.word, events=a1.events, arrow=-a1.arrow)
    )
    relations = relation_suite(flipped, derive_generators(flipped))
    bad = [f"{c.check} {c.subject}" for c in relations if not c.ok]
    assert "braid a1~a2" in bad, bad

    # a certificate whose expression evaluates to the wrong map
    certificate = standard_certificates(4)["f"]
    bogus = type(certificate)(
        target=certificate.target,
        allowed=certificate.allowed,
        expression="a1 a2 b",
    )
    result = check_certificate(bogus, generators, 4)
    assert not result.ok
    assert "first difference at x" in result.diagnostic

    # and one that escapes its advertised generating set
    escaping = type(certificate)(
        target=certificate.target,
        allowed=("a1", "a2"),
        expression="a1 e a2",
    )
    with pytest.raises(CertificateError, match="outside"):
        check_certificate(escaping, generators, 4)
