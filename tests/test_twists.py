"""Twist automorphisms: derivation, composition, suites, certificates."""

from itertools import product

import pytest

from crosscap import twists
from crosscap.polygon import DegeneratePositionError, apply_images, twist_images
from crosscap.files import parse_registry, registry_text
from crosscap.surface import CheckResult, SurfaceSpec, standard_registry
from crosscap.twists import (
    Automorphism,
    AutomorphismError,
    Certificate,
    CertificateError,
    ExpressionError,
    PHI_EXPRESSION,
    TwistGenerator,
    apply_to_curve,
    check_certificate,
    derive_generator,
    derive_generators,
    equal,
    evaluate,
    first_difference,
    fixing_suite,
    generator_for_curve,
    parse_expression,
    relation_suite,
    standard_certificates,
    verify_key_conjugation,
    _braid_holds,
    _commute_holds,
    _reach,
)
from crosscap.words import CyclicWord, Word

from arc_reference import crosses


@pytest.fixture(scope="module")
def world4():
    reg = standard_registry(SurfaceSpec(4, 1))
    return reg, derive_generators(reg)


def test_identity_automorphism():
    one = Automorphism.identity(3)
    w = Word.parse("x1 x2^-1 x3", 3)
    assert one.apply(w) == w


def test_derive_generators_rejects_an_inverse_that_does_not_undo_the_twist(monkeypatch):
    """The flipped-arrow twist must undo the twist; a curve whose inverse
    does not is named."""
    reg = standard_registry(SurfaceSpec(4, 1))

    def one_arrow(geom, arrow):
        return twist_images(geom, abs(arrow))  # both arrows give the same twist

    monkeypatch.setattr(twists, "twist_images", one_arrow)
    with pytest.raises(ValueError) as exc:
        derive_generators(reg)
    assert isinstance(exc.value.__cause__, AutomorphismError)
    assert str(exc.value) == "curve alpha_1: the twist does not undo its inverse at x1"


def test_the_smallest_twist_is_pinned():
    """The chain twist at genus 2 fixes the global sign convention:
    x1 -> x1^2 x2 and x2 -> x2^-1 x1^-1 x2."""
    reg = standard_registry(SurfaceSpec(2, 1))
    gen = derive_generator(reg, "alpha_1")
    assert gen.auto.images == (
        Word.parse("x1 x1 x2", 2),
        Word.parse("x2^-1 x1^-1 x2", 2),
    )
    round_trip = gen.inverse.apply(gen.auto.apply(Word.parse("x1 x2", 2)))
    assert round_trip == Word.parse("x1 x2", 2)


def test_generator_curve_naming():
    assert generator_for_curve("alpha_3") == "a3"
    assert generator_for_curve("zeta") == "f"
    assert generator_for_curve("alpha_12") == "a12"
    for genus, letters in ((3, ("a1", "a2")), (4, ("a1", "a2", "a3", "b", "c", "e", "f", "y2"))):
        names = standard_registry(SurfaceSpec(genus, 1)).names()
        assert tuple(generator_for_curve(n) for n in names) == letters
    assert standard_certificates(6)["f"].allowed == ("a1", "a2", "a3", "a4", "a5", "b", "e")


def test_derived_generators_fix_the_boundary(world4):
    _, gens = world4
    for gen in gens.values():
        assert gen.auto.fixes_boundary()


def test_composition_applies_rightmost_first(world4):
    _, gens = world4
    a1, a2 = gens["a1"].auto, gens["a2"].auto
    w = Word.parse("x3", 4)
    assert a1.after(a2).apply(w) == a1.apply(a2.apply(w))


def test_composition_substitutes_every_image():
    """Images that are a bare generator are composed by lookup; the result
    is what substituting every image gives."""
    gens = derive_generators(standard_registry(SurfaceSpec(5, 1)))
    autos = [gen.auto for gen in gens.values()] + [gen.inverse for gen in gens.values()]
    bare = [w for auto in autos for w in auto.images if len(w) == 1 and w.letters[0] > 0]
    assert bare and len(bare) < 5 * len(autos)
    # x_i -> x_i^-1 has images of length one that are not bare generators
    autos.append(Automorphism(5, tuple(Word(5, (-i,)) for i in range(1, 6))))
    for p in autos:
        for q in autos:
            pq = p.after(q)
            assert pq.images == tuple(apply_images(p.images, w) for w in q.images)
            pq.verify_sound()


@pytest.mark.parametrize("genus", range(4, 11))
def test_a_generator_after_its_inverse_is_the_identity(genus):
    gens = derive_generators(standard_registry(SurfaceSpec(genus, 1)))
    identity = Automorphism.identity(genus)
    for name in gens:
        assert equal(evaluate(f"{name}^-1 {name}", gens, genus), identity), name
        assert equal(evaluate(f"{name} {name}^-1", gens, genus), identity), name


def test_parse_expression_grammar():
    names = ("a1", "a2", "b")
    assert parse_expression("a1 a2^-1  b", names) == (
        ("a1", 1),
        ("a2", -1),
        ("b", 1),
    )
    with pytest.raises(ExpressionError, match="token 2"):
        parse_expression("a1 q7", names)
    # the empty product is the identity
    assert parse_expression("   ", names) == ()


def test_evaluate_cancels_inverses(world4):
    _, gens = world4
    assert equal(evaluate("a1 a1^-1", gens, 4), Automorphism.identity(4))


def test_evaluate_names_the_factor_count_past_the_letter_budget(world4, monkeypatch):
    # the 8 factors push at most 3,289 letters in one substitution and
    # build images of 449, 487, 231 and 435 letters
    from crosscap import polygon

    _, gens = world4
    expression = "a1 b a2 e^-1 f a3 b^-1 e"
    whole = evaluate(expression, gens, 4)
    monkeypatch.setattr(polygon, "MAX_IMAGE_LETTERS", 3289)
    assert equal(evaluate(expression, gens, 4), whole)
    monkeypatch.setattr(polygon, "MAX_IMAGE_LETTERS", 3288)
    with pytest.raises(polygon.LetterBudgetError) as exc:
        evaluate(expression, gens, 4)
    assert str(exc.value) == (
        "the images of an expression of 8 factors grow past the bound "
        "MAX_IMAGE_LETTERS = 3288 letters"
    )


def test_braid_relation_as_expressions(world4):
    _, gens = world4
    lhs = evaluate("a1 a2 a1", gens, 4)
    rhs = evaluate("a2 a1 a2", gens, 4)
    assert equal(lhs, rhs)
    assert first_difference(lhs, rhs) is None


def test_first_difference_names_a_generator(world4):
    _, gens = world4
    where = first_difference(gens["a1"].auto, gens["a2"].auto)
    assert where == "x1"


def test_disjoint_twists_commute(world4):
    _, gens = world4
    lhs = evaluate("a1 a3", gens, 4)
    rhs = evaluate("a3 a1", gens, 4)
    assert equal(lhs, rhs)


@pytest.mark.parametrize("genus", [4, 5, 6])
def test_relation_and_fixing_suites_are_clean(genus):
    reg = standard_registry(SurfaceSpec(genus, 1))
    gens = derive_generators(reg)
    for result in fixing_suite(reg, gens) + relation_suite(reg, gens):
        assert result.ok


def test_derive_generators_names_a_curve_that_cannot_be_twisted():
    # this ordering of epsilon's crossings, with the word it spells, gives
    # chords that cross
    lines = registry_text(standard_registry(SurfaceSpec(4, 1))).splitlines()
    (row,) = [i for i, line in enumerate(lines) if line.startswith("epsilon |")]
    name, _, _, arrow = lines[row].split(" | ")
    word = "x2 x2 x3 x3 x4^-1 x3^-1 x3^-1 x2^-1 x3^-1 x2^-1 x2^-1 x1^-1"
    lines[row] = " | ".join((name, word, "A1-,A4-,A2-,A3-", arrow))
    reg = parse_registry(SurfaceSpec(4, 1), "\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        derive_generators(reg)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"curve epsilon: {exc.value.__cause__}"
    assert str(exc.value).startswith(
        "curve epsilon: cannot twist along a curve whose chords cross ("
    )


@pytest.mark.parametrize("genus", [4, 5, 6, 7])
def test_relation_checks_equal_their_definitions(genus):
    """The image-only checks agree with composing whole automorphisms,
    on pairs where the relation holds and on pairs where it fails."""
    gens = derive_generators(standard_registry(SurfaceSpec(genus, 1)))
    autos = [gen.auto for gen in gens.values()]
    outcomes = set()
    for p in autos:
        for q in autos:
            commute = equal(p.after(q), q.after(p))
            braid = equal(p.after(q).after(p), q.after(p).after(q))
            where = _reach(p)[0] | _reach(q)[0]
            assert _commute_holds(p, q, where) == commute
            assert _braid_holds(p, q, where) == braid
            outcomes |= {("commute", commute), ("braid", braid)}
    assert outcomes == {(kind, ok) for kind in ("commute", "braid") for ok in (True, False)}


def test_relation_suite_braids_chain_with_beta_from_genus_five():
    reg5 = standard_registry(SurfaceSpec(5, 1))
    checks5 = relation_suite(reg5, derive_generators(reg5))
    assert any(
        c.check == "braid" and set(c.subject.split("~")) == {"a4", "b"}
        for c in checks5
    )
    reg4 = standard_registry(SurfaceSpec(4, 1))
    checks4 = relation_suite(reg4, derive_generators(reg4))
    assert not any("b" in c.subject.split("~") and c.check == "braid" for c in checks4)


def dense_relation_suite(registry, generators):
    """relation_suite with no shortcut: each pair's crossings from crosses
    on every chord pair, and each relation decided by composing whole maps."""
    results = []
    pairs = [(f"a{i}", f"a{i + 1}") for i in range(1, registry.spec.genus - 1)]
    for p, q in pairs + [("a4", "b")]:
        if p in generators and q in generators:
            s, t = generators[p].auto, generators[q].auto
            across = "across the crossing pair" if q == "b" else "on neighbouring chain curves"
            holds = s.after(t).after(s) == t.after(s).after(t)
            results.append(CheckResult("braid", f"{p}~{q}", holds, f"t p t = p t p {across}"))
    by_curve = {gen.curve.name: gen for gen in generators.values()}
    names = [n for n in registry.names() if n in by_curve]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            chords = product(registry.geometry(a).chords, registry.geometry(b).chords)
            try:
                if sum(crosses(u, v) for u, v in chords):
                    continue
            except DegeneratePositionError as exc:
                results.append(CheckResult("commute", f"{a}~{b}", False, f"degenerate: {exc}"))
                continue
            s, t = by_curve[a].auto, by_curve[b].auto
            subject = f"{generator_for_curve(a)}~{generator_for_curve(b)}"
            holds = s.after(t) == t.after(s)
            detail = "disjoint curves, twists must commute"
            results.append(CheckResult("commute", subject, holds, detail))
    return results


@pytest.mark.parametrize("genus", range(4, 31))
def test_relation_suite_is_the_dense_suite(genus):
    registry = standard_registry(SurfaceSpec(genus, genus % 2))
    generators = derive_generators(registry)
    assert relation_suite(registry, generators) == dense_relation_suite(registry, generators)


def edited_registry(genus, edit):
    """A standard one-boundary registry with each curve's row ``name | word |
    coords | arrow`` passed through edit."""
    spec = SurfaceSpec(genus, 1)
    text = registry_text(standard_registry(spec))
    lines = [
        line if line.startswith("#") else edit(*line.split(" | ")) for line in text.splitlines()
    ]
    return parse_registry(spec, "\n".join(lines) + "\n")


def flip_gamma(name, word, coords, arrow):
    """c becomes the inverse twist, and every relation still holds."""
    flipped = {"+1": "-1", "-1": "+1"}[arrow]
    return " | ".join((name, word, coords, flipped if name == "gamma" else arrow))


def share_an_endpoint(name, word, coords, arrow):
    """alpha_1 and alpha_2 both cross pair 2 once, on one fallback parameter."""
    coords = {"alpha_1": "A1-,A2-", "alpha_2": "A2-,A3-"}.get(name, coords)
    return " | ".join((name, word, coords, arrow))


@pytest.mark.parametrize(
    "genus, edit, degenerate",
    [(6, flip_gamma, []), (4, share_an_endpoint, ["alpha_1~alpha_2"])],
    ids=["flipped-gamma", "shared-endpoint"],
)
def test_relation_suite_is_the_dense_suite_on_edited_registries(genus, edit, degenerate):
    registry = edited_registry(genus, edit)
    generators = derive_generators(registry)
    results = relation_suite(registry, generators)
    assert results == dense_relation_suite(registry, generators)
    assert [r.subject for r in results if r.detail.startswith("degenerate")] == degenerate


# -- the key conjugation ---------------------------------------------------


def test_conjugate_of_epsilon_is_zeta(world4):
    reg, gens = world4
    image = apply_to_curve(reg, gens, PHI_EXPRESSION, "epsilon")
    zeta = CyclicWord.of(reg.curve("zeta").word)
    assert image.unoriented() == zeta.unoriented()
    assert len(image.letters) == 6


@pytest.mark.parametrize("genus", [4, 5, 7])
def test_key_conjugation_holds(genus):
    reg = standard_registry(SurfaceSpec(genus, 1))
    gens = derive_generators(reg)
    assert verify_key_conjugation(reg, gens) == ()


def test_key_conjugation_diagnostics_name_the_failure(world4):
    reg, gens = world4
    broken = dict(gens)
    broken["f"] = TwistGenerator("f", gens["f"].curve, gens["a1"].auto, gens["a1"].inverse)
    faults = verify_key_conjugation(reg, broken)
    assert faults
    assert any("x" in d for d in faults)


# -- certificates ------------------------------------------------------------


def test_standard_certificate_for_f_verifies(world4):
    _, gens = world4
    certs = standard_certificates(4)
    assert set(certs) == {"f"}
    fault = check_certificate(certs["f"], gens, 4)
    assert fault is None, fault


def test_bogus_certificate_reports_first_difference(world4):
    _, gens = world4
    bogus = Certificate(target="a1", allowed=("a1", "a2"), expression="a2")
    fault = check_certificate(bogus, gens, 4)
    assert fault is not None
    assert "first difference at x1" in fault


def test_certificate_rejects_escaping_generators(world4):
    _, gens = world4
    leaky = Certificate(target="f", allowed=("a1", "b"), expression="a1 e b")
    with pytest.raises(CertificateError, match="outside.*e"):
        check_certificate(leaky, gens, 4)


def test_certificate_unknown_target(world4):
    _, gens = world4
    stray = Certificate(target="q9", allowed=("a1",), expression="a1")
    with pytest.raises(CertificateError, match="q9"):
        check_certificate(stray, gens, 4)

