"""Curve registry: construction, validation, and the file format."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from crosscap import surface
from crosscap.polygon import SIDE, Event, crossing_count, spell_cyclic
from crosscap.surface import (
    MAX_GENUS,
    MIN_RICH_GENUS,
    CurveRecord,
    Registry,
    RegistryFormatError,
    SurfaceSpec,
    UnknownCurveError,
    canonical_curve_name,
    chain_index,
    parse_registry,
    registry_text,
    standard_registry,
    validate_registry,
    x0_names,
    _fallback_params,
    _frozen_layouts,
    _grid,
)
from crosscap.words import MAX_PARSED_LETTERS, CyclicWord, Word


def test_surface_spec_invariants():
    with pytest.raises(ValueError):
        SurfaceSpec(1, 1)
    with pytest.raises(ValueError):
        SurfaceSpec(4, 2)


def test_surface_spec_bounds_the_genus():
    # the pinned twist corpus runs up to genus 30, the benchmark ladder to 20
    assert MAX_GENUS >= 30
    assert SurfaceSpec(MAX_GENUS, 1).genus == MAX_GENUS
    with pytest.raises(ValueError) as exc:
        SurfaceSpec(MAX_GENUS + 1, 0)
    assert str(exc.value) == (
        f"genus {MAX_GENUS + 1} is above the bound MAX_GENUS = {MAX_GENUS}"
    )


@pytest.mark.parametrize(
    "raw, canon",
    [
        ("alpha_3", "alpha_3"),
        ("alpha3", "alpha_3"),
        ("alpha10", "alpha_10"),
        ("beta", "beta"),
        ("EPSILON", "epsilon"),
        ("alpha_0", None),
        ("alpha", None),
        ("x1", None),
    ],
)
def test_canonical_curve_names(raw, canon):
    assert canonical_curve_name(raw) == canon
    assert chain_index(raw) == (int(canon[6:]) if canon and canon.startswith("alpha") else None)


def test_small_genus_registry_has_only_the_chain():
    reg = standard_registry(SurfaceSpec(3, 1))
    assert reg.names() == ("alpha_1", "alpha_2")
    with pytest.raises(UnknownCurveError, match="genus"):
        reg.curve("beta")


def test_rich_registry_contents():
    reg = standard_registry(SurfaceSpec(4, 1))
    assert reg.names() == (
        "alpha_1",
        "alpha_2",
        "alpha_3",
        "beta",
        "gamma",
        "epsilon",
        "zeta",
        "psi",
    )
    # name normalisation goes through curve()
    assert reg.curve("alpha2") is reg.curve("alpha_2")
    with pytest.raises(UnknownCurveError, match="registered"):
        reg.curve("delta")


def test_chain_curve_words():
    reg = standard_registry(SurfaceSpec(6, 1))
    for i in range(1, 6):
        assert reg.curve(f"alpha_{i}").word == Word.parse(f"x{i} x{i + 1}", 6)


def test_sporadic_curve_words_are_genus_stable():
    """The four-pair layouts spell the same letters at every genus."""
    for g in (4, 6, 9):
        reg = standard_registry(SurfaceSpec(g, 1))
        assert list(reg.curve("beta").word.letters) == [-4, -3, -2, 1, 2, 2, 3, 3, 4, 4]
        assert list(CyclicWord.of(reg.curve("zeta").word).letters) == [2, 3, 4, 3, 4, 4]
        assert list(reg.curve("epsilon").word.letters) == [
            2, 3, 3, -4, -4, -3, -3, -2, -2, -1,
        ]


def test_registered_curves_are_two_sided():
    reg = standard_registry(SurfaceSpec(5, 1))
    for name in reg.names():
        rec = reg.curve(name)
        assert sum(rec.word.exponent_vector()) % 2 == 0
        assert len(rec.events) % 2 == 0
        assert reg.geometry(name).is_two_sided()


def test_geometry_is_cached():
    reg = standard_registry(SurfaceSpec(4, 1))
    assert reg.geometry("alpha_1") is reg.geometry("alpha_1")


def test_lookups_by_alias_or_unknown_name_resolve_or_raise_by_name():
    """Registry keys, which must be canonical names, are looked up as given;
    every other name is canonicalised first, so aliases resolve and unknown
    names raise."""
    reg = standard_registry(SurfaceSpec(4, 1))
    for alias, name in [("BETA", "beta"), ("alpha1", "alpha_1"), (" Epsilon ", "epsilon")]:
        assert reg.curve(alias) is reg.curve(name)
        assert reg.geometry(alias) is reg.geometry(name)
    registered = ", ".join(reg.names())
    for name, message in [
        ("delta", f"unknown curve name 'delta'; registered: {registered}"),
        ("alpha_1 x", f"unknown curve name 'alpha_1 x'; registered: {registered}"),
        ("alpha7", "curve alpha_7 needs genus >= 8; this surface has genus 4"),
    ]:
        for lookup in (reg.curve, reg.geometry):
            with pytest.raises(UnknownCurveError) as caught:
                lookup(name)
            assert str(caught.value) == message
    # a hand-built registry must file every record under its canonical name
    rec = reg.curve("zeta")
    for key, message in [
        ("Zeta", "record filed under 'Zeta', not under its canonical name 'zeta'"),
        ("delta", "record filed under 'delta', which is no curve name"),
    ]:
        with pytest.raises(ValueError) as caught:
            Registry(reg.spec, {key: CurveRecord(key, rec.word, rec.events, rec.arrow)})
        assert str(caught.value) == message


@pytest.mark.parametrize("genus", [4, 5, 6, 8])
def test_standard_registry_validates_clean(genus):
    report = validate_registry(standard_registry(SurfaceSpec(genus, 1)))
    assert report.ok
    assert not report.failures()
    # both per-curve and pairwise checks actually ran
    checks = {r.check for r in report.results}
    assert "embedded" in checks
    assert "word-coordinates" in checks
    assert "homology" in checks
    assert "intersection" in checks


def test_swapped_word_is_flagged_with_the_curve_name():
    """Planting alpha_3's word on alpha_2 must produce a named failure, and
    a one-sided word a failed parity; the details are pinned."""
    reg = standard_registry(SurfaceSpec(5, 1))
    own = reg.curve("alpha_2")

    def alpha_2_results(word):
        forged = CurveRecord("alpha_2", word, own.events, own.arrow)
        report = validate_registry(reg.replaced(forged))
        assert not report.ok
        failures = report.failures()
        assert any(f.subject == "alpha_2" for f in failures)
        assert any(f.check in ("word-coordinates", "homology") for f in failures)
        return {r.check: (r.ok, r.detail) for r in report.results if r.subject == "alpha_2"}

    results = alpha_2_results(reg.curve("alpha_3").word)
    assert results["homology"] == (
        False,
        "mod-2 class (0, 0, 1, 1, 0), standard picture demands (0, 1, 1, 0, 0)",
    )
    assert results["two-sided-parity"] == (True, "exponent sum parity 0, crossing parity 0")
    # one x2 and a pair of x3: a one-sided class
    results = alpha_2_results(Word(5, (2, 3, 3)))
    assert results["homology"] == (
        False,
        "mod-2 class (0, 1, 0, 0, 0), standard picture demands (0, 1, 1, 0, 0)",
    )
    assert results["two-sided-parity"] == (False, "exponent sum parity 1, crossing parity 0")


def test_x0_names():
    assert x0_names(4) == ("alpha_1", "alpha_2", "alpha_3", "beta", "epsilon")
    assert len(x0_names(10)) == 11
    with pytest.raises(ValueError, match="genus >= 4"):
        x0_names(3)


# -- file format ---------------------------------------------------------


def test_registry_text_round_trip():
    reg = standard_registry(SurfaceSpec(6, 1))
    assert parse_registry(SurfaceSpec(6, 1), registry_text(reg)) == reg


def test_parse_registry_builds_the_frozen_layouts_once(monkeypatch):
    spec = SurfaceSpec(12, 1)
    reg = standard_registry(spec)
    text = registry_text(reg)
    built = []
    layouts = surface._frozen_layouts
    monkeypatch.setattr(surface, "_frozen_layouts", lambda genus: built.append(genus) or layouts(genus))
    assert parse_registry(spec, text) == reg
    assert built == [12]


def test_parse_registry_accepts_trailing_comments():
    text = "alpha_1 | x1 x2 | A1+,A2+ | +1  # the first chain curve\n"
    reg = parse_registry(SurfaceSpec(3, 1), text)
    assert reg.names() == ("alpha_1",)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("alpha_1 | x1 x2 | A1+,A2+", "4 '|'-separated fields"),
        ("delta | x1 x2 | A1+,A2+ | +1", "unknown curve name"),
        ("alpha_1 | x1 x2 | A1+,A2+ | +2", "arrow"),
        ("beta | x1 x2 | A1+,A2+ | +1", "genus"),
        ("alpha_1 | x9 x2 | A1+,A2+ | +1", "x9"),
        ("alpha_1 | x1 x2 | A7+,A2+ | +1", "A7+"),
    ],
)
def test_parse_registry_rejects_bad_lines(line, fragment):
    with pytest.raises(RegistryFormatError, match="line 1") as err:
        parse_registry(SurfaceSpec(3, 1), line + "\n")
    assert fragment in str(err.value)


def test_a_registry_word_past_the_letter_bound_names_its_line():
    k = MAX_PARSED_LETTERS + 1
    text = f"alpha_1 | x1 x2 | A1+,A2+ | +1\nalpha_2 | x2^{k} | A2+,A3+ | +1\n"
    with pytest.raises(RegistryFormatError) as err:
        parse_registry(SurfaceSpec(3, 1), text)
    assert str(err.value) == (
        f"line 2: word token 'x2^{k}' takes the word past {MAX_PARSED_LETTERS} letters"
    )


def test_parse_registry_rejects_duplicates():
    text = "alpha_1 | x1 x2 | A1+,A2+ | +1\nalpha_1 | x1 x2 | A1+,A2+ | +1\n"
    with pytest.raises(RegistryFormatError, match="line 2.*duplicate"):
        parse_registry(SurfaceSpec(3, 1), text)


def test_foreign_coordinates_get_fresh_parameters():
    """A record whose coordinates differ from the built-in layout still
    reconstructs: crossing parameters are drawn from a reserved zone so
    they cannot collide with any shipped curve."""
    text = "alpha_1 | x2 x3 | A2+,A3+ | +1\n"
    reg = parse_registry(SurfaceSpec(5, 1), text)
    rec = reg.curve("alpha_1")
    assert [e.pair for e in rec.events] == [2, 3]
    for event in rec.events:
        assert Fraction(7, 10) < Fraction(event.t, SIDE) < Fraction(19, 20)
    geom = reg.geometry("alpha_1")
    assert geom.self_crossing_count() == 0
    assert spell_cyclic(5, geom.events).letters in ((2, 3), (-3, -2))


def test_fallback_parameters_order_as_the_rational_ones():
    """Up to 16 crossings of one pair, the grid fallback parameters sort
    among themselves and against every frozen parameter exactly as the
    rational 7/10 + (2j+1)/(8m) they stand for."""
    frozen = {ev.t for events, _ in _frozen_layouts(MIN_RICH_GENUS).values() for ev in events}
    # (exact value, grid parameter); a frozen parameter is exact on the grid
    values = [(Fraction(t, SIDE), t) for t in frozen]
    for m in range(1, 17):
        params = _fallback_params([(1, True)] * m)
        values += [(Fraction(7, 10) + Fraction(2 * j + 1, 8 * m), t) for j, t in enumerate(params)]
    for (x, s), (y, t) in combinations(values, 2):
        assert (x < y, x == y) == (s < t, s == t), (x, y)


def test_a_layout_parameter_off_the_grid_is_an_error():
    assert Fraction(_grid(203, 256), SIDE) == Fraction(203, 256)
    with pytest.raises(ValueError, match="1/7 is not on the grid"):
        _grid(1, 7)


def test_frozen_coordinates_survive_the_round_trip_exactly():
    reg = standard_registry(SurfaceSpec(4, 1))
    parsed = parse_registry(SurfaceSpec(4, 1), registry_text(reg))
    for name in reg.names():
        assert parsed.curve(name).events == reg.curve(name).events


def test_replaced_rejects_foreign_names():
    reg = standard_registry(SurfaceSpec(4, 1))
    other = standard_registry(SurfaceSpec(5, 1)).curve("alpha_4")
    with pytest.raises(UnknownCurveError):
        reg.replaced(other)


def test_event_ordering_is_the_registry_contract():
    """Events are stored in traversal order; the spelled class must match
    the registered word for every shipped curve and genus."""
    for g in (4, 7):
        reg = standard_registry(SurfaceSpec(g, 1))
        for name in reg.names():
            rec = reg.curve(name)
            assert CyclicWord.of(rec.word) == CyclicWord.of(spell_cyclic(g, rec.events))


# -- the crossing-count matrix -------------------------------------------------

# Nonzero chord crossing counts between the standard layouts; every other
# pair is disjoint.  These are counts of the layouts as placed, not
# geometric intersection numbers: alpha_1/epsilon, alpha_1/zeta,
# alpha_2/zeta, beta/epsilon, beta/zeta and epsilon/zeta are not in
# minimal position.
_CROSSINGS_G4 = {
    ("alpha_1", "alpha_2"): 1,
    ("alpha_1", "epsilon"): 2,
    ("alpha_1", "zeta"): 3,
    ("alpha_2", "alpha_3"): 1,
    ("alpha_2", "epsilon"): 1,
    ("alpha_2", "zeta"): 5,
    ("alpha_2", "psi"): 2,
    ("alpha_3", "epsilon"): 2,
    ("alpha_3", "zeta"): 1,
    ("beta", "epsilon"): 4,
    ("beta", "zeta"): 4,
    ("beta", "psi"): 2,
    ("epsilon", "zeta"): 7,
    ("epsilon", "psi"): 2,
    ("zeta", "psi"): 2,
}
_CROSSINGS_G6 = {
    **_CROSSINGS_G4,
    ("alpha_3", "alpha_4"): 1,
    ("alpha_4", "alpha_5"): 1,
    ("alpha_4", "beta"): 1,
    ("alpha_4", "gamma"): 2,
    ("alpha_4", "epsilon"): 2,
    ("alpha_4", "zeta"): 3,
}

#: sha256 over the lines "<genus> <a> <b> <count>\n" of every pair, for
#: g = 4..20 and 30
_CROSSINGS_DIGEST = "923df7ffa7939bd8fff51b1212cea0fe0523b28adc36c46aa50830468e66345a"


def _crossing_matrix(genus):
    registry = standard_registry(SurfaceSpec(genus, 1))
    names = registry.names()
    return {
        (a, b): crossing_count(registry.geometry(a), registry.geometry(b))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }


@pytest.mark.parametrize("genus, nonzero", [(4, _CROSSINGS_G4), (6, _CROSSINGS_G6)])
def test_standard_crossing_counts_are_pinned(genus, nonzero):
    matrix = _crossing_matrix(genus)
    assert set(nonzero) <= set(matrix)
    assert matrix == {pair: nonzero.get(pair, 0) for pair in matrix}


def test_standard_crossing_counts_digest_is_pinned():
    digest = hashlib.sha256()
    for genus in [*range(4, 21), 30]:
        for (a, b), count in _crossing_matrix(genus).items():
            digest.update(f"{genus} {a} {b} {count}\n".encode())
    assert digest.hexdigest() == _CROSSINGS_DIGEST
