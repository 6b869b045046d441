"""Data files written from the constructions read back to the same objects.

Registry and certificate files are how external data enters the engine
(``--registry``, ``--certificates`` and ``$MCG_DATA_DIR``); twists are
always derived from the registry.  These tests take each file kind
through the round trip a user's file goes through: write the text, parse
it, and run the check the command line runs on it.
"""

from functools import lru_cache

import pytest

from crosscap.cli import DATA_DIR_ENV, main
from crosscap.files import parse_certificates, parse_registry, registry_text
from crosscap.surface import SurfaceSpec, standard_registry, validate_registry
from crosscap.twists import check_certificate, derive_generators, standard_certificates

GENERA = range(4, 11)


def certificates_text(certificates):
    """A certificate file in the format ``parse_certificates`` reads."""
    lines = ["# certificates: target | allowed generators | expression"]
    for cert in certificates.values():
        lines.append(f"{cert.target} | {','.join(cert.allowed)} | {cert.expression}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def derived(genus):
    registry = standard_registry(SurfaceSpec(genus, 1))
    return registry, derive_generators(registry)


@pytest.mark.parametrize("genus", GENERA)
def test_registry_file_matches_the_construction(genus):
    registry, _ = derived(genus)
    text = registry_text(registry)
    parsed = parse_registry(SurfaceSpec(genus, 1), text)
    assert registry_text(parsed) == text
    assert validate_registry(parsed).ok


@pytest.mark.parametrize("genus", GENERA)
def test_certificate_file_matches_the_construction(genus):
    _, generators = derived(genus)
    certificates = standard_certificates(genus)
    parsed = parse_certificates(certificates_text(certificates))
    assert parsed == certificates
    assert check_certificate(parsed["f"], generators, genus) is None


def test_written_files_load_and_validate_end_to_end(tmp_path, monkeypatch, capsys):
    """Write the genus-7 files into ``$MCG_DATA_DIR`` and run the command
    line on them: the certificate is checked against the twists derived
    from the loaded registry and every stage passes."""
    genus = 7
    registry, _ = derived(genus)
    files = {
        "registry": registry_text(registry),
        "certificates": certificates_text(standard_certificates(genus)),
    }
    for kind, text in files.items():
        (tmp_path / f"{kind}_g{genus}.txt").write_text(text, encoding="utf-8")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))

    assert main(["validate-data", "--genus", str(genus)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] certificates: targets: f" in out

    assert main(["verify-theorem", "--genus", str(genus), "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert f"verify-theorem: PASS (genus {genus}, n 1)" in out
