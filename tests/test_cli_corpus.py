"""Pinned outputs of the ``crosscap`` command line over a fixed grid.

Each group hashes (argv, exit code, stdout, stderr) of every invocation
in it, run in process through ``main``.  Temporary paths read as
``<tmp>``.  The digests were recorded before the subcommands' options
were scoped to the ones each reads, so any change to the front end must
leave every valid invocation byte-identical.  The relation, apply-curve,
homology and data-files digests were recorded again when closed-surface
answers began to say that they hold on the bordered model: a relation
UNEQUAL at ``--n 0`` is undecided on N_g and exits 3, and apply-curve and
homology print a note on stderr there.
"""

import hashlib

import pytest

from crosscap.cli import DATA_DIR_ENV, main
from crosscap.surface import SurfaceSpec, registry_text, standard_registry
from crosscap.twists import standard_certificates

TMP = "<tmp>"
FORMATS = ("text", "structured")
F_EXPRESSION = "a3^-1 a2^-1 b a1^-1 a2^-1 a3^-1 e^-1 a3 a2 a1 b^-1 a2 a3"


def surfaces(genera):
    for genus in genera:
        for n in (0, 1):
            for fmt in FORMATS:
                yield ("--genus", str(genus), "--n", str(n), "--format", fmt)


def verify_theorem_cases():
    for common in surfaces(range(4, 21)):
        yield ("verify-theorem", *common)
        yield ("verify-theorem", *common, "--seed", "7")


def validate_data_cases():
    for common in surfaces(range(4, 21)):
        yield ("validate-data", *common)


def relation_cases():
    pairs = [
        ("a1 a2 a1", "a2 a1 a2"),
        ("a1", "a2"),
        ("a1^-1 a1", ""),
        ("f", F_EXPRESSION),
        ("a1", "q7 a1"),
    ]
    for common in surfaces((2, 4, 9, 20)):
        for lhs, rhs in pairs:
            yield ("relation", *common, lhs, rhs)


def apply_curve_cases():
    samples = [
        ("a1", "alpha_1"),
        ("a1 a2", "alpha_3"),
        ("a3^-1 a2^-1 b a1^-1 a2^-1 a3^-1", "epsilon"),
        ("b^-1 e", "beta"),
        ("a1", "omega"),
    ]
    for common in surfaces((2, 4, 7, 12)):
        for expression, curve in samples:
            yield ("apply-curve", *common, expression, curve)


def homology_cases():
    for common in surfaces((2, 4, 7, 12)):
        for expression in ("a1", "a1 b^-1", "", "f", "a2 x9"):
            yield ("homology", *common, expression)


def complement_cases():
    selections = [
        ("--curves", "X0"),
        ("--curves", "X0", "--drop", "epsilon"),
        ("--curves", "alpha1..alpha4"),
        ("--curves", ""),
        ("--curves", "beta,alpha_2"),
        ("--curves", "alpha1", "--drop", "beta"),
    ]
    for common in surfaces((3, 5, 8, 15)):
        for selection in selections:
            yield ("complement", *common, *selection)


DATA_COMMANDS = [
    ("verify-theorem",),
    ("validate-data",),
    ("relation", "a1 a2 a1", "a2 a1 a2"),
    ("apply-curve", "a1 a2", "alpha_3"),
    ("homology", "a1 b^-1"),
    ("complement", "--curves", "X0"),
]
REGISTRY_FILES = ("registry.txt", "flipped.txt", "not-utf8.txt", "missing.txt")
CERTIFICATE_FILES = ("certs.txt", "failing.txt", "not-utf8.txt", "missing.txt")


def data_file_cases():
    for common in surfaces((4,)):
        for command in DATA_COMMANDS:
            for name in REGISTRY_FILES:
                yield (*command, *common, "--registry", f"{TMP}/{name}")
        for command in DATA_COMMANDS[:2]:
            for name in CERTIFICATE_FILES:
                yield (*command, *common, "--certificates", f"{TMP}/{name}")


def write_data_files(root):
    """The registry and certificate files that ``data_file_cases`` names
    (``missing.txt`` stays absent)."""
    lines = registry_text(standard_registry(SurfaceSpec(4, 1))).splitlines()
    (root / "registry.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (row,) = [i for i, line in enumerate(lines) if line.startswith("zeta |")]
    lines[row] = lines[row][: -len("-1")] + "+1"
    (root / "flipped.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "not-utf8.txt").write_bytes(b"\xff" + (root / "registry.txt").read_bytes())
    cert = standard_certificates(4)["f"]
    (root / "certs.txt").write_text(
        f"f | {','.join(cert.allowed)} | {cert.expression}\n", encoding="utf-8"
    )
    (root / "failing.txt").write_text("f | a1,a2,a3,b,e | a1\n", encoding="utf-8")


GROUPS = {
    "verify-theorem": (verify_theorem_cases, 136),
    "validate-data": (validate_data_cases, 68),
    "relation": (relation_cases, 80),
    "apply-curve": (apply_curve_cases, 80),
    "homology": (homology_cases, 80),
    "complement": (complement_cases, 96),
    "data-files": (data_file_cases, 128),
}

# sha256 over every (argv, exit code, stdout, stderr) of one group
CLI_DIGESTS = {
    "apply-curve": "543464ba30c93cd1fbdad3d2e7ba3cd5d3bd51caf6dabb86c7f7f73c392642ea",
    "complement": "6e85eb480e7255bb0ddf691199dd88fcbab6cfd7778c73412769f29c615e14db",
    "data-files": "eb15caf7c9f3dbefa2aea43eef2e7e0c91f0d30701b98c96fdbee9b33c87a162",
    "homology": "9eb99c3b3052bd6a0d682082ff6f13035bcf21d1e53ff2785aee97c894ff6015",
    "relation": "dc1b8ffa8ebe5599a5139944a2389373be503699ff7df7042e32a8131ad1c59f",
    "validate-data": "6c4db1a1d69848bc698f36bb1b9b6d6dd3db79bd5b81458b39371dd5ab3a1a7e",
    "verify-theorem": "51494e6aa5e931ec4802c9a90fce4f75dc6235e871364023c64173c77316f22b",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cli_outputs_match_the_pinned_corpus(group, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    write_data_files(tmp_path)
    cases, count = GROUPS[group]
    digest = hashlib.sha256()
    runs = 0
    for argv in cases():
        code = main([arg.replace(TMP, str(tmp_path)) for arg in argv])
        captured = capsys.readouterr()
        out, err = (text.replace(str(tmp_path), TMP) for text in (captured.out, captured.err))
        digest.update(repr((argv, code, out, err)).encode() + b"\n")
        runs += 1
    assert runs == count
    assert digest.hexdigest() == CLI_DIGESTS[group]
