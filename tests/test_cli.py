"""End-to-end command-line behaviour, driven through ``main(argv)``."""

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import crosscap
from crosscap import cli
from crosscap.cli import DATA_DIR_ENV, main
from crosscap.files import registry_text
from crosscap.polygon import SIDE, Event, spell_cyclic
from crosscap.surface import MAX_GENUS, CurveRecord, SurfaceSpec, standard_registry
from crosscap.twists import TwistGenerator
from crosscap.words import MAX_PARSED_LETTERS

F_EXPRESSION = "a3^-1 a2^-1 b a1^-1 a2^-1 a3^-1 e^-1 a3 a2 a1 b^-1 a2 a3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify-theorem ------------------------------------------------------


def test_verify_theorem_passes_at_genus_four(capsys):
    code, out, err = run(capsys, "verify-theorem", "--genus", "4", "--n", "1")
    assert code == 0
    assert "[PASS] registry-validation" in out
    assert "[PASS] twist-suite" in out
    assert "[PASS] key-conjugation" in out
    assert "[PASS] certificate-f" in out
    assert "[PASS] homology-smoke" in out
    assert out.rstrip().endswith("verify-theorem: PASS (genus 4, n 1)")
    assert err == ""


def test_verify_theorem_skips_absent_optional_certificates(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--genus", "4", "--n", "1")
    assert code == 0
    assert "[SKIP] certificate-c: no certificate provided" in out
    assert "[SKIP] certificate-y2: no certificate provided" in out


def test_verify_theorem_structured_output_is_byte_stable(capsys):
    argv = ("verify-theorem", "--genus", "4", "--n", "1", "--format", "structured")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "stage=registry-validation status=PASS"
    assert "stage=certificate-c status=SKIPPED" in lines
    assert lines[-1] == "result=PASS"


def test_verify_theorem_passes_at_the_genus_bound(capsys):
    # the lines the benchmark's theorem-ladder expects at every rung
    argv = ("verify-theorem", "--genus", str(MAX_GENUS), "--n", "1", "--format", "structured")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "stage=registry-validation status=PASS",
        "stage=twist-suite status=PASS",
        "stage=key-conjugation status=PASS",
        "stage=certificate-f status=PASS",
        "stage=certificate-c status=SKIPPED",
        "stage=certificate-y2 status=SKIPPED",
        "stage=homology-smoke status=PASS",
        "result=PASS",
    ]


@pytest.mark.parametrize(
    "genus, curves, checks, identities",
    [(4, 8, 42, 31), (10, 14, 111, 103), (20, 24, 306, 308)],
)
def test_verify_theorem_text_verdict_is_pinned(capsys, genus, curves, checks, identities):
    # the counts pin how many checks run: a dropped check must not PASS
    allowed = ", ".join([f"a{i}" for i in range(1, genus)] + ["b", "e"])
    code, out, err = run(capsys, "verify-theorem", "--genus", str(genus), "--n", "1")
    assert code == 0
    assert err == ""
    assert out == (
        f"[PASS] registry-validation: {curves} curves, {checks} checks\n"
        f"[PASS] twist-suite: {identities} identities\n"
        "[PASS] key-conjugation: curve clause and twist clause hold\n"
        f"[PASS] certificate-f: expression stays inside {allowed}\n"
        "[SKIP] certificate-c: no certificate provided\n"
        "[SKIP] certificate-y2: no certificate provided\n"
        f"[PASS] homology-smoke: {curves} twists and their inverses are their "
        "curves' transvections mod 2\n"
        f"verify-theorem: PASS (genus {genus}, n 1)\n"
    )


def inverse_of_a5_replaced_by_that_of_a4(monkeypatch):
    """Derive the twists as usual, then give t_a5 the inverse of t_a4: no
    stage before the homology stage reads t_a5's inverse at genus 6."""
    real = cli.derive_generators

    def derive(registry):
        gens = real(registry)
        a5, a4 = gens["a5"], gens["a4"]
        gens["a5"] = TwistGenerator(a5.name, a5.curve, a5.auto, a4.inverse)
        return gens

    monkeypatch.setattr(cli, "derive_generators", derive)


def test_a_twist_off_its_transvection_fails_the_homology_stage(capsys, monkeypatch):
    inverse_of_a5_replaced_by_that_of_a4(monkeypatch)
    code, out, _ = run(capsys, "verify-theorem", "--genus", "6", "--n", "1")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "[FAIL] homology-smoke: t_a5^-1 is not the transvection of alpha_5's class mod 2 at x4",
        "verify-theorem: FAIL at stage homology-smoke (genus 6, n 1)",
    ]
    assert "[PASS] certificate-f" in out
    code, out, _ = run(
        capsys, "verify-theorem", "--genus", "6", "--n", "1", "--format", "structured"
    )
    assert code == 1
    assert out.splitlines()[-2:] == ["stage=homology-smoke status=FAIL", "result=FAIL"]


def test_a_twist_reaching_a_far_support_fails_the_twist_suite(capsys, monkeypatch):
    """t_e followed by the far twist t_a6 still fixes the boundary and
    epsilon, but now moves x6 and x7, inside t_a5's support, and no longer
    commutes with t_a5.  The pairs whose supports meet come from one pass
    over the supports; if that pass missed this pair, the run would pass.
    (A mutant that moved one generator more than t_e, and agreed with it
    elsewhere, would fail fixes-boundary first: in a free group x_k^2 has
    one square root.)"""
    real = cli.derive_generators

    def derive(registry):
        gens = real(registry)
        e, a6 = gens["e"], gens["a6"]
        farther = e.auto.after(a6.auto), a6.inverse.after(e.inverse)
        gens["e"] = TwistGenerator(e.name, e.curve, *farther)
        return gens

    monkeypatch.setattr(cli, "derive_generators", derive)
    code, out, _ = run(capsys, "verify-theorem", "--genus", "8", "--n", "1")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "[FAIL] twist-suite: commute a5~e: disjoint curves, twists must commute",
        "verify-theorem: FAIL at stage twist-suite (genus 8, n 1)",
    ]


def test_a_chain_curve_crossing_a_far_one_fails_registry_validation(capsys, monkeypatch):
    """alpha_1 rerouted once around crosscap 3 stays embedded, bigon-free
    and in its mod-2 class, but crosses alpha_3 twice.  Pairs whose chords
    neither cross nor touch are measured 0 without a count; if the crossing
    table's meeting pairs missed this one, only beta~alpha_1 would fail."""
    registry = standard_registry(SurfaceSpec(8, 1))
    events = list(registry.curve("alpha_1").events)
    events[1:1] = [Event(3, True, SIDE * 3 // 8), Event(3, True, SIDE // 16)]
    rerouted = CurveRecord("alpha_1", spell_cyclic(8, events), tuple(events), 1)
    monkeypatch.setattr(cli, "standard_registry", lambda spec: registry.replaced(rerouted))
    code, out, _ = run(capsys, "verify-theorem", "--genus", "8", "--n", "1")
    assert code == 1
    assert out.splitlines() == [
        "[FAIL] registry-validation: intersection alpha_1~alpha_3: expected 0, measured 2",
        "verify-theorem: FAIL at stage registry-validation (genus 8, n 1)",
    ]


def test_verify_theorem_needs_genus_four(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--genus", "3", "--n", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("genus", ["2", "3"])
def test_validate_data_needs_genus_four(capsys, genus):
    with pytest.raises(SystemExit) as exc:
        main(["validate-data", "--genus", genus, "--n", "1"])
    assert exc.value.code == 2
    assert (
        f"validate-data needs --genus >= 4 (the twist family below that is "
        f"too small), got {genus}"
    ) in capsys.readouterr().err


def test_closed_surface_runs_note_the_capping(capsys):
    code, _, err = run(capsys, "verify-theorem", "--genus", "4", "--n", "0")
    assert code == 0
    assert "caps the free side with a disk" in err


def zeta_arrow_flipped(path):
    """Write the genus-4 registry with zeta's arrow flipped to ``path``."""
    text = registry_text(standard_registry(SurfaceSpec(4, 1)))
    lines = text.splitlines()
    (row,) = [i for i, line in enumerate(lines) if line.startswith("zeta |")]
    assert lines[row].endswith("| -1")
    lines[row] = lines[row][: -len("-1")] + "+1"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_flipped_zeta_arrow_in_a_registry_fails_the_key_conjugation(tmp_path, capsys):
    # zeta's arrow is pinned only by the key conjugation; a registry that
    # flips it must fail there, with no repair and no note
    flipped = zeta_arrow_flipped(tmp_path / "registry.txt")
    code, out, err = run(
        capsys,
        "verify-theorem", "--genus", "4", "--n", "1", "--registry", str(flipped),
    )
    assert code == 1
    assert "[PASS] twist-suite" in out
    assert "FAIL at stage key-conjugation" in out
    assert "note:" not in err


@pytest.mark.parametrize(
    "dropped, fault",
    [
        ("zeta", "curve zeta is not registered; registered: alpha_1, alpha_2, "
                 "alpha_3, alpha_4, beta, gamma, epsilon, psi"),
        ("beta", "token 3: unknown generator 'b' (available: a1, a2, a3, a4, c, e, f, y2)"),
        ("epsilon", "curve epsilon is not registered; registered: alpha_1, alpha_2, "
                    "alpha_3, alpha_4, beta, gamma, zeta, psi"),
        ("alpha_3", "token 1: unknown generator 'a3' (available: a1, a2, a4, b, c, e, f, y2)"),
    ],
)
def test_a_registry_without_a_key_conjugation_curve_fails_that_stage(
    tmp_path, capsys, dropped, fault
):
    # the stages before the key conjugation still report, and the missing
    # curve or generator is a FAIL there, not a bare error
    text = registry_text(standard_registry(SurfaceSpec(5, 1)))
    lines = [line for line in text.splitlines() if not line.startswith(f"{dropped} |")]
    path = tmp_path / "registry.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["verify-theorem", "--genus", "5", "--n", "1", "--registry", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    rows = out.splitlines()
    assert rows[0].startswith("[PASS] registry-validation: 8 curves, ")
    assert rows[1].startswith("[PASS] twist-suite: ")
    assert rows[2:] == [
        f"[FAIL] key-conjugation: {fault}",
        "verify-theorem: FAIL at stage key-conjugation (genus 5, n 1)",
    ]
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "stage=registry-validation status=PASS",
        "stage=twist-suite status=PASS",
        "stage=key-conjugation status=FAIL",
        "result=FAIL",
    ]


def epsilon_with_crossing_chords(tmp_path):
    """A genus-4 registry file whose epsilon cannot be twisted: this
    ordering of its crossings gives chords that cross."""
    text = registry_text(standard_registry(SurfaceSpec(4, 1)))
    lines = text.splitlines()
    (row,) = [i for i, line in enumerate(lines) if line.startswith("epsilon |")]
    name, word, _, arrow = lines[row].split(" | ")
    lines[row] = " | ".join((name, word, "A1-,A4-,A2-,A3-", arrow))
    bad = tmp_path / "registry.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


def chain_on_one_fallback_parameter(tmp_path):
    """A genus-4 registry file whose alpha_1 and alpha_2 both cross pair 2
    once, so both land on the same fallback parameter there."""
    text = registry_text(standard_registry(SurfaceSpec(4, 1)))
    lines = text.splitlines()
    for row, line in enumerate(lines):
        name, *rest = line.split(" | ")
        coords = {"alpha_1": "A1-,A2-", "alpha_2": "A2-,A3-"}.get(name)
        if coords is not None:
            lines[row] = " | ".join((name, rest[0], coords, rest[2]))
    path = tmp_path / "registry.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, want",
    [
        (
            "verify-theorem",
            "[FAIL] registry-validation: intersection alpha_1~alpha_2: degenerate: "
            "two chords share the endpoint coordinate 113/40\n"
            "verify-theorem: FAIL at stage registry-validation (genus 4, n 1)\n",
        ),
        (
            "validate-data",
            "[FAIL] registry: intersection alpha_1~alpha_2: degenerate: "
            "two chords share the endpoint coordinate 113/40\n",
        ),
    ],
)
def test_a_degenerate_position_names_its_coordinate(tmp_path, capsys, command, want):
    registry = chain_on_one_fallback_parameter(tmp_path)
    code, out, err = run(
        capsys, command, "--genus", "4", "--n", "1", "--registry", str(registry)
    )
    assert code == 1
    assert out.startswith(want)
    if command == "verify-theorem":
        assert out == want
    assert err == FALLBACK_NOTES


#: what a command prints on stderr first when it reads chain_on_one_fallback_parameter
FALLBACK_NOTES = (
    "note: curve alpha_1 is placed at fallback parameters: its tokens A1-,A2- "
    "are not a frozen layout of that name\n"
    "note: curve alpha_2 is placed at fallback parameters: its tokens A2-,A3- "
    "are not a frozen layout of that name\n"
)


def test_complement_names_a_shared_endpoint(tmp_path, capsys):
    registry = chain_on_one_fallback_parameter(tmp_path)
    got = run(
        capsys, "complement", "--genus", "4", "--n", "1", "--registry", str(registry),
        "--curves", "alpha_1,alpha_2",
    )
    assert got == (
        2, "", FALLBACK_NOTES + "error: two curve endpoints share boundary coordinate 153/40\n"
    )


def test_only_curves_at_fallback_parameters_are_noted(tmp_path, capsys):
    """A registry file whose tokens are the frozen layouts places no curve
    at fallback parameters, so it prints no note."""
    path = tmp_path / "registry.txt"
    path.write_text(registry_text(standard_registry(SurfaceSpec(4, 1))), encoding="utf-8")
    code, _, err = run(capsys, "validate-data", "--genus", "4", "--n", "1", "--registry", str(path))
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv, want_code, want_line",
    [
        (("relation", "a1", "a1"), 2, "error: twist derivation: curve epsilon:"),
        (("apply-curve", "a1", "alpha_1"), 2, "error: twist derivation: curve epsilon:"),
        (("homology", "a1"), 2, "error: twist derivation: curve epsilon:"),
        (("validate-data",), 1, "[FAIL] twist-tables: twist derivation: curve epsilon:"),
    ],
)
def test_a_registry_curve_that_cannot_be_twisted_is_named(
    tmp_path, capsys, argv, want_code, want_line
):
    bad = epsilon_with_crossing_chords(tmp_path)
    code, out, err = run(
        capsys, argv[0], "--genus", "4", "--n", "1", "--registry", str(bad), *argv[1:]
    )
    assert code == want_code
    assert want_line in err + out
    assert "chords cross" in err + out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-theorem",),
        ("relation", "a1", "a1"),
        ("apply-curve", "a1", "alpha_1"),
        ("homology", "a1"),
        ("validate-data",),
    ],
    ids=lambda argv: argv[0],
)
def test_a_twist_table_option_is_a_usage_error(capsys, argv):
    # twists come from the registry's layouts only; no table file is read
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--genus", "4", "--twist-table", "twists.txt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --twist-table" in capsys.readouterr().err


SMALL_COMMANDS = [
    ("relation", "a1", "a1"),
    ("apply-curve", "a1", "alpha_1"),
    ("homology", "a1"),
    ("complement", "--curves", "X0"),
]


@pytest.mark.parametrize(
    "option, value, argv",
    [("--seed", "1", argv) for argv in [*SMALL_COMMANDS, ("validate-data",)]]
    + [("--certificates", "certs.txt", argv) for argv in SMALL_COMMANDS]
    # one positional short: argparse takes the option's value for the other
    + [("--seed", "3", ("relation", "a1"))],
    ids=lambda param: param[0] if isinstance(param, tuple) else None,
)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, option, value, argv):
    # only verify-theorem accepts --seed; only the checking commands read
    # --certificates, so no other command may take a file it never opens.
    # Before the positionals or after them, and abbreviated, the option is
    # quoted with its own value, not with a positional argparse left over,
    # and with its value when a positional is missing.
    command, *rest = argv
    for given in (option, option[:4]):
        for placed in ([*rest, given, value], [given, value, *rest]):
            with pytest.raises(SystemExit) as exc:
                main([command, "--genus", "4", *placed])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: unrecognized arguments: {given} {value}\n")


def test_tokens_after_a_double_dash_are_never_moved(capsys):
    # after "--" every token is a positional, so none is quoted as the
    # value of an option: the error names argparse's own leftovers, the
    # last one included
    argv = ["apply-curve", "--genus", "4", "--", "0", "--seed", "text", "--cert", "", "--curves"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: unrecognized arguments: text --cert  --curves\n")


#: option spellings, in full and abbreviated, for every command's options
SPELLINGS = sorted(
    {
        option[:k]
        for option in [*cli.OPTIONS, "--curves", "--drop", "--help"]
        for k in range(3, len(option) + 1)
    }
)
#: values each option takes, some in forms int() reads, drawn more often
GOOD = {
    "--genus": ["4", "6", "20", "100", " 6 ", "+7", "5_0", "\u0665"],
    "--n": ["0", "1", " 1"],
    "--format": ["text", "structured"],
    "--registry": ["data.txt", ""],
    "--certificates": ["data.txt", ""],
    "--seed": ["7", "0", "+3", "1_000"],
}
#: values of every kind argparse and the plain reader might disagree on
VALUES = [
    "101", "3", "2", "-1", "-4", "", " ", "1e1", "Text", "--genus", "-h", "--", "a1", "\u0664",
]


def test_a_plain_verify_theorem_call_reads_as_argparse_reads_it():
    """Whatever ``_plain_verify_args`` accepts, argparse (with the genus
    usage checks) reads the same: no exit, no extras, an equal namespace."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from crosscap.commands import _build_parser, parse_args

    # mostly verify-theorem with options in full and good values, with
    # every kind of fault mixed in
    @st.composite
    def command_lines(draw):
        commands = [*cli.EVERY_COMMAND, *["verify-theorem"] * 6, "verify", "-h"]
        argv = [draw(st.sampled_from(commands))]
        if draw(st.booleans()):
            argv += ["--genus", draw(st.sampled_from([*GOOD["--genus"], "3", "2", "101"]))]
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.integers(0, 8))
            option = draw(st.sampled_from(list(GOOD) if kind < 7 else SPELLINGS))
            if kind < 5:
                argv += [option, draw(st.sampled_from(GOOD[option]))]
            elif kind < 7:
                argv += [option, draw(st.sampled_from(VALUES))]
            else:
                value = draw(st.sampled_from([*GOOD.get(option, []), *VALUES]))
                pieces = [[option, value], [f"{option}={value}"], [option], [value], ["-h"], ["--"]]
                argv += draw(st.sampled_from(pieces))
        return argv

    @settings(max_examples=1000, deadline=None)
    @given(command_lines())
    def check(argv):
        plain = cli._plain_verify_args(argv)
        if plain is None:
            return
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(out):
            try:
                extras = _build_parser().parse_known_args(argv)[1]
                args = parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse exits on {argv}: {out.getvalue()}")
        assert extras == []
        assert vars(args) == vars(plain)

    check()


def test_missing_explicit_registry_fails_its_stage(capsys):
    code, out, _ = run(
        capsys,
        "verify-theorem", "--genus", "4", "--n", "1",
        "--registry", "/no/such/file.txt",
    )
    assert code == 1
    assert "[FAIL] registry-validation: registry:" in out


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["verify-theorem"], 1, "[FAIL] registry-validation: registry: "),
        (["relation", "a1", "a2"], 2, "error: registry: "),
    ],
)
def test_a_registry_word_past_the_letter_bound_is_named(tmp_path, capsys, argv, code, prefix):
    lines = registry_text(standard_registry(SurfaceSpec(4, 1))).splitlines()
    (row,) = [i for i, line in enumerate(lines) if line.startswith("beta |")]
    name, _, coords, arrow = lines[row].split(" | ")
    k = MAX_PARSED_LETTERS + 1
    lines[row] = " | ".join((name, f"x1^{k}", coords, arrow))
    path = tmp_path / "registry.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got, out, err = run(capsys, *argv, "--genus", "4", "--n", "1", "--registry", str(path))
    assert got == code
    assert (
        f"{prefix}line {row + 1}: word token 'x1^{k}' takes the word past "
        f"{MAX_PARSED_LETTERS} letters\n"
    ) in out + err


def not_utf8(path):
    path.write_bytes(b"\xff" + registry_text(standard_registry(SurfaceSpec(4, 1))).encode())
    return path


@pytest.mark.parametrize(
    "option, argv, code, want",
    [
        ("--registry", ["verify-theorem"], 1, "[FAIL] registry-validation: registry: "),
        ("--certificates", ["verify-theorem"], 1, "[FAIL] certificate-f: certificates: "),
        ("--registry", ["validate-data"], 1, "[FAIL] registry: registry: "),
        ("--certificates", ["validate-data"], 1, "[FAIL] certificates: certificates: "),
        ("--registry", ["relation", "a1", "a2"], 2, "error: registry: "),
        ("--registry", ["apply-curve", "a1", "alpha_1"], 2, "error: registry: "),
        ("--registry", ["homology", "a1"], 2, "error: registry: "),
        ("--registry", ["complement", "--curves", "X0"], 2, "error: registry: "),
    ],
)
def test_a_data_file_that_is_not_utf8_is_named(tmp_path, capsys, option, argv, code, want):
    bad = not_utf8(tmp_path / "bad.txt")
    got, out, err = run(capsys, *argv, "--genus", "4", "--n", "1", option, str(bad))
    assert got == code
    assert f"{want}{bad} is not UTF-8 text (byte 0: invalid start byte)\n" in out + err


def test_a_data_dir_file_that_is_not_utf8_is_named(tmp_path, monkeypatch, capsys):
    bad = not_utf8(tmp_path / "registry_g4.txt")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    code, out, err = run(capsys, "relation", "--genus", "4", "a1", "a2")
    assert code == 2
    assert out == ""
    assert err == f"error: registry: {bad} is not UTF-8 text (byte 0: invalid start byte)\n"


@pytest.mark.parametrize("option", ["--registry", "--certificates"])
def test_a_data_file_that_opens_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, option):
    """A UTF-8 byte-order mark, which some editors write, is no part of
    line 1: the registry's opening comment stays a comment, and f's
    certificate is filed under f."""
    text = {
        "--registry": registry_text(standard_registry(SurfaceSpec(4, 1))),
        "--certificates": f"f | a1, a2, a3, b, e | {F_EXPRESSION}\n",
    }[option]
    path = tmp_path / "data.txt"
    path.write_text("\ufeff" + text, encoding="utf-8")
    code, out, err = run(
        capsys, "verify-theorem", "--genus", "4", "--n", "1", option, str(path)
    )
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("verify-theorem: PASS (genus 4, n 1)")


@pytest.mark.parametrize(
    "argv, code, want",
    [
        (["verify-theorem"], 1, "[FAIL] registry-validation: registry: "),
        (["validate-data"], 1, "[FAIL] registry: registry: "),
        (["relation", "a1", "a2"], 2, "error: registry: "),
        (["complement", "--curves", "X0"], 2, "error: registry: "),
    ],
)
def test_a_data_dir_that_is_no_directory_is_named(tmp_path, monkeypatch, capsys, argv, code, want):
    """A ``$MCG_DATA_DIR`` that names no directory is an error, not a
    silent fall-back to the built-in constructions."""
    missing = tmp_path / "no-such-dir"
    monkeypatch.setenv(DATA_DIR_ENV, str(missing))
    got, out, err = run(capsys, *argv, "--genus", "4", "--n", "1")
    assert got == code
    assert f"{want}$MCG_DATA_DIR is {missing}, which is not a directory\n" in out + err


def test_random_data_files_never_raise_out_of_main(tmp_path):
    """Whatever bytes a registry or certificate file holds, every command
    reports the fault and exits 1 or 2; nothing escapes ``main``."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    path = tmp_path / "data.txt"

    commands = [["verify-theorem"], ["validate-data"], ["relation", "a1", "a2"]]
    # only the two checking commands take a certificate file
    options = [("--registry", argv) for argv in commands]
    options += [("--certificates", argv) for argv in commands[:2]]

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=200), st.sampled_from(options))
    def check(data, option_argv):
        option, argv = option_argv
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--genus", "4", option, str(path)])
        assert code in (1, 2)

    check()


# -- relation ------------------------------------------------------------


def test_braid_relation_reports_equal(capsys):
    code, out, _ = run(capsys, "relation", "--genus", "4", "a1 a2 a1", "a2 a1 a2")
    assert code == 0
    assert out.strip() == "EQUAL"


def test_the_f_expression_matches_its_generator(capsys):
    code, out, _ = run(capsys, "relation", "--genus", "4", "f", F_EXPRESSION)
    assert code == 0
    assert out.strip() == "EQUAL"


def test_distinct_twists_report_unequal_with_a_witness(capsys):
    code, out, _ = run(capsys, "relation", "--genus", "4", "--n", "1", "a1", "a2")
    assert code == 1
    assert out.strip() == "UNEQUAL (images first differ at x1)"
    code, out, _ = run(
        capsys, "relation", "--genus", "4", "--n", "1", "a1", "a2", "--format", "structured"
    )
    assert code == 1
    assert out.strip() == "result=UNEQUAL first_difference=x1"


def test_a_bordered_unequal_is_undecided_on_the_closed_surface(capsys):
    """gamma bounds the first four crosscaps, so the twist c is trivial on
    the closed N_4 but not on N_{4,1}: on a closed surface an UNEQUAL of
    the bordered model decides nothing, and says so with exit code 3.  An
    EQUAL carries over and is reported as before."""
    code, out, err = run(capsys, "relation", "--genus", "4", "--n", "0", "c", "")
    assert (code, err) == (3, "")
    assert out == "UNEQUAL on N_{4,1} (images first differ at x1); undecided on N_4\n"
    code, out, _ = run(
        capsys, "relation", "--genus", "4", "--n", "0", "--format", "structured", "c", ""
    )
    assert (code, out) == (3, "result=UNDECIDED bordered=UNEQUAL first_difference=x1\n")
    code, out, _ = run(capsys, "relation", "--genus", "4", "--n", "1", "c", "")
    assert (code, out) == (1, "UNEQUAL (images first differ at x1)\n")
    code, out, err = run(capsys, "relation", "--genus", "4", "--n", "0", "a1 a2 a1", "a2 a1 a2")
    assert (code, out, err) == (0, "EQUAL\n", "")


def test_relation_parse_errors_exit_two(capsys):
    code, _, err = run(capsys, "relation", "--genus", "4", "a1", "q7 a1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["relation", "apply-curve", "homology"])
def test_an_expression_past_the_letter_budget_exits_two(capsys, monkeypatch, command):
    from crosscap import polygon

    # the twists themselves stay well inside it; the expression needs 3,289
    monkeypatch.setattr(polygon, "MAX_IMAGE_LETTERS", 3288)
    expression = "a1 b a2 e^-1 f a3 b^-1 e"
    tail = {"relation": ["a1"], "apply-curve": ["alpha_1"], "homology": []}[command]
    code, out, err = run(capsys, command, "--genus", "4", "--n", "1", expression, *tail)
    assert (code, out) == (2, "")
    assert err == (
        "error: the images of an expression of 8 factors grow past the bound "
        "MAX_IMAGE_LETTERS = 3288 letters\n"
    )


# -- apply-curve and homology ---------------------------------------------


@pytest.mark.parametrize(
    "argv", [("apply-curve", "a1", "alpha_2"), ("homology", "a1 b^-1"), ("homology", "c")]
)
def test_a_bordered_answer_is_noted_on_a_closed_surface(capsys, argv):
    """apply-curve and homology answer on N_{g,1}; at --n 0 they print the
    same answer and a note that says so on stderr."""
    code, closed, err = run(capsys, argv[0], "--genus", "5", "--n", "0", *argv[1:])
    assert code == 0
    assert err == (
        "note: answered on the bordered model N_{5,1}; on the closed N_5 read it "
        "modulo x1^2...x5^2 = 1\n"
    )
    assert run(capsys, argv[0], "--genus", "5", "--n", "1", *argv[1:]) == (0, closed, "")


@pytest.mark.parametrize("argv", [("apply-curve", "q7", "alpha_1"), ("homology", "a1 q7")])
def test_expression_parse_errors_exit_two(capsys, argv):
    code, out, err = run(capsys, argv[0], "--genus", "4", *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: token ") and "unknown generator 'q7'" in err


def test_apply_curve_fixes_the_twisting_curve(capsys):
    code, out, _ = run(capsys, "apply-curve", "--genus", "4", "a1", "alpha_1")
    assert code == 0
    assert out.strip() == "x1 x2"


def test_apply_curve_structured_uses_commas(capsys):
    code, out, _ = run(
        capsys,
        "apply-curve", "--genus", "4",
        "a3^-1 a2^-1 b a1^-1 a2^-1 a3^-1", "epsilon",
        "--format", "structured",
    )
    assert code == 0
    assert out.strip() == "class=x2^-1,x4^-1,x4^-1,x3^-1,x4^-1,x3^-1"


def test_apply_curve_unknown_name_exits_two(capsys):
    code, _, err = run(capsys, "apply-curve", "--genus", "4", "a1", "omega")
    assert code == 2
    assert "error:" in err


def test_homology_matrix_of_the_first_twist(capsys):
    code, out, _ = run(
        capsys, "homology", "--genus", "4", "a1", "--format", "structured"
    )
    assert code == 0
    assert out.strip() == "matrix=4;2,-1,0,0;1,0,0,0;0,0,1,0;0,0,0,1"


def test_homology_of_the_empty_expression_is_the_identity(capsys):
    code, out, _ = run(
        capsys, "homology", "--genus", "4", "", "--format", "structured"
    )
    assert code == 0
    assert out.strip() == "matrix=4;1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"


# -- complement ------------------------------------------------------------


def test_complement_of_nothing_is_the_closed_surface(capsys):
    code, out, _ = run(
        capsys,
        "complement", "--curves", "", "--genus", "4", "--format", "structured",
    )
    assert code == 0
    assert out.strip() == "chi=-2 boundaries=0 orientable=0 disk=0"


def test_complement_of_the_chain_has_a_non_disk_piece(capsys):
    code, out, _ = run(
        capsys,
        "complement", "--curves", "alpha1..alpha4", "--genus", "5",
        "--format", "structured",
    )
    assert code == 0
    assert any(line.endswith("disk=0") for line in out.splitlines())


def test_complement_after_dropping_epsilon_has_a_non_disk_piece(capsys):
    code, out, _ = run(
        capsys,
        "complement", "--curves", "X0", "--drop", "epsilon", "--genus", "5",
        "--format", "structured",
    )
    assert code == 0
    assert any(line.endswith("disk=0") for line in out.splitlines())


def test_complement_range_equals_the_spelled_out_list(capsys):
    _, ranged, _ = run(
        capsys,
        "complement", "--curves", "alpha1..alpha3", "--genus", "4",
        "--format", "structured",
    )
    _, spelled, _ = run(
        capsys,
        "complement", "--curves", "alpha_1, alpha_2, alpha_3", "--genus", "4",
        "--format", "structured",
    )
    assert ranged == spelled


def test_complement_drop_must_name_a_selected_curve(capsys):
    code, _, err = run(
        capsys,
        "complement", "--curves", "alpha1..alpha3", "--drop", "beta", "--genus", "4",
    )
    assert code == 2
    assert "not in the selected set" in err


def test_complement_x0_token_needs_rich_genus(capsys):
    code, _, err = run(capsys, "complement", "--curves", "X0", "--genus", "3")
    assert code == 2
    assert "X0 needs genus >= 4" in err


def test_complement_text_report_totals_the_surface(capsys):
    code, out, _ = run(
        capsys, "complement", "--curves", "beta", "--genus", "4", "--n", "1"
    )
    assert code == 0
    assert "total euler characteristic: -3" in out


# -- validate-data ----------------------------------------------------------


def test_validate_data_passes_on_derived_data(capsys):
    argv = ("validate-data", "--genus", "5", "--format", "structured")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines() == [
        "check=registry status=PASS",
        "check=twist-tables status=PASS",
        "check=certificates status=PASS",
        "result=PASS",
    ]


def test_validate_data_flags_a_broken_certificate_file(tmp_path, capsys):
    bad = tmp_path / "certs.txt"
    bad.write_text("f | a1 a2\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "validate-data", "--genus", "4", "--certificates", str(bad)
    )
    assert code == 1
    assert "[FAIL] certificates:" in out
    assert "validate-data: FAIL" in out


@pytest.mark.parametrize(
    "text",
    [
        "",  # no certificate for f
        "f | a1,a2 | a1 e a2\n",  # leaves its allowed set
        "f | a1,a2,a3,b,e | a1\n",  # the wrong map
    ],
    ids=["empty", "outside-allowed-set", "wrong-map"],
)
def test_validate_data_rejects_certificates_that_verify_theorem_rejects(
    tmp_path, capsys, text
):
    certs = tmp_path / "certs.txt"
    certs.write_text(text, encoding="utf-8")
    argv = ("--genus", "4", "--n", "1", "--certificates", str(certs))
    code, out, _ = run(capsys, "verify-theorem", *argv)
    assert code == 1
    (failure,) = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failure.startswith("[FAIL] certificate-f: ")
    diagnostic = failure[len("[FAIL] certificate-f: "):]
    code, out, _ = run(capsys, "validate-data", *argv)
    assert code == 1
    assert f"[FAIL] certificates: {diagnostic}\n" in out
    assert out.splitlines()[-1] == "validate-data: FAIL"


# -- data resolution ---------------------------------------------------------


def test_env_data_dir_wins_over_derivation(tmp_path, monkeypatch, capsys):
    zeta_arrow_flipped(tmp_path / "registry_g4.txt")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    code, out, _ = run(capsys, "verify-theorem", "--genus", "4", "--n", "1")
    assert code == 1
    assert "FAIL at stage key-conjugation" in out


def test_explicit_registry_wins_over_env_data_dir(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    zeta_arrow_flipped(env_dir / "registry_g4.txt")
    monkeypatch.setenv(DATA_DIR_ENV, str(env_dir))
    standard = tmp_path / "registry.txt"
    standard.write_text(registry_text(standard_registry(SurfaceSpec(4, 1))), encoding="utf-8")
    code, out, _ = run(
        capsys, "verify-theorem", "--genus", "4", "--n", "1", "--registry", str(standard)
    )
    assert code == 0
    assert out.rstrip().endswith("verify-theorem: PASS (genus 4, n 1)")


def test_genus_without_data_files_derives_in_memory(capsys):
    code, out, _ = run(
        capsys, "validate-data", "--genus", "4", "--format", "text"
    )
    assert code == 0
    assert "derived in memory" in out


def test_genus_below_two_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["complement", "--curves", "", "--genus", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: genus must be at least 2, got 1\n")


@pytest.mark.parametrize("command", [["verify-theorem"], ["complement", "--curves", "X0"]])
def test_genus_past_the_bound_is_a_usage_error(capsys, command):
    genus = MAX_GENUS + 1
    with pytest.raises(SystemExit) as exc:
        main([*command, "--genus", str(genus), "--n", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: genus {genus} is above the bound MAX_GENUS = {MAX_GENUS}\n")


def test_importing_the_cli_loads_no_exact_number_modules():
    """``fractions`` and ``decimal`` cost start-up time on every run; the
    CLI imports them only when a message needs one."""
    package_root = str(Path(crosscap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, crosscap.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """The records are plain slotted classes: ``dataclasses`` would pull in
    ``inspect`` and its own imports at every start.  ``-S`` keeps site
    hooks from loading either module first."""
    package_root = str(Path(crosscap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import crosscap.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_leaves_the_cut_complex_unloaded():
    """Only ``complement`` cuts, so ``crosscap.cutting`` is loaded on first
    use: by that command, or by the package names taken from it."""
    package_root = str(Path(crosscap.__file__).resolve().parents[1])
    script = (
        "import crosscap.cli, sys\n"
        "print('crosscap.cutting' in sys.modules)\n"
        "import crosscap\n"
        "print(crosscap.cut_along is crosscap.cutting.cut_along)\n"
        "names = ('ComplementReport', 'ComponentReport', 'intersection_number')\n"
        "print(all(getattr(crosscap, n) is getattr(crosscap.cutting, n) for n in names))\n"
        "print(hasattr(crosscap, 'cutting_along'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "False"]


def test_verify_theorem_loads_only_the_modules_it_runs(tmp_path):
    """verify-theorem compiles no file format, no integer homology, no
    folding and no small command: those modules load on first use, by the
    runs that need them.
    A plain verify-theorem call is read without argparse; usage, a usage
    error or an abbreviated option loads it, with ``crosscap.commands``.
    ``pathlib`` loads only to read a data path, and ``typing`` never."""
    package_root = str(Path(crosscap.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, sys\n"
        "import crosscap.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        code = crosscap.cli.main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "watched = ('crosscap', 'argparse', 'pathlib', 'typing')\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] in watched))\n"
    )

    def loaded(*argv):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        code, *modules = proc.stdout.split()
        return int(code), set(modules)

    theorem = {
        "crosscap",
        "crosscap.cli",
        "crosscap.polygon",
        "crosscap.surface",
        "crosscap.twists",
        "crosscap.words",
    }
    argparsed = theorem | {"argparse", "crosscap.commands", "crosscap.homology"}
    surface = ("--genus", "6", "--n", "1")
    verify = ("verify-theorem", *surface)
    assert loaded(*verify, "--format", "structured") == (0, theorem)
    assert loaded(*verify, "--format", "structured", "--seed", "3") == (0, theorem)
    assert loaded("relation", *surface, "a1", "a1") == (0, argparsed)
    registry = tmp_path / "registry.txt"
    # a file format is compiled only once a file has been found
    assert loaded(*verify, "--registry", str(registry)) == (1, theorem | {"pathlib"})
    registry.write_text(registry_text(standard_registry(SurfaceSpec(6, 1))), encoding="utf-8")
    read = theorem | {"crosscap.files", "pathlib"}
    assert loaded(*verify, "--registry", str(registry)) == (0, read)
    # argparse reads what is not a plain call
    assert loaded("verify-theorem", "--gen", "6", "--n", "1") == (0, argparsed)
    assert loaded("verify-theorem", "-h") == (0, argparsed)
    assert loaded("verify-theorem", "--genus", "3", "--n", "1") == (2, argparsed)


def test_the_small_commands_under_python_m_share_the_cli_module():
    """Under ``python -m crosscap.cli`` the CLI runs as ``__main__``; the
    small commands must import that module, not a second copy whose
    errors ``main`` would not catch."""
    package_root = str(Path(crosscap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable, "-m", "crosscap.cli", "relation", "--genus", "4", "--n", "1",
            "--registry", "/no/such/registry.txt", "a1", "a1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 2, proc.stderr
    assert "error: registry: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_quietly_with_the_sigpipe_status(unbuffered):
    """A reader that closes the pipe at once (``| head -0``) ends the run
    with 128 + SIGPIPE and no traceback, whether stdout is buffered or
    not."""
    package_root = str(Path(crosscap.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "crosscap.cli",
            "complement",
            "--genus",
            "4",
            "--n",
            "1",
            "--curves",
            "X0",
            "--drop",
            "alpha_2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": package_root, "PYTHONUNBUFFERED": unbuffered},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err, err.decode()
    assert b"BrokenPipeError" not in err, err.decode()
    assert proc.returncode == 141


# -- console script -----------------------------------------------------------


def _run_closed_genus_four_complement(exe, env=None):
    proc = subprocess.run(
        [exe, "complement", "--curves", "", "--genus", "4", "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "chi=-2 boundaries=0 orientable=0 disk=0"


def test_the_installed_entry_point_works(tmp_path):
    """The declared ``crosscap`` console script runs, without an install.

    The launcher an installer would put on ``PATH`` is written from the
    ``[project.scripts]`` entry in ``pyproject.toml``, so a wrong target in
    the declaration fails here just as it would after ``pip install``.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["crosscap"]
    module, _, func = target.partition(":")

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "crosscap"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    exe = shutil.which("crosscap", path=str(bin_dir))
    assert exe, f"no runnable launcher in {bin_dir}"

    package_root = str(Path(crosscap.__file__).resolve().parents[1])
    _run_closed_genus_four_complement(exe, env={**os.environ, "PYTHONPATH": package_root})


@pytest.mark.skipif(
    shutil.which("crosscap") is None, reason="console script 'crosscap' is not on PATH"
)
def test_the_crosscap_on_path_works():
    _run_closed_genus_four_complement(shutil.which("crosscap"))
