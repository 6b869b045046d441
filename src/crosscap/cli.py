"""Batch verification front end.

``crosscap`` exposes the package as six subcommands:

* ``verify-theorem`` - the staged identity suite over the registered
  twists: registry validation, the twist relations and fixed curves,
  the key conjugation, the generation certificate for ``f``, optional
  extra certificates, and the homology stage: mod 2, every twist and its
  inverse act as the transvection of their curve's class.  Exit 0 iff
  every mandatory stage passes.
* ``relation`` - compare two twist expressions (EQUAL/UNEQUAL; on a
  closed surface an UNEQUAL is only known for the bordered model).
* ``apply-curve`` - image of a registered curve under an expression.
* ``homology`` - the integral matrix an expression induces.
* ``complement`` - cut the surface along registered curves.
* ``validate-data`` - integrity checks for external data files.

``verify-theorem`` lives here; the other five live in ``commands``, which
``main`` imports only to run one of them.

Every subcommand takes ``--genus``, ``--n``, ``--format`` and
``--registry``.  Only the two checking commands, ``verify-theorem`` and
``validate-data``, take ``--certificates``, and only ``verify-theorem``
accepts ``--seed``, which nothing reads: it stays until the benchmark
stops passing it.  Anywhere else either option is a usage error.

Data files are resolved per genus: an explicit ``--registry`` /
``--certificates`` path wins, then a file in ``$MCG_DATA_DIR``, and
finally the built-in constructions.  A ``$MCG_DATA_DIR`` that names no
directory is an error, not a fall-back.  Their text formats live in
``files``, imported once a file has been found.  Twists are always derived from the
registry's layouts.  Structured output (``--format structured``) is
line-oriented ``key=value`` and byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from crosscap.homology import mod2_class, transvection_fault
from crosscap.polygon import DegeneratePositionError, LetterBudgetError
from crosscap.surface import (
    MAX_GENUS,
    MIN_RICH_GENUS,
    Registry,
    SurfaceSpec,
    UnknownCurveError,
    standard_registry,
    validate_registry,
)
from crosscap.twists import (
    CertificateError,
    ExpressionError,
    check_certificate,
    derive_generators,
    fixing_suite,
    relation_suite,
    standard_certificates,
    verify_key_conjugation,
)

DATA_DIR_ENV = "MCG_DATA_DIR"


def _read_data(kind: str, path: Path) -> str:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise _WorldError(f"{kind}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _WorldError(
            f"{kind}: {path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc
    # A byte-order mark, which some editors write, is no part of line 1.  It
    # is dropped after decoding, not by "utf-8-sig", so that the byte named
    # in an error counts from the start of the file, the mark included.
    return text.removeprefix("\ufeff")


def _locate_data(kind: str, genus: int, explicit: str | None) -> str | None:
    """Return the text of the ``kind`` file for ``genus``.

    ``None`` means: no file anywhere, fall back to the built-in
    construction.  An explicit path that does not exist, a
    ``$MCG_DATA_DIR`` that names no directory, or a file that cannot be
    read as UTF-8 text, is a ``_WorldError`` naming ``kind``.
    """
    if explicit is not None:
        return _read_data(kind, Path(explicit))
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        if not Path(env_dir).is_dir():
            raise _WorldError(f"{kind}: ${DATA_DIR_ENV} is {env_dir}, which is not a directory")
        candidate = Path(env_dir) / f"{kind}_g{genus}.txt"
        if candidate.is_file():
            return _read_data(kind, candidate)
    return None


# -- argument plumbing ---------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosscap",
        description="Twist computations on non-orientable surfaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--genus", type=int, required=True, help=f"crosscap genus, 2 <= g <= {MAX_GENUS}"
    )
    common.add_argument(
        "--n",
        type=int,
        choices=(0, 1),
        default=0,
        help="number of boundary circles (default 0: closed surface)",
    )
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        dest="fmt",
        help="output style (structured = line-oriented key=value)",
    )
    common.add_argument("--registry", metavar="PATH", help="curve registry file")
    # the two checking commands also read certificates
    checking = argparse.ArgumentParser(add_help=False, parents=[common])
    checking.add_argument("--certificates", metavar="PATH", help="certificate file")

    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser(
        "verify-theorem",
        parents=[checking],
        help="run the full staged verification suite",
    )
    p_verify.add_argument(
        "--seed",
        type=int,
        default=0,
        help="accepted and ignored (no check is randomized) until the benchmark stops passing it",
    )
    p_rel = sub.add_parser(
        "relation", parents=[common], help="compare two twist expressions"
    )
    p_rel.add_argument("lhs", help="left expression, e.g. 'a1 a2 a1'")
    p_rel.add_argument("rhs", help="right expression, e.g. 'a2 a1 a2'")
    p_apply = sub.add_parser(
        "apply-curve", parents=[common], help="image of a curve under an expression"
    )
    p_apply.add_argument("expression")
    p_apply.add_argument("curve", help="registered curve name, e.g. epsilon")
    p_hom = sub.add_parser(
        "homology", parents=[common], help="integral matrix of an expression"
    )
    p_hom.add_argument("expression")
    p_comp = sub.add_parser(
        "complement", parents=[common], help="cut the surface along curves"
    )
    p_comp.add_argument(
        "--curves",
        required=True,
        help="comma/space separated names; ranges like alpha1..alpha4; X0; '' for none",
    )
    p_comp.add_argument("--drop", metavar="NAME", help="remove one name from the set")
    sub.add_parser(
        "validate-data", parents=[checking], help="check external data files"
    )
    return parser


# -- world loading -------------------------------------------------------


class _WorldError(Exception):
    """A data file failed to load; message is user-facing."""


def _load_registry(args) -> Registry:
    text = _locate_data("registry", args.genus, args.registry)
    spec = SurfaceSpec(args.genus, args.n)
    if text is None:
        return standard_registry(spec)
    from crosscap.files import RegistryFormatError, parse_registry

    try:
        return parse_registry(spec, text, lambda line: print(f"note: {line}", file=sys.stderr))
    except RegistryFormatError as exc:
        raise _WorldError(f"registry: {exc}") from exc


def _load_generators(registry: Registry) -> dict:
    try:
        return derive_generators(registry)
    except ValueError as exc:
        raise _WorldError(f"twist derivation: {exc}") from exc


def _load_certificates(args) -> dict:
    text = _locate_data("certificates", args.genus, args.certificates)
    if text is None:
        return standard_certificates(args.genus)
    from crosscap.files import parse_certificates

    try:
        return parse_certificates(text)
    except CertificateError as exc:
        raise _WorldError(f"certificates: {exc}") from exc


def _note_boundary_model(args) -> None:
    if args.n == 0:
        print(
            "note: twists act on the bordered model; closing the surface caps "
            "the free side with a disk and does not change any identity below",
            file=sys.stderr,
        )


# -- the checking commands -----------------------------------------------


class _StageLog:
    """The rows of a checking command, then its verdict.

    ``key`` names a row in structured output (``stage=...``).  ``passed``
    and ``failed`` are the closing text lines; ``{}`` in ``failed`` takes
    the first failed row.
    """

    def __init__(self, fmt: str, key: str, passed: str, failed: str) -> None:
        self.fmt = fmt
        self.key = key
        self.passed = passed
        self.failed = failed
        self.lines: list[str] = []
        self.failed_stage: str | None = None

    def record(self, stage: str, status: str, detail: str = "") -> None:
        if self.fmt == "structured":
            self.lines.append(f"{self.key}={stage} status={status}")
        else:
            tag = {"PASS": "[PASS]", "FAIL": "[FAIL]", "SKIPPED": "[SKIP]"}[status]
            suffix = f": {detail}" if detail else ""
            self.lines.append(f"{tag} {stage}{suffix}")
        if status == "FAIL" and self.failed_stage is None:
            self.failed_stage = stage

    def finish(self) -> int:
        ok = self.failed_stage is None
        if self.fmt == "structured":
            self.lines.append(f"result={'PASS' if ok else 'FAIL'}")
        else:
            self.lines.append(self.passed if ok else self.failed.format(self.failed_stage))
        print("\n".join(self.lines))
        return 0 if ok else 1


def _certificate_fault(cert, generators: dict, genus: int) -> str | None:
    """Why a certificate fails to check, or None when it holds."""
    try:
        result = check_certificate(cert, generators, genus)
    except CertificateError as exc:
        return str(exc)
    return None if result.ok else result.diagnostic


def _cmd_verify_theorem(args) -> int:
    _note_boundary_model(args)
    where = f"(genus {args.genus}, n {args.n})"
    log = _StageLog(
        args.fmt,
        "stage",
        f"verify-theorem: PASS {where}",
        f"verify-theorem: FAIL at stage {{}} {where}",
    )

    # stage 1: the registry and its geometric invariants
    try:
        registry = _load_registry(args)
        report = validate_registry(registry)
    except _WorldError as exc:
        log.record("registry-validation", "FAIL", str(exc))
        return log.finish()
    if not report.ok:
        first = report.failures()[0]
        log.record(
            "registry-validation", "FAIL", f"{first.check} {first.subject}: {first.detail}"
        )
        return log.finish()
    log.record(
        "registry-validation",
        "PASS",
        f"{len(registry)} curves, {len(report.results)} checks",
    )

    # stage 2: the derived twists satisfy the defining identities
    try:
        generators = _load_generators(registry)
    except _WorldError as exc:
        log.record("twist-suite", "FAIL", str(exc))
        return log.finish()
    checks = fixing_suite(registry, generators) + relation_suite(registry, generators)
    bad = [c for c in checks if not c.ok]
    if bad:
        log.record(
            "twist-suite", "FAIL", f"{bad[0].check} {bad[0].subject}: {bad[0].detail}"
        )
        return log.finish()
    log.record("twist-suite", "PASS", f"{len(checks)} identities")

    # stage 3: the key conjugation, which names curves and generators that
    # a registry file may lack
    try:
        conj = verify_key_conjugation(registry, generators)
    except (UnknownCurveError, ExpressionError) as exc:
        log.record("key-conjugation", "FAIL", str(exc))
        return log.finish()
    if not conj.ok:
        log.record("key-conjugation", "FAIL", "; ".join(conj.diagnostics))
        return log.finish()
    log.record("key-conjugation", "PASS", "curve clause and twist clause hold")

    # stages 4-5: certificates (f is mandatory, the rest optional)
    try:
        certificates = _load_certificates(args)
    except _WorldError as exc:
        log.record("certificate-f", "FAIL", str(exc))
        return log.finish()
    for target in ("f", "c", "y2"):
        stage = f"certificate-{target}"
        cert = certificates.get(target)
        if cert is None:
            if target == "f":
                log.record(stage, "FAIL", "no certificate for f")
                return log.finish()
            log.record(stage, "SKIPPED", "no certificate provided")
            continue
        fault = _certificate_fault(cert, generators, args.genus)
        if fault:
            log.record(stage, "FAIL", fault)
            return log.finish()
        log.record(stage, "PASS", f"expression stays inside {', '.join(cert.allowed)}")

    # stage 6: mod 2, each twist and its inverse act on H1 as the
    # transvection of their curve's class; the key homology-smoke is the
    # one the benchmark expects
    for name, gen in generators.items():
        c = mod2_class(gen.curve.word)
        for label, auto in ((f"t_{name}", gen.auto), (f"t_{name}^-1", gen.inverse)):
            j = transvection_fault(auto.images, c)
            if j is not None:
                where = f"at x{j + 1}" if j >= 0 else "(odd class)"
                log.record(
                    "homology-smoke",
                    "FAIL",
                    f"{label} is not the transvection of {gen.curve.name}'s class mod 2 {where}",
                )
                return log.finish()
    log.record(
        "homology-smoke",
        "PASS",
        f"{len(generators)} twists and their inverses are their curves' transvections mod 2",
    )
    return log.finish()


#: option -> the commands that accept it (see _build_parser); each takes one value
_SCOPED = {"--seed": ("verify-theorem",), "--certificates": ("verify-theorem", "validate-data")}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # A command's parser takes the value of an option it does not accept
        # for a positional when the option, or an abbreviation of it, stands
        # before them.  Moved last, with its value, it is reported as given.
        unread = [option for option, readers in _SCOPED.items() if args.command not in readers]
        tokens, moved, at = list(sys.argv[1:] if argv is None else argv), [], 0
        while at < len(tokens):
            if len(tokens[at]) > 2 and any(o.startswith(tokens[at]) for o in unread):
                moved += tokens[at : at + 2]
                del tokens[at : at + 2]
            else:
                at += 1
        extras = parser.parse_known_args(tokens + moved)[1]
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        SurfaceSpec(args.genus, args.n)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command in ("verify-theorem", "validate-data") and args.genus < MIN_RICH_GENUS:
        parser.error(
            f"{args.command} needs --genus >= {MIN_RICH_GENUS} "
            f"(the twist family below that is too small), got {args.genus}"
        )
    if args.command == "verify-theorem":
        command = _cmd_verify_theorem
    else:
        from crosscap.commands import COMMANDS

        command = COMMANDS[args.command]
    try:
        status = command(args)
        # a reader that closed stdout shows here, not in the flush at exit
        sys.stdout.flush()
        return status
    except (
        _WorldError, UnknownCurveError, ExpressionError, DegeneratePositionError, LetterBudgetError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Stop quietly, as a program killed by SIGPIPE would.  What is
        # still buffered goes to os.devnull, so the flush at exit cannot
        # fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    # Under ``python -m crosscap.cli`` this module runs as __main__.  Filed
    # under its own name too, it is the module that ``crosscap.commands``
    # imports, not a second copy whose _WorldError main would not catch.
    sys.modules.setdefault("crosscap.cli", sys.modules[__name__])
    sys.exit(main())
