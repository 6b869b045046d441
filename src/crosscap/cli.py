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
``main`` imports only to run one of them, or to hand argparse a command
line that ``read_args`` does not take.  ``OPTIONS`` is the one table of
every command's options and positionals, and ``read_args`` reads a command
line by it in one pass over its tokens, as argparse reads it: an option in
full or by a unique prefix, its value next or after ``=``, options before,
between and after the positionals, a negative number as a value, a ``--``
before the positionals still to come, and the last of a repeated option.
Anything else (``-h``, a usage error, a ``--`` elsewhere) goes to argparse,
built from the same table, which prints help or its own error and exits;
only unrecognized arguments and the genus bounds are worded in
``commands``.  So no valid run builds a parser but one with such a
``--``, which argparse reads itself.

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

import os
import re
import sys
from collections.abc import Sequence
from types import SimpleNamespace

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
    CERTIFICATE_TARGETS,
    CertificateError,
    ExpressionError,
    check_certificate,
    derive_generators,
    fixing_suite,
    relation_suite,
    standard_certificates,
    transvection_fault,
    verify_key_conjugation,
)
from crosscap.words import mod2_class

# Type checkers take any TYPE_CHECKING as true; at run time it is a plain
# False, so that pathlib loads only where a data path is read.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

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
    env_dir = os.environ.get(DATA_DIR_ENV)
    if explicit is None and not env_dir:
        return None
    # imported here, so that a run on the built-in data does not load it
    from pathlib import Path

    if explicit is not None:
        return _read_data(kind, Path(explicit))
    if not Path(env_dir).is_dir():
        raise _WorldError(f"{kind}: ${DATA_DIR_ENV} is {env_dir}, which is not a directory")
    candidate = Path(env_dir) / f"{kind}_g{genus}.txt"
    return _read_data(kind, candidate) if candidate.is_file() else None


# -- argument plumbing ---------------------------------------------------

EVERY_COMMAND = (
    "verify-theorem", "relation", "apply-curve", "homology", "complement", "validate-data"
)
CHECKING_COMMANDS = ("verify-theorem", "validate-data")

#: name -> (the commands that take it, its ``add_argument`` keywords), in
#: the order argparse adds them; a name without ``--`` is a positional.
#: The one table of the command line: ``read_args`` reads every call by it,
#: and ``commands`` builds from it the argparse parser that answers the
#: calls ``read_args`` does not take.
OPTIONS = {
    "--genus": (
        EVERY_COMMAND,
        {"type": int, "required": True, "help": f"crosscap genus, 2 <= g <= {MAX_GENUS}"},
    ),
    "--n": (
        EVERY_COMMAND,
        {
            "type": int,
            "choices": (0, 1),
            "default": 0,
            "help": "number of boundary circles (default 0: closed surface)",
        },
    ),
    "--format": (
        EVERY_COMMAND,
        {
            "choices": ("text", "structured"),
            "default": "text",
            "dest": "fmt",
            "help": "output style (structured = line-oriented key=value)",
        },
    ),
    "--registry": (EVERY_COMMAND, {"metavar": "PATH", "help": "curve registry file"}),
    "--certificates": (CHECKING_COMMANDS, {"metavar": "PATH", "help": "certificate file"}),
    "--seed": (
        ("verify-theorem",),
        {
            "type": int,
            "default": 0,
            "help": "accepted and ignored (no check is randomized) until the "
            "benchmark stops passing it",
        },
    ),
    "--curves": (
        ("complement",),
        {
            "required": True,
            "help": "comma/space separated names; ranges like alpha1..alpha4; X0; '' for none",
        },
    ),
    "--drop": (("complement",), {"metavar": "NAME", "help": "remove one name from the set"}),
    "lhs": (("relation",), {"help": "left expression, e.g. 'a1 a2 a1'"}),
    "rhs": (("relation",), {"help": "right expression, e.g. 'a2 a1 a2'"}),
    "expression": (("apply-curve", "homology"), {}),
    "curve": (("apply-curve",), {"help": "registered curve name, e.g. epsilon"}),
}
_HELP = ("-h", "--help")


class _Usage(Exception):
    """A command line that ``_read`` does not take: ``-h``, a usage error,
    or a ``--`` that is not right before a positional still to come."""


def _option(token: str, options: Sequence[str]) -> tuple | None:
    """How argparse takes ``token``, met before ``--``, against ``options``.

    None is a positional.  Otherwise ``(found, value)``: ``found`` lists the
    options that ``token`` names, in full or, for a ``--`` option, by prefix
    (none for an option that ``options`` lack, more than one for an
    ambiguous prefix), and ``value`` is the text after ``=``, or None.
    """
    if not token.startswith("-") or len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if name in options:
        found = [name]
    elif token[1] == "-":
        found = [option for option in options if option.startswith(name)]
    else:
        found = [token[:2]] if token[:2] in options else []
    # argparse takes a negative number or a token with a space for a positional
    if not found and (re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token):
        return None
    return found, value if eq else None


def _read(tokens: Sequence[str]) -> SimpleNamespace:
    if not tokens or tokens[0] not in EVERY_COMMAND:
        raise _Usage
    command = tokens[0]
    taken = {name: spec for name, (takers, spec) in OPTIONS.items() if command in takers}
    options = [*_HELP, *(name for name in taken if name.startswith("-"))]
    positionals = [name for name in taken if not name.startswith("-")]
    args = SimpleNamespace(command=command)
    for name, spec in taken.items():
        setattr(args, spec.get("dest", name.lstrip("-")), spec.get("default"))
    given: set[str] = set()
    words: list[str] = []
    rest = tokens[1:]
    k = 0
    while k < len(rest):
        token = rest[k]
        k += 1
        if token == "--":
            # every token after it is a positional; every argparse drops
            # this "--" when a positional it takes comes next
            if len(words) >= len(positionals) or "--" in rest[k:]:
                raise _Usage
            words += rest[k:]
            break
        kind = _option(token, options)
        if kind is None:
            words.append(token)
            continue
        found, value = kind
        if len(found) != 1 or found[0] in _HELP:
            raise _Usage
        option = found[0]
        if value is None:
            if k == len(rest) or rest[k] == "--" or _option(rest[k], options) is not None:
                raise _Usage
            value = rest[k]
            k += 1
        spec = taken[option]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            raise _Usage from None
        if value not in spec.get("choices", [value]):
            raise _Usage
        setattr(args, spec.get("dest", option.lstrip("-")), value)
        given.add(option)

    if len(words) != len(positionals):
        raise _Usage
    if any(spec.get("required") and name not in given for name, spec in taken.items()):
        raise _Usage
    for name, word in zip(positionals, words):
        setattr(args, name, word)
    try:
        SurfaceSpec(args.genus, args.n)
    except ValueError:
        raise _Usage from None
    if command in CHECKING_COMMANDS and args.genus < MIN_RICH_GENUS:
        raise _Usage
    return args


def read_args(tokens: Sequence[str]) -> SimpleNamespace:
    """The arguments of a command line, read in one pass as argparse reads
    them.  A line that ``_read`` does not take goes to argparse, in
    ``commands``: it prints ``-h`` or the usage error and exits, with
    status 0 and 2, or reads the line itself where its version takes it."""
    try:
        return _read(tokens)
    except _Usage:
        from crosscap.commands import read_refused

        return read_refused(tokens)


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
        return check_certificate(cert, generators, genus)
    except CertificateError as exc:
        return str(exc)


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
        faults = verify_key_conjugation(registry, generators)
    except (UnknownCurveError, ExpressionError) as exc:
        log.record("key-conjugation", "FAIL", str(exc))
        return log.finish()
    if faults:
        log.record("key-conjugation", "FAIL", "; ".join(faults))
        return log.finish()
    log.record("key-conjugation", "PASS", "curve clause and twist clause hold")

    # stages 4-5: certificates (f is mandatory, the rest optional)
    try:
        certificates = _load_certificates(args)
    except _WorldError as exc:
        log.record("certificate-f", "FAIL", str(exc))
        return log.finish()
    for target in CERTIFICATE_TARGETS:
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
            j = transvection_fault(auto.moved, c)
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


def main(argv: Sequence[str] | None = None) -> int:
    args = read_args(sys.argv[1:] if argv is None else argv)
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
