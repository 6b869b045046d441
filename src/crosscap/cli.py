"""Batch verification front end.

``crosscap`` exposes the package as six subcommands:

* ``verify-theorem`` - the staged identity suite over the registered
  twists: registry validation, the twist relations and fixed curves,
  the key conjugation, the generation certificate for ``f``, optional
  extra certificates, and homology smoke tests.  Exit 0 iff every
  mandatory stage passes.
* ``relation`` - compare two twist expressions (EQUAL/UNEQUAL; on a
  closed surface an UNEQUAL is only known for the bordered model).
* ``apply-curve`` - image of a registered curve under an expression.
* ``homology`` - the integral matrix an expression induces.
* ``complement`` - cut the surface along registered curves.
* ``validate-data`` - integrity checks for external data files.

Every subcommand takes ``--genus``, ``--n``, ``--format`` and
``--registry``.  Only the two checking commands, ``verify-theorem`` and
``validate-data``, take ``--certificates``, and only ``verify-theorem``
takes ``--seed`` (for its randomized homology checks); anywhere else
either option is a usage error.

Data files are resolved per genus: an explicit ``--registry`` /
``--certificates`` path wins, then a file in ``$MCG_DATA_DIR``, and
finally the built-in constructions.  Twists are always derived from the
registry's layouts.  Structured output (``--format structured``) is
line-oriented ``key=value`` and byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path
from typing import Callable, Sequence

from crosscap.homology import abelianize
from crosscap.polygon import DegeneratePositionError, LetterBudgetError
from crosscap.surface import (
    MAX_GENUS,
    MIN_RICH_GENUS,
    Registry,
    RegistryFormatError,
    SurfaceSpec,
    UnknownCurveError,
    canonical_curve_name,
    chain_index,
    parse_registry,
    standard_registry,
    validate_registry,
    x0_names,
)
from crosscap.twists import (
    CertificateError,
    ExpressionError,
    apply_to_curve,
    check_certificate,
    derive_generators,
    equal,
    evaluate,
    first_difference,
    fixing_suite,
    parse_certificates,
    relation_suite,
    standard_certificates,
    verify_key_conjugation,
)
from crosscap.words import letter_str

DATA_DIR_ENV = "MCG_DATA_DIR"


def _read_data(kind: str, path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _WorldError(f"{kind}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _WorldError(
            f"{kind}: {path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc


def _locate_data(kind: str, genus: int, explicit: str | None) -> str | None:
    """Return the text of the ``kind`` file for ``genus``.

    ``None`` means: no file anywhere, fall back to the built-in
    construction.  An explicit path that does not exist, or a file that
    cannot be read as UTF-8 text, is a ``_WorldError`` naming ``kind``.
    """
    if explicit is not None:
        return _read_data(kind, Path(explicit))
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / f"{kind}_g{genus}.txt"
        if candidate.is_file():
            return _read_data(kind, candidate)
    return None


def _spelled(letters: tuple[int, ...], sep: str) -> str:
    if not letters:
        return "1"
    return sep.join(letter_str(letter) for letter in letters)


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
        "--seed", type=int, default=0, help="seed for randomized property checks"
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


def _expand_curve_list(spec_text: str, genus: int) -> list[str]:
    names: list[str] = []

    def push(name: str) -> None:
        if name not in names:
            names.append(name)

    for token in spec_text.replace(",", " ").split():
        if token == "X0":
            if genus < MIN_RICH_GENUS:
                raise UnknownCurveError(
                    f"X0 needs genus >= {MIN_RICH_GENUS}, got {genus}"
                )
            for name in x0_names(genus):
                push(name)
            continue
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            lo = chain_index(canonical_curve_name(lo_text) or "")
            hi = chain_index(canonical_curve_name(hi_text) or "")
            if lo is None or hi is None:
                raise UnknownCurveError(f"bad range {token!r}: use alphaI..alphaJ")
            if lo > hi:
                raise UnknownCurveError(f"bad range {token!r}: empty")
            for i in range(lo, hi + 1):
                push(f"alpha_{i}")
            continue
        canon = canonical_curve_name(token)
        if canon is None:
            raise UnknownCurveError(f"unknown curve name {token!r}")
        push(canon)
    return names


# -- world loading -------------------------------------------------------


class _WorldError(Exception):
    """A data file failed to load; message is user-facing."""


def _load_registry(args) -> Registry:
    text = _locate_data("registry", args.genus, args.registry)
    spec = SurfaceSpec(args.genus, args.n)
    if text is None:
        return standard_registry(spec)
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


def _note_bordered_answer(args) -> None:
    # An answer on N_{g,1} maps to N_g, where x1^2...xg^2 = 1 as well.
    if args.n == 0:
        g = args.genus
        print(
            f"note: answered on the bordered model N_{{{g},1}}; on the closed "
            f"N_{g} read it modulo x1^2...x{g}^2 = 1",
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

    # stage 6: homology smoke tests
    failures: list[str] = []
    matrices = {name: abelianize(gen.auto) for name, gen in generators.items()}
    for name, matrix in matrices.items():
        det = matrix.det()
        if det not in (1, -1):
            failures.append(f"det t_{name} = {det}")
    cert = certificates["f"]
    direct = matrices["f"]
    via_expression = abelianize(evaluate(cert.expression, generators, args.genus))
    if direct != via_expression:
        failures.append("matrix of f disagrees with its certificate expression")
    rng = random.Random(args.seed)
    names = sorted(generators)
    for _ in range(10):
        e1 = " ".join(rng.choice(names) for _ in range(rng.randint(1, 4)))
        e2 = " ".join(rng.choice(names) for _ in range(rng.randint(1, 4)))
        p = evaluate(e1, generators, args.genus)
        q = evaluate(e2, generators, args.genus)
        composite = abelianize(p.after(q))
        if composite != abelianize(p) * abelianize(q):
            failures.append(f"functoriality fails on {e1!r} after {e2!r}")
            break
    if failures:
        log.record("homology-smoke", "FAIL", failures[0])
        return log.finish()
    log.record(
        "homology-smoke", "PASS", "determinants are units; products match"
    )
    return log.finish()


# -- the small commands --------------------------------------------------


def _cmd_relation(args) -> int:
    registry = _load_registry(args)
    generators = _load_generators(registry)
    lhs = evaluate(args.lhs, generators, args.genus)
    rhs = evaluate(args.rhs, generators, args.genus)
    if equal(lhs, rhs):
        print("result=EQUAL" if args.fmt == "structured" else "EQUAL")
        return 0
    where = first_difference(lhs, rhs)
    if args.n == 0:
        # Equal twists on the bordered model stay equal once it is capped,
        # but unequal ones may become equal: the twist about gamma, which
        # bounds the first four crosscaps, is trivial on N_4.
        g = args.genus
        if args.fmt == "structured":
            print(f"result=UNDECIDED bordered=UNEQUAL first_difference={where}")
        else:
            print(f"UNEQUAL on N_{{{g},1}} (images first differ at {where}); undecided on N_{g}")
        return 3
    if args.fmt == "structured":
        print(f"result=UNEQUAL first_difference={where}")
    else:
        print(f"UNEQUAL (images first differ at {where})")
    return 1


def _cmd_apply_curve(args) -> int:
    registry = _load_registry(args)
    generators = _load_generators(registry)
    image = apply_to_curve(registry, generators, args.expression, args.curve)
    _note_bordered_answer(args)
    if args.fmt == "structured":
        print(f"class={_spelled(image.letters, ',')}")
    else:
        print(_spelled(image.letters, " "))
    return 0


def _cmd_homology(args) -> int:
    registry = _load_registry(args)
    generators = _load_generators(registry)
    auto = evaluate(args.expression, generators, args.genus)
    matrix = abelianize(auto)
    _note_bordered_answer(args)
    if args.fmt == "structured":
        print(f"matrix={matrix.structured()}")
    else:
        print(matrix.format_text())
    return 0


def _cmd_complement(args) -> int:
    # imported here, so that no other command loads the cut complex
    from crosscap.cutting import cut_along

    registry = _load_registry(args)
    names = _expand_curve_list(args.curves, args.genus)
    if args.drop is not None:
        canon = canonical_curve_name(args.drop)
        if canon is None or canon not in names:
            raise UnknownCurveError(f"--drop {args.drop!r}: not in the selected set")
        names.remove(canon)
    report = cut_along(registry, names)
    if args.fmt == "structured":
        for line in report.structured_lines():
            print(line)
    else:
        print(report.format_text())
    return 0


def _cmd_validate_data(args) -> int:
    log = _StageLog(args.fmt, "check", "validate-data: PASS", "validate-data: FAIL")

    registry = generators = None
    try:
        registry = _load_registry(args)
        report = validate_registry(registry)
        if report.ok:
            log.record("registry", "PASS", f"{len(report.results)} checks")
        else:
            first = report.failures()[0]
            log.record("registry", "FAIL", f"{first.check} {first.subject}: {first.detail}")
    except _WorldError as exc:
        log.record("registry", "FAIL", str(exc))

    if registry is not None:
        try:
            generators = _load_generators(registry)
            log.record("twist-tables", "PASS", "derived in memory")
        except _WorldError as exc:
            log.record("twist-tables", "FAIL", str(exc))
    else:
        log.record("twist-tables", "FAIL", "registry unavailable")

    try:
        certificates = _load_certificates(args)
    except _WorldError as exc:
        log.record("certificates", "FAIL", str(exc))
    else:
        fault = None
        if generators is not None and "f" not in certificates:
            fault = "no certificate for f"
        elif generators is not None:
            faults = (_certificate_fault(c, generators, args.genus) for c in certificates.values())
            fault = next(filter(None, faults), None)
        if fault:
            log.record("certificates", "FAIL", fault)
        else:
            log.record("certificates", "PASS", f"targets: {', '.join(sorted(certificates))}")
    return log.finish()


_COMMANDS: dict[str, Callable] = {
    "verify-theorem": _cmd_verify_theorem,
    "relation": _cmd_relation,
    "apply-curve": _cmd_apply_curve,
    "homology": _cmd_homology,
    "complement": _cmd_complement,
    "validate-data": _cmd_validate_data,
}


#: option -> the commands that read it (see _build_parser); each takes one value
_SCOPED = {"--seed": ("verify-theorem",), "--certificates": ("verify-theorem", "validate-data")}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # A command's parser takes the value of an option it does not read
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
    try:
        status = _COMMANDS[args.command](args)
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
    sys.exit(main())
