"""The five small commands of ``crosscap``: ``relation``, ``apply-curve``,
``homology``, ``complement`` and ``validate-data``; and the argparse
parser, for the command lines that ``cli.read_args`` does not take.

``cli.main`` imports this module only to run one of the small commands,
or to hand ``read_refused`` such a command line, so that a plain
``verify-theorem`` compiles none of it.  argparse, built from
``cli.OPTIONS``, prints ``-h`` or its own usage error there, in the
running version's words; this module names unrecognized arguments option
by option and words the genus bounds.  Data loading, the stage log and
the errors that ``main`` reports stay in ``cli``.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Sequence

from crosscap.cli import (
    _HELP,
    CHECKING_COMMANDS,
    OPTIONS,
    _certificate_fault,
    _load_certificates,
    _load_generators,
    _load_registry,
    _option,
    _StageLog,
    _WorldError,
)
from crosscap.surface import (
    MIN_RICH_GENUS,
    SurfaceSpec,
    UnknownCurveError,
    canonical_curve_name,
    chain_index,
    validate_registry,
    x0_names,
)
from crosscap.twists import apply_to_curve, equal, evaluate, first_difference
from crosscap.words import letter_str


# -- the command lines that cli.read_args does not take ----------------------

#: each command and its line in ``crosscap -h``, in ``cli.EVERY_COMMAND``'s order
SUMMARIES = {
    "verify-theorem": "run the full staged verification suite",
    "relation": "compare two twist expressions",
    "apply-curve": "image of a curve under an expression",
    "homology": "integral matrix of an expression",
    "complement": "cut the surface along curves",
    "validate-data": "check external data files",
}


def _strays(command: str, tokens: Sequence[str]) -> list[str]:
    """The options in ``tokens`` that argparse does not know, in order: an
    option of another command with the value it was given, any other one
    alone.  Every token after the first ``--`` is a positional."""
    at = tokens.index(command)
    strays = [token for token in tokens[:at] if token != "--"]
    rest = tokens[at + 1 :]
    cut = rest.index("--") if "--" in rest else len(rest)
    options = [
        *_HELP,
        *(name for name, (takers, _) in OPTIONS.items() if command in takers and name[0] == "-"),
    ]
    kinds = [_option(token, options) for token in rest[:cut]]
    k = 0
    while k < cut:
        token, kind = rest[k], kinds[k]
        k += 1
        if kind is None or kind[0]:
            continue
        # argparse still takes the value for a positional
        if "=" not in token and any(name.startswith(token) for name in OPTIONS):
            if k < cut and kinds[k] is None:
                token = f"{token} {rest[k]}"
                k += 1
        strays.append(token)
    return strays


def read_refused(tokens: Sequence[str]):
    """Read through argparse a command line that ``cli.read_args`` did not
    take.  argparse prints ``-h`` or its own usage error and exits, with
    status 0 and 2; unrecognized arguments are named as ``_strays`` names
    them, and the genus bounds are checked here.  A line that the running
    argparse takes after all (``crosscap -- relation ...`` from 3.12 on) is
    read as it reads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="crosscap",
        description="Twist computations on non-orientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in SUMMARIES.items():
        p = sub.add_parser(command, help=summary)
        for name, (takers, spec) in OPTIONS.items():
            if command in takers:
                p.add_argument(name, **spec)
    args, extras = parser.parse_known_args(tokens)
    if extras:
        named = _strays(args.command, tokens) or extras
        parser.error(f"unrecognized arguments: {' '.join(named)}")
    try:
        SurfaceSpec(args.genus, args.n)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command in CHECKING_COMMANDS and args.genus < MIN_RICH_GENUS:
        parser.error(
            f"{args.command} needs --genus >= {MIN_RICH_GENUS} "
            f"(the twist family below that is too small), got {args.genus}"
        )
    return args


# -- the small commands ------------------------------------------------------


def _spelled(letters: tuple[int, ...], sep: str) -> str:
    if not letters:
        return "1"
    return sep.join(letter_str(letter) for letter in letters)


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


def _note_bordered_answer(args) -> None:
    # An answer on N_{g,1} maps to N_g, where x1^2...xg^2 = 1 as well.
    if args.n == 0:
        g = args.genus
        print(
            f"note: answered on the bordered model N_{{{g},1}}; on the closed "
            f"N_{g} read it modulo x1^2...x{g}^2 = 1",
            file=sys.stderr,
        )


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
    # imported here, so that no other command loads the integer matrices
    from crosscap.homology import abelianize

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


COMMANDS: dict[str, Callable] = {
    "relation": _cmd_relation,
    "apply-curve": _cmd_apply_curve,
    "homology": _cmd_homology,
    "complement": _cmd_complement,
    "validate-data": _cmd_validate_data,
}
