"""The argparse command line of ``crosscap``, and its five small commands:
``relation``, ``apply-curve``, ``homology``, ``complement`` and
``validate-data``.

``cli.main`` imports this module only to read a command line that is not
a plain verify-theorem call (usage, a usage error, another command), or
to run one of the small commands, so that a plain ``verify-theorem``
compiles neither argparse nor them.  The parser is built from
``cli.OPTIONS``, the one list of the options.  Data loading, the stage
log and the errors that ``main`` reports stay in ``cli``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from crosscap.cli import (
    CHECKING_COMMANDS,
    OPTIONS,
    _certificate_fault,
    _load_certificates,
    _load_generators,
    _load_registry,
    _StageLog,
    _WorldError,
)
from crosscap.homology import abelianize
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


# -- the command line, read by argparse ------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosscap",
        description="Twist computations on non-orientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for option, (takers, spec) in OPTIONS.items():
            if name in takers:
                p.add_argument(option, **spec)
        return p

    command("verify-theorem", "run the full staged verification suite")
    p_rel = command("relation", "compare two twist expressions")
    p_rel.add_argument("lhs", help="left expression, e.g. 'a1 a2 a1'")
    p_rel.add_argument("rhs", help="right expression, e.g. 'a2 a1 a2'")
    p_apply = command("apply-curve", "image of a curve under an expression")
    p_apply.add_argument("expression")
    p_apply.add_argument("curve", help="registered curve name, e.g. epsilon")
    p_hom = command("homology", "integral matrix of an expression")
    p_hom.add_argument("expression")
    p_comp = command("complement", "cut the surface along curves")
    p_comp.add_argument(
        "--curves",
        required=True,
        help="comma/space separated names; ranges like alpha1..alpha4; X0; '' for none",
    )
    p_comp.add_argument("--drop", metavar="NAME", help="remove one name from the set")
    command("validate-data", "check external data files")
    return parser


def parse_args(tokens: Sequence[str]) -> argparse.Namespace:
    """Read any command line; usage and usage errors print and exit."""
    parser = _build_parser()
    args, extras = parser.parse_known_args(tokens)
    if extras:
        # A command's parser takes the value of an option it does not accept
        # for a positional when the option, or an abbreviation of it, stands
        # before them.  Moved last, with its value, it is reported as given.
        unread = [option for option, (takers, _) in OPTIONS.items() if args.command not in takers]
        tokens, moved, at = list(tokens), [], 0
        while at < len(tokens):
            if len(tokens[at]) > 2 and any(o.startswith(tokens[at]) for o in unread):
                moved += tokens[at : at + 2]
                del tokens[at : at + 2]
            else:
                at += 1
        extras = parser.parse_known_args(tokens + moved)[1]
        # Short of positionals, the parser takes the first moved values for
        # them: the extras end with those options alone, then the rest of
        # moved.  Each option is still quoted with its value.
        for lent in range(len(moved) // 2 + 1):
            tail = moved[: 2 * lent : 2] + moved[2 * lent :]
            if extras[len(extras) - len(tail) :] == tail:
                extras[len(extras) - len(tail) :] = moved
                break
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
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
