"""The text formats of the data files: curve registries and certificates.

A registry file holds one ``name | pi1_word | normal_coords | arrow``
record a line (see :func:`registry_text`), whose word must be the class
its coordinates spell; a certificates file holds one ``target | allowed |
expression`` line, for a target in ``twists.CERTIFICATE_TARGETS``.  In
both, ``#`` starts a comment.
Only a command that has found a data file imports this module.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from crosscap import surface
from crosscap.polygon import SIDE, Event, spell_cyclic
from crosscap.surface import CurveRecord, Registry, SurfaceSpec, canonical_curve_name
from crosscap.twists import CERTIFICATE_TARGETS, Certificate, CertificateError
from crosscap.words import CyclicWord, Word


class RegistryFormatError(ValueError):
    """A registry file that does not follow the line grammar."""


def registry_text(registry: Registry) -> str:
    """Serialise a registry to the ``name | word | coords | arrow`` format."""
    g = registry.spec.genus
    lines = [
        f"# curve registry, genus {g} (one-boundary model)",
        "# name | pi1_word | normal_coords | arrow",
    ]
    for rec in registry:
        coords = ",".join(rec.tokens())
        lines.append(f"{rec.name} | {rec.word} | {coords} | {rec.arrow:+d}")
    return "\n".join(lines) + "\n"


def parse_event_token(token: str, genus: int, t: int) -> Event:
    """Build an Event from a normal-coordinate token ``A<i>+`` / ``A<i>-``."""
    tok = token.strip()
    if len(tok) < 3 or tok[0] != "A" or tok[-1] not in "+-":
        raise ValueError(f"cannot parse crossing token {token!r}")
    try:
        pair = int(tok[1:-1])
    except ValueError:
        raise ValueError(f"cannot parse crossing token {token!r}") from None
    if not (1 <= pair <= genus):
        raise ValueError(f"crossing token {token!r} out of range for genus {genus}")
    return Event(pair, tok[-1] == "+", t)


def _fallback_params(token_pairs: Sequence[tuple[int, bool]]) -> list[int]:
    # Parameters for curves with no frozen layout: the k-th crossing of
    # pair p lands in (0.7, 0.95), a zone no shipped layout uses, so a
    # foreign curve can still be measured against the standard ones.
    # They order as 7/10 + (2j+1)/(8m) would for up to 16 crossings of
    # one pair.
    mult: dict[int, int] = {}
    for pair, _ in token_pairs:
        mult[pair] = mult.get(pair, 0) + 1
    seen: dict[int, int] = {}
    out: list[int] = []
    for pair, _ in token_pairs:
        j = seen.get(pair, 0)
        seen[pair] = j + 1
        out.append(7 * SIDE // 10 + (2 * j + 1) * SIDE // (8 * mult[pair]))
    return out


def _events_for(
    genus: int, frozen: tuple[Event, ...] | None, tokens: Sequence[str], line_no: int
) -> tuple[Event, ...]:
    try:
        shaped = [parse_event_token(tok, genus, SIDE // 2) for tok in tokens]
    except ValueError as exc:
        raise RegistryFormatError(f"line {line_no}: {exc}") from None
    if frozen is not None and [ev.token() for ev in frozen] == list(tokens):
        return frozen
    params = _fallback_params([(ev.pair, ev.hit_b) for ev in shaped])
    return tuple(Event(ev.pair, ev.hit_b, t) for ev, t in zip(shaped, params))


def parse_registry(
    spec: SurfaceSpec, text: str, note: Callable[[str], None] | None = None
) -> Registry:
    """Parse the registry file format; see :func:`registry_text`.

    A record whose word is not, up to orientation, the class its tokens
    spell is refused.  A curve whose tokens are not its frozen layout is
    placed at fallback parameters, and ``note``, when given, is called with
    a line naming it.
    """
    records: dict[str, CurveRecord] = {}
    # a record whose tokens match the frozen layout of its name takes its events
    frozen = {name: events for name, (events, _) in surface._frozen_layouts(spec.genus).items()}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise RegistryFormatError(
                f"line {line_no}: expected 4 '|'-separated fields, got {len(parts)}"
            )
        raw_name, word_text, coords_text, arrow_text = parts
        name = canonical_curve_name(raw_name)
        if name is None:
            raise RegistryFormatError(
                f"line {line_no}: unknown curve name {raw_name!r}"
            )
        if name in records:
            raise RegistryFormatError(f"line {line_no}: duplicate record for {name}")
        need = surface._required_genus(name)
        if need > spec.genus:
            raise RegistryFormatError(
                f"line {line_no}: curve {name} needs genus >= {need}, "
                f"surface has genus {spec.genus}"
            )
        try:
            word = Word.parse(word_text, spec.genus)
        except ValueError as exc:
            raise RegistryFormatError(f"line {line_no}: {exc}") from None
        tokens = tuple(tok.strip() for tok in coords_text.split(",") if tok.strip())
        if not tokens:
            raise RegistryFormatError(f"line {line_no}: empty normal coordinates")
        if arrow_text not in ("+1", "1", "-1"):
            raise RegistryFormatError(
                f"line {line_no}: arrow must be +1 or -1, got {arrow_text!r}"
            )
        arrow = -1 if arrow_text == "-1" else 1
        layout = frozen.get(name)
        events = _events_for(spec.genus, layout, tokens, line_no)
        spelled = CyclicWord.of(spell_cyclic(spec.genus, events)).unoriented()
        if CyclicWord.of(word).unoriented() != spelled:
            raise RegistryFormatError(
                f"line {line_no}: the word of {name} is not the class its "
                f"coordinates spell, '{spelled}'"
            )
        if events is not layout and note is not None:
            note(
                f"curve {name} is placed at fallback parameters: its tokens "
                f"{','.join(tokens)} are not a frozen layout of that name"
            )
        records[name] = CurveRecord(name=name, word=word, events=events, arrow=arrow)
    if not records:
        raise RegistryFormatError("registry file contains no curve records")
    return Registry(spec, records)


def parse_certificates(text: str) -> dict[str, Certificate]:
    certs: dict[str, Certificate] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise CertificateError(
                f"line {line_no}: expected 'target | allowed | expression'"
            )
        target, allowed_text, expression = parts
        if target not in CERTIFICATE_TARGETS:
            raise CertificateError(
                f"line {line_no}: no certificate is read for {target!r} "
                f"(targets: {', '.join(CERTIFICATE_TARGETS)})"
            )
        if target in certs:
            raise CertificateError(f"line {line_no}: duplicate certificate for {target}")
        allowed = tuple(
            name.strip() for name in allowed_text.split(",") if name.strip()
        )
        if not allowed:
            raise CertificateError(f"line {line_no}: empty allowed set")
        certs[target] = Certificate(target, allowed, expression)
    return certs
