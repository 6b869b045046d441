"""Curve registry for non-orientable surfaces of genus >= 2.

A :class:`SurfaceSpec` names the surface (genus, and 0 or 1 boundary
circles).  A :class:`Registry` holds the named curves that the twist
engine works with: the chain ``alpha_1 .. alpha_{g-1}``, and for genus
at least 4 also ``beta``, ``gamma``, ``epsilon``, ``zeta`` and ``psi``.
Each :class:`CurveRecord` stores a fundamental-group representative, the
curve's normal coordinates (crossing events with the crosscap arcs), and
the arrow tag that orients its Dehn twist.

The canonical layouts shipped here were searched once for embeddedness
and the required crossing pattern and then frozen; everything else in
the package treats the registry as data and re-checks it through
:func:`validate_registry`.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping, Sequence
from functools import cached_property

from crosscap.polygon import (
    SIDE,
    CrossingTable,
    CurveGeometry,
    DegeneratePositionError,
    Event,
    crossing_count,  # not used here; perfbench's tests trace it through this module
    spell_cyclic,
)
from crosscap.words import CyclicWord, Record, Word, mod2_class

#: beta, gamma, epsilon, zeta and psi all need at least four crosscaps.
MIN_RICH_GENUS = 4

#: The largest genus a SurfaceSpec accepts.  On a 2-vCPU Xeon VM under
#: Python 3.11, ``verify-theorem --n 1`` in a fresh interpreter with no
#: bytecode cache takes 0.13 s and 17 MB peak RSS at genus 100, and 0.28 s
#: and 23 MB at genus 200 with the bound raised (best of 9 wall times; the
#: child's ru_maxrss).
MAX_GENUS = 100

_CHAIN_NAME_RE = re.compile(r"alpha[_]?([1-9]\d*)$")
_SPORADIC_NAMES = ("beta", "gamma", "epsilon", "zeta", "psi")


class UnknownCurveError(LookupError):
    """A curve name that the registry cannot resolve."""


class SurfaceSpec(Record):
    """The surface ``N_{g,n}``: genus ``g`` crosscaps, ``n`` boundary circles."""

    __slots__ = ("genus", "boundary")

    def __init__(self, genus: int, boundary: int) -> None:
        if genus < 2:
            raise ValueError(f"genus must be at least 2, got {genus}")
        if genus > MAX_GENUS:
            raise ValueError(f"genus {genus} is above the bound MAX_GENUS = {MAX_GENUS}")
        if boundary not in (0, 1):
            raise ValueError(
                f"only 0 or 1 boundary circles are supported, got {boundary}"
            )
        super().__init__(genus, boundary)


def chain_index(name: str) -> int | None:
    """The ``i`` of the chain curve ``alpha_i`` (or ``alphai``); None for other names."""
    m = _CHAIN_NAME_RE.match(name)
    return int(m.group(1)) if m else None


def canonical_curve_name(name: str) -> str | None:
    """Normalise a curve name (``alpha3`` -> ``alpha_3``); None if unknown."""
    text = name.strip().lower()
    i = chain_index(text)
    if i is not None:
        return f"alpha_{i}"
    if text in _SPORADIC_NAMES:
        return text
    return None


class CurveRecord(Record):
    """One registered curve: name, pi1 representative, crossings, arrow."""

    __slots__ = ("name", "word", "events", "arrow")

    def __init__(self, name: str, word: Word, events: tuple[Event, ...], arrow: int) -> None:
        if arrow not in (1, -1):
            raise ValueError(f"twist arrow must be +1 or -1, got {arrow}")
        if not events:
            raise ValueError(f"curve {name!r} has no crossing events")
        super().__init__(name, word, events, arrow)

    @property
    def genus(self) -> int:
        return self.word.genus

    def tokens(self) -> tuple[str, ...]:
        return tuple(ev.token() for ev in self.events)

    def unoriented_class(self) -> CyclicWord:
        return CyclicWord.of(self.word).unoriented()

    def geometry(self) -> CurveGeometry:
        return CurveGeometry(self.genus, self.events)


# -- frozen layouts ----------------------------------------------------------


def _grid(num: int, den: int) -> int:
    """The side parameter num/den on the grid of polygon.SIDE; it must lie
    on the grid exactly, or the layout would not be the one frozen."""
    t, rest = divmod(num * SIDE, den)
    if rest:
        raise ValueError(f"layout parameter {num}/{den} is not on the grid 1/{SIDE}")
    return t


_BETA_EVENTS = (
    Event(4, True, _grid(9, 16)),
    Event(3, True, _grid(1, 2)),
    Event(2, True, _grid(7, 16)),
    Event(1, True, _grid(3, 8)),
)

_EPSILON_EVENTS = (
    Event(1, False, _grid(5, 32)),
    Event(2, False, _grid(5, 32)),
    Event(4, False, _grid(5, 32)),
    Event(4, False, _grid(13, 32)),
)

_ZETA_EVENTS = (
    Event(2, True, _grid(11, 256)),
    Event(3, False, _grid(75, 256)),
    Event(4, True, _grid(75, 256)),
    Event(3, True, _grid(139, 256)),
    Event(4, True, _grid(139, 256)),
    Event(4, True, _grid(11, 256)),
    Event(3, True, _grid(203, 256)),
    Event(3, True, _grid(11, 256)),
)

_PSI_EVENTS = (
    Event(1, False, _grid(1, 64)),
    Event(1, False, _grid(63, 64)),
    Event(2, False, _grid(1, 64)),
    Event(2, False, _grid(63, 64)),
)

_GAMMA_EVENTS = tuple(
    Event(i, False, t) for i in (1, 2, 3, 4) for t in (_grid(1, 128), _grid(127, 128))
)


def _chain_events(i: int) -> tuple[Event, ...]:
    return (Event(i, True, _grid(2, 3)), Event(i + 1, True, _grid(1, 3)))


def _frozen_layouts(genus: int) -> dict[str, tuple[tuple[Event, ...], int]]:
    layouts: dict[str, tuple[tuple[Event, ...], int]] = {}
    for i in range(1, genus):
        layouts[f"alpha_{i}"] = (_chain_events(i), 1)
    if genus >= MIN_RICH_GENUS:
        # beta's arrow is -1 relative to the chain (the braid relation
        # with alpha_4 holds only for opposite tags on these layouts),
        # and zeta's is pinned by the key conjugation with epsilon.
        layouts["beta"] = (_BETA_EVENTS, -1)
        layouts["gamma"] = (_GAMMA_EVENTS, 1)
        layouts["epsilon"] = (_EPSILON_EVENTS, 1)
        layouts["zeta"] = (_ZETA_EVENTS, -1)
        layouts["psi"] = (_PSI_EVENTS, 1)
    return layouts


def _required_genus(name: str) -> int:
    i = chain_index(name)
    return MIN_RICH_GENUS if i is None else i + 1


class Registry:
    """Named curves on one surface, with cached exact geometry."""

    def __init__(self, spec: SurfaceSpec, records: Mapping[str, CurveRecord]):
        for name, rec in records.items():
            if rec.name != name:
                raise ValueError(f"record {rec.name!r} filed under {name!r}")
            canon = canonical_curve_name(name)
            if canon != name:
                raise ValueError(
                    f"record filed under {name!r}, not under its canonical name {canon!r}"
                    if canon is not None
                    else f"record filed under {name!r}, which is no curve name"
                )
            if rec.genus != spec.genus:
                raise ValueError(
                    f"curve {name!r} has genus {rec.genus}, surface has {spec.genus}"
                )
        self.spec = spec
        # every key is a canonical name, so a canonical name is looked up as given
        self._records: dict[str, CurveRecord] = dict(records)
        # filled by geometry() under a record's name
        self._geometries: dict[str, CurveGeometry] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Registry):
            return NotImplemented
        return self.spec == other.spec and self._records == other._records

    def __iter__(self) -> Iterator[CurveRecord]:
        return iter(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        canon = canonical_curve_name(name)
        return canon in self._records

    def names(self) -> tuple[str, ...]:
        return tuple(self._records)

    def curve(self, name: str) -> CurveRecord:
        rec = self._records.get(name)
        if rec is not None:
            return rec
        canon = canonical_curve_name(name)
        if canon is None:
            raise UnknownCurveError(
                f"unknown curve name {name!r}; registered: {', '.join(self._records)}"
            )
        rec = self._records.get(canon)
        if rec is None:
            need = _required_genus(canon)
            if need > self.spec.genus:
                raise UnknownCurveError(
                    f"curve {canon} needs genus >= {need}; "
                    f"this surface has genus {self.spec.genus}"
                )
            raise UnknownCurveError(
                f"curve {canon} is not registered; "
                f"registered: {', '.join(self._records)}"
            )
        return rec

    def geometry(self, name: str) -> CurveGeometry:
        geom = self._geometries.get(name)
        if geom is None:
            rec = self.curve(name)
            if rec.name not in self._geometries:
                self._geometries[rec.name] = rec.geometry()
            geom = self._geometries[rec.name]
        return geom

    @cached_property
    def crossings(self) -> CrossingTable:
        """Crossing counts among the registered curves, by name, swept once."""
        return CrossingTable({name: self.geometry(name) for name in self._records})

    def replaced(self, record: CurveRecord) -> "Registry":
        """A copy with one record swapped out (used by tests)."""
        if record.name not in self._records:
            raise UnknownCurveError(f"curve {record.name!r} is not registered")
        records = dict(self._records)
        records[record.name] = record
        return Registry(self.spec, records)


def standard_registry(spec: SurfaceSpec) -> Registry:
    """The shipped curve set for this surface, built from frozen layouts."""
    records: dict[str, CurveRecord] = {}
    for name, (events, arrow) in _frozen_layouts(spec.genus).items():
        word = spell_cyclic(spec.genus, events)
        records[name] = CurveRecord(name=name, word=word, events=events, arrow=arrow)
    return Registry(spec, records)


def x0_names(genus: int) -> tuple[str, ...]:
    """The generating set X0: the full chain plus beta and epsilon."""
    if genus < MIN_RICH_GENUS:
        raise ValueError(f"the X0 curve set needs genus >= 4, got {genus}")
    # from a list, not a generator: tuple() of a generator builds and
    # resizes tuples that then pile up in CPython's free lists
    return tuple([f"alpha_{i}" for i in range(1, genus)] + ["beta", "epsilon"])


# -- validation --------------------------------------------------------------


class CheckResult(Record):
    __slots__ = ("check", "subject", "ok", "detail")


class RegistryReport(Record):
    __slots__ = ("results",)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok)


def _expected_mod2_class(name: str) -> int | None:
    """Mod-2 homology pinned by the standard picture (chain and beta only),
    as a bit row of :func:`words.mod2_class`: alpha_i is x_i + x_{i+1},
    and beta is x1 + x2 + x3 + x4."""
    i = chain_index(name)
    if i is not None:
        return 0b11 << (i - 1)
    return 0b1111 if name == "beta" else None


def _bit_tuple(row: int, genus: int) -> tuple[int, ...]:
    """A bit row as the 0/1 tuple over x1..x_genus that reports print."""
    return tuple(row >> k & 1 for k in range(genus))


def _bigon_positions(events: Sequence[Event]) -> list[int]:
    """Indices j where events j, j+1 cross the same arc in opposite
    directions - a removable bigon with the arc system.  Same-direction
    repeats wrap a crosscap and are legitimate."""
    m = len(events)
    if m < 2:
        return []
    out = []
    for j in range(m):
        nxt = events[(j + 1) % m]
        if events[j].pair == nxt.pair and events[j].hit_b != nxt.hit_b:
            out.append(j)
    return out


def validate_registry(registry: Registry) -> RegistryReport:
    """Run every registry-level soundness check and report each result.

    Checks, per curve: even crossing parity (the registered curves are
    all two-sided), embeddedness of the chord layout, absence of
    removable bigons with the arcs, agreement of the stored word with
    the word spelled from the normal coordinates, and - for the chain
    and beta - the mod-2 homology class the standard picture demands.
    Pairwise: the chain/beta intersection pattern.  A registry file whose
    word column contradicts its coordinates is refused when it is read
    (see ``files.parse_registry``), so the ``word-coordinates`` row fails
    only on a record built by hand.
    """
    results: list[CheckResult] = []
    g = registry.spec.genus
    for rec in registry:
        row = mod2_class(rec.word)
        word_par = row.bit_count() % 2
        event_par = len(rec.events) % 2
        results.append(
            CheckResult(
                "two-sided-parity",
                rec.name,
                word_par == 0 and event_par == 0,
                f"exponent sum parity {word_par}, crossing parity {event_par}",
            )
        )
        try:
            crossings = registry.crossings.count(rec.name, rec.name)
            ok, detail = crossings == 0, f"{crossings} self-crossings"
        except DegeneratePositionError as exc:
            ok, detail = False, str(exc)
        results.append(CheckResult("embedded", rec.name, ok, detail))
        bigons = _bigon_positions(rec.events)
        results.append(
            CheckResult(
                "bigon-free",
                rec.name,
                not bigons,
                "no removable bigon with the arc system"
                if not bigons
                else f"removable bigon after crossing {bigons[0]}",
            )
        )
        spelled = CyclicWord.of(spell_cyclic(g, rec.events)).unoriented()
        declared = rec.unoriented_class()
        results.append(
            CheckResult(
                "word-coordinates",
                rec.name,
                spelled == declared,
                f"coordinates spell '{spelled}', record says '{declared}'",
            )
        )
        expected = _expected_mod2_class(rec.name)
        if expected is not None:
            results.append(
                CheckResult(
                    "homology",
                    rec.name,
                    row == expected,
                    f"mod-2 class {_bit_tuple(row, g)}, "
                    f"standard picture demands {_bit_tuple(expected, g)}",
                )
            )
    results.extend(_intersection_pattern(registry))
    return RegistryReport(tuple(results))


def _intersection_pattern(registry: Registry) -> list[CheckResult]:
    g = registry.spec.genus
    chain = [i for i in range(1, g) if f"alpha_{i}" in registry]
    results: list[CheckResult] = []

    def expect(a: str, b: str, want: int) -> None:
        try:
            got = registry.crossings.count(a, b)
            ok, detail = got == want, f"expected {want}, measured {got}"
        except DegeneratePositionError as exc:
            ok, detail = False, f"degenerate: {exc}"
        results.append(CheckResult("intersection", f"{a}~{b}", ok, detail))

    for n, i in enumerate(chain):
        for j in chain[n + 1 :]:
            expect(f"alpha_{i}", f"alpha_{j}", 1 if j - i == 1 else 0)
    if "beta" in registry:
        for i in chain:
            expect("beta", f"alpha_{i}", 1 if i == 4 else 0)
    return results
