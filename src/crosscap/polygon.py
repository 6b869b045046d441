"""Combinatorial polygon model of a non-orientable surface.

A genus-``g`` surface with one boundary circle is presented as a
``(2g+1)``-gon: boundary coordinate ``c`` runs over ``[0, 2g+1)``, side
``k`` occupies ``[k-1, k]``, and sides ``2i-1`` / ``2i`` (the two copies
of crosscap ``i``) are glued parameter-to-parameter.  The last side is
the surface boundary.  All polygon corners map to a single vertex ``v``
on the boundary, and the fundamental group is free on the glued edges
``x1 .. xg``.

Curves and based loops are stored as sequences of crossing events with
the glued sides; between crossings they run along chords of the disk,
each given by its two boundary endpoints.  Everything here depends only
on the cyclic order of those endpoints, so no point is built:

* two chords cross exactly when their endpoints interleave, so a sweep
  over the endpoints in key order finds every crossing;
* a based loop runs along chords from the anchor, which lies below
  every key, so a curve chord crosses the one through key ``k`` exactly
  when its ends lie on either side of ``k``; the chords of an embedded
  curve cross none of one another, so those meet it in the order of
  their lower ends (into ``k``) or of their upper ends (out of ``k``),
  and the end met tells which way each one crosses;
* any two arcs in a disk with the same endpoints are homotopic rel
  endpoints, so each chord may be replaced by a monotone walk along the
  glued sides, and loop words are read off from one marker per side,
  placed just after the side's start corner.

A side parameter is an integer ``t`` with ``0 < t < SIDE``: the point
``t`` of side ``k`` has the boundary coordinate ``(k - 1) + t / SIDE``
and the integer key ``(k - 1) * SIDE + t``.  Keys sort exactly as the
coordinates do, two endpoints share a key exactly when they share a
coordinate, and the anchor of based loops, just inside the polygon a
hair counterclockwise of the vertex v, has key 0, below every other, so
every comparison is one of integers.  A :class:`CurveGeometry` builds its
chords as key pairs once, and crossings, twists and the cut complex of
``cutting`` all read them.  A shared endpoint is still reported by its
coordinate, not its key.

Dehn twists act by splicing a lap of the twisting curve's side stops
into a based loop at every chord crossing.  The lap's direction
accounts for the orientation reversal that each crosscap passage
inflicts on the plane frame.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, groupby
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from crosscap.words import Record, Word, _reduce

#: The side parameters' grid: a side holds the parameters 1 .. SIDE - 1.
#: 3840 = 2**8 * 3 * 5, so every frozen layout parameter of ``surface``
#: (thirds and 256ths) and every one-crossing fallback parameter lies on
#: it exactly, and keys stay below 2**30 up to genus 139,000.
SIDE = 3840

#: The most letters one substitution may push before cancelling: about 13
#: times the most that any test or benchmark workload pushes (227,321, in
#: the soundness tests), and a bound on the memory an expansion can take.
MAX_IMAGE_LETTERS = 3_000_000

#: A chord as the keys of its (tail, head) endpoints.
Chord = tuple[int, int]


class DegeneratePositionError(Exception):
    """Two chords share an endpoint coordinate, so whether they cross is
    not defined.  Give the events distinct parameters (fresh_params)."""


class LetterBudgetError(ValueError):
    """A substitution would push more than MAX_IMAGE_LETTERS letters."""


def _coordinate_text(key: int) -> str:
    """The boundary coordinate of a key as an exact fraction, for messages."""
    from fractions import Fraction  # imported on demand: only messages need it

    return str(Fraction(key, SIDE))


class Event(Record):
    """One transverse crossing of a glued side pair.

    ``hit_b`` tells which copy the traversal runs into: ``True`` means
    the curve arrives on copy b (side ``2*pair``) and emerges on copy a,
    spelling a conjugate of ``+x_pair``; ``False`` is the reverse
    passage.  ``t`` is the side parameter, an integer in (0, SIDE).
    """

    __slots__ = ("pair", "hit_b", "t")

    def __init__(self, pair: int, hit_b: bool, t: int) -> None:
        if pair < 1:
            raise ValueError(f"crosscap index must be >= 1, got {pair}")
        if type(t) is not int or not 0 < t < SIDE:
            raise ValueError(
                f"event parameter must be an integer strictly between 0 and "
                f"{SIDE}, got {t!r}"
            )
        super().__init__(pair, hit_b, t)

    @property
    def hit_side(self) -> int:
        return 2 * self.pair if self.hit_b else 2 * self.pair - 1

    @property
    def out_side(self) -> int:
        return 2 * self.pair - 1 if self.hit_b else 2 * self.pair

    @property
    def hit_key(self) -> int:
        return (self.hit_side - 1) * SIDE + self.t

    @property
    def out_key(self) -> int:
        return (self.out_side - 1) * SIDE + self.t

    def with_t(self, t: int) -> "Event":
        return Event(self.pair, self.hit_b, t)

    def token(self) -> str:
        return f"A{self.pair}{'+' if self.hit_b else '-'}"


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


# -- spelling --------------------------------------------------------------


def _walk_letters(walks: Iterable[tuple[int, int]]) -> list[int]:
    # Each glued side k carries one marker just after its start corner
    # k-1, so a point of side k (or the vertex, for k = 0) has k markers
    # below it.  A walk between two such marker counts a < b spells the
    # sides k+1 for k in [a, b), and the walk from b down to a spells
    # their inverses in reverse; side k belongs to edge (k+1)//2.
    letters: list[int] = []
    for a, b in walks:
        if a < b:
            letters += [k // 2 + 1 for k in range(a, b)]
        else:
            letters += [-(k // 2 + 1) for k in range(a - 1, b - 1, -1)]
    return letters


def spell_cyclic(genus: int, events: Sequence[Event]) -> Word:
    """A π₁ representative of the closed curve through the event cycle.

    The representative is based at the first event's crossing point, so
    only its conjugacy class (CyclicWord) is meaningful.
    """
    m = len(events)
    walks = ((ev.out_side, events[(j + 1) % m].hit_side) for j, ev in enumerate(events))
    return Word(genus, tuple(_walk_letters(walks)))


# -- chord systems ---------------------------------------------------------


class CurveGeometry:
    """A closed curve realized as chords between its crossing events.

    chord k runs from event k's emergence key to event k+1's hit key
    (indices cyclic), so chord k follows crossing k.  ``stops`` lists the
    hit and emergence side of each event in turn, so event k's are
    ``stops[2k]`` and ``stops[2k + 1]``.
    """

    def __init__(self, genus: int, events: Sequence[Event]):
        if not events:
            raise ValueError("a closed curve needs at least one crossing event")
        for ev in events:
            if ev.pair > genus:
                raise ValueError(
                    f"event {ev.token()} out of range for genus {genus}"
                )
        self.genus = genus
        self.events: tuple[Event, ...] = tuple(events)
        m = len(self.events)
        self.chords: list[Chord] = [
            (self.events[k].out_key, self.events[(k + 1) % m].hit_key)
            for k in range(m)
        ]
        self.stops: list[int] = [
            side for ev in self.events for side in (ev.hit_side, ev.out_side)
        ]
        self._self_crossings: int | None = None

    def params(self) -> set[int]:
        return {ev.t for ev in self.events}

    def is_two_sided(self) -> bool:
        return len(self.events) % 2 == 0

    def self_crossing_count(self) -> int:
        """Crossings among the curve's own chords, counted once; chords that
        share an end raise on every call, as nothing is kept then."""
        if self._self_crossings is None:
            self._self_crossings = CrossingTable({0: self}).count(0, 0)
        return self._self_crossings


def crossing_count(a: CurveGeometry, b: CurveGeometry) -> int:
    """Number of transverse chord crossings between two curve systems."""
    if a.genus != b.genus:
        raise ValueError("curves live on different surfaces")
    return CrossingTable({0: a, 1: b}).count(0, 1)


def _interleaved(ends: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The pairs (a, b) of chords whose ends interleave, a the one that closes
    first, from one sweep over the ends in key order (2a for chord a's lower
    end, 2a + 1 for its upper one, lower first).  With the open chords listed
    as they open, those after a when it closes opened inside its interval and
    close outside it: X crossings take X steps (Bentley and Ottmann, 1979)."""
    opened: list[int] = []
    for e in ends:
        a = e >> 1
        if not e & 1:
            opened.append(a)
            continue
        at = opened.index(a)
        for b in opened[at + 1 :]:
            yield a, b
        del opened[at]


class CrossingTable:
    """Crossing counts among labelled curves, from one sweep over all their
    chord ends.  Keys tie only where chords share an endpoint; ``count(u, v)``
    raises for those two curves, naming the first shared end of the least
    such pair (u's chord, v's chord), and how ties sort moves no other
    count."""

    def __init__(self, curves: Mapping[Hashable, CurveGeometry]) -> None:
        self._curves = {u: (c, curve.chords) for c, (u, curve) in enumerate(curves.items())}
        owner: list[tuple[int, int]] = []  # (curve, chord index) of each chord
        ends: list[tuple[int, int]] = []
        for c, chords in self._curves.values():
            for k, chord in enumerate(chords):
                ends += (min(chord), 2 * len(owner)), (max(chord), 2 * len(owner) + 1)
                owner.append((c, k))
        ends.sort()
        self._counts: dict[tuple[int, int], int] = {}  # by (curve, curve), lower first
        for a, b in _interleaved([e for _, e in ends]):
            pair = (owner[a][0], owner[b][0]) if a < b else (owner[b][0], owner[a][0])
            self._counts[pair] = self._counts.get(pair, 0) + 1
        # (curve u, curve v) -> each (u's chord, v's chord) sharing an end, both ways
        self._shared: dict[tuple[int, int], list[tuple[int, int]]] = {}
        if len({key for key, _ in ends}) < len(ends):
            for _, tied in groupby(ends, key=lambda end: end[0]):
                for a, b in combinations(sorted({e >> 1 for _, e in tied}), 2):
                    (ca, ka), (cb, kb) = owner[a], owner[b]
                    self._shared.setdefault((ca, cb), []).append((ka, kb))
                    self._shared.setdefault((cb, ca), []).append((kb, ka))

    def count(self, u: Hashable, v: Hashable) -> int:
        """Crossings of u's chords with v's, or among u's own when u == v."""
        (i, chords_u), (j, chords_v) = self._curves[u], self._curves[v]
        if (i, j) in self._shared:
            ka, kb = min(self._shared[i, j])
            (tail, head), q = chords_u[ka], chords_v[kb]
            raise DegeneratePositionError(
                "two chords share the endpoint coordinate "
                + _coordinate_text(tail if tail in q else head)
            )
        return self._counts.get((i, j) if i <= j else (j, i), 0)


# -- fresh parameters ------------------------------------------------------


def fresh_params(m: int, forbidden: Iterable[int]) -> list[int]:
    """Deterministic distinct parameters in (0, SIDE) avoiding `forbidden`.

    Evenly spaced base points, each moved up by 1 until it is free.
    """
    taken = set(forbidden)
    out: list[int] = []
    for j in range(m):
        q = (2 * j + 1) * SIDE // (2 * m)
        while q in taken:
            q += 1
        if not 0 < q < SIDE:
            raise DegeneratePositionError(f"fresh parameter escaped (0, {SIDE})")
        taken.add(q)
        out.append(q)
    return out


# -- the twist engine ------------------------------------------------------


def _check_twistable(curve: CurveGeometry, arrow: int) -> None:
    if arrow not in (1, -1):
        raise ValueError(f"twist arrow must be +1 or -1, got {arrow}")
    if not curve.is_two_sided():
        raise ValueError("cannot twist along a one-sided curve")
    crossings = curve.self_crossing_count()
    if crossings:
        raise ValueError(
            f"cannot twist along a curve whose chords cross ({crossings} "
            "self-crossings): detours are ordered only along an embedded curve"
        )


def _detours(curve: CurveGeometry, arrow: int, key: int, into: bool) -> list[int]:
    """Side stops of the detours, in order, that twisting along `curve`
    splices into the based loop's chord from the anchor into `key`, or
    from `key` out to the anchor.

    The anchor lies below every key, so curve chord j, with ends lo < hi,
    crosses that chord exactly when lo < key < hi.  The curve's chords
    cross none of one another, so they meet it in the order of their lower
    ends (into) or of their upper ends (out); sigma is +1 when the end met
    is chord j's head.  Each crossing adds one lap of the curve's stops,
    forward from event j + 1 when d = -arrow * (-1)^j * sigma > 0 and
    backward from event j otherwise.  The (-1)^j tracks the plane-frame
    reversal at each crosscap passage along the curve (the event count of
    a two-sided curve is even, so the parity is globally consistent).
    `key` must be no end of the curve's chords.
    """
    hits: list[tuple[int, int, int]] = []
    for j, (tail, head) in enumerate(curve.chords):
        lo, hi = (tail, head) if tail < head else (head, tail)
        if lo < key < hi:
            met = lo if into else hi
            hits.append((met, j, 1 if met == head else -1))
    hits.sort()
    stops = curve.stops
    detours: list[int] = []
    for _, j, sigma in hits:
        lap = stops[2 * j + 2 :] + stops[: 2 * j + 2]
        d = -arrow * (1 if j % 2 == 0 else -1) * sigma
        detours += lap if d > 0 else lap[::-1]
    return detours


def _twisted_loop(curve: CurveGeometry, arrow: int, i: int, tau: int) -> tuple[int, ...]:
    """Letters of the image, under the twist along `curve`, of the based loop
    through crosscap i: from the anchor it hits side 2i at parameter tau,
    emerges from side 2i - 1 and returns.  The caller has run
    _check_twistable(curve, arrow), and tau is no parameter of the curve."""
    hit, out = (2 * i - 1) * SIDE + tau, (2 * i - 2) * SIDE + tau
    # the vertex, as a stop, has no marker below it
    stops = [0, *_detours(curve, arrow, hit, True), 2 * i, 2 * i - 1]
    stops += [*_detours(curve, arrow, out, False), 0]
    return tuple(_walk_letters(zip(stops[::2], stops[1::2])))


def twist_images(curve: CurveGeometry, arrow: int) -> list[Word]:
    """Generator images under the Dehn twist along `curve`.

    The twist acts on the based elementary loop through crosscap i,
    whose class is P x_i P⁻¹ with P = x₁²⋯x_{i-1}²; images of the x_i
    themselves follow by the triangular recursion
    x_i ↦ S⁻¹ t(P x_i P⁻¹) S, where the shell S is the image of P.

    Shortcut: when the loop through crosscap i picks up no detour and
    the shell S is still P itself, x_i ↦ P⁻¹ (P x_i P⁻¹) P = x_i exactly,
    and nothing is built but x_i.  A twist moves only the crosscaps its
    curve passes near, and past them the shell returns to P, so most
    images take this path.  (On every embedded curve tried, a loop with no
    detour found S = P; the shell test keeps the shortcut exact by
    algebra alone, without that geometric fact.)
    """
    _check_twistable(curve, arrow)
    genus = curve.genus
    forbidden = curve.params()
    # the based loop through crosscap i crosses its pair at parameter taus[i-1]
    taus = [fresh_params(1, forbidden)[0] for _ in range(genus)]
    # A curve chord meets the loop's chord through key k exactly when
    # lo < k < hi (see _detours), so bisect(lows, k) - bisect(highs, k)
    # chords do, and a loop that none meets picks up no detour.  The loop
    # through crosscap i hits side 2i and leaves from side 2i - 1.
    lows = sorted(min(chord) for chord in curve.chords)
    highs = sorted(max(chord) for chord in curve.chords)
    images: list[Word] = []
    # S, the image of P, or None while S = P; P spells k // 2 for k in [2, 2i)
    shell: Word | None = None
    for i, tau in enumerate(taus, start=1):
        hit, out = (2 * i - 1) * SIDE + tau, (2 * i - 2) * SIDE + tau
        touched = (
            bisect_left(lows, hit) != bisect_left(highs, hit)
            or bisect_left(lows, out) != bisect_left(highs, out)
        )
        if shell is None and not touched:
            images.append(Word._trusted(genus, (i,)))
            continue
        if shell is None:
            shell = Word._trusted(genus, tuple(k // 2 for k in range(2, 2 * i)))
        # sides of crosscaps <= genus spell valid letters, and _reduce
        # frees S⁻¹ h_i S of cancelling pairs in one pass
        h_i = _twisted_loop(curve, arrow, i, tau)
        x_i = Word._trusted(genus, _reduce(shell.inverse().letters + h_i + shell.letters))
        images.append(x_i)
        shell = shell * x_i * x_i
        if len(shell) == 2 * i and shell.letters == tuple(k // 2 for k in range(2, 2 * i + 2)):
            shell = None  # back to P for crosscap i + 1
    return images


def apply_images(images: Sequence[Word], word: Word) -> Word:
    """Substitute generator images into a word (the automorphism action).

    Accumulates into one list with inline cancellation rather than
    repeated ``Word`` multiplication, so the cost is linear in the total
    number of substituted letters.  Raises ValueError unless there is one
    image per generator, or when an image it substitutes has another
    genus than the word.  Images the word does not use are not checked,
    so a short word costs no O(g) pass; ``Automorphism`` checks all of
    its images once, when it is built.  Raises LetterBudgetError when the
    images the word uses add up to more than ``MAX_IMAGE_LETTERS`` letters:
    each is counted before its letters are pushed, so no list past the
    bound is built.
    """
    genus = word.genus
    if len(images) != genus:
        raise ValueError(f"cannot apply {len(images)} images to a word of genus {genus}")
    table: dict[int, tuple[int, ...]] = {}
    pushed = 0
    out: list[int] = []
    push, pop = out.append, out.pop
    for s in word:
        img = table.get(s)
        if img is None:
            image = images[abs(s) - 1]
            if image.genus != genus:
                raise ValueError(
                    f"cannot apply images of genus {image.genus} to a word of genus {genus}"
                )
            base = image.letters
            img = base if s > 0 else tuple(-t for t in reversed(base))
            table[s] = img
        pushed += len(img)
        if pushed > MAX_IMAGE_LETTERS:
            raise LetterBudgetError(
                f"substituting into a word of {len(word)} letters pushes more than "
                f"MAX_IMAGE_LETTERS = {MAX_IMAGE_LETTERS} letters"
            )
        for t in img:
            if out and out[-1] == -t:
                pop()
            else:
                push(t)
    # image letters are valid for the genus and the stack leaves no pair to cancel
    return Word._trusted(genus, tuple(out))
