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

* two chords cross exactly when their endpoints interleave;
* the chords of an embedded curve do not cross one another, so those
  that cross a target chord meet it in the order of their endpoints on
  the counterclockwise arc from the target's tail to its head, and the
  endpoint on that arc tells which way each one crosses;
* any two arcs in a disk with the same endpoints are homotopic rel
  endpoints, so each chord may be replaced by a monotone walk along the
  glued sides, and loop words are read off from one marker per side,
  placed just after the side's start corner.

A side parameter is an integer ``t`` with ``0 < t < SIDE``: the point
``t`` of side ``k`` has the boundary coordinate ``(k - 1) + t / SIDE``
and the integer key ``(k - 1) * SIDE + t``.  Keys sort exactly as the
coordinates do, two endpoints share a key exactly when they share a
coordinate, and the anchor 0 stays below every key, so every
comparison is one of integers.  A :class:`CurveGeometry` builds its
chords as key pairs once, and crossings, twists and the cut complex of
``cutting`` all read them.  A shared endpoint is still reported by its
coordinate, not its key.

Dehn twists act by splicing the twisting curve's event cycle into a
target's event sequence at every chord crossing.  The detour direction
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

#: A chord as the keys of its (tail, head) endpoints.
Chord = tuple[int, int]

#: Based loops start and end at an anchor just inside the polygon, a hair
#: counterclockwise of the vertex v.  Only the order of keys matters, and
#: every event lies strictly inside a side, so key 0 stands for that
#: anchor: it sorts below every endpoint.
_ANCHOR = 0


class DegeneratePositionError(Exception):
    """Two chords share an endpoint coordinate, so whether they cross is
    not defined.  Give the events distinct parameters (refresh_events)."""


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

    def flipped(self) -> "Event":
        """The same crossing traversed backwards."""
        return Event(self.pair, not self.hit_b, self.t)

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


# -- endpoint order --------------------------------------------------------


def _on_arc(lo: int, hi: int, c: int) -> bool:
    """Is c on the open counterclockwise boundary arc from lo to hi?"""
    if lo < hi:
        return lo < c < hi
    return c > lo or c < hi


def _crosses(p: Chord, q: Chord) -> bool:
    """Do two chords cross?  They do exactly when their endpoints interleave."""
    for c in p:
        if c in q:
            raise DegeneratePositionError(
                f"two chords share the endpoint coordinate {_coordinate_text(c)}"
            )
    return _on_arc(p[0], p[1], q[0]) != _on_arc(p[0], p[1], q[1])


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


def _based_loop_letters(events: Sequence[Event]) -> list[int]:
    stops = [0]
    for ev in events:
        stops += [ev.hit_side, ev.out_side]
    stops.append(0)
    return _walk_letters(zip(stops[::2], stops[1::2]))


def spell_based_loop(genus: int, events: Sequence[Event]) -> Word:
    """Exact class in π₁(N, v) of the based loop through the given events.

    The loop starts and ends at the vertex (anchored just inside the
    polygon), visiting the events in order.
    """
    return Word(genus, tuple(_based_loop_letters(events)))


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
    (indices cyclic), so chord k follows crossing k.
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

    def params(self) -> set[int]:
        return {ev.t for ev in self.events}

    def is_two_sided(self) -> bool:
        return len(self.events) % 2 == 0

    def self_crossing_count(self) -> int:
        return CrossingTable({0: self}).count(0, 0)

    def spelled(self) -> Word:
        return spell_cyclic(self.genus, self.events)


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
    raises for those two curves as ``_crosses`` does on the least such pair
    (u's chord, v's chord), and how ties sort moves no other count."""

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
            _crosses(chords_u[ka], chords_v[kb])  # raises: they share an end
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


def refresh_events(
    genus: int, events: Sequence[Event], forbidden: Iterable[int]
) -> list[Event]:
    """Reassign distinct parameters to an event sequence.

    Any parameter choice realizes the same free homotopy class (sliding
    crossing points along a glued side is a homotopy), so this is used
    to put iterated twist images back into general position.
    """
    ts = fresh_params(len(events), forbidden)
    return [ev.with_t(t) for ev, t in zip(events, ts)]


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


def _crossings_along(chord: Chord, chords: Sequence[Chord]) -> list[tuple[int, int]]:
    """(index, sign) of each of `chords` that crosses `chord`, in order.

    `chords` must not cross one another: those that cross `chord` then
    meet it in the order of their endpoints on the counterclockwise arc
    from its tail to its head.  The sign is +1 when the crossing chord's
    head is the endpoint on that arc, i.e. it crosses from the left of
    `chord` to its right.
    """
    tail, head = chord
    hits: list[tuple[bool, int, int, int]] = []
    for k, q in enumerate(chords):
        if not _crosses(chord, q):
            continue
        sigma = 1 if _on_arc(tail, head, q[1]) else -1
        end = q[1] if sigma > 0 else q[0]
        # position of `end` along the arc that starts at `tail`
        hits.append((end < tail, end, k, sigma))
    hits.sort()
    return [(k, sigma) for _, _, k, sigma in hits]


def _detour_sequences(
    curve: CurveGeometry, arrow: int, chord: Chord
) -> list[list[Event]]:
    """Detours (in order) that twisting along `curve` inserts on one chord.

    Each crossing with curve chord k contributes one full copy of the
    curve's event cycle; the splice direction is
      d = -arrow * (-1)^k * sigma,
    where sigma is the crossing sign from _crossings_along and the
    (-1)^k tracks the plane-frame reversal at each crosscap passage
    along the curve (the event count is even for two-sided curves, so
    the parity is globally consistent).
    """
    m = len(curve.events)
    sequences: list[list[Event]] = []
    for k, sigma in _crossings_along(chord, curve.chords):
        d = -arrow * (1 if k % 2 == 0 else -1) * sigma
        if d > 0:
            seq = [curve.events[(k + 1 + i) % m] for i in range(m)]
        else:
            seq = [curve.events[(k - i) % m].flipped() for i in range(m)]
        sequences.append(seq)
    return sequences


def twist_based_loop(
    curve: CurveGeometry, arrow: int, events: Sequence[Event]
) -> list[Event]:
    """Image of a based loop under the Dehn twist along `curve`."""
    _check_twistable(curve, arrow)
    return _twist_based_loop(curve, arrow, events)


def _twist_based_loop(
    curve: CurveGeometry, arrow: int, events: Sequence[Event]
) -> list[Event]:
    # The caller has run _check_twistable(curve, arrow).
    new_events: list[Event] = []
    prev = _ANCHOR
    for ev in events:
        for seq in _detour_sequences(curve, arrow, (prev, ev.hit_key)):
            new_events.extend(seq)
        new_events.append(ev)
        prev = ev.out_key
    for seq in _detour_sequences(curve, arrow, (prev, _ANCHOR)):
        new_events.extend(seq)
    return new_events


def twist_cyclic(
    curve: CurveGeometry, arrow: int, target: CurveGeometry
) -> list[Event]:
    """Image event cycle of a closed curve under the twist along `curve`.

    The target must be in general position with respect to the twisting
    curve (no shared parameters); use refresh_events first.
    """
    _check_twistable(curve, arrow)
    new_events: list[Event] = []
    for j, ev in enumerate(target.events):
        new_events.append(ev)
        for seq in _detour_sequences(curve, arrow, target.chords[j]):
            new_events.extend(seq)
    return new_events


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
    # The loop runs along the chords (anchor, hit key) and (out key,
    # anchor), and the anchor lies below every key, so a curve chord
    # crosses the one through key k exactly when its lower end is below
    # k and its upper end above: there are bisect(lows, k) - bisect(highs,
    # k) such chords.  A loop that no chord crosses picks up no detour.
    # The loop through crosscap i hits side 2i and leaves from side 2i - 1.
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
        loop = Event(i, True, tau)
        spliced = _twist_based_loop(curve, arrow, [loop]) if touched else [loop]
        if shell is None:
            shell = Word._trusted(genus, tuple(k // 2 for k in range(2, 2 * i)))
        # sides of crosscaps <= genus spell valid letters, and _reduce
        # frees S⁻¹ h_i S of cancelling pairs in one pass
        h_i = tuple(_based_loop_letters(spliced))
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
    its images once, when it is built.
    """
    genus = word.genus
    if len(images) != genus:
        raise ValueError(f"cannot apply {len(images)} images to a word of genus {genus}")
    table: dict[int, tuple[int, ...]] = {}
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
        for t in img:
            if out and out[-1] == -t:
                pop()
            else:
                push(t)
    # image letters are valid for the genus and the stack leaves no pair to cancel
    return Word._trusted(genus, tuple(out))
