"""The general circular-arc chord tests, kept as a reference.

The library decides crossings by one sweep over the chord ends, and the
twist engine orders the chords that meet a based loop's chord by key
containment alone, since that chord runs from the anchor.  These
functions decide the same questions for any two chords, from the cyclic
order of their ends on the boundary circle, and build the detours from
copies of the twisting curve's events.  ``test_chord_order`` holds them
to exact rational geometry, and the other tests hold the library to them.
"""

from crosscap.polygon import DegeneratePositionError, Event, _coordinate_text

#: The key of the anchor that based loops start and end at: it sorts
#: below every endpoint.
ANCHOR = 0


def flipped(ev):
    """The same crossing traversed backwards."""
    return Event(ev.pair, not ev.hit_b, ev.t)


def on_arc(lo, hi, c):
    """Is c on the open counterclockwise boundary arc from lo to hi?"""
    if lo < hi:
        return lo < c < hi
    return c > lo or c < hi


def crosses(p, q):
    """Do two chords cross?  They do exactly when their endpoints interleave."""
    for c in p:
        if c in q:
            raise DegeneratePositionError(
                f"two chords share the endpoint coordinate {_coordinate_text(c)}"
            )
    return on_arc(p[0], p[1], q[0]) != on_arc(p[0], p[1], q[1])


def crossings_along(chord, chords):
    """(index, sign) of each of `chords` that crosses `chord`, in order.

    `chords` must not cross one another: those that cross `chord` then
    meet it in the order of their endpoints on the counterclockwise arc
    from its tail to its head.  The sign is +1 when the crossing chord's
    head is the endpoint on that arc, i.e. it crosses from the left of
    `chord` to its right.
    """
    tail, head = chord
    hits = []
    for k, q in enumerate(chords):
        if not crosses(chord, q):
            continue
        sigma = 1 if on_arc(tail, head, q[1]) else -1
        end = q[1] if sigma > 0 else q[0]
        # position of `end` along the arc that starts at `tail`
        hits.append((end < tail, end, k, sigma))
    hits.sort()
    return [(k, sigma) for _, _, k, sigma in hits]


def detour_events(curve, arrow, crossings):
    """The events of the detours that twisting along `curve` splices in at
    `crossings`, (index, sign) pairs of its chords in the order met: one
    full copy of the curve's event cycle each, in the direction
      d = -arrow * (-1)^k * sigma,
    forward from event k + 1 or backward, flipped, from event k."""
    m = len(curve.events)
    detours = []
    for k, sigma in crossings:
        d = -arrow * (1 if k % 2 == 0 else -1) * sigma
        if d > 0:
            detours += [curve.events[(k + 1 + i) % m] for i in range(m)]
        else:
            detours += [flipped(curve.events[(k - i) % m]) for i in range(m)]
    return detours


def detour_sequences(curve, arrow, chord):
    """The events of the detours (in order) that twisting along `curve`
    inserts on any chord."""
    return detour_events(curve, arrow, crossings_along(chord, curve.chords))


def side_stops(events):
    """The hit and emergence side of each event in turn."""
    return [side for ev in events for side in (ev.hit_side, ev.out_side)]


def anchor_detours(curve, arrow, key, into):
    """The side stops of the detours on a based loop's chord from the anchor
    into `key`, or from `key` out to it, by the arc order."""
    chord = (ANCHOR, key) if into else (key, ANCHOR)
    return side_stops(detour_sequences(curve, arrow, chord))
