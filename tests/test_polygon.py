import re
from fractions import Fraction

import pytest

from crosscap.polygon import (
    SIDE,
    CurveGeometry,
    DegeneratePositionError,
    Event,
    _check_twistable,
    _detours,
    _twisted_loop,
    apply_images,
    crossing_count,
    fresh_params,
    spell_cyclic,
    twist_images,
)
from crosscap.surface import _grid as grid
from crosscap.words import CyclicWord, Word, boundary_word

from arc_reference import anchor_detours, detour_sequences, flipped


def w(text, genus):
    return Word.parse(text, genus)


def alpha(genus, i):
    # chain curve through crosscaps i and i+1
    return CurveGeometry(genus, [Event(i, True, grid(2, 3)), Event(i + 1, True, grid(1, 3))])


def spelled(curve):
    return spell_cyclic(curve.genus, curve.events)


def refresh_events(events, forbidden):
    """The events on fresh distinct parameters.  Sliding a crossing along
    its glued side is a homotopy, so the free class stays the same."""
    return [Event(ev.pair, ev.hit_b, t) for ev, t in zip(events, fresh_params(len(events), forbidden))]


def twist_cyclic(curve, arrow, target):
    """The image event cycle of a closed curve under the twist along `curve`:
    a detour spliced in at each crossing of a target chord with the curve.
    The target must share no parameter with the twisting curve."""
    _check_twistable(curve, arrow)
    events = []
    for ev, chord in zip(target.events, target.chords):
        events += [ev, *detour_sequences(curve, arrow, chord)]
    return events


def full_images(curve, arrow):
    """All g images of the twist along `curve`; twist_images lists the moved ones."""
    moved = twist_images(curve, arrow)
    return [moved.get(j, Word(curve.genus, (j + 1,))) for j in range(curve.genus)]


def compose(outer, inner):
    return [apply_images(outer, g) for g in inner]


def shell_word(genus, i):
    # x1^2 x2^2 ... x_{i-1}^2
    letters = []
    for j in range(1, i):
        letters += [j, j]
    return Word(genus, tuple(letters))


# -- event basics --------------------------------------------------


def test_event_validation():
    with pytest.raises(ValueError):
        Event(0, True, grid(1, 2))
    for bad in (0, SIDE, -1, Fraction(1, 2), 1.0 * grid(1, 2), True):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            Event(1, True, bad)
    ev = Event(2, True, grid(1, 3))
    assert ev.hit_side == 4 and ev.out_side == 3
    assert ev.hit_key == 3 * SIDE + grid(1, 3) and ev.out_key == 2 * SIDE + grid(1, 3)
    assert flipped(ev) == Event(2, False, grid(1, 3))
    assert ev.token() == "A2+" and flipped(ev).token() == "A2-"
    assert alpha(2, 1).stops == [2, 1, 4, 3]


# -- spelling ---------------------------------------------------------------


def test_elementary_loops_spell_shell_conjugates():
    """A chain curve away from crosscap i puts no detour on the based loop
    through it, which then spells P x_i P⁻¹ with P = x₁²⋯x_{i-1}²."""
    for genus in (4, 5, 6):
        for i in range(1, genus + 1):
            far = alpha(genus, i + 1 if i + 2 <= genus else i - 2)
            shell = shell_word(genus, i)
            for arrow in (1, -1):
                got = Word(genus, _twisted_loop(far, arrow, i, grid(1, 2)))
                assert got == shell * Word(genus, (i,)) * shell.inverse()


def test_chain_curve_spells_adjacent_generator_pair():
    assert spelled(alpha(2, 1)) == w("x1 x2", 2)
    assert CyclicWord.of(spelled(alpha(3, 2))) == CyclicWord.of(w("x2 x3", 3))
    assert spelled(alpha(5, 4)) == w("x4 x5", 5)


def test_spelling_independent_of_event_parameters():
    for t1, t2 in ((grid(1, 5), grid(4, 5)), (grid(9, 10), grid(1, 10)), (grid(1, 2), grid(1, 3))):
        c = CurveGeometry(3, [Event(1, True, t1), Event(2, True, t2)])
        assert CyclicWord.of(spelled(c)) == CyclicWord.of(w("x1 x2", 3))


def test_cyclic_spelling_is_rotation_invariant():
    events = [Event(1, True, grid(1, 3)), Event(2, False, grid(1, 2)), Event(2, True, grid(3, 4)), Event(1, False, grid(2, 3))]
    base = CyclicWord.of(spell_cyclic(4, events))
    for r in range(1, 4):
        rotated = events[r:] + events[:r]
        assert CyclicWord.of(spell_cyclic(4, rotated)) == base


# -- curve geometry ---------------------------------------------------------


def test_chain_curves_are_embedded_and_two_sided():
    for genus in (2, 3, 5):
        for i in range(1, genus):
            c = alpha(genus, i)
            assert c.self_crossing_count() == 0
            assert c.is_two_sided()


def test_adjacent_chain_curves_cross_once():
    assert crossing_count(alpha(3, 1), alpha(3, 2)) == 1
    assert crossing_count(alpha(4, 2), alpha(4, 3)) == 1


def test_distant_chain_curves_are_disjoint():
    assert crossing_count(alpha(4, 1), alpha(4, 3)) == 0
    assert crossing_count(alpha(6, 2), alpha(6, 5)) == 0


def test_shared_endpoint_parameters_are_degenerate():
    a = alpha(2, 1)
    b = CurveGeometry(2, [Event(1, True, grid(2, 3)), Event(2, True, grid(2, 3))])
    with pytest.raises(DegeneratePositionError):
        crossing_count(a, b)


def test_one_sided_curve_rejected_for_twisting():
    c = CurveGeometry(2, [Event(1, True, grid(1, 2))])
    assert not c.is_two_sided()
    with pytest.raises(ValueError, match="^cannot twist along a one-sided curve$"):
        twist_images(c, 1)


def test_self_crossing_curve_rejected_for_twisting():
    c = CurveGeometry(3, [Event(1, True, grid(1, 3)), Event(2, False, grid(2, 3))])
    assert c.is_two_sided() and c.self_crossing_count() == 1
    text = (
        "cannot twist along a curve whose chords cross (1 self-crossings): "
        "detours are ordered only along an embedded curve"
    )
    for twist in (
        lambda: twist_images(c, 1),
        lambda: twist_images(c, -1),
    ):
        with pytest.raises(ValueError) as exc:
            twist()
        assert str(exc.value) == text


def test_the_self_crossing_count_is_swept_once_per_curve(monkeypatch):
    """Twisting both ways sweeps a curve's chords for self-crossings once;
    chords that share an end raise on every call."""
    from crosscap import polygon

    sweeps = []

    class Counted(polygon.CrossingTable):
        def __init__(self, curves):
            sweeps.append(len(curves))
            super().__init__(curves)

    monkeypatch.setattr(polygon, "CrossingTable", Counted)
    c = alpha(3, 1)
    twist_images(c, 1)
    twist_images(c, -1)
    assert c.self_crossing_count() == 0
    assert sweeps == [1]
    shared = CurveGeometry(2, [Event(1, True, grid(1, 2)), Event(1, True, grid(1, 2))])
    for _ in range(2):
        with pytest.raises(DegeneratePositionError, match="share the endpoint"):
            shared.self_crossing_count()
    assert sweeps == [1, 1, 1]


def test_bad_arrow_rejected():
    for arrow in (0, 2):
        with pytest.raises(ValueError, match="^twist arrow must be"):
            twist_images(alpha(2, 1), arrow)


# -- fresh parameters -------------------------------------------------------


def test_fresh_params_avoid_forbidden_and_stay_distinct():
    # the second base point, 3/12, and the value after it are taken
    avoid = {grid(1, 3), grid(2, 3), grid(1, 2), grid(3, 12), grid(3, 12) + 1}
    got = fresh_params(6, avoid)
    assert len(set(got)) == 6
    assert all(0 < q < SIDE for q in got)
    assert not set(got) & avoid
    assert got == sorted(got)
    assert got[1] == grid(3, 12) + 2
    assert fresh_params(6, avoid) == got  # deterministic
    assert fresh_params(1, {grid(1, 2)}) == [grid(1, 2) + 1]


def test_refresh_events_preserves_class():
    c = alpha(3, 1)
    fresh = refresh_events(c.events, {grid(1, 2)})
    assert [ev.token() for ev in fresh] == [ev.token() for ev in c.events]
    d = CurveGeometry(3, fresh)
    assert CyclicWord.of(spelled(d)) == CyclicWord.of(spelled(c))


# -- the twist engine: detours by key containment --------------------------


@pytest.mark.parametrize("genus", range(4, 10))
def test_detours_on_every_registered_curve_are_the_reference_detours(genus):
    """On every registered curve at genus 4-9, with either arrow, into a key
    or out of it, the detours found by key containment are those of the arc
    order.  Detours change only where a key passes a chord end, so a key just
    above each end, and one below them all, meets every case there is."""
    from test_shortcuts import registered_curves

    for curve in registered_curves(genus):
        ends = {end for chord in curve.chords for end in chord}
        keys = ({min(ends) - 1} | {end + 1 for end in ends}) - ends
        for key in sorted(keys):
            for arrow in (1, -1):
                for into in (True, False):
                    want = anchor_detours(curve, arrow, key, into)
                    assert _detours(curve, arrow, key, into) == want


# -- the twist engine: exact images -----------------------------------------


def test_chain_twist_images_on_two_crosscaps():
    images = twist_images(alpha(2, 1), 1)
    assert images == {0: w("x1 x1 x2", 2), 1: w("x2^-1 x1^-1 x2", 2)}


def test_apply_images_rejects_images_of_another_genus():
    word = w("x1 x2", 2)
    with pytest.raises(ValueError, match="images of genus 3 to a word of genus 2"):
        apply_images([w("x1", 3), w("x2", 3)], word)
    with pytest.raises(ValueError, match="images of genus 3 to a word of genus 2"):
        apply_images([w("x1", 2), w("x2", 3)], word)
    with pytest.raises(ValueError, match="1 images to a word of genus 2"):
        apply_images([w("x1", 2)], word)
    with pytest.raises(ValueError, match="3 images to a word of genus 2"):
        apply_images([w("x1", 2), w("x2", 2), w("x1", 2)], word)


def test_apply_images_checks_each_image_it_substitutes():
    """An image's genus is checked when the word first substitutes it,
    for either sign of its letter; an image the word never uses is not
    read, so a short word costs no pass over all the images."""
    images = [w("x1", 2), w("x2", 3)]
    with pytest.raises(ValueError, match="images of genus 3 to a word of genus 2"):
        apply_images(images, w("x1 x2^-1", 2))
    assert apply_images(images, w("x1^-1 x1^-1", 2)) == w("x1^-1 x1^-1", 2)


def test_apply_images_pushes_no_letter_past_the_budget(monkeypatch):
    """Each image a word uses is counted before its letters are pushed: a
    word whose images add up to the bound substitutes, one letter more
    fails."""
    from crosscap import polygon

    images = [w("x1 x2", 2), w("x2 x2 x2", 2)]
    word = w("x1 x2^-1 x1", 2)  # pushes 2 + 3 + 2 letters
    monkeypatch.setattr(polygon, "MAX_IMAGE_LETTERS", 7)
    assert apply_images(images, word) == w("x1 x2^-2 x1 x2", 2)
    monkeypatch.setattr(polygon, "MAX_IMAGE_LETTERS", 6)
    text = (
        "substituting into a word of 3 letters pushes more than "
        "MAX_IMAGE_LETTERS = 6 letters"
    )
    with pytest.raises(polygon.LetterBudgetError) as exc:
        apply_images(images, word)
    assert str(exc.value) == text


def test_twists_fix_the_boundary_word():
    for genus in (2, 3, 4):
        delta = boundary_word(genus)
        for i in range(1, genus):
            for arrow in (1, -1):
                images = full_images(alpha(genus, i), arrow)
                assert apply_images(images, delta) == delta


def test_opposite_arrows_compose_to_identity():
    for genus in (2, 3):
        for i in range(1, genus):
            plus = full_images(alpha(genus, i), 1)
            minus = full_images(alpha(genus, i), -1)
            gens = [Word(genus, (j,)) for j in range(1, genus + 1)]
            assert compose(plus, minus) == gens
            assert compose(minus, plus) == gens


def test_twist_fixes_its_own_curve_class():
    for genus in (2, 3, 4):
        for i in range(1, genus):
            c = alpha(genus, i)
            images = full_images(c, 1)
            img = apply_images(images, spelled(c))
            assert CyclicWord.of(img) == CyclicWord.of(spelled(c))


def test_adjacent_twists_satisfy_braid_relation():
    genus = 3
    t1 = full_images(alpha(genus, 1), 1)
    t2 = full_images(alpha(genus, 2), 1)
    lhs = compose(t1, compose(t2, t1))
    rhs = compose(t2, compose(t1, t2))
    assert lhs == rhs


def test_disjoint_twists_commute():
    genus = 4
    t1 = full_images(alpha(genus, 1), 1)
    t3 = full_images(alpha(genus, 3), 1)
    assert compose(t1, t3) == compose(t3, t1)


def test_geometric_and_algebraic_images_agree():
    """On random embedded and registered twisting curves at genus 2-7, with
    either arrow, the detours spliced into a random closed curve spell the
    class that the twist's generator images send it to."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st
    from test_shortcuts import random_curves, registered_curves

    registered = st.integers(2, 7).flatmap(lambda genus: st.sampled_from(registered_curves(genus)))

    @st.composite
    def cases(draw):
        twisting = draw(st.one_of(random_curves(), registered))
        m = draw(st.integers(1, 6))
        pairs = draw(st.lists(st.integers(1, twisting.genus), min_size=m, max_size=m))
        hits = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        target = refresh_events([Event(*ev, 1) for ev in zip(pairs, hits)], twisting.params())
        return twisting, draw(st.sampled_from([1, -1])), CurveGeometry(twisting.genus, target)

    @settings(max_examples=200, deadline=None)
    @given(cases())
    def check(case):
        twisting, arrow, target = case
        assume(twisting.self_crossing_count() == 0)
        spliced = twist_cyclic(twisting, arrow, target)
        geometric = CyclicWord.of(spell_cyclic(target.genus, spliced))
        algebraic = CyclicWord.of(apply_images(full_images(twisting, arrow), spelled(target)))
        assert geometric == algebraic

    check()


def test_iterated_geometric_twist_matches_algebra():
    genus = 3
    twisting = alpha(genus, 1)
    images = full_images(twisting, 1)
    target = CurveGeometry(genus, refresh_events(alpha(genus, 2).events, twisting.params()))
    events = list(target.events)
    for _ in range(2):
        events = twist_cyclic(twisting, 1, CurveGeometry(genus, events))
        # put the image back into general position before the next pass
        events = refresh_events(events, twisting.params())
    twice = apply_images(images, apply_images(images, spelled(alpha(genus, 2))))
    assert CyclicWord.of(spell_cyclic(genus, events)) == CyclicWord.of(twice)
