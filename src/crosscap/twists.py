"""Exact twist automorphisms and the relations between them.

A mapping class acts on the free fundamental group of the bordered
surface; here a class is an :class:`Automorphism` storing the images of
the generators it moves, and nothing else, so composing, comparing and
checking twists, which move at most four, costs the same at every genus.
A free group is Hopfian, so a map is an automorphism exactly when its
images generate the group; :meth:`Automorphism.verify_sound` decides
that by Stallings folding.
Twist generators are named ``a1 .. a{g-1}`` (the chain), ``b``, ``c``,
``e``, ``f`` and ``y2``, matching the registered curves alpha_i, beta,
gamma, epsilon, zeta and psi.  Generators are derived from the
registered layouts, each together with its inverse, the twist with the
opposite arrow.

Everything downstream (relation checking, certificates, the CLI) speaks
in terms of generator expressions such as ``"a3^-1 b a3"`` — whitespace
separated, exponents limited to ``^-1``, leftmost factor applied last.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence

from crosscap import polygon
from crosscap.polygon import DegeneratePositionError, LetterBudgetError, apply_images, twist_images
from crosscap.surface import (
    CheckResult,
    Registry,
    UnknownCurveError,
    chain_index,
    x0_names,
)
from crosscap.words import CyclicWord, Record, Word, mod2_class


class AutomorphismError(ValueError):
    """Images that do not define an automorphism: their number or genus is
    wrong, or they do not generate the free group."""


class ExpressionError(ValueError):
    """A generator expression that does not parse."""


class CertificateError(ValueError):
    """A certificate that is malformed or steps outside its allowed set."""


class Automorphism(Record):
    """An endomorphism of the free group on ``x1 .. xg``: ``moved`` maps j to
    the image of x_{j+1} for each generator the map moves, and holds no
    fixed one, so equal maps have equal fields.  ``auto[j]`` is the image of
    x_{j+1} and ``len(auto)`` is g, so a map reads as the sequence of its
    images; ``images`` spells all g, and hash and repr are those of the
    record ``(genus, images)``.

    Construction takes all g images and checks the shape only: one image
    per generator, each of the map's genus.  Composites of automorphisms are
    automorphisms by algebra alone, so derived twists and their composites
    go unchecked; :meth:`verify_sound` decides soundness.
    """

    __slots__ = ("genus", "moved")

    def __init__(self, genus: int, images: tuple[Word, ...]) -> None:
        if genus < 1:
            raise ValueError(f"genus must be positive, got {genus}")
        if len(images) != genus:
            raise AutomorphismError(f"expected {genus} images, got {len(images)}")
        for w in images:
            if w.genus != genus:
                raise AutomorphismError(
                    f"images contain a word of genus {w.genus}, expected {genus}"
                )
        super().__init__(genus, {j: w for j, w in enumerate(images) if w.letters != (j + 1,)})

    @classmethod
    def _trusted(cls, genus: int, moved: dict[int, Word]) -> "Automorphism":
        """A map from moved images of its genus, none fixed; nothing is checked."""
        auto = object.__new__(cls)
        object.__setattr__(auto, "genus", genus)
        object.__setattr__(auto, "moved", moved)
        return auto

    def __getitem__(self, j: int) -> Word:
        image = self.moved.get(j)
        if image is not None:
            return image
        if not 0 <= j < self.genus:
            raise IndexError(f"no generator x{j + 1} in genus {self.genus}")
        return Word._trusted(self.genus, (j + 1,))

    def __len__(self) -> int:
        return self.genus

    @property
    def images(self) -> tuple[Word, ...]:
        return tuple(self)

    def __hash__(self) -> int:
        return hash((self.genus, self.images))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(genus={self.genus!r}, images={self.images!r})"

    def verify_sound(self) -> None:
        """Raise AutomorphismError unless the images generate the free group,
        which makes the map an automorphism (free groups are Hopfian).

        The images are folded (Stallings, Invent. Math. 71, 1983) in time
        close to linear in their letters, and none is substituted into
        another.  The error names the folded graph's vertex count and the
        generators missing from the images' span.
        """
        from crosscap.folding import fold  # imported on first use: no command calls this

        vertices, missing = fold(self.images)
        if missing:
            raise AutomorphismError(
                f"images do not generate the free group: they fold to {vertices} "
                f"{'vertex' if vertices == 1 else 'vertices'}, and "
                f"{', '.join(f'x{i}' for i in missing)} "
                f"{'is' if len(missing) == 1 else 'are'} not in their span"
            )

    @classmethod
    def identity(cls, genus: int) -> "Automorphism":
        if genus < 1:
            raise ValueError(f"genus must be positive, got {genus}")
        return cls._trusted(genus, {})

    def apply(self, word: Word) -> Word:
        return apply_images(self, word)

    def after(self, other: "Automorphism") -> "Automorphism":
        """The composite self∘other (other acts first).

        other fixes every generator it does not move, which self∘other then
        sends where self does; only other's moved images are substituted,
        and a bare generator x_j among them is looked up.
        """
        if other.genus != self.genus:
            raise ValueError(
                f"cannot compose automorphisms of genus {self.genus} and {other.genus}"
            )
        both = {**self.moved, **{j: _image_of(self, w) for j, w in other.moved.items()}}
        moved = {j: w for j, w in both.items() if w.letters != (j + 1,)}
        return Automorphism._trusted(self.genus, moved)

    def fixes_boundary(self) -> bool:
        """Whether the map fixes x1^2 .. xg^2, which it does exactly when it fixes
        x_lo^2 .. x_hi^2, x_lo .. x_hi the span of the generators it moves."""
        if not self.moved:
            return True
        span = tuple(i for i in range(min(self.moved) + 1, max(self.moved) + 2) for _ in (0, 1))
        return self.apply(Word._trusted(self.genus, span)).letters == span


def _image_of(outer: Automorphism, w: Word) -> Word:
    """The image under outer of one word, read from outer's moved images
    alone: a letter outer fixes stands for itself, and a bare generator x_j
    is looked up."""
    letters = w.letters
    if len(letters) == 1 and letters[0] > 0:
        return outer[letters[0] - 1]
    moved = outer.moved

    def letters_of(s: int) -> tuple[int, ...]:
        image = moved.get(abs(s) - 1)
        if image is None:
            return (s,)
        return image.letters if s > 0 else tuple(-t for t in reversed(image.letters))

    return polygon._substitute(w, letters_of)


def equal(p: Automorphism, q: Automorphism) -> bool:
    """Exact equality: the generator images agree word for word."""
    if p.genus != q.genus:
        raise ValueError(f"cannot compare genus {p.genus} with genus {q.genus}")
    return p.moved == q.moved


def first_difference(p: Automorphism, q: Automorphism) -> str | None:
    """Name of the first generator on which two maps disagree, or None."""
    if p.genus != q.genus:
        raise ValueError(f"cannot compare genus {p.genus} with genus {q.genus}")
    differ = [j for j in p.moved.keys() | q.moved.keys() if p.moved.get(j) != q.moved.get(j)]
    return f"x{min(differ) + 1}" if differ else None


# -- generator names ---------------------------------------------------------

_GENERATOR_FOR_CURVE = {
    "beta": "b",
    "gamma": "c",
    "epsilon": "e",
    "zeta": "f",
    "psi": "y2",
}


def generator_for_curve(curve_name: str) -> str:
    i = chain_index(curve_name)
    if i is not None:
        return f"a{i}"
    gen = _GENERATOR_FOR_CURVE.get(curve_name)
    if gen is None:
        raise UnknownCurveError(f"no generator letter for curve {curve_name!r}")
    return gen


class TwistGenerator(Record):
    """A named twist: ``curve``, the CurveRecord it twists along, ``auto``,
    its Automorphism, and ``inverse``, the twist with the opposite arrow."""

    __slots__ = ("name", "curve", "auto", "inverse")


def derive_generator(registry: Registry, curve_name: str) -> TwistGenerator:
    """Build one twist generator and its inverse from the registered chord
    layout.

    The twist composed with its inverse must send every ``x_i`` to
    ``x_i``.  That one direction makes the twist onto, so it is an
    automorphism (free groups are Hopfian), and ``inverse`` is its
    inverse.  Raises AutomorphismError naming the first generator that
    fails.
    """
    rec = registry.curve(curve_name)
    geom = registry.geometry(curve_name)
    genus = registry.spec.genus
    auto = Automorphism._trusted(genus, twist_images(geom, rec.arrow))
    inverse = Automorphism._trusted(genus, twist_images(geom, -rec.arrow))
    # both fix every generator that neither moves, and so does the composite
    for j in sorted(auto.moved.keys() | inverse.moved.keys()):
        if auto.apply(inverse[j]).letters != (j + 1,):
            raise AutomorphismError(f"the twist does not undo its inverse at x{j + 1}")
    return TwistGenerator(generator_for_curve(rec.name), rec, auto, inverse)


def derive_generators(registry: Registry) -> dict[str, TwistGenerator]:
    """Every registered curve's twist generator, keyed by generator name.

    A curve whose twist cannot be derived raises ValueError naming it:
    ``curve <name>: <reason>``.
    """
    gens: dict[str, TwistGenerator] = {}
    for rec in registry:
        try:
            gen = derive_generator(registry, rec.name)
        except ValueError as exc:
            raise ValueError(f"curve {rec.name}: {exc}") from exc
        gens[gen.name] = gen
    return gens


# -- expressions -------------------------------------------------------------

_EXPR_TOKEN_RE = re.compile(r"([a-z][a-z0-9]*)(\^-1)?$")

Factor = tuple[str, int]


def parse_expression(text: str, names: Iterable[str]) -> tuple[Factor, ...]:
    """Parse ``"a1 b^-1 a1"`` into ((name, ±1), ...).

    Tokens are whitespace separated; only the exponent ``^-1`` is
    recognised.  Unknown generator names are rejected with the
    offending token's position.
    """
    known = set(names)
    factors: list[Factor] = []
    for pos, tok in enumerate(text.split(), start=1):
        m = _EXPR_TOKEN_RE.match(tok)
        if m is None:
            raise ExpressionError(
                f"token {pos} ({tok!r}) is not of the form <name> or <name>^-1"
            )
        name = m.group(1)
        if name not in known:
            raise ExpressionError(
                f"token {pos}: unknown generator {name!r} "
                f"(available: {', '.join(sorted(known))})"
            )
        factors.append((name, -1 if m.group(2) else 1))
    return tuple(factors)


def evaluate(
    expression: str | Sequence[Factor],
    generators: Mapping[str, TwistGenerator],
    genus: int,
) -> Automorphism:
    """Evaluate a generator expression; the leftmost factor acts last.

    Raises LetterBudgetError, naming the factor count, when an image
    would grow past ``MAX_IMAGE_LETTERS`` letters.
    """
    if isinstance(expression, str):
        expression = parse_expression(expression, generators.keys())
    acc = Automorphism.identity(genus)
    try:
        for name, exp in expression:
            gen = generators[name]
            acc = acc.after(gen.auto if exp > 0 else gen.inverse)
    except LetterBudgetError as exc:
        raise LetterBudgetError(
            f"the images of an expression of {len(expression)} factors grow past "
            f"the bound MAX_IMAGE_LETTERS = {polygon.MAX_IMAGE_LETTERS} letters"
        ) from exc
    return acc


def apply_to_curve(
    registry: Registry,
    generators: Mapping[str, TwistGenerator],
    expression: str | Sequence[Factor],
    curve_name: str,
) -> CyclicWord:
    """Free-homotopy class of a registered curve under a mapping class."""
    rec = registry.curve(curve_name)
    auto = evaluate(expression, generators, registry.spec.genus)
    return CyclicWord.of(auto.apply(rec.word))


# -- the key conjugation -----------------------------------------------------

#: phi carries epsilon to zeta; its letters never change with genus.
PHI_EXPRESSION = "a3^-1 a2^-1 b a1^-1 a2^-1 a3^-1"
PHI_INVERSE_EXPRESSION = "a3 a2 a1 b^-1 a2 a3"
ZETA_CERTIFICATE_EXPRESSION = (
    f"{PHI_EXPRESSION} e^-1 {PHI_INVERSE_EXPRESSION}"
)


def verify_key_conjugation(
    registry: Registry, generators: Mapping[str, TwistGenerator]
) -> tuple[str, ...]:
    """Check both halves of the relation pinning f to the other twists, and
    return a diagnostic for each half that fails: none when both hold.

    Clause one is about curves: phi maps epsilon to zeta up to isotopy
    and orientation, so the image class must equal zeta's class up to
    inversion.  Clause two is about maps: the twist along zeta equals
    the phi-conjugate of the inverse twist along epsilon, exactly.
    """
    faults: list[str] = []
    image = apply_to_curve(registry, generators, PHI_EXPRESSION, "epsilon").unoriented()
    target = registry.curve("zeta").unoriented_class()
    if image != target:
        faults.append(f"phi sends epsilon to '{image}' but zeta's class is '{target}'")
    lhs = generators["f"].auto
    rhs = evaluate(ZETA_CERTIFICATE_EXPRESSION, generators, registry.spec.genus)
    if not equal(lhs, rhs):
        faults.append(
            f"twist along zeta differs from the conjugated epsilon twist "
            f"(first difference at {first_difference(lhs, rhs)})"
        )
    return tuple(faults)


# -- certificates ------------------------------------------------------------


class Certificate(Record):
    """A claim that a target twist is a word in an allowed generator set."""

    __slots__ = ("target", "allowed", "expression")


#: the twists a certificate may target, in the order ``verify-theorem``
#: checks them; a certificate for f is mandatory, the others optional
CERTIFICATE_TARGETS = ("f", "c", "y2")


def check_certificate(
    certificate: Certificate,
    generators: Mapping[str, TwistGenerator],
    genus: int,
) -> str | None:
    """Evaluate a certificate's expression and compare with its target:
    None when they agree, else a diagnostic naming the first difference.

    A certificate whose target or allowed set names a generator that is
    not registered, or whose expression touches a generator outside its
    allowed set, raises :class:`CertificateError` before anything is
    evaluated.  So the certificate for f, which allows X0, fails on a
    registry that lacks an X0 curve, whose relations went unchecked.
    """
    if certificate.target not in generators:
        raise CertificateError(
            f"certificate target {certificate.target!r} is not a known generator"
        )
    unregistered = set(certificate.allowed) - generators.keys()
    if unregistered:
        raise CertificateError(
            f"certificate for {certificate.target!r} allows generators that are "
            f"not registered: {', '.join(sorted(unregistered))}"
        )
    try:
        factors = parse_expression(certificate.expression, generators.keys())
    except ExpressionError as exc:
        raise CertificateError(
            f"certificate for {certificate.target!r}: {exc}"
        ) from None
    used = {name for name, _ in factors}
    outside = used - set(certificate.allowed)
    if outside:
        raise CertificateError(
            f"certificate for {certificate.target!r} uses generators outside "
            f"its allowed set: {', '.join(sorted(outside))}"
        )
    expected = generators[certificate.target].auto
    actual = evaluate(factors, generators, genus)
    if equal(expected, actual):
        return None
    diff = first_difference(expected, actual)
    return f"expression disagrees with {certificate.target} (first difference at {diff})"


def standard_certificates(genus: int) -> dict[str, Certificate]:
    """The shipped certificates: f as a product over the chain, b and e."""
    if genus < 4:
        raise ValueError(f"certificates need genus >= 4, got {genus}")
    allowed = tuple([generator_for_curve(name) for name in x0_names(genus)])
    return {
        "f": Certificate("f", allowed, ZETA_CERTIFICATE_EXPRESSION),
    }


# -- invariant suites --------------------------------------------------------


def transvection_fault(moved: Mapping[int, Word], c: int) -> int | None:
    """The first column j at which the map that sends x_{j+1} to moved[j],
    and fixes every other generator, is not the transvection
    z -> z + B(z, c) c mod 2; None if it is.  Column j is the bit row of the
    image of x_{j+1}; B is the dot product, so the transvection's column j
    is e_j, plus c when bit j of c is set: a fixed column can fail only
    there.  A class of odd weight is no two-sided curve's: the answer is -1.
    ``verify-theorem`` so checks each twist's images against its own curve.
    """
    if c.bit_count() % 2:
        return -1
    columns, rest = set(moved), c
    while rest:
        low = rest & -rest
        columns.add(low.bit_length() - 1)
        rest ^= low
    for j in sorted(columns):
        image = moved.get(j)
        row = 1 << j if image is None else mod2_class(image)
        if row != (1 << j) ^ (c if c >> j & 1 else 0):
            return j
    return None


def _reach(p: Automorphism) -> tuple[set[int], set[int]]:
    """The indices j of the generators x_{j+1} that p moves, and p's support:
    those and the indices of every letter of their images."""
    moved = set(p.moved)
    support = set(moved)
    for image in p.moved.values():
        support.update(abs(s) - 1 for s in image.letters)
    return moved, support


def _braid_holds(p: Automorphism, q: Automorphism, moved: set[int]) -> bool:
    """pqp = qpq, compared only at x_{j+1} for j in moved (see relation_suite)."""
    return all(_image_of(p, _image_of(q, p[j])) == _image_of(q, _image_of(p, q[j])) for j in moved)


def _commute_holds(p: Automorphism, q: Automorphism, moved: set[int]) -> bool:
    """pq = qp, compared only at x_{j+1} for j in moved (see relation_suite)."""
    return all(_image_of(p, q[j]) == _image_of(q, p[j]) for j in moved)


def relation_suite(
    registry: Registry, generators: Mapping[str, TwistGenerator]
) -> list[CheckResult]:
    """Braid relations along the chain (and with b), commutations elsewhere.

    Which pairs commute is decided by measuring crossing numbers of the
    registered layouts, not by a hard-coded list: disjoint twists must
    commute, crossing-once neighbours must braid.

    Each relation compares the two composites' images only at the
    generators x_j that one of the pair moves.  The comparison is still
    exact: if both maps fix x_j, every composite of them fixes x_j, so
    the two sides agree there.  Twists with disjoint supports (see
    :func:`_reach`) commute with nothing composed: each fixes every letter
    of the other's images, so both composites agree with the one that moves x_j.
    """
    reach = {name: _reach(gen.auto) for name, gen in generators.items()}
    results: list[CheckResult] = []
    chain = [(f"a{i}", f"a{i + 1}") for i in range(1, registry.spec.genus - 1)]
    for p, q in chain + [("a4", "b")]:
        if p in generators and q in generators:
            across = "across the crossing pair" if q == "b" else "on neighbouring chain curves"
            holds = _braid_holds(generators[p].auto, generators[q].auto, reach[p][0] | reach[q][0])
            results.append(CheckResult("braid", f"{p}~{q}", holds, f"t p t = p t p {across}"))
    by_curve = {gen.curve.name: name for name, gen in generators.items()}
    names = [n for n in registry.names() if n in by_curve]
    count = registry.crossings.count
    for idx, a in enumerate(names):
        p = by_curve[a]
        moved_p, support_p = reach[p]
        for b in names[idx + 1 :]:
            try:
                if count(a, b):
                    continue
            except DegeneratePositionError as exc:
                results.append(CheckResult("commute", f"{a}~{b}", False, f"degenerate: {exc}"))
                continue
            q = by_curve[b]
            moved_q, support_q = reach[q]
            holds = support_p.isdisjoint(support_q) or _commute_holds(
                generators[p].auto, generators[q].auto, moved_p | moved_q
            )
            detail = "disjoint curves, twists must commute"
            results.append(CheckResult("commute", f"{p}~{q}", holds, detail))
    return results


def fixing_suite(
    registry: Registry, generators: Mapping[str, TwistGenerator]
) -> list[CheckResult]:
    """Every generator must fix the boundary word and its own curve's class."""
    results: list[CheckResult] = []
    for name, gen in generators.items():
        results.append(
            CheckResult(
                "fixes-boundary",
                name,
                gen.auto.fixes_boundary(),
                "image of x1^2..xg^2 must be itself, on the nose",
            )
        )
        own = CyclicWord.of(gen.auto.apply(gen.curve.word)).unoriented()
        results.append(
            CheckResult(
                "fixes-own-curve",
                name,
                own == gen.curve.unoriented_class(),
                "a twist preserves its own core curve",
            )
        )
    return results
