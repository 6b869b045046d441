"""Exact twist automorphisms and the relations between them.

A mapping class acts on the free fundamental group of the bordered
surface; here a class is an :class:`Automorphism` storing the images of
``x1 .. xg``, and nothing else.  A free group is Hopfian, so a map is an
automorphism exactly when its images generate the group;
:meth:`Automorphism.verify_sound` decides that by Stallings folding.
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
from typing import Iterable, Mapping, Sequence

from crosscap import polygon
from crosscap.polygon import DegeneratePositionError, LetterBudgetError, apply_images, twist_images
from crosscap.surface import (
    CheckResult,
    Registry,
    UnknownCurveError,
    chain_index,
    x0_names,
)
from crosscap.words import CyclicWord, Record, Word, boundary_word


class AutomorphismError(ValueError):
    """Images that do not define an automorphism: their number or genus is
    wrong, or they do not generate the free group."""


class ExpressionError(ValueError):
    """A generator expression that does not parse."""


class CertificateError(ValueError):
    """A certificate that is malformed or steps outside its allowed set."""


class Automorphism(Record):
    """An endomorphism of the free group on ``x1 .. xg``, given by the
    images of the generators.

    Construction checks the shape only: one image per generator, each of
    the map's genus.  Composites of automorphisms are automorphisms by
    algebra alone, so nothing more is checked when maps are built from
    derived twists; :meth:`verify_sound` decides soundness on demand.
    """

    __slots__ = ("genus", "images")

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
        super().__init__(genus, images)

    def verify_sound(self) -> None:
        """Raise AutomorphismError unless the images generate the free group,
        which makes the map an automorphism (free groups are Hopfian).

        The images are folded (Stallings, Invent. Math. 71, 1983) in time
        close to linear in their letters, and none is substituted into
        another.  The error names the folded graph's vertex count and the
        generators missing from the images' span.
        """
        vertices, missing = _fold(self.images)
        if missing:
            raise AutomorphismError(
                f"images do not generate the free group: they fold to {vertices} "
                f"{'vertex' if vertices == 1 else 'vertices'}, and "
                f"{', '.join(f'x{i}' for i in missing)} "
                f"{'is' if len(missing) == 1 else 'are'} not in their span"
            )

    @classmethod
    def identity(cls, genus: int) -> "Automorphism":
        return cls(genus, tuple(Word._trusted(genus, (i,)) for i in range(1, genus + 1)))

    def apply(self, word: Word) -> Word:
        return apply_images(self.images, word)

    def after(self, other: "Automorphism") -> "Automorphism":
        """The composite self∘other (other acts first).

        Most twist images are a bare generator x_j, whose image under self
        is self's j-th image itself; only the other words are substituted.
        """
        if other.genus != self.genus:
            raise ValueError(
                f"cannot compose automorphisms of genus {self.genus} and {other.genus}"
            )
        return Automorphism(self.genus, tuple(_image_of(self.images, w) for w in other.images))

    def fixes_boundary(self) -> bool:
        delta = boundary_word(self.genus)
        return self.apply(delta) == delta


def _image_of(outer: Sequence[Word], w: Word) -> Word:
    """The image under outer of one word; a bare generator x_j is looked up."""
    letters = w.letters
    if len(letters) == 1 and letters[0] > 0:
        return outer[letters[0] - 1]
    return apply_images(outer, w)


def _fold(images: Sequence[Word]) -> tuple[int, list[int]]:
    """Fold the images, spelled as loops at one base vertex: the vertex
    count of the folded graph, and the i for which x_i is not a loop at the
    base, that is, not in the images' span.

    Each vertex keeps one edge per signed label, ``out[v][s]``, with the
    reverse edge ``out[w][-s]`` alongside; merged vertices hang in a
    union-find.  The graph stays folded after each image: the image is
    read from the base forwards and backwards as far as edges go, only the
    unread middle gets new vertices, and when nothing is left unread its
    two ends merge, folding on until no vertex has two edges with one label.
    """
    parent = [0]
    out: list[dict[int, int]] = [{}]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for image in images:
        letters = image.letters
        u, i = find(0), 0
        for s in letters:
            t = out[u].get(s)
            if t is None:
                break
            u, i = find(t), i + 1
        v, j = find(0), len(letters)
        while j > i:
            t = out[v].get(-letters[j - 1])
            if t is None:
                break
            v, j = find(t), j - 1
        if i < j:
            for s in letters[i : j - 1]:
                w = len(parent)
                parent.append(w)
                out.append({-s: u})
                out[u][s] = w
                u = w
            s = letters[j - 1]
            t = out[v].get(-s)
            if t is None:
                out[u][s] = v
                out[v][-s] = u
                continue
            # the first new edge gave v this label: the image is not
            # cyclically reduced, and its ends fold together
            v = t
        pending = [(u, v)]
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if len(out[a]) > len(out[b]):
                a, b = b, a
            parent[a] = b
            into = out[b]
            for s, t in out[a].items():
                if s in into:
                    pending.append((t, into[s]))
                else:
                    into[s] = t
            out[a] = {}
    base = find(0)
    loops = out[base]
    missing = [i for i in range(1, len(images) + 1) if i not in loops or find(loops[i]) != base]
    vertices = sum(1 for v, p in enumerate(parent) if v == p)
    return vertices, missing


def equal(p: Automorphism, q: Automorphism) -> bool:
    """Exact equality: the generator images agree word for word."""
    if p.genus != q.genus:
        raise ValueError(f"cannot compare genus {p.genus} with genus {q.genus}")
    return p.images == q.images


def first_difference(p: Automorphism, q: Automorphism) -> str | None:
    """Name of the first generator on which two maps disagree, or None."""
    if p.genus != q.genus:
        raise ValueError(f"cannot compare genus {p.genus} with genus {q.genus}")
    for i in range(p.genus):
        if p.images[i] != q.images[i]:
            return f"x{i + 1}"
    return None


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
    auto = Automorphism(genus, tuple(twist_images(geom, rec.arrow)))
    inverse = Automorphism(genus, tuple(twist_images(geom, -rec.arrow)))
    diff = first_difference(auto.after(inverse), Automorphism.identity(genus))
    if diff is not None:
        raise AutomorphismError(f"the twist does not undo its inverse at {diff}")
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


class KeyConjugationReport(Record):
    __slots__ = ("curve_clause_ok", "twist_clause_ok", "diagnostics")

    @property
    def ok(self) -> bool:
        return self.curve_clause_ok and self.twist_clause_ok


def verify_key_conjugation(
    registry: Registry, generators: Mapping[str, TwistGenerator]
) -> KeyConjugationReport:
    """Check both halves of the relation pinning f to the other twists.

    Clause one is about curves: phi maps epsilon to zeta up to isotopy
    and orientation, so the image class must equal zeta's class up to
    inversion.  Clause two is about maps: the twist along zeta equals
    the phi-conjugate of the inverse twist along epsilon, exactly.
    """
    genus = registry.spec.genus
    diagnostics: list[str] = []
    image = apply_to_curve(registry, generators, PHI_EXPRESSION, "epsilon").unoriented()
    target = registry.curve("zeta").unoriented_class()
    curve_ok = image == target
    if not curve_ok:
        diagnostics.append(
            f"phi sends epsilon to '{image}' but zeta's class is '{target}'"
        )
    lhs = generators["f"].auto
    rhs = evaluate(ZETA_CERTIFICATE_EXPRESSION, generators, genus)
    twist_ok = equal(lhs, rhs)
    if not twist_ok:
        diff = first_difference(lhs, rhs)
        diagnostics.append(
            f"twist along zeta differs from the conjugated epsilon twist "
            f"(first difference at {diff})"
        )
    return KeyConjugationReport(curve_ok, twist_ok, tuple(diagnostics))


# -- certificates ------------------------------------------------------------


class Certificate(Record):
    """A claim that a target twist is a word in an allowed generator set."""

    __slots__ = ("target", "allowed", "expression")


class CertificateReport(Record):
    __slots__ = ("target", "ok", "diagnostic")

    def __init__(self, target: str, ok: bool, diagnostic: str = "") -> None:
        super().__init__(target, ok, diagnostic)


def check_certificate(
    certificate: Certificate,
    generators: Mapping[str, TwistGenerator],
    genus: int,
) -> CertificateReport:
    """Evaluate a certificate's expression and compare with its target.

    Expressions touching any generator outside the allowed set are
    rejected by raising :class:`CertificateError` before anything is
    evaluated; a well-formed certificate that simply fails yields a
    report with ``ok=False`` and a named first difference.
    """
    if certificate.target not in generators:
        raise CertificateError(
            f"certificate target {certificate.target!r} is not a known generator"
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
        return CertificateReport(certificate.target, True)
    diff = first_difference(expected, actual)
    return CertificateReport(
        certificate.target,
        False,
        f"expression disagrees with {certificate.target} (first difference at {diff})",
    )


def standard_certificates(genus: int) -> dict[str, Certificate]:
    """The shipped certificates: f as a product over the chain, b and e."""
    if genus < 4:
        raise ValueError(f"certificates need genus >= 4, got {genus}")
    allowed = tuple([generator_for_curve(name) for name in x0_names(genus)])
    return {
        "f": Certificate("f", allowed, ZETA_CERTIFICATE_EXPRESSION),
    }


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
        if target in certs:
            raise CertificateError(f"line {line_no}: duplicate certificate for {target}")
        allowed = tuple(
            name.strip() for name in allowed_text.split(",") if name.strip()
        )
        if not allowed:
            raise CertificateError(f"line {line_no}: empty allowed set")
        certs[target] = Certificate(target, allowed, expression)
    return certs


# -- invariant suites --------------------------------------------------------


def _reach(p: Automorphism) -> tuple[set[int], set[int]]:
    """The indices j of the generators x_{j+1} that p moves, and p's support:
    those and the indices of every letter of their images."""
    moved = {j for j, w in enumerate(p.images) if w.letters != (j + 1,)}
    support = set(moved)
    for j in moved:
        support.update(abs(s) - 1 for s in p.images[j])
    return moved, support


def _braid_holds(p: Automorphism, q: Automorphism, moved: set[int]) -> bool:
    """pqp = qpq, compared only at x_{j+1} for j in moved (see relation_suite)."""
    a, b = p.images, q.images
    return all(_image_of(a, _image_of(b, a[j])) == _image_of(b, _image_of(a, b[j])) for j in moved)


def _commute_holds(p: Automorphism, q: Automorphism, moved: set[int]) -> bool:
    """pq = qp, compared only at x_{j+1} for j in moved (see relation_suite)."""
    a, b = p.images, q.images
    return all(_image_of(a, b[j]) == _image_of(b, a[j]) for j in moved)


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
    for idx, a in enumerate(names):
        for b in names[idx + 1 :]:
            try:
                if registry.crossings.count(a, b) != 0:
                    continue
            except DegeneratePositionError as exc:
                results.append(CheckResult("commute", f"{a}~{b}", False, f"degenerate: {exc}"))
                continue
            p, q = by_curve[a], by_curve[b]
            holds = reach[p][1].isdisjoint(reach[q][1]) or _commute_holds(
                generators[p].auto, generators[q].auto, reach[p][0] | reach[q][0]
            )
            subject = f"{generator_for_curve(a)}~{generator_for_curve(b)}"
            detail = "disjoint curves, twists must commute"
            results.append(CheckResult("commute", subject, holds, detail))
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
