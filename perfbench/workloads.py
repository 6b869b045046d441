"""The four workloads: seeded inputs, the world each needs, and checked ops.

Inputs are made in the orchestrating process from ``--seed``; the worker
that times the ops receives them as plain JSON.  Every op checks its own
output and raises :class:`WrongOutput` when the program answered wrongly.

Why the expression workloads are drawn to a fixed cost profile
---------------------------------------------------------------
The cost of an op on a random twist expression is extremely heavy-tailed:
on 6000 draws of the acceptance-test distribution (1-10 factors at g=4)
the median op pushes 7.6k letters through ``verify_sound`` and the largest
4.1e9, about 250 s.  A pass of plain random draws therefore differs from
seed to seed by several times its own length.  Instead, each pass has one
slot per quantile of the measured distribution (``PROFILES``), and a slot
takes the first seeded draw whose work lies within a tolerance of the
slot's quantile.  The expressions change with the seed; the amount of work
at each quantile does not.  The work of a draw is a property of the
mapping class, computed here from reduced image lengths, not a timing.
The heaviest quantiles above each profile's last knot are left out: an
op there can take longer than a whole run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

# Ops call through the module objects, so that the traced run's wrappers
# (installed on the modules) see every call the benchmark makes.
from crosscap import cutting, homology, twists
from crosscap.surface import SurfaceSpec, standard_registry, x0_names
from crosscap.twists import derive_generators

WORKLOADS = ("theorem-ladder", "expression-soundness", "relation-queries", "census")
#: the workloads BENCHMARK.json lists; the other two run by hand only (see
#: README.md): on a shared 2-vCPU host their figures spread beyond the
#: bounds, and every layer they stress is also measured on theorem-ladder.
LISTED = ("theorem-ladder", "census")

LADDER_GENERA = (4, 6, 8, 10, 14, 20)
SOUNDNESS_GENUS = 4
RELATION_GENERA = (4, 10)
CENSUS_GENERA = (5, 10, 20)
CENSUS_BOUNDARIES = (0, 1)

DIGEST_FILE = Path(__file__).with_name("census_digests.json")

LADDER_STDOUT = "\n".join(
    [
        "stage=registry-validation status=PASS",
        "stage=twist-suite status=PASS",
        "stage=key-conjugation status=PASS",
        "stage=certificate-f status=PASS",
        "stage=certificate-c status=SKIPPED",
        "stage=certificate-y2 status=SKIPPED",
        "stage=homology-smoke status=PASS",
        "result=PASS",
    ]
) + "\n"


class WrongOutput(Exception):
    """The program answered, but not with the expected result."""


# -- cost profiles -------------------------------------------------------------

# (quantile, work) knots measured on seeded draws, interpolated in log(work).
# expression-soundness: soundness_work of 6000 draws of 1-10 factors at g=4.
# relation-queries: relation_work of 1500 draws of 2-16 factors at each
# genus.  The draws used seed 2024, which is not a benchmark seed.
PROFILES = {
    ("expression-soundness", 4): (
        (0.0, 1288), (0.02, 1288), (0.05, 1424), (0.1, 2372), (0.15, 3360),
        (0.2, 4434), (0.3, 7858), (0.4, 12794), (0.5, 21620), (0.6, 35532),
        (0.7, 69894), (0.8, 178266), (0.85, 346786), (0.9, 821122),
        (0.93, 1705990), (0.95, 2953020), (0.96, 4639208), (0.97, 7291278),
        (0.98, 13786554),
    ),
    ("relation-queries", 4): (
        (0.0, 15732), (0.02, 20688), (0.05, 24650), (0.1, 33562), (0.15, 42494),
        (0.2, 54578), (0.3, 84592), (0.4, 143886), (0.5, 227380), (0.6, 373920),
        (0.7, 658238), (0.8, 1317694), (0.85, 2149386), (0.9, 3641274),
    ),
    ("relation-queries", 10): (
        (0.0, 38196), (0.02, 39378), (0.05, 47476), (0.1, 55484), (0.15, 66774),
        (0.2, 80226), (0.3, 108906), (0.4, 142836), (0.5, 180482), (0.6, 231852),
        (0.7, 298616), (0.8, 417914), (0.85, 545912), (0.9, 722514),
        (0.93, 965860), (0.95, 1177774), (0.96, 1388662), (0.97, 1821834),
        (0.98, 2458378),
    ),
}

#: slots per pass and genus
SLOTS = {"expression-soundness": 100, "relation-queries": 50}
#: a slot accepts work within this factor of its target (in log terms) ...
TOLERANCE = 0.08
#: ... except cheap slots, where draws are sparse and cost is mostly per-op overhead
LIGHT_WORK, LIGHT_TOLERANCE = 2000, 0.3
MAX_DRAWS = 20000


def profile_targets(knots, slots: int) -> list[float]:
    """Work at the midpoint quantile of each of ``slots`` equal slots."""
    top = knots[-1][0]
    targets = []
    for j in range(slots):
        q = (j + 0.5) / slots * top
        for (q0, w0), (q1, w1) in zip(knots, knots[1:]):
            if q0 <= q <= q1:
                f = (q - q0) / (q1 - q0)
                targets.append(math.exp(math.log(w0) + f * (math.log(w1) - math.log(w0))))
                break
    return targets


def fill_profile(rng: random.Random, targets, draw, work_of) -> list:
    """Fill one slot per target with seeded draws whose work matches it.

    ``draw(rng)`` makes a candidate and ``work_of(candidate, wanted)``
    returns its work, or None as soon as it knows that ``wanted``, the open
    slots, admit no work it can have.  Each candidate goes to the open slot
    nearest in log(work), if that slot's tolerance admits it.
    """
    open_slots = list(range(len(targets)))
    chosen: dict[int, object] = {}
    wanted = _OpenSlots(targets, open_slots)
    for _ in range(MAX_DRAWS):
        if not open_slots:
            break
        candidate = draw(rng)
        work = work_of(candidate, wanted)
        if work is None:
            continue
        best = min(open_slots, key=lambda j: abs(math.log(work / targets[j])))
        tol = LIGHT_TOLERANCE if targets[best] < LIGHT_WORK else TOLERANCE
        if abs(math.log(work / targets[best])) <= tol:
            chosen[best] = candidate
            open_slots.remove(best)
    if open_slots:
        raise RuntimeError(f"{len(open_slots)} profile slots unfilled after {MAX_DRAWS} draws")
    picks = [chosen[j] for j in range(len(targets))]
    rng.shuffle(picks)
    return picks


class _OpenSlots:
    """The work that the slots still open would admit."""

    def __init__(self, targets, open_slots: list[int]) -> None:
        self.targets, self.open_slots = targets, open_slots

    @property
    def most(self) -> float:
        return max(self.targets[j] for j in self.open_slots) * math.exp(TOLERANCE)

    def admits(self, lo: float, hi: float) -> bool:
        """Whether some open slot admits work between ``lo`` and ``hi``."""
        return any(
            self.targets[j] * math.exp(-TOLERANCE) <= hi
            and self.targets[j] * math.exp(TOLERANCE) >= lo
            for j in self.open_slots
        )


def _random_factors(rng: random.Random, names, lo: int, hi: int) -> list[tuple[str, int]]:
    return [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi))]


def _spell(factors) -> str:
    return " ".join(name if sign > 0 else f"{name}^-1" for name, sign in factors)


# The work of substituting images into words, in units of one letter pushed:
# each letter pushed onto the output, each letter read from the input, each
# letter written to the reduced result twice (Word checks it, then reduces
# it again), and a fixed cost per generator image composed.  Fitted on 80
# timed relation queries, it predicts op time to within 8% (coefficient of
# variation); letters pushed alone are off by 24%.
WRITE_WEIGHT = 2
COMPOSE_COST = 100


def _substitution_work(images, words) -> int:
    """Work of applying ``images`` to each of ``words``, before writing out."""
    lengths = [len(w) for w in images]
    work = 0
    for w in words:
        letters = w.letters
        work += len(letters) + COMPOSE_COST
        for i, n in enumerate(lengths, start=1):
            work += n * (letters.count(i) + letters.count(-i))
    return work


def _written(words) -> int:
    return WRITE_WEIGHT * sum(len(w) for w in words)


def _evaluate_steps(factors, generators, start, limit: float):
    """Compose ``factors`` onto ``start`` one at a time, as ``evaluate`` does.

    Returns ``[(map after the factor, work of that composition), ...]``, or
    None once the work passes ``limit``.
    """
    acc, total, steps = start, 0, []
    for name, sign in factors:
        auto = generators[name].auto
        step = auto if sign > 0 else auto.inverse()
        work = _substitution_work(acc.images, step.images)
        work += _substitution_work(step.inverse_images, acc.inverse_images)
        acc = acc.after(step)
        work += _written(acc.images) + _written(acc.inverse_images)
        total += work
        if total > limit:
            return None
        steps.append((acc, work))
    return steps


def evaluation_work(factors, generators, genus: int, limit: float):
    """``(final map, work)`` of evaluating ``factors``, or None past ``limit``."""
    steps = _evaluate_steps(factors, generators, twists.Automorphism.identity(genus), limit)
    if not steps:
        return None
    return steps[-1][0], sum(work for _, work in steps)


#: evaluation of a candidate stops past this much work; every draw within
#: the profiles stays far below it
_SCREEN_LIMIT = 4_000_000


def soundness_work(factors, generators, genus: int) -> int | None:
    """Work of a soundness op: the evaluation, then verify_sound substituting
    the images into the inverse images."""
    evaluated = evaluation_work(factors, generators, genus, _SCREEN_LIMIT)
    if evaluated is None:
        return None
    final, work = evaluated
    return work + _substitution_work(final.images, final.inverse_images)


#: a relation query does between 4 and 16 times the work of evaluating its
#: expression once (measured on 600 draws: 4.4 to 15.5)
_QUERY_OVER_EXPRESSION = (4, 16)


def relation_work(spec: dict, generators, genus: int, wanted) -> int | None:
    """Work of one relation query: the expression and its relator-inserted
    twin are each evaluated twice (once to compare maps, once inside
    apply_to_curve), the flipped expression once.

    The twin costs the expression's work plus the relator's steps: once the
    relator is complete the map is the expression's prefix map again, word
    for word.  The flipped expression shares the prefix before its flip.
    """
    lo, hi = _QUERY_OVER_EXPRESSION
    limit = wanted.most
    identity = twists.Automorphism.identity(genus)
    steps = _evaluate_steps(spec["factors"], generators, identity, limit / lo)
    if steps is None:
        return None
    prefix_work = [0]
    for _, work in steps:
        prefix_work.append(prefix_work[-1] + work)
    expression = prefix_work[-1]
    if not wanted.admits(lo * expression, hi * expression):
        return None
    prefix_map = [identity] + [acc for acc, _ in steps]
    at, relator = spec["at"], spec["relator"]
    relator_steps = _evaluate_steps(relator, generators, prefix_map[at], limit)
    k = spec["flip_at"]
    flip_steps = _evaluate_steps(spec["flipped"][k:], generators, prefix_map[k], limit)
    if relator_steps is None or flip_steps is None:
        return None
    twin = expression + sum(work for _, work in relator_steps)
    flipped = prefix_work[k] + sum(work for _, work in flip_steps)
    total = 2 * expression + 2 * twin + flipped
    return total if wanted.admits(total, total) else None


# -- inputs, made from the seed ------------------------------------------------


def make_inputs(workload: str, seed: int) -> list:
    """The pass of op specs for ``workload``; the same seed gives the same pass."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "theorem-ladder":
        return [{"genus": g, "seed": rng.randrange(1 << 30)} for g in LADDER_GENERA]
    if workload == "expression-soundness":
        return _soundness_inputs(rng)
    if workload == "relation-queries":
        return _relation_inputs(rng)
    if workload == "census":
        ops = [
            [g, n, drop]
            for g in CENSUS_GENERA
            for n in CENSUS_BOUNDARIES
            for drop in (None, *x0_names(g))
        ]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _generators(genus: int):
    return derive_generators(standard_registry(SurfaceSpec(genus, 1)))


def _soundness_inputs(rng: random.Random) -> list[str]:
    genus = SOUNDNESS_GENUS
    generators = _generators(genus)
    names = sorted(generators)
    targets = profile_targets(PROFILES[("expression-soundness", genus)], SLOTS["expression-soundness"])
    picks = fill_profile(
        rng,
        targets,
        lambda r: _random_factors(r, names, 1, 10),
        lambda f, wanted: _wanted(soundness_work(f, generators, genus), wanted),
    )
    return [_spell(f) for f in picks]


def _wanted(work, wanted):
    return work if work is not None and wanted.admits(work, work) else None


def relators(genus: int) -> list[tuple[str, str, str]]:
    """(kind, p, q) for twist pairs whose relation the standard chain forces:
    neighbouring chain curves (and alpha_4, beta) meet once and braid;
    curves the registry validates as disjoint commute."""
    chain = [f"a{i}" for i in range(1, genus)]
    out = [("braid", p, q) for p, q in zip(chain, chain[1:])]
    out += [("commute", p, q) for i, p in enumerate(chain) for q in chain[i + 2 :]]
    out += [("commute", "b", a) for a in chain if a != "a4"]
    if genus >= 5:
        out.append(("braid", "a4", "b"))
    return out


def _relator_factors(kind: str, p: str, q: str) -> list[tuple[str, int]]:
    if kind == "braid":  # pqp = qpq
        return [(p, 1), (q, 1), (p, 1), (q, -1), (p, -1), (q, -1)]
    return [(p, 1), (q, 1), (p, -1), (q, -1)]


def _relation_draw(rng: random.Random, names, rels, curves) -> dict:
    factors = _random_factors(rng, names, 2, 16)
    kind, p, q = rng.choice(rels)
    if rng.random() < 0.5:
        p, q = q, p
    relator = _relator_factors(kind, p, q)
    at = rng.randint(0, len(factors))
    flipped = list(factors)
    k = rng.randrange(len(flipped))
    flipped[k] = (flipped[k][0], -flipped[k][1])
    return {
        "factors": factors,
        "related": factors[:at] + relator + factors[at:],
        "relator": relator,
        "at": at,
        "flipped": flipped,
        "flip_at": k,
        "curve": rng.choice(curves),
    }


def _relation_inputs(rng: random.Random) -> list[dict]:
    specs: list[dict] = []
    for genus in RELATION_GENERA:
        generators = _generators(genus)
        names = sorted(generators)
        curves = sorted(standard_registry(SurfaceSpec(genus, 1)).names())
        rels = relators(genus)
        targets = profile_targets(PROFILES[("relation-queries", genus)], SLOTS["relation-queries"])
        picks = fill_profile(
            rng,
            targets,
            lambda r: _relation_draw(r, names, rels, curves),
            lambda spec, wanted: relation_work(spec, generators, genus, wanted),
        )
        specs += [
            {
                "genus": genus,
                "expression": _spell(spec["factors"]),
                "related": _spell(spec["related"]),
                "flipped": _spell(spec["flipped"]),
                "curve": spec["curve"],
            }
            for spec in picks
        ]
    rng.shuffle(specs)
    return specs


# -- worlds: what a user builds before the first op --------------------------


def build_world(workload: str) -> dict:
    """Registries (and twists, where ops need them) for the workload's genera."""
    if workload == "expression-soundness":
        return {"generators": _generators(SOUNDNESS_GENUS)}
    if workload == "relation-queries":
        world = {}
        for genus in RELATION_GENERA:
            registry = standard_registry(SurfaceSpec(genus, 1))
            world[genus] = (registry, derive_generators(registry))
        return world
    if workload == "census":
        world = {}
        for g in CENSUS_GENERA:
            for n in CENSUS_BOUNDARIES:
                registry = standard_registry(SurfaceSpec(g, n))
                for name in registry.names():
                    registry.geometry(name)
                world[(g, n)] = registry
        if DIGEST_FILE.is_file():
            world["digests"] = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
        return world
    raise ValueError(f"{workload} has no in-process world")


# -- ops -----------------------------------------------------------------------


def run_op(workload: str, world: dict, spec) -> None:
    """Run one op and check its output; raise WrongOutput on a wrong answer."""
    if workload == "expression-soundness":
        auto = twists.evaluate(spec, world["generators"], SOUNDNESS_GENUS)
        if not auto.fixes_boundary():
            raise WrongOutput(f"{spec!r} moves the boundary")
        auto.verify_sound()
        det = homology.abelianize(auto).det()
        if det not in (1, -1):
            raise WrongOutput(f"{spec!r} has homology determinant {det}")
    elif workload == "relation-queries":
        genus = spec["genus"]
        registry, generators = world[genus]
        p = twists.evaluate(spec["expression"], generators, genus)
        if not twists.equal(p, twists.evaluate(spec["related"], generators, genus)):
            raise WrongOutput(f"inserting a relator changed {spec['expression']!r}")
        if twists.equal(p, twists.evaluate(spec["flipped"], generators, genus)):
            raise WrongOutput(f"flipping a factor left {spec['expression']!r} unchanged")
        before = twists.apply_to_curve(registry, generators, spec["expression"], spec["curve"])
        after = twists.apply_to_curve(registry, generators, spec["related"], spec["curve"])
        if before != after:
            raise WrongOutput(f"curve classes differ for {spec['expression']!r}")
    elif workload == "census":
        key, digest = census_answer(world, spec)
        expected = world["digests"].get(key)
        if digest != expected:
            raise WrongOutput(f"{key}: digest {digest}, recorded {expected}")
    else:
        raise ValueError(f"{workload} has no in-process ops")


def census_key(spec) -> str:
    g, n, drop = spec
    return f"g={g} n={n} drop={drop or '-'}"


def census_answer(world: dict, spec) -> tuple[str, str]:
    """(key, digest) of one census op: cut along X0 without ``drop`` (all of
    X0 when ``drop`` is None), and measure the intersection number of
    ``drop`` with each X0 curve after it, so that a pass meets every X0 pair
    once.  Also checks the Euler characteristic of the cut."""
    g, n, drop = spec
    registry = world[(g, n)]
    names = x0_names(g)
    report = cutting.cut_along(registry, [c for c in names if c != drop])
    if report.total_euler != 2 - g - n:
        raise WrongOutput(f"{census_key(spec)}: euler sum {report.total_euler}")
    lines = report.structured_lines()
    if drop is not None:
        later = names[names.index(drop) + 1 :]
        lines.append(" ".join(str(cutting.intersection_number(registry, drop, v)) for v in later))
    return census_key(spec), _digest("\n".join(lines))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
