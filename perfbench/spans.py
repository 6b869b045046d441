"""Spans and counters around the calls into crosscap's layers.

The program itself is not edited: :func:`install` replaces every public
function and public method of the seven modules with a timing wrapper, in
this process only, and rebinds each name in every module that imported it
(``twists`` and ``cutting`` import ``apply_images``, ``crossing_count`` and
friends from ``polygon``, and those calls must land in the same span).
:func:`install` returns a function that puts the originals back.

A span is one call: name, start, end and the span that caused it.  A
layer's self time is the sum over its spans of the span's duration minus
the time covered by its child spans.  Counters are recorded by hooks that
run after the wrapped call returns; hook time is charged to no layer.
"""

from __future__ import annotations

import dataclasses
import fractions
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable

LAYERS = ("cli", "surface", "polygon", "words", "twists", "homology", "cutting")

# (metric, unit) pairs reported by a traced run, in report order.  A metric
# ending in ``_s`` is the inclusive time of the span named in SPAN_TIMES.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("surface.validate_registry_s", "s"),
    ("surface.validate_checks", "count"),
    ("polygon.twist_images_s", "s"),
    ("polygon.twist_images_calls", "count"),
    ("polygon.salt_retries", "count"),
    ("polygon.fractions_made", "count"),
    ("polygon.crossing_count_s", "s"),
    ("polygon.crossing_count_calls", "count"),
    ("polygon.apply_images_s", "s"),
    ("polygon.apply_images_calls", "count"),
    ("polygon.letters_pushed", "count"),
    ("polygon.letters_out", "count"),
    ("polygon.cancel_ratio", "ratio"),
    ("polygon.peak_word_len", "letters"),
    ("twists.verify_sound_s", "s"),
    ("twists.verify_sound_calls", "count"),
    ("twists.evaluate_s", "s"),
    ("twists.evaluate_factors", "count"),
    ("twists.equal_s", "s"),
    ("twists.equal_calls", "count"),
    ("twists.derive_generators_s", "s"),
    ("twists.relation_suite_s", "s"),
    ("twists.relation_checks", "count"),
    ("twists.fixing_suite_s", "s"),
    ("twists.audit_tables_s", "s"),
    ("twists.key_conjugation_s", "s"),
    ("twists.check_certificate_s", "s"),
    ("words.cyclic_word_s", "s"),
    ("words.cyclic_word_calls", "count"),
    ("words.cyclic_word_letters", "count"),
    ("homology.abelianize_s", "s"),
    ("homology.abelianize_calls", "count"),
    ("cutting.cut_along_s", "s"),
    ("cutting.cut_along_calls", "count"),
    ("cutting.pieces", "count"),
    ("cutting.intersection_number_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
)

# metric prefix -> span name; "<prefix>_s" is its inclusive time and
# "<prefix>_calls" its call count
SPAN_TIMES = {
    "surface.validate_registry": "surface.validate_registry",
    "polygon.twist_images": "polygon.twist_images",
    "polygon.crossing_count": "polygon.crossing_count",
    "polygon.apply_images": "polygon.apply_images",
    "twists.verify_sound": "twists.Automorphism.verify_sound",
    "twists.evaluate": "twists.evaluate",
    "twists.equal": "twists.equal",
    "twists.derive_generators": "twists.derive_generators",
    "twists.relation_suite": "twists.relation_suite",
    "twists.fixing_suite": "twists.fixing_suite",
    "twists.audit_tables": "twists.audit_tables",
    "twists.key_conjugation": "twists.verify_key_conjugation",
    "twists.check_certificate": "twists.check_certificate",
    "words.cyclic_word": "words.CyclicWord.__post_init__",
    "homology.abelianize": "homology.abelianize",
    "cutting.cut_along": "cutting.cut_along",
    "cutting.intersection_number": "cutting.intersection_number",
}


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span_id")

    def __init__(self, name: str, layer: str, start: int, span_id: int) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0
        self.span_id = span_id


class Tracer:
    """Aggregates spans in memory into per-name and per-layer totals.

    With ``record=True`` every span is also kept as a
    ``(span_id, parent_id, name, start_ns, end_ns)`` tuple, so that tests
    can recompute the totals from the spans themselves.
    """

    def __init__(self, record: bool = False) -> None:
        self.record = record
        self.stack: list[_Frame] = []
        self.calls: Counter[str] = Counter()
        self.inclusive_ns: Counter[str] = Counter()
        self.layer_self_ns: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.peaks: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._open: Counter[str] = Counter()
        self._next_id = 1

    def push(self, name: str, layer: str) -> _Frame:
        frame = _Frame(name, layer, perf_counter_ns(), self._next_id)
        self._next_id += 1
        self.stack.append(frame)
        self._open[name] += 1
        return frame

    def pop(self, frame: _Frame) -> None:
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        duration = end - frame.start
        name = frame.name
        self._open[name] -= 1
        self.calls[name] += 1
        if not self._open[name]:  # a recursive call is inside its outer span
            self.inclusive_ns[name] += duration
        self.layer_self_ns[frame.layer] += duration - frame.child
        if stack:
            stack[-1].child += duration
        if self.record:
            parent = stack[-1].span_id if stack else 0
            self.spans.append((frame.span_id, parent, name, frame.start, end))

    def span(self, name: str, layer: str = "bench") -> "_SpanContext":
        return _SpanContext(self, name, layer)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass averages of the PER_LAYER metrics, except ``cli.import_s``
        and the ``trace.*`` ones, which the caller measures."""
        per = 1.0 / passes
        out: dict[str, float] = {}
        for prefix, span_name in SPAN_TIMES.items():
            out[f"{prefix}_s"] = self.inclusive_ns[span_name] * per / 1e9
            out[f"{prefix}_calls"] = self.calls[span_name] * per
        c = self.counters
        out["surface.validate_checks"] = c["validate_checks"] * per
        out["polygon.salt_retries"] = (c["fresh_params_in_twist"] - c["crosscaps_twisted"]) * per
        out["polygon.fractions_made"] = c["fractions_made"] * per
        out["polygon.letters_pushed"] = c["letters_pushed"] * per
        out["polygon.letters_out"] = c["letters_out"] * per
        out["polygon.cancel_ratio"] = (
            c["letters_out"] / c["letters_pushed"] if c["letters_pushed"] else 0.0
        )
        out["polygon.peak_word_len"] = float(self.peaks["word_len"])
        out["twists.relation_checks"] = c["relation_checks"] * per
        out["twists.evaluate_factors"] = c["evaluate_factors"] * per
        out["words.cyclic_word_letters"] = c["cyclic_word_letters"] * per
        out["cutting.pieces"] = c["pieces"] * per
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_ns[layer] * per / 1e9
        reported = {name for name, _ in PER_LAYER}
        return {name: value for name, value in out.items() if name in reported}

    def merge(self, other: dict) -> None:
        """Add the totals of another tracer, as exported by :meth:`export`."""
        self.calls.update(other["calls"])
        self.inclusive_ns.update(other["inclusive_ns"])
        self.layer_self_ns.update(other["layer_self_ns"])
        self.counters.update(other["counters"])
        for key, value in other["peaks"].items():
            self.peaks[key] = max(self.peaks[key], value)

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_ns": dict(self.inclusive_ns),
            "layer_self_ns": dict(self.layer_self_ns),
            "counters": dict(self.counters),
            "peaks": dict(self.peaks),
        }


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self) -> None:
        self.frame = self.tracer.push(self.name, self.layer)

    def __exit__(self, *exc) -> None:
        self.tracer.pop(self.frame)


# -- counter hooks: (tracer, args, kwargs, result) -> None ------------------


def _apply_images_hook(tr: Tracer, args, kwargs, result) -> None:
    images, word = args
    lengths = [len(w) for w in images]
    tr.counters["letters_pushed"] += sum(lengths[abs(s) - 1] for s in word.letters)
    tr.counters["letters_out"] += len(result)
    if len(result) > tr.peaks["word_len"]:
        tr.peaks["word_len"] = len(result)


def _fresh_params_hook(tr: Tracer, args, kwargs, result) -> None:
    # the hook runs in its own "trace.hook" frame; the caller is the one below
    if len(tr.stack) >= 2 and tr.stack[-2].name == "polygon.twist_images":
        tr.counters["fresh_params_in_twist"] += 1


def _twist_images_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["crosscaps_twisted"] += args[0].genus


def _evaluate_hook(tr: Tracer, args, kwargs, result) -> None:
    expression = args[0] if args else kwargs["expression"]
    tr.counters["evaluate_factors"] += (
        len(expression.split()) if isinstance(expression, str) else len(expression)
    )


def _cyclic_word_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["cyclic_word_letters"] += len(args[0].letters)


def _count(key: str, size: Callable) -> Callable:
    def hook(tr: Tracer, args, kwargs, result) -> None:
        tr.counters[key] += size(result)

    return hook


HOOKS: dict[str, Callable] = {
    "polygon.apply_images": _apply_images_hook,
    "polygon.fresh_params": _fresh_params_hook,
    "polygon.twist_images": _twist_images_hook,
    "twists.evaluate": _evaluate_hook,
    "words.CyclicWord.__post_init__": _cyclic_word_hook,
    "surface.validate_registry": _count("validate_checks", lambda r: len(r.results)),
    "twists.relation_suite": _count("relation_checks", len),
    "cutting.cut_along": _count("pieces", lambda r: len(r.components)),
}


def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str) -> Callable:
    hook = HOOKS.get(name)
    push, pop = tracer.push, tracer.pop

    def traced(*args, **kwargs):
        frame = push(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            pop(frame)
        if hook is not None:
            counting = push("trace.hook", "trace")
            try:
                hook(tracer, args, kwargs, result)
            finally:
                pop(counting)
        return result

    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _class_members(cls: type):
    """(attribute, function, rewrap) for each traced member of a class."""
    for attr, member in list(vars(cls).items()):
        if isinstance(member, (staticmethod, classmethod)):
            fn, rewrap = member.__func__, type(member)
        elif isinstance(member, types.FunctionType):
            fn, rewrap = member, None
        else:
            continue
        constructor = attr == "__post_init__" or (
            attr == "__init__" and not dataclasses.is_dataclass(cls)
        )
        if attr.startswith("_") and not constructor:
            continue
        yield attr, fn, rewrap


def install(tracer: Tracer) -> Callable[[], None]:
    """Route the public names of the seven layers through ``tracer``.

    Returns the function that undoes every replacement.
    """
    modules = {layer: importlib.import_module(f"crosscap.{layer}") for layer in LAYERS}
    package = importlib.import_module("crosscap")
    undo: list[tuple[object, str, object]] = []
    replaced: dict[int, Callable] = {}

    def replace(owner: object, attr: str, new: object) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                replaced[id(obj)] = _wrap(tracer, obj, f"{layer}.{obj.__qualname__}", layer)
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                for member, fn, rewrap in _class_members(obj):
                    wrapper = _wrap(tracer, fn, f"{layer}.{fn.__qualname__}", layer)
                    replace(obj, member, rewrap(wrapper) if rewrap else wrapper)

    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                replace(module, attr, replaced[id(obj)])

    undo.extend(_count_fractions(tracer))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


def _count_fractions(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Count every Fraction built, whichever constructor path makes it."""
    cls = fractions.Fraction
    counters = tracer.counters
    saved = []
    original_new = vars(cls)["__new__"]
    new_fn = original_new.__func__ if isinstance(original_new, staticmethod) else original_new

    def counting_new(klass, *args, **kwargs):
        counters["fractions_made"] += 1
        return new_fn(klass, *args, **kwargs)

    saved.append((cls, "__new__", original_new))
    cls.__new__ = staticmethod(counting_new)
    # Python 3.12+ builds arithmetic results without calling __new__
    coprime = vars(cls).get("_from_coprime_ints")
    if isinstance(coprime, classmethod):
        inner = coprime.__func__

        def counting_coprime(klass, numerator, denominator):
            counters["fractions_made"] += 1
            return inner(klass, numerator, denominator)

        saved.append((cls, "_from_coprime_ints", coprime))
        cls._from_coprime_ints = classmethod(counting_coprime)
    return saved
