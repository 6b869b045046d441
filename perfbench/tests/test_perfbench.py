"""Tests of the benchmark's own arithmetic, tracing and workloads.

Run from the repository root with ``python3 -m unittest discover perfbench/tests``
(or ``python3 -m pytest perfbench/tests``).  The smoke tests run every
workload's real code path on a handful of ops.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class TailTest(unittest.TestCase):
    def test_hundred_samples_use_the_ninetieth_percentile(self):
        values = list(range(100, 0, -1))
        self.assertEqual(stats.tail(values), (90, 90.0, 10))

    def test_rank_is_n_minus_ten(self):
        value, pct, beyond = stats.tail([float(x) for x in range(24)])
        self.assertEqual(value, 13.0)
        self.assertAlmostEqual(pct, 100 * 14 / 24)
        self.assertEqual(beyond, 10)

    def test_exactly_ten_beyond_whatever_the_order(self):
        rng = random.Random(5)
        values = [rng.random() for _ in range(57)]
        value, _, beyond = stats.tail(values)
        self.assertEqual(sum(v > value for v in values), beyond)
        self.assertEqual(beyond, 10)

    def test_too_few_samples_report_how_many_lie_beyond(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (1.0, 100 / 3, 2))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class QuartileTest(unittest.TestCase):
    def test_quartiles_are_those_of_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(list(stats.quartiles(values)), statistics.quantiles(values, n=4))

    def test_spread_is_the_quartile_distance_over_the_median(self):
        values = [9.0, 10.0, 10.0, 11.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


#: a pace at exactly the reference speed, which scales times by 1
REFERENCE_PACE = {"chunks": 1, "mean_s": pace.REFERENCE_S}


class EndToEndTest(unittest.TestCase):
    def test_an_op_latency_is_its_mean_untraced_time_scaled(self):
        groups = [
            {"traced": False, "seconds": 4.0, "latencies": [1.0, 3.0]},
            {"traced": True, "seconds": 9.0, "latencies": [5.0, 4.0]},
            {"traced": False, "seconds": 2.0, "latencies": [2.0, 0.0]},
        ]
        self.assertEqual(run.op_latencies(groups), [1.5, 1.5])
        self.assertEqual(run.op_latencies(groups, 2.0), [3.0, 3.0])

    def test_ladder_tail_is_the_slowest_rung_and_p50_the_median_rung(self):
        cycle = {"traced": False, "seconds": 10.0, "genera": [4, 6, 20],
                 "latencies": [1.0, 2.0, 7.0]}
        slower = dict(cycle, latencies=[1.0, 4.0, 9.0])
        result = {"cycles": [cycle, slower], "failures": [], "attempted": 6,
                  "maxrss_kb": 2048, "pace": REFERENCE_PACE}
        values, _ = run.end_to_end("theorem-ladder", result, [0.3, 0.1, 0.2], REFERENCE_PACE)
        self.assertEqual(values["latency_tail_s"], 8.0)
        self.assertEqual(values["latency_p50_s"], 3.0)
        self.assertEqual(values["ops_per_s"], 3 / 12)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 2.0)

    def test_times_are_scaled_to_the_reference_speed(self):
        # the host ran the loop at half the reference speed during the ops,
        # and at a quarter of it during set-up
        slow = {"chunks": 5, "mean_s": 2 * pace.REFERENCE_S}
        slower = {"chunks": 5, "mean_s": 4 * pace.REFERENCE_S}
        cycle = {"traced": False, "seconds": 10.0, "genera": [4, 6, 20],
                 "latencies": [1.0, 2.0, 7.0]}
        result = {"cycles": [cycle], "failures": [], "attempted": 3,
                  "maxrss_kb": 2048, "pace": slow}
        values, _ = run.end_to_end("theorem-ladder", result, [0.4], slower)
        self.assertEqual(values["latency_tail_s"], 3.5)
        self.assertEqual(values["latency_p50_s"], 1.0)
        self.assertEqual(values["ops_per_s"], 3 / 5)
        self.assertEqual(values["setup_s"], 0.1)
        self.assertEqual(values["peak_rss_mb"], 2.0)


class PaceTest(unittest.TestCase):
    def test_chunks_take_their_share_of_the_work(self):
        p = pace.Pace()
        p.after(0.05)
        first = len(p.chunks)
        self.assertGreaterEqual(sum(p.chunks), pace.SHARE * 0.05)
        p.after(0.0)
        self.assertEqual(len(p.chunks), first)  # nothing more is due
        p.after(0.05)
        self.assertGreaterEqual(sum(p.chunks), pace.SHARE * 0.1)
        self.assertLess(sum(p.chunks[:-1]), pace.SHARE * 0.1)

    def test_factor_is_reference_over_mean_chunk(self):
        self.assertEqual(pace.factor({"chunks": 3, "mean_s": pace.REFERENCE_S / 2}), 2.0)

    def test_an_idle_pace_still_reads_the_host(self):
        exported = pace.Pace().export()
        self.assertEqual(exported["chunks"], 1)
        self.assertGreater(exported["mean_s"], 0)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_are_counted_once(self):
        self.assertEqual(stats.self_time(0, 10, [(1, 3), (2, 5), (7, 8)]), 5)

    def test_children_are_clipped_to_the_span(self):
        self.assertEqual(stats.self_time(2, 6, [(0, 3), (5, 9), (10, 12)]), 2)

    def test_no_children_leaves_the_whole_span(self):
        self.assertEqual(stats.self_time(1, 4, []), 3)

    def test_covered_merges_touching_intervals(self):
        self.assertEqual(stats.covered([(0, 1), (1, 2), (4, 5)]), 3)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tracer = spans.Tracer(record=True)
        self.uninstall = spans.install(self.tracer)

    def tearDown(self):
        self.uninstall()

    def test_layer_self_time_matches_the_recorded_spans(self):
        from crosscap import twists

        world = workloads.build_world("expression-soundness")
        with self.tracer.span("op"):
            twists.evaluate("a1 b a2^-1 e", world["generators"], 4).verify_sound()
        children: dict[int, list] = {}
        for span_id, parent, name, start, end in self.tracer.spans:
            children.setdefault(parent, []).append((start, end))
        by_layer: dict[str, int] = {}
        for span_id, parent, name, start, end in self.tracer.spans:
            layer = {"op": "bench", "trace.hook": "trace"}.get(name, name.split(".")[0])
            own = stats.self_time(start, end, children.get(span_id, []))
            by_layer[layer] = by_layer.get(layer, 0) + own
        for layer, ns in by_layer.items():
            self.assertEqual(self.tracer.layer_self_ns[layer], ns, layer)
        self.assertGreater(self.tracer.calls["polygon.apply_images"], 0)

    def test_salt_retries_count_fresh_params_beyond_one_per_crosscap(self):
        from crosscap import polygon
        from crosscap.surface import SurfaceSpec, standard_registry

        registry = standard_registry(SurfaceSpec(5, 1))
        twisted = 0
        for name in ("alpha_1", "beta"):
            curve = registry.geometry(name)
            polygon.twist_images(curve, 1)
            twisted += curve.genus
        names = {span_id: name for span_id, _, name, _, _ in self.tracer.spans}
        direct = sum(
            1 for _, parent, name, _, _ in self.tracer.spans
            if name == "polygon.fresh_params" and names.get(parent) == "polygon.twist_images"
        )
        retries = self.tracer.metrics(passes=1)["polygon.salt_retries"]
        self.assertGreaterEqual(direct, twisted)
        self.assertGreaterEqual(retries, 0)
        self.assertEqual(retries, direct - twisted)

    def test_names_imported_from_polygon_share_one_wrapper(self):
        from crosscap import cutting, polygon, surface, twists

        self.assertIs(twists.apply_images, polygon.apply_images)
        self.assertIs(cutting.crossing_count, polygon.crossing_count)
        self.assertIs(surface.crossing_count, polygon.crossing_count)
        self.assertTrue(hasattr(polygon.apply_images, "__wrapped__"))

    def test_uninstall_restores_the_originals(self):
        from crosscap import polygon, twists, words

        self.uninstall()
        self.assertFalse(hasattr(polygon.apply_images, "__wrapped__"))
        self.assertFalse(hasattr(twists.Automorphism.verify_sound, "__wrapped__"))
        self.assertFalse(hasattr(words.CyclicWord.__post_init__, "__wrapped__"))
        self.assertNotIn("counting", repr(vars(Fraction)["__new__"]))

    def test_fractions_and_letters_are_counted(self):
        from crosscap import polygon
        from crosscap.words import Word

        Fraction(1, 3) + Fraction(1, 6)
        images = [Word(2, (1, 2)), Word(2, (2,))]
        polygon.apply_images(images, Word(2, (1, -2, 1)))
        c = self.tracer.counters
        self.assertGreaterEqual(c["fractions_made"], 3)
        self.assertEqual(c["letters_pushed"], 5)
        self.assertEqual(c["letters_out"], len(polygon.apply_images(images, Word(2, (1, -2, 1)))))

    def test_every_per_layer_metric_is_reported(self):
        values = self.tracer.metrics(passes=1)
        traced_elsewhere = {"cli.import_s", "trace.untraced_pass_s", "trace.traced_pass_s",
                            "trace.overhead_s"}
        self.assertEqual(set(values) | traced_elsewhere, {name for name, _ in spans.PER_LAYER})


class ProfileTest(unittest.TestCase):
    def test_targets_rise_and_stay_within_the_knots(self):
        for knots in workloads.PROFILES.values():
            targets = workloads.profile_targets(knots, 50)
            self.assertEqual(len(targets), 50)
            self.assertEqual(targets, sorted(targets))
            self.assertGreaterEqual(targets[0], knots[0][1])
            self.assertLessEqual(targets[-1], knots[-1][1])

    def test_fill_profile_is_deterministic_and_within_tolerance(self):
        targets = [10.0, 100.0, 1000.0, 5000.0]

        def draw(rng):
            return rng.choice([9.5, 11, 100, 104, 950, 1100, 5000, 7000])

        picks = workloads.fill_profile(random.Random(3), targets, draw, lambda c, limit: c)
        again = workloads.fill_profile(random.Random(3), targets, draw, lambda c, limit: c)
        self.assertEqual(picks, again)
        for pick, target in zip(sorted(picks), targets):
            self.assertLess(abs(pick / target - 1), 0.35)

    def test_relators_hold(self):
        from crosscap import twists

        generators = workloads.build_world("expression-soundness")["generators"]
        identity = twists.Automorphism.identity(4)
        for kind, p, q in workloads.relators(4):
            expr = workloads._spell(workloads._relator_factors(kind, p, q))
            self.assertTrue(twists.equal(twists.evaluate(expr, generators, 4), identity), expr)


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_benchmark_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(spans.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.LISTED))
        self.assertLessEqual(set(workloads.LISTED), set(workloads.WORKLOADS))


class SmokeTest(unittest.TestCase):
    """Every workload's real code path, on a few ops."""

    def _in_process(self, workload: str, specs: list) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "run", workload, "0", "1"],
            input=json.dumps(specs), capture_output=True, text=True, timeout=300, cwd=ROOT,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(result["failures"], [])
        self.assertEqual(result["attempted"], 3 * len(specs))  # warm-up, untraced, traced
        run._check_path(result["crosscap"])
        values, _ = run.end_to_end(workload, result, [0.1], REFERENCE_PACE)
        self.assertEqual(set(values), {name for name, _ in run.END_TO_END})
        layers, _ = run.per_layer(workload, result, [0.05])
        self.assertEqual(set(layers), {name for name, _ in spans.PER_LAYER})
        return layers

    def test_expression_soundness(self):
        layers = self._in_process("expression-soundness", ["a1 b^-1 e", "f", "a2 a3 c^-1"])
        self.assertEqual(layers["twists.verify_sound_calls"], 3)
        self.assertEqual(layers["polygon.twist_images_calls"], 0)

    def test_relation_queries(self):
        rng = random.Random(1)
        specs = []
        for genus in (4, 10):
            names = sorted(workloads._generators(genus))
            draw = workloads._relation_draw(rng, names, workloads.relators(genus), ["alpha_1", "beta"])
            specs.append({"genus": genus, "expression": workloads._spell(draw["factors"][:3]),
                          "related": workloads._spell(draw["factors"][:3] + [("a1", 1), ("a1", -1)]),
                          "flipped": workloads._spell([(n, -s) for n, s in draw["factors"][:1]]
                                                      + draw["factors"][1:3]),
                          "curve": draw["curve"]})
        layers = self._in_process("relation-queries", specs)
        self.assertEqual(layers["twists.equal_calls"], 4)
        self.assertEqual(layers["words.cyclic_word_calls"], 4)

    def test_census(self):
        layers = self._in_process("census", [[5, 1, "alpha_3"], [5, 0, None]])
        self.assertEqual(layers["cutting.cut_along_calls"], 2)
        self.assertGreater(layers["cutting.intersection_number_s"], 0)

    def test_census_inputs_all_have_digests(self):
        keys = set(json.loads(workloads.DIGEST_FILE.read_text(encoding="utf-8")))
        ops = workloads.make_inputs("census", 7)
        self.assertEqual({workloads.census_key(spec) for spec in ops}, keys)

    def test_theorem_ladder(self):
        tracer = spans.Tracer()
        traces: dict = {}
        env = run._cli_env()
        for traced in (False, True):
            wall, failure = run._ladder_op({"genus": 4, "seed": 1}, env, traced, tracer, traces)
            self.assertIsNone(failure)
            self.assertGreater(wall, 0)
        self.assertGreater(tracer.calls["cli.main"], 0)
        self.assertEqual(len(traces[4]), 1)


if __name__ == "__main__":
    unittest.main()
