"""crosscap benchmark: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload census --seed 1 --seconds 50 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``), one ``name value unit`` line each, and then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Run it from the repository root; it imports crosscap from
``src/`` beside this directory and refuses to run without it.

    python3 perfbench/run.py --workload census --steady 10 --seed 1

runs the benchmark on ten seeds and reports each end-to-end metric's
median and quartiles against the bounds in ``BENCHMARK.json``;
``--against`` compares the medians with an earlier steadiness report.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import pace
import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

#: set-up is timed this many times, each in a fresh interpreter
SETUP_REPEATS = 20
#: pace chunks take this share of the set-up time: set-up is short, so its
#: pace needs a larger share than the ops' to rest on as many chunks
SETUP_PACE_SHARE = 0.3
#: each child process must finish within this many seconds
CHILD_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _start_child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT,
    )


def _finish_child(proc: subprocess.Popen, args: list[str], stdin: str | None = None) -> dict:
    try:
        out, err = proc.communicate(stdin, timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{err}")
    return json.loads(out.splitlines()[-1])


def _child(args: list[str]) -> dict:
    return _finish_child(_start_child(args), args)


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _check_path(imported: str) -> None:
    if not Path(imported).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"crosscap was imported from {imported}, not from {SRC}")


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _src_digest() -> str:
    """sha256 of every file under src/crosscap, which names the code measured
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "crosscap").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def measure_setup(workload: str) -> tuple[list[float], list[float], str, dict]:
    """Set-up and import times of SETUP_REPEATS fresh interpreters, after
    one untimed interpreter that writes the bytecode caches, and the pace
    of the host while they ran."""
    setups, imports, path = [], [], _child(["setup", workload])["crosscap"]
    setup_pace = pace.Pace(SETUP_PACE_SHARE)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = _child(["setup", workload])
        setup_pace.after(time.perf_counter() - t0)
        _check_path(probe["crosscap"])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    _check_path(path)
    return setups, imports, path, setup_pace.export()


# -- theorem-ladder: one child process per op ---------------------------------


def _ladder_op(spec: dict, env: dict, traced: bool, tracer, genus_traces: dict) -> tuple[float, str | None]:
    """Run one verify-theorem; return (wall seconds, failure or None)."""
    import workloads

    args = ["--genus", str(spec["genus"]), "--n", "1", "--format", "structured",
            "--seed", str(spec["seed"])]
    t0 = time.perf_counter()
    if traced:
        try:
            result = _child(["verify", str(spec["genus"]), str(spec["seed"])])
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return time.perf_counter() - t0, str(exc)
        wall = time.perf_counter() - t0
        tracer.merge(result["trace"])
        genus_traces.setdefault(spec["genus"], []).append(result)
        code, stdout = result["exit"], result["stdout"]
    else:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "crosscap.cli", "verify-theorem", *args],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=env, cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            return time.perf_counter() - t0, str(exc)
        wall = time.perf_counter() - t0
        code, stdout = proc.returncode, proc.stdout
    if code != 0:
        return wall, f"g={spec['genus']}: exit {code}"
    if stdout != workloads.LADDER_STDOUT:
        return wall, f"g={spec['genus']}: unexpected stage lines {stdout!r}"
    return wall, None


def run_ladder(specs: list[dict], seconds: float, traced: bool) -> dict:

    env = _cli_env()
    tracer = spans.Tracer()
    ladder_pace = pace.Pace()
    genus_traces: dict[int, list] = {}
    cycles: list[dict] = []
    failures: list[str] = []
    # whole cycles until --seconds have passed; a traced run alternates
    # untraced and traced cycles
    deadline = time.perf_counter() + seconds
    while len(cycles) < (2 if traced else 1) or time.perf_counter() < deadline:
        traced_cycle = traced and len(cycles) % 2 == 1
        latencies, genera = [], []
        t0 = time.perf_counter()
        for spec in specs:
            wall, failure = _ladder_op(spec, env, traced_cycle, tracer, genus_traces)
            if not traced:
                ladder_pace.after(wall)
            latencies.append(wall)
            genera.append(spec["genus"])
            if failure:
                failures.append(failure)
        cycles.append({"traced": traced_cycle, "seconds": time.perf_counter() - t0,
                       "latencies": latencies, "genera": genera})
    return {
        "cycles": cycles,
        "failures": failures,
        "attempted": sum(len(c["latencies"]) for c in cycles),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "tracer": tracer,
        "genus_traces": genus_traces,
        "pace": ladder_pace.export(),
    }


# -- metrics --------------------------------------------------------------------


def op_latencies(groups: list[dict], scale: float = 1.0) -> list[float]:
    """Each op's latency: the mean of its wall times over the untraced
    passes (every pass runs the same ops in the same order), times ``scale``."""
    passes = [g["latencies"] for g in groups if not g["traced"]]
    return [scale * stats.mean(times) for times in zip(*passes)]


def end_to_end(workload: str, run: dict, setups: list[float], setup_pace: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, at the reference speed of
    pace.py, plus the lines that explain them (percentile used, sample
    counts, ladder rungs, the wall-clock figures)."""

    notes: list[str] = []
    run_scale, setup_scale = pace.factor(run["pace"]), pace.factor(setup_pace)
    values = {"setup_s": setup_scale * stats.mean(setups),
              "peak_rss_mb": run["maxrss_kb"] / 1024}
    groups = run["cycles"] if workload == "theorem-ladder" else run["passes"]
    untraced = [g for g in groups if not g["traced"]]
    ops = op_latencies(groups, run_scale)
    values["ops_per_s"] = len(ops) / sum(ops)
    values["latency_p50_s"] = stats.median(ops)
    if workload == "theorem-ladder":
        # six rungs are too few for rank n - 10: the tail is the slowest rung
        genera = untraced[0]["genera"]
        values["latency_tail_s"] = max(ops)
        slowest = genera[ops.index(max(ops))]
        notes.append(f"tail: the slowest of {len(ops)} rungs (g={slowest}); p50: median of the "
                     f"rungs; a rung's latency is its mean over {len(untraced)} ladder cycles")
        for g in (4, 20):
            own = [x for c in untraced for x, gg in zip(c["latencies"], c["genera"]) if gg == g]
            notes.append(f"theorem_g{g}_s {run_scale * stats.mean(own):.6f} s "
                         f"(mean of {len(own)}; wall {stats.mean(own):.6f} s)")
    else:
        tail, pct, beyond = stats.tail(ops)
        values["latency_tail_s"] = tail
        notes.append(f"tail: p{pct:.1f} of {len(ops)} ops, {beyond} beyond; each op's latency "
                     f"is its mean over {len(untraced)} passes of the same inputs")
    attempted = run["attempted"]
    notes.append(f"setup: mean of {len(setups)} fresh interpreters")
    notes.append(f"pace: times are at the reference speed, wall x {run_scale:.4f} "
                 f"({run['pace']['chunks']} chunks) and set-up wall x {setup_scale:.4f} "
                 f"({setup_pace['chunks']} chunks)")
    wall = {name: values[name] / run_scale for name in ("latency_p50_s", "latency_tail_s")}
    notes.append(f"wall clock: setup_s {values['setup_s'] / setup_scale:.6f} s, ops_per_s "
                 f"{values['ops_per_s'] * run_scale:.6f} ops/s, latency_p50_s "
                 f"{wall['latency_p50_s']:.6f} s, latency_tail_s {wall['latency_tail_s']:.6f} s")
    notes.append(f"error_rate {len(run['failures']) / attempted:.6f} ratio "
                 f"({len(run['failures'])} of {attempted} ops)")
    return values, notes


def per_layer(workload: str, run: dict, imports: list[float]) -> tuple[dict, list[str]]:

    notes: list[str] = []
    if workload == "theorem-ladder":
        tracer = run["tracer"]
        groups = run["cycles"]
        ladder_imports = [r["import_s"] for rs in run["genus_traces"].values() for r in rs]
        import_s = stats.median(ladder_imports)
    else:
        tracer = spans.Tracer()
        tracer.merge(run["trace"])
        groups = run["passes"]
        import_s = stats.median(imports)
    traced = [g["seconds"] for g in groups if g["traced"]]
    untraced = [g["seconds"] for g in groups if not g["traced"]]
    values = tracer.metrics(passes=len(traced))
    values["cli.import_s"] = import_s
    values["trace.untraced_pass_s"] = stats.median(untraced)
    values["trace.traced_pass_s"] = stats.median(traced)
    values["trace.overhead_s"] = values["trace.traced_pass_s"] - values["trace.untraced_pass_s"]
    if workload == "theorem-ladder":
        for g, results in sorted(run["genus_traces"].items()):
            t = spans.Tracer()
            for r in results:
                t.merge(r["trace"])
            m = t.metrics(passes=len(results))
            total = t.inclusive_ns["cli.main"] / len(results) / 1e9
            notes.append(f"g={g}: cli.main {total:.4f} s, derive_generators "
                         f"{m['twists.derive_generators_s']:.4f} s, audit_tables "
                         f"{m['twists.audit_tables_s']:.4f} s, import {stats.median([r['import_s'] for r in results]):.4f} s")
    else:
        op_s = sum(sum(g["latencies"]) for g in groups if g["traced"]) / len(traced)
        notes.append(f"traced op time per pass {op_s:.4f} s")
    return values, notes


def bench(workload: str, seed: int, seconds: float, traced: bool) -> int:
    import workloads

    # A child's ru_maxrss starts from its parent's peak RSS, so the worker is
    # started before making the inputs, which takes far more memory than it.
    # It reads the inputs before it sets up, so it stays idle while
    # measure_setup times its own interpreters.
    worker_args = ["run", workload, str(seconds), "1" if traced else "0"]
    worker = _start_child(worker_args) if workload != "theorem-ladder" else None
    info = environment(seed)
    t0 = time.perf_counter()
    specs = workloads.make_inputs(workload, seed)
    info["input_s"] = round(time.perf_counter() - t0, 3)
    info["ops_per_pass"] = len(specs)
    try:
        setups, imports, path, setup_pace = measure_setup(workload)
        info["crosscap"] = path
        if worker is None:
            run = run_ladder(specs, seconds, traced)
        else:
            run = _finish_child(worker, worker_args, json.dumps(specs))
            _check_path(run["crosscap"])
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait()
    if traced:
        values, notes = per_layer(workload, run, imports)
        units = dict(spans.PER_LAYER)
    else:
        values, notes = end_to_end(workload, run, setups, setup_pace)
        units = dict(END_TO_END)
    failures = run["failures"]
    info["pace_chunk_s"] = round(run["pace"]["mean_s"], 7)
    print(f"workload {workload}: closed loop, one client; " + json.dumps(info))
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    for line in notes:
        print(line)
    for failure in failures[:5]:
        print(f"failed: {failure}")
    result = {
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


# -- steadiness ------------------------------------------------------------------


def steady(workload: str, first_seed: int, runs: int, seconds: float, against: str | None) -> int:

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    samples: dict[str, list[float]] = {name: [] for name in bounds}
    chunks: list[float] = []
    failed = 0
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        info = json.loads(next(x for x in lines if x.startswith("workload ")).split("; ", 1)[1])
        chunks.append(info["pace_chunk_s"])
        failed += result["failed"]
        for name in samples:
            samples[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in samples.items()), flush=True)
    previous = json.loads(Path(against).read_text(encoding="utf-8")) if against else None
    report = {"workload": workload, "first_seed": first_seed, "runs": runs,
              "seconds": seconds, "failed": failed, "metrics": {}}
    ok = failed == 0
    print(f"{'metric':16} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for name, values in samples.items():
        q1, q2, q3 = stats.quartiles(values)
        bound = bounds[name]["bound"]
        sp = stats.spread(values)
        line = f"{name:16} {q1:10.5g} {q2:10.5g} {q3:10.5g} {sp:7.3f} {bound:6.2f}"
        if sp > bound:
            ok = False
            line += "  SPREAD OVER BOUND"
        elif sp > bound / 3:
            line += "  (over a third of the bound)"
        if previous:
            old = previous["metrics"][name]["median"]
            worse = (q2 - old) / old if bounds[name]["better"] == "lower" else (old - q2) / old
            line += f"  vs earlier median {old:.5g}: {worse:+.3f} worse"
            if worse > bound:
                ok = False
                line += " OVER BOUND"
        report["metrics"][name] = {"q1": q1, "median": q2, "q3": q3, "spread": sp,
                                   "bound": bound, "values": values}
        print(line)
    q1, q2, q3 = stats.quartiles(chunks)
    print(f"{'pace chunk':16} {q1:10.5g} {q2:10.5g} {q3:10.5g} {stats.spread(chunks):7.3f}"
          "  (fixed loop; its spread is the machine's, not the program's)")
    report["pace_chunk_s"] = chunks
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{workload}-seed{first_seed}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"{'steady' if ok else 'NOT steady'}; report in {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="run RUNS seeds and report medians and quartiles")
    parser.add_argument("--against", metavar="REPORT",
                        help="with --steady: compare medians with an earlier report")
    args = parser.parse_args(argv)
    if not (SRC / "crosscap" / "__init__.py").is_file():
        print(f"error: no crosscap sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every process of a run shares one CPU, the first this one may use.  On
    # a shared host the CPUs run at different speeds at the same moment, and
    # the pace chunks must read the speed of the CPU the ops ran on; the
    # ladder's ops run in child processes, which the scheduler would
    # otherwise place on either CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.steady:
        return steady(args.workload, args.seed, args.steady, args.seconds, args.against)
    return bench(args.workload, args.seed, args.seconds, args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
