"""The processes the benchmark starts; each prints one JSON object.

    child.py setup <workload>            time the set-up a user pays, once
    child.py run <workload> <s> <trace>  read a pass from stdin, set up, then
                                         repeat the pass for <s> seconds; an
                                         untraced run paces its ops (pace.py)
    child.py verify <genus> <seed>       one traced verify-theorem

Every mode imports crosscap from ``src/`` next to this directory, never an
installed copy, and reports the path it imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: ops run once, untimed, before the first pass, to warm the caches
WARMUP_OPS = 20


def _timed_setup(workload: str):
    """Import every layer (through the CLI module) and build the world."""
    t0 = time.perf_counter()
    import crosscap.cli  # noqa: F401 - the import is what is timed

    import_s = time.perf_counter() - t0
    import workloads

    world = workloads.build_world(workload) if workload != "theorem-ladder" else None
    return world, import_s, time.perf_counter() - t0


def _crosscap_path() -> str:
    import crosscap

    return crosscap.__file__


def setup(workload: str) -> dict:
    _, import_s, setup_s = _timed_setup(workload)
    return {"setup_s": setup_s, "import_s": import_s, "crosscap": _crosscap_path()}


def run(workload: str, seconds: float, traced: bool) -> dict:
    # The inputs come first: the worker is started early, so that its peak
    # RSS is its own, and it must stay idle while set-up is being timed.
    specs = json.load(sys.stdin)
    world, import_s, setup_s = _timed_setup(workload)
    import pace
    import spans
    import workloads

    tracer = spans.Tracer()
    untraced_pace = pace.Pace()
    failures: list[str] = []

    def run_ops(ops, traced_pass: bool, paced: bool) -> list[float]:
        uninstall = spans.install(tracer) if traced_pass else None
        latencies = []
        try:
            for spec in ops:
                t0 = time.perf_counter()
                try:
                    if traced_pass:
                        with tracer.span("op"):
                            workloads.run_op(workload, world, spec)
                    else:
                        workloads.run_op(workload, world, spec)
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    failures.append(f"{type(exc).__name__}: {exc}")
                latencies.append(time.perf_counter() - t0)
                if paced:
                    untraced_pace.after(latencies[-1])
        finally:
            if uninstall is not None:
                uninstall()
        return latencies

    attempted = len(run_ops(specs[:WARMUP_OPS], False, False))
    # a traced run alternates untraced and traced passes of the same inputs
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < (2 if traced else 1) or time.perf_counter() < deadline:
        traced_pass = traced and len(passes) % 2 == 1
        t_pass = time.perf_counter()
        latencies = run_ops(specs, traced_pass, not traced)
        attempted += len(latencies)
        passes.append(
            {"traced": traced_pass, "seconds": time.perf_counter() - t_pass, "latencies": latencies}
        )
    out = {
        "setup_s": setup_s,
        "import_s": import_s,
        "crosscap": _crosscap_path(),
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "pace": untraced_pace.export(),
    }
    if traced:
        out["trace"] = tracer.export()
    return out


def verify(genus: int, seed: int) -> dict:
    t0 = time.perf_counter()
    import crosscap.cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            code = crosscap.cli.main(
                ["verify-theorem", "--genus", str(genus), "--n", "1",
                 "--format", "structured", "--seed", str(seed)]
            )
    finally:
        uninstall()
    return {
        "exit": code,
        "stdout": captured.getvalue(),
        "import_s": import_s,
        "crosscap": _crosscap_path(),
        "trace": tracer.export(),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(argv[1])
    elif mode == "run":
        result = run(argv[1], float(argv[2]), argv[3] == "1")
    elif mode == "verify":
        result = verify(int(argv[1]), int(argv[2]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
