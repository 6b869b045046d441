"""How fast the host runs Python while the benchmark's ops run.

The shared 2-vCPU host the benchmark was tuned on changes speed by up to
2x, for reasons outside the program: from one second to the next, and in
spells of slow or fast running that last minutes.  A whole run can land in
one spell, so the same code gave runs up to 40% apart.

A :class:`Pace` runs a fixed pure-Python loop, one short chunk at a time,
between the timed ops, so that the chunks take ``SHARE`` of the time the
ops took.  They sample the host's speed over the same seconds as the ops.
Each end-to-end time is then also given at a fixed reference speed: the
wall time multiplied by ``REFERENCE_S`` over the run's mean chunk time.
That is the wall time the ops would have taken had the host run the loop
at the reference speed throughout.  The loop is the benchmark's own code,
so a change to the program moves the scaled times as much as the wall times.
"""

from __future__ import annotations

import statistics
import time

#: iterations of the loop in one chunk
CHUNK_ITERATIONS = 12_000
#: one chunk's time at the reference speed, about the fast speed of the host
#: the benchmark was tuned on (an Intel Xeon 2-vCPU VM, CPython 3.11)
REFERENCE_S = 0.002
#: chunk time as a share of the timed work
SHARE = 0.1


def chunk() -> float:
    """Seconds for one chunk of a fixed loop of dict, int and list work."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    out: list[int] = []
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        key = i & 255
        acc = (acc * 31 + table.get(key, i)) & 0xFFFFFFFF
        table[key] = acc
        out.append(acc)
    return time.perf_counter() - t0


class Pace:
    """Chunks interleaved with timed work, ``share`` of its time."""

    def __init__(self, share: float = SHARE) -> None:
        self.share = share
        self.work = 0.0
        self.chunks: list[float] = []
        self._chunk_total = 0.0

    def after(self, seconds: float) -> None:
        """Account for ``seconds`` of timed work, then run the chunks due."""
        self.work += seconds
        while self._chunk_total < self.share * self.work:
            t = chunk()
            self.chunks.append(t)
            self._chunk_total += t

    def export(self) -> dict:
        if not self.chunks:
            self.chunks.append(chunk())
        return {"chunks": len(self.chunks), "mean_s": statistics.fmean(self.chunks)}


def factor(exported: dict) -> float:
    """What a wall time is multiplied by to give it at the reference speed."""
    return REFERENCE_S / exported["mean_s"]
