"""Calibrated host time: wall time scaled by the machine's speed of the moment.

On a shared host the same code runs up to half again slower for minutes at
a time, and every operation slows together, CPU time included. Medians over
one run cannot remove a slow phase that lasts the whole run. So untimed, the
benchmark runs a fixed pure-Python reference chunk between its timed
operations, about one tenth of their wall time, and scales them by how fast
the chunks ran meanwhile:

    calibrated seconds = wall seconds * NOMINAL_S * chunks / seconds the chunks took

A calibrated second is a second on a machine that runs one chunk in
NOMINAL_S. The package's code never runs inside a chunk, so a change to it
moves calibrated time as it moves wall time; only the machine's speed
cancels out.

Each vCPU's speed also changes on its own, within a second. Work done in
this process is calibrated by chunks on the CPU it ran on. Work done in
child processes, which may run on any CPU, is calibrated by chunks that
take each allowed CPU in turn.
"""

from __future__ import annotations

import os
import time

CHUNK_ITERS = 20_000
NOMINAL_S = 0.005   # about one chunk on a 2-vCPU Xeon VM, Python 3.11; any fixed value works
SHARE = 0.1         # chunk time as a share of the timed wall time


def chunk() -> int:
    """Fixed interpreter work: dict updates and integer arithmetic."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(CHUNK_ITERS):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += (i * 7) % 13
    return total + len(counts)


class Calibrator:
    """Runs chunks in proportion to the wall time it is told about.

    With ``every_cpu`` set, each chunk runs pinned to the next CPU this
    process may use, and the process's CPU set is restored after it, so
    children started later may run anywhere.
    """

    def __init__(self, every_cpu: bool = False):
        self.owed = 0.0
        self.chunks = 0
        self.seconds = 0.0
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else None

    def _run_chunk(self) -> None:
        if self.cpus:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpus[self.chunks % len(self.cpus)]})
        try:
            t0 = time.perf_counter()
            chunk()
            self.seconds += time.perf_counter() - t0
        finally:
            if self.cpus:
                os.sched_setaffinity(0, allowed)
        self.chunks += 1

    def after(self, wall_s: float) -> None:
        """Call after each timed operation with its wall time."""
        self.owed += wall_s * SHARE / NOMINAL_S
        while self.owed >= 1.0:
            self._run_chunk()
            self.owed -= 1.0

    def run(self, chunks: int) -> None:
        """Run ``chunks`` chunks now, to bracket a short timed step."""
        for _ in range(chunks):
            self._run_chunk()

    def take_factor(self) -> float:
        """Calibrated seconds per wall second since the last call.

        Runs one chunk first if none ran since then.
        """
        if not self.chunks:
            self._run_chunk()
        factor = NOMINAL_S * self.chunks / self.seconds
        self.chunks, self.seconds = 0, 0.0
        return factor
