"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call: name, start, end, the index of the span that was
open when it started (its parent) and a trace id shared by every span of one
pass. Spans are recorded from the benchmark's own code around calls into the
package's public functions; nothing inside the package is instrumented.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: int


class Tracer:
    """Records spans when enabled; a disabled tracer only opens and closes."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.trace = 0
        self._open: list[int] = []

    def new_trace(self) -> int:
        self.trace += 1
        return self.trace

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.trace)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def self_times(self, trace: int) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Self seconds of one trace: summed per name, and per call.

        A span's self time is its duration minus the durations of its direct
        children; the benchmark runs one call at a time, so children never
        overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for sp in self.spans:
            if sp.trace == trace and sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, list[float]] = defaultdict(list)
        for idx, sp in enumerate(self.spans):
            if sp.trace != trace:
                continue
            own = sp.end - sp.start - child_time.get(idx, 0.0)
            total[sp.name] += own
            calls[sp.name].append(own)
        return dict(total), dict(calls)
