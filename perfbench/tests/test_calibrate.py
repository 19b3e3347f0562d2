"""Calibration runs chunks in proportion to timed wall time.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402


def test_chunks_follow_the_share_of_wall_time():
    cal = calibrate.Calibrator()
    cal.after(1.0)
    assert cal.chunks == round(calibrate.SHARE / calibrate.NOMINAL_S)
    factor = cal.take_factor()
    assert factor > 0
    assert cal.chunks == 0


def test_take_factor_runs_a_chunk_when_none_ran(monkeypatch):
    calls = []
    monkeypatch.setattr(calibrate, "chunk", lambda: calls.append(1))
    cal = calibrate.Calibrator()
    cal.after(calibrate.NOMINAL_S)
    assert not calls
    cal.take_factor()
    assert len(calls) == 1


def test_every_cpu_chunks_leave_the_cpu_set_as_it_was():
    allowed = os.sched_getaffinity(0)
    cal = calibrate.Calibrator(every_cpu=True)
    cal.run(2 * len(allowed))
    assert os.sched_getaffinity(0) == allowed
    assert cal.take_factor() > 0
