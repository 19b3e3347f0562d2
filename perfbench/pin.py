"""Regenerate perfbench/pins.json: the exact simulated counters at seed 0.

    python3 perfbench/pin.py

Runs one pass of every workload at full and smoke size and records each
pass's counters (cycles, MACs, broadcasts and footprint bits per
architecture, container sizes and sha256 digests, dispatcher cycles,
broadcasts and events). Regenerate only for an intended model change, and
say so in the change: every later run at seed 0 checks its counters against
this file.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run

PIN_SEED = 0


def main() -> int:
    bench = run.load_package()
    import ladders
    from spans import Tracer

    pins = {"seed": PIN_SEED, "full": {}, "smoke": {}}
    work_root = run.HERE / ".work"
    work_root.mkdir(exist_ok=True)
    for smoke, size in ((False, "full"), (True, "smoke")):
        for name, cls in ladders.WORKLOADS.items():
            work_dir = tempfile.mkdtemp(prefix="pin-", dir=work_root)
            try:
                wl = cls(run.ROOT, Path(work_dir), PIN_SEED, smoke)
                wl.setup(Tracer(False))
                wl.prepare()
                checks = ladders.Checks()
                passed, _ = bench.execute_pass(wl, Tracer(False), checks, None)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if checks.failed:
                raise SystemExit(f"{name} ({size}): checks failed: {checks.messages}")
            pins[size][name] = dict(sorted(passed.counters.items()))
            print(f"{size} {name}: {len(passed.counters)} counters")
    with open(bench.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
