"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tile-sweep --seed 0 --seconds 30 --trace 0

Workloads: alexnet-cli, tile-sweep, store-replay (see perfbench/README.md).
With --trace 0 the run prints the end-to-end metrics named in BENCHMARK.json,
with times in calibrated seconds (calibrate.py); with --trace 1 it records
spans and prints the per-layer metrics instead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A fuller record (environment,
sample counts, failed checks, spans) goes to perfbench/out/.

--smoke shrinks every input so that a run with all its checks takes seconds.
Exit codes: 0 after a completed run (whether or not checks failed), 2 when
the checkout lacks the package, its report schema or BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("alexnet-cli", "tile-sweep", "store-replay")
REQUIRED = ("src/sparseaccel/__init__.py", "docs/report_schema.json", "BENCHMARK.json")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, same checks")
    return p.parse_args(argv)


def load_package():
    """Put the checkout's package first on the path and import the benchmark code."""
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        raise SystemExit(f"error: checkout at {ROOT} lacks {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import sparseaccel

    if Path(sparseaccel.__file__).resolve().parent != ROOT / "src" / "sparseaccel":
        raise SystemExit(f"error: imported sparseaccel from {sparseaccel.__file__}, "
                         f"not from {ROOT / 'src'}")
    import bench

    return bench


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench = load_package()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        result = bench.measure(args.workload, args.seed, seconds, trace, args.smoke,
                               ROOT, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    for spec in contract["per_layer" if trace else "end_to_end"]:
        value = result.metrics.get(spec["name"], 0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    env = bench.environment(ROOT, args.seed, seconds, args.smoke)
    checks = result.checks

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result.samples['passes']}  setup reps {result.samples['setup']}")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, value in result.derived.items():
        print(f"  derived {name:<40} {value:>14.6g}")
    pins = "checked" if result.pinned else "not checked (pins.json holds seed 0 only)"
    print(f"  checks {checks.attempted} attempted, {checks.failed} failed "
          f"(error_rate {checks.error_rate:.6g}); pinned counters {pins}")
    for msg in checks.messages:
        print(f"  FAILED: {msg}", file=sys.stderr)

    line = {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = dict(line, workload=args.workload, environment=env, samples=result.samples,
                  derived=result.derived, error_rate=checks.error_rate,
                  failures=checks.messages, all_metrics=result.metrics)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(out / f"{stem}-spans.json", "w") as fh:
            json.dump(result.spans, fh)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
