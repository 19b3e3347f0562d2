"""Measurement loop, pinned-counter checks and metric assembly.

`measure` sets a workload up several times, runs passes until the time
budget is spent, checks every pass against the pins, and returns the
metrics. Untraced runs give the end-to-end metrics, in calibrated seconds
(see calibrate.py); traced runs give the per-layer ones from the recorded
spans, in wall seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ladders
from calibrate import Calibrator
from ladders import ARCHS, CODECS, Checks, PassRun
from spans import Tracer

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
SETUP_REPS = {False: 7, True: 2}
# Machine speed can change within a second, so each set-up repetition is
# calibrated by this many chunks right before it and as many right after.
SETUP_CHUNKS = 4
# Untraced runs take at least two passes, so every per-operation median
# rests on two samples even when one pass is slower than the time budget.
MIN_PASSES = {False: 2, True: 1}
DISPATCH_SOURCES = tuple(f.value for f in CODECS) + ("raw", "raw_product")
RATE_SCALE = {"sim_mmacs_per_s": 1e-6, "codec_mb_per_s": 1e-6, "replay_kevents_per_s": 1e-3}
MODULES = ("workloads", "tensor", "sim", "cli", "encodings", "dispatch")


@dataclasses.dataclass
class Result:
    workload: str
    checks: Checks
    metrics: dict[str, float]
    samples: dict[str, int]
    derived: dict[str, float] = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)
    pinned: bool = False


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def load_pins(path: Path = PINS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def pins_for(pins: dict, workload: str, seed: int, smoke: bool) -> dict | None:
    if pins.get("seed") != seed:
        return None
    return pins.get("smoke" if smoke else "full", {}).get(workload)


def check_pins(counters: dict, expected: dict | None, checks: Checks) -> None:
    if expected is None:
        return
    for key in sorted(set(counters) | set(expected)):
        got, want = counters.get(key), expected.get(key)
        checks.expect(got == want, f"pinned {key}: got {got}, pinned {want}")


def import_seconds(env: dict) -> float:
    """Seconds to import the package in a fresh interpreter, timed inside it.

    numpy is imported first and left out of the time: its import cost is not
    the package's code, and it swings by half with the machine's file cache.
    """
    code = ("import numpy, time; t = time.perf_counter(); import sparseaccel; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=ladders.CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _median_ops(op_times: list[dict[str, float]]) -> dict[str, float]:
    return {op: statistics.median(t[op] for t in op_times if op in t) for op in op_times[-1]}


def _rates(runs: list[PassRun], op_medians: dict[str, float]) -> dict[str, float]:
    work: dict[str, float] = {}
    seconds: dict[str, float] = {}
    for op, (rate, amount) in runs[-1].op_work.items():
        work[rate] = work.get(rate, 0.0) + amount
        seconds[rate] = seconds.get(rate, 0.0) + op_medians[op]
    return {rate: work[rate] * RATE_SCALE[rate] / seconds[rate] for rate in work}


def execute_pass(wl, tracer: Tracer, checks: Checks, pins: dict | None,
                 threads: int | None = None, calibrator: Calibrator | None = None
                 ) -> tuple[PassRun, int]:
    run = PassRun(tracer, checks, threads, calibrator)
    trace = tracer.new_trace()
    with tracer.span("pass"):
        wl.run_pass(run)
    check_pins(run.counters, pins, checks)
    return run, trace


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            root: Path, work_dir: Path, pins: dict | None = None) -> Result:
    """Set up, run passes for ``seconds`` (at least one), check and summarize."""
    wl = ladders.WORKLOADS[workload](root, work_dir, seed, smoke)
    pins = load_pins() if pins is None else pins
    expected = pins_for(pins, workload, seed, smoke)
    checks = Checks()
    tracer = Tracer(trace)

    # Only untraced runs report calibrated times; traced ones keep their
    # spans free of reference chunks.
    calibrator = None if trace else Calibrator(every_cpu=wl.in_children)
    env = ladders.child_env(root)
    setup_s, setup_calibrated, setup_traces = [], [], []
    for _ in range(SETUP_REPS[smoke]):
        setup_traces.append(tracer.new_trace())
        if calibrator:
            calibrator.run(SETUP_CHUNKS)
        imported = import_seconds(env)
        t0 = time.perf_counter()
        with tracer.span("setup"):
            wl.setup(tracer)
        setup_s.append(imported + time.perf_counter() - t0)
        if calibrator:
            calibrator.run(SETUP_CHUNKS)
            setup_calibrated.append(setup_s[-1] * calibrator.take_factor())
    wl.prepare()

    # A traced run alternates traced and untraced passes, so the tracing
    # overhead compares passes made under the same machine conditions.
    runs, calibrated, untraced, traces, durations = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run, trace_id = execute_pass(wl, tracer, checks, expected, calibrator=calibrator)
        runs.append(run)
        if calibrator:
            factor = calibrator.take_factor()
            calibrated.append({op: t * factor for op, t in run.op_times.items()})
        traces.append(trace_id)
        if trace:
            untraced.append(execute_pass(wl, Tracer(False), checks, expected)[0])
        durations.append(time.perf_counter() - t0)
        if (len(runs) >= MIN_PASSES[trace]
                and time.perf_counter() - start + statistics.median(durations) > seconds):
            break

    op_medians = _median_ops([r.op_times for r in runs])
    run_s = sum(op_medians.values())
    last = runs[-1]
    derived = _rates(runs, op_medians)
    samples = {"passes": len(runs), "setup": len(setup_s)}

    if not trace:
        derived["run_wall_s"] = run_s
        derived["setup_wall_s"] = statistics.median(setup_s)
        metrics = {
            "run_s": sum(_median_ops(calibrated).values()),
            "setup_s": statistics.median(setup_calibrated),
            "peak_rss_mb": peak_rss_mb(),
            "speedup_cnv": geomean(last.speedups["cnv"]),
            "speedup_cnv2": geomean(last.speedups["cnv2"]),
        }
        return Result(workload, checks, metrics, samples, derived, pinned=expected is not None)

    metrics = layer_metrics(tracer, traces, setup_traces, last)
    metrics.update({f"rate.{k}": v for k, v in derived.items()})
    untraced_s = sum(_median_ops([r.op_times for r in untraced]).values())
    metrics["trace.overhead_frac"] = run_s / untraced_s - 1.0
    if isinstance(wl, ladders.AlexnetCli):
        for key, threads in (("cli.run_threads1_s", 1), ("cli.run_threads2_s", min(2, nproc()))):
            probe, _ = execute_pass(wl, Tracer(False), checks, expected, threads=threads)
            metrics[key] = sum(probe.op_times.values())
        samples["thread_probe"] = 1
    return Result(workload, checks, metrics, samples, derived,
                  spans=[dataclasses.asdict(sp) for sp in tracer.spans],
                  pinned=expected is not None)


def layer_metrics(tracer: Tracer, traces: list[int], setup_traces: list[int],
                  last: PassRun) -> dict[str, float]:
    """Per-layer metrics from span self times plus the last pass's counters."""
    per_pass = [tracer.self_times(t) for t in traces]
    per_setup = [tracer.self_times(t)[0] for t in setup_traces]
    names = set().union(*(totals for totals, _ in per_pass))
    m: dict[str, float] = {}

    def pass_median(pick) -> float:
        return statistics.median(pick(totals) for totals, _ in per_pass)

    for name in names:
        parts = name.split(".")
        if parts[0] == "encodings" and len(parts) == 4:
            step, fmt, bricks = parts[1:]
            calls = [c for _, per_call in per_pass for c in per_call.get(name, [])]
            per_brick = 1e6 * statistics.median(calls) / int(bricks)
            if step == "brick_pairs":
                m[f"encodings.brick_pairs_us.{fmt}"] = per_brick
            else:
                m[f"encodings.{step}_us_per_brick.{fmt}.{bricks}"] = per_brick
        elif len(parts) >= 2:
            parts[1] += "_ms"
            m[".".join(parts)] = 1e3 * pass_median(lambda t, n=name: t.get(n, 0.0))
    for name in ("workloads.gen_synthetic", "workloads.save_layer"):
        m[f"{name}_ms"] = 1e3 * statistics.median(t.get(name, 0.0) for t in per_setup)
    for module in MODULES + ("pass",):
        key = "self_ms.bench" if module == "pass" else f"self_ms.{module}"
        m[key] = 1e3 * pass_median(lambda t, mod=module: sum(
            v for n, v in t.items() if n.split(".")[0] == mod))

    for arch in ARCHS:
        cycles, broadcasts, busy = last.sim.get(arch, (0, 0, 0.0))
        m[f"sim.cycles.{arch}"] = cycles
        m[f"sim.broadcasts.{arch}"] = broadcasts
        m[f"sim.utilization.{arch}"] = busy / cycles if cycles else 0.0
    for fmt in CODECS:
        m[f"encodings.bytes.{fmt.value}"] = last.blob_bytes.get(fmt.value, 0)
    events = broadcasts = 0
    for source in DISPATCH_SOURCES:
        ev, bc = last.dispatch.get(source, (0, 0))
        m[f"dispatch.events.{source}"] = ev
        events += ev
        broadcasts += bc
    m["dispatch.busy_frac"] = broadcasts / events if events else 0.0
    return m


def environment(root: Path, seed: int, seconds: float, smoke: bool) -> dict:
    """Machine and code identity recorded with every result.

    A checkout without git history is identified by the digest of the
    package sources alone.
    """
    revision = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            revision = rev.stdout.strip() if rev.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "sparseaccel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }
