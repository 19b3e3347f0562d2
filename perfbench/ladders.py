"""The benchmark's three workloads: inputs, timed operations and checks.

Every workload is a closed loop with one client: each call starts after the
previous one has returned, in one process (plus the CLI subprocesses that
`alexnet-cli` starts one at a time). Inputs come from `gen_synthetic` at the
workload seed, so the same seed gives the same inputs on any machine.

A pass runs a workload's operations once. Each operation is timed on its own
(`PassRun.timed`), and each result is checked right after it returns.
Simulated counters go into `PassRun.counters`, which the caller compares
with the pinned values.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

import sparseaccel as sa
from sparseaccel.cli import reference_output

ARCHS = ("baseline", "cnv", "cnv2")
REPORT_FIELDS = ("cycles", "macs_performed", "macs_skipped", "broadcasts", "footprint_bits")
CODECS = (sa.Format.ZFNAF, sa.Format.ROE, sa.Format.VIAI, sa.Format.CVIAI)
BRICK = 16
LANES = 16
CHILD_TIMEOUT_S = 120


def child_env(root: Path, threads: int | None = None) -> dict[str, str]:
    """Environment for a child interpreter that imports the package from ``root``.

    SPARSE_ACCEL_SIM_THREADS is removed unless ``threads`` is given, so the
    CLI's own default applies.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("SPARSE_ACCEL_SIM_THREADS", None)
    if threads is not None:
        env["SPARSE_ACCEL_SIM_THREADS"] = str(threads)
    return env


def dense_macs(layer: sa.LayerConfig) -> int:
    return layer.ox * layer.oy * layer.window_positions * layer.f


class Checks:
    """Counts checks attempted and failed; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class PassRun:
    """What one pass measured: operation times, work, simulated counters."""

    def __init__(self, tracer, checks: Checks, threads: int | None = None, calibrator=None):
        self.tracer = tracer
        self.checks = checks
        self.threads = threads          # SPARSE_ACCEL_SIM_THREADS for CLI children
        self.calibrator = calibrator    # runs reference chunks between operations
        self.op_times: dict[str, float] = {}
        self.op_work: dict[str, tuple[str, float]] = {}
        self.counters: dict[str, object] = {}
        self.sim = defaultdict(lambda: [0, 0, 0.0])   # arch -> cycles, broadcasts, busy
        self.dispatch = defaultdict(lambda: [0, 0])   # source -> events, broadcasts
        self.blob_bytes: dict[str, int] = defaultdict(int)
        self.speedups: dict[str, list[float]] = {"cnv": [], "cnv2": []}

    def timed(self, op: str, span: str, fn, *args, **kwargs):
        """Run one operation inside a span and record its wall time."""
        t0 = time.perf_counter()
        with self.tracer.span(span):
            result = fn(*args, **kwargs)
        self.op_times[op] = time.perf_counter() - t0
        if self.calibrator is not None:
            self.calibrator.after(self.op_times[op])
        return result

    def add_work(self, op: str, rate: str, amount: float) -> None:
        self.op_work[op] = (rate, amount)

    def add_sim(self, arch: str, cycles: int, broadcasts: int, utilization: float) -> None:
        acc = self.sim[arch]
        acc[0] += cycles
        acc[1] += broadcasts
        acc[2] += utilization * cycles

    def add_speedups(self, cycles: dict[str, int]) -> None:
        for arch in ("cnv", "cnv2"):
            self.speedups[arch].append(cycles["baseline"] / cycles[arch])


class Workload:
    name = ""
    # True when the timed work runs in child processes, which may run on
    # any CPU (see calibrate.py).
    in_children = False

    def __init__(self, root: Path, work_dir: Path, seed: int, smoke: bool):
        self.root = root
        self.work_dir = work_dir
        self.seed = seed
        self.smoke = smoke

    def setup(self, tracer) -> None:
        """Generate inputs and write layer files; timed as set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work done once: oracles that do not change between passes."""

    def run_pass(self, run: PassRun) -> None:
        raise NotImplementedError


def _generate(tracer, dims, filters, pa, pw, seed):
    x, y, i = dims
    f, fx, fy = filters
    spec = sa.SyntheticSpec(x=x, y=y, i=i, f=f, fx=fx, fy=fy, p_act_zero=pa,
                            p_wt_zero=pw, seed=seed, brick=BRICK)
    with tracer.span("workloads.gen_synthetic"):
        acts, wts = sa.gen_synthetic(spec)
    return acts, wts


# ---------------------------------------------------------------------------
# alexnet-cli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rung:
    name: str
    dims: tuple[int, int, int]
    filters: tuple[int, int, int]
    act_crit: str


class AlexnetCli(Workload):
    """`python -m sparseaccel.cli run` as a subprocess, one layer at a time.

    conv3 splits each window's 144 bricks evenly over the 16 lanes; conv2's
    150 bricks split raggedly, and its abs:4 criterion keeps the masked
    functional path in the measurement.
    """

    name = "alexnet-cli"
    in_children = True
    PA, PW = 0.5, 0.4
    RUNGS = {
        False: (Rung("conv3", (15, 15, 256), (384, 3, 3), "zero"),
                Rung("conv2", (31, 31, 96), (256, 5, 5), "abs:4")),
        True: (Rung("conv3", (5, 5, 256), (8, 3, 3), "zero"),
               Rung("conv2", (7, 7, 96), (8, 5, 5), "abs:4")),
    }

    def setup(self, tracer) -> None:
        self.layers, self.macs = {}, {}
        for rung in self.RUNGS[self.smoke]:
            acts, wts = _generate(tracer, rung.dims, rung.filters, self.PA, self.PW, self.seed)
            path = self.work_dir / f"{rung.name}.layer"
            with tracer.span("workloads.save_layer"):
                sa.save_layer(path, sa.LayerData(acts, wts, 1, BRICK))
            self.layers[rung.name] = path
            self.macs[rung.name] = dense_macs(sa.LayerConfig.from_tensors(acts, wts))

    def prepare(self) -> None:
        with open(self.root / "docs" / "report_schema.json") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))

    def run_pass(self, run: PassRun) -> None:
        env = child_env(self.root, run.threads)
        for rung in self.RUNGS[self.smoke]:
            report = self.work_dir / f"{rung.name}.json"
            if report.exists():
                report.unlink()
            cmd = [sys.executable, "-m", "sparseaccel.cli", "run",
                   "--layer", str(self.layers[rung.name]), "--json-out", str(report),
                   "--act-crit", rung.act_crit]
            op = f"cli.run.{rung.name}"
            proc = run.timed(op, "cli.run", subprocess.run, cmd, env=env, cwd=self.work_dir,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            run.add_work(op, "sim_mmacs_per_s", len(ARCHS) * self.macs[rung.name])
            self._check_report(run, rung, proc, report)
            if run.tracer.enabled:
                self._decompose(run, rung)
        if run.tracer.enabled:
            with run.tracer.span("cli.startup"):
                proc = subprocess.run([sys.executable, "-m", "sparseaccel.cli", "--help"],
                                      env=env, cwd=self.work_dir, capture_output=True,
                                      timeout=CHILD_TIMEOUT_S)
            run.checks.expect(proc.returncode == 0, f"cli --help exited {proc.returncode}")

    def _check_report(self, run: PassRun, rung: Rung, proc, report: Path) -> None:
        checks = run.checks
        if not checks.expect(proc.returncode == 0,
                             f"{rung.name}: cli exited {proc.returncode}: {proc.stderr[-400:]}"):
            return
        try:
            with open(report) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            checks.expect(False, f"{rung.name}: unreadable report: {exc}")
            return
        errors = [e.message for e in self.validator.iter_errors(doc)]
        if not checks.expect(not errors, f"{rung.name}: report fails the schema: {errors[:3]}"):
            return
        rows = {row["arch"]: row for row in doc["rows"]}
        if not checks.expect(sorted(rows) == sorted(ARCHS), f"{rung.name}: rows {sorted(rows)}"):
            return
        for arch, row in rows.items():
            checks.expect(row["verdict"] == "PASS", f"{rung.name}/{arch}: verdict {row['verdict']}")
            for field in REPORT_FIELDS:
                run.counters[f"{rung.name}.{arch}.{field}"] = row[field]
            run.add_sim(arch, row["cycles"], row["broadcasts"], row["utilization"])
        run.add_speedups({arch: row["cycles"] for arch, row in rows.items()})

    def _decompose(self, run: PassRun, rung: Rung) -> None:
        """Traced runs only: the CLI's steps called in-process, one span each."""
        tracer = run.tracer
        with tracer.span("workloads.load_layer"):
            data = sa.load_layer(self.layers[rung.name])
        layer = data.layer_config()
        tile = sa.TileConfig(brick=data.brick)
        crit = sa.IneffCriterion.parse(rung.act_crit)
        with tracer.span("tensor.dense_conv"):
            sa.dense_conv(data.acts, data.filters, layer)
        with tracer.span("sim.weight_product_table"):
            sa.weight_product_table(data.filters, sa.ZERO, data.brick)
        for arch in ARCHS:
            with tracer.span(f"sim.run_{arch}"):
                out, _ = sa.run_arch(arch, data.acts, data.filters, layer, tile, crit, sa.ZERO)
            with tracer.span(f"cli.reference_output.{arch}"):
                expected = reference_output(arch, data, layer, tile, crit, sa.ZERO)
            run.checks.expect(np.array_equal(out, expected),
                              f"{rung.name}/{arch}: in-process output differs from reference")


# ---------------------------------------------------------------------------
# tile-sweep
# ---------------------------------------------------------------------------


class TileSweep(Workload):
    """`run_arch` in-process over a grid of machine configurations.

    pa=0.9 is there because at pa=0.5 almost no brick is empty (about 0.5^16
    of them), so `EmptyBrickCost` would change no cycle count.
    """

    name = "tile-sweep"
    PAS = (0.5, 0.9)
    PW = 0.8
    TILES = ((4, 4), (16, 16))
    GEOMETRY = {False: ((16, 16, 128), (128, 3, 3)), True: ((6, 6, 32), (16, 3, 3))}

    def setup(self, tracer) -> None:
        dims, filters = self.GEOMETRY[self.smoke]
        self.layers = []
        for pa in self.PAS:
            acts, wts = _generate(tracer, dims, filters, pa, self.PW, self.seed)
            self.layers.append((f"pa{round(pa * 100)}", acts, wts,
                                sa.LayerConfig.from_tensors(acts, wts)))

    def prepare(self) -> None:
        self.configs = []
        for (tiles, fpt), scope, sync, empty in itertools.product(
                self.TILES, sa.GroupScope, sa.SyncPolicy, sa.EmptyBrickCost):
            label = f"{tiles}x{fpt}.{scope.value}.{sync.value}.{empty.value}"
            self.configs.append((label, sa.TileConfig(
                tiles=tiles, filters_per_tile=fpt, lanes=LANES, brick=BRICK, sync=sync,
                empty_brick=empty, group_scope=scope)))

    def run_pass(self, run: PassRun) -> None:
        checks = run.checks
        for pa_label, acts, wts, layer in self.layers:
            macs = dense_macs(layer)
            op = f"{pa_label}.dense_conv"
            expected = run.timed(op, "tensor.dense_conv", sa.dense_conv, acts, wts, layer)
            run.add_work(op, "sim_mmacs_per_s", 0)
            for label, tile in self.configs:
                cycles = {}
                for arch in ARCHS:
                    op = f"{pa_label}.{label}.{arch}"
                    out, rep = run.timed(op, f"sim.run_{arch}", sa.run_arch,
                                         arch, acts, wts, layer, tile)
                    run.add_work(op, "sim_mmacs_per_s", macs)
                    key = f"{pa_label}.{label}.{arch}"
                    checks.expect(np.array_equal(out, expected), f"{key}: output != dense_conv")
                    checks.expect(rep.macs_performed + rep.macs_skipped == macs,
                                  f"{key}: performed + skipped != {macs} dense MACs")
                    for field in REPORT_FIELDS:
                        run.counters[f"{key}.{field}"] = getattr(rep, field)
                    run.add_sim(arch, rep.cycles, rep.broadcasts, rep.utilization)
                    cycles[arch] = rep.cycles
                checks.expect(cycles["cnv2"] <= cycles["cnv"],
                              f"{pa_label}.{label}: cnv2 {cycles['cnv2']} > cnv {cycles['cnv']}")
                run.add_speedups(cycles)
            if run.tracer.enabled:
                with run.tracer.span("sim.weight_product_table"):
                    sa.weight_product_table(wts, sa.ZERO, BRICK)


# ---------------------------------------------------------------------------
# store-replay
# ---------------------------------------------------------------------------


class StoreReplay(Workload):
    """Container round trips and dispatcher replays at two sizes 4x apart.

    The small size replays under lockstep sync and the large one under
    window sync, so every source is checked against the cycle model under
    both policies. RoE is pinned only: its raw-mode bricks stream every
    offset, so it is not expected to match `run_cnv`.
    """

    name = "store-replay"
    PA, PW = 0.5, 0.4
    FILTERS = (16, 3, 3)
    SIZES = {False: ((8, 8, 128), (16, 16, 128)), True: ((4, 4, 32), (8, 8, 32))}

    def setup(self, tracer) -> None:
        self.inputs = []
        for dims in self.SIZES[self.smoke]:
            acts, wts = _generate(tracer, dims, self.FILTERS, self.PA, self.PW, self.seed)
            self.inputs.append((acts, wts))

    def prepare(self) -> None:
        self.cases = []
        policies = (sa.SyncPolicy.BRICKSET_LOCKSTEP, sa.SyncPolicy.WINDOW_SYNC)
        for n, ((acts, wts), policy) in enumerate(zip(self.inputs, policies)):
            layer = sa.LayerConfig.from_tensors(acts, wts)
            x, y, i = acts.dims
            tile = sa.TileConfig(lanes=LANES, brick=BRICK, sync=policy)
            window = sa.TileConfig(lanes=LANES, brick=BRICK, sync=sa.SyncPolicy.WINDOW_SYNC)
            self.cases.append({
                "label": str(x * y * i // BRICK),
                "acts": acts,
                "layer": layer,
                "policy": policy,
                "raw_bytes": acts.values.nbytes,
                "prod": sa.weight_product_table(wts, sa.ZERO, BRICK),
                "baseline": sa.run_baseline(acts, wts, layer, tile)[1].cycles,
                "cnv": sa.run_cnv(acts, wts, layer, tile)[1],
                "cnv2_window": sa.run_cnv2(acts, wts, layer, window)[1],
                "large": n == len(policies) - 1,
            })

    def run_pass(self, run: PassRun) -> None:
        for case in self.cases:
            cycles = {"baseline": case["baseline"]}
            for fmt in CODECS:
                decoded = self._round_trip(run, case, fmt)
                if decoded is None:
                    continue
                expected = None if fmt is sa.Format.ROE else case["cnv"]
                replay = self._replay(run, case, fmt.value, decoded, case["policy"], None, expected)
                if fmt is sa.Format.ZFNAF:
                    cycles["cnv"] = replay.cycles
            raw = sa.RawDispatchSource(case["acts"], sa.ZERO, BRICK)
            self._replay(run, case, "raw", raw, case["policy"], None, case["cnv"])
            replay = self._replay(run, case, "raw_product", raw, sa.SyncPolicy.WINDOW_SYNC,
                                  case["prod"], case["cnv2_window"])
            cycles["cnv2"] = replay.cycles
            if "cnv" in cycles:
                run.add_speedups(cycles)

    def _round_trip(self, run: PassRun, case: dict, fmt: sa.Format):
        """encode_store, to_bytes, deserialize_store and re-serialize, checked."""
        checks = run.checks
        label, name = case["label"], fmt.value
        key = f"{label}.{name}"
        span = f"{name}.{label}"
        ops = [f"{key}.{step}" for step in ("encode", "to_bytes", "from_bytes", "reserialize")]
        store = run.timed(ops[0], f"encodings.encode_store.{span}",
                          sa.encode_store, fmt, case["acts"], sa.ZERO, BRICK)
        blob = run.timed(ops[1], f"encodings.to_bytes.{span}", store.to_bytes)
        try:
            decoded = run.timed(ops[2], f"encodings.from_bytes.{span}", sa.deserialize_store, blob)
            again = run.timed(ops[3], f"encodings.to_bytes.{span}", decoded.to_bytes)
        except (sa.SparseAccelError, ValueError) as exc:
            checks.expect(False, f"{key}: round trip raised {type(exc).__name__}: {exc}")
            return None
        for op in ops:
            run.add_work(op, "codec_mb_per_s", case["raw_bytes"] if op == ops[0] else 0)
        checks.expect(again == blob, f"{key}: re-serialization differs")
        checks.expect(np.array_equal(decoded.decode(), case["acts"].values),
                      f"{key}: decoded tensor differs from the input")
        run.counters[f"{key}.sha256"] = hashlib.sha256(blob).hexdigest()
        run.counters[f"{key}.bytes"] = len(blob)
        run.blob_bytes[name] += len(blob)
        if run.tracer.enabled and case["large"]:
            x, y, i = case["acts"].dims
            with run.tracer.span(f"encodings.brick_pairs.{span}"):
                for bx, by, ib in itertools.product(range(x), range(y), range(i // BRICK)):
                    decoded.brick_pairs(bx, by, ib)
        return decoded

    def _replay(self, run: PassRun, case: dict, source: str, store, policy, prod, expected):
        """run_dispatch over the layer; cycles and broadcasts must match the model."""
        key = f"{case['label']}.{source}"
        op = f"{key}.dispatch"
        replay = run.timed(op, f"dispatch.run_dispatch.{source}", sa.run_dispatch,
                           store, case["layer"], lanes=LANES, policy=policy, prod_table=prod)
        events = len(replay.events)
        run.add_work(op, "replay_kevents_per_s", events)
        if expected is not None:
            run.checks.expect(replay.cycles == expected.cycles,
                              f"{key}: {replay.cycles} cycles, model says {expected.cycles}")
            run.checks.expect(replay.broadcasts == expected.broadcasts,
                              f"{key}: {replay.broadcasts} broadcasts, "
                              f"model says {expected.broadcasts}")
        run.counters[f"{key}.cycles"] = replay.cycles
        run.counters[f"{key}.broadcasts"] = replay.broadcasts
        run.counters[f"{key}.events"] = events
        acc = run.dispatch[source]
        acc[0] += events
        acc[1] += replay.broadcasts
        return replay


WORKLOADS = {cls.name: cls for cls in (AlexnetCli, TileSweep, StoreReplay)}
