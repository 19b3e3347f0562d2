"""The benchmark's checks pass on good output and fire on bad output.

Runs every workload at smoke size, so the whole file takes a few seconds:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import ladders  # noqa: E402
import sparseaccel as sa  # noqa: E402


def smoke(workload, tmp_path, seed=0, trace=False, pins=None):
    return bench.measure(workload, seed, 0, trace, True, ROOT, tmp_path, pins=pins)


@pytest.mark.parametrize("workload", sorted(ladders.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_smoke_runs_pass_every_check(workload, seed, tmp_path):
    result = smoke(workload, tmp_path, seed=seed)
    assert result.checks.attempted > 0
    assert result.checks.failed == 0, result.checks.messages
    assert result.pinned == (seed == 0)
    for name in ("run_s", "setup_s", "peak_rss_mb", "speedup_cnv", "speedup_cnv2"):
        assert result.metrics[name] > 0


def test_flipped_byte_in_a_container_is_counted_as_failed(tmp_path, monkeypatch):
    to_bytes = sa.ZfnafStore.to_bytes

    def flipped(self):
        blob = bytearray(to_bytes(self))
        blob[-1] ^= 0x01
        return bytes(blob)

    monkeypatch.setattr(sa.ZfnafStore, "to_bytes", flipped)
    result = smoke("store-replay", tmp_path)
    assert result.checks.failed > 0
    assert result.checks.error_rate > 0


@pytest.mark.parametrize("workload", sorted(ladders.WORKLOADS))
def test_perturbed_pin_is_counted_as_failed(workload, tmp_path):
    pins = copy.deepcopy(bench.load_pins())
    counters = pins["smoke"][workload]
    key = sorted(k for k, v in counters.items() if isinstance(v, int))[0]
    counters[key] += 1
    result = smoke(workload, tmp_path, pins=pins)
    assert result.checks.failed > 0
    assert any(key in msg for msg in result.checks.messages)


def test_traced_run_reports_spans_and_layer_metrics(tmp_path):
    result = smoke("tile-sweep", tmp_path, trace=True)
    assert result.checks.failed == 0, result.checks.messages
    names = {span["name"] for span in result.spans}
    assert {"setup", "pass", "workloads.gen_synthetic", "tensor.dense_conv",
            "sim.run_cnv2"} <= names
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    for name in ("sim.run_cnv2_ms", "tensor.dense_conv_ms", "self_ms.sim",
                 "rate.sim_mmacs_per_s", "sim.cycles.cnv2"):
        assert name in declared
        assert result.metrics[name] > 0
