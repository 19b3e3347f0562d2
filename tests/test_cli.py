import ast
import contextlib
import csv
import io
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparseaccel.cli as cli
import sparseaccel.sim as sim
from sparseaccel import (ActTensor, FilterSet, GroupScope, IneffCriterion, LayerData,
                         SyncPolicy, TileConfig, ValidationError, load_layer, save_layer)

from helpers import (FLOAT32_LIMIT_CASES, einsum_conv, hypothesis_picks, pick_criterion,
                     seeded_cases, traced_peak, window_reference_output)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "weight_skip_demo.json"
SCHEMA = json.loads((ROOT / "docs" / "report_schema.json").read_text())

FIXTURE_TILE = ["--tiles", "1", "--filters-per-tile", "2", "--lanes", "4"]


def run_cli(*argv) -> int:
    return cli.main(list(argv))


# -- gen ------------------------------------------------------------------

def test_gen_writes_loadable_layer(tmp_path, capsys):
    out = tmp_path / "t.layer"
    rc = run_cli("gen", "--dims", "4x4x16", "--filters", "2x1x1",
                 "--pa", "0.5", "--seed", "3", "-o", str(out))
    assert rc == 0
    printed = capsys.readouterr().out
    assert "zero" in printed
    data = load_layer(out)
    assert data.acts.dims == (4, 4, 16)
    assert data.filters.count == 2


def test_gen_rejects_bad_dims(tmp_path):
    assert run_cli("gen", "--dims", "4x4", "--filters", "2x1x1",
                   "-o", str(tmp_path / "x.layer")) == 2
    assert run_cli("gen", "--dims", "axbxc", "--filters", "2x1x1",
                   "-o", str(tmp_path / "x.layer")) == 2
    assert run_cli("gen", "--dims", "4x4x16", "--filters", "2x1x1",
                   "--pa", "1.5", "-o", str(tmp_path / "x.layer")) == 2


@pytest.mark.parametrize("name", ["x.layer", "x.json"])
def test_gen_refuses_a_layer_the_loaders_would_refuse(tmp_path, capsys, name):
    out = tmp_path / name
    assert run_cli("gen", "--dims", "4x4x8", "--filters", "1x1x1", "--brick", "32",
                   "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert "padded depth 32" in err and "Traceback" not in err
    assert not out.exists()
    # the bound is for files: the same layer still runs in process
    assert run_cli("run", "--dims", "4x4x8", "--filters", "1x1x1", "--brick", "32") == 0


def test_gen_requires_geometry(tmp_path):
    assert run_cli("gen", "-o", str(tmp_path / "x.layer")) == 2


def test_gen_takes_out_from_the_config_and_the_flag_wins(tmp_path):
    from_config, from_flag = tmp_path / "config.json", tmp_path / "flag.json"
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"dims = 4x4x16\nfilters = 2x1x1\nout = {from_config}\n")
    assert run_cli("gen", "--config", str(cfg)) == 0
    assert load_layer(from_config).acts.dims == (4, 4, 16)
    from_config.unlink()
    assert run_cli("gen", "--config", str(cfg), "-o", str(from_flag)) == 0
    assert load_layer(from_flag).acts.dims == (4, 4, 16)
    assert not from_config.exists()


# -- run ------------------------------------------------------------------

def test_run_fixture_reports(tmp_path):
    jout = tmp_path / "r.json"
    cout = tmp_path / "r.csv"
    rc = run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE,
                 "--json-out", str(jout), "--csv-out", str(cout))
    assert rc == 0

    doc = json.loads(jout.read_text())
    jsonschema.validate(doc, SCHEMA)
    rows = {r["arch"]: r for r in doc["rows"]}
    assert rows["baseline"]["cycles"] == 4
    assert rows["cnv"]["cycles"] == 3
    assert rows["cnv2"]["cycles"] == 2
    assert rows["cnv"]["speedup"] == pytest.approx(4 / 3)
    assert rows["cnv2"]["speedup"] == pytest.approx(2.0)
    assert all(r["verdict"] == "PASS" for r in doc["rows"])
    assert doc["layer"]["i"] == 16 and doc["layer"]["brick"] == 4

    with open(cout) as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["arch", "cycles", "macs_performed", "macs_skipped",
                        "broadcasts", "footprint_bits", "utilization",
                        "speedup", "verdict"]
    assert [r[0] for r in table[1:]] == ["baseline", "cnv", "cnv2"]


def test_run_synthetic_and_arch_subset(tmp_path):
    jout = tmp_path / "r.json"
    rc = run_cli("run", "--dims", "4x4x32", "--filters", "2x1x1", "--pa", "0.5",
                 "--seed", "8", "--arch", "cnv", "--tiles", "1",
                 "--filters-per-tile", "2", "--lanes", "2",
                 "--json-out", str(jout))
    assert rc == 0
    doc = json.loads(jout.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert [r["arch"] for r in doc["rows"]] == ["cnv"]
    assert doc["rows"][0]["speedup"] is None  # no baseline row to compare
    assert doc["source"] == "synthetic(seed=8)"


def test_run_zero_cycles_reports_null_speedup(tmp_path):
    jout = tmp_path / "r.json"
    rc = run_cli("run", "--dims", "4x4x16", "--filters", "1x1x1", "--pa", "1.0",
                 "--seed", "1", "--tiles", "1", "--filters-per-tile", "1",
                 "--lanes", "4", "--json-out", str(jout))
    assert rc == 0
    doc = json.loads(jout.read_text())
    jsonschema.validate(doc, SCHEMA)
    rows = {r["arch"]: r for r in doc["rows"]}
    assert rows["cnv"]["cycles"] == 0
    assert rows["cnv"]["speedup"] is None
    assert rows["cnv"]["utilization"] == 0.0


def test_report_tile_block_has_no_nbin_depth(tmp_path, capsys):
    """Reports no longer carry `nbin_depth`; older reports that do still
    validate and merge."""
    jout = tmp_path / "new.json"
    assert run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE, "--json-out", str(jout)) == 0
    doc = json.loads(jout.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert "nbin_depth" not in doc["tile"]
    assert not hasattr(TileConfig(), "nbin_depth")

    old = dict(doc, tile=dict(doc["tile"], nbin_depth=64))
    jsonschema.validate(old, SCHEMA)
    (tmp_path / "old.json").write_text(json.dumps(old))
    merged = tmp_path / "merged.csv"
    capsys.readouterr()
    assert run_cli("compare", str(tmp_path / "old.json"), str(jout), "-o", str(merged)) == 0
    with open(merged) as fh:
        table = list(csv.reader(fh))
    assert [r[1] for r in table[1:7]] == ["baseline", "cnv", "cnv2"] * 2
    assert "geomean speedup cnv2: 2.000000" in capsys.readouterr().out


def test_run_tile_block_defaults_to_tile_config(tmp_path):
    jout = tmp_path / "r.json"
    assert run_cli("run", "--layer", str(FIXTURE), "--json-out", str(jout)) == 0
    want = TileConfig(brick=load_layer(FIXTURE).brick)
    assert json.loads(jout.read_text())["tile"] == {
        "tiles": want.tiles, "filters_per_tile": want.filters_per_tile, "lanes": want.lanes,
        "brick": want.brick, "sync": want.sync.value, "empty_brick": want.empty_brick.value,
        "group_scope": want.group_scope.value}


def test_run_input_errors(tmp_path, capsys):
    assert run_cli("run", "--layer", str(tmp_path / "missing.layer")) == 2
    assert run_cli("run") == 2  # neither --layer nor synthetic geometry
    assert run_cli("run", "--dims", "4x4x16", "--filters", "1x1x1",
                   "--arch", "baseline,tpu") == 2
    assert run_cli("run", "--dims", "4x4x16", "--filters", "1x1x1",
                   "--arch", "cnv,cnv,baseline") == 2
    assert "--arch names cnv more than once" in capsys.readouterr().err
    assert run_cli("run", "--dims", "4x4x16", "--filters", "1x1x1",
                   "--act-crit", "fuzzy") == 2
    bad = tmp_path / "bad.layer"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run_cli("run", "--layer", str(bad)) == 2


def test_run_rejects_layer_with_trailing_bytes(tmp_path, capsys):
    path = tmp_path / "long.layer"
    assert run_cli("gen", "--dims", "4x4x16", "--filters", "2x3x3", "-o", str(path)) == 0
    assert run_cli("run", "--layer", str(path), "--arch", "baseline") == 0
    path.write_bytes(path.read_bytes() + b"\x00\x07")
    capsys.readouterr()
    assert run_cli("run", "--layer", str(path), "--arch", "baseline") == 2
    err = capsys.readouterr().err
    assert "trailing bytes" in err and "Traceback" not in err


@pytest.mark.parametrize("dims, acts", [([-2, -2, 4], [1] * 16),  # sizes agree
                                        ([1, 1, 4], [1.5, 2, 3, 4])])
def test_run_rejects_malformed_json_layer(tmp_path, capsys, dims, acts):
    doc = {"format": "CNVL", "version": 1, "dims": dims, "filters": [1, 1, 1],
           "stride": 1, "brick": 4, "activations": acts, "weights": [1, 1, 1, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--layer", str(path)) == 2
    err = capsys.readouterr().err
    assert "expected an integer" in err and "Traceback" not in err


def byte_mutated(blob: bytes, rng) -> bytes:
    """``blob`` with one to three bytes replaced, inserted or deleted."""
    out = bytearray(blob)
    for _ in range(rng.integers(1, 4)):
        at, byte, edit = int(rng.integers(len(out))), int(rng.integers(256)), rng.integers(3)
        if edit == 0:
            out[at] = byte
        elif edit == 1:
            out.insert(at, byte)
        else:
            del out[at]
    return bytes(out)


def valid_input(kind: str, tmp: Path) -> tuple[bytes, list[str]]:
    """A valid file of each kind the CLI reads, and the arguments that read
    it, "{}" standing for its path."""
    if kind == "report":
        jout = tmp / "valid.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE,
                           "--json-out", str(jout)) == 0
        return jout.read_bytes(), ["compare", "{}"]
    if kind == "config":
        text = (f"# a run\nlayer = {FIXTURE}\ntiles = 1\nfilters-per-tile = 2\nlanes = 4\n"
                "act-crit = abs:1\nwt-crit = zero\nsync = window\narch = cnv,cnv2\n")
        return text.encode(), ["run", "--config", "{}"]
    path = tmp / f"valid.{kind}"
    save_layer(path, load_layer(FIXTURE))
    return path.read_bytes(), ["run", "--layer", "{}", *FIXTURE_TILE]


@pytest.mark.parametrize("kind", ["json", "layer", "report", "config"])
def test_every_byte_mutated_input_exits_0_2_or_3(tmp_path, kind):
    """One to three bytes of a valid JSON or binary layer, report or config
    file replaced, inserted or deleted: `cli.main` returns 0, 2 or 3, and no
    exception escapes it."""
    valid, argv = valid_input(kind, tmp_path)
    rng = np.random.default_rng(12)
    path = tmp_path / f"mutated.{'json' if kind == 'report' else kind}"
    codes = set()
    for _ in range(60):
        path.write_bytes(byte_mutated(valid, rng))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.add(run_cli(*[arg.format(path) for arg in argv]))
    assert codes <= {0, 2, 3} and 2 in codes


@pytest.mark.parametrize("name, stride, brick, message", [
    ("zero.layer", 0, 4, "stride[0] is 0"),
    ("wide.layer", 1, 65535, "padded depth 65535"),
    ("wide.json", 1, 65535, "padded depth 65535"),
])
def test_run_rejects_layer_headers_out_of_bounds(tmp_path, capsys, name, stride, brick, message):
    path = tmp_path / name
    if name.endswith(".json"):
        path.write_text(json.dumps({"format": "CNVL", "version": 1, "dims": [100, 1, 1],
                                    "filters": [1, 1, 1], "stride": stride, "brick": brick,
                                    "activations": [1] * 100, "weights": [1]}))
    else:
        path.write_bytes(struct.pack("<4sHIIIIIIHH", b"CNVL", 1, 100, 1, 1, 1, 1, 1, stride, brick)
                         + bytes(2 * 101))
    assert run_cli("run", "--layer", str(path)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_run_equivalence_failure_exits_3(tmp_path, monkeypatch, capsys):
    def wrong_reference(arch, data, layer, tile, act_crit, weight_crit):
        return np.zeros((layer.ox, layer.oy, layer.f), dtype=np.int64) - 1

    monkeypatch.setattr(cli, "reference_output", wrong_reference)
    rc = run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE)
    assert rc == 3
    err = capsys.readouterr().err
    assert "equivalence" in err


def _off_by_one_at(call, real):
    """``real``, with the output of its ``call``-th call (from 0) off by one."""
    calls = itertools.count()

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        if next(calls) == call:
            out = out.copy()
            out[..., 0] += 1
        return out
    return corrupted


# The fixture's activation 1 and the weights both filters hold at 0 or 1
# are dropped by abs:1; under zero criteria every machine multiplies the same
# nonzero products.
PRODUCT_SETS = [
    ("zero", "zero", [{"baseline", "cnv", "cnv2"}]),   # one product set
    ("abs:1", "zero", [{"baseline"}, {"cnv", "cnv2"}]),
    ("zero", "abs:1", [{"baseline", "cnv"}, {"cnv2"}]),
    ("abs:1", "abs:1", [{"baseline"}, {"cnv"}, {"cnv2"}]),  # three product sets
]


@pytest.mark.parametrize("act_crit, wt_crit, call, failing", [
    pytest.param(act, wt, call, machines, id=f"{act}-{wt}-call{call}")
    for act, wt, sets in PRODUCT_SETS for call, machines in enumerate(sets)])
def test_run_catches_a_corrupted_simulator(tmp_path, monkeypatch, capsys, act_crit, wt_crit,
                                           call, failing):
    # the converse of the test above: the simulator's convolution of one
    # product set is wrong, the reference is not, and every machine that
    # shares that set fails
    monkeypatch.setattr(sim, "conv3d", _off_by_one_at(call, sim.conv3d))
    jout = tmp_path / "r.json"
    rc = run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE, "--act-crit", act_crit,
                 "--wt-crit", wt_crit, "--json-out", str(jout))
    assert rc == 3
    assert "equivalence" in capsys.readouterr().err
    rows = json.loads(jout.read_text())["rows"]
    assert {r["arch"] for r in rows if r["verdict"] == "FAIL"} == failing


def test_run_catches_cnv2_ignoring_the_weight_products(tmp_path, monkeypatch, capsys):
    args = ("run", "--layer", str(FIXTURE), *FIXTURE_TILE, "--wt-crit", "abs:1")
    assert run_cli(*args) == 0
    real = sim._dead_tables
    monkeypatch.setattr(sim, "_dead_tables", lambda *a, **kw: np.zeros_like(real(*a, **kw)))
    jout = tmp_path / "r.json"
    assert run_cli(*args, "--json-out", str(jout)) == 3
    assert "equivalence" in capsys.readouterr().err
    rows = json.loads(jout.read_text())["rows"]
    assert [r["arch"] for r in rows if r["verdict"] == "FAIL"] == ["cnv2"]


def count_calls(monkeypatch, *targets) -> dict:
    """Count the calls of each (module, name) in ``targets`` by name."""
    calls = dict.fromkeys((name for _, name in targets), 0)

    def counted(module, name):
        real = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    for module, name in targets:
        counted(module, name)
    return calls


# ids: criteria, then the convolutions and the reference sweeps expected
@pytest.mark.parametrize("act_crit, wt_crit, sets", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{len(case[2])}-{len(case[2])}")
    for case in PRODUCT_SETS])
def test_run_convolves_each_distinct_product_set_once(monkeypatch, act_crit, wt_crit, sets):
    calls = count_calls(monkeypatch, (sim, "conv3d"), (cli, "reference_output"))
    assert run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE,
                   "--act-crit", act_crit, "--wt-crit", wt_crit) == 0
    assert calls == {"conv3d": len(sets), "reference_output": len(sets)}


def test_run_at_a_billion_lanes_fits_in_a_gib():
    """Only the lanes that get a brick or position are stored, so `run` at
    10^9 lanes fits in 1 GiB of address space, where busy counts padded to
    the lane count asked for 7.45 GiB. The limit is set on the child alone,
    so a failure costs no memory here; one BLAS thread keeps that library's
    per-thread buffers out of the limit."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sparseaccel.cli", "run", "--dims", "6x6x32",
                           "--filters", "4x3x3", "--pa", "0.5", "--lanes", "1000000000"],
                          env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == \
        [("baseline", "PASS"), ("cnv", "PASS"), ("cnv2", "PASS")]


def test_run_rejects_a_brick_the_reference_cannot_sum_exactly(monkeypatch, capsys):
    assert cli.MAX_EXACT_BRICK * 2**30 == 2**53
    data = load_layer(FIXTURE)
    with pytest.raises(ValidationError):
        cli.reference_output("baseline", data, data.layer_config(),
                             TileConfig(brick=cli.MAX_EXACT_BRICK + 1),
                             IneffCriterion(), IneffCriterion())
    monkeypatch.setattr(cli, "MAX_EXACT_BRICK", 2)  # the fixture's brick is 4
    assert run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE) == 2
    assert "exactly" in capsys.readouterr().err


def test_reference_output_is_independent_of_the_simulator():
    tree = ast.parse(Path(cli.__file__).read_text())
    from_sim = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module in ("sim", "sparseaccel.sim")
                for alias in node.names}
    assert from_sim  # the CLI itself does use the simulator
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "reference_output")
    nodes = [n for stmt in func.body for n in ast.walk(stmt)]
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert not names & (from_sim | {"sim", "sparseaccel"})
    assert not (names | attrs) & {"conv3d", "dense_conv", "weight_product_table"}
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in nodes)


def reference_case(integer, choice):
    """One random layer, machine shape and pair of criteria; ``integer`` and
    ``choice`` make every pick, as in `helpers.hypothesis_picks` and
    `helpers.seeded_cases`."""
    brick = choice([1, 2, 4, 8, 16])
    depth = integer(1, 3 * brick)  # mostly not a brick multiple: padded
    fx, fy, stride = integer(1, 3), integer(1, 3), integer(1, 3)
    ox, oy, f = integer(1, 3), integer(1, 3), integer(1, 12)
    vmax = choice([3, 40, 32767])
    rng = np.random.default_rng(integer(0, 2**32 - 1))

    def values(shape):
        arr = rng.integers(-vmax - 1, vmax + 1, size=shape)
        arr[rng.random(shape) < rng.uniform(0.2, 0.8)] = 0
        return arr

    acts = values((fx + stride * (ox - 1), fy + stride * (oy - 1), depth))
    wts = values((f, fx, fy, depth))
    data = LayerData(ActTensor.padded(acts, brick), FilterSet.padded(wts, brick), stride, brick)
    tile = TileConfig(tiles=integer(1, 3), filters_per_tile=integer(1, 4),
                      lanes=4, brick=brick, group_scope=choice(list(GroupScope)))
    return data, tile, pick_criterion(integer, choice), pick_criterion(integer, choice)


@st.composite
def reference_cases(draw):
    return reference_case(*hypothesis_picks(draw))


def assert_reference_matches_window_loop(data, tile, act_crit, weight_crit):
    layer = data.layer_config()
    for arch in cli.ARCH_CHOICES:
        got = cli.reference_output(arch, data, layer, tile, act_crit, weight_crit)
        want = window_reference_output(arch, data, layer, tile, act_crit, weight_crit)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), arch


@settings(max_examples=60, deadline=None)
@given(reference_cases())
def test_reference_output_matches_window_loop(case):
    assert_reference_matches_window_loop(*case)


def test_reference_output_matches_window_loop_on_seeded_layers():
    """The property above on a fixed set of layers, so a fault it finds only
    by chance is still found every run."""
    for case in seeded_cases(reference_case, seed=5, n=80):
        assert_reference_matches_window_loop(*case)


def run_argv(path, archs, tile, act_crit, weight_crit) -> list[str]:
    """`run` on the layer file ``path``, these machines, shape and criteria."""
    return ["run", "--layer", str(path), "--arch", ",".join(archs), "--tiles", str(tile.tiles),
            "--filters-per-tile", str(tile.filters_per_tile), "--lanes", str(tile.lanes),
            "--sync", tile.sync.value, "--group-scope", tile.group_scope.value,
            "--act-crit", act_crit.spec(), "--wt-crit", weight_crit.spec()]


def _row_of(report, out, expected, base_cycles) -> dict:
    row = dict(report.to_record(), speedup=None, verdict="PASS")
    if base_cycles is not None and report.cycles:
        row["speedup"] = base_cycles / report.cycles
    if not np.array_equal(out, expected):
        row["verdict"] = "FAIL"
    return row


@settings(max_examples=40, deadline=None)
@given(reference_cases(), st.permutations(cli.ARCH_CHOICES), st.integers(1, 3))
def test_run_rows_equal_separate_machine_runs(case, order, n_archs):
    """`run` shares convolutions between machines; its rows and verdicts are
    those of each machine run and checked on its own."""
    data, tile, act_crit, weight_crit = case
    archs = order[:n_archs]
    layer = data.layer_config()
    with tempfile.TemporaryDirectory() as tmp:
        path, jout = Path(tmp, "l.layer"), Path(tmp, "r.json")
        save_layer(path, data)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run_cli(*run_argv(path, archs, tile, act_crit, weight_crit),
                         "--json-out", str(jout))
        rows = json.loads(jout.read_text())["rows"]
    runs = {arch: sim.run_arch(arch, data.acts, data.filters, layer, tile, act_crit,
                               weight_crit) for arch in archs}
    base = runs["baseline"][1].cycles if "baseline" in runs else None
    want = [_row_of(report, out,
                    cli.reference_output(arch, data, layer, tile, act_crit, weight_crit), base)
            for arch, (out, report) in runs.items()]
    assert rc == 0
    assert rows == want


def test_run_convolves_as_often_as_the_reference_sweeps_on_seeded_layers(tmp_path,
                                                                         monkeypatch):
    """Over random layers, criteria, scopes, sync policies and machine orders,
    `run`'s simulator convolves exactly as often as its reference sweeps, and
    every verdict is PASS: both sides find the same product sets."""
    calls = count_calls(monkeypatch, (sim, "conv3d"), (cli, "reference_output"))
    rng = np.random.default_rng(26)
    path, jout = tmp_path / "l.layer", tmp_path / "r.json"
    for data, tile, act_crit, weight_crit in seeded_cases(reference_case, seed=26, n=40):
        save_layer(path, data)
        archs = list(rng.permutation(cli.ARCH_CHOICES)[:rng.integers(1, 4)])
        tile = replace(tile, sync=list(SyncPolicy)[rng.integers(2)])
        calls.update(conv3d=0, reference_output=0)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run_cli(*run_argv(path, archs, tile, act_crit, weight_crit),
                         "--json-out", str(jout))
        assert rc == 0
        assert {r["verdict"] for r in json.loads(jout.read_text())["rows"]} == {"PASS"}
        assert calls["conv3d"] == calls["reference_output"], (archs, act_crit, weight_crit)


def test_reference_output_per_tile_groups_in_a_ragged_last_pass():
    # 10 filters over passes of 2 tiles x 3: groups 0-2, 3-5 | 6-8 and 9 alone
    rng = np.random.default_rng(5)
    acts = rng.integers(-9, 10, size=(4, 3, 8))
    wts = rng.integers(-9, 10, size=(10, 2, 2, 8))
    acts[rng.random(acts.shape) < 0.3] = 0
    wts[rng.random(wts.shape) < 0.6] = 0
    data = LayerData(ActTensor(acts), FilterSet(wts), 1, 4)
    tile = TileConfig(tiles=2, filters_per_tile=3, lanes=4, brick=4,
                      group_scope=GroupScope.PER_TILE)
    crits = IneffCriterion(), IneffCriterion.parse("abs:4")  # small weights are dropped
    layer = data.layer_config()
    got = cli.reference_output("cnv2", data, layer, tile, *crits)
    assert np.array_equal(got, window_reference_output("cnv2", data, layer, tile, *crits))
    # the one-filter group skips offsets that the pass's other filters keep
    pass_wide = TileConfig(tiles=2, filters_per_tile=3, lanes=4, brick=4)
    assert not np.array_equal(got[..., 9],
                              cli.reference_output("cnv2", data, layer, pass_wide, *crits)[..., 9])


def assert_exact_at_int16_extremes():
    acts = np.full((4, 4, 64), -32768)
    wts = np.full((5, 3, 3, 64), -32768)
    data = LayerData(ActTensor(acts), FilterSet(wts), 1, 16)
    tile = TileConfig(tiles=1, filters_per_tile=2, brick=16, group_scope=GroupScope.PER_TILE)
    crit = IneffCriterion()
    assert_reference_matches_window_loop(data, tile, crit, crit)
    out = cli.reference_output("cnv2", data, data.layer_config(), tile, crit, crit)
    assert (out == 3 * 3 * 64 * 2**30).all()


def test_reference_output_exact_at_int16_extremes():
    assert_exact_at_int16_extremes()


def test_reference_output_flushes_exactly_at_int16_extremes(monkeypatch):
    # each offset's depth of 64 takes 4 GEMMs of 16, each flushed before the next
    monkeypatch.setattr(cli, "MAX_EXACT_BRICK", 16)
    assert_exact_at_int16_extremes()


# MAX_EXACT_BRICK 4 and 7 cut each offset's depth of 20 into chunks that do
# and do not divide it, flushing before every chunk; 48 flushes after every
# second offset, with no depth split
@pytest.mark.parametrize("max_terms", [4, 7, 48])
def test_reference_output_splits_a_deep_depth(monkeypatch, max_terms):
    rng = np.random.default_rng(11)
    acts = rng.integers(-40, 41, size=(5, 4, 18))
    wts = rng.integers(-40, 41, size=(7, 2, 2, 18))
    acts[rng.random(acts.shape) < 0.4] = 0
    wts[rng.random(wts.shape) < 0.4] = 0
    data = LayerData(ActTensor.padded(acts, 4), FilterSet.padded(wts, 4), 1, 4)
    tile = TileConfig(tiles=2, filters_per_tile=2, lanes=4, brick=4,
                      group_scope=GroupScope.PER_TILE)
    monkeypatch.setattr(cli, "MAX_EXACT_BRICK", max_terms)
    assert_reference_matches_window_loop(data, tile, IneffCriterion.parse("abs:3"),
                                         IneffCriterion.parse("abs:9"))


@pytest.mark.parametrize("v, taps, depth, brick, dtype", FLOAT32_LIMIT_CASES)
def test_reference_output_exact_at_the_float32_limit(v, taps, depth, brick, dtype):
    assert cli._reference_gemm(v * v, depth)[0] is dtype
    acts = np.full((taps + 1, taps, depth), v)
    wts = np.full((3, taps, taps, depth), v)
    data = LayerData(ActTensor(acts), FilterSet(wts), 1, brick)
    tile = TileConfig(tiles=1, filters_per_tile=2, lanes=4, brick=brick,
                      group_scope=GroupScope.PER_TILE)
    crit = IneffCriterion()
    assert_reference_matches_window_loop(data, tile, crit, crit)
    out = cli.reference_output("cnv2", data, data.layer_config(), tile, crit, crit)
    assert (out == taps * taps * depth * v * v).all()


def test_reference_gemm_follows_the_magnitude_and_the_cap(monkeypatch):
    assert cli._reference_gemm(127 * 127, 1040) == (np.float32, 1040)
    assert cli._reference_gemm(127 * 127, 1041) == (np.float64, 1 << 23)
    assert cli._reference_gemm(128 * 128, 1024) == (np.float32, 1024)
    assert cli._reference_gemm(1 << 30, 1) == (np.float64, 1 << 23)  # full-range int16
    assert cli._reference_gemm(0, 1 << 24) == (np.float32, 1 << 23)  # all zero: peak 1
    monkeypatch.setattr(cli, "MAX_EXACT_BRICK", 7)  # the cap binds on both paths
    assert cli._reference_gemm(127 * 127, 512) == (np.float32, 7)
    assert cli._reference_gemm(1 << 30, 512) == (np.float64, 7)


@pytest.mark.parametrize("arch", cli.ARCH_CHOICES)
def test_reference_output_peak_memory_stays_below_the_einsum(arch):
    # the case of test_conv3d_peak_memory_stays_below_the_einsum; casting the
    # whole filter tensor to float64 at once would add about 1.2 MB
    rng = np.random.default_rng(3)
    acts = rng.integers(-128, 128, size=(16, 16, 128)).astype(np.int16)
    wts = rng.integers(-128, 128, size=(128, 3, 3, 128)).astype(np.int16)
    data = LayerData(ActTensor(acts), FilterSet(wts), 1, 16)
    tile = TileConfig(tiles=4, filters_per_tile=4, group_scope=GroupScope.PER_TILE)
    crit = IneffCriterion()
    peak = traced_peak(cli.reference_output, arch, data, data.layer_config(), tile, crit, crit)
    assert peak < traced_peak(einsum_conv, acts, wts)


def test_json_out_overwrites_atomically(tmp_path):
    jout = tmp_path / "r.json"
    jout.write_text("stale")
    rc = run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE,
                 "--json-out", str(jout))
    assert rc == 0
    assert json.loads(jout.read_text())["schema_version"] == 1
    assert not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("command", ["json", "csv", "compare"])
def test_reports_into_a_missing_directory_exit_2(tmp_path, capsys, command):
    target = str(tmp_path / "missing" / "out")
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"rows": [{"arch": "cnv", "speedup": 2.0}]}))
    run = ["run", "--layer", str(FIXTURE), *FIXTURE_TILE]
    argv = {"json": run + ["--json-out", target], "csv": run + ["--csv-out", target],
            "compare": ["compare", str(report), "-o", target]}[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_a_report_onto_a_directory_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    """The directory exists, so the temp file is made beside it and only the
    rename fails; the temp file is then removed."""
    taken = tmp_path / "taken"
    taken.mkdir()
    assert run_cli("run", "--layer", str(FIXTURE), *FIXTURE_TILE, "--json-out", str(taken)) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert taken.is_dir() and not list(tmp_path.glob(".tmp-report-*"))


@pytest.mark.parametrize("flag", ["--json-out", "--csv-out"])
def test_run_checks_report_directories_before_simulating(tmp_path, monkeypatch, capsys, flag):
    def must_not_run(*args, **kwargs):
        raise AssertionError("simulated although the report cannot be written")

    monkeypatch.setattr(cli, "_run_machines", must_not_run)
    target = str(tmp_path / "missing" / "r.out")
    assert run_cli("run", "--dims", "4x4x8", "--filters", "1x1x1", flag, target) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err


# -- config files -----------------------------------------------------------

def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("dims = 4x4x16\nfilters = 2x1x1\npa = 0.5\nseed = 3\n")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    assert run_cli("gen", "--config", str(cfg), "-o", str(a)) == 0
    assert run_cli("gen", "--dims", "4x4x16", "--filters", "2x1x1",
                   "--pa", "0.5", "--seed", "3", "-o", str(b)) == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())
    # an explicit flag overrides the config value
    assert run_cli("gen", "--config", str(cfg), "--seed", "9", "-o", str(c)) == 0
    assert json.loads(c.read_text()) != json.loads(a.read_text())


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("dims = 4x4x16\nfilters = 2x1x1\nwidgets = 7\n")
    assert run_cli("gen", "--config", str(cfg), "-o", str(tmp_path / "o.json")) == 2
    cfg.write_text("dims = 4x4x16\nfilters = 2x1x1\nseed = lots\n")
    assert run_cli("gen", "--config", str(cfg), "-o", str(tmp_path / "o.json")) == 2
    cfg.write_text("dims 4x4x16\n")
    assert run_cli("gen", "--config", str(cfg), "-o", str(tmp_path / "o.json")) == 2


@pytest.mark.parametrize("key", ["help", "config"])
def test_config_refuses_help_and_config_keys(tmp_path, capsys, key):
    """help and config steer the parse itself, so a config file naming
    either is an unknown key, not a setting quietly ignored."""
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"dims = 4x4x16\nfilters = 2x1x1\n{key} = yes\n")
    out = tmp_path / "o.json"
    assert run_cli("gen", "--config", str(cfg), "-o", str(out)) == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_config_comments_and_dashes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nfilters-per-tile = 2\ntiles = 1\nlanes = 4\n")
    jout = tmp_path / "r.json"
    rc = run_cli("run", "--layer", str(FIXTURE), "--config", str(cfg),
                 "--json-out", str(jout))
    assert rc == 0
    doc = json.loads(jout.read_text())
    assert doc["tile"]["filters_per_tile"] == 2
    assert doc["tile"]["lanes"] == 4
    rows = {r["arch"]: r for r in doc["rows"]}
    assert rows["cnv2"]["cycles"] == 2


def test_config_choices_and_flags_reach_the_report(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sync = window\nlanes = 4\ntiles = 1\n")
    jout = tmp_path / "r.json"
    run = ["run", "--layer", str(FIXTURE), "--config", str(cfg), "--json-out", str(jout)]
    assert run_cli(*run) == 0
    tile = json.loads(jout.read_text())["tile"]
    assert (tile["sync"], tile["lanes"], tile["tiles"]) == ("window", 4, 1)
    # an explicit flag wins over the config value, wherever it stands
    assert run_cli(*run, "--lanes", "8") == 0
    assert json.loads(jout.read_text())["tile"]["lanes"] == 8
    assert run_cli("run", "--lanes", "8", *run[1:]) == 0
    assert json.loads(jout.read_text())["tile"]["lanes"] == 8
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    ("sync = sideways\n", "config sync = 'sideways' not one of ['lockstep', 'window']"),
    ("lanes = many\n", "config lanes = 'many' is not a valid value"),
    ("lanes = 4\nwidgets = 1\ngadgets = 2\n", "unknown config keys: gadgets, widgets"),
])
def test_config_errors_exit_2_without_a_traceback(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    run = ["run", "--layer", str(FIXTURE), "--config", str(cfg)]
    assert run_cli(*run) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    # a flag that overrides the bad value does not hide it
    assert run_cli(*run, "--sync", "window", "--lanes", "4") == 2


# -- compare -----------------------------------------------------------------

def make_report(tmp_path, name, seed) -> Path:
    jout = tmp_path / name
    rc = run_cli("run", "--dims", "6x6x32", "--filters", "4x2x2", "--pa", "0.6",
                 "--seed", str(seed), "--tiles", "2", "--filters-per-tile", "2",
                 "--lanes", "8", "--json-out", str(jout))
    assert rc == 0
    return jout


def test_compare_merges_and_appends_geomean(tmp_path):
    r1 = make_report(tmp_path, "r1.json", 5)
    r2 = make_report(tmp_path, "r2.json", 6)
    merged = tmp_path / "merged.csv"
    assert run_cli("compare", str(r1), str(r2), "-o", str(merged)) == 0

    with open(merged) as fh:
        table = list(csv.reader(fh))
    assert table[0][0] == "source"
    body = [r for r in table[1:] if r[0] != "geomean"]
    geo = {r[1]: float(r[-2]) for r in table[1:] if r[0] == "geomean"}
    assert len(body) == 6  # 3 archs from each report
    for arch in ("cnv", "cnv2"):
        speeds = []
        for path in (r1, r2):
            doc = json.loads(path.read_text())
            speeds += [r["speedup"] for r in doc["rows"] if r["arch"] == arch]
        want = math.exp(sum(math.log(s) for s in speeds) / len(speeds))
        assert geo[arch] == pytest.approx(want)


def test_compare_without_out_prints_the_csv_and_the_geomean(tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"rows": [{"arch": "cnv", "speedup": 2.0}]}))
    assert run_cli("compare", str(report)) == 0
    lines = capsys.readouterr().out.splitlines()
    table = list(csv.reader(lines[:-1]))
    assert table[0][:2] == ["source", "arch"]
    assert [row[:2] for row in table[1:]] == [[str(report), "cnv"], ["geomean", "cnv"]]
    assert lines[-1] == "geomean speedup cnv: 2.000000"


def test_compare_keeps_fail_rows_out_of_the_geomean_and_exits_3(tmp_path, capsys):
    report = tmp_path / "r.json"
    rows = [{"arch": "cnv", "speedup": 2.0, "verdict": "PASS"},
            {"arch": "cnv", "speedup": 9.0, "verdict": "FAIL"},
            {"arch": "cnv2", "speedup": 4.0}]  # no verdict: counts as passing
    report.write_text(json.dumps({"schema_version": cli.SCHEMA_VERSION, "rows": rows}))
    assert run_cli("compare", str(report)) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    table = list(csv.reader(lines[:-2]))
    assert [row[1] for row in table[1:]] == ["cnv", "cnv", "cnv2", "cnv", "cnv2"]
    assert lines[-2:] == ["geomean speedup cnv: 2.000000", "geomean speedup cnv2: 4.000000"]
    assert f"{report} cnv" in err and "cnv2" not in err and "Traceback" not in err


def test_compare_rejects_bad_report(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert run_cli("compare", str(bad)) == 2
    assert run_cli("compare", str(tmp_path / "nope.json")) == 2


@pytest.mark.parametrize("rows", [
    [1], 5, [{"arch": ["x"], "speedup": 2}], [{"speedup": 2.0}],
    [{"arch": "cnv", "speedup": True}, {"arch": "cnv", "speedup": 4.0}],
    [{"arch": "cnv", "speedup": "2"}], [{"arch": "cnv", "utilization": "high"}],
])
def test_compare_rejects_malformed_rows(tmp_path, capsys, rows):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": rows}))
    assert run_cli("compare", str(bad)) == 2
    err = capsys.readouterr().err
    assert "cannot read report" in err and "Traceback" not in err
