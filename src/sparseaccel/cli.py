"""Command line front end.

Subcommands:
    gen      materialize a synthetic layer file from a seeded recipe
    run      simulate one layer on the selected architectures and write
             JSON/CSV reports
    compare  merge run reports into one CSV and append geometric-mean
             speedup rows over the rows whose verdict passed

Exit codes: 0 success, 2 invalid input (bad parameters, malformed files,
impossible geometry), 3 functional equivalence failure during a run, or a
FAIL row in a report `compare` merges.

A config file is a flat ``key = value`` text file mirroring the long flag
names (dashes or underscores). Each value is converted by its flag's type
and checked against its choices, then becomes that flag's default, so
explicit flags win over config values; an unknown key (``help`` and
``config`` included) or a bad value exits 2 even when a flag overrides it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .encodings import Format
from .errors import SparseAccelError, ValidationError
from .dispatch import EmptyBrickCost, SyncPolicy
from .sim import CycleReport, TileConfig, _run_machines
from .sparsity import GroupScope, IneffCriterion
from .tensor import LayerConfig
from .workloads import (LayerData, SyntheticSpec, _logical_views, gen_synthetic, load_layer,
                        save_layer)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3

ARCH_CHOICES = ("baseline", "cnv", "cnv2")
REPORT_COLUMNS = CycleReport.CSV_COLUMNS + ("speedup", "verdict")
SCHEMA_VERSION = 1


def _parse_dims(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.lower().split("x")
    if len(parts) != n:
        raise ValidationError(f"{what} must be {n} integers joined by 'x', got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"{what} must be integers, got {text!r}") from None
    return dims


def _read_text(path: str) -> str:
    """The file at ``path``, decoded as strict UTF-8."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = _read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    for ln, line in enumerate(io.StringIO(text, newline=None), 1):  # as open() splits lines
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln}: expected key = value")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of ``parser``'s flags, each
    converted by its flag's type and checked against its choices, so that a
    parse lets every explicit flag win."""
    config = _load_config(path)
    # help and config steer the parse itself; neither is a setting
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = set(config) - set(actions)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for dest, raw in config.items():
        action = actions[dest]
        try:
            config[dest] = raw if action.type is None else action.type(raw)
        except (TypeError, ValueError):
            raise ValidationError(f"config {dest} = {raw!r} is not a valid value") from None
        if action.choices and config[dest] not in action.choices:
            raise ValidationError(f"config {dest} = {raw!r} not one of {sorted(action.choices)}")
    parser.set_defaults(**config)


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dims", type=str, help="input extent as XxYxI, e.g. 8x8x32")
    p.add_argument("--filters", type=str, help="filter bank as FxFXxFY, e.g. 4x3x3")
    p.add_argument("--stride", type=int, default=SyntheticSpec.stride)
    p.add_argument("--brick", type=int, default=SyntheticSpec.brick, help="brick size B")
    p.add_argument("--pa", type=float, default=SyntheticSpec.p_act_zero,
                   help="activation zero probability")
    p.add_argument("--pw", type=float, default=SyntheticSpec.p_wt_zero,
                   help="weight zero probability")
    p.add_argument("--vmin", type=int, default=SyntheticSpec.vmin)
    p.add_argument("--vmax", type=int, default=SyntheticSpec.vmax)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)


def _synthetic(args) -> LayerData:
    if not args.dims or not args.filters:
        raise ValidationError("a synthetic layer needs both --dims and --filters")
    x, y, i = _parse_dims(args.dims, 3, "--dims")
    f, fx, fy = _parse_dims(args.filters, 3, "--filters")
    spec = SyntheticSpec(x=x, y=y, i=i, f=f, fx=fx, fy=fy, stride=args.stride,
                         p_act_zero=args.pa, p_wt_zero=args.pw,
                         vmin=args.vmin, vmax=args.vmax,
                         seed=args.seed, brick=args.brick)
    return LayerData(*gen_synthetic(spec), spec.stride, spec.brick)


def cmd_gen(args) -> int:
    if not args.out:
        raise ValidationError("gen needs an output path: -o/--out, or out in the config")
    data = _synthetic(args)
    data.layer_config()  # fail early on untileable geometry
    save_layer(args.out, data)
    a, w = _logical_views(data)
    print(f"wrote {args.out}")
    print(f"activations: {a.size} values, {int((a == 0).sum())} zero "
          f"({100.0 * (a == 0).mean():.1f}%)")
    print(f"weights: {w.size} values, {int((w == 0).sum())} zero "
          f"({100.0 * (w == 0).mean():.1f}%)")
    return EXIT_OK


# An int16 x int16 product is at most 2**30 in magnitude, so a float64 sum
# of at most MAX_EXACT_BRICK of them is exact: 2**23 * 2**30 == 2**53. It
# also caps the float32 sums, so tests can lower it to force splits.
MAX_EXACT_BRICK = 1 << 23


def _reference_gemm(peak: int, depth: int) -> tuple[type, int]:
    """The reference's GEMM dtype and the most products one of its sums may
    hold, for integer products at most ``peak`` in magnitude over ``depth``.

    A float sum of integers is exact while every partial sum stays within
    2**24 in float32 and 2**53 in float64, so float32 is taken when the
    whole depth of one filter offset fits; either limit is capped by
    MAX_EXACT_BRICK.
    """
    peak = max(peak, 1)
    if peak * depth <= 1 << 24:
        return np.float32, min(MAX_EXACT_BRICK, (1 << 24) // peak)
    return np.float64, min(MAX_EXACT_BRICK, (1 << 53) // peak)


def _reference_products(arch: str, data: LayerData, layer: LayerConfig, tile: TileConfig,
                        act_crit: IneffCriterion, weight_crit: IneffCriterion):
    """The activations the reference multiplies for ``arch``, and the cnv2
    filter groups, each with its (fx, fy, i) mask of kept depth positions.

    The activations are the layer's own array unless the criterion zeroes a
    nonzero value, and the groups are None unless one drops a position where
    one of its weights is nonzero, so machines that get the same here
    multiply the same nonzero products.
    """
    a = data.acts.values
    if arch != "baseline":
        masked = np.where(act_crit.effectual(a), a, 0)
        if not np.array_equal(masked, a):
            a = masked
    if arch != "cnv2":
        return a, None
    # A pass holds tiles * filters_per_tile filters, so no tile's filters
    # straddle two passes and every group is a run of `step` filters from 0.
    if tile.group_scope is GroupScope.PER_TILE:
        step = tile.filters_per_tile
    else:
        step = tile.resident
    w = data.filters.values
    groups = [(glo, min(glo + step, layer.f)) for glo in range(0, layer.f, step)]
    live = [~weight_crit.ineffectual(w[glo:ghi]).all(axis=0) for glo, ghi in groups]
    # a position whose weights in the group are all zero adds nothing either way
    if not any((w[glo:ghi].any(axis=0) & ~keep).any() for (glo, ghi), keep in zip(groups, live)):
        return a, None
    return a, list(zip(groups, live))


def reference_output(arch: str, data: LayerData, layer: LayerConfig,
                     tile: TileConfig, act_crit: IneffCriterion,
                     weight_crit: IneffCriterion) -> np.ndarray:
    """Per-offset GEMM recomputation used as the equivalence check.

    For every filter offset (fx, fy) and filter group, the strided slab of
    that offset across all output windows is masked with the machine's own
    skip rule (effectual activations for cnv and cnv2; for cnv2 also the
    depth positions where every weight of the group is ineffectual) and
    multiplied by the group's weights in float GEMMs over depth chunks.
    The dtype and the chunk follow `_reference_gemm`, from the largest
    activation and weight magnitudes: float32 when every sum over one
    offset's depth stays within 2**24, as with 8-bit values, else float64.
    Every GEMM adds into one float (windows x filters) accumulator, which is
    moved into the int64 output before it would hold more products than its
    dtype sums exactly, and once more at the end, so every float sum is
    exact. Nothing here comes from the simulator, so a run's output is
    compared against an independent path.
    """
    b = tile.brick
    if b > MAX_EXACT_BRICK:
        raise ValidationError(
            f"brick {b} exceeds {MAX_EXACT_BRICK}, the most int16 products one float64 "
            "sum holds exactly; the reference check takes no larger brick")
    a, groups = _reference_products(arch, data, layer, tile, act_crit, weight_crit)
    if groups is None:  # every filter keeps every position: one group, unmasked
        groups = [((0, layer.f), None)]
    w = data.filters.values
    # min and max, not abs: abs(-32768) is still -32768 in int16
    peak = max(-int(a.min()), int(a.max())) * max(-int(w.min()), int(w.max()))
    dtype, limit = _reference_gemm(peak, layer.i)
    a = a.astype(dtype)
    s = layer.stride
    out = np.zeros((layer.ox * layer.oy, layer.f), dtype=np.int64)
    acc = np.zeros(out.shape, dtype=dtype)
    terms = 0  # products in each entry of acc since it was last flushed
    for fx in range(layer.fx):
        for fy in range(layer.fy):
            slab = a[fx:fx + s * (layer.ox - 1) + 1:s,
                     fy:fy + s * (layer.oy - 1) + 1:s].reshape(layer.ox * layer.oy, layer.i)
            wts = w[:, fx, fy].astype(dtype)
            for d0 in range(0, layer.i, limit):
                sl = slice(d0, d0 + limit)
                depth = min(layer.i - d0, limit)
                if terms + depth > limit:
                    out += acc.astype(np.int64)
                    acc[:] = 0.0
                    terms = 0
                for (glo, ghi), keep in groups:
                    vals = slab[:, sl] if keep is None else slab[:, sl] * keep[fx, fy, sl]
                    acc[:, glo:ghi] += vals @ wts[glo:ghi, sl].T
                terms += depth
    out += acc.astype(np.int64)
    return out.reshape(layer.ox, layer.oy, layer.f)


def _verdicts(archs: list[str], data: LayerData, layer: LayerConfig, tile: TileConfig,
              act_crit: IneffCriterion, weight_crit: IneffCriterion,
              out_format: Format) -> dict[str, tuple[CycleReport, bool]]:
    """Each machine's report and whether its output equals the reference.

    Each side convolves each distinct product set once, by its own rule: the
    simulator in `_run_machines`, the reference here by `_reference_products`.
    """
    results, last, expected = {}, None, None
    machines = _run_machines(archs, data.acts, data.filters, layer, tile, act_crit,
                             weight_crit, out_format)
    for arch, (out, report) in zip(archs, machines):
        a, groups = _reference_products(arch, data, layer, tile, act_crit, weight_crit)
        products = (a is data.acts.values, groups is None)
        if products != last:
            expected = None  # freed before the next one is computed
            expected = reference_output(arch, data, layer, tile, act_crit, weight_crit)
            last = products
        results[arch] = report, bool(np.array_equal(out, expected))
    return results


def cmd_run(args) -> int:
    for path in (args.json_out, args.csv_out):  # fail before any work is done
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValidationError(f"cannot write {path}: its directory does not exist")
    archs = [a.strip() for a in args.arch.split(",") if a.strip()]
    if not archs or any(a not in ARCH_CHOICES for a in archs):
        raise ValidationError(f"--arch must name architectures from {ARCH_CHOICES}")
    repeated = sorted({a for a in archs if archs.count(a) > 1})
    if repeated:
        raise ValidationError(f"--arch names {', '.join(repeated)} more than once")
    if args.layer:
        data = load_layer(args.layer)
        source = args.layer
    else:
        data = _synthetic(args)
        source = f"synthetic(seed={args.seed})"
    layer = data.layer_config()

    tile = TileConfig(tiles=args.tiles, filters_per_tile=args.filters_per_tile,
                      lanes=args.lanes, brick=data.brick,
                      sync=SyncPolicy(args.sync),
                      empty_brick=EmptyBrickCost(args.empty_brick),
                      group_scope=GroupScope(args.group_scope))
    act_crit = IneffCriterion.parse(args.act_crit)
    weight_crit = IneffCriterion.parse(args.wt_crit)
    out_format = Format(args.encoding)

    results = _verdicts(archs, data, layer, tile, act_crit, weight_crit, out_format)

    base_cycles = results["baseline"][0].cycles if "baseline" in results else None
    rows = []
    for arch in archs:
        report, ok = results[arch]
        row = report.to_record()
        if base_cycles is None:
            row["speedup"] = None
        elif report.cycles == 0:
            row["speedup"] = math.inf
        else:
            row["speedup"] = base_cycles / report.cycles
        row["verdict"] = "PASS" if ok else "FAIL"
        rows.append(row)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "source": source,
        "layer": {"x": layer.x, "y": layer.y, "i": layer.i,
                  "logical_i": data.acts.logical_i, "f": layer.f,
                  "fx": layer.fx, "fy": layer.fy, "stride": layer.stride,
                  "brick": data.brick},
        "tile": {k: getattr(v, "value", v) for k, v in dataclasses.asdict(tile).items()},
        "criteria": {"activation": act_crit.spec(), "weight": weight_crit.spec()},
        "encoding": out_format.value,
        "rows": rows,
    }
    if args.json_out:
        _atomic_write(args.json_out, _report_json(doc))
    if args.csv_out:
        _atomic_write(args.csv_out, _report_csv(rows))

    _print_table(rows)
    if any(r["verdict"] != "PASS" for r in rows):
        print("functional equivalence FAILED", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _report_json(doc: dict) -> str:
    """The report as JSON text; an infinite speedup is written as null."""
    rows = [dict(r) for r in doc["rows"]]
    for row in rows:
        if isinstance(row.get("speedup"), float) and math.isinf(row["speedup"]):
            row["speedup"] = None
    return json.dumps(dict(doc, rows=rows), indent=1) + "\n"


def _format_cell(key: str, value) -> str:
    if value is None:
        return ""
    if key == "utilization":
        return f"{value:.6f}"
    if key == "speedup":
        return "inf" if isinstance(value, float) and math.isinf(value) else f"{value:.6f}"
    return str(value)


def _report_csv(rows: list[dict], columns=REPORT_COLUMNS) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(c, row.get(c)) for c in columns])
    return buf.getvalue()


def _print_table(rows: list[dict]) -> None:
    columns = REPORT_COLUMNS
    cells = [[_format_cell(c, r.get(c)) or "-" for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[j]) for row in cells)) if cells else len(c)
              for j, c in enumerate(columns)]
    print("  ".join(c.ljust(widths[j]) for j, c in enumerate(columns)))
    for row in cells:
        print("  ".join(row[j].ljust(widths[j]) for j in range(len(columns))))


def _finite(v) -> bool:
    """A non-bool number whose float value is finite: not NaN, ±Infinity or
    an int beyond the float range."""
    try:
        return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:
        return False


_NUMERIC_COLUMNS = tuple(c for c in REPORT_COLUMNS if c not in ("arch", "verdict"))


def _mergeable(row) -> bool:
    """A report row `compare` can merge: an object with a string arch, each
    numeric column absent, null or a finite number, and a speedup above 0,
    as the report schema declares and `run` writes."""
    if not isinstance(row, dict) or not isinstance(row.get("arch"), str):
        return False
    if not all(row.get(c) is None or _finite(row[c]) for c in _NUMERIC_COLUMNS):
        return False
    return row.get("speedup") is None or row["speedup"] > 0


def cmd_compare(args) -> int:
    """Merge reports: a stated `schema_version` must be this one (rows-only
    documents state none), and a row with a verdict other than PASS is merged,
    left out of the geomean, and makes the exit status 3, as in `run`."""
    merged: list[dict] = []
    failed: list[str] = []
    speedups: dict[str, list[float]] = {}
    for path in args.reports:
        try:
            doc = json.loads(_read_text(path))
            rows = doc["rows"]
        # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep to parse
        except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
            raise ValidationError(f"cannot read report {path}: {exc}") from None
        version = doc.get("schema_version", SCHEMA_VERSION)
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValidationError(f"cannot read report {path}: schema_version {version!r}, "
                                  f"expected {SCHEMA_VERSION}")
        if not isinstance(rows, list) or not all(map(_mergeable, rows)):
            raise ValidationError(f"cannot read report {path}: rows must be objects with a "
                                  "string arch and finite numeric or null speedup and utilization, "
                                  "like every other numeric column, and a speedup above 0")
        for row in rows:
            entry = {"source": path}
            entry.update(row)
            merged.append(entry)
            if row.get("verdict", "PASS") != "PASS":
                failed.append(f"{path} {row['arch']}")
                continue
            sp = row.get("speedup")
            if row.get("arch") != "baseline" and sp is not None:
                speedups.setdefault(row["arch"], []).append(float(sp))

    geo_rows = []
    for arch in sorted(speedups):
        vals = speedups[arch]
        geo = math.exp(sum(math.log(v) for v in vals) / len(vals))
        geo_rows.append({"source": "geomean", "arch": arch, "speedup": geo})

    text = _report_csv(merged + geo_rows, columns=("source",) + REPORT_COLUMNS)
    if args.out:
        _atomic_write(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    for row in geo_rows:
        print(f"geomean speedup {row['arch']}: {row['speedup']:.6f}")
    if failed:
        print(f"functional equivalence FAILED, left out of the geomean: {', '.join(failed)}",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-accel-sim",
        description="Simulate sparse-skipping DNN accelerator layers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic layer file")
    _add_synth_flags(p_gen)
    p_gen.add_argument("-o", "--out", help="output .layer or .json path")
    p_gen.add_argument("--config", help="flat key=value defaults file")
    p_gen.set_defaults(func=cmd_gen, parser=p_gen)

    p_run = sub.add_parser("run", help="simulate one layer")
    p_run.add_argument("--layer", help="layer file to load (.layer or .json)")
    _add_synth_flags(p_run)
    p_run.add_argument("--arch", default="baseline,cnv,cnv2",
                       help="comma list from baseline,cnv,cnv2")
    p_run.add_argument("--tiles", type=int, default=TileConfig.tiles)
    p_run.add_argument("--filters-per-tile", type=int, default=TileConfig.filters_per_tile)
    p_run.add_argument("--lanes", type=int, default=TileConfig.lanes)
    p_run.add_argument("--sync", choices=[p.value for p in SyncPolicy],
                       default=TileConfig.sync.value)
    p_run.add_argument("--empty-brick", choices=[c.value for c in EmptyBrickCost],
                       default=TileConfig.empty_brick.value)
    p_run.add_argument("--group-scope", choices=[g.value for g in GroupScope],
                       default=TileConfig.group_scope.value)
    p_run.add_argument("--act-crit", default="zero", help="zero | abs:T | pow2:K")
    p_run.add_argument("--wt-crit", default="zero", help="zero | abs:T | pow2:K")
    p_run.add_argument("--encoding", choices=[f.value for f in Format],
                       default=Format.ZFNAF.value,
                       help="output footprint encoding")
    p_run.add_argument("--json-out", help="write the JSON report here")
    p_run.add_argument("--csv-out", help="write the CSV report here")
    p_run.add_argument("--config", help="flat key=value defaults file")
    p_run.set_defaults(func=cmd_run, parser=p_run)

    p_cmp = sub.add_parser("compare", help="merge run reports")
    p_cmp.add_argument("reports", nargs="+", help="JSON reports from `run`")
    p_cmp.add_argument("-o", "--out", help="merged CSV path (default: stdout)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _config_defaults(args.parser, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except SparseAccelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
