"""Cycle and MAC accounting for the three architectures.

Timing counts front-end multiply steps only: one multiply per lane per
cycle, idealized memory (no fetch or pipeline stalls). The baseline machine
processes every position of every window. The cnv machine skips activations
the criterion classifies ineffectual. The cnv2 machine additionally skips
positions whose weights are ineffectual in every filter of the resident
group, so its per-brick work is the count of offsets that survive both
tests. The skippers' per-brick work is each input brick's effectual count
(for cnv2, after its group's weight products), gathered by the dispatcher's
slot rows (`dispatch._slot_rows`), so both walk a window's bricks in one
order. Every machine turns per-brick work into cycles and lane busy counts
through the dispatcher's lane schedule (`dispatch`), the same one
`run_dispatch` stamps its events with: the skippers once per pass whose
every group drops a position and once for all other passes, the baseline
once for a window of one position per slot.

Filters beyond one pass's residency (tiles * filters_per_tile) are handled
in sequential passes that repeat the activation traversal. A machine's
output is the exact integer convolution of its product set, the
activations and weights it keeps, returned untruncated.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dispatch import EmptyBrickCost, LaneCounts, SyncPolicy, _Schedule, _slot_rows
from .encodings import Format, footprint_bits
from .errors import ConfigurationError
from .sparsity import ZERO, GroupScope, IneffCriterion
from .tensor import (ActTensor, FilterSet, LayerConfig, _depth_bricks, _positive_fields,
                     _require_type, conv3d)


@dataclass(frozen=True)
class TileConfig:
    """Machine shape: tile count, filters per tile, lanes, brick size."""

    tiles: int = 16
    filters_per_tile: int = 16
    lanes: int = 16
    brick: int = 16
    sync: SyncPolicy = SyncPolicy.BRICKSET_LOCKSTEP
    empty_brick: EmptyBrickCost = EmptyBrickCost.ZERO_CYCLES
    group_scope: GroupScope = GroupScope.PASS_WIDE

    def __post_init__(self):
        _positive_fields(self, ("tiles", "filters_per_tile", "lanes", "brick"), "tile",
                         ConfigurationError)
        for name, kind in (("sync", SyncPolicy), ("empty_brick", EmptyBrickCost),
                           ("group_scope", GroupScope)):
            _require_type(getattr(self, name), kind, name)

    @property
    def resident(self) -> int:
        """Filters processed concurrently in one pass."""
        return self.tiles * self.filters_per_tile


@dataclass
class CycleReport:
    """Flat per-architecture counters; `to_record` uses stable field names."""

    arch: str
    cycles: int
    macs_performed: int
    macs_skipped: int
    broadcasts: int
    footprint_bits: int
    utilization: float
    per_lane_busy: Sequence[int] = ()

    CSV_COLUMNS = ("arch", "cycles", "macs_performed", "macs_skipped",
                   "broadcasts", "footprint_bits", "utilization")

    def to_record(self) -> dict:
        return {c: getattr(self, c) for c in self.CSV_COLUMNS}


def _report(arch: str, out: np.ndarray, layer: LayerConfig, tile: TileConfig,
            cycles: int, performed: int, broadcasts: int, busy: np.ndarray,
            crit: IneffCriterion, out_format: Format) -> CycleReport:
    total_macs = layer.ox * layer.oy * layer.window_positions * layer.f
    return CycleReport(
        arch=arch,
        cycles=cycles,
        macs_performed=performed,
        macs_skipped=total_macs - performed,
        broadcasts=broadcasts,
        # the output's depth is its filter axis, padded to a brick multiple for
        # the container; value fields count 16 bits though the sums are wider
        footprint_bits=footprint_bits(out_format, out, crit, tile.brick).total_bits,
        utilization=int(busy.sum()) / (tile.lanes * cycles) if cycles else 0.0,
        per_lane_busy=LaneCounts(busy, tile.lanes),
    )


def _operand(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The layer's own ``values``, unless keeping only ``kept`` zeroes a nonzero one."""
    masked = values * kept  # as np.where(kept, values, 0), in a tenth of the time or less
    return values if np.array_equal(masked, values) else masked


def _dead_tables(weights: np.ndarray, weight_crit: IneffCriterion, brick: int,
                 step: int) -> np.ndarray:
    """`weight_product_table` of each run of ``step`` filters from the first,
    as a (groups, fx, fy, depth_bricks, brick) array: one reshape of the
    weight ineffectuality for the whole runs, and the last, narrower one."""
    _require_type(weight_crit, IneffCriterion, "weight criterion")
    nb, ineff = _depth_bricks(weights.shape[-1], brick), weight_crit.ineffectual(weights)
    cut = len(weights) - len(weights) % step  # the filters of the whole runs
    dead = [ineff[:cut].reshape(-1, step, *ineff.shape[1:]).all(axis=1)]
    if cut < len(weights):
        dead.append(ineff[cut:].all(axis=0, keepdims=True))
    return np.concatenate(dead).reshape(-1, *weights.shape[1:3], nb, brick)


def _run_dense(acts: ActTensor, filters: FilterSet, layer: LayerConfig, tile: TileConfig):
    """The baseline's product set, the layer's own arrays, and its counters."""
    layer.check_tensors(acts, filters)
    layer.check_brick(tile.brick)
    k, n_windows = layer.window_positions, layer.ox * layer.oy
    repeat = n_windows * -(-layer.f // tile.resident)  # windows x passes
    window = _Schedule(np.ones(k, dtype=np.int64), tile.lanes, tile.sync, tile.empty_brick)
    return acts.values, filters.values, (window.cycles * repeat, n_windows * k * layer.f,
                                         repeat * k, window.busy * repeat, ZERO)


def weight_product_table(filters: FilterSet, weight_crit: IneffCriterion,
                         brick: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Per-offset AND of weight ineffectuality over filters [lo, hi).

    Returns a (fx, fy, depth_bricks, brick) boolean array; True marks an
    offset every covered filter agrees is dead. Suitable as the dispatcher's
    product table.
    """
    hi = filters.count if hi is None else hi
    if not 0 <= lo < hi <= filters.count:
        raise ConfigurationError(f"filter range [{lo}, {hi}) invalid for {filters.count} filters")
    return _dead_tables(filters.values[lo:hi], weight_crit, brick, hi - lo)[0]


def _run_skipping(arch: str, acts: ActTensor, filters: FilterSet, layer: LayerConfig,
                  tile: TileConfig, act_crit: IneffCriterion,
                  weight_crit: IneffCriterion | None):
    """The cnv/cnv2 pipeline: skip mask, then per-brick cost, then sync reduction.

    One cost rule serves both: cnv is cnv2 with no dead position, one group
    per pass. Every group costs each input brick's effectual count, gathered
    by the dispatcher's slot rows (`_slot_rows`) in its (windows, slots)
    order. A cnv2 group whose dead table (all of them from one
    `_dead_tables` call) marks a position drops it from the bricks' gathered
    bits instead. A pass whose every group drops one costs the group maximum
    of each slot; any other pass costs exactly the counts, and those passes
    share one schedule. Every cost is held in the brick's own width,
    `np.min_scalar_type(B)`, since none exceeds B. Returns the product set,
    the effectual activations and the weights each group keeps, and counters.
    """
    if arch == "cnv2" and weight_crit is None:
        raise ConfigurationError("cnv2 requires a weight criterion")
    _require_type(act_crit, IneffCriterion, "activation criterion")
    layer.check_tensors(acts, filters)
    b, nb = tile.brick, layer.check_brick(tile.brick)
    width = np.min_scalar_type(b)  # a brick's cost never exceeds b
    eff = act_crit.effectual(acts.values)
    bits, rows = eff.reshape(-1, b), _slot_rows(layer, nb)  # (windows, slots) brick rows
    counts = bits.sum(axis=-1, dtype=width)[rows]  # each brick's count, gathered

    per_tile = arch == "cnv2" and tile.group_scope is GroupScope.PER_TILE
    step = tile.filters_per_tile if per_tile else tile.resident
    starts, groups = np.arange(0, layer.f, step), tile.resident // step  # groups per pass
    sizes = np.diff(starts, append=layer.f)
    sent = np.full(len(starts), int(counts.sum()))  # the pairs each group broadcasts
    weights, drops = filters.values, np.zeros(len(starts), dtype=bool)
    if arch == "cnv2":
        live = ~_dead_tables(weights, weight_crit, b, step).reshape(len(starts), -1, b)
        drops = ~live.all(axis=(1, 2))
    dropping = np.logical_and.reduceat(drops, np.arange(0, len(starts), groups))  # per pass
    cycles = busy = 0
    if drops.any():
        windows = bits[rows]  # (windows, slots, b)
        sent = (windows.sum(axis=0) * live).sum(axis=(1, 2))
        for lo in np.flatnonzero(dropping) * groups:
            costs = [(windows & keep).sum(axis=-1, dtype=width) for keep in live[lo:lo + groups]]
            schedule = _Schedule(np.maximum.reduce(costs), tile.lanes, tile.sync,
                                 tile.empty_brick)
            cycles += schedule.cycles
            busy = busy + schedule.busy
        weights = _operand(weights, np.repeat(live, sizes, axis=0).reshape(weights.shape))
    shared = len(dropping) - int(dropping.sum())  # passes that cost the counts
    if shared:
        schedule = _Schedule(counts, tile.lanes, tile.sync, tile.empty_brick)
        cycles += shared * schedule.cycles
        busy = busy + shared * schedule.busy
    return _operand(acts.values, eff), weights, (cycles, int(sent @ sizes), int(sent.sum()),
                                                 busy, act_crit)


def _run_machines(archs, acts: ActTensor, filters: FilterSet, layer: LayerConfig,
                  tile: TileConfig, act_crit: IneffCriterion, weight_crit: IneffCriterion,
                  out_format: Format):
    """Yield (output, report) for each named machine in turn: one convolution
    per product set that is not the last machine's, whose output is the only
    one held, so all three machines share one under zero criteria."""
    last = out = None
    for arch in archs:
        if arch == "baseline":
            a, w, counters = _run_dense(acts, filters, layer, tile)
        elif arch in ("cnv", "cnv2"):
            a, w, counters = _run_skipping(arch, acts, filters, layer, tile, act_crit,
                                           weight_crit)
        else:
            raise ConfigurationError(f"unknown architecture {arch!r}")
        products = (a is acts.values, w is filters.values)
        if products != last:
            out = None  # freed before the next one is computed
            out, last = conv3d(a, w, layer.stride), products
        del a, w  # not held while the caller reads the output
        yield out, _report(arch, out, layer, tile, *counters, out_format)


def run_baseline(acts: ActTensor, filters: FilterSet, layer: LayerConfig,
                 tile: TileConfig, *, out_format: Format = Format.ZFNAF
                 ) -> tuple[np.ndarray, CycleReport]:
    """Dense machine: every position of every window is multiplied.

    The lanes share each window's positions round robin, not its bricks: the
    lane schedule of one window with one position per slot, ceil(positions /
    lanes) cycles, repeats for every window and pass.
    """
    return run_arch("baseline", acts, filters, layer, tile, out_format=out_format)


def run_cnv(acts: ActTensor, filters: FilterSet, layer: LayerConfig,
            tile: TileConfig, act_crit: IneffCriterion = ZERO, *,
            out_format: Format = Format.ZFNAF) -> tuple[np.ndarray, CycleReport]:
    """Activation-skipping machine.

    Each lane spends one cycle per effectual activation of its brick; the
    sync policy decides how lane imbalance turns into stalls. Ineffectual
    activations are zeroed before the functional convolution, which changes
    nothing under the zero criterion.
    """
    return run_arch("cnv", acts, filters, layer, tile, act_crit, out_format=out_format)


def run_cnv2(acts: ActTensor, filters: FilterSet, layer: LayerConfig,
             tile: TileConfig, act_crit: IneffCriterion = ZERO,
             weight_crit: IneffCriterion = ZERO, *,
             out_format: Format = Format.ZFNAF) -> tuple[np.ndarray, CycleReport]:
    """Activation- and weight-skipping machine: the cnv pipeline plus weight products.

    A position is skipped when the activation is ineffectual or when every
    filter in the group (pass-wide by default, per tile otherwise) has an
    ineffectual weight there. Skipped products are removed from the
    functional output as well, which is a no-op under zero criteria because
    the removed products are zero.
    """
    return run_arch("cnv2", acts, filters, layer, tile, act_crit, weight_crit,
                    out_format=out_format)


def run_arch(arch: str, acts: ActTensor, filters: FilterSet, layer: LayerConfig,
             tile: TileConfig, act_crit: IneffCriterion = ZERO,
             weight_crit: IneffCriterion = ZERO, *,
             out_format: Format = Format.ZFNAF) -> tuple[np.ndarray, CycleReport]:
    """Run one architecture by name: the one-machine case of `_run_machines`."""
    return next(_run_machines((arch,), acts, filters, layer, tile, act_crit, weight_crit,
                              out_format))
