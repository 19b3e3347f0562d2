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
in sequential passes that repeat the activation traversal. Functional
outputs are exact integer convolutions over the surviving products and are
returned untruncated.
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
                     _require_type, conv3d, dense_conv)


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


def _pass_ranges(f: int, resident: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + resident, f)) for lo in range(0, f, resident)]


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


def run_baseline(acts: ActTensor, filters: FilterSet, layer: LayerConfig,
                 tile: TileConfig, *, out_format: Format = Format.ZFNAF
                 ) -> tuple[np.ndarray, CycleReport]:
    """Dense machine: every position of every window is multiplied.

    The lanes share each window's positions round robin, not its bricks: the
    lane schedule of one window with one position per slot, ceil(positions /
    lanes) cycles, repeats for every window and pass.
    """
    layer.check_tensors(acts, filters)
    layer.check_brick(tile.brick)
    out = dense_conv(acts, filters, layer)

    k = layer.window_positions
    n_windows = layer.ox * layer.oy
    repeat = n_windows * len(_pass_ranges(layer.f, tile.resident))  # windows x passes
    window = _Schedule(np.ones(k, dtype=np.int64), tile.lanes, tile.sync, tile.empty_brick)
    return out, _report("baseline", out, layer, tile, window.cycles * repeat,
                        n_windows * k * layer.f, repeat * k, window.busy * repeat, ZERO,
                        out_format)


def weight_product_table(filters: FilterSet, weight_crit: IneffCriterion,
                         brick: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Per-offset AND of weight ineffectuality over filters [lo, hi).

    Returns a (fx, fy, depth_bricks, brick) boolean array; True marks an
    offset every covered filter agrees is dead. Suitable as the dispatcher's
    product table.
    """
    _require_type(weight_crit, IneffCriterion, "weight criterion")
    hi = filters.count if hi is None else hi
    if not 0 <= lo < hi <= filters.count:
        raise ConfigurationError(f"filter range [{lo}, {hi}) invalid for {filters.count} filters")
    nb = _depth_bricks(filters.i, brick)
    ineff = weight_crit.ineffectual(filters.values[lo:hi])
    return ineff.reshape(hi - lo, filters.fx, filters.fy, nb, brick).all(axis=0)


def _run_skipping(arch: str, acts: ActTensor, filters: FilterSet, layer: LayerConfig,
                  tile: TileConfig, act_crit: IneffCriterion,
                  weight_crit: IneffCriterion | None, out_format: Format,
                  plain: np.ndarray | None = None) -> tuple[np.ndarray, CycleReport, bool]:
    """The cnv/cnv2 pipeline: skip mask, then per-brick cost, then sync reduction.

    One cost rule serves both: cnv is cnv2 with no dead position, one group
    per pass. Every group costs each input brick's effectual count, gathered
    by the dispatcher's slot rows (`_slot_rows`) in its (windows, slots)
    order. Only a cnv2 group whose `weight_product_table` marks a position
    dead counts bits instead: it drops those positions from the bricks'
    gathered effectual bits, gathered once per call when a group first
    needs them. A pass costs the group maximum of each slot, and the lane
    schedule turns that into cycles. No group costs more than the counts, so
    a pass with a group that drops nothing costs exactly the counts: those
    passes share one schedule, built once per call. Every cost is held in the
    brick's own width, `np.min_scalar_type(B)`, since none exceeds B.

    The output is one convolution of the effectual activations with each
    filter's weights zeroed where its group skips; when that zeroes no
    nonzero weight, it is ``plain`` if given. Also returns whether it is.
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

    weights, windows = filters.values, None  # copied and gathered when a group drops
    per_tile = arch == "cnv2" and tile.group_scope is GroupScope.PER_TILE
    step = tile.filters_per_tile if per_tile else tile.resident
    cycles = performed = broadcasts = busy = shared = 0  # shared: passes that cost counts
    for lo, hi in _pass_ranges(layer.f, tile.resident):
        pass_costs = None  # running maximum of the group costs; counts once one drops none
        for glo in range(lo, hi, step):
            ghi, costs = min(glo + step, hi), counts
            if arch == "cnv2":
                dead = weight_product_table(filters, weight_crit, b, glo, ghi)
                if dead.any():
                    if windows is None:
                        weights, windows = weights.copy(), bits[rows]  # (windows, slots, b)
                    weights[glo:ghi, dead.reshape(layer.fx, layer.fy, layer.i)] = 0
                    costs = (windows & ~dead.reshape(-1, b)).sum(axis=-1, dtype=width)
                del dead  # not held through the schedule
            sent = int(costs.sum())
            broadcasts += sent
            performed += sent * (ghi - glo)
            if pass_costs is None or costs is counts:
                pass_costs = costs
            elif pass_costs is not counts:
                pass_costs = np.maximum(pass_costs, costs)
        if pass_costs is counts:
            shared += 1
            continue
        schedule = _Schedule(pass_costs, tile.lanes, tile.sync, tile.empty_brick)
        cycles += schedule.cycles
        busy = busy + schedule.busy
    if shared:
        schedule = _Schedule(counts, tile.lanes, tile.sync, tile.empty_brick)
        cycles += shared * schedule.cycles
        busy = busy + shared * schedule.busy
    del rows, windows, schedule  # not held through conv3d

    unmasked = np.array_equal(weights, filters.values)  # every zeroed weight was zero
    if plain is not None and unmasked:
        out = plain
    else:
        out = conv3d(np.where(eff, acts.values, 0), weights, layer.stride)
    return out, _report(arch, out, layer, tile, cycles, performed, broadcasts, busy,
                        act_crit, out_format), unmasked


def _run_machines(archs, acts: ActTensor, filters: FilterSet, layer: LayerConfig,
                  tile: TileConfig, act_crit: IneffCriterion, weight_crit: IneffCriterion,
                  out_format: Format):
    """Yield (output, report) for each named machine in turn.

    A skipping machine whose groups zero no nonzero weight, as cnv and cnv2
    under a zero weight criterion, takes the last such machine's output of
    this call instead of convolving again. The baseline convolves on its own.
    """
    plain = None
    for arch in archs:
        if arch == "baseline":
            yield run_baseline(acts, filters, layer, tile, out_format=out_format)
        elif arch in ("cnv", "cnv2"):
            out, report, unmasked = _run_skipping(arch, acts, filters, layer, tile, act_crit,
                                                  weight_crit, out_format, plain)
            if unmasked:
                plain = out
            yield out, report
        else:
            raise ConfigurationError(f"unknown architecture {arch!r}")


def run_cnv(acts: ActTensor, filters: FilterSet, layer: LayerConfig,
            tile: TileConfig, act_crit: IneffCriterion = ZERO, *,
            out_format: Format = Format.ZFNAF) -> tuple[np.ndarray, CycleReport]:
    """Activation-skipping machine.

    Each lane spends one cycle per effectual activation of its brick; the
    sync policy decides how lane imbalance turns into stalls. Ineffectual
    activations are zeroed before the functional convolution, which changes
    nothing under the zero criterion.
    """
    return _run_skipping("cnv", acts, filters, layer, tile, act_crit, None, out_format)[:2]


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
    return _run_skipping("cnv2", acts, filters, layer, tile, act_crit, weight_crit,
                         out_format)[:2]


def run_arch(arch: str, acts: ActTensor, filters: FilterSet, layer: LayerConfig,
             tile: TileConfig, act_crit: IneffCriterion = ZERO,
             weight_crit: IneffCriterion = ZERO, *,
             out_format: Format = Format.ZFNAF) -> tuple[np.ndarray, CycleReport]:
    """Run one architecture by name: the one-machine case of `_run_machines`."""
    return next(_run_machines((arch,), acts, filters, layer, tile, act_crit, weight_crit,
                              out_format))
