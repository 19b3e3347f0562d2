"""Dispatcher model: brick buffers, leading-one pair streaming, lane timing.

The dispatcher walks the layer's windows and streams each brick's effectual
values to the compute tiles as (offset, value) pairs, lowest offset first,
one pair per cycle per lane. In weight-aware mode a product table marks
offsets whose weights are ineffectual in every resident filter, and the
dispatcher drops those pairs too.

The slot order and the lane schedule live here once, and the cycle model in
`sim` uses both. `_slot_rows` is the one statement of the slot order: the
pair-table row of the brick in every (window, slot), a window's slots being
its bricks in (fx, fy, depth brick) order; the dispatcher lists its pairs
by those rows, and the cycle model gathers its per-brick costs by them. The
schedule is one private value. Slot s runs on lane s % lanes in brick
set s // lanes; an empty brick costs one drain cycle under
`EmptyBrickCost.ONE_CYCLE`. Under lockstep every lane of a set waits for
its slowest, so the set paces its lanes as one column of its maximum; under
window sync each lane keeps its own cost. A window costs its busiest paced
lane's total either way. Lanes past a window's slot count never get a
brick, so they get no column.

The walk is computed for the whole layer at once, over the stored pairs
only. Every source hands over one front-packed pair table (`pair_table`:
per-brick offsets, values and pair counts, in (x, y, brick) order). The
dispatcher lists the stored pairs of every brick slot of every window as
one flat list, CSR style, in `_slot_rows` order: a slot whose brick is
table row r holds the entries r * B + 0, 1, ... up to that row's pair
count. It drops the pairs whose offset the product table marks dead and
stamps each pair with its cycle: the window's start, plus the paced cycles
of the earlier sets on its lane, plus the pair's rank, its place in its
brick. No (window, slot, offset) position is gathered, so time and memory
follow the stored pairs.

`brick_pairs` gives one brick's pairs alone: its set mask bits in offset
order with their values, whether the mask comes from a container or from the
comparators at fetch, and a coordinate outside the layer raises
`BoundsError` from every source.

Activation memory has one bank per lane, and bricks at the same depth
ordinal share a bank, so brick ib is fetched from bank ib % lanes; a run's
fetch pointers count the brick loads per bank.

Events carry a cycle stamp, the lane, and either a pair or an idle marker.
A run has lanes x cycles of them, cycle-major and in lane order within a
cycle. One padded sequence serves both the events and the busy counts: it
stores columns over (rows x width), width = min(lanes, slots), and every
lane past the width reads a fill, idle or 0. `DispatchEvent` objects are
built only on access. Trace lines are ``cycle,lane,offset,value`` or
``cycle,lane,IDLE``; a trace of a run is read straight off its columns, a
few cycles at a time.
"""

from __future__ import annotations

import enum
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encodings import _ActSource, _front_pack, _mask_pairs
from .errors import ConfigurationError, FormatError
from .sparsity import ZERO, IneffCriterion, _brick_values, effectual_mask
from .tensor import ActTensor, LayerConfig, _exclusive_cumsum, _positive_int, _require_type


class SyncPolicy(enum.Enum):
    WINDOW_SYNC = "window"
    BRICKSET_LOCKSTEP = "lockstep"


class EmptyBrickCost(enum.Enum):
    """Cycle cost of a brick with nothing to send: free, or one drain cycle."""

    ZERO_CYCLES = "zero"
    ONE_CYCLE = "one"


@dataclass(frozen=True)
class DispatchEvent:
    cycle: int
    lane: int
    offset: int | None = None
    value: int | None = None

    @property
    def is_idle(self) -> bool:
        return self.offset is None

    def trace_line(self) -> str:
        if self.is_idle:
            return f"{self.cycle},{self.lane},IDLE"
        return f"{self.cycle},{self.lane},{self.offset},{self.value}"


class _PaddedRows(Sequence):
    """A read-only sequence over (rows x lanes): one flat column per field over
    (rows x width), every lane at or past the width reading the field's fill.
    A subclass gives ``fills`` and `_items(row, lane, *fields)`, which makes
    on access the items of a row's lanes from ``lane`` on out of each field's
    values over those lanes. Iteration and forward slices read a row's stored
    lanes with one ``tolist()`` per column. Two of one class compare column
    by column, not item by item."""

    __slots__ = ("columns", "rows", "lanes", "width")
    fills: tuple[int, ...]

    def __init__(self, columns: tuple[np.ndarray, ...], rows: int, lanes: int, width: int):
        for column in columns:
            column.flags.writeable = False
        self.columns, self.rows, self.lanes, self.width = columns, rows, lanes, width

    def __len__(self) -> int:
        return self.rows * self.lanes

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step > 0:
                return list(itertools.islice(self, start, stop, step))
            return [self[i] for i in range(start, stop, step)]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"index {index} outside a sequence of {len(self)}")
        row, lane = divmod(i, self.lanes)
        fields = (self.fills if lane >= self.width
                  else [c.item(row * self.width + lane) for c in self.columns])
        return next(self._items(row, lane, *[(field,) for field in fields]))

    def __iter__(self):
        return itertools.chain.from_iterable(map(self._row, range(self.rows)))

    def _row(self, row: int):
        cut, tail = slice(row * self.width, (row + 1) * self.width), self.lanes - self.width
        return self._items(row, 0, *[itertools.chain(c[cut].tolist(), itertools.repeat(fill, tail))
                                     for c, fill in zip(self.columns, self.fills)])

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        start, stop, _ = slice(start, stop).indices(len(self))
        for i, item in enumerate(itertools.islice(self, start, stop), start):
            if item is value or item == value:
                return i
        raise ValueError(f"{value!r} is not in the sequence")

    def _padded(self, width: int) -> list[np.ndarray]:
        """Each column over (rows x ``width``), the lanes past this width filled."""
        pad = [(0, 0), (0, width - self.width)]
        return [np.pad(column.reshape(self.rows, self.width), pad, constant_values=fill)
                for column, fill in zip(self.columns, self.fills)]

    def __eq__(self, other):
        if type(other) is type(self):
            # at equal lengths, other lanes mean other rows: the shapes differ
            width = max(self.width, other.width)
            return len(self) == len(other) and all(
                map(np.array_equal, self._padded(width), other._padded(width)))
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented


def _event(cycle: int, lane: int, offset: int, value: int) -> DispatchEvent:
    return DispatchEvent(cycle, lane) if offset < 0 else DispatchEvent(cycle, lane, offset, value)


class EventColumns(_PaddedRows):
    """A run's events as read-only offset and value columns.

    Event i is cycle i // lanes on lane i % lanes. The columns hold only the
    first ``width`` lanes of each cycle, row-major over (cycles x width);
    every lane at or past the width is idle. An offset of -1 marks an idle
    lane-cycle, whose value is 0. Indexing builds `DispatchEvent` objects on
    demand.
    """

    __slots__ = ("offsets", "values")
    fills = (-1, 0)

    def __init__(self, offsets: np.ndarray, values: np.ndarray, lanes: int, width: int):
        super().__init__((offsets, values), len(offsets) // width, lanes, width)
        self.offsets, self.values = offsets, values

    def _items(self, cycle: int, lane: int, offsets, values):
        return map(_event, itertools.repeat(cycle), itertools.count(lane), offsets, values)

    def __repr__(self) -> str:
        return f"EventColumns(lanes={self.lanes}, cycles={self.rows})"


class LaneCounts(_PaddedRows):
    """One count per lane, read-only: one row of the stored ``counts`` of the
    first lanes, then 0 for every lane past them."""

    __slots__ = ("counts",)
    fills = (0,)

    def __init__(self, counts: np.ndarray, lanes: int):
        super().__init__((counts,), 1, lanes, len(counts))
        self.counts = counts

    def _items(self, row: int, lane: int, counts):
        return iter(counts)

    def __repr__(self) -> str:
        return f"LaneCounts(lanes={self.lanes}, counts={tuple(self.counts.tolist())})"


def stream_brick(brick, crit: IneffCriterion = ZERO) -> list[tuple[int, int]]:
    """Emit (offset, value) pairs for the effectual values, ascending offset.

    Models the leading-one scan over the comparator outputs, which sends the
    set bits lowest first: the same pairs an encoded store hands over.
    """
    values = _brick_values(brick)
    return _mask_pairs(effectual_mask(values, crit), values)


class RawDispatchSource(_ActSource):
    """Detection-at-fetch source: a dense tensor plus a criterion.

    Presents the same `brick_pairs` and `pair_table` interface as the
    encoded stores, with the comparator bank applied at fetch time instead
    of at encode time. ``acts`` is an `ActTensor` or a plain (X, Y, I)
    integer array, whose depth the brick must divide.
    """

    def __init__(self, acts, crit: IneffCriterion = ZERO, brick: int = 16):
        _require_type(crit, IneffCriterion, "criterion")
        acts = acts if isinstance(acts, ActTensor) else ActTensor(acts)
        super().__init__(acts.dims, acts.logical_i, brick, crit)
        acts.brick_count(self.brick)
        self.acts = acts

    def brick_pairs(self, x: int, y: int, ib: int) -> list[tuple[int, int]]:
        return stream_brick(self.acts.values.reshape(-1, self.brick)[self._index(x, y, ib)],
                            self.crit)

    def pair_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Front-packed pairs of every brick, the comparators run over the whole tensor."""
        vals = self.acts.values.reshape(-1, self.brick)
        return _front_pack(vals, self.crit.effectual(vals))


@dataclass
class DispatchRun:
    """Full event trace of one traversal plus its summary counters.

    ``events`` holds ``lanes * cycles`` events, cycle-major and in lane
    order within a cycle.
    """

    events: EventColumns
    cycles: int
    broadcasts: int
    lanes: int
    per_lane_busy: LaneCounts
    fetch_pointers: dict[int, int]

    def lane_stream(self, lane: int) -> list[tuple[int, int]]:
        """The (offset, value) pairs one lane sent, in cycle order; none for
        a lane outside 0..lanes-1."""
        width = self.events.width
        if not 0 <= lane < width:
            return []
        offsets = self.events.offsets[lane::width]
        sent = offsets >= 0
        values = self.events.values[lane::width]
        return list(zip(offsets[sent].tolist(), values[sent].tolist()))


# -- the lane schedule, shared with the cycle model --------------------------

class _Schedule:
    """The lane schedule of (..., slots) pairs per brick ``sent``. ``grid``
    holds the (..., sets, width) cycles per brick set and lane, width =
    min(lanes, slots): the drained costs, padded with free slots and reshaped,
    so slot s is in set s // width on lane s % width, which is s % lanes for
    every slot. ``paced`` is the cycles a set holds each lane: ``grid`` under
    window sync, one column of set maxima under lockstep. Off it are read each
    window's cycles, their total and each slot's start; ``busy`` holds the
    pairs each of the ``width`` lanes sends."""

    def __init__(self, sent: np.ndarray, lanes: int, policy: SyncPolicy,
                 empty_brick: EmptyBrickCost):
        self.slots = slots = sent.shape[-1]
        self.width = width = min(lanes, slots)

        def by_set(a, floor=0):  # every slot at least ``floor``, every padded slot 0
            out = np.zeros(a.shape[:-1] + (-(-slots // width) * width,), np.int64)
            np.maximum(a, floor, out=out[..., :slots])
            return out.reshape(a.shape[:-1] + (-1, width))

        self.grid = by_set(sent, 1 if empty_brick is EmptyBrickCost.ONE_CYCLE else 0)
        lockstep = policy is SyncPolicy.BRICKSET_LOCKSTEP
        self.paced = self.grid.max(axis=-1, keepdims=True) if lockstep else self.grid
        self.window_cycles = self.paced.sum(axis=-2).max(axis=-1)
        self.cycles = int(self.window_cycles.sum())
        self.busy = by_set(sent.reshape(-1, slots).sum(axis=0, dtype=np.int64)).sum(axis=0)

    def slot_starts(self) -> np.ndarray:
        """Each slot's first cycle within its window."""
        starts = np.broadcast_to(_exclusive_cumsum(self.paced, -2), self.grid.shape)
        return starts.reshape(self.grid.shape[:-2] + (-1,))[..., :self.slots]


def _runs(first: np.ndarray, counts: np.ndarray, step: int = 1) -> np.ndarray:
    """The runs first[k], first[k] + step, ... of counts[k] terms each, concatenated."""
    out = np.repeat(first - step * _exclusive_cumsum(counts, 0), counts)
    out += np.arange(0, step * len(out), step)
    return out


def _slot_rows(layer: LayerConfig, nb: int) -> np.ndarray:
    """The slot order, stated once: the (windows, slots) pair-table rows of each
    window's bricks in (fx, fy, depth brick) order, windows in (x, y) order."""
    fx, fy, ib = np.unravel_index(np.arange(layer.fx * layer.fy * nb), (layer.fx, layer.fy, nb))
    wx, wy = np.unravel_index(np.arange(layer.ox * layer.oy), (layer.ox, layer.oy))
    origin = (wx * layer.y + wy) * layer.stride * nb  # row of brick (wx * stride, wy * stride, 0)
    return origin[:, None] + ((fx * layer.y + fy) * nb + ib)


def _stored_pairs(table, layer: LayerConfig, nb: int, brick: int):
    """Offsets and values of the stored pairs of every (window, slot), one flat
    list in `_slot_rows` order, and the (windows, slots) pair counts. A slot
    whose brick is pair-table row r holds the table entries r * brick + 0, 1, ..."""
    offsets, values, counts = table
    rows = _slot_rows(layer, nb)
    stored = counts[rows]
    pair = _runs(rows.reshape(-1) * brick, stored.reshape(-1))
    return offsets.reshape(-1)[pair], values.reshape(-1)[pair], stored


def _live_pairs(dead: np.ndarray, pair_offsets, pair_values, stored: np.ndarray):
    """The pairs whose offset the (slots, brick) product table ``dead`` does not
    mark, and the (windows, slots) counts of those kept."""
    owner = np.repeat(np.arange(stored.size), stored.reshape(-1))  # flat (window, slot)
    keep = ~dead[owner % stored.shape[1], pair_offsets]
    sent = np.bincount(owner[keep], minlength=stored.size).reshape(stored.shape)
    return pair_offsets[keep], pair_values[keep], sent


def run_dispatch(source, layer: LayerConfig, *, lanes: int = 16,
                 policy: SyncPolicy = SyncPolicy.BRICKSET_LOCKSTEP,
                 empty_brick_cost: EmptyBrickCost = EmptyBrickCost.ZERO_CYCLES,
                 prod_table=None) -> DispatchRun:
    """Walk every window of the layer and produce the timed event stream.

    Args:
        source: encoded store or RawDispatchSource covering the layer input.
        layer: geometry to traverse; dims must match the source.
        lanes: number of neuron lanes fed in parallel.
        policy: when lanes wait for each other.
        empty_brick_cost: whether a brick with no pairs still burns a cycle.
        prod_table: optional (fx, fy, depth_bricks, brick) boolean array of
            weight-product ineffectuality; offsets marked True are dropped.

    Returns:
        DispatchRun with events (cycle-major, lane order within a cycle),
        total cycles, the broadcast count (non-idle events) and the brick
        fetches per activation memory bank.
    """
    if not isinstance(source, _ActSource):
        raise ConfigurationError(f"{type(source).__name__} does not expose dims, brick and "
                                 "pair_table; expected an encoded store or RawDispatchSource")
    if source.dims != (layer.x, layer.y, layer.i):
        raise FormatError(f"source dims {source.dims} do not match layer "
                          f"({layer.x}, {layer.y}, {layer.i})")
    brick = source.brick
    nb = layer.check_brick(brick)
    _require_type(policy, SyncPolicy, "policy")
    _require_type(empty_brick_cost, EmptyBrickCost, "empty_brick_cost")
    _positive_int(lanes, "lane count", ConfigurationError)
    if prod_table is not None:
        prod_table = np.asarray(prod_table, dtype=bool)
        if prod_table.shape != (layer.fx, layer.fy, nb, brick):
            raise ConfigurationError(
                f"product table shape {prod_table.shape} != "
                f"({layer.fx}, {layer.fy}, {nb}, {brick})"
            )
    n_slots = layer.fx * layer.fy * nb
    pair_offsets, pair_values, sent = _stored_pairs(source.pair_table(), layer, nb, brick)
    if prod_table is not None:
        pair_offsets, pair_values, sent = _live_pairs(
            prod_table.reshape(n_slots, brick), pair_offsets, pair_values, sent)

    schedule = _Schedule(sent, lanes, policy, empty_brick_cost)
    start = _exclusive_cumsum(schedule.window_cycles, 0)[:, None] + schedule.slot_starts()
    cycles, width = schedule.cycles, schedule.width

    # a pair's event is (its slot's start + its rank) * width + its lane, its
    # rank being its place in its slot; lanes past the width never get a slot
    at = _runs((start * width + np.arange(n_slots) % width).reshape(-1), sent.reshape(-1), width)
    event_offsets = np.full(cycles * width, -1, dtype=np.int32)
    event_values = np.zeros(cycles * width, dtype=np.int16)
    event_offsets[at] = pair_offsets
    event_values[at] = pair_values

    # one bank per lane: brick ib is fetched from bank ib % lanes, once per window
    fetches = np.bincount(np.arange(n_slots) % nb % lanes) * len(sent)
    return DispatchRun(EventColumns(event_offsets, event_values, lanes, width), cycles,
                       int(schedule.busy.sum()), lanes, LaneCounts(schedule.busy, lanes),
                       {int(b): int(n) for b, n in enumerate(fetches) if n})


_TRACE_CHUNK_EVENTS = 1 << 16  # about the most events one piece of trace text holds


def _trace_chunks(events):
    """The trace text of ``events`` in pieces: whole cycles read straight off
    `EventColumns`, the lanes past their width idle, or runs of
    `_TRACE_CHUNK_EVENTS` events of any other sequence."""
    if not isinstance(events, EventColumns):
        it = iter(events)
        while lines := [e.trace_line() for e in itertools.islice(it, _TRACE_CHUNK_EVENTS)]:
            yield "\n".join(lines) + "\n"
        return
    width = events.width
    offsets = events.offsets.reshape(-1, width)
    values = events.values.reshape(-1, width)
    idle = [f",{lane},IDLE" for lane in range(width, events.lanes)]
    step = max(1, _TRACE_CHUNK_EVENTS // events.lanes)
    for c0 in range(0, len(offsets), step):
        lines = []
        rows = zip(offsets[c0:c0 + step].tolist(), values[c0:c0 + step].tolist())
        for cycle, (offs, vals) in enumerate(rows, c0):
            lines += [f"{cycle},{lane},{o},{v}" if o >= 0 else f"{cycle},{lane},IDLE"
                      for lane, (o, v) in enumerate(zip(offs, vals))]
            lines += [f"{cycle}{tail}" for tail in idle]
        yield "\n".join(lines) + "\n"


def format_trace(events) -> str:
    """Line-oriented text form of any sequence of `DispatchEvent`, the same
    lines `DispatchEvent.trace_line` gives."""
    return "".join(_trace_chunks(events))


def write_trace(events, path) -> None:
    """Write `format_trace`'s text one piece at a time, so a large trace is
    never held whole."""
    with open(path, "w") as fh:
        fh.writelines(_trace_chunks(events))
