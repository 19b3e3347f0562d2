"""Dispatcher model: brick buffers, leading-one pair streaming, lane timing.

The dispatcher walks the layer's windows, loads one brick per lane (round
robin over the window's bricks), and streams each lane's effectual values to
the compute tiles as (offset, value) pairs, lowest offset first, one pair
per cycle per lane. Under the lockstep policy all lanes advance to their
next brick together, so a lane idles once it runs out of pairs for the
current brick set; under the window-sync policy each lane drains its whole
share of the window before lanes realign at the window boundary.

In weight-aware mode a product table marks offsets whose weights are
ineffectual in every resident filter, and the dispatcher drops those pairs
too.

Events carry a cycle stamp, the lane, and either a pair or an idle marker.
Trace lines are ``cycle,lane,offset,value`` or ``cycle,lane,IDLE``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FormatError
from .sparsity import ZERO, IneffCriterion, effectual_mask
from .tensor import ActTensor, LayerConfig, window_slices


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


@dataclass(frozen=True)
class BankLayout:
    """Static mapping from brick coordinates to activation memory banks.

    Bricks at the same depth ordinal live in the same bank, so when the
    depth brick count is a multiple of the lane count each lane only ever
    fetches from one bank.
    """

    nm_banks: int = 16

    def __post_init__(self):
        if self.nm_banks < 1:
            raise ConfigurationError(f"bank count must be at least 1, got {self.nm_banks}")

    def bank_of(self, x: int, y: int, ib: int) -> int:
        return ib % self.nm_banks


@dataclass
class BrickBufferState:
    """One lane's slot in the brick buffer: current brick plus pending offsets."""

    lane: int
    coord: tuple[int, int, int] | None = None
    pending: list[tuple[int, int]] = field(default_factory=list)


def stream_brick(brick, crit: IneffCriterion = ZERO) -> list[tuple[int, int]]:
    """Emit (offset, value) pairs for the effectual values, ascending offset.

    Models the leading-one scan over the comparator outputs: find the lowest
    set bit, emit, clear, repeat.
    """
    values = np.asarray(getattr(brick, "values", brick))
    remaining = effectual_mask(values, crit)
    out: list[tuple[int, int]] = []
    while remaining.any():
        j = int(np.argmax(remaining))
        out.append((j, int(values[j])))
        remaining[j] = False
    return out


class RawDispatchSource:
    """Detection-at-fetch source: a dense tensor plus a criterion.

    Presents the same `brick_pairs` interface as the encoded stores, with
    the comparator bank applied at fetch time instead of at encode time.
    """

    def __init__(self, acts: ActTensor, crit: IneffCriterion = ZERO, brick: int = 16):
        acts.brick_count(brick)
        self.acts = acts
        self.crit = crit
        self.brick = brick

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.acts.dims

    def brick_pairs(self, x: int, y: int, ib: int) -> list[tuple[int, int]]:
        base = ib * self.brick
        return stream_brick(self.acts.values[x, y, base : base + self.brick], self.crit)


@dataclass
class DispatchRun:
    """Full event trace of one traversal plus its summary counters."""

    events: list[DispatchEvent]
    cycles: int
    broadcasts: int
    lanes: int
    per_lane_busy: tuple[int, ...]
    fetch_pointers: dict[int, int]

    def lane_stream(self, lane: int) -> list[tuple[int, int]]:
        """The (offset, value) pairs one lane sent, in cycle order."""
        return [(e.offset, e.value) for e in self.events
                if e.lane == lane and not e.is_idle]


def _source_geometry(source) -> tuple[tuple[int, int, int], int]:
    dims = getattr(source, "dims", None)
    brick = getattr(source, "brick", None)
    if dims is None or brick is None:
        raise ConfigurationError(
            f"{type(source).__name__} does not expose dims and brick; "
            "expected an encoded store or RawDispatchSource"
        )
    return tuple(dims), int(brick)


def run_dispatch(source, layer: LayerConfig, *, lanes: int = 16,
                 policy: SyncPolicy = SyncPolicy.BRICKSET_LOCKSTEP,
                 empty_brick_cost: EmptyBrickCost = EmptyBrickCost.ZERO_CYCLES,
                 prod_table=None, banks: BankLayout | None = None) -> DispatchRun:
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
        total cycles, and the broadcast count (non-idle events).
    """
    dims, brick = _source_geometry(source)
    if dims != (layer.x, layer.y, layer.i):
        raise FormatError(f"source dims {dims} do not match layer "
                          f"({layer.x}, {layer.y}, {layer.i})")
    layer.check_brick(brick)
    nb = layer.i // brick
    if prod_table is not None:
        prod_table = np.asarray(prod_table, dtype=bool)
        if prod_table.shape != (layer.fx, layer.fy, nb, brick):
            raise ConfigurationError(
                f"product table shape {prod_table.shape} != "
                f"({layer.fx}, {layer.fy}, {nb}, {brick})"
            )
    banks = banks or BankLayout(nm_banks=lanes)

    buffers = [BrickBufferState(lane) for lane in range(lanes)]
    fetch_pointers: dict[int, int] = {}
    events: list[DispatchEvent] = []
    busy = [0] * lanes
    cycle = 0
    one_cycle_drain = empty_brick_cost is EmptyBrickCost.ONE_CYCLE

    def load(lane: int, coord: tuple[int, int, int], wx: int, wy: int) -> list[tuple[int, int]]:
        x, y, ib = coord
        pairs = source.brick_pairs(x, y, ib)
        if prod_table is not None:
            fx = x - wx * layer.stride
            fy = y - wy * layer.stride
            dead = prod_table[fx, fy, ib]
            pairs = [(o, v) for o, v in pairs if not dead[o]]
        bank = banks.bank_of(x, y, ib)
        fetch_pointers[bank] = fetch_pointers.get(bank, 0) + 1
        buffers[lane].coord = coord
        buffers[lane].pending = list(pairs)
        return pairs

    for wa in window_slices(layer, lanes, brick):
        if policy is SyncPolicy.BRICKSET_LOCKSTEP:
            n_sets = max(len(l) for l in wa.lanes)
            for s in range(n_sets):
                sends: list[list[tuple[int, int]]] = []
                costs = []
                for lane in range(lanes):
                    if s < len(wa.lanes[lane]):
                        pairs = load(lane, wa.lanes[lane][s], wa.wx, wa.wy)
                        sends.append(pairs)
                        costs.append(max(len(pairs), 1) if one_cycle_drain else len(pairs))
                    else:
                        sends.append([])
                        costs.append(0)
                set_len = max(costs)
                for t in range(set_len):
                    for lane in range(lanes):
                        if t < len(sends[lane]):
                            off, val = sends[lane][t]
                            buffers[lane].pending.pop(0)
                            events.append(DispatchEvent(cycle + t, lane, off, val))
                            busy[lane] += 1
                        else:
                            events.append(DispatchEvent(cycle + t, lane))
                cycle += set_len
        else:
            seqs: list[list[tuple[int, int] | None]] = []
            for lane in range(lanes):
                seq: list[tuple[int, int] | None] = []
                for coord in wa.lanes[lane]:
                    pairs = load(lane, coord, wa.wx, wa.wy)
                    seq.extend(pairs)
                    if not pairs and one_cycle_drain:
                        seq.append(None)  # drain cycle for an empty brick
                seqs.append(seq)
            window_len = max(len(s) for s in seqs) if seqs else 0
            for t in range(window_len):
                for lane in range(lanes):
                    if t < len(seqs[lane]) and seqs[lane][t] is not None:
                        off, val = seqs[lane][t]
                        events.append(DispatchEvent(cycle + t, lane, off, val))
                        busy[lane] += 1
                    else:
                        events.append(DispatchEvent(cycle + t, lane))
            cycle += window_len

    broadcasts = sum(busy)
    return DispatchRun(events, cycle, broadcasts, lanes, tuple(busy), fetch_pointers)


def format_trace(events) -> str:
    """Line-oriented text form of an event stream."""
    return "\n".join(e.trace_line() for e in events) + ("\n" if events else "")


def write_trace(events, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_trace(events))
