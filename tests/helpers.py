"""Hand-rolled oracles the tests trust instead of the library's own math.

Everything here is deliberately written the slow, obvious way: pure
Python loops, python ints, no shared helpers from the package under
test. If the fast paths and these ever disagree, the fast paths lose.
"""

import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np

from sparseaccel import (ActTensor, BoundsError, DispatchEvent, EmptyBrickCost, FilterSet,
                         FormatError, GroupScope, IneffCriterion, LayerConfig, RoeStore,
                         SyncPolicy)


# Every value v: peak v * v. For 127, 2**24 // 16129 = 1040 products fit one
# exact float32 sum, and a float32 sum of 1041 gives 16790288, not 16790289.
# 3x3 at depth 512 flushes after every second offset, and at depth 347 the
# flush falls exactly before a third offset would make 1041 products. -128
# reaches 2**24 exactly at depth 1024; 32767 * 32767 is not a float32.
# Each case is (v, taps, depth, brick that divides the depth, GEMM dtype).
FLOAT32_LIMIT_CASES = [
    (127, 1, 1040, 16, np.float32), (127, 1, 1041, 3, np.float64),
    (127, 3, 512, 16, np.float32), (127, 3, 347, 1, np.float32),
    (-128, 1, 1024, 16, np.float32), (-128, 1, 1025, 5, np.float64),
    (32767, 3, 64, 16, np.float64)]


def naive_conv(acts: np.ndarray, weights: np.ndarray, stride: int = 1) -> np.ndarray:
    """Sliding-window convolution, six explicit loops, exact integers."""
    x, y, i = acts.shape
    f, fx, fy, _ = weights.shape
    ox = (x - fx) // stride + 1
    oy = (y - fy) // stride + 1
    out = [[[0] * f for _ in range(oy)] for _ in range(ox)]
    for wx in range(ox):
        for wy in range(oy):
            for n in range(f):
                acc = 0
                for a in range(fx):
                    for b in range(fy):
                        for d in range(i):
                            acc += int(acts[wx * stride + a, wy * stride + b, d]) \
                                * int(weights[n, a, b, d])
                out[wx][wy][n] = acc
    return np.asarray(out, dtype=np.int64)


def einsum_conv(acts, weights, stride: int = 1) -> np.ndarray:
    """Strided cross-correlation as one int64 einsum over sliding windows."""
    a = np.asarray(acts, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    fx, fy, depth = w.shape[1:]
    wins = np.lib.stride_tricks.sliding_window_view(a, (fx, fy, depth))[::stride, ::stride, 0]
    return np.einsum("xyabc,fabc->xyf", wins, w)


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def window_reference_output(arch: str, data, layer, tile, act_crit, weight_crit) -> np.ndarray:
    """Window-by-window, brick-by-brick output of one machine, in int64.

    The slow twin of `cli.reference_output`: for every window and every
    brick it applies the machine's skip rule to that brick alone, then adds
    one brick-wide integer dot product per filter group. A cnv2 offset is
    dropped when its activation is ineffectual or every weight of the group
    is; groups are the pass's resident filters, or each tile's under
    PER_TILE scope.
    """
    a = data.acts.values.astype(np.int64)
    w = data.filters.values.astype(np.int64)
    b = tile.brick
    groups = [(0, layer.f)]
    if arch == "cnv2":
        groups = []
        for lo in range(0, layer.f, tile.resident):
            hi = min(lo + tile.resident, layer.f)
            step = tile.filters_per_tile if tile.group_scope is GroupScope.PER_TILE else hi - lo
            groups.extend((g, min(g + step, hi)) for g in range(lo, hi, step))
    out = np.zeros((layer.ox, layer.oy, layer.f), dtype=np.int64)
    for wx in range(layer.ox):
        for wy in range(layer.oy):
            for fx in range(layer.fx):
                for fy in range(layer.fy):
                    for ib in range(layer.i // b):
                        sl = slice(ib * b, (ib + 1) * b)
                        vals = a[wx * layer.stride + fx, wy * layer.stride + fy, sl]
                        if arch != "baseline":
                            vals = np.where(act_crit.effectual(vals), vals, 0)
                        for glo, ghi in groups:
                            wts = w[glo:ghi, fx, fy, sl]
                            kept = vals
                            if arch == "cnv2":
                                dead = [all(weight_crit.ineffectual(wts[:, o]))
                                        for o in range(b)]
                                kept = np.where(dead, 0, vals)
                            out[wx, wy, glo:ghi] += wts @ kept
    return out


def window_bricks(layer, wx: int, wy: int, brick: int = 16) -> list[tuple[int, int, int]]:
    """Absolute brick coordinates (x, y, brick_index) of one output window.

    Order is x-major, then y, with the depth ordinal fastest, so consecutive
    entries at the same (x, y) step through the depth bricks first.
    """
    if not (0 <= wx < layer.ox and 0 <= wy < layer.oy):
        raise BoundsError(f"window ({wx}, {wy}) outside ({layer.ox}, {layer.oy})")
    return [(wx * layer.stride + a, wy * layer.stride + b, ib)
            for a in range(layer.fx) for b in range(layer.fy)
            for ib in range(layer.i // brick)]


def window_slices(layer, lanes: int = 16, brick: int = 16):
    """Yield the per-lane brick lists of every window, in window order.

    A window's bricks run filter-x major, then filter-y, with the depth
    ordinal fastest. Brick k goes to lane k mod ``lanes`` and each lane
    keeps that order, so when a window has fewer bricks than lanes the tail
    lanes receive none.
    """
    for wx in range(layer.ox):
        for wy in range(layer.oy):
            per_lane = [[] for _ in range(lanes)]
            bricks = [(wx * layer.stride + a, wy * layer.stride + b, ib)
                      for a in range(layer.fx) for b in range(layer.fy)
                      for ib in range(layer.i // brick)]
            for k, coord in enumerate(bricks):
                per_lane[k % lanes].append(coord)
            yield SimpleNamespace(wx=wx, wy=wy, lanes=tuple(tuple(lane) for lane in per_lane))


def loop_dispatch(source, layer, *, lanes=16, policy=SyncPolicy.BRICKSET_LOCKSTEP,
                  empty_brick_cost=EmptyBrickCost.ZERO_CYCLES, prod_table=None):
    """The dispatcher walked event by event, the slow twin of `run_dispatch`.

    Window by window, it loads each lane's bricks through
    `source.brick_pairs`, drops the pairs the product table marks dead and
    emits one event per lane per cycle: lockstep brick sets cost their
    slowest lane, window sync lets each lane drain its whole share, and an
    empty brick costs one drain cycle under `EmptyBrickCost.ONE_CYCLE`.
    Returns the run's events as a list, its cycles, broadcasts, per-lane
    busy counts and per-bank fetch counts, with one bank per lane and brick
    ib in bank ib % lanes.
    """
    brick = source.brick
    fetch_pointers = {}
    events = []
    busy = [0] * lanes
    cycle = 0
    one_cycle_drain = empty_brick_cost is EmptyBrickCost.ONE_CYCLE

    def load(coord, wx, wy):
        x, y, ib = coord
        pairs = source.brick_pairs(x, y, ib)
        if prod_table is not None:
            dead = prod_table[x - wx * layer.stride, y - wy * layer.stride, ib]
            pairs = [(o, v) for o, v in pairs if not dead[o]]
        bank = ib % lanes
        fetch_pointers[bank] = fetch_pointers.get(bank, 0) + 1
        return pairs

    for wa in window_slices(layer, lanes, brick):
        if policy is SyncPolicy.BRICKSET_LOCKSTEP:
            for s in range(max(len(l) for l in wa.lanes)):
                sends, costs = [], []
                for lane in range(lanes):
                    if s < len(wa.lanes[lane]):
                        pairs = load(wa.lanes[lane][s], wa.wx, wa.wy)
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
                            events.append(DispatchEvent(cycle + t, lane, off, val))
                            busy[lane] += 1
                        else:
                            events.append(DispatchEvent(cycle + t, lane))
                cycle += set_len
        else:
            seqs = []
            for lane in range(lanes):
                seq = []
                for coord in wa.lanes[lane]:
                    pairs = load(coord, wa.wx, wa.wy)
                    seq.extend(pairs)
                    if not pairs and one_cycle_drain:
                        seq.append(None)  # drain cycle for an empty brick
                seqs.append(seq)
            window_len = max(len(s) for s in seqs)
            for t in range(window_len):
                for lane in range(lanes):
                    if t < len(seqs[lane]) and seqs[lane][t] is not None:
                        off, val = seqs[lane][t]
                        events.append(DispatchEvent(cycle + t, lane, off, val))
                        busy[lane] += 1
                    else:
                        events.append(DispatchEvent(cycle + t, lane))
            cycle += window_len
    return SimpleNamespace(events=events, cycles=cycle, broadcasts=sum(busy),
                           per_lane_busy=tuple(busy), fetch_pointers=fetch_pointers)


def window_brick_costs(acts: np.ndarray, stride: int, fx: int, fy: int,
                       brick: int, dead=None, crit=None) -> list[list[int]]:
    """Effectual-position count of every brick of every window.

    Windows in (wx, wy) order; bricks within a window in filter-x, then
    filter-y, then depth order. `dead` maps a depth position to True when
    all resident weights there are skippable; those positions never count.
    `crit` (an `IneffCriterion`, zero when None) decides which activations
    are effectual, through `_slow_effectual`.
    """
    kind, param = (crit.kind, crit.param) if crit is not None else ("zero", 0)
    x, y, i = acts.shape
    nb = i // brick
    costs = []
    for wx in range((x - fx) // stride + 1):
        for wy in range((y - fy) // stride + 1):
            window = []
            for a in range(fx):
                for b in range(fy):
                    for ib in range(nb):
                        n = 0
                        for o in range(brick):
                            d = ib * brick + o
                            v = int(acts[wx * stride + a, wy * stride + b, d])
                            if not _slow_effectual(v, kind, param):
                                continue
                            if dead is not None and dead[a][b][d]:
                                continue
                            n += 1
                        window.append(n)
            costs.append(window)
    return costs


def lockstep_cycles(costs: list[list[int]], lanes: int, one_cycle: bool = False) -> int:
    """Brick sets advance together; each set costs its slowest lane."""
    total = 0
    for window in costs:
        eff = [max(c, 1) for c in window] if one_cycle else list(window)
        for s in range(0, len(eff), lanes):
            total += max(eff[s:s + lanes])
    return total


def window_sync_cycles(costs: list[list[int]], lanes: int, one_cycle: bool = False) -> int:
    """Lanes run ahead within a window; the window costs its busiest lane."""
    total = 0
    for window in costs:
        eff = [max(c, 1) for c in window] if one_cycle else list(window)
        per_lane = [0] * lanes
        for k, c in enumerate(eff):
            per_lane[k % lanes] += c
        total += max(per_lane)
    return total


def cycle_report_oracle(arch: str, acts, filters, layer, tile, act_crit, weight_crit,
                        fmt: str) -> SimpleNamespace:
    """Every `CycleReport` field and the output of one machine, restated from `sim`.

    Filters run in passes of `tile.resident`. The baseline's lanes take each
    window's positions round robin (position p on lane p mod lanes), so a
    window costs ceil(positions / lanes) cycles per pass. The skipping
    machines cost each brick its surviving offsets: cnv drops ineffectual
    activations, cnv2 also the offsets where every weight of a filter group
    is ineffectual. A group is the pass's filters, or each tile's under
    PER_TILE scope. Each group is sent its own surviving offsets and performs
    them once per filter; the lanes wait for the slowest group, so a brick's
    pass cost is its maximum over the groups, reduced by the sync policy,
    and brick k of a window is busy on lane k mod lanes. The footprint is
    the output's container size in `fmt` (the `encodings` docstring), under
    the criterion the machine skips by, zero for the baseline.
    """
    lanes, brick = tile.lanes, tile.brick
    passes = [(lo, min(lo + tile.resident, layer.f)) for lo in range(0, layer.f, tile.resident)]
    n_windows = layer.ox * layer.oy
    positions = layer.window_positions
    busy = [0] * lanes
    if arch == "baseline":
        cycles = len(passes) * n_windows * -(-positions // lanes)
        for p in range(positions):
            busy[p % lanes] += len(passes) * n_windows
        performed = n_windows * positions * layer.f
        broadcasts = len(passes) * n_windows * positions
        kind, param = "zero", 0
    else:
        reduce = (lockstep_cycles if tile.sync is SyncPolicy.BRICKSET_LOCKSTEP
                  else window_sync_cycles)
        cycles = performed = broadcasts = 0
        for lo, hi in passes:
            step = hi - lo
            if arch == "cnv2" and tile.group_scope is GroupScope.PER_TILE:
                step = tile.filters_per_tile
            group_costs = []
            for glo in range(lo, hi, step):
                ghi = min(glo + step, hi)
                dead = None
                if arch == "cnv2":
                    dead = [[[not any(_slow_effectual(int(filters.values[n, fa, fb, d]),
                                                      weight_crit.kind, weight_crit.param)
                                      for n in range(glo, ghi))
                              for d in range(layer.i)]
                             for fb in range(layer.fy)]
                            for fa in range(layer.fx)]
                costs = window_brick_costs(acts.values, layer.stride, layer.fx, layer.fy,
                                           brick, dead, act_crit)
                sent = sum(sum(window) for window in costs)
                broadcasts += sent
                performed += sent * (ghi - glo)
                group_costs.append(costs)
            pass_costs = [[max(group[w][k] for group in group_costs)
                           for k in range(len(group_costs[0][w]))]
                          for w in range(n_windows)]
            cycles += reduce(pass_costs, lanes, tile.empty_brick is EmptyBrickCost.ONE_CYCLE)
            for window in pass_costs:
                for k, c in enumerate(window):
                    busy[k % lanes] += c
        kind, param = act_crit.kind, act_crit.param

    data = SimpleNamespace(acts=acts, filters=filters)
    out = window_reference_output(arch, data, layer, tile, act_crit, weight_crit)
    n_bricks = layer.ox * layer.oy * -(-layer.f // brick)  # depth padded to a brick multiple
    kept = sum(_slow_effectual(int(v), kind, param) for v in out.reshape(-1))
    ob = (brick - 1).bit_length()
    footprint = {"raw": n_bricks * brick * 16,
                 "zfnaf": n_bricks * brick * (16 + ob),
                 "roe": n_bricks * (1 + brick * 16),
                 "viai": n_bricks * brick * (1 + 16),
                 "cviai": n_bricks * brick + kept * 16 + n_bricks * kept.bit_length()}[fmt]
    return SimpleNamespace(
        out=out, arch=arch, cycles=cycles, macs_performed=performed,
        macs_skipped=n_windows * positions * layer.f - performed, broadcasts=broadcasts,
        footprint_bits=footprint, utilization=sum(busy) / (lanes * cycles) if cycles else 0.0,
        per_lane_busy=tuple(busy))


def sprinkle_zeros(rng: np.random.Generator, arr: np.ndarray, p: float) -> np.ndarray:
    arr = arr.copy()
    arr[rng.random(arr.shape) < p] = 0
    return arr


def random_layer(rng: np.random.Generator, *, max_xy: int = 16, max_i: int = 64,
                 max_f: int = 32, brick: int = 16, lanes: int | None = None,
                 p_act: float | None = None, p_wt: float = 0.0):
    """A random well-formed layer; `lanes` forces window bricks % lanes == 0."""
    while True:
        nb = int(rng.integers(1, max_i // brick + 1))
        fx = int(rng.integers(1, 5))
        fy = int(rng.integers(1, 5))
        if lanes is None or (fx * fy * nb) % lanes == 0:
            break
    i = nb * brick
    stride = int(rng.integers(1, 3))
    ox = int(rng.integers(1, (max_xy - fx) // stride + 2))
    oy = int(rng.integers(1, (max_xy - fy) // stride + 2))
    x = fx + stride * (ox - 1)
    y = fy + stride * (oy - 1)
    f = int(rng.integers(1, max_f + 1))

    p = float(rng.uniform(0.2, 0.8)) if p_act is None else p_act
    acts = rng.integers(-99, 100, size=(x, y, i)).astype(np.int16)
    acts = sprinkle_zeros(rng, acts, p)
    wts = rng.integers(-9, 10, size=(f, fx, fy, i)).astype(np.int16)
    if p_wt:
        wts = sprinkle_zeros(rng, wts, p_wt)

    layer = LayerConfig(x=x, y=y, i=i, fx=fx, fy=fy, f=f, stride=stride)
    return ActTensor(acts), FilterSet(wts), layer


def _slow_effectual(value: int, kind: str, param: int) -> bool:
    """The three criteria, restated: zero, abs:T (|v| > T), pow2:K (|v| >= 2**K)."""
    if kind == "abs":
        return abs(value) > param
    if kind == "pow2":
        return abs(value) >= 1 << param
    return value != 0


def _effectual_array(values: np.ndarray, kind: str, param: int) -> np.ndarray:
    """`_slow_effectual` over an array."""
    mag = np.abs(values.astype(np.int64))
    return {"zero": mag != 0, "abs": mag > param, "pow2": mag >= 1 << param}[kind]


def argsort_front_pack(vals: np.ndarray, keep: np.ndarray):
    """Each row's kept (offset, value) pairs moved to its front by a stable
    argsort of ``~keep``, zero filled: (rows, B) offsets (intp) and values
    (int16), and (rows,) counts (int64)."""
    order = np.argsort(~keep, axis=1, kind="stable")
    counts = keep.sum(axis=1)
    live = np.arange(vals.shape[1]) < counts[:, None]
    offsets = np.where(live, order, 0)
    values = np.where(live, np.take_along_axis(vals, order, axis=1), 0).astype(np.int16)
    return offsets, values, counts


def plane_loop_bits(values, width: int) -> np.ndarray:
    """MSB-first uint8 planes of unsigned ``width``-bit fields: each field's
    big-endian word of 1, 2, 4 or 8 bytes unpacked along its own row."""
    n = next(n for n in (1, 2, 4, 8) if 8 * n >= width)
    words = np.asarray(values).astype(f">u{n}")
    planes = np.unpackbits(words.view(np.uint8).reshape(words.shape + (n,)), axis=-1)
    return planes[..., 8 * n - width:]


def plane_loop_ints(bits: np.ndarray) -> np.ndarray:
    """int64 fields from MSB-first planes on the last axis, shifted in one
    plane at a time."""
    out = np.zeros(bits.shape[:-1], dtype=np.int64)
    for k in range(bits.shape[-1]):
        out <<= 1
        out |= bits[..., k]
    return out


class TwoReadingRoeStore(RoeStore):
    """RoE's codec as it was before each brick was converted in its own mode.

    The writer builds 16-bit value planes and (offset, value) pair planes
    for every brick and picks one per brick. The reader reads every payload
    twice, as B raw values and as B pair slots over a zero-extended copy,
    and keeps one reading per brick. Fields go through the plane-loop
    oracles above and the refusal rules and criteria are restated, so only
    the encoder's pair table and the header come from the package."""

    def _body(self) -> bytes:
        n, brick = self.values.shape
        ob, payload = (brick - 1).bit_length(), brick * 16
        value_bits = plane_loop_bits(self.values, 16)
        pairs = np.concatenate([plane_loop_bits(self.offsets, ob), value_bits],
                               axis=-1).reshape(n, -1)[:, :payload]
        body = np.where(self.encoded[:, None], pairs, value_bits.reshape(n, payload))
        return np.packbits(np.concatenate([self.encoded[:, None], body], axis=-1)).tobytes()

    @classmethod
    def _read(cls, meta, n, body):
        brick, crit = meta[2], meta[3]
        ob, payload = (brick - 1).bit_length(), brick * 16
        nbits = n * (1 + payload)
        if len(body) != -(-nbits // 8):
            raise FormatError("payload size differs from the header's")
        bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8))
        if bits[nbits:].any():
            raise FormatError("pad bits after the last field are not zero")
        bits = bits[:nbits].reshape(n, 1 + payload)
        encoded, payload_bits = bits[:, 0].astype(bool), bits[:, 1:]
        raw = plane_loop_ints(payload_bits.reshape(n, brick, 16)).astype(np.int16)
        # read B (offset, value) slots over the zero-extended payload; slots
        # past the last whole one that fits never hold a pair, and every bit
        # after the pairs must be zero
        slots = np.pad(payload_bits, [(0, 0), (0, brick * ob)]).reshape(n, brick, -1)
        offs, vals = plane_loop_ints(slots[..., :ob]), plane_loop_ints(slots[..., ob:])
        vals = vals.astype(np.int16)
        fits = np.arange(brick) < payload // (16 + ob)
        live = np.logical_and.accumulate((vals != 0) & fits, axis=1) & encoded[:, None]
        if (((offs != 0) | (vals != 0)) & ~live & encoded[:, None]).any():
            raise FormatError("RoE padding bits are not zero")
        if ((np.diff(offs, axis=1) <= 0) & live[:, 1:]).any():
            raise FormatError("pair offsets are not strictly increasing")
        if (offs[live] >= brick).any():
            raise FormatError("pair offset outside the brick")
        if not _effectual_array(vals[live], crit.kind, crit.param).all():
            raise FormatError("a stored value is ineffectual")
        effectual = _effectual_array(raw[~encoded], crit.kind, crit.param)
        if (effectual.sum(axis=1) * (16 + ob) <= payload).any():
            raise FormatError("a raw-mode brick fits the encoded mode")
        offsets = np.where(live, offs, 0)
        values = np.where(live, vals, 0).astype(np.int16)
        counts = live.sum(axis=1)
        offsets[~encoded], values[~encoded], counts[~encoded] = np.arange(brick), raw[~encoded], brick
        return cls(*meta, encoded, offsets, values, counts)


def slow_brick_codec(fmt: str, values, kind: str, param: int) -> SimpleNamespace:
    """One brick's ZFNAf, RoE or VIAI form, restated from the `encodings` docstring.

    The pairs are the (offset, value) pairs of the effectual values in offset
    order, and the mask marks them. RoE keeps its pairs while
    k*(16 + offset_bits) <= 16*B, so a tie encodes; it then uses 1 mode bit
    plus k*(16 + offset_bits) bits of its container, and all of it
    otherwise. Decoding zeroes every dropped position, except in a raw-mode
    RoE brick, which kept every value.
    """
    vals = [int(v) for v in values]
    brick = len(vals)
    ob = (brick - 1).bit_length()
    mask = [_slow_effectual(v, kind, param) for v in vals]
    pairs = [(o, v) for o, (v, keep) in enumerate(zip(vals, mask)) if keep]
    container = {"zfnaf": brick * (16 + ob), "roe": 1 + brick * 16, "viai": brick * 17}[fmt]
    encoded = len(pairs) * (16 + ob) <= brick * 16
    decoded = [v if keep else 0 for v, keep in zip(vals, mask)]
    if fmt == "roe" and not encoded:
        decoded = vals
    return SimpleNamespace(
        pairs=pairs, mask=mask, encoded=encoded, offset_bits=ob, container_bits=container,
        bits_used=lambda offset_bits=ob: (1 + len(pairs) * (16 + offset_bits) if encoded
                                          else container),
        decoded=decoded)


def slow_container_bytes(fmt: str, acts: np.ndarray, kind: str, param: int,
                         brick: int, logical_i: int) -> bytes:
    """A serialized store built from the `encodings` module docstring alone.

    One python-int accumulator takes every field MSB first, brick by brick
    in (x, y, depth) order; the last byte is zero padded. The header is
    tag, X, Y, I, logical_i, B, criterion kind, criterion parameter, big
    endian, and CVIAI puts its pool size as a 64-bit field before the bits.
    """
    tags = {"zfnaf": 1, "roe": 2, "viai": 3, "cviai": 4}
    x, y, depth = acts.shape
    head = struct.pack(">BIIIIHBH", tags[fmt], x, y, depth, logical_i, brick,
                       ("zero", "abs", "pow2").index(kind), param)
    acc, nbits = 0, 0

    def put(value: int, width: int) -> None:
        nonlocal acc, nbits
        acc = (acc << width) | (value & ((1 << width) - 1))
        nbits += width

    bricks = [[int(v) for v in acts[a, b, ib * brick:(ib + 1) * brick]]
              for a in range(x) for b in range(y) for ib in range(depth // brick)]
    keep = [[_slow_effectual(v, kind, param) for v in vals] for vals in bricks]
    ob = (brick - 1).bit_length()
    if fmt == "cviai":
        pool = sum(sum(k) for k in keep)
        head += struct.pack(">Q", pool)
        for k in keep:
            for bit in k:
                put(int(bit), 1)
        for vals, k in zip(bricks, keep):
            for v, bit in zip(vals, k):
                if bit:
                    put(v, 16)
        start = 0
        for k in keep:
            put(start, pool.bit_length())
            start += sum(k)
    for vals, k in zip(bricks, keep):
        pairs = [(o, v) for o, (v, bit) in enumerate(zip(vals, k)) if bit]
        if fmt == "cviai":
            continue
        if fmt == "zfnaf":
            for slot in range(brick):
                off, val = pairs[slot] if slot < len(pairs) else (0, 0)
                put(val, 16)
                put(off, ob)
        elif fmt == "roe":
            if len(pairs) * (16 + ob) <= brick * 16:
                put(1, 1)
                for off, val in pairs:
                    put(off, ob)
                    put(val, 16)
                put(0, brick * 16 - len(pairs) * (16 + ob))
            else:
                put(0, 1)
                for v in vals:
                    put(v, 16)
        else:
            for bit in k:
                put(int(bit), 1)
            for v in vals:
                put(v, 16)
    pad = -nbits % 8
    return head + (acc << pad).to_bytes((nbits + pad) // 8, "big")


_M64 = (1 << 64) - 1


def _splitmix(v: int) -> int:
    v ^= v >> 30
    v = v * 0xBF58476D1CE4E5B9 & _M64
    v ^= v >> 27
    v = v * 0x94D049BB133111EB & _M64
    return v ^ v >> 31


def slow_draw(seed: int, zero_salt: int, value_salt: int, count: int,
              p_zero: float, vmin: int, vmax: int) -> list[int]:
    """One stream pair of the generator, restated from the `workloads` docstring.

    word(seed, salt, n) = mix(mix(seed XOR salt) + (n + 1) * golden) mod 2**64;
    position n is zero when the top 53 bits of its zero-stream word fall
    below round(p * 2**53), and otherwise takes its value-stream word
    modulo the count of nonzero values in [vmin, vmax], counted up from
    vmin with 0 left out.
    """
    def word(salt: int, n: int) -> int:
        base = _splitmix((seed ^ salt) & _M64)
        return _splitmix((base + (n + 1) * 0x9E3779B97F4A7C15) & _M64)

    nonzero = [v for v in range(vmin, vmax + 1) if v != 0]
    threshold = round(p_zero * (1 << 53))
    return [0 if word(zero_salt, n) >> 11 < threshold
            else nonzero[word(value_salt, n) % len(nonzero)]
            for n in range(count)]


# -- picks for case builders ---------------------------------------------------
# A case builder takes ``integer(lo, hi)`` (inclusive) and ``choice(options)``
# and makes every pick through them, so one builder serves a hypothesis
# property and a seeded, deterministic loop over the same kind of cases.

def hypothesis_picks(draw):
    from hypothesis import strategies as st
    return (lambda lo, hi: draw(st.integers(lo, hi)),
            lambda options: draw(st.sampled_from(options)))


def seeded_cases(build, seed: int, n: int) -> list:
    """``n`` cases of ``build(integer, choice)`` picked by a seeded generator."""
    rng = np.random.default_rng(seed)
    picks = (lambda lo, hi: int(rng.integers(lo, hi, endpoint=True)),
             lambda options: options[int(rng.integers(len(options)))])
    return [build(*picks) for _ in range(n)]


def pick_criterion(integer, choice) -> IneffCriterion:
    """zero, abs:0..40 or pow2:0..6."""
    kind = choice(["zero", "abs", "pow2"])
    if kind == "zero":
        return IneffCriterion()
    return IneffCriterion.parse(f"{kind}:{integer(0, 40 if kind == 'abs' else 6)}")
