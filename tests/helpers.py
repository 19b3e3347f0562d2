"""Hand-rolled oracles the tests trust instead of the library's own math.

Everything here is deliberately written the slow, obvious way: pure
Python loops, python ints, no shared helpers from the package under
test. If the fast paths and these ever disagree, the fast paths lose.
"""

import numpy as np

from sparseaccel import ActTensor, FilterSet, GroupScope, LayerConfig


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


def window_brick_costs(acts: np.ndarray, stride: int, fx: int, fy: int,
                       brick: int, dead=None) -> list[list[int]]:
    """Effectual-position count of every brick of every window.

    Windows in (wx, wy) order; bricks within a window in filter-x, then
    filter-y, then depth order. `dead` maps a depth position to True when
    all resident weights there are skippable; those positions never count.
    """
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
                            if acts[wx * stride + a, wy * stride + b, d] == 0:
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
