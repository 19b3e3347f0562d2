"""Dense activation and weight containers plus the reference convolution.

Activations are a 3-D array with axes (x, y, i) where i, the feature index,
varies fastest in memory. A brick is an aligned run of B consecutive samples
along i, so bricks are contiguous. When the feature depth is not a multiple
of the brick size the array is zero padded up to the next multiple at
ingestion and the original depth is kept as ``logical_i``; padding never
changes convolution results because the weights are padded the same way.

All stored samples are signed 16-bit. The reference convolution, `conv3d`,
sums the products exactly in float GEMMs and returns the untruncated int64
sums. The GEMM dtype follows a property of its operands, not of any
workload: with peak = max|a| * max|w|, float32 holds every partial sum of
one filter offset exactly when peak * depth <= 2**24, so values in
[-128, 127] take float32 at any depth up to 1024; otherwise, and always
for full-range int16, the sums run in float64, exact up to 2**53.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ConfigurationError

INT16_MIN = -(1 << 15)
INT16_MAX = (1 << 15) - 1


def _int_array(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as an array, refused unless ``ndim``-D, non-empty and integer."""
    arr = np.asarray(values)
    if arr.ndim != ndim:
        raise ConfigurationError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigurationError(f"{what} must be non-empty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigurationError(f"{what} must be an integer tensor, got dtype {arr.dtype}")
    return arr


def _int16_with_peak(values, ndim: int, what: str) -> tuple[np.ndarray, int]:
    """``values`` as a C-contiguous int16 array, and their largest magnitude."""
    arr = _int_array(values, ndim, what)
    lo, hi = int(arr.min()), int(arr.max())
    if lo < INT16_MIN or hi > INT16_MAX:
        raise ConfigurationError(
            f"{what} values span [{lo}, {hi}], outside the signed 16-bit range"
        )
    return np.ascontiguousarray(arr, dtype=np.int16), max(-lo, hi)


def _as_int16(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a C-contiguous int16 array; only other dtypes need a range pass."""
    arr = _int_array(values, ndim, what)
    if arr.dtype == np.int16:
        return np.ascontiguousarray(arr)
    return _int16_with_peak(arr, ndim, what)[0]


def _int_in(value, lo: int, hi: int | None, what: str, error: type[Exception]) -> int:
    """The one integer rule: ``value`` as a Python int, or ``error`` unless it
    is an int or a numpy integer, not a bool, with lo <= value and, when
    ``hi`` is given, value <= hi."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or hi is not None and value > hi):
        bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise error(f"{what} must be {bound} and an int, not a bool, got {value!r}")
    return int(value)


def _positive_int(value, what: str, error: type[Exception]) -> int:
    return _int_in(value, 1, None, what, error)


def _positive_fields(obj, names, what: str, error: type[Exception]) -> None:
    """Raise ``error`` unless every named field of ``obj`` is a `_positive_int`."""
    for name in names:
        _positive_int(getattr(obj, name), f"{what} field {name}", error)


def _require_type(value, kind: type, name: str) -> None:
    """The one type rule: refuse a plain value where the code branches on enum
    identity or calls a criterion's methods."""
    if not isinstance(value, kind):
        raise ConfigurationError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _brick_size(brick) -> int:
    """``brick`` as an int; ConfigurationError unless it is an int of at least 1."""
    return _positive_int(brick, "brick size", ConfigurationError)


def _padded_depth(depth: int, brick: int) -> int:
    """``depth`` zero padded up to a brick multiple: ceil(depth / brick) * brick."""
    return -(-depth // _brick_size(brick)) * brick


def _filter_fits(extent: tuple[int, int], plane: tuple[int, int]) -> None:
    """ConfigurationError unless the (fx, fy) filter fits the (x, y) input."""
    if extent[0] > plane[0] or extent[1] > plane[1]:
        raise ConfigurationError(f"filter extent {extent} exceeds input {plane}")


def _exclusive_cumsum(a: np.ndarray, axis: int) -> np.ndarray:
    return np.cumsum(a, axis=axis) - a


def _depth_bricks(depth: int, brick: int) -> int:
    """Bricks along ``depth``, which must be a whole number of bricks."""
    if _padded_depth(depth, brick) != depth:
        raise ConfigurationError(f"depth {depth} is not a multiple of brick size {brick}")
    return depth // brick


def pad_depth(arr: np.ndarray, brick: int) -> np.ndarray:
    """Zero pad the last axis up to the next multiple of ``brick``."""
    pad = _padded_depth(arr.shape[-1], brick) - arr.shape[-1]
    if pad == 0:
        return arr
    widths = [(0, 0)] * (arr.ndim - 1) + [(0, pad)]
    return np.pad(arr, widths)


class _DepthTensor:
    """int16 values whose last axis is the depth, with its pre-padding
    ``logical_i``, past which every value is zero; subclasses fix the number
    of axes."""

    _ndim: int
    _what: str

    def __init__(self, values, logical_i: int | None = None):
        self.values = _as_int16(values, self._ndim, self._what)
        depth = self.values.shape[-1]
        self.logical_i = depth if logical_i is None else _int_in(
            logical_i, 1, depth, "logical depth", ConfigurationError)
        if self.values[..., self.logical_i:].any():  # the machines would multiply them
            raise ConfigurationError(f"{self._what} values past the logical depth "
                                     f"{self.logical_i} are not zero")

    @classmethod
    def padded(cls, values, brick: int):
        """Build a tensor whose depth is padded up to a multiple of ``brick``."""
        arr = _as_int16(values, cls._ndim, cls._what)
        return cls(pad_depth(arr, brick), logical_i=arr.shape[-1])


class ActTensor(_DepthTensor):
    """Activation tensor with axes (x, y, i), feature index fastest.

    ``logical_i`` records the pre-padding depth; it equals the stored depth
    unless the tensor was depth padded to a brick multiple.
    """

    _ndim, _what = 3, "activation tensor"

    @property
    def x(self) -> int:
        return self.values.shape[0]

    @property
    def y(self) -> int:
        return self.values.shape[1]

    @property
    def i(self) -> int:
        return self.values.shape[2]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def brick_count(self, brick: int) -> int:
        return _depth_bricks(self.i, brick)

    def __repr__(self) -> str:
        return f"ActTensor(dims={self.dims}, logical_i={self.logical_i})"


class FilterSet(_DepthTensor):
    """Weight tensor with axes (f, x, y, i); all filters share one shape."""

    _ndim, _what = 4, "filter set"

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def fx(self) -> int:
        return self.values.shape[1]

    @property
    def fy(self) -> int:
        return self.values.shape[2]

    @property
    def i(self) -> int:
        return self.values.shape[3]

    def __repr__(self) -> str:
        return f"FilterSet(count={self.count}, dims={self.values.shape[1:]})"


@dataclass(frozen=True)
class LayerConfig:
    """Geometry of one convolutional layer.

    The stride must tile the input exactly; there is no padding of the x/y
    extent, so (x - fx) and (y - fy) must both be multiples of the stride.
    """

    x: int
    y: int
    i: int
    fx: int
    fy: int
    f: int
    stride: int = 1

    def __post_init__(self):
        _positive_fields(self, ("x", "y", "i", "fx", "fy", "f", "stride"), "layer",
                         ConfigurationError)
        _filter_fits((self.fx, self.fy), (self.x, self.y))
        if (self.x - self.fx) % self.stride or (self.y - self.fy) % self.stride:
            raise ConfigurationError(
                f"stride {self.stride} does not tile input "
                f"({self.x}, {self.y}) with filter ({self.fx}, {self.fy})"
            )

    @property
    def ox(self) -> int:
        return (self.x - self.fx) // self.stride + 1

    @property
    def oy(self) -> int:
        return (self.y - self.fy) // self.stride + 1

    @property
    def window_positions(self) -> int:
        """Number of multiply positions in one window."""
        return self.fx * self.fy * self.i

    def check_tensors(self, acts: ActTensor, filters: FilterSet) -> None:
        """Raise unless the tensors have exactly this layer's shape."""
        if acts.dims != (self.x, self.y, self.i):
            raise ConfigurationError(
                f"activation dims {acts.dims} do not match layer ({self.x}, {self.y}, {self.i})"
            )
        if filters.values.shape != (self.f, self.fx, self.fy, self.i):
            raise ConfigurationError(
                f"filter dims {filters.values.shape} do not match layer "
                f"({self.f}, {self.fx}, {self.fy}, {self.i})"
            )

    def check_brick(self, brick: int) -> int:
        """Bricks per depth column; raises unless ``brick`` tiles the depth."""
        return _depth_bricks(self.i, brick)

    @classmethod
    def from_tensors(cls, acts: ActTensor, filters: FilterSet, stride: int = 1) -> "LayerConfig":
        if acts.i != filters.i:
            raise ConfigurationError(
                f"filter depth {filters.i} does not match input depth {acts.i}"
            )
        return cls(acts.x, acts.y, acts.i, filters.fx, filters.fy, filters.count, stride)


@dataclass
class Brick:
    """One aligned group of B consecutive samples along the feature axis."""

    x: int
    y: int
    i: int
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_int16(np.atleast_1d(self.values), 1, "brick")
        b = self.values.shape[0]
        if self.i % b != 0:
            raise ConfigurationError(
                f"brick base index {self.i} is not aligned to brick size {b}"
            )

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _brick_row(dims: tuple[int, int, int], brick: int, x: int, y: int, ib: int) -> int:
    """Row of brick (x, y, ib) in (x, y, brick) traversal order, where a
    (X, Y, I) tensor has (X * Y * I / brick) rows; BoundsError outside it."""
    nx, ny, depth = dims
    nb = _depth_bricks(depth, brick)
    if not (0 <= x < nx and 0 <= y < ny and 0 <= ib < nb):
        raise BoundsError(f"brick ({x}, {y}, {ib}) outside ({nx}, {ny}, {nb})")
    return (x * ny + y) * nb + ib


def brick_at(acts: ActTensor, x: int, y: int, brick_index: int, brick: int = 16) -> Brick:
    """Copy out the brick at spatial position (x, y) and depth ordinal ``brick_index``."""
    row = _brick_row(acts.dims, brick, x, y, brick_index)
    return Brick(x, y, brick_index * brick, acts.values.reshape(-1, brick)[row].copy())


# Most products one float sum may hold, whatever its dtype. An int16 x int16
# product is at most 2**30 in magnitude, so a float64 sum of 2**23 of them
# stays within 2**53 and is exact; tests lower it to force the depth split.
_MAX_EXACT_TERMS = 1 << 23


def _exact_gemm(peak: int, depth: int) -> tuple[type, int]:
    """GEMM dtype and the most products one exact sum may hold, for integer
    products at most ``peak`` in magnitude summed over ``depth`` terms.

    A float sum of integers is exact while every partial sum stays within
    2**24 (float32) or 2**53 (float64). float32 is taken when one whole
    depth fits; either limit is capped by ``_MAX_EXACT_TERMS``.
    """
    peak = max(peak, 1)
    exact32 = (1 << 24) // peak
    if depth <= exact32:
        return np.float32, min(_MAX_EXACT_TERMS, exact32)
    return np.float64, min(_MAX_EXACT_TERMS, (1 << 53) // peak)


def conv3d(acts_values, filter_values, stride: int = 1) -> np.ndarray:
    """Strided cross-correlation of int16 values with exact integer sums.

    For each filter offset (dx, dy) the strided (ox * oy, i) slab of the
    input is multiplied by that offset's (i, f) weights in one float GEMM,
    float32 or float64 as `_exact_gemm` picks from max|a| * max|w| and the
    depth. The float accumulator is flushed into the int64 output before it
    holds more products than that dtype sums exactly, and a depth deeper
    than that is split, so every float sum is exact.

    Args:
        acts_values: (X, Y, I) integer array with values in int16.
        filter_values: (F, Fx, Fy, I) integer array with values in int16.
        stride: window step along x and y.

    Returns:
        (Ox, Oy, F) int64 array of untruncated sums.
    """
    a, a_peak = _int16_with_peak(acts_values, 3, "activations")
    w, w_peak = _int16_with_peak(filter_values, 4, "filters")
    f, fx, fy, depth = w.shape
    if a.shape[2] != depth:
        raise ConfigurationError(
            f"filter depth {depth} does not match input depth {a.shape[2]}"
        )
    _filter_fits((fx, fy), a.shape[:2])
    stride = _positive_int(stride, "stride", ConfigurationError)
    ox = (a.shape[0] - fx) // stride + 1
    oy = (a.shape[1] - fy) // stride + 1
    dtype, limit = _exact_gemm(a_peak * w_peak, depth)
    acc = np.zeros((ox * oy, f), dtype=dtype)
    terms, flushed = 0, 0  # products in acc; int64 sums of earlier accumulators
    step = min(depth, limit)
    for dx in range(fx):
        for dy in range(fy):
            slab = a[dx:dx + stride * (ox - 1) + 1:stride,
                     dy:dy + stride * (oy - 1) + 1:stride].astype(dtype)
            slab = slab.reshape(ox * oy, depth)
            for d0 in range(0, depth, step):
                d1 = min(d0 + step, depth)
                if terms + d1 - d0 > limit:
                    flushed = flushed + acc.astype(np.int64)
                    acc[:] = 0.0
                    terms = 0
                acc += slab[:, d0:d1] @ w[:, dx, dy, d0:d1].T.astype(dtype)
                terms += d1 - d0
    out = acc.astype(np.int64)
    out += flushed
    return out.reshape(ox, oy, f)


def dense_conv(acts: ActTensor, filters: FilterSet, layer: LayerConfig) -> np.ndarray:
    """Reference convolution of the layer; output axes are (wx, wy, f)."""
    layer.check_tensors(acts, filters)
    return conv3d(acts.values, filters.values, layer.stride)
