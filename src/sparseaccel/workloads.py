"""Workload generation and layer file I/O.

Synthetic layers come from a counter-based splitmix64 generator so any
implementation, in any language, can reproduce a fixture from its seed:

    mix(v):  v ^= v >> 30; v *= 0xBF58476D1CE4E5B9;
             v ^= v >> 27; v *= 0x94D049BB133111EB;
             v ^= v >> 31             (all mod 2**64)
    word(seed, salt, n) = mix(mix(seed XOR salt) + (n + 1) * 0x9E3779B97F4A7C15)

Four fixed salts separate the activation-zero, activation-value,
weight-zero, and weight-value streams; n counts positions in C order. A
position is zeroed when the top 53 bits of its zero-stream word fall below
round(p * 2**53), and nonzero values map a value-stream word onto the range
with zero excluded. A word depends on its counter alone, so the value
stream is evaluated only at the kept (nonzero) positions' counters.
Streams are drawn in fixed chunks of counters into one int16 array, so
generating a layer never holds a whole-tensor uint64 temporary; neither
the chunking nor the skipped value words change a single value.

The binary ``.layer`` container is little endian: magic "CNVL", a u16
version, the activation and filter dimensions at their logical (unpadded)
depth, stride, and brick size, then the raw int16 payloads; a file longer
or shorter than its header declares is rejected. A ``.json``
variant with the same fields exists for human-editable fixtures; its
header fields and payload entries must be JSON integers (not bools or
floats), and each list is read straight into its field's dtype (uint32
dims and filters, uint16 stride and brick, int16 payloads), whose range
it must fit. In both
formats every dimension, the stride and the brick must be at least 1, and
the brick may pad the depth i to at most max(2i, 16), so a small file
cannot ask for tensors out of proportion to its payload. The writer applies
the same header rule, so it never writes a file the loaders refuse.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagicError, FormatError, TruncatedError, ValidationError,
                     VersionError)
from .tensor import (INT16_MAX, INT16_MIN, ActTensor, FilterSet, LayerConfig, _padded_depth,
                     _positive_fields)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

SALT_ACT_ZERO = 0x41435A45524F5300   # stream tags, arbitrary fixed constants
SALT_ACT_VALUE = 0x414356414C554500
SALT_WT_ZERO = 0x57545A45524F5300
SALT_WT_VALUE = 0x575456414C554500

_CHUNK = 1 << 14  # positions drawn per step; bounds the generator's temporaries


def _mix(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64, copy=True)
    v ^= v >> np.uint64(30)
    v *= _MIX1
    v ^= v >> np.uint64(27)
    v *= _MIX2
    v ^= v >> np.uint64(31)
    return v


def _stream_base(seed: int, salt: int) -> np.uint64:
    return _mix(np.array([np.uint64((seed ^ salt) & 0xFFFFFFFFFFFFFFFF)]))[0]


def _words(base: np.uint64, counters: np.ndarray) -> np.ndarray:
    """Words of one stream at uint64 ``counters``; position n's counter is n + 1."""
    return _mix(base + counters * _GOLDEN)


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic layer recipe: geometry, sparsity targets, value range, seed."""

    x: int
    y: int
    i: int
    f: int
    fx: int
    fy: int
    stride: int = 1
    p_act_zero: float = 0.0
    p_wt_zero: float = 0.0
    vmin: int = -128
    vmax: int = 127
    seed: int = 0
    brick: int = 16

    def __post_init__(self):
        _positive_fields(self, ("x", "y", "i", "f", "fx", "fy", "stride", "brick"), "spec",
                         ValidationError)
        for name in ("p_act_zero", "p_wt_zero"):
            p = getattr(self, name)
            if not 0.0 <= float(p) <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {p}")
        if not INT16_MIN <= self.vmin <= self.vmax <= INT16_MAX:
            raise ValidationError(
                f"value range [{self.vmin}, {self.vmax}] must be ordered and 16-bit"
            )
        if self.vmin == 0 and self.vmax == 0:
            raise ValidationError("value range [0, 0] leaves no nonzero values to draw")

    def layer_config(self) -> LayerConfig:
        return LayerConfig(self.x, self.y, _padded_depth(self.i, self.brick),
                           self.fx, self.fy, self.f, self.stride)


def _draw(seed: int, zero_salt: int, value_salt: int, count: int,
          p_zero: float, vmin: int, vmax: int) -> np.ndarray:
    threshold = np.uint64(round(float(p_zero) * float(1 << 53)))
    zero_base = _stream_base(seed, zero_salt)
    value_base = _stream_base(seed, value_salt)

    span = vmax - vmin + 1
    skip_zero = vmin <= 0 <= vmax
    nonzero_span = np.uint64(span - 1 if skip_zero else span)
    out = np.zeros(count, dtype=np.int16)
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        counters = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        kept = np.flatnonzero((_words(zero_base, counters) >> np.uint64(11)) >= threshold)
        words = _words(value_base, counters[kept])
        # words % span: numpy divides by a scalar much faster than it takes a remainder
        vals = vmin + (words - words // nonzero_span * nonzero_span).astype(np.int64)
        if skip_zero:
            vals += vals >= 0  # skip over 0 in the range
        out[lo + kept] = vals
    return out


def gen_synthetic(spec: SyntheticSpec) -> tuple[ActTensor, FilterSet]:
    """Materialize a spec; same spec, same tensors, on any platform."""
    acts = _draw(spec.seed, SALT_ACT_ZERO, SALT_ACT_VALUE, spec.x * spec.y * spec.i,
                 spec.p_act_zero, spec.vmin, spec.vmax).reshape(spec.x, spec.y, spec.i)
    wts = _draw(spec.seed, SALT_WT_ZERO, SALT_WT_VALUE,
                spec.f * spec.fx * spec.fy * spec.i,
                spec.p_wt_zero, spec.vmin, spec.vmax
                ).reshape(spec.f, spec.fx, spec.fy, spec.i)
    return ActTensor.padded(acts, spec.brick), FilterSet.padded(wts, spec.brick)


@dataclass
class LayerData:
    """One layer's tensors plus the geometry needed to simulate it."""

    acts: ActTensor
    filters: FilterSet
    stride: int
    brick: int

    def layer_config(self) -> LayerConfig:
        return LayerConfig.from_tensors(self.acts, self.filters, self.stride)


_MAGIC = b"CNVL"
_VERSION = 1
_BIN_HEADER = struct.Struct("<4sHIIIIIIHH")  # magic, version, x, y, i, f, fx, fy, stride, brick


def save_layer(path, data: LayerData) -> None:
    """Write a layer file; the suffix picks binary (.layer) or JSON (.json).
    A layer that breaks the loaders' header rule is refused, not written."""
    a, w = _logical_views(data)
    _check_header(path, a.shape, w.shape[:3], data.stride, data.brick)
    try:
        if str(path).endswith(".json"):
            _save_json(path, a, w, data.stride, data.brick)
        else:
            _save_binary(path, a, w, data.stride, data.brick)
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
        raise ValidationError(f"cannot write layer file {path}: {exc}") from None


def load_layer(path) -> LayerData:
    """Read a layer file; the suffix picks binary (.layer) or JSON (.json)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
        raise ValidationError(f"cannot read layer file {path}: {exc}") from None
    if str(path).endswith(".json"):
        return _load_json(path, blob)
    return _load_binary(path, blob)


def _logical_views(data: LayerData) -> tuple[np.ndarray, np.ndarray]:
    li = data.acts.logical_i
    if data.filters.logical_i != li:
        raise ValidationError(
            f"activation logical depth {li} != filter logical depth {data.filters.logical_i}"
        )
    return data.acts.values[:, :, :li], data.filters.values[:, :, :, :li]


def _save_binary(path, a: np.ndarray, w: np.ndarray, stride: int, brick: int) -> None:
    header = _BIN_HEADER.pack(_MAGIC, _VERSION, *a.shape, *w.shape[:3], stride, brick)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(a, dtype="<i2").tobytes())
        fh.write(np.ascontiguousarray(w, dtype="<i2").tobytes())


def _load_binary(path, blob: bytes) -> LayerData:
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise BadMagicError(f"{path}: not a layer file (bad magic)")
    if len(blob) < _BIN_HEADER.size:
        raise TruncatedError(f"{path}: header is incomplete")
    _, version, x, y, i, f, fx, fy, stride, brick = _BIN_HEADER.unpack_from(blob)
    if version != _VERSION:
        raise VersionError(f"{path}: version {version}, expected {_VERSION}")
    n_act = x * y * i
    n_wt = f * fx * fy * i
    need = _BIN_HEADER.size + 2 * (n_act + n_wt)
    if len(blob) < need:
        raise TruncatedError(f"{path}: {len(blob)} bytes, payload needs {need}")
    if len(blob) > need:
        raise FormatError(f"{path}: {len(blob) - need} trailing bytes after the "
                          f"{need}-byte layer its header declares")
    body = np.frombuffer(blob, dtype="<i2", count=n_act + n_wt, offset=_BIN_HEADER.size)
    return _layer_data(path, (x, y, i), (f, fx, fy), stride, brick, body[:n_act], body[n_act:])


_U16, _U32 = (1 << 16) - 1, (1 << 32) - 1  # the binary header's field ranges


def _check_header(path, dims, filters, stride: int, brick: int) -> None:
    """The header rule of both formats, for reading and for writing.

    Every field must be at least 1 and fit its binary header field, and the
    padded depth ceil(i / brick) * brick at most max(2 * i, 16), so that
    the tensors a file asks for stay within a constant factor of its
    payload.
    """
    header = (("dims", dims, _U32), ("filters", filters, _U32), ("stride", [stride], _U16),
              ("brick", [brick], _U16))
    for key, values, hi in header:
        for n, v in enumerate(values):
            if not 1 <= v <= hi:
                raise FormatError(f"{path}: {key}[{n}] is {v}, expected an integer in [1, {hi}]")
    i = dims[2]
    padded = _padded_depth(i, brick)
    if padded > max(2 * i, 16):
        raise FormatError(f"{path}: padded depth {padded} (depth {i}, brick {brick}) "
                          f"exceeds max(2 * depth, 16)")


def _layer_data(path, dims, filters, stride: int, brick: int, acts: np.ndarray,
                wts: np.ndarray) -> LayerData:
    """The header rule, then the tensors; the flat payloads must hold exactly
    the header's activation and weight counts."""
    _check_header(path, dims, filters, stride, brick)
    (x, y, i), (f, fx, fy) = dims, filters
    if acts.size != x * y * i or wts.size != f * fx * fy * i:
        raise TruncatedError(
            f"{path}: payload sizes {acts.size}/{wts.size} do not match the header dims"
        )
    return LayerData(ActTensor.padded(acts.reshape(x, y, i), brick),
                     FilterSet.padded(wts.reshape(f, fx, fy, i), brick), stride, brick)


def _save_json(path, a: np.ndarray, w: np.ndarray, stride: int, brick: int) -> None:
    import json  # only the JSON variant needs it; importing the package skips it
    doc = {
        "format": _MAGIC.decode(),
        "version": _VERSION,
        "dims": list(a.shape),
        "filters": list(w.shape[:3]),
        "stride": stride,
        "brick": brick,
        "activations": a.reshape(-1).tolist(),
        "weights": w.reshape(-1).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _json_ints(path, key: str, value, dtype: type, count: int | None = None) -> np.ndarray:
    """`value` as a `dtype` array of JSON integers within that dtype's range,
    of length `count` if given.

    Bools and floats are not JSON integers: `true` or `1.5` is rejected, not
    read as 1. The types are checked on the whole list at once, and the
    range by the conversion itself, which raises OverflowError on a Python
    int outside `dtype`; only a list that fails is walked, to name its first
    bad element.
    """
    if not isinstance(value, list) or count is not None and len(value) != count:
        raise FormatError(f"{path}: {key} must be a list of {count or 'any number of'} integers")
    if set(map(type, value)) <= {int}:
        try:
            return np.fromiter(value, dtype=dtype, count=len(value))
        except OverflowError:  # out of range: named below
            pass
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    n, v = next((n, v) for n, v in enumerate(value)
                if type(v) is not int or not lo <= v <= hi)
    raise FormatError(f"{path}: {key}[{n}] is {v!r}, expected an integer in [{lo}, {hi}]")


def _load_json(path, blob: bytes) -> LayerData:
    import json
    try:
        doc = json.loads(blob.decode("utf-8"))
    # not UTF-8, not JSON, or nested deeper than the parser recurses
    except (ValueError, RecursionError) as exc:
        raise BadMagicError(f"{path}: not a JSON layer file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != _MAGIC.decode():
        raise BadMagicError(f"{path}: missing or wrong format field")
    if type(doc.get("version")) is not int or doc["version"] != _VERSION:
        raise VersionError(f"{path}: version {doc.get('version')}, expected {_VERSION}")
    try:
        dims, filters = (_json_ints(path, k, doc[k], np.uint32, 3).tolist()
                         for k in ("dims", "filters"))
        (stride,), (brick,) = (_json_ints(path, k, [doc[k]], np.uint16).tolist()
                               for k in ("stride", "brick"))
        acts, wts = (_json_ints(path, k, doc[k], np.int16) for k in ("activations", "weights"))
    except KeyError as exc:
        raise TruncatedError(f"{path}: incomplete layer document (no {exc} field)") from None
    return _layer_data(path, dims, filters, stride, brick, acts, wts)
