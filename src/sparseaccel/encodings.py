"""Bit-exact codecs for the sparse activation storage formats.

Four formats record which activation values are ineffectual so downstream
stages can skip them:

ZFNAf   Per brick, B slots of (value: 16 bits, offset: ceil(log2 B) bits).
        Effectual values are packed to the front with their original offsets,
        remaining slots are zero filled. The container always occupies
        B*(16 + offset_bits) bits regardless of content.

RoE     One mode bit per brick. Mode 1 stores k (offset, value) pairs, chosen
        whenever k*(16 + offset_bits) <= B*16 (ties encode); mode 0 stores
        all B raw values and gives up skip information for that brick. The
        container always occupies 1 + B*16 bits. A pair is one
        (16 + offset_bits)-bit field, offset << 16 | value, and each brick
        is read in its own mode only: a raw brick's payload as B values, an
        encoded brick's as the whole pair fields that fit it, with every
        bit after them zero.

VIAI    Values stay in place; a B-bit mask (bit = 1 means effectual, offset 0
        first) is prepended. B + B*16 bits per brick. The decoder refuses a
        mask other than the header criterion's effectual bits of the values.

CVIAI   VIAI masks plus only the effectual values, packed tensor-wide into
        one pool. The indirection array IR holds one pointer per brick
        row, in (x, y, brick) order: the brick's start offset into the
        pool. Pointers are ceil(log2(pool_size + 1)) bits wide and never
        decrease.

Bit packing is MSB first in field declaration order and serialized streams
are big endian. Values are two's complement 16-bit. Every criterion
classifies 0 as ineffectual, so a zero value field doubles as the
end-of-pairs sentinel inside the fixed-size containers.

The stores hold whole-tensor arrays, one row per brick in (x, y, brick)
traversal order, and serialize through one field packer that converts a
whole stream between fields and bits with one flat call. `_bits` casts
unsigned fields to big-endian words of 1, 2, 4 or 8 bytes, unpacks all
their bytes with one `np.unpackbits` and keeps each field's low ``width``
planes; `_ints` copies the planes right-aligned into a zeroed block of
whole words, packs it with one `np.packbits` and reads the words. Each
layout above is its fields' planes concatenated in field order (RoE fills
one block of them row by row, each row in its mode), and `_pack`/`_unpack`
map the flat bit sequence to bytes, zero padding the last byte. Decoding
is total: a stream whose length differs from the size its header
declares, whose pad bits are set, or whose fields break a layout rule
raises a `FormatError` subclass, and any stream that loads re-serializes
to the same bytes. A stream that loads is also the encoder's
stream of the tensor it holds: every stored pair or pool value is effectual
under the header's criterion, an RoE brick is raw exactly when its
effectual count does not fit, and nothing past the logical depth is
nonzero.

A pair table (the ZFNAf and RoE containers, and the table VIAI, CVIAI and
the dispatcher's fetch-time source compute) front-packs each brick's kept
values by rank, not by sort: the kept positions listed row-major are the
packed order, and each goes to its row's first slot plus its rank among
that row's kept positions.

Footprint accounting is exact: overhead ratios are `fractions.Fraction`
values against the raw cost of X*Y*I*16 bits.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError, TruncatedError, ValidationError
from .sparsity import ZERO, IneffCriterion, _KINDS
from .tensor import (ActTensor, Brick, _as_int16, _brick_row, _brick_size, _exclusive_cumsum,
                     _int_array, _int_in, _require_type, pad_depth)

VALUE_BITS = 16


def offset_bits_for(brick: int) -> int:
    """Bits needed to address an offset within a brick of the given size."""
    return (_brick_size(brick) - 1).bit_length()


def pointer_bits_for(pool_size: int) -> int:
    """Width of a pointer that must address offsets 0..pool_size inclusive."""
    return int(pool_size).bit_length()


def _roe_slots(brick: int) -> tuple[int, int]:
    """Width of RoE's ``offset << 16 | value`` pair field, and how many whole
    fields fit its B*16-bit payload."""
    width = VALUE_BITS + offset_bits_for(brick)
    return width, brick * VALUE_BITS // width


def _roe_fits(pairs, brick: int):
    """Whether ``pairs`` (offset, value) pairs fit RoE's payload; a tie fits."""
    return pairs <= _roe_slots(brick)[1]


# ---------------------------------------------------------------------------
# the field packer
# ---------------------------------------------------------------------------


def _word_bytes(width: int) -> int:
    """Bytes of the narrowest machine word that holds a ``width``-bit field."""
    return next(n for n in (1, 2, 4, 8) if 8 * n >= width)


def _bits(values, width: int) -> np.ndarray:
    """MSB-first bit planes of unsigned ``width``-bit fields, from one flat
    `np.unpackbits` over the fields' big-endian words.

    Returns uint8 of shape ``values.shape + (width,)``; negative int16 values
    come out as their two's complement.
    """
    n = _word_bytes(width)
    words = np.asarray(values).astype(f">u{n}", order="C")
    planes = np.unpackbits(words.reshape(-1).view(np.uint8)).reshape(words.shape + (8 * n,))
    return planes[..., 8 * n - width:]


def _ints(bits: np.ndarray) -> np.ndarray:
    """Inverse of `_bits`: int64 fields from MSB-first planes on the last axis,
    which may be a strided view. The planes go right-aligned into a zeroed
    block of whole big-endian words, packed by one flat `np.packbits`; a
    64-bit field wraps to negative, and 0 planes read 0."""
    width = bits.shape[-1]
    n = _word_bytes(width)
    block = np.zeros(bits.shape[:-1] + (8 * n,), dtype=np.uint8)
    block[..., 8 * n - width:] = bits
    return np.packbits(block).view(f">u{n}").reshape(bits.shape[:-1]).astype(np.int64)


def _pack(*segments: np.ndarray) -> bytes:
    """Bit planes joined along their last axis, then flattened row by row
    into bytes by one `np.packbits`; the last byte is zero padded."""
    return np.packbits(np.concatenate(segments, axis=-1)).tobytes()


def _unpack(body: bytes, nbits: int) -> np.ndarray:
    """The first ``nbits`` bits of ``body``, which must hold exactly them."""
    need = -(-nbits // 8)
    if len(body) < need:
        raise TruncatedError(f"payload of {len(body)} bytes is shorter than the "
                             f"{need} bytes ({nbits} bits) its header declares")
    if len(body) > need:
        raise FormatError(f"{len(body) - need} trailing bytes after the "
                          f"{need}-byte payload its header declares")
    bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8))
    if bits[nbits:].any():
        raise FormatError("pad bits after the last field are not zero")
    return bits[:nbits]


# ---------------------------------------------------------------------------
# tensor-level stores
# ---------------------------------------------------------------------------


class Format(enum.Enum):
    RAW = "raw"
    ZFNAF = "zfnaf"
    ROE = "roe"
    VIAI = "viai"
    CVIAI = "cviai"

    @property
    def tag(self) -> int:
        return _STREAM_TAGS.index(self)


# a format's stream tag is its index here
_STREAM_TAGS = (Format.RAW, Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI)


@dataclass(frozen=True)
class FootprintReport:
    """Exact storage cost of one format over one tensor."""

    format: Format
    total_bits: int
    raw_bits: int

    @property
    def overhead(self):
        """(total - raw) / raw as an exact `fractions.Fraction`; negative means
        compression."""
        from fractions import Fraction  # only here: importing the package skips it
        return Fraction(self.total_bits - self.raw_bits, self.raw_bits)

    @property
    def ratio(self):
        """total / raw as an exact `fractions.Fraction`."""
        return self.overhead + 1


def _container_bits(fmt: Format, n_bricks: int, brick: int, kept: int = 0) -> int:
    """Exact payload size of ``n_bricks`` bricks; ``kept`` is CVIAI's pool size."""
    if fmt is Format.RAW:
        return n_bricks * brick * VALUE_BITS
    if fmt is Format.ZFNAF:
        return n_bricks * brick * (VALUE_BITS + offset_bits_for(brick))
    if fmt is Format.ROE:
        return n_bricks * (1 + brick * VALUE_BITS)
    if fmt is Format.VIAI:
        return n_bricks * brick * (1 + VALUE_BITS)
    if fmt is Format.CVIAI:
        return n_bricks * brick + kept * VALUE_BITS + n_bricks * pointer_bits_for(kept)
    raise ConfigurationError(f"unknown format {fmt!r}")


def _footprint(fmt: Format, dims: tuple[int, int, int], brick: int,
               kept: int = 0) -> FootprintReport:
    x, y, i = dims
    n_bricks = x * y * (i // brick)
    return FootprintReport(fmt, _container_bits(fmt, n_bricks, brick, kept),
                           _container_bits(Format.RAW, n_bricks, brick))


def _tensor_values(acts, brick: int) -> tuple[np.ndarray, int]:
    """Normalize to a depth-padded (X, Y, I) integer array plus logical depth;
    an `ActTensor`'s values past its logical depth must be zero padding. Its
    constructor checks that too, but its values stay writable."""
    if isinstance(acts, ActTensor):
        if acts.values[..., acts.logical_i:].any():
            raise ConfigurationError(f"activation values past the logical depth "
                                     f"{acts.logical_i} are not zero")
        return pad_depth(acts.values, brick), acts.logical_i
    arr = _int_array(acts, 3, "activation tensor")
    return pad_depth(arr, brick), arr.shape[2]


_HEADER = struct.Struct(">BIIIIHBH")  # tag, X, Y, I, logical_i, B, crit kind, crit param


def _unpack_header(data: bytes) -> tuple[Format, int, int, int, int, int, IneffCriterion, bytes]:
    if len(data) < _HEADER.size:
        raise TruncatedError(f"stream of {len(data)} bytes is shorter than the header")
    tag, x, y, i, logical_i, brick, kind, param = _HEADER.unpack_from(data)
    if tag >= len(_STREAM_TAGS):
        raise FormatError(f"unknown format tag {tag}")
    if kind >= len(_KINDS):
        raise FormatError(f"unknown criterion tag {kind}")
    try:
        crit = IneffCriterion(_KINDS[kind], param)
    except ValidationError as exc:
        raise FormatError(f"bad criterion in header: {exc}") from None
    if 0 in (x, y, i, brick):
        raise FormatError(f"header declares an empty tensor: dims ({x}, {y}, {i}), "
                          f"brick {brick}")
    if i % brick != 0:
        raise FormatError(f"depth {i} is not a multiple of brick size {brick}")
    _int_in(logical_i, 1, i, "logical depth", FormatError)
    return _STREAM_TAGS[tag], x, y, i, logical_i, brick, crit, data[_HEADER.size:]


class _ActSource:
    """An activation source the dispatcher reads: dims, logical depth, brick,
    criterion, and `_index`, a brick's pair-table row (BoundsError outside the
    tensor). `brick_pairs` and `pair_table` read the pairs by separate paths."""

    def __init__(self, dims: tuple[int, int, int], logical_i: int, brick: int,
                 crit: IneffCriterion):
        self.x, self.y, self.i = dims
        self.logical_i = logical_i
        self.brick = _brick_size(brick)
        self.crit = crit

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.i)

    def _index(self, x: int, y: int, ib: int) -> int:
        return _brick_row(self.dims, self.brick, x, y, ib)


class _Store(_ActSource):
    """Header and footprint shared by the four encoded stores.

    Subclasses build themselves from a (bricks, B) value matrix and its
    effectuality mask (`_from_values`), write their payload (`_body`) and
    read it back (`_read`), each as whole-array operations.
    """

    format: Format = None  # set by subclasses

    def footprint(self) -> FootprintReport:
        return _footprint(self.format, self.dims, self.brick)

    @classmethod
    def encode(cls, acts, crit: IneffCriterion = ZERO, brick: int = 16):
        _require_type(crit, IneffCriterion, "criterion")
        arr, logical = _tensor_values(acts, brick)
        vals = _as_int16(arr, 3, "activation tensor").reshape(-1, brick)
        return cls._from_values((arr.shape, logical, brick, crit), vals, crit.effectual(vals))

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(self.format.tag, self.x, self.y, self.i, self.logical_i,
                            self.brick, _KINDS.index(self.crit.kind), self.crit.param)
        return head + self._body()

    @classmethod
    def from_bytes(cls, data: bytes):
        fmt, x, y, i, logical_i, brick, crit, body = _unpack_header(data)
        if fmt is not cls.format:
            raise FormatError(f"stream holds {fmt.value}, expected {cls.format.value}")
        store = cls._read(((x, y, i), logical_i, brick, crit), x * y * (i // brick), body)
        if logical_i < i and store._held()[..., logical_i:].any():
            raise FormatError(f"a value past the logical depth {logical_i} is not zero")
        return store

    def _held(self) -> np.ndarray:
        """The (X, Y, I) values the stream holds: what it decodes to."""
        return self.decode()


def _check_effectual(crit: IneffCriterion, stored: np.ndarray) -> None:
    """Every value a stream stores as a pair or in a pool is effectual."""
    if crit.ineffectual(stored).any():
        raise FormatError("a stored value is ineffectual under the header's criterion")


def _front_offsets(keep: np.ndarray):
    """The (rows, B) front-packed offsets (intp, zero filled) and (rows,)
    counts (int64) of each row's kept positions, plus ``src``, the kept flat
    positions, and ``dest``, the flat slots they move to.

    No sort: `np.flatnonzero(keep)` lists the kept flat positions row-major,
    which is already the front-packed order. The one at index j of that list
    in row k has rank r = j - (positions kept before row k, the exclusive
    cumsum of the counts) and goes to flat slot k*B + r."""
    n, b = keep.shape
    counts = keep.sum(axis=1)
    src = np.flatnonzero(keep)
    shift = np.arange(0, n * b, b) - _exclusive_cumsum(counts, 0)
    dest = np.arange(len(src)) + np.repeat(shift, counts)
    offsets = np.zeros(n * b, dtype=np.intp)
    offsets[dest] = src % b
    return offsets.reshape(n, b), counts, src, dest


def _front_pack(vals: np.ndarray, keep: np.ndarray):
    """Kept (offset, value) pairs moved to the front of each row, zero filled:
    (rows, B) offsets (intp) and values (int16), and (rows,) counts (int64);
    each kept value goes to the slot `_front_offsets` gives its offset."""
    offsets, counts, src, dest = _front_offsets(keep)
    values = np.zeros(keep.size, dtype=np.int16)
    values[dest] = vals.reshape(-1)[src]
    return offsets, values.reshape(keep.shape), counts


def _mask_pairs(mask: np.ndarray, values: np.ndarray) -> list[tuple[int, int]]:
    """One brick's (offset, value) pairs: its set mask bits in offset order,
    with the values at those offsets."""
    live = np.flatnonzero(mask)
    return list(zip(live.tolist(), values[live].tolist()))


def _check_offsets(offsets: np.ndarray, live: np.ndarray, brick: int) -> None:
    """Stored pair offsets must rise strictly and address the brick."""
    if ((np.diff(offsets, axis=1) <= 0) & live[:, 1:]).any():
        raise FormatError("pair offsets are not strictly increasing")
    if (offsets[live] >= brick).any():
        raise FormatError(f"pair offset {int(offsets[live].max())} outside a brick of {brick}")


class _PairStore(_Store):
    """Front-packed per-brick (offset, value) pairs: ``offsets`` and
    ``values`` of shape (bricks, B), the first ``counts[k]`` slots live."""

    def __init__(self, dims, logical_i, brick, crit, offsets, values, counts):
        super().__init__(dims, logical_i, brick, crit)
        self.offsets = offsets
        self.values = values
        self.counts = counts

    def brick_pairs(self, x: int, y: int, ib: int) -> list[tuple[int, int]]:
        k = self._index(x, y, ib)
        n = self.counts[k]
        return list(zip(self.offsets[k, :n].tolist(), self.values[k, :n].tolist()))

    def pair_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Front-packed ``offsets``, ``values`` and ``counts`` of every brick."""
        return self.offsets, self.values, self.counts

    def decode(self) -> np.ndarray:
        live = np.arange(self.brick) < self.counts[:, None]
        out = np.zeros(self.offsets.shape, dtype=np.int16)
        out[np.nonzero(live)[0], self.offsets[live]] = self.values[live]
        return out.reshape(self.dims)


class ZfnafStore(_PairStore):
    format = Format.ZFNAF

    @classmethod
    def _from_values(cls, meta, vals, keep):
        return cls(*meta, *_front_pack(vals, keep))

    def _body(self) -> bytes:
        return _pack(_bits(self.values, VALUE_BITS),
                     _bits(self.offsets, offset_bits_for(self.brick)))

    @classmethod
    def _read(cls, meta, n, body):
        brick = meta[2]
        slots = _unpack(body, _container_bits(cls.format, n, brick)).reshape(n, brick, -1)
        values = _ints(slots[..., :VALUE_BITS]).astype(np.int16)
        offsets = _ints(slots[..., VALUE_BITS:])
        live = values != 0
        if (offsets[~live] != 0).any():
            raise FormatError("nonzero offset in a zero-filled slot")
        if (live & np.logical_or.accumulate(~live, axis=1)).any():
            raise FormatError("value slot found after the zero-fill sentinel")
        _check_offsets(offsets, live, brick)
        _check_effectual(meta[3], values[live])
        return cls(*meta, offsets, values, live.sum(axis=1))


def _with_raw_rows(encoded, offsets, values, counts, raw_values):
    """Fill RoE's raw-mode rows with all B pairs of ``raw_values``, the raw
    rows' dense values in row order."""
    raw = ~encoded
    offsets[raw] = np.arange(offsets.shape[1])
    values[raw] = raw_values
    counts[raw] = offsets.shape[1]
    return encoded, offsets, values, counts


class RoeStore(_PairStore):
    """``encoded`` holds each brick's mode bit. A raw-mode brick stores all B
    pairs, because its container carries no skip information."""

    format = Format.ROE

    def __init__(self, dims, logical_i, brick, crit, encoded, offsets, values, counts):
        super().__init__(dims, logical_i, brick, crit, offsets, values, counts)
        self.encoded = encoded

    @classmethod
    def _from_values(cls, meta, vals, keep):
        offsets, values, counts = _front_pack(vals, keep)
        encoded = _roe_fits(counts, meta[2])
        return cls(*meta, *_with_raw_rows(encoded, offsets, values, counts, vals[~encoded]))

    def _body(self) -> bytes:
        """One (bricks, 1 + B*16) plane block, each row converted in its own
        mode only: the mode bit, then an encoded row's k whole pair fields
        (``offset << 16 | value``, the value as its uint16 two's complement),
        zero filled, or a raw row's B values. Slices of the block are
        reshaped into field views, so each row's planes land in place."""
        n, brick = self.values.shape
        width, k = _roe_slots(brick)
        enc, raw = self.encoded, ~self.encoded
        block = np.zeros((n, 1 + brick * VALUE_BITS), dtype=np.uint8)
        block[:, 0] = enc
        fields = self.offsets[enc, :k] << VALUE_BITS | self.values[enc, :k].astype(np.uint16)
        block[:, 1:1 + k * width].reshape(n, k, width)[enc] = _bits(fields, width)
        block[:, 1:].reshape(n, brick, VALUE_BITS)[raw] = _bits(self.values[raw], VALUE_BITS)
        return np.packbits(block).tobytes()

    @classmethod
    def _read(cls, meta, n, body):
        """Each row read in its own mode only: a raw row's payload bits as B
        values, an encoded row's k whole slots as one-field ints, whose high
        bits are the offset and low 16 the value; no extended copy of the
        payload is made. An encoded row's pairs end at its first zero value,
        and that field, every field after it and every bit after the k slots
        must be zero."""
        brick, crit = meta[2], meta[3]
        width, k = _roe_slots(brick)
        bits = _unpack(body, _container_bits(cls.format, n, brick)).reshape(n, -1)
        encoded = bits[:, 0].astype(bool)
        enc, raw = np.flatnonzero(encoded), np.flatnonzero(~encoded)
        if bits[enc, 1 + k * width:].any():
            raise FormatError("RoE padding bits are not zero")
        fields = _ints(bits[enc, 1:1 + k * width].reshape(-1, k, width))
        offs, vals = fields >> VALUE_BITS, fields.astype(np.int16)
        live = np.logical_and.accumulate(vals != 0, axis=1)
        if (fields.astype(bool) & ~live).any():
            raise FormatError("RoE padding bits are not zero")
        _check_offsets(offs, live, brick)
        _check_effectual(crit, vals[live])
        raw_values = _ints(bits[raw, 1:].reshape(-1, brick, VALUE_BITS)).astype(np.int16)
        if _roe_fits(crit.effectual(raw_values).sum(axis=1), brick).any():
            raise FormatError("a raw-mode RoE brick's effectual values fit the encoded mode")
        offsets = np.zeros((n, brick), dtype=np.int64)
        values = np.zeros((n, brick), dtype=np.int16)
        counts = np.zeros(n, dtype=np.int64)
        offsets[enc, :k], values[enc, :k], counts[enc] = offs, vals, live.sum(axis=1)
        return cls(*meta, *_with_raw_rows(encoded, offsets, values, counts, raw_values))


class ViaiStore(_Store):
    """``masks`` and in-place raw ``values``, both of shape (bricks, B)."""

    format = Format.VIAI

    def __init__(self, dims, logical_i, brick, crit, masks, values):
        super().__init__(dims, logical_i, brick, crit)
        self.masks = masks
        self.values = values

    @classmethod
    def _from_values(cls, meta, vals, keep):
        return cls(*meta, keep, vals.copy())

    def brick_pairs(self, x: int, y: int, ib: int) -> list[tuple[int, int]]:
        k = self._index(x, y, ib)
        return _mask_pairs(self.masks[k], self.values[k])

    def pair_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Front-packed offsets, values and counts of the masked-in values."""
        return _front_pack(self.values, self.masks)

    def decode(self) -> np.ndarray:
        return np.where(self.masks, self.values, 0).astype(np.int16).reshape(self.dims)

    def _held(self) -> np.ndarray:
        return self.values.reshape(self.dims)  # ineffectual values too

    def _body(self) -> bytes:
        n = len(self.masks)
        return _pack(self.masks, _bits(self.values, VALUE_BITS).reshape(n, -1))

    @classmethod
    def _read(cls, meta, n, body):
        brick = meta[2]
        bits = _unpack(body, _container_bits(cls.format, n, brick)).reshape(n, -1)
        values = _ints(bits[:, brick:].reshape(n, brick, VALUE_BITS)).astype(np.int16)
        masks = bits[:, :brick].astype(bool)
        if not np.array_equal(masks, meta[3].effectual(values)):
            raise FormatError("VIAI mask bits differ from the criterion's effectual values")
        return cls(*meta, masks, values)


def _pointers(masks: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of the (bricks, B) masks' row populations."""
    return _exclusive_cumsum(masks.sum(axis=1, dtype=np.int64), 0)


class CviaiStore(_Store):
    """Tensor-wide compressed store: masks, one packed value pool, and IR."""

    format = Format.CVIAI

    def __init__(self, dims: tuple[int, int, int], logical_i: int, brick: int,
                 crit: IneffCriterion, masks: np.ndarray, packed: np.ndarray,
                 ir: np.ndarray):
        super().__init__(dims, logical_i, brick, crit)
        self.masks = masks      # (bricks, B) bool, one row per brick in (x, y, brick) order
        self.packed = packed    # (n_effectual,) int16
        self.ir = ir            # (bricks,) int64: each brick row's start offset into packed

    @property
    def pointer_bits(self) -> int:
        return pointer_bits_for(len(self.packed))

    @classmethod
    def _from_values(cls, meta, vals, keep):
        return cls(*meta, keep, vals[keep], _pointers(keep))

    def fetch(self, x: int, y: int, ib: int) -> tuple[np.ndarray, np.ndarray]:
        """Mask and packed effectual values of one brick, via the IR pointer."""
        k = self._index(x, y, ib)
        mask, start = self.masks[k], int(self.ir[k])
        return mask.copy(), self.packed[start : start + int(mask.sum())].copy()

    def brick_pairs(self, x: int, y: int, ib: int) -> list[tuple[int, int]]:
        mask, vals = self.fetch(x, y, ib)
        return list(zip(np.flatnonzero(mask).tolist(), vals.tolist()))

    def pair_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Front-packed offsets, values and counts of every brick; the value
        of a brick's pair of rank r is read through IR as ``packed[ir + r]``;
        flat slot ``dest`` of brick row k holds rank ``dest - k*B``."""
        offsets, counts, _, dest = _front_offsets(self.masks)
        row_start = np.arange(0, self.masks.size, self.brick)
        values = np.zeros(self.masks.size, dtype=np.int16)
        values[dest] = self.packed[np.repeat(self.ir - row_start, counts) + dest]
        return offsets, values.reshape(self.masks.shape), counts

    def decode(self) -> np.ndarray:
        out = np.zeros(self.dims, dtype=np.int16)
        out[self.masks.reshape(self.dims)] = self.packed
        return out

    def footprint(self) -> FootprintReport:
        return _footprint(self.format, self.dims, self.brick, len(self.packed))

    def _body(self) -> bytes:
        segments = (self.masks, _bits(self.packed, VALUE_BITS), _bits(self.ir, self.pointer_bits))
        return struct.pack(">Q", len(self.packed)) + _pack(*(s.reshape(-1) for s in segments))

    @classmethod
    def _read(cls, meta, n, body):
        if len(body) < 8:
            raise TruncatedError("stream ends before the pool size field")
        (pool,) = struct.unpack_from(">Q", body)
        brick = meta[2]
        bits = _unpack(body[8:], _container_bits(cls.format, n, brick, pool))
        masks, bits = bits[: n * brick].reshape(n, brick).astype(bool), bits[n * brick:]
        if int(masks.sum()) != pool:
            raise FormatError(f"mask population {int(masks.sum())} != declared pool size {pool}")
        packed = _ints(bits[: pool * VALUE_BITS].reshape(pool, VALUE_BITS)).astype(np.int16)
        _check_effectual(meta[3], packed)
        ir = _ints(bits[pool * VALUE_BITS:].reshape(n, pointer_bits_for(pool)))
        if not np.array_equal(ir, _pointers(masks)):
            raise FormatError("IR pointers differ from the prefix sums of the mask populations")
        return cls(*meta, masks, packed, ir)


encode_cviai = CviaiStore.encode  # values pack in (x, y, brick) traversal order


_STORE_TYPES = {
    Format.ZFNAF: ZfnafStore,
    Format.ROE: RoeStore,
    Format.VIAI: ViaiStore,
    Format.CVIAI: CviaiStore,
}


def encode_store(fmt: Format, acts, crit: IneffCriterion = ZERO, brick: int = 16):
    """Encode a tensor in any of the four sparse formats."""
    if fmt not in _STORE_TYPES:
        raise ConfigurationError(f"cannot build an encoded store for format {fmt}")
    return _STORE_TYPES[fmt].encode(acts, crit, brick)


def deserialize_store(data: bytes):
    """Rebuild whichever store type the stream's format tag declares."""
    fmt = _unpack_header(data)[0]
    if fmt not in _STORE_TYPES:
        raise FormatError(f"format {fmt.value} has no serialized store form")
    return _STORE_TYPES[fmt].from_bytes(data)


def footprint_bits(fmt: Format, acts, crit: IneffCriterion = ZERO, brick: int = 16) -> FootprintReport:
    """Exact bit cost of storing ``acts`` in the given format.

    Container sizes are content independent for ZFNAf, RoE, and VIAI; CVIAI
    depends on how many values the criterion keeps. Value fields are always
    counted at 16 bits.
    """
    _require_type(crit, IneffCriterion, "criterion")
    brick = _brick_size(brick)
    arr, _ = _tensor_values(acts, brick)
    kept = int(crit.effectual(arr).sum()) if fmt is Format.CVIAI else 0
    return _footprint(fmt, arr.shape, brick, kept)


# ---------------------------------------------------------------------------
# per-brick views: each encodes its brick as a one-row store of its format and
# reads every field off it, decoding included; the rules live in the stores
# ---------------------------------------------------------------------------


class _BrickView:
    """One brick's container: its one-row ``store``, plus where the brick sits."""

    store_type: type[_Store]

    def __init__(self, brick: Brick, crit: IneffCriterion = ZERO):
        self.x, self.y, self.i = brick.x, brick.y, brick.i
        self.store = self.store_type.encode(brick.values.reshape(1, 1, -1), crit, brick.size)

    @property
    def brick(self) -> int:
        return self.store.brick

    @property
    def offset_bits(self) -> int:
        return offset_bits_for(self.brick)

    @property
    def container_bits(self) -> int:
        return self.store.footprint().total_bits


class ZfnafBrick(_BrickView):
    """One brick with its ineffectual values dropped and their offsets kept:
    front-packed (value, offset) slots in a fixed-size container."""

    store_type = ZfnafStore

    @property
    def pairs(self) -> list[tuple[int, int]]:  # (offset, value), offsets rising
        return self.store.brick_pairs(0, 0, 0)


class RoeBrick(_BrickView):
    """One mode bit plus either packed pairs or the raw values."""

    store_type = RoeStore

    @property
    def encoded(self) -> bool:
        return bool(self.store.encoded[0])

    @property
    def pairs(self) -> list[tuple[int, int]]:  # none for a raw-mode brick
        return self.store.brick_pairs(0, 0, 0) if self.encoded else []

    @property
    def raw(self) -> np.ndarray | None:
        return None if self.encoded else self.store.values[0]

    def bits_used(self, offset_bits: int | None = None) -> int:
        """Bits the stored form occupies inside the container; ``offset_bits``
        overrides the packed offset width for accounting studies."""
        if not self.encoded:
            return self.container_bits
        ob = self.offset_bits if offset_bits is None else offset_bits
        return 1 + len(self.pairs) * (VALUE_BITS + ob)


class ViaiBrick(_BrickView):
    """Raw values left in place plus one effectuality bit per offset."""

    store_type = ViaiStore

    @property
    def mask(self) -> np.ndarray:
        return self.store.masks[0]

    @property
    def values(self) -> np.ndarray:
        return self.store.values[0]


# each encoder is its view's constructor; one rule decodes every view
encode_zfnaf, encode_roe, encode_viai = ZfnafBrick, RoeBrick, ViaiBrick


def _decode_view(view: _BrickView) -> Brick:
    """The brick as its store decodes it: dropped positions read 0, except in
    a raw-mode RoE brick, which kept every value."""
    return Brick(view.x, view.y, view.i, view.store.decode().reshape(-1))


decode_zfnaf = decode_roe = decode_viai = _decode_view
