import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparseaccel import (ActTensor, CviaiStore, Format, IneffCriterion, RoeStore,
                         ViaiStore, ZERO, ZfnafStore, decode_roe, decode_viai,
                         decode_zfnaf, deserialize_store, encode_cviai, encode_roe,
                         encode_store, encode_viai, encode_zfnaf, footprint_bits,
                         offset_bits_for, pointer_bits_for)
from sparseaccel.encodings import _bits, _front_pack, _ints
from sparseaccel.errors import (BoundsError, FormatError, TruncatedError)
from sparseaccel.tensor import Brick

from helpers import (TwoReadingRoeStore, argsort_front_pack, plane_loop_bits, plane_loop_ints,
                     slow_brick_codec, slow_container_bytes)

# header layout, rebuilt here from first principles so the byte-level
# goldens do not lean on the code under test
HDR = struct.Struct(">BIIIIHBH")
TAG = {"raw": 0, "zfnaf": 1, "roe": 2, "viai": 3, "cviai": 4}


def header(fmt: str, x=1, y=1, i=4, li=4, b=4, kind=0, param=0) -> bytes:
    return HDR.pack(TAG[fmt], x, y, i, li, b, kind, param)


def bitstream(*fields) -> bytes:
    """(value, width) fields MSB first, zero padded to whole bytes."""
    text = "".join(format(v, f"0{w}b") if w else "" for v, w in fields)
    text += "0" * (-len(text) % 8)
    return int(text, 2).to_bytes(len(text) // 8, "big")


def one_brick(values) -> Brick:
    return Brick(0, 0, 0, np.array(values, dtype=np.int16))


def tensor(values) -> ActTensor:
    arr = np.array(values, dtype=np.int16).reshape(1, 1, -1)
    return ActTensor(arr)


# -- widths ---------------------------------------------------------------

def test_offset_bits():
    assert offset_bits_for(1) == 0
    assert offset_bits_for(2) == 1
    assert offset_bits_for(4) == 2
    assert offset_bits_for(16) == 4
    assert offset_bits_for(17) == 5
    assert offset_bits_for(21) == 5


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 32), st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=12),
       st.integers(1, 3))
def test_ints_reads_back_bits_on_strided_views(width, values, step):
    """`_ints(_bits(v, w))` is v mod 2^w, also on the strided plane views the
    decoders pass: every step-th field, cut from planes of two fields."""
    v = np.array(values, dtype=np.int64)
    assert _ints(_bits(v, width)).tolist() == [x % (1 << width) for x in values]
    planes = np.concatenate([_bits(v, width), _bits(~v, 5)], axis=-1)[::step, :width]
    got = _ints(planes)
    assert got.dtype == np.int64
    assert got.tolist() == [x % (1 << width) for x in values[::step]]


# -- the flat field packer against the plane-by-plane loop ------------------

PACKER_WIDTHS = (0, 1, 4, 7, 8, 9, 16, 20, 31, 32, 33, 48, 63, 64)
# int64 fields of either sign; negative int16 too; zero fields; every other
# row, with the planes cut from a wider concatenation; and a transposed view
PACKER_LAYOUTS = ("int64", "int16", "empty", "strided", "transposed")


def packer_case(width, layout, rows, cols, seed):
    """Fields and their MSB-first planes, both in ``layout``."""
    rng = np.random.default_rng(seed)
    shape = (0, cols) if layout == "empty" else (rows, cols)
    if layout == "int16":
        values = rng.integers(-2**15, 2**15, size=shape).astype(np.int16)
    else:
        values = rng.integers(-2**63, 2**63, size=shape, dtype=np.int64)
    if layout == "strided":
        planes = np.concatenate([plane_loop_bits(values, width), plane_loop_bits(~values, 5)],
                                axis=-1)[::2, :, :width]
        return values[::2], planes
    if layout == "transposed":
        return values.T, plane_loop_bits(values, width).transpose(1, 0, 2)
    return values, plane_loop_bits(values, width)


def assert_packer_matches_the_plane_loop(values, planes):
    """`_bits` and `_ints` give the plane loop's bits and dtypes; the loop's
    `_bits` reads a C-ordered copy, since it cannot view a transposed word
    array as bytes."""
    width = planes.shape[-1]
    got, want = _bits(values, width), plane_loop_bits(np.ascontiguousarray(values), width)
    assert got.dtype == want.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)
    got, want = _ints(planes), plane_loop_ints(planes)
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("layout", PACKER_LAYOUTS)
@pytest.mark.parametrize("width", PACKER_WIDTHS)
def test_packer_matches_the_plane_loop(width, layout):
    assert_packer_matches_the_plane_loop(*packer_case(width, layout, 6, 5, width))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 64), st.sampled_from(PACKER_LAYOUTS), st.integers(1, 9),
       st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_packer_matches_the_plane_loop_property(width, layout, rows, cols, seed):
    assert_packer_matches_the_plane_loop(*packer_case(width, layout, rows, cols, seed))


def test_pointer_bits():
    # a pool of N values needs pointers that can say "N" as well as 0..N-1
    assert pointer_bits_for(0) == 0
    assert pointer_bits_for(1) == 1
    assert pointer_bits_for(2) == 2
    assert pointer_bits_for(255) == 8
    assert pointer_bits_for(256) == 9


# -- zfnaf ---------------------------------------------------------------

def test_zfnaf_pairs_and_container():
    zb = encode_zfnaf(one_brick([1, 0, 2, 0]))
    assert zb.pairs == [(0, 1), (2, 2)]
    assert zb.offset_bits == 2
    assert zb.container_bits == 4 * 18
    assert decode_zfnaf(zb).values.tolist() == [1, 0, 2, 0]


def test_zfnaf_golden_bytes():
    store = ZfnafStore.encode(tensor([1, 0, 2, 0]), ZERO, brick=4)
    want = header("zfnaf") + bytes.fromhex("000100 00A0 00000000".replace(" ", ""))
    assert store.to_bytes() == want


def test_zfnaf_threshold_drops_values():
    zb = encode_zfnaf(one_brick([1, -2, 0, 4]), IneffCriterion.abs_threshold(2))
    assert zb.pairs == [(3, 4)]
    assert decode_zfnaf(zb).values.tolist() == [0, 0, 0, 4]


def test_zfnaf_all_zero_brick():
    zb = encode_zfnaf(one_brick([0, 0, 0, 0]))
    assert zb.pairs == []
    assert decode_zfnaf(zb).values.tolist() == [0, 0, 0, 0]


def test_zfnaf_rejects_nonzero_offset_in_zero_slot():
    body = bytes.fromhex("000040000000000000")
    with pytest.raises(FormatError, match="zero-filled slot"):
        ZfnafStore.from_bytes(header("zfnaf") + body)


def test_zfnaf_rejects_value_after_sentinel():
    body = bytes.fromhex("000000005000000000")
    with pytest.raises(FormatError, match="sentinel"):
        ZfnafStore.from_bytes(header("zfnaf") + body)


def test_zfnaf_rejects_non_increasing_offsets():
    body = bytes.fromhex("00058001E000000000")
    with pytest.raises(FormatError, match="increasing"):
        ZfnafStore.from_bytes(header("zfnaf") + body)


# -- roe -----------------------------------------------------------------

def test_roe_encoded_golden():
    rb = encode_roe(one_brick([1, 2, 0, 0]))
    assert rb.encoded
    assert rb.pairs == [(0, 1), (1, 2)]
    assert rb.container_bits == 65
    assert rb.bits_used() == 1 + 2 * 18  # 37 at the packed 2-bit offset width
    assert rb.bits_used(offset_bits=4) == 41  # 4-bit-offset accounting
    store = RoeStore.encode(tensor([1, 2, 0, 0]), ZERO, brick=4)
    assert store.to_bytes() == header("roe") + bytes.fromhex("800028001000000000")


def test_roe_raw_fallback():
    rb = encode_roe(one_brick([2, 1, 3, 4]))  # 4 pairs * 18 > 64 payload bits
    assert not rb.encoded
    assert rb.bits_used() == 65
    assert decode_roe(rb).values.tolist() == [2, 1, 3, 4]


def test_roe_exact_fit_tie_prefers_encoded():
    # brick 21 has 5-bit offsets; 16 pairs use exactly 16*21 = 336 = 21*16 bits
    vals = np.zeros(21, dtype=np.int16)
    vals[:16] = np.arange(1, 17)
    rb = encode_roe(Brick(0, 0, 0, vals))
    assert rb.encoded
    assert rb.bits_used() == 1 + 21 * 16
    vals[16] = 17  # one more pair no longer fits
    assert not encode_roe(Brick(0, 0, 0, vals)).encoded


def test_roe_roundtrips_both_modes():
    for vals in ([1, 2, 0, 0], [2, 1, 3, 4], [0, 0, 0, 0]):
        store = RoeStore.encode(tensor(vals), ZERO, brick=4)
        back = RoeStore.from_bytes(store.to_bytes())
        assert back.decode().reshape(-1).tolist() == vals


def test_roe_rejects_dirty_padding():
    body = bytes.fromhex("8000000000000000" + "80")
    with pytest.raises(FormatError, match="padding"):
        RoeStore.from_bytes(header("roe") + body)
    # three whole pairs fill 54 of 64 payload bits; the 10 left hold no pair
    full = bitstream((1, 1), (0, 2), (1, 16), (1, 2), (2, 16), (2, 2), (3, 16), (3, 2), (1, 8))
    with pytest.raises(FormatError, match="padding"):
        RoeStore.from_bytes(header("roe") + full)


def test_roe_raw_mode_streams_every_offset():
    store = RoeStore.encode(tensor([2, 1, 3, 4]), ZERO, brick=4)
    assert store.brick_pairs(0, 0, 0) == [(0, 2), (1, 1), (2, 3), (3, 4)]
    sparse = RoeStore.encode(tensor([1, 2, 0, 0]), ZERO, brick=4)
    assert sparse.brick_pairs(0, 0, 0) == [(0, 1), (1, 2)]


def test_roe_rejects_a_field_after_the_sentinel():
    # a pair after a zero-value slot, and a zero value under a nonzero offset
    after = bitstream((1, 1), (0, 2), (1, 16), (0, 18), (3, 2), (4, 16), (0, 10))
    with pytest.raises(FormatError, match="padding"):
        RoeStore.from_bytes(header("roe") + after)
    offset_only = bitstream((1, 1), (2, 2), (0, 16), (0, 46))
    with pytest.raises(FormatError, match="padding"):
        RoeStore.from_bytes(header("roe") + offset_only)
    good = bitstream((1, 1), (0, 2), (1, 16), (3, 2), (4, 16), (0, 28))
    assert RoeStore.from_bytes(header("roe") + good).brick_pairs(0, 0, 0) == [(0, 1), (3, 4)]


# -- roe against the two-reading codec it replaced --------------------------

ROE_BRICKS = (1, 2, 3, 4, 15, 16, 17, 64)
# per brick row, how many effectual values it draws: any number; all B on
# even rows and at most what fits on odd ones; more than fit the encoded
# mode (all raw, when any count can be raw); at most what fits; exactly what
# fits (the tie encodes); none
ROE_SHAPES = ("mixed", "alternating", "raw", "encoded", "tie", "empty")
ROE_CRITERIA = (ZERO, IneffCriterion("abs", 5), IneffCriterion("pow2", 3))


def roe_slots_that_fit(brick: int) -> int:
    return brick * 16 // (16 + (brick - 1).bit_length())


def roe_case(brick, shape, seed):
    """A tensor whose brick rows each hold a ``shape`` count of effectual
    values under the criterion, with ineffectual but possibly nonzero
    values elsewhere; with two depth bricks or more (and B > 1), its logical
    depth ends inside the last brick under the mixed shape."""
    rng = np.random.default_rng(seed)
    crit = ROE_CRITERIA[int(rng.integers(len(ROE_CRITERIA)))]
    x, y, nb = (int(v) for v in rng.integers(1, 4, size=3))
    k = roe_slots_that_fit(brick)
    rows = x * y * nb
    counts = {"mixed": rng.integers(0, brick + 1, size=rows),
              "alternating": np.where(np.arange(rows) % 2, rng.integers(0, k + 1, size=rows),
                                      brick),
              "raw": rng.integers(min(k + 1, brick), brick + 1, size=rows),
              "encoded": rng.integers(0, k + 1, size=rows),
              "tie": np.full(rows, k), "empty": np.zeros(rows, dtype=int)}[shape]
    lo = {"zero": 1, "abs": crit.param + 1, "pow2": 1 << crit.param}[crit.kind]
    vals = rng.integers(1 - lo, lo, size=(rows, brick))
    big = rng.integers(lo, 32768, size=(rows, brick)) * rng.choice([-1, 1], size=(rows, brick))
    ranks = rng.random((rows, brick)).argsort(axis=1).argsort(axis=1)
    vals = np.where(ranks < counts[:, None], big, vals).astype(np.int16)
    arr = vals.reshape(x, y, nb * brick)
    cut = int(rng.integers(1, brick)) if nb >= 2 and brick > 1 and shape == "mixed" else 0
    return ActTensor(arr[..., :nb * brick - cut]), crit


def assert_same_roe_store(got, want):
    assert (got.dims, got.logical_i, got.brick, got.crit) == \
        (want.dims, want.logical_i, want.brick, want.crit)
    for field in ("encoded", "offsets", "values", "counts"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@pytest.mark.parametrize("shape", ROE_SHAPES)
@pytest.mark.parametrize("brick", ROE_BRICKS)
def test_roe_codec_matches_the_two_reading_oracle(brick, shape):
    """Bytes, decoded fields and their dtypes equal the two-reading codec's,
    on a seeded case of every brick size and brick-row shape."""
    acts, crit = roe_case(brick, shape, seed=101 * brick + ROE_SHAPES.index(shape))
    store = RoeStore.encode(acts, crit, brick)
    k = roe_slots_that_fit(brick)
    if shape == "raw" and k < brick:
        assert not store.encoded.any()
    elif shape == "alternating" and k < brick:
        assert np.array_equal(store.encoded, np.arange(len(store.encoded)) % 2 == 1)
    elif shape != "mixed":
        assert store.encoded.all()
    if shape == "tie":
        assert (store.counts == k).any()
    assert store.logical_i <= store.i
    oracle = TwoReadingRoeStore.encode(acts, crit, brick)
    assert_same_roe_store(store, oracle)
    blob = store.to_bytes()
    assert blob == oracle.to_bytes()
    back = RoeStore.from_bytes(blob)
    assert_same_roe_store(back, TwoReadingRoeStore.from_bytes(blob))
    assert back.to_bytes() == blob


@pytest.mark.parametrize("brick", (1, 2, 3, 4, 5, 16, 17))
def test_roe_bit_flips_are_refused_as_the_two_reading_oracle_refuses(brick):
    """Every single-bit flip of a stream that mixes raw and encoded bricks:
    the reader refuses it exactly when the two-reading codec does, and the
    stores agree when both load it."""
    acts, crit = roe_case(brick, "alternating", seed=7 * brick)
    blob = RoeStore.encode(acts, crit, brick).to_bytes()
    loaded = 0
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 0x80 >> bit % 8
        try:
            want = TwoReadingRoeStore.from_bytes(bytes(flipped))
        except FormatError:
            with pytest.raises(FormatError):
                RoeStore.from_bytes(bytes(flipped))
            continue
        assert_same_roe_store(RoeStore.from_bytes(bytes(flipped)), want)
        loaded += 1
    assert loaded > 0


# -- viai ----------------------------------------------------------------

def test_viai_golden_mask_and_bytes():
    vb = encode_viai(one_brick([1, 2, 0, 4]))
    assert vb.mask.tolist() == [True, True, False, True]
    assert vb.container_bits == 4 * 17
    store = ViaiStore.encode(tensor([1, 2, 0, 4]), ZERO, brick=4)
    assert store.to_bytes() == header("viai") + bytes.fromhex("D00010002000000040")


def test_viai_threshold_zeroes_on_decode():
    vb = encode_viai(one_brick([1, 2, 0, 4]), IneffCriterion.abs_threshold(2))
    assert vb.mask.tolist() == [False, False, False, True]
    assert vb.values.tolist() == [1, 2, 0, 4]  # raw values stay in place
    assert decode_viai(vb).values.tolist() == [0, 0, 0, 4]


def test_viai_store_pairs():
    store = ViaiStore.encode(tensor([1, 2, 0, 4]), ZERO, brick=4)
    assert store.brick_pairs(0, 0, 0) == [(0, 1), (1, 2), (3, 4)]


# -- per-brick codecs against the slow restatement --------------------------

# 16 pairs of a 21-brick fill RoE's 336 payload bits exactly: encoded; 17 do
# not fit: raw; one 16-bit pair ties a 16-bit payload
ROE_FIT_CASES = [(21, "zero", 5, 0), (21, "zero", 4, 0), (1, "zero", 0, 0)]


def assert_brick_codecs_match_the_slow_restatement(brick, spec, zeros, seed):
    rng = np.random.default_rng(seed)
    vals = rng.integers(-32768, 32768, size=brick).astype(np.int16)
    vals[rng.permutation(brick)[:zeros]] = 0
    b = Brick(int(rng.integers(0, 9)), int(rng.integers(0, 9)), brick * int(rng.integers(0, 9)),
              vals)
    crit = IneffCriterion.parse(spec)
    want = {fmt: slow_brick_codec(fmt, vals, crit.kind, crit.param)
            for fmt in ("zfnaf", "roe", "viai")}
    where = (b.x, b.y, b.i)

    zb, w = encode_zfnaf(b, crit), want["zfnaf"]
    assert ((zb.x, zb.y, zb.i), zb.brick, zb.pairs) == (where, brick, w.pairs)
    assert (zb.offset_bits, zb.container_bits) == (w.offset_bits, w.container_bits)
    back = decode_zfnaf(zb)
    assert ((back.x, back.y, back.i), back.values.tolist()) == (where, w.decoded)

    rb, w = encode_roe(b, crit), want["roe"]
    assert ((rb.x, rb.y, rb.i), rb.brick, rb.encoded) == (where, brick, w.encoded)
    assert rb.pairs == (w.pairs if w.encoded else [])
    assert (rb.raw is None) == w.encoded
    if not w.encoded:
        assert rb.raw.tolist() == vals.tolist()
    assert (rb.offset_bits, rb.container_bits) == (w.offset_bits, w.container_bits)
    assert rb.bits_used() == w.bits_used()
    assert rb.bits_used(offset_bits=4) == w.bits_used(offset_bits=4)
    back = decode_roe(rb)
    assert ((back.x, back.y, back.i), back.values.tolist()) == (where, w.decoded)

    vb, w = encode_viai(b, crit), want["viai"]
    assert ((vb.x, vb.y, vb.i), vb.brick) == (where, brick)
    assert (vb.mask.tolist(), vb.values.tolist()) == (w.mask, vals.tolist())
    assert vb.container_bits == w.container_bits
    back = decode_viai(vb)
    assert ((back.x, back.y, back.i), back.values.tolist()) == (where, w.decoded)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 3, 4, 16, 21]),
       st.sampled_from(["zero", "abs:3", "abs:300", "pow2:2", "pow2:9"]),
       st.integers(0, 21), st.integers(0, 2**32 - 1))
@example(*ROE_FIT_CASES[0])
@example(*ROE_FIT_CASES[1])
@example(*ROE_FIT_CASES[2])
def test_brick_codecs_match_the_slow_restatement(brick, spec, zeros, seed):
    assert_brick_codecs_match_the_slow_restatement(brick, spec, zeros, seed)


@pytest.mark.parametrize("brick, spec, zeros, seed", ROE_FIT_CASES)
def test_brick_codecs_match_the_slow_restatement_at_the_roe_fit(brick, spec, zeros, seed):
    assert_brick_codecs_match_the_slow_restatement(brick, spec, zeros, seed)


# -- front-packed pair tables against the stable sort -----------------------

FRONT_PACK_BRICKS = (1, 3, 16, 17, 64)
# contiguous rows; every other column of wider rows; the transpose of a
# (B, rows) array; and the mask as its own values, as CVIAI's pair table
FRONT_PACK_LAYOUTS = ("contiguous", "strided", "transposed", "mask")


def front_pack_table(brick, rows, layout, seed):
    """A (rows, B) int16 table and keep mask in ``layout``; with two rows or
    more, row 0 keeps nothing and row 1 everything."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(-32768, 32768, size=(rows, 2 * brick)).astype(np.int16)
    keep = rng.random((rows, 2 * brick)) < rng.random()
    if rows >= 2:
        keep[0], keep[1] = False, True
    if layout == "strided":
        return vals[:, ::2], keep[:, 1::2]
    vals, keep = vals[:, :brick].copy(), keep[:, :brick].copy()
    if layout == "transposed":
        return vals.T.copy().T, keep.T.copy().T
    return (keep if layout == "mask" else vals), keep


def assert_front_pack_matches_the_stable_sort(vals, keep):
    got, want = _front_pack(vals, keep), argsort_front_pack(vals, keep)
    assert [a.dtype for a in got] == [a.dtype for a in want] == [np.intp, np.int16, np.int64]
    assert all(map(np.array_equal, got, want))


@pytest.mark.parametrize("layout", FRONT_PACK_LAYOUTS)
@pytest.mark.parametrize("brick", FRONT_PACK_BRICKS)
def test_front_pack_matches_the_stable_sort(brick, layout):
    assert_front_pack_matches_the_stable_sort(*front_pack_table(brick, 9, layout, brick))
    assert_front_pack_matches_the_stable_sort(*front_pack_table(brick, 0, layout, brick))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FRONT_PACK_BRICKS), st.integers(0, 12),
       st.sampled_from(FRONT_PACK_LAYOUTS), st.integers(0, 2**32 - 1))
def test_front_pack_matches_the_stable_sort_property(brick, rows, layout, seed):
    assert_front_pack_matches_the_stable_sort(*front_pack_table(brick, rows, layout, seed))


# -- cviai ---------------------------------------------------------------

def test_cviai_golden():
    store = encode_cviai(tensor([1, 0, 0, 4]), ZERO, brick=4)
    mask, vals = store.fetch(0, 0, 0)
    assert mask.tolist() == [True, False, False, True]
    assert vals.tolist() == [1, 4]
    assert store.pointer_bits == pointer_bits_for(2) == 2
    body = bytes.fromhex("9000100040")
    assert store.to_bytes() == header("cviai") + struct.pack(">Q", 2) + body


def test_cviai_ir_is_monotone_and_consistent():
    rng = np.random.default_rng(12)
    arr = rng.integers(-50, 50, size=(3, 4, 32)).astype(np.int16)
    arr[rng.random(arr.shape) < 0.6] = 0
    store = encode_cviai(ActTensor(arr), ZERO, brick=16)
    flat_ir = store.ir.reshape(-1)
    assert (np.diff(flat_ir) >= 0).all()
    assert flat_ir[0] == 0
    # every pointer equals the count of effectual values before its brick
    counts = store.masks.sum(axis=-1).reshape(-1)
    assert np.array_equal(flat_ir, np.concatenate(([0], np.cumsum(counts)[:-1])))
    for (x, y, ib) in [(0, 0, 0), (1, 2, 1), (2, 3, 1)]:
        mask, vals = store.fetch(x, y, ib)
        direct = arr[x, y, ib * 16:(ib + 1) * 16]
        assert np.array_equal(vals, direct[direct != 0])
        assert np.array_equal(mask, direct != 0)
    assert np.array_equal(store.decode(), arr)


def test_cviai_bytes_roundtrip_and_population_check():
    arr = np.array([5, 0, -3, 0, 0, 0, 7, 1], dtype=np.int16).reshape(1, 2, 4)
    store = encode_cviai(ActTensor(arr), ZERO, brick=4)
    blob = store.to_bytes()
    back = CviaiStore.from_bytes(blob)
    assert np.array_equal(back.decode(), arr)
    assert np.array_equal(back.ir, store.ir)
    # first mask bit belongs to value 5 (effectual); clearing it breaks the census
    corrupt = bytearray(blob)
    corrupt[HDR.size + 8] ^= 0x80
    with pytest.raises(FormatError, match="population"):
        CviaiStore.from_bytes(bytes(corrupt))


def test_cviai_bounds():
    store = encode_cviai(tensor([1, 0, 0, 4]), ZERO, brick=4)
    with pytest.raises(BoundsError):
        store.fetch(0, 1, 0)
    with pytest.raises(BoundsError):
        store.fetch(0, 0, 1)


# -- stores, shared behavior ----------------------------------------------

def test_store_header_errors():
    with pytest.raises(TruncatedError):
        deserialize_store(header("zfnaf")[:10])
    bad_tag = bytes([9]) + header("zfnaf")[1:]
    with pytest.raises(FormatError, match="tag"):
        deserialize_store(bad_tag)
    raw_tag = header("raw")
    with pytest.raises(FormatError, match="serialized"):
        deserialize_store(raw_tag)
    bad_crit = header("zfnaf", kind=0, param=7)  # zero criterion with a parameter
    with pytest.raises(FormatError, match="criterion"):
        deserialize_store(bad_crit)


def test_store_type_mismatch():
    blob = ZfnafStore.encode(tensor([1, 0, 2, 0]), ZERO, brick=4).to_bytes()
    with pytest.raises(FormatError, match="expected roe"):
        RoeStore.from_bytes(blob)


def test_store_truncated_body():
    blob = ZfnafStore.encode(tensor([1, 0, 2, 0]), ZERO, brick=4).to_bytes()
    with pytest.raises(TruncatedError):
        ZfnafStore.from_bytes(blob[:-4])


def test_deserialize_store_dispatches_every_format():
    arr = np.array([[[3, 0, -1, 0, 0, 2, 0, 0]]], dtype=np.int16)
    for fmt in (Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI):
        store = encode_store(fmt, ActTensor(arr), ZERO, brick=4)
        back = deserialize_store(store.to_bytes())
        assert type(back) is type(store)
        assert np.array_equal(back.decode(), arr)
        assert back.crit == ZERO and back.brick == 4


def test_store_records_logical_depth():
    arr = np.ones((1, 1, 6), dtype=np.int16)
    store = ZfnafStore.encode(ActTensor.padded(arr, 4), ZERO, brick=4)
    assert store.dims == (1, 1, 8)
    assert store.logical_i == 6
    back = ZfnafStore.from_bytes(store.to_bytes())
    assert back.logical_i == 6


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
    st.sampled_from([4, 8, 16]),
    st.sampled_from(["zero", "abs:3", "pow2:2"]),
    st.integers(0, 2**32 - 1),
)
def test_store_roundtrip_property(x, y, nb, brick, spec, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(-32768, 32767, size=(x, y, nb * brick)).astype(np.int16)
    arr[rng.random(arr.shape) < 0.5] = 0
    crit = IneffCriterion.parse(spec)
    expected = np.where(crit.effectual(arr), arr, 0)
    for fmt in (Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI):
        store = encode_store(fmt, ActTensor(arr), crit, brick)
        assert np.array_equal(store.decode(), expected), fmt
        back = deserialize_store(store.to_bytes())
        assert np.array_equal(back.decode(), expected), fmt


ALL_FORMATS = (Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3),
    st.sampled_from([1, 3, 4, 5, 16, 21]), st.integers(1, 42),
    st.sampled_from(["zero", "abs:3", "abs:300", "pow2:2", "pow2:9"]),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.integers(0, 2**32 - 1),
)
@example(1, 1, 4, 4, "zero", 1.0, 0)      # empty CVIAI pool, zero-width pointers
@example(2, 1, 21, 21, "abs:3", 0.0, 1)   # RoE raw mode at a 5-bit offset width
def test_store_bytes_match_the_slow_packer(x, y, brick, depth, spec, p_zero, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(-32768, 32768, size=(x, y, depth)).astype(np.int16)
    arr[rng.random(arr.shape) < p_zero] = 0
    acts = ActTensor.padded(arr, brick)
    crit = IneffCriterion.parse(spec)
    for fmt in ALL_FORMATS:
        want = slow_container_bytes(fmt.value, acts.values, crit.kind, crit.param,
                                    brick, acts.logical_i)
        assert encode_store(fmt, acts, crit, brick).to_bytes() == want, fmt


def assert_total(blob: bytes) -> None:
    """A stream either fails with a FormatError or re-serializes to itself."""
    try:
        store = deserialize_store(blob)
    except FormatError:
        return
    assert store.to_bytes() == blob


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=96))
def test_arbitrary_bytes_load_only_if_they_round_trip(blob):
    assert_total(blob)
    for tag in TAG.values():
        assert_total(bytes([tag]) + blob)


@st.composite
def valid_blobs(draw, formats=ALL_FORMATS, padded=False):
    """An encoder-written stream; a ``padded`` one may declare a logical
    depth short of its stored depth."""
    fmt = draw(st.sampled_from(formats))
    brick = draw(st.sampled_from([1, 3, 4, 5]))
    dims = (draw(st.integers(1, 2)), draw(st.integers(1, 2)),
            draw(st.integers(1, 2 * brick)) if padded else brick * draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.integers(-40, 40, size=dims).astype(np.int16)
    crit = IneffCriterion.parse(draw(st.sampled_from(["zero", "abs:5", "pow2:3"])))
    return encode_store(fmt, ActTensor(arr), crit, brick).to_bytes()


@settings(max_examples=300, deadline=None)
@given(valid_blobs(), st.integers(0, 2**16), st.integers(0, 255))
def test_mutated_bytes_load_only_if_they_round_trip(blob, where, byte):
    pos = where % len(blob)
    assert_total(blob[:pos] + bytes([byte]) + blob[pos + 1:])


@settings(max_examples=300, deadline=None)
@given(valid_blobs([Format.VIAI]), st.integers(0, 2**16), st.integers(0, 255))
def test_accepted_viai_streams_are_the_encoders_bytes(blob, where, byte):
    """A VIAI stream that loads is `encode_store`'s stream of its own values:
    its masks are the header criterion's effectual bits."""
    pos = where % len(blob)
    blob = blob[:pos] + bytes([byte]) + blob[pos + 1:]
    try:
        store = deserialize_store(blob)
    except FormatError:
        return
    if store.format is Format.VIAI:
        acts = ActTensor(store.values.reshape(store.dims), logical_i=store.logical_i)
        assert encode_store(Format.VIAI, acts, store.crit, store.brick).to_bytes() == blob


@settings(max_examples=1000, deadline=None)
@given(valid_blobs(padded=True), st.integers(0, 2**16), st.integers(0, 7))
def test_accepted_streams_are_the_encoders_bytes(blob, where, bit):
    """A stream of any format that loads after one bit flip is
    `encode_store`'s stream of the tensor it holds, at its logical depth:
    VIAI's stored values, the decoded values otherwise. It runs 1000
    examples: a flip that leaves a raw-mode RoE brick's count fitting is
    rare."""
    pos = where % len(blob)
    blob = blob[:pos] + bytes([blob[pos] ^ 1 << bit]) + blob[pos + 1:]
    try:
        store = deserialize_store(blob)
    except FormatError:
        return
    held = store.values.reshape(store.dims) if store.format is Format.VIAI else store.decode()
    acts = ActTensor(held, logical_i=store.logical_i)
    assert encode_store(store.format, acts, store.crit, store.brick).to_bytes() == blob


@settings(max_examples=200, deadline=None)
@given(valid_blobs(), st.data())
def test_random_payloads_load_only_if_they_round_trip(blob, data):
    keep = HDR.size + (8 if blob[0] == TAG["cviai"] else 0)
    n = len(blob) - keep
    assert_total(blob[:keep] + data.draw(st.binary(min_size=n, max_size=n)))


# -- hostile streams, one named case each -----------------------------------

@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_every_proper_prefix_is_refused(fmt):
    """A stream cut anywhere, in the header, in CVIAI's 8-byte pool size
    field or in the payload, raises a FormatError subclass."""
    blob = encode_store(fmt, tensor([1, 0, 2, 0, 0, 3, 0, 0]), ZERO, brick=4).to_bytes()
    for end in range(len(blob)):
        with pytest.raises(FormatError):
            deserialize_store(blob[:end])


def test_decoders_reject_trailing_bytes():
    for fmt in ALL_FORMATS:
        blob = encode_store(fmt, tensor([1, 0, 2, 0]), ZERO, brick=4).to_bytes()
        with pytest.raises(FormatError, match="trailing"):
            deserialize_store(blob + b"\0\0")


def test_decoders_reject_nonzero_pad_bits():
    # at brick 3 every format leaves pad bits in its last byte
    for fmt in ALL_FORMATS:
        blob = encode_store(fmt, tensor([1, 0, 2]), ZERO, brick=3).to_bytes()
        with pytest.raises(FormatError, match="pad bits"):
            deserialize_store(blob[:-1] + bytes([blob[-1] | 1]))


def test_decoders_reject_logical_depth_outside_depth():
    body = ZfnafStore.encode(tensor([1, 0, 2, 0]), ZERO, brick=4).to_bytes()[HDR.size:]
    for li in (0, 5, 9):
        with pytest.raises(FormatError, match="logical depth"):
            deserialize_store(header("zfnaf", li=li) + body)


def test_decoders_reject_zero_dims():
    for dims in ({"x": 0}, {"y": 0}, {"i": 0, "li": 0}, {"b": 0}):
        for fmt in ("zfnaf", "roe", "viai"):
            with pytest.raises(FormatError, match="empty tensor"):
                deserialize_store(header(fmt, **dims))
        with pytest.raises(FormatError, match="empty tensor"):
            deserialize_store(header("cviai", **dims) + struct.pack(">Q", 0))


def test_decoders_check_payload_size_before_allocating():
    with pytest.raises(TruncatedError):
        deserialize_store(header("zfnaf", x=1 << 16, y=1 << 16) + bytes(9))
    with pytest.raises(TruncatedError):
        deserialize_store(header("viai", x=2**32 - 1, y=2**32 - 1) + bytes(9))
    with pytest.raises(TruncatedError):
        deserialize_store(header("cviai") + struct.pack(">Q", 2**64 - 1) + bytes(8))


def test_pair_offsets_must_address_the_brick():
    # brick 3 has 2-bit offsets, so a stored offset of 3 names no sample
    zfnaf = bitstream((1, 16), (3, 2), (0, 18), (0, 18))
    with pytest.raises(FormatError, match="outside a brick of 3"):
        deserialize_store(header("zfnaf", i=3, li=3, b=3) + zfnaf)
    roe = bitstream((1, 1), (3, 2), (1, 16), (0, 30))
    with pytest.raises(FormatError, match="outside a brick of 3"):
        deserialize_store(header("roe", i=3, li=3, b=3) + roe)
    good = bitstream((1, 1), (2, 2), (1, 16), (0, 30))
    assert deserialize_store(header("roe", i=3, li=3, b=3) + good).brick_pairs(0, 0, 0) == [(2, 1)]


def test_cviai_rejects_pointers_off_the_prefix_sum():
    head = header("cviai", y=2) + struct.pack(">Q", 3)
    fields = [(0b1001, 4), (0b0100, 4), (1, 16), (4, 16), (3, 16), (0, 2)]
    blob = head + bitstream(*fields, (2, 2))
    arr = np.array([1, 0, 0, 4, 0, 3, 0, 0], dtype=np.int16).reshape(1, 2, 4)
    assert encode_cviai(ActTensor(arr), ZERO, brick=4).to_bytes() == blob
    assert CviaiStore.from_bytes(blob).brick_pairs(0, 1, 0) == [(1, 3)]
    with pytest.raises(FormatError, match="prefix sums"):
        CviaiStore.from_bytes(head + bitstream(*fields, (1, 2)))


def test_cviai_rejects_a_pool_size_off_the_mask_population():
    # one brick, so its IR pointer (0) agrees with any mask: only the census can object
    good = struct.pack(">Q", 2) + bitstream((0b1001, 4), (1, 16), (4, 16), (0, 2))
    assert encode_cviai(tensor([1, 0, 0, 4]), ZERO, brick=4).to_bytes() == header("cviai") + good
    bad = struct.pack(">Q", 3) + bitstream((0b1001, 4), (1, 16), (4, 16), (9, 16), (0, 2))
    with pytest.raises(FormatError, match="mask population 2 != declared pool size 3"):
        CviaiStore.from_bytes(header("cviai") + bad)


# -- footprints ------------------------------------------------------------

def test_footprint_constants_at_brick_16():
    rng = np.random.default_rng(3)
    arr = rng.integers(-99, 99, size=(4, 5, 48)).astype(np.int16)
    raw = 4 * 5 * 48 * 16
    zf = footprint_bits(Format.ZFNAF, ActTensor(arr), ZERO, 16)
    assert zf.raw_bits == raw
    assert zf.overhead == Fraction(1, 4)
    vi = footprint_bits(Format.VIAI, ActTensor(arr), ZERO, 16)
    assert vi.overhead == Fraction(1, 16)
    ro = footprint_bits(Format.ROE, ActTensor(arr), ZERO, 16)
    assert ro.overhead == Fraction(1, 256)
    rw = footprint_bits(Format.RAW, ActTensor(arr), ZERO, 16)
    assert rw.total_bits == raw and rw.ratio == 1


def test_footprint_content_independence():
    dense = np.ones((2, 2, 32), dtype=np.int16)
    sparse = np.zeros((2, 2, 32), dtype=np.int16)
    for fmt in (Format.ZFNAF, Format.ROE, Format.VIAI):
        a = footprint_bits(fmt, ActTensor(dense), ZERO, 16).total_bits
        b = footprint_bits(fmt, ActTensor(sparse), ZERO, 16).total_bits
        assert a == b


def test_footprint_cviai_formula():
    arr = np.array([1, 0, 0, 4, 0, 0, 0, 0], dtype=np.int16).reshape(1, 2, 4)
    rep = footprint_bits(Format.CVIAI, ActTensor(arr), ZERO, 4)
    # 2 bricks of 4 mask bits, 2 kept values, 2 pointers of width 2
    assert rep.total_bits == 2 * 4 + 2 * 16 + 2 * 2
    assert rep.total_bits == encode_cviai(ActTensor(arr), ZERO, 4).footprint().total_bits


def test_footprint_matches_store_accounting():
    rng = np.random.default_rng(5)
    arr = rng.integers(-9, 9, size=(2, 3, 32)).astype(np.int16)
    t = ActTensor(arr)
    for fmt in (Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI):
        direct = footprint_bits(fmt, t, ZERO, 16)
        via_store = encode_store(fmt, t, ZERO, 16).footprint()
        assert direct == via_store


def test_footprint_counts_padded_depth():
    arr = np.ones((2, 2, 20), dtype=np.int16)
    rep = footprint_bits(Format.RAW, ActTensor.padded(arr, 16), ZERO, 16)
    assert rep.total_bits == 2 * 2 * 32 * 16
