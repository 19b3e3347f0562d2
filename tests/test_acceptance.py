"""End-to-end guarantees, one test per headline behavior.

Each test reports a single PASS/FAIL line through conftest.record_criterion
so the scorecard shows up at the bottom of any pytest run.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from sparseaccel import (ActTensor, Brick, Format, LayerConfig, LayerData,
                         RawDispatchSource, SyncPolicy, SyntheticSpec, TileConfig,
                         ZERO, decode_roe, decode_viai, decode_zfnaf, dense_conv,
                         encode_cviai, encode_roe, encode_store, encode_viai,
                         encode_zfnaf, footprint_bits,
                         gen_synthetic, is_product, is_vector, load_layer,
                         mask_to_string, run_arch, run_baseline, run_cnv,
                         run_cnv2, run_dispatch, save_layer, stream_brick)

from conftest import record_criterion
from helpers import random_layer

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "weight_skip_demo.json"


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except Exception:
        record_criterion(f"[FAIL] {num:2d}. {text}")
        raise
    record_criterion(f"[PASS] {num:2d}. {text}")


def one_brick(values) -> Brick:
    return Brick(0, 0, 0, np.array(values, dtype=np.int16))


def test_criterion_01_roe_goldens():
    with criterion(1, "RoE goldens: (1,2,0,0) encodes in 41/65 bits, (2,1,3,4) stays raw"):
        t0 = time.perf_counter()
        enc = encode_roe(one_brick([1, 2, 0, 0]))
        assert enc.encoded
        assert enc.pairs == [(0, 1), (1, 2)]
        assert enc.bits_used(offset_bits=4) == 41
        assert enc.bits_used(offset_bits=4) <= 1 + 4 * 16

        raw = encode_roe(one_brick([2, 1, 3, 4]))
        assert not raw.encoded
        assert raw.bits_used() == 65
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_mask_goldens():
    with criterion(2, "VIAI mask of (1,2,0,4) is 1101; CVIAI fetch of (1,0,0,4) is (1001, [1,4])"):
        vb = encode_viai(one_brick([1, 2, 0, 4]))
        assert mask_to_string(vb.mask) == "1101"
        assert vb.values.tolist() == [1, 2, 0, 4]  # values stay in place

        acts = ActTensor(np.array([1, 0, 0, 4], dtype=np.int16).reshape(1, 1, 4))
        store = encode_cviai(acts, brick=4)
        mask, vals = store.fetch(0, 0, 0)
        assert mask_to_string(mask) == "1001"
        assert vals.tolist() == [1, 4]


def test_criterion_03_exact_overheads():
    with criterion(3, "metadata overheads at B=16 are exactly 25%, 6.25%, 1/256"):
        rng = np.random.default_rng(3)
        acts = ActTensor(rng.integers(-50, 50, (4, 4, 64)).astype(np.int16))
        diluted = {
            Format.ZFNAF: Fraction(1, 4),
            Format.VIAI: Fraction(1, 16),
            Format.ROE: Fraction(1, 256),
        }
        for fmt, want in diluted.items():
            rep = footprint_bits(fmt, acts, brick=16)
            assert isinstance(rep.overhead, Fraction)
            assert rep.overhead == want
        assert diluted[Format.ZFNAF] * 100 == 25
        assert diluted[Format.VIAI] * 100 == Fraction(625, 100)
        assert footprint_bits(Format.RAW, acts, brick=16).ratio == 1


def test_criterion_04_dispatch_golden():
    with criterion(4, "brick (1,0,0,4) streams [(0,1),(3,4)] over two cycles"):
        assert stream_brick(one_brick([1, 0, 0, 4])) == [(0, 1), (3, 4)]

        acts = ActTensor(np.array([1, 0, 0, 4], dtype=np.int16).reshape(1, 1, 4))
        layer = LayerConfig(x=1, y=1, i=4, fx=1, fy=1, f=1)
        run = run_dispatch(RawDispatchSource(acts, brick=4), layer, lanes=1)
        assert run.cycles == 2
        assert run.lane_stream(0) == [(0, 1), (3, 4)]


def test_criterion_05_fixture_cycles():
    with criterion(5, "bundled fixture costs cnv=3, cnv2=2 cycles under lockstep sync"):
        data = load_layer(FIXTURE)
        layer = LayerConfig.from_tensors(data.acts, data.filters, stride=data.stride)
        tile = TileConfig(tiles=1, filters_per_tile=2, lanes=4, brick=4,
                          sync=SyncPolicy.BRICKSET_LOCKSTEP)
        _, base = run_baseline(data.acts, data.filters, layer, tile)
        _, cnv = run_cnv(data.acts, data.filters, layer, tile)
        _, cnv2 = run_cnv2(data.acts, data.filters, layer, tile)
        assert base.cycles == 4
        assert cnv.cycles == 3
        assert cnv2.cycles == 2


def test_criterion_06_functional_equivalence():
    with criterion(6, "200 random layers: all three archs match the dense convolution bit for bit"):
        rng = np.random.default_rng(20260806)
        t0 = time.perf_counter()
        tile = TileConfig(tiles=2, filters_per_tile=8, lanes=16, brick=16)
        for _ in range(200):
            acts, filts, layer = random_layer(
                rng, p_act=float(rng.uniform(0.1, 0.9)),
                p_wt=float(rng.uniform(0.0, 0.5)))
            want = dense_conv(acts, filts, layer)
            for arch in ("baseline", "cnv", "cnv2"):
                out, _ = run_arch(arch, acts, filts, layer, tile)
                assert np.array_equal(out, want), arch
        assert time.perf_counter() - t0 < 60.0


def test_criterion_07_cycle_ordering_and_monotonicity():
    with criterion(7, "cnv2 <= cnv <= baseline cycles; zeroing an activation never slows cnv/cnv2"):
        rng = np.random.default_rng(20260807)
        tile = TileConfig(tiles=2, filters_per_tile=8, lanes=16, brick=16)
        trials = 0
        while trials < 100:
            acts, filts, layer = random_layer(
                rng, p_act=float(rng.uniform(0.2, 0.8)), p_wt=0.3, lanes=16)
            _, base = run_baseline(acts, filts, layer, tile)
            _, cnv = run_cnv(acts, filts, layer, tile)
            _, cnv2 = run_cnv2(acts, filts, layer, tile)
            assert cnv2.cycles <= cnv.cycles <= base.cycles

            nz = np.argwhere(acts.values != 0)
            for _ in range(min(4, 100 - trials)):
                if len(nz) == 0:
                    break
                x, y, d = nz[rng.integers(len(nz))]
                vals = acts.values.copy()
                vals[x, y, d] = 0
                mutated = ActTensor(vals, logical_i=acts.logical_i)
                _, mcnv = run_cnv(mutated, filts, layer, tile)
                _, mcnv2 = run_cnv2(mutated, filts, layer, tile)
                assert mcnv.cycles <= cnv.cycles
                assert mcnv2.cycles <= cnv2.cycles
                trials += 1


def test_criterion_08_encoding_source_agreement():
    with criterion(8, "100 tensors: zfnaf/viai/cviai stores and raw detection emit identical event streams"):
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            x = int(rng.integers(1, 5))
            y = int(rng.integers(1, 5))
            i = int(rng.integers(1, 5)) * 16
            vals = rng.integers(-40, 40, (x, y, i)).astype(np.int16)
            vals[rng.random((x, y, i)) < 0.55] = 0
            acts = ActTensor(vals)
            layer = LayerConfig(x=x, y=y, i=i, fx=1, fy=1, f=1)
            sources = (RawDispatchSource(acts, ZERO, 16),
                       encode_store(Format.ZFNAF, acts, ZERO, 16),
                       encode_store(Format.VIAI, acts, ZERO, 16),
                       encode_store(Format.CVIAI, acts, ZERO, 16))
            runs = [run_dispatch(src, layer, lanes=4) for src in sources]
            for other in runs[1:]:
                assert other.events == runs[0].events
                assert other.cycles == runs[0].cycles


def test_criterion_09_roundtrip_identities(tmp_path):
    with criterion(9, "decode(encode(brick)) is exact for 10k bricks in all four codecs; files reload identically"):
        rng = np.random.default_rng(20260809)
        n, width = 10_000, 16
        batch = rng.integers(-32768, 32768, (n, width)).astype(np.int16)
        batch[rng.random((n, width)) < 0.5] = 0
        for row in batch:
            b = Brick(0, 0, 0, row)
            assert np.array_equal(decode_zfnaf(encode_zfnaf(b)).values, row)
            assert np.array_equal(decode_roe(encode_roe(b)).values, row)
            assert np.array_equal(decode_viai(encode_viai(b)).values, row)
        pool = ActTensor(batch.reshape(100, 100, width))
        assert np.array_equal(encode_cviai(pool, brick=width).decode(),
                              pool.values)

        spec = SyntheticSpec(x=6, y=5, i=24, f=7, fx=2, fy=2, stride=1,
                             p_act_zero=0.4, p_wt_zero=0.2, vmin=-99, vmax=99,
                             seed=13, brick=8)
        data = LayerData(*gen_synthetic(spec), stride=spec.stride, brick=spec.brick)
        for name in ("round.layer", "round.json"):
            path = tmp_path / name
            save_layer(path, data)
            back = load_layer(path)
            assert np.array_equal(back.acts.values, data.acts.values)
            assert back.acts.logical_i == data.acts.logical_i
            assert np.array_equal(back.filters.values, data.filters.values)
            assert (back.stride, back.brick) == (data.stride, data.brick)


def test_criterion_10_degenerate_inputs():
    with criterion(10, "dense acts give speedup exactly 1.0; dense weights make cnv2 == cnv; one live filter kills the skip product"):
        spec = SyntheticSpec(x=6, y=6, i=64, f=16, fx=2, fy=2,
                             p_act_zero=0.0, p_wt_zero=0.3, seed=21)
        acts, filts = gen_synthetic(spec)
        layer = LayerConfig.from_tensors(acts, filts, stride=1)
        tile = TileConfig(tiles=2, filters_per_tile=8, lanes=16)
        _, base = run_baseline(acts, filts, layer, tile)
        _, cnv = run_cnv(acts, filts, layer, tile)
        assert base.cycles / cnv.cycles == 1.0

        spec = SyntheticSpec(x=6, y=6, i=64, f=16, fx=2, fy=2,
                             p_act_zero=0.5, p_wt_zero=0.0, seed=22)
        acts, filts = gen_synthetic(spec)
        _, cnv = run_cnv(acts, filts, layer, tile)
        _, cnv2 = run_cnv2(acts, filts, layer, tile)
        assert cnv2.cycles == cnv.cycles
        assert cnv2.macs_performed == cnv.macs_performed
        assert cnv2.macs_skipped == cnv.macs_skipped
        assert cnv2.broadcasts == cnv.broadcasts
        assert cnv2.utilization == cnv.utilization
        assert cnv2.per_lane_busy == cnv.per_lane_busy

        rng = np.random.default_rng(23)
        wts = rng.integers(-9, 10, (256, 16)).astype(np.int16)
        wts[rng.random((256, 16)) < 0.7] = 0
        wts[100, :] = 1  # every offset effectual in this one filter
        group = [is_vector(Brick(0, 0, 0, w)) for w in wts]
        assert not is_product(group).any()
