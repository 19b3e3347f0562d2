import numpy as np
import pytest

from sparseaccel import (ActTensor, BankLayout, DispatchEvent, EmptyBrickCost,
                         FilterSet, IneffCriterion, LayerConfig, RawDispatchSource,
                         SyncPolicy, TileConfig, ZERO, encode_store, format_trace,
                         run_cnv, run_cnv2, run_dispatch, stream_brick,
                         weight_product_table, write_trace, Format, load_layer)
from sparseaccel.errors import ConfigurationError, FormatError

from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def acts_1d(values, brick=4) -> ActTensor:
    return ActTensor(np.array(values, dtype=np.int16).reshape(1, 1, -1))


# -- pair streaming --------------------------------------------------------

def test_stream_brick_golden():
    assert stream_brick(np.array([1, 0, 0, 4], dtype=np.int16)) == [(0, 1), (3, 4)]


def test_stream_brick_orders_by_offset():
    got = stream_brick(np.array([0, 9, -2, 0, 7, 0, 0, 1], dtype=np.int16))
    assert got == [(1, 9), (2, -2), (4, 7), (7, 1)]


def test_stream_brick_threshold():
    crit = IneffCriterion.abs_threshold(2)
    assert stream_brick(np.array([1, 5, 0, 2], dtype=np.int16), crit) == [(1, 5)]


def test_raw_source_detects_at_fetch():
    t = acts_1d([1, 0, 2, 0, 0, 0, 0, 5])
    src = RawDispatchSource(t, ZERO, brick=4)
    assert src.brick_pairs(0, 0, 0) == [(0, 1), (2, 2)]
    assert src.brick_pairs(0, 0, 1) == [(3, 5)]


# -- lockstep timing, hand-simulated ----------------------------------------

def test_lockstep_trace_single_set():
    t = acts_1d([1, 0, 2, 0, 0, 0, 0, 5])
    layer = LayerConfig(x=1, y=1, i=8, fx=1, fy=1, f=1)
    run = run_dispatch(RawDispatchSource(t, ZERO, brick=4), layer, lanes=2)
    assert run.cycles == 2
    assert run.broadcasts == 3
    assert run.per_lane_busy == (2, 1)
    assert format_trace(run.events) == (
        "0,0,0,1\n"
        "0,1,3,5\n"
        "1,0,2,2\n"
        "1,1,IDLE\n"
    )


def test_lockstep_trace_two_sets():
    t = acts_1d([1, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 6])
    layer = LayerConfig(x=1, y=1, i=16, fx=1, fy=1, f=1)
    run = run_dispatch(RawDispatchSource(t, ZERO, brick=4), layer, lanes=2)
    assert run.cycles == 4
    assert run.broadcasts == 5
    assert run.per_lane_busy == (1, 4)
    assert [e.trace_line() for e in run.events] == [
        "0,0,0,1", "0,1,0,2",
        "1,0,IDLE", "1,1,1,3",
        "2,0,IDLE", "2,1,0,4",
        "3,0,IDLE", "3,1,3,6",
    ]


def test_policies_differ_on_imbalanced_sets():
    # lane0 bricks cost 3 then 1; lane1 bricks cost 1 then 2
    t = acts_1d([1, 2, 3, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 7, 0, 0])
    layer = LayerConfig(x=1, y=1, i=16, fx=1, fy=1, f=1)
    src = RawDispatchSource(t, ZERO, brick=4)
    lock = run_dispatch(src, layer, lanes=2, policy=SyncPolicy.BRICKSET_LOCKSTEP)
    sync = run_dispatch(src, layer, lanes=2, policy=SyncPolicy.WINDOW_SYNC)
    assert lock.cycles == 3 + 2
    assert sync.cycles == max(3 + 1, 1 + 2)
    assert lock.broadcasts == sync.broadcasts == 7
    assert sync.per_lane_busy == lock.per_lane_busy == (4, 3)


def test_empty_brick_cost_modes():
    t = acts_1d([1, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    layer = LayerConfig(x=1, y=1, i=16, fx=1, fy=1, f=1)
    src = RawDispatchSource(t, ZERO, brick=4)
    free = run_dispatch(src, layer, lanes=2,
                        empty_brick_cost=EmptyBrickCost.ZERO_CYCLES)
    drain = run_dispatch(src, layer, lanes=2,
                         empty_brick_cost=EmptyBrickCost.ONE_CYCLE)
    assert free.cycles == 2  # second brick set is free
    assert drain.cycles == 3  # both empty bricks drain together for one cycle
    assert drain.events[-1].is_idle and drain.events[-2].is_idle
    assert free.broadcasts == drain.broadcasts == 3


def test_window_sync_drain_cycles():
    t = acts_1d([0, 0, 0, 0, 1, 0, 0, 0])
    layer = LayerConfig(x=1, y=1, i=8, fx=1, fy=1, f=1)
    src = RawDispatchSource(t, ZERO, brick=4)
    run = run_dispatch(src, layer, lanes=1, policy=SyncPolicy.WINDOW_SYNC,
                       empty_brick_cost=EmptyBrickCost.ONE_CYCLE)
    assert run.cycles == 2
    assert run.events[0].is_idle
    assert (run.events[1].offset, run.events[1].value) == (0, 1)


def test_product_table_drops_offsets():
    t = acts_1d([1, 0, 2, 4])
    layer = LayerConfig(x=1, y=1, i=4, fx=1, fy=1, f=1)
    prod = np.zeros((1, 1, 1, 4), dtype=bool)
    prod[0, 0, 0, 3] = True
    src = RawDispatchSource(t, ZERO, brick=4)
    plain = run_dispatch(src, layer, lanes=1)
    aware = run_dispatch(src, layer, lanes=1, prod_table=prod)
    assert [(e.offset, e.value) for e in plain.events] == [(0, 1), (2, 2), (3, 4)]
    assert [(e.offset, e.value) for e in aware.events] == [(0, 1), (2, 2)]
    assert aware.cycles == plain.cycles - 1


def test_product_table_shape_checked():
    t = acts_1d([1, 0, 2, 4])
    layer = LayerConfig(x=1, y=1, i=4, fx=1, fy=1, f=1)
    with pytest.raises(ConfigurationError):
        run_dispatch(RawDispatchSource(t, ZERO, brick=4), layer, lanes=1,
                     prod_table=np.zeros((1, 1, 1, 8), dtype=bool))


def test_source_layer_mismatch():
    t = acts_1d([1, 0, 2, 4])
    layer = LayerConfig(x=1, y=1, i=8, fx=1, fy=1, f=1)
    with pytest.raises(FormatError):
        run_dispatch(RawDispatchSource(t, ZERO, brick=4), layer, lanes=1)


def test_fetch_pointers_count_bank_loads():
    t = acts_1d([1, 0, 0, 0] * 4)
    layer = LayerConfig(x=1, y=1, i=16, fx=1, fy=1, f=1)
    src = RawDispatchSource(t, ZERO, brick=4)
    run = run_dispatch(src, layer, lanes=4)
    assert run.fetch_pointers == {0: 1, 1: 1, 2: 1, 3: 1}
    run2 = run_dispatch(src, layer, lanes=2, banks=BankLayout(nm_banks=2))
    assert run2.fetch_pointers == {0: 2, 1: 2}
    assert BankLayout(4).bank_of(3, 7, 6) == 2


def test_trace_file_roundtrip(tmp_path):
    events = [DispatchEvent(0, 0, 2, -7), DispatchEvent(0, 1)]
    path = tmp_path / "trace.csv"
    write_trace(events, path)
    assert path.read_text() == "0,0,2,-7\n0,1,IDLE\n"


# -- agreement across sources and with the cycle model ----------------------

def test_sources_agree_on_sparse_tensor():
    rng = np.random.default_rng(31)
    arr = rng.integers(-20, 20, size=(2, 2, 32)).astype(np.int16)
    arr[rng.random(arr.shape) < 0.8] = 0
    t = ActTensor(arr)
    layer = LayerConfig(x=2, y=2, i=32, fx=1, fy=1, f=1)
    runs = []
    for src in (RawDispatchSource(t, ZERO, brick=16),
                encode_store(Format.ZFNAF, t, ZERO, 16),
                encode_store(Format.VIAI, t, ZERO, 16),
                encode_store(Format.CVIAI, t, ZERO, 16),
                encode_store(Format.ROE, t, ZERO, 16)):
        runs.append(run_dispatch(src, layer, lanes=2))
    # RoE joins in here because every brick of this tensor fits encoded
    for other in runs[1:]:
        assert other.events == runs[0].events
        assert other.cycles == runs[0].cycles


def test_dispatch_agrees_with_cycle_model_on_fixture():
    data = load_layer(FIXTURES / "weight_skip_demo.json")
    layer = data.layer_config()
    tile = TileConfig(tiles=1, filters_per_tile=2, lanes=4, brick=4)
    src = RawDispatchSource(data.acts, ZERO, brick=4)

    plain = run_dispatch(src, layer, lanes=4)
    _, cnv = run_cnv(data.acts, data.filters, layer, tile)
    assert plain.cycles == cnv.cycles == 3
    assert plain.broadcasts == cnv.broadcasts

    prod = weight_product_table(data.filters, ZERO, brick=4)
    aware = run_dispatch(src, layer, lanes=4, prod_table=prod)
    _, cnv2 = run_cnv2(data.acts, data.filters, layer, tile)
    assert aware.cycles == cnv2.cycles == 2
    assert aware.broadcasts == cnv2.broadcasts
