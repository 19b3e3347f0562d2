import ast
import importlib
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseaccel import (ActTensor, DispatchEvent, EmptyBrickCost,
                         FilterSet, IneffCriterion, LayerConfig, RawDispatchSource,
                         SyncPolicy, SyntheticSpec, TileConfig, ZERO, deserialize_store,
                         encode_store, format_trace, gen_synthetic, run_cnv, run_cnv2,
                         run_dispatch, stream_brick, weight_product_table, write_trace,
                         Format, brick_at, footprint_bits, load_layer)
from sparseaccel import dispatch, tensor
from sparseaccel.dispatch import EventColumns
from sparseaccel.errors import BoundsError, ConfigurationError, FormatError

from pathlib import Path

import helpers
from helpers import hypothesis_picks, loop_dispatch, pick_criterion, seeded_cases

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_oracles_borrow_no_function_from_the_package():
    """`tests/helpers.py` may name the package's types, but its oracles
    compute everything themselves: each name it imports is a class."""
    tree = ast.parse(Path(helpers.__file__).read_text())
    assert not any(alias.name.split(".")[0] == "sparseaccel" for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names)
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sparseaccel"
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert isinstance(getattr(importlib.import_module(module), name), type), name


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


# each source's brick_pairs, and brick_at, over a (3, 2, 8) tensor of 4-bricks
BRICK_READERS = {
    **{fmt.value: lambda acts, fmt=fmt: encode_store(fmt, acts, ZERO, 4).brick_pairs
       for fmt in (Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI)},
    "raw": lambda acts: RawDispatchSource(acts, ZERO, 4).brick_pairs,
    "brick_at": lambda acts: lambda x, y, ib: brick_at(acts, x, y, ib, brick=4),
}


@pytest.mark.parametrize("reader", sorted(BRICK_READERS))
@pytest.mark.parametrize("coord", [(-1, 0, 0), (3, 0, 0), (0, -1, 0), (0, 0, 2), (0, 0, -1)])
def test_every_source_refuses_a_brick_outside_the_tensor(reader, coord):
    acts = ActTensor(np.arange(1, 49, dtype=np.int16).reshape(3, 2, 8))
    read = BRICK_READERS[reader](acts)
    read(2, 1, 1)  # the last brick is inside
    with pytest.raises(BoundsError, match="outside"):
        read(*coord)


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
    # three bricks on two lanes: lane 0 costs 1 + 1 drain, lane 1 its 3 pairs,
    # and the free slot padded after lane 1's brick drains nothing
    ragged = RawDispatchSource(acts_1d([1, 0, 0, 0, 2, 3, 4, 0, 0, 0, 0, 0]), ZERO, brick=4)
    run = run_dispatch(ragged, LayerConfig(x=1, y=1, i=12, fx=1, fy=1, f=1), lanes=2,
                       policy=SyncPolicy.WINDOW_SYNC, empty_brick_cost=EmptyBrickCost.ONE_CYCLE)
    assert run.cycles == 3
    assert run.per_lane_busy == (1, 3)


@pytest.mark.parametrize("name, value, crit, cycles", [
    # the plain strings used to fall through to the other member: 665 and 224 cycles
    ("policy", SyncPolicy.BRICKSET_LOCKSTEP, ZERO, 823),
    ("empty_brick_cost", EmptyBrickCost.ONE_CYCLE, IneffCriterion("abs", 100), 261),
])
def test_run_dispatch_refuses_plain_values_for_enums(name, value, crit, cycles):
    acts, filters = gen_synthetic(SyntheticSpec(x=9, y=9, i=40, f=8, fx=3, fy=3, p_act_zero=0.6,
                                                p_wt_zero=0.5, seed=3, brick=8))
    layer = LayerConfig.from_tensors(acts, filters)
    src = RawDispatchSource(acts, crit, brick=8)
    kw = {"policy": SyncPolicy.WINDOW_SYNC, name: value}
    with pytest.raises(ConfigurationError, match=name):
        run_dispatch(src, layer, lanes=16, **{**kw, name: value.value})
    assert run_dispatch(src, layer, lanes=16, **kw).cycles == cycles


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
    run2 = run_dispatch(src, layer, lanes=2)
    assert run2.fetch_pointers == {0: 2, 1: 2}


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


@pytest.mark.parametrize("fmt", [Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI, None])
def test_a_numpy_integer_brick_is_the_same_int(fmt):
    """An np.int64 brick gives the int brick's bytes, pairs, footprint and
    replay; ``None`` is the raw source."""
    acts = ActTensor(np.arange(-20, 28, dtype=np.int16).reshape(2, 3, 8) % 7)
    crit = IneffCriterion("abs", 2)
    layer = LayerConfig(x=2, y=3, i=8, fx=2, fy=2, f=1)
    make = (lambda b: RawDispatchSource(acts, crit, b)) if fmt is None else (
        lambda b: encode_store(fmt, acts, crit, b))
    plain, numpy_brick = make(4), make(np.int64(4))
    assert type(numpy_brick.brick) is int
    if fmt is not None:
        assert numpy_brick.to_bytes() == plain.to_bytes()
        wide = footprint_bits(fmt, acts, crit, np.int64(4))
        assert wide == footprint_bits(fmt, acts, crit, 4) and type(wide.total_bits) is int
    assert numpy_brick.brick_pairs(1, 2, 1) == plain.brick_pairs(1, 2, 1)
    assert all(map(np.array_equal, numpy_brick.pair_table(), plain.pair_table()))
    runs = [run_dispatch(src, layer, lanes=3) for src in (plain, numpy_brick)]
    assert runs[0].events == runs[1].events
    assert (runs[0].cycles, runs[0].broadcasts) == (runs[1].cycles, runs[1].broadcasts)


def test_raw_source_takes_a_plain_array_as_encode_store_does():
    """A plain (X, Y, I) integer array is read as its `ActTensor`: the same
    pairs and replay; a depth the brick does not divide is still refused."""
    arr = np.arange(-20, 28, dtype=np.int64).reshape(2, 3, 8) % 7
    crit = IneffCriterion("abs", 2)
    layer = LayerConfig(x=2, y=3, i=8, fx=2, fy=2, f=1)
    plain, wrapped = RawDispatchSource(arr, crit, 4), RawDispatchSource(ActTensor(arr), crit, 4)
    assert plain.dims == (2, 3, 8) and plain.logical_i == 8
    assert plain.brick_pairs(1, 2, 1) == wrapped.brick_pairs(1, 2, 1)
    assert all(map(np.array_equal, plain.pair_table(), wrapped.pair_table()))
    runs = [run_dispatch(src, layer, lanes=3) for src in (plain, wrapped)]
    assert runs[0].events == runs[1].events and runs[0].cycles == runs[1].cycles
    with pytest.raises(ConfigurationError, match="not a multiple of brick size"):
        RawDispatchSource(arr, crit, 3)


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


# -- memory ----------------------------------------------------------------

MiB = 1 << 20


def test_lane_counts_compare_by_their_stored_counts():
    """Two `LaneCounts` compare by lane count and stored counts, a missing
    stored count reading 0, without a step per lane; against any other
    sequence they compare lane by lane."""
    counts = dispatch.LaneCounts(np.array([3, 1]), lanes=1 << 40)
    assert counts == dispatch.LaneCounts(np.array([3, 1, 0]), lanes=1 << 40)
    assert counts != dispatch.LaneCounts(np.array([3]), lanes=1 << 40)
    assert counts != dispatch.LaneCounts(np.array([3, 1]), lanes=(1 << 40) - 1)
    short = dispatch.LaneCounts(np.array([3, 1]), lanes=4)
    assert short == [3, 1, 0, 0] and short != (3, 1, 0) and short != (3, 1, 0, 2)
    assert repr(short) == "LaneCounts(lanes=4, counts=(3, 1))"


def test_lane_sequences_compare_only_with_sequences():
    """A busy-count or event sequence equals no value that is not a
    sequence, and names its shape in its repr."""
    counts = dispatch.LaneCounts(np.array([3, 1]), lanes=4)
    assert (counts == 3) is False and counts != object()
    assert dispatch.LaneCounts(np.array([], dtype=np.int64), lanes=3) == [0, 0, 0]
    events = EventColumns(np.array([3, -1], dtype=np.int32), np.array([5, 0], dtype=np.int16),
                          lanes=3, width=1)
    assert events != 3
    assert repr(events) == "EventColumns(lanes=3, cycles=2)"


def test_lane_sequences_carry_no_instance_dict():
    """Every kept `CycleReport` holds a `LaneCounts`, so the lane sequences
    keep their fields in slots: no instance ``__dict__``, and the same
    values and repr."""
    counts = dispatch.LaneCounts(np.arange(1, 17), lanes=18)
    events = EventColumns(np.array([3, -1], dtype=np.int32), np.array([5, 0], dtype=np.int16),
                          lanes=3, width=1)
    for seq in (counts, events):
        assert not hasattr(seq, "__dict__")
        with pytest.raises(AttributeError):
            seq.cache = None
    assert list(counts) == list(range(1, 17)) + [0, 0]
    assert repr(counts) == f"LaneCounts(lanes=18, counts={tuple(range(1, 17))})"
    assert list(events) == [DispatchEvent(0, 0, 3, 5), DispatchEvent(0, 1), DispatchEvent(0, 2),
                            DispatchEvent(1, 0), DispatchEvent(1, 1), DispatchEvent(1, 2)]


def test_event_columns_span_only_the_lanes_that_get_a_brick():
    """A window of this layer has 18 bricks, so 32768 lanes keep (cycles x 18)
    columns and report every later lane idle. The layer is small enough that
    columns over every lane would take about 40 MB, not hundreds."""
    acts, _ = gen_synthetic(SyntheticSpec(x=6, y=6, i=32, f=1, fx=3, fy=3,
                                          p_act_zero=0.5, seed=5))
    layer = LayerConfig(6, 6, 32, 3, 3, 1)
    src = RawDispatchSource(acts, ZERO, brick=16)
    assert helpers.traced_peak(lambda: run_dispatch(src, layer, lanes=32768)) < 2 * MiB
    wide = run_dispatch(src, layer, lanes=32768)
    narrow = run_dispatch(src, layer, lanes=18)
    assert wide.cycles == narrow.cycles > 0
    assert len(wide.events) == 32768 * wide.cycles
    assert wide.events.offsets.shape == (18 * wide.cycles,)
    assert wide.per_lane_busy[:18] == narrow.per_lane_busy and not any(wide.per_lane_busy[18:])
    for lane in range(18):
        assert wide.lane_stream(lane) == narrow.lane_stream(lane)
    assert wide.lane_stream(18) == wide.lane_stream(32767) == []
    for cycle in (0, wide.cycles // 2, wide.cycles - 1):
        row = wide.events[cycle * 32768:(cycle + 1) * 32768]
        assert row[:18] == narrow.events[cycle * 18:(cycle + 1) * 18]
        assert all(e.is_idle and e.cycle == cycle for e in row[18:])


@pytest.fixture(scope="module")
def store_replay_layer():
    """The 2048-brick layer of the store-replay benchmark workload."""
    acts, filters = gen_synthetic(SyntheticSpec(x=16, y=16, i=128, f=16, fx=3, fy=3,
                                                p_act_zero=0.5, p_wt_zero=0.4, seed=0))
    return acts, LayerConfig.from_tensors(acts, filters), weight_product_table(filters, ZERO, 16)


@pytest.mark.parametrize("policy", list(SyncPolicy))
@pytest.mark.parametrize("kind", ["zfnaf", "roe", "viai", "cviai", "raw", "raw_product"])
def test_dispatcher_peak_memory_at_the_store_replay_shape(store_replay_layer, kind, policy):
    """A replay walks only the stored pairs: at most 5 MiB of tracemalloc for
    16x16x128 with 3x3 filters, brick 16 and 16 lanes, where gathering every
    (window, slot, offset) position peaked at 7.9-8.4 MiB."""
    acts, layer, prod = store_replay_layer
    if kind.startswith("raw"):
        src = RawDispatchSource(acts, ZERO, brick=16)
    else:
        src = deserialize_store(encode_store(Format(kind), acts, ZERO, 16).to_bytes())
    kwargs = dict(lanes=16, policy=policy, prod_table=prod if kind == "raw_product" else None)
    assert helpers.traced_peak(lambda: run_dispatch(src, layer, **kwargs)) <= 5 * MiB


# -- the array walk against the event loop ----------------------------------

def random_acts(integer, choice, brick, fx, fy, stride):
    """A depth-padded tensor covering 1-3 x 1-3 windows of the filter."""
    ox, oy = integer(1, 3), integer(1, 3)
    depth = integer(1, 3 * brick)  # mostly not a brick multiple: padded
    vmax = choice([3, 40, 32767])
    rng = np.random.default_rng(integer(0, 2**32 - 1))

    def values(shape):
        arr = rng.integers(-vmax - 1, vmax + 1, size=shape)
        arr[rng.random(shape) < rng.uniform(0.0, 1.0)] = 0
        return arr

    acts = ActTensor.padded(values((fx + stride * (ox - 1), fy + stride * (oy - 1), depth)),
                            brick)
    return acts, values, rng


def lane_count(integer, choice, slots):
    """One lane, more lanes than a window has bricks, or a count that may split raggedly."""
    kind = choice(["one", "more", "split"])
    if kind == "one":
        return 1
    return integer(slots + 1, slots + 4) if kind == "more" else integer(2, max(2, slots))


def dispatch_case(integer, choice):
    """One replay: a source (raw or encoded, maybe after a byte round trip), its
    layer and `run_dispatch`'s keyword arguments. ``integer`` and ``choice``
    make every pick, as in `helpers.hypothesis_picks` and `helpers.seeded_cases`."""
    brick = choice([1, 3, 4, 16])
    fx, fy, stride = integer(1, 3), integer(1, 3), integer(1, 3)
    acts, _, rng = random_acts(integer, choice, brick, fx, fy, stride)
    layer = LayerConfig(acts.x, acts.y, acts.i, fx, fy, 1, stride)
    nb = acts.i // brick
    crit = pick_criterion(integer, choice)
    kind = choice(["raw", "zfnaf", "roe", "viai", "cviai"])
    if kind == "raw":
        source = RawDispatchSource(acts, crit, brick)
    else:
        source = encode_store(Format(kind), acts, crit, brick)
        if choice([False, True]):
            source = deserialize_store(source.to_bytes())
    prod = None
    if choice([False, True]):
        prod = rng.random((fx, fy, nb, brick)) < choice([0.2, 0.6, 1.0])
    return source, layer, dict(lanes=lane_count(integer, choice, fx * fy * nb),
                               policy=choice(list(SyncPolicy)),
                               empty_brick_cost=choice(list(EmptyBrickCost)),
                               prod_table=prod)


@st.composite
def dispatch_cases(draw):
    return dispatch_case(*hypothesis_picks(draw))


def event_tuples(events):
    return [(e.cycle, e.lane, e.offset, e.value, e.is_idle) for e in events]


def assert_dispatch_matches_event_loop(case):
    source, layer, kwargs = case
    got = run_dispatch(source, layer, **kwargs)
    want = loop_dispatch(source, layer, **kwargs)
    assert event_tuples(got.events) == event_tuples(want.events)
    assert got.events == want.events
    assert (got.cycles, got.broadcasts, got.per_lane_busy, got.fetch_pointers) == \
        (want.cycles, want.broadcasts, want.per_lane_busy, want.fetch_pointers)
    assert len(got.events) == kwargs["lanes"] * got.cycles
    assert format_trace(got.events) == format_trace(want.events)
    for lane in range(-2, kwargs["lanes"] + 2):  # out-of-range lanes sent nothing
        assert got.lane_stream(lane) == [(e.offset, e.value) for e in want.events
                                         if e.lane == lane and not e.is_idle]


@settings(max_examples=300, deadline=None)
@given(dispatch_cases())
def test_run_dispatch_matches_event_loop(case):
    assert_dispatch_matches_event_loop(case)


def test_run_dispatch_matches_event_loop_on_seeded_replays():
    """The property above on a fixed set of replays, so a fault it finds only
    by chance is still found every run."""
    for case in seeded_cases(dispatch_case, seed=14, n=150):
        assert_dispatch_matches_event_loop(case)


def assert_lanes_past_the_slots_change_nothing(case, extra):
    """At or above a window's slot count more lanes change neither the cycles
    nor a stored busy count or event column, and every added lane reads 0."""
    source, layer, kwargs = case
    slots = layer.fx * layer.fy * (layer.i // source.brick)
    narrow, wide = (run_dispatch(source, layer, **dict(kwargs, lanes=n))
                    for n in (slots, slots + extra))
    assert (wide.cycles, wide.broadcasts, wide.fetch_pointers) == \
        (narrow.cycles, narrow.broadcasts, narrow.fetch_pointers)
    assert wide.events.width == narrow.events.width == slots
    assert np.array_equal(wide.events.offsets, narrow.events.offsets)
    assert np.array_equal(wide.events.values, narrow.events.values)
    assert wide.per_lane_busy[:slots] == narrow.per_lane_busy
    assert len(wide.per_lane_busy) == slots + extra
    assert not any(wide.per_lane_busy[slots:slots + 1024])
    assert wide.per_lane_busy[-1] == 0


LANES_PAST_THE_SLOTS = [1, 5, 1 << 20]


@settings(max_examples=100, deadline=None)
@given(dispatch_cases(), st.sampled_from(LANES_PAST_THE_SLOTS))
def test_lanes_past_the_slots_change_nothing(case, extra):
    assert_lanes_past_the_slots_change_nothing(case, extra)


def test_lanes_past_the_slots_change_nothing_on_seeded_replays():
    """The property above on a fixed set of replays."""
    for n, case in enumerate(seeded_cases(dispatch_case, seed=20, n=60)):
        assert_lanes_past_the_slots_change_nothing(case, LANES_PAST_THE_SLOTS[n % 3])


def event_lines(events) -> str:
    """A trace stated one event at a time, by `DispatchEvent.trace_line`."""
    return "".join(f"{e.trace_line()}\n" for e in events)


@pytest.mark.parametrize("chunk", [1, 7, dispatch._TRACE_CHUNK_EVENTS])
def test_format_trace_reads_the_columns_on_seeded_replays(monkeypatch, tmp_path, chunk):
    """`format_trace` and `write_trace` build the text straight from the
    columns, a few cycles at a time: the lines are those of the events one by
    one, past the width, across pieces and in a run of zero cycles."""
    monkeypatch.setattr(dispatch, "_TRACE_CHUNK_EVENTS", chunk)
    idle = RawDispatchSource(acts_1d([0] * 16), ZERO, brick=4)
    runs = [run_dispatch(idle, LayerConfig(x=1, y=1, i=16, fx=1, fy=1, f=1), lanes=3)]
    runs += [run_dispatch(source, layer, **kwargs)
             for source, layer, kwargs in seeded_cases(dispatch_case, seed=7, n=40)]
    assert runs[0].cycles == 0 and format_trace(runs[0].events) == ""
    assert any(run.events.width < run.lanes and run.cycles for run in runs)
    path = tmp_path / "trace.csv"
    for run in runs:
        text = event_lines(run.events)
        assert format_trace(run.events) == text
        assert format_trace(list(run.events)) == text
        write_trace(run.events, path)
        assert path.read_text() == text


def test_events_index_like_a_list():
    t = acts_1d([1, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 6])
    layer = LayerConfig(x=1, y=1, i=16, fx=1, fy=1, f=1)
    src = RawDispatchSource(t, ZERO, brick=4)
    got = run_dispatch(src, layer, lanes=2).events
    want = loop_dispatch(src, layer, lanes=2).events
    assert len(got) == len(want) == 8
    for i in range(-len(want), len(want)):
        assert got[i] == want[i]
    for sl in (slice(None), slice(2, 7), slice(None, None, -1), slice(-3, None),
               slice(1, 8, 3), slice(5, 2)):
        assert got[sl] == want[sl]
    for i in (8, -9):
        with pytest.raises(IndexError):
            got[i]
    assert got != want[:-1] and got != want[::-1] and got != "events"
    assert got == run_dispatch(src, layer, lanes=2).events
    assert got != run_dispatch(src, layer, lanes=3).events
    idle = RawDispatchSource(acts_1d([0] * 16), ZERO, brick=4)
    assert run_dispatch(idle, layer, lanes=2).events == run_dispatch(idle, layer, lanes=3).events == []
    with pytest.raises(ValueError):
        got.offsets[0] = 3  # the columns are read-only


def padded_case(integer, choice):
    """A `LaneCounts` or `EventColumns` over 1-9 lanes, of which 0-9 (at
    least 1 for events) are stored, and every item it holds restated from its
    columns and fills."""
    lanes = integer(1, 9)
    rng = np.random.default_rng(integer(0, 2**32 - 1))
    if choice([False, True]):
        width = integer(0, lanes)
        seq = dispatch.LaneCounts(rng.integers(0, 3, width), lanes)
        return seq, seq.counts.tolist() + [0] * (lanes - width)
    width, cycles = integer(1, lanes), integer(0, 3)
    offsets = rng.integers(-1, 3, cycles * width).astype(np.int32)
    values = np.where(offsets < 0, 0, rng.integers(-3, 4, cycles * width)).astype(np.int16)
    want = []
    for cycle in range(cycles):
        for lane in range(lanes):
            at = cycle * width + lane
            if lane < width and offsets[at] >= 0:
                want.append(DispatchEvent(cycle, lane, int(offsets[at]), int(values[at])))
            else:
                want.append(DispatchEvent(cycle, lane))
    return EventColumns(offsets, values, lanes, width), want


def slice_picks(integer, choice, n):
    """Ten slices of a sequence of ``n``: bounds past either end, steps of
    either sign."""
    def bound():
        return choice([None, integer(-n - 2, n + 2)])
    return [slice(bound(), bound(), choice([None, integer(-3, -1), integer(1, 3)]))
            for _ in range(10)]


def index_outcome(seq, item, start, stop):
    try:
        return seq.index(item, start, stop)
    except ValueError:
        return ValueError


def assert_padded_rows_read_like_a_list(integer, choice):
    """Indexing, slicing, iteration, ``in``, ``count`` and ``index`` of a
    padded sequence give what they give on the list of its items."""
    seq, want = padded_case(integer, choice)
    n = len(want)
    assert len(seq) == n and list(seq) == want
    assert [seq[i] for i in range(-n, n)] == want + want
    for sl in slice_picks(integer, choice, n):
        assert seq[sl] == want[sl], sl
        item = choice(want + [0, 2, DispatchEvent(0, 0)])
        assert (item in seq, seq.count(item)) == (item in want, want.count(item))
        assert index_outcome(seq, item, sl.start or 0, sl.stop) == \
            index_outcome(want, item, sl.start or 0, sl.stop if sl.stop is not None else n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_padded_rows_read_like_a_list(data):
    assert_padded_rows_read_like_a_list(*hypothesis_picks(data.draw))


def test_padded_rows_read_like_a_list_on_seeded_cases():
    """The property above on a fixed set of sequences."""
    seeded_cases(assert_padded_rows_read_like_a_list, seed=19, n=200)


def test_padded_rows_read_past_the_width_in_bulk():
    """Reading 2^20 lanes of which 18 are stored makes one object per lane
    and no call per lane: slices, iteration and the sequence mixins take
    about 30 ms each on 2 vCPUs, where they took 1.0-1.8 s item by item."""
    lanes = 1 << 20
    busy = dispatch.LaneCounts(np.arange(1, 19), lanes)
    start = time.perf_counter()
    assert not any(busy[18:]) and busy.count(0) == lanes - 18
    assert busy == list(busy) and 19 not in busy and busy.index(0, 5) == 18
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("wide_offsets, wide_values, equal", [
    ([3, -1, -1, -1, -1, -1], [5, 0, 0, 0, 0, 0], True),  # lanes 1 and 2 idle throughout
    ([3, -1, -1, -1, 2, -1], [5, 0, 0, 0, 7, 0], False),  # lane 1 sends in cycle 1
])
def test_event_columns_compare_by_columns_across_widths(wide_offsets, wide_values, equal):
    """Two runs at one lane count but of different widths hold the same
    events when the wider run's extra lanes are idle; the column comparison
    agrees with the per-event one either way round."""
    narrow = EventColumns(np.array([3, -1], dtype=np.int32), np.array([5, 0], dtype=np.int16),
                          lanes=3, width=1)
    wide = EventColumns(np.array(wide_offsets, dtype=np.int32),
                        np.array(wide_values, dtype=np.int16), lanes=3, width=3)
    assert (narrow == wide, wide == narrow) == (equal, equal)
    assert (narrow == list(wide), list(narrow) == wide) == (equal, equal)


# -- the slot order, shared with the cycle model -----------------------------

def slot_rows_case(integer, choice):
    """A layer of stride 1-3, 1-3 x 1-3 windows, fx != fy and 1-4 depth bricks."""
    brick, stride, nb = choice([1, 3, 4]), integer(1, 3), integer(1, 4)
    fx = integer(1, 3)
    fy = choice([n for n in (1, 2, 3) if n != fx])
    x, y = fx + stride * integer(0, 2), fy + stride * integer(0, 2)
    return LayerConfig(x, y, nb * brick, fx, fy, 1, stride), brick


def test_slot_rows_follow_the_brick_rule_on_seeded_layers():
    """Window (wx, wy) reads, in (fx, fy, depth brick) order, the bricks at
    (wx * stride + fx, wy * stride + fy), each at its `_brick_row`."""
    for layer, brick in seeded_cases(slot_rows_case, seed=3, n=150):
        nb, dims = layer.i // brick, (layer.x, layer.y, layer.i)
        want = [[tensor._brick_row(dims, brick, wx * layer.stride + fx, wy * layer.stride + fy, ib)
                 for fx in range(layer.fx) for fy in range(layer.fy) for ib in range(nb)]
                for wx in range(layer.ox) for wy in range(layer.oy)]
        assert dispatch._slot_rows(layer, nb).tolist() == want, (layer, brick)


# -- standing agreement with the cycle model ---------------------------------

@st.composite
def model_cases(draw):
    integer, choice = hypothesis_picks(draw)
    brick = choice([1, 3, 4, 16])
    fx, fy, stride = integer(1, 3), integer(1, 3), integer(1, 3)
    acts, values, _ = random_acts(integer, choice, brick, fx, fy, stride)
    f = integer(1, 6)
    filters = FilterSet.padded(values((f, fx, fy, acts.logical_i)), brick)
    layer = LayerConfig.from_tensors(acts, filters, stride)
    tiles = integer(1, 3)
    tile = TileConfig(tiles=tiles, filters_per_tile=-(-f // tiles) + integer(0, 2),
                      lanes=lane_count(integer, choice, fx * fy * (acts.i // brick)),
                      brick=brick, sync=choice(list(SyncPolicy)),
                      empty_brick=choice(list(EmptyBrickCost)))
    return (acts, filters, layer, tile, pick_criterion(integer, choice),
            pick_criterion(integer, choice))


@settings(max_examples=300, deadline=None)
@given(model_cases())
def test_cycle_model_matches_dispatcher(case):
    """One pass (`resident >= f`), pass-wide groups: run_cnv is the raw
    source's walk, and run_cnv2 the walk with the weight product table."""
    acts, filters, layer, tile, act_crit, weight_crit = case
    raw = RawDispatchSource(acts, act_crit, tile.brick)
    kwargs = dict(lanes=tile.lanes, policy=tile.sync, empty_brick_cost=tile.empty_brick)
    _, cnv = run_cnv(acts, filters, layer, tile, act_crit)
    _, cnv2 = run_cnv2(acts, filters, layer, tile, act_crit, weight_crit)
    prod = weight_product_table(filters, weight_crit, tile.brick)
    for report, walk in ((cnv, run_dispatch(raw, layer, **kwargs)),
                         (cnv2, run_dispatch(raw, layer, prod_table=prod, **kwargs))):
        assert (report.cycles, report.broadcasts, report.per_lane_busy) == \
            (walk.cycles, walk.broadcasts, walk.per_lane_busy), report.arch
