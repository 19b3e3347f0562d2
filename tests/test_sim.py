import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseaccel import (ActTensor, EmptyBrickCost, FilterSet, Format, GroupScope,
                         IneffCriterion, LayerConfig, RawDispatchSource, SyncPolicy,
                         SyntheticSpec, TileConfig, ZERO, dense_conv, gen_synthetic, run_arch,
                         run_baseline, run_cnv, run_cnv2, run_dispatch, weight_product_table)
from sparseaccel.errors import ConfigurationError, ValidationError

from helpers import (cycle_report_oracle, hypothesis_picks, lockstep_cycles, random_layer,
                     seeded_cases, window_brick_costs, window_sync_cycles)


def small_tile(lanes=16, **kw) -> TileConfig:
    kw.setdefault("tiles", 4)
    kw.setdefault("filters_per_tile", 8)
    return TileConfig(lanes=lanes, **kw)


def dead_positions(filters: FilterSet):
    """Plain-python product of weight deadness per (fx, fy, depth)."""
    f, fx, fy, i = filters.values.shape
    return [[[all(int(filters.values[n, a, b, d]) == 0 for n in range(f))
              for d in range(i)]
             for b in range(fy)]
            for a in range(fx)]


# -- baseline closed form ---------------------------------------------------

def test_baseline_closed_form():
    layer = LayerConfig(x=5, y=5, i=32, fx=2, fy=2, f=40)
    acts = ActTensor(np.ones((5, 5, 32), dtype=np.int16))
    filts = FilterSet(np.ones((40, 2, 2, 32), dtype=np.int16))
    tile = TileConfig(tiles=2, filters_per_tile=8, lanes=16)
    out, rep = run_baseline(acts, filts, layer, tile)
    # 3 filter passes of 16, 16 windows, 128 positions over 16 lanes
    assert rep.cycles == 3 * 16 * (128 // 16)
    assert rep.macs_performed == 16 * 128 * 40
    assert rep.macs_skipped == 0
    assert rep.broadcasts == 3 * 16 * 128
    assert rep.utilization == 1.0
    assert rep.per_lane_busy == (384,) * 16
    assert np.array_equal(out, dense_conv(acts, filts, layer))


def test_baseline_ragged_lane_split():
    layer = LayerConfig(x=1, y=1, i=24, fx=1, fy=1, f=1)
    acts = ActTensor(np.ones((1, 1, 24), dtype=np.int16))
    filts = FilterSet(np.ones((1, 1, 1, 24), dtype=np.int16))
    tile = TileConfig(tiles=1, filters_per_tile=1, lanes=16, brick=8)
    _, rep = run_baseline(acts, filts, layer, tile)
    assert rep.cycles == 2  # ceil(24 / 16)
    assert rep.per_lane_busy == (2,) * 8 + (1,) * 8
    assert rep.utilization == 24 / 32


# -- cnv against the replayed-trace oracle ----------------------------------

def test_cnv_matches_cost_oracle():
    rng = np.random.default_rng(99)
    for _ in range(30):
        acts, filts, layer = random_layer(rng, max_xy=10, max_i=64, max_f=8, brick=16)
        lanes = int(rng.choice([4, 8, 16]))
        costs = window_brick_costs(acts.values, layer.stride, layer.fx,
                                   layer.fy, 16)
        for sync, oracle in ((SyncPolicy.BRICKSET_LOCKSTEP, lockstep_cycles),
                             (SyncPolicy.WINDOW_SYNC, window_sync_cycles)):
            for drain in (EmptyBrickCost.ZERO_CYCLES, EmptyBrickCost.ONE_CYCLE):
                tile = small_tile(lanes=lanes, sync=sync, empty_brick=drain)
                _, rep = run_cnv(acts, filts, layer, tile)
                want = oracle(costs, lanes, drain is EmptyBrickCost.ONE_CYCLE)
                assert rep.cycles == want, (sync, drain)


def test_cnv2_matches_cost_oracle_with_dead_weights():
    rng = np.random.default_rng(41)
    for _ in range(12):
        acts, filts, layer = random_layer(rng, max_xy=8, max_i=32, max_f=6,
                                          brick=16, p_wt=0.7)
        tile = small_tile(lanes=8)  # resident 32 covers every filter in one pass
        costs = window_brick_costs(acts.values, layer.stride, layer.fx, layer.fy,
                                   16, dead=dead_positions(filts))
        _, rep = run_cnv2(acts, filts, layer, tile)
        assert rep.cycles == lockstep_cycles(costs, 8)


def test_cnv_multi_pass_scales_cycles():
    rng = np.random.default_rng(8)
    acts, filts, layer = random_layer(rng, max_xy=6, max_i=32, max_f=1, brick=16)
    filts = FilterSet(np.repeat(filts.values, 12, axis=0))
    layer = LayerConfig(layer.x, layer.y, layer.i, layer.fx, layer.fy, 12, layer.stride)
    one = TileConfig(tiles=2, filters_per_tile=6, lanes=8)   # 1 pass
    three = TileConfig(tiles=2, filters_per_tile=2, lanes=8)  # 3 passes
    _, rep1 = run_cnv(acts, filts, layer, one)
    _, rep3 = run_cnv(acts, filts, layer, three)
    assert rep3.cycles == 3 * rep1.cycles
    assert rep3.broadcasts == 3 * rep1.broadcasts
    assert rep3.macs_performed == rep1.macs_performed  # work, not time


def test_cnv_agrees_with_event_walker():
    rng = np.random.default_rng(17)
    for _ in range(6):
        acts, filts, layer = random_layer(rng, max_xy=6, max_i=48, max_f=4, brick=16)
        tile = small_tile(lanes=8)
        _, rep = run_cnv(acts, filts, layer, tile)
        walk = run_dispatch(RawDispatchSource(acts, ZERO, 16), layer, lanes=8)
        assert rep.cycles == walk.cycles
        assert rep.broadcasts == walk.broadcasts
        assert rep.per_lane_busy == walk.per_lane_busy


# -- cost width and passes that cost the shared counts ------------------------

def walk_totals(acts, filters, layer, tile, prod_tables):
    """Cycles, broadcasts and per-lane busy counts of one dispatcher walk per
    pass, each under its pass's product table, summed."""
    walks = [run_dispatch(RawDispatchSource(acts, ZERO, tile.brick), layer, lanes=tile.lanes,
                          policy=tile.sync, empty_brick_cost=tile.empty_brick, prod_table=prod)
             for prod in prod_tables]
    busy = [sum(lane) for lane in zip(*(w.per_lane_busy for w in walks))]
    return sum(w.cycles for w in walks), sum(w.broadcasts for w in walks), busy


@pytest.mark.parametrize("sync", list(SyncPolicy))
@pytest.mark.parametrize("drop", [False, True], ids=["no-dead-weight", "dead-offset-0"])
@pytest.mark.parametrize("brick", [1, 255, 256])
def test_a_full_brick_costs_its_whole_width(brick, drop, sync):
    """Every activation is effectual, so each brick costs B, or B - 1 where
    cnv2 drops offset 0: a count held in uint8 would read 256 as 0. Four
    bricks per window over three lanes, in one pass; cnv2's counters are
    checked last."""
    acts = ActTensor(np.ones((3, 2, 2 * brick), dtype=np.int16))
    weights = np.ones((2, 2, 1, 2 * brick), dtype=np.int16)
    if drop:
        weights[..., ::brick] = 0  # offset 0 of each depth brick
    filters = FilterSet(weights)
    layer = LayerConfig.from_tensors(acts, filters)
    tile = TileConfig(tiles=1, filters_per_tile=2, lanes=3, brick=brick, sync=sync)
    prod = weight_product_table(filters, ZERO, brick)
    for runner, table in ((run_cnv, None), (run_cnv2, prod)):
        _, rep = runner(acts, filters, layer, tile)
        assert (rep.cycles, rep.broadcasts, list(rep.per_lane_busy)) == \
            walk_totals(acts, filters, layer, tile, [table]), runner.__name__
    assert rep.broadcasts == layer.ox * layer.oy * 4 * (brick - drop)


def mixed_pass_filters() -> FilterSet:
    """Eight 2x2x8 filters in four passes of two. Pass-wide, passes 0 and 2
    drop no position, pass 1 drops (0, 0, 1) and pass 3 drops (1, 1, 2).
    Per tile (one filter a group), pass 2 mixes a group that drops (0, 1, 5)
    with one that drops nothing, and pass 3's groups drop different sets."""
    weights = np.random.default_rng(5).integers(1, 9, size=(8, 2, 2, 8)).astype(np.int16)
    weights[2:4, 0, 0, 1] = 0
    weights[4, 0, 1, 5] = 0
    weights[6:8, 1, 1, 2] = 0
    weights[6, 1, 0, 3] = 0
    return FilterSet(weights)


@pytest.mark.parametrize("sync", list(SyncPolicy))
@pytest.mark.parametrize("scope", list(GroupScope))
def test_passes_that_drop_nothing_share_one_schedule(scope, sync):
    """cnv2 over passes that drop positions and passes that drop none: every
    report field equals the oracle's, and pass-wide each pass is the
    dispatcher's walk under that pass's product table."""
    rng = np.random.default_rng(12)
    values = rng.integers(-5, 6, size=(5, 4, 8))
    values[rng.random(values.shape) < 0.4] = 0
    acts, filters = ActTensor(values), mixed_pass_filters()
    layer = LayerConfig.from_tensors(acts, filters)
    tile = TileConfig(tiles=2, filters_per_tile=1, lanes=3, brick=4, sync=sync,
                      group_scope=scope)
    tables = [weight_product_table(filters, ZERO, 4, lo, lo + 2) for lo in range(0, 8, 2)]
    assert [t.any() for t in tables] == [False, True, False, True]
    out, rep = run_cnv2(acts, filters, layer, tile)
    want = cycle_report_oracle("cnv2", acts, filters, layer, tile, ZERO, ZERO, "zfnaf")
    assert np.array_equal(out, want.out)
    assert {k: getattr(rep, k) for k in REPORT_FIELDS} == \
        {k: getattr(want, k) for k in REPORT_FIELDS}
    if scope is GroupScope.PASS_WIDE:
        assert (rep.cycles, rep.broadcasts, list(rep.per_lane_busy)) == \
            walk_totals(acts, filters, layer, tile, tables)


# -- every report field against the oracle ----------------------------------

CRITERIA = ["zero", "abs:1", "abs:4", "abs:30", "pow2:1", "pow2:3"]


def machine_case(integer, choice):
    """One random layer, machine shape, pair of criteria and output format.
    ``integer(lo, hi)`` and ``choice(options)`` make every pick: hypothesis
    draws them in `machine_cases`, a seeded generator in `helpers.seeded_cases`."""
    brick = choice([1, 3, 4, 8, 16])
    fx, fy, stride = integer(1, 3), integer(1, 3), integer(1, 3)
    ox, oy = integer(1, 3), integer(1, 3)
    depth = integer(1, 2 * brick + 4)  # often not a brick multiple: padded
    f = integer(1, 7)
    vmax = choice([3, 40])
    rng = np.random.default_rng(integer(0, 2**32 - 1))

    def values(shape):
        arr = rng.integers(-vmax, vmax + 1, size=shape)
        arr[rng.random(shape) < rng.uniform(0.0, 1.0)] = 0
        return arr

    acts = ActTensor.padded(values((fx + stride * (ox - 1), fy + stride * (oy - 1), depth)),
                            brick)
    filters = FilterSet.padded(values((f, fx, fy, depth)), brick)
    layer = LayerConfig.from_tensors(acts, filters, stride)
    slots = fx * fy * (acts.i // brick)
    tile = TileConfig(tiles=integer(1, 3), filters_per_tile=integer(1, 3),
                      lanes=integer(1, slots + 2), brick=brick,
                      sync=choice(list(SyncPolicy)),
                      empty_brick=choice(list(EmptyBrickCost)),
                      group_scope=choice(list(GroupScope)))
    return (acts, filters, layer, tile, IneffCriterion.parse(choice(CRITERIA)),
            IneffCriterion.parse(choice(CRITERIA)), choice(list(Format)))


@st.composite
def machine_cases(draw):
    return machine_case(*hypothesis_picks(draw))


REPORT_FIELDS = ("arch", "cycles", "macs_performed", "macs_skipped", "broadcasts",
                 "footprint_bits", "utilization", "per_lane_busy")


def assert_reports_match_oracle(case):
    acts, filters, layer, tile, act_crit, weight_crit, fmt = case
    for arch in ("baseline", "cnv", "cnv2"):
        out, rep = run_arch(arch, acts, filters, layer, tile, act_crit, weight_crit,
                            out_format=fmt)
        want = cycle_report_oracle(arch, acts, filters, layer, tile, act_crit,
                                   weight_crit, fmt.value)
        assert np.array_equal(out, want.out), arch
        assert {k: getattr(rep, k) for k in REPORT_FIELDS} == \
            {k: getattr(want, k) for k in REPORT_FIELDS}


@settings(max_examples=200, deadline=None)
@given(machine_cases())
def test_reports_match_oracle(case):
    """All three machines, multi-pass, both scopes, both sync policies, both
    empty-brick costs and non-zero criteria: every report field and the
    output equal the pure-Python oracle."""
    assert_reports_match_oracle(case)


def test_reports_match_oracle_on_seeded_layers():
    """The property above on a fixed set of layers, so a fault it finds only
    by chance is still found every run."""
    for case in seeded_cases(machine_case, seed=16, n=100):
        assert_reports_match_oracle(case)


# -- conservation and report wiring ------------------------------------------

def test_mac_conservation_all_archs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        acts, filts, layer = random_layer(rng, max_xy=8, max_i=32, max_f=8,
                                          p_wt=0.5)
        total = layer.ox * layer.oy * layer.window_positions * layer.f
        for arch in ("baseline", "cnv", "cnv2"):
            _, rep = run_arch(arch, acts, filts, layer, small_tile())
            assert rep.macs_performed + rep.macs_skipped == total
            assert 0.0 <= rep.utilization <= 1.0


def test_fixture_counters_are_exact():
    av = np.array([1, 0, 2, 0, 0, 3, 0, 4, 5, 0, 6, 0, 7, 6, 0, 5],
                  dtype=np.int16).reshape(1, 1, 16)
    acts = ActTensor(av)
    f0 = [1] * 16
    f0[13] = 0
    f1 = [2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 1, 1, 1, 0, 2, 1]
    filts = FilterSet(np.array([f0, f1], dtype=np.int16).reshape(2, 1, 1, 16))
    layer = LayerConfig(x=1, y=1, i=16, fx=1, fy=1, f=2)
    tile = TileConfig(tiles=1, filters_per_tile=2, lanes=4, brick=4)

    _, base = run_baseline(acts, filts, layer, tile)
    _, cnv = run_cnv(acts, filts, layer, tile)
    _, cnv2 = run_cnv2(acts, filts, layer, tile)
    assert (base.cycles, cnv.cycles, cnv2.cycles) == (4, 3, 2)
    assert cnv.broadcasts == 9 and cnv.macs_performed == 18
    assert cnv2.broadcasts == 8 and cnv2.macs_performed == 16
    assert cnv.per_lane_busy == (2, 2, 2, 3)
    assert cnv2.per_lane_busy == (2, 2, 2, 2)


def test_report_footprint_tracks_output_format():
    rng = np.random.default_rng(2)
    acts, filts, layer = random_layer(rng, max_xy=4, max_i=16, max_f=4)
    raw = run_arch("cnv", acts, filts, layer, small_tile(),
                   out_format=Format.RAW)[1].footprint_bits
    zf = run_arch("cnv", acts, filts, layer, small_tile(),
                  out_format=Format.ZFNAF)[1].footprint_bits
    pad_f = -(-layer.f // 16) * 16
    assert raw == layer.ox * layer.oy * pad_f * 16
    assert zf == raw + raw // 4


@pytest.mark.parametrize("arch", ["cnv", "cnv2"])
def test_cviai_footprint_counts_what_the_skip_criterion_keeps(arch):
    # outputs -1 and 11: abs:4 keeps one of them, the zero criterion both
    acts = ActTensor(np.array([[[5, 6]]], dtype=np.int16))
    filters = FilterSet(np.array([[[[1, -1]]], [[[1, 1]]]], dtype=np.int16))
    layer = LayerConfig.from_tensors(acts, filters)
    tile = TileConfig(tiles=1, filters_per_tile=2, lanes=2, brick=2)
    crit = IneffCriterion.parse("abs:4")
    out, rep = run_arch(arch, acts, filters, layer, tile, crit, ZERO, out_format=Format.CVIAI)
    assert out.reshape(-1).tolist() == [-1, 11]
    assert rep.footprint_bits == cycle_report_oracle(arch, acts, filters, layer, tile, crit,
                                                     ZERO, "cviai").footprint_bits
    assert rep.footprint_bits < run_arch(arch, acts, filters, layer, tile, ZERO, ZERO,
                                         out_format=Format.CVIAI)[1].footprint_bits


# -- orderings ----------------------------------------------------------------

def test_cycle_ordering_on_divisible_geometry():
    rng = np.random.default_rng(55)
    for _ in range(15):
        acts, filts, layer = random_layer(rng, max_xy=10, max_i=64, max_f=8,
                                          lanes=16, p_wt=0.6)
        reports = {a: run_arch(a, acts, filts, layer, small_tile())[1]
                   for a in ("baseline", "cnv", "cnv2")}
        assert reports["cnv2"].cycles <= reports["cnv"].cycles
        assert reports["cnv"].cycles <= reports["baseline"].cycles


def test_ragged_windows_can_beat_the_skipper():
    # 18 bricks over 16 lanes: the dense machine streams 288 positions in 18
    # cycles while the skipper pays two brick sets, up to 32. This is the
    # documented cost of lockstep sets when lanes do not divide the window.
    acts = ActTensor(np.ones((3, 3, 32), dtype=np.int16))
    filts = FilterSet(np.ones((1, 3, 3, 32), dtype=np.int16))
    layer = LayerConfig(x=3, y=3, i=32, fx=3, fy=3, f=1)
    tile = small_tile(lanes=16)
    _, base = run_baseline(acts, filts, layer, tile)
    _, cnv = run_cnv(acts, filts, layer, tile)
    assert base.cycles == 18
    assert cnv.cycles == 32


def test_zeroing_never_slows_the_skippers():
    rng = np.random.default_rng(77)
    acts, filts, layer = random_layer(rng, max_xy=8, max_i=64, max_f=4,
                                      lanes=8, p_act=0.4)
    tile = small_tile(lanes=8)
    base_cnv = run_cnv(acts, filts, layer, tile)[1].cycles
    base_cnv2 = run_cnv2(acts, filts, layer, tile)[1].cycles
    nz = np.argwhere(acts.values != 0)
    for k in range(20):
        x, y, d = nz[rng.integers(len(nz))]
        mutated = acts.values.copy()
        mutated[x, y, d] = 0
        macts = ActTensor(mutated)
        assert run_cnv(macts, filts, layer, tile)[1].cycles <= base_cnv
        assert run_cnv2(macts, filts, layer, tile)[1].cycles <= base_cnv2


def test_one_cycle_drain_never_faster():
    rng = np.random.default_rng(13)
    for _ in range(8):
        acts, filts, layer = random_layer(rng, max_xy=6, max_i=32, max_f=4,
                                          p_act=0.9)
        free = small_tile(empty_brick=EmptyBrickCost.ZERO_CYCLES)
        drain = small_tile(empty_brick=EmptyBrickCost.ONE_CYCLE)
        assert (run_cnv(acts, filts, layer, drain)[1].cycles
                >= run_cnv(acts, filts, layer, free)[1].cycles)


# -- group scope ---------------------------------------------------------------

def test_per_tile_scope_finds_more_skips():
    acts = ActTensor(np.array([1, 2, 3, 4], dtype=np.int16).reshape(1, 1, 4))
    filts = FilterSet(np.array([[1, 1, 1, 0], [1, 0, 1, 1]],
                               dtype=np.int16).reshape(2, 1, 1, 4))
    layer = LayerConfig(x=1, y=1, i=4, fx=1, fy=1, f=2)
    wide = TileConfig(tiles=2, filters_per_tile=1, lanes=4, brick=4,
                      group_scope=GroupScope.PASS_WIDE)
    tiled = TileConfig(tiles=2, filters_per_tile=1, lanes=4, brick=4,
                       group_scope=GroupScope.PER_TILE)
    out_w, rep_w = run_cnv2(acts, filts, layer, wide)
    out_t, rep_t = run_cnv2(acts, filts, layer, tiled)
    assert rep_w.cycles == 4  # no offset is dead in both filters at once
    assert rep_t.cycles == 3  # each tile drops its own dead offset
    assert rep_w.macs_performed == 8 and rep_t.macs_performed == 6
    assert rep_w.broadcasts == 4 and rep_t.broadcasts == 6  # one feed per group
    want = [[[1 + 2 + 3, 1 + 3 + 4]]]
    assert out_w.tolist() == want and out_t.tolist() == want


def test_per_tile_never_slower_than_pass_wide():
    rng = np.random.default_rng(3)
    for _ in range(8):
        acts, filts, layer = random_layer(rng, max_xy=6, max_i=32, max_f=8,
                                          p_wt=0.75)
        wide = TileConfig(tiles=2, filters_per_tile=4, lanes=8,
                          group_scope=GroupScope.PASS_WIDE)
        tiled = TileConfig(tiles=2, filters_per_tile=4, lanes=8,
                           group_scope=GroupScope.PER_TILE)
        cw = run_cnv2(acts, filts, layer, wide)[1].cycles
        ct = run_cnv2(acts, filts, layer, tiled)[1].cycles
        assert ct <= cw


# -- product table and validation ----------------------------------------------

def test_weight_product_table_values():
    filts = FilterSet(np.array([[0, 2, 0, 0], [0, 5, 0, 1]],
                               dtype=np.int16).reshape(2, 1, 1, 4))
    table = weight_product_table(filts, ZERO, brick=4)
    assert table.shape == (1, 1, 1, 4)
    assert table[0, 0, 0].tolist() == [True, False, True, False]
    half = weight_product_table(filts, ZERO, brick=4, lo=0, hi=1)
    assert half[0, 0, 0].tolist() == [True, False, True, True]
    with pytest.raises(ConfigurationError):
        weight_product_table(filts, ZERO, brick=4, lo=1, hi=1)


def test_tile_config_validation():
    with pytest.raises(ConfigurationError):
        TileConfig(tiles=0)
    with pytest.raises(ConfigurationError):
        TileConfig(lanes=-4)
    assert TileConfig(tiles=3, filters_per_tile=5).resident == 15


# 9x9x40 input, 8 3x3 filters, bricks of 8: 45 bricks per window over 16 lanes
ENUM_SPEC = SyntheticSpec(x=9, y=9, i=40, f=8, fx=3, fy=3, p_act_zero=0.6, p_wt_zero=0.5,
                          seed=3, brick=8)


@pytest.mark.parametrize("field, value, arch, crit, kw, cycles", [
    # the plain strings used to fall through to the other member: 665, 224, 1591 cycles
    ("sync", SyncPolicy.BRICKSET_LOCKSTEP, "cnv", ZERO, {}, 823),
    ("empty_brick", EmptyBrickCost.ONE_CYCLE, "cnv", IneffCriterion("abs", 100),
     dict(sync=SyncPolicy.WINDOW_SYNC), 261),
    ("group_scope", GroupScope.PER_TILE, "cnv2", ZERO, dict(tiles=2, filters_per_tile=2), 1494),
])
def test_tile_config_refuses_plain_values_for_enums(field, value, arch, crit, kw, cycles):
    acts, filters = gen_synthetic(ENUM_SPEC)
    layer = LayerConfig.from_tensors(acts, filters)
    with pytest.raises(ConfigurationError, match=field):
        TileConfig(lanes=16, brick=8, **kw, **{field: value.value})
    tile = TileConfig(lanes=16, brick=8, **kw, **{field: value})
    assert run_arch(arch, acts, filters, layer, tile, crit)[1].cycles == cycles


def test_positive_fields_refuse_bools():
    with pytest.raises(ConfigurationError):
        TileConfig(lanes=True, tiles=True)
    with pytest.raises(ConfigurationError):
        LayerConfig(x=2, y=2, i=16, fx=1, fy=1, f=True)
    with pytest.raises(ValidationError):
        SyntheticSpec(x=2, y=2, i=8, f=1, fx=1, fy=True)
    assert TileConfig(lanes=np.int64(4)).lanes == 4


MiB = 1 << 20
MILLION_LANES = 1 << 20


def run_raw_dispatch(acts, filters, layer, tile):
    """`run_dispatch` over the raw source, called like the machines."""
    return None, run_dispatch(RawDispatchSource(acts, ZERO, tile.brick), layer, lanes=tile.lanes)


@pytest.mark.parametrize("runner, slots", [(run_baseline, 288), (run_cnv, 18), (run_cnv2, 18),
                                           (run_raw_dispatch, 18)],
                         ids=["run_baseline", "run_cnv", "run_cnv2", "run_raw_dispatch"])
def test_lanes_past_the_window_allocate_nothing(runner, slots):
    """Lanes past a window's 18 bricks (its 288 positions for the baseline)
    never get one, so 2^20 lanes stay under 2 MiB. A grid padded to the lane
    count took 44.6 MB on this layer at 32768 lanes, and busy counts padded
    to it take 8 MiB at 2^20. Every lane from the slot count up to lane
    32768 reads 0, and so does the last lane."""
    acts, filters = gen_synthetic(SyntheticSpec(x=15, y=15, i=32, f=16, fx=3, fy=3))
    layer = LayerConfig.from_tensors(acts, filters)
    tracemalloc.start()
    try:
        _, report = runner(acts, filters, layer, TileConfig(lanes=MILLION_LANES))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * MiB
    busy = report.per_lane_busy
    assert len(busy) == MILLION_LANES and busy[-1] == 0
    assert all(busy[:slots]) and not any(busy[slots:32768])


def test_cnv2_without_a_dropped_position_peaks_no_higher_than_cnv():
    """No filter group of this layer drops a position, so cnv2 costs cnv's
    gathered effectual counts: it gathers no (windows, slots, B) bits and
    copies no weights, and its traced peak is no higher than cnv's. Each
    machine runs once untraced first, so neither peak holds a first call's
    one-off allocations. The 1 KiB allowance covers small Python objects,
    such as a line tracer's (`mutants/reach.py`); the bits would take 57.6
    KB and a weight copy 73.7 KB."""
    acts, filters = gen_synthetic(SyntheticSpec(x=12, y=12, i=64, f=64, fx=3, fy=3,
                                                p_act_zero=0.5, p_wt_zero=0.4, seed=3))
    layer, tile = LayerConfig.from_tensors(acts, filters), TileConfig()
    assert not weight_product_table(filters, ZERO, tile.brick).any()
    peaks = {}
    for runner in (run_cnv, run_cnv2):
        runner(acts, filters, layer, tile)
        tracemalloc.start()
        try:
            runner(acts, filters, layer, tile)
            peaks[runner] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[run_cnv2] <= peaks[run_cnv] + 1024


LANES_PAST_THE_SLOTS = [1, 5, MILLION_LANES]


def assert_lanes_past_the_slots_change_nothing(case, extra):
    """At or above a machine's slot count (a window's bricks, or its positions
    for the baseline) more lanes change neither the cycles nor a stored busy
    count, and every added lane reads 0."""
    acts, filters, layer, tile, act_crit, weight_crit, _ = case
    for arch in ("baseline", "cnv", "cnv2"):
        slots = layer.window_positions if arch == "baseline" else \
            layer.fx * layer.fy * (layer.i // tile.brick)
        narrow, wide = (run_arch(arch, acts, filters, layer, replace(tile, lanes=n), act_crit,
                                 weight_crit)[1] for n in (slots, slots + extra))
        assert wide.cycles == narrow.cycles, arch
        assert wide.per_lane_busy[:slots] == narrow.per_lane_busy, arch
        assert len(wide.per_lane_busy) == slots + extra, arch
        assert not any(wide.per_lane_busy[slots:slots + 1024]), arch
        assert wide.per_lane_busy[-1] == 0, arch


@settings(max_examples=100, deadline=None)
@given(machine_cases(), st.sampled_from(LANES_PAST_THE_SLOTS))
def test_lanes_past_the_slots_change_nothing(case, extra):
    assert_lanes_past_the_slots_change_nothing(case, extra)


def test_lanes_past_the_slots_change_nothing_on_seeded_layers():
    """The property above on a fixed set of layers."""
    for n, case in enumerate(seeded_cases(machine_case, seed=20, n=60)):
        assert_lanes_past_the_slots_change_nothing(case, LANES_PAST_THE_SLOTS[n % 3])


def test_run_arch_rejects_unknown():
    rng = np.random.default_rng(1)
    acts, filts, layer = random_layer(rng, max_xy=4, max_i=16, max_f=2)
    with pytest.raises(ConfigurationError):
        run_arch("dense", acts, filts, layer, small_tile())


def test_runner_validates_dims():
    acts = ActTensor(np.ones((4, 4, 16), dtype=np.int16))
    filts = FilterSet(np.ones((2, 1, 1, 16), dtype=np.int16))
    wrong = LayerConfig(x=4, y=4, i=16, fx=1, fy=1, f=3)
    with pytest.raises(ConfigurationError):
        run_cnv(acts, filts, wrong, small_tile())
