import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseaccel import (ActTensor, FilterSet, LayerConfig, RawDispatchSource, ZERO, brick_at,
                         conv3d, dense_conv, pad_depth, weight_product_table)
from sparseaccel.errors import BoundsError, ConfigurationError
import sparseaccel.tensor as tensor
from sparseaccel.tensor import Brick

from helpers import (FLOAT32_LIMIT_CASES, einsum_conv, naive_conv, random_layer, traced_peak,
                     window_bricks, window_slices)


# -- containers ---------------------------------------------------------

def test_act_tensor_basics():
    t = ActTensor(np.zeros((2, 3, 4), dtype=np.int16))
    assert t.dims == (2, 3, 4)
    assert (t.x, t.y, t.i) == (2, 3, 4)
    assert t.logical_i == 4
    assert t.brick_count(4) == 1
    assert t.brick_count(2) == 2


def test_act_tensor_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        ActTensor(np.zeros((2, 3), dtype=np.int16))  # not 3-D
    with pytest.raises(ConfigurationError):
        ActTensor(np.zeros((2, 3, 4), dtype=np.float64))  # not integer
    with pytest.raises(ConfigurationError):
        ActTensor(np.full((1, 1, 1), 40000, dtype=np.int64))  # over int16
    with pytest.raises(ConfigurationError):
        ActTensor(np.full((1, 1, 1), -40000, dtype=np.int64))
    with pytest.raises(ConfigurationError):
        ActTensor(np.zeros((2, 3, 4), dtype=np.int16), logical_i=5)
    with pytest.raises(ConfigurationError):
        ActTensor(np.zeros((2, 3, 4), dtype=np.int16), logical_i=0)


def test_int16_boundaries_accepted():
    vals = np.array([[[32767, -32768]]], dtype=np.int64)
    t = ActTensor(vals)
    assert t.values.dtype == np.int16
    assert t.values[0, 0, 0] == 32767
    assert t.values[0, 0, 1] == -32768


def test_pad_depth():
    arr = np.arange(6, dtype=np.int16).reshape(1, 1, 6)
    padded = pad_depth(arr, 4)
    assert padded.shape == (1, 1, 8)
    assert padded[0, 0, :6].tolist() == [0, 1, 2, 3, 4, 5]
    assert padded[0, 0, 6:].tolist() == [0, 0]
    assert pad_depth(arr, 3).shape == (1, 1, 6)  # already a multiple
    with pytest.raises(ConfigurationError):
        pad_depth(arr, 0)


@pytest.mark.parametrize("brick", [0, -4])
def test_brick_sizes_below_one_are_configuration_errors(brick):
    acts = ActTensor(np.ones((1, 1, 8), dtype=np.int16))
    filters = FilterSet(np.ones((1, 1, 1, 8), dtype=np.int16))
    calls = [lambda: acts.brick_count(brick),
             lambda: RawDispatchSource(acts, ZERO, brick),
             lambda: weight_product_table(filters, ZERO, brick),
             lambda: brick_at(acts, 0, 0, 0, brick=brick)]
    for call in calls:
        with pytest.raises(ConfigurationError, match="at least 1"):
            call()


def test_padded_constructor_keeps_logical_depth():
    t = ActTensor.padded(np.ones((2, 2, 20), dtype=np.int16), 16)
    assert t.i == 32
    assert t.logical_i == 20
    assert (t.values[:, :, 20:] == 0).all()
    fs = FilterSet.padded(np.ones((3, 1, 1, 20), dtype=np.int16), 16)
    assert fs.i == 32
    assert fs.logical_i == 20


def test_filter_set_shape_accessors():
    fs = FilterSet(np.zeros((5, 3, 2, 8), dtype=np.int16))
    assert fs.count == 5
    assert (fs.fx, fs.fy, fs.i) == (3, 2, 8)


def test_tensor_reprs_name_their_shapes():
    acts = ActTensor.padded(np.zeros((2, 3, 5), dtype=np.int16), 4)
    assert repr(acts) == "ActTensor(dims=(2, 3, 8), logical_i=5)"
    filters = FilterSet(np.zeros((5, 3, 2, 8), dtype=np.int16))
    assert repr(filters) == "FilterSet(count=5, dims=(3, 2, 8))"


# -- layer geometry ------------------------------------------------------

def test_layer_config_output_extent():
    layer = LayerConfig(x=8, y=6, i=16, fx=3, fy=3, f=4, stride=1)
    assert (layer.ox, layer.oy) == (6, 4)
    assert layer.window_positions == 3 * 3 * 16
    strided = LayerConfig(x=9, y=9, i=16, fx=3, fy=3, f=4, stride=2)
    assert (strided.ox, strided.oy) == (4, 4)


def test_layer_config_validation():
    with pytest.raises(ConfigurationError):
        LayerConfig(x=2, y=2, i=16, fx=3, fy=1, f=1)  # filter wider than input
    with pytest.raises(ConfigurationError):
        LayerConfig(x=8, y=8, i=16, fx=3, fy=3, f=1, stride=2)  # does not tile
    with pytest.raises(ConfigurationError):
        LayerConfig(x=0, y=2, i=16, fx=1, fy=1, f=1)
    layer = LayerConfig(x=4, y=4, i=24, fx=1, fy=1, f=1)
    layer.check_brick(8)
    with pytest.raises(ConfigurationError):
        layer.check_brick(16)


def test_layer_config_from_tensors():
    acts = ActTensor(np.zeros((4, 4, 16), dtype=np.int16))
    filts = FilterSet(np.zeros((2, 3, 3, 16), dtype=np.int16))
    layer = LayerConfig.from_tensors(acts, filts)
    assert (layer.ox, layer.oy, layer.f) == (2, 2, 2)
    bad = FilterSet(np.zeros((2, 3, 3, 8), dtype=np.int16))
    with pytest.raises(ConfigurationError):
        LayerConfig.from_tensors(acts, bad)


# -- brick addressing ----------------------------------------------------

def test_brick_alignment_enforced():
    Brick(0, 0, 8, np.zeros(4, dtype=np.int16))
    with pytest.raises(ConfigurationError):
        Brick(0, 0, 6, np.zeros(4, dtype=np.int16))


def test_brick_at():
    vals = np.arange(2 * 2 * 8, dtype=np.int16).reshape(2, 2, 8)
    t = ActTensor(vals)
    b = brick_at(t, 1, 0, 1, brick=4)
    assert (b.x, b.y, b.i) == (1, 0, 4)
    assert b.values.tolist() == vals[1, 0, 4:8].tolist()
    b.values[0] = 99  # copies, never aliases
    assert vals[1, 0, 4] != 99
    with pytest.raises(BoundsError):
        brick_at(t, 2, 0, 0, brick=4)
    with pytest.raises(BoundsError):
        brick_at(t, 0, 0, 2, brick=4)


def test_window_bricks_order():
    layer = LayerConfig(x=3, y=3, i=32, fx=2, fy=2, f=1)
    got = window_bricks(layer, 1, 0, brick=16)
    assert got == [
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1),
    ]
    with pytest.raises(BoundsError):
        window_bricks(layer, 2, 0, brick=16)


def test_window_bricks_respects_stride():
    layer = LayerConfig(x=5, y=5, i=16, fx=3, fy=3, f=1, stride=2)
    got = window_bricks(layer, 1, 1, brick=16)
    assert got[0] == (2, 2, 0)
    assert got[-1] == (4, 4, 0)


def test_window_slices_round_robin():
    layer = LayerConfig(x=2, y=2, i=48, fx=2, fy=2, f=1)
    assignments = list(window_slices(layer, lanes=4, brick=16))
    assert len(assignments) == 1
    wa = assignments[0]
    order = window_bricks(layer, 0, 0, brick=16)  # 12 bricks
    for lane in range(4):
        assert wa.lanes[lane] == tuple(order[lane::4])


def test_window_slices_tail_lanes_empty():
    layer = LayerConfig(x=1, y=1, i=32, fx=1, fy=1, f=1)
    wa = next(window_slices(layer, lanes=4, brick=16))
    assert wa.lanes[0] and wa.lanes[1]
    assert wa.lanes[2] == () and wa.lanes[3] == ()


# -- convolution against the hand oracle ---------------------------------

def test_conv3d_known_values_depth2():
    acts = np.array([[[1, 2], [3, -1]],
                     [[0, 4], [-2, 5]]], dtype=np.int16)
    wts = np.array([[[[2, 3]]], [[[-1, 1]]]], dtype=np.int16)
    out = conv3d(acts, wts)
    assert out.shape == (2, 2, 2)
    assert out[:, :, 0].tolist() == [[8, 3], [12, 11]]
    assert out[:, :, 1].tolist() == [[1, -4], [4, 7]]


def test_conv3d_known_values_2x2_taps():
    grid = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.int16)
    acts = grid.reshape(3, 3, 1)
    wts = np.array([[[1], [0]], [[0], [1]]], dtype=np.int16).reshape(1, 2, 2, 1)
    out = conv3d(acts, wts)
    assert out[:, :, 0].tolist() == [[6, 8], [12, 14]]


def test_conv3d_matches_naive_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(25):
        acts, filts, layer = random_layer(rng, max_xy=6, max_i=32, max_f=4)
        got = dense_conv(acts, filts, layer)
        want = naive_conv(acts.values, filts.values, layer.stride)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_conv3d_no_int16_overflow():
    # worst-case products would wreck an int16 accumulator
    acts = np.full((1, 1, 16), 32767, dtype=np.int16)
    wts = np.full((1, 1, 1, 16), -32768, dtype=np.int16)
    out = conv3d(acts, wts)
    assert out[0, 0, 0] == 16 * 32767 * -32768
    assert out[0, 0, 0] == int(naive_conv(acts, wts)[0, 0, 0])
    # 9 * 64 = 576 products of 2**30 each: the float64 sums must stay exact
    acts = np.full((5, 5, 64), -32768, dtype=np.int16)
    wts = np.full((2, 3, 3, 64), -32768, dtype=np.int16)
    wts[1] = 32767
    out = conv3d(acts, wts)
    assert (out[..., 0] == 3 * 3 * 64 * 2**30).all()
    assert (out[..., 1] == 3 * 3 * 64 * -32768 * 32767).all()


def test_dense_conv_validates_shapes():
    acts = ActTensor(np.zeros((4, 4, 16), dtype=np.int16))
    filts = FilterSet(np.zeros((2, 3, 3, 16), dtype=np.int16))
    wrong = LayerConfig(x=4, y=4, i=16, fx=3, fy=3, f=3)
    with pytest.raises(ConfigurationError):
        dense_conv(acts, filts, wrong)


@st.composite
def conv_cases(draw, vmax=st.just(32767)):
    """A layer's int16 tensors with values in [-top - 1, top], top drawn from
    ``vmax``: random, all -top - 1 or all top, with the depth padded up to a
    brick multiple and, like cnv2, each filter's weights zeroed at its own
    set of offsets."""
    fx, fy, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ox, oy, f = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    depth, brick = draw(st.integers(1, 40)), draw(st.sampled_from([1, 4, 16]))
    top = draw(vmax)
    fill = draw(st.sampled_from(["random", -top - 1, top]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_shape = (fx + stride * (ox - 1), fy + stride * (oy - 1), depth)
    w_shape = (f, fx, fy, depth)
    if fill == "random":
        acts = rng.integers(-top - 1, top + 1, size=a_shape)
        wts = rng.integers(-top - 1, top + 1, size=w_shape)
    else:
        acts, wts = np.full(a_shape, fill), np.full(w_shape, fill)
    acts = ActTensor.padded(acts, brick).values
    wts = FilterSet.padded(wts, brick).values
    if draw(st.booleans()):
        wts = np.where(rng.random(wts.shape) < rng.uniform(0.2, 0.9), 0, wts).astype(np.int16)
    return acts, wts, stride


@settings(max_examples=120, deadline=None)
@given(conv_cases())
def test_conv3d_matches_the_einsum_oracle(case):
    acts, wts, stride = case
    got = conv3d(acts, wts, stride)
    assert got.dtype == np.int64
    assert np.array_equal(got, einsum_conv(acts, wts, stride))


@pytest.mark.parametrize("bound", [1, 7])
@settings(max_examples=25, deadline=None)
@given(case=conv_cases())
def test_conv3d_split_path_is_exact(bound, case):
    # a bound below the depth splits it and flushes after every chunk
    acts, wts, stride = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tensor, "_MAX_EXACT_TERMS", bound)
        got = conv3d(acts, wts, stride)
    assert np.array_equal(got, einsum_conv(acts, wts, stride))


@pytest.mark.parametrize("bound", [1, 7])
def test_conv3d_split_path_is_exact_on_a_fixed_layer(monkeypatch, bound):
    # full-range values at depth 20: bound 7 leaves a ragged last chunk
    rng = np.random.default_rng(12)
    acts = rng.integers(-32768, 32768, size=(6, 5, 20)).astype(np.int16)
    wts = rng.integers(-32768, 32768, size=(4, 3, 2, 20)).astype(np.int16)
    monkeypatch.setattr(tensor, "_MAX_EXACT_TERMS", bound)
    assert np.array_equal(conv3d(acts, wts, 2), einsum_conv(acts, wts, 2))


# Magnitudes up to 600 on depths up to 48: float32 while peak * depth <= 2**24,
# with flushes between offsets once peak passes about 2**24 / 432; float64
# near the top. A bound of 1 or 7 forces the depth split on the float32 path.
@pytest.mark.parametrize("bound", [None, 1, 7])
@settings(max_examples=60, deadline=None)
@given(case=conv_cases(vmax=st.integers(1, 600)))
def test_conv3d_small_magnitudes_match_the_einsum_oracle(bound, case):
    acts, wts, stride = case
    with pytest.MonkeyPatch.context() as m:
        if bound is not None:
            m.setattr(tensor, "_MAX_EXACT_TERMS", bound)
        got = conv3d(acts, wts, stride)
    assert np.array_equal(got, einsum_conv(acts, wts, stride))


@pytest.mark.parametrize("v, taps, depth, brick, dtype", FLOAT32_LIMIT_CASES)
def test_conv3d_exact_at_the_float32_limit(v, taps, depth, brick, dtype):
    assert tensor._exact_gemm(v * v, depth)[0] is dtype
    acts = np.full((taps + 1, taps, depth), v, dtype=np.int16)
    wts = np.full((2, taps, taps, depth), v, dtype=np.int16)
    got = conv3d(acts, wts)
    assert (got == taps * taps * depth * v * v).all()
    assert np.array_equal(got, einsum_conv(acts, wts))


def test_exact_gemm_follows_the_magnitude_and_the_cap(monkeypatch):
    assert tensor._exact_gemm(127 * 127, 1040) == (np.float32, 1040)
    assert tensor._exact_gemm(127 * 127, 1041) == (np.float64, 1 << 23)
    assert tensor._exact_gemm(128 * 128, 1024) == (np.float32, 1024)
    assert tensor._exact_gemm(1 << 30, 1) == (np.float64, 1 << 23)  # full-range int16
    assert tensor._exact_gemm(0, 1 << 24) == (np.float32, 1 << 23)  # all zero: peak 1
    monkeypatch.setattr(tensor, "_MAX_EXACT_TERMS", 7)  # the cap binds on both paths
    assert tensor._exact_gemm(127 * 127, 512) == (np.float32, 7)
    assert tensor._exact_gemm(1 << 30, 512) == (np.float64, 7)


def test_conv3d_rejects_values_outside_int16():
    with pytest.raises(ConfigurationError):
        conv3d(np.full((2, 2, 4), 40000), np.ones((1, 1, 1, 4), dtype=np.int16))
    with pytest.raises(ConfigurationError):
        conv3d(np.ones((2, 2, 4), dtype=np.int16), np.ones((1, 1, 1, 8), dtype=np.int16))


def test_conv3d_peak_memory_stays_below_the_einsum():
    rng = np.random.default_rng(3)
    acts = rng.integers(-128, 128, size=(16, 16, 128)).astype(np.int16)
    wts = rng.integers(-128, 128, size=(128, 3, 3, 128)).astype(np.int16)
    assert traced_peak(conv3d, acts, wts) < traced_peak(einsum_conv, acts, wts)
