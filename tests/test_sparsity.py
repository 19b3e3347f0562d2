import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparseaccel import (IneffCriterion, ZERO, can_skip, effectual_mask,
                         is_product, is_vector, mask_from_string, mask_to_string)
from sparseaccel.errors import ValidationError

from helpers import _slow_effectual


# -- criterion classification --------------------------------------------

def test_zero_criterion():
    vals = np.array([0, 1, -1, 200, -32768], dtype=np.int16)
    assert ZERO.ineffectual(vals).tolist() == [True, False, False, False, False]
    assert ZERO.effectual(vals).tolist() == [False, True, True, True, True]


def test_abs_criterion_inclusive_threshold():
    crit = IneffCriterion.abs_threshold(5)
    vals = np.array([0, 5, -5, 6, -6], dtype=np.int16)
    assert crit.ineffectual(vals).tolist() == [True, True, True, False, False]


def test_pow2_criterion_exclusive_bound():
    crit = IneffCriterion.power_of_two(3)  # |v| < 8
    vals = np.array([0, 7, -7, 8, -8], dtype=np.int16)
    assert crit.ineffectual(vals).tolist() == [True, True, True, False, False]


def test_int16_min_magnitude_does_not_wrap():
    # |-32768| overflows int16; classification must use a wider type
    v = np.array([-32768], dtype=np.int16)
    assert not IneffCriterion.abs_threshold(32767).ineffectual(v)[0]
    assert IneffCriterion.power_of_two(16).ineffectual(v)[0]  # 32768 < 65536


def test_abs_zero_equals_zero_criterion():
    rng = np.random.default_rng(7)
    vals = rng.integers(-300, 300, size=256).astype(np.int16)
    a = IneffCriterion.abs_threshold(0).ineffectual(vals)
    z = ZERO.ineffectual(vals)
    assert np.array_equal(a, z)


def test_every_kind_marks_zero_ineffectual():
    for crit in (ZERO, IneffCriterion.abs_threshold(0),
                 IneffCriterion.abs_threshold(100),
                 IneffCriterion.power_of_two(0),
                 IneffCriterion.power_of_two(16)):
        assert crit.ineffectual(np.array([0], dtype=np.int16))[0]


def test_criterion_validation():
    with pytest.raises(ValidationError):
        IneffCriterion("median")
    with pytest.raises(ValidationError):
        IneffCriterion("zero", 3)
    with pytest.raises(ValidationError):
        IneffCriterion("abs", -1)
    with pytest.raises(ValidationError):
        IneffCriterion("abs", 1 << 16)
    with pytest.raises(ValidationError):
        IneffCriterion("pow2", 17)
    with pytest.raises(ValidationError):
        IneffCriterion("abs", 1.5)


def test_criterion_refuses_bool_params():
    for kind in ("zero", "abs", "pow2"):
        with pytest.raises(ValidationError):
            IneffCriterion(kind, kind != "zero")
    assert IneffCriterion("abs", np.int16(3)).spec() == "abs:3"


def test_a_numpy_integer_parameter_is_the_same_int():
    """The parameter is kept as a Python int: an int16 16 must not wrap
    2**16 - 1 to -1, which made pow2:16 call nothing ineffectual, not even 0."""
    crit = IneffCriterion("pow2", np.int16(16))
    assert type(crit.param) is int and crit == IneffCriterion("pow2", 16)
    assert crit.ineffectual(np.array([0, 1, -32768, 32767], dtype=np.int16)).all()


def test_parse_and_spec_roundtrip():
    for text, kind, param in (("zero", "zero", 0), ("abs:12", "abs", 12),
                              ("pow2:4", "pow2", 4), ("ABS:3", "abs", 3)):
        crit = IneffCriterion.parse(text)
        assert (crit.kind, crit.param) == (kind, param)
        assert IneffCriterion.parse(crit.spec()) == crit
    for bad in ("", "abs", "abs:", "abs:x", "zero:1", "pow2:2:3", "magnitude:5"):
        with pytest.raises(ValidationError):
            IneffCriterion.parse(bad)


# -- mask algebra ---------------------------------------------------------

def test_polarities_are_opposite():
    vals = np.array([3, 0, -2, 0], dtype=np.int16)
    eff = effectual_mask(vals)
    ivec = is_vector(vals)
    assert eff.tolist() == [True, False, True, False]
    assert np.array_equal(eff, ~ivec)


def test_is_product_requires_unanimity():
    v0 = np.array([True, True, False, True])
    v1 = np.array([True, False, False, True])
    v2 = np.array([True, True, True, True])
    assert is_product([v0, v1, v2]).tolist() == [True, False, False, True]


def test_is_product_single_live_filter_kills_group():
    dead = [np.ones(16, dtype=bool)] * 7
    live = np.zeros(16, dtype=bool)
    assert not is_product(dead + [live]).any()


def test_is_product_rejects_empty_group():
    with pytest.raises(ValidationError):
        is_product([])


def test_can_skip_truth_table():
    mask = np.array([True, True, False, False])  # activation effectual?
    prod = np.array([False, True, False, True])  # all weights dead?
    # skip unless the activation is effectual and some weight is live
    assert can_skip(mask, prod).tolist() == [False, True, True, True]


def test_can_skip_shape_mismatch():
    with pytest.raises(ValidationError):
        can_skip(np.ones(4, dtype=bool), np.ones(5, dtype=bool))


def test_mask_strings():
    mask = np.array([True, True, False, True])
    assert mask_to_string(mask) == "1101"
    assert mask_from_string("1101").tolist() == [True, True, False, True]
    with pytest.raises(ValidationError):
        mask_from_string("10x1")


@given(st.lists(st.booleans(), min_size=1, max_size=64))
def test_mask_string_roundtrip(bits):
    mask = np.array(bits, dtype=bool)
    assert np.array_equal(mask_from_string(mask_to_string(mask)), mask)


@given(st.lists(st.integers(min_value=-32768, max_value=32767),
                min_size=1, max_size=32),
       st.sampled_from(["zero", "abs:0", "abs:9", "pow2:0", "pow2:5", "pow2:16"]))
def test_partition_is_total(values, spec):
    crit = IneffCriterion.parse(spec)
    vals = np.array(values, dtype=np.int16)
    ineff = crit.ineffectual(vals)
    eff = crit.effectual(vals)
    assert np.array_equal(ineff, ~eff)
    assert crit.ineffectual(np.zeros(1, dtype=np.int16))[0]


CRITERIA = st.shared(st.one_of(st.just(IneffCriterion()),
                               st.integers(0, 65535).map(IneffCriterion.abs_threshold),
                               st.integers(0, 16).map(IneffCriterion.power_of_two)),
                     key="criterion")


@st.composite
def typed_values(draw):
    """Values of one int dtype, with fixed edges and the drawn criterion's
    own bound: ±t and ±(t+1) for abs:t, ±(2**k-1) and ±2**k for pow2:k."""
    dtype = np.dtype(draw(st.sampled_from(["int16", "int32", "int64"])))
    info = np.iinfo(dtype)
    crit = draw(CRITERIA)  # shared: the same criterion the test receives
    t = (1 << crit.param) - 1 if crit.kind == "pow2" else crit.param
    edges = st.sampled_from([info.min, info.min + 1, -65536, -65535, -1, 0, 1,
                             65535, 65536, info.max, t, t + 1, -t, -t - 1])
    value = st.one_of(edges, st.integers(info.min, info.max)).filter(
        lambda v: info.min <= v <= info.max)
    return np.array(draw(st.lists(value, min_size=1, max_size=24)), dtype=dtype)


@given(typed_values(), CRITERIA)
@example(np.array([np.iinfo(np.int64).min], dtype=np.int64), IneffCriterion())
@example(np.array([np.iinfo(np.int64).min], dtype=np.int64), IneffCriterion.power_of_two(16))
def test_ineffectual_matches_the_restated_criteria(values, crit):
    want = [not _slow_effectual(int(v), crit.kind, crit.param) for v in values]
    assert crit.ineffectual(values).tolist() == want
    assert crit.effectual(values).tolist() == [not w for w in want]
