import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseaccel import (ActTensor, FilterSet, LayerData, SyntheticSpec,
                         gen_synthetic, load_layer, save_layer)
import sparseaccel.workloads as workloads
from sparseaccel.errors import (BadMagicError, FormatError, SparseAccelError, TruncatedError,
                                ValidationError, VersionError)

from helpers import slow_draw

PIN_SPEC = dict(x=2, y=2, i=8, f=2, fx=1, fy=1, p_act_zero=0.5,
                p_wt_zero=0.25, vmin=-10, vmax=10, seed=42, brick=8)

# regression pin: these exact draws must never change, or saved seeds
# stop reproducing their fixtures
PIN_ACTS = [0, 2, 0, 1, -8, 0, 1, -3, 0, -7, 1, -8, -7, 0, 0, 0,
            10, -9, 0, 10, -7, -4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
PIN_WTS = [1, -7, 6, -9, -8, -5, 0, -9, 0, 0, -8, 0, 0, 2, -7, -10]


# -- generator ---------------------------------------------------------------

def test_generator_is_pinned():
    acts, filts = gen_synthetic(SyntheticSpec(**PIN_SPEC))
    assert acts.values.reshape(-1).tolist() == PIN_ACTS
    assert filts.values.reshape(-1).tolist() == PIN_WTS


def test_generator_determinism_and_seed_sensitivity():
    a1, w1 = gen_synthetic(SyntheticSpec(**PIN_SPEC))
    a2, w2 = gen_synthetic(SyntheticSpec(**PIN_SPEC))
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(w1.values, w2.values)
    a3, w3 = gen_synthetic(SyntheticSpec(**{**PIN_SPEC, "seed": 43}))
    assert not np.array_equal(a1.values, a3.values)
    assert not np.array_equal(w1.values, w3.values)


def test_zero_rate_tracks_probability():
    spec = SyntheticSpec(x=40, y=40, i=32, f=1, fx=1, fy=1,
                         p_act_zero=0.5, seed=9)
    acts, _ = gen_synthetic(spec)
    n = acts.values.size
    rate = float((acts.values == 0).mean())
    assert abs(rate - 0.5) < 3 * (0.25 / n) ** 0.5


def test_zero_probability_extremes():
    base = dict(x=8, y=8, i=16, f=1, fx=1, fy=1, seed=5)
    none, _ = gen_synthetic(SyntheticSpec(p_act_zero=0.0, **base))
    assert (none.values != 0).all()
    every, _ = gen_synthetic(SyntheticSpec(p_act_zero=1.0, **base))
    assert (every.values == 0).all()


def test_raising_p_only_adds_zeros():
    base = dict(x=8, y=8, i=32, f=1, fx=1, fy=1, seed=31)
    lo, _ = gen_synthetic(SyntheticSpec(p_act_zero=0.3, **base))
    hi, _ = gen_synthetic(SyntheticSpec(p_act_zero=0.6, **base))
    lo_zero = lo.values == 0
    hi_zero = hi.values == 0
    assert (hi_zero | ~lo_zero).all()  # lo's zero set is a subset of hi's
    assert np.array_equal(lo.values[~hi_zero], hi.values[~hi_zero])


def test_values_respect_range():
    spec = SyntheticSpec(x=8, y=8, i=16, f=1, fx=1, fy=1,
                         vmin=-3, vmax=7, seed=11)
    acts, _ = gen_synthetic(spec)
    nz = acts.values[acts.values != 0]
    assert nz.min() >= -3 and nz.max() <= 7
    pos = SyntheticSpec(x=4, y=4, i=16, f=1, fx=1, fy=1, vmin=5, vmax=9, seed=1)
    acts, _ = gen_synthetic(pos)
    assert acts.values.min() >= 5 and acts.values.max() <= 9
    single = SyntheticSpec(x=2, y=2, i=8, f=1, fx=1, fy=1, vmin=3, vmax=3,
                           seed=2, brick=8)
    acts, _ = gen_synthetic(single)
    assert (acts.values == 3).all()


def assert_matches_slow_draw(spec: SyntheticSpec) -> None:
    acts, filts = gen_synthetic(spec)
    n_acts = spec.x * spec.y * spec.i
    n_wts = spec.f * spec.fx * spec.fy * spec.i
    want_acts = slow_draw(spec.seed, workloads.SALT_ACT_ZERO, workloads.SALT_ACT_VALUE,
                          n_acts, spec.p_act_zero, spec.vmin, spec.vmax)
    want_wts = slow_draw(spec.seed, workloads.SALT_WT_ZERO, workloads.SALT_WT_VALUE,
                         n_wts, spec.p_wt_zero, spec.vmin, spec.vmax)
    assert acts.values[:, :, :spec.i].reshape(-1).tolist() == want_acts
    assert filts.values[..., :spec.i].reshape(-1).tolist() == want_wts


@pytest.mark.parametrize("spec", [
    dict(x=3, y=5, i=5, f=4, fx=2, fy=3, p_act_zero=0.5, p_wt_zero=0.3, seed=7),
    dict(x=4, y=4, i=6, f=3, fx=1, fy=2, vmin=2, vmax=9, p_act_zero=0.9, seed=2**64 - 1),
    dict(x=2, y=9, i=3, f=8, fx=2, fy=2, vmin=-32768, vmax=32767, p_wt_zero=1.0, seed=12),
    dict(x=5, y=5, i=1, f=1, fx=5, fy=5, vmin=-9, vmax=-1, p_act_zero=0.25, seed=3),
    dict(x=3, y=3, i=3, f=3, fx=3, fy=1, vmin=1, vmax=3, p_wt_zero=1.0, seed=5),
    dict(x=2, y=4, i=3, f=2, fx=2, fy=2, vmin=0, vmax=4, p_act_zero=1.0, seed=6),
    dict(x=4, y=2, i=3, f=4, fx=1, fy=2, vmin=-1, vmax=1, seed=9),
])
def test_generator_matches_the_restated_stream_across_small_chunks(monkeypatch, spec):
    monkeypatch.setattr(workloads, "_CHUNK", 7)
    spec = SyntheticSpec(**spec, brick=4)
    assert spec.x * spec.y * spec.i >= 3 * 7 and spec.f * spec.fx * spec.fy * spec.i >= 3 * 7
    assert_matches_slow_draw(spec)


def test_generator_matches_the_restated_stream_across_real_chunks():
    spec = SyntheticSpec(x=14, y=14, i=256, f=9, fx=3, fy=3, p_act_zero=0.5,
                         p_wt_zero=0.4, vmin=-300, vmax=200, seed=8)
    assert 3 * workloads._CHUNK < spec.x * spec.y * spec.i < 4 * workloads._CHUNK
    assert_matches_slow_draw(spec)


def test_generator_peak_memory_is_bounded():
    # AlexNet conv3: 0.11 MB of activations and 1.77 MB of weights, drawn
    # in chunks; whole-tensor uint64 words would peak near 29 MB
    spec = SyntheticSpec(x=15, y=15, i=256, f=384, fx=3, fy=3, p_act_zero=0.5,
                         p_wt_zero=0.4, seed=8)
    tracemalloc.start()
    try:
        gen_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_importing_the_package_loads_no_json_or_fractions():
    # only `.json` layer files and exact footprint ratios use these; a
    # fresh `import sparseaccel` after numpy must not pay for them
    code = ("import sys, numpy; before = set(sys.modules); import sparseaccel; "
            "print(sorted({'json', 'fractions', 'decimal'} & (set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_generator_pads_depth():
    spec = SyntheticSpec(x=2, y=2, i=20, f=2, fx=1, fy=1, seed=3)
    acts, filts = gen_synthetic(spec)
    assert acts.i == 32 and acts.logical_i == 20
    assert (acts.values[:, :, 20:] == 0).all()
    assert filts.i == 32 and filts.logical_i == 20
    assert spec.layer_config().i == 32


def test_spec_validation():
    good = dict(x=2, y=2, i=8, f=1, fx=1, fy=1)
    with pytest.raises(ValidationError):
        SyntheticSpec(**{**good, "p_act_zero": 1.5})
    with pytest.raises(ValidationError):
        SyntheticSpec(**{**good, "p_wt_zero": -0.1})
    with pytest.raises(ValidationError):
        SyntheticSpec(**{**good, "vmin": 5, "vmax": 4})
    with pytest.raises(ValidationError):
        SyntheticSpec(**{**good, "vmin": 0, "vmax": 0})
    with pytest.raises(ValidationError):
        SyntheticSpec(**{**good, "vmax": 40000})
    with pytest.raises(ValidationError):
        SyntheticSpec(**{**good, "x": 0})


# -- layer files ---------------------------------------------------------------

def roundtrip_data() -> LayerData:
    spec = SyntheticSpec(x=3, y=4, i=20, f=2, fx=1, fy=2,
                         p_act_zero=0.4, seed=77)
    acts, filts = gen_synthetic(spec)
    return LayerData(acts, filts, stride=1, brick=16)


@pytest.mark.parametrize("name", ["case.layer", "case.json"])
def test_layer_file_roundtrip(tmp_path, name):
    data = roundtrip_data()
    path = tmp_path / name
    save_layer(path, data)
    back = load_layer(path)
    assert np.array_equal(back.acts.values, data.acts.values)
    assert np.array_equal(back.filters.values, data.filters.values)
    assert back.acts.logical_i == 20
    assert back.filters.logical_i == 20
    assert back.stride == data.stride and back.brick == data.brick
    assert back.layer_config() == data.layer_config()


def test_load_layer_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "case.layer"
    save_layer(path, roundtrip_data())
    path.write_bytes(path.read_bytes() + b"\x00\x07")
    with pytest.raises(FormatError, match="2 trailing bytes"):
        load_layer(path)


def test_save_rejects_mismatched_logical_depths(tmp_path):
    acts = ActTensor.padded(np.ones((2, 2, 20), dtype=np.int16), 16)
    filts = FilterSet.padded(np.ones((1, 1, 1, 24), dtype=np.int16), 16)
    with pytest.raises(ValidationError):
        save_layer(tmp_path / "bad.layer", LayerData(acts, filts, 1, 16))


@pytest.mark.parametrize("suffix", [".layer", ".json"])
@pytest.mark.parametrize("depth, brick, stride, message", [
    (8, 32, 1, "padded depth 32"),
    (8, 16, 0, "stride"),
    (40000, 65536, 1, "brick"),  # pads within 2i, but wider than the u16 header field
])
def test_save_layer_refuses_what_the_loaders_refuse(tmp_path, suffix, depth, brick, stride,
                                                    message):
    acts = ActTensor.padded(np.ones((1, 1, depth), dtype=np.int16), brick)
    filters = FilterSet.padded(np.ones((1, 1, 1, depth), dtype=np.int16), brick)
    path = tmp_path / f"x{suffix}"
    with pytest.raises(FormatError, match=message):
        save_layer(path, LayerData(acts, filters, stride, brick))
    assert not path.exists()


def test_load_missing_file():
    with pytest.raises(ValidationError):
        load_layer("definitely-not-here.layer")


def _header(magic=b"CNVL", version=1, x=2, y=2, i=8, f=1, fx=1, fy=1,
            stride=1, brick=8) -> bytes:
    return struct.pack("<4sHIIIIIIHH", magic, version, x, y, i, f, fx, fy,
                       stride, brick)


def test_binary_error_taxonomy(tmp_path):
    p = tmp_path / "f.layer"

    p.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(BadMagicError):
        load_layer(p)

    p.write_bytes(b"CN")
    with pytest.raises(BadMagicError):
        load_layer(p)

    p.write_bytes(_header()[:20])
    with pytest.raises(TruncatedError):
        load_layer(p)

    p.write_bytes(_header(version=2) + bytes(2 * (32 + 8)))
    with pytest.raises(VersionError):
        load_layer(p)

    p.write_bytes(_header() + bytes(10))  # needs 2*(32 + 8) payload bytes
    with pytest.raises(TruncatedError):
        load_layer(p)

    p.write_bytes(_header() + bytes(2 * (32 + 8)))
    data = load_layer(p)  # exactly complete
    assert data.acts.dims == (2, 2, 8)


@pytest.mark.parametrize("field", ["x", "y", "i", "f", "fx", "fy", "stride", "brick"])
def test_binary_header_fields_must_be_positive(tmp_path, field):
    """The `.json` rule holds for `.layer` headers too: a zero field is a
    `FormatError`, even when the payload matches the header."""
    fields = {**dict(x=2, y=2, i=8, f=1, fx=1, fy=1, stride=1, brick=8), field: 0}
    n = fields["i"] * (fields["x"] * fields["y"] + fields["f"] * fields["fx"] * fields["fy"])
    p = tmp_path / "zero.layer"
    p.write_bytes(_header(**fields) + bytes(2 * n))
    with pytest.raises(FormatError, match=r"(dims|filters|stride|brick)\[\d\] is 0, expected"):
        load_layer(p)


@pytest.mark.parametrize("name", ["pad.layer", "pad.json"])
def test_brick_padding_is_bounded_by_the_depth(tmp_path, name):
    """The padded depth ceil(i/B)*B may be at most max(2i, 16), so a small
    file cannot ask for a large allocation."""
    def write(i, brick, x=1):
        acts, wts = [1] * (x * i), [1] * i
        p = tmp_path / name
        if name.endswith(".json"):
            p.write_text(json.dumps({**JSON_DOC, "dims": [x, 1, i], "brick": brick,
                                     "activations": acts, "weights": wts}))
        else:
            p.write_bytes(_header(x=x, y=1, i=i, brick=brick)
                          + struct.pack(f"<{len(acts) + len(wts)}h", *acts, *wts))
        return p

    assert load_layer(write(3, 16)).acts.dims == (1, 1, 16)  # the 16-sample floor
    assert load_layer(write(9, 18)).acts.dims == (1, 1, 18)  # exactly 2i
    with pytest.raises(FormatError, match="padded depth 19"):
        load_layer(write(9, 19))
    p = write(1, 65535, x=100)  # would pad to a (100, 1, 65535) tensor, 13 MB
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="padded depth 65535"):
            load_layer(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_json_error_taxonomy(tmp_path):
    p = tmp_path / "f.json"

    p.write_text("this is not json {")
    with pytest.raises(BadMagicError):
        load_layer(p)

    doc = {"format": "CNVL", "version": 1, "dims": [1, 1, 4],
           "filters": [1, 1, 1], "stride": 1, "brick": 4,
           "activations": [1, 2, 3, 4], "weights": [1, 1, 1, 1]}

    p.write_text(json.dumps({**doc, "format": "PNG"}))
    with pytest.raises(BadMagicError):
        load_layer(p)

    p.write_text(json.dumps({**doc, "version": 9}))
    with pytest.raises(VersionError):
        load_layer(p)

    missing = {k: v for k, v in doc.items() if k != "activations"}
    p.write_text(json.dumps(missing))
    with pytest.raises(TruncatedError):
        load_layer(p)

    p.write_text(json.dumps({**doc, "weights": [1, 1]}))
    with pytest.raises(TruncatedError):
        load_layer(p)

    p.write_text(json.dumps(doc))
    data = load_layer(p)
    assert data.acts.values.reshape(-1).tolist() == [1, 2, 3, 4]


JSON_DOC = {"format": "CNVL", "version": 1, "dims": [1, 1, 4], "filters": [1, 1, 1],
            "stride": 1, "brick": 4, "activations": [1, 2, 3, 4], "weights": [1, 1, 1, 1]}


@pytest.mark.parametrize("field, value", [
    ("dims", [-2, -2, 4]),  # the payload size still matches x * y * i
    ("dims", [0, 1, 4]),
    ("filters", [1, 0, 1]),
    ("stride", 0),
    ("brick", -4),
    ("dims", [1, 1]),
    ("dims", 4),
])
def test_json_layer_rejects_bad_dims(tmp_path, field, value):
    doc = {**JSON_DOC, field: value}
    if field == "dims" and isinstance(value, list) and len(value) == 3:
        doc["activations"] = [1] * (value[0] * value[1] * value[2])  # sizes agree
    p = tmp_path / "f.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=rf": {field}(\[\d\] is| must be)"):
        load_layer(p)


@pytest.mark.parametrize("field, value", [
    ("activations", [1.5, 2, 3, 4]),  # would truncate to 1
    ("weights", [1, 1, True, 1]),
    ("brick", True),  # would load as brick 1
    ("stride", 1.0),
    ("dims", [1.0, 1, 4]),
    ("activations", [1, 2, 3, "4"]),
    ("activations", [1, 2, 3, None]),
])
def test_json_layer_rejects_non_integers(tmp_path, field, value):
    p = tmp_path / "f.json"
    p.write_text(json.dumps({**JSON_DOC, field: value}))
    with pytest.raises(FormatError, match=rf": {field}\[\d\] is"):
        load_layer(p)


def test_json_layer_rejects_out_of_range_values(tmp_path):
    p = tmp_path / "f.json"
    for bad in (1 << 15, -(1 << 15) - 1, 10 ** 30):
        p.write_text(json.dumps({**JSON_DOC, "activations": [1, 2, 3, bad]}))
        with pytest.raises(FormatError, match="activations"):
            load_layer(p)
    p.write_text(json.dumps({**JSON_DOC, "brick": 1 << 16}))
    with pytest.raises(FormatError, match="brick"):
        load_layer(p)
    p.write_text(json.dumps({**JSON_DOC, "version": True}))
    with pytest.raises(VersionError):
        load_layer(p)
    p.write_text(json.dumps({**JSON_DOC, "activations": [-(1 << 15), 2, 3, (1 << 15) - 1]}))
    assert load_layer(p).acts.values.reshape(-1).tolist() == [-(1 << 15), 2, 3, (1 << 15) - 1]


@pytest.mark.parametrize("field, value, message", [
    ("activations", [1, 2, 3, 2**70], "activations[3] is 1180591620717411303424"),
    ("weights", [-(2**70), 1, 1, 1], "weights[0] is -1180591620717411303424"),
    ("dims", [1, 2**70, 4], "dims[1] is 1180591620717411303424"),
    ("stride", 2**70, "stride[0] is 1180591620717411303424"),
    # the first bad element is named, whatever its fault
    ("activations", [1, 1 << 15, True, 2**70], "activations[1] is 32768"),
    ("weights", [1, True, 1 << 15, 1.5], "weights[1] is True"),
    ("weights", [1, 1, 2**70, True], "weights[2] is 1180591620717411303424"),
])
def test_json_layer_names_the_first_bad_integer(tmp_path, field, value, message):
    # integers beyond int64 are out of range like any other, not an OverflowError
    p = tmp_path / "f.json"
    p.write_text(json.dumps({**JSON_DOC, field: value}))
    with pytest.raises(FormatError, match=re.escape(message) + ", expected an integer in"):
        load_layer(p)


@pytest.mark.parametrize("field, value, bounds", [
    ("activations", [1, 2, 3, 1 << 15], "[-32768, 32767]"),
    ("weights", [-(1 << 15) - 1, 1, 1, 1], "[-32768, 32767]"),
    ("dims", [1, -1, 4], "[0, 4294967295]"),
    ("filters", [1 << 32, 1, 1], "[0, 4294967295]"),
    ("stride", -1, "[0, 65535]"),
    ("brick", 1 << 16, "[0, 65535]"),
])
def test_json_layer_bounds_are_the_binary_field_ranges(tmp_path, field, value, bounds):
    p = tmp_path / "f.json"
    p.write_text(json.dumps({**JSON_DOC, field: value}))
    with pytest.raises(FormatError, match=re.escape(f"expected an integer in {bounds}")):
        load_layer(p)


NEAR_INTS = (st.integers(-2, 5) | st.booleans() | st.floats(-2, 5) | st.integers()
             | st.none() | st.text(max_size=2))
JSON_VALUES = NEAR_INTS | st.lists(NEAR_INTS, max_size=5) | st.dictionaries(
    st.text(max_size=2), NEAR_INTS, max_size=2)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(JSON_DOC)), JSON_VALUES, max_size=3),
       st.sets(st.sampled_from(sorted(JSON_DOC)), max_size=2))
def test_json_layer_loader_is_total(tmp_path_factory, replace, drop):
    """Any field replaced by any JSON value, or dropped, either raises the
    package's own error or loads exactly what the document says."""
    doc = {k: v for k, v in {**JSON_DOC, **replace}.items() if k not in drop}
    p = tmp_path_factory.mktemp("j") / "f.json"
    p.write_text(json.dumps(doc))
    try:
        data = load_layer(p)
    except SparseAccelError:
        return
    header = doc["dims"] + doc["filters"] + [doc["stride"], doc["brick"]]
    assert all(type(v) is int and v >= 1 for v in header)
    assert (data.stride, data.brick) == (doc["stride"], doc["brick"])
    x, y, i = doc["dims"]
    assert data.acts.values[:, :, :i].reshape(-1).tolist() == doc["activations"]
    assert data.filters.values[..., :i].reshape(-1).tolist() == doc["weights"]
    assert all(type(v) is int for v in doc["activations"] + doc["weights"])


def test_json_and_binary_agree(tmp_path):
    data = roundtrip_data()
    save_layer(tmp_path / "a.layer", data)
    save_layer(tmp_path / "a.json", data)
    bin_back = load_layer(tmp_path / "a.layer")
    json_back = load_layer(tmp_path / "a.json")
    assert np.array_equal(bin_back.acts.values, json_back.acts.values)
    assert np.array_equal(bin_back.filters.values, json_back.filters.values)
    assert bin_back.brick == json_back.brick
