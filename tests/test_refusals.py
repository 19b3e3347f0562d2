"""Refusals at the package's entry points, one case each: every call raises
its `SparseAccelError` subclass, and every CLI case exits 2."""

import json
import struct

import numpy as np
import pytest

import sparseaccel.cli as cli
from sparseaccel import (ActTensor, FilterSet, Format, IneffCriterion, LayerConfig,
                         RawDispatchSource, TileConfig, ZERO, conv3d, deserialize_store,
                         encode_store, footprint_bits, is_vector, offset_bits_for, run_cnv,
                         run_cnv2, run_dispatch, stream_brick, weight_product_table)
from sparseaccel.errors import ConfigurationError, FormatError
from sparseaccel.sparsity import _KINDS

ACTS = ActTensor(np.arange(8, dtype=np.int16).reshape(1, 2, 4))
FILTERS = FilterSet(np.ones((1, 1, 1, 4), dtype=np.int16))
LAYER = LayerConfig.from_tensors(ACTS, FILTERS)
TILE = TileConfig(tiles=1, filters_per_tile=1, lanes=2, brick=4)


def _store():
    return encode_store(Format.ZFNAF, ACTS, ZERO, 4)


class _NoPairTable:
    dims, brick = ACTS.dims, 4


def _viai_mask_bit_flipped() -> bytes:
    """A VIAI stream of ACTS whose first mask bit, brick 0's offset 0, now
    marks its ineffectual 0 as effectual."""
    blob = bytearray(encode_store(Format.VIAI, ACTS, ZERO, 4).to_bytes())
    blob[struct.calcsize(">BIIIIHBH")] ^= 0x80  # the first byte after the header
    return bytes(blob)


HEADER = struct.Struct(">BIIIIHBH")  # tag, X, Y, I, logical_i, B, crit kind, crit param


def _rewritten(fmt, values, crit=ZERO, *, logical_i=None, header_crit=None) -> bytes:
    """``fmt``'s stream of ``values`` in 4-bricks, its header's logical depth
    or criterion then replaced: a stream the encoder never writes."""
    blob = encode_store(fmt, values, crit, 4).to_bytes()
    tag, x, y, i, logical, brick, kind, param = HEADER.unpack_from(blob)
    if logical_i is not None:
        logical = logical_i
    if header_crit is not None:
        kind, param = _KINDS.index(header_crit.kind), header_crit.param
    return HEADER.pack(tag, x, y, i, logical, brick, kind, param) + blob[HEADER.size:]


def _compare(tmp, doc) -> int:
    report = tmp / "report.json"
    report.write_text(json.dumps(doc))
    return cli.main(["compare", str(report)])


NOT_UTF8 = b'{"rows": []}\xff'
DEEP = b"[" * 200000 + b"]" * 200000  # nested deeper than the JSON parser recurses


def _cli_on_file(tmp, name: str, blob: bytes, *argv: str) -> int:
    """`cli.main` on ``argv``, each "{}" in it the path of a file ``name``
    holding ``blob``."""
    path = tmp / name
    path.write_bytes(blob)
    return cli.main([arg.format(path) for arg in argv])


CASES = {
    "dispatch-zero-lanes": (ConfigurationError, "lane count must be at least 1",
                            lambda tmp: run_dispatch(_store(), LAYER, lanes=0)),
    "dispatch-bool-lanes": (ConfigurationError, "lane count must be at least 1",
                            lambda tmp: run_dispatch(_store(), LAYER, lanes=True)),
    "dispatch-float-lanes": (ConfigurationError, "lane count must be at least 1",
                             lambda tmp: run_dispatch(_store(), LAYER, lanes=2.5)),
    "dispatch-not-a-source": (ConfigurationError, "does not expose dims, brick and pair_table",
                              lambda tmp: run_dispatch(_NoPairTable(), LAYER, lanes=2)),
    "store-raw-format": (ConfigurationError, "cannot build an encoded store",
                         lambda tmp: encode_store(Format.RAW, ACTS, ZERO, 4)),
    "store-2d-array": (ConfigurationError, "3-D",
                       lambda tmp: encode_store(Format.VIAI, np.ones((2, 4), np.int16))),
    "store-float-array": (ConfigurationError, "integer tensor",
                          lambda tmp: encode_store(Format.VIAI, np.ones((1, 1, 4)))),
    "empty-act-tensor": (ConfigurationError, "non-empty",
                         lambda tmp: ActTensor(np.zeros((0, 2, 4), dtype=np.int16))),
    "footprint-not-a-format": (ConfigurationError, "unknown format",
                               lambda tmp: footprint_bits("zfnaf", ACTS)),
    "offset-bits-brick-0": (ConfigurationError, "brick size must be at least 1",
                            lambda tmp: offset_bits_for(0)),
    "cnv2-without-weight-criterion": (
        ConfigurationError, "cnv2 requires a weight criterion",
        lambda tmp: run_cnv2(ACTS, FILTERS, LAYER, TILE, ZERO, None)),
    "layer-activation-dims": (
        ConfigurationError, "activation dims",
        lambda tmp: LAYER.check_tensors(ActTensor(np.ones((2, 1, 4), np.int16)), FILTERS)),
    "act-float-logical-depth": (ConfigurationError, "logical depth must be in",
                                lambda tmp: ActTensor(ACTS.values, logical_i=2.7)),
    "act-str-logical-depth": (ConfigurationError, "logical depth must be in",
                              lambda tmp: ActTensor(ACTS.values, logical_i="3")),
    "act-bool-logical-depth": (ConfigurationError, "logical depth must be in",
                               lambda tmp: ActTensor(ACTS.values, logical_i=True)),
    "conv3d-stride-0": (ConfigurationError, "stride must be at least 1",
                        lambda tmp: conv3d(ACTS.values, FILTERS.values, 0)),
    "conv3d-filter-wider-than-input": (
        ConfigurationError, "filter extent",
        lambda tmp: conv3d(np.ones((1, 1, 4), np.int16), np.ones((1, 2, 2, 4), np.int16))),
    "viai-mask-bit-flipped": (FormatError, "VIAI mask bits differ",
                              lambda tmp: deserialize_store(_viai_mask_bit_flipped())),
    "cli-config-unreadable": (
        2, "cannot read config",
        lambda tmp: cli.main(["gen", "--dims", "2x2x4", "--filters", "1x1x1",
                              "--config", str(tmp / "missing.cfg"), "-o", str(tmp / "x.layer")])),
    "cli-gen-without-an-output": (
        2, "-o/--out", lambda tmp: cli.main(["gen", "--dims", "2x2x4", "--filters", "1x1x1"])),
    "cli-gen-into-missing-directory": (
        2, "cannot write layer file",
        lambda tmp: cli.main(["gen", "--dims", "2x2x4", "--filters", "1x1x1",
                              "-o", str(tmp / "missing" / "x.layer")])),
    "cli-json-layer-not-utf8": (
        2, "not a JSON layer file", lambda tmp: _cli_on_file(tmp, "l.json", NOT_UTF8,
                                                             "run", "--layer", "{}")),
    "cli-json-layer-nested-too-deep": (
        2, "not a JSON layer file", lambda tmp: _cli_on_file(tmp, "l.json", DEEP,
                                                             "run", "--layer", "{}")),
    "cli-report-not-utf8": (
        2, "cannot read report", lambda tmp: _cli_on_file(tmp, "r.json", NOT_UTF8,
                                                          "compare", "{}")),
    "cli-report-nested-too-deep": (
        2, "cannot read report", lambda tmp: _cli_on_file(tmp, "r.json", DEEP, "compare", "{}")),
    "cli-config-not-utf8": (
        2, "cannot read config", lambda tmp: _cli_on_file(tmp, "c.cfg", b"dims = 2x2x4\xff\n",
                                                          "run", "--config", "{}")),
    "cli-config-layer-path-with-nul": (
        2, "cannot read layer file", lambda tmp: _cli_on_file(tmp, "c.cfg", b"layer = l\0.json\n",
                                                              "run", "--config", "{}")),
    "cli-config-gen-out-with-nul": (
        2, "cannot write layer file",
        lambda tmp: _cli_on_file(tmp, "c.cfg", b"dims = 2x2x4\nfilters = 1x1x1\nout = x\0.layer\n",
                                 "gen", "--config", "{}")),
    "cli-compare-unknown-schema": (
        2, "schema_version 99",
        lambda tmp: _compare(tmp, {"schema_version": 99,
                                   "rows": [{"arch": "cnv", "speedup": 2.0}]})),
}

# a number compare cannot merge, in each column it merges: an int beyond the
# float range, NaN, and both infinities, which JSON text can hold
CASES.update({
    f"cli-compare-{kind}-{column}": (
        2, "finite numeric or null speedup and utilization",
        lambda tmp, column=column, value=value: _compare(tmp, {"rows": [{"arch": "cnv",
                                                                         column: value}]}))
    for column in ("speedup", "utilization")
    for kind, value in (("huge-int", 10 ** 400), ("nan", float("nan")),
                        ("infinity", float("inf")), ("minus-infinity", float("-inf")))
})
# the same numbers in the count columns, beside a good speedup: NaN cycles,
# infinite MACs performed and a 401-digit broadcast count
CASES.update({
    f"cli-compare-{kind}-{column}": (
        2, "like every other numeric column",
        lambda tmp, column=column, value=value: _compare(
            tmp, {"rows": [{"arch": "cnv", "speedup": 2.0, column: value}]}))
    for kind, column, value in (("nan", "cycles", float("nan")),
                                ("infinity", "macs_performed", float("inf")),
                                ("huge-int", "broadcasts", 10 ** 400))
})
# a speedup the report schema excludes (it must be above 0), which `run`
# never writes
CASES.update({
    f"cli-compare-{kind}-speedup": (
        2, "a speedup above 0",
        lambda tmp, value=value: _compare(tmp, {"rows": [{"arch": "cnv", "speedup": value}]}))
    for kind, value in (("zero", 0), ("negative", -1.5))
})

# streams that re-serialize to themselves but are not the encoder's: ACTS's
# bricks (0, 1, 2, 3) and (4, 5, 6, 7) stored under zero, read under abs:1,
# which calls the stored 1 ineffectual; (5, 6, 7, 8), raw under zero, read
# under abs:5, whose three effectual values fit the encoded mode; and ACTS's
# nonzero depth-3 values, or an ineffectual 2 that VIAI stores in place,
# past a logical depth of 3
CASES.update({
    f"{fmt.value}-ineffectual-stored-value": (
        FormatError, "a stored value is ineffectual",
        lambda tmp, fmt=fmt: deserialize_store(
            _rewritten(fmt, ACTS, header_crit=IneffCriterion("abs", 1))))
    for fmt in (Format.ZFNAF, Format.ROE, Format.CVIAI)
})
CASES["roe-raw-brick-that-fits"] = (
    FormatError, "raw-mode RoE brick's effectual values fit",
    lambda tmp: deserialize_store(_rewritten(Format.ROE, np.arange(5, 9).reshape(1, 1, 4),
                                             header_crit=IneffCriterion("abs", 5))))
CASES.update({
    f"{fmt.value}-value-past-logical-depth": (
        FormatError, "past the logical depth 3 is not zero",
        lambda tmp, fmt=fmt: deserialize_store(_rewritten(fmt, ACTS, logical_i=3)))
    for fmt in (Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI)
})
CASES["viai-ineffectual-value-past-logical-depth"] = (
    FormatError, "past the logical depth 3 is not zero",
    lambda tmp: deserialize_store(_rewritten(Format.VIAI, np.array([[[5, 6, 7, 2]]]),
                                             IneffCriterion("abs", 3), logical_i=3)))


def _dirtied_after_build() -> ActTensor:
    """ACTS at logical depth 3, built clean, then written past that depth."""
    acts = ActTensor(np.where(np.arange(4) < 3, ACTS.values, 0), logical_i=3)
    acts.values[..., 3] = 9
    return acts


CASES.update({
    "act-dirty-padding": (ConfigurationError,
                          "activation tensor values past the logical depth 3 are not zero",
                          lambda tmp: ActTensor(ACTS.values, logical_i=3)),
    "filters-dirty-padding": (ConfigurationError,
                              "filter set values past the logical depth 2 are not zero",
                              lambda tmp: FilterSet(FILTERS.values, logical_i=2)),
    "store-dirty-padding": (
        ConfigurationError, "activation values past the logical depth 3 are not zero",
        lambda tmp: encode_store(Format.ZFNAF, _dirtied_after_build(), ZERO, 4)),
})

# a str criterion at each entry point that takes a criterion
CASES.update({
    f"{taker}-str-criterion": (ConfigurationError, "criterion must be of type IneffCriterion", call)
    for taker, call in {
        "store": lambda tmp: encode_store(Format.VIAI, ACTS, "zero", 4),
        "footprint": lambda tmp: footprint_bits(Format.CVIAI, ACTS, "abs:3", 4),
        "raw-source": lambda tmp: RawDispatchSource(ACTS, "zero", 4),
        "cnv": lambda tmp: run_cnv(ACTS, FILTERS, LAYER, TILE, "zero"),
        "cnv2-weight": lambda tmp: run_cnv2(ACTS, FILTERS, LAYER, TILE, ZERO, "zero"),
        "weight-product-table": lambda tmp: weight_product_table(FILTERS, "zero", 4),
        "stream-brick": lambda tmp: stream_brick(ACTS.values[0, 0], "zero"),
        "is-vector": lambda tmp: is_vector(FILTERS.values[0, 0, 0], "abs:1"),
    }.items()
})

# a bool, a float or a str brick, at each entry point that takes a brick
BRICK_TAKERS = {
    "store": lambda brick: encode_store(Format.ROE, ACTS, ZERO, brick),
    "raw-source": lambda brick: RawDispatchSource(ACTS, ZERO, brick),
    "footprint": lambda brick: footprint_bits(Format.ZFNAF, ACTS, ZERO, brick),
}
CASES.update({
    f"{taker}-{kind}-brick": (ConfigurationError, "brick size must be at least 1",
                              lambda tmp, take=take, brick=brick: take(brick))
    for taker, take in BRICK_TAKERS.items()
    for kind, brick in (("bool", True), ("float", 4.0), ("str", "4"))
})


@pytest.mark.parametrize("error, message, call", CASES.values(), ids=CASES.keys())
def test_each_refusal_raises_its_error_or_exits_2(tmp_path, capsys, error, message, call):
    if error == 2:
        assert call(tmp_path) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    else:
        with pytest.raises(error, match=message):
            call(tmp_path)
