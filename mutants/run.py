"""Mutation audit: each named mutant must make the tests it names fail.

    python3 mutants/run.py            # every mutant
    python3 mutants/run.py NAME ...   # only these

A mutant is a text patch: a file under src/, the exact old text (found
exactly once), the new text, and the tests that should kill it. The first of
those tests must be one deterministic test, not a hypothesis property, which
kills only when it happens to draw the case. The script copies src/, tests/
and the data the tests read into a temporary directory, checks that every
first killer is deterministic and that the named tests pass there
unpatched, then applies one mutant at a time and runs `pytest -x -q` on its
tests against the copy. A mutant whose tests still pass survives. Exit
status: 0 when every mutant is killed, 1 when any survives, 2 when a patch
no longer applies, a first killer is not deterministic, or a clean run
fails.

Standard library only, apart from asking the tests' own hypothesis which
tests are properties; the repository itself is never modified.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "docs", "demos")
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    why: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # -- geometry rules ------------------------------------------------------
    Mutant("brick-size-no-lower-bound", "a brick below 1 is not refused",
           "src/sparseaccel/tensor.py",
           '    return _positive_int(brick, "brick size", ConfigurationError)\n',
           '    return brick\n',
           ("tests/test_tensor.py::test_brick_sizes_below_one_are_configuration_errors",
            "tests/test_tensor.py::test_pad_depth")),
    Mutant("int-rule-accepts-bools", "the integer rule takes True as 1",
           "src/sparseaccel/tensor.py",
           "    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))\n",
           "    if (not isinstance(value, (int, np.integer))\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[store-bool-brick]",
            "tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2")),
    Mutant("criterion-param-kept-as-numpy", "a numpy parameter is checked but kept, so "
           "pow2 with an int16 16 wraps its bound to -1",
           "src/sparseaccel/sparsity.py",
           '        object.__setattr__(self, "param", _int_in(self.param, 0, _PARAM_MAX[self.kind],\n'
           '                                                  f"{self.kind} parameter", ValidationError))\n',
           '        _int_in(self.param, 0, _PARAM_MAX[self.kind], f"{self.kind} parameter",\n'
           '                ValidationError)\n',
           ("tests/test_sparsity.py::test_a_numpy_integer_parameter_is_the_same_int",)),
    Mutant("depth-tensor-accepts-dirty-padding", "a tensor keeps nonzero values past its "
           "logical depth, which the machines multiply",
           "src/sparseaccel/tensor.py",
           "        if self.values[..., self.logical_i:].any():",
           "        if False:",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[act-dirty-padding]",
            "tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[filters-dirty-padding]")),
    Mutant("padded-depth-floor", "the depth is rounded down to a brick multiple",
           "src/sparseaccel/tensor.py",
           "    return -(-depth // _brick_size(brick)) * brick\n",
           "    return depth // _brick_size(brick) * brick\n",
           ("tests/test_tensor.py::test_pad_depth",
            "tests/test_workloads.py::test_brick_padding_is_bounded_by_the_depth")),
    Mutant("save-layer-skips-header-check", "the writer ignores the loaders' header rule",
           "src/sparseaccel/workloads.py",
           "    _check_header(path, a.shape, w.shape[:3], data.stride, data.brick)\n",
           "",
           ("tests/test_workloads.py::test_save_layer_refuses_what_the_loaders_refuse",)),
    Mutant("padding-bound-floor-15", "the padding bound's floor of 16 becomes 15",
           "src/sparseaccel/workloads.py",
           "    if padded > max(2 * i, 16):\n",
           "    if padded > max(2 * i, 15):\n",
           ("tests/test_workloads.py::test_brick_padding_is_bounded_by_the_depth",)),
    Mutant("bank-by-brick-set", "fetches are counted per brick set, not per lane bank",
           "src/sparseaccel/dispatch.py",
           "np.bincount(np.arange(n_slots) % nb % lanes)",
           "np.bincount(np.arange(n_slots) % nb // lanes)",
           ("tests/test_dispatch.py::test_fetch_pointers_count_bank_loads",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop")),
    Mutant("conv-float32-gemm", "the convolution's GEMMs sum in float32 on the float64 path",
           "src/sparseaccel/tensor.py",
           "acc += slab[:, d0:d1] @ w[:, dx, dy, d0:d1].T.astype(dtype)",
           "acc += slab[:, d0:d1].astype(np.float32) @ w[:, dx, dy, d0:d1].T.astype(np.float32)",
           ("tests/test_tensor.py::test_conv3d_exact_at_the_float32_limit",
            "tests/test_tensor.py::test_conv3d_matches_the_einsum_oracle")),
    Mutant("conv-float32-any-magnitude", "the convolution takes float32 whatever the magnitude",
           "src/sparseaccel/tensor.py",
           "    return np.float64, min(_MAX_EXACT_TERMS, (1 << 53) // peak)\n",
           "    return np.float32, min(_MAX_EXACT_TERMS, (1 << 53) // peak)\n",
           ("tests/test_tensor.py::test_exact_gemm_follows_the_magnitude_and_the_cap",
            "tests/test_tensor.py::test_conv3d_exact_at_the_float32_limit")),
    Mutant("conv-float32-limit-one-over", "a float32 sum may hold one product too many",
           "src/sparseaccel/tensor.py",
           "    exact32 = (1 << 24) // peak\n",
           "    exact32 = (1 << 24) // peak + 1\n",
           ("tests/test_tensor.py::test_exact_gemm_follows_the_magnitude_and_the_cap",
            "tests/test_tensor.py::test_conv3d_exact_at_the_float32_limit")),
    Mutant("conv-float32-cap-ignored", "the float32 path ignores the cap, so tests cannot split",
           "src/sparseaccel/tensor.py",
           "        return np.float32, min(_MAX_EXACT_TERMS, exact32)\n",
           "        return np.float32, exact32\n",
           ("tests/test_tensor.py::test_exact_gemm_follows_the_magnitude_and_the_cap",)),
    Mutant("conv-slab-stride-ignored", "each offset's slab is read without the stride",
           "src/sparseaccel/tensor.py",
           "            slab = a[dx:dx + stride * (ox - 1) + 1:stride,\n"
           "                     dy:dy + stride * (oy - 1) + 1:stride].astype(dtype)\n",
           "            slab = a[dx:dx + ox, dy:dy + oy].astype(dtype)\n",
           ("tests/test_tensor.py::test_conv3d_matches_naive_oracle",
            "tests/test_tensor.py::test_conv3d_matches_the_einsum_oracle")),
    Mutant("conv-depth-split-off-by-one", "a split depth skips one sample between chunks",
           "src/sparseaccel/tensor.py",
           "            for d0 in range(0, depth, step):\n",
           "            for d0 in range(0, depth, step + 1):\n",
           ("tests/test_tensor.py::test_conv3d_split_path_is_exact_on_a_fixed_layer",
            "tests/test_tensor.py::test_conv3d_split_path_is_exact")),
    Mutant("abs-bound-strict", "a value at the abs threshold counts as effectual",
           "src/sparseaccel/sparsity.py",
           "        inside &= v <= t\n",
           "        inside &= v < t\n",
           ("tests/test_sparsity.py::test_abs_criterion_inclusive_threshold",
            "tests/test_sparsity.py::test_ineffectual_matches_the_restated_criteria")),
    Mutant("json-true-read-as-1", "a JSON true in a layer file loads as the integer 1",
           "src/sparseaccel/workloads.py",
           "    if set(map(type, value)) <= {int}:\n",
           "    if set(map(type, value)) <= {int, bool}:\n",
           ("tests/test_workloads.py::test_json_layer_rejects_non_integers",)),
    Mutant("json-payloads-int32", "JSON payloads are read as int32, so a value past int16 "
           "escapes the loader's bounds rule",
           "src/sparseaccel/workloads.py",
           '_json_ints(path, k, doc[k], np.int16) for k in ("activations", "weights")',
           '_json_ints(path, k, doc[k], np.int32) for k in ("activations", "weights")',
           ("tests/test_workloads.py::test_json_layer_rejects_out_of_range_values",
            "tests/test_workloads.py::test_json_layer_bounds_are_the_binary_field_ranges")),
    Mutant("layer-trailing-bytes", "a .layer file longer than its header declares loads",
           "src/sparseaccel/workloads.py",
           "    if len(blob) > need:\n"
           '        raise FormatError(f"{path}: {len(blob) - need} trailing bytes after the "\n'
           '                          f"{need}-byte layer its header declares")\n',
           "",
           ("tests/test_workloads.py::test_load_layer_rejects_trailing_bytes",)),
    Mutant("generator-counter-from-lo", "each chunk's counters start at n, not n + 1",
           "src/sparseaccel/workloads.py",
           "        counters = np.arange(lo + 1, hi + 1, dtype=np.uint64)\n",
           "        counters = np.arange(lo, hi, dtype=np.uint64)\n",
           ("tests/test_workloads.py::test_generator_matches_the_restated_stream_across_small_chunks",
            "tests/test_workloads.py::test_generator_matches_the_restated_stream_across_real_chunks")),
    Mutant("draw-value-counter-shifted", "kept positions read the value word at counter n, "
           "not n + 1",
           "src/sparseaccel/workloads.py",
           "_words(value_base, counters[kept])",
           "_words(value_base, counters[kept] - np.uint64(1))",
           ("tests/test_workloads.py::test_generator_matches_the_restated_stream_across_small_chunks",
            "tests/test_workloads.py::test_generator_is_pinned")),
    # -- the dispatcher ------------------------------------------------------
    Mutant("dispatch-rank-off-by-one", "every pair is sent one cycle late",
           "src/sparseaccel/dispatch.py",
           "    at = _runs((start * width + np.arange(n_slots) % width)",
           "    at = _runs(((start + 1) * width + np.arange(n_slots) % width)",
           ("tests/test_dispatch.py::test_lockstep_trace_single_set",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop")),
    Mutant("dispatch-inclusive-window-starts", "each window starts after its own end",
           "src/sparseaccel/dispatch.py",
           "    start = _exclusive_cumsum(schedule.window_cycles, 0)[:, None]",
           "    start = np.cumsum(schedule.window_cycles, 0)[:, None]",
           ("tests/test_dispatch.py::test_lockstep_trace_two_sets",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop_on_seeded_replays")),
    Mutant("dispatch-lanes-accept-bools", "the dispatcher checks its lane count by value "
           "alone, so a bool or a float gets past it",
           "src/sparseaccel/dispatch.py",
           '    _positive_int(lanes, "lane count", ConfigurationError)\n',
           "    if lanes < 1:\n"
           '        raise ConfigurationError(f"lane count must be at least 1, got {lanes}")\n',
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[dispatch-bool-lanes]",
            "tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2")),
    Mutant("dispatch-drain-ignored", "an empty brick never costs its drain cycle",
           "src/sparseaccel/dispatch.py",
           "        self.grid = by_set(sent, 1 if empty_brick is EmptyBrickCost.ONE_CYCLE else 0)\n",
           "        self.grid = by_set(sent)\n",
           ("tests/test_dispatch.py::test_empty_brick_cost_modes",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop_on_seeded_replays",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("dispatch-product-table-ignored", "dead weight offsets are still sent",
           "src/sparseaccel/dispatch.py",
           "    if prod_table is not None:\n"
           "        pair_offsets, pair_values, sent = _live_pairs(\n"
           "            prod_table.reshape(n_slots, brick), pair_offsets, pair_values, sent)\n",
           "",
           ("tests/test_dispatch.py::test_product_table_drops_offsets",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop")),
    Mutant("dispatch-pairs-without-row-base", "every slot reads the pairs of table row 0",
           "src/sparseaccel/dispatch.py",
           "    pair = _runs(rows.reshape(-1) * brick, stored.reshape(-1))\n",
           "    pair = _runs(0 * rows.reshape(-1), stored.reshape(-1))\n",
           ("tests/test_dispatch.py::test_lockstep_trace_two_sets",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop")),
    Mutant("dispatch-runs-without-slot-base", "each slot's run goes on from the previous "
           "slot's place in the flat list instead of starting at its own base",
           "src/sparseaccel/dispatch.py",
           "    out = np.repeat(first - step * _exclusive_cumsum(counts, 0), counts)\n",
           "    out = np.repeat(first, counts)\n",
           ("tests/test_dispatch.py::test_lockstep_trace_two_sets",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop")),
    Mutant("dispatch-sent-before-product-table", "the cycles count the stored pairs, "
           "not those the product table keeps",
           "src/sparseaccel/dispatch.py",
           "    sent = np.bincount(owner[keep], minlength=stored.size)",
           "    sent = np.bincount(owner, minlength=stored.size)",
           ("tests/test_dispatch.py::test_product_table_drops_offsets",
            "tests/test_dispatch.py::test_dispatch_agrees_with_cycle_model_on_fixture")),
    Mutant("event-columns-stride-by-lanes", "an event past the width's columns is read "
           "with the lane count as the row stride",
           "src/sparseaccel/dispatch.py",
           "c.item(row * self.width + lane)",
           "c.item(row * self.lanes + lane)",
           ("tests/test_dispatch.py::test_padded_rows_read_like_a_list_on_seeded_cases",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop")),
    Mutant("event-columns-pad-as-sent", "columns compared at a wider width pad their "
           "extra lanes with 0, for events offset 0, a sent pair, not idle",
           "src/sparseaccel/dispatch.py",
           "np.pad(column.reshape(self.rows, self.width), pad, constant_values=fill)",
           "np.pad(column.reshape(self.rows, self.width), pad)",
           ("tests/test_dispatch.py::test_event_columns_compare_by_columns_across_widths",)),
    Mutant("raw-source-unbounded", "the raw source reads a brick without the bounds rule",
           "src/sparseaccel/dispatch.py",
           "        return stream_brick(self.acts.values.reshape(-1, self.brick)[self._index(x, y, ib)],\n",
           "        base = ib * self.brick\n"
           "        return stream_brick(self.acts.values[x, y, base:base + self.brick],\n",
           ("tests/test_dispatch.py::test_every_source_refuses_a_brick_outside_the_tensor",)),
    Mutant("lane-stream-range-unchecked", "a lane outside 0..lanes-1 reads other lanes' pairs",
           "src/sparseaccel/dispatch.py",
           "        if not 0 <= lane < width:\n"
           "            return []\n",
           "",
           ("tests/test_dispatch.py::test_event_columns_span_only_the_lanes_that_get_a_brick",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop_on_seeded_replays")),
    Mutant("dispatch-accepts-any-source", "the dispatcher takes any object as a source",
           "src/sparseaccel/dispatch.py",
           "    if not isinstance(source, _ActSource):\n",
           "    if False:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[dispatch-not-a-source]",)),
    Mutant("enum-check-removed", "a plain string falls through to the other policy",
           "src/sparseaccel/tensor.py",
           "    if not isinstance(value, kind):\n"
           '        raise ConfigurationError(f"{name} must be of type {kind.__name__}, got {value!r}")\n',
           "",
           ("tests/test_sim.py::test_tile_config_refuses_plain_values_for_enums",
            "tests/test_dispatch.py::test_run_dispatch_refuses_plain_values_for_enums")),
    Mutant("trace-idle-tail-as-pair", "a lane past the width is traced as a sent pair",
           "src/sparseaccel/dispatch.py",
           '    idle = [f",{lane},IDLE" for lane in range(width, events.lanes)]\n',
           '    idle = [f",{lane},-1,0" for lane in range(width, events.lanes)]\n',
           ("tests/test_dispatch.py::test_format_trace_reads_the_columns_on_seeded_replays",)),
    Mutant("trace-tail-lanes-from-zero", "lanes past the width are numbered from 0",
           "src/sparseaccel/dispatch.py",
           '    idle = [f",{lane},IDLE" for lane in range(width, events.lanes)]\n',
           '    idle = [f",{lane},IDLE" for lane in range(events.lanes - width)]\n',
           ("tests/test_dispatch.py::test_format_trace_reads_the_columns_on_seeded_replays",)),
    Mutant("trace-cycles-restart-per-piece", "each piece of a trace numbers its cycles from 0",
           "src/sparseaccel/dispatch.py",
           "        for cycle, (offs, vals) in enumerate(rows, c0):\n",
           "        for cycle, (offs, vals) in enumerate(rows):\n",
           ("tests/test_dispatch.py::test_format_trace_reads_the_columns_on_seeded_replays",)),
    # -- the slot order and the lane schedule, shared with the cycle model ----
    Mutant("slot-rows-stride-dropped", "a window's bricks start at (wx, wy), not at "
           "(wx * stride, wy * stride)",
           "src/sparseaccel/dispatch.py",
           "    origin = (wx * layer.y + wy) * layer.stride * nb",
           "    origin = (wx * layer.y + wy) * nb",
           ("tests/test_dispatch.py::test_slot_rows_follow_the_brick_rule_on_seeded_layers",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop_on_seeded_replays",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("schedule-lane-by-set", "slot s runs on lane s // sets in set s % sets, "
           "filling one lane after another, not on lane s % lanes in set s // lanes",
           "src/sparseaccel/dispatch.py",
           "            return out.reshape(a.shape[:-1] + (-1, width))\n",
           "            return out.reshape(a.shape[:-1] + (width, -1)).swapaxes(-1, -2)\n",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop_on_seeded_replays")),
    Mutant("schedule-reductions-swapped", "a window takes each set's busiest paced lane "
           "before summing the sets, so window sync costs what lockstep does",
           "src/sparseaccel/dispatch.py",
           "        self.window_cycles = self.paced.sum(axis=-2).max(axis=-1)\n",
           "        self.window_cycles = self.paced.max(axis=-1).sum(axis=-1)\n",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop_on_seeded_replays")),
    # the first killer's 32768 lanes bound the grid this mutant builds for every lane
    Mutant("schedule-width-all-lanes", "the lane grid gets a column for every lane",
           "src/sparseaccel/dispatch.py",
           "        self.width = width = min(lanes, slots)\n",
           "        self.width = width = lanes\n",
           ("tests/test_dispatch.py::test_event_columns_span_only_the_lanes_that_get_a_brick",
            "tests/test_sim.py::test_lanes_past_the_window_allocate_nothing[run_baseline]")),
    Mutant("schedule-drain-after-padding", "padded slots cost a drain cycle under ONE_CYCLE",
           "src/sparseaccel/dispatch.py",
           "        self.grid = by_set(sent, 1 if empty_brick is EmptyBrickCost.ONE_CYCLE else 0)\n",
           "        self.grid = np.maximum(by_set(sent), "
           "1 if empty_brick is EmptyBrickCost.ONE_CYCLE else 0)\n",
           ("tests/test_dispatch.py::test_window_sync_drain_cycles",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("schedule-lockstep-unpaced", "lockstep lanes keep their own costs, not "
           "waiting for their set's slowest",
           "src/sparseaccel/dispatch.py",
           "        self.paced = self.grid.max(axis=-1, keepdims=True) if lockstep else self.grid\n",
           "        self.paced = self.grid\n",
           ("tests/test_dispatch.py::test_policies_differ_on_imbalanced_sets",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("schedule-paced-by-min", "a lockstep set is paced by its fastest lane",
           "src/sparseaccel/dispatch.py",
           "self.grid.max(axis=-1, keepdims=True) if lockstep",
           "self.grid.min(axis=-1, keepdims=True) if lockstep",
           ("tests/test_dispatch.py::test_policies_differ_on_imbalanced_sets",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("lane-rows-fill-from-stored", "a lane past the width, read by its index, reads "
           "its row's last stored item",
           "src/sparseaccel/dispatch.py",
           "        fields = (self.fills if lane >= self.width\n",
           "        fields = ([c.item((row + 1) * self.width - 1) for c in self.columns]\n"
           "                  if lane >= self.width\n",
           ("tests/test_dispatch.py::test_padded_rows_read_like_a_list_on_seeded_cases",
            "tests/test_sim.py::test_lanes_past_the_window_allocate_nothing")),
    Mutant("lane-rows-iterate-without-fills", "iteration and forward slices stop each row at "
           "the width, skipping the lanes past it",
           "src/sparseaccel/dispatch.py",
           "itertools.repeat(fill, tail)",
           "itertools.repeat(fill, 0)",
           ("tests/test_dispatch.py::test_padded_rows_read_like_a_list_on_seeded_cases",
            "tests/test_dispatch.py::test_event_columns_span_only_the_lanes_that_get_a_brick")),
    Mutant("lane-counts-tail-nonzero", "lanes past the width count one pair each",
           "src/sparseaccel/dispatch.py",
           "    fills = (0,)\n",
           "    fills = (1,)\n",
           ("tests/test_sim.py::test_lanes_past_the_window_allocate_nothing",
            "tests/test_dispatch.py::test_event_columns_span_only_the_lanes_that_get_a_brick")),
    Mutant("lane-counts-equal-at-any-lanes", "two lane sequences of the same columns "
           "compare equal at any lane count",
           "src/sparseaccel/dispatch.py",
           "            return len(self) == len(other) and all(\n",
           "            return all(\n",
           ("tests/test_dispatch.py::test_lane_counts_compare_by_their_stored_counts",)),
    Mutant("lane-rows-with-dict", "every lane sequence carries an instance __dict__ "
           "beside its columns",
           "src/sparseaccel/dispatch.py",
           '    __slots__ = ("columns", "rows", "lanes", "width")\n',
           "",
           ("tests/test_dispatch.py::test_lane_sequences_carry_no_instance_dict",)),
    # -- the cycle model -----------------------------------------------------
    Mutant("sim-min-for-group-max", "a pass costs its cheapest filter group",
           "src/sparseaccel/sim.py",
           "np.maximum.reduce(costs)",
           "np.minimum.reduce(costs)",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",)),
    Mutant("sim-criterion-ignored-in-costs", "costs count nonzero, not effectual, activations",
           "src/sparseaccel/sim.py",
           "    bits, rows = eff.reshape(-1, b), _slot_rows(layer, nb)",
           "    bits, rows = (acts.values != 0).reshape(-1, b), _slot_rows(layer, nb)",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",)),
    Mutant("cnv2-weight-criterion-optional", "cnv2 without a weight criterion reports "
           "cnv's counters as cnv2",
           "src/sparseaccel/sim.py",
           '    if arch == "cnv2" and weight_crit is None:\n'
           '        raise ConfigurationError("cnv2 requires a weight criterion")\n',
           "",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2",)),
    Mutant("sim-broadcasts-first-group-only", "a pass broadcasts only its first group's pairs",
           "src/sparseaccel/sim.py",
           "int(sent.sum())",
           "int(sent[::groups].sum())",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",)),
    Mutant("sim-footprint-zero-criterion", "the output footprint ignores the criterion",
           "src/sparseaccel/sim.py",
           "                                                 busy, act_crit)\n",
           "                                                 busy, ZERO)\n",
           ("tests/test_sim.py::test_cviai_footprint_counts_what_the_skip_criterion_keeps",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("baseline-ragged-lanes-reversed", "the baseline's ragged positions go to the last lanes",
           "src/sparseaccel/sim.py",
           "window.busy * repeat",
           "window.busy[::-1] * repeat",
           ("tests/test_sim.py::test_baseline_ragged_lane_split",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("sim-busy-first-group-only", "lane busy counts follow the first group, not the "
           "group maximum",
           "src/sparseaccel/sim.py",
           "            busy = busy + schedule.busy\n",
           "            busy = busy + _Schedule(costs[0], tile.lanes, tile.sync,\n"
           "                                    tile.empty_brick).busy\n",
           ("tests/test_sim.py::test_passes_that_drop_nothing_share_one_schedule"
            "[GroupScope.PER_TILE-SyncPolicy.BRICKSET_LOCKSTEP]",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("sim-busy-not-scaled-by-passes", "lane busy counts cover the last pass of several",
           "src/sparseaccel/sim.py",
           "            busy = busy + schedule.busy\n",
           "            busy = schedule.busy\n",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",)),
    Mutant("baseline-cycles-one-set", "the baseline's cycles ignore ceil(positions / lanes): "
           "one cycle per window and pass",
           "src/sparseaccel/sim.py",
           "window.cycles * repeat",
           "repeat",
           ("tests/test_sim.py::test_baseline_closed_form",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("sim-cnv2-reuses-masked-output", "cnv2 takes cnv's output although its groups "
           "zeroed nonzero weights",
           "src/sparseaccel/sim.py",
           "        weights = _operand(weights, np.repeat(live, sizes, axis=0)"
           ".reshape(weights.shape))\n",
           "",
           ("tests/test_cli.py::test_run_convolves_each_distinct_product_set_once"
            "[zero-abs:1-2-2]",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("sim-operand-always-a-copy", "every operand is a masked copy, so machines that "
           "multiply the same products convolve once each",
           "src/sparseaccel/sim.py",
           "    return values if np.array_equal(masked, values) else masked\n",
           "    return masked\n",
           ("tests/test_cli.py::test_run_convolves_each_distinct_product_set_once"
            "[zero-zero-1-1]",
            "tests/test_cli.py::test_run_convolves_as_often_as_the_reference_sweeps_on_seeded_layers")),
    Mutant("sim-key-ignores-weights", "a product set is told from the last by its "
           "activations alone, so cnv2 takes the output of a set with other weights",
           "src/sparseaccel/sim.py",
           "        products = (a is acts.values, w is filters.values)\n",
           "        products = a is acts.values\n",
           ("tests/test_cli.py::test_run_convolves_each_distinct_product_set_once"
            "[zero-abs:1-2-2]",
            "tests/test_cli.py::test_run_catches_a_corrupted_simulator",
            "tests/test_cli.py::test_run_convolves_as_often_as_the_reference_sweeps_on_seeded_layers")),
    Mutant("sim-key-ignores-activations", "a product set is told from the last by its "
           "weights alone, so cnv takes the baseline's output",
           "src/sparseaccel/sim.py",
           "        products = (a is acts.values, w is filters.values)\n",
           "        products = w is filters.values\n",
           ("tests/test_cli.py::test_run_convolves_each_distinct_product_set_once"
            "[abs:1-zero-2-2]",
            "tests/test_cli.py::test_run_catches_a_corrupted_simulator",
            "tests/test_cli.py::test_run_convolves_as_often_as_the_reference_sweeps_on_seeded_layers")),
    Mutant("sim-dead-table-or", "a group's dead table ORs its filters' ineffectual weights, "
           "so a position one filter drops is dropped for the whole group",
           "src/sparseaccel/sim.py",
           "    dead = [ineff[:cut].reshape(-1, step, *ineff.shape[1:]).all(axis=1)]\n",
           "    dead = [ineff[:cut].reshape(-1, step, *ineff.shape[1:]).any(axis=1)]\n",
           ("tests/test_sim.py::test_weight_product_table_values",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",
            "tests/test_cli.py::test_run_catches_cnv2_ignoring_the_weight_products")),
    Mutant("sim-dead-tail-or", "the last, narrower group's dead table ORs its filters' "
           "ineffectual weights",
           "src/sparseaccel/sim.py",
           "        dead.append(ineff[cut:].all(axis=0, keepdims=True))\n",
           "        dead.append(ineff[cut:].any(axis=0, keepdims=True))\n",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",)),
    Mutant("sim-dropping-group-costs-counts", "a cnv2 group drops positions only when it "
           "drops all of them, so one that drops some costs the effectual counts",
           "src/sparseaccel/sim.py",
           "        drops = ~live.all(axis=(1, 2))\n",
           "        drops = ~live.any(axis=(1, 2))\n",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",)),
    Mutant("sim-costs-in-uint8", "costs are counted in uint8 whatever the brick, so a "
           "full 256-brick costs 0",
           "src/sparseaccel/sim.py",
           "    width = np.min_scalar_type(b)",
           "    width = np.uint8",
           ("tests/test_sim.py::test_a_full_brick_costs_its_whole_width"
            "[256-no-dead-weight-SyncPolicy.BRICKSET_LOCKSTEP]",
            "tests/test_sim.py::test_a_full_brick_costs_its_whole_width")),
    Mutant("sim-shared-schedule-once", "the shared schedule is added for one pass only, "
           "however many passes cost the shared counts",
           "src/sparseaccel/sim.py",
           "        cycles += shared * schedule.cycles\n"
           "        busy = busy + shared * schedule.busy\n",
           "        cycles += schedule.cycles\n"
           "        busy = busy + schedule.busy\n",
           ("tests/test_sim.py::test_passes_that_drop_nothing_share_one_schedule"
            "[GroupScope.PASS_WIDE-SyncPolicy.WINDOW_SYNC]",
            "tests/test_sim.py::test_cnv_multi_pass_scales_cycles",
            "tests/test_sim.py::test_reports_match_oracle_on_seeded_layers")),
    Mutant("sim-cnv-per-tile-groups", "cnv takes cnv2's per-tile groups, so each tile "
           "of a pass broadcasts the same pairs",
           "src/sparseaccel/sim.py",
           '    per_tile = arch == "cnv2" and tile.group_scope is GroupScope.PER_TILE\n',
           "    per_tile = tile.group_scope is GroupScope.PER_TILE\n",
           ("tests/test_sim.py::test_reports_match_oracle_on_seeded_layers",)),
    Mutant("criterion-type-unchecked", "an encoder takes a string criterion and fails "
           "with AttributeError",
           "src/sparseaccel/encodings.py",
           "    def encode(cls, acts, crit: IneffCriterion = ZERO, brick: int = 16):\n"
           '        _require_type(crit, IneffCriterion, "criterion")\n',
           "    def encode(cls, acts, crit: IneffCriterion = ZERO, brick: int = 16):\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[store-str-criterion]",)),
    # -- codecs --------------------------------------------------------------
    Mutant("cviai-pair-table-ignores-ir", "every brick reads its values from the pool's start",
           "src/sparseaccel/encodings.py",
           "self.packed[np.repeat(self.ir - row_start, counts) + dest]",
           "self.packed[np.repeat(0 * self.ir - row_start, counts) + dest]",
           ("tests/test_dispatch.py::test_sources_agree_on_sparse_tensor",
            "tests/test_dispatch.py::test_run_dispatch_matches_event_loop_on_seeded_replays")),
    Mutant("front-pack-inclusive-rank", "a kept value's rank counts its own row's kept "
           "positions too, so pairs land rows early or wrap to the table's end",
           "src/sparseaccel/encodings.py",
           "np.arange(0, n * b, b) - _exclusive_cumsum(counts, 0)",
           "np.arange(0, n * b, b) - np.cumsum(counts)",
           ("tests/test_encodings.py::test_front_pack_matches_the_stable_sort",
            "tests/test_encodings.py::test_zfnaf_golden_bytes")),
    Mutant("front-pack-offset-is-row", "a pair's offset is its brick row, not its column",
           "src/sparseaccel/encodings.py",
           "    offsets[dest] = src % b\n",
           "    offsets[dest] = src // b\n",
           ("tests/test_encodings.py::test_front_pack_matches_the_stable_sort",
            "tests/test_dispatch.py::test_sources_agree_on_sparse_tensor")),
    Mutant("stream-tags-shifted", "ZFNAf and RoE swap stream tags",
           "src/sparseaccel/encodings.py",
           "_STREAM_TAGS = (Format.RAW, Format.ZFNAF, Format.ROE, Format.VIAI, Format.CVIAI)\n",
           "_STREAM_TAGS = (Format.RAW, Format.ROE, Format.ZFNAF, Format.VIAI, Format.CVIAI)\n",
           ("tests/test_encodings.py::test_zfnaf_golden_bytes",
            "tests/test_encodings.py::test_roe_encoded_golden")),
    Mutant("ints-lsb-first", "the field reader takes the planes LSB first",
           "src/sparseaccel/encodings.py",
           "    block[..., 8 * n - width:] = bits\n",
           "    block[..., 8 * n - width:] = bits[..., ::-1]\n",
           ("tests/test_encodings.py::test_packer_matches_the_plane_loop[16-int16]",
            "tests/test_encodings.py::test_deserialize_store_dispatches_every_format",
            "tests/test_encodings.py::test_ints_reads_back_bits_on_strided_views")),
    Mutant("ints-left-aligned", "the field reader copies the planes into the first "
           "columns of their words, so a field narrower than its word reads shifted up",
           "src/sparseaccel/encodings.py",
           "    block[..., 8 * n - width:] = bits\n",
           "    block[..., :width] = bits\n",
           ("tests/test_encodings.py::test_packer_matches_the_plane_loop[20-int64]",
            "tests/test_encodings.py::test_zfnaf_golden_bytes",
            "tests/test_encodings.py::test_packer_matches_the_plane_loop_property")),
    Mutant("zfnaf-slot-fields-swapped", "a ZFNAf slot is written offset first, in RoE's "
           "pair order",
           "src/sparseaccel/encodings.py",
           "        return _pack(_bits(self.values, VALUE_BITS),\n"
           "                     _bits(self.offsets, offset_bits_for(self.brick)))\n",
           "        return _pack(_bits(self.offsets, offset_bits_for(self.brick)),\n"
           "                     _bits(self.values, VALUE_BITS))\n",
           ("tests/test_encodings.py::test_zfnaf_golden_bytes",
            "tests/test_encodings.py::test_store_bytes_match_the_slow_packer")),
    Mutant("roe-pair-fields-swapped", "a RoE pair field is written value first, "
           "value << offset_bits | offset",
           "src/sparseaccel/encodings.py",
           "        fields = self.offsets[enc, :k] << VALUE_BITS | self.values[enc, :k].astype(np.uint16)\n",
           "        fields = (self.values[enc, :k].astype(np.uint16).astype(np.int64)\n"
           "                  << offset_bits_for(brick) | self.offsets[enc, :k])\n",
           ("tests/test_encodings.py::test_roe_encoded_golden",
            "tests/test_encodings.py::test_roe_codec_matches_the_two_reading_oracle[16-mixed]")),
    Mutant("roe-fit-strict", "a RoE brick that exactly fits is stored raw",
           "src/sparseaccel/encodings.py",
           "    return pairs <= _roe_slots(brick)[1]\n",
           "    return pairs < _roe_slots(brick)[1]\n",
           ("tests/test_encodings.py::test_roe_exact_fit_tie_prefers_encoded",
            "tests/test_encodings.py::test_brick_codecs_match_the_slow_restatement_at_the_roe_fit")),
    Mutant("offset-bits-no-lower-bound", "a brick of 0 gets a 1-bit offset",
           "src/sparseaccel/encodings.py",
           "    return (_brick_size(brick) - 1).bit_length()\n",
           "    return (brick - 1).bit_length()\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2",)),
    Mutant("roe-view-raw-pairs", "a raw-mode RoE view lists its B raw pairs",
           "src/sparseaccel/encodings.py",
           "        return self.store.brick_pairs(0, 0, 0) if self.encoded else []\n",
           "        return self.store.brick_pairs(0, 0, 0)\n",
           ("tests/test_encodings.py::test_brick_codecs_match_the_slow_restatement_at_the_roe_fit",)),
    Mutant("roe-view-raw-when-encoded", "an encoded RoE view also hands out raw values",
           "src/sparseaccel/encodings.py",
           "        return None if self.encoded else self.store.values[0]\n",
           "        return self.store.values[0]\n",
           ("tests/test_encodings.py::test_brick_codecs_match_the_slow_restatement_at_the_roe_fit",)),
    Mutant("view-container-bits-raw", "a view's container size is the raw 16-bit cost",
           "src/sparseaccel/encodings.py",
           "        return self.store.footprint().total_bits\n",
           "        return self.store.footprint().raw_bits\n",
           ("tests/test_encodings.py::test_zfnaf_pairs_and_container",)),
    Mutant("viai-view-mask-nonzero", "a VIAI view's mask marks nonzero, not effectual, values",
           "src/sparseaccel/encodings.py",
           "        return self.store.masks[0]\n",
           "        return self.store.values[0] != 0\n",
           ("tests/test_encodings.py::test_viai_threshold_zeroes_on_decode",)),
    Mutant("view-decode-stored-row", "a view decodes to its store's stored value row",
           "src/sparseaccel/encodings.py",
           "    return Brick(view.x, view.y, view.i, view.store.decode().reshape(-1))\n",
           "    return Brick(view.x, view.y, view.i, view.store.values.reshape(-1))\n",
           ("tests/test_encodings.py::test_zfnaf_pairs_and_container",)),
    # -- decoders: every rejection rule of deserialize_store ----------------
    Mutant("decoder-trailing-bytes", "a stream longer than its header declares loads",
           "src/sparseaccel/encodings.py",
           "    if len(body) > need:\n"
           '        raise FormatError(f"{len(body) - need} trailing bytes after the "\n'
           '                          f"{need}-byte payload its header declares")\n',
           "",
           ("tests/test_encodings.py::test_decoders_reject_trailing_bytes",)),
    Mutant("decoder-pad-bits", "set pad bits after the last field load",
           "src/sparseaccel/encodings.py",
           "    if bits[nbits:].any():\n"
           '        raise FormatError("pad bits after the last field are not zero")\n',
           "",
           ("tests/test_encodings.py::test_decoders_reject_nonzero_pad_bits",)),
    Mutant("decoder-zero-dims", "a header with a zero dimension or brick loads",
           "src/sparseaccel/encodings.py",
           "    if 0 in (x, y, i, brick):\n",
           "    if False:\n",
           ("tests/test_encodings.py::test_decoders_reject_zero_dims",)),
    Mutant("decoder-logical-depth", "a logical depth outside [1, I] loads",
           "src/sparseaccel/encodings.py",
           '    _int_in(logical_i, 1, i, "logical depth", FormatError)\n',
           "",
           ("tests/test_encodings.py::test_decoders_reject_logical_depth_outside_depth",)),
    Mutant("viai-mask-unchecked", "a VIAI mask that differs from the criterion's bits loads",
           "src/sparseaccel/encodings.py",
           "        if not np.array_equal(masks, meta[3].effectual(values)):\n",
           "        if False:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[viai-mask-bit-flipped]",
            "tests/test_encodings.py::test_accepted_viai_streams_are_the_encoders_bytes")),
    Mutant("stored-ineffectual-values-load", "a ZFNAf, encoded-RoE or CVIAI value the "
           "header's criterion calls ineffectual loads",
           "src/sparseaccel/encodings.py",
           "    if crit.ineffectual(stored).any():\n",
           "    if False:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[zfnaf-ineffectual-stored-value]",
            "tests/test_encodings.py::test_accepted_streams_are_the_encoders_bytes")),
    Mutant("roe-raw-mode-unchecked", "a raw-mode RoE brick whose effectual values fit loads",
           "src/sparseaccel/encodings.py",
           "        if _roe_fits(crit.effectual(raw_values).sum(axis=1), brick).any():\n",
           "        if False:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[roe-raw-brick-that-fits]",
            "tests/test_encodings.py::test_accepted_streams_are_the_encoders_bytes")),
    Mutant("padding-unchecked", "a nonzero value past the logical depth loads",
           "src/sparseaccel/encodings.py",
           "        if logical_i < i and store._held()[..., logical_i:].any():\n",
           "        if False:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[viai-value-past-logical-depth]",
            "tests/test_encodings.py::test_accepted_streams_are_the_encoders_bytes")),
    Mutant("viai-padding-decoded", "VIAI's padding rule reads the decoded values, so an "
           "ineffectual stored value past the logical depth loads",
           "src/sparseaccel/encodings.py",
           "        return self.values.reshape(self.dims)  # ineffectual values too\n",
           "        return self.decode()\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[viai-ineffectual-value-past-logical-depth]",)),
    Mutant("encoder-writes-dirty-padding", "the encoder writes an ActTensor's nonzero "
           "values past its logical depth, a stream the decoder refuses",
           "src/sparseaccel/encodings.py",
           "        if acts.values[..., acts.logical_i:].any():\n",
           "        if False:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[store-dirty-padding]",)),
    Mutant("decoder-offsets-not-rising", "pair offsets that do not rise strictly load",
           "src/sparseaccel/encodings.py",
           "    if ((np.diff(offsets, axis=1) <= 0) & live[:, 1:]).any():\n"
           '        raise FormatError("pair offsets are not strictly increasing")\n',
           "",
           ("tests/test_encodings.py::test_zfnaf_rejects_non_increasing_offsets",)),
    Mutant("zfnaf-value-after-sentinel", "a ZFNAf value after the zero-fill sentinel loads",
           "src/sparseaccel/encodings.py",
           "        if (live & np.logical_or.accumulate(~live, axis=1)).any():\n"
           '            raise FormatError("value slot found after the zero-fill sentinel")\n',
           "",
           ("tests/test_encodings.py::test_zfnaf_rejects_value_after_sentinel",)),
    Mutant("roe-dirty-padding", "a nonzero RoE field at or after the pairs' zero-value "
           "sentinel loads",
           "src/sparseaccel/encodings.py",
           "        if (fields.astype(bool) & ~live).any():\n"
           '            raise FormatError("RoE padding bits are not zero")\n',
           "",
           ("tests/test_encodings.py::test_roe_rejects_a_field_after_the_sentinel",
            "tests/test_encodings.py::"
            "test_roe_bit_flips_are_refused_as_the_two_reading_oracle_refuses[4]")),
    Mutant("roe-trailing-bits-unchecked", "set RoE bits after an encoded brick's whole pair "
           "slots load",
           "src/sparseaccel/encodings.py",
           "        if bits[enc, 1 + k * width:].any():\n"
           '            raise FormatError("RoE padding bits are not zero")\n',
           "",
           ("tests/test_encodings.py::test_roe_rejects_dirty_padding",
            "tests/test_encodings.py::"
            "test_roe_bit_flips_are_refused_as_the_two_reading_oracle_refuses[16]")),
    Mutant("roe-raw-rows-read-as-pairs", "raw-mode RoE rows are also read as pair slots",
           "src/sparseaccel/encodings.py",
           "        enc, raw = np.flatnonzero(encoded), np.flatnonzero(~encoded)\n",
           "        enc, raw = np.arange(n), np.flatnonzero(~encoded)\n",
           ("tests/test_encodings.py::test_roe_roundtrips_both_modes",
            "tests/test_encodings.py::test_roe_codec_matches_the_two_reading_oracle[16-raw]")),
    Mutant("cviai-pool-unchecked", "a CVIAI pool size that differs from the mask population loads",
           "src/sparseaccel/encodings.py",
           "        if int(masks.sum()) != pool:\n"
           '            raise FormatError(f"mask population {int(masks.sum())} != declared pool '
           'size {pool}")\n',
           "",
           ("tests/test_encodings.py::test_cviai_rejects_a_pool_size_off_the_mask_population",
            "tests/test_encodings.py::test_cviai_bytes_roundtrip_and_population_check")),
    Mutant("cviai-ir-unchecked", "CVIAI IR pointers off the prefix sums load",
           "src/sparseaccel/encodings.py",
           "        if not np.array_equal(ir, _pointers(masks)):\n"
           '            raise FormatError("IR pointers differ from the prefix sums of the mask '
           'populations")\n',
           "",
           ("tests/test_encodings.py::test_cviai_rejects_pointers_off_the_prefix_sum",)),
    Mutant("cviai-pool-field-unchecked", "a CVIAI stream cut inside its pool size field "
           "raises struct.error, not a FormatError",
           "src/sparseaccel/encodings.py",
           "        if len(body) < 8:\n"
           '            raise TruncatedError("stream ends before the pool size field")\n',
           "",
           ("tests/test_encodings.py::test_every_proper_prefix_is_refused",)),
    # -- the CLI -------------------------------------------------------------
    # every text input decodes as strict UTF-8 in its loader, which refuses
    # what it cannot decode or parse
    Mutant("json-layer-decode-unguarded", "a JSON layer that is not UTF-8 escapes the loader "
           "as UnicodeDecodeError",
           "src/sparseaccel/workloads.py",
           "    except (ValueError, RecursionError) as exc:\n",
           "    except (json.JSONDecodeError, RecursionError) as exc:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-json-layer-not-utf8]",
            "tests/test_cli.py::test_every_byte_mutated_input_exits_0_2_or_3")),
    Mutant("json-layer-depth-unguarded", "a JSON layer nested too deep escapes the loader "
           "as RecursionError",
           "src/sparseaccel/workloads.py",
           "    except (ValueError, RecursionError) as exc:\n",
           "    except ValueError as exc:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-json-layer-nested-too-deep]",)),
    Mutant("layer-path-nul-unguarded", "a layer path holding a NUL escapes the loader as "
           "ValueError",
           "src/sparseaccel/workloads.py",
           "    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL\n"
           '        raise ValidationError(f"cannot read layer file',
           "    except OSError as exc:\n"
           '        raise ValidationError(f"cannot read layer file',
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-config-layer-path-with-nul]",)),
    Mutant("layer-out-path-nul-unguarded", "a layer output path holding a NUL escapes the "
           "writer as ValueError",
           "src/sparseaccel/workloads.py",
           "    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL\n"
           '        raise ValidationError(f"cannot write layer file',
           "    except OSError as exc:\n"
           '        raise ValidationError(f"cannot write layer file',
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-config-gen-out-with-nul]",)),
    Mutant("report-decode-unguarded", "a report that is not UTF-8 escapes compare as "
           "UnicodeDecodeError",
           "src/sparseaccel/cli.py",
           "        except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:\n",
           "        except (OSError, json.JSONDecodeError, RecursionError, KeyError, TypeError)"
           " as exc:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-report-not-utf8]",
            "tests/test_cli.py::test_every_byte_mutated_input_exits_0_2_or_3")),
    Mutant("report-depth-unguarded", "a report nested too deep escapes compare as "
           "RecursionError",
           "src/sparseaccel/cli.py",
           "        except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:\n",
           "        except (OSError, ValueError, KeyError, TypeError) as exc:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-report-nested-too-deep]",)),
    Mutant("config-decode-unguarded", "a config file that is not UTF-8 escapes as "
           "UnicodeDecodeError",
           "src/sparseaccel/cli.py",
           "    except (OSError, UnicodeDecodeError) as exc:\n",
           "    except OSError as exc:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-config-not-utf8]",
            "tests/test_cli.py::test_every_byte_mutated_input_exits_0_2_or_3")),
    Mutant("reference-float32-gemm", "the reference check sums in float32",
           "src/sparseaccel/cli.py",
           "acc[:, glo:ghi] += vals @ wts[glo:ghi, sl].T\n",
           "acc[:, glo:ghi] += vals.astype(np.float32) @ wts[glo:ghi, sl].T.astype(np.float32)\n",
           ("tests/test_cli.py::test_reference_output_exact_at_the_float32_limit",
            "tests/test_cli.py::test_reference_output_matches_window_loop")),
    Mutant("reference-float32-any-magnitude", "the reference takes float32 whatever the magnitude",
           "src/sparseaccel/cli.py",
           "    return np.float64, min(MAX_EXACT_BRICK, (1 << 53) // peak)\n",
           "    return np.float32, min(MAX_EXACT_BRICK, (1 << 53) // peak)\n",
           ("tests/test_cli.py::test_reference_gemm_follows_the_magnitude_and_the_cap",
            "tests/test_cli.py::test_reference_output_exact_at_the_float32_limit")),
    Mutant("reference-float32-limit-one-over", "a reference float32 sum may hold one product too many",
           "src/sparseaccel/cli.py",
           "        return np.float32, min(MAX_EXACT_BRICK, (1 << 24) // peak)\n",
           "        return np.float32, min(MAX_EXACT_BRICK, (1 << 24) // peak + 1)\n",
           ("tests/test_cli.py::test_reference_gemm_follows_the_magnitude_and_the_cap",
            "tests/test_cli.py::test_reference_output_exact_at_the_float32_limit")),
    Mutant("reference-float32-cap-ignored", "the reference's float32 path ignores the cap",
           "src/sparseaccel/cli.py",
           "        return np.float32, min(MAX_EXACT_BRICK, (1 << 24) // peak)\n",
           "        return np.float32, (1 << 24) // peak\n",
           ("tests/test_cli.py::test_reference_gemm_follows_the_magnitude_and_the_cap",)),
    Mutant("reference-depth-unsplit", "the reference's chunk loop steps over the whole depth",
           "src/sparseaccel/cli.py",
           "for d0 in range(0, layer.i, limit):",
           "for d0 in range(0, layer.i, layer.i):",
           ("tests/test_cli.py::test_reference_output_splits_a_deep_depth",)),
    Mutant("reference-flush-overwrites", "a flush replaces the reference's int64 sums",
           "src/sparseaccel/cli.py",
           "out += acc.astype(np.int64)\n                    acc[:] = 0.0\n",
           "out = acc.astype(np.int64)\n                    acc[:] = 0.0\n",
           ("tests/test_cli.py::test_reference_output_splits_a_deep_depth",
            "tests/test_cli.py::test_reference_output_flushes_exactly_at_int16_extremes")),
    Mutant("reference-flush-keeps-acc", "the reference's accumulator is not zeroed by a flush",
           "src/sparseaccel/cli.py",
           "                    acc[:] = 0.0\n",
           "",
           ("tests/test_cli.py::test_reference_output_splits_a_deep_depth",)),
    Mutant("reference-cnv2-mask-all-filters", "the cnv2 reference masks over every filter",
           "src/sparseaccel/cli.py",
           "weight_crit.ineffectual(w[glo:ghi])",
           "weight_crit.ineffectual(w)",
           ("tests/test_cli.py::test_reference_output_per_tile_groups_in_a_ragged_last_pass",
            "tests/test_cli.py::test_reference_output_matches_window_loop")),
    Mutant("reference-per-tile-steps-by-pass", "PER_TILE reference groups span a whole pass",
           "src/sparseaccel/cli.py",
           "        step = tile.filters_per_tile\n",
           "        step = tile.resident\n",
           ("tests/test_cli.py::test_reference_output_per_tile_groups_in_a_ragged_last_pass",)),
    Mutant("reference-cnv2-no-weight-mask", "the cnv2 reference keeps every depth position",
           "src/sparseaccel/cli.py",
           "vals = slab[:, sl] if keep is None else slab[:, sl] * keep[fx, fy, sl]",
           "vals = slab[:, sl]",
           ("tests/test_cli.py::test_reference_output_per_tile_groups_in_a_ragged_last_pass",
            "tests/test_cli.py::test_reference_output_matches_window_loop_on_seeded_layers")),
    Mutant("reference-cnv2-no-act-mask", "the cnv2 reference multiplies ineffectual activations",
           "src/sparseaccel/cli.py",
           '    if arch != "baseline":\n'
           "        masked = np.where(act_crit.effectual(a), a, 0)\n",
           '    if arch == "cnv":\n'
           "        masked = np.where(act_crit.effectual(a), a, 0)\n",
           ("tests/test_cli.py::test_reference_output_splits_a_deep_depth",
            "tests/test_cli.py::test_reference_output_matches_window_loop_on_seeded_layers")),
    Mutant("reference-stride-ignored", "the reference reads each offset's slab at stride 1",
           "src/sparseaccel/cli.py",
           "            slab = a[fx:fx + s * (layer.ox - 1) + 1:s,\n"
           "                     fy:fy + s * (layer.oy - 1) + 1:s]",
           "            slab = a[fx:fx + layer.ox,\n"
           "                     fy:fy + layer.oy]",
           ("tests/test_cli.py::test_reference_output_matches_window_loop_on_seeded_layers",)),
    Mutant("reference-any-for-all", "a cnv2 group drops a position when any, not every, "
           "weight is ineffectual",
           "src/sparseaccel/cli.py",
           "weight_crit.ineffectual(w[glo:ghi]).all(axis=0)",
           "weight_crit.ineffectual(w[glo:ghi]).any(axis=0)",
           ("tests/test_cli.py::test_reference_output_per_tile_groups_in_a_ragged_last_pass",
            "tests/test_cli.py::test_reference_output_matches_window_loop_on_seeded_layers")),
    Mutant("reference-reuse-despite-groups", "the reference reuses an output although a "
           "cnv2 group drops a position",
           "src/sparseaccel/cli.py",
           "        products = (a is data.acts.values, groups is None)\n",
           "        products = (a is data.acts.values, True)\n",
           ("tests/test_cli.py::test_run_convolves_each_distinct_product_set_once",)),
    Mutant("reference-reuse-despite-masked-acts", "the reference reuses an output although "
           "the criterion drops a nonzero activation",
           "src/sparseaccel/cli.py",
           "        products = (a is data.acts.values, groups is None)\n",
           "        products = (True, groups is None)\n",
           ("tests/test_cli.py::test_run_convolves_each_distinct_product_set_once",)),
    Mutant("reference-groups-for-zero-weights", "a group that drops only all-zero weights "
           "still gets its own reference sweep",
           "src/sparseaccel/cli.py",
           "(w[glo:ghi].any(axis=0) & ~keep).any()",
           "(~keep).any()",
           ("tests/test_cli.py::test_run_convolves_each_distinct_product_set_once",)),
    Mutant("compare-fail-row-in-geomean", "compare counts a FAIL row's speedup and exits 0",
           "src/sparseaccel/cli.py",
           '            if row.get("verdict", "PASS") != "PASS":\n'
           '                failed.append(f"{path} {row[\'arch\']}")\n'
           "                continue\n",
           "",
           ("tests/test_cli.py::test_compare_keeps_fail_rows_out_of_the_geomean_and_exits_3",)),
    Mutant("compare-any-schema-version", "compare merges a report of any schema_version",
           "src/sparseaccel/cli.py",
           "        if type(version) is not int or version != SCHEMA_VERSION:\n",
           "        if False:\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-unknown-schema]",)),
    Mutant("config-overrides-flags", "a config value overrides an explicit flag",
           "src/sparseaccel/cli.py",
           "            args = parser.parse_args(argv)\n",
           "            args = parser.parse_args(argv)\n"
           "            config = _load_config(args.config)\n"
           "            vars(args).update({a.dest: a.default for a in args.parser._actions\n"
           "                               if a.dest in config})\n",
           ("tests/test_cli.py::test_config_supplies_defaults_and_flags_win",
            "tests/test_cli.py::test_config_choices_and_flags_reach_the_report")),
    Mutant("config-help-and-config-keys", "help = yes in a config file is taken and ignored",
           "src/sparseaccel/cli.py",
           '    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}\n',
           "    actions = {a.dest: a for a in parser._actions}\n",
           ("tests/test_cli.py::test_config_refuses_help_and_config_keys",)),
    Mutant("config-choices-unchecked", "a config value outside its flag's choices is taken",
           "src/sparseaccel/cli.py",
           "        if action.choices and config[dest] not in action.choices:\n"
           '            raise ValidationError(f"config {dest} = {raw!r} not one of '
           '{sorted(action.choices)}")\n',
           "",
           ("tests/test_cli.py::test_config_errors_exit_2_without_a_traceback",)),
    Mutant("gen-output-unchecked", "gen without an output path is a traceback, not exit 2",
           "src/sparseaccel/cli.py",
           "    if not args.out:\n"
           '        raise ValidationError("gen needs an output path: -o/--out, or out in the config")\n',
           "",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-gen-without-an-output]",
            "tests/test_cli.py::test_gen_takes_out_from_the_config_and_the_flag_wins")),
    Mutant("atomic-write-leaks-oserror", "a report into a missing directory is a traceback",
           "src/sparseaccel/cli.py",
           "    except OSError as exc:\n"
           '        raise ValidationError(f"cannot write {path}: {exc}") from None\n',
           "    except ValueError as exc:\n"
           '        raise ValidationError(f"cannot write {path}: {exc}") from None\n',
           ("tests/test_cli.py::test_reports_into_a_missing_directory_exit_2",)),
    Mutant("compare-accepts-any-rows", "compare merges rows that are not report rows",
           "src/sparseaccel/cli.py",
           "        if not isinstance(rows, list) or not all(map(_mergeable, rows)):\n",
           "        if not isinstance(rows, list):\n",
           ("tests/test_cli.py::test_compare_rejects_malformed_rows",)),
    Mutant("compare-accepts-non-finite", "compare merges NaN, an infinity or an int beyond "
           "the float range, and a huge int is a traceback",
           "src/sparseaccel/cli.py",
           " and math.isfinite(v)\n",
           "\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-huge-int-speedup]",
            "tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-nan-utilization]",
            "tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-minus-infinity-speedup]")),
    Mutant("compare-checks-only-speedup-and-utilization", "compare merges NaN, an infinity "
           "or an int beyond the float range in a count column",
           "src/sparseaccel/cli.py",
           "    if not all(row.get(c) is None or _finite(row[c]) for c in _NUMERIC_COLUMNS):\n",
           '    if not all(row.get(c) is None or _finite(row[c]) for c in ("speedup", "utilization")):\n',
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-nan-cycles]",
            "tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-infinity-macs_performed]",
            "tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-huge-int-broadcasts]")),
    Mutant("compare-accepts-non-positive-speedup", "compare takes a speedup of 0 or below, "
           "which the schema excludes, and its geomean is a traceback",
           "src/sparseaccel/cli.py",
           '    return row.get("speedup") is None or row["speedup"] > 0\n',
           "    return True\n",
           ("tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-zero-speedup]",
            "tests/test_refusals.py::test_each_refusal_raises_its_error_or_exits_2"
            "[cli-compare-negative-speedup]")),
)


# prints, for each test id, whether it is not one deterministic test
_CHANCE_CHECK = """
import importlib, sys
from hypothesis import is_hypothesis_test
sys.path.insert(0, "tests")
for spec in sys.argv[1:]:
    path, _, name = spec.partition("::")
    module = importlib.import_module(path.removeprefix("tests/").removesuffix(".py"))
    test = getattr(module, name.split("[")[0], None) if name else None
    print(test is None or is_hypothesis_test(test))
"""


def _env(work: Path) -> dict[str, str]:
    # no bytecode cache: a patch of the same size within the same second
    # would otherwise run from the stale .pyc of the previous text
    return dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")


def _chance_killers(work: Path, chosen) -> list[str]:
    """Mutants whose first listed killer is a hypothesis property, a whole
    file, or no test at all."""
    firsts = [m.tests[0] for m in chosen]
    proc = subprocess.run([sys.executable, "-c", _CHANCE_CHECK, *firsts], cwd=work,
                          env=_env(work), capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode:
        print(f"cannot inspect the killers: {proc.stderr.strip()[-400:]}")
        return [m.name for m in chosen]
    return [m.name for m, flag in zip(chosen, proc.stdout.split()) if flag == "True"]


def _pytest(work: Path, tests) -> tuple[int, str]:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=work, env=_env(work), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        stale = [m.name for m in chosen if (ROOT / m.file).read_text().count(m.old) != 1]
        if stale:
            print(f"stale mutants (old text not found exactly once): {', '.join(stale)}")
            return 2
        chance = _chance_killers(work, chosen)
        if chance:
            print("mutants whose first killer is not one deterministic test: "
                  f"{', '.join(chance)}")
            return 2
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        rc, last = _pytest(work, tests)
        if rc != 0:
            print(f"the unpatched tests fail ({last}); no mutant can be judged")
            return 2

        survivors, errors = [], []
        for m in chosen:
            path = work / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            rc, last = _pytest(work, m.tests)
            path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(rc, "ERROR")
            print(f"{verdict:8} {m.name:34} {time.perf_counter() - start:6.1f} s  {last}",
                  flush=True)
            if rc == 0:
                print(f"         unguarded: {m.why}")
                survivors.append(m.name)
            elif rc != 1:
                errors.append(m.name)

    print(f"{len(chosen)} mutants: {len(chosen) - len(survivors) - len(errors)} killed, "
          f"{len(survivors)} survived, {len(errors)} errors")
    return 1 if survivors else 2 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
