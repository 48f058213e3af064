"""Tests of the benchmark itself: tiny inputs through every check, and each
check rejecting a deliberately wrong output.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import racklab  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from racklab import codec  # noqa: E402
from spans import Tracer  # noqa: E402


def with_entry_changed(table, x=0, y=1):
    rows = [list(row) for row in table]
    rows[x][y] = (rows[x][y] + 1) % len(rows)
    return tuple(tuple(row) for row in rows)


def small_tables():
    sigma2 = inputs.cycles_permutation(8, 2, 4)
    sigma4 = inputs.cycles_permutation(16, 4, 2)
    return [
        ("dihedral_8", inputs.dihedral_table(8), False),
        ("alexander_z8_3x", inputs.alexander_table(8, 3), False),
        ("conj_sym3", inputs.conjugation_table(*inputs.symmetric_group(3)), False),
        ("conj_dih8", inputs.conjugation_table(*inputs.dihedral_group(4)), False),
        ("all_2_cycles_8", inputs.permutation_table(sigma2), True),
        ("two_4_cycles_16", inputs.permutation_table(sigma4), False),
    ]


def test_generated_tables_are_racks_and_match_the_program_families():
    for _, table, _ in small_tables():
        assert checks.is_rack(table)
        assert checks.is_rack(inputs.relabeled([("t", table)], seed=3)[0][1])
        assert not checks.is_rack(with_entry_changed(table))
    assert inputs.dihedral_table(8) == racklab.dihedral_quandle(8).table
    assert sorted(inputs.codec_inputs("codec-greedy", 1)) != sorted(
        inputs.codec_inputs("codec-greedy", 2))
    assert inputs.codec_inputs("codec-lehmer", 5) == inputs.codec_inputs("codec-lehmer", 5)


@pytest.mark.parametrize("params", [None, (1, 1), (2, 2), (3, 1)])
def test_stream_check_accepts_the_program_and_rejects_changes(params):
    for name, table, extremal in small_tables():
        rack = racklab.rack_from_table(table)
        p = codec.CodecParams.default(rack.n) if params is None else codec.CodecParams(*params)
        data, stats = codec.encode_with_stats(rack, p)
        checks.check_stream(table, data, p.delta, p.cap_l, stats, extremal)
        flipped = bytearray(data)
        flipped[10] ^= 0x80
        with pytest.raises(CheckFailed):
            checks.check_stream(table, bytes(flipped), p.delta, p.cap_l, stats, extremal)
        with pytest.raises(CheckFailed):
            checks.check_stream(table, data, p.delta, p.cap_l,
                                dataclasses.replace(stats, header_bits=stats.header_bits + 8),
                                extremal)
        with pytest.raises(CheckFailed):
            checks.check_stream(table, data, p.delta, p.cap_l, stats, not extremal)
        with pytest.raises(CheckFailed):
            checks.check_stream(table, data[:4] + b"\x00\x09" + data[6:], p.delta, p.cap_l,
                                stats, extremal)


def test_conformance_vector_and_own_encoder_agree():
    rack = racklab.rack_from_table(checks.CONFORMANCE_TABLE)
    assert codec.encode(rack) == checks.CONFORMANCE_BYTES
    t_order = checks.read_t_order(checks.CONFORMANCE_BYTES, 3)
    assert checks.expected_encoding(checks.CONFORMANCE_TABLE, 4, 2, t_order)[0] == \
        checks.CONFORMANCE_BYTES


def test_codec_round_checks_reject_wrong_outputs():
    table = inputs.dihedral_table(8)
    counts = dict.fromkeys(("stream_bytes", "header_bits", "residual_bits", "bitmap_bits"), 0)
    check_op, encode_op, decode_op = workloads._codec_ops(
        racklab.core, codec, "dihedral_8", table, codec.CodecParams(2, 2), False, counts)
    for _ in range(2):
        for op in (check_op, encode_op, decode_op):
            op.check(op.run())
    # out-degrees are all 3 > delta, so field 7 is empty and field 4 spends n * n bits
    assert counts["stream_bytes"] > 10 and counts["bitmap_bits"] == 8 * 8
    with pytest.raises(CheckFailed):
        decode_op.check(racklab.trivial_rack(8))
    data, stats = encode_op.run()
    with pytest.raises(CheckFailed):
        encode_op.check((data + b"\x00", stats))
    with pytest.raises(CheckFailed):
        check_op.check(racklab.axiom_report(with_entry_changed(table)))


def test_enumeration_checks():
    report = racklab.enumerate_classes(3)
    expected = checks.labeled_count_from_classes(report.witnesses)
    checks.check_class_report(3, report, expected)
    stream = [r.maps for r in racklab.enumerate_labeled(3)]
    assert checks.check_labeled_stream(3, stream) == report.labeled_count
    with pytest.raises(CheckFailed):
        checks.check_class_report(3, dataclasses.replace(report, class_count=5), expected)
    with pytest.raises(CheckFailed):
        checks.check_class_report(3, report, expected + 1)
    with pytest.raises(CheckFailed):
        checks.check_labeled_stream(3, stream[::-1])
    bad = ((0, 1, 2), (1, 0, 2), (0, 1, 2))      # f_((0)f_1) = f_1, not f_1^-1 f_0 f_1 = id
    with pytest.raises(CheckFailed):
        checks.check_labeled_stream(3, [bad])
    witnesses = list(report.witnesses)
    witnesses[-1] = with_entry_changed(witnesses[-1], 2, 2)
    with pytest.raises(CheckFailed):
        checks.labeled_count_from_classes(witnesses)
    with pytest.raises(CheckFailed):
        checks.labeled_count_from_classes(report.witnesses[::-1])


def test_analysis_checks():
    sweep = racklab.zeta_bound_sweep(4)
    checks.check_zeta_sweep(sweep, 4)
    wrong = dict(sweep, statistic=dict(sweep["statistic"], max_zeta=4.5))
    with pytest.raises(CheckFailed):
        checks.check_zeta_sweep(wrong, 4)

    n, p, eps, trials = 100, 0.3, 0.2, 40_000
    report = racklab.chernoff_check(n, p, eps, trials, seed=7)
    checks.check_chernoff(report, n, p, eps, trials)
    exact = checks.binomial_tail(n, p, lambda k: k >= (1 + eps) * n * p)
    shifted = exact + 5 * (exact * (1 - exact) / trials) ** 0.5
    wrong = dict(report, statistic=dict(report["statistic"], upper_tail=shifted))
    with pytest.raises(CheckFailed):
        checks.check_chernoff(wrong, n, p, eps, trials)

    rack = racklab.dihedral_quandle(16)
    report = racklab.random_subset_check(rack, 0.5, 0.3, 20_000, seed=3)
    checks.check_random_subset(report, 16, 0.5, 0.3, 20_000)
    wrong = dict(report, statistic=dict(report["statistic"], size_tail=0.5))
    with pytest.raises(CheckFailed):
        checks.check_random_subset(wrong, 16, 0.5, 0.3, 20_000)

    s3 = racklab.conjugation_quandle(racklab.symmetric_group_table(3))
    result = racklab.find_W(s3, delta=1, p=0.8, bad_threshold=1, seed=42)
    checks.check_find_w(result, 6)
    with pytest.raises(CheckFailed):
        checks.check_find_w(dataclasses.replace(result, certified=False), 6)


def test_tracer_times_internal_calls_and_restores_them():
    original = racklab.core.rack_from_table
    rack = racklab.dihedral_quandle(8)
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("op"):
            racklab.codec.decode(codec.encode(rack, codec.CodecParams(2, 2)))
    assert racklab.core.rack_from_table is original
    assert racklab.codec.rack_from_table is original
    assert tracer.calls["core.rack_from_table"] == 1
    assert tracer.calls["core.axiom_report"] == 2
    assert tracer.calls["graph.greedy_merge_order"] == 1
    assert tracer.calls["bits.write"] > 0 and tracer.calls["bits.read"] > 0
    ids = {span[0]: span for span in tracer.spans}
    root = next(span for span in tracer.spans if span[2] == "op")
    assert root[1] == 0
    assert all(span[1] in ids for span in tracer.spans if span is not root)
    assert tracer.inclusive["op"] >= tracer.inclusive["codec.decode"]


def test_benchmark_json_lists_exactly_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(workload="enumerate", seed=0, seconds=0.0, trace=1)
    result = {"times": {}, "norm": {}, "calib": [], "round_norms": [], "attempted": 0, "failed": 0, "layers": [], "rounds": 0,
              "measured_s": 0.0}
    report = run.summarise(args, workloads.Workload([], None), result, 0.1)
    for section in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"]) for m in doc[section]] == \
            [(name, m["unit"]) for name, m in report[section].items()]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
