"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the
repository root.  They cover self-time computation, the percentile
rule, how rates and ``wall_s`` are computed, wrapper installation and
removal, that every correctness check fails on a tampered input, that
the exact work counts repeat at one seed, and that ``BENCHMARK.json``
lists exactly the metrics reported.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import recorder  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from scotsim import minkowski, protocol  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # root 0..10 has children 1..4 and 3..6 (overlapping: union 1..6)
    # and 8..12 (clipped to 8..10); child 1..4 has its own child 2..3.
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
    ]
    assert recorder.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_summarise_groups_by_name_and_unit():
    spans = [
        ["unit.run", 0.0, 4.0, -1, 0],
        ["protocol.run_psr", 0.5, 3.5, 0, 0],
        ["quantum.measure", 1.0, 2.0, 1, 0],
        ["quantum.measure", 2.0, 3.0, 1, 0],
        ["unit.run", 5.0, 6.0, -1, 1],
        ["protocol.run_psr", 5.0, 6.0, 4, 1],
    ]
    stats = recorder.summarise(spans, [("bb84", "n64"), ("bb84", "n1")])
    big = stats[("protocol.run_psr", ("bb84", "n64"))]
    assert big["calls"] == 1 and big["self_s"] == pytest.approx(1.0)
    assert stats[("quantum.measure", ("bb84", "n64"))]["calls"] == 2
    assert stats[("protocol.run_psr", ("bb84", "n1"))]["self_s"] == pytest.approx(1.0)


def test_high_percentile_needs_ten_samples_beyond():
    assert recorder.high_percentile(list(range(19))) == (None, 0.0)
    pct, value = recorder.high_percentile([float(v) for v in range(20)])
    assert pct == 50.0 and value == pytest.approx(9.5)
    assert recorder.high_percentile([float(v) for v in range(1000)])[0] == 99.0


def test_tracing_wraps_every_alias_and_restores_them():
    orig = minkowski.causally_precedes
    assert protocol.causally_precedes is orig
    rec = recorder.Recorder()
    rec.start_trace()
    try:
        assert minkowski.causally_precedes is not orig
        assert protocol.causally_precedes is minkowski.causally_precedes
        with rec.unit("bb84", "n1"):
            e = minkowski.Event(0.0, (0.0,))
            protocol.placement_satisfied(
                protocol.standard_layout(2), protocol.Placement("past_q", 0), e
            )
    finally:
        rec.stop_trace()
    assert minkowski.causally_precedes is orig and protocol.causally_precedes is orig
    names = [s[0] for s in rec.spans]
    assert names[0] == "unit.bb84" and "minkowski.causally_precedes" in names
    assert all(s[4] == 0 for s in rec.spans)
    assert rec.groups == {}  # timings are kept only while tracing is off
    with rec.unit("bb84", "n1", "psr m=2 b=0"):
        pass
    group = rec.groups[("bb84", "n1", "psr m=2 b=0")]
    assert group.count == 1 and len(group.seconds) == 1


def test_rates_and_wall_count_every_unit_and_round():
    def group(seconds, count):
        g = recorder.Group()
        g.seconds, g.count = seconds, count
        return g

    groups = {
        ("a", "big", "x"): group([1.0, 1.0, 10.0], 3),  # one unit hit by a burst
        ("a", "big", "y"): group([2.0], 1),
        ("b", "big", ""): group([0.5, 0.5], 4),
        ("a", "little", ""): group([0.1], 1),
        ("b", "little", ""): group([0.2], 2),
    }
    workload = type("W", (), {
        "main": "a", "side": "b",
        "classes": {"a": {"large": "big", "small": "little"},
                    "b": {"large": "big", "small": "little"}},
        "named": {"a_per_s": [("a", "big"), ("a", "little")]},
    })
    out = metrics.end_to_end(workload, groups, [3.0, 9.0, 4.0, 4.0])
    assert out["wall_s"] == 5.0
    assert out["main_per_s.large"] == pytest.approx(4 / 14.0)
    assert out["side_per_s.large"] == pytest.approx(4 / 1.0)
    assert out["main_per_s.small"] == pytest.approx(10.0)
    assert out["side_per_s.small"] == pytest.approx(10.0)
    assert out["a_per_s"] == pytest.approx(5 / 14.1)


def _honest_run(mode="pcc"):
    config = protocol.scot_config(mode, 2, 4)
    rng = np.random.default_rng(3)
    return workloads.Honest._run(config, 1, rng)


def test_run_check_fails_on_moved_event():
    transcript, expected = _honest_run()
    assert workloads.run_problems(transcript, expected) == []
    # Deliver a message at the receiver's first vertex, before it was sent.
    k = next(i for i, msg in enumerate(transcript.messages) if msg.emit.t > 0)
    msg = transcript.messages[k]
    early = transcript.layout.layout.worldline(msg.receiver)[0]
    transcript.messages[k] = dataclasses.replace(msg, deliver=early)
    assert workloads.run_problems(transcript, expected)


def test_run_check_fails_on_wrong_output():
    transcript, expected = _honest_run("pqc")
    assert workloads.run_problems(transcript, 1 - expected)


def test_audit_check_fails_on_return_traffic():
    transcript, _ = _honest_run("psr")
    assert workloads.audit_problems(protocol.obliviousness_audit([transcript])) == []
    back = transcript.messages[0]
    transcript.messages.append(dataclasses.replace(back, sender="B", receiver="A"))
    assert workloads.audit_problems(protocol.obliviousness_audit([transcript]))


def test_audit_check_fails_on_rigged_shift():
    config = protocol.scot_config("pcc", 2, 1)
    x = np.zeros((2, 1), dtype=np.int64)
    rng = np.random.default_rng(5)
    rigged = [protocol.run_pcc(config, x, 0, rng, c=0) for _ in range(200)]
    assert workloads.audit_problems(protocol.obliviousness_audit(rigged))


def test_bound_check_fails_above_the_bound():
    assert workloads.bound_problems([0.5, 0.8 + 5e-10], [0.6, 0.8]) == []
    assert workloads.bound_problems([0.5, 0.8 + 2e-9], [0.6, 0.8])


def test_verify_check_fails_on_fail_line_or_exit_code():
    assert workloads.verify_problems(0, "PASS  a\nPASS  b  (x)\n") == []
    assert workloads.verify_problems(0, "PASS  a\nFAIL  b\n")
    assert workloads.verify_problems(1, "PASS  a\n")
    assert workloads.verify_problems(0, "")


def test_bounds_check_fails_on_caps_that_do_not_fall():
    rc, text = workloads.call_cli(["bounds"])
    assert workloads.bounds_problems(rc, text) == []
    lines = text.splitlines()
    assert workloads.bounds_problems(rc, "\n".join([lines[0], lines[2], lines[1]]))
    assert workloads.bounds_problems(2, text)


def test_exact_counts_repeat_at_one_seed():
    def traced_counts():
        rec = recorder.Recorder()
        checks = workloads.Checks()
        workload = workloads.Honest(7, rec, checks, str(HERE))
        workload.runs = {"n1": 6, "n64": 6}
        workload.cli_runs = 0
        rec.start_trace()
        try:
            workload.round(0)
        finally:
            rec.stop_trace()
        assert checks.failed == 0
        stats = metrics.LayerStats()
        stats.add_round(recorder.summarise(rec.spans, rec.unit_keys), rec.counters)
        values, _ = metrics.layer_metrics(stats, {})
        return {n: values[n][0] for n in metrics.EXACT_COUNTS}

    first = traced_counts()
    assert first == traced_counts()
    assert first["protocol.binds_per_run.psr"] == 20
    assert first["quantum.measure.per_run.n64"] == 64


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(row) for row in metrics.per_layer_names()
    ]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert len(doc["per_layer"]) <= 128
