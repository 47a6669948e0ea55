"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from harness import OpResult  # noqa: E402

L5 = workloads.compute_args(5, 15)
L7 = workloads.compute_args(7, 15)
ORACLE_L5 = workloads.compute_args(5, 15, skip_oracle=False, parallelism=1)


def reference(args):
    text = harness.load_reference(args)
    assert text is not None, "reference missing for {}".format(args)
    return text


def references():
    return {workloads.reference_name(op.args): reference(op.args)
            for op in workloads.all_ops()}


def result(args, stdout, wall=1.0, rc=0):
    return OpResult(args, rc, wall, 20000, stdout)


# ---------------------------------------------------------------- tail rule

@pytest.mark.parametrize("n, expected", [
    (20, (50, True)), (41, (75, True)), (100, (90, True)), (1000, (99, True)),
    (19, (50, False)), (7, (50, False)), (1, (50, False)),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_that_qualifies():
    for n in range(20, 400):
        p, met = measure.tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > measure.percentile(values, p) for v in values)
        assert met and beyond >= 10
        if p < 99:
            above = measure.percentile(values, p + 1)
            assert sum(v > above for v in values) < 10


def test_pass_metrics_apply_the_tail_rule():
    ops = [result(L5, reference(L5), wall=float(i)) for i in range(1, 42)]
    metrics = measure.pass_end_to_end(ops)
    assert metrics["op_s.tail"] == 31.0  # P75 of 41: ten samples beyond
    few = [result(L5, reference(L5), wall=float(i)) for i in (1, 2, 3, 40)]
    assert measure.pass_end_to_end(few)["op_s.tail"] == 2.5  # under 20: the median


# ---------------------------------------------------------------- machine speed

def test_calibration_takes_its_share_of_op_time():
    cal = harness.Calibration(share=0.15, task=lambda: 0.01)
    cal.after_op(0.1)  # 0.015 s due: two samples
    assert len(cal.samples) == 2
    cal.after_op(0.1)  # 0.03 s due by now: one more
    assert len(cal.samples) == 3
    cal.after_op(0.001)  # 0.0302 s due, 0.03 s spent: one more
    assert len(cal.samples) == 4
    assert cal.median() == 0.01


def test_calibration_task_runs_without_reglab():
    assert "reglab" not in harness.CALIBRATION_CODE
    assert 0 < harness.calibration_task() < 60


def test_times_are_scaled_to_the_reference_speed_and_nothing_else():
    metrics = {"pass_s": 10.0, "peak_rss_mb": 24.0, "ok_ratio": 1.0}
    units = {"pass_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
    # a run whose calibration took twice the reference time ran on a
    # machine half as fast: its times read half as long
    slow = measure.at_reference_speed(metrics, units, 2 * measure.REFERENCE_CALIBRATION_S)
    assert slow == {"pass_s": 5.0, "peak_rss_mb": 24.0, "ok_ratio": 1.0}
    same = measure.at_reference_speed(metrics, units, measure.REFERENCE_CALIBRATION_S)
    assert same == metrics
    failed = measure.at_reference_speed({"pass_s": math.inf}, units, 0.1)
    assert failed["pass_s"] == math.inf


# ---------------------------------------------------------------- spans

def span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "op": 0, "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),   # overlaps a: covered 1..6
        span(3, "c", 2.0, 3.0, parent=1),
        span(4, "d", 8.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    selfs = measure.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_inclusive_time_counts_nested_spans_once():
    spans = [
        span(0, "f", 0.0, 5.0),
        span(1, "f", 1.0, 2.0, parent=0),
        span(2, "g", 2.0, 4.0, parent=0),
        span(3, "f", 6.0, 7.0),
    ]
    assert measure.inclusive_time(spans, ["f"]) == pytest.approx(6.0)
    assert measure.inclusive_time(spans, ["f", "g"]) == pytest.approx(6.0)
    assert measure.inclusive_time(spans, ["g"]) == pytest.approx(2.0)


def test_traced_runner_records_nested_spans(tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    cmd = [sys.executable, str(harness.TRACED_OP), str(spans_file), "0", "--",
           "fibers", "--l", "5"]
    r = harness.run_process(cmd, tmp_path, 60.0)
    assert r.rc == 0
    assert r.stdout == reference(("fibers", "--l", "5"))
    spans = measure.load_spans(spans_file)
    by_id = {s["id"]: s for s in spans}
    nested = [s for s in spans if s["name"] == "weierstrass.fiber_list"
              and s["parent"] is not None
              and by_id[s["parent"]]["name"] == "weierstrass.euler_epsilon"]
    assert nested, "euler_epsilon's call to fiber_list was not traced"
    outer = by_id[nested[0]["parent"]]
    selfs = measure.self_times(spans)
    assert selfs[outer["id"]] < outer["end"] - outer["start"]


# ---------------------------------------------------------------- reference check

def test_reference_check_accepts_the_recorded_output():
    assert measure.check_output(L5, reference(L5), reference(L5)) is None
    got = json.loads(reference(ORACLE_L5))
    got["oracle_check"] = {"max_rel_diff": "3.0e-9"}  # oracle_check is not compared
    assert measure.check_output(ORACLE_L5, json.dumps(got), reference(ORACLE_L5)) is None


def test_reference_check_flags_a_corrupted_payload():
    payload = json.loads(reference(L5))
    value = payload["I"][2]
    payload["I"][2] = value[:-1] + ("1" if value[-1] != "1" else "2")
    assert "'I'" in measure.check_output(L5, json.dumps(payload), reference(L5))
    payload = json.loads(reference(L5))
    del payload["N_used"]
    assert measure.check_output(L5, json.dumps(payload), reference(L5)) is not None
    assert measure.check_output(L5, "not json", reference(L5)) is not None
    text = reference(("fibers", "--l", "5"))
    assert measure.check_output(("fibers", "--l", "5"), text + " ", text) is not None


def test_reference_check_enforces_the_oracle_gate():
    payload = json.loads(reference(ORACLE_L5))
    payload["oracle_check"] = {"max_rel_diff": "2.0e-6"}
    assert "gate" in measure.check_output(ORACLE_L5, json.dumps(payload),
                                          reference(ORACLE_L5))
    payload["oracle_check"] = None
    assert measure.check_output(ORACLE_L5, json.dumps(payload),
                                reference(ORACLE_L5)) is not None
    skipped = json.loads(reference(L5))
    skipped["oracle_check"] = {"max_rel_diff": "1e-10"}
    assert measure.check_output(L5, json.dumps(skipped), reference(L5)) is not None


def test_judge_flags_a_wrong_cache_hit():
    miss = result(L5, reference(L5))
    # A hit answering another question: the l = 7 payload for an l = 5 request.
    wrong = result(L5, reference(L7))
    # A hit that parses to the same payload but is not the bytes the miss printed.
    reformatted = result(L5, json.dumps(json.loads(reference(L5)), indent=1))
    good = result(L5, reference(L5))
    harness.judge([miss, wrong, reformatted, good], references())
    assert miss.ok and good.ok
    assert not wrong.ok and not reformatted.ok
    assert "cache hit" in reformatted.error


# ---------------------------------------------------------------- failures

def test_crashing_op_counts_as_failed_not_fast(tmp_path):
    crashed = []
    for _ in range(2):
        r = harness.run_process(
            [sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path, 60.0)
        assert r.rc == 3
        r.args = L5
        crashed.append(r)
    ops = [result(L5, reference(L5), wall=2.0)] + crashed
    harness.judge(ops, references())
    assert all(not r.ok and r.error == "exit code 3" for r in crashed)
    assert crashed[0].latency == math.inf
    metrics = measure.pass_end_to_end(ops)
    assert metrics["ok_ratio"] == pytest.approx(1 / 3)
    # the crashes rank as the slowest ops, not the fastest
    assert measure.median([r.latency for r in ops]) == math.inf
    assert metrics["op_s.tail"] == math.inf


def test_op_past_its_deadline_is_killed_and_fails(tmp_path):
    r = harness.run_process(
        [sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.5)
    assert r.error is not None and r.error.startswith("killed")
    assert r.wall_s < 10


# ---------------------------------------------------------------- workloads

def test_op_lists_are_seeded_and_keep_their_multiset():
    for name in workloads.WORKLOADS:
        a = workloads.op_list(name, 1)
        assert a == workloads.op_list(name, 1)
        assert Counter(a) == Counter(workloads.op_list(name, 2))


def test_every_op_has_a_reference():
    for op in workloads.all_ops():
        reference(op.args)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", measure.END_TO_END), ("per_layer", measure.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
