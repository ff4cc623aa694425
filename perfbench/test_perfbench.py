"""Tests of the benchmark's own logic (no simulator runs).

Run with: python -m pytest perfbench/test_perfbench.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_names_are_unique(workload):
    names = [op["name"] for op in workloads.generate(workload, 3)]
    assert len(names) == len(set(names))


def test_regen_workloads_keep_paper_sizes():
    for workload in ("regen-net", "regen-coherence", "regen-barrier"):
        for op in workloads.generate(workload, 1):
            params = op["plan"]["params"]
            for fixed in ("num_ports", "n_values", "scale", "num_cpus"):
                assert fixed not in params, (op["name"], fixed)


def test_served_duplicates_follow_their_originals():
    ops = workloads.generate("serve-mixed", 11)
    position = {op["name"]: index for index, op in enumerate(ops)}
    duplicates = [op for op in ops if op["dup_of"]]
    assert len(duplicates) * 3 == len(ops)
    for op in duplicates:
        original = ops[position[op["dup_of"]]]
        assert position[op["dup_of"]] < position[op["name"]]
        assert op["plan"] == original["plan"]
    fault_plans = {op["plan"].get("fault_plan") for op in ops}
    assert {"chaos", "stragglers", "hot-module", "lossy-net"} <= fault_plans


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.generate("regen-everything", 0)


def _span(name, start, end, parent):
    return [name, start, end, parent, 1]


def test_self_time_subtracts_children():
    log = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("b", 40, 90, 0),
        _span("c", 50, 60, 2),
    ]
    assert spans.self_times(log) == [30, 20, 40, 10]
    totals = spans.layer_totals(log)
    assert totals == {"root": 30e-9, "a": 20e-9, "b": 40e-9, "c": 10e-9}
    assert sum(spans.self_times(log)) == 100


def test_self_time_counts_overlapping_children_once():
    # Children from two threads may overlap; the covered union counts.
    log = [
        _span("root", 0, 100, -1),
        _span("a", 10, 50, 0),
        _span("b", 30, 70, 0),
        _span("c", 90, 130, 0),
    ]
    assert spans.self_times(log)[0] == 100 - (60 + 10)


def test_wrapper_nests_and_collapses_same_layer():
    recorder = spans.SpanRecorder()

    def inner(x):
        return [x] * 3

    wrapped_inner = recorder.wrap(
        "layer", inner, lambda rec, args, result: rec.count("n", len(result))
    )
    outer = recorder.wrap("layer", lambda x: wrapped_inner(x))
    top = recorder.wrap("top", lambda x: outer(x) + wrapped_inner(x))
    assert top(1) == [1] * 6
    names = [span[0] for span in recorder.spans]
    # outer's inner call is the same layer and is not opened again.
    assert names == ["top", "layer", "layer"]
    assert recorder.counts["layer.calls"] == 2
    assert recorder.counts["n"] == 3
    assert all(span[2] >= span[1] for span in recorder.spans)


def _runs(*digests, dup=False):
    runs = []
    for digest in digests:
        ops = [{"name": "a", "ok": True, "digest": digest, "dup_of": None}]
        if dup:
            ops.append({"name": "a-dup", "ok": True, "digest": "x", "dup_of": "a"})
        runs.append({"ops": ops})
    return runs


def test_consistent_digests_pass():
    check = run.check_digests(_runs("x", "x"), {"a": "x"})
    assert (check["attempted"], check["failed"]) == (2, 0)
    assert check["digests"] == {"a": "x"}


def test_forced_pin_mismatch_raises_fail_rate():
    check = run.check_digests(_runs("x", "x"), {"a": "y"})
    assert check["failed"] == 2
    assert check["failed"] / check["attempted"] == 1.0


def test_pass_to_pass_mismatch_fails():
    check = run.check_digests(_runs("x", "z", "x"), None)
    assert (check["attempted"], check["failed"]) == (3, 1)


def test_duplicate_must_match_original():
    check = run.check_digests(_runs("x", dup=True), None)
    assert check["failed"] == 0
    runs = _runs("y", dup=True)
    check = run.check_digests(runs, None)
    assert check["failed"] == 1
    assert "duplicate" in check["errors"][0]


def test_failed_outcome_counts():
    runs = [{"ops": [{"name": "a", "ok": False, "error": "boom", "dup_of": None}]}]
    assert run.check_digests(runs, None)["failed"] == 1


def test_percentile_needs_tail_samples():
    assert run.percentile(list(range(50)), 0.9) is None
    assert run.percentile(list(range(100)), 0.9) == 89
    assert run.percentile(list(range(99)), 0.9) is None
