"""The benchmark's own tests: tiny runs of every workload, the oracle, and the tracer."""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, oracle, run, workloads
from perfbench.tracing import LAYER_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Sizes for a seconds-long episode of each workload.
TINY = workloads.Sizes(
    bob_rows=400,
    bob_cycles=2,
    durable_preload_rows=300,
    durable_append_rows=40,
    durable_rounds=3,
    durable_drains_per_round=2,
    durable_restores=2,
    durable_adaptive_bytes=4_000,
)

#: The descriptive metrics each workload prints beside the gated ones.
REPORTED = {
    "bob_read": {"queries_per_s", "query_p50_ms", "query_p99_ms"},
    "mixed_durable": {
        "upload_rows_per_s", "upload_p50_ms", "queries_per_s", "batch_p50_ms", "batch_p90_ms",
        "checkpoint_s", "restore_s", "journal_bytes_per_input_byte",
    },
}


def tiny_run(workload: str, trace: int, seed: int = 3) -> dict:
    """One episode (``--seconds 0``) of ``workload`` at test sizes."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    return run.run(args, sizes=TINY)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_the_oracle_and_emits_every_end_to_end_metric(workload):
    result = tiny_run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


def test_benchmark_json_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_an_operation_that_always_raises_still_gives_a_result(monkeypatch):
    from repro import Session

    def broken(self, *args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(Session, "run", broken)
    result = tiny_run("bob_read", trace=0)
    queries = TINY.bob_cycles * 5
    assert not result["correct"] and result["failed"] == queries
    assert result["attempted"] == queries + 1  # and the set-up upload
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_report_names_every_metric_of_the_workload(workload, tmp_path):
    rec = measure.Recorder()
    workloads.WORKLOADS[workload](3, 0.0, TINY, rec, tmp_path)
    names = {name for name, *_ in measure.workload_report(workload, rec)}
    assert REPORTED[workload] | {"setup_s", "peak_rss_mb", "error_rate"} <= names


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_answers_like_the_untraced_run(workload):
    result = tiny_run(workload, trace=1)
    # The run itself fails a traced pass whose answers differ from the untraced pass.
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in LAYER_NAMES:
        assert f"{name}.calls" in result["metrics"] and f"{name}.self_ms" in result["metrics"]


def test_traced_and_untraced_passes_return_identical_answers(tmp_path):
    plain, traced = measure.Recorder(), measure.Recorder(Tracer())
    workloads.run_mixed_durable(5, 0.0, TINY, plain, tmp_path)
    traced.tracer.install()
    try:
        workloads.run_mixed_durable(5, 0.0, TINY, traced, tmp_path)
    finally:
        traced.tracer.uninstall()
    assert plain.answer_hashes and plain.answer_hashes == traced.answer_hashes
    assert traced.tracer.spans > 0


def test_self_time_never_exceeds_the_span(tmp_path):
    rec = measure.Recorder(Tracer())
    rec.tracer.install()
    try:
        workloads.run_bob_read(4, 0.0, TINY, rec, tmp_path)
    finally:
        rec.tracer.uninstall()
    tracer = rec.tracer
    assert sum(tracer.calls) > 0
    for name, inclusive, own in zip(tracer.names, tracer.inclusive, tracer.own):
        assert -1e-9 <= own <= inclusive + 1e-9, name
    start, end = tracer.start, tracer.end
    for index, parent in enumerate(tracer.parent):
        if parent >= 0:
            assert start[parent] <= start[index] <= end[index] <= end[parent]


def test_tracer_returns_results_unchanged_and_uninstall_restores_originals():
    from repro.layouts.pax import PaxBlock

    original = vars(PaxBlock)["from_bytes"]
    tracer = Tracer()
    tracer.install()
    try:
        assert vars(PaxBlock)["from_bytes"] is not original
    finally:
        tracer.uninstall()
    assert vars(PaxBlock)["from_bytes"] is original
    double = tracer.wrap("test.double", lambda x: 2 * x)
    with tracer.root("op.test"):
        assert double(21) == 42
    assert tracer.totals()["test.double"][0] == 1


def test_simulated_seconds_repeat_exactly_for_a_seed():
    first, second = (tiny_run("bob_read", trace=1, seed=9) for _ in range(2))
    for name in ("cluster.sim_query_s", "mapreduce.map_tasks", "engine.rows_examined_per_result"):
        assert first["metrics"][name] == second["metrics"][name]


def test_a_wrong_answer_counts_as_a_failed_operation():
    rec = measure.Recorder()
    rows = [(1, "a"), (2, "b"), (3, "c")]
    expected = oracle.answer(rows, ("k", "v"), (("k", ">=", 2),), ("v",))
    assert expected == [("b",), ("c",)]
    rec.check([("c",), ("b",)], expected, "reordered but equal")
    assert rec.failed == 0
    rec.check([("b",)], expected, "missing a record")
    assert rec.failed == 1


def test_the_command_fails_without_the_program_beside_it(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, *SPEC["command"][1:], "--workload", "bob_read", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
