"""Tests of the benchmark itself, at smoke scale.

Run from the root of the checkout: ``python3 -m pytest perfbench/tests -q``.
Every workload runs once untraced and once traced through the same
command the benchmark uses; the correctness gates are shown to fail on
a wrong reference, so they cannot pass vacuously.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle, programs, workloads  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    ABSENT,
    Target,
    Tracer,
    layer_metrics,
    self_seconds,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def in_process_work():
    """Remove the scratch space that in-process workload runs leave."""
    yield
    shutil.rmtree(workloads.WORK, ignore_errors=True)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, seconds: str = "0.5"):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", seconds, "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    report, result = _run(workload, 0)
    _check_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["cpu_count"] and report["numpy"] and report["seed"] is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_per_layer_metric(workload):
    report, result = _run(workload, 1, seconds="1")
    _check_metrics(result, BENCHMARK["per_layer"])
    assert report["absent"] == []
    assert 0 < result["metrics"]["trace.leaf_coverage"]["value"] <= 1


def test_wrong_closure_digest_counts_as_failed(monkeypatch, in_process_work):
    monkeypatch.setattr(
        oracle,
        "closure_references",
        lambda seeds, scale: [{"digest": "0" * 64, "tuples": 0} for _ in seeds],
    )
    outcome = workloads.closure_ooc(11, 0.0, False, workloads.SMOKE)
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted


def test_wrong_oracle_edge_count_counts_as_failed(monkeypatch, in_process_work):
    real = oracle.serve_references

    def off_by_one(seed, scale, count):
        return [dict(r, tuples=r["tuples"] + 1) for r in real(seed, scale, count)]

    monkeypatch.setattr(oracle, "serve_references", off_by_one)
    outcome = workloads.serve(22, 0.5, False, workloads.SMOKE)
    assert outcome.failed >= programs.DELETE_EVERY


def test_missing_target_reads_absent():
    tracer = Tracer().install(
        [Target("repro.engine.superstep:_no_such_helper", "engine.merge")]
    )
    tracer.uninstall()
    metrics = layer_metrics([], tracer.absent_spans)
    assert tracer.absent == ["repro.engine.superstep:_no_such_helper"]
    assert metrics["engine.merge_s"] == ABSENT
    assert metrics["engine.join_s"] == 0.0


def test_spans_nest_only_within_their_own_thread():
    tracer = Tracer()

    def background():
        with tracer.span("io"):
            time.sleep(0.05)

    with tracer.span("compute"):
        worker = threading.Thread(target=background)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    parents = {name: parent for _sid, parent, name, *_ in tracer.spans}
    assert parents["io"] == 0
    # The other thread's span overlaps "compute" but is not its child.
    assert self_seconds(tracer.spans, "compute") >= 0.04


def test_wrapping_is_undone():
    import repro.engine.superstep as superstep

    original = superstep._dedup_pairs
    with Tracer():
        assert superstep._dedup_pairs is not original
    assert superstep._dedup_pairs is original


def test_peak_rss_excludes_the_check():
    import numpy as np

    def op():
        def verify():
            big = np.ones(32 * 2**20)  # 256 MiB, touched
            return bool(big[-1] == 1.0)

        return 0.0, verify

    workloads.reset_peak_rss()
    baseline = workloads.peak_rss_mb()
    outcome = workloads.Outcome()
    _elapsed, peak = workloads._run_op(op, outcome)
    assert outcome.attempted == 1 and outcome.failed == 0
    assert peak < baseline + 128
    assert workloads.peak_rss_mb() < baseline + 128


def test_discarding_a_setup_result_is_not_timed():
    discarded = []

    def discard(result):
        time.sleep(0.2)
        discarded.append(result)

    counter = iter(range(3))
    result, median = workloads.timed_setups(lambda: next(counter), 3, discard)
    assert result == 2 and discarded == [0, 1]
    assert median < 0.1


def test_join_yield_ignores_unary_fresh_edges():
    tracer = Tracer()
    with tracer.span("engine.superstep"):
        with tracer.span("engine.fresh") as counts:  # unary-derived, before any join
            counts["engine.fresh_edges"] = 50
        with tracer.span("engine.join") as counts:
            counts["engine.join_candidates"] = 10
        with tracer.span("engine.fresh") as counts:
            counts["engine.fresh_edges"] = 4
    assert layer_metrics(tracer.spans)["engine.join_yield"] == pytest.approx(0.4)
