"""Taint/injection + async-misuse detectors — BL vs GR on all workloads.

Shape contract: the grammar-driven augmented detectors reach >= 0.9
precision and recall on every workload, suppress every sanitizer/spawn
decoy, and consume the taint closure already computed for the checker
bundle — zero extra engine runs and zero extra supersteps.  The taint
grammar closure itself is byte-identical across the serial and matmul
join backends.  Machine-readable numbers land in
``results/BENCH_taint.json``.
"""

import json

import numpy as np

from repro.bench import render_table, rows_from_dicts, save_and_print, taint_rows
from repro.engine import GraspanEngine
from repro.engine.matmul import scipy_available
from repro.frontend import taint_graph
from repro.grammar import taint_grammar
from benchmarks.conftest import results_path


def closure_arrays(graph, backend):
    comp = GraspanEngine(taint_grammar(), parallel_backend=backend).run(graph)
    mem = comp.to_memgraph()
    return np.asarray(mem.src).copy(), np.asarray(mem.keys).copy()


def test_taint_detector(benchmark, all_workloads):
    rows = benchmark.pedantic(
        taint_rows, args=(all_workloads,), rounds=1, iterations=1
    )

    for row in rows:
        assert row["injected"] > 0, row
        assert row["gr_precision"] >= 0.9, row
        assert row["gr_recall"] >= 0.9, row
        assert row["decoy_fp"] == 0, row
        assert row["extra_closure_runs"] == 0, row
        assert row["extra_closure_supersteps"] == 0, row

    # Baseline blind spots: the name-keyed taint scan misses the
    # interprocedural/heap flows and falls for the sanitizer decoys; the
    # direct-sleep async scan misses the wrapped blocking call.
    taint = [r for r in rows if r["checker"] == "Taint"]
    assert any(r["bl_recall"] < 1.0 for r in taint), taint
    assert any(r["bl_fp"] > 0 for r in taint), taint
    async_ = [r for r in rows if r["checker"] == "Async"]
    assert any(r["bl_recall"] < 1.0 for r in async_), async_

    # Backend equivalence: the taint closure must not depend on the join
    # data plane (same contract as the matmul backend, DESIGN.md §11).
    cw = next(c for c in all_workloads if c.name == "httpd")
    ctx = cw.analyses()
    graph = taint_graph(cw.pg, alias_pairs=ctx.pointsto.deref_alias_pairs())
    base_src, base_keys = closure_arrays(graph, "serial")
    checked = ["serial"]
    if scipy_available():
        src, keys = closure_arrays(graph, "matmul")
        assert np.array_equal(base_src, src)
        assert np.array_equal(base_keys, keys)
        checked.append("matmul")

    columns = [
        "program",
        "checker",
        "injected",
        "bl_precision",
        "bl_recall",
        "gr_precision",
        "gr_recall",
        "bl_fp",
        "gr_fp",
        "decoy_fp",
        "tainted_vertices",
        "flows",
    ]
    text = render_table(
        "Taint + Async checkers: baseline (BL) vs Graspan grammar (GR)",
        [
            "program",
            "checker",
            "injected",
            "BL prec",
            "BL rec",
            "GR prec",
            "GR rec",
            "BL FP",
            "GR FP",
            "decoy FP",
            "tainted",
            "flows",
        ],
        rows_from_dicts(rows, columns),
        note="both checkers reuse the four closures already in hand "
        "(0 extra engine runs, 0 extra supersteps); closure "
        f"byte-identical across backends: {', '.join(checked)}",
    )
    save_and_print(text, results_path("taint_detector.txt"))

    with open(results_path("BENCH_taint.json"), "w") as fh:
        json.dump(
            {
                "rows": rows,
                "backends_byte_identical": checked,
                "closure_edges": int(base_keys.size),
            },
            fh,
            indent=2,
        )
        fh.write("\n")
