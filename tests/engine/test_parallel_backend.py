"""Tests for the join-backend seam: backend selection, identity, telemetry.

The contract: the edge-pair kernel must not change the result — every
backend produces the same closure, bit for bit, because duplicate
elimination happens downstream during the sorted merge.  Per-superstep
equivalence of the ``matmul`` kernel is checked in
``test_matmul_backend.py``.
"""

import pytest

from repro.engine import GraspanEngine
from repro.engine.matmul import scipy_available
from repro.engine.parallel import BACKENDS, SerialJoinBackend, make_backend
from repro.frontend import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.workloads import httpd_like


@pytest.fixture(scope="module")
def httpd_pointer():
    """The httpd-like pointer graph + grammar, compiled once."""
    workload = httpd_like(scale=0.5)
    return pointer_graph(workload.compile()), pointsto_grammar_extended()


def run_counts(graph, grammar, backend, workdir=None, max_edges=None):
    engine = GraspanEngine(
        grammar,
        max_edges_per_partition=max_edges,
        workdir=workdir,
        parallel_backend=backend,
    )
    comp = engine.run(graph)
    return comp.count_by_label(), comp.stats


class TestBackendIdentity:
    def test_in_memory_identical(self, httpd_pointer):
        graph, grammar = httpd_pointer
        results = {}
        for backend in BACKENDS:
            counts, stats = run_counts(graph, grammar, backend)
            results[backend] = counts
            # A scipy-less matmul request runs as "serial(matmul-fallback)".
            assert backend in stats.supersteps[-1].backend
        assert results["serial"] == results["matmul"]
        assert sum(results["serial"].values()) > graph.num_edges

    def test_disk_backed_identical(self, httpd_pointer, tmp_path):
        graph, grammar = httpd_pointer
        max_edges = max(1000, graph.num_edges // 4)
        results = {}
        for backend in BACKENDS:
            counts, _ = run_counts(
                graph,
                grammar,
                backend,
                workdir=tmp_path / backend,
                max_edges=max_edges,
            )
            results[backend] = counts
        assert results["serial"] == results["matmul"]

    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    def test_telemetry_recorded(self, httpd_pointer):
        graph, grammar = httpd_pointer
        _, stats = run_counts(graph, grammar, "matmul")
        mm = stats.matmul_summary()
        assert mm["products"] > 0
        assert mm["blocks_built"] > 0
        assert mm["product_nnz"] > 0
        assert stats.summary()["backend"] == "matmul"
        _, serial = run_counts(graph, grammar, "serial")
        assert serial.matmul_summary()["products"] == 0
        assert serial.summary()["backend"] == "serial"


class TestMakeBackend:
    def test_default_is_serial(self, reach):
        backend = make_backend(None, reach)
        assert isinstance(backend, SerialJoinBackend)
        assert backend.display_name == "serial"

    def test_unknown_name_rejected(self, reach):
        with pytest.raises(ValueError, match="unknown parallel backend"):
            make_backend("gpu", reach)

    def test_engine_rejects_unknown_backend(self, reach):
        with pytest.raises(ValueError, match="unknown parallel_backend"):
            GraspanEngine(reach, parallel_backend="gpu")
