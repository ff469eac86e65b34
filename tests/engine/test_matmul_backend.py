"""Matmul backend equivalence: byte-identical to the serial edge-pair join.

The contract (DESIGN.md §11): lowering an iteration to per-label boolean
sparse matrix products changes *how* candidate edges are produced, never
*which* deduplicated candidates survive the sorted merge — so every
observable output (per-iteration state, iteration counts, memory-limit
early-stop boundaries, resumed closures) must match the serial backend
bit for bit.
"""

import os

import numpy as np
import pytest

import repro.engine.matmul as matmul_mod
from repro.engine import GraspanEngine, run_superstep
from repro.engine.join import CsrView
from repro.engine.matmul import MatmulJoinBackend, scipy_available
from repro.engine.parallel import SerialJoinBackend, make_backend
from repro.frontend import pointer_graph
from repro.graph import from_pairs, packed
from repro.partition.storage import PartitionCorruptError
from repro.util.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.workloads import workload_by_name

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="scipy not installed"
)

#: (workload name, scale) pairs for the engine-level equivalence matrix.
WORKLOADS = [("httpd", 0.3), ("postgresql", 0.05), ("linux", 0.05)]


def adjacency_of(edges):
    by_src = {}
    for s, d, l in edges:
        by_src.setdefault(s, []).append((d, l))
    return {v: from_pairs(pairs) for v, pairs in by_src.items()}


def assert_results_identical(serial, mm):
    """Superstep results must match byte for byte, not just as sets."""
    assert serial.completed == mm.completed
    assert serial.iterations == mm.iterations
    assert serial.edges_added == mm.edges_added
    assert np.array_equal(serial.added_src, mm.added_src)
    assert np.array_equal(serial.added_keys, mm.added_keys)
    assert set(serial.adjacency) == set(mm.adjacency)
    for v, keys in serial.adjacency.items():
        assert np.array_equal(keys, mm.adjacency[v]), f"vertex {v}"


def run_both(adjacency, grammar, **kwargs):
    serial = run_superstep(dict(adjacency), grammar, **kwargs)
    backend = make_backend("matmul", grammar)
    mm = run_superstep(dict(adjacency), grammar, backend=backend, **kwargs)
    return serial, mm, backend


@pytest.fixture(scope="module")
def graphs():
    return {
        name: pointer_graph(workload_by_name(name, scale=scale).compile())
        for name, scale in WORKLOADS
    }


def closure_arrays(graph, grammar, backend, **kwargs):
    engine = GraspanEngine(grammar, parallel_backend=backend, **kwargs)
    comp = engine.run(graph)
    mem = comp.to_memgraph()
    return np.asarray(mem.src).copy(), np.asarray(mem.keys).copy(), comp.stats


@needs_scipy
class TestSuperstepEquivalence:
    """Byte-identity at the run_superstep level, grammar by grammar."""

    def test_random_graphs_all_grammars(self, reach, dyck, pointsto_ext):
        import random

        rnd = random.Random(29)
        for grammar, num_labels in ((reach, 1), (dyck, 2), (pointsto_ext, 4)):
            for trial in range(4):
                edges = list(
                    {
                        (
                            rnd.randrange(25),
                            rnd.randrange(25),
                            rnd.randrange(num_labels),
                        )
                        for _ in range(60)
                    }
                )
                serial, mm, _ = run_both(adjacency_of(edges), grammar)
                assert_results_identical(serial, mm)

    def test_memory_limit_early_stop_identical(self, reach):
        """The mid-superstep bail-out must trip at the same iteration with
        the same partial state — matmul may not change the growth order."""
        e = reach.label_id("E")
        edges = [(i, i + 1, e) for i in range(30)]
        serial, mm, _ = run_both(
            adjacency_of(edges), reach, memory_limit_edges=40
        )
        assert not serial.completed
        assert_results_identical(serial, mm)

    def test_unary_closure_only(self, reach):
        """A superstep whose only derivations are unary (E => R) yields
        no binary product nonzeros; the closure must still match."""
        e = reach.label_id("E")
        serial, mm, backend = run_both({0: from_pairs([(1, e)])}, reach)
        assert_results_identical(serial, mm)
        assert backend.telemetry.matmul_nnz == 0

    def test_empty_adjacency(self, reach):
        serial, mm, _ = run_both({}, reach)
        assert_results_identical(serial, mm)
        assert mm.iterations == 0

    def test_empty_operands_short_circuit(self, reach):
        """Empty left arrays / empty right views return EMPTY directly."""
        backend = make_backend("matmul", reach)
        backend.begin_superstep()
        backend.begin_iteration()
        view = CsrView.from_dict({})
        src, keys = backend.join_edge_list(
            packed.EMPTY, packed.EMPTY, view, [view]
        )
        assert len(src) == 0 and len(keys) == 0

    def test_dim_guard_falls_back_to_edge_pairs(self, reach, monkeypatch):
        """Vertex ids past MAX_MATMUL_DIM take the inline edge-pair path
        per call — same closure, zero products formed."""
        monkeypatch.setattr(matmul_mod, "MAX_MATMUL_DIM", 8)
        e = reach.label_id("E")
        edges = [(i * 7, (i + 1) * 7, e) for i in range(6)]
        serial, mm, backend = run_both(adjacency_of(edges), reach)
        assert_results_identical(serial, mm)
        assert backend.telemetry.matmul_products == 0

    def test_block_reuse_across_iterations(self, reach):
        """A multi-iteration fixed point must reuse O's untouched label
        blocks via note_union instead of rebuilding every snapshot."""
        e = reach.label_id("E")
        edges = [(i, i + 1, e) for i in range(12)]
        _, _, backend = run_both(adjacency_of(edges), reach)
        t = backend.telemetry
        assert t.matmul_products > 0
        assert t.matmul_nnz > 0
        assert t.matmul_blocks_built > 0
        assert t.matmul_blocks_reused > 0


@needs_scipy
class TestEngineEquivalence:
    """Closure arrays identical to serial across the workload matrix."""

    def test_in_memory_identical(self, graphs, pointsto_ext):
        for name, graph in graphs.items():
            s_src, s_keys, _ = closure_arrays(graph, pointsto_ext, "serial")
            m_src, m_keys, stats = closure_arrays(graph, pointsto_ext, "matmul")
            assert np.array_equal(s_src, m_src), name
            assert np.array_equal(s_keys, m_keys), name
            assert all(r.backend == "matmul" for r in stats.supersteps)
            mm = stats.matmul_summary()
            assert mm["products"] > 0 and mm["blocks_built"] > 0

    def test_out_of_core_with_budget_identical(self, graphs, pointsto_ext, tmp_path):
        name, graph = "postgresql", graphs["postgresql"]
        max_edges = max(100, graph.num_edges // 2)
        kwargs = dict(
            max_edges_per_partition=max_edges,
            memory_budget=1 << 22,
        )
        s_src, s_keys, _ = closure_arrays(
            graph, pointsto_ext, "serial", workdir=tmp_path / "serial", **kwargs
        )
        m_src, m_keys, stats = closure_arrays(
            graph, pointsto_ext, "matmul", workdir=tmp_path / "matmul", **kwargs
        )
        assert np.array_equal(s_src, m_src), name
        assert np.array_equal(s_keys, m_keys), name
        assert stats.evictions >= 0  # budget path actually engaged

    def test_crash_resume_identical(self, graphs, pointsto_ext, tmp_path):
        """Crash a matmul run after a commit; the matmul resume must land
        on the serial uninterrupted closure byte for byte."""
        graph = graphs["postgresql"]
        max_edges = max(100, graph.num_edges // 2)
        s_src, s_keys, _ = closure_arrays(
            graph,
            pointsto_ext,
            "serial",
            max_edges_per_partition=max_edges,
            workdir=tmp_path / "serial",
        )
        workdir = tmp_path / "crash"
        injector = FaultInjector(FaultPlan(crash_after_commit=2))
        with pytest.raises(InjectedCrash):
            GraspanEngine(
                pointsto_ext,
                parallel_backend="matmul",
                max_edges_per_partition=max_edges,
                workdir=workdir,
                fault_injector=injector,
            ).run(graph)
        resumed = GraspanEngine(
            pointsto_ext,
            parallel_backend="matmul",
            max_edges_per_partition=max_edges,
            workdir=workdir,
        ).run(graph, resume=True)
        mem = resumed.to_memgraph()
        assert np.array_equal(s_src, np.asarray(mem.src))
        assert np.array_equal(s_keys, np.asarray(mem.keys))
        assert resumed.stats.resumed_from_superstep is not None

    def test_seeded_random_fault_is_survivable_or_detected(
        self, graphs, pointsto_ext, tmp_path
    ):
        """The CI matmul-backend job's fault variant: one seeded random
        fault (REPRO_FAULT_SEED) through the matmul data plane.  Crashes
        must be resumable, transient errnos absorbed, corruption
        detected — never a wrong closure."""
        graph = graphs["postgresql"]
        max_edges = max(100, graph.num_edges // 2)
        s_src, s_keys, _ = closure_arrays(
            graph, pointsto_ext, "serial", max_edges_per_partition=max_edges,
            workdir=tmp_path / "serial",
        )
        seed = int(os.environ.get("REPRO_FAULT_SEED", "1"))
        plan = FaultPlan.random(seed)
        workdir = tmp_path / "seeded"

        def engine(injector=None):
            return GraspanEngine(
                pointsto_ext,
                parallel_backend="matmul",
                max_edges_per_partition=max_edges,
                workdir=workdir,
                fault_injector=injector,
            )

        injector = FaultInjector(plan)
        try:
            computation = engine(injector).run(graph)
        except InjectedCrash:
            computation = engine().run(graph, resume=True)
            if injector.commits > 0:
                assert computation.stats.resumed_from_superstep is not None
        except PartitionCorruptError:
            assert plan.flip_byte_at_write is not None
            return  # detection is the guarantee for corruption faults
        mem = computation.to_memgraph()
        assert np.array_equal(s_src, np.asarray(mem.src))
        assert np.array_equal(s_keys, np.asarray(mem.keys))


class TestScipyFallback:
    def test_make_backend_degrades_to_serial(self, reach, monkeypatch, caplog):
        monkeypatch.setattr(matmul_mod, "_sparse", None)
        with caplog.at_level("WARNING"):
            backend = make_backend("matmul", reach)
        assert isinstance(backend, SerialJoinBackend)
        assert backend.display_name == "serial(matmul-fallback)"
        assert any("scipy" in r.message for r in caplog.records)

    def test_constructor_requires_scipy(self, reach, monkeypatch):
        monkeypatch.setattr(matmul_mod, "_sparse", None)
        with pytest.raises(RuntimeError, match="scipy"):
            MatmulJoinBackend(reach)

    def test_fallback_engine_still_closes(self, reach, chain_graph, monkeypatch):
        monkeypatch.setattr(matmul_mod, "_sparse", None)
        comp = GraspanEngine(reach, parallel_backend="matmul").run(chain_graph)
        assert comp.num_edges > chain_graph.num_edges
        assert all(
            r.backend == "serial(matmul-fallback)"
            for r in comp.stats.supersteps
        )
