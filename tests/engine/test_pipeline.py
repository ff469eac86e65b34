"""The superstep pipeline's crash safety: load → join → merge → flush → commit.

Each superstep flushes its dirty partitions and then commits the
manifest, synchronously.  A crash inside a partition write must leave a
torn ``*.tmp`` that resume scrubs, and commit #N (1-indexed) must
checkpoint superstep N-1 — so a resumed run reproduces the closure of
an uninterrupted one, byte for byte.
"""

import numpy as np
import pytest

from repro.engine.engine import GraspanEngine
from repro.frontend.graphs import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.util.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.workloads.programs import workload_by_name


@pytest.fixture(scope="module")
def graph():
    workload = workload_by_name("postgresql", scale=0.05)
    return pointer_graph(workload.compile())


@pytest.fixture(scope="module")
def grammar():
    return pointsto_grammar_extended()


@pytest.fixture(scope="module")
def max_edges(graph):
    # Small partitions -> many supersteps -> many flushes and commits.
    return max(100, graph.num_edges // 2)


def run_closure(graph, grammar, max_edges, workdir, **kwargs):
    resume = kwargs.pop("resume", False)
    engine = GraspanEngine(
        grammar,
        max_edges_per_partition=max_edges,
        workdir=workdir,
        **kwargs,
    )
    return engine.run(graph, resume=resume)


@pytest.fixture(scope="module")
def sequential(graph, grammar, max_edges, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sequential")
    computation = run_closure(graph, grammar, max_edges, workdir)
    closure = computation.to_memgraph()
    return {
        "src": np.asarray(closure.src).copy(),
        "keys": np.asarray(closure.keys).copy(),
        "supersteps": computation.stats.num_supersteps,
    }


def assert_same_closure(reference, computation):
    closure = computation.to_memgraph()
    assert np.array_equal(reference["src"], np.asarray(closure.src))
    assert np.array_equal(reference["keys"], np.asarray(closure.keys))


class TestCrashDuringAsyncFlush:
    def test_crash_mid_flush_resumes_byte_identical(
        self, graph, grammar, max_edges, sequential, tmp_path
    ):
        """Crash inside a partition write, then resume.

        The InjectedCrash propagates out of the flush before the
        manifest could replace its predecessor.  The torn ``*.tmp`` is
        scrubbed on resume and the closure is unchanged.
        """
        crashed = 0
        for write_index in (6, 11):
            workdir = tmp_path / f"flush-crash-{write_index}"
            injector = FaultInjector(FaultPlan(crash_at_write=write_index))
            with pytest.raises(InjectedCrash):
                run_closure(
                    graph,
                    grammar,
                    max_edges,
                    workdir,
                    fault_injector=injector,
                )
            crashed += 1
            assert list(workdir.glob("*.tmp")), "torn tmp file expected"
            resumed = run_closure(
                graph, grammar, max_edges, workdir, resume=True
            )
            assert_same_closure(sequential, resumed)
            assert resumed.stats.resumed_from_superstep is not None
        assert crashed == 2

    def test_crash_after_commit_watermark_matches_sequential(
        self, graph, grammar, max_edges, sequential, tmp_path
    ):
        """Commit #N (1-indexed) checkpoints superstep N-1."""
        commit = 4
        workdir = tmp_path / "post-commit-crash"
        injector = FaultInjector(FaultPlan(crash_after_commit=commit))
        with pytest.raises(InjectedCrash):
            run_closure(
                graph,
                grammar,
                max_edges,
                workdir,
                fault_injector=injector,
            )
        resumed = run_closure(
            graph, grammar, max_edges, workdir, resume=True
        )
        assert_same_closure(sequential, resumed)
        assert resumed.stats.resumed_from_superstep == commit - 1
        assert (
            resumed.stats.num_supersteps
            <= sequential["supersteps"] - (commit - 1)
        )
