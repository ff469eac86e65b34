"""Crash/resume integration: the tentpole durability guarantees.

The contract under test (DESIGN.md §9): a checkpointed out-of-core run
killed at *any* point — after any manifest commit, before a commit, or
mid-partition-write with a torn tmp file — resumes from the last
committed superstep watermark and produces a closure byte-identical to
an uninterrupted run.  Corrupted partition bytes are detected at load,
never silently joined.

The workload is the scaled-down ``postgresql_like`` pointer graph used
elsewhere in the engine tests, partitioned small enough to force many
supersteps so the crash matrix has real boundaries to hit.
"""

import os

import numpy as np
import pytest

from repro.engine.checkpoint import CheckpointError
from repro.engine.engine import GraspanEngine
from repro.frontend.graphs import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.partition.storage import PartitionCorruptError
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
    # Small partitions -> tens of supersteps -> a real crash matrix.
    return max(100, graph.num_edges // 2)


def make_engine(grammar, max_edges, workdir, injector=None, **kwargs):
    return GraspanEngine(
        grammar,
        max_edges_per_partition=max_edges,
        workdir=workdir,
        fault_injector=injector,
        **kwargs,
    )


@pytest.fixture(scope="module")
def baseline(graph, grammar, max_edges, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("baseline")
    computation = make_engine(grammar, max_edges, workdir).run(graph)
    closure = computation.to_memgraph()
    return {
        "src": np.asarray(closure.src).copy(),
        "keys": np.asarray(closure.keys).copy(),
        "supersteps": computation.stats.num_supersteps,
        "checkpoints": computation.stats.checkpoints_written,
    }


def assert_same_closure(baseline, computation):
    closure = computation.to_memgraph()
    assert np.array_equal(baseline["src"], np.asarray(closure.src))
    assert np.array_equal(baseline["keys"], np.asarray(closure.keys))


class TestCrashMatrix:
    def test_crash_after_every_commit_resumes_byte_identical(
        self, graph, grammar, max_edges, baseline, tmp_path
    ):
        """Kill the run after every single manifest commit and resume.

        Commit #1 is the post-preprocess checkpoint (superstep 0);
        commit #K+1 lands after superstep K.  Every resume must
        reproduce the uninterrupted closure exactly and skip the
        already-committed supersteps.
        """
        assert baseline["checkpoints"] == baseline["supersteps"] + 1
        for commit in range(1, baseline["checkpoints"] + 1):
            workdir = tmp_path / f"crash-{commit}"
            injector = FaultInjector(FaultPlan(crash_after_commit=commit))
            with pytest.raises(InjectedCrash):
                make_engine(grammar, max_edges, workdir, injector).run(graph)
            resumed = make_engine(grammar, max_edges, workdir).run(
                graph, resume=True
            )
            assert_same_closure(baseline, resumed)
            completed_before_crash = commit - 1
            assert resumed.stats.resumed_from_superstep == completed_before_crash
            # The committed supersteps are genuinely skipped on resume.
            # The resumed scheduler starts with a cold in-memory partition
            # cache, so its pair order may differ slightly from the
            # uninterrupted run's tail — allow a small scheduling slack.
            assert (
                resumed.stats.num_supersteps
                <= baseline["supersteps"] - completed_before_crash + 2
            )

    def test_crash_before_commit_falls_back_to_previous_watermark(
        self, graph, grammar, max_edges, baseline, tmp_path
    ):
        workdir = tmp_path / "precommit"
        injector = FaultInjector(FaultPlan(crash_before_commit=4))
        with pytest.raises(InjectedCrash):
            make_engine(grammar, max_edges, workdir, injector).run(graph)
        resumed = make_engine(grammar, max_edges, workdir).run(graph, resume=True)
        assert_same_closure(baseline, resumed)
        # Commit #4 never landed, so the watermark is superstep 2
        # (commit #3 = checkpoint after superstep 2).
        assert resumed.stats.resumed_from_superstep == 2

    @pytest.mark.parametrize("write_index", [1, 4, 9])
    def test_crash_mid_write_leaves_torn_tmp_and_resumes(
        self, graph, grammar, max_edges, baseline, tmp_path, write_index
    ):
        workdir = tmp_path / f"torn-{write_index}"
        injector = FaultInjector(FaultPlan(crash_at_write=write_index))
        with pytest.raises(InjectedCrash):
            make_engine(grammar, max_edges, workdir, injector).run(graph)
        assert list(workdir.glob("*.tmp")), "crash must leave a torn tmp file"
        resumed = make_engine(grammar, max_edges, workdir).run(graph, resume=True)
        assert_same_closure(baseline, resumed)
        assert resumed.stats.tmp_scrubbed >= 1


class TestResumeSemantics:
    def test_resume_of_finished_run_is_a_noop_with_same_closure(
        self, graph, grammar, max_edges, baseline, tmp_path
    ):
        workdir = tmp_path / "finished"
        make_engine(grammar, max_edges, workdir).run(graph)
        resumed = make_engine(grammar, max_edges, workdir).run(graph, resume=True)
        assert_same_closure(baseline, resumed)
        assert resumed.stats.num_supersteps == 0
        assert resumed.stats.resumed_from_superstep == baseline["supersteps"]

    def test_resume_into_empty_workdir_runs_fresh(
        self, graph, grammar, max_edges, baseline, tmp_path
    ):
        resumed = make_engine(grammar, max_edges, tmp_path / "fresh").run(
            graph, resume=True
        )
        assert_same_closure(baseline, resumed)
        assert resumed.stats.resumed_from_superstep is None

    def test_resume_under_different_grammar_refused(
        self, graph, grammar, max_edges, tmp_path
    ):
        from repro.grammar.builtin import pointsto_grammar

        workdir = tmp_path / "mismatch"
        injector = FaultInjector(FaultPlan(crash_after_commit=2))
        with pytest.raises(InjectedCrash):
            make_engine(grammar, max_edges, workdir, injector).run(graph)
        other = make_engine(pointsto_grammar(), max_edges, workdir)
        with pytest.raises(CheckpointError, match="different grammar"):
            other.run(graph, resume=True)

    def test_resume_under_different_graph_refused(
        self, graph, grammar, max_edges, tmp_path
    ):
        workdir = tmp_path / "othergraph"
        injector = FaultInjector(FaultPlan(crash_after_commit=2))
        with pytest.raises(InjectedCrash):
            make_engine(grammar, max_edges, workdir, injector).run(graph)
        other_graph = pointer_graph(
            workload_by_name("httpd", scale=0.1).compile()
        )
        with pytest.raises(CheckpointError, match="different input graph"):
            make_engine(grammar, max_edges, workdir).run(other_graph, resume=True)

    def test_checkpoint_requires_workdir(self, grammar):
        with pytest.raises(ValueError, match="workdir"):
            GraspanEngine(grammar, checkpoint=True)

    def test_no_checkpoint_writes_no_manifest(
        self, graph, grammar, max_edges, tmp_path
    ):
        workdir = tmp_path / "nockpt"
        computation = make_engine(
            grammar, max_edges, workdir, checkpoint=False
        ).run(graph)
        assert not (workdir / "manifest.json").exists()
        assert computation.stats.checkpoints_written == 0
        assert not computation.stats.checkpoint_enabled


class TestCorruptionDetection:
    def test_flipped_payload_byte_never_silently_joined(
        self, graph, grammar, max_edges, tmp_path
    ):
        """A bit flip in a committed partition file must surface as
        PartitionCorruptError on the next load — not as wrong edges."""
        workdir = tmp_path / "flip"
        injector = FaultInjector(FaultPlan(flip_byte_at_write=1))
        with pytest.raises(PartitionCorruptError, match="checksum mismatch"):
            make_engine(grammar, max_edges, workdir, injector).run(graph)
        assert injector.flipped_writes == 1


class TestSeededFaultMatrix:
    def test_seeded_random_fault_is_survivable_or_detected(
        self, graph, grammar, max_edges, baseline, tmp_path
    ):
        """The CI fault-tolerance job's entry point: one seeded fault per
        run (REPRO_FAULT_SEED).  Crashes must be resumable, transient
        errnos absorbed, corruption detected — never a wrong closure."""
        seed = int(os.environ.get("REPRO_FAULT_SEED", "1"))
        plan = FaultPlan.random(seed)
        workdir = tmp_path / "seeded"
        injector = FaultInjector(plan)
        try:
            computation = make_engine(grammar, max_edges, workdir, injector).run(
                graph
            )
        except InjectedCrash:
            computation = make_engine(grammar, max_edges, workdir).run(
                graph, resume=True
            )
            # A crash during preprocess predates the first manifest
            # commit; the resume is then legitimately a fresh run.
            if injector.commits > 0:
                assert computation.stats.resumed_from_superstep is not None
        except PartitionCorruptError:
            assert plan.flip_byte_at_write is not None
            return  # detection is the guarantee for corruption faults
        assert_same_closure(baseline, computation)
        if plan.errno_at_write or plan.errno_at_read:
            assert computation.stats.io_retries >= 1
