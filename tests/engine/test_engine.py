"""Tests for the GraspanEngine driver: in-memory, out-of-core, alignment."""

import pytest

from repro.engine import GraspanEngine, RoundRobinScheduler, naive_closure
from repro.graph import MemGraph
from repro.grammar import GrammarError


def closure_set(computation):
    return set(computation.pset.iter_all_edges())


class TestInMemory:
    def test_chain(self, reach, chain_graph):
        comp = GraspanEngine(reach).run(chain_graph)
        assert closure_set(comp) == naive_closure(chain_graph.edges(), reach)

    def test_stats_populated(self, reach, chain_graph):
        comp = GraspanEngine(reach).run(chain_graph)
        s = comp.stats
        assert s.original_edges == chain_graph.num_edges
        assert s.final_edges == comp.num_edges
        assert s.num_supersteps >= 1
        assert s.growth_factor > 1.0
        assert s.initial_partitions == 2  # in-memory mode default

    def test_result_queries(self, reach, chain_graph):
        comp = GraspanEngine(reach).run(chain_graph)
        src, dst = comp.edges_with_label_arrays("R")
        r_edges = list(zip(src.tolist(), dst.tolist()))
        assert (0, 9) in r_edges
        src, dst = comp.edges_with_label_arrays("R")
        assert set(zip(src.tolist(), dst.tolist())) == set(r_edges)
        counts = comp.count_by_label()
        assert counts["R"] == len(r_edges)

    def test_empty_label_query(self, reach, chain_graph):
        comp = GraspanEngine(reach).run(chain_graph)
        with pytest.raises(GrammarError):
            comp.edges_with_label_arrays("nope")

    def test_label_arrays_match_label_id_query(self, reach, chain_graph):
        comp = GraspanEngine(reach).run(chain_graph)
        by_name = comp.edges_with_label_arrays("R")
        by_id = comp.edges_with_label_arrays(reach.label_id("R"))
        assert [a.tolist() for a in by_name] == [a.tolist() for a in by_id]
        r = reach.label_id("R")
        expected = sorted((s, d) for s, d, l in closure_set(comp) if l == r)
        assert sorted(zip(*(a.tolist() for a in by_name))) == expected


class TestOutOfCore:
    def test_matches_in_memory(self, reach, chain_graph, tmp_path):
        mem = GraspanEngine(reach).run(chain_graph)
        ooc = GraspanEngine(
            reach, max_edges_per_partition=3, workdir=tmp_path
        ).run(chain_graph)
        assert closure_set(ooc) == closure_set(mem)

    def test_repartitioning_triggered(self, reach, tmp_path):
        edges = [(i, i + 1, 0) for i in range(40)]
        graph = MemGraph.from_edges(edges, label_names=["E"])
        comp = GraspanEngine(
            reach, max_edges_per_partition=15, workdir=tmp_path
        ).run(graph)
        assert comp.stats.repartition_count > 0
        assert comp.stats.final_partitions > comp.stats.initial_partitions
        assert closure_set(comp) == naive_closure(edges, reach)

    def test_round_robin_scheduler_agrees(self, reach, chain_graph, tmp_path):
        ddm = GraspanEngine(
            reach, max_edges_per_partition=4, workdir=tmp_path / "a"
        ).run(chain_graph)
        rr = GraspanEngine(
            reach,
            max_edges_per_partition=4,
            workdir=tmp_path / "b",
            scheduler=RoundRobinScheduler(),
        ).run(chain_graph)
        assert closure_set(ddm) == closure_set(rr)

    def test_io_time_recorded(self, reach, chain_graph, tmp_path):
        comp = GraspanEngine(
            reach, max_edges_per_partition=3, workdir=tmp_path
        ).run(chain_graph)
        assert comp.stats.timers.get("io") > 0

    def test_load_resident_survives_workdir(self, reach, chain_graph, tmp_path):
        import shutil

        comp = GraspanEngine(
            reach, max_edges_per_partition=3, workdir=tmp_path / "w"
        ).run(chain_graph).load_resident()
        shutil.rmtree(tmp_path / "w")
        src, dst = comp.edges_with_label_arrays("R")
        assert (0, 9) in list(zip(src.tolist(), dst.tolist()))

    def test_max_supersteps_guard(self, reach, chain_graph, tmp_path):
        engine = GraspanEngine(
            reach,
            max_edges_per_partition=3,
            workdir=tmp_path,
            max_supersteps=1,
        )
        with pytest.raises(RuntimeError, match="max_supersteps"):
            engine.run(chain_graph)


class TestLabelAlignment:
    def test_graph_labels_remapped_by_name(self, reach):
        # graph interned E with a different id position than the grammar
        graph = MemGraph.from_edges([(0, 1, 1)], label_names=["R", "E"])
        comp = GraspanEngine(reach).run(graph)
        assert (0, 1, reach.label_id("E")) in closure_set(comp)

    def test_unknown_label_rejected(self, reach):
        graph = MemGraph.from_edges([(0, 1, 0)], label_names=["Z"])
        with pytest.raises(GrammarError):
            GraspanEngine(reach).run(graph)

    def test_missing_label_names_rejected(self, reach):
        graph = MemGraph.from_edges([(0, 1, 0)])
        with pytest.raises(ValueError):
            GraspanEngine(reach).run(graph)

    def test_aligned_graph_passthrough(self, reach):
        graph = MemGraph.from_edges([(0, 1, 0)], label_names=list(reach.names))
        comp = GraspanEngine(reach).run(graph)
        assert comp.num_edges >= 1


class TestMidSuperstepLimit:
    def test_limit_is_twice_partition_budget(self, reach):
        """Regression: the budget was doubled twice (2 * max * growth * 2),
        silently quadrupling the documented resident-edge ceiling."""
        engine = GraspanEngine(
            reach, max_edges_per_partition=15, repartition_growth=2.0
        )
        assert engine.mid_superstep_limit() == 60  # 2 * 15 * 2.0

    def test_limit_disabled_in_memory_mode(self, reach):
        assert GraspanEngine(reach).mid_superstep_limit() == 0

    def test_growth_below_one_clamped(self, reach):
        engine = GraspanEngine(
            reach, max_edges_per_partition=10, repartition_growth=0.5
        )
        assert engine.mid_superstep_limit() == 20

    def test_limit_triggers_incomplete_supersteps(self, reach, tmp_path):
        """With small partitions the bail-out must actually fire — at the
        quadrupled limit this run completed every superstep in one go."""
        edges = [(i, i + 1, 0) for i in range(40)]
        graph = MemGraph.from_edges(edges, label_names=["E"])
        comp = GraspanEngine(
            reach, max_edges_per_partition=15, workdir=tmp_path
        ).run(graph)
        assert any(not r.completed for r in comp.stats.supersteps)
        assert closure_set(comp) == naive_closure(edges, reach)


class TestThreadsAndDeterminism:
    def test_runs_are_deterministic(self, dyck):
        import random

        rnd = random.Random(13)
        edges = [(rnd.randrange(10), rnd.randrange(10), rnd.randrange(2)) for _ in range(30)]
        graph = MemGraph.from_edges(edges, num_vertices=10, label_names=["OP", "CL"])
        a = GraspanEngine(dyck).run(graph)
        b = GraspanEngine(dyck).run(graph)
        assert closure_set(a) == closure_set(b)
        assert a.stats.num_supersteps == b.stats.num_supersteps
