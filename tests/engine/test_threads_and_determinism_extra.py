"""Extra determinism coverage on the full analysis pipeline."""


from repro.analysis import PointsToAnalysis
from repro.frontend import compile_program

SOURCE = """
void *a1(void) { int *x; x = malloc(4); return x; }
void *a2(int *v) { int *y; y = v; return y; }
void top(void) {
    int *p;
    int *q;
    p = a1();
    q = a2(p);
    *q = 1;
}
"""


class TestPipelineDeterminism:
    def test_out_of_core_pointsto_matches_in_memory(self, tmp_path):
        pg = compile_program(SOURCE)
        mem = PointsToAnalysis().run(pg)
        ooc = PointsToAnalysis(
            max_edges_per_partition=8, workdir=tmp_path
        ).run(pg)
        assert mem.num_points_to_facts == ooc.num_points_to_facts
        assert mem.var_points_to("top", "q") == ooc.var_points_to("top", "q")

    def test_two_compiles_give_identical_vertex_ids(self):
        a = compile_program(SOURCE)
        b = compile_program(SOURCE)
        assert a.namer.vertices_for("top", "q") == b.namer.vertices_for("top", "q")
        assert a.num_edges == b.num_edges
