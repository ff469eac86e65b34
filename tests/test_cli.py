"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph import MemGraph, write_text

BUGGY_SOURCE = """
void *risky(void) { int *p; p = NULL; return p; }
void top(void) { int *v; v = risky(); *v = 1; }
"""

CLEAN_SOURCE = """
void top(void) { int *v; v = malloc(4); *v = 1; }
"""


class TestAnalyze:
    def test_reports_bug_and_exit_code(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(BUGGY_SOURCE)
        code = main(["analyze", str(src)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[AU:Null]" in out
        assert "top" in out

    def test_clean_program_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(CLEAN_SOURCE)
        code = main(["analyze", str(src)])
        assert code == 0

    def test_checker_filter(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(BUGGY_SOURCE)
        main(["analyze", str(src), "--checkers", "Free"])
        out = capsys.readouterr().out
        assert "Null" not in out

    def test_baseline_mode(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(BUGGY_SOURCE)
        main(["analyze", str(src), "--mode", "baseline"])
        out = capsys.readouterr().out
        assert "[BA:" in out or out == ""


class TestClosure:
    def test_closure_label_output(self, tmp_path, capsys):
        graph = MemGraph.from_edges(
            [(0, 1, 0), (1, 2, 0)], label_names=["E"]
        )
        graph_file = tmp_path / "g.tsv"
        write_text(graph, graph_file)
        grammar_file = tmp_path / "g.grammar"
        grammar_file.write_text("R ::= E | R E\n")
        code = main(
            [
                "closure",
                "--graph",
                str(graph_file),
                "--grammar",
                str(grammar_file),
                "--label",
                "R",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0\t2\tR" in out

    def test_closure_out_file(self, tmp_path, capsys):
        from repro.graph import read_text

        graph = MemGraph.from_edges([(0, 1, 0)], label_names=["E"])
        graph_file = tmp_path / "g.tsv"
        write_text(graph, graph_file)
        grammar_file = tmp_path / "g.grammar"
        grammar_file.write_text("R ::= E\n")
        out_file = tmp_path / "closure.tsv"
        main(
            [
                "closure",
                "--graph",
                str(graph_file),
                "--grammar",
                str(grammar_file),
                "--out",
                str(out_file),
            ]
        )
        closure = read_text(out_file)
        assert closure.num_edges == 2  # E + derived R

    def test_out_of_core_flags(self, tmp_path, capsys):
        graph = MemGraph.from_edges(
            [(i, i + 1, 0) for i in range(12)], label_names=["E"]
        )
        graph_file = tmp_path / "g.tsv"
        write_text(graph, graph_file)
        grammar_file = tmp_path / "g.grammar"
        grammar_file.write_text("R ::= E | R E\n")
        code = main(
            [
                "closure",
                "--graph", str(graph_file),
                "--grammar", str(grammar_file),
                "--max-edges-per-partition", "5",
                "--workdir", str(tmp_path / "work"),
            ]
        )
        assert code == 0


class TestFlagValidation:
    """Numeric flags are checked at parse time: usage error, exit code 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["closure", "--graph", "g", "--grammar", "r",
                 "--max-edges-per-partition", "0"],
                "must be a positive",
                id="closure-max-edges-0",
            ),
            pytest.param(
                ["closure", "--graph", "g", "--grammar", "r",
                 "--max-edges-per-partition", "-3"],
                "must be a positive",
                id="closure-max-edges-neg",
            ),
            pytest.param(
                ["serve", "--store", "s", "--max-edges-per-partition", "0"],
                "must be a positive",
                id="serve-max-edges-0",
            ),
            pytest.param(
                ["serve", "--store", "s", "--max-edges-per-partition", "-3"],
                "must be a positive",
                id="serve-max-edges-neg",
            ),
            pytest.param(
                ["serve", "--store", "s", "--request-timeout", "-1"],
                "must be a positive",
                id="serve-request-timeout-neg",
            ),
            pytest.param(
                ["serve", "--store", "s", "--request-timeout", "0"],
                "must be a positive",
                id="serve-request-timeout-0",
            ),
            pytest.param(
                ["serve", "--store", "s", "--drain-grace", "-1"],
                "must be a non-negative",
                id="serve-drain-grace-neg",
            ),
            pytest.param(
                ["serve", "--store", "s", "--drain-grace", "nan"],
                "must be a finite",
                id="serve-drain-grace-nan",
            ),
            pytest.param(
                ["serve", "--store", "s", "--workers", "0"],
                "must be a positive",
                id="serve-workers-0",
            ),
            pytest.param(
                ["serve", "--store", "s", "--max-inflight", "-1"],
                "must be a positive",
                id="serve-max-inflight-neg",
            ),
        ],
    )
    def test_bad_numeric_flags_rejected(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: {message}" in err

    def test_zero_drain_grace_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--store", "s", "--drain-grace", "0"]
        )
        assert args.drain_grace == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure", "--graph", "g", "--grammar", "r", "--threads", "2"],
            ["closure", "--graph", "g", "--grammar", "r", "--backend", "thread"],
            ["closure", "--graph", "g", "--grammar", "r", "--no-pipeline"],
            ["serve", "--store", "s", "--backend", "process"],
            ["coordinator", "--graph", "g", "--grammar", "r", "--workdir", "w"],
        ],
        ids=["threads", "thread-backend", "pipeline", "process-backend", "coordinator"],
    )
    def test_removed_modes_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


RACY_SOURCE = """
int *cell;
void bump(void) { *cell = 1; }
void reset(void) { *cell = 0; }
void host(void) {
    cell = malloc(4);
    spawn bump();
    spawn reset();
}
"""


class TestRaces:
    def test_reports_race_and_exit_code(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(RACY_SOURCE)
        code = main(["races", str(src)])
        captured = capsys.readouterr()
        assert code == 1
        assert "race on" in captured.out
        assert "bump" in captured.out
        assert "1 closure run" in captured.err

    def test_clean_program_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(CLEAN_SOURCE)
        code = main(["races", str(src)])
        captured = capsys.readouterr()
        assert code == 0
        assert "race on" not in captured.out


TAINTED_SOURCE = """
int fetch(void) {
    int raw;
    raw = input();
    return raw;
}
void handler(void) {
    int q;
    q = fetch();
    query(q);
}
"""

SANITIZED_SOURCE = """
void handler(void) {
    int raw;
    int clean;
    raw = input();
    clean = sanitize(raw);
    exec(clean);
}
"""


class TestTaint:
    def test_reports_flow_and_exit_code(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(TAINTED_SOURCE)
        code = main(["taint", str(src)])
        captured = capsys.readouterr()
        assert code == 1
        assert "injection" in captured.out
        assert "handler" in captured.out
        assert "tainted vertices" in captured.err

    def test_sanitized_program_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text(SANITIZED_SOURCE)
        code = main(["taint", str(src)])
        captured = capsys.readouterr()
        assert code == 0
        assert "injection" not in captured.out


class TestWorkload:
    def test_generates_sources_and_truth(self, tmp_path, capsys):
        out = tmp_path / "wl"
        code = main(["workload", "httpd", "--scale", "0.3", "--out", str(out)])
        assert code == 0
        sources = list(out.glob("*.c"))
        assert sources
        truth = json.loads((out / "ground_truth.json").read_text())
        assert truth and {"checker", "function", "variable"} <= set(truth[0])

    def test_generated_sources_reparse(self, tmp_path):
        from repro.frontend import parse_files

        out = tmp_path / "wl"
        main(["workload", "httpd", "--scale", "0.3", "--out", str(out)])
        program = parse_files(
            [(p.stem, p.read_text()) for p in sorted(out.glob("*.c"))]
        )
        assert program.functions
