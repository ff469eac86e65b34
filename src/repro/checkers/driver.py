"""Run all checkers in both modes and score them against ground truth.

This is the code path behind Tables 3 and 4: compile a codebase, run the
two Graspan analyses, run every checker as baseline (BL) and augmented
(GR), and — because our workloads are generated with known injected
defects — compute the reported/false-positive counts the paper derived
from manual inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.dataflow import NullDataflowAnalysis, TaintDataflowAnalysis
from repro.analysis.escape import EscapeAnalysis
from repro.analysis.pointsto import PointsToAnalysis
from repro.analysis.races import RaceAnalysis
from repro.analysis.taint import TaintAnalysis
from repro.checkers.asyncmisuse import AsyncChecker
from repro.checkers.base import AnalysisContext, BugReport, Checker
from repro.checkers.block import BlockChecker
from repro.checkers.free import FreeChecker
from repro.checkers.lock import LockChecker
from repro.checkers.null import NullChecker
from repro.checkers.pnull import PNullChecker
from repro.checkers.race import RaceChecker
from repro.checkers.range import RangeChecker
from repro.checkers.size import SizeChecker
from repro.checkers.taint import TaintChecker
from repro.checkers.untest import UNTestChecker
from repro.frontend.graphgen import ProgramGraphs

PathLike = Union[str, Path]

#: The checker registry, in Table 1 order plus the new UNTest, Race,
#: Taint, and Async checkers.
ALL_CHECKERS: Tuple[type, ...] = (
    BlockChecker,
    NullChecker,
    RangeChecker,
    LockChecker,
    FreeChecker,
    SizeChecker,
    PNullChecker,
    UNTestChecker,
    RaceChecker,
    TaintChecker,
    AsyncChecker,
)


@dataclass(frozen=True)
class GroundTruthBug:
    """One injected defect the workload generator knows about."""

    checker: str
    function: str
    variable: Optional[str]

    def match_key(self) -> Tuple[str, str, Optional[str]]:
        return (self.checker, self.function, self.variable)


@dataclass
class CheckerScore:
    """RE/FP/TP/FN for one checker in one mode (a Table 3 cell)."""

    reported: int
    true_positives: int
    false_positives: int
    false_negatives: int


@dataclass
class CheckerRunResult:
    """All reports from one full checking run."""

    baseline: Dict[str, List[BugReport]]
    augmented: Dict[str, List[BugReport]]
    context: AnalysisContext

    def all_reports(self, mode: str) -> List[BugReport]:
        table = self.baseline if mode == "baseline" else self.augmented
        return [r for reports in table.values() for r in reports]

    def score(
        self, truth: Sequence[GroundTruthBug], mode: str, checker: str
    ) -> CheckerScore:
        reports = (self.baseline if mode == "baseline" else self.augmented).get(
            checker, []
        )
        truth_keys = {t.match_key() for t in truth if t.checker == checker}
        report_keys = {r.match_key() for r in reports}
        tp_keys = report_keys & truth_keys
        return CheckerScore(
            reported=len(report_keys),
            true_positives=len(tp_keys),
            false_positives=len(report_keys - truth_keys),
            false_negatives=len(truth_keys - report_keys),
        )

    def module_breakdown(self, mode: str, checker: str) -> Dict[str, int]:
        """Reports per module — the Table 4 breakdown."""
        table = self.baseline if mode == "baseline" else self.augmented
        out: Dict[str, int] = {}
        for report in table.get(checker, []):
            out[report.module] = out.get(report.module, 0) + 1
        return out


def run_analyses(
    pg: ProgramGraphs,
    max_edges_per_partition: Optional[int] = None,
    workdir: Optional[PathLike] = None,
    parallel_backend: Optional[str] = None,
    closure_store=None,
) -> AnalysisContext:
    """Run the four engine-backed analyses — pointer, NULL dataflow,
    user-data dataflow, and the taint/injection closure — plus the
    closure-reusing escape and race clients; bundle into a context.
    The Taint and Async checkers consume the bundled results without
    further engine runs.

    ``closure_store`` (a :class:`repro.engine.store.ClosureStore`)
    routes all four closures through the persistent cache: unchanged
    programs hit finished entries, edited programs re-close
    incrementally from the nearest base (DESIGN.md §14).  The store's
    engine configuration wins over the sizing arguments here."""
    pointsto = PointsToAnalysis(
        max_edges_per_partition=max_edges_per_partition,
        workdir=workdir,
        parallel_backend=parallel_backend,
        closure_store=closure_store,
    ).run(pg)
    nullflow = NullDataflowAnalysis(
        max_edges_per_partition=max_edges_per_partition,
        workdir=workdir,
        parallel_backend=parallel_backend,
        closure_store=closure_store,
    ).run(pg, pointsto=pointsto)
    taintflow = TaintDataflowAnalysis(
        max_edges_per_partition=max_edges_per_partition,
        workdir=workdir,
        parallel_backend=parallel_backend,
        closure_store=closure_store,
    ).run(pg, pointsto=pointsto)
    taint = TaintAnalysis(
        max_edges_per_partition=max_edges_per_partition,
        workdir=workdir,
        parallel_backend=parallel_backend,
        closure_store=closure_store,
    ).run(pg, pointsto=pointsto)
    # Closure clients: escape + race facts fall out of the pointer
    # closure already in hand — no further engine runs.
    escape = EscapeAnalysis().run(pg, pointsto)
    races = RaceAnalysis().run(pg, pointsto, escape=escape)
    return AnalysisContext(
        pg=pg,
        pointsto=pointsto,
        nullflow=nullflow,
        taintflow=taintflow,
        taint=taint,
        escape=escape,
        races=races,
    )


def run_checkers(
    ctx: AnalysisContext,
    checkers: Optional[Iterable[Checker]] = None,
) -> CheckerRunResult:
    """Run every checker in both modes over a prepared context."""
    instances = (
        list(checkers) if checkers is not None else [cls() for cls in ALL_CHECKERS]
    )
    baseline: Dict[str, List[BugReport]] = {}
    augmented: Dict[str, List[BugReport]] = {}
    for checker in instances:
        baseline[checker.name] = checker.check_baseline(ctx)
        augmented[checker.name] = checker.check_augmented(ctx)
    return CheckerRunResult(baseline=baseline, augmented=augmented, context=ctx)


def check_program(pg: ProgramGraphs, **analysis_opts) -> CheckerRunResult:
    """One-call convenience: analyses + all checkers."""
    return run_checkers(run_analyses(pg, **analysis_opts))
