"""The fuzzing campaign driver: seeds in, verdicts and artifacts out.

For every seed the runner generates the case, computes the Datalog
oracle once, checks the whole engine-configuration matrix against it
(:func:`repro.fuzz.diff.check_case`), then re-runs the case *composed
with a seeded fault plan* — crash-at-write, bit-flips, errno schedules —
which must resume byte-identical or be detected loudly.  A failing MiniC
case is shrunk to a 1-minimal repro (:mod:`repro.fuzz.shrink`) and
written out as an artifact directory before the campaign moves on, so a
red CI run always leaves a replayable, human-sized program behind.

``python -m repro fuzz`` is a thin wrapper over :func:`fuzz`.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fuzz.cases import (
    CaseBuildError,
    FuzzCase,
    case_for_seed,
    rebuild,
)
from repro.fuzz.diff import (
    DEFAULT_CONFIGS,
    DifferentialMismatch,
    EngineConfig,
    check_case,
    oracle_closure,
)
from repro.fuzz.shrink import shrink_sources, write_artifact
from repro.util.faults import FaultPlan


@dataclass
class CaseResult:
    """The verdict for one seed."""

    seed: int
    case_name: str
    status: str  # "ok" | "fail"
    seconds: float = 0.0
    error: str = ""
    failing_config: str = ""
    artifact: Optional[Path] = None
    #: config name -> outcome status ("ok" / "corruption-detected").
    outcomes: Dict[str, str] = field(default_factory=dict)
    fault_outcomes: Dict[str, str] = field(default_factory=dict)
    fault_plan: str = ""


@dataclass
class FuzzReport:
    """The campaign summary the CLI prints and CI gates on."""

    results: List[CaseResult] = field(default_factory=list)
    configs: Tuple[str, ...] = ()

    @property
    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if r.status != "ok"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {len(self.results)} seeds x {len(self.configs)} configs "
            f"({', '.join(self.configs)}): "
            f"{len(self.results) - len(self.failures)} ok, "
            f"{len(self.failures)} failing"
        ]
        for r in self.results:
            mark = "ok  " if r.status == "ok" else "FAIL"
            fault = (
                f" fault[{r.fault_plan}]="
                + ",".join(sorted(set(r.fault_outcomes.values())))
                if r.fault_outcomes
                else ""
            )
            lines.append(
                f"  {mark} seed {r.seed:>4} {r.case_name:<28}"
                f" {r.seconds:6.2f}s{fault}"
            )
            if r.status != "ok":
                lines.append(f"       {r.error}")
                if r.artifact is not None:
                    lines.append(f"       repro: {r.artifact}")
        return "\n".join(lines)


def _fault_plan_for(seed: int, fault_offset: int) -> FaultPlan:
    """The deterministic per-case fault plan (offset shifts the whole
    campaign, mirroring the REPRO_FAULT_SEED convention)."""
    return FaultPlan.random(10007 * fault_offset + seed)


def _shrink_failure(
    case: FuzzCase,
    failure: DifferentialMismatch,
    configs: Sequence[EngineConfig],
    workroot: Path,
    fault_plan: Optional[FaultPlan],
    oracle_fn: Callable,
    max_probes: int,
) -> List[Tuple[str, str]]:
    """Reduce the failing case's sources while the mismatch persists."""
    failing = [c for c in configs if c.name == failure.config.name]
    probe_root = workroot / "shrink"
    counter = [0]

    def still_fails(sources: List[Tuple[str, str]]) -> bool:
        try:
            candidate = rebuild(case, sources)
        except CaseBuildError:
            return False
        counter[0] += 1
        probe_dir = probe_root / f"probe-{counter[0]}"
        try:
            check_case(
                candidate,
                tuple(failing),
                probe_dir,
                oracle=oracle_fn(candidate),
                fault_plan=fault_plan,
            )
            return False
        except DifferentialMismatch:
            return True
        except Exception:
            # A probe that errors out (rather than mismatching) is not
            # the failure being chased; keep those units.
            return False
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)

    assert case.sources is not None
    return shrink_sources(case.sources, still_fails, max_probes=max_probes)


def run_seed(
    seed: int,
    configs: Tuple[EngineConfig, ...] = DEFAULT_CONFIGS,
    workroot: Optional[Path] = None,
    artifact_dir: Optional[Path] = None,
    fault: bool = True,
    fault_offset: int = 0,
    case_fn: Callable[[int], FuzzCase] = case_for_seed,
    oracle_fn: Callable = oracle_closure,
    shrink: bool = True,
    max_shrink_probes: int = 400,
) -> CaseResult:
    """Fuzz one seed: plain matrix, then the fault-composed re-run."""
    started = time.perf_counter()
    owns_workroot = workroot is None
    if owns_workroot:
        workroot = Path(tempfile.mkdtemp(prefix=f"fuzz-{seed}-"))
    try:
        case = case_fn(seed)
        result = CaseResult(seed=seed, case_name=case.name, status="ok")
        fault_plan = _fault_plan_for(seed, fault_offset) if fault else None
        if fault:
            result.fault_plan = _describe_plan(fault_plan)
        try:
            oracle = oracle_fn(case)
            outcomes = check_case(case, configs, workroot / "plain", oracle=oracle)
            result.outcomes = {k: o.status for k, o in outcomes.items()}
            if fault:
                # The chaos leg: the serial reference config re-run under
                # the seeded fault plan must agree with the same oracle.
                fault_outcomes = check_case(
                    case,
                    configs[:1],
                    workroot / "fault",
                    oracle=oracle,
                    fault_plan=fault_plan,
                )
                result.fault_outcomes = {
                    k: o.status for k, o in fault_outcomes.items()
                }
        except DifferentialMismatch as failure:
            result.status = "fail"
            result.error = str(failure)
            result.failing_config = failure.config.name
            sources = case.sources
            if shrink and case.is_minic:
                plan = (
                    fault_plan
                    if failure.config.name in result.fault_outcomes
                    else None
                )
                sources = _shrink_failure(
                    case,
                    failure,
                    configs,
                    workroot,
                    plan,
                    oracle_fn,
                    max_shrink_probes,
                )
            if artifact_dir is not None:
                result.artifact = write_artifact(
                    Path(artifact_dir) / f"seed-{seed}-{failure.config.name}",
                    seed=seed,
                    case_name=case.name,
                    config_name=failure.config.name,
                    message=str(failure),
                    sources=sources or (),
                    notes=case.notes,
                    original_loc=sum(
                        s.count("\n") + 1 for _, s in (case.sources or ())
                    ),
                )
        result.seconds = time.perf_counter() - started
        return result
    finally:
        if owns_workroot:
            shutil.rmtree(workroot, ignore_errors=True)


def _describe_plan(plan: Optional[FaultPlan]) -> str:
    if plan is None:
        return ""
    for name in (
        "crash_at_write",
        "flip_byte_at_write",
        "crash_before_commit",
        "crash_after_commit",
    ):
        value = getattr(plan, name)
        if value is not None:
            return f"{name}={value}"
    if plan.errno_at_write:
        return f"errno_at_write={plan.errno_at_write}"
    if plan.errno_at_read:
        return f"errno_at_read={plan.errno_at_read}"
    return "empty"


def fuzz(
    seeds: Sequence[int],
    configs: Tuple[EngineConfig, ...] = DEFAULT_CONFIGS,
    artifact_dir: Optional[Path] = None,
    fault: bool = True,
    fault_offset: int = 0,
    case_fn: Callable[[int], FuzzCase] = case_for_seed,
    oracle_fn: Callable = oracle_closure,
    shrink: bool = True,
    on_result: Optional[Callable[[CaseResult], None]] = None,
) -> FuzzReport:
    """Run the campaign over ``seeds``; never raises on case failures."""
    report = FuzzReport(configs=tuple(c.name for c in configs))
    for seed in seeds:
        result = run_seed(
            seed,
            configs=configs,
            artifact_dir=artifact_dir,
            fault=fault,
            fault_offset=fault_offset,
            case_fn=case_fn,
            oracle_fn=oracle_fn,
            shrink=shrink,
        )
        report.results.append(result)
        if on_result is not None:
            on_result(result)
    return report
