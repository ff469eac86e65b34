"""The three benchmark workloads.

``closure-ooc``
    The linux-like pointer/alias closure at the Table-5 configuration:
    ``GraspanEngine(max_edges_per_partition=E//6, workdir=<fresh>)`` with
    the default checkpoint, pipeline and serial backend.  The only
    workload where partition, storage, scheduling and checkpoint do real
    work.  Each run closes a basket of graphs generated from the seed
    (:func:`programs.basket_seeds`), once each; they are compiled in set-up.

``analyze``
    The same linux-like sources through ``compile_program`` then
    ``check_program``, in memory: the calls ``repro analyze`` makes.  The
    only workload that runs the frontend, the analysis clients and all
    eleven checkers; it bypasses every out-of-core layer.

``serve``
    A ``repro serve`` daemon in its own process on postgresql-like, with
    ``--max-edges-per-partition E//6 --memory-budget 8M``.  One
    load-generator process drives it over two closed-loop connections:
    a reader sending ``check`` requests back to back and a writer playing
    seeded source edits (``load`` of the edited program, then ``check``).
    The only workload where the service tier, the closure store and
    ``edge_diff`` run.

Every workload checks its outputs against references that do not come
from the engine (the Datalog oracle, the generator's ground truth); a
mismatch counts as a failed operation and never aborts the run.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import oracle, programs
from perfbench.tracer import ABSENT, Tracer, layer_metrics, leaf_coverage

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of this process: runs sharing a checkout never collide.
WORK = Path(__file__).resolve().parent / ".work" / str(os.getpid())

#: Set-ups per untraced run; ``setup_s`` is their median.  A served
#: set-up (daemon start plus cold load) costs seconds, so it repeats less.
SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3

#: Per-layer metrics only the served workload measures; zero elsewhere.
SERVICE_METRICS = (
    "service.overhead_ms", "service.shed", "service.deadline_hits", "service.inflight_max",
)

#: Reader requests cycle through these checkers (None = all of them).
CHECK_CYCLE = (None, "Null", "Taint", "Free", "Race")


@dataclass
class Scales:
    """Workload sizes: the benchmark's, or the smoke test's."""

    linux: float = 0.5
    postgresql: float = 1.0


SMOKE = Scales(linux=0.05, postgresql=0.1)


@dataclass
class Outcome:
    """One workload run: metrics as ``name -> (value, unit)``, op counts,
    and provenance that the report prints beside the metrics."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    info: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Lower this process's VmHWM to its current resident set."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def tail_percentile(values: List[float]) -> Dict[str, Any]:
    """The highest percentile with at least ten samples above it.

    With fewer than eleven samples no percentile has ten above it; the
    tail is then ``None`` and only the sample count is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return {"tail_s": None, "percentile": None, "samples": n}
    rank = n - 11
    return {"tail_s": ordered[rank], "percentile": 100.0 * rank / (n - 1), "samples": n}


def timed_setups(
    setup: Callable[[], Any],
    repeats: int,
    discard: Callable[[Any], None] = lambda result: None,
) -> Tuple[Any, float]:
    """Run ``setup`` ``repeats`` times; its last result and median time.

    ``discard`` releases each result but the last, outside the timing.
    """
    times = []
    result = None
    for repeat in range(repeats):
        if repeat:
            discard(result)
        start = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


def truth_keys(workload, checker: Optional[str] = None) -> set:
    return {
        t.match_key() for t in workload.ground_truth
        if checker is None or t.checker == checker
    }


#: An op returns its timed seconds and a ``verify`` callable that checks
#: its output and returns whether the output is correct.
Op = Callable[[], Tuple[float, Callable[[], bool]]]


def _run_op(op: Op, outcome: Outcome, tracer: Optional[Tracer] = None) -> Tuple[float, float]:
    """Run ``op`` once, verify and count it.

    Returns its timed seconds and the process's peak resident set in MiB
    up to the end of the op.  That peak is read before ``verify`` runs
    and lowered again after it, so the check's memory never counts.  A
    ``tracer`` records the op, but not its check, as a ``bench.op`` span.
    """
    if tracer is None:
        elapsed, verify = op()
    else:
        with tracer, tracer.span("bench.op"):
            elapsed, verify = op()
    peak = peak_rss_mb()
    ok = verify()
    del verify  # frees the op's output before the peak is lowered
    reset_peak_rss()
    outcome.attempted += 1
    outcome.failed += 0 if ok else 1
    return elapsed, peak


def _measure(
    op: Op, outcome: Outcome, seconds: float, trace: bool, setup_s: float, rounds: int = 1
) -> None:
    """Ops one at a time until their timed parts have used ``seconds``.

    Untraced, ops run in whole rounds of ``rounds`` (an op that cycles
    through inputs gives each the same weight), and the result is the
    end-to-end metrics: ``wall_s`` is the median time of a round, and
    ``peak_rss_mb`` is
    the largest peak of one op, counted from the end of set-up.  Traced,
    untraced and traced ops alternate, and the result is the per-layer
    metrics per traced op, their leaf coverage and the tracing overhead
    (median traced minus median untraced op time).
    """
    reset_peak_rss()  # set-up's peak is not the workload's
    if not trace:
        times: List[float] = []
        peaks: List[float] = []
        while not times or sum(times) < seconds or len(times) % rounds:
            elapsed, peak = _run_op(op, outcome)
            times.append(elapsed)
            peaks.append(peak)
        round_times = [sum(times[i : i + rounds]) for i in range(0, len(times), rounds)]
        outcome.metrics.update(
            wall_s=(statistics.median(round_times), "s"),
            ops_per_s=(len(times) / sum(times), "1/s"),
            peak_rss_mb=(max(peaks), "MiB"),
            setup_s=(setup_s, "s"),
        )
        outcome.info["op_times_s"] = times
        return
    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    _run_op(op, outcome)  # the process's first op is slower; compare warm ops
    while not traced or sum(plain) + sum(traced) < seconds:
        if len(plain) == len(traced):
            plain.append(_run_op(op, outcome)[0])
        else:
            traced.append(_run_op(op, outcome, tracer)[0])
    windows = [(s[3], s[4]) for s in tracer.spans if s[2] == "bench.op"]
    metrics = {
        name: value if value == ABSENT or _unit(name) == "ratio" else value / len(traced)
        for name, value in layer_metrics(
            tracer.spans, tracer.absent_spans, tracer.unread
        ).items()
    }
    metrics["trace.leaf_coverage"] = statistics.median(
        leaf_coverage(tracer.spans, lo, hi) for lo, hi in windows
    )
    metrics.update({name: 0.0 for name in SERVICE_METRICS})
    _per_layer(outcome, metrics, tracer.absent)
    _trace_overhead(outcome, statistics.median(plain), statistics.median(traced))


def _per_layer(outcome: Outcome, metrics: Dict[str, float], absent: List[str]) -> None:
    for name, value in metrics.items():
        outcome.metrics[name] = (value, _unit(name))
    outcome.metrics["trace.absent_targets"] = (float(len(set(absent))), "count")
    outcome.info["absent_targets"] = sorted(set(absent))


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", "_coverage", "_share")):
        return "ratio"
    return "count"


def _trace_overhead(outcome: Outcome, untraced: float, traced: float) -> None:
    outcome.metrics["trace.overhead_s"] = (traced - untraced, "s")
    outcome.metrics["trace.overhead_share"] = (
        (traced - untraced) / untraced if untraced else 0.0, "ratio"
    )


# ----------------------------------------------------------------------
# closure-ooc
# ----------------------------------------------------------------------


def closure_ooc(
    seed: int, seconds: float, trace: bool, scales: Scales = Scales()
) -> Outcome:
    from repro.engine import GraspanEngine
    from repro.frontend.graphs import pointer_graph
    from repro.grammar.builtin import pointsto_grammar_extended

    outcome = Outcome()
    seeds = programs.basket_seeds(seed)
    if trace:
        seeds = seeds[:1]  # a traced run breaks down the seed's own graph
    expected = [r["digest"] for r in oracle.closure_references(seeds, scales.linux)]

    def setup():
        return [
            pointer_graph(programs.linux_workload(s, scales.linux).compile())
            for s in seeds
        ]

    graphs, setup_s = timed_setups(setup, 1 if trace else SETUP_REPEATS)
    grammar = pointsto_grammar_extended()
    turns = itertools.count()

    def op():
        turn = next(turns) % len(graphs)
        graph = graphs[turn]
        max_edges = max(1, graph.num_edges // 6)
        workdir = fresh_dir("closure-ooc")
        start = time.perf_counter()
        computation = GraspanEngine(
            grammar, max_edges_per_partition=max_edges, workdir=workdir
        ).run(graph)
        elapsed = time.perf_counter() - start
        outcome.info["supersteps"][seeds[turn]] = computation.stats.num_supersteps

        def verify() -> bool:
            # The closure is read back from its partitions, so the
            # workdir goes only after the digest.
            try:
                return oracle.engine_digest(computation) == expected[turn]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)

        return elapsed, verify

    outcome.info.update(
        graph_seeds=seeds, edges=[g.num_edges for g in graphs], supersteps={}
    )
    _measure(op, outcome, seconds, trace, setup_s, rounds=len(graphs))
    return outcome


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def analyze(seed: int, seconds: float, trace: bool, scales: Scales = Scales()) -> Outcome:
    from repro.checkers import check_program
    from repro.frontend import compile_program

    outcome = Outcome()

    def run_once(workload):
        start = time.perf_counter()
        result = check_program(compile_program(workload.sources))
        elapsed = time.perf_counter() - start

        def verify() -> bool:
            reported = {r.match_key() for r in result.all_reports("augmented")}
            return truth_keys(workload) <= reported

        return elapsed, verify

    def setup():
        # Generating the sources, plus one pass over a program a tenth
        # the size, so lazy imports and first-call costs are paid here
        # rather than in the first timed op.
        run_once(programs.linux_workload(seed, scales.linux / 10))[1]()
        return programs.linux_workload(seed, scales.linux)

    workload, setup_s = timed_setups(setup, 1 if trace else SETUP_REPEATS)
    outcome.info["modules"] = len(workload.sources)
    _measure(lambda: run_once(workload), outcome, seconds, trace, setup_s)
    return outcome


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` child process over a fresh closure store."""

    def __init__(self, name: str, max_edges: int, spans: Optional[Path] = None):
        self.dir = fresh_dir(name)
        self.store = self.dir / "store"
        serve = [
            "serve", "--store", str(self.store),
            "--max-edges-per-partition", str(max_edges),
            "--memory-budget", "8M",
        ]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [
                sys.executable, "-m", "perfbench.serve_launcher",
                "--spans", str(spans), "--", *serve,
            ]
        self.log = open(self.dir / "stderr.log", "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=oracle.child_env(), stdout=subprocess.DEVNULL, stderr=self.log
        )
        self.address = self._await_announce(timeout=60.0)

    def _await_announce(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.log.seek(0)
            match = re.search(r"serving on ([\d.]+):(\d+)", self.log.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.log.seek(0)
        log = self.log.read()[-2000:]
        self.stop()
        raise RuntimeError(f"daemon did not start: {log}")

    def client(self):
        from repro.service.client import ServiceClient
        from repro.util.retry import RetryPolicy

        return ServiceClient(*self.address, timeout=170.0, retry=RetryPolicy(attempts=1))

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill if it will not drain."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


@dataclass
class _Phase:
    """What one serve window recorded."""

    check_ms: List[float] = field(default_factory=list)
    check_ok: List[bool] = field(default_factory=list)
    check_rids: List[Tuple[str, float]] = field(default_factory=list)
    edits: List[Dict[str, Any]] = field(default_factory=list)
    inflight_max: int = 0
    store_mb: float = 0.0
    start_ns: int = 0
    end_ns: int = 0
    reader_seconds: float = 0.0
    errors: List[str] = field(default_factory=list)


def _serve_window(daemon: Daemon, edits, workload, seconds: float, trace: bool) -> _Phase:
    """Reader and writer side by side, both closed loop.

    The writer plays whole cycles of :data:`programs.DELETE_EVERY` edits,
    one more only while it is expected to end within ``seconds``, and
    the reader runs until the writer stops, so every run measures the
    same add/delete mix.
    """
    from repro.service.client import ServiceError

    phase = _Phase()
    required = {ck: truth_keys(workload, ck) for ck in CHECK_CYCLE}
    writer_done = threading.Event()
    phase.start_ns = time.perf_counter_ns()
    start = time.perf_counter()

    def reported(reports) -> set:
        return {(r["checker"], r["function"], r["variable"]) for r in reports}

    def reader() -> None:
        with daemon.client() as client:
            n = 0
            while not writer_done.is_set():
                checker = CHECK_CYCLE[n % len(CHECK_CYCLE)]
                message: Dict[str, Any] = {"op": "check", "program": "prog"}
                if checker is not None:
                    message["checker"] = checker
                if trace:
                    message["trace_id"] = f"r{n}"
                t0 = time.perf_counter()
                try:
                    reports = client.request(message)["reports"]
                    ok = required[checker] <= reported(reports)
                    rtt = time.perf_counter() - t0
                    if trace and n % 10 == 0:
                        inflight = client.health()["inflight"]
                        phase.inflight_max = max(phase.inflight_max, inflight)
                except (ServiceError, OSError) as exc:
                    phase.errors.append(f"check: {exc}")
                    ok, rtt = False, time.perf_counter() - t0
                phase.check_ms.append(rtt * 1e3)
                phase.check_ok.append(ok)
                if trace:
                    phase.check_rids.append((f"r{n}", rtt))
                n += 1
        phase.reader_seconds = time.perf_counter() - start

    def writer() -> None:
        try:
            with daemon.client() as client:
                for index, sources in enumerate(edits):
                    cycles, within = divmod(index, programs.DELETE_EVERY)
                    elapsed = time.perf_counter() - start
                    if cycles and not within and elapsed * (cycles + 1) / cycles > seconds:
                        break
                    phase.edits.append(edit(client, index, sources))
                    if index == programs.DELETE_EVERY - 1:
                        phase.store_mb = dir_mb(daemon.store)
        finally:
            writer_done.set()

    def edit(client, index: int, sources) -> Dict[str, Any]:
        record: Dict[str, Any] = {"index": index, "kind": programs.edit_kind(index)}
        load = {"op": "load", "name": "prog", "sources": [list(s) for s in sources]}
        check = {"op": "check", "program": "prog"}
        if trace:
            load["trace_id"], check["trace_id"] = f"w{index}l", f"w{index}c"
        t0 = time.perf_counter()
        try:
            closures = client.request(load)["closures"]
            reports = client.request(check)["reports"]
            record["seconds"] = time.perf_counter() - t0
            record["paths"] = {k: v["source"] for k, v in closures.items()}
            record["supersteps"] = sum(v["supersteps"] for v in closures.values())
            record["final_edges"] = closures["pointsto"]["final_edges"]
            record["reports_ok"] = required[None] <= reported(reports)
        except (ServiceError, OSError, KeyError) as exc:
            phase.errors.append(f"edit {index}: {exc}")
            record["seconds"] = time.perf_counter() - t0
            record["reports_ok"] = False
        return record

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.end_ns = time.perf_counter_ns()
    return phase


def _start_serving(name: str, max_edges: int, workload, spans: Optional[Path] = None) -> Daemon:
    """One set-up: start a daemon and cold-load the original program."""
    daemon = Daemon(name, max_edges, spans)
    try:
        with daemon.client() as client:
            client.load("prog", sources=workload.sources)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def _serve_phase(
    seed: int,
    seconds: float,
    scales: Scales,
    workload,
    max_edges: int,
    repeats: int,
    spans: Optional[Path],
) -> Tuple[_Phase, Dict[str, Any]]:
    """Set up ``repeats`` times (keeping the last daemon), then serve.

    Each daemon but the last is drained and removed outside the timing.
    """

    def discard(old: Daemon) -> None:
        old.stop()
        old.remove()

    daemon, setup_s = timed_setups(
        lambda: _start_serving("serve", max_edges, workload, spans), repeats, discard
    )
    stats: Dict[str, Any] = {"setup_s": setup_s}
    try:
        edits = programs.edit_stream(workload.sources, seed)
        phase = _serve_window(daemon, edits, workload, seconds, spans is not None)
        with daemon.client() as client:
            health = client.health()
        stats.update(
            shed=health["shed"],
            deadline_hits=health["deadline_hits"],
            peak_rss_mb=peak_rss_mb(daemon.proc.pid),
        )
    finally:
        stats["exit_status"] = daemon.stop()
    if spans is not None:
        stats["trace"] = json.loads(spans.read_text())
    daemon.remove()
    return phase, stats


def _score_serve(
    outcome: Outcome, phase: _Phase, stats: Dict[str, Any], seed: int, scales: Scales
) -> None:
    """Count operations and failures; compare each edit to the oracle.

    The daemon's drain on SIGTERM counts as one more operation, failed
    unless it exits 0.
    """
    references = oracle.serve_references(seed, scales.postgresql, len(phase.edits))
    outcome.attempted += len(phase.check_ok) + len(phase.edits) + 1
    outcome.failed += phase.check_ok.count(False) + (stats["exit_status"] != 0)
    for record, reference in zip(phase.edits, references):
        record["oracle_ok"] = record.get("final_edges") == reference["tuples"]
        if not (record["oracle_ok"] and record["reports_ok"]):
            outcome.failed += 1
    if phase.errors:
        outcome.info["errors"] = phase.errors[:10]


def _path_mix(edits: List[Dict[str, Any]]) -> Dict[str, float]:
    """Share of edits whose pointer closure took each store path."""
    paths = [e.get("paths", {}).get("pointsto", "failed") for e in edits]
    return {p: paths.count(p) / len(paths) for p in sorted(set(paths))} if paths else {}


def serve(seed: int, seconds: float, trace: bool, scales: Scales = Scales()) -> Outcome:
    from repro.frontend.graphs import pointer_graph

    outcome = Outcome()
    workload = programs.postgresql_workload(seed, scales.postgresql)
    max_edges = max(1, pointer_graph(workload.compile()).num_edges // 6)
    outcome.info["max_edges_per_partition"] = max_edges

    if trace:
        # Untraced then traced daemon, half the window each: the
        # difference in edit latency is the tracing overhead.
        plain, plain_stats = _serve_phase(
            seed, seconds / 2, scales, workload, max_edges, 1, None
        )
        _score_serve(outcome, plain, plain_stats, seed, scales)
        spans_path = WORK / "serve-spans.json"
        phase, stats = _serve_phase(
            seed, seconds / 2, scales, workload, max_edges, 1, spans_path
        )
        _score_serve(outcome, phase, stats, seed, scales)
        # The daemon's clock is the same monotonic clock: keep the spans
        # of the window, not those of the set-up's cold load.
        trace_data = stats["trace"]
        spans = [tuple(s) for s in trace_data["spans"] if s[3] >= phase.start_ns]
        metrics = layer_metrics(
            spans, trace_data["absent_spans"], trace_data["unread"]
        )
        metrics["trace.leaf_coverage"] = leaf_coverage(spans, phase.start_ns, phase.end_ns)
        roots = {s[6]: (s[4] - s[3]) / 1e9 for s in spans if s[2] == "service.check"}
        overheads = [
            (rtt - roots[rid]) * 1e3 for rid, rtt in phase.check_rids if rid in roots
        ]
        metrics["service.overhead_ms"] = statistics.median(overheads) if overheads else 0.0
        metrics["service.shed"] = float(stats["shed"])
        metrics["service.deadline_hits"] = float(stats["deadline_hits"])
        metrics["service.inflight_max"] = float(phase.inflight_max)
        _per_layer(outcome, metrics, trace_data["absent"])
        _trace_overhead(
            outcome,
            statistics.median(e["seconds"] for e in plain.edits),
            statistics.median(e["seconds"] for e in phase.edits),
        )
        outcome.info["store_paths"] = _path_mix(phase.edits)
        return outcome

    phase, stats = _serve_phase(
        seed, seconds, scales, workload, max_edges, SERVE_SETUP_REPEATS, None
    )
    _score_serve(outcome, phase, stats, seed, scales)
    edit_s = [e["seconds"] for e in phase.edits]
    checks = sorted(phase.check_ms)
    # wall_s is the edit-to-report median; ops_per_s counts the reader's
    # checks, which run beside the edits and slow down when an edit
    # holds the interpreter lock longer.
    outcome.metrics.update(
        wall_s=(statistics.median(edit_s), "s"),
        ops_per_s=(len(checks) / phase.reader_seconds, "1/s"),
        peak_rss_mb=(stats["peak_rss_mb"], "MiB"),
        setup_s=(stats["setup_s"], "s"),
    )
    outcome.info.update(
        check_p50_ms=statistics.median(checks),
        check_p99_ms=checks[min(len(checks) - 1, int(0.99 * len(checks)))],
        store_mb=phase.store_mb,
        edit_to_report=tail_percentile(edit_s),
        edits=[
            (e["kind"], round(e["seconds"], 3), e.get("paths", {}).get("pointsto"),
             e.get("supersteps"))
            for e in phase.edits
        ],
        checks=len(checks),
        store_paths=_path_mix(phase.edits),
        daemon_exit_status=stats["exit_status"],
    )
    return outcome


WORKLOADS = {"closure-ooc": closure_ooc, "analyze": analyze, "serve": serve}
DEFAULT_SEEDS = {
    "closure-ooc": programs.LINUX_SEED,
    "analyze": programs.LINUX_SEED,
    "serve": programs.POSTGRESQL_SEED,
}
