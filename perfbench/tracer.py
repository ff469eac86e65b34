"""Outside-in span tracer for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces module and class attributes of the program with timing
wrappers *at the point where they are looked up*: a function imported
into another module with ``from x import f`` is patched in the importing
module, because that is the name the caller resolves at call time.

Each thread keeps its own span stack, so spans opened on the I/O
pipeline's thread or on the daemon's worker threads nest only under
spans of the same thread and self times never go negative.  A target
that no longer exists (a refactor renamed or deleted it) is recorded as
absent instead of failing the run; its metrics then read ``absent``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Value written for a metric whose every wrapped target is missing.
#: The JSON result carries numbers only; the report line says ``absent``.
ABSENT = -1.0

# One span: (span id, parent id or 0, name, start ns, end ns, thread id,
# request id or None, counts recorded by the wrapped call).
Span = Tuple[int, int, str, int, int, int, Optional[str], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``where`` is ``module:attr`` or ``module:Class.attr``; ``span`` names
    the spans it records.  ``count`` maps ``(result, args)`` to counter
    increments; ``request_id`` maps the call's arguments to the id of
    the request whose root span it opens.
    """

    where: str
    span: str
    count: Optional[Callable[[Any, tuple], Dict[str, float]]] = None
    request_id: Optional[Callable[[tuple], Optional[str]]] = None


def _len0(result: Any) -> int:
    return int(len(result[0]))


#: Counter -> EngineStats field, read from each finished session.
STATS_FIELDS = {
    "pipeline.load_wait_s": "load_wait_seconds",
    "pipeline.flush_wait_s": "flush_wait_seconds",
    "pipeline.prefetch_issued": "prefetch_issued",
    "pipeline.prefetch_hits": "prefetch_hits",
    "partition.final_partitions": "final_partitions",
}


def _stats_counts(result: Any, _args: tuple) -> Dict[str, float]:
    """EngineStats fields of a finished session, read from its result."""
    out: Dict[str, float] = {}
    for key, attr in STATS_FIELDS.items():
        value = getattr(result.stats, attr, None)
        if value is not None:
            out[key] = float(value)
    return out


def _store_path(result: Any, _args: tuple) -> Dict[str, float]:
    source = getattr(result.stats, "closure_source", None) or "cold"
    return {f"store.{source}": 1}


def _graphs_counts(result: Any, _args: tuple) -> Dict[str, float]:
    return {
        "frontend.vertices": result.num_vertices,
        "frontend.edges": result.num_edges,
        "frontend.inlines": result.inline_count,
    }


def _request_id(args: tuple) -> Optional[str]:
    request = args[1] if len(args) > 1 else None
    if isinstance(request, dict):
        rid = request.get("trace_id")
        return None if rid is None else str(rid)
    return None


CHECKER_CLASSES = (
    ("asyncmisuse", "AsyncChecker"),
    ("block", "BlockChecker"),
    ("free", "FreeChecker"),
    ("lock", "LockChecker"),
    ("null", "NullChecker"),
    ("pnull", "PNullChecker"),
    ("race", "RaceChecker"),
    ("range", "RangeChecker"),
    ("size", "SizeChecker"),
    ("taint", "TaintChecker"),
    ("untest", "UNTestChecker"),
)

#: Every wrapped call.  Spans sharing a name are summed into one metric.
TARGETS: Tuple[Target, ...] = (
    # repro.frontend: compile_program looks these up in the package.
    Target("repro.frontend:parse_files", "frontend.parse"),
    Target("repro.frontend:lower_program", "frontend.lower"),
    Target("repro.frontend:generate_graphs", "frontend.graphgen", _graphs_counts),
    # repro.partition and its storage.
    Target("repro.engine.session:preprocess", "partition.preprocess"),
    Target("repro.partition.pset:PartitionSet.acquire", "partition.acquire"),
    Target("repro.partition.pset:PartitionSet.split", "partition.split"),
    Target(
        "repro.partition.partition:Partition.destination_counts",
        "partition.dest_counts",
    ),
    Target("repro.partition.storage:PartitionStore.read", "storage.read"),
    Target("repro.partition.storage:PartitionStore.write_to", "storage.write"),
    # repro.engine superstep.
    Target("repro.engine.session:ClosureSession.step", "engine.step"),
    Target(
        "repro.engine.session:ClosureSession.run", "engine.session", _stats_counts
    ),
    Target(
        "repro.engine.session:run_superstep",
        "engine.superstep",
        lambda r, a: {"engine.iterations": r.iterations},
    ),
    Target(
        "repro.engine.parallel:JoinBackend.join_edge_list",
        "engine.join",
        lambda r, a: {"engine.join_candidates": _len0(r)},
    ),
    Target("repro.engine.superstep:_dedup_pairs", "engine.dedup"),
    Target("repro.engine.superstep:_merge_disjoint", "engine.merge"),
    Target(
        "repro.engine.superstep:_fresh_pairs",
        "engine.fresh",
        lambda r, a: {"engine.fresh_edges": _len0(r)},
    ),
    Target("repro.engine.superstep:_unary_closure_pairs", "engine.unary"),
    Target("repro.engine.session:_combine_views", "engine.combine"),
    # Scheduling, DDM and checkpoint.
    Target("repro.engine.scheduler:Scheduler.choose_pair", "engine.schedule"),
    Target("repro.engine.scheduler:Scheduler.peek_pair", "engine.schedule"),
    Target("repro.engine.session:record_added_edges", "engine.ddm_record"),
    Target("repro.engine.store:record_added_edges", "engine.ddm_record"),
    Target("repro.engine.checkpoint:RunJournal.commit", "engine.commit"),
    Target("repro.partition.pset:PartitionSet.flush_dirty", "engine.flush_dirty"),
    # repro.engine.store.
    Target("repro.engine.store:ClosureStore.closure", "store.closure", _store_path),
    Target("repro.engine.store:ClosureStore._find_base", "store.find_base"),
    Target("repro.engine.store:edge_diff", "store.edge_diff"),
    Target("repro.engine.store:seed_delta_edges", "store.seed"),
    Target("repro.engine.store:ClosureStore._degraded_cold", "store.degraded_call"),
    # repro.analysis: each class's run.
    Target("repro.analysis.pointsto:PointsToAnalysis.run", "analysis.pointsto"),
    Target("repro.analysis.dataflow:NullDataflowAnalysis.run", "analysis.nullflow"),
    Target(
        "repro.analysis.dataflow:TaintDataflowAnalysis.run", "analysis.taintflow"
    ),
    Target("repro.analysis.taint:TaintAnalysis.run", "analysis.taint"),
    Target("repro.analysis.escape:EscapeAnalysis.run", "analysis.escape"),
    Target("repro.analysis.races:RaceAnalysis.run", "analysis.races"),
    # repro.checkers.
    Target("repro.checkers.driver:run_checkers", "checkers.run"),
    *(
        Target(
            f"repro.checkers.{module}:{cls}.{method}",
            "checkers.check",
            lambda r, a: {"checkers.reports": len(r)},
        )
        for module, cls in CHECKER_CLASSES
        for method in ("check_augmented", "check_baseline")
    ),
    # repro.service: each per-verb handler is its request's root span.
    Target(
        "repro.service.daemon:ClosureDaemon._load", "service.load",
        request_id=_request_id,
    ),
    Target(
        "repro.service.daemon:ClosureDaemon._check", "service.check",
        request_id=_request_id,
    ),
)

#: Per-layer metric -> (unit, span names summed | None, counter names).
#: Time metrics sum the outermost spans of the listed names.
TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "frontend.parse_s": ("frontend.parse",),
    "frontend.lower_s": ("frontend.lower",),
    "frontend.graphgen_s": ("frontend.graphgen",),
    "partition.preprocess_s": ("partition.preprocess",),
    "partition.acquire_s": ("partition.acquire",),
    "partition.split_s": ("partition.split",),
    "partition.dest_counts_s": ("partition.dest_counts",),
    "storage.read_s": ("storage.read",),
    "storage.write_s": ("storage.write",),
    "engine.superstep_s": ("engine.superstep",),
    "engine.join_s": ("engine.join",),
    "engine.dedup_s": ("engine.dedup",),
    "engine.merge_s": ("engine.merge",),
    "engine.fresh_s": ("engine.fresh",),
    "engine.unary_s": ("engine.unary",),
    "engine.combine_s": ("engine.combine",),
    "engine.schedule_s": ("engine.schedule",),
    "engine.ddm_record_s": ("engine.ddm_record",),
    "engine.checkpoint_s": ("engine.commit", "engine.flush_dirty"),
    "store.closure_s": ("store.closure",),
    "store.find_base_s": ("store.find_base",),
    "store.edge_diff_s": ("store.edge_diff",),
    "store.seed_s": ("store.seed",),
    "analysis.pointsto_s": ("analysis.pointsto",),
    "analysis.nullflow_s": ("analysis.nullflow",),
    "analysis.taintflow_s": ("analysis.taintflow",),
    "analysis.taint_s": ("analysis.taint",),
    "analysis.escape_s": ("analysis.escape",),
    "analysis.races_s": ("analysis.races",),
    "checkers.run_s": ("checkers.run",),
    "checkers.check_s": ("checkers.check",),
}

#: Call counts: metric -> span name whose calls are counted.
CALL_COUNTS: Dict[str, str] = {
    "partition.acquires": "partition.acquire",
    "partition.splits": "partition.split",
    "storage.reads": "storage.read",
    "storage.writes": "storage.write",
    "engine.supersteps": "engine.superstep",
    "engine.commits": "engine.commit",
    "store.degraded": "store.degraded_call",
}

#: Counters summed from the wrappers' ``count`` hooks, with their spans.
COUNTERS: Dict[str, str] = {
    "frontend.vertices": "frontend.graphgen",
    "frontend.edges": "frontend.graphgen",
    "frontend.inlines": "frontend.graphgen",
    "engine.iterations": "engine.superstep",
    "partition.final_partitions": "engine.session",
    "pipeline.load_wait_s": "engine.session",
    "pipeline.flush_wait_s": "engine.session",
    "store.cache": "store.closure",
    "store.incremental": "store.closure",
    "store.cold": "store.closure",
    "checkers.reports": "checkers.check",
}


def _resolve(where: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, current value)``; raises if missing."""
    module_name, path = where.split(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Records spans of wrapped calls, one stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Targets that could not be found, as ``module:attr``.
        self.absent: List[str] = []
        #: Span names whose ``count`` hook failed on a changed result.
        self.unread: set = set()
        self._installed: set = set()
        self._failed: set = set()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, request_id: Optional[str] = None
    ) -> Iterator[Dict[str, float]]:
        """Record one span around the ``with`` body on the calling thread.

        ``request_id`` names the request of a root span; nested spans
        inherit their root's.  The body may put counts in the yielded dict.
        """
        stack = self._stack()
        parent, rid = stack[-1] if stack else (0, request_id)
        sid = next(self._ids)
        stack.append((sid, rid))
        counts: Dict[str, float] = {}
        start = time.perf_counter_ns()
        try:
            yield counts
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, end, threading.get_ident(), rid, counts)
            )

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = target.request_id(args) if target.request_id else None
            with tracer.span(target.span, rid) as counts:
                result = fn(*args, **kwargs)
                if target.count is not None:
                    try:
                        counts.update(target.count(result, args))
                    except (AttributeError, TypeError, IndexError):
                        # The result changed shape in a refactor: its
                        # counters read absent rather than failing the run.
                        tracer.unread.add(target.span)
            return result

        return traced

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Target] = TARGETS) -> "Tracer":
        for target in targets:
            try:
                owner, attr, current = _resolve(target.where)
            except (ImportError, AttributeError):
                current = None
            if not callable(current):
                self.absent.append(target.where)
                self._failed.add(target.span)
                continue
            own = attr in vars(owner)
            self._undo.append((owner, attr, vars(owner).get(attr), own))
            setattr(owner, attr, self.wrap(current, target))
            self._installed.add(target.span)
        return self

    @property
    def absent_spans(self) -> List[str]:
        """Span names none of whose targets could be installed."""
        return sorted(self._failed - self._installed)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "absent": sorted(set(self.absent)),
            "absent_spans": self.absent_spans,
            "unread": sorted(self.unread),
        }


# ----------------------------------------------------------------------
# analysis of recorded spans
# ----------------------------------------------------------------------


def _outermost_seconds(spans: Sequence[Span], names: Sequence[str]) -> float:
    """Sum of spans named ``names`` not nested in another span of ``names``."""
    wanted = set(names)
    by_id = {s[0]: s for s in spans}
    total = 0
    for sid, parent, name, start, end, *_ in spans:
        if name not in wanted:
            continue
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[2] in wanted:
                nested = True
                break
            ancestor = by_id.get(ancestor[1])
        if not nested:
            total += end - start
    return total / 1e9


def self_seconds(spans: Sequence[Span], name: str) -> float:
    """Total self time of ``name`` spans: duration minus their children.

    Children are recorded on the parent's own thread, so they nest
    strictly inside it and never overlap each other.
    """
    child_ns: Dict[int, int] = {}
    for _sid, parent, _name, start, end, *_ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return sum(
        (end - start) - child_ns.get(sid, 0)
        for sid, _p, n, start, end, *_ in spans
        if n == name
    ) / 1e9


def leaf_coverage(spans: Sequence[Span], start_ns: int, end_ns: int) -> float:
    """Share of ``[start_ns, end_ns]`` covered by the union of leaf spans."""
    parents = {s[1] for s in spans if s[1]}
    intervals = sorted(
        (max(s[3], start_ns), min(s[4], end_ns))
        for s in spans
        if s[0] not in parents and s[4] > start_ns and s[3] < end_ns
    )
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    wall = end_ns - start_ns
    return covered / wall if wall > 0 else 0.0


def _join_fresh_edges(spans: Sequence[Span]) -> float:
    """Fresh edges found among join candidates.

    A superstep also calls ``_fresh_pairs`` once before its first join,
    on the edges its unary productions derive; those are not join output.
    Only ``engine.fresh`` spans that start after an ``engine.join`` span
    under the same parent count.
    """
    first_join: Dict[int, int] = {}
    for _sid, parent, name, start, *_ in spans:
        if name == "engine.join":
            first_join[parent] = min(start, first_join.get(parent, start))
    return sum(
        counts.get("engine.fresh_edges", 0.0)
        for _sid, parent, name, start, _end, _tid, _rid, counts in spans
        if name == "engine.fresh" and start > first_join.get(parent, start)
    )


def layer_metrics(
    spans: Sequence[Span],
    absent_spans: Sequence[str] = (),
    unread: Sequence[str] = (),
) -> Dict[str, float]:
    """Every per-layer metric of :data:`TIME_METRICS` and friends.

    A metric whose spans were never installed, or whose counter could
    not be read from a call's result, reads :data:`ABSENT`.
    """
    counters: Dict[str, float] = {}
    for span in spans:
        for key, value in span[7].items():
            counters[key] = counters.get(key, 0.0) + float(value)
    gone = set(absent_spans)
    unreadable = gone | set(unread)
    out: Dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        if all(n in gone for n in names):
            out[metric] = ABSENT
        else:
            out[metric] = _outermost_seconds(spans, names)
    names_called = [s[2] for s in spans]
    for metric, name in CALL_COUNTS.items():
        out[metric] = ABSENT if name in gone else float(names_called.count(name))
    sessions = any(s[2] == "engine.session" for s in spans)
    for metric, name in COUNTERS.items():
        missing = name in unreadable or (
            sessions and metric in STATS_FIELDS and metric not in counters
        )
        out[metric] = ABSENT if missing else counters.get(metric, 0.0)
    out["engine.step_self_s"] = (
        ABSENT if "engine.step" in gone else self_seconds(spans, "engine.step")
    )
    candidates = counters.get("engine.join_candidates", 0.0)
    out["engine.join_yield"] = (
        ABSENT
        if {"engine.join", "engine.fresh"} & unreadable
        else (_join_fresh_edges(spans) / candidates if candidates else 0.0)
    )
    issued = counters.get("pipeline.prefetch_issued", 0.0)
    out["pipeline.prefetch_hit_ratio"] = (
        ABSENT
        if "engine.session" in unreadable
        or (sessions and "pipeline.prefetch_issued" not in counters)
        else (counters.get("pipeline.prefetch_hits", 0.0) / issued if issued else 0.0)
    )
    return out
