"""Interprocedural taint/injection analysis: a grammar client.

Graspan's thesis is that a new interprocedural analysis should cost "a
grammar + a graph" (§3).  This module is the demonstration: untrusted
input (``input()``) must not reach an injection sink (``query()`` /
``exec()``) without passing the cleanser (``sanitize()``), and the whole
judgment is one two-production closure::

    TT ::= TS | TT TD

``TS`` edges connect the shared TAINT vertex to every ``input()``
result; ``TD`` edges are the taint-propagating flows — assignments and
parameter/return bindings (already context-sensitively wired by graph
generation, so flows through call chains are interprocedural for free),
arithmetic, and alias bridges from the pointer closure so taint crosses
the heap where stores and loads may touch the same cell.  Sanitization
is *structural*: ``sanitize()`` contributes no edge, so a ``TT`` edge
into a vertex literally means "untrusted input reaches this variable
with no cleanser on any path".

Finding the injection flows is then a linear scan over the lowered
``sink`` statements: a sink argument whose clone vertex carries a ``TT``
edge is an injection.  No per-sink graph traversal, no second closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.pointsto import PointsToResult
from repro.engine.engine import GraspanComputation, GraspanEngine
from repro.frontend.graphgen import ProgramGraphs
from repro.frontend.graphs import taint_graph
from repro.grammar.builtin import LABEL_TT, taint_grammar

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TaintFlow:
    """One unsanitized source→sink flow: a sink argument taint reaches."""

    function: str
    module: str
    line: int
    sink: str  # "query" or "exec"
    var: str  # the tainted sink argument
    contexts: Tuple[int, ...]  # clone contexts the flow occurs in

    def describe(self) -> str:
        where = f"{self.function}:{self.line}"
        clones = len(self.contexts)
        suffix = f" [{clones} context{'s' if clones != 1 else ''}]"
        return (
            f"injection: unsanitized input reaches {self.sink}({self.var}) "
            f"at {where}{suffix}"
        )


class TaintResult:
    """The taint closure plus the injection flows derived from it."""

    def __init__(
        self,
        pg: ProgramGraphs,
        computation: GraspanComputation,
    ) -> None:
        self.pg = pg
        self.namer = pg.namer
        self.computation = computation
        _, tt_dst = computation.edges_with_label_arrays(LABEL_TT)
        # Every TT edge starts at the single TAINT vertex; the tainted
        # set is just the targets.
        self.tainted: Set[int] = {int(v) for v in tt_dst}
        self.flows: List[TaintFlow] = self._find_flows()

    # -- closure queries ------------------------------------------------
    def vertex_tainted(self, vid: int) -> bool:
        return vid in self.tainted

    def may_receive(self, function: str, var: str) -> bool:
        """May unsanitized input reach ``function::var`` in any context?"""
        return any(
            vid in self.tainted
            for vid in self.namer.vertices_for(function, var)
        )

    def contexts_reaching(self, function: str, var: str) -> List[int]:
        """The clone contexts in which taint reaches the variable."""
        return [
            self.namer.context(vid)
            for vid in self.namer.vertices_for(function, var)
            if vid in self.tainted
        ]

    @property
    def num_tainted(self) -> int:
        return len(self.tainted)

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    # -- flow extraction ------------------------------------------------
    def _find_flows(self) -> List[TaintFlow]:
        """Scan ``sink`` statements; report tainted arguments per clone."""
        flows: List[TaintFlow] = []
        namer = self.namer
        for fname in sorted(self.pg.lowered.functions):
            func = self.pg.lowered.functions[fname]
            local_names = set(func.params) | set(func.locals)
            sinks = func.statements_of_kind("sink")
            if not sinks:
                continue
            contexts = sorted(self.pg.instance_contexts.get(fname, ()))
            for stmt in sinks:
                for var in stmt.args:
                    if not var:
                        continue
                    hit_contexts: List[int] = []
                    for ctx in contexts:
                        vid = _var_vid(self.pg, fname, ctx, local_names, var)
                        if vid is not None and vid in self.tainted:
                            hit_contexts.append(ctx)
                    if hit_contexts:
                        flows.append(
                            TaintFlow(
                                function=fname,
                                module=func.module,
                                line=stmt.line,
                                sink=stmt.callee or "sink",
                                var=var,
                                contexts=tuple(hit_contexts),
                            )
                        )
        return flows


def _var_vid(
    pg: ProgramGraphs,
    fname: str,
    ctx: int,
    local_names: Set[str],
    var: str,
) -> Optional[int]:
    """The vertex of ``var`` as seen from clone ``ctx`` of ``fname``."""
    namer = pg.namer
    if var in local_names:
        for vid in namer.vertices_for(fname, var):
            if namer.context(vid) == ctx:
                return vid
        return None
    vids = namer.vertices_for("", "@" + var)
    return vids[0] if vids else None


@dataclass
class TaintAnalysis:
    """Runs the taint grammar over the taint graph.

    Structured exactly like :class:`SourceTrackingAnalysis` — one engine
    run over an analysis-specific graph; alias bridges come from an
    existing :class:`PointsToResult` when provided (heap-aware taint).
    """

    max_edges_per_partition: Optional[int] = None
    workdir: Optional[PathLike] = None
    parallel_backend: Optional[str] = None
    #: Optional :class:`repro.engine.store.ClosureStore`; see
    #: :class:`repro.analysis.pointsto.PointsToAnalysis`.
    closure_store: Optional[object] = None

    def run(
        self,
        pg: ProgramGraphs,
        pointsto: Optional[PointsToResult] = None,
    ) -> TaintResult:
        alias_pairs: Sequence[Tuple[int, int]] = ()
        if pointsto is not None:
            alias_pairs = pointsto.deref_alias_pairs()
        graph = taint_graph(pg, alias_pairs=alias_pairs)
        if self.closure_store is not None:
            computation = self.closure_store.closure(taint_grammar(), graph)
        else:
            engine = GraspanEngine(
                taint_grammar(),
                max_edges_per_partition=self.max_edges_per_partition,
                workdir=self.workdir,
                parallel_backend=self.parallel_backend,
            )
            computation = engine.run(graph)
        return TaintResult(pg, computation)
