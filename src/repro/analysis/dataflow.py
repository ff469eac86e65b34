"""Source-tracking dataflow analyses: NULL propagation and taint.

The paper's dataflow analysis "was designed specifically to track NULL
value propagation ... built based on the pointer analysis because it
needs to query pointer analysis results when analyzing heap loads and
stores" (§5).  We implement that as a generic *source-tracking* closure —
a two-production grammar (``NF ::= N | NF DF``) over a graph whose DF
edges are assignments plus pointer-analysis-derived heap bridges — and
instantiate it twice:

* :class:`NullDataflowAnalysis` — sources are NULL assignments; a
  variable with an ``NF`` edge from the NULL vertex *may be NULL*.
* :class:`TaintDataflowAnalysis` — sources are ``get_user()`` results
  and flow additionally crosses arithmetic; feeds the Range checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.engine.engine import GraspanComputation, GraspanEngine
from repro.frontend.graphgen import ProgramGraphs
from repro.frontend.graphs import dataflow_graph
from repro.grammar.builtin import LABEL_NF, nullflow_grammar
from repro.analysis.pointsto import PointsToResult

PathLike = Union[str, Path]


class SourceFlowResult:
    """Which vertices a tracked source value may reach."""

    def __init__(
        self,
        pg: ProgramGraphs,
        computation: GraspanComputation,
        kind: str,
    ) -> None:
        self.pg = pg
        self.namer = pg.namer
        self.computation = computation
        self.kind = kind  # "null" or "taint"
        nf_src, nf_dst = computation.edges_with_label_arrays(LABEL_NF)
        # All NF edges start at a source vertex (the single NULL/USER
        # vertex); the reached set is just the targets.
        self.reached: Set[int] = {int(v) for v in nf_dst}

    def vertex_may_receive(self, vid: int) -> bool:
        return vid in self.reached

    def contexts_reaching(self, function: str, var: str) -> List[int]:
        """The contexts (clone ids) in which the source reaches the var."""
        return [
            self.namer.context(vid)
            for vid in self.namer.vertices_for(function, var)
            if vid in self.reached
        ]

    def may_receive(self, function: str, var: str) -> bool:
        """May the source value reach ``function::var`` in *any* context?"""
        return any(
            vid in self.reached for vid in self.namer.vertices_for(function, var)
        )

    def never_receives(self, function: str, var: str) -> bool:
        """True when *no* context lets the source reach the variable.

        This is the `must not be NULL` judgment behind the UNTest
        checker: flow-insensitively, a pointer no context can make NULL
        does not need a NULL test.
        """
        vids = self.namer.vertices_for(function, var)
        return bool(vids) and all(vid not in self.reached for vid in vids)

    @property
    def num_flow_facts(self) -> int:
        return len(self.reached)


@dataclass
class SourceTrackingAnalysis:
    """Shared machinery for NULL and taint tracking."""

    taint: bool = False
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
    ) -> SourceFlowResult:
        """Run the closure; heap bridges come from ``pointsto`` if given."""
        alias_pairs: Sequence[Tuple[int, int]] = ()
        if pointsto is not None:
            alias_pairs = pointsto.deref_alias_pairs()
        graph = dataflow_graph(pg, alias_pairs=alias_pairs, taint=self.taint)
        if self.closure_store is not None:
            computation = self.closure_store.closure(nullflow_grammar(), graph)
        else:
            engine = GraspanEngine(
                nullflow_grammar(),
                max_edges_per_partition=self.max_edges_per_partition,
                workdir=self.workdir,
                parallel_backend=self.parallel_backend,
            )
            computation = engine.run(graph)
        return SourceFlowResult(
            pg, computation, kind="taint" if self.taint else "null"
        )


class NullDataflowAnalysis(SourceTrackingAnalysis):
    """Tracks NULL values (the paper's second analysis)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(taint=False, **kwargs)


class TaintDataflowAnalysis(SourceTrackingAnalysis):
    """Tracks user-controlled data for the Range checker."""

    def __init__(self, **kwargs) -> None:
        super().__init__(taint=True, **kwargs)
