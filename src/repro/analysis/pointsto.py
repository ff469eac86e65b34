"""The fully context-sensitive pointer/alias analysis (§2.2, §5).

Thin, user-facing layer over the Graspan engine: build the pointer graph
from the frontend's cloned edges, run the (extended) pointer grammar, and
expose points-to sets, alias pairs, and function-pointer targets with
results translated back to source through the vertex namer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from repro.engine.engine import GraspanComputation, GraspanEngine
from repro.frontend.graphgen import ProgramGraphs
from repro.frontend.graphs import pointer_graph
from repro.grammar.builtin import (
    LABEL_ALIAS,
    LABEL_OF,
    pointsto_grammar_extended,
)
from repro.grammar.grammar import FrozenGrammar

PathLike = Union[str, Path]


class PointsToResult:
    """Queryable pointer-analysis results."""

    def __init__(self, pg: ProgramGraphs, computation: GraspanComputation) -> None:
        self.pg = pg
        self.namer = pg.namer
        self.computation = computation
        of_src, of_dst = computation.edges_with_label_arrays(LABEL_OF)
        self._of_src = of_src  # allocation-site vertex
        self._of_dst = of_dst  # pointer variable vertex
        self._pts: Dict[int, Set[int]] = {}
        for obj, var in zip(of_src, of_dst):
            self._pts.setdefault(int(var), set()).add(int(obj))
        al_src, al_dst = computation.edges_with_label_arrays(LABEL_ALIAS)
        self._al_src = al_src
        self._al_dst = al_dst

    # ------------------------------------------------------------------
    # vertex-level queries
    # ------------------------------------------------------------------
    def points_to(self, vid: int) -> FrozenSet[int]:
        """Allocation-site vertices that may flow into vertex ``vid``."""
        return frozenset(self._pts.get(vid, ()))

    def may_alias(self, v1: int, v2: int) -> bool:
        """May-alias via points-to intersection (§2.2)."""
        return bool(self.points_to(v1) & self.points_to(v2))

    def alias_edges(self) -> Iterator[Tuple[int, int]]:
        """All derived ``alias``-labeled edges."""
        for a, b in zip(self._al_src, self._al_dst):
            yield int(a), int(b)

    def deref_alias_pairs(self) -> List[Tuple[int, int]]:
        """Alias pairs where both sides are dereference expressions.

        These are the heap channels the dataflow analysis bridges with
        DF edges (stores reach loads of aliased cells).
        """
        pairs: List[Tuple[int, int]] = []
        for a, b in zip(self._al_src, self._al_dst):
            a, b = int(a), int(b)
            if a != b and self.namer.is_deref_symbol(a) and self.namer.is_deref_symbol(b):
                pairs.append((a, b))
        return pairs

    # ------------------------------------------------------------------
    # source-level queries (via the namer translation tables)
    # ------------------------------------------------------------------
    def var_points_to(self, function: str, var: str) -> Set[str]:
        """Union over contexts of the objects ``function::var`` points to,
        described as source-level strings."""
        out: Set[str] = set()
        for vid in self.namer.vertices_for(function, var):
            for obj in self.points_to(vid):
                out.add(self.namer.describe(obj))
        return out

    def vars_may_alias(self, f1: str, v1: str, f2: str, v2: str) -> bool:
        """May the two named variables alias in *some* pair of contexts?"""
        objs1: Set[int] = set()
        for vid in self.namer.vertices_for(f1, v1):
            objs1 |= self.points_to(vid)
        if not objs1:
            return False
        for vid in self.namer.vertices_for(f2, v2):
            if objs1 & self.points_to(vid):
                return True
        return False

    def function_pointer_targets(self, fp_vid: int) -> Set[str]:
        """Function names a function-pointer vertex may target.

        Function references are modeled as ``fn:<name>`` objects with M
        edges (§3); points-to on the pointer recovers the call targets —
        this powers the Graspan-augmented Block checker.
        """
        targets: Set[str] = set()
        for obj in self.points_to(fp_vid):
            sym = self.namer.symbol(obj)
            if sym.startswith("fn:"):
                targets.add(sym[3:])
        return targets

    @property
    def num_points_to_facts(self) -> int:
        return len(self._of_src)

    @property
    def num_alias_facts(self) -> int:
        return len(self._al_src)


@dataclass
class PointsToAnalysis:
    """Runs the pointer/alias analysis with a configured engine.

    Five grammar registrations reproduce the paper's compact grammar; by
    default the extended symmetric grammar is used so two-sided heap
    flows are found (see ``pointsto_grammar_extended``).
    """

    grammar: Optional[FrozenGrammar] = None
    max_edges_per_partition: Optional[int] = None
    workdir: Optional[PathLike] = None
    parallel_backend: Optional[str] = None
    #: When set, closures come from this
    #: :class:`repro.engine.store.ClosureStore` — cached or incrementally
    #: re-closed instead of recomputed; the store's engine configuration
    #: (sizing, budget, backend) wins over this analysis's fields.
    closure_store: Optional[object] = None

    def run(self, pg: ProgramGraphs) -> PointsToResult:
        grammar = self.grammar if self.grammar is not None else pointsto_grammar_extended()
        graph = pointer_graph(pg)
        if self.closure_store is not None:
            computation = self.closure_store.closure(grammar, graph)
        else:
            engine = GraspanEngine(
                grammar,
                max_edges_per_partition=self.max_edges_per_partition,
                workdir=self.workdir,
                parallel_backend=self.parallel_backend,
            )
            computation = engine.run(graph)
        return PointsToResult(pg, computation)
