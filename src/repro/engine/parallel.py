"""The join-backend seam: every edge-pair join of a superstep goes here.

The superstep (:func:`repro.engine.superstep.run_superstep`) never calls
the join kernel directly; it hands its old/new CSR snapshots to a
:class:`JoinBackend`.  Two implementations exist:

``serial``
    :class:`SerialJoinBackend` — the inline sorted-merge join of
    :func:`repro.engine.join.join_edges`, one call per non-empty right
    view.  The reference every other backend must match bit-for-bit.

``matmul``
    :class:`repro.engine.matmul.MatmulJoinBackend` — per-label boolean
    sparse matrix products (DESIGN.md §11), the fastest superstep
    compute on dense closures.  Needs scipy.

The paper joins with 8 threads; a pure-Python join gets no wall-clock
win from a thread or process pool on top of numpy (measurements in
DESIGN.md §10), so there is none.  Each backend records per-superstep
:class:`JoinTelemetry` that the engine copies into its
:class:`~repro.engine.stats.SuperstepRecord`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.join import CsrView, join_edges
from repro.graph import packed
from repro.grammar.grammar import FrozenGrammar

#: The valid values of ``GraspanEngine(parallel_backend=...)``.
BACKENDS = ("serial", "matmul")

logger = logging.getLogger(__name__)


@dataclass
class JoinTelemetry:
    """Backend counters for one superstep (reset by ``begin_superstep``).

    Only the matmul backend counts anything: label-block CSR snapshots
    built vs carried over unchanged, boolean products formed, and the
    nonzeros they produced (distinct candidate ``(src, dst)`` pairs).
    """

    backend: str = "serial"
    matmul_blocks_built: int = 0
    matmul_blocks_reused: int = 0
    matmul_products: int = 0
    matmul_nnz: int = 0


def expand_view(view: CsrView) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a CSR view into parallel ``(src, key)`` edge arrays."""
    if view.num_edges == 0:
        return packed.EMPTY, packed.EMPTY
    counts = view.indptr[1:] - view.indptr[:-1]
    return np.repeat(view.vertices, counts), view.keys


class JoinBackend:
    """Common interface the superstep routes all edge-pair joins through.

    Subclasses implement :meth:`join_arrays`; :meth:`join_edge_list` is
    the entry point the superstep uses.
    """

    name = "serial"

    def __init__(
        self,
        grammar: FrozenGrammar,
        head_mask: Optional[np.ndarray] = None,
        requested: Optional[str] = None,
    ) -> None:
        self.grammar = grammar
        self.head_mask = grammar.head_labels() if head_mask is None else head_mask
        self.requested = requested if requested is not None else self.name
        self.telemetry = JoinTelemetry(backend=self.display_name)

    # -- lifecycle -------------------------------------------------------
    @property
    def display_name(self) -> str:
        """Backend label for telemetry; flags a fallback substitution."""
        if self.requested != self.name:
            return f"{self.name}({self.requested}-fallback)"
        return self.name

    def begin_superstep(self) -> None:
        """Reset telemetry for a superstep."""
        self.telemetry = JoinTelemetry(backend=self.display_name)

    def begin_iteration(self) -> None:
        """Mark a new fixed-point iteration: prior CSR snapshots are dead."""

    def end_superstep(self) -> None:
        """Drop anything held for the superstep that just finished."""

    def note_union(self, merged, a, b) -> None:
        """Hint: ``merged`` is the disjoint union of views ``a`` and ``b``.

        The superstep announces ``O <- O ∪ D`` through this hook so
        backends that keep per-snapshot derived state (the matmul
        backend's label blocks) can carry it across iterations instead
        of rebuilding from scratch.  Default: ignore the hint.
        """

    # -- joining ---------------------------------------------------------
    def join_edge_list(
        self,
        left_src: np.ndarray,
        left_keys: np.ndarray,
        left_view: CsrView,
        rights: Sequence[CsrView],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Join flat left edges that are also available as a CSR view.

        The superstep keeps its state in both forms — flat ``(src, key)``
        arrays for merges and a grouped view for the join — so a backend
        may use whichever is cheaper.  The default consumes the flat
        arrays directly (no expand/flatten round-trip).
        """
        return self.join_arrays(left_src, left_keys, rights)

    def join_arrays(
        self,
        left_src: np.ndarray,
        left_keys: np.ndarray,
        rights: Sequence[CsrView],
    ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @staticmethod
    def _concat(
        results: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        srcs = [s for s, _ in results if len(s)]
        keys = [k for _, k in results if len(k)]
        if not srcs:
            return packed.EMPTY, packed.EMPTY
        return np.concatenate(srcs), np.concatenate(keys)


class SerialJoinBackend(JoinBackend):
    """The inline join: one kernel call per non-empty right view."""

    name = "serial"

    def join_arrays(self, left_src, left_keys, rights):
        if len(left_src) == 0:
            return packed.EMPTY, packed.EMPTY
        results: List[Tuple[np.ndarray, np.ndarray]] = [
            join_edges(left_src, left_keys, right, self.grammar, self.head_mask)
            for right in rights
            if right.num_edges
        ]
        return self._concat(results)


def make_backend(
    name: Optional[str],
    grammar: FrozenGrammar,
    head_mask: Optional[np.ndarray] = None,
) -> JoinBackend:
    """Build the backend named ``name`` (one of :data:`BACKENDS`).

    ``None`` means ``serial``.  ``matmul`` (the sparse-boolean-matrix
    kernel, DESIGN.md §11) falls back to ``serial`` with a loud warning
    when scipy is not installed — the closure is identical, only the
    edge-pair kernel computes it — and the substitution shows in the
    telemetry's backend label.
    """
    if name is None:
        name = "serial"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown parallel backend {name!r}; choose from {BACKENDS}"
        )
    if name == "matmul":
        from repro.engine.matmul import MatmulJoinBackend, scipy_available

        if not scipy_available():
            logger.warning(
                "matmul join backend requested but scipy is not installed "
                "(pip install 'repro[matmul]'); falling back to the serial "
                "edge-pair join"
            )
            return SerialJoinBackend(grammar, head_mask, requested="matmul")
        return MatmulJoinBackend(grammar, head_mask)
    return SerialJoinBackend(grammar, head_mask)
