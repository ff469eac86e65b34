"""One superstep: the BSP-like fixed point of Algorithm 1, on flat arrays.

With two partitions loaded (their vertex sets and edge lists combined),
the superstep keeps two edge sets: ``O`` ("old" edges already matched in
earlier iterations) and ``D`` ("new" edges discovered in the previous
iteration).  Each iteration matches

* every old edge ``v -> u`` in ``O`` against the *new* edges of ``u``, and
* every new edge ``v -> u`` in ``D`` against *all* edges of ``u``,

never old × old — that work was done in an earlier iteration.  Matched
pairs produce transitive edges; duplicates are eliminated during the
merge (the property that makes the computation terminate, §4.2).  The
superstep ends when no iteration adds an edge, or early when the
in-memory edge count crosses ``memory_limit_edges`` (the mid-superstep
repartitioning trigger, §4.3).

Both sets are stored as flat parallel ``(src, key)`` int64 arrays,
lexsorted by (src, key) and mutually disjoint — the same layout the
partitions, the join kernels, and the on-disk format use, so edges flow
through an iteration as whole-array lexsorts and gathers with no
per-vertex Python loop.  The per-vertex dict form remains available via
:attr:`SuperstepResult.adjacency` for tests and the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.engine.join import CsrView, apply_unary_closure  # noqa: F401 (re-export)
from repro.graph import packed
from repro.grammar.grammar import FrozenGrammar


@dataclass
class SuperstepResult:
    """Outcome of one superstep over a loaded vertex set.

    The final merged edge set is the flat lexsorted ``(src, keys)`` pair;
    :meth:`csr` regroups it as a CSR view and :attr:`adjacency`
    materializes the legacy per-vertex dict on demand (rows are zero-copy
    slices of ``keys``).
    """

    src: np.ndarray  # final merged edges: source vertices (lexsorted)
    keys: np.ndarray  # final merged edges: packed (target, label)
    added_src: np.ndarray  # source vertex of every edge added
    added_keys: np.ndarray  # packed (target, label) of every edge added
    iterations: int
    completed: bool  # False if stopped early by the memory limit
    telemetry: Optional["JoinTelemetry"] = None  # backend counters
    _adjacency: Optional[Dict[int, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def edges_added(self) -> int:
        return len(self.added_src)

    def csr(self) -> CsrView:
        return CsrView.from_flat(self.src, self.keys)

    @property
    def adjacency(self) -> Dict[int, np.ndarray]:
        """The final edge set as ``{src: sorted packed keys}`` (lazy)."""
        if self._adjacency is None:
            view = self.csr()
            self._adjacency = {
                int(v): view.keys[view.indptr[i] : view.indptr[i + 1]]
                for i, v in enumerate(view.vertices)
            }
        return self._adjacency


# ---------------------------------------------------------------------------
# flat (src, key) pair-set primitives
# ---------------------------------------------------------------------------

def _flatten_adjacency(
    adjacency: Union[Mapping, CsrView]
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize dict or CSR input to flat lexsorted ``(src, key)`` arrays.

    Every downstream merge (``_merge_disjoint``, ``_fresh_pairs``, the
    CSR regrouping) relies on per-vertex key arrays being sorted and
    duplicate-free; dict input is user-supplied, so rows violating the
    invariant are repaired (sort + dedup) on entry rather than silently
    corrupting the fixed point.
    """
    if isinstance(adjacency, CsrView):
        from repro.engine.parallel import expand_view

        return expand_view(adjacency)
    items = []
    for v, keys in adjacency.items():
        arr = np.asarray(keys, dtype=np.int64)
        if len(arr) == 0:
            continue
        if len(arr) > 1 and not np.all(arr[:-1] < arr[1:]):
            arr = np.unique(arr)  # restore the sorted/duplicate-free invariant
        items.append((v, arr))
    if not items:
        return packed.EMPTY, packed.EMPTY
    items.sort(key=lambda item: item[0])
    src = np.concatenate(
        [np.full(len(keys), v, dtype=np.int64) for v, keys in items]
    )
    keys = np.concatenate([keys for _, keys in items])
    return src, keys


def _dedup_pairs(
    src: np.ndarray, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Lexsort raw ``(src, key)`` pairs and drop duplicates."""
    if len(src) == 0:
        return packed.EMPTY, packed.EMPTY
    order = np.lexsort((keys, src))
    src, keys = src[order], keys[order]
    keep = np.ones(len(src), dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (keys[1:] != keys[:-1])
    return src[keep], keys[keep]


def _merge_disjoint(
    a_src: np.ndarray,
    a_keys: np.ndarray,
    b_src: np.ndarray,
    b_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of two lexsorted, disjoint pair sets, preserving lexsort."""
    if len(a_src) == 0:
        return b_src, b_keys
    if len(b_src) == 0:
        return a_src, a_keys
    src = np.concatenate([a_src, b_src])
    keys = np.concatenate([a_keys, b_keys])
    order = np.lexsort((keys, src))
    return src[order], keys[order]


def _unary_closure_pairs(
    src: np.ndarray, keys: np.ndarray, grammar: FrozenGrammar
) -> Tuple[np.ndarray, np.ndarray]:
    """Close flat lexsorted pairs under unary productions, in one gather.

    The whole-array counterpart of :func:`apply_unary_closure`: every
    edge is expanded into its label's closure via a flattened closure
    table, then the result is re-lexsorted and deduplicated.
    """
    if len(src) == 0:
        return src, keys
    sizes = np.asarray([len(c) for c in grammar.unary_closure], dtype=np.int64)
    labels = packed.labels_of(keys)
    counts = sizes[labels]
    total = int(counts.sum())
    if total == len(src):  # every closure is a singleton: already closed
        return src, keys
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    table = np.asarray(
        [l for closure in grammar.unary_closure for l in closure], dtype=np.int64
    )
    cum = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts)
    derived = table[np.repeat(offsets[labels], counts) + within]
    out_src = np.repeat(src, counts)
    out_keys = np.repeat(keys & ~np.int64(packed.LABEL_MASK), counts) | derived
    return _dedup_pairs(out_src, out_keys)


def _fresh_pairs(
    cand_src: np.ndarray,
    cand_keys: np.ndarray,
    base: CsrView,
    key_bound: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate pairs not present in ``base`` (Algorithm 1's line 24).

    ``cand`` must be lexsorted and unique.  Only the base rows whose
    source actually appears among the candidates are gathered.  Both the
    gathered base pairs and the candidates are already lexsorted (base
    rows come out in increasing source order with sorted keys), so
    membership needs a *merge*, not another sort: each ``(src, key)``
    pair packs into one int64 compound and a single ``searchsorted``
    marks the candidates present in the base.  When ids are too large to
    pack (sources ≥ 2³¹ or keys ≥ 2³²) the flag-lexsort path takes over.

    ``key_bound`` is an exclusive upper bound on every key on both sides.
    The superstep derives it *once* from the largest initial target (no
    join or unary closure ever mints a new target vertex, so
    ``(max_target + 1) << LABEL_BITS`` holds for every iteration) —
    without it, each call would rescan both key arrays, a full O(n) pass
    per iteration on the hot path just to pick the fast path.  Sources
    need no such bound: they are lexsorted, so their maxima are O(1).
    """
    if len(cand_src) == 0 or base.num_edges == 0:
        return cand_src, cand_keys
    first = np.ones(len(cand_src), dtype=bool)
    first[1:] = cand_src[1:] != cand_src[:-1]
    rows, valid = base.rows_for(cand_src[first])
    rows = rows[valid]
    if len(rows) == 0:
        return cand_src, cand_keys
    starts = base.indptr[rows]
    counts = base.indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return cand_src, cand_keys
    cum = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts)
    b_keys = base.keys[np.repeat(starts, counts) + within]
    b_src = np.repeat(base.vertices[rows], counts)

    # Sources are sorted, so the maxima sit at the ends in O(1); the key
    # bound comes from the caller, or one max scan per side without it.
    if key_bound is None:
        key_bound = max(int(cand_keys.max()), int(b_keys.max())) + 1
    if (
        int(cand_src[-1]) < 2**31
        and int(b_src[-1]) < 2**31
        and key_bound <= 2**32
    ):
        shift = np.int64(32)
        b_comp = (b_src << shift) | b_keys
        c_comp = (cand_src << shift) | cand_keys
        pos = np.searchsorted(b_comp, c_comp)
        pos_in = np.minimum(pos, len(b_comp) - 1)
        present = (pos < len(b_comp)) & (b_comp[pos_in] == c_comp)
        fresh = ~present
        return cand_src[fresh], cand_keys[fresh]
    return _fresh_pairs_lexsort(cand_src, cand_keys, b_src, b_keys)


def _fresh_pairs_lexsort(
    cand_src: np.ndarray,
    cand_keys: np.ndarray,
    b_src: np.ndarray,
    b_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Membership by flag-lexsort over base-and-candidate pairs.

    The pre-merge implementation of :func:`_fresh_pairs`' final step: a
    candidate immediately preceded by an identical base pair is a
    duplicate.  Kept as the fallback for ids too large to pack into a
    compound int64, and as the oracle for the fast path's equivalence
    test.
    """
    all_src = np.concatenate([b_src, cand_src])
    all_keys = np.concatenate([b_keys, cand_keys])
    flags = np.zeros(len(all_src), dtype=np.int64)
    flags[len(b_src) :] = 1
    order = np.lexsort((flags, all_keys, all_src))
    s, k, f = all_src[order], all_keys[order], flags[order]
    dup = np.zeros(len(s), dtype=bool)
    dup[1:] = (s[1:] == s[:-1]) & (k[1:] == k[:-1])
    fresh = (f == 1) & ~dup
    return s[fresh], k[fresh]


# ---------------------------------------------------------------------------
# legacy dict helpers (kept for the dedup/old-new ablation bench)
# ---------------------------------------------------------------------------

def _edges_of(adjacency: Dict[int, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a per-vertex adjacency dict into parallel (src, key) arrays."""
    items = [(v, keys) for v, keys in adjacency.items() if len(keys)]
    if not items:
        return packed.EMPTY, packed.EMPTY
    src = np.concatenate(
        [np.full(len(keys), v, dtype=np.int64) for v, keys in items]
    )
    keys = np.concatenate([keys for _, keys in items])
    return src, keys


def _group_candidates(
    cand_src: np.ndarray, cand_keys: np.ndarray
) -> List[Tuple[int, np.ndarray]]:
    """Sort/dedup raw join output and group it by source vertex.

    Safe on empty input (a join can legitimately produce nothing):
    returns an empty list rather than tripping over the degenerate
    ``[0, 0]`` boundary array.
    """
    if len(cand_src) == 0:
        return []
    src, keys = _dedup_pairs(cand_src, cand_keys)
    boundaries = np.flatnonzero(src[1:] != src[:-1]) + 1
    starts = np.concatenate([[0], boundaries, [len(src)]])
    return [
        (int(src[starts[i]]), keys[starts[i] : starts[i + 1]])
        for i in range(len(starts) - 1)
    ]


def run_superstep(
    adjacency: Union[Mapping, CsrView],
    grammar: FrozenGrammar,
    memory_limit_edges: int = 0,
    backend: Optional["JoinBackend"] = None,
) -> SuperstepResult:
    """Run Algorithm 1 to a fixed point over ``adjacency``.

    ``adjacency`` holds the combined edge lists of the loaded partitions,
    either as a per-vertex dict ``{src: sorted packed keys}`` or directly
    as a :class:`CsrView` (the engine's native form — no dict is ever
    built on that path).  A ``memory_limit_edges`` of 0 disables the
    early-stop check.

    All edge-pair joins route through ``backend`` (a
    :class:`~repro.engine.parallel.JoinBackend`); None means the serial
    join.
    """
    if backend is None:
        from repro.engine.parallel import SerialJoinBackend

        backend = SerialJoinBackend(grammar)

    backend.begin_superstep()

    added_src_parts: List[np.ndarray] = []
    added_keys_parts: List[np.ndarray] = []

    # Initialization (Algorithm 1, lines 3-5): O empty, D the original
    # edge set — here additionally closed under unary productions so the
    # join only ever consults binary productions.
    base_src, base_keys = _flatten_adjacency(adjacency)
    new_src, new_keys = _unary_closure_pairs(base_src, base_keys, grammar)
    old_src, old_keys = packed.EMPTY, packed.EMPTY

    # The `_fresh_pairs` fast-path bound, derived once per superstep: no
    # join or unary closure ever introduces a target vertex absent from
    # the initial edge set, so the largest packed key any iteration can
    # produce stays below (max_target + 1) << LABEL_BITS.  Targets are
    # within packed.MAX_VERTEX_ID, so the shift cannot overflow in
    # Python ints.
    if len(new_keys):
        key_bound = (
            int(packed.targets_of(new_keys).max()) + 1
        ) << packed.LABEL_BITS
    else:
        key_bound = 1

    if len(new_src) > len(base_src):
        derived_src, derived_keys = _fresh_pairs(
            new_src,
            new_keys,
            CsrView.from_flat(base_src, base_keys),
            key_bound=key_bound,
        )
        added_src_parts.append(derived_src)
        added_keys_parts.append(derived_keys)
    edges_in_memory = len(new_src)

    iterations = 0
    completed = True
    prev_old_view: Optional[CsrView] = None
    prev_new_view: Optional[CsrView] = None
    while len(new_src):
        iterations += 1
        backend.begin_iteration()
        new_view = CsrView.from_flat(new_src, new_keys)
        old_view = CsrView.from_flat(old_src, old_keys)
        if prev_new_view is not None:
            # This iteration's O is last iteration's O ∪ D: backends
            # holding per-snapshot derived state (matmul label blocks)
            # reuse it instead of rebuilding from scratch.
            backend.note_union(old_view, prev_old_view, prev_new_view)

        # Component 1 (lines 7-14): old edges × new continuation lists.
        c1_src, c1_keys = backend.join_edge_list(
            old_src, old_keys, old_view, [new_view]
        )
        # Component 2 (lines 15-20): new edges × all continuation lists.
        c2_src, c2_keys = backend.join_edge_list(
            new_src, new_keys, new_view, [old_view, new_view]
        )

        # Update O (lines 21-23): O <- O ∪ D.  The sets are disjoint, so
        # the in-memory edge count is unchanged by the merge.
        old_src, old_keys = _merge_disjoint(old_src, old_keys, new_src, new_keys)
        new_src, new_keys = packed.EMPTY, packed.EMPTY
        prev_old_view, prev_new_view = old_view, new_view

        cand_src = np.concatenate([c1_src, c2_src])
        cand_keys = np.concatenate([c1_keys, c2_keys])
        if len(cand_src) == 0:
            break

        # D <- mergeResult - O (line 24): dedup candidates and keep only
        # edges not already present.
        cand_src, cand_keys = _dedup_pairs(cand_src, cand_keys)
        fresh_src, fresh_keys = _fresh_pairs(
            cand_src,
            cand_keys,
            CsrView.from_flat(old_src, old_keys),
            key_bound=key_bound,
        )
        if len(fresh_src):
            new_src, new_keys = fresh_src, fresh_keys
            edges_in_memory += len(fresh_src)
            added_src_parts.append(fresh_src)
            added_keys_parts.append(fresh_keys)

        if memory_limit_edges and edges_in_memory > memory_limit_edges:
            completed = len(new_src) == 0
            break

    # Final merged edge set (D is folded in if we stopped early).
    final_src, final_keys = _merge_disjoint(old_src, old_keys, new_src, new_keys)

    if added_src_parts:
        added_src = np.concatenate(added_src_parts)
        added_keys = np.concatenate(added_keys_parts)
    else:
        added_src, added_keys = packed.EMPTY, packed.EMPTY

    backend.end_superstep()
    return SuperstepResult(
        src=final_src,
        keys=final_keys,
        added_src=added_src,
        added_keys=added_keys,
        iterations=iterations,
        completed=completed,
        telemetry=backend.telemetry,
    )
