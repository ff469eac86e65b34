"""A partition: the sorted out-edge lists of one vertex interval.

Edges are grouped by source vertex; each source's outgoing edges are a
sorted, duplicate-free packed key array (§4.1: "edges are sorted on their
source vertex IDs and those that have the same source are stored
consecutively and ordered on their target vertex IDs").  Sortedness is
what makes batch edge addition and merge-time duplicate checks possible.

The canonical in-memory form is **flat CSR**: three contiguous int64
arrays ``(vertices, indptr, keys)`` where ``vertices`` holds the sorted
source ids that have at least one out-edge and row ``i``'s packed keys
live in ``keys[indptr[i]:indptr[i+1]]``.  This is the same layout the
join kernels and the on-disk format use, so partitions move through the
whole stack without per-vertex dict materialization.  A thin read-only
mapping view (:attr:`adjacency`) remains for stragglers and tests that
want dict ergonomics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.graph import packed
from repro.partition.interval import Interval


class AdjacencyView(Mapping):
    """Read-only dict-like view over a partition's CSR arrays.

    Rows are zero-copy slices of the partition's ``keys`` array.  The
    view reflects the partition's *current* arrays, so it stays valid
    across :meth:`Partition.replace_csr` and merges.
    """

    __slots__ = ("_partition",)

    def __init__(self, partition: "Partition") -> None:
        self._partition = partition

    def __getitem__(self, v: int) -> np.ndarray:
        row = self._partition._row_of(v)
        if row is None:
            raise KeyError(v)
        p = self._partition
        return p.keys[p.indptr[row] : p.indptr[row + 1]]

    def __iter__(self) -> Iterator[int]:
        return (int(v) for v in self._partition.vertices)

    def __len__(self) -> int:
        return len(self._partition.vertices)


def _csr_from_adjacency(
    adjacency: Mapping, interval: Interval
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (vertices, indptr, keys) from a per-vertex dict."""
    items = [(v, keys) for v, keys in adjacency.items() if len(keys)]
    for v, _ in items:
        if v not in interval:
            raise ValueError(f"vertex {v} outside interval {interval}")
    if not items:
        return packed.EMPTY, np.zeros(1, dtype=np.int64), packed.EMPTY
    items.sort(key=lambda item: item[0])
    vertices = np.asarray([v for v, _ in items], dtype=np.int64)
    lengths = np.asarray([len(keys) for _, keys in items], dtype=np.int64)
    indptr = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    keys = np.concatenate([np.asarray(k, dtype=np.int64) for _, k in items])
    return vertices, indptr, keys


class Partition:
    """Per-vertex adjacency for one vertex interval, stored as flat CSR.

    Construct either from a dict (``Partition(interval, {v: keys})``,
    the legacy form) or from CSR arrays via :meth:`from_csr`.  All hot
    paths operate directly on :attr:`vertices` / :attr:`indptr` /
    :attr:`keys`; mutation happens by wholesale array replacement
    (:meth:`replace_csr`) or splice (:meth:`merge_new_edges`), never in
    place — loaded arrays may be read-only memory maps.
    """

    __slots__ = ("interval", "vertices", "indptr", "keys")

    def __init__(
        self, interval: Interval, adjacency: Optional[Mapping] = None
    ) -> None:
        self.interval = interval
        vertices, indptr, keys = _csr_from_adjacency(adjacency or {}, interval)
        self.vertices = vertices
        self.indptr = indptr
        self.keys = keys

    @classmethod
    def from_csr(
        cls,
        interval: Interval,
        vertices: np.ndarray,
        indptr: np.ndarray,
        keys: np.ndarray,
    ) -> "Partition":
        """Wrap existing CSR arrays without copying or re-validating rows.

        ``vertices`` must be strictly increasing, within ``interval``,
        and each row's keys sorted and unique — the invariants every
        producer in the engine maintains.
        """
        if len(indptr) != len(vertices) + 1:
            raise ValueError("indptr must have len(vertices) + 1 entries")
        if len(vertices) and (
            int(vertices[0]) < interval.lo or int(vertices[-1]) > interval.hi
        ):
            raise ValueError(
                f"vertices [{vertices[0]}, {vertices[-1]}] outside {interval}"
            )
        p = cls.__new__(cls)
        p.interval = interval
        p.vertices = vertices
        p.indptr = indptr
        p.keys = keys
        return p

    def replace_csr(
        self, vertices: np.ndarray, indptr: np.ndarray, keys: np.ndarray
    ) -> None:
        """Swap in new CSR arrays (the engine's post-superstep scatter)."""
        self.vertices = vertices
        self.indptr = indptr
        self.keys = keys

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.vertices, self.indptr, self.keys

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.keys)

    @property
    def num_source_vertices(self) -> int:
        return len(self.vertices)

    @property
    def nbytes(self) -> int:
        """Actual bytes held by the CSR arrays (residency accounting)."""
        return self.vertices.nbytes + self.indptr.nbytes + self.keys.nbytes

    @property
    def adjacency(self) -> AdjacencyView:
        """Dict-like read-only view; rows are slices of :attr:`keys`."""
        return AdjacencyView(self)

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _row_of(self, v: int) -> Optional[int]:
        i = int(np.searchsorted(self.vertices, v))
        if i < len(self.vertices) and self.vertices[i] == v:
            return i
        return None

    def out_keys(self, v: int) -> np.ndarray:
        row = self._row_of(v)
        if row is None:
            return packed.EMPTY
        return self.keys[self.indptr[row] : self.indptr[row + 1]]

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate ``(src, dst, label)`` triples in sorted order."""
        targets = packed.targets_of(self.keys)
        labels = packed.labels_of(self.keys)
        for row, v in enumerate(self.vertices):
            for i in range(int(self.indptr[row]), int(self.indptr[row + 1])):
                yield int(v), int(targets[i]), int(labels[i])

    def merge_new_edges(self, v: int, new_keys: np.ndarray) -> int:
        """Merge sorted ``new_keys`` into ``v``'s list; returns #added.

        Splices the flat arrays: only the affected row is re-merged, the
        surrounding key spans are reused as slices.
        """
        if len(new_keys) == 0:
            return 0
        if v not in self.interval:
            raise ValueError(f"vertex {v} outside interval {self.interval}")
        i = int(np.searchsorted(self.vertices, v))
        present = i < len(self.vertices) and self.vertices[i] == v
        if present:
            lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        else:
            lo = hi = int(self.indptr[i])
        current = self.keys[lo:hi]
        merged = packed.merge_unique([current, new_keys])
        added = len(merged) - len(current)
        if added == 0:
            return 0
        keys = np.concatenate([self.keys[:lo], merged, self.keys[hi:]])
        if present:
            vertices = self.vertices
            indptr = self.indptr.copy()
            indptr[i + 1 :] += added
        else:
            vertices = np.insert(self.vertices, i, v)
            indptr = np.concatenate(
                [self.indptr[: i + 1], [lo + added], self.indptr[i + 1 :] + added]
            )
        self.replace_csr(vertices, indptr, keys)
        return added

    # ------------------------------------------------------------------
    # metadata (the paper's per-partition degree file and DDM row)
    # ------------------------------------------------------------------
    def out_degree_file(self) -> Dict[int, int]:
        """Per-vertex out-degrees (the paper's degree file, out half)."""
        lengths = self.row_lengths()
        return {int(v): int(n) for v, n in zip(self.vertices, lengths)}

    def destination_counts(self, vit) -> np.ndarray:
        """Edge counts from this partition into each VIT interval.

        This is this partition's row of the DDM, bucketed in one shot
        over the whole flat key array.
        """
        counts = np.zeros(vit.num_partitions, dtype=np.int64)
        if len(self.keys) == 0:
            return counts
        lows = np.asarray([iv.lo for iv in vit.intervals()], dtype=np.int64)
        buckets = np.searchsorted(lows, packed.targets_of(self.keys), side="right") - 1
        ids, n = np.unique(buckets, return_counts=True)
        counts[ids] += n
        return counts

    def split(self, mid: int) -> Tuple["Partition", "Partition"]:
        """Split at vertex ``mid`` into ``[lo, mid]`` / ``[mid+1, hi]``.

        Array slices are shared with the parent (zero-copy); the right
        half's ``indptr`` is rebased into a fresh array.
        """
        left_iv, right_iv = self.interval.split_at(mid)
        row = int(np.searchsorted(self.vertices, mid, side="right"))
        cut = int(self.indptr[row])
        left = Partition.from_csr(
            left_iv,
            self.vertices[:row],
            self.indptr[: row + 1],
            self.keys[:cut],
        )
        right = Partition.from_csr(
            right_iv,
            self.vertices[row:],
            self.indptr[row:] - cut,
            self.keys[cut:],
        )
        return left, right

    def median_split_point(self) -> int:
        """The vertex at which a split best balances edge mass (§4.3).

        Returns a ``mid`` such that ``[lo, mid]`` holds roughly half the
        edges.  Always a legal split point (``lo <= mid < hi``).
        """
        iv = self.interval
        if len(iv) < 2:
            raise ValueError(f"interval {iv} too small to split")
        if len(self.vertices) == 0:
            return iv.lo + (len(iv) // 2) - 1
        running = self.indptr[1:]  # cumulative edge mass after each row
        total = int(self.indptr[-1])
        mids = np.clip(self.vertices, iv.lo, iv.hi - 1)
        imbalance = np.abs(2 * running - total)
        return int(mids[int(np.argmin(imbalance))])

    @classmethod
    def from_triples(
        cls, interval: Interval, triples: Iterable[Tuple[int, int, int]]
    ) -> "Partition":
        triples = list(triples)
        if not triples:
            return cls(interval, {})
        src = np.asarray([t[0] for t in triples], dtype=np.int64)
        keys = packed.pack(
            np.asarray([t[1] for t in triples], dtype=np.int64),
            np.asarray([t[2] for t in triples], dtype=np.int64),
        )
        if len(src) and (int(src.min()) < interval.lo or int(src.max()) > interval.hi):
            bad = int(src.min()) if int(src.min()) < interval.lo else int(src.max())
            raise ValueError(f"vertex {bad} outside interval {interval}")
        order = np.lexsort((keys, src))
        src, keys = src[order], keys[order]
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (keys[1:] != keys[:-1])
        return cls.from_flat(interval, src[keep], keys[keep])

    @classmethod
    def from_flat(
        cls, interval: Interval, src: np.ndarray, keys: np.ndarray
    ) -> "Partition":
        """Build from flat ``(src, key)`` arrays, lexsorted and unique.

        ``keys`` is adopted without copying — the CSR rows are slices of
        it.  This is how the engine scatters a superstep's merged edge
        set back into the loaded partitions.
        """
        if len(src) == 0:
            return cls(interval, {})
        starts = np.concatenate(
            [[0], np.flatnonzero(src[1:] != src[:-1]) + 1]
        ).astype(np.int64)
        vertices = src[starts]
        indptr = np.concatenate([starts, [len(src)]]).astype(np.int64)
        return cls.from_csr(interval, vertices, indptr, keys)

    def __repr__(self) -> str:
        return (
            f"Partition([{self.interval.lo},{self.interval.hi}], "
            f"{self.num_source_vertices} sources, {self.num_edges} edges)"
        )
