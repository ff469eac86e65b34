"""On-disk persistence for partitions.

Each partition file is a fixed 48-byte header followed by the three CSR
arrays — ``vertices``, ``indptr``, ``keys`` — stored back-to-back as raw
little-endian int64, exactly the partition's canonical in-memory form::

    offset 0   magic    b"GRSPART2"
    offset 8   version  uint32  format version (currently 2)
    offset 12  crc32    uint32  zlib.crc32 of the payload bytes
    offset 16  lo       int64   interval lower bound
    offset 24  hi       int64   interval upper bound
    offset 32  nv       int64   number of source vertices
    offset 40  ne       int64   number of edges
    offset 48  vertices[nv] | indptr[nv+1] | keys[ne]

Because the payload *is* the in-memory layout, a save is three
sequential writes of already-contiguous buffers (no per-vertex
concatenation) and a load is a single :func:`numpy.memmap` — zero-copy,
page-cache friendly, and strictly sequential, the property that keeps
Graspan's I/O cost low (§5.2).

Durability and corruption handling (see DESIGN.md §9):

* Every payload carries a CRC32.  Copy loads verify it eagerly; memmap
  loads verify lazily — :class:`PartitionStore` checks each file once,
  on first read, with a sequential pass that doubles as page-cache
  warm-up, and skips re-verification on later reads of the same
  (immutable, write-once) file.  A mismatch raises
  :class:`PartitionCorruptError`, never a raw numpy error.
* ``save_partition`` is atomic (tmp + ``os.replace``) and, through the
  store, durable: the tmp file is fsync'd before the rename and the
  directory is fsync'd after, so a committed write survives power loss.
* The store scrubs orphaned ``*.tmp`` files at startup, retries
  transient ``OSError``s with exponential backoff, and defers deletions
  (:meth:`PartitionStore.retire`) until the checkpoint manifest has
  committed, so a crash mid-superstep never invalidates the manifest's
  view of the directory.

Only ``GRSPART2`` files load.  Any other header — including the older
checksum-less ``GRSPART1`` format and ``.npz`` archives — raises
:class:`PartitionCorruptError`.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from typing import List, Optional, Set, Union

import numpy as np

from repro.graph import packed
from repro.partition.interval import Interval
from repro.partition.partition import Partition
from repro.util.faults import FaultInjector, InjectedCrash
from repro.util.retry import RetryPolicy
from repro.util.timing import TimeBreakdown

PathLike = Union[str, Path]

#: File magic of the current raw partition format (8 bytes, versioned).
PARTITION_MAGIC = b"GRSPART2"

#: On-disk format version stored in the header.
FORMAT_VERSION = 2

#: ``<8s`` magic + ``<I`` version + ``<I`` crc32 + ``<4q`` lo/hi/nv/ne.
_HEADER_STRUCT = struct.Struct("<8sIIqqqq")

#: Payload byte offset of the current format — the header size.
HEADER_BYTES = _HEADER_STRUCT.size

_INT64 = np.dtype("<i8")


class PartitionCorruptError(ValueError):
    """A partition file failed structural or checksum validation.

    Subclasses :class:`ValueError` so callers that guarded against the
    old "not a Graspan partition file" error keep working, while new
    callers can catch corruption specifically and react (quarantine the
    file, fall back to a checkpointed copy) instead of crashing on an
    opaque numpy shape error.
    """


def _write_payload(fh, partition: Partition) -> None:
    """Write header + the three contiguous CSR buffers to ``fh``.

    Split out from :func:`save_partition` so crash-injection tests can
    intercept the byte-producing step without touching the atomic
    rename protocol around it.  The CRC32 in the header chains over the
    three arrays in payload order, so it equals a CRC over the payload
    bytes as laid out on disk.
    """
    arrays = [
        np.ascontiguousarray(array, dtype=_INT64) for array in partition.csr()
    ]
    crc = 0
    for array in arrays:
        crc = zlib.crc32(array.data, crc)
    fh.write(
        _HEADER_STRUCT.pack(
            PARTITION_MAGIC,
            FORMAT_VERSION,
            crc,
            partition.interval.lo,
            partition.interval.hi,
            len(partition.vertices),
            len(partition.keys),
        )
    )
    for array in arrays:
        fh.write(array.data)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry so a completed rename survives power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_partition(
    partition: Partition,
    path: PathLike,
    durable: bool = False,
    injector: Optional[FaultInjector] = None,
) -> None:
    """Serialize ``partition`` to ``path``, atomically.

    The bytes land in a ``*.tmp`` sibling first and are renamed into
    place with :func:`os.replace`, so a crash mid-write can never leave
    a truncated file at the final path — readers see either the old
    complete file or the new complete file, never a torn one.  With
    ``durable`` the tmp file is fsync'd before the rename and the parent
    directory after it, upgrading "atomic" to "atomic and persistent".

    On failure the tmp sibling is removed — except for
    :class:`InjectedCrash`, which simulates a hard kill: a real power
    loss runs no cleanup, so the torn tmp file is deliberately left for
    the store's startup scrub to find.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_payload(fh, partition)
            if injector is not None:
                injector.on_tmp_written(fh, tmp)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if durable:
            _fsync_dir(path.parent)
    except InjectedCrash:
        raise
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_partition(path: PathLike, mmap: bool = True, verify: bool = True) -> Partition:
    """Deserialize a partition written by :func:`save_partition`.

    Raw-format files are mapped with :func:`numpy.memmap` when ``mmap``
    is true: the CSR arrays are read-only views of the page cache and no
    copy is made until (unless) a merge replaces them.  Callers never
    mutate rows in place — merges always allocate fresh arrays — so the
    read-only mapping is safe by construction.

    With ``verify`` the payload CRC32 is checked against the header and
    a mismatch raises :class:`PartitionCorruptError`.  For memmap loads
    the check is one sequential pass over the mapping that faults the
    pages the join was about to read anyway; :class:`PartitionStore`
    additionally memoizes it per file, so the cost is paid once.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(HEADER_BYTES)
    if head[:8] != PARTITION_MAGIC:
        raise PartitionCorruptError(
            f"{path}: not a Graspan partition file: magic {head[:8]!r},"
            f" only {PARTITION_MAGIC!r} loads"
        )
    if len(head) < HEADER_BYTES:
        raise PartitionCorruptError(
            f"{path}: truncated partition header: expected {HEADER_BYTES}"
            f" bytes, found {len(head)}"
        )
    _, version, expected_crc, lo, hi, nv, ne = _HEADER_STRUCT.unpack(head)
    if version != FORMAT_VERSION:
        raise PartitionCorruptError(
            f"{path}: unsupported partition format version {version}"
            f" (expected {FORMAT_VERSION})"
        )
    if nv < 0 or ne < 0:
        raise PartitionCorruptError(
            f"{path}: invalid partition header (nv={nv}, ne={ne})"
        )
    total = nv + (nv + 1) + ne
    expected_bytes = total * _INT64.itemsize
    actual_bytes = path.stat().st_size - HEADER_BYTES
    if actual_bytes != expected_bytes:
        raise PartitionCorruptError(
            f"{path}: truncated partition payload: expected {expected_bytes}"
            f" bytes, found {actual_bytes}"
        )
    if mmap:
        buf = np.memmap(path, dtype=_INT64, mode="r", offset=HEADER_BYTES, shape=(total,))
    else:
        buf = np.fromfile(path, dtype=_INT64, count=total, offset=HEADER_BYTES)
    if verify:
        actual_crc = zlib.crc32(buf)
        if actual_crc != expected_crc:
            raise PartitionCorruptError(
                f"{path}: partition payload checksum mismatch:"
                f" header says {expected_crc:#010x}, payload is {actual_crc:#010x}"
            )
    vertices = buf[:nv]
    indptr = buf[nv : 2 * nv + 1]
    keys = buf[2 * nv + 1 : total]
    if nv == 0:
        vertices, keys = packed.EMPTY, packed.EMPTY
    return Partition.from_csr(Interval(int(lo), int(hi)), vertices, indptr, keys)


class PartitionStore:
    """Allocates partition files in a working directory and tracks I/O.

    The partition set owns residency decisions; the store only moves
    bytes — and counts them (``bytes_written`` / ``bytes_read``), which
    the engine surfaces as the Table 6 I/O columns.  When constructed
    without a directory it refuses to evict — the in-memory mode for
    small graphs (§4.2).

    Robustness duties (DESIGN.md §9):

    * startup **scrub**: orphaned ``*.tmp`` files from a crashed run are
      removed, and the file-id counter resumes past any surviving
      partition files so a resumed run never overwrites them;
    * **retry** with exponential backoff on transient ``OSError``s
      (``EIO``, ``ENOSPC``, ...) for both reads and writes, counted in
      ``io_retries``;
    * **verify-once** checksum policy: the first read of each file pays
      a full CRC pass, later reads of the same write-once file skip it;
    * **deferred deletes**: :meth:`retire` queues a file for removal and
      :meth:`purge_retired` unlinks the queue — called only after the
      run manifest no longer references the old files.
    """

    def __init__(
        self,
        workdir: Optional[PathLike] = None,
        timers: Optional[TimeBreakdown] = None,
        retry: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
        durable: bool = True,
        verify_reads: bool = True,
    ) -> None:
        self.workdir = Path(workdir) if workdir is not None else None
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
        self.timers = timers if timers is not None else TimeBreakdown()
        self.retry = retry if retry is not None else RetryPolicy.for_store()
        self.injector = injector
        self.durable = durable
        self.verify_reads = verify_reads
        # The closure daemon's executor threads read partitions of one
        # computation concurrently; the lock keeps path allocation and
        # the byte counters coherent.  Only metadata is guarded — file
        # I/O itself runs outside the lock.
        self._lock = threading.Lock()
        self._next_file_id = 0
        self._verified: Set[str] = set()
        self._retired: List[Path] = []
        self.bytes_written = 0
        self.bytes_read = 0
        self.writes = 0
        self.reads = 0
        self.io_retries = 0
        self.tmp_scrubbed = 0
        self.files_purged = 0
        if self.workdir is not None:
            self._scrub()

    @property
    def disk_backed(self) -> bool:
        return self.workdir is not None

    def _scrub(self) -> None:
        """Remove torn ``*.tmp`` orphans and resume the file-id counter."""
        assert self.workdir is not None
        for tmp in self.workdir.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
            self.tmp_scrubbed += 1
        for existing in self.workdir.glob("partition-*.gp"):
            try:
                file_id = int(existing.stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            self._next_file_id = max(self._next_file_id, file_id + 1)

    def allocate_path(self) -> Path:
        if self.workdir is None:
            raise RuntimeError("in-memory store cannot allocate partition files")
        with self._lock:
            path = self.workdir / f"partition-{self._next_file_id:06d}.gp"
            self._next_file_id += 1
        return path

    def _call_with_retry(self, fn):
        def on_retry(exc, attempt):
            with self._lock:
                self.io_retries += 1

        return self.retry.call(fn, on_retry=on_retry)

    def write(self, partition: Partition) -> Path:
        return self.write_to(partition, self.allocate_path())

    def write_to(self, partition: Partition, path: Path) -> Path:
        """Serialize ``partition`` to ``path`` (from :meth:`allocate_path`)."""

        def attempt():
            if self.injector is not None:
                self.injector.on_write_start(path)
            with self.timers.phase("io"):
                save_partition(partition, path, durable=self.durable, injector=self.injector)

        self._call_with_retry(attempt)
        if self.injector is not None:
            self.injector.on_write_done(path)
        size = path.stat().st_size
        with self._lock:
            self.bytes_written += size
            self.writes += 1
        return path

    def read(self, path: PathLike) -> Partition:
        path = Path(path)
        with self._lock:
            verify = self.verify_reads and str(path) not in self._verified

        def attempt():
            if self.injector is not None:
                self.injector.on_read_start(path)
            with self.timers.phase("io"):
                return load_partition(path, verify=verify)

        partition = self._call_with_retry(attempt)
        size = path.stat().st_size
        with self._lock:
            self._verified.add(str(path))
            self.bytes_read += size
            self.reads += 1
        return partition

    def delete(self, path: PathLike) -> None:
        """Unlink ``path`` immediately.  Prefer :meth:`retire` when the
        file may still be referenced by the last committed manifest."""
        path = Path(path)
        with self._lock:
            self._verified.discard(str(path))
        path.unlink(missing_ok=True)

    def retire(self, path: PathLike) -> None:
        """Queue ``path`` for deletion at the next :meth:`purge_retired`.

        Between a partition rewrite and the following manifest commit,
        the *old* file is still the one the last durable checkpoint
        references; unlinking it early would make a crash in that window
        unrecoverable.  Retired files survive until the new manifest is
        on disk.
        """
        with self._lock:
            self._retired.append(Path(path))

    def purge_retired(self) -> int:
        """Unlink retired files; returns how many were removed."""
        with self._lock:
            batch, self._retired = self._retired, []
            for path in batch:
                self._verified.discard(str(path))
            self.files_purged += len(batch)
        for path in batch:
            path.unlink(missing_ok=True)
        return len(batch)
