"""Round-trip and compatibility tests for the raw partition format.

The on-disk layout is header + the three CSR arrays verbatim, so a
round-trip must reproduce ``(vertices, indptr, keys)`` byte-identically.
Legacy formats (``GRSPART1``, ``.npz``) are rejected with a typed error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import packed
from repro.partition import Interval, Partition, load_partition, save_partition
from repro.partition.storage import PARTITION_MAGIC, PartitionStore


def triples_strategy(lo=0, hi=31):
    return st.lists(
        st.tuples(
            st.integers(lo, hi),  # src within the interval
            st.integers(0, 200),  # target
            st.integers(0, 7),  # label
        ),
        max_size=80,
    )


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(triples=triples_strategy())
    def test_csr_arrays_survive_byte_identically(self, triples, tmp_path_factory):
        partition = Partition.from_triples(Interval(0, 31), triples)
        path = tmp_path_factory.mktemp("rt") / "p.gp"
        save_partition(partition, path)
        loaded = load_partition(path)
        assert loaded.interval == partition.interval
        assert np.array_equal(loaded.vertices, partition.vertices)
        assert np.array_equal(loaded.indptr, partition.indptr)
        assert np.array_equal(loaded.keys, partition.keys)

    def test_empty_partition_round_trips(self, tmp_path):
        """Regression: empty partitions used to break the npz writer."""
        empty = Partition(Interval(3, 9), {})
        path = tmp_path / "empty.gp"
        save_partition(empty, path)
        loaded = load_partition(path)
        assert loaded.interval == Interval(3, 9)
        assert loaded.num_edges == 0
        assert loaded.num_source_vertices == 0
        assert len(loaded.indptr) == 1

    def test_mmap_and_copy_loads_agree(self, tmp_path):
        partition = Partition.from_triples(
            Interval(0, 9), [(1, 5, 0), (1, 6, 1), (8, 2, 0)]
        )
        path = tmp_path / "p.gp"
        save_partition(partition, path)
        mapped = load_partition(path, mmap=True)
        copied = load_partition(path, mmap=False)
        assert np.array_equal(mapped.keys, copied.keys)
        assert np.array_equal(mapped.vertices, copied.vertices)
        assert np.array_equal(mapped.indptr, copied.indptr)

    def test_mmap_load_is_zero_copy(self, tmp_path):
        partition = Partition.from_triples(Interval(0, 9), [(1, 5, 0), (8, 2, 0)])
        path = tmp_path / "p.gp"
        save_partition(partition, path)
        loaded = load_partition(path)
        assert isinstance(loaded.keys.base, np.memmap)
        assert loaded.keys.base is loaded.vertices.base  # one mapping

    def test_header_carries_magic(self, tmp_path):
        path = tmp_path / "p.gp"
        save_partition(Partition(Interval(0, 3), {}), path)
        assert path.read_bytes()[:8] == PARTITION_MAGIC


class TestRejection:
    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.gp"
        path.write_bytes(b"definitely not a partition")
        with pytest.raises(ValueError, match="not a Graspan partition"):
            load_partition(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.gp"
        path.write_bytes(b"GR")
        with pytest.raises(ValueError):
            load_partition(path)


class TestFormatVersioning:
    def test_header_carries_version_and_checksum(self, tmp_path):
        from repro.partition.storage import FORMAT_VERSION, _HEADER_STRUCT

        partition = Partition.from_triples(Interval(0, 9), [(1, 5, 0), (8, 2, 1)])
        path = tmp_path / "p.gp"
        save_partition(partition, path)
        head = path.read_bytes()[: _HEADER_STRUCT.size]
        magic, version, crc, lo, hi, nv, ne = _HEADER_STRUCT.unpack(head)
        assert magic == PARTITION_MAGIC
        assert version == FORMAT_VERSION
        assert crc != 0
        assert (lo, hi) == (0, 9)
        assert ne == partition.num_edges

    def test_unknown_version_rejected(self, tmp_path):
        import struct

        from repro.partition.storage import _HEADER_STRUCT, PartitionCorruptError

        partition = Partition.from_triples(Interval(0, 9), [(1, 5, 0)])
        path = tmp_path / "p.gp"
        save_partition(partition, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 99)  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(PartitionCorruptError, match="version 99"):
            load_partition(path)


class TestLegacyFormatsRejected:
    """Older on-disk formats no longer load, and they fail loudly."""

    def test_grspart1_header_raises_corrupt_error(self, tmp_path):
        import struct

        from repro.partition.storage import PartitionCorruptError

        # The checksum-less GRSPART1 layout: magic + lo/hi/nv/ne, then
        # a payload that is well-formed for that header.
        partition = Partition.from_triples(
            Interval(0, 15), [(2, 9, 1), (2, 3, 0), (11, 0, 2)]
        )
        path = tmp_path / "old.gp"
        with open(path, "wb") as fh:
            fh.write(
                struct.pack(
                    "<8sqqqq",
                    b"GRSPART1",
                    partition.interval.lo,
                    partition.interval.hi,
                    len(partition.vertices),
                    len(partition.keys),
                )
            )
            for array in partition.csr():
                fh.write(np.ascontiguousarray(array, dtype=np.int64).data)
        with pytest.raises(PartitionCorruptError, match="GRSPART1"):
            load_partition(path)

    def test_npz_archive_raises_corrupt_error(self, tmp_path):
        from repro.partition.storage import PartitionCorruptError

        path = tmp_path / "old.npz"
        with open(path, "wb") as fh:
            np.savez(fh, lo=np.zeros(1, dtype=np.int64), keys=packed.EMPTY)
        with pytest.raises(PartitionCorruptError, match="not a Graspan"):
            load_partition(path)


class TestStoreCounters:
    def test_bytes_and_ops_counted(self, tmp_path):
        store = PartitionStore(workdir=tmp_path)
        partition = Partition.from_triples(Interval(0, 9), [(1, 2, 0), (4, 1, 1)])
        path = store.write(partition)
        assert path.suffix == ".gp"
        assert store.writes == 1
        assert store.bytes_written == path.stat().st_size > 0
        loaded = store.read(path)
        assert store.reads == 1
        assert store.bytes_read == store.bytes_written
        assert np.array_equal(loaded.keys, partition.keys)
