"""Fault-injection units: checksums, torn writes, retries, the journal.

Covers the durability building blocks in isolation (DESIGN.md §9):
CRC32 corruption detection, the torn-tmp crash model and startup scrub,
transient-``OSError`` retry with backoff, deferred deletes, the
``FaultPlan`` environment parsing, and ``RunJournal`` replay/commit.
"""

import errno
import json

import numpy as np
import pytest

from repro.engine.checkpoint import CheckpointError, RunJournal
from repro.partition import (
    Interval,
    Partition,
    PartitionCorruptError,
    PartitionStore,
    load_partition,
    save_partition,
)
from repro.partition.storage import HEADER_BYTES, PARTITION_MAGIC
from repro.util.faults import (
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    faulty_store,
    flip_payload_byte,
)
from repro.util.retry import TRANSIENT_ERRNOS, RetryPolicy


def sample_partition(lo=0, hi=15):
    return Partition.from_triples(
        Interval(lo, hi), [(1, 5, 0), (1, 9, 1), (7, 2, 0), (hi, 0, 2)]
    )


class TestRetryPolicy:
    def test_transient_error_is_retried_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError(errno.EIO, "injected")
            return "ok"

        policy = RetryPolicy(base_delay=0.0)
        assert policy.call(flaky, sleep=lambda _: None) == "ok"
        assert len(attempts) == 3

    def test_non_transient_error_raises_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise OSError(errno.EPERM, "nope")

        with pytest.raises(OSError):
            RetryPolicy(base_delay=0.0).call(broken, sleep=lambda _: None)
        assert len(attempts) == 1

    def test_file_not_found_is_not_retried(self):
        attempts = []

        def missing():
            attempts.append(1)
            raise FileNotFoundError(errno.ENOENT, "gone")

        with pytest.raises(FileNotFoundError):
            RetryPolicy(base_delay=0.0).call(missing, sleep=lambda _: None)
        assert len(attempts) == 1

    def test_exhaustion_raises_the_last_error(self):
        def always():
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError) as excinfo:
            RetryPolicy(attempts=4, base_delay=0.0).call(
                always, sleep=lambda _: None
            )
        assert excinfo.value.errno == errno.ENOSPC

    def test_on_retry_called_per_backoff(self):
        seen = []

        def always():
            raise OSError(errno.EIO, "io")

        with pytest.raises(OSError):
            RetryPolicy(attempts=3, base_delay=0.0).call(
                always, on_retry=lambda exc, i: seen.append(i), sleep=lambda _: None
            )
        assert len(seen) == 2  # two retries after the first failure

    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.3
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3]

    def test_transient_errno_set(self):
        assert errno.EIO in TRANSIENT_ERRNOS
        assert errno.ENOSPC in TRANSIENT_ERRNOS
        assert errno.ENOENT not in TRANSIENT_ERRNOS


class TestFaultPlan:
    def test_from_env_parses_all_knobs(self):
        plan = FaultPlan.from_env(
            {
                "REPRO_FAULT_CRASH_WRITE": "3",
                "REPRO_FAULT_FLIP_WRITE": "5",
                "REPRO_FAULT_ERRNO_WRITE": "2:EIO,4:ENOSPC",
                "REPRO_FAULT_ERRNO_READ": "1:EIO",
                "REPRO_FAULT_CRASH_PRECOMMIT": "7",
                "REPRO_FAULT_CRASH_COMMIT": "8",
            }
        )
        assert plan.crash_at_write == 3
        assert plan.flip_byte_at_write == 5
        assert plan.errno_at_write == {2: errno.EIO, 4: errno.ENOSPC}
        assert plan.errno_at_read == {1: errno.EIO}
        assert plan.crash_before_commit == 7
        assert plan.crash_after_commit == 8
        assert not plan.empty()

    def test_from_env_empty_environment(self):
        assert FaultPlan.from_env({}).empty()

    def test_unknown_errno_name_rejected(self):
        with pytest.raises(ValueError, match="unknown errno"):
            FaultPlan.from_env({"REPRO_FAULT_ERRNO_WRITE": "1:EWHAT"})

    def test_random_is_deterministic_per_seed(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        assert not FaultPlan.random(7).empty()


class TestChecksum:
    def test_flipped_payload_byte_detected(self, tmp_path):
        path = tmp_path / "p.gp"
        save_partition(sample_partition(), path)
        flip_payload_byte(path)
        with pytest.raises(PartitionCorruptError, match="checksum mismatch"):
            load_partition(path)

    def test_flipped_byte_detected_in_copy_mode(self, tmp_path):
        path = tmp_path / "p.gp"
        save_partition(sample_partition(), path)
        flip_payload_byte(path, offset=HEADER_BYTES)
        with pytest.raises(PartitionCorruptError, match="checksum mismatch"):
            load_partition(path, mmap=False)

    def test_verify_off_skips_checksum(self, tmp_path):
        path = tmp_path / "p.gp"
        save_partition(sample_partition(), path)
        flip_payload_byte(path)
        load_partition(path, verify=False)  # structural checks only

    def test_truncated_payload_reports_sizes(self, tmp_path):
        path = tmp_path / "p.gp"
        save_partition(sample_partition(), path)
        full = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(full - 8)
        with pytest.raises(
            PartitionCorruptError, match="expected .* bytes, found"
        ):
            load_partition(path)

    def test_garbage_with_valid_magic_is_corrupt_not_valueerror(self, tmp_path):
        path = tmp_path / "p.gp"
        path.write_bytes(PARTITION_MAGIC + b"\x00" * 4)
        with pytest.raises(PartitionCorruptError):
            load_partition(path)

    def test_corrupt_error_is_a_value_error(self):
        assert issubclass(PartitionCorruptError, ValueError)

    def test_store_read_surfaces_corruption(self, tmp_path):
        store = PartitionStore(workdir=tmp_path)
        path = store.write(sample_partition())
        flip_payload_byte(path)
        with pytest.raises(PartitionCorruptError):
            store.read(path)


class TestTornWriteAndScrub:
    def test_crash_at_write_leaves_torn_tmp_only(self, tmp_path):
        store = faulty_store(tmp_path, FaultPlan(crash_at_write=1, torn_bytes=10))
        with pytest.raises(InjectedCrash):
            store.write(sample_partition())
        tmps = list(tmp_path.glob("*.tmp"))
        assert len(tmps) == 1
        assert tmps[0].stat().st_size == 10
        assert not list(tmp_path.glob("partition-*.gp"))

    def test_new_store_scrubs_torn_tmp(self, tmp_path):
        store = faulty_store(tmp_path, FaultPlan(crash_at_write=1))
        with pytest.raises(InjectedCrash):
            store.write(sample_partition())
        fresh = PartitionStore(workdir=tmp_path)
        assert fresh.tmp_scrubbed == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_file_id_counter_resumes_past_existing_files(self, tmp_path):
        store = PartitionStore(workdir=tmp_path)
        first = store.write(sample_partition())
        fresh = PartitionStore(workdir=tmp_path)
        second = fresh.write(sample_partition())
        assert second != first
        assert first.exists() and second.exists()


class TestStoreRetries:
    def test_transient_write_error_absorbed(self, tmp_path):
        store = faulty_store(tmp_path, FaultPlan(errno_at_write={1: errno.EIO}))
        path = store.write(sample_partition())
        assert path.exists()
        assert store.io_retries == 1
        assert store.injector.injected_errors == 1

    def test_transient_read_error_absorbed(self, tmp_path):
        store = faulty_store(tmp_path, FaultPlan(errno_at_read={1: errno.EIO}))
        path = store.write(sample_partition())
        loaded = store.read(path)
        assert np.array_equal(loaded.keys, sample_partition().keys)
        assert store.io_retries == 1

    def test_persistent_errors_exhaust_retries(self, tmp_path):
        schedule = {i: errno.EIO for i in range(1, 10)}
        store = faulty_store(
            tmp_path,
            FaultPlan(errno_at_write=schedule),
            retry=RetryPolicy(attempts=3, base_delay=0.0),
        )
        with pytest.raises(OSError):
            store.write(sample_partition())
        assert store.io_retries == 2


class TestRetireAndPurge:
    def test_retired_files_survive_until_purge(self, tmp_path):
        store = PartitionStore(workdir=tmp_path)
        path = store.write(sample_partition())
        store.retire(path)
        assert path.exists()
        assert store.purge_retired() == 1
        assert not path.exists()
        assert store.files_purged == 1

    def test_delete_is_immediate(self, tmp_path):
        store = PartitionStore(workdir=tmp_path)
        path = store.write(sample_partition())
        store.delete(path)
        assert not path.exists()


class TestRunJournal:
    def test_append_and_replay(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append({"event": "begin", "superstep": 0})
        journal.append({"event": "commit", "superstep": 1})
        events = list(journal.events())
        assert [e["event"] for e in events] == ["begin", "commit"]

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append({"event": "begin"})
        with open(journal.journal_path, "a") as fh:
            fh.write('{"event": "com')  # crash mid-append
        assert [e["event"] for e in journal.events()] == ["begin"]

    def test_commit_replaces_manifest_atomically(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.commit({"format": 1, "superstep": 3})
        journal.commit({"format": 1, "superstep": 4})
        assert journal.load_manifest()["superstep"] == 4
        assert not list(tmp_path.glob("*.tmp"))
        commits = [e for e in journal.events() if e["event"] == "commit"]
        assert [c["superstep"] for c in commits] == [3, 4]

    def test_missing_manifest_returns_none(self, tmp_path):
        assert RunJournal(tmp_path).load_manifest() is None

    def test_unreadable_manifest_raises(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.manifest_path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            journal.load_manifest()

    def test_wrong_format_rejected(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.manifest_path.write_text(json.dumps({"format": 999}))
        with pytest.raises(CheckpointError, match="unsupported manifest format"):
            journal.load_manifest()

    def test_crash_before_commit_preserves_old_manifest(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.commit({"format": 1, "superstep": 1})
        crashy = RunJournal(
            tmp_path, injector=FaultInjector(FaultPlan(crash_before_commit=1))
        )
        with pytest.raises(InjectedCrash):
            crashy.commit({"format": 1, "superstep": 2})
        assert RunJournal(tmp_path).load_manifest()["superstep"] == 1


class TestInjectorCounters:
    def test_counters_track_operations(self, tmp_path):
        store = faulty_store(tmp_path, FaultPlan())
        path = store.write(sample_partition())
        store.read(path)
        assert store.injector.writes == 1
        assert store.injector.reads == 1
        assert store.injector.injected_errors == 0
        assert store.injector.injected_crashes == 0
