"""Deterministic fault injection for the durability stack.

The crash-safety tests need to kill the engine at exactly the Nth store
write, tear a partition file mid-write, flip payload bytes, or raise
scheduled ``EIO``/``ENOSPC`` errors — and do it *reproducibly*, so a failing seed replays.  This module provides:

:class:`InjectedCrash`
    A :class:`BaseException` standing in for ``SIGKILL``.  It derives
    from ``BaseException`` (not ``Exception``) so no recovery path in
    the engine can accidentally swallow it, and the store's tmp-file
    cleanup deliberately skips it — a real power loss runs no cleanup,
    so neither does a simulated one.

:class:`FaultPlan`
    A declarative schedule of faults, indexed by operation count
    (1-based: "the 3rd write", "the 2nd manifest commit").  Built
    directly, randomized from a seed (:meth:`FaultPlan.random`), or
    parsed from ``REPRO_FAULT_*`` environment variables
    (:meth:`FaultPlan.from_env`).

:class:`FaultInjector`
    The runtime half: counts operations and fires the planned faults.
    The partition store and the run journal each call its hooks at
    their fault points; with no injector (or an
    empty plan) every hook is a no-op.

Environment knobs (all optional; see README "Fault injection"):

``REPRO_FAULT_SEED``
    Seed consumed by the fault-injection tests to place faults.
``REPRO_FAULT_CRASH_WRITE``
    Crash (torn tmp file) during the Nth partition write.
``REPRO_FAULT_FLIP_WRITE``
    Flip one payload byte of the Nth completed partition write.
``REPRO_FAULT_CRASH_COMMIT`` / ``REPRO_FAULT_CRASH_PRECOMMIT``
    Crash just after / just before the Nth manifest commit.
``REPRO_FAULT_ERRNO_WRITE`` / ``REPRO_FAULT_ERRNO_READ``
    Comma-separated ``index:ERRNO`` schedule of injected ``OSError``s,
    e.g. ``"2:EIO,5:ENOSPC"``.
"""

from __future__ import annotations

import errno
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional


class InjectedCrash(BaseException):
    """A simulated hard kill (power loss / SIGKILL) raised by an injector."""


def _parse_errno_schedule(text: str) -> Dict[int, int]:
    """Parse ``"2:EIO,5:ENOSPC"`` into ``{2: errno.EIO, 5: errno.ENOSPC}``."""
    schedule: Dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        index_text, _, name = part.partition(":")
        code = getattr(errno, name.strip().upper(), None)
        if code is None:
            raise ValueError(f"unknown errno name {name!r} in fault schedule {text!r}")
        schedule[int(index_text)] = code
    return schedule


def _format_errno_schedule(schedule: Mapping[int, int]) -> str:
    """Render ``{2: errno.EIO}`` back into ``"2:EIO"`` (sorted by index)."""
    return ",".join(
        f"{index}:{errno.errorcode[code]}"
        for index, code in sorted(schedule.items())
    )


def _env_int(env: Mapping[str, str], key: str) -> Optional[int]:
    raw = env.get(key, "").strip()
    return int(raw) if raw else None


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, indexed by operation count.

    All indices are 1-based over the injector's own counters; ``None``
    disables that fault.  ``errno_at_write``/``errno_at_read`` raise a
    *transient* :class:`OSError` once at the scheduled operation (the
    store's retry policy is expected to absorb it — unless the same
    index appears repeatedly, which the dict form cannot express, so
    exhaustion tests schedule consecutive indices instead).
    """

    crash_at_write: Optional[int] = None  # tear the Nth write's tmp file
    torn_bytes: int = 12  # bytes left in the torn tmp file
    flip_byte_at_write: Optional[int] = None  # corrupt the Nth completed write
    errno_at_write: Dict[int, int] = field(default_factory=dict)
    errno_at_read: Dict[int, int] = field(default_factory=dict)
    crash_before_commit: Optional[int] = None  # die with manifest N unwritten
    crash_after_commit: Optional[int] = None  # die right after manifest N lands

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "FaultPlan":
        env = os.environ if env is None else env
        return cls(
            crash_at_write=_env_int(env, "REPRO_FAULT_CRASH_WRITE"),
            flip_byte_at_write=_env_int(env, "REPRO_FAULT_FLIP_WRITE"),
            errno_at_write=_parse_errno_schedule(env.get("REPRO_FAULT_ERRNO_WRITE", "")),
            errno_at_read=_parse_errno_schedule(env.get("REPRO_FAULT_ERRNO_READ", "")),
            crash_before_commit=_env_int(env, "REPRO_FAULT_CRASH_PRECOMMIT"),
            crash_after_commit=_env_int(env, "REPRO_FAULT_CRASH_COMMIT"),
        )

    @classmethod
    def random(cls, seed: int, max_index: int = 8) -> "FaultPlan":
        """A seeded single-fault plan used by the randomized test matrix."""
        rng = random.Random(seed)
        kind = rng.choice(["crash_write", "flip_write", "errno_write", "errno_read"])
        index = rng.randint(1, max_index)
        if kind == "crash_write":
            return cls(crash_at_write=index, torn_bytes=rng.randint(1, 64))
        if kind == "flip_write":
            return cls(flip_byte_at_write=index)
        if kind == "errno_write":
            return cls(errno_at_write={index: rng.choice([errno.EIO, errno.ENOSPC])})
        return cls(errno_at_read={index: errno.EIO})

    def to_env(self) -> Dict[str, str]:
        """The plan as ``REPRO_FAULT_*`` variables; inverse of
        :meth:`from_env` (modulo ``torn_bytes``, which has no knob).

        Only set faults appear, so the dict can be merged into a child
        process environment without clearing unrelated knobs.
        """
        env: Dict[str, str] = {}
        if self.crash_at_write is not None:
            env["REPRO_FAULT_CRASH_WRITE"] = str(self.crash_at_write)
        if self.flip_byte_at_write is not None:
            env["REPRO_FAULT_FLIP_WRITE"] = str(self.flip_byte_at_write)
        if self.errno_at_write:
            env["REPRO_FAULT_ERRNO_WRITE"] = _format_errno_schedule(
                self.errno_at_write
            )
        if self.errno_at_read:
            env["REPRO_FAULT_ERRNO_READ"] = _format_errno_schedule(
                self.errno_at_read
            )
        if self.crash_before_commit is not None:
            env["REPRO_FAULT_CRASH_PRECOMMIT"] = str(self.crash_before_commit)
        if self.crash_after_commit is not None:
            env["REPRO_FAULT_CRASH_COMMIT"] = str(self.crash_after_commit)
        return env

    def empty(self) -> bool:
        return self == FaultPlan(torn_bytes=self.torn_bytes)


class FaultInjector:
    """Counts store/journal operations and fires the planned faults.

    One injector instance follows one engine run (counters are
    cumulative), which is exactly what crash tests want: "the 7th write
    of this run" means the same operation every time.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.writes = 0
        self.reads = 0
        self.commits = 0
        self.injected_errors = 0
        self.injected_crashes = 0
        self.flipped_writes = 0

    # -- partition store hooks ------------------------------------------
    def on_write_start(self, path) -> None:
        """Called once per ``save_partition`` before any bytes move."""
        self.writes += 1
        code = self.plan.errno_at_write.get(self.writes)
        if code is not None:
            self.injected_errors += 1
            raise OSError(code, os.strerror(code), str(path))

    def on_tmp_written(self, fh, tmp_path) -> None:
        """Called with the tmp file complete but not yet renamed.

        The crash fault truncates the tmp to ``torn_bytes`` and raises
        :class:`InjectedCrash` — leaving exactly the torn ``*.tmp``
        orphan a real mid-write power loss leaves.
        """
        if self.plan.crash_at_write == self.writes:
            self.injected_crashes += 1
            fh.flush()
            fh.truncate(max(0, self.plan.torn_bytes))
            raise InjectedCrash(f"injected crash during write #{self.writes} ({tmp_path})")

    def on_write_done(self, path) -> None:
        """Called after the rename; the corruption fault lands here."""
        if self.plan.flip_byte_at_write == self.writes:
            self.flipped_writes += 1
            flip_payload_byte(path)

    def on_read_start(self, path) -> None:
        self.reads += 1
        code = self.plan.errno_at_read.get(self.reads)
        if code is not None:
            self.injected_errors += 1
            raise OSError(code, os.strerror(code), str(path))

    # -- run journal hooks ----------------------------------------------
    def on_commit_start(self) -> None:
        """Called before the manifest replace of the next commit."""
        if self.plan.crash_before_commit == self.commits + 1:
            self.injected_crashes += 1
            raise InjectedCrash(
                f"injected crash before manifest commit #{self.commits + 1}"
            )

    def on_commit_done(self) -> None:
        """Called after the manifest replace is durable."""
        self.commits += 1
        if self.plan.crash_after_commit == self.commits:
            self.injected_crashes += 1
            raise InjectedCrash(f"injected crash after manifest commit #{self.commits}")


def flip_payload_byte(path, offset: int = -1) -> None:
    """Flip one byte of ``path`` in place (default: the last byte).

    The canonical corruption primitive for checksum tests — a single bit
    pattern change anywhere in the payload must fail verification.
    """
    with open(path, "r+b") as fh:
        fh.seek(offset, os.SEEK_END if offset < 0 else os.SEEK_SET)
        pos = fh.tell()
        byte = fh.read(1)
        if not byte:
            raise ValueError(f"{path}: nothing to corrupt at offset {offset}")
        fh.seek(pos)
        fh.write(bytes([byte[0] ^ 0xFF]))


def faulty_store(workdir, plan: Optional[FaultPlan] = None, **store_kwargs):
    """Build a :class:`~repro.partition.storage.PartitionStore` wired to faults.

    Convenience wrapper for tests: the returned store carries a fresh
    :class:`FaultInjector` for ``plan`` (exposed as ``store.injector``).
    """
    from repro.partition.storage import PartitionStore  # local: avoid cycle

    return PartitionStore(
        workdir=workdir, injector=FaultInjector(plan), **store_kwargs
    )
