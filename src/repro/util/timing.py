"""Timing helpers used by the engine and the benchmark harness.

The paper's Table 6 breaks Graspan's running time into computation time
(CT), I/O time, and garbage-collection time (GC).  Python has no meaningful
per-phase GC column, so :class:`TimeBreakdown` tracks named phases
generically; the bench harness reports ``compute`` and ``io`` and marks GC
as not applicable.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator


class Stopwatch:
    """A restartable wall-clock stopwatch.

    >>> sw = Stopwatch()
    >>> sw.start()
    >>> _ = sw.stop()
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started_at: float | None = None

    def start(self) -> "Stopwatch":
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch not running")
        self.elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self.elapsed

    @property
    def running(self) -> bool:
        return self._started_at is not None

    def reset(self) -> None:
        self.elapsed = 0.0
        self._started_at = None


class TimeBreakdown:
    """Accumulates wall-clock time per named phase (e.g. ``compute``, ``io``).

    Used by :class:`repro.engine.engine.GraspanEngine` to produce the
    Table 6 style CT / I/O breakdown.

    Accumulation is thread-safe: the closure daemon's executor threads
    may record ``io`` for the same computation concurrently, so
    overlapping phases simply sum their wall-clock contributions per
    thread.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._lock = threading.Lock()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self._totals[name] = self._totals.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        with self._lock:
            return self._totals.get(name, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._totals.values())

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._totals)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in sorted(self.as_dict().items()))
        return f"TimeBreakdown({parts})"
