"""Retry-with-backoff policy for transient I/O failures.

Long out-of-core closures hit the disk thousands of times; a single
transient ``EIO`` (flaky block device, NFS hiccup) or ``ENOSPC`` (freed
moments later when deferred partition deletes are purged) should cost a
bounded retry, not the whole multi-hour fixpoint.  :class:`RetryPolicy`
encodes the classic exponential-backoff loop with an explicit transient
errno set, so the partition store can wrap its reads and writes without
hiding *persistent* failures — anything non-transient, or still failing
after the last attempt, propagates unchanged.
"""

from __future__ import annotations

import errno
import random
import time
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterator, Optional, TypeVar

T = TypeVar("T")

#: Errnos worth retrying.  ``ENOSPC`` is included deliberately: with
#: deferred deletes (see ``PartitionStore.retire``) space is routinely
#: reclaimed between attempts.
TRANSIENT_ERRNOS: FrozenSet[int] = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EINTR, errno.EBUSY, errno.ENOSPC}
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff over a fixed attempt budget.

    ``attempts`` counts *total* tries (1 = no retry).  The delay before
    retry ``i`` (0-based) is ``base_delay * multiplier**i``, capped at
    ``max_delay``.  ``jitter`` (a fraction in ``[0, 1]``) randomizes each
    delay by ``±jitter`` of its value, so a fleet of clients retrying the
    same overloaded daemon does not stampede back in lockstep; the base
    schedule from :meth:`delays` stays deterministic for tests.  Only
    :class:`OSError`s whose errno is in ``transient_errnos`` are retried
    by default; everything else — including ``FileNotFoundError`` and
    checksum failures — is re-raised on first sight, because retrying a
    deterministic failure only hides it.  Callers with a different notion
    of "transient" (the service client: connection resets, typed
    ``overloaded`` responses) pass their own ``retryable`` predicate to
    :meth:`call`.
    """

    attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.0
    transient_errnos: FrozenSet[int] = field(default=TRANSIENT_ERRNOS)

    @classmethod
    def for_store(cls) -> "RetryPolicy":
        """The disk-facing policy: 3 quick attempts, no jitter.

        One store talks to one disk — there is no thundering herd to
        de-synchronize, and the deterministic schedule is what the
        fault-injection tests replay against.  Shared by
        :class:`~repro.partition.storage.PartitionStore` and the
        session's default store wiring, so the two can never drift.
        """
        return cls(attempts=3, base_delay=0.01, multiplier=2.0, max_delay=1.0)

    @classmethod
    def for_client(cls) -> "RetryPolicy":
        """The network-facing policy: 5 attempts, 50 ms backoff, ±25 % jitter.

        Many clients retry against one daemon, so jitter keeps them from
        stampeding back in lockstep.  The default of
        :class:`~repro.service.client.ServiceClient`.
        """
        return cls(
            attempts=5,
            base_delay=0.05,
            multiplier=2.0,
            max_delay=2.0,
            jitter=0.25,
        )

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delays(self) -> Iterator[float]:
        """The backoff delay before each retry (``attempts - 1`` values)."""
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            yield min(delay, self.max_delay)
            delay *= self.multiplier

    def jittered_delays(
        self, rng: Optional[random.Random] = None
    ) -> Iterator[float]:
        """:meth:`delays` with the ``jitter`` fraction applied."""
        pick = (rng or random).uniform
        for delay in self.delays():
            if self.jitter:
                delay *= 1.0 + pick(-self.jitter, self.jitter)
            yield max(0.0, delay)

    def is_transient(self, exc: BaseException) -> bool:
        return (
            isinstance(exc, OSError)
            and exc.errno is not None
            and exc.errno in self.transient_errnos
        )

    def call(
        self,
        fn: Callable[[], T],
        on_retry: Optional[Callable[[BaseException, int], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        retryable: Optional[Callable[[BaseException], bool]] = None,
    ) -> T:
        """Run ``fn`` under the policy; returns its result.

        ``on_retry(exc, attempt)`` is invoked before each backoff sleep —
        the store uses it to count retries for the engine's telemetry.
        ``retryable`` overrides :meth:`is_transient` as the predicate
        deciding which exceptions are worth another attempt.
        """
        should_retry = retryable if retryable is not None else self.is_transient
        last_delay_iter = self.jittered_delays()
        attempt = 0
        while True:
            try:
                return fn()
            except BaseException as exc:
                if not should_retry(exc):
                    raise
                try:
                    delay = next(last_delay_iter)
                except StopIteration:
                    raise exc from None
                attempt += 1
                if on_retry is not None:
                    on_retry(exc, attempt)
                if delay > 0:
                    sleep(delay)
