"""A thin synchronous client for the closure daemon.

One TCP connection, one JSON-lines conversation.  Each convenience
method sends a request and blocks for its response; responses with
``ok: false`` raise :class:`ServiceError` so callers never silently use
an error payload as data.  The client is *not* thread-safe — concurrent
query tests and benchmarks open one client per thread, which is also the
honest way to measure the daemon's concurrency.

Transient failure is expected, not exceptional: the daemon sheds load
with typed ``kind: "overloaded"`` / ``"draining"`` responses, restarts
drop connections, and crash-mode daemons vanish mid-request.  The client
absorbs all of these under a bounded
:class:`~repro.util.retry.RetryPolicy` — exponential backoff with
jitter, reconnecting the socket between attempts — and surfaces
:class:`ServiceUnavailable` (a :class:`ServiceError`) only once the
attempt budget is spent.  Definitive errors (unknown op, bad program,
injected crash reports, deadline exceeded) are never retried: retrying a
deterministic failure only hides it.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.protocol import decode_message, encode_message
from repro.util.retry import RetryPolicy


class ServiceError(RuntimeError):
    """The daemon answered with ``ok: false`` (or not at all)."""

    def __init__(self, message: str, response: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.response = response or {}


class ServiceUnavailable(ServiceError):
    """The daemon stayed unreachable or shedding for every attempt."""


#: Typed error kinds the daemon uses for load shedding — worth backing
#: off and retrying, unlike definitive errors.
RETRYABLE_KINDS = frozenset({"overloaded", "draining"})

#: The default client policy: five attempts, 50 ms doubling backoff with
#: ±25 % jitter so retrying clients don't stampede back in lockstep.
#: One shared constructor (``RetryPolicy.for_client``) feeds this and any
#: future network caller — the backoff defaults live in exactly one place.
DEFAULT_CLIENT_RETRY = RetryPolicy.for_client()


class ServiceClient:
    """Talks to one :class:`~repro.service.daemon.ClosureDaemon`.

    ``timeout`` bounds each request round-trip; ``load`` of a cold
    program runs a full closure on the other side, so the default is
    generous.  ``retry`` bounds how hard the client tries against a
    refused connection, a dropped socket, or a shedding daemon before
    raising :class:`ServiceUnavailable`; pass
    ``RetryPolicy(attempts=1)`` to disable retries entirely.  The
    ``retries`` attribute counts backoff retries actually taken — the
    chaos benchmark reads it for its telemetry.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 600.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_CLIENT_RETRY
        self.retries = 0
        self._sock: Optional[socket.socket] = None
        self._fh = None
        self._connect()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._fh = self._sock.makefile("rwb")

    def _disconnect(self) -> None:
        sock, fh = self._sock, self._fh
        self._sock = None
        self._fh = None
        try:
            if fh is not None:
                fh.close()
        except OSError:
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:
            pass

    def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One send/receive over the current (re)connected socket."""
        self._connect()
        assert self._fh is not None
        self._fh.write(encode_message(message))
        self._fh.flush()
        line = self._fh.readline()
        if not line:
            raise ServiceError(
                f"connection closed before a response to {message.get('op')!r}"
            )
        return decode_message(line)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; return its ``ok: true`` response.

        Connection failures (refused, reset, timed out, closed before a
        response) and typed shedding responses are retried under the
        client's policy with a fresh connection per attempt; exhaustion
        raises :class:`ServiceUnavailable` naming the first and last
        failure.  Any other ``ok: false`` response raises
        :class:`ServiceError` immediately.
        """
        delays = self.retry.jittered_delays()
        first_failure: Optional[str] = None
        while True:
            failure: Optional[str] = None
            response: Optional[Dict[str, Any]] = None
            try:
                response = self._roundtrip(message)
            except ServiceError as exc:
                self._disconnect()
                failure = str(exc)
            except (ConnectionError, socket.timeout, OSError) as exc:
                self._disconnect()
                failure = f"{type(exc).__name__}: {exc}"
            if response is not None:
                if response.get("ok"):
                    return response
                if response.get("kind") in RETRYABLE_KINDS:
                    failure = response.get("error", "service shedding load")
                else:
                    raise ServiceError(
                        response.get("error", "unknown service error"),
                        response,
                    )
            assert failure is not None
            if first_failure is None:
                first_failure = failure
            try:
                delay = next(delays)
            except StopIteration:
                detail = first_failure
                if failure != first_failure:
                    detail = f"{first_failure}; last: {failure}"
                raise ServiceUnavailable(
                    f"{message.get('op')!r} failed after "
                    f"{self.retry.attempts} attempts: {detail}",
                    response,
                ) from None
            self.retries += 1
            if delay > 0:
                time.sleep(delay)

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the protocol verbs
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def health(self) -> Dict[str, Any]:
        """The daemon's load report (in-flight, shed, drain state)."""
        return self.request({"op": "health"})

    def status(self) -> Dict[str, Any]:
        return self.request({"op": "status"})

    def load(
        self,
        name: str,
        source: Optional[str] = None,
        sources: Optional[Sequence[Tuple[str, str]]] = None,
        context_depth: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Compile + close + pin a program on the daemon under ``name``."""
        message: Dict[str, Any] = {"op": "load", "name": name}
        if sources is not None:
            message["sources"] = [list(pair) for pair in sources]
        elif source is not None:
            message["source"] = source
        if context_depth is not None:
            message["context_depth"] = context_depth
        return self.request(message)

    def check(
        self,
        program: str,
        checker: Optional[str] = None,
        mode: str = "augmented",
    ) -> List[Dict[str, Any]]:
        """Reports from one checker (or all) against a loaded program."""
        message: Dict[str, Any] = {"op": "check", "program": program, "mode": mode}
        if checker is not None:
            message["checker"] = checker
        return self.request(message)["reports"]

    def shutdown(self) -> None:
        """Stop the daemon (responds, then closes the server)."""
        self.request({"op": "shutdown"})
