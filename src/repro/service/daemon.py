"""The closure daemon: resident closures, concurrent checker queries.

One :class:`ClosureDaemon` owns one :class:`~repro.engine.store.ClosureStore`
and an asyncio socket server speaking the JSON-lines protocol:

``ping``
    Liveness probe.
``load {name, source|sources, context_depth?}``
    Compile the MiniC program, run the four engine-backed analyses
    through the store (cache hit / incremental delta re-closure / cold
    run, per DESIGN.md §14), cache the resulting
    :class:`~repro.checkers.base.AnalysisContext` under ``name``, and
    pin the hottest partitions resident under the store's memory budget
    (:meth:`~repro.partition.pset.PartitionSet.pin_hot` — peak residency
    stays ≤ budget + one partition).
``check {program, checker?, mode?}``
    Run one or all registered checkers against a loaded program and
    return the reports.  Queries run on a thread pool, so many clients
    can check concurrently against the same resident closures — the
    partition sets are internally locked and checker instances are
    per-request.
``status``
    Programs loaded, per-closure residency/pinning, store entries.
``health``
    Cheap liveness + load report: in-flight count, shed/deadline
    counters, drain state, store degradations.  Never shed, never
    queued — safe to poll from orchestrators while the daemon is busy.
``shutdown``
    Stop the server after responding.

Blocking work (compile + closure + checking) runs on a
``ThreadPoolExecutor`` so the event loop stays responsive.  Three
hardening layers keep an overloaded or dying daemon *predictable*:

**Bounded in-flight queue.**  At most ``max_inflight`` blocking requests
are admitted at once; the next one is answered immediately with a typed
``kind: "overloaded"`` error (plus a ``retry_after`` hint) instead of
queueing without bound or dropping the connection.  Clients with a
retry policy back off and try again; counters surface in ``health``.

**Per-request deadlines.**  With ``request_timeout`` set, a blocking
request that exceeds it is answered with ``kind: "deadline"``.  The
worker thread finishes in the background (Python threads cannot be
killed) and still holds its in-flight slot until it does, so deadline
storms shed load rather than stacking invisible work.

**Graceful drain.**  ``SIGTERM`` (when the loop runs on the main
thread) or :meth:`request_drain` stops admitting blocking work — new
requests get ``kind: "draining"`` — waits up to ``drain_grace`` seconds
for in-flight requests to finish, then stops the server.

Oversized frames no longer kill the connection either: the daemon
drains the over-limit payload to its terminating newline, answers with
``kind: "protocol-error"``, and keeps serving the same socket.

A planned
:class:`~repro.util.faults.InjectedCrash` during a request is the
daemon's simulated power loss: with ``crash_mode="exit"`` (the ``serve``
CLI) the process hard-exits like a SIGKILL, leaving the store entry
interrupted mid-journal; with ``crash_mode="raise"`` (in-process tests)
the daemon reports the crash and stops serving.  Either way a restarted
daemon resumes the interrupted closure from its committed watermark on
the next ``load``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
)
from repro.util.faults import InjectedCrash

PathLike = Union[str, Path]

#: Exit status of a ``crash_mode="exit"`` daemon hit by an injected
#: crash — distinguishable from a clean shutdown (0) and from Python
#: tracebacks (1) in the subprocess fault tests.
CRASH_EXIT_STATUS = 70


class ClosureDaemon:
    """Serves checker queries against store-backed resident closures."""

    def __init__(
        self,
        store_root: PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        max_edges_per_partition: Optional[int] = None,
        num_partitions: Optional[int] = None,
        memory_budget: Optional[int] = None,
        parallel_backend: Optional[str] = None,
        num_workers: int = 8,
        fault_injector=None,
        crash_mode: str = "raise",
        announce: bool = False,
        max_inflight: int = 32,
        request_timeout: Optional[float] = None,
        drain_grace: float = 10.0,
        max_message_bytes: int = MAX_MESSAGE_BYTES,
    ) -> None:
        from repro.engine.store import ClosureStore  # local: heavy import

        if crash_mode not in ("raise", "exit"):
            raise ValueError(f"unknown crash_mode {crash_mode!r}")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.store = ClosureStore(
            store_root,
            max_edges_per_partition=max_edges_per_partition,
            num_partitions=num_partitions,
            memory_budget=memory_budget,
            parallel_backend=parallel_backend,
            fault_injector=fault_injector,
        )
        self.host = host
        self.port = port
        self.num_workers = num_workers
        self.crash_mode = crash_mode
        self.announce = announce
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.drain_grace = drain_grace
        self.max_message_bytes = max_message_bytes
        self.address: Optional[Tuple[str, int]] = None
        self.crashed: Optional[str] = None
        self.shed_count = 0
        self.deadline_count = 0
        self.oversized_count = 0
        self._inflight = 0
        self._draining = False
        self._programs: Dict[str, Any] = {}  # name -> AnalysisContext
        self._pinned: Dict[str, Dict[str, List[int]]] = {}
        self._programs_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="closure-svc"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._requests_served = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the server until :meth:`request_stop` (or ``shutdown``)."""
        try:
            asyncio.run(self._main())
        finally:
            self._executor.shutdown(wait=False)

    def request_stop(self) -> None:
        """Ask a running server to stop; safe from any thread."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            # The loop closed between the check and the call: the
            # server is already down, which is what was asked for.
            pass

    def request_drain(self) -> None:
        """Begin a graceful drain; safe from any thread.

        Stops admitting blocking work (new ``load``/``check`` requests
        are answered ``kind: "draining"``), waits up to ``drain_grace``
        seconds for in-flight requests to complete, then stops the
        server.  This is also the ``SIGTERM`` behavior when the daemon
        owns the main thread (the ``serve`` CLI).
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._begin_drain)
        except RuntimeError:
            pass

    def _begin_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        assert self._loop is not None
        self._loop.create_task(self._drain_then_stop())

    async def _drain_then_stop(self) -> None:
        deadline = asyncio.get_running_loop().time() + self.drain_grace
        while self._inflight > 0:
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0.05)
        if self._stop is not None:
            self._stop.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client,
            host=self.host,
            port=self.port,
            limit=self.max_message_bytes,
        )
        try:
            # SIGTERM drains gracefully when the loop owns the main
            # thread; in-process ServiceThread daemons use
            # request_drain() instead (signals stay with the host app).
            self._loop.add_signal_handler(signal.SIGTERM, self._begin_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        self.address = server.sockets[0].getsockname()[:2]
        if self.announce:
            import sys

            print(
                f"serving on {self.address[0]}:{self.address[1]}",
                file=sys.stderr,
                flush=True,
            )
        self._started.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            self._started.clear()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _read_frame(self, reader) -> Tuple[Optional[bytes], bool]:
        """One newline-terminated frame; ``(line, oversized)``.

        ``line`` is ``None`` at EOF.  An over-limit frame is *discarded
        through its terminating newline* — consuming exactly the scanned
        bytes each round, so no byte of the next request is lost — and
        reported as ``oversized`` with the connection still framed.
        """
        try:
            return await reader.readuntil(b"\n"), False
        except asyncio.IncompleteReadError as exc:
            return (exc.partial or None), False
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
            while True:
                if consumed:
                    try:
                        await reader.readexactly(consumed)
                    except asyncio.IncompleteReadError:
                        return None, True
                try:
                    await reader.readuntil(b"\n")
                    return b"", True
                except asyncio.IncompleteReadError:
                    return None, True
                except asyncio.LimitOverrunError as again:
                    consumed = again.consumed

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                line, oversized = await self._read_frame(reader)
                if oversized:
                    # The frame is gone but the stream is intact: answer
                    # with a typed protocol error and keep serving.
                    self.oversized_count += 1
                    writer.write(
                        encode_message(
                            error_response(
                                f"frame exceeds the "
                                f"{self.max_message_bytes}-byte limit",
                                kind="protocol-error",
                                limit=self.max_message_bytes,
                            )
                        )
                    )
                    await writer.drain()
                    if line is None:
                        break
                    continue
                if not line:
                    break
                request: Dict[str, Any] = {}
                try:
                    request = decode_message(line)
                except ProtocolError as exc:
                    response: Dict[str, Any] = error_response(
                        str(exc), kind="protocol-error"
                    )
                else:
                    response = await self._dispatch(request)
                writer.write(encode_message(response))
                await writer.drain()
                if request_is_shutdown(request, response):
                    self._stop.set()
                    break
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        self._requests_served += 1
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "health":
            return self._health()
        if op == "status":
            return self._status()
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        if op == "load":
            return await self._run_blocking(self._load, request)
        if op == "check":
            return await self._run_blocking(self._check, request)
        return error_response(f"unknown op {op!r}")

    async def _run_blocking(self, fn, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            return error_response(
                "daemon is draining; not admitting new work",
                kind="draining",
            )
        if self._inflight >= self.max_inflight:
            # Typed backpressure: the client learns *why* and when to
            # come back, instead of a dropped connection or an unbounded
            # queue hiding the overload.
            self.shed_count += 1
            return error_response(
                f"daemon is overloaded ({self._inflight} requests in "
                f"flight, limit {self.max_inflight})",
                kind="overloaded",
                inflight=self._inflight,
                max_inflight=self.max_inflight,
                retry_after=0.05,
            )
        loop = asyncio.get_running_loop()
        self._inflight += 1
        future = loop.run_in_executor(self._executor, fn, request)
        future.add_done_callback(self._note_request_done)
        try:
            if self.request_timeout is not None:
                try:
                    return await asyncio.wait_for(
                        asyncio.shield(future), self.request_timeout
                    )
                except asyncio.TimeoutError:
                    # The worker thread cannot be killed; it keeps its
                    # in-flight slot until it actually finishes (see
                    # _note_request_done), so deadline storms shed load
                    # instead of silently stacking background work.
                    self.deadline_count += 1
                    return error_response(
                        f"request exceeded the {self.request_timeout}s "
                        "deadline",
                        kind="deadline",
                        timeout=self.request_timeout,
                    )
            return await future
        except InjectedCrash as exc:
            if self.crash_mode == "exit":
                # A simulated power loss: no cleanup, no goodbye — the
                # store entry stays interrupted mid-journal exactly as a
                # SIGKILL would leave it.
                os._exit(CRASH_EXIT_STATUS)
            # Raise mode: report the crash to the client first; the
            # handler stops the server only after the response is
            # flushed (stopping here races the write against server
            # teardown and can cancel the handler mid-response).
            self.crashed = str(exc)
            return error_response("injected crash", detail=str(exc), crashed=True)
        except Exception as exc:  # surface, don't kill the server
            return error_response(f"{type(exc).__name__}: {exc}")

    def _note_request_done(self, future) -> None:
        """Release the in-flight slot when the worker actually finishes.

        Runs on the event loop (asyncio executor futures schedule their
        callbacks there), so the admission check never races it.  The
        exception of a deadline-abandoned future must be retrieved here
        — and an InjectedCrash in exit mode still hard-kills the process
        even if its request already got a deadline response.
        """
        self._inflight -= 1
        if future.cancelled():
            return
        exc = None
        try:
            exc = future.exception()
        except asyncio.CancelledError:
            return
        if isinstance(exc, InjectedCrash) and self.crash_mode == "exit":
            os._exit(CRASH_EXIT_STATUS)

    def _health(self) -> Dict[str, Any]:
        """The cheap load/liveness report; never shed, never queued."""
        return {
            "ok": True,
            "op": "health",
            "draining": self._draining,
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "workers": self.num_workers,
            "request_timeout": self.request_timeout,
            "requests_served": self._requests_served,
            "shed": self.shed_count,
            "deadline_hits": self.deadline_count,
            "oversized_frames": self.oversized_count,
            "degraded_to_cold": self.store.degraded_to_cold,
            "crashed": self.crashed,
        }

    # ------------------------------------------------------------------
    # blocking op bodies (executor threads)
    # ------------------------------------------------------------------
    def _load(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.checkers.driver import run_analyses
        from repro.frontend import compile_program

        name = request.get("name")
        if not name:
            return error_response("load needs a program name")
        if "sources" in request:
            source = [(str(m), str(s)) for m, s in request["sources"]]
        elif "source" in request:
            source = request["source"]
        else:
            return error_response("load needs source or sources")
        pg = compile_program(source, context_depth=request.get("context_depth"))
        ctx = run_analyses(pg, closure_store=self.store)
        pinned: Dict[str, List[int]] = {}
        closures: Dict[str, Dict[str, Any]] = {}
        for label, computation in _closures(ctx):
            pinned[label] = computation.pset.pin_hot()
            stats = computation.stats
            closures[label] = {
                "source": stats.closure_source,
                "supersteps": stats.num_supersteps,
                "final_edges": stats.final_edges,
                "delta_added_edges": stats.delta_added_edges,
                "delta_seed_partitions": stats.delta_seed_partitions,
                "resumed_from": stats.resumed_from_superstep,
                "pinned": len(pinned[label]),
            }
        with self._programs_lock:
            self._programs[name] = ctx
            self._pinned[name] = pinned
        return {
            "ok": True,
            "program": name,
            "vertices": pg.num_vertices,
            "edges": pg.num_edges,
            "closures": closures,
        }

    def _check(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.checkers.driver import ALL_CHECKERS

        name = request.get("program")
        with self._programs_lock:
            ctx = self._programs.get(name)
        if ctx is None:
            return error_response(f"program {name!r} not loaded")
        wanted = request.get("checker")
        mode = request.get("mode", "augmented")
        if mode not in ("baseline", "augmented"):
            return error_response(f"unknown mode {mode!r}")
        classes = [
            cls for cls in ALL_CHECKERS if wanted in (None, cls.name)
        ]
        if not classes:
            return error_response(f"unknown checker {wanted!r}")
        reports = []
        for cls in classes:
            checker = cls()
            found = (
                checker.check_augmented(ctx)
                if mode == "augmented"
                else checker.check_baseline(ctx)
            )
            reports.extend(
                {
                    "checker": r.checker,
                    "function": r.function,
                    "module": r.module,
                    "line": r.line,
                    "variable": r.variable,
                    "message": r.message,
                    "interprocedural": r.interprocedural,
                }
                for r in found
            )
        return {
            "ok": True,
            "program": name,
            "mode": mode,
            "checkers": [cls.name for cls in classes],
            "reports": reports,
        }

    def _status(self) -> Dict[str, Any]:
        with self._programs_lock:
            items = list(self._programs.items())
            pinned = {name: dict(p) for name, p in self._pinned.items()}
        programs: Dict[str, Any] = {}
        for name, ctx in items:
            closures: Dict[str, Any] = {}
            for label, computation in _closures(ctx):
                pset = computation.pset
                closures[label] = {
                    "source": computation.stats.closure_source,
                    "partitions": pset.num_partitions,
                    "resident_bytes": pset.resident_bytes(),
                    "total_bytes": pset.total_bytes(),
                    "largest_partition_bytes": max(
                        (
                            int(pset.slot_state(pid)["nbytes"])
                            for pid in range(pset.num_partitions)
                        ),
                        default=0,
                    ),
                    "peak_resident_bytes": pset.residency.peak_resident_bytes,
                    "memory_budget": pset.memory_budget,
                    "pinned": pinned.get(name, {}).get(label, []),
                }
            programs[name] = {
                "vertices": ctx.pg.num_vertices,
                "edges": ctx.pg.num_edges,
                "closures": closures,
            }
        return {
            "ok": True,
            "programs": programs,
            "store_entries": len(self.store.entries()),
            "memory_budget": self.store.memory_budget,
            "workers": self.num_workers,
            "requests_served": self._requests_served,
            "crashed": self.crashed,
        }


def _closures(ctx) -> Iterator[Tuple[str, Any]]:
    """The four engine-backed computations bundled in a context."""
    yield "pointsto", ctx.pointsto.computation
    yield "nullflow", ctx.nullflow.computation
    yield "taintflow", ctx.taintflow.computation
    yield "taint", ctx.taint.computation


def request_is_shutdown(
    request: Dict[str, Any], response: Dict[str, Any]
) -> bool:
    if request.get("op") == "shutdown" and bool(response.get("ok")):
        return True
    # An injected crash in raise mode also stops the server — but only
    # after its error response has reached the client.
    return bool(response.get("crashed"))


class ServiceThread:
    """An in-process daemon for tests and benchmarks.

    Runs :meth:`ClosureDaemon.serve_forever` on a background thread and
    blocks :meth:`start` until the socket is bound, so callers get a
    connectable ``(host, port)`` back.  Use as a context manager; exit
    stops the server and joins the thread.
    """

    def __init__(self, daemon: ClosureDaemon, start_timeout: float = 30.0):
        self.daemon = daemon
        self.start_timeout = start_timeout
        self._thread: Optional[threading.Thread] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self.daemon.serve_forever, daemon=True, name="closure-daemon"
        )
        self._thread.start()
        if not self.daemon._started.wait(self.start_timeout):
            raise RuntimeError("daemon did not start in time")
        assert self.daemon.address is not None
        return self.daemon.address

    def stop(self, timeout: float = 30.0) -> None:
        self.daemon.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
