"""The serving core and the one JSON-line server in front of it.

:class:`ServiceCore` is the transport-agnostic engine: requests enter
through :meth:`ServiceCore.submit` and resolve a :class:`ReplySlot`
(a minimal future) with an :class:`~repro.service.protocol.AlignResponse`.
Internally a request flows

    submit → validate → batcher.offer → (size/deadline flush)
           → dispatch executor → DevicePool.execute → resolve slots

with every hop reported to the core's :mod:`repro.obs` recorder (counters
and histograms always; spans too when tracing).  Admission failures
(backpressure, unknown kernel, overlong pair, struct alphabet) resolve
immediately — every submitted request is *answered*, never dropped.

:class:`AlignmentServer` is the package's one JSON-line protocol
handler: an asyncio server whose per-connection coroutine decodes each
line and dispatches on its ``type``, answering every line exactly once.
It serves a :class:`ServiceCore` (``repro serve``, every shard worker)
or the sharded :class:`~repro.shard.frontdoor.FrontDoor`.  Responses
may arrive out of request order — clients demultiplex by id.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.kernels import get_kernel
from repro.obs.export import chrome_trace, render_text_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import MetricsRecorder, Recorder
from repro.service.batcher import BatcherConfig, DynamicBatcher, PendingEntry
from repro.service.pool import DevicePool, PoolRejection
from repro.service.protocol import (
    AlignRequest,
    AlignResponse,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    line_limit,
    rejection,
    response_from_result,
)

class ReplySlot:
    """A minimal thread-safe future holding one response.

    Done callbacks run on the resolving thread (or inline when already
    resolved); exceptions they raise are swallowed so one broken client
    connection cannot poison a dispatch thread.
    """

    def __init__(self, request: AlignRequest) -> None:
        self.request = request
        self._event = threading.Event()
        self._response: Optional[AlignResponse] = None
        self._callbacks: List[Callable[[AlignResponse], None]] = []
        self._lock = threading.Lock()

    def resolve(self, response: AlignResponse) -> None:
        """Deliver the response exactly once (later calls are ignored)."""
        with self._lock:
            if self._response is not None:
                return
            self._response = response
            callbacks = list(self._callbacks)
            self._callbacks.clear()
        self._event.set()
        for callback in callbacks:
            try:
                callback(response)
            except Exception:  # noqa: BLE001 - callbacks must not poison dispatch
                pass

    def add_done_callback(
        self, callback: Callable[[AlignResponse], None]
    ) -> None:
        """Run ``callback(response)`` on resolution (inline if done)."""
        with self._lock:
            if self._response is None:
                self._callbacks.append(callback)
                return
            response = self._response
        try:
            callback(response)
        except Exception:  # noqa: BLE001 - same contract as resolve()
            pass

    def result(self, timeout: Optional[float] = None) -> AlignResponse:
        """Block until resolved; raises ``TimeoutError`` on expiry."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} unresolved after {timeout}s"
            )
        assert self._response is not None
        return self._response

    @property
    def done(self) -> bool:
        """Whether the response has been delivered."""
        return self._event.is_set()


class ServiceCore:
    """Transport-agnostic serving engine: batcher + pool + observability.

    Every hop records through ``self.recorder`` — by default a
    :class:`~repro.obs.recorder.MetricsRecorder` over the service's
    :class:`~repro.obs.metrics.MetricsRegistry` (always-on counters and
    histograms, no trace buffer).  Pass a
    :class:`~repro.obs.recorder.TraceRecorder` to additionally capture
    request/batch spans exportable as Chrome trace JSON (the ``repro
    trace`` command and the server's ``trace`` endpoint do this).
    """

    def __init__(
        self,
        pool: DevicePool,
        config: Optional[BatcherConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        dispatchers: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.pool = pool
        self.config = config or BatcherConfig()
        if recorder is None:
            recorder = MetricsRecorder(metrics or MetricsRegistry())
        self.recorder = recorder
        self.metrics = getattr(recorder, "metrics", None) or metrics \
            or MetricsRegistry()
        self._clock = clock
        self.batcher = DynamicBatcher(self.config, self._on_flush, clock=clock)
        workers = dispatchers if dispatchers is not None else len(pool.members)
        if workers < 1:
            raise ValueError(f"dispatchers must be >= 1, got {workers}")
        self._dispatch = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="service-dispatch"
        )
        self._running = False

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "ServiceCore":
        """Start the batcher's flusher thread."""
        self._running = True
        self.batcher.start()
        return self

    def stop(self) -> None:
        """Flush residual work, drain dispatches, and refuse new traffic."""
        self._running = False
        self.batcher.stop()
        self._dispatch.shutdown(wait=True)

    def __enter__(self) -> "ServiceCore":
        """Context-manager start."""
        return self.start()

    def __exit__(self, *_exc) -> None:
        """Context-manager stop."""
        self.stop()

    # -- request path -------------------------------------------------

    def submit(self, request: AlignRequest) -> ReplySlot:
        """Admit one request; the returned slot always resolves."""
        slot = ReplySlot(request)
        with self.recorder.span(
            "service.submit", kernel=request.kernel_id,
            request_id=request.request_id,
        ):
            self.recorder.count("requests_total")
            problem = self._validate(request)
            if problem is not None:
                self.recorder.count("errors_total")
                slot.resolve(error_response(request.request_id, problem))
                return slot
            if not self._running:
                self.recorder.count("rejected_total")
                slot.resolve(
                    rejection(request.request_id, "service is stopped")
                )
                return slot
            admitted = self.batcher.offer(
                request.kernel_id,
                payload=slot,
                priority=request.priority,
                deadline_ms=request.deadline_ms,
            )
            if not admitted:
                self.recorder.count("rejected_total")
                self.recorder.count(
                    f"kernel.{request.kernel_id}.rejected_total"
                )
                slot.resolve(
                    rejection(
                        request.request_id,
                        f"kernel #{request.kernel_id} queue is full "
                        f"(depth {self.config.max_queue_depth}); retry later",
                    )
                )
                return slot
            self.recorder.count("admitted_total")
            # Per-kernel admission/queue/latency instruments carry the
            # demand signal the autoscale watcher differentiates.
            self.recorder.count(f"kernel.{request.kernel_id}.admitted_total")
        return slot

    def _validate(self, request: AlignRequest) -> Optional[str]:
        """Admission-time checks; a string describes the refusal."""
        if not self.pool.supports(request.kernel_id):
            known = self.pool.kernel_ids()
            return (
                f"kernel #{request.kernel_id} is not deployed on this "
                f"service (deployed: {known})"
            )
        try:
            spec = get_kernel(request.kernel_id)
        except KeyError:
            spec = None
        if spec is not None and spec.alphabet.is_struct:
            return (
                f"kernel #{request.kernel_id} consumes struct symbols, "
                f"which the JSON-line protocol cannot carry"
            )
        max_q, max_r = self.pool.max_lengths(request.kernel_id)
        if len(request.query) > max_q or len(request.reference) > max_r:
            return (
                f"pair {len(request.query)}x{len(request.reference)} exceeds "
                f"the deployed maxima {max_q}x{max_r}"
            )
        return None

    # -- batch execution ----------------------------------------------

    def _on_flush(
        self, kernel_id: int, entries: List[PendingEntry], trigger: str
    ) -> None:
        """Batcher callback: account the flush and hand off to dispatch."""
        self.recorder.count("flushes_total")
        self.recorder.count(f"flush_{trigger}_total")
        self.recorder.observe(
            "batch_size", len(entries),
            bounds=[float(b) for b in range(1, 129)],
        )
        self.recorder.observe(
            "batch_occupancy", len(entries) / self.config.max_batch,
            bounds=[k / 64.0 for k in range(1, 65)],
        )
        try:
            self._dispatch.submit(self._run_batch, kernel_id, entries, trigger)
        except RuntimeError:
            # Executor already shut down: answer rather than drop.
            for entry in entries:
                entry.payload.resolve(rejection(
                    entry.payload.request.request_id,
                    "service shut down before dispatch",
                ))

    def _run_batch(
        self,
        kernel_id: int,
        entries: List[PendingEntry],
        trigger: str = "size",
    ) -> None:
        """Execute one flushed batch on the pool and resolve its slots."""
        pairs = [
            (entry.payload.request.query, entry.payload.request.reference)
            for entry in entries
        ]
        dispatched_at = self._clock()
        for entry in entries:
            queued_ms = (dispatched_at - entry.enqueued_at) * 1000.0
            self.recorder.observe("queue_ms", queued_ms)
            self.recorder.observe(f"kernel.{kernel_id}.queue_ms", queued_ms)
        try:
            with self.recorder.span(
                "service.batch", kernel=kernel_id, size=len(entries),
                trigger=trigger,
            ):
                outcome, _member = self.pool.execute(kernel_id, pairs)
        except (PoolRejection, ValueError) as exc:
            self.recorder.count("errors_total", len(entries))
            self.recorder.count(
                f"kernel.{kernel_id}.completed_total", len(entries)
            )
            for entry in entries:
                entry.payload.resolve(
                    error_response(entry.payload.request.request_id, str(exc))
                )
            return
        errors = {err.index: err for err in outcome.errors}
        fingerprints = getattr(outcome, "fingerprints", None)
        cached_flags = getattr(outcome, "cached", None)
        if cached_flags:
            hits = sum(1 for flag in cached_flags if flag)
            if hits:
                self.recorder.count("cache_hits_total", hits)
            if hits < len(cached_flags):
                self.recorder.count(
                    "cache_misses_total", len(cached_flags) - hits
                )
        now = self._clock()
        for index, entry in enumerate(entries):
            request = entry.payload.request
            latency_ms = (now - entry.enqueued_at) * 1000.0
            if index in errors:
                self.recorder.count("errors_total")
                response = error_response(
                    request.request_id, errors[index].message
                )
            else:
                self.recorder.count("aligned_total")
                response = response_from_result(
                    request.request_id,
                    outcome.results[index],
                    latency_ms=latency_ms,
                    fingerprint=(
                        fingerprints[index] if fingerprints else None
                    ),
                    cached=(
                        cached_flags[index] if cached_flags is not None
                        else None
                    ),
                )
            self.recorder.observe("latency_ms", latency_ms)
            self.recorder.observe(f"kernel.{kernel_id}.latency_ms", latency_ms)
            self.recorder.count(f"kernel.{kernel_id}.completed_total")
            # The queueing + compute interval of this request, anchored at
            # its enqueue time — visible as an async lane in trace exports.
            self.recorder.record_span(
                "service.request", entry.enqueued_at, now,
                kernel=kernel_id, request_id=request.request_id,
                ok=index not in errors,
            )
            entry.payload.resolve(response)  # the entry's ReplySlot

    # -- introspection ------------------------------------------------

    def metrics_snapshot(self) -> Dict:
        """Service metrics plus live pool stats (JSON-safe)."""
        snapshot = self.recorder.snapshot()
        snapshot["pool"] = self.pool.stats()
        snapshot["kernels"] = self.pool.kernel_ids()
        cache = getattr(self.pool, "cache", None)
        if cache is not None:
            snapshot["cache"] = cache.stats()
        return snapshot

    def trace_snapshot(self) -> Dict:
        """Chrome trace JSON of whatever the recorder has captured.

        With the default :class:`MetricsRecorder` the event list is empty
        (only counters are kept); a :class:`TraceRecorder` yields the full
        span/counter timeline.
        """
        return chrome_trace(self.recorder)


class _CoreTarget:
    """A :class:`ServiceCore` behind the server's target interface.

    A target is what :class:`AlignmentServer` serves: ``line_limit``
    (the longest request line it reads) and the coroutines ``start()``,
    ``align(request, reply)``, ``metrics_snapshot()``,
    ``metrics_text()``, ``trace_snapshot()`` and ``drain()``.
    ``reply(line)`` may be called from any thread.
    """

    def __init__(self, core: ServiceCore) -> None:
        self.core = core
        self.line_limit = line_limit(max(
            sum(core.pool.max_lengths(kernel_id))
            for kernel_id in core.pool.kernel_ids()
        ))

    async def start(self) -> None:
        """Nothing to do: the caller starts the core."""

    async def align(
        self, request: AlignRequest, reply: Callable[[bytes], None]
    ) -> None:
        """Submit; the response line goes out when the slot resolves."""
        self.core.submit(request).add_done_callback(
            lambda response: reply(response.to_line())
        )

    async def metrics_snapshot(self) -> Dict:
        return self.core.metrics_snapshot()

    async def metrics_text(self) -> str:
        return render_text_snapshot(self.core.metrics_snapshot())

    async def trace_snapshot(self) -> Dict:
        return self.core.trace_snapshot()

    async def drain(self) -> None:
        """Stop the core off the loop, which goes on writing replies."""
        await asyncio.get_running_loop().run_in_executor(None, self.core.stop)


class _Connection:
    """One client's writer: lines from any thread, written on the loop."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.task = asyncio.current_task()
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()

    def reply(self, line: bytes) -> None:
        """Send one line; callable from any thread."""
        if threading.get_ident() == self._loop_thread:
            self.write(line)
        else:
            self._loop.call_soon_threadsafe(self.write, line)

    def write(self, data: bytes) -> None:
        if not self.writer.is_closing():
            self.writer.write(data)


async def _next_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line (``b""`` at EOF), or ``None`` for an overlong one.

    An overlong line is consumed up to its newline, so the connection
    stays in step and the line can still be answered.
    """
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # an unterminated last line, or b"" at EOF
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)  # already buffered
            overlong = True
            continue
        return None if overlong else line


class AlignmentServer:
    """The JSON-line TCP server over a :class:`ServiceCore` or a target.

    Binds immediately: ``server_address`` (alias ``address``) is the
    bound (host, port) — pass port 0 to let the OS choose.
    :meth:`serve_in_thread` starts the event-loop thread;
    :meth:`serve_forever` starts it and blocks until :meth:`close` or a
    ``KeyboardInterrupt`` on the calling thread.  :meth:`close` stops
    accepting, drains the target (answering every request it holds) and
    stops the loop.
    """

    def __init__(self, address: Tuple[str, int], core: Any) -> None:
        self.core = core
        self._target = (
            _CoreTarget(core) if isinstance(core, ServiceCore) else core
        )
        self._sock = socket.create_server(address)
        self.server_address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._loop = asyncio.new_event_loop()
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._closed = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) the server accepts connections on."""
        return self.server_address

    def serve_in_thread(self) -> threading.Thread:
        """Start serving on a daemon loop thread and return it."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop.run_forever, name="alignment-server",
                daemon=True,
            )
            self._thread.start()
            self._call(self._start())
        return self._thread

    def serve_forever(self) -> None:
        """Serve until :meth:`close` (or an interrupt on this thread)."""
        self.serve_in_thread()
        while not self._closed.wait(0.5):  # timed: stays interruptible
            pass

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The target's metrics snapshot, fetched from any thread."""
        return self._call(self._target.metrics_snapshot(), timeout=30.0)

    def close(self) -> Dict[str, Optional[int]]:
        """Stop accepting, drain the target, stop the loop.

        Returns worker name → exit code for the processes behind the
        server: none here (:class:`~repro.shard.ShardServer` has some).
        """
        if self._closed.is_set():
            return {}
        if self._thread is None:
            self._loop.run_until_complete(self._shutdown())
        else:
            self._call(self._shutdown())
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self._loop.close()
        self._closed.set()
        return {}

    def _call(self, coro: Any, timeout: Optional[float] = None) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    async def _start(self) -> None:
        await self._target.start()
        self._server = await asyncio.start_server(
            self._serve_connection, sock=self._sock,
            limit=self._target.line_limit,
        )

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        self._sock.close()
        await self._target.drain()
        for connection in self._connections:
            connection.writer.close()
        tasks = [connection.task for connection in self._connections]
        if tasks:
            _done, stuck = await asyncio.wait(tasks, timeout=5.0)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client: answer every line until EOF."""
        connection = _Connection(writer)
        self._connections.add(connection)
        try:
            while True:
                line = await _next_line(reader)
                if line == b"":
                    break  # EOF
                if line is None or line.strip():
                    await self._answer(connection, line)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._connections.discard(connection)
            writer.close()

    async def _answer(
        self, connection: _Connection, line: Optional[bytes]
    ) -> None:
        """Decode one line (``None``: overlong) and dispatch on its ``type``."""
        target = self._target
        message: Any = None
        try:
            if line is None:
                raise ProtocolError(
                    f"request line exceeds {target.line_limit} bytes, "
                    f"the limit for the deployed maxima"
                )
            message = decode_line(line)
            kind = message.get("type")
            if kind == "align":
                request = AlignRequest.from_dict(message)
                return await target.align(request, connection.reply)
            answer = {"type": kind, "id": message.get("id")}
            if kind == "ping":
                answer["type"] = "pong"
            elif kind == "metrics":
                answer["snapshot"] = await target.metrics_snapshot()
            elif kind == "metrics_text":
                answer["text"] = await target.metrics_text()
            elif kind == "trace":
                answer["trace"] = await target.trace_snapshot()
            else:
                raise ProtocolError(f"unknown message type {kind!r}")
            connection.write(encode_line(answer))
        except Exception as exc:  # noqa: BLE001 - every line gets an answer
            # The id is echoed only when it can be a request's id.
            request_id = message.get("id") if isinstance(message, dict) else None
            connection.write(encode_line({
                "type": "result",
                "id": request_id if isinstance(request_id, str) else None,
                "status": "error",
                "error": str(exc) if isinstance(exc, ProtocolError)
                else f"internal error: {type(exc).__name__}: {exc}",
            }))
