"""The front door: route each request to one of N worker shards.

Architecture (the TAPA composition shape — independent stages joined by
bounded streams):

    client ── AlignmentServer ──> FrontDoor.align ──> ShardLink
              (the one JSON-line   route by fingerprint  │ bounded
               handler)            (HashRing)            ▼ in-flight
                                                   worker process
                                                   (AlignmentServer
                                                    over a ServiceCore)

The acceptor is :class:`~repro.service.server.AlignmentServer`, the
same server a single process runs over its :class:`ServiceCore`; here
its target is a :class:`FrontDoor`.  An ``align`` request is
fingerprinted with the same :mod:`repro.cache` key the workers cache
under, routed through the consistent-hash ring to a
:class:`ShardLink`, its id rewritten to a front-door-unique one, and
forwarded.  The link's reader task restores the original id on the way
back and replies to the owning client — so the deterministic response
payload is byte-identical to what the worker (and therefore the
single-process server) produced.

Backpressure is reject-not-drop at every boundary: a full per-shard
in-flight window, an empty ring, or an unroutable kernel each produce
an immediate ``rejected``/``error`` response; nothing is ever silently
discarded.  Health is active: a heartbeat task pings each shard and
evicts it after consecutive misses (or a dead process), failing its
in-flight requests with explicit errors and remapping the ring so the
next request routes to a survivor.

Control-plane requests (``metrics``/``metrics_text``/``trace``) fan out
to every live shard and come back aggregated: summed counters, merged
histogram envelopes, per-shard detail, ring membership and shard
health — one endpoint for the whole deployment.

:class:`ShardServer` is the :class:`AlignmentServer` over a front door
that the CLI and tests use: it also spawns the workers (via
:class:`~repro.shard.manager.ShardManager`) and turns ``close()`` into
the full graceful-drain sequence ending in worker exit codes.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.export import render_text_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import (
    AlignRequest,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    line_limit,
    rejection,
)
from repro.service.server import AlignmentServer
from repro.shard.deployment import Deployment
from repro.shard.manager import ShardHandle, ShardManager
from repro.shard.ring import DEFAULT_VNODES, HashRing
from repro.shard.router import FingerprintRouter


@dataclass(frozen=True)
class FrontDoorConfig:
    """Tuning knobs of the front door.

    ``shard_inflight_bound`` is the routed-but-unanswered window per
    shard — the bounded stream between the acceptor stage and a worker
    stage; beyond it requests are rejected (the worker's own admission
    queue provides the second, finer bound).  Heartbeats mark a shard
    dead after ``heartbeat_misses`` consecutive unanswered pings.
    """

    shard_inflight_bound: int = 1024
    heartbeat_interval_s: float = 2.0
    heartbeat_timeout_s: float = 3.0
    heartbeat_misses: int = 2
    control_timeout_s: float = 10.0
    drain_timeout_s: float = 30.0
    vnodes: int = DEFAULT_VNODES

    def __post_init__(self) -> None:
        if self.shard_inflight_bound < 1:
            raise ValueError("shard_inflight_bound must be >= 1")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")


class ShardLink:
    """The front door's connection to one worker shard."""

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.up = False
        #: forwarded id → (reply, the client's own id)
        self.pending: Dict[str, Tuple[Callable[[bytes], None], str]] = {}
        self.routed_total = 0
        self.answered_total = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._write_lock = asyncio.Lock()
        self._control: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._tasks: List["asyncio.Task[None]"] = []

    async def connect(self) -> None:
        """Open the TCP link and start the reader task."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self.up = True

    async def send(self, payload: bytes) -> None:
        """Forward one line to the worker."""
        assert self._writer is not None
        async with self._write_lock:
            self._writer.write(payload)
            await self._writer.drain()

    async def read_loop(self, on_down) -> None:
        """Pump worker lines: results to clients, control to waiters.

        Runs until EOF or error, then reports through ``on_down`` (the
        front door's eviction path) exactly once.
        """
        assert self._reader is not None
        try:
            while True:
                raw = await self._reader.readline()
                if not raw:
                    break
                line = raw.strip()
                if not line:
                    continue
                try:
                    message = decode_line(line)
                except ProtocolError:
                    continue
                message_id = message.get("id")
                if message.get("type") == "result" and message_id is not None:
                    forward = self.pending.pop(message_id, None)
                    if forward is not None:
                        self.answered_total += 1
                        reply, original_id = forward
                        message["id"] = original_id
                        reply(encode_line(message))
                    continue
                waiter = self._control.pop(message_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(message)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            if self.up:
                await on_down(self, "connection to worker lost")

    async def control_call(
        self, kind: str, message_id: str, timeout: float
    ) -> Dict[str, Any]:
        """Round-trip one control message (``ping``/``metrics``/…)."""
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_event_loop().create_future()
        )
        self._control[message_id] = future
        try:
            await self.send(encode_line({"type": kind, "id": message_id}))
            return await asyncio.wait_for(future, timeout)
        finally:
            self._control.pop(message_id, None)

    def fail_pending(self, reason: str) -> None:
        """Answer every in-flight request with an explicit error."""
        pending = list(self.pending.values())
        self.pending.clear()
        for reply, original_id in pending:
            reply(error_response(original_id, reason).to_line())

    def close(self) -> None:
        """Tear the link down (tasks cancelled, socket closed)."""
        self.up = False
        for task in self._tasks:
            task.cancel()
        if self._writer is not None:
            try:
                self._writer.close()
            except RuntimeError:
                pass

    def stats(self) -> Dict[str, Any]:
        """JSON-safe link summary."""
        return {
            "name": self.name,
            "port": self.port,
            "up": self.up,
            "in_flight": len(self.pending),
            "routed_total": self.routed_total,
            "answered_total": self.answered_total,
        }


class FrontDoor:
    """The routing target of an :class:`AlignmentServer` (loop thread only).

    It implements the server's target interface (``line_limit``,
    ``start``, ``align``, the three control-plane snapshots and
    ``drain``) over shard links instead of an in-process core.
    """

    def __init__(
        self,
        deployment: Deployment,
        router: FingerprintRouter,
        manager: ShardManager,
        config: Optional[FrontDoorConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.deployment = deployment
        self.router = router
        self.manager = manager
        self.config = config or FrontDoorConfig()
        self.metrics = registry or MetricsRegistry()
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.links: Dict[str, ShardLink] = {}
        self.line_limit = line_limit(2 * deployment.max_len)
        self._ids = itertools.count()
        self._accepting = False

    def _next_id(self) -> str:
        return f"fd-{next(self._ids)}"

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Link every spawned shard before the server accepts clients."""
        for handle in self.manager.handles():
            await self.attach(handle)
        self._accepting = True

    async def attach(self, handle: ShardHandle) -> None:
        """Link one (newly spawned) shard and put it on the ring."""
        link = ShardLink(handle.name, self.manager.host, handle.port)
        await link.connect()
        loop = asyncio.get_event_loop()
        link._tasks.append(loop.create_task(link.read_loop(self._on_down)))
        link._tasks.append(loop.create_task(self._heartbeat(link)))
        self.links[handle.name] = link
        self.ring.add(handle.name)

    async def drain(self) -> None:
        """Graceful drain: refuse new work, let in-flight finish, unlink.

        Worker-process drain (and exit-code collection) is the
        manager's synchronous job, done by the caller afterwards.
        """
        self._accepting = False
        deadline = (
            asyncio.get_event_loop().time() + self.config.drain_timeout_s
        )
        while any(link.pending for link in self.links.values()):
            if asyncio.get_event_loop().time() > deadline:
                for link in self.links.values():
                    link.fail_pending("front door drain deadline exceeded")
                break
            await asyncio.sleep(0.02)
        for link in list(self.links.values()):
            link.up = False
            link.close()

    # -- health --------------------------------------------------------

    async def _heartbeat(self, link: ShardLink) -> None:
        """Ping one shard forever; evict it after consecutive misses."""
        misses = 0
        while link.up:
            await asyncio.sleep(self.config.heartbeat_interval_s)
            if not link.up:
                return
            handle = self.manager.get(link.name)
            if handle is not None and not handle.alive:
                await self._on_down(link, "worker process died")
                return
            try:
                self.metrics.counter("frontdoor.heartbeats_total").inc()
                await link.control_call(
                    "ping", self._next_id(), self.config.heartbeat_timeout_s
                )
                misses = 0
            except (asyncio.TimeoutError, ConnectionError, OSError,
                    AssertionError):
                misses += 1
                self.metrics.counter(
                    "frontdoor.heartbeat_misses_total"
                ).inc()
                if misses >= self.config.heartbeat_misses:
                    await self._on_down(
                        link,
                        f"missed {misses} consecutive heartbeats",
                    )
                    return

    async def _on_down(self, link: ShardLink, reason: str) -> None:
        """Evict a dead shard: remap the ring, fail its in-flight."""
        if not link.up:
            return
        link.up = False
        if link.name in self.ring:
            self.ring.remove(link.name)
        self.links.pop(link.name, None)
        self.metrics.counter("frontdoor.shards_evicted_total").inc()
        link.fail_pending(
            f"shard {link.name} evicted mid-request ({reason}); retry"
        )
        link.close()
        self.manager.evict(link.name)

    # -- client path ---------------------------------------------------

    async def align(
        self, request: AlignRequest, reply: Callable[[bytes], None]
    ) -> None:
        """Fingerprint, route and forward one alignment request."""
        self.metrics.counter("frontdoor.requests_total").inc()
        if not self._accepting:
            return self._refuse(reply, request, "service is draining")
        if not self.router.supports(request.kernel_id):
            # Mirrors ServiceCore._validate so a misaddressed request
            # reads the same against either serving tier.
            self.metrics.counter("frontdoor.errors_total").inc()
            reply(error_response(
                request.request_id,
                f"kernel #{request.kernel_id} is not deployed on this "
                f"service (deployed: {self.router.kernel_ids()})",
            ).to_line())
            return
        fingerprint = self.router.key(
            request.kernel_id, request.query, request.reference
        )
        try:
            shard = self.ring.route(fingerprint)
        except LookupError:
            return self._refuse(reply, request, "no live shards; retry later")
        link = self.links.get(shard)
        if link is None or not link.up:
            return self._refuse(
                reply, request, f"shard {shard} is down; retry later"
            )
        if len(link.pending) >= self.config.shard_inflight_bound:
            return self._refuse(
                reply, request,
                f"shard {shard} in-flight window is full "
                f"({self.config.shard_inflight_bound}); retry later",
            )
        forward_id = self._next_id()
        link.pending[forward_id] = (reply, request.request_id)
        payload = request.to_dict()
        payload["id"] = forward_id
        try:
            await link.send(encode_line(payload))
        except (ConnectionError, OSError, AssertionError):
            link.pending.pop(forward_id, None)
            await self._on_down(link, "send to worker failed")
            return self._refuse(
                reply, request, f"shard {shard} went down; retry later"
            )
        link.routed_total += 1
        self.metrics.counter("frontdoor.routed_total").inc()

    def _refuse(
        self, reply: Callable[[bytes], None], request: AlignRequest,
        reason: str,
    ) -> None:
        """Answer with a backpressure rejection (never a silent drop)."""
        self.metrics.counter("frontdoor.rejected_total").inc()
        reply(rejection(request.request_id, reason).to_line())

    # -- control-plane aggregation -------------------------------------

    async def _collect(self, kind: str) -> Dict[str, Dict[str, Any]]:
        """Fan one control request out to every live shard."""
        replies: Dict[str, Dict[str, Any]] = {}
        for name, link in sorted(self.links.items()):
            if not link.up:
                continue
            try:
                replies[name] = await link.control_call(
                    kind, self._next_id(), self.config.control_timeout_s
                )
            except (asyncio.TimeoutError, ConnectionError, OSError,
                    AssertionError):
                replies[name] = {"error": f"shard {name} unreachable"}
        return replies

    async def metrics_snapshot(self) -> Dict[str, Any]:
        """Deployment-wide metrics: aggregate + per-shard + topology.

        Counters sum exactly across shards.  Histogram summaries merge
        their exact envelope (count/sum/mean/min/max) — quantiles of
        pre-summarized histograms cannot be combined soundly, so the
        per-shard sections keep the authoritative p50/p95/p99 — plus
        the cumulative bucket counts (summed per bound: shards share
        one geometric bucket grid), which *can* be combined exactly and
        let an autoscale watcher derive windowed quantiles for the
        whole deployment from this one endpoint.
        """
        replies = await self._collect("metrics")
        shard_snapshots = {
            name: reply.get("snapshot", reply)
            for name, reply in replies.items()
        }
        counters: Dict[str, int] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        buckets: Dict[str, Dict[Optional[float], int]] = {}
        for snapshot in shard_snapshots.values():
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, stats in snapshot.get("histograms", {}).items():
                merged = histograms.setdefault(
                    name, {"count": 0, "sum": 0.0}
                )
                merged["count"] += stats.get("count", 0)
                merged["sum"] += stats.get("sum", 0.0)
                for stat, pick in (("min", min), ("max", max)):
                    if stats.get(stat) is not None:
                        merged[stat] = (
                            pick(merged[stat], stats[stat])
                            if stat in merged else stats[stat]
                        )
                summed = buckets.setdefault(name, {})
                for bound, count in stats.get("buckets", []):
                    summed[bound] = summed.get(bound, 0) + count
        for name, merged in histograms.items():
            if merged["count"]:
                merged["mean"] = merged["sum"] / merged["count"]
            if buckets.get(name):
                # None (the overflow bucket) sorts last, finite bounds
                # ascending — the same shape one shard emits.
                merged["buckets"] = [
                    [bound, count]
                    for bound, count in sorted(
                        buckets[name].items(),
                        key=lambda item: (item[0] is None, item[0] or 0.0),
                    )
                ]
        local = self.metrics.snapshot()
        counters.update(local.get("counters", {}))
        return {
            "counters": counters,
            "histograms": histograms,
            "frontdoor": {
                "ring": self.ring.describe(),
                "links": [
                    link.stats() for _, link in sorted(self.links.items())
                ],
                "shards": [
                    handle.describe() for handle in self.manager.handles()
                ],
            },
            "shards": shard_snapshots,
            "kernels": self.router.kernel_ids(),
        }

    async def metrics_text(self) -> str:
        """Aggregate text rendering plus one section per shard."""
        snapshot = await self.metrics_snapshot()
        sections = [render_text_snapshot(snapshot)]
        for name, shard_snapshot in sorted(snapshot["shards"].items()):
            sections.append(f"== {name} ==")
            sections.append(render_text_snapshot(shard_snapshot))
        return "\n".join(sections)

    async def trace_snapshot(self) -> Dict[str, Any]:
        """Chrome trace with every shard's events on one timeline.

        Workers run metrics-only recorders by default, so this is
        usually empty-but-valid; under per-shard tracing the merged
        ``traceEvents`` interleave by their own timestamps.
        """
        replies = await self._collect("trace")
        events: List[Dict[str, Any]] = []
        for reply in replies.values():
            events.extend(reply.get("trace", {}).get("traceEvents", []))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class ShardServer(AlignmentServer):
    """The sharded tier: an :class:`AlignmentServer` over a :class:`FrontDoor`.

    Construction synthesizes the router's kernels and binds;
    :meth:`start` spawns the workers (with ready handshake) and starts
    serving.  ``close()`` runs the full graceful drain and returns every
    worker's exit code — 0 across the board is the "clean drain" the CI
    smoke job asserts.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        deployment: Deployment,
        n_shards: int,
        config: Optional[FrontDoorConfig] = None,
        mp_context: str = "spawn",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.deployment = deployment
        self.config = config or FrontDoorConfig()
        self.manager = ShardManager(
            deployment, n_shards, mp_context=mp_context
        )
        self.frontdoor = FrontDoor(
            deployment, FingerprintRouter.from_deployment(deployment),
            self.manager, config=self.config, registry=registry,
        )
        super().__init__(address, self.frontdoor)

    def start(self) -> "ShardServer":
        """Spawn every shard and serve the front door; returns self."""
        try:
            self.manager.spawn_all()
            self.serve_in_thread()
        except BaseException:
            self.close()
            raise
        return self

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> Dict[str, Optional[int]]:
        """Graceful drain; returns worker name → exit code (0 = clean)."""
        try:
            super().close()
        finally:  # reap the workers even if the front door's drain failed
            codes = self.manager.drain_all(
                timeout_s=self.config.drain_timeout_s
            )
        return codes
