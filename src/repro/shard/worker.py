"""The shard worker: one process, one pool, one private cache tier.

A worker is deliberately boring — it is the single-process serving
stack, run once per shard:

    Deployment.build_pool() → ServiceCore → AlignmentServer on
    (127.0.0.1, 0)

the same asyncio JSON-line server that ``repro serve`` runs and that
fronts the shards themselves, so every semantic the single-process
tests pin (deterministic response encoding, reject-not-drop admission,
obs counters) holds inside each shard by construction.  What the sharding layer adds lives entirely in
the parent: routing, health, aggregation.

Parent ↔ worker control travels over a ``multiprocessing`` pipe:

* worker → parent: ``("ready", port)`` once the TCP server is bound,
  or ``("failed", reason)`` if construction blew up;
* parent → worker: ``"drain"`` — stop accepting, flush the batcher's
  residual work, close the cache journal, exit 0.

``SIGINT`` is ignored in the worker: a Ctrl-C in a terminal hits the
whole foreground process group, and drain must stay coordinated by the
parent so in-flight requests are answered, not severed.
"""

from __future__ import annotations

import signal
import threading
from typing import Any

from repro.shard.deployment import Deployment

#: Control verbs on the parent → worker pipe.
DRAIN = "drain"


def worker_main(
    deployment: Deployment,
    shard_name: str,
    conn: Any,
    host: str = "127.0.0.1",
) -> int:
    """Run one shard until the parent sends :data:`DRAIN` (or hangs up).

    ``deployment`` must already be narrowed to this shard
    (:meth:`~repro.shard.deployment.Deployment.for_shard`), so the cache
    journal lands in the shard's private subdirectory of the shared
    root.  Returns the process exit code (0 = clean drain).
    """
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        from repro.service import AlignmentServer

        # Ready-path prewarm: lower every served kernel before the
        # parent learns our port, so the shard's first request never
        # pays compilation latency (no-op for the systolic backend).
        deployment.prewarm()
        cache = deployment.build_cache()
        core = deployment.build_core(cache=cache).start()
        server = AlignmentServer((host, 0), core)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        conn.send(("failed", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return 1
    server.serve_in_thread()
    conn.send(("ready", server.server_address[1]))
    try:
        while True:
            try:
                verb = conn.recv()
            except EOFError:
                # Parent vanished without draining: shut down anyway so
                # the shard never lingers as an orphan.
                verb = DRAIN
            if verb == DRAIN:
                break
    finally:
        server.close()
        if cache is not None:
            cache.close()
        try:
            conn.send(("stopped", shard_name))
            conn.close()
        except (OSError, BrokenPipeError):
            pass
    return 0


def _entry(deployment: Deployment, shard_name: str, conn: Any) -> None:
    """Picklable process target wrapping :func:`worker_main`'s exit code."""
    raise SystemExit(worker_main(deployment, shard_name, conn))


def start_worker(ctx: Any, deployment: Deployment, shard_name: str):
    """Spawn one worker process; returns ``(process, parent_conn)``.

    ``ctx`` is a ``multiprocessing`` context (``spawn`` by default at
    the manager level: immune to forked-lock hazards from the parent's
    threads, at the cost of a fresh interpreter per shard).
    """
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_entry,
        args=(deployment.for_shard(shard_name), shard_name, child_conn),
        name=f"repro-shard-{shard_name}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    return process, parent_conn


# Used by tests that run a worker on a plain thread (no process) to
# exercise the control protocol without spawn latency.
def run_inline(deployment: Deployment, shard_name: str, conn: Any) -> threading.Thread:
    """Run :func:`worker_main` on a daemon thread (test aid)."""
    thread = threading.Thread(
        target=worker_main, args=(deployment, shard_name, conn),
        name=f"inline-{shard_name}", daemon=True,
    )
    thread.start()
    return thread
