"""Stable public facade: compose stages, align pairs, serve traffic.

``repro.api`` is the one import an application needs:

* :class:`Stage` / :class:`Pipeline` — the composition protocol every
  streaming workload implements (bounded queues, ``process(chunk)``,
  drain semantics); see :mod:`repro.api.stage`.
* :func:`align` — one-shot functional alignment (re-exported from
  :mod:`repro.systolic`).
* :class:`RunOptions` — the documented knob set of
  :meth:`repro.host.runtime.DeviceRuntime.run`.
* :func:`serve` — start an alignment service (the TCP server over an
  in-process core or over the sharded front door) from a
  :class:`repro.shard.Deployment`.
* :func:`map_flowcell` — the streaming read-mapping pipeline
  (re-exported from :mod:`repro.pipeline`).

Everything here is covered by the one-release deprecation policy: names
exported from this module do not change signature without a
``DeprecationWarning`` cycle first.
"""

from __future__ import annotations

from typing import Any

from repro.api.stage import (
    FnStage,
    Pipeline,
    PipelineError,
    PipelineReport,
    Stage,
    StageStats,
)
from repro.host.runtime import RunOptions
from repro.pipeline.flow import MapReport, map_flowcell
from repro.systolic import align


def serve(
    deployment: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    shards: int = 1,
) -> Any:
    """Start an alignment service for a :class:`repro.shard.Deployment`.

    ``shards=1`` serves from this process (a
    :class:`~repro.service.AlignmentServer` over a batcher core, with
    the deployment's cache attached); ``shards > 1`` spawns worker
    processes behind the same server over the front door
    (:class:`repro.shard.ShardServer`).  Returns a started, serving
    handle with ``address``, ``metrics_snapshot()`` and ``close()``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > 1:
        from repro.shard import ShardServer

        return ShardServer((host, port), deployment, n_shards=shards).start()
    from repro.service import AlignmentServer

    server = AlignmentServer(
        (host, port), deployment.build_core(cache=deployment.build_cache())
    )
    server.core.start()
    server.serve_in_thread()
    return server


__all__ = [
    "Stage",
    "FnStage",
    "Pipeline",
    "PipelineError",
    "PipelineReport",
    "StageStats",
    "RunOptions",
    "MapReport",
    "align",
    "map_flowcell",
    "serve",
]
