"""Online alignment serving: the always-on face of the simulated FPGA.

Everything below the :mod:`repro.host` layer is batch-offline: you hand
``DeviceRuntime.run`` a pre-formed batch and wait for it to drain.
This package turns that into a request path, mirroring the paper's host
design (Section 4, step 6) one level up:

* :mod:`repro.service.protocol` — request/response dataclasses with a
  deterministic JSON-line wire encoding;
* :mod:`repro.service.batcher`  — per-kernel dynamic batching with size-
  and deadline-triggered flush plus admission control (the software twin
  of the arbiter filling ``N_B`` blocks);
* :mod:`repro.service.pool`     — a pool of :class:`DeviceRuntime`\\ s
  (optionally built from a linked multi-kernel design) with least-loaded
  routing;
* :mod:`repro.service.server`   — the serving core and the one
  JSON-line TCP server (asyncio), which serves either that core or the
  sharded front door;
* :mod:`repro.service.client`   — TCP/in-proc clients and an open-loop
  Poisson load generator.

Counters, histograms and (optionally) spans are reported through
:mod:`repro.obs` — the core's default recorder keeps the always-on
metrics; install a :class:`~repro.obs.TraceRecorder` for Chrome-trace
timelines (``repro trace``).  The metric primitives themselves
(``Counter``/``Histogram``/``MetricsRegistry``) live in
:mod:`repro.obs.metrics` and are re-exported here for convenience.

For scale-out beyond one process, :mod:`repro.shard` fronts N worker
processes — each running this package's server unchanged — behind the
same server over a router with consistent-hash routing on cache
fingerprints.
"""

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.service.batcher import BatcherConfig, DynamicBatcher
from repro.service.client import (
    AlignmentClient,
    ConnectError,
    InProcClient,
    LoadGenerator,
    LoadProfile,
    LoadReport,
    RetryPolicy,
    connect_with_retry,
)
from repro.service.pool import DevicePool
from repro.service.protocol import (
    AlignRequest,
    AlignResponse,
    ProtocolError,
    Status,
)
from repro.service.server import AlignmentServer, ReplySlot, ServiceCore

__all__ = [
    "AlignRequest",
    "AlignResponse",
    "AlignmentClient",
    "AlignmentServer",
    "BatcherConfig",
    "ConnectError",
    "Counter",
    "DevicePool",
    "DynamicBatcher",
    "Histogram",
    "InProcClient",
    "LoadGenerator",
    "LoadProfile",
    "LoadReport",
    "MetricsRegistry",
    "ProtocolError",
    "ReplySlot",
    "RetryPolicy",
    "ServiceCore",
    "Status",
    "connect_with_retry",
]
