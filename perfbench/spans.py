"""Span recording for the traced run, from the benchmark's own files.

Nothing under ``src/`` records these spans.  The installers below wrap
public entry points of each layer (class attributes and module
functions) with a recorder that keeps ``(id, name, start, end, parent,
request id, attributes)`` per call in memory.  The parent is the
enclosing wrapped call on the same thread, so a layer's self time is its
duration minus the time its child spans cover.

The compiled batch backend is resolved by ``DeviceRuntime.__init__``,
so :func:`install_backend` must run before the runtimes it should see
are constructed.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from common import median

AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass
class Span:
    """One wrapped call."""

    sid: int
    name: str
    start: float
    end: float
    parent: int
    rid: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds the call took."""
        return self.end - self.start


class SpanLog:
    """Thread-safe in-memory span buffer with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[AttrFn] = None) -> Callable:
        """``fn`` recording one span per call.

        ``attrs(args, kwargs, result)`` may return span attributes; a
        ``rid`` key among them becomes the span's request id.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs else {}
                rid = extra.pop("rid", None)
                with self._lock:
                    self.spans.append(
                        Span(sid, name, start, end, parent, rid, extra)
                    )

        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              attrs: Optional[AttrFn] = None) -> None:
        """Replace ``owner.attr`` with its recording wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))

    def by_name(self, name: str) -> List[Span]:
        """Every span called ``name``, in recording order."""
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the duration of its direct children."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent:
                child_time[span.parent] += span.duration
        return {
            span.sid: span.duration - child_time[span.sid]
            for span in self.spans
        }

    @staticmethod
    def covered(spans: Iterable[Span]) -> float:
        """Seconds during which at least one of ``spans`` was open."""
        total, reach = 0.0, float("-inf")
        for span in sorted(spans, key=lambda s: s.start):
            if span.end > reach:
                total += span.end - max(span.start, reach)
                reach = span.end
        return total

    def clear(self) -> None:
        """Drop every recorded span."""
        with self._lock:
            self.spans.clear()

    def dump(self, path: str) -> None:
        """Write every span as JSON (the run's end, never on the hot path)."""
        with open(path, "w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)

    @classmethod
    def load(cls, path: str) -> "SpanLog":
        """Read a :meth:`dump` back."""
        log = cls()
        with open(path) as handle:
            log.spans = [Span(**raw) for raw in json.load(handle)]
        return log


# -- what the backend does, computed from its inputs -------------------


def padded_shapes(pairs: Iterable[Sequence[Sequence[Any]]]) -> int:
    """Distinct padded (|Q|, |R|) shapes a batch splits into.

    Computed from the inputs with the batch backend's public padding
    quantum, not observed inside the backend.
    """
    from repro.backend.batch import PAD_QUANTUM

    def pad(n: int) -> int:
        return max(PAD_QUANTUM, -(-n // PAD_QUANTUM) * PAD_QUANTUM)

    return len({(pad(len(q)), pad(len(r))) for q, r in pairs})


def _sweep_attrs(args: tuple, kwargs: dict, _result: Any) -> Dict[str, Any]:
    spec, pairs = args[0], list(args[1])
    return {
        "kernel": spec.kernel_id,
        "pairs": len(pairs),
        "cells": sum(len(q) * len(r) for q, r in pairs),
        "shapes": padded_shapes(pairs),
    }


def _run_attrs(args: tuple, kwargs: dict, _result: Any) -> Dict[str, Any]:
    return {"pairs": len(args[1])}


def install_backend(log: SpanLog) -> None:
    """Wrap the compiled batch backend and ``DeviceRuntime.run``."""
    import repro.backend as backend
    from repro.host.runtime import DeviceRuntime

    backend.BATCH_BACKENDS["compiled"] = log.wrap(
        backend.BATCH_BACKENDS["compiled"], "backend.sweep", _sweep_attrs
    )
    log.patch(DeviceRuntime, "run", "host.run", _run_attrs)


def install_cache(log: SpanLog) -> None:
    """Wrap the cache's key, probe and store entry points."""
    from repro.cache.facade import CachedRuntime, CacheStack

    log.patch(CachedRuntime, "pair_key", "cache.key")
    log.patch(CacheStack, "probe", "cache.probe",
              lambda a, k, result: {"hit": bool(result and result[0])})
    log.patch(CacheStack, "store", "cache.store")


def install_pipeline(log: SpanLog) -> None:
    """Wrap the mapper's seed/chain and extension stages."""
    from repro.pipeline import ExtendStage, SeedChainStage

    log.patch(SeedChainStage, "process", "pipeline.seed",
              lambda a, k, r: {"reads": len(a[1])})
    log.patch(ExtendStage, "process", "pipeline.extend",
              lambda a, k, r: {"reads": len(a[1])})


def install_protocol(log: SpanLog) -> None:
    """Wrap the wire encode/decode functions where the server calls them.

    ``repro.service.server`` imported both by name, so its references
    are patched alongside the protocol module's own (which
    ``AlignResponse.to_line`` resolves at call time).
    """
    import repro.service.protocol as protocol
    import repro.service.server as server

    def decoded(args: tuple, kwargs: dict, message: Any) -> Dict[str, Any]:
        if not isinstance(message, dict):
            return {}
        return {"rid": message.get("id"), "type": message.get("type")}

    def encoded(args: tuple, kwargs: dict, _line: Any) -> Dict[str, Any]:
        payload = args[0]
        return {"rid": payload.get("id"), "type": payload.get("type")}

    encode = log.wrap(protocol.encode_line, "protocol.encode", encoded)
    protocol.encode_line = encode
    server.encode_line = encode
    server.decode_line = log.wrap(
        protocol.decode_line, "protocol.decode", decoded
    )


def install_service(log: SpanLog) -> None:
    """Wrap admission and batch execution, keyed by request id.

    ``DevicePool.execute`` receives the requests' own query tuples, so a
    batch span learns which requests it carried by object identity.
    """
    from repro.service.pool import DevicePool
    from repro.service.server import ServiceCore

    owners: Dict[int, str] = {}
    lock = threading.Lock()

    def submitted(args: tuple, kwargs: dict, _slot: Any) -> Dict[str, Any]:
        request = args[1]
        with lock:
            owners[id(request.query)] = request.request_id
        return {"rid": request.request_id}

    def executed(args: tuple, kwargs: dict, _result: Any) -> Dict[str, Any]:
        pairs = args[2]
        with lock:
            rids = [owners.pop(id(query), None) for query, _ in pairs]
        return {"rids": rids, "pairs": len(pairs)}

    log.patch(ServiceCore, "submit", "service.submit", submitted)
    # The attributes are read after execute returns, while the requests
    # (and so their query tuples) are still referenced by the batch.
    log.patch(DevicePool, "execute", "pool.execute", executed)


# -- per-layer metrics shared by the workloads --------------------------

#: Kernels with their own ``backend.cells_per_s.k<id>`` metric.
METRIC_KERNELS = (1, 2, 4, 11)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(values: List[float]) -> float:
    return median(values) if values else 0.0


def backend_host_metrics(report: Any, sweeps: List[Span], hosts: List[Span],
                         wall_s: float) -> None:
    """``backend.*`` and ``host.*`` from sweep and ``host.run`` spans.

    Calls that carried no pair (an all-hit batch reaches the runtime
    empty) are left out; a layer with no call left reports 0.
    """
    sweeps = [s for s in sweeps if s.attrs["pairs"]]
    hosts = [s for s in hosts if s.attrs["pairs"]]
    sweep_s = sum(s.duration for s in sweeps)
    host_s = sum(s.duration for s in hosts)
    report.add("backend.sweep_ms.p50",
               _p50([s.duration * 1e3 for s in sweeps]), "ms", len(sweeps))
    report.add("backend.cells_per_s",
               _ratio(sum(s.attrs["cells"] for s in sweeps), sweep_s),
               "cells/s", len(sweeps))
    for k in METRIC_KERNELS:
        mine = [s for s in sweeps if s.attrs["kernel"] == k]
        report.add(f"backend.cells_per_s.k{k}",
                   _ratio(sum(s.attrs["cells"] for s in mine),
                          sum(s.duration for s in mine)),
                   "cells/s", len(mine))
    report.add("backend.pairs_per_call",
               _ratio(sum(s.attrs["pairs"] for s in sweeps), len(sweeps)),
               "pairs", len(sweeps))
    report.add("backend.shapes_per_call",
               _ratio(sum(s.attrs["shapes"] for s in sweeps), len(sweeps)),
               "shapes", len(sweeps), "computed from the inputs")
    report.add("host.run_ms.p50", _p50([s.duration * 1e3 for s in hosts]),
               "ms", len(hosts))
    report.add("host.pairs_per_call",
               _ratio(sum(s.attrs["pairs"] for s in hosts), len(hosts)),
               "pairs", len(hosts))
    report.add("host.busy_share", _ratio(SpanLog.covered(hosts), wall_s),
               "share", len(hosts), "wall share with a runtime busy")
    report.add("host.overhead_share", _ratio(host_s - sweep_s, host_s),
               "share", len(hosts), "host time outside the sweep")


class SpanTileDispatcher:
    """A tile dispatcher recording one ``pipeline.tile`` span per call.

    Passed to ``map_flowcell(dispatcher=...)``; delegates everything to
    the wrapped dispatcher.
    """

    def __init__(self, inner: Any, log: SpanLog) -> None:
        self.inner = inner
        self.kernel_id = getattr(inner, "kernel_id", 0)
        self.run_tiles = log.wrap(
            inner.run_tiles, "pipeline.tile",
            lambda a, k, r: {"tiles": len(a[0])},
        )

    def close(self) -> None:
        """Close the wrapped dispatcher."""
        self.inner.close()
