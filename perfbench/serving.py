"""Workloads ``serve-unique`` and ``serve-repeat``: ``repro serve`` over TCP.

Both run ``python -m repro serve --backend compiled --cache-dir <tmp>``
as a subprocess, deploying kernels 1, 2, 4 and 11, and drive it from
this process through the program's own ``AlignmentClient``.  Each run
has three measured phases:

* ``low`` and ``high``: open-loop Poisson arrivals at a fixed rate.
  Every request is timed on the client from its *scheduled* send time,
  so a stall that delays later sends counts against them; how late the
  sender ran is reported as ``client.lag_ms``.
* ``sat``: a closed loop holding a fixed window of requests in flight;
  completions per second give ``sat_rps``.

``serve-unique`` sends a distinct pair every time (32-64 bp, |Q-R| <=
16, kernels 1, 2, 4, 11 in turn), so every request misses the cache and
writes it (probe, store, journal append): the backend and the batcher
bound it.  ``serve-repeat`` pre-warms a hot set of 512 kernel-1 pairs of
48 bp and then draws Zipf-distributed from it, so every measured request
hits: compute is near zero and the wire, the protocol, the batcher's
linger and the cache probe dominate.  That is the opposite use of
``repro.cache`` from ``serve-unique``.

The traced run (``--trace 1``) serves the same stack from
``serve_traced.py`` in this directory, which wraps the layers' entry
points with span recorders before building it.

The server is spawned through the CLI rather than ``repro.api.serve``
because that facade, with one shard, binds but never serves: a ``ping``
gets no reply and ``close()`` then blocks in ``shutdown()``.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from common import (
    ROOT,
    Report,
    WorkloadInfo,
    classic_scores,
    median,
    peak_rss_mb,
    src_env,
    tail,
)
from spans import SpanLog, backend_host_metrics

INFOS = {
    "serve-unique": WorkloadInfo(
        name="serve-unique",
        why="repro serve where every request is a distinct 32-64 bp pair on "
            "kernels 1, 2, 4, 11: bound by the backend and the batcher; "
            "every request misses the cache and writes it",
        stresses=("backend", "host", "service", "cache (store side)"),
        bypasses=("pipeline",),
    ),
    "serve-repeat": WorkloadInfo(
        name="serve-repeat",
        why="repro serve with Zipf draws from a pre-warmed hot set of 512 "
            "kernel-1 pairs: every request hits, so transport, protocol, "
            "batcher linger and the cache probe dominate",
        stresses=("transport", "protocol", "service", "cache (probe side)"),
        bypasses=("pipeline",),
    ),
}

KERNELS = (1, 2, 4, 11)
#: Settings both server launchers share.  The CLI flags and the traced
#: launcher's ``Deployment`` are built from this one mapping, so the
#: traced stack is the stack ``repro serve`` builds.
SERVER = {
    "kernel_ids": KERNELS,
    "backend": "compiled",
    "max_batch": 8,
    "max_delay_ms": 20.0,
    "queue_bound": 256,
}
#: Spawn-to-first-pong repetitions; the median is the set-up time.
SETUP_REPEATS = 5
#: Client connections the requests are spread over.
CONNECTIONS = 2
#: Interpreter switch interval of the load generator's process.
SWITCH_INTERVAL_S = 0.0005
#: Requests per slice of a phase's tail (see ``phase_tail``).
SLICE = 100
#: How long answers may trail the last send of a phase.
DRAIN_S = 20.0
#: Width of the windows ``sat_rps`` takes its median over, seconds.
SAT_WINDOW_S = 1.0


@dataclass(frozen=True)
class Plan:
    """The fixed load of one serving workload.

    ``low_rps`` / ``high_rps`` are the open-loop rates; ``limit_ms`` is
    the latency limit ``slo_share.high`` counts against; ``shares`` is
    how the run's seconds split over the low, high and saturation phases.
    """

    low_rps: float
    high_rps: float
    limit_ms: float
    shares: Tuple[float, float, float]


#: Requests the saturation phase keeps in flight.
WINDOW = 64


# serve-unique's high phase runs at 60 rps (about a third of its
# saturation rate) so that some 650 requests, six slices, make its tail.
PLANS = {
    "serve-unique": Plan(low_rps=20.0, high_rps=60.0, limit_ms=250.0,
                         shares=(0.1, 0.45, 0.45)),
    "serve-repeat": Plan(low_rps=100.0, high_rps=1000.0, limit_ms=100.0,
                         shares=(0.15, 0.4, 0.45)),
}

Item = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


# -- inputs -----------------------------------------------------------


def unique_items(seed: int) -> Iterator[Item]:
    """Endless distinct pairs, kernels 1, 2, 4, 11 in turn."""
    rng = random.Random(seed)
    seen = set()
    index = 0
    while True:
        n = rng.randint(32, 64)
        m = rng.randint(max(32, n - 16), min(64, n + 16))
        item = (
            KERNELS[index % len(KERNELS)],
            tuple(rng.randrange(4) for _ in range(n)),
            tuple(rng.randrange(4) for _ in range(m)),
        )
        if item in seen:
            continue
        seen.add(item)
        index += 1
        yield item


HOT_SET = 512
HOT_LENGTH = 48
ZIPF_S = 1.1


def hot_set(seed: int) -> List[Item]:
    """The 512 distinct kernel-1 pairs of 48 bp the repeat traffic uses."""
    rng = random.Random(seed)
    hot = set()
    while len(hot) < HOT_SET:
        hot.add((1, tuple(rng.randrange(4) for _ in range(HOT_LENGTH)),
                 tuple(rng.randrange(4) for _ in range(HOT_LENGTH))))
    return sorted(hot)


def zipf_items(hot: List[Item], seed: int) -> Iterator[Item]:
    """Endless Zipf(s=1.1) draws from the hot set."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))]
    order = list(hot)
    rng.shuffle(order)
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    while True:
        yield rng.choices(order, cum_weights=cumulative)[0]


# -- the server process -----------------------------------------------


@dataclass(frozen=True)
class Cores:
    """The server gets one core and the load generator the others.

    The generator then never takes CPU from the server it measures, and
    the two never migrate onto one core.  With one core they share it.
    Affinity is per thread: the calling thread's mask is what a new
    thread or child process inherits.
    """

    everything: frozenset
    server: frozenset
    client: frozenset

    @classmethod
    def split(cls) -> "Cores":
        cpus = sorted(os.sched_getaffinity(0))
        server = frozenset(cpus[-1:])
        return cls(frozenset(cpus), server, frozenset(cpus[:-1]) or server)


class Server:
    """One spawned server: its address, set-up time and peak memory."""

    def __init__(self, argv: List[str], cores: Cores) -> None:
        from repro.service.client import AlignmentClient

        started = time.monotonic()
        os.sched_setaffinity(0, cores.server)
        try:
            self.process = subprocess.Popen(
                argv, cwd=ROOT, env=src_env(), stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
            )
        finally:
            os.sched_setaffinity(0, cores.client)
        self._drain: Optional[threading.Thread] = None
        try:
            address = None
            for line in self.process.stdout:
                if line.startswith("serving kernels") and " on " in line:
                    host_port = line.split(" on ", 1)[1].split()[0]
                    host, port = host_port.rsplit(":", 1)
                    address = (host, int(port))
                    break
            if address is None:
                raise RuntimeError(
                    f"server exited (code {self.process.wait()}) before "
                    f"announcing its address"
                )
            # The server prints its metrics snapshot on exit; keep the
            # pipe drained so it can never block on a full pipe.
            self._drain = threading.Thread(
                target=lambda: self.process.stdout.read(), daemon=True
            )
            self._drain.start()
            self.address = address
            self.clients = [
                AlignmentClient(*address, read_timeout=60.0)
                for _ in range(CONNECTIONS)
            ]
            self.turn = itertools.count()
            if not self.clients[0].ping(timeout=30.0):
                raise RuntimeError("server did not answer ping")
            self.setup_s = time.monotonic() - started
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server process so far."""
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Close the connections, stop the server and wait for it."""
        for client in getattr(self, "clients", []):
            client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.process.stdout.close()


def cli_argv(cache_dir: Path) -> List[str]:
    """``repro serve`` with the shared settings and a fresh cache."""
    argv = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", "--backend", SERVER["backend"],
            "--cache-dir", str(cache_dir),
            "--max-batch", str(SERVER["max_batch"]),
            "--max-delay-ms", str(SERVER["max_delay_ms"]),
            "--queue-bound", str(SERVER["queue_bound"])]
    for k in SERVER["kernel_ids"]:
        argv += ["--kernel", str(k)]
    return argv


def traced_argv(cache_dir: Path, spans_out: Path) -> List[str]:
    """The traced launcher in this directory, same settings."""
    return [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
            "--cache-dir", str(cache_dir), "--spans-out", str(spans_out)]


# -- the load generator -----------------------------------------------


@dataclass
class Sent:
    """One request as the client saw it (monotonic seconds)."""

    rid: str
    item: Item
    due: float
    sent: float = 0.0
    recv: Optional[float] = None
    response: Any = None

    def latency_ms(self) -> float:
        """From the scheduled send to the answer; inf if none came."""
        if self.recv is None or not self.response.ok:
            return float("inf")
        return (self.recv - self.due) * 1e3


@dataclass
class Phase:
    """One measured phase."""

    name: str
    requests: List[Sent] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    def latencies_ms(self) -> List[float]:
        return [r.latency_ms() for r in self.requests]

    def lags_ms(self) -> List[float]:
        return [(r.sent - r.due) * 1e3 for r in self.requests]


def _fire(server: Server, record: Sent, on_done: Callable = None) -> None:
    client = server.clients[next(server.turn) % len(server.clients)]
    record.sent = time.monotonic()
    kernel, query, reference = record.item

    def done(response, record=record) -> None:
        record.recv = time.monotonic()
        record.response = response
        if on_done is not None:
            on_done()

    client.submit(kernel, query, reference,
                  request_id=record.rid).add_done_callback(done)


def _await(phase: Phase) -> None:
    deadline = time.monotonic() + DRAIN_S
    for record in phase.requests:
        while record.response is None and time.monotonic() < deadline:
            time.sleep(0.005)
    phase.end = max((r.recv for r in phase.requests if r.recv), default=0.0)


def open_loop(server: Server, name: str, items: Iterator[Item], rate: float,
              count: int, seed: int) -> Phase:
    """Send ``count`` requests at Poisson arrivals of ``rate`` per second."""
    rng = random.Random(seed)
    phase = Phase(name)
    due = time.monotonic() + 0.05
    phase.start = due
    for index in range(count):
        record = Sent(f"{name}-{index}", next(items), due)
        phase.requests.append(record)
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        _fire(server, record)
        due += rng.expovariate(rate)
    _await(phase)
    return phase


def closed_loop(server: Server, name: str, items: Iterator[Item],
                window: int, seconds: float) -> Phase:
    """Keep ``window`` requests in flight for ``seconds`` or until
    ``items`` runs out."""
    phase = Phase(name)
    slots = threading.Semaphore(window)
    phase.start = time.monotonic()
    stop_at = phase.start + seconds
    for index, item in enumerate(items):
        if not slots.acquire(timeout=DRAIN_S):
            break
        now = time.monotonic()
        if now >= stop_at:
            break
        record = Sent(f"{name}-{index}", item, now)
        phase.requests.append(record)
        _fire(server, record, slots.release)
    _await(phase)
    phase.end = min(stop_at, phase.end)
    return phase


def sat_rps(phase: Phase) -> Tuple[float, int]:
    """(rate, windows): the median over the phase's whole ``SAT_WINDOW_S``
    windows of OK answers per second.

    A median, not all answers over the phase's length: a stall of the
    shared machine moves only the window it falls in.
    """
    windows = [0] * max(1, int((phase.end - phase.start) // SAT_WINDOW_S))
    for r in phase.requests:
        if r.recv is not None and r.response.ok:
            index = int((r.recv - phase.start) // SAT_WINDOW_S)
            if index < len(windows):
                windows[index] += 1
    return median([count / SAT_WINDOW_S for count in windows]), len(windows)


# -- the server's own metrics -----------------------------------------


def _delta_buckets(before: Dict, after: Dict) -> List[Tuple[Any, int]]:
    counts: Dict[Any, int] = {}
    for bound, count in after.get("buckets", []):
        counts[bound] = count
    for bound, count in before.get("buckets", []):
        counts[bound] = counts.get(bound, 0) - count
    finite = sorted((b, c) for b, c in counts.items() if b is not None)
    return finite + [(None, counts.get(None, 0))]


def service_metrics(report: Report, before: Dict, after: Dict) -> None:
    """``service.*`` over one phase, from two ``metrics`` snapshots."""
    from repro.autoscale.signals import quantile_from_buckets

    def counter(name: str) -> int:
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    def hist(name: str) -> Tuple[Dict, Dict]:
        return (before["histograms"].get(name, {}),
                after["histograms"].get(name, {}))

    queue = _delta_buckets(*hist("queue_ms"))
    n_queue = sum(c for _, c in queue)
    report.add("service.queue_ms.p50", quantile_from_buckets(queue, 0.5),
               "ms", n_queue, "high phase, server histogram")
    report.add("service.queue_ms.p95", quantile_from_buckets(queue, 0.95),
               "ms", n_queue, "high phase, server histogram")
    sizes = hist("batch_size")
    flushes = counter("flushes_total")
    report.add("service.batch_size.mean",
               (sizes[1].get("sum", 0) - sizes[0].get("sum", 0)) / flushes,
               "requests", flushes, "high phase")
    report.add("service.deadline_flush_share",
               counter("flush_deadline_total") / flushes, "share", flushes,
               "high phase")
    server = _delta_buckets(*hist("latency_ms"))
    report.add("service.server_ms.p50", quantile_from_buckets(server, 0.5),
               "ms", sum(c for _, c in server),
               "enqueue to answer, server histogram")
    report.add("service.rejected", counter("rejected_total"), "count",
               counter("requests_total"), "high phase")
    report.add("service.errors", counter("errors_total"), "count",
               counter("requests_total"), "high phase")


# -- one run ----------------------------------------------------------


@dataclass
class Served:
    """Everything one server's phases produced."""

    phases: Dict[str, Phase]
    warm: Phase
    snapshots: Tuple[Dict, Dict]
    rss_mb: float


def drive(server: Server, workload: str, seed: int,
          seconds: float) -> Served:
    """Warm up, then the low, high and saturation phases.

    The collector is off while the phases run: the records pile up to
    tens of thousands of objects, and a full collection would stall the
    sender for tens of milliseconds that every later latency would carry.
    """
    plan = PLANS[workload]
    gc.collect()
    gc.disable()
    try:
        if workload == "serve-unique":
            items = unique_items(seed)
            warm = closed_loop(server, "warm", items, 8, 1.0)
        else:
            hot = hot_set(seed)
            warm = closed_loop(server, "warm", iter(hot), 32, float("inf"))
            items = zipf_items(hot, seed + 1)
        low_s, high_s, sat_s = (share * seconds for share in plan.shares)
        phases = {}
        phases["low"] = open_loop(server, "low", items, plan.low_rps,
                                  max(1, round(plan.low_rps * low_s)),
                                  seed + 2)
        before = server.clients[0].metrics()
        phases["high"] = open_loop(server, "high", items, plan.high_rps,
                                   max(1, round(plan.high_rps * high_s)),
                                   seed + 3)
        after = server.clients[0].metrics()
        phases["sat"] = closed_loop(server, "sat", items, WINDOW, sat_s)
    finally:
        gc.enable()
    return Served(phases, warm, (before, after), server.peak_rss_mb())


def phase_tail(values: List[float]) -> Tuple[float, str]:
    """Tail of a phase: the median of its ``SLICE``-request slices' tails.

    Over a whole phase the tail would climb toward p99.9 as the rate
    grows, where a handful of pauses decide it.  Slices of a fixed size
    keep every phase's tail near p90, and the median over the slices
    keeps one burst from moving it.
    """
    count = max(1, len(values) // SLICE)
    size = len(values) // count
    tails = [tail(values[k * size:(k + 1) * size]) for k in range(count)]
    label = tails[0][1] if count == 1 else \
        f"median of {count} slices' {tails[0][1]}"
    return median([value for value, _ in tails]), label


def end_to_end(report: Report, served: Served, plan: Plan,
               suffix: str = "") -> None:
    """Client-side latency, SLO share and saturation throughput."""
    for name in ("low", "high"):
        lat = served.phases[name].latencies_ms()
        value, label = phase_tail(lat)
        report.add(f"p50_ms.{name}{suffix}", median(lat), "ms", len(lat),
                   "from scheduled send")
        report.add(f"tail_ms.{name}{suffix}", value, "ms", len(lat), label)
    high = served.phases["high"].latencies_ms()
    report.add(f"slo_share.high{suffix}",
               sum(1 for v in high if v <= plan.limit_ms) / len(high),
               "share", len(high), f"OK within {plan.limit_ms:g} ms / sent")
    sat = served.phases["sat"]
    rate, windows = sat_rps(sat)
    report.add(f"sat_rps{suffix}", rate, "1/s", windows,
               f"closed loop, window {WINDOW}; median of "
               f"{SAT_WINDOW_S:g} s windows")


def check(report: Report, phases: List[Phase]) -> None:
    """Count failures and compare every answer with the textbook score."""
    records = [r for phase in phases for r in phase.requests]
    report.attempted += len(records)
    answered = [r for r in records
                if r.response is not None and r.response.ok]
    report.failed += len(records) - len(answered)
    distinct = sorted({r.item for r in answered})
    expected = dict(zip(distinct, classic_scores(distinct)))
    for record in answered:
        want = expected[record.item]
        if record.response.score != want:
            report.mismatch(f"{record.rid} kernel {record.item[0]}: score "
                            f"{record.response.score} != classic {want}")


def runner(workload: str) -> Callable:
    """The ``run(report, seed, seconds, traced, scratch)`` of a workload."""

    def run(report: Report, seed: int, seconds: float, traced: bool,
            scratch: Path) -> None:
        plan = PLANS[workload]
        # The sender thread shares this interpreter with the connections'
        # reader threads; at the default 5 ms switch interval it can wait
        # that long for the lock, and its lag lands in every latency.
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        cores = Cores.split()
        os.sched_setaffinity(0, cores.client)
        try:
            setups = []
            for attempt in range(SETUP_REPEATS):
                server = Server(cli_argv(scratch / f"cache-{attempt}"), cores)
                setups.append(server.setup_s)
                if attempt < SETUP_REPEATS - 1:
                    server.stop()
            try:
                plain = drive(server, workload, seed,
                              seconds / 2 if traced else seconds)
            finally:
                server.stop()
            end_to_end(report, plain, plan)
            phases = [plain.warm, *plain.phases.values()]
            if traced:
                phases += traced_run(report, workload, seed, seconds / 2,
                                     scratch, cores)
        finally:
            os.sched_setaffinity(0, cores.everything)
        report.add("setup_s", median(setups), "s", len(setups),
                   "spawn repro serve to first pong")
        for name, alias in (("p50_ms", "p50_ms.high"),
                            ("tail_ms", "tail_ms.high"),
                            ("ops_per_s", "sat_rps")):
            metric = report.metrics[alias]
            report.add(name, metric.value, metric.unit, metric.samples,
                       f"= {alias}")
        report.add("peak_rss_mb", plain.rss_mb, "MiB", 1, "server process")
        check(report, phases)
        report.add("fail_share", report.failed / report.attempted, "share",
                   report.attempted)
        if not traced:
            lags = [lag for p in ("low", "high")
                    for lag in plain.phases[p].lags_ms()]
            value, label = tail(lags)
            report.add("client.lag_ms.tail", value, "ms", len(lags),
                       f"{label}, open-loop phases")

    return run


# -- the traced run ---------------------------------------------------


def traced_run(report: Report, workload: str, seed: int, seconds: float,
               scratch: Path, cores: Cores) -> List[Phase]:
    """Serve the same phases from the traced launcher; per-layer metrics.

    Run after the untraced half, whose ``p50_ms.high`` is the baseline of
    ``trace.overhead_share``.
    """
    spans_out = scratch / "spans.json"
    server = Server(traced_argv(scratch / "traced-cache", spans_out), cores)
    try:
        served = drive(server, workload, seed, seconds)
    finally:
        server.stop()
    log = SpanLog.load(str(spans_out))
    plan = PLANS[workload]
    end_to_end(report, served, plan, suffix=".traced")
    service_metrics(report, *served.snapshots)
    high = served.phases["high"]
    layer_metrics(report, log, high)
    lags = [lag for p in ("low", "high")
            for lag in served.phases[p].lags_ms()]
    value, label = tail(lags)
    report.add("client.lag_ms.tail", value, "ms", len(lags),
               f"{label}, open-loop phases")
    base = report.metrics["p50_ms.high"].value
    report.add("trace.overhead_share",
               (report.metrics["p50_ms.high.traced"].value - base) / base,
               "share", len(high.requests), "traced minus untraced p50.high")
    accounting(report, log, high)
    return [served.warm, *served.phases.values()]


def _window(spans, phase: Phase):
    return [s for s in spans if phase.start <= s.start <= phase.end]


def layer_metrics(report: Report, log, phase: Phase) -> None:
    """backend, host, cache, transport and protocol over the high phase."""
    backend_host_metrics(report, _window(log.by_name("backend.sweep"), phase),
                         _window(log.by_name("host.run"), phase),
                         phase.end - phase.start)
    probes = _window(log.by_name("cache.probe"), phase)
    report.add("cache.hit_share",
               sum(1 for s in probes if s.attrs["hit"]) / len(probes),
               "share", len(probes), "probes that hit")
    for layer, unit_name in (("cache.key", "cache.key_us.p50"),
                             ("cache.probe", "cache.probe_us.p50"),
                             ("cache.store", "cache.store_us.p50")):
        spans = _window(log.by_name(layer), phase)
        report.add(unit_name,
                   median([s.duration * 1e6 for s in spans]) if spans
                   else 0.0, "us", len(spans))
    transport = [
        (r.recv - r.sent) * 1e3 - r.response.latency_ms
        for r in phase.requests if r.recv is not None and r.response.ok
    ]
    value, label = tail(transport)
    report.add("transport.ms.p50", median(transport), "ms", len(transport),
               "client latency minus server latency_ms")
    report.add("transport.ms.tail", value, "ms", len(transport), label)
    for layer, kind, unit_name in (
        ("protocol.decode", "align", "protocol.decode_us.p50"),
        ("protocol.encode", "result", "protocol.encode_us.p50"),
    ):
        spans = [s for s in _window(log.by_name(layer), phase)
                 if s.attrs.get("type") == kind]
        report.add(unit_name, median([s.duration * 1e6 for s in spans]),
                   "us", len(spans), f"server side, {kind} lines")


def accounting(report: Report, log, phase: Phase) -> None:
    """Blocking-path steps of the median high-phase request.

    A request's path is: generator lag (due to sent), wire in and out
    (client round trip minus the server's decode-to-encode interval),
    decode, admission, batcher wait (admission end to the batch's start),
    batch execution, resolution (batch end to encode start) and encode.
    The steps are averaged over the requests whose latency lies between
    the 40th and 60th percentile; their sum is compared with the median
    latency.  Medians of the steps would not add up: the batcher wait is
    a mixture of size-triggered and deadline-triggered flushes.
    """
    by_rid: Dict[str, Dict[str, Any]] = {}
    wanted = {"protocol.decode": "align", "protocol.encode": "result",
              "service.submit": None}
    for span in log.spans:
        if span.rid is not None and span.name in wanted and \
                wanted[span.name] in (None, span.attrs.get("type")):
            by_rid.setdefault(span.rid, {})[span.name] = span
    for span in log.by_name("pool.execute"):
        for rid in span.attrs["rids"]:
            if rid is not None:
                by_rid.setdefault(rid, {})["pool.execute"] = span
    paths = []
    for record in phase.requests:
        spans = by_rid.get(record.rid, {})
        if record.recv is None or len(spans) < 4:
            continue
        dec, sub = spans["protocol.decode"], spans["service.submit"]
        exe, enc = spans["pool.execute"], spans["protocol.encode"]
        steps = {
            "lag": record.sent - record.due,
            "wire": (record.recv - record.sent) - (enc.end - dec.start),
            "decode": dec.duration,
            "submit": sub.end - dec.end,
            "queue": exe.start - sub.end,
            "execute": exe.duration,
            "resolve": enc.start - exe.end,
            "encode": enc.duration,
        }
        paths.append(((record.recv - record.due) * 1e3,
                      {name: value * 1e3 for name, value in steps.items()}))
    paths.sort(key=lambda path: path[0])
    band = paths[int(0.4 * len(paths)):int(0.6 * len(paths)) + 1]
    accounted = 0.0
    for name in band[0][1]:
        mean = sum(steps[name] for _, steps in band) / len(band)
        accounted += mean
        report.add(f"path.{name}_ms", mean, "ms", len(band),
                   "blocking-path step of the p40-p60 requests")
    report.add("trace.accounted_share",
               accounted / median([total for total, _ in paths]), "share",
               len(paths), "sum of the median requests' steps / median "
               "latency")
