"""Workload ``align-batch``: the paper's kernel benchmark, closed loop.

Why: the paper reports per-kernel alignment throughput on PBSIM reads
truncated to 256 bp at a 30 % error rate.  This workload feeds exactly
that input (``simulate_read_pairs(length=256, error_rate=0.30)``) to
``DeviceRuntime.run`` in batches of 64 on kernels 1, 2, 4 and 11, with
nothing around the runtime.  The banded kernel 11 only gets pairs within
its band.  The reads' varied lengths split each batch into several
padded shapes, which is what the batch backend pays for.

Each kernel has a pool of 128 pairs; every round draws a fresh batch of
64 from each pool, so a run sees many mixes of lengths (and so of padded
shapes), not one.  One operation is one pair; one round is one batch on
each of the four kernels, issued back to back.  A latency sample is one
batch: the wall time of one ``DeviceRuntime.run`` call.

Stresses ``repro.backend`` and ``repro.host``; bypasses the cache, the
service, the wire and the pipeline.
"""

from __future__ import annotations

import ctypes
import random
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

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

INFO = WorkloadInfo(
    name="align-batch",
    why="the paper's kernel benchmark: PBSIM-like 256 bp pairs at 30% "
        "error, batches of 64 on kernels 1, 2, 4 and 11, closed loop",
    stresses=("backend", "host"),
    bypasses=("cache", "service", "transport", "protocol", "pipeline"),
)

KERNELS = (1, 2, 4, 11)
BATCH = 64
#: Distinct pairs per kernel that the batches are drawn from.
POOL = 128
LENGTH = 256
ERROR_RATE = 0.30
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 5
#: Rounds the memory probe runs (see ``memory_probe``).
MEMORY_ROUNDS = 2
#: ``mallopt`` parameter number of glibc's mmap threshold, and glibc's
#: default (starting) value of it.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 << 10

Pair = Tuple[Tuple[int, ...], Tuple[int, ...]]


def build_runtimes() -> Dict[int, object]:
    """One compiled-backend runtime per kernel (lowering included)."""
    from repro.host.runtime import DeviceRuntime
    from repro.kernels import get_kernel
    from repro.synth.compiler import LaunchConfig

    return {
        k: DeviceRuntime(get_kernel(k), LaunchConfig(), backend="compiled")
        for k in KERNELS
    }


def make_pools(seed: int) -> Dict[int, List[Pair]]:
    """128 simulated pairs per kernel, drawn from ``seed``."""
    from repro.data.pbsim import simulate_read_pairs
    from repro.kernels import get_kernel

    pools: Dict[int, List[Pair]] = {}
    for offset, k in enumerate(KERNELS):
        band = get_kernel(k).banding
        pairs: List[Pair] = []
        draw = 0
        while len(pairs) < POOL:
            for read in simulate_read_pairs(
                POOL, length=LENGTH, error_rate=ERROR_RATE,
                seed=(seed * 7919 + offset * 101 + draw) % 2**31,
            ):
                if band is None or abs(len(read.query) - len(read.reference)) <= band:
                    pairs.append((read.query, read.reference))
            draw += 1
        pools[k] = pairs[:POOL]
    return pools


def memory_child(seed: int) -> None:
    """Body of the memory probe: run rounds, print the peak RSS in MiB.

    glibc's mmap threshold is pinned at its 128 KiB default first, so
    every working array gets a mapping of its own that is returned when
    it is freed.  Left alone, glibc raises the threshold to the size of
    each large block it frees, and whether later arrays reuse heap holes
    or grow the heap depends on the order earlier blocks were freed: one
    seed then peaked at 182 MiB in one run and 242 MiB in the next.
    Pinned, the peak is the live data plus the largest batch's working
    set.  Off glibc the threshold stays as it is.
    """
    try:
        ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    except (OSError, AttributeError):
        pass
    runtimes, pools = build_runtimes(), make_pools(seed)
    rng = random.Random(seed)
    for _ in range(MEMORY_ROUNDS):
        run_rounds(runtimes, pools, 0.0, rng)
    print(peak_rss_mb(), flush=True)


def memory_probe(seed: int) -> float:
    """Peak RSS (MiB) of a fresh interpreter running ``memory_child``.

    The benchmark process itself is not used: its peak depends on how
    the timed rounds left the heap (see ``memory_child``).
    """
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}]; "
        f"import align_batch; align_batch.memory_child({seed})"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=src_env(),
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"memory probe failed: {done.stderr[-2000:]}")
    return float(done.stdout.split()[-1])


def setup_seconds() -> List[float]:
    """Spawn-to-ready times of fresh interpreters building the runtimes."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}]; "
        f"import align_batch; align_batch.build_runtimes(); "
        f"print('ready', flush=True)"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=src_env(),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            samples.append(time.monotonic() - started)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("set-up probe failed to build the runtimes")
    return samples


class Loop:
    """What one closed-loop measurement saw."""

    def __init__(self) -> None:
        self.rounds: List[Tuple[float, float]] = []
        #: Wall time of every ``DeviceRuntime.run`` call, ms.
        self.batches_ms: List[float] = []
        self.gaps: List[float] = []
        #: (kernel, pool indices, scores) of every batch.
        self.scores: List[Tuple[int, List[int], Tuple]] = []
        self.cells = 0
        self.errors = 0
        self.pairs = 0

    @property
    def rounds_ms(self) -> List[float]:
        return [(end - start) * 1e3 for start, end in self.rounds]

    @property
    def wall_s(self) -> float:
        return self.rounds[-1][1] - self.rounds[0][0]


def run_rounds(runtimes, pools: Dict[int, List[Pair]], seconds: float,
               rng: random.Random) -> Loop:
    """Issue rounds back to back until ``seconds`` have passed."""
    loop = Loop()
    deadline = time.monotonic() + seconds
    last_end = None
    while not loop.rounds or time.monotonic() < deadline:
        picks = {k: rng.sample(range(POOL), BATCH) for k in KERNELS}
        batches = {k: [pools[k][i] for i in picks[k]] for k in KERNELS}
        start = time.monotonic()
        if last_end is not None:
            loop.gaps.append(start - last_end)
        outcomes = []
        for k in KERNELS:
            began = time.monotonic()
            outcomes.append((k, runtimes[k].run(batches[k])))
            loop.batches_ms.append((time.monotonic() - began) * 1e3)
        last_end = time.monotonic()
        loop.rounds.append((start, last_end))
        for k, outcome in outcomes:
            loop.pairs += len(outcome.results)
            loop.errors += len(outcome.errors)
            loop.cells += sum(len(q) * len(r) for q, r in batches[k])
            loop.scores.append((k, picks[k], tuple(
                None if r is None else r.score for r in outcome.results
            )))
    return loop


def check(report: Report, pools: Dict[int, List[Pair]],
          loops: Sequence[Loop]) -> None:
    """Every returned score must equal the textbook score of its pair."""
    flat = classic_scores([(k, q, r) for k in KERNELS for q, r in pools[k]])
    expected = {
        k: flat[i * POOL:(i + 1) * POOL] for i, k in enumerate(KERNELS)
    }
    for loop in loops:
        for k, picks, scores in loop.scores:
            for index, got in zip(picks, scores):
                if got != expected[k][index]:
                    report.mismatch(
                        f"kernel {k} pair {index}: score {got} != classic "
                        f"{expected[k][index]}"
                    )
                    return


def run(report: Report, seed: int, seconds: float, traced: bool,
        scratch) -> None:
    """Measure the workload into ``report``."""
    setup = setup_seconds()
    report.add("setup_s", median(setup), "s", len(setup),
               "fresh interpreter: imports + four runtimes incl. lowering")
    pools = make_pools(seed)
    rng = random.Random(seed)
    runtimes = build_runtimes()
    run_rounds(runtimes, pools, 0.0, rng)  # warm-up round, not measured
    plain = run_rounds(runtimes, pools, seconds / 2 if traced else seconds,
                       rng)
    loops = [plain]
    if not traced:
        report.add("peak_rss_mb", memory_probe(seed), "MiB", 1,
                   f"fresh interpreter, {MEMORY_ROUNDS} rounds")
    lat = plain.batches_ms
    value, label = tail(lat)
    report.add("p50_ms", median(lat), "ms", len(lat),
               "one DeviceRuntime.run batch of 64")
    report.add("tail_ms", value, "ms", len(lat), label)
    report.add("ops_per_s", plain.pairs / plain.wall_s, "1/s",
               len(plain.rounds), "pairs per second")
    report.add("cells_per_s", plain.cells / plain.wall_s, "cells/s",
               len(plain.rounds), "sum |Q||R| over wall time")
    if traced:
        loops.append(_traced(report, pools, seconds / 2, rng, median(lat)))
    report.attempted = sum(loop.pairs for loop in loops)
    report.failed = sum(loop.errors for loop in loops)
    report.add("fail_share", report.failed / report.attempted, "share",
               report.attempted)
    check(report, pools, loops)


def _traced(report: Report, pools, seconds: float, rng: random.Random,
            plain_p50_ms: float) -> Loop:
    """The traced half: fresh runtimes behind span wrappers."""
    from spans import SpanLog, backend_host_metrics, install_backend

    log = SpanLog()
    install_backend(log)
    runtimes = build_runtimes()
    run_rounds(runtimes, pools, 0.0, rng)
    log.clear()
    loop = run_rounds(runtimes, pools, seconds, rng)
    sweeps = log.by_name("backend.sweep")
    hosts = log.by_name("host.run")
    backend_host_metrics(report, sweeps, hosts, loop.wall_s)
    gaps = [g * 1e3 for g in loop.gaps] or [0.0]
    value, label = tail(gaps)
    report.add("client.lag_ms.tail", value, "ms", len(gaps),
               f"{label} of the gap between rounds")
    traced_p50 = median(loop.batches_ms)
    report.add("trace.overhead_share",
               (traced_p50 - plain_p50_ms) / plain_p50_ms, "share",
               len(loop.batches_ms), "traced minus untraced batch p50")
    # Blocking path of a round: the four host.run calls back to back,
    # each its own self time plus the sweep inside it, then the gap.
    selves = log.self_times()
    host_self, sweep_in = [], []
    for start, end in loop.rounds:
        host_self.append(sum(selves[s.sid] for s in hosts
                             if start <= s.start < end))
        sweep_in.append(sum(s.duration for s in sweeps
                            if start <= s.start < end))
    accounted = (median(host_self) + median(sweep_in)) * 1e3 + median(gaps)
    report.add("trace.accounted_share", accounted / median(loop.rounds_ms),
               "share",
               len(loop.rounds),
               "sum of layer self-time medians / traced round p50")
    return loop
