"""Workload ``map-flowcell``: cold whole-flowcell read mapping.

Why: the paper's end-to-end application is a GACT read mapper.  This
workload runs ``map_flowcell`` cold (no cache) over a fixed 2 Mb
``random_genome`` and a fixed 64-read flowcell of 1 kb reads at 12 %
error from ``write_flowcell``, again and again for the run's seconds.
It is the only workload through ``repro.pipeline``: k-mer index, seed
chaining, GACT tile batches and SAM output.  The flowcell size stays
fixed because throughput depends on it (fewer reads per second as the
flowcell grows).

One operation is one read; the latency of an operation is the wall time
of the ``map_flowcell`` call that mapped it.

Stresses ``repro.pipeline``, ``repro.backend`` and ``repro.host``;
bypasses the cache, the service and the wire.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple

from common import Report, WorkloadInfo, median, peak_rss_mb, tail

INFO = WorkloadInfo(
    name="map-flowcell",
    why="one cold map_flowcell of a fixed 64-read, 1 kb, 12% error "
        "flowcell on a fixed 2 Mb genome: the only workload through "
        "repro.pipeline",
    stresses=("pipeline", "backend", "host"),
    bypasses=("cache", "service", "transport", "protocol"),
)

GENOME_BP = 2_000_000
READS = 64
READ_BP = 1000
ERROR_RATE = 0.12
#: A read counts as placed when its SAM position is within this many
#: bases of the origin in its ``read_K/pos=S`` name.
PLACE_TOLERANCE = 128
SETUP_REPEATS = 5


def setup_seconds(genome) -> List[float]:
    """``KmerIndex`` plus ``build_tile_runtime``, timed in process."""
    from repro.pipeline import KmerIndex, build_tile_runtime

    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        KmerIndex(genome)
        build_tile_runtime()
        samples.append(time.monotonic() - started)
    return samples


def map_repeatedly(fastq: Path, genome, scratch: Path, seconds: float,
                   tag: str, dispatcher=None):
    """Cold ``map_flowcell`` calls until ``seconds`` pass; SAMs are kept."""
    from repro.pipeline import map_flowcell

    calls: List[Tuple[float, float, Path, object]] = []
    deadline = time.monotonic() + seconds
    while not calls or time.monotonic() < deadline:
        out = scratch / f"{tag}-{len(calls)}.sam"
        started = time.monotonic()
        report = map_flowcell(
            fastq, genome, out,
            dispatcher=dispatcher() if dispatcher else None,
        )
        calls.append((started, time.monotonic(), out, report))
    return calls


def check(report: Report, fastq: Path, calls) -> None:
    """One SAM record per read, named after it; count placed reads."""
    from repro.data.fastq import iter_fastq

    names = [record.name for record in iter_fastq(fastq)]
    placed = total = 0
    for _, _, sam, _ in calls:
        records = [line.split("\t") for line in sam.read_text().splitlines()
                   if not line.startswith("@")]
        report.attempted += len(names)
        if [fields[0] for fields in records] != names:
            report.mismatch(f"{sam.name}: {len(records)} SAM records do not "
                            f"match the {len(names)} reads")
            report.failed += len(names)
            continue
        for fields in records:
            total += 1
            origin = int(fields[0].split("pos=")[1])
            if fields[2] != "*" and abs(int(fields[3]) - 1 - origin) \
                    <= PLACE_TOLERANCE:
                placed += 1
    report.add("placed_share", placed / max(total, 1), "share", total,
               f"SAM position within {PLACE_TOLERANCE} bp of the origin")


def run(report: Report, seed: int, seconds: float, traced: bool,
        scratch: Path) -> None:
    """Measure the workload into ``report``."""
    from repro.data.fastq import write_flowcell
    from repro.data.genome import random_genome

    genome = random_genome(GENOME_BP, seed=seed % 2**31)
    fastq = scratch / "flowcell.fq"
    write_flowcell(fastq, genome, READS, length=READ_BP,
                   error_rate=ERROR_RATE, seed=(seed + 1) % 2**31)
    setup = setup_seconds(genome)
    report.add("setup_s", median(setup), "s", len(setup),
               "KmerIndex + build_tile_runtime")
    map_repeatedly(fastq, genome, scratch, 0.0, "warm")
    plain = map_repeatedly(fastq, genome, scratch,
                           seconds / 2 if traced else seconds, "plain")
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "benchmark process")
    walls = [(end - start) * 1e3 for start, end, _, _ in plain]
    value, label = tail(walls)
    report.add("p50_ms", median(walls), "ms", len(walls),
               "one cold map_flowcell call")
    report.add("tail_ms", value, "ms", len(walls), label)
    reads = sum(r.reads for _, _, _, r in plain)
    busy = sum(end - start for start, end, _, _ in plain)
    report.add("ops_per_s", reads / busy, "1/s", len(plain),
               "reads per second")
    report.add("reads_per_s", reads / busy, "reads/s", len(plain))
    calls = list(plain)
    if traced:
        calls += _traced(report, fastq, genome, scratch, seconds / 2,
                         median(walls))
    check(report, fastq, calls)
    report.add("fail_share", report.failed / report.attempted, "share",
               report.attempted)


def _traced(report: Report, fastq: Path, genome, scratch: Path,
            seconds: float, plain_p50_ms: float):
    """The traced half: spans around index, stages, tiles and backend."""
    import repro.pipeline.flow as flow
    from repro.pipeline import RuntimeTileDispatcher, build_tile_runtime
    from spans import (
        SpanLog,
        SpanTileDispatcher,
        backend_host_metrics,
        install_backend,
        install_pipeline,
    )

    log = SpanLog()
    install_backend(log)
    install_pipeline(log)
    flow.KmerIndex = log.wrap(flow.KmerIndex, "pipeline.index")

    def dispatcher():
        return SpanTileDispatcher(
            RuntimeTileDispatcher(build_tile_runtime()), log
        )

    map_repeatedly(fastq, genome, scratch, 0.0, "twarm", dispatcher)
    log.clear()
    calls = map_repeatedly(fastq, genome, scratch, seconds, "traced",
                           dispatcher)
    walls = [(end - start) * 1e3 for start, end, _, _ in calls]

    def ms(name: str) -> List[float]:
        return [s.duration * 1e3 for s in log.by_name(name)]

    index = log.by_name("pipeline.index")
    report.add("pipeline.index_s", median([s.duration for s in index]), "s",
               len(index), "KmerIndex inside map_flowcell")
    for stage in ("seed", "extend", "tile"):
        values = ms(f"pipeline.{stage}")
        report.add(f"pipeline.{stage}_ms.p50", median(values), "ms",
                   len(values), "per chunk" if stage != "tile"
                   else "per dispatcher call")
    tiles = log.by_name("pipeline.tile")
    report.add("pipeline.tiles_per_call",
               sum(s.attrs["tiles"] for s in tiles) / len(tiles), "tiles",
               len(tiles))
    report.add("pipeline.dispatch_share",
               sum(ms("pipeline.tile")) / sum(ms("pipeline.extend")),
               "share", len(tiles), "tile dispatch time / extend stage time")
    for stage in ("seed", "extend"):
        waits = [r.pipeline.stage(stage).queue_p95_ms
                 for _, _, _, r in calls]
        report.add(f"pipeline.queue_ms.{stage}.p95", median(waits), "ms",
                   len(waits), "median over calls of the stage's p95")
    backend_host_metrics(report, log.by_name("backend.sweep"),
                         log.by_name("host.run"),
                         sum(end - start for start, end, _, _ in calls))
    gaps = [(calls[i + 1][0] - calls[i][1]) * 1e3
            for i in range(len(calls) - 1)] or [0.0]
    value, label = tail(gaps)
    report.add("client.lag_ms.tail", value, "ms", len(gaps),
               f"{label} of the gap between calls")
    traced_p50 = median(walls)
    report.add("trace.overhead_share",
               (traced_p50 - plain_p50_ms) / plain_p50_ms, "share",
               len(calls), "traced minus untraced call p50")
    # Blocking path of one call: the index build, then the stretch in
    # which a stage is working (the two stage threads overlap, so their
    # union is the path, not their sum).
    stages = log.by_name("pipeline.seed") + log.by_name("pipeline.extend")
    working = [log.covered(s for s in stages if start <= s.start < end)
               for start, end, _, _ in calls]
    accounted = median([s.duration for s in index]) + median(working)
    report.add("trace.accounted_share", accounted * 1e3 / traced_p50,
               "share", len(calls),
               "(index + stage-busy time) medians / traced call p50")
    return calls
