"""Shared helpers of the benchmark: statistics, the result stamp, reporting.

One percentile definition is used everywhere in the benchmark: nearest
rank.  A "tail" is the highest nearest-rank percentile that still has at
least ten samples beyond it; its label names that percentile, so a tail
read from 270 samples reports as ``p96``.  Below 21 samples it is the
upper quartile, labelled ``p75`` (see ``tail``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[1]
#: The program under test.
SRC = ROOT / "src"
#: Scratch space for caches, FASTQ/SAM files and span dumps.  Everything
#: the benchmark writes lives here and is removed when a run ends.
SCRATCH = ROOT / ".perfbench_tmp"

#: Samples a tail percentile must leave beyond itself.
TAIL_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median."""
    return percentile(samples, 0.5)


def tail(samples: Sequence[float]) -> Tuple[float, str]:
    """(value, label) of the highest percentile with >= 10 samples beyond.

    Below 21 samples that percentile would not lie above the median, so
    the upper quartile is returned instead, labelled ``p75``.  The
    maximum of so few samples is one stall of the machine: over ten runs
    of map-flowcell (about 12 calls each) its quartile spread was 0.18 of
    its median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return percentile(ordered, 0.75), "p75"
    index = n - 1 - TAIL_BEYOND
    return ordered[index], f"p{math.floor(100.0 * (index + 1) / n)}"


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of a process (this one by default), MiB.

    Read from ``VmHWM``, not ``getrusage``: Linux carries the peak of
    the address space an ``exec`` replaced into ``ru_maxrss``, so a
    child spawned by a large parent would report the parent's peak.
    """
    with open(f"/proc/{pid or 'self'}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def src_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- the stamp --------------------------------------------------------


def calibration_probe() -> Dict[str, float]:
    """A fixed machine probe: pure-Python loop rate and NumPy rate.

    Each rate is the median of five repetitions, so numbers from
    different boxes can be normalised against the box they ran on.
    """
    import numpy as np

    loop_rates = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i & 7
        loop_rates.append(200_000 / (time.perf_counter() - started))
    a = np.arange(1_000_000, dtype=np.float64)
    b = np.ones_like(a)
    out = np.empty_like(a)
    numpy_rates = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(10):
            np.multiply(a, 1.0001, out=out)
            np.add(out, b, out=out)
        numpy_rates.append(10 * a.size / (time.perf_counter() - started))
    return {
        "python_loop_iter_per_s": median(loop_rates),
        "numpy_elem_per_s": median(numpy_rates),
    }


def git_sha() -> str:
    """Commit of the checkout, or ``unknown`` outside a git checkout.

    Discovery is fenced at the checkout root so a repository enclosing
    the checkout is never reported.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def stamp(workload: str, seed: int) -> Dict[str, object]:
    """Everything needed to compare this result with one from elsewhere.

    Every workload runs the compiled backend.
    """
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "backend": "compiled",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "calibration": calibration_probe(),
    }


# -- reporting --------------------------------------------------------


@dataclass
class Metric:
    """One reported number with its unit and how many samples made it."""

    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Report:
    """Metrics of one run plus the attempt/failure/correctness ledger."""

    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        """Record one metric (a later value under the same name wins)."""
        self.metrics[name] = Metric(name, float(value), unit, samples, note)

    def mismatch(self, message: str) -> None:
        """Record a wrong output; any mismatch fails the run."""
        self.mismatches.append(message)

    @property
    def correct(self) -> bool:
        """Whether every checked output matched its reference."""
        return not self.mismatches

    def print_lines(self) -> None:
        """Human-readable lines: metric, value, unit, sample count."""
        for metric in self.metrics.values():
            note = f"  [{metric.note}]" if metric.note else ""
            print(f"[{self.workload}] {metric.name} = {metric.value:.6g} "
                  f"{metric.unit} (n={metric.samples}){note}")
        for message in self.mismatches[:20]:
            print(f"[{self.workload}] MISMATCH {message}")

    def result_line(self, declared: Dict[str, str]) -> str:
        """The last stdout line: the ``declared`` metrics (name -> unit)."""
        missing = [name for name in declared if name not in self.metrics]
        wrong = [name for name, unit in declared.items()
                 if name in self.metrics and self.metrics[name].unit != unit]
        if missing or wrong:
            raise RuntimeError(f"{self.workload}: metrics not measured: "
                               f"{missing}; with another unit: {wrong}")
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name].value, "unit": unit}
                for name, unit in declared.items()
            },
        })


@dataclass(frozen=True)
class WorkloadInfo:
    """Why a workload exists and which layers it puts on its path.

    ``bypasses`` names the layers (metric prefixes) the workload never
    calls; their per-layer metrics report 0 for it.
    """

    name: str
    why: str
    stresses: Tuple[str, ...]
    bypasses: Tuple[str, ...]


def _classic(item: Tuple[int, tuple, tuple]) -> float:
    from repro.reference.dispatch import classic_score

    return classic_score(*item)


#: A worker of ``classic_scores``: pickled items on stdin, scores out.
_CLASSIC_WORKER = (
    "import pickle, sys\n"
    "from repro.reference.dispatch import classic_score\n"
    "items = pickle.load(sys.stdin.buffer)\n"
    "pickle.dump([classic_score(*item) for item in items], sys.stdout.buffer)\n"
)


def classic_scores(items: Sequence[Tuple[int, tuple, tuple]]) -> List[float]:
    """Textbook scores of ``(kernel_id, query, reference)`` items.

    The independent reference every served and batched score must
    equal.  Runs on at most two child interpreters, outside any timed
    region; each is waited for (and killed first if it is still running)
    before this returns, on every path.
    """
    import pickle

    items = list(items)
    workers = min(2, os.cpu_count() or 1)
    if workers < 2 or len(items) < 16:
        return [_classic(item) for item in items]
    shares = [items[i::workers] for i in range(workers)]
    children: List[subprocess.Popen] = []
    try:
        for share in shares:
            child = subprocess.Popen(
                [sys.executable, "-c", _CLASSIC_WORKER], cwd=ROOT,
                env=src_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            children.append(child)
            pickle.dump(share, child.stdin)
            child.stdin.close()
        results = []
        for child in children:
            results.append(pickle.load(child.stdout))
            if child.wait(timeout=60) != 0:
                raise RuntimeError("a classic_score worker failed")
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()
    scores: List[float] = [0.0] * len(items)
    for i, share in enumerate(results):
        scores[i::workers] = share
    return scores
