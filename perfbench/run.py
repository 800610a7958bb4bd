"""The repository's benchmark: batch alignment, serving and read mapping.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload align-batch --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` measures an untraced half and a traced half and reports
the per-layer metrics (see ``perfbench/README.md``).  Every metric is
printed as one line with its unit and sample count; the last line of
stdout is the JSON result the metric names in ``BENCHMARK.json`` select.
The exit code is 0 only when every checked output matched its
independent reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("align-batch", "serve-unique", "serve-repeat", "map-flowcell")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _module(workload: str):
    if workload == "align-batch":
        import align_batch

        return align_batch.INFO, align_batch.run
    if workload == "map-flowcell":
        import mapping

        return mapping.INFO, mapping.run
    import serving

    return serving.INFOS[workload], serving.runner(workload)


def _terminated(signum, frame) -> None:
    # Unwind through every ``finally`` so spawned servers are stopped.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's source ({ROOT / 'src' / 'repro'}) is "
              f"not in this checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import common

    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}

    info, run = _module(args.workload)
    report = common.Report(args.workload)
    scratch = common.SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run(report, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            common.SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    for name, unit in units.items():
        if name not in report.metrics and name.split(".")[0] in info.bypasses:
            report.add(name, 0.0, unit, 0, "layer not on this workload's path")
    print(f"[{info.name}] why: {info.why}")
    print(f"[{info.name}] stresses: {', '.join(info.stresses)}; "
          f"bypasses: {', '.join(info.bypasses)}")
    print("stamp " + json.dumps(common.stamp(info.name, args.seed)))
    report.print_lines()
    print(report.result_line(units))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
