"""Run-to-run spread of the end-to-end metrics, judged against their bounds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads large-1t small-mixed --runs 10

Runs ``run.py`` once per seed (seeds ``first .. first + runs - 1``) and,
for every end-to-end metric, prints the median, the inter-quartile
distance as a share of the median (``statistics.quantiles(n=4)``) and
the metric's bound from ``BENCHMARK.json``.  A spread above a third of
its bound is flagged ``WIDE``.  Exits 1 if any run fails or any spread
is wide.  Run it twice with different ``--first-seed`` to compare the
medians of two seed sets.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from stats import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        for name, series in values.items():
            if len(series) < 2:
                continue
            spread = quartile_spread(series)
            wide = spread > bounds[name] / 3
            status |= wide
            print(f"{workload:12s} {name:20s} median {median(series):12.5g} "
                  f"spread {spread:7.4f} bound {bounds[name]:.2f}"
                  f"{'  WIDE' if wide else ''}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
