"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload large-1t --seed 1 --seconds 15 --trace 0

The workload runs in a fresh interpreter (``worker.py``) with the BLAS
thread pins set before numpy is imported and ``src`` on the import
path.  With ``--trace 0`` the result holds every end-to-end metric of
``BENCHMARK.json``; set-up is repeated in further fresh interpreters and
``setup_s`` is the median.  With ``--trace 1`` it holds every per-layer
metric, and the spans are written to ``perfbench/out``.  Human-readable
lines come first; the last line of standard output is the JSON result.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from stats import median  # noqa: E402

#: Set-up runs per result (the measured run's own set-up included): more
#: where a set-up is short.  Their median cannot remove the host's speed
#: drift between invocations (see README.md).
SETUP_RUNS = {"large-1t": 3, "mlp-train": 5, "small-mixed": 9}
#: Wall-clock budget for all worker processes of one invocation.
BUDGET_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion and parse its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before the worker started")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--min-cycles", type=int, default=None,
                        help="override the workload's cycle floor (tests)")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program sources at src/repro", file=sys.stderr)
        return 2
    expected = expected_metrics(args.trace)
    deadline = time.monotonic() + BUDGET_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measured = [*common, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    if args.min_cycles is not None:
        measured += ["--min-cycles", str(args.min_cycles)]
    if args.trace:
        measured += ["--spans", os.path.join(out_dir, f"spans-{tag}.json")]
    setup_only = [*common, "--seconds", "0", "--setup-only"]
    try:
        setups = []
        # The extra set-ups run before and after the measured run, so
        # their median spans more of the host's speed drift.
        extra = 0 if args.trace else SETUP_RUNS.get(args.workload, 1) - 1
        for _ in range(extra // 2):
            setups.append(run_worker(setup_only, deadline)["setup_s"])
        result = run_worker(measured, deadline)
        setups.append(result["setup_s"])
        for _ in range(extra - extra // 2):
            setups.append(run_worker(setup_only, deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = (median(setups), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MiB")
    units = {name: unit for name, (_, unit) in metrics.items()}
    missing = {n: u for n, u in expected.items() if units.get(n) != u}
    if missing:
        print(f"perfbench: BENCHMARK.json metrics {sorted(missing)} were not "
              "measured with their units", file=sys.stderr)
        return 3

    host = {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), **result["host"]}
    attempted, failed = result["attempted"], result["failed"]
    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['cycles']} cycles in {result['measured_s']:.1f} s, "
          f"attempted {attempted}, failed {failed}, "
          f"error_rate {failed / max(attempted, 1):.4g}")
    if "info" in result:
        info = result["info"]
        print(f"latency: {info['samples']} samples per {info['latency_unit']},"
              f" tail = p{info['tail_percentile']}")
    if "loss_gap" in result:
        gap = result["loss_gap"]
        print(f"loss_gap (APA - classical) at step {gap['step']}: "
              f"{gap['value']:.4g}")
    if not args.trace:
        print(f"setup_s runs: {', '.join(f'{s:.3f}' for s in setups)}")
    for name, (value, unit) in metrics.items():
        # Metrics outside BENCHMARK.json are printed for reading only:
        # absolute timings follow the host's speed drift too closely to
        # gate on (see README.md).
        note = "" if name in expected else "  (not gated)"
        print(f"{name:24s} {value:14.6g} {unit}{note}")
    for error in result["errors"]:
        print(f"error: {error}")

    final = {"correct": bool(result["correct"]), "attempted": attempted,
             "failed": failed,
             "metrics": {name: {"value": metrics[name][0], "unit": unit}
                         for name, unit in expected.items()}}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({**final, "host": host, "setup_runs": setups,
                   "worker": result}, fh, indent=1)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
