"""The benchmark's own tests: tail helper, metric names, repeatable counts.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
The run-based tests use the shortest runs the benchmark allows
(``--seconds 0 --min-cycles 1``), about a minute in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import covered  # noqa: E402
from stats import min_samples, tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: Counts the traced run must repeat exactly for a fixed seed.
COUNTS = ("engine.calls", "plan.lookups", "plan.misses", "plan.evictions",
          "plan.workspaces_built", "plan.block_adds", "plan.combine_bytes",
          "gemm.calls", "nn.matmul_calls", "parallel.jobs",
          "parallel.retries", "parallel.failed_jobs")


def run_bench(*args: str, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def short_run(workload: str, trace: int, seed: int = 3):
    return result_of(run_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--min-cycles", "1"))


# -- tail percentile -----------------------------------------------------


def test_tail_is_the_fixed_percentile():
    assert tail(list(range(1, 49)), 75) == 36
    assert tail(list(reversed(range(1, 49))), 75) == 36
    value = tail(list(range(1, 1001)), 99)
    assert value == 990
    assert sum(v > value for v in range(1, 1001)) == 10


def test_tail_percentile_does_not_depend_on_run_length():
    # A faster program fits more samples into the same seconds; the
    # reported quantile must stay the same one.
    for n in (40, 48, 400, 4000):
        values = [i / n for i in range(1, n + 1)]
        assert tail(values, 75) == pytest.approx(0.75, abs=1e-12)


def test_tail_needs_ten_samples_beyond():
    for pct in (75, 99):
        n = min_samples(pct)
        value = tail(list(range(n)), pct)
        assert sum(v > value for v in range(n)) == 10
        with pytest.raises(ValueError):
            tail(list(range(n - 1)), pct)
    assert (min_samples(75), min_samples(99)) == (40, 1000)
    assert tail([3.0, 1.0, 2.0], 75, beyond=0) == 3.0
    with pytest.raises(ValueError):
        tail([], 75)


def test_covered_merges_overlapping_children():
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(6.0)
    assert covered(0.0, 10.0, []) == 0.0


# -- metric names --------------------------------------------------------


def test_end_to_end_names_match_benchmark_json():
    result = short_run("small-mixed", trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs with the same seed per workload with counts."""
    return {w: (short_run(w, trace=1), short_run(w, trace=1))
            for w in ("small-mixed", "mlp-train", "large-1t")}


def test_per_layer_names_match_benchmark_json(traced_pairs):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for first, _ in traced_pairs.values():
        assert first["correct"] is True
        assert {n: m["unit"] for n, m in first["metrics"].items()} \
            == expected


def test_counts_repeat_exactly_for_a_seed(traced_pairs):
    for workload, (first, second) in traced_pairs.items():
        for name in COUNTS:
            assert first["metrics"][name]["value"] \
                == second["metrics"][name]["value"], (workload, name)


def test_counts_reflect_the_layers_each_workload_runs(traced_pairs):
    small = traced_pairs["small-mixed"][0]["metrics"]
    mlp = traced_pairs["mlp-train"][0]["metrics"]
    large = traced_pairs["large-1t"][0]["metrics"]
    # One round of the callers: 12 serve requests, one warm n = 8 call,
    # 7 hotpath products and 3 Fig 5 products, one lookup each; their 8
    # plans stay cached after warm-up.
    assert small["engine.calls"]["value"] == 23
    assert small["plan.lookups"]["value"] == 23
    assert small["plan.misses"]["value"] == 0
    assert small["plan.hit_ratio"]["value"] == 1.0
    # strassen222 (r = 7) on 13 products, bini322 (r = 10) on 10.
    assert small["gemm.calls"]["value"] == 13 * 7 + 10 * 10
    # 2 steps x 5 Dense layers x 3 products; bini322 (r = 10) runs the
    # 3 hidden layers' 9 products per step.
    assert mlp["nn.matmul_calls"]["value"] == 30
    assert mlp["gemm.calls"]["value"] == 2 * 9 * 10
    assert mlp["plan.misses"]["value"] == 0
    # 12 sequential products (ranks 7, 7, 10 and 23 at three sizes) and
    # 2 hybrid ones on two threads (strassen222 r = 7, bini322 r = 10).
    assert large["engine.calls"]["value"] == 14
    assert large["gemm.calls"]["value"] == 3 * (7 + 7 + 10 + 23) + 7 + 10
    assert large["parallel.jobs"]["value"] == 7 + 10
    assert large["plan.misses"]["value"] == 0


# -- refusals ------------------------------------------------------------


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "small-mixed", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_surrogate_algorithms():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep + BENCH)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import worker; worker._algorithm('smirnov444')"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "refusing surrogate" in proc.stderr
