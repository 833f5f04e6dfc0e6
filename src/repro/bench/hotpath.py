"""Hot-path benchmark: plan-cached execution vs the per-call cold path.

Quantifies what the plan-and-arena engine (:mod:`repro.core.plan`) buys
on the workload the ROADMAP cares about — thousands of identically
shaped products:

- repeated ``apa_matmul`` calls on one shape, cold (partition +
  coefficient evaluation + buffer allocation rebuilt every call, the
  pre-plan behavior) vs warm (one cached plan, pooled arenas);
- a short MLP train step (forward + backward through APA-backed Dense
  layers) under the same two regimes.

Numerics are asserted identical (the plan path is bit-for-bit the
interpreter), so the speedup is pure overhead reclaimed — warm against
cold APA, which says nothing about the paper's claim.  Two figures put
the warm call in context: warm APA against ``np.matmul`` on the same
operands, and the cost of ``engine.matmul`` over ``plan.execute`` on
the same warm plan (:func:`measure_engine_over_execute`).  The bench
also measures the *dispatch* cost of the public shim vs the
engine-private interpreter entry (:func:`measure_engine_overhead`,
paired-median like the obs gate) and ``benchmarks/bench_hotpath.py``
gates it below 2%.  Run through
``python -m repro hotpath`` or ``benchmarks/bench_hotpath.py`` (which
emits ``BENCH_hotpath.json`` for the CI perf trajectory).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.apa_matmul import apa_matmul
from repro.core.backend import APABackend
from repro.core.plan import PlanCache, resolve_plan_cache

__all__ = ["HotpathResult", "run_hotpath", "format_hotpath",
           "measure_engine_overhead", "measure_engine_over_execute"]


@dataclass(frozen=True)
class HotpathResult:
    """Timings (seconds per call, best of ``repeats``) and cache stats."""

    algorithm: str
    n: int
    iters: int
    steps: int
    dtype: str
    matmul_cold: float
    matmul_warm: float
    train_cold: float
    train_warm: float
    max_abs_diff: float
    engine_overhead: float = 0.0
    #: ``np.matmul`` on the same operands (seconds per call).
    matmul_numpy: float = 0.0
    #: ``engine.matmul`` minus ``plan.execute`` on one warm plan
    #: (seconds per call).
    engine_over_execute: float = 0.0
    plan_cache: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)

    @property
    def matmul_speedup(self) -> float:
        return self.matmul_cold / self.matmul_warm

    @property
    def warm_speedup_vs_numpy(self) -> float:
        """Warm APA against ``np.matmul`` (below 1: APA is slower)."""
        if not self.matmul_numpy:
            return 0.0
        return self.matmul_numpy / self.matmul_warm

    @property
    def train_speedup(self) -> float:
        if not self.train_cold:
            return 1.0
        return self.train_cold / self.train_warm

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "iters": self.iters,
            "steps": self.steps,
            "dtype": self.dtype,
            "matmul_cold_s": self.matmul_cold,
            "matmul_warm_s": self.matmul_warm,
            "matmul_speedup": self.matmul_speedup,
            "matmul_numpy_s": self.matmul_numpy,
            "warm_speedup_vs_numpy": self.warm_speedup_vs_numpy,
            "train_cold_s": self.train_cold,
            "train_warm_s": self.train_warm,
            "train_speedup": self.train_speedup,
            "max_abs_diff": self.max_abs_diff,
            "engine_overhead": self.engine_overhead,
            "engine_over_execute_s": self.engine_over_execute,
            "plan_cache": self.plan_cache,
            "pool": self.pool,
        }


def _best_per_call(fn, iters: int, repeats: int) -> float:
    """Best mean-per-call over ``repeats`` runs of an ``iters``-call loop."""
    fn()  # warmup (also primes caches on the warm variants)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def measure_engine_overhead(
    algorithm: str = "bini322",
    n: int = 96,
    iters: int = 40,
    repeats: int = 5,
    dtype=np.float32,
    seed: int = 0,
) -> float:
    """Dispatch cost of the engine shim vs the pre-refactor direct call.

    Times the public ``apa_matmul`` shim (which routes through the
    :class:`~repro.core.engine.ExecutionEngine` fast lane) against the
    pre-refactor direct call's plan path — the default ``lambda``, the
    plan-cache argument resolved, a plan lookup and ``plan.execute`` on
    the *same* warm plan — as
    interleaved rounds of ``iters`` calls each; returns the median of
    per-round ``shim/direct`` ratios minus one (the paired-median
    estimator the obs-overhead gate uses, robust to drift).  Gated
    below 2% by ``benchmarks/bench_hotpath.py`` — the layered engine
    must stay free on the hot path.
    """
    from repro.algorithms.catalog import get_algorithm
    from repro.core.apa_matmul import default_lambda

    alg = get_algorithm(algorithm) if isinstance(algorithm, str) \
        else algorithm
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)
    cache = PlanCache()

    def direct_round() -> None:
        for _ in range(iters):
            lam = default_lambda(alg, A.dtype, B.dtype, None, 1)
            resolve_plan_cache(cache).plan_for(
                alg, n, n, n, A.dtype, lam, 1).execute(A, B)

    def shim_round() -> None:
        for _ in range(iters):
            apa_matmul(A, B, alg, plan_cache=cache)

    # warm up both paths (primes the plan cache and the arena pool)
    direct_round()
    shim_round()
    direct, shim = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        direct_round()
        t1 = time.perf_counter()
        shim_round()
        t2 = time.perf_counter()
        direct.append(t1 - t0)
        shim.append(t2 - t1)
    return statistics.median(s / b for s, b in zip(shim, direct)) - 1.0


def measure_engine_over_execute(
    algorithm: str = "bini322",
    n: int = 96,
    iters: int = 40,
    repeats: int = 5,
    dtype=np.float32,
    seed: int = 0,
) -> float:
    """Seconds per call ``engine.matmul`` adds to ``plan.execute``.

    Both run the same warm plan (the engine resolves the call to it);
    interleaved rounds of ``iters`` calls each, the best round of one
    minus the best round of the other (a round's noise only adds time).
    """
    from repro.algorithms.catalog import get_algorithm
    from repro.core.engine import default_engine
    from repro.core.lam import optimal_lambda, precision_bits

    alg = get_algorithm(algorithm) if isinstance(algorithm, str) \
        else algorithm
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)
    cache = PlanCache()
    engine = default_engine()
    lam = optimal_lambda(alg, d=precision_bits(np.dtype(dtype)))
    plan = cache.plan_for(alg, n, n, n, dtype, lam)

    def engine_round() -> None:
        for _ in range(iters):
            engine.matmul(A, B, alg, plan_cache=cache)

    def execute_round() -> None:
        for _ in range(iters):
            plan.execute(A, B)

    engine_round()
    execute_round()
    if cache.stats()["misses"] != 1:
        raise AssertionError("engine.matmul did not run the timed plan")
    best_execute = best_engine = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        execute_round()
        t1 = time.perf_counter()
        engine_round()
        t2 = time.perf_counter()
        best_execute = min(best_execute, t1 - t0)
        best_engine = min(best_engine, t2 - t1)
    return (best_engine - best_execute) / iters


def _train_step(model, loss, x, y) -> None:
    logits = model.forward(x, training=True)
    loss.forward(logits, y)
    model.backward(loss.backward())
    for p in model.parameters():
        p.zero_grad()


def _build_mlp(algorithm, plan_cache, in_dim: int, hidden: int,
               out_dim: int):
    from repro.nn.layers import Dense, ReLU
    from repro.nn.model import Sequential

    rng = np.random.default_rng(0)
    return Sequential([
        Dense(in_dim, hidden,
              backend=APABackend(algorithm=algorithm, plan_cache=plan_cache),
              rng=rng),
        ReLU(),
        Dense(hidden, out_dim,
              backend=APABackend(algorithm=algorithm, plan_cache=plan_cache),
              rng=rng),
    ])


def run_hotpath(
    algorithm: str = "bini322",
    n: int = 96,
    iters: int = 40,
    steps: int = 1,
    dtype=np.float32,
    repeats: int = 3,
    batch: int = 64,
    hidden: int = 96,
    train: bool = True,
    seed: int = 0,
) -> HotpathResult:
    """Measure cold vs plan-cached throughput on one configuration.

    The cold loop reproduces the pre-plan per-call cost exactly: it runs
    with ``plan_cache=False`` *and* drops the algorithm's memoized
    coefficient evaluation before every call.  The warm loop uses a
    private primed :class:`~repro.core.plan.PlanCache`.
    """
    from repro.algorithms.catalog import get_algorithm
    from repro.nn.losses import SoftmaxCrossEntropy
    from repro.parallel.pool import pool_stats

    alg = get_algorithm(algorithm)
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)

    cache = PlanCache()

    def cold_call():
        alg.clear_evaluation_cache()
        return apa_matmul(A, B, alg, steps=steps, plan_cache=False)

    def warm_call():
        return apa_matmul(A, B, alg, steps=steps, plan_cache=cache)

    # Numerics gate first: plan-cached result must match the interpreter.
    reference = cold_call()
    planned = warm_call()
    max_abs_diff = float(np.max(np.abs(reference - planned)))
    if not np.allclose(reference, planned, rtol=1e-6, atol=1e-6):
        raise AssertionError(
            f"plan-cached result diverged from interpreter "
            f"(max |diff| = {max_abs_diff:.3e})")

    matmul_cold = _best_per_call(cold_call, iters, repeats)
    matmul_warm = _best_per_call(warm_call, iters, repeats)
    matmul_numpy = _best_per_call(lambda: np.matmul(A, B), iters, repeats)

    train_cold = train_warm = 0.0
    if train:
        loss = SoftmaxCrossEntropy()
        x = rng.random((batch, n)).astype(dtype)
        y = rng.integers(0, 10, size=batch)
        cold_model = _build_mlp(alg, False, n, hidden, 10)
        warm_model = _build_mlp(alg, cache, n, hidden, 10)
        train_iters = max(1, iters // 4)

        def cold_step():
            alg.clear_evaluation_cache()
            _train_step(cold_model, loss, x, y)

        train_cold = _best_per_call(cold_step, train_iters, repeats)
        train_warm = _best_per_call(
            lambda: _train_step(warm_model, loss, x, y), train_iters, repeats)

    engine_overhead = measure_engine_overhead(
        algorithm, n=n, iters=iters, repeats=max(repeats, 5), dtype=dtype,
        seed=seed)
    engine_over_execute = measure_engine_over_execute(
        algorithm, n=n, iters=iters, repeats=max(repeats, 5), dtype=dtype,
        seed=seed)

    return HotpathResult(
        algorithm=algorithm, n=n, iters=iters, steps=steps,
        dtype=np.dtype(dtype).name,
        matmul_cold=matmul_cold, matmul_warm=matmul_warm,
        train_cold=train_cold, train_warm=train_warm,
        max_abs_diff=max_abs_diff, engine_overhead=engine_overhead,
        matmul_numpy=matmul_numpy, engine_over_execute=engine_over_execute,
        plan_cache=cache.stats(), pool=pool_stats(),
    )


def format_hotpath(result: HotpathResult) -> str:
    lines = [
        f"hot path: {result.algorithm} n={result.n} steps={result.steps} "
        f"{result.dtype} ({result.iters} calls/loop)",
        f"  matmul  cold {result.matmul_cold * 1e6:9.1f} us/call   "
        f"warm {result.matmul_warm * 1e6:9.1f} us/call   "
        f"speedup {result.matmul_speedup:5.2f}x",
        f"  numpy   {result.matmul_numpy * 1e6:9.1f} us/call   "
        f"warm APA vs np.matmul {result.warm_speedup_vs_numpy:5.3f}x "
        f"(same operands)",
    ]
    if result.train_cold:
        lines.append(
            f"  train   cold {result.train_cold * 1e6:9.1f} us/step   "
            f"warm {result.train_warm * 1e6:9.1f} us/step   "
            f"speedup {result.train_speedup:5.2f}x")
    pc = result.plan_cache
    lines.append(
        f"  plans: {pc.get('size', 0)} cached, {pc.get('hits', 0)} hits / "
        f"{pc.get('misses', 0)} misses; max |diff| vs interpreter "
        f"{result.max_abs_diff:.2e}")
    lines.append(
        f"  engine dispatch {result.engine_overhead * 100:+.2f}% "
        f"(paired median, shim vs direct plan path, same warm plan)")
    lines.append(
        f"  engine.matmul over plan.execute "
        f"{result.engine_over_execute * 1e6:+.1f} us/call (same warm plan)")
    return "\n".join(lines)
