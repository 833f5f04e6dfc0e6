"""The plan-and-arena execution engine (core.plan + parallel.pool)."""

import itertools
import os
import sys
import threading

import numpy as np
import pytest

from repro.algorithms.catalog import get_algorithm, list_algorithms
from repro.core.apa_matmul import apa_matmul
from repro.core.backend import APABackend
from repro.core import memory as memory_module
from repro.core.batched import apa_matmul_batched
from repro.core.memory import workspace_bytes
from repro.core.plan import (
    PlanCache,
    configure_plan_cache,
    default_plan_cache,
    resolve_plan_cache,
)
from repro.linalg.blocking import required_padding
from repro.parallel.executor import threaded_apa_matmul
from repro.parallel.pool import get_pool, pool_stats, shutdown_pool
from repro.parallel.procpool import process_apa_matmul
from repro.parallel.strategy import Schedule, build_schedule
from repro.robustness.events import EventLog
from repro.robustness.guard import GuardedBackend


def _operands(shape, dtype=np.float64, seed=7):
    rng = np.random.default_rng(seed)
    M, N, K = shape
    A = rng.standard_normal((M, N)).astype(dtype)
    B = rng.standard_normal((N, K)).astype(dtype)
    return A, B


# ----------------------------------------------------------------------
# bit-identity: the plan path IS the interpreter
# ----------------------------------------------------------------------


def _unfed_rule():
    """Strassen with output block C22 dropped: no product feeds it."""
    from repro.algorithms.spec import BilinearAlgorithm
    from repro.linalg.laurent import Laurent

    alg = get_algorithm("strassen222")
    W = alg.W.copy()
    W[3, :] = [Laurent.const(0)] * alg.rank
    return BilinearAlgorithm("strassen222-no-c22", 2, 2, 2,
                             U=alg.U.copy(), V=alg.V.copy(), W=W)


_UNFED = _unfed_rule()


def _rule(name):
    return _UNFED if name == _UNFED.name else get_algorithm(name)


#: (threads, strategy) pairs the thread-runner cases cycle through.
_THREADINGS = [(t, s) for t in (1, 2, 3) for s in ("hybrid", "bfs", "dfs")]


def _bitwise_cases():
    """(rule, steps, shape, dtype, layout, gemm, runner) grid inputs.

    Every non-surrogate catalog rule at every step count whose unrolled
    tape stays within 1000 gemms, on an exact and a ragged shape whose
    last-step blocks are at least 2x2x2 (so the default budgets stage
    them block-major and stack their last level), each also forced onto
    per-product block-major and onto views; a ``gemm=`` override that
    keeps the dtype (float64) or upcasts (float32); the unfed-block rule
    on the same grid; and exact and ragged shapes above the budget.

    The other runners execute the same tape on the same grid (steps
    1-2): the thread runner on every rule, cycling through 1-3 threads
    and the hybrid/bfs/dfs schedules, with and without the ``gemm=``
    override; the process runner on ``strassen222`` and ``bini322``
    only (spawn cost); the batched runner at one step, each stack item
    against the same product run alone.
    """
    cases = []
    threadings = itertools.cycle(_THREADINGS)
    for name in [*list_algorithms("real"), _UNFED.name]:
        alg = _rule(name)
        for steps in (1, 2, 3):
            if alg.rank ** steps > 1000:
                continue
            um, un, uk = alg.m ** steps, alg.n ** steps, alg.k ** steps
            shapes = {"exact": (2 * um, 2 * un, 2 * uk),
                      "ragged": (2 * um + 1, 3 * un - 1, 2 * uk + 1)}
            for label, shape in shapes.items():
                for dtype in ("float32", "float64"):
                    gemms = ("np", "override") if dtype == "float64" \
                        else ("np", "upcast")
                    for layout in ("stacked", "block-major", "views"):
                        for gemm in gemms:
                            cases.append(pytest.param(
                                name, steps, shape, dtype, layout, gemm,
                                "sequential",
                                id=f"{name}-s{steps}-{label}-{dtype}-"
                                   f"{layout}-{gemm}"))
                    if steps == 3:
                        continue
                    runs = [("threads{}-{}".format(*next(threadings)), gemm)
                            for gemm in gemms]
                    if name in ("strassen222", "bini322"):
                        runs.append(("process", "np"))
                    if steps == 1:
                        runs.append(("batched", "np"))
                    for runner, gemm in runs:
                        cases.append(pytest.param(
                            name, steps, shape, dtype, "views", gemm,
                            runner,
                            id=f"{name}-s{steps}-{label}-{dtype}-"
                               f"{runner}-{gemm}"))
    # Over the budget: 3 * 600**2 float64 and 3 * 840**2 float32 blocks
    # exceed BLOCK_MAJOR_BYTES, so the default layout is views.
    for name, steps in (("strassen222", 1), ("bini322", 1),
                        ("strassen222", 2), ("bini322", 2)):
        for shape, dtype in (((600, 600, 600), "float64"),
                             ((601, 599, 603), "float64"),
                             ((840, 840, 840), "float32")):
            cases.append(pytest.param(
                name, steps, shape, dtype, "large", "np", "sequential",
                id=f"{name}-s{steps}-{'x'.join(map(str, shape))}-{dtype}"))
    return cases


def _copy_gemm(S, T):
    return np.matmul(S, T)


def _upcast_gemm(S, T):
    # Returns float64 for float32 blocks: the ops after the product must
    # combine this array, not its float32 copy in the arena.
    return np.matmul(S.astype(np.float64), T.astype(np.float64))


_GEMMS = {"np": None, "override": _copy_gemm, "upcast": _upcast_gemm}


def _runner(runner, alg, steps, gemm):
    """``run(A, B, cache)`` for one runner of the grid."""
    if runner == "sequential":
        return lambda A, B, cache: apa_matmul(
            A, B, alg, lam=1e-3, steps=steps, gemm=gemm, plan_cache=cache)
    if runner == "process":
        return lambda A, B, cache: process_apa_matmul(
            A, B, alg, workers=2, lam=1e-3, steps=steps, plan_cache=cache)
    if runner == "batched":
        return lambda A, B, cache: apa_matmul_batched(
            A, B, alg, lam=1e-3, plan_cache=cache)
    threads, strategy = runner.removeprefix("threads").split("-")
    return lambda A, B, cache: threaded_apa_matmul(
        A, B, alg, threads=int(threads), strategy=strategy, lam=1e-3,
        steps=steps, gemm=gemm, plan_cache=cache)


@pytest.mark.parametrize("name,steps,shape,dtype,layout,gemm,runner",
                         _bitwise_cases())
def test_plan_matches_interpreter_bitwise(name, steps, shape, dtype, layout,
                                          gemm, runner, monkeypatch):
    alg = _rule(name)
    if layout == "views":
        monkeypatch.setattr(memory_module, "BLOCK_MAJOR_BYTES", 0)
    elif layout == "block-major":
        monkeypatch.setattr(memory_module, "STACKED_BYTES", 0)
    gemm = _GEMMS[gemm]
    A, B = _operands(shape, dtype=np.dtype(dtype))
    cold = apa_matmul(A, B, alg, lam=1e-3, steps=steps, gemm=gemm,
                      plan_cache=False)
    if runner == "batched":
        # Each stack item must be the same product run alone.
        A2, B2 = _operands(shape, dtype=np.dtype(dtype), seed=8)
        cold = np.stack([cold, apa_matmul(A2, B2, alg, lam=1e-3,
                                          plan_cache=False)])
        A, B = np.stack([A, A2]), np.stack([B, B2])
    run = _runner(runner, alg, steps, gemm)
    cache = PlanCache()
    warm1 = run(A, B, cache)
    warm2 = run(A, B, cache)
    assert np.array_equal(cold, warm1)
    assert np.array_equal(warm1, warm2)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1
    if runner == "sequential":
        plan = cache.plan_for(alg, *A.shape, B.shape[1], A.dtype, 1e-3,
                              steps=steps)
        assert plan.layout == ("views" if layout == "large" else layout)
        assert plan.block_major == (layout in ("stacked", "block-major"))
    if name == _UNFED.name:
        # No product feeds C22: every runner leaves it zero.
        rows = required_padding(shape[0], 2, steps) // 2
        cols = required_padding(shape[2], 2, steps) // 2
        assert not warm1[..., rows:, cols:].any()


@pytest.mark.parametrize("layout", ["views", "block-major"])
@pytest.mark.parametrize("name,ops", [
    ("strassen222", 26), ("winograd222", 34), ("laderman333", 125),
    ("bini322", 60),
])
def test_leading_minus_one_folds_into_one_subtract(name, ops, layout,
                                                   monkeypatch):
    # -a0 + a1 is a1 - a0 in IEEE arithmetic: one op instead of a
    # negation plus an add, for every combination it opens (2 fewer ops
    # in strassen222, 3 in winograd222, 12 in laderman333; bini322's two
    # are followed by another -1, which no single op rounds alike).
    monkeypatch.setattr(memory_module, "STACKED_BYTES", 0)
    if layout == "views":
        monkeypatch.setattr(memory_module, "BLOCK_MAJOR_BYTES", 0)
    alg = get_algorithm(name)
    plan = PlanCache().plan_for(alg, 2 * alg.m, 2 * alg.n, 2 * alg.k,
                                np.float64, 1e-3)
    assert plan.layout == layout
    assert len(plan._tape.ops) == ops


@pytest.mark.parametrize("name,steps,dtype", [
    ("strassen222", 1, np.float64), ("bini322", 1, np.float32),
    ("strassen222", 2, np.float32), ("bini322", 2, np.float64),
])
def test_stacked_plan_calls_the_gemm_seam_per_product(name, steps, dtype):
    # A stacked plan runs a gemm= override on its per-product tape, so
    # the override still sees every sub-product: once each, 2-D, in
    # multiplication order (the interpreter's calls).
    alg = get_algorithm(name)
    shape = (2 * alg.m ** steps + 1, 2 * alg.n ** steps,
             2 * alg.k ** steps + 1)
    A, B = _operands(shape, dtype=dtype)

    def recorder(calls):
        def gemm(S, T):
            calls.append((S.copy(), T.copy()))
            return np.matmul(S, T)
        return gemm

    seen, expected = [], []
    cache = PlanCache()
    C = apa_matmul(A, B, alg, lam=1e-3, steps=steps, gemm=recorder(seen),
                   plan_cache=cache)
    cold = apa_matmul(A, B, alg, lam=1e-3, steps=steps,
                      gemm=recorder(expected), plan_cache=False)
    plan = cache.plan_for(alg, *shape[:2], shape[2], A.dtype, 1e-3,
                          steps=steps)
    assert plan.layout == "stacked"
    assert np.array_equal(C, cold)
    assert len(seen) == alg.rank ** steps == len(expected)
    for (S, T), (S0, T0) in zip(seen, expected):
        assert S.ndim == T.ndim == 2
        assert np.array_equal(S, S0) and np.array_equal(T, T0)


def test_stacked_plan_combines_an_upcast_product_uncast():
    # An override returning float64 for float32 blocks: the combinations
    # read the float64 products, not their float32 copies in the arena.
    alg = get_algorithm("bini322")
    A, B = _operands((24, 16, 20), dtype=np.float32)
    cache = PlanCache()
    C = apa_matmul(A, B, alg, lam=1e-3, gemm=_upcast_gemm, plan_cache=cache)
    assert cache.plan_for(alg, 24, 16, 20, A.dtype, 1e-3).layout == "stacked"
    assert np.array_equal(C, apa_matmul(A, B, alg, lam=1e-3,
                                        gemm=_upcast_gemm, plan_cache=False))
    cast = apa_matmul(A, B, alg, lam=1e-3, plan_cache=PlanCache(),
                      gemm=lambda S, T: _upcast_gemm(S, T).astype(S.dtype))
    assert not np.array_equal(C, cast)


def test_plan_reuse_is_bit_identical_across_many_calls():
    alg = get_algorithm("bini322")
    A, B = _operands((24, 16, 20), dtype=np.float32)
    cache = PlanCache()
    reference = apa_matmul(A, B, alg, plan_cache=False)
    results = [apa_matmul(A, B, alg, plan_cache=cache) for _ in range(5)]
    for C in results:
        assert np.array_equal(C, reference)
    assert cache.stats() == {
        "size": 1, "maxsize": 64, "hits": 4, "misses": 1, "evictions": 0,
    }


def test_plan_result_does_not_alias_the_arena():
    # The arena's C buffer is reused; the returned array must be a copy.
    alg = get_algorithm("strassen222")
    A, B = _operands((16, 16, 16))
    cache = PlanCache()
    C1 = apa_matmul(A, B, alg, plan_cache=cache)
    snapshot = C1.copy()
    apa_matmul(2 * A, B, alg, plan_cache=cache)
    assert np.array_equal(C1, snapshot)
    assert C1.base is None


def test_guarded_backend_plan_reuse_bit_identical():
    alg = get_algorithm("strassen222")
    A, B = _operands((32, 32, 32), dtype=np.float64, seed=3)

    interpreter = apa_matmul(A, B, alg, plan_cache=False)
    cache = PlanCache()
    guarded = GuardedBackend(APABackend(algorithm=alg, plan_cache=cache))
    out1 = guarded.matmul(A, B)
    out2 = guarded.matmul(A, B)
    assert np.array_equal(out1, interpreter)
    assert np.array_equal(out2, interpreter)
    assert guarded.violations == 0
    assert cache.stats()["hits"] >= 1


def test_custom_schedules_share_one_threaded_plan():
    # The schedule decides only where jobs run, not the tape: a custom
    # schedule, even one running the phases backwards, reuses the plan.
    alg = get_algorithm("bini322")
    A, B = _operands((25, 17, 19), dtype=np.float32, seed=3)
    forward = build_schedule(alg.rank, 2, "hybrid")
    backward = Schedule(forward.strategy, forward.rank, forward.threads,
                        forward.phases[::-1])
    cache = PlanCache()
    C1 = threaded_apa_matmul(A, B, alg, threads=2, schedule=forward,
                             plan_cache=cache)
    C2 = threaded_apa_matmul(A, B, alg, threads=2, schedule=backward,
                             plan_cache=cache)
    assert np.array_equal(C1, C2)
    assert np.array_equal(C1, apa_matmul(A, B, alg, plan_cache=False))
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_threaded_plan_matches_sequential_bitwise():
    alg = get_algorithm("bini322")
    A, B = _operands((17, 14, 10), dtype=np.float32, seed=11)
    sequential = apa_matmul(A, B, alg, plan_cache=False)
    cache = PlanCache()
    t1 = threaded_apa_matmul(A, B, alg, threads=3, plan_cache=cache)
    t2 = threaded_apa_matmul(A, B, alg, threads=3, plan_cache=cache)
    assert np.array_equal(t1, sequential)
    assert np.array_equal(t2, sequential)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


# ----------------------------------------------------------------------
# batched stacked mode on ragged shapes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(5, 7, 9), (3, 5, 4), (7, 3, 5)])
def test_batched_stacked_ragged_shapes(shape):
    # None of these dims divide bini322's (3,2,2) — every axis pads.
    alg = get_algorithm("bini322")
    rng = np.random.default_rng(0)
    batch = 4
    M, N, K = shape
    A = rng.standard_normal((batch, M, N))
    B = rng.standard_normal((batch, N, K))

    stacked = apa_matmul_batched(A, B, alg, mode="stacked")
    assert stacked.shape == (batch, M, K)
    looped = apa_matmul_batched(A, B, alg, mode="loop")
    np.testing.assert_allclose(stacked, looped, rtol=1e-9, atol=1e-9)

    exact = np.matmul(A, B)
    assert np.max(np.abs(stacked - exact)) / np.max(np.abs(exact)) < 1e-5


def test_batched_stacked_plan_reuse_bit_identical():
    alg = get_algorithm("strassen222")
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 9, 7)).astype(np.float32)
    B = rng.standard_normal((3, 7, 5)).astype(np.float32)

    cold = apa_matmul_batched(A, B, alg, plan_cache=False)
    cache = PlanCache()
    warm1 = apa_matmul_batched(A, B, alg, plan_cache=cache)
    warm2 = apa_matmul_batched(A, B, alg, plan_cache=cache)
    assert np.array_equal(cold, warm1)
    assert np.array_equal(warm1, warm2)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


# ----------------------------------------------------------------------
# the cache itself
# ----------------------------------------------------------------------


def test_plan_cache_lru_eviction_and_counters():
    alg = get_algorithm("strassen222")
    cache = PlanCache(maxsize=2)
    shapes = [(8, 8, 8), (16, 16, 16), (32, 32, 32)]
    for M, N, K in shapes:
        cache.plan_for(alg, M, N, K, np.float64, lam=1.0)
    stats = cache.stats()
    assert stats["size"] == 2
    assert stats["misses"] == 3
    assert stats["evictions"] == 1
    # The oldest entry was evicted; asking again rebuilds it.
    cache.plan_for(alg, 8, 8, 8, np.float64, lam=1.0)
    assert cache.stats()["misses"] == 4
    # The newest two were retained.
    cache.plan_for(alg, 32, 32, 32, np.float64, lam=1.0)
    assert cache.stats()["hits"] == 1


def test_plan_cache_event_log_instrumentation():
    alg = get_algorithm("strassen222")
    log = EventLog()
    cache = PlanCache(maxsize=1, log=log)
    cache.plan_for(alg, 8, 8, 8, np.float64, lam=1.0)
    cache.plan_for(alg, 16, 16, 16, np.float64, lam=1.0)
    assert log.count("plan-miss") == 2
    assert log.count("plan-evict") == 1


def test_plan_cache_clear_keeps_lifetime_counters():
    alg = get_algorithm("strassen222")
    cache = PlanCache()
    cache.plan_for(alg, 8, 8, 8, np.float64, lam=1.0)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["misses"] == 1


def test_plan_cache_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


def test_resolve_plan_cache_semantics():
    assert resolve_plan_cache(None) is default_plan_cache()
    assert resolve_plan_cache(False) is None
    mine = PlanCache()
    assert resolve_plan_cache(mine) is mine
    with pytest.raises(TypeError):
        resolve_plan_cache("yes please")


def test_configure_plan_cache_replaces_default():
    before = default_plan_cache()
    try:
        cache = configure_plan_cache(maxsize=3)
        assert default_plan_cache() is cache
        assert cache.maxsize == 3
    finally:
        configure_plan_cache()  # restore a fresh default-sized cache


# ----------------------------------------------------------------------
# the plan object
# ----------------------------------------------------------------------


def test_workspace_pooling_reuses_one_arena():
    alg = get_algorithm("strassen222")
    cache = PlanCache()
    A, B = _operands((16, 16, 16))
    plan = cache.plan_for(alg, 16, 16, 16, A.dtype, lam=1.0)
    plan.execute(A, B)
    plan.execute(A, B)
    plan.execute(A, B)
    assert plan.executions == 3
    assert plan.workspaces_built == 1


def _owned_bytes(ws):
    """Summed nbytes of the distinct allocations a workspace holds."""
    owners = {}
    for a in (*ws.arrays.values(), ws.Ap, ws.Bp, ws.C):
        if a is not None:
            owner = a if a.base is None else a.base
            owners[id(owner)] = owner
    return sum(o.nbytes for o in owners.values())


@pytest.mark.parametrize("name,shape,steps,dtype,layout", [
    ("strassen222", (16, 16, 16), 1, np.float64, True),
    ("bini322", (24, 16, 20), 2, np.float32, True),
    ("bini322", (64, 96, 10), 1, np.float32, True),
    ("strassen222", (16, 16, 16), 1, np.float64, False),
    ("bini322", (25, 17, 19), 2, np.float32, False),
    ("laderman333", (27, 27, 27), 1, np.float64, False),
    # Threaded plans: staging, output arena and scatter scratch only —
    # their job buffers are allocated per job call.
    ("strassen222", (16, 16, 16), 1, np.float64, "threaded"),
    ("bini322", (25, 17, 19), 2, np.float32, "threaded"),
    ("laderman333", (27, 27, 27), 1, np.float64, "threaded"),
    ("bini322", (37, 29, 41), 1, np.float64, "threaded"),
    # Stacked plans: r-deep S, T and P stacks at the last level.
    ("strassen222", (16, 16, 16), 1, np.float64, "stacked"),
    ("bini322", (24, 16, 20), 2, np.float32, "stacked"),
    ("bini322", (64, 96, 10), 1, np.float32, "stacked"),
    ("laderman333", (28, 26, 27), 1, np.float64, "stacked"),
])
def test_plan_estimate_prices_the_arena(name, shape, steps, dtype,
                                        layout, monkeypatch):
    # The estimate is exactly what one checked-out workspace allocates,
    # and the §3.3 model bounds it with the same staging terms.
    # ``layout``: True per-product block-major, False views, "stacked",
    # or a threaded plan.
    threaded = layout == "threaded"
    if layout is False:
        monkeypatch.setattr(memory_module, "BLOCK_MAJOR_BYTES", 0)
    elif layout is True:
        monkeypatch.setattr(memory_module, "STACKED_BYTES", 0)
    alg = get_algorithm(name)
    plan = PlanCache().plan_for(alg, *shape, dtype, lam=1e-2, steps=steps,
                                mode="threaded" if threaded
                                else "sequential")
    assert plan.block_major == (layout in (True, "stacked"))
    assert (plan.layout == "stacked") == (layout == "stacked")
    est = plan.estimate
    ws = plan.checkout()
    try:
        assert est.total == _owned_bytes(ws)
    finally:
        plan.release(ws)
    model = workspace_bytes(alg, *shape, steps=steps,
                            dtype_bytes=np.dtype(dtype).itemsize,
                            parallel=threaded)
    assert est.padded_inputs == model.padded_inputs
    assert est.padded_output == model.padded_output
    assert est.combination_buffers <= model.combination_buffers
    assert est.product_buffers <= model.product_buffers


def test_view_plans_without_padding_own_no_output_arena(monkeypatch):
    monkeypatch.setattr(memory_module, "BLOCK_MAJOR_BYTES", 0)
    alg = get_algorithm("strassen222")
    plan = PlanCache().plan_for(alg, 32, 32, 32, np.float64, lam=1.0)
    assert plan.estimate.padded_inputs == 0
    assert plan.estimate.padded_output == 0
    A, B = _operands((32, 32, 32))
    C = plan.execute(A, B)
    assert C.base is None and C.flags.c_contiguous
    assert np.array_equal(C, apa_matmul(A, B, alg, lam=1.0,
                                        plan_cache=False))


@pytest.mark.parametrize("name,shape,steps", [
    ("strassen222", (32, 32, 32), 1),
    ("bini322", (64, 96, 10), 1),
    ("bini322", (37, 29, 41), 2),
    ("laderman333", (27, 18, 36), 1),
])
def test_block_major_staging_ignores_operand_memory_order(name, shape,
                                                          steps):
    # Staging copies values into the arena, so transposed or strided
    # operands run the exact ops of their C-ordered copies.
    alg = get_algorithm(name)
    M, N, K = shape
    plan = PlanCache().plan_for(alg, M, N, K, np.float32, lam=1e-3,
                                steps=steps)
    assert plan.block_major
    gen = np.random.default_rng(1)
    A = gen.standard_normal((N, M)).astype(np.float32).T
    B = gen.standard_normal((N, 2 * K)).astype(np.float32)[:, ::2]
    Ac, Bc = np.ascontiguousarray(A), np.ascontiguousarray(B)
    C = plan.execute(A, B)
    assert np.array_equal(C, plan.execute(Ac, Bc))
    assert np.array_equal(C, apa_matmul(Ac, Bc, alg, lam=1e-3, steps=steps,
                                        plan_cache=False))


def test_concurrent_executions_never_share_an_arena():
    # More threads than cores hammer one block-major plan with a tiny
    # switch interval; a shared arena would mix operands between calls.
    alg = get_algorithm("bini322")
    shape = (48, 32, 40)
    plan = PlanCache().plan_for(alg, *shape, np.float64, lam=1e-3)
    assert plan.block_major
    threads = 4 * (os.cpu_count() or 1)
    operands = [_operands(shape, seed=s) for s in range(threads)]
    expected = [apa_matmul(A, B, alg, lam=1e-3, plan_cache=False)
                for A, B in operands]
    mismatches = []
    barrier = threading.Barrier(threads)

    def worker(t):
        A, B = operands[t]
        barrier.wait(timeout=30)
        for _ in range(40):
            if not np.array_equal(plan.execute(A, B), expected[t]):
                mismatches.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for th in pool:
            th.start()
        for th in pool:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in pool)
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []
    assert plan.executions == 40 * threads
    assert plan.workspaces_built <= threads


def test_plan_execute_validates_shapes():
    alg = get_algorithm("strassen222")
    cache = PlanCache()
    plan = cache.plan_for(alg, 16, 16, 16, np.float64, lam=1.0)
    A, B = _operands((8, 8, 8))
    with pytest.raises(ValueError):
        plan.execute(A, B)


def test_batched_plan_has_no_arena():
    alg = get_algorithm("strassen222")
    cache = PlanCache()
    plan = cache.plan_for(alg, 9, 7, 5, np.float64, lam=1.0, mode="batched")
    with pytest.raises(ValueError):
        plan.checkout()


def test_evaluate_memoization_returns_same_arrays():
    alg = get_algorithm("bini322")
    alg.clear_evaluation_cache()
    first = alg.evaluate(0.01, dtype=np.float32)
    second = alg.evaluate(0.01, dtype=np.float32)
    assert all(a is b for a, b in zip(first, second))
    assert not first[0].flags.writeable
    other = alg.evaluate(0.02, dtype=np.float32)
    assert other[0] is not first[0]
    alg.clear_evaluation_cache()
    assert alg.evaluate(0.01, dtype=np.float32)[0] is not first[0]


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------


def test_pool_is_persistent_and_resizes_on_change():
    shutdown_pool()
    base = pool_stats()
    p2 = get_pool(2)
    assert get_pool(2) is p2
    stats = pool_stats()
    assert stats["threads"] == 2
    assert stats["creates"] == base["creates"] + 1
    p3 = get_pool(3)
    assert p3 is not p2
    stats = pool_stats()
    assert stats["threads"] == 3
    assert stats["resizes"] == base["resizes"] + 1
    shutdown_pool()
    assert pool_stats()["threads"] == 0


def test_pool_rejects_bad_thread_count():
    with pytest.raises(ValueError):
        get_pool(0)
