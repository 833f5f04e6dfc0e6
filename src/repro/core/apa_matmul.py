"""Generic recursive executor for bilinear (APA and exact) algorithms.

This is the runtime counterpart of the paper's code-generation framework
(§3.2): given an algorithm's numeric coefficient matrices ``(U, V, W)``
evaluated at a concrete ``lambda``, one recursive step computes

    S_i = sum_p U[p, i] * A_p        (linear combinations of A blocks)
    T_i = sum_s V[s, i] * B_s        (linear combinations of B blocks)
    M_i = S_i @ T_i                  (gemm, or recursion)
    C_q = sum_i W[q, i] * M_i        (output combinations)

Implementation follows the "write-once" strategy the paper found most
memory-efficient: each ``S_i``/``T_i`` is materialized exactly once (the
first term initializes the buffer via ``np.multiply(..., out=...)``,
subsequent terms accumulate in place), and output blocks are accumulated
in place into views of the padded result, so no block is written twice
before being complete.  Single-term combinations with coefficient 1 are
passed to gemm as *views* — no copy at all.

Operands of any shape are supported through zero-padding to the next
multiple of the rule dims per recursion level (see
:mod:`repro.linalg.blocking`); the result is cropped back.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.spec import AlgorithmLike
from repro.core.engine import default_engine
from repro.core.lam import optimal_lambda, precision_bits
from repro.linalg.blocking import BlockPartition, split_blocks
from repro.types import GemmFn

__all__ = ["apa_matmul", "apa_matmul_nonstationary", "linear_combination"]

#: The process-wide engine; bound once — it is never replaced.
_ENGINE = default_engine()


def linear_combination(
    blocks: list[np.ndarray],
    coeffs: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Write-once linear combination ``sum_j coeffs[j] * blocks[j]``.

    Zero coefficients are skipped.  When the combination is a single block
    with coefficient 1 and no ``out`` buffer is supplied, the block itself
    (a view) is returned — callers must treat the result as read-only.
    """
    terms = [(c, blk) for c, blk in zip(coeffs, blocks) if c != 0]
    if not terms:
        if out is None:
            return np.zeros_like(blocks[0])
        out[...] = 0
        return out
    if out is None:
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        out = np.empty_like(blocks[0])
    first_c, first_b = terms[0]
    if first_c == 1:
        np.copyto(out, first_b)
    else:
        np.multiply(first_b, first_c, out=out)
    buf = None
    for c, blk in terms[1:]:
        if c == 1:
            out += blk
        elif c == -1:
            out -= blk
        else:
            # out += c * blk without allocating a fresh temporary each term
            if buf is None:
                buf = np.empty_like(out)
            np.multiply(blk, c, out=buf)
            out += buf
    return out


def default_lambda(algorithm: AlgorithmLike, dtype_a, dtype_b,
                   d: int | None, steps: int) -> float:
    """The theory-optimal ``lam`` for operands of these dtypes (``d``
    precision bits, inferred from the promoted dtype when ``None``)."""
    if d is None:
        dtype = np.result_type(dtype_a, dtype_b)
        d = precision_bits(dtype) if dtype.kind == "f" else 52
    return optimal_lambda(algorithm, d=d, steps=steps)


def _flatten_blocks(X: np.ndarray, rows: int, cols: int) -> list[np.ndarray]:
    grid = split_blocks(X, rows, cols)
    return [grid[i][j] for i in range(rows) for j in range(cols)]


def apa_matmul(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: AlgorithmLike | str,
    lam: float | None = None,
    steps: int | None = None,
    gemm: GemmFn | None = None,
    d: int | None = None,
    plan_cache=None,
) -> np.ndarray:
    """Multiply ``A @ B`` with a catalogued algorithm.

    A thin shim over :meth:`repro.core.engine.ExecutionEngine.sequential`
    — the engine owns tracing and dispatch (plan fast path vs per-call
    interpreter), and an active
    :func:`~repro.core.config.execution_context` supplies any parameter
    left unset here.  Results are bit-identical to the pre-engine entry
    point (``tests/test_engine.py`` pins it).

    Parameters
    ----------
    A, B:
        2-D arrays with compatible inner dimension (any float dtype; both
        are used as-is, so pass float32 for the paper's single-precision
        setting).
    algorithm:
        An :class:`~repro.algorithms.spec.AlgorithmLike` or catalog name.
        Surrogates are dispatched to
        :func:`repro.core.surrogate.surrogate_matmul`.
    lam:
        APA parameter; defaults to the theory optimum for the operand
        dtype (``optimal_lambda``).  Ignored by exact algorithms.
    steps:
        Recursive levels of the rule (default 1); every level multiplies
        the flop saving and adds ``phi`` to the roundoff exponent.
    gemm:
        Base-case multiply, defaulting to ``np.matmul``.  Injecting a
        custom callable is how the fault injectors and the parallel
        executor hook the sub-products.
    d:
        Precision bits used for the default ``lam``; inferred from the
        operand dtype when omitted.
    plan_cache:
        ``None`` (default) routes eligible calls through the process-wide
        :class:`~repro.core.plan.PlanCache` — repeated identical
        ``(algorithm, shape, dtype, lam, steps)`` calls then reuse one
        precomputed :class:`~repro.core.plan.ExecutionPlan` and its
        pooled workspace arena.  Pass a :class:`PlanCache` to use a
        private cache, or ``False`` to force the per-call interpreter
        (the pre-plan behavior).  Both paths are bit-identical.

    Returns
    -------
    The ``(A.shape[0], B.shape[1])`` product array, same dtype as the
    promoted operand dtype.
    """
    return _ENGINE.sequential(A, B, algorithm, lam, steps, gemm, d,
                              plan_cache)


def _apa_matmul_impl(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: AlgorithmLike | str,
    lam: float | None,
    steps: int,
    gemm: GemmFn | None,
    d: int | None,
) -> np.ndarray:
    """Validate, then run the per-call interpreter (or a surrogate).

    The engine's sequential lane decides between this and a cached
    plan; it sends here only what the plan path does not run.
    """
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("apa_matmul expects 2-D operands")
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dims mismatch: {A.shape} @ {B.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lam is not None and (not math.isfinite(lam) or lam <= 0):
        raise ValueError(f"lam must be finite and > 0, got {lam!r}")

    if algorithm.is_surrogate:
        from repro.core.surrogate import surrogate_matmul

        return surrogate_matmul(A, B, algorithm, lam=lam, steps=steps, d=d)

    if lam is None:
        lam = default_lambda(algorithm, A.dtype, B.dtype, d, steps)

    if gemm is None:
        gemm = np.matmul

    m, n, k = algorithm.m, algorithm.n, algorithm.k
    plan = BlockPartition(
        m, n, k, rows_a=A.shape[0], cols_a=A.shape[1], cols_b=B.shape[1], steps=steps
    )
    Ap, Bp = plan.prepare(A, B)

    dtype = np.result_type(Ap.dtype, Bp.dtype)
    Un, Vn, Wn = algorithm.evaluate(lam, dtype=dtype)
    r = algorithm.rank

    def recurse(Ab: np.ndarray, Bb: np.ndarray, level: int) -> np.ndarray:
        if level == 0:
            return gemm(Ab, Bb)
        a_blocks = _flatten_blocks(Ab, m, n)
        b_blocks = _flatten_blocks(Bb, n, k)
        C = np.zeros((Ab.shape[0] // m * m, Bb.shape[1] // k * k), dtype=dtype)
        c_blocks = _flatten_blocks(C, m, k)
        initialized = [False] * len(c_blocks)
        buf = None
        for i in range(r):
            S = linear_combination(a_blocks, Un[:, i])
            T = linear_combination(b_blocks, Vn[:, i])
            M = recurse(S, T, level - 1)
            for q in range(len(c_blocks)):
                w = Wn[q, i]
                if w == 0:
                    continue
                target = c_blocks[q]
                if not initialized[q]:
                    if w == 1:
                        np.copyto(target, M)
                    else:
                        np.multiply(M, w, out=target)
                    initialized[q] = True
                elif w == 1:
                    target += M
                elif w == -1:
                    target -= M
                else:
                    if buf is None:
                        buf = np.empty_like(target)
                    np.multiply(M, w, out=buf)
                    target += buf
        return C

    C_padded = recurse(Ap, Bp, steps)
    return np.ascontiguousarray(plan.crop(C_padded))


def apa_matmul_nonstationary(
    A: np.ndarray,
    B: np.ndarray,
    algorithms: list[AlgorithmLike | str],
    lam: float | None = None,
    gemm: GemmFn | None = None,
    d: int | None = None,
    plan_cache=None,
    threads: int | None = None,
    strategy: str | None = None,
    guarded: bool | None = None,
) -> np.ndarray:
    """Uniform non-stationary recursion (paper §6): one algorithm per level.

    ``algorithms[0]`` is applied at the outermost level, ``algorithms[1]``
    to its sub-products, and so on; the innermost products call gemm.
    Useful for matching different aspect ratios across levels or pairing a
    low-phi rule outside with a high-speedup rule inside.

    ``lam`` applies to every APA level (pass ``None`` for the theory
    optimum computed from the *combined* phi, which is the sum over
    levels as each level multiplies intermediate magnitudes).

    A shim over :meth:`repro.core.engine.ExecutionEngine.nonstationary`,
    which closed this entry point's historical feature gaps: every level
    now resolves ``plan_cache`` consistently (``None`` process default /
    ``False`` interpreter / private :class:`~repro.core.plan.PlanCache`),
    ``threads > 1`` runs the *outer* level on the §3.2 threaded executor
    (``strategy`` selects its schedule), and ``guarded=True`` wraps the
    whole recursion in the
    :class:`~repro.robustness.guard.GuardedBackend` health checks.
    """
    return _ENGINE.nonstationary(
        A, B, algorithms, lam=lam, gemm=gemm, d=d, plan_cache=plan_cache,
        threads=threads, strategy=strategy, guarded=guarded)
