"""Workspace accounting for fast matmul (memory is the other cost).

Fast algorithms trade flops for temporaries: one recursive step
materializes the ``S_i``/``T_i`` linear combinations and the ``M_i``
products.  This module prices the peak extra workspace of the executor's
write-once strategy so users can predict footprint before running —
padding included — and compare algorithms on memory as well as time.

Model of the sequential plan (:mod:`repro.core.plan`), per recursion
level:

- one ``S`` and one ``T`` combination slot and one product slot ``P``
  (the tape streams multiplications one at a time, and a gemm whose
  result initializes an output block writes there directly); a stacked
  plan (:func:`uses_stacked`) holds a second set, with ``r``-deep
  ``S``, ``T`` and ``P`` stacks at the last level for its one stacked
  gemm, and a scratch buffer per set;
- one scratch buffer for scaled terms, shared by every level and sized
  by the largest block;
- staged operands and output: block-major plans (the small ones,
  :func:`uses_block_major`) always copy ``A``, ``B`` and ``C`` into
  padded arenas; view plans copy only ragged operands, and write
  unpadded products straight into the caller's fresh result.

The threaded executor keeps all ``r`` products alive (they are combined
after the pool drains), which :func:`workspace_bytes` reports under
``parallel=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.spec import AlgorithmLike
from repro.linalg.blocking import required_padding

__all__ = [
    "BLOCK_MAJOR_BYTES",
    "STACKED_BYTES",
    "WorkspaceEstimate",
    "stack_bytes",
    "uses_block_major",
    "uses_stacked",
    "workspace_bytes",
]

#: Sequential plans whose staged ``A + B + C`` (padded) take at most this
#: many bytes run block-major.  Contiguous blocks make every op cheaper
#: (a 16x16 float64 ``np.add`` takes 1.1 us on strided views against
#: 0.40 us on contiguous blocks, one Xeon core) and need no per-call
#: binding; the price is one staging copy per operand, one copy-out and
#: the staged arenas.  Timed per execute (docs/ARCHITECTURE.md),
#: block-major is 2.5-2.8x faster at 27 KiB, still 8-13% faster at
#: 6.75 MiB and at parity near 12-13 MiB; the budget sits below that
#: crossover.
BLOCK_MAJOR_BYTES = 8 << 20

#: Block-major plans whose last-level ``S``, ``T`` and ``P`` stacks
#: (:func:`stack_bytes`) take at most this many bytes run each
#: last-level group of ``r`` products as one ``np.matmul`` over the
#: stacks.  Small products pay per numpy call, not per flop: seven
#: 16x16 float64 products take about 22 us as separate calls and 5 us
#: as one stacked call.  The price is a copy of every lone unit term
#: into its slot, every product combined out of the stack, and stacks
#: that stay in cache only while small.  Timed per execute against the
#: per-product block-major tape (2-core Xeon, OpenBLAS 0.3.31, one
#: thread; median of paired ratios, warm loop / after an 8 MiB cache
#: flush), stacking is 0.69/0.85 at 2.6 KiB (strassen222 8^3 float64),
#: 0.75/0.89 at 42 KiB (strassen222 32^3), 0.84/0.96 at 175 KiB
#: (laderman333 54^3), 0.95/1.02 at 168 KiB (strassen222 64^3) and
#: 0.93/0.97 at 210 KiB (bini322 96^3 float32); it loses cold from
#: 328 KiB (bini322 120^3: 0.95/1.03) and both ways from 672 KiB
#: (strassen222 128^3: 1.17/1.25).  A second sweep of 3000 pairs
#: gave 0.82/0.975 at 168 KiB and 0.90/1.03 at 210 KiB, the cold
#: medians of ten interleaved subsets spanning 0.94-1.01 and
#: 0.99-1.09: after a flush, stacking is at parity, not faster, near
#: the budget.  The budget keeps the 210 KiB hotpath product stacked.
STACKED_BYTES = 256 << 10


def uses_block_major(algorithm: AlgorithmLike, M: int, N: int, K: int,
                     steps: int = 1, dtype_bytes: int = 4) -> bool:
    """Whether the sequential plan for this product stages block-major.

    Only within :data:`BLOCK_MAJOR_BYTES`, and only when every gemm of
    the last step is a true matrix product: numpy sends a product with a
    unit dimension to ``gemv``, whose rounding depends on the operand
    strides, so those keep the interpreter's strided views.
    """
    m, n, k = algorithm.m, algorithm.n, algorithm.k
    Mp = required_padding(M, m, steps)
    Np = required_padding(N, n, steps)
    Kp = required_padding(K, k, steps)
    staged = (Mp * Np + Np * Kp + Mp * Kp) * dtype_bytes
    finest = min(Mp // m**steps, Np // n**steps, Kp // k**steps)
    return staged <= BLOCK_MAJOR_BYTES and finest > 1


def stack_bytes(algorithm: AlgorithmLike, M: int, N: int, K: int,
                steps: int = 1, dtype_bytes: int = 4) -> int:
    """Bytes of the last level's ``r``-deep ``S``, ``T`` and ``P`` stacks."""
    m, n, k = algorithm.m, algorithm.n, algorithm.k
    bm = required_padding(M, m, steps) // m**steps
    bn = required_padding(N, n, steps) // n**steps
    bk = required_padding(K, k, steps) // k**steps
    return algorithm.rank * (bm * bn + bn * bk + bm * bk) * dtype_bytes


def uses_stacked(algorithm: AlgorithmLike, M: int, N: int, K: int,
                 steps: int = 1, dtype_bytes: int = 4) -> bool:
    """Whether the sequential plan for this product runs one stacked gemm
    per last-level group: block-major, with stacks within
    :data:`STACKED_BYTES`."""
    return (uses_block_major(algorithm, M, N, K, steps=steps,
                             dtype_bytes=dtype_bytes)
            and stack_bytes(algorithm, M, N, K, steps=steps,
                            dtype_bytes=dtype_bytes) <= STACKED_BYTES)


@dataclass(frozen=True)
class WorkspaceEstimate:
    """Peak extra bytes beyond the inputs and the cropped output."""

    padded_inputs: int
    combination_buffers: int
    product_buffers: int
    padded_output: int

    @property
    def total(self) -> int:
        return (self.padded_inputs + self.combination_buffers
                + self.product_buffers + self.padded_output)

    def overhead_vs_classical(self, M: int, N: int, K: int,
                              dtype_bytes: int = 4) -> float:
        """Extra workspace as a multiple of the classical footprint
        (inputs + output)."""
        classical = (M * N + N * K + M * K) * dtype_bytes
        return self.total / classical


def workspace_bytes(
    algorithm: AlgorithmLike,
    M: int,
    N: int,
    K: int,
    steps: int = 1,
    dtype_bytes: int = 4,
    parallel: bool = False,
) -> WorkspaceEstimate:
    """Peak workspace of one fast multiplication.

    ``parallel=True`` models the threaded executor (all ``r`` products
    held simultaneously); otherwise the streaming sequential plan, in
    the arena layout :func:`uses_block_major` and :func:`uses_stacked`
    pick for it.  Multi-step
    recursion adds the geometric tail of per-level buffers (dominated by
    the first level).  For a sequential plan this is an upper bound of
    :attr:`repro.core.plan.ExecutionPlan.estimate`, which prices the
    slots its compiled tape actually uses; the staging terms agree.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    m, n, k = algorithm.m, algorithm.n, algorithm.k
    r = algorithm.rank

    Mp = required_padding(M, m, steps)
    Np = required_padding(N, n, steps)
    Kp = required_padding(K, k, steps)
    block_major = not parallel and uses_block_major(
        algorithm, M, N, K, steps=steps, dtype_bytes=dtype_bytes)
    stacked = not parallel and uses_stacked(
        algorithm, M, N, K, steps=steps, dtype_bytes=dtype_bytes)
    padded_inputs = 0
    if block_major or (Mp, Np) != (M, N):
        padded_inputs += Mp * Np * dtype_bytes
    if block_major or (Np, Kp) != (N, K):
        padded_inputs += Np * Kp * dtype_bytes

    combo = 0
    products = 0
    scratch = 0
    bm, bn, bk = Mp, Np, Kp
    for level in range(steps):
        bm, bn, bk = bm // m, bn // n, bk // k
        s_buf = bm * bn * dtype_bytes
        t_buf = bn * bk * dtype_bytes
        p_buf = bm * bk * dtype_bytes
        combo += s_buf + t_buf
        if level == 0 and parallel:
            # the pool holds every product until output combination
            products += r * p_buf
        else:
            products += p_buf
            scratch = max(scratch, s_buf, t_buf, p_buf)
        if stacked:
            # The stacked tape's own slots, beside the per-product ones
            # a gemm= override runs on: r-deep stacks at the last level.
            depth = r if level == steps - 1 else 1
            combo += depth * (s_buf + t_buf)
            products += depth * p_buf

    padded_output = 0
    if block_major or (Mp, Kp) != (M, K):
        padded_output = Mp * Kp * dtype_bytes
    return WorkspaceEstimate(
        padded_inputs=padded_inputs,
        combination_buffers=combo + (2 if stacked else 1) * scratch,
        product_buffers=products,
        padded_output=padded_output,
    )
