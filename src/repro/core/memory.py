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
  result initializes an output block writes there directly);
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
    "WorkspaceEstimate",
    "uses_block_major",
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
    the arena layout :func:`uses_block_major` picks for it.  Multi-step
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

    padded_output = 0
    if block_major or (Mp, Kp) != (M, K):
        padded_output = Mp * Kp * dtype_bytes
    return WorkspaceEstimate(
        padded_inputs=padded_inputs,
        combination_buffers=combo + scratch,
        product_buffers=products,
        padded_output=padded_output,
    )
