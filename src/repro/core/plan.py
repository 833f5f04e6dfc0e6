"""Cached execution plans compiled to op tapes (the one execution core).

The interpreter in :mod:`repro.core.apa_matmul` is correct but pays per
call for work that depends only on ``(algorithm, shape, dtype, lambda,
steps)``: building the :class:`~repro.linalg.blocking.BlockPartition`,
evaluating the Laurent coefficients at ``lambda``, scanning their zero
patterns, allocating every buffer, and walking the recursion in Python.
A training loop issues thousands of calls with the *same* key per epoch
(each Dense layer's forward and two backward products have fixed
shapes), so an :class:`ExecutionPlan` precomputes all of it once:

- the block partition and padded dims;
- the numeric ``(Un, Vn, Wn)`` (via the spec's memoized ``evaluate``)
  and per-multiplication nonzero term lists;
- an **op tape**: the paper's §3 straight-line program — write-once
  combinations, ``r`` gemms, output combinations — unrolled over every
  recursion step into flat tuples of ``(fn, args)`` numpy calls;
- pooled workspace arenas the tape is bound to.

Every runner executes that tape.  A **threaded** plan (the thread and
process runners of :mod:`repro.parallel`, which own the §3.2 schedule)
is lowered to one *job* per outer multiplication — ``S_i``/``T_i``, then
``M_i`` with every inner step unrolled, into buffers allocated per job
call — plus one *scatter* segment that combines the ``r`` products into
``C``.  A **batched** plan's tape is bound to stacks of matrices, so
every gemm op is a batched gemm.

Lowering keeps the interpreter's arithmetic, term order and dtype
exactly, so results are bit-identical (for C-ordered operands: BLAS
picks its kernels by memory order); it only removes work around the
arithmetic:

- a two-term combination is one ``np.add``/``np.subtract`` into its
  buffer instead of a copy plus an in-place update (``-a0 + a1``
  included: IEEE defines ``a1 - a0`` as ``a1 + (-a0)``);
- each gemm writes straight into the first output block it initializes
  with coefficient 1 (otherwise into the level's product slot ``P``),
  and the remaining output terms of that product follow it;
- a single coefficient-1 term is never copied: the next level (or the
  gemm) reads the block itself, at every recursion level.

Three arena layouts for sequential plans, chosen by size:

- **stacked** (block-major, with the last level's ``r``-deep ``S``,
  ``T`` and ``P`` stacks within
  :data:`repro.core.memory.STACKED_BYTES`, see
  :func:`~repro.core.memory.uses_stacked`): as block-major, but each
  last-level group of ``r`` products is one gemm over the stacks, so
  a small product pays for one numpy call instead of ``r``;
- **block-major** (staged ``A + B + C`` within
  :data:`repro.core.memory.BLOCK_MAJOR_BYTES`, see
  :func:`~repro.core.memory.uses_block_major`):
  the operands are copied once each (box by box when ragged) into
  arenas stored block by block, recursively, so every tape operand —
  down to the gemm operands of the last step — is a contiguous block
  bound once per workspace; the result is copied out of its arena into
  a fresh array;
- **views** (larger plans, and every threaded or batched plan): level-0
  operands stay zero-copy views of the caller's arrays (padded arena
  copies only for ragged shapes), re-sliced per call from the tape's
  precomputed slices; unpadded products are written straight into a
  fresh output array.

Either way the caller gets a fresh array that aliases no arena.
Workspaces are checked out per call from a small free list, so one plan
serves concurrent callers without aliasing.  Plans are acquired through
a bounded, thread-safe LRU :class:`PlanCache`; the process-wide default
cache is what :func:`repro.core.apa_matmul.apa_matmul` and friends use
unless told otherwise.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.algorithms.spec import AlgorithmLike
from repro.core.memory import (
    WorkspaceEstimate,
    uses_block_major,
    uses_stacked,
)
from repro.linalg.blocking import BlockPartition
from repro.obs import tracer as _obs_tracer
from repro.robustness.events import EventLog
from repro.types import GemmFn

__all__ = [
    "PlanKey",
    "ExecutionPlan",
    "PlanCache",
    "default_plan_cache",
    "configure_plan_cache",
    "resolve_plan_cache",
    "term_lists",
]

#: Execution modes a plan can be built for.
PLAN_MODES = ("sequential", "threaded", "batched")

_matmul = np.matmul
#: Block copies are ``out[...] = src``: the same copy as ``np.copyto``
#: without its Python dispatch wrapper (0.24 against 0.84 us for a 16x16
#: float64 block).
_setitem = operator.setitem


@dataclass(frozen=True)
class PlanKey:
    """Everything that determines a plan's precomputed state.

    ``alg_id`` is the ``id()`` of the algorithm object: catalog entries
    are singletons (``get_algorithm`` memoizes), and including the
    identity means two distinct objects that happen to share a name can
    never alias each other's coefficient tables.
    """

    algorithm: str
    alg_id: int
    rows_a: int
    cols_a: int
    cols_b: int
    dtype: str
    lam: float
    steps: int
    mode: str


def term_lists(
    Un: np.ndarray, Vn: np.ndarray, Wn: np.ndarray
) -> tuple[tuple, tuple, tuple]:
    """Nonzero ``(index, coeff)`` lists per multiplication.

    ``s_terms[i]``/``t_terms[i]`` hold the nonzero ``(block, coeff)``
    pairs of column ``i`` of ``Un``/``Vn``; ``w_terms[i]`` the nonzero
    ``(output_block, coeff)`` pairs of column ``i`` of ``Wn``.
    Coefficients stay numpy scalars of the evaluated dtype, so the
    combination arithmetic is bitwise identical to indexing the columns.
    """
    r = Un.shape[1]
    s_terms = tuple(
        tuple((p, Un[p, i]) for p in range(Un.shape[0]) if Un[p, i] != 0)
        for i in range(r)
    )
    t_terms = tuple(
        tuple((p, Vn[p, i]) for p in range(Vn.shape[0]) if Vn[p, i] != 0)
        for i in range(r)
    )
    w_terms = tuple(
        tuple((q, Wn[q, i]) for q in range(Wn.shape[0]) if Wn[q, i] != 0)
        for i in range(r)
    )
    return s_terms, t_terms, w_terms


# ----------------------------------------------------------------------
# the op tape
# ----------------------------------------------------------------------


class _Tape:
    """A compiled op sequence plus the buffers it addresses.

    ``ops`` is a tuple of ``(fn, args)``; each arg is either a 0-d
    coefficient array or an address ``(buffer, index)`` naming the block
    ``arrays[buffer][index]``.  ``buffers`` maps every buffer name the
    ops use to its array shape: roots (``"A"``, ``"B"``, ``"C"``, a
    job's product ``"M"``, the scatter's products ``("M", i)``), the
    per-level combination and product slots ``("S"|"T"|"P", level)``
    (``r``-deep stacks at a stacked last level), and scratch ``("X",
    *shape)`` views that share one allocation.  ``reads`` maps the index
    of each gemm op to the ``(op index, arg positions)`` of the later
    ops that read its product (not kept for stacked gemm ops, which no
    ``gemm=`` override runs).
    """

    __slots__ = ("ops", "buffers", "reads")

    def __init__(self, ops: tuple, buffers: dict, reads: dict) -> None:
        self.ops = ops
        self.buffers = buffers
        self.reads = reads

    def bind(self, arrays: dict, lead: tuple = ()) -> list:
        """Resolve every address against concrete buffers.

        ``lead`` prefixes every index: ``(Ellipsis,)`` binds a views
        tape to stacks of matrices, so each op runs over the stack.
        """
        return [
            (fn, tuple([arrays[a[0]][lead + a[1]] if isinstance(a, tuple)
                        else a for a in args]))
            for fn, args in self.ops
        ]

    def allocate(self, dtype: np.dtype, roots: bool,
                 batch: tuple = ()) -> dict:
        """Fresh slot and scratch buffers (zeroed roots only if asked).

        ``batch`` prefixes every shape (see :meth:`bind`).
        """
        arrays = {}
        scratch = np.empty(
            math.prod(batch) * _scratch_elements(self.buffers), dtype=dtype)
        for name, shape in self.buffers.items():
            shape = batch + shape
            if name[0] == "X":
                arrays[name] = scratch[:math.prod(shape)].reshape(shape)
            elif name[0] in ("S", "T", "P"):
                arrays[name] = np.empty(shape, dtype=dtype)
            elif roots:
                # Padding margins are written once here and never again.
                arrays[name] = np.zeros(shape, dtype=dtype)
        return arrays


def _scratch_elements(buffers: dict) -> int:
    return max((math.prod(s) for n, s in buffers.items() if n[0] == "X"),
               default=0)


def _run(ops: list, gemm: GemmFn | None, reads: dict) -> None:
    """Execute a bound tape: one numpy call per op.

    A ``gemm`` override runs each product as ``out[...] = gemm(S, T)``.
    When the override returns another dtype than the arena's (a fault
    that adds float64 noise, say), the ops that read the product get the
    returned array itself, as the interpreter combines it.  (Stacked
    tapes never run here: a stacked plan runs an override on its
    per-product tape.)
    """
    if gemm is None:
        for fn, args in ops:
            fn(*args)
        return
    raw: dict = {}
    for i, (fn, args) in enumerate(ops):
        if raw and i in raw:
            positions, M = raw.pop(i)
            args = tuple(M if p in positions else a
                         for p, a in enumerate(args))
        if fn is _matmul:
            x, y, out = args
            M = gemm(x, y)
            out[...] = M
            if M.dtype != out.dtype:
                for j, positions in reads[i]:
                    raw[j] = (positions, M)
        else:
            fn(*args)


def _compile(plan: ExecutionPlan, layout: str = "views"):
    """Lower a plan, every step unrolled.

    Mirrors the interpreter term for term: per multiplication the ``S``
    and ``T`` combinations, the product (a gemm, or the next level's
    ops), then its output terms in block order.  Output blocks no
    multiplication feeds are zeroed last.  A ``"stacked"`` layout
    regroups each last-level group of ``r`` products: every ``S_i`` and
    ``T_i`` is written into slot ``i`` of a stack, one gemm op multiplies
    the stacks, and the output blocks are combined from the product
    stack in multiplication order.  A sequential or batched plan is one
    :class:`_Tape`.  A threaded plan is ``(jobs, scatter)``: one
    :class:`_Job` per outer multiplication, and a tape that combines the
    products, roots ``("M", i)``, into ``C`` in multiplication order.
    """
    part = plan.partition
    m, n, k = part.m, part.n, part.k
    steps = part.steps
    Mp, Np, Kp = part.padded_rows_a, part.padded_cols_a, part.padded_cols_b
    block_major = layout != "views"
    buffers: dict = {}
    ops: list = []
    reads: dict = {}
    # Coefficients are bound as 0-d arrays of the plan dtype: the same
    # bits as numpy scalars, and cheaper ufunc arguments.
    coeff = {}

    def const(c):
        if c not in coeff:
            coeff[c] = np.array(c, dtype=plan.dtype)
        return coeff[c]

    zero = const(0)

    def root(name, rows, cols, rr, rc, depth):
        """Address of a whole buffer, registering its shape."""
        if block_major:
            buffers[name] = (rr, rc) * depth + (rows // rr**depth,
                                                cols // rc**depth)
            return (name, ())
        buffers[name] = (rows, cols)
        return (name, (slice(0, rows), slice(0, cols)))

    def stack(name, rows, cols):
        """Slot addresses of an ``r``-deep stack of blocks."""
        buffers[name] = (plan.rank, rows, cols)
        return [(name, (i,)) for i in range(plan.rank)]

    def children(addr, rows, cols):
        name, idx = addr
        if block_major:
            return [(name, idx + (i, j))
                    for i in range(rows) for j in range(cols)]
        rs, cs = idx
        h = (rs.stop - rs.start) // rows
        w = (cs.stop - cs.start) // cols
        return [(name, (slice(rs.start + i * h, rs.start + (i + 1) * h),
                        slice(cs.start + j * w, cs.start + (j + 1) * w)))
                for i in range(rows) for j in range(cols)]

    def scratch(addr):
        name, idx = addr
        if block_major:
            shape = buffers[name][len(idx):]
        else:
            shape = tuple(s.stop - s.start for s in idx)
        buffers[("X",) + shape] = shape
        return (("X",) + shape, ())

    def emit(fn, *args):
        ops.append((fn, args))

    def accumulate(out, src, c):
        """``out += c * src``, the interpreter's in-place update."""
        if c == 1:
            emit(np.add, out, src, out)
        elif c == -1:
            emit(np.subtract, out, src, out)
        else:
            scr = scratch(out)
            emit(np.multiply, src, const(c), scr)
            emit(np.add, out, scr, out)

    def combine(terms, blocks, slot, copy_unit=False):
        """Write-once combination; a lone unit term is the block itself
        (copied into ``slot()`` when ``copy_unit``)."""
        if len(terms) == 1 and terms[0][1] == 1:
            if not copy_unit:
                return blocks[terms[0][0]]
            out = slot()
            emit(_setitem, out, Ellipsis, blocks[terms[0][0]])
            return out
        out = slot()
        if not terms:
            emit(_setitem, out, Ellipsis, zero)
            return out
        (i0, c0), rest = terms[0], terms[1:]
        if rest and (c0 == 1 or (c0 == -1 and rest[0][1] != -1)):
            # The first update fused into the copy: a0 + c1*a1 (or
            # c1*a1 - a0, as IEEE defines -a0 + x) is one rounding either
            # way.
            (i1, c1), rest = rest[0], rest[1:]
            if c1 in (1, -1):
                second = blocks[i1]
            else:
                second = scratch(out)
                emit(np.multiply, blocks[i1], const(c1), second)
            if c0 == -1:
                emit(np.subtract, second, blocks[i0], out)
            else:
                emit(np.subtract if c1 == -1 else np.add,
                     blocks[i0], second, out)
        else:
            emit(np.multiply, blocks[i0], const(c0), out)
        for idx, c in rest:
            accumulate(out, blocks[idx], c)
        return out

    def block(lvl):
        """Block dims at level ``lvl`` and the steps left below it."""
        return (Mp // m ** (lvl + 1), Np // n ** (lvl + 1),
                Kp // k ** (lvl + 1), steps - lvl - 1)

    def operands(lvl, i, a_blocks, b_blocks):
        bm, bn, bk, depth = block(lvl)
        return (combine(plan.s_terms[i], a_blocks,
                        lambda: root(("S", lvl), bm, bn, m, n, depth)),
                combine(plan.t_terms[i], b_blocks,
                        lambda: root(("T", lvl), bn, bk, n, k, depth)))

    def product(lvl, S, T, M):
        if lvl == steps - 1:
            emit(_matmul, S, T, M)
        else:
            level(lvl + 1, S, T, M)

    def scatter(terms, M, c_blocks, written, skip=None):
        for q, w in terms:
            if q == skip:
                continue
            if written[q]:
                accumulate(c_blocks[q], M, w)
            elif w == 1:
                emit(_setitem, c_blocks[q], Ellipsis, M)
            else:
                emit(np.multiply, M, const(w), c_blocks[q])
            written[q] = True

    def zero_unfed(c_blocks, written):
        # Output blocks no multiplication feeds (possible for padded
        # partitions of degenerate rules) must not leak stale memory.
        for q, done in enumerate(written):
            if not done:
                emit(_setitem, c_blocks[q], Ellipsis, zero)

    def level(lvl, a, b, out):
        """One recursion level of ``a @ b`` into ``out`` (addresses)."""
        bm, bn, bk, depth = block(lvl)
        a_blocks, b_blocks = children(a, m, n), children(b, n, k)
        c_blocks = children(out, m, k)
        if layout == "stacked" and depth == 0:
            S = stack(("S", lvl), bm, bn)
            T = stack(("T", lvl), bn, bk)
            P = stack(("P", lvl), bm, bk)
            for i in range(plan.rank):
                combine(plan.s_terms[i], a_blocks, lambda: S[i], True)
                combine(plan.t_terms[i], b_blocks, lambda: T[i], True)
            emit(_matmul, (("S", lvl), ()), (("T", lvl), ()),
                 (("P", lvl), ()))
            # Each output block is one combination of the product stack,
            # its terms in multiplication order.
            feeds: list = [[] for _ in c_blocks]
            for i, terms in enumerate(plan.w_terms):
                for q, w in terms:
                    feeds[q].append((i, w))
            for q, terms in enumerate(feeds):
                combine(terms, P, lambda: c_blocks[q], True)
            return
        written = [False] * len(c_blocks)
        for i in range(plan.rank):
            S, T = operands(lvl, i, a_blocks, b_blocks)
            target = next((q for q, w in plan.w_terms[i]
                           if w == 1 and not written[q]), None)
            if target is None:
                M = root(("P", lvl), bm, bk, m, k, depth)
            else:
                M = c_blocks[target]
                written[target] = True
            product(lvl, S, T, M)
            first = len(ops)
            scatter(plan.w_terms[i], M, c_blocks, written, skip=target)
            if depth == 0:
                reads[first - 1] = tuple(
                    (j, pos) for j in range(first, len(ops))
                    if (pos := tuple(p for p, a in enumerate(ops[j][1])
                                     if isinstance(a, tuple) and a == M)))
        zero_unfed(c_blocks, written)

    A, B = root("A", Mp, Np, m, n, steps), root("B", Np, Kp, n, k, steps)
    if plan.key.mode != "threaded":
        level(0, A, B, root("C", Mp, Kp, m, k, steps))
        return _Tape(tuple(ops), buffers, reads)
    a_blocks, b_blocks = children(A, m, n), children(B, n, k)
    bm, _, bk, depth = block(0)
    jobs = []
    for i in range(plan.rank):
        # The closures above see each rebinding of buffers/ops/reads.
        buffers, ops, reads = {}, [], {}
        S, T = operands(0, i, a_blocks, b_blocks)
        combined, ops = _Tape(tuple(ops), buffers, {}), []
        product(0, S, T, root("M", bm, bk, m, k, depth))
        jobs.append(_Job(combined, _Tape(tuple(ops), buffers, reads), S, T))
    buffers, ops = {}, []
    c_blocks = children(root("C", Mp, Kp, m, k, steps), m, k)
    written = [False] * len(c_blocks)
    for i in range(plan.rank):
        scatter(plan.w_terms[i], root(("M", i), bm, bk, m, k, depth),
                c_blocks, written)
    zero_unfed(c_blocks, written)
    return tuple(jobs), _Tape(tuple(ops), buffers, {})


@dataclass(slots=True)
class _Call:
    """One job bound to one call's arrays (see :meth:`_Job.bind`)."""

    combine_ops: list
    product_ops: list
    reads: dict
    S: np.ndarray
    T: np.ndarray
    M: np.ndarray

    def combine(self) -> None:
        """Write ``S_i`` and ``T_i``."""
        for fn, args in self.combine_ops:
            fn(*args)

    def product(self, gemm: GemmFn | None = None) -> np.ndarray:
        """``S_i @ T_i`` into ``M``, returned.

        Under a ``gemm`` override a bare-gemm product (no inner level,
        so no ``reads``) is the override's own result, uncast, which the
        scatter combines as the interpreter does.
        """
        if gemm is not None and not self.reads:
            return gemm(self.S, self.T)
        _run(self.product_ops, gemm, self.reads)
        return self.M

    def classical(self) -> np.ndarray:
        """The block by classical gemm: the failure ladder's last rung."""
        return np.matmul(self.S, self.T, out=self.M)


@dataclass(frozen=True)
class _Job:
    """One outer multiplication ``i`` of a threaded plan, lowered.

    ``combine`` writes ``S_i`` and ``T_i`` (a lone unit term names its
    block of ``A``/``B`` instead); ``product`` computes ``M_i = S_i @
    T_i`` into the root ``"M"``: one gemm, or every inner step unrolled.
    The two tapes share one ``buffers`` map.  A job holds only numpy
    functions, scalars and addresses, so it pickles to a worker process.
    """

    combine: _Tape
    product: _Tape
    S: tuple
    T: tuple

    def bind(self, A: np.ndarray, B: np.ndarray,
             M: np.ndarray | None = None) -> _Call:
        """Bind to staged operands and the product block ``M``; every
        other buffer (``M`` too, when not given) is fresh for this call.

        Run ``combine()``, then ``product(gemm)`` or ``classical()``;
        the products feed :meth:`ExecutionPlan.scatter`.
        """
        if M is None:
            M = np.empty(self.product.buffers["M"], dtype=A.dtype)
        arrays = self.combine.allocate(M.dtype, roots=False)
        arrays.update(A=A, B=B, M=M)
        return _Call(self.combine.bind(arrays), self.product.bind(arrays),
                     self.product.reads, arrays[self.S[0]][self.S[1]],
                     arrays[self.T[0]][self.T[1]], M)


# ----------------------------------------------------------------------
# block-major staging
# ----------------------------------------------------------------------


def _digit_segments(extent: int, padded: int, radix: int,
                    levels: int) -> list[tuple]:
    """Cover ``[0, extent)`` of one padded dimension with layout boxes.

    In the block-major layout, index ``i`` of a dimension padded to
    ``padded`` lives at digits ``(i_0, ..., i_{levels-1}, a)`` (one block
    index per level, then the offset in the last block).  Returns
    ``(start, stop, index, shape)`` per box: source range, the index of
    the box on the dimension's digit axes, and the shape that splits the
    source range onto them.  An unpadded dimension is one box.
    """
    base = padded // radix**levels
    segments = []
    lo = 0
    prefix: tuple = ()
    width = padded
    for lvl in range(levels):
        width //= radix
        q = (extent - lo) // width
        if q:
            free = levels - lvl - 1
            segments.append((lo, lo + q * width,
                             prefix + (slice(0, q),)
                             + (slice(None),) * (free + 1),
                             (q,) + (radix,) * free + (base,)))
            lo += q * width
        if lo == extent:
            return segments
        prefix += (q,)
    segments.append((lo, extent, prefix + (slice(0, extent - lo),),
                     (extent - lo,)))
    return segments


def _boxes(arena: np.ndarray, rows: int, cols: int, padded_rows: int,
           padded_cols: int, rr: int, rc: int, levels: int) -> list[tuple]:
    """``(source slices, split shape, arena view)`` per staging box."""
    # Arena axes are (i0, j0, i1, j1, ..., a, b); put rows first.
    order = [*range(0, 2 * levels + 1, 2), *range(1, 2 * levels + 2, 2)]
    grid = arena.transpose(order)
    boxes = []
    for r0, r1, ridx, rshape in _digit_segments(rows, padded_rows, rr,
                                                levels):
        for c0, c1, cidx, cshape in _digit_segments(cols, padded_cols, rc,
                                                    levels):
            boxes.append(((slice(r0, r1), slice(c0, c1)), rshape + cshape,
                          grid[ridx + cidx]))
    return boxes


# ----------------------------------------------------------------------
# workspaces
# ----------------------------------------------------------------------


class _Workspace:
    """One call's worth of pooled arena buffers.

    Checked out of the plan's free list for the duration of a call, so
    concurrent executions of the same plan never share a buffer.
    Block-major workspaces hold their tape bound to their own arenas
    (``ops``; a stacked plan's per-product tape too, ``gemm_ops``, on
    the same staging arenas) and the staging boxes; view workspaces hold
    only the tape's slots (a threaded plan's: the scatter's scratch)
    plus padded staging and output when the shape is ragged; ``batch``
    prefixes every shape (one batched call's buffers).
    """

    __slots__ = ("arrays", "ops", "gemm_ops", "a_boxes", "b_boxes",
                 "c_boxes", "Ap", "Bp", "C", "batch")

    def __init__(self, plan: ExecutionPlan, batch: tuple = ()) -> None:
        part = plan.partition
        key = plan.key
        tape = plan._tape
        self.batch = batch
        self.arrays = tape.allocate(plan.dtype, roots=plan.block_major,
                                    batch=batch)
        self.ops = self.gemm_ops = None
        self.a_boxes = self.b_boxes = self.c_boxes = None
        self.Ap = self.Bp = self.C = None
        Mp, Np, Kp = (part.padded_rows_a, part.padded_cols_a,
                      part.padded_cols_b)
        if plan.block_major:
            m, n, k, steps = part.m, part.n, part.k, key.steps
            self.ops = tape.bind(self.arrays)
            if plan._gemm_tape is not None:
                slots = plan._gemm_tape.allocate(plan.dtype, roots=False)
                self.gemm_ops = plan._gemm_tape.bind(
                    {**slots, "A": self.arrays["A"], "B": self.arrays["B"],
                     "C": self.arrays["C"]})
                self.arrays.update(
                    {("gemm", name): a for name, a in slots.items()})
            self.a_boxes = _boxes(self.arrays["A"], key.rows_a, key.cols_a,
                                  Mp, Np, m, n, steps)
            self.b_boxes = _boxes(self.arrays["B"], key.cols_a, key.cols_b,
                                  Np, Kp, n, k, steps)
            self.c_boxes = _boxes(self.arrays["C"], key.rows_a, key.cols_b,
                                  Mp, Kp, m, k, steps)
            return
        if plan.pads_a:
            self.Ap = np.zeros(batch + (Mp, Np), dtype=plan.dtype)
        if plan.pads_b:
            self.Bp = np.zeros(batch + (Np, Kp), dtype=plan.dtype)
        if plan.pads_c:
            self.C = np.empty(batch + (Mp, Kp), dtype=plan.dtype)


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------


class ExecutionPlan:
    """Precomputed state + pooled arenas for one matmul configuration.

    Build through :meth:`PlanCache.plan_for` (or the module default via
    :func:`default_plan_cache`), not directly — the cache is what makes
    the precomputation pay off.
    """

    def __init__(self, algorithm: AlgorithmLike, key: PlanKey) -> None:
        if key.mode not in PLAN_MODES:
            raise ValueError(f"unknown plan mode {key.mode!r}")
        self.key = key
        self.algorithm = algorithm
        self.dtype = np.dtype(key.dtype)
        self.partition = part = BlockPartition(
            algorithm.m, algorithm.n, algorithm.k,
            rows_a=key.rows_a, cols_a=key.cols_a, cols_b=key.cols_b,
            steps=key.steps if key.mode != "batched" else 1,
        )
        self.pads_a = (part.padded_rows_a != key.rows_a
                       or part.padded_cols_a != key.cols_a)
        self.pads_b = (part.padded_cols_a != key.cols_a
                       or part.padded_cols_b != key.cols_b)
        self.pads_c = (part.padded_rows_a != key.rows_a
                       or part.padded_cols_b != key.cols_b)
        self.Un, self.Vn, self.Wn = algorithm.evaluate(
            key.lam, dtype=self.dtype)
        self.rank = algorithm.rank
        self.s_terms, self.t_terms, self.w_terms = term_lists(
            self.Un, self.Vn, self.Wn)
        #: Arena layout: ``"stacked"``, ``"block-major"`` or ``"views"``
        #: (see the module docstring).
        self.layout = "views"
        if key.mode == "sequential":
            dims = (algorithm, key.rows_a, key.cols_a, key.cols_b)
            size = {"steps": key.steps, "dtype_bytes": self.dtype.itemsize}
            if uses_stacked(*dims, **size):
                self.layout = "stacked"
            elif uses_block_major(*dims, **size):
                self.layout = "block-major"
        self.block_major = self.layout != "views"
        #: Threaded plans: one :class:`_Job` per outer multiplication;
        #: their ``_tape`` is the scatter segment.
        self.jobs: tuple[_Job, ...] = ()
        #: A stacked plan runs a ``gemm=`` override on the per-product
        #: block-major tape: the override is one Python call per product
        #: either way, and that tape needs no slot copies.
        self._gemm_tape: _Tape | None = None
        if key.mode == "threaded":
            self.jobs, self._tape = _compile(self)
        else:
            self._tape = _compile(self, self.layout)
            if self.layout == "stacked":
                self._gemm_tape = _compile(self, "block-major")
        self._free: list = []
        self._lock = threading.Lock()
        self.workspaces_built = 0
        self.executions = 0

    @property
    def mode(self) -> str:
        return self.key.mode

    @property
    def estimate(self) -> WorkspaceEstimate:
        """The arena footprint of one workspace (the §3.3 model's terms).

        Priced from the compiled tapes: exactly what one checked-out
        workspace allocates (a stacked plan's per-product tape included).
        A threaded plan's workspace holds staging, the output arena and
        the scatter's scratch; its job buffers are allocated per job call
        and are not part of it.  A batched plan prices the per-call
        buffers of one stack item.
        """
        item = self.dtype.itemsize
        combination = products = 0
        for tape in (self._tape, self._gemm_tape):
            if tape is None:
                continue
            for name, shape in tape.buffers.items():
                if name[0] in ("S", "T"):
                    combination += math.prod(shape) * item
                elif name[0] == "P":
                    products += math.prod(shape) * item
            combination += _scratch_elements(tape.buffers) * item
        part = self.partition
        Mp, Np, Kp = (part.padded_rows_a, part.padded_cols_a,
                      part.padded_cols_b)
        bm = self.block_major
        return WorkspaceEstimate(
            padded_inputs=(Mp * Np * item if bm or self.pads_a else 0)
            + (Np * Kp * item if bm or self.pads_b else 0),
            combination_buffers=combination,
            product_buffers=products,
            padded_output=Mp * Kp * item if bm or self.pads_c else 0,
        )

    # ------------------------------------------------------------------
    # workspace pool
    # ------------------------------------------------------------------

    def checkout(self):
        """Acquire a workspace (reused when free, built when not)."""
        if self.key.mode == "batched":
            raise ValueError("batched plans carry no workspace arena "
                             "(the batch dimension is not part of the key)")
        with self._lock:
            self.executions += 1
            if self._free:
                return self._free.pop()
            self.workspaces_built += 1
        return _Workspace(self)

    def release(self, ws) -> None:
        with self._lock:
            self._free.append(ws)

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------

    def stage(self, ws, A: np.ndarray,
              B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copy operands into the workspace's staging arenas.

        Block-major workspaces take both operands, one copy per layout
        box (one per operand when unpadded); view workspaces copy only
        ragged operands into their padded arenas and return the caller's
        arrays otherwise.
        """
        if ws.a_boxes is not None:
            for sl, shape, dst in ws.a_boxes:
                dst[...] = A[sl].reshape(shape)
            for sl, shape, dst in ws.b_boxes:
                dst[...] = B[sl].reshape(shape)
            return ws.arrays["A"], ws.arrays["B"]
        if ws.Ap is None:
            Ap = A
        else:
            ws.Ap[..., : self.key.rows_a, : self.key.cols_a] = A
            Ap = ws.Ap
        if ws.Bp is None:
            Bp = B
        else:
            ws.Bp[..., : self.key.cols_a, : self.key.cols_b] = B
            Bp = ws.Bp
        return Ap, Bp

    # ------------------------------------------------------------------
    # sequential execution
    # ------------------------------------------------------------------

    def execute(self, A: np.ndarray, B: np.ndarray,
                gemm: GemmFn | None = None) -> np.ndarray:
        """Run the plan on concrete operands (sequential mode).

        ``gemm`` overrides the base-case multiply exactly as in
        :func:`~repro.core.apa_matmul.apa_matmul` (the fault-injection
        seam); the default routes through ``np.matmul`` writing straight
        into the output block or product slot.  Returns a fresh array.

        With no tracer installed this method is a single extra branch
        over :meth:`_execute` (the un-instrumented body —
        ``bench/obs_overhead.py`` times the two against each other).
        """
        tracer = _obs_tracer.ACTIVE
        if tracer is None:
            return self._execute(A, B, gemm)
        with tracer.span(
            "plan.execute", cat="core", algorithm=self.key.algorithm,
            shape=f"({self.key.rows_a},{self.key.cols_a})"
                  f"@({self.key.cols_a},{self.key.cols_b})",
            steps=self.key.steps,
        ):
            return self._execute(A, B, gemm)

    def _execute(self, A: np.ndarray, B: np.ndarray,
                 gemm: GemmFn | None = None) -> np.ndarray:
        key = self.key
        if key.mode != "sequential":
            raise ValueError(f"execute() is for sequential plans, "
                             f"this one is {key.mode!r}")
        if A.shape != (key.rows_a, key.cols_a) \
                or B.shape != (key.cols_a, key.cols_b):
            raise ValueError(
                f"operands {A.shape} @ {B.shape} do not match plan key "
                f"({key.rows_a},{key.cols_a})"
                f"@({key.cols_a},{key.cols_b})")
        ws = self.checkout()
        try:
            if ws.ops is not None:
                self.stage(ws, A, B)
                if gemm is not None and ws.gemm_ops is not None:
                    _run(ws.gemm_ops, gemm, self._gemm_tape.reads)
                else:
                    _run(ws.ops, gemm, self._tape.reads)
                C = np.empty((key.rows_a, key.cols_b), dtype=self.dtype)
                for sl, shape, src in ws.c_boxes:
                    C[sl].reshape(shape)[...] = src
                return C
            Ap, Bp = self.stage(ws, A, B)
            return self._run_views(ws, {"A": Ap, "B": Bp}, gemm)
        finally:
            self.release(ws)

    def _run_views(self, ws, arrays: dict,
                   gemm: GemmFn | None) -> np.ndarray:
        """Bind the views tape per call; ``C`` is the arena when ragged,
        else a fresh result."""
        key = self.key
        C = ws.C if ws.C is not None else np.empty(
            ws.batch + (key.rows_a, key.cols_b), dtype=self.dtype)
        _run(self._tape.bind({**ws.arrays, **arrays, "C": C},
                             lead=(Ellipsis,) if ws.batch else ()),
             gemm, self._tape.reads)
        if ws.C is None:
            return C
        # The arena C is reused by the next call: copy out.
        return np.array(C[..., : key.rows_a, : key.cols_b])

    # ------------------------------------------------------------------
    # threaded execution: the runners schedule the jobs
    # ------------------------------------------------------------------

    def scatter(self, ws, products: list) -> np.ndarray:
        """A threaded plan's scatter segment: ``C`` from the ``r``
        products, in multiplication order.  Returns a fresh array."""
        return self._run_views(
            ws, {("M", i): M for i, M in enumerate(products)}, None)

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------

    def execute_batched(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """``A[b] @ B[b]`` for every item of two stacks (batched mode).

        The views tape is bound to the 3-D operands, so every
        combination runs over the whole stack and every gemm op is a
        batched gemm.  Returns a fresh array.
        """
        key = self.key
        if key.mode != "batched" \
                or A.shape[1:] != (key.rows_a, key.cols_a) \
                or B.shape != (A.shape[0], key.cols_a, key.cols_b):
            raise ValueError(f"operands {A.shape} @ {B.shape} do not fit "
                             f"this {key.mode} plan's key")
        ws = _Workspace(self, batch=A.shape[:1])
        Ap, Bp = self.stage(ws, A, B)
        return self._run_views(ws, {"A": Ap, "B": Bp}, None)


class PlanCache:
    """Bounded, thread-safe LRU cache of :class:`ExecutionPlan` objects.

    Hit/miss/evict counters are kept for the bench harness; pass an
    :class:`~repro.robustness.events.EventLog` to additionally emit a
    ``plan-miss``/``plan-evict`` event per cache action (the same sink
    the guard rails use).
    """

    def __init__(self, maxsize: int = 64, log: EventLog | None = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.log = log
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def plan_for(
        self,
        algorithm: AlgorithmLike,
        rows_a: int,
        cols_a: int,
        cols_b: int,
        dtype,
        lam: float,
        steps: int = 1,
        mode: str = "sequential",
    ) -> ExecutionPlan:
        """Get-or-build the plan for a fully resolved configuration.

        Plans are filed under a plain tuple of the arguments (the
        algorithm by identity — the cached plan keeps it alive); the
        :class:`PlanKey` record is built only when a plan is.
        """
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        lam = float(lam)
        fast = (id(algorithm), rows_a, cols_a, cols_b, dtype, lam, steps,
                mode)
        tracer = _obs_tracer.ACTIVE
        with self._lock:
            plan = self._plans.get(fast)
            if plan is not None:
                self._plans.move_to_end(fast)
                self.hits += 1
        if plan is not None:
            if tracer is not None:
                tracer.instant("plan-hit", cat="plan",
                               algorithm=plan.key.algorithm,
                               shape=f"{rows_a}x{cols_a}x{cols_b}")
            return plan
        key = PlanKey(
            algorithm=algorithm.name, alg_id=id(algorithm),
            rows_a=rows_a, cols_a=cols_a, cols_b=cols_b,
            dtype=dtype.str, lam=lam, steps=steps, mode=mode,
        )
        # Build outside the lock: plan construction evaluates
        # coefficients and allocates nothing shared, so a rare duplicate
        # build is cheaper than serializing every miss.
        built = ExecutionPlan(algorithm, key)
        evicted: list[PlanKey] = []
        missed = False
        with self._lock:
            plan = self._plans.get(fast)
            if plan is None:
                self.misses += 1
                missed = True
                self._plans[fast] = plan = built
                if self.log is not None:
                    self.log.emit("plan-miss", f"plan:{key.algorithm}",
                                  f"built {key.rows_a}x{key.cols_a}x"
                                  f"{key.cols_b} {key.mode} plan")
                while len(self._plans) > self.maxsize:
                    _, old = self._plans.popitem(last=False)
                    old_key = old.key
                    self.evictions += 1
                    evicted.append(old_key)
                    if self.log is not None:
                        self.log.emit("plan-evict",
                                      f"plan:{old_key.algorithm}",
                                      f"evicted {old_key.rows_a}x"
                                      f"{old_key.cols_a}x{old_key.cols_b}")
            else:
                self.hits += 1
                self._plans.move_to_end(fast)
        if tracer is not None:
            if not missed:
                tracer.instant("plan-hit", cat="plan",
                               algorithm=key.algorithm,
                               shape=f"{key.rows_a}x{key.cols_a}x"
                                     f"{key.cols_b}", mode=key.mode)
            elif self.log is None:
                # With a log attached, EventLog.emit already forwarded
                # the miss/evict to the tracer — don't double-record.
                tracer.instant("plan-miss", cat="plan",
                               algorithm=key.algorithm,
                               shape=f"{key.rows_a}x{key.cols_a}x"
                                     f"{key.cols_b}", mode=key.mode)
                for old_key in evicted:
                    tracer.instant("plan-evict", cat="plan",
                                   algorithm=old_key.algorithm,
                                   shape=f"{old_key.rows_a}x"
                                         f"{old_key.cols_a}x"
                                         f"{old_key.cols_b}")
        return plan

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._plans),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Drop every plan (counters are kept — they are lifetime stats)."""
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


# ----------------------------------------------------------------------
# the process-wide default cache
# ----------------------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_CACHE: PlanCache | None = None


def default_plan_cache() -> PlanCache:
    """The lazily created process-wide cache the hot paths share."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = PlanCache()
        return _DEFAULT_CACHE


def configure_plan_cache(maxsize: int = 64,
                         log: EventLog | None = None) -> PlanCache:
    """Replace the default cache (sizing knob + event instrumentation)."""
    global _DEFAULT_CACHE
    cache = PlanCache(maxsize=maxsize, log=log)
    with _DEFAULT_LOCK:
        _DEFAULT_CACHE = cache
    return cache


def resolve_plan_cache(plan_cache) -> PlanCache | None:
    """Normalize the ``plan_cache`` argument the hot paths accept.

    ``None`` means the process default, ``False`` no cache, and a
    :class:`PlanCache` instance is used as-is.  Without a cache the
    sequential path runs the per-call interpreter (the pre-plan
    behavior) and the thread, process and batched runners build an
    uncached plan.
    """
    if plan_cache is None:
        cache = _DEFAULT_CACHE
        return cache if cache is not None else default_plan_cache()
    if plan_cache is False:
        return None
    if isinstance(plan_cache, PlanCache):
        return plan_cache
    raise TypeError(
        f"plan_cache must be None, False, or a PlanCache, "
        f"got {type(plan_cache).__name__}")
