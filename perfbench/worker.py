"""One benchmark workload, run in a process whose BLAS threads are pinned.

``run.py`` starts this file in a fresh interpreter with
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/``MKL_NUM_THREADS`` set to 1
and ``src`` on ``PYTHONPATH``; the clock for ``setup_s`` starts here,
before numpy is imported.  The last line of standard output is one JSON
object that ``run.py`` turns into the benchmark's result.

Load is a closed loop with one caller.  Requests are grouped in
*cycles* (a fixed, seed-determined unit of work per workload); a run
measures whole cycles until ``--seconds`` have passed and the run holds
enough samples for the workload's fixed tail percentile.  In the traced
run even cycles run untraced and odd ones traced, so ``trace.overhead``
compares the two inside one process, and the first traced cycle is the
*count window*: every count reported by the traced run is taken over
that window and repeats exactly for a fixed seed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    if os.environ.get(_var) != "1":
        sys.exit(f"worker.py: {_var} must be 1; start the benchmark "
                 "through perfbench/run.py")

import numpy as np  # noqa: E402

from repro.algorithms.catalog import get_algorithm  # noqa: E402
from repro.core.backend import ClassicalBackend  # noqa: E402
from repro.core.engine import ExecutionEngine  # noqa: E402
from repro.core.lam import precision_bits  # noqa: E402
from repro.core.plan import ExecutionPlan, PlanCache  # noqa: E402
from repro.core.plan import default_plan_cache  # noqa: E402
from repro.data import load_synth_mnist  # noqa: E402
from repro.nn.layers import Dense  # noqa: E402
from repro.nn.losses import SoftmaxCrossEntropy  # noqa: E402
from repro.nn.mlp import build_paradnn_mlp  # noqa: E402
from repro.nn.optim import SGD  # noqa: E402
from repro.parallel.executor import ExecutionReport  # noqa: E402
from repro.parallel.pool import pool_stats  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import SpanRecorder, covered, self_time  # noqa: E402
from stats import TAIL_BEYOND, median, min_samples, tail  # noqa: E402

#: A product is wrong when its relative Frobenius error against the
#: float64 reference exceeds this multiple of the §2.3 bound.  Exact
#: rules sit at 5-10x their 2^-d bound at n = 3072 in float32 (gemm's
#: own accumulation error), bini322 at about 5x.
ERROR_MULTIPLE = 32.0

#: mlp-train: the APA loss must stay within this share of the classical
#: loss at step LOSS_GAP_STEP (or the last paired step of a shorter run).
LOSS_TOLERANCE = 0.05
LOSS_GAP_STEP = 8

#: A run that does not yet hold enough samples stops here regardless.
HARD_CAP_S = 120.0

#: Threads of the hybrid products (the host's nproc).
HYBRID_THREADS = 2

#: The traced run's per-layer metrics and their units; run.py checks
#: them against BENCHMARK.json.
PER_LAYER_UNITS = {
    "engine.calls": "count",
    "engine.self_us": "us",
    "engine.resolve_us": "us",
    "plan.lookups": "count",
    "plan.lookup_us": "us",
    "plan.hit_ratio": "ratio",
    "plan.misses": "count",
    "plan.evictions": "count",
    "plan.build_ms": "ms",
    "plan.workspaces_built": "count",
    "plan.execute_self_ms": "ms",
    "plan.stage_ms": "ms",
    "plan.block_adds": "count",
    "plan.combine_bytes": "B",
    "gemm.calls": "count",
    "gemm.ms": "ms",
    "gemm.share": "ratio",
    "gemm.gflops": "GFLOP/s",
    "numpy.gflops": "GFLOP/s",
    "nn.step_ms": "ms",
    "nn.matmul_calls": "count",
    "nn.matmul_ms": "ms",
    "nn.matmul_share": "ratio",
    "nn.optim_ms": "ms",
    "nn.other_ms": "ms",
    "nn.loss_gap": "abs",
    "parallel.jobs": "count",
    "parallel.busy_share": "ratio",
    "parallel.idle_ms": "ms",
    "parallel.serial_ms": "ms",
    "parallel.retries": "count",
    "parallel.failed_jobs": "count",
    "parallel.pool_resizes": "count",
    "trace.overhead": "ratio",
    "trace.overhead_tail": "ratio",
}


def relative_error(C, ref, ref_norm):
    return float(np.linalg.norm(C.astype(np.float64) - ref) / ref_norm)


def _algorithm(name):
    alg = get_algorithm(name)
    if alg.is_surrogate:
        # A surrogate's gemms are dummy work (_burn_flop_profile), so
        # timing one would measure nothing the paper claims.
        raise SystemExit(f"worker.py: refusing surrogate algorithm {name!r}")
    return alg


def block_counts(plan):
    """Exact block additions and computed bytes of one product's plan.

    Counts the write-once combinations of the base level (every workload
    runs ``steps=1``): an ``S``/``T`` combination of ``t`` terms does
    ``t - 1`` block additions, and output block ``q`` fed by ``c``
    products does ``c - 1``.  Bytes assume each copy moves two blocks,
    each ``+=``/``-=`` three, a scaled term five (scratch multiply plus
    add), and a single unit-coefficient base term none (it is a view).
    """
    part = plan.partition
    m, n, k = part.m, part.n, part.k
    item = plan.dtype.itemsize
    a_blk = part.padded_rows_a // m * (part.padded_cols_a // n) * item
    b_blk = part.padded_cols_a // n * (part.padded_cols_b // k) * item
    c_blk = part.padded_rows_a // m * (part.padded_cols_b // k) * item

    def combine(terms, blk):
        if not terms:
            return 0, blk
        if len(terms) == 1 and terms[0][1] == 1:
            return 0, 0
        moved = 2 * blk
        for _, c in terms[1:]:
            moved += 3 * blk if abs(c) == 1 else 5 * blk
        return len(terms) - 1, moved

    adds = moved = 0
    for s, t in zip(plan.s_terms, plan.t_terms):
        for terms, blk in ((s, a_blk), (t, b_blk)):
            a, b = combine(terms, blk)
            adds += a
            moved += b
    fed = {}
    for terms in plan.w_terms:
        for q, w in terms:
            if q in fed:
                adds += 1
                moved += 3 * c_blk if abs(w) == 1 else 5 * c_blk
            else:
                fed[q] = True
                moved += 2 * c_blk
    return adds, moved


class Samples:
    """Latency samples of one kind of request in one run (or run half)."""

    def __init__(self):
        self.apa = []       # APA op wall seconds: the latency samples
        self.classical = []  # paired classical op seconds, same index
        self.sequential = []  # hybrid only: paired sequential APA seconds
        self.kinds = []      # the request's slot in its cycle, same index
        self.flops = 0.0
        self.classical_flops = 0.0
        self.rows = 0


class Workload:
    """Base: setup, references, cycles and end-to-end metrics."""

    name = ""
    tail_unit = "product"
    #: The tail percentile, fixed per workload so that every run, however
    #: many samples fit into its seconds, estimates the same quantile.
    #: A run measures until TAIL_BEYOND samples lie beyond it.
    tail_percentile = 75

    def __init__(self, seed, recorder):
        self.seed = seed
        self.rec = recorder
        self.engine = ExecutionEngine()
        self.cache: PlanCache = default_plan_cache()
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0   # max relative error / bound over checked outputs
        self.errors = []
        # Single-threaded requests, which the gated metrics describe.
        self.untraced = Samples()
        self.traced = Samples()
        # Hybrid-schedule products on HYBRID_THREADS threads (large-1t).
        self.hybrid = {False: Samples(), True: Samples()}
        # Traced threaded products: (cycle, wall seconds, ExecutionReport).
        self.reports = []
        # Samples required beyond the tail percentile (0 in shortened
        # test runs, which cannot fill it).
        self.beyond = TAIL_BEYOND

    def tail(self, values):
        return tail(values, self.tail_percentile, self.beyond)

    def setup(self):
        raise NotImplementedError

    def references(self):
        pass

    def cycle(self, index, traced):
        raise NotImplementedError

    def samples(self, traced, threads=1):
        if threads > 1:
            return self.hybrid[traced]
        return self.traced if traced else self.untraced

    def check(self, C, ref, ref_norm, alg, dtype):
        bound = alg.error_bound(d=precision_bits(dtype))
        ratio = relative_error(C, ref, ref_norm) / bound
        self.worst = max(self.worst, ratio)
        if not math.isfinite(ratio) or ratio > ERROR_MULTIPLE:
            self.failed += 1
            self.errors.append(f"{alg.name} {C.shape}: error {ratio:.3g}x "
                               f"bound exceeds {ERROR_MULTIPLE}x")

    def finish(self):
        """Checks that need the whole run; returns extra result fields."""
        return {}

    def fail(self, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def end_to_end(self):
        """Every end-to-end figure; run.py gates the BENCHMARK.json ones."""
        s = self.untraced
        apa_total = sum(s.apa)
        # Per slot of the cycle the median of its pair ratios, then the
        # geometric mean over the slots: each request of a cycle weighs
        # the same, and no slot's timer jitter decides the figure alone.
        ratios = {}
        for kind, a, c in zip(s.kinds, s.apa, s.classical):
            ratios.setdefault(kind, []).append(c / a)
        speedup = math.exp(sum(math.log(median(r)) for r in ratios.values())
                           / len(ratios))
        metrics = {
            "speedup_vs_numpy": (speedup, "x"),
            "slowdown_tail_vs_numpy": (self.tail(
                [a / c for a, c in zip(s.apa, s.classical)]), "x"),
            "effective_gflops": (s.flops / apa_total / 1e9, "GFLOP/s"),
            "calls_per_s": (len(s.apa) / apa_total, "1/s"),
            "samples_per_s": (s.rows / apa_total, "1/s"),
            "latency_p50_ms": (median(s.apa) * 1e3, "ms"),
            "latency_tail_ms": (self.tail(s.apa) * 1e3, "ms"),
            "error_over_bound": (self.worst, "ratio"),
        }
        h = self.hybrid[False]
        if h.apa:
            metrics["scaling_efficiency"] = (median(
                [q / (HYBRID_THREADS * a)
                 for a, q in zip(h.apa, h.sequential)]), "ratio")
            metrics["hybrid_speedup_vs_numpy"] = (median(
                [c / a for a, c in zip(h.apa, h.classical)]), "x")
            metrics["hybrid_latency_p50_ms"] = (median(h.apa) * 1e3, "ms")
        info = {"samples": len(s.apa),
                "tail_percentile": self.tail_percentile,
                "latency_unit": self.tail_unit}
        return metrics, info


# ----------------------------------------------------------------------
# product workloads: large-1t, small-mixed
# ----------------------------------------------------------------------


class ProductWorkload(Workload):
    """Single products through ``engine.matmul``, paired with np.matmul."""

    def setup_operands(self, shapes):
        """``shapes``: key -> (m, k, n, dtype); draws A and B per key."""
        self.operands = {}
        for key, (m, k, n, dtype) in shapes.items():
            A = self.rng.standard_normal((m, k)).astype(dtype)
            B = self.rng.standard_normal((k, n)).astype(dtype)
            self.operands[key] = (A, B)

    def references(self):
        self.refs = {}
        for key, (A, B) in self.operands.items():
            ref = A.astype(np.float64) @ B.astype(np.float64)
            self.refs[key] = (ref, float(np.linalg.norm(ref)))

    def warm(self, key, alg, threads=1):
        A, B = self.operands[key]
        with _traced(self.rec, kind="setup"):
            self.engine.matmul(A, B, alg, **_apa_kwargs(threads))

    def product(self, key, alg, traced, order, cycle, slot, threads=1):
        """One request: the APA product plus its timed pairs."""
        A, B = self.operands[key]
        s = self.samples(traced, threads)
        self.attempted += 1
        timings = {}

        def run_apa():
            kwargs = _apa_kwargs(threads)
            report = None
            if traced:
                kwargs["gemm"] = self.rec.gemm
                if threads > 1:
                    report = kwargs["report"] = ExecutionReport()
            with _traced(self.rec if traced else None, kind="apa",
                         cycle=cycle, key=str(key), threads=threads):
                t0 = time.perf_counter()
                C = self.engine.matmul(A, B, alg, **kwargs)
                t1 = time.perf_counter()
            timings["apa"] = (C, t1 - t0, report)

        def run_sequential():
            t0 = time.perf_counter()
            C = self.engine.matmul(A, B, alg)
            timings["sequential"] = (C, time.perf_counter() - t0)

        def run_numpy():
            t0 = time.perf_counter()
            np.matmul(A, B)
            timings["classical"] = time.perf_counter() - t0

        steps = {"apa": run_apa, "sequential": run_sequential,
                 "classical": run_numpy}
        try:
            for name in order:
                steps[name]()
        except Exception as exc:  # a failed product is counted, not fatal
            self.fail(exc)
            return
        C, apa_s, report = timings["apa"]
        m, k, n = A.shape[0], A.shape[1], B.shape[1]
        s.apa.append(apa_s)
        s.classical.append(timings["classical"])
        s.kinds.append(slot)
        s.flops += 2.0 * m * k * n
        s.classical_flops += 2.0 * m * k * n
        s.rows += m
        ref, ref_norm = self.refs[key]
        self.check(C, ref, ref_norm, alg, A.dtype)
        if "sequential" in timings:
            C_seq, seq_s = timings["sequential"]
            s.sequential.append(seq_s)
            self.check(C_seq, ref, ref_norm, alg, A.dtype)
        if report is not None:
            self.reports.append((cycle, apa_s, report))


def _traced(rec, **meta):
    """The recorder's request scope, or nothing when not tracing."""
    return contextlib.nullcontext() if rec is None else rec.traced(**meta)


def _warm_numpy(*dtypes):
    """Load the BLAS kernels of the classical side (not program set-up)."""
    for dtype in dtypes:
        np.matmul(np.ones((64, 64), dtype), np.ones((64, 64), dtype))


def _apa_kwargs(threads):
    if threads > 1:
        return {"threads": threads, "strategy": "hybrid"}
    return {}


class LargeProducts(ProductWorkload):
    name = "large-1t"
    ALGORITHMS = ("strassen222", "winograd222", "bini322", "laderman333")
    SIZES = (1536, 2049, 3072)
    # The paper's §3.2 hybrid schedule on HYBRID_THREADS threads: r = 7 =
    # 2*3 + 1 (one remainder product) and r = 10 = 2*5 (none), at the
    # ragged size.  Each is paired with the same product run sequentially
    # and with np.matmul.  Their timings are printed, not gated: how much
    # a second vCPU helps drifts with the host (see README.md).
    HYBRID = ((2049, "strassen222"), (2049, "bini322"))
    # Each request rotates which of its timed calls runs first.
    ORDERS = {1: (("apa", "classical"), ("classical", "apa")),
              HYBRID_THREADS: (("apa", "sequential", "classical"),
                               ("sequential", "classical", "apa"),
                               ("classical", "apa", "sequential"))}

    def setup(self):
        algs = {a: _algorithm(a) for a in self.ALGORITHMS}
        self.setup_operands({n: (n, n, n, np.float32) for n in self.SIZES})
        self.configs = [(n, algs[a], 1) for n in self.SIZES
                        for a in self.ALGORITHMS]
        self.configs += [(n, algs[a], HYBRID_THREADS)
                         for n, a in self.HYBRID]
        for n, alg, threads in self.configs:
            self.warm(n, alg, threads)
        _warm_numpy(np.float32)
        self.turn = 0

    def cycle(self, index, traced):
        for j in self.rng.permutation(len(self.configs)):
            n, alg, threads = self.configs[j]
            orders = self.ORDERS[threads]
            self.turn += 1
            self.product(n, alg, traced, orders[self.turn % len(orders)],
                         index, j, threads)


class SmallMixed(ProductWorkload):
    """The small products that the repository's own callers issue.

    One cycle is one round of each caller in ``CALLERS``, at the shapes,
    dtypes and rules the caller uses.  Each product runs through
    ``engine.matmul``, without the caller's own layers around it.
    """

    name = "small-mixed"
    tail_percentile = 99
    F32, F64 = np.float32, np.float64
    CALLERS = (
        # repro.serve's load test (run_loadtest defaults): 12 clients send
        # one 32x32 request each, float64 operands, strassen222 (the
        # configuration of both default QoS classes).
        ("serve", [(32, 32, 32, F64, "strassen222")] * 12),
        # ROADMAP item 3's small-call target: a warm n = 8 strassen222
        # call (float64, numpy's default, as the serving caller uses).
        ("warm-n8", [(8, 8, 8, F64, "strassen222")]),
        # repro hotpath defaults (run_hotpath): one warm 96x96 bini322
        # call, then one train step of its 96-96-10 MLP at batch 64 with
        # both Dense layers on bini322: per layer the forward x @ W, then
        # x.T @ grad and grad @ W.T.
        ("hotpath", [(96, 96, 96, F32, "bini322"),
                     (64, 96, 96, F32, "bini322"),
                     (64, 96, 10, F32, "bini322"),
                     (96, 64, 10, F32, "bini322"),
                     (64, 10, 96, F32, "bini322"),
                     (96, 64, 96, F32, "bini322"),
                     (64, 96, 96, F32, "bini322")]),
        # Fig 5 (build_accuracy_mlp, batch 300): one train step of the
        # 784-300-300-10 MLP, whose 300x300 hidden layer alone runs APA
        # (bini322, the first paper algorithm): forward and two backward
        # products.
        ("fig5", [(300, 300, 300, F32, "bini322")] * 3),
    )

    def setup(self):
        products = [p for _, ps in self.CALLERS for p in ps]
        algs = {name: _algorithm(name) for *_, name in products}
        # One key per product of the cycle, each with its own operands.
        self.setup_operands({key: p[:4] for key, p in enumerate(products)})
        self.products = [(key, algs[p[4]]) for key, p in enumerate(products)]
        for key, alg in self.products:
            self.warm(key, alg)
        _warm_numpy(self.F32, self.F64)
        self.turn = 0

    def cycle(self, index, traced):
        # The seed draws the interleaving of the callers' products.
        for j in self.rng.permutation(len(self.products)):
            key, alg = self.products[j]
            order = ("apa", "classical") if self.turn % 2 == 0 \
                else ("classical", "apa")
            self.turn += 1
            self.product(key, alg, traced, order, index, j)


# ----------------------------------------------------------------------
# mlp-train
# ----------------------------------------------------------------------


def _mark_apa(span, args, result):
    span.attrs["apa"] = True


class MlpTrain(Workload):
    name = "mlp-train"
    tail_unit = "train step"
    HIDDEN = 1024
    LAYERS = 4
    BATCH = 1024
    BATCHES = 2
    LR = 0.01
    ALGORITHM = "bini322"

    def setup(self):
        self.alg = _algorithm(self.ALGORITHM)
        (x, y), _ = load_synth_mnist(n_train=self.BATCH * self.BATCHES,
                                     n_test=0, seed=self.seed)
        self.batches = [(x[i * self.BATCH:(i + 1) * self.BATCH],
                         y[i * self.BATCH:(i + 1) * self.BATCH])
                        for i in range(self.BATCHES)]
        self.apa_backend = self.engine.backend(algorithm=self.ALGORITHM)
        self.apa = self._model(self.apa_backend)
        self.classical = self._model(ClassicalBackend())
        self.losses = {"apa": [], "classical": []}
        self.step_flops = sum(6.0 * self.BATCH * d.in_features
                              * d.out_features for d in self._dense(self.apa))
        self.steps = 0
        with _traced(self.rec, kind="setup"):
            self.train_step(self.apa, 0, "apa")
        self.train_step(self.classical, 0, "classical")
        self.steps = 1
        if self.rec is not None:
            self.traced_backend = self.engine.backend(
                algorithm=self.ALGORITHM, gemm=self.rec.gemm)
            seen = set()
            for layer in self._dense(self.apa):
                apa = layer.backend is self.apa_backend
                backend = self.traced_backend if apa else layer.backend
                if id(backend) not in seen:
                    seen.add(id(backend))
                    self.rec.patch(backend, "matmul", "nn.matmul",
                                   _mark_apa if apa else None)
            self.rec.patch(self.apa[1], "step", "nn.optim")
            self.traced_step = self.rec.wrap("nn.step", self.train_step)

    def _model(self, hidden_backend):
        model = build_paradnn_mlp(
            self.HIDDEN, self.LAYERS, hidden_backend=hidden_backend,
            rng=np.random.default_rng(self.seed))
        return model, SGD(model.parameters(), lr=self.LR), \
            SoftmaxCrossEntropy()

    @staticmethod
    def _dense(model):
        return [layer for layer in model[0].layers if isinstance(layer, Dense)]

    def train_step(self, model, batch, label):
        net, optimizer, loss = model
        xb, yb = self.batches[batch]
        logits = net.forward(xb, training=True)
        value = loss.forward(logits, yb)
        optimizer.zero_grad()
        net.backward(loss.backward())
        optimizer.step()
        self.losses[label].append(value)
        return value

    def references(self):
        """Check the hidden-layer products of one forward/backward pass.

        The run's operands are activations that exist only at run time,
        so the float64 check happens on a pass over batch 0 here, outside
        timed work; the pass applies no optimizer step.
        """
        original = self.apa_backend.matmul

        def checked(A, B):
            C = original(A, B)
            ref = A.astype(np.float64) @ B.astype(np.float64)
            self.check(C, ref, float(np.linalg.norm(ref)), self.alg, A.dtype)
            return C

        self.apa_backend.matmul = checked
        try:
            net, _, loss = self.apa
            xb, yb = self.batches[0]
            loss.forward(net.forward(xb, training=True), yb)
            net.backward(loss.backward())
        finally:
            del self.apa_backend.matmul
        self.apa[1].zero_grad()

    def set_traced(self, traced):
        backend = self.traced_backend if traced else self.apa_backend
        for layer in self._dense(self.apa)[1:-1]:
            layer.backend = backend

    def cycle(self, index, traced):
        s = self.samples(traced)
        for batch in range(self.BATCHES):
            self.attempted += 1
            first_apa = self.steps % 2 == 0
            try:
                if first_apa:
                    apa_s = self.timed_apa(batch, traced, index)
                    cls_s = self.timed(self.classical, batch, "classical")
                else:
                    cls_s = self.timed(self.classical, batch, "classical")
                    apa_s = self.timed_apa(batch, traced, index)
            except Exception as exc:  # a failed step is counted, not fatal
                self.fail(exc)
                return
            self.steps += 1
            s.apa.append(apa_s)
            s.classical.append(cls_s)
            s.kinds.append(batch)
            s.flops += self.step_flops
            s.classical_flops += self.step_flops
            s.rows += self.BATCH

    def timed(self, model, batch, label):
        t0 = time.perf_counter()
        self.train_step(model, batch, label)
        return time.perf_counter() - t0

    def timed_apa(self, batch, traced, cycle):
        if not traced:
            return self.timed(self.apa, batch, "apa")
        self.set_traced(True)
        try:
            with self.rec.traced(kind="apa", cycle=cycle):
                t0 = time.perf_counter()
                self.traced_step(self.apa, batch, "apa")
                t1 = time.perf_counter()
        finally:
            self.set_traced(False)
        return t1 - t0

    def loss_gap(self):
        """(gap, step) at LOSS_GAP_STEP, or the last step both ran."""
        paired = min(len(self.losses["apa"]), len(self.losses["classical"]))
        step = min(LOSS_GAP_STEP, paired)
        return self.losses["apa"][step - 1] - \
            self.losses["classical"][step - 1], step

    def finish(self):
        """Gate the training losses; report the loss gap."""
        gap, step = self.loss_gap()
        values = self.losses["apa"] + self.losses["classical"]
        reference = self.losses["classical"][step - 1]
        if not all(math.isfinite(v) for v in values):
            self.failed += 1
            self.errors.append("non-finite training loss")
        elif abs(gap) > LOSS_TOLERANCE * abs(reference):
            self.failed += 1
            self.errors.append(f"loss gap {gap:.3g} at step {step} exceeds "
                               f"{LOSS_TOLERANCE} of {reference:.4g}")
        return {"loss_gap": {"value": gap, "step": step}}


WORKLOADS = {w.name: w for w in (LargeProducts, SmallMixed, MlpTrain)}


# ----------------------------------------------------------------------
# traced-run instrumentation and per-layer metrics
# ----------------------------------------------------------------------


class LayerTracer(SpanRecorder):
    """A span recorder wired to the layer entry points of the program."""

    def __init__(self):
        super().__init__()
        self.patch(ExecutionEngine, "matmul", "engine.matmul")
        self.patch(ExecutionEngine, "resolve", "engine.resolve")
        self.patch(PlanCache, "plan_for", "plan.lookup", self._note_plan)
        self.patch(ExecutionPlan, "execute", "plan.execute")
        self.patch(ExecutionPlan, "stage", "plan.stage")
        self.gemm = self.wrap("gemm", np.matmul, self._note_gemm)

    @staticmethod
    def _note_plan(span, args, plan):
        # A plan that has never run was built by this lookup: a miss.
        span.attrs["miss"] = plan.executions == 0
        span.attrs["plan"] = plan
        span.attrs["workspaces_before"] = plan.workspaces_built

    @staticmethod
    def _note_gemm(span, args, result):
        S, T = args
        span.attrs["flops"] = 2.0 * S.shape[0] * S.shape[1] * T.shape[1]


def _sum(spans):
    return sum(s.duration for s in spans)


def per_layer(workload, rec, window_stats):
    """Per-layer metrics from the spans of traced cycles."""
    children = rec.children()
    run = {req for req, meta in rec.requests.items()
           if meta.get("kind") == "apa"}
    window = {req for req in run if rec.requests[req].get("cycle") == 1}
    spans = [s for s in rec.spans if s.request in run]
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, only=None):
        found = by_name.get(name, [])
        return [s for s in found if only is None or s.request in only]

    out = {name: 0.0 for name in PER_LAYER_UNITS}

    engine_spans = named("engine.matmul")
    out["engine.calls"] = len(named("engine.matmul", window))
    if engine_spans:
        out["engine.self_us"] = median(
            [self_time(s, children) for s in engine_spans]) * 1e6
    if named("engine.resolve"):
        out["engine.resolve_us"] = median(
            [s.duration for s in named("engine.resolve")]) * 1e6

    lookups = named("plan.lookup")
    out["plan.lookups"] = len(named("plan.lookup", window))
    if lookups:
        out["plan.lookup_us"] = median([s.duration for s in lookups]) * 1e6
    builds = [s for s in rec.spans
              if s.name == "plan.lookup" and s.attrs.get("miss")]
    if builds:
        out["plan.build_ms"] = _sum(builds) / len(builds) * 1e3
    looked = window_stats["hits"] + window_stats["misses"]
    out["plan.hit_ratio"] = window_stats["hits"] / looked if looked else 0.0
    out["plan.misses"] = window_stats["misses"]
    out["plan.evictions"] = window_stats["evictions"]
    out["parallel.pool_resizes"] = window_stats["resizes"]

    # Workspaces built and combination work, per APA product in the window.
    window_lookups = named("plan.lookup", window)
    built = {}
    adds = moved = 0
    for s in window_lookups:
        plan = s.attrs["plan"]
        built.setdefault(id(plan), (plan, s.attrs["workspaces_before"]))
        a, b = block_counts(plan)
        adds += a
        moved += b
    out["plan.workspaces_built"] = sum(
        plan.workspaces_built - before for plan, before in built.values())
    if window_lookups:
        out["plan.block_adds"] = adds / len(window_lookups)
        out["plan.combine_bytes"] = moved / len(window_lookups)

    executes = named("plan.execute")
    if executes:
        out["plan.execute_self_ms"] = sum(
            self_time(s, children) for s in executes) / len(executes) * 1e3
    stages = named("plan.stage")
    if stages:
        out["plan.stage_ms"] = _sum(stages) / len(stages) * 1e3

    # The APA product spans: engine calls, or the APA layers' matmuls.
    gemms = named("gemm")
    out["gemm.calls"] = len(named("gemm", window))
    if isinstance(workload, MlpTrain):
        products = [s for s in named("nn.matmul") if s.attrs.get("apa")]
    else:
        products = engine_spans
    if products and gemms:
        out["gemm.ms"] = _sum(gemms) / len(products) * 1e3
        out["gemm.share"] = _sum(gemms) / sum(
            s.duration * rec.requests[s.request].get("threads", 1)
            for s in products)
        out["gemm.gflops"] = sum(g.attrs["flops"] for g in gemms) \
            / _sum(gemms) / 1e9
    sets = [workload.untraced, workload.traced, *workload.hybrid.values()]
    out["numpy.gflops"] = sum(s.classical_flops for s in sets) / sum(
        sum(s.classical) for s in sets) / 1e9

    if isinstance(workload, MlpTrain):
        steps = named("nn.step")
        step_total = _sum(steps)
        matmuls = named("nn.matmul")
        optim = named("nn.optim")
        out["nn.step_ms"] = median([s.duration for s in steps]) * 1e3
        out["nn.matmul_calls"] = len(named("nn.matmul", window))
        out["nn.matmul_ms"] = _sum(matmuls) / len(steps) * 1e3
        out["nn.matmul_share"] = _sum(matmuls) / step_total
        out["nn.optim_ms"] = _sum(optim) / len(steps) * 1e3
        out["nn.other_ms"] = (step_total - _sum(matmuls) - _sum(optim)) \
            / len(steps) * 1e3
        out["nn.loss_gap"] = abs(workload.loss_gap()[0])

    if workload.reports:
        busy = idle = serial = wall_total = 0.0
        retries = failed = window_jobs = 0
        for cycle, wall, report in workload.reports:
            intervals = [(j.start, j.end) for j in report.jobs]
            lo = min(j.start for j in report.jobs)
            hi = max(j.end for j in report.jobs)
            job_time = sum(j.duration for j in report.jobs)
            busy += job_time
            wall_total += wall
            idle += HYBRID_THREADS * wall - job_time
            serial += wall - covered(lo, hi, intervals)
            if cycle == 1:
                window_jobs += len(report.jobs)
                retries += sum(j.attempts - 1 for j in report.jobs)
                failed += len(report.failed_jobs)
        n = len(workload.reports)
        out["parallel.jobs"] = window_jobs
        out["parallel.busy_share"] = busy / (HYBRID_THREADS * wall_total)
        out["parallel.idle_ms"] = idle / n * 1e3
        out["parallel.serial_ms"] = serial / n * 1e3
        out["parallel.retries"] = retries
        out["parallel.failed_jobs"] = failed

    t, u = workload.traced.apa, workload.untraced.apa
    out["trace.overhead"] = median(t) / median(u)
    out["trace.overhead_tail"] = workload.tail(t) / workload.tail(u)
    return {name: (float(value), PER_LAYER_UNITS[name])
            for name, value in out.items()}


def write_spans(rec, path):
    spans = []
    for s in rec.spans:
        d = s.as_dict()
        d.pop("plan", None)
        spans.append(d)
    with open(path, "w") as fh:
        json.dump({"requests": rec.requests, "spans": spans}, fh)


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-cycles", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to this file")
    args = parser.parse_args(argv)

    rec = LayerTracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, rec)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    # The program's peak memory: imports, operands and the first call of
    # every configuration (where plans and workspaces are built).  It is
    # read before the float64 references and checks allocate anything.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}))
        return 0
    workload.references()

    def stats():
        s, p = workload.cache.stats(), pool_stats()
        return {"hits": s["hits"], "misses": s["misses"],
                "evictions": s["evictions"], "resizes": p["resizes"]}

    def enough(index):
        if args.min_cycles is not None:
            return index >= (2 if args.trace else 1) * args.min_cycles
        need = min_samples(workload.tail_percentile)
        halves = (workload.untraced, workload.traced) if args.trace \
            else (workload.untraced,)
        return all(len(s.apa) >= need for s in halves)

    if args.min_cycles is not None:
        workload.beyond = 0
    window_stats = None
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        before = stats() if index == 1 else None
        workload.cycle(index, traced)
        if before is not None:
            after = stats()
            window_stats = {k: after[k] - before[k] for k in after}
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= args.seconds
                                     and enough(index)):
            break
    measured_s = time.perf_counter() - start

    extra = workload.finish()
    result = {**extra,
              "attempted": workload.attempted, "failed": workload.failed,
              "correct": workload.failed == 0, "errors": workload.errors,
              "setup_s": setup_s, "measured_s": measured_s,
              "cycles": index, "host": fingerprint(),
              "peak_rss_mb": peak_rss_mb}
    if args.trace:
        result["per_layer"] = per_layer(workload, rec, window_stats)
        if args.spans:
            write_spans(rec, args.spans)
    else:
        result["end_to_end"], result["info"] = workload.end_to_end()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
