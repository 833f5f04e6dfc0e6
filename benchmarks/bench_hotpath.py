"""Hot-path smoke benchmark: plan-cached vs cold-path execution.

Unlike the figure benches, this one guards the *repo's own* perf
trajectory: it times repeated same-shape ``apa_matmul`` calls and a
short MLP train step with and without the plan-and-arena engine
(:mod:`repro.bench.hotpath`), writes ``benchmarks/out/BENCH_hotpath.json``,
and can gate on a minimum speedup (the CI smoke job uses
``--min-speedup 1.5``).

Run directly::

    python benchmarks/bench_hotpath.py [--quick] [--min-speedup 1.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="bini322")
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--iters", type=int, default=40)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="fewer iterations/repeats (CI smoke)")
    parser.add_argument("--no-train", action="store_true",
                        help="skip the MLP train-step comparison")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit 1 if the warm matmul speedup is below "
                             "this (0 disables the gate)")
    parser.add_argument("--max-engine-overhead", type=float, default=0.02,
                        help="exit 1 if the engine-shim dispatch overhead "
                             "(paired median vs the direct plan path) "
                             "exceeds this fraction (default 0.02; "
                             "negative disables the gate)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "BENCH_hotpath.json")
    args = parser.parse_args(argv)

    from repro.bench.hotpath import format_hotpath, run_hotpath

    if args.quick:
        args.iters = min(args.iters, 20)
        args.repeats = min(args.repeats, 2)

    result = run_hotpath(
        algorithm=args.algorithm, n=args.n, iters=args.iters,
        steps=args.steps, repeats=args.repeats, train=not args.no_train,
    )
    print(format_hotpath(result))

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_speedup and result.matmul_speedup < args.min_speedup:
        print(f"FAIL: warm speedup {result.matmul_speedup:.2f}x is below "
              f"the {args.min_speedup:.2f}x gate", file=sys.stderr)
        return 1
    if args.max_engine_overhead >= 0 \
            and result.engine_overhead > args.max_engine_overhead:
        print(f"FAIL: engine dispatch overhead "
              f"{result.engine_overhead * 100:+.2f}% exceeds the "
              f"{args.max_engine_overhead * 100:.2f}% gate",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
