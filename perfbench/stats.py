"""Summary statistics shared by the benchmark worker, launcher and tests.

Standard library only: the launcher imports this before any numpy is
loaded, so the BLAS thread pins it sets stay in force for the worker.
"""

from __future__ import annotations

import statistics

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def tail(values, percentile: int, beyond: int = TAIL_BEYOND):
    """The sample at a fixed ``percentile``, with ``beyond`` samples above it.

    With ``n`` samples sorted ascending, the value is the one at rank
    ``ceil(n * percentile / 100)`` (1-based), which leaves
    ``n - rank`` samples above it: p75 of 48 samples is the 36th with
    12 above.  The percentile is fixed per workload, so runs of
    different length (a faster program fits more samples into the same
    seconds) estimate the same quantile.  Raises ``ValueError`` when
    fewer than ``beyond`` samples lie above it.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, -(-n * percentile // 100))
    if n - rank < beyond:
        raise ValueError(f"p{percentile} of {n} samples has {n - rank} "
                         f"beyond it, fewer than {beyond}")
    return ordered[rank - 1]


def min_samples(percentile: int, beyond: int = TAIL_BEYOND) -> int:
    """The fewest samples that leave ``beyond`` above ``percentile``."""
    return -(-beyond * 100 // (100 - percentile))


def quartile_spread(values):
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)``, the rule the benchmark's
    stability check is judged by.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
