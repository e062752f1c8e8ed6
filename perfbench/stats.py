"""Summary statistics shared by the benchmark and its tests."""

import math
import statistics

# Percentiles a tail is reported at, highest first.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p):
    """Nearest-rank percentile of `values` (inf sorts last)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """Highest percentile <= 99 that has at least 10 samples beyond it.

    With n samples, percentile p leaves n * (1 - p/100) samples above it;
    a tail is only reported where that is at least 10. Returns None when
    even the median is not supported (n < 20).
    """
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def latency_summary(latencies_s):
    """Median and supported tail of request latencies, in milliseconds.

    `latencies_s` holds one entry per attempted request; a failed, shed or
    wrong request is float('inf'), so it counts as missing every limit.
    """
    n = len(latencies_s)
    tail = tail_percentile(n)
    if tail is None:
        raise ValueError(f"{n} samples cannot support a median and a tail")
    return {
        "samples": n,
        "p50_ms": percentile(latencies_s, 50.0) * 1e3,
        "tail_percentile": tail,
        "tail_ms": percentile(latencies_s, tail) * 1e3,
    }


def median(values):
    return statistics.median(values)


def block_percentile(blocks, p):
    """Median over blocks of each block's p-th percentile.

    A stall during one block moves that block's percentile only.
    """
    return median([percentile(b, p) for b in blocks])


def closed_rate(start, done_times, ok):
    """OK completions per second, from `start` to the last completion."""
    if not done_times:
        raise ValueError("rate of no completions")
    return sum(ok) / (max(done_times) - start)
