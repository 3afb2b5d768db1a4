"""Summary statistics the benchmark reports.

Pure functions over plain lists of floats, so they are tested on their
own (``test_stats.py``) apart from any workload.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "tail_percentile", "summarize", "quartile_spread",
           "open_loop_latencies"]

#: percentiles a tail may be reported at, lowest first, in tenths of a
#: percent so the rule below is exact integer arithmetic
TAIL_LADDER = (750, 900, 950, 990, 999)
#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10
#: below this many samples only the median is reported
MIN_SAMPLES_FOR_TAIL = 40


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    data = sorted(float(v) for v in values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it.

    ``None`` below forty samples: a tail read from fewer samples is no
    tail, so only the median is reported then.
    """
    if n < MIN_SAMPLES_FOR_TAIL:
        return None
    best = None
    for q in TAIL_LADDER:
        if n * (1000 - q) >= TAIL_MIN_BEYOND * 1000:
            best = q / 10.0
    return best


def summarize(values) -> dict:
    """Median, sample count and the tail the sample supports."""
    n = len(values)
    out = {"n": n, "p50": percentile(values, 50.0) if n else None}
    q = tail_percentile(n)
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as ``statistics`` gives them.

    Uses ``statistics.quantiles(values, n=4)`` (its default exclusive
    method), the same quartiles the steadiness criterion is defined on.
    """
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else math.inf
    return med, q1, q3, spread


def open_loop_latencies(due, replied) -> list[float]:
    """Latency of each open-loop request, timed from when it was due.

    Timing from the due time rather than from the actual send counts the
    wait a stalled generator or server imposes on later requests.
    """
    if len(due) != len(replied):
        raise ValueError("due and replied must pair up")
    out = []
    for d, r in zip(due, replied):
        if r < d:
            raise ValueError("a reply cannot precede its due time")
        out.append(r - d)
    return out
