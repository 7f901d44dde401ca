"""Order statistics the harness reports, kept free of numpy and of ``repro``
so the self-tests and ``repeat.py`` can import them anywhere."""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples a percentile needs beyond it to be reported.
BEYOND = 10


def highest_supported_percentile(count: int) -> float:
    """The highest candidate percentile with at least ``BEYOND`` samples
    above it in a sample of ``count``; 50 when even p75 is not supported."""
    for q in TAIL_CANDIDATES:
        if round(count * (100.0 - q) / 100.0, 6) >= BEYOND:  # 100 - 99.9 is inexact
            return q
    return 50.0


def block_median(blocks: Sequence[Sequence[float]]) -> float:
    """Median across blocks of each block's median.

    A block that fell into one of the host's slow spells moves a pooled
    statistic; it moves this one only when most blocks are slow.
    """
    if not blocks or any(not block for block in blocks):
        raise ValueError("block_median needs non-empty blocks")
    return statistics.median(statistics.median(block) for block in blocks)


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(values, n=4)``
    gives them: the spread the benchmark contract bounds."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def range_share(values: Sequence[float]) -> float:
    """(max - min) / median."""
    return (max(values) - min(values)) / statistics.median(values)


def half_width(estimate: Mapping) -> float:
    """Half of an estimate's 95 % CI width, floored by the rule of three.

    An estimate whose every round was reliable reports a zero-width
    interval; the truth may still sit up to ~3/n below it.
    """
    return max(estimate["confidence_interval_width"] / 2.0, 3.0 / estimate["rounds"])


def estimates_agree(a: Mapping, b: Mapping, tolerance: float) -> bool:
    """Whether two estimates (``score``, ``confidence_interval_width``,
    ``rounds``, as ``repro.serialization`` writes them) differ by at most
    ``tolerance`` combined half-widths; half-widths add in quadrature."""
    combined = math.hypot(half_width(a), half_width(b))
    return abs(a["score"] - b["score"]) <= tolerance * combined
