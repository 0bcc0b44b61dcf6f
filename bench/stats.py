"""Order statistics for the benchmark: a percentile that refuses to report
what the sample cannot support, and the quartile spread ``diff`` compares
against a metric's bound."""

from __future__ import annotations

import statistics

#: A percentile is reported only with this many samples beyond it; with
#: fewer, it is one or two slow requests, not a property of the system.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample is too small for the requested percentile."""


def samples_needed(percent: float) -> int:
    """The smallest sample that leaves ``MIN_SAMPLES_BEYOND`` values above
    the ``percent``-th percentile (p95 → 200, p99 → 1000)."""
    return round(MIN_SAMPLES_BEYOND / (1.0 - percent / 100.0))


def percentile(values: list[float], percent: float) -> float:
    """The ``percent``-th percentile (nearest rank).  Raises
    :class:`TooFewSamples` unless at least ``MIN_SAMPLES_BEYOND`` samples
    lie beyond it; the median needs only one sample."""
    if not values:
        raise TooFewSamples("no samples")
    if percent > 50 and len(values) < samples_needed(percent):
        raise TooFewSamples(
            f"p{percent:g} needs {samples_needed(percent)} samples "
            f"({MIN_SAMPLES_BEYOND} beyond it), got {len(values)}"
        )
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))  # ceil, 1-based
    return ordered[int(rank) - 1]


def percentile_or_none(values: list[float], percent: float) -> float | None:
    """:func:`percentile`, with an unsupported percentile as ``None``."""
    try:
        return percentile(values, percent)
    except TooFewSamples:
        return None


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread a bound is compared against."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else float("inf")
