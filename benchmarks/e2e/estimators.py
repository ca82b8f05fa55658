"""Order statistics and the slice-median estimator.

Every timing/throughput number the runner reports is computed once per
fixed-length slice of the timed window and then reduced to the **median
of slices**: one noisy-neighbour burst lands in one slice and is
trimmed, where a whole-window mean or percentile would carry it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

__all__ = ["percentile", "median", "slice_samples", "slice_medians"]

#: one completed request: (completion time, latency seconds)
Sample = Tuple[float, float]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    """The usual median (mean of the middle two on even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def slice_samples(samples: Sequence[Sample], start: float,
                  slice_seconds: float, slices: int
                  ) -> List[List[float]]:
    """Latencies grouped by the slice their request **completed** in;
    completions outside ``[start, start + slices * slice_seconds)``
    are dropped."""
    grouped: List[List[float]] = [[] for _ in range(slices)]
    for finished, latency in samples:
        number = math.floor((finished - start) / slice_seconds)
        if 0 <= number < slices:
            grouped[number].append(latency)
    return grouped


def slice_medians(samples: Sequence[Sample], start: float,
                  slice_seconds: float, slices: int
                  ) -> Dict[str, float]:
    """p50 / p95 latency (seconds) and completions per second, each
    computed per slice and reduced to the median of slices.

    ``tail_samples`` is the smallest number of samples beyond p95 in
    any slice: below 10 the p95 is not supported by its sample.
    """
    grouped = slice_samples(samples, start, slice_seconds, slices)
    if any(not latencies for latencies in grouped):
        raise ValueError("a slice of the timed window completed "
                         "no request")
    return {
        "p50": median([percentile(latencies, 0.50)
                       for latencies in grouped]),
        "p95": median([percentile(latencies, 0.95)
                       for latencies in grouped]),
        "per_second": median([len(latencies) / slice_seconds
                              for latencies in grouped]),
        "tail_samples": float(min(
            len(latencies) - math.ceil(0.95 * len(latencies))
            for latencies in grouped)),
    }
