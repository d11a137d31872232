"""Percentiles that say how many samples they rest on."""

from __future__ import annotations

import math

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``, or ``None``
    when fewer than :data:`MIN_BEYOND` samples lie above it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]

