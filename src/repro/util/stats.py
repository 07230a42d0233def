"""Tiny statistics helpers used by benchmarks and the simulators.

Kept dependency-free (no numpy import) so the core library works anywhere;
benchmarks that want heavier analysis import numpy themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in [0, 100]).

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (pct / 100) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[lower])
    frac = rank - lower
    lo, hi = ordered[lower], ordered[upper]
    # The ``lo + frac * (hi - lo)`` form is monotone in ``frac`` under
    # rounding (unlike ``lo*(1-frac) + hi*frac``), and clamping to the
    # bracketing pair — not the whole sample — keeps ulp-scale rounding
    # from ever making the result non-monotone in ``pct``.
    value = lo + frac * (hi - lo)
    return float(min(max(value, lo), hi))


def nearest_percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-index percentile: the sorted sample at ``int(fraction * n)``.

    ``fraction`` is in [0, 1]; the index is clamped to the last sample,
    and an empty sample gives 0.0. Unlike :func:`percentile` it never
    interpolates, so it always returns an observed value.

    >>> nearest_percentile([4, 1, 3, 2], 0.5)
    3
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p99: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.4g} sd={self.stdev:.4g} "
            f"min={self.minimum:.4g} p50={self.p50:.4g} "
            f"p99={self.p99:.4g} max={self.maximum:.4g}"
        )


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` over ``values``."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("summarize of empty sequence")
    mean = sum(data) / len(data)
    if len(data) > 1:
        var = sum((v - mean) ** 2 for v in data) / (len(data) - 1)
    else:
        var = 0.0
    return Summary(
        count=len(data),
        mean=mean,
        stdev=math.sqrt(var),
        minimum=min(data),
        p50=percentile(data, 50),
        p99=percentile(data, 99),
        maximum=max(data),
    )
