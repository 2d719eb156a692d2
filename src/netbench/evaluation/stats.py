"""Binomial summary statistics for benchmark rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ZeroSamples

Z95 = 1.96


@dataclass(frozen=True)
class Ci:
    rate: float
    lo: float
    hi: float


def ci95(successes: int, n: int) -> Ci:
    """Normal-approximation 95% interval for a success rate, clamped to [0,1]."""
    if n <= 0:
        raise ZeroSamples("cannot form a confidence interval from zero samples")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must be in [0, {n}], got {successes}")
    p = successes / n
    delta = Z95 * math.sqrt(p * (1.0 - p) / n)
    return Ci(rate=p, lo=max(0.0, p - delta), hi=min(1.0, p + delta))
