"""Monte-Carlo estimate containers shared across the simulators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RateEstimate"]


@dataclass(frozen=True)
class RateEstimate:
    """Sample mean of a nonnegative rate (nats/s/Hz) with its standard error.

    The rows that carry an estimate record the (seed, samples, config) it
    was drawn from; the same triple always yields the same estimate.
    """

    mean: float
    std_err: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "RateEstimate":
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        if n == 0:
            raise ValueError("need at least one sample")
        mean = float(values.mean())
        std_err = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(mean=mean, std_err=std_err)

    def scaled(self, factor: float) -> "RateEstimate":
        """Estimate of factor * quantity (factor deterministic)."""
        return RateEstimate(mean=factor * self.mean, std_err=abs(factor) * self.std_err)
