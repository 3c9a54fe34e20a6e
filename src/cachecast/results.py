"""Monte-Carlo estimate containers shared across the simulators."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RateEstimate", "check_finite_rates", "rates_overflow_by_power"]

_OVERFLOW = "P_dB: the power overflows a rate past the float range"


def check_finite_rates(values) -> None:
    """The one overflow rule: a rate that is not finite means its power overflowed a float."""
    if not np.isfinite(values).all():
        raise ValueError(_OVERFLOW)


@contextlib.contextmanager
def rates_overflow_by_power():
    """Rate arithmetic inside fails by the overflow rule at its first float overflow.

    numpy would warn and carry an inf on, which a later min over users can
    hide; this raises instead, with no warning.  numpy's error state belongs
    to the running context, and a pool worker starts in a fresh one, so
    each estimator enters this in the thread that computes its rates.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(_OVERFLOW) from None


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
            raise ValueError("samples: need at least one sample")
        check_finite_rates(values)
        mean = float(values.mean())
        std_err = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(mean=mean, std_err=std_err)

    def scaled(self, factor: float) -> "RateEstimate":
        """Estimate of factor * quantity (factor deterministic)."""
        return RateEstimate(mean=factor * self.mean, std_err=abs(factor) * self.std_err)
