"""Scalar special functions, one quadrature and a 1-D maximizer.

Everything here is hand-rolled on purpose, for two measured reasons.
scipy's routines round differently in the last bits: on 2000 log-uniform
x in [1e-3, 1e8], `special.lambertw` differed from `lambert_w` on 895,
and on 4000 (shape, x) pairs with integer shape in [1, 64],
`special.gammaincc` differed from `reg_upper_gamma` on 1789.  The
thresholds, and so the seeded fig1 and fig2 rows, would move.  And the
command line stays free of scipy, which costs about 0.27 s to import.
The routines are cross-checked against scipy and independent quadrature
in the test suite.  `tail_integral`, composite Gauss-Legendre over a
survival function, is the closed forms' one quadrature.  All functions are
pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from .channel import check_count, check_number

__all__ = [
    "ToleranceSpec",
    "DEFAULT_TOL",
    "lambert_w",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "tail_integral",
    "maximize_1d",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ToleranceSpec:
    """Stopping rule shared by the iterative routines."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        check_number("rel_tol", self.rel_tol, 0.0, math.inf, open=True)
        check_number("abs_tol", self.abs_tol, 0.0, math.inf, open=True)
        check_count("max_iter", self.max_iter)


DEFAULT_TOL = ToleranceSpec()


def lambert_w(x: float) -> float:
    """Principal branch of w * exp(w) = x for finite x >= 0.

    Halley iteration seeded with log1p(x); the seed is already exact at the
    endpoints w(0) = 0 and asymptotically tight for large x, so a handful of
    iterations reach |w e^w - x| <= abs_tol * (1 + x).  Above about
    3.7e302, where Halley's step overflows, Newton's method solves
    w + ln w = ln x instead.  Either loop raises if it stops short.
    """
    if not math.isfinite(x):
        raise ValueError(f"lambert_w requires a finite x, got {x}")
    if x < 0.0:
        raise ValueError(f"lambert_w requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    tol = DEFAULT_TOL
    w = math.log1p(x)
    if math.isinf((w + 2.0) * (w * math.exp(w) - x)):
        log_x = math.log(x)
        for _ in range(tol.max_iter):
            step = (w + math.log(w) - log_x) / (1.0 + 1.0 / w)
            w -= step
            if abs(step) <= tol.rel_tol * w:
                return w
    else:
        for _ in range(tol.max_iter):
            ew = math.exp(w)
            f = w * ew - x
            if abs(f) <= tol.abs_tol * (1.0 + x):
                return w
            wp1 = w + 1.0
            # Halley step for f(w) = w e^w - x
            w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise ValueError(f"lambert_w did not converge at x = {x!r}")


def _lower_gamma_series(shape: float, x: float) -> float:
    # series for P(a, x) / prefactor, valid and fast for x < a + 1
    term = total = 1.0 / shape
    a = shape
    for _ in range(DEFAULT_TOL.max_iter * 10):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * DEFAULT_TOL.rel_tol:
            break
    else:
        raise ValueError(f"_lower_gamma_series did not converge at (shape, x) = ({shape!r}, {x!r})")
    return total


def _upper_gamma_cf(shape: float, x: float) -> float:
    # Lentz continued fraction for Q(a, x) / prefactor, valid for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - shape
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, DEFAULT_TOL.max_iter * 10):
        an = -i * (i - shape)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < DEFAULT_TOL.rel_tol:
            break
    else:
        raise ValueError(f"_upper_gamma_cf did not converge at (shape, x) = ({shape!r}, {x!r})")
    return h


def _reg_gamma(shape: float, x: float) -> Tuple[float, float]:
    """(P, Q) for P(shape, x), Q = 1 - P, each clamped to [0, 1].

    The series serves x < shape + 1 and the continued fraction the rest, each
    times x^shape e^-x / Gamma(shape); the other is one minus the computed one.
    """
    if shape <= 0.0:
        raise ValueError(f"shape must be positive, got {shape}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0, 1.0
    prefactor = math.exp(shape * math.log(x) - x - math.lgamma(shape))
    if x < shape + 1.0:
        p = _lower_gamma_series(shape, x) * prefactor
        return min(p, 1.0), max(1.0 - p, 0.0)
    q = _upper_gamma_cf(shape, x) * prefactor
    return max(1.0 - q, 0.0), min(q, 1.0)


def reg_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma P(shape, x) in [0, 1]."""
    return _reg_gamma(shape, x)[0]


def reg_upper_gamma(shape: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(shape, x) = 1 - P(shape, x)."""
    return _reg_gamma(shape, x)[1]


def tail_integral(weight: Callable[[float], float], tail: Callable[[float], float], start: float) -> float:
    """Integral over y >= 0 of weight(y) * tail(y), for tail(y) = P(Y > y) of some Y >= 0.

    So E[g(Y)] = g(0) + tail_integral(g', tail, start).  The range ends where
    the tail drops below 1e-18, found by doubling from `start` and halving
    back to within a factor two, so that the tail fills the range.  16 panels
    of 32 Gauss-Legendre nodes cover it, summed exactly.  A tail that never
    drops raises.
    """
    from numpy.polynomial.legendre import leggauss  # loaded on use: only the closed forms integrate
    check_number("start", start, 0.0, math.inf, open=True)
    hi = float(start)
    while not tail(hi) < 1e-18:
        hi *= 2.0
        if math.isinf(hi):
            raise ValueError(f"tail_integral: the tail does not drop below 1e-18 from start = {start!r}")
    while hi > 0.0 and tail(hi / 2.0) < 1e-18:
        hi /= 2.0
    nodes, weights = (a.tolist() for a in leggauss(32))
    width = hi / 16
    rule = [(width * (i + (x + 1.0) / 2.0), w) for i in range(16) for x, w in zip(nodes, weights)]
    return math.fsum(w * weight(y) * tail(y) for y, w in rule) * width / 2.0


def maximize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: ToleranceSpec = DEFAULT_TOL,
    grid_points: int = 65,
) -> Tuple[float, float]:
    """Grid scan followed by golden-section refinement of a 1-D maximum.

    The coarse scan makes the refinement target the global maximum of the
    scanned landscape; the golden stage then localizes it.  On flat or
    pathological objectives the best scanned point is returned.  A scanned
    end whose value ties the best wins, the first grid point before the
    last (lo + (grid_points - 1) * step), so a caller reads a boundary
    optimum off the returned x without evaluating the ends again.  A scan
    whose every value is NaN raises ValueError.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if grid_points < 3:
        raise ValueError(f"need grid_points >= 3, got {grid_points}")
    step = (hi - lo) / (grid_points - 1)
    i_best, best_x, best_f = None, lo, -math.inf
    values = []
    for i in range(grid_points):
        x = lo + i * step
        fx = f(x)
        values.append(fx)
        if fx > best_f or (i_best is None and fx == best_f):  # -inf may win, NaN never
            i_best, best_x, best_f = i, x, fx
    if i_best is None:
        raise ValueError(f"maximize_1d: every value of the grid scan on [{lo}, {hi}] is NaN")

    a = lo + max(i_best - 1, 0) * step
    b = lo + min(i_best + 1, grid_points - 1) * step

    # golden-section on [a, b]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(tol.max_iter):
        if b - a <= tol.abs_tol + tol.rel_tol * max(abs(a), abs(b), 1.0):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    for x, fx in ((x1, f1), (x2, f2)):
        if fx > best_f:
            best_x, best_f = x, fx
    for i in (0, grid_points - 1):
        if values[i] >= best_f:
            return lo + i * step, values[i]
    return best_x, best_f
