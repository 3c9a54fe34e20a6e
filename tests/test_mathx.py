import math
import sys

import numpy as np
import pytest
from scipy import special

from cachecast import mathx
from cachecast.experiments import FIG1_P_DB, FIG2_P_DB, db_to_linear
from cachecast.mathx import (
    DEFAULT_TOL,
    ToleranceSpec,
    lambert_w,
    maximize_1d,
    reg_lower_gamma,
    reg_upper_gamma,
)


def test_tolerance_spec_validation():
    with pytest.raises(ValueError):
        ToleranceSpec(rel_tol=-1.0, abs_tol=1e-12, max_iter=10)
    with pytest.raises(ValueError):
        ToleranceSpec(rel_tol=1e-12, abs_tol=1e-12, max_iter=0)
    bad = [(key, v) for key in ("rel_tol", "abs_tol") for v in (math.nan, math.inf, True, 0.0)]
    for key, value in bad + [("max_iter", 2.5), ("max_iter", True)]:
        with pytest.raises(ValueError, match=f"^{key}: "):
            ToleranceSpec(**{key: value})


def test_lambert_w_inverse_identity():
    for x in [1e-6, 1e-3, 0.5, 1.0, math.e, 10.0, 1e3, 1e6, 1e9]:
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-10 * (1.0 + x)


def test_lambert_w_matches_scipy():
    xs = np.geomspace(1e-4, 1e8, 40)
    ours = np.array([lambert_w(float(x)) for x in xs])
    ref = special.lambertw(xs).real
    np.testing.assert_allclose(ours, ref, rtol=1e-9)


def test_lambert_w_edge_cases():
    assert lambert_w(0.0) == 0.0
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            lambert_w(bad)


@pytest.mark.parametrize("x", [3.7e302, 1e305, 2.6e305, 1e308, sys.float_info.max])
def test_lambert_w_stays_finite_up_to_the_largest_float(x):
    # above about 3.7e302 Halley's step on w e^w - x overflows; the log form
    # w + ln w = ln x takes over
    w = lambert_w(x)
    assert math.isfinite(w)
    assert w + math.log(w) == pytest.approx(math.log(x), rel=4 * sys.float_info.epsilon)


@pytest.mark.parametrize("x", [1e10, 1e305], ids=["halley", "newton"])
def test_lambert_w_raises_at_its_iteration_cap(x, monkeypatch):
    # one iteration converges neither loop from the log1p seed
    monkeypatch.setattr(mathx, "DEFAULT_TOL", ToleranceSpec(max_iter=1))
    with pytest.raises(ValueError) as exc:
        lambert_w(x)
    assert str(exc.value) == f"lambert_w did not converge at x = {x!r}"


def test_regularized_gammas_match_scipy():
    shapes = [1, 2, 5, 17, 64]
    xs = [1e-3, 0.5, 1.0, 3.0, 20.0, 80.0]
    for a in shapes:
        for x in xs:
            assert reg_lower_gamma(a, x) == pytest.approx(special.gammainc(a, x), abs=1e-12)
            assert reg_upper_gamma(a, x) == pytest.approx(special.gammaincc(a, x), abs=1e-12)


def test_gammas_complement():
    for a in (1, 3, 10):
        for x in (0.2, 2.0, 9.0):
            assert reg_lower_gamma(a, x) + reg_upper_gamma(a, x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "fn, shape, x, routine",
    [
        (reg_lower_gamma, 2e5, 2e5, "_lower_gamma_series"),
        (reg_lower_gamma, 1e6, 1e6, "_lower_gamma_series"),
        (reg_upper_gamma, 1e8, 1e8 + 1, "_upper_gamma_cf"),
    ],
)
def test_regularized_gammas_raise_at_their_iteration_cap(fn, shape, x, routine):
    # at the cap the partial sums were off scipy's value (0.4774 for 0.5001
    # at shape 1e6), so the loops raise rather than return them
    with pytest.raises(ValueError) as exc:
        fn(shape, x)
    assert str(exc.value) == f"{routine} did not converge at (shape, x) = ({shape!r}, {x!r})"


@pytest.mark.parametrize(
    "shape, x, message",
    [(0.0, 1.0, "shape must be positive, got 0.0"), (1.0, -1.0, "x must be nonnegative, got -1.0")],
)
def test_regularized_gammas_reject_a_bad_shape_or_x(shape, x, message):
    for fn in (reg_lower_gamma, reg_upper_gamma):
        with pytest.raises(ValueError) as exc:
            fn(shape, x)
        assert str(exc.value) == message


def _reached_special_function_calls():
    # what `check`, fig1/fig2 and the acceptance criteria pass: integer shapes
    # 1-64 around the series/continued-fraction switch (with check's 0.1586 nt),
    # nt = 1 tails at every scanned threshold of fig2's bracket and criterion
    # 01's, and Lambert W over every power the CLI accepts (P_dB -3230..3082)
    calls = [
        (fn, nt, nt * f)
        for fn in (reg_lower_gamma, reg_upper_gamma)
        for nt in range(1, 65)
        for f in (1e-3, 0.01, 0.1, 0.1586, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0, 100.0)
    ]
    for p_db in FIG1_P_DB + FIG2_P_DB:
        P = db_to_linear(p_db)
        s_star = P / lambert_w(P) - 1.0
        for lo, hi in ((1.0, 3.0 * s_star), (0.3 * s_star, 3.0 * s_star)):
            calls += [(reg_upper_gamma, 1, (lo + i * (hi - lo) / 40) / P) for i in range(41)]
    calls += [(lambert_w, db_to_linear(p_db)) for p_db in range(-3230, 3083)]
    return calls


def test_special_functions_stay_far_from_their_iteration_caps(monkeypatch):
    # with every cap cut to a tenth, each reached call still returns the same
    # float, so none comes near the cap it would raise at
    calls = _reached_special_function_calls()
    expected = [fn(*args) for fn, *args in calls]
    monkeypatch.setattr(mathx, "DEFAULT_TOL", ToleranceSpec(max_iter=DEFAULT_TOL.max_iter // 10))
    assert [fn(*args) for fn, *args in calls] == expected


def test_maximize_1d_quadratic():
    x, val = maximize_1d(lambda t: -(t - 1.3) ** 2 + 2.0, 0.0, 4.0, tol=DEFAULT_TOL)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_maximize_1d_boundary():
    x, val = maximize_1d(lambda t: t, 0.0, 2.0, tol=DEFAULT_TOL)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert val == pytest.approx(2.0, abs=1e-6)


def test_maximize_1d_returns_a_scanned_end_that_ties_the_best():
    # the maximum 1.0 is reached at the grid point x = 1 and again at the end x = 4
    f = lambda t: 1.0 - min(abs(t - 1.0), abs(t - 4.0))
    assert maximize_1d(f, 0.0, 4.0, grid_points=5) == (4.0, 1.0)
    # on a flat objective the first end wins
    assert maximize_1d(lambda t: 0.5, 0.0, 4.0, grid_points=5) == (0.0, 0.5)


def test_maximize_1d_names_an_all_nan_scan():
    with pytest.raises(ValueError, match=r"maximize_1d: .*grid scan on \[0\.0, 1\.0\] is NaN"):
        maximize_1d(lambda x: math.nan, 0.0, 1.0, grid_points=5)
    # a partly NaN scan still returns its best number
    assert maximize_1d(lambda x: math.nan if x < 0.5 else -x, 0.0, 1.0, grid_points=5) == (0.5, -0.5)


def test_maximize_1d_multimodal_picks_global():
    # two bumps, the right one is higher; the grid stage must find its basin
    f = lambda t: math.exp(-40 * (t - 0.2) ** 2) + 1.5 * math.exp(-40 * (t - 0.8) ** 2)
    x, _ = maximize_1d(f, 0.0, 1.0, tol=DEFAULT_TOL, grid_points=65)
    assert x == pytest.approx(0.8, abs=1e-4)


@pytest.mark.parametrize("grid_points", [2, 1, 0])
def test_maximize_1d_rejects_a_grid_below_three_points(grid_points):
    calls = []
    with pytest.raises(ValueError, match=f"need grid_points >= 3, got {grid_points}"):
        maximize_1d(lambda x: calls.append(x) or 0.0, 0.0, 1.0, grid_points=grid_points)
    assert calls == []


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
def test_maximize_1d_rejects_an_empty_bracket(lo, hi):
    calls = []
    with pytest.raises(ValueError, match=rf"^need lo < hi, got \[{lo}, {hi}\]$"):
        maximize_1d(lambda x: calls.append(x) or 0.0, lo, hi)
    assert calls == []
