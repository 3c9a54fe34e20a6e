import math

import pytest

from cachecast import selection
from cachecast.channel import RngStream, SystemConfig
from cachecast.mathx import lambert_w, maximize_1d
from cachecast.selection import (
    empirical_optimal_threshold,
    optimal_threshold_rayleigh,
    simulated_selection_rate,
    snr_above_probability,
)


def test_closed_form_is_stationary():
    # maximizer of f(s) = exp(-s/P) ln(1+s); central difference at s*
    for P in (10.0, 1e3, 1e5):
        s = optimal_threshold_rayleigh(P)
        f = lambda t: math.exp(-t / P) * math.log1p(t)
        h = 1e-4 * (1 + s)
        deriv = (f(s + h) - f(s - h)) / (2 * h)
        # truncation error of the central difference dominates the residual
        assert abs(deriv) < 1e-8
    with pytest.raises(ValueError):
        optimal_threshold_rayleigh(0.0)


def test_snr_above_probability():
    scenario = SystemConfig(num_users=3, num_tx_antennas=1, total_power=100.0)
    assert snr_above_probability(scenario, 0.0) == 1.0
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        snr_above_probability(scenario, -1.0)
    # NaN used to report a false "_upper_gamma_cf did not converge"
    with pytest.raises(ValueError, match=r"^threshold: expected a number, got nan$"):
        snr_above_probability(scenario, math.nan)
    selecting = SystemConfig(
        num_users=3, num_tx_antennas=1, total_power=100.0, normalized_cache=0.1
    )
    with pytest.raises(ValueError, match=r"^threshold: expected a number, got nan$"):
        simulated_selection_rate(selecting, math.nan, RngStream(0), 10)
    assert snr_above_probability(scenario, 50.0) == pytest.approx(math.exp(-0.5), rel=1e-10)
    # multi-antenna tail is the Gamma(nt) survival at nt*s/P
    four = SystemConfig(num_users=3, num_tx_antennas=4, total_power=100.0)
    assert 0.0 < snr_above_probability(four, 100.0) < 1.0


def test_simulated_rate_and_fraction():
    scenario = SystemConfig(
        num_users=2_000, num_tx_antennas=1, total_power=1000.0, normalized_cache=0.05
    )
    s = optimal_threshold_rayleigh(1000.0)
    est = simulated_selection_rate(scenario, s, RngStream(4), 20_000)
    assert est.rate.mean > 0
    assert est.selected_fraction == pytest.approx(math.exp(-s / 1000.0), abs=5e-4)
    again = simulated_selection_rate(scenario, s, RngStream(4), 20_000)
    assert est.rate.mean == again.rate.mean


def test_simulated_rate_validation():
    multi = SystemConfig(
        num_users=4, num_tx_antennas=1, total_power=10.0, num_subchannels=2, normalized_cache=0.1
    )
    with pytest.raises(ValueError):
        simulated_selection_rate(multi, 1.0, RngStream(0), 10)


def test_empirical_threshold_near_closed_form():
    P = 1000.0
    s_star = optimal_threshold_rayleigh(P)
    scenario = SystemConfig(
        num_users=10_000, num_tx_antennas=1, total_power=P, normalized_cache=0.05
    )
    s_emp = empirical_optimal_threshold(
        scenario, RngStream(5), 50_000, bracket=(0.3 * s_star, 3.0 * s_star)
    )
    assert s_emp == pytest.approx(s_star, rel=0.1)
    rerun = empirical_optimal_threshold(
        scenario, RngStream(5), 50_000, bracket=(0.3 * s_star, 3.0 * s_star)
    )
    assert s_emp == rerun


@pytest.mark.parametrize(
    "num_users, samples, P",
    [(200, 300, 100.0), (1, 50, 100.0), (10**6, 40, 100.0), (100, 2000, 1000.0)],
    ids=["200-300", "1-50", "1000000-40", "100-2000-30dB"],
)
def test_empirical_threshold_is_the_argmax_of_the_simulated_rate(num_users, samples, P):
    # the mean-only objective on the search's one shared draw picks the same
    # threshold as the full estimate's mean on a restarted stream
    scenario = SystemConfig(
        num_users=num_users, num_tx_antennas=1, total_power=P, normalized_cache=0.1
    )
    bracket = (1.0, 3.0 * optimal_threshold_rayleigh(P))
    expected, _ = maximize_1d(
        lambda s: simulated_selection_rate(scenario, s, RngStream(7), samples).rate.mean,
        *bracket,
        tol=selection._SEARCH_TOL,
        grid_points=41,
    )
    assert empirical_optimal_threshold(scenario, RngStream(7), samples, bracket) == expected


def test_threshold_search_draws_its_stream_once(monkeypatch):
    # K = 100 at 30 dB, as in fig2: the candidates near s* are in numpy's
    # inversion regime and read the search's one draw; only the BTPE-regime
    # candidates (min(p, 1 - p) * K > 30) restart the stream
    K, P = 100, 1000.0
    scenario = SystemConfig(num_users=K, num_tx_antennas=1, total_power=P, normalized_cache=0.1)
    made, tails = [], []
    real_generator, real_sampler = RngStream.generator, selection.selection_rate_samples
    monkeypatch.setattr(RngStream, "generator", lambda self: made.append(1) or real_generator(self))
    monkeypatch.setattr(
        selection,
        "selection_rate_samples",
        lambda m, K, above, *rest: tails.append(above) or real_sampler(m, K, above, *rest),
    )
    s_star = optimal_threshold_rayleigh(P)
    empirical_optimal_threshold(scenario, RngStream(7), 2000, (0.3 * s_star, 3.0 * s_star))
    btpe = sum((p if p <= 0.5 else 1.0 - p) * K > 30.0 for p in tails)
    assert 0 < btpe < len(tails) / 2
    assert len(made) <= 1 + btpe


def test_empirical_threshold_validation():
    multi = SystemConfig(
        num_users=4, num_tx_antennas=1, total_power=10.0, num_subchannels=2, normalized_cache=0.1
    )
    with pytest.raises(ValueError, match="L = 1"):
        empirical_optimal_threshold(multi, RngStream(0), 10, bracket=(1.0, 5.0))
    single = SystemConfig(num_users=4, num_tx_antennas=1, total_power=10.0, normalized_cache=0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        empirical_optimal_threshold(single, RngStream(0), 10, bracket=(-1.0, 5.0))


def test_selected_fraction_limit():
    # at s* the surviving fraction tends to exp(1/P - 1/W(P))
    P = 1000.0
    s_star = optimal_threshold_rayleigh(P)
    assert math.exp(-s_star / P) == pytest.approx(
        math.exp(1.0 / P - 1.0 / lambert_w(P)), rel=1e-12
    )
