import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from cachecast.channel import (
    RngStream,
    SystemConfig,
    draw_channel_batch,
    sample_batches,
    scalars_per_draw,
    squared_row_norms,
    substacks,
)
from cachecast.multicast import (
    asymptotic_rate,
    avg_rate_parallel,
    avg_rate_quasistatic,
    extreme_value_scale,
    parallel_rate_bounds,
)
from cachecast.results import RateEstimate


def cfg(K, nt, P, L=1):
    return SystemConfig(num_users=K, num_tx_antennas=nt, total_power=P, num_subchannels=L)


def test_extreme_value_scale():
    assert extreme_value_scale(1, 100) == pytest.approx(100.0)
    assert extreme_value_scale(2, 50) == pytest.approx(2.0 * math.sqrt(25.0))
    # log-space evaluation survives huge K
    assert extreme_value_scale(3, 10**9) == pytest.approx(3 * (1e9 / 6) ** (1 / 3), rel=1e-12)


def test_regime_classification():
    small = asymptotic_rate(cfg(10_000, 2, 1.0))
    assert small.regime == "small_array" and small.power_regime == "vanishing"
    assert small.a_k == extreme_value_scale(2, 10_000)
    grown = asymptotic_rate(cfg(100, 2, 10_000.0))
    assert grown.regime == "small_array" and grown.power_regime == "growing"
    big = asymptotic_rate(cfg(100, 8, 0.5))
    assert big.regime == "large_array" and big.power_regime == "vanishing"
    assert big.value == 0.5


def test_single_user_rate_matches_quadrature():
    # K = 1, nt = 1: E[ln(1 + P|h|^2)] = e^{1/P} E1(1/P)
    P = 10.0
    reference = math.exp(1 / P) * float(special.exp1(1 / P))
    est = avg_rate_quasistatic(cfg(1, 1, P), RngStream(21), 200_000)
    assert abs(est.mean - reference) < 4 * est.std_err


def test_quasistatic_requires_single_subchannel():
    with pytest.raises(ValueError):
        avg_rate_quasistatic(cfg(2, 1, 1.0, L=2), RngStream(0), 10)


def test_parallel_reduces_to_quasistatic_at_l1():
    scenario = cfg(6, 2, 5.0)
    a = avg_rate_quasistatic(scenario, RngStream(5), 2_000)
    b = avg_rate_parallel(scenario, RngStream(5), 2_000)
    assert a.mean == b.mean and a.std_err == b.std_err


def test_more_subchannels_do_not_hurt_much():
    # averaging over independent sub-channels lifts the worst user
    one = avg_rate_parallel(cfg(50, 1, 10.0, L=1), RngStream(6), 20_000)
    four = avg_rate_parallel(cfg(50, 1, 10.0, L=4), RngStream(7), 20_000)
    assert four.mean > one.mean


def test_parallel_rate_sandwich():
    scenario = cfg(12, 3, 8.0, L=2)
    mid = avg_rate_parallel(scenario, RngStream(8), 30_000)
    lo, hi = parallel_rate_bounds(scenario, RngStream(8), 30_000)
    assert lo.mean <= mid.mean <= hi.mean


def test_parallel_rate_reduces_batches_in_draw_order():
    # K = 1000, nt = 10, L = 2 takes 40_000 normals per draw, so 250
    # samples are drawn in batches of 100, 100 and 50
    scenario = cfg(1000, 10, 30.0, L=2)
    batches = sample_batches(RngStream(24), 250, scalars_per_draw(scenario))
    counts = [rows.stop - rows.start for _, rows in batches]
    assert counts == [100, 100, 50]
    gen = RngStream(24).generator()
    values = []
    for n in counts:
        true, _, _ = draw_channel_batch(scenario, gen, n)
        values.append(np.log1p((30.0 / 10) * squared_row_norms(true)).mean(axis=1).min(axis=1))
    ref = RateEstimate.from_values(np.concatenate(values))
    assert avg_rate_parallel(scenario, RngStream(24), 250) == ref


def _one_shot_values(scenario, gen, n):
    # the single-stack formulas: one draw of n rows, reduced at once
    true, _, _ = draw_channel_batch(scenario, gen, n)
    norms = (true.real * true.real + true.imag * true.imag).sum(axis=-1)
    snr = (scenario.total_power / scenario.num_tx_antennas) * norms
    rate = np.log1p(snr).mean(axis=1).min(axis=1)
    per_antenna = scenario.total_power * (true.real**2 + true.imag**2)
    lower = np.log1p(per_antenna).mean(axis=(1, 3)).min(axis=1)
    upper = np.log1p(per_antenna.mean(axis=(1, 3)).min(axis=1))
    return rate, lower, upper


@pytest.fixture
def per_draw_values(monkeypatch):
    """The arrays handed to RateEstimate.from_values, and the generators made, in call order."""
    values, gens = [], []
    from_values, generator = RateEstimate.from_values.__func__, RngStream.generator

    def capture_values(cls, arr):
        values.append(np.array(arr))
        return from_values(cls, arr)

    def capture_generator(self):
        gens.append(generator(self))
        return gens[-1]

    monkeypatch.setattr(RateEstimate, "from_values", classmethod(capture_values))
    monkeypatch.setattr(RngStream, "generator", capture_generator)
    return values, gens


@pytest.mark.parametrize("s2", [0.0, 1.0, 0.1])
@pytest.mark.parametrize(
    # (1000, 10, 2) takes 40_000 normals per draw: every sub-stack is one row
    "K, nt, L, samples",
    [(500, 1, 1, 4500), (400, 1, 3, 2000), (400, 4, 1, 1300), (1000, 10, 2, 101)],
)
def test_substack_draws_match_one_shot_formulas(K, nt, L, samples, s2, per_draw_values):
    scenario = SystemConfig(
        num_users=K, num_tx_antennas=nt, total_power=30.0, num_subchannels=L, csit_error_var=s2
    )
    values, gens = per_draw_values
    per_draw = scalars_per_draw(scenario)
    counts = [r.stop - r.start for _, r in sample_batches(RngStream(31), samples, per_draw)]
    assert len(counts) >= 2 and sum(len(list(substacks(n, per_draw))) for n in counts) >= 3
    ref_gen = RngStream(31).generator()
    batches = [_one_shot_values(scenario, ref_gen, n) for n in counts]
    rate, lower, upper = (np.concatenate(parts) for parts in zip(*batches))
    avg_rate_parallel(scenario, RngStream(31), samples)
    parallel_rate_bounds(scenario, RngStream(31), samples)
    assert len(values) == 3
    assert all(np.array_equal(a, b) for a, b in zip(values, (rate, lower, upper)))
    # four sub-stacks, the last of one row, leave the stream where one draw of n does
    rows = next(substacks(samples, per_draw))
    n = 3 * (rows.stop - rows.start) + 1
    del values[:], gens[:]
    ref = _one_shot_values(scenario, RngStream(32).generator(), n)
    avg_rate_parallel(scenario, RngStream(32), n)
    parallel_rate_bounds(scenario, RngStream(32), n)
    assert len(values) == 3 and all(np.array_equal(a, b) for a, b in zip(values, ref))
    assert gens[0].standard_normal() == gens[1].standard_normal() == gens[2].standard_normal()


@pytest.mark.parametrize("s2", [0.0, 1.0])
def test_avg_rate_parallel_working_set_is_a_few_substacks(s2):
    # at sigma2 in {0, 1} the draws are taken one sub-stack at a time and
    # their zero part costs nothing, so the peak is the drawn sub-stack, the
    # row-norm temporaries and the (n,) values, not the n*K*nt*16 bytes
    # (32 MB here) of one draw of n
    K, nt, n = 400, 5, 1000
    scenario = SystemConfig(num_users=K, num_tx_antennas=nt, total_power=1000.0, csit_error_var=s2)
    rows = next(substacks(n, scalars_per_draw(scenario)))
    stack = (rows.stop - rows.start) * K * nt * 16
    avg_rate_parallel(scenario, RngStream(47), 10)  # numpy's one-time set-up is not working set
    tracemalloc.start()
    try:
        avg_rate_parallel(scenario, RngStream(47), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * stack + 4 * n * 8


def test_avg_rate_parallel_imperfect_csit_holds_one_estimate_tensor():
    # at 0 < sigma2 < 1 the n estimates (one unit of n*K*nt*16 bytes) are
    # drawn first and the errors one sub-stack at a time, so the peak stays
    # near one unit
    K, n = 100, 30
    scenario = SystemConfig(
        num_users=K, num_tx_antennas=K, total_power=1000.0, csit_error_var=0.1
    )
    avg_rate_parallel(scenario, RngStream(47), 1)  # numpy's one-time set-up is not working set
    tracemalloc.start()
    try:
        avg_rate_parallel(scenario, RngStream(47), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * K * K * 16


def test_determinism():
    scenario = cfg(5, 2, 3.0, L=2)
    assert (
        avg_rate_parallel(scenario, RngStream(9), 5_000).mean
        == avg_rate_parallel(scenario, RngStream(9), 5_000).mean
    )


def test_asymptotic_small_array_vanishing_power():
    # nt = 1: a_K = K and Gamma(2) = 1, so the representative is P/K
    rep = asymptotic_rate(cfg(10_000, 1, 10.0))
    assert rep.regime == "small_array" and rep.power_regime == "vanishing"
    assert rep.value == pytest.approx(10.0 / 10_000.0)


def test_asymptotic_large_array_values():
    low = asymptotic_rate(cfg(100, 8, 0.5))
    assert low.value == pytest.approx(0.5)
    high = asymptotic_rate(cfg(100, 8, 100.0))
    assert high.value == pytest.approx(math.log1p(100.0))


def test_asymptotic_tracks_mc_small_array():
    # nt = 2, vanishing power: MC mean should approach (P/a_K) Gamma(1.5)
    scenario = cfg(5_000, 2, 1.0)
    rep = asymptotic_rate(scenario)
    est = avg_rate_quasistatic(scenario, RngStream(10), 20_000)
    assert est.mean == pytest.approx(rep.value, rel=0.1)
