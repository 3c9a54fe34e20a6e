import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cachecast import channel
from cachecast.channel import (
    RngStream,
    SystemConfig,
    _complex_normal,
    draw_channel_batch,
    sample_batches,
    scalars_per_draw,
    substacks,
)
from cachecast.multicast import avg_rate_parallel
from cachecast.multiplex import (
    build_zf_precoder,
    symmetric_rate_asymptotic,
    symmetric_rate_mc,
    zf_beams,
    zf_statistics,
    zf_stats,
)


def cfg(K, nt, P, s2=0.0):
    return SystemConfig(num_users=K, num_tx_antennas=nt, total_power=P, csit_error_var=s2)


def test_single_user_matched_filter():
    h = np.array([[1.0 + 1.0j, 2.0 - 1.0j, 0.5j]])
    pre = build_zf_precoder(h)
    expected = h[0].conj() / np.linalg.norm(h[0])
    np.testing.assert_allclose(pre.columns[:, 0], expected, atol=1e-14)


def test_orthogonal_rows_give_aligned_beams():
    h = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    pre = build_zf_precoder(h)
    np.testing.assert_allclose(np.abs(pre.columns), np.eye(2), atol=1e-14)


def test_cross_talk_suppressed():
    gen = RngStream(31).generator()
    h = _complex_normal(gen, (4, 8), 1.0)
    pre = build_zf_precoder(h)
    cross = h @ pre.columns
    np.fill_diagonal(cross, 0.0)
    assert np.abs(cross).max() < 1e-10 * np.abs(h).max()
    assert np.linalg.norm(pre.columns, axis=0) == pytest.approx(1.0, abs=1e-12)


def test_rank_deficiency_raises():
    h = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        build_zf_precoder(h)
    with pytest.raises(ValueError):
        build_zf_precoder(np.ones((3, 2), dtype=complex))  # more users than antennas
    with pytest.raises(ValueError, match=r"^est_h: expected a \(K, nt\) matrix, got shape \(3,\)$"):
        build_zf_precoder(np.ones(3))


@pytest.mark.parametrize("shape", [(40, 8, 8), (4, 100, 100), (40, 8, 16), (10, 32, 64)])
def test_zf_beams_match_normalized_pinv(shape):
    est = _complex_normal(RngStream(41).generator(), shape, 1.0)
    w, gain = zf_beams(est)
    ref = np.linalg.pinv(est)
    ref_norms = np.linalg.norm(ref, axis=-2)
    ref /= ref_norms[..., None, :]
    assert np.abs(w - ref).max() <= 1e-10 * np.abs(ref).max()
    np.testing.assert_allclose(gain, 1.0 / ref_norms, rtol=1e-10)
    cross = est @ w
    idx = np.arange(shape[1])
    np.testing.assert_allclose(cross[:, idx, idx], gain, rtol=1e-12)
    cross[:, idx, idx] = 0.0
    scale = np.abs(est).max(axis=(1, 2))
    assert np.all(np.abs(cross).max(axis=(1, 2)) <= 1e-12 * scale)


@pytest.mark.parametrize("shape", [(5, 4, 4), (5, 4, 8)])
@pytest.mark.parametrize("eps", [0.0, 1e-13])
def test_zf_beams_rank_deficient_draw_raises(shape, eps):
    # one draw with dependent rows: exactly (the factorization fails) or up
    # to rounding (the factorization succeeds but the gain collapses)
    est = _complex_normal(RngStream(42).generator(), shape, 1.0)
    est[3, 2] = 2.0 * est[3, 1] + eps * est[3, 0]
    with pytest.raises(ValueError):
        zf_beams(est)
    zf_beams(np.delete(est, 3, axis=0))  # the other draws are fine


@pytest.mark.parametrize("build", [zf_beams, build_zf_precoder])
def test_zf_non_finite_estimate_fails_by_key(build):
    inf_entry = np.eye(2, 3, dtype=complex)
    inf_entry[1, 2] = np.inf
    for est in (np.full((2, 2), np.nan + 0j), inf_entry):
        with pytest.raises(ValueError, match="^est: expected finite entries"):
            build(est)


def test_zf_stats_perfect_csit_reads_gain_from_kernel():
    scenario = cfg(8, 8, 8.0)
    _, g2, inter = zf_stats(scenario, RngStream(43).generator(), 200)
    _, est, _ = draw_channel_batch(scenario, RngStream(43).generator(), 200)
    _, gain = zf_beams(est[:, 0])
    assert np.all(inter == 0.0)
    assert np.array_equal(g2, gain**2)


def _zf_stats_single_stack(scenario, gen, n):
    # the one-shot formula: every draw of the batch in one LU/QR, one matmul
    true, est, err = draw_channel_batch(scenario, gen, n)
    h = true[:, 0]
    norm2 = (h.real * h.real + h.imag * h.imag).sum(axis=-1)
    s2 = scenario.csit_error_var
    if s2 == 1.0:
        w, _ = zf_beams(_complex_normal(gen, h.shape, 1.0))
        gain = 0.0
    else:
        w, gain = zf_beams(est[:, 0])
    if s2 == 0.0:
        return norm2, gain**2, np.zeros_like(gain)
    idx = np.arange(scenario.num_users)
    gt = err[:, 0] @ w
    g = gain + gt[:, idx, idx]
    gt2 = gt.real * gt.real + gt.imag * gt.imag
    inter = gt2.sum(axis=2) - gt2[:, idx, idx]
    return norm2, g.real * g.real + g.imag * g.imag, inter


@pytest.mark.parametrize("K, nt, n", [(100, 100, 20), (8, 16, 1100)])
@pytest.mark.parametrize("s2", [0.0, 0.1, 1.0])
def test_zf_stats_over_substacks_match_single_stack_formula(K, nt, n, s2):
    assert len(list(substacks(n, K * nt))) >= 3
    scenario = cfg(K, nt, 10.0 * K, s2=s2)
    gen, ref_gen = RngStream(45).generator(), RngStream(45).generator()
    out = zf_stats(scenario, gen, n)
    ref = _zf_stats_single_stack(scenario, ref_gen, n)
    for a, b in zip(out, ref):
        assert a.shape == b.shape == (n, K) and a.dtype == b.dtype
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    # the auxiliary sigma2 = 1 draw leaves the stream where it was
    assert gen.standard_normal() == ref_gen.standard_normal()


def test_zf_stats_blind_channels_come_from_the_draw_layer(monkeypatch):
    # sigma2 = 1: one channel.draw_channel_batch call per sub-stack, covering the n rows
    rows = []

    def counting(scenario, gen, n):
        rows.append(n)
        return draw_channel_batch(scenario, gen, n)

    monkeypatch.setattr(channel, "draw_channel_batch", counting)
    scenario, n = cfg(8, 16, 80.0, s2=1.0), 1100
    zf_stats(scenario, RngStream(47).generator(), n)
    assert rows == [r.stop - r.start for r in substacks(n, scalars_per_draw(scenario))]
    assert len(rows) >= 3 and sum(rows) == n


@pytest.mark.parametrize("s2", [0.0, 0.3, 1.0])
def test_zf_statistics_are_the_batches_of_zf_stats_in_draw_order(s2, monkeypatch):
    # a batch target of 7 draws cuts 23 samples into 7, 7, 7 and a short 2
    scenario, stream, samples = cfg(3, 5, 30.0, s2=s2), RngStream(48), 23
    monkeypatch.setattr(channel, "_BATCH_TARGET", 7 * scalars_per_draw(scenario))
    counts = [r.stop - r.start for _, r in sample_batches(stream, samples, scalars_per_draw(scenario))]
    assert counts == [7, 7, 7, 2]
    gen = stream.generator()
    ref = [np.concatenate(parts) for parts in zip(*(zf_stats(scenario, gen, n) for n in counts))]
    out = zf_statistics(scenario, stream, samples)
    assert len(out) == 3
    for a, b in zip(out, ref):
        assert a.shape == (samples, 3) and np.array_equal(a, b)


@pytest.mark.parametrize(
    "scenario, samples, message",
    [
        (SystemConfig(num_users=2, num_tx_antennas=3, total_power=4.0, num_subchannels=2), 10,
         "L: zero forcing runs on the quasi-static channel (L = 1), got 2"),
        (cfg(2, 3, 4.0), 0, "samples: expected an integer >= 1, got 0"),
        (cfg(2, 3, 4.0), -1, "samples: expected an integer >= 1, got -1"),
    ],
)
def test_zf_statistics_checks_before_any_generator(scenario, samples, message, monkeypatch):
    # -1 would otherwise surface as numpy's "negative dimensions" error
    monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("a generator was made"))
    estimators = [zf_statistics, symmetric_rate_mc]
    if scenario.num_subchannels == 1:  # multicast runs on L > 1: only samples is bad for it
        estimators.append(avg_rate_parallel)
    for estimator in estimators:
        with pytest.raises(ValueError) as exc:
            estimator(scenario, RngStream(49), samples)
        assert str(exc.value) == message


@pytest.mark.parametrize("s2", [0.0, 0.3, 1.0])
def test_zf_stats_and_channel_stacks_check_n_on_the_call(s2):
    # -1 used to reach numpy's "negative dimensions", 2.0 and True its
    # TypeError, and channel_stacks, a generator, failed only when iterated
    scenario = cfg(2, 3, 4.0, s2)
    for n in (-1, 2.0, True):
        for call in (zf_stats, channel.channel_stacks):
            gen = RngStream(50).generator()
            with pytest.raises(ValueError, match=r"^n: "):
                call(scenario, gen, n)
            assert gen.random() == RngStream(50).generator().random()  # nothing was drawn
    assert [a.shape for a in zf_stats(scenario, RngStream(50).generator(), 0)] == [(0, 2)] * 3
    assert list(channel.channel_stacks(scenario, RngStream(50).generator(), 0)) == []


def _zf_stats_peak(s2, K=100, n=30):
    # tracemalloc peak of one zf_stats call, in units of n*K*nt*16 bytes
    scenario = cfg(K, K, 10.0 * K, s2=s2)
    gen = RngStream(46).generator()
    zf_stats(scenario, gen, 1)  # one-time set-up inside numpy is not working set
    tracemalloc.start()
    try:
        zf_stats(scenario, gen, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * K * K * 16)


def test_zf_stats_working_set_stays_near_its_draws():
    # the n estimates are one unit; the errors, the true channel and the
    # solve are taken one sub-stack at a time
    assert _zf_stats_peak(0.1) <= 1.5


@pytest.mark.parametrize(
    # sigma2 = 0: no tensor of n draws is held at all.  sigma2 = 1: the
    # blind channel, 1 unit, plus one sub-stack of it and of the auxiliary
    # matrix
    "s2, units",
    [(0.0, 0.75), (1.0, 1.75)],
)
def test_zf_stats_degenerate_csit_working_set(s2, units):
    assert _zf_stats_peak(s2) <= units


def test_zf_stats_blind_estimate():
    # sigma2 = 1: beams independent of the channel, so G_kk ~ CN(0, 1) and
    # the leakage is a sum of K - 1 unit exponentials
    K = 8
    _, g2, inter = zf_stats(cfg(K, K, 8.0, s2=1.0), RngStream(44).generator(), 4_000)
    assert stats.kstest(g2.ravel(), stats.expon.cdf).statistic < 0.02
    for values, target in ((g2, 1.0), (inter, K - 1.0)):
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - target) < 4 * se


def test_signal_gain_distribution_perfect_csit():
    # |G_k|^2 ~ Gamma(nt-K+1, 1) when the estimate is exact
    scenario = cfg(4, 8, 4.0)
    _, g2, inter = zf_stats(scenario, RngStream(33).generator(), 10_000)
    assert np.all(inter == 0.0)
    shape = 8 - 4 + 1
    ks = stats.kstest(g2[:, 0], lambda x: stats.gamma.cdf(x, a=shape))
    assert ks.statistic < 0.02


def test_interference_mean():
    scenario = cfg(16, 32, 16.0, s2=0.3)
    _, _, inter = zf_stats(scenario, RngStream(34).generator(), 4_000)
    target = (16 - 1) * 0.3
    se = inter.std(ddof=1) / math.sqrt(inter.size)
    assert abs(inter.mean() - target) < 3 * se


def test_symmetric_rate_validation():
    with pytest.raises(ValueError):
        symmetric_rate_mc(cfg(4, 2, 1.0), RngStream(0), 10)
    with pytest.raises(ValueError):
        symmetric_rate_mc(
            SystemConfig(num_users=2, num_tx_antennas=4, total_power=1.0, num_subchannels=2),
            RngStream(0),
            10,
        )


def test_single_user_rate_quadrature_oracle():
    # K = 1 is pure beamforming: E[ln(1 + P ||H||^2)], ||H||^2 ~ Gamma(nt, 1);
    # value from numerical integration with nt = 4, P = 10
    est = symmetric_rate_mc(cfg(1, 4, 10.0), RngStream(35), 100_000)
    assert abs(est.mean - 3.591249062537076) < 4 * est.std_err


def test_asymptotic_cases():
    first = symmetric_rate_asymptotic(cfg(10, 11, 10.0, s2=1.0))
    assert first.regime == "bounded_gain"
    assert first.value == pytest.approx((1.0 + 0.0) / (1.0 + 9.0))
    second = symmetric_rate_asymptotic(cfg(100, 200, 100.0))
    assert second.regime == "growing_gain"
    assert second.value == pytest.approx(math.log1p(101.0))
    assert not second.extrapolated
    assert symmetric_rate_asymptotic(cfg(10, 10, 10.0)).extrapolated


def test_asymptotic_rate_at_zero_power_is_zero():
    # 1/p has no value at p = 0; mixed_rates_asymptotic gives the same config rate 0
    scenario = SystemConfig(num_users=2, num_tx_antennas=4, total_power=0.0, csit_error_var=0.1)
    rep = symmetric_rate_asymptotic(scenario)
    assert rep.value == 0.0
    assert (rep.regime, rep.proxy, rep.extrapolated) == ("growing_gain", 3 * (1.0 - 0.1), False)


def test_exact_tracks_asymptotic():
    for K in (50, 100):
        for s2 in (0.0, 0.1, 0.5):
            scenario = cfg(K, 2 * K, float(K), s2=s2)  # p = 1
            mc = symmetric_rate_mc(scenario, RngStream(40 + K), 300)
            rep = symmetric_rate_asymptotic(scenario)
            assert mc.mean == pytest.approx(rep.value, rel=0.1)
