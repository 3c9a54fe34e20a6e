import math
import warnings

import numpy as np
import pytest

from cachecast import caching
from cachecast.caching import (
    SelectedCounts,
    delivery_rate_multicast,
    delivery_rate_selection,
    delivery_rate_unicast,
    selection_rate_samples,
    transmissions,
)
from cachecast.channel import RngStream


def test_centralized_load_values():
    # (1 - m)/(1/K + m) at a few hand-evaluated points
    assert transmissions("centralized", 0.0, 10) == pytest.approx(10.0)
    assert transmissions("centralized", 1.0, 10) == 0.0
    assert transmissions("centralized", 0.5, 4) == pytest.approx(0.5 / 0.75)


def test_decentralized_load_values_and_limits():
    assert transmissions("decentralized", 0.0, 12) == 12.0
    assert transmissions("decentralized", 1.0, 12) == 0.0
    assert transmissions("decentralized", 0.5, 2) == pytest.approx(0.5 * 0.75 / 0.5)
    # continuity at m -> 0: no cancellation blow-up
    assert transmissions("decentralized", 1e-12, 64) == pytest.approx(64.0, abs=1e-6)


def test_decentralized_needs_at_least_centralized():
    # random placement cannot beat coordinated placement
    for m in (0.1, 0.3, 0.7):
        for K in (2, 10, 100):
            assert transmissions("decentralized", m, K) >= transmissions("centralized", m, K)


def test_load_monotone_in_m():
    prev = math.inf
    for m in [i / 20 for i in range(21)]:
        cur = transmissions("decentralized", m, 25)
        assert cur <= prev + 1e-12
        prev = cur


def test_load_validation():
    with pytest.raises(ValueError):
        transmissions("decentralized", -0.1, 4)
    with pytest.raises(ValueError):
        transmissions("decentralized", 0.5, 0)
    with pytest.raises(ValueError):
        transmissions("mixed", 0.5, 4)


def test_delivery_rate_multicast_conventions():
    assert delivery_rate_multicast(2.0, 1.0, 10) == pytest.approx(5.0)
    assert delivery_rate_multicast(0.0, 1.0, 10) == math.inf
    assert delivery_rate_multicast(0.0, 0.0, 10) == 0.0
    with pytest.raises(ValueError, match=r"^load: expected a value in \[0, inf\), got -1\.0$"):
        delivery_rate_multicast(-1.0, 1.0, 10)


def test_delivery_rate_unicast_conventions():
    assert delivery_rate_unicast(0.5, 1.0, 10) == pytest.approx(20.0)
    assert delivery_rate_unicast(1.0, 1.0, 10) == math.inf
    assert delivery_rate_unicast(1.0, 0.0, 10) == 0.0


def test_delivery_rate_selection_basics():
    est = delivery_rate_selection(0.05, 100.0, 1000.0, 200, RngStream(3), 20_000)
    assert est.mean > 0
    again = delivery_rate_selection(0.05, 100.0, 1000.0, 200, RngStream(3), 20_000)
    assert est.mean == again.mean
    for threshold in (-1.0, -1e6):  # -1e6 / P would overflow exp before the check
        with pytest.raises(ValueError, match=r"threshold: expected a value in \[0, inf\)"):
            delivery_rate_selection(0.05, threshold, 1000.0, 200, RngStream(3), 100)
    with pytest.raises(ValueError):
        delivery_rate_selection(0.0, 1.0, 1000.0, 200, RngStream(3), 100)
    with pytest.raises(ValueError, match=r"^P_dB: expected a value in \(0, inf\), got 0\.0$"):
        delivery_rate_selection(0.05, 1.0, 0.0, 200, RngStream(3), 100)


def test_selection_rate_concentrates_for_large_k():
    # with K large, K*(s)/(1 - (1-m)^K*) concentrates; compare to the
    # deterministic plug-in value at the mean selected count
    m, P, K, s = 0.1, 1000.0, 5_000, 150.0
    est = delivery_rate_selection(m, s, P, K, RngStream(9), 40_000)
    n_mean = K * math.exp(-s / P)
    plug = (m / (1 - m)) * n_mean / (1.0 - (1.0 - m) ** n_mean) * math.log1p(s)
    assert est.mean == pytest.approx(plug, rel=0.01)


def _per_sample_selection_rates(m, num_users, above_prob, log_term, gen, samples):
    # the reference: the rate expression evaluated once per sample
    counts = gen.binomial(num_users, above_prob, size=samples)
    values = np.zeros(samples, dtype=np.float64)
    active = counts > 0
    n = counts[active].astype(np.float64)
    values[active] = (m / (1.0 - m)) * n / (1.0 - (1.0 - m) ** n) * log_term
    return values, counts


@pytest.mark.parametrize(
    "num_users, above_prob, samples, m, per_count",
    [
        (1, 0.5, 100, 0.1, True),
        (50, 0.0, 100, 0.1, True),  # every count 0
        (50, 1.0, 100, 0.1, True),  # every count K
        (50, 0.3, 1, 0.1, False),
        (10**9, 0.5, 10, 0.1, False),
        (10**9, 0.5, 1000, 0.1, False),
        (10**9, 1e-6, 1000, 0.1, True),
        (1000, 0.05, 1000, 1e-6, True),
        (1000, 0.05, 1000, 0.999, True),
        (10**6, 0.5, 300, 0.999, False),
        # numpy's inversion regime, read off one sorted draw by SelectedCounts
        (100, 0.83, 2000, 0.1, True),  # fig2 at K = 100: K - inversion(K, 1 - p)
        (100, 0.17, 2000, 0.1, True),
        (60, 0.5, 2000, 0.1, True),  # p*K exactly 30: still inversion
        (100, math.nextafter(0.3, 1.0), 2000, 0.1, True),  # p*K just above 30: BTPE
        (1, 0.9, 100, 0.1, True),
        (10**18, 2e-17, 1000, 0.1, True),  # p*K = 20 at the largest K
        (100, 1.0, 100, 0.1, True),  # inversion(K, 0) flipped
    ],
)
def test_selection_rate_samples_equal_the_per_sample_expression(
    num_users, above_prob, samples, m, per_count
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref_values, ref_counts = _per_sample_selection_rates(
            m, num_users, above_prob, math.log1p(123.4), RngStream(11).generator(), samples
        )
        shared = SelectedCounts(RngStream(11), samples)
        # a one-off draw, then a search's shared draw on its first and a later call
        for draws in (SelectedCounts(RngStream(11), samples), shared, shared):
            values, counts = selection_rate_samples(m, num_users, above_prob, 123.4, draws)
            assert values.dtype == np.float64 and values.shape == (samples,)
            assert values.tobytes() == ref_values.tobytes()
            assert counts.tobytes() == ref_counts.tobytes()
    # per_count: the counts span fewer values than there are samples
    assert (int(ref_counts.max() - ref_counts.min()) + 1 < samples) == per_count


@pytest.mark.parametrize("num_users, above_prob", [(100, 0.83), (100, 0.17), (1, 0.5)])
def test_selected_counts_fall_back_to_numpy_on_a_close_call(num_users, above_prob, monkeypatch):
    # a tolerance wider than [0, 1] makes every uniform too close to call,
    # so every call is numpy's own Generator.binomial on a restarted stream
    monkeypatch.setattr(caching, "_TOLERANCE_ULPS", 2**60)
    made = []
    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: made.append(1) or real(self))
    draws = SelectedCounts(RngStream(11), 500)
    for _ in range(2):
        counts = draws.binomial(num_users, above_prob)
        ref = real(RngStream(11)).binomial(num_users, above_prob, size=500)
        assert counts.tobytes() == ref.tobytes()
    # one generator for the shared uniforms, then one per fallback
    assert len(made) == 3


def test_selected_counts_check_k_and_above_prob_by_key():
    draws = SelectedCounts(RngStream(11), 100)
    for K, above_prob, key in ((0, 0.5, "K"), (2.0, 0.5, "K"), (10, 1.5, "above_prob"),
                               (10, math.nan, "above_prob")):
        with pytest.raises(ValueError, match=rf"^{key}: "):
            draws.binomial(K, above_prob)


def test_selection_rate_samples_needs_a_sample():
    for samples in (0, -3):
        expected = rf"^samples: expected an integer >= 1, got {samples}$"
        with pytest.raises(ValueError, match=expected):
            SelectedCounts(RngStream(0), samples)
    # the sampler checks the threshold itself, whatever tail its caller passed
    for threshold in (-1.0, -1e-300, -math.inf):
        with pytest.raises(ValueError, match=r"threshold: expected a value in \[0, inf\)"):
            selection_rate_samples(0.1, 10, 0.5, threshold, SelectedCounts(RngStream(0), 10))
    # NaN used to give NaN rates
    with pytest.raises(ValueError, match=r"^threshold: expected a value in \[0, inf\), got nan$"):
        selection_rate_samples(0.1, 10, 0.5, math.nan, SelectedCounts(RngStream(0), 10))
    # each used to fail with numpy's unkeyed "p < 0, p > 1 or p is NaN"
    for above_prob in (math.nan, 1.5, -0.1, True):
        with pytest.raises(ValueError, match=r"^above_prob: "):
            selection_rate_samples(0.1, 10, above_prob, 1.0, SelectedCounts(RngStream(0), 10))


@pytest.mark.parametrize("K", [0, -3, 2.0, True, "2"])
@pytest.mark.parametrize(
    "call",
    [
        lambda K: selection_rate_samples(0.1, K, 0.5, 1.0, SelectedCounts(RngStream(0), 10)),
        lambda K: delivery_rate_selection(0.1, 1.0, 10.0, K, RngStream(0), 10),
        lambda K: delivery_rate_unicast(0.1, 1.0, K),
        lambda K: delivery_rate_multicast(2.0, 1.0, K),
    ],
    ids=["selection_samples", "selection", "unicast", "multicast"],
)
def test_rate_helpers_check_the_user_count_by_key(call, K):
    # each used to run on: numpy read 2.0 as 2, K = 0 gave a rate of 0.0 and
    # a negative K a negative rate
    with pytest.raises(ValueError) as exc:
        call(K)
    assert str(exc.value) == f"K: expected an integer{' >= 1' if K in (0, -3) else ''}, got {K!r}"
