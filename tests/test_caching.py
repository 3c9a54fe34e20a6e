import math

import pytest

from cachecast.caching import (
    delivery_rate_multicast,
    delivery_rate_selection,
    delivery_rate_unicast,
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        delivery_rate_selection(0.05, -1.0, 1000.0, 200, RngStream(3), 100)
    with pytest.raises(ValueError):
        delivery_rate_selection(0.0, 1.0, 1000.0, 200, RngStream(3), 100)


def test_selection_rate_concentrates_for_large_k():
    # with K large, K*(s)/(1 - (1-m)^K*) concentrates; compare to the
    # deterministic plug-in value at the mean selected count
    m, P, K, s = 0.1, 1000.0, 5_000, 150.0
    est = delivery_rate_selection(m, s, P, K, RngStream(9), 40_000)
    n_mean = K * math.exp(-s / P)
    plug = (m / (1 - m)) * n_mean / (1.0 - (1.0 - m) ** n_mean) * math.log1p(s)
    assert est.mean == pytest.approx(plug, rel=0.01)
