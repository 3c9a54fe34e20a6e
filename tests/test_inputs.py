"""The keyed-input contract of the public library, held by one table.

Every callable in `cachecast.__all__` (and `PowerSplit.compute`) is called
once with valid small arguments, and then with each numeric parameter
replaced by a bool, a string, NaN, inf and -1, and, where an integer
belongs, by an integral float.  The valid call must return a value with
no NaN in it, and warn of nothing.  No parameter takes any of the bad
values, so each of those calls must raise a `ValueError`, not a warning,
whose message leads with the parameter's key: the CLI config key where
there is one, else the parameter name.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import cachecast
from cachecast import (
    PowerSplit,
    RngStream,
    SystemConfig,
    asymptotic_rate,
    avg_rate_parallel,
    avg_rate_quasistatic,
    build_zf_precoder,
    delivery_rate_multicast,
    delivery_rate_selection,
    delivery_rate_unicast,
    empirical_optimal_threshold,
    exact_min_mean,
    extreme_value_scale,
    min_norm_statistic,
    mixed_rates_asymptotic,
    mixed_rates_mc,
    optimal_split_closed_form,
    optimal_split_numeric,
    optimal_threshold_rayleigh,
    parallel_rate_bounds,
    simulated_selection_rate,
    symmetric_rate_asymptotic,
    symmetric_rate_mc,
    transmissions,
    zf_beams,
    zf_stats,
)

# result records: the library fills their fields from checked inputs, and
# a PowerSplit is built through PowerSplit.compute, which the table holds
_RECORDS = {"AsymptoticRate", "MixedRates", "PowerSplit", "RateEstimate", "SplitOptimum", "ZfPrecoder"}

# the keys of the integer parameters; every other numeric parameter is real
_INTEGER_KEYS = {"K", "nt", "L", "samples", "seed", "stream_id", "n"}

_ZF = SystemConfig(num_users=2, num_tx_antennas=3, total_power=10.0, normalized_cache=0.2,
                   csit_error_var=0.3)
_SELECTION = SystemConfig(num_users=4, num_tx_antennas=1, total_power=10.0, normalized_cache=0.1)
_EST = np.array([[1.0, 0.5j, 0.0], [0.2, 1.0, 0.3j]])
_RUN = dict(rng=RngStream(0), samples=10)

# name: (callable, valid keyword arguments, {numeric parameter: its key})
_TABLE = {
    "PowerSplit.compute": (PowerSplit.compute, dict(cfg=_ZF, common_power=4.0),
                           {"common_power": "common_power"}),
    "RngStream": (RngStream, dict(seed=1, stream_id=2), {"seed": "seed", "stream_id": "stream_id"}),
    "SystemConfig": (
        SystemConfig,
        dict(num_users=2, num_tx_antennas=3, total_power=10.0, num_subchannels=1,
             normalized_cache=0.2, csit_error_var=0.3),
        {"num_users": "K", "num_tx_antennas": "nt", "total_power": "P_dB",
         "num_subchannels": "L", "normalized_cache": "m", "csit_error_var": "sigma2"},
    ),
    "asymptotic_rate": (asymptotic_rate, dict(cfg=_ZF), {}),
    "avg_rate_parallel": (avg_rate_parallel, dict(cfg=_ZF, **_RUN), {"samples": "samples"}),
    "avg_rate_quasistatic": (avg_rate_quasistatic, dict(cfg=_ZF, **_RUN), {"samples": "samples"}),
    "build_zf_precoder": (build_zf_precoder, dict(est_h=_EST), {}),
    "delivery_rate_multicast": (
        delivery_rate_multicast, dict(load=2.0, multicast_rate=1.0, num_users=4),
        {"load": "load", "multicast_rate": "multicast_rate", "num_users": "K"},
    ),
    "delivery_rate_selection": (
        delivery_rate_selection,
        dict(m=0.1, threshold=1.0, total_power=10.0, num_users=4, **_RUN),
        {"m": "m", "threshold": "threshold", "total_power": "P_dB", "num_users": "K",
         "samples": "samples"},
    ),
    "delivery_rate_unicast": (
        delivery_rate_unicast, dict(m=0.1, symmetric_rate=1.0, num_users=4),
        {"m": "m", "symmetric_rate": "symmetric_rate", "num_users": "K"},
    ),
    "empirical_optimal_threshold": (
        lambda cfg, rng, samples, lo, hi: empirical_optimal_threshold(cfg, rng, samples, (lo, hi)),
        dict(cfg=_SELECTION, lo=1.0, hi=5.0, **_RUN),
        {"samples": "samples", "lo": "bracket", "hi": "bracket"},
    ),
    "exact_min_mean": (exact_min_mean, dict(nt=2, num_users=3), {"nt": "nt", "num_users": "K"}),
    "extreme_value_scale": (extreme_value_scale, dict(nt=2, num_users=3),
                            {"nt": "nt", "num_users": "K"}),
    "min_norm_statistic": (min_norm_statistic, dict(nt=2, num_users=3, **_RUN),
                           {"nt": "nt", "num_users": "K", "samples": "samples"}),
    "mixed_rates_asymptotic": (mixed_rates_asymptotic,
                               dict(cfg=_ZF, split=PowerSplit.compute(_ZF, 4.0)), {}),
    "mixed_rates_mc": (mixed_rates_mc, dict(cfg=_ZF, split=PowerSplit.compute(_ZF, 4.0), **_RUN),
                       {"samples": "samples"}),
    "optimal_split_closed_form": (optimal_split_closed_form, dict(cfg=_ZF), {}),
    "optimal_split_numeric": (optimal_split_numeric, dict(cfg=_ZF, **_RUN), {"samples": "samples"}),
    "optimal_threshold_rayleigh": (optimal_threshold_rayleigh, dict(total_power=10.0),
                                   {"total_power": "P_dB"}),
    "parallel_rate_bounds": (parallel_rate_bounds, dict(cfg=_ZF, **_RUN), {"samples": "samples"}),
    "simulated_selection_rate": (simulated_selection_rate, dict(cfg=_SELECTION, threshold=1.0, **_RUN),
                                 {"threshold": "threshold", "samples": "samples"}),
    "symmetric_rate_asymptotic": (symmetric_rate_asymptotic, dict(cfg=_ZF), {}),
    "symmetric_rate_mc": (symmetric_rate_mc, dict(cfg=_ZF, **_RUN), {"samples": "samples"}),
    "transmissions": (transmissions, dict(placement="decentralized", m=0.1, num_users=4),
                      {"m": "m", "num_users": "K"}),
    "zf_beams": (zf_beams, dict(est=_EST), {}),
    # a fresh generator per call, so no call moves another's stream
    "zf_stats": (lambda cfg, n: zf_stats(cfg, RngStream(0).generator(), n), dict(cfg=_ZF, n=10),
                 {"n": "n"}),
}


def _bad_values(key):
    values = [True, "1", math.nan, math.inf, -1]
    return values + [2.0] if key in _INTEGER_KEYS else values


_CASES = [
    pytest.param(name, param, key, bad, id=f"{name}-{param}-{bad!r}")
    for name, (_, _, keys) in _TABLE.items()
    for param, key in keys.items()
    for bad in _bad_values(key)
]


def _has_nan(value) -> bool:
    if dataclasses.is_dataclass(value):
        return any(_has_nan(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return any(_has_nan(v) for v in value)
    if isinstance(value, (float, np.ndarray)):
        return bool(np.isnan(value).any())
    return False


def _call(name, **overrides):
    call, kwargs, _ = _TABLE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(**{**kwargs, **overrides})


def test_the_table_covers_every_public_callable():
    public = {name for name in cachecast.__all__ if callable(getattr(cachecast, name))}
    assert public == _RECORDS | (set(_TABLE) - {"PowerSplit.compute"})


@pytest.mark.parametrize("name", sorted(_TABLE))
def test_each_valid_call_returns_no_nan(name):
    assert not _has_nan(_call(name))


@pytest.mark.parametrize("name, param, key, bad", _CASES)
def test_a_bad_number_fails_by_its_key(name, param, key, bad):
    with pytest.raises(ValueError) as exc:
        _call(name, **{param: bad})
    assert str(exc.value).startswith(f"{key}: ")
