import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cachecast import mixed
from cachecast.caching import transmissions
from cachecast.channel import RngStream, SystemConfig, sample_batches, scalars_per_draw
from cachecast.experiments import run_fig3_4_5
from cachecast.mathx import maximize_1d
from cachecast.mixed import (
    MixedRates,
    PowerSplit,
    mixed_rates_asymptotic,
    mixed_rates_mc,
    optimal_split_closed_form,
    optimal_split_numeric,
)
from cachecast.multicast import avg_rate_quasistatic
from cachecast.multiplex import symmetric_rate_mc, zf_stats
from cachecast.results import RateEstimate


def cfg(K=8, nt=16, P=8.0, m=0.2, s2=0.1):
    return SystemConfig(
        num_users=K, num_tx_antennas=nt, total_power=P, normalized_cache=m, csit_error_var=s2
    )


def test_non_finite_rates_fail_by_their_power():
    # a rate overflows only when its power does; the check comes before any mean or error bar
    for values in ([1.0, math.inf], [math.nan, 2.0], [-math.inf]):
        with pytest.raises(ValueError, match=r"^P_dB: "):
            RateEstimate.from_values(np.array(values))
    with pytest.raises(ValueError, match=r"^samples: need at least one sample$"):
        RateEstimate.from_values(np.array([]))
    for common, private in ((math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match=r"^P_dB: "):
            MixedRates.compose(cfg(), common, private)
    # a full cache's infinite total stays legal
    assert MixedRates.compose(cfg(m=1.0), 1.0, 1.0).total == math.inf


def test_power_split_constants():
    scenario = cfg(K=100, nt=100, P=1000.0, s2=0.1)
    split = PowerSplit.compute(scenario, 400.0)
    ic, ip = mixed._interference(scenario)
    assert ic == pytest.approx(0.108)
    assert ip == pytest.approx(0.099)
    assert split.private_per_user == pytest.approx(6.0)
    with pytest.raises(ValueError):
        PowerSplit.compute(scenario, -1.0)
    with pytest.raises(ValueError):
        PowerSplit.compute(scenario, 1001.0)


@pytest.mark.filterwarnings("error")
def test_split_built_for_another_power_fails_by_key():
    scenario = SystemConfig(num_users=2, num_tx_antennas=3, total_power=10.0, csit_error_var=0.3)
    other = PowerSplit.compute(replace(scenario, total_power=1000.0, csit_error_var=0.0), 500.0)
    with pytest.raises(ValueError, match="^common_power: "):
        mixed_rates_asymptotic(scenario, other)
    with pytest.raises(ValueError, match="^common_power: "):
        mixed_rates_mc(scenario, other, RngStream(0), 10)
    # in range but split over another P or K: the same key
    for cfg_other in (replace(scenario, total_power=20.0), replace(scenario, num_users=3)):
        with pytest.raises(ValueError, match=r"^common_power: PowerSplit\(.*\) is not the split of P = 10.0, K = 2$"):
            mixed_rates_asymptotic(scenario, PowerSplit.compute(cfg_other, 5.0))


@pytest.mark.filterwarnings("error")
def test_split_reads_no_csit_error():
    # a split holds (P, K, P0) values only, so one built at sigma2 = 0 is the sigma2 = 0.3 split
    scenario = SystemConfig(num_users=2, num_tx_antennas=3, total_power=10.0, csit_error_var=0.3)
    split = PowerSplit.compute(replace(scenario, csit_error_var=0.0), 5.0)
    assert split == PowerSplit.compute(scenario, 5.0)
    assert mixed_rates_asymptotic(scenario, split, simplified=True).total == 2.866274206317104


def test_endpoint_reductions_bit_exact():
    for s2 in (0.0, 0.1):
        scenario = cfg(s2=s2)
        stream = RngStream(51)
        full = mixed_rates_mc(scenario, PowerSplit.compute(scenario, scenario.total_power), stream, 400)
        none = mixed_rates_mc(scenario, PowerSplit.compute(scenario, 0.0), stream, 400)
        assert full.common_rate == avg_rate_quasistatic(scenario, stream, 400).mean
        assert full.private_rate == 0.0
        assert none.common_rate == 0.0
        assert none.private_rate == symmetric_rate_mc(scenario, stream, 400).mean


def test_total_rate_additivity():
    scenario = cfg()
    rates = mixed_rates_mc(scenario, PowerSplit.compute(scenario, 3.0), RngStream(52), 300)
    load = transmissions(scenario.placement, scenario.normalized_cache, scenario.num_users)
    recomputed = (
        scenario.num_users * rates.common_rate / load
        + scenario.num_users * rates.private_rate / (1.0 - scenario.normalized_cache)
    )
    assert rates.total == pytest.approx(recomputed, rel=1e-12)


def test_mc_validation():
    with pytest.raises(ValueError):
        mixed_rates_mc(cfg(K=4, nt=2), PowerSplit.compute(cfg(K=4, nt=2), 1.0), RngStream(0), 10)


def test_zf_estimators_reject_subchannels_before_drawing():
    # an L > 1 config must fail, not run on sub-channel 0 alone
    scenario = SystemConfig(
        num_users=2,
        num_tx_antennas=4,
        total_power=4.0,
        num_subchannels=2,
        normalized_cache=0.2,
        csit_error_var=0.1,
    )
    for bad in (scenario, replace(scenario, normalized_cache=1.0)):
        with pytest.raises(ValueError):
            optimal_split_numeric(bad, RngStream(1), 50)
    with pytest.raises(ValueError):
        mixed_rates_mc(scenario, PowerSplit.compute(scenario, 1.0), RngStream(1), 50)
    gen = RngStream(1).generator()
    with pytest.raises(ValueError):
        zf_stats(scenario, gen, 50)
    assert gen.standard_normal() == RngStream(1).generator().standard_normal()


def test_zf_estimators_reduce_batches_in_draw_order(monkeypatch):
    # K = nt = 100 at 0 < sigma2 < 1 takes 40_000 normals per draw, so 250
    # samples are drawn in batches of 100, 100 and 50
    K, P = 100, 1000.0
    scenario = cfg(K=K, nt=K, P=P, s2=0.1)
    stream = RngStream(57)
    counts = [r.stop - r.start for _, r in sample_batches(stream, 250, scalars_per_draw(scenario))]
    assert counts == [100, 100, 50]
    gen = stream.generator()
    private, common = [], []
    for n in counts:
        norm2, g2, inter = zf_stats(scenario, gen, n)
        private.append(np.log1p(g2 * (P / K) / (1.0 + inter * (P / K))).mean(axis=1))
        common.append(np.log1p((P / K) * norm2).min(axis=1))
    private, common = np.concatenate(private), np.concatenate(common)
    # the per-draw values each estimator reduces, captured where it reduces them
    seen_values, seen_flows = [], []
    from_values, flow_values = RateEstimate.from_values.__func__, mixed._flow_values

    def capture_values(cls, values):
        seen_values.append(np.array(values))
        return from_values(cls, values)

    def capture_flows(*args):
        seen_flows.append(flow_values(*args))
        return seen_flows[-1]

    monkeypatch.setattr(RateEstimate, "from_values", classmethod(capture_values))
    monkeypatch.setattr(mixed, "_flow_values", capture_flows)
    private_ref = from_values(RateEstimate, private)
    assert symmetric_rate_mc(scenario, stream, 250) == private_ref
    assert len(seen_values) == 1 and np.array_equal(seen_values[0], private)
    none = mixed_rates_mc(scenario, PowerSplit.compute(scenario, 0.0), stream, 250)
    assert none == MixedRates.compose(scenario, 0.0, private_ref.mean)
    assert np.array_equal(np.concatenate([pv for _, pv in seen_flows]), private)
    seen_flows.clear()
    full = mixed_rates_mc(scenario, PowerSplit.compute(scenario, P), stream, 250)
    assert full == MixedRates.compose(scenario, float(common.mean()), 0.0)
    assert np.array_equal(np.concatenate([c for c, _ in seen_flows]), common)


def test_optimal_split_evaluates_each_power_once(monkeypatch):
    # a tied end comes back from maximize_1d's scan, not from a second evaluation
    calls = Counter()
    flow_values = mixed._flow_values

    def counted(split, *args):
        calls[split.common_power] += 1
        return flow_values(split, *args)

    monkeypatch.setattr(mixed, "_flow_values", counted)
    scenario = cfg()
    opt = optimal_split_numeric(scenario, RngStream(58), 200)
    assert calls[0.0] == 1
    assert max(calls.values()) == 1
    monkeypatch.undo()
    assert optimal_split_numeric(scenario, RngStream(58), 200) == opt


@pytest.mark.parametrize(
    "scenario, at_boundary",
    [(cfg(), True), (cfg(K=8, nt=8, P=80.0, m=0.5, s2=0.0125), False), (cfg(m=1.0), True)],
)
def test_split_optimum_rate_is_the_composed_mixed_rate(scenario, at_boundary):
    # the optimizer composes its objective through MixedRates.compose, so its
    # rate is the mixed MC rate at the optimum on the same stream, bit for bit;
    # m = 1 takes the early return, and at_boundary means P0 is exactly 0 or P
    opt = optimal_split_numeric(scenario, RngStream(60), 200)
    assert opt.at_boundary == at_boundary
    assert opt.at_boundary == (opt.common_power in (0.0, scenario.total_power))
    split = PowerSplit.compute(scenario, opt.common_power)
    total = mixed_rates_mc(scenario, split, RngStream(60), 200).total
    assert type(opt.rate) is float and opt.rate == total


def test_asymptotic_matches_mc():
    scenario = cfg(K=100, nt=200, P=10_000.0, m=0.1, s2=0.0)
    split = PowerSplit.compute(scenario, 5_000.0)
    mc = mixed_rates_mc(scenario, split, RngStream(53), 200)
    rep = mixed_rates_asymptotic(scenario, split)
    # the closed form drops the min over users in the common SINR, which
    # costs ~10% at K = 100 before channel hardening fully kicks in
    assert mc.common_rate == pytest.approx(rep.common_rate, rel=0.15)
    assert mc.private_rate == pytest.approx(rep.private_rate, rel=0.1)


def test_asymptotic_endpoints_and_flags():
    scenario = cfg(K=100, nt=100, P=1000.0, s2=0.1)
    zero = mixed_rates_asymptotic(scenario, PowerSplit.compute(scenario, 0.0))
    assert zero.common_rate == 0.0
    assert "extrapolated" in zero.flags
    full = mixed_rates_asymptotic(scenario, PowerSplit.compute(scenario, 1000.0))
    assert full.private_rate == 0.0


def test_asymptotic_max_term_costs_rate():
    # keeping the worst-user interference maximization can only lower the
    # common rate relative to the simplified (max-dropped) form
    scenario = cfg(K=100, nt=150, P=5_000.0, m=0.1, s2=0.3)
    split = PowerSplit.compute(scenario, 2_000.0)
    kept = mixed_rates_asymptotic(scenario, split)
    dropped = mixed_rates_asymptotic(scenario, split, simplified=True)
    assert kept.common_rate < dropped.common_rate
    assert kept.common_rate == pytest.approx(dropped.common_rate, rel=0.2)


def test_numeric_split_deterministic_and_saturation():
    scenario = cfg(K=16, nt=32, P=100.0, m=0.9, s2=0.1)
    a = optimal_split_numeric(scenario, RngStream(55), 100)
    b = optimal_split_numeric(scenario, RngStream(55), 100)
    assert a == b
    # heavy caching pushes essentially everything to the common stream,
    # though the strong private gain at nt = 2K keeps a small sliver alive
    assert a.common_power > 0.98 * scenario.total_power


def test_full_cache_split_is_boundary():
    scenario = cfg(K=16, nt=32, P=100.0, m=1.0, s2=0.1)
    opt = optimal_split_numeric(scenario, RngStream(55), 100)
    assert opt.at_boundary and opt.common_power == scenario.total_power
    assert math.isinf(opt.rate)


def test_closed_form_oracle_value():
    scenario = SystemConfig(
        num_users=100, num_tx_antennas=100, total_power=1000.0,
        normalized_cache=0.05, csit_error_var=0.1,
    )
    assert optimal_split_closed_form(scenario) == pytest.approx(993.4909623223734, rel=1e-12)


def test_closed_form_guards():
    blind = cfg(K=100, nt=100, s2=1.0)
    with pytest.raises(ValueError, match=r"^sigma2: "):
        optimal_split_closed_form(blind)
    # a full cache sends no multicast load: numerator and denominator both vanish
    with pytest.raises(ValueError, match=r"^m: the closed-form split's denominator vanishes"):
        optimal_split_closed_form(cfg(m=1.0))


def test_closed_form_clamp_all_common():
    # large cache: prescription goes negative, mapped to P0 = P
    scenario = cfg(K=100, nt=120, P=100.0, m=0.9, s2=0.1)
    assert optimal_split_closed_form(scenario) == scenario.total_power


def test_closed_form_near_stationary_on_simplified_objective():
    # the closed form approximates the stationary split of the two-term
    # objective; compare against a numeric argmax of that same objective
    scenario = SystemConfig(
        num_users=100, num_tx_antennas=100, total_power=10_000.0,
        normalized_cache=0.2, csit_error_var=0.01,
    )
    P = scenario.total_power

    def objective(p0):
        split = PowerSplit.compute(scenario, p0)
        return mixed_rates_asymptotic(scenario, split, simplified=True).total

    p0_num, _ = maximize_1d(objective, 0.0, P, grid_points=65)
    p0_closed = optimal_split_closed_form(scenario)
    assert abs(p0_closed - p0_num) < 0.02 * P


def test_fig5_flags_at_the_cache_extremes():
    # the mixed_opt flags are the one regime classification: a tiny cache
    # favours ZF and a split, a large one multicasting with all power common
    res = run_fig3_4_5(seed=42, samples=30, p_db_grid=(10.0,), m_grid=(0.01, 0.5))
    flags = {r.m: r.flags.split(";") for r in res.rows if r.scheme == "mixed_opt"}
    assert "all_common" not in flags[0.01] and "mc_preferred" not in flags[0.01]
    assert "all_common" in flags[0.5] and "mc_preferred" in flags[0.5]
