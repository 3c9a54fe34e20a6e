import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cachecast import channel
from cachecast.caching import (
    SelectedCounts,
    delivery_rate_unicast,
    selection_rate_samples,
    transmissions,
)
from cachecast.channel import (
    RngStream,
    SystemConfig,
    _complex_normal,
    channel_stacks,
    check_count,
    check_number,
    draw_channel_batch,
    draw_stacks,
    exact_min_mean,
    min_norm_statistic,
    sample_batches,
    scalars_per_draw,
    squared_row_norms,
    substacks,
)
from cachecast.mixed import (
    PowerSplit,
    mixed_rates_asymptotic,
    mixed_rates_mc,
    optimal_split_closed_form,
    optimal_split_numeric,
)
from cachecast.multicast import avg_rate_parallel, avg_rate_quasistatic, parallel_rate_bounds
from cachecast.experiments import run_fig1, run_sweep
from cachecast.multiplex import (
    build_zf_precoder,
    symmetric_rate_asymptotic,
    symmetric_rate_mc,
    validate_zf_config,
    zf_statistics,
)


def test_config_validation():
    # the other fields are checked, with their keys, below
    for power in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^P_dB: expected a value in \[0, inf\), got "):
            SystemConfig(num_users=1, num_tx_antennas=1, total_power=power)


_OK = dict(num_users=2, num_tx_antennas=2, total_power=1.0)


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("num_users", 0, "K"),
        ("num_tx_antennas", 0, "nt"),
        ("num_subchannels", 0, "L"),
        ("num_users", 2**63, "K"),
        ("num_tx_antennas", 2**63, "nt"),
        ("num_subchannels", 2**63, "L"),
        ("normalized_cache", 1.5, "m"),
        ("normalized_cache", True, "m"),
        ("csit_error_var", 2.0, "sigma2"),
        ("placement", "exotic", "placement"),
    ],
)
def test_config_errors_lead_with_the_cli_key(field, value, key):
    with pytest.raises(ValueError) as exc:
        SystemConfig(**{**_OK, field: value})
    assert str(exc.value).startswith(f"{key}: ")


def test_value_rules_name_their_key_and_bounds():
    # 2**63 - 1 is the largest count numpy's shapes and binomial draws accept
    for value in (1, 2**63 - 1):
        check_count("n", value)
    for value, rule in ((0, " >= 1"), (-2, " >= 1"), (math.nan, " >= 1"),
                        (math.inf, " below 2**63"), (2**63, " below 2**63"), (2.5, ""),
                        ("2", ""), (None, ""), ([2], "")):
        with pytest.raises(ValueError) as exc:
            check_count("n", value)
        assert str(exc.value) == f"n: expected an integer{rule}, got {value!r}"
    for value in (0.0, 0.5, 1.0, 0, 1, np.int64(0), np.float32(0.5)):
        check_number("x", value)
    for value in (-1e-300, 1.5, math.nan):
        with pytest.raises(ValueError) as exc:
            check_number("x", value)
        assert str(exc.value) == f"x: expected a value in [0, 1], got {value!r}"
    for value in (True, False, "0.5", None, np.bool_(True)):
        with pytest.raises(ValueError) as exc:
            check_number("x", value)
        assert str(exc.value) == f"x: expected a number, got {value!r}"


def test_the_number_rule_prints_its_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy float32 passes, and fails, with no numpy warning
        check_number("x", np.float32(0.5), -1.0, 1.0)
        for value, lo, hi, is_open, expected in (
            (0.0, 0.0, math.inf, True, "(0, inf)"),
            (math.inf, 0.0, math.inf, False, "[0, inf)"),
            (2.5, 0.0, 2.0, False, "[0, 2]"),
            (1.0, 0.25, 1.0, True, "(0.25, 1)"),
            (np.float32(2.0), -1.0, 1.0, False, "[-1, 1]"),
            (10**400, -math.inf, math.inf, False, "(-inf, inf)"),
        ):
            with pytest.raises(ValueError) as exc:
                check_number("x", value, lo, hi, open=is_open)
            assert str(exc.value) == f"x: expected a value in {expected}, got {value!r}"


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: transmissions("decentralized", 0.1, 0), "K"),
        (lambda: transmissions("centralized", 1.5, 4), "m"),
        (lambda: delivery_rate_unicast(-0.1, 1.0, 4), "m"),
        (lambda: selection_rate_samples(0.1, 4, 0.5, 1.0, SelectedCounts(RngStream(0), 0)), "samples"),
        (lambda: selection_rate_samples(1.0, 4, 0.5, 1.0, SelectedCounts(RngStream(0), 10)), "m"),
        (lambda: sample_batches(RngStream(0), 2**63, 1), "samples"),
        (lambda: min_norm_statistic(0, 2, RngStream(0), 10), "nt"),
        (lambda: min_norm_statistic(2, 0, RngStream(0), 10), "K"),
        (lambda: exact_min_mean(0, 2), "nt"),
        (lambda: exact_min_mean(2, 0), "K"),
        (lambda: avg_rate_quasistatic(SystemConfig(**_OK, num_subchannels=2), RngStream(0), 10),
         "L"),
        # an integral float or a bool is not an integer: each used to reach numpy's TypeError
        (lambda: SystemConfig(num_users=2.0, num_tx_antennas=1, total_power=10.0), "K"),
        (lambda: SystemConfig(num_users=True, num_tx_antennas=1, total_power=10.0), "K"),
        (lambda: run_fig1(samples=10, k_grid=(20.0,)), "K"),
        (lambda: avg_rate_parallel(SystemConfig(**_OK), RngStream(0), 2.0), "samples"),
        (lambda: min_norm_statistic(2.0, 3, RngStream(0), 10), "nt"),
        (lambda: exact_min_mean(2.0, 3), "nt"),
        (lambda: build_zf_precoder(np.ones((3, 2))), "nt"),
        # a fractional seed, id or index used to be truncated onto another stream's key
        (lambda: RngStream(1.5), "seed"),
        (lambda: RngStream(True), "seed"),
        (lambda: RngStream(0, 1.5), "stream_id"),
        (lambda: RngStream(0).derive(0.5), "index"),
        (lambda: transmissions("mixed", 0.5, 4), "placement"),
        # a NaN power used to pass db_to_linear
        (lambda: run_sweep(samples=10, num_users=2, p_db_grid=(math.nan,)), "P_dB"),
        (lambda: run_fig1(samples=10, k_grid=(20,), p_db_grid=(math.nan,)), "P_dB"),
    ],
    ids=["transmissions-K", "transmissions-m", "unicast-m", "selection-samples", "selection-m",
         "sample_batches", "min_norm-nt", "min_norm-K", "exact_min-nt", "exact_min-K",
         "quasistatic-L", "config-float-K", "config-bool-K", "fig1-float-K", "parallel-float-samples",
         "min_norm-float-nt", "exact_min-float-nt", "zf_precoder-nt", "stream-float-seed",
         "stream-bool-seed", "stream-float-id", "derive-float-index", "transmissions-placement",
         "sweep-nan-P_dB", "fig1-nan-P_dB"],
)
def test_library_entry_points_fail_by_key(call, key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert str(exc.value).startswith(f"{key}: ")


def test_numpy_integers_pass_the_integer_rule():
    cfg = SystemConfig(num_users=np.int64(2), num_tx_antennas=np.int64(2), total_power=1.0)
    assert cfg == SystemConfig(**_OK)
    stream = RngStream(np.int64(3), np.uint64(1)).derive(np.int64(2))
    assert stream == RngStream(3, 1).derive(2)
    assert stream.generator().standard_normal() == RngStream(3, 1).derive(2).generator().standard_normal()
    assert avg_rate_parallel(cfg, RngStream(np.int64(0)), np.int64(5)) == avg_rate_parallel(
        SystemConfig(**_OK), RngStream(0), 5
    )
    assert exact_min_mean(np.int64(2), np.int64(3)) == exact_min_mean(2, 3)


@pytest.mark.parametrize(
    "check",
    [
        validate_zf_config,
        symmetric_rate_asymptotic,
        lambda c: mixed_rates_asymptotic(c, PowerSplit.compute(c, 0.0)),
        # the config is checked before the (2**62,) outputs would be allocated
        lambda c: symmetric_rate_mc(c, RngStream(0), 2**62),
        lambda c: zf_statistics(c, RngStream(0), 2**62),
        # the closed form used to skip the rule: at L = 2 it returned a split
        optimal_split_closed_form,
    ],
    ids=["validate", "symmetric_asymptotic", "mixed_asymptotic", "symmetric_mc", "zf_statistics",
         "closed_form_split"],
)
@pytest.mark.parametrize(
    "overrides, key",
    [({"num_users": 8, "num_tx_antennas": 4}, "nt"), ({"num_subchannels": 2}, "L")],
    ids=["nt_below_K", "L2"],
)
def test_zero_forcing_errors_lead_with_the_cli_key(check, overrides, key):
    with pytest.raises(ValueError) as exc:
        check(SystemConfig(**{**_OK, **overrides}))
    assert str(exc.value).startswith(f"{key}: ")


def test_split_holds_bit_exactly():
    cfg = SystemConfig(num_users=3, num_tx_antennas=4, total_power=5.0, csit_error_var=0.3)
    true, est, err = draw_channel_batch(cfg, RngStream(1).generator(), 3)
    assert true.shape == (3, 1, 3, 4)
    np.testing.assert_array_equal(true, est + err)


@pytest.mark.parametrize("s2", [0.0, 1.0])
def test_degenerate_draw_allocates_only_the_drawn_tensor(s2):
    # the zero part is a read-only view, so a draw holds one unit of
    # n*L*K*nt*16 bytes, not a drawn tensor plus a zero one
    cfg = SystemConfig(
        num_users=20, num_tx_antennas=5, total_power=1.0, num_subchannels=2, csit_error_var=s2
    )
    n = 500
    gen = RngStream(8).generator()
    draw_channel_batch(cfg, gen, 1)  # numpy's one-time set-up is not working set
    tracemalloc.start()
    try:
        true, est, err = draw_channel_batch(cfg, gen, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (n * 2 * 20 * 5 * 16) < 1.1
    zero = err if s2 == 0.0 else est
    assert zero.shape == true.shape and not zero.flags.writeable and not zero.any()


@pytest.mark.parametrize("s2", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("L", [1, 3])
def test_channel_stacks_equal_the_one_shot_draw(s2, L):
    # n = 1 is one sub-stack; 3 * step + 2 rows are four, the last of two rows
    cfg = SystemConfig(
        num_users=20, num_tx_antennas=30, total_power=1.0, num_subchannels=L, csit_error_var=s2
    )
    step = next(substacks(10**6, scalars_per_draw(cfg))).stop
    for n in (1, 3 * step + 2):
        gen, ref_gen = RngStream(8).generator(), RngStream(8).generator()
        ref = draw_channel_batch(cfg, ref_gen, n)
        seen = []
        for rows, *parts in channel_stacks(cfg, gen, n):
            assert rows.start == sum(r.stop - r.start for r in seen)
            seen.append(rows)
            for part, whole in zip(parts, ref):
                assert part.shape == whole[rows].shape and np.all(part == whole[rows])
        assert seen[-1].stop == n and len(seen) == (1 if n == 1 else 4)
        assert gen.standard_normal() == ref_gen.standard_normal()


@pytest.mark.parametrize("blind_beams", [False, True])
@pytest.mark.parametrize("s2", [0.0, 0.3, 1.0])
def test_draw_stacks_keep_the_batch_walk_and_beam_order(s2, blind_beams, monkeypatch):
    # the reference is the walk the estimators wrote out by hand before
    # draw_stacks: channel_stacks of each sample_batches batch and, for ZF at
    # sigma2 = 1, one isotropic beam matrix per sub-stack after all the batch's channels
    cfg = SystemConfig(
        num_users=3, num_tx_antennas=2, total_power=1.0, num_subchannels=2, csit_error_var=s2
    )
    per_draw, samples = scalars_per_draw(cfg), 7_000
    monkeypatch.setattr(channel, "_BATCH_TARGET", 3_000 * per_draw)
    ref_rows, ref = [], []
    for ref_gen, batch in sample_batches(RngStream(12), samples, per_draw):
        stacks = list(channel_stacks(cfg, ref_gen, batch.stop - batch.start))
        if s2 == 1.0 and blind_beams:
            stacks = [(r, t, _complex_normal(ref_gen, t.shape, 1.0), e) for r, t, _, e in stacks]
        ref_rows += [slice(batch.start + r.start, batch.start + r.stop) for r, *_ in stacks]
        ref += [parts for _, *parts in stacks]
    # three batches (3000, 3000, 1000), and more than one sub-stack in a full batch
    assert len(list(sample_batches(RngStream(12), samples, per_draw))) == 3 and len(ref) >= 5
    made, generator = [], RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: made.append(generator(self)) or made[-1])
    walk = list(draw_stacks(cfg, RngStream(12), samples, blind_beams))
    assert len(made) == 1
    assert [rows for rows, *_ in walk] == ref_rows and ref_rows[-1].stop == samples
    for (_, *parts), ref_parts in zip(walk, ref):
        for part, whole in zip(parts, ref_parts):
            assert part.shape == whole.shape and part.tobytes() == whole.tobytes()
    assert all(est.any() for _, _, est, _ in walk) == (s2 < 1.0 or blind_beams)
    assert made[0].standard_normal() == ref_gen.standard_normal()


@pytest.mark.parametrize("shape", [(1,), (7, 3), (4, 1, 5, 6)])
@pytest.mark.parametrize("var", [1.0, 0.3])
def test_complex_normal_matches_reference_formula_bit_for_bit(shape, var):
    out = _complex_normal(RngStream(5).generator(), shape, var)
    p = RngStream(5).generator().standard_normal(size=shape + (2,))
    ref = (p[..., 0] + 1j * p[..., 1]) * math.sqrt(var / 2.0)
    assert out.shape == shape and out.dtype == np.complex128
    assert np.array_equal(out.view(np.float64), ref.view(np.float64))
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_degenerate_error_variances():
    perfect = SystemConfig(num_users=2, num_tx_antennas=2, total_power=1.0, csit_error_var=0.0)
    true, est, err = draw_channel_batch(perfect, RngStream(2).generator(), 2)
    np.testing.assert_array_equal(est, true)
    assert np.all(err == 0)
    blind = SystemConfig(num_users=2, num_tx_antennas=2, total_power=1.0, csit_error_var=1.0)
    true, est, err = draw_channel_batch(blind, RngStream(2).generator(), 2)
    np.testing.assert_array_equal(err, true)
    assert np.all(est == 0)


def test_entry_variances():
    cfg = SystemConfig(num_users=40, num_tx_antennas=25, total_power=1.0, csit_error_var=0.25)
    true, est, err = draw_channel_batch(cfg, RngStream(3).generator(), 200)
    assert np.mean(np.abs(est) ** 2) == pytest.approx(0.75, rel=0.02)
    assert np.mean(np.abs(err) ** 2) == pytest.approx(0.25, rel=0.02)
    assert np.mean(np.abs(true) ** 2) == pytest.approx(1.0, rel=0.02)


def test_stream_reproducibility_and_independence():
    cfg = SystemConfig(num_users=2, num_tx_antennas=2, total_power=1.0)
    a = draw_channel_batch(cfg, RngStream(7, 1).generator(), 1)[0]
    b = draw_channel_batch(cfg, RngStream(7, 1).generator(), 1)[0]
    c = draw_channel_batch(cfg, RngStream(7, 2).generator(), 1)[0]
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_is_deterministic_and_distinct():
    root = RngStream(11)
    assert root.derive(3) == root.derive(3)
    assert root.derive(3) != root.derive(4)
    assert root.derive(0) != root


def test_squared_row_norms():
    h = np.array([[1.0 + 1.0j, 2.0]])
    assert squared_row_norms(h)[0] == pytest.approx(6.0)


def test_squared_row_norms_over_substacks_match_one_shot_formula():
    h = _complex_normal(RngStream(6).generator(), (100, 3, 40, 20), 0.7)
    assert len(list(substacks(100, 3 * 40 * 20))) >= 3
    ref = (h.real * h.real + h.imag * h.imag).sum(axis=-1)
    out = squared_row_norms(h)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert squared_row_norms(h[0, 0, 0]) == ref[0, 0, 0]


def test_rng_stream_rejects_identities_outside_the_key_space():
    M = 1_000_003
    for seed, rule in ((-1, ">= 0"), (2**64, "below 2**64")):
        with pytest.raises(ValueError) as exc:
            RngStream(seed)
        assert str(exc.value) == f"seed: expected an integer {rule}, got {seed!r}"
    RngStream(2**64 - 1).generator()
    root = RngStream(0)
    for index, rule in ((-1, ">= 0"), (M - 1, f"below {M - 1}"), (M, f"below {M - 1}")):
        with pytest.raises(ValueError) as exc:
            root.derive(index)
        assert str(exc.value) == f"index: expected an integer {rule}, got {index!r}"
    # derive(M) used to land on derive(0).derive(0)
    assert root.derive(0).derive(0).stream_id == M + 1
    RngStream(0, (2**64 - 1) // M - 1).derive(0)
    with pytest.raises(ValueError, match="^stream_id: expected an integer below 2[*][*]64, got "):
        RngStream(0, (2**64 - 1) // M + 1).derive(0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)


def test_derived_ids_are_unchanged():
    M = 1_000_003
    root = RngStream(9)
    assert root.derive(0).stream_id == 1
    assert root.derive(M - 2).stream_id == M - 1
    assert root.derive(5).derive(2).stream_id == 6 * M + 3
    assert root.derive(5).derive(2).derive(1).stream_id == (6 * M + 3) * M + 2
    assert RngStream(7, 1).derive(3) == RngStream(7, M + 4)


def test_scalars_per_draw_counts_error_draws():
    base = dict(num_users=3, num_tx_antennas=2, total_power=1.0, num_subchannels=2)
    assert scalars_per_draw(SystemConfig(**base)) == 24
    assert scalars_per_draw(SystemConfig(**base, csit_error_var=1.0)) == 24
    assert scalars_per_draw(SystemConfig(**base, csit_error_var=0.5)) == 48


def test_sample_batches_partition():
    stream = RngStream(4)
    batches = list(sample_batches(stream, 10_000, 1_000))
    assert [(r.start, r.stop) for _, r in batches] == [(0, 4_000), (4_000, 8_000), (8_000, 10_000)]
    assert all(gen is batches[0][0] for gen, _ in batches)
    assert batches[0][0].standard_normal() == stream.generator().standard_normal()
    # the batches are the sub-stack rule at a larger budget
    assert [r for _, r in batches] == list(substacks(10_000, 1_000, 4_000_000))
    with pytest.raises(ValueError):
        sample_batches(stream, 0, 10)


_ZF_CFG = SystemConfig(
    num_users=2, num_tx_antennas=3, total_power=4.0, normalized_cache=0.2, csit_error_var=0.1
)
_FULL_CACHE_CFG = SystemConfig(
    num_users=2, num_tx_antennas=3, total_power=4.0, normalized_cache=1.0, csit_error_var=0.1
)


@pytest.mark.parametrize(
    "estimator",
    [
        lambda n: avg_rate_parallel(_ZF_CFG, RngStream(1), n),
        lambda n: parallel_rate_bounds(_ZF_CFG, RngStream(1), n),
        lambda n: symmetric_rate_mc(_ZF_CFG, RngStream(1), n),
        lambda n: mixed_rates_mc(_ZF_CFG, PowerSplit.compute(_ZF_CFG, 1.0), RngStream(1), n),
        lambda n: optimal_split_numeric(_ZF_CFG, RngStream(1), n),
        lambda n: optimal_split_numeric(_FULL_CACHE_CFG, RngStream(1), n),
        lambda n: min_norm_statistic(3, 2, RngStream(1), n),
    ],
    ids=["parallel", "bounds", "symmetric", "mixed", "split", "split_full_cache", "min_norm"],
)
@pytest.mark.parametrize("samples", [0, -1])
def test_estimators_check_samples_before_allocating(estimator, samples, monkeypatch):
    # the outputs are allocated at (samples,): the check must come first, or
    # -1 would surface as numpy's "negative dimensions" error; no generator is made either
    monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("a generator was made"))
    with pytest.raises(ValueError) as exc:
        estimator(samples)
    assert str(exc.value) == f"samples: expected an integer >= 1, got {samples}"


# 10^308 is a finite power, but P |h|^2 and P/K |g|^2 overflow a float on these draws
_OVERFLOW_CFG = SystemConfig(
    num_users=2, num_tx_antennas=3, total_power=1e308, normalized_cache=0.2, csit_error_var=0.1
)


@pytest.mark.parametrize(
    "estimator",
    [
        lambda: avg_rate_parallel(_OVERFLOW_CFG, RngStream(1), 64),
        lambda: parallel_rate_bounds(_OVERFLOW_CFG, RngStream(1), 64),
        lambda: symmetric_rate_mc(_OVERFLOW_CFG, RngStream(1), 64),
        lambda: mixed_rates_mc(
            _OVERFLOW_CFG, PowerSplit.compute(_OVERFLOW_CFG, 1e308), RngStream(1), 64
        ),
        lambda: optimal_split_numeric(_OVERFLOW_CFG, RngStream(1), 64),
    ],
    ids=["parallel", "bounds", "symmetric", "mixed", "split"],
)
def test_estimators_fail_by_the_power_at_the_first_overflow(estimator):
    # every estimator computes its rates under results.rates_overflow_by_power:
    # no numpy warning, and no inf carried on into a min over users
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            estimator()
    assert str(exc.value) == "P_dB: the power overflows a rate past the float range"


def test_exact_min_mean_known_values():
    # closed-form / quadrature-checked references
    assert exact_min_mean(1, 7) == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert exact_min_mean(2, 2) == pytest.approx(0.625, abs=1e-15)
    assert exact_min_mean(2, 5) == pytest.approx(0.35104, abs=1e-12)
    assert exact_min_mean(3, 4) == pytest.approx(0.488677978515625, abs=1e-12)


def test_exact_min_mean_guard():
    with pytest.raises(ValueError):
        exact_min_mean(5, 100)


def test_min_norm_statistic_matches_exact_mean():
    est = min_norm_statistic(2, 5, RngStream(13), 200_000)
    assert abs(est.mean - 0.35104) < 4 * est.std_err
    assert est.std_err > 0
    again = min_norm_statistic(2, 5, RngStream(13), 200_000)
    assert est.mean == again.mean


def test_min_norm_statistic_float32_agrees():
    a = min_norm_statistic(2, 10, RngStream(17), 50_000)
    b = min_norm_statistic(2, 10, RngStream(18), 50_000, dtype=np.float32)
    assert b.mean == pytest.approx(a.mean, rel=0.05)
