"""Seeded Rayleigh fading channels with imperfect transmitter-side estimates.

The true channel of every user splits into an estimate and an error with
per-entry variances 1 - sigma2 and sigma2; the split holds bit-exactly on
every draw.  Streams are counter-based (Philox keyed by (seed, stream_id)),
so distinct ids give independent sequences without coordination.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .results import RateEstimate

__all__ = [
    "SystemConfig",
    "check_count",
    "check_fraction",
    "RngStream",
    "draw_channel_batch",
    "channel_stacks",
    "draw_stacks",
    "min_norm_statistic",
    "exact_min_mean",
    "squared_row_norms",
    "substacks",
    "scalars_per_draw",
    "sample_batches",
]

PLACEMENTS = ("centralized", "decentralized")

# recursion guard for exact_min_mean; beyond this the sum has too many terms
MAX_EXACT_MIN_TERMS = 200

# target scalar draws per batch, shared by every estimator so that paired-seed
# runs of different modules consume the stream identically
_BATCH_TARGET = 4_000_000

# scalars per sub-stack of row-local work inside one batch: small enough that
# a sub-stack's temporaries stay far below a batch, large enough that the
# per-sub-stack Python overhead is noise
_SUBSTACK_SCALARS = 1 << 16

# stream ids are multiplied by this on every derive; the Philox key words are
# 64-bit, which bounds seeds and ids
_DERIVE_MODULUS = 1_000_003
_KEY_LIMIT = 1 << 64


def check_count(key: str, value, lo: int = 1, hi: int = 2**63) -> None:
    """The one integer rule, keyed: an int or numpy integer, not a bool, in [lo, hi); a count by default."""
    real = isinstance(value, numbers.Real)
    if real and not value >= lo:
        raise ValueError(f"{key}: expected an integer >= {lo}, got {value!r}")
    if real and not value < hi:
        bound = f"2**{hi.bit_length() - 1}" if hi & (hi - 1) == 0 else hi
        raise ValueError(f"{key}: expected an integer below {bound}, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key}: expected an integer, got {value!r}")


def check_fraction(key: str, value) -> None:
    """The one fraction rule, keyed: a number, not a bool, in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key}: expected a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{key}: expected a value in [0, 1], got {value!r}")


def _check_placement(placement) -> None:
    if placement not in PLACEMENTS:
        raise ValueError(f"placement: expected one of {PLACEMENTS}, got {placement!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters; power is linear SNR with unit noise."""

    num_users: int
    num_tx_antennas: int
    total_power: float
    num_subchannels: int = 1
    normalized_cache: float = 0.0
    csit_error_var: float = 0.0
    placement: str = "decentralized"

    def __post_init__(self) -> None:
        """Each message leads with the config key the CLI reads the field from."""
        check_count("K", self.num_users)
        check_count("nt", self.num_tx_antennas)
        check_count("L", self.num_subchannels)
        if not 0.0 <= self.total_power < math.inf:
            raise ValueError(f"P_dB: total_power must be finite and nonnegative, got {self.total_power}")
        check_fraction("m", self.normalized_cache)
        check_fraction("sigma2", self.csit_error_var)
        _check_placement(self.placement)


@dataclass(frozen=True)
class RngStream:
    """Counter-based splittable stream identity.

    The Philox key is (seed, stream_id), so both must be integers in
    [0, 2**64); a derivation too deep for that fails by the stream_id rule.
    `derive(i)` maps id to id * M + i + 1 with M = _DERIVE_MODULUS and
    0 <= i <= M - 2: the map is injective, and the ids derived from root 0
    at different depths fall in disjoint ranges ([1, M-1], [M+1, M^2-1],
    ...), so no two derivation paths from root 0 share a stream.  A root
    built with a nonzero stream_id can still equal some derived id.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        check_count("seed", self.seed, 0, _KEY_LIMIT)
        check_count("stream_id", self.stream_id, 0, _KEY_LIMIT)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, index: int) -> "RngStream":
        """Deterministic disjoint substream (e.g. one per grid point)."""
        check_count("index", index, 0, _DERIVE_MODULUS - 1)
        return RngStream(self.seed, int(self.stream_id) * _DERIVE_MODULUS + int(index) + 1)


def _complex_normal(gen: np.random.Generator, shape: tuple, var: float) -> np.ndarray:
    # (real, imag) pairs scaled in place and read as complex: no temporaries
    parts = gen.standard_normal(size=shape + (2,))
    parts *= math.sqrt(var / 2.0)
    return parts.view(np.complex128)[..., 0]


def draw_channel_batch(
    cfg: SystemConfig, gen: np.random.Generator, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n independent realizations: (true, est, err), each (n, L, K, nt).

    The degenerate variances skip the redundant normal draws, so the stream
    consumption is a deterministic function of (cfg, n).  There the zero
    part (err at sigma2 = 0, est at sigma2 = 1) is a read-only zero-stride
    view of one scalar: it costs no memory, and its nbytes is still the
    logical size.
    """
    shape = (n, cfg.num_subchannels, cfg.num_users, cfg.num_tx_antennas)
    s2 = cfg.csit_error_var
    if s2 in (0.0, 1.0):
        drawn = _complex_normal(gen, shape, 1.0)
        zero = np.broadcast_to(np.complex128(0.0), shape)
        return (drawn, drawn, zero) if s2 == 0.0 else (drawn, zero, drawn)
    est = _complex_normal(gen, shape, 1.0 - s2)
    err = _complex_normal(gen, shape, s2)
    return est + err, est, err


def substacks(n: int, scalars_per_row: int, budget: int = _SUBSTACK_SCALARS) -> Iterator[slice]:
    """Consecutive slices of range(n) of budget // scalars_per_row rows (at least one).

    The one rule that splits every stream: `sample_batches` cuts the samples
    into batches at _BATCH_TARGET scalars, and row-local work inside a batch
    runs one sub-stack of about _SUBSTACK_SCALARS at a time, so its
    temporaries stay a fixed size; results are bit-identical to the one-shot
    expression because no reduction crosses axis 0.
    """
    step = max(1, budget // max(scalars_per_row, 1))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def channel_stacks(
    cfg: SystemConfig, gen: np.random.Generator, n: int, blind_beams: bool = False
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, true, est, err) of n draws, one sub-stack at a time, in stream order.

    At sigma2 in {0, 1} each sub-stack is `draw_channel_batch` of its rows.
    At 0 < sigma2 < 1 the n estimates come first in the stream and are drawn
    at once; the errors follow one sub-stack at a time.  Philox fills
    sequentially and est + err is elementwise, so every value and the final
    stream position equal those of `draw_channel_batch(cfg, gen, n)`.

    With `blind_beams` at sigma2 = 1, where the estimate is zero, each est
    is an isotropic CN(0, 1) matrix to build beams from, drawn after all n
    channels so the channel stream position stays a function of (cfg, n).
    n is checked on the call, before anything is drawn.
    """
    check_count("n", n, 0)
    return _channel_stacks(cfg, gen, n, blind_beams)


def _channel_stacks(cfg: SystemConfig, gen: np.random.Generator, n: int, blind_beams: bool):
    s2 = cfg.csit_error_var
    blocks = substacks(n, scalars_per_draw(cfg))
    if s2 in (0.0, 1.0):
        stacks = ((rows, *draw_channel_batch(cfg, gen, rows.stop - rows.start)) for rows in blocks)
        if s2 == 1.0 and blind_beams:
            # list() runs as the expression is built, so every channel is drawn first
            stacks = ((r, t, _complex_normal(gen, t.shape, 1.0), e) for r, t, _, e in list(stacks))
        yield from stacks
        return
    shape = (cfg.num_subchannels, cfg.num_users, cfg.num_tx_antennas)
    est = _complex_normal(gen, (n,) + shape, 1.0 - s2)
    for rows in blocks:
        err = _complex_normal(gen, (rows.stop - rows.start,) + shape, s2)
        yield rows, est[rows] + err, est[rows], err


def draw_stacks(cfg: SystemConfig, rng: RngStream, samples: int, blind_beams: bool = False):
    """`channel_stacks` of each `sample_batches` batch: the one draw walk of every estimator.

    Yields (rows, true, est, err) in stream order on one generator of rng,
    rows counted from sample 0.  `samples` is checked on the call, before
    the caller allocates its outputs.
    """
    batches = sample_batches(rng, samples, scalars_per_draw(cfg))
    return (
        (slice(batch.start + rows.start, batch.start + rows.stop), true, est, err)
        for gen, batch in batches
        for rows, true, est, err in channel_stacks(cfg, gen, batch.stop - batch.start, blind_beams)
    )


def squared_row_norms(h: np.ndarray) -> np.ndarray:
    """Sum of |entry|^2 along the last (antenna) axis.

    The estimators pass one sub-stack of `channel_stacks` at a time, and
    imag^2 is added into real^2 in place, so the two temporaries stay a
    sub-stack's size.
    """
    sq = h.real * h.real
    sq += h.imag * h.imag
    return sq.sum(axis=-1)


def scalars_per_draw(cfg: SystemConfig) -> int:
    """Normal scalars of one channel realization, blind beams aside; fixes the batch partition."""
    base = 2 * cfg.num_subchannels * cfg.num_users * cfg.num_tx_antennas
    return base if cfg.csit_error_var in (0.0, 1.0) else 2 * base


def sample_batches(
    rng: RngStream, samples: int, scalars_per_sample: int
) -> Iterator[Tuple[np.random.Generator, slice]]:
    """(gen, rows) for each batch of range(samples), all on one generator of rng.

    The batches are the `substacks` of the samples at _BATCH_TARGET, in
    draw order; `draw_stacks` and `min_norm_statistic` walk them.  `samples`
    is checked on the call, before the caller allocates its outputs.
    """
    check_count("samples", samples)
    gen = rng.generator()
    return ((gen, rows) for rows in substacks(samples, scalars_per_sample, _BATCH_TARGET))


def min_norm_statistic(
    nt: int,
    num_users: int,
    rng: RngStream,
    samples: int,
    dtype=np.float64,
) -> RateEstimate:
    """Monte-Carlo estimate of E[min_k ||H_k||^2 / nt].

    ||H_k||^2 / nt is a sum of nt unit-mean exponentials scaled by 1/nt, so
    the minimum is sampled directly from exponentials; float32 halves the
    cost of the very large (K, samples) grids without hurting a mean
    estimate at MC precision.
    """
    check_count("nt", nt)
    check_count("K", num_users)
    batches = sample_batches(rng, samples, num_users * nt)
    mins = np.empty(samples)
    for gen, rows in batches:
        # leading antenna axis: reducing over it is contiguous and cheap
        draws = gen.standard_exponential((nt, rows.stop - rows.start, num_users), dtype=dtype)
        mins[rows] = draws.sum(axis=0).min(axis=1) / nt
    return RateEstimate.from_values(mins)


def exact_min_mean(nt: int, num_users: int) -> float:
    """Exact E[min_k ||H_k||^2 / nt] via the power-series expansion.

    The survival function of the minimum is exp(-K*y) * f(y)^K with
    f(y) = sum_{j<nt} y^j / j! and y = nt*x; integrating termwise gives
    (1/nt) * sum_i c_i * i! * K^(-i-1) where c_i are the series coefficients
    of f^K, computed with the power-of-a-series recurrence
    c_i = (1/i) * sum_j ((K+1) j - i) / j! * c_{i-j}.  Exact rationals keep
    the alternating-sign cancellation lossless.
    """
    from fractions import Fraction  # loaded on use, with decimal: of the commands only `check` runs this
    check_count("nt", nt)
    check_count("K", num_users)
    K = num_users
    n_terms = K * (nt - 1)
    if n_terms > MAX_EXACT_MIN_TERMS:
        raise ValueError(
            f"K*(nt-1) = {n_terms} exceeds the stability guard {MAX_EXACT_MIN_TERMS}"
        )
    coeffs = [Fraction(0)] * (n_terms + 1)
    coeffs[0] = Fraction(1)
    for i in range(1, n_terms + 1):
        acc = Fraction(0)
        for j in range(1, min(i, nt - 1) + 1):
            acc += Fraction((K + 1) * j - i, math.factorial(j)) * coeffs[i - j]
        coeffs[i] = acc / i
    total = sum(
        c * Fraction(math.factorial(i)) / Fraction(K) ** (i + 1)
        for i, c in enumerate(coeffs)
    )
    return float(total) / nt
