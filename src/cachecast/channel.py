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
    "check_number",
    "check_quasistatic",
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


def check_number(key: str, value, lo: float = 0.0, hi: float = 1.0, open: bool = False) -> None:
    """The one real-number rule, keyed: a real number, not a bool, finite, in [lo, hi].

    With `open` the range is (lo, hi); the defaults make it the fraction rule.
    Finite means within the float range: NaN, +-inf and an int too large for
    a float fail.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key}: expected a number, got {value!r}")
    try:
        inside = (lo < value < hi if open else lo <= value <= hi) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        inside = False
    if not inside:
        left, right = "(" if open or lo == -math.inf else "[", ")" if open or hi == math.inf else "]"
        ends = ", ".join(repr(float(x)).removesuffix(".0") for x in (lo, hi))  # [0, 1], not [0.0, 1.0]
        raise ValueError(f"{key}: expected a value in {left}{ends}{right}, got {value!r}")


def check_quasistatic(cfg: SystemConfig, what: str) -> None:
    """The one quasi-static rule, keyed: `what` runs on one sub-channel (L = 1)."""
    L = cfg.num_subchannels
    if L != 1:
        raise ValueError(f"L: {what} runs on the quasi-static channel (L = 1), got {L!r}")


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
        check_number("P_dB", self.total_power, 0.0, math.inf)
        check_number("m", self.normalized_cache)
        check_number("sigma2", self.csit_error_var)
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
    """Exact E[min_k ||H_k||^2 / nt]: the integral of the survival function (exp(-y) f(y))^K over y = nt * x.

    f(y) = sum_{j<nt} y^j / j! by Horner; past its float range, from about
    nt = 450, it raises by nt.
    """
    from .mathx import tail_integral  # mathx imports this module's rules
    check_count("nt", nt)
    check_count("K", num_users)

    def tail(y: float) -> float:
        f = 1.0
        for j in range(nt - 1, 0, -1):
            f = 1.0 + f * y / j
        if math.isinf(f):
            raise ValueError(f"nt: {nt!r} antennas put the worst-user mean past the float range")
        return math.exp(num_users * (math.log(f) - y))

    return tail_integral(lambda y: 1.0, tail, nt) / nt
