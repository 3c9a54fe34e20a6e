"""Cache-aided multi-antenna content delivery: simulation and asymptotics.

Core objects: a `SystemConfig` scenario, seeded `RngStream`s, Monte-Carlo
rate estimators for multicasting / user selection / zero-forcing
multiplexing / mixed delivery, and their large-system closed forms.
"""

from .caching import (
    delivery_rate_multicast,
    delivery_rate_selection,
    delivery_rate_unicast,
    transmissions,
)
from .channel import RngStream, SystemConfig, exact_min_mean, min_norm_statistic
from .mixed import (
    MixedRates,
    PowerSplit,
    SplitOptimum,
    mixed_rates_asymptotic,
    mixed_rates_mc,
    optimal_split_closed_form,
    optimal_split_numeric,
)
from .multicast import (
    AsymptoticRate,
    asymptotic_rate,
    avg_rate_parallel,
    avg_rate_quasistatic,
    extreme_value_scale,
    parallel_rate_bounds,
)
from .multiplex import (
    ZfPrecoder,
    build_zf_precoder,
    symmetric_rate_asymptotic,
    symmetric_rate_mc,
    zf_beams,
    zf_stats,
)
from .results import RateEstimate
from .selection import (
    empirical_optimal_threshold,
    optimal_threshold_rayleigh,
    simulated_selection_rate,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRate",
    "MixedRates",
    "PowerSplit",
    "RateEstimate",
    "RngStream",
    "SplitOptimum",
    "SystemConfig",
    "ZfPrecoder",
    "asymptotic_rate",
    "avg_rate_parallel",
    "avg_rate_quasistatic",
    "build_zf_precoder",
    "delivery_rate_multicast",
    "delivery_rate_selection",
    "delivery_rate_unicast",
    "empirical_optimal_threshold",
    "exact_min_mean",
    "extreme_value_scale",
    "min_norm_statistic",
    "mixed_rates_asymptotic",
    "mixed_rates_mc",
    "optimal_split_closed_form",
    "optimal_split_numeric",
    "optimal_threshold_rayleigh",
    "parallel_rate_bounds",
    "simulated_selection_rate",
    "symmetric_rate_asymptotic",
    "symmetric_rate_mc",
    "transmissions",
    "zf_beams",
    "zf_stats",
    "__version__",
]
