"""Workload definitions for the cachecast benchmark.

Each workload is one `cachecast` figure sweep, run in a closed loop by a
single client: the next sweep starts only after the previous one returned.
The seed argument generates the whole config; the program under test sees
only the generated JSON config file.  Grids and sample counts are fixed so
that the work per sweep does not depend on the seed: the seed only selects
the random streams, so run-to-run spread comes from the machine, not from
the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed used when --seed is omitted, and the seed that a later gain claim must
# also hold on without having been used while the change was written.
DEFAULT_SEED = 42
HELDOUT_SEED = 20170320


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cachecast subcommand
    grid: dict  # config keys other than seed and samples
    samples: int
    warmup_grid: dict  # one small point of the same sweep, for the warm-up call
    warmup_samples: int

    def config(self, seed: int) -> dict:
        return {**self.grid, "seed": seed, "samples": self.samples}

    def warmup_config(self, seed: int) -> dict:
        return {**self.warmup_grid, "seed": seed, "samples": self.warmup_samples}

    def expected_rows(self) -> int:
        """Rows one sweep emits; counted as attempted even if the sweep raises."""
        if self.command == "fig1":
            return 4 * len(self.grid["K"]) * len(self.grid["P_dB"])
        if self.command == "fig2":
            return 2 * len(self.grid["K"]) * len(self.grid["P_dB"])
        return 3 * len(self.grid["P_dB"]) * len(self.grid["m"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1-multicast",
            command="fig1",
            grid={"K": [100, 200, 400], "P_dB": [30.0], "m": 0.05},
            samples=2000,
            warmup_grid={"K": [20], "P_dB": [30.0], "m": 0.05},
            warmup_samples=200,
        ),
        Workload(
            name="fig3-mixed",
            command="fig3",
            grid={"P_dB": [10.0, 20.0], "m": [0.05, 0.3]},
            samples=30,
            warmup_grid={"P_dB": [10.0], "m": [0.1]},
            warmup_samples=4,
        ),
        Workload(
            name="fig2-threshold",
            command="fig2",
            grid={"K": [100, 1000, 10000], "P_dB": [30.0, 40.0, 50.0], "m": 0.05},
            samples=10000,
            warmup_grid={"K": [100], "P_dB": [30.0], "m": 0.05},
            warmup_samples=200,
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_TO_END_TO_END = {
    "channel.draw_channel_batch.*, channel.draws_per_row": (
        "wall_s and peak_rss_mb on fig1-multicast, in part on fig3-mixed; 0 on fig2-threshold"
    ),
    "multicast.avg_rate_parallel.*": "wall_s on fig1-multicast",
    "multiplex.symmetric_rate_mc.*, mixed.optimal_split_numeric.*": (
        "wall_s and peak_rss_mb on fig3-mixed; 0 elsewhere"
    ),
    "mathx.maximize_1d.*": "wall_s on fig2-threshold, a little on fig3-mixed",
    "caching.selection_rate_samples.*, selection.simulated_selection_rate.*, "
    "mathx.reg_upper_gamma.*, mathx.lambert_w.*": "wall_s on fig2-threshold",
    "results.RateEstimate.from_values.self_s, experiments.run_fig*.self_s, cli.main.self_s": (
        "orchestration and I/O on every workload; should stay near 0"
    ),
    "trace.overhead_s": "none: traced wall_s minus untraced wall_s",
}

# Measurements this benchmark leaves to later work.
DEFERRED = (
    "Tier-1 test-suite wall time: about 245 s per run, too long for 22 runs per check",
    "in-program tracing (a cachecast.trace module and a --profile CLI flag)",
)
