//! Reproduction of every figure and table in the paper's evaluation
//! (§5).
//!
//! | Paper artifact | Function | Binary |
//! |----------------|----------|--------|
//! | Fig. 5 (source behaviour)        | [`source_figure`] | `fig5` |
//! | Fig. 6 (remaining energy, U=0.4) | [`remaining_energy_figure`] | `fig6` |
//! | Fig. 7 (remaining energy, U=0.8) | [`remaining_energy_figure`] | `fig7` |
//! | Fig. 8 (miss rate, U=0.4)        | [`miss_rate_figure`] | `fig8` |
//! | Fig. 9 (miss rate, U=0.8)        | [`miss_rate_figure`] | `fig9` |
//! | Table 1 (min storage ratio)      | [`min_capacity_table`] | `table1` |

mod min_capacity;
mod miss_rate;
mod remaining_energy;
mod robustness;
mod source;

pub use min_capacity::{
    min_capacity_table, min_zero_miss_capacity, min_zero_miss_capacity_cached, MinCapacityRow,
    MinCapacityTable,
};
pub use miss_rate::{
    miss_rate_figure, miss_rate_figure_cached, miss_rate_figure_grouped,
    miss_rate_figure_instrumented, MissRateFigure, MissRateRow,
};
pub use remaining_energy::{
    remaining_energy_figure, remaining_energy_figure_cached, RemainingEnergyFigure,
};
pub use robustness::{
    robustness_campaign, robustness_campaign_instrumented, robustness_figure, CampaignReport, Cell,
    QuarantineRecord, RobustnessConfig, RobustnessFigure, RobustnessRow, Sabotage,
};
pub use source::{source_figure, SourceFigure};

use harvest_core::system::PoolStats;

/// A grid axis, accepted and ignored by [`miss_rate_figure_grouped`].
/// Kept because the campaign benchmark passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingMode {
    /// Sibling seeds of one `(capacity, policy)` point.
    Seed,
    /// Policy arms of one `(capacity, seed)` trial.
    Policy,
}

/// How a store-aware sweep executed: which cells were actually
/// simulated versus answered by a verified store hit, and how well the
/// per-worker pooled run contexts were reused. Returned by the
/// `*_cached` figure variants so callers (the `exp sweep` smoke command,
/// benchmarks, CI) can assert e.g. that a warm re-run simulated zero
/// trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepExecStats {
    /// Cells simulated this run.
    pub simulated: u64,
    /// Cells answered by a store probe (figure sweeps). Always 0 for
    /// robustness campaigns, whose store hits resolve through decided
    /// records and count as
    /// [`CampaignReport::resumed`].
    pub cached: u64,
    /// Pool reuse counters aggregated across all workers: total pooled
    /// runs, and the maximum retained queue capacities.
    pub pool: PoolStats,
}

impl SweepExecStats {
    /// Folds one worker pool's counters into the aggregate.
    pub fn merge_pool(&mut self, p: PoolStats) {
        self.pool.runs += p.runs;
        self.pool.event_slab_high_water =
            self.pool.event_slab_high_water.max(p.event_slab_high_water);
        self.pool.ready_high_water = self.pool.ready_high_water.max(p.ready_high_water);
    }

    /// Folds another sweep's stats into this one (pool high-water marks
    /// take the max, counts add).
    pub fn merge(&mut self, other: &SweepExecStats) {
        self.simulated += other.simulated;
        self.cached += other.cached;
        self.merge_pool(other.pool);
    }
}

/// The storage capacities the paper sweeps for the remaining-energy
/// curves (§5.2).
pub const PAPER_CAPACITIES: [f64; 7] = [200.0, 300.0, 500.0, 1000.0, 2000.0, 3000.0, 5000.0];
