//! Reproduction of every figure and table in the paper's evaluation
//! (§5).
//!
//! | Paper artifact | Function | Command |
//! |----------------|----------|---------|
//! | Fig. 5 (source behaviour)        | [`source_figure`] | `exp fig5` |
//! | Fig. 6 (remaining energy, U=0.4) | [`remaining_energy_figure`] | `exp fig6` |
//! | Fig. 7 (remaining energy, U=0.8) | [`remaining_energy_figure`] | `exp fig7` |
//! | Fig. 8 (miss rate, U=0.4)        | [`miss_rate_figure`] | `exp fig8` |
//! | Fig. 9 (miss rate, U=0.8)        | [`miss_rate_figure`] | `exp fig9` |
//! | Table 1 (min storage ratio)      | [`min_capacity_table`] over [`min_zero_miss_capacity`], against [`PAPER_TABLE1`] | `exp table1` |
//! | Robustness (not in the paper)    | [`robustness_campaign`] | `exp fault-sweep` |
//!
//! Every driver but Fig. 5's takes one [`RunPlan`] — worker threads,
//! an optional [`PackStore`], campaign telemetry — and returns its
//! figure with the [`SweepExecStats`] of the run. The three fault-free
//! drivers resolve their cells through one private resolver (probe the
//! store, build the missing prefabs, simulate the rest, write back,
//! barrier); [`robustness_campaign`] keeps its own quarantining loop.

mod min_capacity;
mod miss_rate;
mod remaining_energy;
mod resolve;
mod robustness;
mod source;

pub use min_capacity::{
    min_capacity_table, min_zero_miss_capacity, min_zero_miss_capacity_cached, PAPER_TABLE1,
};
pub use miss_rate::{miss_rate_figure, miss_rate_figure_grouped, MissRateFigure, MissRateRow};
pub use remaining_energy::remaining_energy_figure;
pub use robustness::{robustness_campaign, Cell, RobustnessConfig, Sabotage};
pub use source::source_figure;

use harvest_core::system::PoolStats;

use crate::store::PackStore;
use crate::telemetry::CampaignTelemetry;

/// How a figure driver runs: on how many worker threads, against which
/// result store, under which campaign telemetry.
///
/// Callers build one directly, usually as
/// `RunPlan { store: Some(&store), ..RunPlan::new(threads) }`. `exp`'s
/// figure commands open the store `HARVEST_SWEEP_STORE` selects once per
/// process and hand every driver they run the same plan.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan<'a> {
    /// Worker threads (at least 1).
    pub threads: usize,
    /// The result store: cells it answers are not simulated, and every
    /// simulated cell is written back. `None` simulates every cell.
    pub store: Option<&'a PackStore>,
    /// Span and progress observers; see [`CampaignTelemetry`].
    pub telemetry: &'a CampaignTelemetry,
}

impl RunPlan<'static> {
    /// `threads` workers, no store, telemetry off.
    pub fn new(threads: usize) -> Self {
        static OFF: CampaignTelemetry = CampaignTelemetry {
            spans: None,
            progress: None,
        };
        RunPlan {
            threads,
            store: None,
            telemetry: &OFF,
        }
    }
}

/// A grid axis, accepted and ignored by [`miss_rate_figure_grouped`].
/// Kept because the campaign benchmark's parity test
/// (`campaign-bench/tests/campaign_parity.rs`) passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingMode {
    /// Sibling seeds of one `(capacity, policy)` point.
    Seed,
    /// Policy arms of one `(capacity, seed)` trial.
    Policy,
}

/// How a store-aware sweep executed: which cells were actually
/// simulated versus answered by a verified store hit, and how well the
/// per-worker pooled run contexts were reused. Returned by every
/// figure driver so callers (the `exp sweep` smoke command, benchmarks,
/// CI) can assert e.g. that a warm re-run simulated zero trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepExecStats {
    /// Cells simulated this run.
    pub simulated: u64,
    /// Cells answered by a store probe (figure sweeps). Always 0 for
    /// robustness campaigns, whose store hits resolve through decided
    /// records and count as
    /// `CampaignReport::resumed`.
    pub cached: u64,
    /// Pool reuse counters aggregated across all workers: total pooled
    /// runs and shared events, and the maximum retained queue
    /// capacities.
    pub pool: PoolStats,
    /// The most [`TrialPrefab`](crate::scenario::TrialPrefab)s one
    /// driver call held at once. A driver keeps every prefab it builds
    /// until it returns, and builds none for a seed the store fully
    /// answered, so today this is the number of seeds simulated.
    pub prefabs_high_water: u64,
}

impl SweepExecStats {
    /// Folds one worker pool's counters into the aggregate.
    pub(crate) fn merge_pool(&mut self, p: PoolStats) {
        self.pool.runs += p.runs;
        self.pool.event_slab_high_water =
            self.pool.event_slab_high_water.max(p.event_slab_high_water);
        self.pool.ready_high_water = self.pool.ready_high_water.max(p.ready_high_water);
        self.pool.shared_events += p.shared_events;
    }

    /// Folds another sweep's stats into this one (high-water marks take
    /// the max, counts add).
    pub(crate) fn merge(&mut self, other: &SweepExecStats) {
        self.simulated += other.simulated;
        self.cached += other.cached;
        self.merge_pool(other.pool);
        self.prefabs_high_water = self.prefabs_high_water.max(other.prefabs_high_water);
    }
}

/// The storage capacities the paper sweeps for the remaining-energy
/// curves (§5.2).
pub(crate) const PAPER_CAPACITIES: [f64; 7] = [200.0, 300.0, 500.0, 1000.0, 2000.0, 3000.0, 5000.0];
