//! System-simulation configuration.

use harvest_cpu::CpuModel;
use harvest_energy::storage::StorageSpec;
use harvest_sim::engine::Watchdog;
use harvest_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;

/// What happens to a job that reaches its deadline unfinished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MissPolicy {
    /// The job is aborted at its deadline and counted as missed — the
    /// conventional firm-deadline semantics used for the paper's
    /// miss-rate experiments.
    #[default]
    AbortAtDeadline,
    /// The job keeps executing past the deadline (still counted as
    /// missed); useful for tardiness studies.
    RunToCompletion,
}

/// Full configuration of a closed-loop run.
///
/// # Examples
///
/// ```
/// use harvest_core::config::SystemConfig;
/// use harvest_cpu::presets;
/// use harvest_energy::storage::StorageSpec;
/// use harvest_sim::time::SimDuration;
///
/// let cfg = SystemConfig::new(
///     presets::xscale(),
///     StorageSpec::ideal(500.0),
///     SimDuration::from_whole_units(10_000),
/// )
/// .with_sample_interval(SimDuration::from_whole_units(100));
/// assert_eq!(cfg.horizon, SimDuration::from_whole_units(10_000));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The DVFS processor.
    pub cpu: CpuModel,
    /// Energy-storage parameters.
    pub storage: StorageSpec,
    /// Initial stored energy; `None` starts full (the paper's §5.1
    /// setup).
    pub initial_level: Option<f64>,
    /// Deadline-miss semantics.
    pub miss_policy: MissPolicy,
    /// When the store is depleted mid-run the processor stalls until it
    /// has scavenged enough energy to run for this many time units at
    /// the chosen level (paper §4.2: "the system will delay task
    /// execution until it has scavenged energy"). Keeps the event count
    /// finite; must be positive.
    pub restart_quantum: f64,
    /// If set, the storage level is sampled on this grid (for the
    /// remaining-energy curves of Figs. 6–7).
    pub sample_interval: Option<SimDuration>,
    /// Simulated horizon; events in `[0, horizon)` are processed.
    pub horizon: SimDuration,
    /// Retain a full trace of scheduling events in the result.
    pub collect_trace: bool,
    /// Publish a metrics snapshot (queue/cursor/policy counters) into
    /// the result. The counters are maintained regardless — this only
    /// controls whether they are frozen into
    /// [`SimResult::metrics`](crate::result::SimResult::metrics).
    pub collect_metrics: bool,
    /// Wall-clock-time the engine's phases (event dispatch, policy
    /// decision, energy update) into
    /// [`SimResult::profile`](crate::result::SimResult::profile).
    /// Perturbs nothing but costs two clock reads per phase.
    pub profile: bool,
    /// Deterministic fault injection for this run. `None` (or an empty
    /// plan) takes the exact fault-free code path.
    pub fault_plan: Option<FaultPlan>,
    /// Abort budgets for stuck or runaway runs. `None` keeps the
    /// infallible [`simulate`](crate::system::simulate) panic-free; a
    /// set watchdog requires
    /// [`try_simulate_arms_in`](crate::system::try_simulate_arms_in) to
    /// surface the typed [`SimError`](crate::result::SimError).
    pub watchdog: Option<Watchdog>,
}

impl SystemConfig {
    /// Creates a configuration with the paper's defaults: storage starts
    /// full, misses abort, restart quantum 0.1 time units, no sampling,
    /// no trace.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive.
    pub fn new(cpu: CpuModel, storage: StorageSpec, horizon: SimDuration) -> Self {
        assert!(horizon.is_positive(), "horizon must be positive");
        SystemConfig {
            cpu,
            storage,
            initial_level: None,
            miss_policy: MissPolicy::default(),
            restart_quantum: 0.1,
            sample_interval: None,
            horizon,
            collect_trace: false,
            collect_metrics: false,
            profile: false,
            fault_plan: None,
            watchdog: None,
        }
    }

    /// Sets the initial stored energy.
    ///
    /// # Panics
    ///
    /// Panics if `level` is negative or exceeds the capacity.
    pub fn with_initial_level(mut self, level: f64) -> Self {
        assert!(
            level >= 0.0 && level <= self.storage.capacity(),
            "initial level outside [0, capacity]"
        );
        self.initial_level = Some(level);
        self
    }

    /// Sets the deadline-miss policy.
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> Self {
        self.miss_policy = policy;
        self
    }

    /// Sets the depletion restart quantum (time units).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not finite and positive.
    pub fn with_restart_quantum(mut self, quantum: f64) -> Self {
        assert!(
            quantum.is_finite() && quantum > 0.0,
            "restart quantum must be positive"
        );
        self.restart_quantum = quantum;
        self
    }

    /// Enables storage-level sampling on the given grid.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn with_sample_interval(mut self, interval: SimDuration) -> Self {
        assert!(interval.is_positive(), "sample interval must be positive");
        self.sample_interval = Some(interval);
        self
    }

    /// Enables full event tracing.
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Enables the metrics snapshot in the result.
    pub fn with_metrics(mut self) -> Self {
        self.collect_metrics = true;
        self
    }

    /// Enables wall-clock phase profiling in the result.
    pub fn with_profiling(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Attaches a deterministic fault plan. An empty plan is normalized
    /// to `None` so fault-free runs stay on the exact fault-free path.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Arms the engine watchdog. An empty watchdog is normalized to
    /// `None`.
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = (!watchdog.is_empty()).then_some(watchdog);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_cpu::presets;

    fn cfg() -> SystemConfig {
        SystemConfig::new(
            presets::xscale(),
            StorageSpec::ideal(100.0),
            SimDuration::from_whole_units(1_000),
        )
    }

    #[test]
    fn defaults_match_paper_setup() {
        let c = cfg();
        assert_eq!(c.initial_level, None);
        assert_eq!(c.miss_policy, MissPolicy::AbortAtDeadline);
        assert_eq!(c.restart_quantum, 0.1);
        assert!(!c.collect_trace);
        assert!(!c.collect_metrics, "observability is off by default");
        assert!(!c.profile, "profiling is off by default");
    }

    #[test]
    fn builder_methods_chain() {
        let c = cfg()
            .with_initial_level(50.0)
            .with_miss_policy(MissPolicy::RunToCompletion)
            .with_restart_quantum(0.5)
            .with_sample_interval(SimDuration::from_whole_units(10))
            .with_trace()
            .with_metrics()
            .with_profiling();
        assert_eq!(c.initial_level, Some(50.0));
        assert_eq!(c.miss_policy, MissPolicy::RunToCompletion);
        assert_eq!(c.restart_quantum, 0.5);
        assert!(c.collect_trace);
        assert!(c.collect_metrics);
        assert!(c.profile);
    }

    #[test]
    fn empty_fault_plan_and_watchdog_normalize_to_none() {
        let c = cfg()
            .with_fault_plan(FaultPlan::default())
            .with_watchdog(Watchdog::default());
        assert_eq!(c.fault_plan, None);
        assert_eq!(c.watchdog, None);

        let armed = cfg().with_watchdog(Watchdog::with_max_events(5));
        assert_eq!(armed.watchdog, Some(Watchdog::with_max_events(5)));
    }

    #[test]
    #[should_panic(expected = "initial level")]
    fn initial_level_validated() {
        let _ = cfg().with_initial_level(1e9);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_rejected() {
        let _ = SystemConfig::new(
            presets::xscale(),
            StorageSpec::ideal(1.0),
            SimDuration::ZERO,
        );
    }
}
