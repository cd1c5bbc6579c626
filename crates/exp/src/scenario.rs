//! The paper's §5.1 simulation scenario, packaged.
//!
//! One *trial* = one seed → one solar realization (eq. 13), one random
//! task set (5 periodic tasks by default, scaled to the target
//! utilization), one 10 000-unit closed-loop run per policy.

use std::sync::Arc;

use harvest_core::config::SystemConfig;
use harvest_core::fault::FaultPlan;
use harvest_core::policies::{
    EaDvfsScheduler, EdfScheduler, GreedyStretchScheduler, LazyScheduler,
};
use harvest_core::result::{SimError, SimResult};
use harvest_core::scheduler::Scheduler;
use harvest_core::system::{try_simulate_arms_in, PoolStats, RunContext};
use harvest_cpu::{presets, CpuModel};
use harvest_energy::predictor::{
    EnergyPredictor, EwmaSlotPredictor, MovingAveragePredictor, OraclePredictor,
    PersistencePredictor,
};
use harvest_energy::source::sample_profile;
use harvest_energy::sources::SolarModel;
use harvest_energy::storage::StorageSpec;
use harvest_sim::engine::Watchdog;
use harvest_sim::event::{QueueStats, ReleaseTape};
use harvest_sim::piecewise::PiecewiseConstant;
use harvest_sim::time::{SimDuration, SimTime};
use harvest_task::generator::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// The scheduling policies the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Plain EDF at full speed.
    Edf,
    /// Lazy scheduling (LSA) — the paper's baseline.
    Lsa,
    /// The paper's EA-DVFS.
    EaDvfs,
    /// EA-DVFS without the `s2` cap (§4.3 strawman, ablation only).
    GreedyStretch,
}

impl PolicyKind {
    /// All policies, in report order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Edf,
        PolicyKind::Lsa,
        PolicyKind::EaDvfs,
        PolicyKind::GreedyStretch,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            PolicyKind::Edf => Box::new(EdfScheduler::new()),
            PolicyKind::Lsa => Box::new(LazyScheduler::new()),
            PolicyKind::EaDvfs => Box::new(EaDvfsScheduler::new()),
            PolicyKind::GreedyStretch => Box::new(GreedyStretchScheduler::new()),
        }
    }

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Edf => "edf",
            PolicyKind::Lsa => "lsa",
            PolicyKind::EaDvfs => "ea-dvfs",
            PolicyKind::GreedyStretch => "greedy-stretch",
        }
    }

    /// Position in [`PolicyKind::ALL`]; indexes per-policy slots.
    const fn index(self) -> usize {
        match self {
            PolicyKind::Edf => 0,
            PolicyKind::Lsa => 1,
            PolicyKind::EaDvfs => 2,
            PolicyKind::GreedyStretch => 3,
        }
    }
}

/// A worker's reusable simulation state: one [`RunContext`] (event
/// queue, ready queue, metrics registry) plus lazily-built scheduler
/// instances, one per arm of a policy kind that a run carries.
///
/// A sweep worker owns one `SimPool` for its whole shard, so the
/// steady-state cost of a trial is the simulation itself — no queue
/// reallocation, no policy boxing. Pooled runs are bit-identical to
/// fresh ones (schedulers are [`Scheduler::reset`] before every run;
/// see the `pooled_parity` integration test).
#[derive(Default)]
pub struct SimPool {
    ctx: RunContext,
    /// Scheduler instances by kind: a run with `k` arms of one kind
    /// uses the first `k`.
    policies: [Vec<Box<dyn Scheduler>>; 4],
}

impl SimPool {
    /// An empty pool; queues and schedulers materialize on first use.
    pub fn new() -> Self {
        SimPool::default()
    }

    /// Reuse counters of the underlying run context.
    pub fn stats(&self) -> PoolStats {
        self.ctx.stats()
    }

    /// Event-queue counters of the pooled context (`None` until a run
    /// has materialized the queue). Quarantine reports attach these so
    /// a failing worker's state is inspectable post-mortem.
    pub fn queue_stats(&self) -> Option<QueueStats> {
        self.ctx.queue_stats()
    }

    /// Installs a crash flight recorder on the pooled run context (see
    /// [`RunContext::enable_flight`]): every subsequent scalar run feeds
    /// the shared ring, and watchdog aborts freeze pending dumps.
    pub fn enable_flight(&mut self, capacity: usize) {
        self.ctx.enable_flight(capacity);
    }

    /// The pooled context's flight recorder, when installed — for
    /// driver-side cell markers and panic-path captures.
    pub fn flight(&self) -> Option<&harvest_obs::SharedFlightRecorder> {
        self.ctx.flight()
    }

    /// Drains pending flight dumps (see
    /// [`RunContext::take_flight_dumps`]).
    pub fn take_flight_dumps(&mut self) -> Vec<harvest_obs::flight::FlightDump> {
        self.ctx.take_flight_dumps()
    }

    fn try_run(
        &mut self,
        scenario: &PaperScenario,
        config: SystemConfig,
        policies: &[PolicyKind],
        prefab: &TrialPrefab,
    ) -> Vec<Result<SimResult, SimError>> {
        for kind in PolicyKind::ALL {
            let wanted = policies.iter().filter(|&&p| p == kind).count();
            let slot = &mut self.policies[kind.index()];
            while slot.len() < wanted {
                slot.push(kind.build());
            }
        }
        let mut free = self.policies.each_mut().map(|slot| slot.iter_mut());
        let mut scheds: Vec<&mut dyn Scheduler> = policies
            .iter()
            .map(|policy| {
                free[policy.index()]
                    .next()
                    .expect("one instance per arm")
                    .as_mut()
            })
            .collect();
        try_simulate_arms_in(
            &mut self.ctx,
            config,
            Arc::clone(&prefab.tasks),
            Arc::clone(&prefab.profile),
            &mut scheds,
            scenario.predictor.build_shared(&prefab.profile),
            prefab.tape.clone(),
        )
    }
}

impl std::fmt::Debug for SimPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPool")
            .field("stats", &self.ctx.stats())
            .field(
                "policies",
                &self
                    .policies
                    .iter()
                    .flatten()
                    .map(|p| p.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// The harvested-energy predictors available to the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PredictorKind {
    /// Clairvoyant profile tracing (the reproduction default; see
    /// DESIGN.md).
    #[default]
    Oracle,
    /// Kansal-style slotted EWMA over the solar quasi-period.
    Ewma,
    /// Trailing moving average (window in time units).
    MovingAverage {
        /// Window length in whole time units.
        window: i64,
    },
    /// Last observed power persists.
    Persistence,
    /// The oracle scaled by a constant factor — systematic optimism
    /// (`factor > 1`) or pessimism (`factor < 1`) for robustness
    /// studies.
    Biased {
        /// Multiplicative prediction bias.
        factor: f64,
    },
}

impl PredictorKind {
    /// Instantiates the predictor for a given realized profile.
    pub fn build(self, profile: &PiecewiseConstant) -> Box<dyn EnergyPredictor> {
        self.build_shared(&Arc::new(profile.clone()))
    }

    /// Instantiates the predictor over an already-shared profile —
    /// profile-tracing predictors reference it instead of copying its
    /// breakpoint tables.
    pub fn build_shared(self, profile: &Arc<PiecewiseConstant>) -> Box<dyn EnergyPredictor> {
        match self {
            PredictorKind::Oracle => Box::new(OraclePredictor::from_shared(Arc::clone(profile))),
            PredictorKind::Ewma => {
                // The eq. 13 envelope cos²(t/70π) has period π·70π ≈ 691;
                // 48 slots of ~14.4 units resolve it well.
                let period =
                    SimDuration::from_units(std::f64::consts::PI * 70.0 * std::f64::consts::PI);
                let slots = 48;
                let period =
                    SimDuration::from_ticks(period.as_ticks() / slots as i64 * slots as i64);
                let mut p = EwmaSlotPredictor::new(period, slots, 0.3);
                // Seed with the climatological mean so the first cycle is
                // not flying blind.
                let mean = profile.domain_mean();
                p.seed_estimates(&vec![mean; slots]);
                Box::new(p)
            }
            PredictorKind::MovingAverage { window } => Box::new(MovingAveragePredictor::new(
                SimDuration::from_whole_units(window),
            )),
            PredictorKind::Persistence => Box::new(PersistencePredictor::new()),
            PredictorKind::Biased { factor } => {
                Box::new(harvest_energy::predictor::BiasedPredictor::new(
                    OraclePredictor::from_shared(Arc::clone(profile)),
                    factor,
                ))
            }
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Oracle => "oracle",
            PredictorKind::Ewma => "ewma",
            PredictorKind::MovingAverage { .. } => "moving-average",
            PredictorKind::Persistence => "persistence",
            PredictorKind::Biased { .. } => "biased-oracle",
        }
    }
}

/// One seeded trial's shared inputs, built once and handed to every
/// run that replays the trial: the solar realization (with its
/// prefix-sum integral table) and the generated task set, both behind
/// `Arc`.
///
/// Neither depends on the storage capacity or the policy, so a sweep
/// over capacities × policies — the shape of every Fig. 5–9 experiment
/// — builds each prefab once per seed instead of re-sampling the solar
/// model and re-generating the workload inside every trial closure.
#[derive(Debug, Clone)]
pub struct TrialPrefab {
    /// The seed the trial was derived from.
    pub seed: u64,
    /// The realized harvest profile `PS(t)` (eq. 13 sampling).
    pub profile: Arc<PiecewiseConstant>,
    /// The generated periodic task set, scaled to the target
    /// utilization against this profile's mean power.
    pub tasks: Arc<harvest_task::TaskSet>,
    /// The precomputed release timeline over the scenario horizon,
    /// shared by every run that replays the trial (releases are seed-
    /// and policy-independent). `None` routes releases through the
    /// event queue — the reference path, kept for benchmarks and
    /// parity baselines via [`Self::without_tape`].
    pub tape: Option<Arc<ReleaseTape>>,
}

impl TrialPrefab {
    /// Drops the precomputed release tape, forcing every run of this
    /// prefab onto the heap-driven reference path. Results are
    /// bit-identical either way (pinned by the tape-parity suites).
    pub fn without_tape(mut self) -> Self {
        self.tape = None;
        self
    }
}

/// Deterministic fault injection for robustness sweeps: one intensity
/// knob in `[0, 1]`, expanded per trial seed into a concrete
/// [`FaultPlan`] (blackouts/brownouts, storage degradation, DVFS level
/// lockouts, predictor corruption — see [`FaultPlan::generate`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Fault intensity in `[0, 1]`; `0` injects nothing.
    pub intensity: f64,
}

/// A fully specified §5.1 scenario (everything but the seed and policy).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct PaperScenario {
    /// Number of periodic tasks (paper figures use 5).
    pub num_tasks: usize,
    /// Target utilization `U`.
    pub utilization: f64,
    /// Storage capacity `C`.
    pub capacity: f64,
    /// Simulation horizon in whole time units (paper: 10 000).
    pub horizon_units: i64,
    /// Storage sampling interval in whole time units, if the run should
    /// record the remaining-energy curve.
    pub sample_interval_units: Option<i64>,
    /// Solar sampling step in whole time units (paper: 1).
    pub source_dt_units: i64,
    /// Predictor to drive the policies with.
    pub predictor: PredictorKind,
    /// Deterministic fault injection, if this is a robustness-sweep
    /// cell. `None` (the default) runs fault-free.
    pub fault: Option<FaultScenario>,
}

// Hand-written so a fault-free scenario serializes exactly as it did
// before the `fault` field existed: trial cache keys embed this
// serialization (see `crate::cache`), so omitting the `None` entry
// keeps every previously-cached fault-free cell addressable.
impl Serialize for PaperScenario {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("num_tasks".to_string(), self.num_tasks.to_value()),
            ("utilization".to_string(), self.utilization.to_value()),
            ("capacity".to_string(), self.capacity.to_value()),
            ("horizon_units".to_string(), self.horizon_units.to_value()),
            (
                "sample_interval_units".to_string(),
                self.sample_interval_units.to_value(),
            ),
            (
                "source_dt_units".to_string(),
                self.source_dt_units.to_value(),
            ),
            ("predictor".to_string(), self.predictor.to_value()),
        ];
        if let Some(fault) = &self.fault {
            fields.push(("fault".to_string(), fault.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl PaperScenario {
    /// The paper's defaults for a given utilization and capacity:
    /// 5 tasks, 10 000-unit horizon, 1-unit source sampling, oracle
    /// predictor.
    pub fn new(utilization: f64, capacity: f64) -> Self {
        PaperScenario {
            num_tasks: 5,
            utilization,
            capacity,
            horizon_units: 10_000,
            sample_interval_units: None,
            source_dt_units: 1,
            predictor: PredictorKind::default(),
            fault: None,
        }
    }

    /// Enables remaining-energy sampling on the given grid.
    pub fn with_sampling(mut self, interval_units: i64) -> Self {
        self.sample_interval_units = Some(interval_units);
        self
    }

    /// Swaps the predictor.
    pub fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = predictor;
        self
    }

    /// Arms deterministic fault injection at the given intensity. Zero
    /// disarms it, keeping the scenario — and its trial cache keys —
    /// identical to a fault-free one.
    ///
    /// # Panics
    ///
    /// Panics unless `intensity` lies in `[0, 1]`.
    pub fn with_fault_intensity(mut self, intensity: f64) -> Self {
        assert!(
            intensity.is_finite() && (0.0..=1.0).contains(&intensity),
            "fault intensity must lie in [0, 1]"
        );
        self.fault = (intensity > 0.0).then_some(FaultScenario { intensity });
        self
    }

    /// Expands the scenario's fault knob into one trial's concrete
    /// [`FaultPlan`]. `None` when the scenario is fault-free or the
    /// seed draws an empty plan.
    pub fn fault_plan(&self, seed: u64) -> Option<FaultPlan> {
        let fault = self.fault?;
        let plan = FaultPlan::generate(
            seed,
            fault.intensity,
            SimDuration::from_whole_units(self.horizon_units),
            &self.cpu(),
        );
        (!plan.is_empty()).then_some(plan)
    }

    /// The processor all scenarios use (the paper's XScale table).
    pub fn cpu(&self) -> CpuModel {
        presets::xscale()
    }

    /// Samples the trial's solar realization.
    pub fn profile(&self, seed: u64) -> PiecewiseConstant {
        sample_profile(
            &mut SolarModel::paper(),
            SimTime::ZERO,
            SimDuration::from_whole_units(self.horizon_units),
            SimDuration::from_whole_units(self.source_dt_units),
            seed,
        )
        .expect("paper scenario grid is valid")
    }

    /// Generates the trial's task set, sized against the realized mean
    /// harvest power (§5.1).
    pub fn taskset(&self, seed: u64, profile: &PiecewiseConstant) -> harvest_task::TaskSet {
        let cpu = self.cpu();
        let spec = WorkloadSpec::paper(
            self.num_tasks,
            self.utilization,
            profile.domain_mean(),
            cpu.max_power(),
        );
        // Decorrelate the workload stream from the solar stream.
        spec.generate(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// Builds the trial's shared inputs once: the solar realization and
    /// the task set, ready to be replayed under any capacity or policy
    /// via [`run_prefab`](Self::run_prefab).
    pub fn prefab(&self, seed: u64) -> TrialPrefab {
        let profile = Arc::new(self.profile(seed));
        let tasks = Arc::new(self.taskset(seed, &profile));
        let tape = Arc::new(tasks.release_tape(SimDuration::from_whole_units(self.horizon_units)));
        TrialPrefab {
            seed,
            profile,
            tasks,
            tape: Some(tape),
        }
    }

    /// The scenario's system configuration, with sampling applied when
    /// requested.
    pub fn config(&self) -> SystemConfig {
        let mut config = SystemConfig::new(
            self.cpu(),
            StorageSpec::ideal(self.capacity),
            SimDuration::from_whole_units(self.horizon_units),
        );
        if let Some(dt) = self.sample_interval_units {
            config = config.with_sample_interval(SimDuration::from_whole_units(dt));
        }
        config
    }

    /// [`config`](Self::config) specialized to one trial: the fault
    /// knob, if armed, becomes the seed's concrete fault plan.
    pub fn config_for(&self, seed: u64) -> SystemConfig {
        let mut config = self.config();
        if let Some(plan) = self.fault_plan(seed) {
            config = config.with_fault_plan(plan);
        }
        config
    }

    /// Runs one policy on a prebuilt trial, sharing its profile and
    /// task set instead of regenerating them. The fresh-state reference
    /// that pooled and taped runs are compared with: a new [`SimPool`],
    /// and releases through the event queue.
    pub fn run_prefab(&self, policy: PolicyKind, prefab: &TrialPrefab) -> SimResult {
        let reference = prefab.clone().without_tape();
        self.run_prefab_in(&mut SimPool::new(), policy, &reference)
    }

    /// [`run_prefab`](Self::run_prefab) through a worker's [`SimPool`]:
    /// reuses the pool's queues, metrics registry, and scheduler
    /// instance instead of allocating per run. Bit-identical to
    /// [`run_prefab`](Self::run_prefab). The one-arm case of
    /// [`run_arms_in`](Self::run_arms_in).
    pub fn run_prefab_in(
        &self,
        pool: &mut SimPool,
        policy: PolicyKind,
        prefab: &TrialPrefab,
    ) -> SimResult {
        self.run_arms_in(pool, &[policy], prefab)
            .pop()
            .expect("one arm, one result")
    }

    /// Runs every policy in `policies` on one prebuilt trial through a
    /// worker's [`SimPool`], one [`SimResult`] per arm in `policies`
    /// order, each bit-identical to its own
    /// [`run_prefab`](Self::run_prefab).
    ///
    /// The arms share one closed loop: while their policies decide
    /// alike (under the §4.3 sufficient-energy rule EA-DVFS runs at
    /// full speed exactly like LSA), the run is simulated once for all
    /// of them, and it forks where they first disagree (see
    /// [`try_simulate_arms_in`]). A policy may appear more than once.
    ///
    /// # Panics
    ///
    /// Panics if `policies` is empty.
    pub fn run_arms_in(
        &self,
        pool: &mut SimPool,
        policies: &[PolicyKind],
        prefab: &TrialPrefab,
    ) -> Vec<SimResult> {
        self.try_run_arms_in(pool, policies, prefab, None)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("simulation aborted: {e} (use the try_ path)")))
            .collect()
    }

    /// [`run_arms_in`](Self::run_arms_in) with an optional engine
    /// watchdog, one typed result per arm; the budget applies to each
    /// arm as in a run of its own. A run that exhausts its event budget
    /// returns a typed [`SimError`] instead of spinning forever, and the
    /// pool stays reusable afterwards.
    pub fn try_run_arms_in(
        &self,
        pool: &mut SimPool,
        policies: &[PolicyKind],
        prefab: &TrialPrefab,
        watchdog: Option<Watchdog>,
    ) -> Vec<Result<SimResult, SimError>> {
        let mut config = self.config_for(prefab.seed);
        if let Some(w) = watchdog {
            config = config.with_watchdog(w);
        }
        pool.try_run(self, config, policies, prefab)
    }

    /// The content-address of one of this scenario's trials (see
    /// [`crate::cache`]).
    pub fn trial_key(&self, policy: PolicyKind, seed: u64) -> crate::cache::TrialKey {
        crate::cache::TrialKey::new(self, policy, seed)
    }

    /// Runs one trial through a worker's pool, consulting `store`
    /// first: a verified store hit skips the simulation entirely, and a
    /// miss is simulated pooled and written back through the
    /// [`TrialStore`](crate::store::TrialStore) surface of the
    /// [`PackStore`](crate::store::PackStore).
    pub fn run_summary(
        &self,
        pool: &mut SimPool,
        store: Option<&dyn crate::store::TrialStore>,
        policy: PolicyKind,
        prefab: &TrialPrefab,
    ) -> crate::cache::TrialSummary {
        let key = store.map(|c| (c, self.trial_key(policy, prefab.seed)));
        if let Some((c, key)) = &key {
            if let Some(summary) = c.probe(key) {
                return summary;
            }
        }
        let summary = crate::cache::TrialSummary::of(&self.run_prefab_in(pool, policy, prefab));
        if let Some((c, key)) = &key {
            c.store(key, &summary);
        }
        summary
    }

    /// One [`SimResult`] per `(policy, prefab)` arm, in order: the arms
    /// that share a prefab (the same object) run together through one
    /// [`run_arms_in`](Self::run_arms_in) call. Kept under this name
    /// because the campaign benchmark's `fig8-lockstep` workload calls
    /// it; goes when the benchmark moves to `run_arms_in`.
    pub fn run_arms_batched_in(
        &self,
        pool: &mut SimPool,
        arms: &[(PolicyKind, &TrialPrefab)],
    ) -> Vec<SimResult> {
        let mut results: Vec<Option<SimResult>> = vec![None; arms.len()];
        for (i, &(_, prefab)) in arms.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            let group: Vec<usize> = (i..arms.len())
                .filter(|&j| results[j].is_none() && std::ptr::eq(arms[j].1, prefab))
                .collect();
            let policies: Vec<PolicyKind> = group.iter().map(|&j| arms[j].0).collect();
            for (j, result) in group
                .into_iter()
                .zip(self.run_arms_in(pool, &policies, prefab))
            {
                results[j] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every arm ran"))
            .collect()
    }

    /// [`run_prefab`](Self::run_prefab) with full observability — trace,
    /// metrics snapshot, and phase profiling all enabled. This is the
    /// configuration `exp record` captures JSONL artifacts with; sweeps
    /// keep using the lean [`run_prefab`](Self::run_prefab) path.
    pub fn run_prefab_observed(&self, policy: PolicyKind, prefab: &TrialPrefab) -> SimResult {
        let config = self
            .config_for(prefab.seed)
            .with_trace()
            .with_metrics()
            .with_profiling();
        SimPool::new()
            .try_run(self, config, &[policy], &prefab.clone().without_tape())
            .pop()
            .expect("one arm, one result")
            .expect("a run without a watchdog cannot abort")
    }

    /// Runs one policy on one seeded trial.
    pub fn run(&self, policy: PolicyKind, seed: u64) -> SimResult {
        self.run_prefab(policy, &self.prefab(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_build_with_matching_names() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let s = PaperScenario::new(0.4, 500.0);
        let a = s.run(PolicyKind::EaDvfs, 7);
        let b = s.run(PolicyKind::EaDvfs, 7);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.events, b.events, "event counts must replay exactly");
        assert_eq!(a.trace_events, b.trace_events);
    }

    #[test]
    fn prefab_replays_identically_across_capacities() {
        // One prefab serves every capacity sweep point; results must
        // match runs that rebuild the trial from scratch.
        let seed = 5;
        let base = PaperScenario::new(0.6, 200.0);
        let prefab = base.prefab(seed);
        for capacity in [200.0, 1000.0] {
            let s = PaperScenario::new(0.6, capacity);
            let fresh = s.run(PolicyKind::EaDvfs, seed);
            let shared = s.run_prefab(PolicyKind::EaDvfs, &prefab);
            assert_eq!(fresh.jobs, shared.jobs, "capacity {capacity}");
            assert_eq!(fresh.energy, shared.energy, "capacity {capacity}");
            assert_eq!(fresh.events, shared.events, "capacity {capacity}");
        }
    }

    #[test]
    fn seeds_vary_workload() {
        let s = PaperScenario::new(0.4, 500.0);
        let a = s.run(PolicyKind::Lsa, 1);
        let b = s.run(PolicyKind::Lsa, 2);
        assert_ne!(a.jobs.len(), 0);
        assert_ne!(a.jobs, b.jobs);
    }

    #[test]
    fn sampling_produces_grid() {
        let s = PaperScenario::new(0.4, 500.0).with_sampling(500);
        let r = s.run(PolicyKind::EaDvfs, 3);
        assert_eq!(r.samples.len(), 20);
    }

    #[test]
    fn fault_free_serialization_is_unchanged() {
        // Cache keys embed this serialization: a fault-free scenario
        // must not mention the `fault` field at all, or every
        // pre-existing cache entry would orphan.
        let s = PaperScenario::new(0.4, 500.0);
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("fault"), "fault leaked into the key: {json}");
        let armed = s.clone().with_fault_intensity(0.5);
        let armed_json = serde_json::to_string(&armed).unwrap();
        assert!(armed_json.contains("\"fault\""), "{armed_json}");
        assert_ne!(json, armed_json, "faulted cells need distinct keys");
        // Zero intensity disarms and round-trips back to the same key.
        let disarmed = armed.with_fault_intensity(0.0);
        assert_eq!(serde_json::to_string(&disarmed).unwrap(), json);
        // And the serialization round-trips through the derived
        // Deserialize (missing `fault` key reads as `None`).
        let back: PaperScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let back: PaperScenario = serde_json::from_str(&armed_json).unwrap();
        assert_eq!(back.fault, Some(FaultScenario { intensity: 0.5 }));
    }

    #[test]
    fn fault_plans_are_per_seed_and_deterministic() {
        let s = PaperScenario::new(0.4, 500.0).with_fault_intensity(0.6);
        assert!(s.fault_plan(3).is_some());
        assert_eq!(s.fault_plan(3), s.fault_plan(3));
        assert_ne!(s.fault_plan(3), s.fault_plan(4), "plans vary by seed");
        assert_eq!(PaperScenario::new(0.4, 500.0).fault_plan(3), None);
    }

    #[test]
    fn faulted_runs_replay_identically_and_differ_from_clean() {
        let clean = PaperScenario::new(0.4, 300.0);
        let faulted = clean.clone().with_fault_intensity(0.8);
        let a = faulted.run(PolicyKind::EaDvfs, 2);
        let b = faulted.run(PolicyKind::EaDvfs, 2);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.events, b.events);
        let base = clean.run(PolicyKind::EaDvfs, 2);
        assert_ne!(
            a.energy, base.energy,
            "intensity 0.8 must perturb the trial"
        );
    }

    #[test]
    fn try_paths_match_infallible_ones() {
        let s = PaperScenario::new(0.4, 500.0).with_fault_intensity(0.3);
        let prefab = s.prefab(1);
        let mut pool = SimPool::new();
        let plain = s.run_prefab_in(&mut pool, PolicyKind::Lsa, &prefab);
        let tried = s
            .try_run_arms_in(&mut pool, &[PolicyKind::Lsa], &prefab, None)
            .pop()
            .expect("one arm, one result")
            .expect("no watchdog, no abort");
        assert_eq!(plain.jobs, tried.jobs);
        assert_eq!(plain.energy, tried.energy);
        assert!(pool.queue_stats().is_some(), "runs materialize the queue");
    }

    #[test]
    fn predictors_build() {
        let s = PaperScenario::new(0.4, 500.0);
        let profile = s.profile(0);
        for kind in [
            PredictorKind::Oracle,
            PredictorKind::Ewma,
            PredictorKind::MovingAverage { window: 100 },
            PredictorKind::Persistence,
        ] {
            let p = kind.build(&profile);
            let e = p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(10));
            assert!(e >= 0.0 && e.is_finite(), "{}: {e}", kind.name());
        }
    }
}
