//! The scheduling-policy interface.
//!
//! The system simulator selects the earliest-deadline ready job (EDF,
//! paper §3.3) and asks the policy *how* to run it: now or later, and at
//! which DVFS level. Policies are pure functions of the presented
//! context, re-consulted at every scheduling event (arrival, completion,
//! wake-up, depletion, review point), mirroring the per-iteration
//! recalculation of the paper's Fig. 4 loop.

use std::cell::Cell;

use harvest_cpu::{CpuModel, LevelIndex};
use harvest_energy::predictor::EnergyPredictor;
use harvest_energy::storage::Storage;
use harvest_sim::time::SimTime;
use harvest_task::job::Job;

/// Everything a policy may consult when deciding.
///
/// Build one per decision instant with [`SchedContext::new`]: the context
/// memoizes the `ÊS(t, D)` profile lookup, so the several
/// `Self::run_time_at_power` calls a policy makes while comparing DVFS
/// levels share a single predictor query.
pub struct SchedContext<'a> {
    /// Current simulation time.
    pub(crate) now: SimTime,
    /// The earliest-deadline ready job (the one EDF will run).
    pub(crate) job: &'a Job,
    /// The processor model.
    pub(crate) cpu: &'a CpuModel,
    /// The energy storage (current level and static parameters).
    pub(crate) storage: &'a Storage,
    /// The harvested-energy predictor `ÊS`.
    pub(crate) predictor: &'a dyn EnergyPredictor,
    /// Memoized `EC(t) + ÊS(t, D)` — valid for the lifetime of the
    /// context because `now`, the job, and the storage level are fixed
    /// at a decision instant.
    es_cache: Cell<Option<f64>>,
    /// `available_energy_to_deadline` calls answered by the memo.
    es_hits: Cell<u64>,
    /// `available_energy_to_deadline` calls that queried the predictor.
    es_misses: Cell<u64>,
}

impl<'a> SchedContext<'a> {
    /// Builds the context for one decision instant.
    pub fn new(
        now: SimTime,
        job: &'a Job,
        cpu: &'a CpuModel,
        storage: &'a Storage,
        predictor: &'a dyn EnergyPredictor,
    ) -> Self {
        SchedContext {
            now,
            job,
            cpu,
            storage,
            predictor,
            es_cache: Cell::new(None),
            es_hits: Cell::new(0),
            es_misses: Cell::new(0),
        }
    }

    /// A context of its own for another policy deciding at the same
    /// instant on the same inputs. It starts from this context's
    /// `ÊS(t, D)` lookup, if one was made, with zero memo counts: the
    /// lookup depends only on those inputs, so a run that consults
    /// several policies queries the predictor once per decision.
    pub(crate) fn sibling(&self) -> SchedContext<'a> {
        SchedContext {
            es_cache: self.es_cache.clone(),
            ..SchedContext::new(self.now, self.job, self.cpu, self.storage, self.predictor)
        }
    }

    /// `(memo hits, predictor queries)` of the `ÊS(t, D)` cache over
    /// this context's lifetime. Read by the simulator after the policy
    /// decides, to aggregate memo effectiveness across a run.
    pub(crate) fn memo_stats(&self) -> (u64, u64) {
        (self.es_hits.get(), self.es_misses.get())
    }
}

impl std::fmt::Debug for SchedContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedContext")
            .field("now", &self.now)
            .field("job", &self.job.id())
            .field("storage_level", &self.storage.level())
            .finish()
    }
}

impl SchedContext<'_> {
    /// Predicted total energy available between now and the head job's
    /// deadline: `EC(t) + ÊS(t, D)` (the numerator of paper eq. 5/9).
    pub(crate) fn available_energy_to_deadline(&self) -> f64 {
        if let Some(cached) = self.es_cache.get() {
            self.es_hits.set(self.es_hits.get() + 1);
            return cached;
        }
        let e = self.storage.level()
            + self
                .predictor
                .predict_energy(self.now, self.job.absolute_deadline());
        self.es_cache.set(Some(e));
        self.es_misses.set(self.es_misses.get() + 1);
        e
    }

    /// System running time `sr_n` at power `P_n` before the available
    /// energy is exhausted (paper eq. 5): `(EC + ÊS) / P_n`. Infinite
    /// for unbounded storage.
    pub(crate) fn run_time_at_power(&self, power: f64) -> f64 {
        assert!(power > 0.0, "power must be positive");
        if self.storage.spec().is_infinite() {
            return f64::INFINITY;
        }
        self.available_energy_to_deadline() / power
    }

    /// Latest start `max(now, D − sr)` for a given runnable time `sr`
    /// (paper eq. 7/8, with the current instant in place of the arrival
    /// time when re-evaluating mid-flight).
    pub(crate) fn latest_start(&self, run_time: f64) -> SimTime {
        if run_time.is_infinite() {
            return self.now;
        }
        let d = self.job.absolute_deadline();
        let start = SimTime::from_units(d.as_units() - run_time);
        start.max(self.now)
    }
}

/// What to do with the head job until the next scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep the processor idle at least until the given instant
    /// (strictly after `now`), then re-evaluate.
    IdleUntil(SimTime),
    /// Execute the head job at `level`.
    Run {
        /// DVFS level to run at.
        level: LevelIndex,
        /// Re-evaluate at this instant even if nothing else happens
        /// (EA-DVFS uses it for the `s2` full-speed switch point).
        review: Option<SimTime>,
    },
}

impl Decision {
    /// Convenience: run at the given level with no review point.
    pub(crate) fn run(level: LevelIndex) -> Self {
        Decision::Run {
            level,
            review: None,
        }
    }
}

/// A DVFS-aware real-time scheduling policy.
///
/// `Send` is a supertrait so boxed policies can live inside per-worker
/// simulation pools that sweep drivers move onto worker threads;
/// policies are plain data, so this costs implementors nothing.
pub trait Scheduler: Send {
    /// Decides how to treat the head job. Must be deterministic in the
    /// context.
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision;

    /// Short policy name for reports.
    fn name(&self) -> &str;

    /// Policy-internal observability counters, as `(name, count)` pairs
    /// published into the run's metrics snapshot under a
    /// `policy.<name>` prefix. The default is empty; stateless policies
    /// need not implement it. Counting must never influence decisions.
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Restores the policy to its just-constructed state so a pooled
    /// run context can reuse one instance across trials. A reset policy
    /// must behave bit-identically to a freshly built one — including
    /// its [`Self::metrics`] counters, which the pinned pooled-parity
    /// tests compare. Stateless policies keep the empty default;
    /// configuration (e.g. a fixed slowdown level) is not run state and
    /// must survive.
    fn reset(&mut self) {}
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        (**self).decide(ctx)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        (**self).metrics()
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

/// Lend a policy to a run without giving up ownership: the pooled entry
/// points take `&mut dyn Scheduler` and drive it through this impl, so a
/// `SimPool` can keep one boxed instance per policy alive across trials.
impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        (**self).decide(ctx)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        (**self).metrics()
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use harvest_energy::predictor::OraclePredictor;
    use harvest_energy::storage::{Storage, StorageSpec};
    use harvest_sim::piecewise::PiecewiseConstant;
    use harvest_task::job::{Job, JobId};

    use super::*;

    /// Bundles owned state for building a [`SchedContext`] in tests.
    pub(crate) struct CtxFixture {
        pub(crate) cpu: CpuModel,
        pub(crate) storage: Storage,
        pub(crate) predictor: OraclePredictor,
        pub(crate) job: Job,
        pub(crate) now: SimTime,
    }

    impl CtxFixture {
        pub(crate) fn new(
            cpu: CpuModel,
            level: f64,
            capacity: f64,
            harvest: f64,
            job: Job,
        ) -> Self {
            CtxFixture {
                cpu,
                storage: Storage::new(StorageSpec::ideal(capacity), level),
                predictor: OraclePredictor::new(PiecewiseConstant::constant(harvest)),
                job,
                now: SimTime::ZERO,
            }
        }

        pub(crate) fn at(mut self, now: SimTime) -> Self {
            self.now = now;
            self
        }

        pub(crate) fn ctx(&self) -> SchedContext<'_> {
            SchedContext::new(
                self.now,
                &self.job,
                &self.cpu,
                &self.storage,
                &self.predictor,
            )
        }
    }

    pub(crate) fn job(deadline_units: i64, wcet: f64) -> Job {
        Job::new(JobId(0), SimTime::from_whole_units(deadline_units), wcet)
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;
    use harvest_cpu::presets;

    #[test]
    fn available_energy_combines_store_and_prediction() {
        // §2 numbers: EC=24, Ps=0.5, deadline 16 → 24 + 8 = 32.
        let f = CtxFixture::new(presets::two_speed_example(), 24.0, 1e6, 0.5, job(16, 4.0));
        assert_eq!(f.ctx().available_energy_to_deadline(), 32.0);
    }

    #[test]
    fn memo_stats_count_hits_and_misses() {
        let f = CtxFixture::new(presets::two_speed_example(), 24.0, 1e6, 0.5, job(16, 4.0));
        let ctx = f.ctx();
        assert_eq!(ctx.memo_stats(), (0, 0));
        ctx.available_energy_to_deadline();
        assert_eq!(ctx.memo_stats(), (0, 1), "first call queries the predictor");
        ctx.available_energy_to_deadline();
        ctx.run_time_at_power(8.0);
        assert_eq!(ctx.memo_stats(), (2, 1), "repeat calls hit the memo");
        let sibling = ctx.sibling();
        assert_eq!(sibling.memo_stats(), (0, 0));
        assert_eq!(sibling.available_energy_to_deadline(), 32.0);
        assert_eq!(sibling.memo_stats(), (1, 0), "a sibling reuses the lookup");
    }

    #[test]
    fn run_time_matches_eq5() {
        let f = CtxFixture::new(presets::two_speed_example(), 24.0, 1e6, 0.5, job(16, 4.0));
        // sr_max = 32 / 8 = 4; sr_low = 32 / (8/3) = 12.
        assert_eq!(f.ctx().run_time_at_power(8.0), 4.0);
        assert_eq!(f.ctx().run_time_at_power(8.0 / 3.0), 12.0);
    }

    #[test]
    fn latest_start_clamps_to_now() {
        let f = CtxFixture::new(presets::two_speed_example(), 24.0, 1e6, 0.5, job(16, 4.0));
        // s2 = max(0, 16 − 4) = 12; s1 = max(0, 16 − 12) = 4.
        assert_eq!(f.ctx().latest_start(4.0), SimTime::from_whole_units(12));
        assert_eq!(f.ctx().latest_start(12.0), SimTime::from_whole_units(4));
        assert_eq!(f.ctx().latest_start(100.0), SimTime::ZERO);
    }

    #[test]
    fn infinite_storage_gives_infinite_run_time() {
        let mut f = CtxFixture::new(presets::two_speed_example(), 0.0, 1.0, 0.5, job(16, 4.0));
        f.storage = Storage::full(harvest_energy::storage::StorageSpec::infinite());
        let ctx = f.ctx();
        assert_eq!(ctx.run_time_at_power(8.0), f64::INFINITY);
        assert_eq!(ctx.latest_start(f64::INFINITY), SimTime::ZERO);
    }
}
