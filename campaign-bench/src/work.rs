//! Deterministic work counts: a fixed sample of a workload's cells,
//! replayed on one thread in a fixed order.
//!
//! Each sampled cell runs twice. The production path (the pooled,
//! taped `run_prefab_in`, or `run_arms_batched_in` for lockstep batches)
//! supplies allocation counts from the counting allocator and, for
//! batches, the lane engine's tick counters. A replay through
//! `try_simulate_in_taped` with `SystemConfig::with_metrics()` supplies
//! the engine's own counters; metric runs take the heap reference path,
//! so `queue.*` counts are those of that path. Both runs must summarize
//! bit-identically. The sample does not depend on timing, so two traced
//! runs of one seed give identical counts.

use std::sync::Arc;

use harvest_core::scheduler::Scheduler;
use harvest_core::system::{try_simulate_in_taped, RunContext};
use harvest_exp::cache::TrialSummary;
use harvest_exp::scenario::{PaperScenario, PolicyKind, SimPool, TrialPrefab};

use crate::alloc::thread_allocs;

/// Work counts summed over the replayed sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Cells replayed.
    pub cells: u64,
    /// Engine events dispatched (`engine.events`).
    pub events: u64,
    /// Events scheduled on the queue (`queue.scheduled`).
    pub queue_scheduled: u64,
    /// Sum over cells of the queue's pending high-water mark.
    pub queue_max_pending: u64,
    /// Profile cursor locates (`cursor.locates`).
    pub cursor_locates: u64,
    /// Segments walked by cursor gallops (`cursor.gallop_segments`).
    pub cursor_gallop_segments: u64,
    /// Energy-crossing searches settled by scanning (`cursor.cross.scan`).
    pub cross_scan: u64,
    /// Energy-crossing searches settled by bisection (`cursor.cross.bisect`).
    pub cross_bisect: u64,
    /// Policy decisions (`sched.decisions`).
    pub decisions: u64,
    /// ES(t, D) memo hits (`sched.es_memo.hits`).
    pub es_memo_hits: u64,
    /// ES(t, D) memo misses (`sched.es_memo.misses`).
    pub es_memo_misses: u64,
    /// Depletion stalls entered (`sched.stalls`).
    pub stalls: u64,
    /// Heap allocations of the production runs.
    pub allocs: u64,
    /// Instants the lane engine processed.
    pub batch_ticks: u64,
    /// Lane-engine instants where more than one lane had an event.
    pub multi_lane_ticks: u64,
}

impl WorkCounts {
    /// `total / cells`, 0 for an empty sample.
    pub fn per_cell(&self, total: u64) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            total as f64 / self.cells as f64
        }
    }
}

/// Replays sampled cells and sums their counts.
pub struct Replayer {
    pool: SimPool,
    ctx: RunContext,
    policies: Vec<(PolicyKind, Box<dyn Scheduler>)>,
    counts: WorkCounts,
}

impl Replayer {
    /// A replayer with fresh pools.
    pub fn new() -> Self {
        Replayer {
            pool: SimPool::new(),
            ctx: RunContext::new(),
            policies: Vec::new(),
            counts: WorkCounts::default(),
        }
    }

    /// Replays one scalar cell.
    ///
    /// # Errors
    ///
    /// Returns a message when the metric replay aborts or summarizes
    /// differently from the production run.
    pub fn scalar(
        &mut self,
        scenario: &PaperScenario,
        policy: PolicyKind,
        prefab: &TrialPrefab,
    ) -> Result<(), String> {
        let before = thread_allocs();
        let result = scenario.run_prefab_in(&mut self.pool, policy, prefab);
        self.counts.allocs += thread_allocs() - before;
        self.metered(scenario, policy, prefab, &TrialSummary::of(&result))
    }

    /// Replays one policy-lockstep batch: one lane per policy arm.
    ///
    /// # Errors
    ///
    /// As [`Replayer::scalar`], per arm.
    pub fn lockstep(
        &mut self,
        scenario: &PaperScenario,
        policies: &[PolicyKind],
        prefab: &TrialPrefab,
    ) -> Result<(), String> {
        let arms: Vec<(PolicyKind, &TrialPrefab)> = policies.iter().map(|&p| (p, prefab)).collect();
        let ticks = self.pool.stats();
        let before = thread_allocs();
        let results = scenario.run_arms_batched_in(&mut self.pool, &arms);
        self.counts.allocs += thread_allocs() - before;
        let after = self.pool.stats();
        self.counts.batch_ticks += after.batch_ticks - ticks.batch_ticks;
        self.counts.multi_lane_ticks += after.multi_lane_ticks - ticks.multi_lane_ticks;
        for (&policy, result) in policies.iter().zip(&results) {
            self.metered(scenario, policy, prefab, &TrialSummary::of(result))?;
        }
        Ok(())
    }

    fn metered(
        &mut self,
        scenario: &PaperScenario,
        policy: PolicyKind,
        prefab: &TrialPrefab,
        expected: &TrialSummary,
    ) -> Result<(), String> {
        let slot = match self.policies.iter().position(|(p, _)| *p == policy) {
            Some(i) => i,
            None => {
                self.policies.push((policy, policy.build()));
                self.policies.len() - 1
            }
        };
        let result = try_simulate_in_taped(
            &mut self.ctx,
            scenario.config_for(prefab.seed).with_metrics(),
            Arc::clone(&prefab.tasks),
            Arc::clone(&prefab.profile),
            self.policies[slot].1.as_mut(),
            scenario.predictor.build_shared(&prefab.profile),
            prefab.tape.clone(),
        )
        .map_err(|e| format!("metric replay aborted: {e}"))?;
        if TrialSummary::of(&result) != *expected {
            return Err(format!(
                "metric replay of seed {} ({}) differs from the production run",
                prefab.seed,
                policy.name()
            ));
        }
        let m = result
            .metrics
            .as_ref()
            .ok_or("metric replay returned no metrics")?;
        let c = &mut self.counts;
        c.cells += 1;
        c.events += result.events;
        c.queue_scheduled += m.counter("queue.scheduled");
        c.queue_max_pending += m.counter("queue.max_pending");
        c.cursor_locates += m.counter("cursor.locates");
        c.cursor_gallop_segments += m.counter("cursor.gallop_segments");
        c.cross_scan += m.counter("cursor.cross.scan");
        c.cross_bisect += m.counter("cursor.cross.bisect");
        c.decisions += m.counter("sched.decisions");
        c.es_memo_hits += m.counter("sched.es_memo.hits");
        c.es_memo_misses += m.counter("sched.es_memo.misses");
        c.stalls += m.counter("sched.stalls");
        Ok(())
    }

    /// The counts summed so far.
    pub fn finish(self) -> WorkCounts {
        self.counts
    }
}
