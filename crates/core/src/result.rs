//! Results of a closed-loop run.

use harvest_obs::{MetricsSnapshot, PhaseProfile};
use harvest_sim::time::{SimDuration, SimTime};
use harvest_task::job::JobId;
use serde::{Deserialize, Serialize};

use crate::trace::TraceEvent;

/// Typed abort reasons for a simulation run.
///
/// Produced by the fallible entry point
/// [`try_simulate_arms_in`](crate::system::try_simulate_arms_in) when
/// the engine's [`Watchdog`](harvest_sim::engine::Watchdog) trips. A run
/// without a watchdog cannot abort, so the infallible
/// [`simulate`](crate::system::simulate) never sees these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The trial exhausted its total event budget.
    WatchdogEventBudget {
        /// Simulation time at which the budget ran out.
        at: SimTime,
        /// Events handled when the watchdog fired.
        events: u64,
    },
    /// The trial fired too many events at one instant without the clock
    /// advancing (a livelocked model).
    WatchdogNoProgress {
        /// The stuck instant.
        at: SimTime,
        /// Events handled when the watchdog fired.
        events: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::WatchdogEventBudget { at, events } => write!(
                f,
                "watchdog: event budget exhausted after {events} events at t={at}"
            ),
            SimError::WatchdogNoProgress { at, events } => write!(
                f,
                "watchdog: no progress (clock stuck at t={at} after {events} events)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Final status of a released job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Finished at the given instant, no later than its deadline.
    Completed {
        /// Completion instant.
        at: SimTime,
    },
    /// Reached its deadline unfinished. Under
    /// [`MissPolicy::RunToCompletion`](crate::config::MissPolicy) the
    /// eventual completion instant is recorded too.
    Missed {
        /// Completion instant if the job was allowed to finish late.
        completed: Option<SimTime>,
    },
    /// Still unfinished at the horizon with its deadline beyond it —
    /// excluded from the miss-rate denominator.
    Pending,
}

/// Per-job record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job's id (its index in the result's `jobs` vector).
    pub id: JobId,
    /// Index of the releasing task in the task set.
    pub task_index: usize,
    /// Release instant.
    pub arrival: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Worst-case execution time at full speed.
    pub wcet: f64,
    /// Final status.
    pub outcome: JobOutcome,
    /// Energy delivered to the CPU while this job executed.
    pub energy: f64,
}

impl JobRecord {
    /// `true` if the job completed by its deadline.
    pub fn met_deadline(&self) -> bool {
        matches!(self.outcome, JobOutcome::Completed { .. })
    }

    /// `true` if the job missed its deadline.
    pub fn missed_deadline(&self) -> bool {
        matches!(self.outcome, JobOutcome::Missed { .. })
    }
}

/// Energy bookkeeping over the whole run, all in the workspace's energy
/// units (power × time-unit).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyAccounting {
    /// Ambient energy offered by the source over the horizon.
    pub harvested: f64,
    /// Energy delivered to the CPU (running and idle loads).
    pub consumed: f64,
    /// Harvested energy discarded because the storage was full
    /// (paper §3.2: "the incoming harvested energy overflows the storage
    /// and is discarded").
    pub overflow: f64,
    /// Load energy the storage could not supply (bounded by event
    /// rounding; a healthy run keeps this negligible).
    pub deficit: f64,
    /// Stored energy at `t = 0`.
    pub initial_level: f64,
    /// Stored energy at the horizon.
    pub final_level: f64,
}

/// Everything measured during one closed-loop simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Name of the scheduling policy that produced this run.
    pub scheduler: String,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// One record per released job, in release order.
    pub jobs: Vec<JobRecord>,
    /// Energy bookkeeping.
    pub energy: EnergyAccounting,
    /// Number of DVFS frequency switches performed.
    pub switches: u64,
    /// Scheduler events handled by the discrete-event engine over the
    /// run — the denominator of end-to-end events/sec throughput.
    pub events: u64,
    /// Number of domain trace events emitted, counted even when full
    /// trace collection is off (the sweep fast path).
    pub trace_events: u64,
    /// Per-variant totals of the emitted trace events, indexed by
    /// [`TraceEvent::kind_index`]; maintained even when the full trace
    /// is not retained.
    pub trace_kind_counts: Vec<u64>,
    /// Busy time per DVFS level (same order as the CPU's level table).
    pub level_time: Vec<f64>,
    /// Time with no job executing (includes stalls).
    pub idle_time: f64,
    /// Portion of idle time spent stalled on an empty store.
    pub stall_time: f64,
    /// Storage-level samples `(t, EC(t))` if sampling was enabled.
    pub samples: Vec<(SimTime, f64)>,
    /// Scheduling trace if collection was enabled.
    pub trace: Vec<(SimTime, TraceEvent)>,
    /// Frozen metrics registry (queue, cursor, scheduler, storage, and
    /// policy counters) if `collect_metrics` was set.
    pub metrics: Option<MetricsSnapshot>,
    /// Wall-clock phase timings (event dispatch, policy decision, energy
    /// update) if profiling was enabled.
    pub profile: Option<PhaseProfile>,
}

impl SimResult {
    /// Number of released jobs.
    pub fn released(&self) -> usize {
        self.jobs.len()
    }

    /// Number of jobs that completed by their deadline.
    pub fn completed_in_time(&self) -> usize {
        self.jobs.iter().filter(|j| j.met_deadline()).count()
    }

    /// Number of jobs that missed their deadline.
    pub fn missed(&self) -> usize {
        self.jobs.iter().filter(|j| j.missed_deadline()).count()
    }

    /// Jobs whose fate was decided within the horizon (completed in time
    /// or missed).
    pub fn decided(&self) -> usize {
        self.completed_in_time() + self.missed()
    }

    /// Deadline miss rate: missed / decided. Zero when nothing was
    /// decided.
    pub fn miss_rate(&self) -> f64 {
        let decided = self.decided();
        if decided == 0 {
            0.0
        } else {
            self.missed() as f64 / decided as f64
        }
    }

    /// `true` if every decided job met its deadline.
    pub fn is_miss_free(&self) -> bool {
        self.missed() == 0
    }

    /// Total busy time across all levels.
    pub fn busy_time(&self) -> f64 {
        self.level_time.iter().sum()
    }

    /// Storage-level samples normalized by `capacity` (the paper
    /// normalizes remaining energy before averaging across capacities,
    /// §5.2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn normalized_samples(&self, capacity: f64) -> Vec<(SimTime, f64)> {
        assert!(capacity > 0.0, "capacity must be positive");
        self.samples
            .iter()
            .map(|&(t, e)| (t, e / capacity))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, outcome: JobOutcome) -> JobRecord {
        JobRecord {
            id: JobId(id),
            task_index: 0,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_whole_units(10),
            wcet: 1.0,
            outcome,
            energy: 0.0,
        }
    }

    fn result(jobs: Vec<JobRecord>) -> SimResult {
        SimResult {
            scheduler: "test".into(),
            horizon: SimDuration::from_whole_units(100),
            jobs,
            energy: EnergyAccounting::default(),
            switches: 0,
            events: 0,
            trace_events: 0,
            trace_kind_counts: vec![0; TraceEvent::KIND_COUNT],
            level_time: vec![1.0, 2.0],
            idle_time: 97.0,
            stall_time: 0.0,
            samples: vec![(SimTime::ZERO, 50.0)],
            trace: vec![],
            metrics: None,
            profile: None,
        }
    }

    #[test]
    fn miss_rate_counts_decided_only() {
        let r = result(vec![
            record(
                0,
                JobOutcome::Completed {
                    at: SimTime::from_whole_units(5),
                },
            ),
            record(1, JobOutcome::Missed { completed: None }),
            record(2, JobOutcome::Pending),
        ]);
        assert_eq!(r.released(), 3);
        assert_eq!(r.decided(), 2);
        assert_eq!(r.missed(), 1);
        assert!((r.miss_rate() - 0.5).abs() < 1e-12);
        assert!(!r.is_miss_free());
    }

    #[test]
    fn empty_run_has_zero_miss_rate() {
        let r = result(vec![]);
        assert_eq!(r.miss_rate(), 0.0);
        assert!(r.is_miss_free());
    }

    #[test]
    fn busy_time_sums_levels() {
        let r = result(vec![]);
        assert_eq!(r.busy_time(), 3.0);
    }

    #[test]
    fn normalization_divides_by_capacity() {
        let r = result(vec![]);
        let n = r.normalized_samples(100.0);
        assert_eq!(n[0].1, 0.5);
    }

    #[test]
    fn outcome_predicates() {
        assert!(record(0, JobOutcome::Completed { at: SimTime::ZERO }).met_deadline());
        assert!(record(0, JobOutcome::Missed { completed: None }).missed_deadline());
        let pending = record(0, JobOutcome::Pending);
        assert!(!pending.met_deadline() && !pending.missed_deadline());
    }
}
