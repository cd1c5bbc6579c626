//! Scheduling-trace vocabulary of the closed-loop simulator.

use harvest_cpu::LevelIndex;
use harvest_sim::time::SimTime;
use harvest_task::job::JobId;
use serde::{Deserialize, Serialize};

/// One scheduling event, timestamped by its position in
/// [`SimResult::trace`](crate::result::SimResult::trace).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A job was released into the ready queue.
    Released {
        /// The new job.
        job: JobId,
        /// Releasing task index.
        task: usize,
        /// The job's absolute deadline.
        deadline: SimTime,
    },
    /// Execution (re)started at the given DVFS level.
    Started {
        /// The executing job.
        job: JobId,
        /// Chosen level.
        level: LevelIndex,
    },
    /// A job finished all its work.
    Completed {
        /// The finished job.
        job: JobId,
    },
    /// A job reached its deadline unfinished.
    Missed {
        /// The late job.
        job: JobId,
    },
    /// The policy chose to keep the processor idle.
    Idled {
        /// Scheduled wake-up, if any.
        until: Option<SimTime>,
    },
    /// The store was empty; execution stalled awaiting harvested energy.
    Stalled {
        /// Scheduled restart attempt, if the source ever recovers.
        until: Option<SimTime>,
    },
    /// The injected harvest attenuation changed (a blackout/brownout
    /// window opened or closed).
    HarvestFault {
        /// Combined attenuation factor now in effect (1.0 = nominal).
        factor: f64,
        /// `true` while at least one window is active.
        active: bool,
    },
    /// An injected DVFS level lockout toggled.
    LevelLockout {
        /// The affected level.
        level: LevelIndex,
        /// `true` when the level just became unavailable.
        locked: bool,
    },
}

impl TraceEvent {
    /// Number of variants; kind indices are below this.
    pub(crate) const KIND_COUNT: usize = 8;

    /// Variant names indexed by [`kind_index`](Self::kind_index), for
    /// rendering per-variant counts.
    pub(crate) const KIND_NAMES: [&'static str; Self::KIND_COUNT] = [
        "released",
        "started",
        "completed",
        "missed",
        "idled",
        "stalled",
        "harvest-fault",
        "level-lockout",
    ];

    /// Dense variant index, in `0..KIND_COUNT`.
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            TraceEvent::Released { .. } => 0,
            TraceEvent::Started { .. } => 1,
            TraceEvent::Completed { .. } => 2,
            TraceEvent::Missed { .. } => 3,
            TraceEvent::Idled { .. } => 4,
            TraceEvent::Stalled { .. } => 5,
            TraceEvent::HarvestFault { .. } => 6,
            TraceEvent::LevelLockout { .. } => 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_events_round_trip_serde() {
        let events = vec![
            TraceEvent::Released {
                job: JobId(1),
                task: 0,
                deadline: SimTime::from_whole_units(5),
            },
            TraceEvent::Started {
                job: JobId(1),
                level: 2,
            },
            TraceEvent::Completed { job: JobId(1) },
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<TraceEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn kind_indices_are_dense_and_named() {
        let samples = [
            TraceEvent::Released {
                job: JobId(1),
                task: 0,
                deadline: SimTime::ZERO,
            },
            TraceEvent::Started {
                job: JobId(1),
                level: 0,
            },
            TraceEvent::Completed { job: JobId(1) },
            TraceEvent::Missed { job: JobId(1) },
            TraceEvent::Idled { until: None },
            TraceEvent::Stalled { until: None },
            TraceEvent::HarvestFault {
                factor: 0.0,
                active: true,
            },
            TraceEvent::LevelLockout {
                level: 1,
                locked: true,
            },
        ];
        assert_eq!(samples.len(), TraceEvent::KIND_COUNT);
        for (i, ev) in samples.iter().enumerate() {
            assert_eq!(ev.kind_index(), i);
        }
    }
}
