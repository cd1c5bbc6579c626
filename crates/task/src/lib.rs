//! # harvest-task — real-time task model
//!
//! The paper's task abstraction (§3.3): independent, preemptable tasks
//! `τ_m = (a_m, d_m, w_m)` scheduled earliest-deadline-first.
//!
//! * [`task`] — [`Task`] definitions (periodic / one-shot) with arrival
//!   enumeration.
//! * [`job`] — released [`Job`] instances tracking remaining full-speed
//!   work.
//! * [`taskset`] — [`TaskSet`] with utilization, common-ratio scaling
//!   (§5.1) and hyperperiod.
//! * [`queue`] — the EDF-ordered ready queue of the scheduling loop
//!   (paper Fig. 4).
//! * [`generator`] — the §5.1 random workload generator.
//! * [`analysis`] — offline EDF schedulability (utilization and
//!   processor-demand tests) and energy-feasibility bounds.
//!
//! # Examples
//!
//! ```
//! use harvest_task::generator::WorkloadSpec;
//! use harvest_sim::time::SimTime;
//!
//! // 5 periodic tasks at U = 0.4 sized against a 2.0-power source and a
//! // 3.2-power processor — the paper's Fig. 8 workload.
//! let set = WorkloadSpec::paper(5, 0.4, 2.0, 3.2).generate(1);
//! assert_eq!(set.len(), 5);
//! assert!((set.utilization() - 0.4).abs() < 1e-12);
//! let first = &set.tasks()[0];
//! let one_period = SimTime::ZERO + first.period().unwrap();
//! assert!(!first.arrivals_between(SimTime::ZERO, one_period).is_empty());
//! ```
//!
//! [`Task`]: task::Task
//! [`Job`]: job::Job

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod generator;
pub mod job;
pub mod queue;
pub mod task;
pub mod taskset;

pub use job::JobId;
pub use taskset::TaskSet;
