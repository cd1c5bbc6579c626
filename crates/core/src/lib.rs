//! # harvest-core — EA-DVFS scheduling and the closed-loop simulator
//!
//! The primary contribution of the reproduced paper ("Energy Aware
//! Dynamic Voltage and Frequency Selection for Real-Time Systems with
//! Energy Harvesting", DATE 2008) plus its baselines:
//!
//! * [`scheduler`] — the policy interface ([`Scheduler`], [`Decision`],
//!   [`SchedContext`]) exposing the paper's eq. 5–9 quantities.
//! * [`policies`] — [`EaDvfsScheduler`] (§4), [`LazyScheduler`] (LSA,
//!   refs \[7\]\[10\]), [`EdfScheduler`], and the §4.3
//!   [`GreedyStretchScheduler`] strawman.
//! * [`system`] — the exact event-driven closed-loop simulator binding
//!   source, storage, CPU, tasks, policy, and predictor. Every run goes
//!   through [`system::try_simulate_arms_in`]: one or more policy arms
//!   on a pooled [`RunContext`], with a typed [`SimError`] when a
//!   watchdog fires. [`system::simulate`] is its infallible one-arm
//!   shortcut on fresh state.
//! * [`config`] / [`result`] / [`trace`] — run configuration, measured
//!   results, and the scheduling trace vocabulary.
//!
//! # Examples
//!
//! Reproduce the paper's §2 motivational example end to end:
//!
//! ```
//! use harvest_core::config::SystemConfig;
//! use harvest_core::policies::{EaDvfsScheduler, LazyScheduler};
//! use harvest_core::system::simulate;
//! use harvest_cpu::presets;
//! use harvest_energy::predictor::OraclePredictor;
//! use harvest_energy::storage::StorageSpec;
//! use harvest_sim::piecewise::PiecewiseConstant;
//! use harvest_sim::time::{SimDuration, SimTime};
//! use harvest_task::task::Task;
//! use harvest_task::taskset::TaskSet;
//!
//! let tasks = TaskSet::new(vec![
//!     Task::once(SimTime::ZERO, SimDuration::from_whole_units(16), 4.0),
//!     Task::once(SimTime::from_whole_units(5), SimDuration::from_whole_units(16), 1.5),
//! ]);
//! let profile = PiecewiseConstant::constant(0.5);
//! let config = SystemConfig::new(
//!     presets::two_speed_example(),
//!     StorageSpec::ideal(1_000.0),
//!     SimDuration::from_whole_units(30),
//! )
//! .with_initial_level(24.0);
//!
//! let lsa = simulate(
//!     config.clone(),
//!     &tasks,
//!     profile.clone(),
//!     Box::new(LazyScheduler::new()),
//!     Box::new(OraclePredictor::new(profile.clone())),
//! );
//! let ea = simulate(
//!     config,
//!     &tasks,
//!     profile.clone(),
//!     Box::new(EaDvfsScheduler::new()),
//!     Box::new(OraclePredictor::new(profile)),
//! );
//! assert_eq!(lsa.missed(), 1); // LSA starves τ2
//! assert_eq!(ea.missed(), 0);  // EA-DVFS stretches τ1 and saves τ2
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod fault;
pub mod policies;
pub mod result;
pub mod scheduler;
pub mod system;
pub mod trace;

pub use config::{MissPolicy, SystemConfig};
pub use fault::{FaultPlan, LevelLockoutWindow};
pub use policies::{
    EaDvfsScheduler, EdfScheduler, GreedyStretchScheduler, LazyScheduler, StaticSlowdownScheduler,
};
pub use result::{EnergyAccounting, JobOutcome, JobRecord, SimError, SimResult};
pub use scheduler::{Decision, SchedContext, Scheduler};
pub use system::{simulate, try_simulate_arms_in, try_simulate_in_taped, PoolStats, RunContext};
pub use trace::TraceEvent;
