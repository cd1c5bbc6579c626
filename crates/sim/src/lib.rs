//! # harvest-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the `harvest-rt` workspace: everything needed to
//! run exact, reproducible simulations of energy-harvesting real-time
//! systems.
//!
//! * [`time`] — fixed-point simulation time ([`SimTime`]/[`SimDuration`],
//!   10⁶ ticks per time unit) so event ordering is exact.
//! * [`piecewise`] — piecewise-constant functions with closed-form
//!   integrals and accumulation-crossing solves; harvest-power profiles
//!   live here.
//! * [`event`] — a stable `(time, seq)` event queue and the release tape.
//! * [`engine`] — a minimal generic DES engine (`Model` + `Engine`).
//! * [`trace`] — counting trace emissions without keeping them.
//! * [`stats`] — Welford statistics, sampled time series, histograms.
//!
//! # Examples
//!
//! Integrate a harvest profile exactly:
//!
//! ```
//! use harvest_sim::piecewise::{Extension, PiecewiseConstant};
//! use harvest_sim::time::{SimDuration, SimTime};
//!
//! let profile = PiecewiseConstant::from_samples(
//!     SimTime::ZERO,
//!     SimDuration::from_whole_units(1),
//!     vec![0.5, 2.0, 1.5],
//!     Extension::Hold,
//! )?;
//! let harvested = profile.integrate(SimTime::ZERO, SimTime::from_whole_units(3));
//! assert_eq!(harvested, 4.0);
//! # Ok::<(), harvest_sim::piecewise::PiecewiseError>(())
//! ```
//!
//! [`SimTime`]: time::SimTime
//! [`SimDuration`]: time::SimDuration

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod event;
pub mod piecewise;
pub mod stats;
pub mod time;
pub mod trace;
