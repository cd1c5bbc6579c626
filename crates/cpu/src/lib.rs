//! # harvest-cpu — DVFS processor models
//!
//! The paper's processor abstraction (§3.3): `N` discrete operating
//! points with normalized speeds `S_n = f_n / f_max` and strictly
//! increasing powers; a job with worst-case execution time `w` (at
//! `f_max`) runs for `w / S_n` wall-clock units at level `n`.
//!
//! * [`FrequencyLevel`] — one (frequency, power) point.
//! * [`CpuModel`] — the validated level table with speed/power/feasibility
//!   queries; [`CpuModel::min_feasible_level`] implements the paper's
//!   eq. 6 minimization.
//! * [`PowerLaw`] — synthetic table generation from `P(s) = p₀ + c·sᵏ`.
//! * [`presets`] — the paper's XScale table (§5.1) and both worked
//!   examples (§2, §4.3).
//!
//! # Examples
//!
//! ```
//! let cpu = harvest_cpu::presets::xscale();
//! // The paper's eq. 6: slowest level finishing 2 work units in 6 time
//! // units needs S_n ≥ 1/3 → the 400 MHz level (S = 0.4).
//! assert_eq!(cpu.min_feasible_level(2.0, 6.0), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod level;
pub(crate) mod model;
pub(crate) mod power;
pub mod presets;

pub use level::FrequencyLevel;
pub use model::{CpuModel, LevelIndex};
pub use power::PowerLaw;
