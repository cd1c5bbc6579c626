//! # harvest-energy — energy-harvesting models
//!
//! Everything on the energy side of the paper's system model (§3):
//!
//! * [`source`] / [`sources`] — ambient source models ([`HarvestSource`])
//!   including the paper's stochastic solar generator (eq. 13), and
//!   [`source::sample_profile`] to freeze one seeded realization into an
//!   exact piecewise-constant profile.
//! * [`predictor`] — `ÊS(t1, t2)` estimators: clairvoyant
//!   [`OraclePredictor`] plus online slot-EWMA, moving-average, and
//!   persistence predictors.
//! * [`storage`] — the ideal storage of §3.2 (eq. 1, 3, 4) with optional
//!   efficiency/leakage extensions, evolved exactly against a profile.
//!
//! # Examples
//!
//! Sample the paper's solar source and charge a store from it:
//!
//! ```
//! use harvest_energy::source::sample_profile;
//! use harvest_energy::sources::SolarModel;
//! use harvest_energy::storage::StorageSpec;
//! use harvest_sim::time::{SimDuration, SimTime};
//!
//! let profile = sample_profile(
//!     &mut SolarModel::paper(),
//!     SimTime::ZERO,
//!     SimDuration::from_whole_units(1_000),
//!     SimDuration::from_whole_units(1),
//!     42,
//! )?;
//! let store = StorageSpec::ideal(500.0);
//! let report = store.advance(0.0, &profile, SimTime::ZERO, SimTime::from_whole_units(100), 0.0);
//! assert!(report.level > 0.0);
//! # Ok::<(), harvest_sim::piecewise::PiecewiseError>(())
//! ```
//!
//! [`HarvestSource`]: source::HarvestSource
//! [`OraclePredictor`]: predictor::OraclePredictor

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod predictor;
pub mod rand_util;
pub mod source;
pub mod sources;
pub mod storage;
