//! Concrete ambient-source models.
//!
//! * [`ConstantSource`] — fixed output (the assumption of Allavena &
//!   Mossé that the paper's introduction criticizes; kept as a baseline
//!   and for unit tests with hand-computable energies).
//! * [`SolarModel`] — the paper's stochastic solar generator (eq. 13).
//! * [`DayNightSource`] — the two-mode day/night model of Rusu et al.
//!   (paper ref \[5\]).
//! * [`TraceSource`] — replay of a measured power trace (Kansal-style
//!   profile tracing, paper ref \[6\]).
//! * [`MarkovWeatherSource`] — a weather-modulated wrapper: a Markov
//!   chain over sky states scales an underlying clear-sky model.

mod constant;
mod daynight;
mod markov;
mod solar;
mod trace;

pub use constant::ConstantSource;
pub use daynight::DayNightSource;
pub use markov::MarkovWeatherSource;
pub use solar::SolarModel;
pub use trace::TraceSource;
