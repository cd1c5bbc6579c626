//! Harvest- and storage-side fault primitives.
//!
//! These are the energy-layer building blocks of the deterministic
//! fault-injection subsystem: timed **blackout/brownout windows** that
//! attenuate a harvest profile or a live [`HarvestSource`], and a
//! **storage fault** that derates capacity and adds leakage. The plan
//! that decides *which* faults fire for a given trial seed lives in
//! `harvest-core`; everything here is mechanism, not policy.
//!
//! All transforms are pure and deterministic: applying the same faults
//! to the same profile always yields the same result, and applying an
//! empty fault list is an exact identity (callers can keep the original
//! allocation untouched).
//!
//! [`HarvestSource`]: crate::source::HarvestSource

use crate::storage::StorageSpec;
use harvest_sim::piecewise::PiecewiseConstant;
use harvest_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One timed attenuation of the harvest: the source output is
/// multiplied by `factor` over `[start, end)`.
///
/// `factor == 0.0` is a blackout; `0 < factor < 1` is a brownout.
/// Overlapping windows compound multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HarvestFaultWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Multiplicative attenuation in `[0, 1]`.
    pub factor: f64,
}

impl HarvestFaultWindow {
    /// `true` when the window attenuates the harvest at instant `t`.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// `true` for a well-formed window: positive length and a factor in
    /// `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        self.start < self.end && self.factor.is_finite() && (0.0..=1.0).contains(&self.factor)
    }
}

/// Product of all window factors active at `t` (1.0 when none are).
pub fn harvest_factor_at(faults: &[HarvestFaultWindow], t: SimTime) -> f64 {
    faults
        .iter()
        .filter(|w| w.contains(t))
        .map(|w| w.factor)
        .product()
}

/// Rebuilds `profile` with every fault window applied.
///
/// The result is defined over the union of the profile's explicit
/// domain and the fault windows (the profile's extension rule supplies
/// the base value wherever a window reaches outside the domain), with
/// breakpoints at the union of the base-value changes and the fault
/// edges; each sub-segment's value is the base value times the product
/// of the factors of the windows covering it. The extension mode is
/// preserved. Note that for [`Extension::Cycle`](harvest_sim::piecewise::Extension)
/// profiles with windows beyond the cyclic domain, the rebuilt (longer)
/// domain becomes the new cycle — query such results only up to their
/// domain end.
///
/// Callers should skip the call entirely for an empty fault list so the
/// fault-free path keeps the original allocation (and bit-identity).
///
/// # Panics
///
/// Panics if any window is malformed (see
/// [`HarvestFaultWindow::is_valid`]).
pub fn apply_harvest_faults(
    profile: &PiecewiseConstant,
    faults: &[HarvestFaultWindow],
) -> PiecewiseConstant {
    for w in faults {
        assert!(
            w.is_valid(),
            "harvest fault window must have start < end and factor in [0, 1]"
        );
    }
    // Build over the union span, padded one tick past any window that
    // touches a domain boundary so the boundary segments carry the
    // *unfaulted* base value — Hold then extends the nominal harvest,
    // not the last faulted value.
    let mut lo = profile.domain_start();
    if let Some(min_start) = faults.iter().map(|w| w.start).min() {
        if min_start <= lo {
            lo = min_start - SimDuration::TICK;
        }
    }
    let mut hi = profile.domain_end();
    if let Some(max_end) = faults.iter().map(|w| w.end).max() {
        if max_end >= hi {
            hi = max_end + SimDuration::TICK;
        }
    }
    let mut edges: Vec<SimTime> =
        Vec::with_capacity(profile.segment_count() + 2 * faults.len() + 1);
    for seg in profile.segments_between(lo, hi) {
        edges.push(seg.start);
    }
    edges.push(hi);
    for w in faults {
        for t in [w.start, w.end] {
            if lo < t && t < hi {
                edges.push(t);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    let mut values = Vec::with_capacity(edges.len() - 1);
    for pair in edges.windows(2) {
        // Factors are constant over each sub-segment, so sampling the
        // (inclusive) start instant is exact.
        let t = pair[0];
        values.push(profile.value_at(t) * harvest_factor_at(faults, t));
    }
    PiecewiseConstant::new(edges, values, profile.extension())
        .expect("faulted profile reuses validated breakpoints")
}

/// Storage degradation: a capacity derating plus extra leakage drain.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StorageFault {
    /// Fraction of nameplate capacity lost, in `[0, 1)`.
    pub capacity_fade: f64,
    /// Additional constant leakage power, `>= 0`.
    pub extra_leakage_power: f64,
}

impl StorageFault {
    /// `true` when the fault changes nothing.
    pub fn is_empty(&self) -> bool {
        self.capacity_fade == 0.0 && self.extra_leakage_power == 0.0
    }

    /// Applies the degradation to a spec. Identity when empty.
    ///
    /// # Panics
    ///
    /// Panics if the fade is outside `[0, 1)` or the extra leakage is
    /// negative or non-finite.
    pub fn apply(&self, spec: StorageSpec) -> StorageSpec {
        if self.is_empty() {
            return spec;
        }
        spec.with_capacity_fade(self.capacity_fade)
            .with_leakage_power(spec.leakage_power() + self.extra_leakage_power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::time::SimDuration;

    fn t(units: i64) -> SimTime {
        SimTime::from_whole_units(units)
    }

    fn flat(value: f64, len: i64) -> PiecewiseConstant {
        PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_whole_units(len),
            vec![value],
            harvest_sim::piecewise::Extension::Hold,
        )
        .unwrap()
    }

    #[test]
    fn blackout_zeroes_the_window_and_nothing_else() {
        let p = flat(10.0, 100);
        let f = apply_harvest_faults(
            &p,
            &[HarvestFaultWindow {
                start: t(20),
                end: t(30),
                factor: 0.0,
            }],
        );
        assert_eq!(f.value_at(t(19)), 10.0);
        assert_eq!(f.value_at(t(20)), 0.0);
        assert_eq!(f.value_at(t(29)), 0.0);
        assert_eq!(f.value_at(t(30)), 10.0);
        assert_eq!(f.integrate(SimTime::ZERO, t(100)), 900.0);
    }

    #[test]
    fn overlapping_brownouts_compound() {
        let p = flat(8.0, 40);
        let f = apply_harvest_faults(
            &p,
            &[
                HarvestFaultWindow {
                    start: t(0),
                    end: t(20),
                    factor: 0.5,
                },
                HarvestFaultWindow {
                    start: t(10),
                    end: t(30),
                    factor: 0.25,
                },
            ],
        );
        assert_eq!(f.value_at(t(5)), 4.0);
        assert_eq!(f.value_at(t(15)), 1.0);
        assert_eq!(f.value_at(t(25)), 2.0);
        assert_eq!(f.value_at(t(35)), 8.0);
    }

    #[test]
    fn empty_fault_list_is_identity() {
        let p = flat(3.0, 10);
        let f = apply_harvest_faults(&p, &[]);
        assert_eq!(f, p);
    }

    #[test]
    fn windows_outside_domain_extend_it_over_the_extension() {
        // The profile holds 2.0 past its explicit 10-unit domain; a
        // window over [-5, 50) must attenuate that held value too.
        let p = flat(2.0, 10);
        let f = apply_harvest_faults(
            &p,
            &[HarvestFaultWindow {
                start: t(-5),
                end: t(50),
                factor: 0.0,
            }],
        );
        assert_eq!(f.value_at(t(0)), 0.0);
        assert_eq!(f.value_at(t(9)), 0.0);
        assert_eq!(f.value_at(t(49)), 0.0);
        assert_eq!(
            f.value_at(t(50)),
            2.0,
            "held value resumes after the window"
        );
        assert_eq!(f.value_at(t(1_000)), 2.0, "hold extends the nominal value");
        assert_eq!(f.value_at(t(-100)), 2.0, "backward hold is nominal too");
    }

    #[test]
    fn faults_on_a_constant_profile_apply_everywhere() {
        let p = PiecewiseConstant::constant(1.2);
        let f = apply_harvest_faults(
            &p,
            &[HarvestFaultWindow {
                start: t(100),
                end: t(300),
                factor: 0.0,
            }],
        );
        assert_eq!(f.value_at(t(99)), 1.2);
        assert_eq!(f.value_at(t(100)), 0.0);
        assert_eq!(f.value_at(t(299)), 0.0);
        assert_eq!(f.value_at(t(300)), 1.2);
        assert_eq!(f.integrate(SimTime::ZERO, t(400)), 240.0);
    }

    #[test]
    fn storage_fault_derates_and_leaks() {
        let spec = StorageSpec::ideal(100.0);
        let faulted = StorageFault {
            capacity_fade: 0.25,
            extra_leakage_power: 0.5,
        }
        .apply(spec);
        assert_eq!(faulted.capacity(), 75.0);
        assert_eq!(faulted.leakage_power(), 0.5);
        assert_eq!(StorageFault::default().apply(spec), spec);
    }

    #[test]
    fn infinite_storage_ignores_fade() {
        let spec = StorageSpec::infinite();
        let faulted = StorageFault {
            capacity_fade: 0.5,
            extra_leakage_power: 0.0,
        }
        .apply(spec);
        assert!(faulted.is_infinite());
    }
}
