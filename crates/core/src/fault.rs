//! Deterministic per-trial fault plans.
//!
//! A [`FaultPlan`] is the full description of everything that goes
//! wrong in one trial: harvest blackout/brownout windows, storage
//! degradation, DVFS level lockouts, and predictor corruption. Plans
//! are plain data — attached to a [`SystemConfig`](crate::config::SystemConfig)
//! via [`with_fault_plan`](crate::config::SystemConfig::with_fault_plan) —
//! and are either hand-built or derived from a `(seed, intensity)` pair
//! by [`FaultPlan::generate`], whose SplitMix64 stream guarantees the
//! same plan (and therefore a bit-identical run) for the same inputs.
//!
//! Zero intensity generates the canonical empty plan, and the simulator
//! treats an empty plan exactly like no plan at all, so the fault-free
//! path is preserved bit-for-bit (pinned by the Fig. 5–9 suites).

use harvest_cpu::{CpuModel, LevelIndex};
use harvest_energy::fault::{HarvestFaultWindow, StorageFault};
use harvest_energy::predictor::PredictorFault;
use harvest_energy::rand_util::{splitmix64, unit_from_bits};
use harvest_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One temporary DVFS level outage: level `level` is unavailable to the
/// min-frequency search over `[start, end)`, forcing eq. 6 to re-select
/// the next faster available point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct LevelLockoutWindow {
    /// The locked-out level. Never the fastest level.
    pub(crate) level: LevelIndex,
    /// Lockout start (inclusive).
    pub(crate) start: SimTime,
    /// Lockout end (exclusive).
    pub(crate) end: SimTime,
}

impl LevelLockoutWindow {
    /// `true` when the lockout is active at instant `t`.
    pub(crate) fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Everything injected into one trial. See the module docs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Harvest attenuation windows (blackouts and brownouts).
    pub(crate) harvest: Vec<HarvestFaultWindow>,
    /// Storage capacity fade and extra leakage, if any.
    pub(crate) storage: Option<StorageFault>,
    /// Temporary DVFS level outages.
    pub(crate) lockouts: Vec<LevelLockoutWindow>,
    /// Predictor noise/staleness, if any.
    pub(crate) predictor: Option<PredictorFault>,
}

impl FaultPlan {
    /// `true` when the plan injects nothing — the simulator then takes
    /// the exact fault-free code path.
    pub fn is_empty(&self) -> bool {
        self.harvest.is_empty()
            && self.storage.is_none_or(|s| s.is_empty())
            && self.lockouts.is_empty()
            && self.predictor.is_none_or(|p| p.is_empty())
    }

    /// Bitmask of levels locked out at instant `t`.
    pub(crate) fn lockout_mask_at(&self, t: SimTime) -> u64 {
        let mut mask = 0u64;
        for w in &self.lockouts {
            if w.contains(t) && w.level < 64 {
                mask |= 1 << w.level;
            }
        }
        mask
    }

    /// Every distinct window edge (start or end) in `(after, before)`,
    /// sorted ascending — the instants at which the injected state
    /// changes and the simulator must re-decide.
    pub(crate) fn edge_times(&self, after: SimTime, before: SimTime) -> Vec<SimTime> {
        let mut edges = Vec::with_capacity(2 * (self.harvest.len() + self.lockouts.len()));
        let mut push = |t: SimTime| {
            if after < t && t < before {
                edges.push(t);
            }
        };
        for w in &self.harvest {
            push(w.start);
            push(w.end);
        }
        for w in &self.lockouts {
            push(w.start);
            push(w.end);
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Derives a plan from a trial seed and a fault intensity in
    /// `[0, 1]`.
    ///
    /// Intensity `0` returns the canonical empty plan. As intensity
    /// grows, blackout/brownout windows get more numerous and longer,
    /// the battery fades harder and leaks more (scaled by the CPU's
    /// full-speed power so the leak is meaningful for any platform),
    /// sub-maximal DVFS levels lock out more often, and the predictor
    /// gets noisier and staler. The fastest level is never locked.
    ///
    /// The generator consumes a dedicated SplitMix64 stream keyed on
    /// `seed` (decorrelated from the workload/profile streams), so the
    /// same `(seed, intensity, horizon, cpu)` always yields the same
    /// plan.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]` or the horizon is not
    /// positive.
    pub fn generate(seed: u64, intensity: f64, horizon: SimDuration, cpu: &CpuModel) -> FaultPlan {
        assert!(
            intensity.is_finite() && (0.0..=1.0).contains(&intensity),
            "fault intensity must lie in [0, 1]"
        );
        assert!(horizon.is_positive(), "horizon must be positive");
        if intensity == 0.0 {
            return FaultPlan::default();
        }
        let mut s = seed ^ 0x000F_A170_F00D_5EED_u64;
        let mut next_u = || unit_from_bits(splitmix64(&mut s));
        let h = horizon.as_units();
        let start_of = |u: f64, len: f64| {
            let t0 = u * (h - len).max(0.0);
            SimTime::ZERO + SimDuration::from_units(t0)
        };

        // Harvest: 1..=4 windows, each 1–6% of the horizon; even draws
        // are blackouts, odd draws brownouts.
        let n_harvest = 1 + (intensity * 3.0 * next_u()) as usize;
        let mut harvest = Vec::with_capacity(n_harvest);
        for i in 0..n_harvest {
            let len = h * (0.01 + 0.05 * intensity * next_u());
            let start = start_of(next_u(), len);
            let factor = if i % 2 == 0 {
                0.0
            } else {
                0.3 + 0.4 * next_u()
            };
            harvest.push(HarvestFaultWindow {
                start,
                end: start + SimDuration::from_units(len),
                factor,
            });
        }

        // Storage: fade up to 25% and leakage up to 10% of P_max at
        // full intensity.
        let storage = StorageFault {
            capacity_fade: 0.25 * intensity * next_u(),
            extra_leakage_power: 0.10 * intensity * next_u() * cpu.max_power(),
        };
        let storage = (!storage.is_empty()).then_some(storage);

        // Lockouts: up to 3 windows over the sub-maximal levels, each
        // 2–10% of the horizon. A single-level CPU has nothing to lock.
        let mut lockouts = Vec::new();
        if cpu.max_level() > 0 {
            let n_lock = (intensity * 3.0 * next_u()).round() as usize;
            for _ in 0..n_lock {
                let level = (next_u() * cpu.max_level() as f64) as usize;
                let len = h * (0.02 + 0.08 * intensity * next_u());
                let start = start_of(next_u(), len);
                lockouts.push(LevelLockoutWindow {
                    level: level.min(cpu.max_level() - 1),
                    start,
                    end: start + SimDuration::from_units(len),
                });
            }
        }

        // Predictor: noise grows to ±60% and staleness to 40% dropped
        // observations at full intensity.
        let predictor = PredictorFault {
            noise_amplitude: 0.6 * intensity,
            drop_rate: 0.4 * intensity,
            seed: splitmix64(&mut s),
        };
        let predictor = (!predictor.is_empty()).then_some(predictor);

        FaultPlan {
            harvest,
            storage,
            lockouts,
            predictor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_cpu::presets;

    fn horizon() -> SimDuration {
        SimDuration::from_whole_units(10_000)
    }

    #[test]
    fn zero_intensity_is_the_empty_plan() {
        let plan = FaultPlan::generate(42, 0.0, horizon(), &presets::xscale());
        assert_eq!(plan, FaultPlan::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn same_inputs_same_plan() {
        let cpu = presets::xscale();
        let a = FaultPlan::generate(7, 0.6, horizon(), &cpu);
        let b = FaultPlan::generate(7, 0.6, horizon(), &cpu);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let cpu = presets::xscale();
        let a = FaultPlan::generate(1, 0.5, horizon(), &cpu);
        let b = FaultPlan::generate(2, 0.5, horizon(), &cpu);
        assert_ne!(a, b);
    }

    #[test]
    fn generated_windows_are_well_formed() {
        let cpu = presets::xscale();
        let end = SimTime::ZERO + horizon();
        for seed in 0..20 {
            for intensity in [0.1, 0.5, 1.0] {
                let plan = FaultPlan::generate(seed, intensity, horizon(), &cpu);
                for w in &plan.harvest {
                    assert!(w.is_valid(), "{w:?}");
                    assert!(w.start >= SimTime::ZERO && w.end <= end, "{w:?}");
                }
                for w in &plan.lockouts {
                    assert!(w.start < w.end, "{w:?}");
                    assert!(w.level < cpu.max_level(), "fastest level locked: {w:?}");
                }
                if let Some(s) = plan.storage {
                    assert!((0.0..1.0).contains(&s.capacity_fade));
                    assert!(s.extra_leakage_power >= 0.0);
                }
            }
        }
    }

    #[test]
    fn edge_times_are_sorted_dedup_and_interior() {
        let cpu = presets::xscale();
        let plan = FaultPlan::generate(3, 0.8, horizon(), &cpu);
        let end = SimTime::ZERO + horizon();
        let edges = plan.edge_times(SimTime::ZERO, end);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        assert!(edges.iter().all(|&t| SimTime::ZERO < t && t < end));
    }

    #[test]
    fn lockout_mask_tracks_windows() {
        let plan = FaultPlan {
            lockouts: vec![LevelLockoutWindow {
                level: 1,
                start: SimTime::from_whole_units(10),
                end: SimTime::from_whole_units(20),
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.lockout_mask_at(SimTime::from_whole_units(5)), 0);
        assert_eq!(plan.lockout_mask_at(SimTime::from_whole_units(10)), 0b10);
        assert_eq!(plan.lockout_mask_at(SimTime::from_whole_units(20)), 0);
    }

    #[test]
    fn plans_round_trip_serde() {
        let cpu = presets::xscale();
        let plan = FaultPlan::generate(11, 0.7, horizon(), &cpu);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
