//! The DVFS processor model.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::level::FrequencyLevel;

/// Error constructing a [`CpuModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuModelError {
    /// No operating points were supplied.
    NoLevels,
    /// Frequencies were not strictly increasing.
    FrequenciesNotIncreasing {
        /// Index of the first offending level.
        index: usize,
    },
    /// Powers were not strictly increasing with frequency (a level that
    /// is both slower and hungrier would never be selected, so it is
    /// rejected as a configuration mistake).
    PowersNotIncreasing {
        /// Index of the first offending level.
        index: usize,
    },
}

impl fmt::Display for CpuModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuModelError::NoLevels => write!(f, "processor needs at least one frequency level"),
            CpuModelError::FrequenciesNotIncreasing { index } => {
                write!(
                    f,
                    "frequencies must be strictly increasing (violated at level {index})"
                )
            }
            CpuModelError::PowersNotIncreasing { index } => {
                write!(
                    f,
                    "powers must be strictly increasing (violated at level {index})"
                )
            }
        }
    }
}

impl std::error::Error for CpuModelError {}

/// Index of an operating point within a [`CpuModel`], ordered from the
/// slowest (`0`) to the fastest level.
pub type LevelIndex = usize;

/// A DVFS-enabled processor with `N` discrete operating points
/// (paper §3.3): `f_min = f_1 < … < f_N = f_max`, with normalized speeds
/// `S_n = f_n / f_max` and active powers `P_1 < … < P_N = P_max`.
///
/// Work is measured in *full-speed time units*: a job with worst-case
/// execution time `w` at `f_max` needs `w / S_n` wall-clock units at
/// level `n`.
///
/// # Examples
///
/// ```
/// use harvest_cpu::{CpuModel, FrequencyLevel};
///
/// let cpu = CpuModel::new(vec![
///     FrequencyLevel::new(500.0, 8.0 / 3.0),
///     FrequencyLevel::new(1000.0, 8.0),
/// ])?;
/// assert_eq!(cpu.speed(0), 0.5);
/// assert_eq!(cpu.max_power(), 8.0);
/// // Minimum level that finishes 4 work units in a 16-unit window:
/// assert_eq!(cpu.min_feasible_level(4.0, 16.0), Some(0));
/// // …but 4 work units in 5 units need full speed:
/// assert_eq!(cpu.min_feasible_level(4.0, 5.0), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    levels: Vec<FrequencyLevel>,
    switch_energy: f64,
    /// Bitmask of levels currently unavailable to the min-frequency
    /// search (fault injection); bit `n` set locks level `n`. The
    /// fastest level can never be locked, so full-speed fallback paths
    /// stay valid.
    locked_mask: u64,
}

impl CpuModel {
    /// Creates a model from operating points sorted by frequency.
    ///
    /// An idle processor draws no power, and a frequency switch costs no
    /// energy unless [`with_switch_energy`](Self::with_switch_energy)
    /// sets one — the paper's assumptions (§5.1: "the overhead from
    /// voltage switching is assumed to be negligible").
    ///
    /// # Errors
    ///
    /// Returns `CpuModelError` if the list is empty or not strictly
    /// increasing in both frequency and power.
    pub fn new(levels: Vec<FrequencyLevel>) -> Result<Self, CpuModelError> {
        if levels.is_empty() {
            return Err(CpuModelError::NoLevels);
        }
        for (i, w) in levels.windows(2).enumerate() {
            if w[0].frequency >= w[1].frequency {
                return Err(CpuModelError::FrequenciesNotIncreasing { index: i + 1 });
            }
            if w[0].power >= w[1].power {
                return Err(CpuModelError::PowersNotIncreasing { index: i + 1 });
            }
        }
        Ok(CpuModel {
            levels,
            switch_energy: 0.0,
            locked_mask: 0,
        })
    }

    /// Sets a fixed energy cost per frequency switch. A switch takes no
    /// time: the closed-loop simulator models none.
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative or not finite.
    pub fn with_switch_energy(mut self, energy: f64) -> Self {
        assert!(
            energy.is_finite() && energy >= 0.0,
            "switch energy must be finite and >= 0"
        );
        self.switch_energy = energy;
        self
    }

    /// Number of operating points `N`.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Index of the fastest level.
    pub fn max_level(&self) -> LevelIndex {
        self.levels.len() - 1
    }

    /// Normalized speed `S_n = f_n / f_max` of level `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn speed(&self, n: LevelIndex) -> f64 {
        self.levels[n].frequency / self.levels[self.max_level()].frequency
    }

    /// Active power `P_n` of level `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn power(&self, n: LevelIndex) -> f64 {
        self.levels[n].power
    }

    /// Maximum power `P_max` (at `f_max`).
    pub fn max_power(&self) -> f64 {
        self.levels[self.max_level()].power
    }

    /// Per-switch energy overhead.
    pub fn switch_energy(&self) -> f64 {
        self.switch_energy
    }

    /// Bitmask of locked (fault-unavailable) levels.
    pub fn locked_mask(&self) -> u64 {
        self.locked_mask
    }

    /// `true` if level `n` is currently locked out by fault injection.
    pub(crate) fn is_level_locked(&self, n: LevelIndex) -> bool {
        n < 64 && self.locked_mask & (1 << n) != 0
    }

    /// Replaces the lockout mask (fault injection toggles this at
    /// window edges). Bits above the level range are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the mask would lock the fastest level — that would
    /// leave full-speed fallback paths with no valid operating point.
    pub fn set_locked_mask(&mut self, mask: u64) {
        let max = self.max_level();
        assert!(
            max >= 64 || mask & (1 << max) == 0,
            "the fastest level cannot be locked out"
        );
        self.locked_mask = mask;
    }

    /// Wall-clock time to execute `work` full-speed units at level `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `work` is negative.
    pub fn execution_time(&self, work: f64, n: LevelIndex) -> f64 {
        assert!(work >= 0.0, "work must be non-negative");
        work / self.speed(n)
    }

    /// Energy to execute `work` full-speed units at level `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `work` is negative.
    pub fn execution_energy(&self, work: f64, n: LevelIndex) -> f64 {
        self.levels[n].energy_for_work(work, self.speed(n))
    }

    /// The slowest level that can still complete `work` full-speed units
    /// within a window of `window` time units — the minimization of
    /// paper eq. 6 (`w/S_n ≤ d − a`). `None` if even full speed cannot.
    ///
    /// Levels locked out by fault injection (see [`set_locked_mask`])
    /// are skipped, so a lockout forces the search onto the next faster
    /// available point.
    ///
    /// [`set_locked_mask`]: CpuModel::set_locked_mask
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative.
    pub fn min_feasible_level(&self, work: f64, window: f64) -> Option<LevelIndex> {
        assert!(work >= 0.0, "work must be non-negative");
        if window < 0.0 {
            return None;
        }
        // Guard against float dust: a window equal to w/S within 1e-12
        // relative counts as feasible.
        let feasible = |n: LevelIndex| {
            let need = self.execution_time(work, n);
            need <= window || (need - window).abs() <= 1e-12 * need.max(1.0)
        };
        (0..self.levels.len()).find(|&n| !self.is_level_locked(n) && feasible(n))
    }

    /// Energy saved by running `work` at level `n` instead of full speed
    /// (non-negative whenever the power curve is convex in speed).
    pub fn stretch_saving(&self, work: f64, n: LevelIndex) -> f64 {
        self.execution_energy(work, self.max_level()) - self.execution_energy(work, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_speed() -> CpuModel {
        CpuModel::new(vec![
            FrequencyLevel::new(500.0, 8.0 / 3.0),
            FrequencyLevel::new(1000.0, 8.0),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(CpuModel::new(vec![]), Err(CpuModelError::NoLevels));
    }

    #[test]
    fn rejects_unsorted_frequencies() {
        let err = CpuModel::new(vec![
            FrequencyLevel::new(1000.0, 1.0),
            FrequencyLevel::new(500.0, 2.0),
        ]);
        assert_eq!(
            err,
            Err(CpuModelError::FrequenciesNotIncreasing { index: 1 })
        );
    }

    #[test]
    fn rejects_non_monotone_power() {
        let err = CpuModel::new(vec![
            FrequencyLevel::new(500.0, 2.0),
            FrequencyLevel::new(1000.0, 2.0),
        ]);
        assert_eq!(err, Err(CpuModelError::PowersNotIncreasing { index: 1 }));
    }

    #[test]
    fn speeds_normalize_to_fmax() {
        let cpu = two_speed();
        assert_eq!(cpu.speed(0), 0.5);
        assert_eq!(cpu.speed(1), 1.0);
        assert_eq!(cpu.max_level(), 1);
        assert_eq!(cpu.level_count(), 2);
    }

    #[test]
    fn execution_time_and_energy() {
        let cpu = two_speed();
        // §2 example: τ1 (w=4) at half speed takes 8 units, costs 8·8/3.
        assert_eq!(cpu.execution_time(4.0, 0), 8.0);
        assert!((cpu.execution_energy(4.0, 0) - 8.0 * 8.0 / 3.0).abs() < 1e-12);
        // At full speed: 4 units, 32 energy.
        assert_eq!(cpu.execution_time(4.0, 1), 4.0);
        assert_eq!(cpu.execution_energy(4.0, 1), 32.0);
    }

    #[test]
    fn min_feasible_level_picks_slowest() {
        let cpu = two_speed();
        assert_eq!(cpu.min_feasible_level(4.0, 16.0), Some(0));
        assert_eq!(cpu.min_feasible_level(4.0, 8.0), Some(0));
        assert_eq!(cpu.min_feasible_level(4.0, 7.9), Some(1));
        assert_eq!(cpu.min_feasible_level(4.0, 4.0), Some(1));
        assert_eq!(cpu.min_feasible_level(4.0, 3.9), None);
        assert_eq!(cpu.min_feasible_level(4.0, -1.0), None);
    }

    #[test]
    fn locked_levels_are_skipped() {
        let mut cpu = two_speed();
        assert_eq!(cpu.locked_mask(), 0);
        cpu.set_locked_mask(1);
        assert!(cpu.is_level_locked(0));
        assert!(!cpu.is_level_locked(1));
        // A window the slow level could serve is forced to full speed.
        assert_eq!(cpu.min_feasible_level(4.0, 16.0), Some(1));
        assert_eq!(cpu.min_feasible_level(4.0, 3.9), None);
        cpu.set_locked_mask(0);
        assert_eq!(cpu.min_feasible_level(4.0, 16.0), Some(0));
    }

    #[test]
    #[should_panic(expected = "fastest level")]
    fn locking_the_fastest_level_is_rejected() {
        two_speed().set_locked_mask(0b10);
    }

    #[test]
    fn min_feasible_level_tolerates_float_dust() {
        let cpu = two_speed();
        let window = 4.0 / 0.5; // exactly 8, but computed
        assert_eq!(cpu.min_feasible_level(4.0, window * (1.0 + 1e-15)), Some(0));
    }

    #[test]
    fn switch_energy_roundtrip() {
        let cpu = two_speed().with_switch_energy(0.01);
        assert_eq!(cpu.switch_energy(), 0.01);
    }

    #[test]
    fn stretch_saving_positive_for_convex_power() {
        let cpu = two_speed();
        // Full speed: 32. Half speed: 64/3 ≈ 21.3. Saving ≈ 10.7.
        let saving = cpu.stretch_saving(4.0, 0);
        assert!((saving - (32.0 - 64.0 / 3.0)).abs() < 1e-9);
        assert!(saving > 0.0);
    }

    #[test]
    fn zero_work_executes_instantly_for_free() {
        let cpu = two_speed();
        assert_eq!(cpu.execution_time(0.0, 0), 0.0);
        assert_eq!(cpu.execution_energy(0.0, 1), 0.0);
        assert_eq!(cpu.min_feasible_level(0.0, 0.0), Some(0));
    }
}
