//! Energy storage (battery / supercapacitor) models.
//!
//! The paper assumes *ideal* storage (§3.2): rechargeable to capacity
//! `C`, fully dischargeable to zero, with surplus harvested energy
//! discarded once full (eq. 1, 3, 4). [`StorageSpec`] also supports
//! non-ideal extensions — charge/discharge efficiency and a constant
//! leakage drain — used by the ablation benchmarks.
//!
//! Evolution is computed *exactly*: with a piecewise-constant harvest
//! profile and a constant CPU load, the stored level is piecewise-linear,
//! so every full/empty crossing is solved in closed form by
//! [`StorageSpec::advance`] and [`StorageSpec::first_crossing`].

use harvest_sim::piecewise::{Cursor, PiecewiseConstant, Segment};
use harvest_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Levels within this absolute distance of a clamp boundary are snapped
/// onto it — energies in this workspace are O(1)..O(10⁴), so a 1e-9
/// sliver is far below any physically meaningful amount and snapping it
/// prevents float-underflow spin near the boundaries.
const BOUNDARY_SNAP: f64 = 1e-9;

#[inline]
fn snap(level: f64, capacity: f64) -> f64 {
    let level = level.clamp(0.0, capacity);
    if level < BOUNDARY_SNAP {
        0.0
    } else if capacity - level < BOUNDARY_SNAP {
        capacity
    } else {
        level
    }
}

/// Static parameters of an energy storage element.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageSpec {
    capacity: f64,
    charge_efficiency: f64,
    discharge_efficiency: f64,
    leakage_power: f64,
}

/// Result of advancing the stored level across a time window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdvanceReport {
    /// Stored level at the end of the window.
    pub level: f64,
    /// Harvested energy discarded because the storage was full (measured
    /// at the storage terminals, i.e. after charge efficiency).
    pub overflow: f64,
    /// Energy the load demanded but the storage could not supply because
    /// it was empty. A correctly driven simulator pre-computes depletion
    /// crossings and never lets this become non-zero while running.
    pub deficit: f64,
    /// Energy actually delivered to the load over the window.
    pub delivered: f64,
    /// The level spent part of the window pinned at zero (depleted, or
    /// chattering there with the load still served). Observability only.
    pub clamped_empty: bool,
    /// The level spent part of the window pinned at capacity (surplus
    /// harvest discarded). Observability only.
    pub clamped_full: bool,
}

impl StorageSpec {
    /// Ideal storage of the given capacity (paper §3.2): unit
    /// efficiencies, no leakage.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative or NaN (`f64::INFINITY` is
    /// allowed and models the §4.3 infinite-storage thought experiment).
    pub fn ideal(capacity: f64) -> Self {
        assert!(
            !capacity.is_nan() && capacity >= 0.0,
            "capacity must be >= 0"
        );
        StorageSpec {
            capacity,
            charge_efficiency: 1.0,
            discharge_efficiency: 1.0,
            leakage_power: 0.0,
        }
    }

    /// Unbounded ideal storage — the §4.3 special case under which
    /// EA-DVFS degenerates to plain EDF.
    pub fn infinite() -> Self {
        StorageSpec::ideal(f64::INFINITY)
    }

    /// Sets the charge efficiency (fraction of harvested energy that
    /// actually enters the store).
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `(0, 1]`.
    pub fn with_charge_efficiency(mut self, eta: f64) -> Self {
        assert!(
            eta > 0.0 && eta <= 1.0,
            "charge efficiency must lie in (0, 1]"
        );
        self.charge_efficiency = eta;
        self
    }

    /// Sets the discharge efficiency (the store drains `e/eta` to supply
    /// `e` to the load).
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `(0, 1]`.
    pub fn with_discharge_efficiency(mut self, eta: f64) -> Self {
        assert!(
            eta > 0.0 && eta <= 1.0,
            "discharge efficiency must lie in (0, 1]"
        );
        self.discharge_efficiency = eta;
        self
    }

    /// Sets a constant leakage drain (power), active whenever the store
    /// is non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or not finite.
    pub fn with_leakage_power(mut self, power: f64) -> Self {
        assert!(
            power.is_finite() && power >= 0.0,
            "leakage power must be finite and >= 0"
        );
        self.leakage_power = power;
        self
    }

    /// Derates the capacity by a fade fraction (`0.1` → 10% of the
    /// nameplate capacity is gone). A no-op for infinite storage and for
    /// `fade == 0`, so fault-free specs are preserved bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `fade` is outside `[0, 1)`.
    pub fn with_capacity_fade(mut self, fade: f64) -> Self {
        assert!(
            fade.is_finite() && (0.0..1.0).contains(&fade),
            "capacity fade must lie in [0, 1)"
        );
        if fade > 0.0 && !self.is_infinite() {
            self.capacity *= 1.0 - fade;
        }
        self
    }

    /// Storage capacity `C`.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Charge efficiency.
    pub fn charge_efficiency(&self) -> f64 {
        self.charge_efficiency
    }

    /// Discharge efficiency.
    pub fn discharge_efficiency(&self) -> f64 {
        self.discharge_efficiency
    }

    /// Leakage power.
    pub fn leakage_power(&self) -> f64 {
        self.leakage_power
    }

    /// `true` for unbounded storage.
    pub fn is_infinite(&self) -> bool {
        self.capacity.is_infinite()
    }

    /// `true` if the spec is the paper's ideal model.
    pub fn is_ideal(&self) -> bool {
        self.charge_efficiency == 1.0
            && self.discharge_efficiency == 1.0
            && self.leakage_power == 0.0
    }

    /// The storage-side draw serving `load`. Division by a unity
    /// efficiency is the IEEE identity, so the ideal-storage hot path
    /// skips the divide outright — same value, bit for bit.
    #[inline]
    fn draw(&self, load: f64) -> f64 {
        if self.discharge_efficiency == 1.0 {
            load
        } else {
            load / self.discharge_efficiency
        }
    }

    /// Net rate of change of the stored level when harvesting `harvest`
    /// and supplying `load` to the CPU, ignoring clamping.
    #[inline]
    pub fn net_rate(&self, harvest: f64, load: f64) -> f64 {
        self.charge_efficiency * harvest - self.draw(load) - self.leakage_power
    }

    /// Evolves the level from `level` across `[from, to)` under `profile`
    /// harvest and constant `load`, clamping to `[0, capacity]`, and
    /// accounting overflow / deficit / delivered energy exactly.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, capacity]`, `load` is negative,
    /// or `to < from`.
    pub fn advance(
        &self,
        level: f64,
        profile: &PiecewiseConstant,
        from: SimTime,
        to: SimTime,
        load: f64,
    ) -> AdvanceReport {
        self.advance_with(&mut Cursor::default(), level, profile, from, to, load)
    }

    /// Like [`Self::advance`], threading a profile [`Cursor`] across
    /// calls. A simulator advancing storage across consecutive windows
    /// keeps each segment lookup amortized `O(1)` instead of paying a
    /// binary search per call; a uniform-grid profile is walked by direct
    /// indexing and needs no cursor (see
    /// [`PiecewiseConstant::for_each_segment_with`]). The report is
    /// bitwise-identical to [`Self::advance`] for any cursor state.
    #[allow(clippy::too_many_arguments)] // one scalar per physical input; the call sites read clearly
    pub fn advance_with(
        &self,
        cur: &mut Cursor,
        level: f64,
        profile: &PiecewiseConstant,
        from: SimTime,
        to: SimTime,
        load: f64,
    ) -> AdvanceReport {
        assert!(
            level >= 0.0 && level <= self.capacity,
            "level {level} outside [0, capacity]"
        );
        assert!(
            load >= 0.0 && load.is_finite(),
            "load must be finite and >= 0"
        );
        assert!(to >= from, "window must run forward");
        let mut report = AdvanceReport {
            level,
            ..AdvanceReport::default()
        };
        profile.for_each_segment_with(cur, from, to, |seg| {
            self.advance_constant(&mut report, seg.value, seg.duration().as_units(), load);
        });
        report
    }

    /// One constant-rate stretch; splits at internal clamp crossings.
    /// This is the per-segment kernel behind [`Self::advance_with`] and
    /// [`Storage::advance_with_each`].
    ///
    /// Level dynamics: `level' = η_c·harvest − load/η_d − leak` with
    /// clamping to `[0, capacity]`. Leakage applies only while the store
    /// is non-empty; if the net input exceeds the load but not the load
    /// plus leakage, the level chatters at zero, which in the fluid limit
    /// means it stays pinned there with the load fully served.
    pub fn advance_constant(
        &self,
        report: &mut AdvanceReport,
        harvest: f64,
        mut dt: f64,
        load: f64,
    ) {
        debug_assert!(dt >= 0.0);
        let input = self.charge_efficiency * harvest;
        let draw = self.draw(load);
        // A constant stretch settles after at most one clamp: move, then
        // pinned. Two iterations suffice.
        while dt > 0.0 {
            if report.level <= 0.0 && input - draw <= 0.0 {
                // Pinned empty with true shortfall: the load is served
                // only through the direct harvest path.
                let served = (input * self.discharge_efficiency).min(load);
                report.delivered += served * dt;
                report.deficit += (load - served) * dt;
                report.level = 0.0;
                report.clamped_empty = true;
                return;
            }
            let rate = input - draw - self.leakage_power;
            if report.level <= 0.0 && rate <= 0.0 {
                // Chatter regime: surplus over the load is eaten by
                // leakage the instant it is stored; level stays zero but
                // the load is fully served.
                report.delivered += load * dt;
                report.level = 0.0;
                report.clamped_empty = true;
                return;
            }
            if report.level >= self.capacity && rate >= 0.0 {
                // Pinned full: the net surplus is discarded.
                report.overflow += rate * dt;
                report.delivered += load * dt;
                report.clamped_full = true;
                return;
            }
            if rate == 0.0 {
                report.delivered += load * dt;
                return;
            }
            // Strictly moving; at most one clamp ahead. Guard against
            // float underflow when the level sits a few ulps off a
            // boundary: snap instead of spinning.
            let until_clamp = if rate > 0.0 {
                (self.capacity - report.level) / rate
            } else {
                report.level / -rate
            };
            if until_clamp <= BOUNDARY_SNAP / rate.abs() {
                report.level = if rate > 0.0 { self.capacity } else { 0.0 };
                continue;
            }
            let step = dt.min(until_clamp);
            report.level = snap(report.level + rate * step, self.capacity);
            report.delivered += load * step;
            dt -= step;
        }
    }

    /// Earliest instant in `[from, horizon)` at which the level first
    /// reaches `target` under `profile` harvest and constant `load`
    /// (storage clamped along the way). `None` if it never does.
    ///
    /// For ideal storage this is a thin wrapper over the exact
    /// piecewise-linear solve; non-ideal specs account for efficiency and
    /// leakage.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `target` fall outside `[0, capacity]`.
    pub fn first_crossing(
        &self,
        level: f64,
        target: f64,
        profile: &PiecewiseConstant,
        from: SimTime,
        horizon: SimTime,
        load: f64,
    ) -> Option<SimTime> {
        self.first_crossing_with(
            &mut Cursor::default(),
            level,
            target,
            profile,
            from,
            horizon,
            load,
        )
    }

    /// Like [`Self::first_crossing`], threading a profile [`Cursor`]
    /// across calls (see [`Self::advance_with`]). The answer is identical
    /// for any cursor state.
    #[allow(clippy::too_many_arguments)] // one scalar per physical input; the call sites read clearly
    pub fn first_crossing_with(
        &self,
        pcur: &mut Cursor,
        level: f64,
        target: f64,
        profile: &PiecewiseConstant,
        from: SimTime,
        horizon: SimTime,
        load: f64,
    ) -> Option<SimTime> {
        assert!(
            level >= 0.0 && level <= self.capacity,
            "level outside [0, capacity]"
        );
        assert!(
            target >= 0.0 && target <= self.capacity,
            "target outside [0, capacity]"
        );
        if level == target {
            return Some(from);
        }
        // Ideal storage: the level follows the clamped accumulation of
        // `harvest − load` exactly, so the kernel's prefix-sum crossing
        // solver applies directly (O(log) on monotone windows). Non-ideal
        // specs fall through to the mirrored segment scan.
        if self.is_ideal() && self.capacity.is_finite() {
            return profile.first_accumulation_crossing_with(
                pcur,
                from,
                horizon,
                level,
                -load,
                self.capacity,
                target,
            );
        }
        let mut cur = level;
        let mut segs = profile.segments_between_with(*pcur, from, horizon);
        let result = 'scan: {
            for seg in segs.by_ref() {
                let input = self.charge_efficiency * seg.value;
                let draw = self.draw(load);
                let mut t = seg.start.as_units();
                let end = seg.end.as_units();
                // Mirror `advance_constant`: at most one moving phase and
                // one pinned phase per segment.
                while t < end {
                    let pinned_empty = cur <= 0.0
                        && (input - draw <= 0.0 || input - draw - self.leakage_power <= 0.0);
                    let rate = input - draw - self.leakage_power;
                    let pinned_full = cur >= self.capacity && rate >= 0.0;
                    if pinned_empty || pinned_full || rate == 0.0 {
                        break; // level holds for the rest of the segment
                    }
                    let until_clamp = if rate > 0.0 {
                        (self.capacity - cur) / rate
                    } else {
                        cur / -rate
                    };
                    if until_clamp <= BOUNDARY_SNAP / rate.abs() {
                        // A few ulps from the boundary: snap; the pinned
                        // check above ends the phase next iteration.
                        cur = if rate > 0.0 { self.capacity } else { 0.0 };
                        if cur == target {
                            break 'scan Some(
                                SimTime::from_units_ceil(t).max(seg.start).min(seg.end),
                            );
                        }
                        continue;
                    }
                    let step = (end - t).min(until_clamp);
                    let crosses = if rate > 0.0 {
                        target > cur && target <= cur + rate * step + 1e-15
                    } else {
                        target < cur && target >= cur + rate * step - 1e-15
                    };
                    if crosses {
                        let dt = (target - cur) / rate;
                        let hit = SimTime::from_units_ceil(t + dt);
                        break 'scan Some(hit.max(seg.start).min(seg.end));
                    }
                    cur = snap(cur + rate * step, self.capacity);
                    t += step;
                }
            }
            None
        };
        *pcur = segs.state();
        result
    }
}

/// Live storage state: a [`StorageSpec`] plus the current level.
///
/// # Examples
///
/// ```
/// use harvest_energy::storage::{Storage, StorageSpec};
///
/// let mut s = Storage::full(StorageSpec::ideal(100.0));
/// assert_eq!(s.level(), 100.0);
/// s.set_level(40.0);
/// assert_eq!(s.headroom(), 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Storage {
    spec: StorageSpec,
    level: f64,
}

impl Storage {
    /// Creates storage at the given initial level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, capacity]`.
    pub fn new(spec: StorageSpec, level: f64) -> Self {
        assert!(
            level >= 0.0 && level <= spec.capacity(),
            "initial level {level} outside [0, {}]",
            spec.capacity()
        );
        Storage { spec, level }
    }

    /// Creates storage filled to capacity (the paper starts every
    /// simulation with a full store, §5.1). Infinite-capacity specs
    /// start at level 0 — with unbounded storage the level never
    /// constrains anything, and 0 keeps the arithmetic finite.
    pub fn full(spec: StorageSpec) -> Self {
        let level = if spec.is_infinite() {
            0.0
        } else {
            spec.capacity()
        };
        Storage { spec, level }
    }

    /// The static parameters.
    pub fn spec(&self) -> &StorageSpec {
        &self.spec
    }

    /// Current stored energy `EC(t)`.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Remaining room before the store is full (infinite for unbounded
    /// storage).
    pub fn headroom(&self) -> f64 {
        self.spec.capacity() - self.level
    }

    /// Overwrites the level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, capacity]`.
    pub fn set_level(&mut self, level: f64) {
        assert!(
            level >= 0.0 && level <= self.spec.capacity(),
            "level {level} outside [0, {}]",
            self.spec.capacity()
        );
        self.level = level;
    }

    /// Advances the level across `[from, to)` (see
    /// [`StorageSpec::advance`]) and returns the report.
    pub fn advance(
        &mut self,
        profile: &PiecewiseConstant,
        from: SimTime,
        to: SimTime,
        load: f64,
    ) -> AdvanceReport {
        self.advance_with(&mut Cursor::default(), profile, from, to, load)
    }

    /// Cursor-threaded variant of [`Self::advance`] (see
    /// [`StorageSpec::advance_with`]).
    pub fn advance_with(
        &mut self,
        cur: &mut Cursor,
        profile: &PiecewiseConstant,
        from: SimTime,
        to: SimTime,
        load: f64,
    ) -> AdvanceReport {
        let report = self
            .spec
            .advance_with(cur, self.level, profile, from, to, load);
        self.level = report.level;
        report
    }

    /// [`Self::advance_with`] that also hands every clipped segment of
    /// the walk to `each`, so a caller that needs the same segments for
    /// its own accounting (harvest integral, predictor observations)
    /// shares the single profile walk instead of re-clipping the window
    /// with a second cursor. Each accumulator still sees exactly the op
    /// sequence the separate walks would have produced — the advance
    /// arithmetic and the callback touch disjoint state — so results
    /// are bit-identical to `advance_with` plus a manual
    /// [`PiecewiseConstant::segments_between_with`] loop.
    pub fn advance_with_each(
        &mut self,
        cur: &mut Cursor,
        profile: &PiecewiseConstant,
        from: SimTime,
        to: SimTime,
        load: f64,
        mut each: impl FnMut(Segment),
    ) -> AdvanceReport {
        let mut report = AdvanceReport {
            level: self.level,
            ..AdvanceReport::default()
        };
        let spec = &self.spec;
        profile.for_each_segment_with(cur, from, to, |seg| {
            spec.advance_constant(&mut report, seg.value, seg.duration().as_units(), load);
            each(seg);
        });
        self.level = report.level;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::piecewise::Extension;
    use harvest_sim::time::SimDuration;

    fn u(x: i64) -> SimTime {
        SimTime::from_whole_units(x)
    }

    fn profile(vals: Vec<f64>) -> PiecewiseConstant {
        PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_whole_units(10),
            vals,
            Extension::Hold,
        )
        .unwrap()
    }

    #[test]
    fn idle_charging_accumulates_exactly() {
        let spec = StorageSpec::ideal(100.0);
        let r = spec.advance(10.0, &profile(vec![2.0]), u(0), u(10), 0.0);
        assert_eq!(r.level, 30.0);
        assert_eq!(r.overflow, 0.0);
        assert_eq!(r.deficit, 0.0);
        assert!(!r.clamped_empty && !r.clamped_full);
    }

    #[test]
    fn clamp_flags_mark_boundary_windows() {
        let spec = StorageSpec::ideal(10.0);
        // Charges 2.0/unit from half full: pins at capacity mid-window.
        let full = spec.advance(5.0, &profile(vec![2.0]), u(0), u(10), 0.0);
        assert_eq!(full.level, 10.0);
        assert!(full.clamped_full);
        assert!(!full.clamped_empty);
        // Drains under zero harvest: pins at empty mid-window.
        let empty = spec.advance(5.0, &profile(vec![0.0]), u(0), u(10), 1.0);
        assert_eq!(empty.level, 0.0);
        assert!(empty.clamped_empty);
        assert!(!empty.clamped_full);
    }

    #[test]
    fn overflow_is_discarded_and_accounted() {
        let spec = StorageSpec::ideal(20.0);
        // Start at 15, harvest 2.0 for 10 units: fills at t=2.5,
        // overflow 2.0 * 7.5 = 15.
        let r = spec.advance(15.0, &profile(vec![2.0]), u(0), u(10), 0.0);
        assert_eq!(r.level, 20.0);
        assert!((r.overflow - 15.0).abs() < 1e-9);
    }

    #[test]
    fn discharge_under_load() {
        let spec = StorageSpec::ideal(100.0);
        // harvest 0.5, load 8 → net −7.5 over 2 units = −15.
        let r = spec.advance(50.0, &profile(vec![0.5]), u(0), u(2), 8.0);
        assert!((r.level - 35.0).abs() < 1e-9);
        assert!((r.delivered - 16.0).abs() < 1e-9);
        assert_eq!(r.deficit, 0.0);
    }

    #[test]
    fn depletion_registers_deficit() {
        let spec = StorageSpec::ideal(100.0);
        // level 10, harvest 0, load 5 → empty at t=2; 3 more units of
        // load unserved → deficit 15.
        let r = spec.advance(10.0, &profile(vec![0.0]), u(0), u(5), 5.0);
        assert_eq!(r.level, 0.0);
        assert!((r.deficit - 15.0).abs() < 1e-9);
        assert!((r.delivered - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_store_serves_direct_harvest_path() {
        let spec = StorageSpec::ideal(100.0);
        // Empty store, harvest 2, load 5: 2 delivered directly, 3 deficit
        // per unit time.
        let r = spec.advance(0.0, &profile(vec![2.0]), u(0), u(10), 5.0);
        assert_eq!(r.level, 0.0);
        assert!((r.delivered - 20.0).abs() < 1e-9);
        assert!((r.deficit - 30.0).abs() < 1e-9);
    }

    #[test]
    fn multi_segment_advance() {
        let spec = StorageSpec::ideal(1000.0);
        // Segments: 2.0 on [0,10), 0.0 on [10,20). Load 1.
        let r = spec.advance(5.0, &profile(vec![2.0, 0.0]), u(0), u(20), 1.0);
        // [0,10): +1/unit → 15. [10,20): −1/unit → 5.
        assert!((r.level - 5.0).abs() < 1e-9);
    }

    #[test]
    fn charge_efficiency_taxes_input() {
        let spec = StorageSpec::ideal(100.0).with_charge_efficiency(0.5);
        let r = spec.advance(0.0, &profile(vec![4.0]), u(0), u(10), 0.0);
        assert!((r.level - 20.0).abs() < 1e-9);
    }

    #[test]
    fn discharge_efficiency_taxes_output() {
        let spec = StorageSpec::ideal(100.0).with_discharge_efficiency(0.5);
        // Supplying load 2 drains 4/unit.
        let r = spec.advance(40.0, &profile(vec![0.0]), u(0), u(5), 2.0);
        assert!((r.level - 20.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_drains_but_stops_at_zero() {
        let spec = StorageSpec::ideal(100.0).with_leakage_power(1.0);
        let r = spec.advance(5.0, &profile(vec![0.0]), u(0), u(10), 0.0);
        assert_eq!(r.level, 0.0);
        assert_eq!(r.deficit, 0.0, "no load, no deficit");
    }

    #[test]
    fn first_crossing_depletion() {
        let spec = StorageSpec::ideal(100.0);
        // level 16, harvest 0.5, load 8 → net −7.5; zero at 16/7.5 ≈ 2.1333.
        let t = spec
            .first_crossing(16.0, 0.0, &profile(vec![0.5]), u(0), u(100), 8.0)
            .unwrap();
        assert!((t.as_units() - 16.0 / 7.5).abs() < 1e-5);
    }

    #[test]
    fn first_crossing_fill() {
        let spec = StorageSpec::ideal(30.0);
        let t = spec
            .first_crossing(10.0, 30.0, &profile(vec![2.0]), u(0), u(100), 0.0)
            .unwrap();
        assert_eq!(t, u(10));
    }

    #[test]
    fn first_crossing_not_reached() {
        let spec = StorageSpec::ideal(100.0);
        assert_eq!(
            spec.first_crossing(10.0, 50.0, &profile(vec![0.0]), u(0), u(100), 0.0),
            None
        );
    }

    #[test]
    fn infinite_storage_never_overflows() {
        let spec = StorageSpec::infinite();
        let r = spec.advance(0.0, &profile(vec![5.0]), u(0), u(10), 0.0);
        assert_eq!(r.level, 50.0);
        assert_eq!(r.overflow, 0.0);
        assert!(spec.is_infinite());
    }

    #[test]
    fn storage_wrapper_tracks_level() {
        let mut s = Storage::full(StorageSpec::ideal(50.0));
        assert_eq!(s.level(), 50.0);
        let r = s.advance(&profile(vec![0.0]), u(0), u(2), 5.0);
        assert_eq!(r.level, 40.0);
        assert_eq!(s.level(), 40.0);
        assert_eq!(s.headroom(), 10.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn storage_rejects_over_capacity_level() {
        let _ = Storage::new(StorageSpec::ideal(10.0), 11.0);
    }

    #[test]
    fn ideal_flag() {
        assert!(StorageSpec::ideal(10.0).is_ideal());
        assert!(!StorageSpec::ideal(10.0).with_leakage_power(0.1).is_ideal());
    }

    #[test]
    fn grid_advance_matches_cursor_walk() {
        // `advance_with_each` walks a uniform grid by direct indexing.
        // Its report and the segments it hands out must equal the cursor
        // walk (`segments_between` + `advance_constant`) bit for bit.
        let spec = StorageSpec::ideal(50.0);
        let small = profile(vec![2.0, 0.0, 3.5, 0.25, 1.0]);
        // Offsets near multiples of 3e17 ticks lose bits in the f64
        // estimate of the segment index, so the exact division runs.
        let dt = 300_000_000_000_000_000i64;
        let huge = PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_ticks(dt),
            vec![3e-10, 0.0, 1e-10, 2e-10],
            Extension::Hold,
        )
        .unwrap();
        let t = SimTime::from_ticks;
        let estimate_misses = [dt - 1, 2 * dt - 1, 3 * dt - 1, 3 * dt + 1]
            .iter()
            .any(|&n| ((n as f64) * (1.0 / dt as f64)) as i64 != n / dt);
        assert!(estimate_misses, "no offset reaches the exact division");
        // (profile, from, to, level, load)
        let cases = [
            (&small, u(-5), u(15), 20.0, 1.0),  // starts before the domain
            (&small, u(35), u(70), 20.0, 1.0),  // straddles its end
            (&small, u(10), u(30), 20.0, 1.0),  // endpoints on breakpoints
            (&small, u(-20), u(-5), 20.0, 0.5), // wholly before
            (&small, u(60), u(90), 20.0, 0.5),  // wholly after
            (&small, u(0), u(50), 45.0, 0.0),   // clamps full
            (&small, u(0), u(50), 5.0, 4.0),    // clamps empty
            (&small, u(7), u(7), 5.0, 4.0),     // empty window
            (&huge, t(dt - 1), t(3 * dt + 1), 10.0, 0.0),
            (&huge, t(2 * dt - 1), t(5 * dt), 10.0, 1e-10),
        ];
        let (mut saw_full, mut saw_empty) = (false, false);
        for (i, &(f, from, to, level, load)) in cases.iter().enumerate() {
            assert!(f.uniform_grid().is_some());
            let mut want = AdvanceReport {
                level,
                ..AdvanceReport::default()
            };
            let want_segs: Vec<Segment> = f.segments_between(from, to).collect();
            for seg in &want_segs {
                spec.advance_constant(&mut want, seg.value, seg.duration().as_units(), load);
            }
            let mut storage = Storage::new(spec, level);
            let mut segs = Vec::new();
            let got = storage.advance_with_each(&mut Cursor::default(), f, from, to, load, |seg| {
                segs.push(seg)
            });
            let plain = spec.advance_with(&mut Cursor::default(), level, f, from, to, load);
            assert_eq!(segs, want_segs, "case {i}: segments");
            for r in [got, plain] {
                assert_eq!(r.level.to_bits(), want.level.to_bits(), "case {i}: level");
                assert_eq!(r.overflow.to_bits(), want.overflow.to_bits(), "case {i}");
                assert_eq!(r.deficit.to_bits(), want.deficit.to_bits(), "case {i}");
                assert_eq!(r.delivered.to_bits(), want.delivered.to_bits(), "case {i}");
                assert_eq!(r.clamped_empty, want.clamped_empty, "case {i}");
                assert_eq!(r.clamped_full, want.clamped_full, "case {i}");
            }
            assert_eq!(storage.level().to_bits(), want.level.to_bits());
            saw_full |= want.clamped_full;
            saw_empty |= want.clamped_empty;
        }
        assert!(saw_full && saw_empty, "both clamp boundaries exercised");
    }

    #[test]
    fn paper_motivational_numbers() {
        // §2: EC(0)=24, Ps=0.5 constant, Pmax=8. LSA runs τ1 over
        // [12,16): energy 24 + 12·0.5 (idle charge) … capacity large.
        let spec = StorageSpec::ideal(1_000.0);
        let prof = profile(vec![0.5, 0.5, 0.5]);
        // Idle [0,12): level 24 + 6 = 30.
        let r1 = spec.advance(24.0, &prof, u(0), u(12), 0.0);
        assert!((r1.level - 30.0).abs() < 1e-9);
        // Run [12,16) at 8: net −7.5 × 4 = −30 → exactly 0 (paper:
        // "depletes all energy exactly at time 16").
        let r2 = spec.advance(r1.level, &prof, u(12), u(16), 8.0);
        assert!(r2.level.abs() < 1e-9);
        assert_eq!(r2.deficit, 0.0);
    }
}
