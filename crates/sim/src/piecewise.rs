//! Piecewise-constant functions of simulated time.
//!
//! Harvest-power profiles are represented as piecewise-constant functions
//! so that every energy integral `∫ P(t) dt` and every linear crossing
//! time can be evaluated in closed form — the whole simulation stack stays
//! exact and deterministic.
//!
//! # One implementation per query
//!
//! A profile takes one of two forms. A uniform [`Extension::Hold`] grid
//! (every sampled harvest profile) stores its start and spacing and steps
//! breakpoint `k` as `start + k·dt` in integer ticks; any other profile
//! (a fault-rewritten harvest, a trace, a cyclic profile) keeps an
//! explicit breakpoint table. Only two private helpers see the
//! difference: `breakpoint`, and `locate`, which finds the segment
//! holding an instant with one strength-reduced division on a grid and a
//! binary search of the table otherwise. Every query is written once on
//! top of them, so both forms of the same function give the same bits.
//!
//! # Cost model
//!
//! Construction folds the cumulative integral over the breakpoints and
//! keeps every fourth sum, so [`PiecewiseConstant::integrate`] is a
//! difference of two closed-form antiderivative evaluations
//! (`F(t2) − F(t1)`), one `locate` and a three-step fold from the kept
//! sum each: `O(1)` on a grid, `O(log n)` on a table, however many
//! segments the window spans. Extension tails are folded in closed form: a full
//! [`Extension::Cycle`] period integrates to a constant, so cyclic
//! integrals never unroll periods.
//!
//! A walk over a window ([`PiecewiseConstant::segments_between`], which
//! the storage advance and the crossing solver's scans run) locates its
//! first segment once and then carries the segment index forward, so
//! every further step is `O(1)` on both forms.
//!
//! # Storage
//!
//! A uniform `Hold` grid keeps no breakpoint table, and no profile keeps
//! every prefix sum: a grid holds `n` values and `⌊n/4⌋ + 1` prefix sums
//! and nothing else per segment. A sum that is not kept is rebuilt from
//! the kept one before it with the construction's own steps, so it has
//! the bits the full table had. Equality and the serialized form list
//! every breakpoint on both forms.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime, TICKS_PER_UNIT};

/// How a [`PiecewiseConstant`] behaves outside the interval covered by its
/// breakpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Extension {
    /// Hold the first value before the domain and the last value after it.
    #[default]
    Hold,
    /// The profile repeats with its domain length as period.
    ///
    /// The domain must have positive length for this to be meaningful;
    /// construction enforces it.
    Cycle,
}

/// The `(min, max)` of no values.
const EMPTY_RANGE: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// `(min, max)` widened by the finite `v`. A tie keeps the earlier value,
/// so a signed zero keeps the sign it was first seen with. `f64::min`
/// leaves that choice to the compiler, which made it differently for a
/// fold and for a loop that had already checked `v`, so every
/// constructor goes through this one definition.
#[inline]
fn widen((lo, hi): (f64, f64), v: f64) -> (f64, f64) {
    (if v < lo { v } else { lo }, if v > hi { v } else { hi })
}

/// Segments per kept prefix sum: a profile keeps `F(b_k)` for every
/// `k` divisible by this stride and folds the rest on demand.
const PREFIX_STRIDE: usize = 4;

/// Grid breakpoint `k` in ticks: `start + k·dt`. Every breakpoint of a
/// grid fits the tick range, but `k·dt` alone may not (a grid that
/// starts at negative ticks); wrapping arithmetic is exact modulo 2^64,
/// so the sum is exact.
#[inline]
fn step_ticks(start: i64, k: usize, dt: i64) -> i64 {
    start.wrapping_add((k as i64).wrapping_mul(dt))
}

/// Error constructing a [`PiecewiseConstant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PiecewiseError {
    /// The breakpoint list was empty or had fewer entries than values
    /// require (`n + 1` breakpoints for `n` values).
    LengthMismatch {
        /// Number of breakpoints supplied.
        breakpoints: usize,
        /// Number of segment values supplied.
        values: usize,
    },
    /// Breakpoints were not strictly increasing.
    NotIncreasing {
        /// Index of the first offending breakpoint.
        index: usize,
    },
    /// A segment value was NaN or infinite.
    NonFiniteValue {
        /// Index of the offending value.
        index: usize,
    },
    /// [`Extension::Cycle`] requires a domain of positive length.
    EmptyCycle,
}

impl fmt::Display for PiecewiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PiecewiseError::LengthMismatch {
                breakpoints,
                values,
            } => write!(
                f,
                "piecewise function needs exactly one more breakpoint than values \
                 (got {breakpoints} breakpoints for {values} values)"
            ),
            PiecewiseError::NotIncreasing { index } => {
                write!(
                    f,
                    "breakpoints must be strictly increasing (violated at index {index})"
                )
            }
            PiecewiseError::NonFiniteValue { index } => {
                write!(f, "segment value at index {index} is not finite")
            }
            PiecewiseError::EmptyCycle => {
                write!(f, "cyclic extension requires a domain of positive length")
            }
        }
    }
}

impl std::error::Error for PiecewiseError {}

/// A piecewise-constant function `f: SimTime → f64`.
///
/// The function takes value `values[i]` on the half-open interval
/// `[breakpoints[i], breakpoints[i+1])`; behaviour outside
/// `[breakpoints[0], breakpoints[n])` is governed by the [`Extension`].
///
/// # Examples
///
/// ```
/// use harvest_sim::piecewise::{Extension, PiecewiseConstant};
/// use harvest_sim::time::SimTime;
///
/// // 2.0 on [0,10), 0.5 on [10,20), held constant outside.
/// let f = PiecewiseConstant::new(
///     vec![SimTime::ZERO, SimTime::from_whole_units(10), SimTime::from_whole_units(20)],
///     vec![2.0, 0.5],
///     Extension::Hold,
/// )?;
/// assert_eq!(f.value_at(SimTime::from_whole_units(3)), 2.0);
/// assert_eq!(f.value_at(SimTime::from_whole_units(10)), 0.5);
/// // ∫ over [5,15) = 5·2.0 + 5·0.5
/// let e = f.integrate(SimTime::from_whole_units(5), SimTime::from_whole_units(15));
/// assert!((e - 12.5).abs() < 1e-12);
/// # Ok::<(), harvest_sim::piecewise::PiecewiseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PiecewiseConstant {
    /// The explicit breakpoint table, `n + 1` entries; empty when
    /// `grid_dt != 0`, where breakpoint `k` is `start + k·grid_dt`
    /// (see [`Self::breakpoint`]).
    breakpoints: Vec<SimTime>,
    values: Vec<f64>,
    extension: Extension,
    /// `prefix[j] = F(b_{4j}) = ∫ f over [b_0, b_{4j})`: one kept sum
    /// per [`PREFIX_STRIDE`] segments, rebuilt on construction and
    /// deserialization. [`Self::prefix_at`] folds the sums in between.
    prefix: Vec<f64>,
    /// `F(b_n)`, the integral over the whole domain.
    total: f64,
    vmin: f64,
    vmax: f64,
    /// First and last breakpoint: the explicit domain `[start, end)`.
    start: SimTime,
    end: SimTime,
    /// Common breakpoint spacing in ticks when the breakpoints are
    /// uniform and the extension is [`Extension::Hold`], else 0. Detected
    /// once at construction, with its reciprocal `grid_inv_dt`, so
    /// [`Self::locate`] on a grid is one branch and no division.
    grid_dt: i64,
    grid_inv_dt: f64,
}

/// Equality is over the semantic fields only (breakpoints, values,
/// extension); the prefix table is a deterministic function of them.
impl PartialEq for PiecewiseConstant {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
            && self.extension == other.extension
            && self.breakpoint_iter().eq(other.breakpoint_iter())
    }
}

impl Serialize for PiecewiseConstant {
    fn to_value(&self) -> serde::Value {
        let breakpoints: Vec<SimTime> = self.breakpoint_iter().collect();
        serde::Value::Map(vec![
            ("breakpoints".to_string(), breakpoints.to_value()),
            ("values".to_string(), self.values.to_value()),
            ("extension".to_string(), self.extension.to_value()),
        ])
    }
}

impl Deserialize for PiecewiseConstant {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let breakpoints = serde::de_field(v, "breakpoints")?;
        let values = serde::de_field(v, "values")?;
        let extension = serde::de_field(v, "extension")?;
        PiecewiseConstant::new(breakpoints, values, extension)
            .map_err(|e| serde::DeError::msg(format!("invalid piecewise function: {e}")))
    }
}

/// One maximal constant stretch of a [`PiecewiseConstant`] restricted to a
/// query window, as yielded by [`PiecewiseConstant::segments_between`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// Function value over `[start, end)`.
    pub value: f64,
}

impl Segment {
    /// Length of the segment.
    #[inline]
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Integral of the function over this segment.
    #[inline]
    pub fn integral(&self) -> f64 {
        self.value * self.duration().as_units()
    }
}

/// How many queries each tier of
/// [`PiecewiseConstant::first_accumulation_crossing`] settled. The solver
/// adds one to exactly one field per query that reaches a tier (a query
/// answered by its trivial window is not counted); a caller that issues
/// many queries keeps one tally for all of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossingTiers {
    /// Settled by an `O(1)` reject: the rate-sign bound or the scan
    /// tier's reach bound.
    pub reject: u64,
    /// Settled on the monotone tier (tick bisection, or the prefix-table
    /// first-reach solve).
    pub bisect: u64,
    /// Settled by the clamped segment scan.
    pub scan: u64,
    /// Settled by the cyclic period-skip scan.
    pub cyclic: u64,
}

impl PiecewiseConstant {
    /// Creates a piecewise-constant function.
    ///
    /// `breakpoints` must be strictly increasing and contain exactly one
    /// more element than `values`.
    ///
    /// # Errors
    ///
    /// Returns [`PiecewiseError`] on length mismatch, non-monotone
    /// breakpoints, non-finite values, or an empty domain with
    /// [`Extension::Cycle`].
    pub fn new(
        breakpoints: Vec<SimTime>,
        values: Vec<f64>,
        extension: Extension,
    ) -> Result<Self, PiecewiseError> {
        if breakpoints.len() != values.len() + 1 || values.is_empty() {
            return Err(PiecewiseError::LengthMismatch {
                breakpoints: breakpoints.len(),
                values: values.len(),
            });
        }
        for (i, w) in breakpoints.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(PiecewiseError::NotIncreasing { index: i + 1 });
            }
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(PiecewiseError::NonFiniteValue { index });
        }
        if extension == Extension::Cycle && breakpoints.first() == breakpoints.last() {
            return Err(PiecewiseError::EmptyCycle);
        }
        Ok(Self::build(breakpoints, values, extension))
    }

    /// Assembles the struct and its derived caches from validated parts.
    fn build(breakpoints: Vec<SimTime>, values: Vec<f64>, extension: Extension) -> Self {
        let mut prefix = Vec::with_capacity(values.len() / PREFIX_STRIDE + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for (i, &v) in values.iter().enumerate() {
            acc += v * (breakpoints[i + 1] - breakpoints[i]).as_units();
            if (i + 1) % PREFIX_STRIDE == 0 {
                prefix.push(acc);
            }
        }
        let range = values.iter().fold(EMPTY_RANGE, |r, &v| widen(r, v));
        let dt = (breakpoints[1] - breakpoints[0]).as_ticks();
        let grid_dt = if extension == Extension::Hold
            && breakpoints
                .windows(2)
                .all(|w| (w[1] - w[0]).as_ticks() == dt)
        {
            dt
        } else {
            0
        };
        let domain = (breakpoints[0], breakpoints[values.len()]);
        let table = if grid_dt == 0 {
            breakpoints
        } else {
            Vec::new()
        };
        Self::assemble(
            table,
            domain,
            values,
            extension,
            (prefix, acc),
            range,
            grid_dt,
        )
    }

    /// The struct from its parts and derived caches: the breakpoint
    /// table (empty on a uniform grid), the domain `(start, end)`, the
    /// kept prefix sums with the domain total, the `(min, max)` range
    /// and the uniform spacing in ticks (0 if none), whose reciprocal it
    /// derives.
    fn assemble(
        breakpoints: Vec<SimTime>,
        (start, end): (SimTime, SimTime),
        values: Vec<f64>,
        extension: Extension,
        (prefix, total): (Vec<f64>, f64),
        (vmin, vmax): (f64, f64),
        grid_dt: i64,
    ) -> Self {
        debug_assert_eq!(breakpoints.is_empty(), grid_dt != 0);
        debug_assert_eq!(prefix.len(), values.len() / PREFIX_STRIDE + 1);
        PiecewiseConstant {
            breakpoints,
            values,
            extension,
            prefix,
            total,
            vmin,
            vmax,
            start,
            end,
            grid_dt,
            grid_inv_dt: if grid_dt == 0 {
                0.0
            } else {
                1.0 / grid_dt as f64
            },
        }
    }

    /// A function that is `value` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn constant(value: f64) -> Self {
        assert!(value.is_finite(), "constant value must be finite");
        Self::build(
            vec![SimTime::ZERO, SimTime::from_whole_units(1)],
            vec![value],
            Extension::Hold,
        )
    }

    /// Builds a profile from equally spaced samples starting at `start`,
    /// each sample holding for `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`PiecewiseError`] if `samples` is empty, `dt` is not
    /// positive, a sample is not finite, or the grid runs past the tick
    /// range (reported as [`NotIncreasing`](PiecewiseError::NotIncreasing)
    /// at the first breakpoint that does not fit, as [`Self::new`] would
    /// report the wrapped grid).
    ///
    /// The result is field for field what [`Self::new`] builds over the
    /// stepped breakpoints, in one pass and without re-validating the
    /// grid: every spacing is `dt`, so each prefix step is `v · dt`, the
    /// product `new` forms.
    pub fn from_samples(
        start: SimTime,
        dt: SimDuration,
        samples: Vec<f64>,
        extension: Extension,
    ) -> Result<Self, PiecewiseError> {
        let n = samples.len();
        if n == 0 || !dt.is_positive() {
            return Err(PiecewiseError::LengthMismatch {
                breakpoints: 0,
                values: n,
            });
        }
        let (t0, step) = (start.as_ticks(), dt.as_ticks());
        // Steps past `t0` that stay within the tick range.
        let fit = (i128::from(i64::MAX) - i128::from(t0)) / i128::from(step);
        if n as i128 > fit {
            return Err(PiecewiseError::NotIncreasing {
                index: fit as usize + 1,
            });
        }
        let dt_units = dt.as_units();
        let mut prefix = Vec::with_capacity(n / PREFIX_STRIDE + 1);
        let (mut acc, mut range) = (0.0, EMPTY_RANGE);
        prefix.push(acc);
        for (i, &v) in samples.iter().enumerate() {
            if !v.is_finite() {
                return Err(PiecewiseError::NonFiniteValue { index: i });
            }
            acc += v * dt_units;
            if (i + 1) % PREFIX_STRIDE == 0 {
                prefix.push(acc);
            }
            range = widen(range, v);
        }
        let stepped = |k: usize| SimTime::from_ticks(step_ticks(t0, k, step));
        let (grid_dt, breakpoints) = if extension == Extension::Hold {
            (step, Vec::new())
        } else {
            (0, (0..=n).map(stepped).collect())
        };
        Ok(Self::assemble(
            breakpoints,
            (start, stepped(n)),
            samples,
            extension,
            (prefix, acc),
            range,
            grid_dt,
        ))
    }

    /// Start of the explicitly defined domain.
    #[inline]
    pub fn domain_start(&self) -> SimTime {
        self.start
    }

    /// End of the explicitly defined domain (exclusive).
    #[inline]
    pub fn domain_end(&self) -> SimTime {
        self.end
    }

    /// Breakpoint `k`, for `k` in `0..=n`: stepped on a uniform grid,
    /// read from the table otherwise.
    #[inline]
    fn breakpoint(&self, k: usize) -> SimTime {
        if self.grid_dt != 0 {
            SimTime::from_ticks(step_ticks(self.start.as_ticks(), k, self.grid_dt))
        } else {
            self.breakpoints[k]
        }
    }

    /// All `n + 1` breakpoints, in order.
    fn breakpoint_iter(&self) -> impl Iterator<Item = SimTime> + '_ {
        (0..=self.values.len()).map(|k| self.breakpoint(k))
    }

    /// The extension rule in force outside the domain.
    #[inline]
    pub fn extension(&self) -> Extension {
        self.extension
    }

    /// Number of constant segments in the explicit domain.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.values.len()
    }

    /// The segment values in the explicit domain.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Integral of one full domain span (one period under
    /// [`Extension::Cycle`]).
    #[inline]
    fn total(&self) -> f64 {
        self.total
    }

    /// `F(b_k) = ∫ f over [b_0, b_k)`, for `k` in `0..=n`: the kept sum
    /// at or before `k`, folded forward over the at most
    /// `PREFIX_STRIDE − 1` segments in between with the construction's
    /// own steps, so the result has the bits a full table would hold.
    ///
    /// The fold always takes `PREFIX_STRIDE − 1` steps (past the domain
    /// end it repeats the last segment) and returns the partial sum at
    /// `k`: a loop that stopped at `k` mispredicted its exit on most
    /// queries and made `integrate` a third slower.
    #[inline]
    fn prefix_at(&self, k: usize) -> f64 {
        let kept = k / PREFIX_STRIDE;
        let first = kept * PREFIX_STRIDE;
        let mut acc = self.prefix[kept];
        let mut sums = [acc; PREFIX_STRIDE];
        let last = self.values.len() - 1;
        for (j, sum) in sums.iter_mut().enumerate().skip(1) {
            let i = (first + j - 1).min(last);
            acc += self.values[i] * (self.breakpoint(i + 1) - self.breakpoint(i)).as_units();
            *sum = acc;
        }
        sums[k - first]
    }

    /// Mean value of the function over its explicit domain.
    pub fn domain_mean(&self) -> f64 {
        let len = (self.domain_end() - self.domain_start()).as_units();
        self.total() / len
    }

    /// Maximum value over the explicit domain.
    #[inline]
    pub fn domain_max(&self) -> f64 {
        self.vmax
    }

    /// Minimum value over the explicit domain.
    #[inline]
    pub fn domain_min(&self) -> f64 {
        self.vmin
    }

    /// Index of the segment holding `t`, which must lie inside the
    /// explicit domain.
    ///
    /// A table is binary-searched. A uniform grid keeps no table: the
    /// index is `(t − start) / dt`, with the division strength-reduced to
    /// a reciprocal multiply and an exactness check. In-domain offsets
    /// are far below 2^52, so the estimate is off by at most one step,
    /// and a wrong estimate (or a pathologically large offset) falls back
    /// to the exact division. Crossing-bisection probes alone take ~20 of
    /// these per query.
    #[inline]
    fn locate(&self, t: SimTime) -> usize {
        debug_assert!(
            t >= self.start && t < self.end,
            "instant {t} outside the domain"
        );
        if self.grid_dt == 0 {
            // The count of breakpoints `<= t`, less one.
            return self.breakpoints.partition_point(|&b| b <= t) - 1;
        }
        let n = (t - self.start).as_ticks();
        let mut k = (n as f64 * self.grid_inv_dt) as i64;
        let lo = k.wrapping_mul(self.grid_dt);
        if !(lo <= n && n.wrapping_sub(lo) < self.grid_dt) {
            k = n / self.grid_dt;
        }
        debug_assert_eq!(k, n / self.grid_dt);
        k as usize
    }

    /// Where `t` falls: before or after the domain under
    /// [`Extension::Hold`], or in a segment of the domain or of one of its
    /// [`Extension::Cycle`] images.
    #[inline]
    fn place(&self, t: SimTime) -> Place {
        if t >= self.start && t < self.end {
            return Place::In(self.locate(t), SimDuration::ZERO);
        }
        match self.extension {
            Extension::Hold if t < self.start => Place::Before,
            Extension::Hold => Place::After,
            Extension::Cycle => {
                let period = (self.end - self.start).as_ticks();
                let rel = (t - self.start).as_ticks();
                let shift = SimDuration::from_ticks(rel - rel.rem_euclid(period));
                Place::In(self.locate(t - shift), shift)
            }
        }
    }

    /// Value of the function at instant `t`.
    #[inline]
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.place(t) {
            Place::Before => self.values[0],
            Place::In(i, _) => self.values[i],
            Place::After => self.values[self.values.len() - 1],
        }
    }

    /// Cumulative integral `F(t) = ∫ f over [domain_start, t)` (signed:
    /// negative for `t` before the domain start), with both extensions
    /// folded in closed form. A full `Cycle` period is the constant
    /// `total()`, so no periods are ever unrolled.
    #[inline]
    fn cum(&self, t: SimTime) -> f64 {
        match self.place(t) {
            Place::Before => self.values[0] * (t - self.start).as_units(),
            Place::After => {
                self.total() + self.values[self.values.len() - 1] * (t - self.end).as_units()
            }
            Place::In(i, shift) => {
                let inner = self.prefix_at(i)
                    + self.values[i] * (t - shift - self.breakpoint(i)).as_units();
                if shift == SimDuration::ZERO {
                    inner
                } else {
                    let periods = shift.as_ticks() / (self.end - self.start).as_ticks();
                    periods as f64 * self.total() + inner
                }
            }
        }
    }

    /// Exact integral of the function over `[t1, t2)`, computed as the
    /// antiderivative difference `F(t2) − F(t1)`: one segment lookup per
    /// endpoint, independent of how many segments the window spans.
    ///
    /// Returns a negated integral when `t2 < t1` (exactly: IEEE
    /// subtraction is antisymmetric).
    #[inline]
    pub fn integrate(&self, t1: SimTime, t2: SimTime) -> f64 {
        let a = self.cum(t1);
        let b = self.cum(t2);
        b - a
    }

    /// Reference implementation of [`integrate`](Self::integrate) that
    /// walks every segment in the window.
    ///
    /// Kept as the ground truth for property tests and as the baseline
    /// for benchmarks; `O(segments in window)` instead of one segment
    /// lookup per endpoint.
    pub fn integrate_naive(&self, t1: SimTime, t2: SimTime) -> f64 {
        if t2 < t1 {
            return -self.integrate_naive(t2, t1);
        }
        self.segments_between(t1, t2).map(|s| s.integral()).sum()
    }

    /// Iterates the maximal constant stretches of the function restricted
    /// to the window `[t1, t2)`, in order, covering it exactly.
    ///
    /// The walk locates the segment holding `t1` once and carries the
    /// index forward, so each step after the first is `O(1)`.
    #[inline]
    pub fn segments_between(&self, t1: SimTime, t2: SimTime) -> Segments<'_> {
        Segments {
            f: self,
            at: t1,
            end: t2,
            place: if t1 < t2 {
                self.place(t1)
            } else {
                Place::After
            },
        }
    }

    /// Earliest breakpoint strictly after `t` at which the value may
    /// change, taking the extension rule into account. `None` means the
    /// function is constant for all time after `t`.
    #[inline]
    pub fn next_breakpoint_after(&self, t: SimTime) -> Option<SimTime> {
        match self.place(t) {
            Place::Before => Some(self.start),
            Place::In(i, shift) => Some(self.breakpoint(i + 1) + shift),
            Place::After => None,
        }
    }

    /// Earliest `t ≥ from` at which the *accumulated* value
    /// `acc(t) = initial + ∫_from^t (f(u) + offset) du`, clamped to
    /// `[0, cap]` along the way, first reaches `target`.
    ///
    /// This is the primitive behind "when does the storage fill/empty"
    /// queries: `offset` is the (negated) constant drain, `cap` the
    /// storage capacity. Returns `None` if the level never reaches
    /// `target` before `horizon`. The tier that settled the query is
    /// counted in `tiers`.
    ///
    /// The solver answers in tiers, cheapest first; every tier returns
    /// the tick the clamped segment scan would:
    ///
    /// 1. **Rate-sign reject**, `O(1)`: the net rate `f + offset` is
    ///    bounded away from the target's direction, so `None`.
    /// 2. **Monotone tier**: the net rate cannot change sign, so the
    ///    level is monotone, clamping cannot precede the crossing, and
    ///    the earliest tick is bisected on the prefix-sum antiderivative
    ///    (`O(log T)` probes for a window of `T` ticks). On a `Hold`
    ///    profile where nothing drains (`offset == ±0.0`, values `≥ 0`,
    ///    `from` in the domain) a gallop over the prefix table and a line
    ///    solve inside one segment find the same tick in `O(log d)` for
    ///    a crossing `d` segments away.
    /// 3. **Reach-bound reject**, `O(1)`: the level may move both ways,
    ///    but even the fastest rate toward the target cannot cover
    ///    `|target − initial|` within the window, so `None`.
    /// 4. **Clamped segment scan** over the window; under
    ///    [`Extension::Cycle`] it skips provably event-free periods in
    ///    closed form.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative, or `initial`/`target` fall outside
    /// `[0, cap]`.
    // One argument per scalar of the accumulation problem; bundling them
    // would only obscure the call sites.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn first_accumulation_crossing(
        &self,
        tiers: &mut CrossingTiers,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        match self.classify_crossing(tiers, from, horizon, initial, offset, cap, target) {
            Crossing::Decided(t) => t,
            Crossing::Bisect
                if offset == 0.0
                    && self.extension == Extension::Hold
                    && self.vmin >= 0.0
                    && from >= self.start
                    && from < self.end =>
            {
                self.first_reach(from, horizon, target - initial, offset)
            }
            Crossing::Bisect => bisect_crossing(
                from,
                horizon,
                target - initial,
                offset,
                self.cum(from),
                |t| self.cum(t),
            ),
            Crossing::Scan => {
                let mut scan = ClampedScan {
                    level: initial,
                    offset,
                    cap,
                    target,
                };
                match self.extension {
                    Extension::Hold => scan.run(self, from, horizon, None),
                    Extension::Cycle => self.scan_crossing_cyclic(&mut scan, from, horizon),
                }
            }
        }
    }

    /// The `O(1)` prelude of the crossing solver: checks the contract,
    /// answers trivial windows and provably unreachable targets, and
    /// otherwise picks the solver. Counts the tier taken in `tiers`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn classify_crossing(
        &self,
        tiers: &mut CrossingTiers,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Crossing {
        assert!(cap >= 0.0, "capacity must be non-negative");
        assert!(
            (0.0..=cap).contains(&initial),
            "initial level outside [0, cap]"
        );
        assert!(
            (0.0..=cap).contains(&target),
            "target level outside [0, cap]"
        );
        if initial == target {
            return Crossing::Decided(Some(from));
        }
        if from >= horizon {
            return Crossing::Decided(None);
        }
        let (rate_min, rate_max) = self.rate_bounds(offset);
        // The old scanner only crossed upward in segments with rate > 0
        // and downward with rate < 0; a rate bound pinned on the wrong
        // side of zero decides the query in O(1).
        if (target > initial && rate_max <= 0.0) || (target < initial && rate_min >= 0.0) {
            tiers.reject += 1;
            return Crossing::Decided(None);
        }
        let monotone =
            (target > initial && rate_min >= 0.0) || (target < initial && rate_max <= 0.0);
        if monotone {
            tiers.bisect += 1;
            Crossing::Bisect
        } else if self.out_of_reach(from, horizon, initial, target, rate_min, rate_max, cap) {
            tiers.reject += 1;
            Crossing::Decided(None)
        } else if self.extension == Extension::Cycle {
            tiers.cyclic += 1;
            Crossing::Scan
        } else {
            tiers.scan += 1;
            Crossing::Scan
        }
    }

    /// Bounds `(rate_min, rate_max)` on the net rate `f + offset` over
    /// all time. Both extensions only repeat domain values.
    #[inline]
    fn rate_bounds(&self, offset: f64) -> (f64, f64) {
        (self.vmin + offset, self.vmax + offset)
    }

    /// Reach bound of the scan tier: whether the level provably cannot
    /// move from `initial` to `target` inside `[from, horizon)`.
    ///
    /// Toward the target the net rate never exceeds `rate_max` (upward)
    /// or `−rate_min` (downward), and clamping only pulls the level back
    /// toward where it started, so `|target − initial|` above that rate
    /// times the window length is out of reach. The margin dominates the
    /// scanner's ±1e-15 tolerance plus the rounding of its running level:
    /// at most `ε·cap` per segment walked (`segments` bounds how many)
    /// and `2ε` of every `|rate|·span` added. It is `1e-9` relative,
    /// like the cyclic period skip's, so a reject here is a query on
    /// which the scan would have returned `None` too.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn out_of_reach(
        &self,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        target: f64,
        rate_min: f64,
        rate_max: f64,
        cap: f64,
    ) -> bool {
        let span = (horizon - from).as_units();
        let (gap, rate) = if target > initial {
            (target - initial, rate_max)
        } else {
            (initial - target, -rate_min)
        };
        // Segments the scan walks: the domain's plus a tail on each side,
        // once per period the window touches under `Cycle`.
        let per_pass = self.values.len() as f64 + 2.0;
        let segments = match self.extension {
            Extension::Cycle => {
                let period = (self.domain_end() - self.domain_start()).as_units();
                per_pass * (span / period + 2.0)
            }
            Extension::Hold => per_pass,
        };
        let fastest = rate_max.max(-rate_min);
        let margin =
            1e-9 * (1.0 + cap + target.abs() + fastest * span) + segments * f64::EPSILON * cap;
        gap > rate * span + margin
    }

    /// [`bisect_crossing`] for a level that nothing drains: `offset` is
    /// `±0.0`, every value is non-negative, the extension is `Hold` and
    /// `from` lies in the domain, as in every stall wake of the paper's
    /// runs. It returns the tick bisection returns, from a gallop over
    /// the prefix table and three probes instead of `log₂` of the window
    /// in ticks.
    ///
    /// On such inputs the gain `g(t) = F(t) − F(from)` is monotone in `t`
    /// even after rounding. Inside segment `k`, `F(t)` is the rounded
    /// `F(b_k) + v·(t − b_k)` with `v ≥ 0`, and `F(b_{k+1})` is the same
    /// expression rounded at `b_{k+1}`, so `F` never steps down at a
    /// breakpoint either, whatever the spacing. The first reaching tick
    /// is therefore unique, and any bracket that fails at its low end and
    /// reaches at its high end bisects to it. `g(b_k)` is exactly
    /// `F(b_k) − F(from)`, so a search over the prefix sums
    /// ([`Self::prefix_at`]) finds the segment holding that tick; the
    /// segment's line gives the tick, accepted only when it reaches and
    /// the tick before it does not.
    fn first_reach(
        &self,
        from: SimTime,
        horizon: SimTime,
        needed: f64,
        offset: f64,
    ) -> Option<SimTime> {
        let cum_from = self.cum(from);
        // The predicate `bisect_crossing` probes, expression for
        // expression.
        let reached = |t: SimTime| {
            reaches(
                needed,
                self.cum(t) - cum_from + offset * (t - from).as_units(),
            )
        };
        if reaches(needed, 0.0) {
            return Some(from);
        }
        if !reached(horizon) {
            return None;
        }
        // First breakpoint past `from` whose gain reaches: gallop with
        // doubling strides, then binary-search the bracketed range.
        let reached_at = |k: usize| reaches(needed, self.prefix_at(k) - cum_from);
        let n = self.values.len();
        let mut below = self.locate(from);
        let mut stride = 1;
        let first_hit = loop {
            let probe = (below + stride).min(n);
            if reached_at(probe) {
                // Fails at `below`, reaches at `hi`.
                let mut hi = probe;
                while hi - below > 1 {
                    let mid = below + (hi - below) / 2;
                    if reached_at(mid) {
                        hi = mid;
                    } else {
                        below = mid;
                    }
                }
                break Some(hi);
            }
            if probe == n {
                break None;
            }
            below = probe;
            stride *= 2;
        };
        // The stretch holding the first reaching tick, where
        // `F(t) = base_cum + value·(t − base)`, and its bracket `(lo, hi]`.
        let (base, base_cum, value, hi) = match first_hit {
            Some(k) => (
                self.breakpoint(k - 1),
                self.prefix_at(k - 1),
                self.values[k - 1],
                self.breakpoint(k).min(horizon),
            ),
            // Not reached by the domain end: the Hold tail.
            None => (self.end, self.total(), self.values[n - 1], horizon),
        };
        let (lo, hi) = (base.max(from).as_ticks(), hi.as_ticks());
        let dt = (needed - 1e-15 - (base_cum - cum_from)) / value;
        let guess = base
            .as_ticks()
            .saturating_add((dt * TICKS_PER_UNIT as f64).ceil() as i64)
            .clamp(lo + 1, hi);
        let at = SimTime::from_ticks(guess);
        Some(if !reached(at) {
            bisect_ticks(guess, hi, reached)
        } else if guess - 1 == lo || !reached(at - SimDuration::TICK) {
            at
        } else {
            bisect_ticks(lo, guess - 1, reached)
        })
    }

    /// Reference implementation of
    /// [`first_accumulation_crossing`](Self::first_accumulation_crossing):
    /// a linear scan over every segment in `[from, horizon)`.
    ///
    /// Kept as the ground truth for property tests and as the baseline
    /// for benchmarks.
    ///
    /// # Panics
    ///
    /// Same contract as the fast path.
    pub fn first_accumulation_crossing_naive(
        &self,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        assert!(cap >= 0.0, "capacity must be non-negative");
        assert!(
            (0.0..=cap).contains(&initial),
            "initial level outside [0, cap]"
        );
        assert!(
            (0.0..=cap).contains(&target),
            "target level outside [0, cap]"
        );
        if initial == target {
            return Some(from);
        }
        let mut scan = ClampedScan {
            level: initial,
            offset,
            cap,
            target,
        };
        scan.run(self, from, horizon, None)
    }

    /// Clamped scan under [`Extension::Cycle`]: scans period by period,
    /// but (a) stops as soon as one full period returns to its entry
    /// level without crossing — the trajectory is then exactly periodic
    /// and will never cross — and (b) after probing one clamp-free
    /// period, skips every future period whose extrapolated excursion
    /// envelope provably avoids the target, the floor, and the cap.
    fn scan_crossing_cyclic(
        &self,
        scan: &mut ClampedScan,
        from: SimTime,
        horizon: SimTime,
    ) -> Option<SimTime> {
        let start = self.domain_start();
        let period_ticks = (self.domain_end() - start).as_ticks();
        let period = SimDuration::from_ticks(period_ticks);
        let mut t = from;
        // Align to the next period boundary so probes always cover one
        // full period at a fixed phase.
        let rel = (t - start).as_ticks().rem_euclid(period_ticks);
        if rel != 0 {
            let boundary = t + SimDuration::from_ticks(period_ticks - rel);
            if let Some(hit) = scan.run(self, t, boundary.min(horizon), None) {
                return Some(hit);
            }
            if boundary >= horizon {
                return None;
            }
            t = boundary;
        }
        while t < horizon {
            let pe = t + period;
            if pe > horizon {
                return scan.run(self, t, horizon, None);
            }
            let entry = scan.level;
            let mut probe = Probe {
                lo: entry,
                hi: entry,
                clamped: false,
            };
            if let Some(hit) = scan.run(self, t, pe, Some(&mut probe)) {
                return Some(hit);
            }
            t = pe;
            if scan.level == entry {
                // Fixed point of the one-period level map: the trajectory
                // repeats this (crossing-free) period forever.
                return None;
            }
            if probe.clamped {
                continue;
            }
            let delta = scan.level - entry;
            let (e_lo, e_hi) = (probe.lo - entry, probe.hi - entry);
            // Safety margin dominating both the scanner's ±1e-15 crossing
            // tolerance and the extrapolation dust of `level + j·delta`
            // versus the iterated sum.
            let margin = 1e-9 * (1.0 + scan.cap.abs() + scan.target.abs());
            let avail = (horizon - t).as_ticks() / period_ticks;
            let k = avail
                .min(periods_while_at_most(
                    scan.level + e_hi,
                    delta,
                    scan.cap - margin,
                ))
                .min(periods_while_at_least(scan.level + e_lo, delta, margin))
                .min(
                    periods_while_at_most(scan.level + e_hi, delta, scan.target - margin).max(
                        periods_while_at_least(scan.level + e_lo, delta, scan.target + margin),
                    ),
                );
            if k > 0 {
                scan.level += k as f64 * delta;
                t += SimDuration::from_ticks(k * period_ticks);
            }
        }
        None
    }
}

/// How [`PiecewiseConstant::classify_crossing`] settled a crossing
/// query: answered outright, or the solver that must finish it.
enum Crossing {
    /// Answered by the prelude: a trivial window or an `O(1)` reject.
    Decided(Option<SimTime>),
    /// Monotone trajectory: [`bisect_crossing`], or the prefix-table
    /// first-reach solve.
    Bisect,
    /// Non-monotone: the clamped segment scan (period-skipping under
    /// [`Extension::Cycle`]).
    Scan,
}

/// Crossing solve for a provably monotone level trajectory: clamping
/// cannot strike before the crossing, so the accumulated gain
/// `g(t) = F(t) − F(from) + offset·(t − from)` is monotone and the
/// earliest tick at which it reaches `needed` is found by bisection.
/// `cum` evaluates the antiderivative `F` and `cum_from = F(from)`. Each
/// probe is one prefix-table evaluation, so no segment is ever walked:
/// `O(log T)` probes for a horizon `T` ticks away.
fn bisect_crossing(
    from: SimTime,
    horizon: SimTime,
    needed: f64,
    offset: f64,
    cum_from: f64,
    cum: impl Fn(SimTime) -> f64,
) -> Option<SimTime> {
    let g_at = |t: SimTime| cum(t) - cum_from + offset * (t - from).as_units();
    if reaches(needed, 0.0) {
        // |needed| ≤ 1e-15: within tolerance immediately.
        return Some(from);
    }
    if !reaches(needed, g_at(horizon)) {
        return None;
    }
    Some(bisect_ticks(from.as_ticks(), horizon.as_ticks(), |t| {
        reaches(needed, g_at(t))
    }))
}

/// Whether the accumulated gain `g` has reached `needed`, with the
/// scanner's crossing tolerance of ±1e-15.
#[inline]
fn reaches(needed: f64, g: f64) -> bool {
    if needed > 0.0 {
        g >= needed - 1e-15
    } else {
        g <= needed + 1e-15
    }
}

/// First tick of `(lo, hi]` at which the monotone predicate `reached`
/// holds, given that it fails at `lo` and holds at `hi`.
fn bisect_ticks(mut lo: i64, mut hi: i64, reached: impl Fn(SimTime) -> bool) -> SimTime {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reached(SimTime::from_ticks(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    SimTime::from_ticks(hi)
}

/// Number of leading periods `j = 0, 1, …` for which `base + j·delta`
/// stays `≤ bound`. Saturates when the drift never violates the bound.
fn periods_while_at_most(base: f64, delta: f64, bound: f64) -> i64 {
    if base > bound {
        return 0;
    }
    if delta <= 0.0 {
        return i64::MAX;
    }
    let j = ((bound - base) / delta).floor();
    if j.is_nan() || j < 0.0 {
        return 0;
    }
    if j >= i64::MAX as f64 {
        return i64::MAX;
    }
    // j is the last index still within the bound, so j + 1 periods hold.
    j as i64 + 1
}

/// Number of leading periods `j = 0, 1, …` for which `base + j·delta`
/// stays `≥ bound`.
fn periods_while_at_least(base: f64, delta: f64, bound: f64) -> i64 {
    if base < bound {
        return 0;
    }
    if delta >= 0.0 {
        return i64::MAX;
    }
    let j = ((base - bound) / -delta).floor();
    if j.is_nan() || j < 0.0 {
        return 0;
    }
    if j >= i64::MAX as f64 {
        return i64::MAX;
    }
    j as i64 + 1
}

/// Unclamped excursion envelope observed while scanning one full period.
struct Probe {
    lo: f64,
    hi: f64,
    clamped: bool,
}

/// The clamped accumulation scanner: the exact per-segment arithmetic of
/// the original `first_accumulation_crossing`, preserved verbatim so the
/// fast paths layered on top stay tick-identical with the historical
/// behaviour.
struct ClampedScan {
    level: f64,
    offset: f64,
    cap: f64,
    target: f64,
}

impl ClampedScan {
    /// Scans `[lo, hi)` of `f`, returning the first crossing instant or
    /// updating `self.level` to the clamped level at `hi`. When `probe`
    /// is given, records the unclamped excursion envelope along the way.
    fn run(
        &mut self,
        f: &PiecewiseConstant,
        lo: SimTime,
        hi: SimTime,
        mut probe: Option<&mut Probe>,
    ) -> Option<SimTime> {
        for seg in f.segments_between(lo, hi) {
            let rate = seg.value + self.offset;
            let span = seg.duration().as_units();
            let unclamped_end = self.level + rate * span;
            let crossed = if rate > 0.0 {
                self.target > self.level && self.target <= unclamped_end.min(self.cap) + 1e-15
            } else if rate < 0.0 {
                self.target < self.level && self.target >= unclamped_end.max(0.0) - 1e-15
            } else {
                false
            };
            if crossed {
                let dt = (self.target - self.level) / rate;
                let t = SimTime::from_units_ceil(seg.start.as_units() + dt);
                return Some(t.min(seg.end).max(seg.start));
            }
            if let Some(p) = probe.as_deref_mut() {
                p.lo = p.lo.min(self.level.min(unclamped_end));
                p.hi = p.hi.max(self.level.max(unclamped_end));
                p.clamped |= unclamped_end < 0.0 || unclamped_end > self.cap;
            }
            self.level = unclamped_end.clamp(0.0, self.cap);
        }
        None
    }
}

/// Where an instant falls relative to a profile's segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Before the domain, under [`Extension::Hold`].
    Before,
    /// In segment `i` of the domain image shifted by the given whole
    /// number of periods (zero inside the domain, and always under
    /// [`Extension::Hold`]).
    In(usize, SimDuration),
    /// At or after the domain end, under [`Extension::Hold`].
    After,
}

/// Iterator over [`Segment`]s, produced by
/// [`PiecewiseConstant::segments_between`].
#[derive(Debug)]
pub struct Segments<'a> {
    f: &'a PiecewiseConstant,
    /// Start of the next segment to yield.
    at: SimTime,
    end: SimTime,
    /// The segment holding `at`, carried forward step by step.
    place: Place,
}

impl Iterator for Segments<'_> {
    type Item = Segment;

    #[inline]
    fn next(&mut self) -> Option<Segment> {
        if self.at >= self.end {
            return None;
        }
        let f = self.f;
        debug_assert_eq!(self.place, f.place(self.at), "stale carried segment");
        let (value, next_change) = match self.place {
            Place::Before => {
                self.place = Place::In(0, SimDuration::ZERO);
                (f.values[0], f.start)
            }
            Place::In(i, shift) => {
                self.place = if i + 1 < f.values.len() {
                    Place::In(i + 1, shift)
                } else {
                    match f.extension {
                        Extension::Hold => Place::After,
                        Extension::Cycle => Place::In(0, shift + (f.end - f.start)),
                    }
                };
                (f.values[i], f.breakpoint(i + 1) + shift)
            }
            Place::After => (f.values[f.values.len() - 1], SimTime::MAX),
        };
        let start = self.at;
        let end = next_change.min(self.end);
        debug_assert!(end > start, "segment iterator must make progress");
        self.at = end;
        Some(Segment { start, end, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fn() -> PiecewiseConstant {
        PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(10),
                SimTime::from_whole_units(20),
                SimTime::from_whole_units(30),
            ],
            vec![2.0, 0.5, 4.0],
            Extension::Hold,
        )
        .unwrap()
    }

    /// [`PiecewiseConstant::first_accumulation_crossing`] on a throwaway
    /// tally.
    fn crossing(
        f: &PiecewiseConstant,
        (from, horizon): (SimTime, SimTime),
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        let mut tiers = CrossingTiers::default();
        f.first_accumulation_crossing(&mut tiers, from, horizon, initial, offset, cap, target)
    }

    #[test]
    fn crossing_tiers_are_counted() {
        let u = SimTime::from_whole_units;
        // Strictly positive rates: upward crossings bisect, downward
        // targets are rejected in O(1).
        let f = sample_fn();
        let mut tiers = CrossingTiers::default();
        assert!(f
            .first_accumulation_crossing(&mut tiers, u(0), u(30), 0.0, 0.0, 100.0, 50.0)
            .is_some());
        assert!(f
            .first_accumulation_crossing(&mut tiers, u(0), u(30), 50.0, 0.0, 100.0, 10.0)
            .is_none());
        assert_eq!(
            tiers,
            CrossingTiers {
                reject: 1,
                bisect: 1,
                ..CrossingTiers::default()
            }
        );

        // Mixed-sign rates force the clamped segment scan.
        let g = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(10), u(20)],
            vec![1.0, -1.0],
            Extension::Hold,
        )
        .unwrap();
        let mut tiers = CrossingTiers::default();
        g.first_accumulation_crossing(&mut tiers, u(0), u(20), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(tiers.scan, 1);

        // The same query under Cycle takes the period-skip scanner.
        let c = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(10), u(20)],
            vec![1.0, -1.0],
            Extension::Cycle,
        )
        .unwrap();
        let mut tiers = CrossingTiers::default();
        c.first_accumulation_crossing(&mut tiers, u(0), u(20), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(tiers.cyclic, 1);
    }

    #[test]
    fn construction_validates_lengths() {
        let err = PiecewiseConstant::new(vec![SimTime::ZERO], vec![], Extension::Hold);
        assert!(matches!(err, Err(PiecewiseError::LengthMismatch { .. })));
    }

    #[test]
    fn construction_validates_monotonicity() {
        let err = PiecewiseConstant::new(
            vec![SimTime::ZERO, SimTime::ZERO],
            vec![1.0],
            Extension::Hold,
        );
        assert!(matches!(
            err,
            Err(PiecewiseError::NotIncreasing { index: 1 })
        ));
    }

    #[test]
    fn construction_validates_values() {
        let err = PiecewiseConstant::new(
            vec![SimTime::ZERO, SimTime::from_whole_units(1)],
            vec![f64::NAN],
            Extension::Hold,
        );
        assert!(matches!(
            err,
            Err(PiecewiseError::NonFiniteValue { index: 0 })
        ));
    }

    #[test]
    fn value_lookup_half_open_intervals() {
        let f = sample_fn();
        assert_eq!(f.value_at(SimTime::ZERO), 2.0);
        assert_eq!(f.value_at(SimTime::from_units(9.999_999)), 2.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(10)), 0.5);
        assert_eq!(f.value_at(SimTime::from_whole_units(29)), 4.0);
    }

    #[test]
    fn hold_extension_clamps_both_sides() {
        let f = sample_fn();
        assert_eq!(f.value_at(SimTime::from_whole_units(-5)), 2.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(99)), 4.0);
    }

    #[test]
    fn cycle_extension_repeats() {
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(2),
            ],
            vec![1.0, 5.0],
            Extension::Cycle,
        )
        .unwrap();
        assert_eq!(f.value_at(SimTime::from_whole_units(4)), 1.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(5)), 5.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(-1)), 5.0);
        // One full period integrates to 6 regardless of phase.
        let e = f.integrate(SimTime::from_units(3.5), SimTime::from_units(5.5));
        assert!((e - 6.0).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn integral_matches_hand_computation() {
        let f = sample_fn();
        let e = f.integrate(SimTime::from_whole_units(5), SimTime::from_whole_units(25));
        // 5·2.0 + 10·0.5 + 5·4.0 = 35
        assert!((e - 35.0).abs() < 1e-9);
    }

    #[test]
    fn reversed_integral_negates() {
        let f = sample_fn();
        let fwd = f.integrate(SimTime::ZERO, SimTime::from_whole_units(30));
        let back = f.integrate(SimTime::from_whole_units(30), SimTime::ZERO);
        assert_eq!(fwd, -back);
    }

    #[test]
    fn segments_cover_window_exactly() {
        let f = sample_fn();
        let segs: Vec<_> = f
            .segments_between(SimTime::from_whole_units(5), SimTime::from_whole_units(25))
            .collect();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].start, SimTime::from_whole_units(5));
        assert_eq!(segs[2].end, SimTime::from_whole_units(25));
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn segments_beyond_domain_use_extension() {
        let f = sample_fn();
        let segs: Vec<_> = f
            .segments_between(SimTime::from_whole_units(25), SimTime::from_whole_units(45))
            .collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].value, 4.0);
        assert_eq!(segs[1].end, SimTime::from_whole_units(45));
    }

    #[test]
    fn from_samples_builds_a_grid() {
        let f = PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_whole_units(2),
            vec![1.0, 2.0, 3.0],
            Extension::Hold,
        )
        .unwrap();
        assert_eq!(f.domain_end(), SimTime::from_whole_units(6));
        assert_eq!(f.value_at(SimTime::from_whole_units(3)), 2.0);
        assert!((f.domain_mean() - 2.0).abs() < 1e-12);
    }

    /// `new` over the breakpoints `from_samples` steps, with the tick
    /// sums wrapping as an unchecked release build would wrap them.
    fn new_over_stepped(
        start: SimTime,
        dt: SimDuration,
        samples: &[f64],
        extension: Extension,
    ) -> Result<PiecewiseConstant, PiecewiseError> {
        let (t0, step) = (start.as_ticks(), dt.as_ticks());
        let breakpoints = (0..=samples.len() as i64)
            .map(|i| SimTime::from_ticks(t0.wrapping_add(i.wrapping_mul(step))))
            .collect();
        PiecewiseConstant::new(breakpoints, samples.to_vec(), extension)
    }

    fn assert_same_fields(a: &PiecewiseConstant, b: &PiecewiseConstant, ctx: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.breakpoints, b.breakpoints, "breakpoint table ({ctx})");
        assert_eq!((a.start, a.end), (b.start, b.end), "domain ({ctx})");
        assert_eq!(bits(&a.values), bits(&b.values), "values ({ctx})");
        assert_eq!(a.extension, b.extension, "extension ({ctx})");
        assert_eq!(bits(&a.prefix), bits(&b.prefix), "prefix ({ctx})");
        assert_eq!(a.total.to_bits(), b.total.to_bits(), "total ({ctx})");
        assert_eq!(a.vmin.to_bits(), b.vmin.to_bits(), "vmin ({ctx})");
        assert_eq!(a.vmax.to_bits(), b.vmax.to_bits(), "vmax ({ctx})");
        assert_eq!(a.grid_dt, b.grid_dt, "grid_dt ({ctx})");
        assert_eq!(
            a.grid_inv_dt.to_bits(),
            b.grid_inv_dt.to_bits(),
            "grid_inv_dt ({ctx})"
        );
    }

    #[test]
    fn from_samples_matches_new_over_the_stepped_grid() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let starts = [
            SimTime::ZERO,
            SimTime::from_whole_units(37),
            SimTime::from_ticks(-1_234_567),
        ];
        let dts = [
            SimDuration::from_whole_units(1),
            SimDuration::from_units(0.5),
            SimDuration::from_whole_units(3),
            SimDuration::from_ticks(7),
        ];
        for case in 0..200 {
            let n = [1, 2, 7, 64, 1_000][case % 5];
            let samples: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => rng.gen_range(-3.0..3.0),
                    _ => rng.gen_range(0.0..12.0),
                })
                .collect();
            let start = starts[case % starts.len()];
            let dt = dts[case % dts.len()];
            for extension in [Extension::Hold, Extension::Cycle] {
                let ctx = format!("case {case}, n {n}, {extension:?}");
                let got =
                    PiecewiseConstant::from_samples(start, dt, samples.clone(), extension).unwrap();
                let want = new_over_stepped(start, dt, &samples, extension).unwrap();
                assert_same_fields(&got, &want, &ctx);
            }
        }
        // Signed zeros alone decide the extremes.
        for samples in [
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![-0.0, 0.0, -0.0, 0.0],
            vec![0.0; 3],
        ] {
            let dt = SimDuration::from_whole_units(1);
            let got = PiecewiseConstant::from_samples(
                SimTime::ZERO,
                dt,
                samples.clone(),
                Extension::Hold,
            )
            .unwrap();
            let want = new_over_stepped(SimTime::ZERO, dt, &samples, Extension::Hold).unwrap();
            assert_same_fields(&got, &want, &format!("{samples:?}"));
            assert_eq!(got.vmin.to_bits(), samples[0].to_bits(), "first zero wins");
            assert_eq!(got.vmax.to_bits(), samples[0].to_bits(), "first zero wins");
        }
    }

    #[test]
    fn from_samples_reports_what_new_reports() {
        let unit = SimDuration::from_whole_units(1);
        for dt in [unit, SimDuration::ZERO, SimDuration::from_ticks(-5)] {
            let empty = PiecewiseConstant::from_samples(SimTime::ZERO, dt, vec![], Extension::Hold);
            assert_eq!(
                empty,
                Err(PiecewiseError::LengthMismatch {
                    breakpoints: 0,
                    values: 0
                })
            );
        }
        for dt in [SimDuration::ZERO, SimDuration::from_ticks(-5)] {
            let bad =
                PiecewiseConstant::from_samples(SimTime::ZERO, dt, vec![1.0; 3], Extension::Hold);
            assert_eq!(
                bad,
                Err(PiecewiseError::LengthMismatch {
                    breakpoints: 0,
                    values: 3
                })
            );
        }
        for (k, bad) in [(0, f64::NAN), (4, f64::NAN), (9, f64::INFINITY)] {
            let mut samples = vec![1.5; 10];
            samples[k] = bad;
            let got = PiecewiseConstant::from_samples(
                SimTime::ZERO,
                unit,
                samples.clone(),
                Extension::Hold,
            );
            assert_eq!(got, Err(PiecewiseError::NonFiniteValue { index: k }));
            assert_eq!(
                got,
                new_over_stepped(SimTime::ZERO, unit, &samples, Extension::Hold)
            );
        }
        // Grids that run past the tick range: past the middle, at the
        // last breakpoint only, and with a NaN the overflow outranks.
        let step = 3 * TICKS_PER_UNIT;
        for (start, n) in [
            (i64::MAX - 5 * step - 3, 10),
            (i64::MAX - 9 * step, 10),
            (i64::MAX - 2, 1),
        ] {
            let start = SimTime::from_ticks(start);
            let dt = SimDuration::from_ticks(step);
            let mut samples = vec![2.0; n];
            samples[0] = f64::NAN;
            let got = PiecewiseConstant::from_samples(start, dt, samples.clone(), Extension::Hold);
            let want = new_over_stepped(start, dt, &samples, Extension::Hold);
            assert!(
                matches!(got, Err(PiecewiseError::NotIncreasing { .. })),
                "{got:?}"
            );
            assert_eq!(got, want, "start {start:?}, n {n}");
        }
        // The largest grid that fits is accepted.
        let fits = PiecewiseConstant::from_samples(
            SimTime::from_ticks(i64::MAX - 10 * step),
            SimDuration::from_ticks(step),
            vec![1.0; 10],
            Extension::Hold,
        )
        .unwrap();
        assert_eq!(fits.domain_end(), SimTime::from_ticks(i64::MAX));
    }

    #[test]
    fn crossing_fill_time() {
        // Charge at net +2 from level 1 toward target 5: takes 2 units.
        let f = PiecewiseConstant::constant(3.0);
        let window = (SimTime::ZERO, SimTime::from_whole_units(100));
        // Drain 1 → net +2.
        let t = crossing(&f, window, 1.0, -1.0, 10.0, 5.0).unwrap();
        assert_eq!(t, SimTime::from_whole_units(2));
    }

    #[test]
    fn crossing_depletion_time_across_segments() {
        // 0 harvest for 3 units, then 1.0; drain 2.0; start level 4.
        // Level: 4 - 2t on [0,3) → 1 at t=3? No: 4-6 = -2 clamps at t=2.
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(3),
                SimTime::from_whole_units(10),
            ],
            vec![0.0, 1.0],
            Extension::Hold,
        )
        .unwrap();
        let window = (SimTime::ZERO, SimTime::from_whole_units(10));
        let t = crossing(&f, window, 4.0, -2.0, 100.0, 0.0).unwrap();
        assert_eq!(t, SimTime::from_whole_units(2));
    }

    #[test]
    fn crossing_unreachable_returns_none() {
        let f = PiecewiseConstant::constant(1.0);
        // Net rate zero: never reaches the target.
        let window = (SimTime::ZERO, SimTime::from_whole_units(50));
        assert_eq!(crossing(&f, window, 1.0, -1.0, 10.0, 5.0), None);
    }

    #[test]
    fn crossing_respects_clamping() {
        // Strong drain empties the store in segment 1; recovery in
        // segment 2 must start from 0, not from the unclamped negative.
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(5),
                SimTime::from_whole_units(100),
            ],
            vec![0.0, 2.0],
            Extension::Hold,
        )
        .unwrap();
        let window = (SimTime::ZERO, SimTime::from_whole_units(100));
        let t = crossing(&f, window, 3.0, -1.0, 10.0, 4.0).unwrap();
        // Level hits 0 at t=3, stays 0 until 5, then rises at +1/unit:
        // reaches 4 at t=9.
        assert_eq!(t, SimTime::from_whole_units(9));
    }

    #[test]
    fn next_breakpoint_cycle_wraps() {
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(2),
                SimTime::from_whole_units(3),
            ],
            vec![1.0, 2.0],
            Extension::Cycle,
        )
        .unwrap();
        assert_eq!(
            f.next_breakpoint_after(SimTime::from_whole_units(4)),
            Some(SimTime::from_whole_units(5))
        );
        assert_eq!(
            f.next_breakpoint_after(SimTime::from_whole_units(5)),
            Some(SimTime::from_whole_units(6))
        );
    }

    #[test]
    fn domain_stats() {
        let f = sample_fn();
        assert_eq!(f.domain_max(), 4.0);
        assert_eq!(f.domain_min(), 0.5);
        let mean = f.domain_mean();
        assert!((mean - (20.0 + 5.0 + 40.0) / 30.0).abs() < 1e-12);
    }

    // ------------------------------------------------------------------
    // Prefix-table coverage.
    // ------------------------------------------------------------------

    #[test]
    fn prefix_integrate_matches_naive() {
        for ext in [Extension::Hold, Extension::Cycle] {
            let f = PiecewiseConstant::new(
                vec![
                    SimTime::from_whole_units(-3),
                    SimTime::from_units(1.5),
                    SimTime::from_whole_units(4),
                    SimTime::from_units(7.25),
                ],
                vec![2.5, -1.0, 0.75],
                ext,
            )
            .unwrap();
            for (a, b) in [
                (-10.0, 20.0),
                (-5.5, -4.0),
                (2.0, 2.0),
                (13.0, 3.0),
                (6.9, 7.3),
            ] {
                let (t1, t2) = (SimTime::from_units(a), SimTime::from_units(b));
                let fast = f.integrate(t1, t2);
                let slow = f.integrate_naive(t1, t2);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "{ext:?} [{a},{b}): fast={fast} naive={slow}"
                );
            }
        }
    }

    #[test]
    fn crossing_fast_path_matches_naive_on_breakpoint_aligned_target() {
        // Monotone upward crossing landing exactly on a breakpoint: the
        // prefix-seek rewrite must return the same tick as the scan.
        let f = sample_fn();
        let window = (SimTime::ZERO, SimTime::from_whole_units(100));
        let (initial, offset, cap) = (0.0, -0.5, 1000.0);
        let naive = |target| {
            f.first_accumulation_crossing_naive(window.0, window.1, initial, offset, cap, target)
        };
        // Net rates 1.5, 0.0, 3.5: level is 15 at t=10, flat to t=20,
        // reaching 25 needs 10/3.5 more — but with target 15 it lands on
        // the t=10 breakpoint exactly.
        assert_eq!(
            crossing(&f, window, initial, offset, cap, 25.0),
            naive(25.0)
        );
        let aligned = crossing(&f, window, initial, offset, cap, 15.0);
        assert_eq!(aligned, SimTime::from_whole_units(10).into());
        assert_eq!(aligned, naive(15.0));
    }

    #[test]
    fn cyclic_crossing_skips_periods() {
        // Net +0.25 per 2-unit period (dyadic, so both paths are exact):
        // the level first exceeds 50 inside the rising half of period 195,
        // at t = 391. The period-skip path must agree with the naive scan.
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(2),
            ],
            vec![1.25, -1.0],
            Extension::Cycle,
        )
        .unwrap();
        let horizon = SimTime::from_whole_units(5000);
        let fast = crossing(&f, (SimTime::ZERO, horizon), 0.0, 0.0, 100.0, 50.0);
        let naive =
            f.first_accumulation_crossing_naive(SimTime::ZERO, horizon, 0.0, 0.0, 100.0, 50.0);
        assert_eq!(fast, naive);
        assert_eq!(fast, Some(SimTime::from_whole_units(391)));
    }

    #[test]
    fn cyclic_crossing_detects_periodic_steady_state() {
        // Zero net drift and a target outside the excursion: the fixed
        // point of the period map proves unreachability after one period.
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(2),
            ],
            vec![1.0, -1.0],
            Extension::Cycle,
        )
        .unwrap();
        let window = (SimTime::ZERO, SimTime::from_whole_units(1_000_000));
        assert_eq!(crossing(&f, window, 2.0, 0.0, 10.0, 8.0), None);
    }

    /// Deterministic xorshift so parity probes need no external RNG.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn grid_profile(seed: u64, n: usize) -> PiecewiseConstant {
        let mut s = seed.max(1);
        let samples: Vec<f64> = (0..n)
            .map(|_| (xorshift(&mut s) % 1000) as f64 / 137.0 - 1.5)
            .collect();
        PiecewiseConstant::from_samples(
            SimTime::from_whole_units(-3),
            SimDuration::from_units(0.75),
            samples,
            Extension::Hold,
        )
        .unwrap()
    }

    /// The same function as the grid `f`, in the representation every
    /// profile had before grids dropped their table: an explicit
    /// breakpoint table that `locate` binary-searches.
    fn table_twin(f: &PiecewiseConstant) -> PiecewiseConstant {
        assert!(f.breakpoints.is_empty(), "a grid keeps no table");
        PiecewiseConstant {
            breakpoints: f.breakpoint_iter().collect(),
            grid_dt: 0,
            grid_inv_dt: 0.0,
            ..f.clone()
        }
    }

    // The two parity tests below run every query on a grid and on its
    // table twin: the same function, located by division on one and by
    // binary search on the other.
    #[test]
    fn grid_lookups_match_table_twin() {
        for seed in 1..6u64 {
            let f = grid_profile(seed, 64);
            let twin = table_twin(&f);
            let mut s = seed.wrapping_mul(0x9E37_79B9).max(1);
            for _ in 0..400 {
                let t = SimTime::from_ticks((xorshift(&mut s) % 80_000_000) as i64 - 10_000_000);
                assert_eq!(
                    f.value_at(t).to_bits(),
                    twin.value_at(t).to_bits(),
                    "value at {t}"
                );
                assert_eq!(
                    f.next_breakpoint_after(t),
                    twin.next_breakpoint_after(t),
                    "breakpoint after {t}"
                );
                let t2 = t + SimDuration::from_ticks((xorshift(&mut s) % 20_000_000) as i64);
                assert_eq!(
                    f.integrate(t, t2).to_bits(),
                    twin.integrate(t, t2).to_bits(),
                    "integral over [{t}, {t2})"
                );
                let segs: Vec<_> = f.segments_between(t, t2).collect();
                let twin_segs: Vec<_> = twin.segments_between(t, t2).collect();
                assert_eq!(segs, twin_segs, "segments over [{t}, {t2})");
            }
        }
    }

    #[test]
    fn grid_crossings_match_table_twin() {
        for seed in 1..6u64 {
            let f = grid_profile(seed, 48);
            let twin = table_twin(&f);
            let mut s = seed.wrapping_mul(0xA076_1D64).max(1);
            let cap = 25.0;
            // Both forms count the same crossing tiers.
            let (mut grid_tiers, mut twin_tiers) =
                (CrossingTiers::default(), CrossingTiers::default());
            for _ in 0..200 {
                let from = SimTime::from_ticks((xorshift(&mut s) % 40_000_000) as i64 - 5_000_000);
                let horizon =
                    from + SimDuration::from_ticks((xorshift(&mut s) % 60_000_000) as i64);
                let initial = (xorshift(&mut s) % 1000) as f64 / 999.0 * cap;
                let target = (xorshift(&mut s) % 1000) as f64 / 999.0 * cap;
                let offset = (xorshift(&mut s) % 1000) as f64 / 137.0 - 3.5;
                let on_grid = f.first_accumulation_crossing(
                    &mut grid_tiers,
                    from,
                    horizon,
                    initial,
                    offset,
                    cap,
                    target,
                );
                let on_table = twin.first_accumulation_crossing(
                    &mut twin_tiers,
                    from,
                    horizon,
                    initial,
                    offset,
                    cap,
                    target,
                );
                assert_eq!(
                    on_grid, on_table,
                    "crossing from {from} to {horizon}, {initial}->{target} offset {offset}"
                );
            }
            assert_eq!(grid_tiers, twin_tiers);
            assert!(grid_tiers.bisect > 0 && grid_tiers.scan > 0 && grid_tiers.reject > 0);
        }
    }

    #[test]
    fn grids_keep_no_breakpoint_table() {
        let u = SimTime::from_whole_units;
        // A paper profile: 10 000 one-unit samples. It retains exactly
        // its values and every fourth prefix sum.
        let n = 10_000;
        let mut samples = Vec::with_capacity(n);
        samples.extend((0..n).map(|i| (i % 7) as f64 * 0.25));
        let paper = PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_whole_units(1),
            samples,
            Extension::Hold,
        )
        .unwrap();
        assert_eq!(paper.breakpoints.capacity(), 0);
        let words = paper.values.capacity() + paper.prefix.capacity();
        assert_eq!(words * std::mem::size_of::<f64>(), 100_008);
        assert_eq!(paper.domain_end(), u(10_000));
        // `new` over uniform Hold breakpoints, `constant` and a
        // deserialized grid drop the table too.
        let stepped = PiecewiseConstant::new(
            vec![u(-4), u(-1), u(2), u(5)],
            vec![1.0, 2.0, 3.0],
            Extension::Hold,
        )
        .unwrap();
        let back = PiecewiseConstant::from_value(&paper.to_value()).unwrap();
        for (f, what) in [
            (&stepped, "new"),
            (&PiecewiseConstant::constant(0.5), "constant"),
            (&back, "deserialized"),
        ] {
            assert_ne!(f.grid_dt, 0, "{what}");
            assert_eq!(f.breakpoints.capacity(), 0, "{what}");
        }
        assert_eq!(back, paper);
        assert_eq!(
            stepped.breakpoint_iter().collect::<Vec<_>>(),
            vec![u(-4), u(-1), u(2), u(5)]
        );
        // A non-uniform `new` and a `Cycle` grid keep all n + 1
        // breakpoints.
        let uneven =
            PiecewiseConstant::new(vec![u(0), u(1), u(3)], vec![1.0, 2.0], Extension::Hold)
                .unwrap();
        assert_eq!(uneven.breakpoints, vec![u(0), u(1), u(3)]);
        assert_eq!(uneven.grid_dt, 0);
        let f = PiecewiseConstant::from_samples(
            u(2),
            SimDuration::from_whole_units(3),
            vec![1.0; 4],
            Extension::Cycle,
        )
        .unwrap();
        assert_eq!(f.grid_dt, 0);
        assert_eq!(f.breakpoints, vec![u(2), u(5), u(8), u(11), u(14)]);
        let g =
            PiecewiseConstant::new(f.breakpoints.clone(), vec![1.0; 4], Extension::Cycle).unwrap();
        assert_eq!(g.breakpoints.len(), 5);
    }

    #[test]
    fn grids_step_to_the_right_end_across_the_tick_range() {
        // From negative ticks, where `k·dt` alone overflows: each grid is
        // the largest that fits, so one more sample is rejected.
        for (start, step) in [
            (-(1i64 << 62), 1i64 << 62),
            (-(1i64 << 62) - 5, 1 << 61),
            (i64::MIN, i64::MAX),
            (i64::MAX - 10 * 3_000_000, 3_000_000),
        ] {
            let (t0, dt) = (SimTime::from_ticks(start), SimDuration::from_ticks(step));
            let fit = ((i128::from(i64::MAX) - i128::from(start)) / i128::from(step)) as usize;
            let end = i128::from(start) + fit as i128 * i128::from(step);
            let f =
                PiecewiseConstant::from_samples(t0, dt, vec![1.0; fit], Extension::Hold).unwrap();
            assert_eq!(
                i128::from(f.domain_end().as_ticks()),
                end,
                "start {start}, dt {step}"
            );
            assert_eq!(f.next_breakpoint_after(t0), Some(f.breakpoint(1)));
            let want: Vec<SimTime> = (0..=fit as i128)
                .map(|k| SimTime::from_ticks((i128::from(start) + k * i128::from(step)) as i64))
                .collect();
            assert_eq!(f.breakpoint_iter().collect::<Vec<_>>(), want);
            let twin = PiecewiseConstant::new(want, vec![1.0; fit], Extension::Hold).unwrap();
            assert_eq!(twin.breakpoints.capacity(), 0);
            assert_eq!(
                (twin.start, twin.end, twin.grid_dt),
                (f.start, f.end, f.grid_dt)
            );
            assert!(matches!(
                PiecewiseConstant::from_samples(t0, dt, vec![1.0; fit + 1], Extension::Hold),
                Err(PiecewiseError::NotIncreasing { .. })
            ));
        }
    }

    /// Profile lengths that cover every position in a block of
    /// [`PREFIX_STRIDE`] segments, and a paper-sized profile.
    const FOLD_LENGTHS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10_000];

    /// `F(b_k)` for every `k` in `0..=n`, folded over the breakpoints as
    /// construction folded the full table.
    fn full_prefix(f: &PiecewiseConstant) -> Vec<f64> {
        let b: Vec<SimTime> = f.breakpoint_iter().collect();
        let mut acc = 0.0;
        let mut sums = vec![acc];
        for (i, &v) in f.values.iter().enumerate() {
            acc += v * (b[i + 1] - b[i]).as_units();
            sums.push(acc);
        }
        sums
    }

    #[test]
    fn strided_prefix_matches_the_full_fold() {
        let mut s = 0x57_21DE_u64;
        let special = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300];
        for round in 0..4 {
            for n in FOLD_LENGTHS {
                let values: Vec<f64> = (0..n)
                    .map(|_| match xorshift(&mut s) % 4 {
                        0 => special[(xorshift(&mut s) % special.len() as u64) as usize],
                        _ => (xorshift(&mut s) % 20_001) as f64 / 1_000.0 - 10.0,
                    })
                    .collect();
                let t0 = SimTime::from_ticks((xorshift(&mut s) % 4_000_000) as i64 - 2_000_000);
                // Spacings whose unit widths do and do not round.
                let dt = SimDuration::from_ticks([7, 250_000, 1_000_000, 2_345_679][round]);
                let mut t = t0;
                let mut uneven = vec![t];
                for _ in 0..n {
                    t += SimDuration::from_ticks(1 + (xorshift(&mut s) % 3_000_000) as i64);
                    uneven.push(t);
                }
                for extension in [Extension::Hold, Extension::Cycle] {
                    let grid =
                        PiecewiseConstant::from_samples(t0, dt, values.clone(), extension).unwrap();
                    let table =
                        PiecewiseConstant::new(uneven.clone(), values.clone(), extension).unwrap();
                    for (f, form) in [(&grid, "grid"), (&table, "table")] {
                        let ctx = format!("round {round}, n {n}, {extension:?} {form}");
                        let want = full_prefix(f);
                        for (k, sum) in want.iter().enumerate() {
                            assert_eq!(f.prefix_at(k).to_bits(), sum.to_bits(), "F(b_{k}), {ctx}");
                        }
                        assert_eq!(f.total().to_bits(), want[n].to_bits(), "total, {ctx}");
                        assert_eq!(f.prefix.len(), n / PREFIX_STRIDE + 1, "kept sums, {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn serde_round_trip_rebuilds_prefix_table() {
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(4),
                SimTime::from_whole_units(9),
            ],
            vec![1.25, -0.5],
            Extension::Cycle,
        )
        .unwrap();
        let back = PiecewiseConstant::from_value(&f.to_value()).unwrap();
        assert_eq!(back, f);
        let (a, b) = (SimTime::from_units(-3.5), SimTime::from_units(21.0));
        assert_eq!(back.integrate(a, b), f.integrate(a, b));
        // A grid writes every breakpoint it steps, as a table would.
        assert_eq!(
            serde_json::to_string(&PiecewiseConstant::constant(0.5)).unwrap(),
            r#"{"breakpoints":[0,1000000],"values":[0.5],"extension":"Hold"}"#
        );
    }

    #[test]
    fn serde_rejects_invalid_profiles() {
        let f = sample_fn();
        let mut v = f.to_value();
        if let serde::Value::Map(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "values" {
                    *val = serde::Value::Seq(vec![]);
                }
            }
        }
        assert!(PiecewiseConstant::from_value(&v).is_err());
    }

    // ------------------------------------------------------------------
    // Crossing shortcuts: the scan tier's reach bound and the monotone
    // first-reach solve.
    // ------------------------------------------------------------------

    /// A random profile of 1–40 signed segments on uniform or uneven
    /// breakpoints between a quarter unit and 2.25 units apart.
    fn random_profile(s: &mut u64, uniform: bool, ext: Extension) -> PiecewiseConstant {
        let gap = |s: &mut u64| 250_000 + (xorshift(s) % 2_000_000) as i64;
        let n = 1 + (xorshift(s) % 40) as usize;
        let dt = gap(s);
        let mut t = (xorshift(s) % 4_000_000) as i64 - 2_000_000;
        let mut breakpoints = vec![SimTime::from_ticks(t)];
        for _ in 0..n {
            t += if uniform { dt } else { gap(s) };
            breakpoints.push(SimTime::from_ticks(t));
        }
        let values = (0..n)
            .map(|_| (xorshift(s) % 2001) as f64 / 100.0 - 8.0)
            .collect();
        PiecewiseConstant::new(breakpoints, values, ext).unwrap()
    }

    /// A fraction in `[0, 1]` that lands on either end now and then.
    fn random_frac(s: &mut u64) -> f64 {
        match xorshift(s) % 8 {
            0 => 0.0,
            1 => 1.0,
            _ => (xorshift(s) % 10_001) as f64 / 10_000.0,
        }
    }

    #[test]
    fn reach_bound_applies_to_the_scan_tier_only() {
        let u = SimTime::from_whole_units;
        // All rates ≥ 0 and the target far out of reach: the query stays
        // on the bisect tier.
        let f = sample_fn();
        let mut tiers = CrossingTiers::default();
        let hit = f.first_accumulation_crossing(&mut tiers, u(0), u(1), 0.0, 0.0, 100.0, 50.0);
        assert_eq!(hit, None);
        assert_eq!((tiers.bisect, tiers.reject), (1, 0));
        // Mixed signs: out of reach is rejected, within reach is scanned.
        let g = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(10), u(20)],
            vec![1.0, -1.0],
            Extension::Hold,
        )
        .unwrap();
        let mut tiers = CrossingTiers::default();
        let hit = g.first_accumulation_crossing(&mut tiers, u(0), u(2), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(hit, None);
        assert_eq!((tiers.scan, tiers.reject), (0, 1));
        let hit = g.first_accumulation_crossing(&mut tiers, u(0), u(20), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(hit, Some(u(5)));
        assert_eq!((tiers.scan, tiers.reject), (1, 1));
    }

    /// Checks one crossing query against the scan: a reject (by either
    /// rate bound) must be a query the scan misses, and off the bisect
    /// tier a non-cyclic answer must be the scan's, bit for bit. Returns
    /// whether the reach bound rejected it.
    #[allow(clippy::too_many_arguments)]
    fn check_against_scan(
        f: &PiecewiseConstant,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> bool {
        let q = format!(
            "{:?} [{from}, {horizon}) {initial}->{target} offset {offset} cap {cap}",
            f.extension()
        );
        let mut tiers = CrossingTiers::default();
        let tier = f.classify_crossing(&mut tiers, from, horizon, initial, offset, cap, target);
        let naive =
            f.first_accumulation_crossing_naive(from, horizon, initial, offset, cap, target);
        if f.extension() != Extension::Cycle && !matches!(tier, Crossing::Bisect) {
            let fast = crossing(f, (from, horizon), initial, offset, cap, target);
            assert_eq!(fast, naive, "{q}");
        }
        let Crossing::Decided(None) = tier else {
            return false;
        };
        assert_eq!(naive, None, "rejected but the scan crosses: {q}");
        if f.extension() == Extension::Cycle {
            let mut scan = ClampedScan {
                level: initial,
                offset,
                cap,
                target,
            };
            assert_eq!(
                f.scan_crossing_cyclic(&mut scan, from, horizon),
                None,
                "rejected but the period-skip scan crosses: {q}"
            );
        }
        let (rate_min, rate_max) = f.rate_bounds(offset);
        rate_min < 0.0 && rate_max > 0.0
    }

    #[test]
    fn reach_bound_rejects_only_what_the_scan_misses() {
        let mut s = 0x5EED_u64;
        for ext in [Extension::Hold, Extension::Cycle] {
            let (mut random_rejects, mut edge_rejects, mut edge_kept) = (0, 0, 0);
            for uniform in [true, false] {
                for _ in 0..8 {
                    let f = random_profile(&mut s, uniform, ext);
                    for _ in 0..300 {
                        let cap = [0.0, 1e-9, 0.5, 25.0, 1e4][(xorshift(&mut s) % 5) as usize];
                        let initial = random_frac(&mut s) * cap;
                        let target = random_frac(&mut s) * cap;
                        let offset = (xorshift(&mut s) % 4001) as f64 / 200.0 - 10.0;
                        // Windows of 1 tick to 10 units, log-uniform.
                        let span = 10f64.powf((xorshift(&mut s) % 7001) as f64 / 1000.0);
                        let from = SimTime::from_ticks(
                            (xorshift(&mut s) % 60_000_000) as i64 - 20_000_000,
                        );
                        let horizon = from + SimDuration::from_ticks(span as i64);
                        if check_against_scan(&f, from, horizon, initial, offset, cap, target) {
                            random_rejects += 1;
                        }
                    }
                    // Windows inside the fastest segment, with targets at
                    // the edge of reach: there the bound is tight, and its
                    // margin must cover the scan's tolerance and rounding.
                    let (vmin, vmax) = (f.domain_min(), f.domain_max());
                    if vmin >= vmax {
                        continue;
                    }
                    let offset = -(vmin + (vmax - vmin) * random_frac(&mut s).clamp(0.1, 0.9));
                    let (rate_min, rate_max) = f.rate_bounds(offset);
                    let cap = 25.0;
                    for upward in [true, false] {
                        let (fastest, start) = if upward {
                            (rate_max, 0.25 * cap)
                        } else {
                            (-rate_min, 0.75 * cap)
                        };
                        let k = f
                            .values()
                            .iter()
                            .position(|&v| {
                                let rate = v + offset;
                                rate == if upward { rate_max } else { rate_min }
                            })
                            .expect("a domain value attains each rate bound");
                        let seg_end = f.breakpoint(k + 1);
                        let from = f.breakpoint(k)
                            + SimDuration::from_ticks((xorshift(&mut s) % 100_000) as i64);
                        let longest = SimDuration::from_units(0.5 * cap / fastest);
                        let horizon = seg_end.min(from + longest);
                        let reach = fastest * (horizon - from).as_units();
                        for rel in [-1e-6, -1e-12, 0.0, 1e-12, 1e-6] {
                            for abs in [0.0, 5e-16, 2e-15] {
                                let step = reach * (1.0 + rel) + abs;
                                let target = if upward { start + step } else { start - step };
                                if check_against_scan(&f, from, horizon, start, offset, cap, target)
                                {
                                    edge_rejects += 1;
                                } else {
                                    edge_kept += 1;
                                }
                            }
                        }
                    }
                }
            }
            assert!(
                random_rejects > 100 && edge_rejects > 10 && edge_kept > 10,
                "{ext:?}: {random_rejects} random and {edge_rejects} edge rejects, \
                 {edge_kept} edge queries kept"
            );
        }
    }

    /// Non-negative samples with zero stretches, some of them -0.0, and
    /// magnitudes from 1e-9 to 1e3: a tiny rate on a large accumulated
    /// integral rounds to a staircase, which sends the first-reach
    /// solve's guess to both fallbacks.
    fn staircase_samples(s: &mut u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match xorshift(s) % 6 {
                0 => 0.0,
                1 => -0.0,
                _ => {
                    let scale = 10f64.powi((xorshift(s) % 13) as i32 - 9);
                    (xorshift(s) % 1000) as f64 * scale
                }
            })
            .collect()
    }

    #[test]
    fn grid_first_reach_matches_bisection() {
        let mut s = 0xF1A7_u64;
        let cap = 1e3;
        for round in 0..36 {
            let n = match round % 12 {
                r @ 0..=9 => FOLD_LENGTHS[r],
                _ => 1 + (xorshift(&mut s) % 48) as usize,
            };
            let samples = staircase_samples(&mut s, n);
            let t0 = (xorshift(&mut s) % 4_000_000) as i64 - 2_000_000;
            // A grid, its table twin, and (every third round with more
            // than one segment) a table on uneven breakpoints.
            let grid = PiecewiseConstant::from_samples(
                SimTime::from_ticks(t0),
                SimDuration::from_ticks(250_000 + (xorshift(&mut s) % 2_000_000) as i64),
                samples.clone(),
                Extension::Hold,
            )
            .unwrap();
            let mut profiles = vec![table_twin(&grid), grid];
            if round % 3 == 0 && n > 1 {
                let mut t = t0;
                let mut breakpoints = vec![SimTime::from_ticks(t)];
                for _ in 0..n {
                    t += 1 + (xorshift(&mut s) % 3_000_000) as i64;
                    breakpoints.push(SimTime::from_ticks(t));
                }
                let uneven = PiecewiseConstant::new(breakpoints, samples, Extension::Hold).unwrap();
                assert_eq!(uneven.grid_dt, 0);
                profiles.push(uneven);
            }
            for f in &profiles {
                assert!(f.domain_min() >= 0.0);
                let end = f.end.as_ticks();
                for _ in 0..300 {
                    // From a breakpoint or from inside a segment.
                    let k = (xorshift(&mut s) % n as u64) as usize;
                    let (b, b_next) = (f.breakpoint(k).as_ticks(), f.breakpoint(k + 1).as_ticks());
                    let into = match xorshift(&mut s) % 3 {
                        0 => 0,
                        _ => (xorshift(&mut s) % (b_next - b) as u64) as i64,
                    };
                    let from = SimTime::from_ticks(b + into);
                    // Horizons inside the domain, at its end, or past it.
                    let horizon = SimTime::from_ticks(match xorshift(&mut s) % 4 {
                        0 => end,
                        1 => end + 1 + (xorshift(&mut s) % 5_000_000) as i64,
                        _ => {
                            from.as_ticks()
                                + 1
                                + (xorshift(&mut s) % (end - from.as_ticks()) as u64) as i64
                        }
                    });
                    let cum_from = f.cum(from);
                    // The first segment at or after `k` that ends a block
                    // of kept sums, where `prefix_at` folds the most.
                    let last = k + (PREFIX_STRIDE - 1 - k % PREFIX_STRIDE);
                    let needed = match xorshift(&mut s) % 6 {
                        // Exactly the gain at a breakpoint.
                        0 => f.prefix_at((xorshift(&mut s) % (n as u64 + 1)) as usize) - cum_from,
                        // At the edge of the ±1e-15 tolerance.
                        1 => [5e-16, 1e-15, 1e-15 + f64::EPSILON * 1e-15, 1.5e-15, 2e-15]
                            [(xorshift(&mut s) % 5) as usize],
                        // Inside a block's last segment.
                        2 if last < n => {
                            let blocks = ((n - 1 - last) / PREFIX_STRIDE + 1) as u64;
                            let j = last + PREFIX_STRIDE * (xorshift(&mut s) % blocks) as usize;
                            let (lo, hi) = (f.prefix_at(j), f.prefix_at(j + 1));
                            lo + (hi - lo) * random_frac(&mut s) - cum_from
                        }
                        _ => (xorshift(&mut s) % 200_000) as f64 / 100.0,
                    };
                    for offset in [0.0, -0.0] {
                        let want =
                            bisect_crossing(from, horizon, needed, offset, cum_from, |t| f.cum(t));
                        assert_eq!(
                            f.first_reach(from, horizon, needed, offset),
                            want,
                            "needed {needed} over [{from}, {horizon}), offset {offset}"
                        );
                        // The public query answers the grid as it answers
                        // its table twin.
                        let initial = random_frac(&mut s) * cap;
                        let target = random_frac(&mut s) * cap;
                        let window = (from, horizon);
                        if f.grid_dt != 0 {
                            assert_eq!(
                                crossing(f, window, initial, offset, cap, target),
                                crossing(&profiles[0], window, initial, offset, cap, target),
                                "{initial}->{target} over [{from}, {horizon}), offset {offset}"
                            );
                        }
                    }
                }
            }
        }
    }
}
