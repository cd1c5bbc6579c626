//! Piecewise-constant functions of simulated time.
//!
//! Harvest-power profiles are represented as piecewise-constant functions
//! so that every energy integral `∫ P(t) dt` and every linear crossing
//! time can be evaluated in closed form — the whole simulation stack stays
//! exact and deterministic.
//!
//! # Cost model
//!
//! Construction precomputes a cumulative-integral table at the
//! breakpoints, so [`PiecewiseConstant::integrate`] is a difference of
//! two closed-form antiderivative evaluations (`F(t2) − F(t1)`), each one
//! binary search — `O(log n)` in the segment count, independent of how
//! many segments the window spans. Extension tails are folded in closed
//! form: a full [`Extension::Cycle`] period integrates to a constant, so
//! cyclic integrals never unroll periods.
//!
//! Callers that sweep time monotonically (simulators, iterators) can hold
//! a [`Cursor`]: it remembers the last segment touched and re-anchors
//! with a short forward gallop, making `value_at` / `integrate` /
//! breakpoint queries amortized `O(1)` while staying `O(log n)` worst
//! case for arbitrary access.
//!
//! Profiles on a uniform grid with [`Extension::Hold`] (every sampled
//! harvest profile) skip the search altogether: each `*_with` query
//! checks once for a [`UniformGridView`] and, when there is one, indexes
//! the segment directly and leaves the cursor's position untouched. The
//! cursor code is the fallback for non-uniform, `Zero` and `Cycle`
//! profiles. Both paths evaluate the same IEEE expressions, so every
//! answer is bit-identical whichever path serves it.
//!
//! # Storage
//!
//! A profile keeps a breakpoint table only when it has no
//! [`UniformGridView`]. A uniform `Hold` grid stores its start, spacing
//! and segment count, and steps breakpoint `k` as `start + k·dt` in
//! integer ticks, so it holds `n` values and `n + 1` prefix sums and
//! nothing else per segment. Equality and the serialized form still
//! list every breakpoint.

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
    /// The function is zero outside its domain.
    Zero,
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
    /// `prefix[i] = ∫ f over [breakpoints[0], breakpoints[i])`; one entry
    /// per breakpoint, rebuilt on construction and deserialization.
    prefix: Vec<f64>,
    vmin: f64,
    vmax: f64,
    /// First and last breakpoint: the explicit domain `[start, end)`.
    start: SimTime,
    end: SimTime,
    /// Common breakpoint spacing in ticks when the grid is uniform and
    /// the extension is [`Extension::Hold`], else 0. Detected once at
    /// construction, with its reciprocal `grid_inv_dt`, so the grid check
    /// in front of every query is one branch and no division.
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

/// Lookup state for monotone time access.
///
/// A `Cursor` remembers the segment (and, under [`Extension::Cycle`], the
/// period image) of the last query it served. When the next query lands
/// in the same or a nearby later segment — the overwhelmingly common case
/// for simulators that sweep time forward — the `*_with` methods re-anchor
/// with a short forward gallop instead of a fresh binary search, making
/// `value_at` / `integrate` / breakpoint lookups amortized `O(1)`.
/// Queries that jump backwards or far ahead simply fall back to the
/// `O(log n)` search, so a cursor is never *required* to be monotone —
/// it is only fastest that way. Queries on a profile with a
/// [`UniformGridView`] need no search and leave the cursor's position
/// alone; there the cursor only collects the crossing-tier counters.
///
/// Cursors are plain data: cheap to copy, valid for the lifetime of the
/// profile they were created against, and independent of each other.
/// Using a cursor against a *different* profile is memory-safe but may
/// cost an extra fallback search; create one cursor per profile.
///
/// # Examples
///
/// ```
/// use harvest_sim::piecewise::PiecewiseConstant;
/// use harvest_sim::time::SimTime;
///
/// let f = PiecewiseConstant::constant(2.0);
/// let mut cur = f.cursor();
/// let mut total = 0.0;
/// for t in 0..100 {
///     let (a, b) = (SimTime::from_whole_units(t), SimTime::from_whole_units(t + 1));
///     total += f.integrate_with(&mut cur, a, b);
/// }
/// assert!((total - 200.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor {
    /// Last segment index served.
    idx: usize,
    /// Period image the index belongs to (always 0 unless `Cycle`).
    period: i64,
    /// Whether the hint has been populated yet.
    init: bool,
    /// Lookup and crossing-solver observability counters.
    stats: CursorStats,
}

impl Cursor {
    /// Accumulated lookup/solver counters; see [`CursorStats`].
    pub fn stats(&self) -> CursorStats {
        self.stats
    }
}

/// Observability counters accumulated by a [`Cursor`] as it serves
/// lookups and crossing queries. All counters wrap on overflow (they
/// are diagnostics, not accounting).
///
/// The lookup counters partition [`locates`](Self::locates): a call
/// either hits the hinted segment exactly, gallops forward (adding the
/// number of segments skipped to `gallop_segments`), jumps backwards,
/// or runs without a usable hint. They count only the cursor path:
/// queries a [`UniformGridView`] answers do no search and leave them
/// untouched. The crossing tiers (`cross_*`) are counted on both paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// Hinted segment lookups served.
    pub locates: u32,
    /// Lookups answered by the hinted segment itself (the O(1) path).
    pub hint_hits: u32,
    /// Total segments advanced past the hint by the gallop search.
    pub gallop_segments: u32,
    /// Lookups that galloped forward at least one segment.
    pub gallops: u32,
    /// Lookups that jumped backwards (hint discarded).
    pub backward_jumps: u32,
    /// Lookups with no usable hint (fresh cursor or period change).
    pub fresh_searches: u32,
    /// Crossing queries answered by an O(1) reject: the rate-sign
    /// bound or the scan tier's reach bound.
    pub cross_reject: u32,
    /// Crossing queries answered on the monotone tier (tick bisection,
    /// or the uniform grid's first-reach solve).
    pub cross_bisect: u32,
    /// Crossing queries answered by the clamped segment scan.
    pub cross_scan: u32,
    /// Crossing queries answered by the cyclic period-skip scan.
    pub cross_cyclic: u32,
}

impl CursorStats {
    /// Sums another cursor's counters into this one (wrapping).
    pub fn merge(&mut self, other: &CursorStats) {
        self.locates = self.locates.wrapping_add(other.locates);
        self.hint_hits = self.hint_hits.wrapping_add(other.hint_hits);
        self.gallop_segments = self.gallop_segments.wrapping_add(other.gallop_segments);
        self.gallops = self.gallops.wrapping_add(other.gallops);
        self.backward_jumps = self.backward_jumps.wrapping_add(other.backward_jumps);
        self.fresh_searches = self.fresh_searches.wrapping_add(other.fresh_searches);
        self.cross_reject = self.cross_reject.wrapping_add(other.cross_reject);
        self.cross_bisect = self.cross_bisect.wrapping_add(other.cross_bisect);
        self.cross_scan = self.cross_scan.wrapping_add(other.cross_scan);
        self.cross_cyclic = self.cross_cyclic.wrapping_add(other.cross_cyclic);
    }
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
        let mut prefix = Vec::with_capacity(breakpoints.len());
        let mut acc = 0.0;
        prefix.push(0.0);
        for (i, &v) in values.iter().enumerate() {
            acc += v * (breakpoints[i + 1] - breakpoints[i]).as_units();
            prefix.push(acc);
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
        Self::assemble(table, domain, values, extension, prefix, range, grid_dt)
    }

    /// The struct from its parts and derived caches: the breakpoint
    /// table (empty on a uniform grid), the domain `(start, end)`, the
    /// prefix table, the `(min, max)` range and the uniform spacing in
    /// ticks (0 if none), whose reciprocal it derives.
    fn assemble(
        breakpoints: Vec<SimTime>,
        (start, end): (SimTime, SimTime),
        values: Vec<f64>,
        extension: Extension,
        prefix: Vec<f64>,
        (vmin, vmax): (f64, f64),
        grid_dt: i64,
    ) -> Self {
        debug_assert_eq!(breakpoints.is_empty(), grid_dt != 0);
        PiecewiseConstant {
            breakpoints,
            values,
            extension,
            prefix,
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
        let mut prefix = Vec::with_capacity(n + 1);
        let (mut acc, mut range) = (0.0, EMPTY_RANGE);
        prefix.push(acc);
        for (i, &v) in samples.iter().enumerate() {
            if !v.is_finite() {
                return Err(PiecewiseError::NonFiniteValue { index: i });
            }
            acc += v * dt_units;
            prefix.push(acc);
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
            prefix,
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
        *self.prefix.last().expect("non-empty by construction")
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

    /// Creates a fresh [`Cursor`] for this profile.
    #[inline]
    pub fn cursor(&self) -> Cursor {
        Cursor::default()
    }

    /// The `O(1)` direct-index view over this profile, available when the
    /// breakpoints are equally spaced (as built by
    /// [`Self::from_samples`]) and the extension is [`Extension::Hold`].
    /// Exactly these profiles keep no breakpoint table.
    ///
    /// Every view method computes the same IEEE expressions as its
    /// cursor-driven counterpart — only the breakpoint *search* is
    /// replaced by one integer division — so results are bit-identical
    /// (pinned by the `grid_view_*` tests). Every `*_with` query of this
    /// type answers through the view when it exists.
    #[inline]
    pub fn uniform_grid(&self) -> Option<UniformGridView<'_>> {
        if self.grid_dt == 0 {
            return None;
        }
        Some(UniformGridView {
            f: self,
            start_ticks: self.domain_start().as_ticks(),
            end_ticks: self.domain_end().as_ticks(),
            dt_ticks: self.grid_dt,
            inv_dt: self.grid_inv_dt,
        })
    }

    /// Maps `t` into the explicit domain, returning the folded instant,
    /// the period image it fell in (non-zero only under `Cycle`), and
    /// whether the original instant was outside a non-cyclic domain.
    #[inline]
    fn fold_with_period(&self, t: SimTime) -> (SimTime, i64, Outside) {
        let start = self.domain_start();
        let end = self.domain_end();
        if t >= start && t < end {
            return (t, 0, Outside::Inside);
        }
        match self.extension {
            Extension::Cycle => {
                let period = (end - start).as_ticks();
                let rel = (t - start).as_ticks();
                let k = rel.div_euclid(period);
                let r = rel.rem_euclid(period);
                (start + SimDuration::from_ticks(r), k, Outside::Inside)
            }
            _ if t < start => (t, 0, Outside::Before),
            _ => (t, 0, Outside::After),
        }
    }

    /// Segment index containing `t`, which must lie inside the explicit
    /// domain. `hint` is the caller's last known index: the search
    /// gallops forward from it with doubling strides and binary-searches
    /// only the bracketed range, so a lookup `d` segments past the hint
    /// costs `O(log d)` — `O(1)` for the repeat/adjacent hits that
    /// dominate monotone sweeps — instead of `O(log n)` from scratch.
    ///
    /// A uniform grid keeps no table to search: one division gives the
    /// index the search would.
    #[inline]
    fn locate(&self, t: SimTime, hint: Option<usize>) -> usize {
        if self.grid_dt != 0 {
            return ((t - self.start).as_ticks() / self.grid_dt) as usize;
        }
        let bps = &self.breakpoints;
        let last = self.values.len() - 1;
        if let Some(h) = hint {
            let lo = h.min(last);
            if bps[lo] <= t {
                if lo == last || bps[lo + 1] > t {
                    return lo;
                }
                // Gallop: find the first `lo + stride` past `t`, then
                // binary-search inside the bracket.
                let mut stride = 1usize;
                let mut below = lo + 1; // invariant: bps[below] <= t
                loop {
                    let probe = below.saturating_add(stride).min(last);
                    if bps[probe] <= t {
                        if probe == last {
                            return last;
                        }
                        below = probe;
                        stride *= 2;
                    } else {
                        // bps[below] <= t < bps[probe]
                        let range = &bps[below + 1..probe];
                        return below + range.partition_point(|&b| b <= t);
                    }
                }
            }
        }
        // partition_point returns the count of breakpoints <= t;
        // segment index is that count minus one.
        (bps.partition_point(|&b| b <= t) - 1).min(last)
    }

    /// [`locate`](Self::locate) driven by (and refreshing) a cursor. The
    /// hint is only trusted within the same period image.
    #[inline]
    fn locate_with(&self, cur: &mut Cursor, folded: SimTime, period: i64) -> usize {
        let hint = if cur.init && cur.period == period {
            Some(cur.idx)
        } else {
            None
        };
        let idx = self.locate(folded, hint);
        let mut stats = cur.stats;
        stats.locates = stats.locates.wrapping_add(1);
        match hint {
            Some(h) => {
                let lo = h.min(self.values.len() - 1);
                if idx == lo {
                    stats.hint_hits = stats.hint_hits.wrapping_add(1);
                } else if idx > lo {
                    stats.gallops = stats.gallops.wrapping_add(1);
                    stats.gallop_segments = stats.gallop_segments.wrapping_add((idx - lo) as u32);
                } else {
                    stats.backward_jumps = stats.backward_jumps.wrapping_add(1);
                }
            }
            None => stats.fresh_searches = stats.fresh_searches.wrapping_add(1),
        }
        *cur = Cursor {
            idx,
            period,
            init: true,
            stats,
        };
        idx
    }

    /// Value of the function at instant `t`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        self.value_at_with(&mut Cursor::default(), t)
    }

    /// [`value_at`](Self::value_at) with cursor acceleration (none is
    /// needed on a uniform grid).
    #[inline]
    pub fn value_at_with(&self, cur: &mut Cursor, t: SimTime) -> f64 {
        match self.uniform_grid() {
            Some(g) => g.value_at(t),
            None => self.value_at_cursor(cur, t),
        }
    }

    /// The cursor path of [`Self::value_at_with`].
    fn value_at_cursor(&self, cur: &mut Cursor, t: SimTime) -> f64 {
        let (folded, period, outside) = self.fold_with_period(t);
        match outside {
            Outside::Before => match self.extension {
                Extension::Hold => self.values[0],
                Extension::Zero => 0.0,
                Extension::Cycle => unreachable!("cycle folding maps into domain"),
            },
            Outside::After => match self.extension {
                Extension::Hold => *self.values.last().expect("non-empty"),
                Extension::Zero => 0.0,
                Extension::Cycle => unreachable!("cycle folding maps into domain"),
            },
            Outside::Inside => self.values[self.locate_with(cur, folded, period)],
        }
    }

    /// Cumulative integral `F(t) = ∫ f over [domain_start, t)` (signed:
    /// negative for `t` before the domain start), with all three
    /// extensions folded in closed form. A full `Cycle` period is the
    /// constant `total()`, so no periods are ever unrolled.
    fn cum_with(&self, cur: &mut Cursor, t: SimTime) -> f64 {
        let start = self.domain_start();
        let end = self.domain_end();
        if t >= start && t < end {
            let idx = self.locate_with(cur, t, 0);
            return self.prefix[idx] + self.values[idx] * (t - self.breakpoint(idx)).as_units();
        }
        match self.extension {
            Extension::Hold => {
                if t < start {
                    self.values[0] * (t - start).as_units()
                } else {
                    self.total() + self.values[self.values.len() - 1] * (t - end).as_units()
                }
            }
            Extension::Zero => {
                if t < start {
                    0.0
                } else {
                    self.total()
                }
            }
            Extension::Cycle => {
                let period = (end - start).as_ticks();
                let rel = (t - start).as_ticks();
                let k = rel.div_euclid(period);
                let r = rel.rem_euclid(period);
                let folded = start + SimDuration::from_ticks(r);
                let idx = self.locate_with(cur, folded, k);
                let inner = self.prefix[idx]
                    + self.values[idx] * (folded - self.breakpoint(idx)).as_units();
                k as f64 * self.total() + inner
            }
        }
    }

    #[inline]
    fn cum(&self, t: SimTime) -> f64 {
        self.cum_with(&mut Cursor::default(), t)
    }

    /// Exact integral of the function over `[t1, t2)`, computed as the
    /// antiderivative difference `F(t2) − F(t1)` — one binary search per
    /// endpoint, independent of how many segments the window spans.
    ///
    /// Returns a negated integral when `t2 < t1` (exactly: IEEE
    /// subtraction is antisymmetric).
    pub fn integrate(&self, t1: SimTime, t2: SimTime) -> f64 {
        self.integrate_with(&mut Cursor::default(), t1, t2)
    }

    /// [`integrate`](Self::integrate) with cursor acceleration: both
    /// endpoints resolve through `cur`, so windows that slide forward in
    /// time cost amortized `O(1)` (`O(1)` outright on a uniform grid).
    #[inline]
    pub fn integrate_with(&self, cur: &mut Cursor, t1: SimTime, t2: SimTime) -> f64 {
        match self.uniform_grid() {
            Some(g) => g.integrate(t1, t2),
            None => self.integrate_cursor(cur, t1, t2),
        }
    }

    /// The cursor path of [`Self::integrate_with`].
    fn integrate_cursor(&self, cur: &mut Cursor, t1: SimTime, t2: SimTime) -> f64 {
        let a = self.cum_with(cur, t1);
        let b = self.cum_with(cur, t2);
        b - a
    }

    /// Reference implementation of [`integrate`](Self::integrate) that
    /// walks every segment in the window.
    ///
    /// Kept as the ground truth for property tests and as the baseline
    /// for benchmarks; `O(segments in window)` instead of `O(log n)`.
    pub fn integrate_naive(&self, t1: SimTime, t2: SimTime) -> f64 {
        if t2 < t1 {
            return -self.integrate_naive(t2, t1);
        }
        self.segments_between(t1, t2).map(|s| s.integral()).sum()
    }

    /// Iterates the maximal constant stretches of the function restricted
    /// to the window `[t1, t2)`, in order, covering it exactly.
    ///
    /// The iterator carries its own [`Cursor`], so each step is `O(1)`
    /// after the first.
    pub fn segments_between(&self, t1: SimTime, t2: SimTime) -> Segments<'_> {
        self.segments_between_with(Cursor::default(), t1, t2)
    }

    /// Like [`Self::segments_between`], but seeds the iterator's internal
    /// [`Cursor`] with `cur` so callers that walk consecutive windows can
    /// thread position across calls (retrieve the final state with
    /// [`Segments::state`]). The yielded segments are identical for any
    /// seed cursor; only the lookup cost changes.
    pub fn segments_between_with(&self, cur: Cursor, t1: SimTime, t2: SimTime) -> Segments<'_> {
        Segments {
            f: self,
            cursor: t1,
            end: t2,
            cur,
        }
    }

    /// Hands `emit` the segments [`Self::segments_between`] yields over
    /// `[t1, t2)`, in order. On a uniform grid the walk is
    /// `UniformGridView::for_each_segment` (direct index stepping);
    /// otherwise it runs on `cur`, which is left where the walk stopped.
    #[inline]
    pub fn for_each_segment_with(
        &self,
        cur: &mut Cursor,
        t1: SimTime,
        t2: SimTime,
        mut emit: impl FnMut(Segment),
    ) {
        if let Some(g) = self.uniform_grid() {
            g.for_each_segment(t1, t2, emit);
            return;
        }
        let mut segs = self.segments_between_with(*cur, t1, t2);
        for seg in segs.by_ref() {
            emit(seg);
        }
        *cur = segs.state();
    }

    /// Earliest `t ≥ from` at which the *accumulated* value
    /// `acc(t) = initial + ∫_from^t (f(u) + offset) du`, clamped to
    /// `[0, cap]` along the way, first reaches `target`.
    ///
    /// This is the primitive behind "when does the storage fill/empty"
    /// queries: `offset` is the (negated) constant drain, `cap` the
    /// storage capacity. Returns `None` if the level never reaches
    /// `target` before `horizon`.
    ///
    /// The solver answers in tiers, cheapest first; every tier returns
    /// the tick the clamped segment scan would:
    ///
    /// 1. **Rate-sign reject**, `O(1)`: the net rate `f + offset` is
    ///    bounded away from the target's direction, so `None`.
    /// 2. **Monotone tier**: the net rate cannot change sign, so the
    ///    level is monotone, clamping cannot precede the crossing, and
    ///    the earliest tick is bisected on the prefix-sum antiderivative
    ///    (`O(log T)` probes for a window of `T` ticks). On a uniform
    ///    grid where nothing drains (`offset == ±0.0`, values `≥ 0`,
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
    pub fn first_accumulation_crossing(
        &self,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        self.first_accumulation_crossing_with(
            &mut Cursor::default(),
            from,
            horizon,
            initial,
            offset,
            cap,
            target,
        )
    }

    /// [`first_accumulation_crossing`](Self::first_accumulation_crossing)
    /// with cursor acceleration for the `from` endpoint — useful when
    /// crossing queries are issued at monotonically increasing instants.
    /// On a uniform grid the query runs on the [`UniformGridView`]; the
    /// cursor then only counts the crossing tier.
    // One argument per scalar of the accumulation problem; bundling them
    // would only obscure the call sites.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn first_accumulation_crossing_with(
        &self,
        cur: &mut Cursor,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        match self.uniform_grid() {
            Some(g) => {
                g.crossing_counted(&mut cur.stats, from, horizon, initial, offset, cap, target)
            }
            None => self.first_accumulation_crossing_cursor(
                cur, from, horizon, initial, offset, cap, target,
            ),
        }
    }

    /// The cursor path of [`Self::first_accumulation_crossing_with`].
    #[allow(clippy::too_many_arguments)]
    fn first_accumulation_crossing_cursor(
        &self,
        cur: &mut Cursor,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        let tier =
            self.classify_crossing(&mut cur.stats, from, horizon, initial, offset, cap, target);
        match tier {
            Crossing::Decided(t) => t,
            Crossing::Bisect => {
                let cum_from = self.cum_with(cur, from);
                bisect_crossing(from, horizon, target - initial, offset, cum_from, |t| {
                    self.cum(t)
                })
            }
            Crossing::Scan => {
                let mut scan = ClampedScan {
                    level: initial,
                    offset,
                    cap,
                    target,
                };
                if self.extension == Extension::Cycle {
                    self.scan_crossing_cyclic(&mut scan, from, horizon)
                } else {
                    scan.run(self, from, horizon, None)
                }
            }
        }
    }

    /// The `O(1)` prelude both crossing paths share: checks the
    /// contract, answers trivial windows and provably unreachable
    /// targets, and otherwise picks the solver. Counts the tier taken in
    /// `stats`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn classify_crossing(
        &self,
        stats: &mut CursorStats,
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
            stats.cross_reject = stats.cross_reject.wrapping_add(1);
            return Crossing::Decided(None);
        }
        let monotone =
            (target > initial && rate_min >= 0.0) || (target < initial && rate_max <= 0.0);
        if monotone {
            stats.cross_bisect = stats.cross_bisect.wrapping_add(1);
            Crossing::Bisect
        } else if self.out_of_reach(from, horizon, initial, target, rate_min, rate_max, cap) {
            stats.cross_reject = stats.cross_reject.wrapping_add(1);
            Crossing::Decided(None)
        } else if self.extension == Extension::Cycle {
            stats.cross_cyclic = stats.cross_cyclic.wrapping_add(1);
            Crossing::Scan
        } else {
            stats.cross_scan = stats.cross_scan.wrapping_add(1);
            Crossing::Scan
        }
    }

    /// Bounds `(rate_min, rate_max)` on the net rate `f + offset` over
    /// all time. Under `Zero` the tails contribute rate `offset` alone,
    /// so 0 is folded into the value bounds conservatively.
    #[inline]
    fn rate_bounds(&self, offset: f64) -> (f64, f64) {
        let (lo, hi) = match self.extension {
            Extension::Zero => (self.vmin.min(0.0), self.vmax.max(0.0)),
            _ => (self.vmin, self.vmax),
        };
        (lo + offset, hi + offset)
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
            _ => per_pass,
        };
        let fastest = rate_max.max(-rate_min);
        let margin =
            1e-9 * (1.0 + cap + target.abs() + fastest * span) + segments * f64::EPSILON * cap;
        gap > rate * span + margin
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
    /// Monotone trajectory: [`bisect_crossing`].
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
/// `O(log T · log n)` for a horizon `T` ticks away on the cursor path,
/// `O(log T)` on a uniform grid.
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
    /// Scans `[lo, hi)`, returning the first crossing instant or updating
    /// `self.level` to the clamped level at `hi`. When `probe` is given,
    /// records the unclamped excursion envelope along the way.
    fn run(
        &mut self,
        f: &PiecewiseConstant,
        lo: SimTime,
        hi: SimTime,
        probe: Option<&mut Probe>,
    ) -> Option<SimTime> {
        self.scan(f.segments_between(lo, hi), probe)
    }

    /// The per-segment arithmetic of [`Self::run`] over any segment
    /// stream; the grid view feeds it [`GridSegments`], which yields the
    /// same segments as [`Segments`] over a uniform-grid window.
    fn scan(
        &mut self,
        segs: impl Iterator<Item = Segment>,
        mut probe: Option<&mut Probe>,
    ) -> Option<SimTime> {
        for seg in segs {
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outside {
    Inside,
    Before,
    After,
}

/// Iterator over [`Segment`]s, produced by
/// [`PiecewiseConstant::segments_between`].
#[derive(Debug)]
pub struct Segments<'a> {
    f: &'a PiecewiseConstant,
    cursor: SimTime,
    end: SimTime,
    cur: Cursor,
}

impl Segments<'_> {
    /// The iterator's current [`Cursor`], for threading into a later
    /// [`PiecewiseConstant::segments_between_with`] call over a window
    /// that resumes where this one stopped.
    pub fn state(&self) -> Cursor {
        self.cur
    }
}

impl Iterator for Segments<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.cursor >= self.end {
            return None;
        }
        let start = self.cursor;
        let value = self.f.value_at_cursor(&mut self.cur, start);
        let next_change = self
            .f
            .next_breakpoint_after_cursor(&mut self.cur, start)
            .unwrap_or(SimTime::MAX);
        let end = next_change.min(self.end);
        debug_assert!(end > start, "segment iterator must make progress");
        self.cursor = end;
        Some(Segment { start, end, value })
    }
}

impl PiecewiseConstant {
    /// Earliest breakpoint strictly after `t` at which the value may
    /// change, taking the extension rule into account. `None` means the
    /// function is constant for all time after `t`.
    pub fn next_breakpoint_after(&self, t: SimTime) -> Option<SimTime> {
        self.next_breakpoint_after_with(&mut Cursor::default(), t)
    }

    /// [`next_breakpoint_after`](Self::next_breakpoint_after) with cursor
    /// acceleration (none is needed on a uniform grid).
    #[inline]
    pub fn next_breakpoint_after_with(&self, cur: &mut Cursor, t: SimTime) -> Option<SimTime> {
        match self.uniform_grid() {
            Some(g) => g.next_breakpoint_after(t),
            None => self.next_breakpoint_after_cursor(cur, t),
        }
    }

    /// The cursor path of [`Self::next_breakpoint_after_with`].
    fn next_breakpoint_after_cursor(&self, cur: &mut Cursor, t: SimTime) -> Option<SimTime> {
        let start = self.domain_start();
        let end = self.domain_end();
        match self.extension {
            Extension::Cycle => {
                let period = (end - start).as_ticks();
                let rel = (t - start).as_ticks();
                let k = rel.div_euclid(period);
                let r = rel.rem_euclid(period);
                let base = t - SimDuration::from_ticks(r);
                let folded = start + SimDuration::from_ticks(r);
                // The folded instant lies in some segment [b_i, b_{i+1});
                // b_{i+1} is the first breakpoint strictly after it.
                let idx = self.locate_with(cur, folded, k);
                let next_rel = (self.breakpoint(idx + 1) - start).as_ticks();
                Some(base + SimDuration::from_ticks(next_rel))
            }
            _ => {
                if t < start {
                    return Some(start);
                }
                if t >= end {
                    return None;
                }
                let idx = self.locate_with(cur, t, 0);
                Some(self.breakpoint(idx + 1))
            }
        }
    }
}

/// `O(1)` direct-index access to a uniform-grid, [`Extension::Hold`]
/// profile, obtained from [`PiecewiseConstant::uniform_grid`].
///
/// On a uniform grid breakpoint `k` is `start + k·dt` in whole ticks (a
/// grid keeps no breakpoint table; `new` verifies the spacing before it
/// drops one), so the segment containing an in-domain instant is one
/// integer division away, its bounds are a multiply-add each, and no
/// cursor state is needed. Each method mirrors its cursor-driven
/// counterpart expression for expression: the division replaces only the
/// `partition_point` search, whose result it equals, so every returned
/// value is bit-identical to the cursor path. It is the engine's
/// profile kernel: the `*_with` queries of [`PiecewiseConstant`] answer
/// through it.
#[derive(Debug, Clone, Copy)]
pub struct UniformGridView<'a> {
    f: &'a PiecewiseConstant,
    start_ticks: i64,
    end_ticks: i64,
    dt_ticks: i64,
    /// `1.0 / dt_ticks`, for the strength-reduced [`Self::idx`].
    inv_dt: f64,
}

impl<'a> UniformGridView<'a> {
    /// The profile this view indexes into.
    #[inline]
    pub fn profile(&self) -> &'a PiecewiseConstant {
        self.f
    }

    /// Breakpoint `k` of the grid, `0 <= k <= n`.
    #[inline]
    fn breakpoint(&self, k: usize) -> SimTime {
        SimTime::from_ticks(step_ticks(self.start_ticks, k, self.dt_ticks))
    }

    /// Segment index of an in-domain instant (`start <= t < end`).
    ///
    /// The division is strength-reduced to a reciprocal multiply with an
    /// exactness check: in-domain offsets are far below 2^52, so the
    /// estimate is off by at most one step, and a wrong estimate (or a
    /// pathologically large offset) falls back to the exact division.
    /// Every caller sits on an engine's hot path — crossing-bisection
    /// probes alone take ~20 of these per call.
    #[inline]
    fn idx(&self, t: SimTime) -> usize {
        let n = t.as_ticks() - self.start_ticks;
        let mut k = (n as f64 * self.inv_dt) as i64;
        let lo = k.wrapping_mul(self.dt_ticks);
        if !(lo <= n && n.wrapping_sub(lo) < self.dt_ticks) {
            k = n / self.dt_ticks;
        }
        debug_assert_eq!(k, n / self.dt_ticks);
        debug_assert!(
            (0..self.f.values.len() as i64).contains(&k),
            "instant {t} outside the grid domain"
        );
        k as usize
    }

    /// [`PiecewiseConstant::value_at`] without the search.
    #[inline]
    pub(crate) fn value_at(&self, t: SimTime) -> f64 {
        let tk = t.as_ticks();
        if tk < self.start_ticks {
            return self.f.values[0];
        }
        if tk >= self.end_ticks {
            return self.f.values[self.f.values.len() - 1];
        }
        self.f.values[self.idx(t)]
    }

    /// Cumulative integral `F(t)` — the Hold arm of the cursor path's
    /// `cum_with`, with the located index substituted.
    #[inline]
    fn cum(&self, t: SimTime) -> f64 {
        let f = self.f;
        let tk = t.as_ticks();
        if tk >= self.start_ticks && tk < self.end_ticks {
            let idx = self.idx(t);
            return f.prefix[idx] + f.values[idx] * (t - self.breakpoint(idx)).as_units();
        }
        if tk < self.start_ticks {
            f.values[0] * (t - f.domain_start()).as_units()
        } else {
            f.total() + f.values[f.values.len() - 1] * (t - f.domain_end()).as_units()
        }
    }

    /// [`PiecewiseConstant::integrate`] without the searches: the same
    /// antiderivative difference `F(t2) − F(t1)`.
    #[inline]
    pub(crate) fn integrate(&self, t1: SimTime, t2: SimTime) -> f64 {
        let a = self.cum(t1);
        let b = self.cum(t2);
        b - a
    }

    /// [`PiecewiseConstant::next_breakpoint_after`] without the search.
    #[inline]
    pub(crate) fn next_breakpoint_after(&self, t: SimTime) -> Option<SimTime> {
        if t.as_ticks() < self.start_ticks {
            return Some(self.f.domain_start());
        }
        if t.as_ticks() >= self.end_ticks {
            return None;
        }
        Some(self.breakpoint(self.idx(t) + 1))
    }

    /// [`PiecewiseConstant::segments_between`] without per-step searches;
    /// yields the identical segment sequence.
    pub(crate) fn segments_between(&self, t1: SimTime, t2: SimTime) -> GridSegments<'a> {
        GridSegments {
            g: *self,
            cursor: t1,
            end: t2,
            i: -1,
        }
    }

    /// Visits the same clipped segments as [`Self::segments_between`],
    /// but by direct index stepping: the segment index is resolved once
    /// and incremented, instead of re-derived (twice — value and
    /// breakpoint) per step. Emitted `[start, end, value)` triples are
    /// identical to the iterator's, so any arithmetic the caller folds
    /// over them is bit-identical.
    #[inline]
    pub(crate) fn for_each_segment(&self, t1: SimTime, t2: SimTime, mut emit: impl FnMut(Segment)) {
        if t1 >= t2 {
            return;
        }
        let f = self.f;
        let mut cursor = t1;
        if cursor.as_ticks() < self.start_ticks {
            let end = f.domain_start().min(t2);
            emit(Segment {
                start: cursor,
                end,
                value: f.values[0],
            });
            cursor = end;
        }
        if cursor < t2 && cursor.as_ticks() < self.end_ticks {
            let mut i = self.idx(cursor);
            loop {
                let end = self.breakpoint(i + 1).min(t2);
                emit(Segment {
                    start: cursor,
                    end,
                    value: f.values[i],
                });
                cursor = end;
                i += 1;
                if cursor >= t2 || i == f.values.len() {
                    break;
                }
            }
        }
        if cursor < t2 {
            emit(Segment {
                start: cursor,
                end: t2,
                value: f.values[f.values.len() - 1],
            });
        }
    }

    /// [`Self::first_accumulation_crossing`], counting the tier taken in
    /// `stats` exactly as the cursor path counts it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn crossing_counted(
        &self,
        stats: &mut CursorStats,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        let tier = self
            .f
            .classify_crossing(stats, from, horizon, initial, offset, cap, target);
        match tier {
            Crossing::Decided(t) => t,
            Crossing::Bisect
                if offset == 0.0
                    && self.f.vmin >= 0.0
                    && (self.start_ticks..self.end_ticks).contains(&from.as_ticks()) =>
            {
                self.first_reach(from, horizon, target - initial, offset)
            }
            // The cursor path's bisection probes use fresh cursors, so
            // substituting the `O(1)` [`Self::cum`] is exact.
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
                scan.scan(self.segments_between(from, horizon), None)
            }
        }
    }

    /// [`bisect_crossing`] for a level that nothing drains: `offset` is
    /// `±0.0`, every value is non-negative and `from` lies in the grid
    /// domain, as in every stall wake of the paper's runs. It returns
    /// the tick bisection returns, from a gallop over the prefix table
    /// and three probes instead of `log₂` of the window in ticks.
    ///
    /// On such inputs the gain `g(t) = F(t) − F(from)` is monotone in `t`
    /// even after rounding. Inside segment `k`, `F(t)` is the rounded
    /// `prefix[k] + v·(t − b_k)` with `v ≥ 0`, and `prefix[k + 1]` is the
    /// same expression rounded at `b_{k+1}`, so `F` never steps down at a
    /// breakpoint either. The first reaching tick is therefore unique,
    /// and any bracket that fails at its low end and reaches at its high
    /// end bisects to it. `g(b_k)` is exactly `prefix[k] − F(from)`, so
    /// the search over the prefix table finds the segment holding that
    /// tick; the segment's line gives the tick, accepted only when it
    /// reaches and the tick before it does not.
    fn first_reach(
        &self,
        from: SimTime,
        horizon: SimTime,
        needed: f64,
        offset: f64,
    ) -> Option<SimTime> {
        let f = self.f;
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
        let reached_prefix = |p: f64| reaches(needed, p - cum_from);
        let n = f.values.len();
        let mut below = self.idx(from);
        let mut stride = 1;
        let first_hit = loop {
            let probe = (below + stride).min(n);
            if reached_prefix(f.prefix[probe]) {
                let range = &f.prefix[below + 1..probe];
                break Some(below + 1 + range.partition_point(|&p| !reached_prefix(p)));
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
                f.prefix[k - 1],
                f.values[k - 1],
                self.breakpoint(k).min(horizon),
            ),
            // Not reached by the domain end: the Hold tail.
            None => (f.domain_end(), f.total(), f.values[n - 1], horizon),
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
}

/// Segment iterator of a [`UniformGridView`]; yields exactly what
/// [`Segments`] yields over the same window. In-domain steps carry the
/// segment index forward instead of re-deriving it (twice — value and
/// breakpoint) per step.
#[derive(Debug)]
pub(crate) struct GridSegments<'a> {
    g: UniformGridView<'a>,
    cursor: SimTime,
    end: SimTime,
    /// Index of the segment containing `cursor` when known, else -1.
    /// Only consulted while `cursor` is in-domain.
    i: i64,
}

impl Iterator for GridSegments<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.cursor >= self.end {
            return None;
        }
        let start = self.cursor;
        let f = self.g.f;
        let tk = start.as_ticks();
        let (value, next_change) = if tk < self.g.start_ticks {
            self.i = 0;
            (f.values[0], f.domain_start())
        } else if tk >= self.g.end_ticks {
            (f.values[f.values.len() - 1], SimTime::MAX)
        } else {
            let i = if self.i >= 0 {
                self.i as usize
            } else {
                self.g.idx(start)
            };
            debug_assert_eq!(i, self.g.idx(start), "stale carried segment index");
            self.i = i as i64 + 1;
            (f.values[i], self.g.breakpoint(i + 1))
        };
        let end = next_change.min(self.end);
        debug_assert!(end > start, "segment iterator must make progress");
        self.cursor = end;
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

    #[test]
    fn cursor_stats_track_lookup_modes() {
        // `sample_fn` is a uniform grid, so drive the cursor path itself.
        let f = sample_fn();
        let mut cur = f.cursor();
        let u = SimTime::from_whole_units;
        f.value_at_cursor(&mut cur, u(1)); // no usable hint yet
        f.value_at_cursor(&mut cur, u(2)); // same segment: hint hit
        f.value_at_cursor(&mut cur, u(25)); // two segments forward: gallop
        f.value_at_cursor(&mut cur, u(1)); // backward jump
        let s = cur.stats();
        assert_eq!(s.locates, 4);
        assert_eq!(s.fresh_searches, 1);
        assert_eq!(s.hint_hits, 1);
        assert_eq!(s.gallops, 1);
        assert_eq!(s.gallop_segments, 2);
        assert_eq!(s.backward_jumps, 1);
    }

    #[test]
    fn cursor_stats_track_crossing_tiers() {
        let u = SimTime::from_whole_units;
        // Strictly positive rates: upward crossings bisect, downward
        // targets are rejected in O(1).
        let f = sample_fn();
        let mut cur = f.cursor();
        assert!(f
            .first_accumulation_crossing_with(&mut cur, u(0), u(30), 0.0, 0.0, 100.0, 50.0)
            .is_some());
        assert!(f
            .first_accumulation_crossing_with(&mut cur, u(0), u(30), 50.0, 0.0, 100.0, 10.0)
            .is_none());
        let s = cur.stats();
        assert_eq!(s.cross_bisect, 1);
        assert_eq!(s.cross_reject, 1);
        assert_eq!(s.cross_scan, 0);

        // Mixed-sign rates force the clamped segment scan.
        let g = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(10), u(20)],
            vec![1.0, -1.0],
            Extension::Hold,
        )
        .unwrap();
        let mut gcur = g.cursor();
        g.first_accumulation_crossing_with(&mut gcur, u(0), u(20), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(gcur.stats().cross_scan, 1);

        // The same query under Cycle takes the period-skip scanner.
        let c = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(10), u(20)],
            vec![1.0, -1.0],
            Extension::Cycle,
        )
        .unwrap();
        let mut ccur = c.cursor();
        c.first_accumulation_crossing_with(&mut ccur, u(0), u(20), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(ccur.stats().cross_cyclic, 1);
    }

    #[test]
    fn cursor_stats_survive_segment_iteration() {
        let f = sample_fn();
        let mut total = 0u32;
        let mut segs = f.segments_between_with(
            f.cursor(),
            SimTime::from_whole_units(0),
            SimTime::from_whole_units(30),
        );
        for _ in segs.by_ref() {}
        total = total.wrapping_add(segs.state().stats().locates);
        assert!(total > 0, "segment iteration drives the cursor");
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
    fn zero_extension_vanishes_outside() {
        let f = PiecewiseConstant::new(
            vec![SimTime::ZERO, SimTime::from_whole_units(10)],
            vec![3.0],
            Extension::Zero,
        )
        .unwrap();
        assert_eq!(f.value_at(SimTime::from_whole_units(-1)), 0.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(10)), 0.0);
        assert_eq!(
            f.integrate(SimTime::from_whole_units(-5), SimTime::from_whole_units(15)),
            30.0
        );
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
    fn from_samples_builds_uniform_grid() {
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
            for extension in [Extension::Hold, Extension::Zero, Extension::Cycle] {
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
        let t = f
            .first_accumulation_crossing(
                SimTime::ZERO,
                SimTime::from_whole_units(100),
                1.0,
                -1.0, // drain 1 → net +2
                10.0,
                5.0,
            )
            .unwrap();
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
        let t = f
            .first_accumulation_crossing(
                SimTime::ZERO,
                SimTime::from_whole_units(10),
                4.0,
                -2.0,
                100.0,
                0.0,
            )
            .unwrap();
        assert_eq!(t, SimTime::from_whole_units(2));
    }

    #[test]
    fn crossing_unreachable_returns_none() {
        let f = PiecewiseConstant::constant(1.0);
        // Net rate zero: never reaches the target.
        let t = f.first_accumulation_crossing(
            SimTime::ZERO,
            SimTime::from_whole_units(50),
            1.0,
            -1.0,
            10.0,
            5.0,
        );
        assert_eq!(t, None);
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
        let t = f
            .first_accumulation_crossing(
                SimTime::ZERO,
                SimTime::from_whole_units(100),
                3.0,
                -1.0,
                10.0,
                4.0,
            )
            .unwrap();
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
    // Prefix-table / cursor fast-path coverage.
    // ------------------------------------------------------------------

    #[test]
    fn prefix_integrate_matches_naive() {
        for ext in [Extension::Hold, Extension::Zero, Extension::Cycle] {
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
    fn cursor_monotone_sweep_matches_cold_queries() {
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(2),
                SimTime::from_whole_units(3),
                SimTime::from_whole_units(7),
            ],
            vec![1.0, -2.0, 0.5],
            Extension::Cycle,
        )
        .unwrap();
        let mut cur = f.cursor();
        let mut t = SimTime::from_units(-4.25);
        while t < SimTime::from_whole_units(30) {
            assert_eq!(f.value_at_with(&mut cur, t), f.value_at(t), "value at {t}");
            assert_eq!(
                f.next_breakpoint_after_with(&mut cur, t),
                f.next_breakpoint_after(t),
                "next breakpoint after {t}"
            );
            let t2 = t + SimDuration::from_units(0.6);
            let want = f.integrate(t, t2);
            let got = f.integrate_with(&mut cur, t, t2);
            assert!(
                (got - want).abs() < 1e-9,
                "integral at {t}: {got} vs {want}"
            );
            t += SimDuration::from_units(0.35);
        }
    }

    #[test]
    fn cursor_tolerates_backward_jumps() {
        let f = sample_fn();
        let mut cur = f.cursor();
        let late = SimTime::from_whole_units(25);
        let early = SimTime::from_whole_units(1);
        assert_eq!(f.value_at_cursor(&mut cur, late), 4.0);
        assert_eq!(f.value_at_cursor(&mut cur, early), 2.0);
        assert_eq!(f.value_at_cursor(&mut cur, late), 4.0);
    }

    #[test]
    fn grid_queries_leave_cursor_lookups_untouched() {
        let u = SimTime::from_whole_units;
        let run = |f: &PiecewiseConstant| {
            let mut cur = f.cursor();
            f.value_at_with(&mut cur, u(5));
            f.integrate_with(&mut cur, u(1), u(25));
            f.next_breakpoint_after_with(&mut cur, u(2));
            f.for_each_segment_with(&mut cur, u(0), u(3), |_| {});
            f.first_accumulation_crossing_with(&mut cur, u(0), u(3), 0.0, 0.0, 100.0, 1.0);
            cur.stats()
        };
        // A uniform Hold grid is indexed directly: no lookups, but the
        // crossing tier is still counted.
        let grid = run(&sample_fn());
        assert_eq!(grid.locates, 0);
        assert_eq!(grid.cross_bisect, 1);
        // Off the grid the same queries run on the cursor.
        let g = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(1), u(3)],
            vec![1.0, 2.0],
            Extension::Hold,
        )
        .unwrap();
        assert!(g.uniform_grid().is_none());
        let off = run(&g);
        assert!(off.locates > 0);
        assert_eq!(off.cross_bisect, 1);
    }

    #[test]
    fn crossing_fast_path_matches_naive_on_breakpoint_aligned_target() {
        // Monotone upward crossing landing exactly on a breakpoint: the
        // prefix-seek rewrite must return the same tick as the scan.
        let f = sample_fn();
        let args = (
            SimTime::ZERO,
            SimTime::from_whole_units(100),
            0.0,
            -0.5,
            1000.0,
            25.0,
        );
        let fast = f.first_accumulation_crossing(args.0, args.1, args.2, args.3, args.4, args.5);
        let naive =
            f.first_accumulation_crossing_naive(args.0, args.1, args.2, args.3, args.4, args.5);
        // Net rates 1.5, 0.0, 3.5: level is 15 at t=10, flat to t=20,
        // reaching 25 needs 10/3.5 more — but with target 15 it lands on
        // the t=10 breakpoint exactly.
        assert_eq!(fast, naive);
        let aligned = f.first_accumulation_crossing(args.0, args.1, args.2, args.3, args.4, 15.0);
        let aligned_naive =
            f.first_accumulation_crossing_naive(args.0, args.1, args.2, args.3, args.4, 15.0);
        assert_eq!(aligned, SimTime::from_whole_units(10).into());
        assert_eq!(aligned, aligned_naive);
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
        let fast = f.first_accumulation_crossing(SimTime::ZERO, horizon, 0.0, 0.0, 100.0, 50.0);
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
        let horizon = SimTime::from_whole_units(1_000_000);
        let fast = f.first_accumulation_crossing(SimTime::ZERO, horizon, 2.0, 0.0, 10.0, 8.0);
        assert_eq!(fast, None);
    }

    /// Deterministic xorshift so grid-parity probes need no external RNG.
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

    #[test]
    fn uniform_grid_detection() {
        assert!(grid_profile(7, 40).uniform_grid().is_some());
        // Non-uniform spacing: no view.
        let f = sample_fn(); // gaps 10, 10, 10 — uniform, so this HAS one
        assert!(f.uniform_grid().is_some());
        let g = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(3),
            ],
            vec![1.0, 2.0],
            Extension::Hold,
        )
        .unwrap();
        assert!(g.uniform_grid().is_none());
        // Uniform but cyclic: the view only models Hold tails.
        let c = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(2),
            ],
            vec![1.0, 2.0],
            Extension::Cycle,
        )
        .unwrap();
        assert!(c.uniform_grid().is_none());
    }

    /// The same function as the grid `f`, in the representation every
    /// profile had before grids dropped their table: an explicit
    /// breakpoint table and no grid, so each query runs the cursor path
    /// and searches the slice.
    fn table_twin(f: &PiecewiseConstant) -> PiecewiseConstant {
        assert!(f.breakpoints.is_empty(), "a grid keeps no table");
        let twin = PiecewiseConstant {
            breakpoints: f.breakpoint_iter().collect(),
            grid_dt: 0,
            grid_inv_dt: 0.0,
            ..f.clone()
        };
        assert!(twin.uniform_grid().is_none());
        twin
    }

    // The public queries answer a uniform grid through the view, so the
    // two parity tests below compare the view with the private cursor
    // implementations on the grid, which step its breakpoints
    // (`Segments` walks on the cursor path), and with the public queries
    // on its table twin, which search the slice.
    #[test]
    fn grid_view_lookups_bit_identical() {
        for seed in 1..6u64 {
            let f = grid_profile(seed, 64);
            let g = f.uniform_grid().unwrap();
            let twin = table_twin(&f);
            let mut s = seed.wrapping_mul(0x9E37_79B9).max(1);
            for _ in 0..400 {
                let t = SimTime::from_ticks((xorshift(&mut s) % 80_000_000) as i64 - 10_000_000);
                let value = g.value_at(t).to_bits();
                assert_eq!(
                    value,
                    f.value_at_cursor(&mut f.cursor(), t).to_bits(),
                    "value at {t}"
                );
                assert_eq!(value, twin.value_at(t).to_bits(), "twin value at {t}");
                let next = g.next_breakpoint_after(t);
                assert_eq!(
                    next,
                    f.next_breakpoint_after_cursor(&mut f.cursor(), t),
                    "breakpoint after {t}"
                );
                assert_eq!(next, twin.next_breakpoint_after(t), "twin breakpoint {t}");
                let t2 = t + SimDuration::from_ticks((xorshift(&mut s) % 20_000_000) as i64);
                let integral = g.integrate(t, t2).to_bits();
                assert_eq!(
                    integral,
                    f.integrate_cursor(&mut f.cursor(), t, t2).to_bits(),
                    "integral over [{t}, {t2})"
                );
                assert_eq!(
                    integral,
                    twin.integrate(t, t2).to_bits(),
                    "twin [{t}, {t2})"
                );
                let segs_grid: Vec<_> = g.segments_between(t, t2).collect();
                let segs_scalar: Vec<_> = f.segments_between(t, t2).collect();
                assert_eq!(segs_grid, segs_scalar, "segments over [{t}, {t2})");
                let segs_twin: Vec<_> = twin.segments_between(t, t2).collect();
                assert_eq!(segs_grid, segs_twin, "twin segments over [{t}, {t2})");
                let mut walked = Vec::new();
                g.for_each_segment(t, t2, |seg| walked.push(seg));
                assert_eq!(walked, segs_scalar, "segment walk over [{t}, {t2})");
            }
        }
    }

    #[test]
    fn grid_view_crossings_bit_identical() {
        for seed in 1..6u64 {
            let f = grid_profile(seed, 48);
            assert!(f.uniform_grid().is_some());
            let twin = table_twin(&f);
            let mut s = seed.wrapping_mul(0xA076_1D64).max(1);
            let cap = 25.0;
            // The grid path counts the same crossing tiers as the cursor.
            let (mut grid_cur, mut cursor_cur, mut twin_cur) =
                (f.cursor(), f.cursor(), twin.cursor());
            for _ in 0..200 {
                let from = SimTime::from_ticks((xorshift(&mut s) % 40_000_000) as i64 - 5_000_000);
                let horizon =
                    from + SimDuration::from_ticks((xorshift(&mut s) % 60_000_000) as i64);
                let initial = (xorshift(&mut s) % 1000) as f64 / 999.0 * cap;
                let target = (xorshift(&mut s) % 1000) as f64 / 999.0 * cap;
                let offset = (xorshift(&mut s) % 1000) as f64 / 137.0 - 3.5;
                let want = f.first_accumulation_crossing_cursor(
                    &mut cursor_cur,
                    from,
                    horizon,
                    initial,
                    offset,
                    cap,
                    target,
                );
                let counted = f.first_accumulation_crossing_with(
                    &mut grid_cur,
                    from,
                    horizon,
                    initial,
                    offset,
                    cap,
                    target,
                );
                assert_eq!(
                    counted, want,
                    "crossing from {from} to {horizon}, {initial}->{target} offset {offset}"
                );
                let on_table = twin.first_accumulation_crossing_with(
                    &mut twin_cur,
                    from,
                    horizon,
                    initial,
                    offset,
                    cap,
                    target,
                );
                assert_eq!(on_table, want, "twin crossing from {from} to {horizon}");
            }
            let tiers = |c: &Cursor| {
                let s = c.stats();
                (s.cross_reject, s.cross_bisect, s.cross_scan)
            };
            assert_eq!(tiers(&grid_cur), tiers(&cursor_cur));
            assert_eq!(tiers(&grid_cur), tiers(&twin_cur));
            assert_eq!(grid_cur.stats().locates, 0);
        }
    }

    #[test]
    fn grids_keep_no_breakpoint_table() {
        let u = SimTime::from_whole_units;
        // A paper profile: 10 000 one-unit samples. It retains exactly
        // its values and prefix sums.
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
        assert_eq!(words * std::mem::size_of::<f64>(), 160_008);
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
            assert!(f.uniform_grid().is_some(), "{what}");
            assert_eq!(f.breakpoints.capacity(), 0, "{what}");
        }
        assert_eq!(back, paper);
        assert_eq!(
            stepped.breakpoint_iter().collect::<Vec<_>>(),
            vec![u(-4), u(-1), u(2), u(5)]
        );
        // A non-uniform `new`, and `Zero` and `Cycle` grids, keep all
        // n + 1 breakpoints.
        let uneven =
            PiecewiseConstant::new(vec![u(0), u(1), u(3)], vec![1.0, 2.0], Extension::Hold)
                .unwrap();
        assert_eq!(uneven.breakpoints, vec![u(0), u(1), u(3)]);
        for ext in [Extension::Zero, Extension::Cycle] {
            let f = PiecewiseConstant::from_samples(
                u(2),
                SimDuration::from_whole_units(3),
                vec![1.0; 4],
                ext,
            )
            .unwrap();
            assert!(f.uniform_grid().is_none());
            assert_eq!(
                f.breakpoints,
                vec![u(2), u(5), u(8), u(11), u(14)],
                "{ext:?}"
            );
            let g = PiecewiseConstant::new(f.breakpoints.clone(), vec![1.0; 4], ext).unwrap();
            assert_eq!(g.breakpoints.len(), 5, "{ext:?}");
        }
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
            assert_eq!(
                f.uniform_grid().unwrap().next_breakpoint_after(t0),
                Some(f.breakpoint(1))
            );
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
    // Crossing shortcuts: the scan tier's reach bound and the grid's
    // monotone first-reach solve.
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
        let mut cur = f.cursor();
        let hit = f.first_accumulation_crossing_with(&mut cur, u(0), u(1), 0.0, 0.0, 100.0, 50.0);
        assert_eq!(hit, None);
        assert_eq!((cur.stats().cross_bisect, cur.stats().cross_reject), (1, 0));
        // Mixed signs: out of reach is rejected, within reach is scanned.
        let g = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(10), u(20)],
            vec![1.0, -1.0],
            Extension::Hold,
        )
        .unwrap();
        let mut gcur = g.cursor();
        let hit = g.first_accumulation_crossing_with(&mut gcur, u(0), u(2), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(hit, None);
        assert_eq!((gcur.stats().cross_scan, gcur.stats().cross_reject), (0, 1));
        let hit = g.first_accumulation_crossing_with(&mut gcur, u(0), u(20), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(hit, Some(u(5)));
        assert_eq!((gcur.stats().cross_scan, gcur.stats().cross_reject), (1, 1));
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
        let mut stats = CursorStats::default();
        let tier = f.classify_crossing(&mut stats, from, horizon, initial, offset, cap, target);
        let naive =
            f.first_accumulation_crossing_naive(from, horizon, initial, offset, cap, target);
        if f.extension() != Extension::Cycle && !matches!(tier, Crossing::Bisect) {
            let fast = f.first_accumulation_crossing(from, horizon, initial, offset, cap, target);
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
        for ext in [Extension::Hold, Extension::Zero, Extension::Cycle] {
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
                        let Some(k) = f.values().iter().position(|&v| {
                            let rate = v + offset;
                            rate == if upward { rate_max } else { rate_min }
                        }) else {
                            continue; // the fastest rate is a `Zero` tail
                        };
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

    #[test]
    fn grid_first_reach_matches_bisection() {
        let mut s = 0xF1A7_u64;
        let cap = 1e3;
        for _ in 0..16 {
            // Non-negative samples with zero stretches, some of them -0.0,
            // and magnitudes from 1e-9 to 1e3: a tiny rate on a large
            // accumulated integral rounds to a staircase, which sends
            // the solve's guess to both fallbacks.
            let n = 1 + (xorshift(&mut s) % 48) as usize;
            let samples: Vec<f64> = (0..n)
                .map(|_| match xorshift(&mut s) % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => {
                        let scale = 10f64.powi((xorshift(&mut s) % 13) as i32 - 9);
                        (xorshift(&mut s) % 1000) as f64 * scale
                    }
                })
                .collect();
            let dt = 250_000 + (xorshift(&mut s) % 2_000_000) as i64;
            let f = PiecewiseConstant::from_samples(
                SimTime::from_ticks((xorshift(&mut s) % 4_000_000) as i64 - 2_000_000),
                SimDuration::from_ticks(dt),
                samples,
                Extension::Hold,
            )
            .unwrap();
            assert!(f.domain_min() >= 0.0);
            let g = f.uniform_grid().unwrap();
            let (start, end) = (g.start_ticks, g.end_ticks);
            for _ in 0..300 {
                // From a breakpoint or from inside a segment.
                let k = (xorshift(&mut s) % n as u64) as i64;
                let into = match xorshift(&mut s) % 3 {
                    0 => 0,
                    _ => (xorshift(&mut s) % dt as u64) as i64,
                };
                let from = SimTime::from_ticks(start + k * dt + into);
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
                let cum_from = g.cum(from);
                let needed = match xorshift(&mut s) % 5 {
                    // Exactly the gain at a breakpoint.
                    0 => f.prefix[(xorshift(&mut s) % (n as u64 + 1)) as usize] - cum_from,
                    // At the edge of the ±1e-15 tolerance.
                    1 => [5e-16, 1e-15, 1e-15 + f64::EPSILON * 1e-15, 1.5e-15, 2e-15]
                        [(xorshift(&mut s) % 5) as usize],
                    _ => (xorshift(&mut s) % 200_000) as f64 / 100.0,
                };
                for offset in [0.0, -0.0] {
                    let want =
                        bisect_crossing(from, horizon, needed, offset, cum_from, |t| g.cum(t));
                    assert_eq!(
                        g.first_reach(from, horizon, needed, offset),
                        want,
                        "needed {needed} over [{from}, {horizon}), offset {offset}"
                    );
                    // The public query takes the solve and still agrees
                    // with the cursor path, which bisects.
                    let initial = random_frac(&mut s) * cap;
                    let target = random_frac(&mut s) * cap;
                    assert_eq!(
                        f.first_accumulation_crossing(from, horizon, initial, offset, cap, target),
                        f.first_accumulation_crossing_cursor(
                            &mut f.cursor(),
                            from,
                            horizon,
                            initial,
                            offset,
                            cap,
                            target
                        ),
                        "{initial}->{target} over [{from}, {horizon}), offset {offset}"
                    );
                }
            }
        }
    }
}
