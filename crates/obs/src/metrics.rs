//! Metrics registry: counters, gauges, and log2-bucket histograms.
//!
//! The hot simulation loops do **not** touch the registry per event —
//! they keep plain monomorphic integer counters inline and publish them
//! here once, at end of run.

use serde::{Deserialize, Serialize};

/// Number of buckets in a [`Log2Histogram`]: bucket 0 holds values `< 1`
/// (including non-positive), bucket `i >= 1` holds `[2^(i-1), 2^i)`.
pub(crate) const LOG2_BUCKETS: usize = 66;

/// Power-of-two bucketed histogram for non-negative magnitudes (gallop
/// lengths, drain sizes, interval durations). Fixed footprint, O(1) insert.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    pub fn new() -> Self {
        Self {
            counts: [0; LOG2_BUCKETS],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for a value: 0 for `v < 1`, else `1 + floor(log2 v)`,
    /// clamped to the last bucket.
    pub(crate) fn bucket_of(value: f64) -> usize {
        if value.is_nan() || value < 1.0 {
            return 0;
        }
        // Cheap floor(log2) via the bit width of the integer part; values
        // above 2^63 saturate into the final bucket.
        if value >= 9.223_372_036_854_776e18 {
            return LOG2_BUCKETS - 1;
        }
        let ilog = 63 - (value as u64).leading_zeros() as usize;
        (ilog + 1).min(LOG2_BUCKETS - 1)
    }

    pub fn observe(&mut self, value: f64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merge another histogram's observations into this one.
    pub(crate) fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Freeze into a serializable snapshot (trailing empty buckets trimmed).
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let last = self
            .counts
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |i| i + 1);
        HistogramSnapshot {
            count: self.total,
            sum: self.sum,
            min: if self.total == 0 { 0.0 } else { self.min },
            max: if self.total == 0 { 0.0 } else { self.max },
            buckets: self.counts[..last].to_vec(),
        }
    }
}

/// Serializable form of a [`Log2Histogram`]. `buckets[0]` counts values
/// `< 1`; `buckets[i]` for `i >= 1` counts values in `[2^(i-1), 2^i)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub(crate) sum: f64,
    pub(crate) min: f64,
    pub max: f64,
    pub(crate) buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile: lower bound of the bucket containing the q-th
    /// observation (q in [0, 1]).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
            }
        }
        self.max
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricEntry {
    pub name: String,
    pub value: MetricValue,
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Scalar view used for diffing and table rendering: counters and gauges
    /// as themselves, histograms as their observation count.
    pub fn scalar(&self) -> f64 {
        match self {
            MetricValue::Counter(c) => *c as f64,
            MetricValue::Gauge(g) => *g,
            MetricValue::Histogram(h) => h.count as f64,
        }
    }
}

/// Accumulating registry. Insertion order is preserved so reports render in
/// publication order; lookup is a linear scan, which is fine at the tens of
/// metrics a run publishes once.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, Slot)>,
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(u64),
    Gauge(f64),
    Hist(Box<Log2Histogram>),
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, name: &str) -> Option<&mut Slot> {
        let idx = self.entries.iter().position(|(n, _)| n == name)?;
        Some(&mut self.entries[idx].1)
    }

    /// Drops every registered metric while keeping the registry's
    /// backing storage, so a pooled run context can publish a fresh
    /// run's metrics into a reused registry. A snapshot taken after
    /// `reset` + republication is identical to one from a brand-new
    /// registry (entries are removed, not zeroed, so no stale names
    /// from a previous policy's run linger).
    pub fn reset(&mut self) {
        self.entries.clear();
    }

    /// Merge a pre-accumulated histogram under `name`. Hot loops keep a
    /// [`Log2Histogram`] inline and hand it over once at publication
    /// time instead of paying a name lookup per observation.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn record_histogram(&mut self, name: &str, hist: &Log2Histogram) {
        match self.slot(name) {
            Some(Slot::Hist(h)) => h.merge(hist),
            Some(_) => panic!("metric `{name}` already registered with a different kind"),
            None => self
                .entries
                .push((name.to_owned(), Slot::Hist(Box::new(hist.clone())))),
        }
    }

    /// Add `delta` to the named monotonically increasing counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn counter(&mut self, name: &str, delta: u64) {
        match self.slot(name) {
            Some(Slot::Counter(c)) => *c += delta,
            Some(_) => panic!("metric `{name}` already registered with a different kind"),
            None => self.entries.push((name.to_owned(), Slot::Counter(delta))),
        }
    }

    /// Set the named gauge to an instantaneous value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn gauge(&mut self, name: &str, value: f64) {
        match self.slot(name) {
            Some(Slot::Gauge(g)) => *g = value,
            Some(_) => panic!("metric `{name}` already registered with a different kind"),
            None => self.entries.push((name.to_owned(), Slot::Gauge(value))),
        }
    }

    /// Record one observation into the named log2-bucket histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.slot(name) {
            Some(Slot::Hist(h)) => h.observe(value),
            Some(_) => panic!("metric `{name}` already registered with a different kind"),
            None => {
                let mut h = Box::new(Log2Histogram::new());
                h.observe(value);
                self.entries.push((name.to_owned(), Slot::Hist(h)));
            }
        }
    }

    /// Freeze into a serializable snapshot, preserving insertion order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .map(|(name, slot)| MetricEntry {
                    name: name.clone(),
                    value: match slot {
                        Slot::Counter(c) => MetricValue::Counter(*c),
                        Slot::Gauge(g) => MetricValue::Gauge(*g),
                        Slot::Hist(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// Serializable frozen view of a registry; the unit stored in JSONL run
/// artifacts and the operand of `exp inspect --diff`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub entries: Vec<MetricEntry>,
}

/// One row of a snapshot diff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDelta {
    pub name: String,
    /// Scalar value in the baseline snapshot; `None` if absent there.
    pub before: Option<f64>,
    /// Scalar value in this snapshot; `None` if absent here.
    pub after: Option<f64>,
}

impl MetricDelta {
    pub fn delta(&self) -> f64 {
        self.after.unwrap_or(0.0) - self.before.unwrap_or(0.0)
    }
}

impl MetricsSnapshot {
    pub(crate) fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// Counter value by name (0 if absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Diff against a baseline: one row per metric present in either
    /// snapshot, in this snapshot's order with baseline-only rows appended.
    pub fn diff(&self, baseline: &MetricsSnapshot) -> Vec<MetricDelta> {
        let mut rows: Vec<MetricDelta> = self
            .entries
            .iter()
            .map(|e| MetricDelta {
                name: e.name.clone(),
                before: baseline.get(&e.name).map(|v| v.scalar()),
                after: Some(e.value.scalar()),
            })
            .collect();
        for e in &baseline.entries {
            if self.get(&e.name).is_none() {
                rows.push(MetricDelta {
                    name: e.name.clone(),
                    before: Some(e.value.scalar()),
                    after: None,
                });
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets() {
        assert_eq!(Log2Histogram::bucket_of(-3.0), 0);
        assert_eq!(Log2Histogram::bucket_of(0.0), 0);
        assert_eq!(Log2Histogram::bucket_of(0.99), 0);
        assert_eq!(Log2Histogram::bucket_of(1.0), 1);
        assert_eq!(Log2Histogram::bucket_of(1.99), 1);
        assert_eq!(Log2Histogram::bucket_of(2.0), 2);
        assert_eq!(Log2Histogram::bucket_of(3.0), 2);
        assert_eq!(Log2Histogram::bucket_of(4.0), 3);
        assert_eq!(Log2Histogram::bucket_of(1024.0), 11);
        assert_eq!(Log2Histogram::bucket_of(f64::MAX), LOG2_BUCKETS - 1);
    }

    #[test]
    fn histogram_snapshot_stats() {
        let mut h = Log2Histogram::new();
        for v in [1.0, 2.0, 3.0, 8.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 14.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.mean(), 3.5);
        // buckets: [<1]=0, [1,2)=1, [2,4)=2, [4,8)=0, [8,16)=1
        assert_eq!(s.buckets, vec![0, 1, 2, 0, 1]);
        assert_eq!(s.quantile(0.0), 1.0); // rank clamps to first observation, bucket [1,2)
        assert_eq!(s.quantile(1.0), 8.0);
    }

    #[test]
    fn empty_histogram_snapshot_is_finite() {
        let s = Log2Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_combines_extrema_and_counts() {
        let mut a = Log2Histogram::new();
        a.observe(2.0);
        let mut b = Log2Histogram::new();
        b.observe(100.0);
        b.observe(0.5);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 102.5);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 100.0);

        let mut reg = MetricsRegistry::new();
        reg.record_histogram("waits", &a);
        reg.record_histogram("waits", &b);
        match reg.snapshot().get("waits") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 5),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn registry_accumulates_and_snapshots_in_order() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a.pops", 3);
        reg.counter("a.pops", 2);
        reg.gauge("b.level", 0.5);
        reg.gauge("b.level", 0.75);
        reg.observe("c.len", 4.0);
        reg.observe("c.len", 9.0);
        let snap = reg.snapshot();
        assert_eq!(snap.entries.len(), 3);
        assert_eq!(snap.entries[0].name, "a.pops");
        assert_eq!(snap.counter("a.pops"), 5);
        assert_eq!(snap.get("b.level"), Some(&MetricValue::Gauge(0.75)));
        match snap.get("c.len") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn reset_republication_matches_fresh_registry() {
        let mut pooled = MetricsRegistry::new();
        pooled.counter("stale.policy_metric", 9);
        pooled.observe("stale.hist", 4.0);
        pooled.reset();
        assert_eq!(pooled.snapshot(), MetricsRegistry::new().snapshot());
        pooled.counter("a", 1);
        pooled.gauge("b", 2.0);

        let mut fresh = MetricsRegistry::new();
        fresh.counter("a", 1);
        fresh.gauge("b", 2.0);
        assert_eq!(pooled.snapshot(), fresh.snapshot());
    }

    #[test]
    fn diff_covers_both_sides() {
        let mut a = MetricsRegistry::new();
        a.counter("shared", 10);
        a.counter("only_base", 1);
        let base = a.snapshot();

        let mut b = MetricsRegistry::new();
        b.counter("shared", 14);
        b.counter("only_new", 7);
        let new = b.snapshot();

        let rows = new.diff(&base);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].name, "shared");
        assert_eq!(rows[0].delta(), 4.0);
        assert_eq!(rows[1].name, "only_new");
        assert_eq!(rows[1].before, None);
        assert_eq!(rows[2].name, "only_base");
        assert_eq!(rows[2].after, None);
    }

    #[test]
    fn diff_scalarizes_log2_histograms_by_count() {
        // Baseline: 3 observations across two buckets.
        let mut a = MetricsRegistry::new();
        for v in [1.0, 2.0, 3.0] {
            a.observe("wait", v);
        }
        let base = a.snapshot();

        // After: 5 observations, different value range — only the
        // observation count is scalar-diffed, not sum/extrema.
        let mut b = MetricsRegistry::new();
        for v in [100.0, 200.0, 400.0, 800.0, 1600.0] {
            b.observe("wait", v);
        }
        let new = b.snapshot();

        let rows = new.diff(&base);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].before, Some(3.0));
        assert_eq!(rows[0].after, Some(5.0));
        assert_eq!(rows[0].delta(), 2.0);

        // A histogram missing from the baseline diffs as new.
        let empty = MetricsRegistry::new().snapshot();
        let rows = new.diff(&empty);
        assert_eq!(rows[0].before, None);
        assert_eq!(rows[0].delta(), 5.0);

        // The full bucket shape is still in the snapshot for readers
        // that want more than the scalar view.
        match new.get("wait") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 5);
                assert_eq!(h.buckets.iter().sum::<u64>(), 5);
                assert_eq!(h.min, 100.0);
                assert_eq!(h.max, 1600.0);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn histogram_diff_is_stable_across_jsonl_round_trip() {
        let mut reg = MetricsRegistry::new();
        for v in [0.5, 4.0, 4.5, 1024.0] {
            reg.observe("slab", v);
        }
        reg.counter("pops", 7);
        let snap = reg.snapshot();

        let mut w = crate::export::JsonlWriter::new(Vec::new());
        w.write(&snap).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let back: Vec<MetricsSnapshot> = crate::export::jsonl_to_vec(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], snap);
        // Diffing the round-tripped snapshot against the original is a
        // no-op: every delta is exactly zero.
        assert!(back[0].diff(&snap).iter().all(|d| d.delta() == 0.0));
    }
}
