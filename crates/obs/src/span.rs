//! Campaign-scale span tracing with a Chrome-trace exporter.
//!
//! A sweep campaign is thousands of short cells spread over a handful of
//! workers; per-cell timing has to cost almost nothing on the worker side.
//! The design here is the classic two-tier tracer:
//!
//! - a [`SpanCollector`] owns the trace: a single wall-clock epoch and a
//!   mutex-guarded vector of finished [`SpanRecord`]s;
//! - each worker holds a private [`SpanSink`], which timestamps spans
//!   against the shared epoch and buffers finished records locally,
//!   draining into the collector only every [`SpanSink::FLUSH_AT`] records
//!   (and on drop). The hot path is therefore a `Instant::now()` call and
//!   a `Vec::push`; the global lock is touched once per few hundred spans.
//!
//! The collector exports the [Chrome trace event format] (`ph: "X"`
//! complete events), which both `chrome://tracing` and [Perfetto] load
//! directly: workers render as tracks (`tid`), span categories
//! (`probe` / `build` / `simulate` / `figure` / `store`) are filterable,
//! and per-span args carry cell keys.
//!
//! [Chrome trace event format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use serde::Value;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Span category: store/cache probes.
pub const CAT_PROBE: &str = "probe";
/// Span category: prefab construction (task sets, profiles, predictors).
pub const CAT_BUILD: &str = "build";
/// Span category: trial simulation.
pub const CAT_SIMULATE: &str = "simulate";
/// Span category: figure-level work (aggregation, whole-figure extent).
pub const CAT_FIGURE: &str = "figure";
/// Span category: result-store writes and maintenance.
pub const CAT_STORE: &str = "store";

/// One finished span: a named interval on a worker track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. `"cell"`, `"probe"`, a figure name).
    pub name: String,
    /// Category, one of the `CAT_*` constants.
    pub cat: &'static str,
    /// Track id: worker index, or [`TID_DRIVER`] for the driver thread.
    pub tid: u32,
    /// Microseconds since the collector's epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form key/value attribution (cell key, prefab count, ...).
    pub args: Vec<(String, String)>,
}

/// Track id used for driver-thread (non-worker) spans.
pub const TID_DRIVER: u32 = 0;

/// Shared trace: epoch + every drained span. Clone the [`Arc`] freely;
/// hand each worker its own [`SpanSink`] via [`SpanCollector::sink`].
#[derive(Debug)]
pub struct SpanCollector {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanCollector {
    /// New empty collector; the epoch (trace time zero) is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Convenience: a new collector behind an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Microseconds elapsed since the collector's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A buffering sink for worker track `tid` (use `worker + 1`;
    /// [`TID_DRIVER`] is reserved for the driver).
    pub fn sink(self: &Arc<Self>, tid: u32) -> SpanSink {
        SpanSink {
            collector: Arc::clone(self),
            tid,
            buf: Vec::new(),
        }
    }

    fn drain(&self, buf: &mut Vec<SpanRecord>) {
        if buf.is_empty() {
            return;
        }
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.append(buf);
    }

    /// Number of spans drained into the collector so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no spans have been drained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the drained spans, sorted by start time.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut out = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        out.sort_by_key(|s| (s.ts_us, s.tid));
        out
    }

    /// The trace as a Chrome-trace JSON value:
    /// `{"traceEvents": [{"ph": "X", ...}, ...]}`.
    pub fn to_chrome_trace(&self) -> Value {
        let events = self
            .records()
            .into_iter()
            .map(|s| {
                let args = Value::Map(
                    s.args
                        .into_iter()
                        .map(|(k, v)| (k, Value::Str(v)))
                        .collect(),
                );
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name)),
                    ("cat".into(), Value::Str(s.cat.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::U64(s.ts_us)),
                    ("dur".into(), Value::U64(s.dur_us)),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(u64::from(s.tid))),
                    ("args".into(), args),
                ])
            })
            .collect();
        Value::Map(vec![("traceEvents".into(), Value::Seq(events))])
    }

    /// Serialize the Chrome trace into `out`.
    pub fn write_chrome_trace<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let json = serde_json::to_string(&self.to_chrome_trace()).map_err(io::Error::other)?;
        out.write_all(json.as_bytes())?;
        out.write_all(b"\n")
    }
}

/// An in-flight span: the start timestamp, waiting for
/// [`SpanSink::record`]. Obtained from [`SpanSink::start`].
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    ts_us: u64,
}

/// Per-worker buffering front-end to a [`SpanCollector`].
///
/// Not `Clone`: each worker owns exactly one, so the local buffer is
/// single-threaded and push is lock-free. Buffered records drain into the
/// collector every [`Self::FLUSH_AT`] spans, on [`Self::flush`], and on
/// drop.
#[derive(Debug)]
pub struct SpanSink {
    collector: Arc<SpanCollector>,
    tid: u32,
    buf: Vec<SpanRecord>,
}

impl SpanSink {
    /// Local records buffered before touching the collector's lock.
    pub const FLUSH_AT: usize = 256;

    /// Begin a span now.
    pub fn start(&self) -> SpanStart {
        SpanStart {
            ts_us: self.collector.now_us(),
        }
    }

    /// Finish a span begun with [`Self::start`] and buffer it.
    pub fn record(&mut self, start: SpanStart, name: &str, cat: &'static str) {
        self.record_with(start, name, cat, Vec::new());
    }

    /// Finish a span, attaching key/value args (cell key, prefab count, ...).
    pub fn record_with(
        &mut self,
        start: SpanStart,
        name: &str,
        cat: &'static str,
        args: Vec<(String, String)>,
    ) {
        let end = self.collector.now_us();
        self.buf.push(SpanRecord {
            name: name.to_string(),
            cat,
            tid: self.tid,
            ts_us: start.ts_us,
            dur_us: end.saturating_sub(start.ts_us),
            args,
        });
        if self.buf.len() >= Self::FLUSH_AT {
            self.flush();
        }
    }

    /// Drain the local buffer into the collector.
    pub fn flush(&mut self) {
        self.collector.drain(&mut self.buf);
    }
}

impl Drop for SpanSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_buffers_then_drains_on_drop() {
        let collector = SpanCollector::shared();
        {
            let mut sink = collector.sink(1);
            let t = sink.start();
            sink.record(t, "cell", CAT_SIMULATE);
            let t = sink.start();
            sink.record_with(t, "probe", CAT_PROBE, vec![("key".into(), "k0".into())]);
            // Below FLUSH_AT: nothing drained yet.
            assert!(collector.is_empty());
        }
        let records = collector.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].tid, 1);
        assert!(records
            .iter()
            .any(|r| r.cat == CAT_PROBE && r.args == vec![("key".to_string(), "k0".to_string())]));
    }

    #[test]
    fn explicit_flush_crosses_threads() {
        let collector = SpanCollector::shared();
        let handles: Vec<_> = (0..4u32)
            .map(|w| {
                let collector = Arc::clone(&collector);
                std::thread::spawn(move || {
                    let mut sink = collector.sink(w + 1);
                    for _ in 0..10 {
                        let t = sink.start();
                        sink.record(t, "cell", CAT_SIMULATE);
                    }
                    sink.flush();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(collector.len(), 40);
    }

    #[test]
    fn chrome_trace_shape_is_loadable() {
        let collector = SpanCollector::shared();
        let mut sink = collector.sink(TID_DRIVER);
        let t = sink.start();
        sink.record_with(t, "figure", CAT_FIGURE, vec![("util".into(), "0.4".into())]);
        sink.flush();

        let trace = collector.to_chrome_trace();
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 1);
        let ev = events[0].as_object().expect("event object");
        let field = |k: &str| {
            ev.iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing field {k}"))
        };
        assert_eq!(field("ph").as_str(), Some("X"));
        assert_eq!(field("cat").as_str(), Some(CAT_FIGURE));
        assert!(matches!(field("ts"), Value::U64(_)));
        assert!(matches!(field("dur"), Value::U64(_)));

        // Round-trips through the JSON printer/parser.
        let mut buf = Vec::new();
        collector.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            back.get("traceEvents")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(1)
        );
    }
}
