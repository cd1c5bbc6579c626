//! Observability layer for the harvest-rt simulator.
//!
//! This crate deliberately sits *below* the simulation crates in the
//! dependency graph: it knows nothing about tasks, energy, or schedulers.
//! It provides five small, orthogonal pieces:
//!
//! - `metrics` — a [`MetricsRegistry`] that accumulates counters / gauges /
//!   log2-bucket histograms and freezes them into a serializable
//!   [`MetricsSnapshot`].
//! - [`profile`] — scoped wall-clock phase timers ([`PhaseProfiler`]) that
//!   aggregate into a serializable [`PhaseProfile`] (calls, total, mean, max
//!   per phase).
//! - `export` — a streaming JSONL writer/reader: one serde value per line,
//!   lossless round-trip through the vendored `serde_json`.
//! - [`timeline`] — piecewise step series (storage level and active DVFS
//!   level vs. time) with uniform-grid resampling for ASCII plotting.
//! - [`io`] — the fault-injectable storage I/O seam ([`StoreIo`] with a
//!   real backend and a deterministic SplitMix64-scheduled [`FaultyIo`]),
//!   plus the shared recovery vocabulary: [`RetryPolicy`], [`Durability`],
//!   and the [`IoCounters`] / [`IoHealth`] accounting that heartbeats and
//!   reports surface.
//!
//! Campaign-scale telemetry (all opt-in, all zero-cost when absent):
//!
//! - [`span`] — a two-tier span tracer ([`SpanCollector`] /
//!   per-worker [`SpanSink`]) with a Chrome-trace / Perfetto exporter,
//!   so a whole sweep renders as a flame chart of workers × cells.
//! - [`progress`] — a shared [`ProgressReporter`] streaming versioned
//!   JSONL progress events (start / per-cell decision / heartbeat with
//!   rate, hit rate, and ETA / finish), schema-guarded like run
//!   artifacts.
//!
//! A failed campaign cell needs no recorder of its own: every cell is a
//! deterministic function of its key, so `exp record --key` replays it
//! with full tracing on demand.
//!
//! Everything here is **off by default** in the simulator: the hot loops keep
//! plain integer counters (no dynamic dispatch) and only publish into a
//! registry once, at end of run, when explicitly asked to.
//!
//! [`PhaseProfiler`]: profile::PhaseProfiler
//! [`StoreIo`]: io::StoreIo
//! [`FaultyIo`]: io::FaultyIo
//! [`RetryPolicy`]: io::RetryPolicy
//! [`Durability`]: io::Durability
//! [`IoCounters`]: io::IoCounters
//! [`IoHealth`]: io::IoHealth
//! [`SpanCollector`]: span::SpanCollector
//! [`SpanSink`]: span::SpanSink

pub(crate) mod export;
pub mod io;
pub(crate) mod metrics;
pub mod profile;
pub mod progress;
pub mod span;
pub mod timeline;

pub use export::{jsonl_to_vec, JsonlWriter};
pub use metrics::{Log2Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use profile::PhaseProfile;
pub use progress::ProgressReporter;
