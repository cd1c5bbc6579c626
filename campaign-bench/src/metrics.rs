//! The metric catalogue: end-to-end metrics of an untraced run and
//! per-layer metrics of a traced one. `README.md` lists each with the
//! end-to-end metric it should move.

use std::time::Duration;

use crate::trace::{Layer, Phase, Tracer};
use crate::work::WorkCounts;
use crate::{peak_rss_mb, StoreFacts, THREADS};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced run.
pub(crate) fn end_to_end(phase: &Phase, setups: &[Duration], tail: f64) -> Vec<Metric> {
    let mut setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    setup.sort_by(f64::total_cmp);
    vec![
        m("cells_per_s", "cells/s", phase.cells_per_s()),
        m("op_p50_ms", "ms", phase.quantile_ms(0.5)),
        m("op_tail_ms", "ms", phase.quantile_ms(tail)),
        m(
            "setup_s",
            "s",
            setup.get(setup.len() / 2).copied().unwrap_or(0.0),
        ),
        m("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// What the per-layer metrics are computed from.
pub(crate) struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub untraced: &'a Phase,
    pub traced: &'a Phase,
    /// Summed wall time of the traced set-ups.
    pub setup_wall: Duration,
    pub counts: &'a WorkCounts,
    pub facts: StoreFacts,
}

/// The per-layer metrics of a traced run.
pub(crate) fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let t = x.tracer;
    let ns = |l: Layer| t.ns(l) as f64;
    // Mean nanoseconds per item of `layer`.
    let per = |l: Layer| ratio(ns(l), t.units(l) as f64);
    let slots = (THREADS as u64 * x.traced.wall_ns) as f64;
    let build = ns(Layer::Profile) + ns(Layer::Taskset) + ns(Layer::Tape);
    let engine = ns(Layer::Run) + ns(Layer::Batch);
    let timed_layers: f64 = [
        Layer::Run,
        Layer::Batch,
        Layer::Summary,
        Layer::Key,
        Layer::Probe,
        Layer::Open,
        Layer::Append,
        Layer::Barrier,
        Layer::Close,
        Layer::Assemble,
    ]
    .iter()
    .map(|&l| ns(l))
    .sum();
    let idle = (slots - x.traced.busy_ns as f64).max(0.0);
    let c = x.counts;
    let f = x.facts;
    vec![
        m("build.profile_us", "us", per(Layer::Profile) / 1e3),
        m("build.taskset_us", "us", per(Layer::Taskset) / 1e3),
        m("build.tape_us", "us", per(Layer::Tape) / 1e3),
        m(
            "build.share",
            "fraction",
            ratio(build, THREADS as f64 * x.setup_wall.as_nanos() as f64),
        ),
        m("run.cell_us", "us", per(Layer::Run) / 1e3),
        m("run.lane_us", "us", per(Layer::Batch) / 1e3),
        m("run.ns_per_event", "ns", ratio(engine, t.events() as f64)),
        m("run.summary_us", "us", per(Layer::Summary) / 1e3),
        m(
            "run.share",
            "fraction",
            ratio(engine + ns(Layer::Summary), slots),
        ),
        m("work.events", "count", c.per_cell(c.events)),
        m(
            "work.queue_scheduled",
            "count",
            c.per_cell(c.queue_scheduled),
        ),
        m(
            "work.queue_max_pending",
            "count",
            c.per_cell(c.queue_max_pending),
        ),
        m("work.cursor_locates", "count", c.per_cell(c.cursor_locates)),
        m(
            "work.cursor_gallop_segments",
            "count",
            c.per_cell(c.cursor_gallop_segments),
        ),
        m("work.cross_scan", "count", c.per_cell(c.cross_scan)),
        m("work.cross_bisect", "count", c.per_cell(c.cross_bisect)),
        m("work.decisions", "count", c.per_cell(c.decisions)),
        m(
            "work.es_memo_hit_frac",
            "fraction",
            ratio(
                c.es_memo_hits as f64,
                (c.es_memo_hits + c.es_memo_misses) as f64,
            ),
        ),
        m("work.stalls", "count", c.per_cell(c.stalls)),
        m("work.allocs", "count", c.per_cell(c.allocs)),
        m(
            "work.multi_lane_frac",
            "fraction",
            ratio(c.multi_lane_ticks as f64, c.batch_ticks as f64),
        ),
        m("store.open_ms", "ms", per(Layer::Open) / 1e6),
        m("store.key_us", "us", per(Layer::Key) / 1e3),
        m("store.probe_us", "us", per(Layer::Probe) / 1e3),
        m(
            "store.hit_frac",
            "fraction",
            ratio(f.hits as f64, f.probes as f64),
        ),
        m(
            "store.bytes_per_record",
            "bytes",
            ratio(f.bytes as f64, f.records as f64),
        ),
        m("store.append_us", "us", per(Layer::Append) / 1e3),
        m("store.barrier_ms", "ms", per(Layer::Barrier) / 1e6),
        m("store.close_ms", "ms", per(Layer::Close) / 1e6),
        m("store.retries", "count", f.retries as f64),
        m("store.degraded", "count", f.degraded as f64),
        m(
            "parallel.busy_frac",
            "fraction",
            ratio(x.traced.busy_ns as f64, slots),
        ),
        m("parallel.idle_s", "s", idle / 1e9),
        m("parallel.maps", "count", x.traced.maps as f64),
        m("figure.assemble_us", "us", per(Layer::Assemble) / 1e3),
        m(
            "trace.overhead_ratio",
            "ratio",
            ratio(x.untraced.cells_per_s(), x.traced.cells_per_s()),
        ),
        m(
            "trace.coverage",
            "fraction",
            ratio(timed_layers + idle, slots),
        ),
    ]
}

/// The per-layer metrics as aligned report lines.
pub(crate) fn table(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| format!("# {:<30} {:>16.4} {}", m.name, m.value, m.unit))
        .collect()
}
