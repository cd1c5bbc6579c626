//! Structured run artifacts: a streaming JSONL schema for one
//! closed-loop run, plus rendering and diffing for `exp inspect`.
//!
//! One artifact file is a sequence of self-describing lines, one JSON
//! object per line, in a fixed order:
//!
//! 1. `Meta` — schema version, policy, horizon, headline outcomes;
//! 2. `Metrics` — the frozen [`MetricsSnapshot`], if collected;
//! 3. `Profile` — the wall-clock [`PhaseProfile`], if collected;
//! 4. `Energy` — storage-level samples `(t, EC(t))`, one per line;
//! 5. `Level` — active-DVFS-level change points, one per line;
//! 6. `Trace` — the scheduling trace, one stamped event per line.
//!
//! Streaming JSONL (rather than one JSON document) keeps the exporter
//! O(1) in memory for long traces and lets tooling `grep`/`head`
//! artifacts without a parser. The line enum is externally tagged, so
//! every line is `{"<Kind>": ...}` and unknown kinds fail loudly on
//! read — schema drift is a hard error, not a silent skip.

use harvest_core::result::SimResult;
use harvest_core::trace::TraceEvent;
use harvest_obs::timeline::{LevelPoint, TimePoint, Timeline};
use harvest_obs::{jsonl_to_vec, JsonlWriter, MetricsSnapshot, PhaseProfile};
use harvest_sim::engine::PHASE_DISPATCH;
use harvest_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Version stamp written into every artifact's `Meta` line; readers
/// reject files whose stamp differs.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// Headline facts about the run the artifact describes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RunMeta {
    /// Artifact schema version ([`SCHEMA_VERSION`]).
    pub(crate) schema: u32,
    /// Scheduling policy name.
    pub(crate) scheduler: String,
    /// Simulated horizon in time units.
    pub(crate) horizon_units: f64,
    /// Jobs released.
    pub(crate) released: u64,
    /// Jobs that missed their deadline.
    pub(crate) missed: u64,
    /// Engine events handled.
    pub(crate) events: u64,
    /// Domain trace events emitted.
    pub(crate) trace_events: u64,
}

/// One stamped scheduling event, flattened to plain fields for JSONL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TraceLine {
    /// Emission instant.
    pub(crate) t: SimTime,
    /// The event.
    pub(crate) event: TraceEvent,
}

/// One line of a run artifact (externally tagged).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum RunLine {
    /// Run header; always the first line.
    Meta(RunMeta),
    /// Frozen metrics registry.
    Metrics(MetricsSnapshot),
    /// Wall-clock phase profile.
    Profile(PhaseProfile),
    /// One storage-level sample.
    Energy(TimePoint),
    /// One active-DVFS-level change point.
    Level(LevelPoint),
    /// One scheduling trace event.
    Trace(TraceLine),
}

/// Everything `exp inspect` can show about one run, assembled from a
/// [`SimResult`] or parsed back from its JSONL form.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifact {
    /// Run header.
    pub(crate) meta: RunMeta,
    /// Metrics snapshot, if the run collected one.
    pub metrics: Option<MetricsSnapshot>,
    /// Phase profile, if the run collected one.
    pub profile: Option<PhaseProfile>,
    /// Energy/level timelines.
    pub(crate) timeline: Timeline,
    /// Full scheduling trace, if the run retained one.
    pub(crate) trace: Vec<TraceLine>,
}

/// Maps one trace event to the DVFS-level timeline value it implies, if
/// it changes the processor's activity at all.
fn level_of(event: &TraceEvent) -> Option<i64> {
    match event {
        TraceEvent::Started { level, .. } => Some(*level as i64),
        TraceEvent::Idled { .. } | TraceEvent::Completed { .. } => Some(LevelPoint::IDLE),
        TraceEvent::Stalled { .. } => Some(LevelPoint::STALLED),
        TraceEvent::Released { .. }
        | TraceEvent::Missed { .. }
        | TraceEvent::HarvestFault { .. }
        | TraceEvent::LevelLockout { .. } => None,
    }
}

impl RunArtifact {
    /// Assembles the artifact from a finished run. The energy series
    /// comes from the run's storage samples and the level series is
    /// derived from the trace (`Started` → its level, `Idled`/
    /// `Completed` → idle, `Stalled` → stalled), so observability never
    /// adds state to the simulation itself.
    pub fn from_result(r: &SimResult) -> Self {
        let mut timeline = Timeline::default();
        for &(t, level) in &r.samples {
            timeline.energy.push(TimePoint {
                t: t.as_units(),
                value: level,
            });
        }
        let mut last = None;
        for (t, ev) in &r.trace {
            if let Some(level) = level_of(ev) {
                if last != Some(level) {
                    timeline.level.push(LevelPoint {
                        t_ticks: t.as_ticks(),
                        level,
                    });
                    last = Some(level);
                }
            }
        }
        RunArtifact {
            meta: RunMeta {
                schema: SCHEMA_VERSION,
                scheduler: r.scheduler.clone(),
                horizon_units: r.horizon.as_units(),
                released: r.released() as u64,
                missed: r.missed() as u64,
                events: r.events,
                trace_events: r.trace_events,
            },
            metrics: r.metrics.clone(),
            profile: r.profile.clone(),
            timeline,
            trace: r
                .trace
                .iter()
                .map(|&(t, event)| TraceLine { t, event })
                .collect(),
        }
    }

    /// Streams the artifact into `out` as JSONL.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors from the writer.
    pub fn write_jsonl<W: std::io::Write>(&self, out: W) -> std::io::Result<u64> {
        let mut w = JsonlWriter::new(out);
        w.write(&RunLine::Meta(self.meta.clone()))?;
        if let Some(m) = &self.metrics {
            w.write(&RunLine::Metrics(m.clone()))?;
        }
        if let Some(p) = &self.profile {
            w.write(&RunLine::Profile(p.clone()))?;
        }
        for &p in &self.timeline.energy {
            w.write(&RunLine::Energy(p))?;
        }
        for &p in &self.timeline.level {
            w.write(&RunLine::Level(p))?;
        }
        for line in &self.trace {
            w.write(&RunLine::Trace(line.clone()))?;
        }
        let lines = w.lines();
        w.finish()?;
        Ok(lines)
    }

    /// The artifact as one JSONL string.
    pub fn to_jsonl(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("JSON is UTF-8")
    }

    /// Parses an artifact back from its JSONL form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for malformed JSON,
    /// unknown line kinds, a missing/misplaced `Meta` header, or a
    /// schema-version mismatch.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let lines: Vec<RunLine> = jsonl_to_vec(text)?;
        let mut it = lines.into_iter();
        let meta = match it.next() {
            Some(RunLine::Meta(meta)) => meta,
            Some(other) => return Err(format!("first line must be Meta, got {other:?}")),
            None => return Err("empty artifact".into()),
        };
        if meta.schema != SCHEMA_VERSION {
            return Err(format!(
                "schema version {} unsupported (expected {SCHEMA_VERSION})",
                meta.schema
            ));
        }
        let mut artifact = RunArtifact {
            meta,
            metrics: None,
            profile: None,
            timeline: Timeline::default(),
            trace: Vec::new(),
        };
        for line in it {
            match line {
                RunLine::Meta(_) => return Err("duplicate Meta line".into()),
                RunLine::Metrics(m) => artifact.metrics = Some(m),
                RunLine::Profile(p) => artifact.profile = Some(p),
                RunLine::Energy(p) => artifact.timeline.energy.push(p),
                RunLine::Level(p) => artifact.timeline.level.push(p),
                RunLine::Trace(t) => artifact.trace.push(t),
            }
        }
        Ok(artifact)
    }

    /// Renders the full inspection report: header, metrics table, phase
    /// profile, and timelines as ASCII plots.
    pub fn render(&self) -> String {
        use crate::report::{ascii_plot, fmt_num, Table};
        use std::fmt::Write as _;

        let mut out = String::new();
        let m = &self.meta;
        let _ = writeln!(
            out,
            "run: {} | horizon {} | released {} | missed {} | engine events {} | trace events {}",
            m.scheduler,
            fmt_num(m.horizon_units),
            m.released,
            m.missed,
            m.events,
            m.trace_events
        );

        if let Some(snap) = &self.metrics {
            let mut t = Table::new(vec!["metric", "value", "detail"]);
            for e in &snap.entries {
                let (value, detail) = match &e.value {
                    harvest_obs::MetricValue::Counter(c) => (c.to_string(), String::new()),
                    harvest_obs::MetricValue::Gauge(g) => (fmt_num(*g), "gauge".into()),
                    harvest_obs::MetricValue::Histogram(h) => (
                        h.count.to_string(),
                        format!(
                            "mean {} p50 {} max {}",
                            fmt_num(h.mean()),
                            fmt_num(h.quantile(0.5)),
                            fmt_num(h.max)
                        ),
                    ),
                };
                t.row(vec![e.name.clone(), value, detail]);
            }
            let _ = write!(out, "\nmetrics\n{}", t.render());
        } else {
            out.push_str("\nmetrics: not collected (run with --metrics)\n");
        }

        if let Some(profile) = &self.profile {
            // `engine.dispatch` contains the other phases, so its row is
            // self time and every `%` is of the dispatch total. The final
            // `sync_to` of a run falls outside dispatch, hence the
            // saturating subtraction.
            let dispatch = profile.get(PHASE_DISPATCH);
            let total = dispatch.map_or_else(|| profile.total_ns(), |d| d.total_ns);
            let nested: u64 = profile
                .phases
                .iter()
                .filter(|p| p.name != PHASE_DISPATCH)
                .map(|p| p.total_ns)
                .sum();
            let mut t = Table::new(vec!["phase", "calls", "total_ms", "mean_us", "max_us", "%"]);
            for p in &profile.phases {
                let (name, ns, max_us) = if p.name == PHASE_DISPATCH {
                    let own = p.total_ns.saturating_sub(nested);
                    (format!("{} (self)", p.name), own, "-".to_string())
                } else {
                    let max_us = format!("{:.2}", p.max_ns as f64 / 1e3);
                    (p.name.clone(), p.total_ns, max_us)
                };
                t.row(vec![
                    name,
                    p.calls.to_string(),
                    format!("{:.3}", ns as f64 / 1e6),
                    format!("{:.2}", ns as f64 / p.calls.max(1) as f64 / 1e3),
                    max_us,
                    format!("{:.1}", 100.0 * ns as f64 / total.max(1) as f64),
                ]);
            }
            let heading = match dispatch {
                Some(_) => format!("% of {PHASE_DISPATCH}, {:.3} ms", total as f64 / 1e6),
                None => "% of all phases".to_string(),
            };
            let _ = write!(out, "\nphase profile ({heading})\n{}", t.render());
        } else {
            out.push_str("\nphase profile: not collected (run with --profile)\n");
        }

        const PLOT_WIDTH: usize = 72;
        if !self.timeline.energy.is_empty() {
            let series = self.timeline.energy_series(PLOT_WIDTH);
            let _ = write!(
                out,
                "\nstorage level over time\n{}",
                ascii_plot(&[("EC(t)", &series[..])], "t", PLOT_WIDTH, 10)
            );
        }
        if !self.timeline.level.is_empty() {
            let series = self.timeline.level_series(PLOT_WIDTH);
            let _ = write!(
                out,
                "\nactive DVFS level over time (-1 idle, -2 stalled)\n{}",
                ascii_plot(&[("level", &series[..])], "t", PLOT_WIDTH, 8)
            );
        }
        out
    }

    /// Renders a metric-by-metric diff of two runs' snapshots.
    ///
    /// # Errors
    ///
    /// Returns a message if either artifact carries no metrics snapshot.
    pub fn render_diff(&self, baseline: &RunArtifact) -> Result<String, String> {
        use crate::report::{fmt_num, Table};
        let (a, b) = match (&self.metrics, &baseline.metrics) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err("both artifacts need a Metrics line to diff".into()),
        };
        let mut t = Table::new(vec!["metric", "baseline", "this run", "delta"]);
        for row in a.diff(b) {
            t.row(vec![
                row.name.clone(),
                row.before.map_or("-".into(), fmt_num),
                row.after.map_or("-".into(), fmt_num),
                fmt_num(row.delta()),
            ]);
        }
        Ok(format!(
            "diff: {} (baseline) -> {} (this run)\n{}",
            baseline.meta.scheduler,
            self.meta.scheduler,
            t.render()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PaperScenario, PolicyKind};
    use harvest_core::config::SystemConfig;
    use harvest_core::system::simulate;
    use harvest_cpu::presets;
    use harvest_energy::predictor::OraclePredictor;
    use harvest_energy::storage::StorageSpec;
    use harvest_sim::piecewise::PiecewiseConstant;
    use harvest_sim::time::SimDuration;
    use harvest_task::task::Task;
    use harvest_task::taskset::TaskSet;

    fn observed_run() -> SimResult {
        let tasks = TaskSet::new(vec![Task::periodic_implicit(
            SimDuration::from_whole_units(10),
            2.0,
        )]);
        let profile = PiecewiseConstant::constant(1.0);
        let config = SystemConfig::new(
            presets::xscale(),
            StorageSpec::ideal(50.0),
            SimDuration::from_whole_units(200),
        )
        .with_sample_interval(SimDuration::from_whole_units(10))
        .with_trace()
        .with_metrics()
        .with_profiling();
        simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(harvest_core::policies::EaDvfsScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        )
    }

    #[test]
    fn artifact_round_trips_losslessly() {
        let r = observed_run();
        let art = RunArtifact::from_result(&r);
        assert_eq!(art.meta.schema, SCHEMA_VERSION);
        assert!(art.metrics.is_some() && art.profile.is_some());
        assert!(!art.timeline.energy.is_empty());
        assert!(!art.timeline.level.is_empty());
        assert!(!art.trace.is_empty());
        let jsonl = art.to_jsonl();
        assert!(jsonl.lines().count() > 4);
        let back = RunArtifact::from_jsonl(&jsonl).expect("parses");
        assert_eq!(back, art, "JSONL round-trip must be lossless");
    }

    #[test]
    fn schema_drift_is_rejected() {
        let r = observed_run();
        let mut art = RunArtifact::from_result(&r);
        art.meta.schema = SCHEMA_VERSION + 1;
        let err = RunArtifact::from_jsonl(&art.to_jsonl()).unwrap_err();
        assert!(err.contains("schema version"), "got: {err}");
        assert!(RunArtifact::from_jsonl("").is_err());
        assert!(RunArtifact::from_jsonl("{\"Energy\":{\"t\":0.0,\"value\":1.0}}").is_err());
    }

    #[test]
    fn level_timeline_tracks_started_and_idle() {
        let r = observed_run();
        let art = RunArtifact::from_result(&r);
        assert!(
            art.timeline.level.iter().any(|p| p.level >= 0),
            "some execution level appears"
        );
        // Change points only: no two consecutive equal levels.
        for w in art.timeline.level.windows(2) {
            assert_ne!(w[0].level, w[1].level);
        }
    }

    #[test]
    fn render_mentions_metrics_and_phases() {
        let r = observed_run();
        let art = RunArtifact::from_result(&r);
        let text = art.render();
        assert!(text.contains("engine.events"));
        assert!(text.contains("policy.decide"));
        assert!(text.contains("storage level over time"));
        assert!(text.contains("active DVFS level"));
        assert!(text.contains("engine.dispatch (self)"));

        // Dispatch contains the other phases: its row is self time, and
        // every share is of the dispatch total.
        let share = |text: &str, name: &str| -> String {
            let line = text.lines().find(|l| l.trim_start().starts_with(name));
            line.unwrap().split_whitespace().last().unwrap().to_string()
        };
        let phase = |name: &str, total_ns: u64| harvest_obs::profile::PhaseStat {
            name: name.into(),
            calls: 4,
            total_ns,
            max_ns: total_ns / 2,
        };
        let mut art = art;
        art.profile = Some(PhaseProfile {
            phases: vec![
                phase(PHASE_DISPATCH, 4_000_000),
                phase("energy.sync", 1_000_000),
                phase("policy.decide", 600_000),
            ],
        });
        let text = art.render();
        assert!(text.contains("phase profile (% of engine.dispatch, 4.000 ms)"));
        assert_eq!(share(&text, "engine.dispatch (self)"), "60.0");
        assert_eq!(share(&text, "energy.sync"), "25.0");
        assert_eq!(share(&text, "policy.decide"), "15.0");
        // Nested time beyond dispatch (a sync outside it) floors the
        // self row at zero instead of wrapping.
        art.profile.as_mut().unwrap().phases[1].total_ns = 5_000_000;
        let text = art.render();
        assert_eq!(share(&text, "engine.dispatch (self)"), "0.0");
        assert_eq!(share(&text, "energy.sync"), "125.0");
    }

    #[test]
    fn diff_requires_and_uses_metrics() {
        let mut s = PaperScenario::new(0.4, 500.0);
        s.horizon_units = 2_000;
        let prefab = s.prefab(1);
        let a = RunArtifact::from_result(&s.run_prefab_observed(PolicyKind::Lsa, &prefab).0);
        let b = RunArtifact::from_result(&s.run_prefab_observed(PolicyKind::EaDvfs, &prefab).0);
        let text = b.render_diff(&a).expect("both have metrics");
        assert!(text.contains("sched.decisions"));
        let bare = RunArtifact {
            metrics: None,
            ..a.clone()
        };
        assert!(bare.render_diff(&a).is_err());
    }
}
