//! # Campaign benchmark of record
//!
//! Runs the paper's §5 campaigns — Figs. 8/9 (miss rate against storage
//! capacity) and Table 1 (the smallest capacity with zero misses) — the
//! way users run them: cold, policy-lockstep batched, warm from a pack
//! store, and as a capacity search. Each workload is driven through the
//! library's public per-layer calls, so every layer can be timed on its
//! own, and the harness checks every answer it times.
//!
//! One run is: `setup_reps` set-ups (the median is `setup_s`), a timed
//! phase of `--seconds`, then output checks. A traced run splits the
//! seconds between an untraced and a traced timed phase, adds a
//! deterministic work-count replay, and reports per-layer metrics
//! instead of end-to-end ones. See `README.md` for the
//! workloads, the metric catalogue and how to compare two commits.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harvest_exp::parallel::parallel_map;
use harvest_exp::scenario::{PaperScenario, PolicyKind, TrialPrefab};
use harvest_sim::time::SimDuration;

mod alloc;
mod metrics;
mod miss;
mod search;
mod trace;
mod work;

pub use alloc::CountingAlloc;
pub use metrics::Metric;
pub use miss::figure_fnv64;
use trace::{Layer, Phase, Tracer};

/// Worker threads of every timed phase.
pub const THREADS: usize = 2;

/// The two policy arms every campaign compares, in report order.
pub const POLICIES: [PolicyKind; 2] = [PolicyKind::Lsa, PolicyKind::EaDvfs];

/// Cells of a workload's grid use seeds `base..base + seeds`, with
/// `base = --seed × SEED_BLOCK`, so distinct `--seed` values never share
/// an input.
pub const SEED_BLOCK: u64 = 1_000_000;

/// Every `REPLAY_EVERY`-th op of a timed phase is re-run through the
/// unpooled, untaped reference path and compared bit for bit.
const REPLAY_EVERY: u64 = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9 grid (U = 0.8), scalar pooled engine, no store.
    Fig9Cold,
    /// Fig. 8 grid (U = 0.4) as two-arm policy-lockstep batches.
    Fig8Lockstep,
    /// Fig. 9 grid re-assembled from a filled pack store.
    Fig9Warm,
    /// Table 1 capacity searches writing fresh pack stores.
    Table1Search,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig9Cold,
        Workload::Fig8Lockstep,
        Workload::Fig9Warm,
        Workload::Table1Search,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Cold => "fig9-cold",
            Workload::Fig8Lockstep => "fig8-lockstep",
            Workload::Fig9Warm => "fig9-warm",
            Workload::Table1Search => "table1-search",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeds per grid at full size.
    pub fn seeds(self) -> usize {
        match self {
            Workload::Fig9Cold => 200,
            Workload::Fig8Lockstep => 400,
            Workload::Fig9Warm => 100,
            Workload::Table1Search => 64,
        }
    }

    /// Set-ups per run; `setup_s` is their median. The warm fill
    /// simulates its whole grid, so it repeats fewer times.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Fig9Warm => 3,
            _ => 9,
        }
    }

    /// The percentile reported as `op_tail_ms`: the highest one with at
    /// least ten ops beyond it in a default-length run.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::Table1Search => 0.90,
            _ => 0.99,
        }
    }

    /// What one op of the timed phase is.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::Fig9Cold => "cell",
            Workload::Fig8Lockstep => "batch",
            Workload::Fig9Warm => "rerun",
            Workload::Table1Search => "step",
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// First seed of the grid.
    pub seed_base: u64,
    /// Seeds per grid.
    pub seeds: usize,
    /// Length of the timed phase (shared by both phases when tracing).
    pub budget: Duration,
    /// Report per-layer metrics from an extra traced phase.
    pub trace: bool,
    /// Scratch directory for pack stores; created, and removed again
    /// when the run ends.
    pub work_dir: PathBuf,
    /// Where a traced run writes its Chrome-trace JSON.
    pub trace_out: Option<PathBuf>,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops started across the timed phases.
    pub attempted: u64,
    /// Ops that panicked, failed, or whose output failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable result lines, printed before the JSON line.
    pub lines: Vec<String>,
    /// `fnv1a64` of the miss-rate figure's JSON (the `figure_fnv64`
    /// `exp sweep` prints), for the Fig. 8/9 workloads.
    pub figure_fnv64: Option<u64>,
    /// `(utilization, policy, C_min)` per search, for `table1-search`.
    pub cmin: Vec<(f64, PolicyKind, f64)>,
    /// Store probes answered in the timed phases.
    pub store_hits: u64,
    /// Store probes made in the timed phases.
    pub store_probes: u64,
}

impl Report {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        trace::keep_failure(&mut self.failures, message);
    }

    fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.ops;
        self.failed += phase.failed;
        for message in &phase.failures {
            trace::keep_failure(&mut self.failures, message.clone());
        }
    }

    /// The benchmark's result line: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The run header: everything needed to compare two reports.
pub fn header(opts: &Options) -> Vec<String> {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = opts.workload;
    let mut lines = vec![format!(
        "# campaign workload={} threads={THREADS} available_parallelism={available} \
         seed_base={} seeds={} op={} setup_reps={} seconds={} tail=p{} trace={}",
        w.name(),
        opts.seed_base,
        opts.seeds,
        w.op_name(),
        w.setup_reps(),
        opts.budget.as_secs_f64(),
        (w.tail_quantile() * 100.0).round(),
        u8::from(opts.trace),
    )];
    if available < THREADS {
        lines.push(format!(
            "# warning: available_parallelism {available} < threads {THREADS}; \
             workers time-share cores, so parallel timings are not comparable"
        ));
    }
    lines
}

/// A workload's campaign, driven phase by phase by [`run`].
trait Campaign: Sync {
    /// One set-up: everything before the timed phase. Only the build
    /// layer is traced here.
    fn setup(&mut self, tr: Option<&Tracer>) -> Result<(), String>;
    /// One timed phase of `budget`.
    fn timed(&self, budget: Duration, tr: Option<&Tracer>) -> Phase;
    /// Output checks after timing; records failures and results.
    fn check(&mut self, report: &mut Report);
    /// Deterministic work counts over a fixed sample of the grid.
    fn replay(&self) -> Result<work::WorkCounts, String>;
    /// Store facts for the per-layer report.
    fn store_facts(&self) -> StoreFacts;
}

/// Store-side facts a campaign gathered in its timed phases.
#[derive(Debug, Clone, Copy, Default)]
struct StoreFacts {
    /// Probes answered by the store.
    pub hits: u64,
    /// Probes made.
    pub probes: u64,
    /// Pack bytes on disk.
    pub bytes: u64,
    /// Live records on disk.
    pub records: u64,
    /// Transient I/O errors retried.
    pub retries: u64,
    /// Operations that degraded.
    pub degraded: u64,
}

/// Runs one benchmark invocation: set-ups, timed phase(s), checks and,
/// when tracing, the work replay and Chrome-trace export.
///
/// # Errors
///
/// Returns an error when a set-up fails or the scratch directory or
/// trace file cannot be written; failed ops are counted in the report
/// instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let result = run_in(opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    result
}

fn run_in(opts: &Options) -> Result<Report, String> {
    let mut campaign: Box<dyn Campaign> = match opts.workload {
        Workload::Fig9Cold => Box::new(miss::Cold::new(opts, false)),
        Workload::Fig8Lockstep => Box::new(miss::Cold::new(opts, true)),
        Workload::Fig9Warm => Box::new(miss::Warm::new(opts)),
        Workload::Table1Search => Box::new(search::Search::new(opts)),
    };
    let tracer = opts.trace.then(Tracer::new);
    let tr = tracer.as_ref();
    let mut driver = tr.map(|t| t.sink(trace::TID_DRIVER));

    let mut setups = Vec::with_capacity(opts.workload.setup_reps());
    for _ in 0..opts.workload.setup_reps() {
        let span = driver.as_ref().map(|s| s.start());
        let t0 = Instant::now();
        campaign.setup(tr)?;
        setups.push(t0.elapsed());
        if let (Some(sink), Some(span)) = (driver.as_mut(), span) {
            sink.record(span, "setup", harvest_obs::span::CAT_BUILD);
        }
    }

    // A traced run splits its budget: an untraced phase, for the
    // tracing overhead, then the traced phase.
    let budget = if opts.trace {
        opts.budget / 2
    } else {
        opts.budget
    };
    let mut report = Report::default();
    let untraced = campaign.timed(budget, None);
    report.absorb(&untraced);
    let traced = tr.map(|t| {
        let span = driver.as_ref().map(|s| s.start());
        let phase = campaign.timed(budget, Some(t));
        if let (Some(sink), Some(span)) = (driver.as_mut(), span) {
            sink.record(span, "timed", harvest_obs::span::CAT_FIGURE);
        }
        phase
    });
    if let Some(phase) = &traced {
        report.absorb(phase);
    }
    let counts = match tr {
        Some(_) => Some(campaign.replay()?),
        None => None,
    };
    campaign.check(&mut report);
    let facts = campaign.store_facts();
    report.store_hits = facts.hits;
    report.store_probes = facts.probes;

    let tail = opts.workload.tail_quantile();
    report.lines.push(format!(
        "# timed: ops={} cells={} wall_s={:.3} cells_per_s={:.1} latency_ms p50={:.4} \
         p90={:.4} p95={:.4} p99={:.4} (n={} ops) failed={}",
        untraced.ops,
        untraced.cells,
        untraced.wall_ns as f64 / 1e9,
        untraced.cells_per_s(),
        untraced.quantile_ms(0.5),
        untraced.quantile_ms(0.9),
        untraced.quantile_ms(0.95),
        untraced.quantile_ms(0.99),
        untraced.latencies_ns.len(),
        report.failed,
    ));
    report.metrics = match (tracer.as_ref(), traced.as_ref(), counts.as_ref()) {
        (Some(t), Some(phase), Some(counts)) => {
            let setup_wall: Duration = setups.iter().sum();
            let m = metrics::per_layer(&metrics::LayerInputs {
                tracer: t,
                untraced: &untraced,
                traced: phase,
                setup_wall,
                counts,
                facts,
            });
            report.lines.extend(metrics::table(&m));
            m
        }
        _ => metrics::end_to_end(&untraced, &setups, tail),
    };
    if let (Some(t), Some(out)) = (tracer.as_ref(), opts.trace_out.as_ref()) {
        drop(driver);
        t.write_chrome_trace(out)
            .map_err(|e| format!("write trace {}: {e}", out.display()))?;
        report
            .lines
            .push(format!("# chrome trace: {}", out.display()));
    }
    Ok(report)
}

/// Builds one prefab per seed on [`THREADS`] workers. Traced builds go
/// through the per-layer calls (`profile`, `taskset`, `release_tape`)
/// that [`PaperScenario::prefab`] chains, so each is timed on its own.
fn build_prefabs(
    scenario: &PaperScenario,
    seeds: Vec<u64>,
    tr: Option<&Tracer>,
) -> Vec<TrialPrefab> {
    parallel_map(seeds, THREADS, |seed| match tr {
        None => scenario.prefab(seed),
        Some(t) => {
            let profile = Arc::new(t.time(Layer::Profile, 1, || scenario.profile(seed)));
            let tasks = Arc::new(t.time(Layer::Taskset, 1, || scenario.taskset(seed, &profile)));
            let horizon = SimDuration::from_whole_units(scenario.horizon_units);
            let tape = Arc::new(t.time(Layer::Tape, 1, || tasks.release_tape(horizon)));
            TrialPrefab {
                seed,
                profile,
                tasks,
                tape: Some(tape),
            }
        }
    })
}

/// Renders a panic payload for a failure message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
