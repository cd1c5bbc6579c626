//! `exp` — record, inspect, and diff observable runs.
//!
//! ```text
//! exp record      [--policy NAME] [--util U] [--capacity C] [--seed N]
//!                 [--horizon UNITS] [--sample UNITS] [--out PATH]
//! exp record      --key KEY [--out PATH]
//! exp inspect     PATH
//! exp diff        PATH BASELINE
//! exp sweep       [--util U] [--trials N] [--threads N] [--store DIR]
//!                 [--trace PATH] [--progress PATH] [--expect-warm]
//! exp fault-sweep [--util U] [--capacity C] [--trials N] [--threads N]
//!                 [--horizon UNITS] [--intensities A,B,..] [--store DIR]
//!                 [--trace PATH] [--progress PATH]
//!                 [--inject-panic POLICY:SEED:INTENSITY]
//!                 [--inject-starve POLICY:SEED:INTENSITY] [--expect-resumed]
//! exp report      [--store DIR] [--progress PATH] [--trace PATH]
//!                 [--json] [--out PATH]
//! exp store stat    DIR [--json]
//! exp store compact DIR
//! ```
//!
//! `record` replays one §5.1 trial with full observability (trace,
//! metrics, phase profiling) and writes the run as a JSONL artifact.
//! The cell is named by its coordinates or, with `--key`, by its
//! canonical trial key as a `quarantine` line or `report` prints it; a
//! key is refused unless it rebuilds byte for byte. The replay runs
//! under the fault campaign's event budget: a run that exhausts it is
//! written as far as it got and the command exits 1 with the watchdog
//! error.
//! `inspect` renders an artifact's metrics, phase profile, and
//! energy/level timelines as tables and ASCII plots. `diff` compares two
//! artifacts' metric snapshots line by line. `sweep` runs a small
//! store-aware miss-rate sweep and reports how it executed (simulated
//! vs. cached cells, pool reuse, and a digest of the figure data) — the
//! CI smoke runs it twice against one store directory and
//! `--expect-warm` makes the second invocation fail unless every cell
//! was a store hit. `fault-sweep` runs the robustness campaign (miss
//! rate vs. fault intensity for EDF/LSA/EA-DVFS) through the
//! quarantining harness: panicking or watchdog-aborted cells are
//! reported as `quarantine` lines and the sweep still exits 0; every
//! decided cell is checkpointed into the store so a killed campaign
//! resumes without re-simulating, and `--expect-resumed` makes a
//! resumed invocation fail unless zero cells were re-simulated. The
//! `--inject-*` flags deterministically sabotage single cells — the CI
//! smoke's failure-injection hooks.
//!
//! Both sweeps resolve one segment-packed [`PackStore`]: `--store DIR`,
//! else the directory `HARVEST_SWEEP_STORE` names, opened at
//! `--durability`. An unopenable `--store` is a runtime error; an
//! unopenable environment store warns and the sweep runs unstored.
//! With no store at all, `--expect-warm`, `--expect-resumed` and
//! `--durability` are usage errors. `store stat` summarizes a store
//! directory and counts its corrupt spans (`--json` for machine
//! consumption); `store compact` merges its packs, dropping superseded
//! records and moving each corrupt span into its own file under
//! `scrub-quarantine/`, named for its pack and byte offset.
//!
//! Campaign telemetry (all off by default, zero-cost when off):
//! `--trace PATH` records phase and per-cell spans and exports them as
//! Chrome-trace JSON (loadable in `chrome://tracing` or Perfetto);
//! `--progress PATH` streams one versioned JSONL event per decided cell
//! plus rate/ETA heartbeats (and mirrors heartbeats as human lines on
//! stderr). `report` folds a store, a progress stream, and a trace back
//! into one markdown (or `--json`) campaign report, with the
//! `exp record --key` command that replays each quarantined cell.
//!
//! Exit codes: 0 on success (including sweeps with quarantined cells,
//! and output cut short because the reader closed stdout), 1 on a
//! runtime failure, 2 on a usage error.

use std::path::PathBuf;
use std::sync::Arc;

use harvest_core::result::SimError;
use harvest_exp::artifact::RunArtifact;
use harvest_exp::cache::{fnv1a64, TrialKey};
use harvest_exp::figures::{
    miss_rate_figure, robustness_campaign, RobustnessConfig, RunPlan, Sabotage, SweepExecStats,
};
use harvest_exp::report::Table;
use harvest_exp::scenario::{PaperScenario, PolicyKind, PredictorKind};
use harvest_exp::store::{
    open_or_warn, store_dir_from_env, CellOutcome, PackStore, SWEEP_STORE_ENV,
};
use harvest_exp::telemetry::CampaignTelemetry;
use harvest_obs::io::{Durability, RealIo, RetryPolicy};
use harvest_obs::progress::{progress_from_jsonl, ProgressLine};
use harvest_obs::span::SpanCollector;
use harvest_obs::MetricsRegistry;
use harvest_obs::ProgressReporter;
use serde::Value;

const USAGE: &str = "usage:
  exp record      [--policy edf|lsa|ea-dvfs|greedy-stretch] [--util U] [--capacity C]
                  [--seed N] [--horizon UNITS] [--sample UNITS] [--out PATH]
  exp record      --key KEY [--out PATH]
  exp inspect     PATH
  exp diff        PATH BASELINE
  exp sweep       [--util U] [--trials N] [--threads N] [--store DIR]
                  [--durability none|batch|record]
                  [--trace PATH] [--progress PATH] [--expect-warm]
  exp fault-sweep [--util U] [--capacity C] [--trials N] [--threads N]
                  [--horizon UNITS] [--intensities A,B,..]
                  [--store DIR] [--durability none|batch|record]
                  [--trace PATH] [--progress PATH]
                  [--inject-panic POLICY:SEED:INTENSITY]
                  [--inject-starve POLICY:SEED:INTENSITY] [--expect-resumed]
  exp report      [--store DIR] [--progress PATH] [--trace PATH]
                  [--json] [--out PATH]
  exp store stat    DIR [--json]
  exp store compact DIR
sweep and fault-sweep use HARVEST_SWEEP_STORE=DIR when --store is absent.";

/// A failed invocation, split by whose fault it is: `Usage` exits 2 and
/// reprints the usage text, `Runtime` exits 1 with a one-line message.
#[derive(Debug)]
enum ExpError {
    Usage(String),
    Runtime(String),
    /// The reader closed stdout (`exp sweep | head -1`): the rest of the
    /// output has nowhere to go, so the command stops quietly.
    StdoutClosed,
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::Usage(msg) | ExpError::Runtime(msg) => write!(f, "{msg}"),
            ExpError::StdoutClosed => write!(f, "stdout closed"),
        }
    }
}

impl std::error::Error for ExpError {}

/// Everything past parsing and store resolution is the machine's fault,
/// not the user's.
impl From<String> for ExpError {
    fn from(msg: String) -> Self {
        ExpError::Runtime(msg)
    }
}

/// Writes `args` to stdout and flushes. Every byte `exp` prints on
/// stdout goes through here, so a closed pipe reaches `run` as
/// [`ExpError::StdoutClosed`] instead of panicking inside `println!`.
fn out(args: std::fmt::Arguments<'_>) -> Result<(), ExpError> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_fmt(args)
        .and_then(|()| stdout.flush())
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe => ExpError::StdoutClosed,
            _ => ExpError::Runtime(format!("cannot write to stdout: {e}")),
        })
}

/// `println!` through [`out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Parameters of one recorded run: the cell, from `--key` or the
/// coordinate flags, and where its artifact goes.
#[derive(Debug, Clone, PartialEq)]
struct RecordArgs {
    scenario: PaperScenario,
    policy: PolicyKind,
    seed: u64,
    out: Option<PathBuf>,
}

impl Default for RecordArgs {
    fn default() -> Self {
        RecordArgs {
            scenario: PaperScenario::new(0.4, 500.0).with_sampling(100),
            policy: PolicyKind::EaDvfs,
            seed: 0,
            out: None,
        }
    }
}

/// Parameters of one smoke sweep.
#[derive(Debug, Clone, PartialEq)]
struct SweepArgs {
    utilization: f64,
    trials: usize,
    threads: usize,
    store: Option<PathBuf>,
    /// `None` unless `--durability` was given explicitly.
    durability: Option<Durability>,
    trace: Option<PathBuf>,
    progress: Option<PathBuf>,
    expect_warm: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            utilization: 0.4,
            trials: 2,
            threads: 2,
            store: None,
            durability: None,
            trace: None,
            progress: None,
            expect_warm: false,
        }
    }
}

/// One sabotage target: the (policy, seed, intensity) cell to fail.
type InjectSpec = (PolicyKind, u64, f64);

/// Parameters of one robustness campaign.
#[derive(Debug, Clone, PartialEq)]
struct FaultSweepArgs {
    utilization: f64,
    capacity: f64,
    trials: usize,
    threads: usize,
    horizon_units: i64,
    intensities: Vec<f64>,
    store: Option<PathBuf>,
    /// `None` unless `--durability` was given explicitly.
    durability: Option<Durability>,
    trace: Option<PathBuf>,
    progress: Option<PathBuf>,
    inject_panic: Vec<InjectSpec>,
    inject_starve: Vec<InjectSpec>,
    expect_resumed: bool,
}

impl Default for FaultSweepArgs {
    fn default() -> Self {
        FaultSweepArgs {
            utilization: 0.4,
            capacity: 300.0,
            trials: 2,
            threads: 2,
            horizon_units: 2_000,
            intensities: vec![0.0, 0.5, 1.0],
            store: None,
            durability: None,
            trace: None,
            progress: None,
            inject_panic: Vec::new(),
            inject_starve: Vec::new(),
            expect_resumed: false,
        }
    }
}

/// Parameters of one campaign report.
#[derive(Debug, Clone, PartialEq, Default)]
struct ReportArgs {
    store: Option<PathBuf>,
    progress: Option<PathBuf>,
    trace: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Record(RecordArgs),
    Inspect(PathBuf),
    Diff { run: PathBuf, baseline: PathBuf },
    Sweep(SweepArgs),
    FaultSweep(FaultSweepArgs),
    Report(ReportArgs),
    StoreStat { dir: PathBuf, json: bool },
    StoreCompact(PathBuf),
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown policy `{name}` (try ea-dvfs, lsa, edf, greedy-stretch)"))
}

/// Parses `--util`: a task-set utilization in (0, 1], the range the
/// workload generator accepts.
fn parse_util(raw: &str) -> Result<f64, String> {
    let util: f64 = raw
        .parse()
        .map_err(|_| "--util expects a number".to_owned())?;
    if !(util > 0.0 && util <= 1.0) {
        return Err(format!("--util must lie in (0, 1], got {raw}"));
    }
    Ok(util)
}

fn parse_record<I, S>(args: I) -> Result<RecordArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = RecordArgs::default();
    let mut key = None;
    let mut coordinates = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_owned();
        let mut value = || {
            it.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        let scenario = &mut out.scenario;
        match flag.as_str() {
            "--key" => key = Some(value()?),
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--policy" => out.policy = parse_policy(&value()?)?,
            "--util" => scenario.utilization = parse_util(&value()?)?,
            "--capacity" => {
                scenario.capacity = value()?
                    .parse()
                    .map_err(|_| "--capacity expects a number".to_owned())?;
                if !(scenario.capacity > 0.0 && scenario.capacity.is_finite()) {
                    return Err("--capacity must be positive".into());
                }
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_owned())?;
            }
            "--horizon" => {
                scenario.horizon_units = value()?
                    .parse()
                    .map_err(|_| "--horizon expects a positive integer".to_owned())?;
                if scenario.horizon_units <= 0 {
                    return Err("--horizon must be positive".into());
                }
            }
            "--sample" => {
                let units = value()?
                    .parse()
                    .map_err(|_| "--sample expects a positive integer".to_owned())?;
                if units <= 0 {
                    return Err("--sample must be positive".into());
                }
                scenario.sample_interval_units = Some(units);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        coordinates |= !matches!(flag.as_str(), "--key" | "--out");
    }
    if let Some(key) = key {
        if coordinates {
            return Err("--key names the whole cell; drop the coordinate flags".into());
        }
        (out.scenario, out.policy, out.seed) = TrialKey::parse(&key)?;
        check_scenario(&out.scenario)?;
    }
    Ok(out)
}

/// Refuses a keyed scenario outside the ranges the coordinate flags and
/// the fault sweep accept, so a hand-edited key fails as a usage error
/// instead of inside the simulator.
fn check_scenario(s: &PaperScenario) -> Result<(), String> {
    let in_range = s.num_tasks > 0
        && s.utilization > 0.0
        && s.utilization <= 1.0
        && s.capacity > 0.0
        && s.capacity.is_finite()
        && s.horizon_units > 0
        && s.source_dt_units > 0
        && s.sample_interval_units.is_none_or(|u| u > 0)
        && s.fault
            .is_none_or(|f| f.intensity > 0.0 && f.intensity <= 1.0)
        && match s.predictor {
            PredictorKind::MovingAverage { window } => window > 0,
            PredictorKind::Biased { factor } => factor.is_finite() && factor >= 0.0,
            _ => true,
        };
    if in_range {
        Ok(())
    } else {
        Err("key names a scenario outside the ranges exp accepts".into())
    }
}

fn parse_command<I, S>(args: I) -> Result<Command, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut it = args.into_iter();
    let sub = it
        .next()
        .map(|s| s.as_ref().to_owned())
        .ok_or_else(|| "missing subcommand".to_owned())?;
    match sub.as_str() {
        "record" => Ok(Command::Record(parse_record(it)?)),
        "inspect" => {
            let path = it
                .next()
                .map(|s| PathBuf::from(s.as_ref()))
                .ok_or_else(|| "inspect expects an artifact path".to_owned())?;
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument {}", extra.as_ref()));
            }
            Ok(Command::Inspect(path))
        }
        "diff" => {
            let run = it
                .next()
                .map(|s| PathBuf::from(s.as_ref()))
                .ok_or_else(|| "diff expects two artifact paths".to_owned())?;
            let baseline = it
                .next()
                .map(|s| PathBuf::from(s.as_ref()))
                .ok_or_else(|| "diff expects two artifact paths".to_owned())?;
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument {}", extra.as_ref()));
            }
            Ok(Command::Diff { run, baseline })
        }
        "sweep" => Ok(Command::Sweep(parse_sweep(it)?)),
        "fault-sweep" => Ok(Command::FaultSweep(parse_fault_sweep(it)?)),
        "report" => Ok(Command::Report(parse_report(it)?)),
        "store" => {
            let verb = it
                .next()
                .map(|s| s.as_ref().to_owned())
                .ok_or_else(|| "store expects `stat` or `compact`".to_owned())?;
            let mut dir: Option<PathBuf> = None;
            let mut json = false;
            for arg in it {
                match arg.as_ref() {
                    "--json" => json = true,
                    a if dir.is_none() && !a.starts_with("--") => dir = Some(PathBuf::from(a)),
                    other => return Err(format!("unexpected argument {other}")),
                }
            }
            let dir = dir.ok_or_else(|| format!("store {verb} expects a store directory"))?;
            match verb.as_str() {
                "stat" => Ok(Command::StoreStat { dir, json }),
                "compact" if json => Err("store compact does not take --json".into()),
                "compact" => Ok(Command::StoreCompact(dir)),
                other => Err(format!("unknown store verb `{other}` (try stat, compact)")),
            }
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Parses `POLICY:SEED:INTENSITY`, e.g. `lsa:0:0.5`.
fn parse_inject(spec: &str) -> Result<InjectSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [policy, seed, intensity] = parts.as_slice() else {
        return Err(format!(
            "injection spec `{spec}` must be POLICY:SEED:INTENSITY"
        ));
    };
    let policy = parse_policy(policy)?;
    let seed = seed
        .parse()
        .map_err(|_| format!("injection seed `{seed}` must be an unsigned integer"))?;
    let intensity: f64 = intensity
        .parse()
        .map_err(|_| format!("injection intensity `{intensity}` must be a number"))?;
    if !(intensity.is_finite() && (0.0..=1.0).contains(&intensity)) {
        return Err("injection intensity must lie in [0, 1]".into());
    }
    Ok((policy, seed, intensity))
}

fn parse_fault_sweep<I, S>(args: I) -> Result<FaultSweepArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = FaultSweepArgs::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_owned();
        let mut value = || {
            it.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--util" => out.utilization = parse_util(&value()?)?,
            "--capacity" => {
                out.capacity = value()?
                    .parse()
                    .map_err(|_| "--capacity expects a number".to_owned())?;
                if !(out.capacity > 0.0 && out.capacity.is_finite()) {
                    return Err("--capacity must be positive".into());
                }
            }
            "--trials" => {
                out.trials = value()?
                    .parse()
                    .map_err(|_| "--trials expects a positive integer".to_owned())?;
                if out.trials == 0 {
                    return Err("--trials must be positive".into());
                }
            }
            "--threads" => {
                out.threads = value()?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_owned())?;
                if out.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--horizon" => {
                out.horizon_units = value()?
                    .parse()
                    .map_err(|_| "--horizon expects a positive integer".to_owned())?;
                if out.horizon_units <= 0 {
                    return Err("--horizon must be positive".into());
                }
            }
            "--intensities" => {
                let raw = value()?;
                let parsed: Result<Vec<f64>, _> =
                    raw.split(',').map(|s| s.trim().parse::<f64>()).collect();
                out.intensities = parsed
                    .map_err(|_| "--intensities expects comma-separated numbers".to_owned())?;
                if out.intensities.is_empty()
                    || out
                        .intensities
                        .iter()
                        .any(|i| !(i.is_finite() && (0.0..=1.0).contains(i)))
                {
                    return Err("--intensities values must lie in [0, 1]".into());
                }
            }
            "--store" => out.store = Some(PathBuf::from(value()?)),
            "--durability" => out.durability = Some(parse_durability(&value()?)?),
            "--trace" => out.trace = Some(PathBuf::from(value()?)),
            "--progress" => out.progress = Some(PathBuf::from(value()?)),
            "--inject-panic" => out.inject_panic.push(parse_inject(&value()?)?),
            "--inject-starve" => out.inject_starve.push(parse_inject(&value()?)?),
            "--expect-resumed" => out.expect_resumed = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn parse_durability(level: &str) -> Result<Durability, String> {
    Durability::parse(level).ok_or_else(|| "--durability expects none, batch, or record".into())
}

/// Resolves the store `sweep` and `fault-sweep` run against:
/// `--store DIR`, else the directory [`SWEEP_STORE_ENV`] names, opened
/// at `--durability`. An unopenable `--store` is a runtime error; an
/// unopenable environment store warns and runs unstored. With no store
/// configured at all, an explicit `--durability` or the `expect` flag
/// (`--expect-warm` / `--expect-resumed`, if given) is a usage error:
/// neither can mean anything without a store.
fn resolve_store(
    dir: &Option<PathBuf>,
    durability: Option<Durability>,
    expect: Option<&str>,
) -> Result<Option<PackStore>, ExpError> {
    let level = durability.unwrap_or_default();
    if let Some(dir) = dir {
        return PackStore::open_with(dir, RealIo::shared(), RetryPolicy::default(), level)
            .map(Some)
            .map_err(|e| ExpError::Runtime(format!("cannot open store {}: {e}", dir.display())));
    }
    if let Some(dir) = store_dir_from_env() {
        return Ok(open_or_warn(&dir, level));
    }
    match expect.or(durability.map(|_| "--durability")) {
        Some(flag) => Err(ExpError::Usage(format!(
            "{flag} needs a store (--store DIR or {SWEEP_STORE_ENV}=DIR)"
        ))),
        None => Ok(None),
    }
}

/// Publishes the sweep's execution accounting and the store's hit/miss
/// counters into one [`MetricsRegistry`] and renders its snapshot as
/// `metric name=value` lines — the same registry pipeline run artifacts
/// use, so store hit rates sit alongside the pool gauges.
fn print_metrics(stats: &SweepExecStats, store: Option<&PackStore>) -> Result<(), ExpError> {
    let mut reg = MetricsRegistry::new();
    reg.counter("sweep.simulated", stats.simulated);
    reg.counter("sweep.cached", stats.cached);
    reg.gauge("sweep.prefabs_high_water", stats.prefabs_high_water as f64);
    reg.counter("pool.runs", stats.pool.runs);
    reg.gauge(
        "pool.event_slab_high_water",
        stats.pool.event_slab_high_water as f64,
    );
    reg.gauge("pool.ready_high_water", stats.pool.ready_high_water as f64);
    reg.counter("pool.shared_events", stats.pool.shared_events);
    if let Some(s) = store {
        s.stats().publish("store", &mut reg);
    }
    let health = store.map(PackStore::io_health).unwrap_or_default();
    health.publish("store", &mut reg);
    for e in reg.snapshot().entries {
        outln!("metric {}={}", e.name, e.value.scalar())?;
    }
    Ok(())
}

/// Prints the store's own accounting line.
fn print_store_line(store: &PackStore) -> Result<(), ExpError> {
    let cs = store.stats();
    outln!(
        "store dir={} hits={} misses={} rejects={} stores={}",
        store.dir().display(),
        cs.hits,
        cs.misses,
        cs.rejects,
        cs.stores
    )
}

/// Builds the campaign observer bundle the sweep flags ask for:
/// `--trace` installs a span collector, `--progress` opens the JSONL
/// stream (heartbeats mirror to stderr).
fn build_telemetry(
    trace: &Option<PathBuf>,
    progress: &Option<PathBuf>,
) -> Result<CampaignTelemetry, String> {
    let mut t = CampaignTelemetry::off();
    if trace.is_some() {
        t.spans = Some(SpanCollector::shared());
    }
    if let Some(path) = progress {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let writer: Box<dyn std::io::Write + Send> = Box::new(std::io::BufWriter::new(file));
        t.progress = Some(Arc::new(ProgressReporter::new(Some(writer), true)));
    }
    Ok(t)
}

/// Closes the campaign's observers: the progress stream's final
/// heartbeat + finish line, then the Chrome-trace export (the drivers
/// drop every worker sink before returning, so the collector is
/// complete by the time this runs).
fn finish_telemetry(t: &CampaignTelemetry, trace: &Option<PathBuf>) -> Result<(), String> {
    if let Some(p) = &t.progress {
        p.finish()
            .map_err(|e| format!("cannot finish progress stream: {e}"))?;
    }
    if let (Some(spans), Some(path)) = (&t.spans, trace) {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        spans
            .write_chrome_trace(&mut out)
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        eprintln!("trace: {} spans -> {}", spans.len(), path.display());
    }
    Ok(())
}

fn store_stat(dir: &std::path::Path, json: bool) -> Result<(), ExpError> {
    let s = PackStore::stat(dir).map_err(|e| format!("cannot stat {}: {e}", dir.display()))?;
    if json {
        let value = Value::Map(vec![
            ("dir".into(), Value::Str(dir.display().to_string())),
            ("packs".into(), Value::U64(s.packs as u64)),
            ("records".into(), Value::U64(s.records as u64)),
            ("done".into(), Value::U64(s.done as u64)),
            ("quarantined".into(), Value::U64(s.quarantined as u64)),
            ("superseded".into(), Value::U64(s.superseded as u64)),
            ("bytes".into(), Value::U64(s.bytes)),
            ("corrupt_spans".into(), Value::U64(s.corrupt_spans as u64)),
        ]);
        let text =
            serde_json::to_string_pretty(&value).map_err(|e| format!("serialize stat: {e}"))?;
        return outln!("{text}");
    }
    outln!(
        "store dir={} packs={} records={} done={} quarantined={} bytes={} superseded={} \
         corrupt_spans={}",
        dir.display(),
        s.packs,
        s.records,
        s.done,
        s.quarantined,
        s.bytes,
        s.superseded,
        s.corrupt_spans
    )
}

fn store_compact(dir: &std::path::Path) -> Result<(), ExpError> {
    let c =
        PackStore::compact(dir).map_err(|e| format!("cannot compact {}: {e}", dir.display()))?;
    outln!(
        "compact dir={} packs_before={} records_before={} records_after={} bytes_before={} \
         bytes_after={} corrupt_spans={} corrupt_bytes={}",
        dir.display(),
        c.packs_before,
        c.records_before,
        c.records_after,
        c.bytes_before,
        c.bytes_after,
        c.corrupt_spans,
        c.corrupt_bytes
    )?;
    if c.corrupt_spans > 0 {
        eprintln!(
            "compact quarantined {} corrupt byte span(s); raw bytes kept under {}",
            c.corrupt_spans,
            dir.join("scrub-quarantine").display()
        );
    }
    Ok(())
}

/// The shell command that replays a stored cell with full tracing.
fn replay_command(key: &str) -> String {
    format!("exp record --key '{}'", key.replace('\'', r"'\''"))
}

/// The policy segment of a canonical trial key
/// (`v1|{scenario}|{policy}|{seed}` — the second-to-last `|` field).
fn key_policy(key: &str) -> &str {
    let mut it = key.rsplit('|');
    it.next();
    it.next().unwrap_or("?")
}

/// Folds a store's decided cells into the report: totals,
/// per-policy counts, and quarantine details.
fn report_cells(
    entries: &[(String, CellOutcome)],
    md: &mut String,
    json: &mut Vec<(String, Value)>,
) {
    let done = entries
        .iter()
        .filter(|(_, o)| matches!(o, CellOutcome::Done(_)))
        .count();
    let quarantined = entries.len() - done;
    md.push_str(&format!(
        "\n## Decided cells\n\n{} cells decided: {done} done, {quarantined} quarantined.\n\n",
        entries.len()
    ));
    let mut per: std::collections::BTreeMap<&str, (u64, u64)> = std::collections::BTreeMap::new();
    for (key, outcome) in entries {
        let slot = per.entry(key_policy(key)).or_default();
        match outcome {
            CellOutcome::Done(_) => slot.0 += 1,
            CellOutcome::Quarantined(_) => slot.1 += 1,
        }
    }
    let mut table = Table::new(vec!["policy", "done", "quarantined"]);
    for (policy, (d, q)) in &per {
        table.row(vec![(*policy).to_owned(), d.to_string(), q.to_string()]);
    }
    md.push_str(&table.render());
    let failures: Vec<_> = entries
        .iter()
        .filter_map(|(k, o)| match o {
            CellOutcome::Quarantined(f) => Some((k.as_str(), f)),
            CellOutcome::Done(_) => None,
        })
        .collect();
    if !failures.is_empty() {
        md.push_str("\n### Quarantined cells\n\n");
        let mut t = Table::new(vec!["worker", "panicked", "replay"]);
        for (key, f) in &failures {
            t.row(vec![
                f.worker.to_string(),
                f.panicked.to_string(),
                replay_command(key),
            ]);
        }
        md.push_str(&t.render());
    }
    json.push((
        "cells".into(),
        Value::Map(vec![
            ("total".into(), Value::U64(entries.len() as u64)),
            ("done".into(), Value::U64(done as u64)),
            ("quarantined".into(), Value::U64(quarantined as u64)),
            (
                "policies".into(),
                Value::Seq(
                    per.iter()
                        .map(|(policy, (d, q))| {
                            Value::Map(vec![
                                ("policy".into(), Value::Str((*policy).to_owned())),
                                ("done".into(), Value::U64(*d)),
                                ("quarantined".into(), Value::U64(*q)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "quarantines".into(),
                Value::Seq(
                    failures
                        .iter()
                        .map(|(key, f)| {
                            Value::Map(vec![
                                ("key".into(), Value::Str((*key).to_owned())),
                                ("worker".into(), Value::U64(f.worker as u64)),
                                ("panicked".into(), Value::Bool(f.panicked)),
                                ("replay".into(), Value::Str(replay_command(key))),
                                ("message".into(), Value::Str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    ));
}

/// Folds a progress stream into the report: campaign identity, the
/// final heartbeat's decided totals, and the finish wall-clock.
fn report_progress(
    path: &std::path::Path,
    md: &mut String,
    json: &mut Vec<(String, Value)>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let lines = progress_from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(ProgressLine::Started(start)) = lines.first() else {
        unreachable!("progress_from_jsonl guarantees a Started head");
    };
    let heartbeat = lines.iter().rev().find_map(|l| match l {
        ProgressLine::Heartbeat(h) => Some(h),
        _ => None,
    });
    let finished = lines.iter().rev().find_map(|l| match l {
        ProgressLine::Finished(f) => Some(f),
        _ => None,
    });
    md.push_str(&format!(
        "\n## Progress stream\n\ncampaign `{}`: {} cells, {} resumed at open, {} threads.\n",
        start.campaign, start.cells, start.resumed, start.threads
    ));
    let mut entries = vec![
        ("campaign".into(), Value::Str(start.campaign.clone())),
        ("cells".into(), Value::U64(start.cells)),
        ("resumed_at_open".into(), Value::U64(start.resumed)),
        ("threads".into(), Value::U64(start.threads)),
    ];
    if let Some(hb) = heartbeat {
        md.push_str(&format!(
            "decided {}/{} ({} hit, {} simulated, {} resumed, {} quarantined) at {:.1} cells/s.\n",
            hb.done, hb.total, hb.hits, hb.simulated, hb.resumed, hb.quarantined, hb.cells_per_sec
        ));
        entries.extend([
            ("done".into(), Value::U64(hb.done)),
            ("hits".into(), Value::U64(hb.hits)),
            ("simulated".into(), Value::U64(hb.simulated)),
            ("resumed".into(), Value::U64(hb.resumed)),
            ("quarantined".into(), Value::U64(hb.quarantined)),
        ]);
        if hb.store_retries > 0 || hb.store_degraded > 0 || hb.store_sync_failures > 0 {
            md.push_str(&format!(
                "store health: {} retried write(s), {} degradation(s), {} sync failure(s).\n",
                hb.store_retries, hb.store_degraded, hb.store_sync_failures
            ));
            entries.extend([
                ("store_retries".into(), Value::U64(hb.store_retries)),
                ("store_degraded".into(), Value::U64(hb.store_degraded)),
                (
                    "store_sync_failures".into(),
                    Value::U64(hb.store_sync_failures),
                ),
            ]);
        }
    }
    if let Some(f) = finished {
        md.push_str(&format!("finished in {:.2} s.\n", f.wall_s));
        entries.push(("wall_s".into(), Value::F64(f.wall_s)));
    } else {
        md.push_str("stream has no Finished line (campaign killed or still running).\n");
    }
    json.push(("progress".into(), Value::Map(entries)));
    Ok(())
}

/// Folds a Chrome-trace export into the report: wall-clock per span
/// category and the slowest simulated cells.
fn report_trace(
    path: &std::path::Path,
    md: &mut String,
    json: &mut Vec<(String, Value)>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let events = value
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{} is not a Chrome trace (no traceEvents)", path.display()))?;
    let mut cats: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut cells: Vec<(String, u64)> = Vec::new();
    for ev in events {
        let cat = ev.get("cat").and_then(Value::as_str).unwrap_or("?");
        let dur = ev.get("dur").and_then(Value::as_u64).unwrap_or(0);
        let slot = cats.entry(cat.to_owned()).or_default();
        slot.0 += 1;
        slot.1 += dur;
        if ev.get("name").and_then(Value::as_str) == Some("cell") {
            let label = ev
                .get("args")
                .and_then(|a| a.get("key"))
                .and_then(Value::as_str)
                .unwrap_or("cell");
            cells.push((label.to_owned(), dur));
        }
    }
    cells.sort_by_key(|cell| std::cmp::Reverse(cell.1));
    cells.truncate(5);
    md.push_str(&format!("\n## Trace\n\n{} spans.\n\n", events.len()));
    let mut table = Table::new(vec!["category", "spans", "total ms"]);
    for (cat, (n, us)) in &cats {
        table.row(vec![
            cat.clone(),
            n.to_string(),
            format!("{:.3}", *us as f64 / 1000.0),
        ]);
    }
    md.push_str(&table.render());
    if !cells.is_empty() {
        md.push_str("\nSlowest cells:\n\n");
        let mut t = Table::new(vec!["ms", "key"]);
        for (key, us) in &cells {
            t.row(vec![format!("{:.3}", *us as f64 / 1000.0), key.clone()]);
        }
        md.push_str(&t.render());
    }
    json.push((
        "trace".into(),
        Value::Map(vec![
            ("spans".into(), Value::U64(events.len() as u64)),
            (
                "categories".into(),
                Value::Seq(
                    cats.iter()
                        .map(|(cat, (n, us))| {
                            Value::Map(vec![
                                ("category".into(), Value::Str(cat.clone())),
                                ("spans".into(), Value::U64(*n)),
                                ("total_us".into(), Value::U64(*us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "slowest_cells".into(),
                Value::Seq(
                    cells
                        .iter()
                        .map(|(key, us)| {
                            Value::Map(vec![
                                ("key".into(), Value::Str(key.clone())),
                                ("dur_us".into(), Value::U64(*us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    ));
    Ok(())
}

/// `exp report`: folds a result store, a progress stream, and a span
/// trace into one campaign report (markdown, or `--json`).
fn campaign_report(args: &ReportArgs) -> Result<(), ExpError> {
    let mut md = String::from("# Campaign report\n");
    let mut json: Vec<(String, Value)> = Vec::new();
    if let Some(dir) = &args.store {
        let store = PackStore::open_existing(dir)
            .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
        report_cells(&store.decided_entries(), &mut md, &mut json);
    }
    if let Some(path) = &args.progress {
        report_progress(path, &mut md, &mut json)?;
    }
    if let Some(path) = &args.trace {
        report_trace(path, &mut md, &mut json)?;
    }
    let text = if args.json {
        let mut s = serde_json::to_string_pretty(&Value::Map(json))
            .map_err(|e| format!("serialize report: {e}"))?;
        s.push('\n');
        s
    } else {
        md
    };
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        None => out(format_args!("{text}"))?,
    }
    Ok(())
}

fn fault_sweep(args: &FaultSweepArgs, store: Option<&PackStore>) -> Result<(), ExpError> {
    let config = RobustnessConfig {
        utilization: args.utilization,
        capacity: args.capacity,
        horizon_units: args.horizon_units,
        intensities: args.intensities.clone(),
        policies: vec![PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs],
        predictors: vec![PredictorKind::Oracle],
        trials: args.trials,
        ..RobustnessConfig::default()
    };
    let matches = |list: &[InjectSpec], cell: &harvest_exp::figures::Cell| {
        list.iter()
            .any(|&(p, s, i)| p == cell.policy && s == cell.seed && i == cell.intensity)
    };
    let telemetry = build_telemetry(&args.trace, &args.progress)?;
    let plan = RunPlan {
        threads: args.threads,
        store,
        telemetry: &telemetry,
    };
    let report = robustness_campaign(&config, plan, |cell| {
        if matches(&args.inject_panic, cell) {
            Sabotage::Panic
        } else if matches(&args.inject_starve, cell) {
            Sabotage::Starve
        } else {
            Sabotage::None
        }
    });
    let cells = config.intensities.len() * config.policies.len() * config.trials;
    outln!(
        "fault-sweep util={} capacity={} trials={} cells={cells} simulated={} resumed={} \
         quarantined={} pool_runs={} event_slab_high_water={} ready_high_water={} \
         figure_fnv64={:016x} prefabs_high_water={}",
        args.utilization,
        args.capacity,
        args.trials,
        report.exec.simulated,
        report.resumed,
        report.quarantined.len(),
        report.exec.pool.runs,
        report.exec.pool.event_slab_high_water,
        report.exec.pool.ready_high_water,
        report.figure.digest(),
        report.exec.prefabs_high_water,
    )?;
    for q in &report.quarantined {
        outln!(
            "quarantine key={} policy={} seed={} intensity={} panicked={} worker={} message={}",
            q.key,
            q.policy.name(),
            q.seed,
            q.intensity,
            q.failure.panicked,
            q.failure.worker,
            q.failure.message,
        )?;
    }
    // Pooled queues reset their run counters between trials (bit-exact
    // replay requires it); what survives per worker is the retained
    // heap capacity.
    for (i, qs) in report.queues.iter().enumerate() {
        outln!("queue worker={i} slab_capacity={}", qs.slab_capacity)?;
    }
    if let Some(s) = store {
        print_store_line(s)?;
    }
    print_metrics(&report.exec, store)?;
    finish_telemetry(&telemetry, &args.trace)?;
    if args.expect_resumed && report.exec.simulated != 0 {
        return Err(ExpError::Runtime(format!(
            "expected a resumed campaign but {} of {cells} cells were simulated",
            report.exec.simulated
        )));
    }
    Ok(())
}

fn parse_sweep<I, S>(args: I) -> Result<SweepArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = SweepArgs::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_owned();
        let mut value = || {
            it.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--util" => out.utilization = parse_util(&value()?)?,
            "--trials" => {
                out.trials = value()?
                    .parse()
                    .map_err(|_| "--trials expects a positive integer".to_owned())?;
                if out.trials == 0 {
                    return Err("--trials must be positive".into());
                }
            }
            "--threads" => {
                out.threads = value()?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_owned())?;
                if out.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--store" => out.store = Some(PathBuf::from(value()?)),
            "--durability" => out.durability = Some(parse_durability(&value()?)?),
            "--trace" => out.trace = Some(PathBuf::from(value()?)),
            "--progress" => out.progress = Some(PathBuf::from(value()?)),
            "--expect-warm" => out.expect_warm = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn parse_report<I, S>(args: I) -> Result<ReportArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = ReportArgs::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_owned();
        let mut value = || {
            it.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--store" => out.store = Some(PathBuf::from(value()?)),
            "--progress" => out.progress = Some(PathBuf::from(value()?)),
            "--trace" => out.trace = Some(PathBuf::from(value()?)),
            "--json" => out.json = true,
            "--out" => out.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.store.is_none() && out.progress.is_none() && out.trace.is_none() {
        return Err("report needs at least one input (--store, --progress, or --trace)".into());
    }
    Ok(out)
}

fn sweep(args: &SweepArgs, store: Option<&PackStore>) -> Result<(), ExpError> {
    let telemetry = build_telemetry(&args.trace, &args.progress)?;
    let plan = RunPlan {
        threads: args.threads,
        store,
        telemetry: &telemetry,
    };
    let (figure, stats) = miss_rate_figure(
        args.utilization,
        &[PolicyKind::Lsa, PolicyKind::EaDvfs],
        args.trials,
        plan,
    );
    let json = serde_json::to_string(&figure).map_err(|e| format!("serialize figure: {e}"))?;
    outln!(
        "sweep util={} trials={} cells={} simulated={} cached={} pool_runs={} \
         event_slab_high_water={} ready_high_water={} shared_events={} figure_fnv64={:016x} \
         prefabs_high_water={}",
        args.utilization,
        args.trials,
        stats.simulated + stats.cached,
        stats.simulated,
        stats.cached,
        stats.pool.runs,
        stats.pool.event_slab_high_water,
        stats.pool.ready_high_water,
        stats.pool.shared_events,
        fnv1a64(json.as_bytes()),
        stats.prefabs_high_water,
    )?;
    if let Some(s) = store {
        print_store_line(s)?;
    }
    print_metrics(&stats, store)?;
    finish_telemetry(&telemetry, &args.trace)?;
    if args.expect_warm && stats.simulated != 0 {
        return Err(ExpError::Runtime(format!(
            "expected a warm store but {} of {} cells were simulated",
            stats.simulated,
            stats.simulated + stats.cached
        )));
    }
    Ok(())
}

/// Replays the cell with full observability: its artifact, and the
/// watchdog error when the run exhausted the event budget.
fn record(args: &RecordArgs) -> (RunArtifact, Option<SimError>) {
    let prefab = args.scenario.prefab(args.seed);
    let (result, aborted) = args.scenario.run_prefab_observed(args.policy, &prefab);
    (RunArtifact::from_result(&result), aborted)
}

/// Writes `artifact` as JSONL to `out`, or to stdout.
fn write_artifact(artifact: &RunArtifact, path: &Option<PathBuf>) -> Result<(), ExpError> {
    match path {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            let lines = artifact
                .write_jsonl(std::io::BufWriter::new(file))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {} ({lines} lines)", path.display());
        }
        None => out(format_args!("{}", artifact.to_jsonl()))?,
    }
    Ok(())
}

fn load(path: &PathBuf) -> Result<RunArtifact, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    RunArtifact::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(cmd: Command) -> Result<(), ExpError> {
    match cmd {
        Command::Record(args) => {
            let (artifact, aborted) = record(&args);
            write_artifact(&artifact, &args.out)?;
            aborted.map_or(Ok(()), |e| Err(ExpError::Runtime(e.to_string())))
        }
        Command::Inspect(path) => out(format_args!("{}", load(&path)?.render())),
        Command::Diff { run, baseline } => {
            let diff = load(&run)?.render_diff(&load(&baseline)?)?;
            out(format_args!("{diff}"))
        }
        Command::Sweep(args) => {
            let expect = args.expect_warm.then_some("--expect-warm");
            let store = resolve_store(&args.store, args.durability, expect)?;
            sweep(&args, store.as_ref())
        }
        Command::FaultSweep(args) => {
            let expect = args.expect_resumed.then_some("--expect-resumed");
            let store = resolve_store(&args.store, args.durability, expect)?;
            fault_sweep(&args, store.as_ref())
        }
        Command::Report(args) => campaign_report(&args),
        Command::StoreStat { dir, json } => store_stat(&dir, json),
        Command::StoreCompact(dir) => store_compact(&dir),
    }
}

fn main() {
    let code = match parse_command(std::env::args().skip(1))
        .map_err(ExpError::Usage)
        .and_then(run)
    {
        Ok(()) | Err(ExpError::StdoutClosed) => 0,
        Err(ExpError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            2
        }
        Err(ExpError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            1
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_flags_parse() {
        let args = parse_record([
            "--policy",
            "lsa",
            "--util",
            "0.8",
            "--capacity",
            "200",
            "--seed",
            "9",
            "--horizon",
            "1000",
            "--sample",
            "50",
            "--out",
            "/tmp/run.jsonl",
        ])
        .unwrap();
        assert_eq!(args.policy, PolicyKind::Lsa);
        assert_eq!(args.scenario.utilization, 0.8);
        assert_eq!(args.scenario.capacity, 200.0);
        assert_eq!(args.seed, 9);
        assert_eq!(args.scenario.horizon_units, 1000);
        assert_eq!(args.scenario.sample_interval_units, Some(50));
        assert_eq!(args.out, Some(PathBuf::from("/tmp/run.jsonl")));
    }

    #[test]
    fn record_key_names_the_whole_cell() {
        let scenario = PaperScenario::new(0.8, 200.0).with_fault_intensity(0.5);
        let key = TrialKey::new(&scenario, PolicyKind::Lsa, 9);
        let args = parse_record(["--key", key.text(), "--out", "/tmp/run.jsonl"]).unwrap();
        assert_eq!(
            args,
            RecordArgs {
                scenario: scenario.clone(),
                policy: PolicyKind::Lsa,
                seed: 9,
                out: Some(PathBuf::from("/tmp/run.jsonl")),
            }
        );
        // The coordinate flags build the key of what they replay.
        let coords =
            parse_record(["--policy", "lsa", "--util", "0.8", "--capacity", "200"]).unwrap();
        let rebuilt = TrialKey::new(&coords.scenario, coords.policy, coords.seed);
        assert_eq!(parse_record(["--key", rebuilt.text()]).unwrap(), coords);

        let text = key.text();
        let refused = [
            text.replace(
                r#""num_tasks":5,"utilization":0.8"#,
                r#""utilization":0.8,"num_tasks":5"#,
            ),
            text.replace("|lsa|", "|sjf|"),
            text.replacen("v1|", "v9|", 1),
            text.replace("|lsa|9", "|lsa|nine"),
        ];
        for bad in &refused {
            assert_ne!(bad, text);
            assert!(parse_record(["--key", bad]).is_err(), "{bad}");
        }
        // Canonical keys of scenarios the simulator would reject.
        let mut too_busy = scenario.clone();
        too_busy.utilization = 1.5;
        let no_window = scenario
            .clone()
            .with_predictor(PredictorKind::MovingAverage { window: 0 });
        for bad in [too_busy, no_window] {
            let bad = TrialKey::new(&bad, PolicyKind::Lsa, 9);
            assert!(parse_record(["--key", bad.text()])
                .unwrap_err()
                .contains("outside the ranges"));
        }
        assert!(parse_record(["--key", text, "--seed", "9"])
            .unwrap_err()
            .contains("drop the coordinate flags"));
        assert!(parse_record(["--key"]).is_err());
    }

    #[test]
    fn sweep_flags_parse() {
        let args = parse_sweep([
            "--util",
            "0.8",
            "--trials",
            "3",
            "--threads",
            "2",
            "--store",
            "/tmp/sweep-store",
            "--expect-warm",
        ])
        .unwrap();
        assert_eq!(args.utilization, 0.8);
        assert_eq!(args.trials, 3);
        assert_eq!(args.threads, 2);
        assert_eq!(args.store, Some(PathBuf::from("/tmp/sweep-store")));
        assert!(args.expect_warm);
        assert_eq!(args.trace, None);
        assert_eq!(args.progress, None);

        let traced = parse_sweep(["--trace", "/tmp/t.json", "--progress", "/tmp/p.jsonl"]).unwrap();
        assert_eq!(traced.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(traced.progress, Some(PathBuf::from("/tmp/p.jsonl")));
        assert_eq!(parse_sweep(["--util", "1"]).unwrap().utilization, 1.0);
        assert!(parse_sweep(["--util", "1.5"])
            .unwrap_err()
            .contains("(0, 1]"));
        assert!(parse_sweep(["--trials", "0"]).is_err());
        assert!(parse_sweep(["--bogus"]).is_err());

        let stored = parse_sweep(["--store", "/tmp/sweep-store"]).unwrap();
        assert_eq!(stored.store, Some(PathBuf::from("/tmp/sweep-store")));
        assert_eq!(stored.durability, None, "no explicit level");
        for removed in ["--cache", "--manifest", "--batch", "--batch-group"] {
            assert!(parse_sweep([removed, "/tmp/b"])
                .unwrap_err()
                .contains("unknown flag"));
        }

        for (name, level) in [
            ("none", Durability::None),
            ("batch", Durability::Batch),
            ("record", Durability::Record),
        ] {
            let parsed = parse_sweep(["--durability", name]).unwrap();
            assert_eq!(parsed.durability, Some(level));
        }
        assert!(parse_sweep(["--durability", "paranoid"])
            .unwrap_err()
            .contains("none, batch, or record"));
    }

    #[test]
    fn fault_sweep_flags_parse() {
        let args = parse_fault_sweep([
            "--util",
            "0.8",
            "--capacity",
            "200",
            "--trials",
            "3",
            "--threads",
            "2",
            "--horizon",
            "1500",
            "--intensities",
            "0.0, 0.5, 1.0",
            "--store",
            "/tmp/c",
            "--inject-panic",
            "lsa:0:0.5",
            "--inject-starve",
            "ea-dvfs:1:1.0",
            "--expect-resumed",
        ])
        .unwrap();
        assert_eq!(args.utilization, 0.8);
        assert_eq!(args.capacity, 200.0);
        assert_eq!(args.trials, 3);
        assert_eq!(args.horizon_units, 1500);
        assert_eq!(args.intensities, vec![0.0, 0.5, 1.0]);
        assert_eq!(args.store, Some(PathBuf::from("/tmp/c")));
        assert_eq!(args.inject_panic, vec![(PolicyKind::Lsa, 0, 0.5)]);
        assert_eq!(args.inject_starve, vec![(PolicyKind::EaDvfs, 1, 1.0)]);
        assert!(args.expect_resumed);
        assert!(parse_fault_sweep(["--util", "1.5"])
            .unwrap_err()
            .contains("(0, 1]"));
        assert!(parse_fault_sweep(["--intensities", "2.0"]).is_err());
        assert!(parse_fault_sweep(["--inject-panic", "lsa:0"]).is_err());
        assert!(parse_fault_sweep(["--inject-panic", "sjf:0:0.5"]).is_err());

        let stored = parse_fault_sweep(["--store", "/tmp/campaign"]).unwrap();
        assert_eq!(stored.store, Some(PathBuf::from("/tmp/campaign")));
        assert_eq!(stored.durability, None);
        let durable =
            parse_fault_sweep(["--store", "/tmp/campaign", "--durability", "record"]).unwrap();
        assert_eq!(durable.durability, Some(Durability::Record));
        assert!(parse_fault_sweep(["--durability", "fsync-everything"]).is_err());
        for removed in ["--cache", "--manifest", "--batch"] {
            assert!(parse_fault_sweep([removed, "/tmp/b"])
                .unwrap_err()
                .contains("unknown flag"));
        }

        let observed =
            parse_fault_sweep(["--trace", "/tmp/t.json", "--progress", "/tmp/p.jsonl"]).unwrap();
        assert_eq!(observed.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(observed.progress, Some(PathBuf::from("/tmp/p.jsonl")));
    }

    #[test]
    fn report_flags_parse() {
        let args = parse_report([
            "--store",
            "/tmp/s",
            "--progress",
            "/tmp/p.jsonl",
            "--trace",
            "/tmp/t.json",
            "--json",
            "--out",
            "/tmp/report.json",
        ])
        .unwrap();
        assert_eq!(args.store, Some(PathBuf::from("/tmp/s")));
        assert_eq!(args.progress, Some(PathBuf::from("/tmp/p.jsonl")));
        assert_eq!(args.trace, Some(PathBuf::from("/tmp/t.json")));
        assert!(args.json);
        assert_eq!(args.out, Some(PathBuf::from("/tmp/report.json")));

        let from_store = parse_report(["--store", "/tmp/s"]).unwrap();
        assert!(!from_store.json);

        // No input at all is a usage error; so is the removed manifest.
        assert!(parse_report(Vec::<String>::new())
            .unwrap_err()
            .contains("at least one input"));
        assert!(parse_report(["--json"])
            .unwrap_err()
            .contains("at least one input"));
        assert!(parse_report(["--manifest", "/tmp/b"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_report(["--bogus"]).is_err());
    }

    #[test]
    fn key_policy_extracts_second_to_last_segment() {
        assert_eq!(key_policy("v1|{\"u\":0.4}|lsa|7"), "lsa");
        assert_eq!(key_policy("v1|{\"u\":0.4}|ea-dvfs|0"), "ea-dvfs");
        assert_eq!(key_policy("no-pipes"), "?");
    }

    #[test]
    fn store_subcommand_parses() {
        match parse_command(["store", "stat", "/tmp/s"]).unwrap() {
            Command::StoreStat { dir, json } => {
                assert_eq!(dir, PathBuf::from("/tmp/s"));
                assert!(!json);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_command(["store", "stat", "/tmp/s", "--json"]).unwrap() {
            Command::StoreStat { dir, json } => {
                assert_eq!(dir, PathBuf::from("/tmp/s"));
                assert!(json);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_command(["store", "compact", "/tmp/s"]).unwrap() {
            Command::StoreCompact(dir) => assert_eq!(dir, PathBuf::from("/tmp/s")),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_command(["store"]).is_err());
        assert!(parse_command(["store", "stat"]).is_err());
        assert!(parse_command(["store", "prune", "/tmp/s"]).is_err());
        assert!(parse_command(["store", "stat", "/tmp/s", "extra"]).is_err());
        assert!(parse_command(["store", "compact", "/tmp/s", "--json"]).is_err());
    }

    #[test]
    fn bad_invocations_rejected() {
        assert!(parse_command(Vec::<String>::new()).is_err());
        assert!(parse_command(["bogus"]).is_err());
        assert!(parse_command(["inspect"]).is_err());
        assert!(parse_command(["diff", "one.jsonl"]).is_err());
        assert!(parse_record(["--policy", "sjf"]).is_err());
        for util in ["-1", "0", "1.5", "inf", "NaN", "half"] {
            assert!(parse_record(["--util", util]).is_err(), "--util {util}");
        }
        assert_eq!(parse_util("0.25"), Ok(0.25));
        assert_eq!(parse_util("1"), Ok(1.0));
        assert!(parse_record(["--horizon", "0"]).is_err());
    }

    #[test]
    fn replay_commands_quote_the_key_for_the_shell() {
        assert_eq!(
            replay_command(r#"v1|{"u":0.4}|lsa|7"#),
            r#"exp record --key 'v1|{"u":0.4}|lsa|7'"#
        );
        assert_eq!(replay_command("a'b"), r"exp record --key 'a'\''b'");
    }

    #[test]
    fn record_produces_inspectable_artifact() {
        let mut args = RecordArgs::default();
        args.scenario.horizon_units = 1_000;
        args.scenario.sample_interval_units = Some(50);
        let (artifact, aborted) = record(&args);
        assert_eq!(aborted, None);
        assert!(artifact.metrics.is_some());
        assert!(artifact.profile.is_some());
        let text = artifact.render();
        assert!(text.contains("metrics"));
        let back = RunArtifact::from_jsonl(&artifact.to_jsonl()).unwrap();
        assert_eq!(back, artifact);
    }
}
