//! Timing plumbing: per-layer nanosecond counters, op-level spans, and
//! the closed-loop driver the Fig. 8/9 workloads run on.
//!
//! Layer calls are timed with a clock pair and summed per layer in
//! nanoseconds, because store calls take well under a microsecond —
//! below the span collector's resolution. Spans are recorded only at
//! phase and op level, into the library's
//! [`SpanCollector`](harvest_obs::span::SpanCollector), and exported as
//! Chrome-trace JSON.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use harvest_obs::span::{SpanCollector, SpanSink};

use crate::{panic_message, THREADS};

pub use harvest_obs::span::TID_DRIVER;

/// A timed layer: one library call site the harness wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `PaperScenario::profile` — solar sampling (`energy`).
    Profile,
    /// `PaperScenario::taskset` — task generation (`task`).
    Taskset,
    /// `TaskSet::release_tape` — the release timeline (`task`, `sim`).
    Tape,
    /// `PaperScenario::run_prefab_in` — the scalar engine (`core::system`).
    Run,
    /// `PaperScenario::run_arms_batched_in` — the lane engine (`core::batch`).
    Batch,
    /// `TrialSummary::of` — result reduction.
    Summary,
    /// `PaperScenario::trial_key` — key building (`exp::store` read side).
    Key,
    /// `TrialStore::probe_many` (`exp::store` read side).
    Probe,
    /// `PackStore::open` (`exp::store` read side).
    Open,
    /// `TrialStore::store` — one append (`exp::store` write side).
    Append,
    /// `TrialStore::barrier` (`exp::store` write side).
    Barrier,
    /// Dropping a `PackStore`: final barrier and sidecar index write.
    Close,
    /// Figure assembly, JSON rendering and digest.
    Assemble,
}

const LAYERS: usize = 13;

/// Per-layer counters and the span collector of one traced run.
#[derive(Debug)]
pub struct Tracer {
    ns: [AtomicU64; LAYERS],
    units: [AtomicU64; LAYERS],
    events: AtomicU64,
    /// Worker-slot busy time outside the closed loop (the search
    /// workload's map items and driver work).
    slot_busy_ns: AtomicU64,
    spans: Arc<SpanCollector>,
}

impl Tracer {
    /// Empty counters; the span epoch is now.
    pub fn new() -> Self {
        Tracer {
            ns: Default::default(),
            units: Default::default(),
            events: AtomicU64::new(0),
            slot_busy_ns: AtomicU64::new(0),
            spans: SpanCollector::shared(),
        }
    }

    /// Runs `f`, charging its wall time and `units` items to `layer`.
    pub fn time<R>(&self, layer: Layer, units: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.ns[layer as usize].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.units[layer as usize].fetch_add(units, Ordering::Relaxed);
        out
    }

    /// Nanoseconds charged to `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize].load(Ordering::Relaxed)
    }

    /// Items charged to `layer`.
    pub fn units(&self, layer: Layer) -> u64 {
        self.units[layer as usize].load(Ordering::Relaxed)
    }

    /// Counts engine events of simulated cells.
    pub fn add_events(&self, events: u64) {
        self.events.fetch_add(events, Ordering::Relaxed);
    }

    /// Engine events counted so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Adds worker-slot busy time spent outside the closed loop.
    pub fn add_slot_busy(&self, busy: Duration) {
        self.slot_busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Worker-slot busy time added so far.
    pub fn slot_busy_ns(&self) -> u64 {
        self.slot_busy_ns.load(Ordering::Relaxed)
    }

    /// A span sink for track `tid` (workers use `worker + 1`).
    pub fn sink(&self, tid: u32) -> SpanSink {
        self.spans.sink(tid)
    }

    /// Writes the recorded spans as Chrome-trace JSON.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when `path` cannot be written.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.spans.write_chrome_trace(&mut out)?;
        std::io::Write::flush(&mut out)
    }
}

/// [`Tracer::time`] when tracing, a plain call otherwise.
#[inline]
pub fn timed<R>(tr: Option<&Tracer>, layer: Layer, units: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.time(layer, units, f),
        None => f(),
    }
}

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time from the start of the phase until its last op ended.
    pub wall_ns: u64,
    /// Ops started.
    pub ops: u64,
    /// Grid cells decided (simulated or answered) by completed ops.
    pub cells: u64,
    /// Ops that failed or panicked.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Latency of every op, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Time worker slots spent inside ops (or map items), summed.
    pub busy_ns: u64,
    /// Parallel fan-outs: the closed loop counts as one.
    pub maps: u64,
}

impl Phase {
    /// Cells decided per second of phase wall time.
    pub fn cells_per_s(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.cells as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// The `q` quantile of op latency (nearest rank), in milliseconds;
    /// 0 when no op ran.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1e6
    }

    /// Records one op's outcome.
    pub fn note(&mut self, latency: Duration, outcome: Result<u64, String>) {
        self.ops += 1;
        self.latencies_ns.push(latency.as_nanos() as u64);
        match outcome {
            Ok(cells) => self.cells += cells,
            Err(message) => self.note_failure(message),
        }
    }

    /// Records one failure.
    pub fn note_failure(&mut self, message: String) {
        self.failed += 1;
        keep_failure(&mut self.failures, message);
    }

    fn merge(&mut self, other: Phase) {
        self.ops += other.ops;
        self.cells += other.cells;
        self.failed += other.failed;
        for message in other.failures {
            keep_failure(&mut self.failures, message);
        }
        self.latencies_ns.extend(other.latencies_ns);
        self.busy_ns += other.busy_ns;
    }
}

/// Keeps the first few failure messages of a run.
pub fn keep_failure(failures: &mut Vec<String>, message: String) {
    if failures.len() < 8 {
        failures.push(message);
    }
}

/// Runs `op` under `catch_unwind`, so a panicking op is a failed op.
pub fn guarded<T>(op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(op))
        .unwrap_or_else(|payload| Err(format!("panic: {}", panic_message(payload.as_ref()))))
}

/// The closed loop: [`THREADS`] workers, each with its own state from
/// `init`, claim op indices `0, 1, 2, …` one at a time until `budget`
/// has passed, and each claims its next op only when its current one
/// has finished. `op` returns the cells it decided.
pub fn closed_loop<S, I, F>(
    budget: Duration,
    tr: Option<&Tracer>,
    span: &str,
    cat: &'static str,
    init: I,
    op: F,
) -> Phase
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> Result<u64, String> + Sync,
{
    let next = AtomicU64::new(0);
    let start_line = Barrier::new(THREADS);
    let start: OnceLock<Instant> = OnceLock::new();
    let (init, op, next, start_line, start) = (&init, &op, &next, &start_line, &start);
    let workers: Vec<(Phase, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut sink = tr.map(|t| t.sink(w as u32 + 1));
                    let mut phase = Phase::default();
                    start_line.wait();
                    let deadline = *start.get_or_init(Instant::now) + budget;
                    let mut now = Instant::now();
                    while now < deadline {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let span_start = sink.as_ref().map(SpanSink::start);
                        let outcome = guarded(|| op(&mut state, k));
                        let end = Instant::now();
                        if let (Some(sink), Some(s)) = (sink.as_mut(), span_start) {
                            sink.record(s, span, cat);
                        }
                        phase.busy_ns += (end - now).as_nanos() as u64;
                        phase.note(end - now, outcome);
                        now = end;
                    }
                    (phase, now)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop workers catch op panics"))
            .collect()
    });
    let start = *start.get().expect("workers set the start line");
    let mut phase = Phase {
        maps: 1,
        ..Phase::default()
    };
    let mut end = start;
    for (worker, worker_end) in workers {
        end = end.max(worker_end);
        phase.merge(worker);
    }
    phase.wall_ns = (end - start).as_nanos() as u64;
    phase
}
