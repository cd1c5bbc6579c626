//! Live campaign progress: versioned JSONL events + human heartbeat.
//!
//! A [`ProgressReporter`] is shared (behind one mutex) between every
//! worker of a sweep campaign. Workers report one [`CellEvent`] per
//! decided cell; the reporter streams them as JSONL through a
//! [`JsonlWriter`] and, at a bounded cadence, emits a [`Heartbeat`]
//! (cells/sec, store hit rate, ETA) — both as a
//! JSONL line and, optionally, as a one-line human summary on stderr.
//!
//! The stream schema is versioned exactly like the run-artifact schema:
//! the first line must be a [`ProgressLine::Started`] carrying
//! `PROGRESS_SCHEMA_VERSION`, and [`progress_from_jsonl`] rejects
//! streams whose version (or leading line) drifts, the same way
//! `RunArtifact::from_jsonl` does.
//!
//! Write failures degrade, not abort: a campaign must never die because
//! its progress pipe closed. The first failed write warns on stderr and
//! the reporter keeps counting so the final [`Heartbeat`] /
//! [`CampaignFinish`] totals stay correct for whoever can still read
//! them.

use crate::export::{jsonl_to_vec, JsonlWriter};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Version stamped into every [`CampaignStart`]; bump on any
/// incompatible change to the line shapes below.
pub(crate) const PROGRESS_SCHEMA_VERSION: u32 = 2;

/// How a cell got its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellDecision {
    /// Served from the result store / sweep cache.
    Hit,
    /// Simulated fresh this run.
    Simulated,
    /// Panicked or aborted and was quarantined.
    Quarantined,
    /// Already decided in the manifest from an earlier (killed) run.
    Resumed,
}

/// First line of every stream: campaign identity and shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStart {
    /// Schema version ([`PROGRESS_SCHEMA_VERSION`]).
    pub(crate) version: u32,
    /// Campaign label (figure name, `"fault-sweep"`, ...).
    pub campaign: String,
    /// Total cells the campaign will decide.
    pub cells: u64,
    /// Cells already decided by a previous run's manifest at open.
    pub resumed: u64,
    /// Worker threads.
    pub threads: u64,
}

/// One decided cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEvent {
    /// How the cell was decided.
    pub(crate) decision: CellDecision,
    /// Canonical trial-key text.
    pub(crate) key: String,
    /// Worker index that decided it.
    pub(crate) worker: u64,
}

/// Periodic rate/ETA snapshot; the final heartbeat's counts equal the
/// campaign's decided totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Cells decided so far (all decisions).
    pub done: u64,
    /// Total cells in the campaign.
    pub total: u64,
    /// Store/cache hits so far.
    pub hits: u64,
    /// Cells simulated so far.
    pub simulated: u64,
    /// Cells resumed from the manifest so far.
    pub resumed: u64,
    /// Cells quarantined so far.
    pub quarantined: u64,
    /// Decision rate since campaign start.
    pub cells_per_sec: f64,
    /// hits / done (0 when nothing decided yet).
    pub(crate) hit_rate: f64,
    /// Estimated seconds to completion at the current rate.
    pub(crate) eta_s: f64,
    /// Transient store I/O errors that were retried
    /// ([`IoHealth::retries`](crate::io::IoHealth)).
    #[serde(default)]
    pub store_retries: u64,
    /// Store operations that exhausted retries and degraded.
    #[serde(default)]
    pub store_degraded: u64,
    /// Failed store `sync_all` barriers.
    #[serde(default)]
    pub store_sync_failures: u64,
}

/// Terminal line: final totals and wall-clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignFinish {
    /// Cells decided (should equal the start line's `cells`).
    pub done: u64,
    /// Cells simulated fresh.
    pub(crate) simulated: u64,
    /// Store/cache hits.
    pub(crate) hits: u64,
    /// Cells resumed from the manifest.
    pub(crate) resumed: u64,
    /// Cells quarantined.
    pub(crate) quarantined: u64,
    /// Campaign wall-clock seconds.
    pub wall_s: f64,
}

/// One line of the progress stream (externally tagged, like `RunLine`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgressLine {
    /// Campaign opened.
    Started(CampaignStart),
    /// A cell was decided.
    Cell(CellEvent),
    /// Periodic rate snapshot.
    Heartbeat(Heartbeat),
    /// Campaign closed.
    Finished(CampaignFinish),
}

/// Parse and validate a progress stream: first line must be
/// [`ProgressLine::Started`] with the current schema version; any
/// unknown line shape fails inside [`jsonl_to_vec`].
pub fn progress_from_jsonl(text: &str) -> Result<Vec<ProgressLine>, String> {
    let lines: Vec<ProgressLine> = jsonl_to_vec(text)?;
    match lines.first() {
        Some(ProgressLine::Started(start)) => {
            if start.version != PROGRESS_SCHEMA_VERSION {
                return Err(format!(
                    "progress stream has schema version {}, this build reads {}",
                    start.version, PROGRESS_SCHEMA_VERSION
                ));
            }
            Ok(lines)
        }
        Some(_) => Err("progress stream must begin with a Started line".to_string()),
        None => Err("progress stream is empty".to_string()),
    }
}

struct ReporterInner {
    writer: Option<JsonlWriter<Box<dyn Write + Send>>>,
    human: bool,
    degraded: bool,
    started_at: Instant,
    last_beat: Instant,
    heartbeat_every: Duration,
    campaign: String,
    total: u64,
    done: u64,
    hits: u64,
    simulated: u64,
    resumed: u64,
    quarantined: u64,
    store_health: crate::io::IoHealth,
}

impl ReporterInner {
    fn emit(&mut self, line: &ProgressLine) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        if let Err(e) = writer.write(line) {
            if !self.degraded {
                eprintln!("warning: progress stream write failed ({e}); progress disabled");
                self.degraded = true;
            }
            self.writer = None;
        }
    }

    fn heartbeat_line(&self) -> Heartbeat {
        let elapsed = self.started_at.elapsed().as_secs_f64();
        let cells_per_sec = if elapsed > 0.0 {
            self.done as f64 / elapsed
        } else {
            0.0
        };
        let hit_rate = if self.done > 0 {
            self.hits as f64 / self.done as f64
        } else {
            0.0
        };
        let remaining = self.total.saturating_sub(self.done);
        let eta_s = if cells_per_sec > 0.0 {
            remaining as f64 / cells_per_sec
        } else {
            0.0
        };
        Heartbeat {
            done: self.done,
            total: self.total,
            hits: self.hits,
            simulated: self.simulated,
            resumed: self.resumed,
            quarantined: self.quarantined,
            cells_per_sec,
            hit_rate,
            eta_s,
            store_retries: self.store_health.retries,
            store_degraded: self.store_health.degraded,
            store_sync_failures: self.store_health.sync_failures,
        }
    }

    fn beat(&mut self) {
        let hb = self.heartbeat_line();
        if self.human {
            eprintln!(
                "progress {} {}/{} cells ({:.1}/s, hit {:.0}%, {} quarantined, eta {:.1}s)",
                self.campaign,
                hb.done,
                hb.total,
                hb.cells_per_sec,
                hb.hit_rate * 100.0,
                hb.quarantined,
                hb.eta_s
            );
        }
        self.emit(&ProgressLine::Heartbeat(hb));
        self.last_beat = Instant::now();
    }
}

/// Shared, mutex-guarded campaign progress front-end.
///
/// Construction does not write anything; the stream begins when the
/// driver calls [`Self::start`]. All methods take `&self`, so one
/// reporter can be shared across worker threads.
pub struct ProgressReporter {
    inner: Mutex<ReporterInner>,
}

impl std::fmt::Debug for ProgressReporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("ProgressReporter")
            .field("campaign", &inner.campaign)
            .field("done", &inner.done)
            .field("total", &inner.total)
            .finish_non_exhaustive()
    }
}

impl ProgressReporter {
    /// New reporter. `writer` receives the JSONL stream (pass `None` for
    /// human-only mode); `human` enables one-line heartbeat summaries on
    /// stderr.
    pub fn new(writer: Option<Box<dyn Write + Send>>, human: bool) -> Self {
        let now = Instant::now();
        Self {
            inner: Mutex::new(ReporterInner {
                writer: writer.map(JsonlWriter::new),
                human,
                degraded: false,
                started_at: now,
                last_beat: now,
                heartbeat_every: Duration::from_secs(1),
                campaign: String::new(),
                total: 0,
                done: 0,
                hits: 0,
                simulated: 0,
                resumed: 0,
                quarantined: 0,
                store_health: crate::io::IoHealth::default(),
            }),
        }
    }

    /// Open the stream: emits the [`CampaignStart`] line and starts the
    /// rate clock.
    pub fn start(&self, campaign: &str, cells: u64, resumed: u64, threads: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.campaign = campaign.to_string();
        inner.total = cells;
        inner.started_at = Instant::now();
        inner.last_beat = inner.started_at;
        inner.emit(&ProgressLine::Started(CampaignStart {
            version: PROGRESS_SCHEMA_VERSION,
            campaign: campaign.to_string(),
            cells,
            resumed,
            threads: threads as u64,
        }));
        if inner.human {
            eprintln!(
                "progress {campaign} started: {cells} cells, {resumed} already decided, {threads} threads"
            );
        }
    }

    /// Record one decided cell; emits its [`CellEvent`] line and a
    /// heartbeat when the cadence interval has elapsed.
    pub fn cell(&self, decision: CellDecision, key: &str, worker: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.done += 1;
        match decision {
            CellDecision::Hit => inner.hits += 1,
            CellDecision::Simulated => inner.simulated += 1,
            CellDecision::Quarantined => inner.quarantined += 1,
            CellDecision::Resumed => inner.resumed += 1,
        }
        inner.emit(&ProgressLine::Cell(CellEvent {
            decision,
            key: key.to_string(),
            worker: worker as u64,
        }));
        if inner.last_beat.elapsed() >= inner.heartbeat_every {
            inner.beat();
        }
    }

    /// Replace the reported store-health snapshot (absolute counts —
    /// callers pass a fresh [`IoHealth`](crate::io::IoHealth) snapshot
    /// of the pack store at each checkpoint). Surfaced in every
    /// subsequent heartbeat.
    pub fn note_store_health(&self, health: crate::io::IoHealth) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.store_health = health;
    }

    /// Close the stream: a final [`Heartbeat`] (whose counts are the
    /// campaign's decided totals), the [`CampaignFinish`] line, then
    /// flush. Returns the flush error, if any — emission errors before
    /// this degraded silently.
    pub fn finish(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.beat();
        let finish = CampaignFinish {
            done: inner.done,
            simulated: inner.simulated,
            hits: inner.hits,
            resumed: inner.resumed,
            quarantined: inner.quarantined,
            wall_s: inner.started_at.elapsed().as_secs_f64(),
        };
        if inner.human {
            eprintln!(
                "progress {} finished: {} cells in {:.2}s ({} hit, {} simulated, {} resumed, {} quarantined)",
                inner.campaign,
                finish.done,
                finish.wall_s,
                finish.hits,
                finish.simulated,
                finish.resumed,
                finish.quarantined
            );
        }
        inner.emit(&ProgressLine::Finished(finish));
        match inner.writer.take() {
            Some(writer) => writer.finish().map(|_| ()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A `Write` handle into a shared byte buffer.
    #[derive(Clone)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture() -> (SharedBuf, Arc<StdMutex<Vec<u8>>>) {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        (SharedBuf(Arc::clone(&buf)), buf)
    }

    #[test]
    fn stream_round_trips_and_final_heartbeat_matches_totals() {
        let (sink, buf) = capture();
        let reporter = ProgressReporter::new(Some(Box::new(sink)), false);
        // No heartbeat between cells: the stream's line count is fixed.
        reporter.inner.lock().unwrap().heartbeat_every = Duration::from_secs(3600);
        reporter.start("fig8", 4, 1, 2);
        reporter.cell(CellDecision::Resumed, "k0", 0);
        reporter.cell(CellDecision::Hit, "k1", 0);
        reporter.cell(CellDecision::Simulated, "k2", 1);
        reporter.cell(CellDecision::Quarantined, "k3", 1);
        reporter.note_store_health(crate::io::IoHealth {
            retries: 3,
            degraded: 1,
            sync_failures: 2,
        });
        reporter.finish().unwrap();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines = progress_from_jsonl(&text).unwrap();
        assert!(matches!(lines.first(), Some(ProgressLine::Started(s)) if s.cells == 4));
        let hb = lines
            .iter()
            .rev()
            .find_map(|l| match l {
                ProgressLine::Heartbeat(hb) => Some(hb),
                _ => None,
            })
            .expect("final heartbeat");
        assert_eq!(
            (hb.done, hb.hits, hb.simulated, hb.resumed, hb.quarantined),
            (4, 1, 1, 1, 1)
        );
        assert_eq!(
            (hb.store_retries, hb.store_degraded, hb.store_sync_failures),
            (3, 1, 2)
        );
        assert!(matches!(lines.last(), Some(ProgressLine::Finished(f)) if f.done == 4));
    }

    #[test]
    fn version_drift_and_missing_start_are_rejected() {
        let (sink, buf) = capture();
        let reporter = ProgressReporter::new(Some(Box::new(sink)), false);
        reporter.start("fig8", 1, 0, 1);
        reporter.finish().unwrap();
        let good = String::from_utf8(buf.lock().unwrap().clone()).unwrap();

        // Future version is refused.
        let current = format!("\"version\":{PROGRESS_SCHEMA_VERSION}");
        assert!(good.contains(&current));
        let drifted = good.replacen(&current, "\"version\":999", 1);
        assert!(progress_from_jsonl(&drifted)
            .unwrap_err()
            .contains("schema version"));

        // A stream that does not open with Started is refused.
        let headless: String = good.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(progress_from_jsonl(&headless)
            .unwrap_err()
            .contains("Started"));

        // An unknown line kind fails in serde, like RunArtifact.
        let alien = format!("{}{{\"Telemetry\":{{}}}}\n", good);
        assert!(progress_from_jsonl(&alien).is_err());
    }

    #[test]
    fn write_failure_degrades_without_losing_counts() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("pipe closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let reporter = ProgressReporter::new(Some(Box::new(Broken)), false);
        reporter.start("fig8", 2, 0, 1);
        reporter.cell(CellDecision::Simulated, "k0", 0);
        reporter.cell(CellDecision::Hit, "k1", 0);
        // The writer was dropped on first failure; finish still succeeds
        // and the totals survived.
        reporter.finish().unwrap();
        let inner = reporter.inner.lock().unwrap();
        let counts = (
            inner.done,
            inner.hits,
            inner.simulated,
            inner.resumed,
            inner.quarantined,
        );
        assert_eq!(counts, (2, 1, 1, 0, 0));
    }
}
