//! Fault-injectable storage I/O: the seam between the pack-file store
//! and the filesystem.
//!
//! Every file the pack store writes — packs, sidecars, compaction's
//! merged pack and quarantine — goes through a [`StoreIo`]
//! implementation instead of `std::fs` directly. (The store's lock
//! file, progress streams and trace files use `std::fs`.) Two backends
//! exist:
//!
//! * [`RealIo`] — a zero-cost passthrough to `std::fs`.
//! * [`FaultyIo`] — a deterministic fault injector: a SplitMix64
//!   stream (seeded per test, like `core::fault`) schedules short
//!   writes, `EINTR`, `EAGAIN`, `ENOSPC`, failed renames, and failed
//!   syncs at chosen per-family operation counts. Same seed ⇒ same
//!   schedule ⇒ reproducible failures, so recovery paths are testable
//!   instead of theoretical.
//!
//! Alongside the trait live the shared recovery vocabulary types:
//! [`RetryPolicy`] (bounded, jitter-free deterministic backoff for
//! transient errors), [`Durability`] (the `--durability` knob: when
//! `sync_all` barriers run), and [`IoCounters`]/[`IoHealth`] (the
//! `store.retries` / `store.degraded` / `store.sync_failures`
//! accounting surfaced in heartbeats, `exp report`, and the metrics
//! registry).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::metrics::MetricsRegistry;

/// One SplitMix64 step (same constants as `core::fault`): the
/// generator behind every deterministic fault schedule here.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A writable file handle dispensed by a [`StoreIo`] backend.
///
/// `write` has raw `std::io::Write` semantics — short writes are
/// legal — so injected partial writes surface to the caller's write
/// loop exactly as a real kernel's would.
pub trait StoreFile: Write + Send + fmt::Debug {
    /// Flush file contents and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations the persistence stack needs, as an
/// object-safe trait so a real backend and a fault injector are
/// interchangeable at store-construction time.
///
/// Read-side operations are deliberately not fault-injected: the
/// recovery discipline under test is the *write* path (what a crash
/// or full disk can corrupt); read errors already degrade through the
/// store's checksum rejection.
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Directory entries of `dir` (files only, unordered).
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whole-file read.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create exclusively (`O_EXCL`): fails with `AlreadyExists` if
    /// the path is taken — the pack-name claim primitive. The handle
    /// appends (`O_APPEND`), so a truncate-by-path rollback moves the
    /// next write back to the new end of file instead of leaving a
    /// zero-filled hole at the handle's old position.
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn StoreFile>>;
    /// Create or truncate for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>>;
    /// Atomic rename (the commit point of every tmp-then-rename
    /// sequence). Injectable: a "lost rename" leaves the tmp file.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Truncate a file by path (torn-tail recovery on open).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
}

/// The passthrough backend: every operation is the `std::fs` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl RealIo {
    /// A shared handle to the real backend.
    pub fn shared() -> Arc<dyn StoreIo> {
        Arc::new(RealIo)
    }
}

/// A real [`std::fs::File`] as a [`StoreFile`].
#[derive(Debug)]
pub(crate) struct RealFile(pub(crate) fs::File);

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl StoreFile for RealFile {
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl StoreIo for RealIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        Ok(out)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let file = fs::OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(Box::new(RealFile(fs::File::create(path)?)))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        fs::OpenOptions::new().write(true).open(path)?.set_len(len)
    }
}

/// What a scheduled write fault does when its operation count comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Write only half the buffer and report the partial count —
    /// legal `Write` behavior that exercises every caller's loop.
    Short,
    /// `EINTR`: no bytes written, transient.
    Interrupted,
    /// `EAGAIN`: no bytes written, transient.
    WouldBlock,
    /// `ENOSPC`: no bytes written, persistent — retries cannot help.
    StorageFull,
}

/// A deterministic injection schedule: per-family operation counts at
/// which faults fire. Built by [`FaultyIo::seeded`] from a SplitMix64
/// stream or assembled exactly via [`FaultyIo::builder`].
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultSchedule {
    /// nth `write` call (counted across all files) → fault.
    pub(crate) writes: BTreeMap<u64, WriteFault>,
    /// nth `sync_all` call that fails.
    pub(crate) syncs: Vec<u64>,
    /// nth `rename` call that fails.
    pub(crate) renames: Vec<u64>,
}

#[derive(Debug, Default)]
struct FaultState {
    schedule: FaultSchedule,
    writes: AtomicU64,
    syncs: AtomicU64,
    renames: AtomicU64,
    injected: AtomicU64,
}

impl FaultState {
    fn next_write_fault(&self) -> Option<WriteFault> {
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        let fault = self.schedule.writes.get(&n).copied();
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }
    fn sync_fails(&self) -> bool {
        let n = self.syncs.fetch_add(1, Ordering::Relaxed);
        let hit = self.schedule.syncs.contains(&n);
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
    fn rename_fails(&self) -> bool {
        let n = self.renames.fetch_add(1, Ordering::Relaxed);
        let hit = self.schedule.renames.contains(&n);
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

/// Deterministic fault-injecting backend: a [`RealIo`] whose write,
/// sync, and rename paths consult a precomputed `FaultSchedule`.
#[derive(Debug, Clone)]
pub struct FaultyIo {
    state: Arc<FaultState>,
}

/// Assembles an exact `FaultSchedule` for targeted tests.
#[derive(Debug, Default)]
pub struct FaultScheduleBuilder {
    schedule: FaultSchedule,
}

impl FaultScheduleBuilder {
    /// Inject `fault` on the nth write call (0-based, global).
    pub fn write_fault(mut self, nth: u64, fault: WriteFault) -> Self {
        self.schedule.writes.insert(nth, fault);
        self
    }
    /// Fail the nth `sync_all` call.
    pub fn sync_fault(mut self, nth: u64) -> Self {
        self.schedule.syncs.push(nth);
        self
    }
    /// Fail the nth `rename` call.
    pub fn rename_fault(mut self, nth: u64) -> Self {
        self.schedule.renames.push(nth);
        self
    }
    /// Finish into a backend.
    pub fn build(self) -> FaultyIo {
        FaultyIo {
            state: Arc::new(FaultState {
                schedule: self.schedule,
                ..FaultState::default()
            }),
        }
    }
}

impl FaultyIo {
    /// An empty schedule (behaves exactly like [`RealIo`]).
    pub fn builder() -> FaultScheduleBuilder {
        FaultScheduleBuilder::default()
    }

    /// A seeded schedule: over the first `horizon` operations of each
    /// family, each operation faults with probability
    /// `density_permille`/1000; faulting writes draw one of the four
    /// [`WriteFault`] kinds uniformly. Same `(seed, horizon, density)`
    /// ⇒ same schedule.
    pub fn seeded(seed: u64, horizon: u64, density_permille: u64) -> FaultyIo {
        let mut b = Self::builder();
        let mut s = seed ^ 0x010F_A17D_5EED;
        for op in 0..horizon {
            if splitmix64(&mut s) % 1000 < density_permille {
                let kind = match splitmix64(&mut s) % 4 {
                    0 => WriteFault::Short,
                    1 => WriteFault::Interrupted,
                    2 => WriteFault::WouldBlock,
                    _ => WriteFault::StorageFull,
                };
                b = b.write_fault(op, kind);
            }
        }
        for op in 0..horizon {
            if splitmix64(&mut s) % 1000 < density_permille {
                b = b.sync_fault(op);
            }
        }
        for op in 0..horizon {
            if splitmix64(&mut s) % 1000 < density_permille {
                b = b.rename_fault(op);
            }
        }
        b.build()
    }

    /// How many faults have actually fired so far.
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }
}

/// A file handle whose writes and syncs consult the shared schedule.
struct FaultyFile {
    file: fs::File,
    state: Arc<FaultState>,
}

impl fmt::Debug for FaultyFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyFile").finish_non_exhaustive()
    }
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.state.next_write_fault() {
            None => self.file.write(buf),
            Some(WriteFault::Short) if buf.len() >= 2 => {
                // A genuine short write: half the bytes land, the
                // caller's loop must continue (or a crash here leaves
                // a torn tail for recovery to cut).
                self.file.write_all(&buf[..buf.len() / 2])?;
                Ok(buf.len() / 2)
            }
            Some(WriteFault::Short) => self.file.write(buf),
            Some(WriteFault::Interrupted) => {
                Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"))
            }
            Some(WriteFault::WouldBlock) => {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "injected EAGAIN"))
            }
            Some(WriteFault::StorageFull) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            )),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl StoreFile for FaultyFile {
    fn sync_all(&mut self) -> io::Result<()> {
        if self.state.sync_fails() {
            return Err(io::Error::other("injected sync failure"));
        }
        self.file.sync_all()
    }
}

impl StoreIo for FaultyIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealIo.create_dir_all(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealIo.read_dir(dir)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealIo.read(path)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let file = fs::OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(FaultyFile {
            file,
            state: Arc::clone(&self.state),
        }))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(Box::new(FaultyFile {
            file: fs::File::create(path)?,
            state: Arc::clone(&self.state),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.state.rename_fails() {
            return Err(io::Error::other("injected rename failure"));
        }
        RealIo.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealIo.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        // Truncation is the recovery primitive; it stays reliable so
        // every injected schedule has a corruption-free exit.
        RealIo.truncate(path, len)
    }
}

/// Bounded, jitter-free retry for transient I/O errors. The schedule
/// is fully deterministic: attempt `i` sleeps `base_backoff · 2^i`,
/// so a test with a known fault schedule sees an exact retry count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). 1 means no retries.
    pub attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// Whether `e` is worth retrying: `EINTR`, `EAGAIN`, and timeouts
    /// are; `ENOSPC` and everything else degrade immediately.
    pub fn is_transient(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// The deterministic backoff before retry number `retry` (0-based).
    pub fn backoff(&self, retry: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX))
    }

    /// Runs `op`, retrying transient errors up to the attempt budget
    /// with the deterministic backoff schedule. Every retry is counted
    /// into `counters`; the final error (transient budget exhausted or
    /// a persistent error) is returned for the caller to degrade on.
    pub fn run<T>(
        &self,
        counters: &IoCounters,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut retry = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if Self::is_transient(&e) && retry + 1 < self.attempts.max(1) => {
                    counters.note_retry();
                    std::thread::sleep(self.backoff(retry));
                    retry += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// When `sync_all` barriers run on the persistence stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Durability {
    /// Never sync: fastest, a crash may lose everything since the
    /// last kernel writeback (records stay torn-tail recoverable).
    None,
    /// Sync at batch boundaries (each decided checkpoint group) and
    /// on close — the default: bounded loss, amortized cost.
    #[default]
    Batch,
    /// Sync after every record: minimal loss window, maximal cost.
    Record,
}

impl Durability {
    /// Parse a `--durability` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Self::None),
            "batch" => Some(Self::Batch),
            "record" => Some(Self::Record),
            _ => None,
        }
    }
}

/// Shared, thread-safe recovery accounting for one store instance.
#[derive(Debug, Default)]
pub struct IoCounters {
    retries: AtomicU64,
    degraded: AtomicU64,
    sync_failures: AtomicU64,
}

impl IoCounters {
    /// One transient error was retried.
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }
    /// One operation gave up and degraded.
    pub fn note_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }
    /// One `sync_all` barrier failed (data still buffered).
    pub fn note_sync_failure(&self) {
        self.sync_failures.fetch_add(1, Ordering::Relaxed);
    }
    /// Freeze into a plain snapshot.
    pub fn snapshot(&self) -> IoHealth {
        IoHealth {
            retries: self.retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            sync_failures: self.sync_failures.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of [`IoCounters`], serializable into
/// heartbeats and reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoHealth {
    /// Transient errors that were retried.
    pub retries: u64,
    /// Operations that exhausted retries (or hit a persistent error)
    /// and degraded.
    pub degraded: u64,
    /// Failed `sync_all` barriers.
    pub sync_failures: u64,
}

impl IoHealth {
    /// Whether nothing went wrong.
    pub fn is_clean(&self) -> bool {
        *self == IoHealth::default()
    }

    /// Publish as `{prefix}.retries` / `{prefix}.degraded` /
    /// `{prefix}.sync_failures` counters.
    pub fn publish(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.counter(&format!("{prefix}.retries"), self.retries);
        reg.counter(&format!("{prefix}.degraded"), self.degraded);
        reg.counter(&format!("{prefix}.sync_failures"), self.sync_failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn real_io_round_trips() {
        let dir = scratch("real");
        let io = RealIo;
        let path = dir.join("a.txt");
        let mut f = io.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap(), b"hello");
        io.rename(&path, &dir.join("b.txt")).unwrap();
        assert!(!path.exists());
        assert_eq!(io.read(&dir.join("b.txt")).unwrap(), b"hello");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_new_claims_exclusively() {
        let dir = scratch("excl");
        let io = RealIo;
        let path = dir.join("claim");
        io.create_new(&path).unwrap();
        let err = io.create_new(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_short_write_writes_half() {
        let dir = scratch("short");
        let io = FaultyIo::builder()
            .write_fault(0, WriteFault::Short)
            .build();
        let path = dir.join("f");
        let mut f = io.create(&path).unwrap();
        let n = f.write(b"abcdefgh").unwrap();
        assert_eq!(n, 4);
        drop(f);
        assert_eq!(RealIo.read(&path).unwrap(), b"abcd");
        assert_eq!(io.injected(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_transients_then_success() {
        let dir = scratch("transient");
        let io = FaultyIo::builder()
            .write_fault(0, WriteFault::Interrupted)
            .write_fault(1, WriteFault::WouldBlock)
            .build();
        let path = dir.join("f");
        let mut f = io.create(&path).unwrap();
        assert_eq!(
            f.write(b"x").unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(f.write(b"x").unwrap_err().kind(), io::ErrorKind::WouldBlock);
        f.write_all(b"x").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_enospc_and_sync_and_rename() {
        let dir = scratch("hard");
        let io = FaultyIo::builder()
            .write_fault(0, WriteFault::StorageFull)
            .sync_fault(0)
            .rename_fault(0)
            .build();
        let mut f = io.create(&dir.join("f")).unwrap();
        assert_eq!(
            f.write(b"x").unwrap_err().kind(),
            io::ErrorKind::StorageFull
        );
        assert!(f.sync_all().is_err());
        assert!(io.rename(&dir.join("f"), &dir.join("g")).is_err());
        assert!(dir.join("f").exists(), "failed rename must not move");
        assert_eq!(io.injected(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let a = FaultyIo::seeded(7, 64, 250);
        let b = FaultyIo::seeded(7, 64, 250);
        assert_eq!(a.state.schedule.writes, b.state.schedule.writes);
        assert_eq!(a.state.schedule.syncs, b.state.schedule.syncs);
        assert_eq!(a.state.schedule.renames, b.state.schedule.renames);
        let c = FaultyIo::seeded(8, 64, 250);
        assert!(
            a.state.schedule.writes != c.state.schedule.writes
                || a.state.schedule.syncs != c.state.schedule.syncs
                || a.state.schedule.renames != c.state.schedule.renames,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn retry_policy_retries_transients_only() {
        let counters = IoCounters::default();
        let policy = RetryPolicy {
            attempts: 3,
            base_backoff: Duration::ZERO,
        };
        let mut calls = 0;
        let out = policy.run(&counters, || {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(counters.snapshot().retries, 2);

        let mut calls = 0;
        let out: io::Result<()> = policy.run(&counters, || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::StorageFull, "enospc"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "persistent errors must not retry");
    }

    #[test]
    fn retry_budget_is_bounded() {
        let counters = IoCounters::default();
        let policy = RetryPolicy {
            attempts: 4,
            base_backoff: Duration::ZERO,
        };
        let mut calls = 0;
        let out: io::Result<()> = policy.run(&counters, || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 4);
        assert_eq!(counters.snapshot().retries, 3);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_doubling() {
        let policy = RetryPolicy {
            attempts: 5,
            base_backoff: Duration::from_millis(2),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(2));
        assert_eq!(policy.backoff(1), Duration::from_millis(4));
        assert_eq!(policy.backoff(2), Duration::from_millis(8));
    }

    #[test]
    fn durability_parses() {
        assert_eq!(Durability::parse("none"), Some(Durability::None));
        assert_eq!(Durability::parse("batch"), Some(Durability::Batch));
        assert_eq!(Durability::parse("record"), Some(Durability::Record));
        assert_eq!(Durability::parse("often"), None);
        assert_eq!(Durability::default(), Durability::Batch);
    }

    #[test]
    fn io_health_merges_and_publishes() {
        let counters = IoCounters::default();
        counters.note_retry();
        counters.note_degraded();
        counters.note_sync_failure();
        counters.note_sync_failure();
        let h = counters.snapshot();
        assert_eq!(h.retries, 1);
        assert_eq!(h.degraded, 1);
        assert_eq!(h.sync_failures, 2);
        assert!(!h.is_clean());

        let mut reg = crate::MetricsRegistry::new();
        h.publish("store", &mut reg);
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.entries
                .iter()
                .find(|e| e.name == name)
                .expect("metric present")
        };
        assert!(matches!(
            get("store.retries").value,
            crate::MetricValue::Counter(1)
        ));
        assert!(matches!(
            get("store.sync_failures").value,
            crate::MetricValue::Counter(2)
        ));
    }

    #[test]
    fn splitmix_matches_reference() {
        // First value of the SplitMix64 reference stream from seed 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }
}
