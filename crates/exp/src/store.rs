//! Pack-file sweep store: the one persistence layer behind figure
//! sweeps and fault campaigns.
//!
//! Every decided `(scenario, policy, seed)` cell lives in append-only
//! **segment packs**: each writer owns an exclusive pack file of
//! length-prefixed, FNV-checksummed records (canonical key text +
//! compact binary [`TrialSummary`] or [`CellFailure`]). On open every
//! pack is read into memory once and the file descriptor is closed
//! again, so probes are pure hash-map lookups — zero per-cell syscalls,
//! O(1) retained descriptors regardless of grid size — and the batch
//! probe API ([`TrialStore::probe_many`]) resolves a whole figure grid
//! in one pass.
//!
//! Integrity rules:
//!
//! * Every record stores the **canonical key text** (see
//!   [`crate::cache`]), and every hit re-verifies it, so a fingerprint
//!   collision or poisoned pack can never substitute a foreign result.
//! * A kill mid-append leaves a torn final record. [`PackStore::open`]
//!   scans the pack record-by-record, truncates the damaged tail away,
//!   and its cells recompute.
//! * A sidecar index (`*.idx`) caches `(fingerprint, offset, kind)`
//!   entries for a checksummed prefix of its pack; open trusts a valid
//!   sidecar for that prefix and scans only the tail appended after it.
//!   A missing, truncated, or corrupt sidecar merely forces a full pack
//!   scan — it can never lose or corrupt decided cells.
//! * Records come in two kinds — `done` ([`TrialSummary`]) and
//!   `quarantined` ([`CellFailure`]) — so one store serves figure
//!   sweeps (through [`TrialStore`], which sees only `done` records) and
//!   resumable fault campaigns (through [`PackStore::decided`], which
//!   sees both).
//!
//! Writes append to one of a fixed set of writer slots (pack files named
//! `pack-<pid>-<slot>-<n>.hpk`), created lazily with `O_EXCL`, so
//! concurrent processes and threads never interleave bytes in one file.
//! An IO failure never fails the run: transient errors retry on the
//! store's deterministic [`RetryPolicy`] schedule; persistent errors
//! flip the store into write-degraded mode (one warning) and it keeps
//! answering probes.
//!
//! Durability and recovery (PR 10):
//!
//! * Every filesystem touch goes through a [`StoreIo`] backend, so the
//!   whole recovery discipline is testable under the deterministic
//!   [`FaultyIo`](harvest_obs::FaultyIo) injector.
//! * Writer slots are claimed through **advisory-locked lease files**
//!   (`flock` on `lease-<slot>` with a `pid epoch` stamp; a clean
//!   close restamps pid 0). A crashed process's flock dies with it and
//!   its pid stays in the stamp, so the next writer takes the slot over
//!   with a note (bumping the epoch); [`PackStore::open`] reclaims dead-pid
//!   packs by refreshing their sidecars, and [`PackStore::compact`] /
//!   [`PackStore::scrub`] refuse to run while any lease is held by a
//!   live writer.
//! * A [`Durability`] knob decides when `sync_all` barriers run:
//!   per-record, at batch boundaries ([`PackStore::barrier`], the
//!   default), or never. Compaction and sidecar writes are
//!   crash-consistent (write → sync → rename → unlink).
//! * [`PackStore::scrub`] walks every pack byte-for-byte, resyncs past
//!   mid-pack corruption, quarantines the corrupt spans into
//!   `scrub-quarantine/`, and rewrites a clean store — the warm path
//!   then re-simulates exactly the lost cells.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use harvest_obs::io::{
    pid_alive, read_lease_stamp, Durability, IoCounters, IoHealth, RealIo, RetryPolicy, StoreFile,
    StoreIo,
};

use crate::cache::{fnv1a64, TrialKey, TrialSummary};
use crate::parallel::CellFailure;

/// Environment variable selecting the pack store (read by
/// [`store_dir_from_env`]): unset, empty, or `0` disables; `1` enables
/// at the default `target/sweep-store/`; any other value is used as the
/// store directory path.
pub const SWEEP_STORE_ENV: &str = "HARVEST_SWEEP_STORE";

/// Default store root used when [`SWEEP_STORE_ENV`] is `1`.
pub const DEFAULT_STORE_DIR: &str = "target/sweep-store";

/// Pack file magic + format version ("harvest pack, v1").
const PACK_MAGIC: [u8; 8] = *b"HPK1\x01\0\0\0";
/// Sidecar index magic + format version.
const IDX_MAGIC: [u8; 8] = *b"HPX1\x01\0\0\0";
/// Record kind: a cleanly decided cell carrying a [`TrialSummary`].
const KIND_DONE: u8 = 1;
/// Record kind: a quarantined cell carrying a [`CellFailure`].
const KIND_QUARANTINED: u8 = 2;
/// Number of writer slots a store multiplexes its threads over. Bounds
/// the retained file descriptors: a store holds at most this many fds
/// open, no matter how many cells it writes.
pub const WRITER_SLOTS: usize = 8;

// ---------------------------------------------------------------------------
// Store surface
// ---------------------------------------------------------------------------

/// How the store remembers one decided cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell simulated cleanly.
    Done(TrialSummary),
    /// The cell was quarantined: it panicked or returned a typed
    /// simulation error. Quarantined cells count as decided — the
    /// simulator is deterministic, so a resumed campaign skips the cell
    /// instead of failing it again.
    Quarantined(CellFailure),
}

/// Hit/miss accounting of one store over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups with no usable record (absent or rejected).
    pub misses: u64,
    /// Records rejected on integrity grounds (undecodable, or carrying
    /// a foreign key behind a fingerprint collision). A subset of
    /// `misses`.
    pub rejects: u64,
    /// Records written.
    pub stores: u64,
}

impl CacheStats {
    /// Publishes the counters into a metrics sink under `prefix` (so
    /// `publish("store", ..)` yields `store.hits`, `store.misses`, ...),
    /// plus a `{prefix}.hit_rate` gauge when any lookup happened. Store
    /// accounting then renders alongside the engine's queue and pool
    /// metrics in one [`harvest_obs::MetricsRegistry`] snapshot.
    pub fn publish<S: harvest_obs::MetricsSink>(&self, prefix: &str, sink: &mut S) {
        sink.counter(&format!("{prefix}.hits"), self.hits);
        sink.counter(&format!("{prefix}.misses"), self.misses);
        sink.counter(&format!("{prefix}.rejects"), self.rejects);
        sink.counter(&format!("{prefix}.stores"), self.stores);
        let lookups = self.hits + self.misses;
        if lookups > 0 {
            sink.gauge(
                &format!("{prefix}.hit_rate"),
                self.hits as f64 / lookups as f64,
            );
        }
    }
}

/// The figure-facing read/write surface of [`PackStore`]: the figure
/// drivers take `Option<&dyn TrialStore>` and see only `done` records
/// (a quarantined cell probes as a miss). Fault campaigns use the
/// inherent decided-record methods instead.
pub trait TrialStore: Sync {
    /// Looks one key up; integrity-rejected records answer `None`.
    fn probe(&self, key: &TrialKey) -> Option<TrialSummary>;

    /// Resolves a whole grid of keys in one pass, under a single map
    /// lock with zero per-cell syscalls.
    fn probe_many(&self, keys: &[TrialKey]) -> Vec<Option<TrialSummary>>;

    /// Persists one decided cell. Never fails the run: IO errors degrade
    /// the store to read-only with one warning.
    fn store(&self, key: &TrialKey, summary: &TrialSummary);

    /// Durability barrier: sync everything appended since the last
    /// barrier.
    fn barrier(&self);
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------
//
// Pack layout:   magic(8) · record*
// Record layout: body_len:u32 · body · fnv1a64(body):u64
// Body layout:   kind:u8 · key_len:u32 · key(utf8) · payload
//
// All integers little-endian. `body_len` covers `body` only, so the full
// record occupies `4 + body_len + 8` bytes. Payloads are fixed-layout
// binary (no serde): a summary is three u64 counters, a u32 sample
// count, then that many u64 sample bit patterns; a failure is a
// length-prefixed message, a bool byte, and a u32 worker index.

fn encode_summary(summary: &TrialSummary) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + 8 * summary.sample_level_bits.len());
    out.extend_from_slice(&summary.released.to_le_bytes());
    out.extend_from_slice(&summary.completed_in_time.to_le_bytes());
    out.extend_from_slice(&summary.missed.to_le_bytes());
    out.extend_from_slice(&(summary.sample_level_bits.len() as u32).to_le_bytes());
    for &bits in &summary.sample_level_bits {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    out
}

fn decode_summary(payload: &[u8]) -> Option<TrialSummary> {
    if payload.len() < 28 {
        return None;
    }
    let u64_at = |o: usize| u64::from_le_bytes(payload[o..o + 8].try_into().unwrap());
    let n = u32::from_le_bytes(payload[24..28].try_into().unwrap()) as usize;
    if payload.len() != 28 + 8 * n {
        return None;
    }
    let sample_level_bits = (0..n).map(|i| u64_at(28 + 8 * i)).collect();
    Some(TrialSummary {
        released: u64_at(0),
        completed_in_time: u64_at(8),
        missed: u64_at(16),
        sample_level_bits,
    })
}

fn encode_failure(failure: &CellFailure) -> Vec<u8> {
    let msg = failure.message.as_bytes();
    let mut out = Vec::with_capacity(9 + msg.len());
    out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    out.extend_from_slice(msg);
    out.push(failure.panicked as u8);
    out.extend_from_slice(&(failure.worker as u32).to_le_bytes());
    // Flight-dump path, appended only when present: records without it
    // stay byte-identical to the pre-telemetry encoding, so old packs
    // and new packs of flight-less failures read the same both ways.
    if let Some(flight) = &failure.flight {
        out.extend_from_slice(&(flight.len() as u32).to_le_bytes());
        out.extend_from_slice(flight.as_bytes());
    }
    out
}

fn decode_failure(payload: &[u8]) -> Option<CellFailure> {
    if payload.len() < 9 {
        return None;
    }
    let msg_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    if payload.len() < 9 + msg_len {
        return None;
    }
    let message = String::from_utf8(payload[4..4 + msg_len].to_vec()).ok()?;
    let panicked = match payload[4 + msg_len] {
        0 => false,
        1 => true,
        _ => return None,
    };
    let worker = u32::from_le_bytes(payload[5 + msg_len..9 + msg_len].try_into().ok()?) as usize;
    let rest = &payload[9 + msg_len..];
    let flight = if rest.is_empty() {
        None
    } else {
        if rest.len() < 4 {
            return None;
        }
        let flight_len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if rest.len() != 4 + flight_len {
            return None;
        }
        Some(String::from_utf8(rest[4..].to_vec()).ok()?)
    };
    Some(CellFailure {
        message,
        panicked,
        worker,
        flight,
    })
}

fn encode_record(kind: u8, key_text: &str, payload: &[u8]) -> Vec<u8> {
    let body_len = 1 + 4 + key_text.len() + payload.len();
    let mut out = Vec::with_capacity(4 + body_len + 8);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(key_text.len() as u32).to_le_bytes());
    out.extend_from_slice(key_text.as_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out[4..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// One record decoded in place from a pack buffer.
struct RawRecord<'a> {
    kind: u8,
    key_text: &'a str,
    payload: &'a [u8],
    /// Offset one past the record's trailing checksum.
    next: usize,
}

/// Decodes the record starting at `offset`. `None` means the bytes from
/// `offset` on are torn, truncated, or checksum-corrupt — by the
/// torn-tail discipline everything from `offset` is dropped.
fn decode_record(data: &[u8], offset: usize) -> Option<RawRecord<'_>> {
    let len_end = offset.checked_add(4)?;
    if len_end > data.len() {
        return None;
    }
    let body_len = u32::from_le_bytes(data[offset..len_end].try_into().unwrap()) as usize;
    if body_len < 5 {
        return None;
    }
    let body_end = len_end.checked_add(body_len)?;
    let next = body_end.checked_add(8)?;
    if next > data.len() {
        return None;
    }
    let body = &data[len_end..body_end];
    let stored = u64::from_le_bytes(data[body_end..next].try_into().unwrap());
    if fnv1a64(body) != stored {
        return None;
    }
    let kind = body[0];
    if kind != KIND_DONE && kind != KIND_QUARANTINED {
        return None;
    }
    let key_len = u32::from_le_bytes(body[1..5].try_into().unwrap()) as usize;
    if 5 + key_len > body.len() {
        return None;
    }
    let key_text = std::str::from_utf8(&body[5..5 + key_len]).ok()?;
    Some(RawRecord {
        kind,
        key_text,
        payload: &body[5 + key_len..],
        next,
    })
}

// ---------------------------------------------------------------------------
// Sidecar index
// ---------------------------------------------------------------------------
//
// Sidecar layout: magic(8) · covered:u64 · count:u64 · entry* ·
// fnv1a64(everything after magic, before this field):u64, with
// entry = fingerprint:u64 · offset:u64 · kind:u8. `covered` is the pack
// prefix (in bytes) the entries describe; records appended after a
// sidecar was written are recovered by scanning the tail from `covered`.

struct IdxEntry {
    fingerprint: u64,
    offset: usize,
    kind: u8,
}

fn encode_index(covered: usize, entries: &[IdxEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + 17 * entries.len());
    out.extend_from_slice(&IDX_MAGIC);
    out.extend_from_slice(&(covered as u64).to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.fingerprint.to_le_bytes());
        out.extend_from_slice(&(e.offset as u64).to_le_bytes());
        out.push(e.kind);
    }
    let sum = fnv1a64(&out[8..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes a sidecar. `None` (missing, truncated, corrupt, or covering
/// more bytes than the pack holds) forces a full pack scan.
fn decode_index(data: &[u8], pack_len: usize) -> Option<(usize, Vec<IdxEntry>)> {
    if data.len() < 32 || data[..8] != IDX_MAGIC {
        return None;
    }
    let body = &data[8..data.len() - 8];
    let stored = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
    if fnv1a64(body) != stored {
        return None;
    }
    let covered = u64::from_le_bytes(body[..8].try_into().unwrap()) as usize;
    let count = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
    if covered > pack_len || body.len() != 16 + 17 * count {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = 16 + 17 * i;
        let offset = u64::from_le_bytes(body[at + 8..at + 16].try_into().unwrap()) as usize;
        if offset < PACK_MAGIC.len() || offset >= covered {
            return None;
        }
        entries.push(IdxEntry {
            fingerprint: u64::from_le_bytes(body[at..at + 8].try_into().unwrap()),
            offset,
            kind: body[at + 16],
        });
    }
    Some((covered, entries))
}

fn idx_path_for(pack: &Path) -> PathBuf {
    pack.with_extension("idx")
}

// ---------------------------------------------------------------------------
// PackStore
// ---------------------------------------------------------------------------

/// Where one decided record lives: pack buffer index, byte offset of
/// its `body_len` field, and its kind (so `decided` lookups skip a
/// decode to discriminate).
#[derive(Clone, Copy)]
struct Loc {
    pack: usize,
    offset: usize,
    kind: u8,
}

/// One pack held in memory. `path` is retained so compaction and
/// sidecar rewrites know which file the bytes mirror.
struct PackBuf {
    path: PathBuf,
    data: Vec<u8>,
}

struct Inner {
    packs: Vec<PackBuf>,
    index: HashMap<u64, Loc>,
}

/// An advisory-locked claim on one global writer slot: the open,
/// `flock`ed lease file plus the epoch this writer stamped into it.
/// Dropping the lease (process exit included, even by SIGKILL) releases
/// the flock, so the slot is always recoverable.
struct WriterLease {
    /// Held open for the lifetime of the writer; the flock lives here.
    file: std::fs::File,
    /// The global slot number this lease claims.
    slot: usize,
    /// The epoch stamped by this writer (predecessor's epoch + 1).
    epoch: u64,
    /// Whether this acquisition took the slot over from a dead process
    /// (a stale lease left by a crash).
    took_over: bool,
}

/// The pid a cleanly released lease is stamped with. No user process
/// has pid 0, so only a writer that died holding its slot leaves a
/// stamp that names a dead process.
const RELEASED_PID: u32 = 0;

impl Drop for WriterLease {
    /// Restamps the lease as released before the flock goes, so the
    /// next writer on this slot does not report a crash. A killed
    /// process never runs this and leaves its own pid behind.
    fn drop(&mut self) {
        let _ = write_stamp(&mut self.file, RELEASED_PID, self.epoch);
    }
}

/// Lease file name for a global writer slot.
fn lease_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("lease-{slot}"))
}

/// Overwrites a lease file's stamp with `pid epoch`.
fn write_stamp(file: &mut std::fs::File, pid: u32, epoch: u64) -> std::io::Result<()> {
    use std::io::Seek as _;
    file.set_len(0)?;
    file.seek(std::io::SeekFrom::Start(0))?;
    file.write_all(format!("{pid} {epoch}\n").as_bytes())
}

/// Whether a free lease's stamp names a writer that died holding the
/// slot: not released cleanly, not this process, and no longer running.
fn crashed_holder(pid: u32) -> bool {
    pid != RELEASED_PID && pid != std::process::id() && !pid_alive(pid)
}

/// Claims the first free global writer slot at or after `preferred`,
/// scanning upward without bound (two concurrent processes simply
/// occupy disjoint slot ranges; nothing ever blocks). The lease file is
/// `flock`ed exclusively and stamped `pid epoch`.
fn acquire_lease(dir: &Path, preferred: usize) -> std::io::Result<WriterLease> {
    let mut slot = preferred;
    loop {
        let path = lease_path(dir, slot);
        // No truncate here: a prior holder's stamp must survive the
        // open so takeover detection can read it before restamping.
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {
                let prior = read_lease_stamp(&mut file);
                let epoch = prior.map_or(0, |(_, e)| e.wrapping_add(1));
                let took_over = prior.is_some_and(|(pid, _)| crashed_holder(pid));
                write_stamp(&mut file, std::process::id(), epoch)?;
                let _ = file.sync_all();
                return Ok(WriterLease {
                    file,
                    slot,
                    epoch,
                    took_over,
                });
            }
            Err(std::fs::TryLockError::WouldBlock) => slot += 1,
            Err(std::fs::TryLockError::Error(e)) => return Err(e),
        }
    }
}

/// Every lease file currently present in `dir`, as `(slot, path)`.
fn lease_files(dir: &Path) -> Vec<(usize, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<(usize, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter_map(|p| {
            let slot = p
                .file_name()?
                .to_str()?
                .strip_prefix("lease-")?
                .parse()
                .ok()?;
            Some((slot, p))
        })
        .collect();
    out.sort();
    out
}

/// Returns the pids of live writers holding leases in `dir` (their
/// lease flocks are currently held by running processes).
fn live_lease_holders(dir: &Path) -> Vec<u32> {
    let mut holders = Vec::new();
    for (_, path) in lease_files(dir) {
        let Ok(mut file) = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
        else {
            continue;
        };
        match file.try_lock() {
            Ok(()) => {
                // Free lease: released before drop closes the file.
                let _ = file.unlock();
            }
            Err(_) => {
                let pid = read_lease_stamp(&mut file).map_or(0, |(pid, _)| pid);
                holders.push(pid);
            }
        }
    }
    holders
}

struct Writer {
    file: Box<dyn StoreFile>,
    /// The flock-backed claim on this writer's global slot; released
    /// when the writer is dropped.
    _lease: WriterLease,
    pack: usize,
    /// Current file length — the offset the next record lands at. The
    /// slot mutex makes this exact: only this writer appends here.
    len: usize,
}

/// The pack-file trial store (see the module docs).
///
/// Shared immutably across sweep workers: probes take a read lock on
/// the in-memory map, appends serialize per writer slot, and all
/// counters are atomic.
pub struct PackStore {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
    retry: RetryPolicy,
    durability: Durability,
    counters: Arc<IoCounters>,
    inner: RwLock<Inner>,
    writers: [Mutex<Option<Writer>>; WRITER_SLOTS],
    loaded: usize,
    reclaimed: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    rejects: AtomicU64,
    stores: AtomicU64,
    write_degraded: AtomicBool,
    /// Records appended since the last successful durability barrier.
    dirty: AtomicU64,
}

impl std::fmt::Debug for PackStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackStore")
            .field("dir", &self.dir)
            .field("loaded", &self.loaded)
            .field("durability", &self.durability)
            .finish_non_exhaustive()
    }
}

/// What [`PackStore::stat`] reports about a store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStat {
    /// Pack files loaded.
    pub packs: usize,
    /// Live (latest-per-key) records.
    pub records: usize,
    /// Live records that are `done` cells.
    pub done: usize,
    /// Live records that are `quarantined` cells.
    pub quarantined: usize,
    /// Records on disk superseded by a later write to the same key
    /// (what a [`PackStore::compact`] run would drop).
    pub superseded: usize,
    /// Total pack bytes on disk (after any torn-tail truncation).
    pub bytes: u64,
    /// Packs left behind by dead writer processes (stale leases) that
    /// this open folded back into the readable set.
    pub reclaimed: usize,
}

/// What [`PackStore::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Pack files merged away.
    pub packs_before: usize,
    /// Records across all input packs, superseded duplicates included.
    pub records_before: usize,
    /// Live records written to the merged pack.
    pub records_after: usize,
    /// Pack bytes before compaction.
    pub bytes_before: u64,
    /// Pack bytes after compaction.
    pub bytes_after: u64,
}

/// What [`PackStore::scrub`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubStats {
    /// Pack files scanned.
    pub packs: usize,
    /// Sidecar indexes that failed verification (rewritten fresh).
    pub sidecars_bad: usize,
    /// Checksum-valid records found across all packs (superseded
    /// duplicates included).
    pub records_scanned: usize,
    /// Live records written to the clean store.
    pub records_kept: usize,
    /// Corrupt byte spans quarantined (each span is one torn, bit-
    /// flipped, or truncated region between two valid records).
    pub corrupt_spans: usize,
    /// Bytes moved into `scrub-quarantine/`.
    pub corrupt_bytes: u64,
    /// Pack bytes before the rewrite.
    pub bytes_before: u64,
    /// Pack bytes after the rewrite.
    pub bytes_after: u64,
}

impl PackStore {
    /// Opens (and creates) a store rooted at `dir`, loading every pack
    /// into memory. Torn or corrupt pack tails are truncated away (their
    /// cells recompute); valid sidecar indexes skip re-scanning the
    /// prefix they cover. Packs whose header is unrecognized are
    /// ignored wholesale.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error when the directory cannot be
    /// created or listed. Per-pack read errors skip that pack only.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with(
            dir,
            RealIo::shared(),
            RetryPolicy::default(),
            Durability::default(),
        )
    }

    /// [`open`](Self::open) for the commands that inspect or rewrite an
    /// existing store (`exp store stat`, `exp store compact`,
    /// `exp report --store`): a mistyped `dir` is an error, not a new
    /// empty store.
    ///
    /// # Errors
    ///
    /// Returns [`NotFound`](std::io::ErrorKind::NotFound), creating
    /// nothing, when `dir` does not exist; otherwise as
    /// [`open`](Self::open).
    pub fn open_existing(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::metadata(&dir)?;
        Self::open(dir)
    }

    /// [`open`](Self::open) with an explicit I/O backend, retry policy,
    /// and durability level — the constructor every recovery test and
    /// the `--durability` flag go through.
    ///
    /// # Errors
    ///
    /// Same contract as [`open`](Self::open).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        retry: RetryPolicy,
        durability: Durability,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        // Stale writer-slot reclamation: slots whose lease is free but
        // stamped with a dead pid were abandoned by a crash. Their
        // packs load like any other below; noting the dead pids here
        // lets open refresh the sidecars those writers never wrote.
        let mut dead_pids: Vec<u32> = Vec::new();
        for (_, lease) in lease_files(&dir) {
            let Ok(mut file) = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&lease)
            else {
                continue;
            };
            if file.try_lock().is_err() {
                continue; // held by a live writer
            }
            if let Some((pid, _)) = read_lease_stamp(&mut file) {
                if crashed_holder(pid) {
                    dead_pids.push(pid);
                }
            }
            let _ = file.unlock();
        }
        let mut pack_paths: Vec<PathBuf> = io
            .read_dir(&dir)?
            .into_iter()
            .filter(|p| p.extension().is_some_and(|x| x == "hpk"))
            .collect();
        // Deterministic load order makes cross-pack last-wins stable.
        pack_paths.sort();

        let mut packs = Vec::with_capacity(pack_paths.len());
        let mut index: HashMap<u64, Loc> = HashMap::new();
        let mut reclaimed = 0usize;
        let mut reclaimed_packs: Vec<usize> = Vec::new();
        for path in pack_paths {
            let Ok(mut data) = io.read(&path) else {
                continue;
            };
            if data.len() < PACK_MAGIC.len() || data[..PACK_MAGIC.len()] != PACK_MAGIC {
                continue;
            }
            let pack_idx = packs.len();
            let mut scan_from = PACK_MAGIC.len();
            let sidecar_applied = if let Some((covered, entries)) = io
                .read(&idx_path_for(&path))
                .ok()
                .and_then(|idx| decode_index(&idx, data.len()))
            {
                for e in entries {
                    index.insert(
                        e.fingerprint,
                        Loc {
                            pack: pack_idx,
                            offset: e.offset,
                            kind: e.kind,
                        },
                    );
                }
                scan_from = covered;
                covered == data.len()
            } else {
                false
            };
            // Scan the tail (the whole pack when no sidecar applied),
            // truncating at the first torn or corrupt record.
            let mut at = scan_from;
            while at < data.len() {
                let Some(rec) = decode_record(&data, at) else {
                    break;
                };
                index.insert(
                    fnv1a64(rec.key_text.as_bytes()),
                    Loc {
                        pack: pack_idx,
                        offset: at,
                        kind: rec.kind,
                    },
                );
                at = rec.next;
            }
            if at < data.len() {
                // Torn tail: drop it on disk too (best effort — a
                // read-only store still serves the good prefix).
                let _ = io.truncate(&path, at as u64);
                data.truncate(at);
            }
            let from_dead_writer = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("pack-"))
                .and_then(|n| n.split('-').next())
                .and_then(|pid| pid.parse::<u32>().ok())
                .is_some_and(|pid| dead_pids.contains(&pid));
            if from_dead_writer && !sidecar_applied {
                // A crashed writer's pack without a current sidecar:
                // folded into the readable set like any pack, plus a
                // fresh sidecar below so future opens skip the scan.
                reclaimed += 1;
                reclaimed_packs.push(pack_idx);
            }
            packs.push(PackBuf { path, data });
        }
        let loaded = index.len();
        let store = PackStore {
            dir,
            io,
            retry,
            durability,
            counters: Arc::new(IoCounters::default()),
            inner: RwLock::new(Inner { packs, index }),
            writers: std::array::from_fn(|_| Mutex::new(None)),
            loaded,
            reclaimed,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            write_degraded: AtomicBool::new(false),
            dirty: AtomicU64::new(0),
        };
        if !reclaimed_packs.is_empty() {
            store.write_indexes_for(&reclaimed_packs);
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Decided records loaded at open — the cells a resumed campaign
    /// will not re-simulate.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Live decided records right now (loaded plus appended).
    pub fn len(&self) -> usize {
        self.inner.read().expect("store lock").index.len()
    }

    /// `true` when the store holds no decided record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a fingerprint up and decodes its record, verifying the key
    /// text. `Ok(None)` = absent; `Err(())` = present but rejected on
    /// integrity grounds.
    #[allow(clippy::result_unit_err)]
    fn lookup(&self, key: &TrialKey) -> Result<Option<CellOutcome>, ()> {
        let inner = self.inner.read().expect("store lock");
        let Some(loc) = inner.index.get(&key.fingerprint()) else {
            return Ok(None);
        };
        let data = &inner.packs[loc.pack].data;
        let Some(rec) = decode_record(data, loc.offset) else {
            return Err(());
        };
        if rec.key_text != key.text() {
            // Fingerprint collision or poisoned pack: never serve it.
            return Err(());
        }
        match rec.kind {
            KIND_DONE => match decode_summary(rec.payload) {
                Some(s) => Ok(Some(CellOutcome::Done(s))),
                None => Err(()),
            },
            _ => match decode_failure(rec.payload) {
                Some(f) => Ok(Some(CellOutcome::Quarantined(f))),
                None => Err(()),
            },
        }
    }

    /// The outcome already decided for `key` — `done` or `quarantined`
    /// — if any. The resume path of fault campaigns.
    pub fn decided(&self, key: &TrialKey) -> Option<CellOutcome> {
        match self.lookup(key) {
            Ok(Some(outcome)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(outcome)
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(()) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Checkpoints a cleanly decided cell.
    ///
    /// # Errors
    ///
    /// Returns the IO error when the record cannot be appended; durable
    /// state is only claimed on success.
    pub fn record_done(&self, key: &TrialKey, summary: &TrialSummary) -> std::io::Result<()> {
        self.append(KIND_DONE, key, &encode_summary(summary))
    }

    /// Checkpoints a quarantined cell.
    ///
    /// # Errors
    ///
    /// Same contract as [`record_done`](Self::record_done).
    pub fn record_quarantined(&self, key: &TrialKey, failure: &CellFailure) -> std::io::Result<()> {
        self.append(KIND_QUARANTINED, key, &encode_failure(failure))
    }

    fn probe_one(&self, key: &TrialKey) -> Option<TrialSummary> {
        match self.lookup(key) {
            Ok(Some(CellOutcome::Done(s))) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            Ok(_) => {
                // Absent, or decided-but-quarantined (not a summary).
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(()) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Picks this thread's writer slot. Thread-to-slot assignment is
    /// sticky (hash of the thread id), so a worker keeps appending to
    /// the same pack and records stay clustered per worker.
    fn slot(&self) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() as usize) % WRITER_SLOTS
    }

    /// Appends one record through this thread's writer slot, mirroring
    /// the bytes into the in-memory pack so probes see the new cell
    /// immediately. On IO failure flips into write-degraded mode (one
    /// warning) and reports the error.
    fn append(&self, kind: u8, key: &TrialKey, payload: &[u8]) -> std::io::Result<()> {
        if self.write_degraded.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("store is write-degraded"));
        }
        let record = encode_record(kind, key.text(), payload);
        let slot = self.slot();
        let mut guard = self.writers[slot].lock().expect("writer lock");
        let result = (|| -> std::io::Result<()> {
            if guard.is_none() {
                *guard = Some(self.open_writer(slot)?);
            }
            let writer = guard.as_mut().expect("writer just ensured");
            // Raw write loop: absorb short writes; retry transient
            // errors with bounded deterministic backoff. Any persistent
            // failure rolls the pack back to the record boundary below,
            // so a half-written record never precedes a good one.
            let mut written = 0usize;
            let mut retries_left = self.retry.attempts.saturating_sub(1);
            let mut retry_no = 0u32;
            let write_ok = loop {
                if written == record.len() {
                    break true;
                }
                match writer.file.write(&record[written..]) {
                    Ok(0) => break false,
                    Ok(n) => written += n,
                    Err(e) if RetryPolicy::is_transient(&e) && retries_left > 0 => {
                        retries_left -= 1;
                        self.counters.note_retry();
                        std::thread::sleep(self.retry.backoff(retry_no));
                        retry_no += 1;
                    }
                    Err(_) => break false,
                }
            };
            let flush_ok = write_ok && writer.file.flush().is_ok();
            let sync_ok = if flush_ok && self.durability == Durability::Record {
                let ok = writer.file.sync_all().is_ok();
                if !ok {
                    self.counters.note_sync_failure();
                }
                ok
            } else {
                flush_ok
            };
            if !sync_ok {
                // Roll the pack file back to the last good record so
                // the on-disk prefix stays clean. If even the truncate
                // fails, abandon this writer: the next append opens a
                // fresh pack and the torn tail is dropped at next open.
                let len = writer.len as u64;
                let path = {
                    let inner = self.inner.read().expect("store lock");
                    inner.packs[writer.pack].path.clone()
                };
                if self.io.truncate(&path, len).is_err() {
                    *guard = None;
                }
                return Err(std::io::Error::other("store append failed"));
            }
            let offset = writer.len;
            writer.len += record.len();
            if self.durability == Durability::Batch {
                self.dirty.fetch_add(1, Ordering::Relaxed);
            }
            let mut inner = self.inner.write().expect("store lock");
            let pack = writer.pack;
            inner.packs[pack].data.extend_from_slice(&record);
            inner
                .index
                .insert(key.fingerprint(), Loc { pack, offset, kind });
            Ok(())
        })();
        match &result {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.counters.note_degraded();
                if !self.write_degraded.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: sweep store at {} rejected a write ({e}); \
                         continuing without storing new results",
                        self.dir.display()
                    );
                }
            }
        }
        result
    }

    /// Acquires an advisory writer lease, then creates that lease
    /// slot's pack file (`O_EXCL`, bumping a counter until the name is
    /// free) and registers its in-memory mirror. The lease's `flock`
    /// makes two processes sharing the directory claim disjoint slots;
    /// it drops with the file handle on any process exit, so a crashed
    /// writer's slot is immediately reclaimable.
    fn open_writer(&self, slot: usize) -> std::io::Result<Writer> {
        let lease = acquire_lease(&self.dir, slot)?;
        if lease.took_over {
            eprintln!(
                "note: sweep store at {} took over stale writer lease {} (epoch {})",
                self.dir.display(),
                lease.slot,
                lease.epoch
            );
        }
        let pid = std::process::id();
        let mut n = 0usize;
        let (path, file) = loop {
            let path = self.dir.join(format!("pack-{pid}-{}-{n}.hpk", lease.slot));
            match self.io.create_new(&path) {
                Ok(f) => break (path, f),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => n += 1,
                Err(e) => return Err(e),
            }
        };
        let mut file = file;
        if let Err(e) = self
            .retry
            .run(&self.counters, || file.write_all(&PACK_MAGIC))
        {
            // A pack that never got its full header is useless and
            // would read as corruption; unlink it rather than leave
            // a headerless stub for scrub to quarantine.
            drop(file);
            let _ = self.io.remove_file(&path);
            return Err(e);
        }
        let mut inner = self.inner.write().expect("store lock");
        let pack = inner.packs.len();
        inner.packs.push(PackBuf {
            path,
            data: PACK_MAGIC.to_vec(),
        });
        Ok(Writer {
            file,
            _lease: lease,
            pack,
            len: PACK_MAGIC.len(),
        })
    }

    /// Writes (or refreshes) every pack's sidecar index so the next
    /// open skips the full scan. Best-effort: sidecars are pure
    /// acceleration, so failures are ignored.
    pub fn write_indexes(&self) {
        let all: Vec<usize> = {
            let inner = self.inner.read().expect("store lock");
            (0..inner.packs.len()).collect()
        };
        self.write_indexes_for(&all);
    }

    /// [`write_indexes`](Self::write_indexes) restricted to the given
    /// pack indices (used by open to refresh only reclaimed packs).
    /// Sidecars are written crash-consistently: tmp file, sync (unless
    /// durability is `None`), then rename over the live name.
    fn write_indexes_for(&self, packs: &[usize]) {
        let inner = self.inner.read().expect("store lock");
        for &pi in packs {
            let Some(pack) = inner.packs.get(pi) else {
                continue;
            };
            let entries: Vec<IdxEntry> = inner
                .index
                .iter()
                .filter(|(_, loc)| loc.pack == pi)
                .map(|(&fingerprint, loc)| IdxEntry {
                    fingerprint,
                    offset: loc.offset,
                    kind: loc.kind,
                })
                .collect();
            let bytes = encode_index(pack.data.len(), &entries);
            let tmp = pack.path.with_extension("idx.tmp");
            let write_synced = (|| -> std::io::Result<()> {
                let mut f = self.io.create(&tmp)?;
                f.write_all(&bytes)?;
                f.flush()?;
                if self.durability != Durability::None {
                    f.sync_all()?;
                }
                Ok(())
            })();
            if write_synced
                .and_then(|()| self.io.rename(&tmp, &idx_path_for(&pack.path)))
                .is_err()
            {
                let _ = self.io.remove_file(&tmp);
            }
        }
    }

    /// Summarizes the store rooted at `dir` without holding it open.
    ///
    /// # Errors
    ///
    /// Returns the IO error when the directory cannot be opened, and
    /// [`NotFound`](std::io::ErrorKind::NotFound) when it does not exist.
    pub fn stat(dir: impl Into<PathBuf>) -> std::io::Result<StoreStat> {
        let store = PackStore::open_existing(dir)?;
        let inner = store.inner.read().expect("store lock");
        let done = inner
            .index
            .values()
            .filter(|loc| loc.kind == KIND_DONE)
            .count();
        let mut on_disk = 0usize;
        for pack in &inner.packs {
            let mut at = PACK_MAGIC.len();
            while let Some(rec) = decode_record(&pack.data, at) {
                on_disk += 1;
                at = rec.next;
            }
        }
        Ok(StoreStat {
            packs: inner.packs.len(),
            records: inner.index.len(),
            done,
            quarantined: inner.index.len() - done,
            superseded: on_disk - inner.index.len(),
            bytes: inner.packs.iter().map(|p| p.data.len() as u64).sum(),
            reclaimed: store.reclaimed,
        })
    }

    /// Every live decided record — `(key text, outcome)` — sorted by
    /// key text so reports are deterministic regardless of pack layout.
    /// Undecodable records (which `probe`/`decided` would reject on
    /// integrity grounds) are skipped.
    pub fn decided_entries(&self) -> Vec<(String, CellOutcome)> {
        let inner = self.inner.read().expect("store lock");
        let mut out: Vec<(String, CellOutcome)> = inner
            .index
            .values()
            .filter_map(|loc| {
                let rec = decode_record(&inner.packs[loc.pack].data, loc.offset)?;
                let outcome = match rec.kind {
                    KIND_DONE => CellOutcome::Done(decode_summary(rec.payload)?),
                    _ => CellOutcome::Quarantined(decode_failure(rec.payload)?),
                };
                Some((rec.key_text.to_owned(), outcome))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Offline compaction: merges every pack into one, keeping only the
    /// latest record per key, writes a fresh sidecar, and removes the
    /// superseded packs. Refuses to run while any process holds a
    /// writer lease on the directory — concurrent writers would race
    /// the removal. The merge is crash-consistent: pack and sidecar
    /// are written to tmp names, synced, renamed into place, and only
    /// then are the superseded packs unlinked, so a crash at any point
    /// leaves either the old store or the new one, never neither.
    ///
    /// # Errors
    ///
    /// Returns the IO error when the merged pack cannot be written; the
    /// original packs are only removed after the merge landed. A `dir`
    /// that does not exist is [`NotFound`](std::io::ErrorKind::NotFound).
    pub fn compact(dir: impl Into<PathBuf>) -> std::io::Result<CompactStats> {
        let dir = dir.into();
        let holders = live_lease_holders(&dir);
        if !holders.is_empty() {
            return Err(std::io::Error::other(format!(
                "store has live writers (pids {holders:?}); compact between campaigns"
            )));
        }
        let store = PackStore::open_existing(&dir)?;
        let inner = store.inner.read().expect("store lock");
        let bytes_before: u64 = inner.packs.iter().map(|p| p.data.len() as u64).sum();
        let mut records_before = 0usize;
        for pack in &inner.packs {
            let mut at = PACK_MAGIC.len();
            while let Some(rec) = decode_record(&pack.data, at) {
                records_before += 1;
                at = rec.next;
            }
        }
        // Deterministic output order: by (pack, offset) of the live
        // record, i.e. survivor records keep their relative order.
        let mut live: Vec<&Loc> = inner.index.values().collect();
        live.sort_by_key(|loc| (loc.pack, loc.offset));

        let mut merged = PACK_MAGIC.to_vec();
        let mut entries = Vec::with_capacity(live.len());
        for loc in &live {
            let data = &inner.packs[loc.pack].data;
            let rec = decode_record(data, loc.offset).expect("indexed record decodes");
            let offset = merged.len();
            merged.extend_from_slice(&data[loc.offset..rec.next]);
            entries.push(IdxEntry {
                fingerprint: fnv1a64(rec.key_text.as_bytes()),
                offset,
                kind: rec.kind,
            });
        }
        let merged_path = dir.join(format!("pack-{}-merged-0.hpk", std::process::id()));
        let idx = encode_index(merged.len(), &entries);
        write_synced_then_rename(store.io.as_ref(), &merged_path, &merged)?;
        write_synced_then_rename(store.io.as_ref(), &idx_path_for(&merged_path), &idx)?;
        for pack in &inner.packs {
            if pack.path != merged_path {
                let _ = store.io.remove_file(&pack.path);
                let _ = store.io.remove_file(&idx_path_for(&pack.path));
            }
        }
        Ok(CompactStats {
            packs_before: inner.packs.len(),
            records_before,
            records_after: entries.len(),
            bytes_before,
            bytes_after: merged.len() as u64,
        })
    }

    /// Scrub-and-repair: verifies every record checksum across every
    /// pack by raw byte scan (ignoring sidecars, which are themselves
    /// verified against the scan), quarantines corrupt byte spans into
    /// a `scrub-quarantine/` pack, and rewrites a clean store
    /// crash-consistently. Refuses to run while any process holds a
    /// writer lease.
    ///
    /// Because decided keys live in record bodies, the cells lost to a
    /// corrupt span simply disappear from the decided set — the next
    /// warm campaign re-simulates exactly those cells.
    ///
    /// # Errors
    ///
    /// Returns the IO error when the store cannot be opened or the
    /// clean rewrite cannot land (the original packs are untouched in
    /// that case).
    pub fn scrub(dir: impl Into<PathBuf>) -> std::io::Result<ScrubStats> {
        Self::scrub_with(dir, RealIo::shared())
    }

    /// [`scrub`](Self::scrub) with an explicit I/O backend (fault
    /// injection in tests).
    ///
    /// # Errors
    ///
    /// Same contract as [`scrub`](Self::scrub).
    pub fn scrub_with(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
    ) -> std::io::Result<ScrubStats> {
        let dir = dir.into();
        let holders = live_lease_holders(&dir);
        if !holders.is_empty() {
            return Err(std::io::Error::other(format!(
                "store has live writers (pids {holders:?}); scrub between campaigns"
            )));
        }
        let mut pack_paths: Vec<PathBuf> = io
            .read_dir(&dir)?
            .into_iter()
            .filter(|p| p.extension().is_some_and(|x| x == "hpk"))
            .collect();
        pack_paths.sort();

        let mut stats = ScrubStats::default();
        // Last-wins per fingerprint in (pack, offset) scan order, same
        // discipline as open. A surviving record is (key fingerprint →
        // raw bytes); corrupt spans accumulate for quarantine.
        let mut live: HashMap<u64, (usize, Vec<u8>)> = HashMap::new();
        let mut order = 0usize;
        let mut quarantine: Vec<u8> = Vec::new();
        for path in &pack_paths {
            let Ok(data) = io.read(path) else { continue };
            stats.packs += 1;
            stats.bytes_before += data.len() as u64;
            if data.len() < PACK_MAGIC.len() || data[..PACK_MAGIC.len()] != PACK_MAGIC {
                stats.sidecars_bad += usize::from(io.exists(&idx_path_for(path)));
                stats.corrupt_spans += 1;
                stats.corrupt_bytes += data.len() as u64;
                quarantine.extend_from_slice(&data);
                continue;
            }
            // Sidecar health: a sidecar that does not decode against
            // this pack (or points past its end) is counted bad; all
            // sidecars are rewritten from scratch below either way.
            let idx_path = idx_path_for(path);
            if io.exists(&idx_path) {
                let ok = io
                    .read(&idx_path)
                    .ok()
                    .and_then(|idx| decode_index(&idx, data.len()))
                    .is_some();
                if !ok {
                    stats.sidecars_bad += 1;
                }
            }
            let mut at = PACK_MAGIC.len();
            let mut bad_from: Option<usize> = None;
            while at < data.len() {
                if let Some(rec) = decode_record(&data, at) {
                    if let Some(start) = bad_from.take() {
                        stats.corrupt_spans += 1;
                        stats.corrupt_bytes += (at - start) as u64;
                        quarantine.extend_from_slice(&data[start..at]);
                    }
                    stats.records_scanned += 1;
                    let fp = fnv1a64(rec.key_text.as_bytes());
                    live.insert(fp, (order, data[at..rec.next].to_vec()));
                    order += 1;
                    at = rec.next;
                } else {
                    // Corrupt or torn: resync byte-by-byte until a
                    // record decodes again (or the pack ends).
                    if bad_from.is_none() {
                        bad_from = Some(at);
                    }
                    at += 1;
                }
            }
            if let Some(start) = bad_from.take() {
                stats.corrupt_spans += 1;
                stats.corrupt_bytes += (data.len() - start) as u64;
                quarantine.extend_from_slice(&data[start..]);
            }
        }
        stats.records_kept = live.len();

        // Quarantined bytes land first — losing data silently is the
        // one thing a scrub must never do.
        if !quarantine.is_empty() {
            let qdir = dir.join("scrub-quarantine");
            io.create_dir_all(&qdir)?;
            let mut n = 0usize;
            let qpath = loop {
                let p = qdir.join(format!("quarantine-{n}.bin"));
                if !io.exists(&p) {
                    break p;
                }
                n += 1;
            };
            let mut f = io.create_new(&qpath)?;
            f.write_all(&quarantine)?;
            f.flush()?;
            f.sync_all()?;
        }

        // Clean rewrite: one merged pack + sidecar, tmp → sync →
        // rename, then unlink the old packs.
        let mut survivors: Vec<&(usize, Vec<u8>)> = live.values().collect();
        survivors.sort_by_key(|(ord, _)| *ord);
        let mut merged = PACK_MAGIC.to_vec();
        let mut entries = Vec::with_capacity(survivors.len());
        for (_, bytes) in survivors {
            let offset = merged.len();
            merged.extend_from_slice(bytes);
            let rec = decode_record(&merged, offset).expect("survivor record decodes");
            entries.push(IdxEntry {
                fingerprint: fnv1a64(rec.key_text.as_bytes()),
                offset,
                kind: rec.kind,
            });
        }
        let merged_path = dir.join(format!("pack-{}-scrubbed-0.hpk", std::process::id()));
        let idx = encode_index(merged.len(), &entries);
        write_synced_then_rename(io.as_ref(), &merged_path, &merged)?;
        write_synced_then_rename(io.as_ref(), &idx_path_for(&merged_path), &idx)?;
        for path in &pack_paths {
            if *path != merged_path {
                let _ = io.remove_file(path);
                let _ = io.remove_file(&idx_path_for(path));
            }
        }
        stats.bytes_after = merged.len() as u64;
        Ok(stats)
    }

    /// Durability barrier: when running at [`Durability::Batch`],
    /// syncs every writer that appended since the last barrier. A
    /// sync failure is counted (`store.sync_failures`) but does not
    /// degrade the store — the bytes are still queued with the kernel.
    pub fn barrier(&self) {
        if self.durability != Durability::Batch {
            return;
        }
        if self.dirty.swap(0, Ordering::Relaxed) == 0 {
            return;
        }
        for slot in &self.writers {
            let mut guard = slot.lock().expect("writer lock");
            if let Some(writer) = guard.as_mut() {
                if writer.file.sync_all().is_err() {
                    self.counters.note_sync_failure();
                }
            }
        }
    }

    /// Lifetime hit/miss accounting.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of this store's recovery accounting (retries taken,
    /// degradations, sync failures).
    pub fn io_health(&self) -> IoHealth {
        self.counters.snapshot()
    }

    /// Clears a sticky write degradation so the next campaign re-probes
    /// the directory instead of staying read-only for process lifetime.
    pub fn reprobe(&self) {
        self.write_degraded.store(false, Ordering::Relaxed);
    }
}

/// Crash-consistent publish of `bytes` at `path`: write `path.tmp`,
/// flush + `sync_all`, then rename over the live name.
fn write_synced_then_rename(io: &dyn StoreIo, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = io.create(&tmp)?;
    f.write_all(bytes)?;
    f.flush()?;
    f.sync_all()?;
    drop(f);
    io.rename(&tmp, path)
}

impl TrialStore for PackStore {
    fn probe(&self, key: &TrialKey) -> Option<TrialSummary> {
        self.probe_one(key)
    }

    fn probe_many(&self, keys: &[TrialKey]) -> Vec<Option<TrialSummary>> {
        // One read-lock acquisition for the whole grid; counters are
        // batched so the atomics are touched once per grid, not per
        // cell.
        let mut out = Vec::with_capacity(keys.len());
        let (mut hits, mut misses, mut rejects) = (0u64, 0u64, 0u64);
        {
            let inner = self.inner.read().expect("store lock");
            for key in keys {
                let mut resolved = None;
                match inner.index.get(&key.fingerprint()) {
                    None => misses += 1,
                    Some(loc) => {
                        let servable = decode_record(&inner.packs[loc.pack].data, loc.offset)
                            .filter(|rec| rec.key_text == key.text());
                        match servable {
                            Some(rec) if rec.kind == KIND_DONE => match decode_summary(rec.payload)
                            {
                                Some(s) => {
                                    hits += 1;
                                    resolved = Some(s);
                                }
                                None => {
                                    rejects += 1;
                                    misses += 1;
                                }
                            },
                            Some(_) => {
                                // Quarantined: decided, but not a
                                // summary — a plain miss for the cache
                                // surface.
                                misses += 1;
                            }
                            None => {
                                // Undecodable record or foreign key
                                // behind a collision: integrity reject.
                                rejects += 1;
                                misses += 1;
                            }
                        }
                    }
                }
                out.push(resolved);
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.rejects.fetch_add(rejects, Ordering::Relaxed);
        out
    }

    fn store(&self, key: &TrialKey, summary: &TrialSummary) {
        let _ = self.record_done(key, summary);
    }

    fn barrier(&self) {
        PackStore::barrier(self);
    }
}

impl Drop for PackStore {
    fn drop(&mut self) {
        // A clean close syncs any batched appends and leaves fresh
        // sidecars so the next open skips the full scan. Best-effort
        // by design.
        self.barrier();
        if self.stores.load(Ordering::Relaxed) > 0 && !self.write_degraded.load(Ordering::Relaxed) {
            self.write_indexes();
        }
    }
}

/// The store directory [`SWEEP_STORE_ENV`] selects, if any.
pub fn store_dir_from_env() -> Option<PathBuf> {
    let raw = std::env::var(SWEEP_STORE_ENV).ok()?;
    match raw.trim() {
        "" | "0" => None,
        "1" => Some(PathBuf::from(DEFAULT_STORE_DIR)),
        dir => Some(PathBuf::from(dir)),
    }
}

/// Opens the store at `dir`, degrading an unopenable directory to
/// `None`: a warning on stderr, then the sweep runs unstored — a sweep
/// must not fail because its environment-selected store is unavailable.
/// The warning fires on each healthy→failing *transition* (not once per
/// process), so a campaign after the directory is fixed re-probes and a
/// later regression warns again.
pub fn open_or_warn(dir: &Path, durability: Durability) -> Option<PackStore> {
    // Tracks whether the last open attempt failed, so the warning
    // fires on transitions instead of once-ever.
    static FAILING: AtomicBool = AtomicBool::new(false);
    match PackStore::open_with(dir, RealIo::shared(), RetryPolicy::default(), durability) {
        Ok(store) => {
            if FAILING.swap(false, Ordering::Relaxed) {
                eprintln!(
                    "note: sweep store at {} is reachable again; storing resumed",
                    dir.display()
                );
            }
            Some(store)
        }
        Err(e) => {
            if !FAILING.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: cannot open sweep store at {} ({e}); running uncached",
                    dir.display()
                );
            }
            None
        }
    }
}

/// The store the environment selects ([`SWEEP_STORE_ENV`]), opened at
/// the default durability through [`open_or_warn`]. `None` when the
/// variable is unset or disabled, or the directory cannot be opened.
///
/// The figure binaries call this once per process and run every driver
/// against the result (see [`CliArgs::plan`](crate::cli::CliArgs::plan)),
/// so one run appends through at most [`WRITER_SLOTS`] packs.
pub fn store_from_env() -> Option<PackStore> {
    open_or_warn(&store_dir_from_env()?, Durability::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PaperScenario, PolicyKind};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "harvest-pack-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(seed: u64) -> TrialKey {
        TrialKey::new(&PaperScenario::new(0.4, 500.0), PolicyKind::EaDvfs, seed)
    }

    fn summary(missed: u64) -> TrialSummary {
        TrialSummary {
            released: 40,
            completed_in_time: 40 - missed,
            missed,
            sample_level_bits: vec![1.0f64.to_bits(), 0.25f64.to_bits()],
        }
    }

    fn failure() -> CellFailure {
        CellFailure {
            message: "injected panic".to_owned(),
            panicked: true,
            worker: 3,
            flight: None,
        }
    }

    #[test]
    fn payload_codecs_round_trip() {
        let s = summary(7);
        assert_eq!(decode_summary(&encode_summary(&s)), Some(s));
        let empty = TrialSummary {
            sample_level_bits: Vec::new(),
            ..summary(0)
        };
        assert_eq!(decode_summary(&encode_summary(&empty)), Some(empty));
        let f = failure();
        assert_eq!(decode_failure(&encode_failure(&f)), Some(f));
        assert_eq!(decode_summary(b"short"), None);
        assert_eq!(decode_failure(b"short"), None);

        // A flight-dump path rides along and round-trips...
        let with_flight = CellFailure {
            flight: Some("target/flight/00ab.flight.jsonl".to_owned()),
            ..failure()
        };
        assert_eq!(
            decode_failure(&encode_failure(&with_flight)),
            Some(with_flight.clone())
        );
        // ...while flight-less failures keep the pre-telemetry byte
        // layout, so packs written before the field existed (or without
        // flight recording) decode unchanged.
        let flightless = encode_failure(&failure());
        assert_eq!(flightless.len(), 9 + failure().message.len());
        let truncated = &encode_failure(&with_flight)[..flightless.len()];
        assert_eq!(truncated, &flightless[..]);
    }

    #[test]
    fn round_trip_and_reopen_preserve_bits() {
        let dir = scratch_dir("roundtrip");
        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.probe(&key(1)), None);
        store.store(&key(1), &summary(1));
        assert_eq!(store.probe(&key(1)), Some(summary(1)));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        drop(store);

        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.loaded(), 1);
        assert_eq!(store.probe(&key(1)), Some(summary(1)));
        assert_eq!(
            store.probe(&key(1)).unwrap().normalized_sample_values(2.0),
            vec![0.5, 0.125]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_many_matches_per_key_probes() {
        let dir = scratch_dir("batch");
        let store = PackStore::open(&dir).unwrap();
        for seed in 0..16u64 {
            if seed % 3 != 0 {
                store.store(&key(seed), &summary(seed));
            }
        }
        let keys: Vec<TrialKey> = (0..16).map(key).collect();
        let batch = store.probe_many(&keys);
        for (seed, got) in batch.iter().enumerate() {
            let expect = (seed % 3 != 0).then(|| summary(seed as u64));
            assert_eq!(*got, expect, "seed {seed}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decided_records_serve_sweeps_and_campaigns() {
        let dir = scratch_dir("decided");
        let store = PackStore::open(&dir).unwrap();
        store.record_done(&key(1), &summary(0)).unwrap();
        store.record_quarantined(&key(2), &failure()).unwrap();
        assert_eq!(store.decided(&key(1)), Some(CellOutcome::Done(summary(0))));
        assert_eq!(
            store.decided(&key(2)),
            Some(CellOutcome::Quarantined(failure()))
        );
        assert_eq!(store.decided(&key(3)), None);
        // The cache surface must not serve a quarantined cell as data.
        assert_eq!(store.probe(&key(2)), None);
        // Reporting sees every live record, sorted by key text.
        let entries = store.decided_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(entries
            .iter()
            .any(|(k, o)| k == key(2).text() && matches!(o, CellOutcome::Quarantined(_))));
        drop(store);

        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.loaded(), 2);
        assert_eq!(
            store.decided(&key(2)),
            Some(CellOutcome::Quarantined(failure())),
            "quarantined cells stay decided on resume"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_write_wins_on_duplicate_keys() {
        let dir = scratch_dir("dup");
        let store = PackStore::open(&dir).unwrap();
        store.record_quarantined(&key(1), &failure()).unwrap();
        store.record_done(&key(1), &summary(4)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.decided(&key(1)), Some(CellOutcome::Done(summary(4))));
        drop(store);
        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.decided(&key(1)), Some(CellOutcome::Done(summary(4))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_pack_tail_is_truncated_and_recomputes() {
        let dir = scratch_dir("torn");
        let store = PackStore::open(&dir).unwrap();
        store.store(&key(1), &summary(1));
        store.store(&key(2), &summary(2));
        drop(store);
        // Exactly one pack (one writer thread); tear its tail and also
        // remove the sidecar so open must re-derive by scanning.
        let pack = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "hpk"))
            .unwrap();
        let _ = std::fs::remove_file(idx_path_for(&pack));
        let full = std::fs::read(&pack).unwrap();
        std::fs::write(&pack, &full[..full.len() - 11]).unwrap();

        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.probe(&key(1)), Some(summary(1)), "good prefix kept");
        assert_eq!(store.probe(&key(2)), None, "torn cell recomputes");
        // Both records encode the same-length key and payload, so the
        // surviving prefix is the header plus exactly one record.
        let record_len = (full.len() - PACK_MAGIC.len()) / 2;
        assert_eq!(
            std::fs::metadata(&pack).unwrap().len() as usize,
            PACK_MAGIC.len() + record_len,
            "the torn tail is truncated away on disk"
        );
        // The torn bytes are gone on disk: a new record appends cleanly.
        store.store(&key(2), &summary(2));
        drop(store);
        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.probe(&key(2)), Some(summary(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_record_is_rejected_not_served() {
        let dir = scratch_dir("poison");
        let store = PackStore::open(&dir).unwrap();
        // A record whose checksum is valid but whose key text differs
        // (fingerprint collision / deliberate poisoning) must never be
        // served for our key. Stage it by writing a foreign record and
        // pointing the index at it through a crafted sidecar.
        let foreign = key(99);
        store.store(&foreign, &summary(9));
        drop(store);
        let pack = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "hpk"))
            .unwrap();
        let entries = [
            IdxEntry {
                fingerprint: foreign.fingerprint(),
                offset: PACK_MAGIC.len(),
                kind: KIND_DONE,
            },
            IdxEntry {
                fingerprint: key(1).fingerprint(),
                offset: PACK_MAGIC.len(),
                kind: KIND_DONE,
            },
        ];
        let covered = std::fs::metadata(&pack).unwrap().len() as usize;
        std::fs::write(idx_path_for(&pack), encode_index(covered, &entries)).unwrap();

        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.probe(&key(1)), None, "foreign key must be rejected");
        assert!(store.stats().rejects >= 1);
        assert_eq!(store.probe(&foreign), Some(summary(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_stale_sidecar_falls_back_to_full_scan() {
        let dir = scratch_dir("sidecar");
        let store = PackStore::open(&dir).unwrap();
        for seed in 0..8 {
            store.store(&key(seed), &summary(seed));
        }
        drop(store); // writes sidecars
        let pack = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "hpk"))
            .unwrap();
        let idx = idx_path_for(&pack);
        let good = std::fs::read(&idx).unwrap();

        // Truncated sidecar: ignored, full scan still finds all cells.
        std::fs::write(&idx, &good[..good.len() / 2]).unwrap();
        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.loaded(), 8);
        drop(store);

        // Bit-flipped sidecar: checksum rejects it, full scan recovers.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        std::fs::write(&idx, &bad).unwrap();
        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.loaded(), 8);
        for seed in 0..8 {
            assert_eq!(store.probe(&key(seed)), Some(summary(seed)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_writes_degrade_without_failing_the_run() {
        let dir = scratch_dir("write-degraded");
        let store = PackStore::open(&dir).unwrap();
        store.store(&key(1), &summary(1));
        // Yank the directory: new writer slots cannot be created. Use a
        // fresh store so no writer fd is already open.
        drop(store);
        let store = PackStore::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        store.store(&key(2), &summary(2));
        store.store(&key(3), &summary(3));
        assert!(
            store.record_done(&key(4), &summary(4)).is_err(),
            "decided-record appends report the failure"
        );
        // Previously loaded cells still serve.
        assert_eq!(store.probe(&key(1)), Some(summary(1)));
    }

    #[test]
    fn compact_merges_packs_and_drops_superseded_records() {
        let dir = scratch_dir("compact");
        let store = PackStore::open(&dir).unwrap();
        for seed in 0..6 {
            store.store(&key(seed), &summary(seed));
        }
        // Supersede two cells.
        store.store(&key(0), &summary(5));
        store.record_quarantined(&key(1), &failure()).unwrap();
        drop(store);

        let pre = PackStore::stat(&dir).unwrap();
        assert_eq!((pre.records, pre.superseded), (6, 2));

        let stats = PackStore::compact(&dir).unwrap();
        assert_eq!(stats.records_before, 8);
        assert_eq!(stats.records_after, 6);
        assert!(stats.bytes_after < stats.bytes_before);

        let stat = PackStore::stat(&dir).unwrap();
        assert_eq!(stat.packs, 1);
        assert_eq!(stat.records, 6);
        assert_eq!(stat.done, 5);
        assert_eq!(stat.quarantined, 1);
        assert_eq!(stat.superseded, 0, "compaction dropped the duplicates");

        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.probe(&key(0)), Some(summary(5)), "latest survives");
        assert_eq!(
            store.decided(&key(1)),
            Some(CellOutcome::Quarantined(failure()))
        );
        for seed in 2..6 {
            assert_eq!(store.probe(&key(seed)), Some(summary(seed)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_from_env_selects_and_degrades() {
        use crate::test_support::with_env;
        let dir = scratch_dir("env");
        let dir_str = dir.to_str().unwrap().to_owned();
        with_env(&[(SWEEP_STORE_ENV, None)], || {
            assert!(store_from_env().is_none())
        });
        with_env(&[(SWEEP_STORE_ENV, Some("0"))], || {
            assert!(store_from_env().is_none())
        });
        with_env(&[(SWEEP_STORE_ENV, Some(""))], || {
            assert!(store_from_env().is_none())
        });
        with_env(&[(SWEEP_STORE_ENV, Some("1"))], || {
            assert_eq!(store_dir_from_env(), Some(PathBuf::from(DEFAULT_STORE_DIR)))
        });
        with_env(&[(SWEEP_STORE_ENV, Some(dir_str.as_str()))], || {
            let store = store_from_env().expect("explicit dir enables the store");
            assert_eq!(store.dir(), dir.as_path());
        });
        // Unopenable store dir (a file standing where the dir must go —
        // root ignores permission bits): degrade, do not fail.
        let blocker = scratch_dir("env-blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let blocked = blocker.join("sub");
        let blocked_str = blocked.to_str().unwrap().to_owned();
        with_env(&[(SWEEP_STORE_ENV, Some(blocked_str.as_str()))], || {
            assert!(
                store_from_env().is_none(),
                "an unopenable store dir must disable storing, not fail"
            );
        });
        let _ = std::fs::remove_file(&blocker);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn fd_budget_is_constant_in_grid_size() {
        let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
        let dir = scratch_dir("fds");
        let store = PackStore::open(&dir).unwrap();
        store.store(&key(0), &summary(0));
        let baseline = open_fds();
        for seed in 1..512 {
            store.store(&key(seed), &summary(seed % 8));
        }
        let keys: Vec<TrialKey> = (0..512).map(key).collect();
        let hits = store.probe_many(&keys);
        assert!(hits.iter().all(|h| h.is_some()));
        // 511 more cells and 512 probes cost zero additional fds: the
        // store keeps at most one writer fd per slot, nothing per cell.
        assert!(
            open_fds() <= baseline + WRITER_SLOTS,
            "fd count grew with grid size: {} -> {}",
            baseline,
            open_fds()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
