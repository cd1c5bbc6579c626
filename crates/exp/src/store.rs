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
//! * Every reader of pack bytes — [`PackStore::open`],
//!   [`PackStore::stat`] and [`PackStore::compact`] — walks them with
//!   one frame scan and one rule: a frame that does not decode is
//!   skipped by resyncing to the next offset where one does. Only a bad
//!   span that runs to the end of the pack is a **torn tail** (a kill
//!   mid-append); open truncates it away. A bad span mid-pack (bit rot)
//!   stays on disk unindexed. Either way the lost cells miss and
//!   recompute.
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
//! Each store appends through one writer to one pack file,
//! `pack-<pid>-<n>.hpk`, created with `O_EXCL` at its first append, so
//! two processes sharing a directory never interleave bytes in one
//! file. An IO failure never fails the run: transient errors retry on
//! the store's deterministic [`RetryPolicy`] schedule; persistent errors
//! flip the store into write-degraded mode (one warning) and it keeps
//! answering probes.
//!
//! Durability and recovery:
//!
//! * Every filesystem touch goes through a [`StoreIo`] backend, so the
//!   whole recovery discipline is testable under the deterministic
//!   [`FaultyIo`](harvest_obs::io::FaultyIo) injector.
//! * A store directory has one **lock file**, `lock`. A writer holds a
//!   shared `flock` on it from before it creates its pack until it
//!   drops; the lock dies with its process, so a killed writer leaves
//!   nothing to clean up. [`PackStore::compact`] takes it exclusively
//!   and refuses to run while any writer holds it, and open and
//!   [`PackStore::stat`] cut a torn tail off on disk only when they can
//!   take it exclusively: with a writer live, that tail may be its
//!   record in flight.
//! * A [`Durability`] knob decides when `sync_all` barriers run:
//!   per-record, at batch boundaries (`PackStore::barrier`, the
//!   default), or never. Compaction and sidecar writes are
//!   crash-consistent (write → sync → rename → unlink).
//! * [`PackStore::stat`] counts corrupt spans; [`PackStore::compact`]
//!   repairs them: it moves each span's bytes into its own file under
//!   `scrub-quarantine/`, named for its pack and byte offset, and
//!   rewrites a clean store — the warm path then re-simulates exactly
//!   the lost cells.

use std::collections::HashMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use harvest_obs::io::{Durability, IoCounters, IoHealth, RealIo, RetryPolicy, StoreFile, StoreIo};

use crate::cache::{fnv1a64, fnv1a64_resume, fnv1a64_step, TrialKey, TrialSummary};
use crate::parallel::CellFailure;

/// Environment variable selecting the pack store (read by
/// [`store_dir_from_env`]): unset, empty, or `0` disables; `1` enables
/// at the default `target/sweep-store/`; any other value is used as the
/// store directory path.
pub const SWEEP_STORE_ENV: &str = "HARVEST_SWEEP_STORE";

/// Default store root used when [`SWEEP_STORE_ENV`] is `1`.
pub(crate) const DEFAULT_STORE_DIR: &str = "target/sweep-store";

/// Pack file magic + format version ("harvest pack, v1").
const PACK_MAGIC: [u8; 8] = *b"HPK1\x01\0\0\0";
/// Sidecar index magic + format version.
const IDX_MAGIC: [u8; 8] = *b"HPX1\x01\0\0\0";
/// Record kind: a cleanly decided cell carrying a [`TrialSummary`].
const KIND_DONE: u8 = 1;
/// Record kind: a quarantined cell carrying a [`CellFailure`].
const KIND_QUARANTINED: u8 = 2;

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
    /// Publishes the counters into `reg` under `prefix` (so
    /// `publish("store", ..)` yields `store.hits`, `store.misses`, ...),
    /// plus a `{prefix}.hit_rate` gauge when any lookup happened. Store
    /// accounting then renders alongside the engine's queue and pool
    /// metrics in one registry snapshot.
    pub fn publish(&self, prefix: &str, reg: &mut harvest_obs::MetricsRegistry) {
        reg.counter(&format!("{prefix}.hits"), self.hits);
        reg.counter(&format!("{prefix}.misses"), self.misses);
        reg.counter(&format!("{prefix}.rejects"), self.rejects);
        reg.counter(&format!("{prefix}.stores"), self.stores);
        let lookups = self.hits + self.misses;
        if lookups > 0 {
            reg.gauge(
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
// length-prefixed message, a bool byte, and a u32 worker index. Older
// writers followed a failure with a length-prefixed dump path; readers
// accept and skip it.

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
    // The dump-path tail older writers appended, if any: checked, then
    // dropped.
    let rest = &payload[9 + msg_len..];
    if !rest.is_empty() {
        let path_len = u32::from_le_bytes(rest.get(..4)?.try_into().unwrap()) as usize;
        if rest.len() != 4 + path_len {
            return None;
        }
        std::str::from_utf8(&rest[4..]).ok()?;
    }
    Some(CellFailure {
        message,
        panicked,
        worker,
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

/// Decodes the record starting at `offset`. `None` means no valid record
/// starts there: the frame is torn, truncated, or checksum-corrupt, and
/// [`scan_frames`] resyncs past it.
fn decode_record(data: &[u8], offset: usize) -> Option<RawRecord<'_>> {
    decode::<false>(data, offset).map(|(rec, _)| rec)
}

/// The frame starting at `offset`: its body, the checksum stored after
/// it and the offset one past that. `None` when the frame runs past
/// `data` or its body is too short for `kind · key_len`.
fn frame(data: &[u8], offset: usize) -> Option<(&[u8], u64, usize)> {
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
    let stored = u64::from_le_bytes(data[body_end..next].try_into().unwrap());
    Some((&data[len_end..body_end], stored, next))
}

/// [`decode_record`], plus the key's fingerprint when `KEYED` (else 0),
/// hashed in the same pass over the body as the checksum.
fn decode<const KEYED: bool>(data: &[u8], offset: usize) -> Option<(RawRecord<'_>, u64)> {
    let (body, stored, next) = frame(data, offset)?;
    let key_len = u32::from_le_bytes(body[1..5].try_into().unwrap()) as usize;
    if 5 + key_len > body.len() {
        return None;
    }
    let (sum, fingerprint) = if KEYED {
        fnv1a64_with_key(body, 5..5 + key_len)
    } else {
        (fnv1a64(body), 0)
    };
    if sum != stored {
        return None;
    }
    let kind = body[0];
    if kind != KIND_DONE && kind != KIND_QUARANTINED {
        return None;
    }
    let key_text = std::str::from_utf8(&body[5..5 + key_len]).ok()?;
    let rec = RawRecord {
        kind,
        key_text,
        payload: &body[5 + key_len..],
        next,
    };
    Some((rec, fingerprint))
}

/// `(fnv1a64(body), fnv1a64(&body[key]))` in one pass: the two hash
/// chains are independent, so the key's costs little beside the body's.
fn fnv1a64_with_key(body: &[u8], key: Range<usize>) -> (u64, u64) {
    let mut sum = fnv1a64(&body[..key.start]);
    let mut fingerprint = fnv1a64(&[]);
    for &b in &body[key.clone()] {
        sum = fnv1a64_step(sum, b);
        fingerprint = fnv1a64_step(fingerprint, b);
    }
    (fnv1a64_resume(sum, &body[key.end..]), fingerprint)
}

/// The record checksum's FNV-1a state over a body's head — `kind ·
/// key_len · scenario prefix` — for the last head a keyed read hashed,
/// keyed on those three values. The cells of one grid point share the
/// head, so a batch of reads hashes it once per scenario and kind.
type HeadSum<'k> = Option<([u8; 5], &'k str, u64)>;

/// The one check of a keyed read ([`PackStore::lookup`] and
/// `probe_many`): the record at `offset` serves `key` only when its frame
/// fits, its key bytes equal `key.text()`, its kind is known and its
/// checksum holds, exactly when [`decode_record`] returns it with
/// `key_text == key.text()`. Returns its kind and payload; `None` is an
/// integrity reject.
///
/// The checksum is the same FNV-1a over the same body bytes. The head's
/// state is hashed from the stored `kind · key_len` and the scenario
/// prefix of `key.text()`, and `heads` reuses it while all three equal
/// the last head's. The stored key was just compared equal to
/// `key.text()`, so that prefix is the stored one, and only the key's
/// suffix and the payload are hashed per record.
fn read_keyed<'a, 'k>(
    data: &'a [u8],
    offset: usize,
    key: &'k TrialKey,
    heads: &mut HeadSum<'k>,
) -> Option<(u8, &'a [u8])> {
    let (body, stored, _) = frame(data, offset)?;
    let text = key.text();
    let key_end = 5 + text.len();
    let key_len = u32::from_le_bytes(body[1..5].try_into().unwrap()) as usize;
    if key_len != text.len() || body.len() < key_end || body[5..key_end] != *text.as_bytes() {
        return None;
    }
    let kind = body[0];
    if kind != KIND_DONE && kind != KIND_QUARANTINED {
        return None;
    }
    let head: [u8; 5] = body[..5].try_into().unwrap();
    let prefix = &text[..key.prefix_len()];
    let state = match *heads {
        Some((last_head, last_prefix, state)) if last_head == head && last_prefix == prefix => {
            state
        }
        _ => {
            let state = fnv1a64_resume(fnv1a64(&head), prefix.as_bytes());
            *heads = Some((head, prefix, state));
            state
        }
    };
    let sum = fnv1a64_resume(state, &body[5 + prefix.len()..]);
    (sum == stored).then_some((kind, &body[key_end..]))
}

/// What [`scan_frames`] finds in a pack: a record that decodes, or a
/// maximal span of bytes where none does.
enum Frame<'a> {
    /// A valid record, the offset of its `body_len` field and its key's
    /// fingerprint.
    Record(usize, u64, RawRecord<'a>),
    /// Bytes in which no record starts. A span that ends at the end of
    /// the pack is a torn tail.
    Corrupt(Range<usize>),
}

/// The one loop over pack frames: hands `visit` every frame of
/// `data[from..]` in order. A frame that does not decode is skipped by
/// resyncing byte by byte to the next offset where one does, so the
/// resync costs something only when a frame is bad.
fn scan_frames<'a>(data: &'a [u8], from: usize, mut visit: impl FnMut(Frame<'a>)) {
    let mut at = from;
    let mut bad_from = None;
    while at < data.len() {
        match decode::<true>(data, at) {
            Some((rec, fingerprint)) => {
                if let Some(start) = bad_from.take() {
                    visit(Frame::Corrupt(start..at));
                }
                let next = rec.next;
                visit(Frame::Record(at, fingerprint, rec));
                at = next;
            }
            None => {
                bad_from.get_or_insert(at);
                at += 1;
            }
        }
    }
    if let Some(start) = bad_from {
        visit(Frame::Corrupt(start..data.len()));
    }
}

/// A map keyed by key fingerprints: the probe index, and the maps
/// [`PackStore::stat`] and [`PackStore::compact`] build over every frame.
type FingerprintMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<FingerprintHasher>>;

/// Fingerprints are FNV hashes already: rather than rehash one, fold its
/// high bits into the low ones the table indexes by.
#[derive(Default)]
struct FingerprintHasher(u64);

impl std::hash::Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64(bytes);
    }
    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint ^ (fingerprint >> 32);
    }
}

/// The pack files in `dir`, sorted: a deterministic load order makes
/// cross-pack last-wins stable.
fn pack_paths(io: &dyn StoreIo, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = io
        .read_dir(dir)?
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "hpk"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Creates the first of `name(0)`, `name(1)`, … that does not exist yet,
/// exclusively, so no existing file is ever overwritten.
fn create_numbered(
    io: &dyn StoreIo,
    name: impl Fn(usize) -> PathBuf,
) -> std::io::Result<(PathBuf, Box<dyn StoreFile>)> {
    let mut n = 0;
    loop {
        let path = name(n);
        match io.create_new(&path) {
            Ok(f) => return Ok((path, f)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => n += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Opens (creating) the store's lock file, `dir/lock`: writers hold it
/// shared, repairs and compaction exclusively. Like every `flock`, it is
/// released when the handle closes, and with it when its process dies.
fn open_lock(dir: &Path) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join("lock"))
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
    index: FingerprintMap<Loc>,
}

/// The packs of a store directory, read as every open reads them.
struct LoadedPacks {
    packs: Vec<PackBuf>,
    /// Packs skipped because their header is not [`PACK_MAGIC`].
    bad_headers: usize,
}

/// Reads every pack of `dir` into memory: a valid sidecar covers a
/// prefix, the rest is scanned frame by frame, a torn tail is cut off
/// and a pack with a bad header is skipped. The tail is cut on disk too
/// (best effort) only when no writer holds the store's lock: a live
/// writer's pack may end in its record in flight. `index` sees every
/// record a sidecar lists or the scan finds, in load order, so inserting
/// each into a map keeps the last write per key.
fn load_packs(
    io: &dyn StoreIo,
    dir: &Path,
    mut index: impl FnMut(u64, Loc),
) -> std::io::Result<LoadedPacks> {
    // The lock held exclusively until the packs are read, or `None` when
    // a writer holds it or the lock file cannot be opened (a read-only
    // directory, say).
    let repair = open_lock(dir).ok().filter(|lock| lock.try_lock().is_ok());
    let mut loaded = LoadedPacks {
        packs: Vec::new(),
        bad_headers: 0,
    };
    for path in pack_paths(io, dir)? {
        let Ok(mut data) = io.read(&path) else {
            continue;
        };
        if !data.starts_with(&PACK_MAGIC) {
            loaded.bad_headers += 1;
            continue;
        }
        let pack = loaded.packs.len();
        let mut scan_from = PACK_MAGIC.len();
        if let Some((covered, entries)) = io
            .read(&idx_path_for(&path))
            .ok()
            .and_then(|idx| decode_index(&idx, data.len()))
        {
            for e in entries {
                index(
                    e.fingerprint,
                    Loc {
                        pack,
                        offset: e.offset,
                        kind: e.kind,
                    },
                );
            }
            scan_from = covered;
        }
        // Index the bytes no sidecar covers (the whole pack when none
        // applied). A corrupt span mid-pack stays on disk, unindexed;
        // only a torn tail is cut off.
        let mut torn_at = None;
        let len = data.len();
        scan_frames(&data, scan_from, |frame| match frame {
            Frame::Record(offset, fingerprint, rec) => index(
                fingerprint,
                Loc {
                    pack,
                    offset,
                    kind: rec.kind,
                },
            ),
            Frame::Corrupt(span) if span.end == len => torn_at = Some(span.start),
            Frame::Corrupt(_) => {}
        });
        if let Some(at) = torn_at {
            // Best effort on disk: a read-only store still serves the
            // good prefix.
            if repair.is_some() {
                let _ = io.truncate(&path, at as u64);
            }
            data.truncate(at);
        }
        loaded.packs.push(PackBuf { path, data });
    }
    Ok(loaded)
}

/// A store's one appender: its pack file and the shared lock it holds
/// on the store's lock file until it drops.
struct Writer {
    file: Box<dyn StoreFile>,
    /// Shared `flock` on `dir/lock`, taken before the pack was created.
    _lock: std::fs::File,
    pack: usize,
    /// Current file length — the offset the next record lands at. The
    /// writer mutex makes this exact: only this writer appends here.
    len: usize,
}

/// The pack-file trial store (see the module docs).
///
/// Shared immutably across sweep workers: probes take a read lock on
/// the in-memory map, appends serialize on the one writer, and all
/// counters are atomic.
pub struct PackStore {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
    retry: RetryPolicy,
    durability: Durability,
    counters: Arc<IoCounters>,
    inner: RwLock<Inner>,
    writer: Mutex<Option<Writer>>,
    loaded: usize,
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

/// What [`PackStore::stat`] reports about a store directory. The record
/// counts come from one frame scan of the loaded packs.
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
    /// Total pack bytes read (after any torn-tail truncation).
    pub bytes: u64,
    /// Byte spans in which no record decodes: one per span mid-pack and
    /// one per pack whose header is bad (what a [`PackStore::compact`]
    /// run would quarantine).
    pub corrupt_spans: usize,
}

/// What [`PackStore::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactStats {
    /// Pack files merged away.
    pub packs_before: usize,
    /// Valid records across all input packs, superseded duplicates
    /// included.
    pub records_before: usize,
    /// Live records written to the merged pack.
    pub records_after: usize,
    /// Pack bytes before compaction.
    pub bytes_before: u64,
    /// Pack bytes after compaction.
    pub bytes_after: u64,
    /// Corrupt byte spans quarantined: each is a torn, bit-flipped or
    /// truncated region between two valid records, a torn tail, or a
    /// whole pack with a bad header.
    pub corrupt_spans: usize,
    /// Bytes moved into `scrub-quarantine/`.
    pub corrupt_bytes: u64,
}

impl PackStore {
    /// Opens (and creates) a store rooted at `dir`, loading every pack
    /// into memory. Valid sidecar indexes skip scanning the prefix they
    /// cover; the rest is indexed frame by frame, skipping any frame
    /// that does not decode (its cell recomputes). Torn tails are cut
    /// off, on disk too unless a writer holds the store; a corrupt span
    /// mid-pack stays on disk. Packs
    /// whose header is unrecognized are ignored wholesale (`stat` counts
    /// each as a corrupt span, and `compact` quarantines it).
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
        let mut index: FingerprintMap<Loc> = FingerprintMap::default();
        let LoadedPacks { packs, .. } = load_packs(io.as_ref(), &dir, |fingerprint, loc| {
            index.insert(fingerprint, loc);
        })?;
        let loaded = index.len();
        Ok(PackStore {
            dir,
            io,
            retry,
            durability,
            counters: Arc::new(IoCounters::default()),
            inner: RwLock::new(Inner { packs, index }),
            writer: Mutex::new(None),
            loaded,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            write_degraded: AtomicBool::new(false),
            dirty: AtomicU64::new(0),
        })
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
    fn lookup(&self, key: &TrialKey) -> Result<Option<CellOutcome>, ()> {
        let inner = self.inner.read().expect("store lock");
        let Some(loc) = inner.index.get(&key.fingerprint()) else {
            return Ok(None);
        };
        // A foreign key behind a fingerprint collision, a poisoned pack
        // or a rotted record: never serve it.
        let (kind, payload) =
            read_keyed(&inner.packs[loc.pack].data, loc.offset, key, &mut None).ok_or(())?;
        let outcome = match kind {
            KIND_DONE => decode_summary(payload).map(CellOutcome::Done),
            _ => decode_failure(payload).map(CellOutcome::Quarantined),
        };
        outcome.map(Some).ok_or(())
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

    /// Appends one record through the store's writer, mirroring the
    /// bytes into the in-memory pack so probes see the new cell
    /// immediately. On IO failure flips into write-degraded mode (one
    /// warning) and reports the error.
    fn append(&self, kind: u8, key: &TrialKey, payload: &[u8]) -> std::io::Result<()> {
        if self.write_degraded.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("store is write-degraded"));
        }
        let record = encode_record(kind, key.text(), payload);
        let mut guard = self.writer.lock().expect("writer lock");
        let result = (|| -> std::io::Result<()> {
            if guard.is_none() {
                *guard = Some(self.open_writer()?);
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
                // fails, drop this writer: the next open cuts the torn
                // tail off.
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

    /// Takes a shared lock on the store's lock file, then creates the
    /// store's pack file (`pack-<pid>-<n>.hpk`, `O_EXCL`, bumping `n`
    /// until the name is free) and registers its in-memory mirror. The
    /// lock blocks only while a compaction or another open's repair
    /// holds it exclusively.
    fn open_writer(&self) -> std::io::Result<Writer> {
        let lock = open_lock(&self.dir)?;
        lock.lock_shared()?;
        let pid = std::process::id();
        let (path, mut file) =
            create_numbered(&*self.io, |n| self.dir.join(format!("pack-{pid}-{n}.hpk")))?;
        if let Err(e) = self
            .retry
            .run(&self.counters, || file.write_all(&PACK_MAGIC))
        {
            // A pack that never got its full header is useless and
            // would read as corruption; unlink it rather than leave
            // a headerless stub for compact to quarantine.
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
            _lock: lock,
            pack,
            len: PACK_MAGIC.len(),
        })
    }

    /// Writes (or refreshes) every pack's sidecar index from the probe
    /// index, the last location of every key, so the next open skips the
    /// full scan. Crash-consistent (tmp file, sync unless durability is
    /// `None`, then rename over the live name) and best-effort: sidecars
    /// are pure acceleration, so failures are ignored.
    fn write_indexes(&self) {
        let inner = self.inner.read().expect("store lock");
        for (pi, pack) in inner.packs.iter().enumerate() {
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
    /// It reads the packs as open does, which heals torn tails, but
    /// builds no probe index: every record count comes from one frame
    /// scan of the loaded packs, so a record the sidecar indexes but that
    /// no longer decodes counts as a corrupt span, not a live record.
    ///
    /// # Errors
    ///
    /// Returns the IO error when the directory cannot be opened, and
    /// [`NotFound`](std::io::ErrorKind::NotFound) when it does not exist.
    pub fn stat(dir: impl Into<PathBuf>) -> std::io::Result<StoreStat> {
        let dir = dir.into();
        std::fs::metadata(&dir)?;
        let io = RealIo;
        // What open would index sizes the map; growing it by doubling
        // cost as much as the index this replaces.
        let mut indexed = 0;
        let loaded = load_packs(&io, &dir, |_, _| indexed += 1)?;
        // Last location per key, in load order (open's last-wins order).
        let mut live: FingerprintMap<Loc> = FingerprintMap::default();
        live.reserve(indexed);
        let (mut frames, mut corrupt_spans) = (0usize, 0usize);
        for (pack, buf) in loaded.packs.iter().enumerate() {
            scan_frames(&buf.data, PACK_MAGIC.len(), |frame| match frame {
                Frame::Record(offset, fingerprint, rec) => {
                    frames += 1;
                    let kind = rec.kind;
                    live.insert(fingerprint, Loc { pack, offset, kind });
                }
                Frame::Corrupt(_) => corrupt_spans += 1,
            });
        }
        let done = live.values().filter(|loc| loc.kind == KIND_DONE).count();
        Ok(StoreStat {
            packs: loaded.packs.len(),
            records: live.len(),
            done,
            quarantined: live.len() - done,
            superseded: frames - live.len(),
            bytes: loaded.packs.iter().map(|p| p.data.len() as u64).sum(),
            corrupt_spans: corrupt_spans + loaded.bad_headers,
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

    /// Offline compaction and repair: reads every pack raw, keeps the
    /// last valid record per key, and rewrites the survivors into one
    /// merged pack with a fresh sidecar. Bytes in which no record
    /// decodes — a bit-flipped span, a torn tail, a pack with a bad
    /// header — are first written to `scrub-quarantine/`, one file per
    /// span named for its pack and byte offset
    /// (`pack-…-at-<offset>.bin`, with a `.<n>` suffix before `.bin` if
    /// that name is taken), so nothing is dropped silently and every
    /// span stays traceable; their cells re-simulate on the next warm
    /// run.
    /// Holds the store's lock exclusively while it runs, and refuses to
    /// run while any writer holds it: a live writer would race the
    /// removal. The rewrite is crash-consistent: pack and sidecar are
    /// written to tmp names, synced, renamed into place, and only then
    /// are the old packs unlinked, so a crash at any point leaves either
    /// the old store or the new one, never neither.
    ///
    /// # Errors
    ///
    /// Returns an error while a writer holds the store, and the IO
    /// error when the quarantine or the merged pack cannot be written;
    /// the original packs are only removed after the merge landed. A
    /// `dir` that does not exist is
    /// [`NotFound`](std::io::ErrorKind::NotFound).
    pub fn compact(dir: impl Into<PathBuf>) -> std::io::Result<CompactStats> {
        let dir = dir.into();
        let lock = open_lock(&dir)?;
        if let Err(e) = lock.try_lock() {
            return Err(match e {
                std::fs::TryLockError::WouldBlock => {
                    std::io::Error::other("store has a live writer; compact between campaigns")
                }
                std::fs::TryLockError::Error(e) => e,
            });
        }
        let io = RealIo;
        let mut stats = CompactStats::default();
        let mut packs: Vec<(PathBuf, Vec<u8>)> = Vec::new();
        // The last valid record per key, as (pack, offset, end, kind).
        let mut live: FingerprintMap<(usize, usize, usize, u8)> = FingerprintMap::default();
        // Corrupt spans, as (pack, byte range).
        let mut corrupt: Vec<(usize, Range<usize>)> = Vec::new();
        for path in pack_paths(&io, &dir)? {
            let Ok(data) = io.read(&path) else { continue };
            let pack = packs.len();
            if data.starts_with(&PACK_MAGIC) {
                scan_frames(&data, PACK_MAGIC.len(), |frame| match frame {
                    Frame::Record(offset, fingerprint, rec) => {
                        stats.records_before += 1;
                        live.insert(fingerprint, (pack, offset, rec.next, rec.kind));
                    }
                    Frame::Corrupt(span) => corrupt.push((pack, span)),
                });
            } else {
                corrupt.push((pack, 0..data.len()));
            }
            stats.bytes_before += data.len() as u64;
            packs.push((path, data));
        }
        stats.packs_before = packs.len();
        stats.corrupt_spans = corrupt.len();

        if !corrupt.is_empty() {
            let qdir = dir.join("scrub-quarantine");
            io.create_dir_all(&qdir)?;
            for (pack, span) in corrupt {
                let (path, data) = &packs[pack];
                let stem = path
                    .file_stem()
                    .map_or("pack".into(), |s| s.to_string_lossy());
                let (_, mut f) = create_numbered(&io, |n| match n {
                    0 => qdir.join(format!("{stem}-at-{}.bin", span.start)),
                    n => qdir.join(format!("{stem}-at-{}.{n}.bin", span.start)),
                })?;
                stats.corrupt_bytes += span.len() as u64;
                f.write_all(&data[span])?;
                f.flush()?;
                f.sync_all()?;
            }
        }

        // Survivors keep their relative (pack, offset) order.
        let mut survivors: Vec<_> = live.into_iter().collect();
        survivors.sort_unstable_by_key(|&(_, (pack, offset, ..))| (pack, offset));
        let mut merged = PACK_MAGIC.to_vec();
        let mut entries = Vec::with_capacity(survivors.len());
        for (fingerprint, (pack, offset, end, kind)) in survivors {
            entries.push(IdxEntry {
                fingerprint,
                offset: merged.len(),
                kind,
            });
            merged.extend_from_slice(&packs[pack].1[offset..end]);
        }
        let merged_path = dir.join(format!("pack-{}-merged-0.hpk", std::process::id()));
        let idx = encode_index(merged.len(), &entries);
        write_synced_then_rename(&io, &merged_path, &merged)?;
        write_synced_then_rename(&io, &idx_path_for(&merged_path), &idx)?;
        for (path, _) in &packs {
            if *path != merged_path {
                let _ = io.remove_file(path);
                let _ = io.remove_file(&idx_path_for(path));
            }
        }
        stats.records_after = entries.len();
        stats.bytes_after = merged.len() as u64;
        Ok(stats)
    }

    /// Durability barrier: when running at [`Durability::Batch`],
    /// syncs every writer that appended since the last barrier. A
    /// sync failure is counted (`store.sync_failures`) but does not
    /// degrade the store — the bytes are still queued with the kernel.
    pub(crate) fn barrier(&self) {
        if self.durability != Durability::Batch {
            return;
        }
        if self.dirty.swap(0, Ordering::Relaxed) == 0 {
            return;
        }
        if let Some(writer) = self.writer.lock().expect("writer lock").as_mut() {
            if writer.file.sync_all().is_err() {
                self.counters.note_sync_failure();
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
        self.probe_many(std::slice::from_ref(key))
            .pop()
            .expect("one key, one answer")
    }

    fn probe_many(&self, keys: &[TrialKey]) -> Vec<Option<TrialSummary>> {
        // One read-lock acquisition for the whole grid; counters are
        // batched so the atomics are touched once per grid, not per
        // cell.
        let mut out = Vec::with_capacity(keys.len());
        let (mut hits, mut misses, mut rejects) = (0u64, 0u64, 0u64);
        {
            let inner = self.inner.read().expect("store lock");
            let mut heads = None;
            for key in keys {
                let mut resolved = None;
                match inner.index.get(&key.fingerprint()) {
                    None => misses += 1,
                    Some(loc) => {
                        match read_keyed(&inner.packs[loc.pack].data, loc.offset, key, &mut heads) {
                            Some((KIND_DONE, payload)) => match decode_summary(payload) {
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
pub fn open_or_warn(dir: &Path, durability: Durability) -> Option<PackStore> {
    PackStore::open_with(dir, RealIo::shared(), RetryPolicy::default(), durability)
        .map_err(|e| {
            eprintln!(
                "warning: cannot open sweep store at {} ({e}); running uncached",
                dir.display()
            )
        })
        .ok()
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

        // A failure is a length-prefixed message, a bool byte and a u32
        // worker index, nothing more.
        let encoded = encode_failure(&failure());
        assert_eq!(encoded.len(), 9 + failure().message.len());
        // Older writers appended a length-prefixed dump path; it decodes
        // to the same failure.
        let path = "target/dumps/00ab.jsonl";
        let mut with_path = encoded.clone();
        with_path.extend_from_slice(&(path.len() as u32).to_le_bytes());
        with_path.extend_from_slice(path.as_bytes());
        assert_eq!(decode_failure(&with_path), Some(failure()));
        // A tail that is not a whole path is not a failure.
        assert_eq!(decode_failure(&with_path[..with_path.len() - 1]), None);
        assert_eq!(decode_failure(&[&encoded[..], b"\x01"].concat()), None);
    }

    #[test]
    fn an_undecodable_failure_is_a_miss_to_the_cache_and_a_reject_to_decided() {
        let dir = scratch_dir("undecodable-failure");
        std::fs::create_dir_all(&dir).unwrap();
        let mut pack = PACK_MAGIC.to_vec();
        pack.extend(encode_record(KIND_QUARANTINED, key(1).text(), b"\x07"));
        std::fs::write(dir.join("pack-crafted.hpk"), pack).unwrap();
        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.loaded(), 1);
        let counts = |before: CacheStats| {
            let now = store.stats();
            (now.misses - before.misses, now.rejects - before.rejects)
        };
        let before = store.stats();
        assert_eq!(store.probe(&key(1)), None);
        assert_eq!(counts(before), (1, 0), "probe");
        let before = store.stats();
        assert_eq!(store.probe_many(&[key(1)]), vec![None]);
        assert_eq!(counts(before), (1, 0), "probe_many");
        let before = store.stats();
        assert_eq!(store.decided(&key(1)), None);
        assert_eq!(store.stats().rejects - before.rejects, 1, "decided");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fused_key_hash_matches_separate_hashes() {
        let body = b"\x01\x03\0\0\0keypayload";
        assert_eq!(
            fnv1a64_with_key(body, 5..8),
            (fnv1a64(body), fnv1a64(b"key"))
        );
        assert_eq!(fnv1a64_with_key(body, 5..5), (fnv1a64(body), fnv1a64(b"")));
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
    fn a_live_writers_torn_tail_stays_on_disk() {
        let dir = scratch_dir("live-tail");
        let writer = PackStore::open(&dir).unwrap();
        writer.store(&key(1), &summary(1));
        // The first bytes of a second record, as if caught mid-append.
        let pack = only_pack(&dir);
        let record = encode_record(KIND_DONE, key(2).text(), &encode_summary(&summary(2)));
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&pack)
            .unwrap();
        file.write_all(&record[..7]).unwrap();
        let len = std::fs::metadata(&pack).unwrap().len();

        let reader = PackStore::open(&dir).unwrap();
        assert_eq!(reader.probe(&key(1)), Some(summary(1)), "good prefix kept");
        assert_eq!(reader.probe(&key(2)), None);
        assert_eq!(
            std::fs::metadata(&pack).unwrap().len(),
            len,
            "a live writer's pack is not cut"
        );
        drop(reader);
        drop(writer);
        drop(PackStore::open(&dir).unwrap());
        assert_eq!(
            std::fs::metadata(&pack).unwrap().len(),
            len - 7,
            "with no writer live, open cuts the torn tail"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_refuses_while_a_writer_is_live() {
        let dir = scratch_dir("compact-live");
        let store = PackStore::open(&dir).unwrap();
        store.store(&key(1), &summary(1));
        let pack = only_pack(&dir);
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let (names, bytes) = (listing(), std::fs::read(&pack).unwrap());
        assert!(PackStore::compact(&dir).is_err(), "a live writer refuses");
        assert_eq!(listing(), names);
        assert_eq!(
            std::fs::read(&pack).unwrap(),
            bytes,
            "the pack is untouched"
        );
        drop(store);
        assert_eq!(PackStore::compact(&dir).unwrap().records_after, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_pack_names_load_and_lease_files_are_ignored() {
        let dir = scratch_dir("older-names");
        std::fs::create_dir_all(&dir).unwrap();
        let mut pack = PACK_MAGIC.to_vec();
        pack.extend(encode_record(
            KIND_DONE,
            key(1).text(),
            &encode_summary(&summary(1)),
        ));
        std::fs::write(dir.join("pack-1-3-0.hpk"), pack).unwrap();
        std::fs::write(dir.join("lease-3"), "1 0\n").unwrap();
        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.probe(&key(1)), Some(summary(1)));
        store.store(&key(2), &summary(2));
        let pid = std::process::id();
        assert!(dir.join(format!("pack-{pid}-0.hpk")).is_file());
        drop(store);
        assert_eq!(std::fs::read(dir.join("lease-3")).unwrap(), b"1 0\n");
        let stat = PackStore::stat(&dir).unwrap();
        assert_eq!((stat.packs, stat.records), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn only_pack(dir: &Path) -> PathBuf {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "hpk"))
            .unwrap()
    }

    /// One pack of eight equal-length records with one byte flipped
    /// inside record 3; returns the directory, the pack and the bad
    /// record's byte range.
    fn pack_with_flipped_record(tag: &str) -> (PathBuf, PathBuf, Range<usize>) {
        let dir = scratch_dir(tag);
        let store = PackStore::open(&dir).unwrap();
        for seed in 0..8 {
            store.store(&key(seed), &summary(seed));
        }
        drop(store);
        let pack = only_pack(&dir);
        let mut bytes = std::fs::read(&pack).unwrap();
        let record_len = (bytes.len() - PACK_MAGIC.len()) / 8;
        let bad = PACK_MAGIC.len() + 3 * record_len..PACK_MAGIC.len() + 4 * record_len;
        bytes[bad.start + 20] ^= 0xA5;
        std::fs::write(&pack, &bytes).unwrap();
        (dir, pack, bad)
    }

    #[test]
    fn open_skips_a_corrupt_record_and_compact_quarantines_it() {
        let (dir, pack, bad) = pack_with_flipped_record("mid-corrupt");
        std::fs::remove_file(idx_path_for(&pack)).unwrap();
        let flipped = std::fs::read(&pack).unwrap();
        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.loaded(), 7);
        for seed in 0..8 {
            let expect = (seed != 3).then(|| summary(seed));
            assert_eq!(store.probe(&key(seed)), expect, "seed {seed}");
        }
        drop(store);
        assert_eq!(
            std::fs::read(&pack).unwrap(),
            flipped,
            "a corrupt span mid-pack is not truncated"
        );

        let stats = PackStore::compact(&dir).unwrap();
        assert_eq!((stats.corrupt_spans, stats.records_after), (1, 7));
        assert_eq!(stats.corrupt_bytes, bad.len() as u64);
        let stem = pack.file_stem().unwrap().to_string_lossy();
        let kept = dir
            .join("scrub-quarantine")
            .join(format!("{stem}-at-{}.bin", bad.start));
        let kept = std::fs::read(kept).unwrap();
        assert_eq!(kept, flipped[bad], "the bad bytes are quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_quarantines_each_span_in_a_file_named_for_its_pack_and_offset() {
        let (dir, first, bad_first) = pack_with_flipped_record("two-packs");
        // A second pack, written by a second store session, with its
        // record 5 flipped.
        let store = PackStore::open(&dir).unwrap();
        for seed in 10..16 {
            store.store(&key(seed), &summary(seed));
        }
        drop(store);
        let second = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "hpk") && *p != first)
            .unwrap();
        let mut bytes = std::fs::read(&second).unwrap();
        let record_len = (bytes.len() - PACK_MAGIC.len()) / 6;
        let bad_second = PACK_MAGIC.len() + 5 * record_len..PACK_MAGIC.len() + 6 * record_len;
        bytes[bad_second.start + 20] ^= 0xA5;
        std::fs::write(&second, &bytes).unwrap();
        let spans = [
            (first.clone(), bad_first, std::fs::read(&first).unwrap()),
            (second.clone(), bad_second, bytes),
        ];
        // A file already at the first span's name is kept, not replaced.
        let qdir = dir.join("scrub-quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        let first_stem = first.file_stem().unwrap().to_string_lossy();
        let taken = qdir.join(format!("{first_stem}-at-{}.bin", spans[0].1.start));
        std::fs::write(&taken, b"earlier").unwrap();

        let stats = PackStore::compact(&dir).unwrap();
        assert_eq!((stats.corrupt_spans, stats.records_after), (2, 7 + 5));
        assert_eq!(
            stats.corrupt_bytes,
            (spans[0].1.len() + spans[1].1.len()) as u64
        );
        assert_eq!(std::fs::read(&taken).unwrap(), b"earlier");
        let mut names: Vec<String> = std::fs::read_dir(&qdir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let second_stem = second.file_stem().unwrap().to_string_lossy();
        let mut want = vec![
            format!("{first_stem}-at-{}.bin", spans[0].1.start),
            format!("{first_stem}-at-{}.1.bin", spans[0].1.start),
            format!("{second_stem}-at-{}.bin", spans[1].1.start),
        ];
        want.sort();
        assert_eq!(names, want);
        let kept = |name: String| std::fs::read(qdir.join(name)).unwrap();
        assert_eq!(
            kept(format!("{first_stem}-at-{}.1.bin", spans[0].1.start)),
            spans[0].2[spans[0].1.clone()]
        );
        assert_eq!(
            kept(format!("{second_stem}-at-{}.bin", spans[1].1.start)),
            spans[1].2[spans[1].1.clone()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stat_and_compact_see_a_corrupt_record_the_sidecar_indexes() {
        let (dir, _, _) = pack_with_flipped_record("indexed-corrupt");
        let stat = PackStore::stat(&dir).unwrap();
        assert_eq!(
            (stat.records, stat.superseded, stat.corrupt_spans),
            (7, 0, 1)
        );
        let stats = PackStore::compact(&dir).unwrap();
        assert_eq!(stats.records_after, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stat_and_compact_count_a_pack_with_a_bad_header() {
        let dir = scratch_dir("bad-header");
        let store = PackStore::open(&dir).unwrap();
        store.store(&key(1), &summary(1));
        drop(store);
        let pack = only_pack(&dir);
        let mut bytes = std::fs::read(&pack).unwrap();
        bytes[0] ^= 0xA5;
        std::fs::write(&pack, &bytes).unwrap();
        let stat = PackStore::stat(&dir).unwrap();
        assert_eq!((stat.packs, stat.records, stat.corrupt_spans), (0, 0, 1));
        let stats = PackStore::compact(&dir).unwrap();
        assert_eq!((stats.corrupt_spans, stats.records_after), (1, 0));
        assert_eq!(stats.corrupt_bytes, bytes.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// How one read surface answered one key.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Served(CellOutcome),
        Miss,
        Reject,
    }

    /// What the reference read makes of `key`, as `[cache, decided]`:
    /// the indexed record as [`decode_record`] decodes it, kept only
    /// when its key text is `key.text()`, then the one rule of each
    /// surface. The cache surface (`probe_many` and `probe`) decodes
    /// only `done` records, so any quarantined record is a plain miss;
    /// `decided` serves both kinds.
    fn reference_answers(store: &PackStore, key: &TrialKey) -> [Answer; 2] {
        let inner = store.inner.read().unwrap();
        let Some(loc) = inner.index.get(&key.fingerprint()) else {
            return [Answer::Miss, Answer::Miss];
        };
        let Some(rec) = decode_record(&inner.packs[loc.pack].data, loc.offset)
            .filter(|rec| rec.key_text == key.text())
        else {
            return [Answer::Reject, Answer::Reject];
        };
        if rec.kind == KIND_DONE {
            let done = || match decode_summary(rec.payload) {
                Some(s) => Answer::Served(CellOutcome::Done(s)),
                None => Answer::Reject,
            };
            [done(), done()]
        } else {
            let decided = match decode_failure(rec.payload) {
                Some(f) => Answer::Served(CellOutcome::Quarantined(f)),
                None => Answer::Reject,
            };
            [Answer::Miss, decided]
        }
    }

    /// Runs `grid` through `probe_many`, `probe` and `decided` and checks
    /// every answer and the `hits`/`misses`/`rejects` deltas of each
    /// pass against [`reference_answers`].
    fn assert_reads_match_reference(store: &PackStore, grid: &[TrialKey], case: &str) {
        /// The counter deltas `answers` imply.
        fn deltas<'a>(answers: impl IntoIterator<Item = &'a Answer>) -> CacheStats {
            let mut d = CacheStats::default();
            for answer in answers {
                match answer {
                    Answer::Served(_) => d.hits += 1,
                    Answer::Miss => d.misses += 1,
                    Answer::Reject => (d.misses, d.rejects) = (d.misses + 1, d.rejects + 1),
                }
            }
            d
        }
        let expected: Vec<[Answer; 2]> = grid.iter().map(|k| reference_answers(store, k)).collect();
        let since = |before: CacheStats| {
            let now = store.stats();
            CacheStats {
                hits: now.hits - before.hits,
                misses: now.misses - before.misses,
                rejects: now.rejects - before.rejects,
                stores: now.stores - before.stores,
            }
        };

        let before = store.stats();
        let batch = store.probe_many(grid);
        let want: Vec<Option<TrialSummary>> = expected
            .iter()
            .map(|e| match &e[0] {
                Answer::Served(CellOutcome::Done(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(batch, want, "{case}: probe_many answers");
        assert_eq!(
            since(before),
            deltas(expected.iter().map(|e| &e[0])),
            "{case}: probe_many counters"
        );

        for (key, want) in grid.iter().zip(&expected) {
            let before = store.stats();
            let got = match store.probe(key) {
                Some(s) => Answer::Served(CellOutcome::Done(s)),
                None if since(before).rejects == 1 => Answer::Reject,
                None => Answer::Miss,
            };
            assert_eq!(got, want[0], "{case}: probe of {}", key.text());
            assert_eq!(since(before), deltas([&want[0]]));

            let before = store.stats();
            let got = match store.decided(key) {
                Some(outcome) => Answer::Served(outcome),
                None if since(before).rejects == 1 => Answer::Reject,
                None => Answer::Miss,
            };
            assert_eq!(got, want[1], "{case}: decided of {}", key.text());
            assert_eq!(since(before), deltas([&want[1]]));
        }
    }

    #[test]
    fn keyed_reads_match_the_reference_under_every_byte_flip() {
        // One scenario's `done` seeds 9, 10 and 12 around a quarantined
        // seed 11, then a second scenario: neighbouring records differ
        // in key length (9 → 10), in kind (10 → 11) and in scenario
        // prefix, so a reused checksum head that ignored any of them
        // would show.
        let dir = scratch_dir("keyed-flips");
        let a = PaperScenario::new(0.4, 500.0);
        let b = PaperScenario::new(0.8, 200.0);
        let store = PackStore::open(&dir).unwrap();
        for seed in [9, 10] {
            store.record_done(&key(seed), &summary(seed)).unwrap();
        }
        store.record_quarantined(&key(11), &failure()).unwrap();
        store.record_done(&key(12), &summary(12)).unwrap();
        for seed in [9, 10, 11] {
            let k = b.trial_key(PolicyKind::EaDvfs, seed);
            store.record_done(&k, &summary(seed + 1)).unwrap();
        }
        drop(store); // writes the sidecar
        let grid: Vec<TrialKey> = [&a, &b]
            .into_iter()
            .flat_map(|s| (8..=13).map(|seed| s.trial_key(PolicyKind::EaDvfs, seed)))
            .collect();
        let pack = only_pack(&dir);
        let clean = std::fs::read(&pack).unwrap();

        let store = PackStore::open(&dir).unwrap();
        assert_reads_match_reference(&store, &grid, "clean");
        let frame = {
            let inner = store.inner.read().unwrap();
            let at = inner.index[&key(10).fingerprint()].offset;
            let body_len = u32::from_le_bytes(clean[at..at + 4].try_into().unwrap()) as usize;
            at..at + 4 + body_len + 8
        };
        drop(store);

        // Flip every byte of seed 10's frame in turn (`body_len`, kind,
        // `key_len`, key, payload, checksum), keeping the sidecar, so
        // open still indexes the rotted record and the probe-time check
        // is the one that must catch it.
        for at in frame {
            for mask in [0x01, 0xFF] {
                let mut bytes = clean.clone();
                bytes[at] ^= mask;
                std::fs::write(&pack, &bytes).unwrap();
                let store = PackStore::open(&dir).unwrap();
                assert_eq!(store.loaded(), 7, "the sidecar is kept");
                assert_eq!(
                    reference_answers(&store, &key(10)),
                    [Answer::Reject, Answer::Reject]
                );
                assert_reads_match_reference(&store, &grid, &format!("byte {at} ^ {mask:#04x}"));
            }
        }
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
        // Yank the directory: no writer can be created. Use a fresh
        // store so no writer fd is already open.
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
    fn env_store_selects_and_degrades() {
        use crate::test_support::with_env;
        let dir = scratch_dir("env");
        let dir_str = dir.to_str().unwrap().to_owned();
        with_env(&[(SWEEP_STORE_ENV, None)], || {
            assert_eq!(store_dir_from_env(), None)
        });
        with_env(&[(SWEEP_STORE_ENV, Some("0"))], || {
            assert_eq!(store_dir_from_env(), None)
        });
        with_env(&[(SWEEP_STORE_ENV, Some(""))], || {
            assert_eq!(store_dir_from_env(), None)
        });
        with_env(&[(SWEEP_STORE_ENV, Some("1"))], || {
            assert_eq!(store_dir_from_env(), Some(PathBuf::from(DEFAULT_STORE_DIR)))
        });
        with_env(&[(SWEEP_STORE_ENV, Some(dir_str.as_str()))], || {
            let selected = store_dir_from_env().expect("explicit dir enables the store");
            let store = open_or_warn(&selected, Durability::default()).expect("dir opens");
            assert_eq!(store.dir(), dir.as_path());
        });
        // Unopenable store dir (a file standing where the dir must go —
        // root ignores permission bits): degrade, do not fail.
        let blocker = scratch_dir("env-blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let blocked = blocker.join("sub");
        let blocked_str = blocked.to_str().unwrap().to_owned();
        with_env(&[(SWEEP_STORE_ENV, Some(blocked_str.as_str()))], || {
            let selected = store_dir_from_env().expect("a path enables the store");
            assert!(
                open_or_warn(&selected, Durability::default()).is_none(),
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
        // store keeps its writer's pack and lock fds, nothing per cell.
        assert!(
            open_fds() <= baseline + 8,
            "fd count grew with grid size: {} -> {}",
            baseline,
            open_fds()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
