//! Persistent, content-addressed result cache for experiment cells.
//!
//! Every cell of the reproduction is a *pure function* of its
//! configuration: the simulator is deterministic, so (device config,
//! kernel, variant, workload) fully determines the telemetry record the
//! cell produces. This module memoizes that function on disk (DESIGN.md
//! §12): before simulating a cell, [`crate::runner::Engine::run_with`]
//! looks its [`CacheKey`] up in a [`ResultCache`] and restores a hit as
//! [`crate::runner::CellOutcome::Cached`] — byte-identical, in every
//! digest-bearing field, to a fresh simulation — and inserts each miss
//! once it completes.
//!
//! # Key derivation
//!
//! A key is a 128-bit FNV-1a digest of a canonical JSON rendering of
//! everything the simulated result depends on:
//!
//! * [`CACHE_FORMAT_VERSION`] and [`crate::telemetry::SCHEMA_VERSION`]
//!   — an entry written under an older on-disk layout or telemetry
//!   schema can never satisfy a newer lookup;
//! * the sim-code fingerprint ([`membound_sim::SIM_FINGERPRINT`] unless
//!   overridden) — bumped whenever simulator semantics migrate the
//!   canonical figure digests;
//! * the kernel family and variant label (the variant encodes the
//!   schedule: e.g. `Dynamic` vs the static transpose blockings);
//! * the workload (matrix `n` and block size, blur image geometry and
//!   σ, fused-blur thread count, STREAM op and cache level);
//! * the full serialized [`membound_sim::DeviceSpec`].
//!
//! The *panel label* is deliberately excluded: it is presentation-only
//! (two figures rendering the same cell under different panel titles
//! share one entry). Host-side diagnostics (`wall_seconds`,
//! `host_workers`, job counts) are neither in the key nor compared —
//! they never affect simulated results.
//!
//! # On-disk layout and crash safety
//!
//! ```text
//! <cache-dir>/
//!   index.jsonl          append-only journal, one fsynced line per insert
//!   objects/<key>.json   one entry: payload line + its own digest line
//! ```
//!
//! Writes follow the failure-safe persistent-object discipline of the
//! run-log layer (detectable recovery, idempotent replay): an object is
//! written with [`crate::telemetry::write_text_atomic`] (temp file in
//! the same directory + rename), then one line is appended to the
//! fsynced index. A crash between the two leaves a valid object that is
//! merely unindexed — still a hit on lookup (objects are
//! content-addressed; the index is an advisory journal for `stats`/`gc`,
//! never a source of truth) and re-indexed by the next [`gc`]. A crash
//! *during* either write leaves a `.tmp` file or a torn index line,
//! both of which are detected and discarded, never trusted. Lookups
//! re-verify every object end to end (self-digest, kind, versions,
//! fingerprint, key); a corrupt object is deleted and the cell simply
//! re-simulated.
//!
//! # Multi-process coordination
//!
//! One cache directory is shared by *processes*, not just threads: a
//! `membound-serve` daemon inserts while `membound-cli cache gc`
//! rebuilds, and several one-shot runs may share a warm store. Every
//! *mutating* path — [`ResultCache::insert`]'s object-write + index
//! append, [`gc`]'s walk + rebuild, and the open-time header check —
//! holds an advisory [`membound_parallel::FsLock`] on `<dir>/.lock`
//! (`flock(2)`: released by the kernel on crash, so a dead process can
//! never wedge the store). Two single-process assumptions died with
//! the daemon:
//!
//! * an insert's index line could land *between* `gc`'s object walk
//!   and its index rewrite and be silently dropped — the object
//!   survived but its journal line vanished;
//! * a long-lived append descriptor kept writing to the *orphaned*
//!   inode after `gc` renamed a fresh index into place, so every
//!   subsequent insert's line went to a file nothing would ever read.
//!
//! Both are fixed the same way: each index append opens the index
//! fresh *under the lock* (observing any rebuild that won the race)
//! and `gc` holds the lock across walk + rewrite. Read-only paths
//! ([`ResultCache::lookup`], [`survey`]) stay lock-free by design —
//! they already tolerate concurrent mutation.

use crate::runner::{Cell, CellOutcome};
use crate::telemetry::{self, SimRecord};
use membound_parallel::FsLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version of the cache's on-disk layout. Part of every [`CacheKey`]
/// and every entry payload: bump it on any change to the object or
/// index format, and old entries become unreachable (and reclaimable by
/// [`gc`]) instead of misread.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// The sim-code fingerprint baked into keys when none is supplied:
/// [`membound_sim::SIM_FINGERPRINT`].
#[must_use]
pub fn default_fingerprint() -> &'static str {
    membound_sim::SIM_FINGERPRINT
}

const INDEX_FILE: &str = "index.jsonl";
const OBJECTS_DIR: &str = "objects";
const LOCK_FILE: &str = ".lock";

/// Take the cache directory's cross-process mutation lock (blocking).
fn lock_cache_dir(dir: &Path) -> std::io::Result<FsLock> {
    FsLock::acquire(&dir.join(LOCK_FILE))
}

fn index_header_line() -> String {
    format!("{{\"kind\":\"cache_header\",\"format_version\":{CACHE_FORMAT_VERSION}}}\n")
}

/// Content address of one cell's result: 32 hex digits (a 128-bit
/// two-pass FNV-1a digest of the canonical key material).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey(String);

impl CacheKey {
    /// The key as lowercase hex; also the object's file stem.
    #[must_use]
    pub fn as_hex(&self) -> &str {
        &self.0
    }

    /// Derive the key for `cell` under `fingerprint`.
    #[must_use]
    pub fn derive(cell: &Cell, fingerprint: &str) -> Self {
        let material = key_material(cell, fingerprint);
        let bytes = material.as_bytes();
        let h1 = fnv1a(FNV_OFFSET, bytes);
        // Second pass from a decorrelated seed: 64 FNV bits collide too
        // easily over the lifetime of a long-lived shared cache.
        let h2 = fnv1a(h1 ^ 0x9e37_79b9_7f4a_7c15, bytes);
        Self(format!("{h1:016x}{h2:016x}"))
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Canonical JSON the key digests. Field order is fixed by this
/// function, never by a serializer, so the rendering is stable across
/// releases by construction.
fn key_material(cell: &Cell, fingerprint: &str) -> String {
    let device = serde_json::to_string(&cell.spec).expect("device spec serializes");
    format!(
        "{{\"cache_format\":{CACHE_FORMAT_VERSION},\
         \"schema_version\":{},\
         \"fingerprint\":{:?},\
         \"kernel\":{:?},\
         \"variant\":{:?},\
         \"workload\":{},\
         \"device\":{}}}",
        telemetry::SCHEMA_VERSION,
        fingerprint,
        cell.kind.kernel(),
        cell.variant,
        workload_json(cell),
        device,
    )
}

fn workload_json(cell: &Cell) -> String {
    use crate::runner::CellKind;
    match &cell.kind {
        CellKind::Transpose { cfg, .. } => {
            format!("{{\"n\":{},\"block\":{}}}", cfg.n, cfg.block)
        }
        CellKind::Blur { cfg, .. } => blur_json(cfg, None),
        CellKind::FusedBlur { cfg, threads } => blur_json(cfg, Some(*threads)),
        CellKind::Stream { op, level } => {
            let level = match level {
                Some(l) => format!("{l}"),
                None => "null".into(),
            };
            format!("{{\"op\":{:?},\"level\":{level}}}", op.label())
        }
        CellKind::Gbmv { cfg, .. } => format!(
            "{{\"n\":{},\"kl\":{},\"ku\":{},\"block\":{}}}",
            cfg.n, cfg.kl, cfg.ku, cfg.block
        ),
    }
}

fn blur_json(cfg: &crate::blur::BlurConfig, threads: Option<u32>) -> String {
    let sigma = match cfg.sigma {
        Some(s) => format!("{s:?}"),
        None => "null".into(),
    };
    let threads = match threads {
        Some(t) => format!(",\"threads\":{t}"),
        None => String::new(),
    };
    format!(
        "{{\"height\":{},\"width\":{},\"channels\":{},\"filter_size\":{},\"sigma\":{sigma}{threads}}}",
        cfg.height, cfg.width, cfg.channels, cfg.filter_size,
    )
}

/// A cache hit, ready to become [`CellOutcome::Cached`]. Mirrors the
/// three outcome shapes worth memoizing — everything else (panics,
/// timeouts) describes a *run*, not the cell's value, and is never
/// cached.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedOutcome {
    /// A report-bearing cell's telemetry record (transpose/blur cells).
    Sim(Box<SimRecord>),
    /// A STREAM cell's bandwidth in GB/s.
    Gbps(f64),
    /// The workload exceeds the device's memory.
    DoesNotFit,
}

/// One persisted cell result: the payload line of an object file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Always `"cache_entry"`.
    pub kind: String,
    /// [`CACHE_FORMAT_VERSION`] at write time.
    pub format_version: u32,
    /// [`telemetry::SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Sim-code fingerprint the result was simulated under.
    pub fingerprint: String,
    /// The entry's own [`CacheKey`] (hex); must match the file stem.
    pub key: String,
    /// Kernel family, for `stats`/`verify` reporting.
    pub kernel: String,
    /// Variant label, for `stats`/`verify` reporting.
    pub variant: String,
    /// Device label, for `stats`/`verify` reporting.
    pub device: String,
    /// `"ok"` or `"does_not_fit"` (the only cacheable statuses).
    pub status: String,
    /// Telemetry record of a report-bearing cell.
    pub sim: Option<SimRecord>,
    /// Bandwidth of a STREAM cell.
    pub gbps: Option<f64>,
    /// Host wall seconds of the original simulation (diagnostic; lets a
    /// warm run report how much simulation time the cache saved).
    pub wall_seconds: f64,
    /// Wall-clock insert time, milliseconds since the Unix epoch.
    pub inserted_unix_ms: u64,
}

impl CacheEntry {
    /// Build the entry a cell's outcome should persist, or `None` when
    /// the outcome is not cacheable (panicked/failed/timed-out — those
    /// describe the run, not the cell — or already cached).
    #[must_use]
    pub fn capture(
        fingerprint: &str,
        key: &CacheKey,
        cell: &Cell,
        outcome: &CellOutcome,
        wall_seconds: f64,
    ) -> Option<Self> {
        let (status, sim, gbps) = match outcome {
            CellOutcome::Report(report) => (
                telemetry::status::OK,
                Some(SimRecord::from_report(report)),
                None,
            ),
            // A resumed cell's record is as authoritative as a fresh
            // one: inserting it lets a later run hit the cache.
            CellOutcome::Restored(rec) => (telemetry::status::OK, Some(rec.as_ref().clone()), None),
            CellOutcome::Gbps(g) => (telemetry::status::OK, None, Some(*g)),
            CellOutcome::DoesNotFit => (telemetry::status::DOES_NOT_FIT, None, None),
            CellOutcome::Cached(_)
            | CellOutcome::Panicked(_)
            | CellOutcome::Failed(_)
            | CellOutcome::TimedOut(_) => return None,
        };
        let inserted_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Some(Self {
            kind: "cache_entry".into(),
            format_version: CACHE_FORMAT_VERSION,
            schema_version: telemetry::SCHEMA_VERSION,
            fingerprint: fingerprint.into(),
            key: key.as_hex().into(),
            kernel: cell.kind.kernel().into(),
            variant: cell.variant.clone(),
            device: cell.device.clone(),
            status: status.into(),
            sim,
            gbps,
            wall_seconds,
            inserted_unix_ms,
        })
    }

    /// The outcome this entry restores, or `None` when the payload is
    /// internally inconsistent (e.g. `ok` with no result) — treated as
    /// corruption by the caller.
    #[must_use]
    pub fn outcome(&self) -> Option<CachedOutcome> {
        match self.status.as_str() {
            telemetry::status::OK => {
                if let Some(sim) = &self.sim {
                    Some(CachedOutcome::Sim(Box::new(sim.clone())))
                } else {
                    self.gbps.map(CachedOutcome::Gbps)
                }
            }
            telemetry::status::DOES_NOT_FIT => Some(CachedOutcome::DoesNotFit),
            _ => None,
        }
    }
}

/// Render an entry as its two-line object file: the payload line
/// followed by the payload's own FNV-1a digest, so torn or bit-rotted
/// objects are detectable without trusting any other file.
fn render_object(entry: &CacheEntry) -> String {
    let payload = serde_json::to_string(entry).expect("cache entry serializes");
    let digest = format!("{:016x}", fnv1a(FNV_OFFSET, payload.as_bytes()));
    format!("{payload}\n{digest}\n")
}

/// Parse and fully verify an object file's text.
fn parse_object(text: &str) -> Result<CacheEntry, String> {
    let mut lines = text.lines();
    let payload = lines.next().ok_or("empty object")?;
    let digest = lines.next().ok_or("missing digest line (torn write)")?;
    if lines.next().is_some_and(|l| !l.trim().is_empty()) {
        return Err("trailing garbage after digest line".into());
    }
    let want = format!("{:016x}", fnv1a(FNV_OFFSET, payload.as_bytes()));
    if digest.trim() != want {
        return Err(format!("digest mismatch (stored {digest:?})"));
    }
    let entry: CacheEntry =
        serde_json::from_str(payload).map_err(|e| format!("bad payload: {e:?}"))?;
    if entry.kind != "cache_entry" {
        return Err(format!("kind {:?}, expected \"cache_entry\"", entry.kind));
    }
    Ok(entry)
}

/// How a surveyed object or index line was classified.
fn is_stale(entry: &CacheEntry, fingerprint: &str) -> bool {
    entry.format_version != CACHE_FORMAT_VERSION
        || entry.schema_version != telemetry::SCHEMA_VERSION
        || entry.fingerprint != fingerprint
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    fingerprint: String,
}

/// Handle to one on-disk result cache; cheap to clone, safe to use from
/// concurrent engine workers *and* concurrent processes (see the module
/// docs). Deliberately holds no open index descriptor: each append
/// reopens the index under the directory lock, so a handle that
/// outlives a concurrent [`gc`] rebuild keeps appending to the *new*
/// index instead of a renamed-away orphan inode.
#[derive(Debug, Clone)]
pub struct ResultCache {
    inner: Arc<Inner>,
}

impl ResultCache {
    /// Open (creating if necessary) the cache at `dir` with the default
    /// sim-code fingerprint.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory layout or the index, and a
    /// corrupt or future-versioned index *header* (torn tail lines are
    /// tolerated — see the module docs).
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        Self::open_with_fingerprint(dir, default_fingerprint())
    }

    /// [`ResultCache::open`] with an explicit fingerprint (tests use
    /// this to exercise stale-entry behaviour).
    ///
    /// # Errors
    ///
    /// As [`ResultCache::open`].
    pub fn open_with_fingerprint(dir: &Path, fingerprint: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir.join(OBJECTS_DIR))?;
        let _lock = lock_cache_dir(dir)?;
        let index_path = dir.join(INDEX_FILE);
        let existing = match std::fs::read_to_string(&index_path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let mut index = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&index_path)?;
        match existing.as_deref() {
            None | Some("") => {
                index.write_all(index_header_line().as_bytes())?;
                index.sync_data()?;
            }
            Some(text) => {
                let first = text.lines().next().unwrap_or("");
                let ok = serde_json::value_from_str(first)
                    .ok()
                    .is_some_and(|v| index_header_ok(&v));
                if !ok {
                    return Err(std::io::Error::other(format!(
                        "{}: not a membound result-cache index (bad header line); \
                         refusing to append — move the directory aside or delete it",
                        index_path.display()
                    )));
                }
                // Heal a torn tail: without this, the next append would
                // splice onto the half-written line and corrupt an
                // otherwise parseable journal.
                if !text.ends_with('\n') {
                    index.write_all(b"\n")?;
                    index.sync_data()?;
                }
            }
        }
        Ok(Self {
            inner: Arc::new(Inner {
                dir: dir.to_path_buf(),
                fingerprint: fingerprint.into(),
            }),
        })
    }

    /// Directory this cache lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Fingerprint baked into this handle's keys.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.inner.fingerprint
    }

    /// The key `cell` is stored under in this cache.
    #[must_use]
    pub fn key_for(&self, cell: &Cell) -> CacheKey {
        CacheKey::derive(cell, &self.inner.fingerprint)
    }

    fn object_path(&self, key: &CacheKey) -> PathBuf {
        self.inner
            .dir
            .join(OBJECTS_DIR)
            .join(format!("{}.json", key.as_hex()))
    }

    /// Look `key` up, verifying the stored object end to end. A corrupt
    /// or torn object is *discarded* (deleted, with a stderr warning)
    /// and reported as a miss — the caller re-simulates; nothing is
    /// ever trusted past a failed check. A verifiable entry written
    /// under a different fingerprint or schema is left in place (it is
    /// unreachable from this handle's keys anyway; [`gc`] reclaims it)
    /// and reported as a miss.
    #[must_use]
    pub fn lookup(&self, key: &CacheKey) -> Option<CacheEntry> {
        let path = self.object_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "warning: result cache: reading {} failed ({e}); treating as a miss",
                    path.display()
                );
                return None;
            }
        };
        let discard = |why: &str| {
            eprintln!(
                "warning: result cache: discarding corrupt entry {} ({why}); re-simulating",
                path.display()
            );
            let _ = std::fs::remove_file(&path);
        };
        let entry = match parse_object(&text) {
            Ok(entry) => entry,
            Err(why) => {
                discard(&why);
                return None;
            }
        };
        if entry.key != key.as_hex() {
            discard("stored under the wrong key");
            return None;
        }
        if is_stale(&entry, &self.inner.fingerprint) {
            // Only reachable when the object was renamed by hand: the
            // fingerprint and versions are part of the key derivation.
            return None;
        }
        if entry.outcome().is_none() {
            discard("inconsistent payload (status carries no result)");
            return None;
        }
        Some(entry)
    }

    /// Persist `entry` under `key`: take the directory's cross-process
    /// lock, write the object atomically, call `mid` (the engine
    /// threads its `cache` failpoint through here, *between* the
    /// object rename and the index append — the exact window a crash
    /// leaves an unindexed object), then append one fsynced line to a
    /// freshly opened index.
    ///
    /// The whole rename + append sequence holds the lock, so a
    /// concurrent [`gc`] rebuild either runs entirely before this
    /// insert (and the fresh append lands in the rebuilt index) or
    /// entirely after (and the walk sees the new object) — it can no
    /// longer interleave and drop this entry's index line. A crash
    /// *inside* the window still leaves only an unindexed object
    /// (`flock` dies with the process), which is the already-recoverable
    /// state.
    ///
    /// Inserting a key that already has an object is an idempotent
    /// overwrite with identical content — concurrent workers and
    /// resumed runs may race to insert the same result; last rename
    /// wins and every version is equally correct.
    ///
    /// # Errors
    ///
    /// Any I/O error from the lock, the object write, or the index
    /// append. The engine treats an insert error as a warning, not a
    /// run failure.
    pub fn insert(
        &self,
        key: &CacheKey,
        entry: &CacheEntry,
        mid: impl FnOnce(),
    ) -> std::io::Result<()> {
        let _lock = lock_cache_dir(&self.inner.dir)?;
        telemetry::write_text_atomic(&self.object_path(key), &render_object(entry))?;
        mid();
        let line = format!(
            "{{\"kind\":\"insert\",\"key\":{:?},\"inserted_unix_ms\":{}}}\n",
            key.as_hex(),
            entry.inserted_unix_ms
        );
        self.append_index_line(&line)
    }

    /// Append one line to the index, reopening it under the (already
    /// held) directory lock. Reopening is the stale-descriptor fix: a
    /// `gc` that rebuilt the index renamed a new file into place, and
    /// only a fresh open observes it. A missing or empty index (first
    /// insert, or a rebuild interrupted before its rename) gets its
    /// header written first; a torn tail is healed exactly as at open.
    fn append_index_line(&self, line: &str) -> std::io::Result<()> {
        let index_path = self.inner.dir.join(INDEX_FILE);
        let mut index = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&index_path)?;
        let len = index.metadata()?.len();
        if len == 0 {
            index.write_all(index_header_line().as_bytes())?;
        } else if last_byte(&index_path)? != Some(b'\n') {
            index.write_all(b"\n")?;
        }
        index.write_all(line.as_bytes())?;
        index.sync_data()
    }
}

/// The final byte of the file at `path`, or `None` when it is empty.
fn last_byte(path: &Path) -> std::io::Result<Option<u8>> {
    let mut f = std::fs::File::open(path)?;
    if f.metadata()?.len() == 0 {
        return Ok(None);
    }
    f.seek(std::io::SeekFrom::End(-1))?;
    let mut buf = [0u8; 1];
    f.read_exact(&mut buf)?;
    Ok(Some(buf[0]))
}

fn index_header_ok(v: &serde::Value) -> bool {
    v.get("kind").and_then(serde::Value::as_str) == Some("cache_header")
        && v.get("format_version").and_then(serde::Value::as_u64)
            == Some(u64::from(CACHE_FORMAT_VERSION))
}

/// What a [`survey`] of a cache directory found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheSurvey {
    /// Verifiable entries under the surveyed fingerprint and current
    /// versions — the entries lookups can actually hit.
    pub live: u64,
    /// Verifiable entries under another fingerprint or older versions:
    /// unreachable, reclaimable by [`gc`].
    pub stale: u64,
    /// Objects that failed verification (torn, bit-rotted, or
    /// misnamed). Never trusted; [`gc`] deletes them.
    pub corrupt: u64,
    /// Leftover `.tmp` files from interrupted atomic writes.
    pub temps: u64,
    /// Live objects missing from the index (crash between object
    /// rename and index append); still hits, re-indexed by [`gc`].
    pub unindexed: u64,
    /// Index lines whose object no longer exists.
    pub dangling: u64,
    /// Unparseable index lines (torn appends); harmless, cleaned by
    /// [`gc`].
    pub index_garbage: u64,
    /// Total bytes under `objects/`.
    pub object_bytes: u64,
    /// Human-readable description of every corrupt object found.
    pub problems: Vec<String>,
}

impl CacheSurvey {
    /// Whether every object verified (stale entries and index damage
    /// are recoverable bookkeeping, not corruption).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0
    }
}

/// Verdict on one file under `objects/`.
enum ObjectClass {
    /// Verifies end to end under the surveyed fingerprint and versions.
    Live,
    /// Verifies, but was written under another fingerprint or older
    /// versions — unreachable from current keys.
    Stale,
    /// Fails verification; never trusted.
    Corrupt(String),
}

fn classify_object(path: &Path, name: &str, fingerprint: &str) -> ObjectClass {
    let stem = name.strip_suffix(".json").unwrap_or("");
    if stem.len() != 32 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
        return ObjectClass::Corrupt("not a cache object name".into());
    }
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return ObjectClass::Corrupt(format!("unreadable: {e}")),
    };
    let parsed = match parse_object(&text) {
        Ok(parsed) => parsed,
        Err(why) => return ObjectClass::Corrupt(why),
    };
    if parsed.key != stem {
        return ObjectClass::Corrupt("stored under the wrong key".into());
    }
    if is_stale(&parsed, fingerprint) {
        return ObjectClass::Stale;
    }
    if parsed.outcome().is_none() {
        return ObjectClass::Corrupt("inconsistent payload (status carries no result)".into());
    }
    ObjectClass::Live
}

fn read_index_keys(dir: &Path) -> (BTreeSet<String>, u64) {
    let mut keys = BTreeSet::new();
    let mut garbage = 0u64;
    let Ok(text) = std::fs::read_to_string(dir.join(INDEX_FILE)) else {
        return (keys, garbage);
    };
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::value_from_str(line) {
            Ok(v) if i == 0 && index_header_ok(&v) => {}
            Ok(v) if v.get("kind").and_then(serde::Value::as_str) == Some("insert") => {
                match v.get("key").and_then(serde::Value::as_str) {
                    Some(k) => {
                        keys.insert(k.to_string());
                    }
                    None => garbage += 1,
                }
            }
            _ => garbage += 1,
        }
    }
    (keys, garbage)
}

/// Walk the cache at `dir`, verifying every object against
/// `fingerprint` and cross-checking the index. Read-only: nothing is
/// modified, so `verify` can run concurrently with live runs.
///
/// # Errors
///
/// Only filesystem errors walking the directory; a missing `objects/`
/// dir surveys as empty.
pub fn survey(dir: &Path, fingerprint: &str) -> std::io::Result<CacheSurvey> {
    let mut s = CacheSurvey::default();
    let (indexed, garbage) = read_index_keys(dir);
    s.index_garbage = garbage;
    let objects = dir.join(OBJECTS_DIR);
    let entries = match std::fs::read_dir(&objects) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            s.dangling = indexed.len() as u64;
            return Ok(s);
        }
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        s.object_bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
        if name.ends_with(".tmp") {
            s.temps += 1;
            continue;
        }
        match classify_object(&path, &name, fingerprint) {
            ObjectClass::Live => {
                s.live += 1;
                let stem = name.strip_suffix(".json").unwrap_or("");
                if !indexed.contains(stem) {
                    s.unindexed += 1;
                }
            }
            ObjectClass::Stale => s.stale += 1,
            ObjectClass::Corrupt(why) => {
                s.corrupt += 1;
                s.problems.push(format!("{}: {why}", path.display()));
            }
        }
    }
    s.dangling = indexed
        .iter()
        .filter(|k| !objects.join(format!("{k}.json")).exists())
        .count() as u64;
    Ok(s)
}

/// What [`gc`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Live entries kept (never removed, whatever the index said).
    pub kept: u64,
    /// Stale (wrong fingerprint/version) objects deleted.
    pub removed_stale: u64,
    /// Corrupt objects deleted.
    pub removed_corrupt: u64,
    /// Interrupted `.tmp` files deleted.
    pub removed_temps: u64,
}

/// Reclaim the cache at `dir`: delete corrupt objects, `.tmp`
/// leftovers, and entries stale under `fingerprint`, then atomically
/// rewrite the index from the surviving live objects (which also
/// re-indexes objects a crash left unindexed and drops dangling or
/// garbage index lines). Live entries are never removed — recovery is
/// idempotent.
///
/// The walk *and* the rewrite run under the directory's cross-process
/// lock, so gc serializes against every concurrent [`ResultCache::insert`]
/// (from this process or any other): an insert completes either before
/// the walk (its object is kept and re-indexed) or after the rewrite
/// (its fresh append lands in the rebuilt index) — never in between,
/// where its index line used to be silently dropped.
///
/// # Errors
///
/// Filesystem errors taking the lock, walking `dir`, or rewriting the
/// index.
pub fn gc(dir: &Path, fingerprint: &str) -> std::io::Result<GcOutcome> {
    let mut out = GcOutcome::default();
    let objects = dir.join(OBJECTS_DIR);
    if !objects.exists() {
        return Ok(out);
    }
    let _lock = lock_cache_dir(dir)?;
    let mut live = BTreeSet::new();
    let entries = match std::fs::read_dir(&objects) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            std::fs::remove_file(&path)?;
            out.removed_temps += 1;
            continue;
        }
        match classify_object(&path, &name, fingerprint) {
            ObjectClass::Live => {
                live.insert(name.strip_suffix(".json").unwrap_or("").to_string());
                out.kept += 1;
            }
            ObjectClass::Stale => {
                std::fs::remove_file(&path)?;
                out.removed_stale += 1;
            }
            ObjectClass::Corrupt(_) => {
                std::fs::remove_file(&path)?;
                out.removed_corrupt += 1;
            }
        }
    }
    let mut index = index_header_line();
    for key in &live {
        index.push_str(&format!(
            "{{\"kind\":\"insert\",\"key\":{key:?},\"inserted_unix_ms\":0}}\n"
        ));
    }
    telemetry::write_text_atomic(&dir.join(INDEX_FILE), &index)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CellKind;
    use crate::transpose::{TransposeConfig, TransposeVariant};
    use membound_sim::Device;

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("membound_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn transpose_cell(n: usize, variant: TransposeVariant) -> Cell {
        Cell::transpose(
            format!("{n}"),
            Device::MangoPiMqPro.label(),
            &Device::MangoPiMqPro.spec(),
            variant,
            TransposeConfig::with_block(n, 16),
        )
    }

    fn sample_entry(cache: &ResultCache, cell: &Cell) -> (CacheKey, CacheEntry) {
        let key = cache.key_for(cell);
        let outcome = CellOutcome::DoesNotFit;
        let entry = CacheEntry::capture(cache.fingerprint(), &key, cell, &outcome, 0.5).unwrap();
        (key, entry)
    }

    /// Every inventory entry — not just the paper's four — must
    /// round-trip through the selection path (`select` resolves both its
    /// label and its exact preset name to it uniquely), produce
    /// a serializable spec, and yield a cache key distinct from every
    /// other device's for the same workload. Guards against new presets
    /// being reachable by sweep code but invisible (or colliding) in
    /// the device-filter and cache layers.
    #[test]
    fn every_device_round_trips_through_selection_spec_and_cache_key() {
        let cell = transpose_cell(64, TransposeVariant::Naive);
        let mut keys = std::collections::BTreeSet::new();
        for &device in Device::all() {
            assert_eq!(
                Device::select(device.label()),
                Ok(vec![device]),
                "{device}: label must select itself"
            );
            let by_name =
                Device::select(&format!("{device:?}")).unwrap_or_else(|e| panic!("{device}: {e}"));
            assert_eq!(by_name, vec![device], "{device}: preset name is unique");

            let spec = device.spec();
            let json = serde_json::to_string(&spec).expect("spec serializes");
            let back: membound_sim::DeviceSpec =
                serde_json::from_str(&json).expect("spec deserializes");
            assert_eq!(back, spec, "{device}: spec JSON round-trip");

            let mut on_device = cell.clone();
            on_device.device = device.label().into();
            on_device.spec = spec;
            assert!(
                keys.insert(CacheKey::derive(&on_device, "fp-a").as_hex().to_owned()),
                "{device}: cache key collides with another device"
            );
        }
        assert_eq!(keys.len(), Device::all().len());
    }

    #[test]
    fn keys_are_sensitive_to_everything_that_matters() {
        let cell = transpose_cell(128, TransposeVariant::Blocking);
        let base = CacheKey::derive(&cell, "fp-a");

        // Same material, same key.
        assert_eq!(base, CacheKey::derive(&cell, "fp-a"));

        // Fingerprint, workload size, variant/schedule, and device all
        // change the key.
        assert_ne!(base, CacheKey::derive(&cell, "fp-b"));
        assert_ne!(
            base,
            CacheKey::derive(&transpose_cell(256, TransposeVariant::Blocking), "fp-a")
        );
        assert_ne!(
            base,
            CacheKey::derive(&transpose_cell(128, TransposeVariant::Dynamic), "fp-a")
        );
        let mut other_device = cell.clone();
        other_device.spec = Device::StarFiveVisionFive.spec();
        assert_ne!(base, CacheKey::derive(&other_device, "fp-a"));

        // The panel label is presentation-only and excluded.
        let mut renamed_panel = cell.clone();
        renamed_panel.panel = "other panel".into();
        assert_eq!(base, CacheKey::derive(&renamed_panel, "fp-a"));

        // The block size is part of the schedule even when the variant
        // label matches.
        let mut cfg_cell = cell;
        if let CellKind::Transpose { cfg, .. } = &mut cfg_cell.kind {
            cfg.block = 32;
        }
        assert_ne!(base, CacheKey::derive(&cfg_cell, "fp-a"));
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let dir = test_dir("roundtrip");
        let cache = ResultCache::open_with_fingerprint(&dir, "fp").unwrap();
        let cell = transpose_cell(128, TransposeVariant::Naive);
        let (key, entry) = sample_entry(&cache, &cell);
        assert!(cache.lookup(&key).is_none(), "cold cache misses");
        cache.insert(&key, &entry, || {}).unwrap();
        let hit = cache.lookup(&key).expect("warm cache hits");
        assert_eq!(hit, entry);
        assert_eq!(hit.outcome(), Some(CachedOutcome::DoesNotFit));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_objects_are_discarded_not_trusted() {
        let dir = test_dir("corrupt");
        let cache = ResultCache::open_with_fingerprint(&dir, "fp").unwrap();
        let cell = transpose_cell(128, TransposeVariant::Naive);
        let (key, entry) = sample_entry(&cache, &cell);
        cache.insert(&key, &entry, || {}).unwrap();

        let path = dir.join(OBJECTS_DIR).join(format!("{}.json", key.as_hex()));
        for garbage in ["", "{torn", "{}\n0000000000000000\n"] {
            std::fs::write(&path, garbage).unwrap();
            assert!(
                cache.lookup(&key).is_none(),
                "garbage {garbage:?} must miss"
            );
            assert!(!path.exists(), "garbage {garbage:?} must be deleted");
            cache.insert(&key, &entry, || {}).unwrap();
        }

        // A truncated (torn) object: payload line only, no digest.
        let full = render_object(&entry);
        let payload_only = &full[..full.find('\n').unwrap() + 1];
        std::fs::write(&path, payload_only).unwrap();
        assert!(cache.lookup(&key).is_none(), "torn object must miss");
        assert!(!path.exists(), "torn object must be deleted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unindexed_objects_still_hit_and_gc_reindexes_them() {
        let dir = test_dir("unindexed");
        let cache = ResultCache::open_with_fingerprint(&dir, "fp").unwrap();
        let cell = transpose_cell(128, TransposeVariant::Naive);
        let (key, entry) = sample_entry(&cache, &cell);
        // Simulate a crash between the object rename and the index
        // append: write the object directly, never touch the index.
        telemetry::write_text_atomic(
            &dir.join(OBJECTS_DIR).join(format!("{}.json", key.as_hex())),
            &render_object(&entry),
        )
        .unwrap();
        assert!(cache.lookup(&key).is_some(), "unindexed object still hits");
        let s = survey(&dir, "fp").unwrap();
        assert_eq!((s.live, s.unindexed), (1, 1));
        let g = gc(&dir, "fp").unwrap();
        assert_eq!(g.kept, 1);
        let s = survey(&dir, "fp").unwrap();
        assert_eq!((s.live, s.unindexed), (1, 0), "gc re-indexed the object");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_index_tail_is_healed_on_reopen() {
        let dir = test_dir("torn_index");
        let cache = ResultCache::open_with_fingerprint(&dir, "fp").unwrap();
        let cell = transpose_cell(128, TransposeVariant::Naive);
        let (key, entry) = sample_entry(&cache, &cell);
        cache.insert(&key, &entry, || {}).unwrap();
        drop(cache);
        // Tear the index mid-append.
        let index_path = dir.join(INDEX_FILE);
        let text = std::fs::read_to_string(&index_path).unwrap();
        std::fs::write(&index_path, &text[..text.len() - 10]).unwrap();

        let cache = ResultCache::open_with_fingerprint(&dir, "fp").unwrap();
        assert!(
            cache.lookup(&key).is_some(),
            "objects are untouched by index damage"
        );
        let cell2 = transpose_cell(256, TransposeVariant::Naive);
        let (key2, entry2) = sample_entry(&cache, &cell2);
        cache.insert(&key2, &entry2, || {}).unwrap();
        let s = survey(&dir, "fp").unwrap();
        assert_eq!(s.live, 2);
        assert_eq!(s.index_garbage, 1, "the torn line is isolated, not spliced");
        assert!(s.is_clean());
        let _ = gc(&dir, "fp").unwrap();
        let s = survey(&dir, "fp").unwrap();
        assert_eq!(s.index_garbage, 0, "gc rewrote the index");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_removes_stale_and_corrupt_but_never_live() {
        let dir = test_dir("gc");
        let old = ResultCache::open_with_fingerprint(&dir, "fp-old").unwrap();
        let new = ResultCache::open_with_fingerprint(&dir, "fp-new").unwrap();
        let cell = transpose_cell(128, TransposeVariant::Naive);
        let (old_key, old_entry) = sample_entry(&old, &cell);
        old.insert(&old_key, &old_entry, || {}).unwrap();
        let (new_key, new_entry) = sample_entry(&new, &cell);
        new.insert(&new_key, &new_entry, || {}).unwrap();
        std::fs::write(dir.join(OBJECTS_DIR).join("nonsense.json"), "{").unwrap();
        std::fs::write(dir.join(OBJECTS_DIR).join(".x.json.tmp"), "half").unwrap();

        let s = survey(&dir, "fp-new").unwrap();
        assert_eq!((s.live, s.stale, s.corrupt, s.temps), (1, 1, 1, 1));
        assert!(!s.is_clean());

        let g = gc(&dir, "fp-new").unwrap();
        assert_eq!(
            (g.kept, g.removed_stale, g.removed_corrupt, g.removed_temps),
            (1, 1, 1, 1)
        );
        assert!(new.lookup(&new_key).is_some(), "live entry survived gc");
        assert!(old.lookup(&old_key).is_none(), "stale entry reclaimed");
        let s = survey(&dir, "fp-new").unwrap();
        assert_eq!((s.live, s.stale, s.corrupt, s.temps), (1, 0, 0, 0));
        assert!(s.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a handle that outlives a `gc` rebuild used to keep
    /// an append descriptor pointing at the *renamed-away* index inode,
    /// so every later insert's journal line was written into the void.
    /// With per-append reopens, an insert after gc must land in the
    /// rebuilt index.
    #[test]
    fn inserts_after_gc_land_in_the_rebuilt_index() {
        let dir = test_dir("stale_fd");
        let cache = ResultCache::open_with_fingerprint(&dir, "fp").unwrap();
        let (key_a, entry_a) = sample_entry(&cache, &transpose_cell(128, TransposeVariant::Naive));
        cache.insert(&key_a, &entry_a, || {}).unwrap();

        // Rebuild the index while the handle stays open.
        let g = gc(&dir, "fp").unwrap();
        assert_eq!(g.kept, 1);

        let (key_b, entry_b) =
            sample_entry(&cache, &transpose_cell(256, TransposeVariant::Blocking));
        cache.insert(&key_b, &entry_b, || {}).unwrap();

        let index = std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap();
        assert!(
            index.contains(key_b.as_hex()),
            "post-gc insert must append to the rebuilt index, not an orphan inode"
        );
        let s = survey(&dir, "fp").unwrap();
        assert_eq!(
            (s.live, s.unindexed, s.dangling, s.index_garbage),
            (2, 0, 0, 0),
            "{s:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a `gc` rebuild racing an insert could walk `objects/`
    /// before the insert's rename and rewrite the index after its
    /// append, dropping the live entry's index line. The directory lock
    /// makes the two atomic with respect to each other: whatever the
    /// timing, the store must end with every live object indexed. The
    /// insert is parked mid-window (between rename and append — the
    /// same hole the engine's `cache` failpoint site exposes) while gc
    /// is invited to interleave.
    #[test]
    fn gc_racing_an_insert_never_drops_an_index_line() {
        let dir = test_dir("interleave");
        let cache = ResultCache::open_with_fingerprint(&dir, "fp").unwrap();
        let (key_a, entry_a) = sample_entry(&cache, &transpose_cell(128, TransposeVariant::Naive));
        cache.insert(&key_a, &entry_a, || {}).unwrap();

        let (key_b, entry_b) =
            sample_entry(&cache, &transpose_cell(256, TransposeVariant::Blocking));
        let in_window = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let gc_thread = scope.spawn(|| {
                // Let the insert reach the rename→append window first so
                // gc genuinely contends with a mid-flight insert.
                while !in_window.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::yield_now();
                }
                gc(&dir, "fp").expect("gc under contention")
            });
            cache
                .insert(&key_b, &entry_b, || {
                    in_window.store(true, std::sync::atomic::Ordering::Release);
                    // Hold the window open long enough for gc to be
                    // blocked on the lock rather than not yet started.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                })
                .expect("insert under contention");
            gc_thread.join().expect("gc thread");
        });

        let index = std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap();
        assert!(index.contains(key_a.as_hex()), "pre-existing entry indexed");
        assert!(
            index.contains(key_b.as_hex()),
            "racing insert's index line must survive the gc rebuild"
        );
        let s = survey(&dir, "fp").unwrap();
        assert_eq!(
            (s.live, s.unindexed, s.dangling, s.index_garbage),
            (2, 0, 0, 0),
            "{s:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_directories_are_refused() {
        let dir = test_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(INDEX_FILE), "this is not a cache index\n").unwrap();
        let err = ResultCache::open_with_fingerprint(&dir, "fp").unwrap_err();
        assert!(
            err.to_string()
                .contains("not a membound result-cache index"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
