#![warn(missing_docs)]

//! Durable artifact layer for the SecureLoop reproduction.
//!
//! The pipeline's persisted state (sweep checkpoints, the candidate
//! cache, the service journal) and the committed bench baselines are
//! written and read through this crate, on one shared path:
//!
//! * **Envelope** — [`seal`] appends a one-line footer carrying the
//!   payload byte length and an FNV-1a 64 checksum; [`open`] verifies
//!   it and classifies the artifact as [`Integrity::Verified`],
//!   [`Integrity::Legacy`] (pre-envelope file, no footer), or
//!   [`Integrity::Damaged`].
//! * **Durable writes** — [`write_durable`] does temp-write →
//!   fsync(temp) → rotate the previous generation to `.bak` → rename →
//!   fsync(parent dir), with exponential-backoff retries governed by a
//!   [`DurabilityPolicy`]. Rename alone is not power-loss durable;
//!   the fsyncs are what make the rename stick.
//! * **Persistent types** — a type becomes persistent by implementing
//!   [`Persistent`]: its kind, its version range, its header and how
//!   to read and write one record. [`save`] writes it durably; [`load`]
//!   walks a salvage ladder (primary strict → primary salvage → `.bak`
//!   strict → `.bak` salvage) and reports what it did as warnings
//!   instead of discarding state. Salvage recovers intact records from
//!   a torn tail without trusting the damaged region.
//! * **Failure injection** — [`crash_point`] hooks let tests abort the
//!   process between any two steps of the write path, and [`fault`]
//!   injects deterministic I/O errors with a budget (transient) or
//!   without one (ENOSPC-style persistent failure).
//!
//! The crate depends only on `secureloop-json`, which has no
//! dependencies of its own, so every persistence site can use it.

use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use secureloop_json::Json;

/// Marker that starts an envelope footer line.
pub const FOOTER_PREFIX: &str = "//#secureloop-artifact";

/// Envelope format version emitted by [`seal`].
pub const ENVELOPE_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed artifact persistence error; every variant names the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// An I/O operation failed (create, write, fsync, rename, read).
    Io {
        /// The artifact path involved.
        path: String,
        /// Which operation failed (`"write"`, `"fsync"`, `"rename"`, ...).
        op: &'static str,
        /// The underlying OS error text.
        message: String,
    },
    /// The file exists but holds zero bytes — a crash landed between
    /// create and write. Treated as absent-with-warning by loaders.
    Empty {
        /// The artifact path involved.
        path: String,
    },
    /// The contents could not be understood even after salvage and the
    /// `.bak` fallback.
    Corrupt {
        /// The artifact path involved.
        path: String,
        /// What went wrong, including the salvage ladder's findings.
        message: String,
    },
}

impl ArtifactError {
    /// The artifact path this error is about.
    pub fn path(&self) -> &str {
        match self {
            ArtifactError::Io { path, .. }
            | ArtifactError::Empty { path }
            | ArtifactError::Corrupt { path, .. } => path,
        }
    }

    /// True for the 0-byte-file case loaders treat as absent.
    pub fn is_empty(&self) -> bool {
        matches!(self, ArtifactError::Empty { .. })
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, op, message } => {
                write!(f, "artifact '{path}': {op} failed: {message}")
            }
            ArtifactError::Empty { path } => {
                write!(f, "artifact '{path}' is empty (0 bytes)")
            }
            ArtifactError::Corrupt { path, message } => {
                write!(f, "artifact '{path}' is corrupt: {message}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// What [`open`] concluded about an artifact's envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Integrity {
    /// Footer present, length and checksum both match.
    Verified,
    /// No footer at all — a pre-envelope artifact. Accepted silently.
    Legacy,
    /// A footer (or something that looks like one) is present but the
    /// artifact fails verification; the reason is carried along.
    Damaged(String),
}

/// Append the envelope footer to `payload`.
///
/// The footer records the exact payload byte length and its FNV-1a 64
/// checksum, so [`open`] can recover the payload byte-for-byte and
/// detect truncation, bit-rot, and torn writes.
pub fn seal(payload: &str) -> String {
    let sum = fnv1a64(payload.as_bytes());
    let sep = if payload.is_empty() || payload.ends_with('\n') {
        ""
    } else {
        "\n"
    };
    format!(
        "{payload}{sep}{FOOTER_PREFIX} v{ENVELOPE_VERSION} len={} fnv1a={sum:016x}\n",
        payload.len()
    )
}

/// Split `text` into payload and [`Integrity`].
///
/// Files without a footer are [`Integrity::Legacy`] and returned whole;
/// a present-but-failing footer is [`Integrity::Damaged`] and the
/// payload returned is the region the footer claims (clamped to the
/// file), which is what the salvage scanners should work on.
pub fn open(text: &str) -> (&str, Integrity) {
    let Some(footer_start) = find_footer(text) else {
        return (text, Integrity::Legacy);
    };
    let footer_line = text[footer_start..].lines().next().unwrap_or("");
    let after = &text[footer_start + footer_line.len()..];
    let Some((len, sum)) = parse_footer(footer_line) else {
        return (
            &text[..footer_start],
            Integrity::Damaged(format!("malformed envelope footer '{footer_line}'")),
        );
    };
    if !after.trim().is_empty() {
        return (
            &text[..footer_start],
            Integrity::Damaged("trailing data after envelope footer".to_string()),
        );
    }
    if len > footer_start {
        // Footer claims more payload than the file holds: truncated.
        return (
            &text[..footer_start],
            Integrity::Damaged(format!(
                "payload truncated: footer claims {len} bytes, {footer_start} present"
            )),
        );
    }
    if !text.is_char_boundary(len) {
        // Only corruption puts the claimed end inside a character.
        return (
            &text[..footer_start],
            Integrity::Damaged(format!("payload length mismatch: {len} splits a character")),
        );
    }
    let payload = &text[..len];
    if !text[len..footer_start].trim().is_empty() {
        return (
            payload,
            Integrity::Damaged(
                "payload length mismatch: data between payload end and footer".to_string(),
            ),
        );
    }
    let actual = fnv1a64(payload.as_bytes());
    if actual != sum {
        return (
            payload,
            Integrity::Damaged(format!(
                "checksum mismatch: footer fnv1a={sum:016x}, payload fnv1a={actual:016x}"
            )),
        );
    }
    (payload, Integrity::Verified)
}

/// Byte offset of the footer line start, if a footer is present.
///
/// Prefers the last occurrence at a line start (the footer `seal`
/// writes). If none exists but the marker appears mid-line, that still
/// counts: legacy files never contain the marker, so a glued-together
/// footer means truncation ate the separating newline — better to
/// report Damaged than to pass the torn payload off as Legacy.
fn find_footer(text: &str) -> Option<usize> {
    let mut end = text.len();
    loop {
        match text[..end].rfind(FOOTER_PREFIX) {
            Some(idx) if idx == 0 || text.as_bytes()[idx - 1] == b'\n' => return Some(idx),
            Some(idx) => end = idx,
            None => break,
        }
    }
    text.rfind(FOOTER_PREFIX)
}

fn parse_footer(line: &str) -> Option<(usize, u64)> {
    let rest = line.strip_prefix(FOOTER_PREFIX)?.trim();
    let mut len = None;
    let mut sum = None;
    let mut version_ok = false;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix('v') {
            version_ok = v.parse::<u32>().is_ok();
        } else if let Some(v) = tok.strip_prefix("len=") {
            len = v.parse::<usize>().ok();
        } else if let Some(v) = tok.strip_prefix("fnv1a=") {
            sum = u64::from_str_radix(v, 16).ok();
        }
    }
    if !version_ok {
        return None;
    }
    Some((len?, sum?))
}

// ---------------------------------------------------------------------------
// Durability policy
// ---------------------------------------------------------------------------

/// How hard [`write_durable`] tries to make a write stick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// fsync the temp file and the parent directory (`full`). Turning
    /// this off (`fast`) keeps the atomic-rename + checksum + backup
    /// behaviour but skips the flushes.
    pub fsync: bool,
    /// How many times to retry the whole write after a failure.
    pub retries: u32,
    /// Base backoff; attempt `n` sleeps `backoff << n` before retrying.
    pub backoff: Duration,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            fsync: true,
            retries: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

impl DurabilityPolicy {
    /// The `full` policy: fsync on (default).
    pub fn full() -> Self {
        DurabilityPolicy::default()
    }

    /// The `fast` policy: atomic rename + checksum + backup, no fsync.
    pub fn fast() -> Self {
        DurabilityPolicy {
            fsync: false,
            ..DurabilityPolicy::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Crash points
// ---------------------------------------------------------------------------

/// Named points the durable write path passes through, in order.
pub const CRASH_POINTS: &[&str] = &[
    "after-temp-write",
    "after-temp-fsync",
    "after-backup",
    "after-rename",
];

struct CrashPlan {
    point: String,
    nth: u64,
}

static CRASH_PLAN: OnceLock<Option<CrashPlan>> = OnceLock::new();
static CRASH_HITS: AtomicU64 = AtomicU64::new(0);

fn crash_plan() -> &'static Option<CrashPlan> {
    CRASH_PLAN.get_or_init(|| {
        let spec = std::env::var("SECURELOOP_CRASH_POINT").ok()?;
        let (point, nth) = match spec.split_once('@') {
            Some((p, n)) => (p.to_string(), n.parse().unwrap_or(1)),
            None => (spec, 1),
        };
        Some(CrashPlan { point, nth })
    })
}

/// Kill-injection hook: aborts the process when `name` matches the
/// `SECURELOOP_CRASH_POINT=<point>[@nth]` environment plan. A no-op in
/// normal operation; `abort()` (not `exit`) so destructors and buffered
/// flushes do not soften the crash.
pub fn crash_point(name: &str) {
    if let Some(plan) = crash_plan() {
        if plan.point == name && CRASH_HITS.fetch_add(1, Ordering::SeqCst) + 1 == plan.nth {
            eprintln!("secureloop-artifact: crash point '{name}' hit, aborting");
            std::process::abort();
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Deterministic I/O fault injection for the durable write path.
///
/// Faults can be armed programmatically ([`fault::arm`], used by the
/// mapper's `FaultScope` under its process-wide lock) or via
/// `SECURELOOP_ARTIFACT_IO_FAIL=<n|all>` for subprocess tests. A finite
/// budget models transient errors (retries eventually succeed);
/// [`fault::arm_all`] models a persistently full or read-only disk.
pub mod fault {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::OnceLock;

    /// Remaining injected-failure budget.
    /// -1 = disarmed, i64::MAX = unlimited ("all").
    static BUDGET: AtomicI64 = AtomicI64::new(-1);
    static ENV_ARMED: OnceLock<()> = OnceLock::new();

    fn arm_from_env() {
        ENV_ARMED.get_or_init(|| {
            if let Ok(spec) = std::env::var("SECURELOOP_ARTIFACT_IO_FAIL") {
                if spec == "all" {
                    BUDGET.store(i64::MAX, Ordering::SeqCst);
                } else if let Ok(n) = spec.parse::<i64>() {
                    BUDGET.store(n.max(0), Ordering::SeqCst);
                }
            }
        });
    }

    /// Arm a finite budget of injected write failures.
    pub fn arm(budget: u64) {
        BUDGET.store(i64::try_from(budget).unwrap_or(i64::MAX), Ordering::SeqCst);
    }

    /// Arm unlimited injected failures (persistent ENOSPC/EROFS model).
    pub fn arm_all() {
        BUDGET.store(i64::MAX, Ordering::SeqCst);
    }

    /// Disarm injection entirely.
    pub fn disarm() {
        BUDGET.store(-1, Ordering::SeqCst);
    }

    /// Consume one fault if armed with budget remaining.
    pub(crate) fn take() -> bool {
        arm_from_env();
        let mut cur = BUDGET.load(Ordering::SeqCst);
        loop {
            if cur <= 0 {
                return false;
            }
            let next = if cur == i64::MAX { cur } else { cur - 1 };
            match BUDGET.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(v) => cur = v,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Durable write
// ---------------------------------------------------------------------------

/// The `.bak` (last-known-good generation) path for an artifact.
pub fn backup_path(path: &Path) -> PathBuf {
    path.with_extension("bak")
}

/// The temp path used during a durable write (matches the pre-existing
/// `.tmp` convention so the stale-tmp sweepers keep working).
pub fn temp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Seal `payload` in an envelope and write it durably to `path`:
/// temp-write → fsync(temp) → rotate previous generation to `.bak` →
/// rename → fsync(parent dir), retrying with exponential backoff per
/// `policy`. The previous generation is preserved via `hard_link`, so
/// the primary file is present at every instant of the sequence.
pub fn write_durable(
    path: &Path,
    payload: &str,
    policy: &DurabilityPolicy,
) -> Result<(), ArtifactError> {
    let sealed = seal(payload);
    let mut attempt = 0u32;
    loop {
        match write_once(path, &sealed, policy) {
            Ok(()) => return Ok(()),
            Err(e) if attempt < policy.retries => {
                let shift = attempt.min(16);
                std::thread::sleep(policy.backoff.saturating_mul(1u32 << shift));
                attempt += 1;
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
}

fn io_err(path: &Path, op: &'static str, e: impl fmt::Display) -> ArtifactError {
    ArtifactError::Io {
        path: path.display().to_string(),
        op,
        message: e.to_string(),
    }
}

fn write_once(path: &Path, sealed: &str, policy: &DurabilityPolicy) -> Result<(), ArtifactError> {
    let tmp = temp_path(path);
    let result = write_once_inner(path, &tmp, sealed, policy);
    if result.is_err() {
        // A failed attempt must not strand a torn temp file; after a
        // successful rename the temp no longer exists so this is a no-op.
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn write_once_inner(
    path: &Path,
    tmp: &Path,
    sealed: &str,
    policy: &DurabilityPolicy,
) -> Result<(), ArtifactError> {
    if fault::take() {
        return Err(io_err(path, "write", "injected I/O fault"));
    }
    let mut f = File::create(tmp).map_err(|e| io_err(path, "create", e))?;
    f.write_all(sealed.as_bytes())
        .map_err(|e| io_err(path, "write", e))?;
    crash_point("after-temp-write");
    if policy.fsync {
        f.sync_data().map_err(|e| io_err(path, "fsync", e))?;
    }
    drop(f);
    crash_point("after-temp-fsync");
    if path.exists() {
        let bak = backup_path(path);
        match fs::remove_file(&bak) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(path, "rotate-backup", e)),
        }
        // hard_link keeps the primary present throughout; fall back to a
        // copy on filesystems without hard links.
        if fs::hard_link(path, &bak).is_err() {
            fs::copy(path, &bak)
                .map(|_| ())
                .map_err(|e| io_err(path, "rotate-backup", e))?;
        }
    }
    crash_point("after-backup");
    fs::rename(tmp, path).map_err(|e| io_err(path, "rename", e))?;
    crash_point("after-rename");
    if policy.fsync {
        if let Some(dir) = path.parent() {
            // Directory fsync pins the rename; best-effort on platforms
            // where directories cannot be opened.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// Remove a stale temp file ([`temp_path`]) left beside `path` by a
/// write that died between temp-write and rename (power loss,
/// SIGKILL). The orphan is a torn partial write and is never trusted;
/// call this before the first write to `path`. Returns whether an
/// orphan was removed.
pub fn remove_stale_temp(path: &Path) -> bool {
    fs::remove_file(temp_path(path)).is_ok()
}

// ---------------------------------------------------------------------------
// Persistent artifacts
// ---------------------------------------------------------------------------

/// A type persisted as one sealed JSON object laid out as
///
/// ```text
/// {"version": V, "kind": KIND, <HEADER fields>, <RECORDS arrays>}
/// ```
///
/// A type states its kind, the versions it reads, its header and how
/// one record of each array is written and read. This crate owns the
/// rest: the version/kind check, [`save`] and the salvage-ladder
/// [`load`], whose strict and salvage rungs read records with the same
/// [`Persistent::read_record`].
pub trait Persistent: Sized {
    /// The `kind` tag; a file of another kind is refused, never mined.
    const KIND: &'static str;
    /// What a version error calls the artifact (`"checkpoint"`, ...).
    const NOUN: &'static str;
    /// Schema versions this type reads; it writes the last one.
    const VERSIONS: RangeInclusive<u64>;
    /// Header field names, in file order after `kind`.
    const HEADER: &'static [&'static str];
    /// Record array names, in file order after the header.
    const RECORDS: &'static [&'static str];
    /// Record arrays an older version lacks; a missing one reads as
    /// empty. Any other missing array is an error.
    const OPTIONAL_RECORDS: &'static [&'static str] = &[];

    /// The header values, one per [`Persistent::HEADER`] name.
    fn header(&self) -> Vec<Json>;

    /// A value without records, from an object holding the header.
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed header field.
    fn from_header(header: &Json) -> Result<Self, String>;

    /// The records of array `array`, in file order.
    fn write_records(&self, array: &str) -> Vec<Json>;

    /// Parse one record of array `array` and add it to `self`. A record
    /// that fails to parse leaves `self` unchanged.
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field.
    fn read_record(&mut self, array: &str, record: &Json) -> Result<(), String>;

    /// Serialise: version, kind, header, then the record arrays.
    fn to_json(&self) -> Json {
        let mut v = Json::obj()
            .field("version", *Self::VERSIONS.end())
            .field("kind", Self::KIND);
        for (name, value) in Self::HEADER.iter().zip(self.header()) {
            v = v.field(name, value);
        }
        for name in Self::RECORDS {
            v = v.field(name, Json::Arr(self.write_records(name)));
        }
        v
    }

    /// Parse an object written by [`Persistent::to_json`], strictly:
    /// the first bad record fails the whole parse.
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field, including a version or
    /// kind mismatch.
    fn from_json(v: &Json) -> Result<Self, String> {
        check_schema::<Self>(v["version"].as_u64(), v["kind"].as_str())?;
        let mut value = Self::from_header(v)?;
        for name in Self::RECORDS {
            let records = match &v[*name] {
                Json::Null if Self::OPTIONAL_RECORDS.contains(name) => continue,
                list => list.as_array().ok_or_else(|| field_err(name))?,
            };
            for record in records {
                value.read_record(name, record)?;
            }
        }
        Ok(value)
    }
}

fn field_err(field: &str) -> String {
    format!("missing or invalid field '{field}'")
}

/// The version/kind gate both rungs apply before reading a record, so a
/// wrong-schema file is never record-mined into the current schema.
fn check_schema<T: Persistent>(version: Option<u64>, kind: Option<&str>) -> Result<(), String> {
    let version = version.ok_or_else(|| field_err("version"))?;
    if !T::VERSIONS.contains(&version) {
        let (lo, hi) = (T::VERSIONS.start(), T::VERSIONS.end());
        let expected = if lo == hi {
            hi.to_string()
        } else {
            format!("{lo}..={hi}")
        };
        return Err(format!(
            "unsupported {} version {version} (expected {expected})",
            T::NOUN
        ));
    }
    if kind != Some(T::KIND) {
        return Err(field_err("kind"));
    }
    Ok(())
}

/// Serialise `value` and write it durably to `path`
/// ([`write_durable`]).
///
/// # Errors
///
/// [`ArtifactError::Io`] once the policy's retries are spent.
pub fn save<T: Persistent>(
    value: &T,
    path: &Path,
    policy: &DurabilityPolicy,
) -> Result<(), ArtifactError> {
    write_durable(path, &value.to_json().pretty(), policy)
}

/// Where a recovered artifact ultimately came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSource {
    /// The primary file, parsed strictly.
    Primary,
    /// The primary file, recovered record-by-record.
    PrimarySalvaged,
    /// The `.bak` last-known-good generation.
    Backup,
    /// The `.bak` generation, recovered record-by-record.
    BackupSalvaged,
}

/// A successfully (possibly partially) recovered artifact.
#[derive(Debug, Clone)]
pub struct Recovered<T> {
    /// The recovered value.
    pub value: T,
    /// Which rung of the salvage ladder produced it.
    pub source: LoadSource,
    /// Human-readable notes about anything lossy that happened.
    pub warnings: Vec<String>,
}

/// Read an artifact file and verify its envelope. A 0-byte file is
/// [`ArtifactError::Empty`]; read failures are [`ArtifactError::Io`].
fn read_verified(path: &Path) -> Result<(String, Integrity), ArtifactError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, "read", e))?;
    if text.is_empty() {
        return Err(ArtifactError::Empty {
            path: path.display().to_string(),
        });
    }
    let (payload, integrity) = open(&text);
    Ok((payload.to_string(), integrity))
}

/// Load a `T` through the salvage ladder: primary strict → primary
/// salvage (only when the envelope or the strict parse failed) → `.bak`
/// strict → `.bak` salvage. Every rung below the first adds a warning.
///
/// # Errors
///
/// A 0-byte primary without a usable backup is [`ArtifactError::Empty`],
/// so callers can treat the artifact as absent; an unreadable primary
/// is [`ArtifactError::Io`]; [`ArtifactError::Corrupt`] when every rung
/// fails.
pub fn load<T: Persistent>(path: &Path) -> Result<Recovered<T>, ArtifactError> {
    let (payload, integrity) = match read_verified(path) {
        Ok(read) => read,
        Err(e @ ArtifactError::Empty { .. }) => {
            // Crash between create and write: fall back to the backup,
            // and report Empty (absent-with-warning) if that fails too.
            return try_backup(path, "primary is empty").ok_or(e);
        }
        Err(e) => return Err(e),
    };
    let primary_failure = match integrity {
        Integrity::Damaged(reason) => reason,
        _ => match strict::<T>(&payload) {
            Ok(value) => {
                return Ok(Recovered {
                    value,
                    source: LoadSource::Primary,
                    warnings: Vec::new(),
                })
            }
            Err(e) => e,
        },
    };
    let display = path.display();
    if let Some((value, note)) = salvage::<T>(&payload) {
        return Ok(Recovered {
            value,
            source: LoadSource::PrimarySalvaged,
            warnings: vec![format!("salvaged '{display}' ({primary_failure}): {note}")],
        });
    }
    try_backup(path, &primary_failure).ok_or_else(|| ArtifactError::Corrupt {
        path: display.to_string(),
        message: format!("{primary_failure}; no usable backup generation"),
    })
}

fn try_backup<T: Persistent>(path: &Path, why: &str) -> Option<Recovered<T>> {
    let bak = backup_path(path);
    let (payload, integrity) = read_verified(&bak).ok()?;
    let (display, bak) = (path.display(), bak.display());
    if !matches!(integrity, Integrity::Damaged(_)) {
        if let Ok(value) = strict::<T>(&payload) {
            return Some(Recovered {
                value,
                source: LoadSource::Backup,
                warnings: vec![format!(
                    "recovered '{display}' from backup generation '{bak}' ({why})"
                )],
            });
        }
    }
    let (value, note) = salvage::<T>(&payload)?;
    Some(Recovered {
        value,
        source: LoadSource::BackupSalvaged,
        warnings: vec![format!(
            "salvaged backup generation '{bak}' of '{display}' ({why}): {note}"
        )],
    })
}

/// The strict rung: the payload must parse whole.
fn strict<T: Persistent>(payload: &str) -> Result<T, String> {
    let v = Json::parse(payload).map_err(|e| format!("parse: {e}"))?;
    T::from_json(&v)
}

/// The salvage rung: recover the intact records of a damaged payload.
/// The header must still be readable and pass the version/kind gate;
/// the record arrays are then taken record by record, dropping whatever
/// the damage reached. `None` when no record survives.
fn salvage<T: Persistent>(payload: &str) -> Option<(T, String)> {
    let version = salvage_field(payload, "version").and_then(|v| v.as_u64());
    let kind = salvage_field(payload, "kind");
    check_schema::<T>(version, kind.as_ref().and_then(Json::as_str)).ok()?;
    let mut header = Json::obj();
    for name in T::HEADER {
        header = header.field(name, salvage_field(payload, name)?);
    }
    let mut value = T::from_header(&header).ok()?;
    let (mut kept, mut dropped) = (0usize, 0usize);
    for name in T::RECORDS {
        for item in salvage_array_items(payload, name) {
            let read = Json::parse(&item).is_ok_and(|r| value.read_record(name, &r).is_ok());
            if read {
                kept += 1;
            } else {
                dropped += 1;
            }
        }
    }
    if kept == 0 {
        return None;
    }
    let note = format!("kept {kept} intact record(s), dropped {dropped} damaged");
    Some((value, note))
}

// ---------------------------------------------------------------------------
// Raw-text salvage scanners
// ---------------------------------------------------------------------------

/// Locate the value of top-level key `key` in (possibly damaged) JSON
/// object text; returns the byte offset where the value starts.
///
/// The scan is string-aware (quotes and escapes inside values do not
/// confuse it) and only matches keys at nesting depth 1, so `"jobs"`
/// inside some entry's string field is never mistaken for the real
/// array.
fn find_key_value(payload: &str, key: &str) -> Option<usize> {
    let b = payload.as_bytes();
    let mut i = 0usize;
    let mut depth: i64 = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i + 1;
                i += 1;
                let mut esc = false;
                while i < b.len() {
                    let c = b[i];
                    if esc {
                        esc = false;
                    } else if c == b'\\' {
                        esc = true;
                    } else if c == b'"' {
                        break;
                    }
                    i += 1;
                }
                if i >= b.len() {
                    return None; // truncated inside a string
                }
                let content = &payload[start..i];
                i += 1;
                let mut j = i;
                while j < b.len() && b[j].is_ascii_whitespace() {
                    j += 1;
                }
                if depth == 1 && j < b.len() && b[j] == b':' && content == key {
                    let mut k = j + 1;
                    while k < b.len() && b[k].is_ascii_whitespace() {
                        k += 1;
                    }
                    return Some(k);
                }
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth -= 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Extract one balanced JSON value starting at `start`; returns its end
/// offset (exclusive), or `None` if the input ends before it balances.
fn balanced_value_end(payload: &str, start: usize) -> Option<usize> {
    let b = payload.as_bytes();
    let mut i = start;
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut esc = false;
    while i < b.len() {
        let c = b[i];
        if in_string {
            if esc {
                esc = false;
            } else if c == b'\\' {
                esc = true;
            } else if c == b'"' {
                in_string = false;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
        } else {
            // A scalar value ends at the first delimiter at depth 0;
            // this must run before the bracket arms so the enclosing
            // array's `]` terminates the scalar instead of unbalancing.
            if depth == 0
                && i > start
                && (c == b',' || c == b']' || c == b'}' || c.is_ascii_whitespace())
            {
                return Some(i);
            }
            match c {
                b'"' => in_string = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i + 1);
                    }
                    if depth < 0 {
                        return None;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    if depth == 0 && !in_string && i > start {
        Some(i) // bare scalar running to end of input
    } else {
        None
    }
}

/// The value of top-level `key` in damaged JSON text, if it is whole.
fn salvage_field(payload: &str, key: &str) -> Option<Json> {
    let start = find_key_value(payload, key)?;
    let end = balanced_value_end(payload, start)?;
    Json::parse(&payload[start..end]).ok()
}

/// Salvage complete items from the top-level array `key` in damaged
/// JSON text. Each returned string is one balanced element (an object,
/// usually); scanning stops cleanly at the first truncated or
/// unbalanced item, so only records that were fully written come back.
/// Callers parse and validate each item individually.
fn salvage_array_items(payload: &str, key: &str) -> Vec<String> {
    let mut items = Vec::new();
    let Some(start) = find_key_value(payload, key) else {
        return items;
    };
    let b = payload.as_bytes();
    if start >= b.len() || b[start] != b'[' {
        return items;
    }
    let mut i = start + 1;
    loop {
        while i < b.len() && (b[i].is_ascii_whitespace() || b[i] == b',') {
            i += 1;
        }
        if i >= b.len() || b[i] == b']' {
            break;
        }
        let Some(end) = balanced_value_end(payload, i) else {
            break; // truncated tail: keep what we have
        };
        items.push(payload[i..end].to_string());
        i = end;
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Held by every test that writes: the injected-fault budget is
    /// process-wide, so a test arming it must not race another's writes.
    fn io_lock() -> std::sync::MutexGuard<'static, ()> {
        static IO: std::sync::Mutex<()> = std::sync::Mutex::new(());
        IO.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "secureloop-artifact-{tag}-{}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn seal_then_open_round_trips_verified() {
        for payload in ["", "{}", "{\"a\":1}\n", "line1\nline2"] {
            let sealed = seal(payload);
            let (got, integrity) = open(&sealed);
            assert_eq!(got, payload);
            assert_eq!(integrity, Integrity::Verified, "payload {payload:?}");
        }
    }

    #[test]
    fn footerless_text_is_legacy() {
        let (payload, integrity) = open("{\"a\": 1}");
        assert_eq!(payload, "{\"a\": 1}");
        assert_eq!(integrity, Integrity::Legacy);
    }

    #[test]
    fn bit_flip_is_damaged_not_legacy() {
        let sealed = seal("{\"a\": 1234}");
        let mut bytes = sealed.into_bytes();
        bytes[3] ^= 0x40;
        let corrupted = String::from_utf8(bytes).unwrap();
        let (_, integrity) = open(&corrupted);
        assert!(
            matches!(integrity, Integrity::Damaged(ref r) if r.contains("checksum")),
            "got {integrity:?}"
        );
    }

    #[test]
    fn truncated_payload_is_damaged() {
        let sealed = seal("{\"a\": 1234, \"b\": [1,2,3]}");
        // Cut bytes out of the middle, keeping the footer line intact.
        let footer_at = sealed.rfind(FOOTER_PREFIX).unwrap();
        let mangled = format!("{}{}", &sealed[..10], &sealed[footer_at..]);
        let (_, integrity) = open(&mangled);
        assert!(
            matches!(integrity, Integrity::Damaged(_)),
            "got {integrity:?}"
        );
    }

    #[test]
    fn mutated_footer_is_damaged_not_legacy() {
        let sealed = seal("{\"a\": 1}");
        let mangled = sealed.replace("fnv1a=", "fnv1a=zz");
        let (_, integrity) = open(&mangled);
        assert!(
            matches!(integrity, Integrity::Damaged(_)),
            "got {integrity:?}"
        );
    }

    #[test]
    fn payload_containing_footer_prefix_still_verifies() {
        let tricky = format!("{{\"note\": \"{FOOTER_PREFIX} v1 len=0 fnv1a=0\"}}");
        let sealed = seal(&tricky);
        let (payload, integrity) = open(&sealed);
        assert_eq!(payload, tricky);
        assert_eq!(integrity, Integrity::Verified);
    }

    #[test]
    fn write_durable_keeps_a_backup_generation() {
        let _io = io_lock();
        let dir = tmpdir("bak");
        let path = dir.join("state.json");
        let policy = DurabilityPolicy::fast();
        write_durable(&path, "{\"gen\": 1}", &policy).unwrap();
        assert!(!backup_path(&path).exists());
        write_durable(&path, "{\"gen\": 2}", &policy).unwrap();
        let bak_text = fs::read_to_string(backup_path(&path)).unwrap();
        let (bak_payload, bak_integrity) = open(&bak_text);
        assert_eq!(bak_payload, "{\"gen\": 1}");
        assert_eq!(bak_integrity, Integrity::Verified);
        let (cur, _) = read_verified(&path).unwrap();
        assert_eq!(cur, "{\"gen\": 2}");
    }

    #[test]
    fn transient_faults_are_retried_within_budget() {
        let _io = io_lock();
        let dir = tmpdir("retry");
        let path = dir.join("state.json");
        let policy = DurabilityPolicy {
            fsync: false,
            retries: 3,
            backoff: Duration::from_millis(1),
        };
        fault::arm(2);
        let res = write_durable(&path, "{\"ok\": true}", &policy);
        fault::disarm();
        assert!(res.is_ok(), "got {res:?}");
        let (payload, integrity) = read_verified(&path).unwrap();
        assert_eq!(payload, "{\"ok\": true}");
        assert_eq!(integrity, Integrity::Verified);
    }

    #[test]
    fn persistent_faults_exhaust_retries_with_typed_error() {
        let _io = io_lock();
        let dir = tmpdir("enospc");
        let path = dir.join("state.json");
        let policy = DurabilityPolicy {
            fsync: false,
            retries: 2,
            backoff: Duration::from_millis(1),
        };
        fault::arm_all();
        let res = write_durable(&path, "{}", &policy);
        fault::disarm();
        match res {
            Err(ArtifactError::Io {
                ref path,
                ref message,
                ..
            }) => {
                assert!(path.contains("state.json"));
                assert!(message.contains("injected"));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(!path.exists());
    }

    #[test]
    fn empty_file_is_typed_empty() {
        let dir = tmpdir("empty");
        let path = dir.join("state.json");
        fs::write(&path, "").unwrap();
        let err = read_verified(&path).unwrap_err();
        assert!(err.is_empty(), "got {err:?}");
        assert!(err.path().contains("state.json"));
    }

    /// A toy persistent type with a header field and two record arrays.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Ledger {
        owner: String,
        credits: Vec<u64>,
        notes: Vec<String>,
    }

    impl Persistent for Ledger {
        const KIND: &'static str = "ledger";
        const NOUN: &'static str = "ledger";
        const VERSIONS: RangeInclusive<u64> = 2..=3;
        const HEADER: &'static [&'static str] = &["owner"];
        const RECORDS: &'static [&'static str] = &["credits", "notes"];
        const OPTIONAL_RECORDS: &'static [&'static str] = &["notes"];

        fn header(&self) -> Vec<Json> {
            vec![Json::from(self.owner.as_str())]
        }

        fn from_header(header: &Json) -> Result<Self, String> {
            let owner = header["owner"].as_str().ok_or_else(|| field_err("owner"))?;
            Ok(Ledger {
                owner: owner.to_string(),
                ..Ledger::default()
            })
        }

        fn write_records(&self, array: &str) -> Vec<Json> {
            if array == "credits" {
                let credit = |&c: &u64| Json::obj().field("amount", c);
                self.credits.iter().map(credit).collect()
            } else {
                let note = |n: &String| Json::obj().field("text", n.as_str());
                self.notes.iter().map(note).collect()
            }
        }

        fn read_record(&mut self, array: &str, record: &Json) -> Result<(), String> {
            if array == "credits" {
                let amount = record["amount"].as_u64();
                self.credits
                    .push(amount.ok_or_else(|| field_err("amount"))?);
            } else {
                let text = record["text"].as_str();
                self.notes
                    .push(text.ok_or_else(|| field_err("text"))?.to_string());
            }
            Ok(())
        }
    }

    fn ledger(credits: &[u64]) -> Ledger {
        Ledger {
            owner: "ada".to_string(),
            credits: credits.to_vec(),
            notes: vec!["opened".to_string(), "audited".to_string()],
        }
    }

    #[test]
    fn clean_primary_loads_strictly_without_warnings() {
        let _io = io_lock();
        let path = tmpdir("clean").join("ledger.json");
        save(&ledger(&[5, 7]), &path, &DurabilityPolicy::fast()).unwrap();
        let rec = load::<Ledger>(&path).unwrap();
        assert_eq!(rec.value, ledger(&[5, 7]));
        assert_eq!(rec.source, LoadSource::Primary);
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
    }

    #[test]
    fn wrong_version_or_kind_is_refused_and_never_record_mined() {
        let good = ledger(&[1, 2]).to_json().pretty();
        let v9 = good.replacen("\"version\": 3", "\"version\": 9", 1);
        let other = good.replacen("\"ledger\"", "\"journal\"", 1);
        for (text, named) in [
            (&v9, "unsupported ledger version 9 (expected 2..=3)"),
            (&other, "'kind'"),
        ] {
            let err = Ledger::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(named), "{err}");
            // Every record is intact, yet the salvage rung mines none.
            assert!(salvage::<Ledger>(text).is_none());
            let path = tmpdir("schema").join("ledger.json");
            fs::write(&path, seal(text)).unwrap();
            match load::<Ledger>(&path) {
                Err(ArtifactError::Corrupt { message, .. }) => {
                    assert!(message.contains(named), "{message}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn strict_parse_fails_on_the_first_bad_record_and_salvage_counts_it() {
        let text = ledger(&[1, 2, 3]).to_json().pretty().replacen(
            "\"amount\": 2",
            "\"amount\": \"two\"",
            1,
        );
        let err = Ledger::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert_eq!(err, "missing or invalid field 'amount'");
        let path = tmpdir("bad-record").join("ledger.json");
        fs::write(&path, seal(&text)).unwrap();
        let rec = load::<Ledger>(&path).unwrap();
        assert_eq!(rec.value, ledger(&[1, 3]), "the other records survive");
        assert_eq!(rec.source, LoadSource::PrimarySalvaged);
        assert!(
            rec.warnings[0].ends_with("kept 4 intact record(s), dropped 1 damaged"),
            "{:?}",
            rec.warnings
        );
    }

    #[test]
    fn only_optional_record_arrays_may_be_missing() {
        let v = Json::parse(r#"{"version": 2, "kind": "ledger", "owner": "ada", "credits": []}"#);
        let back = Ledger::from_json(&v.unwrap()).unwrap();
        assert!(back.notes.is_empty());
        let v = Json::parse(r#"{"version": 2, "kind": "ledger", "owner": "ada", "notes": []}"#);
        let err = Ledger::from_json(&v.unwrap()).unwrap_err();
        assert_eq!(err, "missing or invalid field 'credits'");
    }

    #[test]
    fn load_falls_back_to_backup_on_corruption() {
        let _io = io_lock();
        let path = tmpdir("ladder").join("ledger.json");
        let policy = DurabilityPolicy::fast();
        save(&ledger(&[1]), &path, &policy).unwrap();
        save(&ledger(&[1, 2]), &path, &policy).unwrap();
        // Corrupt the primary beyond salvage (header unreadable).
        fs::write(&path, "\u{0}garbage").unwrap();
        let rec = load::<Ledger>(&path).unwrap();
        assert_eq!(rec.value, ledger(&[1]), "backup generation should win");
        assert_eq!(rec.source, LoadSource::Backup);
        assert!(rec.warnings[0].contains("backup"));
    }

    #[test]
    fn load_salvages_damaged_primary_first() {
        let path = tmpdir("salvage").join("ledger.json");
        let text = ledger(&[1, 2, 3]).to_json().pretty();
        // A torn write: the tail, footer included, is lost mid-record.
        fs::write(&path, &text[..text.find("\"amount\": 3").unwrap()]).unwrap();
        let rec = load::<Ledger>(&path).unwrap();
        assert_eq!(
            rec.value.credits,
            [1, 2],
            "two intact records before the tear"
        );
        assert!(rec.value.notes.is_empty());
        assert_eq!(rec.source, LoadSource::PrimarySalvaged);
        assert!(rec.warnings[0].contains("salvaged"), "{:?}", rec.warnings);
    }

    #[test]
    fn load_reports_empty_when_no_backup() {
        let path = tmpdir("empty-ladder").join("ledger.json");
        fs::write(&path, "").unwrap();
        let err = load::<Ledger>(&path).unwrap_err();
        assert!(err.is_empty(), "got {err:?}");
    }

    #[test]
    fn stale_tmp_orphans_are_cleaned_up_and_real_files_kept() {
        let _io = io_lock();
        let path = tmpdir("tmp-orphan").join("ledger.json");
        let tmp = temp_path(&path);
        // A write that died mid-flight: a torn temp next to a good
        // (older) generation.
        save(&ledger(&[4]), &path, &DurabilityPolicy::fast()).unwrap();
        fs::write(&tmp, "{\"version\": 3, \"kind\": \"led").unwrap();

        assert!(remove_stale_temp(&path), "orphan removed");
        assert!(!tmp.exists());
        let rec = load::<Ledger>(&path).unwrap();
        assert_eq!(
            rec.source,
            LoadSource::Primary,
            "the real file is untouched"
        );
        assert_eq!(rec.value, ledger(&[4]));

        // Idempotent when there is nothing to clean.
        assert!(!remove_stale_temp(&path));
    }

    #[test]
    fn salvage_scanners_ignore_keys_inside_strings_and_nested_objects() {
        let text = r#"{"version": 7, "note": "\"jobs\": [fake]", "meta": {"jobs": [1]}, "jobs": [{"id": "a,b]{"}, {"id": "c"}"#;
        assert_eq!(salvage_field(text, "version"), Some(Json::from(7u64)));
        let items = salvage_array_items(text, "jobs");
        assert_eq!(items.len(), 2);
        assert!(items[0].contains("a,b]{"));
        assert_eq!(items[1], r#"{"id": "c"}"#);
    }

    #[test]
    fn salvage_field_reads_header_scalars() {
        let text = r#"{"kind": "service-journal", "version": 1, "jobs": ["#;
        assert_eq!(
            salvage_field(text, "kind").as_ref().and_then(Json::as_str),
            Some("service-journal")
        );
        assert_eq!(
            salvage_field(text, "version").and_then(|v| v.as_u64()),
            Some(1)
        );
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;
    #[test]
    fn open_with_len_mid_utf8_char() {
        // payload contains a multibyte char; footer claims a len that
        // lands mid-char (as corruption could produce)
        let text = format!("é\n{FOOTER_PREFIX} v1 len=1 fnv1a=0000000000000000\n");
        let (_, integrity) = open(&text);
        assert!(matches!(integrity, Integrity::Damaged(_)));
    }
}
