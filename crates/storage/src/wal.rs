//! Segmented, checksummed write-ahead log of [`StreamOp`]s, plus the
//! checkpoint file format that truncates it.
//!
//! Durability for a streaming join sampler is cheap to specify: the *only*
//! inputs that ever mutate engine state are the stream ops themselves, and
//! every engine in this workspace is deterministic given its seed. So the
//! log records nothing but the op stream, and recovery is
//! `checkpoint state ⊕ replay of the logged suffix` — byte-identical to the
//! uninterrupted run, reservoir contents and RNG positions included.
//!
//! # On-disk layout
//!
//! A [`Wal`] owns a directory of segment files `wal-{seq:08}.log`. Each
//! segment starts with a 16-byte header:
//!
//! ```text
//! [magic "RSJW" 4B] [format version u32 LE] [first_lsn u64 LE]
//! ```
//!
//! followed by framed records:
//!
//! ```text
//! [len u32 LE] [crc32(payload) u32 LE] [payload: StreamOp codec bytes]
//! ```
//!
//! The LSN of a record is `first_lsn` + its ordinal in the segment; LSNs
//! are global op indices, dense across segments. A torn tail — a record cut
//! mid-bytes by a crash — fails its length or CRC check and replay stops at
//! the last valid record, which is exactly the prefix the process had
//! durably applied. A framing error anywhere *before* the final segment's
//! tail is real corruption and surfaces as an error instead.
//!
//! Checkpointing rotates the log: a new segment whose `first_lsn` is the
//! checkpoint LSN is created and older segments are deleted, so the live
//! log is always "everything after the last checkpoint".
//!
//! # Fault tolerance
//!
//! Every *write* the log performs goes through a [`WalFs`] shim (the
//! default [`RealFs`] is the real filesystem), so the fault-injection
//! harness can fail any append, sync, or rename deterministically.
//! Transient errors (`Interrupted`, `WouldBlock`, `TimedOut`) are retried
//! with bounded deterministic exponential backoff ([`RetryPolicy`], clocked
//! by an injectable [`Sleeper`]); before each retry the segment is cut back
//! to its last known-good length so a partial write can never corrupt the
//! frame stream. Running out of space surfaces as the typed
//! [`WalError::OutOfSpace`] so the durability wrapper can degrade (keep
//! serving, stop logging) instead of failing hard.
//!
//! # Format versioning
//!
//! [`FORMAT_VERSION`] is shared by segments and checkpoint files and is
//! checked on open. Bump it on **any** byte-level change to either format
//! or to the state encodings referenced from them (see the golden digests
//! in `tests/golden_determinism.rs`); readers reject mismatched versions
//! rather than guessing.

use crate::input::StreamOp;
use rsj_common::codec::{crc32, CodecError, Decoder, Encoder};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// On-disk format version of WAL segments and checkpoint files.
///
/// History: **2** — `KeyMap` images carry a layout byte, 4-byte tags and,
/// in narrow tables, bare `u64` keys; `Relation` images no longer carry
/// the dedup table (it is rebuilt on restore). **1** — the original format; such files are
/// rejected, so a v1 directory must be re-ingested from its source stream.
pub const FORMAT_VERSION: u32 = 2;

/// Magic prefix of a WAL segment file.
pub const WAL_MAGIC: [u8; 4] = *b"RSJW";

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"RSJC";

const SEGMENT_HEADER_LEN: u64 = 16;

/// Hard cap on one record's payload (a single op is tens of bytes; anything
/// near this is a corrupt length field).
const MAX_RECORD_LEN: u32 = 1 << 24;

/// Errors from the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure that survived the retry policy.
    Io(std::io::Error),
    /// The device is out of space (`ENOSPC`). Split out from
    /// [`WalError::Io`] because the durability wrapper reacts differently:
    /// it can keep serving reads and mark logging as lost instead of
    /// failing the stream.
    OutOfSpace(std::io::Error),
    /// A record or checkpoint payload failed to decode.
    Codec(CodecError),
    /// Structural corruption (bad magic, version mismatch, mid-log framing
    /// damage, checksum failure in a checkpoint).
    Corrupt(&'static str),
}

impl WalError {
    /// True when the error is the typed out-of-space condition.
    pub fn is_out_of_space(&self) -> bool {
        matches!(self, WalError::OutOfSpace(_))
    }

    /// Classifies an I/O error that exhausted its retries.
    fn from_io(e: std::io::Error) -> WalError {
        if e.kind() == io::ErrorKind::StorageFull || e.raw_os_error() == Some(28) {
            WalError::OutOfSpace(e)
        } else {
            WalError::Io(e)
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::OutOfSpace(e) => write!(f, "wal device out of space: {e}"),
            WalError::Codec(e) => write!(f, "wal codec error: {e}"),
            WalError::Corrupt(what) => write!(f, "wal corrupt: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::from_io(e)
    }
}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> WalError {
        WalError::Codec(e)
    }
}

/// The filesystem surface the log *writes* through — the injection point of
/// the fault-tolerance harness. Reads (recovery scans) go straight to the
/// real filesystem: fault injection targets the write path, where a failure
/// has state to corrupt.
///
/// The default implementation is [`RealFs`]; `rsj-testutil`'s `FaultFs`
/// wraps it with a seeded schedule of failures.
pub trait WalFs: Send {
    /// Appends `bytes` at the end of `path`, creating the file when absent.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// `fdatasync`s `path`.
    fn sync_data(&mut self, path: &Path) -> io::Result<()>;
    /// Creates (or truncates) `path` with exactly `bytes`, synced.
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` over `to` (atomic on POSIX filesystems).
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Deletes `path`.
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;
    /// Cuts `path` to `len` bytes.
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()>;
}

/// The default [`WalFs`]: real filesystem calls, with the current append
/// target's handle cached so one flush costs one `write`, not an
/// open-write-close round trip.
#[derive(Default)]
pub struct RealFs {
    /// The cached append handle (opened `O_APPEND`, so it stays correct
    /// across truncations through other handles).
    active: Option<(PathBuf, File)>,
}

impl RealFs {
    /// A fresh shim with no cached handle.
    pub fn new() -> RealFs {
        RealFs::default()
    }

    fn forget(&mut self, path: &Path) {
        if self.active.as_ref().is_some_and(|(p, _)| p == path) {
            self.active = None;
        }
    }
}

impl WalFs for RealFs {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.active.as_ref().is_none_or(|(p, _)| p != path) {
            let f = OpenOptions::new().append(true).create(true).open(path)?;
            self.active = Some((path.to_path_buf(), f));
        }
        self.active
            .as_mut()
            .expect("just cached")
            .1
            .write_all(bytes)
    }

    fn sync_data(&mut self, path: &Path) -> io::Result<()> {
        match &self.active {
            Some((p, f)) if p == path => f.sync_data(),
            _ => File::open(path)?.sync_data(),
        }
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.forget(path);
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_data()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.forget(from);
        self.forget(to);
        fs::rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.forget(path);
        fs::remove_file(path)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        // The cached handle is O_APPEND and needs no seek fix-up, but a
        // write-mode reopen is required for set_len.
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }
}

/// The clock behind retry backoff. The default [`SystemSleeper`] really
/// sleeps; tests inject a recording no-op so fault sweeps run at full speed
/// and can assert the exact backoff schedule.
pub trait Sleeper: Send {
    /// Waits for `d` (or records that the caller would have).
    fn sleep(&mut self, d: Duration);
}

/// The default [`Sleeper`]: `std::thread::sleep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SystemSleeper;

impl Sleeper for SystemSleeper {
    fn sleep(&mut self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Bounded deterministic exponential backoff for transient I/O errors
/// (`Interrupted`, `WouldBlock`, `TimedOut`): attempt `i` fails, wait
/// `min(base * 2^i, cap)`, up to `max_attempts` total attempts. The
/// schedule is a pure function of the policy — no jitter — so fault-sweep
/// runs are reproducible from their seed alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Delay after the first failed attempt.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The delay after failed attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        self.base
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .map_or(self.cap, |d| d.min(self.cap))
    }

    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Tuning knobs for [`Wal::open_with`].
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Retry schedule for transient write errors.
    pub retry: RetryPolicy,
    /// Appends accumulate in user space until the buffer holds this many
    /// bytes, then push to the OS as one write. `0` pushes every append —
    /// what the fault tests use so the n-th shim call is the n-th op.
    pub auto_flush: usize,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            retry: RetryPolicy::default(),
            auto_flush: 1 << 16,
        }
    }
}

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op` under the retry policy; counts each backoff into `retries`.
fn retry_transient<T>(
    fs: &mut dyn WalFs,
    sleeper: &mut dyn Sleeper,
    retry: &RetryPolicy,
    retries: &mut u64,
    mut op: impl FnMut(&mut dyn WalFs) -> io::Result<T>,
) -> Result<T, WalError> {
    let mut attempt = 0;
    loop {
        match op(fs) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if !is_transient(&e) || attempt + 1 >= retry.max_attempts {
                    return Err(WalError::from_io(e));
                }
                sleeper.sleep(retry.delay(attempt));
                *retries += 1;
                attempt += 1;
            }
        }
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Lists `(seq, path)` of the segments in `dir`, ascending by sequence.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segs.push((seq, path));
        }
    }
    segs.sort_unstable();
    Ok(segs)
}

fn segment_header(first_lsn: u64) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&first_lsn.to_le_bytes());
    h
}

/// Parsed segment header.
fn read_segment_header(bytes: &[u8]) -> Result<u64, WalError> {
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        return Err(WalError::Corrupt("segment shorter than its header"));
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(WalError::Corrupt("segment magic mismatch"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(WalError::Corrupt("segment format version mismatch"));
    }
    Ok(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

/// One segment's records, scanned leniently: stops at the first framing or
/// checksum failure and reports the byte offset of the valid prefix.
struct SegmentScan {
    first_lsn: u64,
    ops: Vec<StreamOp>,
    /// Length of the valid prefix in bytes (header included).
    valid_len: u64,
    /// True when the scan stopped before the end of the file.
    torn: bool,
}

fn scan_segment(path: &Path) -> Result<SegmentScan, WalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let first_lsn = read_segment_header(&bytes)?;
    let mut ops = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN as usize;
    loop {
        if pos == bytes.len() {
            return Ok(SegmentScan {
                first_lsn,
                ops,
                valid_len: pos as u64,
                torn: false,
            });
        }
        let valid = SegmentScan {
            first_lsn: 0,
            ops: Vec::new(),
            valid_len: pos as u64,
            torn: true,
        };
        if bytes.len() - pos < 8 {
            return Ok(SegmentScan {
                first_lsn,
                ops,
                ..valid
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN || bytes.len() - pos - 8 < len as usize {
            return Ok(SegmentScan {
                first_lsn,
                ops,
                ..valid
            });
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            return Ok(SegmentScan {
                first_lsn,
                ops,
                ..valid
            });
        }
        let mut dec = Decoder::new(payload);
        let op = match StreamOp::decode_from(&mut dec).and_then(|op| dec.finish().map(|_| op)) {
            Ok(op) => op,
            Err(_) => {
                return Ok(SegmentScan {
                    first_lsn,
                    ops,
                    ..valid
                })
            }
        };
        ops.push(op);
        pos += 8 + len as usize;
    }
}

/// A segmented, checksummed write-ahead log of [`StreamOp`]s.
///
/// Appends buffer in user space; call [`flush`](Wal::flush) (or drop the
/// log) to push them to the OS, and [`sync`](Wal::sync) for a full
/// `fdatasync`. The crash-recovery tests flush before every simulated kill,
/// so the recovery invariant they pin is "flushed prefix is recoverable".
///
/// All writes go through the [`WalFs`] shim with transient-error retries
/// under the [`RetryPolicy`]; see the [module docs](self), "Fault
/// tolerance".
pub struct Wal {
    dir: PathBuf,
    fs: Box<dyn WalFs>,
    sleeper: Box<dyn Sleeper>,
    retry: RetryPolicy,
    auto_flush: usize,
    active_seq: u64,
    active_path: PathBuf,
    /// Bytes of the active segment known good on disk — the truncation
    /// target when a retried append must discard a partial write.
    flushed_len: u64,
    /// LSN up to which appends have reached the fs shim (the durable
    /// prefix, modulo `sync`).
    flushed_lsn: u64,
    next_lsn: u64,
    /// Framed records not yet pushed to the fs.
    pending: Vec<u8>,
    /// Transient-error backoffs taken so far.
    retries: u64,
    /// Reused per-append encode buffer — appends are allocation-free once
    /// it has grown to the largest op seen.
    scratch: Encoder,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("active_seq", &self.active_seq)
            .field("next_lsn", &self.next_lsn)
            .field("retries", &self.retries)
            .finish()
    }
}

impl Wal {
    /// Opens the log in `dir`, creating the directory and an initial empty
    /// segment (`first_lsn` 0) when none exists. An existing log is scanned
    /// to the end of its valid records; a torn tail on the *final* segment
    /// is truncated away, a framing error anywhere earlier is an error.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Wal, WalError> {
        Wal::open_with(
            dir,
            WalOptions::default(),
            Box::new(RealFs::new()),
            Box::new(SystemSleeper),
        )
    }

    /// [`open`](Wal::open) with explicit tuning, filesystem shim, and
    /// backoff clock — the constructor the fault-injection harness uses.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        opts: WalOptions,
        mut fs: Box<dyn WalFs>,
        sleeper: Box<dyn Sleeper>,
    ) -> Result<Wal, WalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let segs = list_segments(&dir)?;
        let (active_seq, next_lsn, valid_len) = match segs.last() {
            None => {
                fs.write_file(&segment_path(&dir, 0), &segment_header(0))?;
                (0, 0, SEGMENT_HEADER_LEN)
            }
            Some(&(last_seq, ref last_path)) => {
                // Earlier segments must be fully intact.
                let mut expected_next = None;
                for (seq, path) in &segs[..segs.len() - 1] {
                    let scan = scan_segment(path)?;
                    if scan.torn {
                        return Err(WalError::Corrupt("framing damage before final segment"));
                    }
                    if let Some(expected) = expected_next {
                        if scan.first_lsn != expected {
                            return Err(WalError::Corrupt("segment lsn gap"));
                        }
                    }
                    expected_next = Some(scan.first_lsn + scan.ops.len() as u64);
                    let _ = seq;
                }
                let scan = scan_segment(last_path)?;
                if let Some(expected) = expected_next {
                    if scan.first_lsn != expected {
                        return Err(WalError::Corrupt("segment lsn gap"));
                    }
                }
                (
                    last_seq,
                    scan.first_lsn + scan.ops.len() as u64,
                    scan.valid_len,
                )
            }
        };
        let active_path = segment_path(&dir, active_seq);
        // Drop any torn tail so new appends continue the valid prefix.
        fs.truncate(&active_path, valid_len)?;
        Ok(Wal {
            dir,
            fs,
            sleeper,
            retry: opts.retry,
            auto_flush: opts.auto_flush,
            active_seq,
            active_path,
            flushed_len: valid_len,
            flushed_lsn: next_lsn,
            next_lsn,
            pending: Vec::new(),
            retries: 0,
            scratch: Encoder::new(),
        })
    }

    /// The directory holding the segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN the next appended op will get (equals the number of ops ever
    /// logged, since LSNs are dense global op indices).
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN up to which appends have been pushed through the fs shim — the
    /// recoverable prefix (modulo [`sync`](Wal::sync) for media durability).
    pub fn flushed_lsn(&self) -> u64 {
        self.flushed_lsn
    }

    /// Transient-error backoffs taken so far across all writes.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Appends one op and returns its LSN. Buffered; see
    /// [`flush`](Wal::flush). An error means the buffered bytes did not
    /// reach the OS — they stay pending, and a later `flush` retries them.
    pub fn append(&mut self, op: &StreamOp) -> Result<u64, WalError> {
        self.scratch.clear();
        op.encode_to(&mut self.scratch);
        let payload_len = self.scratch.as_slice().len();
        debug_assert!(payload_len <= MAX_RECORD_LEN as usize);
        self.pending
            .extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(self.scratch.as_slice()).to_le_bytes());
        self.pending.extend_from_slice(self.scratch.as_slice());
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        if self.pending.len() >= self.auto_flush {
            self.flush_pending()?;
        }
        Ok(lsn)
    }

    /// Pushes the pending frames through the shim, retrying transient
    /// failures under the policy. Before every retry the segment is cut
    /// back to its last known-good length, so a partial write cannot leave
    /// garbage inside the frame stream.
    fn flush_pending(&mut self) -> Result<(), WalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut attempt = 0;
        loop {
            match self.fs.append(&self.active_path, &self.pending) {
                Ok(()) => {
                    self.flushed_len += self.pending.len() as u64;
                    self.flushed_lsn = self.next_lsn;
                    self.pending.clear();
                    return Ok(());
                }
                Err(e) => {
                    // Best-effort repair: a failed append may have written a
                    // partial frame.
                    let _ = self.fs.truncate(&self.active_path, self.flushed_len);
                    if !is_transient(&e) || attempt + 1 >= self.retry.max_attempts {
                        return Err(WalError::from_io(e));
                    }
                    self.sleeper.sleep(self.retry.delay(attempt));
                    self.retries += 1;
                    attempt += 1;
                }
            }
        }
    }

    /// Pushes buffered appends to the OS.
    pub fn flush(&mut self) -> Result<(), WalError> {
        self.flush_pending()
    }

    /// Flushes and `fdatasync`s the active segment.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.flush_pending()?;
        retry_transient(
            &mut *self.fs,
            &mut *self.sleeper,
            &self.retry,
            &mut self.retries,
            |fs| fs.sync_data(&self.active_path),
        )
    }

    /// Atomically replaces `path` with `bytes` through the log's I/O shim:
    /// write `<path>.tmp` (synced), then rename over `path`. Transient
    /// failures retry on the append backoff schedule; on any error the
    /// previous contents of `path` are untouched — which is what keeps the
    /// last checkpoint valid when a new checkpoint write fails.
    pub fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), WalError> {
        let tmp = path.with_extension("tmp");
        retry_transient(
            &mut *self.fs,
            &mut *self.sleeper,
            &self.retry,
            &mut self.retries,
            |fs| fs.write_file(&tmp, bytes),
        )?;
        retry_transient(
            &mut *self.fs,
            &mut *self.sleeper,
            &self.retry,
            &mut self.retries,
            |fs| fs.rename(&tmp, path),
        )
    }

    /// Replays every valid logged op with LSN ≥ `from_lsn`, in LSN order.
    /// A torn tail on the final segment truncates the result; framing
    /// damage anywhere earlier is an error.
    pub fn replay_from(&mut self, from_lsn: u64) -> Result<Vec<StreamOp>, WalError> {
        self.flush()?;
        let segs = list_segments(&self.dir)?;
        let mut out = Vec::new();
        for (i, (_, path)) in segs.iter().enumerate() {
            let scan = scan_segment(path)?;
            if scan.torn && i + 1 != segs.len() {
                return Err(WalError::Corrupt("framing damage before final segment"));
            }
            for (j, op) in scan.ops.into_iter().enumerate() {
                let lsn = scan.first_lsn + j as u64;
                if lsn >= from_lsn {
                    out.push(op);
                }
            }
        }
        Ok(out)
    }

    /// Rotates the log at a checkpoint: starts a fresh segment whose
    /// `first_lsn` is [`next_lsn`](Wal::next_lsn) and deletes every older
    /// segment, so the log holds exactly the ops after the checkpoint.
    ///
    /// Appends still pending against the old segment are pre-checkpoint by
    /// definition (the caller snapshots before rotating), so they are
    /// dropped rather than flushed — this is what lets a successful
    /// checkpoint heal a log that ran out of space.
    pub fn truncate_at_checkpoint(&mut self) -> Result<(), WalError> {
        self.pending.clear();
        let new_seq = self.active_seq + 1;
        let path = segment_path(&self.dir, new_seq);
        let header = segment_header(self.next_lsn);
        retry_transient(
            &mut *self.fs,
            &mut *self.sleeper,
            &self.retry,
            &mut self.retries,
            |fs| fs.write_file(&path, &header),
        )?;
        let old_seq = self.active_seq;
        self.active_seq = new_seq;
        self.active_path = path;
        self.flushed_len = SEGMENT_HEADER_LEN;
        self.flushed_lsn = self.next_lsn;
        for (seq, path) in list_segments(&self.dir)? {
            if seq <= old_seq {
                retry_transient(
                    &mut *self.fs,
                    &mut *self.sleeper,
                    &self.retry,
                    &mut self.retries,
                    |fs| fs.remove_file(&path),
                )?;
            }
        }
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.flush_pending();
    }
}

/// A point-in-time snapshot of one engine's complete dynamic state.
///
/// The payload is opaque to this layer — engines produce it via their
/// `snapshot_state` hook — and is integrity-checked with a CRC32 plus a
/// length-prefixed engine name, so restoring a checkpoint into the wrong
/// engine fails loudly instead of deserializing garbage.
///
/// File layout:
///
/// ```text
/// [magic "RSJC" 4B] [format version u32 LE] [crc32(tail) u32 LE]
/// [tail: engine name (len-prefixed), lsn u64, state bytes (len-prefixed)]
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Name of the engine that produced the state (see `JoinSampler::name`).
    pub engine: String,
    /// LSN of the first op *not* reflected in the state: replay the log
    /// from here.
    pub lsn: u64,
    /// Opaque engine state bytes.
    pub state: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the checkpoint to its file bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut tail = Encoder::new();
        tail.put_str(&self.engine);
        tail.put_u64(self.lsn);
        tail.put_bytes(&self.state);
        let tail = tail.into_bytes();
        let mut out = Vec::with_capacity(12 + tail.len());
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&tail).to_le_bytes());
        out.extend_from_slice(&tail);
        out
    }

    /// Parses checkpoint file bytes, validating magic, version and CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, WalError> {
        if bytes.len() < 12 {
            return Err(WalError::Corrupt("checkpoint shorter than its header"));
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            return Err(WalError::Corrupt("checkpoint magic mismatch"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(WalError::Corrupt("checkpoint format version mismatch"));
        }
        let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let tail = &bytes[12..];
        if crc32(tail) != crc {
            return Err(WalError::Corrupt("checkpoint checksum mismatch"));
        }
        let mut dec = Decoder::new(tail);
        let engine = dec.str()?.to_string();
        let lsn = dec.u64()?;
        let state = dec.bytes()?.to_vec();
        dec.finish()?;
        Ok(Checkpoint { engine, lsn, state })
    }

    /// Writes the checkpoint atomically: to `<path>.tmp`, then renamed over
    /// `path`, so a crash mid-write leaves the previous checkpoint intact.
    /// (The durability wrapper routes this through [`Wal::write_atomic`]
    /// instead, so checkpoint writes share the log's fault shim.)
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), WalError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a checkpoint written by [`write_to`](Checkpoint::write_to).
    pub fn read_from(path: impl AsRef<Path>) -> Result<Checkpoint, WalError> {
        let mut bytes = Vec::new();
        File::open(path.as_ref())?.read_to_end(&mut bytes)?;
        Checkpoint::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Unique scratch directory per test, cleaned up on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "rsj-wal-{}-{}-{}",
                std::process::id(),
                tag,
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_ops(n: usize) -> Vec<StreamOp> {
        (0..n)
            .map(|i| {
                if i % 5 == 4 {
                    StreamOp::delete(i % 3, vec![i as u64, i as u64 * 7])
                } else {
                    StreamOp::insert(i % 3, vec![i as u64, i as u64 * 7])
                }
            })
            .collect()
    }

    #[test]
    fn append_reopen_replay_round_trips() {
        let scratch = Scratch::new("roundtrip");
        let ops = sample_ops(40);
        {
            let mut wal = Wal::open(&scratch.0).unwrap();
            for (i, op) in ops.iter().enumerate() {
                assert_eq!(wal.append(op).unwrap(), i as u64);
            }
        } // drop flushes
        let mut wal = Wal::open(&scratch.0).unwrap();
        assert_eq!(wal.next_lsn(), 40);
        assert_eq!(wal.replay_from(0).unwrap(), ops);
        assert_eq!(wal.replay_from(25).unwrap(), ops[25..]);
        assert!(wal.replay_from(40).unwrap().is_empty());
    }

    #[test]
    fn rotation_drops_ops_before_the_checkpoint() {
        let scratch = Scratch::new("rotate");
        let ops = sample_ops(30);
        let mut wal = Wal::open(&scratch.0).unwrap();
        for op in &ops[..20] {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        wal.truncate_at_checkpoint().unwrap();
        for op in &ops[20..] {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        assert_eq!(list_segments(&scratch.0).unwrap().len(), 1);
        // Pre-checkpoint ops are gone; suffix LSNs are still global.
        assert_eq!(wal.replay_from(0).unwrap(), ops[20..]);
        assert_eq!(wal.replay_from(25).unwrap(), ops[25..]);
        drop(wal);
        let mut wal = Wal::open(&scratch.0).unwrap();
        assert_eq!(wal.next_lsn(), 30);
        assert_eq!(wal.replay_from(20).unwrap(), ops[20..]);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_valid_record() {
        let scratch = Scratch::new("torn");
        let ops = sample_ops(10);
        let path;
        {
            let mut wal = Wal::open(&scratch.0).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
            path = segment_path(&scratch.0, 0);
        }
        // Cut the final record mid-payload, as a crash mid-write would.
        let full = fs::metadata(&path).unwrap().len();
        for cut in [3u64, 7, 11] {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(full - cut).unwrap();
            drop(f);
            let mut wal = Wal::open(&scratch.0).unwrap();
            assert_eq!(wal.next_lsn(), 9, "cut {cut}");
            assert_eq!(wal.replay_from(0).unwrap(), ops[..9]);
            // Appending after recovery continues the sequence cleanly.
            assert_eq!(wal.append(&ops[9]).unwrap(), 9);
            drop(wal);
            assert_eq!(Wal::open(&scratch.0).unwrap().replay_from(0).unwrap(), ops);
            // Restore the full file for the next, deeper cut.
            let mut wal = Wal::open(&scratch.0).unwrap();
            assert_eq!(wal.replay_from(0).unwrap().len(), 10);
            drop(wal);
        }
    }

    #[test]
    fn corrupted_record_body_is_detected_by_crc() {
        let scratch = Scratch::new("crc");
        let ops = sample_ops(6);
        {
            let mut wal = Wal::open(&scratch.0).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        let path = segment_path(&scratch.0, 0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the 4th record: records 0-3 survive,
        // everything after the damage is dropped.
        let mut pos = SEGMENT_HEADER_LEN as usize;
        for _ in 0..3 {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            pos += 8 + len as usize;
        }
        bytes[pos + 9] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&scratch.0).unwrap();
        assert_eq!(wal.next_lsn(), 3);
        assert_eq!(wal.replay_from(0).unwrap(), ops[..3]);
    }

    #[test]
    fn damage_before_the_final_segment_is_an_error() {
        let scratch = Scratch::new("midlog");
        let ops = sample_ops(8);
        let mut wal = Wal::open(&scratch.0).unwrap();
        for op in &ops[..4] {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        // Manually start a second segment without deleting the first, then
        // damage the first: recovery must refuse, not silently skip ops.
        let seg0 = segment_path(&scratch.0, 0);
        let seg1 = segment_path(&scratch.0, 1);
        fs::write(&seg1, segment_header(4)).unwrap();
        drop(wal);
        let full = fs::metadata(&seg0).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg0)
            .unwrap()
            .set_len(full - 3)
            .unwrap();
        assert!(matches!(
            Wal::open(&scratch.0),
            Err(WalError::Corrupt("framing damage before final segment"))
        ));
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_damage() {
        let scratch = Scratch::new("ckpt");
        let ck = Checkpoint {
            engine: "rsjoin".to_string(),
            lsn: 12345,
            state: (0..200u8).collect(),
        };
        let path = scratch.0.join("engine.ckpt");
        ck.write_to(&path).unwrap();
        assert_eq!(Checkpoint::read_from(&path).unwrap(), ck);
        let mut bytes = ck.to_bytes();
        bytes[20] ^= 1;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(WalError::Corrupt("checkpoint checksum mismatch"))
        ));
        // The previous format (1) is refused as loudly as a future one.
        for version in [1, FORMAT_VERSION + 1] {
            let mut wrong_version = ck.to_bytes();
            wrong_version[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                Checkpoint::from_bytes(&wrong_version),
                Err(WalError::Corrupt("checkpoint format version mismatch"))
            ));
            let mut segment = segment_header(7);
            segment[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                read_segment_header(&segment),
                Err(WalError::Corrupt("segment format version mismatch"))
            ));
        }
        assert_eq!(read_segment_header(&segment_header(7)).unwrap(), 7);
    }

    #[test]
    fn segment_bytes_are_deterministic() {
        let a = Scratch::new("det-a");
        let b = Scratch::new("det-b");
        let ops = sample_ops(25);
        for dir in [&a.0, &b.0] {
            let mut wal = Wal::open(dir).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        assert_eq!(
            fs::read(segment_path(&a.0, 0)).unwrap(),
            fs::read(segment_path(&b.0, 0)).unwrap()
        );
    }

    // ---- fault-tolerance plumbing ----

    /// A shim that fails the first `fail_appends` append calls with a
    /// transient error — writing one garbage byte first, so the
    /// truncate-before-retry repair is actually exercised.
    struct FlakyFs {
        inner: RealFs,
        fail_appends: u32,
        dirty: bool,
    }

    impl WalFs for FlakyFs {
        fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if self.fail_appends > 0 {
                self.fail_appends -= 1;
                if self.dirty {
                    // Partial write: a torn frame prefix.
                    self.inner.append(path, &bytes[..bytes.len().min(3)])?;
                }
                return Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"));
            }
            self.inner.append(path, bytes)
        }
        fn sync_data(&mut self, path: &Path) -> io::Result<()> {
            self.inner.sync_data(path)
        }
        fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.inner.write_file(path, bytes)
        }
        fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&mut self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
        fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
            self.inner.truncate(path, len)
        }
    }

    /// Records requested delays instead of sleeping.
    #[derive(Clone, Default)]
    struct RecordingSleeper(Arc<Mutex<Vec<Duration>>>);

    impl Sleeper for RecordingSleeper {
        fn sleep(&mut self, d: Duration) {
            self.0.lock().unwrap().push(d);
        }
    }

    fn flaky_wal(dir: &Path, fail_appends: u32, dirty: bool) -> (Wal, RecordingSleeper) {
        let sleeper = RecordingSleeper::default();
        let wal = Wal::open_with(
            dir,
            WalOptions {
                auto_flush: 0,
                ..WalOptions::default()
            },
            Box::new(FlakyFs {
                inner: RealFs::new(),
                fail_appends,
                dirty,
            }),
            Box::new(sleeper.clone()),
        )
        .unwrap();
        (wal, sleeper)
    }

    #[test]
    fn transient_append_errors_retry_with_exponential_backoff() {
        let scratch = Scratch::new("retry");
        let clean = Scratch::new("retry-clean");
        let ops = sample_ops(12);
        let (mut wal, sleeper) = flaky_wal(&scratch.0, 3, true);
        for op in &ops {
            wal.append(op).unwrap();
        }
        assert_eq!(wal.retries(), 3);
        assert_eq!(wal.flushed_lsn(), 12);
        // Deterministic schedule: 1ms, 2ms, then 1ms again (the third fault
        // hits a fresh append's first attempt... all three faults hit the
        // very first append, so the schedule is the pure doubling run).
        assert_eq!(
            sleeper.0.lock().unwrap().clone(),
            vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(4)
            ]
        );
        drop(wal);
        // Despite three faults and partial garbage writes, the on-disk
        // bytes are identical to a fault-free twin.
        let mut wal = Wal::open(&clean.0).unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        drop(wal);
        assert_eq!(
            fs::read(segment_path(&scratch.0, 0)).unwrap(),
            fs::read(segment_path(&clean.0, 0)).unwrap()
        );
        assert_eq!(Wal::open(&scratch.0).unwrap().replay_from(0).unwrap(), ops);
    }

    #[test]
    fn retry_exhaustion_surfaces_the_error_and_keeps_ops_pending() {
        let scratch = Scratch::new("exhaust");
        let ops = sample_ops(2);
        // Default policy allows 4 attempts; 10 consecutive faults exhaust it.
        let (mut wal, _sleeper) = flaky_wal(&scratch.0, 10, false);
        assert!(matches!(wal.append(&ops[0]), Err(WalError::Io(_))));
        // The op stayed buffered: once the fault clears (6 faults remain,
        // the policy retries past them? no — 4 attempts burn 4), keep
        // flushing until the shim runs dry, then everything lands.
        assert!(wal.flush().is_err()); // burns the remaining faults
        wal.flush().unwrap();
        assert_eq!(wal.flushed_lsn(), 1);
        drop(wal);
        assert_eq!(
            Wal::open(&scratch.0).unwrap().replay_from(0).unwrap(),
            ops[..1]
        );
    }

    #[test]
    fn storage_full_is_typed_out_of_space() {
        struct FullFs(RealFs);
        impl WalFs for FullFs {
            fn append(&mut self, _: &Path, _: &[u8]) -> io::Result<()> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn sync_data(&mut self, path: &Path) -> io::Result<()> {
                self.0.sync_data(path)
            }
            fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
                self.0.write_file(path, bytes)
            }
            fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
                self.0.rename(from, to)
            }
            fn remove_file(&mut self, path: &Path) -> io::Result<()> {
                self.0.remove_file(path)
            }
            fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
                self.0.truncate(path, len)
            }
        }
        let scratch = Scratch::new("enospc");
        let mut wal = Wal::open_with(
            &scratch.0,
            WalOptions {
                auto_flush: 0,
                ..WalOptions::default()
            },
            Box::new(FullFs(RealFs::new())),
            Box::new(SystemSleeper),
        )
        .unwrap();
        let err = wal.append(&sample_ops(1)[0]).unwrap_err();
        assert!(err.is_out_of_space(), "{err}");
        // Not transient: no backoff was burned on it.
        assert_eq!(wal.retries(), 0);
    }

    #[test]
    fn retry_policy_delays_are_capped_and_deterministic() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(0), Duration::from_millis(1));
        assert_eq!(p.delay(1), Duration::from_millis(2));
        assert_eq!(p.delay(5), Duration::from_millis(32));
        assert_eq!(p.delay(6), Duration::from_millis(50), "capped");
        assert_eq!(p.delay(31), Duration::from_millis(50));
        assert_eq!(p.delay(63), Duration::from_millis(50), "shift overflow");
    }

    #[test]
    fn write_atomic_failure_keeps_the_previous_file() {
        struct NoCreate(RealFs);
        impl WalFs for NoCreate {
            fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
                self.0.append(path, bytes)
            }
            fn sync_data(&mut self, path: &Path) -> io::Result<()> {
                self.0.sync_data(path)
            }
            fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
                if path.extension().is_some_and(|e| e == "tmp") {
                    return Err(io::Error::other("injected checkpoint failure"));
                }
                self.0.write_file(path, bytes)
            }
            fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
                self.0.rename(from, to)
            }
            fn remove_file(&mut self, path: &Path) -> io::Result<()> {
                self.0.remove_file(path)
            }
            fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
                self.0.truncate(path, len)
            }
        }
        let scratch = Scratch::new("atomic");
        let target = scratch.0.join("data.ckpt");
        fs::write(&target, b"previous").unwrap();
        let mut wal = Wal::open_with(
            scratch.0.join("wal"),
            WalOptions::default(),
            Box::new(NoCreate(RealFs::new())),
            Box::new(SystemSleeper),
        )
        .unwrap();
        assert!(wal.write_atomic(&target, b"next").is_err());
        assert_eq!(fs::read(&target).unwrap(), b"previous");
    }
}
