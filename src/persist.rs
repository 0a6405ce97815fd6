//! The durability layer: a write-ahead log plus periodic checkpoints
//! around any [`Durable`] target — an engine ([`JoinSampler`]) or the
//! resident [`SamplerService`].
//!
//! [`Persistent`] wraps the target and gives its turnstile stream crash
//! recovery with **byte-identical** semantics: every op is checked, then
//! appended to a segmented, checksummed WAL (`rsj_storage::wal::Wal`)
//! *before* it is applied, and on a checkpoint the target's complete
//! dynamic state ([`Durable::image`]) is written atomically next to the
//! log, which is then truncated. Recovery restores the last checkpoint
//! and replays the log suffix — the recovered target is byte-for-byte the
//! one that would have resulted from an uninterrupted run of the same
//! flushed prefix, including its future random choices.
//!
//! ```text
//!   op ──▶ check ──▶ wal.append ──▶ apply
//!                        │
//!                        └─ every N ops: checkpoint = image @ lsn,
//!                                        then truncate the log
//! ```
//!
//! The recovery invariant the crash tests pin (tests/recovery.rs): after a
//! kill at any op boundary, `Persistent::open` with the same engine
//! builder (or [`PersistentService::open`] with a fresh service) restores
//! exactly the flushed prefix — finishing the stream then yields the same
//! sample digest as a run that never crashed. See ARCHITECTURE.md,
//! "Durability".

use rsj_core::{Durable, JoinSampler, SamplerService, SamplerStats};
use rsj_storage::wal::{
    Checkpoint, RealFs, Sleeper, SystemSleeper, Wal, WalError, WalFs, WalOptions,
};
use rsj_storage::StreamOp;
use std::convert::Infallible;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};

pub use rsj_core::SERVICE_ENGINE;

/// File name of the checkpoint inside the durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.rsjc";

/// When the wrapper takes a checkpoint on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Checkpoint after every `n` logged ops (and truncate the log).
    EveryOps(u64),
    /// Only when [`Persistent::checkpoint`] is called explicitly.
    Manual,
}

/// Whether the durability guarantee currently holds.
///
/// The wrapper degrades instead of failing when the log runs out of space:
/// reads keep working, ops keep flowing to the engine, and the lost logging
/// is reported here until a successful checkpoint re-establishes a durable
/// baseline (the checkpoint captures the engine state *including* the
/// unlogged ops, so recovery coverage is restored in full).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DurabilityHealth {
    /// Every applied op is covered by the log or a checkpoint.
    Durable,
    /// Logging is lost: ops since `since_lsn` are applied to the engine but
    /// not recoverable until the next successful checkpoint.
    Degraded {
        /// Ops applied without log coverage so far.
        lost_ops: u64,
        /// First LSN whose durability is no longer guaranteed.
        since_lsn: u64,
    },
}

/// Why a durable operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// WAL or checkpoint I/O / integrity failure.
    Wal(WalError),
    /// The engine rejected restored state or a replayed op.
    Engine(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Wal(e) => write!(f, "wal failure: {e}"),
            PersistError::Engine(m) => write!(f, "engine failure: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<WalError> for PersistError {
    fn from(e: WalError) -> PersistError {
        PersistError::Wal(e)
    }
}

/// A [`Durable`] target with crash recovery: WAL-logged ops, periodic
/// atomic checkpoints, byte-identical restore (see the [module
/// docs](self)).
///
/// The wrapper owns a durability directory holding the log segments and
/// the checkpoint file. Ops flow through [`process_op`](Persistent::process_op);
/// reads pass through to the target.
pub struct Persistent<T> {
    inner: T,
    wal: Wal,
    checkpoint_path: PathBuf,
    policy: CheckpointPolicy,
    ops_since_checkpoint: u64,
    /// First LSN with lost logging, set when the log hit out-of-space.
    lost_since: Option<u64>,
    /// Ops applied without log coverage while degraded.
    lost_ops: u64,
    /// Checkpoint attempts that failed (the previous checkpoint stayed
    /// valid each time — the write is atomic).
    checkpoint_failures: u64,
}

impl<S: JoinSampler> Persistent<S> {
    /// Wraps `inner` with durability rooted at `dir`, recovering any state
    /// already there: if a checkpoint exists it is restored into `inner`
    /// (which must be freshly built with the construction parameters of
    /// the original run), then the log suffix is replayed; a log without a
    /// checkpoint is replayed from the beginning.
    ///
    /// Fails with [`PersistError::Wal`] on unrecoverable log damage (a
    /// torn tail on the final segment is fine — it is truncated), and
    /// with [`PersistError::Engine`] when the checkpoint belongs to a
    /// different engine, the state bytes do not fit, or a logged op does
    /// not fit the engine's schema (a log written for another query).
    pub fn open(
        inner: S,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
    ) -> Result<Persistent<S>, PersistError> {
        Persistent::open_with(
            inner,
            dir,
            policy,
            WalOptions::default(),
            Box::new(RealFs::new()),
            Box::new(SystemSleeper),
        )
    }

    /// [`open`](Persistent::open) with explicit WAL tuning, filesystem
    /// shim, and backoff clock — the constructor the fault-injection
    /// harness uses to drive I/O errors through the whole durability
    /// stack.
    pub fn open_with(
        inner: S,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
        opts: WalOptions,
        fs: Box<dyn WalFs>,
        sleeper: Box<dyn Sleeper>,
    ) -> Result<Persistent<S>, PersistError> {
        let wal = Wal::open_with(dir.as_ref().join("wal"), opts, fs, sleeper)?;
        Persistent::recover(inner, wal, dir.as_ref(), policy)
    }

    /// Convenience insert mirroring [`JoinSampler::process`].
    pub fn process(&mut self, rel: usize, tuple: &[rsj_common::Value]) -> Result<(), PersistError> {
        self.process_op(&StreamOp::insert(rel, tuple.to_vec()))
    }

    /// The engine's stats with the durability counters filled in:
    /// `retries` accumulates the WAL's absorbed transient errors onto
    /// whatever the engine reports, and `degraded` is `1` while logging is
    /// lost (see [`health`](Persistent::health)).
    pub fn stats(&self) -> SamplerStats {
        let mut s = self.inner.stats();
        s.retries = Some(s.retries.unwrap_or(0) + self.wal.retries());
        s.degraded = Some(s.degraded.unwrap_or(0) + u64::from(self.lost_since.is_some()));
        s
    }
}

impl<T: Durable> Persistent<T> {
    /// The one recovery path: restore the checkpoint next to the log (if
    /// any) into `inner`, then replay the log suffix through it.
    fn recover(
        mut inner: T,
        mut wal: Wal,
        dir: &Path,
        policy: CheckpointPolicy,
    ) -> Result<Persistent<T>, PersistError> {
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let mut from_lsn = 0;
        if checkpoint_path.exists() {
            let cp = Checkpoint::read_from(&checkpoint_path)?;
            if cp.engine != inner.checkpoint_tag() {
                return Err(PersistError::Engine(format!(
                    "checkpoint was written by engine {} but {} is being restored",
                    cp.engine,
                    inner.checkpoint_tag()
                )));
            }
            inner
                .restore(&cp.state)
                .map_err(|e| PersistError::Engine(format!("checkpoint state rejected: {e}")))?;
            from_lsn = cp.lsn;
        }
        for op in &wal.replay_from(from_lsn)? {
            inner
                .apply(op)
                .map_err(|e| PersistError::Engine(e.to_string()))?;
        }
        Ok(Persistent {
            inner,
            wal,
            checkpoint_path,
            policy,
            ops_since_checkpoint: 0,
            lost_since: None,
            lost_ops: 0,
            checkpoint_failures: 0,
        })
    }

    /// Checks, logs, and applies one op, and checkpoints when the policy
    /// says so. The append is buffered — call [`flush`](Persistent::flush)
    /// (or [`sync`](Persistent::sync)) to make it crash-durable; the
    /// recovery invariant covers the flushed prefix.
    ///
    /// **Out of space degrades instead of failing.** When the append hits
    /// `ENOSPC` the op is still applied, the wrapper enters degraded mode
    /// (see [`health`](Persistent::health)), and this call returns the
    /// out-of-space error exactly once so the caller learns about the lost
    /// durability. Subsequent ops skip the log silently, are counted as
    /// lost, and keep serving reads; a later successful checkpoint heals
    /// the wrapper (its image covers the unlogged ops). Any other WAL
    /// error is returned without applying the op, and the log drops it
    /// too (see `Wal::append`), so replay never applies it either. An op
    /// [`Durable::check`] rejects is rejected before it is logged —
    /// nothing reaches the WAL that replay would reject.
    pub fn process_op(&mut self, op: &StreamOp) -> Result<(), PersistError> {
        self.inner
            .check(op)
            .map_err(|e| PersistError::Engine(e.to_string()))?;
        let mut just_degraded: Option<WalError> = None;
        if self.lost_since.is_some() {
            self.lost_ops += 1;
        } else {
            match self.wal.append(op) {
                Ok(_) => {}
                Err(e) if e.is_out_of_space() => {
                    self.lost_since = Some(self.wal.flushed_lsn());
                    self.lost_ops = 1;
                    just_degraded = Some(e);
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.inner
            .apply(op)
            .map_err(|e| PersistError::Engine(e.to_string()))?;
        self.ops_since_checkpoint += 1;
        if let CheckpointPolicy::EveryOps(n) = self.policy {
            if self.ops_since_checkpoint >= n {
                // Policy-driven checkpoints are non-fatal: a failure counts
                // and re-arms the policy (checkpoint() does both), the
                // previous checkpoint stays valid, and the op itself
                // already succeeded.
                let _ = self.checkpoint();
            }
        }
        match just_degraded {
            Some(e) => Err(PersistError::Wal(e)),
            None => Ok(()),
        }
    }

    /// Takes a checkpoint now: images the target at the current LSN,
    /// writes it atomically (tmp + rename), then truncates the log so it
    /// holds only ops after the checkpoint.
    ///
    /// A failed attempt (an I/O error) never damages recoverability: the
    /// write is atomic, so the previous checkpoint (and the log) stay
    /// valid, the failure is counted
    /// ([`checkpoint_failures`](Persistent::checkpoint_failures)), and the
    /// policy window is re-armed so a later attempt retries. A successful
    /// checkpoint also heals a degraded wrapper — its image includes any
    /// ops that were applied without log coverage.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        let attempt = (|| -> Result<(), PersistError> {
            let cp = Checkpoint {
                engine: self.inner.checkpoint_tag().to_string(),
                lsn: self.wal.next_lsn(),
                state: self.inner.image(),
            };
            self.wal
                .write_atomic(&self.checkpoint_path, &cp.to_bytes())?;
            self.wal.truncate_at_checkpoint()?;
            Ok(())
        })();
        // Either way the policy window restarts: on success because the
        // checkpoint is the new baseline, on failure so one bad attempt
        // does not turn into an attempt per op.
        self.ops_since_checkpoint = 0;
        match attempt {
            Ok(()) => {
                self.lost_since = None;
                self.lost_ops = 0;
                Ok(())
            }
            Err(e) => {
                self.checkpoint_failures += 1;
                Err(e)
            }
        }
    }

    /// Pushes buffered log appends to the OS (what the crash tests call
    /// before a simulated kill).
    pub fn flush(&mut self) -> Result<(), PersistError> {
        self.wal.flush()?;
        Ok(())
    }

    /// Flushes and `fdatasync`s the active log segment.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync()?;
        Ok(())
    }

    /// LSN the next op will get — equals the total number of ops ever
    /// logged through this directory.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Ops logged since the last checkpoint (the policy counter).
    pub fn ops_since_checkpoint(&self) -> u64 {
        self.ops_since_checkpoint
    }

    /// Whether every applied op is currently recoverable (see
    /// [`DurabilityHealth`]).
    pub fn health(&self) -> DurabilityHealth {
        match self.lost_since {
            None => DurabilityHealth::Durable,
            Some(since_lsn) => DurabilityHealth::Degraded {
                lost_ops: self.lost_ops,
                since_lsn,
            },
        }
    }

    /// Transient I/O errors absorbed by the WAL's retry/backoff so far.
    pub fn retries(&self) -> u64 {
        self.wal.retries()
    }

    /// Checkpoint attempts that failed non-fatally (the previous
    /// checkpoint stayed valid each time).
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures
    }

    /// The wrapped target, for reads (`samples`, `stats`, ...).
    pub fn engine(&self) -> &T {
        &self.inner
    }

    /// The wrapped target, mutably — for maintenance calls like
    /// [`JoinSampler::replan`] or service registration that do not consume
    /// stream ops. Feeding it ops through this reference bypasses the log
    /// and forfeits recovery; use [`process_op`](Persistent::process_op).
    pub fn engine_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the target, dropping durability (the log is flushed by
    /// `Wal`'s drop).
    pub fn into_engine(self) -> T {
        self.inner
    }
}

/// The durable resident [`SamplerService`]: a [`Persistent`] whose target
/// is the whole service, so one log covers every registered query. It
/// dereferences to that wrapper for ops, checkpoints and health, and adds
/// the service's constructors and accessors.
///
/// **Registrations** are part of checkpoints, not the log: a checkpoint
/// captures the full service (store, index groups, member cores). A query
/// registered after the last checkpoint is absent after recovery —
/// re-registering it backfills from the recovered history and lands
/// byte-identical, so the loss is recoverable; checkpoint after
/// registration churn to avoid it entirely.
pub struct PersistentService(Persistent<SamplerService>);

impl PersistentService {
    /// Wraps `inner` (freshly built over the original run's universe)
    /// with durability rooted at `dir`, recovering any state already
    /// there: an existing checkpoint is restored into `inner` (see
    /// [`SamplerService::restore_from_snapshot`]) and the log suffix is
    /// replayed through the service.
    ///
    /// `_unused` is ignored and nothing calls it. It stays only so the
    /// repo benchmark (`benchmark/`, which changes only in its own commits)
    /// compiles unmodified: it passes `&mut |_: &str, _: usize| None`.
    pub fn open(
        inner: SamplerService,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
        _unused: &mut dyn FnMut(&str, usize) -> Option<Infallible>,
    ) -> Result<PersistentService, PersistError> {
        Self::open_with(
            inner,
            dir,
            policy,
            WalOptions::default(),
            Box::new(RealFs::new()),
            Box::new(SystemSleeper),
        )
    }

    /// [`open`](PersistentService::open) with explicit WAL tuning,
    /// filesystem shim, and backoff clock (the fault-injection entry
    /// point, as for [`Persistent::open_with`]).
    pub fn open_with(
        inner: SamplerService,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
        opts: WalOptions,
        fs: Box<dyn WalFs>,
        sleeper: Box<dyn Sleeper>,
    ) -> Result<PersistentService, PersistError> {
        let wal = Wal::open_with(dir.as_ref().join("wal"), opts, fs, sleeper)?;
        Persistent::recover(inner, wal, dir.as_ref(), policy).map(PersistentService)
    }

    /// The wrapped service, for reads and registration
    /// ([`SamplerService::register`] backfills from the retained history;
    /// checkpoint afterwards to make the registration durable).
    pub fn service(&self) -> &SamplerService {
        self.0.engine()
    }

    /// The wrapped service, mutably — registration and deregistration go
    /// through here. Feeding stream ops through this reference bypasses
    /// the log and forfeits recovery; use
    /// [`process_op`](Persistent::process_op).
    pub fn service_mut(&mut self) -> &mut SamplerService {
        self.0.engine_mut()
    }
}

impl Deref for PersistentService {
    type Target = Persistent<SamplerService>;

    fn deref(&self) -> &Persistent<SamplerService> {
        &self.0
    }
}

impl DerefMut for PersistentService {
    fn deref_mut(&mut self) -> &mut Persistent<SamplerService> {
        &mut self.0
    }
}
