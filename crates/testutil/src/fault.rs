//! Deterministic fault injection for the chaos harness.
//!
//! Everything here is reproducible from a `u64` seed: [`FaultPlan`]
//! derives a schedule of WAL I/O faults with a splitmix-seeded
//! [`rsj_common::rng::RsjRng`], and [`FaultFs`] replays that schedule
//! deterministically — the *n*-th call of each filesystem op either fails
//! the way the plan says or passes through to the real filesystem
//! ([`RealFs`]).
//!
//! The shim sits under `rsj_storage::wal::Wal` via
//! [`Wal::open_with`](rsj_storage::wal::Wal::open_with) (or
//! `Persistent::open_with` one level up), so an injected failure exercises
//! the production retry/backoff, out-of-space degradation, and
//! atomic-checkpoint paths — not test doubles of them. Pair it with
//! [`TestSleeper`] so retried backoff costs no wall-clock and the delay
//! sequence itself becomes an assertable artifact.

use rsj_common::rng::RsjRng;
use rsj_common::FxHashMap;
use rsj_storage::wal::{RealFs, Sleeper, WalFs};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The write-path filesystem operations a fault can target — one variant
/// per method of [`WalFs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FsOp {
    /// `WalFs::append` — the op-frame write path.
    Append,
    /// `WalFs::sync_data`.
    Sync,
    /// `WalFs::write_file` — checkpoint tmp files and segment headers.
    WriteFile,
    /// `WalFs::rename` — the atomic checkpoint publish.
    Rename,
    /// `WalFs::remove_file` — old-segment cleanup after truncation.
    Remove,
    /// `WalFs::truncate` — torn-tail repair.
    Truncate,
}

/// What an armed fault does to the call it fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Fail with a retryable kind (`Interrupted`) without touching disk —
    /// the WAL's backoff must absorb it.
    Transient,
    /// Fail with `StorageFull` — the durability layer must degrade, not
    /// panic or corrupt.
    Full,
    /// Write only the first `n` bytes, then fail retryable: a partial
    /// write the WAL heals by truncating to the flushed prefix and
    /// retrying.
    Torn(usize),
    /// Write only the first `n` bytes and report success: a crash-style
    /// torn tail, discovered only by the recovery scan on reopen.
    SilentTorn(usize),
}

fn transient_err() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected transient fault")
}

fn full_err() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "injected out-of-space fault")
}

#[derive(Default)]
struct FaultShared {
    /// Armed faults keyed by (op, 0-based call index of that op).
    schedule: FxHashMap<(FsOp, u64), IoFault>,
    /// Calls seen so far, per op.
    calls: FxHashMap<FsOp, u64>,
    /// While set, every space-consuming op fails `StorageFull`.
    full: bool,
    /// Faults that actually fired.
    fired: u64,
}

/// Shared control half of a [`FaultFs`]: arms faults and reads counters
/// while the shim is owned by a `Wal` on the other side.
#[derive(Clone, Default)]
pub struct FaultHandle {
    shared: Arc<Mutex<FaultShared>>,
}

impl FaultHandle {
    /// Arms `fault` to fire on the `index`-th call (0-based) of `op`.
    pub fn fail_at(&self, op: FsOp, index: u64, fault: IoFault) {
        self.shared
            .lock()
            .unwrap()
            .schedule
            .insert((op, index), fault);
    }

    /// Sets or clears the device-full condition: while set, every
    /// space-consuming op (append, write, rename) fails `StorageFull`.
    /// Clearing it models space being freed.
    pub fn set_full(&self, full: bool) {
        self.shared.lock().unwrap().full = full;
    }

    /// Faults that have fired so far (scheduled and device-full alike).
    pub fn fired(&self) -> u64 {
        self.shared.lock().unwrap().fired
    }

    /// Calls of `op` seen so far.
    pub fn calls(&self, op: FsOp) -> u64 {
        self.shared
            .lock()
            .unwrap()
            .calls
            .get(&op)
            .copied()
            .unwrap_or(0)
    }
}

/// A [`WalFs`] that wraps [`RealFs`] and fails according to a
/// deterministic schedule — see the [module docs](self).
pub struct FaultFs {
    inner: RealFs,
    shared: Arc<Mutex<FaultShared>>,
}

impl FaultFs {
    /// A fresh shim plus the handle that controls it.
    pub fn new() -> (FaultFs, FaultHandle) {
        let handle = FaultHandle::default();
        let fs = FaultFs {
            inner: RealFs::new(),
            shared: Arc::clone(&handle.shared),
        };
        (fs, handle)
    }

    /// Counts this call of `op` and returns the fault to apply, if any.
    fn take(&self, op: FsOp) -> Option<IoFault> {
        let mut sh = self.shared.lock().unwrap();
        let idx = sh.calls.entry(op).or_insert(0);
        let this_call = *idx;
        *idx += 1;
        if sh.full && matches!(op, FsOp::Append | FsOp::WriteFile | FsOp::Rename) {
            sh.fired += 1;
            return Some(IoFault::Full);
        }
        let fault = sh.schedule.remove(&(op, this_call));
        if fault.is_some() {
            sh.fired += 1;
        }
        fault
    }

    /// Applies a fault with no meaningful partial-write form (sync,
    /// rename, remove, truncate): torn variants degrade to transient.
    fn plain(fault: IoFault) -> io::Result<()> {
        match fault {
            IoFault::Full => Err(full_err()),
            IoFault::Transient | IoFault::Torn(_) | IoFault::SilentTorn(_) => Err(transient_err()),
        }
    }
}

impl WalFs for FaultFs {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.take(FsOp::Append) {
            None => self.inner.append(path, bytes),
            Some(IoFault::Transient) => Err(transient_err()),
            Some(IoFault::Full) => Err(full_err()),
            Some(IoFault::Torn(n)) => {
                self.inner.append(path, &bytes[..n.min(bytes.len())])?;
                Err(transient_err())
            }
            Some(IoFault::SilentTorn(n)) => self.inner.append(path, &bytes[..n.min(bytes.len())]),
        }
    }

    fn sync_data(&mut self, path: &Path) -> io::Result<()> {
        match self.take(FsOp::Sync) {
            None => self.inner.sync_data(path),
            Some(f) => FaultFs::plain(f),
        }
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.take(FsOp::WriteFile) {
            None => self.inner.write_file(path, bytes),
            Some(IoFault::Transient) => Err(transient_err()),
            Some(IoFault::Full) => Err(full_err()),
            Some(IoFault::Torn(n)) => {
                self.inner.write_file(path, &bytes[..n.min(bytes.len())])?;
                Err(transient_err())
            }
            Some(IoFault::SilentTorn(n)) => {
                self.inner.write_file(path, &bytes[..n.min(bytes.len())])
            }
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        match self.take(FsOp::Rename) {
            None => self.inner.rename(from, to),
            Some(f) => FaultFs::plain(f),
        }
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        match self.take(FsOp::Remove) {
            None => self.inner.remove_file(path),
            Some(f) => FaultFs::plain(f),
        }
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        match self.take(FsOp::Truncate) {
            None => self.inner.truncate(path, len),
            Some(f) => FaultFs::plain(f),
        }
    }
}

/// A [`Sleeper`] that records requested backoff delays instead of
/// sleeping — chaos sweeps stay fast, and the delay sequence becomes an
/// assertable artifact.
#[derive(Clone, Default)]
pub struct TestSleeper(pub Arc<Mutex<Vec<Duration>>>);

impl TestSleeper {
    /// A fresh recorder.
    pub fn new() -> TestSleeper {
        TestSleeper::default()
    }

    /// The delays requested so far, in order.
    pub fn slept(&self) -> Vec<Duration> {
        self.0.lock().unwrap().clone()
    }
}

impl Sleeper for TestSleeper {
    fn sleep(&mut self, d: Duration) {
        self.0.lock().unwrap().push(d);
    }
}

/// A seeded schedule of faults for one chaos run: which WAL filesystem
/// calls fail. Two plans built from the same `(seed, n_ops)` are
/// identical, so every chaos failure reproduces from its seed alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(op, call_index, fault)`: WAL write-path faults, armed via
    /// [`FaultPlan::arm`]. Only retry-healable kinds — out-of-space and
    /// crash-torn tails are modeled deliberately, not sampled.
    pub wal_faults: Vec<(FsOp, u64, IoFault)>,
}

impl FaultPlan {
    /// Derives the plan for `seed` over a stream of `n_ops` ops: 1–3
    /// retryable WAL faults.
    pub fn from_seed(seed: u64, n_ops: u64) -> FaultPlan {
        let mut rng = RsjRng::seed_from_u64(rsj_common::rng::splitmix64(seed));
        let n_ops = n_ops.max(1);
        let wal_faults = (0..1 + rng.index(3))
            .map(|_| {
                let op = if rng.index(4) == 0 {
                    FsOp::Sync
                } else {
                    FsOp::Append
                };
                let fault = match rng.index(3) {
                    0 => IoFault::Transient,
                    // Short torn prefixes: a few bytes of a frame land
                    // before the failure, exercising truncate-and-retry.
                    _ => IoFault::Torn(rng.index(8)),
                };
                (op, rng.below_u64(n_ops), fault)
            })
            .collect();
        FaultPlan { wal_faults }
    }

    /// Arms the WAL half of the plan on a [`FaultFs`] handle.
    pub fn arm(&self, handle: &FaultHandle) {
        for &(op, index, fault) in &self.wal_faults {
            handle.fail_at(op, index, fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_storage::wal::{Wal, WalOptions};

    #[test]
    fn plans_are_reproducible_from_the_seed() {
        for seed in 0..50 {
            let a = FaultPlan::from_seed(seed, 500);
            let b = FaultPlan::from_seed(seed, 500);
            assert_eq!(a, b);
            assert!(!a.wal_faults.is_empty());
            for &(_, at, _) in &a.wal_faults {
                assert!(at < 500);
            }
        }
        assert_ne!(FaultPlan::from_seed(1, 500), FaultPlan::from_seed(2, 500));
    }

    #[test]
    fn fault_fs_fires_on_the_scheduled_call_only() {
        let dir = tempdir();
        let (fs, handle) = FaultFs::new();
        handle.fail_at(FsOp::WriteFile, 1, IoFault::Transient);
        let mut fs: Box<dyn WalFs> = Box::new(fs);
        fs.write_file(&dir.join("a"), b"ok").unwrap();
        let err = fs.write_file(&dir.join("b"), b"no").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        fs.write_file(&dir.join("c"), b"ok").unwrap();
        assert_eq!(handle.fired(), 1);
        assert_eq!(handle.calls(FsOp::WriteFile), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn device_full_blankets_space_consuming_ops_until_cleared() {
        let dir = tempdir();
        let (fs, handle) = FaultFs::new();
        let mut fs: Box<dyn WalFs> = Box::new(fs);
        handle.set_full(true);
        let err = fs.append(&dir.join("log"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        handle.set_full(false);
        fs.append(&dir.join("log"), b"x").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_transients_are_absorbed_by_the_wal_retry_path() {
        let dir = tempdir();
        let (fs, handle) = FaultFs::new();
        handle.fail_at(FsOp::Append, 0, IoFault::Transient);
        handle.fail_at(FsOp::Append, 1, IoFault::Torn(2));
        let sleeper = TestSleeper::new();
        let opts = WalOptions {
            auto_flush: 0,
            ..WalOptions::default()
        };
        let mut wal = Wal::open_with(
            dir.join("wal"),
            opts,
            Box::new(fs),
            Box::new(sleeper.clone()),
        )
        .unwrap();
        let op = rsj_storage::StreamOp::insert(0, vec![1, 2]);
        wal.append(&op).unwrap();
        wal.append(&op).unwrap();
        drop(wal);
        assert_eq!(handle.fired(), 2);
        assert!(!sleeper.slept().is_empty(), "backoff must have been taken");
        let mut wal = Wal::open(dir.join("wal")).unwrap();
        assert_eq!(wal.replay_from(0).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rsj-fault-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
