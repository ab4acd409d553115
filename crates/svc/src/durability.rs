//! Crash durability: generation-numbered checkpoints and the background
//! snapshot scheduler.
//!
//! A durable [`Service`](crate::Service) keeps two files per
//! **generation** `g` in its durability directory:
//!
//! * `memo.g{g}.snap` — the memo snapshot (`RMTSMEM1`);
//! * `journal.g{g}.log` — the session journal (`RMTSJRN1`), whose prefix
//!   is the checkpoint *compaction*: for every session live at the
//!   checkpoint, its original `Open` plus every committed delta, in order.
//!   Operations committed after the checkpoint append behind that prefix.
//!
//! ## Checkpoint rule
//!
//! A checkpoint takes the checkpoint lock, then every shard lock in index
//! order. With every shard lock held no job can run, so no operation can
//! commit and no journal append can land: generation `g+1` is a
//! consistent cut — no per-op sequence numbers needed. Memo hits are
//! still answered meanwhile, because they take no shard lock. The new
//! memo snapshot and compacted journal are written atomically, the live
//! append handle is swapped to the new journal, and older generations are
//! deleted, together with any checkpoint temp file a kill mid-write left
//! behind; then the locks are released. Closed sessions and rejected
//! deltas simply vanish at compaction — that is the journal truncation.
//! Graceful shutdown takes the same locks, closes every shard, and writes
//! a final generation.
//!
//! ## Recovery rule
//!
//! Recovery reads the **newest valid** journal for sessions and the
//! **newest valid** memo snapshot for the memo — independently, so a crash
//! between the two writes of a checkpoint is safe (the journal is only
//! swapped *after* both files exist). It replays the journal's **live
//! tail** on the recovering thread: for each session still open at the
//! journal's end, its ops from its last `Open` onwards — exactly what a
//! checkpoint would keep. The loss bound: memo entries newer than the
//! last checkpoint are gone (≤ one snapshot interval); session state
//! loses **nothing acknowledged**, because every committed op was
//! journaled write-ahead.

use crate::journal::{self, JournalOp, JournalWriter};
use crate::record::{fnv1a, RecordReport, FNV_OFFSET};
use crate::shard::{self, SessionState, Shard, ShardExport};
use crate::snapshot;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Durability knobs for a [`Service`](crate::Service).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the generation files (created if absent).
    pub dir: PathBuf,
    /// Background checkpoint cadence (min 1ms; default 30s).
    pub snapshot_interval: Duration,
    /// Also checkpoint once this many mutations (fresh memo entries +
    /// committed session ops) accumulate (min 1; default 4096).
    pub snapshot_every_mutations: u64,
}

impl DurabilityConfig {
    /// Durability under `dir` with default cadence. Chain `with_*`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_interval: Duration::from_secs(30),
            snapshot_every_mutations: 4096,
        }
    }

    /// Sets the background checkpoint interval (clamped to ≥ 1ms).
    pub fn with_snapshot_interval(mut self, interval: Duration) -> Self {
        self.snapshot_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Sets the mutation-count checkpoint trigger (min 1).
    pub fn with_snapshot_every_mutations(mut self, mutations: u64) -> Self {
        self.snapshot_every_mutations = mutations.max(1);
        self
    }
}

/// What recovery found and rebuilt (returned by
/// [`Service::with_durability`](crate::Service::with_durability)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation recovery resumed at (0 on first boot).
    pub generation: u64,
    /// Memo snapshot restore outcome.
    pub memo: RecordReport,
    /// Journal read outcome.
    pub journal: RecordReport,
    /// Journal operations read. Only the live tail — each open session's
    /// ops from its last `Open` onwards — goes through the session
    /// machinery; this counts every op read, replayed or not.
    pub ops_replayed: usize,
    /// Sessions live again after replay.
    pub sessions_recovered: usize,
    /// Replayed sessions whose replay did not reproduce a committed op
    /// (torn down rather than left half-applied; 0 in any honest run —
    /// replay is deterministic). Sessions closed before the journal's end
    /// are not replayed, so they never count here.
    pub sessions_failed: usize,
}

/// What one checkpoint wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The generation number written.
    pub generation: u64,
    /// Memo entries in the snapshot.
    pub memo_entries: usize,
    /// Live sessions in the compacted journal.
    pub sessions: usize,
    /// Size of the compacted journal in bytes.
    pub journal_bytes: usize,
    /// FNV-1a fold of every live session's state digest (name order) —
    /// two services with equal folds hold bit-identical session fleets.
    pub sessions_digest: u64,
}

/// Durability counters (mirror into `obs` as `svc.journal.*` /
/// `svc.checkpoint.*` via [`DurabilityStats::mirror_into_obs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Current checkpoint generation.
    pub generation: u64,
    /// Journal records appended since start.
    pub journal_appends: u64,
    /// Journal bytes appended since start.
    pub journal_bytes: u64,
    /// Appends that failed with an I/O error (the service keeps serving,
    /// degraded to in-memory only — watch this counter).
    pub journal_append_errors: u64,
    /// Checkpoints completed since start.
    pub checkpoints: u64,
    /// Mutations accumulated since the last checkpoint.
    pub mutations_since_checkpoint: u64,
}

impl DurabilityStats {
    /// Mirrors the counters into the calling thread's `obs` recording
    /// (`svc.journal.appends`, `svc.journal.bytes`,
    /// `svc.journal.append_errors`, `svc.checkpoint.count`,
    /// `svc.checkpoint.generation`).
    pub fn mirror_into_obs(&self) {
        rmts_obs::count("svc.journal.appends", self.journal_appends);
        rmts_obs::count("svc.journal.bytes", self.journal_bytes);
        rmts_obs::count("svc.journal.append_errors", self.journal_append_errors);
        rmts_obs::count("svc.checkpoint.count", self.checkpoints);
        rmts_obs::count("svc.checkpoint.generation", self.generation);
    }
}

/// Shared durability state: the live journal handle plus counters. Shards
/// append through it (write-ahead, before replying); the checkpoint path
/// swaps the handle under the mutex while it holds every shard lock.
pub(crate) struct DurabilityState {
    pub(crate) dir: PathBuf,
    pub(crate) journal: Mutex<JournalWriter>,
    pub(crate) generation: AtomicU64,
    /// Serializes checkpoints against each other and against shutdown —
    /// the snapshot-generation lock that keeps a background snapshot and
    /// `shutdown_with_snapshot` off each other's target files.
    pub(crate) checkpoint_lock: Mutex<()>,
    pub(crate) mutations: AtomicU64,
    pub(crate) appends: AtomicU64,
    pub(crate) append_bytes: AtomicU64,
    pub(crate) append_errors: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
}

impl DurabilityState {
    pub(crate) fn new(dir: PathBuf, writer: JournalWriter, generation: u64) -> Self {
        DurabilityState {
            dir,
            journal: Mutex::new(writer),
            generation: AtomicU64::new(generation),
            checkpoint_lock: Mutex::new(()),
            mutations: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        }
    }

    /// Appends one committed op (write-ahead: call **before** sending the
    /// response). An I/O failure is counted, not propagated — the service
    /// keeps serving with degraded durability rather than failing live
    /// traffic.
    pub(crate) fn append(&self, op: &JournalOp) {
        let mut writer = self.journal.lock().expect("journal writer poisoned");
        match writer.append(op) {
            Ok(bytes) => {
                self.appends.fetch_add(1, Ordering::Relaxed);
                self.append_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                self.mutations.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counts a non-journaled mutation (a fresh memo entry) toward the
    /// mutation-triggered checkpoint.
    pub(crate) fn note_mutation(&self) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            generation: self.generation.load(Ordering::Relaxed),
            journal_appends: self.appends.load(Ordering::Relaxed),
            journal_bytes: self.append_bytes.load(Ordering::Relaxed),
            journal_append_errors: self.append_errors.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            mutations_since_checkpoint: self.mutations.load(Ordering::Relaxed),
        }
    }
}

/// Path of generation `g`'s memo snapshot.
pub(crate) fn memo_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("memo.g{generation}.snap"))
}

/// Path of generation `g`'s session journal.
pub(crate) fn journal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("journal.g{generation}.log"))
}

/// A file of the durability directory, by name: a generation's memo
/// snapshot or journal, or a checkpoint temp file
/// (`{memo,journal}.g{N}.tmp.{pid}`, left behind when a kill lands
/// between the temp write and its rename).
enum GenFile {
    Memo(u64),
    Journal(u64),
    Temp,
}

fn gen_file(name: &str) -> Option<GenFile> {
    let (stem, rest) = name.split_once(".g")?;
    let (generation, ext) = rest.split_once('.')?;
    let generation = generation.parse().ok()?;
    match (stem, ext) {
        ("memo", "snap") => Some(GenFile::Memo(generation)),
        ("journal", "log") => Some(GenFile::Journal(generation)),
        ("memo" | "journal", ext) if ext.starts_with("tmp.") => Some(GenFile::Temp),
        _ => None,
    }
}

/// Every durability file in `dir` with its path.
fn gen_files(dir: &Path) -> Vec<(PathBuf, GenFile)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|entry| {
            let file = gen_file(entry.file_name().to_str()?)?;
            Some((entry.path(), file))
        })
        .collect()
}

/// `(newest memo generation, newest journal generation)` present in `dir`.
pub(crate) fn newest_generations(dir: &Path) -> (Option<u64>, Option<u64>) {
    let (mut memo, mut journal) = (None, None);
    for (_, file) in gen_files(dir) {
        match file {
            GenFile::Memo(g) => memo = memo.max(Some(g)),
            GenFile::Journal(g) => journal = journal.max(Some(g)),
            GenFile::Temp => {}
        }
    }
    (memo, journal)
}

/// Best-effort removal of every generation file strictly older than
/// `keep` and of every checkpoint temp file (crash stragglers included —
/// they get another chance next checkpoint). Only safe once generation
/// `keep` is renamed into place, under the checkpoint lock: no temp file
/// is then in flight.
fn remove_stale_files(dir: &Path, keep: u64) {
    for (path, file) in gen_files(dir) {
        if let GenFile::Memo(g) | GenFile::Journal(g) = file {
            if g >= keep {
                continue;
            }
        }
        let _ = std::fs::remove_file(path);
    }
}

/// The compaction records for a session fleet: per live session (name
/// order), its original `Open` plus every committed delta.
pub(crate) fn compaction_ops(sessions: &[SessionState]) -> Vec<JournalOp> {
    let mut ops = Vec::with_capacity(sessions.iter().map(|s| 1 + s.deltas.len()).sum());
    for s in sessions {
        ops.push(JournalOp::Open {
            session: s.name.clone(),
            base: s.base.clone(),
        });
        for delta in &s.deltas {
            ops.push(JournalOp::Delta {
                session: s.name.clone(),
                delta: delta.clone(),
            });
        }
    }
    ops
}

/// FNV-1a fold of the fleet's per-session digests, in name order.
pub(crate) fn fold_digests(sessions: &[SessionState]) -> u64 {
    sessions.iter().fold(FNV_OFFSET, |h, s| {
        fnv1a(fnv1a(h, s.name.as_bytes()), &s.digest.to_le_bytes())
    })
}

/// Exports every locked shard and merges the exports into one cut,
/// sorted so that the files written from it do not depend on the shard
/// count.
pub(crate) fn merge(fleet: &[MutexGuard<'_, Shard>]) -> ShardExport {
    let mut cut = ShardExport {
        memo: Vec::new(),
        sessions: Vec::new(),
    };
    for shard in fleet {
        let export = shard.export_state();
        cut.memo.extend(export.memo);
        cut.sessions.extend(export.sessions);
    }
    cut.memo
        .sort_by(|a, b| (&a.pairs, a.m, &a.engine).cmp(&(&b.pairs, b.m, &b.engine)));
    cut.sessions.sort_by(|a, b| a.name.cmp(&b.name));
    cut
}

/// Writes the next generation from `cut` (memo snapshot, then compacted
/// journal, both atomic), swaps the live journal handle onto the new
/// file, resets the mutation counter, and deletes older generations and
/// orphaned temp files. Caller must hold the checkpoint lock and every
/// shard lock.
pub(crate) fn write_generation(
    dur: &DurabilityState,
    cut: &ShardExport,
) -> io::Result<CheckpointReport> {
    let generation = dur.generation.load(Ordering::Relaxed) + 1;
    snapshot::write_snapshot(&memo_path(&dur.dir, generation), &cut.memo)?;
    let jpath = journal_path(&dur.dir, generation);
    let ops = compaction_ops(&cut.sessions);
    let journal_bytes = journal::write_journal(&jpath, &snapshot::engine_fingerprint(), &ops)?;
    let writer = JournalWriter::open_end(&jpath)?;
    *dur.journal.lock().expect("journal writer poisoned") = writer;
    dur.generation.store(generation, Ordering::Relaxed);
    dur.mutations.store(0, Ordering::Relaxed);
    dur.checkpoints.fetch_add(1, Ordering::Relaxed);
    remove_stale_files(&dur.dir, generation);
    Ok(CheckpointReport {
        generation,
        memo_entries: cut.memo.len(),
        sessions: cut.sessions.len(),
        journal_bytes,
        sessions_digest: fold_digests(&cut.sessions),
    })
}

/// Runs one checkpoint against a live fleet, under the checkpoint lock
/// and every shard lock. Returns `Ok(None)` once shutdown has closed the
/// shards — the graceful-shutdown path writes its own final generation
/// under the same locks, so skipping here loses nothing.
pub(crate) fn run_checkpoint(
    shards: &[Mutex<Shard>],
    dur: &DurabilityState,
) -> io::Result<Option<CheckpointReport>> {
    let _guard = dur
        .checkpoint_lock
        .lock()
        .expect("checkpoint lock poisoned");
    let fleet = shard::lock_all(shards);
    if fleet[0].closed {
        return Ok(None);
    }
    write_generation(dur, &merge(&fleet)).map(Some)
}

/// The background snapshot scheduler: a thread that checkpoints every
/// `interval` or once `every_mutations` mutations accumulate, whichever
/// comes first. Stopping joins the thread; an in-flight checkpoint
/// completes first.
pub(crate) struct SchedulerHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl SchedulerHandle {
    pub(crate) fn spawn(
        shards: Arc<[Mutex<Shard>]>,
        dur: Arc<DurabilityState>,
        interval: Duration,
        every_mutations: u64,
    ) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        // Wake often enough to notice the mutation trigger without
        // spinning; the interval itself can be much longer.
        let tick = interval
            .min(Duration::from_millis(25))
            .max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("rmts-svc-snapshots".to_string())
            .spawn(move || {
                let (lock, cv) = &*stop2;
                let mut last = Instant::now();
                let mut stopped = lock.lock().expect("scheduler stop flag poisoned");
                loop {
                    let (guard, _timeout) = cv
                        .wait_timeout(stopped, tick)
                        .expect("scheduler stop flag poisoned");
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    let due_time = last.elapsed() >= interval;
                    let due_load = dur.mutations.load(Ordering::Relaxed) >= every_mutations;
                    if !(due_time || due_load) {
                        continue;
                    }
                    if dur.mutations.load(Ordering::Relaxed) == 0 {
                        last = Instant::now(); // nothing new — skip the rewrite
                        continue;
                    }
                    drop(stopped);
                    // Best-effort: an I/O failure leaves the previous
                    // generation intact and the next tick retries.
                    let _ = run_checkpoint(&shards, &dur);
                    last = Instant::now();
                    stopped = lock.lock().expect("scheduler stop flag poisoned");
                }
            })
            .expect("spawn snapshot scheduler");
        SchedulerHandle {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread and joins it (idempotent).
    pub(crate) fn stop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().expect("scheduler stop flag poisoned") = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SchedulerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
