//! The service façade: the shard fleet, submission, batching, statistics.
//!
//! Shards are locks, not threads. Every job runs on the thread that
//! submits it: a v1 memo hit is answered from the shared memo table with
//! no shard lock at all, and any other job runs under its shard's lock
//! (see the crate docs). Batches fan out over one scoped worker per
//! shard. The lock order is: the checkpoint lock, then shard locks in
//! index order, then a journal writer, the engine interner or a memo
//! table, the interner before a memo table. Only checkpoint and shutdown
//! hold more than one shard lock.
//!
//! Because analysis runs on the submitting thread, its `core.*` and
//! `rta.*` counters land in that thread's `obs` recording, when one is
//! live there.

use crate::canonical::{fnv1a as canonical_hash, CanonicalSet};
use crate::durability::{
    self, CheckpointReport, DurabilityConfig, DurabilityState, DurabilityStats, RecoveryReport,
    SchedulerHandle,
};
use crate::journal::{JournalOp, JournalWriter};
use crate::record::{fnv1a, RecordReport, FNV_OFFSET};
use crate::request::{AnalyzeRequest, RepartitionRequest, Request, Response, Verdict};
use crate::shard::{self, AnalyzeJob, EngineIds, EngineKey, Memo, SessionJob, Shard, ShardExport};
use crate::snapshot::{self, MemoEntry, SnapshotReport};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sizing knobs for a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of shards (min 1). Duplicate task sets always land on the
    /// same shard, so memo hit rates do not degrade with more shards.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { shards: 4 }
    }
}

impl ServiceConfig {
    /// Default sizing. Chain [`Self::with_shards`] — the uniform-builder
    /// idiom.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the shard count (min 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Counters shared by every thread that serves a job (plain atomics: the
/// `obs` recorders are thread-local, and batch workers cannot see the
/// caller's recording — [`Service::run_stream`] mirrors these into `obs`
/// instead).
pub(crate) struct SharedStats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub memo_hits: AtomicU64,
    pub memo_misses: AtomicU64,
    pub panics: AtomicU64,
    pub busy_ns: Vec<AtomicU64>,
}

/// A point-in-time statistics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted by `submit*`/`run_stream`.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Answers served from the memo table.
    pub memo_hits: u64,
    /// Answers computed fresh.
    pub memo_misses: u64,
    /// Requests whose engine panicked (isolated; answered as `Invalid`).
    pub panics: u64,
    /// Always 0: shards have no queue. Kept so that readers of the
    /// statistics keep building.
    pub max_queue_depth: usize,
    /// Always 0: submission never blocks on a queue. Kept so that readers
    /// of the statistics keep building.
    pub backpressure_waits: u64,
    /// Per-shard busy time in nanoseconds: the time each job spent under
    /// its shard's lock. A job's time is added before its submission
    /// returns.
    pub shard_busy_ns: Vec<u64>,
}

/// A single-request submission's answer; redeem with [`Ticket::wait`].
/// The request has been served by the time `submit` returns its ticket.
pub struct Ticket {
    resp: Response,
}

impl Ticket {
    /// The response.
    pub fn wait(self) -> Response {
        self.resp
    }
}

/// The sharded, batched analysis service (crate docs for the model).
pub struct Service {
    /// Every shard behind its own lock, shared with the snapshot
    /// scheduler.
    shards: Arc<[Mutex<Shard>]>,
    /// Each shard's memo table: written only under its shard's lock,
    /// read here by every submission (the memo-hit path).
    memos: Vec<Arc<Memo>>,
    stats: Arc<SharedStats>,
    seq: AtomicUsize,
    /// Crash-durability state ([`Service::with_durability`] only).
    durability: Option<Arc<DurabilityState>>,
    /// The background snapshot scheduler (durable services only); behind a
    /// mutex so shutdown can stop it from `&self`.
    scheduler: Mutex<Option<SchedulerHandle>>,
}

impl Service {
    /// Builds the shard fleet with cold memo tables.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::new_seeded(cfg, Vec::new(), None)
    }

    /// Builds the shard fleet warm: restores the memo snapshot at `path`
    /// (if any) and seeds each shard with the entries that route to it.
    /// A missing, stale, or corrupt snapshot degrades to a (partially)
    /// cold start — see [`crate::record`] for the trust
    /// policy — with `svc.memo.restored` / `svc.memo.stale` /
    /// `svc.memo.corrupt` counters emitted when an `obs` recording is
    /// live on the calling thread.
    pub fn with_restored(cfg: ServiceConfig, path: &Path) -> (Self, RecordReport) {
        let (entries, report) = restore_memo(path);
        (Self::new_seeded(cfg, entries, None), report)
    }

    /// Builds a **crash-durable** fleet rooted at `cfg.dir` (created if
    /// absent): recovers the newest valid memo snapshot and session
    /// journal (see [`crate::durability`] for the generation layout and
    /// [`crate::record`] for the trust policy), replays the journal's
    /// live tail through the ordinary session machinery on the calling
    /// thread — guided replay is deterministic, so recovered sessions are
    /// bit-identical to their pre-crash state — and starts the background
    /// snapshot scheduler. Every committed session op is thereafter
    /// journaled write-ahead.
    pub fn with_durability(
        cfg: ServiceConfig,
        dcfg: DurabilityConfig,
    ) -> io::Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(&dcfg.dir)?;
        let fp = snapshot::engine_fingerprint();
        let (memo_gen, journal_gen) = durability::newest_generations(&dcfg.dir);
        let mut report = RecoveryReport::default();
        // With no memo file at all, generation 0's path is missing too.
        let (entries, memo_report) =
            restore_memo(&durability::memo_path(&dcfg.dir, memo_gen.unwrap_or(0)));
        report.memo = memo_report;
        // Sessions come from the newest journal *file*; the generation
        // counter continues from the newest file of either kind, so the
        // next checkpoint never collides with a crash straggler (a memo
        // snapshot written just before the crash cut off its journal).
        let journal_file_gen = journal_gen.unwrap_or(0);
        let (writer, ops, journal_report) =
            JournalWriter::resume(&durability::journal_path(&dcfg.dir, journal_file_gen), &fp)?;
        report.journal = journal_report;
        report.generation = memo_gen.unwrap_or(0).max(journal_file_gen);
        let dur = Arc::new(DurabilityState::new(
            dcfg.dir.clone(),
            writer,
            report.generation,
        ));
        let svc = Self::new_seeded(cfg, entries, Some(Arc::clone(&dur)));
        let (recovered, failed) = svc.replay_journal(&ops);
        report.ops_replayed = ops.len();
        report.sessions_recovered = recovered;
        report.sessions_failed = failed;
        rmts_obs::count("svc.journal.replayed", ops.len() as u64);
        if report.journal.stale {
            rmts_obs::count("svc.journal.stale", 1);
        }
        if report.journal.corrupt {
            rmts_obs::count("svc.journal.corrupt", 1);
        }
        // The scheduler starts only after replay: recovery is complete
        // before the first background checkpoint can cut a generation.
        *svc.scheduler.lock().expect("scheduler registry poisoned") = Some(SchedulerHandle::spawn(
            Arc::clone(&svc.shards),
            Arc::clone(&dur),
            dcfg.snapshot_interval,
            dcfg.snapshot_every_mutations,
        ));
        Ok((svc, report))
    }

    /// Replays the journal's **live tail** through the session machinery
    /// (un-journaled — the ops are already in the journal being
    /// replayed): for each session still open at the journal's end, its
    /// ops from its last `Open` onwards. That is exactly what a
    /// checkpoint would keep, and it rebuilds the same fleet as replaying
    /// everything, because sessions are independent and rejected ops are
    /// never journaled. Returns `(sessions recovered, sessions failed)`;
    /// a failed session — one whose journaled commit did not replay
    /// cleanly — is torn down rather than left half-applied. Replay is
    /// deterministic, so failures never happen outside hand-corrupted
    /// journals.
    fn replay_journal(&self, ops: &[JournalOp]) -> (usize, usize) {
        // Where each session's live tail starts: its last `Open`, unless
        // a `Close` came after it.
        let mut tail_start: HashMap<&str, usize> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                JournalOp::Open { session, .. } => {
                    tail_start.insert(session, i);
                }
                JournalOp::Delta { .. } => {}
                JournalOp::Close { session } => {
                    tail_start.remove(session.as_str());
                }
            }
        }
        let mut failed: HashSet<&str> = HashSet::new();
        for (i, op) in ops.iter().enumerate() {
            if tail_start.get(op.session()).is_none_or(|&start| i < start) {
                continue;
            }
            let req = match op {
                JournalOp::Open { session, base } => {
                    RepartitionRequest::open(session.clone(), base.clone())
                }
                JournalOp::Delta { session, delta } => {
                    RepartitionRequest::delta(session.clone(), delta.clone())
                }
                JournalOp::Close { session } => RepartitionRequest::close(session.clone()),
            };
            let resp = self.submit_session(self.session_job(i, req, false));
            if !matches!(resp.outcome.verdict, Verdict::Accepted { .. }) {
                failed.insert(op.session());
            }
        }
        for name in &failed {
            self.submit_session(self.session_job(0, RepartitionRequest::close(*name), false));
        }
        (tail_start.len() - failed.len(), failed.len())
    }

    fn new_seeded(
        cfg: ServiceConfig,
        entries: Vec<MemoEntry>,
        durability: Option<Arc<DurabilityState>>,
    ) -> Self {
        let shards = cfg.shards.max(1);
        // Route each restored entry exactly like a live request: by the
        // FNV-1a hash of its canonical pairs. A future request for the
        // same set looks it up in the table that now holds it.
        let ids = Arc::new(Mutex::new(EngineIds::default()));
        let mut memos: Vec<Memo> = (0..shards).map(|_| Memo::new(Arc::clone(&ids))).collect();
        for entry in entries {
            let hash = canonical_hash(entry.pairs.iter().copied());
            memos[(hash % shards as u64) as usize].seed(hash, entry);
        }
        let memos: Vec<Arc<Memo>> = memos.into_iter().map(Arc::new).collect();
        let stats = Arc::new(SharedStats {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            busy_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        });
        let shards = memos
            .iter()
            .enumerate()
            .map(|(idx, memo)| {
                Mutex::new(Shard::new(
                    idx,
                    Arc::clone(memo),
                    Arc::clone(&stats),
                    durability.clone(),
                ))
            })
            .collect();
        Service {
            shards,
            memos,
            stats,
            seq: AtomicUsize::new(0),
            durability,
            scheduler: Mutex::new(None),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Submits one request and serves it on the calling thread: a memo
    /// hit without any shard lock, a miss under its shard's lock. The
    /// returned [`Ticket`] holds the response; its `index` is the
    /// service-wide submission sequence number.
    ///
    /// # Panics
    ///
    /// On a miss after [`Service::shutdown`]. A hit is still answered.
    pub fn submit(&self, req: AnalyzeRequest) -> Ticket {
        let index = self.seq.fetch_add(1, Ordering::Relaxed);
        self.submit_indexed(index, req)
    }

    /// [`Service::submit`] with a caller-chosen response index — network
    /// front ends use per-connection ordinals so a connection's response
    /// stream is indexed exactly like a `serve-batch` JSONL stream.
    pub fn submit_indexed(&self, index: usize, req: AnalyzeRequest) -> Ticket {
        Ticket {
            resp: self.submit_analyze(self.analyze_job(index, req)),
        }
    }

    /// Submits one session operation (v2) with a caller-chosen response
    /// index (see [`Service::submit_indexed`]) and serves it on the calling
    /// thread, under its shard's lock. Ops for the same session name
    /// always land on the same shard and are served in submission order.
    ///
    /// # Panics
    ///
    /// After [`Service::shutdown`].
    pub fn submit_repartition_indexed(&self, index: usize, req: RepartitionRequest) -> Ticket {
        Ticket {
            resp: self.submit_session(self.session_job(index, req, true)),
        }
    }

    /// Runs a mixed v1/v2 request stream, returning responses in request
    /// order. Requests are grouped by shard in submission order and each
    /// group is served by one scoped worker, so same-session ops run in
    /// order — a JSONL session script behaves exactly like sequential
    /// submission — while unrelated requests fan out across the fleet.
    ///
    /// When an `obs` recording is live on the calling thread, the stream
    /// emits `svc.*` counters and histograms: requests, memo hits and
    /// misses, panics, per-shard busy time and wall latency. The workers
    /// cannot see that recording, so these come from the shared counters.
    pub fn run_stream(&self, reqs: Vec<Request>) -> Vec<Response> {
        let before = rmts_obs::enabled().then(|| (Instant::now(), self.stats()));
        let n = reqs.len();
        let mut groups: Vec<Vec<Routed>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (index, req) in reqs.into_iter().enumerate() {
            let (hash, job) = match req {
                Request::Analyze(req) => {
                    let job = self.analyze_job(index, req);
                    (job.canon.hash(), Routed::Analyze(job))
                }
                Request::Repartition(req) => {
                    let job = self.session_job(index, req, true);
                    (job.hash, Routed::Session(job))
                }
            };
            groups[self.shard_of(hash)].push(job);
        }
        let mut responses: Vec<Response> = std::thread::scope(|scope| {
            let workers: Vec<_> = groups
                .into_iter()
                .filter(|group| !group.is_empty())
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .into_iter()
                            .map(|job| match job {
                                Routed::Analyze(job) => self.submit_analyze(job),
                                Routed::Session(job) => self.submit_session(job),
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        responses.sort_unstable_by_key(|r| r.index);
        if let Some((t0, before)) = before {
            let after = self.stats();
            rmts_obs::count("svc.batch.requests", n as u64);
            rmts_obs::count("svc.memo.hits", after.memo_hits - before.memo_hits);
            rmts_obs::count("svc.memo.misses", after.memo_misses - before.memo_misses);
            rmts_obs::count("svc.panics", after.panics - before.panics);
            rmts_obs::observe("svc.batch.latency_us", t0.elapsed().as_micros() as u64);
            for (a, b) in after.shard_busy_ns.iter().zip(before.shard_busy_ns.iter()) {
                rmts_obs::observe("svc.shard.busy_us", (a - b) / 1_000);
            }
        }
        responses
    }

    /// The shard a routing hash lands on.
    fn shard_of(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// Canonicalizes and counts one v1 submission.
    fn analyze_job(&self, index: usize, req: AnalyzeRequest) -> AnalyzeJob {
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let canon = CanonicalSet::of_pairs(&req.taskset);
        AnalyzeJob {
            index,
            engine: EngineKey::of(&req, canon.permutation().len()),
            canon,
            req,
        }
    }

    fn submit_analyze(&self, job: AnalyzeJob) -> Response {
        // Route by canonical hash: all duplicates of a task set share a
        // shard, so the second duplicate always finds the first's memo
        // entry (or waits for the lock behind the job that creates it).
        let shard = self.shard_of(job.canon.hash());
        // A hit is answered here, without the shard lock; a miss takes the
        // lock, and the shard re-checks before analysing.
        match self.memos[shard].get(&job) {
            Ok(outcome) => job.answer(shard, outcome, true, &self.stats),
            Err(engine) => self.on_shard(shard, |s| s.serve(job, engine)),
        }
    }

    /// Hashes and counts one session op. `record` is `false` only for
    /// recovery replay.
    fn session_job(&self, index: usize, req: RepartitionRequest, record: bool) -> SessionJob {
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        SessionJob {
            index,
            hash: fnv1a(FNV_OFFSET, req.session.as_bytes()),
            req,
            record,
        }
    }

    fn submit_session(&self, job: SessionJob) -> Response {
        // Route by session name: the session's state lives on exactly one
        // shard, and that shard's lock serializes its ops.
        self.on_shard(self.shard_of(job.hash), |s| s.serve_session(job))
    }

    /// Runs `serve` under shard `idx`'s lock and adds its time there to
    /// the shard's busy time before returning.
    fn on_shard(&self, idx: usize, serve: impl FnOnce(&mut Shard) -> Response) -> Response {
        let mut shard = shard::lock(&self.shards[idx]);
        if shard.closed {
            // Release the lock first: this panic must not poison it.
            drop(shard);
            panic!("submission after Service::shutdown (the shards are closed)");
        }
        let t0 = Instant::now();
        let resp = serve(&mut shard);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.busy_ns[idx].fetch_add(ns, Ordering::Relaxed);
        resp
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            memo_hits: self.stats.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.stats.memo_misses.load(Ordering::Relaxed),
            panics: self.stats.panics.load(Ordering::Relaxed),
            max_queue_depth: 0,
            backpressure_waits: 0,
            shard_busy_ns: self
                .stats
                .busy_ns
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Durability counters (`None` for non-durable services).
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.durability.as_ref().map(|d| d.stats())
    }

    /// Runs one checkpoint **now** (durable services only): a consistent
    /// cut of the whole fleet taken under every shard lock, written as a
    /// new generation (memo snapshot + compacted journal), after which the
    /// prior generation is deleted. Memo hits are still answered while it
    /// runs. Serialized against the background scheduler and shutdown by
    /// the snapshot-generation lock. Returns `Ok(None)` on a non-durable
    /// service or after shutdown.
    pub fn checkpoint(&self) -> io::Result<Option<CheckpointReport>> {
        match &self.durability {
            Some(dur) => durability::run_checkpoint(&self.shards, dur),
            None => Ok(None),
        }
    }

    /// Stops (and joins) the background snapshot scheduler, if any.
    fn stop_scheduler(&self) {
        let handle = self
            .scheduler
            .lock()
            .expect("scheduler registry poisoned")
            .take();
        if let Some(mut handle) = handle {
            handle.stop();
        }
    }

    /// Graceful shutdown: waits for every job in progress, closes the
    /// shards, and returns the final statistics.
    ///
    /// The drain is a **barrier**, not a best-effort flush: shutdown takes
    /// every shard lock in index order, so each job that took a lock
    /// before it has finished (its response built, its outcome memoized),
    /// and it marks each shard closed before releasing the lock. A miss
    /// submitted after that is refused with a panic, never half-served; a
    /// memo hit needs no shard and is answered in full. Idempotent — a
    /// second call is a no-op.
    ///
    /// On a durable service the scheduler is stopped first and a final
    /// generation is written under the snapshot-generation lock, so a
    /// background checkpoint can never race the shutdown files.
    pub fn shutdown(&self) -> ServiceStats {
        // Best-effort: a failed final generation leaves the previous one
        // (plus the live journal) intact — recovery replays it.
        let _ = self.drain_and_persist();
        self.stats()
    }

    /// [`Service::shutdown`], then writes the drained memo tables to
    /// `path` atomically (temp file + rename). Every request accepted
    /// before the call is analyzed, answered, and — via the drain barrier
    /// — present in the written snapshot. On a durable service the final
    /// generation is written first, and a failure to write it is
    /// returned. A second call is a no-op that leaves the first snapshot
    /// in place.
    pub fn shutdown_with_snapshot(&self, path: &Path) -> io::Result<SnapshotReport> {
        match self.drain_and_persist()? {
            Some(cut) => snapshot::write_snapshot(path, &cut.memo),
            // Already drained by an earlier shutdown: do not overwrite the
            // snapshot it wrote with an empty one.
            None => Ok(SnapshotReport {
                entries: 0,
                bytes: 0,
            }),
        }
    }

    /// The shared shutdown: stops the scheduler, takes the checkpoint
    /// lock and then every shard lock, closes the shards, exports the cut
    /// and, on a durable service, writes the final generation — under the
    /// snapshot-generation lock the scheduler takes, so the two writers
    /// never interleave on the same paths. Returns the drained cut, or
    /// `None` when the fleet was already closed (second shutdown).
    fn drain_and_persist(&self) -> io::Result<Option<ShardExport>> {
        self.stop_scheduler();
        let dur = self.durability.as_deref();
        let _guard = dur.map(|d| d.checkpoint_lock.lock().expect("checkpoint lock poisoned"));
        let mut fleet = shard::lock_all(&self.shards);
        if fleet[0].closed {
            return Ok(None);
        }
        for shard in fleet.iter_mut() {
            shard.closed = true;
        }
        let cut = durability::merge(&fleet);
        if let Some(dur) = dur {
            durability::write_generation(dur, &cut)?;
        }
        Ok(Some(cut))
    }
}

/// A batch request, routed: what its shard's worker serves.
enum Routed {
    Analyze(AnalyzeJob),
    Session(SessionJob),
}

/// Reads the memo snapshot at `path` and emits the
/// `svc.memo.{restored,stale,corrupt}` counters for it.
fn restore_memo(path: &Path) -> (Vec<MemoEntry>, RecordReport) {
    let (entries, report) = snapshot::read_snapshot(path);
    rmts_obs::count("svc.memo.restored", report.records as u64);
    if report.stale {
        rmts_obs::count("svc.memo.stale", 1);
    }
    if report.corrupt {
        rmts_obs::count("svc.memo.corrupt", 1);
    }
    (entries, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_core::AlgorithmSpec;
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A memo hit takes no shard lock, so it is answered while a
    /// checkpoint holds every one of them.
    #[test]
    fn memo_hits_are_answered_while_every_shard_lock_is_held() {
        let svc = Service::new(ServiceConfig::new().with_shards(2));
        let req = AnalyzeRequest::new(
            vec![(1, 4), (2, 8), (2, 8), (4, 16)],
            2,
            AlgorithmSpec::RmTsLight,
        );
        let warm = svc.submit(req.clone()).wait();
        assert!(!warm.memo_hit);

        let fleet = shard::lock_all(&svc.shards);
        let (tx, rx) = mpsc::channel();
        let svc = &svc;
        std::thread::scope(|scope| {
            scope.spawn(move || tx.send(svc.submit(req).wait()).unwrap());
            let answered = rx.recv_timeout(Duration::from_secs(30));
            // Release the locks before asserting, so a failure cannot
            // leave the submitter blocked and the scope hanging.
            drop(fleet);
            let hit = answered.expect("a memo hit waited for a shard lock");
            assert!(hit.memo_hit);
            assert_eq!(hit.outcome, warm.outcome);
        });
    }

    /// After shutdown a hit is still answered, a miss panics without
    /// poisoning its shard's lock, and a second shutdown is a no-op.
    #[test]
    fn shutdown_refuses_misses_without_poisoning_the_shards() {
        let svc = Service::new(ServiceConfig::new().with_shards(1));
        let warm = AnalyzeRequest::new(vec![(1, 4), (2, 8)], 2, AlgorithmSpec::RmTsLight);
        assert!(!svc.submit(warm.clone()).wait().memo_hit);
        svc.shutdown();
        assert!(svc.submit(warm).wait().memo_hit);

        let cold = AnalyzeRequest::new(vec![(1, 5), (2, 9)], 2, AlgorithmSpec::RmTsLight);
        let refused = std::panic::catch_unwind(AssertUnwindSafe(|| svc.submit(cold)));
        assert!(refused.is_err(), "a miss after shutdown must be refused");
        assert!(!svc.shards[0].is_poisoned());

        let path = std::env::temp_dir().join(format!(
            "rmts_service_second_shutdown_{}.snap",
            std::process::id()
        ));
        let second = svc.shutdown_with_snapshot(&path).unwrap();
        assert_eq!(second.entries, 0);
        assert!(!path.exists(), "a second shutdown writes nothing");
    }
}
