//! The service façade: shard fleet, submission, batching, statistics.

use crate::canonical::{fnv1a as canonical_hash, CanonicalBatch, CanonicalSet};
use crate::durability::{
    self, CheckpointReport, DurabilityConfig, DurabilityState, DurabilityStats, RecoveryReport,
    SchedulerHandle,
};
use crate::journal::{JournalOp, JournalWriter};
use crate::queue::BoundedQueue;
use crate::record::{fnv1a, RecordReport, FNV_OFFSET};
use crate::request::{AnalyzeRequest, RepartitionRequest, Request, Response, Verdict};
use crate::shard::{engine_key, AnalyzeJob, CanonJob, Job, Memo, SessionJob, Shard, ShardExport};
use crate::snapshot::{self, MemoEntry, SnapshotReport};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing knobs for a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker shards (min 1). Duplicate task sets always land on
    /// the same shard, so memo hit rates do not degrade with more shards.
    pub shards: usize,
    /// Per-shard bounded queue capacity (min 1): the backpressure limit.
    /// Each shard holds at most `queue_capacity` queued requests plus one
    /// drained run being analyzed; further submissions block.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_capacity: 64,
        }
    }
}

impl ServiceConfig {
    /// Default sizing. Chain [`Self::with_shards`] /
    /// [`Self::with_queue_capacity`] — the uniform-builder idiom.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the shard count (min 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard queue capacity (min 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }
}

/// Cross-thread counters shared by the shards (plain atomics: the `obs`
/// recorders are thread-local, so worker threads cannot see the caller's
/// recording — the caller mirrors these into `obs` instead, see
/// [`Service::analyze_batch`]).
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
    /// Requests accepted by `submit`/`analyze_batch`.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Answers served from the memo table.
    pub memo_hits: u64,
    /// Answers computed fresh.
    pub memo_misses: u64,
    /// Requests whose engine panicked (isolated; answered as `Invalid`).
    pub panics: u64,
    /// Queue high-water mark across shards.
    pub max_queue_depth: usize,
    /// Submissions that had to block on a saturated shard queue.
    pub backpressure_waits: u64,
    /// Per-shard busy time in nanoseconds.
    pub shard_busy_ns: Vec<u64>,
}

/// A pending single-request submission; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the response arrives.
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .expect("shard dropped a job without replying (worker died?)")
    }
}

/// The sharded, batched analysis service (crate docs for the model).
pub struct Service {
    queues: Vec<Arc<BoundedQueue<Job>>>,
    /// Each shard's memo table: written only by its shard, read here by
    /// every submission (the memo-hit path).
    memos: Vec<Arc<Memo>>,
    /// Behind a mutex so [`Service::shutdown`] can join from `&self`
    /// (network front ends hold the service in an `Arc`).
    workers: Mutex<Vec<JoinHandle<()>>>,
    stats: Arc<SharedStats>,
    seq: AtomicUsize,
    /// Crash-durability state ([`Service::with_durability`] only).
    durability: Option<Arc<DurabilityState>>,
    /// The background snapshot scheduler (durable services only); behind a
    /// mutex so shutdown can stop it from `&self`.
    scheduler: Mutex<Option<SchedulerHandle>>,
}

impl Service {
    /// Spawns the shard fleet with cold memo tables.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::new_seeded(cfg, Vec::new())
    }

    /// Spawns the shard fleet warm: restores the memo snapshot at `path`
    /// (if any) and seeds each shard with the entries that route to it.
    /// A missing, stale, or corrupt snapshot degrades to a (partially)
    /// cold start — see [`crate::record`] for the trust
    /// policy — with `svc.memo.restored` / `svc.memo.stale` /
    /// `svc.memo.corrupt` counters emitted when an `obs` recording is
    /// live on the calling thread.
    pub fn with_restored(cfg: ServiceConfig, path: &Path) -> (Self, RecordReport) {
        let (entries, report) = restore_memo(path);
        (Self::new_seeded(cfg, entries), report)
    }

    /// Spawns a **crash-durable** fleet rooted at `cfg.dir` (created if
    /// absent): recovers the newest valid memo snapshot and session
    /// journal (see [`crate::durability`] for the generation layout and
    /// [`crate::record`] for the trust policy), replays every journaled
    /// session op through the ordinary session machinery — guided replay
    /// is deterministic, so recovered sessions are bit-identical to their
    /// pre-crash state — and starts the background snapshot scheduler.
    /// Every committed session op is thereafter journaled write-ahead.
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
        let svc = Self::new_seeded_durable(cfg, entries, Some(Arc::clone(&dur)));
        let (replayed, recovered, failed) = svc.replay_journal(&ops);
        report.ops_replayed = replayed;
        report.sessions_recovered = recovered;
        report.sessions_failed = failed;
        rmts_obs::count("svc.journal.replayed", replayed as u64);
        if report.journal.stale {
            rmts_obs::count("svc.journal.stale", 1);
        }
        if report.journal.corrupt {
            rmts_obs::count("svc.journal.corrupt", 1);
        }
        // The scheduler starts only after replay: recovery is complete
        // before the first background checkpoint can cut a generation.
        *svc.scheduler.lock().expect("scheduler registry poisoned") = Some(SchedulerHandle::spawn(
            svc.queues.clone(),
            Arc::clone(&dur),
            dcfg.snapshot_interval,
            dcfg.snapshot_every_mutations,
        ));
        Ok((svc, report))
    }

    /// Replays journal ops through the session machinery (un-journaled —
    /// they are already in the journal being replayed). Returns
    /// `(ops replayed, sessions recovered, sessions failed)`; a failed
    /// session — one whose journaled commit did not replay cleanly — is
    /// torn down rather than left half-applied. Replay is deterministic,
    /// so failures never happen outside hand-corrupted journals.
    fn replay_journal(&self, ops: &[JournalOp]) -> (usize, usize, usize) {
        if ops.is_empty() {
            return (0, 0, 0);
        }
        let (tx, rx) = mpsc::channel();
        for (i, op) in ops.iter().enumerate() {
            let req = match op {
                JournalOp::Open { session, base } => {
                    RepartitionRequest::open(session.clone(), base.clone())
                }
                JournalOp::Delta { session, delta } => {
                    RepartitionRequest::delta(session.clone(), delta.clone())
                }
                JournalOp::Close { session } => RepartitionRequest::close(session.clone()),
            };
            self.enqueue_session(i, req, tx.clone(), false);
        }
        drop(tx);
        let responses = collect_in_order(rx, ops.len());
        let mut alive: HashMap<&str, bool> = HashMap::new();
        let mut failed: HashSet<&str> = HashSet::new();
        for (op, resp) in ops.iter().zip(&responses) {
            let ok = match op {
                JournalOp::Open { .. } | JournalOp::Delta { .. } => {
                    matches!(resp.outcome.verdict, Verdict::Accepted { .. })
                }
                JournalOp::Close { .. } => true,
            };
            match op {
                JournalOp::Open { session, .. } => {
                    alive.insert(session.as_str(), true);
                }
                JournalOp::Delta { .. } => {}
                JournalOp::Close { session } => {
                    alive.insert(session.as_str(), false);
                }
            }
            if !ok {
                failed.insert(op.session());
            }
        }
        let teardown: Vec<String> = failed
            .iter()
            .filter(|name| alive.get(**name).copied().unwrap_or(false))
            .map(|name| name.to_string())
            .collect();
        let (tx, rx) = mpsc::channel();
        for (i, name) in teardown.iter().enumerate() {
            self.enqueue_session(
                i,
                RepartitionRequest::close(name.clone()),
                tx.clone(),
                false,
            );
        }
        drop(tx);
        for _ in rx {}
        let recovered = alive
            .iter()
            .filter(|(name, live)| **live && !failed.contains(*name))
            .count();
        (ops.len(), recovered, failed.len())
    }

    fn new_seeded(cfg: ServiceConfig, entries: Vec<MemoEntry>) -> Self {
        Self::new_seeded_durable(cfg, entries, None)
    }

    fn new_seeded_durable(
        cfg: ServiceConfig,
        entries: Vec<MemoEntry>,
        durability: Option<Arc<DurabilityState>>,
    ) -> Self {
        let shards = cfg.shards.max(1);
        // Route each restored entry exactly like a live request: by the
        // FNV-1a hash of its canonical pairs. A future request for the
        // same set looks it up in the table that now holds it.
        let mut memos: Vec<Memo> = (0..shards).map(|_| Memo::default()).collect();
        for entry in entries {
            let shard = (canonical_hash(&entry.pairs) % shards as u64) as usize;
            memos[shard].seed(entry);
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
        let queues: Vec<Arc<BoundedQueue<Job>>> = (0..shards)
            .map(|_| Arc::new(BoundedQueue::new(cfg.queue_capacity)))
            .collect();
        let workers = queues
            .iter()
            .zip(&memos)
            .enumerate()
            .map(|(idx, (q, memo))| {
                let q = Arc::clone(q);
                let memo = Arc::clone(memo);
                let stats = Arc::clone(&stats);
                let dur = durability.clone();
                std::thread::Builder::new()
                    .name(format!("rmts-svc-shard-{idx}"))
                    .spawn(move || Shard::run(idx, q, stats, memo, dur))
                    .expect("spawn shard worker")
            })
            .collect();
        Service {
            queues,
            memos,
            workers: Mutex::new(workers),
            stats,
            seq: AtomicUsize::new(0),
            durability,
            scheduler: Mutex::new(None),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Submits one request. A memo hit is answered before this returns;
    /// a miss blocks only if the target shard's queue is full
    /// (backpressure). The returned [`Ticket`] resolves to the response;
    /// its `index` is the service-wide submission sequence number.
    pub fn submit(&self, req: AnalyzeRequest) -> Ticket {
        let index = self.seq.fetch_add(1, Ordering::Relaxed);
        self.submit_indexed(index, req)
    }

    /// [`Service::submit`] with a caller-chosen response index — network
    /// front ends use per-connection ordinals so a connection's response
    /// stream is indexed exactly like a `serve-batch` JSONL stream.
    pub fn submit_indexed(&self, index: usize, req: AnalyzeRequest) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let canon = CanonJob::Owned(CanonicalSet::of_pairs(&req.taskset));
        self.enqueue(index, req, canon, tx);
        Ticket { rx }
    }

    /// Submits one session operation (v2). Ops for the same session name
    /// always land on the same shard and are served in submission order.
    pub fn submit_repartition(&self, req: RepartitionRequest) -> Ticket {
        let index = self.seq.fetch_add(1, Ordering::Relaxed);
        self.submit_repartition_indexed(index, req)
    }

    /// [`Service::submit_repartition`] with a caller-chosen response
    /// index (see [`Service::submit_indexed`]).
    pub fn submit_repartition_indexed(&self, index: usize, req: RepartitionRequest) -> Ticket {
        let (tx, rx) = mpsc::channel();
        self.enqueue_session(index, req, tx, true);
        Ticket { rx }
    }

    /// Runs a mixed v1/v2 request stream, returning responses in request
    /// order. Same-session ops serialize through one shard FIFO, so a
    /// JSONL session script behaves exactly like sequential submission;
    /// unrelated requests still fan out across the fleet.
    pub fn run_stream(&self, reqs: Vec<Request>) -> Vec<Response> {
        let n = reqs.len();
        let (tx, rx) = mpsc::channel();
        for (i, req) in reqs.into_iter().enumerate() {
            match req {
                Request::Analyze(req) => {
                    let canon = CanonJob::Owned(CanonicalSet::of_pairs(&req.taskset));
                    self.enqueue(i, req, canon, tx.clone());
                }
                Request::Repartition(req) => self.enqueue_session(i, req, tx.clone(), true),
            }
        }
        drop(tx);
        collect_in_order(rx, n)
    }

    /// Analyzes a whole batch, returning responses in request order.
    /// Memory stays flat regardless of batch size: at most
    /// `shards × queue_capacity` requests are in flight (submission blocks
    /// on saturated shards), and each response is collected as it lands.
    ///
    /// When an `obs` recording is active on the calling thread, the batch
    /// emits `svc.*` counters/histograms (requests, memo hits/misses,
    /// queue high-water mark, per-shard busy time, wall latency).
    pub fn analyze_batch(&self, reqs: Vec<AnalyzeRequest>) -> Vec<Response> {
        let t0 = Instant::now();
        let before = self.stats();
        let n = reqs.len();
        let (tx, rx) = mpsc::channel();
        // Canonicalize the whole batch into one structure-of-arrays arena
        // up front: one shared allocation the shards read slices of,
        // instead of three `Vec`s per request (see `CanonicalBatch`).
        let mut batch = CanonicalBatch::with_capacity(n);
        for req in &reqs {
            batch.push(&req.taskset);
        }
        let batch = Arc::new(batch);
        // Submit-then-collect cannot deadlock: shards reply through this
        // unbounded mpsc channel and never block sending, so saturated
        // request queues always drain even while we are still submitting.
        for (i, req) in reqs.into_iter().enumerate() {
            let canon = CanonJob::Shared {
                batch: Arc::clone(&batch),
                idx: i,
            };
            self.enqueue(i, req, canon, tx.clone());
        }
        drop(tx);
        let responses = collect_in_order(rx, n);
        if rmts_obs::enabled() {
            let after = self.stats();
            rmts_obs::count("svc.batch.requests", n as u64);
            rmts_obs::count("svc.memo.hits", after.memo_hits - before.memo_hits);
            rmts_obs::count("svc.memo.misses", after.memo_misses - before.memo_misses);
            rmts_obs::count("svc.panics", after.panics - before.panics);
            rmts_obs::count(
                "svc.queue.backpressure_waits",
                after.backpressure_waits - before.backpressure_waits,
            );
            rmts_obs::observe("svc.queue.max_depth", after.max_queue_depth as u64);
            rmts_obs::observe("svc.batch.latency_us", t0.elapsed().as_micros() as u64);
            for (a, b) in after.shard_busy_ns.iter().zip(before.shard_busy_ns.iter()) {
                rmts_obs::observe("svc.shard.busy_us", (a - b) / 1_000);
            }
        }
        responses
    }

    fn enqueue(
        &self,
        index: usize,
        req: AnalyzeRequest,
        canon: CanonJob,
        reply: mpsc::Sender<Response>,
    ) {
        // Route by canonical hash: all duplicates of a task set share a
        // shard, so the second duplicate always finds the first's memo
        // entry (or queues behind the job that will create it).
        let shard = (canon.hash() % self.queues.len() as u64) as usize;
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let job = AnalyzeJob {
            index,
            engine: engine_key(&req, canon.pairs().len()),
            canon,
            req,
            reply,
        };
        // A hit is answered here, on the submitting thread: no queue, no
        // shard wake-up. A miss goes to the shard, which re-checks before
        // analysing.
        match self.memos[shard].get(&job) {
            Some(outcome) => job.answer(shard, outcome, true, &self.stats),
            None => self.queues[shard]
                .push(Job::Analyze(job))
                .expect("submission after Service::shutdown (queues are closed)"),
        }
    }

    fn enqueue_session(
        &self,
        index: usize,
        req: RepartitionRequest,
        reply: mpsc::Sender<Response>,
        record: bool,
    ) {
        // Route by session name: the session's state lives on exactly one
        // shard, and that shard's FIFO serializes its ops.
        let hash = fnv1a(FNV_OFFSET, req.session.as_bytes());
        let shard = (hash % self.queues.len() as u64) as usize;
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.queues[shard]
            .push(Job::Session(SessionJob {
                index,
                hash,
                req,
                reply,
                record,
            }))
            .expect("submission after Service::shutdown (queues are closed)");
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            memo_hits: self.stats.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.stats.memo_misses.load(Ordering::Relaxed),
            panics: self.stats.panics.load(Ordering::Relaxed),
            max_queue_depth: self.queues.iter().map(|q| q.max_depth()).max().unwrap_or(0),
            backpressure_waits: self.queues.iter().map(|q| q.push_waits()).sum(),
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

    /// Runs one checkpoint **now** (durable services only): a
    /// stop-the-world consistent cut of the whole fleet, written as a new
    /// generation (memo snapshot + compacted journal), after which the
    /// prior generation is deleted. Serialized against the background
    /// scheduler and shutdown by the snapshot-generation lock. Returns
    /// `Ok(None)` on a non-durable service or when shutdown won the race.
    pub fn checkpoint(&self) -> io::Result<Option<CheckpointReport>> {
        match &self.durability {
            Some(dur) => durability::run_checkpoint(&self.queues, dur),
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

    /// Graceful shutdown: drains every in-flight and queued request,
    /// stops the shard fleet, and returns the final statistics.
    ///
    /// The drain is a **barrier**, not a best-effort flush: an export job
    /// is enqueued behind every previously accepted request on each
    /// shard's FIFO, so by the time it answers, every accepted request
    /// has been served (its response delivered, its outcome memoized).
    /// Misses racing past shutdown are refused by the closed queues, never
    /// half-served; a memo hit needs no shard and is answered in full.
    /// Idempotent — a second call is a no-op.
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
    /// before the call is analyzed, answered, and — via the FIFO drain
    /// barrier — present in the written snapshot. On a durable service
    /// the final generation is written first, and a failure to write it
    /// is returned. A second call is a no-op that leaves the first
    /// snapshot in place.
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

    /// The shared shutdown: stops the scheduler, drains the fleet behind
    /// the export barrier and, on a durable service, writes the final
    /// generation — under the snapshot-generation lock the scheduler
    /// takes, so the two writers never interleave on the same paths.
    /// Returns the drained cut, or `None` when the fleet was already
    /// drained (second shutdown).
    fn drain_and_persist(&self) -> io::Result<Option<ShardExport>> {
        self.stop_scheduler();
        let dur = self.durability.as_deref();
        let _guard = dur.map(|d| d.checkpoint_lock.lock().expect("checkpoint lock poisoned"));
        // An already-closed queue (second shutdown) yields no export.
        let exports = self
            .queues
            .iter()
            .filter_map(|q| {
                let (reply, export) = mpsc::channel();
                q.push(Job::Export {
                    reply,
                    resume: None,
                })
                .is_ok()
                .then_some(export)
            })
            .collect();
        // The workers answer every export before they exit; the answers
        // wait in their channels.
        self.close_and_join();
        let cut = durability::merge(exports);
        if let (Some(dur), Some(cut)) = (dur, &cut) {
            durability::write_generation(dur, cut)?;
        }
        Ok(cut)
    }

    /// Closes every shard queue and joins the workers; idempotent.
    fn close_and_join(&self) {
        for q in &self.queues {
            q.close();
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut guard = self.workers.lock().expect("worker registry poisoned");
            guard.drain(..).collect()
        };
        for w in workers {
            // A shard that panicked outside catch_unwind is a bug; don't
            // double-panic while unwinding, though.
            if w.join().is_err() && !std::thread::panicking() {
                panic!("rmts-svc shard worker panicked");
            }
        }
    }
}

/// Collects the `n` responses of one submission from `rx` into request
/// order (a response's `index` is its slot). The caller drops its own
/// sender first, so the loop ends once every job has answered.
fn collect_in_order(rx: mpsc::Receiver<Response>, n: usize) -> Vec<Response> {
    let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
    for resp in rx {
        let slot = resp.index;
        out[slot] = Some(resp);
    }
    out.into_iter()
        .map(|r| r.expect("every submitted request gets exactly one response"))
        .collect()
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

impl Drop for Service {
    fn drop(&mut self) {
        // Stop the snapshot scheduler before closing the queues so an
        // in-flight checkpoint completes against a live fleet.
        self.stop_scheduler();
        self.close_and_join();
    }
}
