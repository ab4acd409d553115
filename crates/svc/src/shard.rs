//! A shard: long-lived engines, a memo table, live sessions, and panic
//! isolation — behind one lock.
//!
//! A shard is plain state, not a thread. It owns an **engine arena** —
//! one built [`DynPartitioner`] per distinct engine fingerprint
//! (algorithm, options and task-set size for the size-dependent SPA
//! thresholds), so a million requests against the same configuration
//! construct the engine once — plus a partitioning workspace and the
//! live sessions routed to it. The service keeps each shard behind its
//! own `Mutex`, and every job runs **on the thread that submits it**,
//! under that lock: [`Shard::serve`] and [`Shard::serve_session`] serve
//! one job and return its [`Response`]. Ops on one session always route
//! to one shard, so the lock serializes them in submission order.
//!
//! A shard is the only writer of its **memo table** ([`Memo`]):
//! `(canonical pairs, m, engine fingerprint) → Arc<AnalysisOutcome>`. The
//! key stores the *full* canonical pair list, not a hash, so collisions
//! are impossible; the routing hash only decides which shard a request
//! lands on. The memo is shared read-mostly (an `RwLock` behind an
//! `Arc`): the submitting thread looks a v1 request up itself and answers
//! a hit on the spot, without the shard lock. A miss takes the lock and
//! looks the key up **again** before analysing: a duplicate that waited
//! for the lock behind the job creating its entry is still a hit. Because
//! only a lock holder inserts, and it re-checks before every analysis,
//! each distinct key is analysed exactly once, and for one submitter its
//! first occurrence is the miss — hit/miss labels and counters are a
//! function of the request stream, not of thread timing.
//!
//! A request that panics inside the engine (e.g. `m = 0` trips the
//! engines' `assert!(m > 0)`) is contained by per-request `catch_unwind`
//! — sound because engines are plain configuration values: all mutable
//! analysis state (processor lists, RTA caches) lives in the panicked
//! call's own frame and is discarded with it. The requester receives a
//! [`Verdict::Invalid`] response, the lock stays unpoisoned, and the
//! shard keeps serving.

use crate::canonical::{fnv1a, CanonicalSet};
use crate::durability::DurabilityState;
use crate::journal::JournalOp;
use crate::request::{
    AnalysisOutcome, AnalyzeRequest, RepartitionRequest, Response, SessionMeta, SessionOp, Verdict,
};
use crate::service::SharedStats;
use crate::snapshot::MemoEntry;
use rmts_core::{
    DynPartitioner, Partition, PartitionReject, PartitionSession, PartitionWorkspace,
    RepartitionError,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Locks one shard. A poisoned shard lock is a bug, not a state to
/// recover: engine calls run under per-request `catch_unwind`, so only a
/// panic in the service's own code can poison the lock, and such a panic
/// may have left a committed session op unjournaled.
pub(crate) fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard
        .lock()
        .expect("shard lock poisoned: a panic escaped per-request isolation")
}

/// Locks every shard in index order — the fleet's consistent cut, taken
/// only by checkpoint and shutdown (after the checkpoint lock). With
/// every lock held no job can run, so no op can commit and no journal
/// append can land.
pub(crate) fn lock_all(shards: &[Mutex<Shard>]) -> Vec<MutexGuard<'_, Shard>> {
    shards.iter().map(lock).collect()
}

/// Everything a shard owns that durability cares about, in no particular
/// order; [`merge`](crate::durability::merge) sorts the fleet's cut.
pub(crate) struct ShardExport {
    /// The memo table.
    pub memo: Vec<MemoEntry>,
    /// The live sessions.
    pub sessions: Vec<SessionState>,
}

/// One live session's durable form: the original base request plus every
/// committed delta — exactly what replay needs to rebuild the session
/// bit-identically (engines are built against the *opening* set size, so
/// the base must never be re-expressed against the current set).
#[derive(Debug, Clone)]
pub(crate) struct SessionState {
    /// Session name.
    pub name: String,
    /// The base request the session was opened with.
    pub base: AnalyzeRequest,
    /// Every committed non-noop delta, in commit order.
    pub deltas: Vec<rmts_taskmodel::TaskSetDelta>,
    /// The session's current state digest (bit-identity oracle).
    pub digest: u64,
}

/// A canonicalized analyze request.
pub(crate) struct AnalyzeJob {
    pub index: usize,
    pub canon: CanonicalSet,
    pub req: AnalyzeRequest,
    /// The engine fingerprint ([`engine_key`]), formatted once at
    /// submission where the memo lookup first needs it.
    pub engine: String,
}

impl AnalyzeJob {
    /// Counts this job's answer and builds its response. The shard
    /// answers misses (and hits found on its re-check);
    /// [`crate::Service`] answers hits found without the lock.
    pub(crate) fn answer(
        self,
        shard: usize,
        outcome: Arc<AnalysisOutcome>,
        memo_hit: bool,
        stats: &SharedStats,
    ) -> Response {
        let counter = if memo_hit {
            &stats.memo_hits
        } else {
            &stats.memo_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        stats.completed.fetch_add(1, Ordering::Relaxed);
        Response {
            index: self.index,
            canonical_hash: self.canon.hash(),
            shard,
            memo_hit,
            session: None,
            outcome,
        }
    }
}

/// A session operation.
pub(crate) struct SessionJob {
    pub index: usize,
    /// Routing hash of the session name (echoed as the response's
    /// `canonical_hash` so records stay traceable to their shard).
    pub hash: u64,
    pub req: RepartitionRequest,
    /// Whether committed mutations are journaled. `true` for live
    /// submissions; `false` only for recovery replay, whose ops are
    /// *already* in the journal being replayed.
    pub record: bool,
}

/// The engine fingerprint of `req` against a canonical set of `n` tasks.
/// `Debug` of the request's option fields is deterministic (unit enums,
/// integers), making the fingerprint stable across runs — restored memo
/// entries carry it. The task-set size is folded in because the SPA
/// thresholds Θ(n) make engines size-dependent.
pub(crate) fn engine_key(req: &AnalyzeRequest, n: usize) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{}",
        req.algorithm, req.policy, req.budget, req.degrade, n
    )
}

/// Exact-equality memo key (see the module docs).
#[derive(PartialEq, Eq)]
struct MemoKey {
    pairs: Vec<(u64, u64)>,
    m: usize,
    engine: String,
}

type MemoBucket = Vec<(MemoKey, Arc<AnalysisOutcome>)>;

/// One shard's memo table. Shared as `Arc<Memo>`: only the holder of its
/// shard's lock writes it, every submitting thread reads it (see the
/// module docs). Each method holds the table's own lock only for its own
/// duration.
///
/// Buckets are keyed by `(canonical routing hash, m)`; each bucket is
/// scanned with full exact-equality [`MemoKey`] comparison, so hash
/// collisions cost a compare, never a wrong answer. The bucket layout
/// keeps the lookup allocation-free (no owned key to build).
#[derive(Default)]
pub(crate) struct Memo {
    buckets: RwLock<HashMap<(u64, usize), MemoBucket>>,
}

impl Memo {
    /// The memoized outcome for `job`'s exact key, if any.
    pub(crate) fn get(&self, job: &AnalyzeJob) -> Option<Arc<AnalysisOutcome>> {
        self.buckets
            .read()
            .expect("memo lock poisoned")
            .get(&(job.canon.hash(), job.req.m))?
            .iter()
            .find(|(k, _)| k.engine == job.engine && k.pairs == job.canon.pairs())
            .map(|(_, outcome)| Arc::clone(outcome))
    }

    /// Memoizes a freshly analysed `job` (which the caller has just
    /// looked up and missed).
    fn insert(&self, job: &AnalyzeJob, outcome: Arc<AnalysisOutcome>) {
        let key = MemoKey {
            pairs: job.canon.pairs().to_vec(),
            m: job.req.m,
            engine: job.engine.clone(),
        };
        self.buckets
            .write()
            .expect("memo lock poisoned")
            .entry((job.canon.hash(), job.req.m))
            .or_default()
            .push((key, outcome));
    }

    /// Adds a restored snapshot entry. Duplicate keys keep the first
    /// entry (snapshots never contain two outcomes for one key, but a
    /// hostile file must not corrupt the table).
    pub(crate) fn seed(&mut self, entry: MemoEntry) {
        let bucket = self
            .buckets
            .get_mut()
            .expect("memo lock poisoned")
            .entry((fnv1a(&entry.pairs), entry.m))
            .or_default();
        if bucket
            .iter()
            .any(|(k, _)| k.engine == entry.engine && k.pairs == entry.pairs)
        {
            return;
        }
        bucket.push((
            MemoKey {
                pairs: entry.pairs,
                m: entry.m,
                engine: entry.engine,
            },
            Arc::new(entry.outcome),
        ));
    }

    /// Every entry, in table order.
    fn export(&self) -> Vec<MemoEntry> {
        self.buckets
            .read()
            .expect("memo lock poisoned")
            .values()
            .flatten()
            .map(|(k, outcome)| MemoEntry {
                pairs: k.pairs.clone(),
                m: k.m,
                engine: k.engine.clone(),
                outcome: (**outcome).clone(),
            })
            .collect()
    }
}

pub(crate) struct Shard {
    idx: usize,
    engines: HashMap<String, DynPartitioner>,
    /// This shard's memo table; only this shard's lock holder writes it.
    memo: Arc<Memo>,
    /// Recycled partitioning buffers (processor pool + plan queue), reused
    /// across every fresh analysis this shard runs. Steady-state misses
    /// against same-sized sets admit without heap allocation in the
    /// engine's inner loop (DESIGN.md §5, "Partition hot path").
    ws: PartitionWorkspace,
    /// Live partition sessions keyed by session name (v2 requests). Each
    /// entry owns its engine, task set, partition, trace, and workspace,
    /// plus the durable op history (base + committed deltas).
    sessions: HashMap<String, LiveSession>,
    stats: Arc<SharedStats>,
    /// Write-ahead journal handle (durable services only).
    dur: Option<Arc<DurabilityState>>,
    /// Set by shutdown under this lock: the shard serves no further job.
    pub(crate) closed: bool,
}

/// A live session plus its durable op history.
struct LiveSession {
    session: PartitionSession,
    base: AnalyzeRequest,
    deltas: Vec<rmts_taskmodel::TaskSetDelta>,
}

impl Shard {
    pub(crate) fn new(
        idx: usize,
        memo: Arc<Memo>,
        stats: Arc<SharedStats>,
        dur: Option<Arc<DurabilityState>>,
    ) -> Self {
        Shard {
            idx,
            engines: HashMap::new(),
            memo,
            ws: PartitionWorkspace::new(),
            sessions: HashMap::new(),
            stats,
            dur,
            closed: false,
        }
    }

    /// Serializes the memo table and session fleet for a checkpoint (or a
    /// drain barrier).
    pub(crate) fn export_state(&self) -> ShardExport {
        let sessions = self
            .sessions
            .iter()
            .map(|(name, live)| SessionState {
                name: name.clone(),
                base: live.base.clone(),
                deltas: live.deltas.clone(),
                digest: live.session.state_digest(),
            })
            .collect();
        ShardExport {
            memo: self.memo.export(),
            sessions,
        }
    }

    /// Serves one v1 job that missed the memo on its submitting thread.
    pub(crate) fn serve(&mut self, job: AnalyzeJob) -> Response {
        let (outcome, memo_hit) = self.outcome_for(&job);
        job.answer(self.idx, outcome, memo_hit, &self.stats)
    }

    /// Serves one session op.
    pub(crate) fn serve_session(&mut self, job: SessionJob) -> Response {
        let (outcome, meta, mutation) = self.session_outcome(&job.req);
        // Write-ahead: the committed mutation must be journal-durable
        // *before* the response exists, so an acknowledged op can never be
        // lost to a crash. Replayed ops (`record == false`) are already in
        // the journal being replayed.
        if job.record {
            if let (Some(op), Some(dur)) = (mutation, self.dur.as_deref()) {
                dur.append(&op);
            }
        }
        // Session answers are stateful, never memoized.
        self.stats.memo_misses.fetch_add(1, Ordering::Relaxed);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        Response {
            index: job.index,
            canonical_hash: job.hash,
            shard: self.idx,
            memo_hit: false,
            session: Some(meta),
            outcome: Arc::new(outcome),
        }
    }

    /// Runs one session op. The third return is the journal record the
    /// op earned: `Some` exactly when durable state changed (an `Open`
    /// that stuck, a committed non-noop `Delta`, a `Close` of a live
    /// session, or a panic teardown — journaled as `Close` so the session
    /// cannot resurrect half-applied). Rejected and invalid ops change
    /// nothing and journal nothing.
    fn session_outcome(
        &mut self,
        req: &RepartitionRequest,
    ) -> (AnalysisOutcome, SessionMeta, Option<JournalOp>) {
        let meta = |path: &str| SessionMeta {
            session: req.session.clone(),
            path: path.to_string(),
        };
        match &req.op {
            SessionOp::Open { base } => {
                let (outcome, path, journaled) = self.open_session(&req.session, base);
                (outcome, meta(path), journaled)
            }
            SessionOp::Delta { delta } => {
                let (outcome, path, journaled) = self.apply_session_delta(&req.session, delta);
                (outcome, meta(&path), journaled)
            }
            SessionOp::Close => {
                let (outcome, path, journaled) = self.close_session(&req.session);
                (outcome, meta(path), journaled)
            }
        }
    }

    /// Closes a live session (the answer echoes its final partition);
    /// closing an unknown session is `Invalid` and journals nothing.
    fn close_session(&mut self, name: &str) -> (AnalysisOutcome, &'static str, Option<JournalOp>) {
        match self.sessions.remove(name) {
            Some(live) => (
                AnalysisOutcome {
                    algorithm: live.session.engine_name(),
                    m: live.session.m(),
                    verdict: accepted_verdict(live.session.partition()),
                },
                "close",
                Some(JournalOp::Close {
                    session: name.to_string(),
                }),
            ),
            None => (
                AnalysisOutcome {
                    algorithm: String::new(),
                    m: 0,
                    verdict: Verdict::Invalid {
                        reason: format!("unknown session `{name}` (send an Open line first)"),
                    },
                },
                "error",
                None,
            ),
        }
    }

    /// Opens (or replaces) a session by a traced base partition. A
    /// successful open is journaled; a rejected or invalid open leaves any
    /// prior same-name session (and the journal) untouched.
    fn open_session(
        &mut self,
        name: &str,
        base: &AnalyzeRequest,
    ) -> (AnalysisOutcome, &'static str, Option<JournalOp>) {
        let m = base.m;
        let invalid = |algorithm: String, reason: String| {
            (
                AnalysisOutcome {
                    algorithm,
                    m,
                    verdict: Verdict::Invalid { reason },
                },
                "error",
                None,
            )
        };
        let ts = match CanonicalSet::of_pairs(&base.taskset).to_taskset() {
            Ok(ts) => ts,
            Err(e) => return invalid(base.algorithm.to_string(), format!("invalid task set: {e}")),
        };
        let engine = match base
            .algorithm
            .build_repartitioner(ts.len(), &base.options())
        {
            Ok(e) => e,
            Err(e) => return invalid(base.algorithm.to_string(), e.to_string()),
        };
        let algorithm = engine.name();
        match catch_unwind(AssertUnwindSafe(|| PartitionSession::start(engine, ts, m))) {
            Ok(Ok(session)) => {
                let verdict = accepted_verdict(session.partition());
                self.sessions.insert(
                    name.to_string(),
                    LiveSession {
                        session,
                        base: base.clone(),
                        deltas: Vec::new(),
                    },
                );
                (
                    AnalysisOutcome {
                        algorithm,
                        m,
                        verdict,
                    },
                    "open",
                    Some(JournalOp::Open {
                        session: name.to_string(),
                        base: base.clone(),
                    }),
                )
            }
            Ok(Err(rej)) => (
                AnalysisOutcome {
                    algorithm,
                    m,
                    verdict: rejected_verdict(&rej),
                },
                "open",
                None,
            ),
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                invalid(
                    algorithm,
                    format!("engine panicked: {}", panic_text(&payload)),
                )
            }
        }
    }

    /// Applies one delta to an open session. On rejection or an invalid
    /// delta the session keeps its prior state (and journals nothing); on
    /// a panic the session is torn down (its state can no longer be
    /// trusted) and the teardown is journaled as a `Close`, so recovery
    /// can never resurrect it half-applied. A committed non-noop delta is
    /// appended to the session's durable history and journaled.
    fn apply_session_delta(
        &mut self,
        name: &str,
        delta: &rmts_taskmodel::TaskSetDelta,
    ) -> (AnalysisOutcome, String, Option<JournalOp>) {
        let Some(live) = self.sessions.get_mut(name) else {
            return (
                AnalysisOutcome {
                    algorithm: String::new(),
                    m: 0,
                    verdict: Verdict::Invalid {
                        reason: format!("unknown session `{name}` (send an Open line first)"),
                    },
                },
                "error".to_string(),
                None,
            );
        };
        let session = &mut live.session;
        let m = session.m();
        let algorithm = session.engine_name();
        match catch_unwind(AssertUnwindSafe(|| match session.apply(delta) {
            Ok(ok) => (
                accepted_verdict(ok.partition),
                ok.path.as_str().to_string(),
                !matches!(ok.path, rmts_core::RepartitionPath::Noop),
            ),
            Err(RepartitionError::Rejected { reject, path }) => {
                (rejected_verdict(&reject), path.as_str().to_string(), false)
            }
            Err(RepartitionError::Delta(e)) => (
                Verdict::Invalid {
                    reason: format!("invalid delta: {e}"),
                },
                "error".to_string(),
                false,
            ),
        })) {
            Ok((verdict, path, committed)) => {
                let journaled = committed.then(|| {
                    live.deltas.push(delta.clone());
                    JournalOp::Delta {
                        session: name.to_string(),
                        delta: delta.clone(),
                    }
                });
                (
                    AnalysisOutcome {
                        algorithm,
                        m,
                        verdict,
                    },
                    path,
                    journaled,
                )
            }
            Err(payload) => {
                self.sessions.remove(name);
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                (
                    AnalysisOutcome {
                        algorithm,
                        m,
                        verdict: Verdict::Invalid {
                            reason: format!(
                                "engine panicked (session torn down): {}",
                                panic_text(&payload)
                            ),
                        },
                    },
                    "error".to_string(),
                    Some(JournalOp::Close {
                        session: name.to_string(),
                    }),
                )
            }
        }
    }

    fn outcome_for(&mut self, job: &AnalyzeJob) -> (Arc<AnalysisOutcome>, bool) {
        // The submitter missed, but the entry may have been inserted since:
        // a duplicate that waited for this lock behind the job that created
        // it is still a hit.
        if let Some(hit) = self.memo.get(job) {
            return (hit, true);
        }
        let outcome = Arc::new(self.analyze(job));
        self.memo.insert(job, Arc::clone(&outcome));
        // A fresh memo entry is not journaled (the memo is an optimization,
        // re-derivable from requests), but it does age the checkpoint.
        if let Some(dur) = self.dur.as_deref() {
            dur.note_mutation();
        }
        (outcome, false)
    }

    fn analyze(&mut self, job: &AnalyzeJob) -> AnalysisOutcome {
        let invalid = |algorithm: String, reason: String| AnalysisOutcome {
            algorithm,
            m: job.req.m,
            verdict: Verdict::Invalid { reason },
        };
        let ts = match job.canon.to_taskset() {
            Ok(ts) => ts,
            Err(e) => {
                return invalid(
                    job.req.algorithm.to_string(),
                    format!("invalid task set: {e}"),
                )
            }
        };
        if !self.engines.contains_key(&job.engine) {
            match job.req.algorithm.build_with(ts.len(), &job.req.options()) {
                Ok(built) => {
                    self.engines.insert(job.engine.clone(), built);
                }
                Err(e) => return invalid(job.req.algorithm.to_string(), e.to_string()),
            }
        }
        let engine = self.engines.get_mut(&job.engine).expect("just ensured");
        let name = engine.name();
        let m = job.req.m;
        // Disjoint-field reborrow so the closure can use the workspace
        // while `engine` borrows `self.engines`. Unwind safety: a panic
        // mid-partition leaves the workspace merely cold (its pool was
        // `mem::take`n into the call's own frame and dies with it; the plan
        // queue is cleared on next use), never inconsistent.
        let ws = &mut self.ws;
        match catch_unwind(AssertUnwindSafe(|| engine.partition_with(&ts, m, ws))) {
            Ok(result) => {
                let (verdict, partition) = match result {
                    Ok(p) => (accepted_verdict(&p), p),
                    Err(rej) => (rejected_verdict(&rej), rej.partial),
                };
                self.ws.recycle(partition);
                AnalysisOutcome {
                    algorithm: name,
                    m,
                    verdict,
                }
            }
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                invalid(name, format!("engine panicked: {}", panic_text(&payload)))
            }
        }
    }
}

/// The `Accepted` verdict describing a partition (canonical ids).
fn accepted_verdict(p: &Partition) -> Verdict {
    Verdict::Accepted {
        processors_used: p.processors.iter().filter(|q| !q.is_empty()).count(),
        splits: p.split_tasks().iter().map(|t| t.0).collect(),
        exactness: p.exactness,
    }
}

/// The `Rejected` verdict describing a rejection (canonical ids).
fn rejected_verdict(rej: &PartitionReject) -> Verdict {
    Verdict::Rejected {
        phase: rej.phase,
        task: rej.task.map(|t| t.0),
        unassigned: rej.unassigned.iter().map(|t| t.0).collect(),
        analysis: rej.analysis,
        reason: rej.reason.clone(),
    }
}

/// Renders a panic payload (`&str`/`String` verbatim, opaque otherwise).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-text panic payload".to_string()
    }
}
