//! A shard: long-lived engines, a memo table, live sessions, and panic
//! isolation — behind one lock.
//!
//! A shard is plain state, not a thread. It owns an **engine arena** —
//! one built [`DynPartitioner`] per distinct engine id (algorithm,
//! options and task-set size for the size-dependent SPA thresholds), so
//! a million requests against the same configuration construct the
//! engine once — plus a partitioning workspace and the live sessions
//! routed to it. The service keeps each shard behind its
//! own `Mutex`, and every job runs **on the thread that submits it**,
//! under that lock: [`Shard::serve`] and [`Shard::serve_session`] serve
//! one job and return its [`Response`]. Ops on one session always route
//! to one shard, so the lock serializes them in submission order.
//!
//! Only a shard adds entries to its **memo table** ([`Memo`]):
//! `(canonical pairs, m, engine) → Arc<AnalysisOutcome>`. The key holds
//! the *full* canonical pair list, packed (see [`crate::canonical`]), not
//! a hash, so collisions are impossible; the routing hash only decides
//! which shard a request lands on and which table slot it probes. The
//! engine is an [`EngineKey`] — the request's algorithm and options plus
//! the set size — interned to a service-wide `u32` ([`EngineIds`]); the
//! fingerprint *text* that memo snapshots carry is rendered once per
//! distinct key, never per request. The memo is shared read-mostly (an
//! `RwLock` behind an `Arc`): the submitting thread looks a v1 request up
//! itself and answers a hit on the spot, without the shard lock. A miss
//! takes the lock and looks the key up **again** before analysing: a
//! duplicate that waited for the lock behind the job creating its entry
//! is still a hit. Because only a lock holder inserts, and it re-checks
//! before every analysis, each distinct key is analysed exactly once, and
//! for one submitter its first occurrence is the miss — hit/miss labels
//! and counters are a function of the request stream, not of thread
//! timing.
//!
//! A request that panics inside the engine (e.g. `m = 0` trips the
//! engines' `assert!(m > 0)`) is contained by per-request `catch_unwind`
//! — sound because engines are plain configuration values: all mutable
//! analysis state (processor lists, RTA caches) lives in the panicked
//! call's own frame and is discarded with it. The requester receives a
//! [`Verdict::Invalid`] response, the lock stays unpoisoned, and the
//! shard keeps serving.

use crate::canonical::{self, CanonicalSet};
use crate::durability::DurabilityState;
use crate::journal::JournalOp;
use crate::request::{
    AnalysisOutcome, AnalyzeRequest, BudgetSpec, RepartitionRequest, Response, SessionMeta,
    SessionOp, Verdict,
};
use crate::service::SharedStats;
use crate::snapshot::MemoEntry;
use rmts_core::{
    AdmissionPolicy, AlgorithmSpec, DynPartitioner, Partition, PartitionReject, PartitionSession,
    PartitionWorkspace, RepartitionError,
};
use std::collections::{hash_map, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
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
    /// The engine `req` asks for against `canon`.
    pub engine: EngineKey,
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

/// The engine a v1 request asks for against a canonical set of `n`
/// tasks: its algorithm and options, plus `n` because the SPA thresholds
/// Θ(n) make engines size-dependent. Built without allocating. Two keys
/// are equal exactly when their fingerprint texts ([`fmt::Display`]) are,
/// so grouping by key is grouping by the text memo snapshots carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EngineKey {
    algorithm: AlgorithmSpec,
    policy: PolicyKey,
    budget: BudgetSpec,
    degrade: bool,
    n: usize,
}

impl EngineKey {
    pub(crate) fn of(req: &AnalyzeRequest, n: usize) -> Self {
        EngineKey {
            algorithm: req.algorithm,
            policy: PolicyKey(req.policy),
            budget: req.budget,
            degrade: req.degrade,
            n,
        }
    }
}

/// The engine fingerprint text: `Debug` of the option fields, which is
/// deterministic (unit enums, integers, shortest round-trip floats), so
/// it is stable across runs and builds.
impl fmt::Display for EngineKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}|{:?}|{:?}|{}|{}",
            self.algorithm, self.policy.0, self.budget, self.degrade, self.n
        )
    }
}

/// An admission-policy override, compared as its `Debug` text would be:
/// `theta` by its bits (so `0.0` and `-0.0` differ), every NaN alike.
#[derive(Debug, Clone, Copy)]
struct PolicyKey(Option<AdmissionPolicy>);

impl PolicyKey {
    fn bits(self) -> (u8, u64) {
        match self.0 {
            None => (0, 0),
            Some(AdmissionPolicy::ExactRta { strategy, cached }) => {
                (1, (strategy as u64) << 1 | u64::from(cached))
            }
            Some(AdmissionPolicy::DensityThreshold { theta }) if theta.is_nan() => {
                (2, f64::NAN.to_bits())
            }
            Some(AdmissionPolicy::DensityThreshold { theta }) => (2, theta.to_bits()),
        }
    }
}

impl PartialEq for PolicyKey {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for PolicyKey {}

impl Hash for PolicyKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bits().hash(state);
    }
}

/// The service-wide engine interner: each distinct engine fingerprint
/// text gets one `u32`, which memo entries and shard engine arenas carry.
/// Live keys are rendered once, on first sight; restored snapshot entries
/// are interned by their text as written, so a restored entry answers any
/// live key that renders to the same text.
#[derive(Default)]
pub(crate) struct EngineIds {
    by_key: HashMap<EngineKey, u32>,
    by_text: HashMap<Arc<str>, u32>,
    texts: Vec<Arc<str>>,
}

impl EngineIds {
    fn of_text(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.by_text.get(text) {
            return id;
        }
        let id = u32::try_from(self.texts.len()).expect("fewer than 2^32 distinct engines");
        let text: Arc<str> = text.into();
        self.by_text.insert(Arc::clone(&text), id);
        self.texts.push(text);
        id
    }

    fn of_key(&mut self, key: &EngineKey) -> u32 {
        if let Some(&id) = self.by_key.get(key) {
            return id;
        }
        let id = self.of_text(&key.to_string());
        self.by_key.insert(*key, id);
        id
    }
}

/// A memo table slot: routing hash, processor count and engine id. The
/// table's default, keyed hasher mixes the routing hash, whose low bits
/// are correlated with the shard (`hash % shards`) and which a client can
/// steer.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Slot {
    hash: u64,
    m: usize,
    engine: u32,
}

/// One memo entry: the packed canonical pairs it answers for and its
/// outcome. A different set whose routing hash collides under the same
/// `m` and engine chains behind it, so a collision costs a compare, never
/// a wrong answer.
struct Entry {
    packed: Box<[u8]>,
    outcome: Arc<AnalysisOutcome>,
    next: Option<Box<Entry>>,
}

impl Entry {
    fn chain(&self) -> impl Iterator<Item = &Entry> {
        std::iter::successors(Some(self), |e| e.next.as_deref())
    }
}

#[derive(Default)]
struct Table {
    /// This shard's copy of the engine ids its submitters have used, so
    /// a lookup needs no lock beyond the table's.
    engines: HashMap<EngineKey, u32>,
    slots: HashMap<Slot, Entry>,
}

impl Table {
    fn find(&self, slot: &Slot, packed: &[u8]) -> Option<Arc<AnalysisOutcome>> {
        self.slots
            .get(slot)?
            .chain()
            .find(|e| *e.packed == *packed)
            .map(|e| Arc::clone(&e.outcome))
    }

    /// Adds an entry the caller has just looked up and missed.
    fn insert(&mut self, slot: Slot, packed: Box<[u8]>, outcome: Arc<AnalysisOutcome>) {
        let mut entry = Entry {
            packed,
            outcome,
            next: None,
        };
        if let Some(head) = self.slots.get_mut(&slot) {
            entry.next = head.next.take();
            head.next = Some(Box::new(entry));
        } else {
            self.slots.insert(slot, entry);
        }
    }
}

/// One shard's memo table. Shared as `Arc<Memo>`: only the holder of its
/// shard's lock adds entries, every submitting thread reads it (see the
/// module docs). Each method holds the table's own lock only for its own
/// duration; none waits for the engine interner while holding it.
pub(crate) struct Memo {
    ids: Arc<Mutex<EngineIds>>,
    table: RwLock<Table>,
}

impl Memo {
    pub(crate) fn new(ids: Arc<Mutex<EngineIds>>) -> Self {
        Memo {
            ids,
            table: RwLock::default(),
        }
    }

    fn slot(job: &AnalyzeJob, engine: u32) -> Slot {
        Slot {
            hash: job.canon.hash(),
            m: job.req.m,
            engine,
        }
    }

    /// The memoized outcome for `job`'s exact key, or on a miss the id of
    /// its engine. A key this shard has seen before costs one read-lock
    /// acquisition and no allocation; a new one is interned first.
    pub(crate) fn get(&self, job: &AnalyzeJob) -> Result<Arc<AnalysisOutcome>, u32> {
        let table = self.table.read().expect("memo lock poisoned");
        if let Some(&engine) = table.engines.get(&job.engine) {
            return table
                .find(&Self::slot(job, engine), job.canon.packed())
                .ok_or(engine);
        }
        drop(table);
        let engine = self.intern(&job.engine);
        self.find(job, engine).ok_or(engine)
    }

    /// Assigns `key` its service-wide id and caches it in this table.
    fn intern(&self, key: &EngineKey) -> u32 {
        let engine = self.ids.lock().expect("engine ids poisoned").of_key(key);
        self.table
            .write()
            .expect("memo lock poisoned")
            .engines
            .insert(*key, engine);
        engine
    }

    fn find(&self, job: &AnalyzeJob, engine: u32) -> Option<Arc<AnalysisOutcome>> {
        self.table
            .read()
            .expect("memo lock poisoned")
            .find(&Self::slot(job, engine), job.canon.packed())
    }

    /// Memoizes a freshly analysed `job` (which the caller has just
    /// looked up and missed).
    fn insert(&self, job: &AnalyzeJob, engine: u32, outcome: Arc<AnalysisOutcome>) {
        self.table.write().expect("memo lock poisoned").insert(
            Self::slot(job, engine),
            job.canon.packed().into(),
            outcome,
        );
    }

    /// Adds a restored snapshot entry whose pairs have routing hash
    /// `hash`, interning its engine text as written. Duplicate keys keep
    /// the first entry (snapshots never contain two outcomes for one key,
    /// but a hostile file must not corrupt the table).
    pub(crate) fn seed(&mut self, hash: u64, entry: MemoEntry) {
        let slot = Slot {
            hash,
            m: entry.m,
            engine: self
                .ids
                .lock()
                .expect("engine ids poisoned")
                .of_text(&entry.engine),
        };
        let packed = canonical::pack(entry.pairs.iter().copied()).into_boxed_slice();
        let table = self.table.get_mut().expect("memo lock poisoned");
        if table.find(&slot, &packed).is_none() {
            table.insert(slot, packed, Arc::new(entry.outcome));
        }
    }

    /// Every entry, in table order, each with its engine's text.
    fn export(&self) -> Vec<MemoEntry> {
        let ids = self.ids.lock().expect("engine ids poisoned");
        let table = self.table.read().expect("memo lock poisoned");
        table
            .slots
            .iter()
            .flat_map(|(slot, head)| head.chain().map(move |e| (slot, e)))
            .map(|(slot, e)| MemoEntry {
                pairs: canonical::unpack(&e.packed),
                m: slot.m,
                engine: ids.texts[slot.engine as usize].to_string(),
                outcome: (*e.outcome).clone(),
            })
            .collect()
    }
}

pub(crate) struct Shard {
    idx: usize,
    /// Built engines by engine id ([`EngineIds`]).
    engines: HashMap<u32, DynPartitioner>,
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

    /// Serves one v1 job that missed the memo on its submitting thread;
    /// `engine` is the id that lookup returned.
    pub(crate) fn serve(&mut self, job: AnalyzeJob, engine: u32) -> Response {
        let (outcome, memo_hit) = self.outcome_for(&job, engine);
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

    fn outcome_for(&mut self, job: &AnalyzeJob, engine: u32) -> (Arc<AnalysisOutcome>, bool) {
        // The submitter missed, but the entry may have been inserted since:
        // a duplicate that waited for this lock behind the job that created
        // it is still a hit.
        if let Some(hit) = self.memo.find(job, engine) {
            return (hit, true);
        }
        let outcome = Arc::new(self.analyze(job, engine));
        self.memo.insert(job, engine, Arc::clone(&outcome));
        // A fresh memo entry is not journaled (the memo is an optimization,
        // re-derivable from requests), but it does age the checkpoint.
        if let Some(dur) = self.dur.as_deref() {
            dur.note_mutation();
        }
        (outcome, false)
    }

    fn analyze(&mut self, job: &AnalyzeJob, engine: u32) -> AnalysisOutcome {
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
        let engine = match self.engines.entry(engine) {
            hash_map::Entry::Occupied(built) => built.into_mut(),
            hash_map::Entry::Vacant(slot) => {
                match job.req.algorithm.build_with(ts.len(), &job.req.options()) {
                    Ok(built) => slot.insert(built),
                    Err(e) => return invalid(job.req.algorithm.to_string(), e.to_string()),
                }
            }
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_core::MaxSplitStrategy;

    /// The fingerprint text memo snapshots have always carried.
    fn reference_text(req: &AnalyzeRequest, n: usize) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}|{}",
            req.algorithm, req.policy, req.budget, req.degrade, n
        )
    }

    /// Different sets that collide on one slot (same routing hash, `m`
    /// and engine) chain there, each keeping its own answer.
    #[test]
    fn colliding_sets_keep_their_own_answers() {
        let slot = Slot {
            hash: 7,
            m: 2,
            engine: 0,
        };
        let mut table = Table::default();
        for (pairs, algorithm) in [([(1, 4)], "a"), ([(2, 4)], "b"), ([(1, 5)], "c")] {
            let outcome = AnalysisOutcome {
                algorithm: algorithm.into(),
                m: 2,
                verdict: Verdict::Invalid {
                    reason: String::new(),
                },
            };
            let packed = canonical::pack(pairs).into_boxed_slice();
            table.insert(slot, packed, Arc::new(outcome));
        }
        let find = |pairs: [(u64, u64); 1]| {
            let hit = table.find(&slot, &canonical::pack(pairs));
            hit.map(|o| o.algorithm.clone())
        };
        assert_eq!(find([(1, 4)]).as_deref(), Some("a"));
        assert_eq!(find([(2, 4)]).as_deref(), Some("b"));
        assert_eq!(find([(1, 5)]).as_deref(), Some("c"));
        assert_eq!(find([(3, 4)]), None);
        assert_eq!(table.slots.len(), 1);
        assert_eq!(table.slots[&slot].chain().count(), 3);
    }

    #[test]
    fn fingerprint_text_is_pinned() {
        let req = AnalyzeRequest::new(vec![], 2, AlgorithmSpec::RmTsLight);
        assert_eq!(
            EngineKey::of(&req, 3).to_string(),
            "RmTsLight|None|BudgetSpec { deadline_ms: None, max_iterations: None, \
             max_probes: None, horizon_cap: None }|false|3"
        );
    }

    /// Over catalogue × policies × budgets × degrade × n, a key renders
    /// the reference text, and two keys share an id exactly when their
    /// texts are equal — whether the id came from a live key or from a
    /// restored entry's text.
    #[test]
    fn engine_ids_are_equal_exactly_when_fingerprint_texts_are() {
        let density = |theta| Some(AdmissionPolicy::DensityThreshold { theta });
        let policies = [
            None,
            Some(AdmissionPolicy::exact()),
            Some(AdmissionPolicy::exact().uncached()),
            Some(AdmissionPolicy::ExactRta {
                strategy: MaxSplitStrategy::BinarySearch,
                cached: true,
            }),
            density(0.0),
            density(-0.0),
            density(0.1 + 0.2),
            density(0.3),
            density(f64::NAN),
            density(-f64::NAN),
            density(f64::INFINITY),
        ];
        let budgets = [
            BudgetSpec::unlimited(),
            BudgetSpec {
                max_iterations: Some(0),
                ..BudgetSpec::unlimited()
            },
            BudgetSpec {
                max_probes: Some(0),
                ..BudgetSpec::unlimited()
            },
            BudgetSpec {
                deadline_ms: Some(5),
                ..BudgetSpec::unlimited()
            },
        ];
        let mut keys = Vec::new();
        for algorithm in AlgorithmSpec::catalogue() {
            for policy in policies {
                for budget in budgets {
                    for degrade in [false, true] {
                        for n in [3, 64] {
                            let mut req = AnalyzeRequest::new(vec![], 2, algorithm)
                                .with_budget(budget)
                                .with_degrade(degrade);
                            req.policy = policy;
                            keys.push((EngineKey::of(&req, n), reference_text(&req, n)));
                        }
                    }
                }
            }
        }
        // Live keys first, then (in a fresh interner) restored texts
        // before the live keys that render to them.
        let mut live = EngineIds::default();
        let mut restored = EngineIds::default();
        let mut text_of_id: HashMap<u32, &str> = HashMap::new();
        let mut id_of_text: HashMap<&str, u32> = HashMap::new();
        for (key, text) in &keys {
            assert_eq!(key.to_string(), *text);
            let id = live.of_key(key);
            assert_eq!(
                *text_of_id.entry(id).or_insert(text),
                text,
                "one id, two texts"
            );
            assert_eq!(
                *id_of_text.entry(text).or_insert(id),
                id,
                "one text, two ids"
            );
            assert_eq!(restored.of_text(text), restored.of_key(key));
        }
        assert_eq!(live.texts.len(), id_of_text.len());
        // The edge policies group as their texts do: ±0 and 0.1 + 0.2 vs
        // 0.3 apart, the two NaNs together.
        let distinct = |a: f64, b: f64| {
            let key = |theta| {
                let mut req = AnalyzeRequest::new(vec![], 2, AlgorithmSpec::RmTsLight);
                req.policy = density(theta);
                EngineKey::of(&req, 3)
            };
            key(a) != key(b)
        };
        assert!(distinct(0.0, -0.0) && distinct(0.1 + 0.2, 0.3));
        assert!(!distinct(f64::NAN, -f64::NAN));
    }
}
