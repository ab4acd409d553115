//! Incremental re-partitioning: sessions, placement traces, guided replay.
//!
//! A [`PartitionSession`] owns a task set, its current [`Partition`], and a
//! [`SessionTrace`] — the per-step placement record of the run that produced
//! the partition. Applying a [`TaskSetDelta`] re-runs the *real* algorithm
//! over the whole new task set, but wherever a step is provably identical
//! to the prior run the recorded outcome (admission verdict, `MaxSplit`
//! budget, response time) is substituted for the RTA probe. The result is
//! **bit-identical to a from-scratch partition by construction**: every
//! step is either computed live or replaced by a value the live computation
//! is proven to reproduce — there is no a-posteriori equivalence check, and
//! rejects come out of the same shared code path.
//!
//! ## Why replay is sound
//!
//! Admission (`fits_whole` / `max_budget` / `record_response`) is purely
//! local to *(processor workload, newcomer spec)*, and RTA over a workload
//! depends only on the **relative priority order** of its subtasks and
//! their `(C, T, Δ)` values — never on absolute priority labels. Surviving
//! tasks keep their relative `(period, id)` order across any delta, so a
//! recorded verdict transfers whenever the processor hosts the same pieces
//! in the same order. The [`Guide`] tracks exactly that with a per-processor
//! *dirty* flag:
//!
//! > processor `p` clean ⇒ every push to `p` so far equals the prior
//! > run's pushes to `p` at the aligned point (up to the consistent
//! > priority relabeling).
//!
//! Work items are processed in strictly descending `(period, id)` order in
//! both runs, so a two-pointer walk aligns the new queue against the
//! recorded items: recorded items the cursor passes (removed / re-reserved
//! tasks) dirty their processors, parameter changes and additions run
//! live, and a matched item replays its recorded events only while the
//! live processor pick agrees and the target processor is clean. Every
//! live placement dirties its processor. Subtasks are always constructed
//! with the *new* priorities — only decisions and response times are
//! reused.
//!
//! Replay requires an unlimited analysis budget (a metered run's verdicts
//! depend on meter state, which does not align across runs); budgeted
//! engines and engines without trace support fall back to a full traced
//! re-partition — same results, no reuse.

use crate::partition::{Partition, PartitionReject, PartitionResult, Partitioner};
use crate::processor::ProcessorRole;
use crate::workspace::PartitionWorkspace;
use rmts_taskmodel::{DeltaError, SplitPlan, TaskId, TaskSet, TaskSetDelta, Time};
use std::fmt;

/// One recorded placement decision of a queue item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// The whole remaining budget fit: the item was sealed on `proc` with
    /// this recorded response time.
    Sealed {
        /// Host processor index.
        proc: usize,
        /// Recorded response time of the sealed piece.
        response: Time,
    },
    /// The item did not fit: `proc` was closed. `body` is the `MaxSplit`
    /// piece that was placed first, or `None` when even a 1-tick piece
    /// did not fit (nothing was pushed — the close is invisible in the
    /// final partition, which is why a trace is needed at all).
    Closed {
        /// The processor that was closed.
        proc: usize,
        /// `(budget, response)` of the placed body piece, if any.
        body: Option<(Time, Time)>,
    },
}

impl StepEvent {
    /// The processor this event touched.
    pub fn proc(&self) -> usize {
        match self {
            StepEvent::Sealed { proc, .. } | StepEvent::Closed { proc, .. } => *proc,
        }
    }
}

/// A reserved (phase 0/1) placement: one whole task put on `proc` before
/// the queue phases ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservedPlace {
    /// The reserved task.
    pub task: TaskId,
    /// Its WCET at the time of the run.
    pub wcet: Time,
    /// Its period at the time of the run.
    pub period: Time,
    /// The role the placement gave the processor.
    pub role: ProcessorRole,
    /// Host processor index.
    pub proc: usize,
}

/// The recorded placement history of one queue item (one task's walk
/// through the assignment phases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ItemTrace {
    pub(crate) task: TaskId,
    pub(crate) wcet: Time,
    pub(crate) period: Time,
    pub(crate) events: Vec<StepEvent>,
}

/// The placement trace of one partition run: what the engine decided at
/// every step, in processing order. Produced by
/// [`Repartitioner::partition_traced`], consumed by guided replay in
/// [`Repartitioner::repartition`].
#[derive(Debug, Clone, Default)]
pub struct SessionTrace {
    /// `false` when the producing engine does not support guided replay
    /// (default trait impl, metered budget): the next apply goes full.
    supported: bool,
    /// Phase 0/1 placements, in placement order.
    reserved: Vec<ReservedPlace>,
    /// Queue items in processing order (descending `(period, id)`).
    items: Vec<ItemTrace>,
    /// Retired per-item event buffers, handed back out by
    /// [`SessionTrace::begin_item`] so steady-state session traffic does
    /// not allocate one `Vec` per queue item per apply.
    pool: Vec<Vec<StepEvent>>,
}

impl PartialEq for SessionTrace {
    fn eq(&self, other: &Self) -> bool {
        // The buffer pool is an allocation cache, not trace content.
        self.supported == other.supported
            && self.reserved == other.reserved
            && self.items == other.items
    }
}

impl SessionTrace {
    /// An empty, unsupported trace.
    pub fn new() -> Self {
        SessionTrace::default()
    }

    /// Whether the trace can seed guided replay.
    pub fn is_supported(&self) -> bool {
        self.supported
    }

    /// Number of recorded queue items (diagnostics/tests).
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Wipe for reuse, marking the trace unsupported until a recording
    /// engine claims it. Event buffers are retired to the pool, not
    /// dropped.
    pub(crate) fn reset(&mut self) {
        self.supported = false;
        self.reserved.clear();
        self.pool.extend(self.items.drain(..).map(|mut it| {
            it.events.clear();
            it.events
        }));
    }

    /// Marks the trace as produced by a replay-capable engine.
    pub(crate) fn set_supported(&mut self) {
        self.supported = true;
    }

    /// The recorded queue items, in processing order.
    pub(crate) fn items(&self) -> &[ItemTrace] {
        &self.items
    }

    /// Whether any phase 0/1 placements were recorded.
    pub(crate) fn has_reserved(&self) -> bool {
        !self.reserved.is_empty()
    }

    /// Starts recording a new queue item, reusing a pooled event buffer.
    pub(crate) fn begin_item(&mut self, task: TaskId, wcet: Time, period: Time) {
        let events = self.pool.pop().unwrap_or_default();
        debug_assert!(events.is_empty());
        self.items.push(ItemTrace {
            task,
            wcet,
            period,
            events,
        });
    }

    /// Appends an event to the item most recently begun.
    pub(crate) fn push_event(&mut self, ev: StepEvent) {
        self.items.last_mut().expect("item begun").events.push(ev);
    }

    /// Copies a prior item verbatim (a fully replayed, unchanged item).
    pub(crate) fn copy_item(&mut self, item: &ItemTrace) {
        self.begin_item(item.task, item.wcet, item.period);
        self.items
            .last_mut()
            .expect("item just begun")
            .events
            .extend_from_slice(&item.events);
    }

    /// Largest processor index any recorded event touches, if any.
    fn max_proc(&self) -> Option<usize> {
        self.reserved
            .iter()
            .map(|r| r.proc)
            .chain(
                self.items
                    .iter()
                    .flat_map(|i| i.events.iter().map(StepEvent::proc)),
            )
            .max()
    }
}

/// Replay state over a prior trace: the two-pointer alignment cursor and
/// the per-processor dirty set.
struct Replay<'a> {
    old: &'a SessionTrace,
    /// Next recorded item the alignment cursor will consider.
    cursor: usize,
    /// Next event within `old.items[cursor]` (valid while `matched`).
    event_idx: usize,
    /// `dirty[p]` ⇒ processor `p`'s workload may differ from the prior
    /// run's at the aligned point: recorded events on it must not be
    /// reused.
    dirty: Vec<bool>,
    /// The current front item matched `old.items[cursor]`.
    matched: bool,
    /// The current front item diverged from its recorded events; it runs
    /// live until consumed.
    diverged: bool,
    /// Steps replayed from the record (observability).
    reused: u64,
    /// Steps computed live (observability).
    live: u64,
}

impl<'a> Replay<'a> {
    fn new(old: &'a SessionTrace, m: usize) -> Self {
        Replay {
            old,
            cursor: 0,
            event_idx: 0,
            dirty: vec![false; m],
            matched: false,
            diverged: false,
            reused: 0,
            live: 0,
        }
    }

    fn dirty_events(&mut self, events: &[StepEvent]) {
        for ev in events {
            self.dirty[ev.proc()] = true;
        }
    }

    /// Marks dirty every processor whose prior reserved placements differ
    /// from the new run's (sequence comparison per processor).
    fn seed_dirty_from_reserved(&mut self, new_reserved: &[ReservedPlace]) {
        let m = self.dirty.len();
        for p in 0..m {
            let mut old_it = self.old.reserved.iter().filter(|r| r.proc == p);
            let mut new_it = new_reserved.iter().filter(|r| r.proc == p);
            loop {
                match (old_it.next(), new_it.next()) {
                    (None, None) => break,
                    (Some(a), Some(b)) if a == b => continue,
                    _ => {
                        self.dirty[p] = true;
                        break;
                    }
                }
            }
        }
    }
}

/// The engine-side handle threaded through a partition run to record a
/// [`SessionTrace`] and (in guided mode) replay a prior one. Constructed
/// by [`Repartitioner`] implementations; consumed by the phase engine.
pub struct Guide<'a> {
    /// Trace being recorded for the new run (also in guided mode — the
    /// session needs it for the *next* delta).
    rec: Option<&'a mut SessionTrace>,
    /// Prior-run replay state (guided mode only).
    replay: Option<Replay<'a>>,
    /// Task id of the queue item currently front (alignment latch).
    current: Option<TaskId>,
}

impl<'a> Guide<'a> {
    /// Record-only mode: trace the run into `rec`.
    pub fn record(rec: &'a mut SessionTrace) -> Self {
        rec.reset();
        rec.supported = true;
        Guide {
            rec: Some(rec),
            replay: None,
            current: None,
        }
    }

    /// Guided mode: trace the new run into `rec` while replaying `old`
    /// where provably equal. `m` is the processor count (dirty-set size).
    pub fn guided(rec: &'a mut SessionTrace, old: &'a SessionTrace, m: usize) -> Self {
        rec.reset();
        rec.supported = true;
        Guide {
            rec: Some(rec),
            replay: Some(Replay::new(old, m)),
            current: None,
        }
    }

    /// Records a phase 0/1 placement.
    pub(crate) fn record_reserved(&mut self, place: ReservedPlace) {
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.reserved.push(place);
        }
    }

    /// Called once after the reserved phases and before the queue phases:
    /// seeds the dirty set from the reserved-placement diff.
    pub(crate) fn finish_reserved(&mut self) {
        let new_reserved: &[ReservedPlace] = match self.rec.as_deref() {
            Some(rec) => &rec.reserved,
            None => &[],
        };
        // Split borrows: the replay half never touches `rec` here.
        if let Some(r) = self.replay.as_mut() {
            // `new_reserved` borrows `self.rec` immutably while `r` borrows
            // `self.replay` mutably — disjoint fields, but the borrow
            // checker needs the copy below to see it.
            let snapshot: Vec<ReservedPlace> = new_reserved.to_vec();
            r.seed_dirty_from_reserved(&snapshot);
        }
    }

    /// Aligns the guide to the queue's front item. Must be called by the
    /// engine each loop iteration before deciding the step; cheap no-op
    /// while the front item is unchanged.
    pub(crate) fn align_front(&mut self, plan: &SplitPlan) {
        let task = plan.task();
        if self.current == Some(task.id) {
            return;
        }
        // Finish the previous item: consume its matched record (divergence
        // already dirtied any unreplayed remainder; dirty defensively).
        if let Some(r) = self.replay.as_mut() {
            if r.matched {
                if !r.diverged && r.event_idx < r.old.items[r.cursor].events.len() {
                    let rest = r.old.items[r.cursor].events[r.event_idx..].to_vec();
                    r.dirty_events(&rest);
                }
                r.cursor += 1;
                r.matched = false;
                r.diverged = false;
                r.event_idx = 0;
            }
        }
        self.current = Some(task.id);
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.begin_item(task.id, task.wcet, task.period);
        }
        // Two-pointer alignment over the descending (period, id) key.
        if let Some(r) = self.replay.as_mut() {
            let key = (task.period, task.id);
            while r.cursor < r.old.items.len() {
                let o = &r.old.items[r.cursor];
                let okey = (o.period, o.task);
                if okey > key {
                    // The recorded item has no counterpart at or after this
                    // point in the new queue (later new keys only get
                    // smaller): its pushes are absent from the new run.
                    let evs = o.events.clone();
                    r.dirty_events(&evs);
                    r.cursor += 1;
                } else if okey == key {
                    if o.wcet == task.wcet {
                        r.matched = true;
                        r.diverged = false;
                        r.event_idx = 0;
                    } else {
                        // Parameter change: recorded placements are void.
                        let evs = o.events.clone();
                        r.dirty_events(&evs);
                        r.cursor += 1;
                    }
                    break;
                } else {
                    break; // a new addition: run live, keep the cursor
                }
            }
        }
    }

    /// Offers the next recorded event for reuse, given the live processor
    /// pick `q`. Returns `Some(event)` — already recorded into the new
    /// trace and advanced past — iff the front item is matched, has not
    /// diverged, its next recorded event targets exactly `q`, and `q` is
    /// clean. Otherwise the step must run live (and report back via
    /// [`Guide::on_live`]).
    pub(crate) fn try_reuse(&mut self, q: usize) -> Option<StepEvent> {
        let r = self.replay.as_mut()?;
        if !r.matched || r.diverged {
            return None;
        }
        let item = &r.old.items[r.cursor];
        let ev = *item.events.get(r.event_idx)?;
        if ev.proc() != q || r.dirty[q] {
            return None;
        }
        r.event_idx += 1;
        r.reused += 1;
        if matches!(ev, StepEvent::Sealed { .. }) {
            // Item fully replayed and about to be popped: consume it now so
            // the next alignment starts past it.
            r.cursor += 1;
            r.matched = false;
            r.event_idx = 0;
        }
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.items.last_mut().expect("item begun").events.push(ev);
        }
        Some(ev)
    }

    /// Reports a live step's outcome: records it, dirties its processor,
    /// and (first divergence of a matched item) voids the item's remaining
    /// recorded events.
    pub(crate) fn on_live(&mut self, ev: StepEvent) {
        if let Some(r) = self.replay.as_mut() {
            r.live += 1;
            r.dirty[ev.proc()] = true;
            if r.matched && !r.diverged {
                r.diverged = true;
                let rest = r.old.items[r.cursor].events[r.event_idx..].to_vec();
                r.dirty_events(&rest);
            }
        }
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.items.last_mut().expect("item begun").events.push(ev);
        }
    }

    /// `(reused, live)` step counts (observability; `(0, total)` outside
    /// guided mode).
    pub fn step_counts(&self) -> (u64, u64) {
        match &self.replay {
            Some(r) => (r.reused, r.live),
            None => (0, 0),
        }
    }
}

/// Which path an [`PartitionSession::apply`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepartitionPath {
    /// The delta carried no ops; the prior partition was returned as-is.
    Noop,
    /// Guided replay: recorded placements were reused where provably
    /// equal.
    Incremental,
    /// Full traced re-partition (unsupported trace, metered budget, or the
    /// engine's default implementation).
    Full,
}

impl RepartitionPath {
    /// Stable lower-case name.
    pub fn as_str(&self) -> &'static str {
        match self {
            RepartitionPath::Noop => "noop",
            RepartitionPath::Incremental => "incremental",
            RepartitionPath::Full => "full",
        }
    }
}

impl fmt::Display for RepartitionPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The prior state a [`Repartitioner`] may reuse.
pub struct PriorRun<'a> {
    /// The committed partition of the session's current task set.
    pub partition: &'a Partition,
    /// The placement trace of the run that produced it.
    pub trace: &'a SessionTrace,
}

/// Extension of [`Partitioner`] with traced and incremental entry points.
///
/// The default implementations make every partitioner usable behind a
/// [`PartitionSession`] (correct, never incremental). The splitting
/// engines — RM-TS, RM-TS/light and the SPA baselines on their skeletons —
/// share one implementation of both in [`crate::engine`]: it picks the
/// tier of every apply (full, WCET splice for RM-TS/light, or guided
/// replay).
pub trait Repartitioner: Partitioner {
    /// [`Partitioner::partition_with`] that additionally records the
    /// placement trace needed to seed guided replay. The default records
    /// nothing and marks the trace unsupported.
    fn partition_traced(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        trace: &mut SessionTrace,
    ) -> PartitionResult {
        trace.reset();
        self.partition_with(ts, m, ws)
    }

    /// Re-partitions `ts` (the post-delta set) given the prior run,
    /// recording the new trace into `trace`. Must be bit-identical to
    /// `partition_with(ts, m, fresh_ws)`. The default performs a full
    /// traced re-partition.
    fn repartition(
        &self,
        prior: PriorRun<'_>,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        trace: &mut SessionTrace,
    ) -> (PartitionResult, RepartitionPath) {
        let _ = prior;
        (
            self.partition_traced(ts, m, ws, trace),
            RepartitionPath::Full,
        )
    }
}

/// Why an [`PartitionSession::apply`] did not commit. The session keeps
/// its prior state in both cases (admission-control semantics: a rejected
/// delta changes nothing).
#[derive(Debug)]
pub enum RepartitionError {
    /// The delta failed validation against the session's task set.
    Delta(DeltaError),
    /// The post-delta set was rejected by the partitioner.
    Rejected {
        /// The full rejection diagnostics for the post-delta set.
        reject: Box<PartitionReject>,
        /// Which path produced the rejection.
        path: RepartitionPath,
    },
}

impl fmt::Display for RepartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepartitionError::Delta(e) => write!(f, "invalid delta: {e}"),
            RepartitionError::Rejected { reject, path } => {
                write!(f, "delta rejected ({path} path): {reject}")
            }
        }
    }
}

impl std::error::Error for RepartitionError {}

impl From<DeltaError> for RepartitionError {
    fn from(e: DeltaError) -> Self {
        RepartitionError::Delta(e)
    }
}

/// A committed apply: the session's (new) partition and the path taken.
#[derive(Debug)]
pub struct RepartitionOk<'a> {
    /// The committed partition (borrowed from the session).
    pub partition: &'a Partition,
    /// Which path produced it.
    pub path: RepartitionPath,
}

/// Outcome of [`PartitionSession::apply`].
pub type RepartitionResult<'a> = Result<RepartitionOk<'a>, RepartitionError>;

/// A long-lived partitioning session: the delta-oriented API surface.
///
/// Owns the engine, the current task set and partition, the placement
/// trace, and a recycled [`PartitionWorkspace`]. [`PartitionSession::apply`]
/// validates a delta, re-partitions (incrementally when the engine
/// supports it), and commits on success; on any failure the session's
/// state is unchanged.
pub struct PartitionSession {
    engine: Box<dyn Repartitioner>,
    ts: TaskSet,
    m: usize,
    partition: Partition,
    trace: SessionTrace,
    spare: SessionTrace,
    ws: PartitionWorkspace,
}

impl PartitionSession {
    /// Opens a session by partitioning `ts` on `m` processors with a
    /// traced run. Fails with the engine's rejection if the base set is
    /// not schedulable.
    pub fn start(
        engine: Box<dyn Repartitioner>,
        ts: TaskSet,
        m: usize,
    ) -> Result<Self, Box<PartitionReject>> {
        let mut ws = PartitionWorkspace::new();
        let mut trace = SessionTrace::new();
        let partition = engine.partition_traced(&ts, m, &mut ws, &mut trace)?;
        Ok(PartitionSession {
            engine,
            ts,
            m,
            partition,
            trace,
            spare: SessionTrace::new(),
            ws,
        })
    }

    /// The session's current partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The session's current task set.
    pub fn taskset(&self) -> &TaskSet {
        &self.ts
    }

    /// The processor count the session was opened with.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The engine's display name.
    pub fn engine_name(&self) -> String {
        self.engine.name()
    }

    /// A structural FNV-1a digest over the session's complete observable
    /// state: engine name, processor count, task set, committed partition,
    /// and placement trace. Two sessions with equal digests answer every
    /// future delta identically (the trace drives guided replay), which is
    /// what crash-recovery tests mean by "recovered bit-identical".
    pub fn state_digest(&self) -> u64 {
        // `Debug` of the components is deterministic (integers, unit
        // enums, Vecs in committed order), so the digest is stable across
        // processes of the same build. The trace's buffer pool is an
        // allocation cache whose size depends on non-committed history
        // (rejected applies), so only the trace *content* is folded in —
        // matching `SessionTrace::eq`.
        let text = format!(
            "{}|{}|{:?}|{:?}|{}|{:?}|{:?}",
            self.engine.name(),
            self.m,
            self.ts,
            self.partition,
            self.trace.supported,
            self.trace.reserved,
            self.trace.items
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Applies a delta. On success the new task set, partition, and trace
    /// are committed and the partition is returned (with the path taken).
    /// On failure — invalid delta or rejected post-delta set — the session
    /// keeps all prior state.
    pub fn apply(&mut self, delta: &TaskSetDelta) -> RepartitionResult<'_> {
        if delta.is_empty() {
            return Ok(RepartitionOk {
                partition: &self.partition,
                path: RepartitionPath::Noop,
            });
        }
        let new_ts = delta.apply_to(&self.ts)?;
        let mut new_trace = std::mem::take(&mut self.spare);
        let prior = PriorRun {
            partition: &self.partition,
            trace: &self.trace,
        };
        let (result, path) =
            self.engine
                .repartition(prior, &new_ts, self.m, &mut self.ws, &mut new_trace);
        match result {
            Ok(new_partition) => {
                self.ts = new_ts;
                self.spare = std::mem::replace(&mut self.trace, new_trace);
                let old = std::mem::replace(&mut self.partition, new_partition);
                self.ws.recycle(old);
                Ok(RepartitionOk {
                    partition: &self.partition,
                    path,
                })
            }
            Err(reject) => {
                self.spare = new_trace;
                Err(RepartitionError::Rejected { reject, path })
            }
        }
    }
}

impl fmt::Debug for PartitionSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartitionSession")
            .field("engine", &self.engine.name())
            .field("n", &self.ts.len())
            .field("m", &self.m)
            .field("trace_supported", &self.trace.is_supported())
            .finish()
    }
}

/// Guard used by guided `repartition` implementations: `true` when the
/// prior trace can seed replay for an `m`-processor run.
pub(crate) fn replayable(trace: &SessionTrace, m: usize) -> bool {
    trace.is_supported() && trace.max_proc().is_none_or(|p| p < m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmts::RmTs;
    use crate::rmts_light::RmTsLight;
    use rmts_taskmodel::{Task, TaskSetBuilder};

    fn base() -> TaskSet {
        TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(2, 8)
            .task(4, 16)
            .build()
            .unwrap()
    }

    #[test]
    fn session_start_and_noop() {
        let mut s = PartitionSession::start(Box::new(RmTsLight::new()), base(), 2).unwrap();
        let before = s.partition().clone();
        let out = s.apply(&TaskSetDelta::empty()).unwrap();
        assert_eq!(out.path, RepartitionPath::Noop);
        assert_eq!(out.partition, &before);
        assert_eq!(s.m(), 2);
        assert_eq!(s.engine_name(), "RM-TS/light");
    }

    #[test]
    fn incremental_apply_matches_scratch() {
        let mut s = PartitionSession::start(Box::new(RmTsLight::new()), base(), 2).unwrap();
        let delta = TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap());
        let (path, stats) = rmts_obs::record(|| s.apply(&delta).unwrap().path);
        assert_eq!(path, RepartitionPath::Incremental);
        // A WCET-only update on RM-TS/light takes the splice: the three
        // unchanged items replay dry, the updated one runs live.
        assert_eq!(stats.counter("core.session.spliced_applies"), 1);
        assert_eq!(stats.counter("core.session.reused_steps"), 3);
        assert_eq!(stats.counter("core.session.live_steps"), 1);
        let new_ts = s.taskset().clone();
        let scratch = RmTsLight::new().partition(&new_ts, 2).unwrap();
        assert_eq!(s.partition(), &scratch);
    }

    #[test]
    fn rmts_incremental_apply_matches_scratch() {
        // Heavy + light mix exercises the reserved phases.
        let ts = TaskSetBuilder::new()
            .task(3, 5)
            .task(1, 10)
            .task(1, 8)
            .build()
            .unwrap();
        let mut s = PartitionSession::start(Box::new(RmTs::new()), ts, 2).unwrap();
        let delta = TaskSetDelta::add(Task::from_ticks(7, 1, 16).unwrap());
        let out = s.apply(&delta).unwrap();
        assert_eq!(out.path, RepartitionPath::Incremental);
        let scratch = RmTs::new().partition(s.taskset(), 2).unwrap();
        assert_eq!(s.partition(), &scratch);
        // A WCET-only update: τ0 stays pre-assigned, and the splice cannot
        // prove reserved placements unchanged, so RM-TS takes guided replay.
        let delta = TaskSetDelta::update(Task::from_ticks(1, 2, 10).unwrap());
        let (path, stats) = rmts_obs::record(|| s.apply(&delta).unwrap().path);
        assert_eq!(path, RepartitionPath::Incremental);
        assert_eq!(stats.counter("core.session.spliced_applies"), 0);
        let scratch = RmTs::new().partition(s.taskset(), 2).unwrap();
        assert_eq!(s.partition(), &scratch);
    }

    #[test]
    fn rejected_apply_keeps_prior_state() {
        let mut s = PartitionSession::start(Box::new(RmTsLight::new()), base(), 2).unwrap();
        let before_ts = s.taskset().clone();
        let before_part = s.partition().clone();
        // Overload: two full-utilization adds cannot fit on 2 procs.
        let delta = TaskSetDelta::new(vec![
            rmts_taskmodel::DeltaOp::Add(Task::from_ticks(10, 8, 8).unwrap()),
            rmts_taskmodel::DeltaOp::Add(Task::from_ticks(11, 8, 8).unwrap()),
        ]);
        let err = s.apply(&delta).unwrap_err();
        assert!(matches!(err, RepartitionError::Rejected { .. }));
        assert_eq!(s.taskset(), &before_ts);
        assert_eq!(s.partition(), &before_part);
        // The session still works after a rejection.
        let ok = s.apply(&TaskSetDelta::remove(TaskId(0))).unwrap();
        assert_eq!(ok.path, RepartitionPath::Incremental);
    }

    #[test]
    fn invalid_delta_is_typed_and_non_destructive() {
        let mut s = PartitionSession::start(Box::new(RmTsLight::new()), base(), 2).unwrap();
        let err = s.apply(&TaskSetDelta::remove(TaskId(99))).unwrap_err();
        assert!(matches!(err, RepartitionError::Delta(_)));
        assert_eq!(s.taskset(), &base());
    }

    #[test]
    fn default_impl_goes_full_path() {
        let mut s =
            PartitionSession::start(Box::new(crate::baselines::PartitionedRm::new()), base(), 2)
                .unwrap();
        let delta = TaskSetDelta::remove(TaskId(3));
        let out = s.apply(&delta).unwrap();
        assert_eq!(out.path, RepartitionPath::Full);
        let scratch = crate::baselines::PartitionedRm::new()
            .partition(s.taskset(), 2)
            .unwrap();
        assert_eq!(s.partition(), &scratch);
    }

    #[test]
    fn budgeted_engine_falls_back_to_full() {
        use crate::config::Configure;
        let engine = RmTsLight::new()
            .with_budget(rmts_taskmodel::AnalysisBudget::unlimited().with_max_probes(1_000_000))
            .with_degrade(true);
        let mut s = PartitionSession::start(Box::new(engine), base(), 2).unwrap();
        let out = s.apply(&TaskSetDelta::remove(TaskId(3))).unwrap();
        assert_eq!(out.path, RepartitionPath::Full);
        // The splice never takes structural deltas, so only a WCET-only
        // update shows that the budget gate also keeps it out.
        let delta = TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap());
        let (path, stats) = rmts_obs::record(|| s.apply(&delta).unwrap().path);
        assert_eq!(path, RepartitionPath::Full);
        assert_eq!(stats.counter("core.session.spliced_applies"), 0);
    }

    #[test]
    fn delta_stream_stays_bit_identical() {
        // A longer stream mixing all op kinds against RM-TS; every commit
        // must equal the from-scratch partition of the evolved set.
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(2, 8)
            .task(4, 16)
            .task(3, 12)
            .task(1, 6)
            .build()
            .unwrap();
        let mut s = PartitionSession::start(Box::new(RmTs::new()), ts, 3).unwrap();
        let deltas = [
            TaskSetDelta::update(Task::from_ticks(3, 5, 16).unwrap()),
            TaskSetDelta::remove(TaskId(1)),
            TaskSetDelta::add(Task::from_ticks(9, 2, 10).unwrap()),
            TaskSetDelta::new(vec![
                rmts_taskmodel::DeltaOp::Remove(TaskId(9)),
                rmts_taskmodel::DeltaOp::Add(Task::from_ticks(9, 3, 10).unwrap()),
            ]),
            TaskSetDelta::update(Task::from_ticks(0, 2, 4).unwrap()),
        ];
        for (i, delta) in deltas.iter().enumerate() {
            match s.apply(delta) {
                Ok(ok) => {
                    assert_ne!(ok.path, RepartitionPath::Full, "delta {i} took full path");
                    let scratch = RmTs::new().partition(s.taskset(), 3).unwrap();
                    assert_eq!(s.partition(), &scratch, "divergence at delta {i}");
                }
                Err(RepartitionError::Rejected { reject, .. }) => {
                    // The scratch run must reject identically.
                    let scratch = RmTs::new().partition(&delta.apply_to(s.taskset()).unwrap(), 3);
                    assert_eq!(
                        scratch.unwrap_err(),
                        reject,
                        "reject divergence at delta {i}"
                    );
                }
                Err(e) => panic!("unexpected delta error at {i}: {e}"),
            }
        }
    }
}
