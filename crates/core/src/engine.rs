//! The shared splitting engine (paper Algorithms 1–2, reused by phases 2–3
//! of Algorithm 3).
//!
//! RM-TS/light and RM-TS are two pipelines over this module. Each supplies
//! its [`Splitting`] settings and one partition run; the blanket
//! [`Partitioner`] and [`Repartitioner`] impls here derive every entry
//! point from those — the plain, traced and guided runs, the budget and
//! replay gates, and the `core.session.*` step counters exist once for
//! both. Only RM-TS/light adds the WCET splice (`try_splice`).
//!
//! A *phase* ([`run_phase`]) repeatedly takes the next work item (a task,
//! or the remainder of a task already partially split), selects an
//! eligible processor, and calls `Assign`: admit the whole remaining budget
//! if it fits, otherwise place the `MaxSplit` first part and mark the
//! processor full. The work queue survives across phases, so a task may be
//! split across RM-TS's normal and pre-assigned processors exactly as the
//! paper's pseudo-code allows. One `Assign` step serves the phase loop and
//! the splice, and a sibling applies a recorded step under guided replay;
//! one rejection builder ends every run whose last phase failed or left
//! work behind.

use crate::admission::AdmissionPolicy;
use crate::config::Splitting;
use crate::ladder::{AnalysisControl, Exactness};
use crate::partition::{Partition, PartitionPhase, PartitionReject, PartitionResult, Partitioner};
use crate::processor::ProcessorState;
use crate::session::{
    replayable, Guide, ItemTrace, PriorRun, RepartitionPath, Repartitioner, SessionTrace, StepEvent,
};
use crate::workspace::PartitionWorkspace;
use rmts_rta::budget::NewcomerSpec;
use rmts_taskmodel::{
    AnalysisError, ModelError, SplitPlan, Subtask, SubtaskKind, TaskId, TaskSet, Time,
};
use std::collections::VecDeque;
use std::fmt;

/// Processor selection rule for a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// Paper phases: "pick the processor with minimal `U(P_q)`" —
    /// utilization-balancing worst-fit. Ties break towards smaller index.
    WorstFit,
    /// RM-TS phase 3: "pick the non-full pre-assigned processor with the
    /// largest index" — a first-fit that drains one processor at a time.
    LargestIndexFirstFit,
    /// Ablation only: classic first-fit (smallest index). Not used by the
    /// paper's algorithms — the utilization-bound proofs need worst-fit —
    /// but exposed so ABL-2 can measure what the choice costs empirically.
    SmallestIndexFirstFit,
}

/// A phase-level failure: either some task's remaining budget can no longer
/// be given a positive synthetic deadline, or the analysis budget ran out
/// with degradation disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// The task whose placement failed.
    pub task: TaskId,
    /// What went wrong.
    pub cause: EngineFault,
}

/// The underlying cause of an [`EngineError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineFault {
    /// Synthetic deadline underflow (Eq. (1) left no positive deadline for
    /// the next piece).
    Model(ModelError),
    /// The [`AnalysisBudget`](rmts_taskmodel::AnalysisBudget) was exhausted
    /// and the control forbids degradation.
    Budget(AnalysisError),
}

impl fmt::Display for EngineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineFault::Model(e) => write!(f, "synthetic deadline underflow: {e}"),
            EngineFault::Budget(e) => write!(f, "analysis budget exhausted: {e}"),
        }
    }
}

impl EngineError {
    /// The typed analysis error, when the failure was budget exhaustion.
    pub fn analysis(&self) -> Option<AnalysisError> {
        match self.cause {
            EngineFault::Budget(e) => Some(e),
            EngineFault::Model(_) => None,
        }
    }

    fn model(task: TaskId, cause: ModelError) -> Self {
        EngineError {
            task,
            cause: EngineFault::Model(cause),
        }
    }

    fn budget(task: TaskId, cause: AnalysisError) -> Self {
        EngineError {
            task,
            cause: EngineFault::Budget(cause),
        }
    }
}

/// One splitting pipeline: its settings and its partition run. The blanket
/// impls below derive every [`Partitioner`] and [`Repartitioner`] entry
/// point from it.
pub(crate) trait SplittingEngine: Send + Sync {
    /// The algorithm name ([`Partitioner::name`]).
    fn engine_name(&self) -> String;

    /// The run's admission policy, budget and degradation settings.
    fn splitting(&self) -> &Splitting;

    /// One partition run. `guide` adds trace recording and guided replay
    /// (see [`crate::session`]) without changing any placement decision.
    fn run(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        guide: Option<&mut Guide<'_>>,
    ) -> PartitionResult;

    /// The WCET splice ([`try_splice`]) of a replayable apply, or `None` to
    /// take guided replay. Engines with reserved phases keep this default:
    /// the splice cannot prove reserved placements unchanged.
    fn splice(
        &self,
        _prior: &PriorRun<'_>,
        _ts: &TaskSet,
        _m: usize,
        _ws: &mut PartitionWorkspace,
        _trace: &mut SessionTrace,
    ) -> Option<Partition> {
        None
    }
}

impl<E: SplittingEngine> Partitioner for E {
    fn name(&self) -> String {
        self.engine_name()
    }

    fn partition(&self, ts: &TaskSet, m: usize) -> PartitionResult {
        // Single code path: a fresh workspace makes this identical to the
        // historical scratch run (same allocations, same results).
        self.partition_with(ts, m, &mut PartitionWorkspace::new())
    }

    fn partition_with(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
    ) -> PartitionResult {
        self.run(ts, m, ws, None)
    }
}

impl<E: SplittingEngine> Repartitioner for E {
    fn partition_traced(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        trace: &mut SessionTrace,
    ) -> PartitionResult {
        if !self.splitting().budget.is_unlimited() {
            // A metered run's verdicts depend on meter state, which does
            // not align across runs: leave the trace unsupported so every
            // apply re-partitions in full.
            trace.reset();
            return self.run(ts, m, ws, None);
        }
        self.run(ts, m, ws, Some(&mut Guide::record(trace)))
    }

    fn repartition(
        &self,
        prior: PriorRun<'_>,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        trace: &mut SessionTrace,
    ) -> (PartitionResult, RepartitionPath) {
        if !self.splitting().budget.is_unlimited() || !replayable(prior.trace, m) {
            return (
                self.partition_traced(ts, m, ws, trace),
                RepartitionPath::Full,
            );
        }
        if let Some(partition) = self.splice(&prior, ts, m, ws, trace) {
            return (Ok(partition), RepartitionPath::Incremental);
        }
        let mut guide = Guide::guided(trace, prior.trace, m);
        let result = self.run(ts, m, ws, Some(&mut guide));
        let (reused, live) = guide.step_counts();
        rmts_obs::count("core.session.reused_steps", reused);
        rmts_obs::count("core.session.live_steps", live);
        (result, RepartitionPath::Incremental)
    }
}

/// Ends a splitting run after its last queue phase: the partition when
/// `outcome` is `Ok` and `queue` is empty, otherwise the rejection of
/// `phase`. The rejection names the failed task (or, when every eligible
/// processor filled up, the queue's front) and lists the leftover queue as
/// unassigned.
pub(crate) fn finish(
    phase: PartitionPhase,
    outcome: Result<(), EngineError>,
    queue: &VecDeque<SplitPlan>,
    processors: Vec<ProcessorState>,
    sealed: Vec<SplitPlan>,
    exactness: Exactness,
) -> PartitionResult {
    let partial = Partition::new(processors, sealed).with_exactness(exactness);
    if outcome.is_ok() && queue.is_empty() {
        return Ok(partial);
    }
    let mut unassigned: Vec<TaskId> = queue.iter().map(|p| p.task().id).collect();
    let (task, reason, analysis) = match outcome {
        Ok(()) => (
            unassigned.first().copied(),
            "all processors full with tasks remaining".to_string(),
            None,
        ),
        Err(e) => {
            unassigned.push(e.task);
            let reason = format!("placement of {} failed: {}", e.task, e.cause);
            (Some(e.task), reason, e.analysis())
        }
    };
    Err(PartitionReject::new(phase, task, unassigned, partial, reason).with_analysis(analysis))
}

/// Fills the phase work queue `out` (cleared first, capacity reused) with
/// the tasks `include` admits in **increasing priority order** (paper
/// Algorithm 1, line 1 — lowest priority at the front).
pub fn queue_increasing_priority_into(
    ts: &TaskSet,
    include: impl Fn(TaskId) -> bool,
    out: &mut VecDeque<SplitPlan>,
) {
    out.clear();
    // Pushing each prioritized task to the *front* yields the same order as
    // collect + reverse: the lowest-priority task ends up first.
    for (p, t) in ts.iter_prioritized() {
        if include(t.id) {
            out.push_front(SplitPlan::new(*t, p));
        }
    }
}

/// Sentinel selection key for a full or phase-ineligible processor. No
/// candidate key can collide with it: candidate keys are `to_bits` of
/// finite non-negative utilizations, all below the NaN bit patterns.
const CLOSED: u64 = u64::MAX;

/// Selection key for a candidate processor: the IEEE-754 bit pattern of
/// its utilization. For non-negative floats `to_bits` is strictly
/// monotone in `total_cmp` order, so an integer minimum scan is a
/// worst-fit by utilization (ties resolve to the smaller index, because
/// the scan keeps the first strict minimum). Adding `0.0` first normalizes
/// the `-0.0` an empty workload sums to — `-0.0` has the sign bit set and
/// would otherwise order *above* every positive utilization.
#[inline]
fn selection_key(utilization: f64) -> u64 {
    (utilization + 0.0).to_bits()
}

/// A phase's selection keys: one per processor, the utilization key of an
/// open processor `eligible` admits and [`CLOSED`] for the rest.
/// `eligible` is evaluated **once per phase** per processor, which is
/// equivalent to re-checking it per placement because every in-tree
/// eligibility rule depends only on phase-stable state (role, index);
/// fullness is tracked in the keys as it changes.
fn fill_keys(
    keys: &mut Vec<u64>,
    processors: &[ProcessorState],
    eligible: &dyn Fn(&ProcessorState) -> bool,
) {
    keys.clear();
    keys.extend(processors.iter().map(|p| {
        if !p.full && eligible(p) {
            selection_key(p.utilization())
        } else {
            CLOSED
        }
    }));
}

/// Selection over the compact key cache ([`CLOSED`] marks
/// full-or-ineligible processors). Branch-light integer comparisons —
/// this scan runs once per placement, so it is the partition loop's
/// hottest read path at large `m`.
fn pick_cached(utils: &[u64], select: Select) -> Option<usize> {
    match select {
        Select::WorstFit => {
            let mut best: Option<usize> = None;
            let mut best_key = CLOSED;
            for (i, &k) in utils.iter().enumerate() {
                if k < best_key {
                    best_key = k;
                    best = Some(i);
                }
            }
            best
        }
        Select::LargestIndexFirstFit => utils.iter().rposition(|&k| k != CLOSED),
        Select::SmallestIndexFirstFit => utils.iter().position(|&k| k != CLOSED),
    }
}

/// The next piece of a work item, as the admission tests see it.
struct Piece {
    /// Parent, period, synthetic deadline (Eq. (1)) and priority.
    spec: NewcomerSpec,
    /// The item's whole remaining budget.
    cap: Time,
    /// The piece's 1-based sequence number within its task.
    seq: u32,
}

impl Piece {
    fn of(plan: &SplitPlan) -> Result<Piece, EngineError> {
        let task = plan.task();
        let deadline = plan
            .next_deadline()
            .map_err(|e| EngineError::model(task.id, e))?;
        Ok(Piece {
            spec: NewcomerSpec {
                parent: task.id,
                period: task.period,
                deadline,
                priority: plan.priority(),
            },
            cap: plan.remaining(),
            seq: (plan.body_count() + 1) as u32,
        })
    }

    /// The piece carrying the whole remaining budget: the item's tail, or
    /// the whole task if it was never split.
    fn sealing(&self, plan: &SplitPlan) -> Subtask {
        let kind = if plan.is_split() {
            SubtaskKind::Tail
        } else {
            SubtaskKind::Whole
        };
        self.spec.with_budget(self.cap, self.seq, kind)
    }

    /// A `MaxSplit` body piece of `x` ticks.
    fn body(&self, x: Time) -> Subtask {
        self.spec
            .with_budget(x, self.seq, SubtaskKind::Body(self.seq))
    }
}

/// Paper `Assign`, one live step of `plan` on `proc`: seals the item there
/// if its whole remaining budget fits, otherwise places the `MaxSplit`
/// body (when a positive one fits) and closes the processor. Keeps `key`,
/// the processor's selection key, in step and returns the step's event.
fn assign(
    proc: &mut ProcessorState,
    key: &mut u64,
    plan: &mut SplitPlan,
    piece: &Piece,
    policy: &AdmissionPolicy,
    ctl: &AnalysisControl,
) -> Result<StepEvent, EngineError> {
    let (q, task) = (proc.index, piece.spec.parent);
    let fits = policy
        .fits_whole(proc, &piece.spec, piece.cap, ctl)
        .map_err(|e| EngineError::budget(task, e))?;
    if fits {
        proc.push(piece.sealing(plan));
        let response = policy.record_response(proc, proc.len() - 1, ctl);
        *key = selection_key(proc.utilization());
        plan.seal_tail(q, response)
            .map_err(|e| EngineError::model(task, e))?;
        rmts_obs::count("core.engine.whole_assignments", 1);
        return Ok(StepEvent::Sealed { proc: q, response });
    }
    // MaxSplit: place the largest feasible first part, then close the
    // processor (Definition 3 guarantees a bottleneck exists).
    let x = {
        let _span = rmts_obs::span("core.phase.maxsplit_ns");
        policy.max_budget(proc, &piece.spec, piece.cap, ctl)
    }
    .map_err(|e| EngineError::budget(task, e))?;
    // With a single operative test, `fits_whole == false` implies
    // `x < cap`. Mixed-rung verdicts under a degrading budget can nominate
    // `x == cap` (fits decided on one rung, the budget on a cheaper one);
    // MaxSplit semantics require a strict split, so clamp — a no-op on the
    // exact path.
    let x = x.min(piece.cap - Time::new(1));
    let mut body = None;
    if !x.is_zero() {
        proc.push(piece.body(x));
        let response = policy.record_response(proc, proc.len() - 1, ctl);
        plan.push_body(x, q, response)
            .map_err(|e| EngineError::model(task, e))?;
        rmts_obs::count("core.engine.splits", 1);
        body = Some((x, response));
    }
    close(proc, key);
    Ok(StepEvent::Closed { proc: q, body })
}

/// [`assign`]'s guided-replay sibling: applies `ev`, the recorded outcome
/// of this exact step on a clean processor. Subtasks are rebuilt from the
/// *new* piece (priorities may have been relabeled); only the admission
/// verdict, budget and response time are reused — values RTA would
/// reproduce, since it depends only on the workload's relative order and
/// `(C, T, Δ)`.
fn replay(
    proc: &mut ProcessorState,
    key: &mut u64,
    plan: &mut SplitPlan,
    piece: &Piece,
    ev: StepEvent,
) -> Result<(), EngineError> {
    let (q, task) = (proc.index, piece.spec.parent);
    match ev {
        StepEvent::Sealed { response, .. } => {
            proc.push_uncached(piece.sealing(plan));
            *key = selection_key(proc.utilization());
            plan.seal_tail(q, response)
                .map_err(|e| EngineError::model(task, e))?;
            rmts_obs::count("core.engine.whole_assignments", 1);
        }
        StepEvent::Closed { body, .. } => {
            if let Some((x, response)) = body {
                proc.push_uncached(piece.body(x));
                plan.push_body(x, q, response)
                    .map_err(|e| EngineError::model(task, e))?;
                rmts_obs::count("core.engine.splits", 1);
            }
            close(proc, key);
        }
    }
    rmts_obs::count("core.engine.replayed_steps", 1);
    Ok(())
}

/// Marks `proc` full and takes it out of selection.
fn close(proc: &mut ProcessorState, key: &mut u64) {
    proc.full = true;
    *key = CLOSED;
    rmts_obs::count("core.engine.processors_closed", 1);
}

/// Runs one assignment phase. Work items are consumed from the front of
/// `queue`; fully placed plans are appended to `sealed`. The phase ends
/// when the queue is empty or no eligible processor remains non-full
/// (leftover items stay in the queue for a later phase).
///
/// `ctl` carries the per-run analysis budget and degradation switch; with
/// [`AnalysisControl::unlimited`] the phase is bit-identical to the
/// historical unbudgeted engine.
///
/// `utils` is the phase's selection scratch (any `Vec`; the workspace
/// lends its recycled one). Candidate selection reads one contiguous
/// integer key per processor (see `fill_keys`) instead of re-scanning the
/// processor structs on every placement.
///
/// `guide` (see [`crate::session`]) records every placement decision and,
/// in guided mode, substitutes recorded outcomes for RTA probes when the
/// step is provably identical to a prior run's. Pass `None` for a plain
/// run — the placement sequence is bit-identical either way, because a
/// reused event is by construction the value the live probe would return.
#[allow(clippy::too_many_arguments)] // free function mirroring the paper's Assign loop; the extra args are the workspace scratch and the replay guide
pub fn run_phase(
    processors: &mut [ProcessorState],
    eligible: &dyn Fn(&ProcessorState) -> bool,
    select: Select,
    queue: &mut VecDeque<SplitPlan>,
    policy: &AdmissionPolicy,
    sealed: &mut Vec<SplitPlan>,
    ctl: &AnalysisControl,
    utils: &mut Vec<u64>,
    mut guide: Option<&mut Guide<'_>>,
) -> Result<(), EngineError> {
    fill_keys(utils, processors, eligible);
    while let Some(plan) = queue.front_mut() {
        let picked = {
            let _span = rmts_obs::span("core.phase.candidate_scan_ns");
            pick_cached(utils, select)
        };
        let Some(q) = picked else {
            return Ok(()); // all eligible processors full; leftovers remain
        };
        if let Some(g) = guide.as_deref_mut() {
            g.align_front(plan);
        }
        let piece = Piece::of(plan)?;
        let (proc, key) = (&mut processors[q], &mut utils[q]);
        let ev = match guide.as_deref_mut().and_then(|g| g.try_reuse(q)) {
            Some(ev) => {
                replay(proc, key, plan, &piece, ev)?;
                ev
            }
            None => {
                let ev = assign(proc, key, plan, &piece, policy, ctl)?;
                if let Some(g) = guide.as_deref_mut() {
                    g.on_live(ev);
                }
                ev
            }
        };
        if let StepEvent::Sealed { .. } = ev {
            sealed.push(queue.pop_front().expect("front exists"));
        }
    }
    Ok(())
}

/// Scratch state of one splice attempt (see [`try_splice`]).
struct SpliceState {
    /// The result's processors; materialized lazily from the prior run.
    procs: Vec<ProcessorState>,
    /// Worst-fit selection keys, exactly as [`run_phase`] maintains them.
    utils: Vec<u64>,
    /// Per-processor utilization sum of the *dry* state: accumulated with
    /// the same `+=` fold (and the same empty-sum seed) as
    /// `ProcessorState::push`, so selection keys are bit-identical to the
    /// keys a materialized run would compute.
    dry_util: Vec<f64>,
    /// Subtasks placed on each processor so far (dry or live): for a clean
    /// processor this is the length of the prefix of the prior run's final
    /// workload that equals its current state.
    pushes: Vec<u32>,
    /// Whether each processor has been closed in the new run.
    fullv: Vec<bool>,
    /// `dirty[p]` ⇒ `p`'s state may differ from the prior run's at the
    /// aligned point (a recorded event on it was voided, or a live
    /// placement touched it): recorded events on `p` must not be reused.
    dirty: Vec<bool>,
    /// The dirty processors, as a list (the set stays tiny for small
    /// deltas — pick verification scans it instead of all `m` keys).
    dirty_list: Vec<usize>,
    /// `live[p]` ⇒ `procs[p]` has been materialized and holds real state.
    live: Vec<bool>,
    /// Observability tallies.
    reused: u64,
    live_steps: u64,
}

impl SpliceState {
    fn new(procs: Vec<ProcessorState>) -> Self {
        let m = procs.len();
        let dry_util: Vec<f64> = procs.iter().map(ProcessorState::utilization).collect();
        let utils = dry_util.iter().map(|&u| selection_key(u)).collect();
        SpliceState {
            procs,
            utils,
            dry_util,
            pushes: vec![0; m],
            fullv: vec![false; m],
            dirty: vec![false; m],
            dirty_list: Vec::new(),
            live: vec![false; m],
            reused: 0,
            live_steps: 0,
        }
    }

    fn mark_dirty(&mut self, p: usize) {
        if !self.dirty[p] {
            self.dirty[p] = true;
            self.dirty_list.push(p);
        }
    }

    /// Whether the recorded pick `p` (clean) is still the worst-fit choice.
    ///
    /// At a clean processor's aligned point, its selection key equals the
    /// prior run's, so the recorded pick `p` was the first strict minimum
    /// over the *prior* keys: every clean `r < p` keys strictly above `p`,
    /// every clean `r > p` at or above. Only dirty processors deviate from
    /// that trajectory, so `p` stays the pick iff no dirty `q` now beats it
    /// under the same first-strict-minimum rule.
    fn pick_holds(&self, p: usize) -> bool {
        let kp = self.utils[p];
        self.dirty_list.iter().all(|&q| {
            if q < p {
                self.utils[q] > kp
            } else {
                self.utils[q] >= kp
            }
        })
    }

    /// Materializes `procs[q]` as a copy of the prior run's state at this
    /// point: workloads are append-only, so that state is exactly the
    /// first `pushes[q]` entries of the prior *final* workload (valid
    /// because `q` is clean — every recorded event on it was replayed).
    fn materialize(&mut self, prior: &Partition, q: usize) -> Option<()> {
        let src = &prior.processors[q];
        let k = self.pushes[q] as usize;
        if k > src.len() {
            return None; // trace/partition inconsistency
        }
        self.procs[q].copy_prefix_from(src, k, self.fullv[q]);
        self.live[q] = true;
        Some(())
    }
}

/// Splice fast path for WCET-only deltas (see [`crate::session`]).
///
/// Guided replay re-runs the whole placement loop even when nearly every
/// step is reused; at deep `n` the loop scaffolding alone (per-item trace
/// buffers, per-step candidate scans, plan construction) costs a large
/// fraction of a full run. When the delta changed only WCETs — the queue
/// has the same `(period, id)` key sequence as the prior trace, hence
/// identical priorities — the placement history can instead be *spliced*:
///
/// * **Dry replay.** While the pick provably matches the prior run's, a
///   recorded event is applied as `O(1)` float updates to shadow state
///   (`dry_util`, `pushes`, `fullv`) without constructing subtasks. Before
///   the first divergence the input prefix is identical and the algorithm
///   deterministic, so no pick verification is needed at all; afterwards,
///   clean processors still track the prior key trajectory exactly, so the
///   recorded pick holds iff no *dirty* processor beats it
///   ([`SpliceState::pick_holds`] — an `O(|dirty|)` check, not `O(m)`).
/// * **Live items.** A changed or diverged item runs the real admission
///   loop against materialized processors ([`SpliceState::materialize`]);
///   its remaining recorded events are voided, dirtying their processors.
/// * **Finalization.** Never-materialized processors become truncated
///   copies of their prior final state (`pushes[p]` entries — equal to the
///   new run's pushes because every one was replayed), and the plans map
///   is the prior one with live items patched in: a fully replayed item's
///   recorded events reproduce its prior plan bit-for-bit.
///
/// Every substituted value is one the live computation is proven to
/// reproduce, so the result is **bit-identical to a from-scratch run** —
/// the same contract as guided replay, at a fraction of the constant
/// factor. Anything unusual — structural deltas, non-worst-fit selection,
/// reserved placements, rejects, engine errors, trace inconsistencies —
/// returns `None`, and the caller falls back to the guided loop (which
/// reproduces diagnostics through the shared code path).
pub(crate) fn try_splice(
    ts: &TaskSet,
    m: usize,
    ws: &mut PartitionWorkspace,
    splitting: &Splitting,
    select: Select,
    prior: &PriorRun<'_>,
    rec: &mut SessionTrace,
) -> Option<Partition> {
    let (prior_partition, prior_trace) = (prior.partition, prior.trace);
    if select != Select::WorstFit || prior_trace.has_reserved() {
        return None;
    }
    let items = prior_trace.items();
    let n = ts.len();
    if items.len() != n || prior_partition.processors.len() != m {
        return None;
    }
    // WCET-only gate: the recorded items (descending queue order) must
    // carry the same (period, id) keys as the new set — then every task
    // keeps its priority label and the queues align index-for-index.
    let tasks = ts.tasks();
    if items
        .iter()
        .zip(tasks.iter().rev())
        .any(|(it, t)| it.task != t.id || it.period != t.period)
    {
        return None;
    }
    queue_increasing_priority_into(ts, |_| true, &mut ws.queue);
    let mut st = SpliceState::new(ws.take_processors(m));
    rec.reset();
    rec.set_supported();
    let ctl = splitting.control();
    match splice_run(
        &mut st,
        &mut ws.queue,
        items,
        prior_partition,
        &splitting.policy,
        &ctl,
        rec,
    ) {
        Some(patches) => {
            // Processors never touched live: the new run replayed every
            // recorded push to them, so their state is the (possibly
            // truncated — voided events!) prefix of the prior final state.
            for p in 0..m {
                if st.live[p] {
                    continue;
                }
                let src = &prior_partition.processors[p];
                let k = st.pushes[p] as usize;
                if k > src.len() {
                    ws.recycle_processors(st.procs);
                    return None;
                }
                st.procs[p].copy_prefix_from(src, k, st.fullv[p]);
            }
            let mut plans = prior_partition.plans.clone();
            for plan in patches {
                plans.insert(plan.task().id.0, plan);
            }
            rmts_obs::count("core.session.reused_steps", st.reused);
            rmts_obs::count("core.session.live_steps", st.live_steps);
            rmts_obs::count("core.session.spliced_applies", 1);
            Some(Partition {
                processors: st.procs,
                plans,
                exactness: ctl.exactness(),
            })
        }
        None => {
            ws.recycle_processors(st.procs);
            None
        }
    }
}

/// The splice item loop: dry-replays unchanged items, runs changed or
/// diverged ones live. Returns the live items' sealed plans (the patches
/// against the prior plans map), or `None` to bail to guided replay.
fn splice_run(
    st: &mut SpliceState,
    queue: &mut VecDeque<SplitPlan>,
    items: &[ItemTrace],
    prior: &Partition,
    policy: &AdmissionPolicy,
    ctl: &AnalysisControl,
    rec: &mut SessionTrace,
) -> Option<Vec<SplitPlan>> {
    let mut patches = Vec::new();
    let mut pristine = true;
    for (i, it) in items.iter().enumerate() {
        let plan = queue.get_mut(i).expect("queue aligned with items");
        let wcet = plan.task().wcet;
        // Dry replay: apply recorded events as shadow-state updates while
        // the pick provably matches. `live_from` is the first event index
        // that must run live instead (0 for a changed item).
        let mut live_from = None;
        if wcet == it.wcet {
            let mut placed = Time::ZERO;
            for (k, ev) in it.events.iter().enumerate() {
                let p = ev.proc();
                if st.fullv[p] || st.dirty[p] || !(pristine || st.pick_holds(p)) {
                    live_from = Some(k);
                    break;
                }
                st.reused += 1;
                match *ev {
                    StepEvent::Sealed { .. } => {
                        if placed >= wcet {
                            return None; // corrupt trace
                        }
                        let cap = wcet - placed;
                        st.dry_util[p] += cap.ratio(it.period);
                        st.utils[p] = selection_key(st.dry_util[p]);
                        st.pushes[p] += 1;
                    }
                    StepEvent::Closed { body, .. } => {
                        if let Some((x, _)) = body {
                            if x.is_zero() || placed + x >= wcet {
                                return None; // corrupt trace
                            }
                            st.dry_util[p] += x.ratio(it.period);
                            st.pushes[p] += 1;
                            placed += x;
                        }
                        st.fullv[p] = true;
                        st.utils[p] = CLOSED;
                    }
                }
            }
            if live_from.is_none() {
                // Fully replayed. A well-formed item ends sealed; anything
                // else is a trace from a rejected run — not spliceable.
                if !matches!(it.events.last(), Some(StepEvent::Sealed { .. })) {
                    return None;
                }
                rec.copy_item(it);
                continue;
            }
        } else {
            live_from = Some(0);
        }
        // Live item: void its unreplayed recorded events (their processors
        // leave the prior trajectory), rebuild the dry prefix into the
        // plan, then run the remainder for real.
        pristine = false;
        let k = live_from.expect("checked above");
        for ev in &it.events[k..] {
            st.mark_dirty(ev.proc());
        }
        rec.begin_item(it.task, wcet, it.period);
        for ev in &it.events[..k] {
            rec.push_event(*ev);
            if let StepEvent::Closed {
                proc,
                body: Some((x, response)),
            } = *ev
            {
                plan.push_body(x, proc, response).ok()?;
            }
        }
        splice_item_live(st, prior, plan, policy, ctl, rec)?;
        patches.push(plan.clone());
    }
    Some(patches)
}

/// Runs one item's remaining placements live against materialized
/// processors, through the same [`assign`] step as [`run_phase`]. Returns
/// `None` (bail to guided) on a reject or engine error; the guided
/// fallback reproduces the diagnostics identically.
fn splice_item_live(
    st: &mut SpliceState,
    prior: &Partition,
    plan: &mut SplitPlan,
    policy: &AdmissionPolicy,
    ctl: &AnalysisControl,
    rec: &mut SessionTrace,
) -> Option<()> {
    loop {
        let q = pick_cached(&st.utils, Select::WorstFit)?;
        if !st.live[q] {
            st.materialize(prior, q)?;
        }
        st.mark_dirty(q);
        st.live_steps += 1;
        let piece = Piece::of(plan).ok()?;
        let ev = assign(
            &mut st.procs[q],
            &mut st.utils[q],
            plan,
            &piece,
            policy,
            ctl,
        )
        .ok()?;
        rec.push_event(ev);
        match ev {
            StepEvent::Sealed { .. } => return Some(()),
            StepEvent::Closed { .. } => st.fullv[q] = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::ProcessorRole;
    use rmts_taskmodel::AnalysisBudget;
    use rmts_taskmodel::{TaskSetBuilder, Time};

    fn procs(n: usize) -> Vec<ProcessorState> {
        (0..n).map(ProcessorState::new).collect()
    }

    fn queue(ts: &TaskSet, include: impl Fn(TaskId) -> bool) -> VecDeque<SplitPlan> {
        let mut q = VecDeque::new();
        queue_increasing_priority_into(ts, include, &mut q);
        q
    }

    /// The live selector over a phase's key fill.
    fn pick(
        ps: &[ProcessorState],
        eligible: &dyn Fn(&ProcessorState) -> bool,
        select: Select,
    ) -> Option<usize> {
        let mut keys = Vec::new();
        fill_keys(&mut keys, ps, eligible);
        pick_cached(&keys, select)
    }

    #[test]
    fn queue_orders_lowest_priority_first() {
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(1, 8)
            .task(1, 16)
            .build()
            .unwrap();
        let q = queue(&ts, |_| true);
        let periods: Vec<u64> = q.iter().map(|p| p.task().period.ticks()).collect();
        assert_eq!(periods, vec![16, 8, 4]);
    }

    #[test]
    fn queue_filter() {
        let ts = TaskSetBuilder::new().task(1, 4).task(1, 8).build().unwrap();
        let q = queue(&ts, |id| id.0 == 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].task().id.0, 1);
    }

    #[test]
    fn worst_fit_balances() {
        // P1 and P2 are empty, so their utilization sums to `-0.0`: the
        // selection key must still order them below P0's 0.5.
        let mut ps = procs(3);
        ps[0].push(rmts_taskmodel::Subtask {
            parent: TaskId(9),
            seq: 1,
            kind: SubtaskKind::Whole,
            wcet: Time::new(1),
            period: Time::new(2),
            deadline: Time::new(2),
            priority: rmts_taskmodel::Priority(0),
        });
        assert_eq!(pick(&ps, &|_| true, Select::WorstFit), Some(1));
        ps[1].full = true;
        assert_eq!(pick(&ps, &|_| true, Select::WorstFit), Some(2));
    }

    #[test]
    fn smallest_index_first_fit() {
        let mut ps = procs(3);
        ps[0].push(rmts_taskmodel::Subtask {
            parent: TaskId(9),
            seq: 1,
            kind: SubtaskKind::Whole,
            wcet: Time::new(1),
            period: Time::new(2),
            deadline: Time::new(2),
            priority: rmts_taskmodel::Priority(0),
        });
        // Unlike worst-fit, first-fit sticks with P0 while it is non-full.
        assert_eq!(pick(&ps, &|_| true, Select::SmallestIndexFirstFit), Some(0));
        ps[0].full = true;
        assert_eq!(pick(&ps, &|_| true, Select::SmallestIndexFirstFit), Some(1));
    }

    #[test]
    fn largest_index_first_fit() {
        let mut ps = procs(4);
        assert_eq!(pick(&ps, &|_| true, Select::LargestIndexFirstFit), Some(3));
        ps[3].full = true;
        assert_eq!(pick(&ps, &|_| true, Select::LargestIndexFirstFit), Some(2));
    }

    #[test]
    fn eligibility_filters() {
        let mut ps = procs(2);
        ps[0].role = ProcessorRole::PreAssigned;
        let only_normal = pick(&ps, &|p| p.role == ProcessorRole::Normal, Select::WorstFit);
        assert_eq!(only_normal, Some(1));
    }

    #[test]
    fn none_when_all_full() {
        let mut ps = procs(2);
        ps[0].full = true;
        ps[1].full = true;
        assert_eq!(pick(&ps, &|_| true, Select::WorstFit), None);
    }

    #[test]
    fn simple_phase_places_everything() {
        // Two processors, three light tasks: no splitting needed.
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(4, 16)
            .build()
            .unwrap();
        let mut ps = procs(2);
        let mut q = queue(&ts, |_| true);
        let mut sealed = Vec::new();
        run_phase(
            &mut ps,
            &|_| true,
            Select::WorstFit,
            &mut q,
            &AdmissionPolicy::exact(),
            &mut sealed,
            &AnalysisControl::unlimited(),
            &mut Vec::new(),
            None,
        )
        .unwrap();
        assert!(q.is_empty());
        assert_eq!(sealed.len(), 3);
        assert!(sealed.iter().all(SplitPlan::is_sealed));
        let total: usize = ps.iter().map(ProcessorState::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn overload_splits_and_fills() {
        // (3,8) + (6,8) + (6,8) on two processors: U_M = 0.9375, the last
        // (highest-priority) task must split. Expected trace: τ2 → P0,
        // τ1 → P1 whole; τ0 gets body 5 on P0 (3 + x ≤ 8) and tail 1 on P1.
        let ts = TaskSetBuilder::new()
            .task(6, 8)
            .task(6, 8)
            .task(3, 8)
            .build()
            .unwrap();
        let mut ps = procs(2);
        let mut q = queue(&ts, |_| true);
        let mut sealed = Vec::new();
        run_phase(
            &mut ps,
            &|_| true,
            Select::WorstFit,
            &mut q,
            &AdmissionPolicy::exact(),
            &mut sealed,
            &AnalysisControl::unlimited(),
            &mut Vec::new(),
            None,
        )
        .unwrap();
        assert!(q.is_empty());
        assert_eq!(sealed.len(), 3);
        let split: Vec<_> = sealed.iter().filter(|p| p.is_split()).collect();
        assert_eq!(split.len(), 1, "exactly one task must be split");
        assert_eq!(split[0].task().id.0, 0, "the highest-priority task splits");
        // Budget conservation.
        let placed: u64 = ps
            .iter()
            .flat_map(|p| p.workload())
            .map(|s| s.wcet.ticks())
            .sum();
        assert_eq!(placed, 15);
    }

    #[test]
    fn iteration_starved_phase_degrades_to_tda() {
        // A 0-iteration budget starves every RTA fixed point, but the TDA
        // rung (own meter, no iteration cap) still answers exactly: the
        // phase completes, labeled degraded, without touching rung 3.
        let ts = TaskSetBuilder::new()
            .task(6, 8)
            .task(6, 8)
            .task(3, 8)
            .build()
            .unwrap();
        let mut ps = procs(2);
        let mut q = queue(&ts, |_| true);
        let mut sealed = Vec::new();
        let ctl = AnalysisControl::new(AnalysisBudget::unlimited().with_max_iterations(0), true);
        run_phase(
            &mut ps,
            &|_| true,
            Select::WorstFit,
            &mut q,
            &AdmissionPolicy::exact(),
            &mut sealed,
            &ctl,
            &mut Vec::new(),
            None,
        )
        .unwrap();
        assert!(q.is_empty());
        assert_eq!(sealed.len(), 3);
        assert!(!ctl.exactness().is_exact());
        let (tda, threshold, _) = ctl.ladder_counts();
        assert!(tda > 0, "TDA must have produced the verdicts");
        assert_eq!(threshold, 0, "rung 3 must not be reached");
        // TDA decides the same predicate as RTA, so the split structure
        // matches the exact run: one split task, full budget placed.
        assert_eq!(sealed.iter().filter(|p| p.is_split()).count(), 1);
        let placed: u64 = ps
            .iter()
            .flat_map(|p| p.workload())
            .map(|s| s.wcet.ticks())
            .sum();
        assert_eq!(placed, 15);
    }

    #[test]
    fn probe_starved_phase_lands_on_threshold() {
        // A 0-probe budget starves rungs 1 and 2 (the TDA meter carries the
        // probe cap); only the infallible Θ(n) threshold can answer.
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(4, 16)
            .build()
            .unwrap();
        let mut ps = procs(2);
        let mut q = queue(&ts, |_| true);
        let mut sealed = Vec::new();
        let ctl = AnalysisControl::new(AnalysisBudget::unlimited().with_max_probes(0), true);
        run_phase(
            &mut ps,
            &|_| true,
            Select::WorstFit,
            &mut q,
            &AdmissionPolicy::exact(),
            &mut sealed,
            &ctl,
            &mut Vec::new(),
            None,
        )
        .unwrap();
        assert!(q.is_empty(), "the light set passes the threshold test");
        let (_, threshold, degraded_accepts) = ctl.ladder_counts();
        assert!(threshold > 0);
        assert!(degraded_accepts > 0);
        assert!(!ctl.exactness().is_exact());
    }

    #[test]
    fn budget_exhaustion_without_degrade_is_a_typed_error() {
        let ts = TaskSetBuilder::new().task(1, 4).task(2, 8).build().unwrap();
        let mut ps = procs(2);
        let mut q = queue(&ts, |_| true);
        let mut sealed = Vec::new();
        let ctl = AnalysisControl::new(AnalysisBudget::unlimited().with_max_iterations(0), false);
        let err = run_phase(
            &mut ps,
            &|_| true,
            Select::WorstFit,
            &mut q,
            &AdmissionPolicy::exact(),
            &mut sealed,
            &ctl,
            &mut Vec::new(),
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err.cause,
            EngineFault::Budget(rmts_taskmodel::AnalysisError::BudgetExhausted { .. })
        ));
        assert!(err.analysis().is_some());
        assert!(err.cause.to_string().contains("budget exhausted"));
    }

    #[test]
    fn phase_stops_when_processors_exhausted() {
        // Overload: 3 full-utilization tasks on 2 processors.
        let ts = TaskSetBuilder::new()
            .task(8, 8)
            .task(8, 8)
            .task(8, 8)
            .build()
            .unwrap();
        let mut ps = procs(2);
        let mut q = queue(&ts, |_| true);
        let mut sealed = Vec::new();
        run_phase(
            &mut ps,
            &|_| true,
            Select::WorstFit,
            &mut q,
            &AdmissionPolicy::exact(),
            &mut sealed,
            &AnalysisControl::unlimited(),
            &mut Vec::new(),
            None,
        )
        .unwrap();
        assert!(!q.is_empty(), "the third task cannot fit");
        assert!(ps.iter().all(|p| p.full));
    }
}
