//! The shared partitioning skeleton (paper Algorithms 1–2, reused by
//! phases 2–3 of Algorithm 3).
//!
//! A *phase* repeatedly takes the next work item (a task, or the remainder
//! of a task already partially split), selects an eligible processor, and
//! calls `Assign`: admit the whole remaining budget if it fits, otherwise
//! place the `MaxSplit` first part and mark the processor full. The work
//! queue survives across phases, so a task may be split across RM-TS's
//! normal and pre-assigned processors exactly as the paper's pseudo-code
//! allows.

use crate::admission::AdmissionPolicy;
use crate::ladder::AnalysisControl;
use crate::partition::Partition;
use crate::processor::ProcessorState;
use crate::session::{Guide, ItemTrace, SessionTrace, StepEvent};
use crate::workspace::PartitionWorkspace;
use rmts_rta::budget::NewcomerSpec;
use rmts_taskmodel::{AnalysisError, ModelError, SplitPlan, SubtaskKind, TaskId, TaskSet, Time};
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
}

/// Builds the phase work queue: the given tasks in **increasing priority
/// order** (paper Algorithm 1, line 1 — lowest priority first).
pub fn queue_increasing_priority(
    ts: &TaskSet,
    include: impl Fn(TaskId) -> bool,
) -> VecDeque<SplitPlan> {
    let mut queue = VecDeque::new();
    queue_increasing_priority_into(ts, include, &mut queue);
    queue
}

/// Allocation-recycling form of [`queue_increasing_priority`]: clears
/// `out` and fills it with the identical deque (front = lowest priority),
/// reusing its capacity. Used by the workspace-backed partition entry
/// points.
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

/// Picks the next processor for a phase, or `None` when every eligible
/// processor is full.
pub fn pick_processor(
    processors: &[ProcessorState],
    eligible: &dyn Fn(&ProcessorState) -> bool,
    select: Select,
) -> Option<usize> {
    let candidates = processors.iter().filter(|p| !p.full && eligible(p));
    match select {
        Select::WorstFit => candidates
            .min_by(|a, b| {
                a.utilization()
                    .total_cmp(&b.utilization())
                    .then(a.index.cmp(&b.index))
            })
            .map(|p| p.index),
        Select::LargestIndexFirstFit => candidates.map(|p| p.index).max(),
        Select::SmallestIndexFirstFit => candidates.map(|p| p.index).min(),
    }
}

/// Sentinel selection key for a full or phase-ineligible processor. No
/// candidate key can collide with it: candidate keys are `to_bits` of
/// finite non-negative utilizations, all below the NaN bit patterns.
const CLOSED: u64 = u64::MAX;

/// Selection key for a candidate processor: the IEEE-754 bit pattern of
/// its utilization. For non-negative floats `to_bits` is strictly
/// monotone in `total_cmp` order, so an integer minimum scan replicates
/// [`pick_processor`]'s worst-fit comparator exactly (ties on
/// utilization resolve to the smaller index, because the scan keeps the
/// first strict minimum). Adding `0.0` first normalizes the `-0.0` an
/// empty workload sums to — `-0.0` has the sign bit set and would
/// otherwise order *above* every positive utilization.
#[inline]
fn selection_key(utilization: f64) -> u64 {
    (utilization + 0.0).to_bits()
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
/// integer key per processor (see `selection_key`) instead of
/// re-scanning the processor structs on every placement — `eligible` is
/// therefore evaluated **once per phase** per processor, which is
/// equivalent because every in-tree eligibility rule depends only on
/// phase-stable state (role, index); fullness is tracked in the cache as
/// it changes.
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
    utils.clear();
    utils.extend(processors.iter().map(|p| {
        if !p.full && eligible(p) {
            selection_key(p.utilization())
        } else {
            CLOSED
        }
    }));
    while !queue.is_empty() {
        let picked = {
            let _span = rmts_obs::span("core.phase.candidate_scan_ns");
            pick_cached(utils, select)
        };
        let Some(q) = picked else {
            return Ok(()); // all eligible processors full; leftovers remain
        };
        // Invariant: the loop guard checked `!queue.is_empty()`, so a front
        // element exists (both here and at the `pop_front` below).
        let plan = queue.front_mut().expect("queue checked non-empty");
        if let Some(g) = guide.as_deref_mut() {
            g.align_front(plan);
        }
        let deadline = plan.next_deadline().map_err(|cause| EngineError {
            task: plan.task().id,
            cause: EngineFault::Model(cause),
        })?;
        let spec = NewcomerSpec {
            parent: plan.task().id,
            period: plan.task().period,
            deadline,
            priority: plan.priority(),
        };
        let cap = plan.remaining();
        let seq = (plan.body_count() + 1) as u32;
        if let Some(ev) = guide.as_deref_mut().and_then(|g| g.try_reuse(q)) {
            // Guided replay: the recorded outcome of this exact step on a
            // clean processor. Subtasks are rebuilt with the *new* spec
            // (priorities may have been relabeled); only the admission
            // verdict, budget, and response time are reused — values RTA
            // would reproduce, since it depends only on the workload's
            // relative order and `(C, T, Δ)`.
            let proc = &mut processors[q];
            match ev {
                StepEvent::Sealed { response, .. } => {
                    let kind = if plan.is_split() {
                        SubtaskKind::Tail
                    } else {
                        SubtaskKind::Whole
                    };
                    proc.push_uncached(spec.with_budget(cap, seq, kind));
                    utils[q] = selection_key(proc.utilization());
                    plan.seal_tail(q, response).map_err(|cause| EngineError {
                        task: spec.parent,
                        cause: EngineFault::Model(cause),
                    })?;
                    sealed.push(queue.pop_front().expect("front exists"));
                    rmts_obs::count("core.engine.whole_assignments", 1);
                }
                StepEvent::Closed { body, .. } => {
                    if let Some((x, response)) = body {
                        proc.push_uncached(spec.with_budget(x, seq, SubtaskKind::Body(seq)));
                        plan.push_body(x, q, response)
                            .map_err(|cause| EngineError {
                                task: spec.parent,
                                cause: EngineFault::Model(cause),
                            })?;
                        rmts_obs::count("core.engine.splits", 1);
                    }
                    proc.full = true;
                    utils[q] = CLOSED;
                    rmts_obs::count("core.engine.processors_closed", 1);
                }
            }
            rmts_obs::count("core.engine.replayed_steps", 1);
            continue;
        }
        let proc = &mut processors[q];
        let fits = policy
            .fits_whole(proc, &spec, cap, ctl)
            .map_err(|e| EngineError {
                task: spec.parent,
                cause: EngineFault::Budget(e),
            })?;
        if fits {
            // The entire remaining budget fits: this piece is the tail (or
            // the whole task if never split).
            let kind = if plan.is_split() {
                SubtaskKind::Tail
            } else {
                SubtaskKind::Whole
            };
            proc.push(spec.with_budget(cap, seq, kind));
            let response = policy.record_response(proc, proc.len() - 1, ctl);
            utils[q] = selection_key(proc.utilization());
            plan.seal_tail(q, response).map_err(|cause| EngineError {
                task: spec.parent,
                cause: EngineFault::Model(cause),
            })?;
            sealed.push(queue.pop_front().expect("front exists"));
            rmts_obs::count("core.engine.whole_assignments", 1);
            if let Some(g) = guide.as_deref_mut() {
                g.on_live(StepEvent::Sealed { proc: q, response });
            }
        } else {
            // MaxSplit: place the largest feasible first part, then close
            // the processor (Definition 3 guarantees a bottleneck exists).
            let x = {
                let _span = rmts_obs::span("core.phase.maxsplit_ns");
                policy.max_budget(proc, &spec, cap, ctl)
            }
            .map_err(|e| EngineError {
                task: spec.parent,
                cause: EngineFault::Budget(e),
            })?;
            // With a single operative test, `fits_whole == false` implies
            // `x < cap`. Mixed-rung verdicts under a degrading budget can
            // nominate `x == cap` (fits decided on one rung, the budget on a
            // cheaper one); MaxSplit semantics require a strict split, so
            // clamp — a no-op on the exact path.
            let x = x.min(cap - rmts_taskmodel::Time::new(1));
            let mut body = None;
            if !x.is_zero() {
                proc.push(spec.with_budget(x, seq, SubtaskKind::Body(seq)));
                let response = policy.record_response(proc, proc.len() - 1, ctl);
                plan.push_body(x, q, response)
                    .map_err(|cause| EngineError {
                        task: spec.parent,
                        cause: EngineFault::Model(cause),
                    })?;
                rmts_obs::count("core.engine.splits", 1);
                body = Some((x, response));
            }
            proc.full = true;
            utils[q] = CLOSED;
            rmts_obs::count("core.engine.processors_closed", 1);
            if let Some(g) = guide.as_deref_mut() {
                g.on_live(StepEvent::Closed { proc: q, body });
            }
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
#[allow(clippy::too_many_arguments)] // mirrors run_phase: engine knobs + prior state + trace sink
pub(crate) fn try_splice(
    ts: &TaskSet,
    m: usize,
    ws: &mut PartitionWorkspace,
    policy: &AdmissionPolicy,
    ctl: &AnalysisControl,
    select: Select,
    prior_partition: &Partition,
    prior_trace: &SessionTrace,
    rec: &mut SessionTrace,
) -> Option<Partition> {
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
    match splice_run(
        &mut st,
        &mut ws.queue,
        items,
        prior_partition,
        policy,
        ctl,
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
/// processors — the same admission sequence as [`run_phase`]'s live
/// branch. Returns `None` (bail to guided) on a reject or engine error;
/// the guided fallback reproduces the diagnostics identically.
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
        let deadline = plan.next_deadline().ok()?;
        let spec = NewcomerSpec {
            parent: plan.task().id,
            period: plan.task().period,
            deadline,
            priority: plan.priority(),
        };
        let cap = plan.remaining();
        let seq = (plan.body_count() + 1) as u32;
        let proc = &mut st.procs[q];
        let fits = policy.fits_whole(proc, &spec, cap, ctl).ok()?;
        if fits {
            let kind = if plan.is_split() {
                SubtaskKind::Tail
            } else {
                SubtaskKind::Whole
            };
            proc.push(spec.with_budget(cap, seq, kind));
            let response = policy.record_response(proc, proc.len() - 1, ctl);
            st.utils[q] = selection_key(st.procs[q].utilization());
            plan.seal_tail(q, response).ok()?;
            rec.push_event(StepEvent::Sealed { proc: q, response });
            rmts_obs::count("core.engine.whole_assignments", 1);
            return Some(());
        }
        let x = policy.max_budget(proc, &spec, cap, ctl).ok()?;
        let x = x.min(cap - Time::new(1));
        let mut body = None;
        if !x.is_zero() {
            proc.push(spec.with_budget(x, seq, SubtaskKind::Body(seq)));
            let response = policy.record_response(proc, proc.len() - 1, ctl);
            plan.push_body(x, q, response).ok()?;
            rmts_obs::count("core.engine.splits", 1);
            body = Some((x, response));
        }
        st.procs[q].full = true;
        st.utils[q] = CLOSED;
        st.fullv[q] = true;
        rmts_obs::count("core.engine.processors_closed", 1);
        rec.push_event(StepEvent::Closed { proc: q, body });
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

    #[test]
    fn queue_orders_lowest_priority_first() {
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(1, 8)
            .task(1, 16)
            .build()
            .unwrap();
        let q = queue_increasing_priority(&ts, |_| true);
        let periods: Vec<u64> = q.iter().map(|p| p.task().period.ticks()).collect();
        assert_eq!(periods, vec![16, 8, 4]);
    }

    #[test]
    fn queue_filter() {
        let ts = TaskSetBuilder::new().task(1, 4).task(1, 8).build().unwrap();
        let q = queue_increasing_priority(&ts, |id| id.0 == 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].task().id.0, 1);
    }

    #[test]
    fn worst_fit_balances() {
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
        assert_eq!(pick_processor(&ps, &|_| true, Select::WorstFit), Some(1));
        ps[1].full = true;
        assert_eq!(pick_processor(&ps, &|_| true, Select::WorstFit), Some(2));
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
        assert_eq!(
            pick_processor(&ps, &|_| true, Select::SmallestIndexFirstFit),
            Some(0)
        );
        ps[0].full = true;
        assert_eq!(
            pick_processor(&ps, &|_| true, Select::SmallestIndexFirstFit),
            Some(1)
        );
    }

    #[test]
    fn largest_index_first_fit() {
        let mut ps = procs(4);
        assert_eq!(
            pick_processor(&ps, &|_| true, Select::LargestIndexFirstFit),
            Some(3)
        );
        ps[3].full = true;
        assert_eq!(
            pick_processor(&ps, &|_| true, Select::LargestIndexFirstFit),
            Some(2)
        );
    }

    #[test]
    fn eligibility_filters() {
        let mut ps = procs(2);
        ps[0].role = ProcessorRole::PreAssigned;
        let only_normal =
            pick_processor(&ps, &|p| p.role == ProcessorRole::Normal, Select::WorstFit);
        assert_eq!(only_normal, Some(1));
    }

    #[test]
    fn none_when_all_full() {
        let mut ps = procs(2);
        ps[0].full = true;
        ps[1].full = true;
        assert_eq!(pick_processor(&ps, &|_| true, Select::WorstFit), None);
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
        let mut q = queue_increasing_priority(&ts, |_| true);
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
        let mut q = queue_increasing_priority(&ts, |_| true);
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
        let mut q = queue_increasing_priority(&ts, |_| true);
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
        let mut q = queue_increasing_priority(&ts, |_| true);
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
        let mut q = queue_increasing_priority(&ts, |_| true);
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
        let mut q = queue_increasing_priority(&ts, |_| true);
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
