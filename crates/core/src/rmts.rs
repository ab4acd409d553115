//! RM-TS (paper Section V, Algorithms 3–4).
//!
//! RM-TS extends RM-TS/light with a *pre-assignment* phase so that heavy
//! tasks whose tail subtasks would end up with low priority never get
//! split. The three phases (plus one picked up from footnote 5):
//!
//! 0. **Dedicated processors** (footnote 5): any task with `U_i > Λ(τ)`
//!    runs alone on its own processor; the bound argument then applies to
//!    the rest of the system.
//! 1. **Pre-assignment** (decreasing priority): a heavy task `τ_i`
//!    (`U_i > Θ/(1+Θ)`) is pre-assigned to the minimal-index normal
//!    processor iff `Σ_{j>i} U_j ≤ (|P(τ_i)| − 1)·Λ(τ)` (Eq. (8)), where
//!    `P(τ_i)` is the set of processors still marked normal.
//! 2. **Normal phase** (increasing priority, worst-fit): identical to
//!    RM-TS/light, restricted to normal processors.
//! 3. **Pre-assigned phase** (increasing priority, first-fit on the
//!    largest-index non-full pre-assigned processor): drains the remaining
//!    tasks onto the pre-assigned processors.
//!
//! **Guarantee (Section V-B).** For any task set `τ` and any deflatable
//! PUB `Λ'(τ)`: with `Λ(τ) = min(Λ'(τ), 2Θ/(1+Θ))`, if `U_M(τ) ≤ Λ(τ)`
//! then RM-TS succeeds and all deadlines are met.

use crate::admission::AdmissionPolicy;
use crate::config::{Configure, WithBound};
use crate::engine::{queue_increasing_priority_into, run_phase, EngineError, Select};
use crate::ladder::{AnalysisControl, Exactness};
use crate::partition::{Partition, PartitionPhase, PartitionReject, PartitionResult, Partitioner};
use crate::processor::{ProcessorRole, ProcessorState};
use crate::session::{
    replayable, Guide, PriorRun, RepartitionPath, Repartitioner, ReservedPlace, SessionTrace,
};
use crate::workspace::PartitionWorkspace;
use rmts_bounds::thresholds::{light_threshold, rmts_cap};
use rmts_bounds::{ll_bound, LiuLayland, ParametricBound};
use rmts_taskmodel::{AnalysisBudget, Priority, SplitPlan, Subtask, Task, TaskId, TaskSet};
use std::collections::HashSet;

/// Float tolerance for threshold classification.
const EPS: f64 = 1e-12;

/// The RM-TS partitioning algorithm, parameterized by the deflatable
/// parametric utilization bound `Λ'(τ)` it should achieve.
#[derive(Debug, Clone, Copy)]
pub struct RmTs<B = LiuLayland> {
    /// The D-PUB to target.
    pub bound: B,
    /// Admission policy: exact RTA reproduces the paper's RM-TS; a density
    /// threshold turns the same skeleton into the \[16\]-style SPA2
    /// baseline.
    pub policy: AdmissionPolicy,
    /// Apply the `2Θ/(1+Θ)` cap (Section V). On by default; experiments
    /// can disable it to study what breaks without it.
    pub apply_cap: bool,
    /// Analysis budget for one `partition()` call. Unlimited by default.
    pub budget: AnalysisBudget,
    /// On budget exhaustion, walk the degradation ladder (RTA → TDA →
    /// `Θ(n)` threshold) instead of rejecting with a typed error.
    pub degrade: bool,
    /// Fault-injection override for the ladder's rung-3 threshold (verify
    /// harness only; `None` = the sound `Θ(n)` default).
    pub degrade_theta: Option<f64>,
}

impl Default for RmTs<LiuLayland> {
    fn default() -> Self {
        RmTs {
            bound: LiuLayland,
            policy: AdmissionPolicy::exact(),
            apply_cap: true,
            budget: AnalysisBudget::unlimited(),
            degrade: false,
            degrade_theta: None,
        }
    }
}

impl RmTs<LiuLayland> {
    /// RM-TS targeting the plain L&L bound.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<B: ParametricBound> RmTs<B> {
    /// Toggles the `2Θ/(1+Θ)` cap on the targeted bound (Section V). On by
    /// default; ablations disable it to study what breaks without it.
    pub fn with_cap(mut self, apply_cap: bool) -> Self {
        self.apply_cap = apply_cap;
        self
    }

    fn control(&self) -> AnalysisControl {
        let ctl = AnalysisControl::new(self.budget, self.degrade);
        match self.degrade_theta {
            Some(theta) => ctl.with_theta_override(theta),
            None => ctl,
        }
    }

    /// The effective bound value `Λ(τ) = min(Λ'(τ), 2Θ/(1+Θ))`.
    pub fn effective_bound(&self, ts: &TaskSet) -> f64 {
        let raw = self.bound.value(ts);
        if self.apply_cap {
            raw.min(rmts_cap(ll_bound(ts.len())))
        } else {
            raw
        }
    }

    fn fail(
        phase: PartitionPhase,
        task: Option<TaskId>,
        processors: Vec<ProcessorState>,
        sealed: Vec<SplitPlan>,
        unassigned: Vec<TaskId>,
        reason: String,
        exactness: Exactness,
    ) -> PartitionResult {
        Err(PartitionReject::new(
            phase,
            task,
            unassigned,
            Partition::new(processors, sealed).with_exactness(exactness),
            reason,
        ))
    }

    fn engine_failure(
        phase: PartitionPhase,
        e: EngineError,
        processors: Vec<ProcessorState>,
        sealed: Vec<SplitPlan>,
        queue_rest: Vec<TaskId>,
        exactness: Exactness,
    ) -> PartitionResult {
        let mut unassigned = queue_rest;
        unassigned.push(e.task);
        let reason = format!("placement of {} failed: {}", e.task, e.cause);
        let analysis = e.analysis();
        Self::fail(
            phase,
            Some(e.task),
            processors,
            sealed,
            unassigned,
            reason,
            exactness,
        )
        .map_err(|r| r.with_analysis(analysis))
    }

    /// Places `task` alone on processor `q` and returns its sealed plan.
    fn place_whole(
        processors: &mut [ProcessorState],
        q: usize,
        prio: Priority,
        task: &Task,
        policy: &AdmissionPolicy,
        ctl: &AnalysisControl,
    ) -> SplitPlan {
        processors[q].push(Subtask::whole(task, prio));
        let last = processors[q].len() - 1;
        let response = policy.record_response(&mut processors[q], last, ctl);
        let mut plan = SplitPlan::new(*task, prio);
        // Invariant: a whole task was never split, so its full (positive)
        // budget remains and seal_tail cannot underflow the deadline.
        plan.seal_tail(q, response)
            .expect("whole task always has positive remaining budget");
        plan
    }
}

impl<B: ParametricBound> Configure for RmTs<B> {
    fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    fn with_budget(mut self, budget: AnalysisBudget) -> Self {
        self.budget = budget;
        self
    }

    fn with_degrade(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    fn with_degrade_theta(mut self, theta: f64) -> Self {
        self.degrade_theta = Some(theta);
        self
    }
}

impl<B, B2: ParametricBound> WithBound<B2> for RmTs<B> {
    type Out = RmTs<B2>;

    fn with_bound(self, bound: B2) -> RmTs<B2> {
        RmTs {
            bound,
            policy: self.policy,
            apply_cap: self.apply_cap,
            budget: self.budget,
            degrade: self.degrade,
            degrade_theta: self.degrade_theta,
        }
    }
}

impl<B: ParametricBound> Partitioner for RmTs<B> {
    fn name(&self) -> String {
        match self.policy {
            AdmissionPolicy::ExactRta { .. } => format!("RM-TS[{}]", self.bound.name()),
            AdmissionPolicy::DensityThreshold { .. } => "SPA2".to_string(),
        }
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
        self.partition_inner(ts, m, ws, None)
    }
}

impl<B: ParametricBound> RmTs<B> {
    /// The single assignment pipeline behind every entry point; `guide`
    /// adds trace recording and guided replay (see [`crate::session`])
    /// without changing any placement decision.
    fn partition_inner(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        mut guide: Option<&mut Guide<'_>>,
    ) -> PartitionResult {
        assert!(m > 0, "need at least one processor");
        let ctl = self.control();
        let theta = ll_bound(ts.len());
        let light_thr = light_threshold(theta);
        let lambda = self.effective_bound(ts);

        let mut processors = ws.take_processors(m);
        let mut sealed: Vec<SplitPlan> = Vec::with_capacity(ts.len());
        let mut reserved: HashSet<TaskId> = HashSet::new();

        // Phase 0 (footnote 5): dedicated processors for over-Λ tasks.
        let phase0 = rmts_obs::span("core.phase.dedicate_ns");
        for (prio, task) in ts.iter_prioritized() {
            if task.utilization() <= lambda + EPS {
                continue;
            }
            let Some(q) = processors
                .iter()
                .filter(|p| p.role == ProcessorRole::Normal && !p.full)
                .map(|p| p.index)
                .max()
            else {
                return Self::fail(
                    PartitionPhase::Dedicate,
                    Some(task.id),
                    processors,
                    sealed,
                    vec![task.id],
                    format!("no processor left to dedicate to {} (U > Λ)", task.id),
                    ctl.exactness(),
                );
            };
            sealed.push(Self::place_whole(
                &mut processors,
                q,
                prio,
                task,
                &self.policy,
                &ctl,
            ));
            processors[q].role = ProcessorRole::Dedicated;
            processors[q].full = true;
            reserved.insert(task.id);
            if let Some(g) = guide.as_deref_mut() {
                g.record_reserved(ReservedPlace {
                    task: task.id,
                    wcet: task.wcet,
                    period: task.period,
                    role: ProcessorRole::Dedicated,
                    proc: q,
                });
            }
            rmts_obs::count("core.rmts.dedicated", 1);
        }
        drop(phase0);

        // Phase 1: pre-assignment, in decreasing priority order.
        // Precompute suffix sums of utilization over non-dedicated tasks so
        // Σ_{j>i} U_j is O(1) per task.
        let phase1 = rmts_obs::span("core.phase.preassign_ns");
        let tasks: Vec<(Priority, &Task)> = ts
            .iter_prioritized()
            .filter(|(_, t)| !reserved.contains(&t.id))
            .collect();
        let mut suffix_u = vec![0.0f64; tasks.len() + 1];
        for i in (0..tasks.len()).rev() {
            suffix_u[i] = suffix_u[i + 1] + tasks[i].1.utilization();
        }
        for (i, &(prio, task)) in tasks.iter().enumerate() {
            if task.utilization() <= light_thr + EPS {
                continue; // light task: never pre-assigned
            }
            let normals: Vec<usize> = processors
                .iter()
                .filter(|p| p.role == ProcessorRole::Normal && !p.full)
                .map(|p| p.index)
                .collect();
            let p_count = normals.len();
            if p_count == 0 {
                break; // pre-assign condition can never hold again
            }
            let sum_lower = suffix_u[i + 1];
            if sum_lower <= (p_count as f64 - 1.0) * lambda + EPS {
                let q = *normals.iter().min().expect("p_count > 0");
                sealed.push(Self::place_whole(
                    &mut processors,
                    q,
                    prio,
                    task,
                    &self.policy,
                    &ctl,
                ));
                processors[q].role = ProcessorRole::PreAssigned;
                reserved.insert(task.id);
                if let Some(g) = guide.as_deref_mut() {
                    g.record_reserved(ReservedPlace {
                        task: task.id,
                        wcet: task.wcet,
                        period: task.period,
                        role: ProcessorRole::PreAssigned,
                        proc: q,
                    });
                }
                rmts_obs::count("core.rmts.preassigned", 1);
            }
        }
        drop(phase1);
        // Reserved placements always run live (O(n) pushes onto empty or
        // near-empty processors); replay keys off the recorded diff.
        if let Some(g) = guide.as_deref_mut() {
            g.finish_reserved();
        }

        // Phases 2 and 3 share one work queue, in increasing priority order.
        queue_increasing_priority_into(ts, |id| !reserved.contains(&id), &mut ws.queue);
        let queue = &mut ws.queue;

        let phase2 = {
            let _span = rmts_obs::span("core.phase.assign_normal_ns");
            run_phase(
                &mut processors,
                &|p: &ProcessorState| p.role == ProcessorRole::Normal,
                Select::WorstFit,
                queue,
                &self.policy,
                &mut sealed,
                &ctl,
                &mut ws.select,
                guide.as_deref_mut(),
            )
        };
        if let Err(e) = phase2 {
            let rest = queue.iter().map(|p| p.task().id).collect();
            return Self::engine_failure(
                PartitionPhase::AssignNormal,
                e,
                processors,
                sealed,
                rest,
                ctl.exactness(),
            );
        }

        let phase3 = {
            let _span = rmts_obs::span("core.phase.assign_preassigned_ns");
            run_phase(
                &mut processors,
                &|p: &ProcessorState| p.role == ProcessorRole::PreAssigned,
                Select::LargestIndexFirstFit,
                queue,
                &self.policy,
                &mut sealed,
                &ctl,
                &mut ws.select,
                guide,
            )
        };
        if let Err(e) = phase3 {
            let rest = queue.iter().map(|p| p.task().id).collect();
            return Self::engine_failure(
                PartitionPhase::AssignPreAssigned,
                e,
                processors,
                sealed,
                rest,
                ctl.exactness(),
            );
        }

        if queue.is_empty() {
            Ok(Partition::new(processors, sealed).with_exactness(ctl.exactness()))
        } else {
            let rest: Vec<TaskId> = queue.iter().map(|p| p.task().id).collect();
            let head = rest.first().copied();
            Self::fail(
                PartitionPhase::AssignPreAssigned,
                head,
                processors,
                sealed,
                rest,
                "all processors full with tasks remaining".to_string(),
                ctl.exactness(),
            )
        }
    }
}

impl<B: ParametricBound> Repartitioner for RmTs<B> {
    fn partition_traced(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        trace: &mut SessionTrace,
    ) -> PartitionResult {
        if !self.budget.is_unlimited() {
            // A metered run's verdicts depend on meter state, which does
            // not align across runs: leave the trace unsupported so every
            // apply re-partitions in full.
            trace.reset();
            return self.partition_with(ts, m, ws);
        }
        let mut guide = Guide::record(trace);
        self.partition_inner(ts, m, ws, Some(&mut guide))
    }

    fn repartition(
        &self,
        prior: PriorRun<'_>,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        trace: &mut SessionTrace,
    ) -> (PartitionResult, RepartitionPath) {
        if !self.budget.is_unlimited() || !replayable(prior.trace, m) {
            return (
                self.partition_traced(ts, m, ws, trace),
                RepartitionPath::Full,
            );
        }
        let mut guide = Guide::guided(trace, prior.trace, m);
        let result = self.partition_inner(ts, m, ws, Some(&mut guide));
        let (reused, live) = guide.step_counts();
        rmts_obs::count("core.session.reused_steps", reused);
        rmts_obs::count("core.session.live_steps", live);
        (result, RepartitionPath::Incremental)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_bounds::HarmonicChain;
    use rmts_taskmodel::TaskSetBuilder;

    #[test]
    fn light_set_behaves_like_rmts_light() {
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(2, 8)
            .task(4, 16)
            .build()
            .unwrap();
        let part = RmTs::new().partition(&ts, 2).unwrap();
        assert!(part.covers(&ts));
        assert!(part.verify_rta());
        assert_eq!(part.role_counts(), (2, 0, 0));
    }

    #[test]
    fn heavy_task_gets_pre_assigned() {
        // τ0 = (3,5): U = 0.6 > Θ(2)/(1+Θ(2)) ≈ 0.453 → heavy; the only
        // lower-priority task contributes 0.1 ≤ (2−1)·Λ, so τ0 is
        // pre-assigned to P0.
        let ts = TaskSetBuilder::new()
            .task(3, 5)
            .task(1, 10)
            .build()
            .unwrap();
        let part = RmTs::new().partition(&ts, 2).unwrap();
        let (normal, pre, dedicated) = part.role_counts();
        assert_eq!((normal, pre, dedicated), (1, 1, 0));
        assert_eq!(part.processors[0].role, ProcessorRole::PreAssigned);
        assert_eq!(part.processors[0].workload()[0].parent, TaskId(0));
        assert!(part.verify_rta());
    }

    #[test]
    fn over_lambda_task_gets_dedicated_processor() {
        // τ with U = 0.95 exceeds any Λ ≤ 2Θ/(1+Θ); it must run alone.
        let ts = TaskSetBuilder::new()
            .task(19, 20)
            .task(1, 10)
            .task(1, 10)
            .build()
            .unwrap();
        let part = RmTs::new().partition(&ts, 2).unwrap();
        let (_, _, dedicated) = part.role_counts();
        assert_eq!(dedicated, 1);
        // The dedicated processor hosts exactly the big task.
        let ded = part
            .processors
            .iter()
            .find(|p| p.role == ProcessorRole::Dedicated)
            .unwrap();
        assert_eq!(ded.len(), 1);
        assert_eq!(ded.workload()[0].parent, TaskId(0));
        assert!(part.verify_rta());
    }

    #[test]
    fn pre_assigned_processor_receives_overflow_in_phase3() {
        // The heavy task is the lowest-priority one, so Σ_{j>i} U_j = 0 and
        // it is pre-assigned to P0. Five lights (1.25 of load) overflow the
        // single normal processor P1 (which saturates at 1.0), so the fifth
        // light spills into phase 3 onto the pre-assigned processor.
        let ts = TaskSetBuilder::new()
            .task(2, 8)
            .task(2, 8)
            .task(2, 8)
            .task(2, 8)
            .task(2, 8) // 5 × 0.25 light load
            .task(6, 10) // heavy (U = 0.6), longest period → lowest priority
            .build()
            .unwrap();
        let part = RmTs::new().partition(&ts, 2).unwrap();
        assert!(part.covers(&ts));
        assert!(part.verify_rta());
        let pre = part
            .processors
            .iter()
            .find(|p| p.role == ProcessorRole::PreAssigned)
            .unwrap();
        assert!(
            pre.len() > 1,
            "phase 3 must have added tasks to the pre-assigned processor"
        );
    }

    #[test]
    fn effective_bound_is_capped() {
        // Harmonic set: HC = 1.0 but RM-TS caps at 2Θ/(1+Θ).
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(1, 8)
            .task(1, 16)
            .build()
            .unwrap();
        let alg = RmTs::new().with_bound(HarmonicChain);
        let lambda = alg.effective_bound(&ts);
        let cap = rmts_cap(ll_bound(3));
        assert!((lambda - cap).abs() < 1e-12);
        let uncapped = RmTs::new().with_bound(HarmonicChain).with_cap(false);
        assert_eq!(uncapped.effective_bound(&ts), 1.0);
    }

    #[test]
    fn guarantee_holds_at_the_bound_for_harmonic_heavy_mix() {
        // Harmonic set with heavy tasks at U_M just below the capped bound:
        // RM-TS must accept. N = 6 → Θ ≈ 0.7348, cap ≈ 0.8471.
        // Tasks: two heavy (U = 0.5) + four light, U_M on 2 procs ≤ 0.84.
        let ts = TaskSetBuilder::new()
            .task(4, 8) // 0.5 heavy (thr ≈ 0.4236)
            .task(4, 8) // 0.5
            .task(2, 16) // 0.125
            .task(2, 16)
            .task(4, 16) // 0.25
            .task(2, 32) // 0.0625
            .build()
            .unwrap();
        let u_m = ts.normalized_utilization(2);
        let alg = RmTs::new().with_bound(HarmonicChain);
        assert!(
            u_m <= alg.effective_bound(&ts),
            "test setup: U_M = {u_m} must be ≤ Λ = {}",
            alg.effective_bound(&ts)
        );
        let part = alg.partition(&ts, 2).unwrap();
        assert!(part.covers(&ts));
        assert!(part.verify_rta());
    }

    #[test]
    fn overload_fails_cleanly() {
        let ts = TaskSetBuilder::new()
            .task(7, 8)
            .task(7, 8)
            .task(7, 8)
            .build()
            .unwrap();
        let err = RmTs::new().partition(&ts, 2).unwrap_err();
        assert!(!err.unassigned.is_empty());
    }

    #[test]
    fn iteration_starved_rmts_degrades_across_phases() {
        // Heavy + light mix under a 0-iteration budget with degradation:
        // pre-assignment is unmetered (O(1) placements on empty
        // processors), the metered phases fall to TDA, and the result is
        // labeled degraded but still passes exact verification.
        let ts = TaskSetBuilder::new()
            .task(3, 5)
            .task(1, 10)
            .build()
            .unwrap();
        let alg = RmTs::new()
            .with_budget(AnalysisBudget::unlimited().with_max_iterations(0))
            .with_degrade(true);
        let part = alg.partition(&ts, 2).unwrap();
        assert!(!part.is_exact());
        assert!(part.covers(&ts));
        assert!(part.verify_rta());
    }

    #[test]
    fn names() {
        assert_eq!(RmTs::new().name(), "RM-TS[Liu&Layland]");
        assert_eq!(
            RmTs::new().with_bound(HarmonicChain).name(),
            "RM-TS[harmonic-chain]"
        );
        let spa2 = RmTs::new().with_policy(AdmissionPolicy::threshold(0.69));
        assert_eq!(spa2.name(), "SPA2");
    }

    #[test]
    fn retargeting_the_bound_preserves_other_settings() {
        // `with_bound` changes the partitioner's type; every other knob
        // must ride across unchanged.
        let alg = RmTs::new()
            .with_policy(AdmissionPolicy::threshold(0.6))
            .with_degrade(true)
            .with_cap(false)
            .with_bound(HarmonicChain);
        assert_eq!(alg.policy, AdmissionPolicy::threshold(0.6));
        assert!(alg.degrade);
        assert!(!alg.apply_cap);
    }
}
