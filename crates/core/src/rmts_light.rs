//! RM-TS/light (paper Section IV, Algorithms 1–2).
//!
//! Tasks are assigned in increasing priority order; each step picks the
//! processor with the minimal assigned utilization and either assigns the
//! (sub)task entirely (admitted by exact RTA against synthetic deadlines)
//! or places the `MaxSplit` first part and marks the processor full.
//!
//! **Guarantee (Theorem 8).** For any *light* task set `τ`
//! (every `U_i ≤ Θ/(1+Θ)`, Definition 1) and any deflatable parametric
//! utilization bound `Λ(τ)`: if `U_M(τ) ≤ Λ(τ)` then RM-TS/light
//! successfully partitions `τ` on `M` processors, and every (sub)task meets
//! its deadline at run time (Lemma 4).
//!
//! The pipeline is a single phase of the shared splitting engine
//! ([`crate::engine`]) over every processor. With no reserved placements,
//! it is also the engine that takes the WCET splice on session applies.

use crate::admission::AdmissionPolicy;
use crate::config::{Configure, Splitting};
pub use crate::engine::Select as FitSelect;
use crate::engine::{
    finish, queue_increasing_priority_into, run_phase, try_splice, Select, SplittingEngine,
};
use crate::partition::{Partition, PartitionPhase, PartitionResult};
use crate::session::{Guide, PriorRun, SessionTrace};
use crate::workspace::PartitionWorkspace;
use rmts_taskmodel::TaskSet;

/// The RM-TS/light partitioning algorithm.
#[derive(Debug, Clone, Copy)]
pub struct RmTsLight {
    /// Admission policy, analysis budget and degradation ladder.
    /// [`AdmissionPolicy::exact`] reproduces the paper's algorithm; a
    /// density threshold turns this skeleton into the \[16\]-style SPA1
    /// baseline (see `baselines::Spa1`).
    pub splitting: Splitting,
    /// Processor selection. The paper (and the utilization-bound proof)
    /// uses worst-fit; first-fit is exposed for the ABL-2 ablation only.
    pub select: Select,
}

impl Default for RmTsLight {
    fn default() -> Self {
        RmTsLight {
            splitting: Splitting::default(),
            select: Select::WorstFit,
        }
    }
}

impl RmTsLight {
    /// RM-TS/light with exact RTA admission (the paper's algorithm).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ablation variant with a different processor-selection rule. The
    /// utilization-bound guarantee only holds for worst-fit.
    pub fn with_select(mut self, select: Select) -> Self {
        self.select = select;
        self
    }
}

impl Configure for RmTsLight {
    fn splitting_mut(&mut self) -> &mut Splitting {
        &mut self.splitting
    }
}

impl SplittingEngine for RmTsLight {
    fn engine_name(&self) -> String {
        let base = match self.splitting.policy {
            AdmissionPolicy::ExactRta { .. } => "RM-TS/light".to_string(),
            AdmissionPolicy::DensityThreshold { theta } => {
                format!("SPA1(θ={theta:.3})")
            }
        };
        match self.select {
            Select::WorstFit => base,
            Select::SmallestIndexFirstFit => format!("{base}/FF"),
            Select::LargestIndexFirstFit => format!("{base}/FF-rev"),
        }
    }

    fn splitting(&self) -> &Splitting {
        &self.splitting
    }

    fn run(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        guide: Option<&mut Guide<'_>>,
    ) -> PartitionResult {
        assert!(m > 0, "need at least one processor");
        let ctl = self.splitting.control();
        let mut processors = ws.take_processors(m);
        queue_increasing_priority_into(ts, |_| true, &mut ws.queue);
        let mut sealed = Vec::with_capacity(ts.len());
        let outcome = {
            let _span = rmts_obs::span("core.phase.assign_normal_ns");
            run_phase(
                &mut processors,
                &|_| true,
                self.select,
                &mut ws.queue,
                &self.splitting.policy,
                &mut sealed,
                &ctl,
                &mut ws.select,
                guide,
            )
        };
        finish(
            PartitionPhase::AssignNormal,
            outcome,
            &ws.queue,
            processors,
            sealed,
            ctl.exactness(),
        )
    }

    /// WCET-only deltas take the splice: recorded placements are applied as
    /// `O(1)` shadow-state updates instead of re-running the placement
    /// loop. It bails to guided replay on anything structural (and on
    /// rejects, which re-run for full diagnostics).
    fn splice(
        &self,
        prior: &PriorRun<'_>,
        ts: &TaskSet,
        m: usize,
        ws: &mut PartitionWorkspace,
        trace: &mut SessionTrace,
    ) -> Option<Partition> {
        try_splice(ts, m, ws, &self.splitting, self.select, prior, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use rmts_bounds::thresholds::is_light_set;
    use rmts_taskmodel::{SubtaskKind, TaskSetBuilder, Time};

    #[test]
    fn trivial_fit_no_split() {
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(2, 8)
            .task(4, 16)
            .build()
            .unwrap();
        let part = RmTsLight::new().partition(&ts, 2).unwrap();
        assert!(part.split_tasks().is_empty());
        assert!(part.covers(&ts));
        assert!(part.verify_rta());
    }

    #[test]
    fn harmonic_light_set_at_full_normalized_utilization() {
        // The headline instantiation: a harmonic light task set with
        // U_M(τ) = 100% is schedulable by RM-TS/light (100% bound, K = 1).
        // 8 tasks × U = 0.25 on M = 2 → U_M = 1.0; all tasks light
        // (0.25 ≤ Θ(8)/(1+Θ(8)) ≈ 0.42).
        let mut b = TaskSetBuilder::new();
        for _ in 0..4 {
            b = b.task(1, 4).task(2, 8);
        }
        let ts = b.build().unwrap();
        assert!(is_light_set(&ts));
        assert!((ts.normalized_utilization(2) - 1.0).abs() < 1e-12);
        let part = RmTsLight::new().partition(&ts, 2).unwrap();
        assert!(part.covers(&ts));
        assert!(part.verify_rta());
        // Both processors are saturated.
        for p in &part.processors {
            assert!((p.utilization() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn split_task_has_body_then_tail() {
        let ts = TaskSetBuilder::new()
            .task(6, 8)
            .task(6, 8)
            .task(3, 8)
            .build()
            .unwrap();
        let part = RmTsLight::new().partition(&ts, 2).unwrap();
        assert_eq!(part.split_tasks().len(), 1);
        let plan = part.plans.get(&0).unwrap();
        assert!(plan.is_split());
        let subs = plan.subtasks();
        assert_eq!(subs.len(), 2);
        assert!(matches!(subs[0].0.kind, SubtaskKind::Body(1)));
        assert!(subs[1].0.kind.is_tail());
        // Subtasks of one task live on different processors.
        assert_ne!(subs[0].1, subs[1].1);
        // Tail synthetic deadline = T − R_body (Lemma 3 with R = C).
        assert_eq!(subs[1].0.deadline, Time::new(8) - subs[0].0.wcet);
        assert!(part.verify_rta());
    }

    #[test]
    fn overload_fails_with_diagnostics() {
        let ts = TaskSetBuilder::new()
            .task(8, 8)
            .task(8, 8)
            .task(8, 8)
            .build()
            .unwrap();
        let err = RmTsLight::new().partition(&ts, 2).unwrap_err();
        assert!(!err.unassigned.is_empty());
        assert!(err.partial.processors.iter().all(|p| p.full));
        // The failure message is actionable.
        assert!(err.to_string().contains("unassigned"));
    }

    #[test]
    fn single_processor_degenerates_to_uniprocessor_rta() {
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 6)
            .task(3, 12)
            .build()
            .unwrap();
        let part = RmTsLight::new().partition(&ts, 1).unwrap();
        assert_eq!(part.num_processors(), 1);
        assert!(part.split_tasks().is_empty());
    }

    #[test]
    fn name_reflects_policy() {
        assert_eq!(RmTsLight::new().name(), "RM-TS/light");
        let spa = RmTsLight::new().with_policy(AdmissionPolicy::threshold(0.693));
        assert!(spa.name().starts_with("SPA1"));
    }

    #[test]
    fn worst_fit_is_load_bearing() {
        // (3,8) + (6,8) + (6,8) on 2 processors (U_M = 0.9375): the paper's
        // worst-fit succeeds, but the same skeleton with classic first-fit
        // fails — FF saturates P0 early, leaving a remainder with a
        // too-short synthetic deadline. The utilization-bound proof's
        // insistence on worst-fit (X^t ≤ X^{b_j} in Lemma 7) is not an
        // artifact: the selection rule really is load-bearing.
        let ff = RmTsLight::new().with_select(FitSelect::SmallestIndexFirstFit);
        assert_eq!(ff.name(), "RM-TS/light/FF");
        let ts = TaskSetBuilder::new()
            .task(6, 8)
            .task(6, 8)
            .task(3, 8)
            .build()
            .unwrap();
        assert!(RmTsLight::new().accepts(&ts, 2), "worst-fit must accept");
        assert!(!ff.accepts(&ts, 2), "first-fit must fail here");
        // On easy sets the ablation variant still produces valid partitions.
        let easy = TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(2, 8)
            .build()
            .unwrap();
        let part = ff.partition(&easy, 2).unwrap();
        assert!(part.covers(&easy));
        assert!(part.verify_rta());
    }

    #[test]
    fn accepts_helper() {
        let ts = TaskSetBuilder::new().task(1, 4).build().unwrap();
        assert!(RmTsLight::new().accepts(&ts, 1));
    }

    #[test]
    fn unlimited_budget_partitions_stay_labeled_exact() {
        let ts = TaskSetBuilder::new().task(1, 4).task(2, 8).build().unwrap();
        let part = RmTsLight::new().partition(&ts, 2).unwrap();
        assert!(part.is_exact());
    }

    #[test]
    fn iteration_starved_partition_degrades_but_stays_sound() {
        // The acceptance scenario: a 0-iteration RTA budget forces every
        // admission verdict down the ladder, yet the partition completes,
        // is labeled degraded, and still passes exact RTA verification
        // (the TDA rung decides the same predicate as RTA).
        let mut b = TaskSetBuilder::new();
        for _ in 0..4 {
            b = b.task(1, 4).task(2, 8);
        }
        let ts = b.build().unwrap();
        let alg = RmTsLight::new()
            .with_budget(rmts_taskmodel::AnalysisBudget::unlimited().with_max_iterations(0))
            .with_degrade(true);
        let part = alg.partition(&ts, 2).unwrap();
        assert!(!part.is_exact(), "ladder must have been walked");
        assert!(part.covers(&ts));
        assert!(part.verify_rta(), "degraded accepts must stay sound");
    }

    #[test]
    fn budget_exhaustion_without_degrade_is_a_typed_reject() {
        let ts = TaskSetBuilder::new().task(1, 4).task(2, 8).build().unwrap();
        let alg = RmTsLight::new()
            .with_budget(rmts_taskmodel::AnalysisBudget::unlimited().with_max_iterations(0));
        let err = alg.partition(&ts, 2).unwrap_err();
        assert!(
            err.analysis.is_some(),
            "rejection must carry the typed error"
        );
        assert!(err.to_string().contains("analysis:"));
    }

    #[test]
    fn zero_slack_tasks_at_the_ladder_boundary() {
        // Zero-slack tasks (C = T, density exactly 1.0) sit exactly on the
        // rung-3 boundary Θ(1) = 1.0: one is admitted per empty processor,
        // a second is refused, and MaxSplit's density slack is non-positive
        // so nothing is ever split. The run must terminate cleanly — the
        // x == cap clamp and the Time::ZERO slack path are both exercised.
        let ts = TaskSetBuilder::new()
            .task(8, 8)
            .task(8, 8)
            .task(8, 8)
            .build()
            .unwrap();
        let alg = RmTsLight::new()
            .with_budget(rmts_taskmodel::AnalysisBudget::unlimited().with_max_probes(0))
            .with_degrade(true);
        let err = alg.partition(&ts, 2).unwrap_err();
        assert_eq!(err.unassigned.len(), 1);
        assert!(!err.partial.is_exact());
        // Each processor hosts exactly one zero-slack task, unsplit.
        for p in &err.partial.processors {
            assert_eq!(p.len(), 1);
            assert!((p.utilization() - 1.0).abs() < 1e-12);
        }
        assert!(err.partial.verify_rta(), "boundary accepts are sound");
    }
}
