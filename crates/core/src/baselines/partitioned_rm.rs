//! Strict partitioned RM (no task splitting): the bin-packing heuristic
//! matrix.
//!
//! Tasks are ordered by a configurable [`SortOrder`] (decreasing
//! utilization by default, the classic bin-packing heuristic) and each is
//! placed whole on a processor chosen by the configured [`Fit`] strategy,
//! subject to a per-processor uniprocessor [`UniAdmission`] test. If no
//! processor can take a task, partitioning fails — there is no splitting
//! fallback, which is exactly why strict partitioning is limited to a 50%
//! worst-case utilization bound.
//!
//! The fit × sort matrix follows Lupu, Courbin, George & Goossens (arXiv
//! 1004.3715), who evaluate partitioning quality as a *matrix* of
//! bin-packing heuristic × sort order rather than a single algorithm.
//! Every ordering uses the total tie-break `(key, period, id)` so the
//! produced partition is a deterministic function of the task set alone —
//! permuting equal-key tasks in the input cannot change the result.

use crate::partition::{Partition, PartitionPhase, PartitionReject, PartitionResult, Partitioner};
use crate::processor::ProcessorState;
use rmts_bounds::ll_bound;
use rmts_rta::budget::NewcomerSpec;
use rmts_taskmodel::{BudgetMeter, Priority, SplitPlan, Subtask, Task, TaskSet};
use serde::{Deserialize, Serialize};

/// Bin-packing placement heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fit {
    /// First processor (by index) that admits the task.
    First,
    /// Admitting processor with the largest current utilization.
    Best,
    /// Admitting processor with the smallest current utilization.
    Worst,
    /// Classic next-fit: a single open processor; a task that the open
    /// processor refuses closes it for good and moves the cursor to the
    /// next one. Once the cursor falls off the last processor every
    /// remaining task is unassigned.
    Next,
}

/// Order in which tasks are fed to the bin-packer. Every order is total:
/// the primary key is refined by `(period, id)`, so equal-key tasks
/// always place identically regardless of their arrangement in the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SortOrder {
    /// Decreasing utilization `C/T` (the classic "-decreasing" ordering).
    #[default]
    DecreasingUtilization,
    /// Decreasing density `C/min(D, T)`. On this implicit-deadline task
    /// model (`D = T`) density coincides with utilization, so the order —
    /// including its tie-break — matches
    /// [`SortOrder::DecreasingUtilization`]; it is kept as a distinct spec
    /// so constrained-deadline extensions slot in without a grammar
    /// change.
    DecreasingDensity,
    /// Decreasing period (longest period first).
    DecreasingPeriod,
    /// The task set's canonical stored order, `(period, id)` ascending —
    /// i.e. no re-sorting. This is rate-monotonic priority order, the
    /// "increasing period" row of the Lupu et al. matrix.
    InputOrder,
}

/// Per-processor admission test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UniAdmission {
    /// Exact response-time analysis.
    ExactRta,
    /// Utilization ≤ `Θ(n)` where `n` counts the tasks on the processor
    /// including the newcomer (Liu & Layland).
    LiuLayland,
    /// Hyperbolic bound (Bini, Buttazzo & Buttazzo):
    /// `Π (U_i + 1) ≤ 2`.
    Hyperbolic,
    /// Chen-style partitioned-FP admission (arXiv 1505.04693): the
    /// linear-time response-time upper bound
    /// `R_k ≤ (C_k + Σ_{i ∈ hp(k)} C_i) / (1 − Σ_{i ∈ hp(k)} U_i)`
    /// checked against every deadline on the processor. Sufficient (never
    /// admits what exact RTA would refuse) but cheaper than a fixed-point
    /// iteration, and strictly sharper than the pure utilization bounds on
    /// most workloads.
    Chen,
}

/// Strict partitioned rate-monotonic scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionedRm {
    /// Placement heuristic.
    pub fit: Fit,
    /// Admission test.
    pub admission: UniAdmission,
    /// Task ordering fed to the bin-packer.
    pub sort: SortOrder,
}

impl Default for PartitionedRm {
    fn default() -> Self {
        PartitionedRm {
            fit: Fit::First,
            admission: UniAdmission::ExactRta,
            sort: SortOrder::DecreasingUtilization,
        }
    }
}

impl PartitionedRm {
    /// First-fit-decreasing with exact RTA admission — the strongest
    /// strict-partitioning baseline, and the uniform-API starting point
    /// (chain [`Self::with_fit`] / [`Self::with_admission`] /
    /// [`Self::with_sort`] to vary it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the bin-packing placement heuristic.
    pub fn with_fit(mut self, fit: Fit) -> Self {
        self.fit = fit;
        self
    }

    /// Overrides the per-processor admission test.
    pub fn with_admission(mut self, admission: UniAdmission) -> Self {
        self.admission = admission;
        self
    }

    /// Overrides the task ordering.
    pub fn with_sort(mut self, sort: SortOrder) -> Self {
        self.sort = sort;
        self
    }

    /// First-fit-decreasing with exact RTA admission — the strongest
    /// strict-partitioning baseline.
    pub fn ffd_rta() -> Self {
        Self::new()
    }

    /// First-fit-decreasing with L&L admission — the textbook baseline.
    pub fn ffd_ll() -> Self {
        Self::new().with_admission(UniAdmission::LiuLayland)
    }

    /// Sorts the placement queue by the configured order. `order` arrives
    /// in the task set's canonical `(period, id)` order, so
    /// [`SortOrder::InputOrder`] is a no-op and every other order refines
    /// its key with that same pair — the documented `(key, period, id)`
    /// total tie-break.
    fn sort_queue(&self, order: &mut [(Priority, &Task)]) {
        // Utilization/density keys compare exactly via cross-multiplied
        // integer ratios (`C_a/T_a ≥ C_b/T_b ⇔ C_a·T_b ≥ C_b·T_a`): no
        // float rounding can merge distinct keys or split equal ones.
        let by_ratio = |a: &Task, b: &Task| {
            let ua = a.wcet.ticks() as u128 * b.period.ticks() as u128;
            let ub = b.wcet.ticks() as u128 * a.period.ticks() as u128;
            ub.cmp(&ua)
                .then(a.period.cmp(&b.period))
                .then(a.id.cmp(&b.id))
        };
        match self.sort {
            SortOrder::DecreasingUtilization | SortOrder::DecreasingDensity => {
                order.sort_by(|a, b| by_ratio(a.1, b.1));
            }
            SortOrder::DecreasingPeriod => {
                order.sort_by(|a, b| b.1.period.cmp(&a.1.period).then(a.1.id.cmp(&b.1.id)))
            }
            SortOrder::InputOrder => {}
        }
    }

    fn admits(&self, proc: &mut ProcessorState, candidate: &Subtask) -> bool {
        match self.admission {
            UniAdmission::ExactRta => {
                let spec = NewcomerSpec {
                    parent: candidate.parent,
                    period: candidate.period,
                    deadline: candidate.deadline,
                    priority: candidate.priority,
                };
                // Strict partitioning runs unbudgeted, and an unlimited
                // meter never exhausts.
                let meter = BudgetMeter::unlimited();
                proc.rta_cache_mut()
                    .probe_remember(&spec, candidate.wcet, &meter)
                    == Ok(true)
            }
            UniAdmission::LiuLayland => {
                let n = proc.len() + 1;
                proc.utilization() + candidate.utilization() <= ll_bound(n) + 1e-9
            }
            UniAdmission::Hyperbolic => {
                let prod: f64 = proc
                    .workload()
                    .iter()
                    .map(|s| s.utilization() + 1.0)
                    .product::<f64>()
                    * (candidate.utilization() + 1.0);
                prod <= 2.0 + 1e-9
            }
            UniAdmission::Chen => chen_admits(proc.workload(), candidate),
        }
    }
}

/// The Chen-style sufficient test: every task on the processor (after
/// hypothetically placing `candidate`) satisfies the closed-form
/// response-time upper bound
///
/// ```text
/// R_k ≤ (C_k + Σ_{i ∈ hp(k)} C_i) / (1 − Σ_{i ∈ hp(k)} U_i) ≤ D_k
/// ```
///
/// valid whenever `Σ_{hp} U_i < 1` (from the RTA fixed point:
/// `R = C_k + Σ ⌈R/T_i⌉·C_i ≤ C_k + Σ C_i + R·Σ U_i`). The whole
/// workload is re-checked — not just the newcomer — because the placement
/// queue is ordered by the sort key, so a later arrival may preempt tasks
/// placed before it. The comparison keeps a relative guard band of 1e−9
/// *against* admission: float error (≲1e−13 here) can only cause a
/// conservative rejection, never an unsound accept, preserving the
/// `Chen ⇒ ExactRta` implication the fuzz oracles cross-check.
fn chen_admits(workload: &[Subtask], candidate: &Subtask) -> bool {
    let mut all: Vec<&Subtask> = workload.iter().collect();
    all.push(candidate);
    all.sort_by_key(|s| s.priority);
    let mut c_hp = 0u64; // Σ C_i over higher-priority tasks, in ticks
    let mut u_hp = 0.0f64; // Σ U_i over higher-priority tasks
    for s in all {
        if u_hp >= 1.0 {
            return false;
        }
        let lhs = (s.wcet.ticks() + c_hp) as f64;
        let rhs = (1.0 - u_hp) * s.deadline.ticks() as f64;
        if lhs > rhs * (1.0 - 1e-9) {
            return false;
        }
        c_hp += s.wcet.ticks();
        u_hp += s.utilization();
    }
    true
}

impl Partitioner for PartitionedRm {
    fn name(&self) -> String {
        let fit = match self.fit {
            Fit::First => "FF",
            Fit::Best => "BF",
            Fit::Worst => "WF",
            Fit::Next => "NF",
        };
        // "D" (plain decreasing) keeps the classic FFD/BFD/WFD names for
        // the default utilization order.
        let sort = match self.sort {
            SortOrder::DecreasingUtilization => "D",
            SortOrder::DecreasingDensity => "Dd",
            SortOrder::DecreasingPeriod => "Dp",
            SortOrder::InputOrder => "I",
        };
        let adm = match self.admission {
            UniAdmission::ExactRta => "RTA",
            UniAdmission::LiuLayland => "L&L",
            UniAdmission::Hyperbolic => "HYP",
            UniAdmission::Chen => "CHEN",
        };
        format!("P-RM-{fit}{sort}/{adm}")
    }

    fn partition(&self, ts: &TaskSet, m: usize) -> PartitionResult {
        assert!(m > 0, "need at least one processor");
        let mut processors: Vec<ProcessorState> = (0..m).map(ProcessorState::new).collect();
        let mut plans = Vec::with_capacity(ts.len());
        let mut unassigned = Vec::new();

        let mut order: Vec<_> = ts.iter_prioritized().collect();
        self.sort_queue(&mut order);

        // Next-fit's single open processor; monotone, never rewinds.
        let mut cursor = 0usize;

        for (prio, task) in order {
            let candidate = Subtask::whole(task, prio);
            let choice = match self.fit {
                Fit::First => {
                    (0..processors.len()).find(|&q| self.admits(&mut processors[q], &candidate))
                }
                Fit::Next => {
                    while cursor < processors.len()
                        && !self.admits(&mut processors[cursor], &candidate)
                    {
                        cursor += 1;
                    }
                    (cursor < processors.len()).then_some(cursor)
                }
                Fit::Best | Fit::Worst => {
                    let fits: Vec<usize> = (0..processors.len())
                        .filter(|&q| self.admits(&mut processors[q], &candidate))
                        .collect();
                    let fits = fits.into_iter();
                    if self.fit == Fit::Best {
                        fits.max_by(|&a, &b| {
                            processors[a]
                                .utilization()
                                .total_cmp(&processors[b].utilization())
                                .then(b.cmp(&a)) // ties towards smaller index
                        })
                    } else {
                        fits.min_by(|&a, &b| {
                            processors[a]
                                .utilization()
                                .total_cmp(&processors[b].utilization())
                                .then(a.cmp(&b))
                        })
                    }
                }
            };
            match choice {
                Some(q) => {
                    processors[q].push(candidate);
                    let mut plan = SplitPlan::new(*task, prio);
                    // Invariant: strict partitioning never splits, so the
                    // plan's full (positive) budget remains and sealing
                    // cannot underflow the synthetic deadline.
                    plan.seal_tail(q, candidate.wcet)
                        .expect("whole task has positive budget");
                    plans.push(plan);
                }
                None => unassigned.push(task.id),
            }
        }

        if unassigned.is_empty() {
            Ok(Partition::new(processors, plans))
        } else {
            let rejected = unassigned.first().copied();
            Err(PartitionReject::new(
                PartitionPhase::Place,
                rejected,
                unassigned,
                Partition::new(processors, plans),
                "no processor admits the task (no splitting)",
            ))
        }
    }
}

// Default implementation: sessions over strictly partitioned RM always
// re-partition in full (no splitting engine, no placement trace to replay).
impl crate::session::Repartitioner for PartitionedRm {}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_taskmodel::TaskSetBuilder;

    fn light_set() -> TaskSet {
        TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(2, 8)
            .task(4, 16)
            .build()
            .unwrap()
    }

    #[test]
    fn all_variants_partition_an_easy_set() {
        for fit in [Fit::First, Fit::Best, Fit::Worst, Fit::Next] {
            for adm in [
                UniAdmission::ExactRta,
                UniAdmission::LiuLayland,
                UniAdmission::Hyperbolic,
                UniAdmission::Chen,
            ] {
                for sort in [
                    SortOrder::DecreasingUtilization,
                    SortOrder::DecreasingDensity,
                    SortOrder::DecreasingPeriod,
                    SortOrder::InputOrder,
                ] {
                    let alg = PartitionedRm {
                        fit,
                        admission: adm,
                        sort,
                    };
                    let part = alg.partition(&light_set(), 2).unwrap();
                    assert!(part.covers(&light_set()), "{} lost budget", alg.name());
                    assert!(
                        part.verify_rta(),
                        "{} produced an invalid partition",
                        alg.name()
                    );
                    assert!(part.split_tasks().is_empty());
                }
            }
        }
    }

    #[test]
    fn rta_admission_beats_ll_admission() {
        // A harmonic set at 100% per processor: RTA packs it, L&L refuses.
        let ts = TaskSetBuilder::new()
            .task(2, 4)
            .task(2, 8)
            .task(2, 8)
            .build()
            .unwrap(); // U = 1.0 exactly, harmonic
        assert!(PartitionedRm::ffd_rta().accepts(&ts, 1));
        assert!(!PartitionedRm::ffd_ll().accepts(&ts, 1));
    }

    #[test]
    fn hyperbolic_between_ll_and_rta() {
        // U1 = 0.5, U2 = 0.333: Π(U+1) = 1.5 · 4/3 = 2.0 ≤ 2 → accepted by
        // hyperbolic; L&L: 0.833 > Θ(2) = 0.828 → rejected.
        let ts = TaskSetBuilder::new().task(2, 4).task(2, 6).build().unwrap();
        let hyp = PartitionedRm::new().with_admission(UniAdmission::Hyperbolic);
        assert!(hyp.accepts(&ts, 1));
        assert!(!PartitionedRm::ffd_ll().accepts(&ts, 1));
        assert!(PartitionedRm::ffd_rta().accepts(&ts, 1));
    }

    #[test]
    fn chen_is_sound_wrt_exact_rta() {
        // On every admission decision the Chen bound makes, exact RTA must
        // agree with the accepts: Chen admits ⇒ the placed processor
        // verifies under exact RTA (sufficiency). Deterministic mini-sweep
        // over an LCG so the test needs no generator crate.
        let mut state = 0x1234_5678_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let chen = PartitionedRm::new().with_admission(UniAdmission::Chen);
        let rta = PartitionedRm::ffd_rta();
        let mut chen_accepts = 0usize;
        for _ in 0..200 {
            let mut b = TaskSetBuilder::new();
            for _ in 0..6 {
                let t = 6 + rng() % 60;
                let c = 1 + rng() % (t / 3);
                b = b.task(c, t);
            }
            let ts = b.build().unwrap();
            if let Ok(part) = chen.partition(&ts, 2) {
                chen_accepts += 1;
                assert!(
                    part.verify_rta(),
                    "Chen admitted a workload exact RTA refutes: {ts:?}"
                );
                // The identical placements must also pass the exact-RTA
                // admitter directly (same fit, same sort ⇒ the RTA
                // variant can only accept more).
                assert!(rta.accepts(&ts, 2), "RTA rejected a Chen-accepted set");
            }
        }
        assert!(chen_accepts > 10, "sweep degenerated: nothing accepted");
    }

    #[test]
    fn chen_between_ll_and_rta_on_a_crafted_set() {
        // (2,4) + (3,9): exact RTA fits both on one processor
        // (R₂ = 3 + 2·⌈7/4⌉ = 7 ≤ 9), but the Chen bound overshoots —
        // (3 + 2)/(1 − 0.5) = 10 > 9 — and L&L rejects outright
        // (U = 0.833 > Θ(2) ≈ 0.828). Two processors satisfy the bound.
        let ts = TaskSetBuilder::new().task(2, 4).task(3, 9).build().unwrap();
        let chen = PartitionedRm::new().with_admission(UniAdmission::Chen);
        assert!(PartitionedRm::ffd_rta().accepts(&ts, 1));
        assert!(!chen.accepts(&ts, 1));
        assert!(!PartitionedRm::ffd_ll().accepts(&ts, 1));
        assert!(chen.accepts(&ts, 2));
    }

    #[test]
    fn next_fit_never_rewinds() {
        // Four half-utilization tasks on two processors: NF packs two per
        // processor only if the open bin takes consecutive tasks; a third
        // (1,2) task must fail even though P0 could still admit small
        // tasks after the cursor moved past it.
        let ts = TaskSetBuilder::new()
            .task(1, 2)
            .task(1, 2)
            .task(1, 2)
            .task(1, 2)
            .build()
            .unwrap();
        let nf = PartitionedRm::new()
            .with_fit(Fit::Next)
            .with_sort(SortOrder::InputOrder);
        let part = nf.partition(&ts, 2).unwrap();
        assert!(part.verify_rta());
        // A tiny trailing task arrives after both bins closed under a
        // harsher admission: cursor cannot rewind to the earlier bin.
        let ts = TaskSetBuilder::new()
            .task(3, 4) // fills P0 under RTA with anything else refused
            .task(3, 4) // moves cursor to P1, fills it
            .task(1, 1024) // P1 refuses (RTA: 1 + 3·⌈…⌉ misses? no — fits!)
            .build()
            .unwrap();
        // (1,1024) fits behind (3,4) under RTA (R = 1 + 3 = 4 ≤ … well
        // under 1024), so NF accepts with cursor still on P1.
        let nf_rta = PartitionedRm::new().with_fit(Fit::Next);
        assert!(nf_rta.accepts(&ts, 2));
        // Under L&L admission the second bin refuses the newcomer
        // (0.75 + tiny > Θ(2) = 0.828? no — 0.751 < 0.828 admits). Use a
        // heavier tail: (400,1024) → 0.75 + 0.39 = 1.14 > Θ(2): P1 refuses,
        // cursor falls off the end, and P0 (also 0.75 full) is never
        // revisited.
        let ts = TaskSetBuilder::new()
            .task(3, 4)
            .task(3, 4)
            .task(400, 1024)
            .build()
            .unwrap();
        let nf_ll = PartitionedRm::new()
            .with_fit(Fit::Next)
            .with_admission(UniAdmission::LiuLayland)
            .with_sort(SortOrder::InputOrder);
        let err = nf_ll.partition(&ts, 2).unwrap_err();
        assert_eq!(err.unassigned.len(), 1);
    }

    #[test]
    fn sort_orders_change_placement() {
        // Decreasing period places the long task first; input (RM) order
        // places it last — with first-fit on two processors the resulting
        // partitions differ.
        let ts = TaskSetBuilder::new()
            .task(1, 4)
            .task(2, 8)
            .task(8, 16)
            .build()
            .unwrap();
        let by_dp = PartitionedRm::new()
            .with_sort(SortOrder::DecreasingPeriod)
            .partition(&ts, 2)
            .unwrap();
        let by_in = PartitionedRm::new()
            .with_sort(SortOrder::InputOrder)
            .partition(&ts, 2)
            .unwrap();
        // dp: (8,16) lands on P0 first; in: (1,4) lands on P0 first.
        assert_eq!(by_dp.processors[0].workload()[0].period.ticks(), 16);
        assert_eq!(by_in.processors[0].workload()[0].period.ticks(), 4);
    }

    #[test]
    fn splitting_free_failure_on_the_classic_adversary() {
        // M+1 tasks of utilization just over 50% on M processors: strict
        // partitioning fails (the bin-packing 50% wall), although
        // U_M ≈ 0.75 only.
        let ts = TaskSetBuilder::new()
            .task(51, 100)
            .task(51, 100)
            .task(51, 100)
            .build()
            .unwrap();
        let err = PartitionedRm::ffd_rta().partition(&ts, 2).unwrap_err();
        assert_eq!(err.unassigned.len(), 1);
        // ... while RM-TS with splitting succeeds on the same input.
        let part = crate::RmTs::new().partition(&ts, 2).unwrap();
        assert!(part.verify_rta());
        assert_eq!(part.split_tasks().len(), 1);
    }

    #[test]
    fn names() {
        assert_eq!(PartitionedRm::ffd_rta().name(), "P-RM-FFD/RTA");
        let wfd = PartitionedRm::new()
            .with_fit(Fit::Worst)
            .with_admission(UniAdmission::Hyperbolic);
        assert_eq!(wfd.name(), "P-RM-WFD/HYP");
        let nf = PartitionedRm::new()
            .with_fit(Fit::Next)
            .with_admission(UniAdmission::Chen)
            .with_sort(SortOrder::DecreasingPeriod);
        assert_eq!(nf.name(), "P-RM-NFDp/CHEN");
        let bfi = PartitionedRm::new()
            .with_fit(Fit::Best)
            .with_sort(SortOrder::InputOrder);
        assert_eq!(bfi.name(), "P-RM-BFI/RTA");
    }
}
