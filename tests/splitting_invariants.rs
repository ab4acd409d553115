//! Property-based invariants of the partitioning algorithms.

use proptest::prelude::*;
use rmts::bounds::thresholds::{is_light_set, light_threshold};
use rmts::core::overhead::{inflate, overhead_tolerance, OverheadModel};
use rmts::core::ProcessorRole;
use rmts::prelude::*;
use rmts::taskmodel::TaskSet;

/// Strategy: a feasible-ish random task set plus a processor count.
fn arb_instance() -> impl Strategy<Value = (TaskSet, usize)> {
    (2usize..=4, 4usize..=12, 40u64..95)
        .prop_flat_map(|(m, n, u_pct)| arb_tasks(m, n, u_pct, |_| 0.95))
}

/// Strategy: a light task set (every `U_i ≤ Θ(N)/(1+Θ(N))`, Definition 1)
/// plus a processor count.
fn arb_light_instance() -> impl Strategy<Value = (TaskSet, usize)> {
    (2usize..=8, 8usize..=32, 60u64..110)
        .prop_flat_map(|(m, n, u_pct)| arb_tasks(m, n, u_pct, |n| light_threshold(ll_bound(n))))
}

/// Strategy: `n` tasks whose utilizations total `u_pct`% of `m`
/// processors, each capped at `u_max(n)`.
fn arb_tasks(
    m: usize,
    n: usize,
    u_pct: u64,
    u_max: fn(usize) -> f64,
) -> impl Strategy<Value = (TaskSet, usize)> {
    let total = u_pct as f64 / 100.0 * m as f64;
    proptest::collection::vec((1u64..=4, 1u64..100), n).prop_map(move |raw| {
        // Periods from a divisor-friendly menu; utilizations from raw
        // weights normalized to the target total.
        let menu = [5_000u64, 10_000, 15_000, 20_000, 30_000, 60_000];
        let wsum: f64 = raw.iter().map(|&(_, w)| w as f64).sum();
        let tasks: Vec<Task> = raw
            .iter()
            .enumerate()
            .map(|(i, &(pm, w))| {
                let t = menu[(pm as usize + i) % menu.len()];
                let u = (total * w as f64 / wsum).min(u_max(n));
                let c = ((t as f64) * u).floor().max(1.0) as u64;
                Task::from_ticks(i as u32, c.min(t), t).unwrap()
            })
            .collect();
        (TaskSet::new(tasks).unwrap(), m)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Accepted partitions conserve every task's budget exactly, pass RTA,
    /// and never split a task across fewer than two processors.
    #[test]
    fn accepted_partitions_are_wellformed((ts, m) in arb_instance()) {
        for alg in [&RmTs::new() as &dyn Partitioner, &RmTsLight::new()] {
            let Ok(part) = alg.partition(&ts, m) else { continue };
            prop_assert!(part.covers(&ts), "{}: budget mismatch", alg.name());
            prop_assert!(part.verify_rta(), "{}: RTA failed", alg.name());
            prop_assert_eq!(part.num_processors(), m);
            for plan in part.plans.values() {
                if plan.is_split() {
                    let mut hosts: Vec<usize> =
                        plan.parts().map(|p| p.processor).collect();
                    let total_parts = hosts.len();
                    hosts.dedup();
                    prop_assert_eq!(hosts.len(), total_parts,
                        "a task's subtasks must be on pairwise distinct processors");
                    prop_assert!(total_parts >= 2);
                }
            }
        }
    }

    /// RM-TS/light: body subtasks have the highest priority on their host
    /// processor (paper Lemma 2).
    #[test]
    fn lemma2_body_subtasks_have_highest_local_priority((ts, m) in arb_instance()) {
        let Ok(part) = RmTsLight::new().partition(&ts, m) else { return Ok(()) };
        for proc in &part.processors {
            for s in proc.workload() {
                if s.kind.is_body() {
                    let top = proc.highest_priority().unwrap();
                    prop_assert_eq!(top.parent, s.parent,
                        "body subtask must be the top priority on P{}", proc.index);
                }
            }
        }
    }

    /// The number of split tasks is at most M − 1: every split closes one
    /// processor, and the last processor cannot leave a remainder behind
    /// in an accepted partition.
    #[test]
    fn split_count_bounded_by_m_minus_1((ts, m) in arb_instance()) {
        for alg in [&RmTs::new() as &dyn Partitioner, &RmTsLight::new()] {
            let Ok(part) = alg.partition(&ts, m) else { continue };
            prop_assert!(part.split_tasks().len() < m,
                "{}: {} splits on {} processors", alg.name(), part.split_tasks().len(), m);
        }
    }

    /// Tail subtasks satisfy Eq. (1): Δ_tail = T − Σ body responses, and
    /// body budgets sum with the tail budget to C.
    #[test]
    fn eq1_synthetic_deadlines_hold((ts, m) in arb_instance()) {
        let Ok(part) = RmTs::new().partition(&ts, m) else { return Ok(()) };
        for plan in part.plans.values() {
            if !plan.is_split() { continue; }
            let subs = plan.subtasks();
            let tail = subs.last().unwrap().0;
            prop_assert!(tail.kind.is_tail());
            prop_assert_eq!(tail.deadline, plan.task().period - plan.body_response());
            let budget: Time = subs.iter().map(|(s, _)| s.wcet).sum();
            prop_assert_eq!(budget, plan.task().wcet);
        }
    }

    /// Dedicated processors host exactly one task, and that task's
    /// utilization exceeds the effective bound.
    #[test]
    fn dedicated_processors_are_exclusive((ts, m) in arb_instance()) {
        let alg = RmTs::new();
        let Ok(part) = alg.partition(&ts, m) else { return Ok(()) };
        let lambda = alg.effective_bound(&ts);
        for proc in &part.processors {
            if proc.role == ProcessorRole::Dedicated {
                prop_assert_eq!(proc.len(), 1);
                prop_assert!(proc.workload()[0].utilization() > lambda - 1e-9);
            }
        }
    }

    /// RM-TS reduces to RM-TS/light on light sets: with no heavy task and
    /// none above Λ, pre-assignment (Section V) and dedication (footnote 5)
    /// place nothing, so RM-TS runs only RM-TS/light's worst-fit phase.
    /// A rejection names RM-TS's (empty) pre-assigned phase as the last one
    /// run, but leaves the same tasks unassigned on the same processors.
    #[test]
    fn rmts_reduces_to_rmts_light_on_light_sets((ts, m) in arb_light_instance()) {
        prop_assert!(is_light_set(&ts));
        let light = RmTsLight::new().partition(&ts, m);
        for alg in [&RmTs::new() as &dyn Partitioner, &RmTs::new().with_bound(HarmonicChain)] {
            match (alg.partition(&ts, m), &light) {
                (Ok(a), Ok(b)) => prop_assert_eq!(&a, b, "{}", alg.name()),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(&a.unassigned, &b.unassigned, "{}", alg.name());
                    prop_assert_eq!(&a.partial, &b.partial, "{}", alg.name());
                }
                (a, b) => prop_assert!(false, "{}: verdicts differ (accepts: {} vs {})",
                    alg.name(), a.is_ok(), b.is_ok()),
            }
        }
    }

    /// Monotonicity in processors: if an algorithm accepts on m processors,
    /// it also accepts on m + 1 (more capacity never hurts these
    /// worst-fit-style algorithms on the same input).
    #[test]
    fn more_processors_never_hurt_rmts_light((ts, m) in arb_instance()) {
        if RmTsLight::new().accepts(&ts, m) {
            prop_assert!(RmTsLight::new().accepts(&ts, m + 1));
        }
    }

    /// Every accepted partition passes the independent structural audit
    /// (budget conservation, chain shape, distinct hosts, Eq. (1)).
    #[test]
    fn accepted_partitions_audit_clean((ts, m) in arb_instance()) {
        for alg in [&RmTs::new() as &dyn Partitioner, &RmTsLight::new()] {
            let Ok(part) = alg.partition(&ts, m) else { continue };
            let errors = audit(&part, &ts);
            prop_assert!(errors.is_empty(),
                "{}: audit found {:?}", alg.name(), errors);
        }
    }

    /// Overhead tolerance is exact on random accepted partitions: the
    /// reported cost verifies, one more tick does not.
    #[test]
    fn overhead_tolerance_tight((ts, m) in arb_instance()) {
        let Ok(part) = RmTs::new().partition(&ts, m) else { return Ok(()) };
        let tol = overhead_tolerance(&part);
        prop_assert!(inflate(&part, &OverheadModel::uniform(tol)).verify_rta());
        // Tightness only applies below the saturation point: inflation
        // clamps budgets at the synthetic deadline, so a processor hosting
        // a single task verifies at *any* cost and `overhead_tolerance`
        // returns its upper bound (the smallest deadline) instead.
        let min_deadline = part
            .processors
            .iter()
            .flat_map(|p| p.workload())
            .map(|s| s.deadline)
            .min()
            .unwrap();
        if tol < min_deadline {
            let one_more = OverheadModel::uniform(tol + Time::new(1));
            prop_assert!(!inflate(&part, &one_more).verify_rta(),
                "tolerance {tol} was not maximal");
        }
    }
}
