//! Sensitivity analysis: how much execution-time growth a schedulable
//! workload tolerates.
//!
//! Two exact quantities, both closed-form over TDA scheduling points:
//!
//! * [`scaling_factor`] — the critical scaling factor `λ*`: the largest
//!   `λ` such that multiplying **every** budget by `λ` keeps the workload
//!   schedulable. Since the demand `W_i(t)` is linear in the budgets,
//!   `λ* = min_i max_{t ∈ points(Δ_i)} t / W_i(t)` — the uniprocessor
//!   machinery behind breakdown-utilization experiments, exposed directly.
//! * [`wcet_slack`] — the largest extra budget **one** (sub)task can take
//!   before something misses, computed by re-admitting it through the
//!   `MaxSplit` engine.

use crate::budget::{max_admissible_budget, NewcomerSpec};
use crate::rta::higher_priority_of;
use crate::tda::{scheduling_points, time_demand};
use rmts_taskmodel::{Subtask, Time};

/// The critical scaling factor `λ*` of a workload (1.0 means "already at
/// the edge"; values < 1.0 mean the workload is unschedulable and must be
/// deflated by that factor to fit). Returns `f64::INFINITY` for an empty
/// workload.
pub fn scaling_factor(workload: &[Subtask]) -> f64 {
    let mut lambda = f64::INFINITY;
    for (i, me) in workload.iter().enumerate() {
        let hp: Vec<(Time, Time)> = higher_priority_of(workload, i).collect();
        let periods: Vec<Time> = hp.iter().map(|&(_, t)| t).collect();
        let mut best = 0.0f64;
        for t in scheduling_points(me.deadline, &periods) {
            let demand = time_demand(me.wcet, &hp, t);
            if demand.is_zero() {
                return f64::INFINITY; // zero-budget degenerate
            }
            best = best.max(t.ticks() as f64 / demand.ticks() as f64);
        }
        lambda = lambda.min(best);
    }
    lambda
}

/// The largest extra budget `workload[index]` can absorb while the whole
/// workload stays schedulable. `None` if the workload is already
/// unschedulable.
pub fn wcet_slack(workload: &[Subtask], index: usize) -> Option<Time> {
    let me = workload[index];
    // Remove `me`, then ask the admission engine for the maximum budget a
    // task with its shape could bring; the slack is the surplus over C.
    let rest: Vec<Subtask> = workload
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != index)
        .map(|(_, s)| *s)
        .collect();
    let spec = NewcomerSpec {
        parent: me.parent,
        period: me.period,
        deadline: me.deadline,
        priority: me.priority,
    };
    let max = max_admissible_budget(&rest, &spec, me.deadline);
    max.checked_sub(me.wcet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::is_schedulable;
    use proptest::prelude::*;
    use rmts_taskmodel::{Priority, SubtaskKind, TaskId};

    fn sub(id: u32, prio: u32, c: u64, t: u64) -> Subtask {
        Subtask {
            parent: TaskId(id),
            seq: 1,
            kind: SubtaskKind::Whole,
            wcet: Time::new(c),
            period: Time::new(t),
            deadline: Time::new(t),
            priority: Priority(prio),
        }
    }

    #[test]
    fn saturated_harmonic_has_factor_one() {
        // (2,4)+(2,8)+(2,8): U = 1.0, exactly schedulable → λ* = 1.
        let w = [sub(0, 0, 2, 4), sub(1, 1, 2, 8), sub(2, 2, 2, 8)];
        assert!((scaling_factor(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slack_matches_manual_count() {
        // Lone task (3, 10): can grow to 10.
        let w = [sub(0, 0, 3, 10)];
        assert_eq!(wcet_slack(&w, 0), Some(Time::new(7)));
    }

    #[test]
    fn unschedulable_reports_factor_below_one_and_no_slack() {
        let w = [sub(0, 0, 3, 4), sub(1, 1, 3, 6)];
        assert!(!is_schedulable(&w));
        assert!(scaling_factor(&w) < 1.0);
        assert_eq!(wcet_slack(&w, 1), None);
    }

    #[test]
    fn factor_of_textbook_set() {
        // (1,4)+(2,6)+(3,12): λ* computed by hand for τ3's points
        // {4,6,8,12}: t/W = 4/6, 6/8, 8/9, 12/10 → max 1.2; τ2: {4,6}:
        // 4/3, 6/4 → 1.5; τ1: {4}: 4/1 → 4. λ* = 1.2.
        let w = [sub(0, 0, 1, 4), sub(1, 1, 2, 6), sub(2, 2, 3, 12)];
        assert!((scaling_factor(&w) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_workload() {
        assert_eq!(scaling_factor(&[]), f64::INFINITY);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// λ* is exact: deflating to just below λ*·C keeps the set
        /// schedulable; inflating just above breaks it (checked on
        /// schedulable random workloads with integral headroom).
        #[test]
        fn scaling_factor_is_critical(
            raw in proptest::collection::vec((1u64..8, 2u64..6), 1..5)
        ) {
            let mut w = Vec::new();
            for (i, &(c_seed, t_mul)) in raw.iter().enumerate() {
                let t = 6 * t_mul;
                let c = 1 + c_seed % (t / 2);
                w.push(sub(i as u32, i as u32, c, t));
            }
            prop_assume!(is_schedulable(&w));
            let lambda = scaling_factor(&w);
            prop_assert!(lambda >= 1.0);
            // Scale budgets by a factor just below λ*: stays schedulable.
            let under: Vec<Subtask> = w.iter().map(|s| Subtask {
                wcet: Time::new(((s.wcet.ticks() as f64) * lambda).floor().max(1.0) as u64),
                ..*s
            }).collect();
            let feasible: Vec<Subtask> = under.iter()
                .map(|s| Subtask { wcet: s.wcet.min(s.deadline), ..*s }).collect();
            prop_assert!(is_schedulable(&feasible),
                "λ* = {lambda} was not safe for {w:?}");
        }

        /// wcet_slack is exact: adding the slack keeps schedulability,
        /// adding one more tick breaks it.
        #[test]
        fn slack_is_tight(
            raw in proptest::collection::vec((1u64..8, 2u64..6), 2..5),
            pick in 0usize..4,
        ) {
            let mut w = Vec::new();
            for (i, &(c_seed, t_mul)) in raw.iter().enumerate() {
                let t = 6 * t_mul;
                let c = 1 + c_seed % (t / 2);
                w.push(sub(i as u32, i as u32, c, t));
            }
            prop_assume!(is_schedulable(&w));
            let idx = pick % w.len();
            let slack = wcet_slack(&w, idx).expect("schedulable");
            let mut grown = w.clone();
            grown[idx].wcet = w[idx].wcet + slack;
            prop_assert!(is_schedulable(&grown), "slack {slack} unsafe");
            if grown[idx].wcet < grown[idx].deadline {
                grown[idx].wcet += Time::new(1);
                prop_assert!(!is_schedulable(&grown), "slack {slack} not tight");
            }
        }
    }
}
