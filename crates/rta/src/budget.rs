//! Maximum admissible budget — the analysis engine behind `MaxSplit`.
//!
//! When the partitioning algorithm must split a (sub)task `τ_i^k` on a
//! processor `P_q`, it needs the **largest** first-part budget `X` such that
//! assigning `⟨X, T_i, Δ⟩` to `P_q` keeps every (sub)task on `P_q`
//! schedulable (paper Definition 3). Admission is monotone in `X`, so a
//! binary search over `[0, cap]` with full RTA per probe is exact
//! ([`max_admissible_budget_bsearch`]). The paper notes a more efficient
//! implementation \[22\] that only inspects a small set of candidate values;
//! [`max_admissible_budget`] realizes it by evaluating, per affected
//! (sub)task, the slack at its TDA scheduling points:
//!
//! * the newcomer itself is schedulable with any
//!   `X ≤ max_t (t − I_hp(t))` over its scheduling points `t ≤ Δ`;
//! * an existing lower-priority (sub)task `s` tolerates
//!   `X ≤ max_t ⌊(t − W_s(t)) / ⌈t/T_new⌉⌋` over `s`'s scheduling points
//!   (which now include multiples of the newcomer's period);
//! * higher-priority (sub)tasks are unaffected.
//!
//! The overall maximum is the minimum over all these per-task maxima, capped
//! by the remaining budget. Both implementations are cross-checked against
//! each other by property tests.

use crate::rta::{fixed_point, higher_priority_of};
use crate::tda::{scheduling_points, time_demand};
use rmts_taskmodel::{Priority, Subtask, SubtaskKind, TaskId, Time};

/// The shape of the (sub)task about to be placed: everything except its
/// budget, which is what we are solving for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewcomerSpec {
    /// Parent task id (used only to materialize probe subtasks).
    pub parent: TaskId,
    /// The parent's period `T_i`.
    pub period: Time,
    /// The synthetic deadline `Δ` the piece will have on this processor.
    pub deadline: Time,
    /// The parent's global RM priority.
    pub priority: Priority,
}

impl NewcomerSpec {
    /// Materializes the newcomer as a subtask with the given budget, for
    /// probing and for the final assignment.
    pub fn with_budget(&self, budget: Time, seq: u32, kind: SubtaskKind) -> Subtask {
        Subtask {
            parent: self.parent,
            seq,
            kind,
            wcet: budget,
            period: self.period,
            deadline: self.deadline,
            priority: self.priority,
        }
    }
}

/// `true` iff `workload ∪ {newcomer with budget x}` is fully schedulable:
/// the monotone feasibility probe behind [`max_admissible_budget_bsearch`],
/// re-analyzing every affected subtask from scratch. It is the reference
/// the incremental [`RtaCache`](crate::RtaCache) is property-tested against.
pub fn admits_budget(workload: &[Subtask], new: &NewcomerSpec, x: Time) -> bool {
    let mut fixed_points = 0u64;
    let ok = admits_counted(workload, new, x, &mut fixed_points);
    if fixed_points != 0 && rmts_obs::enabled() {
        // Scratch analysis runs a cold fixed point per affected subtask;
        // contrast with the `rta.cache.*` hit/miss split of the cached path.
        rmts_obs::count("rta.scratch.fixed_points", fixed_points);
    }
    ok
}

fn admits_counted(
    workload: &[Subtask],
    new: &NewcomerSpec,
    x: Time,
    fixed_points: &mut u64,
) -> bool {
    if x > new.deadline {
        return false;
    }
    // Newcomer's own response time.
    let hp_new: Vec<(Time, Time)> = workload
        .iter()
        .filter(|s| s.priority.is_higher_than(new.priority))
        .map(|s| (s.wcet, s.period))
        .collect();
    *fixed_points += 1;
    if fixed_point(x, new.deadline, &hp_new).is_none() {
        return false;
    }
    // Existing lower-priority subtasks with the newcomer's interference.
    for (i, s) in workload.iter().enumerate() {
        if !new.priority.is_higher_than(s.priority) {
            continue; // unaffected (higher or equal priority than newcomer)
        }
        let mut hp: Vec<(Time, Time)> = higher_priority_of(workload, i).collect();
        if !x.is_zero() {
            hp.push((x, new.period));
        }
        *fixed_points += 1;
        if fixed_point(s.wcet, s.deadline, &hp).is_none() {
            return false;
        }
    }
    true
}

/// Baseline: binary search for the largest admissible budget in `[0, cap]`.
///
/// Returns `Time::ZERO` when nothing fits (including when the workload is
/// already unschedulable on its own).
pub fn max_admissible_budget_bsearch(workload: &[Subtask], new: &NewcomerSpec, cap: Time) -> Time {
    if !admits_budget(workload, new, Time::ZERO) {
        return Time::ZERO;
    }
    let mut lo = Time::ZERO; // feasible
    let mut hi = cap.min(new.deadline); // candidate upper end
    if admits_budget(workload, new, hi) {
        return hi;
    }
    // Invariant: lo feasible, hi infeasible.
    let mut iters = 0u64;
    while hi.ticks() - lo.ticks() > 1 {
        iters += 1;
        let mid = Time::new((lo.ticks() + hi.ticks()) / 2);
        if admits_budget(workload, new, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    rmts_obs::count("rta.maxsplit.bsearch_iters", iters);
    lo
}

/// Efficient exact computation of the largest admissible budget in
/// `[0, cap]` by scheduling-point slack evaluation (the \[22\]-style
/// implementation the paper refers to in Section IV-A).
pub fn max_admissible_budget(workload: &[Subtask], new: &NewcomerSpec, cap: Time) -> Time {
    let cap = cap.min(new.deadline);
    if cap.is_zero() {
        return Time::ZERO;
    }

    // 1) The newcomer's own constraint: X ≤ max_t (t − I_hp(t)).
    let hp_new: Vec<(Time, Time)> = workload
        .iter()
        .filter(|s| s.priority.is_higher_than(new.priority))
        .map(|s| (s.wcet, s.period))
        .collect();
    let hp_new_periods: Vec<Time> = hp_new.iter().map(|&(_, t)| t).collect();
    let mut best = Time::ZERO;
    for t in scheduling_points(new.deadline, &hp_new_periods) {
        let demand = time_demand(Time::ZERO, &hp_new, t);
        if let Some(slack) = t.checked_sub(demand) {
            best = best.max(slack);
        }
    }
    let mut x_max = best.min(cap);

    // 2) Each existing lower-priority (sub)task's tolerance.
    for (i, s) in workload.iter().enumerate() {
        if !new.priority.is_higher_than(s.priority) {
            continue;
        }
        if x_max.is_zero() {
            return Time::ZERO;
        }
        let hp: Vec<(Time, Time)> = higher_priority_of(workload, i).collect();
        let mut periods: Vec<Time> = hp.iter().map(|&(_, t)| t).collect();
        periods.push(new.period);
        let mut tolerance: Option<Time> = None;
        for t in scheduling_points(s.deadline, &periods) {
            let demand = time_demand(s.wcet, &hp, t);
            if let Some(slack) = t.checked_sub(demand) {
                let releases = t.div_ceil(new.period);
                let x_t = Time::new(slack.ticks() / releases);
                tolerance = Some(tolerance.map_or(x_t, |cur| cur.max(x_t)));
            }
        }
        match tolerance {
            // No scheduling point works even with X = 0: the workload was
            // already unschedulable.
            None => return Time::ZERO,
            Some(tol) => x_max = x_max.min(tol),
        }
    }
    x_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::is_schedulable;
    use proptest::prelude::*;

    fn sub(id: u32, prio: u32, c: u64, t: u64, d: u64) -> Subtask {
        Subtask {
            parent: TaskId(id),
            seq: 1,
            kind: SubtaskKind::Whole,
            wcet: Time::new(c),
            period: Time::new(t),
            deadline: Time::new(d),
            priority: Priority(prio),
        }
    }

    fn newcomer(prio: u32, t: u64, d: u64) -> NewcomerSpec {
        NewcomerSpec {
            parent: TaskId(99),
            period: Time::new(t),
            deadline: Time::new(d),
            priority: Priority(prio),
        }
    }

    #[test]
    fn empty_processor_accepts_up_to_deadline() {
        let new = newcomer(0, 10, 10);
        assert_eq!(
            max_admissible_budget(&[], &new, Time::new(100)),
            Time::new(10)
        );
        assert_eq!(
            max_admissible_budget_bsearch(&[], &new, Time::new(100)),
            Time::new(10)
        );
    }

    #[test]
    fn cap_limits_result() {
        let new = newcomer(0, 10, 10);
        assert_eq!(max_admissible_budget(&[], &new, Time::new(3)), Time::new(3));
    }

    #[test]
    fn lower_priority_task_constrains_newcomer() {
        // Existing τ = (3, 12, Δ=12) at priority 5; newcomer has priority 0,
        // period 4. Condition for τ at t: 3 + ⌈t/4⌉X ≤ t.
        //   t=4: X ≤ (4−3)/1 = 1; t=8: X ≤ (8−3)/2 = 2 (floor 2.5);
        //   t=12: X ≤ (12−3)/3 = 3. → tolerance 3. Self: X ≤ 4 (deadline).
        let w = [sub(1, 5, 3, 12, 12)];
        let new = newcomer(0, 4, 4);
        let x = max_admissible_budget(&w, &new, Time::new(100));
        assert_eq!(x, Time::new(3));
        assert_eq!(
            max_admissible_budget_bsearch(&w, &new, Time::new(100)),
            Time::new(3)
        );
        // Sanity: the probe agrees at the boundary.
        assert!(admits_budget(&w, &new, Time::new(3)));
        assert!(!admits_budget(&w, &new, Time::new(4)));
    }

    #[test]
    fn higher_priority_tasks_constrain_newcomers_own_deadline() {
        // Existing high-priority hog (2,4); newcomer at lower priority with
        // Δ = 6: X + 2⌈R/4⌉ ≤ 6 → at t=4: 4−2=2, t=6: 6−4=2. X = 2.
        let w = [sub(0, 0, 2, 4, 4)];
        let new = newcomer(3, 12, 6);
        assert_eq!(
            max_admissible_budget(&w, &new, Time::new(100)),
            Time::new(2)
        );
        assert_eq!(
            max_admissible_budget_bsearch(&w, &new, Time::new(100)),
            Time::new(2)
        );
    }

    #[test]
    fn unschedulable_workload_admits_nothing() {
        let w = [sub(0, 0, 2, 4, 4), sub(1, 1, 3, 6, 6)]; // τ2 already misses
        let new = newcomer(2, 20, 20);
        assert_eq!(max_admissible_budget(&w, &new, Time::new(5)), Time::ZERO);
        assert_eq!(
            max_admissible_budget_bsearch(&w, &new, Time::new(5)),
            Time::ZERO
        );
    }

    #[test]
    fn saturated_processor_admits_zero() {
        // (2,4) + (2,8) + (2,8): U = 1.0, exactly schedulable. Highest
        // priority newcomer with period 4 cannot bring any budget.
        let w = [sub(1, 1, 2, 4, 4), sub(2, 2, 2, 8, 8), sub(3, 3, 2, 8, 8)];
        assert!(is_schedulable(&w));
        let new = newcomer(0, 4, 4);
        assert_eq!(max_admissible_budget(&w, &new, Time::new(4)), Time::ZERO);
    }

    #[test]
    fn bottleneck_exists_after_max_split() {
        // Definition 2: after assigning the max budget, some task becomes
        // unschedulable if the highest-priority budget grows by 1 tick.
        let w = [sub(1, 5, 3, 12, 12), sub(2, 7, 2, 24, 24)];
        let new = newcomer(0, 4, 4);
        let x = max_admissible_budget(&w, &new, Time::new(100));
        assert!(x > Time::ZERO);
        assert!(admits_budget(&w, &new, x));
        assert!(!admits_budget(&w, &new, x + Time::new(1)));
    }

    #[test]
    fn newcomer_between_existing_priorities() {
        // Newcomer priority 2 sits between existing priorities 1 and 3:
        // only the priority-3 task constrains it from below; the priority-1
        // task constrains the newcomer's own response.
        let w = [sub(0, 1, 1, 5, 5), sub(1, 3, 2, 10, 10)];
        let new = newcomer(2, 8, 8);
        let x = max_admissible_budget(&w, &new, Time::new(100));
        let xb = max_admissible_budget_bsearch(&w, &new, Time::new(100));
        assert_eq!(x, xb);
        assert!(x > Time::ZERO);
        assert!(admits_budget(&w, &new, x));
        assert!(!admits_budget(&w, &new, x + Time::new(1)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The closed-form scheduling-point computation agrees exactly with
        /// the binary search on random workloads, priorities and caps.
        #[test]
        fn closed_form_matches_bsearch(
            raw in proptest::collection::vec((1u64..12, 1u64..6, 0u64..8, 0u32..10), 0..6),
            new_prio in 0u32..10,
            new_t_mul in 1u64..6,
            cap in 0u64..30,
        ) {
            let mut w = Vec::new();
            for (i, &(c_seed, t_mul, d_slack, prio)) in raw.iter().enumerate() {
                let t = 4 * t_mul + c_seed % 5;
                let c = 1 + c_seed % t;
                let d = (c + d_slack).min(t).max(c);
                // Make priorities unique by mixing in the index.
                w.push(sub(i as u32, prio * 16 + i as u32, c, t, d));
            }
            let t_new = 3 * new_t_mul + 2;
            let new = NewcomerSpec {
                parent: TaskId(99),
                period: Time::new(t_new),
                deadline: Time::new(t_new),
                priority: Priority(new_prio * 16 + 15), // unique vs. workload
            };
            let a = max_admissible_budget(&w, &new, Time::new(cap));
            let b = max_admissible_budget_bsearch(&w, &new, Time::new(cap));
            prop_assert_eq!(a, b);
            // And the result really is maximal-feasible.
            if a > Time::ZERO {
                prop_assert!(admits_budget(&w, &new, a));
            }
            if a < Time::new(cap).min(new.deadline) {
                prop_assert!(!admits_budget(&w, &new, a + Time::new(1)));
            }
        }

        /// Admission is monotone in the budget: if X admits, so does X−1.
        #[test]
        fn admission_monotone(
            raw in proptest::collection::vec((1u64..10, 1u64..5, 0u32..8), 1..5),
            x in 1u64..20,
        ) {
            let mut w = Vec::new();
            for (i, &(c_seed, t_mul, prio)) in raw.iter().enumerate() {
                let t = 4 * t_mul + 1;
                let c = 1 + c_seed % t;
                w.push(sub(i as u32, prio * 8 + i as u32, c, t, t));
            }
            let new = NewcomerSpec {
                parent: TaskId(99),
                period: Time::new(9),
                deadline: Time::new(9),
                priority: Priority(3),
            };
            if admits_budget(&w, &new, Time::new(x)) {
                prop_assert!(admits_budget(&w, &new, Time::new(x - 1)));
            }
        }
    }
}
