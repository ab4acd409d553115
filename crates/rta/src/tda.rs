//! Time-demand analysis (TDA) at scheduling points.
//!
//! Lehoczky, Sha & Ding's exact test: `τ_i` (with constrained deadline `Δ`)
//! is schedulable iff there exists a time `t ∈ (0, Δ]` with
//!
//! ```text
//! W_i(t) = C_i + Σ_j ⌈t / T_j⌉ · C_j ≤ t
//! ```
//!
//! Since `W_i` only changes value at multiples of the interferers' periods,
//! it suffices to check the *scheduling points*
//! `{ m·T_j : j ∈ hp(i), m ≥ 1, m·T_j ≤ Δ } ∪ {Δ}`.
//!
//! This is an independent implementation of the same exact criterion as
//! [`crate::rta`]; the two are cross-checked against each other by property
//! tests, and TDA's scheduling-point enumeration is reused by the efficient
//! admissible-budget computation in [`crate::budget`].
//!
//! Feasibility sweeps do **not** materialize the point set: because `W` is
//! constant between consecutive points and each sweep stops at the first
//! witness of `W(t) ≤ t`, the points are generated lazily in ascending
//! deduplicated order (`visit_points_ascending`) and everything past the
//! witness is pruned — never built, sorted, or evaluated. Only the slack
//! computations in [`crate::budget`], which genuinely need every point,
//! still use the materialized [`scheduling_points`] form.

use crate::rta::{higher_priority_of, interference};
use rmts_taskmodel::{AnalysisError, BudgetMeter, Subtask, Time};

/// Enumerates the scheduling points for a deadline `d` and a set of
/// higher-priority periods: all multiples of each period in `(0, d]`, plus
/// `d` itself. Sorted ascending, deduplicated.
pub fn scheduling_points(deadline: Time, hp_periods: &[Time]) -> Vec<Time> {
    let mut pts = Vec::new();
    scheduling_points_into(deadline, hp_periods.iter().copied(), &mut pts);
    pts
}

/// Allocation-free variant of [`scheduling_points`]: clears `out` and fills
/// it with the same sorted, deduplicated point set, reusing its capacity.
/// Used by the incremental admission cache on the partitioning hot path.
pub fn scheduling_points_into(
    deadline: Time,
    hp_periods: impl Iterator<Item = Time>,
    out: &mut Vec<Time>,
) {
    out.clear();
    for t in hp_periods {
        if t.is_zero() {
            continue;
        }
        let max_m = deadline.div_floor(t);
        for m in 1..=max_m {
            out.push(t * m);
        }
    }
    out.push(deadline);
    out.sort_unstable();
    out.dedup();
}

/// The time-demand function `W(t) = c + Σ ⌈t/T_j⌉·C_j`.
pub fn time_demand(c: Time, hp: &[(Time, Time)], t: Time) -> Time {
    hp.iter().fold(c, |acc, &(cj, tj)| {
        acc.saturating_add(interference(cj, tj, t))
    })
}

/// Visits the scheduling points for `deadline` and the periods of `hp` in
/// ascending, deduplicated order — the same point set as
/// [`scheduling_points`] — stopping at the first point `visit` accepts.
/// Returns whether a point was accepted.
///
/// This is the monotone-pruned form of the sweep: points past the first
/// witness are never generated (a k-way lazy merge over per-period
/// next-multiple cursors replaces materialize + sort + dedup), so a typical
/// feasibility check touches only a short prefix of the point set.
fn visit_points_ascending(
    deadline: Time,
    hp: &[(Time, Time)],
    mut visit: impl FnMut(Time) -> bool,
) -> bool {
    // `(next multiple, period)` cursor per interferer; zero periods cannot
    // contribute points (matching `scheduling_points_into`).
    let mut next: Vec<(u64, u64)> = hp
        .iter()
        .filter(|&&(_, t)| !t.is_zero())
        .map(|&(_, t)| (t.ticks(), t.ticks()))
        .collect();
    let d = deadline.ticks();
    loop {
        let mut t = d;
        for &(n, _) in &next {
            if n < t {
                t = n;
            }
        }
        if visit(Time::new(t)) {
            return true;
        }
        if t == d {
            return false; // the deadline is always the last point
        }
        for cursor in &mut next {
            if cursor.0 == t {
                cursor.0 = cursor.0.saturating_add(cursor.1);
            }
        }
    }
}

/// TDA test for a single "virtual task" `(c, deadline)` against
/// higher-priority `(C_j, T_j)` interferers. Charges `meter` one iteration
/// per scheduling point evaluated, so a starved meter turns the point sweep
/// into a typed [`AnalysisError`]; pass [`BudgetMeter::unlimited`] for the
/// plain exact test.
pub fn tda_feasible(
    c: Time,
    deadline: Time,
    hp: &[(Time, Time)],
    meter: &BudgetMeter,
) -> Result<bool, AnalysisError> {
    if c > deadline {
        return Ok(false);
    }
    let mut err = None;
    let found = visit_points_ascending(deadline, hp, |t| {
        if let Err(e) = meter.charge_iterations(1) {
            err = Some(e);
            return true; // stop the sweep; the error wins below
        }
        time_demand(c, hp, t) <= t
    });
    match err {
        Some(e) => Err(e),
        None => Ok(found),
    }
}

/// TDA schedulability of `workload[index]` against its synthetic deadline
/// (unbudgeted: the RTA↔TDA cross-check oracle).
pub fn tda_task_schedulable(workload: &[Subtask], index: usize) -> bool {
    let me = &workload[index];
    let hp: Vec<(Time, Time)> = higher_priority_of(workload, index).collect();
    // An unlimited meter never exhausts, so the sweep always decides.
    tda_feasible(me.wcet, me.deadline, &hp, &BudgetMeter::unlimited()) == Ok(true)
}

/// TDA schedulability of the whole workload.
pub fn tda_schedulable(workload: &[Subtask]) -> bool {
    (0..workload.len()).all(|i| tda_task_schedulable(workload, i))
}

/// A sound upper bound on the response time of `workload[index]`, or
/// `None` if no scheduling point `t ≤ Δ` satisfies `W(t) ≤ t` (the subtask
/// misses its deadline). At the first such point the bound returned is
/// `W(t)` itself, not `t`: since `W` is monotone, `W(t) ≤ t` gives
/// `W(W(t)) ≤ W(t)`, so `W(t)` is a prefixed point and the exact response
/// `R` (the *least* fixed point) satisfies `R ≤ W(t) ≤ t ≤ Δ`. The
/// tightening matters downstream: the degradation ladder records this
/// value as the body response feeding Eq. (1) synthetic deadlines, and
/// returning `t` (often `Δ` exactly) would zero out the tail's deadline.
pub fn tda_response_bound(workload: &[Subtask], index: usize) -> Option<Time> {
    let me = &workload[index];
    if me.wcet > me.deadline {
        return None;
    }
    let hp: Vec<(Time, Time)> = higher_priority_of(workload, index).collect();
    let mut bound = None;
    visit_points_ascending(me.deadline, &hp, |t| {
        let w = time_demand(me.wcet, &hp, t);
        if w <= t {
            bound = Some(w);
            true
        } else {
            false
        }
    });
    bound
}

/// TDA admission probe: would `workload ∪ {newcomer}` stay schedulable?
/// Checks the newcomer plus every subtask the newcomer can preempt (tasks
/// of strictly higher priority are unaffected by the insertion). This is
/// the degradation ladder's second rung — the same exact criterion as RTA,
/// implemented independently, with its own budget accounting: one probe
/// charge per call, one iteration charge per scheduling point.
pub fn tda_admits(
    workload: &[Subtask],
    newcomer: &Subtask,
    meter: &BudgetMeter,
) -> Result<bool, AnalysisError> {
    meter.charge_probe()?;
    // One reused interferer buffer instead of materializing the combined
    // workload plus a fresh prefix per member. Verdicts and meter charges
    // are identical to checking `workload ∪ {newcomer}` member by member:
    // affected members in workload order, then the newcomer last.
    let mut hp: Vec<(Time, Time)> = Vec::with_capacity(workload.len());
    for (i, me) in workload.iter().enumerate() {
        if me.priority.is_higher_than(newcomer.priority) {
            continue; // the newcomer cannot preempt it — unaffected
        }
        hp.clear();
        hp.extend(higher_priority_of(workload, i));
        if newcomer.priority.is_higher_than(me.priority) {
            hp.push((newcomer.wcet, newcomer.period));
        }
        if !tda_feasible(me.wcet, me.deadline, &hp, meter)? {
            return Ok(false);
        }
    }
    hp.clear();
    hp.extend(
        workload
            .iter()
            .filter(|s| s.priority.is_higher_than(newcomer.priority))
            .map(|s| (s.wcet, s.period)),
    );
    tda_feasible(newcomer.wcet, newcomer.deadline, &hp, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::{is_schedulable, response_time};
    use proptest::prelude::*;
    use rmts_taskmodel::{Priority, SubtaskKind, TaskId};

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

    #[test]
    fn scheduling_points_enumeration() {
        let pts = scheduling_points(Time::new(12), &[Time::new(4), Time::new(6)]);
        let raw: Vec<u64> = pts.iter().map(|t| t.ticks()).collect();
        assert_eq!(raw, vec![4, 6, 8, 12]);
    }

    #[test]
    fn scheduling_points_include_deadline_only_for_no_hp() {
        let pts = scheduling_points(Time::new(7), &[]);
        assert_eq!(pts, vec![Time::new(7)]);
    }

    #[test]
    fn agrees_with_rta_on_textbook_set() {
        let w = [sub(0, 0, 1, 4, 4), sub(1, 1, 2, 6, 6), sub(2, 2, 3, 12, 12)];
        assert!(tda_schedulable(&w));
        assert!(is_schedulable(&w));
    }

    #[test]
    fn agrees_with_rta_on_miss() {
        let w = [sub(0, 0, 2, 4, 4), sub(1, 1, 3, 6, 6)];
        assert!(!tda_task_schedulable(&w, 1));
        assert!(response_time(&w, 1).is_none());
    }

    #[test]
    fn boundary_demand_equal_t() {
        // Demand exactly meets supply at a scheduling point.
        let hp = [(Time::new(2), Time::new(4))];
        let meter = BudgetMeter::unlimited();
        assert_eq!(
            tda_feasible(Time::new(2), Time::new(4), &hp, &meter),
            Ok(true)
        );
        assert_eq!(
            tda_feasible(Time::new(3), Time::new(4), &hp, &meter),
            Ok(false)
        );
    }

    #[test]
    fn metered_tda_matches_exact_and_exhausts_when_starved() {
        use rmts_taskmodel::AnalysisBudget;
        let w = [sub(0, 0, 1, 4, 4), sub(1, 1, 2, 6, 6)];
        let newcomer = sub(2, 2, 3, 12, 12);
        let meter = BudgetMeter::unlimited();
        assert_eq!(tda_admits(&w, &newcomer, &meter), Ok(true));
        let starved = AnalysisBudget::unlimited().with_max_iterations(0).start();
        assert!(tda_admits(&w, &newcomer, &starved).is_err());
        let probeless = AnalysisBudget::unlimited().with_max_probes(0).start();
        assert!(tda_admits(&w, &newcomer, &probeless).is_err());
    }

    #[test]
    fn response_bound_dominates_exact_response() {
        let w = [sub(0, 0, 1, 4, 4), sub(1, 1, 2, 6, 6), sub(2, 2, 3, 12, 12)];
        for i in 0..w.len() {
            let exact = response_time(&w, i).unwrap();
            let bound = tda_response_bound(&w, i).unwrap();
            assert!(bound >= exact, "index {i}: bound {bound} < exact {exact}");
            assert!(bound <= w[i].deadline);
        }
        // An unschedulable subtask has no bound.
        let bad = [sub(0, 0, 2, 4, 4), sub(1, 1, 3, 6, 6)];
        assert_eq!(tda_response_bound(&bad, 1), None);
    }

    #[test]
    fn metered_tda_rejects_infeasible_newcomer() {
        let w = [sub(0, 0, 2, 4, 4)];
        let newcomer = sub(1, 1, 3, 6, 6);
        let meter = BudgetMeter::unlimited();
        assert_eq!(tda_admits(&w, &newcomer, &meter), Ok(false));
    }

    proptest! {
        /// RTA and TDA are both exact tests, hence must agree on random
        /// constrained-deadline workloads.
        #[test]
        fn rta_equals_tda(
            raw in proptest::collection::vec((1u64..20, 1u64..6, 0u64..10), 1..7)
        ) {
            // Build a workload with strictly decreasing priorities; periods
            // derived multiplicatively to vary interference patterns.
            let mut w = Vec::new();
            for (i, &(c_seed, t_mul, d_slack)) in raw.iter().enumerate() {
                let t = 4 * t_mul + c_seed % 5; // period in [4, 28]
                let c = 1 + c_seed % t;          // 1 ≤ c ≤ t
                let d = (c + d_slack).min(t).max(c); // c ≤ d ≤ t
                w.push(sub(i as u32, i as u32, c, t, d));
            }
            for i in 0..w.len() {
                let rta_ok = response_time(&w, i).is_some();
                let tda_ok = tda_task_schedulable(&w, i);
                prop_assert_eq!(rta_ok, tda_ok, "disagreement at index {}", i);
            }
        }

        /// When RTA reports a response time R, the time-demand at R is
        /// exactly R (fixed-point property), and demand at any earlier
        /// scheduling point exceeds supply ... i.e. R is minimal.
        #[test]
        fn response_time_is_least_fixed_point(
            raw in proptest::collection::vec((1u64..15, 1u64..5), 1..6)
        ) {
            let mut w = Vec::new();
            for (i, &(c_seed, t_mul)) in raw.iter().enumerate() {
                let t = 5 * t_mul + c_seed % 7;
                let c = 1 + c_seed % ((t / 2).max(1));
                w.push(sub(i as u32, i as u32, c, t, t));
            }
            let idx = w.len() - 1;
            if let Some(r) = response_time(&w, idx) {
                let hp: Vec<(Time, Time)> = w[..idx].iter().map(|s| (s.wcet, s.period)).collect();
                prop_assert_eq!(time_demand(w[idx].wcet, &hp, r), r);
                // Minimality: every t < R has demand > t.
                for t in 1..r.ticks() {
                    let t = Time::new(t);
                    prop_assert!(time_demand(w[idx].wcet, &hp, t) > t);
                }
            }
        }
    }
}
