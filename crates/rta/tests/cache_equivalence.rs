//! Property tests: the incremental admission cache ([`RtaCache`]) makes
//! *bit-identical* decisions to the scratch analyses it replaces.
//!
//! The cache's claims are (a) cached response times equal a full
//! [`response_time`] recomputation over the same workload, (b)
//! [`RtaCache::probe_remember`] equals [`admits_budget`], (c) both cached
//! `MaxSplit` variants equal their scratch counterparts, and (d) incremental
//! maintenance (a sequence of probes, each accept pushed through the probe's
//! memoized fixed points) never diverges from a cache rebuilt from the
//! accumulated workload. Probes and searches run under an unlimited
//! [`BudgetMeter`], the production entry points' zero-cost case. Workload generation deliberately produces
//! overloaded processors too, so the "misses are sticky" path (a cached
//! `None` response) is exercised alongside the schedulable common case.

use proptest::prelude::*;
use rmts_rta::budget::{
    admits_budget, max_admissible_budget, max_admissible_budget_bsearch, NewcomerSpec,
};
use rmts_rta::rta::{is_schedulable, response_time};
use rmts_rta::RtaCache;
use rmts_taskmodel::{BudgetMeter, Priority, Subtask, SubtaskKind, TaskId, Time};

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

/// Raw generator tuple → subtask. Periods land in `[4, 25]`, budgets in
/// `[1, T]`, deadlines in `[C, T]` (constrained), priorities in a small
/// range so collisions (equal-priority blocks) occur regularly.
fn build(raw: &[(u64, u64, u64, u32)]) -> Vec<Subtask> {
    raw.iter()
        .enumerate()
        .map(|(i, &(c_seed, t_mul, d_slack, prio))| {
            let t = 4 * t_mul + c_seed % 5;
            let c = 1 + c_seed % t;
            let d = (c + d_slack).min(t).max(c);
            sub(i as u32, prio, c, t, d)
        })
        .collect()
}

fn newcomer(prio: u32, t: u64) -> NewcomerSpec {
    NewcomerSpec {
        parent: TaskId(99),
        period: Time::new(t),
        deadline: Time::new(t),
        priority: Priority(prio),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Building a cache from a workload yields exactly the response times a
    /// scratch recomputation produces, entry by entry, and the same overall
    /// schedulability verdict.
    #[test]
    fn cached_responses_equal_scratch(
        raw in proptest::collection::vec((1u64..12, 1u64..6, 0u64..8, 0u32..6), 0..7),
    ) {
        let w = build(&raw);
        let cache = RtaCache::from_workload(&w);
        prop_assert_eq!(cache.len(), w.len());
        // Per-entry parity over the cache's own (priority-sorted) order.
        let sorted = cache.subtasks().to_vec();
        for (i, r) in cache.responses().iter().enumerate() {
            prop_assert_eq!(*r, response_time(&sorted, i), "index {} of {:?}", i, sorted);
        }
        prop_assert_eq!(cache.is_schedulable(), is_schedulable(&w));
    }

    /// `probe_remember` answers exactly as the scratch whole-workload re-analysis
    /// `admits_budget`, across random budgets — including budgets past the
    /// deadline and workloads with pre-existing misses.
    #[test]
    fn probe_equals_admits_budget(
        raw in proptest::collection::vec((1u64..12, 1u64..6, 0u64..8, 0u32..6), 0..7),
        new_prio in 0u32..7,
        new_t_mul in 1u64..6,
        budgets in proptest::collection::vec(0u64..24, 1..8),
    ) {
        let w = build(&raw);
        let new = newcomer(new_prio, 3 * new_t_mul + 2);
        let mut cache = RtaCache::from_workload(&w);
        let meter = BudgetMeter::unlimited();
        for &x in &budgets {
            let x = Time::new(x);
            prop_assert_eq!(
                cache.probe_remember(&new, x, &meter),
                Ok(admits_budget(&w, &new, x)),
                "budget {:?} newcomer {:?} workload {:?}", x, new, w
            );
        }
    }

    /// Both cached `MaxSplit` variants are bit-identical to their scratch
    /// counterparts (which the existing `budget.rs` property test already
    /// proves equal to each other).
    #[test]
    fn cached_maxsplit_equals_scratch(
        raw in proptest::collection::vec((1u64..12, 1u64..6, 0u64..8, 0u32..6), 0..7),
        new_prio in 0u32..7,
        new_t_mul in 1u64..6,
        cap in 0u64..30,
    ) {
        let w = build(&raw);
        let new = newcomer(new_prio, 3 * new_t_mul + 2);
        let cap = Time::new(cap);
        let mut cache = RtaCache::from_workload(&w);
        prop_assert_eq!(
            cache.max_budget_bsearch(&new, cap, &BudgetMeter::unlimited()),
            Ok(max_admissible_budget_bsearch(&w, &new, cap))
        );
        prop_assert_eq!(
            cache.max_budget_points(&new, cap),
            max_admissible_budget(&w, &new, cap)
        );
    }

    /// Incremental maintenance: an admission sequence (probe, then push on
    /// accept) tracked by one long-lived cache agrees at every step with
    /// (a) scratch analyses of the accumulated workload and (b) a cache
    /// rebuilt from scratch after each step.
    #[test]
    fn admission_sequences_never_diverge(
        raw in proptest::collection::vec((1u64..12, 1u64..6, 0u64..8, 0u32..6), 1..10),
    ) {
        let candidates = build(&raw);
        let mut cache = RtaCache::new();
        let mut accepted: Vec<Subtask> = Vec::new();
        let meter = BudgetMeter::unlimited();
        for s in candidates {
            let spec = NewcomerSpec {
                parent: s.parent,
                period: s.period,
                deadline: s.deadline,
                priority: s.priority,
            };
            let verdict = cache.probe_remember(&spec, s.wcet, &meter);
            prop_assert_eq!(verdict, Ok(admits_budget(&accepted, &spec, s.wcet)));
            if verdict == Ok(true) {
                cache.push(s);
                accepted.push(s);
            }
            let rebuilt = RtaCache::from_workload(&accepted);
            prop_assert_eq!(cache.subtasks(), rebuilt.subtasks());
            prop_assert_eq!(cache.responses(), rebuilt.responses());
        }
        // The surviving workload is schedulable by construction.
        prop_assert!(cache.is_schedulable());
    }

    /// Pushing an *inadmissible* subtask anyway (the cache supports it —
    /// partitioners never do, but audits mutate workloads freely) still
    /// tracks the scratch analysis, including sticky misses.
    #[test]
    fn unconditional_pushes_track_scratch(
        raw in proptest::collection::vec((1u64..12, 1u64..6, 0u64..8, 0u32..6), 1..10),
    ) {
        let all = build(&raw);
        let mut cache = RtaCache::new();
        let mut workload: Vec<Subtask> = Vec::new();
        for s in all {
            let returned = cache.push(s);
            workload.push(s);
            let sorted = cache.subtasks().to_vec();
            for (i, r) in cache.responses().iter().enumerate() {
                prop_assert_eq!(*r, response_time(&sorted, i));
            }
            // The push's own return value matches a scratch analysis of the
            // newcomer inside the final workload (first equal slot).
            let pos = cache
                .subtasks()
                .iter()
                .position(|x| x == &s)
                .expect("pushed subtask must be present");
            prop_assert_eq!(returned, response_time(&sorted, pos));
            prop_assert_eq!(cache.is_schedulable(), is_schedulable(&workload));
        }
    }
}
