//! `MaxSplit` (paper Definition 3): the largest first part of a (sub)task
//! that fits on a processor without making anything unschedulable.
//!
//! Two interchangeable strategies are provided, mirroring the paper's
//! remark that `MaxSplit` "can be implemented by, for example, performing a
//! binary search over `[0, C]`", while "a more efficient implementation was
//! presented in \[22\], in which one only needs to check a (small) number of
//! possible values". Both are exact; property tests in `rmts-rta` prove
//! they agree, and the ablation bench (`ABL-1`) measures the speed gap.

use rmts_rta::budget::{max_admissible_budget, max_admissible_budget_bsearch, NewcomerSpec};
use rmts_rta::RtaCache;
use rmts_taskmodel::{AnalysisError, BudgetMeter, Subtask, Time};
use serde::{Deserialize, Serialize};

/// Which exact `MaxSplit` implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MaxSplitStrategy {
    /// Monotone binary search over `[0, C]` with a full RTA probe per step.
    BinarySearch,
    /// Slack evaluation at TDA scheduling points (the \[22\]-style
    /// implementation). Default: asymptotically and practically faster.
    #[default]
    SchedulingPoints,
}

impl MaxSplitStrategy {
    /// The largest budget `X ≤ cap` such that the processor workload plus
    /// the newcomer with budget `X` stays fully schedulable.
    pub fn max_budget(self, workload: &[Subtask], new: &NewcomerSpec, cap: Time) -> Time {
        match self {
            MaxSplitStrategy::BinarySearch => max_admissible_budget_bsearch(workload, new, cap),
            MaxSplitStrategy::SchedulingPoints => max_admissible_budget(workload, new, cap),
        }
    }

    /// The same quantity, computed through the processor's incremental
    /// admission cache: binary-search probes warm-start from cached
    /// response times; scheduling-point evaluation streams interferer
    /// prefixes off the priority-sorted slice and reuses the cache's
    /// internal point buffer. Bit-identical to [`Self::max_budget`]
    /// (property-tested in `rmts-rta`).
    ///
    /// Only the binary search charges `meter`, so a budgeted caller uses
    /// [`MaxSplitStrategy::BinarySearch`] (admission does); the
    /// scheduling-point evaluation never fails.
    pub fn max_budget_cached(
        self,
        cache: &mut RtaCache,
        new: &NewcomerSpec,
        cap: Time,
        meter: &BudgetMeter,
    ) -> Result<Time, AnalysisError> {
        match self {
            MaxSplitStrategy::BinarySearch => cache.max_budget_bsearch(new, cap, meter),
            MaxSplitStrategy::SchedulingPoints => Ok(cache.max_budget_points(new, cap)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_taskmodel::{Priority, SubtaskKind, TaskId};

    fn sub(prio: u32, c: u64, t: u64) -> Subtask {
        Subtask {
            parent: TaskId(prio),
            seq: 1,
            kind: SubtaskKind::Whole,
            wcet: Time::new(c),
            period: Time::new(t),
            deadline: Time::new(t),
            priority: Priority(prio),
        }
    }

    #[test]
    fn strategies_agree() {
        let w = [sub(4, 3, 12), sub(6, 2, 24)];
        let new = NewcomerSpec {
            parent: TaskId(0),
            period: Time::new(4),
            deadline: Time::new(4),
            priority: Priority(0),
        };
        let cap = Time::new(100);
        assert_eq!(
            MaxSplitStrategy::BinarySearch.max_budget(&w, &new, cap),
            MaxSplitStrategy::SchedulingPoints.max_budget(&w, &new, cap)
        );
    }

    #[test]
    fn cached_variants_agree_with_scratch() {
        let w = [sub(4, 3, 12), sub(6, 2, 24)];
        let new = NewcomerSpec {
            parent: TaskId(0),
            period: Time::new(4),
            deadline: Time::new(4),
            priority: Priority(0),
        };
        let mut cache = RtaCache::from_workload(&w);
        for cap in [0u64, 2, 5, 100] {
            let cap = Time::new(cap);
            for strat in [
                MaxSplitStrategy::BinarySearch,
                MaxSplitStrategy::SchedulingPoints,
            ] {
                assert_eq!(
                    Ok(strat.max_budget(&w, &new, cap)),
                    strat.max_budget_cached(&mut cache, &new, cap, &BudgetMeter::unlimited()),
                    "{strat:?} cap {cap:?}"
                );
            }
        }
    }

    #[test]
    fn default_is_scheduling_points() {
        assert_eq!(
            MaxSplitStrategy::default(),
            MaxSplitStrategy::SchedulingPoints
        );
    }
}
