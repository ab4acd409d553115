//! Admission policies: what "fits on this processor" means.
//!
//! The paper's central algorithmic delta over the prior work \[16\] is the
//! admission test used during partitioning:
//!
//! * [`AdmissionPolicy::ExactRta`] — RM-TS/RM-TS/light: a (sub)task is
//!   admitted iff exact response-time analysis shows every (sub)task on the
//!   processor (including the newcomer) meets its synthetic deadline.
//! * [`AdmissionPolicy::DensityThreshold`] — the \[16\]-style test: a
//!   (sub)task is admitted iff the processor's *density* (utilization with
//!   synthetic deadlines in place of periods, i.e. the period-shrinking
//!   transformation of Fig. 2-(d)) stays at or below a threshold `θ`
//!   (typically `Θ(N)`, the L&L bound).
//!
//! Both expose the same interface, so the engine in [`crate::engine`] is
//! generic over them and experiments isolate exactly this difference.
//!
//! Each admission question has one entry point, and each takes the run's
//! [`AnalysisControl`] and walks the degradation ladder itself:
//! [`AdmissionPolicy::fits_whole`] (does the piece fit?),
//! [`AdmissionPolicy::max_budget`] (how much of it fits — `MaxSplit`) and
//! [`AdmissionPolicy::record_response`] (which response feeds the next
//! synthetic deadline). An unlimited control is the zero-cost case: it
//! never exhausts, so the ladder is never walked.
//!
//! Exact-RTA admission runs through the processor's incremental
//! [`RtaCache`](rmts_rta::RtaCache) by default: probes warm-start from
//! cached response times and skip subtasks the newcomer cannot affect. The
//! `cached: false` variant ([`AdmissionPolicy::exact`]`.`[`uncached`](AdmissionPolicy::uncached))
//! re-analyzes from scratch on every probe; it exists to benchmark the
//! cache and to property-test that both paths make bit-identical decisions.
//! Under a finite budget, exact admission always meters through the cache
//! (and `MaxSplit` through its binary search), so `cached` and
//! [`MaxSplitStrategy`] choose an implementation only on unlimited runs and
//! a budgeted answer never depends on them.
//!
//! When a [`rmts_obs::Recording`] is live, every [`AdmissionPolicy::fits_whole`]
//! call contributes to the `core.admission.*` decision counters. They count
//! *decisions*, not analysis work, so the cached and scratch exact paths
//! produce identical values on identical inputs (the `rta.cache.*` counters
//! are where the two paths differ).

use crate::ladder::{AnalysisControl, Rung};
use crate::maxsplit::MaxSplitStrategy;
use crate::processor::ProcessorState;
use rmts_rta::budget::{admits_budget, NewcomerSpec};
use rmts_rta::{response_time, tda_admits, tda_response_bound};
use rmts_taskmodel::{AnalysisError, BudgetMeter, Subtask, SubtaskKind, Time};
use serde::{Deserialize, Serialize};

/// Tolerance for floating-point threshold comparisons.
const EPS: f64 = 1e-9;

/// The admission test used by a partitioning engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Exact response-time analysis (the paper's RM-TS family).
    ExactRta {
        /// Which `MaxSplit` implementation to use.
        strategy: MaxSplitStrategy,
        /// Route admission through the processor's incremental RTA cache
        /// (default). `false` re-analyzes from scratch on every probe —
        /// same decisions, no reuse; kept for benchmarks and equivalence
        /// tests.
        cached: bool,
    },
    /// Density threshold (the \[16\]-style SPA family).
    DensityThreshold {
        /// The threshold `θ`, e.g. `Θ(N)`.
        theta: f64,
    },
}

impl AdmissionPolicy {
    /// Exact RTA with the default (scheduling-point) `MaxSplit`, served
    /// from the incremental admission cache.
    pub fn exact() -> Self {
        AdmissionPolicy::ExactRta {
            strategy: MaxSplitStrategy::default(),
            cached: true,
        }
    }

    /// Builder step: re-analyze from scratch on every probe instead of
    /// using the incremental cache. Decision-equivalent to the cached
    /// default; used as the baseline in the `admission_cache` bench and the
    /// cache-equivalence tests. No-op on threshold policies.
    pub fn uncached(self) -> Self {
        match self {
            AdmissionPolicy::ExactRta { strategy, .. } => AdmissionPolicy::ExactRta {
                strategy,
                cached: false,
            },
            other => other,
        }
    }

    /// Builder step: select the `MaxSplit` implementation. No-op on
    /// threshold policies.
    pub fn with_strategy(self, strategy: MaxSplitStrategy) -> Self {
        match self {
            AdmissionPolicy::ExactRta { cached, .. } => {
                AdmissionPolicy::ExactRta { strategy, cached }
            }
            other => other,
        }
    }

    /// Density threshold at `θ`.
    pub fn threshold(theta: f64) -> Self {
        AdmissionPolicy::DensityThreshold { theta }
    }

    /// Would the processor accept the newcomer with the given full budget?
    ///
    /// Rung 1 is this policy's own test. Exact RTA charges the control's
    /// meter; on exhaustion the verdict falls to TDA (its own meter), then
    /// to the infallible `Θ(n)` density threshold — or, when degradation is
    /// disabled, the exhaustion is returned. The threshold policy is `O(1)`
    /// and never interacts with the budget.
    pub fn fits_whole(
        &self,
        proc: &mut ProcessorState,
        new: &NewcomerSpec,
        budget: Time,
        ctl: &AnalysisControl,
    ) -> Result<bool, AnalysisError> {
        let rung1 = match *self {
            // `probe_remember` memoizes the computed fixed points so an
            // immediately following push of this newcomer is free.
            AdmissionPolicy::ExactRta { cached, .. } if cached || ctl.is_limited() => proc
                .rta_cache_mut()
                .probe_remember(new, budget, ctl.meter()),
            AdmissionPolicy::ExactRta { .. } => Ok(admits_budget(proc.workload(), new, budget)),
            AdmissionPolicy::DensityThreshold { theta } => {
                Ok(density_fits(proc, new, budget, theta))
            }
        };
        let fits = walk_ladder(
            ctl,
            rung1,
            || {
                let candidate = new.with_budget(budget, 1, SubtaskKind::Whole);
                tda_admits(proc.workload(), &candidate, ctl.tda_meter())
            },
            || density_fits(proc, new, budget, ctl.theta(proc.len() + 1)),
            |fits| fits,
        )?;
        Self::count_decision(fits);
        Ok(fits)
    }

    /// The largest admissible first-part budget `≤ cap` (Definition 3's
    /// `MaxSplit` quantity under this admission test), walking the same
    /// ladder as [`Self::fits_whole`]: exact `MaxSplit`, then a binary
    /// search over TDA admission, then the closed-form density-slack budget
    /// at `Θ(n)`.
    pub fn max_budget(
        &self,
        proc: &mut ProcessorState,
        new: &NewcomerSpec,
        cap: Time,
        ctl: &AnalysisControl,
    ) -> Result<Time, AnalysisError> {
        rmts_obs::count("core.maxsplit.calls", 1);
        let rung1 = match *self {
            // A finite budget meters through the cache's binary search. Both
            // strategies are exact and agree bit for bit (property-tested in
            // `rmts-rta`), so the strategy choice collapses here.
            AdmissionPolicy::ExactRta { .. } if ctl.is_limited() => proc
                .rta_cache_mut()
                .max_budget_bsearch(new, cap, ctl.meter()),
            AdmissionPolicy::ExactRta {
                strategy,
                cached: true,
            } => strategy.max_budget_cached(proc.rta_cache_mut(), new, cap, ctl.meter()),
            AdmissionPolicy::ExactRta {
                strategy,
                cached: false,
            } => Ok(strategy.max_budget(proc.workload(), new, cap)),
            AdmissionPolicy::DensityThreshold { theta } => {
                Ok(density_slack_budget(proc, new, cap, theta))
            }
        };
        walk_ladder(
            ctl,
            rung1,
            || tda_max_budget(proc.workload(), new, cap, ctl.tda_meter()),
            || density_slack_budget(proc, new, cap, ctl.theta(proc.len() + 1)),
            |x| !x.is_zero(),
        )
    }

    /// The worst-case response time to record for a just-assigned subtask
    /// (used for Eq. (1) synthetic deadlines of subsequent pieces).
    ///
    /// Under exact RTA this is the true response time on the host. When the
    /// verdict that admitted `workload()[index]` came from below rung 1, the
    /// exact response is unknown: record the TDA response bound instead (a
    /// sound upper bound), falling back to the subtask's synthetic deadline,
    /// which is sound whenever the accept itself was. Under a density
    /// threshold the \[16\] analysis assumes body subtasks run at the highest
    /// local priority (Lemma 2), so the response equals the budget; we keep
    /// that convention to reproduce the baseline faithfully.
    pub fn record_response(
        &self,
        proc: &mut ProcessorState,
        index: usize,
        ctl: &AnalysisControl,
    ) -> Time {
        match *self {
            AdmissionPolicy::ExactRta { .. } if ctl.last_rung() != Rung::Exact => {
                let w = proc.workload();
                tda_response_bound(w, index).unwrap_or(w[index].deadline)
            }
            // Invariant: the engine calls this only right after a successful
            // exact admission of `workload()[index]`, so the fixed point
            // exists and lies at or below the synthetic deadline.
            AdmissionPolicy::ExactRta { cached, .. } if cached || ctl.is_limited() => proc
                .cached_response(index)
                .expect("admission just verified schedulability"),
            AdmissionPolicy::ExactRta { .. } => response_time(proc.workload(), index)
                .expect("admission just verified schedulability"),
            AdmissionPolicy::DensityThreshold { .. } => proc.workload()[index].wcet,
        }
    }

    fn count_decision(fits: bool) {
        if rmts_obs::enabled() {
            rmts_obs::count("core.admission.probes", 1);
            rmts_obs::count(
                if fits {
                    "core.admission.admitted"
                } else {
                    "core.admission.rejected"
                },
                1,
            );
        }
    }
}

/// Records which rung answered, walking down the ladder from a rung-1
/// answer: on exhaustion, `tda` (rung 2), then `threshold` (rung 3, which
/// cannot fail); with degradation disabled the exhaustion is returned.
/// `admitted` says whether an answer admits anything (a degraded accept).
fn walk_ladder<T: Copy>(
    ctl: &AnalysisControl,
    rung1: Result<T, AnalysisError>,
    tda: impl FnOnce() -> Result<T, AnalysisError>,
    threshold: impl FnOnce() -> T,
    admitted: impl Fn(T) -> bool,
) -> Result<T, AnalysisError> {
    let e = match rung1 {
        Ok(answer) => {
            ctl.note_verdict(Rung::Exact, admitted(answer));
            return Ok(answer);
        }
        Err(e) => e,
    };
    ctl.note_exhaustion(e);
    if !ctl.degrade() {
        return Err(e);
    }
    let (rung, answer) = match tda() {
        Ok(answer) => (Rung::Tda, answer),
        Err(e2) => {
            ctl.note_exhaustion(e2);
            (Rung::Threshold, threshold())
        }
    };
    ctl.note_verdict(rung, admitted(answer));
    Ok(answer)
}

/// The density test shared by the threshold policy and the ladder's
/// rung 3: admit iff `budget ≤ Δ` and the processor's density plus the
/// newcomer's `budget/Δ` stays at or below `theta`. `O(1)`, infallible.
fn density_fits(proc: &ProcessorState, new: &NewcomerSpec, budget: Time, theta: f64) -> bool {
    budget <= new.deadline && proc.density() + budget.ratio(new.deadline) <= theta + EPS
}

/// The largest budget `≤ min(cap, Δ)` that [`density_fits`] admits:
/// `⌊Δ·(θ − density)⌋`, or zero when no density slack is left.
fn density_slack_budget(proc: &ProcessorState, new: &NewcomerSpec, cap: Time, theta: f64) -> Time {
    let slack = theta - proc.density();
    if slack <= EPS {
        return Time::ZERO;
    }
    // The +1e-6 absorbs float rounding in `slack` (e.g.
    // 0.6 − 0.5 = 0.09999…) without ever adding a spurious tick.
    let x = ((new.deadline.ticks() as f64) * slack + 1e-6).floor() as u64;
    Time::new(x).min(cap).min(new.deadline)
}

/// The largest budget `X ≤ min(cap, Δ)` such that TDA admits the newcomer
/// with budget `X`: a monotone binary search over metered TDA probes (rung 2
/// of the ladder's `MaxSplit`). `X = 0` (place nothing) is the trivially
/// sound floor and is never probed.
fn tda_max_budget(
    workload: &[Subtask],
    new: &NewcomerSpec,
    cap: Time,
    meter: &BudgetMeter,
) -> Result<Time, AnalysisError> {
    let mut lo = Time::ZERO;
    let mut hi = cap.min(new.deadline);
    while lo < hi {
        // Midpoint biased upward so `lo` strictly advances.
        let mid = Time::new((lo.ticks() + hi.ticks()).div_ceil(2));
        let candidate = new.with_budget(mid, 1, SubtaskKind::Whole);
        if tda_admits(workload, &candidate, meter)? {
            lo = mid;
        } else {
            hi = mid - Time::new(1);
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_taskmodel::{Priority, Subtask, SubtaskKind, TaskId};

    fn sub(prio: u32, c: u64, t: u64, d: u64) -> Subtask {
        Subtask {
            parent: TaskId(prio),
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
            parent: TaskId(90 + prio),
            period: Time::new(t),
            deadline: Time::new(d),
            priority: Priority(prio),
        }
    }

    /// `fits_whole` under an unlimited control, which never fails.
    fn fits(pol: AdmissionPolicy, p: &mut ProcessorState, new: &NewcomerSpec, budget: u64) -> bool {
        pol.fits_whole(p, new, Time::new(budget), &AnalysisControl::unlimited())
            .unwrap()
    }

    /// `max_budget` under an unlimited control, which never fails.
    fn max_budget(
        pol: AdmissionPolicy,
        p: &mut ProcessorState,
        new: &NewcomerSpec,
        cap: u64,
    ) -> Time {
        pol.max_budget(p, new, Time::new(cap), &AnalysisControl::unlimited())
            .unwrap()
    }

    #[test]
    fn exact_policy_accepts_what_rta_accepts() {
        for pol in [
            AdmissionPolicy::exact(),
            AdmissionPolicy::exact().uncached(),
        ] {
            let mut p = ProcessorState::new(0);
            p.push(sub(5, 3, 12, 12));
            let new = newcomer(0, 4, 4);
            assert!(fits(pol, &mut p, &new, 3));
            assert!(!fits(pol, &mut p, &new, 4));
            assert_eq!(max_budget(pol, &mut p, &new, 100), Time::new(3));
        }
    }

    #[test]
    fn threshold_policy_uses_density() {
        let mut p = ProcessorState::new(0);
        p.push(sub(5, 3, 12, 12)); // density 0.25
        let pol = AdmissionPolicy::threshold(0.69);
        let new = newcomer(0, 10, 10);
        // 0.25 + b/10 ≤ 0.69 → b ≤ 4.4 → 4.
        assert!(fits(pol, &mut p, &new, 4));
        assert!(!fits(pol, &mut p, &new, 5));
        assert_eq!(max_budget(pol, &mut p, &new, 100), Time::new(4));
    }

    #[test]
    fn threshold_counts_shrunk_deadlines() {
        // A tail subtask with Δ < T contributes C/Δ, not C/T — the
        // period-shrinking view of Fig. 2-(d).
        let mut p = ProcessorState::new(0);
        p.push(sub(5, 3, 12, 6)); // density 0.5, utilization 0.25
        let pol = AdmissionPolicy::threshold(0.6);
        let new = newcomer(0, 10, 10);
        assert_eq!(max_budget(pol, &mut p, &new, 100), Time::new(1));
    }

    #[test]
    fn exact_is_less_pessimistic_than_threshold_on_harmonic() {
        // Harmonic workload at 75% utilization: RTA admits pushing to 100%,
        // the Θ-threshold stops at ~69%.
        let mut p = ProcessorState::new(0);
        p.push(sub(5, 3, 4, 4)); // density 0.75
        let theta = rmts_bounds::ll_bound(4);
        let new = newcomer(0, 8, 8);
        let x_exact = max_budget(AdmissionPolicy::exact(), &mut p, &new, 100);
        let x_thresh = max_budget(AdmissionPolicy::threshold(theta), &mut p, &new, 100);
        // RTA: the (3,4) task tolerates R = 3 + ⌈R/8⌉X ≤ 4 → X = 1,
        // pushing utilization to 0.875.
        assert_eq!(x_exact, Time::new(1));
        assert_eq!(x_thresh, Time::ZERO); // already above Θ
        assert!(x_exact > x_thresh);
    }

    #[test]
    fn recorded_response_conventions() {
        let mut p = ProcessorState::new(0);
        p.push(sub(0, 2, 8, 8));
        p.push(sub(3, 3, 12, 12));
        let ctl = AnalysisControl::unlimited();
        // Exact: the low-priority subtask's response includes interference
        // (both the cached and the scratch path).
        assert_eq!(
            AdmissionPolicy::exact().record_response(&mut p, 1, &ctl),
            Time::new(5)
        );
        assert_eq!(
            AdmissionPolicy::exact()
                .uncached()
                .record_response(&mut p, 1, &ctl),
            Time::new(5)
        );
        // Threshold: response = budget by the Lemma-2 convention.
        let thresh = AdmissionPolicy::threshold(0.9);
        assert_eq!(thresh.record_response(&mut p, 1, &ctl), Time::new(3));
    }

    #[test]
    fn max_budget_never_exceeds_cap_or_deadline() {
        let mut p = ProcessorState::new(0);
        for pol in [
            AdmissionPolicy::exact(),
            AdmissionPolicy::exact().uncached(),
            AdmissionPolicy::threshold(1.0),
        ] {
            let new = newcomer(0, 20, 12);
            assert_eq!(max_budget(pol, &mut p, &new, 5), Time::new(5));
            assert_eq!(max_budget(pol, &mut p, &new, 100), Time::new(12));
        }
    }

    #[test]
    fn cached_and_scratch_paths_agree_after_mutation() {
        // Out-of-band mutation invalidates the cache; the lazy rebuild must
        // bring both paths back in sync.
        let mut p = ProcessorState::new(0);
        p.push(sub(5, 3, 12, 12));
        let new = newcomer(0, 4, 4);
        assert!(fits(AdmissionPolicy::exact(), &mut p, &new, 3));
        p.mutate_workload(|subs| subs[0].wcet = Time::new(6));
        for x in 0..=4 {
            let cached = fits(AdmissionPolicy::exact(), &mut p, &new, x);
            let scratch = fits(AdmissionPolicy::exact().uncached(), &mut p, &new, x);
            assert_eq!(cached, scratch, "budget {x}");
        }
    }

    #[test]
    fn builder_steps_compose() {
        let uncached = AdmissionPolicy::exact().uncached();
        assert_eq!(
            uncached,
            AdmissionPolicy::ExactRta {
                strategy: MaxSplitStrategy::default(),
                cached: false,
            }
        );
        let bsearch = AdmissionPolicy::exact().with_strategy(MaxSplitStrategy::BinarySearch);
        assert_eq!(
            bsearch,
            AdmissionPolicy::ExactRta {
                strategy: MaxSplitStrategy::BinarySearch,
                cached: true,
            }
        );
        // Builder steps are no-ops on threshold policies.
        let thresh = AdmissionPolicy::threshold(0.5);
        assert_eq!(thresh.uncached(), thresh);
        assert_eq!(thresh.with_strategy(MaxSplitStrategy::BinarySearch), thresh);
    }
}
