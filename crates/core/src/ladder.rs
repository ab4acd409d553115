//! The degradation ladder: budgeted analysis with sound fallbacks.
//!
//! Partitioning under an [`AnalysisBudget`] must terminate even when the
//! exact admission analysis cannot finish within the budget. Rather than
//! hang or reject outright, the engine walks a *ladder* of admission tests,
//! each cheaper (and no less sound) than the last:
//!
//! 1. **Exact RTA** — the paper's test, metered through the processor's
//!    [`RtaCache`](rmts_rta::RtaCache): one probe per admission question
//!    and one iteration per fixed point evaluated.
//! 2. **TDA** (Lehoczky/Sha/Ding) — the same exact criterion evaluated at
//!    scheduling points; runs under its *own* meter armed from the same
//!    budget with the iteration cap lifted (iteration caps bound fixed-point
//!    ascent, which TDA does not perform), so an iteration-starved RTA still
//!    gets an exact answer here. TDA remains boxed by its probe cap and the
//!    shared wall-clock deadline.
//! 3. **Parametric density threshold** — the `Θ(N)`-style test of
//!    RM-TS/light's `[16]` ancestry: admit iff the processor density stays
//!    at or below `Θ(n)`. `O(1)` and infallible, so the ladder always
//!    terminates.
//!
//! A verdict produced below rung 1 marks the partition
//! [`Exactness::Degraded`]; degraded *accepts* remain bound-sound (the
//! verify crate's `DegradedSoundness` oracle replays them under exhaustive
//! simulation). When degradation is disabled, budget exhaustion surfaces as
//! a typed [`AnalysisError`] in the rejection diagnostics instead.

use rmts_taskmodel::{AnalysisBudget, AnalysisError, BudgetMeter};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Whether a partition was produced entirely by exact analysis, or whether
/// the degradation ladder had to fall back to a cheaper test at least once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Exactness {
    /// Every admission verdict came from exact analysis (RTA or TDA —
    /// rungs 1 and 2 decide the same predicate).
    Exact,
    /// At least one verdict came from the threshold rung, or exhaustion
    /// forced a fallback mid-analysis. The partition is still bound-sound,
    /// but may reject task sets the exact test would accept.
    Degraded {
        /// The first budget exhaustion that forced a fallback.
        reason: AnalysisError,
    },
}

impl Exactness {
    /// `true` for [`Exactness::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, Exactness::Exact)
    }
}

impl std::fmt::Display for Exactness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exactness::Exact => f.write_str("exact"),
            Exactness::Degraded { reason } => write!(f, "degraded ({reason})"),
        }
    }
}

/// Which ladder rung produced the most recent admission verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rung {
    /// Exact RTA (rung 1).
    #[default]
    Exact,
    /// Time-demand analysis at scheduling points (rung 2).
    Tda,
    /// Parametric density threshold (rung 3).
    Threshold,
}

/// Per-partition analysis context: the armed budget meter, the degradation
/// switch, and counters describing how far down the ladder the run went.
///
/// One `AnalysisControl` is created per `partition()` call and threaded
/// through the engine by shared reference; interior mutability keeps the
/// engine's `&AdmissionPolicy` plumbing intact.
#[derive(Debug)]
pub struct AnalysisControl {
    meter: BudgetMeter,
    /// Rung 2's meter: same budget with the iteration cap lifted and a
    /// fresh probe pool, so exhausting the fixed-point iteration allowance
    /// does not also starve the TDA fallback. The wall-clock deadline is
    /// shared (both meters are armed at the same instant from the same
    /// duration).
    tda_meter: BudgetMeter,
    /// `false` when the budget is unlimited. The meters then never
    /// exhaust, every admission question is answered at rung 1, and the
    /// policy's `cached` flag and `MaxSplitStrategy` pick the
    /// implementation. `true` routes exact admission through the
    /// processor's `RtaCache`, the one metered exact path.
    limited: bool,
    degrade: bool,
    /// Fault-injection override for the rung-3 threshold (verify harness
    /// only). `None` uses `Θ(n)` per processor, which is the sound default.
    theta_override: Option<f64>,
    first_exhaustion: Cell<Option<AnalysisError>>,
    last_rung: Cell<Rung>,
    tda_fallbacks: Cell<u64>,
    threshold_fallbacks: Cell<u64>,
    degraded_accepts: Cell<u64>,
}

impl AnalysisControl {
    /// Arms `budget` for one partitioning run. With `degrade: true`,
    /// exhaustion falls down the ladder; with `degrade: false` it aborts
    /// the run with a typed error.
    pub fn new(budget: AnalysisBudget, degrade: bool) -> Self {
        AnalysisControl {
            limited: !budget.is_unlimited(),
            meter: budget.start(),
            tda_meter: AnalysisBudget {
                max_iterations: None,
                ..budget
            }
            .start(),
            degrade,
            theta_override: None,
            first_exhaustion: Cell::new(None),
            last_rung: Cell::new(Rung::Exact),
            tda_fallbacks: Cell::new(0),
            threshold_fallbacks: Cell::new(0),
            degraded_accepts: Cell::new(0),
        }
    }

    /// No budget, no degradation: the engine behaves exactly as before
    /// budgets existed.
    pub fn unlimited() -> Self {
        Self::new(AnalysisBudget::unlimited(), false)
    }

    /// Fault injection: overrides the rung-3 density threshold. A `θ` of
    /// 1.0 deliberately produces unsound degraded accepts for the verify
    /// harness to catch; production callers must not use this.
    pub fn with_theta_override(mut self, theta: f64) -> Self {
        self.theta_override = Some(theta);
        self
    }

    /// The armed meter shared by every analysis call of this run.
    pub fn meter(&self) -> &BudgetMeter {
        &self.meter
    }

    /// Rung 2's meter: no iteration cap, own probe pool, same deadline.
    pub fn tda_meter(&self) -> &BudgetMeter {
        &self.tda_meter
    }

    /// `true` when a finite budget is armed: exact admission then meters
    /// through the processor's `RtaCache`.
    pub fn is_limited(&self) -> bool {
        self.limited
    }

    /// `true` when exhaustion should fall down the ladder instead of
    /// aborting.
    pub fn degrade(&self) -> bool {
        self.degrade
    }

    /// The rung-3 threshold for a processor that would host `n` subtasks.
    pub fn theta(&self, n: usize) -> f64 {
        self.theta_override
            .unwrap_or_else(|| rmts_bounds::ll_bound(n.max(1)))
    }

    /// Records a budget exhaustion (first one wins) and counts it.
    pub fn note_exhaustion(&self, e: AnalysisError) {
        if self.first_exhaustion.get().is_none() {
            self.first_exhaustion.set(Some(e));
        }
        rmts_obs::count("core.budget.exhausted", 1);
    }

    /// Records which rung produced the latest verdict (and, for accepts
    /// below rung 1, that the partition is degraded).
    pub fn note_verdict(&self, rung: Rung, admitted: bool) {
        self.last_rung.set(rung);
        match rung {
            Rung::Exact => {}
            Rung::Tda => {
                self.tda_fallbacks.set(self.tda_fallbacks.get() + 1);
                rmts_obs::count("core.ladder.tda_fallbacks", 1);
            }
            Rung::Threshold => {
                self.threshold_fallbacks
                    .set(self.threshold_fallbacks.get() + 1);
                rmts_obs::count("core.ladder.threshold_fallbacks", 1);
            }
        }
        if rung != Rung::Exact && admitted {
            self.degraded_accepts.set(self.degraded_accepts.get() + 1);
            rmts_obs::count("core.ladder.degraded_accepts", 1);
        }
    }

    /// The rung of the most recent verdict (consulted by
    /// [`AdmissionPolicy::record_response`](crate::AdmissionPolicy::record_response)
    /// immediately after an admission call).
    pub fn last_rung(&self) -> Rung {
        self.last_rung.get()
    }

    /// The first exhaustion seen, if any.
    pub fn exhaustion(&self) -> Option<AnalysisError> {
        self.first_exhaustion.get()
    }

    /// The exactness label for the finished run.
    pub fn exactness(&self) -> Exactness {
        match self.first_exhaustion.get() {
            None => Exactness::Exact,
            Some(reason) => Exactness::Degraded { reason },
        }
    }

    /// `(tda_fallbacks, threshold_fallbacks, degraded_accepts)` counters.
    pub fn ladder_counts(&self) -> (u64, u64, u64) {
        (
            self.tda_fallbacks.get(),
            self.threshold_fallbacks.get(),
            self.degraded_accepts.get(),
        )
    }
}

impl Default for AnalysisControl {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_taskmodel::BudgetResource;

    #[test]
    fn unlimited_control_is_exact_and_unmetered() {
        let ctl = AnalysisControl::unlimited();
        assert!(!ctl.is_limited());
        assert!(!ctl.degrade());
        assert_eq!(ctl.exactness(), Exactness::Exact);
        assert!(ctl.meter().charge_iterations(1_000_000).is_ok());
    }

    #[test]
    fn first_exhaustion_wins() {
        let ctl = AnalysisControl::new(AnalysisBudget::unlimited().with_max_iterations(0), true);
        assert!(ctl.is_limited());
        let e1 = AnalysisError::BudgetExhausted {
            resource: BudgetResource::Iterations,
        };
        let e2 = AnalysisError::BudgetExhausted {
            resource: BudgetResource::Probes,
        };
        ctl.note_exhaustion(e1);
        ctl.note_exhaustion(e2);
        assert_eq!(ctl.exhaustion(), Some(e1));
        assert_eq!(ctl.exactness(), Exactness::Degraded { reason: e1 });
    }

    #[test]
    fn verdicts_track_rungs_and_degraded_accepts() {
        let ctl = AnalysisControl::unlimited();
        ctl.note_verdict(Rung::Exact, true);
        assert_eq!(ctl.ladder_counts(), (0, 0, 0));
        ctl.note_verdict(Rung::Tda, false);
        ctl.note_verdict(Rung::Threshold, true);
        assert_eq!(ctl.ladder_counts(), (1, 1, 1));
        assert_eq!(ctl.last_rung(), Rung::Threshold);
    }

    #[test]
    fn tda_meter_lifts_only_the_iteration_cap() {
        let ctl = AnalysisControl::new(
            AnalysisBudget::unlimited()
                .with_max_iterations(0)
                .with_max_probes(1),
            true,
        );
        // Rung 1's meter is iteration-starved...
        assert!(ctl.meter().charge_iterations(1).is_err());
        // ...but rung 2's is not: only the probe cap carries over.
        assert!(ctl.tda_meter().charge_iterations(1_000).is_ok());
        ctl.tda_meter().charge_probe().unwrap();
        assert!(ctl.tda_meter().charge_probe().is_err());
    }

    #[test]
    fn theta_defaults_to_ll_bound_and_can_be_overridden() {
        let ctl = AnalysisControl::unlimited();
        assert!((ctl.theta(4) - rmts_bounds::ll_bound(4)).abs() < 1e-12);
        let unsound = AnalysisControl::unlimited().with_theta_override(1.0);
        assert_eq!(unsound.theta(4), 1.0);
    }

    #[test]
    fn exactness_renders_readably() {
        assert_eq!(Exactness::Exact.to_string(), "exact");
        let d = Exactness::Degraded {
            reason: AnalysisError::BudgetExhausted {
                resource: BudgetResource::WallClock,
            },
        };
        assert!(d.to_string().starts_with("degraded ("));
    }
}
