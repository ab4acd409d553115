//! The settings and uniform builder surface of the splitting engines.
//!
//! RM-TS, RM-TS/light and the SPA baselines riding their skeletons carry
//! the same four settings — admission policy, analysis budget, degradation
//! ladder, and the ladder's fault-injection threshold — in one
//! [`Splitting`] block, which also derives each run's
//! [`AnalysisControl`]. The service layer (`rmts-svc`) dispatches every
//! algorithm through one code path, which is only tenable if configuration
//! is spelled identically everywhere:
//!
//! ```
//! use rmts_core::{AdmissionPolicy, Configure, RmTs, RmTsLight, WithBound};
//! use rmts_bounds::HarmonicChain;
//! use rmts_taskmodel::AnalysisBudget;
//!
//! let _light = RmTsLight::new()
//!     .with_policy(AdmissionPolicy::exact())
//!     .with_budget(AnalysisBudget::unlimited())
//!     .with_degrade(true);
//! let _rmts = RmTs::new()
//!     .with_bound(HarmonicChain)
//!     .with_degrade(true);
//! ```
//!
//! [`Configure`] sets the [`Splitting`] fields through one accessor;
//! [`WithBound`] is split out because swapping the parametric bound changes
//! the partitioner's *type* (`RmTs<B> → RmTs<B2>`), which a plain
//! `fn(self) -> Self` cannot express.

use crate::admission::AdmissionPolicy;
use crate::ladder::AnalysisControl;
use rmts_taskmodel::AnalysisBudget;

/// The settings every splitting engine shares.
#[derive(Debug, Clone, Copy)]
pub struct Splitting {
    /// Admission policy: exact RTA reproduces the paper's algorithms; a
    /// density threshold turns the same skeletons into the \[16\]-style
    /// SPA1/SPA2 baselines.
    pub policy: AdmissionPolicy,
    /// Analysis budget for one `partition()` call. Unlimited by default.
    pub budget: AnalysisBudget,
    /// On budget exhaustion, walk the degradation ladder (RTA → TDA →
    /// `Θ(n)` threshold) instead of rejecting with a typed error.
    pub degrade: bool,
    /// Fault-injection override for the ladder's rung-3 threshold (verify
    /// harness only; `None` = the sound `Θ(n)` default).
    pub degrade_theta: Option<f64>,
}

impl Default for Splitting {
    fn default() -> Self {
        Splitting {
            policy: AdmissionPolicy::exact(),
            budget: AnalysisBudget::unlimited(),
            degrade: false,
            degrade_theta: None,
        }
    }
}

impl Splitting {
    /// A fresh analysis control for one partition run: the budget's meters
    /// start full, and the ladder follows `degrade` / `degrade_theta`.
    pub fn control(&self) -> AnalysisControl {
        let ctl = AnalysisControl::new(self.budget, self.degrade);
        match self.degrade_theta {
            Some(theta) => ctl.with_theta_override(theta),
            None => ctl,
        }
    }
}

/// Chainable configuration shared by the budgeted splitting partitioners
/// (`RmTs`, `RmTsLight`, and their SPA-style threshold variants).
///
/// Every method takes and returns `self` by value, so configurations chain
/// from [`new()`](crate::RmTsLight::new) without intermediate bindings.
pub trait Configure: Sized {
    /// The partitioner's [`Splitting`] settings, which the builder methods
    /// below write.
    fn splitting_mut(&mut self) -> &mut Splitting;

    /// Overrides the admission policy (exact RTA by default; a density
    /// threshold turns the same skeleton into the \[16\]-style baselines).
    fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.splitting_mut().policy = policy;
        self
    }

    /// Caps the analysis work of each `partition()` call.
    fn with_budget(mut self, budget: AnalysisBudget) -> Self {
        self.splitting_mut().budget = budget;
        self
    }

    /// Enables (or disables) the degradation ladder on budget exhaustion.
    fn with_degrade(mut self, degrade: bool) -> Self {
        self.splitting_mut().degrade = degrade;
        self
    }

    /// Fault injection: overrides the ladder's rung-3 density threshold.
    /// `θ = 1.0` deliberately manufactures unsound degraded accepts for the
    /// verify harness; production callers must leave this unset.
    fn with_degrade_theta(mut self, theta: f64) -> Self {
        self.splitting_mut().degrade_theta = Some(theta);
        self
    }
}

/// Chainable bound selection for partitioners parameterized by a
/// [`ParametricBound`](rmts_bounds::ParametricBound).
///
/// Separate from [`Configure`] because the bound is a type parameter:
/// `RmTs::<LiuLayland>::new().with_bound(HarmonicChain)` produces an
/// `RmTs<HarmonicChain>`, a different type.
pub trait WithBound<B>: Sized {
    /// The partitioner type produced by installing `bound`.
    type Out;

    /// Retargets the partitioner at `bound`, keeping every other setting.
    fn with_bound(self, bound: B) -> Self::Out;
}
