//! Systems under test: the acceptance deciders the oracles cross-check.
//!
//! A [`SystemUnderTest`] is a *name* for a partitioner configuration, not
//! the partitioner itself — campaigns rebuild engines per worker so each
//! trial starts from pristine caches, and names are serializable, which is
//! what lets a corpus [`Reproducer`](crate::Reproducer) reconstruct the
//! exact configuration that diverged, months later, from JSON alone.
//!
//! Production SUTs delegate to [`AlgorithmSpec`], the unified dispatch
//! layer in `rmts-core` — there is exactly one place that knows how to turn
//! an algorithm name into an engine. The fault-injection hooks are built by
//! hand: they are deliberately *unrepresentable* as production specs
//! (weakened thresholds, starved budgets, unsound degradation overrides),
//! and keeping them outside the spec vocabulary means no batch-service
//! request can ever ask for one.

use rmts_core::baselines::{Fit, SortOrder, UniAdmission};
use rmts_core::{
    AdmissionPolicy, AlgorithmSpec, AnalysisBudget, BoundSpec, Configure, DynPartitioner,
    Partitioner, RmTs, RmTsLight,
};
use serde::{Deserialize, Serialize};

/// A named, reconstructible partitioner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemUnderTest {
    /// RM-TS (Section V) with the Liu & Layland bound.
    RmTs,
    /// RM-TS/light (Section IV).
    RmTsLight,
    /// Strictly partitioned RM, first-fit-decreasing with exact RTA.
    PartitionedRm,
    /// Any production algorithm by its full [`AlgorithmSpec`] — the door
    /// through which the generated catalogue (every fit × sort × admission
    /// cell, every RM-TS bound) enters the fuzz oracles. Named by the spec
    /// grammar's canonical form.
    Spec(AlgorithmSpec),
    /// **Fault-injection hook**: RM-TS/light with admission weakened to a
    /// density threshold of 1.0 — unsound for RM (e.g. `{(2,4),(3,6)}` has
    /// density exactly 1.0 yet misses a deadline), so every campaign that
    /// includes this SUT must diverge. Exists so the test suite can prove
    /// the oracles actually catch bugs; never part of
    /// [`SystemUnderTest::PRODUCTION`].
    WeakenedAdmission,
    /// **Fault-injection hook**: RM-TS/light under a 0-iteration analysis
    /// budget with degradation on — every exact-RTA fixed point exhausts
    /// and the ladder's TDA rung decides admission. Sound (TDA is exact),
    /// so campaigns stay clean; its accepts are labeled degraded, which is
    /// what the `degraded` oracle exists to scrutinize.
    StarvedRta,
    /// **Fault-injection hook**: RM-TS/light under a 0-probe budget with
    /// degradation on — rungs 1 *and* 2 exhaust (the TDA meter carries the
    /// probe cap) and only the `Θ(n)` density threshold answers. Sound but
    /// maximally conservative; exercises the terminal ladder rung.
    StarvedTda,
    /// **Fault-injection hook**: [`SystemUnderTest::StarvedTda`] with the
    /// rung-3 threshold overridden to `θ = 1.0`, deliberately manufacturing
    /// *unsound degraded accepts*. Campaigns including this SUT must
    /// diverge on the `degraded` oracle — the proof that degraded-accept
    /// soundness is actually being checked, not assumed.
    UnsoundDegrade,
}

impl SystemUnderTest {
    /// The three production algorithm pairs the clean campaign quantifies
    /// over.
    pub const PRODUCTION: [SystemUnderTest; 3] = [
        SystemUnderTest::RmTs,
        SystemUnderTest::RmTsLight,
        SystemUnderTest::PartitionedRm,
    ];

    /// The budget-exhaustion fault injectors: one per ladder rung the
    /// exact analysis can fall to, plus the deliberately unsound override.
    pub const DEGRADATION_INJECTORS: [SystemUnderTest; 2] =
        [SystemUnderTest::StarvedRta, SystemUnderTest::StarvedTda];

    /// Every catalogue algorithm as a SUT: what the catalogue-wide
    /// fuzz-smoke campaign quantifies over.
    pub fn catalogue() -> Vec<SystemUnderTest> {
        AlgorithmSpec::catalogue()
            .into_iter()
            .map(SystemUnderTest::Spec)
            .collect()
    }

    /// Stable display name. Legacy SUTs keep their historical short names;
    /// spec SUTs are named by the spec grammar's canonical form.
    pub fn name(self) -> String {
        match self {
            SystemUnderTest::RmTs => "rmts".to_string(),
            SystemUnderTest::RmTsLight => "light".to_string(),
            SystemUnderTest::PartitionedRm => "prm".to_string(),
            SystemUnderTest::Spec(spec) => spec.to_string(),
            SystemUnderTest::WeakenedAdmission => "weakened".to_string(),
            SystemUnderTest::StarvedRta => "starved-rta".to_string(),
            SystemUnderTest::StarvedTda => "starved-tda".to_string(),
            SystemUnderTest::UnsoundDegrade => "unsound-degrade".to_string(),
        }
    }

    /// Parses a [`SystemUnderTest::name`] back (CLI `--sut`). The legacy
    /// short names win over the grammar (`light` is the historical
    /// RM-TS/light SUT, not `Spec(light)` — both build the same engine);
    /// any other valid spec string becomes a [`SystemUnderTest::Spec`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rmts" => Some(SystemUnderTest::RmTs),
            "light" => Some(SystemUnderTest::RmTsLight),
            "prm" => Some(SystemUnderTest::PartitionedRm),
            "weakened" => Some(SystemUnderTest::WeakenedAdmission),
            "starved-rta" => Some(SystemUnderTest::StarvedRta),
            "starved-tda" => Some(SystemUnderTest::StarvedTda),
            "unsound-degrade" => Some(SystemUnderTest::UnsoundDegrade),
            other => other.parse().ok().map(SystemUnderTest::Spec),
        }
    }

    /// The unified-dispatch spec for this SUT, when the configuration is a
    /// production algorithm. Fault injectors return `None`: they must stay
    /// outside the spec vocabulary (see the module docs).
    pub fn spec(self) -> Option<AlgorithmSpec> {
        match self {
            SystemUnderTest::RmTs => Some(AlgorithmSpec::RmTs {
                // The verify default: L&L, the most conservative bound.
                bound: BoundSpec::LiuLayland,
            }),
            SystemUnderTest::RmTsLight => Some(AlgorithmSpec::RmTsLight),
            SystemUnderTest::PartitionedRm => Some(AlgorithmSpec::PartitionedRm {
                fit: Fit::First,
                admission: UniAdmission::ExactRta,
                sort: SortOrder::DecreasingUtilization,
            }),
            SystemUnderTest::Spec(spec) => Some(spec),
            _ => None,
        }
    }

    /// Builds the partitioner this name denotes, for a task set of size
    /// `n` (the SPA thresholds reachable through [`SystemUnderTest::Spec`]
    /// are `Θ(n)`; every other configuration is size-independent).
    pub fn build_for(self, n: usize) -> DynPartitioner {
        match self {
            SystemUnderTest::RmTs
            | SystemUnderTest::RmTsLight
            | SystemUnderTest::PartitionedRm
            | SystemUnderTest::Spec(_) => self.spec().expect("production SUTs have specs").build(n),
            SystemUnderTest::WeakenedAdmission => {
                Box::new(RmTsLight::new().with_policy(AdmissionPolicy::threshold(1.0)))
            }
            SystemUnderTest::StarvedRta => Box::new(
                RmTsLight::new()
                    .with_budget(AnalysisBudget::unlimited().with_max_iterations(0))
                    .with_degrade(true),
            ),
            SystemUnderTest::StarvedTda => Box::new(
                RmTsLight::new()
                    .with_budget(AnalysisBudget::unlimited().with_max_probes(0))
                    .with_degrade(true),
            ),
            SystemUnderTest::UnsoundDegrade => Box::new(
                RmTsLight::new()
                    .with_budget(AnalysisBudget::unlimited().with_max_probes(0))
                    .with_degrade(true)
                    .with_degrade_theta(1.0),
            ),
        }
    }

    /// Builds the partitioner this name denotes. Equivalent to
    /// [`SystemUnderTest::build_for`] with `n = 0`, which is exact for
    /// every SUT except the size-dependent SPA specs — those must go
    /// through `build_for`.
    pub fn build(self) -> DynPartitioner {
        self.build_for(0)
    }

    /// The cached/uncached exact-RTA admission pair for this SUT, when the
    /// configuration admits by exact RTA (the cache-equivalence oracle has
    /// nothing to compare on threshold-admission SUTs).
    #[allow(clippy::type_complexity)]
    pub fn cache_pair(self) -> Option<(Box<dyn Partitioner>, Box<dyn Partitioner>)> {
        match self {
            SystemUnderTest::RmTs => Some((
                Box::new(RmTs::new().with_policy(AdmissionPolicy::exact())),
                Box::new(RmTs::new().with_policy(AdmissionPolicy::exact().uncached())),
            )),
            SystemUnderTest::RmTsLight => Some((
                Box::new(RmTsLight::new().with_policy(AdmissionPolicy::exact())),
                Box::new(RmTsLight::new().with_policy(AdmissionPolicy::exact().uncached())),
            )),
            // No exact pair to compare: threshold admission, or budgeted
            // ladder runs, whose exact admission always meters through the
            // cache whatever the `cached` flag says.
            SystemUnderTest::PartitionedRm
            | SystemUnderTest::Spec(_)
            | SystemUnderTest::WeakenedAdmission
            | SystemUnderTest::StarvedRta
            | SystemUnderTest::StarvedTda
            | SystemUnderTest::UnsoundDegrade => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_taskmodel::TaskSet;

    #[test]
    fn names_round_trip() {
        for sut in [
            SystemUnderTest::RmTs,
            SystemUnderTest::RmTsLight,
            SystemUnderTest::PartitionedRm,
            SystemUnderTest::WeakenedAdmission,
            SystemUnderTest::StarvedRta,
            SystemUnderTest::StarvedTda,
            SystemUnderTest::UnsoundDegrade,
        ] {
            assert_eq!(SystemUnderTest::parse(&sut.name()), Some(sut));
            let json = serde_json::to_string(&sut).unwrap();
            assert_eq!(serde_json::from_str::<SystemUnderTest>(&json).unwrap(), sut);
        }
        assert_eq!(SystemUnderTest::parse("nope"), None);
    }

    #[test]
    fn starved_injectors_produce_sound_degraded_partitions() {
        let ts = TaskSet::from_pairs(&[(1, 4), (2, 8), (2, 8), (4, 16)]).unwrap();
        for sut in SystemUnderTest::DEGRADATION_INJECTORS {
            let part = sut
                .build()
                .partition(&ts, 2)
                .unwrap_or_else(|e| panic!("{} rejected an easy set: {e}", sut.name()));
            assert!(!part.is_exact(), "{} must walk the ladder", sut.name());
            assert!(part.verify_rta(), "{} degraded accepts unsound", sut.name());
        }
    }

    #[test]
    fn unsound_degrade_accepts_a_known_rm_infeasible_set() {
        // Same adversary as the weakened-admission hook: density exactly
        // 1.0 sneaks past the overridden θ = 1.0 rung-3 threshold.
        let ts = TaskSet::from_pairs(&[(2, 4), (3, 6)]).unwrap();
        let part = SystemUnderTest::UnsoundDegrade
            .build()
            .partition(&ts, 1)
            .expect("θ = 1.0 must admit the density-1.0 set");
        assert!(!part.is_exact());
        assert!(!part.verify_rta(), "the injected unsoundness must be real");
    }

    #[test]
    fn weakened_admission_accepts_a_known_rm_infeasible_set() {
        // Density exactly 1.0, RM-unschedulable: demand in [0,6) is
        // 2·2 + 3 = 7 > 6. The sound SUTs reject; the weakened one accepts.
        let ts = TaskSet::from_pairs(&[(2, 4), (3, 6)]).unwrap();
        assert!(SystemUnderTest::WeakenedAdmission
            .build()
            .partition(&ts, 1)
            .is_ok());
        assert!(SystemUnderTest::RmTsLight
            .build()
            .partition(&ts, 1)
            .is_err());
    }
}
