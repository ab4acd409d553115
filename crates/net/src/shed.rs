//! Load shedding: degrade before refusing, refuse before overloading.
//!
//! The server tracks requests in flight (submitted, not yet answered)
//! behind one [`PressureGauge`]. Admission has three rungs:
//!
//! 1. **Pass** — below `degrade_at`: the request runs untouched.
//! 2. **Degrade** — at or past `degrade_at`: a v1 analyze request is
//!    rewritten to walk the existing `AnalysisBudget` ladder (bounded
//!    iterations/probes with `degrade: true`), so the engine falls back
//!    exact RTA → TDA → density threshold and the client receives a
//!    *sound* answer labeled `Degraded` — visibly cheaper, never wrong,
//!    never silently dropped. Session (v2) operations are stateful and
//!    pass unmodified: changing a session's budget mid-stream would
//!    change its engine fingerprint.
//! 3. **Overload** — at or past `overload_at` (the in-flight bound): the
//!    request is answered immediately with a typed `overloaded` error
//!    line instead of being served. The client knows within one
//!    round-trip; nothing times out silently, nothing is dropped on the
//!    floor.
//!
//! Degraded responses memoize under their own engine fingerprint (budget
//! and degrade flag are memo-key components), so shed-time answers can
//! never be replayed for a full-budget request.

use rmts_svc::BudgetSpec;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where the shed ladder's rungs sit, in in-flight requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShedPolicy {
    /// In-flight count at which v1 requests are degraded (rung 2).
    pub(crate) degrade_at: usize,
    /// In-flight count at which requests are refused with a typed
    /// `overloaded` line (rung 3). At most this many requests are ever
    /// inside the service on the front end's behalf.
    pub(crate) overload_at: usize,
    /// The budget substituted when degrading (`degrade: true` is set
    /// alongside). Bounded iteration/probe caps — deterministic, so
    /// degraded answers stay memoizable.
    pub(crate) degrade_budget: BudgetSpec,
}

impl ShedPolicy {
    /// Derives the ladder from an in-flight budget of `slots_per_shard`
    /// requests per shard: `shards × slots_per_shard` slots degrade at
    /// half occupancy and refuse at full occupancy.
    pub(crate) fn for_capacity(shards: usize, slots_per_shard: usize) -> Self {
        let capacity = (shards.max(1) * slots_per_shard.max(1)).max(2);
        ShedPolicy {
            degrade_at: (capacity / 2).max(1),
            overload_at: capacity,
            degrade_budget: BudgetSpec {
                deadline_ms: None,
                max_iterations: Some(20_000),
                max_probes: Some(5_000),
                horizon_cap: None,
            },
        }
    }
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Serve untouched.
    Pass,
    /// Serve with the degraded budget ladder.
    Degrade,
    /// Refuse with a typed `overloaded` error line.
    Overload,
}

/// Shared in-flight accounting plus the policy that interprets it.
#[derive(Debug)]
pub(crate) struct PressureGauge {
    in_flight: AtomicUsize,
    policy: ShedPolicy,
}

impl PressureGauge {
    /// A gauge at zero pressure.
    pub(crate) fn new(policy: ShedPolicy) -> Self {
        PressureGauge {
            in_flight: AtomicUsize::new(0),
            policy,
        }
    }

    /// Decides admission for one request and, unless refusing, claims an
    /// in-flight slot (release with [`PressureGauge::finish`]).
    pub(crate) fn admit(&self) -> Admission {
        // Claim optimistically, then inspect the pre-claim value: the
        // claim itself serializes concurrent admitters, so `overload_at`
        // is a hard bound on concurrently admitted requests.
        let prior = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prior >= self.policy.overload_at {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Admission::Overload;
        }
        if prior >= self.policy.degrade_at {
            return Admission::Degrade;
        }
        Admission::Pass
    }

    /// Releases the slot claimed by a non-`Overload` admission.
    pub(crate) fn finish(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Requests currently in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// The policy in force.
    pub(crate) fn policy(&self) -> &ShedPolicy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_fire_in_order() {
        let gauge = PressureGauge::new(ShedPolicy {
            degrade_at: 2,
            overload_at: 4,
            degrade_budget: BudgetSpec::unlimited(),
        });
        assert_eq!(gauge.admit(), Admission::Pass); // in flight: 1
        assert_eq!(gauge.admit(), Admission::Pass); // 2
        assert_eq!(gauge.admit(), Admission::Degrade); // 3
        assert_eq!(gauge.admit(), Admission::Degrade); // 4
        assert_eq!(gauge.admit(), Admission::Overload); // refused
        assert_eq!(gauge.in_flight(), 4);
        gauge.finish();
        assert_eq!(gauge.admit(), Admission::Degrade);
    }

    #[test]
    fn derived_policy_tracks_service_capacity() {
        let p = ShedPolicy::for_capacity(4, 64);
        assert_eq!(p.degrade_at, 128);
        assert_eq!(p.overload_at, 256);
        assert!(p.degrade_budget.max_iterations.is_some());
        assert!(
            !p.degrade_budget.is_wall_clock(),
            "degraded answers must stay deterministic"
        );
    }
}
