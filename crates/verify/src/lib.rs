//! # `rmts-verify` — differential oracles, shrinking, fuzz campaigns
//!
//! The paper's guarantees are falsifiable claims: RM-TS never accepts a
//! task set the exact RTA rejects, accepted partitions never miss a
//! deadline, every parametric bound is sound against exact analysis. This
//! crate is the workspace's correctness backbone — it *tries to falsify*
//! those claims systematically instead of spot-checking them:
//!
//! * [`oracle`] — the oracle hierarchy. Exhaustive hyperperiod simulation
//!   (complete for synchronous periodic releases) sits at the top; exact
//!   RTA/TDA analysis and the structural audit below it; the claimed
//!   parametric bounds at the bottom. Each [`CheckKind`] cross-checks one
//!   pair of components that must agree.
//! * [`shrink`](mod@shrink) — greedy minimization of counterexamples: drop
//!   processors and tasks, shave WCETs, snap periods toward harmonic, while
//!   the divergence persists.
//! * [`campaign`] — seeded fuzz campaigns over the `rmts-gen` families
//!   through the deterministic, panic-isolated `parallel_map_isolated`;
//!   same seed ⇒ bit-identical report, and a panicking trial is contained
//!   and reported as a [`CampaignFault`] instead of killing the run.
//! * [`corpus`] — self-contained JSON reproducers under `tests/corpus/`,
//!   replayed by the tier-1 suite.
//! * [`crash`] — kill–recover fault injection for the durable service:
//!   the exhaustive torn-write sweep over the record-file framing the
//!   memo snapshot and the session journal share,
//!   plus a child-process harness that SIGKILLs a real `rmts-cli serve`
//!   at seeded points mid-load and checks recovery.
//! * [`sut`] — named, serializable partitioner configurations, including
//!   the deliberately unsound [`SystemUnderTest::WeakenedAdmission`]
//!   fault-injection hook that proves the oracles catch real bugs.
//! * [`wire_lines`] — seeded compact v1 request lines and one-mutation
//!   damaged copies of them: the wire decoder's oracle input and the TCP
//!   server's hostile traffic.
//!
//! ```
//! use rmts_verify::{run_campaign, CampaignConfig};
//!
//! let mut cfg = CampaignConfig::quick(42);
//! cfg.trials = 20;
//! let report = run_campaign(&cfg);
//! assert!(report.clean(), "{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod crash;
pub mod divergence;
pub mod oracle;
pub mod repartition;
pub mod shrink;
pub mod sut;
pub mod wire_lines;

pub use campaign::{run_campaign, CampaignConfig, CampaignFault, CampaignReport, GeneratorKind};
pub use corpus::{load_corpus, replay_corpus, save_corpus, Expectation, Reproducer, REPRO_SCHEMA};
pub use crash::{kill_points, torn_write_sweep, JsonlClient, ServerProc, TornSweepReport};
pub use divergence::Divergence;
pub use oracle::{run_check, CheckKind};
pub use repartition::{
    check_delta_stream, run_delta_campaign, shrink_delta_stream, DeltaCampaignConfig,
    DeltaCampaignReport, DeltaFault, DeltaReproducer, PathStats, ShrunkDeltas, StaleRepartition,
};
pub use shrink::{shrink, Shrunk, MAX_SHRINK_STEPS};
pub use sut::SystemUnderTest;
pub use wire_lines::{compact_v1_lines, mutated_lines};
