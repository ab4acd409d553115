//! # `rmts` — Parametric Utilization Bounds for Fixed-Priority Multiprocessor Scheduling
//!
//! A production-quality Rust implementation of
//! *Guan, Stigge, Yi, Yu — IPDPS 2012*: the **RM-TS** and **RM-TS/light**
//! semi-partitioned rate-monotonic scheduling algorithms, which generalize
//! deflatable parametric utilization bounds (Liu & Layland, harmonic-chain,
//! 100%-harmonic, T-Bound, R-Bound) from uniprocessors to multiprocessors
//! via task splitting admitted by exact response-time analysis.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! | module | contents |
//! |---|---|
//! | [`taskmodel`] | tasks, subtasks, synthetic deadlines, harmonic chains |
//! | [`rta`] | exact uniprocessor analysis (RTA, TDA, MaxSplit engine) |
//! | [`bounds`] | deflatable parametric utilization bounds |
//! | [`core`] | RM-TS, RM-TS/light, baselines (SPA1/2, partitioned RM) |
//! | [`sim`] | discrete-event partitioned/global scheduling simulator |
//! | [`gen`] | synthetic task-set generation (UUniFast-discard etc.) |
//! | [`exp`] | experiment harness regenerating the paper's evaluation |
//! | [`obs`] | opt-in observability: counters, histograms, span timers |
//! | [`verify`] | differential oracles, counterexample shrinking, fuzz campaigns |
//! | [`svc`] | sharded, batched analysis service with canonicalizing memo tables |
//! | [`net`] | TCP front end: JSONL over persistent connections, load shedding, memo snapshots |
//!
//! ## Quickstart
//!
//! ```
//! use rmts::prelude::*;
//!
//! // A harmonic, light task set at 95% normalized utilization on 4 CPUs.
//! let mut b = TaskSetBuilder::new();
//! for _ in 0..16 {
//!     b = b.task_ms(19, 80);
//! }
//! let ts = b.build().unwrap();
//!
//! // Partition it with RM-TS/light (Theorem 8 guarantees success: the set
//! // is light and harmonic, so the applicable parametric bound is 100%).
//! let partition = RmTsLight::new().partition(&ts, 4).unwrap();
//! assert!(partition.verify_rta());
//!
//! // And prove it dynamically: simulate one hyperperiod.
//! let report = simulate_partitioned(&partition.workloads(), SimConfig::default());
//! assert!(report.all_deadlines_met());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rmts_bounds as bounds;
pub use rmts_core as core;
pub use rmts_exp as exp;
pub use rmts_gen as gen;
pub use rmts_net as net;
pub use rmts_obs as obs;
pub use rmts_rta as rta;
pub use rmts_sim as sim;
pub use rmts_svc as svc;
pub use rmts_taskmodel as taskmodel;
pub use rmts_verify as verify;

/// The common imports for working with the library.
pub mod prelude {
    pub use rmts_bounds::{
        ll_bound, BestOf, HarmonicChain, LiuLayland, ParametricBound, RBound, TBound,
    };
    pub use rmts_core::baselines::{spa1, spa2, Fit, PartitionedRm, SortOrder, UniAdmission};
    pub use rmts_core::{
        audit, AdmissionPolicy, AlgorithmSpec, AnalysisBudget, AnalysisError, Bottleneck,
        BoundSpec, Configure, DynPartitioner, EngineOptions, Exactness, MaxSplitStrategy,
        OverheadModel, Partition, PartitionPhase, PartitionReject, PartitionSession,
        PartitionWorkspace, Partitioner, PriorRun, RepartitionError, RepartitionOk,
        RepartitionPath, RepartitionResult, Repartitioner, RmTs, RmTsLight, SessionTrace,
        SpecError, WithBound,
    };
    pub use rmts_gen::{GenConfig, PeriodGen, UtilizationSpec};
    pub use rmts_net::{NetConfig, Server};
    pub use rmts_obs::{Recording, StatsSnapshot};
    pub use rmts_sim::{simulate_global, simulate_partitioned, SimConfig, SimReport};
    pub use rmts_svc::{AnalyzeRequest, BudgetSpec, Service, ServiceConfig, Verdict};
    pub use rmts_taskmodel::{
        DeltaError, DeltaOp, Priority, Subtask, SubtaskKind, Task, TaskId, TaskSet, TaskSetBuilder,
        TaskSetDelta, Time,
    };
    pub use rmts_verify::{run_campaign, CampaignConfig, CampaignReport, CheckKind, Divergence};
}
