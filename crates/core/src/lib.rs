//! # `rmts-core` — the paper's partitioning algorithms
//!
//! This crate implements the primary contribution of *Guan, Stigge, Yi, Yu —
//! "Parametric Utilization Bounds for Fixed-Priority Multiprocessor
//! Scheduling" (IPDPS 2012)*:
//!
//! * [`RmTsLight`] — Section IV's algorithm: tasks assigned in increasing
//!   priority order to the least-utilized processor, admitted by **exact
//!   response-time analysis** against synthetic deadlines, split with
//!   `MaxSplit` when they do not fit. Achieves any deflatable parametric
//!   utilization bound `Λ(τ)` for light task sets (`U_i ≤ Θ/(1+Θ)`).
//! * [`RmTs`] — Section V's algorithm: adds a pre-assignment phase for heavy
//!   tasks (plus, per footnote 5, dedicated processors for tasks whose
//!   utilization exceeds `Λ(τ)`), then worst-fit on normal processors and
//!   first-fit on pre-assigned processors. Achieves
//!   `min(Λ(τ), 2Θ/(1+Θ))` for arbitrary task sets.
//! * [`baselines`] — the comparators the evaluation needs: strictly
//!   partitioned RM with first/best/worst-fit-decreasing and selectable
//!   admission, and the \[16\]-style task-splitting algorithms (`Spa1`,
//!   `Spa2`) that use utilization/density thresholds instead of exact RTA —
//!   precisely the difference the paper's average-case claims hinge on.
//!
//! The splitting engine shared by RM-TS, RM-TS/light and the SPA baselines
//! is in [`engine`], configured by one [`Splitting`] block (an
//! [`admission::AdmissionPolicy`], the analysis budget and the degradation
//! ladder); `MaxSplit` (Definition 3) lives in [`maxsplit`].
//!
//! ```
//! use rmts_core::{Partitioner, RmTsLight};
//! use rmts_taskmodel::TaskSetBuilder;
//!
//! // A light harmonic task set at 95% normalized utilization on 4
//! // processors: Theorem 8 with the 100% harmonic bound guarantees that
//! // RM-TS/light partitions it successfully.
//! let mut b = TaskSetBuilder::new();
//! for _ in 0..16 {
//!     b = b.task(19, 80);
//! }
//! let ts = b.build().unwrap();
//! assert!((ts.normalized_utilization(4) - 0.95).abs() < 1e-9);
//!
//! let partition = RmTsLight::new().partition(&ts, 4).unwrap();
//! assert!(partition.verify_rta());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod audit;
pub mod baselines;
pub mod config;
pub mod engine;
pub mod ladder;
pub mod maxsplit;
pub mod overhead;
pub mod partition;
pub mod processor;
pub mod rmts;
pub mod rmts_light;
pub mod session;
pub mod spec;
pub mod workspace;

pub use admission::AdmissionPolicy;
pub use audit::{audit, AuditError};
pub use config::{Configure, Splitting, WithBound};
pub use ladder::{AnalysisControl, Exactness};
pub use maxsplit::MaxSplitStrategy;
pub use overhead::{inflate, overhead_tolerance, OverheadModel};
pub use partition::{
    Bottleneck, DynPartitioner, Partition, PartitionPhase, PartitionReject, PartitionResult,
    Partitioner,
};
pub use processor::{ProcessorRole, ProcessorState};
pub use rmts::RmTs;
pub use rmts_light::RmTsLight;
pub use rmts_taskmodel::{AnalysisBudget, AnalysisError, BudgetResource};
pub use session::{
    PartitionSession, PriorRun, RepartitionError, RepartitionOk, RepartitionPath,
    RepartitionResult, Repartitioner, SessionTrace,
};
pub use spec::{AlgorithmSpec, BoundSpec, EngineOptions, SpecError};
pub use workspace::PartitionWorkspace;
