//! # `rmts-svc` — sharded, batched schedulability analysis
//!
//! A long-lived analysis **service** over the unified
//! [`Partitioner`](rmts_core::Partitioner) API: callers submit
//! [`AnalyzeRequest`]s (task set + processor count + [`AlgorithmSpec`] +
//! budget) and receive [`AnalysisOutcome`]s, instead of constructing
//! engines by hand per call. The service owns `N` worker shards; each shard
//! holds long-lived engines per algorithm configuration and a memo table of
//! results for task sets it has already analyzed.
//!
//! The pipeline for one request:
//!
//! 1. **Canonicalize** ([`CanonicalSet`]): tasks are sorted by
//!    `(period, wcet)`, relabeled `0..n`, and all times divided by their
//!    collective gcd. Integer response-time analysis is exactly invariant
//!    under both transformations (`⌈k·x / k·T⌉ = ⌈x/T⌉`), so the canonical
//!    form answers the original schedulability question — and syntactically
//!    different duplicates of the same set become byte-identical.
//! 2. **Route**: the canonical form's FNV-1a hash picks the shard, so every
//!    duplicate of a task set lands on the shard whose memo table holds
//!    its result.
//! 3. **Look up**: the submitting thread looks up `(canonical pairs, m,
//!    engine fingerprint)` in that shard's memo table. The table is
//!    shared read-mostly: its shard is the only writer, submitters only
//!    read. On a hit the submitter answers at once with the stored
//!    outcome — no queue, no shard thread. The stored outcome is
//!    **bit-identical** to what a fresh analysis would produce whenever
//!    the request's budget is deterministic (iteration/probe caps; a
//!    wall-clock deadline is inherently racy, so a memo hit then simply
//!    replays the first run's sound verdict).
//! 4. **Analyze**: a miss is queued to the shard. Submission applies
//!    **backpressure**: each shard's queue is bounded, and `submit`
//!    blocks (never drops, never buffers unboundedly) while the shard is
//!    saturated. The shard looks the key up again — a duplicate queued
//!    behind the job that creates its entry is still a hit — and
//!    otherwise runs the engine, panic-isolated, so a poisoned request
//!    yields an [`Verdict::Invalid`] response instead of killing the
//!    shard, and memoizes the outcome. Since only the shard inserts and
//!    it re-checks first, every distinct question is analysed once, and
//!    hit/miss labels depend on the request stream, not on thread
//!    timing.
//!
//! State outlives the process in two [`record`] files, one on-disk format
//! with one trust policy: the memo snapshot ([`snapshot`]) and the
//! write-ahead session journal ([`journal`]), which
//! [`durability`] checkpoints and recovers.
//!
//! Because both the memo-hit and the fresh path analyze the *canonical*
//! form, memo-hit ≡ fresh reduces to determinism of the engines, which the
//! conformance suite pins down. Task ids appearing in verdicts refer to
//! canonical indices (position after the `(period, wcet)` sort);
//! [`CanonicalSet::permutation`] maps them back to the caller's ids.
//!
//! ```
//! use rmts_core::AlgorithmSpec;
//! use rmts_svc::{AnalyzeRequest, Service, ServiceConfig, Verdict};
//!
//! let svc = Service::new(ServiceConfig::default());
//! let reqs: Vec<AnalyzeRequest> = (0..64)
//!     .map(|_| {
//!         AnalyzeRequest::new(
//!             vec![(1, 4), (2, 8), (2, 8), (4, 16)],
//!             2,
//!             AlgorithmSpec::RmTsLight,
//!         )
//!     })
//!     .collect();
//! let responses = svc.analyze_batch(reqs);
//! assert!(responses
//!     .iter()
//!     .all(|r| matches!(r.outcome.verdict, Verdict::Accepted { .. })));
//! // 64 identical requests → 1 analysis, 63 memo hits.
//! assert_eq!(svc.stats().memo_misses, 1);
//! assert_eq!(svc.stats().memo_hits, 63);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod durability;
pub mod journal;
pub mod queue;
pub mod record;
pub mod request;
pub mod service;
mod shard;
pub mod snapshot;
pub mod wire;

pub use canonical::{CanonicalBatch, CanonicalSet};
pub use durability::{CheckpointReport, DurabilityConfig, DurabilityStats, RecoveryReport};
pub use journal::{read_journal, write_journal, JournalOp};
pub use queue::BoundedQueue;
pub use record::RecordReport;
pub use request::{
    AnalysisOutcome, AnalyzeRequest, BudgetSpec, RepartitionRequest, Request, Response,
    SessionMeta, SessionOp, Verdict, WIRE_V1, WIRE_V2,
};
pub use rmts_core::{AlgorithmSpec, BoundSpec};
pub use service::{Service, ServiceConfig, ServiceStats, Ticket};
pub use snapshot::{engine_fingerprint, read_snapshot, write_snapshot, MemoEntry, SnapshotReport};
pub use wire::{
    parse_line, parse_requests, parse_stream, render_responses, render_stream_responses,
    ResponseRecord, SessionRecord,
};
