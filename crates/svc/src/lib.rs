//! # `rmts-svc` — sharded, batched schedulability analysis
//!
//! A long-lived analysis **service** over the unified
//! [`Partitioner`](rmts_core::Partitioner) API: callers submit
//! [`AnalyzeRequest`]s (task set + processor count + [`AlgorithmSpec`] +
//! budget) and receive [`AnalysisOutcome`]s, instead of constructing
//! engines by hand per call. The service owns `N` shards, each behind its
//! own lock; each shard holds long-lived engines per algorithm
//! configuration and a memo table of results for task sets it has
//! already analyzed. Shards are locks, not threads: every request runs on
//! the thread that submits it.
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
//!    shared read-mostly: only the holder of its shard's lock writes it,
//!    submitters read it. On a hit the submitter answers at once with the
//!    stored outcome — no shard lock. The stored outcome is
//!    **bit-identical** to what a fresh analysis would produce whenever
//!    the request's budget is deterministic (iteration/probe caps; a
//!    wall-clock deadline is inherently racy, so a memo hit then simply
//!    replays the first run's sound verdict).
//! 4. **Analyze**: on a miss the submitting thread takes the shard's
//!    lock and serves the request itself. Under the lock it looks the
//!    key up again — a duplicate that waited for the lock behind the job
//!    creating its entry is still a hit — and otherwise runs the engine,
//!    panic-isolated, so a poisoned request yields an
//!    [`Verdict::Invalid`] response instead of poisoning the shard, and
//!    memoizes the outcome. Since only a lock holder inserts and it
//!    re-checks first, every distinct question is analysed once, and
//!    hit/miss labels depend on the request stream, not on thread
//!    timing. A batch ([`Service::run_stream`]) groups its requests by
//!    shard and serves each group on one scoped worker thread.
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
//! use rmts_svc::{AnalyzeRequest, Request, Service, ServiceConfig, Verdict};
//!
//! let svc = Service::new(ServiceConfig::default());
//! let reqs: Vec<Request> = (0..64)
//!     .map(|_| {
//!         Request::Analyze(AnalyzeRequest::new(
//!             vec![(1, 4), (2, 8), (2, 8), (4, 16)],
//!             2,
//!             AlgorithmSpec::RmTsLight,
//!         ))
//!     })
//!     .collect();
//! let responses = svc.run_stream(reqs);
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
pub mod record;
pub mod request;
pub mod service;
mod shard;
pub mod snapshot;
pub mod wire;

pub use canonical::CanonicalSet;
pub use durability::{CheckpointReport, DurabilityConfig, DurabilityStats, RecoveryReport};
pub use journal::{read_journal, write_journal, JournalOp};
pub use record::RecordReport;
pub use request::{
    AnalysisOutcome, AnalyzeRequest, BudgetSpec, RepartitionRequest, Request, Response,
    SessionMeta, SessionOp, Verdict, WIRE_V1, WIRE_V2,
};
pub use rmts_core::{AlgorithmSpec, BoundSpec};
pub use service::{Service, ServiceConfig, ServiceStats, Ticket};
pub use snapshot::{engine_fingerprint, read_snapshot, write_snapshot, MemoEntry, SnapshotReport};
pub use wire::{parse_line, parse_stream, render_stream_responses, ResponseRecord, SessionRecord};
