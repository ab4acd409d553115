//! # `rmts-net` — TCP front end for the analysis service
//!
//! Serves the `rmts-svc` JSONL protocol over persistent TCP connections:
//! v1 [`AnalyzeRequest`](rmts_svc::AnalyzeRequest) lines and v2
//! session operations
//! ([`RepartitionRequest`](rmts_svc::RepartitionRequest)), answered in
//! request order per connection with the same
//! [`ResponseRecord`](rmts_svc::ResponseRecord) /
//! [`SessionRecord`](rmts_svc::SessionRecord) lines `rmts-cli
//! serve-batch` writes — over-the-wire answers are bit-identical to
//! in-process ones.
//!
//! The front end is built from four small parts:
//!
//! - [`framing`]: bounded JSONL line reading (a client cannot buffer the
//!   server into the ground) and typed [`ErrorRecord`] lines — every
//!   failure is answered or cleanly dropped, never silently ignored.
//! - [`limiter`]: a per-connection token bucket; throttled clients get a
//!   typed `rate_limited` line, not a stalled socket.
//! - `shed`: the load ladder — degrade v1 requests through the
//!   existing `AnalysisBudget` fallback chain before refusing anything,
//!   and refuse with a typed `overloaded` line past the in-flight bound.
//! - [`server`]: one acceptor, a bounded connection pool, one thread and
//!   response-index counter per connection, and a graceful stop that
//!   drains every accepted request into an atomically written memo
//!   snapshot ([`rmts_svc::snapshot`]) for the next start to restore.
//!
//! ```no_run
//! use rmts_net::{NetConfig, Server};
//!
//! let server = Server::start(NetConfig::new().with_addr("127.0.0.1:7421")).unwrap();
//! println!("listening on {}", server.addr());
//! // ... serve ...
//! server.stop().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framing;
pub mod limiter;
pub mod server;
mod shed;

pub use framing::{ErrorKind, ErrorRecord, LineEvent, LineReader};
pub use limiter::TokenBucket;
pub use server::{NetConfig, NetStats, NetStatsSnapshot, Server};
