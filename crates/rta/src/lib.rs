//! # `rmts-rta` — exact uniprocessor fixed-priority schedulability analysis
//!
//! The distinguishing feature of the paper's RM-TS algorithms over the prior
//! L&L-bound algorithm of \[16\] is that task assignment is admitted by
//! **exact response-time analysis** (RTA) against synthetic deadlines,
//! instead of a utilization threshold. This crate provides that machinery:
//!
//! * [`rta::response_time`] / [`rta::response_times`] — the classic
//!   fixed-point iteration `R^{(n+1)} = C_i + Σ_j ⌈R^{(n)}/T_j⌉·C_j` over the
//!   higher-priority workload, exact for constrained (synthetic) deadlines.
//! * [`tda`] — Lehoczky/Sha/Ding time-demand analysis at scheduling points,
//!   an independent exact test used to cross-check RTA in property tests.
//! * [`budget`] — the *admissible budget* computation at the heart of
//!   `MaxSplit`: the largest execution budget a new (sub)task can bring to a
//!   processor without making any (sub)task miss its synthetic deadline,
//!   solved both by monotone binary search and by closed evaluation at
//!   scheduling points (the efficient implementation of \[22\] the paper
//!   refers to).
//! * [`cache`] — the incremental admission cache used by the partitioning
//!   engine: a priority-sorted workload with cached response times whose
//!   probes warm-start the fixed-point iteration and skip unaffected
//!   subtasks, bit-identical to the scratch analysis above.
//! * [`busy_period`] — synchronous level-i busy periods, used for horizon
//!   bounds and diagnostics.
//! * [`sensitivity`] — exact critical scaling factors and per-task WCET
//!   slack (the uniprocessor engine behind breakdown experiments).
//!
//! All analysis is performed on [`Subtask`](rmts_taskmodel::Subtask) slices
//! — a "processor workload" — ordered arbitrarily; priority comes from each
//! subtask's global RM priority.
//!
//! ```
//! use rmts_rta::{response_times, is_schedulable};
//! use rmts_taskmodel::{Subtask, TaskSet, Time};
//!
//! // The textbook set (1,4), (2,6), (3,12): R = 1, 3, 10.
//! let ts = TaskSet::from_pairs(&[(1, 4), (2, 6), (3, 12)]).unwrap();
//! let workload: Vec<Subtask> = ts
//!     .iter_prioritized()
//!     .map(|(p, t)| Subtask::whole(t, p))
//!     .collect();
//! assert!(is_schedulable(&workload));
//! let r = response_times(&workload).unwrap();
//! assert_eq!(r, vec![Time::new(1), Time::new(3), Time::new(10)]);
//! ```
//!
//! Each analysis question has one entry point. The ones a budgeted
//! partitioning run can reach take a [`BudgetMeter`] and return
//! `Result<_, AnalysisError>`: [`RtaCache::probe_remember`] and
//! [`RtaCache::max_budget_bsearch`] (exact RTA, rung 1 of the degradation
//! ladder) and [`tda_admits`] (rung 2). [`BudgetMeter::unlimited`] is the
//! zero-cost case and never fails. The scratch analyses ([`response_time`],
//! [`admits_budget`], [`max_admissible_budget`] and friends) take no
//! meter: they are the references the cache is property-tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod busy_period;
pub mod cache;
pub mod rta;
pub mod sensitivity;
pub mod tda;

pub use budget::{
    admits_budget, max_admissible_budget, max_admissible_budget_bsearch, NewcomerSpec,
};
pub use cache::RtaCache;
pub use rta::{is_schedulable, response_time, response_times};
pub use sensitivity::{scaling_factor, wcet_slack};
pub use tda::{tda_admits, tda_response_bound, tda_schedulable, tda_task_schedulable};

// The budget/error vocabulary lives in `rmts-taskmodel` (the shared base
// crate) so `rmts-sim` can use it without depending on this crate; re-export
// it here because analysis callers reach for it alongside the budgeted APIs.
pub use rmts_taskmodel::{AnalysisBudget, AnalysisError, BudgetMeter, BudgetResource};
