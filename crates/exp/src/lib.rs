//! # `rmts-exp` — the experiment harness
//!
//! Regenerates the paper's evaluation (reconstructed; see DESIGN.md §3 for
//! the experiment index EXP-1…EXP-12 / ABL-1…ABL-2) through one runner,
//! `rmts-exp <id> [--quick] [--trials N] [--seed S] [--out DIR]`:
//!
//! * [`registry`] — one entry per table; the binary, the script, the
//!   `experiments` bench target and the tests all iterate it.
//! * [`cli`] — the one argument parser and the table/artifact output.
//! * [`acceptance`] — acceptance-ratio-vs-normalized-utilization sweeps
//!   comparing RM-TS, RM-TS/light, the \[16\]-style SPA baselines and
//!   strict partitioned RM (EXP-1, EXP-2, EXP-3, EXP-8, ABL-2).
//! * [`verify`] — bound-verification campaigns: thousands of task sets at
//!   `U_M(τ) ≤ Λ(τ)` per (bound × algorithm) cell, expecting **zero**
//!   rejections, with RTA and simulator cross-checks (EXP-4).
//! * [`breakdown`] — average breakdown utilization: how far each algorithm
//!   can be pushed before it first rejects, the multiprocessor analogue of
//!   the classic "~88% average vs. 69.3% worst case" observation (EXP-5).
//! * [`structure`] — structural statistics of produced partitions: split
//!   tasks, pre-assigned processors, wall-clock partitioning time (EXP-6).
//! * [`weighted`] (EXP-11) and [`frontier`] (EXP-12, the whole algorithm
//!   catalogue head to head).
//! * [`parallel`] — deterministic fan-out of independent trials over all
//!   cores (coarse-grained parallelism, per-trial derived seeds).
//! * [`table`] — fixed-width text and CSV rendering of result tables.

//! ```
//! use rmts_bounds::HarmonicChain;
//! use rmts_exp::sizing::min_processors_by_bound;
//! use rmts_taskmodel::TaskSet;
//!
//! // U(τ) = 2.4 over a harmonic set: the capped HC bound sizes the
//! // platform instantly.
//! let ts = TaskSet::from_pairs(&[(3, 10), (3, 10), (6, 10), (6, 10), (6, 10)]).unwrap();
//! let m = min_processors_by_bound(&ts, &HarmonicChain);
//! assert_eq!(m, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptance;
pub mod breakdown;
pub mod cli;
pub mod frontier;
pub mod parallel;
pub mod registry;
pub mod sizing;
pub mod structure;
pub mod table;
pub mod verify;
pub mod weighted;
