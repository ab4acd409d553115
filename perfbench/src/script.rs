//! Seeded request scripts for the three workloads.
//!
//! A script is a pool of JSONL request lines plus, per connection, the
//! pool indices it sends: first an untimed warm-up (memo fill, or the
//! session-journal prefill), then the measured part. The same seed,
//! connection count and `--seconds` give byte-identical scripts, so two
//! commits receive the same requests and their memo size, journal length
//! and RSS compare directly. Nothing here is timed.

use rand::Rng;
use rmts_core::{AlgorithmSpec, BoundSpec};
use rmts_gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts_svc::{AnalyzeRequest, CanonicalSet, RepartitionRequest};
use rmts_taskmodel::{DeltaOp, Task, TaskId, TaskSetDelta};
use std::collections::HashSet;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~64 small sets cycled: almost every answer is a memo hit.
    MemoHot,
    /// Every request a distinct deep set near the schedulability edge.
    FreshDeep,
    /// v2 sessions on a durable server, starting from crash recovery.
    SessionJournal,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "memo-hot" => Ok(Workload::MemoHot),
            "fresh-deep" => Ok(Workload::FreshDeep),
            "session-journal" => Ok(Workload::SessionJournal),
            other => Err(format!(
                "unknown workload {other:?} (memo-hot, fresh-deep, session-journal)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemoHot => "memo-hot",
            Workload::FreshDeep => "fresh-deep",
            Workload::SessionJournal => "session-journal",
        }
    }

    /// Measured requests per connection per second of `--seconds`: a
    /// little under what one closed-loop connection completes per second
    /// on a 2-vCPU host (fresh-deep: under half, since every request is
    /// also analysed again for its reference answer), so a run measures
    /// for somewhat less than `--seconds`. The count, not the clock, ends
    /// the measured phase, so both commits do the same work.
    fn per_conn_per_sec(self) -> usize {
        match self {
            Workload::MemoHot => 9_000,
            Workload::FreshDeep => 1_500,
            Workload::SessionJournal => 2_500,
        }
    }
}

/// What a session line does (for the workload guards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A v1 analyze request.
    Analyze,
    Open,
    /// A single-task WCET update: the splice fast path's target delta.
    Update,
    /// A task leaves and a re-parameterised task takes its id: a
    /// structural delta, served by guided replay.
    Swap,
    /// Adds enough load that the set is infeasible on any algorithm.
    Reject,
    Close,
}

pub struct Line {
    /// The request line, newline included.
    pub text: String,
    pub class: OpClass,
}

pub struct Script {
    pub workload: Workload,
    pub pool: Vec<Line>,
    /// Per connection: untimed warm-up (memo-hot, fresh-deep) or prefill
    /// (session-journal) pool indices.
    pub warmup: Vec<Vec<usize>>,
    /// Per connection: measured pool indices.
    pub measured: Vec<Vec<usize>>,
}

const PERIODS: PeriodGen = PeriodGen::LogUniform {
    min: 10_000,
    max: 1_000_000,
    granularity: 10_000,
};

fn pairs_of(cfg: &GenConfig, rng: &mut impl Rng) -> Vec<(u64, u64)> {
    let ts = cfg.generate(rng).expect("UUniFast-discard finds a set");
    ts.tasks()
        .iter()
        .map(|t| (t.wcet.ticks(), t.period.ticks()))
        .collect()
}

fn line<T: serde::Serialize>(req: &T, class: OpClass) -> Line {
    let mut text = serde_json::to_string(req).expect("requests serialize");
    text.push('\n');
    Line { text, class }
}

fn spec(text: &str) -> AlgorithmSpec {
    text.parse().expect("catalogue grammar string")
}

impl Script {
    pub fn generate(workload: Workload, seed: u64, conns: usize, seconds: u64) -> Script {
        let per_conn = workload.per_conn_per_sec() * seconds.max(1) as usize;
        match workload {
            Workload::MemoHot => memo_hot(seed, conns, per_conn),
            Workload::FreshDeep => fresh_deep(seed, conns, per_conn),
            Workload::SessionJournal => session_journal(seed, conns, per_conn),
        }
    }

    pub fn measured_requests(&self) -> usize {
        self.measured.iter().map(Vec::len).sum()
    }
}

/// 64 distinct small sets (n 24–31, m = 4, `light` and `rmts:hc`). The
/// warm-up sends each once, spread over the connections; the measured part
/// cycles all 64 on every connection from a per-connection offset.
fn memo_hot(seed: u64, conns: usize, per_conn: usize) -> Script {
    const DISTINCT: usize = 64;
    let algorithms = [
        AlgorithmSpec::RmTsLight,
        AlgorithmSpec::RmTs {
            bound: BoundSpec::HarmonicChain,
        },
    ];
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(DISTINCT);
    let mut trial = 0u64;
    while pool.len() < DISTINCT {
        let i = pool.len();
        let cfg = GenConfig::new(24 + i % 8, 0.85 * 4.0)
            .with_periods(PERIODS)
            .with_utilization(UtilizationSpec::capped(0.6));
        let pairs = pairs_of(&cfg, &mut trial_rng(seed ^ 0x3E30_0000, trial));
        trial += 1;
        let alg = algorithms[i % 2];
        if seen.insert((CanonicalSet::of_pairs(&pairs).pairs().to_vec(), i % 2)) {
            pool.push(line(&AnalyzeRequest::new(pairs, 4, alg), OpClass::Analyze));
        }
    }
    let warmup = (0..conns)
        .map(|c| (c..DISTINCT).step_by(conns).collect())
        .collect();
    let measured = (0..conns)
        .map(|c| {
            let offset = c * DISTINCT / conns.max(1);
            (0..per_conn).map(|k| (offset + k) % DISTINCT).collect()
        })
        .collect();
    Script {
        workload: Workload::MemoHot,
        pool,
        warmup,
        measured,
    }
}

/// Distinct deep sets (n 64–128 on m = n/8, U/m ≈ 0.87): mostly `light`
/// and `rmts:hc`, a minority over strict partitioned-RM catalogue entries.
/// Duplicates (by canonical form and engine) are redrawn, so no request
/// can hit the memo. A short warm-up of further distinct sets lets the
/// server's engine arenas and workspaces reach steady state.
fn fresh_deep(seed: u64, conns: usize, per_conn: usize) -> Script {
    const WARMUP_PER_CONN: usize = 16;
    let engines = [
        ("light", 40),
        ("rmts:hc", 35),
        ("prm:ff-rta:du", 10),
        ("prm:wf-chen:du", 10),
        ("prm:bf-rta:dd", 5),
    ];
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    let mut warmup = vec![Vec::new(); conns];
    let mut measured = vec![Vec::new(); conns];
    for c in 0..conns {
        let mut rng = trial_rng(seed ^ 0xF7E5_0000, c as u64);
        for k in 0..WARMUP_PER_CONN + per_conn {
            loop {
                let n = rng.gen_range(64..=128usize);
                let m = (n / 8).clamp(8, 16);
                let load = rng.gen_range(0.85..0.89) * m as f64;
                let cfg = GenConfig::new(n, load)
                    .with_periods(PERIODS)
                    .with_utilization(UtilizationSpec::capped(0.6));
                let pairs = pairs_of(&cfg, &mut rng);
                let mut pick = rng.gen_range(0..100u32);
                let alg = engines
                    .iter()
                    .find(|(_, w)| {
                        let hit = pick < *w;
                        pick = pick.saturating_sub(*w);
                        hit
                    })
                    .map(|(s, _)| *s)
                    .expect("weights sum to 100");
                if !seen.insert((CanonicalSet::of_pairs(&pairs).pairs().to_vec(), alg)) {
                    continue;
                }
                let idx = pool.len();
                pool.push(line(
                    &AnalyzeRequest::new(pairs, m, spec(alg)),
                    OpClass::Analyze,
                ));
                if k < WARMUP_PER_CONN {
                    warmup[c].push(idx);
                } else {
                    measured[c].push(idx);
                }
                break;
            }
        }
    }
    Script {
        workload: Workload::FreshDeep,
        pool,
        warmup,
        measured,
    }
}

/// Sessions a connection keeps open at once.
const SESSIONS_PER_CONN: usize = 8;
/// Accepted base sets per connection, reused by Close/re-Open churn.
const BASES_PER_CONN: usize = 12;
/// Journaled prefill ops per connection (recovered at measured start).
const PREFILL_PER_CONN: usize = 1_500;
const SESSION_M: usize = 8;

/// A base set the session engines accept, in canonical form (session
/// deltas address canonical ids in canonical time units).
struct Base {
    pairs: Vec<(u64, u64)>,
    canonical: Vec<(u64, u64)>,
    algorithm: &'static str,
    utilization: f64,
}

/// Base `k` of a connection: sizes spread evenly over 48–64 tasks and every
/// fourth base on `rmts:hc`, so the mix of work is the same for every seed.
fn accepted_base(k: usize, rng: &mut impl Rng) -> Base {
    let n = 48 + k * 16 / (BASES_PER_CONN - 1);
    let algorithm = if k % 4 == 3 { "rmts:hc" } else { "light" };
    loop {
        let cfg = GenConfig::new(n, 0.75 * SESSION_M as f64)
            .with_periods(PERIODS)
            .with_utilization(UtilizationSpec::capped(0.5));
        let pairs = pairs_of(&cfg, rng);
        let canon = CanonicalSet::of_pairs(&pairs);
        let ts = canon.to_taskset().expect("generated sets are valid");
        if spec(algorithm).build(n).partition(&ts, SESSION_M).is_ok() {
            let canonical = canon.pairs().to_vec();
            let utilization = canonical.iter().map(|&(c, t)| c as f64 / t as f64).sum();
            return Base {
                pairs,
                canonical,
                algorithm,
                utilization,
            };
        }
    }
}

/// The generator's model of one session. Every delta it emits is valid
/// whatever the server decided before: updates and swaps keep the id set
/// fixed (updates touch even ids, swaps odd ids, so an update always
/// carries the task's current period), and rejected deltas add fresh ids
/// that never commit.
struct SessionModel {
    name: String,
    base: usize,
    /// Per canonical id: whether the next update lowers (vs restores).
    lowered: Vec<bool>,
    /// Per canonical id: whether the next swap switches to the variant.
    swapped: Vec<bool>,
    next_reject_id: u32,
}

impl SessionModel {
    fn open(name: String, base: usize, bases: &[Base]) -> (Self, Line) {
        let b = &bases[base];
        let n = b.canonical.len();
        let req = RepartitionRequest::open(
            name.clone(),
            AnalyzeRequest::new(b.pairs.clone(), SESSION_M, spec(b.algorithm)),
        );
        let model = SessionModel {
            name,
            base,
            lowered: vec![false; n],
            swapped: vec![false; n],
            next_reject_id: 1_000_000,
        };
        (model, line(&req, OpClass::Open))
    }

    fn update(&mut self, bases: &[Base], rng: &mut impl Rng) -> Line {
        let canon = &bases[self.base].canonical;
        let id = 2 * rng.gen_range(0..canon.len().div_ceil(2));
        let (c, t) = canon[id];
        let lowered = !self.lowered[id];
        self.lowered[id] = lowered;
        let wcet = if lowered && c > 1 {
            c - (c / 100).max(1)
        } else {
            c
        };
        let task = Task::from_ticks(id as u32, wcet, t).expect("lowered WCET stays valid");
        let req = RepartitionRequest::delta(self.name.clone(), TaskSetDelta::update(task));
        line(&req, OpClass::Update)
    }

    fn swap(&mut self, bases: &[Base], rng: &mut impl Rng) -> Line {
        let canon = &bases[self.base].canonical;
        let id = 1 + 2 * rng.gen_range(0..canon.len() / 2);
        let (c, t) = canon[id];
        let variant = !self.swapped[id];
        self.swapped[id] = variant;
        // The variant doubles the period at equal utilization, so the
        // task moves in priority order: a structural change.
        let (c, t) = if variant { (2 * c, 2 * t) } else { (c, t) };
        let task = Task::from_ticks(id as u32, c, t).expect("scaled task stays valid");
        let delta = TaskSetDelta::new(vec![DeltaOp::Remove(TaskId(id as u32)), DeltaOp::Add(task)]);
        line(
            &RepartitionRequest::delta(self.name.clone(), delta),
            OpClass::Swap,
        )
    }

    /// Updates lower a WCET by at most 1% and swaps keep utilization, so
    /// the load stays within 1% below the base load; tasks of utilization
    /// 0.99 adding more than the capacity that could remain make the set
    /// infeasible for any algorithm.
    fn reject(&mut self, bases: &[Base]) -> Line {
        let spare = SESSION_M as f64 - 0.99 * bases[self.base].utilization;
        let k = (spare / 0.99).floor() as u32 + 2;
        let ops = (0..k)
            .map(|i| {
                let task = Task::from_ticks(self.next_reject_id + i, 990, 1000);
                DeltaOp::Add(task.expect("0.99-utilization task is valid"))
            })
            .collect();
        self.next_reject_id += k;
        line(
            &RepartitionRequest::delta(self.name.clone(), TaskSetDelta::new(ops)),
            OpClass::Reject,
        )
    }
}

/// v2 sessions: each connection opens 8 sessions (mostly `light`, some
/// `rmts:hc`) on accepted deep sets (n 48–64, m = 8, U/m ≈ 0.75), then
/// streams ops round-robin over them: single-task WCET updates, remove/add
/// swaps, deltas that admission rejects, and Close/re-Open churn. The
/// prefill is the first part of the same stream; the measured part
/// continues it against the recovered server.
fn session_journal(seed: u64, conns: usize, per_conn: usize) -> Script {
    let mut pool = Vec::new();
    let mut warmup = vec![Vec::new(); conns];
    let mut measured = vec![Vec::new(); conns];
    for c in 0..conns {
        let mut rng = trial_rng(seed ^ 0x5E55_0000, c as u64);
        let bases: Vec<Base> = (0..BASES_PER_CONN)
            .map(|k| accepted_base(k, &mut rng))
            .collect();
        let mut next_base = 0;
        let mut sessions = Vec::with_capacity(SESSIONS_PER_CONN);
        let mut lines = Vec::new();
        for s in 0..SESSIONS_PER_CONN {
            let (model, open) = SessionModel::open(format!("c{c}-s{s}"), next_base, &bases);
            next_base = (next_base + 1) % BASES_PER_CONN;
            sessions.push(model);
            lines.push(open);
        }
        let total = PREFILL_PER_CONN + per_conn;
        let mut turn = 0;
        while lines.len() < total {
            let s = &mut sessions[turn % SESSIONS_PER_CONN];
            turn += 1;
            match rng.gen_range(0..100u32) {
                0..=54 => lines.push(s.update(&bases, &mut rng)),
                55..=79 => lines.push(s.swap(&bases, &mut rng)),
                80..=91 => lines.push(s.reject(&bases)),
                _ => {
                    lines.push(line(
                        &RepartitionRequest::close(s.name.clone()),
                        OpClass::Close,
                    ));
                    let (model, open) = SessionModel::open(s.name.clone(), next_base, &bases);
                    next_base = (next_base + 1) % BASES_PER_CONN;
                    *s = model;
                    lines.push(open);
                }
            }
        }
        lines.truncate(total);
        for (k, l) in lines.into_iter().enumerate() {
            let idx = pool.len();
            pool.push(l);
            if k < PREFILL_PER_CONN {
                warmup[c].push(idx);
            } else {
                measured[c].push(idx);
            }
        }
    }
    Script {
        workload: Workload::SessionJournal,
        pool,
        warmup,
        measured,
    }
}
