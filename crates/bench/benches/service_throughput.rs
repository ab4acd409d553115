//! Service-throughput bench: the sharded batch-analysis service against a
//! serial analyze-every-request loop.
//!
//! The workload is the service's design point: a 10 000-request batch drawn
//! from ~150 unique task sets (duplicate-heavy — admission-control traffic
//! re-asks about the same configurations). Two kernels:
//!
//! * `serial_fresh` — the pre-service baseline: for every request,
//!   canonicalize, build the engine, run the analysis. No memoization.
//! * `batch_service` — a fresh 8-shard [`Service`] per iteration (its
//!   construction and the batch's scoped worker threads are *inside* the
//!   timed region), answering the same batch through per-shard memo
//!   tables (hits answered without a shard lock, misses under it).
//!
//! Before timing, the harness asserts the service's answers are
//! **bit-identical** (serialized JSON) to the serial fresh analyses for all
//! 10 000 requests — the memo-hit ≡ fresh guarantee the speedup rests on.
//! Results and the speedup go to `BENCH_service.json` at the repo root.

use criterion::Criterion;
use rmts_bench::SEED;
use rmts_core::{AlgorithmSpec, BoundSpec};
use rmts_gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts_svc::{AnalysisOutcome, AnalyzeRequest, CanonicalSet, Service, ServiceConfig, Verdict};
use serde::Value;
use std::hint::black_box;

const UNIQUE_SETS: usize = 150;
const BATCH: usize = 10_000;
const SHARDS: usize = 8;
/// Size of the 0%-duplicate batch (every request a distinct set — all
/// memo misses, isolating fresh-analysis throughput).
const FRESH_BATCH: usize = 600;

/// ~150 unique task sets in the EXP-1 style (log-uniform periods on the
/// 10 ms grid). Deep sets near the schedulability edge: admission-control
/// traffic asks about non-trivial configurations, where RTA fixed points
/// iterate and the analysis — not the dispatch — is the cost.
fn unique_sets() -> Vec<Vec<(u64, u64)>> {
    (0..UNIQUE_SETS as u64)
        .map(|trial| {
            let n = 52 + (trial % 8) as usize;
            let cfg = GenConfig::new(n, 0.87 * 4.0)
                .with_periods(PeriodGen::LogUniform {
                    min: 10_000,
                    max: 1_000_000,
                    granularity: 10_000,
                })
                .with_utilization(UtilizationSpec::capped(0.6));
            let ts = cfg
                .generate(&mut trial_rng(SEED ^ 0x5C, trial))
                .expect("generator");
            ts.tasks()
                .iter()
                .map(|t| (t.wcet.ticks(), t.period.ticks()))
                .collect()
        })
        .collect()
}

/// The 10 000-request batch: round-robin over the unique sets and two
/// engine configurations (so ~300 distinct analyses back ~10k requests).
fn batch() -> Vec<AnalyzeRequest> {
    let sets = unique_sets();
    let algorithms = [
        AlgorithmSpec::RmTsLight,
        AlgorithmSpec::RmTs {
            bound: BoundSpec::HarmonicChain,
        },
    ];
    (0..BATCH)
        .map(|i| {
            AnalyzeRequest::new(
                sets[i % sets.len()].clone(),
                4,
                algorithms[(i / sets.len()) % algorithms.len()],
            )
        })
        .collect()
}

/// A 0%-duplicate batch: every request carries a distinct task set, so the
/// memo table never hits and every answer is a fresh analysis. This is the
/// complement of [`batch`]: it measures the service's un-memoizable hot
/// path (canonicalization, shard locking, engine reuse, workspace-recycled
/// partitioning) rather than deduplication.
fn fresh_only_batch() -> Vec<AnalyzeRequest> {
    let algorithms = [
        AlgorithmSpec::RmTsLight,
        AlgorithmSpec::RmTs {
            bound: BoundSpec::HarmonicChain,
        },
    ];
    (0..FRESH_BATCH as u64)
        .map(|trial| {
            let n = 52 + (trial % 8) as usize;
            let cfg = GenConfig::new(n, 0.87 * 4.0)
                .with_periods(PeriodGen::LogUniform {
                    min: 10_000,
                    max: 1_000_000,
                    granularity: 10_000,
                })
                .with_utilization(UtilizationSpec::capped(0.6));
            let ts = cfg
                .generate(&mut trial_rng(SEED ^ 0xF0, trial))
                .expect("generator");
            let pairs = ts
                .tasks()
                .iter()
                .map(|t| (t.wcet.ticks(), t.period.ticks()))
                .collect();
            AnalyzeRequest::new(pairs, 4, algorithms[(trial % 2) as usize])
        })
        .collect()
}

/// The service-free reference: canonicalize, build the engine, analyze.
/// Exactly what a shard does on a memo miss.
fn fresh_outcome(req: &AnalyzeRequest) -> AnalysisOutcome {
    let canon = CanonicalSet::of_pairs(&req.taskset);
    let ts = canon.to_taskset().expect("generated sets are valid");
    let engine = req
        .algorithm
        .build_with(ts.len(), &req.options())
        .expect("defaults are representable");
    let verdict = match engine.partition(&ts, req.m) {
        Ok(p) => Verdict::Accepted {
            processors_used: p.processors.iter().filter(|q| !q.is_empty()).count(),
            splits: p.split_tasks().iter().map(|t| t.0).collect(),
            exactness: p.exactness,
        },
        Err(rej) => Verdict::Rejected {
            phase: rej.phase,
            task: rej.task.map(|t| t.0),
            unassigned: rej.unassigned.iter().map(|t| t.0).collect(),
            analysis: rej.analysis,
            reason: rej.reason.clone(),
        },
    };
    AnalysisOutcome {
        algorithm: engine.name(),
        m: req.m,
        verdict,
    }
}

fn bench(c: &mut Criterion) -> (u64, u64) {
    let reqs = batch();

    // Correctness gate before timing: every service answer — memo hit or
    // not — serializes to the same bytes as the serial fresh analysis.
    let svc = Service::new(ServiceConfig::new().with_shards(SHARDS));
    let responses = svc.analyze_batch(reqs.clone());
    for (req, resp) in reqs.iter().zip(&responses) {
        let fresh = fresh_outcome(req);
        assert_eq!(
            serde_json::to_string(&*resp.outcome).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "service outcome diverged from fresh analysis"
        );
    }
    let stats = svc.stats();
    assert!(
        stats.memo_hits > 0 && stats.memo_misses as usize <= 2 * UNIQUE_SETS,
        "the duplicate-heavy batch must be memo-served: {stats:?}"
    );
    println!(
        "service_throughput: {} responses bit-identical to fresh analysis \
         ({} unique analyses, {} memo hits); timing\n",
        responses.len(),
        stats.memo_misses,
        stats.memo_hits
    );
    let (hits, misses) = (stats.memo_hits, stats.memo_misses);
    drop(svc);

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    group.bench_function("serial_fresh", |b| {
        b.iter(|| {
            let mut accepted = 0usize;
            for req in &reqs {
                if matches!(fresh_outcome(req).verdict, Verdict::Accepted { .. }) {
                    accepted += 1;
                }
            }
            black_box(accepted)
        })
    });
    group.bench_function("batch_service", |b| {
        b.iter(|| {
            // A cold service per iteration: build, serve, drop — so the
            // measured speedup includes all service overhead and no
            // cross-iteration memo warmth.
            let svc = Service::new(ServiceConfig::new().with_shards(SHARDS));
            black_box(svc.analyze_batch(reqs.clone()).len())
        })
    });

    // The 0%-duplicate variant: every request distinct, every answer a
    // fresh analysis. Gate first: the batch really is duplicate-free and
    // still bit-identical to serial analysis.
    let fresh_reqs = fresh_only_batch();
    let svc = Service::new(ServiceConfig::new().with_shards(SHARDS));
    let responses = svc.analyze_batch(fresh_reqs.clone());
    for (req, resp) in fresh_reqs.iter().zip(&responses) {
        let fresh = fresh_outcome(req);
        assert_eq!(
            serde_json::to_string(&*resp.outcome).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "0%-duplicate service outcome diverged from fresh analysis"
        );
    }
    let fresh_stats = svc.stats();
    assert_eq!(
        fresh_stats.memo_misses as usize,
        fresh_reqs.len(),
        "the 0%-duplicate batch must be all memo misses: {fresh_stats:?}"
    );
    drop(svc);

    group.bench_function("serial_0dup", |b| {
        b.iter(|| {
            let mut accepted = 0usize;
            for req in &fresh_reqs {
                if matches!(fresh_outcome(req).verdict, Verdict::Accepted { .. }) {
                    accepted += 1;
                }
            }
            black_box(accepted)
        })
    });
    group.bench_function("service_0dup", |b| {
        b.iter(|| {
            let svc = Service::new(ServiceConfig::new().with_shards(SHARDS));
            black_box(svc.analyze_batch(fresh_reqs.clone()).len())
        })
    });
    group.finish();
    (hits, misses)
}

fn render(results: &[criterion::BenchResult], memo_hits: u64, memo_misses: u64) -> String {
    let mean = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ns)
            .expect("kernel was timed")
    };
    let serial = mean("serial_fresh");
    let service = mean("batch_service");
    let speedup = serial / service;
    assert!(
        speedup >= 4.0,
        "the service must beat the serial loop by >= 4x on the duplicate-heavy \
         batch (got {speedup:.2}x: serial {serial:.0} ns vs service {service:.0} ns)"
    );
    let serial_0dup = mean("serial_0dup");
    let service_0dup = mean("service_0dup");
    let fresh_speedup = serial_0dup / service_0dup;
    // With zero duplicates the memo never helps; the win comes from shard
    // parallelism (absent on single-core CI boxes) plus engine/workspace
    // reuse on the miss path. Gate only against pathological overhead —
    // the recorded `fresh_speedup_0dup` is the honest headline.
    assert!(
        fresh_speedup >= 0.7,
        "service overhead swamps fresh analysis on the 0%-duplicate batch \
         (got {fresh_speedup:.2}x: serial {serial_0dup:.0} ns vs \
         service {service_0dup:.0} ns)"
    );

    let entries: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("mean_ns".into(), Value::Float(r.mean_ns)),
                ("iters".into(), Value::UInt(r.iters)),
            ])
        })
        .collect();
    let report = Value::Object(vec![
        ("bench".into(), Value::Str("service_throughput".into())),
        (
            "description".into(),
            Value::Str(
                "8-shard rmts-svc batch service vs serial fresh analysis on a \
                 10k-request duplicate-heavy batch (~150 unique sets x 2 engines); \
                 all service answers asserted bit-identical to fresh analysis"
                    .into(),
            ),
        ),
        ("seed".into(), Value::UInt(SEED)),
        ("batch_size".into(), Value::UInt(BATCH as u64)),
        ("unique_sets".into(), Value::UInt(UNIQUE_SETS as u64)),
        ("shards".into(), Value::UInt(SHARDS as u64)),
        ("memo_hits".into(), Value::UInt(memo_hits)),
        ("memo_misses".into(), Value::UInt(memo_misses)),
        ("fresh_batch_size".into(), Value::UInt(FRESH_BATCH as u64)),
        ("results".into(), Value::Array(entries)),
        ("speedup".into(), Value::Float(speedup)),
        ("fresh_speedup_0dup".into(), Value::Float(fresh_speedup)),
        ("bit_identity".into(), Value::Str("verified".into())),
    ]);
    serde_json::to_string_pretty(&report).expect("render JSON")
}

fn main() {
    let mut c = Criterion::default();
    let (hits, misses) = bench(&mut c);
    let json = render(c.results(), hits, misses);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, &json).expect("write BENCH_service.json");
    println!("\nreport written to {path}");
    for line in json
        .lines()
        .filter(|l| l.contains("speedup") || l.contains("mean_ns"))
    {
        println!("  {}", line.trim());
    }
}
