//! Service-level guarantees: memo-hit ≡ fresh bit-identity, hits served
//! without a shard lock, one analysis per distinct question under
//! concurrency, per-request budget isolation, and panic isolation.

use rmts_core::{AlgorithmSpec, BoundSpec};
use rmts_gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts_svc::{
    AnalysisOutcome, AnalyzeRequest, BudgetSpec, CanonicalSet, Request, Response, Service,
    ServiceConfig, Verdict,
};
use std::sync::Barrier;

/// Serves v1 requests as one stream.
fn analyze(svc: &Service, reqs: Vec<AnalyzeRequest>) -> Vec<Response> {
    svc.run_stream(reqs.into_iter().map(Request::Analyze).collect())
}

fn light_pairs(seed: u64) -> Vec<(u64, u64)> {
    // A small deterministic family of valid task sets, keyed by seed.
    let base = [(1u64, 4u64), (2, 8), (2, 8), (4, 16)];
    base.iter()
        .map(|&(c, t)| (c, t + (seed % 3) * t)) // stretch periods per seed
        .collect()
}

/// A deep set near the schedulability edge of four processors: 52–59
/// tasks, log-uniform periods on a 10 ms grid, total utilization
/// `load`·4 with no task above 0.6.
fn near_edge_pairs(trial: u64, load: f64) -> Vec<(u64, u64)> {
    GenConfig::new(52 + (trial % 8) as usize, load * 4.0)
        .with_periods(PeriodGen::LogUniform {
            min: 10_000,
            max: 1_000_000,
            granularity: 10_000,
        })
        .with_utilization(UtilizationSpec::capped(0.6))
        .generate(&mut trial_rng(0x5C, trial))
        .expect("generator")
        .tasks()
        .iter()
        .map(|t| (t.wcet.ticks(), t.period.ticks()))
        .collect()
}

/// A fresh, service-free reference answer: same canonicalization, engine
/// built directly from the spec.
fn fresh_outcome(req: &AnalyzeRequest) -> AnalysisOutcome {
    let canon = CanonicalSet::of_pairs(&req.taskset);
    let ts = canon.to_taskset().unwrap();
    let engine = req.algorithm.build_with(ts.len(), &req.options()).unwrap();
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

/// Duplicate-heavy batch: every memoized outcome must serialize to exactly
/// the same bytes as a fresh, service-free analysis of the same request.
/// The inputs are small light sets under four engines and deep sets near
/// the schedulability edge under `light` and `rmts:hc`, so the answers
/// include both accepted and rejected verdicts.
#[test]
fn memo_hits_are_bit_identical_to_fresh_analysis() {
    let svc = Service::new(ServiceConfig::new().with_shards(4));
    let algorithms = [
        AlgorithmSpec::RmTs {
            bound: BoundSpec::HarmonicChain,
        },
        AlgorithmSpec::RmTsLight,
        AlgorithmSpec::Spa1,
        AlgorithmSpec::PartitionedRm {
            fit: rmts_core::baselines::Fit::First,
            admission: rmts_core::baselines::UniAdmission::ExactRta,
            sort: rmts_core::baselines::SortOrder::DecreasingUtilization,
        },
    ];
    // U/m from 0.87 to 0.97 crosses the edge: the last sets are rejected.
    let deep: Vec<_> = (0..6)
        .map(|k| near_edge_pairs(k, 0.87 + 0.02 * k as f64))
        .collect();
    let mut reqs = Vec::new();
    for _round in 0..6 {
        for seed in 0..3u64 {
            for alg in algorithms {
                reqs.push(AnalyzeRequest::new(light_pairs(seed), 2, alg));
            }
        }
        for pairs in &deep {
            for alg in &algorithms[..2] {
                reqs.push(AnalyzeRequest::new(pairs.clone(), 4, *alg));
            }
        }
    }
    let n = reqs.len();
    let responses = analyze(&svc, reqs.clone());
    assert_eq!(responses.len(), n);

    let stats = svc.stats();
    let distinct = 3 * 4 + deep.len() * 2;
    assert_eq!(
        stats.memo_misses as usize, distinct,
        "one miss per distinct question"
    );
    assert_eq!(stats.memo_hits as usize, n - distinct);

    for (req, resp) in reqs.iter().zip(&responses) {
        assert_eq!(
            serde_json::to_string(&*resp.outcome).unwrap(),
            serde_json::to_string(&fresh_outcome(req)).unwrap(),
            "memoized outcome differs from fresh analysis for {req:?}"
        );
    }
    let verdicts = |f: fn(&Verdict) -> bool| responses.iter().any(|r| f(&r.outcome.verdict));
    assert!(verdicts(|v| matches!(v, Verdict::Accepted { .. })));
    assert!(verdicts(|v| matches!(v, Verdict::Rejected { .. })));
}

/// K threads submit the same unseen set at once. Whichever submissions
/// miss without the lock wait for one shard's lock, under which the memo
/// is re-checked before analysing: exactly one analysis, K − 1 hits, one
/// answer.
#[test]
fn concurrent_duplicates_are_analysed_once() {
    const K: usize = 8;
    let svc = Service::new(ServiceConfig::new().with_shards(2));
    let req = AnalyzeRequest::new(
        vec![(3, 10), (4, 15), (5, 20), (7, 35), (9, 45)],
        2,
        AlgorithmSpec::RmTsLight,
    );
    let start = Barrier::new(K);
    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..K)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let resp = svc.submit(req.clone()).wait();
                    serde_json::to_string(&*resp.outcome).unwrap()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let stats = svc.stats();
    assert_eq!(stats.memo_misses, 1, "one analysis for K identical sets");
    assert_eq!(stats.memo_hits as usize, K - 1);
    assert_eq!(stats.completed as usize, K);
    let fresh = serde_json::to_string(&fresh_outcome(&req)).unwrap();
    for outcome in &outcomes {
        assert_eq!(outcome, &fresh);
    }
}

/// A service restored from a snapshot answers a restored set from its
/// memo — `memo_hit: true`, bit-identical to fresh analysis — without
/// touching a shard: no shard busy time is recorded.
#[test]
fn restored_hits_never_touch_a_shard() {
    let path = std::env::temp_dir().join(format!(
        "rmts_service_restored_hits_{}.bin",
        std::process::id()
    ));
    let req = AnalyzeRequest::new(light_pairs(1), 2, AlgorithmSpec::RmTsLight);
    let warm = Service::new(ServiceConfig::new().with_shards(2));
    assert!(!warm.submit(req.clone()).wait().memo_hit);
    warm.shutdown_with_snapshot(&path).unwrap();

    let (svc, report) = Service::with_restored(ServiceConfig::new().with_shards(2), &path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.records, 1);
    let before = svc.stats();
    let resp = svc.submit(req.clone()).wait();
    let after = svc.stats();
    assert!(
        resp.memo_hit,
        "a restored set must be answered from the memo"
    );
    assert_eq!(
        serde_json::to_string(&*resp.outcome).unwrap(),
        serde_json::to_string(&fresh_outcome(&req)).unwrap()
    );
    assert_eq!((after.memo_hits, after.memo_misses), (1, 0));
    assert_eq!(after.shard_busy_ns, before.shard_busy_ns);
    assert_eq!(after.max_queue_depth, before.max_queue_depth);
}

/// Relabeled and time-scaled duplicates of one set must share a single
/// analysis.
#[test]
fn canonicalization_dedups_disguised_duplicates() {
    let svc = Service::new(ServiceConfig::new().with_shards(2));
    let reqs = vec![
        AnalyzeRequest::new(vec![(1, 4), (2, 8), (4, 16)], 2, AlgorithmSpec::RmTsLight),
        // shuffled
        AnalyzeRequest::new(vec![(4, 16), (1, 4), (2, 8)], 2, AlgorithmSpec::RmTsLight),
        // uniformly scaled ×7
        AnalyzeRequest::new(
            vec![(7, 28), (14, 56), (28, 112)],
            2,
            AlgorithmSpec::RmTsLight,
        ),
    ];
    let responses = analyze(&svc, reqs);
    assert_eq!(svc.stats().memo_misses, 1);
    assert_eq!(svc.stats().memo_hits, 2);
    let first = serde_json::to_string(&*responses[0].outcome).unwrap();
    for r in &responses[1..] {
        assert_eq!(serde_json::to_string(&*r.outcome).unwrap(), first);
        assert_eq!(r.canonical_hash, responses[0].canonical_hash);
        assert_eq!(r.shard, responses[0].shard, "duplicates share a shard");
    }
}

/// A starved budget on one request must not leak into its neighbors: the
/// same task set analyzed with and without the budget gets different memo
/// entries and different exactness.
#[test]
fn per_request_budgets_are_isolated() {
    let svc = Service::new(ServiceConfig::new().with_shards(2));
    let pairs = vec![(1u64, 4u64), (2, 8), (2, 8), (4, 16)];
    let starved = AnalyzeRequest::new(pairs.clone(), 2, AlgorithmSpec::RmTsLight)
        .with_budget(BudgetSpec {
            max_iterations: Some(0),
            ..BudgetSpec::unlimited()
        })
        .with_degrade(true);
    let normal = AnalyzeRequest::new(pairs, 2, AlgorithmSpec::RmTsLight);
    let responses = analyze(&svc, vec![starved.clone(), normal.clone(), starved, normal]);
    // Same canonical set, different engine fingerprints: 2 misses, 2 hits.
    assert_eq!(svc.stats().memo_misses, 2);
    assert_eq!(svc.stats().memo_hits, 2);
    match (&responses[0].outcome.verdict, &responses[1].outcome.verdict) {
        (
            Verdict::Accepted {
                exactness: starved_e,
                ..
            },
            Verdict::Accepted {
                exactness: normal_e,
                ..
            },
        ) => {
            assert!(
                !starved_e.is_exact(),
                "a 0-iteration budget must force the ladder"
            );
            assert!(normal_e.is_exact(), "the unbudgeted twin must stay exact");
        }
        other => panic!("both verdicts should accept: {other:?}"),
    }
}

/// `m = 0` trips the engines' `assert!(m > 0)`; the shard must answer
/// `Invalid` and keep serving subsequent requests.
#[test]
fn engine_panics_are_isolated_to_their_request() {
    let svc = Service::new(ServiceConfig::new().with_shards(1));
    let poisoned = AnalyzeRequest::new(vec![(1, 4), (2, 8)], 0, AlgorithmSpec::RmTsLight);
    let healthy = AnalyzeRequest::new(vec![(1, 4), (2, 8)], 2, AlgorithmSpec::RmTsLight);
    let responses = analyze(&svc, vec![poisoned, healthy.clone(), healthy]);
    match &responses[0].outcome.verdict {
        Verdict::Invalid { reason } => {
            assert!(reason.contains("panic"), "unexpected reason: {reason}")
        }
        other => panic!("m = 0 must be Invalid, got {other:?}"),
    }
    for r in &responses[1..] {
        assert!(
            matches!(r.outcome.verdict, Verdict::Accepted { .. }),
            "the shard must survive the panic"
        );
    }
    assert_eq!(svc.stats().panics, 1);
}

/// Unrepresentable options (budget flags on the unbudgeted strict
/// baseline) are answered as `Invalid`, not panics or silent drops.
#[test]
fn unrepresentable_options_are_answered_as_invalid() {
    let svc = Service::new(ServiceConfig::default());
    let req = AnalyzeRequest::new(
        vec![(1, 4), (2, 8)],
        2,
        AlgorithmSpec::PartitionedRm {
            fit: rmts_core::baselines::Fit::First,
            admission: rmts_core::baselines::UniAdmission::ExactRta,
            sort: rmts_core::baselines::SortOrder::DecreasingUtilization,
        },
    )
    .with_degrade(true);
    let responses = analyze(&svc, vec![req]);
    match &responses[0].outcome.verdict {
        Verdict::Invalid { reason } => assert!(reason.contains("prm"), "{reason}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// Single-request submission path: tickets resolve, order metadata is the
/// submission sequence.
#[test]
fn submit_tickets_resolve_out_of_band() {
    let svc = Service::new(ServiceConfig::default());
    let t1 = svc.submit(AnalyzeRequest::new(
        vec![(1, 4), (2, 8)],
        2,
        AlgorithmSpec::RmTsLight,
    ));
    let t2 = svc.submit(AnalyzeRequest::new(
        vec![(1, 4), (2, 8)],
        1,
        AlgorithmSpec::RmTsLight,
    ));
    let r1 = t1.wait();
    let r2 = t2.wait();
    assert_eq!(r1.index, 0);
    assert_eq!(r2.index, 1);
    assert!(matches!(r1.outcome.verdict, Verdict::Accepted { .. }));
    assert!(matches!(r2.outcome.verdict, Verdict::Accepted { .. }));
    // Same set, different m → distinct memo entries.
    assert_eq!(svc.stats().memo_misses, 2);
}
