//! Memo footprint and hit-path allocations (DESIGN.md §9).
//!
//! This binary installs the `rmts-obs` counting allocator and holds a
//! single test, because the live-byte count it reads is process-wide: no
//! other test may allocate while it measures. It pins two figures:
//!
//! 1. **bytes per memo entry** — a 1-shard service filled with 2,000
//!    distinct fresh-deep-shaped misses retains at most 900 bytes of heap
//!    per entry: packed key, outcome and table slot together; and
//! 2. **the warm hit path** — a memo hit makes at most 2 heap allocations
//!    inside `Service::submit_indexed`: canonicalization's permutation and
//!    packed key.

use rand::Rng;
use rmts::gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts::obs::alloc::{live_bytes, thread_allocations, CountingAllocator};
use rmts::svc::{AnalyzeRequest, Service, ServiceConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The engines of the benchmark's fresh-deep workload.
const ENGINES: [&str; 5] = [
    "light",
    "rmts:hc",
    "prm:ff-rta:du",
    "prm:wf-chen:du",
    "prm:bf-rta:dd",
];

/// A fresh-deep-shaped question of `n` tasks: m = n/8 clamped to 8–16,
/// U/m in 0.85–0.89, log-uniform periods of 10 ms–1 s on a 10 ms grid, no
/// task above 0.6. Deterministic in its arguments.
fn deep_request(n: usize, engine: &str, trial: u64) -> AnalyzeRequest {
    let mut rng = trial_rng(0xF00D, trial);
    let m = (n / 8).clamp(8, 16);
    let load = rng.gen_range(0.85..0.89) * m as f64;
    let pairs = GenConfig::new(n, load)
        .with_periods(PeriodGen::LogUniform {
            min: 10_000,
            max: 1_000_000,
            granularity: 10_000,
        })
        .with_utilization(UtilizationSpec::capped(0.6))
        .generate(&mut rng)
        .expect("UUniFast-discard finds a set")
        .tasks()
        .iter()
        .map(|t| (t.wcet.ticks(), t.period.ticks()))
        .collect();
    AnalyzeRequest::new(pairs, m, engine.parse().expect("catalogue grammar"))
}

#[test]
fn memo_entries_are_small_and_hits_barely_allocate() {
    const FILL: u64 = 2_000;
    let svc = Service::new(ServiceConfig::new().with_shards(1));
    // Warm-up: one question per engine and size builds every engine the
    // fill uses, and grows the partitioning workspace to its largest set.
    let mut trial = 0;
    for n in 64..=128 {
        for engine in ENGINES {
            assert!(!svc.submit(deep_request(n, engine, trial)).wait().memo_hit);
            trial += 1;
        }
    }

    let fill = |k: u64| {
        let n = trial_rng(0xF111, k).gen_range(64..=128);
        deep_request(n, ENGINES[k as usize % ENGINES.len()], trial + k)
    };
    let misses = svc.stats().memo_misses;
    let before = live_bytes();
    for k in 0..FILL {
        assert!(!svc.submit(fill(k)).wait().memo_hit);
    }
    let retained = live_bytes() - before;
    assert_eq!(
        svc.stats().memo_misses - misses,
        FILL,
        "every fill is a miss"
    );
    let per_entry = retained as u64 / FILL;
    println!("memo footprint: {per_entry} B of live heap per entry");
    assert!(
        per_entry <= 900,
        "a memo entry retains {per_entry} B of heap (bound 900 B)"
    );

    let req = fill(0);
    let allocations = thread_allocations();
    let hit = svc.submit_indexed(0, req);
    let allocations = thread_allocations() - allocations;
    assert!(hit.wait().memo_hit);
    println!("memo hit: {allocations} allocation(s) in submit_indexed");
    assert!(
        allocations <= 2,
        "a warm memo hit made {allocations} allocations (bound 2)"
    );
}
