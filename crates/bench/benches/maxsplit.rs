//! ABL-1 bench: the two exact `MaxSplit` implementations.
//!
//! The paper remarks that a binary search over `[0, C]` suffices but that
//! \[22\]'s scheduling-point evaluation is more efficient. Both are exact
//! (property-tested equal in `rmts-rta`); this ablation quantifies the
//! speed gap on realistic processor workloads, for the scratch
//! implementations and for their warm-started [`RtaCache`] counterparts
//! (the path the partitioning engine actually uses).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use rmts_bench::SEED;
use rmts_core::MaxSplitStrategy;
use rmts_gen::trial_rng;
use rmts_rta::budget::NewcomerSpec;
use rmts_rta::RtaCache;
use rmts_taskmodel::{BudgetMeter, Priority, Subtask, SubtaskKind, TaskId, Time};
use std::hint::black_box;

/// A random already-schedulable workload of `n` subtasks plus a newcomer
/// spec with the highest priority (the RM-TS/light splitting situation).
fn scenario(n: usize, trial: u64) -> (Vec<Subtask>, NewcomerSpec) {
    let mut rng = trial_rng(SEED, trial);
    let mut w = Vec::with_capacity(n);
    for i in 0..n {
        let t = rng.gen_range(10_000u64..1_000_000) / 10_000 * 10_000;
        let c = rng.gen_range(1..=t / (2 * n as u64).max(2));
        w.push(Subtask {
            parent: TaskId(i as u32 + 1),
            seq: 1,
            kind: SubtaskKind::Whole,
            wcet: Time::new(c),
            period: Time::new(t),
            deadline: Time::new(t),
            priority: Priority(i as u32 + 1),
        });
    }
    let t_new = rng.gen_range(10_000u64..200_000) / 10_000 * 10_000;
    let spec = NewcomerSpec {
        parent: TaskId(0),
        period: Time::new(t_new),
        deadline: Time::new(t_new),
        priority: Priority(0),
    };
    (w, spec)
}

fn bench(c: &mut Criterion) {
    // Correctness gate before timing: both strategies agree on 100 cases,
    // through the scratch path and through the cache (unmetered: an
    // unlimited meter, the zero-cost case).
    let meter = BudgetMeter::unlimited();
    for trial in 0..100 {
        let (w, spec) = scenario(6, trial);
        let cap = Time::new(spec.deadline.ticks());
        let x = MaxSplitStrategy::BinarySearch.max_budget(&w, &spec, cap);
        assert_eq!(
            x,
            MaxSplitStrategy::SchedulingPoints.max_budget(&w, &spec, cap),
            "strategies disagreed on trial {trial}"
        );
        let mut cache = RtaCache::from_workload(&w);
        for strategy in [
            MaxSplitStrategy::BinarySearch,
            MaxSplitStrategy::SchedulingPoints,
        ] {
            assert_eq!(
                Ok(x),
                strategy.max_budget_cached(&mut cache, &spec, cap, &meter),
                "cached {strategy:?} disagreed on trial {trial}"
            );
        }
    }
    println!("ABL-1: strategies agree on 100 random scenarios; timing them now\n");

    let mut group = c.benchmark_group("abl1_maxsplit");
    group.sample_size(30);
    for n in [4usize, 8, 16] {
        let scenarios: Vec<_> = (0..16).map(|t| scenario(n, t)).collect();
        group.bench_with_input(BenchmarkId::new("binary_search", n), &scenarios, |b, sc| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % sc.len();
                let (w, spec) = &sc[i];
                black_box(MaxSplitStrategy::BinarySearch.max_budget(w, spec, spec.deadline))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("scheduling_points", n),
            &scenarios,
            |b, sc| {
                let mut i = 0;
                b.iter(|| {
                    i = (i + 1) % sc.len();
                    let (w, spec) = &sc[i];
                    black_box(MaxSplitStrategy::SchedulingPoints.max_budget(w, spec, spec.deadline))
                })
            },
        );

        // The same two strategies served from a warm RtaCache — what the
        // engine's `AdmissionPolicy::exact()` path runs.
        for (label, strategy) in [
            ("binary_search_cached", MaxSplitStrategy::BinarySearch),
            (
                "scheduling_points_cached",
                MaxSplitStrategy::SchedulingPoints,
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &scenarios, |b, sc| {
                let mut caches: Vec<RtaCache> =
                    sc.iter().map(|(w, _)| RtaCache::from_workload(w)).collect();
                let mut i = 0;
                b.iter(|| {
                    i = (i + 1) % sc.len();
                    let spec = &sc[i].1;
                    black_box(strategy.max_budget_cached(
                        &mut caches[i],
                        spec,
                        spec.deadline,
                        &meter,
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
