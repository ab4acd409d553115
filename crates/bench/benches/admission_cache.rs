//! Admission-cache bench: cached vs scratch admission on the EXP-1 mix.
//!
//! Three kernels, each timed through the incremental [`RtaCache`] path and
//! through the scratch re-analysis path it replaces:
//!
//! * `probe_*` — steady-state admission probes against a standing
//!   processor workload (the first-fit inner loop: most probes do not
//!   mutate the processor, so the cache is warm);
//! * `maxsplit_*` — binary-search `MaxSplit` on the same workloads (each
//!   search issues ~`log₂ C` probes, all warm-started from cached response
//!   times);
//! * `partition_*` — a full `RM-TS/light` partitioning run end-to-end, the
//!   only kernel that also pays cache maintenance (pushes, rebuilds).
//!
//! Workloads use the EXP-1 generator mix (log-uniform periods on a 10 ms
//! grid, UUniFast utilizations). After timing, the harness pairs each
//! cached/scratch measurement, computes speedups, and writes everything to
//! `BENCH_admission.json` at the repository root, plus a recorded
//! observability snapshot (`rmts-obs`) to `BENCH_admission_stats.json`.

use criterion::{BenchmarkId, Criterion};
use rand::Rng;
use rmts_bench::{general_cfg, SEED};
use rmts_core::{
    AdmissionPolicy, AnalysisControl, Configure, Partitioner, ProcessorState, RmTsLight,
};
use rmts_gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts_rta::budget::{admits_budget, max_admissible_budget_bsearch, NewcomerSpec};
use rmts_rta::RtaCache;
use rmts_taskmodel::{BudgetMeter, Priority, Subtask, TaskId, TaskSet, Time};
use serde::Value;
use std::hint::black_box;

/// One processor's worth of EXP-1-style tasks: log-uniform periods on the
/// 10 ms grid, UUniFast split of a near-breakdown total utilization over
/// `n` tasks (first-fit fills each processor to its schedulability edge, so
/// this is the steady state the admission path actually sees).
fn processor_cfg(n: usize) -> GenConfig {
    GenConfig::new(n, 0.88)
        .with_periods(PeriodGen::LogUniform {
            min: 10_000,
            max: 1_000_000,
            granularity: 10_000,
        })
        .with_utilization(UtilizationSpec::any())
}

/// A standing workload (greedily admitted, so fully schedulable) plus a
/// highest-priority newcomer and a budget ladder mixing accepts and
/// rejects — the RM-TS splitting situation.
struct Scenario {
    workload: Vec<Subtask>,
    cache: RtaCache,
    spec: NewcomerSpec,
    budgets: Vec<Time>,
}

fn scenario(n: usize, trial: u64) -> Scenario {
    let mut rng = trial_rng(SEED, trial);
    let ts = processor_cfg(n).generate(&mut rng).expect("generator");
    let mut cache = RtaCache::new();
    let mut workload = Vec::new();
    let meter = BudgetMeter::unlimited();
    for (i, (_, task)) in ts.iter_prioritized().enumerate() {
        // Re-rank priorities from 1 so the newcomer can take priority 0.
        let s = Subtask::whole(task, Priority(i as u32 + 1));
        let spec = NewcomerSpec {
            parent: s.parent,
            period: s.period,
            deadline: s.deadline,
            priority: s.priority,
        };
        if cache.probe_remember(&spec, s.wcet, &meter) == Ok(true) {
            cache.push(s);
            workload.push(s);
        }
    }
    let t_new = rng.gen_range(10_000u64..200_000) / 10_000 * 10_000;
    let spec = NewcomerSpec {
        parent: TaskId(0),
        period: Time::new(t_new),
        deadline: Time::new(t_new),
        priority: Priority(0),
    };
    let d = spec.deadline.ticks();
    let budgets = [d / 64, d / 16, d / 4, d / 2, d]
        .iter()
        .map(|&x| Time::new(x.max(1)))
        .collect();
    Scenario {
        workload,
        cache,
        spec,
        budgets,
    }
}

/// EXP-1 task sets for the end-to-end partition kernel.
fn exp1_sets(m: usize, count: u64) -> Vec<TaskSet> {
    (0..count)
        .map(|trial| {
            let mut rng = trial_rng(SEED ^ 0xE1, trial);
            general_cfg(m)(0.90).generate(&mut rng).expect("generator")
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    // Correctness gate before timing: cached and scratch agree everywhere.
    // The cached kernels run under an unlimited meter, the zero-cost case
    // of the budgeted entry points production calls.
    let meter = BudgetMeter::unlimited();
    for trial in 0..50 {
        let mut sc = scenario(16, trial);
        for &x in &sc.budgets {
            assert_eq!(
                sc.cache.probe_remember(&sc.spec, x, &meter),
                Ok(admits_budget(&sc.workload, &sc.spec, x)),
                "probe/admits_budget disagree on trial {trial}"
            );
        }
        let cap = sc.spec.deadline;
        assert_eq!(
            sc.cache.max_budget_bsearch(&sc.spec, cap, &meter),
            Ok(max_admissible_budget_bsearch(&sc.workload, &sc.spec, cap)),
            "maxsplit bsearch disagrees on trial {trial}"
        );
    }
    println!("admission_cache: cached ≡ scratch on 50 random scenarios; timing\n");

    let mut group = c.benchmark_group("admission_cache");
    // Long measurement windows: the paired cached/scratch ratios are the
    // deliverable, so per-kernel variance matters more than wall clock.
    group.sample_size(200);

    for n in [8usize, 16, 32] {
        let scenarios: Vec<Scenario> = (0..16).map(|t| scenario(n, t)).collect();

        // Steady-state probes: one admission decision per iteration,
        // rotating over scenarios × the budget ladder. The cached probe is
        // `&mut` (it memoizes its fixed points for the admit-then-place
        // push), so its scenarios are owned mutably by the closure.
        let mut probe_scenarios: Vec<Scenario> = (0..16).map(|t| scenario(n, t)).collect();
        group.bench_function(BenchmarkId::new("probe_cached", n), |b| {
            let mut i = 0;
            b.iter(|| {
                i += 1;
                let idx = i % probe_scenarios.len();
                let s = &mut probe_scenarios[idx];
                let x = s.budgets[i % s.budgets.len()];
                black_box(s.cache.probe_remember(&s.spec, x, &meter))
            })
        });
        group.bench_with_input(BenchmarkId::new("probe_scratch", n), &scenarios, |b, sc| {
            let mut i = 0;
            b.iter(|| {
                i += 1;
                let s = &sc[i % sc.len()];
                let x = s.budgets[i % s.budgets.len()];
                black_box(admits_budget(&s.workload, &s.spec, x))
            })
        });

        // MaxSplit by binary search: ~log₂ C probes per call. The cached
        // search is `&mut` now (it recycles its probe buffers through the
        // cache's spare pool), so these scenarios are owned mutably by the
        // closure rather than passed as bench input.
        let mut ms_scenarios: Vec<Scenario> = (0..16).map(|t| scenario(n, t)).collect();
        group.bench_function(BenchmarkId::new("maxsplit_cached", n), |b| {
            let mut i = 0;
            b.iter(|| {
                i += 1;
                let idx = i % ms_scenarios.len();
                let s = &mut ms_scenarios[idx];
                black_box(s.cache.max_budget_bsearch(&s.spec, s.spec.deadline, &meter))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("maxsplit_scratch", n),
            &scenarios,
            |b, sc| {
                let mut i = 0;
                b.iter(|| {
                    i += 1;
                    let s = &sc[i % sc.len()];
                    black_box(max_admissible_budget_bsearch(
                        &s.workload,
                        &s.spec,
                        s.spec.deadline,
                    ))
                })
            },
        );
    }

    // End-to-end: full RM-TS/light partitioning (EXP-1, m = 8), paying
    // cache maintenance as well as reaping probe savings.
    let m = 8;
    let sets = exp1_sets(m, 8);
    for (label, policy) in [
        ("partition_cached", AdmissionPolicy::exact()),
        ("partition_scratch", AdmissionPolicy::exact().uncached()),
    ] {
        group.bench_with_input(BenchmarkId::new(label, m), &sets, |b, sets| {
            let alg = RmTsLight::new().with_policy(policy);
            let mut i = 0;
            b.iter(|| {
                i += 1;
                black_box(alg.partition(&sets[i % sets.len()], m).is_ok())
            })
        });
    }
    group.finish();

    // Replay sanity on the partition kernel inputs: identical outcomes.
    for ts in &exp1_sets(m, 8) {
        let a = RmTsLight::new()
            .with_policy(AdmissionPolicy::exact())
            .partition(ts, m);
        let b = RmTsLight::new()
            .with_policy(AdmissionPolicy::exact().uncached())
            .partition(ts, m);
        assert_eq!(a.is_ok(), b.is_ok(), "cached/scratch verdicts diverged");
    }

    // Keep the trivial-workload admission path honest too (engine probes
    // empty processors constantly during early placement).
    let empty = ProcessorState::new(0);
    let spec = NewcomerSpec {
        parent: TaskId(0),
        period: Time::new(10_000),
        deadline: Time::new(10_000),
        priority: Priority(0),
    };
    let mut p = empty.clone();
    let ctl = AnalysisControl::unlimited();
    assert_eq!(
        AdmissionPolicy::exact().fits_whole(&mut p, &spec, Time::new(5_000), &ctl),
        Ok(true)
    );
}

/// One recorded RM-TS/light partition pass over the EXP-1 sets: the
/// observability snapshot (partitioner phases, RTA-cache hit/miss/re-step
/// counters) that ships alongside the timing report. Recording is active
/// only here — the timed kernels above run with the no-op recorder.
fn record_stats(m: usize, sets: &[TaskSet]) -> String {
    let alg = RmTsLight::new();
    let (_, snap) = rmts_obs::record(|| {
        // Pre-touch the rebuild counter so the snapshot always carries the
        // key — a run with zero rebuilds should report `0`, not omit it.
        rmts_obs::count("rta.cache.rebuilds", 0);
        for ts in sets {
            black_box(alg.partition(ts, m).is_ok());
        }
    });
    assert_eq!(
        snap.counter("rta.cache.hits") + snap.counter("rta.cache.misses"),
        snap.counter("rta.cache.probes"),
        "cache probe accounting out of balance"
    );
    assert!(
        snap.counter("rta.cache.rebuilds") <= m as u64,
        "cross-processor cache reuse regressed: {} rebuilds on the reference run (cap: m = {m})",
        snap.counter("rta.cache.rebuilds")
    );
    serde_json::to_string_pretty(&snap).expect("render stats JSON")
}

/// Pairs `*_cached`/`*_scratch` results and renders the JSON report.
fn render(results: &[criterion::BenchResult]) -> String {
    let entries: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("group".into(), Value::Str(r.group.clone())),
                ("name".into(), Value::Str(r.name.clone())),
                ("mean_ns".into(), Value::Float(r.mean_ns)),
                ("iters".into(), Value::UInt(r.iters)),
            ])
        })
        .collect();

    let mut speedups = Vec::new();
    // Admission kernels (probe, maxsplit) are where the cache claims its
    // win; the end-to-end partition kernel is reported separately because
    // EXP-1 per-processor workloads are shallow (n/m ≈ 4–6 subtasks), so
    // engine overhead dominates and cached ≈ scratch there.
    let mut admission_min = f64::INFINITY;
    let mut admission_log_sum = 0.0;
    let mut admission_count = 0u32;
    let mut end_to_end = f64::NAN;
    for r in results {
        let Some(base) = r.name.find("_cached") else {
            continue;
        };
        let scratch_name = format!("{}_scratch{}", &r.name[..base], &r.name[base + 7..]);
        let Some(s) = results.iter().find(|x| x.name == scratch_name) else {
            continue;
        };
        let speedup = s.mean_ns / r.mean_ns;
        if r.name.starts_with("partition") {
            end_to_end = speedup;
        } else {
            admission_min = admission_min.min(speedup);
            admission_log_sum += speedup.ln();
            admission_count += 1;
        }
        speedups.push(Value::Object(vec![
            ("kernel".into(), Value::Str(r.name.replace("_cached", ""))),
            ("cached_ns".into(), Value::Float(r.mean_ns)),
            ("scratch_ns".into(), Value::Float(s.mean_ns)),
            ("speedup".into(), Value::Float(speedup)),
        ]));
    }

    let report = Value::Object(vec![
        ("bench".into(), Value::Str("admission_cache".into())),
        (
            "description".into(),
            Value::Str(
                "cached (incremental RtaCache) vs scratch admission on the EXP-1 generator mix"
                    .into(),
            ),
        ),
        ("seed".into(), Value::UInt(SEED)),
        ("results".into(), Value::Array(entries)),
        ("speedups".into(), Value::Array(speedups)),
        (
            "admission_min_speedup".into(),
            if admission_min.is_finite() {
                Value::Float(admission_min)
            } else {
                Value::Null
            },
        ),
        (
            "admission_geomean_speedup".into(),
            if admission_count > 0 {
                Value::Float((admission_log_sum / admission_count as f64).exp())
            } else {
                Value::Null
            },
        ),
        (
            "end_to_end_partition_speedup".into(),
            if end_to_end.is_finite() {
                Value::Float(end_to_end)
            } else {
                Value::Null
            },
        ),
    ]);
    serde_json::to_string_pretty(&report).expect("render JSON")
}

fn main() {
    let mut c = Criterion::default();
    bench(&mut c);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_admission.json");
    let json = render(c.results());
    std::fs::write(path, &json).expect("write BENCH_admission.json");
    println!("\nspeedup summary written to {path}");
    for line in json.lines().filter(|l| l.contains("speedup")) {
        println!("  {}", line.trim());
    }
    let stats_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_admission_stats.json"
    );
    let stats = record_stats(8, &exp1_sets(8, 8));
    std::fs::write(stats_path, &stats).expect("write BENCH_admission_stats.json");
    println!("observability snapshot written to {stats_path}");
}
