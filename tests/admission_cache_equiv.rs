//! End-to-end property test: full partitioning runs driven through the
//! incremental admission cache produce *identical* partitions to runs that
//! re-analyze every admission from scratch.
//!
//! The per-call parity (probe ≡ `admits_budget`, cached MaxSplit ≡ scratch
//! MaxSplit) is proven in `rmts-rta`'s `cache_equivalence` suite; this test
//! closes the loop at the engine level, where cache state is carried across
//! thousands of admission decisions, invalidated on mutation, and consulted
//! by both whole-task placement and tail splitting. Any drift — a stale
//! response, a wrongly warm-started fixed point, a missed invalidation —
//! shows up as a structurally different partition.
//!
//! The comparison also runs under finite analysis budgets, with and
//! without the degradation ladder: a budgeted answer must not depend on
//! the `cached` flag (exact admission then meters through the cache on
//! both sides, so exhaustion lands on the same probe).

use proptest::prelude::*;
use rmts::core::admission::AdmissionPolicy;
use rmts::prelude::*;
use rmts::taskmodel::TaskSet;

/// Runs one instance through a warm, possibly dirty [`PartitionWorkspace`]
/// and asserts the result is bit-identical to a fresh `partition()` call —
/// the cross-processor/cross-set reuse contract. Recycles the outcome so
/// the *next* call through the same workspace starts from this instance's
/// leftovers, which is exactly the state the property must hold under.
fn assert_workspace_parity(
    engine: &dyn Partitioner,
    ts: &TaskSet,
    m: usize,
    ws: &mut PartitionWorkspace,
    ctx: &str,
) {
    let fresh = engine.partition(ts, m);
    let warm = engine.partition_with(ts, m, ws);
    match (fresh, warm) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{ctx}: warm workspace diverged from fresh run");
            ws.recycle(b);
        }
        (Err(a), Err(b)) => {
            let (a, b) = (*a, *b);
            assert_eq!(a, b, "{ctx}: warm workspace reject diverged");
            ws.recycle(b.partial);
        }
        (a, b) => panic!(
            "{ctx}: verdicts differ (fresh ok={}, warm ok={})",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

/// A feasible-ish random task set plus a processor count (same shape as the
/// `splitting_invariants` generator: utilization 40–95% of capacity, so both
/// accepted and rejected instances occur).
fn arb_instance() -> impl Strategy<Value = (TaskSet, usize)> {
    (2usize..=4, 4usize..=12, 40u64..95).prop_flat_map(|(m, n, u_pct)| {
        let total = u_pct as f64 / 100.0 * m as f64;
        proptest::collection::vec((1u64..=4, 1u64..100), n).prop_map(move |raw| {
            let menu = [5_000u64, 10_000, 15_000, 20_000, 30_000, 60_000];
            let wsum: f64 = raw.iter().map(|&(_, w)| w as f64).sum();
            let tasks: Vec<Task> = raw
                .iter()
                .enumerate()
                .map(|(i, &(pm, w))| {
                    let t = menu[(pm as usize + i) % menu.len()];
                    let u = (total * w as f64 / wsum).min(0.95);
                    let c = ((t as f64) * u).floor().max(1.0) as u64;
                    Task::from_ticks(i as u32, c.min(t), t).unwrap()
                })
                .collect();
            (TaskSet::new(tasks).unwrap(), m)
        })
    })
}

/// Both ExactRta variants for one MaxSplit strategy.
fn policy_pair(strategy: MaxSplitStrategy) -> (AdmissionPolicy, AdmissionPolicy) {
    (
        AdmissionPolicy::ExactRta {
            strategy,
            cached: true,
        },
        AdmissionPolicy::ExactRta {
            strategy,
            cached: false,
        },
    )
}

/// The budget axis: unlimited, then iteration and probe caps from starved
/// to nearly ample. Wall-clock deadlines are left out because their
/// exhaustion point is not reproducible.
fn budgets() -> [AnalysisBudget; 7] {
    let b = AnalysisBudget::unlimited();
    [
        b,
        b.with_max_iterations(0),
        b.with_max_iterations(3),
        b.with_max_iterations(20),
        b.with_max_iterations(200),
        b.with_max_probes(2),
        b.with_max_probes(10),
    ]
}

/// Cached and scratch admission yield identical outcomes for every
/// strategy × budget × degrade combination: same accept/reject verdict,
/// bit-identical partitions (processor workloads, recorded responses via
/// synthetic deadlines, split plans, exactness) and, on a reject, the same
/// unassigned tasks, partial partition and budget diagnosis.
fn assert_cached_equals_scratch<E: Configure + Partitioner>(
    engine: fn() -> E,
    ts: &TaskSet,
    m: usize,
) -> Result<(), TestCaseError> {
    for strategy in [
        MaxSplitStrategy::BinarySearch,
        MaxSplitStrategy::SchedulingPoints,
    ] {
        let (cached, scratch) = policy_pair(strategy);
        for budget in budgets() {
            for degrade in [false, true] {
                let ctx = format!("{strategy:?}, {budget:?}, degrade {degrade}");
                let run = |policy| {
                    engine()
                        .with_policy(policy)
                        .with_budget(budget)
                        .with_degrade(degrade)
                        .partition(ts, m)
                };
                match (run(cached), run(scratch)) {
                    (Ok(pa), Ok(pb)) => prop_assert_eq!(pa, pb, "{}: partitions differ", ctx),
                    (Err(fa), Err(fb)) => {
                        prop_assert_eq!(&fa.unassigned, &fb.unassigned, "{}", ctx);
                        prop_assert_eq!(&fa.partial, &fb.partial, "{}", ctx);
                        prop_assert_eq!(&fa.analysis, &fb.analysis, "{}", ctx);
                    }
                    (a, b) => prop_assert!(
                        false,
                        "{}: verdicts differ (cached ok={}, scratch ok={})",
                        ctx,
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RM-TS/light: cached ≡ scratch under every budget.
    #[test]
    fn rmts_light_cached_equals_scratch((ts, m) in arb_instance()) {
        assert_cached_equals_scratch(RmTsLight::new, &ts, m)?;
    }

    /// RM-TS (the parametric-bound algorithm, with pre-assignment and
    /// dedicated processors): cached ≡ scratch under every budget.
    #[test]
    fn rmts_cached_equals_scratch((ts, m) in arb_instance()) {
        assert_cached_equals_scratch(RmTs::new, &ts, m)?;
    }

    /// The strict-partitioning baseline also routes its RTA admission
    /// through the processor cache; its decisions must match a scratch
    /// uniprocessor analysis of each host's workload.
    #[test]
    fn partitioned_rm_cache_is_sound((ts, m) in arb_instance()) {
        let Ok(part) = PartitionedRm::ffd_rta().partition(&ts, m) else { return Ok(()) };
        prop_assert!(part.verify_rta());
        prop_assert!(audit(&part, &ts).is_empty());
    }

    /// Cross-set workspace reuse: ONE workspace carried dirty across a
    /// sequence of instances, alternating engines and strategies, always
    /// produces partitions bit-identical to fresh scratch-workspace runs.
    /// This is the reuse contract the service shards and the partition
    /// bench rely on.
    #[test]
    fn workspace_reuse_equals_fresh(instances in proptest::collection::vec(arb_instance(), 2..4)) {
        let mut ws = PartitionWorkspace::new();
        for (i, (ts, m)) in instances.iter().enumerate() {
            for strategy in [MaxSplitStrategy::BinarySearch, MaxSplitStrategy::SchedulingPoints] {
                let policy = AdmissionPolicy::exact().with_strategy(strategy);
                assert_workspace_parity(
                    &RmTsLight::new().with_policy(policy),
                    ts, *m, &mut ws,
                    &format!("instance {i}, RM-TS/light, {strategy:?}"),
                );
                assert_workspace_parity(
                    &RmTs::new().with_policy(policy),
                    ts, *m, &mut ws,
                    &format!("instance {i}, RM-TS, {strategy:?}"),
                );
            }
        }
    }
}

/// The EXP-1 generator mix (log-uniform periods, unconstrained
/// utilizations, `n = 4·m`), deterministic seeds: the same distribution
/// the paper's acceptance-ratio experiment and the partition bench draw
/// from, pushed through one reused workspace.
#[test]
fn exp1_generator_mix_workspace_parity() {
    let mut ws = PartitionWorkspace::new();
    let mut generated = 0;
    for m in [4usize, 8] {
        for trial in 0..4u64 {
            let cfg = GenConfig::new(4 * m, 0.72 * m as f64)
                .with_periods(PeriodGen::LogUniform {
                    min: 10_000,
                    max: 1_000_000,
                    granularity: 10_000,
                })
                .with_utilization(UtilizationSpec::any());
            let mut rng = rmts::gen::trial_rng(0x52_4D_54_53, (m as u64) << 8 | trial);
            let Some(ts) = cfg.generate(&mut rng) else {
                continue;
            };
            generated += 1;
            assert_workspace_parity(
                &RmTsLight::new(),
                &ts,
                m,
                &mut ws,
                &format!("EXP-1 m={m} trial={trial}, RM-TS/light"),
            );
            assert_workspace_parity(
                &RmTs::new(),
                &ts,
                m,
                &mut ws,
                &format!("EXP-1 m={m} trial={trial}, RM-TS"),
            );
        }
    }
    assert!(generated >= 4, "generator produced too few instances");
}

/// Every reproducer in the checked-in fuzz corpus — shrunk counterexample
/// task sets that historically exposed analysis drift — also partitions
/// identically through a warm reused workspace.
#[test]
fn fuzz_corpus_workspace_parity() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let repros = rmts::verify::load_corpus(&dir).expect("corpus parses");
    assert!(!repros.is_empty(), "corpus is empty");
    let mut ws = PartitionWorkspace::new();
    for r in &repros {
        assert_workspace_parity(
            &RmTsLight::new(),
            &r.taskset,
            r.m,
            &mut ws,
            &format!("corpus {} RM-TS/light", r.name),
        );
        assert_workspace_parity(
            &RmTs::new(),
            &r.taskset,
            r.m,
            &mut ws,
            &format!("corpus {} RM-TS", r.name),
        );
    }
}
