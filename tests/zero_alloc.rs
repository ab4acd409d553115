//! Allocation accounting for the partition hot path (DESIGN.md §5).
//!
//! This binary installs the `rmts-obs` counting allocator globally and
//! pins two claims:
//!
//! 1. the **steady-state admission loop** — cached probe, admit-then-place
//!    push, binary-search `MaxSplit`, processor reset — performs *zero*
//!    heap allocations once its buffers are warm (the `RtaCache` spare
//!    buffers, the processor workload `Vec`, and the workspace pool absorb
//!    every temporary); and
//! 2. a **warm [`PartitionWorkspace`]** makes whole-set `partition_with`
//!    calls strictly cheaper in allocations than the cold call, while
//!    producing a bit-identical `Partition` every time.
//!
//! The full partition call is *not* zero-alloc by design: sealing split
//! plans and the result's own `Vec`/`BTreeMap` are per-call allocations
//! that move into the returned `Partition`. The invariant covers the inner
//! admission loop, where the per-probe work lives.

use rmts::core::{
    AdmissionPolicy, AnalysisControl, MaxSplitStrategy, PartitionWorkspace, Partitioner,
    ProcessorState, RmTsLight,
};
use rmts::obs::alloc::thread_allocations;
use rmts::rta::budget::NewcomerSpec;
use rmts::taskmodel::{Priority, SubtaskKind, TaskId, TaskSet, Time};

#[global_allocator]
static ALLOC: rmts::obs::alloc::CountingAllocator = rmts::obs::alloc::CountingAllocator;

fn newcomer(i: u32, period: u64) -> NewcomerSpec {
    NewcomerSpec {
        parent: TaskId(i),
        period: Time::new(period),
        deadline: Time::new(period),
        priority: Priority(i),
    }
}

/// One steady-state cycle: recycle the processor, admit a handful of tasks
/// through the cached probe → push path, then answer one `MaxSplit` query.
fn admission_cycle(policy: &AdmissionPolicy, proc: &mut ProcessorState) {
    let ctl = AnalysisControl::unlimited();
    proc.reset(0);
    for &(i, t, c) in &[
        (1u32, 8u64, 2u64),
        (2, 12, 3),
        (3, 20, 2),
        (4, 30, 3),
        (5, 50, 4),
    ] {
        let new = newcomer(i, t);
        let budget = Time::new(c);
        assert!(
            policy.fits_whole(proc, &new, budget, &ctl).unwrap(),
            "task {i} must admit"
        );
        proc.push(new.with_budget(budget, 1, SubtaskKind::Whole));
    }
    let tail = newcomer(6, 40);
    let split = policy.max_budget(proc, &tail, Time::new(40), &ctl).unwrap();
    assert!(
        split > Time::ZERO,
        "the tail task must get a nonzero budget"
    );
}

#[test]
fn steady_state_admission_cycle_is_allocation_free() {
    let policy = AdmissionPolicy::exact().with_strategy(MaxSplitStrategy::BinarySearch);
    let mut proc = ProcessorState::new(0);
    // Warm-up: grow the workload vec, the cache's sorted/resp/safe tables,
    // and the probe/bsearch spare buffers to their steady-state capacity.
    for _ in 0..3 {
        admission_cycle(&policy, &mut proc);
    }
    let before = thread_allocations();
    for _ in 0..5 {
        admission_cycle(&policy, &mut proc);
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "warm admission cycles must not touch the heap (saw {allocs} allocations over 5 cycles)"
    );
}

#[test]
fn warm_workspace_partitions_identically_with_fewer_allocations() {
    let ts = TaskSet::from_pairs(&[
        (2, 10),
        (3, 14),
        (4, 20),
        (5, 25),
        (6, 40),
        (7, 50),
        (8, 80),
        (9, 100),
    ])
    .expect("valid task set");
    let m = 4;
    let engine = RmTsLight::new();
    let baseline = engine.partition(&ts, m).expect("the set must fit");

    let mut ws = PartitionWorkspace::new();
    let before_cold = thread_allocations();
    let cold_result = engine.partition_with(&ts, m, &mut ws).expect("must fit");
    let cold = thread_allocations() - before_cold;
    assert_eq!(
        cold_result, baseline,
        "workspace path must be bit-identical"
    );
    ws.recycle(cold_result);

    let mut warm_max = 0;
    for round in 0..5 {
        let before = thread_allocations();
        let p = engine.partition_with(&ts, m, &mut ws).expect("must fit");
        let warm = thread_allocations() - before;
        warm_max = warm_max.max(warm);
        assert_eq!(
            p, baseline,
            "round {round} diverged from the fresh partition"
        );
        ws.recycle(p);
    }
    assert!(
        warm_max < cold,
        "warm partition_with should allocate strictly less than cold ({warm_max} ≥ {cold})"
    );
}
