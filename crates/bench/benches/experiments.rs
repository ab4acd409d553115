//! Every experiment's bench: the quick run of each `rmts-exp` registry
//! entry, its tables written to `io::sink()`.
//!
//! One timing per entry covers everything the table costs — generation,
//! partitioning, re-verification, simulation, rendering — so a slowdown
//! anywhere in an experiment's path shows here. EXP-12's entry builds and
//! runs the whole `AlgorithmSpec` catalogue. A self-checking entry (EXP-4,
//! EXP-7) that fails its check fails the bench.

use criterion::{criterion_group, criterion_main, Criterion};
use rmts_exp::registry::EXPERIMENTS;
use std::io;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    for exp in EXPERIMENTS {
        let opts = exp
            .options(["--quick".to_string()])
            .expect("--quick parses");
        group.bench_function(exp.id, |b| {
            b.iter(|| {
                (exp.run)(&opts, &mut io::sink()).unwrap_or_else(|e| panic!("{}: {e}", exp.id))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
