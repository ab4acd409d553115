//! EXP-12: the algorithm frontier (the whole catalogue, head to head).
//!
//! Two studies over every [`AlgorithmSpec::catalogue`] entry — all
//! bin-packing matrix cells, every uniprocessor admission test, every
//! parametric RM-TS bound — on the same generated inputs:
//!
//! * an **acceptance-ratio sweep** over a normalized-utilization grid
//!   (does RM-TS dominate worst-fit-decreasing at high `m`? where do the
//!   partitioned heuristics stall relative to the 81.8%/69.3% parametric
//!   bounds?), and
//! * a **breakdown-utilization distribution**: per algorithm, the
//!   bisected breakdown utilization of many random task-set shapes,
//!   summarized by quantiles rather than the mean alone — the average
//!   hides that bin-packing heuristics have a heavy low tail where a
//!   single overweight task ruins the packing.
//!
//! Results serialize to a JSON artifact (committed under `results/`) so
//! sweeps are diffable: the CI `sweep-smoke` job re-runs a small seeded
//! configuration and byte-compares against the checked-in golden.
//! Every quantity is integer counts or rounded quantiles of a
//! deterministic bisection, so the artifact is bit-stable for a fixed
//! (seed, trials, shapes) triple.

use crate::acceptance::{acceptance_sweep, CheckLevel};
use crate::breakdown::breakdown_of;
use crate::parallel::parallel_map;
use crate::table::{f, pct, Table};
use rmts_core::{AlgorithmSpec, DynPartitioner};
use rmts_gen::{trial_rng, GenConfig};
use serde::Serialize;

/// Shape of a frontier run: which machines, which grid, how much data.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierConfig {
    /// Processor counts to study (`n = 4m` tasks each).
    pub ms: Vec<usize>,
    /// Normalized-utilization grid for the acceptance sweep.
    pub grid: Vec<f64>,
    /// Task sets per grid point.
    pub trials: u64,
    /// Random shapes per breakdown distribution.
    pub shapes: u64,
    /// Master seed.
    pub seed: u64,
}

impl FrontierConfig {
    /// Task sets per grid point of [`full`](Self::full).
    pub const FULL_TRIALS: u64 = 200;
    /// Task sets per grid point of [`smoke`](Self::smoke).
    pub const SMOKE_TRIALS: u64 = 12;

    /// The committed-artifact configuration: m ∈ {4, 16, 64}, a
    /// 0.60–1.00 grid, enough trials for stable percentages.
    pub fn full(seed: u64) -> Self {
        FrontierConfig {
            ms: vec![4, 16, 64],
            grid: Self::grid_pct(60, 100, 5),
            trials: Self::FULL_TRIALS,
            shapes: 100,
            seed,
        }
    }

    /// The CI smoke configuration: small but structurally identical, so
    /// the golden diff exercises every code path in seconds.
    pub fn smoke(seed: u64) -> Self {
        FrontierConfig {
            ms: vec![2, 4],
            grid: Self::grid_pct(60, 100, 10),
            trials: Self::SMOKE_TRIALS,
            shapes: 8,
            seed,
        }
    }

    /// An inclusive percent-step grid (`60..=100 step 5` → 0.60 … 1.00),
    /// built from integers so grid values are reproducible exactly.
    pub fn grid_pct(lo: u32, hi: u32, step: u32) -> Vec<f64> {
        (lo..=hi)
            .step_by(step as usize)
            .map(|p| p as f64 / 100.0)
            .collect()
    }
}

/// One acceptance-sweep grid point: per-algorithm accept counts, indexed
/// like [`FrontierReport::algorithms`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontierPoint {
    /// Targeted normalized utilization `U_M`.
    pub u_norm: f64,
    /// Task sets generated at this point (the shared denominator).
    pub trials: usize,
    /// Accepted counts, one per catalogue algorithm.
    pub accepted: Vec<usize>,
    /// Accepted *and* re-verified by exact RTA. Differs from `accepted`
    /// only for admission tests run outside their proven domain.
    pub verified: Vec<usize>,
}

/// Breakdown-utilization distribution summary for one algorithm.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BreakdownDist {
    /// Canonical spec string of the algorithm.
    pub algorithm: String,
    /// Shapes measured (generation failures excluded).
    pub shapes: usize,
    /// Mean normalized breakdown utilization (4 decimals).
    pub mean: f64,
    /// Distribution quantiles (4 decimals): min, p10, median, p90, max.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

/// Both studies for one processor count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineFrontier {
    /// Processor count.
    pub m: usize,
    /// Tasks per generated set (`4m`).
    pub n: usize,
    /// Acceptance sweep, one entry per grid point.
    pub sweep: Vec<FrontierPoint>,
    /// Breakdown distributions, one entry per catalogue algorithm.
    pub breakdown: Vec<BreakdownDist>,
}

/// The full frontier artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontierReport {
    /// Master seed the run derived every trial RNG from.
    pub seed: u64,
    /// Task sets per sweep grid point.
    pub trials: u64,
    /// Shapes per breakdown distribution.
    pub shapes: u64,
    /// Canonical spec strings, in catalogue order — the column key for
    /// every `accepted` / `verified` vector.
    pub algorithms: Vec<String>,
    /// Per-machine results, in `ms` order.
    pub machines: Vec<MachineFrontier>,
}

/// Rounds to 4 decimals so serialized artifacts stay byte-stable and
/// diffable (the bisection itself resolves ≈ 2⁻¹² ≈ 0.0002).
fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// Runs the full frontier: for each `m`, the acceptance sweep and the
/// breakdown distribution of every catalogue algorithm.
pub fn frontier(cfg: &FrontierConfig) -> FrontierReport {
    let specs = AlgorithmSpec::catalogue();
    let algorithms: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
    let machines = cfg
        .ms
        .iter()
        .map(|&m| {
            let n = 4 * m;
            let engines: Vec<DynPartitioner> = specs.iter().map(|s| s.build(n)).collect();
            let refs: Vec<&dyn rmts_core::Partitioner> =
                engines.iter().map(|e| e.as_ref()).collect();

            let sweep = acceptance_sweep(
                &refs,
                m,
                &cfg.grid,
                cfg.trials,
                cfg.seed,
                // `GenConfig::new`'s general sets: log-uniform periods,
                // unconstrained utilizations — EXP-1/EXP-5's family, so
                // frontier numbers compare with the earlier experiments.
                &move |u| GenConfig::new(n, u * m as f64),
                CheckLevel::Rta,
            )
            .into_iter()
            .map(|p| FrontierPoint {
                u_norm: p.u_norm,
                trials: p.rates.first().map_or(0, |r| r.trials),
                accepted: p.rates.iter().map(|r| r.accepted).collect(),
                verified: p.rates.iter().map(|r| r.verified).collect(),
            })
            .collect();

            // Breakdown: one shape set per machine, shared by every
            // algorithm — columns are comparable pointwise, and the
            // expensive generation happens once per shape.
            let shape_cfg = GenConfig::new(n, m as f64);
            let per_shape: Vec<Option<Vec<f64>>> = parallel_map(cfg.shapes, |t| {
                let mut rng = trial_rng(cfg.seed ^ 0xb4ea, t);
                let ts = shape_cfg.generate(&mut rng)?;
                Some(
                    engines
                        .iter()
                        .map(|alg| breakdown_of(alg.as_ref(), m, &ts))
                        .collect(),
                )
            });
            let rows: Vec<&Vec<f64>> = per_shape.iter().flatten().collect();
            let breakdown = algorithms
                .iter()
                .enumerate()
                .map(|(ai, name)| {
                    let mut vals: Vec<f64> = rows.iter().map(|r| r[ai]).collect();
                    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    dist_of(name, &vals)
                })
                .collect();

            MachineFrontier {
                m,
                n,
                sweep,
                breakdown,
            }
        })
        .collect();
    FrontierReport {
        seed: cfg.seed,
        trials: cfg.trials,
        shapes: cfg.shapes,
        algorithms,
        machines,
    }
}

/// Summarizes one sorted sample of breakdown values.
fn dist_of(algorithm: &str, sorted: &[f64]) -> BreakdownDist {
    assert!(!sorted.is_empty(), "no breakdown shapes generated");
    let q = |p: f64| {
        // Nearest-rank on the sorted sample: deterministic and
        // well-defined for tiny smoke-sized samples.
        let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    };
    BreakdownDist {
        algorithm: algorithm.to_string(),
        shapes: sorted.len(),
        mean: round4(sorted.iter().sum::<f64>() / sorted.len() as f64),
        min: round4(sorted[0]),
        p10: round4(q(0.10)),
        p50: round4(q(0.50)),
        p90: round4(q(0.90)),
        max: round4(sorted[sorted.len() - 1]),
    }
}

/// Renders one machine's acceptance sweep: a row per algorithm (the
/// catalogue is too wide for columns), a column per grid point.
pub fn frontier_sweep_table(report: &FrontierReport, machine: &MachineFrontier) -> Table {
    let mut headers = vec!["algorithm".to_string()];
    headers.extend(machine.sweep.iter().map(|p| format!("{:.2}", p.u_norm)));
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "EXP-12: acceptance ratio across the catalogue (M={}, N={}, {} trials/point)",
            machine.m, machine.n, report.trials
        ),
        &hdr_refs,
    );
    for (ai, name) in report.algorithms.iter().enumerate() {
        let mut row = vec![name.clone()];
        for p in &machine.sweep {
            row.push(pct(p.accepted[ai], p.trials));
        }
        t.push_row(row);
    }
    t
}

/// Renders one machine's breakdown distributions.
pub fn frontier_breakdown_table(machine: &MachineFrontier) -> Table {
    let mut t = Table::new(
        format!(
            "EXP-12: breakdown-utilization distribution (M={}, N={})",
            machine.m, machine.n
        ),
        &["algorithm", "mean", "min", "p10", "p50", "p90", "max"],
    );
    for d in &machine.breakdown {
        t.push_row(vec![
            d.algorithm.clone(),
            f(d.mean, 4),
            f(d.min, 4),
            f(d.p10, 4),
            f(d.p50, 4),
            f(d.p90, 4),
            f(d.max, 4),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FrontierConfig {
        FrontierConfig {
            ms: vec![2],
            grid: FrontierConfig::grid_pct(60, 100, 20),
            trials: 6,
            shapes: 4,
            seed: 5,
        }
    }

    #[test]
    fn frontier_covers_the_catalogue_and_is_deterministic() {
        let a = frontier(&tiny());
        assert_eq!(a.algorithms.len(), AlgorithmSpec::catalogue().len());
        assert!(a.algorithms.len() >= 20);
        let mach = &a.machines[0];
        assert_eq!(mach.sweep.len(), 3);
        for p in &mach.sweep {
            assert_eq!(p.accepted.len(), a.algorithms.len());
            for (&acc, &ver) in p.accepted.iter().zip(&p.verified) {
                assert!(ver <= acc && acc <= p.trials);
            }
        }
        assert_eq!(mach.breakdown.len(), a.algorithms.len());
        for d in &mach.breakdown {
            assert!(d.min <= d.p10 && d.p10 <= d.p50);
            assert!(d.p50 <= d.p90 && d.p90 <= d.max);
            assert!(d.max <= 1.0 + 1e-9);
        }
        // Byte-stable: the golden-diff property the sweep-smoke CI job
        // depends on.
        let b = frontier(&tiny());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn rmts_never_trails_strict_partitioning_on_the_sweep() {
        let report = frontier(&tiny());
        let idx = |needle: &str| {
            report
                .algorithms
                .iter()
                .position(|a| a == needle)
                .unwrap_or_else(|| panic!("{needle} missing from catalogue"))
        };
        let rmts = idx("rmts:hc");
        let ffd = idx("prm:ff-rta:du");
        for p in &report.machines[0].sweep {
            assert!(
                p.accepted[rmts] >= p.accepted[ffd],
                "task splitting lost to strict FFD at U={}",
                p.u_norm
            );
        }
    }

    #[test]
    fn tables_render_every_algorithm() {
        let report = frontier(&tiny());
        let sweep = frontier_sweep_table(&report, &report.machines[0]).to_text();
        let breakdown = frontier_breakdown_table(&report.machines[0]).to_text();
        for name in &report.algorithms {
            assert!(sweep.contains(name.as_str()), "{name} missing from sweep");
            assert!(breakdown.contains(name.as_str()), "{name} missing");
        }
    }
}
