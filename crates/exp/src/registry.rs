//! The experiment registry: one entry per reproduced table (DESIGN.md §3).
//!
//! Each entry writes its tables to a writer and, under `--out DIR`, its
//! artifacts into `DIR`. The `rmts-exp` binary, `scripts/run_experiments.sh`,
//! the `experiments` bench target, `tests/experiments.rs` and CI's
//! experiments smoke job all iterate [`EXPERIMENTS`], so an entry added
//! here is run by each of them.

use crate::acceptance::{acceptance_sweep, sweep_table, CheckLevel};
use crate::breakdown::average_breakdown;
use crate::cli::{line, ExpOptions, DEFAULT_SEED};
use crate::frontier::{frontier, frontier_breakdown_table, frontier_sweep_table, FrontierConfig};
use crate::parallel::{parallel_map, with_workspace};
use crate::structure::structure_stats;
use crate::table::{f, pct, Table};
use crate::verify::{verify_campaign, BoundDomain, VerifyOutcome};
use crate::weighted::weighted_schedulability;
use rand::Rng;
use rmts_bounds::thresholds::rmts_cap_of;
use rmts_bounds::{standard_catalogue, CustomBound, HarmonicChain, ParametricBound};
use rmts_core::baselines::{spa1, spa2, Fit, PartitionedRm};
use rmts_core::rmts_light::FitSelect;
use rmts_core::{overhead_tolerance, Partitioner, RmTs, RmTsLight, WithBound};
use rmts_gen::automotive::automotive_taskset;
use rmts_gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts_sim::global::dhall_adversary;
use rmts_sim::{simulate_global, simulate_partitioned, SimConfig};
use rmts_taskmodel::transform::{best_harmonization_base, harmonize};
use rmts_taskmodel::{Task, TaskSet, Time};
use std::fmt::Write as _;
use std::io::Write;

/// One reproducible experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Command-line id: `rmts-exp <id>`.
    pub id: &'static str,
    /// Trials per grid point / cell of the full run.
    pub full_trials: u64,
    /// Trials per grid point / cell under `--quick`.
    pub quick_trials: u64,
    /// Writes the tables to the writer and the artifacts under
    /// [`ExpOptions::out`]. EXP-4 and EXP-7 check their own table and
    /// return `Err` after writing it when it shows a violation.
    pub run: fn(&ExpOptions, &mut dyn Write) -> Result<(), String>,
    /// One-line description for the usage text.
    pub summary: &'static str,
}

impl Experiment {
    /// Parses the flags that follow the id, with this entry's trial counts.
    pub fn options(&self, args: impl IntoIterator<Item = String>) -> Result<ExpOptions, String> {
        ExpOptions::parse(args, self.full_trials, self.quick_trials)
    }
}

/// Every experiment, in run order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "exp1", full_trials: 500, quick_trials: 40, run: exp1,
                 summary: "acceptance ratio, general task sets" },
    Experiment { id: "exp2", full_trials: 500, quick_trials: 40, run: exp2,
                 summary: "acceptance ratio, light task sets" },
    Experiment { id: "exp3", full_trials: 500, quick_trials: 40, run: exp3,
                 summary: "the 100% bound, harmonic light task sets" },
    Experiment { id: "exp4", full_trials: 400, quick_trials: 30, run: exp4,
                 summary: "bound-verification campaigns (fails on a non-zero count)" },
    Experiment { id: "exp5", full_trials: 200, quick_trials: 20, run: exp5,
                 summary: "average breakdown utilization" },
    Experiment { id: "exp6", full_trials: 300, quick_trials: 30, run: exp6,
                 summary: "RM-TS partition structure and partitioning time" },
    Experiment { id: "exp7", full_trials: 1, quick_trials: 1, run: exp7,
                 summary: "Dhall effect (fails unless reproduced)" },
    Experiment { id: "exp8", full_trials: 500, quick_trials: 40, run: exp8,
                 summary: "acceptance vs. granularity (tasks per processor)" },
    Experiment { id: "exp9", full_trials: 200, quick_trials: 20, run: exp9,
                 summary: "overhead tolerance of accepted partitions" },
    Experiment { id: "exp10", full_trials: 400, quick_trials: 40, run: exp10,
                 summary: "period harmonization trade" },
    Experiment { id: "exp11", full_trials: 400, quick_trials: 40, run: exp11,
                 summary: "automotive (WATERS) weighted schedulability" },
    Experiment { id: "exp12", full_trials: FrontierConfig::FULL_TRIALS,
                 quick_trials: FrontierConfig::SMOKE_TRIALS, run: exp12,
                 summary: "the whole algorithm catalogue head to head (JSON report)" },
    Experiment { id: "abl2", full_trials: 500, quick_trials: 60, run: abl2,
                 summary: "admission, P-RM fit and engine selection ablations" },
];

/// The registry entry named `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The `rmts-exp` usage text, listing every registry id.
pub fn usage() -> String {
    let mut s = format!(
        "usage: rmts-exp <id> [--quick] [--trials N] [--seed S] [--out DIR]\n\n\
         \x20 --quick     reduced trial counts (EXP-12: its smoke configuration)\n\
         \x20 --trials N  trials per grid point or cell (overrides --quick)\n\
         \x20 --seed S    master seed (default {DEFAULT_SEED})\n\
         \x20 --out DIR   also write the artifacts (CSV tables, EXP-12's JSON) into DIR\n\n\
         experiments (trials: full / quick):\n"
    );
    for e in EXPERIMENTS {
        let trials = format!("{} / {}", e.full_trials, e.quick_trials);
        let _ = writeln!(s, "  {:<6} {trials:>9}  {}", e.id, e.summary);
    }
    s
}

/// EXP-1: acceptance ratio vs. normalized utilization, general task sets.
///
/// Compares RM-TS (exact RTA admission) against the \[16\]-style SPA2
/// (threshold admission) and strict partitioned RM, on unconstrained task
/// sets with log-uniform periods. Expected shape: RM-TS dominates
/// everywhere; SPA2's curve collapses right after the L&L bound (~69%)
/// while RM-TS keeps accepting well beyond it; strict P-RM trails both at
/// high load because it cannot split.
fn exp1(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let grid: Vec<f64> = (0..=8).map(|i| 0.60 + 0.05 * i as f64).collect();
    for m in [4usize, 8, 16] {
        let n = 4 * m;
        let rmts = RmTs::new();
        let spa = spa2(n);
        let prm_rta = PartitionedRm::ffd_rta();
        let prm_ll = PartitionedRm::ffd_ll();
        let algs: Vec<&dyn Partitioner> = vec![&rmts, &spa, &prm_rta, &prm_ll];
        let points = acceptance_sweep(
            &algs,
            m,
            &grid,
            opts.trials,
            opts.seed,
            &|u| GenConfig::new(n, u * m as f64),
            CheckLevel::Rta,
        );
        let table = sweep_table(
            &format!(
                "EXP-1: acceptance ratio, general task sets (M={m}, N={n}, {} trials/point; verified-% in parens when lower)",
                opts.trials
            ),
            &points,
        );
        opts.emit(out, &format!("exp1_m{m}"), &table)?;
    }
    Ok(())
}

/// EXP-2: acceptance ratio vs. normalized utilization, *light* task sets
/// (every `U_i ≤ 0.40 ≈ Θ/(1+Θ)` — Definition 1's domain).
///
/// This is RM-TS/light's theorem domain: with log-uniform periods its
/// achievable bound is the L&L/T-/R-bound family (≈70%+), but exact RTA
/// admission keeps the *empirical* curve high far beyond that. The SPA1
/// baseline degrades right at Θ(N) by construction.
fn exp2(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let grid: Vec<f64> = (0..=8).map(|i| 0.65 + 0.04 * i as f64).collect();
    let m = 8usize;
    let n = 6 * m;
    let light = RmTsLight::new();
    let rmts = RmTs::new();
    let s1 = spa1(n);
    let s2 = spa2(n);
    let algs: Vec<&dyn Partitioner> = vec![&light, &rmts, &s1, &s2];
    let points = acceptance_sweep(
        &algs,
        m,
        &grid,
        opts.trials,
        opts.seed,
        &|u| GenConfig::new(n, u * m as f64).with_utilization(UtilizationSpec::capped(0.40)),
        CheckLevel::Rta,
    );
    let table = sweep_table(
        &format!(
            "EXP-2: acceptance ratio, light task sets (M={m}, N={n}, U_i ≤ 0.40, {} trials/point)",
            opts.trials
        ),
        &points,
    );
    opts.emit(out, "exp2_light", &table)
}

/// EXP-3: the 100% bound for harmonic task sets on multiprocessors.
///
/// The paper's headline instantiation (Section IV): a *harmonic* light task
/// set is schedulable by RM-TS/light whenever `U_M(τ) ≤ 100%`. The sweep
/// runs the grid all the way to 1.0 and RM-TS/light's row should stay at
/// 100% acceptance; SPA1 (threshold Θ(N) ≈ 69–72%) collapses two fifths of
/// the axis earlier, which is precisely the value of parametric bounds.
fn exp3(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let grid: Vec<f64> = (0..=7).map(|i| 0.65 + 0.05 * i as f64).collect();
    for m in [4usize, 8] {
        let n = 6 * m;
        let light = RmTsLight::new();
        let s1 = spa1(n);
        let prm = PartitionedRm::ffd_rta();
        let algs: Vec<&dyn Partitioner> = vec![&light, &s1, &prm];
        let config_for = |u: f64| {
            GenConfig::new(n, u * m as f64)
                .with_periods(PeriodGen::Harmonic {
                    base: 10_000,
                    octaves: 5,
                })
                .with_utilization(UtilizationSpec::capped(0.40))
        };
        let points = acceptance_sweep(
            &algs,
            m,
            &grid,
            opts.trials,
            opts.seed,
            &config_for,
            CheckLevel::Rta,
        );
        let table = sweep_table(
            &format!(
                "EXP-3: harmonic light task sets up to U_M = 1.0 (M={m}, N={n}, {} trials/point)",
                opts.trials
            ),
            &points,
        );
        opts.emit(out, &format!("exp3_m{m}"), &table)?;
    }
    Ok(())
}

/// EXP-4: bound-verification table.
///
/// Every cell tests one (bound × algorithm × domain) combination with many
/// random task sets scaled to `U_M(τ) = 0.995 · Λ(τ)` (capped for RM-TS)
/// and reports rejections plus RTA- and simulation-failures among accepted
/// partitions. Per Theorems 8 / Section V-B every count must be **zero**,
/// so the run fails after writing its table when one is not.
fn exp4(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let m = 4usize;
    let sim_horizon = Some(3_000_000);
    let mut table = Table::new(
        format!(
            "EXP-4: bound verification (M={m}, {} sets/cell; expect all zeros)",
            opts.trials
        ),
        &[
            "bound × periods",
            "algorithm",
            "tested",
            "rejections",
            "rta-fail",
            "sim-fail",
            "audit-fail",
        ],
    );
    let styles = [
        (
            "harmonic",
            PeriodGen::Harmonic {
                base: 10_000,
                octaves: 4,
            },
        ),
        (
            "2-chain",
            PeriodGen::Chains {
                bases: vec![10_000, 17_000],
                octaves: 3,
            },
        ),
        (
            "free",
            PeriodGen::Choice(vec![10_000, 25_000, 40_000, 50_000, 80_000, 100_000]),
        ),
    ];
    let mut cells = Vec::new();
    for (style_name, periods) in styles {
        for bound in standard_catalogue() {
            let bound = bound.as_ref();
            // RM-TS/light on light sets.
            let cfg_light = GenConfig::new(6 * m, m as f64)
                .with_periods(periods.clone())
                .with_utilization(UtilizationSpec::capped(0.40));
            let light = verify_campaign(
                &RmTsLight::new(),
                bound,
                BoundDomain::Light,
                m,
                &cfg_light,
                opts.trials,
                opts.seed,
                sim_horizon,
            );
            // RM-TS on unconstrained sets, capped domain, instantiated with
            // the same bound it is verified against.
            let cfg_any = GenConfig::new(4 * m, m as f64).with_periods(periods.clone());
            let target = CustomBound::new(bound.name(), |ts: &TaskSet| bound.value(ts));
            let rmts = verify_campaign(
                &RmTs::new().with_bound(target),
                bound,
                BoundDomain::Capped,
                m,
                &cfg_any,
                opts.trials,
                opts.seed,
                sim_horizon,
            );
            for cell in [light, rmts] {
                table.push_row(vec![
                    format!("{} × {style_name}", bound.name()),
                    cell.algorithm.clone(),
                    cell.tested.to_string(),
                    cell.rejections.to_string(),
                    cell.rta_failures.to_string(),
                    cell.sim_failures.to_string(),
                    cell.audit_failures.to_string(),
                ]);
                cells.push(cell);
            }
        }
    }
    opts.emit(out, "exp4_bound_verify", &table)?;
    line(
        out,
        "(all-zero counts confirm the theorems; non-zero would be a bug)",
    )?;
    exp4_check(&cells)
}

/// EXP-4's self-check: `Err` naming every cell with a non-zero rejection,
/// RTA-, simulation- or audit-failure count.
fn exp4_check(cells: &[VerifyOutcome]) -> Result<(), String> {
    let dirty = cells.iter().filter(|c| !c.clean());
    verdict(dirty.map(|c| format!("bound violated in {} × {}", c.bound, c.algorithm)))
}

/// `Ok` when a self-check found no failure, else every failure in one `Err`.
fn verdict(failures: impl IntoIterator<Item = String>) -> Result<(), String> {
    let failures: Vec<String> = failures.into_iter().collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// EXP-5: average breakdown utilization.
///
/// The multiprocessor analogue of the classic uniprocessor observation the
/// paper leans on: by exact analysis "the average breakdown utilization of
/// RMS is around 88%, much higher than its worst-case bound 69.3%"
/// (Section I, citing \[24\]). The M = 1 row of this table reproduces that
/// number directly; the multiprocessor rows show RM-TS inheriting the
/// advantage over the threshold-admission baseline and strict P-RM.
fn exp5(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let mut table = Table::new(
        format!(
            "EXP-5: average normalized breakdown utilization ({} shapes/cell, log-uniform periods)",
            opts.trials
        ),
        &["M", "algorithm", "mean", "min", "max"],
    );
    for m in [1usize, 2, 4, 8] {
        let n = (4 * m).max(10);
        let cfg = GenConfig::new(n, m as f64);
        let rmts = RmTs::new();
        let spa = spa2(n);
        let prm_rta = PartitionedRm::ffd_rta();
        let prm_ll = PartitionedRm::ffd_ll();
        let algs: Vec<&dyn Partitioner> = vec![&rmts, &spa, &prm_rta, &prm_ll];
        for alg in algs {
            let stats = average_breakdown(alg, m, &cfg, opts.trials, opts.seed);
            table.push_row(vec![
                m.to_string(),
                alg.name(),
                f(stats.mean, 4),
                f(stats.min, 4),
                f(stats.max, 4),
            ]);
        }
    }
    opts.emit(out, "exp5_breakdown", &table)?;
    line(
        out,
        "(anchors: exact-RTA rows sit ≈ 0.88–0.96, the [24]-style average-case headroom — the exact\n\
          mean depends on the period distribution; threshold rows pin to Θ(N) ≈ 0.69–0.72 by design)",
    )
}

/// EXP-6: structural statistics of RM-TS partitions.
///
/// How invasive is task splitting in practice? For each load level the
/// table reports the mean/max number of split tasks (= run-time migration
/// points), pre-assigned and dedicated processors, and the wall-clock cost
/// of partitioning itself (pseudo-polynomial RTA admission — the price of
/// exactness the paper accepts). The time column is the one output of the
/// suite that differs between runs.
fn exp6(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let m = 8usize;
    let n = 4 * m;
    let mut table = Table::new(
        format!(
            "EXP-6: RM-TS partition structure (M={m}, N={n}, {} sets/row)",
            opts.trials
        ),
        &[
            "U_M",
            "accepted",
            "mean splits",
            "max splits",
            "mean pre-assigned",
            "mean dedicated",
            "mean time (µs)",
        ],
    );
    for i in 0..=7 {
        let u = 0.60 + 0.05 * i as f64;
        let cfg = GenConfig::new(n, u * m as f64);
        let stats = structure_stats(&RmTs::new(), m, &cfg, opts.trials, opts.seed);
        table.push_row(vec![
            f(u, 2),
            pct(stats.accepted, stats.trials),
            f(stats.mean_split_tasks, 2),
            stats.max_split_tasks.to_string(),
            f(stats.mean_pre_assigned, 2),
            f(stats.mean_dedicated, 2),
            f(stats.mean_partition_us, 0),
        ]);
    }
    opts.emit(out, "exp6_structure", &table)?;
    line(
        out,
        "(splits stay ≤ M−1 by construction: each split closes one processor)",
    )
}

/// EXP-7: the Dhall effect (paper Section I, related-work motivation).
///
/// Global RM on the classic adversary — `m` short tasks plus one long task
/// — misses deadlines at normalized utilization `≈ 1/m + ε`, while RM-TS
/// trivially partitions the same sets (with the long task on a dedicated
/// processor via footnote 5). One simulated row per processor count. The
/// run fails after writing its table unless every row shows the effect:
/// global RM misses, RM-TS accepts, and its partition meets every deadline
/// in simulation.
fn exp7(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let mut table = Table::new(
        "EXP-7: Dhall effect — global RM vs. RM-TS on the classic adversary",
        &[
            "M",
            "U_M",
            "global RM (sim)",
            "RM-TS partition",
            "RM-TS (sim)",
        ],
    );
    let mut failures = Vec::new();
    for m in [2usize, 4, 8, 16] {
        let ts = dhall_adversary(m, 100_000, 10);
        let u_m = ts.normalized_utilization(m);
        let global = simulate_global(&ts, m, SimConfig::default());
        let global_cell = if global.all_deadlines_met() {
            failures.push(format!("global RM meets every deadline at M={m}"));
            "meets deadlines".to_string()
        } else {
            let miss = &global.misses[0];
            format!("MISS τ{} @ {}", miss.task.0, miss.deadline)
        };
        let (part_cell, sim_cell) =
            with_workspace(|ws| match RmTs::new().partition_with(&ts, m, ws) {
                Ok(part) => {
                    let report = simulate_partitioned(&part.workloads(), SimConfig::default());
                    let verdict = if report.all_deadlines_met() {
                        "meets deadlines".to_string()
                    } else {
                        failures.push(format!("the RM-TS partition misses at M={m}"));
                        "MISS (bug!)".to_string()
                    };
                    ws.recycle(part);
                    ("accepted".to_string(), verdict)
                }
                Err(e) => {
                    failures.push(format!("RM-TS rejects the adversary at M={m}"));
                    (format!("REJECTED ({e})"), "-".to_string())
                }
            });
        table.push_row(vec![
            m.to_string(),
            f(u_m, 4),
            global_cell,
            part_cell,
            sim_cell,
        ]);
    }
    opts.emit(out, "exp7_dhall", &table)?;
    line(
        out,
        "(global RM fails at U_M → 1/M + ε — the Dhall effect; partitioning with RM-TS is immune)",
    )?;
    verdict(failures)
}

/// EXP-8: workload granularity — acceptance vs. tasks-per-processor.
///
/// At a fixed normalized utilization, fewer/fatter tasks are harder to
/// place (bin-packing with big items) while many small tasks are easy.
/// Task splitting specifically neutralizes the fat-task problem, so the
/// gap between RM-TS and no-splitting P-RM should be largest at small
/// `N/M` — this sweep quantifies that design insight.
fn exp8(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let m = 8usize;
    for u_m in [0.90f64, 0.95] {
        let mut table = Table::new(
            format!(
                "EXP-8: acceptance vs. granularity (M={m}, U_M={u_m}, {} trials/cell)",
                opts.trials
            ),
            &["N/M", "N", "RM-TS", "SPA2", "P-RM-FFD/RTA"],
        );
        for n_per_m in [2usize, 3, 4, 6, 8, 12] {
            let n = n_per_m * m;
            let rmts = RmTs::new();
            let spa = spa2(n);
            let prm = PartitionedRm::ffd_rta();
            let algs: Vec<&dyn Partitioner> = vec![&rmts, &spa, &prm];
            let points = acceptance_sweep(
                &algs,
                m,
                &[u_m],
                opts.trials,
                opts.seed,
                &|u| GenConfig::new(n, u * m as f64),
                CheckLevel::Rta,
            );
            let p = &points[0];
            table.push_row(vec![
                n_per_m.to_string(),
                n.to_string(),
                pct(p.rates[0].accepted, p.rates[0].trials),
                pct(p.rates[1].accepted, p.rates[1].trials),
                pct(p.rates[2].accepted, p.rates[2].trials),
            ]);
        }
        opts.emit(out, &format!("exp8_u{:02}", (u_m * 100.0) as u32), &table)?;
    }
    line(
        out,
        "(observed shape: acceptance grows with N/M for the splitting algorithms; at\n\
          extreme load the crossover appears at large N/M, where splitting finally\n\
          beats FFD packing, while at small N/M RM-TS pays for its conservative\n\
          heavy-task pre-assignment — both effects are structural, not noise)",
    )
}

struct Cell {
    accepted: usize,
    generated: usize,
    tolerance_sum: f64,
    splits_sum: f64,
}

fn measure(alg: &dyn Partitioner, m: usize, cfg: &GenConfig, trials: u64, seed: u64) -> Cell {
    let rows: Vec<(bool, bool, f64, f64)> = parallel_map(trials, |t| {
        let mut rng = trial_rng(seed, t);
        let Some(ts) = cfg.generate(&mut rng) else {
            return (false, false, 0.0, 0.0);
        };
        with_workspace(|ws| match alg.partition_with(&ts, m, ws) {
            Ok(part) => {
                let tol = overhead_tolerance(&part).ticks() as f64;
                let splits = part.split_tasks().len() as f64;
                ws.recycle(part);
                (true, true, tol, splits)
            }
            Err(_) => (true, false, 0.0, 0.0),
        })
    });
    let mut cell = Cell {
        accepted: 0,
        generated: 0,
        tolerance_sum: 0.0,
        splits_sum: 0.0,
    };
    for (generated, accepted, tol, splits) in rows {
        cell.generated += generated as usize;
        cell.accepted += accepted as usize;
        cell.tolerance_sum += tol;
        cell.splits_sum += splits;
    }
    cell
}

/// EXP-9: overhead tolerance — the cost of splitting, quantified.
///
/// The paper's model is overhead-free; its related work dismisses
/// Pfair-style schemes for their context-switch cost. The fair question
/// back: how much per-event overhead do RM-TS partitions absorb compared
/// to strict P-RM partitions (which never migrate) at the same load?
/// For each load level this table reports the mean maximum uniform
/// overhead (ticks; 1 tick = 1 µs) each algorithm's accepted partitions
/// tolerate before exact RTA fails, and the acceptance rates themselves —
/// the trade is capacity (splitting wins) vs. robustness margin (fewer
/// migration points win).
fn exp9(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let m = 4usize;
    let n = 4 * m;
    let mut table = Table::new(
        format!(
            "EXP-9: overhead tolerance, M={m}, N={n} ({} sets/row; tolerance in µs)",
            opts.trials
        ),
        &[
            "U_M",
            "RM-TS accept",
            "RM-TS mean tol",
            "RM-TS mean splits",
            "P-RM accept",
            "P-RM mean tol",
        ],
    );
    for i in 0..=5 {
        let u = 0.65 + 0.05 * i as f64;
        let cfg = GenConfig::new(n, u * m as f64);
        let rmts = measure(&RmTs::new(), m, &cfg, opts.trials, opts.seed);
        let prm = measure(&PartitionedRm::ffd_rta(), m, &cfg, opts.trials, opts.seed);
        table.push_row(vec![
            f(u, 2),
            pct(rmts.accepted, rmts.generated),
            f(rmts.tolerance_sum / rmts.accepted.max(1) as f64, 0),
            f(rmts.splits_sum / rmts.accepted.max(1) as f64, 2),
            pct(prm.accepted, prm.generated),
            f(prm.tolerance_sum / prm.accepted.max(1) as f64, 0),
        ]);
    }
    opts.emit(out, "exp9_overhead", &table)?;
    line(
        out,
        "(two structural effects: RM-TS's worst-fit spreading yields a large margin at\n\
          moderate load that shrinks as splits multiply; FFD's first-fit packing\n\
          saturates its first processors at every load, pinning its margin low and\n\
          flat. At loads where only splitting still accepts, any positive RM-TS\n\
          tolerance beats P-RM's outright rejection.)",
    )
}

/// Near-harmonic periods: grid 10 ms · 2^k, each stretched by up to 30%.
fn near_harmonic_set(rng: &mut impl Rng, n: usize, total_u: f64) -> Option<TaskSet> {
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..1.0)).collect();
    let wsum: f64 = weights.iter().sum();
    let tasks: Vec<Task> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let base = 10_000u64 << rng.gen_range(0..4);
            let stretch = rng.gen_range(1.0..1.3);
            let period = ((base as f64) * stretch) as u64;
            let u = (total_u * w / wsum).min(0.4);
            let c = (((period as f64) * u).floor() as u64).max(1);
            Task::from_ticks(i as u32, c, period).unwrap()
        })
        .collect();
    TaskSet::new(tasks).ok()
}

/// EXP-10: period harmonization — buying the 100% bound.
///
/// The 100% bound creates a design lever the paper's framework makes
/// usable on multiprocessors: shrink near-harmonic periods onto a
/// harmonic grid (a bounded utilization inflation η) and in exchange
/// apply the 100% bound instead of ~70%. The trade targets *bound-based*
/// (instant, design-space-exploration) admission: the guaranteed capacity
/// rises from Λ(τ) to 1/η. Exact RTA admission, by contrast, already sees
/// through near-harmonic structure, so harmonization can only cost there —
/// both effects are shown side by side.
fn exp10(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let m = 4usize;
    let n = 6 * m;
    let mut table = Table::new(
        format!(
            "EXP-10: harmonization trade (M={m}, N={n}, near-harmonic periods, {} trials/row)",
            opts.trials
        ),
        &[
            "U_M",
            "orig Λ_HC (bound)",
            "harm Λ/η (bound)",
            "orig accept (RTA)",
            "harm accept (RTA)",
        ],
    );
    for i in 0..=6 {
        let u_m = 0.60 + 0.05 * i as f64;
        // Per trial: (generated, orig_bound, harm_bound_effective,
        //             orig_accept, harm_accept).
        let rows: Vec<(bool, f64, f64, bool, bool)> = parallel_map(opts.trials, |t| {
            let mut rng = trial_rng(opts.seed ^ i, t);
            let Some(ts) = near_harmonic_set(&mut rng, n, u_m * m as f64) else {
                return (false, 0.0, 0.0, false, false);
            };
            // Guaranteed capacity of the original: the capped HC bound.
            let orig_bound = HarmonicChain.value(&ts).min(rmts_cap_of(&ts));
            let original = RmTsLight::new().accepts(&ts, m);
            match best_harmonization_base(&ts, Time::new(5_000))
                .and_then(|(base, cost)| harmonize(&ts, base).ok().map(|h| (h, cost)))
            {
                Some((h, cost)) => {
                    // Guaranteed capacity after harmonization: the 100%
                    // bound net of the inflation η (demand grows by η).
                    let harm_bound = 1.0 / cost;
                    (
                        true,
                        orig_bound,
                        harm_bound,
                        original,
                        RmTsLight::new().accepts(&h, m),
                    )
                }
                None => (true, orig_bound, f64::NAN, original, false),
            }
        });
        let generated = rows.iter().filter(|r| r.0).count();
        let orig = rows.iter().filter(|r| r.0 && r.3).count();
        let harm = rows.iter().filter(|r| r.0 && r.4).count();
        let mean = |vals: Vec<f64>| {
            let v: Vec<f64> = vals.into_iter().filter(|x| !x.is_nan()).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let orig_bound = mean(rows.iter().filter(|r| r.0).map(|r| r.1).collect());
        let harm_bound = mean(rows.iter().filter(|r| r.0).map(|r| r.2).collect());
        table.push_row(vec![
            f(u_m, 2),
            f(orig_bound, 3),
            f(harm_bound, 3),
            pct(orig, generated),
            pct(harm, generated),
        ]);
    }
    opts.emit(out, "exp10_harmonization", &table)?;
    line(
        out,
        "(the win is in *guaranteed* capacity: the 100%/η column beats the original\n\
          capped HC bound by a wide margin, enabling instant bound-based sizing near\n\
          U_M ≈ 0.85; exact-RTA admission already sees through near-harmonic structure,\n\
          so harmonizing only costs there — use the lever during design, not at run time)",
    )
}

/// EXP-11: automotive case study — weighted schedulability on
/// WATERS-style workloads.
///
/// The WATERS/Kramer automotive benchmark's period menu is *nearly*
/// harmonic (K ≤ 3 chains), which is precisely the population the paper's
/// parametric bounds target. For each task count the table reports
/// weighted schedulability (utilization-weighted acceptance over
/// `U_M ∈ [0.5, 1.0)`) of RM-TS against the threshold baseline and strict
/// partitioned RM, plus RM-TS's *bound-guaranteed* level for reference.
fn exp11(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let m = 4usize;
    let mut table = Table::new(
        format!(
            "EXP-11: automotive (WATERS periods), weighted schedulability over U_M ∈ [0.5, 1.0), M={m}, {} sets/cell",
            opts.trials
        ),
        &["N", "RM-TS[HC]", "SPA2", "P-RM-FFD/RTA", "mean Λ(τ) (guarantee)"],
    );
    for n in [16usize, 24, 32, 48] {
        let make =
            |rng: &mut rand::rngs::StdRng, u: f64| automotive_taskset(rng, n, u * m as f64, 0.8);
        let rmts_alg = RmTs::new().with_bound(HarmonicChain);
        let w_rmts =
            weighted_schedulability(&rmts_alg, m, (0.5, 1.0), opts.trials, opts.seed, &make);
        let w_spa = weighted_schedulability(&spa2(n), m, (0.5, 1.0), opts.trials, opts.seed, &make);
        let w_prm = weighted_schedulability(
            &PartitionedRm::ffd_rta(),
            m,
            (0.5, 1.0),
            opts.trials,
            opts.seed,
            &make,
        );
        // Mean guaranteed level over a sample of sets.
        let mut lam_sum = 0.0;
        let mut lam_n = 0;
        for t in 0..50u64 {
            let mut rng = trial_rng(opts.seed ^ 0xA5, t);
            if let Some(ts) = automotive_taskset(&mut rng, n, 0.6 * m as f64, 0.8) {
                lam_sum += HarmonicChain.value(&ts).min(rmts_cap_of(&ts));
                lam_n += 1;
            }
        }
        table.push_row(vec![
            n.to_string(),
            f(w_rmts.value, 3),
            f(w_spa.value, 3),
            f(w_prm.value, 3),
            f(lam_sum / lam_n.max(1) as f64, 3),
        ]);
    }
    opts.emit(out, "exp11_automotive", &table)?;
    line(
        out,
        "(automotive periods are near-harmonic: the HC bound guarantees ≈ 0.78–0.83,\n\
          and exact-RTA admission converts that structure into > 0.9 weighted\n\
          schedulability, while the Θ-threshold baseline cannot pass ≈ 0.7)",
    )
}

/// EXP-12: the algorithm frontier — the whole `AlgorithmSpec` catalogue
/// head to head.
///
/// Runs the acceptance-ratio sweep and the breakdown-utilization
/// distribution study over every catalogue entry, renders both as tables,
/// and under `--out DIR` writes the combined JSON report as
/// `DIR/exp12_frontier.json`. `--quick` selects
/// [`FrontierConfig::smoke`], whose report, `exp12_frontier_smoke.json`,
/// CI byte-compares against the committed golden, so any nondeterminism
/// fails CI.
fn exp12(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let (base, file) = if opts.quick {
        (
            FrontierConfig::smoke(opts.seed),
            "exp12_frontier_smoke.json",
        )
    } else {
        (FrontierConfig::full(opts.seed), "exp12_frontier.json")
    };
    let report = frontier(&FrontierConfig {
        trials: opts.trials,
        ..base
    });
    for machine in &report.machines {
        line(out, frontier_sweep_table(&report, machine).to_text())?;
        line(out, frontier_breakdown_table(machine).to_text())?;
    }
    let body = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    opts.save(file, &(body + "\n"))
}

/// ABL-2: design-choice ablations on light task sets.
///
/// Three knobs DESIGN.md calls out, each flipped on an otherwise fixed
/// skeleton and measured on the same generated sets:
///
/// 1. **Admission**: exact RTA (RM-TS/light) vs. the density threshold
///    (SPA1) on the same splitting skeleton.
/// 2. **Fit heuristic** for strict partitioned RM: first/best/worst-fit
///    decreasing under identical exact-RTA admission.
/// 3. **Engine selection**: the paper's worst-fit vs. a classic first-fit
///    in RM-TS/light (the guarantee requires worst-fit).
fn abl2(opts: &ExpOptions, out: &mut dyn Write) -> Result<(), String> {
    let m = 8usize;
    let n = 6 * m;
    let light = RmTsLight::new();
    let threshold = spa1(n);
    let [ffd, bfd, wfd] =
        [Fit::First, Fit::Best, Fit::Worst].map(|fit| PartitionedRm::new().with_fit(fit));
    let light_ff = RmTsLight::new().with_select(FitSelect::SmallestIndexFirstFit);
    let algs: Vec<&dyn Partitioner> = vec![&light, &threshold, &ffd, &bfd, &wfd, &light_ff];
    let points = acceptance_sweep(
        &algs,
        m,
        &[0.85, 0.90, 0.95],
        opts.trials,
        opts.seed,
        &|u| GenConfig::new(n, u * m as f64).with_utilization(UtilizationSpec::capped(0.40)),
        CheckLevel::Rta,
    );
    let table = sweep_table(
        &format!(
            "ABL-2: admission, P-RM fit and engine selection ablations (light sets, M={m}, N={n}, {} trials/point)",
            opts.trials
        ),
        &points,
    );
    opts.emit(out, "abl2_ablation", &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_zero_count_fails_the_check() {
        let clean = VerifyOutcome {
            algorithm: "RM-TS/light".into(),
            bound: "HC".into(),
            tested: 30,
            rejections: 0,
            rta_failures: 0,
            sim_failures: 0,
            audit_failures: 0,
        };
        assert_eq!(exp4_check(std::slice::from_ref(&clean)), Ok(()));
        let dirty = [
            VerifyOutcome {
                rejections: 1,
                ..clean.clone()
            },
            VerifyOutcome {
                rta_failures: 1,
                ..clean.clone()
            },
            VerifyOutcome {
                sim_failures: 1,
                ..clean.clone()
            },
            VerifyOutcome {
                audit_failures: 1,
                ..clean.clone()
            },
        ];
        for cell in dirty {
            let err = exp4_check(&[clean.clone(), cell]).unwrap_err();
            assert_eq!(err, "bound violated in HC × RM-TS/light");
        }
    }
}
