//! `rmts-perfbench`: the end-to-end and per-layer benchmark of `rmts-cli
//! serve`. See `perfbench/README.md` for the workloads, the metrics and how
//! to read the output.
//!
//! ```text
//! rmts-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                --server-bin PATH [--out DIR] [--rustc TEXT] [--git-rev TEXT]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Any wrong answer or drifted workload exits
//! non-zero without a result.

mod check;
mod e2e;
mod load;
mod script;
mod server;
mod stats;
mod trace;

use script::{Script, Workload};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    out: PathBuf,
    rustc: String,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let required = |name: &str| flag(name).ok_or_else(|| format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        required(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    Ok(Args {
        workload: Workload::parse(required("--workload")?)?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.clamp(1, 60),
        trace: match required("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
        server_bin: PathBuf::from(required("--server-bin")?),
        out: PathBuf::from(flag("--out").unwrap_or(".perfbench")),
        rustc: flag("--rustc").unwrap_or("unknown").to_string(),
        git_rev: flag("--git-rev").unwrap_or("unknown").to_string(),
    })
}

/// A named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric; a non-finite value (only a ratio over nothing can give one)
/// reads 0, since JSON cannot carry it.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the run's scratch directory (journals, server logs) however
/// the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let name = args.workload.name();
    let tag = format!("{name}.s{}.t{}", args.seed, u8::from(args.trace));
    let work = WorkDir(args.out.join("work").join(&tag));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;

    let script = Script::generate(args.workload, args.seed, conns, args.seconds);
    let run = e2e::run(&args.server_bin, &work.0, &script, conns, args.seconds)?;

    let expected = check::reference(&script, conns);
    let warm = check::verify(
        &script,
        &expected,
        &script.warmup,
        &run.warmup,
        &vec![0; conns],
    )?;
    if warm.failed() > 0 {
        return Err(format!(
            "{} of {} warm-up/prefill requests failed: {:?}",
            warm.failed(),
            warm.planned,
            run.warmup.conns.iter().find_map(|c| c.error.as_deref())
        ));
    }
    let first_index = match args.workload {
        // The measured server is a new process: its indices restart.
        Workload::SessionJournal => vec![0; conns],
        _ => warm.next_index.clone(),
    };
    let tally = check::verify(
        &script,
        &expected,
        &script.measured,
        &run.measured,
        &first_index,
    )?;
    guard(args.workload, &tally, &run)?;

    let (end_to_end, kept_steal) = run.metrics(&tally)?;
    let lat_p50_us = end_to_end
        .iter()
        .find(|m| m.name == "lat_p50_us")
        .expect("lat_p50_us is an end-to-end metric")
        .value;
    let failed_frac = tally.failed() as f64 / tally.planned as f64;

    let per_layer = if args.trace {
        let spans_path = args.out.join("spans").join(format!("{tag}.jsonl"));
        let traced = trace::run(
            &script,
            conns,
            args.seconds,
            lat_p50_us,
            &work.0.join("prefill"),
            &work.0,
            &spans_path,
        )?;
        eprintln!("spans: {}", spans_path.display());
        Some(traced)
    } else {
        None
    };

    let provenance = vec![
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("server_argv", strings(&run.server_argv)),
        ("cores", Value::UInt(conns as u64)),
        ("connections", Value::UInt(conns as u64)),
        ("rustc", Value::Str(args.rustc.clone())),
        ("git_rev", Value::Str(args.git_rev.clone())),
        ("host_steal_frac", Value::Float(run.steal_frac())),
        ("kept_windows_steal_frac", Value::Float(kept_steal)),
        (
            "measured_requests",
            Value::UInt(script.measured_requests() as u64),
        ),
        ("measured_wall_s", Value::Float(run.measured.wall_s)),
        ("failed_frac", Value::Float(failed_frac)),
        ("setup_samples_s", floats(&run.setup_samples_s)),
        (
            "windows",
            Value::Array(run.window_table().iter().map(|w| floats(w)).collect()),
        ),
    ];
    let shown = per_layer.as_ref().unwrap_or(&end_to_end);
    print_table(name, &args, shown, failed_frac, run.steal_frac());
    let result = result_line(&tally, shown);
    let record = obj(vec![
        ("workload", Value::Str(name.to_string())),
        ("trace", Value::Bool(args.trace)),
        ("provenance", obj(provenance)),
        (
            "result",
            serde_json::from_str(&result).expect("result line is JSON"),
        ),
        ("end_to_end", metrics_value(&end_to_end)),
    ]);
    write_record(&args.out.join("runs").join(format!("{tag}.json")), &record)?;
    Ok(result)
}

/// The workload guards: each run checks the property its workload exists
/// for and refuses to report numbers from a drifted workload.
fn guard(workload: Workload, tally: &check::Tally, run: &e2e::E2eRun) -> Result<(), String> {
    let fail = |why: String| Err(format!("{} workload drifted: {why}", workload.name()));
    match workload {
        Workload::MemoHot => {
            let share = tally.memo_hits as f64 / tally.answered.max(1) as f64;
            if share < 0.99 {
                return fail(format!("memo-hit share {share:.4} < 0.99"));
            }
        }
        Workload::FreshDeep => {
            if tally.memo_hits > 0 {
                return fail(format!("{} memo hits, expected none", tally.memo_hits));
            }
            if tally.accepted == 0 || tally.rejected == 0 {
                return fail(format!(
                    "{} accepted and {} rejected verdicts: both must occur",
                    tally.accepted, tally.rejected
                ));
            }
        }
        Workload::SessionJournal => {
            if run.replayed_ops.unwrap_or(0) == 0 {
                return fail("recovery replayed no journal ops".into());
            }
            if run.checkpoints.unwrap_or(0) == 0 {
                return fail("no checkpoint fired during the measured phase".into());
            }
            if tally.incremental_updates == 0
                || tally.incremental_swaps == 0
                || tally.rejected_deltas == 0
            {
                return fail(format!(
                    "paths taken: {} incremental WCET updates, {} incremental swaps, {} \
                     rejected deltas; each must occur",
                    tally.incremental_updates, tally.incremental_swaps, tally.rejected_deltas
                ));
            }
        }
    }
    Ok(())
}

fn result_line(tally: &check::Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.planned,
        tally.failed(),
        body.join(", ")
    )
}

fn print_table(name: &str, args: &Args, metrics: &[Metric], failed_frac: f64, steal: f64) {
    eprintln!(
        "{name} seed {} ({}s, trace {}): host steal {:.4}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        steal
    );
    for m in metrics {
        eprintln!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        eprintln!("  {:<40} {:>14.4} ratio", "failed_frac", failed_frac);
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().cloned().map(Value::Str).collect())
}

fn floats(items: &[f64]) -> Value {
    Value::Array(items.iter().copied().map(Value::Float).collect())
}

fn metrics_value(metrics: &[Metric]) -> Value {
    obj(metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect())
}

fn write_record(path: &Path, record: &Value) -> Result<(), String> {
    let dir = path.parent().expect("record path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let text = serde_json::to_string_pretty(record).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}
