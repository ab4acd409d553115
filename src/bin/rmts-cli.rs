//! `rmts-cli` — analyze, partition, simulate and generate task sets.
//!
//! ```text
//! rmts-cli bounds    <taskset.json>
//! rmts-cli partition <taskset.json> -m M [--alg SPEC]
//!                    [--bound ll|hc|t|r] [--deadline-ms MS] [--degrade]
//!                    [--simulate] [--gantt] [--stats]
//! rmts-cli check     <taskset.json> -m M          # all algorithms side by side
//! rmts-cli generate  -n N -u TOTAL [--periods loguniform|harmonic]
//!                    [--seed S] [--cap U]          # JSON on stdout
//! rmts-cli fuzz      [--seed S] [--trials T] [--quick] [-n N] [-m M]
//!                    [--panic-trial T] [--save-corpus DIR] [--json] [--stats]
//! rmts-cli fuzz      --replay DIR                  # replay saved reproducers
//! rmts-cli serve-batch [stream.jsonl] [--shards N] [--stats]
//!                    # versioned JSONL requests (v1 analyze + v2 session lines)
//!                    # on stdin/file -> JSONL responses on stdout
//! rmts-cli repartition [stream.jsonl] [--shards N]     # the same service
//! rmts-cli repartition --fuzz [--seed S] [--trials T] [--quick] [-n N] [-m M]
//!                    [--deltas K] [--json]   # delta-stream differential campaign
//! rmts-cli serve     [--addr A] [--shards N] [--clients N] [--rate R]
//!                    [--burst B] [--max-line BYTES] [--idle-timeout SECS]
//!                    [--snapshot PATH] [--journal DIR] [--snapshot-interval SECS]
//!                    [--snapshot-mutations M] [--stats]
//!                    # TCP JSONL server; stops gracefully on stdin EOF
//! ```
//!
//! Task sets are JSON arrays of `{ "id": u32, "wcet": ticks, "period": ticks }`
//! (1 tick = 1 µs by convention).

use rmts::bounds::standard_catalogue;
use rmts::bounds::thresholds::{light_threshold_of, rmts_cap_of};
use rmts::gen::trial_rng;
use rmts::prelude::*;
use rmts::sim::simulate_partitioned_traced;
use rmts::taskmodel::harmonic::min_chain_cover;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((cmd, rest)) = args.split_first() {
        if let Some(flag) = unknown_flag(cmd, rest) {
            eprintln!("error: unknown flag {flag} for {cmd}");
            eprintln!();
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  rmts-cli bounds    <taskset.json>
  rmts-cli partition <taskset.json> -m M [--alg SPEC] [--bound ll|hc|t|r]
                     [--deadline-ms MS] [--degrade] [--simulate] [--gantt] [--stats]
  rmts-cli check     <taskset.json> -m M
  rmts-cli generate  -n N -u TOTAL [--periods loguniform|harmonic] [--seed S] [--cap U]
  rmts-cli fuzz      [--seed S] [--trials T] [--quick] [-n N] [-m M] [--panic-trial T]
                     [--save-corpus DIR] [--json] [--stats]
  rmts-cli fuzz      --replay DIR
  rmts-cli serve-batch [requests.jsonl] [--shards N] [--stats]
  rmts-cli repartition [stream.jsonl] [--shards N]
  rmts-cli repartition --fuzz [--seed S] [--trials T] [--quick] [-n N] [-m M] [--deltas K] [--json]
  rmts-cli serve     [--addr A] [--shards N] [--clients N] [--rate R] [--burst B]
                     [--max-line BYTES] [--idle-timeout SECS] [--snapshot PATH]
                     [--journal DIR] [--snapshot-interval SECS] [--snapshot-mutations M] [--stats]

A flag the subcommand does not read is refused with exit code 2.

partition's --alg takes an algorithm spec:
  rmts[:ll|hc|t|r]     RM-TS under a parametric bound (default hc)
  light | spa1 | spa2  RM-TS/light and the [16]-style baselines
  prm[:FIT[-ADM]][:SORT]  strict partitioned RM across the bin-packing matrix:
    FIT  = ff|bf|wf|nf      first/best/worst/next fit        (default ff)
    ADM  = rta|ll|hyp|chen  per-processor admission test     (default rta)
    SORT = du|dd|dp|in      decreasing utilization/density/period, input order
                                                             (default du)
  e.g. --alg prm:wf:dp or --alg prm:bf-chen. Legacy short names (rmts, prm)
  keep meaning their defaults; check runs the whole catalogue side by side.

partition accepts an analysis budget: --deadline-ms bounds analysis wall time, and
--degrade falls back RTA -> TDA -> density threshold (sound, labeled degraded)
instead of rejecting on exhaustion.

fuzz runs a seeded differential campaign (exit code 2 on divergence or trial fault):
  rmts-cli fuzz --quick --seed 42          # 200-trial smoke, deterministic per seed
  rmts-cli fuzz --trials 10000 --seed 1    # acceptance-scale sweep
  rmts-cli fuzz --replay tests/corpus      # replay shrunk reproducers

serve-batch runs the sharded batch-analysis service over a *versioned* JSONL
stream read from the file argument or stdin (blank lines and # comments skipped):
lines without a version field (or \"version\":1) are classic AnalyzeRequests,
lines with \"version\":2 are session operations ({version, session, op:
{Open{base}} or {Delta{delta}}}). Ops for one session serialize through one
shard; deltas are applied incrementally (guided replay) with full re-partition as
the fallback. Responses are JSONL on stdout in request order; service statistics
(memo hits and misses, session ops, isolated panics) go to stderr.

repartition serves the same stream the same way. With --fuzz it instead runs the
delta-stream differential campaign (incremental apply must equal a from-scratch
partition bit-identically; exit code 2 on divergence, with the delta sequence
shrunk in the report).

serve runs the same versioned JSONL protocol over TCP: persistent connections,
one response line per request line in order, per-client token-bucket rate
limiting (typed rate_limited lines), and load shedding that degrades through the
analysis-budget ladder before answering typed overloaded lines — requests are
never silently dropped. --snapshot persists the memo tables atomically on stop
and restores them on the next start (corrupt or stale snapshots degrade to a
cold start). --idle-timeout drops connections idle longer than SECS (a positive
number). --journal DIR makes the server crash-durable: every committed session
op is journaled write-ahead under DIR, the memo store is checkpointed there in
the background (--snapshot-interval seconds and/or --snapshot-mutations
mutations between checkpoints, both positive), and a restart recovers the
newest checkpoint plus every acknowledged session op by journal replay. The
server prints `listening on ADDR` to stdout, serves until stdin reaches EOF,
then drains every accepted request before exiting.";

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("bounds") => cmd_bounds(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("partition") => cmd_partition(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("check") => cmd_check(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("generate") => cmd_generate(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve-batch") => cmd_serve_stream(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("repartition") if has_flag(&args[1..], "--fuzz") => cmd_repartition_fuzz(&args[1..]),
        Some("repartition") => cmd_serve_stream(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("serve") => cmd_serve(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
    }
}

/// The flags a subcommand reads: those taking a value, then bare ones.
/// `repartition --fuzz` is a mode of its own with its own flags. `None`
/// for anything that is not a subcommand.
fn known_flags(
    cmd: &str,
    args: &[String],
) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match cmd {
        "bounds" => (&[], &[]),
        "partition" => (
            &["-m", "--alg", "--bound", "--deadline-ms"],
            &["--degrade", "--simulate", "--gantt", "--stats"],
        ),
        "check" => (&["-m"], &[]),
        "generate" => (&["-n", "-u", "--periods", "--seed", "--cap"], &[]),
        "fuzz" => (
            &[
                "--seed",
                "--trials",
                "-n",
                "-m",
                "--panic-trial",
                "--save-corpus",
                "--replay",
            ],
            &["--quick", "--json", "--stats"],
        ),
        "serve-batch" => (&["--shards"], &["--stats"]),
        "repartition" if has_flag(args, "--fuzz") => (
            &["--seed", "--trials", "-n", "-m", "--deltas"],
            &["--fuzz", "--quick", "--json"],
        ),
        "repartition" => (&["--shards"], &[]),
        "serve" => (
            &[
                "--addr",
                "--shards",
                "--clients",
                "--rate",
                "--burst",
                "--max-line",
                "--idle-timeout",
                "--snapshot",
                "--journal",
                "--snapshot-interval",
                "--snapshot-mutations",
            ],
            &["--stats"],
        ),
        _ => return None,
    })
}

/// The first `-`-prefixed argument of `cmd` that is neither a flag it
/// reads nor the value of one. Unknown flags are refused rather than
/// ignored, so a typo (`--shard 8`) or a retired flag does not silently
/// run on defaults.
fn unknown_flag<'a>(cmd: &str, args: &'a [String]) -> Option<&'a str> {
    let (valued, bare) = known_flags(cmd, args)?;
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg) {
            rest.next();
        } else if arg.starts_with('-') && !bare.contains(&arg) {
            return Some(arg);
        }
    }
    None
}

fn load(path: &str) -> Result<TaskSet, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("parse {path}: {e}"))
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_m(args: &[String]) -> Result<usize, String> {
    flag_value(args, "-m")
        .ok_or("missing -m <processors>".to_string())?
        .parse()
        .map_err(|e| format!("-m: {e}"))
}

fn pick_bound(args: &[String]) -> Result<BoundSpec, String> {
    let name = flag_value(args, "--bound").unwrap_or("hc");
    BoundSpec::parse(name).ok_or_else(|| format!("unknown bound {name:?} (ll|hc|t|r)"))
}

fn cmd_bounds(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <taskset.json>")?;
    let ts = load(path)?;
    println!("{ts}");
    let cover = min_chain_cover(&ts);
    println!("harmonic chains: K = {}", cover.count());
    for (i, chain) in cover.chains.iter().enumerate() {
        let p: Vec<u64> = chain.iter().map(|t| t.ticks()).collect();
        println!("  chain {i}: {p:?}");
    }
    println!();
    println!("{:<16} {:>8}", "bound", "Λ(τ)");
    println!("{}", "-".repeat(25));
    for b in standard_catalogue() {
        println!("{:<16} {:>8.4}", b.name(), b.value(&ts));
    }
    println!();
    println!(
        "light threshold Θ/(1+Θ) = {:.4}; RM-TS cap 2Θ/(1+Θ) = {:.4}",
        light_threshold_of(&ts),
        rmts_cap_of(&ts)
    );
    let heavy: Vec<u32> = ts
        .tasks()
        .iter()
        .filter(|t| t.utilization() > light_threshold_of(&ts))
        .map(|t| t.id.0)
        .collect();
    println!("heavy tasks: {heavy:?}");
    Ok(())
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <taskset.json>")?;
    let ts = load(path)?;
    let m = parse_m(args)?;
    let alg_name = flag_value(args, "--alg").unwrap_or("rmts");
    let mut spec: AlgorithmSpec = alg_name.parse().map_err(|e| format!("--alg: {e}"))?;
    // `--bound` overrides the grammar's bound knob (and the `rmts` default).
    if let (AlgorithmSpec::RmTs { bound }, Some(_)) = (&mut spec, flag_value(args, "--bound")) {
        *bound = pick_bound(args)?;
    }
    // `--deadline-ms` bounds the analysis wall clock; `--degrade` lets the
    // partitioner fall down the degradation ladder (exact RTA → TDA →
    // density threshold) instead of rejecting when the budget runs out.
    let deadline_ms: Option<u64> = flag_value(args, "--deadline-ms")
        .map(|v| v.parse().map_err(|e| format!("--deadline-ms: {e}")))
        .transpose()?;
    let mut budget = AnalysisBudget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    let opts = EngineOptions {
        policy: None,
        budget,
        degrade: has_flag(args, "--degrade"),
    };
    let alg = spec
        .build_with(ts.len(), &opts)
        .map_err(|e| format!("{e} (re-run without --deadline-ms/--degrade)"))?;

    println!(
        "{}: partitioning N = {} tasks (U_M = {:.4}) onto M = {m}",
        alg.name(),
        ts.len(),
        ts.normalized_utilization(m)
    );
    // `--stats` records every layer the run touches (partitioner phases,
    // RTA cache, simulator events) and prints the snapshot as JSON at the
    // end. It implies a simulation run so the snapshot covers `sim.*`.
    let want_stats = has_flag(args, "--stats");
    let recording = want_stats.then(rmts::obs::Recording::start);
    let mut ws = PartitionWorkspace::new();
    let partition = match alg.partition_with(&ts, m, &mut ws) {
        Ok(p) => p,
        Err(e) => {
            let mut msg = e.to_string();
            if let Some(a) = &e.analysis {
                msg.push_str(&format!(
                    "\n  analysis budget: {a} (re-run with --degrade for a sound fallback)"
                ));
            }
            for b in &e.bottlenecks {
                msg.push_str(&format!("\n  bottleneck {b}"));
            }
            return Err(msg);
        }
    };
    println!("{partition}");
    println!(
        "splits: {:?}; exactness: {}; RTA verification: {}",
        partition
            .split_tasks()
            .iter()
            .map(|t| t.0)
            .collect::<Vec<_>>(),
        partition.exactness,
        if partition.verify_rta() {
            "OK"
        } else {
            "FAILED"
        }
    );

    if has_flag(args, "--simulate") || has_flag(args, "--gantt") || want_stats {
        let (report, trace) =
            simulate_partitioned_traced(&partition.workloads(), SimConfig::default());
        println!(
            "simulation over {}: {} jobs, {} preemptions, {} misses",
            report.horizon,
            report.jobs_completed,
            report.preemptions,
            report.misses.len()
        );
        if has_flag(args, "--gantt") {
            println!();
            print!("{}", trace.gantt(m, report.horizon, 72));
        }
    }
    if let Some(rec) = recording {
        let snap = rec.finish();
        println!();
        println!(
            "{}",
            serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <taskset.json>")?;
    let ts = load(path)?;
    let m = parse_m(args)?;
    let n = ts.len();
    // The generated spec catalogue: every RM-TS bound, the splitting
    // baselines, and the whole fit × sort × admission bin-packing matrix.
    let algs: Vec<DynPartitioner> = AlgorithmSpec::catalogue()
        .iter()
        .map(|s| s.build(n))
        .collect();
    println!(
        "N = {n}, U_M = {:.4} on M = {m}\n",
        ts.normalized_utilization(m)
    );
    println!(
        "{:<24} {:>10} {:>8} {:>8}  detail",
        "algorithm", "result", "splits", "RTA"
    );
    println!("{}", "-".repeat(72));
    // One workspace across the whole catalogue: each row recycles the
    // previous row's processor allocations.
    let mut ws = PartitionWorkspace::new();
    for alg in algs {
        match alg.partition_with(&ts, m, &mut ws) {
            Ok(p) => {
                println!(
                    "{:<24} {:>10} {:>8} {:>8}",
                    alg.name(),
                    "accepted",
                    p.split_tasks().len(),
                    if p.verify_rta() { "ok" } else { "FAIL" }
                );
                ws.recycle(p);
            }
            Err(e) => println!(
                "{:<24} {:>10} {:>8} {:>8}  {} phase{}",
                alg.name(),
                "rejected",
                "-",
                "-",
                e.phase,
                e.task
                    .map(|t| format!(", stuck on {t}"))
                    .unwrap_or_default()
            ),
        }
    }
    Ok(())
}

/// `serve-batch [FILE]` and `repartition [FILE]`: parses a versioned JSONL
/// stream from the file or stdin, serves it through the service and writes
/// one response line per request, in request order.
fn cmd_serve_stream(args: &[String]) -> Result<(), String> {
    use rmts::svc::{wire, Service, ServiceConfig};
    use std::io::Read;

    let input = match args.first().filter(|a| !a.starts_with('-')) {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?,
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("read stdin: {e}"))?;
            buf
        }
    };
    let reqs = wire::parse_stream(&input)?;
    let shards: usize = flag_value(args, "--shards")
        .unwrap_or("4")
        .parse()
        .map_err(|e| format!("--shards: {e}"))?;

    let recording = has_flag(args, "--stats").then(rmts::obs::Recording::start);
    let svc = Service::new(ServiceConfig::new().with_shards(shards));
    let n = reqs.len();
    let t0 = std::time::Instant::now();
    let responses = svc.run_stream(reqs);
    let elapsed = t0.elapsed();
    print!("{}", wire::render_stream_responses(&responses));

    let sessions = responses.iter().filter(|r| r.session.is_some()).count();
    let stats = svc.stats();
    eprintln!(
        "served {n} request(s) ({sessions} session op(s)) in {:.1} ms on {shards} shard(s): \
         {} memo hit(s), {} miss(es), {} panic(s) isolated",
        elapsed.as_secs_f64() * 1e3,
        stats.memo_hits,
        stats.memo_misses,
        stats.panics,
    );
    if let Some(rec) = recording {
        let snap = rec.finish();
        eprintln!(
            "{}",
            serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use rmts::net::{NetConfig, Server};
    use rmts::svc::ServiceConfig;
    use std::io::{BufRead, Write};

    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:0");
    let shards: usize = flag_value(args, "--shards")
        .unwrap_or("4")
        .parse()
        .map_err(|e| format!("--shards: {e}"))?;
    let clients: usize = flag_value(args, "--clients")
        .unwrap_or("32")
        .parse()
        .map_err(|e| format!("--clients: {e}"))?;
    let rate: f64 = flag_value(args, "--rate")
        .unwrap_or("10000")
        .parse()
        .map_err(|e| format!("--rate: {e}"))?;
    let burst: f64 = match flag_value(args, "--burst") {
        Some(b) => b.parse().map_err(|e| format!("--burst: {e}"))?,
        None => rate,
    };
    let max_line: usize = flag_value(args, "--max-line")
        .unwrap_or("1048576")
        .parse()
        .map_err(|e| format!("--max-line: {e}"))?;
    // Timing flags refuse zero and negatives up front — a zero idle
    // timeout would drop every connection instantly, and a zero snapshot
    // interval would checkpoint in a hot loop.
    let idle_timeout = flag_value(args, "--idle-timeout")
        .map(|v| parse_positive_secs("--idle-timeout", v))
        .transpose()?;
    let snapshot_interval = flag_value(args, "--snapshot-interval")
        .map(|v| parse_positive_secs("--snapshot-interval", v))
        .transpose()?;
    let snapshot_mutations: Option<u64> = flag_value(args, "--snapshot-mutations")
        .map(|v| match v.parse::<i64>() {
            Ok(n) if n > 0 => Ok(n as u64),
            Ok(n) => Err(format!("--snapshot-mutations: {n} is not positive")),
            Err(e) => Err(format!("--snapshot-mutations: {e}")),
        })
        .transpose()?;

    let mut cfg = NetConfig::new()
        .with_addr(addr)
        .with_service(ServiceConfig::new().with_shards(shards))
        .with_max_clients(clients)
        .with_rate(rate, burst)
        .with_max_line_len(max_line)
        .with_read_timeout(idle_timeout);
    if let Some(path) = flag_value(args, "--snapshot") {
        cfg = cfg.with_snapshot(path);
    }
    match flag_value(args, "--journal") {
        Some(dir) => {
            let mut dcfg = rmts::svc::DurabilityConfig::new(dir);
            if let Some(interval) = snapshot_interval {
                dcfg = dcfg.with_snapshot_interval(interval);
            }
            if let Some(mutations) = snapshot_mutations {
                dcfg = dcfg.with_snapshot_every_mutations(mutations);
            }
            cfg = cfg.with_durability(dcfg);
        }
        None => {
            if snapshot_interval.is_some() || snapshot_mutations.is_some() {
                return Err(
                    "--snapshot-interval/--snapshot-mutations require --journal DIR".into(),
                );
            }
        }
    }

    let recording = has_flag(args, "--stats").then(rmts::obs::Recording::start);
    let server = Server::start(cfg.clone()).map_err(|e| format!("start server on {addr}: {e}"))?;
    // Echo the effective durability configuration so operators (and the
    // crash harness) can read back what the server will actually do.
    match &cfg.durability {
        Some(d) => eprintln!(
            "durability: journal {} (checkpoint every {:.3}s or {} mutations); idle timeout {}",
            d.dir.display(),
            d.snapshot_interval.as_secs_f64(),
            d.snapshot_every_mutations,
            match cfg.read_timeout {
                Some(t) => format!("{:.3}s", t.as_secs_f64()),
                None => "none".to_string(),
            },
        ),
        None => eprintln!(
            "durability: off (memory only{}); idle timeout {}",
            if cfg.snapshot.is_some() {
                ", snapshot on stop"
            } else {
                ""
            },
            match cfg.read_timeout {
                Some(t) => format!("{:.3}s", t.as_secs_f64()),
                None => "none".to_string(),
            },
        ),
    }
    if let Some(rec) = server.recovery_report() {
        eprintln!(
            "recovery: generation {}, {} memo entr{} restored, {} journal op(s) replayed, \
             {} session(s) recovered{}{}{}",
            rec.generation,
            rec.memo.records,
            if rec.memo.records == 1 { "y" } else { "ies" },
            rec.ops_replayed,
            rec.sessions_recovered,
            if rec.sessions_failed > 0 {
                format!(", {} session(s) failed replay", rec.sessions_failed)
            } else {
                String::new()
            },
            if rec.journal.stale || rec.memo.stale {
                " (stale generation ignored)"
            } else {
                ""
            },
            if rec.journal.corrupt || rec.memo.corrupt {
                " (corrupt tail discarded)"
            } else {
                ""
            },
        );
    }
    let restore = server.restore_report();
    if server.recovery_report().is_none()
        && (restore.records > 0 || restore.stale || restore.corrupt)
    {
        eprintln!(
            "snapshot restore: {} memo entr{} restored{}{}",
            restore.records,
            if restore.records == 1 { "y" } else { "ies" },
            if restore.stale {
                " (stale snapshot ignored)"
            } else {
                ""
            },
            if restore.corrupt {
                " (corrupt tail discarded)"
            } else {
                ""
            },
        );
    }
    // The resolved address goes to stdout (and is flushed) so a parent
    // process can connect the moment the line appears.
    println!("listening on {}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    // Serve until stdin closes — the idiomatic way to run under a
    // supervisor or test harness: close the pipe, get a graceful drain.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        if line.is_err() {
            break;
        }
    }
    let stats = server
        .stop()
        .map_err(|e| format!("stop (snapshot write): {e}"))?;
    let net = server.net_stats();
    eprintln!(
        "served {} request(s) over {} connection(s): {} memo hit(s), {} miss(es), \
         {} degraded, {} overloaded, {} rate-limited, {} malformed, {} oversized, \
         {} rejected connection(s), {} unclean disconnect(s)",
        net.served,
        net.accepted,
        stats.memo_hits,
        stats.memo_misses,
        net.shed_degraded,
        net.shed_overloaded,
        net.rate_limited,
        net.malformed,
        net.oversized,
        net.rejected,
        net.disconnects,
    );
    let durability = server.service().durability_stats();
    if let Some(d) = &durability {
        eprintln!(
            "durability: generation {}, {} journal append(s) ({} bytes, {} error(s)), \
             {} checkpoint(s)",
            d.generation,
            d.journal_appends,
            d.journal_bytes,
            d.journal_append_errors,
            d.checkpoints,
        );
    }
    if let Some(rec) = recording {
        net.mirror_into_obs();
        if let Some(d) = &durability {
            d.mirror_into_obs();
        }
        let snap = rec.finish();
        eprintln!(
            "{}",
            serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

/// Parses a strictly positive seconds value (fractions allowed) into a
/// `Duration`; zero, negatives, and non-numbers are flag errors.
fn parse_positive_secs(flag: &str, value: &str) -> Result<std::time::Duration, String> {
    let secs: f64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!(
            "{flag}: {value} is not a positive number of seconds"
        ));
    }
    Ok(std::time::Duration::from_secs_f64(secs))
}

fn cmd_repartition_fuzz(args: &[String]) -> Result<ExitCode, String> {
    use rmts::verify::{run_delta_campaign, DeltaCampaignConfig};

    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let mut cfg = if has_flag(args, "--quick") {
        DeltaCampaignConfig::quick(seed)
    } else {
        DeltaCampaignConfig::new(seed)
    };
    if let Some(t) = flag_value(args, "--trials") {
        cfg.trials = t.parse().map_err(|e| format!("--trials: {e}"))?;
    }
    if let Some(n) = flag_value(args, "-n") {
        cfg.n = n.parse().map_err(|e| format!("-n: {e}"))?;
    }
    if let Some(m) = flag_value(args, "-m") {
        cfg.m = m.parse().map_err(|e| format!("-m: {e}"))?;
    }
    if let Some(k) = flag_value(args, "--deltas") {
        cfg.deltas_per_trial = k.parse().map_err(|e| format!("--deltas: {e}"))?;
    }

    let report = run_delta_campaign(&cfg);
    if has_flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", report.render());
    }
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    use rmts::verify::{replay_corpus, run_campaign, save_corpus, CampaignConfig};
    use std::path::Path;

    if let Some(dir) = flag_value(args, "--replay") {
        let cap = CampaignConfig::new(0).sim_cap;
        return match replay_corpus(Path::new(dir), cap) {
            Ok(n) => {
                println!("replayed {n} reproducer(s) from {dir}: all match expectations");
                Ok(ExitCode::SUCCESS)
            }
            Err(failures) => {
                for f in &failures {
                    eprintln!("replay failure: {f}");
                }
                Err(format!("{} reproducer(s) failed to replay", failures.len()))
            }
        };
    }

    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let mut cfg = if has_flag(args, "--quick") {
        CampaignConfig::quick(seed)
    } else {
        CampaignConfig::new(seed)
    };
    if let Some(t) = flag_value(args, "--trials") {
        cfg.trials = t.parse().map_err(|e| format!("--trials: {e}"))?;
    }
    if let Some(n) = flag_value(args, "-n") {
        cfg.n = n.parse().map_err(|e| format!("-n: {e}"))?;
    }
    if let Some(m) = flag_value(args, "-m") {
        cfg.m = m.parse().map_err(|e| format!("-m: {e}"))?;
    }
    // Fault injection: panic inside the named trial to demonstrate the
    // campaign's per-trial isolation (the run finishes, lists the fault,
    // and exits 2).
    if let Some(t) = flag_value(args, "--panic-trial") {
        cfg.panic_trial = Some(t.parse().map_err(|e| format!("--panic-trial: {e}"))?);
    }

    let recording = has_flag(args, "--stats").then(rmts::obs::Recording::start);
    let report = run_campaign(&cfg);
    if has_flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", report.render());
    }
    if let Some(dir) = flag_value(args, "--save-corpus") {
        let paths = save_corpus(Path::new(dir), &report.reproducers)
            .map_err(|e| format!("save corpus to {dir}: {e}"))?;
        println!("saved {} reproducer(s) to {dir}", paths.len());
    }
    if let Some(rec) = recording {
        let snap = rec.finish();
        println!();
        println!(
            "{}",
            serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?
        );
    }
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let n: usize = flag_value(args, "-n")
        .ok_or("missing -n <tasks>")?
        .parse()
        .map_err(|e| format!("-n: {e}"))?;
    let u: f64 = flag_value(args, "-u")
        .ok_or("missing -u <total utilization>")?
        .parse()
        .map_err(|e| format!("-u: {e}"))?;
    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let cap: f64 = flag_value(args, "--cap")
        .unwrap_or("1.0")
        .parse()
        .map_err(|e| format!("--cap: {e}"))?;
    let periods = match flag_value(args, "--periods").unwrap_or("loguniform") {
        "loguniform" => PeriodGen::default_log_uniform(),
        "harmonic" => PeriodGen::Harmonic {
            base: 10_000,
            octaves: 5,
        },
        other => return Err(format!("unknown period style {other:?}")),
    };
    let cfg = GenConfig::new(n, u)
        .with_periods(periods)
        .with_utilization(UtilizationSpec::capped(cap));
    let ts = cfg
        .generate(&mut trial_rng(seed, 0))
        .ok_or("generation infeasible under the given constraints")?;
    println!(
        "{}",
        serde_json::to_string_pretty(&ts).map_err(|e| e.to_string())?
    );
    Ok(())
}
