//! End-to-end tests of the `rmts-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rmts-cli"))
}

fn write_demo_taskset() -> temppath::TempPath {
    let json = r#"[
        {"id": 0, "wcet": 2000, "period": 10000},
        {"id": 1, "wcet": 5000, "period": 20000},
        {"id": 2, "wcet": 10000, "period": 40000},
        {"id": 3, "wcet": 4000, "period": 10000}
    ]"#;
    temppath::TempPath::new("rmts_cli_demo.json", json)
}

/// Minimal self-cleaning temp-file helper (std only).
mod temppath {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Tests run in parallel threads of one process: the counter keeps two
    /// live `TempPath`s with the same `name` from sharing (and deleting)
    /// one file.
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    pub struct TempPath(PathBuf);

    impl TempPath {
        pub fn new(name: &str, contents: &str) -> TempPath {
            let k = NEXT.fetch_add(1, Ordering::Relaxed);
            let p = std::env::temp_dir().join(format!("{}_{k}_{name}", std::process::id()));
            std::fs::write(&p, contents).expect("write temp file");
            TempPath(p)
        }
        pub fn as_str(&self) -> &str {
            self.0.to_str().expect("utf-8 path")
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[test]
fn bounds_command_reports_catalogue() {
    let ts = write_demo_taskset();
    let out = cli().args(["bounds", ts.as_str()]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Liu&Layland"));
    assert!(stdout.contains("harmonic-chain"));
    assert!(stdout.contains("T-Bound"));
    assert!(stdout.contains("R-Bound"));
    assert!(stdout.contains("harmonic chains: K = 1"));
}

#[test]
fn partition_simulate_gantt() {
    let ts = write_demo_taskset();
    let out = cli()
        .args([
            "partition",
            ts.as_str(),
            "-m",
            "2",
            "--alg",
            "rmts",
            "--gantt",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RTA verification: OK"));
    assert!(stdout.contains("0 misses"));
    assert!(stdout.contains("P0 |"));
    assert!(stdout.contains("P1 |"));
}

#[test]
fn check_command_lists_all_algorithms() {
    let ts = write_demo_taskset();
    let out = cli()
        .args(["check", ts.as_str(), "-m", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "RM-TS[Liu&Layland]",
        "RM-TS/light",
        "SPA1",
        "SPA2",
        "P-RM-FFD/RTA",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn generate_roundtrips_through_partition() {
    let out = cli()
        .args([
            "generate", "-n", "8", "-u", "1.5", "--seed", "3", "--cap", "0.5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let ts = temppath::TempPath::new("rmts_cli_gen.json", &String::from_utf8_lossy(&out.stdout));
    let out2 = cli()
        .args(["partition", ts.as_str(), "-m", "2", "--simulate"])
        .output()
        .unwrap();
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
    assert!(String::from_utf8_lossy(&out2.stdout).contains("0 misses"));
}

#[test]
fn help_prints_usage() {
    let out = cli().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"));

    let out = cli()
        .args(["partition", "/nonexistent.json", "-m", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn partition_stats_emits_snapshot_json() {
    let ts = write_demo_taskset();
    let out = cli()
        .args(["partition", ts.as_str(), "-m", "2", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // `--stats` implies a simulation run, so the snapshot spans all layers.
    assert!(stdout.contains("simulation over"));
    let json_start = stdout.find('{').expect("JSON snapshot in output");
    let snap: rmts::obs::StatsSnapshot =
        serde_json::from_str(&stdout[json_start..]).expect("snapshot parses");
    assert!(snap.counter("core.admission.probes") > 0);
    assert_eq!(
        snap.counter("rta.cache.hits") + snap.counter("rta.cache.misses"),
        snap.counter("rta.cache.probes")
    );
    assert!(snap.counter("sim.events") > 0);
    assert!(snap.histogram("core.phase.assign_normal_ns").is_some());
    // And the snapshot is a faithful serde citizen: serialize → parse is
    // the identity.
    let again: rmts::obs::StatsSnapshot =
        serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
    assert_eq!(snap, again, "--stats snapshot is lossy under serde_json");
}

#[test]
fn fuzz_quick_is_deterministic_and_clean() {
    let run = || {
        cli()
            .args([
                "fuzz", "--quick", "--seed", "42", "--trials", "60", "--json",
            ])
            .output()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    // Same seed ⇒ bit-identical report, regardless of worker threads.
    assert_eq!(a.stdout, b.stdout, "fuzz report is not deterministic");
    let report: rmts::verify::CampaignReport =
        serde_json::from_str(&String::from_utf8_lossy(&a.stdout)).expect("JSON report");
    assert!(report.clean(), "{}", report.render());
    assert_eq!(report.generated, 60);
}

#[test]
fn fuzz_replays_checked_in_corpus() {
    // Divergent reproducers replay as *expected* divergences, so the
    // replay exits 0; a lost divergence or a new one would fail.
    let out = cli()
        .args(["fuzz", "--replay", "tests/corpus"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("all match expectations"));
}

#[test]
fn fuzz_replay_of_missing_directory_fails() {
    // (The divergence exit path — code 2 — needs the test-only weakened
    // SUT, which the CLI deliberately does not expose; it is covered by
    // the crates/verify fault-injection tests.)
    let out = cli()
        .args(["fuzz", "--replay", "/nonexistent-corpus-dir"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn partition_reports_exactness_and_accepts_a_budget() {
    let ts = write_demo_taskset();
    // A generous wall-clock deadline: the budget machinery engages but
    // never exhausts, so the partition stays labeled exact.
    let out = cli()
        .args([
            "partition",
            ts.as_str(),
            "-m",
            "2",
            "--alg",
            "light",
            "--deadline-ms",
            "60000",
            "--degrade",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exactness: exact"), "{stdout}");
    assert!(stdout.contains("RTA verification: OK"));
}

#[test]
fn budget_flags_are_rejected_for_unbudgeted_algorithms() {
    // `prm` is the one algorithm with no metered analysis; the budgeted
    // splitting family (rmts/light/spa1/spa2) all honor the flags.
    let ts = write_demo_taskset();
    let out = cli()
        .args([
            "partition",
            ts.as_str(),
            "-m",
            "2",
            "--alg",
            "prm",
            "--degrade",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deadline-ms/--degrade"));
}

#[test]
fn fuzz_panic_trial_finishes_lists_the_fault_and_exits_2() {
    let out = cli()
        .args([
            "fuzz",
            "--quick",
            "--seed",
            "42",
            "--trials",
            "20",
            "--panic-trial",
            "7",
        ])
        .output()
        .unwrap();
    // The campaign completed (a real panic would kill the process with a
    // different status) and signals "not clean" via exit code 2.
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fault s42-t7"), "{stdout}");
    assert!(stdout.contains("injected campaign fault at trial 7"));
    assert!(stdout.contains("1 FAULTS"));
}

#[test]
fn serve_batch_answers_jsonl_in_order_with_memoization() {
    use rmts::svc::wire::ResponseRecord;
    use rmts::svc::{AlgorithmSpec, AnalyzeRequest, Verdict};

    let dup = AnalyzeRequest::new(
        vec![(2_000, 10_000), (5_000, 20_000), (4_000, 10_000)],
        2,
        AlgorithmSpec::RmTsLight,
    );
    let distinct =
        AnalyzeRequest::new(vec![(1_000, 4_000), (3_000, 9_000)], 1, AlgorithmSpec::Spa2);
    let mut lines = String::from("# rmts-cli serve-batch smoke input\n\n");
    for req in [&dup, &dup, &distinct] {
        lines.push_str(&serde_json::to_string(req).unwrap());
        lines.push('\n');
    }
    let input = temppath::TempPath::new("rmts_cli_batch.jsonl", &lines);
    let out = cli()
        .args(["serve-batch", input.as_str(), "--shards", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let records: Vec<ResponseRecord> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("response line parses"))
        .collect();
    assert_eq!(records.len(), 3);
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.index, i, "responses come back in request order");
        assert!(matches!(rec.outcome.verdict, Verdict::Accepted { .. }));
    }
    // The duplicate was served from the memo table, bit-identically.
    assert!(records[1].memo_hit);
    assert_eq!(records[0].outcome, records[1].outcome);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 memo hit(s), 2 miss(es)"), "{stderr}");
}

#[test]
fn serve_batch_stats_count_a_mixed_stream_and_match_repartition() {
    use rmts::svc::{AlgorithmSpec, AnalyzeRequest, RepartitionRequest};
    use rmts::taskmodel::{Task, TaskSetDelta};

    let dup = AnalyzeRequest::new(vec![(1, 4), (2, 8), (2, 8)], 2, AlgorithmSpec::RmTsLight);
    let distinct = AnalyzeRequest::new(vec![(1, 5), (2, 9)], 2, AlgorithmSpec::RmTsLight);
    let lines = [
        serde_json::to_string(&dup).unwrap(),
        serde_json::to_string(&RepartitionRequest::open("s", dup.clone())).unwrap(),
        serde_json::to_string(&dup).unwrap(),
        serde_json::to_string(&RepartitionRequest::delta(
            "s",
            TaskSetDelta::update(Task::from_ticks(0, 2, 4).unwrap()),
        ))
        .unwrap(),
        serde_json::to_string(&distinct).unwrap(),
        serde_json::to_string(&RepartitionRequest::close("s")).unwrap(),
    ];
    let input = temppath::TempPath::new("rmts_cli_mixed.jsonl", &(lines.join("\n") + "\n"));
    let serve = |cmd: &str, extra: &[&str]| {
        let out = cli()
            .args([cmd, input.as_str(), "--shards", "2"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let batch = serve("serve-batch", &["--stats"]);
    // Three v1 requests ask two questions; the three session ops are never
    // memoized, so each counts as a miss.
    let stderr = String::from_utf8_lossy(&batch.stderr);
    assert!(stderr.contains("(3 session op(s))"), "{stderr}");
    assert!(stderr.contains("1 memo hit(s), 5 miss(es)"), "{stderr}");
    let json_start = stderr.find('{').expect("JSON snapshot on stderr");
    let snap: rmts::obs::StatsSnapshot =
        serde_json::from_str(&stderr[json_start..]).expect("snapshot parses");
    assert_eq!(snap.counter("svc.batch.requests"), 6);
    assert_eq!(snap.counter("svc.memo.hits"), 1);
    assert_eq!(snap.counter("svc.memo.misses"), 5);
    assert!(snap.histogram("svc.batch.latency_us").is_some());

    assert_eq!(String::from_utf8_lossy(&batch.stdout).lines().count(), 6);
    assert_eq!(batch.stdout, serve("repartition", &[]).stdout);
}

#[test]
fn serve_batch_locates_malformed_request_lines() {
    let input = temppath::TempPath::new("rmts_cli_bad_batch.jsonl", "# ok\nnot json\n");
    let out = cli()
        .args(["serve-batch", input.as_str()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("request line 2"));
}

#[test]
fn unknown_flags_are_refused_with_exit_2() {
    let input = temppath::TempPath::new("rmts_cli_flags.jsonl", "# empty batch\n");
    // The retired `--queue`, a typo of `--shards`, and a flag another
    // subcommand reads.
    for (args, flag) in [
        (&["--queue", "8"][..], "--queue"),
        (&["--shard", "8"][..], "--shard"),
        (&["--shards", "2", "--journal", "d"][..], "--journal"),
    ] {
        let out = cli()
            .args(["serve-batch", input.as_str()])
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag} for serve-batch")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing served for {args:?}");
    }
    // A flag's value may itself start with `-`; it is not a flag.
    let out = cli()
        .args(["generate", "-n", "4", "-u", "-1"])
        .output()
        .unwrap();
    assert!(!String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn overloaded_set_reports_failure() {
    let ts = temppath::TempPath::new(
        "rmts_cli_overload.json",
        r#"[
            {"id": 0, "wcet": 9000, "period": 10000},
            {"id": 1, "wcet": 9000, "period": 10000},
            {"id": 2, "wcet": 9000, "period": 10000}
        ]"#,
    );
    let out = cli()
        .args(["partition", ts.as_str(), "-m", "2", "--alg", "rmts"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("partitioning failed"));
}
