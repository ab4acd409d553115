//! Kill–recover fault injection against the real binary: a child-process
//! `rmts-cli serve --journal` is SIGKILLed at seeded points mid-load and
//! restarted against the same directory. The contracts under test:
//!
//! * **No corrupt record survives** — after any kill, the journal on disk
//!   decodes to a clean verified prefix, and every *acknowledged* op is
//!   inside it (write-ahead: acked ⇒ journaled ⇒ replayed).
//! * **Bit-identical recovery** — a surviving client's next delta answers
//!   exactly as on an uninterrupted run (the PR-7 differential contract,
//!   extended across a process boundary).
//! * **Bounded memo loss** — everything analyzed before the last
//!   checkpoint answers as a memo hit after restart.
//! * **No half-applied resurrection** — sessions closed before the kill
//!   stay closed.

use rmts::core::Exactness;
use rmts::svc::journal::{journal_bytes, read_journal_bytes};
use rmts::svc::snapshot::{read_snapshot_bytes, snapshot_bytes};
use rmts::svc::wire::SessionRecord;
use rmts::svc::{
    engine_fingerprint, read_journal, AlgorithmSpec, AnalysisOutcome, AnalyzeRequest, JournalOp,
    MemoEntry, RepartitionRequest, ResponseRecord, Verdict,
};
use rmts::verify::{kill_points, torn_write_sweep, JsonlClient, ServerProc};
use rmts_taskmodel::{Task, TaskId, TaskSetDelta};
use std::path::{Path, PathBuf};
use std::time::Duration;

const READY: Duration = Duration::from_secs(60);

fn bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_rmts-cli"))
}

/// A self-cleaning temp dir per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("rmts_crash_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn_durable(dir: &TempDir, extra: &[&str]) -> ServerProc {
    let mut args = vec!["--shards", "2", "--journal", dir.path()];
    args.extend_from_slice(extra);
    ServerProc::spawn(bin(), &args, READY).expect("server must come up")
}

fn base_request() -> AnalyzeRequest {
    AnalyzeRequest::new(
        vec![(1, 4), (2, 8), (2, 8), (4, 16), (3, 12)],
        2,
        AlgorithmSpec::RmTsLight,
    )
}

/// The committed-op script the kill tests drive: two sessions, a closed
/// third, committed deltas throughout.
fn script() -> Vec<RepartitionRequest> {
    vec![
        RepartitionRequest::open("alpha", base_request()),
        RepartitionRequest::open("doomed", base_request()),
        RepartitionRequest::delta(
            "alpha",
            TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
        ),
        RepartitionRequest::close("doomed"),
        RepartitionRequest::open("beta", base_request()),
        RepartitionRequest::delta("beta", TaskSetDelta::remove(TaskId(4))),
        RepartitionRequest::delta(
            "alpha",
            TaskSetDelta::add(Task::from_ticks(7, 1, 16).unwrap()),
        ),
        RepartitionRequest::delta(
            "beta",
            TaskSetDelta::update(Task::from_ticks(0, 2, 8).unwrap()),
        ),
    ]
}

fn line(req: &RepartitionRequest) -> String {
    serde_json::to_string(req).unwrap()
}

/// Counts ops per (session, discriminant) so journal containment checks
/// are order-insensitive per session but exact in multiplicity.
fn op_key(op: &JournalOp) -> (String, &'static str) {
    match op {
        JournalOp::Open { session, .. } => (session.clone(), "open"),
        JournalOp::Delta { session, .. } => (session.clone(), "delta"),
        JournalOp::Close { session } => (session.clone(), "close"),
    }
}

fn req_key(req: &RepartitionRequest) -> (String, &'static str) {
    use rmts::svc::SessionOp;
    let kind = match req.op {
        SessionOp::Open { .. } => "open",
        SessionOp::Delta { .. } => "delta",
        SessionOp::Close => "close",
    };
    (req.session.clone(), kind)
}

#[test]
fn kill_at_randomized_points_loses_nothing_acknowledged() {
    let script = script();
    // ≥ 3 randomized kill points, deterministic from the seed.
    for (i, k) in kill_points(0xC0FFEE, 3, script.len())
        .into_iter()
        .enumerate()
    {
        let dir = TempDir::new(&format!("killpoint_{i}"));
        let mut server = spawn_durable(&dir, &[]);
        let mut client = JsonlClient::connect(server.addr()).unwrap();
        let mut acked: Vec<&RepartitionRequest> = Vec::new();
        for req in &script[..k] {
            let resp = client.roundtrip(&line(req)).unwrap();
            let rec: SessionRecord = serde_json::from_str(&resp).unwrap();
            assert!(
                matches!(rec.outcome.verdict, Verdict::Accepted { .. }),
                "scripted op must be accepted: {resp}"
            );
            acked.push(req);
        }
        // One more op races the kill: it may or may not commit — the
        // journal, not the TCP stream, is the arbiter.
        if let Some(racing) = script.get(k) {
            client.send(&line(racing)).unwrap();
        }
        server.kill().unwrap();

        // Contract 1: the on-disk journal is a clean verified prefix and
        // contains every acknowledged op (acked ⊆ journal ⊆ sent).
        let (ops, report) = read_journal(&dir.0.join("journal.g0.log"), &engine_fingerprint());
        assert!(!report.stale, "kill point {k}: {report:?}");
        let journaled: Vec<_> = ops.iter().map(op_key).collect();
        for req in &acked {
            let key = req_key(req);
            let in_journal = journaled.iter().filter(|j| **j == key).count();
            let in_acked = acked.iter().filter(|r| req_key(r) == key).count();
            assert!(
                in_journal >= in_acked,
                "kill point {k}: acked op {key:?} missing from journal ({journaled:?})"
            );
        }
        assert!(
            ops.len() <= k + 1,
            "kill point {k}: journal holds ops never sent: {journaled:?}"
        );

        // Contract 2: restart recovers, and the fleet keeps serving the
        // surviving sessions with exact state.
        let server = spawn_durable(&dir, &[]);
        let mut client = JsonlClient::connect(server.addr()).unwrap();
        let probe = RepartitionRequest::delta(
            "alpha",
            TaskSetDelta::update(Task::from_ticks(0, 1, 4).unwrap()),
        );
        let got: SessionRecord =
            serde_json::from_str(&client.roundtrip(&line(&probe)).unwrap()).unwrap();

        // Oracle: an in-process service replaying exactly the journaled
        // ops must answer the same probe identically (replay determinism
        // is the PR-7 contract; here it spans a real SIGKILL).
        use rmts::svc::{Request, Service, ServiceConfig};
        let control = Service::new(ServiceConfig::new().with_shards(2));
        let mut stream: Vec<Request> = Vec::new();
        for op in &ops {
            stream.push(Request::Repartition(match op {
                JournalOp::Open { session, base } => {
                    RepartitionRequest::open(session.clone(), base.clone())
                }
                JournalOp::Delta { session, delta } => {
                    RepartitionRequest::delta(session.clone(), delta.clone())
                }
                JournalOp::Close { session } => RepartitionRequest::close(session.clone()),
            }));
        }
        stream.push(Request::Repartition(probe));
        let expected = control.run_stream(stream);
        let expected = expected.last().unwrap();
        let expected_meta = expected.session.as_ref().unwrap();
        assert_eq!(got.session, expected_meta.session, "kill point {k}");
        assert_eq!(got.path, expected_meta.path, "kill point {k}");
        assert_eq!(got.outcome, *expected.outcome, "kill point {k}");
        server.stop().unwrap();
    }
}

#[test]
fn closed_sessions_stay_closed_across_a_kill() {
    let dir = TempDir::new("no_resurrect");
    let mut server = spawn_durable(&dir, &[]);
    let mut client = JsonlClient::connect(server.addr()).unwrap();
    for req in &[
        RepartitionRequest::open("doomed", base_request()),
        RepartitionRequest::close("doomed"),
    ] {
        client.roundtrip(&line(req)).unwrap();
    }
    server.kill().unwrap();

    let server = spawn_durable(&dir, &[]);
    let mut client = JsonlClient::connect(server.addr()).unwrap();
    let resp = client
        .roundtrip(&line(&RepartitionRequest::delta(
            "doomed",
            TaskSetDelta::empty(),
        )))
        .unwrap();
    let rec: SessionRecord = serde_json::from_str(&resp).unwrap();
    assert_eq!(rec.path, "error");
    assert!(
        matches!(rec.outcome.verdict, Verdict::Invalid { ref reason } if reason.contains("unknown session")),
        "a closed session must not resurrect half-applied: {resp}"
    );
    server.stop().unwrap();
}

#[test]
fn memo_loss_is_bounded_by_one_checkpoint_interval() {
    let dir = TempDir::new("memo_bound");
    // Checkpoint after every mutation: the "interval" collapses to a
    // single request, so after the kill *everything* must answer warm.
    let mut server = spawn_durable(
        &dir,
        &["--snapshot-interval", "3600", "--snapshot-mutations", "1"],
    );
    let mut client = JsonlClient::connect(server.addr()).unwrap();
    let analyses: Vec<String> = (2u64..7)
        .map(|k| {
            serde_json::to_string(&AnalyzeRequest::new(
                vec![(1, 4), (2, 8), (k, 8 * k)],
                2,
                AlgorithmSpec::RmTsLight,
            ))
            .unwrap()
        })
        .collect();
    for a in &analyses {
        let rec: ResponseRecord = serde_json::from_str(&client.roundtrip(a).unwrap()).unwrap();
        assert!(!rec.memo_hit, "first analysis is a miss");
    }
    // Wait for the background checkpoint to cut a generation covering the
    // last mutation, then crash.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let newest = std::fs::read_dir(&dir.0)
            .unwrap()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                name.strip_prefix("memo.g")?
                    .strip_suffix(".snap")?
                    .parse::<u64>()
                    .ok()
            })
            .max();
        if newest.is_some_and(|g| g >= 1) {
            // One more settle tick: the memo snapshot of the *final*
            // generation must include the last analysis.
            let (entries, _) =
                rmts::svc::read_snapshot(&dir.0.join(format!("memo.g{}.snap", newest.unwrap())));
            if entries.len() == analyses.len() {
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background checkpoint never covered the workload"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.kill().unwrap();

    let server = spawn_durable(&dir, &[]);
    let mut client = JsonlClient::connect(server.addr()).unwrap();
    for a in &analyses {
        let rec: ResponseRecord = serde_json::from_str(&client.roundtrip(a).unwrap()).unwrap();
        assert!(
            rec.memo_hit,
            "analysis before the checkpoint must answer warm after recovery: {a}"
        );
    }
    server.stop().unwrap();
}

#[test]
fn wire_fixture_replays_identically_after_a_kill() {
    // Satellite fixture: tests/wire/crash_recovery_stream.jsonl, split at
    // the `# --kill--` marker. Part B after kill+restart must answer as
    // on an uninterrupted run.
    let fixture = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/wire/crash_recovery_stream.jsonl"),
    )
    .unwrap();
    let mut part_a: Vec<&str> = Vec::new();
    let mut part_b: Vec<&str> = Vec::new();
    let mut after_kill = false;
    for l in fixture.lines() {
        let t = l.trim();
        if t == "# --kill--" {
            after_kill = true;
            continue;
        }
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if after_kill { &mut part_b } else { &mut part_a }.push(t);
    }
    assert!(
        !part_a.is_empty() && !part_b.is_empty(),
        "fixture has both parts"
    );

    let drive = |client: &mut JsonlClient, lines: &[&str]| -> Vec<SessionRecord> {
        lines
            .iter()
            .map(|l| serde_json::from_str(&client.roundtrip(l).unwrap()).unwrap())
            .collect()
    };

    // Control: one server, no crash.
    let control_dir = TempDir::new("fixture_control");
    let server = spawn_durable(&control_dir, &[]);
    let mut client = JsonlClient::connect(server.addr()).unwrap();
    drive(&mut client, &part_a);
    let expected = drive(&mut client, &part_b);
    server.stop().unwrap();

    // Crash run: part A, SIGKILL, restart, part B.
    let dir = TempDir::new("fixture_crash");
    let mut server = spawn_durable(&dir, &[]);
    let mut client = JsonlClient::connect(server.addr()).unwrap();
    drive(&mut client, &part_a);
    server.kill().unwrap();
    let server = spawn_durable(&dir, &[]);
    let mut client = JsonlClient::connect(server.addr()).unwrap();
    let got = drive(&mut client, &part_b);
    server.stop().unwrap();

    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        // Indices restart with the connection; everything the protocol
        // promises about the *session* must be identical.
        assert_eq!(g.session, e.session);
        assert_eq!(g.path, e.path, "session {}: {g:?} vs {e:?}", g.session);
        assert_eq!(g.outcome, e.outcome, "session {}", g.session);
    }
}

#[test]
fn torn_write_simulator_finds_no_surviving_corruption() {
    let ops = vec![
        JournalOp::Open {
            session: "alpha".into(),
            base: base_request(),
        },
        JournalOp::Delta {
            session: "alpha".into(),
            delta: TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
        },
        JournalOp::Close {
            session: "alpha".into(),
        },
    ];
    let fp = engine_fingerprint();
    let image = journal_bytes(&fp, &ops).unwrap();
    let report = torn_write_sweep(&image, &ops, |bytes| read_journal_bytes(bytes, &fp));
    assert!(report.clean(), "{report:?}");
    assert!(report.truncations > 100 && report.bitflips > 100);
    assert!(report.prefix_kept > 0 && report.rejected > 0);
}

#[test]
fn torn_write_simulator_covers_the_memo_snapshot() {
    // The memo snapshot shares the journal's record framing, so the same
    // sweep — header bytes and every bit lane included — must find the
    // same prefix invariant.
    let entry = |pairs: Vec<(u64, u64)>, m: usize, verdict: Verdict| MemoEntry {
        engine: format!("RmTsLight|None|unlimited|false|{}", pairs.len()),
        pairs,
        m,
        outcome: AnalysisOutcome {
            algorithm: "RM-TS/light".into(),
            m,
            verdict,
        },
    };
    let entries = vec![
        entry(
            vec![(1, 4), (2, 8), (3, 12)],
            2,
            Verdict::Accepted {
                processors_used: 2,
                splits: vec![2],
                exactness: Exactness::Exact,
            },
        ),
        entry(
            vec![(5, 4)],
            1,
            Verdict::Invalid {
                reason: "invalid task set: wcet exceeds period".into(),
            },
        ),
        entry(
            vec![(1, 3), (1, 5)],
            1,
            Verdict::Accepted {
                processors_used: 1,
                splits: vec![],
                exactness: Exactness::Exact,
            },
        ),
    ];
    let fp = engine_fingerprint();
    let image = snapshot_bytes(&fp, &entries).unwrap();
    let report = torn_write_sweep(&image, &entries, |bytes| read_snapshot_bytes(bytes, &fp));
    assert!(report.clean(), "{report:?}");
    assert!(report.truncations > 100 && report.bitflips > 100);
    assert!(report.prefix_kept > 0 && report.rejected > 0);
}
