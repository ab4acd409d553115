//! Durability battery: write-ahead journaling, checkpoint/recovery
//! bit-identity, torn-write damage sweeps, and the shutdown-vs-checkpoint
//! race regression.
//!
//! The oracle throughout is the differential contract the repartition
//! sessions already obey: guided replay is deterministic, so a recovered
//! session must be **bit-identical** to its pre-crash state — checked
//! wholesale through [`CheckpointReport::sessions_digest`], the FNV-1a
//! fold of every live session's state digest.

use proptest::prelude::*;
use rmts_core::AlgorithmSpec;
use rmts_gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts_svc::journal::{journal_bytes, read_journal_bytes};
use rmts_svc::{
    engine_fingerprint, read_journal, AnalyzeRequest, DurabilityConfig, JournalOp,
    RepartitionRequest, Request, Response, Service, ServiceConfig, Verdict,
};
use rmts_taskmodel::{Task, TaskId, TaskSetDelta};
use std::path::PathBuf;
use std::time::Duration;

/// A self-cleaning temp dir per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("rmts_journal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Durability config that never checkpoints on its own — every test
/// controls its checkpoints explicitly unless it says otherwise.
fn quiet(dir: &TempDir) -> DurabilityConfig {
    DurabilityConfig::new(&dir.0)
        .with_snapshot_interval(Duration::from_secs(3600))
        .with_snapshot_every_mutations(u64::MAX)
}

fn base_request() -> AnalyzeRequest {
    AnalyzeRequest::new(
        vec![(1, 4), (2, 8), (2, 8), (4, 16), (3, 12)],
        2,
        AlgorithmSpec::RmTsLight,
    )
}

/// The scripted op stream both the control and the crashing service run:
/// two sessions, interleaved committed deltas, one session closed.
fn scripted_ops() -> Vec<Request> {
    vec![
        Request::Repartition(RepartitionRequest::open("alpha", base_request())),
        Request::Repartition(RepartitionRequest::open("beta", base_request())),
        Request::Repartition(RepartitionRequest::delta(
            "alpha",
            TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
        )),
        Request::Repartition(RepartitionRequest::delta(
            "beta",
            TaskSetDelta::remove(TaskId(4)),
        )),
        Request::Repartition(RepartitionRequest::delta(
            "alpha",
            TaskSetDelta::add(Task::from_ticks(7, 1, 16).unwrap()),
        )),
        Request::Repartition(RepartitionRequest::open("gamma", base_request())),
        Request::Repartition(RepartitionRequest::close("gamma")),
    ]
}

/// A loaded fleet's stream: 16 sessions opened on generated sets of 16–23
/// tasks, then 8 rounds of a committed WCET change to each, with a v1
/// analysis of another generated set after every round.
fn loaded_ops() -> Vec<Request> {
    let set = |trial: u64| {
        let pairs = GenConfig::new(16 + (trial % 8) as usize, 0.55 * 4.0)
            .with_periods(PeriodGen::LogUniform {
                min: 10_000,
                max: 1_000_000,
                granularity: 10_000,
            })
            .with_utilization(UtilizationSpec::capped(0.5))
            .generate(&mut trial_rng(0x5EC0, trial))
            .expect("generator")
            .tasks()
            .iter()
            .map(|t| (t.wcet.ticks(), t.period.ticks()))
            .collect();
        AnalyzeRequest::new(pairs, 4, AlgorithmSpec::RmTsLight)
    };
    let bases: Vec<AnalyzeRequest> = (0..16).map(set).collect();
    let mut ops: Vec<Request> = bases
        .iter()
        .enumerate()
        .map(|(i, base)| {
            Request::Repartition(RepartitionRequest::open(format!("s{i:02}"), base.clone()))
        })
        .collect();
    for round in 0..8u64 {
        for (i, base) in bases.iter().enumerate() {
            // Task 0's WCET goes up by one tick and back, a change each time.
            let (wcet, period) = base.taskset[0];
            let task = Task::from_ticks(0, wcet + (1 - round % 2), period).unwrap();
            ops.push(Request::Repartition(RepartitionRequest::delta(
                format!("s{i:02}"),
                TaskSetDelta::update(task),
            )));
        }
        ops.push(Request::Analyze(set(0x1000 + round)));
    }
    ops
}

fn assert_all_served(responses: &[Response]) {
    for r in responses {
        assert!(
            matches!(r.outcome.verdict, Verdict::Accepted { .. }),
            "scripted op must be accepted: {:?}",
            r.outcome
        );
    }
}

// ------------------------------------------------------------ write-ahead

#[test]
fn acknowledged_ops_are_in_the_journal() {
    let dir = TempDir::new("wal");
    let (svc, rec) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&dir)).unwrap();
    assert_eq!(rec.generation, 0);
    assert!(rec.journal.missing, "first boot is a clean cold start");
    let responses = svc.run_stream(scripted_ops());
    assert_all_served(&responses);

    // Every response has been received — write-ahead means every one of
    // those ops is already on disk, committed Open/Delta/Close alike.
    let path = dir.0.join("journal.g0.log");
    let (ops, report) = read_journal(&path, &engine_fingerprint());
    assert!(!report.corrupt && !report.stale && !report.missing);
    let names = |n: &str| ops.iter().filter(|o| o.session() == n).count();
    assert_eq!(names("alpha"), 3, "open + two committed deltas: {ops:?}");
    assert_eq!(names("beta"), 2, "open + one committed delta");
    assert_eq!(names("gamma"), 2, "open + close");
    assert!(matches!(
        ops.iter().rfind(|o| o.session() == "gamma"),
        Some(JournalOp::Close { .. })
    ));

    // Noop deltas and invalid ops are not mutations: nothing new lands.
    let before = ops.len();
    let responses = svc.run_stream(vec![
        Request::Repartition(RepartitionRequest::delta("alpha", TaskSetDelta::empty())),
        Request::Repartition(RepartitionRequest::delta("ghost", TaskSetDelta::empty())),
    ]);
    assert_eq!(responses.len(), 2);
    let (ops, _) = read_journal(&path, &engine_fingerprint());
    assert_eq!(ops.len(), before, "noop/rejected ops must not be journaled");
    drop(svc);
}

// ------------------------------------------------- crash -> replay oracle

/// Runs `reqs` against a durable service in `dir`, optionally
/// checkpointing after `checkpoint_after` ops, then simulates a crash
/// (drop without shutdown: no final checkpoint is written — exactly what
/// SIGKILL leaves behind, since appends are already in the file).
fn run_and_crash(
    dir: &TempDir,
    shards: usize,
    reqs: Vec<Request>,
    checkpoint_after: Option<usize>,
) {
    let (svc, _) =
        Service::with_durability(ServiceConfig::new().with_shards(shards), quiet(dir)).unwrap();
    match checkpoint_after {
        Some(k) => {
            let mut reqs = reqs;
            let rest = reqs.split_off(k);
            assert_all_served(&svc.run_stream(reqs));
            svc.checkpoint().unwrap().expect("live fleet checkpoints");
            assert_all_served(&svc.run_stream(rest));
        }
        None => assert_all_served(&svc.run_stream(reqs)),
    }
    drop(svc); // the "crash": no shutdown checkpoint, journal left as-is
}

/// The fleet digest of a freshly recovered (or control) service.
fn digest_of(dir: &TempDir, shards: usize) -> (u64, rmts_svc::RecoveryReport) {
    let (svc, rec) =
        Service::with_durability(ServiceConfig::new().with_shards(shards), quiet(dir)).unwrap();
    let report = svc
        .checkpoint()
        .unwrap()
        .expect("recovered fleet checkpoints");
    (report.sessions_digest, rec)
}

#[test]
fn recovery_rebuilds_sessions_bit_identically() {
    // Control: the same op stream, graceful all the way through.
    let control_dir = TempDir::new("control");
    let (control, _) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&control_dir)).unwrap();
    assert_all_served(&control.run_stream(scripted_ops()));
    let control_digest = control
        .checkpoint()
        .unwrap()
        .expect("control checkpoints")
        .sessions_digest;

    // Crash with no checkpoint: every session lives only in the journal.
    let crash_dir = TempDir::new("crash_cold");
    run_and_crash(&crash_dir, 2, scripted_ops(), None);
    let (digest, rec) = digest_of(&crash_dir, 3);
    assert_eq!(rec.sessions_recovered, 2, "{rec:?}");
    assert_eq!(rec.sessions_failed, 0, "{rec:?}");
    assert_eq!(
        digest, control_digest,
        "journal replay must rebuild the exact pre-crash fleet"
    );

    // Crash after a mid-stream checkpoint: recovery = compacted prefix +
    // appended suffix. Same fleet, same digest.
    let crash_dir = TempDir::new("crash_warm");
    run_and_crash(&crash_dir, 2, scripted_ops(), Some(4));
    let (digest, rec) = digest_of(&crash_dir, 3);
    assert_eq!(rec.generation, 1, "{rec:?}");
    assert_eq!(rec.sessions_recovered, 2, "{rec:?}");
    assert_eq!(digest, control_digest);

    // A loaded fleet on 8 shards, v1 analyses mixed in, crashed with no
    // checkpoint: every session comes back, bit-identical to a control.
    let control_dir = TempDir::new("loaded_control");
    let (control, _) =
        Service::with_durability(ServiceConfig::new().with_shards(8), quiet(&control_dir)).unwrap();
    assert_all_served(&control.run_stream(loaded_ops()));
    let control_digest = control
        .checkpoint()
        .unwrap()
        .expect("control checkpoints")
        .sessions_digest;
    let crash_dir = TempDir::new("loaded_crash");
    run_and_crash(&crash_dir, 8, loaded_ops(), None);
    let (digest, rec) = digest_of(&crash_dir, 8);
    assert_eq!(rec.sessions_recovered, 16, "{rec:?}");
    assert_eq!(rec.sessions_failed, 0, "{rec:?}");
    assert!(!rec.journal.corrupt, "{rec:?}");
    assert_eq!(digest, control_digest);
}

#[test]
fn recovered_sessions_answer_the_next_delta_identically() {
    let probe = TaskSetDelta::update(Task::from_ticks(0, 2, 8).unwrap());

    let control_dir = TempDir::new("probe_control");
    let (control, _) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&control_dir)).unwrap();
    assert_all_served(&control.run_stream(scripted_ops()));
    let expected = control.run_stream(vec![Request::Repartition(RepartitionRequest::delta(
        "alpha",
        probe.clone(),
    ))]);

    let crash_dir = TempDir::new("probe_crash");
    run_and_crash(&crash_dir, 2, scripted_ops(), None);
    let (svc, rec) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&crash_dir)).unwrap();
    assert_eq!(rec.sessions_recovered, 2);
    let got = svc.run_stream(vec![Request::Repartition(RepartitionRequest::delta(
        "alpha", probe,
    ))]);

    // The surviving client's next delta answers exactly as if the crash
    // never happened: same path taken, same outcome, field for field.
    let (e, g) = (&expected[0], &got[0]);
    assert_eq!(
        e.session.as_ref().unwrap().path,
        g.session.as_ref().unwrap().path
    );
    assert_eq!(*e.outcome, *g.outcome);
}

#[test]
fn closed_sessions_do_not_resurrect() {
    let dir = TempDir::new("no_resurrection");
    run_and_crash(
        &dir,
        2,
        vec![
            Request::Repartition(RepartitionRequest::open("alpha", base_request())),
            Request::Repartition(RepartitionRequest::close("alpha")),
        ],
        None,
    );
    let (svc, rec) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&dir)).unwrap();
    assert_eq!(rec.ops_replayed, 2);
    assert_eq!(rec.sessions_recovered, 0, "{rec:?}");
    let responses = svc.run_stream(vec![Request::Repartition(RepartitionRequest::delta(
        "alpha",
        TaskSetDelta::empty(),
    ))]);
    assert!(
        matches!(
            responses[0].outcome.verdict,
            Verdict::Invalid { ref reason } if reason.contains("unknown session")
        ),
        "a closed session must stay closed across recovery: {:?}",
        responses[0].outcome
    );
}

#[test]
fn recovery_replays_only_the_live_tail() {
    // `a` opens, commits, closes, re-opens and commits again; `b` opens
    // and closes. Only `a`'s ops from its re-open onwards survive a
    // checkpoint, and only they are replayed.
    let history = [
        Request::Repartition(RepartitionRequest::open("a", base_request())),
        Request::Repartition(RepartitionRequest::delta(
            "a",
            TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
        )),
        Request::Repartition(RepartitionRequest::open("b", base_request())),
        Request::Repartition(RepartitionRequest::delta(
            "a",
            TaskSetDelta::add(Task::from_ticks(7, 1, 16).unwrap()),
        )),
        Request::Repartition(RepartitionRequest::close("a")),
        Request::Repartition(RepartitionRequest::close("b")),
    ];
    let live_tail = vec![
        Request::Repartition(RepartitionRequest::open("a", base_request())),
        Request::Repartition(RepartitionRequest::delta(
            "a",
            TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
        )),
        Request::Repartition(RepartitionRequest::delta(
            "a",
            TaskSetDelta::remove(TaskId(4)),
        )),
    ];
    let ops: Vec<Request> = history.iter().chain(&live_tail).cloned().collect();
    let probe = TaskSetDelta::update(Task::from_ticks(0, 2, 8).unwrap());

    let control_dir = TempDir::new("live_tail_control");
    let (control, _) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&control_dir)).unwrap();
    assert_all_served(&control.run_stream(ops.clone()));
    let expected = control.run_stream(vec![Request::Repartition(RepartitionRequest::delta(
        "a",
        probe.clone(),
    ))]);

    let dir = TempDir::new("live_tail");
    run_and_crash(&dir, 2, ops.clone(), None);
    let (journal, _) = read_journal(&dir.0.join("journal.g0.log"), &engine_fingerprint());
    assert_eq!(journal.len(), ops.len(), "every scripted op commits");
    let (svc, rec) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&dir)).unwrap();
    assert_eq!(rec.ops_replayed, journal.len(), "{rec:?}");
    assert_eq!(rec.sessions_recovered, 1, "{rec:?}");
    assert_eq!(rec.sessions_failed, 0, "{rec:?}");
    assert_eq!(
        svc.stats().completed,
        live_tail.len() as u64,
        "recovery must replay the live tail, not the whole journal"
    );

    let got = svc.run_stream(vec![Request::Repartition(RepartitionRequest::delta(
        "a", probe,
    ))]);
    let (e, g) = (&expected[0], &got[0]);
    assert_eq!(
        e.session.as_ref().unwrap().path,
        g.session.as_ref().unwrap().path
    );
    assert_eq!(*e.outcome, *g.outcome);
}

#[test]
fn memo_survives_a_checkpoint_and_loss_is_bounded_by_the_interval() {
    let dir = TempDir::new("memo_bound");
    let reqs: Vec<Request> = (2..8)
        .map(|k| {
            Request::Analyze(AnalyzeRequest::new(
                vec![(1, 4), (2, 8), (k, 8 * k)],
                2,
                AlgorithmSpec::RmTsLight,
            ))
        })
        .collect();
    {
        let (svc, _) =
            Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&dir)).unwrap();
        svc.run_stream(reqs.clone());
        assert_eq!(svc.stats().memo_misses, reqs.len() as u64);
        svc.checkpoint().unwrap().expect("checkpoint the memo");
        // Post-checkpoint work — this is the (at most) one interval of
        // memo the crash is allowed to lose.
        svc.run_stream(vec![Request::Analyze(AnalyzeRequest::new(
            vec![(5, 11), (7, 13)],
            2,
            AlgorithmSpec::RmTsLight,
        ))]);
        drop(svc); // crash
    }
    let (svc, rec) =
        Service::with_durability(ServiceConfig::new().with_shards(4), quiet(&dir)).unwrap();
    assert_eq!(rec.generation, 1);
    assert_eq!(rec.memo.records, reqs.len(), "{rec:?}");
    // Everything analyzed before the checkpoint answers from the memo.
    svc.run_stream(reqs.clone());
    assert_eq!(svc.stats().memo_hits, reqs.len() as u64);
    assert_eq!(svc.stats().memo_misses, 0);
}

#[test]
fn checkpoint_truncates_the_journal_and_drops_dead_weight() {
    let dir = TempDir::new("compaction");
    let (svc, _) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&dir)).unwrap();
    assert_all_served(&svc.run_stream(scripted_ops()));
    let g0 = dir.0.join("journal.g0.log");
    let (raw_ops, _) = read_journal(&g0, &engine_fingerprint());
    let report = svc.checkpoint().unwrap().unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.sessions, 2);

    // The compacted journal holds only live sessions: gamma (closed) is
    // gone, and the old generation's files are deleted.
    let g1 = dir.0.join("journal.g1.log");
    let (compacted, creport) = read_journal(&g1, &engine_fingerprint());
    assert!(compacted.len() < raw_ops.len());
    assert!(compacted.iter().all(|o| o.session() != "gamma"));
    assert!(creport.valid_bytes > 0);
    assert!(!g0.exists(), "older generations are removed at checkpoint");
    assert!(!dir.0.join("memo.g0.snap").exists());

    // A second checkpoint with nothing new still works and advances.
    let again = svc.checkpoint().unwrap().unwrap();
    assert_eq!(again.generation, 2);
    assert_eq!(again.sessions_digest, report.sessions_digest);
}

#[test]
fn checkpoint_removes_temp_files_orphaned_by_a_kill() {
    // A kill between a checkpoint's temp write and its rename leaves
    // `{memo,journal}.g{N}.tmp.{pid}` behind — megabytes each on a warm
    // memo. The next completed checkpoint must sweep them, whatever
    // generation or pid they carry.
    let dir = TempDir::new("orphans");
    let orphans = [
        "memo.g0.tmp.0",
        "journal.g0.tmp.0",
        "memo.g1.tmp.0",
        "journal.g1.tmp.0",
        "memo.g9.tmp.0",
        "journal.g9.tmp.0",
    ];
    for name in orphans {
        std::fs::write(dir.0.join(name), b"torn checkpoint").unwrap();
    }
    let (svc, _) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&dir)).unwrap();
    assert_all_served(&svc.run_stream(scripted_ops()));
    svc.run_stream(vec![Request::Analyze(AnalyzeRequest::new(
        vec![(1, 4), (2, 8)],
        2,
        AlgorithmSpec::RmTsLight,
    ))]);
    let report = svc.checkpoint().unwrap().expect("live fleet checkpoints");
    assert_eq!(report.generation, 1);
    for name in orphans {
        assert!(
            !dir.0.join(name).exists(),
            "{name} survived a completed checkpoint"
        );
    }

    // The generation the checkpoint wrote is intact and complete.
    let (entries, memo) = rmts_svc::read_snapshot(&dir.0.join("memo.g1.snap"));
    assert!(!memo.missing && !memo.stale && !memo.corrupt, "{memo:?}");
    assert_eq!(entries.len(), report.memo_entries);
    let (ops, journal) = read_journal(&dir.0.join("journal.g1.log"), &engine_fingerprint());
    assert!(
        !journal.missing && !journal.stale && !journal.corrupt,
        "{journal:?}"
    );
    assert_eq!(journal.valid_bytes, report.journal_bytes);
    assert_eq!(
        ops.iter()
            .filter(|o| matches!(o, JournalOp::Open { .. }))
            .count(),
        report.sessions
    );
    drop(svc);
    let (_, recovered) =
        Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&dir)).unwrap();
    assert_eq!(recovered.generation, 1);
    assert_eq!(recovered.sessions_recovered, 2, "{recovered:?}");
}

// ------------------------------------------------------- damage sweeps

#[test]
fn truncating_the_journal_at_every_offset_keeps_a_clean_prefix() {
    let fp = engine_fingerprint();
    let ops = vec![
        JournalOp::Open {
            session: "a".into(),
            base: base_request(),
        },
        JournalOp::Delta {
            session: "a".into(),
            delta: TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
        },
        JournalOp::Close {
            session: "a".into(),
        },
    ];
    let clean = journal_bytes(&fp, &ops).unwrap();
    for cut in 0..clean.len() {
        let (decoded, report) = read_journal_bytes(&clean[..cut], &fp);
        assert!(
            decoded.len() <= ops.len() && decoded == ops[..decoded.len()],
            "cut at {cut}: decoded {decoded:?}"
        );
        // A clean (unreported) read means the cut landed exactly on a
        // record boundary — indistinguishable from fewer appends, and
        // safe. Anything else must be flagged stale or corrupt.
        if !report.stale && !report.corrupt {
            assert_eq!(
                report.valid_bytes, cut,
                "unflagged damage at cut {cut}: {report:?}"
            );
        }
    }
}

#[test]
fn flipping_any_bit_never_yields_a_different_valid_record() {
    let fp = engine_fingerprint();
    let ops = vec![
        JournalOp::Open {
            session: "a".into(),
            base: base_request(),
        },
        JournalOp::Delta {
            session: "a".into(),
            delta: TaskSetDelta::remove(TaskId(2)),
        },
    ];
    let clean = journal_bytes(&fp, &ops).unwrap();
    for offset in 0..clean.len() {
        for bit in 0..8 {
            let mut damaged = clean.clone();
            damaged[offset] ^= 1 << bit;
            let (decoded, _) = read_journal_bytes(&damaged, &fp);
            assert!(
                decoded.len() <= ops.len() && decoded == ops[..decoded.len()],
                "flip bit {bit} at {offset}: decoded {decoded:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite 6: encode → mutate one byte → decode never yields a
    /// *different valid* record — only a (possibly empty) prefix of the
    /// originals.
    #[test]
    fn prop_single_byte_mutation_is_prefix_or_rejected(
        session_seed in 0u64..1_000,
        wcet in 1u64..6,
        period_mult in 2u64..9,
        offset_seed in 0u64..1_000_000,
        newbyte_seed in 0u64..256,
    ) {
        let newbyte = newbyte_seed as u8;
        let session = format!("s{session_seed}");
        let fp = engine_fingerprint();
        let ops = vec![
            JournalOp::Open {
                session: session.clone(),
                base: AnalyzeRequest::new(
                    vec![(wcet, wcet * period_mult), (2, 8)],
                    2,
                    AlgorithmSpec::RmTsLight,
                ),
            },
            JournalOp::Delta {
                session,
                delta: TaskSetDelta::update(
                    Task::from_ticks(0, wcet, wcet * period_mult).unwrap(),
                ),
            },
        ];
        let clean = journal_bytes(&fp, &ops).unwrap();
        let offset = (offset_seed % clean.len() as u64) as usize;
        prop_assume!(clean[offset] != newbyte);
        let mut damaged = clean;
        damaged[offset] = newbyte;
        let (decoded, _) = read_journal_bytes(&damaged, &fp);
        prop_assert!(
            decoded.len() <= ops.len() && decoded == ops[..decoded.len()],
            "mutate {offset} -> {newbyte:#04x}: decoded {decoded:?}"
        );
    }
}

// -------------------------------------------- shutdown vs checkpoint race

#[test]
fn shutdown_never_races_the_background_snapshot() {
    // Satellite 1 regression: a background checkpoint fires every few
    // milliseconds while shutdown_with_snapshot lands mid-interval. The
    // generation lock must serialize them — no torn files, no empty
    // snapshot overwriting a real one, across many iterations.
    for round in 0..8u32 {
        let dir = TempDir::new(&format!("race_{round}"));
        let dcfg = DurabilityConfig::new(&dir.0)
            .with_snapshot_interval(Duration::from_millis(2))
            .with_snapshot_every_mutations(1);
        let (svc, _) = Service::with_durability(ServiceConfig::new().with_shards(2), dcfg).unwrap();
        assert_all_served(&svc.run_stream(scripted_ops()));
        // Memo traffic too: sessions fill the journal, analyses fill the
        // memo — the final snapshot must carry the latter.
        svc.run_stream(vec![
            Request::Analyze(AnalyzeRequest::new(
                vec![(1, 4), (2, 8)],
                2,
                AlgorithmSpec::RmTsLight,
            )),
            Request::Analyze(AnalyzeRequest::new(
                vec![(1, 4), (3, 12)],
                2,
                AlgorithmSpec::RmTsLight,
            )),
        ]);
        // Give the scheduler a chance to be mid-checkpoint when stop lands.
        std::thread::sleep(Duration::from_millis(1 + (round as u64 % 4)));
        let snap_path = dir.0.join("final.snap");
        let report = svc.shutdown_with_snapshot(&snap_path).unwrap();
        assert!(
            report.entries > 0,
            "round {round}: drained memo must persist"
        );

        // Both the explicit snapshot and the final generation are intact.
        let (entries, sreport) = rmts_svc::read_snapshot(&snap_path);
        assert_eq!(entries.len(), report.entries, "round {round}: {sreport:?}");
        assert!(!sreport.corrupt && !sreport.stale);
        let (_, recovered) =
            Service::with_durability(ServiceConfig::new().with_shards(2), quiet(&dir)).unwrap();
        assert_eq!(
            recovered.sessions_recovered, 2,
            "round {round}: {recovered:?}"
        );
        assert_eq!(recovered.sessions_failed, 0);
        assert!(!recovered.journal.corrupt);

        // A second shutdown is a no-op that does not clobber the snapshot.
        let second = svc.shutdown_with_snapshot(&snap_path).unwrap();
        assert_eq!(second.entries, 0);
        let (entries_after, _) = rmts_svc::read_snapshot(&snap_path);
        assert_eq!(entries_after.len(), entries.len());
    }
}
