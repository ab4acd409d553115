//! Snapshot battery: the corruption matrix (truncated file, flipped
//! checksum byte, wrong build fingerprint, empty file), the shutdown
//! drain barrier, and property tests pinning down round-trip fidelity
//! and single-byte damage.
//!
//! The invariant throughout: a damaged snapshot degrades to a **cold but
//! working** memo — restore counters tell the story, and no damaged byte
//! is ever trusted into an answer.

use proptest::prelude::*;
use rmts_core::{AlgorithmSpec, Exactness};
use rmts_svc::snapshot::{
    read_snapshot, read_snapshot_bytes, snapshot_bytes, write_snapshot, write_snapshot_as,
};
use rmts_svc::{
    engine_fingerprint, AnalysisOutcome, AnalyzeRequest, MemoEntry, Request, Response, Service,
    ServiceConfig, Verdict,
};
use std::path::{Path, PathBuf};

/// Serves v1 requests as one stream.
fn analyze(svc: &Service, reqs: Vec<AnalyzeRequest>) -> Vec<Response> {
    svc.run_stream(reqs.into_iter().map(Request::Analyze).collect())
}

/// A self-cleaning temp dir per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("rmts_snapshot_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn entry(pairs: Vec<(u64, u64)>, m: usize, tag: &str) -> MemoEntry {
    MemoEntry {
        outcome: AnalysisOutcome {
            algorithm: format!("RM-TS/light#{tag}"),
            m,
            verdict: Verdict::Accepted {
                processors_used: m,
                splits: vec![],
                exactness: Exactness::Exact,
            },
        },
        engine: format!("engine-{tag}"),
        m,
        pairs,
    }
}

fn demo_entries() -> Vec<MemoEntry> {
    vec![
        entry(vec![(1, 4), (2, 8)], 2, "a"),
        entry(vec![(1, 4), (2, 8), (4, 16)], 2, "b"),
        entry(vec![(3, 9), (6, 18)], 4, "c"),
    ]
}

/// Boots a service from `path` and proves it *works* cold: a real request
/// analyzes fresh and answers correctly.
fn assert_cold_but_working(path: &Path) -> rmts_svc::RecordReport {
    let (svc, report) = Service::with_restored(ServiceConfig::new().with_shards(2), path);
    let responses = analyze(
        &svc,
        vec![AnalyzeRequest::new(
            vec![(1, 4), (2, 8), (2, 8), (4, 16)],
            2,
            AlgorithmSpec::RmTsLight,
        )],
    );
    assert!(
        matches!(responses[0].outcome.verdict, Verdict::Accepted { .. }),
        "service must keep answering after snapshot damage"
    );
    report
}

// ---------------------------------------------------------------- matrix

#[test]
fn truncated_snapshot_keeps_the_verified_prefix() {
    let dir = TempDir::new("truncated");
    let path = dir.file("memo.snap");
    write_snapshot(&path, &demo_entries()).unwrap();
    let full = std::fs::read(&path).unwrap();
    // Cut into the last record's payload: records 1–2 verify, the torn
    // tail must be discarded.
    std::fs::write(&path, &full[..full.len() - 10]).unwrap();

    let (entries, report) = read_snapshot(&path);
    assert!(report.corrupt, "truncation is detected, not ignored");
    assert!(!report.stale && !report.missing);
    assert_eq!(report.records, 2, "the verified prefix survives");
    assert_eq!(entries, demo_entries()[..2]);

    let report = assert_cold_but_working(&path);
    assert!(report.corrupt && report.records == 2);
}

#[test]
fn every_truncation_point_is_safe() {
    // Exhaustive torn-write sweep: a snapshot cut at *any* byte boundary
    // must restore without panic, without trusting damage, and with a
    // correct report (prefix entries only, corrupt or stale flagged).
    let dir = TempDir::new("sweep");
    let path = dir.file("memo.snap");
    write_snapshot(&path, &demo_entries()).unwrap();
    let full = std::fs::read(&path).unwrap();
    // Record boundaries (cuts exactly there are valid shorter snapshots:
    // fewer entries, no damage flag): header end, then each record end.
    let fp_len = u32::from_le_bytes(full[8..12].try_into().unwrap()) as usize;
    let mut boundaries = vec![12 + fp_len];
    let mut at = 12 + fp_len;
    while at < full.len() {
        let payload = u32::from_le_bytes(full[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + 8 + payload;
        boundaries.push(at);
    }
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let (entries, report) = read_snapshot(&path);
        if boundaries.contains(&cut) {
            assert!(
                !report.stale && !report.corrupt,
                "cut at {cut} is a record boundary — a clean shorter snapshot (got {report:?})"
            );
        } else {
            assert!(
                report.stale || report.corrupt,
                "cut at {cut}: damage must be flagged (got {report:?})"
            );
        }
        assert!(entries.len() <= 3);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(
                *e,
                demo_entries()[i],
                "cut at {cut}: entry {i} corrupted silently"
            );
        }
    }
}

#[test]
fn flipped_checksum_byte_invalidates_exactly_the_damaged_record() {
    let dir = TempDir::new("bitflip");
    let path = dir.file("memo.snap");
    write_snapshot(&path, &demo_entries()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one byte inside the *second* record's checksum field. Header:
    // 8 magic + 4 fp_len + fp. Record 1 starts after that.
    let fp_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let rec1_start = 12 + fp_len;
    let rec1_payload =
        u32::from_le_bytes(bytes[rec1_start..rec1_start + 4].try_into().unwrap()) as usize;
    let rec2_start = rec1_start + 4 + 8 + rec1_payload;
    bytes[rec2_start + 4] ^= 0x40; // a checksum byte of record 2
    std::fs::write(&path, &bytes).unwrap();

    let (entries, report) = read_snapshot(&path);
    assert!(report.corrupt);
    assert_eq!(
        report.records, 1,
        "record 1 verifies, damage stops the read"
    );
    assert_eq!(entries, demo_entries()[..1]);
    assert_cold_but_working(&path);
}

#[test]
fn flipped_payload_byte_never_smuggles_a_wrong_answer() {
    let dir = TempDir::new("payload_flip");
    let path = dir.file("memo.snap");
    write_snapshot(&path, &demo_entries()).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let fp_len = u32::from_le_bytes(pristine[8..12].try_into().unwrap()) as usize;
    let body_start = 12 + fp_len;
    // Flip every body byte in turn: each flip must either leave the
    // restored entries a *prefix of the truth* (checksum catches it) —
    // never a silently altered entry.
    let truth = demo_entries();
    for at in body_start..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (entries, _) = read_snapshot(&path);
        for e in &entries {
            assert!(
                truth.contains(e),
                "flip at byte {at} produced a fabricated entry: {e:?}"
            );
        }
    }
}

#[test]
fn wrong_fingerprint_rejects_the_file_wholesale() {
    let dir = TempDir::new("stale");
    let path = dir.file("memo.snap");
    write_snapshot_as(&path, "rmts-engine/0.0.0-other/memo-fmt1", &demo_entries()).unwrap();
    let (entries, report) = read_snapshot(&path);
    assert!(report.stale && !report.corrupt);
    assert_eq!(report.records, 0);
    assert!(
        entries.is_empty(),
        "nothing from a stale snapshot is trusted"
    );
    let report = assert_cold_but_working(&path);
    assert!(report.stale);
}

#[test]
fn empty_file_is_cold_but_working() {
    let dir = TempDir::new("empty");
    let path = dir.file("memo.snap");
    std::fs::write(&path, b"").unwrap();
    let (entries, report) = read_snapshot(&path);
    assert!(entries.is_empty());
    assert!(report.stale, "an empty file has no valid header");
    assert_cold_but_working(&path);
}

#[test]
fn garbage_file_is_cold_but_working() {
    let dir = TempDir::new("garbage");
    let path = dir.file("memo.snap");
    std::fs::write(&path, vec![0xA5u8; 4096]).unwrap();
    let (entries, report) = read_snapshot(&path);
    assert!(entries.is_empty());
    assert!(report.stale, "wrong magic rejects the file wholesale");
    assert_cold_but_working(&path);
}

#[test]
fn restore_counters_reach_the_obs_recording() {
    let dir = TempDir::new("counters");
    let path = dir.file("memo.snap");
    write_snapshot(&path, &demo_entries()).unwrap();
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 10]).unwrap();

    let rec = rmts_obs::Recording::start();
    let (_svc, _) = Service::with_restored(ServiceConfig::default(), &path);
    let snap = rec.finish();
    assert_eq!(snap.counter("svc.memo.restored"), 2);
    assert_eq!(snap.counter("svc.memo.corrupt"), 1);
    assert_eq!(snap.counter("svc.memo.stale"), 0);

    let rec = rmts_obs::Recording::start();
    write_snapshot_as(&path, "foreign/fingerprint", &demo_entries()).unwrap();
    let (_svc, _) = Service::with_restored(ServiceConfig::default(), &path);
    let snap = rec.finish();
    assert_eq!(snap.counter("svc.memo.restored"), 0);
    assert_eq!(snap.counter("svc.memo.stale"), 1);
}

// ---------------------------------------------------------- drain barrier

#[test]
fn no_accepted_request_is_lost_between_shutdown_and_snapshot() {
    // Submit a burst and *immediately* shut down with a snapshot — no
    // waiting on tickets first. The drain barrier guarantees every
    // accepted request is analyzed, answered, and present in the file.
    let dir = TempDir::new("drain");
    let path = dir.file("memo.snap");
    let svc = Service::new(ServiceConfig::new().with_shards(3));
    let reqs: Vec<AnalyzeRequest> = (1..=24)
        .map(|k| {
            AnalyzeRequest::new(
                vec![(1, 4 * k), (2, 8 * k), (3, 12 * k)],
                2,
                AlgorithmSpec::RmTsLight,
            )
        })
        .collect();
    let tickets: Vec<_> = reqs.iter().map(|r| svc.submit(r.clone())).collect();
    let written = svc.shutdown_with_snapshot(&path).unwrap();
    assert_eq!(
        written.entries, 24,
        "all 24 distinct canonical sets must be in the snapshot"
    );
    // Every ticket still resolves: accepted requests were answered, not
    // abandoned, even though shutdown raced their analysis.
    for (i, t) in tickets.into_iter().enumerate() {
        let resp = t.wait();
        assert!(
            matches!(resp.outcome.verdict, Verdict::Accepted { .. }),
            "request {i} lost its answer to shutdown"
        );
    }
    // And the snapshot answers for all of them on the next life.
    let (svc, report) = Service::with_restored(ServiceConfig::new().with_shards(3), &path);
    assert_eq!(report.records, 24);
    let responses = analyze(&svc, reqs);
    assert!(
        responses.iter().all(|r| r.memo_hit),
        "warm start must hit for every request"
    );
}

#[test]
fn snapshot_bytes_are_deterministic_across_shard_counts() {
    // The globally sorted drain makes the snapshot a pure function of the
    // memo *contents* — shard topology must not leak into the bytes.
    let dir = TempDir::new("deterministic");
    let reqs: Vec<AnalyzeRequest> = (1..=8)
        .map(|k| AnalyzeRequest::new(vec![(1, 4 * k), (2, 8 * k)], 2, AlgorithmSpec::RmTsLight))
        .collect();
    let mut images = Vec::new();
    for shards in [1, 2, 5] {
        let path = dir.file(&format!("memo_{shards}.snap"));
        let svc = Service::new(ServiceConfig::new().with_shards(shards));
        analyze(&svc, reqs.clone());
        svc.shutdown_with_snapshot(&path).unwrap();
        images.push(std::fs::read(&path).unwrap());
    }
    assert_eq!(
        images[0], images[1],
        "1-shard vs 2-shard snapshot bytes differ"
    );
    assert_eq!(
        images[0], images[2],
        "1-shard vs 5-shard snapshot bytes differ"
    );
}

// ------------------------------------------------------------ properties

/// Strategy: a small arbitrary memo entry — the vendored proptest has no
/// string strategies, so fingerprints and reasons derive from integer
/// seeds (which still shrink), and the verdict shape alternates by seed.
fn arb_entry() -> impl Strategy<Value = MemoEntry> {
    (
        proptest::collection::vec((1u64..1_000, 1u64..1_000), 1..8),
        1usize..8,
        0u64..10_000,
        proptest::collection::vec(0u32..16, 0..4),
    )
        .prop_map(|(raw_pairs, m, seed, splits)| {
            let verdict = if seed % 3 == 0 {
                Verdict::Invalid {
                    reason: format!("prop-reason-{seed} with \"quotes\" and \\slashes"),
                }
            } else {
                Verdict::Accepted {
                    processors_used: 1 + (seed as usize % 7),
                    splits,
                    exactness: Exactness::Exact,
                }
            };
            MemoEntry {
                pairs: raw_pairs.into_iter().map(|(c, t)| (c.min(t), t)).collect(),
                m,
                engine: format!("engine-{}", seed % 17),
                outcome: AnalysisOutcome {
                    algorithm: "prop".into(),
                    m,
                    verdict,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// snapshot → restore is the identity on arbitrary entry lists —
    /// order, pairs, fingerprints, and outcomes all byte-preserved.
    #[test]
    fn snapshot_restore_round_trips(entries in proptest::collection::vec(arb_entry(), 0..12)) {
        let dir = TempDir::new(&format!("prop_{:x}", std::process::id() as u64 ^ entries.len() as u64));
        let path = dir.file("memo.snap");
        write_snapshot(&path, &entries).unwrap();
        let (restored, report) = read_snapshot(&path);
        prop_assert_eq!(&restored, &entries);
        prop_assert_eq!(report.records, entries.len());
        prop_assert!(!report.stale && !report.corrupt && !report.missing);
    }

    /// Replacing any one byte of a snapshot image, header included,
    /// never yields a *different valid* entry — only a (possibly empty)
    /// prefix of the originals, as for the journal on the same framing.
    #[test]
    fn prop_single_byte_mutation_is_prefix_or_rejected(
        entries in proptest::collection::vec(arb_entry(), 1..6),
        offset_seed in 0u64..1_000_000,
        newbyte_seed in 0u64..256,
    ) {
        let fp = engine_fingerprint();
        let clean = snapshot_bytes(&fp, &entries).unwrap();
        let offset = (offset_seed % clean.len() as u64) as usize;
        let newbyte = newbyte_seed as u8;
        prop_assume!(clean[offset] != newbyte);
        let mut damaged = clean;
        damaged[offset] = newbyte;
        let (decoded, _) = read_snapshot_bytes(&damaged, &fp);
        prop_assert!(
            decoded.len() <= entries.len() && decoded == entries[..decoded.len()],
            "mutate {offset} -> {newbyte:#04x}: decoded {decoded:?}"
        );
    }

    /// A memo hit served from a restored snapshot is bit-identical to a
    /// fresh analysis of the same request on a cold service.
    #[test]
    fn restored_hits_equal_fresh_analysis(seed in 1u64..500, n in 2usize..6) {
        let pairs: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let t = 4 * (1 + (seed + i as u64) % 16);
                (1 + (seed * 7 + i as u64) % (t / 2), t)
            })
            .collect();
        let req = AnalyzeRequest::new(pairs, 2, AlgorithmSpec::RmTsLight);

        let dir = TempDir::new(&format!("prop_hit_{seed}_{n}"));
        let path = dir.file("memo.snap");
        let first = Service::new(ServiceConfig::new().with_shards(2));
        let fresh = analyze(&first, vec![req.clone()]);
        first.shutdown_with_snapshot(&path).unwrap();

        let (second, report) = Service::with_restored(ServiceConfig::new().with_shards(2), &path);
        prop_assert_eq!(report.records, 1);
        let warm = analyze(&second, vec![req]);
        prop_assert!(warm[0].memo_hit, "restored entry must answer the duplicate");
        prop_assert_eq!(&warm[0].outcome, &fresh[0].outcome);
        prop_assert_eq!(warm[0].canonical_hash, fresh[0].canonical_hash);
    }
}
