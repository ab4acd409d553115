//! The memo snapshot: the memo-entry payload codec of the `RMTSMEM1`
//! record file.
//!
//! A [`Service`](crate::Service) accumulates per-shard memo tables
//! mapping `(canonical pairs, m, engine fingerprint)` to analysis
//! outcomes. Restarting the process discards them — and with them the
//! duplicate-heavy speedup the memo produces. This module makes the memo
//! durable: [`write_snapshot`] serializes every entry to a single file,
//! and [`read_snapshot`] restores them on startup so a restarted server
//! answers warm from the first request.
//!
//! The file is a [record file](crate::record) with magic `RMTSMEM1`: the
//! header, the record framing, the verified-prefix trust policy and the
//! atomic write live there. Each record's payload is one memo entry (all
//! integers little-endian):
//!
//! ```text
//! engine_len  u32          per-entry engine fingerprint length
//! engine      engine_len   algorithm|policy|budget|degrade|n (utf-8)
//! m           u64          processor count of the memoized question
//! n_pairs     u32          number of canonical (wcet, period) pairs
//! pairs       n_pairs×16   canonical pairs, (wcet u64, period u64) each
//! outcome_len u32          serialized outcome length
//! outcome     outcome_len  AnalysisOutcome as JSON (utf-8)
//! ```
//!
//! Every entry carries **both** fingerprints: the header's build
//! fingerprint gates the whole file (a snapshot written by a differently
//! versioned engine is *stale* and ignored wholesale), and the per-entry
//! engine fingerprint is part of the memo key itself (so even within one
//! build, an entry can only ever answer for the exact engine
//! configuration that produced it). A payload that does not decode
//! exactly — wrong lengths, non-utf-8 fingerprint, unparsable outcome,
//! trailing bytes — stops the read like a failed checksum.
//!
//! A snapshot is an optimization, never an authority: the worst possible
//! outcome of a damaged snapshot is a *cold* memo — never a wrong answer.

use crate::record::{self, Cursor, RecordReport};
use crate::request::AnalysisOutcome;
use std::io;
use std::path::Path;

/// Leading magic of a memo snapshot file (the `1` is the format version).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RMTSMEM1";

/// The build fingerprint stamped into snapshot headers. Snapshots written
/// by a different engine build are rejected as stale — analysis outcomes
/// are only portable between identically versioned engines.
pub fn engine_fingerprint() -> String {
    format!("rmts-engine/{}/memo-fmt1", env!("CARGO_PKG_VERSION"))
}

/// One memoized analysis: the full memo key plus the stored outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoEntry {
    /// Canonical `(wcet, period)` pairs — the exact-equality key material.
    pub pairs: Vec<(u64, u64)>,
    /// Processor count the question was asked for.
    pub m: usize,
    /// Per-entry engine fingerprint (algorithm, policy, budget, degrade,
    /// set size) — the third memo-key component.
    pub engine: String,
    /// The memoized answer.
    pub outcome: AnalysisOutcome,
}

/// What [`write_snapshot`] persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Entries written.
    pub entries: usize,
    /// Total file size in bytes.
    pub bytes: usize,
}

/// Serializes one entry's record payload.
fn encode_payload(entry: &MemoEntry) -> io::Result<Vec<u8>> {
    let outcome = serde_json::to_string(&entry.outcome).map_err(io::Error::other)?;
    let mut p =
        Vec::with_capacity(64 + entry.engine.len() + 16 * entry.pairs.len() + outcome.len());
    p.extend_from_slice(&(entry.engine.len() as u32).to_le_bytes());
    p.extend_from_slice(entry.engine.as_bytes());
    p.extend_from_slice(&(entry.m as u64).to_le_bytes());
    p.extend_from_slice(&(entry.pairs.len() as u32).to_le_bytes());
    for &(c, t) in &entry.pairs {
        p.extend_from_slice(&c.to_le_bytes());
        p.extend_from_slice(&t.to_le_bytes());
    }
    p.extend_from_slice(&(outcome.len() as u32).to_le_bytes());
    p.extend_from_slice(outcome.as_bytes());
    Ok(p)
}

/// Decodes one record payload into an entry. `None` means the payload is
/// malformed (wrong lengths, non-utf8 fingerprint, unparsable outcome).
fn decode_payload(payload: &[u8]) -> Option<MemoEntry> {
    let mut c = Cursor::new(payload);
    let engine_len = c.u32()? as usize;
    let engine = std::str::from_utf8(c.take(engine_len)?).ok()?.to_string();
    let m = usize::try_from(c.u64()?).ok()?;
    let n_pairs = c.u32()? as usize;
    // 16 bytes per pair must fit in the remaining payload — checked before
    // the allocation, so a corrupt count cannot balloon memory.
    if n_pairs.checked_mul(16)? > c.remaining() {
        return None;
    }
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let wcet = c.u64()?;
        let period = c.u64()?;
        pairs.push((wcet, period));
    }
    let outcome_len = c.u32()? as usize;
    let outcome_json = std::str::from_utf8(c.take(outcome_len)?).ok()?;
    let outcome: AnalysisOutcome = serde_json::from_str(outcome_json).ok()?;
    if !c.done() {
        return None; // trailing garbage inside a checksummed record
    }
    Some(MemoEntry {
        pairs,
        m,
        engine,
        outcome,
    })
}

/// Serializes a whole snapshot (header + one record per entry) to bytes.
pub fn snapshot_bytes(fingerprint: &str, entries: &[MemoEntry]) -> io::Result<Vec<u8>> {
    let mut buf = record::header(SNAPSHOT_MAGIC, fingerprint);
    for entry in entries {
        record::push_record(&mut buf, &encode_payload(entry)?);
    }
    Ok(buf)
}

/// Parses snapshot bytes, verifying the fingerprint and every record
/// (trust policy in [`crate::record`]). Never fails — damage degrades to
/// a shorter verified prefix.
pub fn read_snapshot_bytes(data: &[u8], fingerprint: &str) -> (Vec<MemoEntry>, RecordReport) {
    record::read_bytes(data, SNAPSHOT_MAGIC, fingerprint, decode_payload)
}

/// Writes a snapshot atomically (temp file + fsync + rename): a crash at
/// any point leaves either the old snapshot or the new one, never a torn
/// file at `path`.
pub fn write_snapshot(path: &Path, entries: &[MemoEntry]) -> io::Result<SnapshotReport> {
    write_snapshot_as(path, &engine_fingerprint(), entries)
}

/// [`write_snapshot`] with an explicit build fingerprint — the test seam
/// for proving stale-snapshot rejection.
pub fn write_snapshot_as(
    path: &Path,
    fingerprint: &str,
    entries: &[MemoEntry],
) -> io::Result<SnapshotReport> {
    let bytes = snapshot_bytes(fingerprint, entries)?;
    record::write_atomic(path, &bytes)?;
    Ok(SnapshotReport {
        entries: entries.len(),
        bytes: bytes.len(),
    })
}

/// Reads a snapshot back, verifying the build fingerprint and every
/// record checksum. The return is always usable — damage degrades to a
/// (partially) cold memo.
pub fn read_snapshot(path: &Path) -> (Vec<MemoEntry>, RecordReport) {
    read_snapshot_as(path, &engine_fingerprint())
}

/// [`read_snapshot`] against an explicit expected fingerprint.
pub fn read_snapshot_as(path: &Path, fingerprint: &str) -> (Vec<MemoEntry>, RecordReport) {
    record::read_file(path, |data| read_snapshot_bytes(data, fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Verdict;
    use rmts_core::Exactness;

    fn demo_entry(m: usize) -> MemoEntry {
        MemoEntry {
            pairs: vec![(1, 4), (2, 8), (4, 16)],
            m,
            engine: "RmTsLight|None|unlimited|false|3".to_string(),
            outcome: AnalysisOutcome {
                algorithm: "RM-TS/light".into(),
                m,
                verdict: Verdict::Accepted {
                    processors_used: m,
                    splits: vec![1],
                    exactness: Exactness::Exact,
                },
            },
        }
    }

    #[test]
    fn round_trips_entries_bit_identically() {
        let dir = std::env::temp_dir().join(format!("rmts_snap_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.snap");
        let entries = vec![demo_entry(2), demo_entry(4)];
        let written = write_snapshot(&path, &entries).unwrap();
        assert_eq!(written.entries, 2);
        let (restored, report) = read_snapshot(&path);
        assert_eq!(restored, entries);
        assert_eq!(
            report,
            RecordReport {
                records: 2,
                valid_bytes: written.bytes,
                ..RecordReport::default()
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_cold_start() {
        let (entries, report) = read_snapshot(Path::new("/nonexistent/rmts/memo.snap"));
        assert!(entries.is_empty());
        assert!(report.missing && !report.stale && !report.corrupt);
    }

    #[test]
    fn foreign_fingerprint_is_stale_not_trusted() {
        let dir = std::env::temp_dir().join(format!("rmts_snap_fp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.snap");
        write_snapshot_as(&path, "rmts-engine/9.9.9/memo-fmt1", &[demo_entry(2)]).unwrap();
        let (entries, report) = read_snapshot(&path);
        assert!(entries.is_empty());
        assert!(report.stale && report.records == 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The snapshot image of `demo_entry(2), demo_entry(4)` under the
    /// fingerprint `rmts-engine/pinned/memo-fmt1`, as written by the
    /// format's first release. A change here strands every snapshot
    /// already on disk.
    const PINNED_SNAPSHOT: &str = concat!(
        "524d54534d454d311c000000726d74732d656e67696e652f70696e6e65642f6d",
        "656d6f2d666d7431d3000000c1ab06465d5ecb6920000000526d54734c696768",
        "747c4e6f6e657c756e6c696d697465647c66616c73657c330200000000000000",
        "0300000001000000000000000400000000000000020000000000000008000000",
        "00000000040000000000000010000000000000006f0000007b22616c676f7269",
        "74686d223a22524d2d54532f6c69676874222c226d223a322c22766572646963",
        "74223a7b224163636570746564223a7b2270726f636573736f72735f75736564",
        "223a322c2273706c697473223a5b315d2c2265786163746e657373223a224578",
        "616374227d7d7dd300000093963f18514347cc20000000526d54734c69676874",
        "7c4e6f6e657c756e6c696d697465647c66616c73657c33040000000000000003",
        "0000000100000000000000040000000000000002000000000000000800000000",
        "000000040000000000000010000000000000006f0000007b22616c676f726974",
        "686d223a22524d2d54532f6c69676874222c226d223a342c2276657264696374",
        "223a7b224163636570746564223a7b2270726f636573736f72735f7573656422",
        "3a342c2273706c697473223a5b315d2c2265786163746e657373223a22457861",
        "6374227d7d7d",
    );

    #[test]
    fn on_disk_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("rmts_snap_pin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.snap");
        let entries = [demo_entry(2), demo_entry(4)];
        write_snapshot_as(&path, "rmts-engine/pinned/memo-fmt1", &entries).unwrap();
        let hex: String = std::fs::read(&path)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, PINNED_SNAPSHOT);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
