//! Persistent memo store: snapshot/restore of shard memo tables.
//!
//! A [`Service`](crate::Service) accumulates per-shard memo tables
//! mapping `(canonical pairs, m, engine fingerprint)` to analysis
//! outcomes. Restarting the process discards them — and with them the
//! duplicate-heavy speedup the memo produces. This module makes the memo
//! durable: [`write_snapshot`] serializes every entry to a single file,
//! and [`read_snapshot`] restores them on startup so a restarted server
//! answers warm from the first request.
//!
//! ## File format (all integers little-endian)
//!
//! ```text
//! header:
//!   magic        8  bytes   b"RMTSMEM1"
//!   fp_len       u32        length of the build fingerprint
//!   fingerprint  fp_len     engine build fingerprint (utf-8)
//! record (repeated until EOF):
//!   payload_len  u32        length of the payload that follows the checksum
//!   checksum     u64        FNV-1a over the payload bytes
//!   payload:
//!     engine_len u32        per-entry engine fingerprint length
//!     engine     engine_len algorithm|policy|budget|degrade|n (utf-8)
//!     m          u64        processor count of the memoized question
//!     n_pairs    u32        number of canonical (wcet, period) pairs
//!     pairs      n_pairs×16 canonical pairs, (wcet u64, period u64) each
//!     outcome_len u32       serialized outcome length
//!     outcome    outcome_len  AnalysisOutcome as JSON (utf-8)
//! ```
//!
//! Every entry carries **both** fingerprints: the header's build
//! fingerprint gates the whole file (a snapshot written by a differently
//! versioned engine is *stale* and ignored wholesale), and the per-entry
//! engine fingerprint is part of the memo key itself (so even within one
//! build, an entry can only ever answer for the exact engine
//! configuration that produced it).
//!
//! ## Trust policy
//!
//! A snapshot is an optimization, never an authority. Restore trusts
//! nothing it cannot verify:
//!
//! * wrong magic or build fingerprint → **stale**, zero entries restored;
//! * truncated record, bad checksum, or unparsable payload → **corrupt**,
//!   reading stops at the last good record (a torn tail cannot smuggle a
//!   half-written entry in);
//! * every accepted entry still re-validates structurally (lengths are
//!   bounded before allocation).
//!
//! The worst possible outcome of a damaged snapshot is a *cold* memo —
//! never a wrong answer. Writes are atomic (temp file + rename), so a
//! crash mid-snapshot leaves the previous snapshot intact.

use crate::request::AnalysisOutcome;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

/// Leading magic of a memo snapshot file (the `1` is the format version).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RMTSMEM1";

/// Upper bound on any declared length field, checked **before**
/// allocating: a corrupt length can waste at most this much memory.
/// Shared with the session journal, which uses the same framing.
pub(crate) const MAX_FIELD_LEN: usize = 64 << 20;

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

/// What [`read_snapshot`] found. Exactly one of the flag fields explains
/// a cold (or partially cold) restore; all false means a clean full
/// restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Entries restored into the memo.
    pub restored: usize,
    /// No snapshot file existed (first boot) — a clean cold start.
    pub missing: bool,
    /// The file's build fingerprint (or magic) did not match this engine:
    /// the whole snapshot was ignored.
    pub stale: bool,
    /// A truncated or checksum-failing record stopped the restore early;
    /// entries before the damage were kept.
    pub corrupt: bool,
}

/// FNV-1a over raw bytes — the record checksum (shared with the journal).
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Serializes one entry's record payload (everything after the checksum).
fn encode_payload(entry: &MemoEntry) -> Result<Vec<u8>, String> {
    let outcome =
        serde_json::to_string(&entry.outcome).map_err(|e| format!("serialize outcome: {e}"))?;
    let mut p =
        Vec::with_capacity(64 + entry.engine.len() + 16 * entry.pairs.len() + outcome.len());
    put_u32(&mut p, entry.engine.len() as u32);
    p.extend_from_slice(entry.engine.as_bytes());
    put_u64(&mut p, entry.m as u64);
    put_u32(&mut p, entry.pairs.len() as u32);
    for &(c, t) in &entry.pairs {
        put_u64(&mut p, c);
        put_u64(&mut p, t);
    }
    put_u32(&mut p, outcome.len() as u32);
    p.extend_from_slice(outcome.as_bytes());
    Ok(p)
}

/// Writes a snapshot atomically: serialize to `<path>.tmp.<pid>`, fsync,
/// rename over `path`. A crash at any point leaves either the old
/// snapshot or the new one, never a torn file at `path`.
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
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut buf, fingerprint.len() as u32);
    buf.extend_from_slice(fingerprint.as_bytes());
    for entry in entries {
        let payload = encode_payload(entry).map_err(io::Error::other)?;
        put_u32(&mut buf, payload.len() as u32);
        put_u64(&mut buf, fnv1a_bytes(&payload));
        buf.extend_from_slice(&payload);
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(SnapshotReport {
            entries: entries.len(),
            bytes: buf.len(),
        }),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A bounds-checked cursor over the snapshot bytes. Every read returns
/// `None` past the end — truncation surfaces as a typed failure, never a
/// panic or a partial parse. Shared with the journal reader.
pub(crate) struct Cursor<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > MAX_FIELD_LEN || self.at.checked_add(n)? > self.data.len() {
            return None;
        }
        let s = &self.data[self.at..self.at + n];
        self.at += n;
        Some(s)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn done(&self) -> bool {
        self.at == self.data.len()
    }
}

/// Decodes one record payload into an entry. `None` means the payload is
/// malformed (wrong lengths, non-utf8 fingerprint, unparsable outcome).
fn decode_payload(payload: &[u8]) -> Option<MemoEntry> {
    let mut c = Cursor {
        data: payload,
        at: 0,
    };
    let engine_len = c.u32()? as usize;
    let engine = std::str::from_utf8(c.take(engine_len)?).ok()?.to_string();
    let m = usize::try_from(c.u64()?).ok()?;
    let n_pairs = c.u32()? as usize;
    // 16 bytes per pair must fit in the remaining payload — checked before
    // the allocation, so a corrupt count cannot balloon memory.
    if n_pairs.checked_mul(16)? > payload.len() - c.at {
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

/// Reads a snapshot back, verifying the build fingerprint and every
/// record checksum. See the module docs for the trust policy; the return
/// is always usable — damage degrades to a (partially) cold memo.
pub fn read_snapshot(path: &Path) -> (Vec<MemoEntry>, RestoreReport) {
    read_snapshot_as(path, &engine_fingerprint())
}

/// [`read_snapshot`] against an explicit expected fingerprint.
pub fn read_snapshot_as(path: &Path, fingerprint: &str) -> (Vec<MemoEntry>, RestoreReport) {
    let mut report = RestoreReport::default();
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            if f.read_to_end(&mut data).is_err() {
                report.corrupt = true;
                return (Vec::new(), report);
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            report.missing = true;
            return (Vec::new(), report);
        }
        Err(_) => {
            report.corrupt = true;
            return (Vec::new(), report);
        }
    }
    let mut c = Cursor { data: &data, at: 0 };
    let header_ok = (|| {
        let magic = c.take(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return None;
        }
        let fp_len = c.u32()? as usize;
        let fp = std::str::from_utf8(c.take(fp_len)?).ok()?;
        (fp == fingerprint).then_some(())
    })();
    if header_ok.is_none() {
        // Wrong magic, truncated header, or a different engine build: the
        // whole file is stale — nothing in it may answer for this engine.
        report.stale = true;
        return (Vec::new(), report);
    }
    let mut entries = Vec::new();
    while !c.done() {
        let record = (|| {
            let payload_len = c.u32()? as usize;
            let checksum = c.u64()?;
            let payload = c.take(payload_len)?;
            if fnv1a_bytes(payload) != checksum {
                return None;
            }
            decode_payload(payload)
        })();
        match record {
            Some(entry) => entries.push(entry),
            None => {
                // Truncated or checksum-failing tail: keep what verified,
                // trust nothing after the damage.
                report.corrupt = true;
                break;
            }
        }
    }
    report.restored = entries.len();
    (entries, report)
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
            RestoreReport {
                restored: 2,
                ..RestoreReport::default()
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
        assert!(report.stale && report.restored == 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
