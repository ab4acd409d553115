//! Write-ahead session journal: crash durability for live sessions.
//!
//! Memo snapshots ([`crate::snapshot`]) make the *memo* durable, but only
//! at checkpoints; a crash still loses every live
//! [`PartitionSession`](rmts_core::PartitionSession). This module closes
//! that gap: every **committed** session mutation (`Open`, a non-noop
//! `Delta`, `Close`, and panic teardowns) is appended to an on-disk
//! journal *before* the response is sent. Because guided replay is
//! deterministic and bit-identical to from-scratch partitioning, replaying
//! the journal through the ordinary session machinery rebuilds every
//! acknowledged session exactly — state digests and all.
//!
//! The file is a [record file](crate::record) with magic `RMTSJRN1`: the
//! header, the record framing, the verified-prefix trust policy and the
//! atomic checkpoint write live there. Each record's payload is one
//! [`JournalOp`] as JSON (utf-8).
//!
//! A read stops at the first damaged record, and
//! [`RecordReport::valid_bytes`] marks the boundary, so
//! [`JournalWriter::resume`] truncates the torn tail before appending
//! again. A torn record can lose at most the operations that were never
//! acknowledged — an acknowledged op was `write(2)`-complete before its
//! response line existed, so it survives any *process* crash (the bytes
//! live in the kernel page cache; machine-crash durability would add an
//! fsync per append, which this service deliberately does not pay).

use crate::record::{self, RecordReport};
use crate::request::AnalyzeRequest;
use rmts_taskmodel::TaskSetDelta;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Leading magic of a session journal file (the `1` is the format version).
pub const JOURNAL_MAGIC: &[u8; 8] = b"RMTSJRN1";

/// One committed session mutation, exactly as replay needs it. The `Open`
/// record keeps the **original** base request (not a re-expressed current
/// set): engines are built against the opening set's size (the SPA
/// thresholds are Θ(n)-dependent), so recovery must rebuild from the same
/// base and re-apply the same deltas to reach the same state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalOp {
    /// A session was opened (or replaced) by partitioning `base`.
    Open {
        /// The session name.
        session: String,
        /// The base analysis question the session was opened with.
        base: AnalyzeRequest,
    },
    /// A non-noop delta was committed against the session.
    Delta {
        /// The session name.
        session: String,
        /// The committed delta.
        delta: TaskSetDelta,
    },
    /// The session was closed — explicitly, or torn down after an engine
    /// panic (either way its state is gone and must not resurrect).
    Close {
        /// The session name.
        session: String,
    },
}

impl JournalOp {
    /// The session this operation addresses.
    pub fn session(&self) -> &str {
        match self {
            JournalOp::Open { session, .. }
            | JournalOp::Delta { session, .. }
            | JournalOp::Close { session } => session,
        }
    }
}

/// Serializes one operation as a framed record (length + checksum +
/// payload) ready to append.
fn encode_record(op: &JournalOp) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_string(op).map_err(io::Error::other)?;
    let mut buf = Vec::with_capacity(12 + payload.len());
    record::push_record(&mut buf, payload.as_bytes());
    Ok(buf)
}

/// Serializes a whole journal (header + records) to bytes.
pub fn journal_bytes(fingerprint: &str, ops: &[JournalOp]) -> io::Result<Vec<u8>> {
    let mut buf = record::header(JOURNAL_MAGIC, fingerprint);
    for op in ops {
        buf.extend_from_slice(&encode_record(op)?);
    }
    Ok(buf)
}

/// Parses journal bytes, verifying the fingerprint and every record
/// (trust policy in [`crate::record`]). Never fails — damage degrades to
/// a shorter verified prefix.
pub fn read_journal_bytes(data: &[u8], fingerprint: &str) -> (Vec<JournalOp>, RecordReport) {
    record::read_bytes(data, JOURNAL_MAGIC, fingerprint, |payload| {
        serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()
    })
}

/// Reads a journal file (trust policy in [`crate::record`]).
pub fn read_journal(path: &Path, fingerprint: &str) -> (Vec<JournalOp>, RecordReport) {
    record::read_file(path, |data| read_journal_bytes(data, fingerprint))
}

/// Writes a complete journal atomically (temp file + fsync + rename) —
/// the checkpoint compaction path. A crash mid-write leaves the previous
/// generation intact. Returns the journal's size in bytes.
pub fn write_journal(path: &Path, fingerprint: &str, ops: &[JournalOp]) -> io::Result<usize> {
    let bytes = journal_bytes(fingerprint, ops)?;
    record::write_atomic(path, &bytes)?;
    Ok(bytes.len())
}

/// An append handle over an open journal file. Appends are plain
/// `write_all` calls — durable against process death (SIGKILL) the moment
/// they return, without a per-record fsync (see the module docs).
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (or truncates to) a fresh journal containing only the
    /// header.
    pub fn create(path: &Path, fingerprint: &str) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(&record::header(JOURNAL_MAGIC, fingerprint))?;
        file.sync_all()?;
        Ok(JournalWriter { file })
    }

    /// Opens `path` for appending, first reading back its verified prefix.
    /// A missing or stale file is replaced by a fresh header; a corrupt
    /// tail is truncated away (so later appends can never be shadowed by
    /// torn bytes). Returns the writer plus the verified operations and
    /// the read report — exactly what recovery replays.
    pub fn resume(
        path: &Path,
        fingerprint: &str,
    ) -> io::Result<(Self, Vec<JournalOp>, RecordReport)> {
        let (ops, report) = read_journal(path, fingerprint);
        if report.missing || report.stale {
            let writer = Self::create(path, fingerprint)?;
            return Ok((writer, Vec::new(), report));
        }
        let file = OpenOptions::new().append(true).open(path)?;
        if report.corrupt {
            file.set_len(report.valid_bytes as u64)?;
            file.sync_all()?;
        }
        Ok((JournalWriter { file }, ops, report))
    }

    /// Opens an existing, just-written journal for appending at its end
    /// (the post-checkpoint writer swap; the file was written atomically
    /// a moment ago, so no verification pass is needed).
    pub fn open_end(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Appends one operation. Returns the record's size in bytes.
    pub fn append(&mut self, op: &JournalOp) -> io::Result<usize> {
        let record = encode_record(op)?;
        self.file.write_all(&record)?;
        Ok(record.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::engine_fingerprint;
    use rmts_core::AlgorithmSpec;
    use rmts_taskmodel::{Task, TaskId};

    fn demo_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::Open {
                session: "a".into(),
                base: AnalyzeRequest::new(vec![(1, 4), (2, 8)], 2, AlgorithmSpec::RmTsLight),
            },
            JournalOp::Delta {
                session: "a".into(),
                delta: TaskSetDelta::update(Task::from_ticks(0, 2, 4).unwrap()),
            },
            JournalOp::Delta {
                session: "a".into(),
                delta: TaskSetDelta::remove(TaskId(1)),
            },
            JournalOp::Close {
                session: "a".into(),
            },
        ]
    }

    #[test]
    fn round_trips_ops_bit_identically() {
        let fp = engine_fingerprint();
        let ops = demo_ops();
        let bytes = journal_bytes(&fp, &ops).unwrap();
        let (read, report) = read_journal_bytes(&bytes, &fp);
        assert_eq!(read, ops);
        assert_eq!(report.records, ops.len());
        assert!(!report.corrupt && !report.stale && !report.missing);
        assert_eq!(report.valid_bytes, bytes.len());
    }

    #[test]
    fn foreign_fingerprint_is_stale() {
        let bytes = journal_bytes("rmts-engine/9.9.9/memo-fmt1", &demo_ops()).unwrap();
        let (read, report) = read_journal_bytes(&bytes, &engine_fingerprint());
        assert!(read.is_empty());
        assert!(report.stale);
    }

    #[test]
    fn writer_resume_round_trip_and_truncates_torn_tail() {
        let fp = engine_fingerprint();
        let dir = std::env::temp_dir().join(format!("rmts_jrn_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.g0.log");
        let ops = demo_ops();
        {
            let mut w = JournalWriter::create(&path, &fp).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        // Tear the tail: append garbage that parses as no valid record.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; 7]).unwrap();
        }
        let (mut w, read, report) = JournalWriter::resume(&path, &fp).unwrap();
        assert_eq!(read, ops);
        assert!(report.corrupt);
        assert_eq!(report.valid_bytes as u64, clean_len);
        // The torn bytes are gone; a fresh append reads back clean.
        w.append(&JournalOp::Close {
            session: "b".into(),
        })
        .unwrap();
        drop(w);
        let (read2, report2) = read_journal(&path, &fp);
        assert_eq!(read2.len(), ops.len() + 1);
        assert!(!report2.corrupt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_clean_cold_start() {
        let (ops, report) = read_journal(Path::new("/nonexistent/rmts/journal.log"), "fp");
        assert!(ops.is_empty());
        assert!(report.missing && !report.corrupt && !report.stale);
    }

    /// The journal image of `demo_ops()` under the fingerprint
    /// `rmts-engine/pinned/memo-fmt1`, as written by the format's first
    /// release. A change here strands every journal already on disk.
    const PINNED_JOURNAL: &str = concat!(
        "524d54534a524e311c000000726d74732d656e67696e652f70696e6e65642f6d",
        "656d6f2d666d7431ca000000a4ccb5061e977f8f7b224f70656e223a7b227365",
        "7373696f6e223a2261222c2262617365223a7b227461736b736574223a5b5b31",
        "2c345d2c5b322c385d5d2c226d223a322c22616c676f726974686d223a226c69",
        "676874222c22706f6c696379223a6e756c6c2c22627564676574223a7b226465",
        "61646c696e655f6d73223a6e756c6c2c226d61785f697465726174696f6e7322",
        "3a6e756c6c2c226d61785f70726f626573223a6e756c6c2c22686f72697a6f6e",
        "5f636170223a6e756c6c7d2c2264656772616465223a66616c73657d7d7d5300",
        "0000bec81d24b3ded8d77b2244656c7461223a7b2273657373696f6e223a2261",
        "222c2264656c7461223a7b226f7073223a5b7b22557064617465223a7b226964",
        "223a302c2277636574223a322c22706572696f64223a347d7d5d7d7d7d380000",
        "0001f4338c06b9d9387b2244656c7461223a7b2273657373696f6e223a226122",
        "2c2264656c7461223a7b226f7073223a5b7b2252656d6f7665223a317d5d7d7d",
        "7d19000000da1deb7145b497f67b22436c6f7365223a7b2273657373696f6e22",
        "3a2261227d7d",
    );

    #[test]
    fn on_disk_bytes_are_pinned() {
        let bytes = journal_bytes("rmts-engine/pinned/memo-fmt1", &demo_ops()).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_JOURNAL);
    }
}
