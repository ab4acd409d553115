//! The record file: the one on-disk format under both the memo snapshot
//! ([`crate::snapshot`], magic `RMTSMEM1`) and the session journal
//! ([`crate::journal`], magic `RMTSJRN1`).
//!
//! A record file is a header naming the format and the engine build,
//! then a run of checksummed records. This module owns everything about
//! that frame — writing it, verifying it, reading a file, replacing a
//! file atomically — so the two formats differ only in their magic and
//! in the payload codec they plug in.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! header:
//!   magic        8  bytes   the format: b"RMTSMEM1" or b"RMTSJRN1"
//!   fp_len       u32        length of the build fingerprint
//!   fingerprint  fp_len     engine build fingerprint (utf-8)
//! record (repeated until EOF):
//!   payload_len  u32        length of the payload that follows the checksum
//!   checksum     u64        FNV-1a over the payload bytes
//!   payload      payload_len  one format-specific record
//! ```
//!
//! ## Trust policy
//!
//! A record file is read as a **verified prefix** ([`RecordReport`]):
//!
//! * no file → **missing**, a clean cold start;
//! * wrong magic, a different build fingerprint, or a header cut short →
//!   **stale**, the whole file is ignored (analysis outcomes and session
//!   state are only portable between identically versioned engines);
//! * a truncated record, a failing checksum, or a payload the codec
//!   rejects → **corrupt**: reading stops at the last good record, so a
//!   torn tail can never smuggle a half-written record in;
//! * an unreadable file → **corrupt**, with nothing kept.
//!
//! Every length field is bounded (64 MiB) and checked against the
//! remaining bytes *before* anything is allocated. Whole files are written
//! atomically (temp file `<name>.tmp.<pid>`, `sync_all`, rename), so a
//! crash mid-write leaves the previous file in place.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

/// The FNV-1a offset basis: the hash of no bytes, where every fold
/// starts.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, folding `bytes` into the running hash `h` (start from
/// [`FNV_OFFSET`]). The record checksum, and the service's routing and
/// fleet-digest hash.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Upper bound on any declared length field, checked **before**
/// allocating: a corrupt length can waste at most this much memory.
const MAX_FIELD_LEN: usize = 64 << 20;

/// What reading a record file found. At most one flag is set, and it
/// explains a cold (or partially cold) read; all false means every byte
/// verified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordReport {
    /// Records in the verified prefix.
    pub records: usize,
    /// No file existed (first boot) — a clean cold start.
    pub missing: bool,
    /// The magic or build fingerprint did not match this engine (or the
    /// header was cut short): the whole file was ignored.
    pub stale: bool,
    /// A truncated, checksum-failing or undecodable record stopped the
    /// read early (records before the damage were kept), or the file
    /// could not be read at all.
    pub corrupt: bool,
    /// Byte length of the verified prefix (header + intact records). The
    /// journal writer truncates to this before appending, so a torn tail
    /// can never corrupt later records.
    pub valid_bytes: usize,
}

/// A record file's header for `magic` and `fingerprint`, the start of
/// every file image.
pub(crate) fn header(magic: &[u8; 8], fingerprint: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(magic.len() + 4 + fingerprint.len());
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&(fingerprint.len() as u32).to_le_bytes());
    buf.extend_from_slice(fingerprint.as_bytes());
    buf
}

/// Frames `payload` as one record (length, checksum, payload) at the end
/// of `buf`.
pub(crate) fn push_record(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a(FNV_OFFSET, payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Reads a record file image: checks the header against `magic` and
/// `fingerprint`, then verifies and `decode`s records until the end or
/// the first damage (trust policy in the module docs). Never fails —
/// damage degrades to a shorter verified prefix.
pub(crate) fn read_bytes<T>(
    data: &[u8],
    magic: &[u8; 8],
    fingerprint: &str,
    mut decode: impl FnMut(&[u8]) -> Option<T>,
) -> (Vec<T>, RecordReport) {
    let mut report = RecordReport::default();
    let mut c = Cursor::new(data);
    let header_ok = (|| {
        (c.take(magic.len())? == magic).then_some(())?;
        let fp_len = c.u32()? as usize;
        (c.take(fp_len)? == fingerprint.as_bytes()).then_some(())
    })();
    if header_ok.is_none() {
        report.stale = true;
        return (Vec::new(), report);
    }
    let mut records = Vec::new();
    report.valid_bytes = c.at;
    while !c.done() {
        let record = (|| {
            let payload_len = c.u32()? as usize;
            let checksum = c.u64()?;
            let payload = c.take(payload_len)?;
            (fnv1a(FNV_OFFSET, payload) == checksum).then_some(())?;
            decode(payload)
        })();
        match record {
            Some(record) => {
                records.push(record);
                report.valid_bytes = c.at;
            }
            None => {
                report.corrupt = true;
                break;
            }
        }
    }
    report.records = records.len();
    (records, report)
}

/// Reads the whole file at `path` and hands its bytes to `read` (a
/// format's byte reader). A missing file reads as `missing` and an
/// unreadable one as `corrupt`, with no records.
pub(crate) fn read_file<T>(
    path: &Path,
    read: impl FnOnce(&[u8]) -> (Vec<T>, RecordReport),
) -> (Vec<T>, RecordReport) {
    let mut data = Vec::new();
    match File::open(path).and_then(|mut f| f.read_to_end(&mut data)) {
        Ok(_) => read(&data),
        Err(e) => {
            let report = RecordReport {
                missing: e.kind() == io::ErrorKind::NotFound,
                corrupt: e.kind() != io::ErrorKind::NotFound,
                ..RecordReport::default()
            };
            (Vec::new(), report)
        }
    }
}

/// Replaces the file at `path` with `bytes` atomically: write
/// `<path>.tmp.<pid>`, `sync_all`, rename over `path`, then sync the
/// parent directory. A crash at any point leaves the old file or the new
/// one at `path`, never a torn one; a failed write removes its temp file.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written?;
    // The rename survives a machine crash only once the directory entry is
    // on disk, and callers act on it next (a checkpoint unlinks the
    // generation this file replaces). A bare file name's parent is `.`.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// A bounds-checked cursor over record bytes. Every read returns `None`
/// past the end or past [`MAX_FIELD_LEN`] — truncation surfaces as a
/// typed failure, never a panic or a partial parse.
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Cursor { data, at: 0 }
    }

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

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    pub(crate) fn done(&self) -> bool {
        self.at == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding is concatenation: a hash can be continued piecewise.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn a_payload_the_codec_rejects_stops_the_read() {
        // The checksum holds, the codec refuses: everything from that
        // record on is dropped, not skipped over.
        let mut image = header(b"RMTSTST1", "fp");
        push_record(&mut image, b"good");
        let valid_bytes = image.len();
        push_record(&mut image, b"bad");
        push_record(&mut image, b"good");
        let (records, report) =
            read_bytes(&image, b"RMTSTST1", "fp", |p| (p == b"good").then_some(()));
        assert_eq!(records.len(), 1);
        assert!(report.corrupt && !report.stale);
        assert_eq!(report.valid_bytes, valid_bytes);
    }
}
