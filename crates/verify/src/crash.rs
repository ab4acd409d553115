//! Kill–recover fault injection for the durable service.
//!
//! Two attack surfaces, two tools:
//!
//! * **Torn writes** — [`torn_write_sweep`] takes an encoded record file
//!   (a memo snapshot or a session journal: both share the
//!   `rmts_svc::record` framing), the records it holds and the format's
//!   decoder, and damages the image every way a crashed `write(2)` could:
//!   truncation at *every* byte offset, and a single-bit flip at *every*
//!   byte offset. The invariant it asserts is the record file's whole
//!   safety story: a damaged file decodes to a **prefix** of the original
//!   records (or to nothing at all, when the header is hit) — never to a
//!   *different* valid record.
//! * **Process kill** — [`ServerProc`] runs `rmts-cli serve` as a child
//!   process so a test can SIGKILL it at randomized points mid-load
//!   ([`kill_points`] derives them deterministically from a seed) and
//!   restart it against the same journal directory. [`JsonlClient`] is
//!   the matching line-oriented TCP client.
//!
//! Everything here is deterministic given the seed, in the same spirit as
//! [`campaign`](crate::campaign): a failing kill schedule is reproducible
//! by number.

use rmts_svc::RecordReport;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// What a [`torn_write_sweep`] tried and found. Every damaged image is
/// classified into exactly one bucket; `violations` lists the offsets (if
/// any) where damage produced something *other* than a clean prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TornSweepReport {
    /// Truncation lengths tried (every byte offset of the encoded file).
    pub truncations: usize,
    /// Single-bit flips tried (every byte offset of the encoded file).
    pub bitflips: usize,
    /// Damaged images that decoded to a strict prefix of the original
    /// records (torn tail detected and discarded).
    pub prefix_kept: usize,
    /// Damaged images rejected wholesale (header/fingerprint hit → stale).
    pub rejected: usize,
    /// Damaged images that still decoded every original record (the
    /// damage landed in bytes the verified prefix does not cover — only
    /// possible for truncation at exactly the end, or flips past the last
    /// record; counted separately as a sanity check).
    pub intact: usize,
    /// Offsets where damage decoded to something that is **not** a prefix
    /// of the original records — a different valid record survived.
    /// Empty in a correct implementation.
    pub violations: Vec<usize>,
}

impl TornSweepReport {
    /// No damaged image ever decoded to a non-prefix.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively damages `image`, the encoded record file holding
/// `records` — truncation at every byte offset and a single-bit flip at
/// every byte offset — and checks what `decode` (the format's byte
/// reader, e.g. `read_journal_bytes` or `read_snapshot_bytes` under the
/// writing fingerprint) makes of each damaged image against the prefix
/// invariant (module docs). The flipped bit at offset `i` is bit `i % 8`,
/// so the sweep covers every bit lane without an 8× blowup.
pub fn torn_write_sweep<T: PartialEq>(
    image: &[u8],
    records: &[T],
    decode: impl Fn(&[u8]) -> (Vec<T>, RecordReport),
) -> TornSweepReport {
    let mut report = TornSweepReport::default();
    let mut classify = |offset: usize, damaged: &[u8]| {
        let (decoded, read) = decode(damaged);
        if read.stale {
            report.rejected += 1;
        } else if decoded == records {
            report.intact += 1;
        } else if decoded.len() < records.len() && decoded == records[..decoded.len()] {
            report.prefix_kept += 1;
        } else {
            report.violations.push(offset);
        }
    };
    for cut in 0..image.len() {
        classify(cut, &image[..cut]);
    }
    let mut damaged = image.to_vec();
    for offset in 0..image.len() {
        damaged[offset] ^= 1 << (offset % 8);
        classify(offset, &damaged);
        damaged[offset] ^= 1 << (offset % 8);
    }
    report.truncations = image.len();
    report.bitflips = image.len();
    report
}

/// Deterministic pseudo-random kill points: `count` values in
/// `1..=max_ops`, derived from `seed` by xorshift64*. Duplicates are
/// allowed (killing twice at the same depth is a valid schedule); the
/// result is sorted for readable reports.
pub fn kill_points(seed: u64, count: usize, max_ops: usize) -> Vec<usize> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut points = Vec::with_capacity(count);
    for _ in 0..count {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        points.push(1 + (r % max_ops.max(1) as u64) as usize);
    }
    points.sort_unstable();
    points
}

/// A child-process `rmts-cli serve` under test: spawned with its stdout
/// watched for the `listening on ADDR` readiness line, killable with
/// SIGKILL mid-request, stoppable gracefully by closing its stdin.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl ServerProc {
    /// Spawns `bin serve <args>` and waits (bounded by `timeout`) for the
    /// readiness line. The server's stderr is inherited so test logs show
    /// its durability/recovery banner.
    pub fn spawn(bin: &Path, args: &[&str], timeout: Duration) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let deadline = Instant::now() + timeout;
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader.read_line(&mut line)?;
            if n == 0 || Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "server exited or timed out before readiness (last line {line:?})"
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                return Ok(ServerProc {
                    child,
                    stdin,
                    addr: addr.to_string(),
                });
            }
        }
    }

    /// The address the server bound (from its readiness line).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// SIGKILL — the crash under test. The process gets no chance to
    /// flush, checkpoint, or say goodbye.
    pub fn kill(&mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }

    /// Graceful stop: close stdin (the server drains and exits) and wait.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A line-oriented JSONL client over TCP: send one request line, read one
/// response line — the lockstep discipline the protocol guarantees.
pub struct JsonlClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl JsonlClient {
    /// Connects to `addr` (as printed by the server's readiness line).
    pub fn connect(addr: &str) -> io::Result<JsonlClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(JsonlClient { stream, reader })
    }

    /// Sends one request line and reads the matching response line.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-stream",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Sends one request line without waiting for the response — the
    /// racing half of a kill test (the op may or may not commit before
    /// the SIGKILL lands; the journal decides which).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }
}
