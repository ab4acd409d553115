//! The server under test as a child process, observed through `/proc`.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `rmts-cli serve`. Its stdin is the stop switch (EOF drains
/// and exits), its stderr goes to a file the guards read afterwards.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub stderr_path: PathBuf,
}

impl ServerProc {
    /// Spawns the server and waits for its `listening on ADDR` line;
    /// returns it with the time from spawn to that line.
    pub fn spawn(bin: &Path, args: &[String], stderr_path: PathBuf) -> Result<(Self, f64), String> {
        let stderr = File::create(&stderr_path)
            .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let setup_s = t0.elapsed().as_secs_f64();
        let addr = match read {
            Ok(n) if n > 0 => first
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let stdin = child.stdin.take();
        let mut server = ServerProc {
            child,
            stdin,
            _stdout: stdout,
            addr: "0.0.0.0:0".parse().expect("placeholder address"),
            stderr_path,
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok((server, setup_s))
            }
            None => {
                server.kill();
                let log = std::fs::read_to_string(&server.stderr_path).unwrap_or_default();
                Err(format!(
                    "server did not report a listening address (stdout {:?}); stderr:\n{log}",
                    first.trim()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// utime + stime of the whole process so far, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read server /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the full line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc/<pid>/stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| "malformed /proc/<pid>/stat".to_string())
        };
        // `rest` starts at field 3 (state), so field k is rest[k - 3].
        Ok((ticks(11)? + ticks(12)?) as f64 / USER_HZ)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read server /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc/<pid>/status".to_string())
    }

    /// Graceful stop: EOF on stdin, then wait for the drain to finish.
    /// Returns the server's stderr.
    pub fn stop(mut self) -> Result<String, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let log = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
                    return if status.success() {
                        Ok(log)
                    } else {
                        Err(format!("server exited with {status}; stderr:\n{log}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("server did not stop within 60 s of stdin EOF".into());
                }
            }
        }
    }

    /// SIGKILL, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Never leave a server behind, whatever path the run took.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// The unit of `/proc/<pid>/stat` times, in ticks per second: 100 on
/// every Linux architecture this benchmark targets.
const USER_HZ: f64 = 100.0;

/// Aggregate CPU time counters from `/proc/stat`: (steal, total) jiffies.
pub fn host_cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let vals: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice, so it is not added again.
    let total = vals.iter().take(8).sum();
    (vals.get(7).copied().unwrap_or(0), total)
}
