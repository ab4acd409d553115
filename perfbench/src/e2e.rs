//! The end-to-end run: the real `rmts-cli serve` as a child process,
//! driven over loopback with tracing off.

use crate::check::Tally;
use crate::load::{self, Client, PhaseLog};
use crate::script::{Script, Workload};
use crate::server::{self, ServerProc};
use crate::{metric, stats, Metric};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Server starts per run; `setup_s` is their median, and the last one
/// serves the measured phase.
const SETUP_TRIALS: usize = 9;

/// Length of the windows the measured phase is cut into.
const WINDOW: Duration = Duration::from_millis(250);

/// Steal shares this close count as equally quiet: one jiffy of a 250 ms
/// window on two CPUs is 0.02.
const STEAL_RESOLUTION: f64 = 0.02;

pub struct E2eRun {
    pub server_argv: Vec<String>,
    pub setup_samples_s: Vec<f64>,
    /// Warm-up (memo-hot, fresh-deep) or prefill (session-journal).
    pub warmup: PhaseLog,
    pub measured: PhaseLog,
    /// Host and server counters at every window boundary of the measured
    /// phase.
    pub samples: Vec<Sample>,
    pub peak_rss_mb: f64,
    /// Journal ops the measured server replayed at start (session-journal).
    pub replayed_ops: Option<u64>,
    /// Checkpoint generations cut during the measured phase.
    pub checkpoints: Option<u64>,
}

pub fn server_args(shards: usize, journal: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &shards.to_string(),
        "--clients",
        &(4 * shards).max(8).to_string(),
        // Out of reach: the token bucket never refuses.
        "--rate",
        "1000000000",
        "--burst",
        "1000000000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = journal {
        args.push("--journal".into());
        args.push(dir.display().to_string());
    }
    args
}

pub fn run(
    bin: &Path,
    work: &Path,
    script: &Script,
    conns: usize,
    seconds: u64,
) -> Result<E2eRun, String> {
    let measured_deadline = Duration::from_secs((4 * seconds).max(30));
    let warmup_deadline = Duration::from_secs(60);
    let durable = script.workload == Workload::SessionJournal;

    // Session-journal prefill: an untimed server journals the first part
    // of every session stream and is SIGKILLed after its last response.
    let (prefill_dir, prefill) = if durable {
        let dir = work.join("prefill");
        let args = server_args(conns, Some(&dir));
        let (mut srv, _) = ServerProc::spawn(bin, &args, work.join("prefill.stderr"))?;
        let mut clients = connect_all(&srv, conns)?;
        let log = load::run_phase(&mut clients, script, &script.warmup, warmup_deadline);
        srv.kill();
        (Some(dir), Some(log))
    } else {
        (None, None)
    };

    let mut setup_samples_s = Vec::with_capacity(SETUP_TRIALS);
    let mut server = None;
    let mut server_argv = Vec::new();
    let mut journal_dir = None;
    for trial in 0..SETUP_TRIALS {
        let dir = match &prefill_dir {
            Some(src) => {
                let dst = work.join(format!("journal-{trial}"));
                copy_dir(src, &dst)?;
                Some(dst)
            }
            None => None,
        };
        let args = server_args(conns, dir.as_deref());
        let stderr = work.join(format!("server-{trial}.stderr"));
        let (srv, setup_s) = ServerProc::spawn(bin, &args, stderr)?;
        setup_samples_s.push(setup_s);
        if trial + 1 < SETUP_TRIALS {
            drop(srv); // SIGKILL: only the start is measured
        } else {
            server = Some(srv);
            server_argv = args;
            journal_dir = dir;
        }
    }
    let srv = server.expect("at least one setup trial");

    let mut clients = connect_all(&srv, conns)?;
    let warmup = match prefill {
        Some(log) => log,
        None => load::run_phase(&mut clients, script, &script.warmup, warmup_deadline),
    };
    let generation_before = journal_dir.as_deref().map(newest_generation);
    let (measured, samples) = sampled(&srv, || {
        load::run_phase(&mut clients, script, &script.measured, measured_deadline)
    })?;
    let peak_rss_mb = srv.peak_rss_mb()?;
    let generation_after = journal_dir.as_deref().map(newest_generation);
    drop(clients);
    let stderr = srv.stop()?;

    let replayed_ops = durable.then(|| replayed_ops(&stderr)).flatten();
    Ok(E2eRun {
        server_argv,
        setup_samples_s,
        warmup,
        measured,
        samples,
        peak_rss_mb,
        replayed_ops,
        checkpoints: generation_before
            .zip(generation_after)
            .map(|(before, after)| after.saturating_sub(before)),
    })
}

fn connect_all(srv: &ServerProc, conns: usize) -> Result<Vec<Client>, String> {
    (0..conns).map(|_| Client::connect(srv.addr)).collect()
}

/// Copies a flat durability directory (generation files only).
pub fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| format!("create {}: {e}", dst.display()))?;
    let entries = std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))?;
    for entry in entries {
        let path: PathBuf = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let to = dst.join(path.file_name().expect("directory entries have names"));
            std::fs::copy(&path, &to).map_err(|e| format!("copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The newest checkpoint generation in a durability directory (0 when
/// only the first journal exists).
fn newest_generation(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    let rest = name.strip_prefix("journal.g")?;
                    rest.strip_suffix(".log")?.parse::<u64>().ok()
                })
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// `K` from the server's `recovery: ..., K journal op(s) replayed` line.
fn replayed_ops(stderr: &str) -> Option<u64> {
    let line = stderr.lines().find(|l| l.starts_with("recovery:"))?;
    let before = line.split(" journal op(s) replayed").next()?;
    before.rsplit(' ').next()?.parse().ok()
}

/// Host steal and server CPU at one instant.
#[derive(Clone, Copy)]
pub struct Sample {
    at: Instant,
    steal: u64,
    total: u64,
    server_cpu_s: f64,
}

fn sample(srv: &ServerProc) -> Result<Sample, String> {
    let (steal, total) = server::host_cpu_jiffies();
    Ok(Sample {
        at: Instant::now(),
        steal,
        total,
        server_cpu_s: srv.cpu_seconds()?,
    })
}

/// Runs `phase` while a sampler thread records a [`Sample`] at every
/// window boundary (plus one before and one after).
fn sampled<T: Send>(
    srv: &ServerProc,
    phase: impl FnOnce() -> T + Send,
) -> Result<(T, Vec<Sample>), String> {
    let first = sample(srv)?;
    let done = AtomicBool::new(false);
    let (out, mut samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = vec![Ok(first)];
            let mut next = first.at + WINDOW;
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                if done.load(Ordering::Acquire) {
                    break;
                }
                samples.push(sample(srv));
                next += WINDOW;
            }
            samples
        });
        let out = phase();
        done.store(true, Ordering::Release);
        (out, sampler.join().expect("sampler thread panicked"))
    });
    samples.push(sample(srv));
    Ok((out, samples.into_iter().collect::<Result<_, _>>()?))
}

/// One window of the measured phase.
struct Window {
    seconds: f64,
    steal_frac: f64,
    server_cpu_s: f64,
    latencies_us: Vec<f64>,
}

impl E2eRun {
    fn windows(&self) -> Vec<Window> {
        let mut windows: Vec<Window> = self
            .samples
            .windows(2)
            .map(|w| Window {
                seconds: (w[1].at - w[0].at).as_secs_f64(),
                steal_frac: (w[1].steal - w[0].steal) as f64
                    / (w[1].total - w[0].total).max(1) as f64,
                server_cpu_s: w[1].server_cpu_s - w[0].server_cpu_s,
                latencies_us: Vec::new(),
            })
            .collect();
        let last = windows.len();
        for conn in &self.measured.conns {
            for (done, ns) in conn.done.iter().zip(&conn.latencies_ns) {
                // The window whose start is the last sample at or before
                // the answer.
                let w = self.samples.partition_point(|s| s.at <= *done);
                windows[w.clamp(1, last) - 1]
                    .latencies_us
                    .push(*ns as f64 / 1e3);
            }
        }
        windows
    }

    /// Per window: seconds, host steal share, server CPU seconds, answers,
    /// p50 and p99 latency (µs), for the run record.
    pub fn window_table(&self) -> Vec<[f64; 6]> {
        self.windows()
            .iter()
            .map(|w| {
                [
                    w.seconds,
                    w.steal_frac,
                    w.server_cpu_s,
                    w.latencies_us.len() as f64,
                    stats::median(&w.latencies_us),
                    stats::quantile(&w.latencies_us, 0.99),
                ]
            })
            .collect()
    }

    /// Host steal over the whole measured phase.
    pub fn steal_frac(&self) -> f64 {
        let (a, b) = (self.samples[0], self.samples[self.samples.len() - 1]);
        (b.steal - a.steal) as f64 / (b.total - a.total).max(1) as f64
    }

    /// The end-to-end metrics. Every figure but `setup_s`, `peak_rss_mb`
    /// and `answered_frac` comes from the quietest measured windows: those
    /// whose host steal is within two points (about one jiffy of a window)
    /// of the quietest window's, and at least the quietest quarter. On a
    /// quiet host that is every window; a final window shorter than half
    /// the others is left out. Returns the metrics and the steal share of
    /// the windows kept.
    pub fn metrics(&self, tally: &Tally) -> Result<(Vec<Metric>, f64), String> {
        let mut windows = self.windows();
        if windows.len() > 1 && windows[windows.len() - 1].seconds < WINDOW.as_secs_f64() / 2.0 {
            windows.pop();
        }
        let steals: Vec<f64> = windows.iter().map(|w| w.steal_frac).collect();
        let quietest = steals.iter().copied().fold(f64::INFINITY, f64::min);
        let threshold = (quietest + STEAL_RESOLUTION).max(stats::quantile(&steals, 0.25));
        windows.retain(|w| w.steal_frac <= threshold);
        let seconds: f64 = windows.iter().map(|w| w.seconds).sum();
        let cpu: f64 = windows.iter().map(|w| w.server_cpu_s).sum();
        let steal = windows
            .iter()
            .map(|w| w.steal_frac * w.seconds)
            .sum::<f64>()
            / seconds;
        let latencies: Vec<f64> = windows
            .iter()
            .flat_map(|w| w.latencies_us.iter().copied())
            .collect();
        if latencies.len() < 1000 {
            return Err(format!(
                "only {} answers in the quietest windows: p99 needs 1000 for ten samples \
                 beyond it",
                latencies.len()
            ));
        }
        let answered = latencies.len() as f64;
        let failed_frac = tally.failed() as f64 / tally.planned.max(1) as f64;
        let metrics = vec![
            metric("setup_s", stats::median(&self.setup_samples_s), "s"),
            metric("throughput_rps", answered / seconds, "req/s"),
            metric("lat_p50_us", stats::median(&latencies), "us"),
            metric("lat_p99_us", stats::quantile(&latencies, 0.99), "us"),
            metric("server_cpu_us_per_req", cpu * 1e6 / answered, "us"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("answered_frac", 1.0 - failed_frac, "ratio"),
        ];
        Ok((metrics, steal))
    }
}
