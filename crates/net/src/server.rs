//! The TCP server: one acceptor, a bounded connection pool, and a
//! per-connection serve loop speaking the `rmts-svc` JSONL protocol.
//!
//! Lifecycle: [`Server::start`] binds, restores the memo snapshot (if
//! configured and present), and spawns the acceptor. Each accepted
//! connection gets its own thread, token bucket, and response-index
//! counter, so one connection's stream is indexed exactly like a
//! `serve-batch` JSONL document. Each connection thread runs its own
//! requests on the service (shards are locks, not threads), one request
//! at a time. [`Server::stop`] unwinds in order: stop accepting →
//! half-close every live connection's read side (each serve loop finishes
//! its in-flight response, then sees EOF) → join → drain the service
//! behind its shard locks → write the snapshot atomically. No accepted
//! request is lost between stop and snapshot.

use crate::framing::{ErrorKind, ErrorRecord, LineEvent, LineReader};
use crate::limiter::TokenBucket;
use crate::shed::{Admission, PressureGauge, ShedPolicy};
use rmts_svc::{
    render_stream_responses, DurabilityConfig, RecordReport, RecoveryReport, Service,
    ServiceConfig, ServiceStats, Ticket,
};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// In-flight slots per shard behind the shed ladder: it degrades at half
/// of `shards × IN_FLIGHT_PER_SHARD` requests in flight and refuses at all
/// of them. A connection has at most one request in flight, so the
/// in-flight count never exceeds the live connections: the real in-flight
/// bound is the connection pool (`max_clients`).
const IN_FLIGHT_PER_SHARD: usize = 64;

/// Everything a [`Server`] needs to know. Chain `with_*` — the same
/// uniform-builder idiom as [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port.
    pub addr: String,
    /// Connection-pool bound: further connections are answered with a
    /// typed `overloaded` error line and closed, never queued silently.
    pub max_clients: usize,
    /// Per-connection token-bucket refill rate (request lines / second).
    pub rate_per_sec: f64,
    /// Per-connection token-bucket burst capacity.
    pub burst: f64,
    /// Maximum request-line length in bytes; longer lines are answered
    /// with a typed `oversized` error and the connection is dropped.
    pub max_line_len: usize,
    /// Per-connection read timeout. `None` waits forever; a bound turns
    /// idle and slow-loris connections into clean drops.
    pub read_timeout: Option<Duration>,
    /// Sizing of the backing analysis service.
    pub service: ServiceConfig,
    /// Memo snapshot path: restored on start (missing/stale/corrupt
    /// degrades to a cold start), written atomically on [`Server::stop`].
    pub snapshot: Option<PathBuf>,
    /// Crash durability: a journal + checkpoint directory. When set, the
    /// service recovers memo and live sessions from the newest generation
    /// on start, journals every committed session op before the response
    /// line is written to the socket, and checkpoints in the background.
    /// Takes precedence over `snapshot` for startup restore; a `snapshot`
    /// path is still honored as an extra export on [`Server::stop`].
    pub durability: Option<DurabilityConfig>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_clients: 32,
            rate_per_sec: 10_000.0,
            burst: 10_000.0,
            max_line_len: 1 << 20,
            read_timeout: None,
            service: ServiceConfig::default(),
            snapshot: None,
            durability: None,
        }
    }
}

impl NetConfig {
    /// Defaults: loopback ephemeral port, 32 clients, a practically
    /// unlimited rate, 1 MiB lines, no read timeout, no snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the connection-pool bound (min 1).
    pub fn with_max_clients(mut self, max_clients: usize) -> Self {
        self.max_clients = max_clients.max(1);
        self
    }

    /// Sets the per-connection rate limit: sustained `per_sec` with burst
    /// capacity `burst`.
    pub fn with_rate(mut self, per_sec: f64, burst: f64) -> Self {
        self.rate_per_sec = per_sec;
        self.burst = burst;
        self
    }

    /// Sets the maximum request-line length in bytes.
    pub fn with_max_line_len(mut self, bytes: usize) -> Self {
        self.max_line_len = bytes.max(1);
        self
    }

    /// Sets the per-connection read timeout.
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the backing service's sizing.
    pub fn with_service(mut self, service: ServiceConfig) -> Self {
        self.service = service;
        self
    }

    /// Sets the memo snapshot path (restore on start, write on stop).
    pub fn with_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot = Some(path.into());
        self
    }

    /// Enables crash durability (journal + background checkpoints) rooted
    /// at the configuration's directory.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }
}

/// Cross-thread front-end counters (the `obs` recorders are thread-local,
/// so connection threads count here and the owner mirrors into `obs` —
/// the same pattern as `rmts-svc`'s `SharedStats`).
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    shed_degraded: AtomicU64,
    shed_overloaded: AtomicU64,
    rate_limited: AtomicU64,
    malformed: AtomicU64,
    oversized: AtomicU64,
    disconnects: AtomicU64,
}

/// A point-in-time snapshot of [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Connections accepted into the pool.
    pub accepted: u64,
    /// Connections refused because the pool was full.
    pub rejected: u64,
    /// Requests answered with an analysis response (any rung).
    pub served: u64,
    /// Requests served through the degraded budget ladder.
    pub shed_degraded: u64,
    /// Requests refused with a typed `overloaded` line.
    pub shed_overloaded: u64,
    /// Request lines refused with a typed `rate_limited` line.
    pub rate_limited: u64,
    /// Lines answered with a typed `malformed` line.
    pub malformed: u64,
    /// Lines answered with a typed `oversized` line.
    pub oversized: u64,
    /// Connections dropped uncleanly: mid-line EOF, slow-loris timeout,
    /// or a transport error.
    pub disconnects: u64,
}

impl NetStats {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed_degraded: self.shed_degraded.load(Ordering::Relaxed),
            shed_overloaded: self.shed_overloaded.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            oversized: self.oversized.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
        }
    }
}

impl NetStatsSnapshot {
    /// Emits the snapshot as `net.*` counters into the `obs` recording
    /// active on the calling thread (no-op without one).
    pub fn mirror_into_obs(&self) {
        rmts_obs::count("net.conn.accepted", self.accepted);
        rmts_obs::count("net.conn.rejected", self.rejected);
        rmts_obs::count("net.served", self.served);
        rmts_obs::count("net.shed", self.shed_degraded);
        rmts_obs::count("net.overloaded", self.shed_overloaded);
        rmts_obs::count("net.rate_limited", self.rate_limited);
        rmts_obs::count("net.line.malformed", self.malformed);
        rmts_obs::count("net.line.oversized", self.oversized);
        rmts_obs::count("net.disconnects", self.disconnects);
    }
}

/// Live connections: their read halves (for the stop-time half-close)
/// and their thread handles.
#[derive(Default)]
struct ConnRegistry {
    streams: Mutex<HashMap<u64, TcpStream>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
    live: AtomicUsize,
}

/// The running TCP front end (see the module docs for the lifecycle).
pub struct Server {
    addr: SocketAddr,
    svc: Arc<Service>,
    stats: Arc<NetStats>,
    restore: RecordReport,
    recovery: Option<RecoveryReport>,
    snapshot: Option<PathBuf>,
    stopping: Arc<AtomicBool>,
    stopped: AtomicBool,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    conns: Arc<ConnRegistry>,
}

impl Server {
    /// Binds, restores the snapshot (if configured), and starts accepting.
    pub fn start(cfg: NetConfig) -> io::Result<Server> {
        let (svc, restore, recovery) = match (&cfg.durability, &cfg.snapshot) {
            (Some(dcfg), _) => {
                let (svc, recovery) = Service::with_durability(cfg.service, dcfg.clone())?;
                let restore = recovery.memo;
                (svc, restore, Some(recovery))
            }
            (None, Some(path)) => {
                let (svc, report) = Service::with_restored(cfg.service, path);
                (svc, report, None)
            }
            (None, None) => (Service::new(cfg.service), RecordReport::default(), None),
        };
        let svc = Arc::new(svc);
        let gauge = Arc::new(PressureGauge::new(ShedPolicy::for_capacity(
            cfg.service.shards,
            IN_FLIGHT_PER_SHARD,
        )));
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(NetStats::default());
        let stopping = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnRegistry::default());

        let acceptor = {
            let svc = Arc::clone(&svc);
            let stats = Arc::clone(&stats);
            let stopping = Arc::clone(&stopping);
            let conns = Arc::clone(&conns);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("rmts-net-acceptor".to_string())
                .spawn(move || accept_loop(listener, cfg, svc, gauge, stats, stopping, conns))?
        };

        Ok(Server {
            addr,
            svc,
            stats,
            restore,
            recovery,
            snapshot: cfg.snapshot,
            stopping,
            stopped: AtomicBool::new(false),
            acceptor: Mutex::new(Some(acceptor)),
            conns,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backing service (e.g. for comparing over-the-wire answers with
    /// in-process ones, or reading `svc.*` statistics).
    pub fn service(&self) -> &Arc<Service> {
        &self.svc
    }

    /// What the snapshot restore found at startup.
    pub fn restore_report(&self) -> &RecordReport {
        &self.restore
    }

    /// What crash recovery found at startup: generation, memo restore,
    /// journal verification, and sessions rebuilt by replay. `None` when
    /// the server runs without [`NetConfig::durability`].
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Front-end counters so far.
    pub fn net_stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// Graceful stop (see the module docs for the order). Returns the
    /// final service statistics; the snapshot write error, if any,
    /// propagates. Idempotent — a second call only re-reads statistics.
    pub fn stop(&self) -> io::Result<ServiceStats> {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return Ok(self.svc.stats());
        }
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self
            .acceptor
            .lock()
            .expect("acceptor registry poisoned")
            .take()
        {
            let _ = h.join();
        }
        // Half-close every live connection: its serve loop finishes the
        // response in flight, then reads EOF and exits cleanly.
        {
            let streams = self.conns.streams.lock().expect("conn registry poisoned");
            for stream in streams.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.conns.handles.lock().expect("conn registry poisoned");
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        // Every accepted request has now been answered; close the shards
        // behind their locks and persist the memo.
        match &self.snapshot {
            Some(path) => {
                self.svc.shutdown_with_snapshot(path)?;
            }
            None => {
                self.svc.shutdown();
            }
        }
        Ok(self.svc.stats())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort: an unstopped server still unwinds cleanly; a
        // snapshot write failure here has nowhere to propagate.
        let _ = self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: NetConfig,
    svc: Arc<Service>,
    gauge: Arc<PressureGauge>,
    stats: Arc<NetStats>,
    stopping: Arc<AtomicBool>,
    conns: Arc<ConnRegistry>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stopping.load(Ordering::SeqCst) {
            return;
        }
        if conns.live.load(Ordering::Acquire) >= cfg.max_clients {
            // Refuse typed, never silently: the client learns within one
            // round-trip that the pool is full.
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let line = ErrorRecord::new(
                ErrorKind::Overloaded,
                format!("connection pool full ({} clients)", cfg.max_clients),
            )
            .to_line();
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.write_all(b"\n");
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        conns.live.fetch_add(1, Ordering::AcqRel);
        let id = conns.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(read_half) = stream.try_clone() {
            conns
                .streams
                .lock()
                .expect("conn registry poisoned")
                .insert(id, read_half);
        }
        let handle = {
            let svc = Arc::clone(&svc);
            let gauge = Arc::clone(&gauge);
            let stats = Arc::clone(&stats);
            let conns = Arc::clone(&conns);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name(format!("rmts-net-conn-{id}"))
                .spawn(move || {
                    serve_connection(stream, &cfg, &svc, &gauge, &stats);
                    conns
                        .streams
                        .lock()
                        .expect("conn registry poisoned")
                        .remove(&id);
                    conns.live.fetch_sub(1, Ordering::AcqRel);
                })
        };
        match handle {
            Ok(h) => {
                let mut guard = conns.handles.lock().expect("conn registry poisoned");
                // Reap finished threads so a long-lived server does not
                // accumulate one parked handle per past connection.
                guard.retain(|h| !h.is_finished());
                guard.push(h);
            }
            Err(_) => {
                conns
                    .streams
                    .lock()
                    .expect("conn registry poisoned")
                    .remove(&id);
                conns.live.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

/// One connection's serve loop: read a line, walk
/// rate-limit → parse → shed admission, answer every line — with an
/// analysis response or a typed error — in request order.
fn serve_connection(
    stream: TcpStream,
    cfg: &NetConfig,
    svc: &Service,
    gauge: &PressureGauge,
    stats: &NetStats,
) {
    let _ = stream.set_read_timeout(cfg.read_timeout);
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream, cfg.max_line_len);
    let mut bucket = TokenBucket::new(cfg.rate_per_sec, cfg.burst);
    // Per-connection response ordinal: this connection's stream is
    // indexed exactly like a serve-batch JSONL document.
    let mut next_index: usize = 0;
    loop {
        match reader.next_event() {
            LineEvent::Line(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                if !bucket.try_take() {
                    stats.rate_limited.fetch_add(1, Ordering::Relaxed);
                    let rec = ErrorRecord::new(
                        ErrorKind::RateLimited,
                        format!("rate limit {}/s exceeded", cfg.rate_per_sec),
                    );
                    if write_line(&mut writer, &rec.to_line()).is_err() {
                        return;
                    }
                    continue;
                }
                let req = match rmts_svc::parse_line(&line) {
                    Ok(Some(req)) => req,
                    Ok(None) => continue,
                    Err(e) => {
                        stats.malformed.fetch_add(1, Ordering::Relaxed);
                        let rec = ErrorRecord::new(ErrorKind::Malformed, e);
                        if write_line(&mut writer, &rec.to_line()).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let admission = gauge.admit();
                if admission == Admission::Overload {
                    stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                    let rec = ErrorRecord::new(
                        ErrorKind::Overloaded,
                        format!(
                            "{} requests in flight (bound {})",
                            gauge.in_flight(),
                            gauge.policy().overload_at
                        ),
                    );
                    if write_line(&mut writer, &rec.to_line()).is_err() {
                        return;
                    }
                    continue;
                }
                let ticket: Ticket = match req {
                    rmts_svc::Request::Analyze(req) => {
                        let req = if admission == Admission::Degrade {
                            // Rung 2: answer through the budget ladder —
                            // cheaper and *labeled* degraded, never wrong,
                            // never dropped.
                            stats.shed_degraded.fetch_add(1, Ordering::Relaxed);
                            req.with_budget(gauge.policy().degrade_budget)
                                .with_degrade(true)
                        } else {
                            req
                        };
                        svc.submit_indexed(next_index, req)
                    }
                    rmts_svc::Request::Repartition(req) => {
                        // Session ops are stateful: swapping their budget
                        // mid-stream would change the session's engine
                        // fingerprint, so they ride through unmodified.
                        svc.submit_repartition_indexed(next_index, req)
                    }
                };
                let resp = ticket.wait();
                gauge.finish();
                next_index += 1;
                stats.served.fetch_add(1, Ordering::Relaxed);
                let rendered = render_stream_responses(std::slice::from_ref(&resp));
                if writer.write_all(rendered.as_bytes()).is_err() {
                    return;
                }
                if writer.flush().is_err() {
                    return;
                }
            }
            LineEvent::Oversized => {
                // Answer typed, then drop: the connection's framing is no
                // longer trustworthy once a line blows the bound.
                stats.oversized.fetch_add(1, Ordering::Relaxed);
                let rec = ErrorRecord::new(
                    ErrorKind::Oversized,
                    format!("request line exceeds {} bytes", cfg.max_line_len),
                );
                let _ = write_line(&mut writer, &rec.to_line());
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
            LineEvent::Timeout { mid_line } => {
                // Idle or slow-loris either way: a clean, counted drop.
                if mid_line {
                    stats.disconnects.fetch_add(1, Ordering::Relaxed);
                }
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
            LineEvent::Eof { mid_line } => {
                if mid_line {
                    stats.disconnects.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            LineEvent::Err(_) => {
                stats.disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

fn write_line(writer: &mut TcpStream, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_svc::{AlgorithmSpec, AnalyzeRequest};
    use std::io::{BufRead, BufReader};

    fn analyze_line() -> String {
        serde_json::to_string(&AnalyzeRequest::new(
            vec![(1, 4), (2, 8), (2, 8), (4, 16)],
            2,
            AlgorithmSpec::RmTsLight,
        ))
        .unwrap()
    }

    #[test]
    fn serves_a_request_over_loopback() {
        let server = Server::start(NetConfig::new()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(format!("{}\n", analyze_line()).as_bytes())
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let rec: rmts_svc::ResponseRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(rec.index, 0);
        assert!(matches!(
            rec.outcome.verdict,
            rmts_svc::Verdict::Accepted { .. }
        ));
        drop(conn);
        let stats = server.stop().unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(server.net_stats().served, 1);
    }

    #[test]
    fn pool_overflow_is_refused_typed() {
        let server = Server::start(NetConfig::new().with_max_clients(1)).unwrap();
        let keeper = TcpStream::connect(server.addr()).unwrap();
        // The pool admits asynchronously; wait until the first connection
        // is registered before probing the bound.
        for _ in 0..200 {
            if server.net_stats().accepted == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let extra = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(extra);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let rec: ErrorRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(rec.error, "overloaded");
        drop(keeper);
        server.stop().unwrap();
        assert_eq!(server.net_stats().rejected, 1);
    }

    #[test]
    fn rate_limit_answers_typed_and_keeps_serving() {
        let server = Server::start(NetConfig::new().with_rate(1.0, 1.0)).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let line = analyze_line();
        conn.write_all(format!("{line}\n{line}\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(serde_json::from_str::<rmts_svc::ResponseRecord>(&first).is_ok());
        let mut second = String::new();
        reader.read_line(&mut second).unwrap();
        let rec: ErrorRecord = serde_json::from_str(&second).unwrap();
        assert_eq!(rec.error, "rate_limited");
        drop(conn);
        server.stop().unwrap();
        assert_eq!(server.net_stats().rate_limited, 1);
    }
}
