//! The traced run: the same script replayed on one thread through each
//! layer's public entry points, in the order the server calls them, with a
//! span around every call. Spans are recorded here, around the calls; the
//! program itself carries no tracing.
//!
//! Per request, inside a root `request` span:
//!
//! 1. the request line is written to a loopback socket and framed back by
//!    `LineReader::next_event` (`net.framing`);
//! 2. `rmts_svc::parse_line` (`svc.wire.decode`);
//! 3. `CanonicalSet::of_pairs` on v1 task sets and session bases
//!    (`svc.canonical`);
//! 4. `Service::submit_indexed(..).wait()` or
//!    `submit_repartition_indexed(..).wait()` on an in-process service of
//!    the server's size (`svc.service.submit_wait`);
//! 5. `render_stream_responses` (`svc.wire.encode`), then the response goes
//!    back over the socket.
//!
//! After the root closes, extra calls time the work that happened inside
//! the service, each as its own root span with the same request id:
//! `core.partition` (a memo miss: `AlgorithmSpec::build_with` +
//! `partition_with` on the canonical set), `core.session.open` /
//! `core.session.apply` (`PartitionSession::start` / `apply` on a mirror of
//! the session), `svc.journal.append` (`JournalWriter::append` of the op the
//! service journaled) and `svc.durability.checkpoint` (`Service::checkpoint`
//! at the server's cadence). Counters come from a second, recorded run of
//! each analysis under `rmts_obs::Recording` (`bench.recorded`), so the
//! timed calls carry no counting cost. Recovery is timed once, as
//! `svc.durability.recover` around `Service::with_durability`.
//!
//! Spans named `bench.*` are the benchmark's own bookkeeping; they are
//! excluded from every layer figure and from the traced round trip.

use crate::script::{Script, Workload};
use crate::{metric, stats, Metric};
use rmts_core::{PartitionSession, PartitionWorkspace, RepartitionError, RepartitionPath};
use rmts_net::{LineEvent, LineReader};
use rmts_obs::{Recording, StatsSnapshot};
use rmts_svc::journal::JournalWriter;
use rmts_svc::{
    engine_fingerprint, parse_line, render_stream_responses, AnalyzeRequest, CanonicalSet,
    DurabilityConfig, JournalOp, RepartitionRequest, Request, Service, ServiceConfig, SessionOp,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Measured-phase requests traced per run, at most (the warm-up comes on
/// top).
const MAX_TRACED: usize = 10_000;

struct Span {
    req: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans in memory, written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, req: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Ends a span; returns its duration in ns.
    fn close(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now();
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    fn timed<T>(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(req, parent, name);
        let out = f();
        (out, self.close(id))
    }

    /// Duration minus the time its child spans cover, per span.
    fn self_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let dir = path.parent().expect("span path has a directory");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let self_ns = self.self_times();
        let mut text = String::with_capacity(self.spans.len() * 120);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"req\":{},\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}\n",
                s.req,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns[id] as f64 / 1e3,
            ));
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Per-request figures of the replay, in nanoseconds.
#[derive(Default)]
struct RequestTimes {
    /// The root span minus the benchmark's own spans inside it.
    round_trip: u64,
    framing: u64,
    decode: u64,
    canonical: u64,
    submit_wait: u64,
    encode: u64,
    /// Shard busy time for a memo miss or session op: the analysis (and,
    /// for session ops, the journal append) as the service ran it.
    analysis: u64,
}

impl RequestTimes {
    /// Time on the request path that a layer call accounts for. The
    /// service canonicalizes, analyzes and journals inside
    /// `submit..wait`, so those are inside `submit_wait` here.
    fn attributed(&self) -> u64 {
        self.framing + self.decode + self.submit_wait + self.encode
    }

    /// `submit..wait` minus the canonicalization it repeats and, on a
    /// miss or session op, the shard's analysis: queue wait, thread
    /// handoff and memo lookup remain.
    fn dispatch(&self) -> f64 {
        self.submit_wait as f64 - (self.canonical + self.analysis) as f64
    }
}

/// Every analysis the service ran (a v1 memo miss or a session op), as
/// timed again here: clean times, admissions, and the counters of the
/// recorded rerun.
#[derive(Default)]
struct Analyses {
    count: u64,
    accepted: u64,
    partition_ns: Vec<f64>,
    /// v1 memo misses: one memo entry each.
    v1_misses: u64,
    probes: u64,
    maxsplit_calls: u64,
    splits: u64,
    rta_hits: u64,
    rta_probes: u64,
    resteps: u64,
    bsearch_iters: u64,
    candidate_scan_ns: u64,
    maxsplit_ns: u64,
}

impl Analyses {
    fn add(&mut self, clean_ns: u64, accepted: bool, snap: &StatsSnapshot) {
        self.count += 1;
        self.accepted += u64::from(accepted);
        self.partition_ns.push(clean_ns as f64);
        self.probes += snap.counter("core.admission.probes");
        self.maxsplit_calls += snap.counter("core.maxsplit.calls");
        self.splits += snap.counter("core.engine.splits");
        self.rta_hits += snap.counter("rta.cache.hits");
        self.rta_probes += snap.counter("rta.cache.probes");
        self.resteps += snap.counter("rta.cache.resteps");
        self.bsearch_iters += snap.counter("rta.maxsplit.bsearch_iters");
        let sum = |key| snap.histogram(key).map_or(0, |h| h.sum);
        self.candidate_scan_ns += sum("core.phase.candidate_scan_ns");
        self.maxsplit_ns += sum("core.phase.maxsplit_ns");
    }

    fn per(&self, total: u64) -> f64 {
        total as f64 / self.count.max(1) as f64
    }
}

#[derive(Default)]
struct Sessions {
    open_ns: Vec<f64>,
    apply_ns: Vec<f64>,
    applies: u64,
    incremental: u64,
    rejected: u64,
    spliced: u64,
    reused_steps: u64,
    live_steps: u64,
    append_ns: Vec<f64>,
    appended_bytes: u64,
    checkpoint_ms: Vec<f64>,
    compacted_bytes: Vec<f64>,
    recover_ms: f64,
    replayed_ops: u64,
}

/// Two mirrors of the service's sessions: one timed clean, one run under
/// a recording for its counters. Both see the same ops, so they stay in
/// the service's state.
#[derive(Default)]
struct Mirrors {
    clean: HashMap<String, PartitionSession>,
    recorded: HashMap<String, PartitionSession>,
}

fn start_session(base: &AnalyzeRequest) -> Option<PartitionSession> {
    let ts = CanonicalSet::of_pairs(&base.taskset).to_taskset().ok()?;
    let engine = base
        .algorithm
        .build_repartitioner(ts.len(), &base.options())
        .ok()?;
    PartitionSession::start(engine, ts, base.m).ok()
}

impl Mirrors {
    /// Applies `req` to one mirror fleet. Returns the journal record the
    /// op earns when it changes durable state (rejected, no-op and invalid
    /// ops earn none) and, for deltas, the path and whether admission
    /// rejected it.
    fn apply(
        fleet: &mut HashMap<String, PartitionSession>,
        req: &RepartitionRequest,
    ) -> (Option<JournalOp>, Option<(RepartitionPath, bool)>) {
        let name = &req.session;
        match &req.op {
            SessionOp::Open { base } => match start_session(base) {
                Some(session) => {
                    fleet.insert(name.clone(), session);
                    let op = JournalOp::Open {
                        session: name.clone(),
                        base: base.clone(),
                    };
                    (Some(op), None)
                }
                None => (None, None),
            },
            SessionOp::Delta { delta } => {
                let Some(session) = fleet.get_mut(name) else {
                    return (None, None);
                };
                match session.apply(delta) {
                    Ok(ok) if ok.path == RepartitionPath::Noop => (None, Some((ok.path, false))),
                    Ok(ok) => {
                        let op = JournalOp::Delta {
                            session: name.clone(),
                            delta: delta.clone(),
                        };
                        (Some(op), Some((ok.path, false)))
                    }
                    Err(RepartitionError::Rejected { path, .. }) => (None, Some((path, true))),
                    Err(RepartitionError::Delta(_)) => (None, None),
                }
            }
            SessionOp::Close => match fleet.remove(name) {
                Some(_) => (
                    Some(JournalOp::Close {
                        session: name.clone(),
                    }),
                    None,
                ),
                None => (None, None),
            },
        }
    }
}

/// The replay order: connections interleaved one request at a time, each
/// connection's own order kept.
fn interleave(plan: &[Vec<usize>]) -> Vec<(usize, usize)> {
    let longest = plan.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for k in 0..longest {
        for (c, indices) in plan.iter().enumerate() {
            if let Some(&i) = indices.get(k) {
                out.push((c, i));
            }
        }
    }
    out
}

pub fn run(
    script: &Script,
    conns: usize,
    seconds: u64,
    lat_p50_us: f64,
    prefill: &Path,
    work: &Path,
    spans_path: &Path,
) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut sessions = Sessions::default();
    let mut mirrors = Mirrors::default();
    let cfg = ServiceConfig::new().with_shards(conns);
    let cadence = DurabilityConfig::new(work);
    let durable = script.workload == Workload::SessionJournal;

    // The service, recovered from the prefilled journal on session-journal.
    // Its own scheduler is parked: the replay checkpoints at the server's
    // cadence itself, inside a span.
    let svc = if durable {
        let dir = work.join("trace-journal");
        crate::e2e::copy_dir(prefill, &dir)?;
        let dcfg = DurabilityConfig::new(&dir)
            .with_snapshot_interval(Duration::from_secs(3600))
            .with_snapshot_every_mutations(u64::MAX);
        let (recovered, ns) = tr.timed(0, None, "svc.durability.recover", || {
            Service::with_durability(cfg, dcfg)
        });
        let (svc, report) = recovered.map_err(|e| format!("recover traced service: {e}"))?;
        sessions.recover_ms = ns as f64 / 1e6;
        sessions.replayed_ops = report.ops_replayed as u64;
        // Bring both mirrors to the recovered state (untimed).
        for (_, i) in interleave(&script.warmup) {
            if let Ok(Some(Request::Repartition(req))) = parse_line(&script.pool[i].text) {
                Mirrors::apply(&mut mirrors.clean, &req);
                Mirrors::apply(&mut mirrors.recorded, &req);
            }
        }
        svc
    } else {
        Service::new(cfg)
    };
    let mut journal = JournalWriter::create(&work.join("trace-bench.log"), &engine_fingerprint())
        .map_err(|e| format!("create bench journal: {e}"))?;
    let mut last_checkpoint = Instant::now();

    // One loopback connection stands in for the client's: the replay
    // writes each line, frames it back, and reads the response.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut client = TcpStream::connect(listener.local_addr().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let (server_side, _) = listener.accept().map_err(|e| e.to_string())?;
    client.set_nodelay(true).map_err(|e| e.to_string())?;
    server_side.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = server_side.try_clone().map_err(|e| e.to_string())?;
    let mut reader = LineReader::new(server_side, 1 << 20);
    let mut back = BufReader::new(client.try_clone().map_err(|e| e.to_string())?);

    let mut order = Vec::new();
    if !durable {
        order.extend(interleave(&script.warmup));
    }
    let warmup_len = order.len();
    order.extend(interleave(&script.measured));
    order.truncate(warmup_len + MAX_TRACED);

    let mut next_index = vec![0usize; conns];
    let mut times: Vec<RequestTimes> = Vec::with_capacity(order.len());
    let mut analyses = Analyses::default();
    let mut ws = PartitionWorkspace::new();
    let (mut v1, mut v1_hits, mut bytes_in, mut bytes_out) = (0u64, 0u64, 0u64, 0u64);
    let mut response = String::new();
    let busy = || -> u64 { svc.stats().shard_busy_ns.iter().sum() };
    let busy0 = busy();
    let waits0 = svc.stats().backpressure_waits;
    let mut busy_seen = busy0;
    let replay_start = Instant::now();
    let budget = Duration::from_secs(seconds);

    for (k, &(c, i)) in order.iter().enumerate() {
        // Session-journal replays on past the budget until one checkpoint
        // has been timed.
        let checkpointed = !durable || !sessions.checkpoint_ms.is_empty();
        if k >= warmup_len && replay_start.elapsed() >= budget && checkpointed {
            break;
        }
        let line = &script.pool[i];
        let req_id = k as u64 + 1;
        let mut t = RequestTimes::default();
        let root = tr.open(req_id, None, "request");
        client
            .write_all(line.text.as_bytes())
            .map_err(|e| format!("traced write: {e}"))?;
        let (event, ns) = tr.timed(req_id, Some(root), "net.framing", || reader.next_event());
        t.framing = ns;
        let LineEvent::Line(text) = event else {
            return Err(format!("traced framing returned {event:?}"));
        };
        let (parsed, ns) = tr.timed(req_id, Some(root), "svc.wire.decode", || parse_line(&text));
        t.decode = ns;
        let request = match parsed {
            Ok(Some(r)) => r,
            other => return Err(format!("traced decode of script line {i}: {other:?}")),
        };
        let taskset = match &request {
            Request::Analyze(a) => Some(&a.taskset),
            Request::Repartition(RepartitionRequest {
                op: SessionOp::Open { base },
                ..
            }) => Some(&base.taskset),
            _ => None,
        };
        let canonical = taskset.map(|ts| {
            let (canon, ns) = tr.timed(req_id, Some(root), "svc.canonical", || {
                CanonicalSet::of_pairs(ts)
            });
            t.canonical = ns;
            canon
        });
        // The service consumes the request; the extras below need it too.
        let (kept, clone_ns) = tr.timed(req_id, Some(root), "bench.clone", || request.clone());
        let index = next_index[c];
        next_index[c] += 1;
        let (resp, ns) = tr.timed(
            req_id,
            Some(root),
            "svc.service.submit_wait",
            || match request {
                Request::Analyze(a) => svc.submit_indexed(index, a).wait(),
                Request::Repartition(r) => svc.submit_repartition_indexed(index, r).wait(),
            },
        );
        t.submit_wait = ns;
        let (rendered, ns) = tr.timed(req_id, Some(root), "svc.wire.encode", || {
            render_stream_responses(std::slice::from_ref(&resp))
        });
        t.encode = ns;
        writer
            .write_all(rendered.as_bytes())
            .map_err(|e| format!("traced response write: {e}"))?;
        response.clear();
        back.read_line(&mut response)
            .map_err(|e| format!("traced response read: {e}"))?;
        t.round_trip = tr.close(root) - clone_ns;
        bytes_in += line.text.len() as u64;
        bytes_out += response.len() as u64;

        match kept {
            Request::Analyze(a) => {
                v1 += 1;
                if resp.memo_hit {
                    v1_hits += 1;
                } else {
                    let ts = canonical
                        .expect("v1 requests are canonicalized")
                        .to_taskset()
                        .map_err(|e| format!("script line {i}: {e}"))?;
                    let engine = a
                        .algorithm
                        .build_with(ts.len(), &a.options())
                        .map_err(|e| format!("script line {i}: {e}"))?;
                    let (result, ns) = tr.timed(req_id, None, "core.partition", || {
                        let result = engine.partition_with(&ts, a.m, &mut ws);
                        let accepted = result.is_ok();
                        match result {
                            Ok(p) => ws.recycle(p),
                            Err(rej) => ws.recycle(rej.partial),
                        }
                        accepted
                    });
                    let (snap, _) = tr.timed(req_id, None, "bench.recorded", || {
                        let rec = Recording::start();
                        let _ = engine.partition_with(&ts, a.m, &mut ws);
                        rec.finish()
                    });
                    analyses.add(ns, result, &snap);
                    analyses.v1_misses += 1;
                }
            }
            Request::Repartition(r) => {
                let name = match r.op {
                    SessionOp::Open { .. } => "core.session.open",
                    SessionOp::Delta { .. } => "core.session.apply",
                    SessionOp::Close => "core.session.close",
                };
                let ((outcome, path), ns) = tr.timed(req_id, None, name, || {
                    Mirrors::apply(&mut mirrors.clean, &r)
                });
                let (snap, _) = tr.timed(req_id, None, "bench.recorded", || {
                    let rec = Recording::start();
                    Mirrors::apply(&mut mirrors.recorded, &r);
                    rec.finish()
                });
                match r.op {
                    SessionOp::Open { .. } => {
                        sessions.open_ns.push(ns as f64);
                        analyses.add(ns, outcome.is_some(), &snap);
                    }
                    SessionOp::Delta { .. } => {
                        sessions.apply_ns.push(ns as f64);
                        analyses.add(ns, matches!(path, Some((_, false))), &snap);
                        if let Some((path, rejected)) = path {
                            sessions.applies += 1;
                            sessions.incremental += u64::from(path == RepartitionPath::Incremental);
                            sessions.rejected += u64::from(rejected);
                        }
                        sessions.spliced += snap.counter("core.session.spliced_applies");
                        sessions.reused_steps += snap.counter("core.session.reused_steps");
                        sessions.live_steps += snap.counter("core.session.live_steps");
                    }
                    SessionOp::Close => {}
                }
                if let Some(op) = outcome {
                    let (written, ns) =
                        tr.timed(req_id, None, "svc.journal.append", || journal.append(&op));
                    let bytes = written.map_err(|e| format!("bench journal append: {e}"))?;
                    sessions.append_ns.push(ns as f64);
                    sessions.appended_bytes += bytes as u64;
                }
            }
        }
        // The shard adds its busy time just after replying; by now (after
        // the extras) it has.
        let busy_now = busy();
        if !resp.memo_hit {
            t.analysis = busy_now - busy_seen;
        }
        busy_seen = busy_now;
        if durable {
            let due = svc
                .durability_stats()
                .is_some_and(|d| d.mutations_since_checkpoint >= cadence.snapshot_every_mutations)
                || last_checkpoint.elapsed() >= cadence.snapshot_interval;
            if due {
                let (report, ns) = tr.timed(req_id, None, "svc.durability.checkpoint", || {
                    svc.checkpoint()
                });
                if let Some(report) = report.map_err(|e| format!("traced checkpoint: {e}"))? {
                    sessions.checkpoint_ms.push(ns as f64 / 1e6);
                    sessions.compacted_bytes.push(report.journal_bytes as f64);
                }
                last_checkpoint = Instant::now();
                // The barrier's pause counts as shard busy time; keep it
                // out of the next request's figure.
                busy_seen = busy();
            }
        }
        times.push(t);
    }
    let replay_s = replay_start.elapsed().as_secs_f64();
    let svc_stats = svc.stats();
    let busy_s = (svc_stats.shard_busy_ns.iter().sum::<u64>() - busy0) as f64 / 1e9;
    let backpressure_waits = svc_stats.backpressure_waits - waits0;
    svc.shutdown();
    tr.write(spans_path)?;

    let traced = times.len();
    if traced == 0 {
        return Err("traced replay served no requests".into());
    }
    let us = |v: &[f64]| stats::median(v) / 1e3;
    let col =
        |f: fn(&RequestTimes) -> u64| -> Vec<f64> { times.iter().map(|t| f(t) as f64).collect() };
    let attributed_us = us(&col(RequestTimes::attributed));
    let canonical_ns: Vec<f64> = times
        .iter()
        .filter(|t| t.canonical > 0)
        .map(|t| t.canonical as f64)
        .collect();
    let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    // Where the request path's time goes, summed over the replay.
    let total = |f: fn(&RequestTimes) -> f64| -> f64 { times.iter().map(f).sum() };
    let shares = [
        ("analysis", total(|t| t.analysis as f64)),
        ("framing", total(|t| t.framing as f64)),
        ("decode", total(|t| t.decode as f64)),
        ("canonical", total(|t| t.canonical as f64)),
        ("dispatch", total(RequestTimes::dispatch)),
        ("encode", total(|t| t.encode as f64)),
    ];
    if script.workload == Workload::FreshDeep {
        let top = shares
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        if top.0 != "analysis" {
            return Err(format!(
                "fresh-deep workload drifted: {} ({:.0} ms) outweighs partitioning in the \
                 traced run",
                top.0,
                top.1 / 1e6
            ));
        }
    }
    if script.workload == Workload::SessionJournal {
        let replayed = sessions.incremental.saturating_sub(sessions.spliced);
        if sessions.spliced == 0 || replayed == 0 || sessions.rejected == 0 {
            return Err(format!(
                "session-journal workload drifted: {} spliced, {} replayed and {} rejected \
                 applies in the traced run; each must occur",
                sessions.spliced, replayed, sessions.rejected
            ));
        }
    }

    Ok(vec![
        metric("net.framing_us", us(&col(|t| t.framing)), "us"),
        metric("net.unattributed_us", lat_p50_us - attributed_us, "us"),
        metric("svc.wire.decode_us", us(&col(|t| t.decode)), "us"),
        metric("svc.wire.encode_us", us(&col(|t| t.encode)), "us"),
        metric("svc.wire.bytes_in", frac(bytes_in, traced as u64), "bytes"),
        metric(
            "svc.wire.bytes_out",
            frac(bytes_out, traced as u64),
            "bytes",
        ),
        metric("svc.canonical_us", us(&canonical_ns), "us"),
        metric(
            "svc.service.dispatch_us",
            us(&times.iter().map(RequestTimes::dispatch).collect::<Vec<_>>()),
            "us",
        ),
        metric(
            "svc.shard.busy_frac",
            busy_s / (replay_s * conns as f64),
            "ratio",
        ),
        metric(
            "svc.queue.max_depth",
            svc_stats.max_queue_depth as f64,
            "count",
        ),
        metric(
            "svc.queue.backpressure_waits",
            backpressure_waits as f64,
            "count",
        ),
        metric("svc.shard.memo_hit_ratio", frac(v1_hits, v1), "ratio"),
        metric("svc.shard.memo_entries", analyses.v1_misses as f64, "count"),
        metric("core.partition_us", us(&analyses.partition_ns), "us"),
        metric(
            "core.accept_ratio",
            frac(analyses.accepted, analyses.count),
            "ratio",
        ),
        metric(
            "core.admission.probes_per_miss",
            analyses.per(analyses.probes),
            "count",
        ),
        metric(
            "core.maxsplit.calls_per_miss",
            analyses.per(analyses.maxsplit_calls),
            "count",
        ),
        metric(
            "core.engine.splits_per_miss",
            analyses.per(analyses.splits),
            "count",
        ),
        metric(
            "core.phase.candidate_scan_us",
            analyses.per(analyses.candidate_scan_ns) / 1e3,
            "us",
        ),
        metric(
            "core.phase.maxsplit_us",
            analyses.per(analyses.maxsplit_ns) / 1e3,
            "us",
        ),
        metric(
            "rta.cache.hit_ratio",
            frac(analyses.rta_hits, analyses.rta_probes),
            "ratio",
        ),
        metric(
            "rta.cache.resteps_per_miss",
            analyses.per(analyses.resteps),
            "count",
        ),
        metric(
            "rta.maxsplit.bsearch_iters_per_miss",
            analyses.per(analyses.bsearch_iters),
            "count",
        ),
        metric("core.session.open_us", us(&sessions.open_ns), "us"),
        metric("core.session.apply_us", us(&sessions.apply_ns), "us"),
        metric(
            "core.session.incremental_frac",
            frac(sessions.incremental, sessions.applies),
            "ratio",
        ),
        metric(
            "core.session.spliced_frac",
            frac(sessions.spliced, sessions.applies),
            "ratio",
        ),
        metric(
            "core.session.reused_step_frac",
            frac(
                sessions.reused_steps,
                sessions.reused_steps + sessions.live_steps,
            ),
            "ratio",
        ),
        metric(
            "core.session.reject_frac",
            frac(sessions.rejected, sessions.applies),
            "ratio",
        ),
        metric("svc.journal.append_us", us(&sessions.append_ns), "us"),
        metric(
            "svc.journal.bytes_per_op",
            frac(sessions.appended_bytes, sessions.append_ns.len() as u64),
            "bytes",
        ),
        metric(
            "svc.durability.checkpoint_ms",
            stats::median(&sessions.checkpoint_ms),
            "ms",
        ),
        metric(
            "svc.durability.checkpoint_max_ms",
            sessions.checkpoint_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        metric(
            "svc.durability.compacted_bytes",
            stats::median(&sessions.compacted_bytes),
            "bytes",
        ),
        metric("svc.durability.recover_ms", sessions.recover_ms, "ms"),
        metric(
            "svc.durability.replayed_ops",
            sessions.replayed_ops as f64,
            "count",
        ),
        metric(
            "trace.overhead_frac",
            us(&col(|t| t.round_trip)) / lat_p50_us - 1.0,
            "ratio",
        ),
    ])
}
