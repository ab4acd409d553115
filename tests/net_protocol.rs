//! Protocol battery for the TCP front end: over-the-wire answers must be
//! **bit-identical** to in-process [`Service`] answers — v1 analyze lines,
//! v2 session streams, pipelining, concurrent and interleaved clients, and
//! kill/restart warm starts from the memo snapshot.

use rmts::gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts::net::{NetConfig, Server};
use rmts::svc::{
    render_stream_responses, wire, AnalyzeRequest, RepartitionRequest, Request, Service,
    ServiceConfig,
};
use rmts::taskmodel::{Task, TaskSetDelta};
use rmts_core::{AlgorithmSpec, BoundSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Barrier;

/// A self-cleaning temp path for snapshot files.
struct TempPath(PathBuf);

impl TempPath {
    fn new(name: &str) -> TempPath {
        TempPath(std::env::temp_dir().join(format!("{}_{name}", std::process::id())))
    }
    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig::new().with_shards(3)
}

fn start_server() -> Server {
    Server::start(NetConfig::new().with_service(service_config())).unwrap()
}

/// A JSONL client over one persistent connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client {
            writer: stream,
            reader,
        }
    }

    fn send_lines(&mut self, lines: &[String]) {
        let mut doc = String::new();
        for l in lines {
            doc.push_str(l);
            doc.push('\n');
        }
        self.writer.write_all(doc.as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "server closed mid-stream: {line:?}");
        line.trim_end().to_string()
    }

    fn read_lines(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.read_line()).collect()
    }
}

fn analyze(pairs: Vec<(u64, u64)>, m: usize) -> AnalyzeRequest {
    AnalyzeRequest::new(pairs, m, AlgorithmSpec::RmTsLight)
}

fn to_line(req: &Request) -> String {
    match req {
        Request::Analyze(r) => serde_json::to_string(r).unwrap(),
        Request::Repartition(r) => serde_json::to_string(r).unwrap(),
    }
}

/// A mixed v1/v2 stream: distinct sets, exact duplicates (memo hits), and
/// a session script with incremental deltas.
fn mixed_stream() -> Vec<Request> {
    let base = analyze(vec![(1, 4), (2, 8), (2, 8), (4, 16), (3, 12)], 2);
    vec![
        Request::Analyze(analyze(vec![(1, 4), (2, 8)], 2)),
        Request::Analyze(analyze(vec![(1, 4), (2, 8), (2, 8), (4, 16)], 2)),
        // Duplicate of the first line: a memo hit on both paths.
        Request::Analyze(analyze(vec![(1, 4), (2, 8)], 2)),
        Request::Repartition(RepartitionRequest::open("wire-s", base)),
        Request::Repartition(RepartitionRequest::delta(
            "wire-s",
            TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
        )),
        Request::Analyze(analyze(vec![(2, 4), (2, 8)], 1)),
        Request::Repartition(RepartitionRequest::delta(
            "wire-s",
            TaskSetDelta::remove(rmts::taskmodel::TaskId(4)),
        )),
        // Permuted duplicate of line 1: canonicalization makes it a hit.
        Request::Analyze(analyze(vec![(2, 8), (1, 4)], 2)),
    ]
}

#[test]
fn wire_stream_is_bit_identical_to_in_process_run_stream() {
    // One connection pipelining a mixed v1/v2 stream must produce, line
    // for line, the bytes `run_stream` + `render_stream_responses` yield
    // for the same requests on an identically configured service.
    let reqs = mixed_stream();
    let reference = Service::new(service_config());
    let expected = render_stream_responses(&reference.run_stream(reqs.clone()));
    let expected: Vec<&str> = expected.lines().collect();

    let server = start_server();
    let mut client = Client::connect(&server);
    let lines: Vec<String> = reqs.iter().map(to_line).collect();
    client.send_lines(&lines);
    let got = client.read_lines(lines.len());
    for (i, (got, want)) in got.iter().zip(expected.iter()).enumerate() {
        assert_eq!(got, want, "response line {i} differs over the wire");
    }
    drop(client);
    server.stop().unwrap();
}

#[test]
fn pipelined_requests_are_answered_in_order_with_connection_ordinals() {
    let server = start_server();
    let mut client = Client::connect(&server);
    let lines: Vec<String> = (1..=8)
        .map(|k| serde_json::to_string(&analyze(vec![(1, 4 * k), (2, 8 * k)], 2)).unwrap())
        .collect();
    client.send_lines(&lines);
    for (i, line) in client.read_lines(8).iter().enumerate() {
        let rec: wire::ResponseRecord = serde_json::from_str(line).unwrap();
        assert_eq!(rec.index, i, "per-connection response ordinal");
    }
    drop(client);
    server.stop().unwrap();
}

#[test]
fn second_connection_gets_fresh_ordinals() {
    let server = start_server();
    let line = serde_json::to_string(&analyze(vec![(1, 4), (2, 8)], 2)).unwrap();
    for _ in 0..2 {
        let mut client = Client::connect(&server);
        client.send_lines(std::slice::from_ref(&line));
        let rec: wire::ResponseRecord = serde_json::from_str(&client.read_line()).unwrap();
        assert_eq!(rec.index, 0, "each connection's stream starts at index 0");
    }
    server.stop().unwrap();
}

#[test]
fn concurrent_closed_loop_clients_are_each_answered_once_and_in_order() {
    // Eight clients, each on its own connection, send one request and
    // wait for its answer, repeatedly, over duplicate-heavy traffic. Every
    // answer must equal the in-process answer to the same question, the
    // ordinals must be dense per connection, and nothing may be shed,
    // throttled or refused.
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 40;
    let service = ServiceConfig::new().with_shards(8);
    let reqs: Vec<AnalyzeRequest> = (0..16u64)
        .map(|trial| {
            let pairs = GenConfig::new(24 + (trial % 8) as usize, 0.85 * 4.0)
                .with_periods(PeriodGen::LogUniform {
                    min: 10_000,
                    max: 1_000_000,
                    granularity: 10_000,
                })
                .with_utilization(UtilizationSpec::capped(0.6))
                .generate(&mut trial_rng(0xA7, trial))
                .expect("generator")
                .tasks()
                .iter()
                .map(|t| (t.wcet.ticks(), t.period.ticks()))
                .collect();
            let algorithm = if trial % 2 == 0 {
                AlgorithmSpec::RmTsLight
            } else {
                AlgorithmSpec::RmTs {
                    bound: BoundSpec::HarmonicChain,
                }
            };
            AnalyzeRequest::new(pairs, 4, algorithm)
        })
        .collect();
    let reference =
        Service::new(service).run_stream(reqs.iter().cloned().map(Request::Analyze).collect());
    let reference: Vec<wire::ResponseRecord> = render_stream_responses(&reference)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let lines: Vec<String> = reqs
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();

    let server = Server::start(NetConfig::new().with_service(service)).unwrap();
    let connected = Barrier::new(CLIENTS);
    let answered: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (server, connected, lines, reference) =
                    (&server, &connected, &lines, &reference);
                scope.spawn(move || {
                    let mut client = Client::connect(server);
                    connected.wait();
                    for i in 0..PER_CLIENT {
                        // Clients start at different sets, so hits and
                        // misses mix across connections.
                        let k = (id * 7 + i) % lines.len();
                        client.send_lines(std::slice::from_ref(&lines[k]));
                        let mut rec: wire::ResponseRecord =
                            serde_json::from_str(&client.read_line()).unwrap();
                        assert_eq!(rec.index, i, "client {id}: ordinals must be dense");
                        // Whether the memo answered depends on timing.
                        rec.index = reference[k].index;
                        rec.memo_hit = reference[k].memo_hit;
                        assert_eq!(rec, reference[k], "client {id}, request {i}");
                    }
                    PER_CLIENT
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });

    let total = CLIENTS * PER_CLIENT;
    assert_eq!(answered, total);
    let net = server.net_stats();
    assert_eq!(net.served, total as u64, "{net:?}");
    assert_eq!(net.shed_degraded + net.shed_overloaded, 0, "{net:?}");
    assert_eq!(
        net.malformed + net.oversized + net.rate_limited,
        0,
        "{net:?}"
    );
    assert_eq!(server.stop().unwrap().completed, total as u64);
}

#[test]
fn interleaved_sessions_from_two_clients_stay_isolated() {
    // Two clients drive two sessions whose ops interleave arbitrarily on
    // the server. Each client's answers must match a dedicated in-process
    // service running only its own script — sessions cannot bleed.
    let base_a = analyze(vec![(1, 4), (2, 8), (2, 8), (4, 16), (3, 12)], 2);
    let base_b = analyze(vec![(2, 6), (3, 9), (4, 12), (6, 18)], 2);
    let script_a = vec![
        Request::Repartition(RepartitionRequest::open("client-a", base_a)),
        Request::Repartition(RepartitionRequest::delta(
            "client-a",
            TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
        )),
        Request::Repartition(RepartitionRequest::delta(
            "client-a",
            TaskSetDelta::remove(rmts::taskmodel::TaskId(4)),
        )),
    ];
    let script_b = vec![
        Request::Repartition(RepartitionRequest::open("client-b", base_b)),
        Request::Repartition(RepartitionRequest::delta(
            "client-b",
            TaskSetDelta::add(Task::from_ticks(9, 1, 36).unwrap()),
        )),
        Request::Repartition(RepartitionRequest::delta(
            "client-b",
            TaskSetDelta::update(Task::from_ticks(0, 3, 6).unwrap()),
        )),
    ];

    let server = start_server();
    let mut a = Client::connect(&server);
    let mut b = Client::connect(&server);
    // Interleave: a0, b0, b1, a1, a2, b2 — each client reads its answer
    // before the next op so the interleaving is real, not buffered away.
    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    let step = |client: &mut Client, script: &[Request], got: &mut Vec<String>, idx: usize| {
        client.send_lines(&[to_line(&script[idx])]);
        got.push(client.read_line());
    };
    step(&mut a, &script_a, &mut got_a, 0);
    step(&mut b, &script_b, &mut got_b, 0);
    step(&mut b, &script_b, &mut got_b, 1);
    step(&mut a, &script_a, &mut got_a, 1);
    step(&mut a, &script_a, &mut got_a, 2);
    step(&mut b, &script_b, &mut got_b, 2);
    drop(a);
    drop(b);
    server.stop().unwrap();

    for (script, got) in [(script_a, got_a), (script_b, got_b)] {
        let reference = Service::new(service_config());
        let expected = render_stream_responses(&reference.run_stream(script));
        for (i, (got, want)) in got.iter().zip(expected.lines()).enumerate() {
            // Outcome, path, and session name must agree with a dedicated
            // in-process run; shard numbers may differ (routing hashes
            // both streams onto one fleet), so compare the records
            // field-by-field minus the shard.
            let mut got: wire::SessionRecord = serde_json::from_str(got).unwrap();
            let want: wire::SessionRecord = serde_json::from_str(want).unwrap();
            got.shard = want.shard;
            assert_eq!(got, want, "session op {i}");
        }
    }
}

#[test]
fn kill_restart_serves_warm_from_snapshot() {
    let snap = TempPath::new("net_protocol_snap.bin");
    let reqs: Vec<String> = (1..=4)
        .map(|k| {
            serde_json::to_string(&analyze(vec![(1, 4 * k), (2, 8 * k), (3, 12 * k)], 2)).unwrap()
        })
        .collect();

    // First life: analyze fresh, then stop (drains into the snapshot).
    let snap_path = snap.path().to_path_buf();
    let cfg = move || {
        NetConfig::new()
            .with_service(service_config())
            .with_snapshot(snap_path.clone())
    };
    let server = Server::start(cfg()).unwrap();
    assert_eq!(server.restore_report().records, 0);
    let mut client = Client::connect(&server);
    client.send_lines(&reqs);
    let first_life = client.read_lines(reqs.len());
    for line in &first_life {
        let rec: wire::ResponseRecord = serde_json::from_str(line).unwrap();
        assert!(!rec.memo_hit, "first life must analyze fresh");
    }
    drop(client);
    server.stop().unwrap();
    assert!(snap.path().exists(), "stop writes the snapshot");

    // Second life: the same questions are all memo hits, and the answers
    // are bit-identical to the first life's.
    let server = Server::start(cfg()).unwrap();
    assert_eq!(server.restore_report().records, 4);
    assert!(!server.restore_report().stale);
    assert!(!server.restore_report().corrupt);
    let mut client = Client::connect(&server);
    client.send_lines(&reqs);
    let second_life = client.read_lines(reqs.len());
    for (i, (a, b)) in first_life.iter().zip(second_life.iter()).enumerate() {
        let fresh: wire::ResponseRecord = serde_json::from_str(a).unwrap();
        let warm: wire::ResponseRecord = serde_json::from_str(b).unwrap();
        assert!(
            warm.memo_hit,
            "request {i} must warm-start from the snapshot"
        );
        assert_eq!(warm.outcome, fresh.outcome, "request {i} outcome drifted");
        assert_eq!(warm.canonical_hash, fresh.canonical_hash);
        assert_eq!(warm.shard, fresh.shard, "routing must be restore-invariant");
    }
    drop(client);
    let stats = server.stop().unwrap();
    assert_eq!(stats.memo_hits, 4);
    assert_eq!(stats.memo_misses, 0);
}

#[test]
fn foreign_fingerprint_snapshot_is_rejected_cold() {
    use rmts::svc::snapshot::write_snapshot_as;

    let snap = TempPath::new("net_protocol_stale.bin");
    // Produce a genuine snapshot, then rewrite it under a foreign engine
    // fingerprint — as if a different build had written it.
    let svc = Service::new(service_config());
    svc.run_stream(vec![Request::Analyze(analyze(vec![(1, 4), (2, 8)], 2))]);
    let tmp = TempPath::new("net_protocol_stale_src.bin");
    svc.shutdown_with_snapshot(tmp.path()).unwrap();
    let (entries, _) = rmts::svc::snapshot::read_snapshot(tmp.path());
    write_snapshot_as(snap.path(), "rmts-engine/999.0.0/memo-fmt0", &entries).unwrap();

    let server = Server::start(
        NetConfig::new()
            .with_service(service_config())
            .with_snapshot(snap.path()),
    )
    .unwrap();
    let report = server.restore_report();
    assert!(report.stale, "foreign fingerprint must read as stale");
    assert_eq!(
        report.records, 0,
        "no entry from a stale snapshot is trusted"
    );

    // Cold but working: the same question analyzes fresh.
    let mut client = Client::connect(&server);
    client.send_lines(&[serde_json::to_string(&analyze(vec![(1, 4), (2, 8)], 2)).unwrap()]);
    let rec: wire::ResponseRecord = serde_json::from_str(&client.read_line()).unwrap();
    assert!(!rec.memo_hit);
    assert!(matches!(
        rec.outcome.verdict,
        rmts::svc::Verdict::Accepted { .. }
    ));
    drop(client);
    server.stop().unwrap();
}
