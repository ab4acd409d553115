//! Closed-loop multi-client load generator for the TCP front end.
//!
//! An in-process [`Server`] (8-shard service) is driven
//! by `CLIENTS` threads over real loopback TCP. Each client is a closed
//! loop — send one JSONL request, block for the response line, repeat —
//! so offered load tracks service rate and the measured latencies are
//! honest round-trip times, not queue-growth artifacts.
//!
//! Three gates before the numbers are recorded:
//!
//! * every response parses as a [`ResponseRecord`] with a dense
//!   per-client index (the protocol holds under concurrency);
//! * zero shed at this rate (closed-loop clients keep at most `CLIENTS`
//!   requests in flight, far below the ladder's rungs, so it must stay on
//!   rung 1 — `Pass`);
//! * request conservation: responses received == requests sent.
//!
//! The report — throughput plus p50/p95/p99 round-trip latency — merges
//! into `BENCH_service.json` under the `"net"` key, next to the
//! in-process service numbers it fronts.

use rmts_bench::SEED;
use rmts_core::{AlgorithmSpec, BoundSpec};
use rmts_gen::{trial_rng, GenConfig, PeriodGen, UtilizationSpec};
use rmts_net::{NetConfig, Server};
use rmts_svc::{wire, AnalyzeRequest, ServiceConfig};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

const UNIQUE_SETS: usize = 40;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 400;
const SHARDS: usize = 8;

/// Unique sets in the service-throughput style, smaller pool: the wire
/// traffic is duplicate-heavy, as admission-control traffic is.
fn unique_lines() -> Vec<String> {
    let algorithms = [
        AlgorithmSpec::RmTsLight,
        AlgorithmSpec::RmTs {
            bound: BoundSpec::HarmonicChain,
        },
    ];
    (0..UNIQUE_SETS as u64)
        .map(|trial| {
            let n = 24 + (trial % 8) as usize;
            let cfg = GenConfig::new(n, 0.85 * 4.0)
                .with_periods(PeriodGen::LogUniform {
                    min: 10_000,
                    max: 1_000_000,
                    granularity: 10_000,
                })
                .with_utilization(UtilizationSpec::capped(0.6));
            let ts = cfg
                .generate(&mut trial_rng(SEED ^ 0xA7, trial))
                .expect("generator");
            let pairs: Vec<(u64, u64)> = ts
                .tasks()
                .iter()
                .map(|t| (t.wcet.ticks(), t.period.ticks()))
                .collect();
            let req = AnalyzeRequest::new(pairs, 4, algorithms[(trial % 2) as usize]);
            serde_json::to_string(&req).expect("serialize request")
        })
        .collect()
}

/// One closed-loop client: `count` request/response round trips on one
/// persistent connection; returns per-request latencies in nanoseconds.
fn run_client(addr: std::net::SocketAddr, lines: &[String], id: usize, count: usize) -> Vec<u64> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(count);
    let mut response = String::new();
    for i in 0..count {
        // Stagger clients across the pool so concurrent traffic mixes
        // memo hits and misses instead of convoying on one set.
        let line = &lines[(id * 7 + i) % lines.len()];
        let t0 = Instant::now();
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("flush");
        response.clear();
        reader.read_line(&mut response).expect("recv");
        latencies.push(t0.elapsed().as_nanos() as u64);
        let rec: wire::ResponseRecord =
            serde_json::from_str(&response).expect("every answer is a ResponseRecord");
        assert_eq!(rec.index, i, "client {id}: response ordinals must be dense");
    }
    latencies
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let lines = unique_lines();
    let server =
        Server::start(NetConfig::new().with_service(ServiceConfig::new().with_shards(SHARDS)))
            .expect("start server");
    let addr = server.addr();

    println!(
        "net_load: {CLIENTS} closed-loop clients x {REQUESTS_PER_CLIENT} requests \
         over loopback TCP ({UNIQUE_SETS} unique sets, {SHARDS} shards)"
    );
    let t0 = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let lines = &lines;
                s.spawn(move || run_client(addr, lines, id, REQUESTS_PER_CLIENT))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();

    // Gates: conservation, zero shed at this rate, no protocol faults.
    let net = server.net_stats();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(latencies.len() as u64, total, "request conservation");
    assert_eq!(net.served, total, "server served every request");
    assert_eq!(
        net.shed_degraded + net.shed_overloaded,
        0,
        "closed-loop clients must keep the shed ladder on rung 1: {net:?}"
    );
    assert_eq!(
        net.malformed + net.oversized + net.rate_limited,
        0,
        "{net:?}"
    );
    let stats = server.stop().expect("stop");
    assert_eq!(stats.completed, total);

    latencies.sort_unstable();
    let throughput = total as f64 / wall.as_secs_f64();
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    println!(
        "  {total} round trips in {:.2} s: {throughput:.0} req/s; \
         p50 {:.1} us, p95 {:.1} us, p99 {:.1} us; {} memo hit(s)",
        wall.as_secs_f64(),
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        p99 as f64 / 1e3,
        stats.memo_hits,
    );

    // Merge under the "net" key of BENCH_service.json, preserving the
    // in-process service numbers recorded by service_throughput.
    let report = Value::Object(vec![
        ("bench".into(), Value::Str("net_load".into())),
        (
            "description".into(),
            Value::Str(format!(
                "{CLIENTS} closed-loop JSONL clients over loopback TCP against an \
                 {SHARDS}-shard rmts-net server; round-trip latencies, zero shed asserted"
            )),
        ),
        ("seed".into(), Value::UInt(SEED)),
        ("clients".into(), Value::UInt(CLIENTS as u64)),
        ("requests".into(), Value::UInt(total)),
        ("unique_sets".into(), Value::UInt(UNIQUE_SETS as u64)),
        ("throughput_rps".into(), Value::Float(throughput)),
        ("latency_p50_ns".into(), Value::UInt(p50)),
        ("latency_p95_ns".into(), Value::UInt(p95)),
        ("latency_p99_ns".into(), Value::UInt(p99)),
        ("memo_hits".into(), Value::UInt(stats.memo_hits)),
        ("memo_misses".into(), Value::UInt(stats.memo_misses)),
        ("shed".into(), Value::UInt(0)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let merged = match std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
    {
        Some(Value::Object(fields)) => {
            let mut fields: Vec<(String, Value)> =
                fields.into_iter().filter(|(k, _)| k != "net").collect();
            fields.push(("net".into(), report));
            Value::Object(fields)
        }
        _ => Value::Object(vec![("net".into(), report)]),
    };
    std::fs::write(path, serde_json::to_string_pretty(&merged).expect("render"))
        .expect("write BENCH_service.json");
    println!("  report merged into {path} under \"net\"");
}
