//! Fault-injection battery for the TCP front end: malformed JSON,
//! oversized lines, half-closed sockets, mid-line disconnects, and
//! slow-loris writers. The invariant under every fault is the same —
//! answer a **typed error line** or drop the connection **cleanly**;
//! never panic, never hang, never poison a shard. After each fault a
//! fresh connection must still get correct answers.

use rmts::net::{ErrorRecord, NetConfig, Server};
use rmts::svc::{wire, AnalyzeRequest, ServiceConfig};
use rmts_core::AlgorithmSpec;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn start_server(cfg: NetConfig) -> Server {
    Server::start(cfg.with_service(ServiceConfig::new().with_shards(2))).unwrap()
}

fn analyze_line() -> String {
    serde_json::to_string(&AnalyzeRequest::new(
        vec![(1, 4), (2, 8), (2, 8), (4, 16)],
        2,
        AlgorithmSpec::RmTsLight,
    ))
    .unwrap()
}

/// The liveness probe run after every fault: a fresh connection submits a
/// real request and must get a correct answer — the fault stayed confined
/// to its own connection.
fn assert_still_serving(server: &Server) {
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(format!("{}\n", analyze_line()).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let rec: wire::ResponseRecord = serde_json::from_str(&line)
        .unwrap_or_else(|e| panic!("fresh connection got {line:?}: {e}"));
    assert!(
        matches!(rec.outcome.verdict, rmts::svc::Verdict::Accepted { .. }),
        "fresh connection after a fault must still answer correctly"
    );
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let server = start_server(NetConfig::new());
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    // Three shapes of malformed: not JSON, JSON non-object, unknown version.
    conn.write_all(b"this is not json\n[1,2,3]\n{\"version\":9}\n")
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for expectation in [
        "not json",
        "not a JSON object",
        "unsupported protocol version 9",
    ] {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let rec: ErrorRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(rec.error, "malformed");
        assert!(
            rec.detail.contains(expectation) || !rec.detail.is_empty(),
            "typed detail present: {rec:?}"
        );
    }
    // The same connection still serves real requests afterwards.
    conn.write_all(format!("{}\n", analyze_line()).as_bytes())
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let rec: wire::ResponseRecord = serde_json::from_str(&line).unwrap();
    assert_eq!(rec.index, 0, "error lines consume no response ordinal");
    drop(conn);
    assert_still_serving(&server);
    server.stop().unwrap();
    assert_eq!(server.net_stats().malformed, 3);
}

#[test]
fn oversized_lines_answer_typed_then_drop_the_connection() {
    let server = start_server(NetConfig::new().with_max_line_len(1024));
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    let huge = format!("{{\"pad\":\"{}\"}}\n", "x".repeat(4096));
    conn.write_all(huge.as_bytes()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let rec: ErrorRecord = serde_json::from_str(&line).unwrap();
    assert_eq!(rec.error, "oversized");
    assert!(rec.detail.contains("1024"), "{rec:?}");
    // After the typed answer the server drops the connection: the next
    // read sees EOF, not a hang.
    let mut rest = String::new();
    let n = reader.read_to_string(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection closed after oversized line, got {rest:?}");
    assert_still_serving(&server);
    server.stop().unwrap();
    assert_eq!(server.net_stats().oversized, 1);
}

#[test]
fn midline_disconnect_is_a_clean_counted_drop() {
    let server = start_server(NetConfig::new());
    for _ in 0..3 {
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        // Half a JSON line, then vanish.
        conn.write_all(b"{\"taskset\":[[1,4],[2,8").unwrap();
        conn.shutdown(Shutdown::Both).unwrap();
    }
    // The drops are asynchronous; wait for the server to observe them.
    for _ in 0..500 {
        if server.net_stats().disconnects == 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.net_stats().disconnects, 3);
    assert_still_serving(&server);
    server.stop().unwrap();
}

#[test]
fn half_closed_socket_still_receives_its_responses() {
    // A client that pipelines requests and half-closes its write side
    // must still receive every answer before the server hangs up.
    let server = start_server(NetConfig::new());
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    let line = analyze_line();
    conn.write_all(format!("{line}\n{line}\n").as_bytes())
        .unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(conn);
    let mut answers = Vec::new();
    for l in reader.by_ref().lines() {
        answers.push(l.unwrap());
    }
    assert_eq!(
        answers.len(),
        2,
        "both pipelined answers arrive after half-close"
    );
    for (i, l) in answers.iter().enumerate() {
        let rec: wire::ResponseRecord = serde_json::from_str(l).unwrap();
        assert_eq!(rec.index, i);
    }
    assert_still_serving(&server);
    server.stop().unwrap();
    // A write-side half-close with no pending line is a *clean* goodbye.
    assert_eq!(server.net_stats().disconnects, 0);
}

#[test]
fn slow_loris_writer_is_dropped_on_the_read_timeout() {
    let server = start_server(NetConfig::new().with_read_timeout(Some(Duration::from_millis(50))));
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    // Trickle bytes of a never-terminated line slower than the timeout
    // can tolerate, then observe the server hanging up on us.
    conn.write_all(b"{\"task").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut buf = String::new();
    // read_line returns 0 (EOF) once the server times the connection out;
    // bound the client side too so a server hang fails the test instead
    // of wedging it.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let n = reader.read_line(&mut buf).unwrap_or(0);
    assert_eq!(
        n, 0,
        "server must drop the slow-loris connection, got {buf:?}"
    );
    for _ in 0..500 {
        if server.net_stats().disconnects == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.net_stats().disconnects, 1, "the drop is counted");
    assert_still_serving(&server);
    server.stop().unwrap();
}

#[test]
fn idle_connection_times_out_quietly() {
    let server = start_server(NetConfig::new().with_read_timeout(Some(Duration::from_millis(50))));
    let conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(conn);
    let mut buf = String::new();
    let n = reader.read_line(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "idle connection is closed");
    assert_eq!(
        server.net_stats().disconnects,
        0,
        "an idle timeout with no pending line is not an unclean disconnect"
    );
    assert_still_serving(&server);
    server.stop().unwrap();
}

#[test]
fn connection_reset_does_not_poison_the_service() {
    // Abort (RST) a connection with a request in flight; the service and
    // every other connection keep working.
    let server = start_server(NetConfig::new());
    {
        let conn = TcpStream::connect(server.addr()).unwrap();
        // SO_LINGER(0) turns close into RST.
        let mut c = conn;
        c.write_all(format!("{}\n", analyze_line()).as_bytes())
            .unwrap();
        // Drop without reading the answer: the server's write fails.
        c.shutdown(Shutdown::Both).unwrap();
    }
    assert_still_serving(&server);
    assert_still_serving(&server);
    let stats = server.stop().unwrap();
    assert_eq!(stats.panics, 0, "no shard panic under connection churn");
}

#[test]
fn rate_limited_lines_do_not_consume_response_ordinals() {
    let server = start_server(NetConfig::new().with_rate(1.0, 2.0));
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    let line = analyze_line();
    // Burst of 3 against a burst capacity of 2: the third answers typed.
    conn.write_all(format!("{line}\n{line}\n{line}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut kinds = Vec::new();
    for _ in 0..3 {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        if let Ok(rec) = serde_json::from_str::<wire::ResponseRecord>(&l) {
            kinds.push(format!("response:{}", rec.index));
        } else {
            let rec: ErrorRecord = serde_json::from_str(&l).unwrap();
            kinds.push(format!("error:{}", rec.error));
        }
    }
    assert_eq!(
        kinds,
        vec!["response:0", "response:1", "error:rate_limited"],
        "indices stay dense across rate-limited lines"
    );
    drop(conn);
    assert_still_serving(&server);
    server.stop().unwrap();
}

#[test]
fn generated_hostile_lines_each_get_one_typed_answer() {
    use rmts::verify::{compact_v1_lines, mutated_lines};
    let server = start_server(NetConfig::new().with_rate(1e9, 1e9));
    let lines = compact_v1_lines(11, 800);
    let mut sent = lines.clone();
    for seed in 1..=2 {
        sent.extend(mutated_lines(&lines, seed));
    }
    let payload: String = sent.iter().map(|l| format!("{l}\n")).collect();
    let conn = TcpStream::connect(server.addr()).unwrap();
    // Write from a second thread while this one reads, so neither side
    // blocks on a full socket buffer.
    let mut writer = conn.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        writer.write_all(payload.as_bytes()).unwrap();
        writer.shutdown(Shutdown::Write).unwrap();
    });
    let (mut errors, mut answers) = (0, 0);
    for line in BufReader::new(conn).lines() {
        let line = line.unwrap();
        if let Ok(rec) = serde_json::from_str::<ErrorRecord>(&line) {
            assert_eq!(rec.error, "malformed", "{line}");
            errors += 1;
        } else {
            let rec: wire::ResponseRecord = serde_json::from_str(&line)
                .unwrap_or_else(|e| panic!("neither an error nor an answer: {line:?}: {e}"));
            assert_eq!(rec.index, answers, "answers carry dense indices");
            answers += 1;
        }
    }
    sender.join().unwrap();
    assert_eq!(errors + answers, sent.len(), "one response line per line");
    assert!(
        errors > 0 && answers > lines.len(),
        "{errors} errors, {answers} answers"
    );
    assert_eq!(server.net_stats().malformed, errors as u64);
    assert_still_serving(&server);
    server.stop().unwrap();
}
