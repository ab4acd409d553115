//! The closed-loop load generator: one thread per connection, one request
//! in flight per connection, as an admission-control caller that waits for
//! each verdict before it acts.

use crate::script::Script;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One connection's share of a phase.
#[derive(Default)]
pub struct ConnLog {
    /// Requests written.
    pub sent: usize,
    /// Response lines, in order, newline-terminated.
    pub responses: String,
    /// Per answered request: write-to-read-back time in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Per answered request: when its response arrived.
    pub done: Vec<Instant>,
    /// Why the connection stopped early, if it did.
    pub error: Option<String>,
}

pub struct PhaseLog {
    pub conns: Vec<ConnLog>,
    /// From the common start to the last answer on any connection.
    pub wall_s: f64,
}

/// An open client connection, kept across phases so that the server's
/// per-connection response index runs on from warm-up into measurement.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }
}

/// Runs one phase: connection `c` sends `plan[c]` (pool indices) as a
/// closed loop. All connections start together; a connection stops at the
/// deadline, leaving the rest of its plan unanswered.
pub fn run_phase(
    clients: &mut [Client],
    script: &Script,
    plan: &[Vec<usize>],
    deadline: Duration,
) -> PhaseLog {
    let start_gate = Arc::new(Barrier::new(clients.len() + 1));
    let (conns, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .map(|(client, indices)| {
                let gate = Arc::clone(&start_gate);
                scope.spawn(move || {
                    gate.wait();
                    drive(client, script, indices, Instant::now() + deadline)
                })
            })
            .collect();
        start_gate.wait();
        let start = Instant::now();
        let logs: Vec<ConnLog> = handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect();
        let wall = logs
            .iter()
            .filter_map(|log| log.done.last())
            .max()
            .map_or(Duration::ZERO, |end| end.saturating_duration_since(start));
        (logs, wall)
    });
    PhaseLog {
        conns,
        wall_s: wall.as_secs_f64(),
    }
}

fn drive(client: &mut Client, script: &Script, indices: &[usize], deadline: Instant) -> ConnLog {
    let mut log = ConnLog {
        latencies_ns: Vec::with_capacity(indices.len()),
        done: Vec::with_capacity(indices.len()),
        ..ConnLog::default()
    };
    for &i in indices {
        if Instant::now() >= deadline {
            log.error = Some("deadline reached".into());
            break;
        }
        let t0 = Instant::now();
        if let Err(e) = client.writer.write_all(script.pool[i].text.as_bytes()) {
            log.error = Some(format!("write: {e}"));
            break;
        }
        log.sent += 1;
        match client.reader.read_line(&mut log.responses) {
            Ok(0) => {
                log.error = Some("server closed the connection".into());
                break;
            }
            Ok(_) => {
                let t1 = Instant::now();
                log.latencies_ns.push((t1 - t0).as_nanos() as u64);
                log.done.push(t1);
            }
            Err(e) => {
                log.error = Some(format!("read: {e}"));
                break;
            }
        }
    }
    log
}
