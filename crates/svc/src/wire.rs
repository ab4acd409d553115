//! JSONL wire format for `rmts-cli serve-batch` / `rmts-cli repartition`.
//!
//! One request per input line, one response record per output line, same
//! order. The protocol is **versioned by line**: a request line carrying
//! no `version` field (or `"version": 1`) is a classic v1
//! [`AnalyzeRequest`] — every recorded corpus predates the field and keeps
//! parsing unchanged — while `"version": 2` selects the session-oriented
//! [`RepartitionRequest`]. Unknown versions are rejected with the line
//! number, never guessed at.
//!
//! Decoding has two paths behind [`parse_line`]. A single-pass byte
//! decoder handles the exact compact v1 line that
//! `serde_json::to_string(&AnalyzeRequest)` writes — keys in declaration
//! order, no whitespace, `"policy":null`, integers as plain digit runs, an
//! algorithm string without escapes — and builds the request without a
//! JSON value tree. Any other line (v2 session ops, spaced or reordered
//! JSON, a non-null policy, every malformed line) goes through the
//! vendored `serde_json` value tree, unchanged, so every typed error and
//! its text stay the tree path's. A seeded oracle over generated and
//! byte-mutated lines pins the two paths to the same answer.
//!
//! Responses mirror the split: a v1 answer renders as a
//! [`ResponseRecord`] (byte-identical to the pre-versioning format), a v2
//! answer as a [`SessionRecord`] carrying the session name and the
//! repartition path taken. Rendering writes the record head directly and
//! serializes the shared outcome by reference, with the bytes the record
//! types' own serialization gives.

use crate::request::{
    AnalysisOutcome, AnalyzeRequest, BudgetSpec, RepartitionRequest, Request, Response,
    SessionMeta, WIRE_V1, WIRE_V2,
};
use rmts_core::AlgorithmSpec;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write;

/// The serialized form of a [`Response`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseRecord {
    /// Position in the batch.
    pub index: usize,
    /// Canonical-form routing hash, hex.
    pub canonical_hash: String,
    /// Shard that served the request.
    pub shard: usize,
    /// Whether the memo table answered.
    pub memo_hit: bool,
    /// The analysis answer.
    pub outcome: AnalysisOutcome,
}

/// A v2 response line: the session name and repartition path alongside
/// the analysis answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Wire protocol version; always 2.
    pub version: u64,
    /// Position in the stream.
    pub index: usize,
    /// The session the operation addressed.
    pub session: String,
    /// `open`, `noop`, `incremental`, `full`, or `error`.
    pub path: String,
    /// Shard that owns the session.
    pub shard: usize,
    /// The analysis answer for the session's current state.
    pub outcome: AnalysisOutcome,
}

/// The protocol version a request line declares: absent → 1 (the field
/// postdates the recorded corpora), a non-negative integer otherwise.
fn line_version(v: &Value) -> Result<u64, String> {
    let Some(obj) = v.as_object() else {
        return Err("request is not a JSON object".to_string());
    };
    match serde::get_field(obj, "version") {
        None => Ok(WIRE_V1),
        Some(Value::UInt(n)) => Ok(*n),
        Some(other) => Err(format!("`version` must be an integer, got {other:?}")),
    }
}

/// Parses one JSONL request line. Returns `Ok(None)` for blank lines and
/// `#` comments, the versioned request otherwise. This is the unit the
/// TCP front end (`rmts-net`) parses per received line; [`parse_stream`]
/// is the same parser folded over a whole document. The compact v1 line
/// takes the single-pass decoder; every other line the value tree.
pub fn parse_line(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    if let Some(req) = decode_compact_v1(line) {
        return Ok(Some(Request::Analyze(req)));
    }
    parse_tree(line).map(Some)
}

/// The value-tree decoder: parses the (trimmed, non-blank) line into a
/// `serde_json` value tree, reads its version and converts the tree into
/// a typed request. It answers every line the compact decoder declines and
/// is the reference the compact decoder is tested against.
fn parse_tree(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    match line_version(&value)? {
        WIRE_V1 => AnalyzeRequest::from_value(&value)
            .map(Request::Analyze)
            .map_err(|e| format!("v1 analyze request: {e}")),
        WIRE_V2 => RepartitionRequest::from_value(&value)
            .map(Request::Repartition)
            .map_err(|e| format!("v2 repartition request: {e}")),
        v => Err(format!(
            "unsupported protocol version {v} (this build speaks v1 and v2)"
        )),
    }
}

/// Decodes exactly the compact v1 analyze line
/// `{"taskset":[[C,T],…],"m":M,"algorithm":"S","policy":null,"budget":{"deadline_ms":X,"max_iterations":X,"max_probes":X,"horizon_cap":X},"degrade":B}`
/// in one pass, where each `X` is `null` or a digit run and `B` is `true`
/// or `false`. Returns `None` for anything else — a sign, fraction,
/// exponent or `u64` overflow in a number, an escape in the algorithm
/// string, a spec the algorithm conversion refuses, a non-null policy, or
/// any byte left over — and the value tree then decides the line.
fn decode_compact_v1(line: &str) -> Option<AnalyzeRequest> {
    let mut s = Scan {
        bytes: line.as_bytes(),
        pos: 0,
    };
    s.eat(b"{\"taskset\":[")?;
    let mut taskset = Vec::new();
    if s.eat(b"]").is_none() {
        loop {
            s.eat(b"[")?;
            let wcet = s.uint()?;
            s.eat(b",")?;
            let period = s.uint()?;
            s.eat(b"]")?;
            taskset.push((wcet, period));
            if s.eat(b"]").is_some() {
                break;
            }
            s.eat(b",")?;
        }
    }
    s.eat(b",\"m\":")?;
    let m = usize::try_from(s.uint()?).ok()?;
    s.eat(b",\"algorithm\":\"")?;
    let start = s.pos;
    let len = s.bytes[start..].iter().position(|&b| b == b'"')?;
    let name = &line[start..start + len];
    if name.contains('\\') {
        return None;
    }
    s.pos = start + len + 1;
    // The same conversion the value tree applies, so legacy names such as
    // `RmTsLight` keep their meaning.
    let algorithm = AlgorithmSpec::from_value(&Value::Str(name.to_string())).ok()?;
    s.eat(b",\"policy\":null,\"budget\":{\"deadline_ms\":")?;
    let deadline_ms = s.opt_uint()?;
    s.eat(b",\"max_iterations\":")?;
    let max_iterations = s.opt_uint()?;
    s.eat(b",\"max_probes\":")?;
    let max_probes = s.opt_uint()?;
    s.eat(b",\"horizon_cap\":")?;
    let horizon_cap = s.opt_uint()?;
    s.eat(b"},\"degrade\":")?;
    let degrade = if s.eat(b"true").is_some() {
        true
    } else {
        s.eat(b"false")?;
        false
    };
    s.eat(b"}")?;
    (s.pos == s.bytes.len()).then_some(AnalyzeRequest {
        taskset,
        m,
        algorithm,
        policy: None,
        budget: BudgetSpec {
            deadline_ms,
            max_iterations,
            max_probes,
            horizon_cap,
        },
        degrade,
    })
}

/// A cursor over one line's bytes for [`decode_compact_v1`].
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    /// Consumes `lit` if the line continues with it.
    fn eat(&mut self, lit: &[u8]) -> Option<()> {
        let rest = self.bytes.get(self.pos..)?;
        rest.starts_with(lit).then(|| self.pos += lit.len())
    }

    /// A non-empty digit run as a `u64`; `None` on overflow or on a
    /// leading zero followed by more digits, which JSON forbids.
    fn uint(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            n = n.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            self.pos += 1;
        }
        match self.bytes[start..self.pos] {
            [] | [b'0', _, ..] => None,
            _ => Some(n),
        }
    }

    /// `null` or a digit run.
    fn opt_uint(&mut self) -> Option<Option<u64>> {
        if self.eat(b"null").is_some() {
            Some(None)
        } else {
            self.uint().map(Some)
        }
    }
}

/// Parses a mixed-version JSONL request stream. Blank lines and `#`
/// comments are skipped; errors (bad JSON, malformed request, unknown
/// version) name the offending (1-based) line.
pub fn parse_stream(input: &str) -> Result<Vec<Request>, String> {
    let mut reqs = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if let Some(req) = parse_line(line).map_err(|e| format!("request line {}: {e}", i + 1))? {
            reqs.push(req);
        }
    }
    Ok(reqs)
}

/// Renders a mixed-version response stream: v1 answers as
/// [`ResponseRecord`] lines (unchanged bytes), v2 answers as
/// [`SessionRecord`] lines.
pub fn render_stream_responses(responses: &[Response]) -> String {
    let mut out = String::new();
    for r in responses {
        match &r.session {
            None => push_response_head(&mut out, r),
            Some(meta) => push_session_head(&mut out, r, meta),
        }
        push_outcome(&mut out, &r.outcome);
    }
    out
}

/// Writes a [`ResponseRecord`] line up to its `outcome` value.
fn push_response_head(out: &mut String, r: &Response) {
    write!(
        out,
        "{{\"index\":{},\"canonical_hash\":\"{:016x}\",\"shard\":{},\"memo_hit\":{},\"outcome\":",
        r.index, r.canonical_hash, r.shard, r.memo_hit
    )
    .expect("writing to a String cannot fail");
}

/// Writes a [`SessionRecord`] line up to its `outcome` value. The free-text
/// fields go through `serde_json`, so their escaping is the record's.
fn push_session_head(out: &mut String, r: &Response, meta: &SessionMeta) {
    let json = |s: &String| serde_json::to_string(s).expect("strings always serialize");
    write!(
        out,
        "{{\"version\":{WIRE_V2},\"index\":{},\"session\":{},\"path\":{},\"shard\":{},\"outcome\":",
        r.index,
        json(&meta.session),
        json(&meta.path),
        r.shard
    )
    .expect("writing to a String cannot fail");
}

/// Serializes the outcome by reference and closes the record line.
fn push_outcome(out: &mut String, outcome: &AnalysisOutcome) {
    out.push_str(&serde_json::to_string(outcome).expect("outcomes always serialize"));
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Verdict;
    use crate::{Service, ServiceConfig, SessionOp};
    use rmts_core::AlgorithmSpec;

    /// What `parse_line` answered before the compact decoder: the value
    /// tree on the same trimmed bytes.
    fn tree_reference(line: &str) -> Result<Option<Request>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        parse_tree(line).map(Some)
    }

    #[test]
    fn compact_decoder_answers_like_the_value_tree() {
        let lines = rmts_verify::compact_v1_lines(0x5eed, 5_000);
        let mut fast = 0;
        for line in &lines {
            // Every unmutated line but those naming a policy is the exact
            // compact shape, so it must not fall back.
            if line.contains(r#""policy":null"#) {
                assert!(
                    decode_compact_v1(line).is_some(),
                    "compact line fell back: {line}"
                );
                fast += 1;
            }
            assert_eq!(parse_line(line), tree_reference(line), "{line}");
        }
        assert!(fast > 4_000, "only {fast} lines took the fast path");
        let mut checked = lines.len();
        for seed in 1..=3 {
            for line in rmts_verify::mutated_lines(&lines, seed) {
                assert_eq!(parse_line(&line), tree_reference(&line), "{line}");
                checked += 1;
            }
        }
        assert!(checked >= 20_000);

        // The boundaries, spelled out.
        let base = r#"{"taskset":[[1,4]],"m":2,"algorithm":"light","policy":null,"budget":{"deadline_ms":null,"max_iterations":null,"max_probes":7,"horizon_cap":null},"degrade":false}"#;
        for (from, to, fast) in [
            ("[[1,4]]", "[]", true),
            ("[1,4]", "[18446744073709551615,18446744073709551615]", true),
            ("[1,4]", "[18446744073709551616,4]", false),
            ("[1,4]", "[01,4]", false),
            ("[1,4]", "[-01,4]", false),
            ("[1,4]", "[-0,4]", false),
            ("[1,4]", "[1.0,4]", false),
            ("[1,4]", "[1.,4]", false),
            ("[1,4]", "[-.5,4]", false),
            ("\"m\":2", "\"m\":18446744073709551615", true),
            ("\"light\"", "\"RmTsLight\"", true),
            ("\"light\"", "\"l\\u0069ght\"", false),
            ("\"light\"", "\"li\tght\"", false),
            ("\"light\"", "\"prm:zf-chen:dp\"", false),
            (":7,", ":null,", true),
            ("false}", "true}", true),
            ("false}", "false} ", true),
            ("false}", "false}}", false),
        ] {
            let line = base.replacen(from, to, 1);
            assert_eq!(decode_compact_v1(line.trim()).is_some(), fast, "{line}");
            assert_eq!(parse_line(&line), tree_reference(&line), "{line}");
        }
        // JSON forbids a leading zero, so neither path reads `01` as 1.
        let err = parse_line(&base.replacen("[1,4]", "[01,4]", 1)).unwrap_err();
        assert!(err.contains("bad number"), "{err}");
    }

    #[test]
    fn rendering_matches_the_record_serialization() {
        use crate::request::SessionMeta;
        use rmts_core::{Exactness, PartitionPhase};
        use rmts_taskmodel::{AnalysisError, BudgetResource};
        use std::sync::Arc;
        let outcomes = [
            Verdict::Accepted {
                processors_used: 3,
                splits: vec![0, 4],
                exactness: Exactness::Degraded {
                    reason: AnalysisError::BudgetExhausted {
                        resource: BudgetResource::Probes,
                    },
                },
            },
            Verdict::Rejected {
                phase: PartitionPhase::AssignNormal,
                task: Some(2),
                unassigned: vec![2, 3],
                analysis: Some(AnalysisError::BudgetExhausted {
                    resource: BudgetResource::Iterations,
                }),
                reason: "does not fit".into(),
            },
            Verdict::Invalid {
                reason: "task 1: \"wcet\" exceeds period\nsee \\docs\t\u{1}".into(),
            },
        ]
        .map(|verdict| {
            Arc::new(AnalysisOutcome {
                algorithm: "RM-TS/light".into(),
                m: 4,
                verdict,
            })
        });
        for (k, outcome) in outcomes.iter().enumerate() {
            let mut r = Response {
                index: 7 + k,
                canonical_hash: 0x00ab_cdef_0123_4567 << k,
                shard: k,
                memo_hit: k % 2 == 0,
                session: None,
                outcome: outcome.clone(),
            };
            let v1 = serde_json::to_string(&ResponseRecord {
                index: r.index,
                canonical_hash: format!("{:016x}", r.canonical_hash),
                shard: r.shard,
                memo_hit: r.memo_hit,
                outcome: (**outcome).clone(),
            })
            .unwrap()
                + "\n";
            assert_eq!(render_stream_responses(std::slice::from_ref(&r)), v1);

            r.session = Some(SessionMeta {
                session: "s\"q\"\n\u{7f}é".into(),
                path: "incremental".into(),
            });
            let v2 = serde_json::to_string(&SessionRecord {
                version: WIRE_V2,
                index: r.index,
                session: "s\"q\"\n\u{7f}é".into(),
                path: "incremental".into(),
                shard: r.shard,
                outcome: (**outcome).clone(),
            })
            .unwrap()
                + "\n";
            assert_eq!(render_stream_responses(std::slice::from_ref(&r)), v2);
        }
    }

    #[test]
    fn request_lines_round_trip_and_bad_lines_are_located() {
        let req = AnalyzeRequest::new(vec![(1, 4), (2, 8)], 2, AlgorithmSpec::RmTsLight);
        let line = serde_json::to_string(&req).unwrap();
        let input = format!("# comment\n\n{line}\n{line}\n");
        let parsed = parse_stream(&input).unwrap();
        assert_eq!(
            parsed,
            vec![Request::Analyze(req.clone()), Request::Analyze(req)]
        );

        let err = parse_stream("# ok\nnot json\n").unwrap_err();
        assert!(err.starts_with("request line 2:"), "{err}");
    }

    #[test]
    fn algorithm_field_accepts_grammar_strings_on_both_wire_versions() {
        use rmts_core::baselines::{Fit, SortOrder, UniAdmission};
        // A hand-written v1 line naming the algorithm by its grammar
        // string — the form sweep artifacts and humans write.
        let line = r#"{"taskset":[[1,4],[2,8]],"m":2,"algorithm":"prm:bf-chen:dp","policy":null,"budget":{"deadline_ms":null,"max_iterations":null,"max_probes":null,"horizon_cap":null},"degrade":false}"#;
        let Request::Analyze(parsed) = &parse_stream(line).unwrap()[0] else {
            panic!("expected a v1 line");
        };
        assert_eq!(
            parsed.algorithm,
            AlgorithmSpec::PartitionedRm {
                fit: Fit::Best,
                admission: UniAdmission::Chen,
                sort: SortOrder::DecreasingPeriod,
            }
        );

        // The same grammar string inside a v2 session-open line.
        let v2 = format!(
            r#"{{"version":2,"session":"s","op":{{"Open":{{"base":{}}}}}}}"#,
            line
        );
        let parsed = parse_stream(&v2).unwrap();
        let Request::Repartition(rep) = &parsed[0] else {
            panic!("expected a v2 line");
        };
        let SessionOp::Open { base } = &rep.op else {
            panic!("expected an open op");
        };
        assert_eq!(base.algorithm.to_string(), "prm:bf-chen:dp");

        // Legacy structured forms keep parsing: the bare unit-variant
        // string and the externally-tagged object (without `sort`).
        for legacy in [
            r#""RmTsLight""#,
            r#"{"RmTs":{"bound":"HarmonicChain"}}"#,
            r#"{"PartitionedRm":{"fit":"Best","admission":"ExactRta"}}"#,
        ] {
            let line = line.replace(r#""prm:bf-chen:dp""#, legacy);
            assert!(
                parse_stream(&line).is_ok(),
                "legacy algorithm form {legacy} stopped parsing"
            );
        }

        // A bad grammar string is refused with the offending token named.
        let bad = line.replace("prm:bf-chen:dp", "prm:zf-chen:dp");
        let err = parse_stream(&bad).unwrap_err();
        assert!(err.contains("zf"), "{err}");
    }

    #[test]
    fn v2_requests_round_trip_and_unknown_versions_are_rejected() {
        use rmts_taskmodel::{Task, TaskSetDelta};
        let open = RepartitionRequest::open(
            "sess-a",
            AnalyzeRequest::new(vec![(1, 4), (2, 8)], 2, AlgorithmSpec::RmTsLight),
        );
        let delta = RepartitionRequest::delta(
            "sess-a",
            TaskSetDelta::add(Task::from_ticks(7, 1, 16).unwrap()),
        );
        let input = format!(
            "{}\n{}\n",
            serde_json::to_string(&open).unwrap(),
            serde_json::to_string(&delta).unwrap()
        );
        let parsed = parse_stream(&input).unwrap();
        assert_eq!(
            parsed,
            vec![Request::Repartition(open), Request::Repartition(delta)]
        );

        // An explicit `"version": 1` still selects the classic line.
        let v1 = AnalyzeRequest::new(vec![(1, 4)], 1, AlgorithmSpec::RmTsLight);
        let mut line = serde_json::to_string(&v1).unwrap();
        line.insert_str(1, "\"version\":1,");
        assert_eq!(
            parse_stream(&line).unwrap(),
            vec![Request::Analyze(v1.clone())]
        );

        // Unknown versions are rejected with the line number, not guessed.
        let good = serde_json::to_string(&v1).unwrap();
        let err = parse_stream(&format!("{good}\n{{\"version\":3}}\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("unsupported protocol version 3"), "{err}");
    }

    #[test]
    fn close_lines_round_trip_and_end_the_session() {
        use crate::request::Verdict;
        use rmts_taskmodel::TaskSetDelta;
        // The unit variant externally tags as a bare string.
        let close = RepartitionRequest::close("sess-a");
        let line = serde_json::to_string(&close).unwrap();
        assert!(line.contains("\"op\":\"Close\""), "{line}");
        assert_eq!(
            parse_stream(&line).unwrap(),
            vec![Request::Repartition(close.clone())]
        );

        // Close echoes the final committed verdict; after it the session
        // is gone, so a follow-up delta is refused as unknown.
        let svc = Service::new(ServiceConfig::new().with_shards(2));
        let base = AnalyzeRequest::new(vec![(1, 4), (2, 8), (2, 8)], 2, AlgorithmSpec::RmTsLight);
        let responses = svc.run_stream(vec![
            Request::Repartition(RepartitionRequest::open("sess-a", base)),
            Request::Repartition(close),
            Request::Repartition(RepartitionRequest::delta("sess-a", TaskSetDelta::empty())),
            Request::Repartition(RepartitionRequest::close("ghost")),
        ]);
        let meta: Vec<_> = responses
            .iter()
            .map(|r| r.session.as_ref().expect("all v2"))
            .collect();
        assert_eq!(meta[1].path, "close");
        assert!(matches!(
            responses[1].outcome.verdict,
            Verdict::Accepted { .. }
        ));
        assert_eq!(meta[2].path, "error");
        assert!(matches!(
            responses[2].outcome.verdict,
            Verdict::Invalid { ref reason } if reason.contains("unknown session")
        ));
        assert_eq!(meta[3].path, "error");
        assert!(matches!(
            responses[3].outcome.verdict,
            Verdict::Invalid { ref reason } if reason.contains("unknown session")
        ));
    }

    #[test]
    fn session_stream_serves_deltas_incrementally_and_in_order() {
        use crate::request::Verdict;
        use rmts_taskmodel::{Task, TaskId, TaskSetDelta};
        let svc = Service::new(ServiceConfig::new().with_shards(2));
        let base = AnalyzeRequest::new(
            vec![(1, 4), (2, 8), (2, 8), (4, 16), (3, 12)],
            2,
            AlgorithmSpec::RmTsLight,
        );
        let stream = vec![
            Request::Repartition(RepartitionRequest::open("s", base.clone())),
            Request::Repartition(RepartitionRequest::delta(
                "s",
                TaskSetDelta::update(Task::from_ticks(1, 3, 8).unwrap()),
            )),
            Request::Repartition(RepartitionRequest::delta(
                "s",
                TaskSetDelta::remove(TaskId(4)),
            )),
            // A delta against a session nobody opened.
            Request::Repartition(RepartitionRequest::delta("ghost", TaskSetDelta::empty())),
        ];
        let responses = svc.run_stream(stream);
        assert_eq!(responses.len(), 4);
        let meta: Vec<_> = responses
            .iter()
            .map(|r| r.session.as_ref().expect("all v2"))
            .collect();
        assert_eq!(meta[0].path, "open");
        assert!(
            meta[1].path == "incremental" && meta[2].path == "incremental",
            "splitting engines must take the guided path: {:?}",
            [&meta[1].path, &meta[2].path]
        );
        assert_eq!(meta[3].path, "error");
        for r in &responses[..3] {
            assert!(
                matches!(r.outcome.verdict, Verdict::Accepted { .. }),
                "{:?}",
                r.outcome
            );
        }
        assert!(matches!(
            responses[3].outcome.verdict,
            Verdict::Invalid { ref reason } if reason.contains("unknown session")
        ));
        // Same-session ops all landed on one shard.
        assert_eq!(responses[0].shard, responses[1].shard);
        assert_eq!(responses[0].shard, responses[2].shard);

        // The rendered stream mixes SessionRecords in stream order.
        let jsonl = render_stream_responses(&responses);
        for (i, line) in jsonl.lines().enumerate() {
            let rec: SessionRecord = serde_json::from_str(line).unwrap();
            assert_eq!(rec.version, 2);
            assert_eq!(rec.index, i);
        }
    }

    #[test]
    fn session_answers_match_stateless_analysis_of_the_post_delta_set() {
        use crate::request::Verdict;
        use rmts_taskmodel::{Task, TaskSetDelta};
        // Apply a WCET update through a session, then ask the same
        // question statelessly: the verdicts must agree field-for-field.
        let pairs = vec![(1u64, 4u64), (2, 8), (2, 8), (4, 16)];
        let svc = Service::new(ServiceConfig::new().with_shards(1));
        let base = AnalyzeRequest::new(pairs.clone(), 2, AlgorithmSpec::RmTsLight);
        // Canonical order sorts by (period, wcet): index 0 is (1,4).
        let delta = TaskSetDelta::update(Task::from_ticks(0, 2, 4).unwrap());
        let responses = svc.run_stream(vec![
            Request::Repartition(RepartitionRequest::open("s", base)),
            Request::Repartition(RepartitionRequest::delta("s", delta)),
        ]);
        let session_verdict = &responses[1].outcome.verdict;
        assert!(matches!(session_verdict, Verdict::Accepted { .. }));

        let post = AnalyzeRequest::new(
            vec![(2, 4), (2, 8), (2, 8), (4, 16)],
            2,
            AlgorithmSpec::RmTsLight,
        );
        let fresh = svc.run_stream(vec![Request::Analyze(post)]);
        assert_eq!(*session_verdict, fresh[0].outcome.verdict);
    }

    #[test]
    fn rejected_deltas_keep_the_session_usable() {
        use crate::request::Verdict;
        use rmts_taskmodel::{Task, TaskSetDelta};
        let svc = Service::new(ServiceConfig::new().with_shards(1));
        let base = AnalyzeRequest::new(vec![(1, 4), (2, 8)], 1, AlgorithmSpec::RmTsLight);
        let responses = svc.run_stream(vec![
            Request::Repartition(RepartitionRequest::open("s", base)),
            // Infeasible on one processor: three tasks of utilization ~1.
            Request::Repartition(RepartitionRequest::delta(
                "s",
                TaskSetDelta::add(Task::from_ticks(9, 15, 16).unwrap()),
            )),
            // The session survives rejection and still answers.
            Request::Repartition(RepartitionRequest::delta(
                "s",
                TaskSetDelta::add(Task::from_ticks(10, 1, 16).unwrap()),
            )),
        ]);
        assert!(matches!(
            responses[1].outcome.verdict,
            Verdict::Rejected { .. }
        ));
        assert!(matches!(
            responses[2].outcome.verdict,
            Verdict::Accepted { .. }
        ));
    }

    #[test]
    fn responses_render_one_record_per_line_in_order() {
        let svc = Service::new(ServiceConfig::new().with_shards(2));
        let req = AnalyzeRequest::new(vec![(1, 4), (2, 8)], 2, AlgorithmSpec::RmTsLight);
        let responses = svc.run_stream(vec![Request::Analyze(req.clone()), Request::Analyze(req)]);
        let jsonl = render_stream_responses(&responses);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let rec: ResponseRecord = serde_json::from_str(line).unwrap();
            assert_eq!(rec.index, i);
            assert!(matches!(rec.outcome.verdict, Verdict::Accepted { .. }));
        }
        // The duplicate's record differs only in metadata, not outcome.
        let a: ResponseRecord = serde_json::from_str(lines[0]).unwrap();
        let b: ResponseRecord = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.canonical_hash, b.canonical_hash);
    }
}
