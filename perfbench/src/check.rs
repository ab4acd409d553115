//! Reference answers and the checks every served response must pass.
//!
//! The expected answer to each script line comes from an in-process
//! `Service::run_stream` over the whole pool on a fresh service of the
//! same size. The pool lists each connection's session stream in order,
//! uninterrupted, so a SIGKILLed-and-recovered server must reproduce it.

use crate::load::PhaseLog;
use crate::script::{OpClass, Script};
use rmts_svc::{
    parse_line, AnalysisOutcome, ResponseRecord, Service, ServiceConfig, SessionRecord, Verdict,
};

pub struct Expected {
    pub outcome: AnalysisOutcome,
    /// The repartition path of a session op.
    pub path: Option<String>,
}

pub fn reference(script: &Script, shards: usize) -> Vec<Expected> {
    let requests = script
        .pool
        .iter()
        .map(|l| {
            parse_line(&l.text)
                .expect("generated lines parse")
                .expect("generated lines are requests")
        })
        .collect();
    let svc = Service::new(ServiceConfig::new().with_shards(shards));
    let responses = svc.run_stream(requests);
    svc.shutdown();
    responses
        .into_iter()
        .map(|r| Expected {
            outcome: (*r.outcome).clone(),
            path: r.session.map(|m| m.path),
        })
        .collect()
}

/// What the answers of one phase add up to.
#[derive(Debug, Default)]
pub struct Tally {
    pub planned: usize,
    pub answered: usize,
    pub typed_errors: usize,
    pub invalid: usize,
    pub memo_hits: usize,
    pub accepted: usize,
    pub rejected: usize,
    /// Session updates / swaps answered on the incremental path.
    pub incremental_updates: usize,
    pub incremental_swaps: usize,
    /// Rejection deltas answered `Rejected`.
    pub rejected_deltas: usize,
    /// Next response index per connection.
    pub next_index: Vec<usize>,
}

impl Tally {
    /// Typed error lines, `Invalid` verdicts and unanswered requests.
    pub fn failed(&self) -> usize {
        self.typed_errors + self.invalid + (self.planned - self.answered)
    }
}

/// Checks every response of a phase against the reference: dense
/// per-connection `index`, identical `outcome`, identical session `path`.
/// Errs naming the first divergent request.
pub fn verify(
    script: &Script,
    expected: &[Expected],
    plan: &[Vec<usize>],
    log: &PhaseLog,
    first_index: &[usize],
) -> Result<Tally, String> {
    let mut tally = Tally {
        planned: plan.iter().map(Vec::len).sum(),
        ..Tally::default()
    };
    for (c, conn) in log.conns.iter().enumerate() {
        let mut index = first_index[c];
        for (k, response) in conn.responses.lines().enumerate() {
            let at = plan[c][k];
            let line = &script.pool[at];
            let want = &expected[at];
            let diverged = |what: String| {
                let request: String = line.text.trim_end().chars().take(160).collect();
                format!(
                    "wrong answer on connection {c}, request {k} of the phase (script line \
                     {at}, {:?}): {what}\n  request:  {request}\n  response: {response}",
                    line.class
                )
            };
            tally.answered += 1;
            if response.starts_with("{\"error\"") {
                tally.typed_errors += 1;
                continue;
            }
            let (got_index, outcome, path, memo_hit) = if line.class == OpClass::Analyze {
                let rec: ResponseRecord = serde_json::from_str(response)
                    .map_err(|e| diverged(format!("unparsable response: {e}")))?;
                (rec.index, rec.outcome, None, rec.memo_hit)
            } else {
                let rec: SessionRecord = serde_json::from_str(response)
                    .map_err(|e| diverged(format!("unparsable response: {e}")))?;
                (rec.index, rec.outcome, Some(rec.path), false)
            };
            if got_index != index {
                return Err(diverged(format!("index {got_index}, expected {index}")));
            }
            index += 1;
            if outcome != want.outcome {
                return Err(diverged(format!("expected outcome {:?}", want.outcome)));
            }
            if path != want.path {
                return Err(diverged(format!("expected path {:?}", want.path)));
            }
            tally.memo_hits += usize::from(memo_hit);
            match &outcome.verdict {
                Verdict::Accepted { .. } => tally.accepted += 1,
                Verdict::Rejected { .. } => tally.rejected += 1,
                Verdict::Invalid { .. } => tally.invalid += 1,
            }
            let incremental = path.as_deref() == Some("incremental");
            match line.class {
                OpClass::Update => tally.incremental_updates += usize::from(incremental),
                OpClass::Swap => tally.incremental_swaps += usize::from(incremental),
                OpClass::Reject => match &outcome.verdict {
                    Verdict::Rejected { .. } => tally.rejected_deltas += 1,
                    // The delta pushes utilization past m: no partition
                    // exists, so accepting it is unsound.
                    Verdict::Accepted { .. } => {
                        return Err(diverged("accepted an infeasible task set".into()))
                    }
                    Verdict::Invalid { .. } => {}
                },
                _ => {}
            }
        }
        tally.next_index.push(index);
    }
    Ok(tally)
}
