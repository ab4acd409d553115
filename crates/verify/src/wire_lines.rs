//! Generated and byte-mutated wire request lines.
//!
//! [`compact_v1_lines`] writes v1 analyze lines exactly as
//! `serde_json::to_string(&AnalyzeRequest)` does, over the whole
//! algorithm catalogue plus legacy names, extreme integers, every budget
//! shape and non-null policies. [`mutated_lines`] damages each of them
//! once: a byte deleted, duplicated or flipped, whitespace inserted, two
//! keys swapped, a `version` key prepended, an escape put into the
//! algorithm string, a number made negative, fractional, exponential,
//! zero-padded or out of range, or garbage appended.
//!
//! The lines are plain `String`s, so any decoder can be fed them: the
//! wire decoder's oracle compares its fast path against the value tree on
//! them, and the TCP fault suite sends them to a live server. No line
//! contains a `\n`, so each stays one framed request.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmts_core::{AdmissionPolicy, AlgorithmSpec, MaxSplitStrategy};
use rmts_svc::{AnalyzeRequest, BudgetSpec};
use serde::Value;

/// Legacy `algorithm` spellings the v1 line still accepts.
const LEGACY_NAMES: [&str; 3] = ["RmTsLight", "Spa1", "Spa2"];

/// `count` compact v1 analyze lines from `seed`. Line `k` names catalogue
/// entry `k mod 27` (one line in ten a legacy name instead); task counts
/// run 0–12, `m` 0–64, and one line in seven carries a non-null policy.
pub fn compact_v1_lines(seed: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalogue = AlgorithmSpec::catalogue();
    (0..count)
        .map(|k| {
            let n = rng.gen_range(0..=12usize);
            let taskset = (0..n).map(|_| pair(&mut rng)).collect();
            let m = rng.gen_range(0..=64usize);
            let spec = catalogue[k % catalogue.len()];
            let mut req = AnalyzeRequest::new(taskset, m, spec).with_degrade(rng.gen_bool(0.5));
            if rng.gen_bool(0.5) {
                req = req.with_budget(BudgetSpec {
                    deadline_ms: budget_cap(&mut rng),
                    max_iterations: budget_cap(&mut rng),
                    max_probes: budget_cap(&mut rng),
                    horizon_cap: budget_cap(&mut rng),
                });
            }
            if rng.gen_bool(1.0 / 7.0) {
                req = req.with_policy(match rng.gen_range(0..4u32) {
                    0 => AdmissionPolicy::exact(),
                    1 => AdmissionPolicy::exact().uncached(),
                    2 => AdmissionPolicy::exact().with_strategy(MaxSplitStrategy::BinarySearch),
                    _ => AdmissionPolicy::threshold(rng.gen_range(0.0..1.0)),
                });
            }
            let line = serde_json::to_string(&req).expect("requests always serialize");
            if rng.gen_bool(0.1) {
                let legacy = LEGACY_NAMES[rng.gen_range(0..LEGACY_NAMES.len())];
                line.replacen(
                    &format!("\"algorithm\":\"{spec}\""),
                    &format!("\"algorithm\":\"{legacy}\""),
                    1,
                )
            } else {
                line
            }
        })
        .collect()
}

/// A `(wcet, period)` pair: mostly plausible (wcet ≤ period ≤ 10⁵), else
/// built from 0, 1, `u64::MAX` and 20-digit values.
fn pair(rng: &mut StdRng) -> (u64, u64) {
    if rng.gen_bool(0.85) {
        let period = rng.gen_range(1..=100_000u64);
        (rng.gen_range(1..=period), period)
    } else {
        (extreme(rng), extreme(rng))
    }
}

fn extreme(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..5u32) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => rng.gen_range(10_000_000_000_000_000_000..=u64::MAX),
        _ => rng.gen_range(2..1_000u64),
    }
}

fn budget_cap(rng: &mut StdRng) -> Option<u64> {
    match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some(rng.gen_range(1..100_000u64)),
        _ => Some(extreme(rng)),
    }
}

/// Each line of `lines` with one seeded mutation (see the module docs).
pub fn mutated_lines(lines: &[String], seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    lines.iter().map(|line| mutate(line, &mut rng)).collect()
}

fn mutate(line: &str, rng: &mut StdRng) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..9u32) {
        0 => {
            bytes.remove(at);
        }
        1 => bytes.insert(at, bytes[at]),
        2 => {
            let flipped = bytes[at] ^ (1 << rng.gen_range(0..8u32));
            bytes[at] = if flipped == b'\n' { b'\r' } else { flipped };
        }
        3 => bytes.insert(at, [b' ', b'\t', b'\r'][rng.gen_range(0..3usize)]),
        4 => return swap_two_keys(line, rng),
        5 => {
            return line.replacen(
                '{',
                ["{\"version\":1,", "{\"version\":2,"][rng.gen_range(0..2usize)],
                1,
            )
        }
        6 => return escape_in_algorithm(line, rng),
        7 => return bend_a_number(line, rng),
        _ => {
            let garbage = ["x", "}", ",", " 1", "{}", "]", "null", ",\"m\":2"];
            bytes.extend_from_slice(garbage[rng.gen_range(0..garbage.len())].as_bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Swaps two top-level keys with their values.
fn swap_two_keys(line: &str, rng: &mut StdRng) -> String {
    let mut value: Value = serde_json::from_str(line).expect("generated lines are JSON");
    let Value::Object(entries) = &mut value else {
        unreachable!("generated lines are JSON objects")
    };
    let i = rng.gen_range(0..entries.len());
    let j = (i + rng.gen_range(1..entries.len())) % entries.len();
    entries.swap(i, j);
    serde_json::to_string(&value).expect("values always serialize")
}

/// Puts one escape sequence at the start of the algorithm string: the
/// first letter as `\u00XX` (same name), or a `\/`, `\\` or `\"`.
fn escape_in_algorithm(line: &str, rng: &mut StdRng) -> String {
    let key = "\"algorithm\":\"";
    let at = line.find(key).expect("generated lines name an algorithm") + key.len();
    let escape = match rng.gen_range(0..4u32) {
        0 => format!("\\u{:04x}", line.as_bytes()[at]),
        1 => "\\/".to_string(),
        2 => "\\\\".to_string(),
        _ => "\\\"".to_string(),
    };
    let skip = if escape.starts_with("\\u") { 1 } else { 0 };
    format!("{}{escape}{}", &line[..at], &line[at + skip..])
}

/// Rewrites one digit run (a number, or digits inside the algorithm
/// name): negative, fractional, exponential, zero-padded, `-0`, or past
/// `u64::MAX`.
fn bend_a_number(line: &str, rng: &mut StdRng) -> String {
    let bytes = line.as_bytes();
    let starts: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
        .collect();
    let start = starts[rng.gen_range(0..starts.len())];
    let end = start
        + bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
    let digits = &line[start..end];
    let bent = match rng.gen_range(0..6u32) {
        0 => format!("-{digits}"),
        1 => format!("{digits}.5"),
        2 => format!("{digits}e1"),
        3 => format!("0{digits}"),
        4 => "-0".to_string(),
        _ => format!("{digits}{}", "9".repeat(20)),
    };
    format!("{}{bent}{}", &line[..start], &line[end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_lines_are_the_compact_serialization_and_deterministic() {
        let lines = compact_v1_lines(7, 300);
        assert_eq!(lines, compact_v1_lines(7, 300));
        for line in &lines {
            let req: AnalyzeRequest = serde_json::from_str(line).expect("generated lines parse");
            // Legacy names re-serialize as grammar strings; all else is
            // byte-identical.
            if !LEGACY_NAMES.iter().any(|l| line.contains(l)) {
                assert_eq!(&serde_json::to_string(&req).unwrap(), line);
            }
        }
        let mutated = mutated_lines(&lines, 7);
        assert_eq!(mutated, mutated_lines(&lines, 7));
        assert!(mutated.iter().all(|l| !l.contains('\n')));
        let changed = lines.iter().zip(&mutated).filter(|(a, b)| a != b).count();
        assert!(changed > 280, "only {changed} of 300 lines mutated");
    }
}
