//! The experiment registry end to end: every entry runs (two trials per
//! point, EXP-12 in its smoke configuration) and writes its artifacts, and
//! the runner's usage text names every id.

use rmts::exp::registry::{find, usage, EXPERIMENTS};
use std::collections::BTreeSet;

/// The artifact files each registry entry writes under `--out DIR`.
const ARTIFACTS: &[(&str, &[&str])] = &[
    ("exp1", &["exp1_m4.csv", "exp1_m8.csv", "exp1_m16.csv"]),
    ("exp2", &["exp2_light.csv"]),
    ("exp3", &["exp3_m4.csv", "exp3_m8.csv"]),
    ("exp4", &["exp4_bound_verify.csv"]),
    ("exp5", &["exp5_breakdown.csv"]),
    ("exp6", &["exp6_structure.csv"]),
    ("exp7", &["exp7_dhall.csv"]),
    ("exp8", &["exp8_u90.csv", "exp8_u95.csv"]),
    ("exp9", &["exp9_overhead.csv"]),
    ("exp10", &["exp10_harmonization.csv"]),
    ("exp11", &["exp11_automotive.csv"]),
    ("exp12", &["exp12_frontier_smoke.json"]),
    ("abl2", &["abl2_ablation.csv"]),
];

#[test]
fn every_experiment_runs_and_writes_its_artifacts() {
    let dir = std::env::temp_dir().join(format!("rmts_experiments_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let listed: Vec<&str> = ARTIFACTS.iter().map(|(id, _)| *id).collect();
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids, listed, "every registry entry lists its artifacts here");
    for (id, files) in ARTIFACTS {
        let exp = find(id).unwrap();
        let args = ["--quick", "--trials", "2", "--out", dir.to_str().unwrap()];
        let opts = exp.options(args.map(String::from)).unwrap();
        let mut out = Vec::new();
        if let Err(e) = (exp.run)(&opts, &mut out) {
            panic!("{id} failed: {e}");
        }
        assert!(out.starts_with(b"## "), "{id} writes a titled table");
        for file in *files {
            let path = dir.join(file);
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{id}: {file}: {e}"));
            assert!(!bytes.is_empty(), "{id}: {file} is empty");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ids_are_unique_and_named_in_the_usage_text() {
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate registry id");
    let text = usage();
    for e in EXPERIMENTS {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().next() == Some(e.id)),
            "usage does not list {}",
            e.id
        );
    }
    assert!(find("exp13").is_none());
}
