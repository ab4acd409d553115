//! The `rmts-exp` binary's exit-code contract: 0 on success, 2 with the
//! usage text on any usage error.

use std::process::{Command, Output};

fn rmts_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rmts-exp"))
        .args(args)
        .output()
        .expect("spawn rmts-exp")
}

#[test]
fn usage_errors_exit_2_and_list_every_id() {
    let cases: &[(&[&str], &str)] = &[
        (&[], "missing experiment id"),
        (&["exp99"], "unknown experiment exp99"),
        (&["exp7", "--csv", "results"], "unknown flag --csv"),
        (&["exp7", "--trials"], "--trials needs a value"),
        (
            &["exp7", "--seed", "x"],
            "--seed must be a non-negative integer",
        ),
    ];
    for (args, message) in cases {
        let out = rmts_exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        for e in rmts_exp::registry::EXPERIMENTS {
            assert!(stderr.contains(e.id), "{args:?}: usage lacks {}", e.id);
        }
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_passing_experiment_exits_0_with_its_table_on_stdout() {
    let out = rmts_exp(&["exp7"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("## EXP-7: Dhall effect"), "{stdout}");
}
