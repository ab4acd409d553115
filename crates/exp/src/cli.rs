//! The one argument parser of `rmts-exp <id>` and the output helpers of
//! its experiments. After the id it accepts:
//!
//! * `--quick` — reduced trial counts (smoke-test mode, used by CI);
//! * `--trials N` — explicit trials per grid point / campaign cell
//!   (overrides the full or quick count, whichever order the flags come in);
//! * `--seed S` — master seed (default the workspace seed);
//! * `--out DIR` — also write the experiment's artifacts (its tables as
//!   CSV, EXP-12 its JSON report) into `DIR`.

use crate::table::Table;
use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;

/// The workspace-wide default seed ("RMTS").
pub const DEFAULT_SEED: u64 = 0x52_4D_54_53;

/// Parsed common options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpOptions {
    /// Trials per grid point / cell.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// `--quick` was given (EXP-12 switches to its smoke configuration).
    pub quick: bool,
    /// Artifact directory, if requested.
    pub out: Option<PathBuf>,
}

impl ExpOptions {
    /// Parses an argument list, given the experiment's full and quick trial
    /// counts. An unknown flag, a missing value or a non-integer is an
    /// `Err` naming it.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        full_trials: u64,
        quick_trials: u64,
    ) -> Result<Self, String> {
        let (mut trials, mut seed, mut quick, mut out) = (None, DEFAULT_SEED, false, None);
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => quick = true,
                "--trials" => trials = Some(integer(&arg, value()?)?),
                "--seed" => seed = integer(&arg, value()?)?,
                "--out" => out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let default = if quick { quick_trials } else { full_trials };
        let trials = trials.unwrap_or(default);
        Ok(ExpOptions {
            trials,
            seed,
            quick,
            out,
        })
    }

    /// Writes a table to `out` and, under `--out DIR`, as `DIR/name.csv`.
    pub fn emit(&self, out: &mut dyn Write, name: &str, table: &Table) -> Result<(), String> {
        line(out, table.to_text())?;
        self.save(&format!("{name}.csv"), &table.to_csv())
    }

    /// Under `--out DIR`, writes `contents` to `DIR/file` (creating `DIR`
    /// first); without `--out` does nothing.
    pub fn save(&self, file: &str, contents: &str) -> Result<(), String> {
        let Some(dir) = &self.out else {
            return Ok(());
        };
        let path = dir.join(file);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

/// Writes `text` and a newline to an experiment's output.
pub fn line(out: &mut dyn Write, text: impl Display) -> Result<(), String> {
    writeln!(out, "{text}").map_err(|e| format!("cannot write output: {e}"))
}

fn integer(flag: &str, value: String) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} must be a non-negative integer, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse(v.iter().map(|s| s.to_string()), 1000, 50)
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.trials, 1000);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert!(!o.quick);
        assert!(o.out.is_none());
    }

    #[test]
    fn quick_mode() {
        let o = parse(&["--quick"]).unwrap();
        assert_eq!(o.trials, 50);
        assert!(o.quick);
    }

    #[test]
    fn explicit_values() {
        let o = parse(&["--trials", "123", "--seed", "9", "--out", "/tmp/x"]).unwrap();
        assert_eq!(o.trials, 123);
        assert_eq!(o.seed, 9);
        assert_eq!(o.out.unwrap().to_str().unwrap(), "/tmp/x");
    }

    #[test]
    fn explicit_trials_win_over_quick_in_either_order() {
        for args in [["--quick", "--trials", "2"], ["--trials", "2", "--quick"]] {
            let o = parse(&args).unwrap();
            assert_eq!((o.trials, o.quick), (2, true));
        }
    }

    #[test]
    fn rejects_unknown() {
        assert_eq!(
            parse(&["--frobnicate"]).unwrap_err(),
            "unknown flag --frobnicate"
        );
        // The retired flags are unknown, not aliases.
        for retired in ["--csv", "--smoke", "--json"] {
            assert!(parse(&[retired, "x"]).unwrap_err().contains(retired));
        }
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(
            parse(&["--trials", "ten"]).unwrap_err(),
            "--trials must be a non-negative integer, got \"ten\""
        );
        assert!(parse(&["--seed", "-1"]).is_err());
    }
}
