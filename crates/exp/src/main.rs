//! `rmts-exp <id> [--quick] [--trials N] [--seed S] [--out DIR]` — runs
//! one experiment of the registry, its tables to stdout. Exits 2 with the
//! usage text on a missing or unknown id or a bad flag or value, and 1 when
//! a self-checking experiment (EXP-4, EXP-7) finds a violation.

use rmts_exp::registry::{find, usage};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let exp = match args.next() {
        None => return usage_error("missing experiment id"),
        Some(id) => match find(&id) {
            Some(exp) => exp,
            None => return usage_error(&format!("unknown experiment {id}")),
        },
    };
    let opts = match exp.options(args) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
    };
    match (exp.run)(&opts, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}: {e}", exp.id);
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n\n{}", usage());
    ExitCode::from(2)
}
