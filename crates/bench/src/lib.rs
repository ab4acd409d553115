//! Shared fixtures for the kernel benchmarks.
//!
//! The `experiments` target times every `rmts-exp` registry entry's quick
//! run; the other targets time one analysis kernel each (MaxSplit, the
//! admission cache, whole-set and incremental partitioning). The tables
//! themselves come from `rmts-exp <id>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rmts_gen::GenConfig;

/// The master seed used across all benches (the experiments' default).
pub const SEED: u64 = rmts_exp::cli::DEFAULT_SEED;

/// EXP-1's general task sets: `n = 4·m` tasks at normalized utilization
/// `u`, with [`GenConfig::new`]'s log-uniform periods and unconstrained
/// utilizations.
pub fn general_cfg(m: usize) -> impl Fn(f64) -> GenConfig + Sync {
    move |u| GenConfig::new(4 * m, u * m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_gen::trial_rng;

    #[test]
    fn fixtures_generate() {
        let mut rng = trial_rng(SEED, 0);
        let g = general_cfg(4)(0.8).generate(&mut rng).unwrap();
        assert_eq!(g.len(), 16);
    }
}
