//! Serializable algorithm specifications: the unified dispatch layer.
//!
//! An [`AlgorithmSpec`] is a *name* for one of the partitioning algorithms
//! the workspace implements — RM-TS, RM-TS/light, the RTAS'10-style
//! SPA1/SPA2 baselines, and the strictly partitioned bin-packing matrix —
//! plus the knobs that select a concrete configuration (parametric bound,
//! fit × sort × admission coordinates, admission-policy override, analysis
//! budget, degradation ladder). Everything that used to be a per-algorithm
//! `match` arm (the CLI's `--alg` handling, the batch service's request
//! decoding) routes through [`AlgorithmSpec::build`] and receives an opaque
//! [`DynPartitioner`] to dispatch through the
//! [`Partitioner`](crate::Partitioner) trait.
//!
//! # The spec grammar
//!
//! Specs round-trip through a compact, loss-free grammar
//! ([`fmt::Display`] ⇄ [`std::str::FromStr`], `parse ∘ display == id`):
//!
//! ```text
//! spec  := "rmts" [":" bound]                      (bound defaults to hc)
//!        | "light" | "spa1" | "spa2"
//!        | "prm" [":" fit ["-" adm]] [":" sort]    (defaults ff, rta, du)
//! bound := "ll" | "hc" | "t" | "r"
//! fit   := "ff" | "bf" | "wf" | "nf"
//! adm   := "rta" | "ll" | "hyp" | "chen"
//! sort  := "du" | "dd" | "dp" | "in"
//! ```
//!
//! `Display` always emits the fully-qualified canonical form
//! (`rmts:hc`, `prm:ff-rta:du`); the legacy short names (`rmts`, `prm`)
//! keep parsing as their historical defaults, so every name that worked
//! before this grammar still selects the same engine.
//!
//! Specs are `serde`-serializable so batch requests (`rmts-svc` JSONL) and
//! saved reproducers can reconstruct the exact configuration later. On the
//! wire a spec is its grammar string; the pre-grammar structured forms
//! (`"RmTsLight"`, `{"RmTs":{"bound":"HarmonicChain"}}`, …) are still
//! accepted on input for compatibility with recorded streams and journals.

use crate::admission::AdmissionPolicy;
use crate::baselines::{spa1, spa2, Fit, PartitionedRm, SortOrder, UniAdmission};
use crate::config::{Configure, WithBound};
use crate::partition::DynPartitioner;
use crate::rmts::RmTs;
use crate::rmts_light::RmTsLight;
use crate::session::Repartitioner;
use rmts_bounds::{HarmonicChain, LiuLayland, ParametricBound, RBound, TBound};
use rmts_taskmodel::{AnalysisBudget, TaskSet};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// A named deflatable parametric utilization bound (the `--bound` / request
/// `bound` vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BoundSpec {
    /// `Θ(N) = N(2^{1/N} − 1)` (Liu & Layland).
    LiuLayland,
    /// `K(2^{1/K} − 1)` over harmonic chains (Kuo & Mok) — the default:
    /// it dominates L&L and reaches 100% on harmonic sets.
    #[default]
    HarmonicChain,
    /// The T-Bound (Lauzac, Melhem & Mossé).
    TBound,
    /// The R-Bound.
    RBound,
}

impl BoundSpec {
    /// Stable lower-case grammar token (`ll|hc|t|r`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BoundSpec::LiuLayland => "ll",
            BoundSpec::HarmonicChain => "hc",
            BoundSpec::TBound => "t",
            BoundSpec::RBound => "r",
        }
    }

    /// Parses [`BoundSpec::as_str`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ll" => Some(BoundSpec::LiuLayland),
            "hc" => Some(BoundSpec::HarmonicChain),
            "t" => Some(BoundSpec::TBound),
            "r" => Some(BoundSpec::RBound),
            _ => None,
        }
    }

    /// All four bounds, in grammar order.
    pub const ALL: [BoundSpec; 4] = [
        BoundSpec::LiuLayland,
        BoundSpec::HarmonicChain,
        BoundSpec::TBound,
        BoundSpec::RBound,
    ];
}

impl fmt::Display for BoundSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `BoundSpec` as a live bound. A unit-struct dispatcher (rather than
/// `Arc<dyn ParametricBound>`) keeps `RmTs<SpecBound>` `Copy`-cheap and the
/// spec layer allocation-free.
#[derive(Debug, Clone, Copy)]
struct SpecBound(BoundSpec);

impl ParametricBound for SpecBound {
    fn name(&self) -> &str {
        match self.0 {
            BoundSpec::LiuLayland => LiuLayland.name(),
            BoundSpec::HarmonicChain => HarmonicChain.name(),
            BoundSpec::TBound => TBound.name(),
            BoundSpec::RBound => RBound.name(),
        }
    }

    fn value(&self, ts: &TaskSet) -> f64 {
        match self.0 {
            BoundSpec::LiuLayland => LiuLayland.value(ts),
            BoundSpec::HarmonicChain => HarmonicChain.value(ts),
            BoundSpec::TBound => TBound.value(ts),
            BoundSpec::RBound => RBound.value(ts),
        }
    }
}

/// Grammar tokens for the bin-packing matrix coordinates. Kept here (not in
/// `baselines`) so the whole spec grammar lives in one module.
impl Fit {
    /// Stable lower-case grammar token (`ff|bf|wf|nf`).
    pub fn token(&self) -> &'static str {
        match self {
            Fit::First => "ff",
            Fit::Best => "bf",
            Fit::Worst => "wf",
            Fit::Next => "nf",
        }
    }

    /// Parses [`Fit::token`] back.
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "ff" => Some(Fit::First),
            "bf" => Some(Fit::Best),
            "wf" => Some(Fit::Worst),
            "nf" => Some(Fit::Next),
            _ => None,
        }
    }

    /// All four heuristics, in grammar order.
    pub const ALL: [Fit; 4] = [Fit::First, Fit::Best, Fit::Worst, Fit::Next];
}

impl UniAdmission {
    /// Stable lower-case grammar token (`rta|ll|hyp|chen`).
    pub fn token(&self) -> &'static str {
        match self {
            UniAdmission::ExactRta => "rta",
            UniAdmission::LiuLayland => "ll",
            UniAdmission::Hyperbolic => "hyp",
            UniAdmission::Chen => "chen",
        }
    }

    /// Parses [`UniAdmission::token`] back.
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "rta" => Some(UniAdmission::ExactRta),
            "ll" => Some(UniAdmission::LiuLayland),
            "hyp" => Some(UniAdmission::Hyperbolic),
            "chen" => Some(UniAdmission::Chen),
            _ => None,
        }
    }

    /// All four admission tests, in grammar order.
    pub const ALL: [UniAdmission; 4] = [
        UniAdmission::ExactRta,
        UniAdmission::LiuLayland,
        UniAdmission::Hyperbolic,
        UniAdmission::Chen,
    ];
}

impl SortOrder {
    /// Stable lower-case grammar token (`du|dd|dp|in`).
    pub fn token(&self) -> &'static str {
        match self {
            SortOrder::DecreasingUtilization => "du",
            SortOrder::DecreasingDensity => "dd",
            SortOrder::DecreasingPeriod => "dp",
            SortOrder::InputOrder => "in",
        }
    }

    /// Parses [`SortOrder::token`] back.
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "du" => Some(SortOrder::DecreasingUtilization),
            "dd" => Some(SortOrder::DecreasingDensity),
            "dp" => Some(SortOrder::DecreasingPeriod),
            "in" => Some(SortOrder::InputOrder),
            _ => None,
        }
    }

    /// All four orders, in grammar order.
    pub const ALL: [SortOrder; 4] = [
        SortOrder::DecreasingUtilization,
        SortOrder::DecreasingDensity,
        SortOrder::DecreasingPeriod,
        SortOrder::InputOrder,
    ];
}

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmSpec {
    /// RM-TS (Section V) targeting `bound`.
    RmTs {
        /// The D-PUB to target (capped at `2Θ/(1+Θ)` as always).
        bound: BoundSpec,
    },
    /// RM-TS/light (Section IV).
    RmTsLight,
    /// SPA1-style `Θ(N)`-threshold baseline on the light skeleton. The
    /// threshold depends on the task-set size, which is why
    /// [`AlgorithmSpec::build`] takes `n`.
    Spa1,
    /// SPA2-style `Θ(N)`-threshold baseline on the RM-TS skeleton.
    Spa2,
    /// Strictly partitioned RM (no splitting): one cell of the bin-packing
    /// heuristic matrix.
    PartitionedRm {
        /// Bin-packing placement heuristic.
        fit: Fit,
        /// Per-processor admission test.
        admission: UniAdmission,
        /// Task ordering fed to the bin-packer.
        sort: SortOrder,
    },
}

/// Configuration shared across algorithms when building from a spec: an
/// optional admission-policy override plus the analysis budget and
/// degradation switch of the budgeted engines.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineOptions {
    /// Replaces the algorithm's default admission policy (RM-TS and
    /// RM-TS/light families only).
    pub policy: Option<AdmissionPolicy>,
    /// Analysis budget for each `partition()` call.
    pub budget: AnalysisBudget,
    /// Walk the degradation ladder on budget exhaustion instead of
    /// rejecting.
    pub degrade: bool,
}

/// Why a spec failed to parse or to build: each variant names the offending
/// token (or the non-representable option set) instead of collapsing the
/// diagnosis into a bare string.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecError {
    /// The leading algorithm token is not in the vocabulary.
    UnknownAlgorithm {
        /// The token that failed to parse.
        token: String,
    },
    /// The `rmts:` bound token is not `ll|hc|t|r`.
    UnknownBound {
        /// The token that failed to parse.
        token: String,
    },
    /// The `prm:` fit token is not `ff|bf|wf|nf`.
    UnknownFit {
        /// The token that failed to parse.
        token: String,
    },
    /// The `prm:<fit>-` admission token is not `rta|ll|hyp|chen`.
    UnknownAdmission {
        /// The token that failed to parse.
        token: String,
    },
    /// The `prm:…:` sort token is not `du|dd|dp|in`.
    UnknownSort {
        /// The token that failed to parse.
        token: String,
    },
    /// A complete spec was followed by extra `:`-separated input.
    TrailingToken {
        /// The first unexpected token.
        token: String,
    },
    /// The options were not representable for the chosen algorithm
    /// (build-time, not parse-time).
    UnsupportedOptions {
        /// Canonical spec string of the refusing algorithm.
        algorithm: String,
        /// What exactly is not representable.
        detail: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownAlgorithm { token } => write!(
                f,
                "unknown algorithm `{token}` (expected rmts[:ll|hc|t|r], light, spa1, spa2, \
                 or prm[:ff|bf|wf|nf[-rta|ll|hyp|chen]][:du|dd|dp|in])"
            ),
            SpecError::UnknownBound { token } => {
                write!(f, "unknown bound `{token}` (expected ll, hc, t, or r)")
            }
            SpecError::UnknownFit { token } => {
                write!(f, "unknown fit `{token}` (expected ff, bf, wf, or nf)")
            }
            SpecError::UnknownAdmission { token } => {
                write!(
                    f,
                    "unknown admission `{token}` (expected rta, ll, hyp, or chen)"
                )
            }
            SpecError::UnknownSort { token } => {
                write!(
                    f,
                    "unknown sort order `{token}` (expected du, dd, dp, or in)"
                )
            }
            SpecError::TrailingToken { token } => {
                write!(
                    f,
                    "trailing input `{token}` after a complete algorithm spec"
                )
            }
            SpecError::UnsupportedOptions { algorithm, detail } => {
                write!(f, "invalid algorithm options for {algorithm}: {detail}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl AlgorithmSpec {
    /// The generated catalogue: every algorithm the workspace implements,
    /// at every distinct configuration worth comparing. This is what the
    /// conformance suite, the fuzz oracles, and `rmts-cli check` iterate —
    /// adding a variant here picks it up everywhere automatically.
    ///
    /// Contents, in order:
    /// * RM-TS at each of the four parametric bounds,
    /// * RM-TS/light, SPA1, SPA2,
    /// * the full `fit × sort` bin-packing matrix under exact-RTA
    ///   admission (16 cells),
    /// * the weaker admission tests (`ll`, `hyp`, `chen`) at the classic
    ///   first-fit-decreasing corner, plus `chen` under worst-fit (the
    ///   pairing its load-balancing analysis favors).
    pub fn catalogue() -> Vec<AlgorithmSpec> {
        let mut v: Vec<AlgorithmSpec> = BoundSpec::ALL
            .iter()
            .map(|&bound| AlgorithmSpec::RmTs { bound })
            .collect();
        v.push(AlgorithmSpec::RmTsLight);
        v.push(AlgorithmSpec::Spa1);
        v.push(AlgorithmSpec::Spa2);
        for fit in Fit::ALL {
            for sort in SortOrder::ALL {
                v.push(AlgorithmSpec::PartitionedRm {
                    fit,
                    admission: UniAdmission::ExactRta,
                    sort,
                });
            }
        }
        for admission in [
            UniAdmission::LiuLayland,
            UniAdmission::Hyperbolic,
            UniAdmission::Chen,
        ] {
            v.push(AlgorithmSpec::PartitionedRm {
                fit: Fit::First,
                admission,
                sort: SortOrder::DecreasingUtilization,
            });
        }
        v.push(AlgorithmSpec::PartitionedRm {
            fit: Fit::Worst,
            admission: UniAdmission::Chen,
            sort: SortOrder::DecreasingUtilization,
        });
        v
    }

    /// The default configuration of each of the five algorithm families —
    /// the catalogue's historical core, and the engine rotation of the
    /// delta-stream campaign (where multiplying by the whole matrix would
    /// only re-test the same full-re-partition path).
    pub fn family_defaults() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::RmTs {
                bound: BoundSpec::HarmonicChain,
            },
            AlgorithmSpec::RmTsLight,
            AlgorithmSpec::Spa1,
            AlgorithmSpec::Spa2,
            AlgorithmSpec::PartitionedRm {
                fit: Fit::First,
                admission: UniAdmission::ExactRta,
                sort: SortOrder::DecreasingUtilization,
            },
        ]
    }

    /// The algorithm family's short name (`rmts|light|spa1|spa2|prm`): the
    /// grammar's leading token, without the configuration suffix. Use
    /// [`fmt::Display`] for the loss-free canonical form.
    pub fn family(&self) -> &'static str {
        match self {
            AlgorithmSpec::RmTs { .. } => "rmts",
            AlgorithmSpec::RmTsLight => "light",
            AlgorithmSpec::Spa1 => "spa1",
            AlgorithmSpec::Spa2 => "spa2",
            AlgorithmSpec::PartitionedRm { .. } => "prm",
        }
    }

    /// `true` when the algorithm runs the budgeted splitting engine (and
    /// therefore honors [`EngineOptions::budget`] / `degrade` / `policy`).
    pub fn is_budgeted(&self) -> bool {
        !matches!(self, AlgorithmSpec::PartitionedRm { .. })
    }

    /// Builds the partitioner with default options. `n` is the task-set
    /// size (the SPA thresholds are `Θ(n)`).
    pub fn build(&self, n: usize) -> DynPartitioner {
        self.build_with(n, &EngineOptions::default())
            .expect("default options are representable for every algorithm")
    }

    /// Builds the partitioner this spec + options denote. Errors instead of
    /// silently dropping options the algorithm cannot honor: strictly
    /// partitioned RM has no metered analysis, so a budget, a degradation
    /// request, or a policy override on `prm` is a caller bug — under the
    /// batch service it would break the per-request-isolation promise.
    pub fn build_with(&self, n: usize, opts: &EngineOptions) -> Result<DynPartitioner, SpecError> {
        self.build_repartitioner(n, opts)
            .map(|engine| engine as DynPartitioner)
    }

    /// Builds the engine behind the session API
    /// ([`crate::PartitionSession`]). Same configuration rules and
    /// resulting algorithm as [`Self::build_with`]; the RM-TS family
    /// (including the SPA baselines riding its skeleton) additionally
    /// supports incremental guided replay, while strictly partitioned RM
    /// re-partitions in full on every apply.
    pub fn build_repartitioner(
        &self,
        n: usize,
        opts: &EngineOptions,
    ) -> Result<Box<dyn Repartitioner>, SpecError> {
        if !self.is_budgeted()
            && (opts.policy.is_some() || !opts.budget.is_unlimited() || opts.degrade)
        {
            return Err(SpecError::UnsupportedOptions {
                algorithm: self.to_string(),
                detail: "no budgeted analysis: policy/budget/degrade options do not apply"
                    .to_string(),
            });
        }
        Ok(match *self {
            AlgorithmSpec::RmTs { bound } => {
                Box::new(configured(RmTs::new().with_bound(SpecBound(bound)), opts))
            }
            AlgorithmSpec::RmTsLight => Box::new(configured(RmTsLight::new(), opts)),
            AlgorithmSpec::Spa1 => Box::new(configured(spa1(n), opts)),
            AlgorithmSpec::Spa2 => Box::new(configured(spa2(n), opts)),
            AlgorithmSpec::PartitionedRm {
                fit,
                admission,
                sort,
            } => Box::new(
                PartitionedRm::new()
                    .with_fit(fit)
                    .with_admission(admission)
                    .with_sort(sort),
            ),
        })
    }
}

/// A splitting engine with the budget, degradation switch and optional
/// policy override of `opts` applied.
fn configured<E: Configure>(alg: E, opts: &EngineOptions) -> E {
    let alg = alg.with_budget(opts.budget).with_degrade(opts.degrade);
    match opts.policy {
        Some(policy) => alg.with_policy(policy),
        None => alg,
    }
}

impl fmt::Display for AlgorithmSpec {
    /// The canonical, loss-free grammar form (`rmts:hc`, `prm:wf-chen:du`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmSpec::RmTs { bound } => write!(f, "rmts:{}", bound.as_str()),
            AlgorithmSpec::RmTsLight => f.write_str("light"),
            AlgorithmSpec::Spa1 => f.write_str("spa1"),
            AlgorithmSpec::Spa2 => f.write_str("spa2"),
            AlgorithmSpec::PartitionedRm {
                fit,
                admission,
                sort,
            } => write!(
                f,
                "prm:{}-{}:{}",
                fit.token(),
                admission.token(),
                sort.token()
            ),
        }
    }
}

impl FromStr for AlgorithmSpec {
    type Err = SpecError;

    /// Parses the spec grammar (see the module docs). Accepts both the
    /// canonical forms `Display` emits and the elided legacy short names
    /// (`rmts`, `prm`, `prm:wf`), which resolve to their documented
    /// defaults.
    fn from_str(s: &str) -> Result<Self, SpecError> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let spec = match head {
            "rmts" => {
                let bound = match parts.next() {
                    None => BoundSpec::default(),
                    Some(tok) => BoundSpec::parse(tok).ok_or_else(|| SpecError::UnknownBound {
                        token: tok.to_string(),
                    })?,
                };
                AlgorithmSpec::RmTs { bound }
            }
            "light" => AlgorithmSpec::RmTsLight,
            "spa1" => AlgorithmSpec::Spa1,
            "spa2" => AlgorithmSpec::Spa2,
            "prm" => {
                let (fit, admission) = match parts.next() {
                    None => (Fit::First, UniAdmission::ExactRta),
                    Some(tok) => {
                        let (fit_tok, adm_tok) = match tok.split_once('-') {
                            Some((fit_tok, adm_tok)) => (fit_tok, Some(adm_tok)),
                            None => (tok, None),
                        };
                        let fit =
                            Fit::from_token(fit_tok).ok_or_else(|| SpecError::UnknownFit {
                                token: fit_tok.to_string(),
                            })?;
                        let admission = match adm_tok {
                            None => UniAdmission::ExactRta,
                            Some(tok) => UniAdmission::from_token(tok).ok_or_else(|| {
                                SpecError::UnknownAdmission {
                                    token: tok.to_string(),
                                }
                            })?,
                        };
                        (fit, admission)
                    }
                };
                let sort = match parts.next() {
                    None => SortOrder::default(),
                    Some(tok) => {
                        SortOrder::from_token(tok).ok_or_else(|| SpecError::UnknownSort {
                            token: tok.to_string(),
                        })?
                    }
                };
                AlgorithmSpec::PartitionedRm {
                    fit,
                    admission,
                    sort,
                }
            }
            other => {
                return Err(SpecError::UnknownAlgorithm {
                    token: other.to_string(),
                })
            }
        };
        if let Some(extra) = parts.next() {
            return Err(SpecError::TrailingToken {
                token: extra.to_string(),
            });
        }
        Ok(spec)
    }
}

impl Serialize for AlgorithmSpec {
    /// Serialized form: the canonical grammar string.
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for AlgorithmSpec {
    /// Accepts the grammar string, the legacy derive-encoded unit-variant
    /// names (`"RmTsLight"`, `"Spa1"`, `"Spa2"`), and the legacy structured
    /// objects (`{"RmTs":{"bound":…}}`,
    /// `{"PartitionedRm":{"fit":…,"admission":…}}` — `sort` optional,
    /// defaulting to decreasing utilization, so pre-matrix recordings keep
    /// their meaning).
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => match s.as_str() {
                "RmTsLight" => Ok(AlgorithmSpec::RmTsLight),
                "Spa1" => Ok(AlgorithmSpec::Spa1),
                "Spa2" => Ok(AlgorithmSpec::Spa2),
                other => other.parse().map_err(DeError::custom),
            },
            Value::Object(entries) if entries.len() == 1 => {
                let (tag, inner) = &entries[0];
                let fields = match inner {
                    Value::Object(fields) => fields.as_slice(),
                    _ => {
                        return Err(DeError::custom(format!(
                            "AlgorithmSpec variant `{tag}` expects an object payload"
                        )))
                    }
                };
                match tag.as_str() {
                    "RmTs" => {
                        let bound = serde::get_field(fields, "bound")
                            .map(BoundSpec::from_value)
                            .transpose()?
                            .unwrap_or_default();
                        Ok(AlgorithmSpec::RmTs { bound })
                    }
                    "PartitionedRm" => {
                        let fit = serde::get_field(fields, "fit")
                            .map(Fit::from_value)
                            .transpose()?
                            .unwrap_or(Fit::First);
                        let admission = serde::get_field(fields, "admission")
                            .map(UniAdmission::from_value)
                            .transpose()?
                            .unwrap_or(UniAdmission::ExactRta);
                        let sort = serde::get_field(fields, "sort")
                            .map(SortOrder::from_value)
                            .transpose()?
                            .unwrap_or_default();
                        Ok(AlgorithmSpec::PartitionedRm {
                            fit,
                            admission,
                            sort,
                        })
                    }
                    other => Err(DeError::custom(format!(
                        "unknown AlgorithmSpec variant `{other}`"
                    ))),
                }
            }
            _ => Err(DeError::custom(
                "AlgorithmSpec expects a spec string or a legacy variant object",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use rmts_taskmodel::TaskSet;

    #[test]
    fn grammar_round_trips_over_the_catalogue() {
        for spec in AlgorithmSpec::catalogue() {
            let shown = spec.to_string();
            assert_eq!(
                shown.parse::<AlgorithmSpec>().as_ref(),
                Ok(&spec),
                "parse ∘ display must be the identity for {shown}"
            );
        }
        for b in BoundSpec::ALL {
            assert_eq!(BoundSpec::parse(b.as_str()), Some(b));
        }
        assert_eq!(BoundSpec::parse("zz"), None);
    }

    #[test]
    fn catalogue_spans_the_matrix() {
        let cat = AlgorithmSpec::catalogue();
        assert!(cat.len() >= 20, "catalogue shrank to {}", cat.len());
        let mut unique = cat.clone();
        unique.sort_by_key(|s| s.to_string());
        unique.dedup();
        assert_eq!(unique.len(), cat.len(), "catalogue contains duplicates");
        // Every fit × sort cell is present under exact RTA.
        for fit in Fit::ALL {
            for sort in SortOrder::ALL {
                assert!(cat.contains(&AlgorithmSpec::PartitionedRm {
                    fit,
                    admission: UniAdmission::ExactRta,
                    sort,
                }));
            }
        }
        // Every admission test appears somewhere.
        for adm in UniAdmission::ALL {
            assert!(cat.iter().any(|s| matches!(
                s,
                AlgorithmSpec::PartitionedRm { admission, .. } if *admission == adm
            )));
        }
        // All four bounds, and the historical core.
        for b in BoundSpec::ALL {
            assert!(cat.contains(&AlgorithmSpec::RmTs { bound: b }));
        }
        for spec in AlgorithmSpec::family_defaults() {
            assert!(cat.contains(&spec));
        }
    }

    #[test]
    fn legacy_short_names_parse_as_their_defaults() {
        assert_eq!(
            "rmts".parse::<AlgorithmSpec>(),
            Ok(AlgorithmSpec::RmTs {
                bound: BoundSpec::HarmonicChain
            })
        );
        assert_eq!(
            "prm".parse::<AlgorithmSpec>(),
            Ok(AlgorithmSpec::PartitionedRm {
                fit: Fit::First,
                admission: UniAdmission::ExactRta,
                sort: SortOrder::DecreasingUtilization,
            })
        );
        assert_eq!(
            "prm:wf".parse::<AlgorithmSpec>(),
            Ok(AlgorithmSpec::PartitionedRm {
                fit: Fit::Worst,
                admission: UniAdmission::ExactRta,
                sort: SortOrder::DecreasingUtilization,
            })
        );
        assert_eq!(
            "light".parse::<AlgorithmSpec>(),
            Ok(AlgorithmSpec::RmTsLight)
        );
        assert_eq!("spa1".parse::<AlgorithmSpec>(), Ok(AlgorithmSpec::Spa1));
        assert_eq!("spa2".parse::<AlgorithmSpec>(), Ok(AlgorithmSpec::Spa2));
    }

    #[test]
    fn parse_errors_name_the_offending_token() {
        let err = "nope".parse::<AlgorithmSpec>().unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownAlgorithm {
                token: "nope".to_string()
            }
        );
        assert!(err.to_string().contains("`nope`"));
        assert!(
            err.to_string().contains("prm"),
            "error must list the matrix"
        );
        assert_eq!(
            "rmts:zz".parse::<AlgorithmSpec>().unwrap_err(),
            SpecError::UnknownBound {
                token: "zz".to_string()
            }
        );
        assert_eq!(
            "prm:xx".parse::<AlgorithmSpec>().unwrap_err(),
            SpecError::UnknownFit {
                token: "xx".to_string()
            }
        );
        assert_eq!(
            "prm:ff-zz".parse::<AlgorithmSpec>().unwrap_err(),
            SpecError::UnknownAdmission {
                token: "zz".to_string()
            }
        );
        assert_eq!(
            "prm:ff-rta:zz".parse::<AlgorithmSpec>().unwrap_err(),
            SpecError::UnknownSort {
                token: "zz".to_string()
            }
        );
        assert_eq!(
            "light:x".parse::<AlgorithmSpec>().unwrap_err(),
            SpecError::TrailingToken {
                token: "x".to_string()
            }
        );
        assert_eq!(
            "prm:ff-rta:du:x".parse::<AlgorithmSpec>().unwrap_err(),
            SpecError::TrailingToken {
                token: "x".to_string()
            }
        );
    }

    #[test]
    fn serde_round_trip() {
        for spec in AlgorithmSpec::catalogue() {
            let json = serde_json::to_string(&spec).unwrap();
            assert_eq!(serde_json::from_str::<AlgorithmSpec>(&json).unwrap(), spec);
        }
    }

    #[test]
    fn serde_accepts_the_legacy_structured_forms() {
        // Pre-grammar wire recordings: unit variants as bare strings …
        assert_eq!(
            serde_json::from_str::<AlgorithmSpec>("\"RmTsLight\"").unwrap(),
            AlgorithmSpec::RmTsLight
        );
        // … struct variants as externally tagged objects …
        assert_eq!(
            serde_json::from_str::<AlgorithmSpec>("{\"RmTs\":{\"bound\":\"LiuLayland\"}}").unwrap(),
            AlgorithmSpec::RmTs {
                bound: BoundSpec::LiuLayland
            }
        );
        // … and pre-matrix PartitionedRm objects without a `sort` field.
        assert_eq!(
            serde_json::from_str::<AlgorithmSpec>(
                "{\"PartitionedRm\":{\"fit\":\"Worst\",\"admission\":\"Hyperbolic\"}}"
            )
            .unwrap(),
            AlgorithmSpec::PartitionedRm {
                fit: Fit::Worst,
                admission: UniAdmission::Hyperbolic,
                sort: SortOrder::DecreasingUtilization,
            }
        );
        assert!(serde_json::from_str::<AlgorithmSpec>("\"Bogus\"").is_err());
    }

    #[test]
    fn built_engines_match_their_handwritten_counterparts() {
        let ts = TaskSet::from_pairs(&[(1, 4), (2, 8), (2, 8), (4, 16)]).unwrap();
        let n = ts.len();
        let expected = [
            "RM-TS[harmonic-chain]".to_string(),
            "RM-TS/light".to_string(),
            spa1(n).name(),
            "SPA2".to_string(),
            "P-RM-FFD/RTA".to_string(),
        ];
        for (spec, want) in AlgorithmSpec::family_defaults().iter().zip(expected) {
            let alg = spec.build(n);
            assert_eq!(alg.name(), want);
            // All five accept this easy light set, through the same trait
            // object call.
            assert!(alg.accepts(&ts, 2), "{} rejected the easy set", want);
        }
    }

    #[test]
    fn every_catalogue_engine_builds_and_runs() {
        let ts = TaskSet::from_pairs(&[(1, 4), (2, 8), (2, 8), (4, 16)]).unwrap();
        for spec in AlgorithmSpec::catalogue() {
            let alg = spec.build(ts.len());
            assert!(alg.accepts(&ts, 2), "{spec} rejected the easy set");
        }
    }

    #[test]
    fn options_reach_the_built_engine() {
        let ts = TaskSet::from_pairs(&[(1, 4), (2, 8)]).unwrap();
        let opts = EngineOptions {
            policy: None,
            budget: AnalysisBudget::unlimited().with_max_iterations(0),
            degrade: true,
        };
        let alg = AlgorithmSpec::RmTsLight
            .build_with(ts.len(), &opts)
            .unwrap();
        let part = alg.partition(&ts, 2).unwrap();
        assert!(!part.is_exact(), "budget must have forced the ladder");
    }

    #[test]
    fn unrepresentable_options_are_refused() {
        let spec = AlgorithmSpec::PartitionedRm {
            fit: Fit::First,
            admission: UniAdmission::ExactRta,
            sort: SortOrder::DecreasingUtilization,
        };
        let opts = EngineOptions {
            degrade: true,
            ..EngineOptions::default()
        };
        let err = spec.build_with(4, &opts).unwrap_err();
        assert!(err.to_string().contains("prm"));
        assert!(matches!(err, SpecError::UnsupportedOptions { .. }));
        assert!(spec.build_with(4, &EngineOptions::default()).is_ok());
    }
}
