//! Incremental RTA admission cache.
//!
//! During partitioning, every `Assign` step (paper Algorithms 1–3) asks the
//! same question of the same processor over and over: *would this workload,
//! plus a newcomer with budget `X`, still be schedulable?* The scratch
//! implementation in [`crate::budget`] answers it by re-collecting the
//! higher-priority interferers of every affected subtask and re-running the
//! fixed-point iteration from `R⁰ = C`. [`RtaCache`] keeps enough state
//! around to answer the same question — with **bit-identical results** —
//! much faster:
//!
//! * subtasks are kept **priority-sorted**, so the interferer set of any
//!   subtask (and of any probed newcomer) is a contiguous prefix of the
//!   slice — no filtering, no collecting, no allocation on the hot path;
//! * each subtask's exact response time is **cached** alongside it, so a
//!   probe warm-starts the fixed-point iteration from the cached `R`
//!   instead of from `C` (sound and exact: adding an interferer or growing
//!   a budget only increases demand, so the cached least fixed point is a
//!   valid lower starting point — see [`fixed_point_from`]);
//! * subtasks with priority strictly **above** the newcomer are never
//!   re-analyzed at all (the newcomer cannot interfere with them), and
//!   equal-priority subtasks do not interfere either way.
//!
//! The cache is *exact*, not approximate: property tests in
//! `tests/cache_equivalence.rs` prove every probe, response time and
//! `MaxSplit` budget equals its scratch counterpart bit for bit.
//!
//! It is also the one budgeted exact-RTA path. [`RtaCache::probe_remember`]
//! and [`RtaCache::max_budget_bsearch`] take a [`BudgetMeter`] and charge it
//! one probe per call plus one iteration per fixed point evaluated, after
//! the answer is known, so a meter can end a run but never change an
//! answer. An unlimited meter is the zero-cost case. The scratch analyses
//! in [`crate::budget`] stay unmetered: they are the reference.

use crate::budget::NewcomerSpec;
use crate::rta::{fixed_point_from, interference};
use crate::tda::scheduling_points_into;
use rmts_taskmodel::{AnalysisError, BudgetMeter, Subtask, Time};

/// Local tally of one probe (or probe batch): accumulated in plain stack
/// integers on the hot path and flushed to `rmts-obs` in one step, so a
/// disabled recorder costs a single thread-local check per public call.
///
/// Counter semantics (the `rta.cache.*` vocabulary): every per-subtask
/// evaluation — the newcomer's own response plus each strictly-lower suffix
/// member — counts as one *probe*. An evaluation resolved in O(1) without
/// running a fixed-point routine (early deadline overshoot, pre-existing
/// miss, safe-horizon confirmation) is a *hit*; one that ran
/// `fixed_point_from`/`fp_prefix_plus` is a *miss*. Hence
/// `hits + misses == probes` holds structurally. *Re-steps* count the
/// evaluations that warm-started from a previous feasible probe of the same
/// newcomer (the binary-search ladder).
#[derive(Debug, Default)]
struct ProbeTally {
    probes: u64,
    hits: u64,
    resteps: u64,
}

impl ProbeTally {
    /// Evaluation resolved in O(1), no fixed-point routine ran.
    #[inline]
    fn hit(&mut self) {
        self.probes += 1;
        self.hits += 1;
    }

    /// Evaluation ran a full fixed-point routine.
    #[inline]
    fn miss(&mut self) {
        self.probes += 1;
    }

    /// Number of full fixed-point evaluations this tally saw (misses).
    #[inline]
    fn fixed_points(&self) -> u64 {
        self.probes - self.hits
    }

    fn flush(&self) {
        if self.probes != 0 && rmts_obs::enabled() {
            rmts_obs::count("rta.cache.probes", self.probes);
            rmts_obs::count("rta.cache.hits", self.hits);
            rmts_obs::count("rta.cache.misses", self.probes - self.hits);
            // Always emitted (even at 0) so recorded snapshots have a
            // stable schema for the cache-mechanism counters.
            rmts_obs::count("rta.cache.resteps", self.resteps);
        }
    }
}

/// A processor workload kept priority-sorted with cached exact response
/// times, supporting incremental admission probes.
///
/// Sort order is ascending [`Priority`](rmts_taskmodel::Priority) value
/// (i.e. highest priority first); subtasks with equal priority keep their
/// insertion order. `resp[k]` is the exact response time of `sorted[k]`
/// against its synthetic deadline under the *current* workload, or `None`
/// if that deadline is missed (a miss can only stay a miss as interference
/// grows, so misses need no re-analysis either).
#[derive(Debug, Clone, Default)]
pub struct RtaCache {
    /// Subtasks, ascending priority value (highest priority first).
    sorted: Vec<Subtask>,
    /// `resp[k]`: cached exact response time of `sorted[k]`, `None` = miss.
    resp: Vec<Option<Time>>,
    /// `safe[k]`: the demand of `sorted[k]` over its strictly-higher prefix
    /// is *constant* on `[resp[k], safe[k]]` (no prefix period multiple in
    /// between). Probes use it to confirm a warm-started value as the new
    /// fixed point in O(1), without scanning the prefix. Meaningless (kept
    /// at `Time::ZERO`) while `resp[k]` is a miss.
    safe: Vec<Time>,
    /// Scratch buffer for scheduling-point enumeration (reused across
    /// `max_budget_points` calls; never observable from outside).
    points: Vec<Time>,
    /// Fixed points computed by the last successful [`Self::probe_remember`],
    /// keyed by the probed parameters. Consumed by the next [`Self::push`]
    /// when it inserts exactly the probed newcomer (the admit-then-place
    /// pattern of the partitioning engine), which then needs no fixed-point
    /// work at all. Cleared by any push.
    memo: Option<ProbeMemo>,
    /// Retired response buffer recycled between probes: consumed memo
    /// splices and failed probes park their `Vec<Time>` here so the
    /// steady-state probe→push cycle never allocates. Never observable.
    spare: Vec<Time>,
    /// Second retired buffer (binary search threads two: seed + in-flight).
    spare2: Vec<Time>,
}

/// See [`RtaCache::memo`].
#[derive(Debug, Clone)]
struct ProbeMemo {
    priority: rmts_taskmodel::Priority,
    period: Time,
    deadline: Time,
    budget: Time,
    /// `[newcomer, strictly-lower suffix...]` exact response times.
    resp: Vec<Time>,
}

impl RtaCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a cache from an arbitrary-order workload slice by inserting
    /// every subtask in turn (full analysis; used after out-of-band
    /// workload mutation invalidates an existing cache).
    pub fn from_workload(workload: &[Subtask]) -> Self {
        rmts_obs::count("rta.cache.rebuilds", 1);
        let mut cache = RtaCache {
            sorted: Vec::with_capacity(workload.len()),
            resp: Vec::with_capacity(workload.len()),
            safe: Vec::with_capacity(workload.len()),
            points: Vec::new(),
            memo: None,
            spare: Vec::new(),
            spare2: Vec::new(),
        };
        for &s in workload {
            cache.push(s);
        }
        cache
    }

    /// Empties the cache while keeping every internal buffer's capacity
    /// (subtasks, responses, scheduling points, retired probe buffers), so
    /// a recycled cache reaches its steady state without reallocating.
    /// Equivalent to `*self = RtaCache::new()` in every observable way.
    pub fn clear(&mut self) {
        self.sorted.clear();
        self.resp.clear();
        self.safe.clear();
        if let Some(memo) = self.memo.take() {
            self.stash_spare(memo.resp);
        }
    }

    /// Parks a retired response buffer for reuse, keeping the larger one.
    fn stash_spare(&mut self, v: Vec<Time>) {
        if v.capacity() > self.spare.capacity() {
            self.spare = v;
        }
    }

    /// Number of cached subtasks.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` iff the cache holds no subtasks.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The subtasks in priority order (highest first).
    pub fn subtasks(&self) -> &[Subtask] {
        &self.sorted
    }

    /// Cached response times, aligned with [`Self::subtasks`].
    pub fn responses(&self) -> &[Option<Time>] {
        &self.resp
    }

    /// `true` iff every cached subtask meets its synthetic deadline.
    pub fn is_schedulable(&self) -> bool {
        self.resp.iter().all(Option::is_some)
    }

    /// First sorted index whose priority value is ≥ `prio` — the end of the
    /// strictly-higher-priority prefix.
    fn lt_end(&self, prio: u32) -> usize {
        self.sorted.partition_point(|o| o.priority.0 < prio)
    }

    /// First sorted index whose priority value is > `prio` — the start of
    /// the strictly-lower-priority suffix (and the stable insertion slot).
    fn le_end(&self, prio: u32) -> usize {
        self.sorted.partition_point(|o| o.priority.0 <= prio)
    }

    /// The cached response time of the given subtask, or `None` when it
    /// misses its deadline or is not in the cache. Matches by full subtask
    /// equality within the equal-priority block.
    pub fn response_of(&self, s: &Subtask) -> Option<Time> {
        let lo = self.lt_end(s.priority.0);
        let hi = self.le_end(s.priority.0);
        self.sorted[lo..hi]
            .iter()
            .position(|o| o == s)
            .and_then(|k| self.resp[lo + k])
    }

    /// Inserts a subtask, computing its exact response time and
    /// incrementally updating the cached response times of every strictly
    /// lower-priority subtask (warm-started from their previous values).
    /// Higher- and equal-priority subtasks are untouched — the newcomer
    /// cannot interfere with them. Returns the newcomer's response time.
    pub fn push(&mut self, s: Subtask) -> Option<Time> {
        // Admit-then-place fast path: if the last successful probe asked
        // about exactly this newcomer, it already computed every fixed
        // point this insertion needs — splice them in and do no RTA work.
        // (The responses depend only on the probed parameters and the
        // workload, which is unchanged since any push clears the memo.)
        if let Some(memo) = self.memo.take() {
            if memo.priority != s.priority
                || memo.period != s.period
                || memo.deadline != s.deadline
                || memo.budget != s.wcet
            {
                self.stash_spare(memo.resp);
            } else {
                let pos = self.le_end(s.priority.0);
                self.sorted.insert(pos, s);
                let lt = self.lt_end(s.priority.0);
                let own = memo.resp[0];
                self.resp.insert(pos, Some(own));
                self.safe.insert(pos, stable_until(&self.sorted[..lt], own));
                debug_assert_eq!(pos + memo.resp.len(), self.sorted.len());
                let mut h = 0;
                for (i, &r) in memo.resp[1..].iter().enumerate() {
                    let k = pos + 1 + i;
                    let me = self.sorted[k];
                    // Invariant: the memo exists only after a *successful*
                    // probe, which proved every affected subtask meets its
                    // deadline — so no cached response below `pos` is None.
                    let prev = self.resp[k].expect("probe succeeded, so no prior miss");
                    let old_safe = self.safe[k];
                    // If the memoized fixed point is exactly the O(1) demand
                    // step and no ceiling term moved, the safe horizon
                    // updates in O(1) too; otherwise re-derive it by one
                    // prefix scan (still no fixed-point iteration).
                    let step = prev.saturating_add(interference(s.wcet, s.period, prev));
                    let s_bound =
                        Time::new(s.period.ticks().saturating_mul(prev.div_ceil(s.period)));
                    self.resp[k] = Some(r);
                    self.safe[k] = if r == step && step <= old_safe && step <= s_bound {
                        old_safe.min(s_bound)
                    } else {
                        while self.sorted[h].priority.0 < me.priority.0 {
                            h += 1;
                        }
                        stable_until(&self.sorted[..h], r)
                    };
                }
                rmts_obs::count("rta.cache.memo_hits", 1);
                self.stash_spare(memo.resp);
                return Some(own);
            }
        }
        rmts_obs::count("rta.cache.memo_misses", 1);
        let lt = self.lt_end(s.priority.0);
        let pos = self.le_end(s.priority.0);
        let own = fixed_point_from(s.wcet, s.wcet, s.deadline, pairs(&self.sorted[..lt]));
        self.sorted.insert(pos, s);
        self.resp.insert(pos, own);
        self.safe.insert(
            pos,
            match own {
                Some(r) => stable_until(&self.sorted[..lt], r),
                None => Time::ZERO,
            },
        );
        // Warm re-analysis of the strictly-lower-priority suffix. The new
        // subtask now sits inside each suffix member's interferer prefix.
        let mut h = 0;
        for k in pos + 1..self.sorted.len() {
            let Some(prev) = self.resp[k] else {
                continue; // a miss stays a miss under more interference
            };
            let me = self.sorted[k];
            // O(1) first demand step: `prev` is the fixed point of the old
            // demand, so the new demand there is `prev` plus the inserted
            // subtask's own interference — no prefix scan needed. The step
            // stays ≤ the new least fixed point (monotonicity), so it is a
            // valid warm start; if it already overshoots the deadline the
            // suffix member misses without any iteration at all.
            let start = prev.saturating_add(interference(s.wcet, s.period, prev));
            if start > me.deadline {
                self.resp[k] = None;
                self.safe[k] = Time::ZERO;
                continue;
            }
            // O(1) confirmation: if the step crosses no prefix period
            // multiple (`safe`) and no multiple of the inserted subtask's
            // period, every ceiling term is unchanged, so the step is
            // already the new least fixed point.
            let s_bound = Time::new(s.period.ticks().saturating_mul(prev.div_ceil(s.period)));
            if start <= self.safe[k] && start <= s_bound {
                self.resp[k] = Some(start);
                self.safe[k] = self.safe[k].min(s_bound);
                continue;
            }
            // Prefix end: priorities ascend with k, so advance monotonically
            // instead of re-running a partition point per member.
            while self.sorted[h].priority.0 < me.priority.0 {
                h += 1;
            }
            let r = fixed_point_from(start, me.wcet, me.deadline, pairs(&self.sorted[..h]));
            self.resp[k] = r;
            self.safe[k] = match r {
                Some(r) => stable_until(&self.sorted[..h], r),
                None => Time::ZERO,
            };
        }
        own
    }

    /// `true` iff the cached workload plus the newcomer with budget `x`
    /// would be fully schedulable — the incremental, allocation-free
    /// equivalent of [`crate::budget::admits_budget`].
    ///
    /// Subtasks with priority strictly above the newcomer are skipped
    /// entirely; strictly-lower ones are re-analyzed with the newcomer's
    /// interference added, warm-starting from their cached response times.
    /// On success the computed fixed points are memoized, so an immediately
    /// following [`Self::push`] of exactly the probed newcomer (the engine's
    /// admit-then-place pattern) splices them in instead of re-deriving
    /// them.
    ///
    /// `meter` is charged one probe up front (which also reads the wall
    /// clock) and the probe's fixed-point evaluations as iterations once the
    /// verdict is known. Every single evaluation is deadline-bounded, so
    /// post-charging still bounds the total work of a budgeted partitioning
    /// run while keeping the verdict and the memo independent of the meter.
    /// An unlimited meter never fails.
    pub fn probe_remember(
        &mut self,
        new: &NewcomerSpec,
        x: Time,
        meter: &BudgetMeter,
    ) -> Result<bool, AnalysisError> {
        meter.charge_probe()?;
        let mut tally = ProbeTally::default();
        let mut warm = WarmProbe {
            scratch: match self.memo.take() {
                Some(old) => old.resp, // reuse the allocation
                None => std::mem::take(&mut self.spare),
            },
            ..WarmProbe::default()
        };
        let ok = self.probe_warm(new, x, &mut warm, &mut tally);
        if ok {
            self.memo = Some(ProbeMemo {
                priority: new.priority,
                period: new.period,
                deadline: new.deadline,
                budget: x,
                resp: warm.resp,
            });
            self.stash_spare(warm.scratch);
        } else {
            // Failed probe: both buffers retire (no memo to carry them).
            self.stash_spare(warm.scratch);
            self.stash_spare(warm.resp);
        }
        tally.flush();
        meter.charge_iterations(tally.fixed_points())?;
        Ok(ok)
    }

    /// The largest admissible newcomer budget in `[0, cap]` by monotone
    /// binary search over warm-started [`Self::probe_remember`]-equivalent
    /// probes. Identical search trajectory — and result — to
    /// [`crate::budget::max_admissible_budget_bsearch`].
    ///
    /// On top of the per-subtask warm starts every probe gets from the
    /// cache, the search threads a `WarmProbe` through its probes: all
    /// response times are monotone in the probed budget, so the fixed
    /// points found by the last *feasible* probe are valid (and much
    /// tighter) starting points for every later, larger budget.
    ///
    /// `meter` is charged one probe for the search plus one iteration per
    /// fixed-point evaluation across all of its probes (same post-charge
    /// rationale as [`Self::probe_remember`]).
    pub fn max_budget_bsearch(
        &mut self,
        new: &NewcomerSpec,
        cap: Time,
        meter: &BudgetMeter,
    ) -> Result<Time, AnalysisError> {
        meter.charge_probe()?;
        let mut tally = ProbeTally::default();
        let mut iters = 0u64;
        // The search threads two buffers (seed + in-flight); both come from
        // and return to the retired-buffer pool, so repeated searches on a
        // warm cache allocate nothing.
        let mut warm = WarmProbe {
            x: Time::ZERO,
            resp: std::mem::take(&mut self.spare2),
            scratch: std::mem::take(&mut self.spare),
        };
        warm.resp.clear();
        let out = self.bsearch_with_warm(new, cap, &mut warm, &mut tally, &mut iters);
        self.spare = warm.scratch;
        self.spare2 = warm.resp;
        tally.flush();
        rmts_obs::count("rta.maxsplit.bsearch_iters", iters);
        meter.charge_iterations(tally.fixed_points())?;
        Ok(out)
    }

    fn bsearch_with_warm(
        &self,
        new: &NewcomerSpec,
        cap: Time,
        warm: &mut WarmProbe,
        tally: &mut ProbeTally,
        iters: &mut u64,
    ) -> Time {
        if !self.probe_warm(new, Time::ZERO, warm, tally) {
            return Time::ZERO;
        }
        let mut lo = Time::ZERO; // feasible
        let mut hi = cap.min(new.deadline); // candidate upper end
        if self.probe_warm(new, hi, warm, tally) {
            return hi;
        }
        // Invariant: lo feasible, hi infeasible.
        while hi.ticks() - lo.ticks() > 1 {
            *iters += 1;
            let mid = Time::new((lo.ticks() + hi.ticks()) / 2);
            if self.probe_warm(new, mid, warm, tally) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The probe body behind [`Self::probe_remember`] (unseeded: `warm.resp`
    /// empty) and [`Self::max_budget_bsearch`], which threads cross-probe
    /// warm starts through repeated probes of the *same* newcomer at
    /// ascending budgets. Seeding changes only the fixed-point starting
    /// values, never a verdict: every start stays ≤ the least fixed point
    /// it seeks.
    fn probe_warm(
        &self,
        new: &NewcomerSpec,
        x: Time,
        warm: &mut WarmProbe,
        tally: &mut ProbeTally,
    ) -> bool {
        if x > new.deadline {
            return false;
        }
        let lt = self.lt_end(new.priority.0);
        let suffix0 = self.le_end(new.priority.0);
        // Seeds apply only when this probe's budget is at least the seed's
        // (responses are monotone in the budget).
        let seeded = !warm.resp.is_empty() && x >= warm.x;
        let dx = if seeded {
            // Invariant: `seeded` is true only under `x >= warm.x` (checked
            // two lines up), so the subtraction cannot underflow.
            x.checked_sub(warm.x).expect("seeded probe budgets ascend")
        } else {
            Time::ZERO
        };
        warm.scratch.clear();

        // Newcomer's own response. From the seed fixed point `r₁` at budget
        // `x₁`, the demand at `r₁` under budget `x` is exactly `r₁ + (x −
        // x₁)` — an O(1) re-step.
        let start = if seeded {
            tally.resteps += 1;
            warm.resp[0].saturating_add(dx)
        } else {
            x
        };
        if start > new.deadline {
            tally.hit();
            return false;
        }
        tally.miss();
        let Some(own) = fixed_point_from(start, x, new.deadline, pairs(&self.sorted[..lt])) else {
            return false;
        };
        warm.scratch.push(own);

        // Strictly-lower suffix. From a seed fixed point `r₁`, the demand
        // under budget `x` is `r₁ + ⌈r₁/T_new⌉·(x − x₁)`; unseeded probes
        // re-step from the budget-free cached response instead (the O(1)
        // first demand step of `push`), which is still ≤ the new least fixed
        // point, so overshooting the deadline decides the probe without
        // evaluating the prefix even once.
        let mut h = 0;
        for k in suffix0..self.sorted.len() {
            let Some(prev) = self.resp[k] else {
                tally.hit();
                return false; // already missing without the newcomer
            };
            let me = &self.sorted[k];
            let start = if seeded {
                tally.resteps += 1;
                let r1 = warm.resp[1 + k - suffix0];
                r1.saturating_add(interference(dx, new.period, r1))
            } else {
                prev.saturating_add(interference(x, new.period, prev))
            };
            if start > me.deadline {
                tally.hit();
                return false;
            }
            // O(1) confirmation for unseeded steps: the step crosses no
            // prefix period multiple (`safe`) and no newcomer period
            // multiple, so every ceiling term in the demand is unchanged and
            // the step is already the new least fixed point — no prefix
            // scan at all.
            if !seeded {
                let n_bound =
                    Time::new(new.period.ticks().saturating_mul(prev.div_ceil(new.period)));
                if start <= self.safe[k] && start <= n_bound {
                    tally.hit();
                    warm.scratch.push(start);
                    continue;
                }
            }
            while self.sorted[h].priority.0 < me.priority.0 {
                h += 1;
            }
            tally.miss();
            let Some(r) = fp_prefix_plus(
                start,
                me.wcet,
                me.deadline,
                &self.sorted[..h],
                (x, new.period),
            ) else {
                return false;
            };
            warm.scratch.push(r);
        }

        // Fully feasible: this probe becomes the new seed.
        warm.x = x;
        std::mem::swap(&mut warm.resp, &mut warm.scratch);
        true
    }

    /// The largest admissible newcomer budget in `[0, cap]` by
    /// scheduling-point slack evaluation — the incremental counterpart of
    /// [`crate::budget::max_admissible_budget`], evaluating the exact same
    /// point sets and slack arithmetic but streaming interferer prefixes
    /// off the sorted slice and reusing one internal point buffer instead
    /// of allocating per affected subtask.
    pub fn max_budget_points(&mut self, new: &NewcomerSpec, cap: Time) -> Time {
        rmts_obs::count("rta.maxsplit.points_calls", 1);
        let cap = cap.min(new.deadline);
        if cap.is_zero() {
            return Time::ZERO;
        }

        // 1) The newcomer's own constraint: X ≤ max_t (t − I_hp(t)).
        let lt = self.lt_end(new.priority.0);
        scheduling_points_into(
            new.deadline,
            self.sorted[..lt].iter().map(|o| o.period),
            &mut self.points,
        );
        let mut best = Time::ZERO;
        for &t in &self.points {
            let demand = demand_over(Time::ZERO, &self.sorted[..lt], t);
            if let Some(slack) = t.checked_sub(demand) {
                best = best.max(slack);
            }
        }
        let mut x_max = best.min(cap);

        // 2) Each strictly-lower-priority subtask's tolerance.
        let mut h = 0;
        for k in self.le_end(new.priority.0)..self.sorted.len() {
            if x_max.is_zero() {
                return Time::ZERO;
            }
            let me = self.sorted[k];
            while self.sorted[h].priority.0 < me.priority.0 {
                h += 1;
            }
            scheduling_points_into(
                me.deadline,
                self.sorted[..h]
                    .iter()
                    .map(|o| o.period)
                    .chain(std::iter::once(new.period)),
                &mut self.points,
            );
            let mut tolerance: Option<Time> = None;
            for &t in &self.points {
                let demand = demand_over(me.wcet, &self.sorted[..h], t);
                if let Some(slack) = t.checked_sub(demand) {
                    let releases = t.div_ceil(new.period);
                    let x_t = Time::new(slack.ticks() / releases);
                    tolerance = Some(tolerance.map_or(x_t, |cur| cur.max(x_t)));
                }
            }
            match tolerance {
                // No point works even with X = 0: already unschedulable.
                None => return Time::ZERO,
                Some(tol) => x_max = x_max.min(tol),
            }
        }
        x_max
    }
}

/// Seed state threaded through the probes of one binary search: the budget
/// and complete response set (newcomer first, then the strictly-lower
/// suffix in order) of the last feasible probe.
#[derive(Debug, Clone, Default)]
struct WarmProbe {
    /// Budget of the last feasible probe.
    x: Time,
    /// Its fixed points: `[newcomer, suffix...]`. Empty = no seed yet.
    resp: Vec<Time>,
    /// Double buffer for the probe in flight (swapped in on success).
    scratch: Vec<Time>,
}

/// Streams `(C, T)` pairs off a subtask slice.
fn pairs(slice: &[Subtask]) -> impl Iterator<Item = (Time, Time)> + Clone + '_ {
    slice.iter().map(|o| (o.wcet, o.period))
}

/// The last time `t ≥ r` at which the demand `Σ ⌈t/T_j⌉·C_j` over `prefix`
/// still equals its value at `r`: the smallest prefix period multiple at or
/// beyond `r` (ceilings are constant on `((k−1)·T, k·T]`). `u64::MAX` for an
/// empty prefix (constant demand).
fn stable_until(prefix: &[Subtask], r: Time) -> Time {
    prefix.iter().fold(Time::new(u64::MAX), |acc, o| {
        acc.min(Time::new(
            o.period.ticks().saturating_mul(r.div_ceil(o.period)),
        ))
    })
}

/// [`fixed_point_from`] specialized to a subtask prefix plus one extra
/// `(C, T)` interferer — the probe hot path, kept free of generic iterator
/// plumbing. Returns the same least fixed point (saturating sums are
/// order-independent in value; only the early-abort point differs).
fn fp_prefix_plus(
    start: Time,
    c: Time,
    deadline: Time,
    prefix: &[Subtask],
    extra: (Time, Time),
) -> Option<Time> {
    if c > deadline {
        return None;
    }
    let mut r = start.max(c);
    loop {
        let mut next = c.saturating_add(interference(extra.0, extra.1, r));
        if next > deadline {
            return None;
        }
        for o in prefix {
            next = next.saturating_add(interference(o.wcet, o.period, r));
            if next > deadline {
                return None;
            }
        }
        if next == r {
            return Some(r);
        }
        debug_assert!(next > r, "RTA iteration must ascend (warm start ≤ lfp)");
        r = next;
    }
}

/// Time demand `c + Σ ⌈t/T_j⌉·C_j` over a subtask slice — the same
/// saturating fold as [`crate::tda::time_demand`], without the pair slice.
fn demand_over(c: Time, hp: &[Subtask], t: Time) -> Time {
    hp.iter().fold(c, |acc, o| {
        acc.saturating_add(crate::rta::interference(o.wcet, o.period, t))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{admits_budget, max_admissible_budget, max_admissible_budget_bsearch};
    use crate::rta::{response_time, response_times};
    use rmts_taskmodel::{Priority, SubtaskKind, TaskId};

    fn sub(id: u32, prio: u32, c: u64, t: u64, d: u64) -> Subtask {
        Subtask {
            parent: TaskId(id),
            seq: 1,
            kind: SubtaskKind::Whole,
            wcet: Time::new(c),
            period: Time::new(t),
            deadline: Time::new(d),
            priority: Priority(prio),
        }
    }

    fn newcomer(prio: u32, t: u64, d: u64) -> NewcomerSpec {
        NewcomerSpec {
            parent: TaskId(99),
            period: Time::new(t),
            deadline: Time::new(d),
            priority: Priority(prio),
        }
    }

    #[test]
    fn push_keeps_priority_order_and_exact_responses() {
        // Textbook set inserted out of order: the cache must sort it and
        // reproduce R = 1, 3, 10.
        let w = [sub(2, 2, 3, 12, 12), sub(0, 0, 1, 4, 4), sub(1, 1, 2, 6, 6)];
        let cache = RtaCache::from_workload(&w);
        let prios: Vec<u32> = cache.subtasks().iter().map(|s| s.priority.0).collect();
        assert_eq!(prios, vec![0, 1, 2]);
        assert_eq!(
            cache.responses(),
            &[Some(Time::new(1)), Some(Time::new(3)), Some(Time::new(10))]
        );
        assert!(cache.is_schedulable());
        for s in &w {
            assert_eq!(
                cache.response_of(s),
                response_time(&w, w.iter().position(|o| o == s).unwrap())
            );
        }
    }

    #[test]
    fn push_updates_only_lower_priorities() {
        let mut cache = RtaCache::new();
        cache.push(sub(2, 2, 3, 12, 12));
        // Inserting a higher-priority subtask must re-analyze the lower one…
        cache.push(sub(0, 0, 1, 4, 4));
        assert_eq!(cache.response_of(&sub(2, 2, 3, 12, 12)), Some(Time::new(4)));
        // …and a lower-priority insertion leaves existing entries untouched.
        cache.push(sub(3, 5, 1, 24, 24));
        assert_eq!(cache.response_of(&sub(0, 0, 1, 4, 4)), Some(Time::new(1)));
        assert_eq!(cache.response_of(&sub(2, 2, 3, 12, 12)), Some(Time::new(4)));
    }

    #[test]
    fn misses_are_cached_and_sticky() {
        let mut cache = RtaCache::new();
        cache.push(sub(0, 0, 2, 4, 4));
        let miss = cache.push(sub(1, 1, 3, 6, 6)); // R diverges past 6
        assert_eq!(miss, None);
        assert!(!cache.is_schedulable());
        // More interference cannot resurrect it.
        cache.push(sub(2, 0, 1, 8, 8));
        assert_eq!(cache.response_of(&sub(1, 1, 3, 6, 6)), None);
    }

    #[test]
    fn probe_matches_scratch_admission() {
        let w = [sub(1, 5, 3, 12, 12), sub(2, 7, 2, 24, 24)];
        let mut cache = RtaCache::from_workload(&w);
        let new = newcomer(0, 4, 4);
        let meter = BudgetMeter::unlimited();
        for x in 0..=6 {
            assert_eq!(
                cache.probe_remember(&new, Time::new(x), &meter),
                Ok(admits_budget(&w, &new, Time::new(x))),
                "budget {x}"
            );
        }
    }

    #[test]
    fn probe_skips_higher_priority_subtasks() {
        // Newcomer at the *lowest* priority: only its own fixed point is
        // evaluated; existing subtasks are untouched (the scratch path
        // behaves identically, including on pre-existing misses).
        let w = [sub(0, 0, 2, 4, 4), sub(1, 1, 3, 6, 6)]; // τ1 misses
        let mut cache = RtaCache::from_workload(&w);
        let new = newcomer(2, 20, 20);
        let meter = BudgetMeter::unlimited();
        for x in 0..=8 {
            assert_eq!(
                cache.probe_remember(&new, Time::new(x), &meter),
                Ok(admits_budget(&w, &new, Time::new(x))),
                "budget {x}"
            );
        }
    }

    #[test]
    fn max_budget_variants_match_scratch() {
        let w = [sub(1, 5, 3, 12, 12), sub(2, 7, 2, 24, 24)];
        let mut cache = RtaCache::from_workload(&w);
        let new = newcomer(0, 4, 4);
        let meter = BudgetMeter::unlimited();
        for cap in [0u64, 1, 3, 7, 100] {
            let cap = Time::new(cap);
            assert_eq!(
                cache.max_budget_bsearch(&new, cap, &meter),
                Ok(max_admissible_budget_bsearch(&w, &new, cap))
            );
            assert_eq!(
                cache.max_budget_points(&new, cap),
                max_admissible_budget(&w, &new, cap)
            );
        }
    }

    /// Asserts how `run` charges a meter: unlimited gives `expected`, no
    /// probe allowance fails on probes, exactly `k` iterations (the fixed
    /// points evaluated, counted as `rta.cache.misses`) pass and `k − 1`
    /// fail on iterations.
    fn assert_charges<T: PartialEq + std::fmt::Debug>(
        expected: T,
        run: impl Fn(&BudgetMeter) -> Result<T, AnalysisError>,
        ctx: &str,
    ) {
        use rmts_taskmodel::{AnalysisBudget, BudgetResource};
        let exhausted = |resource| Err(AnalysisError::BudgetExhausted { resource });
        let (out, snap) = rmts_obs::record(|| run(&BudgetMeter::unlimited()));
        let k = snap.counter("rta.cache.misses");
        assert_eq!(out, Ok(expected), "{ctx}: unlimited");
        assert!(k > 0, "{ctx}: evaluated no fixed point");
        let budget = AnalysisBudget::unlimited();
        let probeless = budget.with_max_probes(0).start();
        assert_eq!(run(&probeless), exhausted(BudgetResource::Probes), "{ctx}");
        let enough = budget.with_max_iterations(k).start();
        assert_eq!(run(&enough), out, "{ctx}: {k} iterations");
        let short = budget.with_max_iterations(k - 1).start();
        assert_eq!(
            run(&short),
            exhausted(BudgetResource::Iterations),
            "{ctx}: {} iterations",
            k - 1
        );
    }

    #[test]
    fn probe_charges_one_probe_and_its_fixed_points() {
        let w = [sub(1, 5, 3, 12, 12), sub(2, 7, 2, 24, 24)];
        let new = newcomer(0, 4, 4);
        for x in 0..=4 {
            let x = Time::new(x);
            assert_charges(
                admits_budget(&w, &new, x),
                |meter| RtaCache::from_workload(&w).probe_remember(&new, x, meter),
                &format!("probe at budget {x}"),
            );
        }
    }

    #[test]
    fn bsearch_charges_one_probe_and_its_fixed_points() {
        let w = [sub(1, 5, 3, 12, 12), sub(2, 7, 2, 24, 24)];
        let new = newcomer(0, 4, 4);
        for cap in [0u64, 1, 3, 7, 100] {
            let cap = Time::new(cap);
            assert_charges(
                max_admissible_budget_bsearch(&w, &new, cap),
                |meter| RtaCache::from_workload(&w).max_budget_bsearch(&new, cap, meter),
                &format!("search with cap {cap}"),
            );
        }
    }

    #[test]
    fn equal_priorities_do_not_interfere() {
        // Two subtasks at the same priority value: neither interferes with
        // the other (strict comparison), matching the scratch analyzer.
        let w = [sub(0, 3, 2, 10, 10), sub(1, 3, 2, 10, 10)];
        let mut cache = RtaCache::from_workload(&w);
        assert_eq!(cache.responses(), &[Some(Time::new(2)), Some(Time::new(2))]);
        assert_eq!(
            response_times(&w).unwrap(),
            vec![Time::new(2), Time::new(2)]
        );
        // An equal-priority newcomer probes exactly like the scratch path.
        let new = newcomer(3, 10, 10);
        let meter = BudgetMeter::unlimited();
        for x in 0..=10 {
            assert_eq!(
                cache.probe_remember(&new, Time::new(x), &meter),
                Ok(admits_budget(&w, &new, Time::new(x)))
            );
        }
    }

    #[test]
    fn empty_cache_probes_like_empty_workload() {
        let mut cache = RtaCache::new();
        let new = newcomer(0, 10, 10);
        let meter = BudgetMeter::unlimited();
        assert_eq!(cache.probe_remember(&new, Time::new(10), &meter), Ok(true));
        assert_eq!(cache.probe_remember(&new, Time::new(11), &meter), Ok(false));
        assert_eq!(cache.max_budget_points(&new, Time::new(100)), Time::new(10));
        assert_eq!(
            cache.max_budget_bsearch(&new, Time::new(100), &meter),
            Ok(Time::new(10))
        );
        assert!(cache.is_empty());
    }
}
