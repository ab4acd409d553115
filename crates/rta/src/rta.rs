//! Response-time analysis (RTA) for fixed-priority workloads with
//! constrained (synthetic) deadlines.
//!
//! For a subtask `τ_i^k` with budget `C`, synthetic deadline `Δ ≤ T` and
//! higher-priority interferers `(C_j, T_j)` on the same processor, the
//! worst-case response time is the least fixed point of
//!
//! ```text
//! R = C + Σ_j ⌈R / T_j⌉ · C_j
//! ```
//!
//! computed by standard ascending iteration from `R⁰ = C`. Because
//! `Δ_i^k ≤ T_i`, each subtask has at most one job pending at a time, so the
//! first job in a synchronous busy period is the worst case and this test is
//! **exact** (necessary and sufficient).
//!
//! The iteration aborts as soon as `R` exceeds the deadline: for admission
//! purposes the precise divergent value is irrelevant, and this keeps the
//! analysis pseudo-polynomial with a small constant.

use rmts_taskmodel::{Subtask, Time};

/// Interference of one higher-priority interferer over a window of length
/// `t`: `⌈t / T⌉ · C`, saturating.
#[inline]
pub fn interference(wcet: Time, period: Time, window: Time) -> Time {
    let jobs = window.div_ceil(period);
    wcet.checked_mul(jobs).unwrap_or(Time::MAX)
}

/// The least fixed point of `R = c + Σ ⌈R/T_j⌉·C_j`, or `None` if it
/// exceeds `deadline`. `hp` lists the higher-priority `(C_j, T_j)` pairs.
pub fn fixed_point(c: Time, deadline: Time, hp: &[(Time, Time)]) -> Option<Time> {
    fixed_point_from(c, c, deadline, hp.iter().copied())
}

/// The least fixed point of `R = c + Σ ⌈R/T_j⌉·C_j`, iterated from a
/// warm-start value `start`, or `None` if it exceeds `deadline`.
///
/// **Soundness of warm starts.** The demand function
/// `g(t) = c + Σ ⌈t/T_j⌉·C_j` is monotone, so an ascending iteration from
/// any `start ≤ lfp(g)` stays below `lfp(g)` and converges to exactly
/// `lfp(g)` — the same value the cold iteration from `c` reaches. The cached
/// response time of a subtask is the least fixed point of its *previous*
/// demand function `f ≤ g` (adding an interferer or growing a budget only
/// increases demand), hence `lfp(f) ≤ lfp(g)` and is a valid warm start.
/// Passing `start > lfp(g)` is a contract violation (caught by a debug
/// assertion: the iteration would descend).
///
/// `hp` is any re-iterable sequence of `(C_j, T_j)` pairs, so callers can
/// stream interferers straight out of a slice without collecting them.
pub fn fixed_point_from<I>(start: Time, c: Time, deadline: Time, hp: I) -> Option<Time>
where
    I: Iterator<Item = (Time, Time)> + Clone,
{
    if c > deadline {
        return None;
    }
    let mut r = start.max(c);
    loop {
        let mut next = c;
        for (cj, tj) in hp.clone() {
            next = next.saturating_add(interference(cj, tj, r));
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

/// Streams the higher-priority `(C, T)` pairs for the subtask at `index`
/// within `workload`, in workload order — no per-call allocation. The one
/// interferer-set definition every scratch analysis in this crate uses.
pub(crate) fn higher_priority_of(
    workload: &[Subtask],
    index: usize,
) -> impl Iterator<Item = (Time, Time)> + Clone + '_ {
    let me = workload[index].priority;
    workload
        .iter()
        .enumerate()
        .filter(move |&(j, s)| j != index && s.priority.is_higher_than(me))
        .map(|(_, s)| (s.wcet, s.period))
}

/// Exact worst-case response time of `workload[index]` against its
/// synthetic deadline; `None` if the deadline is missed.
pub fn response_time(workload: &[Subtask], index: usize) -> Option<Time> {
    let me = &workload[index];
    fixed_point_from(
        me.wcet,
        me.wcet,
        me.deadline,
        higher_priority_of(workload, index),
    )
}

/// Response times of every subtask in the workload; `None` if any subtask
/// misses its synthetic deadline. The returned vector is index-aligned with
/// `workload`.
pub fn response_times(workload: &[Subtask]) -> Option<Vec<Time>> {
    (0..workload.len())
        .map(|i| response_time(workload, i))
        .collect()
}

/// `true` iff every subtask in the workload meets its synthetic deadline
/// under local RMS with original priorities — the admission test used by
/// `Assign` (paper Algorithm 2, line 1).
pub fn is_schedulable(workload: &[Subtask]) -> bool {
    (0..workload.len()).all(|i| response_time(workload, i).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmts_taskmodel::{Priority, SubtaskKind, TaskId};

    /// Builds a plain (whole) subtask for tests.
    fn sub(id: u32, prio: u32, c: u64, t: u64) -> Subtask {
        Subtask {
            parent: TaskId(id),
            seq: 1,
            kind: SubtaskKind::Whole,
            wcet: Time::new(c),
            period: Time::new(t),
            deadline: Time::new(t),
            priority: Priority(prio),
        }
    }

    fn sub_d(id: u32, prio: u32, c: u64, t: u64, d: u64) -> Subtask {
        Subtask {
            deadline: Time::new(d),
            ..sub(id, prio, c, t)
        }
    }

    #[test]
    fn lone_task_response_is_its_wcet() {
        let w = [sub(0, 0, 3, 10)];
        assert_eq!(response_time(&w, 0), Some(Time::new(3)));
    }

    #[test]
    fn textbook_example() {
        // Classic: τ1=(1,4), τ2=(2,6), τ3=(3,12).
        // R1 = 1. R2 = 2 + ⌈R/4⌉·1 → 3. R3 = 3 + ⌈R/4⌉ + 2⌈R/6⌉ → iterate:
        //   3 → 3+1+2=6 → 3+2+2=7 → 3+2+4=9 → 3+3+4=10 → 3+3+4=10 ✓
        let w = [sub(0, 0, 1, 4), sub(1, 1, 2, 6), sub(2, 2, 3, 12)];
        assert_eq!(response_time(&w, 0), Some(Time::new(1)));
        assert_eq!(response_time(&w, 1), Some(Time::new(3)));
        assert_eq!(response_time(&w, 2), Some(Time::new(10)));
        assert!(is_schedulable(&w));
    }

    #[test]
    fn deadline_miss_detected() {
        // τ1=(2,4), τ2=(3,6): R2 = 3 + 2⌈R/4⌉ → 5 → 3+4=7 > 6.
        let w = [sub(0, 0, 2, 4), sub(1, 1, 3, 6)];
        assert_eq!(response_time(&w, 0), Some(Time::new(2)));
        assert_eq!(response_time(&w, 1), None);
        assert!(!is_schedulable(&w));
        assert!(response_times(&w).is_none());
    }

    #[test]
    fn full_utilization_harmonic_schedulable() {
        // Harmonic set at exactly 100%: (1,2), (1,4), (1,4): U = 1.0.
        let w = [sub(0, 0, 1, 2), sub(1, 1, 1, 4), sub(2, 2, 1, 4)];
        assert!(is_schedulable(&w));
        assert_eq!(response_time(&w, 2), Some(Time::new(4)));
    }

    #[test]
    fn synthetic_deadline_constrains() {
        // Same workload, but the low-priority subtask has Δ < T.
        let w_ok = [sub(0, 0, 1, 4), sub_d(1, 1, 2, 8, 4)];
        // R = 2 + ⌈R/4⌉ → 3 ≤ 4 OK.
        assert_eq!(response_time(&w_ok, 1), Some(Time::new(3)));
        let w_tight = [sub(0, 0, 1, 4), sub_d(1, 1, 2, 8, 2)];
        assert_eq!(response_time(&w_tight, 1), None);
    }

    #[test]
    fn order_in_slice_is_irrelevant() {
        // Priority comes from the Priority field, not slice position.
        let a = [sub(0, 0, 1, 4), sub(1, 1, 2, 6)];
        let b = [sub(1, 1, 2, 6), sub(0, 0, 1, 4)];
        assert_eq!(response_time(&a, 1), response_time(&b, 0));
    }

    #[test]
    fn response_times_align_with_input() {
        let w = [sub(2, 2, 3, 12), sub(0, 0, 1, 4), sub(1, 1, 2, 6)];
        let rs = response_times(&w).unwrap();
        assert_eq!(rs, vec![Time::new(10), Time::new(1), Time::new(3)]);
    }

    #[test]
    fn interference_saturates() {
        assert_eq!(
            interference(Time::MAX, Time::new(1), Time::new(10)),
            Time::MAX
        );
    }

    #[test]
    fn budget_larger_than_deadline_is_immediate_miss() {
        let w = [sub_d(0, 0, 5, 10, 4)];
        assert_eq!(response_time(&w, 0), None);
    }

    #[test]
    fn equal_period_distinct_priority() {
        // Two tasks with the same period: the lower-priority one waits.
        let w = [sub(0, 0, 2, 10), sub(1, 1, 2, 10)];
        assert_eq!(response_time(&w, 0), Some(Time::new(2)));
        assert_eq!(response_time(&w, 1), Some(Time::new(4)));
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point() {
        // τ3 = (3,12) under (1,4) and (2,6): R = 10 (textbook). Warm-start
        // the iteration from every valid lower value and from the fixed
        // point itself; all must land on 10.
        let hp = [(Time::new(1), Time::new(4)), (Time::new(2), Time::new(6))];
        let cold = fixed_point(Time::new(3), Time::new(12), &hp).unwrap();
        assert_eq!(cold, Time::new(10));
        for start in 0..=10 {
            let warm = fixed_point_from(
                Time::new(start),
                Time::new(3),
                Time::new(12),
                hp.iter().copied(),
            );
            assert_eq!(warm, Some(cold), "start {start}");
        }
    }

    #[test]
    fn warm_start_detects_misses() {
        // (2,4) + newcomer interference (3,6) on c=3, Δ=6: diverges past 6
        // regardless of the warm start.
        let hp = [(Time::new(2), Time::new(4))];
        assert_eq!(fixed_point(Time::new(3), Time::new(6), &hp), None);
        assert_eq!(
            fixed_point_from(Time::new(5), Time::new(3), Time::new(6), hp.iter().copied()),
            None
        );
    }

    #[test]
    fn fixed_point_exact_at_boundary() {
        // R lands exactly on the deadline: still schedulable.
        let w = [sub(0, 0, 2, 4), sub_d(1, 1, 2, 8, 4)];
        // R = 2 + 2⌈R/4⌉ → 4 → 2+2=4 ✓ (⌈4/4⌉=1)
        assert_eq!(response_time(&w, 1), Some(Time::new(4)));
    }
}
