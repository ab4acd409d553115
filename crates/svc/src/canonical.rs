//! Task-set canonicalization: the service's deduplication key.
//!
//! Two requests should share one analysis iff they ask the same
//! mathematical question. RM schedulability (for implicit-deadline RM
//! priorities, which the whole workspace assumes) is invariant under
//!
//! * **relabeling** — task ids never influence admission, only the
//!   `(period, id)` priority order, which a deterministic sort freezes; and
//! * **uniform time scaling** — all analyses are integer arithmetic over
//!   wcets/periods, and `⌈(k·a)/(k·b)⌉ = ⌈a/b⌉` for every `k ≥ 1`, so
//!   dividing every time by the collective gcd changes no verdict.
//!
//! [`CanonicalSet::of`] applies both: sort by `(period, wcet)`, relabel
//! `0..n`, divide by the gcd. The canonical pair list is the *exact* memo
//! key — the FNV-1a hash is used only for shard routing, so a hash
//! collision can never conflate two different task sets.

use crate::record::{self, FNV_OFFSET};
use rmts_taskmodel::time::gcd;
use rmts_taskmodel::{ModelError, TaskSet};

/// A task set in canonical form: `(wcet, period)` pairs sorted by
/// `(period, wcet)`, times divided by their collective gcd.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalSet {
    pairs: Vec<(u64, u64)>,
    perm: Vec<usize>,
    scale: u64,
    hash: u64,
}

impl CanonicalSet {
    /// Canonicalizes a task set (see the module docs for why this is
    /// verdict-preserving).
    pub fn of(ts: &TaskSet) -> Self {
        let tasks = ts.tasks();
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by_key(|&i| (tasks[i].period.ticks(), tasks[i].wcet.ticks(), i));
        let scale = collective_gcd(tasks.iter().map(|t| (t.wcet.ticks(), t.period.ticks())));
        let pairs: Vec<(u64, u64)> = order
            .iter()
            .map(|&i| {
                (
                    tasks[i].wcet.ticks() / scale,
                    tasks[i].period.ticks() / scale,
                )
            })
            .collect();
        let hash = fnv1a(&pairs);
        CanonicalSet {
            pairs,
            perm: order,
            scale,
            hash,
        }
    }

    /// Canonicalizes a raw `(wcet, period)` pair list (the request wire
    /// format) without requiring it to be a valid task set yet — validation
    /// happens in [`CanonicalSet::to_taskset`], when the request is analysed.
    pub fn of_pairs(raw: &[(u64, u64)]) -> Self {
        let mut order: Vec<usize> = (0..raw.len()).collect();
        order.sort_by_key(|&i| (raw[i].1, raw[i].0, i));
        let scale = collective_gcd(raw.iter().copied());
        let pairs: Vec<(u64, u64)> = order
            .iter()
            .map(|&i| (raw[i].0 / scale, raw[i].1 / scale))
            .collect();
        let hash = fnv1a(&pairs);
        CanonicalSet {
            pairs,
            perm: order,
            scale,
            hash,
        }
    }

    /// The canonical `(wcet, period)` pairs — the exact memo key material.
    pub fn pairs(&self) -> &[(u64, u64)] {
        &self.pairs
    }

    /// `permutation()[canonical_index]` is the position the task held in
    /// the original request, for mapping verdict task ids back.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// The collective gcd that was divided out.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// FNV-1a hash of the canonical pairs. **Routing only** — never used
    /// for equality.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Materializes the canonical task set (ids `0..n` in sorted order).
    /// Fails when the pairs violate the task model (zero wcet, wcet >
    /// period, …) — the service turns that into a
    /// [`Verdict::Invalid`](crate::Verdict::Invalid) response.
    pub fn to_taskset(&self) -> Result<TaskSet, ModelError> {
        TaskSet::from_pairs(&self.pairs)
    }
}

/// The collective gcd of every wcet and period (1 for an empty set). The
/// fold stops once it reaches 1, since `gcd(1, x) = 1`.
fn collective_gcd(pairs: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut g = 0;
    for (c, t) in pairs {
        g = gcd(gcd(g, c), t);
        if g == 1 {
            break;
        }
    }
    g.max(1)
}

/// FNV-1a over the little-endian bytes of each pair. Crate-visible so
/// restored memo entries can recompute their routing hash.
pub(crate) fn fnv1a(pairs: &[(u64, u64)]) -> u64 {
    pairs.iter().fold(FNV_OFFSET, |h, &(c, t)| {
        record::fnv1a(record::fnv1a(h, &c.to_le_bytes()), &t.to_le_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_is_idempotent() {
        let raw = vec![(4, 16), (2, 8), (1, 4), (2, 8)];
        let once = CanonicalSet::of_pairs(&raw);
        let twice = CanonicalSet::of_pairs(once.pairs());
        assert_eq!(once.pairs(), twice.pairs());
        assert_eq!(once.hash(), twice.hash());
        assert_eq!(twice.scale(), 1, "already-canonical sets rescale by 1");
    }

    #[test]
    fn relabeling_and_scaling_collapse_to_one_form() {
        // The same set three ways: shuffled, scaled ×6, and plain.
        let plain = CanonicalSet::of_pairs(&[(1, 4), (2, 8), (2, 8), (4, 16)]);
        let shuffled = CanonicalSet::of_pairs(&[(2, 8), (4, 16), (1, 4), (2, 8)]);
        let scaled = CanonicalSet::of_pairs(&[(6, 24), (12, 48), (12, 48), (24, 96)]);
        assert_eq!(plain.pairs(), shuffled.pairs());
        assert_eq!(plain.pairs(), scaled.pairs());
        assert_eq!(scaled.scale(), 6);
        assert_eq!(plain.hash(), scaled.hash());
    }

    #[test]
    fn different_sets_stay_different() {
        let a = CanonicalSet::of_pairs(&[(1, 4), (2, 8)]);
        let b = CanonicalSet::of_pairs(&[(1, 4), (3, 8)]);
        assert_ne!(a.pairs(), b.pairs());
    }

    #[test]
    fn permutation_maps_back_to_request_positions() {
        let raw = vec![(4, 16), (1, 4), (2, 8)];
        let canon = CanonicalSet::of_pairs(&raw);
        // canonical order: (1,4) < (2,8) < (4,16) → original positions 1, 2, 0.
        assert_eq!(canon.permutation(), &[1, 2, 0]);
        for (ci, &oi) in canon.permutation().iter().enumerate() {
            let (c, t) = canon.pairs()[ci];
            assert_eq!((c * canon.scale(), t * canon.scale()), raw[oi]);
        }
    }

    #[test]
    fn taskset_and_pairs_entry_points_agree() {
        let ts = TaskSet::from_pairs(&[(3, 9), (6, 18)]).unwrap();
        let via_ts = CanonicalSet::of(&ts);
        let via_pairs = CanonicalSet::of_pairs(&[(3, 9), (6, 18)]);
        assert_eq!(via_ts, via_pairs);
        assert_eq!(via_ts.scale(), 3);
        assert!(via_ts.to_taskset().is_ok());
    }

    #[test]
    fn invalid_pairs_surface_at_materialization_not_canonicalization() {
        let canon = CanonicalSet::of_pairs(&[(5, 4)]); // wcet > period
        assert!(canon.to_taskset().is_err());
    }

    #[test]
    fn routing_hash_is_pinned() {
        // The hash is on the wire (`canonical_hash`) and picks the shard a
        // restored memo entry lands on; it must never drift.
        let raw = [(4, 16), (1, 4), (2, 8)];
        assert_eq!(CanonicalSet::of_pairs(&raw).hash(), 0x48c7_3df1_29eb_cabe);
    }
}
