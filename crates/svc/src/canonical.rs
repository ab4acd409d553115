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
//!
//! The pairs are kept **packed**: per pair, the wcet and then the
//! period's difference from the previous period, each as an LEB128
//! varint. Canonical periods ascend, so the differences are small and a
//! deep set takes about a quarter of its 16 bytes per pair. Packing is
//! injective (the difference wraps, so even an unsorted list decodes
//! back exactly), so comparing packed bytes is comparing pair lists.

use crate::record::{self, FNV_OFFSET};
use rmts_taskmodel::time::gcd;
use rmts_taskmodel::{ModelError, TaskSet};

/// A task set in canonical form: `(wcet, period)` pairs sorted by
/// `(period, wcet)`, times divided by their collective gcd.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalSet {
    packed: Vec<u8>,
    perm: Vec<usize>,
    scale: u64,
    hash: u64,
}

impl CanonicalSet {
    /// Canonicalizes a task set (see the module docs for why this is
    /// verdict-preserving).
    pub fn of(ts: &TaskSet) -> Self {
        let tasks = ts.tasks();
        Self::build(tasks.len(), |i| {
            (tasks[i].wcet.ticks(), tasks[i].period.ticks())
        })
    }

    /// Canonicalizes a raw `(wcet, period)` pair list (the request wire
    /// format) without requiring it to be a valid task set yet — validation
    /// happens in [`CanonicalSet::to_taskset`], when the request is analysed.
    pub fn of_pairs(raw: &[(u64, u64)]) -> Self {
        Self::build(raw.len(), |i| raw[i])
    }

    /// Sorts, rescales, hashes and packs the `n` pairs `pair(0..n)` in
    /// one pass and two allocations: the permutation and the packed key,
    /// sized for the longest varints so that it never grows.
    fn build(n: usize, pair: impl Fn(usize) -> (u64, u64)) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            let (c, t) = pair(i);
            (t, c, i)
        });
        let scale = collective_gcd((0..n).map(&pair));
        let mut packed = Vec::with_capacity(n * 2 * MAX_VARINT);
        let mut hash = FNV_OFFSET;
        let mut prev = 0;
        for &i in &order {
            let (c, t) = pair(i);
            let (c, t) = (c / scale, t / scale);
            hash = fnv1a_pair(hash, (c, t));
            push_pair(&mut packed, &mut prev, (c, t));
        }
        CanonicalSet {
            packed,
            perm: order,
            scale,
            hash,
        }
    }

    /// The canonical `(wcet, period)` pairs — the exact memo key
    /// material, decoded from the packed form the set keeps.
    pub fn pairs(&self) -> Vec<(u64, u64)> {
        unpack(&self.packed)
    }

    /// The packed canonical pairs (module docs): what the memo stores and
    /// compares.
    pub(crate) fn packed(&self) -> &[u8] {
        &self.packed
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
        TaskSet::from_pairs(&self.pairs())
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
pub(crate) fn fnv1a(pairs: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    pairs.into_iter().fold(FNV_OFFSET, fnv1a_pair)
}

/// Folds one pair's little-endian bytes into a running FNV-1a hash.
fn fnv1a_pair(h: u64, (c, t): (u64, u64)) -> u64 {
    record::fnv1a(record::fnv1a(h, &c.to_le_bytes()), &t.to_le_bytes())
}

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;

/// Packs a pair list (module docs).
pub(crate) fn pack(pairs: impl IntoIterator<Item = (u64, u64)>) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0;
    for pair in pairs {
        push_pair(&mut out, &mut prev, pair);
    }
    out
}

/// Appends one pair to packed bytes: its wcet, then its period's wrapping
/// difference from `prev`, the previous pair's period (0 for the first).
fn push_pair(out: &mut Vec<u8>, prev: &mut u64, (c, t): (u64, u64)) {
    for mut v in [c, t.wrapping_sub(*prev)] {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    *prev = t;
}

/// Decodes [`pack`]'s bytes back into the pair list.
pub(crate) fn unpack(mut packed: &[u8]) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    let mut prev = 0u64;
    while !packed.is_empty() {
        let c = read_varint(&mut packed);
        let t = prev.wrapping_add(read_varint(&mut packed));
        pairs.push((c, t));
        prev = t;
    }
    pairs
}

/// Reads one varint off the front of `bytes`. Only [`push_pair`] writes
/// packed bytes, so they always hold whole varints.
fn read_varint(bytes: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    for shift in (0..7 * MAX_VARINT).step_by(7) {
        let (&b, rest) = bytes
            .split_first()
            .expect("packed pairs end on a whole varint");
        *bytes = rest;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
    }
    unreachable!("a packed varint has at most 10 bytes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonicalization_is_idempotent() {
        let raw = vec![(4, 16), (2, 8), (1, 4), (2, 8)];
        let once = CanonicalSet::of_pairs(&raw);
        let twice = CanonicalSet::of_pairs(&once.pairs());
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

    #[test]
    fn packing_writes_delta_periods_as_varints() {
        // Per pair: the wcet, then the period minus the previous period.
        assert_eq!(
            pack([(1, 4), (2, 8), (300, 16)]),
            [1, 4, 2, 4, 0xac, 0x02, 8]
        );
        assert!(pack([]).is_empty());
        let canon = CanonicalSet::of_pairs(&[(4, 16), (1, 4), (2, 8)]);
        assert_eq!(canon.packed(), &[1, 4, 2, 4, 4, 8]);
        assert_eq!(canon.pairs(), [(1, 4), (2, 8), (4, 16)]);
    }

    /// A `u64` drawn to reach the varint edges: 0, `u64::MAX`, small
    /// values and anything at all.
    fn edgy() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..=u64::MAX).prop_map(|(kind, x)| match kind {
            0 => 0,
            1 => u64::MAX,
            2 => x % 300,
            _ => x,
        })
    }

    proptest! {
        /// Packing is exact: any pair list, sorted or not, decodes back
        /// unchanged, and two lists pack to the same bytes only when they
        /// are equal. The second list is the first with at most one edit,
        /// so near-misses are the common case.
        #[test]
        fn packing_round_trips_and_is_injective(
            a in proptest::collection::vec((edgy(), edgy()), 0..12),
            edit in (0usize..12, 0u8..4, edgy()),
        ) {
            let (at, kind, v) = edit;
            let mut b = a.clone();
            if !b.is_empty() {
                let i = at % b.len();
                match kind {
                    0 => b[i].0 = v,
                    1 => b[i].1 = v,
                    2 => {
                        b.remove(i);
                    }
                    _ => {}
                }
            }
            let (pa, pb) = (pack(a.iter().copied()), pack(b.iter().copied()));
            prop_assert_eq!(unpack(&pa), a.clone());
            prop_assert_eq!(unpack(&pb), b.clone());
            prop_assert_eq!(pa == pb, a == b);
        }
    }
}
