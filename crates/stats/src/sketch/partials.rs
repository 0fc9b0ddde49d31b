//! Keyed per-design-point partials with an order-independent union and a
//! canonical fold.
//!
//! Floating-point sketch merges are deterministic but **not**
//! bit-associative: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` can differ in the last
//! ulp. A campaign that merged whatever its workers produced, in whatever
//! order the scheduler ran them, would therefore report different bits at
//! different thread counts. `KeyedPartials` removes the schedule from the
//! algebra:
//!
//! 1. every sample stream gets a stable key (the design-point index), and
//!    exactly one worker builds each keyed summary sequentially;
//! 2. cross-worker/cross-shard combination is a **disjoint map union** —
//!    trivially associative and commutative, so any merge tree over the
//!    same shards yields the identical map;
//! 3. [`KeyedPartials::finalize`] folds the map in ascending key order —
//!    a canonical reduction whose result cannot depend on thread or shard
//!    count.
//!
//! Overlapping keys (a shard resumed and re-summarized a point) merge via
//! the summary's own `merge_from`, which keeps the union lossless but is
//! only schedule-independent when each key is produced by one writer —
//! the contract the campaign runner upholds.
//!
//! A set keeps the bound every summary keeps: its finite and its
//! quarantined counts, each summed over all parts, stay at most 2⁵³.
//! Every operation that would pass it fails and changes nothing.

use std::collections::BTreeMap;

use crate::error::StatsResult;

use super::{check_merged_count, MergeableSummary};

/// A set of mergeable summaries keyed by `u64` (design-point index).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KeyedPartials<S> {
    parts: BTreeMap<u64, S>,
    /// Finite observations summed over `parts`, at most 2⁵³.
    count: u64,
    /// Quarantined observations summed over `parts`, at most 2⁵³.
    non_finite: u64,
}

impl<S: MergeableSummary + Clone> KeyedPartials<S> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            parts: BTreeMap::new(),
            count: 0,
            non_finite: 0,
        }
    }

    /// Both totals once `count` finite and `non_finite` quarantined
    /// observations join the set; refused with
    /// [`StatsError::MismatchedSketch`](crate::StatsError::MismatchedSketch) past 2⁵³.
    fn totals_with(&self, count: u64, non_finite: u64) -> StatsResult<(u64, u64)> {
        check_merged_count(self.count, count)?;
        check_merged_count(self.non_finite, non_finite)?;
        Ok((self.count + count, self.non_finite + non_finite))
    }

    /// Number of keyed partials.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The partial for `key`, if present.
    pub fn get(&self, key: u64) -> Option<&S> {
        self.parts.get(&key)
    }

    /// Ascending iterator over `(key, summary)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &S)> {
        self.parts.iter().map(|(k, s)| (*k, s))
    }

    /// Inserts a partial. A duplicate key merges into the existing
    /// summary via [`MergeableSummary::merge_from`]. Fails, leaving `self`
    /// unchanged, when that merge fails or when a total count would pass
    /// 2⁵³ ([`StatsError::MismatchedSketch`](crate::StatsError::MismatchedSketch)).
    pub fn insert(&mut self, key: u64, summary: S) -> StatsResult<()> {
        let (count, non_finite) = self.totals_with(summary.count(), summary.non_finite_count())?;
        match self.parts.get_mut(&key) {
            Some(existing) => existing.merge_from(&summary)?,
            None => {
                self.parts.insert(key, summary);
            }
        }
        (self.count, self.non_finite) = (count, non_finite);
        Ok(())
    }

    /// Unions another set into this one. Disjoint keys move over
    /// unchanged (bit-preserving); overlapping keys merge. Every key is
    /// merged into a copy first, so a refused merge of any key, or a total
    /// count past 2⁵³, leaves `self` unchanged.
    pub fn merge_from(&mut self, other: &Self) -> StatsResult<()> {
        let (count, non_finite) = self.totals_with(other.count, other.non_finite)?;
        let mut merged = Vec::with_capacity(other.parts.len());
        for (&key, summary) in &other.parts {
            let part = match self.parts.get(&key) {
                Some(existing) => {
                    let mut part = existing.clone();
                    part.merge_from(summary)?;
                    part
                }
                None => summary.clone(),
            };
            merged.push((key, part));
        }
        self.parts.extend(merged);
        (self.count, self.non_finite) = (count, non_finite);
        Ok(())
    }

    /// Canonically folds all partials in ascending key order into one
    /// summary — the thread/shard-count-independent campaign total.
    /// `None` when the set is empty.
    pub fn finalize(&self) -> StatsResult<Option<S>> {
        let mut iter = self.parts.values();
        let Some(first) = iter.next() else {
            return Ok(None);
        };
        let mut acc = first.clone();
        for s in iter {
            acc.merge_from(s)?;
        }
        Ok(Some(acc))
    }

    /// Total finite observations across all partials (at most 2⁵³).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total quarantined non-finite observations across all partials (at
    /// most 2⁵³).
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    /// Canonical record: `kp1` followed by one `key=record` section per
    /// partial in ascending key order, separated by `#`. Two sets are
    /// bit-identical exactly when their records are equal, which is how
    /// the thread and shard determinism tests compare them. Nothing
    /// decodes it: shards hand over each point's own record instead.
    pub fn to_record(&self) -> String {
        let mut out = String::from("kp1");
        for (key, summary) in &self.parts {
            out.push('#');
            out.push_str(&key.to_string());
            out.push('=');
            out.push_str(&summary.to_record());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{MergeableSummary, StreamConfig, StreamingSummary};
    use super::*;
    use crate::error::StatsError;
    use crate::summary::OnlineMoments;

    fn summary_of(xs: &[f64]) -> StreamingSummary {
        let mut s = StreamingSummary::new(StreamConfig {
            threshold: 16,
            ..StreamConfig::default()
        })
        .unwrap();
        for &x in xs {
            s.push(x);
        }
        s
    }

    #[test]
    fn union_is_order_independent_bitwise() {
        let a = summary_of(&(0..40).map(|i| i as f64).collect::<Vec<_>>());
        let b = summary_of(&(0..10).map(|i| 100.0 + i as f64).collect::<Vec<_>>());
        let c = summary_of(&(0..25).map(|i| (i as f64).sqrt()).collect::<Vec<_>>());
        let mut left: KeyedPartials<StreamingSummary> = KeyedPartials::new();
        left.insert(0, a.clone()).unwrap();
        left.insert(1, b.clone()).unwrap();
        let mut right = KeyedPartials::new();
        right.insert(2, c.clone()).unwrap();
        // (left ∪ right) vs (right ∪ left): identical records.
        let mut lr = left.clone();
        lr.merge_from(&right).unwrap();
        let mut rl = right.clone();
        rl.merge_from(&left).unwrap();
        assert_eq!(lr, rl);
        assert_eq!(lr.to_record(), rl.to_record());
        // Finalize folds ascending regardless of union order.
        let f1 = lr.finalize().unwrap().unwrap();
        let f2 = rl.finalize().unwrap().unwrap();
        assert_eq!(f1.to_record(), f2.to_record());
        assert_eq!(lr.count(), 75);
    }

    #[test]
    fn duplicate_keys_merge_losslessly() {
        let mut p: KeyedPartials<OnlineMoments> = KeyedPartials::new();
        p.insert(7, [1.0, 2.0].iter().copied().collect()).unwrap();
        p.insert(7, [3.0].iter().copied().collect()).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(7).unwrap().count(), 3);
        assert_eq!(p.get(7).unwrap().mean(), Some(2.0));
    }

    #[test]
    fn record_lists_each_part_by_ascending_key() {
        let (small, large) = (
            summary_of(&[1.0, f64::NAN, 5.0]),
            summary_of(&(0..50).map(|i| i as f64).collect::<Vec<_>>()),
        );
        let mut p: KeyedPartials<StreamingSummary> = KeyedPartials::new();
        p.insert(11, large.clone()).unwrap();
        p.insert(3, small.clone()).unwrap();
        assert_eq!(
            p.to_record(),
            format!("kp1#3={}#11={}", small.to_record(), large.to_record())
        );
        assert_eq!((p.len(), p.non_finite_count()), (2, 1));
        let empty: KeyedPartials<StreamingSummary> = KeyedPartials::new();
        assert_eq!(empty.to_record(), "kp1");
        assert!(empty.finalize().unwrap().is_none());
    }

    #[test]
    fn refused_union_leaves_the_set_unchanged() {
        let mut set: KeyedPartials<StreamingSummary> = KeyedPartials::new();
        set.insert(0, summary_of(&[1.0, 2.0])).unwrap();
        set.insert(5, summary_of(&[3.0])).unwrap();
        let mut compatible = KeyedPartials::new();
        compatible.insert(0, summary_of(&[4.0])).unwrap();
        compatible.insert(3, summary_of(&[5.0, f64::NAN])).unwrap();
        // Key 5 of `other` has another configuration, so it cannot merge;
        // keys 0 and 3 come before it and could.
        let mut other = compatible.clone();
        let mut mismatched = StreamingSummary::new(StreamConfig {
            threshold: 99,
            ..StreamConfig::default()
        })
        .unwrap();
        mismatched.push(6.0);
        other.insert(5, mismatched).unwrap();
        let before = set.clone();
        assert!(matches!(
            set.merge_from(&other),
            Err(StatsError::MismatchedSketch(_))
        ));
        assert_eq!(set, before);
        assert_eq!(set.to_record(), before.to_record());
        assert_eq!((set.len(), set.count(), set.non_finite_count()), (2, 3, 0));
        // Without key 5 the same union goes through.
        set.merge_from(&compatible).unwrap();
        assert_eq!((set.len(), set.count(), set.non_finite_count()), (3, 5, 1));
        assert_eq!(set.get(0).unwrap().count(), 3);
    }

    #[test]
    fn mismatched_configs_fail_union() {
        let mut p: KeyedPartials<StreamingSummary> = KeyedPartials::new();
        p.insert(0, summary_of(&[1.0])).unwrap();
        let other = StreamingSummary::new(StreamConfig {
            threshold: 99,
            ..StreamConfig::default()
        })
        .unwrap();
        assert!(p.insert(0, other).is_err());
    }
}
