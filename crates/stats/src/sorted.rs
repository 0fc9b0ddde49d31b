//! A sort-once sample cache shared by every order-statistic consumer.
//!
//! Quantiles, ECDFs, nonparametric CIs and Tukey fences all start from the
//! same ascending order statistics, yet historically each call re-sorted
//! the raw slice. [`SortedSamples`] sorts exactly once and hands the
//! sorted view to all of them, turning a summary that needed four
//! `O(n log n)` sorts into one sort plus `O(1)`/`O(log n)` queries.
//! [`Sample`] pairs a sample's values with the one sort of those values,
//! for the statistics that read both.
//!
//! # Invariants
//!
//! A constructed `SortedSamples` always holds a non-empty, ascending,
//! all-finite sample. Every constructor and mutator validates its input,
//! so downstream consumers (e.g. [`crate::quantile::quantile_sorted`])
//! can rely on the invariant without re-checking. A `Sample` holds
//! non-empty, all-finite values, and its sort is always of those values.

use std::borrow::Cow;
use std::sync::OnceLock;

use crate::ci::{quantile_ci_ranks, ConfidenceInterval};
use crate::error::{StatsError, StatsResult};
use crate::outlier::TukeyFences;
use crate::quantile::{quantile_sorted, FiveNumberSummary, QuantileMethod};
use crate::sort::sorted_finite;
use crate::validate_samples;

/// A sample checked once (non-empty, all finite): its values in their own
/// order, and their ascending copy, sorted by the first call to
/// [`Sample::sorted`] and kept for every later one.
///
/// A statistic that takes a `Sample` reads its order statistics
/// (quartiles, quantile CIs, ranks) from the sort and every sum, fold and
/// scan from the values in input order, so it gives the bits of the same
/// statistic on the slice. The sort cannot belong to another sample.
#[derive(Debug, Clone)]
pub struct Sample<'a> {
    values: Cow<'a, [f64]>,
    sorted: OnceLock<SortedSamples>,
}

impl<'a> Sample<'a> {
    /// Borrows `xs`. Errors on empty or non-finite input.
    pub fn new(xs: &'a [f64]) -> StatsResult<Self> {
        Self::checked(Cow::Borrowed(xs))
    }

    /// Takes `xs` without copying it. Errors on empty or non-finite input.
    pub fn from_vec(xs: Vec<f64>) -> StatsResult<Self> {
        Self::checked(Cow::Owned(xs))
    }

    fn checked(values: Cow<'a, [f64]>) -> StatsResult<Self> {
        validate_samples(&values)?;
        Ok(Self {
            values,
            sorted: OnceLock::new(),
        })
    }

    /// The values in their own order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The ascending copy of the values: sorted on the first call, shared
    /// by every later one.
    pub fn sorted(&self) -> &SortedSamples {
        self.sorted.get_or_init(|| SortedSamples {
            xs: sorted_finite(self.values.to_vec()),
        })
    }
}

/// A validated, ascending copy of a sample: sort once, query many times.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSamples {
    xs: Vec<f64>,
}

impl SortedSamples {
    /// Sorts a copy of `xs`. Errors on empty or non-finite input.
    pub fn new(xs: &[f64]) -> StatsResult<Self> {
        Self::from_vec(xs.to_vec())
    }

    /// Sorts `xs` in place, avoiding the copy [`SortedSamples::new`] makes.
    pub fn from_vec(xs: Vec<f64>) -> StatsResult<Self> {
        validate_samples(&xs)?;
        Ok(Self {
            xs: sorted_finite(xs),
        })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Always `false` for a constructed value (constructors reject empty
    /// samples); present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The ascending order statistics.
    pub fn as_slice(&self) -> &[f64] {
        &self.xs
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.xs[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.xs[self.xs.len() - 1]
    }

    /// The `p`-quantile (`0 ≤ p ≤ 1`), without re-sorting.
    pub fn quantile(&self, p: f64, method: QuantileMethod) -> StatsResult<f64> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::InvalidProbability {
                name: "p",
                value: p,
            });
        }
        Ok(quantile_sorted(&self.xs, p, method))
    }

    /// Median (interpolated), without re-sorting.
    pub fn median(&self) -> f64 {
        quantile_sorted(&self.xs, 0.5, QuantileMethod::Interpolated)
    }

    /// Min / quartiles / max, without re-sorting.
    pub fn five_number(&self) -> FiveNumberSummary {
        FiveNumberSummary {
            min: self.min(),
            q1: quantile_sorted(&self.xs, 0.25, QuantileMethod::Interpolated),
            median: self.median(),
            q3: quantile_sorted(&self.xs, 0.75, QuantileMethod::Interpolated),
            max: self.max(),
        }
    }

    /// Nonparametric `1−α` CI of the `p`-quantile from order-statistic
    /// ranks — same contract as [`crate::ci::quantile_ci`], minus the sort.
    pub fn quantile_ci(&self, p: f64, confidence: f64) -> StatsResult<ConfidenceInterval> {
        let ranks = quantile_ci_ranks(self.xs.len(), p, confidence)?;
        Ok(ConfidenceInterval {
            estimate: quantile_sorted(&self.xs, p, QuantileMethod::Interpolated),
            lower: self.xs[ranks.lower - 1],
            upper: self.xs[ranks.upper - 1],
            confidence,
        })
    }

    /// Nonparametric `1−α` CI of the median, without re-sorting.
    pub fn median_ci(&self, confidence: f64) -> StatsResult<ConfidenceInterval> {
        self.quantile_ci(0.5, confidence)
    }

    /// The empirical CDF, without re-sorting.
    pub fn ecdf(&self) -> crate::ecdf::Ecdf {
        crate::ecdf::Ecdf::new(self.clone())
    }

    /// Tukey's fences `[Q1 − c·IQR, Q3 + c·IQR]`, without re-sorting.
    ///
    /// Errors with [`StatsError::InvalidParameter`] when `constant` is
    /// negative or non-finite — the same contract as
    /// [`TukeyFences::from_samples`]; a negative multiplier would invert
    /// the fences and flag the whole sample as outliers.
    pub fn tukey_fences(&self, constant: f64) -> StatsResult<TukeyFences> {
        crate::outlier::validate_fence_constant(constant)?;
        let five = self.five_number();
        let iqr = five.iqr();
        Ok(TukeyFences {
            lower: five.q1 - constant * iqr,
            upper: five.q3 + constant * iqr,
            constant,
        })
    }

    /// Inserts one observation at its sorted position (binary search +
    /// shift). Errors on non-finite input and leaves the cache unchanged.
    pub fn push(&mut self, x: f64) -> StatsResult<()> {
        if !x.is_finite() {
            return Err(StatsError::NonFiniteSample);
        }
        let at = self.xs.partition_point(|&v| v <= x);
        self.xs.insert(at, x);
        Ok(())
    }

    /// Merges a batch of new observations: sorts the batch (`O(b log b)`)
    /// and merges the two runs (`O(n + b)`) — much cheaper than re-sorting
    /// everything when batches arrive incrementally, as in the adaptive
    /// median stopping rule. Errors on non-finite input and leaves the
    /// cache unchanged.
    pub fn merge_extend(&mut self, batch: &[f64]) -> StatsResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if batch.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NonFiniteSample);
        }
        let incoming = sorted_finite(batch.to_vec());
        let mut merged = Vec::with_capacity(self.xs.len() + incoming.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.xs.len() && j < incoming.len() {
            if self.xs[i] <= incoming[j] {
                merged.push(self.xs[i]);
                i += 1;
            } else {
                merged.push(incoming[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.xs[i..]);
        merged.extend_from_slice(&incoming[j..]);
        self.xs = merged;
        Ok(())
    }

    /// Consumes the cache, returning the sorted vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ci::{median_ci, quantile_ci};
    use crate::quantile::quantile;

    fn sample() -> Vec<f64> {
        (0..200)
            .map(|i| ((i as f64 * 0.7311).sin() * 50.0) + 100.0)
            .collect()
    }

    #[test]
    fn matches_fresh_sort_consumers_exactly() {
        let xs = sample();
        let s = SortedSamples::new(&xs).unwrap();
        assert_eq!(s.len(), xs.len());
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            for m in [QuantileMethod::Interpolated, QuantileMethod::NearestRank] {
                assert_eq!(s.quantile(p, m).unwrap(), quantile(&xs, p, m).unwrap());
            }
        }
        assert_eq!(
            s.five_number(),
            FiveNumberSummary::from_samples(&xs).unwrap()
        );
        assert_eq!(s.median_ci(0.95).unwrap(), median_ci(&xs, 0.95).unwrap());
        assert_eq!(
            s.quantile_ci(0.9, 0.95).unwrap(),
            quantile_ci(&xs, 0.9, 0.95).unwrap()
        );
        assert_eq!(
            s.tukey_fences(1.5).unwrap(),
            TukeyFences::from_samples(&xs, 1.5).unwrap()
        );
        assert_eq!(s.ecdf(), crate::ecdf::Ecdf::from_samples(&xs).unwrap());
        assert_eq!(s.min(), s.as_slice()[0]);
        assert_eq!(s.max(), *s.as_slice().last().unwrap());
    }

    #[test]
    fn constructors_validate() {
        assert!(SortedSamples::new(&[]).is_err());
        assert!(SortedSamples::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn degenerate_singleton_sample_never_panics() {
        let s = SortedSamples::new(&[42.0]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.median(), 42.0);
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(s.quantile(p, QuantileMethod::Interpolated).unwrap(), 42.0);
            assert_eq!(s.quantile(p, QuantileMethod::NearestRank).unwrap(), 42.0);
        }
        let five = s.five_number();
        assert_eq!(five.min, five.max);
        assert_eq!(five.iqr(), 0.0);
        // CIs are impossible with one sample: typed error, not a panic.
        assert!(matches!(
            s.median_ci(0.95),
            Err(StatsError::TooFewSamples { .. })
        ));
        assert!(matches!(
            s.quantile_ci(0.9, 0.95),
            Err(StatsError::TooFewSamples { .. })
        ));
        // Fences collapse to the point; ECDF is a single step.
        let f = s.tukey_fences(1.5).unwrap();
        assert_eq!((f.lower, f.upper), (42.0, 42.0));
        assert!(f.contains(42.0));
        assert_eq!(s.ecdf().eval(42.0), 1.0);
        assert_eq!(s.ecdf().steps(10), vec![(42.0, 1.0)]);
    }

    #[test]
    fn degenerate_pair_sample_never_panics() {
        let s = SortedSamples::new(&[2.0, 1.0]).unwrap();
        assert_eq!(s.as_slice(), &[1.0, 2.0]);
        assert_eq!(s.median(), 1.5);
        let five = s.five_number();
        assert!(five.q1 <= five.median && five.median <= five.q3);
        assert!(matches!(
            s.median_ci(0.95),
            Err(StatsError::TooFewSamples { .. })
        ));
        let f = s.tukey_fences(1.5).unwrap();
        assert!(f.lower <= f.upper, "fences inverted: {f:?}");
        let steps = s.ecdf().steps(100);
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[1].1, 1.0);
    }

    #[test]
    fn negative_or_nonfinite_fence_constant_is_a_typed_error() {
        let s = SortedSamples::new(&[1.0, 2.0, 3.0, 10.0]).unwrap();
        for bad in [-1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    s.tukey_fences(bad),
                    Err(StatsError::InvalidParameter {
                        name: "constant",
                        ..
                    })
                ),
                "constant {bad} accepted"
            );
            assert!(TukeyFences::from_samples(s.as_slice(), bad).is_err());
        }
        // Zero is legal: fences equal the quartiles.
        let f = s.tukey_fences(0.0).unwrap();
        let five = s.five_number();
        assert_eq!((f.lower, f.upper), (five.q1, five.q3));
    }

    #[test]
    fn sample_sorts_once_and_keeps_its_values_in_input_order() {
        let xs = [3.0, -0.0, 1.0, 0.0, -2.5, 0.0, -0.0];
        for sample in [
            Sample::new(&xs).unwrap(),
            Sample::from_vec(xs.to_vec()).unwrap(),
        ] {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(sample.values()), bits(&xs));
            let first = sample.sorted();
            assert!(std::ptr::eq(first, sample.sorted()));
            assert_eq!(
                first.as_slice().as_ptr(),
                sample.sorted().as_slice().as_ptr()
            );
            assert_eq!(
                bits(first.as_slice()),
                bits(SortedSamples::new(&xs).unwrap().as_slice())
            );
            // Sorting leaves the values as they were.
            assert_eq!(bits(sample.values()), bits(&xs));
        }
        // A borrowed sample reads the caller's slice, not a copy.
        assert_eq!(Sample::new(&xs).unwrap().values().as_ptr(), xs.as_ptr());
    }

    #[test]
    fn sample_from_vec_keeps_the_callers_allocation() {
        let xs = sample();
        let at = xs.as_ptr();
        let s = Sample::from_vec(xs).unwrap();
        // The sort is a copy: the values keep their allocation and order.
        assert_ne!(s.sorted().as_slice().as_ptr(), at);
        assert_eq!(s.values().as_ptr(), at);
        assert_eq!(s.values(), sample().as_slice());
    }

    #[test]
    fn sample_checks_its_values_when_built() {
        assert_eq!(Sample::new(&[]).unwrap_err(), StatsError::EmptySample);
        assert_eq!(
            Sample::from_vec(Vec::new()).unwrap_err(),
            StatsError::EmptySample
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                Sample::new(&[1.0, bad]).unwrap_err(),
                StatsError::NonFiniteSample
            );
            assert_eq!(
                Sample::from_vec(vec![bad, 1.0]).unwrap_err(),
                StatsError::NonFiniteSample
            );
        }
    }

    #[test]
    fn push_keeps_order() {
        let mut s = SortedSamples::new(&[5.0, 1.0, 3.0]).unwrap();
        s.push(2.0).unwrap();
        s.push(10.0).unwrap();
        s.push(0.0).unwrap();
        assert_eq!(s.as_slice(), &[0.0, 1.0, 2.0, 3.0, 5.0, 10.0]);
        assert!(s.push(f64::INFINITY).is_err());
        assert_eq!(s.len(), 6, "failed push must not mutate");
    }

    #[test]
    fn merge_extend_equals_full_sort() {
        let xs = sample();
        let mut incremental = SortedSamples::new(&xs[..50]).unwrap();
        incremental.merge_extend(&xs[50..140]).unwrap();
        incremental.merge_extend(&xs[140..]).unwrap();
        incremental.merge_extend(&[]).unwrap();
        let full = SortedSamples::new(&xs).unwrap();
        assert_eq!(incremental, full);
        assert!(incremental.merge_extend(&[f64::NAN]).is_err());
        assert_eq!(incremental.len(), xs.len());
    }
}
