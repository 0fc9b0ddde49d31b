//! Quantiles, percentiles and rank-based summaries (§3.1.3 of the paper).
//!
//! Rank measures (median, quartiles, arbitrary percentiles) are the robust
//! summaries the paper recommends for non-normally distributed measurement
//! data. Two estimators are provided: the interpolating "type 7" estimator
//! (R's default, good for plotting) and the pure rank estimator that only
//! ever returns observed values (required for the nonparametric confidence
//! intervals, which reason about order statistics).

use crate::error::{StatsError, StatsResult};
use crate::{sorted_copy, validate_samples};

/// How a quantile is computed from the order statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileMethod {
    /// Linear interpolation between closest ranks (R type 7, default in R,
    /// NumPy and Julia). May return values not present in the sample.
    Interpolated,
    /// Nearest-rank (inverse empirical CDF): always returns an observed
    /// value; this is what order-statistic confidence intervals require.
    NearestRank,
}

/// Computes the `p`-quantile (`0 ≤ p ≤ 1`) of `xs` with `method`.
pub fn quantile(xs: &[f64], p: f64, method: QuantileMethod) -> StatsResult<f64> {
    validate_samples(xs)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidProbability {
            name: "p",
            value: p,
        });
    }
    let sorted = sorted_copy(xs);
    Ok(quantile_sorted(&sorted, p, method))
}

/// Computes the `p`-quantile of already-sorted data (ascending).
///
/// Useful when many quantiles are needed from the same sample: sort once,
/// query many times.
pub fn quantile_sorted(sorted: &[f64], p: f64, method: QuantileMethod) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=1.0).contains(&p));
    let n = sorted.len();
    match method {
        QuantileMethod::Interpolated => {
            let h = (n as f64 - 1.0) * p;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let frac = h - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            }
        }
        QuantileMethod::NearestRank => {
            if p == 0.0 {
                return sorted[0];
            }
            // Smallest rank r with r/n >= p.
            let r = (p * n as f64).ceil() as usize;
            sorted[r.clamp(1, n) - 1]
        }
    }
}

/// Median (50th percentile, interpolated).
pub fn median(xs: &[f64]) -> StatsResult<f64> {
    quantile(xs, 0.5, QuantileMethod::Interpolated)
}

/// Percentile helper: `percentile(xs, 99.0)` is the 99th percentile.
pub fn percentile(xs: &[f64], pct: f64) -> StatsResult<f64> {
    if !(0.0..=100.0).contains(&pct) {
        return Err(StatsError::InvalidProbability {
            name: "pct",
            value: pct,
        });
    }
    quantile(xs, pct / 100.0, QuantileMethod::Interpolated)
}

/// Median absolute deviation `MAD = median(|xᵢ − median(x)|)` — the robust
/// companion to the standard deviation (§3.1.3's "robust measures"): a
/// single arbitrarily large outlier cannot move it.
pub fn median_absolute_deviation(xs: &[f64]) -> StatsResult<f64> {
    let med = median(xs)?;
    let deviations: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&deviations)
}

/// MAD scaled by 1.4826, a consistent estimator of the standard deviation
/// for normally distributed data.
pub fn mad_std_estimate(xs: &[f64]) -> StatsResult<f64> {
    Ok(median_absolute_deviation(xs)? * 1.4826)
}

/// The five-number summary plus IQR used by box plots (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumberSummary {
    /// Smallest observation.
    pub min: f64,
    /// Lower quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Upper quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
}

impl FiveNumberSummary {
    /// Computes the summary from raw samples.
    pub fn from_samples(xs: &[f64]) -> StatsResult<Self> {
        validate_samples(xs)?;
        let sorted = sorted_copy(xs);
        Ok(Self {
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25, QuantileMethod::Interpolated),
            median: quantile_sorted(&sorted, 0.5, QuantileMethod::Interpolated),
            q3: quantile_sorted(&sorted, 0.75, QuantileMethod::Interpolated),
            max: sorted[sorted.len() - 1],
        })
    }

    /// Inter-quartile range `Q3 − Q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// A crude skewness indicator from the quartiles (Bowley skewness):
    /// positive for right-skewed data. Returns `None` when the IQR is 0.
    pub fn bowley_skewness(&self) -> Option<f64> {
        let iqr = self.iqr();
        (iqr > 0.0).then(|| (self.q3 + self.q1 - 2.0 * self.median) / iqr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
    }

    #[test]
    fn interpolated_matches_r_type7() {
        // R: quantile(c(1,2,3,4), 0.25) = 1.75
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.25, QuantileMethod::Interpolated).unwrap() - 1.75).abs() < 1e-12);
        // R: quantile(1:10, 0.9) = 9.1
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&xs, 0.9, QuantileMethod::Interpolated).unwrap() - 9.1).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_returns_observed_values() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        for p in [0.0, 0.1, 0.25, 0.5, 0.77, 1.0] {
            let q = quantile(&xs, p, QuantileMethod::NearestRank).unwrap();
            assert!(xs.contains(&q), "p={p} gave unobserved {q}");
        }
        // Standard nearest-rank example: p=0.5 of 5 elems is the 3rd.
        assert_eq!(
            quantile(&xs, 0.5, QuantileMethod::NearestRank).unwrap(),
            30.0
        );
        assert_eq!(
            quantile(&xs, 1.0, QuantileMethod::NearestRank).unwrap(),
            50.0
        );
        assert_eq!(
            quantile(&xs, 0.0, QuantileMethod::NearestRank).unwrap(),
            10.0
        );
    }

    #[test]
    fn extreme_quantiles_are_min_max() {
        let xs = [5.0, -1.0, 3.0];
        assert_eq!(
            quantile(&xs, 0.0, QuantileMethod::Interpolated).unwrap(),
            -1.0
        );
        assert_eq!(
            quantile(&xs, 1.0, QuantileMethod::Interpolated).unwrap(),
            5.0
        );
    }

    #[test]
    fn percentile_99_interpretation() {
        // "at least 99% of all measurement results took at most this long"
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).unwrap();
        let below = xs.iter().filter(|&&x| x <= p99).count();
        assert!(below >= 990);
        assert!(percentile(&xs, 101.0).is_err());
    }

    #[test]
    fn quantiles_are_monotone_in_p() {
        let xs = [0.3, 9.0, 2.2, 5.5, 1.0, 7.7, 4.2];
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let q = quantile(&xs, p, QuantileMethod::Interpolated).unwrap();
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn five_number_summary_basics() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let s = FiveNumberSummary::from_samples(&xs).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 6.0);
        assert_eq!(s.max, 11.0);
        assert!((s.q1 - 3.5).abs() < 1e-12);
        assert!((s.q3 - 8.5).abs() < 1e-12);
        assert!((s.iqr() - 5.0).abs() < 1e-12);
        // Symmetric data: Bowley skewness ~ 0.
        assert!(s.bowley_skewness().unwrap().abs() < 1e-12);
    }

    #[test]
    fn bowley_skewness_detects_right_skew() {
        let xs = [1.0, 1.1, 1.2, 1.3, 5.0, 9.0];
        let s = FiveNumberSummary::from_samples(&xs).unwrap();
        assert!(s.bowley_skewness().unwrap() > 0.0);
    }

    #[test]
    fn bowley_skewness_none_for_constant() {
        let s = FiveNumberSummary::from_samples(&[2.0; 5]).unwrap();
        assert_eq!(s.bowley_skewness(), None);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(quantile(&[], 0.5, QuantileMethod::Interpolated).is_err());
        assert!(quantile(&[1.0], 1.5, QuantileMethod::Interpolated).is_err());
        assert!(quantile(&[f64::NAN], 0.5, QuantileMethod::Interpolated).is_err());
    }

    #[test]
    fn mad_is_robust_to_outliers() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mad_clean = median_absolute_deviation(&clean).unwrap();
        assert_eq!(mad_clean, 1.0);
        // A gross outlier barely moves the MAD but explodes the sd.
        let dirty = [1.0, 2.0, 3.0, 4.0, 1000.0];
        let mad_dirty = median_absolute_deviation(&dirty).unwrap();
        assert_eq!(mad_dirty, 1.0);
        let sd_dirty = crate::summary::sample_std_dev(&dirty).unwrap();
        assert!(sd_dirty > 100.0);
    }

    #[test]
    fn mad_estimates_normal_sd() {
        // Stratified standard-normal sample: MAD · 1.4826 ≈ 1.
        let xs: Vec<f64> = (0..2001)
            .map(|i| {
                let u = (i as f64 + 0.5) / 2001.0;
                crate::dist::normal::std_normal_inv_cdf(u)
            })
            .collect();
        let est = mad_std_estimate(&xs).unwrap();
        assert!((est - 1.0).abs() < 0.01, "estimate {est}");
    }
}
