//! Confidence intervals (§3.1.2, §3.1.3 and §4.2.2 of the paper).
//!
//! Two families are implemented:
//!
//! * **Parametric** CIs of the mean based on Student's t distribution —
//!   valid only for (approximately) normal iid data;
//! * **Nonparametric** CIs of the median and arbitrary quantiles based on
//!   order statistics (binomial/normal-approximation rank bounds after
//!   Le Boudec) — valid for any iid data, the paper's recommendation for
//!   the skewed multi-modal distributions real systems produce.
//!
//! The module also provides the paper's §4.2.2 machinery for planning the
//! *number of measurements*: the closed-form `n = (s·t/(e·x̄))²` for normal
//! data and the "recompute the nonparametric CI every k measurements and
//! stop when it is tight enough" loop for everything else.

use crate::dist::normal::z_critical;
use crate::dist::student_t::t_critical;
use crate::error::{StatsError, StatsResult};
use crate::quantile::{quantile_sorted, QuantileMethod};
use crate::sorted::SortedSamples;
use crate::summary::{arithmetic_mean, sample_std_dev, OnlineMoments};
use crate::{sorted_copy, validate_samples};

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate (mean, median or quantile).
    pub estimate: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level `1 − α`, e.g. 0.95.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Half-width relative to the estimate, `(upper−lower)/(2·|estimate|)`.
    ///
    /// This is the "CI was within 5 % of the mean" criterion used in the
    /// caption of Figure 7 of the paper. Returns `None` when the estimate
    /// is zero.
    pub fn relative_half_width(&self) -> Option<f64> {
        (self.estimate != 0.0).then(|| self.width() / (2.0 * self.estimate.abs()))
    }

    /// Whether two intervals do **not** overlap.
    ///
    /// §3.2: "If 1−α confidence intervals do not overlap, then one can be
    /// 1−α confident that there is a statistically significant difference.
    /// The converse is not true."
    pub fn disjoint_from(&self, other: &ConfidenceInterval) -> bool {
        self.upper < other.lower || other.upper < self.lower
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.lower <= x && x <= self.upper
    }
}

/// Student-t confidence interval of the arithmetic mean:
/// `[x̄ − t(n−1, α/2)·s/√n, x̄ + t(n−1, α/2)·s/√n]` (§3.1.2).
///
/// Only valid if the samples are iid from a (roughly) normal distribution —
/// check with [`crate::normality::shapiro_wilk`] first (Rule 6).
pub fn mean_ci(xs: &[f64], confidence: f64) -> StatsResult<ConfidenceInterval> {
    validate_confidence(confidence)?;
    validate_samples(xs)?;
    if xs.len() < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            actual: xs.len(),
        });
    }
    let n = xs.len() as f64;
    let mean = arithmetic_mean(xs)?;
    let s = sample_std_dev(xs)?;
    let t = t_critical(n - 1.0, 1.0 - confidence)?;
    let half = t * s / n.sqrt();
    Ok(ConfidenceInterval {
        estimate: mean,
        lower: mean - half,
        upper: mean + half,
        confidence,
    })
}

/// The rank bounds (1-based, inclusive) of a nonparametric CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankBounds {
    /// 1-based rank of the lower CI bound.
    pub lower: usize,
    /// 1-based rank of the upper CI bound.
    pub upper: usize,
}

/// Rank bounds for the `1−α` CI of the `p`-quantile of `n` iid samples,
/// using the normal approximation to the binomial (Le Boudec, §3.1.3).
///
/// For the median (`p = 0.5`) this reduces to the paper's formula: ranks
/// `⌊(n − z(α/2)√n)/2⌋` through `⌈1 + (n + z(α/2)√n)/2⌉`. At least `n > 5`
/// samples are required (the paper's stated minimum for nonparametric CIs).
pub fn quantile_ci_ranks(n: usize, p: f64, confidence: f64) -> StatsResult<RankBounds> {
    validate_confidence(confidence)?;
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "p",
            value: p,
        });
    }
    if n <= 5 {
        return Err(StatsError::TooFewSamples {
            required: 6,
            actual: n,
        });
    }
    let alpha = 1.0 - confidence;
    let z = z_critical(alpha)?;
    let nf = n as f64;
    let center = nf * p;
    let spread = z * (nf * p * (1.0 - p)).sqrt();
    let mut lower = ((center - spread).floor().max(1.0)) as usize;
    let mut upper = (((center + spread).ceil() + 1.0).min(nf)) as usize;
    if lower >= upper {
        return Err(StatsError::TooFewSamples {
            required: ((z * z * p.max(1.0 - p) / p.min(1.0 - p)).ceil() as usize).max(6),
            actual: n,
        });
    }
    // The normal approximation to the binomial can under-cover for extreme
    // quantiles. Verify the exact coverage P[x₍l₎ ≤ q_p ≤ x₍u₎] =
    // F(u−1; n, p) − F(l−1; n, p) and widen the ranks if necessary.
    for _ in 0..n {
        let coverage = binomial_cdf(upper - 1, n, p) - binomial_cdf(lower.wrapping_sub(1), n, p);
        if coverage + 1e-12 >= confidence {
            return Ok(RankBounds { lower, upper });
        }
        let can_lower = lower > 1;
        let can_upper = upper < n;
        if !can_lower && !can_upper {
            break;
        }
        if can_lower {
            lower -= 1;
        }
        if can_upper {
            upper += 1;
        }
    }
    let final_cov = binomial_cdf(upper - 1, n, p) - binomial_cdf(lower.wrapping_sub(1), n, p);
    if final_cov + 1e-12 >= confidence {
        Ok(RankBounds { lower, upper })
    } else {
        Err(StatsError::TooFewSamples {
            required: ((z * z / p.min(1.0 - p)).ceil() as usize).max(6),
            actual: n,
        })
    }
}

/// Binomial CDF `P[B ≤ k]` for `B ~ Bin(n, p)`, via the regularized
/// incomplete beta function. `k == usize::MAX` (wrapped `-1`) yields 0.
fn binomial_cdf(k: usize, n: usize, p: f64) -> f64 {
    if k == usize::MAX {
        return 0.0;
    }
    if k >= n {
        return 1.0;
    }
    // F(k; n, p) = I_{1-p}(n-k, k+1)
    crate::special::beta_inc((n - k) as f64, (k + 1) as f64, 1.0 - p)
}

/// Nonparametric `1−α` CI of the median (§3.1.3).
///
/// ```
/// use scibench_stats::ci::median_ci;
/// let xs: Vec<f64> = (1..=100).map(f64::from).collect();
/// let ci = median_ci(&xs, 0.95).unwrap();
/// assert!(ci.lower <= 50.5 && 50.5 <= ci.upper);
/// // Bounds are observed order statistics (ranks 40 and 61 here).
/// assert_eq!((ci.lower, ci.upper), (40.0, 61.0));
/// ```
pub fn median_ci(xs: &[f64], confidence: f64) -> StatsResult<ConfidenceInterval> {
    quantile_ci(xs, 0.5, confidence)
}

/// Nonparametric `1−α` CI of the `p`-quantile.
///
/// The bounds are observed order statistics, so the interval may be
/// asymmetric — exactly the behaviour the paper describes for skewed
/// distributions.
pub fn quantile_ci(xs: &[f64], p: f64, confidence: f64) -> StatsResult<ConfidenceInterval> {
    validate_samples(xs)?;
    let ranks = quantile_ci_ranks(xs.len(), p, confidence)?;
    let sorted = sorted_copy(xs);
    let estimate = quantile_sorted(&sorted, p, QuantileMethod::Interpolated);
    Ok(ConfidenceInterval {
        estimate,
        lower: sorted[ranks.lower - 1],
        upper: sorted[ranks.upper - 1],
        confidence,
    })
}

/// Number of measurements needed so that the `1−α` CI of the mean lies
/// within `±e·x̄` (§4.2.2): `n = (s·t(n−1, α/2) / (e·x̄))²`, evaluated with
/// the pilot sample's `s`, `x̄` and df.
///
/// `rel_error` is the paper's `e` (e.g. 0.05 for "within 5 % of the mean").
pub fn required_samples_normal(
    pilot: &[f64],
    confidence: f64,
    rel_error: f64,
) -> StatsResult<usize> {
    validate_confidence(confidence)?;
    if !(rel_error > 0.0 && rel_error < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "rel_error",
            value: rel_error,
        });
    }
    validate_samples(pilot)?;
    if pilot.len() < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            actual: pilot.len(),
        });
    }
    let mean = arithmetic_mean(pilot)?;
    if mean == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let s = sample_std_dev(pilot)?;
    if s == 0.0 {
        // Deterministic data: one more sample is already enough.
        return Ok(pilot.len());
    }
    let t = t_critical(pilot.len() as f64 - 1.0, 1.0 - confidence)?;
    let n = (s * t / (rel_error * mean)).powi(2);
    Ok(n.ceil().max(2.0) as usize)
}

/// [`required_samples_normal`] evaluated from a streaming accumulator:
/// O(1) per call instead of a full pass over the pilot sample.
///
/// This is what makes the adaptive-mean stopping rule cheap — the
/// measurement loop replans after every batch, and with `n` samples
/// collected the slice-based variant costs O(n) per replan (O(n²/batch)
/// over a run) while this one reads the already-accumulated moments.
/// Same contract as the slice variant: the accumulator must contain only
/// finite observations.
pub fn required_samples_from_moments(
    moments: &OnlineMoments,
    confidence: f64,
    rel_error: f64,
) -> StatsResult<usize> {
    validate_confidence(confidence)?;
    if !(rel_error > 0.0 && rel_error < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "rel_error",
            value: rel_error,
        });
    }
    if moments.non_finite_count() > 0 {
        return Err(StatsError::NonFiniteSample);
    }
    let n = moments.count() as usize;
    if n < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            actual: n,
        });
    }
    let mean = moments.mean().expect("count checked above");
    let s = moments.std_dev().expect("count checked above");
    if !mean.is_finite() || !s.is_finite() {
        return Err(StatsError::NonFiniteSample);
    }
    if mean == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    if s == 0.0 {
        // Deterministic data: one more sample is already enough.
        return Ok(n);
    }
    let t = t_critical(n as f64 - 1.0, 1.0 - confidence)?;
    let required = (s * t / (rel_error * mean)).powi(2);
    Ok(required.ceil().max(2.0) as usize)
}

/// [`mean_ci`] evaluated from a streaming accumulator: O(1) per call, no
/// sample vector required. This is the Student-t mean CI the bounded-memory
/// streaming path reports (§3.1.2) — the moments are exact (Welford), so
/// unlike the sketch quantiles this interval carries no sketch error.
///
/// Same contract as the slice variant: errors with
/// [`StatsError::NonFiniteSample`] if the accumulator quarantined any
/// non-finite observations, and needs at least two finite samples.
pub fn mean_ci_from_moments(
    moments: &OnlineMoments,
    confidence: f64,
) -> StatsResult<ConfidenceInterval> {
    validate_confidence(confidence)?;
    if moments.non_finite_count() > 0 {
        return Err(StatsError::NonFiniteSample);
    }
    let n = moments.count() as usize;
    if n < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            actual: n,
        });
    }
    let mean = moments.mean().expect("count checked above");
    let s = moments.std_dev().expect("count checked above");
    let t = t_critical(n as f64 - 1.0, 1.0 - confidence)?;
    let half = t * s / (n as f64).sqrt();
    Ok(ConfidenceInterval {
        estimate: mean,
        lower: mean - half,
        upper: mean + half,
        confidence,
    })
}

/// Checks whether a sample already satisfies the nonparametric stopping
/// criterion of §4.2.2: the `1−α` CI of the median is within `±e·median`.
///
/// Reads the CI from `sorted`, the ascending copy of the sample, which the
/// adaptive-median loop keeps up to date by merging each new batch in
/// O(n + b) instead of re-sorting all n samples per check.
///
/// Returns `Ok(None)` when the CI cannot be computed yet (too few samples)
/// and `Ok(Some(ci))` with the interval once it can; callers stop when
/// `ci.relative_half_width() <= rel_error`.
pub fn nonparametric_stop_check(
    sorted: &SortedSamples,
    confidence: f64,
    rel_error: f64,
) -> StatsResult<Option<(ConfidenceInterval, bool)>> {
    validate_confidence(confidence)?;
    if !(rel_error > 0.0 && rel_error < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "rel_error",
            value: rel_error,
        });
    }
    match sorted.median_ci(confidence) {
        Ok(ci) => {
            let tight = ci
                .relative_half_width()
                .map(|r| r <= rel_error)
                .unwrap_or(false);
            Ok(Some((ci, tight)))
        }
        Err(StatsError::TooFewSamples { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

fn validate_confidence(confidence: f64) -> StatsResult<()> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "confidence",
            value: confidence,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_textbook_example() {
        // n=4, mean=10, s=2 → 95% CI half-width = 3.182 * 2 / 2 = 3.182
        let xs = [8.0, 9.0, 11.0, 12.0];
        let ci = mean_ci(&xs, 0.95).unwrap();
        assert!((ci.estimate - 10.0).abs() < 1e-12);
        let s = sample_std_dev(&xs).unwrap();
        let half = 3.182_446 * s / 2.0;
        assert!((ci.upper - (10.0 + half)).abs() < 1e-3);
        assert!((ci.lower - (10.0 - half)).abs() < 1e-3);
        assert_eq!(ci.confidence, 0.95);
    }

    #[test]
    fn mean_ci_shrinks_with_n() {
        let small: Vec<f64> = (0..10).map(|i| 10.0 + (i % 3) as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| 10.0 + (i % 3) as f64).collect();
        let ci_s = mean_ci(&small, 0.95).unwrap();
        let ci_l = mean_ci(&large, 0.95).unwrap();
        assert!(ci_l.width() < ci_s.width());
    }

    #[test]
    fn mean_ci_wider_at_higher_confidence() {
        let xs: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin() + 5.0).collect();
        let c90 = mean_ci(&xs, 0.90).unwrap();
        let c99 = mean_ci(&xs, 0.99).unwrap();
        assert!(c99.width() > c90.width());
    }

    #[test]
    fn median_ci_ranks_match_paper_formula() {
        // Paper: lower = floor((n - z*sqrt(n))/2), upper = ceil(1 + (n + z*sqrt(n))/2)
        // For n = 100, 95%: z = 1.96, sqrt(100) = 10 →
        // lower = floor(80.4/2) = 40, upper = ceil(1 + 119.6/2) = ceil(60.8) = 61
        let rb = quantile_ci_ranks(100, 0.5, 0.95).unwrap();
        assert_eq!(rb.lower, 40);
        assert_eq!(rb.upper, 61);
    }

    #[test]
    fn median_ci_bounds_are_order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let ci = median_ci(&xs, 0.95).unwrap();
        assert!(xs.contains(&ci.lower));
        assert!(xs.contains(&ci.upper));
        assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper);
    }

    #[test]
    fn median_ci_requires_more_than_5() {
        assert!(matches!(
            median_ci(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95),
            Err(StatsError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn extreme_quantile_needs_many_samples() {
        // 99th percentile CI from 20 samples is not computable.
        assert!(quantile_ci_ranks(20, 0.99, 0.95).is_err());
        // ... but from 1000 it is.
        let rb = quantile_ci_ranks(1000, 0.99, 0.95).unwrap();
        assert!(rb.lower < rb.upper);
        assert!(rb.upper <= 1000);
    }

    #[test]
    fn quantile_ci_asymmetric_for_skewed_data() {
        // Log-normal-ish data: upper CI arm of the median is longer.
        let xs: Vec<f64> = (0..500)
            .map(|i| {
                let u = (i as f64 + 0.5) / 500.0;
                crate::dist::normal::std_normal_inv_cdf(u).exp()
            })
            .collect();
        let ci = median_ci(&xs, 0.95).unwrap();
        let lower_arm = ci.estimate - ci.lower;
        let upper_arm = ci.upper - ci.estimate;
        assert!(upper_arm > 0.0 && lower_arm > 0.0);
        // Right-skew: upper arm at least as long.
        assert!(upper_arm >= lower_arm * 0.8);
    }

    #[test]
    fn disjoint_intervals_detected() {
        let a = ConfidenceInterval {
            estimate: 1.0,
            lower: 0.9,
            upper: 1.1,
            confidence: 0.95,
        };
        let b = ConfidenceInterval {
            estimate: 2.0,
            lower: 1.9,
            upper: 2.1,
            confidence: 0.95,
        };
        let c = ConfidenceInterval {
            estimate: 1.05,
            lower: 1.0,
            upper: 1.2,
            confidence: 0.95,
        };
        assert!(a.disjoint_from(&b));
        assert!(b.disjoint_from(&a));
        assert!(!a.disjoint_from(&c));
        assert!(a.contains(1.0));
        assert!(!a.contains(1.2));
    }

    #[test]
    fn relative_half_width() {
        let ci = ConfidenceInterval {
            estimate: 10.0,
            lower: 9.5,
            upper: 10.5,
            confidence: 0.95,
        };
        assert!((ci.relative_half_width().unwrap() - 0.05).abs() < 1e-12);
        let z = ConfidenceInterval {
            estimate: 0.0,
            lower: -1.0,
            upper: 1.0,
            confidence: 0.95,
        };
        assert_eq!(z.relative_half_width(), None);
    }

    #[test]
    fn required_samples_grows_with_noise() {
        let quiet = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95];
        let noisy = [10.0, 14.0, 6.0, 12.0, 8.0, 11.0];
        let n_quiet = required_samples_normal(&quiet, 0.95, 0.05).unwrap();
        let n_noisy = required_samples_normal(&noisy, 0.95, 0.05).unwrap();
        assert!(n_noisy > n_quiet, "{n_noisy} vs {n_quiet}");
    }

    #[test]
    fn required_samples_deterministic_data() {
        let xs = [5.0; 10];
        assert_eq!(required_samples_normal(&xs, 0.95, 0.05).unwrap(), 10);
    }

    #[test]
    fn required_samples_formula_check() {
        // Manual check: s=1, mean=10, n=16 pilot, e=0.05, t(15, .025)≈2.131
        // n = (1*2.131/(0.05*10))^2 ≈ 18.17 → 19.
        let mut xs = Vec::new();
        for i in 0..16 {
            // mean 10, sample sd exactly computed below
            xs.push(10.0 + if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let s = sample_std_dev(&xs).unwrap();
        let n = required_samples_normal(&xs, 0.95, 0.05).unwrap();
        let t = t_critical(15.0, 0.05).unwrap();
        let want = (s * t / 0.5).powi(2).ceil() as usize;
        assert_eq!(n, want);
    }

    #[test]
    fn nonparametric_stop_check_flow() {
        let check = |xs: &[f64], rel_error| {
            nonparametric_stop_check(&SortedSamples::new(xs).unwrap(), 0.95, rel_error)
        };
        // Too few samples: None.
        assert!(check(&[1.0, 2.0, 3.0], 0.05).unwrap().is_none());
        // Tight data: stops.
        let xs: Vec<f64> = (0..200).map(|i| 100.0 + (i % 5) as f64 * 0.01).collect();
        let (_ci, tight) = check(&xs, 0.05).unwrap().unwrap();
        assert!(tight);
        // Very loose data with few samples: not tight.
        let xs: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) * 37.0).collect();
        let (_ci, tight) = check(&xs, 0.01).unwrap().unwrap();
        assert!(!tight);
        assert!(check(&xs, 0.0).is_err());
        assert!(check(&xs, 1.0).is_err());
    }

    #[test]
    fn moments_replan_matches_slice_replan() {
        let xs: Vec<f64> = (0..40).map(|i| 10.0 + ((i as f64) * 1.3).sin()).collect();
        for upto in [2, 5, 17, 40] {
            let slice = required_samples_normal(&xs[..upto], 0.95, 0.05).unwrap();
            let moments: OnlineMoments = xs[..upto].iter().copied().collect();
            let online = required_samples_from_moments(&moments, 0.95, 0.05).unwrap();
            assert_eq!(slice, online, "n={upto}");
        }
        // Degenerate contracts match too.
        let constant: OnlineMoments = [5.0; 10].iter().copied().collect();
        assert_eq!(
            required_samples_from_moments(&constant, 0.95, 0.05).unwrap(),
            10
        );
        let zero_mean: OnlineMoments = [-1.0, 1.0].iter().copied().collect();
        assert!(matches!(
            required_samples_from_moments(&zero_mean, 0.95, 0.05),
            Err(StatsError::ZeroVariance)
        ));
        let single: OnlineMoments = [1.0].iter().copied().collect();
        assert!(matches!(
            required_samples_from_moments(&single, 0.95, 0.05),
            Err(StatsError::TooFewSamples { .. })
        ));
        let poisoned: OnlineMoments = [1.0, f64::NAN].iter().copied().collect();
        assert!(matches!(
            required_samples_from_moments(&poisoned, 0.95, 0.05),
            Err(StatsError::NonFiniteSample)
        ));
    }

    #[test]
    fn moments_mean_ci_matches_slice_mean_ci() {
        let xs: Vec<f64> = (0..60).map(|i| 42.0 + ((i as f64) * 0.9).cos()).collect();
        let slice = mean_ci(&xs, 0.95).unwrap();
        let moments: OnlineMoments = xs.iter().copied().collect();
        let online = mean_ci_from_moments(&moments, 0.95).unwrap();
        assert!((slice.estimate - online.estimate).abs() < 1e-12);
        assert!((slice.lower - online.lower).abs() < 1e-10);
        assert!((slice.upper - online.upper).abs() < 1e-10);
        let single: OnlineMoments = [1.0].iter().copied().collect();
        assert!(matches!(
            mean_ci_from_moments(&single, 0.95),
            Err(StatsError::TooFewSamples { .. })
        ));
        let poisoned: OnlineMoments = [1.0, 2.0, f64::NAN].iter().copied().collect();
        assert!(matches!(
            mean_ci_from_moments(&poisoned, 0.95),
            Err(StatsError::NonFiniteSample)
        ));
    }

    #[test]
    fn stop_check_reads_the_median_ci_of_the_sort() {
        let xs: Vec<f64> = (0..150)
            .map(|i| 100.0 + ((i as f64) * 0.77).sin())
            .collect();
        let sorted = SortedSamples::new(&xs).unwrap();
        let ci = median_ci(&xs, 0.95).unwrap();
        for rel_error in [1e-4, 0.05] {
            let tight = ci.relative_half_width().unwrap() <= rel_error;
            assert_eq!(
                nonparametric_stop_check(&sorted, 0.95, rel_error).unwrap(),
                Some((ci, tight))
            );
        }
    }

    #[test]
    fn stop_check_refuses_an_invalid_confidence_or_rel_error() {
        let sorted = SortedSamples::new(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap();
        let refused = |c, e| match nonparametric_stop_check(&sorted, c, e) {
            Err(StatsError::InvalidProbability { name, .. }) => name,
            other => panic!("({c}, {e}) gave {other:?}"),
        };
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            assert_eq!(refused(bad, 0.05), "confidence");
            assert_eq!(refused(0.95, bad), "rel_error");
        }
        assert_eq!(refused(f64::NAN, f64::NAN), "confidence");
    }

    #[test]
    fn invalid_confidence_rejected() {
        assert!(mean_ci(&[1.0, 2.0], 0.0).is_err());
        assert!(mean_ci(&[1.0, 2.0], 1.0).is_err());
        assert!(quantile_ci_ranks(100, 0.5, 1.2).is_err());
        assert!(required_samples_normal(&[1.0, 2.0], 0.95, 0.0).is_err());
    }
}
