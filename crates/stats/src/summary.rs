//! Summarizing measurement results (§3.1 of the paper).
//!
//! The paper's Rule 3: *use the arithmetic mean only for summarizing costs;
//! use the harmonic mean for summarizing rates* — and Rule 4: *avoid
//! summarizing ratios; only if the base measures are unavailable use the
//! geometric mean*. All three means plus weighted variants, online (Welford)
//! moments, standard deviation and the coefficient of variation live here.

use crate::error::{StatsError, StatsResult};
use crate::validate_samples;

/// Arithmetic mean `x̄ = (1/n) Σ xᵢ`. Correct for *costs* (seconds, joules,
/// flop counts) where the total is what matters.
pub fn arithmetic_mean(xs: &[f64]) -> StatsResult<f64> {
    validate_samples(xs)?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Harmonic mean `n / Σ (1/xᵢ)`. Correct for *rates* (flop/s, MB/s) whose
/// denominator carries the primary semantic meaning.
///
/// All samples must be strictly positive.
pub fn harmonic_mean(xs: &[f64]) -> StatsResult<f64> {
    validate_samples(xs)?;
    if xs.iter().any(|&x| x <= 0.0) {
        return Err(StatsError::NonPositiveSample);
    }
    Ok(xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>())
}

/// Geometric mean `(Π xᵢ)^(1/n)`, computed in log space for stability.
///
/// Per Rule 4 this is the *last resort* for normalized (unit-less) results;
/// it equals the exponential of the log-average (§3.1.2,
/// log-normalization). All samples must be strictly positive.
pub fn geometric_mean(xs: &[f64]) -> StatsResult<f64> {
    validate_samples(xs)?;
    if xs.iter().any(|&x| x <= 0.0) {
        return Err(StatsError::NonPositiveSample);
    }
    let mean_ln = xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64;
    Ok(mean_ln.exp())
}

/// Weighted arithmetic mean `Σ wᵢxᵢ / Σ wᵢ`. Weights must be non-negative
/// with a positive sum.
pub fn weighted_arithmetic_mean(xs: &[f64], ws: &[f64]) -> StatsResult<f64> {
    validate_samples(xs)?;
    validate_samples(ws)?;
    if xs.len() != ws.len() {
        return Err(StatsError::InvalidGroups(
            "weights length differs from samples",
        ));
    }
    if ws.iter().any(|&w| w < 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "weight",
            value: -1.0,
        });
    }
    let total_w: f64 = ws.iter().sum();
    if total_w <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(xs.iter().zip(ws).map(|(x, w)| x * w).sum::<f64>() / total_w)
}

/// Weighted harmonic mean `Σ wᵢ / Σ (wᵢ/xᵢ)`; the correct way to average
/// rates when the measurements cover different amounts of work.
pub fn weighted_harmonic_mean(xs: &[f64], ws: &[f64]) -> StatsResult<f64> {
    validate_samples(xs)?;
    validate_samples(ws)?;
    if xs.len() != ws.len() {
        return Err(StatsError::InvalidGroups(
            "weights length differs from samples",
        ));
    }
    if xs.iter().any(|&x| x <= 0.0) {
        return Err(StatsError::NonPositiveSample);
    }
    let total_w: f64 = ws.iter().sum();
    if total_w <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(total_w / xs.iter().zip(ws).map(|(x, w)| w / x).sum::<f64>())
}

/// Sample variance with Bessel's correction `s² = Σ(xᵢ−x̄)²/(n−1)`.
pub fn sample_variance(xs: &[f64]) -> StatsResult<f64> {
    validate_samples(xs)?;
    if xs.len() < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            actual: xs.len(),
        });
    }
    let mean = arithmetic_mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    Ok(ss / (xs.len() as f64 - 1.0))
}

/// Sample standard deviation `s = √s²` (§3.1.2 of the paper).
pub fn sample_std_dev(xs: &[f64]) -> StatsResult<f64> {
    Ok(sample_variance(xs)?.sqrt())
}

/// Coefficient of variation `CoV = s / x̄`, the dimensionless stability
/// metric the paper recommends for long-term performance consistency
/// (§3.1.2, citing Kramer & Ryan).
pub fn coefficient_of_variation(xs: &[f64]) -> StatsResult<f64> {
    let mean = arithmetic_mean(xs)?;
    if mean == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(sample_std_dev(xs)? / mean)
}

/// Numerically stable online (single-pass) mean/variance accumulator
/// after Welford.
///
/// §3.1.2 notes that the incremental update formulas for mean and variance
/// "can be numerically unstable and more complex stable schemes may need to
/// be employed for large numbers of samples" — Welford's algorithm is that
/// stable scheme. It is what the measurement harness uses to decide
/// adaptive stopping without storing gigabytes of raw samples.
///
/// Non-finite observations (NaN, ±∞) are **quarantined, not averaged**:
/// they are counted in [`OnlineMoments::non_finite_count`] and excluded
/// from `mean`/`m2`/`min`/`max`. Previously a NaN poisoned the mean while
/// `f64::min`/`f64::max` silently dropped it from the extrema, leaving the
/// accumulator internally inconsistent; now every statistic describes the
/// same (finite) subsample and the contamination is separately disclosed
/// (Rule 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    non_finite: u64,
}

impl Default for OnlineMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite: 0,
        }
    }

    /// Adds one observation. NaN and ±∞ are counted in
    /// [`OnlineMoments::non_finite_count`] and leave the moments untouched.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of finite observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of non-finite observations (NaN, ±∞) that were pushed and
    /// quarantined rather than folded into the moments.
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    /// Total number of observations pushed, finite or not.
    pub fn total_count(&self) -> u64 {
        self.n + self.non_finite
    }

    pub(crate) fn to_raw(self) -> OnlineMomentsRaw {
        OnlineMomentsRaw {
            n: self.n,
            mean: self.mean,
            m2: self.m2,
            min: self.min,
            max: self.max,
            non_finite: self.non_finite,
        }
    }

    /// Running arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance (Bessel-corrected); `None` for fewer than 2 samples.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n as f64 - 1.0))
    }

    /// Sample standard deviation; `None` for fewer than 2 samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation so far; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation so far; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for OnlineMoments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut m = OnlineMoments::new();
        for x in iter {
            m.push(x);
        }
        m
    }
}

/// Crate-internal raw view of [`OnlineMoments`] so `crate::sketch` can
/// encode the accumulator bit-exactly without exposing its fields.
pub(crate) struct OnlineMomentsRaw {
    pub n: u64,
    pub mean: f64,
    pub m2: f64,
    pub min: f64,
    pub max: f64,
    pub non_finite: u64,
}

/// Single-pass accumulator of the first four central moments (Pébay's
/// update formulas) plus the log- and reciprocal-sums needed for the
/// geometric and harmonic means.
///
/// This powers [`crate::describe::describe`]: one pass over the data
/// replaces the six separate passes (three means, variance, skewness,
/// kurtosis) the multi-call formulation needs. It only accumulates; it
/// has no merge and no record, because nothing splits a `describe` pass.
///
/// Like [`OnlineMoments`], non-finite observations are quarantined in
/// [`HigherMoments::non_finite_count`] instead of corrupting the moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HigherMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
    ln_sum: f64,
    recip_sum: f64,
    all_positive: bool,
    non_finite: u64,
}

impl Default for HigherMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl HigherMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ln_sum: 0.0,
            recip_sum: 0.0,
            all_positive: true,
            non_finite: 0,
        }
    }

    /// Adds one observation. NaN and ±∞ are counted in
    /// [`HigherMoments::non_finite_count`] and leave the moments untouched.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        let n0 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n0;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x > 0.0 {
            self.ln_sum += x.ln();
            self.recip_sum += 1.0 / x;
        } else {
            self.all_positive = false;
        }
    }

    /// Number of finite observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of non-finite observations (NaN, ±∞) quarantined so far.
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    /// Total number of observations pushed, finite or not.
    pub fn total_count(&self) -> u64 {
        self.n + self.non_finite
    }

    /// Running arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Geometric mean; `None` when empty or any observation was ≤ 0.
    pub fn geometric_mean(&self) -> Option<f64> {
        (self.n > 0 && self.all_positive).then(|| (self.ln_sum / self.n as f64).exp())
    }

    /// Harmonic mean; `None` when empty or any observation was ≤ 0.
    pub fn harmonic_mean(&self) -> Option<f64> {
        (self.n > 0 && self.all_positive).then(|| self.n as f64 / self.recip_sum)
    }

    /// Sample variance (Bessel-corrected); `None` for fewer than 2 samples.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n as f64 - 1.0))
    }

    /// Sample standard deviation; `None` for fewer than 2 samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Biased moment skewness `g₁ = m₃/m₂^{3/2}`; `None` for n < 3 or
    /// zero variance.
    pub fn skewness(&self) -> Option<f64> {
        if self.n < 3 || self.m2 <= 0.0 {
            return None;
        }
        let n = self.n as f64;
        let m2 = self.m2 / n;
        let m3 = self.m3 / n;
        Some(m3 / m2.powf(1.5))
    }

    /// Biased excess kurtosis `g₂ = m₄/m₂² − 3`; `None` for n < 4 or
    /// zero variance.
    pub fn excess_kurtosis(&self) -> Option<f64> {
        if self.n < 4 || self.m2 <= 0.0 {
            return None;
        }
        let n = self.n as f64;
        let m2 = self.m2 / n;
        let m4 = self.m4 / n;
        Some(m4 / (m2 * m2) - 3.0)
    }

    /// Smallest observation so far; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation so far; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for HigherMoments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut m = HigherMoments::new();
        for x in iter {
            m.push(x);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HPL_TIMES: [f64; 3] = [10.0, 100.0, 40.0];

    #[test]
    fn worked_hpl_example_costs() {
        // §3.1.1: arithmetic mean of (10, 100, 40) s is 50 s → 2 Gflop/s
        // for 100 Gflop runs.
        let mean = arithmetic_mean(&HPL_TIMES).unwrap();
        assert_eq!(mean, 50.0);
        assert_eq!(100.0 / mean, 2.0);
    }

    #[test]
    fn worked_hpl_example_rates() {
        // Rates are (10, 1, 2.5) Gflop/s. Arithmetic mean = 4.5 (wrong),
        // harmonic mean = 2.0 (right).
        let rates: Vec<f64> = HPL_TIMES.iter().map(|t| 100.0 / t).collect();
        assert!((arithmetic_mean(&rates).unwrap() - 4.5).abs() < 1e-12);
        assert!((harmonic_mean(&rates).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn worked_hpl_example_ratios() {
        // Relative rates (1, 0.1, 0.25) vs 10 Gflop/s peak; geometric mean
        // ≈ 0.2924 → the paper's "(incorrect) efficiency of 2.9 Gflop/s".
        let ratios = [1.0, 0.1, 0.25];
        let gm = geometric_mean(&ratios).unwrap();
        assert!((gm - 0.292).abs() < 5e-3, "gm = {gm}");
    }

    #[test]
    fn mean_inequality_chain() {
        // HM <= GM <= AM for positive samples (Gwanyama).
        let xs = [2.0, 3.0, 7.0, 11.0];
        let am = arithmetic_mean(&xs).unwrap();
        let gm = geometric_mean(&xs).unwrap();
        let hm = harmonic_mean(&xs).unwrap();
        assert!(hm <= gm && gm <= am);
    }

    #[test]
    fn means_of_constant_sample_agree() {
        let xs = [4.2; 9];
        assert!((arithmetic_mean(&xs).unwrap() - 4.2).abs() < 1e-12);
        assert!((geometric_mean(&xs).unwrap() - 4.2).abs() < 1e-12);
        assert!((harmonic_mean(&xs).unwrap() - 4.2).abs() < 1e-12);
    }

    #[test]
    fn harmonic_and_geometric_reject_nonpositive() {
        assert!(matches!(
            harmonic_mean(&[1.0, 0.0]),
            Err(StatsError::NonPositiveSample)
        ));
        assert!(matches!(
            geometric_mean(&[1.0, -2.0]),
            Err(StatsError::NonPositiveSample)
        ));
    }

    #[test]
    fn weighted_arithmetic_basics() {
        let xs = [1.0, 3.0];
        assert_eq!(weighted_arithmetic_mean(&xs, &[1.0, 1.0]).unwrap(), 2.0);
        assert_eq!(weighted_arithmetic_mean(&xs, &[3.0, 1.0]).unwrap(), 1.5);
        assert!(weighted_arithmetic_mean(&xs, &[1.0]).is_err());
    }

    #[test]
    fn weighted_harmonic_equals_total_work_over_total_time() {
        // Two runs: 100 flop at 10 flop/s (10 s) and 300 flop at 30 flop/s
        // (10 s). Weighted harmonic mean by work = 400 flop / 20 s.
        let rates = [10.0, 30.0];
        let work = [100.0, 300.0];
        let whm = weighted_harmonic_mean(&rates, &work).unwrap();
        assert!((whm - 20.0).abs() < 1e-12);
    }

    #[test]
    fn variance_and_std_dev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // Known example: population variance 4, sample variance 32/7.
        assert!((sample_variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((sample_std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(sample_variance(&[1.0]).is_err());
    }

    #[test]
    fn cov_is_dimensionless_and_scale_invariant() {
        let xs = [10.0, 12.0, 9.0, 11.0];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 1000.0).collect();
        let c1 = coefficient_of_variation(&xs).unwrap();
        let c2 = coefficient_of_variation(&scaled).unwrap();
        assert!((c1 - c2).abs() < 1e-12);
    }

    #[test]
    fn online_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let m: OnlineMoments = xs.iter().copied().collect();
        assert_eq!(m.count(), 8);
        assert!((m.mean().unwrap() - arithmetic_mean(&xs).unwrap()).abs() < 1e-12);
        assert!((m.variance().unwrap() - sample_variance(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(m.min().unwrap(), 1.0);
        assert_eq!(m.max().unwrap(), 9.0);
    }

    #[test]
    fn online_empty_returns_none() {
        let m = OnlineMoments::new();
        assert_eq!(m.mean(), None);
        assert_eq!(m.variance(), None);
        assert_eq!(m.min(), None);
    }

    #[test]
    fn higher_moments_match_batch_formulas() {
        let xs: Vec<f64> = (1..=500)
            .map(|i| ((i as f64 * 0.313).sin() + 2.5) * 4.0)
            .collect();
        let m: HigherMoments = xs.iter().copied().collect();
        assert_eq!(m.count(), 500);
        assert!((m.mean().unwrap() - arithmetic_mean(&xs).unwrap()).abs() < 1e-10);
        assert!((m.variance().unwrap() - sample_variance(&xs).unwrap()).abs() < 1e-8);
        assert!((m.geometric_mean().unwrap() - geometric_mean(&xs).unwrap()).abs() < 1e-10);
        assert!((m.harmonic_mean().unwrap() - harmonic_mean(&xs).unwrap()).abs() < 1e-10);
        assert_eq!(
            m.min().unwrap(),
            xs.iter().copied().fold(f64::INFINITY, f64::min)
        );
        assert_eq!(
            m.max().unwrap(),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        // Batch third/fourth central moments for cross-checking.
        let n = xs.len() as f64;
        let mean = arithmetic_mean(&xs).unwrap();
        let m2: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m3: f64 = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let m4: f64 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        assert!((m.skewness().unwrap() - m3 / m2.powf(1.5)).abs() < 1e-8);
        assert!((m.excess_kurtosis().unwrap() - (m4 / (m2 * m2) - 3.0)).abs() < 1e-8);
    }

    #[test]
    fn higher_moments_degenerate_cases() {
        let empty = HigherMoments::new();
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.skewness(), None);
        let constant: HigherMoments = [5.0; 10].iter().copied().collect();
        assert_eq!(constant.skewness(), None, "zero variance");
        assert_eq!(constant.excess_kurtosis(), None);
        let with_nonpositive: HigherMoments = [1.0, -2.0, 3.0].iter().copied().collect();
        assert_eq!(with_nonpositive.geometric_mean(), None);
        assert_eq!(with_nonpositive.harmonic_mean(), None);
        assert!(with_nonpositive.mean().is_some());
        let two: HigherMoments = [1.0, 2.0].iter().copied().collect();
        assert_eq!(two.skewness(), None, "n < 3");
        let three: HigherMoments = [1.0, 2.0, 4.0].iter().copied().collect();
        assert_eq!(three.excess_kurtosis(), None, "n < 4");
        assert!(three.skewness().is_some());
    }

    #[test]
    fn online_quarantines_non_finite() {
        let mut m = OnlineMoments::new();
        m.push(1.0);
        m.push(f64::NAN);
        m.push(3.0);
        m.push(f64::INFINITY);
        m.push(f64::NEG_INFINITY);
        assert_eq!(m.count(), 2);
        assert_eq!(m.non_finite_count(), 3);
        assert_eq!(m.total_count(), 5);
        // The moments and extrema describe the finite subsample only.
        assert_eq!(m.mean(), Some(2.0));
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(3.0));
        assert!(m.variance().unwrap().is_finite());
    }

    #[test]
    fn online_first_push_nan_leaves_accumulator_empty() {
        let mut m = OnlineMoments::new();
        m.push(f64::NAN);
        assert_eq!(m.count(), 0);
        assert_eq!(m.non_finite_count(), 1);
        assert_eq!(m.mean(), None);
        assert_eq!(m.min(), None);
        assert_eq!(m.max(), None);
        // The accumulator recovers: finite pushes after a leading NaN work.
        m.push(7.0);
        assert_eq!(m.mean(), Some(7.0));
        assert_eq!(m.min(), Some(7.0));
    }

    #[test]
    fn higher_moments_quarantine_non_finite() {
        let mut m = HigherMoments::new();
        m.push(f64::NAN);
        m.push(2.0);
        m.push(f64::INFINITY);
        m.push(8.0);
        assert_eq!(m.count(), 2);
        assert_eq!(m.non_finite_count(), 2);
        assert_eq!(m.total_count(), 4);
        assert_eq!(m.mean(), Some(5.0));
        assert_eq!(m.min(), Some(2.0));
        assert_eq!(m.max(), Some(8.0));
        assert!((m.geometric_mean().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn default_equals_new() {
        // The derived Default used to start min/max at 0.0 instead of the
        // ±∞ identities `new()` uses, corrupting extrema of the first push.
        assert_eq!(OnlineMoments::default(), OnlineMoments::new());
        assert_eq!(HigherMoments::default(), HigherMoments::new());
        let mut m = OnlineMoments::default();
        m.push(5.0);
        assert_eq!(m.min(), Some(5.0));
        assert_eq!(m.max(), Some(5.0));
    }

    #[test]
    fn online_is_stable_for_large_offsets() {
        // Welford must not lose precision with a huge common offset.
        let offset = 1e12;
        let m: OnlineMoments = (0..1000).map(|i| offset + (i % 10) as f64).collect();
        let var = m.variance().unwrap();
        // Variance of 0..9 repeated is ~8.258; naive sum-of-squares at 1e12
        // offset would be garbage.
        assert!((var - 8.258_258_258).abs() < 1e-3, "var = {var}");
    }
}
