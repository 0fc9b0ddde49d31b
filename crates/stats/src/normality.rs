//! Normality testing and normalization (§3.1.2 of the paper, Rule 6:
//! *do not assume normality of collected data without diagnostic checking*).
//!
//! The Shapiro–Wilk W test is implemented after Royston's AS R94 algorithm
//! (the same algorithm behind R's `shapiro.test`), valid for 3 ≤ n ≤ 5000.
//! For larger samples — where the paper warns the test "may be misleading" —
//! [`shapiro_wilk_thinned`] tests a deterministic uniformly-thinned
//! subsample and callers should confirm with a Q-Q plot
//! ([`crate::qq::qq_points`]).
//!
//! Two normalization strategies from Figure 2 of the paper are provided:
//! logarithmic transformation (for log-normal data) and batch means of
//! length `k` (CLT normalization).

use crate::dist::normal::{std_normal_cdf, std_normal_inv_cdf};
use crate::error::{StatsError, StatsResult};
use crate::summary::arithmetic_mean;
use crate::{sorted_copy, validate_samples};

/// Result of a Shapiro–Wilk normality test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapiroWilk {
    /// The W statistic in (0, 1]; values near 1 indicate normality.
    pub w: f64,
    /// Approximate p-value for the null hypothesis "the data is normal".
    pub p_value: f64,
    /// Number of observations used.
    pub n: usize,
}

impl ShapiroWilk {
    /// Whether normality is rejected at significance level `alpha`.
    pub fn rejects_normality(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Shapiro–Wilk W test for normality (Royston 1995, AS R94).
///
/// Supports `3 ≤ n ≤ 5000`. Returns an error for constant samples (zero
/// variance) because W is undefined there.
///
/// ```
/// use scibench_stats::normality::shapiro_wilk;
/// // Strongly skewed data: normality is rejected (Rule 6 in action).
/// let skewed: Vec<f64> = (0..200).map(|i| ((i % 17) as f64 * 0.4).exp()).collect();
/// let result = shapiro_wilk(&skewed).unwrap();
/// assert!(result.rejects_normality(0.05));
/// ```
pub fn shapiro_wilk(xs: &[f64]) -> StatsResult<ShapiroWilk> {
    validate_samples(xs)?;
    let n = xs.len();
    if !(3..=5000).contains(&n) {
        return Err(StatsError::UnsupportedSampleSize {
            constraint: "Shapiro-Wilk requires 3 <= n <= 5000",
            actual: n,
        });
    }
    let x = sorted_copy(xs);
    let range = x[n - 1] - x[0];
    if range <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }

    // Expected values of standard normal order statistics (Blom scores).
    let nf = n as f64;
    let mut m = vec![0.0f64; n];
    for (i, mi) in m.iter_mut().enumerate() {
        *mi = std_normal_inv_cdf(((i + 1) as f64 - 0.375) / (nf + 0.25));
    }
    let ssumm2: f64 = m.iter().map(|v| v * v).sum();
    let rsn = 1.0 / nf.sqrt();

    // Royston's polynomial-corrected weights for the extreme order stats.
    let mut a = vec![0.0f64; n];
    let a_n = -2.706_056 * rsn.powi(5) + 4.434_685 * rsn.powi(4)
        - 2.071_190 * rsn.powi(3)
        - 0.147_981 * rsn.powi(2)
        + 0.221_157 * rsn
        + m[n - 1] / ssumm2.sqrt();
    if n > 5 {
        let a_n1 = -3.582_633 * rsn.powi(5) + 5.682_633 * rsn.powi(4)
            - 1.752_461 * rsn.powi(3)
            - 0.293_762 * rsn.powi(2)
            + 0.042_981 * rsn
            + m[n - 2] / ssumm2.sqrt();
        let phi = (ssumm2 - 2.0 * m[n - 1] * m[n - 1] - 2.0 * m[n - 2] * m[n - 2])
            / (1.0 - 2.0 * a_n * a_n - 2.0 * a_n1 * a_n1);
        let sqrt_phi = phi.sqrt();
        for i in 2..n - 2 {
            a[i] = m[i] / sqrt_phi;
        }
        a[n - 1] = a_n;
        a[0] = -a_n;
        a[n - 2] = a_n1;
        a[1] = -a_n1;
    } else {
        let phi = (ssumm2 - 2.0 * m[n - 1] * m[n - 1]) / (1.0 - 2.0 * a_n * a_n);
        let sqrt_phi = phi.sqrt();
        for i in 1..n - 1 {
            a[i] = m[i] / sqrt_phi;
        }
        a[n - 1] = a_n;
        a[0] = -a_n;
    }

    // W = (Σ aᵢ x₍ᵢ₎)² / Σ (xᵢ − x̄)².
    let mean = arithmetic_mean(&x)?;
    let numerator: f64 = a
        .iter()
        .zip(&x)
        .map(|(ai, xi)| ai * xi)
        .sum::<f64>()
        .powi(2);
    let denominator: f64 = x.iter().map(|xi| (xi - mean) * (xi - mean)).sum();
    if denominator <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let w = (numerator / denominator).min(1.0);

    // p-value via Royston's normalizing transformations.
    let p_value = if n == 3 {
        // Exact for n = 3.
        let pi6 = 6.0 / std::f64::consts::PI;
        let stqr = (0.75f64).sqrt().asin();
        (pi6 * (w.sqrt().asin() - stqr)).clamp(0.0, 1.0)
    } else if n <= 11 {
        let g = -2.273 + 0.459 * nf;
        let mu = 0.5440 - 0.39978 * nf + 0.025054 * nf * nf - 0.000_671_4 * nf * nf * nf;
        let sigma = (1.3822 - 0.77857 * nf + 0.062767 * nf * nf - 0.002_032_2 * nf * nf * nf).exp();
        let arg = g - (1.0 - w).ln();
        if arg <= 0.0 {
            // W so close to 1 that the transform degenerates: p ≈ 1.
            1.0
        } else {
            let z = (-arg.ln() - mu) / sigma;
            1.0 - std_normal_cdf(z)
        }
    } else {
        let ln_n = nf.ln();
        let mu = -1.5861 - 0.31082 * ln_n - 0.083751 * ln_n * ln_n + 0.0038915 * ln_n * ln_n * ln_n;
        let sigma = (-0.4803 - 0.082676 * ln_n + 0.0030302 * ln_n * ln_n).exp();
        let z = ((1.0 - w).ln() - mu) / sigma;
        1.0 - std_normal_cdf(z)
    };

    Ok(ShapiroWilk { w, p_value, n })
}

/// Shapiro–Wilk on a deterministic uniformly-thinned subsample of at most
/// `max_n` observations (default use: large benchmark datasets where the
/// full test is unsupported and, per the paper, misleading anyway).
pub fn shapiro_wilk_thinned(xs: &[f64], max_n: usize) -> StatsResult<ShapiroWilk> {
    validate_samples(xs)?;
    let max_n = max_n.clamp(3, 5000);
    if xs.len() <= max_n {
        return shapiro_wilk(xs);
    }
    let stride = xs.len() as f64 / max_n as f64;
    let last = xs.len() - 1;
    let thinned: Vec<f64> = (0..max_n)
        .map(|i| xs[(((i as f64 + 0.5) * stride) as usize).min(last)])
        .collect();
    shapiro_wilk(&thinned)
}

/// Log-transforms strictly positive samples (Figure 2(b) of the paper):
/// right-skewed log-normal data becomes normal under `ln`.
pub fn log_normalize(xs: &[f64]) -> StatsResult<Vec<f64>> {
    validate_samples(xs)?;
    if xs.iter().any(|&x| x <= 0.0) {
        return Err(StatsError::NonPositiveSample);
    }
    Ok(xs.iter().map(|x| x.ln()).collect())
}

/// Batch-means normalization (Figure 2(c,d)): averages consecutive
/// non-overlapping blocks of length `k`; by the CLT the block means tend
/// towards normality as `k` grows.
///
/// Incomplete trailing blocks are dropped, which is why the paper notes
/// that "this technique loses precision": one can no longer make statements
/// about individual measurements, and rank statistics apply only to blocks.
pub fn batch_means(xs: &[f64], k: usize) -> StatsResult<Vec<f64>> {
    validate_samples(xs)?;
    if k == 0 {
        return Err(StatsError::InvalidParameter {
            name: "k",
            value: 0.0,
        });
    }
    if xs.len() < k {
        return Err(StatsError::TooFewSamples {
            required: k,
            actual: xs.len(),
        });
    }
    Ok(xs
        .chunks_exact(k)
        .map(|chunk| chunk.iter().sum::<f64>() / k as f64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic ~normal sample via inverse-CDF stratification.
    fn normal_sample(n: usize, mu: f64, sigma: f64) -> Vec<f64> {
        // Shuffle deterministically so the data is not sorted.
        let mut v: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                mu + sigma * std_normal_inv_cdf(u)
            })
            .collect();
        // Simple LCG-driven Fisher-Yates.
        let mut state = 0x2545F4914F6CDD1Du64;
        for i in (1..v.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    fn lognormal_sample(n: usize) -> Vec<f64> {
        normal_sample(n, 0.0, 1.0)
            .into_iter()
            .map(f64::exp)
            .collect()
    }

    #[test]
    fn w_close_to_one_for_normal_data() {
        let xs = normal_sample(100, 10.0, 2.0);
        let r = shapiro_wilk(&xs).unwrap();
        assert!(r.w > 0.98, "W = {}", r.w);
        assert!(!r.rejects_normality(0.05), "p = {}", r.p_value);
    }

    #[test]
    fn rejects_lognormal_data() {
        let xs = lognormal_sample(200);
        let r = shapiro_wilk(&xs).unwrap();
        assert!(r.rejects_normality(0.01), "W = {}, p = {}", r.w, r.p_value);
    }

    #[test]
    fn rejects_uniform_data_moderately() {
        // Uniform data has short tails; SW detects it for large n.
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.618_034) % 1.0).collect();
        let r = shapiro_wilk(&xs).unwrap();
        assert!(r.rejects_normality(0.05), "W = {}, p = {}", r.w, r.p_value);
    }

    #[test]
    fn log_normalization_restores_normality() {
        // The core claim of Figure 2(b).
        let xs = lognormal_sample(300);
        let raw = shapiro_wilk(&xs).unwrap();
        let logged = shapiro_wilk(&log_normalize(&xs).unwrap()).unwrap();
        assert!(raw.w < logged.w);
        assert!(!logged.rejects_normality(0.01), "p = {}", logged.p_value);
    }

    #[test]
    fn small_sample_sizes_supported() {
        for n in 3..=12 {
            let xs = normal_sample(n, 0.0, 1.0);
            let r = shapiro_wilk(&xs).unwrap();
            assert!(r.w > 0.0 && r.w <= 1.0);
            assert!((0.0..=1.0).contains(&r.p_value), "n={n} p={}", r.p_value);
        }
    }

    #[test]
    fn unsupported_sizes_rejected() {
        assert!(matches!(
            shapiro_wilk(&[1.0, 2.0]),
            Err(StatsError::UnsupportedSampleSize { .. })
        ));
        let big = vec![0.0; 5001];
        assert!(matches!(
            shapiro_wilk(&big),
            Err(StatsError::UnsupportedSampleSize { .. })
        ));
    }

    #[test]
    fn constant_sample_is_zero_variance() {
        assert!(matches!(
            shapiro_wilk(&[3.0; 10]),
            Err(StatsError::ZeroVariance)
        ));
    }

    #[test]
    fn thinned_handles_large_samples() {
        let xs = normal_sample(20_000, 5.0, 1.0);
        let r = shapiro_wilk_thinned(&xs, 1000).unwrap();
        assert_eq!(r.n, 1000);
        assert!(!r.rejects_normality(0.01), "p = {}", r.p_value);
        // Small inputs pass through untouched.
        let small = normal_sample(50, 0.0, 1.0);
        assert_eq!(shapiro_wilk_thinned(&small, 1000).unwrap().n, 50);
    }

    #[test]
    fn batch_means_reduces_and_averages() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let b = batch_means(&xs, 5).unwrap();
        assert_eq!(b, vec![3.0, 8.0]);
        // Trailing partial chunk dropped.
        let b = batch_means(&xs, 4).unwrap();
        assert_eq!(b, vec![2.5, 6.5]);
    }

    #[test]
    fn batch_means_normalizes_skewed_data() {
        // Figure 2(c,d): batch means of log-normal data approach normality
        // as k grows (CLT). W must improve monotonically with k and the
        // largest batching must pass the test outright.
        let xs = lognormal_sample(5000);
        let raw_w = shapiro_wilk_thinned(&xs, 1000).unwrap().w;
        let b50 = shapiro_wilk(&batch_means(&xs, 50).unwrap()).unwrap();
        let b250 = shapiro_wilk(&batch_means(&xs, 250).unwrap()).unwrap();
        assert!(b50.w > raw_w, "k=50 W {} should beat raw {}", b50.w, raw_w);
        assert!(b250.w > raw_w);
        assert!(!b250.rejects_normality(0.001), "p = {}", b250.p_value);
    }

    #[test]
    fn batch_means_rejects_bad_k() {
        assert!(batch_means(&[1.0, 2.0], 0).is_err());
        assert!(batch_means(&[1.0, 2.0], 3).is_err());
    }

    #[test]
    fn log_normalize_rejects_nonpositive() {
        assert!(log_normalize(&[1.0, 0.0]).is_err());
    }
}
