//! Complete descriptive statistics of a sample.
//!
//! A [`Description`] bundles every summary the paper's reporting sections
//! use — location (three means, median), spread (sd, CoV, IQR, min/max),
//! shape (skewness, excess kurtosis, Bowley skewness) — so report code
//! computes them once and consistently. Moment-based skewness > 0 together
//! with a rejected normality test is the crate's operational definition of
//! the "right-skewed, long-tailed" latency data of §3.1.2.

use crate::error::StatsResult;
use crate::quantile::FiveNumberSummary;
use crate::sorted::Sample;
use crate::summary::HigherMoments;
use crate::validate_samples;

/// Full descriptive summary of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Description {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Geometric mean (`None` if any observation ≤ 0).
    pub geometric_mean: Option<f64>,
    /// Harmonic mean (`None` if any observation ≤ 0).
    pub harmonic_mean: Option<f64>,
    /// Five-number summary (min, quartiles, max).
    pub five_number: FiveNumberSummary,
    /// Sample standard deviation (`None` for n < 2).
    pub std_dev: Option<f64>,
    /// Coefficient of variation (`None` when undefined).
    pub cov: Option<f64>,
    /// Moment-based sample skewness g₁ (`None` for n < 3 or zero sd).
    pub skewness: Option<f64>,
    /// Excess kurtosis g₂ (`None` for n < 4 or zero sd).
    pub excess_kurtosis: Option<f64>,
}

/// Sample skewness `g₁ = m₃ / m₂^{3/2}` (biased moment estimator),
/// accumulated in a single pass.
pub fn skewness(xs: &[f64]) -> StatsResult<Option<f64>> {
    validate_samples(xs)?;
    let m: HigherMoments = xs.iter().copied().collect();
    Ok(m.skewness())
}

/// Excess kurtosis `g₂ = m₄ / m₂² − 3` (biased moment estimator),
/// accumulated in a single pass.
pub fn excess_kurtosis(xs: &[f64]) -> StatsResult<Option<f64>> {
    validate_samples(xs)?;
    let m: HigherMoments = xs.iter().copied().collect();
    Ok(m.excess_kurtosis())
}

/// Computes the full description of a sample; see [`Sample::describe`].
pub fn describe(xs: &[f64]) -> StatsResult<Description> {
    Ok(Sample::new(xs)?.describe())
}

impl Sample<'_> {
    /// The full description of this sample: one streaming pass over the
    /// values in input order ([`HigherMoments`]: all three means,
    /// variance, skewness and kurtosis) plus the five-number summary of
    /// [`Sample::sorted`].
    pub fn describe(&self) -> Description {
        let xs = self.values();
        let m: HigherMoments = xs.iter().copied().collect();
        let mean = m.mean().expect("a sample is non-empty");
        let std_dev = m.std_dev();
        let cov = std_dev.and_then(|s| (mean != 0.0).then(|| s / mean));
        Description {
            n: xs.len(),
            mean,
            geometric_mean: m.geometric_mean(),
            harmonic_mean: m.harmonic_mean(),
            five_number: self.sorted().five_number(),
            std_dev,
            cov,
            skewness: m.skewness(),
            excess_kurtosis: m.excess_kurtosis(),
        }
    }
}

impl Description {
    /// Renders a one-block textual summary.
    pub fn render(&self) -> String {
        let fmt_opt = |o: Option<f64>| match o {
            Some(v) => format!("{v:.6}"),
            None => "n/a".into(),
        };
        format!(
            "n={}  mean={:.6}  gm={}  hm={}\nmin={:.6}  q1={:.6}  median={:.6}  q3={:.6}  max={:.6}\nsd={}  CoV={}  skew={}  ex.kurtosis={}\n",
            self.n,
            self.mean,
            fmt_opt(self.geometric_mean),
            fmt_opt(self.harmonic_mean),
            self.five_number.min,
            self.five_number.q1,
            self.five_number.median,
            self.five_number.q3,
            self.five_number.max,
            fmt_opt(self.std_dev),
            fmt_opt(self.cov),
            fmt_opt(self.skewness),
            fmt_opt(self.excess_kurtosis),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                crate::dist::normal::std_normal_inv_cdf(u)
            })
            .collect()
    }

    #[test]
    fn symmetric_sample_has_zero_skew() {
        let xs = normal_sample(1001);
        let s = skewness(&xs).unwrap().unwrap();
        assert!(s.abs() < 0.01, "skew {s}");
        // Normal data: excess kurtosis near 0.
        let k = excess_kurtosis(&xs).unwrap().unwrap();
        assert!(k.abs() < 0.25, "kurtosis {k}");
    }

    #[test]
    fn lognormal_sample_is_right_skewed_heavy_tailed() {
        let xs: Vec<f64> = normal_sample(2000).iter().map(|z| z.exp()).collect();
        assert!(skewness(&xs).unwrap().unwrap() > 1.0);
        assert!(excess_kurtosis(&xs).unwrap().unwrap() > 1.0);
    }

    #[test]
    fn left_skew_detected() {
        let xs: Vec<f64> = normal_sample(2000).iter().map(|z| -(z.exp())).collect();
        assert!(skewness(&xs).unwrap().unwrap() < -1.0);
    }

    #[test]
    fn uniform_has_negative_excess_kurtosis() {
        // Uniform: excess kurtosis = -1.2.
        let xs: Vec<f64> = (0..5000).map(|i| i as f64 / 5000.0).collect();
        let k = excess_kurtosis(&xs).unwrap().unwrap();
        assert!((k + 1.2).abs() < 0.05, "kurtosis {k}");
    }

    #[test]
    fn describe_bundles_everything() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = describe(&xs).unwrap();
        assert_eq!(d.n, 100);
        assert_eq!(d.mean, 50.5);
        assert!(d.geometric_mean.unwrap() < d.mean);
        assert!(d.harmonic_mean.unwrap() < d.geometric_mean.unwrap());
        assert!(d.std_dev.is_some());
        assert!(d.cov.is_some());
        assert!(d.skewness.unwrap().abs() < 1e-9); // symmetric
        let text = d.render();
        assert!(text.contains("median=50.5"));
        assert!(text.contains("skew="));
    }

    #[test]
    fn sample_statistics_equal_the_per_call_functions() {
        let xs: Vec<f64> = (0..300)
            .map(|i| ((i as f64 * 0.917).cos() + 3.0) * 2.0)
            .collect();
        let d = describe(&xs).unwrap();
        assert_eq!(d, Sample::new(&xs).unwrap().describe());
        assert_eq!(d.five_number, FiveNumberSummary::from_samples(&xs).unwrap());
        // The moments sum the values in input order, bit for bit.
        let m: HigherMoments = xs.iter().copied().collect();
        assert_eq!(d.mean.to_bits(), m.mean().unwrap().to_bits());
        assert_eq!(d.std_dev.map(f64::to_bits), m.std_dev().map(f64::to_bits));
        assert_eq!(d.skewness.map(f64::to_bits), m.skewness().map(f64::to_bits));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(skewness(&[1.0, 2.0]).unwrap(), None);
        assert_eq!(excess_kurtosis(&[1.0, 2.0, 3.0]).unwrap(), None);
        assert_eq!(skewness(&[5.0; 10]).unwrap(), None); // zero variance
        let d = describe(&[-1.0, 0.0, 1.0]).unwrap();
        assert_eq!(d.geometric_mean, None); // non-positive values
        assert_eq!(d.harmonic_mean, None);
    }
}
