//! Q-Q plot data (§3.1.2 of the paper, Figure 2 bottom row).
//!
//! A Q-Q plot relates the quantiles of a standard normal distribution to
//! the observed sample quantiles; points on a straight line indicate
//! normality. This module produces the point set plus the straight
//! reference line through the first and third quartiles (what R's
//! `qqline` draws), and a straightness score used by tests.

use crate::dist::normal::std_normal_inv_cdf;
use crate::error::StatsResult;
use crate::quantile::{quantile_sorted, QuantileMethod};
use crate::{sorted_copy, validate_samples};

/// One point of a Q-Q plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QqPoint {
    /// Theoretical standard-normal quantile.
    pub theoretical: f64,
    /// Observed sample quantile.
    pub sample: f64,
}

/// The reference line through the (25 %, 75 %) quantile pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QqLine {
    /// Slope of the reference line.
    pub slope: f64,
    /// Intercept of the reference line.
    pub intercept: f64,
}

/// Full Q-Q plot data for a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct QqPlot {
    /// Plot points ordered by theoretical quantile.
    pub points: Vec<QqPoint>,
    /// Robust reference line (through the quartiles).
    pub line: QqLine,
}

impl QqPlot {
    /// Squared correlation between theoretical and sample quantiles.
    ///
    /// r² near 1 means the points lie on a straight line (normal data);
    /// this is the probability-plot correlation coefficient test statistic.
    pub fn straightness(&self) -> f64 {
        let n = self.points.len() as f64;
        if n < 2.0 {
            return 1.0;
        }
        let mx = self.points.iter().map(|p| p.theoretical).sum::<f64>() / n;
        let my = self.points.iter().map(|p| p.sample).sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for p in &self.points {
            let dx = p.theoretical - mx;
            let dy = p.sample - my;
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        if sxx == 0.0 || syy == 0.0 {
            return 1.0;
        }
        (sxy * sxy) / (sxx * syy)
    }
}

/// Builds Q-Q plot data against the standard normal using Blom plotting
/// positions `(i − 3/8)/(n + 1/4)`.
///
/// For samples larger than `max_points` the plot is uniformly thinned to
/// keep rendering tractable (the paper plots 1 M-sample Q-Q panels; thinning
/// to a few thousand points is visually indistinguishable).
pub fn qq_points(xs: &[f64], max_points: usize) -> StatsResult<QqPlot> {
    validate_samples(xs)?;
    let sorted = sorted_copy(xs);
    let n = sorted.len();
    let m = max_points.max(2).min(n);

    let mut points = Vec::with_capacity(m);
    if n <= m {
        for (i, &x) in sorted.iter().enumerate() {
            let p = ((i + 1) as f64 - 0.375) / (n as f64 + 0.25);
            points.push(QqPoint {
                theoretical: std_normal_inv_cdf(p),
                sample: x,
            });
        }
    } else {
        for j in 0..m {
            // Evenly spaced plotting positions over the full sample. The
            // float product can land exactly on `n` after rounding at
            // adversarial sizes, so the cast is clamped to the last index.
            let idx = (((j as f64 + 0.5) / m as f64 * n as f64) as usize).min(n - 1);
            let p = ((idx + 1) as f64 - 0.375) / (n as f64 + 0.25);
            points.push(QqPoint {
                theoretical: std_normal_inv_cdf(p.clamp(1e-12, 1.0 - 1e-12)),
                sample: sorted[idx],
            });
        }
    }

    // qqline: through the quartiles of both distributions.
    let q1s = quantile_sorted(&sorted, 0.25, QuantileMethod::Interpolated);
    let q3s = quantile_sorted(&sorted, 0.75, QuantileMethod::Interpolated);
    let q1t = std_normal_inv_cdf(0.25);
    let q3t = std_normal_inv_cdf(0.75);
    let slope = if q3t > q1t {
        (q3s - q1s) / (q3t - q1t)
    } else {
        0.0
    };
    let intercept = q1s - slope * q1t;

    Ok(QqPlot {
        points,
        line: QqLine { slope, intercept },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_sample(n: usize, mu: f64, sigma: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                mu + sigma * std_normal_inv_cdf(u)
            })
            .collect()
    }

    #[test]
    fn normal_data_is_straight() {
        let xs = normal_sample(500, 10.0, 3.0);
        let qq = qq_points(&xs, 10_000).unwrap();
        assert!(qq.straightness() > 0.999, "r² = {}", qq.straightness());
        // Line recovers mu and sigma approximately.
        assert!(
            (qq.line.slope - 3.0).abs() < 0.2,
            "slope = {}",
            qq.line.slope
        );
        assert!((qq.line.intercept - 10.0).abs() < 0.2);
    }

    #[test]
    fn lognormal_data_is_curved() {
        let xs: Vec<f64> = normal_sample(500, 0.0, 1.0)
            .iter()
            .map(|x| x.exp())
            .collect();
        let qq = qq_points(&xs, 10_000).unwrap();
        assert!(qq.straightness() < 0.98, "r² = {}", qq.straightness());
    }

    #[test]
    fn points_sorted_by_theoretical() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 0.0, 8.0];
        let qq = qq_points(&xs, 100).unwrap();
        for w in qq.points.windows(2) {
            assert!(w[0].theoretical <= w[1].theoretical);
            assert!(w[0].sample <= w[1].sample);
        }
    }

    #[test]
    fn thinning_caps_point_count() {
        let xs = normal_sample(50_000, 0.0, 1.0);
        let qq = qq_points(&xs, 1000).unwrap();
        assert_eq!(qq.points.len(), 1000);
        assert!(qq.straightness() > 0.999);
    }

    #[test]
    fn small_samples_keep_all_points() {
        let xs = [1.0, 2.0, 3.0];
        let qq = qq_points(&xs, 1000).unwrap();
        assert_eq!(qq.points.len(), 3);
    }

    #[test]
    fn rejects_empty() {
        assert!(qq_points(&[], 100).is_err());
    }
}
