//! Outlier handling ("On Removing Outliers", §3.1.3 of the paper).
//!
//! The paper's advice: *avoid* removing outliers and use robust measures
//! instead; if removal is unavoidable (e.g. the mean is required), use
//! Tukey's fences and **report the number of removed outliers**. The
//! return type of [`tukey_filter`] makes that count impossible to lose.

use crate::error::{StatsError, StatsResult};
use crate::quantile::FiveNumberSummary;

/// Validates a Tukey-fence multiplier: it must be finite and
/// non-negative, otherwise the fences invert (`lower > upper`) and every
/// observation is silently classified as an outlier.
pub(crate) fn validate_fence_constant(constant: f64) -> StatsResult<()> {
    if !constant.is_finite() || constant < 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "constant",
            value: constant,
        });
    }
    Ok(())
}

/// Tukey's fences: `[Q1 − c·IQR, Q3 + c·IQR]` with the conventional
/// constant `c = 1.5` (increase for a more conservative filter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TukeyFences {
    /// Lower fence; observations below are outliers.
    pub lower: f64,
    /// Upper fence; observations above are outliers.
    pub upper: f64,
    /// The multiplier used (1.5 in Tukey's original definition).
    pub constant: f64,
}

impl TukeyFences {
    /// Computes the fences for a sample with multiplier `constant`.
    ///
    /// Errors with [`StatsError::InvalidParameter`] when `constant` is
    /// negative or non-finite (which would invert the fences).
    pub fn from_samples(xs: &[f64], constant: f64) -> StatsResult<Self> {
        validate_fence_constant(constant)?;
        let s = FiveNumberSummary::from_samples(xs)?;
        let iqr = s.iqr();
        Ok(Self {
            lower: s.q1 - constant * iqr,
            upper: s.q3 + constant * iqr,
            constant,
        })
    }

    /// Whether `x` lies inside the fences (is *not* an outlier).
    pub fn contains(&self, x: f64) -> bool {
        self.lower <= x && x <= self.upper
    }
}

/// Result of outlier removal; keeps the removal count front and center as
/// the paper demands ("one should report the number of removed outliers
/// for each experiment").
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredSample {
    /// Observations within the fences, in input order.
    pub kept: Vec<f64>,
    /// Observations removed as outliers, in input order.
    pub removed: Vec<f64>,
    /// The fences that were applied.
    pub fences: TukeyFences,
}

impl FilteredSample {
    /// Number of removed outliers (the figure that must be reported).
    pub fn removed_count(&self) -> usize {
        self.removed.len()
    }

    /// Fraction of the sample that was removed.
    pub fn removed_fraction(&self) -> f64 {
        let total = self.kept.len() + self.removed.len();
        if total == 0 {
            0.0
        } else {
            self.removed.len() as f64 / total as f64
        }
    }
}

/// Filters a sample with Tukey's method (constant 1.5).
pub fn tukey_filter(xs: &[f64]) -> StatsResult<FilteredSample> {
    tukey_filter_with_constant(xs, 1.5)
}

/// Filters a sample with Tukey's method and a custom multiplier
/// (the paper: "one can increase Tukey's constant 1.5 in order to be more
/// conservative").
pub fn tukey_filter_with_constant(xs: &[f64], constant: f64) -> StatsResult<FilteredSample> {
    let fences = TukeyFences::from_samples(xs, constant)?;
    let mut kept = Vec::with_capacity(xs.len());
    let mut removed = Vec::new();
    for &x in xs {
        if fences.contains(x) {
            kept.push(x);
        } else {
            removed.push(x);
        }
    }
    Ok(FilteredSample {
        kept,
        removed,
        fences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_outliers_in_tight_data() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let f = tukey_filter(&xs).unwrap();
        assert_eq!(f.removed_count(), 0);
        assert_eq!(f.kept, xs.to_vec());
    }

    #[test]
    fn detects_gross_outlier() {
        let xs = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 100.0];
        let f = tukey_filter(&xs).unwrap();
        assert_eq!(f.removed, vec![100.0]);
        assert_eq!(f.kept.len(), 6);
        assert!((f.removed_fraction() - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn detects_low_outlier() {
        let xs = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, -50.0];
        let f = tukey_filter(&xs).unwrap();
        assert_eq!(f.removed, vec![-50.0]);
    }

    #[test]
    fn larger_constant_is_more_conservative() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 9.5];
        let strict = tukey_filter_with_constant(&xs, 1.0).unwrap();
        let lax = tukey_filter_with_constant(&xs, 3.0).unwrap();
        assert!(strict.removed_count() >= lax.removed_count());
    }

    #[test]
    fn preserves_input_order() {
        let xs = [5.0, 100.0, 3.0, 4.0, -100.0, 5.5, 4.5, 5.2];
        let f = tukey_filter(&xs).unwrap();
        assert_eq!(f.kept, vec![5.0, 3.0, 4.0, 5.5, 4.5, 5.2]);
        assert_eq!(f.removed, vec![100.0, -100.0]);
    }

    #[test]
    fn fences_formula() {
        // 1..=8: Q1 = 2.75, Q3 = 6.25, IQR = 3.5 (type-7 quantiles)
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        let fences = TukeyFences::from_samples(&xs, 1.5).unwrap();
        assert!((fences.lower - (2.75 - 5.25)).abs() < 1e-12);
        assert!((fences.upper - (6.25 + 5.25)).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_rejected() {
        assert!(tukey_filter(&[]).is_err());
    }
}
