//! Box plots (§5.2): quartile box, explicit whisker semantics, optional
//! median notches, outliers.

use scibench_stats::error::StatsResult;
use scibench_stats::quantile::{FiveNumberSummary, QuantileMethod};
use scibench_stats::Sample;

/// What the whiskers mean — §5.2: "the semantics of the whiskers must be
/// specified".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WhiskerRule {
    /// Min and max observations.
    MinMax,
    /// Largest/smallest observation within 1.5·IQR of the box (Tukey);
    /// everything beyond is listed as an outlier.
    TukeyIqr,
    /// Fixed percentiles, e.g. 1 % / 99 %.
    Percentiles {
        /// Lower whisker percentile in [0, 100].
        lower_pct: f64,
        /// Upper whisker percentile in [0, 100].
        upper_pct: f64,
    },
}

impl WhiskerRule {
    /// Human-readable description for figure captions.
    pub fn describe(&self) -> String {
        match self {
            WhiskerRule::MinMax => "whiskers: min/max".into(),
            WhiskerRule::TukeyIqr => "whiskers: 1.5 IQR (Tukey)".into(),
            WhiskerRule::Percentiles {
                lower_pct,
                upper_pct,
            } => {
                format!("whiskers: P{lower_pct}/P{upper_pct}")
            }
        }
    }
}

/// The statistics behind one box.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxPlotStats {
    /// Optional label (e.g. the process rank or system name).
    pub label: String,
    /// Quartiles and extremes.
    pub five_number: FiveNumberSummary,
    /// Arithmetic mean (often drawn as a point).
    pub mean: f64,
    /// Lower whisker position under the chosen rule.
    pub whisker_low: f64,
    /// Upper whisker position.
    pub whisker_high: f64,
    /// The whisker semantics (always carried with the data).
    pub whisker_rule: WhiskerRule,
    /// Observations outside the whiskers.
    pub outliers: Vec<f64>,
    /// Notch interval: CI of the median ("non-overlapping notches
    /// indicate significant differences").
    pub notch: Option<(f64, f64)>,
}

impl BoxPlotStats {
    /// Computes box statistics for a sample; see
    /// [`BoxPlotStats::from_sample`].
    pub fn from_samples(label: &str, xs: &[f64], rule: WhiskerRule) -> StatsResult<Self> {
        Self::from_sample(label, &Sample::new(xs)?, rule)
    }

    /// Computes box statistics for a sample.
    ///
    /// Notches are the 95 % nonparametric CI of the median when enough
    /// samples exist. The quartiles, the percentile whiskers and the notch
    /// come from the sample's sort; the mean, the Tukey whisker scans and
    /// the outlier list read the values in their own order.
    pub fn from_sample(label: &str, sample: &Sample<'_>, rule: WhiskerRule) -> StatsResult<Self> {
        let (xs, sorted) = (sample.values(), sample.sorted());
        let five = sorted.five_number();
        let mean = scibench_stats::summary::arithmetic_mean(xs)?;
        let (lo, hi) = match rule {
            WhiskerRule::MinMax => (five.min, five.max),
            WhiskerRule::TukeyIqr => {
                let fence_lo = five.q1 - 1.5 * five.iqr();
                let fence_hi = five.q3 + 1.5 * five.iqr();
                // Whisker = most extreme observation inside the fence.
                let lo = xs
                    .iter()
                    .cloned()
                    .filter(|&x| x >= fence_lo)
                    .fold(f64::INFINITY, f64::min);
                let hi = xs
                    .iter()
                    .cloned()
                    .filter(|&x| x <= fence_hi)
                    .fold(f64::NEG_INFINITY, f64::max);
                (lo, hi)
            }
            WhiskerRule::Percentiles {
                lower_pct,
                upper_pct,
            } => (
                sorted.quantile(lower_pct / 100.0, QuantileMethod::Interpolated)?,
                sorted.quantile(upper_pct / 100.0, QuantileMethod::Interpolated)?,
            ),
        };
        // Whiskers attach to the box: for tiny samples the most extreme
        // in-fence observation can lie inside the box, so clamp to the
        // box edges (matching R's boxplot rendering).
        let lo = lo.min(five.q1);
        let hi = hi.max(five.q3);
        let outliers: Vec<f64> = xs.iter().cloned().filter(|&x| x < lo || x > hi).collect();
        let notch = sorted.median_ci(0.95).ok().map(|ci| (ci.lower, ci.upper));
        Ok(Self {
            label: label.to_owned(),
            five_number: five,
            mean,
            whisker_low: lo,
            whisker_high: hi,
            whisker_rule: rule,
            outliers,
            notch,
        })
    }

    /// Whether this box's notch overlaps another's (overlap = the median
    /// difference is *not* shown significant by the plot).
    pub fn notches_overlap(&self, other: &BoxPlotStats) -> Option<bool> {
        let (a_lo, a_hi) = self.notch?;
        let (b_lo, b_hi) = other.notch?;
        Some(!(a_hi < b_lo || b_hi < a_lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f64> {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.push(500.0); // gross outlier
        v
    }

    #[test]
    fn min_max_whiskers() {
        let b = BoxPlotStats::from_samples("x", &sample(), WhiskerRule::MinMax).unwrap();
        assert_eq!(b.whisker_low, 1.0);
        assert_eq!(b.whisker_high, 500.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn tukey_whiskers_flag_outlier() {
        let b = BoxPlotStats::from_samples("x", &sample(), WhiskerRule::TukeyIqr).unwrap();
        assert_eq!(b.outliers, vec![500.0]);
        assert_eq!(b.whisker_high, 100.0);
        assert_eq!(b.whisker_low, 1.0);
    }

    #[test]
    fn percentile_whiskers() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let b = BoxPlotStats::from_samples(
            "x",
            &xs,
            WhiskerRule::Percentiles {
                lower_pct: 1.0,
                upper_pct: 99.0,
            },
        )
        .unwrap();
        assert!((b.whisker_low - 10.99).abs() < 0.02);
        assert!((b.whisker_high - 990.01).abs() < 0.02);
        assert_eq!(b.outliers.len(), 20);
    }

    #[test]
    fn notches_reflect_median_significance() {
        let a: Vec<f64> = (1..=200).map(f64::from).collect();
        let b: Vec<f64> = (201..=400).map(f64::from).collect();
        let c: Vec<f64> = (5..=205).map(f64::from).collect();
        let ba = BoxPlotStats::from_samples("a", &a, WhiskerRule::TukeyIqr).unwrap();
        let bb = BoxPlotStats::from_samples("b", &b, WhiskerRule::TukeyIqr).unwrap();
        let bc = BoxPlotStats::from_samples("c", &c, WhiskerRule::TukeyIqr).unwrap();
        assert_eq!(ba.notches_overlap(&bb), Some(false)); // clearly different
        assert_eq!(ba.notches_overlap(&bc), Some(true)); // nearly identical
    }

    #[test]
    fn whisker_rule_description() {
        assert!(WhiskerRule::TukeyIqr.describe().contains("1.5 IQR"));
        assert!(WhiskerRule::Percentiles {
            lower_pct: 1.0,
            upper_pct: 99.0
        }
        .describe()
        .contains("P1"));
    }

    #[test]
    fn mean_and_five_numbers_present() {
        let b =
            BoxPlotStats::from_samples("x", &[1.0, 2.0, 3.0, 4.0], WhiskerRule::MinMax).unwrap();
        assert_eq!(b.mean, 2.5);
        assert_eq!(b.five_number.median, 2.5);
        assert_eq!(b.label, "x");
    }

    #[test]
    fn small_sample_has_no_notch() {
        let b = BoxPlotStats::from_samples("x", &[1.0, 2.0, 3.0], WhiskerRule::MinMax).unwrap();
        assert!(b.notch.is_none());
    }

    /// Every float of a box, as bits.
    fn box_bits(b: &BoxPlotStats) -> Vec<u64> {
        let f = &b.five_number;
        let (notch_lo, notch_hi) = b.notch.unwrap_or((f64::NAN, f64::NAN));
        let mut xs = vec![
            f.min,
            f.q1,
            f.median,
            f.q3,
            f.max,
            b.mean,
            b.whisker_low,
            b.whisker_high,
            notch_lo,
            notch_hi,
        ];
        xs.extend(&b.outliers);
        crate::test_samples::bits(&xs)
    }

    #[test]
    fn sample_statistics_equal_the_per_call_functions() {
        use crate::test_samples::sharing_cases;
        use scibench_stats::ci::median_ci;
        use scibench_stats::quantile::quantile;
        use scibench_stats::summary::arithmetic_mean;

        let five_bits =
            |f: &FiveNumberSummary| [f.min, f.q1, f.median, f.q3, f.max].map(f64::to_bits);
        // Integer steps tie heavily; the zeros mix both signs.
        let ties: Vec<f64> = (0..57)
            .map(|i| match (i * 5) % 13 {
                0 => -0.0,
                1 => 0.0,
                r => (r % 3) as f64 - 1.0,
            })
            .collect();
        let zeros = [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0];
        let rules = [
            WhiskerRule::MinMax,
            WhiskerRule::TukeyIqr,
            WhiskerRule::Percentiles {
                lower_pct: 1.0,
                upper_pct: 99.0,
            },
        ];
        let shared = sharing_cases();
        let fixed = [&sample()[..], &ties, &zeros, &[4.0, -2.0]];
        for xs in fixed.into_iter().chain(shared.iter().map(Vec::as_slice)) {
            let five = FiveNumberSummary::from_samples(xs).unwrap();
            let notch = median_ci(xs, 0.95).ok().map(|ci| (ci.lower, ci.upper));
            // One sample serves every rule.
            let sample = Sample::new(xs).unwrap();
            for rule in rules {
                let b = BoxPlotStats::from_sample("x", &sample, rule).unwrap();
                let slice = BoxPlotStats::from_samples("x", xs, rule).unwrap();
                assert_eq!(b, slice);
                assert_eq!(box_bits(&b), box_bits(&slice));
                // The order-dependent parts read the slice: the mean's sum
                // and the outliers, listed in input order.
                assert_eq!(b.mean.to_bits(), arithmetic_mean(xs).unwrap().to_bits());
                let outside = |&&x: &&f64| x < b.whisker_low || x > b.whisker_high;
                assert_eq!(
                    crate::test_samples::bits(&b.outliers),
                    xs.iter()
                        .filter(outside)
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                );
                assert_eq!(five_bits(&b.five_number), five_bits(&five));
                assert_eq!(
                    b.notch.map(|(l, u)| (l.to_bits(), u.to_bits())),
                    notch.map(|(l, u)| (l.to_bits(), u.to_bits()))
                );
                if let WhiskerRule::Percentiles {
                    lower_pct,
                    upper_pct,
                } = rule
                {
                    let lo = quantile(xs, lower_pct / 100.0, QuantileMethod::Interpolated).unwrap();
                    let hi = quantile(xs, upper_pct / 100.0, QuantileMethod::Interpolated).unwrap();
                    assert_eq!(b.whisker_low.to_bits(), lo.min(five.q1).to_bits());
                    assert_eq!(b.whisker_high.to_bits(), hi.max(five.q3).to_bits());
                }
            }
        }
    }
}
