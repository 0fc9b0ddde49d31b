//! Violin plots (§5.2): "depict the density distribution for all
//! observations \[and\] typically show the median as well as the quartiles"
//! — more information than a box plot at the cost of horizontal space.

use scibench_stats::error::StatsResult;
use scibench_stats::kde::{Bandwidth, DensityEstimate};
use scibench_stats::quantile::FiveNumberSummary;
use scibench_stats::summary::{arithmetic_mean, geometric_mean};
use scibench_stats::Sample;

/// The data behind one violin.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolinData {
    /// Label of the violin.
    pub label: String,
    /// The density silhouette.
    pub density: DensityEstimate,
    /// Quartiles (drawn inside the violin).
    pub five_number: FiveNumberSummary,
    /// Arithmetic mean marker.
    pub mean: f64,
    /// Geometric mean marker (Figure 7(c) plots both).
    pub geometric_mean: Option<f64>,
}

impl ViolinData {
    /// Computes a violin from raw samples; see [`ViolinData::from_sample`].
    pub fn from_samples(label: &str, xs: &[f64], grid_size: usize) -> StatsResult<Self> {
        Self::from_sample(label, &Sample::new(xs)?, grid_size)
    }

    /// Computes a violin on `grid_size` density points. The bandwidth's
    /// IQR and the quartiles come from the sample's sort; the density
    /// binning and the means read the values in their own order.
    pub fn from_sample(label: &str, sample: &Sample<'_>, grid_size: usize) -> StatsResult<Self> {
        let density = sample.kde(Bandwidth::Silverman, grid_size)?;
        let five_number = sample.sorted().five_number();
        let mean = arithmetic_mean(sample.values())?;
        let geometric_mean = geometric_mean(sample.values()).ok();
        Ok(Self {
            label: label.to_owned(),
            density,
            five_number,
            mean,
            geometric_mean,
        })
    }

    /// Half-width of the violin at a given value (normalized so the
    /// widest point is 1).
    pub fn width_at(&self, x: f64) -> f64 {
        let peak = self
            .density
            .density
            .iter()
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        self.density.at(x) / peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latencies() -> Vec<f64> {
        (0..2000)
            .map(|i| {
                let u = (i as f64 + 0.5) / 2000.0;
                1.7 + 0.1 * scibench_stats::dist::normal::std_normal_inv_cdf(u).abs()
            })
            .collect()
    }

    #[test]
    fn violin_carries_all_markers() {
        let v = ViolinData::from_samples("pingpong", &latencies(), 128).unwrap();
        assert_eq!(v.label, "pingpong");
        assert!(v.mean > v.five_number.min);
        assert!(v.geometric_mean.is_some());
        // Right-skewed data (folded normal): mean above median.
        assert!(v.mean > v.five_number.median);
        // Geometric mean below arithmetic mean (AM-GM).
        assert!(v.geometric_mean.unwrap() <= v.mean);
    }

    #[test]
    fn width_is_normalized() {
        let v = ViolinData::from_samples("x", &latencies(), 128).unwrap();
        let mode = v.density.mode();
        assert!((v.width_at(mode) - 1.0).abs() < 1e-9);
        assert!(v.width_at(mode + 1.0) < 0.1);
        assert_eq!(v.width_at(1e9), 0.0);
    }

    #[test]
    fn geometric_mean_absent_for_nonpositive_data() {
        let xs = vec![-1.0, 0.5, 1.0, 2.0, -0.5, 3.0];
        let v = ViolinData::from_samples("x", &xs, 64).unwrap();
        assert!(v.geometric_mean.is_none());
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(ViolinData::from_samples("x", &[], 64).is_err());
        assert!(ViolinData::from_samples("x", &[1.0; 5], 64).is_err());
    }

    #[test]
    fn sample_statistics_equal_the_per_call_functions() {
        use crate::test_samples::{bits, sharing_cases};
        use scibench_stats::kde::kde;

        let violin_bits = |v: &ViolinData| {
            let f = &v.five_number;
            let mut xs = vec![
                v.density.bandwidth,
                f.min,
                f.q1,
                f.median,
                f.q3,
                f.max,
                v.mean,
                v.geometric_mean.unwrap_or(f64::NAN),
            ];
            xs.extend(&v.density.x);
            xs.extend(&v.density.density);
            bits(&xs)
        };
        for xs in sharing_cases() {
            let slice = ViolinData::from_samples("x", &xs, 64);
            let shared = ViolinData::from_sample("x", &Sample::new(&xs).unwrap(), 64);
            match (slice, shared) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(violin_bits(&a), violin_bits(&b));
                    // Each part equals its per-call function on the slice.
                    let reference = ViolinData {
                        label: "x".to_owned(),
                        density: kde(&xs, Bandwidth::Silverman, 64).unwrap(),
                        five_number: FiveNumberSummary::from_samples(&xs).unwrap(),
                        mean: arithmetic_mean(&xs).unwrap(),
                        geometric_mean: geometric_mean(&xs).ok(),
                    };
                    assert_eq!(violin_bits(&a), violin_bits(&reference));
                }
                (a, b) => assert_eq!(a, b, "n = {}", xs.len()),
            }
        }
    }
}
