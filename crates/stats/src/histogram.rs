//! Histograms (§5.2: "Histograms show the complete distribution of data").

use crate::error::{StatsError, StatsResult};
use crate::quantile::FiveNumberSummary;
use crate::validate_samples;

/// Bin-count selection rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinRule {
    /// Sturges' rule: `⌈log₂ n⌉ + 1` bins.
    Sturges,
    /// Freedman–Diaconis: bin width `2·IQR·n^(−1/3)` (robust to outliers).
    FreedmanDiaconis,
    /// Exactly this many bins.
    Fixed(usize),
}

/// A computed histogram with equal-width bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Left edge of each bin (ascending). `edges.len() == counts.len()+1`.
    pub edges: Vec<f64>,
    /// Observation count per bin.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub n: usize,
}

impl Histogram {
    /// Bin width (uniform). Total: returns `0.0` for a degenerate
    /// (hand-constructed) histogram with fewer than two edges instead of
    /// panicking.
    pub fn bin_width(&self) -> f64 {
        match (self.edges.first(), self.edges.get(1)) {
            (Some(lo), Some(hi)) => hi - lo,
            _ => 0.0,
        }
    }

    /// Density value of bin `i` (count normalized by n·width), so the
    /// histogram integrates to 1 and is comparable with a KDE curve.
    ///
    /// Total: a zero-width bin or an empty histogram used to divide by
    /// zero and report an infinite density; both now return `0.0` (no
    /// probability mass can be attributed to a degenerate bin).
    pub fn density(&self, i: usize) -> f64 {
        let denom = self.n as f64 * self.bin_width();
        if denom > 0.0 && denom.is_finite() {
            self.counts[i] as f64 / denom
        } else {
            0.0
        }
    }

    /// Index of the fullest bin; `None` when there are no bins.
    pub fn mode_bin(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, &c) in self.counts.iter().enumerate() {
            if best.is_none_or(|b| c > self.counts[b]) {
                best = Some(i);
            }
        }
        best
    }
}

/// Builds a histogram of `xs` using `rule`.
pub fn histogram(xs: &[f64], rule: BinRule) -> StatsResult<Histogram> {
    validate_samples(xs)?;
    let n = xs.len();
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    let bins = match rule {
        BinRule::Fixed(b) => {
            if b == 0 {
                return Err(StatsError::InvalidParameter {
                    name: "bins",
                    value: 0.0,
                });
            }
            b
        }
        BinRule::Sturges => ((n as f64).log2().ceil() as usize) + 1,
        BinRule::FreedmanDiaconis => {
            let iqr = FiveNumberSummary::from_samples(xs)?.iqr();
            if iqr <= 0.0 || max <= min {
                1
            } else {
                let width = 2.0 * iqr * (n as f64).powf(-1.0 / 3.0);
                (((max - min) / width).ceil() as usize).clamp(1, 10_000)
            }
        }
    };

    // Degenerate range: single bin containing everything. The pad scales
    // with the magnitude so `min ± pad` stays distinguishable even when
    // |min| is so large that `min - 0.5` rounds back to `min` (which used
    // to produce a zero-width bin and infinite densities).
    let (lo, hi) = if max > min {
        (min, max)
    } else {
        let pad = 0.5f64.max(min.abs() * f64::EPSILON * 8.0);
        (min - pad, min + pad)
    };
    let mut bins = bins;
    let mut width = (hi - lo) / bins as f64;
    // An edge only advances if the width is a few ULPs at this magnitude;
    // below that, `lo + i·width` absorbs into `lo` and consecutive edges
    // collapse into zero-width bins (infinite density). Fall back to a
    // single bin spanning the whole sample. The same branch catches a
    // range that overflowed f64 (width = ∞).
    let ulp = lo.abs().max(hi.abs()) * f64::EPSILON;
    if !(width.is_finite() && width > 4.0 * ulp) {
        bins = 1;
        width = (hi - lo).clamp(f64::MIN_POSITIVE, f64::MAX);
    }
    let edges: Vec<f64> = (0..=bins).map(|i| lo + i as f64 * width).collect();
    let mut counts = vec![0u64; bins];
    for &x in xs {
        let mut idx = ((x - lo) / width) as usize;
        if idx >= bins {
            idx = bins - 1; // max lands in the last bin
        }
        counts[idx] += 1;
    }
    Ok(Histogram { edges, counts, n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_n() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.77).sin() * 3.0).collect();
        let h = histogram(&xs, BinRule::Sturges).unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), 100);
        assert_eq!(h.edges.len(), h.counts.len() + 1);
    }

    #[test]
    fn fixed_bin_count_respected() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let h = histogram(&xs, BinRule::Fixed(2)).unwrap();
        assert_eq!(h.counts.len(), 2);
        assert_eq!(h.counts, vec![2, 2]);
    }

    #[test]
    fn max_value_included_in_last_bin() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let h = histogram(&xs, BinRule::Fixed(4)).unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), 5);
        assert_eq!(*h.counts.last().unwrap(), 2); // 3.0 and 4.0
    }

    #[test]
    fn density_integrates_to_one() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 37) as f64).collect();
        let h = histogram(&xs, BinRule::Fixed(10)).unwrap();
        let total: f64 = (0..10).map(|i| h.density(i) * h.bin_width()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sturges_bin_count() {
        let xs: Vec<f64> = (0..64).map(f64::from).collect();
        let h = histogram(&xs, BinRule::Sturges).unwrap();
        assert_eq!(h.counts.len(), 7); // ceil(log2(64)) + 1
    }

    #[test]
    fn constant_data_single_bin() {
        let h = histogram(&[5.0; 20], BinRule::FreedmanDiaconis).unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), 20);
        assert_eq!(h.mode_bin(), Some(0));
    }

    #[test]
    fn mode_bin_finds_peak() {
        let mut xs = vec![0.1; 50];
        xs.extend(vec![0.9; 10]);
        let h = histogram(&xs, BinRule::Fixed(2)).unwrap();
        assert_eq!(h.mode_bin(), Some(0));
    }

    #[test]
    fn mode_bin_is_total_on_empty_counts() {
        let h = Histogram {
            edges: vec![0.0],
            counts: Vec::new(),
            n: 0,
        };
        assert_eq!(h.mode_bin(), None);
        assert_eq!(h.bin_width(), 0.0);
    }

    #[test]
    fn large_magnitude_constant_data_has_finite_density() {
        // Regression: with min = 1e17 the old fixed 0.5 pad rounded away
        // (1e17 - 0.5 == 1e17), producing a zero-width bin and an infinite
        // density for every rule.
        for rule in [
            BinRule::Sturges,
            BinRule::FreedmanDiaconis,
            BinRule::Fixed(4),
        ] {
            let h = histogram(&[1e17; 12], rule).unwrap();
            assert_eq!(h.counts.iter().sum::<u64>(), 12);
            assert!(h.bin_width() > 0.0, "zero-width bin under {rule:?}");
            for i in 0..h.counts.len() {
                assert!(h.density(i).is_finite(), "infinite density under {rule:?}");
            }
            let integral: f64 = (0..h.counts.len())
                .map(|i| h.density(i) * h.bin_width())
                .sum();
            assert!((integral - 1.0).abs() < 1e-9, "integral {integral}");
        }
    }

    #[test]
    fn ulp_range_with_many_bins_falls_back_to_single_bin() {
        // A range of a few ULPs split across many bins underflows the
        // per-bin width to zero; the builder must collapse to one bin
        // instead of emitting zero-width edges.
        let lo = 1.0;
        let hi = f64::from_bits(1.0f64.to_bits() + 2);
        let h = histogram(&[lo, hi], BinRule::Fixed(10_000)).unwrap();
        assert!(h.bin_width() > 0.0);
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
        for i in 0..h.counts.len() {
            assert!(h.density(i).is_finite());
        }
    }

    #[test]
    fn density_is_total_on_degenerate_histograms() {
        // Hand-constructed zero-width histogram: density must not be inf.
        let h = Histogram {
            edges: vec![1.0, 1.0],
            counts: vec![3],
            n: 3,
        };
        assert_eq!(h.density(0), 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(histogram(&[], BinRule::Sturges).is_err());
        assert!(histogram(&[1.0], BinRule::Fixed(0)).is_err());
    }
}
