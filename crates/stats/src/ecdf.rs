//! Empirical cumulative distribution functions.
//!
//! ECDFs complement the paper's density plots: where a KDE shows shape,
//! the ECDF reads off "what fraction of runs finished within t" directly
//! — the natural companion to percentile reporting (Rule 8) and the
//! Kolmogorov–Smirnov distance used to compare two systems' full latency
//! profiles.

use crate::error::StatsResult;
use crate::sorted::SortedSamples;

/// An empirical CDF: a right-continuous step function.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of a sample. [`SortedSamples::ecdf`] builds it
    /// from a sort already made, such as [`crate::Sample::sorted`].
    pub fn from_samples(xs: &[f64]) -> StatsResult<Self> {
        SortedSamples::new(xs).map(Self::new)
    }

    /// The ECDF of the sample whose ascending copy `sorted` is.
    pub(crate) fn new(sorted: SortedSamples) -> Self {
        Self {
            sorted: sorted.into_vec(),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x) = (# observations ≤ x) / n`.
    pub fn eval(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Generalized inverse: the smallest observation `v` with `F(v) ≥ p`.
    pub fn inverse(&self, p: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p));
        if p <= 0.0 {
            return self.sorted[0];
        }
        let rank = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// The plot steps `(x, F(x))`, thinned to at most `max_points`.
    pub fn steps(&self, max_points: usize) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let m = max_points.max(2).min(n);
        let mut out = Vec::with_capacity(m);
        for j in 0..m {
            let idx = if m == n {
                j
            } else {
                // Clamped: float rounding must not push the thinned index
                // past the last observation (n, m as small as 2 are legal).
                ((j as f64 / (m - 1) as f64 * (n - 1) as f64) as usize).min(n - 1)
            };
            out.push((self.sorted[idx], (idx + 1) as f64 / n as f64));
        }
        out
    }

    /// Two-sample Kolmogorov–Smirnov distance `sup |F₁ − F₂|`.
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut d = 0.0f64;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps_correctly() {
        let e = Ecdf::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(1e9), 1.0);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn inverse_is_a_quantile() {
        let e = Ecdf::from_samples(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(e.inverse(0.0), 10.0);
        assert_eq!(e.inverse(0.2), 10.0);
        assert_eq!(e.inverse(0.21), 20.0);
        assert_eq!(e.inverse(1.0), 50.0);
    }

    #[test]
    fn eval_inverse_galois_connection() {
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        let e = Ecdf::from_samples(&xs).unwrap();
        for i in 1..=10 {
            let p = i as f64 / 10.0;
            let x = e.inverse(p);
            assert!(e.eval(x) >= p - 1e-12);
        }
    }

    #[test]
    fn ks_distance_properties() {
        let a = Ecdf::from_samples(&(1..=100).map(f64::from).collect::<Vec<_>>()).unwrap();
        let b = Ecdf::from_samples(&(51..=150).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(a.ks_distance(&a), 0.0);
        let d = a.ks_distance(&b);
        assert!((d - 0.5).abs() < 0.02, "d = {d}");
        assert!((d - b.ks_distance(&a)).abs() < 1e-12);
        // Disjoint supports: distance 1.
        let c = Ecdf::from_samples(&[1000.0, 1001.0]).unwrap();
        assert_eq!(a.ks_distance(&c), 1.0);
    }

    #[test]
    fn steps_are_monotone_and_thinned() {
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.377).sin()).collect();
        let e = Ecdf::from_samples(&xs).unwrap();
        let steps = e.steps(100);
        assert_eq!(steps.len(), 100);
        for w in steps.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((steps.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        assert!(Ecdf::from_samples(&[]).is_err());
    }
}
