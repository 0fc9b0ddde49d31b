//! Ranking utilities for nonparametric tests.
//!
//! Kruskal–Wallis (§3.2.2) ranks all observations across groups; ties get
//! the average of the ranks they span (mid-ranks), with the standard tie
//! correction factor. [`crate::htest::kruskal_wallis`] ranks by merging
//! sorted groups instead; these pooled forms are its reference.

use crate::error::{StatsError, StatsResult};

fn validate_finite(xs: &[f64]) -> StatsResult<()> {
    if xs.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteSample);
    }
    Ok(())
}

/// Assigns 1-based mid-ranks to `xs`: ties receive the average of the ranks
/// they would occupy.
///
/// Returns a vector parallel to `xs`, or [`StatsError::NonFiniteSample`]
/// when `xs` holds a NaN or an infinity.
pub fn average_ranks(xs: &[f64]) -> StatsResult<Vec<f64>> {
    validate_finite(xs)?;
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("validated finite"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the tie run [i, j).
        let mut j = i + 1;
        while j < n && xs[idx[j]] == xs[idx[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j averaged.
        let avg = (i + 1 + j) as f64 / 2.0;
        for &k in &idx[i..j] {
            ranks[k] = avg;
        }
        i = j;
    }
    Ok(ranks)
}

/// Tie-correction factor for rank statistics:
/// `C = 1 − Σ (tⱼ³ − tⱼ) / (N³ − N)` over tie groups of size `tⱼ`.
///
/// Equal to 1.0 when there are no ties; used to adjust the Kruskal–Wallis H
/// statistic. Errors with [`StatsError::NonFiniteSample`] when `xs` holds
/// a NaN or an infinity.
pub fn tie_correction(xs: &[f64]) -> StatsResult<f64> {
    validate_finite(xs)?;
    let n = xs.len();
    if n < 2 {
        return Ok(1.0);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
    let mut tie_sum = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && sorted[j] == sorted[i] {
            j += 1;
        }
        let t = (j - i) as f64;
        tie_sum += t * t * t - t;
        i = j;
    }
    let nf = n as f64;
    Ok(1.0 - tie_sum / (nf * nf * nf - nf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_ranks_without_ties() {
        let r = average_ranks(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!(r, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn tied_values_get_mid_ranks() {
        // 1, 2, 2, 4 -> ranks 1, 2.5, 2.5, 4
        let r = average_ranks(&[1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn all_tied() {
        let r = average_ranks(&[5.0; 4]).unwrap();
        assert_eq!(r, vec![2.5; 4]);
    }

    #[test]
    fn rank_sum_is_invariant() {
        // Sum of ranks must be n(n+1)/2 regardless of ties.
        let xs = [3.0, 3.0, 1.0, 7.0, 7.0, 7.0, 2.0];
        let total: f64 = average_ranks(&xs).unwrap().iter().sum();
        let n = xs.len() as f64;
        assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn tie_correction_no_ties_is_one() {
        assert_eq!(tie_correction(&[1.0, 2.0, 3.0]).unwrap(), 1.0);
    }

    #[test]
    fn tie_correction_with_ties_below_one() {
        let c = tie_correction(&[1.0, 2.0, 2.0, 3.0]).unwrap();
        // One tie group of 2: C = 1 - (8-2)/(64-4) = 1 - 0.1 = 0.9
        assert!((c - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tie_correction_degenerate() {
        assert_eq!(tie_correction(&[]).unwrap(), 1.0);
        assert_eq!(tie_correction(&[1.0]).unwrap(), 1.0);
    }

    #[test]
    fn non_finite_values_are_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let xs = [1.0, bad, 2.0];
            assert_eq!(average_ranks(&xs), Err(StatsError::NonFiniteSample));
            assert_eq!(tie_correction(&xs), Err(StatsError::NonFiniteSample));
        }
    }
}
