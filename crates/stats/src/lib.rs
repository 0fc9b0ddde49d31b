//! Statistical substrate for interpretable benchmarking.
//!
//! This crate implements the statistical machinery prescribed by Hoefler &
//! Belli, *Scientific Benchmarking of Parallel Computing Systems* (SC '15):
//!
//! - summarizing **costs**, **rates** and **ratios** with the correct mean
//!   (arithmetic / harmonic / geometric, §3.1.1 of the paper),
//! - parametric statistics of normally distributed data: standard deviation,
//!   coefficient of variation, Student-t confidence intervals of the mean
//!   (§3.1.2),
//! - nonparametric statistics: median, quantiles, rank-based confidence
//!   intervals after Le Boudec (§3.1.3),
//! - diagnostic checking for normality: Shapiro–Wilk (AS R94), Q-Q data,
//!   log- and batch-mean normalization (§3.1.2),
//! - comparing experiments: t-test, one-way ANOVA, Kruskal–Wallis, effect
//!   size (§3.2),
//! - quantile regression for one-factor comparisons (§3.2.3),
//! - bootstrap confidence intervals, Tukey outlier fences, kernel density
//!   estimation and histograms for reporting (§5.2).
//!
//! Everything is implemented from scratch on top of `std`; the only runtime
//! dependency is `rand` (bootstrap resampling, thinning).
//!
//! # Example
//!
//! ```
//! use scibench_stats::{summary, ci};
//!
//! let xs = [10.0, 100.0, 40.0];
//! // Worked HPL example from §3.1.1 of the paper: 100 Gflop per run.
//! let mean_time = summary::arithmetic_mean(&xs).unwrap();
//! assert!((mean_time - 50.0).abs() < 1e-12);
//! let rates: Vec<f64> = xs.iter().map(|t| 100.0 / t).collect();
//! let hm = summary::harmonic_mean(&rates).unwrap();
//! assert!((hm - 2.0).abs() < 1e-12); // Gflop/s, matches cost-based mean
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bootstrap;
pub mod ci;
pub mod describe;
pub mod dist;
pub mod ecdf;
pub mod error;
pub mod histogram;
pub mod htest;
pub mod kde;
pub mod normality;
pub mod outlier;
pub mod power;
pub mod qq;
pub mod quantile;
pub mod quantreg;
pub mod rank;
pub mod sanitize;
pub mod sketch;
mod sort;
pub mod sorted;
pub mod special;
pub mod summary;

pub use error::{StatsError, StatsResult};
pub use sorted::Sample;

/// Checks that a slice of samples is non-empty and free of NaN/∞ values.
///
/// Nearly every estimator in this crate starts with this validation so that
/// downstream arithmetic cannot silently produce NaN results.
pub(crate) fn validate_samples(xs: &[f64]) -> StatsResult<()> {
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if xs.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteSample);
    }
    Ok(())
}

/// Returns a sorted copy of the input samples.
pub(crate) fn sorted_copy(xs: &[f64]) -> Vec<f64> {
    sort::sorted_finite(xs.to_vec())
}

/// Encodes an `f64` as its 16-hex-digit IEEE-754 bit pattern — the
/// bit-exact, NaN-safe wire form the sketch records and the journal use.
pub(crate) fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_empty() {
        assert!(matches!(
            validate_samples(&[]),
            Err(StatsError::EmptySample)
        ));
    }

    #[test]
    fn validate_rejects_nan_and_inf() {
        assert!(matches!(
            validate_samples(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteSample)
        ));
        assert!(matches!(
            validate_samples(&[f64::INFINITY]),
            Err(StatsError::NonFiniteSample)
        ));
    }

    #[test]
    fn validate_accepts_finite() {
        assert!(validate_samples(&[0.0, -1.0, 2.5]).is_ok());
    }

    #[test]
    fn sorted_copy_sorts() {
        assert_eq!(sorted_copy(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
