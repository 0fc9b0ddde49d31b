//! Error type shared by all estimators in this crate.

use std::fmt;

/// Result alias used throughout `scibench-stats`.
pub type StatsResult<T> = Result<T, StatsError>;

/// Errors produced by statistical estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The sample slice was empty.
    EmptySample,
    /// The sample contained NaN or infinite values.
    NonFiniteSample,
    /// The estimator needs at least `required` observations but got `actual`.
    TooFewSamples {
        /// Minimum number of observations required.
        required: usize,
        /// Number of observations provided.
        actual: usize,
    },
    /// A sample that must be strictly positive contained a non-positive value
    /// (e.g. harmonic/geometric mean, log-normalization).
    NonPositiveSample,
    /// A probability-like parameter was outside its valid open interval.
    InvalidProbability {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A distribution parameter was invalid (e.g. non-positive degrees of
    /// freedom or standard deviation).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The sample has zero variance where positive variance is required
    /// (e.g. a t-test on constant data).
    ZeroVariance,
    /// The sample size is outside the supported range of an algorithm
    /// (e.g. Shapiro–Wilk supports 3 ≤ n ≤ 5000).
    UnsupportedSampleSize {
        /// Short description of the constraint that was violated.
        constraint: &'static str,
        /// Number of observations provided.
        actual: usize,
    },
    /// An iterative solver failed to converge.
    NoConvergence {
        /// Which solver failed.
        what: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// Groups passed to a k-sample test were inconsistent (e.g. fewer than
    /// two groups, or an empty group).
    InvalidGroups(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "sample is empty"),
            StatsError::NonFiniteSample => write!(f, "sample contains NaN or infinite values"),
            StatsError::TooFewSamples { required, actual } => {
                write!(f, "need at least {required} samples, got {actual}")
            }
            StatsError::NonPositiveSample => {
                write!(f, "sample must be strictly positive for this estimator")
            }
            StatsError::InvalidProbability { name, value } => {
                write!(
                    f,
                    "parameter {name}={value} is not a valid probability in (0, 1)"
                )
            }
            StatsError::InvalidParameter { name, value } => {
                write!(f, "invalid distribution parameter {name}={value}")
            }
            StatsError::ZeroVariance => write!(f, "sample variance is zero"),
            StatsError::UnsupportedSampleSize { constraint, actual } => {
                write!(f, "sample size {actual} violates constraint: {constraint}")
            }
            StatsError::NoConvergence { what, iterations } => {
                write!(f, "{what} did not converge after {iterations} iterations")
            }
            StatsError::InvalidGroups(msg) => write!(f, "invalid groups: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StatsError::TooFewSamples {
            required: 3,
            actual: 1,
        };
        assert!(e.to_string().contains("at least 3"));
        let e = StatsError::InvalidProbability {
            name: "alpha",
            value: 1.5,
        };
        assert!(e.to_string().contains("alpha"));
        let e = StatsError::UnsupportedSampleSize {
            constraint: "3 <= n <= 5000",
            actual: 2,
        };
        assert!(e.to_string().contains("5000"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<StatsError>();
    }
}
