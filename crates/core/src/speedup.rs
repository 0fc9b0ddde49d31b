//! Speedup with an explicit base case (Rule 1 of the paper).
//!
//! "When publishing parallel speedup, report if the base case is a single
//! parallel process or best serial execution, as well as the absolute
//! execution performance of the base case." — a [`Speedup`] cannot be
//! constructed without both pieces of information, and its `Display`
//! implementation always prints them.

use std::fmt;

/// What the speedup is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseCase {
    /// The parallel code run with a single process — often slower than
    /// the best serial implementation, and therefore flattering.
    SingleParallelProcess,
    /// The best known serial implementation of the problem.
    BestSerial,
    /// Another system entirely (cross-system comparison, `s = T_B / T_A`).
    OtherSystem,
}

impl fmt::Display for BaseCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BaseCase::SingleParallelProcess => "single parallel process",
            BaseCase::BestSerial => "best serial implementation",
            BaseCase::OtherSystem => "other system",
        };
        f.write_str(s)
    }
}

/// A speedup measurement carrying its base case.
///
/// ```
/// use scibench::speedup::{Speedup, BaseCase};
/// let s = Speedup::from_times(1.2, 1.0, BaseCase::BestSerial);
/// assert!((s.factor() - 1.2).abs() < 1e-12);
/// // Rule 1: the rendered form names the base case and its absolute time.
/// assert!(s.to_string().contains("best serial"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Execution time of the base case, seconds.
    pub base_time_s: f64,
    /// Execution time of the improved/parallel configuration, seconds.
    pub new_time_s: f64,
    /// What the base case is.
    pub base_case: BaseCase,
}

impl Speedup {
    /// Creates a speedup from two execution times.
    ///
    /// # Panics
    /// Panics unless both times are positive and finite — a speedup from
    /// garbage times is how papers end up unreproducible.
    pub fn from_times(base_time_s: f64, new_time_s: f64, base_case: BaseCase) -> Self {
        assert!(
            base_time_s.is_finite() && base_time_s > 0.0,
            "base time must be positive, got {base_time_s}"
        );
        assert!(
            new_time_s.is_finite() && new_time_s > 0.0,
            "new time must be positive, got {new_time_s}"
        );
        Self {
            base_time_s,
            new_time_s,
            base_case,
        }
    }

    /// The speedup factor `s = T_base / T_new`.
    pub fn factor(&self) -> f64 {
        self.base_time_s / self.new_time_s
    }

    /// Relative gain `Δ = s − 1` ("system A is 20 % faster than B" for
    /// `s = 1.2`).
    pub fn relative_gain(&self) -> f64 {
        self.factor() - 1.0
    }

    /// Whether the configuration actually got slower.
    pub fn is_slowdown(&self) -> bool {
        self.factor() < 1.0
    }

    /// Parallel efficiency against `p` processes: `s / p`.
    pub fn efficiency(&self, p: usize) -> f64 {
        assert!(p > 0);
        self.factor() / p as f64
    }

    /// Whether the speedup is super-linear for `p` processes — §5.1:
    /// "Super-linear scaling which has been observed in practice is an
    /// indication of suboptimal resource use for small p".
    pub fn is_super_linear(&self, p: usize) -> bool {
        self.factor() > p as f64
    }
}

impl fmt::Display for Speedup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Rule 1: the base case and its absolute performance are part of
        // the number.
        write!(
            f,
            "{:.2}x vs {} ({:.6} s)",
            self.factor(),
            self.base_case,
            self.base_time_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_and_gain() {
        let s = Speedup::from_times(1.2, 1.0, BaseCase::BestSerial);
        assert!((s.factor() - 1.2).abs() < 1e-12);
        assert!((s.relative_gain() - 0.2).abs() < 1e-12);
        assert!(!s.is_slowdown());
    }

    #[test]
    fn slowdown_detected() {
        let s = Speedup::from_times(1.0, 2.0, BaseCase::OtherSystem);
        assert!(s.is_slowdown());
        assert!((s.factor() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_and_super_linearity() {
        let s = Speedup::from_times(10.0, 1.0, BaseCase::SingleParallelProcess);
        assert!((s.efficiency(16) - 0.625).abs() < 1e-12);
        assert!(!s.is_super_linear(16));
        assert!(s.is_super_linear(8));
    }

    #[test]
    fn display_reports_base_case_and_absolute_time() {
        let s = Speedup::from_times(2.0, 1.0, BaseCase::BestSerial);
        let text = s.to_string();
        assert!(text.contains("2.00x"), "{text}");
        assert!(text.contains("best serial"), "{text}");
        assert!(text.contains("2.0"), "{text}"); // absolute base time
    }

    #[test]
    fn base_case_display() {
        assert_eq!(
            BaseCase::SingleParallelProcess.to_string(),
            "single parallel process"
        );
        assert_eq!(BaseCase::OtherSystem.to_string(), "other system");
    }

    #[test]
    #[should_panic(expected = "base time must be positive")]
    fn rejects_zero_base() {
        Speedup::from_times(0.0, 1.0, BaseCase::BestSerial);
    }

    #[test]
    #[should_panic(expected = "new time must be positive")]
    fn rejects_nan_new() {
        Speedup::from_times(1.0, f64::NAN, BaseCase::BestSerial);
    }
}
