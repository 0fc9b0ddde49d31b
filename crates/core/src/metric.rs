//! Typed metrics enforcing Rules 3 and 4 of the paper.
//!
//! §3.1.1 distinguishes **costs** (seconds, flop, joules — summarize with
//! the arithmetic mean), **rates** (flop/s — summarize with the harmonic
//! mean, or better: divide summed costs) and **ratios** (speedups,
//! fractions of peak — "should never be averaged"; the geometric mean is
//! the explicitly-marked last resort).
//!
//! The types make the correct choice the only one that compiles:
//! [`Cost::mean`] is arithmetic, [`Rate::mean`] is harmonic, and
//! [`Ratio`] has no `mean` at all — only
//! [`Ratio::geometric_mean_last_resort`], whose name is the warning.

use scibench_stats::error::StatsResult;
use scibench_stats::summary;

use crate::units::Unit;

/// A sample of cost measurements (linear, additive unit such as seconds
/// or flop).
///
/// ```
/// use scibench::metric::Cost;
/// use scibench::units::Unit;
/// // The paper's worked example: three 100-Gflop runs.
/// let costs = Cost::new(vec![10.0, 100.0, 40.0], Unit::Seconds);
/// assert_eq!(costs.mean().unwrap(), 50.0);           // arithmetic (Rule 3)
/// assert_eq!(costs.aggregate_rate(100.0).unwrap(), 2.0); // Gflop/s
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cost {
    values: Vec<f64>,
    unit: Unit,
}

impl Cost {
    /// Creates a cost sample; `unit` must be a cost unit (see
    /// [`Unit::is_cost`]).
    ///
    /// # Panics
    /// Panics if `unit` is a rate unit — that is exactly the category
    /// error Rule 3 exists to prevent.
    pub fn new(values: Vec<f64>, unit: Unit) -> Self {
        assert!(
            unit.is_cost(),
            "{unit} is not a cost unit; use Rate or Ratio"
        );
        Self { values, unit }
    }

    /// The raw measurements.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The unit of the measurements.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Arithmetic mean — the correct summary for costs (Rule 3).
    pub fn mean(&self) -> StatsResult<f64> {
        summary::arithmetic_mean(&self.values)
    }

    /// Total cost across the sample (meaningful because costs are linear).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Derives the rate sample `work / cost` for a fixed amount of work
    /// per measurement (e.g. flop per run / seconds per run → flop/s).
    pub fn rate_for_work(&self, work_per_measurement: f64, rate_unit: Unit) -> Rate {
        Rate::new(
            self.values
                .iter()
                .map(|&c| work_per_measurement / c)
                .collect(),
            rate_unit,
        )
    }

    /// The correct aggregate rate: *total work over total cost* — what the
    /// paper recommends when the absolute counts are available ("we
    /// recommend using the arithmetic mean for both before computing the
    /// rate").
    pub fn aggregate_rate(&self, work_per_measurement: f64) -> StatsResult<f64> {
        Ok(work_per_measurement / self.mean()?)
    }
}

/// A sample of rate measurements (cost per cost, e.g. flop/s).
#[derive(Debug, Clone, PartialEq)]
pub struct Rate {
    values: Vec<f64>,
    unit: Unit,
}

impl Rate {
    /// Creates a rate sample; `unit` must be a rate unit.
    ///
    /// # Panics
    /// Panics if `unit` is not a rate unit.
    pub fn new(values: Vec<f64>, unit: Unit) -> Self {
        assert!(
            unit.is_rate(),
            "{unit} is not a rate unit; use Cost or Ratio"
        );
        Self { values, unit }
    }

    /// The raw measurements.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The unit of the measurements.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Harmonic mean — the correct summary for rates when each
    /// measurement covers the same amount of work (Rule 3).
    pub fn mean(&self) -> StatsResult<f64> {
        summary::harmonic_mean(&self.values)
    }

    /// Work-weighted harmonic mean for measurements covering different
    /// amounts of work.
    pub fn weighted_mean(&self, work: &[f64]) -> StatsResult<f64> {
        summary::weighted_harmonic_mean(&self.values, work)
    }

    /// The *incorrect* arithmetic mean of rates, provided only so that
    /// reports and tests can quantify how misleading it would have been
    /// (the paper's worked example: 4.5 vs the true 2 Gflop/s).
    pub fn arithmetic_mean_for_comparison_only(&self) -> StatsResult<f64> {
        summary::arithmetic_mean(&self.values)
    }
}

/// A sample of dimensionless ratios (speedups, fractions of peak).
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    values: Vec<f64>,
}

impl Ratio {
    /// Creates a ratio sample.
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// The raw ratios.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Geometric mean of the ratios — Rule 4's *last resort*, for when the
    /// underlying costs or rates are unavailable. Prefer recomputing the
    /// ratio from summarized costs.
    pub fn geometric_mean_last_resort(&self) -> StatsResult<f64> {
        summary::geometric_mean(&self.values)
    }

    /// The principled alternative: compute a single ratio from already-
    /// summarized numerator and denominator (e.g. mean time over mean
    /// time), rather than averaging per-pair ratios.
    pub fn of_summaries(numerator_summary: f64, denominator_summary: f64) -> f64 {
        numerator_summary / denominator_summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The worked HPL example of §3.1.1: three runs of 100 Gflop taking
    // (10, 100, 40) s.
    const TIMES: [f64; 3] = [10.0, 100.0, 40.0];
    const WORK: f64 = 100.0; // Gflop

    #[test]
    fn cost_mean_is_arithmetic() {
        let c = Cost::new(TIMES.to_vec(), Unit::Seconds);
        assert_eq!(c.mean().unwrap(), 50.0);
        assert_eq!(c.total(), 150.0);
    }

    #[test]
    fn aggregate_rate_matches_paper() {
        // "The harmonic mean of the rates returns the correct 2 Gflop/s."
        let c = Cost::new(TIMES.to_vec(), Unit::Seconds);
        assert_eq!(c.aggregate_rate(WORK).unwrap(), 2.0);
        let r = c.rate_for_work(WORK, Unit::FlopPerSecond);
        assert!((r.mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_mean_of_rates_is_misleading() {
        // "The arithmetic mean of the three rates would be 4.5 Gflop/s,
        // which would not be a good average measure."
        let c = Cost::new(TIMES.to_vec(), Unit::Seconds);
        let r = c.rate_for_work(WORK, Unit::FlopPerSecond);
        assert!((r.arithmetic_mean_for_comparison_only().unwrap() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_ratios_matches_paper() {
        // Relative rates (1, 0.1, 0.25) vs a 10 Gflop/s peak: geometric
        // mean ≈ 0.29 — the paper's "(incorrect) efficiency of 2.9 Gflop/s".
        let ratios = Ratio::new(vec![1.0, 0.1, 0.25]);
        let g = ratios.geometric_mean_last_resort().unwrap();
        assert!((g - 0.2924).abs() < 1e-3, "g = {g}");
    }

    #[test]
    fn ratio_of_summaries_is_the_principled_path() {
        // Correct efficiency: harmonic-mean rate over peak.
        let c = Cost::new(TIMES.to_vec(), Unit::Seconds);
        let eff = Ratio::of_summaries(c.aggregate_rate(WORK).unwrap(), 10.0);
        assert!((eff - 0.2).abs() < 1e-12);
    }

    #[test]
    fn weighted_rate_mean() {
        // 100 Gflop at 10 Gflop/s + 300 Gflop at 30 Gflop/s → 400/20 = 20.
        let r = Rate::new(vec![10.0, 30.0], Unit::FlopPerSecond);
        assert!((r.weighted_mean(&[100.0, 300.0]).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "is not a cost unit")]
    fn cost_rejects_rate_unit() {
        Cost::new(vec![1.0], Unit::FlopPerSecond);
    }

    #[test]
    #[should_panic(expected = "is not a rate unit")]
    fn rate_rejects_cost_unit() {
        Rate::new(vec![1.0], Unit::Seconds);
    }

    #[test]
    fn accessors() {
        let c = Cost::new(vec![1.0, 2.0], Unit::Joules);
        assert_eq!(c.unit(), Unit::Joules);
        assert_eq!(c.values(), &[1.0, 2.0]);
        let r = Rate::new(vec![3.0], Unit::Watts);
        assert_eq!(r.unit(), Unit::Watts);
        let ratio = Ratio::new(vec![0.5]);
        assert_eq!(ratio.values(), &[0.5]);
    }
}
