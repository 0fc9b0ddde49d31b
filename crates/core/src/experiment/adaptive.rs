//! Adaptive level refinement (§4.2 of the paper).
//!
//! "With certain assumptions on the parameters, one could use adaptive
//! refinement to measure levels where the uncertainty is highest, similar
//! to active learning. SKaMPI uses this approach assuming parameters are
//! linear."
//!
//! [`refine_levels`] implements the SKaMPI scheme: start from the
//! endpoints of a numeric factor range, repeatedly bisect the interval
//! whose midpoint is worst predicted by linear interpolation between its
//! measured endpoints, and stop when the interpolation error falls below
//! a tolerance or the measurement budget is exhausted. The result is a
//! set of measured levels dense where the response curve bends (e.g.
//! around an eager/rendezvous protocol switch) and sparse where it is
//! straight.

use scibench_stats::error::{StatsError, StatsResult};

/// One measured level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredLevel {
    /// The factor value (e.g. message size).
    pub level: f64,
    /// The measured response (e.g. median latency).
    pub value: f64,
}

/// Result of an adaptive refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct Refinement {
    /// Measured levels, sorted ascending by level.
    pub measured: Vec<MeasuredLevel>,
    /// Largest relative interpolation error remaining between adjacent
    /// measured levels.
    pub max_rel_error: f64,
    /// Whether the tolerance was reached within the budget.
    pub converged: bool,
}

impl Refinement {
    /// Linear interpolation of the response at an arbitrary level inside
    /// the measured range.
    pub fn interpolate(&self, level: f64) -> Option<f64> {
        let pts = &self.measured;
        if pts.is_empty() || level < pts[0].level || level > pts[pts.len() - 1].level {
            return None;
        }
        let idx = pts.partition_point(|p| p.level <= level);
        if idx == 0 {
            return Some(pts[0].value);
        }
        if idx >= pts.len() {
            return Some(pts[pts.len() - 1].value);
        }
        let (a, b) = (pts[idx - 1], pts[idx]);
        if b.level == a.level {
            return Some(a.value);
        }
        let f = (level - a.level) / (b.level - a.level);
        Some(a.value * (1.0 - f) + b.value * f)
    }
}

/// Configuration of the refinement loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementConfig {
    /// Lowest level (inclusive).
    pub min_level: f64,
    /// Highest level (inclusive).
    pub max_level: f64,
    /// Stop when every midpoint is predicted within this relative error.
    pub rel_tolerance: f64,
    /// Maximum number of measurements (including the two endpoints).
    pub budget: usize,
    /// Smallest interval width still worth splitting (levels are often
    /// integers: message sizes, process counts).
    pub min_gap: f64,
}

impl RefinementConfig {
    /// Validates the configuration.
    fn validate(&self) -> StatsResult<()> {
        if self.max_level.partial_cmp(&self.min_level) != Some(std::cmp::Ordering::Greater) {
            return Err(StatsError::InvalidParameter {
                name: "max_level",
                value: self.max_level,
            });
        }
        if self.rel_tolerance.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(StatsError::InvalidParameter {
                name: "rel_tolerance",
                value: self.rel_tolerance,
            });
        }
        if self.budget < 3 {
            return Err(StatsError::TooFewSamples {
                required: 3,
                actual: self.budget,
            });
        }
        if self.min_gap.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(StatsError::InvalidParameter {
                name: "min_gap",
                value: self.min_gap,
            });
        }
        Ok(())
    }
}

/// Runs adaptive level refinement: `measure(level)` must return the
/// response at a level (typically an already-summarized median from a
/// [`crate::experiment::measurement::MeasurementPlan`]).
pub fn refine_levels(
    config: &RefinementConfig,
    mut measure: impl FnMut(f64) -> f64,
) -> StatsResult<Refinement> {
    config.validate()?;
    let mut measured = vec![
        MeasuredLevel {
            level: config.min_level,
            value: measure(config.min_level),
        },
        MeasuredLevel {
            level: config.max_level,
            value: measure(config.max_level),
        },
    ];

    let mut spent = 2usize;
    while spent < config.budget {
        // Find the interval whose midpoint is worst predicted.
        // We must *measure* candidate midpoints to evaluate the error, so
        // the scheme measures the midpoint of the widest-error interval:
        // pick the interval with the largest *predicted curvature proxy*,
        // i.e. the largest |slope change| across neighbours, falling back
        // to the widest interval. Then measure its midpoint and record
        // the realized error.
        let idx = select_interval(&measured, config.min_gap);
        let Some(idx) = idx else {
            break; // nothing left to split
        };
        let (a, b) = (measured[idx], measured[idx + 1]);
        let mid_level = 0.5 * (a.level + b.level);
        let predicted = 0.5 * (a.value + b.value);
        let observed = measure(mid_level);
        spent += 1;
        measured.insert(
            idx + 1,
            MeasuredLevel {
                level: mid_level,
                value: observed,
            },
        );

        let rel_err = (observed - predicted).abs() / observed.abs().max(1e-300);
        // Convergence check: all remaining candidate intervals are either
        // below min_gap or their last realized error was below tolerance.
        if rel_err < config.rel_tolerance && max_realized_error(&measured) < config.rel_tolerance {
            return Ok(Refinement {
                max_rel_error: max_realized_error(&measured),
                measured,
                converged: true,
            });
        }
    }
    let max_rel_error = max_realized_error(&measured);
    Ok(Refinement {
        measured,
        max_rel_error,
        converged: max_rel_error < config.rel_tolerance,
    })
}

/// Chooses the next interval to split: the one with the largest local
/// curvature estimate (slope change), preferring wide intervals; returns
/// `None` when every interval is below the minimum gap.
fn select_interval(measured: &[MeasuredLevel], min_gap: f64) -> Option<usize> {
    let n = measured.len();
    let mut best: Option<(f64, usize)> = None;
    for i in 0..n - 1 {
        let width = measured[i + 1].level - measured[i].level;
        if width < 2.0 * min_gap {
            continue;
        }
        // Curvature proxy: deviation of this segment's slope from the
        // average of the neighbouring slopes, scaled by width.
        let slope = |j: usize| {
            (measured[j + 1].value - measured[j].value)
                / (measured[j + 1].level - measured[j].level).max(1e-300)
        };
        let s = slope(i);
        let mut curvature = 0.0;
        if i > 0 {
            curvature += (s - slope(i - 1)).abs();
        }
        if i + 2 < n {
            curvature += (slope(i + 1) - s).abs();
        }
        let score = width * (1.0 + curvature);
        if best.map(|(b, _)| score > b).unwrap_or(true) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Max relative error of predicting each interior point from its
/// neighbours (leave-one-out linear interpolation).
fn max_realized_error(measured: &[MeasuredLevel]) -> f64 {
    let mut worst = 0.0f64;
    for i in 1..measured.len() - 1 {
        let (a, m, b) = (measured[i - 1], measured[i], measured[i + 1]);
        let span = b.level - a.level;
        if span <= 0.0 {
            continue;
        }
        let f = (m.level - a.level) / span;
        let predicted = a.value * (1.0 - f) + b.value * f;
        worst = worst.max((predicted - m.value).abs() / m.value.abs().max(1e-300));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(budget: usize) -> RefinementConfig {
        RefinementConfig {
            min_level: 1.0,
            max_level: 1025.0,
            rel_tolerance: 0.01,
            budget,
            min_gap: 1.0,
        }
    }

    #[test]
    fn linear_response_converges_immediately() {
        let mut calls = 0;
        let r = refine_levels(&config(100), |x| {
            calls += 1;
            3.0 * x + 10.0
        })
        .unwrap();
        assert!(r.converged);
        // Linear data: endpoints + one confirming midpoint suffice.
        assert!(calls <= 5, "spent {calls} measurements on a straight line");
        assert!(r.max_rel_error < 0.01);
    }

    #[test]
    fn kink_attracts_measurements() {
        // Piecewise latency: eager until 512, rendezvous above (jump).
        let f = |x: f64| {
            if x <= 512.0 {
                1.0 + x * 0.001
            } else {
                3.0 + x * 0.001
            }
        };
        let r = refine_levels(&config(60), f).unwrap();
        // Count measurements near the kink vs far away.
        let near = r
            .measured
            .iter()
            .filter(|m| (m.level - 512.0).abs() < 128.0)
            .count();
        let far = r
            .measured
            .iter()
            .filter(|m| (m.level - 512.0).abs() >= 384.0)
            .count();
        assert!(
            near >= far,
            "near {near} vs far {far}: {:?}",
            r.measured.len()
        );
        // The interpolation is accurate away from the kink.
        let v = r.interpolate(100.0).unwrap();
        assert!((v - f(100.0)).abs() / f(100.0) < 0.05, "{v}");
    }

    #[test]
    fn budget_is_respected() {
        let mut calls = 0usize;
        let r = refine_levels(&config(10), |x| {
            calls += 1;
            (x * 0.01).sin().abs() + 1.0 // wiggly: never converges at tol 1%
        })
        .unwrap();
        assert!(calls <= 10);
        assert_eq!(r.measured.len(), calls);
    }

    #[test]
    fn measured_levels_stay_sorted_and_in_range() {
        let r = refine_levels(&config(40), |x| x.sqrt()).unwrap();
        for w in r.measured.windows(2) {
            assert!(w[0].level < w[1].level);
        }
        assert_eq!(r.measured.first().unwrap().level, 1.0);
        assert_eq!(r.measured.last().unwrap().level, 1025.0);
    }

    #[test]
    fn interpolate_handles_boundaries() {
        let r = refine_levels(&config(8), |x| 2.0 * x).unwrap();
        assert!(r.interpolate(0.5).is_none());
        assert!(r.interpolate(2000.0).is_none());
        let v = r.interpolate(513.0).unwrap();
        assert!((v - 1026.0).abs() < 1.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = config(10);
        c.max_level = c.min_level;
        assert!(refine_levels(&c, |x| x).is_err());
        let mut c = config(2);
        c.budget = 2;
        assert!(refine_levels(&c, |x| x).is_err());
        let mut c = config(10);
        c.rel_tolerance = 0.0;
        assert!(refine_levels(&c, |x| x).is_err());
        let mut c = config(10);
        c.min_gap = 0.0;
        assert!(refine_levels(&c, |x| x).is_err());
    }

    #[test]
    fn min_gap_stops_splitting() {
        // With a huge min_gap only the initial endpoints plus at most one
        // midpoint fit.
        let c = RefinementConfig {
            min_level: 0.0,
            max_level: 10.0,
            rel_tolerance: 1e-9,
            budget: 100,
            min_gap: 4.0,
        };
        let r = refine_levels(&c, |x| x * x).unwrap();
        assert!(r.measured.len() <= 4, "{:?}", r.measured);
    }
}
