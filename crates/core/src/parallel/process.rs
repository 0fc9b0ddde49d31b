//! Summarizing measurements across processes (§4.2.1 "Summarize times
//! across processes", Rule 10).
//!
//! After measuring `n` events on `P` processes the experimenter holds
//! `n·P` values. The paper: "We recommend performing an ANOVA test to
//! determine if the timings of different processes are significantly
//! different. If the test indicates no significant difference, then all
//! values can be considered from the same population. Otherwise, more
//! detailed investigations may be necessary."
//!
//! [`summarize_across_processes`] runs that ANOVA and picks the summary
//! accordingly; all the paper's cross-process summaries (max, median,
//! pooled) are available explicitly as [`CrossProcessSummary`] variants.

use scibench_stats::error::{StatsError, StatsResult};
use scibench_stats::htest::{one_way_anova, AnovaResult};
use scibench_stats::quantile::median;
use scibench_stats::summary::arithmetic_mean;

/// How to collapse per-process samples into one number per repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossProcessSummary {
    /// Maximum across processes — worst-case completion (used by the
    /// paper for Figure 5 "to assess worst-case performance").
    Max,
    /// Median across processes — robust central tendency.
    Median,
    /// Minimum across processes — a non-robust measure the paper advises
    /// against; present so its bias can be demonstrated.
    Min,
}

/// Result of the Rule-10 cross-process analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessAnalysis {
    /// ANOVA over the per-process groups.
    pub anova: AnovaResult,
    /// Whether process identity matters at the given significance level.
    pub processes_differ: bool,
    /// Per-process means (one per rank).
    pub per_process_mean: Vec<f64>,
    /// Pooled values if the processes do *not* differ (single
    /// population); `None` otherwise.
    pub pooled: Option<Vec<f64>>,
}

/// Runs the paper's ANOVA check across process groups.
///
/// `per_process[r]` holds the repeated measurements of rank `r`. Returns
/// the analysis at significance `alpha` (e.g. 0.05).
pub fn summarize_across_processes(
    per_process: &[Vec<f64>],
    alpha: f64,
) -> StatsResult<ProcessAnalysis> {
    if per_process.len() < 2 {
        return Err(StatsError::InvalidGroups("need at least two processes"));
    }
    let groups: Vec<&[f64]> = per_process.iter().map(Vec::as_slice).collect();
    let anova = one_way_anova(&groups)?;
    let processes_differ = anova.significant_at(alpha);
    let per_process_mean = per_process
        .iter()
        .map(|g| arithmetic_mean(g))
        .collect::<StatsResult<Vec<f64>>>()?;
    let pooled = if processes_differ {
        None
    } else {
        Some(per_process.iter().flat_map(|g| g.iter().copied()).collect())
    };
    Ok(ProcessAnalysis {
        anova,
        processes_differ,
        per_process_mean,
        pooled,
    })
}

/// Collapses one repetition's per-rank values with the chosen summary.
///
/// Non-finite values are rejected with [`StatsError::NonFiniteSample`]:
/// `f64::max`/`f64::min` silently discard NaN operands, so a NaN rank
/// timing would otherwise vanish into a plausible-looking max/min
/// instead of flagging the corrupt measurement.
pub fn collapse_repetition(values_per_rank: &[f64], how: CrossProcessSummary) -> StatsResult<f64> {
    if values_per_rank.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if values_per_rank.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteSample);
    }
    Ok(match how {
        CrossProcessSummary::Max => values_per_rank
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max),
        CrossProcessSummary::Min => values_per_rank
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min),
        CrossProcessSummary::Median => median(values_per_rank)?,
    })
}

/// Collapses a whole campaign: `reps[i]` holds repetition `i`'s per-rank
/// values; returns one summarized value per repetition.
pub fn collapse_campaign(reps: &[Vec<f64>], how: CrossProcessSummary) -> StatsResult<Vec<f64>> {
    reps.iter().map(|r| collapse_repetition(r, how)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(n: usize, mu: f64, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(seed.wrapping_mul(2654435761) | 1);
                mu + ((x % 1000) as f64 / 1000.0 - 0.5) * 0.2
            })
            .collect()
    }

    #[test]
    fn homogeneous_processes_pool() {
        let per_process: Vec<Vec<f64>> = (0..8).map(|r| noisy(50, 10.0, r + 1)).collect();
        let a = summarize_across_processes(&per_process, 0.05).unwrap();
        assert!(!a.processes_differ, "p = {}", a.anova.p_value);
        let pooled = a.pooled.unwrap();
        assert_eq!(pooled.len(), 400);
    }

    #[test]
    fn divergent_process_detected() {
        // Figure 6's situation: some ranks significantly slower.
        let mut per_process: Vec<Vec<f64>> = (0..8).map(|r| noisy(50, 10.0, r + 1)).collect();
        per_process[3] = noisy(50, 12.0, 99);
        let a = summarize_across_processes(&per_process, 0.05).unwrap();
        assert!(a.processes_differ);
        assert!(a.pooled.is_none());
        assert!(a.per_process_mean[3] > a.per_process_mean[0] + 1.0);
    }

    #[test]
    fn collapse_variants() {
        let vals = [3.0, 1.0, 2.0];
        assert_eq!(
            collapse_repetition(&vals, CrossProcessSummary::Max).unwrap(),
            3.0
        );
        assert_eq!(
            collapse_repetition(&vals, CrossProcessSummary::Min).unwrap(),
            1.0
        );
        assert_eq!(
            collapse_repetition(&vals, CrossProcessSummary::Median).unwrap(),
            2.0
        );
    }

    #[test]
    fn collapse_campaign_shapes() {
        let reps = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 0.0]];
        let maxes = collapse_campaign(&reps, CrossProcessSummary::Max).unwrap();
        assert_eq!(maxes, vec![2.0, 4.0, 5.0]);
        let mins = collapse_campaign(&reps, CrossProcessSummary::Min).unwrap();
        assert_eq!(mins, vec![1.0, 3.0, 0.0]);
    }

    #[test]
    fn max_exceeds_median_exceeds_min() {
        let reps = vec![noisy(32, 5.0, 7)];
        let mx = collapse_campaign(&reps, CrossProcessSummary::Max).unwrap()[0];
        let md = collapse_campaign(&reps, CrossProcessSummary::Median).unwrap()[0];
        let mn = collapse_campaign(&reps, CrossProcessSummary::Min).unwrap()[0];
        assert!(mn <= md && md <= mx);
    }

    #[test]
    fn errors_on_degenerate_input() {
        assert!(summarize_across_processes(&[vec![1.0, 2.0]], 0.05).is_err());
        assert!(collapse_repetition(&[], CrossProcessSummary::Max).is_err());
    }

    #[test]
    fn non_finite_ranks_are_rejected_not_dropped() {
        // Without the guard, fold(NEG_INFINITY, f64::max) over
        // [NaN, 1.0] returns 1.0 — the corrupt rank silently vanishes.
        for how in [
            CrossProcessSummary::Max,
            CrossProcessSummary::Min,
            CrossProcessSummary::Median,
        ] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(
                    collapse_repetition(&[bad, 1.0], how),
                    Err(StatsError::NonFiniteSample),
                    "{how:?} accepted {bad}"
                );
                assert_eq!(
                    collapse_repetition(&[1.0, 2.0, bad], how),
                    Err(StatsError::NonFiniteSample),
                    "{how:?} accepted trailing {bad}"
                );
            }
            // All-NaN input must not produce the fold identity element.
            assert_eq!(
                collapse_repetition(&[f64::NAN], how),
                Err(StatsError::NonFiniteSample)
            );
        }
        // Boundary: extreme but finite values still collapse normally.
        let extremes = [f64::MAX, f64::MIN, 0.0];
        assert_eq!(
            collapse_repetition(&extremes, CrossProcessSummary::Max).unwrap(),
            f64::MAX
        );
        assert_eq!(
            collapse_repetition(&extremes, CrossProcessSummary::Min).unwrap(),
            f64::MIN
        );
        assert_eq!(
            collapse_repetition(&extremes, CrossProcessSummary::Median).unwrap(),
            0.0
        );
        // One bad repetition fails the whole campaign collapse loudly.
        let reps = vec![vec![1.0, 2.0], vec![f64::NAN, 3.0]];
        assert_eq!(
            collapse_campaign(&reps, CrossProcessSummary::Max),
            Err(StatsError::NonFiniteSample)
        );
    }
}
