//! Streaming campaign execution: bounded-memory measurement with
//! streaming sketches instead of O(n) sample vectors.
//!
//! The classic campaign runner ([`super::campaign`]) keeps every sample
//! of every point in memory, which is the right default for the paper's
//! n ≈ 30–10⁴ regime but breaks down for million-sample-per-point
//! campaigns. This module runs the same §4 execution discipline —
//! the same executor and the same stopping-rule loop — while each point
//! folds its samples into a [`StreamingSummary`] (exact below an adaptive
//! threshold, t-digest + moments above it; see
//! `scibench_stats::sketch`).
//!
//! Determinism contract: a point's summary is built **sequentially by
//! exactly one worker** from its own RNG stream (keyed by design index),
//! so the summary's canonical record is a pure function of `(seed,
//! design, plan, stream config)`. The runs come back in design order, so
//! every campaign statistic is bit-identical at any thread count.

use scibench_sim::rng::SimRng;
use scibench_stats::error::{StatsError, StatsResult};
use scibench_stats::sketch::{MergeableSummary, StreamConfig, StreamingSummary};

use super::campaign::{execute_points, CampaignConfig};
use super::design::{Design, RunPoint};
use super::measurement::{MeasurementPlan, SampleSink};

/// The bounded-memory result of measuring one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Operation name (from the plan).
    pub name: String,
    /// Whether the adaptive stopping criterion was met (always true for
    /// fixed-count plans).
    pub converged: bool,
    /// Warmup iterations executed and discarded (values are not kept —
    /// that is the point of streaming).
    pub warmup_seen: u64,
    /// The streamed summary of every recorded sample.
    pub summary: StreamingSummary,
}

impl StreamOutcome {
    /// Recorded sample count (finite + quarantined non-finite).
    pub fn samples_seen(&self) -> u64 {
        self.summary.moments().count() + self.summary.moments().non_finite_count()
    }
}

impl SampleSink for StreamingSummary {
    /// The summary answers the median CI itself.
    type MedianCache = ();

    #[inline]
    fn push(&mut self, x: f64) {
        MergeableSummary::push(self, x);
    }

    fn median_ci_tight(&self, _: &mut (), confidence: f64, rel_error: f64) -> StatsResult<bool> {
        match self.median_ci(confidence) {
            Ok(ci) => Ok(ci.relative_half_width().is_some_and(|r| r <= rel_error)),
            Err(StatsError::TooFewSamples { .. }) | Err(StatsError::EmptySample) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Runs a measurement plan in streaming mode: same warmup and stopping
/// semantics as [`MeasurementPlan::run`], but samples fold into a
/// [`StreamingSummary`] instead of accumulating in a vector.
///
/// Both modes run the same stopping-rule loop, so they stop after the
/// *same number of calls* to `operation` for the same sample stream: the
/// mean rule replans from identical Welford moments, and the median
/// rule's CI check is bit-identical while the summary is exact (below
/// `stream.threshold`) and rank-error-bounded after promotion.
pub fn run_stream(
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    mut operation: impl FnMut() -> f64,
) -> StatsResult<StreamOutcome> {
    plan.validate()?;
    let mut summary = StreamingSummary::new(*stream)?;
    for _ in 0..plan.warmup_iterations {
        // Warmup executes and discards (§4.1.2); nothing is recorded.
        let _ = operation();
    }
    let converged = plan.stopping.sample(&mut summary, operation)?;
    Ok(StreamOutcome {
        name: plan.name.clone(),
        converged,
        warmup_seen: plan.warmup_iterations as u64,
        summary,
    })
}

/// One streamed design point.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRun {
    /// The factor levels of this run.
    pub point: RunPoint,
    /// The bounded-memory outcome.
    pub outcome: StreamOutcome,
}

/// The executed streaming campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCampaign {
    /// Executed runs, in design (full-factorial) order.
    pub runs: Vec<StreamRun>,
}

impl StreamCampaign {
    /// The runs whose adaptive stopping did not converge.
    pub fn unconverged(&self) -> Vec<&RunPoint> {
        self.runs
            .iter()
            .filter(|r| !r.outcome.converged)
            .map(|r| &r.point)
            .collect()
    }
}

/// Executes `design` with `plan` at every point in streaming mode.
///
/// Execution order is randomized (§4.1.1) and points run on the
/// work-stealing pool, but every point's RNG stream is keyed by its
/// *design* index and its summary is built sequentially by one worker —
/// so every run (and therefore every statistic derived from the runs) is
/// bit-identical at any thread count.
pub fn run_campaign_stream<F>(
    design: &Design,
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    config: &CampaignConfig,
    measure: F,
) -> StatsResult<StreamCampaign>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(StatsError::EmptySample);
    }
    let all: Vec<usize> = (0..points.len()).collect();
    let runs = execute_points(
        &all,
        config,
        None,
        || (),
        |(), idx, mut rng| {
            let point = &points[idx];
            let outcome = run_stream(plan, stream, || measure(point, &mut rng))?;
            Ok(StreamRun {
                point: point.clone(),
                outcome,
            })
        },
    )?;
    Ok(StreamCampaign {
        runs: runs.into_iter().map(|(_, run)| run).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::design::Factor;
    use crate::experiment::measurement::StoppingRule;
    use scibench_stats::sketch::DEFAULT_STREAM_THRESHOLD;
    use scibench_stats::summary::OnlineMoments;

    fn demo_design() -> Design {
        Design::new(vec![
            Factor::new("system", &["a", "b"]),
            Factor::numeric("size", &[8.0, 64.0]),
        ])
    }

    fn demo_measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
        let base = if point.level(0) == "a" { 1.0 } else { 2.0 };
        base + rng.uniform() * 0.01
    }

    fn fixed_plan(n: usize) -> MeasurementPlan {
        MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(n))
    }

    #[test]
    fn stream_matches_vector_path_in_exact_regime() {
        // Below the threshold the streamed statistics must be
        // bit-identical to the vector path on the same sample stream.
        let plan = fixed_plan(200).warmup(3);
        let mut rng = SimRng::new(42).fork("x");
        let vector = plan.run(|| rng.uniform()).unwrap();
        let mut rng = SimRng::new(42).fork("x");
        let stream = run_stream(&plan, &StreamConfig::default(), || rng.uniform()).unwrap();
        assert!(stream.summary.is_exact());
        assert_eq!(stream.samples_seen(), 200);
        assert_eq!(stream.warmup_seen, 3);
        assert!(stream.converged);
        let sorted = scibench_stats::sorted::SortedSamples::new(&vector.samples).unwrap();
        assert_eq!(
            stream.summary.median().unwrap().to_bits(),
            sorted
                .quantile(0.5, scibench_stats::quantile::QuantileMethod::Interpolated)
                .unwrap()
                .to_bits()
        );
        assert_eq!(
            stream.summary.mean().unwrap().to_bits(),
            vector
                .samples
                .iter()
                .copied()
                .collect::<OnlineMoments>()
                .mean()
                .unwrap()
                .to_bits()
        );
    }

    #[test]
    fn adaptive_rules_converge_and_stop_like_the_vector_path() {
        for stopping in [
            StoppingRule::AdaptiveMeanCi {
                confidence: 0.95,
                rel_error: 0.05,
                batch: 16,
                max_samples: 4096,
            },
            StoppingRule::AdaptiveMedianCi {
                confidence: 0.95,
                rel_error: 0.05,
                batch: 16,
                max_samples: 4096,
            },
        ] {
            let plan = MeasurementPlan::new("op").stopping(stopping);
            let mut rng = SimRng::new(7).fork("adapt");
            let vector = plan.run(|| 1.0 + rng.uniform() * 0.2).unwrap();
            let mut rng = SimRng::new(7).fork("adapt");
            let stream = run_stream(&plan, &StreamConfig::default(), || {
                1.0 + rng.uniform() * 0.2
            })
            .unwrap();
            assert!(vector.converged && stream.converged, "{stopping:?}");
            // Exact regime: the stopping decision is bit-identical, so
            // both modes consumed the same number of samples.
            assert!(stream.summary.is_exact());
            assert_eq!(
                stream.samples_seen() as usize,
                vector.samples.len(),
                "{stopping:?}"
            );
        }
    }

    #[test]
    fn million_scale_point_stays_bounded() {
        // One design point, 50k samples with a threshold of 1024: the
        // summary must promote and stay O(sketch), not O(n).
        let plan = fixed_plan(50_000);
        let stream_cfg = StreamConfig {
            threshold: 1024,
            ..StreamConfig::default()
        };
        let mut rng = SimRng::new(3).fork("big");
        let out = run_stream(&plan, &stream_cfg, || rng.uniform()).unwrap();
        assert!(!out.summary.is_exact());
        assert_eq!(out.samples_seen(), 50_000);
        assert!(
            out.summary.resident_bytes() < 50_000 * 8 / 10,
            "resident {} bytes",
            out.summary.resident_bytes()
        );
        let median = out.summary.median().unwrap();
        assert!((median - 0.5).abs() < 0.02, "median {median}");
    }

    #[test]
    fn campaign_partials_are_bit_identical_across_thread_counts() {
        // Each point's summary, its partial of the campaign, is built by
        // one worker from the point's own stream, so its record does not
        // depend on the thread count.
        let plan = fixed_plan(500);
        let stream_cfg = StreamConfig {
            threshold: 128,
            ..StreamConfig::default()
        };
        let run = |threads| {
            run_campaign_stream(
                &demo_design(),
                &plan,
                &stream_cfg,
                &CampaignConfig { seed: 11, threads },
                demo_measure,
            )
            .unwrap()
        };
        let records = |campaign: &StreamCampaign| -> Vec<String> {
            campaign
                .runs
                .iter()
                .map(|r| r.outcome.summary.to_record())
                .collect()
        };
        let baseline = run(1);
        assert_eq!(baseline.runs.len(), 4);
        assert!(baseline.unconverged().is_empty());
        assert!(baseline.runs.iter().all(|r| !r.outcome.summary.is_exact()));
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(records(&par), records(&baseline), "threads={threads}");
            assert_eq!(par.runs, baseline.runs, "threads={threads}");
        }
    }

    #[test]
    fn default_threshold_is_documented_adaptive_boundary() {
        // The adaptive exact/sketch boundary the docs promise.
        assert_eq!(StreamConfig::default().threshold, DEFAULT_STREAM_THRESHOLD);
    }
}
