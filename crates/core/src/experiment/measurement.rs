//! The measurement loop (§4.2 of the paper) and Rule 5/6-compliant
//! summaries.
//!
//! A [`MeasurementPlan`] describes *how* to measure one operation:
//! how many warmup iterations to discard (§4.1.2 "Warmup"), and when to
//! stop — either after a fixed count, or adaptively once the confidence
//! interval is tight enough (§4.2.2 "Number of measurements"):
//!
//! * [`StoppingRule::AdaptiveMeanCi`] uses the closed-form
//!   `n = (s·t(n−1, α/2)/(e·x̄))²` for (approximately) normal data;
//! * [`StoppingRule::AdaptiveMedianCi`] recomputes the nonparametric CI
//!   of the median every `batch` measurements — the distribution-free
//!   variant the paper recommends when normality cannot be assumed.
//!
//! [`MeasurementOutcome::summarize`] produces a [`MeasurementSummary`]
//! that always contains the nonparametric statistics, runs the
//! Shapiro–Wilk diagnostic (Rule 6), and only blesses the parametric mean
//! CI when the diagnostic does not reject normality.

use scibench_stats::ci::{self, ConfidenceInterval};
use scibench_stats::error::{StatsError, StatsResult};
use scibench_stats::normality::ShapiroWilk;
use scibench_stats::quantile::FiveNumberSummary;
use scibench_stats::sanitize::sanitize;
use scibench_stats::sorted::SortedSamples;
use scibench_stats::summary::OnlineMoments;
use scibench_stats::Sample;

/// When to stop measuring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingRule {
    /// Exactly `n` samples (after warmup).
    FixedCount(usize),
    /// Stop when the `confidence` CI of the *mean* is within
    /// `rel_error · x̄`, re-planned with the §4.2.2 formula after each
    /// batch. Assumes approximate normality — pair with the summary's
    /// diagnostic. Never exceeds `max_samples`.
    AdaptiveMeanCi {
        /// CI confidence level, e.g. 0.95.
        confidence: f64,
        /// Allowed relative half-width `e`, e.g. 0.05.
        rel_error: f64,
        /// Samples per planning round ("recompute after each n_i = i·k").
        batch: usize,
        /// Hard ceiling on the number of samples.
        max_samples: usize,
    },
    /// Stop when the `confidence` nonparametric CI of the *median* is
    /// within `rel_error · median`; checked every `batch` samples.
    AdaptiveMedianCi {
        /// CI confidence level, e.g. 0.95.
        confidence: f64,
        /// Allowed relative half-width `e`, e.g. 0.05.
        rel_error: f64,
        /// Samples between CI recomputations (the paper: "choose k based
        /// on the cost of the experiment").
        batch: usize,
        /// Hard ceiling on the number of samples.
        max_samples: usize,
    },
}

/// Where the stopping-rule loop records samples: a `Vec<f64>` keeps
/// every one ([`MeasurementPlan::run`]), a
/// [`scibench_stats::sketch::StreamingSummary`] folds them into bounded
/// memory (`run_stream`).
pub(crate) trait SampleSink {
    /// What the median rule carries from one check to the next.
    type MedianCache: Default;

    /// Makes room for `n` more samples.
    fn reserve(&mut self, _n: usize) {}

    /// Records one sample.
    fn push(&mut self, x: f64);

    /// Whether the nonparametric CI of the median of every recorded
    /// sample is within `rel_error` (`false` while too few samples).
    fn median_ci_tight(
        &self,
        cache: &mut Self::MedianCache,
        confidence: f64,
        rel_error: f64,
    ) -> StatsResult<bool>;
}

impl SampleSink for Vec<f64> {
    /// Each batch is merged into a sorted cache (O(n + b) per batch)
    /// instead of re-sorting all samples at every check.
    type MedianCache = Option<SortedSamples>;

    #[inline]
    fn reserve(&mut self, n: usize) {
        Vec::reserve(self, n);
    }

    #[inline]
    fn push(&mut self, x: f64) {
        Vec::push(self, x);
    }

    fn median_ci_tight(
        &self,
        cache: &mut Option<SortedSamples>,
        confidence: f64,
        rel_error: f64,
    ) -> StatsResult<bool> {
        let sorted = match cache {
            Some(sorted) => {
                sorted.merge_extend(&self[sorted.len()..])?;
                sorted
            }
            None => cache.insert(SortedSamples::new(self)?),
        };
        let check = ci::nonparametric_stop_check(sorted, confidence, rel_error)?;
        Ok(check.is_some_and(|(_ci, tight)| tight))
    }
}

impl StoppingRule {
    /// Records `operation()` into `sink` until the rule stops and returns
    /// whether it converged (always `true` for a fixed count). The vector
    /// and streaming paths both run this loop, so for the same sample
    /// stream they stop after the same number of calls.
    pub(crate) fn sample<S: SampleSink>(
        self,
        sink: &mut S,
        mut operation: impl FnMut() -> f64,
    ) -> StatsResult<bool> {
        match self {
            StoppingRule::FixedCount(n) => {
                sink.reserve(n);
                for _ in 0..n {
                    sink.push(operation());
                }
                Ok(true)
            }
            StoppingRule::AdaptiveMeanCi {
                confidence,
                rel_error,
                batch,
                max_samples,
            } => {
                // Running Welford moments make each replanning round O(1)
                // instead of re-scanning the samples, so the loop is O(n)
                // total rather than O(n²/batch).
                let mut moments = OnlineMoments::new();
                let mut recorded = 0usize;
                // Pilot batch (at least 5 to make the t-quantile sane).
                let mut target = batch.max(5).min(max_samples);
                loop {
                    while recorded < target {
                        let x = operation();
                        moments.push(x);
                        sink.push(x);
                        recorded += 1;
                    }
                    if recorded >= max_samples {
                        break;
                    }
                    let required =
                        ci::required_samples_from_moments(&moments, confidence, rel_error)?;
                    if required <= recorded {
                        return Ok(true);
                    }
                    target = required.min(max_samples).min(recorded + batch.max(1));
                }
                // Filled up to the ceiling: one last check.
                Ok(ci::required_samples_from_moments(&moments, confidence, rel_error)? <= recorded)
            }
            StoppingRule::AdaptiveMedianCi {
                confidence,
                rel_error,
                batch,
                max_samples,
            } => {
                let mut cache = S::MedianCache::default();
                let mut recorded = 0usize;
                while recorded < max_samples {
                    let fresh = batch.max(1).min(max_samples - recorded);
                    for _ in 0..fresh {
                        sink.push(operation());
                    }
                    recorded += fresh;
                    if sink.median_ci_tight(&mut cache, confidence, rel_error)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

/// A plan for measuring one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementPlan {
    /// Name of the measured operation (for reports).
    pub name: String,
    /// Iterations discarded before recording (§4.1.2: "the first
    /// measurement iteration should be excluded").
    pub warmup_iterations: usize,
    /// The stopping rule.
    pub stopping: StoppingRule,
}

impl MeasurementPlan {
    /// Creates a plan with no warmup and a default fixed count of 30.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            warmup_iterations: 0,
            stopping: StoppingRule::FixedCount(30),
        }
    }

    /// Sets the warmup iteration count.
    pub fn warmup(mut self, iterations: usize) -> Self {
        self.warmup_iterations = iterations;
        self
    }

    /// Sets the stopping rule.
    pub fn stopping(mut self, rule: StoppingRule) -> Self {
        self.stopping = rule;
        self
    }

    /// Runs the plan: `operation` is invoked repeatedly and must return
    /// the measured cost of one execution (seconds, nanoseconds — any
    /// consistent cost unit).
    pub fn run(&self, mut operation: impl FnMut() -> f64) -> StatsResult<MeasurementOutcome> {
        self.validate()?;
        // Warmup: execute and discard.
        let warmup_samples = (0..self.warmup_iterations).map(|_| operation()).collect();
        let mut samples = Vec::new();
        let converged = self.stopping.sample(&mut samples, operation)?;
        Ok(MeasurementOutcome {
            name: self.name.clone(),
            warmup_samples,
            samples,
            converged,
        })
    }

    pub(crate) fn validate(&self) -> StatsResult<()> {
        match self.stopping {
            StoppingRule::FixedCount(n) => {
                if n == 0 {
                    return Err(StatsError::InvalidParameter {
                        name: "n",
                        value: 0.0,
                    });
                }
            }
            StoppingRule::AdaptiveMeanCi {
                confidence,
                rel_error,
                max_samples,
                ..
            }
            | StoppingRule::AdaptiveMedianCi {
                confidence,
                rel_error,
                max_samples,
                ..
            } => {
                check_probability("confidence", confidence)?;
                check_probability("rel_error", rel_error)?;
                if max_samples == 0 {
                    return Err(StatsError::InvalidParameter {
                        name: "max_samples",
                        value: 0.0,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Refuses a `value` outside the open interval (0, 1) as an invalid
/// probability called `name`.
fn check_probability(name: &'static str, value: f64) -> StatsResult<()> {
    if value > 0.0 && value < 1.0 {
        Ok(())
    } else {
        Err(StatsError::InvalidProbability { name, value })
    }
}

/// The raw result of running a measurement plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementOutcome {
    /// Operation name.
    pub name: String,
    /// Discarded warmup measurements (kept so reports can show them).
    pub warmup_samples: Vec<f64>,
    /// The recorded measurements.
    pub samples: Vec<f64>,
    /// Whether the adaptive stopping criterion was met (always true for
    /// fixed-count plans).
    pub converged: bool,
}

impl MeasurementOutcome {
    /// Summarizes the measurements per Rules 5 and 6.
    ///
    /// Non-finite samples (NaN from clock jumps, ±∞ from overflowed
    /// timers) are partitioned out first and *counted* rather than
    /// propagated as an error, per Rule 4: the summary discloses how many
    /// samples were dropped, and while any contamination is present the
    /// parametric mean CI is withheld — the nonparametric median CI of
    /// the surviving samples is the only interval reported. An
    /// all-contaminated outcome still fails with a typed error because
    /// there is nothing left to summarize.
    ///
    /// An all-finite outcome is borrowed as a [`Sample`] and summarized
    /// by [`MeasurementSummary::from_sample`]; only a contaminated one is
    /// copied, to summarize its finite samples and disclose the drops.
    /// Errors with [`StatsError::InvalidProbability`] when `confidence`
    /// is outside (0, 1), before anything else.
    pub fn summarize(&self, confidence: f64) -> StatsResult<MeasurementSummary> {
        check_probability("confidence", confidence)?;
        match Sample::new(&self.samples) {
            Err(StatsError::NonFiniteSample) => {}
            finite => {
                return MeasurementSummary::from_sample(
                    &self.name,
                    &finite?,
                    self.converged,
                    confidence,
                )
            }
        }
        let sanitized = sanitize(&self.samples);
        if sanitized.clean.is_empty() {
            return Err(StatsError::NonFiniteSample);
        }
        let sample = Sample::new(&sanitized.clean)?;
        let summary =
            MeasurementSummary::from_sample(&self.name, &sample, self.converged, confidence)?;
        Ok(MeasurementSummary {
            samples_recorded: sanitized.recorded(),
            samples_dropped: sanitized.dropped(),
            dropped_nan: sanitized.dropped_nan,
            dropped_infinite: sanitized.dropped_infinite,
            // Contamination degrades the summary to nonparametric-only:
            // the mean of a partially-dropped sample is biased in an
            // unknown direction, so its CI must not be blessed.
            mean_ci_valid: false,
            ..summary
        })
    }
}

/// A Rule 5/6-compliant summary of one measurement campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementSummary {
    /// Operation name.
    pub name: String,
    /// Number of *usable* (finite) samples the statistics are based on.
    pub n: usize,
    /// Number of samples recorded before sanitization (`n` plus drops).
    pub samples_recorded: usize,
    /// Total non-finite samples dropped during sanitization (Rule 4).
    pub samples_dropped: usize,
    /// NaN samples dropped (e.g. clock-jump-corrupted readings).
    pub dropped_nan: usize,
    /// Infinite samples dropped (e.g. overflowed timer deltas).
    pub dropped_infinite: usize,
    /// Rule 5: "report if the measurement values are deterministic".
    pub deterministic: bool,
    /// Whether the adaptive stopping criterion was met.
    pub converged: bool,
    /// Arithmetic mean (costs).
    pub mean: f64,
    /// Sample standard deviation; `None` for deterministic data.
    pub std_dev: Option<f64>,
    /// Coefficient of variation; `None` for deterministic data.
    pub cov: Option<f64>,
    /// Min / quartiles / max.
    pub five_number: FiveNumberSummary,
    /// Shapiro–Wilk diagnostic (Rule 6); `None` when not computable.
    pub normality: Option<ShapiroWilk>,
    /// Whether the parametric mean CI may be trusted (diagnostic did not
    /// reject normality at α = 0.05).
    pub mean_ci_valid: bool,
    /// Student-t CI of the mean (report only when `mean_ci_valid`).
    pub mean_ci: Option<ConfidenceInterval>,
    /// Nonparametric CI of the median (valid regardless of distribution).
    pub median_ci: Option<ConfidenceInterval>,
    /// The confidence level used for both CIs.
    pub confidence: f64,
}

impl MeasurementSummary {
    /// Summarizes a sample of finite measurements per Rules 5 and 6.
    ///
    /// The five-number summary and the median CI come from the sample's
    /// sort; the mean, the standard deviation and the mean CI from its
    /// kept [`Sample::mean`] and [`Sample::variance`]; the Shapiro–Wilk
    /// thinning reads the values in recorded order, which the sample has
    /// already checked. Nothing was dropped, so the mean CI is blessed
    /// whenever the diagnostic does not reject normality. Errors with
    /// [`StatsError::InvalidProbability`] when `confidence` is outside
    /// (0, 1), before anything else.
    pub fn from_sample(
        name: &str,
        sample: &Sample<'_>,
        converged: bool,
        confidence: f64,
    ) -> StatsResult<Self> {
        check_probability("confidence", confidence)?;
        let xs = sample.values();
        let five = sample.sorted().five_number();
        let mean = sample.mean();
        let deterministic = five.max == five.min;

        let (std_dev, cov) = if xs.len() >= 2 && !deterministic {
            let s = sample.std_dev()?;
            (Some(s), if mean != 0.0 { Some(s / mean) } else { None })
        } else {
            (None, None)
        };

        // Rule 6: diagnostic checking before using normal statistics.
        let normality = if deterministic || xs.len() < 3 {
            None
        } else {
            sample.shapiro_wilk_thinned(2000).ok()
        };
        let normal_ok = normality
            .as_ref()
            .map(|sw| !sw.rejects_normality(0.05))
            .unwrap_or(false);

        let mean_ci = if deterministic {
            None
        } else {
            sample.mean_ci(confidence).ok()
        };
        let median_ci = sample.sorted().median_ci(confidence).ok();

        Ok(Self {
            name: name.to_owned(),
            n: xs.len(),
            samples_recorded: xs.len(),
            samples_dropped: 0,
            dropped_nan: 0,
            dropped_infinite: 0,
            deterministic,
            converged,
            mean,
            std_dev,
            cov,
            five_number: five,
            normality,
            mean_ci_valid: normal_ok,
            mean_ci,
            median_ci,
            confidence,
        })
    }

    /// Renders the summary as interpretable text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: n={}{}{}\n  min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6}\n  mean={:.6}",
            self.name,
            self.n,
            if self.deterministic {
                " [deterministic]"
            } else {
                ""
            },
            if self.converged {
                ""
            } else {
                " [NOT CONVERGED]"
            },
            self.five_number.min,
            self.five_number.q1,
            self.five_number.median,
            self.five_number.q3,
            self.five_number.max,
            self.mean,
        );
        if let Some(s) = self.std_dev {
            out.push_str(&format!(" sd={s:.6}"));
        }
        if let Some(c) = self.cov {
            out.push_str(&format!(" CoV={c:.4}"));
        }
        out.push('\n');
        if self.samples_dropped > 0 {
            out.push_str(&format!(
                "  contamination: {} of {} samples usable, {} dropped \
                 ({} NaN, {} infinite); mean CI withheld, median CI reported\n",
                self.n,
                self.samples_recorded,
                self.samples_dropped,
                self.dropped_nan,
                self.dropped_infinite,
            ));
        }
        if let Some(sw) = &self.normality {
            out.push_str(&format!(
                "  normality: Shapiro-Wilk W={:.4} p={:.4} -> {}\n",
                sw.w,
                sw.p_value,
                if self.mean_ci_valid {
                    "no rejection; mean CI usable"
                } else {
                    "REJECTED; use median CI"
                },
            ));
        }
        if let (true, Some(ci)) = (self.mean_ci_valid, &self.mean_ci) {
            out.push_str(&format!(
                "  {:.0}% CI(mean): [{:.6}, {:.6}]\n",
                self.confidence * 100.0,
                ci.lower,
                ci.upper
            ));
        }
        if let Some(ci) = &self.median_ci {
            out.push_str(&format!(
                "  {:.0}% CI(median): [{:.6}, {:.6}]\n",
                self.confidence * 100.0,
                ci.lower,
                ci.upper
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise generator for tests.
    struct Gen {
        state: u64,
    }

    impl Gen {
        fn new(seed: u64) -> Self {
            Self {
                state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            }
        }
        fn next_uniform(&mut self) -> f64 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.state >> 11) as f64 / (1u64 << 53) as f64
        }
        /// Right-skewed sample around 1.0.
        fn next_latency(&mut self) -> f64 {
            let u = self.next_uniform().clamp(1e-9, 1.0 - 1e-9);
            1.0 + 0.1 * (-(u.ln()))
        }
    }

    #[test]
    fn fixed_count_records_exactly_n() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(17));
        let mut g = Gen::new(1);
        let out = plan.run(|| g.next_latency()).unwrap();
        assert_eq!(out.samples.len(), 17);
        assert!(out.converged);
        assert!(out.warmup_samples.is_empty());
    }

    #[test]
    fn warmup_is_discarded_but_recorded() {
        let plan = MeasurementPlan::new("op")
            .warmup(4)
            .stopping(StoppingRule::FixedCount(10));
        let mut calls = 0usize;
        let out = plan
            .run(|| {
                calls += 1;
                // Warmup iterations are 10x slower.
                if calls <= 4 {
                    10.0
                } else {
                    1.0
                }
            })
            .unwrap();
        assert_eq!(out.warmup_samples, vec![10.0; 4]);
        assert_eq!(out.samples, vec![1.0; 10]);
        assert_eq!(calls, 14);
    }

    #[test]
    fn adaptive_mean_stops_quickly_on_quiet_data() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMeanCi {
            confidence: 0.95,
            rel_error: 0.05,
            batch: 10,
            max_samples: 10_000,
        });
        let mut g = Gen::new(2);
        // Tiny noise: should converge almost immediately.
        let out = plan.run(|| 100.0 + 0.01 * g.next_uniform()).unwrap();
        assert!(out.converged);
        assert!(
            out.samples.len() <= 20,
            "took {} samples",
            out.samples.len()
        );
    }

    #[test]
    fn adaptive_mean_takes_more_samples_on_noisy_data() {
        let mk = |seed| {
            let plan = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMeanCi {
                confidence: 0.95,
                rel_error: 0.02,
                batch: 10,
                max_samples: 100_000,
            });
            let mut g = Gen::new(seed);
            plan.run(|| 1.0 + g.next_uniform()).unwrap()
        };
        let out = mk(3);
        assert!(out.converged);
        assert!(
            out.samples.len() > 100,
            "only {} samples",
            out.samples.len()
        );
        // Verify the promise: CI is within 2 % of the mean.
        let summary = out.summarize(0.95).unwrap();
        let ci = summary.mean_ci.unwrap();
        assert!(ci.relative_half_width().unwrap() <= 0.021);
    }

    #[test]
    fn adaptive_mean_respects_max_samples() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMeanCi {
            confidence: 0.99,
            rel_error: 0.001,
            batch: 16,
            max_samples: 64,
        });
        let mut g = Gen::new(4);
        let out = plan.run(|| 1.0 + g.next_uniform()).unwrap();
        assert_eq!(out.samples.len(), 64);
        assert!(!out.converged);
    }

    #[test]
    fn adaptive_median_converges() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMedianCi {
            confidence: 0.95,
            rel_error: 0.05,
            batch: 25,
            max_samples: 50_000,
        });
        let mut g = Gen::new(5);
        let out = plan.run(|| g.next_latency()).unwrap();
        assert!(
            out.converged,
            "did not converge in {} samples",
            out.samples.len()
        );
        let s = out.summarize(0.95).unwrap();
        let ci = s.median_ci.unwrap();
        assert!(ci.relative_half_width().unwrap() <= 0.05);
    }

    #[test]
    fn deterministic_data_flagged() {
        let plan = MeasurementPlan::new("det").stopping(StoppingRule::FixedCount(20));
        let out = plan.run(|| 42.0).unwrap();
        let s = out.summarize(0.95).unwrap();
        assert!(s.deterministic);
        assert_eq!(s.std_dev, None);
        assert_eq!(s.mean_ci, None);
        assert!(s.render().contains("[deterministic]"));
    }

    #[test]
    fn skewed_data_rejects_mean_ci() {
        let plan = MeasurementPlan::new("skewed").stopping(StoppingRule::FixedCount(500));
        let mut g = Gen::new(6);
        // Strongly skewed: exponentiate.
        let out = plan.run(|| (3.0 * g.next_uniform()).exp()).unwrap();
        let s = out.summarize(0.95).unwrap();
        assert!(!s.deterministic);
        assert!(s.normality.is_some());
        assert!(!s.mean_ci_valid, "skewed data must invalidate the mean CI");
        assert!(s.median_ci.is_some());
        assert!(s.render().contains("REJECTED"));
    }

    #[test]
    fn near_normal_data_allows_mean_ci() {
        let plan = MeasurementPlan::new("normal").stopping(StoppingRule::FixedCount(200));
        let mut g = Gen::new(7);
        // Sum of 12 uniforms ≈ normal (Irwin–Hall).
        let out = plan
            .run(|| (0..12).map(|_| g.next_uniform()).sum::<f64>())
            .unwrap();
        let s = out.summarize(0.95).unwrap();
        assert!(
            s.mean_ci_valid,
            "Irwin-Hall sum should pass normality (p = {:?})",
            s.normality
        );
        assert!(s.mean_ci.is_some());
        assert!(s.render().contains("CI(mean)"));
    }

    #[test]
    fn invalid_plans_rejected() {
        let mut g = Gen::new(8);
        assert!(MeasurementPlan::new("x")
            .stopping(StoppingRule::FixedCount(0))
            .run(|| g.next_uniform())
            .is_err());
        assert!(MeasurementPlan::new("x")
            .stopping(StoppingRule::AdaptiveMeanCi {
                confidence: 1.5,
                rel_error: 0.05,
                batch: 10,
                max_samples: 100
            })
            .run(|| 1.0)
            .is_err());
        assert!(MeasurementPlan::new("x")
            .stopping(StoppingRule::AdaptiveMedianCi {
                confidence: 0.95,
                rel_error: 0.0,
                batch: 10,
                max_samples: 100
            })
            .run(|| 1.0)
            .is_err());
    }

    #[test]
    fn contaminated_samples_degrade_to_median_ci() {
        let mut g = Gen::new(10);
        // Near-normal data that would normally bless the mean CI.
        let mut samples: Vec<f64> = (0..200)
            .map(|_| (0..12).map(|_| g.next_uniform()).sum::<f64>())
            .collect();
        samples[5] = f64::NAN;
        samples[17] = f64::INFINITY;
        samples[90] = f64::NEG_INFINITY;
        let out = MeasurementOutcome {
            name: "contaminated".to_owned(),
            warmup_samples: Vec::new(),
            samples,
            converged: true,
        };
        let s = out.summarize(0.95).unwrap();
        assert_eq!(s.n, 197);
        assert_eq!(s.samples_recorded, 200);
        assert_eq!(s.samples_dropped, 3);
        assert_eq!(s.dropped_nan, 1);
        assert_eq!(s.dropped_infinite, 2);
        assert!(
            !s.mean_ci_valid,
            "contamination must withhold the mean CI even for normal data"
        );
        assert!(s.median_ci.is_some());
        let text = s.render();
        assert!(text.contains("197 of 200 samples usable"), "{text}");
        assert!(!text.contains("CI(mean)"), "{text}");
        assert!(text.contains("CI(median)"), "{text}");
    }

    #[test]
    fn all_contaminated_outcome_fails_with_typed_error() {
        let out = MeasurementOutcome {
            name: "dead".to_owned(),
            warmup_samples: Vec::new(),
            samples: vec![f64::NAN, f64::INFINITY, f64::NAN],
            converged: false,
        };
        assert!(matches!(
            out.summarize(0.95),
            Err(StatsError::NonFiniteSample)
        ));
    }

    #[test]
    fn a_confidence_outside_the_unit_interval_is_refused() {
        let clean: Vec<f64> = (0..50).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
        let mut contaminated = clean.clone();
        contaminated.insert(3, f64::NAN);
        let outcome = |samples: &[f64]| MeasurementOutcome {
            name: "confidence".to_owned(),
            warmup_samples: Vec::new(),
            samples: samples.to_vec(),
            converged: true,
        };
        let sample = Sample::new(&clean).unwrap();
        for bad in [95.0, 0.0, 1.0, f64::NAN] {
            let refused = |r: StatsResult<MeasurementSummary>| {
                matches!(
                    r,
                    Err(StatsError::InvalidProbability { name: "confidence", value })
                        if value.to_bits() == bad.to_bits()
                )
            };
            assert!(refused(MeasurementSummary::from_sample(
                "x", &sample, true, bad
            )));
            // Before any other check: an empty or all-contaminated outcome
            // is refused for its confidence too.
            for samples in [&clean[..], &contaminated, &[f64::NAN, f64::INFINITY], &[]] {
                assert!(refused(outcome(samples).summarize(bad)), "{bad}");
            }
        }
        let s = MeasurementSummary::from_sample("x", &sample, true, 0.9).unwrap();
        assert_eq!(s.confidence, 0.9);
        assert!(s.mean_ci.is_some() && s.median_ci.is_some());
        for samples in [clean, contaminated] {
            let s = outcome(&samples).summarize(0.9).unwrap();
            assert!(s.mean_ci.is_some() && s.median_ci.is_some());
        }
    }

    #[test]
    fn clean_samples_report_zero_drops() {
        let plan = MeasurementPlan::new("clean").stopping(StoppingRule::FixedCount(30));
        let mut g = Gen::new(11);
        let s = plan
            .run(|| g.next_latency())
            .unwrap()
            .summarize(0.95)
            .unwrap();
        assert_eq!(s.samples_recorded, 30);
        assert_eq!(s.samples_dropped, 0);
        assert!(!s.render().contains("contamination"));
    }

    #[test]
    fn summary_render_contains_five_numbers() {
        let plan = MeasurementPlan::new("render").stopping(StoppingRule::FixedCount(50));
        let mut g = Gen::new(9);
        let out = plan.run(|| g.next_latency()).unwrap();
        let text = out.summarize(0.99).unwrap().render();
        for needle in ["min=", "median=", "max=", "mean=", "99% CI(median)"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    /// Every float of a summary, as bits.
    fn summary_bits(s: &MeasurementSummary) -> Vec<u64> {
        let ci = |ci: &Option<ConfidenceInterval>| {
            ci.map_or([f64::NAN; 4], |c| {
                [c.estimate, c.lower, c.upper, c.confidence]
            })
        };
        let f = &s.five_number;
        let sw = s
            .normality
            .as_ref()
            .map_or([f64::NAN; 2], |sw| [sw.w, sw.p_value]);
        let xs = [
            vec![s.mean, s.confidence, f.min, f.q1, f.median, f.q3, f.max],
            s.std_dev.into_iter().chain(s.cov).collect(),
            sw.to_vec(),
            ci(&s.mean_ci).to_vec(),
            ci(&s.median_ci).to_vec(),
        ]
        .concat();
        crate::test_samples::bits(&xs)
    }

    #[test]
    fn every_summary_keeps_its_pinned_bits() {
        use crate::compare::compare_samples;
        use scibench_stats::kde::Bandwidth;

        // Bits written before a `Sample` kept its moments, when each
        // statistic summed its own mean and variance through
        // `arithmetic_mean` and `sample_variance`.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut uniform = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let heavy: Vec<f64> = (0..100_000).map(|_| (1.0 - uniform()).powf(-0.8)).collect();
        let mut contaminated = heavy.clone();
        contaminated.insert(0, f64::NAN);
        contaminated.insert(50_000, f64::INFINITY);
        contaminated.push(f64::NEG_INFINITY);
        // Zeros of both signs tie with each other and with the repeats.
        let ties: Vec<f64> = (0..500)
            .map(|_| [-0.0, 0.0, 1.0, 1.0, 2.5, 4.0][(uniform() * 6.0) as usize])
            .collect();
        let other: Vec<f64> = (0..3_000)
            .map(|_| 2.0 + (1.0 - uniform()).powf(-0.5))
            .collect();
        let inputs = [
            heavy,
            vec![3.5],
            vec![2.0, -1.25],
            vec![2.5; 40],
            ties,
            contaminated,
        ];

        let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
        let ci = |c: Option<ConfidenceInterval>| {
            [
                c.map(|c| c.estimate),
                c.map(|c| c.lower),
                c.map(|c| c.upper),
            ]
            .map(opt)
        };
        let none = u64::MAX;
        let heavy_summary = [
            0x40115bf7e2c13d7d,
            0x403e3aec46f4ea42,
            0x401bdcf49fc99f31,
            0x3ff0001007dec70b,
            0x3ff41dd9671ec730,
            0x3ffbc60955ce4176,
            0x400815fe9dda620b,
            0x40afd5f296d6fc7e,
            0x40115bf7e2c13d7d,
            0x40109c1aa900ec00,
            0x40121bd51c818efa,
            0x3ffbc60955ce4176,
            0x3ffba02436c332f0,
            0x3ffbe9d36bf9a048,
            0x3fb689ff8edea4da,
            0x0000000000000000,
        ];
        let summary_pins: [[u64; 16]; 6] = [
            heavy_summary,
            [
                0x400c000000000000,
                none,
                none,
                0x400c000000000000,
                0x400c000000000000,
                0x400c000000000000,
                0x400c000000000000,
                0x400c000000000000,
                none,
                none,
                none,
                none,
                none,
                none,
                none,
                none,
            ],
            [
                0x3fd8000000000000,
                0x40026280b3476096,
                0x40188356445f2b73,
                0xbff4000000000000,
                0xbfdc000000000000,
                0x3fd8000000000000,
                0x3ff3000000000000,
                0x4000000000000000,
                0x3fd8000000000000,
                0xc03445c7fac5fc1f,
                0x403505c7fac5fc1f,
                none,
                none,
                none,
                none,
                none,
            ],
            [
                0x4004000000000000,
                none,
                none,
                0x4004000000000000,
                0x4004000000000000,
                0x4004000000000000,
                0x4004000000000000,
                0x4004000000000000,
                none,
                none,
                none,
                0x4004000000000000,
                0x4004000000000000,
                0x4004000000000000,
                none,
                none,
            ],
            [
                0x3ff7cac083126e98,
                0x3ff720d3085cd675,
                0x3fef1b72f2f92a15,
                0x0000000000000000,
                0x8000000000000000,
                0x3ff0000000000000,
                0x4004000000000000,
                0x4010000000000000,
                0x3ff7cac083126e98,
                0x3ff5c2843ea6ce48,
                0x3ff9d2fcc77e0ee8,
                0x3ff0000000000000,
                0x3ff0000000000000,
                0x3ff0000000000000,
                0x3fe9ee523cf4822f,
                0x0000000000000000,
            ],
            // The finite values of the contaminated outcome are the heavy
            // tail's, in its order.
            heavy_summary,
        ];
        let too_few = |required, actual| StatsError::TooFewSamples { required, actual };
        let comparison_pins: [StatsResult<[u64; 10]>; 5] = [
            Ok([
                0x40115bf7e2c13d7d,
                0x40109c1aa900ec00,
                0x40121bd51c818efa,
                0x400f46955fa16311,
                0x400ecb55be76e0bd,
                0x400fc1d500cbe565,
                0x4011251a7d3cacd6,
                0x3ef31349c3380000,
                0x40f5ef5411af4e38,
                0xbf8d965b70f277b3,
            ]),
            Err(too_few(2, 1)),
            Err(too_few(6, 2)),
            Ok([
                0x4004000000000000,
                0x4004000000000000,
                0x4004000000000000,
                0x400f46955fa16311,
                0x400ecb55be76e0bd,
                0x400fc1d500cbe565,
                0xc046f61514bb4bf3,
                0x0000000000000000,
                0x40a76e0000000000,
                0x3feb00e7fd1d0c61,
            ]),
            Ok([
                0x3ff7cac083126e98,
                0x3ff5c2843ea6ce48,
                0x3ff9d2fcc77e0ee8,
                0x400f46955fa16311,
                0x400ecb55be76e0bd,
                0x400fc1d500cbe565,
                0xc040ecffcf1817d1,
                0x0000000000000000,
                0x4087384bf8470de4,
                0x3ff77f461f29dd15,
            ]),
        ];
        let bandwidth_pins: [[StatsResult<u64>; 2]; 5] = [
            [Ok(0x3fbe261edccf0821), Ok(0x4009a29b4e9a70a3)],
            [Err(too_few(2, 1)), Err(too_few(2, 1))],
            [Ok(0x3fee67806b0bae8b), Ok(0x4000f71561d5570b)],
            [Err(StatsError::ZeroVariance), Err(StatsError::ZeroVariance)],
            [Ok(0x3fd8063869c1988c), Ok(0x3fdc4b97c6834d45)],
        ];

        let other = Sample::new(&other).unwrap();
        for (i, xs) in inputs.iter().enumerate() {
            let s = MeasurementOutcome {
                name: "pinned".to_owned(),
                warmup_samples: Vec::new(),
                samples: xs.clone(),
                converged: true,
            }
            .summarize(0.95)
            .unwrap();
            let f = &s.five_number;
            let sw = s.normality.as_ref();
            let got: [u64; 16] = [
                [
                    s.mean.to_bits(),
                    opt(s.std_dev),
                    opt(s.cov),
                    f.min.to_bits(),
                    f.q1.to_bits(),
                    f.median.to_bits(),
                    f.q3.to_bits(),
                    f.max.to_bits(),
                ]
                .as_slice(),
                &ci(s.mean_ci),
                &ci(s.median_ci),
                &[opt(sw.map(|w| w.w)), opt(sw.map(|w| w.p_value))],
            ]
            .concat()
            .try_into()
            .unwrap();
            assert_eq!(got, summary_pins[i], "summary {i}: {got:#018x?}");
            let Ok(sample) = Sample::new(xs) else {
                continue;
            };

            let got = compare_samples("a", &sample, "b", &other, 0.95, &[], 1).map(|c| {
                let t = &c.t_test;
                [
                    ci(Some(c.mean_ci_a)).as_slice(),
                    &ci(Some(c.mean_ci_b)),
                    &[t.statistic, t.p_value, t.df.0, c.effect_size].map(f64::to_bits),
                ]
                .concat()
                .try_into()
                .unwrap()
            });
            assert_eq!(got, comparison_pins[i], "comparison {i}: {got:#018x?}");

            let got = [Bandwidth::Silverman, Bandwidth::Scott]
                .map(|rule| sample.kde(rule, 64).map(|d| d.bandwidth.to_bits()));
            assert_eq!(got, bandwidth_pins[i], "bandwidths {i}: {got:#018x?}");
        }
    }

    #[test]
    fn sample_statistics_equal_the_per_call_functions() {
        use crate::test_samples::reference::{arithmetic_mean, mean_ci, sample_std_dev};
        use crate::test_samples::sharing_cases;
        use scibench_stats::kde::Bandwidth;
        use scibench_stats::normality::shapiro_wilk_thinned;
        use scibench_stats::quantile::FiveNumberSummary;

        for clean in sharing_cases() {
            let mut contaminated = clean.clone();
            let n = contaminated.len();
            for (at, bad) in [
                (0, f64::NAN),
                (n / 2, f64::INFINITY),
                (n, f64::NEG_INFINITY),
            ] {
                contaminated.insert(at, bad);
            }
            // The moments are first summed for a bandwidth, so the summary
            // reads them kept; `summarize` below sums them itself.
            let sample = Sample::new(&clean).unwrap();
            let _ = sample.kde(Bandwidth::Scott, 16);
            let shared = MeasurementSummary::from_sample("shared", &sample, true, 0.95).unwrap();
            for (samples, dropped) in [(clean.clone(), 0), (contaminated, 3)] {
                let out = MeasurementOutcome {
                    name: "shared".to_owned(),
                    warmup_samples: Vec::new(),
                    samples,
                    converged: true,
                };
                let slice = out.summarize(0.95).unwrap();
                // The drops are disclosed, and withhold the mean CI.
                assert_eq!(
                    (slice.samples_recorded, slice.samples_dropped),
                    (n + dropped, dropped)
                );
                assert_eq!(slice.mean_ci_valid, shared.mean_ci_valid && dropped == 0);
                assert_eq!(summary_bits(&slice), summary_bits(&shared));
                let five = FiveNumberSummary::from_samples(&clean).unwrap();
                assert_eq!(slice.five_number, five);
                assert_eq!(
                    summary_bits(&slice)[2..7],
                    crate::test_samples::bits(&[five.min, five.q1, five.median, five.q3, five.max])
                );
                assert_eq!(
                    slice
                        .median_ci
                        .map(|c| [c.lower, c.upper].map(f64::to_bits)),
                    ci::median_ci(&clean, 0.95)
                        .ok()
                        .map(|c| [c.lower, c.upper].map(f64::to_bits))
                );
                // The order-dependent parts read the finite samples in
                // recorded order.
                let sd = sample_std_dev(&clean).ok();
                let sw = shapiro_wilk_thinned(&clean, 2000).ok();
                let mean_ci = mean_ci(&clean, 0.95).ok();
                assert_eq!(
                    summary_bits(&MeasurementSummary {
                        mean: arithmetic_mean(&clean).unwrap(),
                        std_dev: slice.std_dev.and(sd),
                        cov: slice.cov.and(sd.map(|s| s / slice.mean)),
                        normality: slice.normality.as_ref().and(sw),
                        mean_ci: slice.mean_ci.and(mean_ci),
                        ..slice.clone()
                    }),
                    summary_bits(&slice)
                );
            }
        }
    }
}
