//! Streaming summaries for bounded-memory campaigns.
//!
//! The paper's Rule 6/7 reporting (nonparametric CIs, quantiles, full
//! distributions) classically needs the entire sample resident and sorted.
//! That caps campaigns far below the 10⁶–10⁸-sample sweeps the roadmap
//! targets. This module provides the sketch substrate that lifts the cap:
//!
//! * [`TDigest`] — a t-digest-style quantile sketch (Dunning's merging
//!   variant, k₁ scale function). O(δ) memory, rank error that shrinks
//!   toward the tails.
//! * [`crate::summary::OnlineMoments`] — the Welford moment accumulator
//!   (exact, not approximate).
//! * [`StreamingSummary`] — the adaptive front end: keeps an **exact**
//!   buffer below [`DEFAULT_STREAM_THRESHOLD`] samples (small campaigns
//!   lose nothing) and promotes to sketches above it.
//!
//! All three summaries implement [`MergeableSummary`], whose `to_record`
//! is a **bit-exact** canonical text form (IEEE-754 bit patterns in hex,
//! NaN-safe). A streaming campaign builds each point's summary from one
//! sequence of pushes on one worker, so equal records across thread
//! counts are equal summaries, which is what the determinism tests
//! assert. Nothing reads a record back: the records are encode-only.
//!
//! # Disclosure (Rules 4, 6, 7)
//!
//! Sketch-mode quantiles carry rank error bounded by the t-digest
//! compression parameter (empirically ≲ 1/δ interior, tighter in the
//! tails); means/variances remain exact because the Welford accumulator is
//! not an approximation. Reports produced from sketches must say so — the
//! streaming campaign runner records the summary mode alongside the
//! estimates so the error source is disclosed, not silently absorbed.

mod moments;
mod tdigest;

pub use tdigest::TDigest;

use crate::ci::{quantile_ci_ranks, ConfidenceInterval};
use crate::error::{StatsError, StatsResult};
use crate::f64_to_hex;
use crate::quantile::{quantile_sorted, FiveNumberSummary, QuantileMethod};
use crate::sorted::SortedSamples;
use crate::summary::OnlineMoments;

/// Number of samples below which [`StreamingSummary`] stays exact.
///
/// 4096 f64s is 32 KiB — trivially resident — while the switch keeps the
/// worst-case footprint O(δ) no matter how many samples follow. Campaigns
/// that never cross the threshold report *exactly* what the classical
/// `SortedSamples` path reports.
pub const DEFAULT_STREAM_THRESHOLD: usize = 4096;

/// Default t-digest compression parameter δ (number of k-units).
pub const DEFAULT_DIGEST_DELTA: u32 = 200;

/// What a streaming summary is fed and what it reports. Implemented by
/// [`OnlineMoments`], [`TDigest`] and the adaptive [`StreamingSummary`]
/// front end.
pub trait MergeableSummary {
    /// Feeds one observation. Non-finite values are quarantined in
    /// [`MergeableSummary::non_finite_count`], never folded into the
    /// statistics (the same contract `OnlineMoments::push` now has).
    fn push(&mut self, x: f64);

    /// Number of finite observations absorbed so far.
    fn count(&self) -> u64;

    /// Number of quarantined non-finite observations.
    fn non_finite_count(&self) -> u64;

    /// Canonical, bit-exact, single-line text record of the summary.
    ///
    /// The encoding uses IEEE-754 bit patterns for every float, so NaN
    /// payloads and signed zeros survive. The record is a pure function of
    /// the sequence of pushes that built the summary: the same sequence
    /// gives the same bits on any thread, which is what campaigns rely on.
    /// The same *multiset* in another order can give other bits (the
    /// Welford sums round differently, a digest's centroids depend on
    /// which samples share a flush, and `-0.0`/`+0.0` keep their order),
    /// so a campaign builds each point's summary from that point's own
    /// stream, on one worker.
    fn to_record(&self) -> String;
}

/// Configuration of a [`StreamingSummary`].
///
/// Campaign code constructs one `StreamConfig` and hands copies to every
/// worker, so every point's summary switches regime at the same count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Exact-to-sketch switchover point (number of finite samples).
    pub threshold: usize,
    /// t-digest compression parameter δ.
    pub digest_delta: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            threshold: DEFAULT_STREAM_THRESHOLD,
            digest_delta: DEFAULT_DIGEST_DELTA,
        }
    }
}

/// Whether a [`StreamingSummary`] is still exact or has switched to
/// sketches.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// Below the threshold: every finite sample, in insertion order.
    Exact(Vec<f64>),
    /// Above the threshold: t-digest over all finite samples so far.
    Digest(TDigest),
}

/// Adaptive bounded-memory summary: exact below
/// [`StreamConfig::threshold`], sketch-backed above it.
///
/// The moment accumulator is always exact (Welford is streaming already);
/// only order statistics degrade to sketch precision after the switch.
/// [`StreamingSummary::is_exact`] discloses which regime produced the
/// numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSummary {
    threshold: usize,
    digest_delta: u32,
    moments: OnlineMoments,
    repr: Repr,
}

impl StreamingSummary {
    /// Creates an empty summary with the given configuration.
    pub fn new(config: StreamConfig) -> StatsResult<Self> {
        if config.threshold == 0 {
            return Err(StatsError::InvalidParameter {
                name: "threshold",
                value: 0.0,
            });
        }
        // Probe-construct a digest so an invalid δ fails here, at
        // configuration time, not at the promotion deep inside a worker.
        TDigest::new(config.digest_delta)?;
        Ok(Self {
            threshold: config.threshold,
            digest_delta: config.digest_delta,
            moments: OnlineMoments::new(),
            repr: Repr::Exact(Vec::new()),
        })
    }

    /// The exact-to-sketch switchover threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// `true` while every order statistic is computed from the full
    /// sample; `false` once quantiles come from the t-digest.
    pub fn is_exact(&self) -> bool {
        matches!(self.repr, Repr::Exact(_))
    }

    /// Short label of the active regime, for reports and disclosure.
    pub fn mode_label(&self) -> &'static str {
        if self.is_exact() {
            "exact"
        } else {
            "sketch"
        }
    }

    /// The exact Welford moment accumulator (never approximated).
    pub fn moments(&self) -> &OnlineMoments {
        &self.moments
    }

    /// Mean of the finite observations; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        self.moments.mean()
    }

    /// Sample standard deviation; `None` below two observations.
    pub fn std_dev(&self) -> Option<f64> {
        self.moments.std_dev()
    }

    /// Smallest finite observation; `None` when empty. Exact in both
    /// regimes (the digest tracks true extrema).
    pub fn min(&self) -> Option<f64> {
        self.moments.min()
    }

    /// Largest finite observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.moments.max()
    }

    /// The `p`-quantile: exact below the threshold, t-digest above it.
    pub fn quantile(&self, p: f64) -> StatsResult<f64> {
        match &self.repr {
            Repr::Exact(values) => {
                if values.is_empty() {
                    return Err(StatsError::EmptySample);
                }
                if !(0.0..=1.0).contains(&p) {
                    return Err(StatsError::InvalidProbability {
                        name: "p",
                        value: p,
                    });
                }
                Ok(quantile_sorted(
                    &crate::sorted_copy(values),
                    p,
                    QuantileMethod::Interpolated,
                ))
            }
            Repr::Digest(d) => d.quantile(p),
        }
    }

    /// Median; same regimes as [`StreamingSummary::quantile`].
    pub fn median(&self) -> StatsResult<f64> {
        self.quantile(0.5)
    }

    /// Min / quartiles / max. Extrema are exact in both regimes.
    pub fn five_number(&self) -> StatsResult<FiveNumberSummary> {
        Ok(FiveNumberSummary {
            min: self.min().ok_or(StatsError::EmptySample)?,
            q1: self.quantile(0.25)?,
            median: self.quantile(0.5)?,
            q3: self.quantile(0.75)?,
            max: self.max().ok_or(StatsError::EmptySample)?,
        })
    }

    /// Nonparametric `1−α` CI of the `p`-quantile.
    ///
    /// Below the threshold this is the classical Le Boudec order-statistic
    /// interval, bit-identical to [`SortedSamples::quantile_ci`]. Above it
    /// the rank bounds are still computed exactly, but the order statistics
    /// at those ranks are read from the t-digest — the interval inherits
    /// the sketch's rank error and must be disclosed as approximate
    /// (check [`StreamingSummary::is_exact`]).
    pub fn quantile_ci(&self, p: f64, confidence: f64) -> StatsResult<ConfidenceInterval> {
        match &self.repr {
            Repr::Exact(values) => {
                let sorted = SortedSamples::new(values)?;
                sorted.quantile_ci(p, confidence)
            }
            Repr::Digest(d) => {
                let n = self.moments.count() as usize;
                let ranks = quantile_ci_ranks(n, p, confidence)?;
                // Rank r (1-based) sits at empirical probability
                // (r − 0.5)/n; read the sketch's order statistics there.
                let nf = n as f64;
                Ok(ConfidenceInterval {
                    estimate: d.quantile(p)?,
                    lower: d.quantile((ranks.lower as f64 - 0.5) / nf)?,
                    upper: d.quantile((ranks.upper as f64 - 0.5) / nf)?,
                    confidence,
                })
            }
        }
    }

    /// Nonparametric `1−α` CI of the median; see
    /// [`StreamingSummary::quantile_ci`].
    pub fn median_ci(&self, confidence: f64) -> StatsResult<ConfidenceInterval> {
        self.quantile_ci(0.5, confidence)
    }

    /// Estimated resident size in bytes — the number the memory-vs-n table
    /// in EXPERIMENTS.md reports. O(n) while exact, O(δ) after the switch.
    pub fn resident_bytes(&self) -> usize {
        let repr = match &self.repr {
            Repr::Exact(v) => v.capacity() * 8,
            Repr::Digest(d) => d.resident_bytes(),
        };
        repr + std::mem::size_of::<Self>()
    }

    /// Converts the exact buffer into a t-digest by pushing its values in
    /// ascending order. The promoted digest depends on the exact values
    /// and on the push order of any `-0.0` and `+0.0` among them (the two
    /// sort equal), not on the order of the rest. Like any digest, its
    /// later bits depend on the sequence of pushes that follows.
    fn promote(&mut self) -> StatsResult<()> {
        if let Repr::Exact(values) = &self.repr {
            let mut digest = TDigest::new(self.digest_delta)?;
            for &x in &crate::sorted_copy(values) {
                digest.push(x);
            }
            self.repr = Repr::Digest(digest);
        }
        Ok(())
    }
}

impl MergeableSummary for StreamingSummary {
    fn push(&mut self, x: f64) {
        self.moments.push(x);
        if !x.is_finite() {
            return;
        }
        let over = match &mut self.repr {
            Repr::Exact(values) => {
                values.push(x);
                values.len() > self.threshold
            }
            Repr::Digest(d) => {
                d.push(x);
                false
            }
        };
        if over {
            self.promote().expect("validated at construction");
        }
    }

    fn count(&self) -> u64 {
        self.moments.count()
    }

    fn non_finite_count(&self) -> u64 {
        self.moments.non_finite_count()
    }

    fn to_record(&self) -> String {
        let repr = match &self.repr {
            Repr::Exact(values) => {
                let sorted = crate::sorted_copy(values);
                let vals: Vec<String> = sorted.iter().map(|&x| f64_to_hex(x)).collect();
                format!("exact:{}", vals.join(","))
            }
            Repr::Digest(d) => format!("digest:{}", d.to_record()),
        };
        // `grid=-` stays, byte for byte, so that records match those of
        // builds that had an optional grid sketch and wrote `-` without one.
        format!(
            "ss1|thr={}|delta={}|mom={}|grid=-|repr={}",
            self.threshold,
            self.digest_delta,
            self.moments.to_record(),
            repr
        )
    }
}

/// Bit-exact records on the exact Welford accumulator: the `mom` field
/// of a [`StreamingSummary`] record.
impl MergeableSummary for OnlineMoments {
    fn push(&mut self, x: f64) {
        OnlineMoments::push(self, x);
    }

    fn count(&self) -> u64 {
        OnlineMoments::count(self)
    }

    fn non_finite_count(&self) -> u64 {
        OnlineMoments::non_finite_count(self)
    }

    fn to_record(&self) -> String {
        moments::online_moments_to_record(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: usize) -> StreamConfig {
        StreamConfig {
            threshold,
            ..StreamConfig::default()
        }
    }

    fn filled(config: StreamConfig, xs: &[f64]) -> StreamingSummary {
        let mut s = StreamingSummary::new(config).unwrap();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Low-discrepancy heavy-tailed values (deterministic, no RNG).
    fn pareto_like(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = ((i as f64 + 0.5) * 0.618_033_988_749_894_9).fract();
                (1.0 - u).powf(-0.7)
            })
            .collect()
    }

    #[test]
    fn exact_regime_matches_sorted_samples_bitwise() {
        let xs = pareto_like(500);
        let s = filled(cfg(4096), &xs);
        assert!(s.is_exact());
        assert_eq!(s.mode_label(), "exact");
        let sorted = SortedSamples::new(&xs).unwrap();
        for p in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                s.quantile(p).unwrap().to_bits(),
                sorted
                    .quantile(p, QuantileMethod::Interpolated)
                    .unwrap()
                    .to_bits(),
                "p={p}"
            );
        }
        let ci = s.median_ci(0.95).unwrap();
        let exact_ci = sorted.median_ci(0.95).unwrap();
        assert_eq!(ci.lower.to_bits(), exact_ci.lower.to_bits());
        assert_eq!(ci.upper.to_bits(), exact_ci.upper.to_bits());
    }

    #[test]
    fn promotion_keeps_quantiles_within_rank_error() {
        let n = 40_000;
        let xs = pareto_like(n);
        let s = filled(cfg(1024), &xs);
        assert!(!s.is_exact());
        assert_eq!(s.count(), n as u64);
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let est = s.quantile(p).unwrap();
            // Rank error: where does the estimate fall in the exact ECDF?
            let rank = sorted.partition_point(|&v| v <= est) as f64 / n as f64;
            assert!(
                (rank - p).abs() <= 0.01,
                "p={p}: estimate {est} has rank {rank}"
            );
        }
        // Extrema and moments stay exact through promotion.
        assert_eq!(s.min().unwrap().to_bits(), sorted[0].to_bits());
        assert_eq!(s.max().unwrap().to_bits(), sorted[n - 1].to_bits());
        assert!(s.resident_bytes() < n * 8 / 4, "{}", s.resident_bytes());
    }

    /// An exact-regime summary with quarantined NaNs, as an earlier build
    /// recorded it.
    const EXACT_SS1: &str = "ss1|thr=4096|delta=200|mom=om1;5;3;3feccccccccccccd;\
        401ccccccccccccd;8000000000000000;4008000000000000|grid=-|repr=exact:\
        8000000000000000,0000000000000000,01bac9a7b3b7302f,3ff8000000000000,4008000000000000";

    /// A summary promoted to its digest, as an earlier build recorded it.
    const DIGEST_SS1: &str = "ss1|thr=8|delta=10|mom=om1;40;1;400bc1af459a14f7;\
        40a05abbcee12208;3ff0321c2781d70b;40479552d1bf2a0b|grid=-|repr=digest:td1;10;40;0;\
        3ff0321c2781d70b;40479552d1bf2a0b;3ff0321c2781d70b:3ff0000000000000,\
        3ff0d2b5b4374d2c:4000000000000000,3ff1e54c5bc3ae1e:4010000000000000,\
        3ff3b6160159541d:4014000000000000,3ff672661c706759:4018000000000000,\
        3ffb2475ccc660f8:4018000000000000,400189b847f64774:4014000000000000,\
        400914de8fbf1c72:4014000000000000,4014e69d4321e1f3:4008000000000000,\
        4020f56d9788e4d0:4000000000000000,40479552d1bf2a0b:3ff0000000000000";

    #[test]
    fn stream_records_are_byte_identical_to_earlier_builds() {
        let exact = filled(
            cfg(4096),
            &[
                3.0,
                -0.0,
                f64::NAN,
                1.5,
                f64::INFINITY,
                0.0,
                2.5e-300,
                f64::NAN,
            ],
        );
        assert_eq!(exact.to_record(), EXACT_SS1);
        let mut xs = pareto_like(40);
        xs.push(f64::NAN);
        let config = StreamConfig {
            threshold: 8,
            digest_delta: 10,
        };
        let digest = filled(config, &xs);
        assert!(!digest.is_exact());
        assert_eq!(digest.to_record(), DIGEST_SS1);
    }

    #[test]
    fn record_is_a_pure_function_of_the_multiset() {
        let mut fwd = StreamingSummary::new(cfg(4096)).unwrap();
        let mut rev = StreamingSummary::new(cfg(4096)).unwrap();
        let xs = [3.0, 1.0, f64::NAN, 2.0, -0.0];
        for &x in &xs {
            fwd.push(x);
        }
        for &x in xs.iter().rev() {
            rev.push(x);
        }
        assert_eq!(fwd.to_record(), rev.to_record());
        assert_eq!(fwd.non_finite_count(), 1);
    }

    #[test]
    fn invalid_configs_rejected_at_construction() {
        assert!(StreamingSummary::new(cfg(0)).is_err());
        assert!(StreamingSummary::new(StreamConfig {
            digest_delta: 3,
            ..StreamConfig::default()
        })
        .is_err());
    }
}
