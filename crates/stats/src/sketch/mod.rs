//! Mergeable streaming summaries for bounded-memory campaigns.
//!
//! The paper's Rule 6/7 reporting (nonparametric CIs, quantiles, full
//! distributions) classically needs the entire sample resident and sorted.
//! That caps campaigns far below the 10⁶–10⁸-sample sweeps the roadmap
//! targets and blocks shard-level aggregation: a child process cannot ship
//! gigabytes of raw samples to the supervisor. This module provides the
//! sketch substrate that lifts the cap:
//!
//! * [`TDigest`] — a t-digest-style quantile sketch (Dunning's merging
//!   variant, k₁ scale function). O(δ) memory, rank error that shrinks
//!   toward the tails.
//! * [`GridSketch`] — a fixed-grid histogram/ECDF sketch with explicit
//!   underflow/overflow bins. Pure `u64` counter addition, so its merge is
//!   *bit-associative and commutative* — any merge tree over the same
//!   shards yields identical bits.
//! * [`crate::summary::OnlineMoments`] / [`crate::summary::HigherMoments`]
//!   — pairwise-mergeable Welford/Pébay moment accumulators (exact, not
//!   approximate).
//! * [`StreamingSummary`] — the adaptive front end: keeps an **exact**
//!   buffer below [`DEFAULT_STREAM_THRESHOLD`] samples (small campaigns
//!   lose nothing) and promotes to sketches above it.
//! * [`KeyedPartials`] — per-design-point partials keyed by design index.
//!   Floating-point sketch merges are *not* bit-associative, so
//!   thread/shard-count independence is achieved structurally: workers
//!   never co-mingle samples from different design points; the cross-shard
//!   merge is a disjoint key union (trivially order-independent) and
//!   [`KeyedPartials::finalize`] folds in ascending key order — a canonical
//!   reduction whose bits cannot depend on which worker ran which point.
//!
//! Everything implements [`MergeableSummary`], whose `to_record` /
//! `from_record` round-trip is **bit-exact** (IEEE-754 bit patterns in
//! hex, NaN-safe): records survive the crash-consistent journal and shard
//! result frames unchanged, which is what the determinism proptests
//! assert.
//!
//! # Disclosure (Rules 4, 6, 7)
//!
//! Sketch-mode quantiles carry rank error bounded by the t-digest
//! compression parameter (empirically ≲ 1/δ interior, tighter in the
//! tails); means/variances remain exact because the Welford accumulator is
//! not an approximation. Reports produced from sketches must say so — the
//! streaming campaign runner records the summary mode alongside the
//! estimates so the error source is disclosed, not silently absorbed.

mod grid;
mod moments;
mod partials;
mod tdigest;

pub use grid::{GridSketch, GridSpec};
pub use partials::KeyedPartials;
pub use tdigest::TDigest;

use crate::ci::{quantile_ci_ranks, ConfidenceInterval};
use crate::error::{StatsError, StatsResult};
use crate::quantile::{quantile_sorted, FiveNumberSummary, QuantileMethod};
use crate::sorted::SortedSamples;
use crate::summary::OnlineMoments;
use crate::{f64_from_hex, f64_to_hex};

/// Number of samples below which [`StreamingSummary`] stays exact.
///
/// 4096 f64s is 32 KiB — trivially resident — while the switch keeps the
/// worst-case footprint O(δ) no matter how many samples follow. Campaigns
/// that never cross the threshold report *exactly* what the classical
/// `SortedSamples` path reports.
pub const DEFAULT_STREAM_THRESHOLD: usize = 4096;

/// Default t-digest compression parameter δ (number of k-units).
pub const DEFAULT_DIGEST_DELTA: u32 = 200;

/// Everything a streaming summary can be queried for, and how partials
/// combine. Implemented by the moment accumulators, both sketches, and
/// the adaptive [`StreamingSummary`] front end.
pub trait MergeableSummary: Sized {
    /// Feeds one observation. Non-finite values are quarantined in
    /// [`MergeableSummary::non_finite_count`], never folded into the
    /// statistics (the same contract `OnlineMoments::push` now has).
    fn push(&mut self, x: f64);

    /// Merges another partial into this one. Errors with
    /// [`StatsError::MismatchedSketch`] when the two partials were built
    /// with incompatible configurations (different grid, δ or threshold),
    /// or when a summed count would pass 2⁵³; a refused merge leaves
    /// `self` unchanged.
    fn merge_from(&mut self, other: &Self) -> StatsResult<()>;

    /// Number of finite observations absorbed so far.
    fn count(&self) -> u64;

    /// Number of quarantined non-finite observations.
    fn non_finite_count(&self) -> u64;

    /// Canonical, bit-exact, single-line text record of the summary.
    ///
    /// The encoding uses IEEE-754 bit patterns for every float, so NaN
    /// payloads and signed zeros survive. The record is a pure function of
    /// the sequence of pushes and merges that built the summary: the same
    /// sequence gives the same bits on any thread or shard, which is what
    /// campaigns rely on. The same *multiset* in another order can give
    /// other bits (the Welford sums round differently, a digest's centroids
    /// depend on which samples share a flush, and `-0.0`/`+0.0` keep their
    /// order), so campaigns fix the order instead (see
    /// [`KeyedPartials`]).
    fn to_record(&self) -> String;

    /// Decodes a record produced by [`MergeableSummary::to_record`].
    /// Refuses a count above 2⁵³ with [`StatsError::MalformedSketch`].
    fn from_record(record: &str) -> StatsResult<Self>;
}

pub(crate) fn parse_u64(s: &str) -> StatsResult<u64> {
    s.parse()
        .map_err(|_| StatsError::MalformedSketch("integer field"))
}

/// The largest count a record may carry and a merge may make: 2⁵³, the
/// largest integer an `f64` holds exactly (the moment updates divide by
/// `n as f64`). A summary at the bound is 2⁶⁴ − 2⁵³ pushes away from
/// overflowing a `u64` count.
pub(crate) const MAX_COUNT: u64 = 1 << 53;

/// Parses a count field of a record, refusing one above [`MAX_COUNT`].
pub(crate) fn parse_count(s: &str) -> StatsResult<u64> {
    let n = parse_u64(s)?;
    if n > MAX_COUNT {
        return Err(StatsError::MalformedSketch("count above 2^53"));
    }
    Ok(n)
}

/// Refuses a merge whose summed count would pass [`MAX_COUNT`].
pub(crate) fn check_merged_count(a: u64, b: u64) -> StatsResult<()> {
    match a.checked_add(b) {
        Some(n) if n <= MAX_COUNT => Ok(()),
        _ => Err(StatsError::MismatchedSketch("merged count above 2^53")),
    }
}

/// [`check_merged_count`] on both counts of two summaries: the finite
/// and the quarantined observations.
pub(crate) fn check_merge_counts<S: MergeableSummary>(a: &S, b: &S) -> StatsResult<()> {
    check_merged_count(a.count(), b.count())?;
    check_merged_count(a.non_finite_count(), b.non_finite_count())
}

pub(crate) fn parse_usize(s: &str) -> StatsResult<usize> {
    s.parse()
        .map_err(|_| StatsError::MalformedSketch("integer field"))
}

/// Configuration of a [`StreamingSummary`].
///
/// Two summaries merge only if their configurations are **bit-identical**
/// — campaign code constructs one `StreamConfig` and hands copies to every
/// worker, which is also what makes the merged result independent of the
/// thread/shard layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Exact-to-sketch switchover point (number of finite samples).
    pub threshold: usize,
    /// t-digest compression parameter δ.
    pub digest_delta: u32,
    /// Optional shared ECDF grid. `None` keeps digest + moments only.
    pub grid: Option<GridSpec>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            threshold: DEFAULT_STREAM_THRESHOLD,
            digest_delta: DEFAULT_DIGEST_DELTA,
            grid: None,
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

impl Repr {
    /// The finite and quarantined counts of the order statistics. A
    /// promotion keeps them, so a merge adds them whatever the regimes.
    fn counts(&self) -> (u64, u64) {
        match self {
            Repr::Exact(values) => (values.len() as u64, 0),
            Repr::Digest(d) => (d.count(), d.non_finite_count()),
        }
    }
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
    grid: Option<GridSketch>,
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
        let grid = config.grid.map(GridSketch::new).transpose()?;
        Ok(Self {
            threshold: config.threshold,
            digest_delta: config.digest_delta,
            moments: OnlineMoments::new(),
            repr: Repr::Exact(Vec::new()),
            grid,
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

    /// The shared-grid ECDF sketch, when configured.
    pub fn grid(&self) -> Option<&GridSketch> {
        self.grid.as_ref()
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
    /// in EXPERIMENTS.md reports. O(n) while exact, O(δ + grid bins) after
    /// the switch.
    pub fn resident_bytes(&self) -> usize {
        let repr = match &self.repr {
            Repr::Exact(v) => v.capacity() * 8,
            Repr::Digest(d) => d.resident_bytes(),
        };
        let grid = self.grid.as_ref().map(|g| g.resident_bytes()).unwrap_or(0);
        repr + grid + std::mem::size_of::<Self>()
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
        if let Some(g) = &mut self.grid {
            g.push(x);
        }
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

    fn merge_from(&mut self, other: &Self) -> StatsResult<()> {
        // Every part is checked before any changes, so a refused merge
        // leaves `self` as it was.
        if self.threshold != other.threshold {
            return Err(StatsError::MismatchedSketch("stream threshold differs"));
        }
        if self.digest_delta != other.digest_delta {
            return Err(StatsError::MismatchedSketch("digest delta differs"));
        }
        match (&self.grid, &other.grid) {
            (None, None) => {}
            (Some(g), Some(og)) => g.check_merge(og)?,
            _ => return Err(StatsError::MismatchedSketch("grid presence differs")),
        }
        check_merge_counts(&self.moments, &other.moments)?;
        for repr in [&self.repr, &other.repr] {
            if matches!(repr, Repr::Digest(d) if d.delta() != self.digest_delta) {
                return Err(StatsError::MismatchedSketch("digest delta differs"));
            }
        }
        let ((n, non_finite), (other_n, other_non_finite)) =
            (self.repr.counts(), other.repr.counts());
        check_merged_count(n, other_n)?;
        check_merged_count(non_finite, other_non_finite)?;

        if let (Some(g), Some(og)) = (&mut self.grid, &other.grid) {
            g.merge_from(og)?;
        }
        self.moments.merge(&other.moments);
        match (&mut self.repr, &other.repr) {
            (Repr::Exact(a), Repr::Exact(b)) => {
                a.extend_from_slice(b);
                if a.len() > self.threshold {
                    self.promote()?;
                }
            }
            (Repr::Exact(_), Repr::Digest(od)) => {
                self.promote()?;
                if let Repr::Digest(d) = &mut self.repr {
                    d.merge_from(od)?;
                }
            }
            (Repr::Digest(d), Repr::Exact(b)) => {
                d.merge_sorted_values(&crate::sorted_copy(b));
            }
            (Repr::Digest(d), Repr::Digest(od)) => d.merge_from(od)?,
        }
        Ok(())
    }

    fn count(&self) -> u64 {
        self.moments.count()
    }

    fn non_finite_count(&self) -> u64 {
        self.moments.non_finite_count()
    }

    fn to_record(&self) -> String {
        let grid = match &self.grid {
            Some(g) => g.to_record(),
            None => "-".to_string(),
        };
        let repr = match &self.repr {
            Repr::Exact(values) => {
                let sorted = crate::sorted_copy(values);
                let vals: Vec<String> = sorted.iter().map(|&x| f64_to_hex(x)).collect();
                format!("exact:{}", vals.join(","))
            }
            Repr::Digest(d) => format!("digest:{}", d.to_record()),
        };
        format!(
            "ss1|thr={}|delta={}|mom={}|grid={}|repr={}",
            self.threshold,
            self.digest_delta,
            self.moments.to_record(),
            grid,
            repr
        )
    }

    fn from_record(record: &str) -> StatsResult<Self> {
        let mut parts = record.split('|');
        if parts.next() != Some("ss1") {
            return Err(StatsError::MalformedSketch("expected ss1 tag"));
        }
        let mut threshold = None;
        let mut delta = None;
        let mut moments = None;
        let mut grid = None;
        let mut repr = None;
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or(StatsError::MalformedSketch("missing '=' in ss1 field"))?;
            match key {
                "thr" => threshold = Some(parse_usize(value)?),
                "delta" => {
                    delta = Some(
                        u32::try_from(parse_u64(value)?)
                            .map_err(|_| StatsError::MalformedSketch("delta out of range"))?,
                    )
                }
                "mom" => moments = Some(OnlineMoments::from_record(value)?),
                "grid" => {
                    grid = Some(if value == "-" {
                        None
                    } else {
                        Some(GridSketch::from_record(value)?)
                    })
                }
                "repr" => {
                    let (kind, body) = value
                        .split_once(':')
                        .ok_or(StatsError::MalformedSketch("missing repr kind"))?;
                    repr = Some(match kind {
                        "exact" => {
                            let mut values = Vec::new();
                            if !body.is_empty() {
                                for v in body.split(',') {
                                    let x = f64_from_hex(v)?;
                                    // Pushes keep only finite values, and
                                    // the exact regime sorts them.
                                    if !x.is_finite() {
                                        return Err(StatsError::MalformedSketch(
                                            "non-finite exact value",
                                        ));
                                    }
                                    values.push(x);
                                }
                            }
                            Repr::Exact(values)
                        }
                        "digest" => Repr::Digest(TDigest::from_record(body)?),
                        _ => return Err(StatsError::MalformedSketch("unknown repr kind")),
                    });
                }
                _ => return Err(StatsError::MalformedSketch("unknown ss1 field")),
            }
        }
        let threshold = threshold.ok_or(StatsError::MalformedSketch("missing thr"))?;
        let digest_delta = delta.ok_or(StatsError::MalformedSketch("missing delta"))?;
        if threshold == 0 {
            return Err(StatsError::MalformedSketch("zero threshold"));
        }
        // A push past the threshold promotes with this δ, as in `new`.
        TDigest::new(digest_delta)
            .map_err(|_| StatsError::MalformedSketch("delta out of range"))?;
        Ok(Self {
            threshold,
            digest_delta,
            moments: moments.ok_or(StatsError::MalformedSketch("missing mom"))?,
            repr: repr.ok_or(StatsError::MalformedSketch("missing repr"))?,
            grid: grid.ok_or(StatsError::MalformedSketch("missing grid"))?,
        })
    }
}

/// Bit-exact records on the exact Welford accumulator, so it can ride
/// through journals and shard frames like the sketches do.
impl MergeableSummary for OnlineMoments {
    fn push(&mut self, x: f64) {
        OnlineMoments::push(self, x);
    }

    fn merge_from(&mut self, other: &Self) -> StatsResult<()> {
        check_merge_counts(self, other)?;
        self.merge(other);
        Ok(())
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

    fn from_record(record: &str) -> StatsResult<Self> {
        moments::online_moments_from_record(record)
    }
}

impl MergeableSummary for crate::summary::HigherMoments {
    fn push(&mut self, x: f64) {
        crate::summary::HigherMoments::push(self, x);
    }

    fn merge_from(&mut self, other: &Self) -> StatsResult<()> {
        check_merge_counts(self, other)?;
        self.merge(other);
        Ok(())
    }

    fn count(&self) -> u64 {
        crate::summary::HigherMoments::count(self)
    }

    fn non_finite_count(&self) -> u64 {
        crate::summary::HigherMoments::non_finite_count(self)
    }

    fn to_record(&self) -> String {
        moments::higher_moments_to_record(self)
    }

    fn from_record(record: &str) -> StatsResult<Self> {
        moments::higher_moments_from_record(record)
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

    #[test]
    fn merge_combinations_agree_on_the_multiset() {
        let xs = pareto_like(6_000);
        let single = filled(cfg(1000), &xs);
        // exact+exact (stays exact), exact+exact (promotes),
        // digest+exact, exact+digest, digest+digest.
        let splits = [(300, "ee"), (2_000, "de"), (5_500, "ed")];
        for (cut, label) in splits {
            let mut a = filled(cfg(1000), &xs[..cut]);
            let b = filled(cfg(1000), &xs[cut..]);
            a.merge_from(&b).unwrap();
            assert_eq!(a.count(), single.count(), "{label}");
            // A pairwise merge is deterministic but not bit-identical to
            // the sequential fold (that is the whole reason KeyedPartials
            // canonicalizes the merge order); it is however the same to
            // floating-point accuracy.
            let (am, sm) = (a.mean().unwrap(), single.mean().unwrap());
            assert!((am - sm).abs() / sm < 1e-12, "{label}: {am} vs {sm}");
            // Repeating the identical merge is bit-reproducible.
            let mut a2 = filled(cfg(1000), &xs[..cut]);
            a2.merge_from(&b).unwrap();
            assert_eq!(a2.to_record(), a.to_record(), "{label}");
            let med = a.median().unwrap();
            let exact = single.median().unwrap();
            assert!(
                (med - exact).abs() / exact < 0.05,
                "{label}: {med} vs {exact}"
            );
        }
    }

    #[test]
    fn grid_config_round_trips_and_gates_merges() {
        let spec = GridSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 64,
        };
        let config = StreamConfig {
            grid: Some(spec),
            ..StreamConfig::default()
        };
        let s = filled(config, &[1.0, 2.5, 11.0, f64::NAN]);
        assert_eq!(s.grid().unwrap().overflow(), 1);
        let back = StreamingSummary::from_record(&s.to_record()).unwrap();
        assert_eq!(back.to_record(), s.to_record());
        let mut plain = filled(cfg(4096), &[1.0]);
        assert!(matches!(
            plain.merge_from(&s),
            Err(StatsError::MismatchedSketch(_))
        ));
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
        let back = StreamingSummary::from_record(&fwd.to_record()).unwrap();
        assert_eq!(back.to_record(), fwd.to_record());
        assert!(StreamingSummary::from_record("ss1|thr=0").is_err());
        assert!(StreamingSummary::from_record("nope").is_err());
    }

    #[test]
    fn invalid_configs_rejected_at_construction() {
        assert!(StreamingSummary::new(cfg(0)).is_err());
        assert!(StreamingSummary::new(StreamConfig {
            digest_delta: 3,
            ..StreamConfig::default()
        })
        .is_err());
        assert!(StreamingSummary::new(StreamConfig {
            grid: Some(GridSpec {
                lo: 1.0,
                hi: 1.0,
                bins: 4
            }),
            ..StreamConfig::default()
        })
        .is_err());
    }

    /// Parses `record` as a `T`. An accepted record must re-encode to a
    /// record that parses back to the same string; returns whether it was
    /// accepted.
    fn round_trips<T: MergeableSummary>(record: &str) -> bool {
        let Ok(parsed) = T::from_record(record) else {
            return false;
        };
        let once = parsed.to_record();
        let again = T::from_record(&once).unwrap_or_else(|e| panic!("{once}: {e}"));
        assert_eq!(again.to_record(), once, "from {record}");
        // Merged with itself, it doubles its counts or is refused and
        // stays as it was.
        let mut doubled = again;
        match doubled.merge_from(&parsed) {
            Ok(()) => assert_eq!(
                (doubled.count(), doubled.non_finite_count()),
                (2 * parsed.count(), 2 * parsed.non_finite_count()),
                "from {record}"
            ),
            Err(_) => assert_eq!(doubled.to_record(), once, "from {record}"),
        }
        true
    }

    /// Truncates `record` at every byte and substitutes `subs` random
    /// characters at every position.
    fn fuzz_record<T: MergeableSummary>(record: &str, rng: &mut rand::rngs::StdRng, subs: usize) {
        use rand::Rng;
        const ALPHABET: &[u8] = b"0123456789abcdefF;:,|=-+x ";
        assert!(round_trips::<T>(record), "{record}");
        for i in 0..record.len() {
            round_trips::<T>(&record[..i]);
            let mut bytes = record.as_bytes().to_vec();
            for _ in 0..subs {
                bytes[i] = ALPHABET[rng.gen_range(0..ALPHABET.len())];
                round_trips::<T>(std::str::from_utf8(&bytes).unwrap());
            }
        }
    }

    /// A random td1 record: every field drawn from values that parse,
    /// values that do not and values at the edges of their range.
    fn random_td1(rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng;
        let mut pick = |options: &[&str]| options[rng.gen_range(0..options.len())].to_string();
        let delta = pick(&[
            "10",
            "200",
            "10000",
            "9",
            "4294967496",
            "18446744073709551615",
            "-1",
        ]);
        let count = pick(&[
            "0",
            "1",
            "7",
            "4503599627370496",
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
            "x",
        ]);
        let hex = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..4) {
            0 => format!("{:016x}", rng.gen::<u64>()),
            1 => f64_to_hex(rng.gen_range(-1e3..1e3)),
            2 => f64_to_hex([0.0, -0.0, 1.0, f64::NAN, f64::INFINITY][rng.gen_range(0..5usize)]),
            _ => format!("{:x}", rng.gen::<u32>()),
        };
        let centroids: Vec<String> = (0..rng.gen_range(0..6))
            .map(|_| format!("{}:{}", hex(rng), hex(rng)))
            .collect();
        format!(
            "td1;{delta};{count};{count};{};{};{}",
            hex(rng),
            hex(rng),
            centroids.join(",")
        )
    }

    #[test]
    fn sketch_records_fuzz_to_typed_errors_and_stable_round_trips() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5ca1_ab1e);
        let mut xs: Vec<f64> = pareto_like(300).iter().map(|x| x - 2.0).collect();
        xs.extend([-0.0, 0.0, f64::NAN, f64::INFINITY]);
        let small = StreamConfig {
            threshold: 64,
            digest_delta: 10,
            grid: Some(GridSpec {
                lo: -1.0,
                hi: 4.0,
                bins: 6,
            }),
        };
        let summaries = [
            filled(cfg(4096), &[]),
            filled(cfg(4096), &xs[295..]),
            filled(small, &xs),
        ];
        let mut digest = TDigest::new(10).unwrap();
        for &x in &xs {
            digest.push(x);
        }
        fuzz_record::<TDigest>(&TDigest::new(10).unwrap().to_record(), &mut rng, 4);
        fuzz_record::<TDigest>(&digest.to_record(), &mut rng, 4);
        for s in &summaries {
            fuzz_record::<StreamingSummary>(&s.to_record(), &mut rng, 2);
        }
        let (mut digests, mut streams) = (0, 0);
        for _ in 0..2_000 {
            let td = random_td1(&mut rng);
            if round_trips::<TDigest>(&td) {
                digests += 1;
                // Every accepted digest has centroids the compress can
                // order, however the record listed them.
                let mut d = TDigest::from_record(&td).unwrap();
                d.merge_from(&TDigest::new(d.delta()).unwrap()).unwrap();
                let _ = d.quantile(0.5);
            }
            let exact: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| f64_to_hex([1.5, -0.0, f64::NAN, 1e300][rng.gen_range(0..4usize)]))
                .collect();
            let repr = if rng.gen::<bool>() {
                format!("exact:{}", exact.join(","))
            } else {
                format!("digest:{td}")
            };
            let delta = ["200", "10", "5", "4294967496"][rng.gen_range(0..4usize)];
            let mom = [
                "0",
                "4503599627370496",
                "9007199254740992",
                "9007199254740993",
            ];
            let ss = format!(
                "ss1|thr={}|delta={delta}|mom={}|grid=-|repr={repr}",
                rng.gen_range(0..3),
                OnlineMoments::new().to_record().replacen(
                    ";0;",
                    &format!(";{};", mom[rng.gen_range(0..4usize)]),
                    1
                )
            );
            streams += usize::from(round_trips::<StreamingSummary>(&ss));
        }
        assert!(
            digests > 50 && streams > 50,
            "{digests} digests, {streams} streams accepted"
        );
        // Every grid record that loads reads quantiles on its grid.
        fuzz_record::<GridSketch>(&summaries[2].grid().unwrap().to_record(), &mut rng, 2);
        let mut grids = 0;
        for record in (0..500)
            .map(|_| random_gs1(&mut rng))
            .chain(GRIDS_NEW_REFUSES.map(String::from))
        {
            let Ok(grid) = GridSketch::from_record(&record) else {
                continue;
            };
            assert!(round_trips::<GridSketch>(&record), "{record}");
            grids += 1;
            for p in [0.0, 0.5, 1.0] {
                if let Ok(q) = grid.quantile(p) {
                    assert!(q.is_finite() && q >= grid.lo(), "{record}: q({p}) = {q}");
                }
            }
        }
        assert!(grids > 50, "{grids} grids accepted");
    }

    #[test]
    fn stream_records_reject_what_a_push_would_trip_on() {
        let good = filled(cfg(4096), &[1.5, 2.5]).to_record();
        assert!(StreamingSummary::from_record(&good).is_ok());
        for bad in [
            // δ = 200 + 2³², which `as u32` used to wrap to 200.
            good.replace("|delta=200|", "|delta=4294967496|"),
            // A δ no digest accepts: the promotion used to panic.
            good.replace("|delta=200|", "|delta=5|"),
            // A NaN exact value: sorting it used to panic.
            good.replace("3ff8000000000000", "7ff8000000000000"),
        ] {
            assert!(
                matches!(
                    StreamingSummary::from_record(&bad),
                    Err(StatsError::MalformedSketch(_))
                ),
                "{bad}"
            );
        }
    }

    /// Record builders for a state pushes could reach: `n` samples equal
    /// to 1.0 and `non_finite` quarantined ones.
    fn om1(n: u64, non_finite: u64) -> String {
        format!(
            "om1;{n};{non_finite};3ff0000000000000;0000000000000000;\
             3ff0000000000000;3ff0000000000000"
        )
    }

    fn hm1(n: u64, non_finite: u64) -> String {
        format!(
            "hm1;{n};{non_finite};3ff0000000000000;0000000000000000;0000000000000000;\
             0000000000000000;3ff0000000000000;3ff0000000000000;0000000000000000;{};1",
            f64_to_hex(n as f64)
        )
    }

    /// Two unit bins from 0.0; every sample sits in the second.
    fn gs1(n: u64, non_finite: u64) -> String {
        format!("gs1;0000000000000000;3ff0000000000000;{n};{non_finite};0;0;0,{n}")
    }

    const UNIT_GRID: GridSpec = GridSpec {
        lo: 0.0,
        hi: 2.0,
        bins: 2,
    };

    fn td1(n: u64, non_finite: u64) -> String {
        let centroid = if n == 0 {
            String::new()
        } else {
            format!("3ff0000000000000:{}", f64_to_hex(n as f64))
        };
        format!("td1;100;{n};{non_finite};3ff0000000000000;3ff0000000000000;{centroid}")
    }

    /// Its digest holds only the finite samples, as a push leaves it.
    fn ss1(mom: (u64, u64), grid: (u64, u64), digest: u64) -> String {
        format!(
            "ss1|thr=4096|delta=100|mom={}|grid={}|repr=digest:{}",
            om1(mom.0, mom.1),
            gs1(grid.0, grid.1),
            td1(digest, 0)
        )
    }

    fn stream_config() -> StreamConfig {
        StreamConfig {
            threshold: 4096,
            digest_delta: 100,
            grid: Some(UNIT_GRID),
        }
    }

    /// Loads up to 2⁵³ in either count and refuses more; pushes once past
    /// it; merges up to it, and refuses a merge past it from either side
    /// without changing either summary.
    fn holds_counts_to_2_pow_53<T: MergeableSummary>(
        record: impl Fn(u64, u64) -> String,
        fresh: impl Fn() -> T,
    ) {
        let load = |(n, non_finite): (u64, u64)| T::from_record(&record(n, non_finite));
        let counts = |s: &T| (s.count(), s.non_finite_count());
        for at in [(MAX_COUNT, 0), (0, MAX_COUNT)] {
            assert_eq!(counts(&load(at).unwrap()), at, "{}", record(at.0, at.1));
        }
        for past in [(MAX_COUNT + 1, 0), (0, MAX_COUNT + 1), (u64::MAX, 0)] {
            assert!(
                matches!(load(past), Err(StatsError::MalformedSketch(_))),
                "{}",
                record(past.0, past.1)
            );
        }
        let mut pushed = load((MAX_COUNT, MAX_COUNT)).unwrap();
        pushed.push(1.0);
        pushed.push(f64::NAN);
        assert_eq!(counts(&pushed), (MAX_COUNT + 1, MAX_COUNT + 1));

        let one = |x: f64| {
            let mut s = fresh();
            s.push(x);
            s
        };
        for (x, below, at) in [
            (1.0, (MAX_COUNT - 1, 0), (MAX_COUNT, 0)),
            (f64::NAN, (0, MAX_COUNT - 1), (0, MAX_COUNT)),
        ] {
            let mut merged = load(below).unwrap();
            merged.merge_from(&one(x)).unwrap();
            assert_eq!(counts(&merged), at);
            let (mut full, mut single) = (load(at).unwrap(), one(x));
            let (full_before, single_before) = (full.to_record(), single.to_record());
            assert!(matches!(
                full.merge_from(&one(x)),
                Err(StatsError::MismatchedSketch(_))
            ));
            assert!(matches!(
                single.merge_from(&load(at).unwrap()),
                Err(StatsError::MismatchedSketch(_))
            ));
            assert_eq!(full.to_record(), full_before);
            assert_eq!(single.to_record(), single_before);
        }
    }

    #[test]
    fn sketch_counts_load_push_and_merge_up_to_2_pow_53() {
        holds_counts_to_2_pow_53(om1, OnlineMoments::new);
        holds_counts_to_2_pow_53(hm1, crate::summary::HigherMoments::new);
        holds_counts_to_2_pow_53(gs1, || GridSketch::new(UNIT_GRID).unwrap());
        holds_counts_to_2_pow_53(td1, || TDigest::new(100).unwrap());
        holds_counts_to_2_pow_53(
            |n, non_finite| ss1((n, non_finite), (n, non_finite), n),
            || StreamingSummary::new(stream_config()).unwrap(),
        );
        // The record that used to load and then overflow the next merge
        // (a panic in debug builds, a wrapped count in release builds).
        assert!(matches!(
            OnlineMoments::from_record(&om1(u64::MAX, 0)),
            Err(StatsError::MalformedSketch(_))
        ));
    }

    #[test]
    fn sketch_stream_merge_checks_every_part_before_changing_any() {
        let mut one = StreamingSummary::new(stream_config()).unwrap();
        one.push(1.0);
        // Only one part of each summary is at the bound, and each merge
        // would change the parts before it in the old order.
        for record in [
            ss1((1, 0), (1, 0), MAX_COUNT),
            ss1((1, 0), (MAX_COUNT, 0), 1),
            ss1((MAX_COUNT, 0), (1, 0), 1),
            ss1((1, 0), (1, 0), 1).replace("td1;100;", "td1;200;"),
        ] {
            let mut full = StreamingSummary::from_record(&record).unwrap();
            assert!(full.merge_from(&one).is_err(), "{record}");
            assert_eq!(full.to_record(), record, "{record}");
            let mut single = one.clone();
            assert!(single.merge_from(&full).is_err(), "{record}");
            assert_eq!(single, one, "{record}");
        }
    }

    #[test]
    fn sketch_keyed_partials_keep_their_total_counts_within_2_pow_53() {
        type Set = KeyedPartials<OnlineMoments>;
        let kp1 = |parts: &[(u64, u64)]| {
            parts
                .iter()
                .enumerate()
                .fold("kp1".to_string(), |r, (key, p)| {
                    format!("{r}#{key}={}", om1(p.0, p.1))
                })
        };
        let half = MAX_COUNT / 2;
        // 2,048 parts at 2⁵³ used to load and overflow `count()` (a panic
        // in debug builds, a wrapped total in release builds).
        for past in [
            vec![(MAX_COUNT, 0); 2048],
            vec![(half, 0), (half, 0), (1, 0)],
            vec![(0, half), (0, half), (0, 1)],
        ] {
            assert!(
                matches!(
                    Set::from_record(&kp1(&past)),
                    Err(StatsError::MalformedSketch(_))
                ),
                "{past:?}"
            );
        }
        let one = |x: f64| {
            let mut s = OnlineMoments::new();
            s.push(x);
            s
        };
        for (x, at) in [
            (1.0, [(half, 0), (half, 0)]),
            (f64::NAN, [(0, half), (0, half)]),
        ] {
            let mut full = Set::from_record(&kp1(&at)).unwrap();
            let counts = |s: &Set| (s.count(), s.non_finite_count());
            assert_eq!(counts(&full), (2 * at[0].0, 2 * at[0].1));
            let before = full.clone();
            // A new key and an existing key, whose part alone could merge.
            for key in [7, 0] {
                assert!(matches!(
                    full.insert(key, one(x)),
                    Err(StatsError::MismatchedSketch(_))
                ));
                assert_eq!(full, before);
            }
            let mut single = Set::new();
            single.insert(0, one(x)).unwrap();
            let single_before = single.clone();
            assert!(matches!(
                full.merge_from(&single),
                Err(StatsError::MismatchedSketch(_))
            ));
            assert!(matches!(
                single.merge_from(&full),
                Err(StatsError::MismatchedSketch(_))
            ));
            assert_eq!((full, single), (before, single_before));
        }
    }

    /// One sample in one bin, over geometry [`GridSketch::new`] refuses: a
    /// NaN `lo`, then `lo` = 1 with a bin width of 0, −1 and NaN.
    const GRIDS_NEW_REFUSES: [&str; 4] = [
        "gs1;7ff8000000000000;3ff0000000000000;1;0;0;0;1",
        "gs1;3ff0000000000000;0000000000000000;1;0;0;0;1",
        "gs1;3ff0000000000000;bff0000000000000;1;0;0;0;1",
        "gs1;3ff0000000000000;7ff8000000000000;1;0;0;0;1",
    ];

    #[test]
    fn sketch_grid_records_with_geometry_new_refuses_are_refused() {
        for bad in GRIDS_NEW_REFUSES {
            assert!(
                matches!(
                    GridSketch::from_record(bad),
                    Err(StatsError::MalformedSketch(_))
                ),
                "{bad}"
            );
        }
        let good = "gs1;3ff0000000000000;3ff0000000000000;1;0;0;0;1";
        assert_eq!(
            GridSketch::from_record(good).unwrap().quantile(0.5),
            Ok(1.5)
        );
    }

    /// A random gs1 record: a geometry drawn from values that make a grid
    /// and values that do not, over bins whose counts add up.
    fn random_gs1(rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng;
        let lo = [0.0, -1.5, 1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let width = [1.0, 0.25, 0.0, -0.0, -1.0, f64::NAN, f64::INFINITY];
        let bins: Vec<u64> = (0..rng.gen_range(1..4))
            .map(|_| rng.gen_range(0..3))
            .collect();
        let (under, over) = (rng.gen_range(0..2u64), rng.gen_range(0..2u64));
        let n = under + over + bins.iter().sum::<u64>();
        let bins: Vec<String> = bins.iter().map(u64::to_string).collect();
        format!(
            "gs1;{};{};{n};0;{under};{over};{}",
            f64_to_hex(lo[rng.gen_range(0..lo.len())]),
            f64_to_hex(width[rng.gen_range(0..width.len())]),
            bins.join(",")
        )
    }

    #[test]
    fn sketch_grid_records_whose_bins_do_not_add_up_are_refused() {
        assert!(GridSketch::from_record(&gs1(3, 0)).is_ok());
        for bad in [
            "gs1;0000000000000000;3ff0000000000000;3;0;0;0;0,2",
            "gs1;0000000000000000;3ff0000000000000;3;0;1;1;0,2",
            // Bins that would overflow a u64 sum.
            &format!("gs1;0000000000000000;3ff0000000000000;0;0;0;0;{}", {
                vec![MAX_COUNT.to_string(); 2049].join(",")
            }),
        ] {
            assert!(
                matches!(
                    GridSketch::from_record(bad),
                    Err(StatsError::MalformedSketch(_))
                ),
                "{bad}"
            );
        }
    }
}
