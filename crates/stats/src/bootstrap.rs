//! Percentile bootstrap confidence intervals.
//!
//! The paper (§7) places the bootstrap "beyond the scope of our work" but
//! the library uses it where no analytic CI exists — e.g. the difference of
//! quantiles in quantile regression, or the CI of a coefficient of
//! variation. Resampling is fully deterministic given the seed.
//!
//! # Execution model
//!
//! Replicates are organised in **chunks**: each chunk reuses one resample
//! buffer (no per-replicate allocation), computes its statistics, sorts
//! them locally, and the final distribution is produced by merging the
//! pre-sorted chunk runs instead of one giant sort. Chunks may execute on
//! several threads.
//!
//! # Determinism contract
//!
//! The RNG stream of replicate `r` is derived *only* from `(seed, r)` via
//! [`mix_seed`], never from thread or chunk identity, and chunk runs are
//! merged in fixed index order. The resulting interval is therefore
//! **bit-identical** for any thread count and any chunk size — verified by
//! proptests in `tests/proptests.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ci::ConfidenceInterval;
use crate::dist::normal::std_normal_inv_cdf;
use crate::error::{StatsError, StatsResult};
use crate::quantile::{quantile_sorted, QuantileMethod};
use crate::sort::sorted_finite;
use crate::sorted::{merge_sorted_runs, SortedSamples};
use crate::validate_samples;

/// Mixes a base seed with a replicate index into an independent RNG seed
/// (splitmix64-style finalizer). Used for all per-replicate streams so
/// that replicate `r` draws the same values no matter which thread or
/// chunk executes it.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Execution parameters of the chunked bootstrap engine.
///
/// Only `reps` and `seed` affect the *result*; `chunk_size` and `threads`
/// are pure execution knobs (see the module-level determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapConfig {
    /// Number of bootstrap replicates (must be ≥ 10).
    pub reps: usize,
    /// Base seed of the per-replicate RNG streams.
    pub seed: u64,
    /// Replicates per chunk (buffer-reuse granularity); 0 means default.
    pub chunk_size: usize,
    /// Worker threads; 0 means one per available CPU.
    pub threads: usize,
}

impl BootstrapConfig {
    /// Default chunk size: large enough to amortise thread hand-off,
    /// small enough to load-balance across workers.
    pub const DEFAULT_CHUNK_SIZE: usize = 256;

    /// A sequential configuration with the default chunk size.
    pub fn new(reps: usize, seed: u64) -> Self {
        Self {
            reps,
            seed,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
            threads: 1,
        }
    }

    /// Sets the chunk size (0 restores the default).
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Sets the thread count (0 = one per available CPU).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn effective_chunk_size(&self) -> usize {
        if self.chunk_size == 0 {
            Self::DEFAULT_CHUNK_SIZE
        } else {
            self.chunk_size
        }
    }

    fn effective_threads(&self, n_chunks: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        requested.clamp(1, n_chunks.max(1))
    }

    fn validate(&self) -> StatsResult<()> {
        if self.reps < 10 {
            return Err(StatsError::InvalidParameter {
                name: "reps",
                value: self.reps as f64,
            });
        }
        Ok(())
    }
}

fn validate_confidence(confidence: f64) -> StatsResult<()> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "confidence",
            value: confidence,
        });
    }
    Ok(())
}

/// Runs `job` once per chunk index, on up to `threads` workers pulling
/// indices from a shared atomic cursor, and returns the outputs in chunk
/// order. Output order — and therefore everything downstream — does not
/// depend on which worker ran which chunk.
fn run_chunked<T, F>(n_chunks: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n_chunks <= 1 {
        return (0..n_chunks).map(job).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n_chunks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let out = job(i);
                let ok = slots[i].set(out).is_ok();
                debug_assert!(ok, "chunk index claimed twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every chunk index was claimed"))
        .collect()
}

/// Produces the sorted bootstrap distribution for `reps` replicates of
/// `replicate(rng, scratch)` under the chunked execution model. `scratch`
/// is a per-chunk resample buffer, so the per-replicate hot loop performs
/// no allocation. Returns the first error in replicate order, if any.
fn bootstrap_distribution(
    config: &BootstrapConfig,
    replicate: impl Fn(&mut StdRng, &mut Vec<f64>) -> StatsResult<f64> + Sync,
) -> StatsResult<Vec<f64>> {
    let chunk_size = config.effective_chunk_size();
    let n_chunks = config.reps.div_ceil(chunk_size);
    let threads = config.effective_threads(n_chunks);
    let chunk_results = run_chunked(n_chunks, threads, |chunk| {
        let lo = chunk * chunk_size;
        let hi = (lo + chunk_size).min(config.reps);
        let mut scratch = Vec::new();
        let mut stats = Vec::with_capacity(hi - lo);
        for rep in lo..hi {
            let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, rep as u64));
            stats.push(replicate(&mut rng, &mut scratch)?);
        }
        Ok(sorted_finite(stats))
    });
    // Chunks are in index order, so the first Err is the error of the
    // lowest failing replicate range — same error the sequential loop
    // would have surfaced.
    let mut runs = Vec::with_capacity(n_chunks);
    for result in chunk_results {
        runs.push(result?);
    }
    merge_sorted_runs(runs)
}

fn percentile_interval(estimate: f64, sorted_stats: &[f64], confidence: f64) -> ConfidenceInterval {
    let alpha = 1.0 - confidence;
    ConfidenceInterval {
        estimate,
        lower: quantile_sorted(sorted_stats, alpha / 2.0, QuantileMethod::Interpolated),
        upper: quantile_sorted(
            sorted_stats,
            1.0 - alpha / 2.0,
            QuantileMethod::Interpolated,
        ),
        confidence,
    }
}

/// Percentile-bootstrap CI of an arbitrary statistic.
///
/// Draws `reps` resamples of `xs` (with replacement), applies `statistic`
/// to each and returns the empirical `(α/2, 1−α/2)` quantiles of the
/// resampled statistics around the point estimate on the original data.
///
/// `statistic` must return a finite value for every non-empty resample.
/// Runs sequentially; use [`bootstrap_ci_with`] to control threading and
/// chunking.
pub fn bootstrap_ci(
    xs: &[f64],
    confidence: f64,
    reps: usize,
    seed: u64,
    statistic: impl Fn(&[f64]) -> f64 + Sync,
) -> StatsResult<ConfidenceInterval> {
    bootstrap_ci_with(xs, confidence, &BootstrapConfig::new(reps, seed), statistic)
}

/// [`bootstrap_ci`] with explicit execution parameters.
///
/// The interval is bit-identical for any `chunk_size`/`threads` choice
/// (see the module-level determinism contract).
pub fn bootstrap_ci_with(
    xs: &[f64],
    confidence: f64,
    config: &BootstrapConfig,
    statistic: impl Fn(&[f64]) -> f64 + Sync,
) -> StatsResult<ConfidenceInterval> {
    validate_samples(xs)?;
    validate_confidence(confidence)?;
    config.validate()?;
    let estimate = statistic(xs);
    if !estimate.is_finite() {
        return Err(StatsError::NonFiniteSample);
    }
    let n = xs.len();
    let stats = bootstrap_distribution(config, |rng, buf| {
        buf.clear();
        buf.extend((0..n).map(|_| xs[rng.gen_range(0..n)]));
        let s = statistic(buf);
        if s.is_finite() {
            Ok(s)
        } else {
            Err(StatsError::NonFiniteSample)
        }
    })?;
    Ok(percentile_interval(estimate, &stats, confidence))
}

/// Bootstrap CI of the difference `statistic(a) − statistic(b)` under
/// independent resampling of both groups.
pub fn bootstrap_diff_ci(
    a: &[f64],
    b: &[f64],
    confidence: f64,
    reps: usize,
    seed: u64,
    statistic: impl Fn(&[f64]) -> f64 + Sync,
) -> StatsResult<ConfidenceInterval> {
    bootstrap_diff_ci_with(
        a,
        b,
        confidence,
        &BootstrapConfig::new(reps, seed),
        statistic,
    )
}

/// [`bootstrap_diff_ci`] with explicit execution parameters.
pub fn bootstrap_diff_ci_with(
    a: &[f64],
    b: &[f64],
    confidence: f64,
    config: &BootstrapConfig,
    statistic: impl Fn(&[f64]) -> f64 + Sync,
) -> StatsResult<ConfidenceInterval> {
    validate_samples(a)?;
    validate_samples(b)?;
    validate_confidence(confidence)?;
    config.validate()?;
    let estimate = statistic(a) - statistic(b);
    if !estimate.is_finite() {
        return Err(StatsError::NonFiniteSample);
    }
    let stats = bootstrap_distribution(config, |rng, buf| {
        buf.clear();
        buf.extend((0..a.len()).map(|_| a[rng.gen_range(0..a.len())]));
        let sa = statistic(buf);
        buf.clear();
        buf.extend((0..b.len()).map(|_| b[rng.gen_range(0..b.len())]));
        let sb = statistic(buf);
        let s = sa - sb;
        if s.is_finite() {
            Ok(s)
        } else {
            Err(StatsError::NonFiniteSample)
        }
    })?;
    Ok(percentile_interval(estimate, &stats, confidence))
}

/// Percentile-bootstrap CI of the `p`-quantile from pre-sorted data,
/// using the order-statistic rank device: resampling `n` observations
/// with replacement and taking the `p`-quantile of the resample is
/// (asymptotically) equivalent to reading the order statistic at rank
/// `round(n·p + z·√(n·p·(1−p)))` with `z` standard normal, which costs
/// **O(1) per replicate** instead of O(n log n) — no resample buffer, no
/// per-replicate sort. This is what makes 10k-replicate quantile CIs
/// cheap enough for routine use (Rule 6 pushes medians everywhere).
pub fn bootstrap_quantile_ci(
    sorted: &SortedSamples,
    p: f64,
    confidence: f64,
    reps: usize,
    seed: u64,
) -> StatsResult<ConfidenceInterval> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "p",
            value: p,
        });
    }
    validate_confidence(confidence)?;
    let config = BootstrapConfig::new(reps, seed);
    config.validate()?;
    let xs = sorted.as_slice();
    let nf = xs.len() as f64;
    let sd = (nf * p * (1.0 - p)).sqrt();
    let estimate = quantile_sorted(xs, p, QuantileMethod::Interpolated);
    let stats = bootstrap_distribution(&config, |rng, _scratch| {
        let u: f64 = rng.gen_range(1e-12..1.0 - 1e-12);
        let z = std_normal_inv_cdf(u);
        let rank = (nf * p + sd * z).round().clamp(1.0, nf) as usize;
        Ok(xs[rank - 1])
    })?;
    Ok(percentile_interval(estimate, &stats, confidence))
}

/// [`bootstrap_quantile_ci`] at `p = 0.5`.
pub fn bootstrap_median_ci(
    sorted: &SortedSamples,
    confidence: f64,
    reps: usize,
    seed: u64,
) -> StatsResult<ConfidenceInterval> {
    bootstrap_quantile_ci(sorted, 0.5, confidence, reps, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::median;
    use crate::summary::arithmetic_mean;

    fn sample(n: usize, mu: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                mu + crate::dist::normal::std_normal_inv_cdf(u)
            })
            .collect()
    }

    #[test]
    fn bootstrap_mean_ci_contains_truth() {
        let xs = sample(200, 10.0);
        let ci = bootstrap_ci(&xs, 0.95, 500, 42, |s| arithmetic_mean(s).unwrap()).unwrap();
        assert!(ci.contains(10.0), "{ci:?}");
        assert!(ci.lower < ci.estimate && ci.estimate < ci.upper);
    }

    #[test]
    fn bootstrap_is_deterministic_given_seed() {
        let xs = sample(50, 3.0);
        let f = |s: &[f64]| arithmetic_mean(s).unwrap();
        let a = bootstrap_ci(&xs, 0.95, 300, 7, f).unwrap();
        let b = bootstrap_ci(&xs, 0.95, 300, 7, f).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_ci(&xs, 0.95, 300, 8, f).unwrap();
        assert_ne!(a.lower, c.lower);
    }

    #[test]
    fn bootstrap_ci_narrows_with_n() {
        let small = sample(20, 0.0);
        let large = sample(2000, 0.0);
        let f = |s: &[f64]| arithmetic_mean(s).unwrap();
        let ci_s = bootstrap_ci(&small, 0.95, 300, 1, f).unwrap();
        let ci_l = bootstrap_ci(&large, 0.95, 300, 1, f).unwrap();
        assert!(ci_l.width() < ci_s.width());
    }

    #[test]
    fn diff_ci_detects_shift() {
        let a = sample(300, 5.0);
        let b = sample(300, 4.0);
        let ci = bootstrap_diff_ci(&a, &b, 0.95, 400, 9, |s| arithmetic_mean(s).unwrap()).unwrap();
        assert!((ci.estimate - 1.0).abs() < 0.05);
        assert!(!ci.contains(0.0));
    }

    #[test]
    fn diff_ci_no_shift_contains_zero() {
        let a = sample(300, 5.0);
        let ci = bootstrap_diff_ci(&a, &a, 0.95, 400, 9, |s| arithmetic_mean(s).unwrap()).unwrap();
        assert!(ci.contains(0.0));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let xs = [1.0, 2.0];
        let f = |s: &[f64]| s[0];
        assert!(bootstrap_ci(&[], 0.95, 100, 0, f).is_err());
        assert!(bootstrap_ci(&xs, 0.0, 100, 0, f).is_err());
        assert!(bootstrap_ci(&xs, 0.95, 5, 0, f).is_err());
        assert!(bootstrap_diff_ci(&xs, &xs, 2.0, 100, 0, f).is_err());
        let sorted = SortedSamples::new(&sample(100, 0.0)).unwrap();
        assert!(bootstrap_quantile_ci(&sorted, 0.0, 0.95, 100, 0).is_err());
        assert!(bootstrap_quantile_ci(&sorted, 0.5, 0.95, 5, 0).is_err());
    }

    #[test]
    fn reps_below_chunk_size_still_work() {
        // Regression test: 10 ≤ reps < chunk_size must produce a full
        // (single-chunk) distribution, not an empty or truncated one.
        let xs = sample(80, 2.0);
        let f = |s: &[f64]| arithmetic_mean(s).unwrap();
        for reps in [10, 11, 100, BootstrapConfig::DEFAULT_CHUNK_SIZE - 1] {
            let ci = bootstrap_ci(&xs, 0.95, reps, 5, f).unwrap();
            assert!(ci.lower <= ci.upper, "reps={reps}: {ci:?}");
            assert!(ci.contains(f(&xs)), "reps={reps}: {ci:?}");
            let wide_chunk = bootstrap_ci_with(
                &xs,
                0.95,
                &BootstrapConfig::new(reps, 5).chunk_size(10_000),
                f,
            )
            .unwrap();
            assert_eq!(ci, wide_chunk, "reps={reps}");
        }
    }

    #[test]
    fn chunk_size_and_threads_do_not_change_result() {
        let xs = sample(120, 7.0);
        let f = |s: &[f64]| median(s).unwrap();
        let reference = bootstrap_ci(&xs, 0.95, 333, 21, f).unwrap();
        for chunk_size in [1, 7, 64, 333, 1000] {
            for threads in [1, 2, 8] {
                let config = BootstrapConfig::new(333, 21)
                    .chunk_size(chunk_size)
                    .threads(threads);
                let ci = bootstrap_ci_with(&xs, 0.95, &config, f).unwrap();
                assert_eq!(ci, reference, "chunk_size={chunk_size} threads={threads}");
            }
        }
    }

    #[test]
    fn error_in_statistic_is_reported_not_panicked() {
        let xs = sample(40, 1.0);
        let config = BootstrapConfig::new(100, 3).chunk_size(16).threads(4);
        let r = bootstrap_ci_with(
            &xs,
            0.95,
            &config,
            |s| {
                if s[0] > 0.0 {
                    f64::NAN
                } else {
                    s[0]
                }
            },
        );
        assert!(matches!(r, Err(StatsError::NonFiniteSample)));
    }

    #[test]
    fn quantile_rank_device_matches_resampling_bootstrap() {
        // The rank device and the literal resample-then-quantile
        // bootstrap target the same sampling distribution; their CIs
        // must agree closely (they use different RNG streams, so only
        // statistically, not bitwise).
        let xs = sample(500, 50.0);
        let sorted = SortedSamples::new(&xs).unwrap();
        let fast = bootstrap_median_ci(&sorted, 0.95, 4000, 11).unwrap();
        let slow = bootstrap_ci(&xs, 0.95, 4000, 11, |s| median(s).unwrap()).unwrap();
        assert!((fast.estimate - slow.estimate).abs() < 1e-12);
        assert!(
            (fast.lower - slow.lower).abs() < 0.05 && (fast.upper - slow.upper).abs() < 0.05,
            "fast {fast:?} vs slow {slow:?}"
        );
        // And it is deterministic given the seed.
        let again = bootstrap_median_ci(&sorted, 0.95, 4000, 11).unwrap();
        assert_eq!(fast, again);
    }

    #[test]
    fn mix_seed_separates_streams() {
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        let c = mix_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(mix_seed(42, 0), a);
    }
}
