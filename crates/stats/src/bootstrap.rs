//! Percentile bootstrap confidence intervals.
//!
//! The paper (§7) places the bootstrap "beyond the scope of our work" but
//! the library uses it where no analytic CI exists — e.g. the difference of
//! quantiles in quantile regression, or the CI of a coefficient of
//! variation. Resampling is fully deterministic given the seed.
//!
//! # Determinism contract
//!
//! Every interval here, and every difference CI of
//! [`crate::quantreg::two_sample`], is read from one sorted distribution
//! built by one sequential loop. Replicate `r` draws from its own RNG
//! stream, seeded by [`mix_seed`]`(seed, r)`; one resample buffer serves
//! every replicate; and the statistics are sorted once, equal values with
//! different bits (`-0.0`, `+0.0`) in replicate order. An interval is
//! therefore a function of the data, `reps` and `seed` alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ci::ConfidenceInterval;
use crate::dist::normal::std_normal_inv_cdf;
use crate::error::{StatsError, StatsResult};
use crate::quantile::{quantile_sorted, QuantileMethod};
use crate::sort::sorted_finite;
use crate::sorted::SortedSamples;
use crate::validate_samples;

/// Mixes a base seed with a replicate index into an independent RNG seed
/// (splitmix64-style finalizer). Used for all per-replicate streams, so
/// replicate `r` draws the same values whatever else is drawn.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn validate(confidence: f64, reps: usize) -> StatsResult<()> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "confidence",
            value: confidence,
        });
    }
    if reps < 10 {
        return Err(StatsError::InvalidParameter {
            name: "reps",
            value: reps as f64,
        });
    }
    Ok(())
}

fn finite(statistic: f64) -> StatsResult<f64> {
    if statistic.is_finite() {
        Ok(statistic)
    } else {
        Err(StatsError::NonFiniteSample)
    }
}

/// Refills `buf` with `xs.len()` draws from `xs`, with replacement.
fn resample(xs: &[f64], rng: &mut StdRng, buf: &mut Vec<f64>) {
    buf.clear();
    buf.extend((0..xs.len()).map(|_| xs[rng.gen_range(0..xs.len())]));
}

/// The sorted bootstrap distribution of `reps` replicates of
/// `replicate(rng, buf)`, with replicate `r` drawing from
/// `mix_seed(seed, r)` and every replicate reusing one resample buffer
/// `buf`. Returns the first failing replicate's error. Callers check that
/// `reps` is at least 10.
pub(crate) fn distribution(
    reps: usize,
    seed: u64,
    mut replicate: impl FnMut(&mut StdRng, &mut Vec<f64>) -> StatsResult<f64>,
) -> StatsResult<Vec<f64>> {
    let mut buf = Vec::new();
    let stats = (0..reps)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, r as u64));
            replicate(&mut rng, &mut buf)
        })
        .collect::<StatsResult<Vec<f64>>>()?;
    Ok(sorted_finite(stats))
}

/// Draws the `p`-quantile of one bootstrap resample of `sorted` by the
/// rank device of [`bootstrap_quantile_ci`]: the order statistic at rank
/// `round(n·p + z·√(n·p·(1−p)))`, `z` standard normal, clamped to `[1, n]`.
pub(crate) fn quantile_draw(sorted: &[f64], p: f64, rng: &mut StdRng) -> f64 {
    let nf = sorted.len() as f64;
    let sd = (nf * p * (1.0 - p)).sqrt();
    let u: f64 = rng.gen_range(1e-12..1.0 - 1e-12);
    let rank = (nf * p + sd * std_normal_inv_cdf(u)).round().clamp(1.0, nf) as usize;
    sorted[rank - 1]
}

/// The `(α/2, 1−α/2)` quantiles of a sorted bootstrap distribution around
/// `estimate`, with `α = 1 − confidence`.
pub(crate) fn percentile_interval(
    estimate: f64,
    sorted_stats: &[f64],
    confidence: f64,
) -> ConfidenceInterval {
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
pub fn bootstrap_ci(
    xs: &[f64],
    confidence: f64,
    reps: usize,
    seed: u64,
    statistic: impl Fn(&[f64]) -> f64,
) -> StatsResult<ConfidenceInterval> {
    validate_samples(xs)?;
    validate(confidence, reps)?;
    let estimate = finite(statistic(xs))?;
    let stats = distribution(reps, seed, |rng, buf| {
        resample(xs, rng, buf);
        finite(statistic(buf))
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
    statistic: impl Fn(&[f64]) -> f64,
) -> StatsResult<ConfidenceInterval> {
    validate_samples(a)?;
    validate_samples(b)?;
    validate(confidence, reps)?;
    let estimate = finite(statistic(a) - statistic(b))?;
    let stats = distribution(reps, seed, |rng, buf| {
        resample(a, rng, buf);
        let sa = statistic(buf);
        resample(b, rng, buf);
        finite(sa - statistic(buf))
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
    validate(confidence, reps)?;
    let xs = sorted.as_slice();
    let estimate = quantile_sorted(xs, p, QuantileMethod::Interpolated);
    let stats = distribution(reps, seed, |rng, _| Ok(quantile_draw(xs, p, rng)))?;
    Ok(percentile_interval(estimate, &stats, confidence))
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
    fn error_in_statistic_is_reported_not_panicked() {
        let xs = sample(40, 1.0);
        let r = bootstrap_ci(
            &xs,
            0.95,
            100,
            3,
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
        let fast = bootstrap_quantile_ci(&sorted, 0.5, 0.95, 4000, 11).unwrap();
        let slow = bootstrap_ci(&xs, 0.95, 4000, 11, |s| median(s).unwrap()).unwrap();
        assert!((fast.estimate - slow.estimate).abs() < 1e-12);
        assert!(
            (fast.lower - slow.lower).abs() < 0.05 && (fast.upper - slow.upper).abs() < 0.05,
            "fast {fast:?} vs slow {slow:?}"
        );
        // And it is deterministic given the seed.
        let again = bootstrap_quantile_ci(&sorted, 0.5, 0.95, 4000, 11).unwrap();
        assert_eq!(fast, again);
    }

    /// `[estimate, lower, upper]` as bit patterns.
    fn ci_bits(ci: ConfidenceInterval) -> [u64; 3] {
        [ci.estimate, ci.lower, ci.upper].map(f64::to_bits)
    }

    /// A right-skewed sample in a fixed, unsorted order.
    fn skewed(n: usize, shift: f64, stride: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = ((i * stride) % n) as f64 / n as f64 + 0.5 / n as f64;
                shift + std_normal_inv_cdf(u).exp()
            })
            .collect()
    }

    #[test]
    fn every_interval_keeps_its_pinned_bits() {
        // Bits written by the chunked engine that this loop replaced:
        // 256 replicates per chunk, each chunk sorted, the sorted runs
        // merged in index order. The counts cover one chunk, a chunk
        // boundary and partial chunks.
        let reps = [10, 255, 256, 333, 1000];
        let xs = skewed(97, 1.0, 13);
        let ys = skewed(61, 1.2, 7);
        let mean = |s: &[f64]| arithmetic_mean(s).unwrap();
        let mean_pins: [[u64; 3]; 5] = [
            [0x400501cb571e7d5b, 0x4002a390a00e7854, 0x40090a51612f781c],
            [0x400501cb571e7d5b, 0x40020e528d3c92f0, 0x4007ea9f2b2e4d80],
            [0x400501cb571e7d5b, 0x40020e7845adcb8d, 0x4007ea33bb4a6dd7],
            [0x400501cb571e7d5b, 0x40021ea20193f653, 0x4007eb760af60cd0],
            [0x400501cb571e7d5b, 0x4002247c70244b06, 0x40084cf05809cb23],
        ];
        let diff_pins: [[u64; 3]; 5] = [
            [0xbfc8532348b14520, 0xbfe1760f46d5711c, 0x3fc86ec5d59219aa],
            [0xbfc8532348b14520, 0xbfe5fc272ed6d2be, 0x3fd01ada34616b9c],
            [0xbfc8532348b14520, 0xbfe5f892e60f04ed, 0x3fd0155c0c69eeee],
            [0xbfc8532348b14520, 0xbfe5d236566505b6, 0x3fd025d6845064fa],
            [0xbfc8532348b14520, 0xbfe642ec782613b6, 0x3fd55f802bae102c],
        ];
        // Equal values with different bits keep replicate order in the
        // sort, so these bounds pin which replicate lands where.
        let signed_zero = |s: &[f64]| {
            if s[..4].iter().any(|&x| x > s[0]) {
                -0.0
            } else {
                0.0
            }
        };
        let zero_pins: [[u64; 3]; 5] = [
            [0x8000000000000000, 0x8000000000000000, 0x8000000000000000],
            [0x8000000000000000, 0x0000000000000000, 0x0000000000000000],
            [0x8000000000000000, 0x0000000000000000, 0x0000000000000000],
            [0x8000000000000000, 0x8000000000000000, 0x8000000000000000],
            [0x8000000000000000, 0x0000000000000000, 0x8000000000000000],
        ];
        for (i, &r) in reps.iter().enumerate() {
            let got = ci_bits(bootstrap_ci(&xs, 0.95, r, 0x5C15, mean).unwrap());
            assert_eq!(got, mean_pins[i], "bootstrap_ci, {r} reps: {got:#018x?}");
            let got = ci_bits(bootstrap_diff_ci(&xs, &ys, 0.9, r, 0x5C16, mean).unwrap());
            assert_eq!(
                got, diff_pins[i],
                "bootstrap_diff_ci, {r} reps: {got:#018x?}"
            );
            let got = ci_bits(bootstrap_ci(&xs, 0.95, r, 0x5C17, signed_zero).unwrap());
            assert_eq!(got, zero_pins[i], "signed zeros, {r} reps: {got:#018x?}");
        }

        let taus = [0.1, 0.5, 0.9];
        let sorted = SortedSamples::new(&xs).unwrap();
        let quantile_pins: [[u64; 3]; 3] = [
            [0x3ff48b9697aeb616, 0x3ff2a65e3be25eca, 0x3ff5a9b5ff34f3ae],
            [0x4000000000000000, 0x3ffc51eee07fb18c, 0x40021dc8e8c5c567],
            [0x4012177d24a70e54, 0x400cc3789a313835, 0x40197b3e5300a384],
        ];
        for (i, &p) in taus.iter().enumerate() {
            let got = ci_bits(bootstrap_quantile_ci(&sorted, p, 0.95, 1000, 0x5C18).unwrap());
            assert_eq!(
                got, quantile_pins[i],
                "bootstrap_quantile_ci, p {p}: {got:#018x?}"
            );
        }

        let (base, other) = (skewed(400, 1.5, 37), skewed(300, 1.6, 11));
        let (base, other) = (
            crate::Sample::new(&base).unwrap(),
            crate::Sample::new(&other).unwrap(),
        );
        let effects = crate::quantreg::two_sample(&base, &other, &taus, 0.95, 400, 0x5C19).unwrap();
        let difference_pins: [[u64; 3]; 3] = [
            [0x3fb9bc0e53c9d8d0, 0x3f9826ea4e8ac24f, 0x3fc6f4fcd742c8a1],
            [0x3fb999d9a79340a0, 0xbfb72633ecca7dd6, 0x3fd1a60b3be44b28],
            [0x3fb7e3b23d0811c0, 0xbfeabe89cbdafdc6, 0x3ff19942b25f529a],
        ];
        for (i, effect) in effects.iter().enumerate() {
            let got = ci_bits(effect.difference);
            assert_eq!(
                got, difference_pins[i],
                "two_sample, tau {}: {got:#018x?}",
                effect.tau
            );
        }
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
