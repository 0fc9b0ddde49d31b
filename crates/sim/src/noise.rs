//! Noise models — the sources of nondeterminism the paper enumerates:
//! "network background traffic, task scheduling, interrupts, job placement
//! in the batch system" (§1).
//!
//! Four mechanisms are composed:
//!
//! 1. **Baseline jitter**: a folded log-normal factor `exp(σ|Z|) ≥ 1`,
//!    producing the right-skewed unimodal body (with a hard floor at the
//!    deterministic cost) seen in every latency density of the paper;
//! 2. **Slow secondary path**: a Bernoulli extra cost modelling adaptive
//!    routing / buffer contention, the source of multi-modal latency
//!    bodies (§3.1.3);
//! 3. **OS daemons**: periodic interruptions with a fixed duty cycle —
//!    an interval of length L is hit by `⌊L/period⌋`-ish events, each
//!    adding a fixed cost (Petrini et al.'s "missing supercomputer
//!    performance" mechanism, the paper's ref. 47);
//! 4. **Congestion spikes**: rare heavy-tailed (Pareto) additive delays
//!    modelling network background traffic, responsible for the extreme
//!    outliers (e.g. the 11.59 µs maximum in Figure 3).

use crate::rng::SimRng;

/// Parameters of the composite noise model. All times in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseProfile {
    /// Scale of the baseline jitter: the duration is multiplied by
    /// `exp(σ·|Z|)` with `Z` standard normal — a *folded* log-normal
    /// factor that is always ≥ 1, modelling the hard latency floor of a
    /// real link while keeping the right-skewed body the paper shows.
    /// 0 disables it.
    pub jitter_sigma: f64,
    /// Mean period between OS daemon wakeups; 0 disables daemons.
    pub daemon_period_ns: f64,
    /// Cost added per daemon hit.
    pub daemon_cost_ns: f64,
    /// Probability that an operation is hit by a congestion spike.
    pub congestion_prob: f64,
    /// Scale (minimum) of a congestion spike.
    pub congestion_scale_ns: f64,
    /// Pareto shape of congestion spikes; smaller = heavier tail.
    pub congestion_shape: f64,
    /// Probability the operation takes a slower secondary path
    /// (adaptive routing / buffer contention), creating the multi-modal
    /// latency bodies of §3.1.3.
    pub slow_path_prob: f64,
    /// Extra cost of the slow path.
    pub slow_path_extra_ns: f64,
}

impl NoiseProfile {
    /// A completely noise-free profile (deterministic measurements).
    pub fn quiet() -> Self {
        Self {
            jitter_sigma: 0.0,
            daemon_period_ns: 0.0,
            daemon_cost_ns: 0.0,
            congestion_prob: 0.0,
            congestion_scale_ns: 0.0,
            congestion_shape: 1.5,
            slow_path_prob: 0.0,
            slow_path_extra_ns: 0.0,
        }
    }

    /// Whether the profile produces any nondeterminism at all: true
    /// exactly when every mechanism is off, so that [`perturb`] returns
    /// its base and draws no RNG word.
    ///
    /// [`perturb`]: Self::perturb
    pub fn is_quiet(&self) -> bool {
        !(self.jitter_on() || self.slow_path_on() || self.daemons_on() || self.congestion_on())
    }

    // One predicate per mechanism, shared by `is_quiet` and `perturb`. A
    // mechanism is on only when its parameters are positive: zero,
    // negative and NaN settings all switch it off.

    #[inline]
    fn jitter_on(&self) -> bool {
        self.jitter_sigma > 0.0
    }

    #[inline]
    fn slow_path_on(&self) -> bool {
        self.slow_path_prob > 0.0
    }

    #[inline]
    fn daemons_on(&self) -> bool {
        self.daemon_period_ns > 0.0 && self.daemon_cost_ns > 0.0
    }

    #[inline]
    fn congestion_on(&self) -> bool {
        self.congestion_prob > 0.0
    }

    /// Perturbs a base duration of `base_ns`, returning the noisy duration.
    ///
    /// The mechanisms compose multiplicatively (jitter) and additively
    /// (slow path, daemons, congestion). The result is never below
    /// `base_ns` ("most system effects lead to increased execution
    /// times", §3.1.3).
    #[inline]
    pub fn perturb(&self, base_ns: f64, rng: &mut SimRng) -> f64 {
        debug_assert!(base_ns >= 0.0);
        let mut t = base_ns;

        // Baseline folded-lognormal jitter: factor exp(σ|z|) ≥ 1.
        if self.jitter_on() {
            t *= (self.jitter_sigma * rng.std_normal().abs()).exp();
        }

        // Secondary (slow) path.
        if self.slow_path_on() && rng.bernoulli(self.slow_path_prob) {
            t += self.slow_path_extra_ns;
        }

        // OS daemons: expected hits = duration / period, each adding cost.
        if self.daemons_on() {
            let expected_hits = t / self.daemon_period_ns;
            let hits = sample_poissonish(expected_hits, rng);
            t += hits as f64 * self.daemon_cost_ns;
        }

        // Rare heavy-tailed congestion.
        if self.congestion_on() && rng.bernoulli(self.congestion_prob) {
            t += rng.pareto(self.congestion_scale_ns, self.congestion_shape);
        }

        t.max(base_ns)
    }
}

/// Samples an event count with the given mean.
///
/// Exact Poisson via Knuth's product-of-uniforms inversion for small
/// means (the common case: an OS daemon rarely hits a microsecond-scale
/// interval), normal approximation for large means (long compute phases).
///
/// The first uniform `u` is drawn before `l = exp(-mean)` is computed,
/// and the count is 0 at once when [`settles_at_zero`] holds, i.e. when
/// `u < (1 - mean) - 2⁻⁴⁰`. This is exact, not an approximation. For
/// every `m`, `e^(-m) ≥ 1 - m`. The threshold only fires for `0 < m < 1`.
/// There the rounding of `1.0 - mean` and that of the subtraction each
/// add at most 2⁻⁵⁴, and an `exp` within 2,000 ulps of `e^(-m)` is off by
/// less than 2⁻⁴². The 2⁻⁴⁰ margin exceeds their sum, so such a `u`
/// satisfies `u <= l`, and Knuth's loop would also stop at `k = 0` after
/// this one draw. Otherwise Knuth's loop goes on from `p = u`, which
/// equals its first product `1.0 * u`. Both paths draw the same RNG words
/// in the same order and return the same count. The first uniform
/// settles a share of about `1 - mean` of the calls without calling
/// `exp`: over 99.7 % at the presets' means of at most ≈ 0.003 hits per
/// message.
#[inline]
fn sample_poissonish(mean: f64, rng: &mut SimRng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        // Knuth inversion, its first draw taken before `exp`.
        let u = rng.uniform();
        if settles_at_zero(u, mean) {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = u;
        loop {
            if p <= l || k > 1000 {
                return k;
            }
            k += 1;
            p *= rng.uniform();
        }
    } else {
        let draw = rng.normal(mean, mean.sqrt());
        draw.round().max(0.0) as u64
    }
}

/// 2⁻⁴⁰: the margin of [`settles_at_zero`] below `1 - mean`.
const SETTLE_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// Whether the first uniform `u` of Knuth's loop settles a Poisson count
/// of mean `mean` at 0: it implies `u <= exp(-mean)` without computing
/// `exp` (proof at [`sample_poissonish`]).
#[inline]
fn settles_at_zero(u: f64, mean: f64) -> bool {
    u < (1.0 - mean) - SETTLE_MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;

    /// `sample_poissonish` as it was before the first-uniform fast path:
    /// the oracle the fast path must match bit for bit and word for word.
    fn sample_poissonish_reference(mean: f64, rng: &mut SimRng) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean < 30.0 {
            // Knuth inversion.
            let l = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.uniform();
                if p <= l || k > 1000 {
                    return k;
                }
                k += 1;
            }
        } else {
            let draw = rng.normal(mean, mean.sqrt());
            draw.round().max(0.0) as u64
        }
    }

    /// `perturb` as it was before the fast path, over the reference draw.
    fn perturb_reference(p: &NoiseProfile, base_ns: f64, rng: &mut SimRng) -> f64 {
        let mut t = base_ns;
        if p.jitter_sigma > 0.0 {
            t *= (p.jitter_sigma * rng.std_normal().abs()).exp();
        }
        if p.slow_path_prob > 0.0 && rng.bernoulli(p.slow_path_prob) {
            t += p.slow_path_extra_ns;
        }
        if p.daemon_period_ns > 0.0 && p.daemon_cost_ns > 0.0 {
            let expected_hits = t / p.daemon_period_ns;
            let hits = sample_poissonish_reference(expected_hits, rng);
            t += hits as f64 * p.daemon_cost_ns;
        }
        if p.congestion_prob > 0.0 && rng.bernoulli(p.congestion_prob) {
            t += rng.pareto(p.congestion_scale_ns, p.congestion_shape);
        }
        t.max(base_ns)
    }

    /// The word a stream would draw next, without advancing it.
    fn next_word(rng: &SimRng) -> u64 {
        rng.clone().uniform().to_bits()
    }

    fn profile() -> NoiseProfile {
        NoiseProfile {
            jitter_sigma: 0.05,
            daemon_period_ns: 10_000.0,
            daemon_cost_ns: 500.0,
            congestion_prob: 0.01,
            congestion_scale_ns: 2_000.0,
            congestion_shape: 1.5,
            slow_path_prob: 0.0,
            slow_path_extra_ns: 0.0,
        }
    }

    #[test]
    fn quiet_profile_is_identity() {
        let p = NoiseProfile::quiet();
        assert!(p.is_quiet());
        let mut rng = SimRng::new(1);
        for &base in &[0.0, 100.0, 1e6] {
            assert_eq!(p.perturb(base, &mut rng), base);
        }
    }

    #[test]
    fn noise_is_right_skewed() {
        let p = profile();
        let mut rng = SimRng::new(2);
        let base = 1_000.0;
        let xs: Vec<f64> = (0..20_000).map(|_| p.perturb(base, &mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "mean {mean} median {median}");
        assert!(mean > base, "noise must increase expected time");
    }

    #[test]
    fn congestion_produces_outliers() {
        let mut p = NoiseProfile::quiet();
        p.congestion_prob = 0.02;
        p.congestion_scale_ns = 5_000.0;
        p.congestion_shape = 1.2;
        let mut rng = SimRng::new(3);
        let xs: Vec<f64> = (0..10_000).map(|_| p.perturb(1_000.0, &mut rng)).collect();
        let max = xs.iter().cloned().fold(0.0, f64::max);
        let spikes = xs.iter().filter(|&&x| x > 5_000.0).count();
        assert!(max > 6_000.0, "max {max}");
        let frac = spikes as f64 / xs.len() as f64;
        assert!((frac - 0.02).abs() < 0.01, "spike fraction {frac}");
    }

    #[test]
    fn daemon_cost_scales_with_interval() {
        let mut p = NoiseProfile::quiet();
        p.daemon_period_ns = 1_000.0;
        p.daemon_cost_ns = 100.0;
        let mut rng = SimRng::new(4);
        // 1 ms interval → ~1000 hits → ~100 µs extra (10%).
        let long: Vec<f64> = (0..200).map(|_| p.perturb(1e6, &mut rng)).collect();
        let mean_long = long.iter().sum::<f64>() / long.len() as f64;
        assert!((mean_long - 1.1e6).abs() < 0.02e6, "mean {mean_long}");
        // 100 ns interval → ~0.1 hits → ~10 ns extra on average.
        let short: Vec<f64> = (0..5000).map(|_| p.perturb(100.0, &mut rng)).collect();
        let mean_short = short.iter().sum::<f64>() / short.len() as f64;
        assert!((mean_short - 110.0).abs() < 10.0, "mean {mean_short}");
    }

    #[test]
    fn perturb_is_deterministic_per_seed() {
        let p = profile();
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for _ in 0..100 {
            assert_eq!(p.perturb(500.0, &mut a), p.perturb(500.0, &mut b));
        }
    }

    #[test]
    fn poissonish_mean_small_and_large() {
        let mut rng = SimRng::new(5);
        let small: f64 = (0..20_000)
            .map(|_| sample_poissonish(2.5, &mut rng) as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((small - 2.5).abs() < 0.1, "small {small}");
        let large: f64 = (0..5_000)
            .map(|_| sample_poissonish(100.0, &mut rng) as f64)
            .sum::<f64>()
            / 5_000.0;
        assert!((large - 100.0).abs() < 1.0, "large {large}");
        assert_eq!(sample_poissonish(0.0, &mut rng), 0);
    }

    #[test]
    fn result_never_collapses() {
        let p = profile();
        let mut rng = SimRng::new(6);
        for _ in 0..10_000 {
            assert!(p.perturb(1_000.0, &mut rng) >= 1_000.0);
        }
    }

    #[test]
    fn poissonish_matches_the_reference_draw_for_draw() {
        let means = [
            0.0,
            -0.0,
            5e-324,
            1e-300,
            1e-12,
            1e-6,
            2e-3,
            0.1,
            0.5,
            1.0f64.next_down(),
            1.0,
            1.0f64.next_up(),
            2.5,
            30.0f64.next_down(),
            30.0,
            1e6,
            f64::INFINITY,
            f64::NAN,
        ];
        for (i, &mean) in means.iter().enumerate() {
            let mut fast = SimRng::new(1_000 + i as u64);
            let mut reference = fast.clone();
            for call in 0..2_000 {
                let got = sample_poissonish(mean, &mut fast);
                let want = sample_poissonish_reference(mean, &mut reference);
                assert_eq!(got, want, "mean {mean:e}, call {call}");
                assert_eq!(
                    next_word(&fast),
                    next_word(&reference),
                    "mean {mean:e}, call {call}: the streams diverged"
                );
            }
        }
    }

    #[test]
    fn perturb_matches_the_reference_draw_for_draw() {
        let profiles = [
            ("Piz Daint", MachineSpec::piz_daint().noise),
            ("Piz Dora", MachineSpec::piz_dora().noise),
            ("Pilatus", MachineSpec::pilatus().noise),
            ("test_machine", MachineSpec::test_machine(4).noise),
            (
                "all on",
                NoiseProfile {
                    slow_path_prob: 0.3,
                    slow_path_extra_ns: 700.0,
                    ..profile()
                },
            ),
        ];
        let bases = [0.0, 5e-324, 1.5e3, 2.7e3, 1e6, 1e8, f64::MAX];
        for (i, (name, p)) in profiles.iter().enumerate() {
            for (j, &base) in bases.iter().enumerate() {
                let mut fast = SimRng::new(100 * i as u64 + j as u64);
                let mut reference = fast.clone();
                for call in 0..2_000 {
                    let got = p.perturb(base, &mut fast);
                    let want = perturb_reference(p, base, &mut reference);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name}, base {base:e}, call {call}: {got} vs {want}"
                    );
                    assert_eq!(
                        next_word(&fast),
                        next_word(&reference),
                        "{name}, base {base:e}, call {call}: the streams diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn settling_at_zero_implies_knuth_stops_at_zero() {
        // A log grid of means from the smallest subnormal to 30.
        let (lo, hi) = (5e-324f64.ln(), 30f64.ln());
        let steps = 4_000;
        let means = (0..=steps)
            .map(|i| (lo + (hi - lo) * i as f64 / steps as f64).exp())
            .chain([5e-324, 30.0]);
        let mut settled = 0;
        for mean in means {
            let threshold = (1.0 - mean) - SETTLE_MARGIN;
            let l = (-mean).exp();
            let us = [
                0.0,
                threshold,
                threshold.next_down(),
                threshold.next_up(),
                1.0 - f64::EPSILON / 2.0,
            ];
            for u in us {
                if settles_at_zero(u, mean) {
                    settled += 1;
                    assert!(
                        u <= l,
                        "u {u:e} settles mean {mean:e} but exceeds exp(-mean) {l:e}"
                    );
                }
            }
            // The comparison is strict: the threshold itself goes to the loop.
            assert!(!settles_at_zero(threshold, mean), "mean {mean:e}");
            if threshold > 0.0 {
                assert!(
                    settles_at_zero(threshold.next_down(), mean),
                    "mean {mean:e}"
                );
            }
        }
        assert!(
            settled > 1_000,
            "the grid must exercise the fast path: {settled}"
        );
    }

    #[test]
    fn is_quiet_exactly_when_perturb_is_identity_and_draws_nothing() {
        // Every mechanism's parameters range over zero, signed zero,
        // negative, NaN and positive settings. An infinite daemon period
        // is left out: it counts as on, but it draws for infinite
        // durations only.
        type Field = fn(&mut NoiseProfile) -> &mut f64;
        let fields: [(Field, &[f64]); 5] = [
            (|p| &mut p.jitter_sigma, &[0.1, f64::INFINITY]),
            (|p| &mut p.daemon_period_ns, &[1e4]),
            (|p| &mut p.daemon_cost_ns, &[500.0, f64::INFINITY]),
            (|p| &mut p.congestion_prob, &[0.02, f64::INFINITY]),
            (|p| &mut p.slow_path_prob, &[0.02, f64::INFINITY]),
        ];
        let off = [0.0, -0.0, -1.0, f64::NAN, f64::NEG_INFINITY];
        let mut grid = vec![NoiseProfile {
            slow_path_extra_ns: 700.0,
            congestion_scale_ns: 2_000.0,
            ..NoiseProfile::quiet()
        }];
        for (field, on) in fields {
            grid = grid
                .iter()
                .flat_map(|p| {
                    off.iter().chain(on).map(move |&v| {
                        let mut q = *p;
                        *field(&mut q) = v;
                        q
                    })
                })
                .collect();
        }
        let mut rng = SimRng::new(17);
        let quiet = grid.iter().filter(|p| p.is_quiet()).count();
        assert!(quiet > 0 && quiet < grid.len(), "{quiet} of {}", grid.len());
        for p in &grid {
            for base in [1.5e3, 1e6] {
                let before = next_word(&rng);
                let t = p.perturb(base, &mut rng);
                let identity = t.to_bits() == base.to_bits() && next_word(&rng) == before;
                assert_eq!(p.is_quiet(), identity, "{p:?} at base {base}");
            }
        }
    }
}
