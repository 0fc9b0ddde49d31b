//! Deterministic, fork-able random streams.
//!
//! Every stochastic component of the simulator draws from a [`SimRng`]
//! created from an explicit `u64` seed, and sub-components receive
//! *forked* streams derived by hashing a label into the parent seed.
//! Forking guarantees that adding a new consumer of randomness never
//! perturbs the values observed by existing consumers — the property that
//! keeps all figure binaries bit-for-bit reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random stream with labeled forking.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    rng: StdRng,
}

/// SplitMix64 finalizer: decorrelates related seeds. Also the final mix
/// of the campaign journal's content-addressed keys.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a 64-bit offset basis: the starting state of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h` (64-bit FNV prime). The
/// campaign journal chains calls from [`FNV_OFFSET`] to hash its keys.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    fnv1a_with(0x100_0000_01b3, h, bytes)
}

/// Hashes a fork label. Its multiplier is one hex digit longer than the
/// FNV prime, and must stay so: changing it would re-seed every fork, and
/// with them every campaign result and committed figure.
fn fork_label_hash(label: &str) -> u64 {
    fnv1a_with(0x1000_0000_01b3, FNV_OFFSET, label.as_bytes())
}

fn fnv1a_with(prime: u64, mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(prime);
    }
    h
}

impl SimRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: StdRng::seed_from_u64(splitmix64(seed)),
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream for `label`.
    ///
    /// Forks are a pure function of `(parent seed, label)` — they do not
    /// consume state from the parent, so fork order is irrelevant.
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::new(splitmix64(self.seed ^ fork_label_hash(label)))
    }

    /// Derives an independent child stream for `(label, index)`, e.g. one
    /// per repetition or per rank.
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        SimRng::new(splitmix64(
            self.seed ^ fork_label_hash(label) ^ splitmix64(index),
        ))
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi > lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.rng.gen_range(0..n)
    }

    /// Standard normal draw via inverse-CDF (ties the simulator's noise
    /// quality to the same verified quantile family as the statistics).
    ///
    /// Uses the Acklam-only fast quantile (relative error < 1.15e-9): the
    /// Halley refinement used for inference costs ~20× more per draw and
    /// is far below the simulator's own noise floor. Both the interpreter
    /// and the compiled replay engine go through this method, so they
    /// consume identical RNG words and stay bit-identical.
    #[inline]
    pub fn std_normal(&mut self) -> f64 {
        let u = self.rng.gen_range(1e-12..1.0 - 1e-12);
        scibench_stats::dist::normal::std_normal_inv_cdf_fast(u)
    }

    /// Normal draw with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.std_normal()
    }

    /// Log-normal draw with the given location and scale of `ln X`.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.std_normal()).exp()
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Pareto(scale, shape) draw: heavy-tailed congestion spikes.
    #[inline]
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        debug_assert!(scale > 0.0 && shape > 0.0);
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        scale / u.powf(1.0 / shape)
    }

    /// Exponential draw with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(8);
        let va: Vec<f64> = (0..10).map(|_| a.uniform()).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.uniform()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_independent_of_order() {
        let root = SimRng::new(42);
        let mut f1 = root.fork("noise");
        let _ = root.fork("other");
        let mut f2 = SimRng::new(42).fork("noise");
        for _ in 0..20 {
            assert_eq!(f1.uniform(), f2.uniform());
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let root = SimRng::new(42);
        let mut a = root.fork("a");
        let mut b = root.fork("b");
        assert_ne!(a.uniform(), b.uniform());
    }

    #[test]
    fn indexed_forks_differ() {
        let root = SimRng::new(1);
        let mut a = root.fork_indexed("rep", 0);
        let mut b = root.fork_indexed("rep", 1);
        assert_ne!(a.uniform(), b.uniform());
        let mut a2 = SimRng::new(1).fork_indexed("rep", 0);
        assert_eq!(a.seed(), a2.seed());
        a2.uniform();
        assert_eq!(a.uniform(), a2.uniform());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::new(3);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_is_positive_and_right_skewed() {
        let mut rng = SimRng::new(3);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.lognormal(0.0, 1.0)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "{mean} vs {median}");
    }

    #[test]
    fn pareto_exceeds_scale() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(5);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.exponential(3.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::new(11);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(2);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(xs, (0..50).collect::<Vec<u32>>());
    }
}
