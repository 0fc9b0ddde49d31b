//! Property-based tests of the statistical invariants that Rules 3–8
//! lean on. Strategies draw arbitrary finite samples; every property must
//! hold for *all* of them, not just the unit-test fixtures.

use proptest::prelude::*;

use scibench_stats::bootstrap::{bootstrap_ci_with, bootstrap_quantile_ci, BootstrapConfig};
use scibench_stats::ci::{mean_ci, median_ci, quantile_ci_ranks};
use scibench_stats::dist::normal::{std_normal_cdf, std_normal_inv_cdf};
use scibench_stats::dist::{ChiSquared, ContinuousDistribution, FisherF, StudentT};
use scibench_stats::histogram::{histogram, BinRule};
use scibench_stats::kde::{kde, Bandwidth};
use scibench_stats::normality::{batch_means, shapiro_wilk};
use scibench_stats::outlier::tukey_filter;
use scibench_stats::quantile::{quantile, FiveNumberSummary, QuantileMethod};
use scibench_stats::quantreg::check_loss;
use scibench_stats::rank::average_ranks;
use scibench_stats::sorted::SortedSamples;
use scibench_stats::summary::{
    arithmetic_mean, geometric_mean, harmonic_mean, sample_std_dev, OnlineMoments,
};

/// A modest positive sample.
fn positive_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..1e6, 2..200)
}

/// Any finite sample (possibly negative).
fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 2..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mean_inequality_chain(xs in positive_samples()) {
        // Rule 3/4 backbone: HM <= GM <= AM for positive data.
        let am = arithmetic_mean(&xs).unwrap();
        let gm = geometric_mean(&xs).unwrap();
        let hm = harmonic_mean(&xs).unwrap();
        prop_assert!(hm <= gm * (1.0 + 1e-9));
        prop_assert!(gm <= am * (1.0 + 1e-9));
    }

    #[test]
    fn means_are_scale_equivariant(xs in positive_samples(), c in 0.01f64..100.0) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * c).collect();
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
        prop_assert!(rel(arithmetic_mean(&scaled).unwrap(), c * arithmetic_mean(&xs).unwrap()) < 1e-9);
        prop_assert!(rel(harmonic_mean(&scaled).unwrap(), c * harmonic_mean(&xs).unwrap()) < 1e-9);
        prop_assert!(rel(geometric_mean(&scaled).unwrap(), c * geometric_mean(&xs).unwrap()) < 1e-9);
    }

    #[test]
    fn mean_bounded_by_extremes(xs in finite_samples()) {
        let m = arithmetic_mean(&xs).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(min - 1e-9 <= m && m <= max + 1e-9);
    }

    #[test]
    fn welford_matches_two_pass(xs in finite_samples()) {
        let online: OnlineMoments = xs.iter().copied().collect();
        let mean = arithmetic_mean(&xs).unwrap();
        prop_assert!((online.mean().unwrap() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        if xs.len() >= 2 {
            let sd = sample_std_dev(&xs).unwrap();
            prop_assert!((online.std_dev().unwrap() - sd).abs() < 1e-6 * (1.0 + sd));
        }
        prop_assert_eq!(online.count() as usize, xs.len());
    }

    #[test]
    fn welford_merge_is_consistent(xs in finite_samples(), split in 0usize..200) {
        let k = split.min(xs.len());
        let mut left: OnlineMoments = xs[..k].iter().copied().collect();
        let right: OnlineMoments = xs[k..].iter().copied().collect();
        left.merge(&right);
        let whole: OnlineMoments = xs.iter().copied().collect();
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn quantiles_monotone_and_bounded(xs in finite_samples(), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for method in [QuantileMethod::Interpolated, QuantileMethod::NearestRank] {
            let qlo = quantile(&xs, lo, method).unwrap();
            let qhi = quantile(&xs, hi, method).unwrap();
            prop_assert!(qlo <= qhi + 1e-12);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(min <= qlo && qhi <= max);
        }
    }

    #[test]
    fn five_number_summary_is_ordered(xs in finite_samples()) {
        let s = FiveNumberSummary::from_samples(&xs).unwrap();
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        prop_assert!(s.iqr() >= 0.0);
    }

    #[test]
    fn mean_ci_contains_mean_and_orders_by_confidence(xs in finite_samples()) {
        prop_assume!(xs.len() >= 3);
        let m = arithmetic_mean(&xs).unwrap();
        if let (Ok(c90), Ok(c99)) = (mean_ci(&xs, 0.90), mean_ci(&xs, 0.99)) {
            prop_assert!(c90.contains(m));
            prop_assert!(c99.contains(m));
            prop_assert!(c99.width() >= c90.width() - 1e-12);
        }
    }

    #[test]
    fn median_ci_brackets_the_median(xs in prop::collection::vec(-1e6f64..1e6, 10..300)) {
        let med = quantile(&xs, 0.5, QuantileMethod::Interpolated).unwrap();
        if let Ok(ci) = median_ci(&xs, 0.95) {
            prop_assert!(ci.lower <= med + 1e-12 && med <= ci.upper + 1e-12);
            // Bounds are observed order statistics.
            prop_assert!(xs.contains(&ci.lower));
            prop_assert!(xs.contains(&ci.upper));
        }
    }

    #[test]
    fn quantile_ci_ranks_are_valid(n in 10usize..5000, p in 0.05f64..0.95, conf in 0.80f64..0.99) {
        if let Ok(rb) = quantile_ci_ranks(n, p, conf) {
            prop_assert!(rb.lower >= 1);
            prop_assert!(rb.upper <= n);
            prop_assert!(rb.lower < rb.upper);
        }
    }

    #[test]
    fn tukey_filter_partitions(xs in finite_samples()) {
        let f = tukey_filter(&xs).unwrap();
        prop_assert_eq!(f.kept.len() + f.removed.len(), xs.len());
        for v in &f.kept {
            prop_assert!(f.fences.contains(*v));
        }
        for v in &f.removed {
            prop_assert!(!f.fences.contains(*v));
        }
    }

    #[test]
    fn histogram_conserves_observations(xs in finite_samples()) {
        for rule in [BinRule::Sturges, BinRule::FreedmanDiaconis, BinRule::Fixed(7)] {
            let h = histogram(&xs, rule).unwrap();
            prop_assert_eq!(h.counts.iter().sum::<u64>() as usize, xs.len());
        }
    }

    #[test]
    fn batch_means_preserve_mean_on_exact_multiples(
        blocks in 2usize..20,
        k in 1usize..10,
        base in -100.0f64..100.0,
    ) {
        let xs: Vec<f64> = (0..blocks * k).map(|i| base + (i % 7) as f64).collect();
        let b = batch_means(&xs, k).unwrap();
        prop_assert_eq!(b.len(), blocks);
        let m1 = arithmetic_mean(&xs).unwrap();
        let m2 = arithmetic_mean(&b).unwrap();
        prop_assert!((m1 - m2).abs() < 1e-9);
    }

    #[test]
    fn ranks_sum_invariant(xs in finite_samples()) {
        let r = average_ranks(&xs).unwrap();
        let n = xs.len() as f64;
        let total: f64 = r.iter().sum();
        prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-6);
        prop_assert!(r.iter().all(|&v| v >= 1.0 && v <= n));
    }

    #[test]
    fn normal_cdf_inv_round_trip(p in 0.001f64..0.999) {
        let z = std_normal_inv_cdf(p);
        prop_assert!((std_normal_cdf(z) - p).abs() < 1e-9);
    }

    #[test]
    fn distribution_cdfs_are_monotone(x1 in -50.0f64..50.0, x2 in -50.0f64..50.0, df in 1.0f64..50.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let t = StudentT::new(df).unwrap();
        prop_assert!(t.cdf(lo) <= t.cdf(hi) + 1e-12);
        let c = ChiSquared::new(df).unwrap();
        prop_assert!(c.cdf(lo.abs()) <= c.cdf(hi.abs().max(lo.abs())) + 1e-12);
        let f = FisherF::new(df, df + 1.0).unwrap();
        prop_assert!(f.cdf(lo.abs()) <= f.cdf(hi.abs().max(lo.abs())) + 1e-12);
    }

    #[test]
    fn shapiro_wilk_outputs_in_range(xs in prop::collection::vec(-100.0f64..100.0, 3..500)) {
        // Skip constant samples (zero variance is a documented error).
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assume!(max > min);
        let sw = shapiro_wilk(&xs).unwrap();
        prop_assert!(sw.w > 0.0 && sw.w <= 1.0, "W = {}", sw.w);
        prop_assert!((0.0..=1.0).contains(&sw.p_value));
    }

    #[test]
    fn kde_density_is_nonnegative_and_normalized(xs in prop::collection::vec(-1e3f64..1e3, 5..300)) {
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assume!(max > min);
        let d = kde(&xs, Bandwidth::Silverman, 256).unwrap();
        prop_assert!(d.density.iter().all(|&v| v >= 0.0));
        prop_assert!((d.integral() - 1.0).abs() < 0.05, "integral {}", d.integral());
    }

    #[test]
    fn ecdf_is_a_distribution_function(xs in finite_samples(), probe in -1e6f64..1e6) {
        use scibench_stats::ecdf::Ecdf;
        let e = Ecdf::from_samples(&xs).unwrap();
        let v = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&v));
        // Monotone: F(probe) <= F(probe + delta).
        prop_assert!(v <= e.eval(probe + 1.0) + 1e-15);
        // Galois: F(inverse(p)) >= p.
        prop_assert!(e.eval(e.inverse(0.5)) >= 0.5 - 1e-12);
        // KS distance to itself is 0; to anything else within [0, 1].
        prop_assert_eq!(e.ks_distance(&e), 0.0);
    }

    #[test]
    fn ecdf_steps_are_in_bounds_monotone_at_adversarial_sizes(
        xs in prop::collection::vec(-1e6f64..1e6, 1..400),
        max_points in 1usize..50,
    ) {
        use scibench_stats::ecdf::Ecdf;
        // Boundary sweep for the float → usize thinning cast: every
        // returned step must be an observed order statistic with a
        // monotone plotting position, down to n, m ∈ {1, 2, 3}.
        let e = Ecdf::from_samples(&xs).unwrap();
        let steps = e.steps(max_points);
        prop_assert!(!steps.is_empty());
        prop_assert!(steps.len() <= max_points.max(2).min(xs.len()));
        for w in steps.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "x not monotone");
            prop_assert!(w[0].1 < w[1].1 + 1e-15, "F not monotone");
        }
        for (x, f) in &steps {
            prop_assert!(xs.contains(x), "step x {x} not an observation");
            prop_assert!((0.0..=1.0).contains(f));
        }
        prop_assert!((steps.last().unwrap().1 - 1.0).abs() < 1e-12, "last step must reach 1");
    }

    #[test]
    fn qq_thinning_stays_in_bounds_and_monotone(
        xs in prop::collection::vec(-1e6f64..1e6, 1..500),
        max_points in 2usize..40,
    ) {
        use scibench_stats::qq::qq_points;
        let qq = qq_points(&xs, max_points).unwrap();
        prop_assert!(qq.points.len() <= max_points.max(2));
        prop_assert!(!qq.points.is_empty());
        for w in qq.points.windows(2) {
            prop_assert!(w[0].theoretical <= w[1].theoretical);
            prop_assert!(w[0].sample <= w[1].sample, "sample quantiles not monotone");
        }
        for p in &qq.points {
            prop_assert!(xs.contains(&p.sample), "thinned sample {p:?} not an observation");
            prop_assert!(p.theoretical.is_finite());
        }
    }

    #[test]
    fn shapiro_wilk_thinned_never_indexes_out_of_bounds(
        xs in prop::collection::vec(-100.0f64..100.0, 3..800),
        max_n in 3usize..50,
    ) {
        use scibench_stats::normality::shapiro_wilk_thinned;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assume!(max > min);
        // Must never panic; on success W stays in (0, 1].
        if let Ok(sw) = shapiro_wilk_thinned(&xs, max_n) {
            prop_assert!(sw.w > 0.0 && sw.w <= 1.0);
        }
    }

    #[test]
    fn kde_binned_edges_never_panic(
        xs in prop::collection::vec(-1e3f64..1e3, 2..40),
        grid in 2usize..64,
    ) {
        // Duplicate the sample to cross the binned threshold indirectly is
        // too slow; instead hammer `at` across and beyond the grid edges,
        // which exercises the clamped interpolation index.
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assume!(max > min);
        let d = kde(&xs, Bandwidth::Silverman, grid).unwrap();
        let lo = d.x[0];
        let hi = *d.x.last().unwrap();
        for probe in [lo, hi, lo - 1.0, hi + 1.0, (lo + hi) / 2.0,
                      f64::from_bits(hi.to_bits() - 1), f64::from_bits(lo.to_bits() + 1)] {
            let v = d.at(probe);
            prop_assert!(v >= 0.0 && v.is_finite());
        }
    }

    #[test]
    fn describe_is_internally_consistent(xs in positive_samples()) {
        use scibench_stats::describe::describe;
        let d = describe(&xs).unwrap();
        prop_assert_eq!(d.n, xs.len());
        // Mean chain for positive data.
        let gm = d.geometric_mean.unwrap();
        let hm = d.harmonic_mean.unwrap();
        prop_assert!(hm <= gm * (1.0 + 1e-9) && gm <= d.mean * (1.0 + 1e-9));
        // Mean within [min, max].
        prop_assert!(d.five_number.min - 1e-9 <= d.mean && d.mean <= d.five_number.max + 1e-9);
    }

    #[test]
    fn power_is_monotone_in_n_and_effect(
        n1 in 2usize..500,
        n2 in 2usize..500,
        d1 in 0.05f64..2.0,
        d2 in 0.05f64..2.0,
    ) {
        use scibench_stats::power::power_two_sample;
        let (n_lo, n_hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let (d_lo, d_hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        // More samples -> more power (same effect).
        prop_assert!(
            power_two_sample(n_hi, d_lo, 0.05).unwrap()
                >= power_two_sample(n_lo, d_lo, 0.05).unwrap() - 1e-12
        );
        // Bigger effect -> more power (same n).
        prop_assert!(
            power_two_sample(n_lo, d_hi, 0.05).unwrap()
                >= power_two_sample(n_lo, d_lo, 0.05).unwrap() - 1e-12
        );
    }

    #[test]
    fn check_loss_is_minimized_at_group_quantiles(
        a in prop::collection::vec(0.0f64..100.0, 10..60),
        b in prop::collection::vec(0.0f64..100.0, 10..60),
        tau in 0.1f64..0.9,
        eps in 0.05f64..5.0,
    ) {
        // Exact two-sample QR solution: the nearest-rank quantile is a
        // minimizer of the check loss, so perturbing either coefficient
        // cannot decrease it. (The interpolated type-7 quantile is NOT a
        // minimizer in general — which is why the CI machinery uses order
        // statistics.)
        let qa = quantile(&a, tau, QuantileMethod::NearestRank).unwrap();
        let qb = quantile(&b, tau, QuantileMethod::NearestRank).unwrap();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &v in &a { x.extend([1.0, 0.0]); y.push(v); }
        for &v in &b { x.extend([1.0, 1.0]); y.push(v); }
        let best = [qa, qb - qa];
        let opt = check_loss(&x, 2, &y, &best, tau);
        for delta in [[eps, 0.0], [-eps, 0.0], [0.0, eps], [0.0, -eps]] {
            let cand = [best[0] + delta[0], best[1] + delta[1]];
            let loss = check_loss(&x, 2, &y, &cand, tau);
            prop_assert!(loss >= opt - 1e-9, "perturbed loss {loss} < optimum {opt}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bootstrap_ci_bit_identical_across_threads_and_chunks(
        xs in prop::collection::vec(0.1f64..1e3, 10..60),
        reps in 10usize..300,
        chunk in 1usize..400,
        seed in any::<u64>(),
    ) {
        // The determinism contract: chunk size and thread count are pure
        // execution knobs; every replicate's stream derives from
        // (seed, rep) alone, so the CI is bit-identical regardless.
        let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
        let reference = bootstrap_ci_with(&xs, 0.95, &BootstrapConfig::new(reps, seed), mean).unwrap();
        for threads in [1usize, 2, 8] {
            let tuned = bootstrap_ci_with(
                &xs,
                0.95,
                &BootstrapConfig::new(reps, seed).chunk_size(chunk).threads(threads),
                mean,
            )
            .unwrap();
            prop_assert_eq!(reference.lower.to_bits(), tuned.lower.to_bits());
            prop_assert_eq!(reference.upper.to_bits(), tuned.upper.to_bits());
            prop_assert_eq!(reference.estimate.to_bits(), tuned.estimate.to_bits());
        }
    }

    #[test]
    fn bootstrap_reps_below_chunk_size_work(
        xs in prop::collection::vec(0.1f64..1e3, 10..40),
        reps in 10usize..200,
        seed in any::<u64>(),
    ) {
        // Regression guard: fewer replicates than one chunk must still
        // produce the same CI as any other chunking.
        let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
        let small = bootstrap_ci_with(&xs, 0.95, &BootstrapConfig::new(reps, seed).chunk_size(reps + 1), mean).unwrap();
        let reference = bootstrap_ci_with(&xs, 0.95, &BootstrapConfig::new(reps, seed), mean).unwrap();
        prop_assert_eq!(small.lower.to_bits(), reference.lower.to_bits());
        prop_assert_eq!(small.upper.to_bits(), reference.upper.to_bits());
    }

    #[test]
    fn bootstrap_quantile_ci_is_deterministic_and_ordered(
        xs in prop::collection::vec(0.1f64..1e3, 10..80),
        p in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let sorted = SortedSamples::new(&xs).unwrap();
        let a = bootstrap_quantile_ci(&sorted, p, 0.95, 500, seed).unwrap();
        let b = bootstrap_quantile_ci(&sorted, p, 0.95, 500, seed).unwrap();
        prop_assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        prop_assert_eq!(a.upper.to_bits(), b.upper.to_bits());
        prop_assert!(a.lower <= a.upper);
        prop_assert!(sorted.min() <= a.lower && a.upper <= sorted.max());
    }
}
