//! Property-based tests of the statistical invariants that Rules 3–8
//! lean on. Strategies draw arbitrary finite samples; every property must
//! hold for *all* of them, not just the unit-test fixtures.

use proptest::prelude::*;

use scibench_stats::bootstrap::{bootstrap_diff_ci, bootstrap_quantile_ci};
use scibench_stats::ci::{
    mean_ci, median_ci, quantile_ci, quantile_ci_ranks, required_samples_normal, ConfidenceInterval,
};
use scibench_stats::describe::{excess_kurtosis, skewness};
use scibench_stats::dist::normal::{
    std_normal_cdf, std_normal_inv_cdf, std_normal_pdf, z_critical,
};
use scibench_stats::dist::student_t::t_critical;
use scibench_stats::dist::{ChiSquared, ContinuousDistribution, FisherF, LogNormal, StudentT};
use scibench_stats::ecdf::Ecdf;
use scibench_stats::histogram::{histogram, BinRule};
use scibench_stats::htest::{
    cohens_d, effect_magnitude, kruskal_wallis, one_way_anova, pairwise_bonferroni, pooled_t_test,
    welch_t_test, EffectMagnitude,
};
use scibench_stats::kde::{kde, resolve_bandwidth, Bandwidth};
use scibench_stats::normality::{batch_means, shapiro_wilk, shapiro_wilk_thinned};
use scibench_stats::outlier::{tukey_filter, tukey_filter_with_constant};
use scibench_stats::power::minimum_detectable_effect;
use scibench_stats::qq::qq_points;
use scibench_stats::quantile::{
    median_absolute_deviation, quantile, FiveNumberSummary, QuantileMethod,
};
use scibench_stats::quantreg::check_loss;
use scibench_stats::rank::average_ranks;
use scibench_stats::sketch::{MergeableSummary, TDigest};
use scibench_stats::sorted::SortedSamples;
use scibench_stats::special::{beta_inc, erf, erfc, gamma_p, ln_gamma};
use scibench_stats::summary::{
    arithmetic_mean, geometric_mean, harmonic_mean, sample_std_dev, sample_variance,
    weighted_arithmetic_mean, weighted_harmonic_mean, OnlineMoments,
};
use scibench_stats::Sample;

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

/// A sample with many ties: small integers as floats.
fn tied_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u32..12).prop_map(f64::from), 2..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- Distribution identities -----------------------------------

    #[test]
    fn chi_squared_with_one_df_is_a_squared_normal(x in 0.01f64..30.0) {
        // Z² ~ χ²(1): P[Z² ≤ x] = P[|Z| ≤ √x] = 2Φ(√x) − 1.
        let c = ChiSquared::new(1.0).unwrap();
        let via_normal = 2.0 * std_normal_cdf(x.sqrt()) - 1.0;
        prop_assert!((c.cdf(x) - via_normal).abs() < 1e-9, "x={}", x);
    }

    #[test]
    fn chi_squared_critical_values_grow_with_k_and_with_confidence(
        k in 1.0f64..60.0,
        alpha in 0.001f64..0.5,
    ) {
        let c = ChiSquared::new(k).unwrap();
        prop_assert_eq!(c.degrees_of_freedom(), k);
        let here = c.critical(alpha).unwrap();
        prop_assert!(ChiSquared::new(k + 1.0).unwrap().critical(alpha).unwrap() > here);
        prop_assert!(c.critical(alpha / 2.0).unwrap() > here);
    }

    #[test]
    fn fisher_f_with_two_numerator_df_has_a_closed_form(d2 in 1.0f64..60.0, x in 0.0f64..50.0) {
        // F(2, ν): P[F ≤ x] = 1 − (1 + 2x/ν)^(−ν/2).
        let want = 1.0 - (1.0 + 2.0 * x / d2).powf(-d2 / 2.0);
        prop_assert!((FisherF::new(2.0, d2).unwrap().cdf(x) - want).abs() < 1e-10, "d2={} x={}", d2, x);
    }

    #[test]
    fn student_t_with_two_df_has_a_closed_form(x in -50.0f64..50.0) {
        // t(2): P[T ≤ x] = 1/2 + x / (2√(2 + x²)).
        let t = StudentT::new(2.0).unwrap();
        prop_assert_eq!(t.degrees_of_freedom(), 2.0);
        let want = 0.5 + x / (2.0 * (2.0 + x * x).sqrt());
        prop_assert!((t.cdf(x) - want).abs() < 1e-11, "x={}", x);
    }

    #[test]
    fn pdfs_integrate_to_their_cdfs(
        k in 1.0f64..30.0,
        d1 in 1.0f64..30.0,
        d2 in 1.0f64..30.0,
        mu in -1.0f64..1.0,
        sigma in 0.2f64..1.5,
        x in 0.1f64..10.0,
    ) {
        // Each pdf has its own closed form; Simpson's rule over [x/4, x],
        // clear of the pole some have at 0, ties it to the cdf.
        fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64) -> f64 {
            let steps = 2000;
            let h = (b - a) / steps as f64;
            let inner: f64 = (1..steps)
                .map(|i| f(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 })
                .sum();
            (f(a) + inner + f(b)) * h / 3.0
        }
        let a = x / 4.0;
        let chi = ChiSquared::new(k).unwrap();
        let f = FisherF::new(d1, d2).unwrap();
        let ln = LogNormal::new(mu, sigma).unwrap();
        let gap = |pdf: &dyn Fn(f64) -> f64, cdf: &dyn Fn(f64) -> f64| {
            (simpson(pdf, a, x) - (cdf(x) - cdf(a))).abs()
        };
        prop_assert!(gap(&|t| chi.pdf(t), &|t| chi.cdf(t)) < 1e-8, "chi2({}) at {}", k, x);
        prop_assert!(gap(&|t| f.pdf(t), &|t| f.cdf(t)) < 1e-8, "F({}, {}) at {}", d1, d2, x);
        prop_assert!(gap(&|t| ln.pdf(t), &|t| ln.cdf(t)) < 1e-8, "lognormal({}, {}) at {}", mu, sigma, x);
    }

    #[test]
    fn fisher_f_reciprocal_swaps_the_degrees_of_freedom(
        d1 in 1.0f64..40.0,
        d2 in 1.0f64..40.0,
        x in 0.05f64..20.0,
    ) {
        // 1/F(d1, d2) ~ F(d2, d1): P[F ≤ x] = P[F' ≥ 1/x].
        let f = FisherF::new(d1, d2).unwrap();
        let g = FisherF::new(d2, d1).unwrap();
        prop_assert!((f.cdf(x) + g.cdf(1.0 / x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn student_t_is_symmetric_with_tails_heavier_than_normal(
        df in 1.0f64..100.0,
        x in 0.1f64..6.0,
    ) {
        let t = StudentT::new(df).unwrap();
        prop_assert!((t.cdf(x) + t.cdf(-x) - 1.0).abs() < 1e-12);
        prop_assert!((t.pdf(x) - t.pdf(-x)).abs() < 1e-15);
        prop_assert!(t.cdf(-x) >= std_normal_cdf(-x) - 1e-12, "df={} x={}", df, x);
    }

    #[test]
    fn t_critical_shrinks_toward_z_as_df_grows(df in 1.0f64..200.0, alpha in 0.001f64..0.5) {
        let t_here = t_critical(df, alpha).unwrap();
        let t_next = t_critical(df + 1.0, alpha).unwrap();
        let z = z_critical(alpha).unwrap();
        prop_assert!(t_next <= t_here + 1e-9, "df={} alpha={}", df, alpha);
        prop_assert!(z <= t_next + 1e-9, "df={} alpha={}", df, alpha);
    }

    #[test]
    fn lognormal_quantile_is_the_exp_of_a_normal_quantile(
        mu in -5.0f64..5.0,
        sigma in 0.05f64..3.0,
        p in 0.001f64..0.999,
    ) {
        let d = LogNormal::new(mu, sigma).unwrap();
        prop_assert_eq!((d.location(), d.scale()), (mu, sigma));
        let x = d.inv_cdf(p);
        prop_assert!((x.ln() - (mu + sigma * std_normal_inv_cdf(p))).abs() < 1e-9);
        prop_assert!((d.cdf(x) - p).abs() < 1e-8);
    }

    #[test]
    fn erf_is_odd_and_erfc_complements_it(x in -6.0f64..6.0) {
        prop_assert!((erf(-x) + erf(x)).abs() < 1e-15);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-14);
        prop_assert!((-1.0..=1.0).contains(&erf(x)));
    }

    #[test]
    fn regularized_gamma_is_the_poisson_tail_at_integer_shapes(k in 1u32..20, x in 0.0f64..50.0) {
        // P(k, x) = P[Poisson(x) ≥ k] = 1 − e^(−x) Σ_{i<k} xⁱ/i!.
        let mut term = (-x).exp();
        let mut below = 0.0;
        for i in 0..k {
            below += term;
            term *= x / f64::from(i + 1);
        }
        prop_assert!((gamma_p(f64::from(k), x) - (1.0 - below)).abs() < 1e-10, "k={} x={}", k, x);
    }

    #[test]
    fn incomplete_beta_with_a_unit_shape_has_a_closed_form(a in 0.1f64..20.0, x in 0.0f64..=1.0) {
        // I_x(a, 1) = xᵃ and I_x(1, b) = 1 − (1 − x)ᵇ.
        prop_assert!((beta_inc(a, 1.0, x) - x.powf(a)).abs() < 1e-10, "a={} x={}", a, x);
        prop_assert!((beta_inc(1.0, a, x) - (1.0 - (1.0 - x).powf(a))).abs() < 1e-10, "b={} x={}", a, x);
    }

    #[test]
    fn standard_normal_pdf_is_the_slope_of_the_cdf(z in -6.0f64..6.0) {
        let h = 1e-5;
        let slope = (std_normal_cdf(z + h) - std_normal_cdf(z - h)) / (2.0 * h);
        prop_assert!((std_normal_pdf(z) - slope).abs() < 1e-8, "z={}", z);
        prop_assert_eq!(std_normal_pdf(z), std_normal_pdf(-z));
        prop_assert!(std_normal_pdf(z) <= std_normal_pdf(0.0));
    }

    #[test]
    fn ln_gamma_satisfies_the_recurrence(x in 0.1f64..100.0) {
        // Γ(x + 1) = x·Γ(x).
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()), "x={}", x);
    }

    // --- Order statistics ------------------------------------------

    #[test]
    fn quantiles_follow_a_shift_of_the_data(
        xs in finite_samples(),
        c in -1e3f64..1e3,
        p in 0.0f64..=1.0,
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        for method in [QuantileMethod::Interpolated, QuantileMethod::NearestRank] {
            let q = quantile(&xs, p, method).unwrap();
            let qs = quantile(&shifted, p, method).unwrap();
            prop_assert!((qs - (q + c)).abs() < 1e-6, "{:?}: {} vs {}", method, qs, q + c);
        }
    }

    #[test]
    fn quantiles_follow_a_positive_scaling_of_the_data(
        xs in finite_samples(),
        c in 0.01f64..100.0,
        p in 0.0f64..=1.0,
    ) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * c).collect();
        for method in [QuantileMethod::Interpolated, QuantileMethod::NearestRank] {
            let q = quantile(&xs, p, method).unwrap();
            let qs = quantile(&scaled, p, method).unwrap();
            prop_assert!((qs - q * c).abs() <= 1e-9 * (1.0 + (q * c).abs()));
        }
    }

    #[test]
    fn quantiles_ignore_the_input_order(xs in finite_samples(), p in 0.0f64..=1.0) {
        let reversed: Vec<f64> = xs.iter().rev().copied().collect();
        for method in [QuantileMethod::Interpolated, QuantileMethod::NearestRank] {
            prop_assert_eq!(
                quantile(&xs, p, method).unwrap().to_bits(),
                quantile(&reversed, p, method).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn mad_is_nonnegative_and_shift_invariant(xs in finite_samples(), c in -1e3f64..1e3) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let mad = median_absolute_deviation(&xs).unwrap();
        prop_assert!(mad >= 0.0);
        prop_assert!((median_absolute_deviation(&shifted).unwrap() - mad).abs() < 1e-6);
    }

    #[test]
    fn sample_variance_ignores_shifts_and_scales_with_the_square(
        xs in finite_samples(),
        c in -1e3f64..1e3,
        a in 0.01f64..100.0,
    ) {
        let v = sample_variance(&xs).unwrap();
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let scaled: Vec<f64> = xs.iter().map(|x| a * x).collect();
        prop_assert!((sample_variance(&shifted).unwrap() - v).abs() <= 1e-9 * (1.0 + v));
        let want = a * a * v;
        prop_assert!((sample_variance(&scaled).unwrap() - want).abs() <= 1e-9 * (1.0 + want));
    }

    #[test]
    fn equal_weights_give_the_plain_means(xs in positive_samples(), w in 0.01f64..100.0) {
        let ws = vec![w; xs.len()];
        let (am, hm) = (arithmetic_mean(&xs).unwrap(), harmonic_mean(&xs).unwrap());
        prop_assert!((weighted_arithmetic_mean(&xs, &ws).unwrap() - am).abs() <= 1e-9 * am);
        prop_assert!((weighted_harmonic_mean(&xs, &ws).unwrap() - hm).abs() <= 1e-9 * hm);
    }

    #[test]
    fn order_statistic_cis_move_exactly_with_a_shift(
        xs in prop::collection::vec(-1e3f64..1e3, 60..300),
        c in -1e3f64..1e3,
        p in 0.1f64..0.9,
    ) {
        // The bounds are observations, so shifting every observation
        // shifts them by the same rounded addition.
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        match (quantile_ci(&xs, p, 0.95), quantile_ci(&shifted, p, 0.95)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(b.lower, a.lower + c);
                prop_assert_eq!(b.upper, a.upper + c);
            }
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }
    }

    #[test]
    fn tukey_filter_never_removes_the_middle_half(xs in finite_samples(), c in 0.0f64..5.0) {
        let s = FiveNumberSummary::from_samples(&xs).unwrap();
        let f = tukey_filter_with_constant(&xs, c).unwrap();
        for &x in &f.removed {
            prop_assert!(!(s.q1..=s.q3).contains(&x), "removed {} inside [{}, {}]", x, s.q1, s.q3);
        }
        // A wider fence removes a subset of what a narrower one removes.
        let wider = tukey_filter_with_constant(&xs, c + 1.0).unwrap();
        prop_assert!(wider.removed.iter().all(|x| f.removed.contains(x)));
    }

    // --- Ranks and ECDFs -------------------------------------------

    #[test]
    fn mid_ranks_preserve_order_and_ties(xs in tied_samples()) {
        let r = average_ranks(&xs).unwrap();
        let n = xs.len() as f64;
        for i in 0..xs.len() {
            prop_assert!(1.0 <= r[i] && r[i] <= n);
            for j in 0..xs.len() {
                if xs[i] < xs[j] {
                    prop_assert!(r[i] < r[j]);
                } else if xs[i] == xs[j] {
                    prop_assert_eq!(r[i], r[j]);
                }
            }
        }
    }

    #[test]
    fn ks_distance_satisfies_the_triangle_inequality(
        xs in tied_samples(),
        ys in tied_samples(),
        zs in tied_samples(),
    ) {
        let [a, b, c] = [&xs, &ys, &zs].map(|v| Ecdf::from_samples(v).unwrap());
        prop_assert!(a.ks_distance(&c) <= a.ks_distance(&b) + b.ks_distance(&c) + 1e-12);
    }

    #[test]
    fn ks_distance_ignores_an_increasing_map_of_both_samples(xs in tied_samples(), ys in tied_samples()) {
        // x ↦ x³ + 2x is strictly increasing and exact on small integers.
        let f = |v: &[f64]| v.iter().map(|x| x * x * x + 2.0 * x).collect::<Vec<f64>>();
        let d = Ecdf::from_samples(&xs).unwrap().ks_distance(&Ecdf::from_samples(&ys).unwrap());
        let mapped = Ecdf::from_samples(&f(&xs)).unwrap().ks_distance(&Ecdf::from_samples(&f(&ys)).unwrap());
        prop_assert_eq!(d, mapped);
    }

    // --- Intervals and tests ----------------------------------------

    #[test]
    fn mean_ci_moves_with_a_shift_and_keeps_its_width(xs in finite_samples(), c in -1e3f64..1e3) {
        prop_assume!(sample_std_dev(&xs).unwrap() > 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let a = mean_ci(&xs, 0.95).unwrap();
        let b = mean_ci(&shifted, 0.95).unwrap();
        prop_assert!((b.estimate - (a.estimate + c)).abs() < 1e-6);
        prop_assert!((b.width() - a.width()).abs() < 1e-6 * (1.0 + a.width()));
    }

    #[test]
    fn welch_t_is_antisymmetric_in_its_groups(xs in finite_samples(), ys in finite_samples()) {
        prop_assume!(sample_std_dev(&xs).unwrap() > 0.0 || sample_std_dev(&ys).unwrap() > 0.0);
        let ab = welch_t_test(&xs, &ys).unwrap();
        let ba = welch_t_test(&ys, &xs).unwrap();
        prop_assert!((ab.statistic + ba.statistic).abs() <= 1e-12 * (1.0 + ab.statistic.abs()));
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
    }

    #[test]
    fn cohens_d_is_antisymmetric_and_unit_free(
        xs in positive_samples(),
        ys in positive_samples(),
        c in 0.01f64..100.0,
    ) {
        let d = cohens_d(&xs, &ys).unwrap();
        prop_assert!((cohens_d(&ys, &xs).unwrap() + d).abs() <= 1e-12 * (1.0 + d.abs()));
        let (sx, sy): (Vec<f64>, Vec<f64>) =
            (xs.iter().map(|x| x * c).collect(), ys.iter().map(|y| y * c).collect());
        prop_assert!((cohens_d(&sx, &sy).unwrap() - d).abs() <= 1e-9 * (1.0 + d.abs()));
    }

    #[test]
    fn qq_straightness_is_invariant_under_positive_affine_maps(
        xs in prop::collection::vec(-1e3f64..1e3, 5..200),
        a in 0.01f64..100.0,
        b in -1e3f64..1e3,
    ) {
        prop_assume!(sample_std_dev(&xs).unwrap() > 0.0);
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let (px, py) = (qq_points(&xs, 100).unwrap(), qq_points(&ys, 100).unwrap());
        prop_assert!((px.straightness() - py.straightness()).abs() < 1e-9);
        prop_assert!((py.line.slope - a * px.line.slope).abs() <= 1e-9 * (1.0 + py.line.slope.abs()));
    }

    #[test]
    fn bootstrap_diff_ci_estimates_the_difference_within_ordered_bounds(
        xs in prop::collection::vec(0.1f64..1e3, 5..40),
        ys in prop::collection::vec(0.1f64..1e3, 5..40),
        seed in any::<u64>(),
    ) {
        let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
        let ci = bootstrap_diff_ci(&xs, &ys, 0.95, 200, seed, mean).unwrap();
        prop_assert_eq!(ci.estimate, mean(&xs) - mean(&ys));
        prop_assert!(ci.lower <= ci.upper);
    }

    // --- Streaming summaries ---------------------------------------

    #[test]
    fn tdigest_quantiles_are_monotone_within_the_extrema(
        xs in prop::collection::vec(-1e6f64..1e6, 1..2000),
        delta in 20u32..300,
        a in 0.0f64..=1.0,
        b in 0.0f64..=1.0,
    ) {
        let mut d = TDigest::new(delta).unwrap();
        xs.iter().for_each(|&x| d.push(x));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (qa, qb) = (d.quantile(lo).unwrap(), d.quantile(hi).unwrap());
        prop_assert!(qa <= qb, "q({}) = {} > q({}) = {}", lo, qa, hi, qb);
        prop_assert!(d.min().unwrap() <= qa && qb <= d.max().unwrap());
        prop_assert_eq!(d.count() as usize, xs.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- Shape statistics and tests under transformations ----------

    #[test]
    fn bowley_skewness_lies_in_the_unit_interval(xs in finite_samples()) {
        if let Some(b) = FiveNumberSummary::from_samples(&xs).unwrap().bowley_skewness() {
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&b), "{}", b);
        }
    }

    #[test]
    fn five_number_summary_mirrors_under_reflection(xs in finite_samples()) {
        let s = FiveNumberSummary::from_samples(&xs).unwrap();
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        let r = FiveNumberSummary::from_samples(&neg).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs());
        prop_assert_eq!(r.min, -s.max);
        prop_assert_eq!(r.max, -s.min);
        prop_assert!(close(r.q1, -s.q3) && close(r.median, -s.median) && close(r.q3, -s.q1));
    }

    #[test]
    fn skewness_flips_and_kurtosis_stays_under_reflection(xs in prop::collection::vec(-1e3f64..1e3, 4..200)) {
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        match (skewness(&xs).unwrap(), skewness(&neg).unwrap()) {
            (Some(a), Some(b)) => prop_assert!((a + b).abs() <= 1e-9 * (1.0 + a.abs())),
            (a, b) => prop_assert_eq!(a, b),
        }
        match (excess_kurtosis(&xs).unwrap(), excess_kurtosis(&neg).unwrap()) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs())),
            (a, b) => prop_assert_eq!(a, b),
        }
    }

    #[test]
    fn shapiro_wilk_ignores_positive_affine_maps(
        xs in prop::collection::vec(-1e3f64..1e3, 3..200),
        a in 0.01f64..100.0,
        b in -1e3f64..1e3,
    ) {
        prop_assume!(sample_std_dev(&xs).unwrap() > 1e-6);
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let (sx, sy) = (shapiro_wilk(&xs).unwrap(), shapiro_wilk(&ys).unwrap());
        prop_assert!((sx.w - sy.w).abs() < 1e-9, "{} vs {}", sx.w, sy.w);
        prop_assert_eq!(sx.n, sy.n);
    }

    #[test]
    fn kruskal_wallis_depends_only_on_ranks(
        groups in prop::collection::vec(tied_samples(), 2..5),
    ) {
        // x ↦ x³ + 2x is strictly increasing and exact on small integers,
        // so it keeps every rank and every tie.
        let mapped: Vec<Vec<f64>> =
            groups.iter().map(|g| g.iter().map(|x| x * x * x + 2.0 * x).collect()).collect();
        let samples: Vec<Sample<'_>> = groups.iter().map(|g| Sample::new(g).unwrap()).collect();
        let mapped_samples: Vec<Sample<'_>> = mapped.iter().map(|g| Sample::new(g).unwrap()).collect();
        let a = kruskal_wallis(&samples.iter().collect::<Vec<_>>());
        let b = kruskal_wallis(&mapped_samples.iter().collect::<Vec<_>>());
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert!((a.statistic - b.statistic).abs() <= 1e-9 * (1.0 + a.statistic.abs()));
                prop_assert!((a.p_value - b.p_value).abs() <= 1e-9);
                prop_assert!((0.0..=1.0).contains(&a.p_value));
            }
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }

    #[test]
    fn anova_degrees_of_freedom_count_groups_and_samples(
        groups in prop::collection::vec(prop::collection::vec(-1e3f64..1e3, 2..30), 2..6),
    ) {
        let refs: Vec<&[f64]> = groups.iter().map(Vec::as_slice).collect();
        let r = one_way_anova(&refs).unwrap();
        let (k, n) = (groups.len() as f64, groups.iter().map(Vec::len).sum::<usize>() as f64);
        prop_assert_eq!(r.df_between, k - 1.0);
        prop_assert_eq!(r.df_within, n - k);
        prop_assert!(r.f >= 0.0 && r.egv >= 0.0 && r.igv > 0.0);
        prop_assert!((0.0..=1.0).contains(&r.p_value));
    }

    #[test]
    fn bonferroni_compares_every_pair_and_scales_p(
        groups in prop::collection::vec(prop::collection::vec(-1e3f64..1e3, 2..30), 2..6),
        alpha in 0.001f64..0.2,
    ) {
        let refs: Vec<&[f64]> = groups.iter().map(Vec::as_slice).collect();
        let rows = pairwise_bonferroni(&refs, alpha).unwrap();
        let k = groups.len();
        let m = k * (k - 1) / 2;
        prop_assert_eq!(rows.len(), m);
        for row in &rows {
            prop_assert!(row.i < row.j && row.j < k);
            prop_assert_eq!(row.adjusted_p, (row.test.p_value * m as f64).min(1.0));
            prop_assert_eq!(row.significant, row.adjusted_p < alpha);
        }
    }

    #[test]
    fn effect_magnitude_ignores_the_sign_and_grows_with_size(d in 0.0f64..5.0, e in 0.0f64..5.0) {
        prop_assert_eq!(effect_magnitude(d), effect_magnitude(-d));
        let (lo, hi) = if d <= e { (d, e) } else { (e, d) };
        let order = [
            EffectMagnitude::Negligible,
            EffectMagnitude::Small,
            EffectMagnitude::Medium,
            EffectMagnitude::Large,
        ];
        let rank = |d: f64| order.iter().position(|&m| m == effect_magnitude(d));
        prop_assert!(rank(lo) <= rank(hi));
    }

    #[test]
    fn quantile_ci_ranks_nest_by_confidence(
        n in 10usize..5000,
        p in 0.05f64..0.95,
        c1 in 0.5f64..0.99,
        c2 in 0.5f64..0.99,
    ) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let narrow = quantile_ci_ranks(n, p, lo).unwrap();
        let wide = quantile_ci_ranks(n, p, hi).unwrap();
        prop_assert!(wide.lower <= narrow.lower && narrow.upper <= wide.upper,
            "n={} p={}: {:?} vs {:?}", n, p, narrow, wide);
    }

    #[test]
    fn kde_bandwidths_follow_the_data_scale_and_silverman_stays_below_scott(
        xs in prop::collection::vec(-1e3f64..1e3, 5..200),
        a in 0.01f64..100.0,
        b in -1e3f64..1e3,
    ) {
        prop_assume!(sample_std_dev(&xs).unwrap() > 1e-6);
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let silverman = resolve_bandwidth(&xs, Bandwidth::Silverman).unwrap();
        let scott = resolve_bandwidth(&xs, Bandwidth::Scott).unwrap();
        // Silverman's spread is at most the standard deviation Scott uses.
        prop_assert!(silverman <= 0.9 / 1.06 * scott * (1.0 + 1e-12));
        for (rule, h) in [(Bandwidth::Silverman, silverman), (Bandwidth::Scott, scott)] {
            let mapped = resolve_bandwidth(&ys, rule).unwrap();
            prop_assert!((mapped - a * h).abs() <= 1e-9 * a * h, "{:?}: {} vs {}", rule, mapped, a * h);
        }
    }

    #[test]
    fn density_estimates_pass_through_their_grid(xs in prop::collection::vec(-1e3f64..1e3, 5..200)) {
        prop_assume!(sample_std_dev(&xs).unwrap() > 1e-6);
        let d = kde(&xs, Bandwidth::Silverman, 64).unwrap();
        let peak = d.density.iter().copied().fold(0.0, f64::max);
        for (i, (&x, &y)) in d.x.iter().zip(&d.density).enumerate() {
            prop_assert!((d.at(x) - y).abs() <= 1e-9 * peak, "grid point {}", i);
        }
        // Between two grid points the curve stays between their densities.
        for w in d.x.windows(2).zip(d.density.windows(2)) {
            let ((x0, x1), (y0, y1)) = ((w.0[0], w.0[1]), (w.1[0], w.1[1]));
            let mid = d.at(0.5 * (x0 + x1));
            prop_assert!(y0.min(y1) - 1e-9 * peak <= mid && mid <= y0.max(y1) + 1e-9 * peak);
        }
        // The mode is the grid point of the highest density.
        let at_mode = d.x.iter().position(|&x| x == d.mode()).unwrap();
        prop_assert_eq!(d.density[at_mode], peak);
    }

    #[test]
    fn shapiro_wilk_thins_only_what_exceeds_its_budget(
        xs in prop::collection::vec(-1e3f64..1e3, 3..400),
        max_n in 3usize..200,
    ) {
        prop_assume!(sample_std_dev(&xs).unwrap() > 1e-6);
        let thinned = shapiro_wilk_thinned(&xs, max_n);
        if xs.len() <= max_n {
            prop_assert_eq!(thinned, shapiro_wilk(&xs));
        } else if let Ok(r) = thinned {
            prop_assert_eq!(r.n, max_n);
        }
    }

    #[test]
    fn minimum_detectable_effect_halves_when_the_sample_quadruples(
        n in 2usize..10_000,
        alpha in 0.001f64..0.2,
        power in 0.5f64..0.99,
    ) {
        // d = (z(α/2) + z(power))·√(2/n): four times the samples, half the effect.
        let d = minimum_detectable_effect(n, alpha, power).unwrap();
        let d4 = minimum_detectable_effect(4 * n, alpha, power).unwrap();
        prop_assert!((d / d4 - 2.0).abs() < 1e-12, "{} vs {}", d, d4);
    }

    #[test]
    fn required_samples_do_not_depend_on_the_unit(
        pilot in prop::collection::vec(1.0f64..1e3, 5..100),
        c in 0.001f64..1000.0,
        rel_error in 0.01f64..0.2,
    ) {
        // The criterion is relative to the mean, so seconds or
        // milliseconds ask for the same number of runs.
        let scaled: Vec<f64> = pilot.iter().map(|x| x * c).collect();
        let n = required_samples_normal(&pilot, 0.95, rel_error).unwrap();
        let m = required_samples_normal(&scaled, 0.95, rel_error).unwrap();
        prop_assert!(n.abs_diff(m) <= 1, "{} vs {}", n, m);
    }

    #[test]
    fn mean_ci_is_symmetric_about_the_mean(xs in finite_samples(), confidence in 0.5f64..0.999) {
        let ci = mean_ci(&xs, confidence).unwrap();
        let (below, above) = (ci.estimate - ci.lower, ci.upper - ci.estimate);
        prop_assert!((below - above).abs() <= 1e-9 * (1.0 + ci.width()), "{} vs {}", below, above);
        prop_assert_eq!(ci.estimate, arithmetic_mean(&xs).unwrap());
    }

    #[test]
    fn anova_effect_size_of_two_groups_is_cohens_d(
        xs in prop::collection::vec(-1e3f64..1e3, 2..60),
        ys in prop::collection::vec(-1e3f64..1e3, 2..60),
    ) {
        // With two groups the intra-group variability is the pooled variance.
        let r = one_way_anova(&[&xs, &ys]).unwrap();
        let e = r.effect_size(arithmetic_mean(&xs).unwrap(), arithmetic_mean(&ys).unwrap());
        let d = cohens_d(&xs, &ys).unwrap();
        prop_assert!((e - d).abs() <= 1e-9 * (1.0 + d.abs()), "{} vs {}", e, d);
    }

    #[test]
    fn welch_and_pooled_t_agree_on_equal_group_sizes(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e4f64..1e4), 2..80),
    ) {
        // Equal sizes make Welch's standard error the pooled one, whatever
        // the variances; only the degrees of freedom differ.
        let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let welch = welch_t_test(&xs, &ys).unwrap();
        let pooled = pooled_t_test(&xs, &ys).unwrap();
        prop_assert!((welch.statistic - pooled.statistic).abs() <= 1e-9 * (1.0 + pooled.statistic.abs()));
        prop_assert!(welch.df.0 <= pooled.df.0 + 1e-9);
    }

    #[test]
    fn qq_plotting_positions_are_symmetric(xs in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        // Blom positions (i − 3/8)/(n + 1/4) pair up as p and 1 − p.
        let plot = qq_points(&xs, 1000).unwrap();
        prop_assert_eq!(plot.points.len(), xs.len());
        let t: Vec<f64> = plot.points.iter().map(|p| p.theoretical).collect();
        for i in 0..t.len() {
            prop_assert!((t[i] + t[t.len() - 1 - i]).abs() < 1e-9, "{} vs {}", t[i], t[t.len() - 1 - i]);
        }
    }

    /// Each compress is a merge pass of the pushed buffer into the centroid
    /// list; the bound holds between the parts' pushes.
    #[test]
    fn tdigests_stay_within_two_delta_centroids_through_merges(
        parts in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 0..3000), 1..5),
        delta in 10u32..300,
    ) {
        let mut whole = TDigest::new(delta).unwrap();
        for part in &parts {
            part.iter().for_each(|&x| whole.push(x));
            prop_assert!(whole.centroid_count() <= 2 * delta as usize, "{} centroids at δ = {}", whole.centroid_count(), delta);
        }
        prop_assert_eq!(whole.count() as usize, parts.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn disjoint_intervals_share_no_point(
        a_lo in -10.0f64..10.0,
        a_w in 0.0f64..5.0,
        b_lo in -10.0f64..10.0,
        b_w in 0.0f64..5.0,
    ) {
        let ci = |lo: f64, w: f64| ConfidenceInterval { estimate: lo + w / 2.0, lower: lo, upper: lo + w, confidence: 0.95 };
        let (a, b) = (ci(a_lo, a_w), ci(b_lo, b_w));
        prop_assert_eq!(a.disjoint_from(&b), b.disjoint_from(&a));
        let shared = a.contains(b.lower) || a.contains(b.upper) || b.contains(a.lower);
        prop_assert_eq!(a.disjoint_from(&b), !shared);
        prop_assert!(a.contains(a.estimate));
    }
}
