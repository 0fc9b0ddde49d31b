//! Statistically sound comparison of two experiments (Rules 7 and 8).
//!
//! [`compare_two`] runs the full §3.2 battery on two measurement samples:
//! CI overlap, Welch t-test, Kruskal–Wallis, effect size and (optionally)
//! quantile regression across a grid of quantiles — so a report can state
//! *which* statistic supports a claimed difference instead of eyeballing
//! means.

use scibench_stats::ci::{mean_ci, ConfidenceInterval};
use scibench_stats::error::StatsResult;
use scibench_stats::htest::{
    cohens_d, effect_magnitude, kruskal_wallis, welch_t_test, EffectMagnitude, TestResult,
};
use scibench_stats::quantreg::{two_sample, QuantileEffect};
use scibench_stats::Sample;

/// The full comparison of two samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Label of the base sample (A).
    pub label_a: String,
    /// Label of the comparison sample (B).
    pub label_b: String,
    /// CI of A's mean.
    pub mean_ci_a: ConfidenceInterval,
    /// CI of B's mean.
    pub mean_ci_b: ConfidenceInterval,
    /// CI of A's median.
    pub median_ci_a: ConfidenceInterval,
    /// CI of B's median.
    pub median_ci_b: ConfidenceInterval,
    /// Whether the mean CIs are disjoint (sufficient for significance,
    /// not necessary — §3.2).
    pub mean_cis_disjoint: bool,
    /// Whether the median CIs are disjoint.
    pub median_cis_disjoint: bool,
    /// Welch t-test on the means (requires approximate normality).
    pub t_test: TestResult,
    /// Kruskal–Wallis test on the medians (distribution-free).
    pub kruskal_wallis: TestResult,
    /// Cohen's d effect size (B − A sign convention: positive means B is
    /// larger).
    pub effect_size: f64,
    /// Magnitude bucket of the effect size.
    pub effect_magnitude: EffectMagnitude,
    /// Quantile-regression effects (present when requested).
    pub quantile_effects: Vec<QuantileEffect>,
    /// Confidence level used throughout.
    pub confidence: f64,
}

impl Comparison {
    /// Whether the difference is significant by the distribution-free
    /// test at `alpha = 1 − confidence`.
    pub fn significant(&self) -> bool {
        self.kruskal_wallis.significant_at(1.0 - self.confidence)
    }

    /// Renders an interpretable text block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} vs {} (confidence {:.0}%)\n\
             \x20 mean:   {:.6} [{:.6},{:.6}]  vs  {:.6} [{:.6},{:.6}]  disjoint: {}\n\
             \x20 median: {:.6} [{:.6},{:.6}]  vs  {:.6} [{:.6},{:.6}]  disjoint: {}\n\
             \x20 Welch t = {:.3} (p = {:.4}); Kruskal-Wallis H = {:.3} (p = {:.4})\n\
             \x20 effect size d = {:.3} ({:?})\n",
            self.label_a,
            self.label_b,
            self.confidence * 100.0,
            self.mean_ci_a.estimate,
            self.mean_ci_a.lower,
            self.mean_ci_a.upper,
            self.mean_ci_b.estimate,
            self.mean_ci_b.lower,
            self.mean_ci_b.upper,
            self.mean_cis_disjoint,
            self.median_ci_a.estimate,
            self.median_ci_a.lower,
            self.median_ci_a.upper,
            self.median_ci_b.estimate,
            self.median_ci_b.lower,
            self.median_ci_b.upper,
            self.median_cis_disjoint,
            self.t_test.statistic,
            self.t_test.p_value,
            self.kruskal_wallis.statistic,
            self.kruskal_wallis.p_value,
            self.effect_size,
            self.effect_magnitude,
        );
        if !self.quantile_effects.is_empty() {
            out.push_str("  quantile effects (B - A):\n");
            for e in &self.quantile_effects {
                out.push_str(&format!(
                    "    q{:02.0}: {:+.6} [{:+.6},{:+.6}]{}\n",
                    e.tau * 100.0,
                    e.difference.estimate,
                    e.difference.lower,
                    e.difference.upper,
                    if e.difference_significant() { " *" } else { "" }
                ));
            }
        }
        out
    }
}

/// Compares two samples with the full §3.2 battery; see
/// [`compare_samples`].
pub fn compare_two(
    label_a: &str,
    a: &[f64],
    label_b: &str,
    b: &[f64],
    confidence: f64,
    taus: &[f64],
    seed: u64,
) -> StatsResult<Comparison> {
    compare_samples(
        label_a,
        &Sample::new(a)?,
        label_b,
        &Sample::new(b)?,
        confidence,
        taus,
        seed,
    )
}

/// Compares two samples with the full §3.2 battery.
///
/// `taus` selects the quantiles for quantile regression (empty = skip);
/// `seed` drives the bootstrap CIs of the quantile differences. The median
/// CIs, the rank test and the quantile regression read each sample's one
/// sort; the means, the t-test and the effect size read the values in
/// their own order.
pub fn compare_samples(
    label_a: &str,
    a: &Sample<'_>,
    label_b: &str,
    b: &Sample<'_>,
    confidence: f64,
    taus: &[f64],
    seed: u64,
) -> StatsResult<Comparison> {
    let mean_ci_a = mean_ci(a.values(), confidence)?;
    let mean_ci_b = mean_ci(b.values(), confidence)?;
    let median_ci_a = a.sorted().median_ci(confidence)?;
    let median_ci_b = b.sorted().median_ci(confidence)?;
    let t_test = welch_t_test(a.values(), b.values())?;
    let kw = kruskal_wallis(&[a, b])?;
    let d = cohens_d(b.values(), a.values())?;
    let quantile_effects = if taus.is_empty() {
        Vec::new()
    } else {
        two_sample(a, b, taus, confidence, 400, seed)?
    };
    Ok(Comparison {
        label_a: label_a.to_owned(),
        label_b: label_b.to_owned(),
        mean_cis_disjoint: mean_ci_a.disjoint_from(&mean_ci_b),
        median_cis_disjoint: median_ci_a.disjoint_from(&median_ci_b),
        mean_ci_a,
        mean_ci_b,
        median_ci_a,
        median_ci_b,
        t_test,
        kruskal_wallis: kw,
        effect_size: d,
        effect_magnitude: effect_magnitude(d),
        quantile_effects,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, mu: f64, spread: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                mu + spread * scibench_stats::dist::normal::std_normal_inv_cdf(u)
            })
            .collect()
    }

    #[test]
    fn clearly_different_samples() {
        let a = sample(500, 10.0, 0.5);
        let b = sample(500, 11.0, 0.5);
        let c = compare_two("A", &a, "B", &b, 0.95, &[0.5], 1).unwrap();
        assert!(c.significant());
        assert!(c.mean_cis_disjoint);
        assert!(c.median_cis_disjoint);
        assert!(c.t_test.significant_at(0.01));
        assert!(c.effect_size > 1.0); // B larger
        assert_eq!(c.effect_magnitude, EffectMagnitude::Large);
        assert!(c.quantile_effects[0].difference_significant());
    }

    #[test]
    fn identical_samples_not_significant() {
        let a = sample(300, 5.0, 1.0);
        let c = compare_two("A", &a, "A'", &a, 0.95, &[], 1).unwrap();
        assert!(!c.significant());
        assert!(!c.mean_cis_disjoint);
        assert!(c.effect_size.abs() < 1e-9);
        assert!(c.quantile_effects.is_empty());
    }

    #[test]
    fn small_shift_significant_but_small_effect() {
        // Huge n makes a tiny shift statistically significant — the
        // effect size correctly flags it as negligible (the paper's
        // argument for reporting effect sizes, §3.2.2).
        let a = sample(20_000, 10.0, 1.0);
        let b: Vec<f64> = a.iter().map(|x| x + 0.03).collect();
        let c = compare_two("A", &a, "B", &b, 0.95, &[], 2).unwrap();
        assert!(c.significant(), "p = {}", c.kruskal_wallis.p_value);
        assert_eq!(c.effect_magnitude, EffectMagnitude::Negligible);
    }

    #[test]
    fn render_contains_all_statistics() {
        let a = sample(200, 1.0, 0.1);
        let b = sample(200, 1.2, 0.1);
        let text = compare_two("dora", &a, "pilatus", &b, 0.99, &[0.25, 0.75], 3)
            .unwrap()
            .render();
        for needle in [
            "dora vs pilatus",
            "mean:",
            "median:",
            "Welch t",
            "Kruskal-Wallis",
            "effect size",
            "q25",
            "q75",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }

    #[test]
    fn sign_convention() {
        let a = sample(100, 2.0, 0.2);
        let b = sample(100, 1.0, 0.2);
        let c = compare_two("A", &a, "B", &b, 0.95, &[], 4).unwrap();
        assert!(c.effect_size < 0.0, "B smaller than A must give negative d");
    }

    /// Every float of a comparison, as bits.
    fn comparison_bits(c: &Comparison) -> Vec<u64> {
        let ci = |ci: &ConfidenceInterval| [ci.estimate, ci.lower, ci.upper, ci.confidence];
        let test = |t: &TestResult| [t.statistic, t.p_value, t.df.0, t.df.1];
        let mut xs = [
            ci(&c.mean_ci_a),
            ci(&c.mean_ci_b),
            ci(&c.median_ci_a),
            ci(&c.median_ci_b),
            test(&c.t_test),
            test(&c.kruskal_wallis),
            [c.effect_size, c.confidence, 0.0, 0.0],
        ]
        .concat();
        for e in &c.quantile_effects {
            xs.push(e.tau);
            xs.extend(ci(&e.intercept));
            xs.extend(ci(&e.difference));
        }
        crate::test_samples::bits(&xs)
    }

    #[test]
    fn sample_statistics_equal_the_per_call_functions() {
        use crate::test_samples::sharing_cases;
        use scibench_stats::ci::median_ci;

        let ci_bits = |ci: &ConfidenceInterval| {
            [ci.estimate, ci.lower, ci.upper, ci.confidence].map(f64::to_bits)
        };
        let test_bits = |t: &TestResult| [t.statistic, t.p_value, t.df.0, t.df.1].map(f64::to_bits);
        // Integer steps tie heavily; the zeros mix both signs.
        let ties = |n: usize, shift: usize| -> Vec<f64> {
            (0..n)
                .map(|i| match (i * 7 + shift) % 11 {
                    0 => -0.0,
                    1 => 0.0,
                    r => (r % 4) as f64,
                })
                .collect()
        };
        let mut cases = vec![
            (sample(500, 10.0, 0.5), sample(300, 10.2, 0.7)),
            (ties(40, 0), ties(33, 5)),
            (ties(21, 1), sample(16, 1.0, 1.0)),
        ];
        let fixed = cases.len();
        let shared = sharing_cases();
        cases.extend(shared.chunks(2).map(|p| (p[0].clone(), p[1].clone())));
        for (i, (a, b)) in cases.iter().enumerate() {
            let taus: &[f64] = if a.len() < 1000 { &[0.25, 0.5] } else { &[] };
            // One pair of samples serves both confidence levels.
            let (sample_a, sample_b) = (Sample::new(a).unwrap(), Sample::new(b).unwrap());
            for confidence in [0.95, 0.99] {
                let slice = compare_two("A", a, "B", b, confidence, taus, 5);
                let shared = compare_samples("A", &sample_a, "B", &sample_b, confidence, taus, 5);
                let c = match (slice, shared) {
                    (Ok(c), Ok(d)) => {
                        assert_eq!(c, d);
                        assert_eq!(comparison_bits(&c), comparison_bits(&d));
                        c
                    }
                    (c, d) => {
                        assert!(i >= fixed, "case {i} failed: {c:?}");
                        assert_eq!(c, d);
                        continue;
                    }
                };
                // The order statistics come from the sorts.
                assert_eq!(
                    ci_bits(&c.median_ci_a),
                    ci_bits(&median_ci(a, confidence).unwrap())
                );
                assert_eq!(
                    ci_bits(&c.median_ci_b),
                    ci_bits(&median_ci(b, confidence).unwrap())
                );
                let fresh = |xs| Sample::new(xs).unwrap();
                let (fresh_a, fresh_b) = (fresh(a), fresh(b));
                let kw = kruskal_wallis(&[&fresh_a, &fresh_b]).unwrap();
                assert_eq!(test_bits(&c.kruskal_wallis), test_bits(&kw));
                if !taus.is_empty() {
                    let effects = two_sample(&fresh_a, &fresh_b, taus, confidence, 400, 5).unwrap();
                    assert_eq!(c.quantile_effects, effects);
                }
                // The sums read the values in input order.
                assert_eq!(
                    ci_bits(&c.mean_ci_a),
                    ci_bits(&mean_ci(a, confidence).unwrap())
                );
                assert_eq!(
                    ci_bits(&c.mean_ci_b),
                    ci_bits(&mean_ci(b, confidence).unwrap())
                );
                assert_eq!(
                    test_bits(&c.t_test),
                    test_bits(&welch_t_test(a, b).unwrap())
                );
                assert_eq!(c.effect_size.to_bits(), cohens_d(b, a).unwrap().to_bits());
            }
        }
        // Too few samples for a median CI: the same error as the per-call
        // function.
        let short = sample(5, 1.0, 1.0);
        assert_eq!(
            compare_two("A", &short, "B", &cases[0].1, 0.95, &[], 5).unwrap_err(),
            median_ci(&short, 0.95).unwrap_err()
        );
    }
}
