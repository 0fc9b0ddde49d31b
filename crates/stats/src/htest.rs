//! Comparing statistical data (§3.2 of the paper, Rule 7: *compare
//! nondeterministic data in a statistically sound way*).
//!
//! Implements the tests the paper prescribes: Student/Welch t-tests and
//! one-factor ANOVA for normally distributed data (§3.2.1), the
//! Kruskal–Wallis one-way ANOVA on ranks for non-normal data (§3.2.2), and
//! the effect size the paper recommends over bare p-values.

use crate::dist::{ChiSquared, ContinuousDistribution, FisherF, StudentT};
use crate::error::{StatsError, StatsResult};
use crate::sorted::{Sample, SortedSamples};
use crate::summary::{arithmetic_mean, sample_variance};
use crate::validate_samples;

/// Outcome of a two-sided hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (t, F or H depending on the test).
    pub statistic: f64,
    /// Two-sided p-value (upper-tail for F and H).
    pub p_value: f64,
    /// Degrees of freedom of the reference distribution. For
    /// Kruskal–Wallis and one-way ANOVA the second entry is used as noted
    /// in each constructor.
    pub df: (f64, f64),
}

impl TestResult {
    /// Whether the null hypothesis is rejected at significance `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

fn validate_two_groups(a: &[f64], b: &[f64]) -> StatsResult<()> {
    validate_samples(a)?;
    validate_samples(b)?;
    if a.len() < 2 || b.len() < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            actual: a.len().min(b.len()),
        });
    }
    Ok(())
}

/// Welch's t-test for the difference of two means (unequal variances).
///
/// This is the safer default the paper's §3.2.1 setting calls for; it does
/// not assume equal standard deviations. Null hypothesis: equal means.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> StatsResult<TestResult> {
    validate_two_groups(a, b)?;
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (ma, mb) = (arithmetic_mean(a)?, arithmetic_mean(b)?);
    let (va, vb) = (sample_variance(a)?, sample_variance(b)?);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let t = (ma - mb) / se2.sqrt();
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    let dist = StudentT::new(df)?;
    let p = 2.0 * (1.0 - dist.cdf(t.abs()));
    Ok(TestResult {
        statistic: t,
        p_value: p.clamp(0.0, 1.0),
        df: (df, 0.0),
    })
}

/// Pooled-variance Student t-test (assumes equal variances, the textbook
/// §3.2.1 variant).
pub fn pooled_t_test(a: &[f64], b: &[f64]) -> StatsResult<TestResult> {
    validate_two_groups(a, b)?;
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (ma, mb) = (arithmetic_mean(a)?, arithmetic_mean(b)?);
    let (va, vb) = (sample_variance(a)?, sample_variance(b)?);
    let df = na + nb - 2.0;
    let sp2 = ((na - 1.0) * va + (nb - 1.0) * vb) / df;
    if sp2 <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let t = (ma - mb) / (sp2 * (1.0 / na + 1.0 / nb)).sqrt();
    let dist = StudentT::new(df)?;
    let p = 2.0 * (1.0 - dist.cdf(t.abs()));
    Ok(TestResult {
        statistic: t,
        p_value: p.clamp(0.0, 1.0),
        df: (df, 0.0),
    })
}

/// Decomposition of variance produced by a one-way ANOVA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnovaResult {
    /// The F ratio `egv / igv` (inter-group over intra-group variability).
    pub f: f64,
    /// Upper-tail p-value of F under the null (all group means equal).
    pub p_value: f64,
    /// Numerator (between-groups) degrees of freedom, `k − 1`.
    pub df_between: f64,
    /// Denominator (within-groups) degrees of freedom, `N − k`.
    pub df_within: f64,
    /// Inter-group variability (mean square between).
    pub egv: f64,
    /// Intra-group variability (mean square within). The paper's effect
    /// size divides by `√igv`.
    pub igv: f64,
}

impl AnovaResult {
    /// Whether the equal-means null is rejected at significance `alpha`
    /// (i.e. F exceeds `F_crit(k−1, N−k, α)` per §3.2.1).
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }

    /// Effect size between groups `i` and `j` given their means:
    /// `E = (x̄ᵢ − x̄ⱼ)/√igv` (§3.2.2 "Effect Size").
    pub fn effect_size(&self, mean_i: f64, mean_j: f64) -> f64 {
        (mean_i - mean_j) / self.igv.sqrt()
    }
}

/// One-factor analysis of variance for `k ≥ 2` groups (§3.2.1).
///
/// Handles unequal group sizes; requires every group to have at least two
/// observations and a positive pooled within-group variance.
pub fn one_way_anova(groups: &[&[f64]]) -> StatsResult<AnovaResult> {
    if groups.len() < 2 {
        return Err(StatsError::InvalidGroups("ANOVA needs at least two groups"));
    }
    for g in groups {
        validate_samples(g)?;
        if g.len() < 2 {
            return Err(StatsError::TooFewSamples {
                required: 2,
                actual: g.len(),
            });
        }
    }
    let k = groups.len() as f64;
    let total_n: usize = groups.iter().map(|g| g.len()).sum();
    let nf = total_n as f64;
    let grand_mean = groups.iter().flat_map(|g| g.iter()).sum::<f64>() / nf;

    let mut ss_between = 0.0;
    let mut ss_within = 0.0;
    for g in groups {
        let m = arithmetic_mean(g)?;
        ss_between += g.len() as f64 * (m - grand_mean) * (m - grand_mean);
        ss_within += g.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    }
    let df_between = k - 1.0;
    let df_within = nf - k;
    let egv = ss_between / df_between;
    let igv = ss_within / df_within;
    if igv <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let f = egv / igv;
    let dist = FisherF::new(df_between, df_within)?;
    let p_value = (1.0 - dist.cdf(f)).clamp(0.0, 1.0);
    Ok(AnovaResult {
        f,
        p_value,
        df_between,
        df_within,
        egv,
        igv,
    })
}

/// Kruskal–Wallis one-way ANOVA on ranks (§3.2.2): nonparametric test for
/// equality of medians across `k ≥ 2` groups, with tie correction.
///
/// Ranks in one merge of the groups' sorts ([`Sample::sorted`]): each run
/// of tied values gets its mid-rank, each group's rank sum is kept exactly
/// as an integer sum of twice the mid-rank, and the tie sum `Σ (t³ − t)`
/// is added up in ascending order.
pub fn kruskal_wallis(groups: &[&Sample<'_>]) -> StatsResult<TestResult> {
    if groups.len() < 2 {
        return Err(StatsError::InvalidGroups(
            "Kruskal-Wallis needs at least two groups",
        ));
    }
    let groups: Vec<&SortedSamples> = groups.iter().map(|g| g.sorted()).collect();
    let total_n: usize = groups.iter().map(|g| g.len()).sum();
    if total_n < 3 {
        return Err(StatsError::TooFewSamples {
            required: 3,
            actual: total_n,
        });
    }
    let (twice_rank_sums, tie_sum) = merged_rank_sums(&groups);
    let nf = total_n as f64;

    let mut h = 0.0;
    for (g, &twice) in groups.iter().zip(&twice_rank_sums) {
        let rank_sum = twice as f64 / 2.0;
        h += rank_sum * rank_sum / g.len() as f64;
    }
    h = 12.0 / (nf * (nf + 1.0)) * h - 3.0 * (nf + 1.0);

    // Tie correction.
    let c = 1.0 - tie_sum / (nf * nf * nf - nf);
    if c <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    h /= c;

    let df = groups.len() as f64 - 1.0;
    let dist = ChiSquared::new(df)?;
    let p_value = (1.0 - dist.cdf(h)).clamp(0.0, 1.0);
    Ok(TestResult {
        statistic: h,
        p_value,
        df: (df, 0.0),
    })
}

/// Twice each group's rank sum, and `Σ (t³ − t)` over the tie runs in
/// ascending order, from one merge of the sorted groups. A run of `t`
/// equal values (`-0.0 == +0.0`) after `below` smaller ones takes the
/// ranks `below + 1 ..= below + t`, whose mid-rank is
/// `(2·below + t + 1) / 2`.
fn merged_rank_sums(groups: &[&SortedSamples]) -> (Vec<u128>, f64) {
    let mut heads = vec![0usize; groups.len()];
    let mut counts = vec![0usize; groups.len()];
    let mut twice_rank_sums = vec![0u128; groups.len()];
    let mut tie_sum = 0.0;
    let mut below = 0usize;
    // The smallest value not yet ranked; its run is every group's equal
    // values at the heads.
    let least = |heads: &[usize]| {
        groups
            .iter()
            .zip(heads)
            .filter_map(|(g, &head)| g.as_slice().get(head).copied())
            .reduce(f64::min)
    };
    while let Some(v) = least(&heads) {
        let mut t = 0;
        for ((g, head), count) in groups.iter().zip(&mut heads).zip(&mut counts) {
            let run = g.as_slice()[*head..]
                .iter()
                .take_while(|&&x| x == v)
                .count();
            *head += run;
            *count = run;
            t += run;
        }
        let twice_mid = (2 * below + t + 1) as u128;
        for (sum, &count) in twice_rank_sums.iter_mut().zip(&counts) {
            *sum += count as u128 * twice_mid;
        }
        let tf = t as f64;
        tie_sum += tf * tf * tf - tf;
        below += t;
    }
    (twice_rank_sums, tie_sum)
}

/// One pairwise comparison from a post-hoc analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairwiseComparison {
    /// Index of the first group.
    pub i: usize,
    /// Index of the second group.
    pub j: usize,
    /// The underlying Welch t-test.
    pub test: TestResult,
    /// Bonferroni-adjusted p-value (`min(1, p·m)` for m comparisons).
    pub adjusted_p: f64,
    /// Whether the pair differs at the family-wise significance level.
    pub significant: bool,
}

/// Post-hoc pairwise Welch t-tests with Bonferroni correction.
///
/// The paper's §4.2.1 workflow stops at "more detailed investigations may
/// be necessary" when the ANOVA across processes rejects; this is that
/// investigation — which pairs of groups (ranks, systems, configurations)
/// actually differ, with the family-wise error rate controlled at
/// `alpha`.
pub fn pairwise_bonferroni(groups: &[&[f64]], alpha: f64) -> StatsResult<Vec<PairwiseComparison>> {
    if groups.len() < 2 {
        return Err(StatsError::InvalidGroups("need at least two groups"));
    }
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "alpha",
            value: alpha,
        });
    }
    let k = groups.len();
    let m = (k * (k - 1) / 2) as f64;
    let mut out = Vec::with_capacity(m as usize);
    for i in 0..k {
        for j in i + 1..k {
            let test = welch_t_test(groups[i], groups[j])?;
            let adjusted_p = (test.p_value * m).min(1.0);
            out.push(PairwiseComparison {
                i,
                j,
                test,
                adjusted_p,
                significant: adjusted_p < alpha,
            });
        }
    }
    Ok(out)
}

/// Cohen's d effect size for two groups: standardized mean difference
/// using the pooled standard deviation.
///
/// §3.2.2: "the effect size expresses the differences between estimated
/// means in two experiments relative to the standard deviation of the
/// measurements"; |d| ≈ 0.2 is small, 0.5 medium, 0.8 large (Coe).
pub fn cohens_d(a: &[f64], b: &[f64]) -> StatsResult<f64> {
    validate_two_groups(a, b)?;
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (va, vb) = (sample_variance(a)?, sample_variance(b)?);
    let pooled = (((na - 1.0) * va + (nb - 1.0) * vb) / (na + nb - 2.0)).sqrt();
    if pooled <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok((arithmetic_mean(a)? - arithmetic_mean(b)?) / pooled)
}

/// Qualitative magnitude bucket for an effect size (after Cohen/Coe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectMagnitude {
    /// |d| < 0.2 — likely irrelevant even if statistically significant.
    Negligible,
    /// 0.2 ≤ |d| < 0.5.
    Small,
    /// 0.5 ≤ |d| < 0.8.
    Medium,
    /// |d| ≥ 0.8.
    Large,
}

/// Classifies an effect size into the conventional buckets.
pub fn effect_magnitude(d: f64) -> EffectMagnitude {
    let a = d.abs();
    if a < 0.2 {
        EffectMagnitude::Negligible
    } else if a < 0.5 {
        EffectMagnitude::Small
    } else if a < 0.8 {
        EffectMagnitude::Medium
    } else {
        EffectMagnitude::Large
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shifted(n: usize, mu: f64) -> Vec<f64> {
        // Deterministic pseudo-noise, mean mu, sd ~1.
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                mu + crate::dist::normal::std_normal_inv_cdf(u)
            })
            .collect()
    }

    #[test]
    fn t_test_detects_clear_difference() {
        let a = shifted(30, 10.0);
        let b = shifted(30, 12.0);
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.significant_at(0.01), "p = {}", r.p_value);
        assert!(r.statistic < 0.0); // a < b
    }

    #[test]
    fn t_test_accepts_identical_populations() {
        let a = shifted(50, 10.0);
        let b = shifted(50, 10.0);
        let r = welch_t_test(&a, &b).unwrap();
        assert!(!r.significant_at(0.05), "p = {}", r.p_value);
    }

    #[test]
    fn welch_and_pooled_agree_for_equal_variances() {
        let a = shifted(20, 5.0);
        let b = shifted(20, 5.5);
        let w = welch_t_test(&a, &b).unwrap();
        let p = pooled_t_test(&a, &b).unwrap();
        assert!((w.statistic - p.statistic).abs() < 1e-9);
        assert!((w.p_value - p.p_value).abs() < 1e-6);
    }

    #[test]
    fn t_test_reference_computation() {
        // Small hand-checkable case.
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        let r = pooled_t_test(&a, &b).unwrap();
        // means 2 and 4, va=1, vb=4, sp2=(2*1+2*4)/4=2.5,
        // t = -2 / sqrt(2.5*(2/3)) = -1.549...
        assert!(
            (r.statistic + 1.549_193).abs() < 1e-5,
            "t = {}",
            r.statistic
        );
        assert_eq!(r.df.0, 4.0);
    }

    #[test]
    fn anova_two_groups_matches_t_test() {
        // For k=2, F = t² (pooled).
        let a = shifted(15, 3.0);
        let b = shifted(15, 3.8);
        let t = pooled_t_test(&a, &b).unwrap();
        let f = one_way_anova(&[&a, &b]).unwrap();
        assert!((f.f - t.statistic * t.statistic).abs() < 1e-8);
        assert!((f.p_value - t.p_value).abs() < 1e-6);
    }

    #[test]
    fn anova_detects_one_shifted_group() {
        let a = shifted(25, 10.0);
        let b = shifted(25, 10.0);
        let c = shifted(25, 11.5);
        let r = one_way_anova(&[&a, &b, &c]).unwrap();
        assert!(r.significant_at(0.01), "p = {}", r.p_value);
        assert_eq!(r.df_between, 2.0);
        assert_eq!(r.df_within, 72.0);
    }

    #[test]
    fn anova_null_case_not_significant() {
        let groups: Vec<Vec<f64>> = (0..4).map(|_| shifted(20, 7.0)).collect();
        let refs: Vec<&[f64]> = groups.iter().map(|g| g.as_slice()).collect();
        let r = one_way_anova(&refs).unwrap();
        // All groups identical by construction: F ~ 0.
        assert!(r.f < 1e-20);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn anova_effect_size() {
        let a = shifted(25, 10.0);
        let b = shifted(25, 11.0);
        let r = one_way_anova(&[&a, &b]).unwrap();
        let e = r.effect_size(arithmetic_mean(&a).unwrap(), arithmetic_mean(&b).unwrap());
        // Means differ by 1.0 with sd ~1 → effect size ~ -1 (large).
        assert!((e + 1.0).abs() < 0.15, "E = {e}");
        assert_eq!(effect_magnitude(e), EffectMagnitude::Large);
    }

    /// [`kruskal_wallis`] of slices.
    fn kruskal_wallis_slices(groups: &[&[f64]]) -> StatsResult<TestResult> {
        let samples = groups
            .iter()
            .map(|g| Sample::new(g))
            .collect::<StatsResult<Vec<_>>>()?;
        kruskal_wallis(&samples.iter().collect::<Vec<_>>())
    }

    #[test]
    fn kruskal_wallis_reference_example() {
        // Worked example (no ties): three groups.
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let c = [7.0, 8.0, 9.0];
        let r = kruskal_wallis_slices(&[&a, &b, &c]).unwrap();
        // Rank sums: 6, 15, 24 → H = 12/(9*10) * (36/3+225/3+576/3) - 3*10
        // = (12/90)*279 - 30 = 7.2
        assert!((r.statistic - 7.2).abs() < 1e-9, "H = {}", r.statistic);
        assert!(r.significant_at(0.05), "p = {}", r.p_value);
    }

    #[test]
    fn kruskal_wallis_identical_groups() {
        let a = shifted(30, 2.0);
        let r = kruskal_wallis_slices(&[&a, &a]).unwrap();
        assert!(!r.significant_at(0.05));
        assert!(r.statistic < 1e-9);
    }

    #[test]
    fn kruskal_wallis_shifted_medians() {
        let a = shifted(100, 1.0);
        let b: Vec<f64> = a.iter().map(|x| x + 0.8).collect();
        let r = kruskal_wallis_slices(&[&a, &b]).unwrap();
        assert!(r.significant_at(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn kruskal_wallis_robust_to_outliers() {
        // A huge outlier should not change the rank-based conclusion.
        let mut a = shifted(50, 1.0);
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        a[0] = 1e9;
        let r = kruskal_wallis_slices(&[&a, &b]).unwrap();
        assert!(r.significant_at(0.05));
    }

    #[test]
    fn kruskal_wallis_handles_ties() {
        let a = [1.0, 1.0, 2.0, 2.0];
        let b = [2.0, 3.0, 3.0, 4.0];
        let r = kruskal_wallis_slices(&[&a, &b]).unwrap();
        assert!(r.statistic > 0.0);
        assert!((0.0..=1.0).contains(&r.p_value));
    }

    #[test]
    fn pairwise_bonferroni_identifies_the_outlier_group() {
        let a = shifted(30, 10.0);
        let b = shifted(30, 10.0);
        let c = shifted(30, 12.0);
        let pairs = pairwise_bonferroni(&[&a, &b, &c], 0.05).unwrap();
        assert_eq!(pairs.len(), 3);
        let find = |i, j| pairs.iter().find(|p| p.i == i && p.j == j).unwrap();
        assert!(!find(0, 1).significant, "identical groups flagged");
        assert!(find(0, 2).significant);
        assert!(find(1, 2).significant);
        // Adjusted p is never below the raw p.
        for p in &pairs {
            assert!(p.adjusted_p >= p.test.p_value);
            assert!(p.adjusted_p <= 1.0);
        }
    }

    #[test]
    fn pairwise_bonferroni_controls_family_error() {
        // Many identical groups: nothing should be significant even with
        // 45 comparisons.
        let groups: Vec<Vec<f64>> = (0..10).map(|i| shifted(20, 5.0 + 0.0 * i as f64)).collect();
        let refs: Vec<&[f64]> = groups.iter().map(|g| g.as_slice()).collect();
        let pairs = pairwise_bonferroni(&refs, 0.05).unwrap();
        assert_eq!(pairs.len(), 45);
        assert!(pairs.iter().all(|p| !p.significant));
    }

    #[test]
    fn pairwise_bonferroni_validates_inputs() {
        let a = shifted(10, 1.0);
        assert!(pairwise_bonferroni(&[&a], 0.05).is_err());
        assert!(pairwise_bonferroni(&[&a, &a], 0.0).is_err());
    }

    #[test]
    fn cohens_d_sign_and_magnitude() {
        let a = shifted(40, 10.0);
        let b = shifted(40, 10.5);
        let d = cohens_d(&b, &a).unwrap();
        assert!(d > 0.0);
        assert_eq!(effect_magnitude(d), EffectMagnitude::Medium);
        assert_eq!(effect_magnitude(0.05), EffectMagnitude::Negligible);
        assert_eq!(effect_magnitude(-0.3), EffectMagnitude::Small);
        assert_eq!(effect_magnitude(-2.0), EffectMagnitude::Large);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_err());
        assert!(welch_t_test(&[1.0, 1.0], &[1.0, 1.0]).is_err()); // zero variance
        assert!(one_way_anova(&[&[1.0, 2.0]]).is_err());
        assert!(kruskal_wallis_slices(&[&[1.0, 2.0]]).is_err());
        assert!(cohens_d(&[1.0, 1.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn kruskal_wallis_reports_each_degenerate_input_by_kind() {
        let (one, flat) = (&[1.0][..], &[4.0, 4.0, 4.0][..]);
        let err = |groups: &[&[f64]]| kruskal_wallis_slices(groups).unwrap_err();
        assert!(matches!(err(&[]), StatsError::InvalidGroups(_)));
        assert!(matches!(err(&[flat]), StatsError::InvalidGroups(_)));
        let too_few = StatsError::TooFewSamples {
            required: 3,
            actual: 2,
        };
        assert_eq!(err(&[one, one]), too_few);
        assert_eq!(err(&[flat, flat]), StatsError::ZeroVariance);
        // A bad lone group is refused as its `Sample` is built, first.
        assert_eq!(err(&[&[]]), StatsError::EmptySample);
        assert_eq!(err(&[&[f64::NAN]]), StatsError::NonFiniteSample);
    }
}
