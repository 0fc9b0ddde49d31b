//! Quantile regression (§3.2.3 of the paper, Rule 8).
//!
//! Quantile regression models the effect of a factor on arbitrary quantiles
//! rather than the mean — "most useful if the effect appears at a certain
//! percentile", e.g. worst-case latency. The paper's Figure 4 regresses
//! ping-pong latency on the system factor (Piz Dora vs Pilatus) across
//! quantiles 0.1…0.9.
//!
//! Two solvers are provided:
//!
//! * [`two_sample`]: the exact solution for one binary factor. For the
//!   model `y = β₀ + β₁·1[group B]`, the τ-quantile regression estimate is
//!   `β₀ = Q_τ(A)` and `β₁ = Q_τ(B) − Q_τ(A)`, because the check loss
//!   decomposes over the two groups. CIs come from order-statistic ranks
//!   (intercept) and a percentile bootstrap of the difference, drawn
//!   through the one loop of [`crate::bootstrap`].
//! * [`fit`]: a general iteratively-reweighted least-squares solver on a
//!   smoothed check loss for arbitrary design matrices, cross-validated
//!   against the exact path in the tests.

use crate::bootstrap::{distribution, mix_seed, percentile_interval, quantile_draw};
use crate::ci::ConfidenceInterval;
use crate::error::{StatsError, StatsResult};
use crate::quantile::{quantile_sorted, QuantileMethod};
use crate::sorted::Sample;
use crate::validate_samples;

/// The quantile-regression estimate at one quantile τ for the two-sample
/// (one binary factor) design of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileEffect {
    /// The quantile τ ∈ (0, 1).
    pub tau: f64,
    /// Intercept β₀ = Q_τ(base group) with its nonparametric CI.
    pub intercept: ConfidenceInterval,
    /// Difference β₁ = Q_τ(other) − Q_τ(base) with a bootstrap CI.
    pub difference: ConfidenceInterval,
}

impl QuantileEffect {
    /// Whether the difference at this quantile is significant (its CI does
    /// not contain zero).
    pub fn difference_significant(&self) -> bool {
        !self.difference.contains(0.0)
    }
}

/// Exact two-sample quantile regression across the given quantiles.
///
/// `base` is the intercept group (Piz Dora in Figure 4) and `other` the
/// comparison group (Pilatus). `boot_reps` bootstrap resamples are drawn
/// with the deterministic `seed` for the difference CIs.
///
/// Every tau reads each group's one sort ([`Sample::sorted`]): the
/// intercept CI, the point estimates and the bootstrap draws all work on
/// order statistics.
pub fn two_sample(
    base: &Sample<'_>,
    other: &Sample<'_>,
    taus: &[f64],
    confidence: f64,
    boot_reps: usize,
    seed: u64,
) -> StatsResult<Vec<QuantileEffect>> {
    if taus.is_empty() {
        return Err(StatsError::EmptySample);
    }
    for &tau in taus {
        if !(tau > 0.0 && tau < 1.0) {
            return Err(StatsError::InvalidProbability {
                name: "tau",
                value: tau,
            });
        }
    }
    if boot_reps < 10 {
        return Err(StatsError::InvalidParameter {
            name: "boot_reps",
            value: boot_reps as f64,
        });
    }

    let (base_cache, other_cache) = (base.sorted(), other.sorted());
    let (base, other) = (base_cache.as_slice(), other_cache.as_slice());

    // Each replicate draws both groups' tau-quantiles by the rank device,
    // the base group first. The stream of replicate `r` at tau index `t`
    // derives only from `(seed, t, r)`, so each tau's CI is independent
    // of which other taus are requested.
    let mut effects = Vec::with_capacity(taus.len());
    for (tau_idx, &tau) in taus.iter().enumerate() {
        let intercept = base_cache.quantile_ci(tau, confidence)?;
        let estimate = quantile_sorted(other, tau, QuantileMethod::Interpolated)
            - quantile_sorted(base, tau, QuantileMethod::Interpolated);
        let diffs = distribution(boot_reps, mix_seed(seed, tau_idx as u64), |rng, _| {
            let qb = quantile_draw(base, tau, rng);
            Ok(quantile_draw(other, tau, rng) - qb)
        })?;
        effects.push(QuantileEffect {
            tau,
            intercept,
            difference: percentile_interval(estimate, &diffs, confidence),
        });
    }
    Ok(effects)
}

/// A fitted general quantile-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantRegFit {
    /// The quantile τ that was fitted.
    pub tau: f64,
    /// Coefficient vector β (one per design-matrix column).
    pub coefficients: Vec<f64>,
    /// Final value of the check-loss objective Σ ρ_τ(yᵢ − xᵢβ).
    pub objective: f64,
    /// IRLS iterations used.
    pub iterations: usize,
}

/// Fits `y ≈ X β` at quantile `tau` by iteratively reweighted least squares
/// on a smoothed check loss.
///
/// `x` is row-major with `ncols` columns (include a column of ones for an
/// intercept). Suitable for the small design matrices of benchmarking
/// studies (a handful of factors); the solver is O(iter · n · p²).
pub fn fit(x: &[f64], ncols: usize, y: &[f64], tau: f64) -> StatsResult<QuantRegFit> {
    validate_samples(y)?;
    if !(tau > 0.0 && tau < 1.0) {
        return Err(StatsError::InvalidProbability {
            name: "tau",
            value: tau,
        });
    }
    if ncols == 0 || x.len() != y.len() * ncols {
        return Err(StatsError::InvalidGroups("design matrix shape mismatch"));
    }
    if y.len() < ncols + 1 {
        return Err(StatsError::TooFewSamples {
            required: ncols + 1,
            actual: y.len(),
        });
    }
    let n = y.len();
    let p = ncols;
    // Smoothing parameter: scaled to the response spread, annealed.
    let spread = {
        let mn = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (mx - mn).max(1e-12)
    };

    let mut beta = vec![0.0f64; p];
    // Start from the unweighted least-squares solution.
    solve_weighted_ls(x, p, y, None, &mut beta)?;

    let mut eps = spread * 1e-2;
    let mut iterations = 0;
    let max_outer = 60;
    for outer in 0..max_outer {
        let mut weights = vec![0.0f64; n];
        for i in 0..n {
            let mut pred = 0.0;
            for j in 0..p {
                pred += x[i * p + j] * beta[j];
            }
            let r = y[i] - pred;
            let a = (r * r + eps * eps).sqrt();
            // Asymmetric weight: tau on positive residuals, 1-tau negative.
            let side = if r >= 0.0 { tau } else { 1.0 - tau };
            weights[i] = side / a;
        }
        let mut new_beta = vec![0.0f64; p];
        solve_weighted_ls(x, p, y, Some(&weights), &mut new_beta)?;
        let delta: f64 = new_beta
            .iter()
            .zip(&beta)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        beta = new_beta;
        iterations = outer + 1;
        if delta < 1e-10 * spread && eps <= spread * 1e-8 {
            break;
        }
        // Anneal the smoothing towards the true check loss.
        eps = (eps * 0.5).max(spread * 1e-9);
    }

    let objective = check_loss(x, p, y, &beta, tau);
    Ok(QuantRegFit {
        tau,
        coefficients: beta,
        objective,
        iterations,
    })
}

/// Check loss Σ ρ_τ(yᵢ − xᵢβ) with ρ_τ(r) = r·(τ − `1{r<0}`).
pub fn check_loss(x: &[f64], p: usize, y: &[f64], beta: &[f64], tau: f64) -> f64 {
    let n = y.len();
    let mut total = 0.0;
    for i in 0..n {
        let mut pred = 0.0;
        for j in 0..p {
            pred += x[i * p + j] * beta[j];
        }
        let r = y[i] - pred;
        total += if r >= 0.0 { tau * r } else { (tau - 1.0) * r };
    }
    total
}

/// Solves the (optionally weighted) normal equations `XᵀWX β = XᵀWy` by
/// Gaussian elimination with partial pivoting. Small `p` only.
fn solve_weighted_ls(
    x: &[f64],
    p: usize,
    y: &[f64],
    weights: Option<&[f64]>,
    out: &mut [f64],
) -> StatsResult<()> {
    let n = y.len();
    let mut ata = vec![0.0f64; p * p];
    let mut aty = vec![0.0f64; p];
    for i in 0..n {
        let w = weights.map_or(1.0, |ws| ws[i]);
        for j in 0..p {
            let xij = x[i * p + j];
            aty[j] += w * xij * y[i];
            for k in j..p {
                ata[j * p + k] += w * xij * x[i * p + k];
            }
        }
    }
    // Mirror the symmetric part.
    for j in 0..p {
        for k in 0..j {
            ata[j * p + k] = ata[k * p + j];
        }
    }
    // Tiny ridge for numerical safety.
    let trace: f64 = (0..p).map(|j| ata[j * p + j]).sum();
    let ridge = trace / p as f64 * 1e-12;
    for j in 0..p {
        ata[j * p + j] += ridge;
    }
    gauss_solve(&mut ata, &mut aty, p)?;
    out.copy_from_slice(&aty);
    Ok(())
}

/// In-place Gaussian elimination with partial pivoting; solution left in `b`.
fn gauss_solve(a: &mut [f64], b: &mut [f64], p: usize) -> StatsResult<()> {
    for col in 0..p {
        // Pivot.
        let mut pivot = col;
        for row in col + 1..p {
            if a[row * p + col].abs() > a[pivot * p + col].abs() {
                pivot = row;
            }
        }
        if a[pivot * p + col].abs() < 1e-300 {
            return Err(StatsError::NoConvergence {
                what: "singular normal equations",
                iterations: 0,
            });
        }
        if pivot != col {
            for k in 0..p {
                a.swap(col * p + k, pivot * p + k);
            }
            b.swap(col, pivot);
        }
        // Eliminate.
        let diag = a[col * p + col];
        for row in col + 1..p {
            let factor = a[row * p + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..p {
                a[row * p + k] -= factor * a[col * p + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    for col in (0..p).rev() {
        let mut acc = b[col];
        for k in col + 1..p {
            acc -= a[col * p + k] * b[k];
        }
        b[col] = acc / a[col * p + col];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::quantile;

    fn sample(xs: &[f64]) -> Sample<'_> {
        Sample::new(xs).unwrap()
    }

    fn skewed_sample(n: usize, shift: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                shift + crate::dist::normal::std_normal_inv_cdf(u).exp() * 0.1
            })
            .collect()
    }

    #[test]
    fn two_sample_estimates_are_quantile_differences() {
        let a = skewed_sample(2000, 1.5);
        let b = skewed_sample(2000, 1.7);
        let taus = [0.1, 0.5, 0.9];
        let effects = two_sample(&sample(&a), &sample(&b), &taus, 0.95, 200, 42).unwrap();
        for (e, &tau) in effects.iter().zip(&taus) {
            let qa = quantile(&a, tau, QuantileMethod::Interpolated).unwrap();
            let qb = quantile(&b, tau, QuantileMethod::Interpolated).unwrap();
            assert!((e.intercept.estimate - qa).abs() < 1e-12);
            assert!((e.difference.estimate - (qb - qa)).abs() < 1e-12);
        }
    }

    #[test]
    fn two_sample_detects_constant_shift() {
        let a = skewed_sample(3000, 1.5);
        let b: Vec<f64> = a.iter().map(|x| x + 0.1).collect();
        let effects =
            two_sample(&sample(&a), &sample(&b), &[0.25, 0.5, 0.75], 0.95, 400, 7).unwrap();
        for e in &effects {
            assert!(e.difference_significant(), "tau {} not significant", e.tau);
            assert!((e.difference.estimate - 0.1).abs() < 1e-9);
            assert!(e.difference.lower <= 0.1 && 0.1 <= e.difference.upper);
        }
    }

    #[test]
    fn two_sample_no_difference_is_insignificant() {
        let a = skewed_sample(2000, 1.5);
        let effects = two_sample(&sample(&a), &sample(&a), &[0.5], 0.95, 400, 3).unwrap();
        assert!(!effects[0].difference_significant());
        assert!(effects[0].difference.estimate.abs() < 1e-12);
    }

    #[test]
    fn two_sample_crossing_effect() {
        // Construct the Figure-4 situation: group B better at high
        // quantiles, worse at low quantiles.
        let n = 4000;
        let a: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                1.7 + 0.05 * crate::dist::normal::std_normal_inv_cdf(u)
            })
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                1.7 + 0.20 * crate::dist::normal::std_normal_inv_cdf(u)
            })
            .collect();
        let effects = two_sample(&sample(&a), &sample(&b), &[0.1, 0.9], 0.95, 300, 11).unwrap();
        assert!(effects[0].difference.estimate < 0.0); // B faster at P10
        assert!(effects[1].difference.estimate > 0.0); // B slower at P90
    }

    #[test]
    fn irls_median_regression_recovers_line() {
        // y = 2 + 3x with sparse asymmetric outliers; median regression
        // must ignore them.
        let n = 200;
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let xi = i as f64 / 10.0;
            x.push(1.0);
            x.push(xi);
            let noise = if i % 17 == 0 {
                50.0
            } else {
                ((i * 37 % 13) as f64 - 6.0) * 0.01
            };
            y.push(2.0 + 3.0 * xi + noise);
        }
        let fit = fit(&x, 2, &y, 0.5).unwrap();
        assert!(
            (fit.coefficients[0] - 2.0).abs() < 0.1,
            "b0 = {}",
            fit.coefficients[0]
        );
        assert!(
            (fit.coefficients[1] - 3.0).abs() < 0.02,
            "b1 = {}",
            fit.coefficients[1]
        );
    }

    #[test]
    fn irls_matches_exact_two_sample_solution() {
        let a = skewed_sample(500, 1.5);
        let b = skewed_sample(500, 1.8);
        // Design: intercept + group dummy.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &v in &a {
            x.push(1.0);
            x.push(0.0);
            y.push(v);
        }
        for &v in &b {
            x.push(1.0);
            x.push(1.0);
            y.push(v);
        }
        for tau in [0.25, 0.5, 0.75] {
            let f = fit(&x, 2, &y, tau).unwrap();
            let qa = quantile(&a, tau, QuantileMethod::Interpolated).unwrap();
            let qb = quantile(&b, tau, QuantileMethod::Interpolated).unwrap();
            let tol = 0.01 * (1.0 + qa.abs());
            assert!(
                (f.coefficients[0] - qa).abs() < tol,
                "tau {tau}: {} vs {qa}",
                f.coefficients[0]
            );
            assert!(
                (f.coefficients[1] - (qb - qa)).abs() < 2.0 * tol,
                "tau {tau}: {} vs {}",
                f.coefficients[1],
                qb - qa
            );
        }
    }

    #[test]
    fn irls_objective_not_worse_than_exact() {
        // The IRLS objective should be within a whisker of the exact
        // two-sample optimum.
        let a = skewed_sample(300, 1.0);
        let b = skewed_sample(300, 1.2);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &v in &a {
            x.extend([1.0, 0.0]);
            y.push(v);
        }
        for &v in &b {
            x.extend([1.0, 1.0]);
            y.push(v);
        }
        let tau = 0.5;
        let f = fit(&x, 2, &y, tau).unwrap();
        let qa = quantile(&a, tau, QuantileMethod::Interpolated).unwrap();
        let qb = quantile(&b, tau, QuantileMethod::Interpolated).unwrap();
        let exact = check_loss(&x, 2, &y, &[qa, qb - qa], tau);
        assert!(f.objective <= exact * 1.001, "{} vs {}", f.objective, exact);
    }

    #[test]
    fn quantile_effects_monotone_intercepts() {
        let a = skewed_sample(1000, 0.0);
        let effects = two_sample(
            &sample(&a),
            &sample(&a),
            &[0.1, 0.3, 0.5, 0.7, 0.9],
            0.95,
            100,
            1,
        )
        .unwrap();
        for w in effects.windows(2) {
            assert!(w[0].intercept.estimate <= w[1].intercept.estimate);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let a = [1.0, 2.0, 3.0];
        assert!(two_sample(&sample(&a), &sample(&a), &[], 0.95, 100, 0).is_err());
        assert!(two_sample(&sample(&a), &sample(&a), &[1.5], 0.95, 100, 0).is_err());
        assert!(two_sample(&sample(&a), &sample(&a), &[0.5], 0.95, 5, 0).is_err());
        assert!(fit(&[1.0, 2.0], 2, &[1.0, 2.0], 0.5).is_err()); // shape mismatch
        assert!(fit(&[1.0, 1.0], 1, &[1.0, 2.0], 1.5).is_err());
    }
}
