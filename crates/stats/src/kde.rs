//! Gaussian kernel density estimation for the paper's density plots
//! (Figures 1, 2, 3 and the violin plots of Figure 7(c)).
//!
//! Two evaluation strategies share one API: exact O(n·g) summation for
//! small samples and linear-binned convolution (O(n + g·w)) for the
//! million-sample latency datasets the paper works with.

use crate::error::{StatsError, StatsResult};
use crate::sorted::Sample;

/// Bandwidth selection rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bandwidth {
    /// Silverman's rule of thumb:
    /// `h = 0.9·min(s, IQR/1.34)·n^(−1/5)` (R's `bw.nrd0`).
    Silverman,
    /// Scott's rule: `h = 1.06·s·n^(−1/5)`.
    Scott,
    /// A fixed, user-supplied bandwidth (> 0).
    Fixed(f64),
}

/// One evaluated density curve.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityEstimate {
    /// Grid positions (ascending, evenly spaced).
    pub x: Vec<f64>,
    /// Density values at each grid position.
    pub density: Vec<f64>,
    /// The bandwidth that was used.
    pub bandwidth: f64,
}

impl DensityEstimate {
    /// Location of the highest density (the main mode).
    pub fn mode(&self) -> f64 {
        let mut best = 0;
        for (i, &d) in self.density.iter().enumerate() {
            if d > self.density[best] {
                best = i;
            }
        }
        self.x[best]
    }

    /// Numerically integrates the density over the grid (trapezoid);
    /// should be close to 1 when the grid covers the support.
    pub fn integral(&self) -> f64 {
        if self.x.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 1..self.x.len() {
            total += 0.5 * (self.density[i] + self.density[i - 1]) * (self.x[i] - self.x[i - 1]);
        }
        total
    }

    /// Interpolated density at an arbitrary position (0 outside the grid).
    pub fn at(&self, x: f64) -> f64 {
        if self.x.is_empty() || x < self.x[0] || x > *self.x.last().unwrap() {
            return 0.0;
        }
        // Degenerate single-point grid: `x` equals the only grid point.
        if self.x.len() < 2 {
            return self.density.first().copied().unwrap_or(0.0);
        }
        let step = self.x[1] - self.x[0];
        if !step.is_finite() || step <= 0.0 {
            return self.density.first().copied().unwrap_or(0.0);
        }
        let idx = (((x - self.x[0]) / step).floor() as usize).min(self.x.len() - 1);
        if idx + 1 >= self.x.len() {
            return *self.density.last().unwrap();
        }
        let frac = (x - self.x[idx]) / step;
        self.density[idx] * (1.0 - frac) + self.density[idx + 1] * frac
    }
}

/// Resolves a bandwidth rule against the sample.
///
/// Only [`Bandwidth::Silverman`] reads an order statistic (the IQR), so
/// only it sorts a copy of `xs`.
pub fn resolve_bandwidth(xs: &[f64], rule: Bandwidth) -> StatsResult<f64> {
    bandwidth(&Sample::new(xs)?, rule)
}

/// [`resolve_bandwidth`] on a sample: the standard deviation is its kept
/// [`Sample::std_dev`], and Silverman's IQR comes from its sort.
fn bandwidth(sample: &Sample<'_>, rule: Bandwidth) -> StatsResult<f64> {
    match rule {
        Bandwidth::Fixed(h) => {
            if !(h.is_finite() && h > 0.0) {
                return Err(StatsError::InvalidParameter {
                    name: "bandwidth",
                    value: h,
                });
            }
            Ok(h)
        }
        Bandwidth::Silverman | Bandwidth::Scott => {
            let s = sample.std_dev()?;
            let n = sample.values().len() as f64;
            let h = match rule {
                Bandwidth::Silverman => {
                    let iqr = sample.sorted().five_number().iqr();
                    let spread = if iqr > 0.0 { s.min(iqr / 1.34) } else { s };
                    0.9 * spread * n.powf(-0.2)
                }
                Bandwidth::Scott => 1.06 * s * n.powf(-0.2),
                Bandwidth::Fixed(_) => unreachable!(),
            };
            if h <= 0.0 {
                return Err(StatsError::ZeroVariance);
            }
            Ok(h)
        }
    }
}

/// Threshold above which the binned evaluation is used.
const BINNED_THRESHOLD: usize = 4096;

/// Estimates the density of `xs` on `grid_size` evenly spaced points
/// covering `[min − 3h, max + 3h]`.
///
/// Samples larger than a few thousand observations are evaluated by linear
/// binning plus kernel convolution, which is exact to well under plotting
/// resolution and fast enough for the paper's 10⁶-sample figures.
///
/// [`Bandwidth::Silverman`] sorts a copy of `xs` for its IQR; a caller
/// that holds a [`Sample`] calls [`Sample::kde`] to read it from the
/// sample's one sort.
pub fn kde(xs: &[f64], rule: Bandwidth, grid_size: usize) -> StatsResult<DensityEstimate> {
    Sample::new(xs)?.kde(rule, grid_size)
}

impl Sample<'_> {
    /// [`kde()`] of this sample. Silverman's IQR comes from
    /// [`Sample::sorted`] and the standard deviation from
    /// [`Sample::std_dev`]; the grid and the binning read the values in
    /// their own order.
    pub fn kde(&self, rule: Bandwidth, grid_size: usize) -> StatsResult<DensityEstimate> {
        if grid_size < 2 {
            return Err(StatsError::InvalidParameter {
                name: "grid_size",
                value: grid_size as f64,
            });
        }
        let h = bandwidth(self, rule)?;
        let xs = self.values();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = min - 3.0 * h;
        let hi = max + 3.0 * h;
        let step = (hi - lo) / (grid_size - 1) as f64;
        let grid: Vec<f64> = (0..grid_size).map(|i| lo + i as f64 * step).collect();

        let density = if xs.len() <= BINNED_THRESHOLD {
            kde_exact(xs, &grid, h)
        } else {
            kde_binned(xs, &grid, lo, step, h)
        };

        Ok(DensityEstimate {
            x: grid,
            density,
            bandwidth: h,
        })
    }
}

/// Exact Gaussian KDE: O(n · g).
fn kde_exact(xs: &[f64], grid: &[f64], h: f64) -> Vec<f64> {
    let norm = 1.0 / (xs.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
    grid.iter()
        .map(|&g| {
            let mut acc = 0.0;
            for &x in xs {
                let z = (g - x) / h;
                if z.abs() < 8.0 {
                    acc += (-0.5 * z * z).exp();
                }
            }
            acc * norm
        })
        .collect()
}

/// Linear-binned Gaussian KDE: O(n + g·w) where w is the kernel halfwidth
/// in grid cells.
fn kde_binned(xs: &[f64], grid: &[f64], lo: f64, step: f64, h: f64) -> Vec<f64> {
    let g = grid.len();
    // Linear binning: distribute each sample over its two nearest grid
    // points proportionally.
    let mut counts = vec![0.0f64; g];
    for &x in xs {
        // Clamp before the cast: float rounding at the grid edges (or a
        // sample exactly at `hi`) must not index one past the last bin.
        let pos = ((x - lo) / step).clamp(0.0, (g - 1) as f64);
        let i = (pos.floor() as usize).min(g - 1);
        let frac = pos - i as f64;
        if i + 1 < g {
            counts[i] += 1.0 - frac;
            counts[i + 1] += frac;
        } else {
            counts[g - 1] += 1.0;
        }
    }
    // Precompute the kernel on the grid spacing out to 6h.
    let halfwidth = ((6.0 * h / step).ceil() as usize).min(g);
    let kernel: Vec<f64> = (0..=halfwidth)
        .map(|d| {
            let z = d as f64 * step / h;
            (-0.5 * z * z).exp()
        })
        .collect();
    let norm = 1.0 / (xs.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
    let mut density = vec![0.0f64; g];
    for (i, &c) in counts.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        let lo_j = i.saturating_sub(halfwidth);
        let hi_j = (i + halfwidth).min(g - 1);
        for (j, dens) in density.iter_mut().enumerate().take(hi_j + 1).skip(lo_j) {
            *dens += c * kernel[i.abs_diff(j)];
        }
    }
    for d in &mut density {
        *d *= norm;
    }
    density
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::FiveNumberSummary;
    use crate::summary::{reference, sample_std_dev};

    fn normal_sample(n: usize, mu: f64, sigma: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                mu + sigma * crate::dist::normal::std_normal_inv_cdf(u)
            })
            .collect()
    }

    #[test]
    fn density_integrates_to_one() {
        let xs = normal_sample(500, 10.0, 2.0);
        let d = kde(&xs, Bandwidth::Silverman, 512).unwrap();
        assert!(
            (d.integral() - 1.0).abs() < 0.01,
            "integral = {}",
            d.integral()
        );
    }

    #[test]
    fn mode_near_true_mean_for_normal_data() {
        let xs = normal_sample(1000, 5.0, 1.0);
        let d = kde(&xs, Bandwidth::Silverman, 512).unwrap();
        assert!((d.mode() - 5.0).abs() < 0.2, "mode = {}", d.mode());
    }

    #[test]
    fn binned_matches_exact() {
        // Same data evaluated both ways must agree closely.
        let xs = normal_sample(2000, 0.0, 1.0);
        let h = resolve_bandwidth(&xs, Bandwidth::Silverman).unwrap();
        let d = kde(&xs, Bandwidth::Fixed(h), 256).unwrap();
        let exact = kde_exact(&xs, &d.x, h);
        for (a, b) in d.density.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // Force the binned path with a large sample and check integral.
        let big: Vec<f64> = (0..20_000)
            .map(|i| {
                let u = (i as f64 + 0.5) / 20_000.0;
                crate::dist::normal::std_normal_inv_cdf(u)
            })
            .collect();
        let db = kde(&big, Bandwidth::Silverman, 512).unwrap();
        assert!((db.integral() - 1.0).abs() < 0.01);
        assert!(db.mode().abs() < 0.1);
    }

    #[test]
    fn bimodal_data_has_two_modes() {
        let mut xs = normal_sample(400, 0.0, 0.3);
        xs.extend(normal_sample(400, 5.0, 0.3));
        let d = kde(&xs, Bandwidth::Silverman, 512).unwrap();
        // Density at both centers far above density at the valley.
        let at0 = d.at(0.0);
        let at5 = d.at(5.0);
        let mid = d.at(2.5);
        assert!(at0 > 4.0 * mid, "{at0} vs {mid}");
        assert!(at5 > 4.0 * mid);
    }

    #[test]
    fn silverman_matches_formula() {
        let xs = normal_sample(100, 0.0, 1.0);
        let h = resolve_bandwidth(&xs, Bandwidth::Silverman).unwrap();
        let s = sample_std_dev(&xs).unwrap();
        let iqr = FiveNumberSummary::from_samples(&xs).unwrap().iqr();
        let want = 0.9 * s.min(iqr / 1.34) * 100f64.powf(-0.2);
        assert!((h - want).abs() < 1e-12);
    }

    #[test]
    fn fixed_bandwidth_respected() {
        let xs = normal_sample(50, 0.0, 1.0);
        let d = kde(&xs, Bandwidth::Fixed(0.5), 64).unwrap();
        assert_eq!(d.bandwidth, 0.5);
    }

    #[test]
    fn at_outside_grid_is_zero() {
        let xs = normal_sample(50, 0.0, 1.0);
        let d = kde(&xs, Bandwidth::Silverman, 64).unwrap();
        assert_eq!(d.at(1e9), 0.0);
        assert_eq!(d.at(-1e9), 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(kde(&[], Bandwidth::Silverman, 64).is_err());
        assert!(kde(&[1.0, 2.0], Bandwidth::Fixed(0.0), 64).is_err());
        assert!(kde(&[1.0, 2.0], Bandwidth::Silverman, 1).is_err());
        assert!(resolve_bandwidth(&[1.0], Bandwidth::Silverman).is_err());
    }

    /// Seeded samples on both sides of [`BINNED_THRESHOLD`]: a heavy
    /// tail; long tie runs with `-0.0` and `+0.0` mixed, in both orders;
    /// subnormals among ordinary values.
    fn sharing_cases() -> Vec<Vec<f64>> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cases = Vec::new();
        for n in [6, 7, 4096, 4097, 100_000] {
            let uniform = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
            cases.push((0..n).map(|_| (1.0 - uniform(next())).powf(-0.8)).collect());
            let ties: Vec<f64> = (0..n)
                .map(|_| [-0.0, 0.0, 1.0, 1.0, 2.5, 4.0][(next() % 6) as usize])
                .collect();
            cases.push(ties.iter().rev().copied().collect());
            cases.push(ties);
            cases.push(
                (0..n)
                    .map(|_| match next() % 3 {
                        0 => f64::from_bits(next() >> 12),
                        1 => -f64::from_bits(next() >> 12),
                        _ => 1.0 + uniform(next()),
                    })
                    .collect(),
            );
        }
        cases
    }

    fn density_bits(d: &DensityEstimate) -> (Vec<u64>, Vec<u64>, u64) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (bits(&d.x), bits(&d.density), d.bandwidth.to_bits())
    }

    #[test]
    fn sample_statistics_equal_the_per_call_functions() {
        for xs in sharing_cases() {
            // One sample serves every rule.
            let sample = Sample::new(&xs).unwrap();
            let n = xs.len() as f64;
            let s = reference::sample_variance(&xs).unwrap().sqrt();
            let iqr = FiveNumberSummary::from_samples(&xs).unwrap().iqr();
            let spread = if iqr > 0.0 { s.min(iqr / 1.34) } else { s };
            for (rule, h) in [
                (Bandwidth::Silverman, 0.9 * spread * n.powf(-0.2)),
                (Bandwidth::Scott, 1.06 * s * n.powf(-0.2)),
                (Bandwidth::Fixed(0.25), 0.25),
            ] {
                let label = format!("n = {}, {rule:?}", xs.len());
                let d = sample.kde(rule, 97).unwrap();
                // The bandwidth reads the standard deviation of the values
                // in input order and the IQR of the sort.
                assert_eq!(d.bandwidth.to_bits(), h.to_bits(), "{label}");
                // The grid and the binning read the values in input order.
                let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let (lo, hi) = (min - 3.0 * h, max + 3.0 * h);
                let density = if xs.len() <= BINNED_THRESHOLD {
                    kde_exact(&xs, &d.x, h)
                } else {
                    kde_binned(&xs, &d.x, lo, (hi - lo) / 96.0, h)
                };
                let want = DensityEstimate {
                    x: (0..97)
                        .map(|i| lo + i as f64 * ((hi - lo) / 96.0))
                        .collect(),
                    density,
                    bandwidth: h,
                };
                assert_eq!(density_bits(&want), density_bits(&d), "{label}");
                let slice = kde(&xs, rule, 97).unwrap();
                assert_eq!(density_bits(&slice), density_bits(&d), "{label}");
            }
        }
    }

    #[test]
    fn constant_sample_rejected() {
        assert!(matches!(
            kde(&[2.0; 10], Bandwidth::Silverman, 64),
            Err(StatsError::ZeroVariance)
        ));
    }
}
