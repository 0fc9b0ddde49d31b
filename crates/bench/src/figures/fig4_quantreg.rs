//! Figure 4: quantile regression comparing Pilatus against Piz Dora.
//!
//! Top panel: the intercept — Piz Dora's latency as a function of the
//! quantile (with 95 % CIs) against its mean. Bottom panel: the
//! difference Pilatus − Dora per quantile. The paper's observation: the
//! difference of means (≈ +0.108 µs) hides that the sign of the effect
//! *crosses zero* across quantiles — quantile regression reveals it
//! (Rule 8).

use scibench::data::DataSet;
use scibench_sim::machine::MachineSpec;
use scibench_sim::pingpong::{pingpong_latencies_us, PingPongConfig};
use scibench_sim::rng::SimRng;
use scibench_stats::ci::{mean_ci, ConfidenceInterval};
use scibench_stats::error::StatsResult;
use scibench_stats::quantreg::{two_sample, QuantileEffect};
use scibench_stats::Sample;

/// Regenerated Figure 4 data.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The quantiles examined (0.1 … 0.9).
    pub taus: Vec<f64>,
    /// Per-quantile intercept (Dora) and difference (Pilatus − Dora).
    pub effects: Vec<QuantileEffect>,
    /// Dora's mean with 95 % CI (the straight+dotted line of the figure).
    pub dora_mean: ConfidenceInterval,
    /// The difference of means (Pilatus − Dora), µs.
    pub mean_difference: f64,
}

/// Runs the Figure 4 pipeline with `samples` per system.
pub fn compute(samples: usize, seed: u64) -> StatsResult<Fig4> {
    let root = SimRng::new(seed);
    let mut cfg = PingPongConfig::paper_64b(samples);
    cfg.warmup_iterations = 0;
    let dora = pingpong_latencies_us(&MachineSpec::piz_dora(), &cfg, &mut root.fork("fig4-dora"));
    let pilatus = pingpong_latencies_us(
        &MachineSpec::pilatus(),
        &cfg,
        &mut root.fork("fig4-pilatus"),
    );
    let (dora, pilatus) = (Sample::from_vec(dora)?, Sample::from_vec(pilatus)?);

    let taus: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let effects = two_sample(&dora, &pilatus, &taus, 0.95, 400, seed ^ 0xF164)?;
    let dora_mean = mean_ci(dora.values(), 0.95)?;
    let pilatus_mean = mean_ci(pilatus.values(), 0.95)?;
    Ok(Fig4 {
        taus,
        effects,
        mean_difference: pilatus_mean.estimate - dora_mean.estimate,
        dora_mean,
    })
}

impl Fig4 {
    /// The quantile where the difference changes sign, if any (linear
    /// interpolation between adjacent quantiles).
    pub fn crossover_tau(&self) -> Option<f64> {
        for w in self.effects.windows(2) {
            let (a, b) = (w[0].difference.estimate, w[1].difference.estimate);
            if a <= 0.0 && b > 0.0 {
                let f = -a / (b - a);
                return Some(w[0].tau + f * (w[1].tau - w[0].tau));
            }
        }
        None
    }

    /// Renders both panels as tables.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 4: Quantile regression, Pilatus vs Piz Dora (base)\n\n\
             Piz Dora (intercept):\n  tau   latency[us]   95% CI\n",
        );
        for e in &self.effects {
            out.push_str(&format!(
                "  {:.1}   {:8.4}   [{:.4}, {:.4}]\n",
                e.tau, e.intercept.estimate, e.intercept.lower, e.intercept.upper
            ));
        }
        out.push_str(&format!(
            "  mean: {:.4} us, 95% CI [{:.4}, {:.4}]\n\n\
             Pilatus (difference to Piz Dora):\n  tau   diff[us]      95% CI\n",
            self.dora_mean.estimate, self.dora_mean.lower, self.dora_mean.upper
        ));
        for e in &self.effects {
            out.push_str(&format!(
                "  {:.1}   {:+8.4}   [{:+.4}, {:+.4}]{}\n",
                e.tau,
                e.difference.estimate,
                e.difference.lower,
                e.difference.upper,
                if e.difference_significant() { " *" } else { "" }
            ));
        }
        out.push_str(&format!(
            "  difference of means: {:+.4} us\n",
            self.mean_difference
        ));
        if let Some(tau) = self.crossover_tau() {
            out.push_str(&format!(
                "  sign crossover near tau = {tau:.2}: the mean difference hides a\n\
                 \x20 quantile-dependent effect (Rule 8)\n"
            ));
        }
        out
    }

    /// Exports both panels as CSV.
    pub fn dataset(&self) -> DataSet {
        let mut d = DataSet::new(&[
            "tau",
            "intercept",
            "intercept_lo",
            "intercept_hi",
            "difference",
            "difference_lo",
            "difference_hi",
        ])
        .with_metadata("figure", "4")
        .with_metadata("base", "Piz Dora");
        for e in &self.effects {
            d.push_row(&[
                e.tau,
                e.intercept.estimate,
                e.intercept.lower,
                e.intercept.upper,
                e.difference.estimate,
                e.difference.lower,
                e.difference.upper,
            ]);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure4_shape() {
        let f = compute(50_000, 42).unwrap();
        assert_eq!(f.effects.len(), 9);
        // Intercept rises with the quantile (right-skewed latency).
        assert!(f.effects[8].intercept.estimate > f.effects[0].intercept.estimate);
        // Difference negative at low quantiles, positive at high.
        assert!(
            f.effects[0].difference.estimate < 0.0,
            "{:?}",
            f.effects[0].difference
        );
        assert!(
            f.effects[8].difference.estimate > 0.0,
            "{:?}",
            f.effects[8].difference
        );
        assert!(f.crossover_tau().is_some());
        // Mean difference ballpark of the paper's 0.108 µs.
        assert!(
            (0.02..0.30).contains(&f.mean_difference),
            "{}",
            f.mean_difference
        );
    }

    #[test]
    fn extremes_are_significant() {
        let f = compute(50_000, 42).unwrap();
        assert!(f.effects[0].difference_significant());
        assert!(f.effects[8].difference_significant());
    }

    #[test]
    fn render_and_dataset() {
        let f = compute(20_000, 3).unwrap();
        let text = f.render();
        assert!(text.contains("intercept"));
        assert!(text.contains("difference of means"));
        assert_eq!(f.dataset().len(), 9);
    }
}
