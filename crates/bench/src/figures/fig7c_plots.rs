//! Figure 7(c): box plot, violin plot and combined plot of 64 B
//! ping-pong latencies on Piz Dora.
//!
//! The paper plots 10⁶ samples three ways to show how much information
//! each representation carries: the box (quartiles + 1.5 IQR whiskers +
//! mean/median), the violin (full density + quartiles), and the
//! combination with the 95 % CI of the median marked.

use scibench::data::DataSet;
use scibench::plot::ascii::{render_box, render_violin};
use scibench::plot::boxplot::{BoxPlotStats, WhiskerRule};
use scibench::plot::violin::ViolinData;
use scibench_sim::machine::MachineSpec;
use scibench_sim::pingpong::{pingpong_latencies_us, PingPongConfig};
use scibench_sim::rng::SimRng;
use scibench_stats::ci::ConfidenceInterval;
use scibench_stats::error::StatsResult;
use scibench_stats::Sample;

/// Regenerated Figure 7(c) data.
#[derive(Debug, Clone)]
pub struct Fig7c {
    /// Latency samples (µs).
    pub latencies_us: Vec<f64>,
    /// Box statistics (1.5 IQR whiskers as in the figure).
    pub boxplot: BoxPlotStats,
    /// Violin data (density + quartiles + both means).
    pub violin: ViolinData,
    /// 95 % CI of the median (the combined panel's annotation).
    pub median_ci: ConfidenceInterval,
}

/// Runs the Figure 7(c) pipeline with `samples` ping-pong measurements.
pub fn compute(samples: usize, seed: u64) -> StatsResult<Fig7c> {
    let machine = MachineSpec::piz_dora();
    let mut cfg = PingPongConfig::paper_64b(samples);
    cfg.warmup_iterations = 0;
    let mut rng = SimRng::new(seed).fork("fig7c");
    let latencies = pingpong_latencies_us(&machine, &cfg, &mut rng);
    // One sort serves the box, the violin and the median CI.
    let sample = Sample::new(&latencies)?;
    let boxplot = BoxPlotStats::from_sample("ping-pong 64B", &sample, WhiskerRule::TukeyIqr)?;
    let violin = ViolinData::from_sample("ping-pong 64B", &sample, 256)?;
    let median_ci = sample.sorted().median_ci(0.95)?;
    drop(sample);
    Ok(Fig7c {
        latencies_us: latencies,
        boxplot,
        violin,
        median_ci,
    })
}

impl Fig7c {
    /// Renders all three representations.
    pub fn render(&self) -> String {
        let b = &self.boxplot;
        let mut out = format!(
            "Figure 7(c): {} ping-pong latencies on Piz Dora (model), in us\n\n\
             box plot ({}):\n",
            self.latencies_us.len(),
            b.whisker_rule.describe()
        );
        let hi = b.five_number.max.min(b.whisker_high * 2.0);
        out.push_str(&render_box(b, b.five_number.min * 0.95, hi, 70));
        out.push_str(&format!(
            "  q1 {:.4}  median {:.4}  q3 {:.4}  mean {:.4}\n  outliers beyond 1.5 IQR: {}\n\n\
             violin (density silhouette):\n",
            b.five_number.q1,
            b.five_number.median,
            b.five_number.q3,
            b.mean,
            b.outliers.len()
        ));
        out.push_str(&render_violin(&self.violin, 70, 13));
        out.push_str(&format!(
            "\ncombined annotations:\n  arithmetic mean {:.4} us, geometric mean {:.4} us\n  95% CI(median): [{:.4}, {:.4}] us\n",
            self.violin.mean,
            self.violin.geometric_mean.unwrap_or(f64::NAN),
            self.median_ci.lower,
            self.median_ci.upper
        ));
        out
    }

    /// Exports the box/violin statistics as CSV.
    pub fn dataset(&self) -> DataSet {
        let b = &self.boxplot;
        let mut d = DataSet::new(&[
            "min",
            "q1",
            "median",
            "q3",
            "max",
            "mean",
            "geometric_mean",
            "whisker_low",
            "whisker_high",
            "outliers",
            "median_ci_lo",
            "median_ci_hi",
        ])
        .with_metadata("figure", "7c")
        .with_metadata("workload", "64B ping-pong, Piz Dora model");
        d.push_row(&[
            b.five_number.min,
            b.five_number.q1,
            b.five_number.median,
            b.five_number.q3,
            b.five_number.max,
            b.mean,
            self.violin.geometric_mean.unwrap_or(f64::NAN),
            b.whisker_low,
            b.whisker_high,
            b.outliers.len() as f64,
            self.median_ci.lower,
            self.median_ci.upper,
        ]);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_magnitudes() {
        let f = compute(100_000, 42).unwrap();
        let b = &f.boxplot;
        // The figure's axis spans roughly 1.75..2.5 µs; our model targets
        // the same body (median ~1.75, q3 below 2.1).
        assert!(
            (1.5..2.1).contains(&b.five_number.median),
            "median {}",
            b.five_number.median
        );
        assert!(b.five_number.q3 < 2.6);
        // Long right tail → outliers beyond 1.5 IQR exist.
        assert!(!b.outliers.is_empty());
        // Mean above median; geometric mean between them and min.
        assert!(b.mean > b.five_number.median);
        let gm = f.violin.geometric_mean.unwrap();
        assert!(gm < b.mean && gm > b.five_number.min);
    }

    #[test]
    fn median_ci_is_tight_with_many_samples() {
        let f = compute(100_000, 42).unwrap();
        assert!(f.median_ci.relative_half_width().unwrap() < 0.01);
    }

    #[test]
    fn render_and_dataset() {
        let f = compute(20_000, 1).unwrap();
        let text = f.render();
        assert!(text.contains("box plot"));
        assert!(text.contains("violin"));
        assert!(text.contains("95% CI(median)"));
        assert_eq!(f.dataset().len(), 1);
    }
}
