//! Figure 3: significance of latency results on two systems.
//!
//! Two latency distributions (Piz Dora, Pilatus), each annotated with the
//! arithmetic mean + 99 % CI, the median + 99 % CI, and min/max. The
//! medians differ significantly (Kruskal–Wallis at 95 %) "even though
//! many of the 1M measurements overlap"; the mean CI is tiny and
//! misleading because neither distribution is normal.

use scibench::compare::{compare_samples, Comparison};
use scibench::data::DataSet;
use scibench::plot::ascii::render_density;
use scibench_sim::machine::MachineSpec;
use scibench_sim::pingpong::{pingpong_latencies_us, PingPongConfig};
use scibench_sim::rng::SimRng;
use scibench_stats::ci::ConfidenceInterval;
use scibench_stats::error::StatsResult;
use scibench_stats::kde::{Bandwidth, DensityEstimate};
use scibench_stats::Sample;

/// One system's annotated distribution.
#[derive(Debug, Clone)]
pub struct SystemPanel {
    /// System name.
    pub name: String,
    /// Latency samples (µs), with the one sort of the panel: read by the
    /// density, both median CIs, the rank test and the report's summary.
    pub latencies_us: Sample<'static>,
    /// Density estimate.
    pub density: DensityEstimate,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// 99 % CI of the mean (parametric — shown to make the paper's point
    /// that it is misleadingly narrow).
    pub mean_ci: ConfidenceInterval,
    /// 99 % CI of the median (nonparametric).
    pub median_ci: ConfidenceInterval,
}

/// Regenerated Figure 3 data.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// The Piz Dora panel.
    pub dora: SystemPanel,
    /// The Pilatus panel.
    pub pilatus: SystemPanel,
    /// Full statistical comparison (Kruskal–Wallis etc.).
    pub comparison: Comparison,
}

fn panel(
    name: &str,
    machine: &MachineSpec,
    samples: usize,
    rng: &mut SimRng,
) -> StatsResult<SystemPanel> {
    let mut cfg = PingPongConfig::paper_64b(samples);
    cfg.warmup_iterations = 0;
    let latencies = Sample::from_vec(pingpong_latencies_us(machine, &cfg, rng))?;
    let xs = latencies.values();
    Ok(SystemPanel {
        name: name.to_owned(),
        min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
        max: xs.iter().cloned().fold(0.0, f64::max),
        mean_ci: latencies.mean_ci(0.99)?,
        median_ci: latencies.sorted().median_ci(0.99)?,
        density: latencies.kde(Bandwidth::Silverman, 512)?,
        latencies_us: latencies,
    })
}

/// Runs the Figure 3 pipeline with `samples` per system.
pub fn compute(samples: usize, seed: u64) -> StatsResult<Fig3> {
    let root = SimRng::new(seed);
    let mut rng_dora = root.fork("fig3-dora");
    let mut rng_pilatus = root.fork("fig3-pilatus");
    let dora = panel("Piz Dora", &MachineSpec::piz_dora(), samples, &mut rng_dora)?;
    let pilatus = panel(
        "Pilatus",
        &MachineSpec::pilatus(),
        samples,
        &mut rng_pilatus,
    )?;
    let comparison = compare_samples(
        &dora.name,
        &dora.latencies_us,
        &pilatus.name,
        &pilatus.latencies_us,
        0.95,
        &[],
        seed ^ 0xF163,
    )?;
    Ok(Fig3 {
        dora,
        pilatus,
        comparison,
    })
}

impl Fig3 {
    /// Builds the rule-compliant experiment report for this figure — the
    /// library auditing its own reproduction.
    pub fn report(&self) -> scibench::report::ExperimentReport {
        use scibench::experiment::environment::DocumentationClass;
        use scibench::experiment::measurement::MeasurementSummary;
        use scibench::parallel::CrossProcessSummary;
        use scibench::report::{ExperimentReport, ParallelMethodology};
        use scibench::units::Unit;

        let summarize = |panel: &SystemPanel| {
            let name = format!("64B ping-pong ({})", panel.name);
            MeasurementSummary::from_sample(&name, &panel.latencies_us, true, 0.99)
                .expect("panel summary")
        };
        let env = scibench::experiment::environment::EnvironmentDoc::from_machine(
            &MachineSpec::piz_dora(),
        )
        .document(
            DocumentationClass::Input,
            "64 B ping-pong, two processes on distinct nodes",
        )
        .document(
            DocumentationClass::MeasurementSetup,
            "single-event timing, warmup discarded, full sample reported",
        )
        .document(
            DocumentationClass::CodeAvailability,
            "this repository (fig3_significance)",
        )
        .not_applicable(DocumentationClass::Filesystem, "no I/O");
        ExperimentReport::new("Figure 3: latency significance on two systems")
            .environment(env)
            .entry(summarize(&self.dora), Unit::Seconds)
            .entry(summarize(&self.pilatus), Unit::Seconds)
            .comparison(self.comparison.clone())
            .parallel(ParallelMethodology {
                processes: 2,
                synchronization: "ping-pong implicit synchronization".into(),
                summarization: CrossProcessSummary::Max,
                anova_checked: true,
            })
            .plot("latency densities", "density", None)
    }

    /// Renders both panels plus the significance verdict.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 3: Significance of latency results on two systems\n\n");
        for p in [&self.dora, &self.pilatus] {
            out.push_str(&format!(
                "{}\n  min: {:.2} us   max: {:.2} us\n  mean {:.4} us, 99% CI [{:.4}, {:.4}] (parametric - misleadingly narrow)\n  median {:.4} us, 99% CI [{:.4}, {:.4}] (nonparametric)\n",
                p.name,
                p.min,
                p.max,
                p.mean_ci.estimate,
                p.mean_ci.lower,
                p.mean_ci.upper,
                p.median_ci.estimate,
                p.median_ci.lower,
                p.median_ci.upper,
            ));
            out.push_str(&render_density(&p.density, 78, 8));
            out.push('\n');
        }
        out.push_str(&format!(
            "Kruskal-Wallis H = {:.1}, p = {:.2e}: medians differ {}\n",
            self.comparison.kruskal_wallis.statistic,
            self.comparison.kruskal_wallis.p_value,
            if self.comparison.significant() {
                "SIGNIFICANTLY (95%)"
            } else {
                "insignificantly"
            },
        ));
        out.push_str(&format!(
            "mean difference (Pilatus - Dora): {:+.4} us\n",
            self.comparison.mean_ci_b.estimate - self.comparison.mean_ci_a.estimate
        ));
        out
    }

    /// Summary statistics per system as CSV.
    pub fn dataset(&self) -> DataSet {
        let mut d = DataSet::new(&[
            "system",
            "min",
            "max",
            "mean",
            "mean_ci_lo",
            "mean_ci_hi",
            "median",
            "median_ci_lo",
            "median_ci_hi",
        ])
        .with_metadata("figure", "3")
        .with_metadata("systems", "0=PizDora 1=Pilatus");
        for (i, p) in [&self.dora, &self.pilatus].iter().enumerate() {
            d.push_row(&[
                i as f64,
                p.min,
                p.max,
                p.mean_ci.estimate,
                p.mean_ci.lower,
                p.mean_ci.upper,
                p.median_ci.estimate,
                p.median_ci.lower,
                p.median_ci.upper,
            ]);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_differ_significantly() {
        let f = compute(50_000, 42).unwrap();
        assert!(
            f.comparison.significant(),
            "p = {}",
            f.comparison.kruskal_wallis.p_value
        );
    }

    #[test]
    fn figure3_shape_facts() {
        let f = compute(50_000, 42).unwrap();
        // Pilatus: lower min, higher max (heavier tail), higher mean.
        assert!(f.pilatus.min < f.dora.min);
        assert!(f.pilatus.max > f.dora.max);
        let diff = f.comparison.mean_ci_b.estimate - f.comparison.mean_ci_a.estimate;
        assert!((0.02..0.3).contains(&diff), "mean diff {diff}");
        // Mean CIs are much narrower than the min-max spread (the
        // "misleading" visual of the figure).
        assert!(f.dora.mean_ci.width() < (f.dora.max - f.dora.min) * 0.05);
    }

    #[test]
    fn render_and_dataset() {
        let f = compute(20_000, 1).unwrap();
        let text = f.render();
        assert!(text.contains("Piz Dora"));
        assert!(text.contains("Pilatus"));
        assert!(text.contains("Kruskal-Wallis"));
        assert_eq!(f.dataset().len(), 2);
    }

    #[test]
    fn figure_report_passes_the_twelve_rules() {
        let f = compute(10_000, 2).unwrap();
        let report = f.report();
        let audit = scibench::rules::RuleAudit::check(&report);
        assert!(audit.passed(), "{}", audit.render());
        // Skewed latency data: the normality gate must have rejected the
        // parametric mean CI in both entries.
        for e in &report.entries {
            assert!(!e.summary.mean_ci_valid, "{}", e.summary.name);
        }
    }
}
