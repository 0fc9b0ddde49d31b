//! Experiment reports: the artifact the twelve rules are audited against.
//!
//! An [`ExperimentReport`] aggregates everything a paper section would
//! contain about one experiment: the environment documentation (Rule 9),
//! per-operation measurement summaries with units (Rules 2/5/6), speedups
//! with base cases (Rule 1), statistical comparisons (Rules 7/8),
//! bounds models (Rule 11), parallel-measurement methodology (Rule 10)
//! and attached plots (Rule 12). [`crate::rules::RuleAudit`] consumes it.

use crate::bounds::ScalingBound;
use crate::compare::Comparison;
use crate::experiment::environment::EnvironmentDoc;
use crate::experiment::measurement::MeasurementSummary;
use crate::parallel::CrossProcessSummary;
use crate::speedup::Speedup;
use crate::units::Unit;

/// One measured operation with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEntry {
    /// The Rule 5/6-compliant summary.
    pub summary: MeasurementSummary,
    /// The unit of the measured values (Rule 2).
    pub unit: Unit,
}

/// How parallel time was measured (Rule 10): all three methodology
/// ingredients must be stated.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelMethodology {
    /// Number of processes.
    pub processes: usize,
    /// Synchronization scheme description, e.g. "window-based (1 ms
    /// window)" or "MPI_Barrier".
    pub synchronization: String,
    /// How per-process values were collapsed.
    pub summarization: CrossProcessSummary,
    /// Whether the cross-process ANOVA check was performed.
    pub anova_checked: bool,
}

/// A reference to a figure/plot attached to the experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlotRef {
    /// Plot title.
    pub title: String,
    /// Plot kind, e.g. "density", "boxplot", "series".
    pub kind: String,
    /// Rule 12 flag: whether points are connected, if a series.
    pub connected: Option<bool>,
}

/// A complete experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment title.
    pub title: String,
    /// Rule 9 environment documentation.
    pub environment: EnvironmentDoc,
    /// Measured operations.
    pub entries: Vec<ReportEntry>,
    /// Reported speedups (Rule 1 is enforced by the type).
    pub speedups: Vec<Speedup>,
    /// Statistical comparisons between configurations (Rule 7/8).
    pub comparisons: Vec<Comparison>,
    /// Bounds models shown with the results (Rule 11).
    pub bounds: Vec<ScalingBound>,
    /// Parallel measurement methodology; `None` for serial experiments.
    pub parallel: Option<ParallelMethodology>,
    /// Attached plots (Rule 12).
    pub plots: Vec<PlotRef>,
    /// Whether any reported number is a geometric mean of ratios
    /// (Rule 4's last resort — must be justified in `notes`).
    pub ratio_geomean_used: bool,
    /// Whether subsets of a standard benchmark/application were used and,
    /// if so, whether a reason is given (Rule 2 of §2.1.3 — cherry
    /// picking). `None` = full benchmarks used.
    pub subset_justification: Option<String>,
    /// Free-form notes.
    pub notes: String,
}

impl ExperimentReport {
    /// Creates an empty report skeleton.
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_owned(),
            environment: EnvironmentDoc::new(),
            entries: Vec::new(),
            speedups: Vec::new(),
            comparisons: Vec::new(),
            bounds: Vec::new(),
            parallel: None,
            plots: Vec::new(),
            ratio_geomean_used: false,
            subset_justification: None,
            notes: String::new(),
        }
    }

    /// Sets the environment documentation.
    pub fn environment(mut self, env: EnvironmentDoc) -> Self {
        self.environment = env;
        self
    }

    /// Adds a measurement entry.
    pub fn entry(mut self, summary: MeasurementSummary, unit: Unit) -> Self {
        self.entries.push(ReportEntry { summary, unit });
        self
    }

    /// Adds a speedup.
    pub fn speedup(mut self, s: Speedup) -> Self {
        self.speedups.push(s);
        self
    }

    /// Adds a comparison.
    pub fn comparison(mut self, c: Comparison) -> Self {
        self.comparisons.push(c);
        self
    }

    /// Adds a bounds model.
    pub fn bound(mut self, b: ScalingBound) -> Self {
        self.bounds.push(b);
        self
    }

    /// Declares the parallel methodology.
    pub fn parallel(mut self, p: ParallelMethodology) -> Self {
        self.parallel = Some(p);
        self
    }

    /// Attaches a plot reference.
    pub fn plot(mut self, title: &str, kind: &str, connected: Option<bool>) -> Self {
        self.plots.push(PlotRef {
            title: title.to_owned(),
            kind: kind.to_owned(),
            connected,
        });
        self
    }

    /// Renders the full report as text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "=== {} ===\n\n-- environment (Rule 9) --\n{}\n",
            self.title,
            self.environment.render()
        );
        if let Some(p) = &self.parallel {
            out.push_str(&format!(
                "-- parallel methodology (Rule 10) --\nprocesses: {}\nsynchronization: {}\nsummary across processes: {:?}\nANOVA across processes: {}\n\n",
                p.processes, p.synchronization, p.summarization, p.anova_checked
            ));
        }
        if !self.entries.is_empty() {
            out.push_str("-- measurements --\n");
            for e in &self.entries {
                out.push_str(&format!(
                    "[unit: {}]\n{}\n",
                    e.unit.symbol(),
                    e.summary.render()
                ));
            }
        }
        if !self.speedups.is_empty() {
            out.push_str("-- speedups (Rule 1) --\n");
            for s in &self.speedups {
                out.push_str(&format!("{s}\n"));
            }
            out.push('\n');
        }
        for c in &self.comparisons {
            out.push_str("-- comparison (Rules 7/8) --\n");
            out.push_str(&c.render());
            out.push('\n');
        }
        if !self.bounds.is_empty() {
            out.push_str("-- bounds (Rule 11) --\n");
            for b in &self.bounds {
                out.push_str(&format!("{}\n", b.label()));
            }
            out.push('\n');
        }
        if !self.plots.is_empty() {
            out.push_str("-- plots (Rule 12) --\n");
            for p in &self.plots {
                out.push_str(&format!("{} ({})\n", p.title, p.kind));
            }
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("-- notes --\n{}\n", self.notes));
        }
        out
    }

    /// Renders the report as Markdown (for READMEs, issues, papers).
    pub fn render_markdown(&self) -> String {
        let mut out = format!(
            "# {}\n\n## Environment (Rule 9)\n\n```\n{}```\n\n",
            self.title,
            self.environment.render()
        );
        if let Some(p) = &self.parallel {
            out.push_str(&format!(
                "## Parallel methodology (Rule 10)\n\n- processes: {}\n- synchronization: {}\n- cross-process summary: {:?}\n- ANOVA across processes: {}\n\n",
                p.processes, p.synchronization, p.summarization, p.anova_checked
            ));
        }
        if !self.entries.is_empty() {
            out.push_str("## Measurements\n\n| operation | unit | n | dropped | det. | median | mean | CI |\n|---|---|---|---|---|---|---|---|\n");
            let mut contaminated = 0usize;
            for e in &self.entries {
                let s = &e.summary;
                let ci = match (&s.median_ci, s.mean_ci_valid, &s.mean_ci) {
                    (Some(ci), _, _) => format!(
                        "{:.0}% median CI [{:.4}, {:.4}]",
                        s.confidence * 100.0,
                        ci.lower,
                        ci.upper
                    ),
                    (None, true, Some(ci)) => format!(
                        "{:.0}% mean CI [{:.4}, {:.4}]",
                        s.confidence * 100.0,
                        ci.lower,
                        ci.upper
                    ),
                    _ => "-".into(),
                };
                let dropped = if s.samples_dropped > 0 {
                    contaminated += 1;
                    format!("{} of {}", s.samples_dropped, s.samples_recorded)
                } else {
                    "0".into()
                };
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {:.6} | {:.6} | {} |\n",
                    s.name,
                    e.unit.symbol(),
                    s.n,
                    dropped,
                    if s.deterministic { "yes" } else { "no" },
                    s.five_number.median,
                    s.mean,
                    ci
                ));
            }
            out.push('\n');
            if contaminated > 0 {
                // Rule 4: failed runs are reported, not hidden.
                out.push_str(&format!(
                    "{contaminated} of {} operations lost samples to faults; their mean CIs \
                     are withheld and the nonparametric median CIs above apply.\n\n",
                    self.entries.len()
                ));
            }
        }
        if !self.speedups.is_empty() {
            out.push_str("## Speedups (Rule 1)\n\n");
            for s in &self.speedups {
                out.push_str(&format!("- {s}\n"));
            }
            out.push('\n');
        }
        for c in &self.comparisons {
            out.push_str(&format!(
                "## Comparison: {} vs {}\n\n```\n{}```\n\n",
                c.label_a,
                c.label_b,
                c.render()
            ));
        }
        if !self.bounds.is_empty() {
            out.push_str("## Bounds (Rule 11)\n\n");
            for b in &self.bounds {
                out.push_str(&format!("- {}\n", b.label()));
            }
            out.push('\n');
        }
        if !self.plots.is_empty() {
            out.push_str("## Plots (Rule 12)\n\n");
            for p in &self.plots {
                out.push_str(&format!("- {} ({})\n", p.title, p.kind));
            }
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("## Notes\n\n{}\n", self.notes));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::measurement::{MeasurementPlan, StoppingRule};
    use crate::speedup::BaseCase;

    fn demo_summary() -> MeasurementSummary {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(50));
        let mut x = 0u64;
        plan.run(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            1.0 + (x % 97) as f64 / 970.0
        })
        .unwrap()
        .summarize(0.95)
        .unwrap()
    }

    #[test]
    fn builder_accumulates_sections() {
        let r = ExperimentReport::new("demo")
            .entry(demo_summary(), Unit::Seconds)
            .speedup(Speedup::from_times(2.0, 1.0, BaseCase::BestSerial))
            .bound(ScalingBound::IdealLinear)
            .plot("scaling", "series", Some(true));
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.speedups.len(), 1);
        assert_eq!(r.bounds.len(), 1);
        assert_eq!(r.plots.len(), 1);
    }

    #[test]
    fn render_contains_rule_sections() {
        let r = ExperimentReport::new("render-test")
            .entry(demo_summary(), Unit::Seconds)
            .speedup(Speedup::from_times(
                2.0,
                1.0,
                BaseCase::SingleParallelProcess,
            ))
            .bound(ScalingBound::Amdahl {
                serial_fraction: 0.01,
            })
            .parallel(ParallelMethodology {
                processes: 64,
                synchronization: "window-based (1 ms)".into(),
                summarization: CrossProcessSummary::Max,
                anova_checked: true,
            })
            .plot("density", "density", None);
        let text = r.render();
        for needle in [
            "=== render-test ===",
            "Rule 9",
            "Rule 10",
            "window-based",
            "[unit: s]",
            "Rule 1",
            "single parallel process",
            "Rule 11",
            "Serial Overheads Bound",
            "Rule 12",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn empty_report_renders() {
        let text = ExperimentReport::new("empty").render();
        assert!(text.contains("=== empty ==="));
        assert!(text.contains("MISSING")); // environment entirely missing
    }

    #[test]
    fn markdown_discloses_dropped_samples() {
        let mut s = demo_summary();
        s.samples_recorded = s.n + 3;
        s.samples_dropped = 3;
        s.dropped_nan = 2;
        s.dropped_infinite = 1;
        s.mean_ci_valid = false;
        let md = ExperimentReport::new("dropped")
            .entry(s, Unit::Seconds)
            .render_markdown();
        assert!(md.contains("| 3 of 53 |"), "{md}");
        assert!(md.contains("1 of 1 operations lost samples"), "{md}");

        let clean = ExperimentReport::new("clean")
            .entry(demo_summary(), Unit::Seconds)
            .render_markdown();
        assert!(clean.contains("| 0 |"), "{clean}");
        assert!(!clean.contains("lost samples"), "{clean}");
    }

    #[test]
    fn markdown_render_contains_tables_and_sections() {
        let r = ExperimentReport::new("md-test")
            .entry(demo_summary(), Unit::Seconds)
            .speedup(Speedup::from_times(2.0, 1.0, BaseCase::BestSerial))
            .bound(ScalingBound::IdealLinear)
            .parallel(ParallelMethodology {
                processes: 4,
                synchronization: "window".into(),
                summarization: CrossProcessSummary::Median,
                anova_checked: false,
            })
            .plot("p1", "series", Some(true));
        let md = r.render_markdown();
        for needle in [
            "# md-test",
            "## Environment (Rule 9)",
            "## Parallel methodology (Rule 10)",
            "| operation | unit |",
            "| op | s |",
            "## Speedups (Rule 1)",
            "## Bounds (Rule 11)",
            "## Plots (Rule 12)",
        ] {
            assert!(md.contains(needle), "missing {needle} in:\n{md}");
        }
    }
}
