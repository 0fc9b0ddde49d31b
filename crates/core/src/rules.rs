//! The twelve rules, codified (the paper's central contribution).
//!
//! [`Rule`] enumerates the rules with their verbatim statements;
//! [`RuleAudit::check`] inspects an [`ExperimentReport`] and grades each
//! rule as passed, failed, warned or not applicable — the "authors could
//! ensure readers that they follow all rules and guidelines stated in
//! this paper" checklist of §8, made executable.

use std::fmt;

use crate::report::ExperimentReport;

/// The twelve rules of Hoefler & Belli (SC '15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Rule 1: speedup base case and its absolute performance.
    R1SpeedupBaseCase,
    /// Rule 2: specify reasons for benchmark subsets / partial resources.
    R2NoCherryPicking,
    /// Rule 3: arithmetic mean only for costs, harmonic mean for rates.
    R3CorrectMean,
    /// Rule 4: avoid summarizing ratios; geometric mean as last resort.
    R4NoRatioAverages,
    /// Rule 5: report determinism; CIs for nondeterministic data.
    R5ReportVariability,
    /// Rule 6: do not assume normality without diagnostic checking.
    R6CheckNormality,
    /// Rule 7: statistically sound comparison.
    R7SoundComparison,
    /// Rule 8: choose appropriate measures (percentiles for tails).
    R8RightStatistic,
    /// Rule 9: document all factors, levels and the full setup.
    R9DocumentSetup,
    /// Rule 10: report parallel measurement, sync and summarization.
    R10ParallelTime,
    /// Rule 11: show upper performance bounds.
    R11Bounds,
    /// Rule 12: informative plots; connect points only for trends.
    R12Plots,
}

impl Rule {
    /// All twelve rules in order.
    pub const ALL: [Rule; 12] = [
        Rule::R1SpeedupBaseCase,
        Rule::R2NoCherryPicking,
        Rule::R3CorrectMean,
        Rule::R4NoRatioAverages,
        Rule::R5ReportVariability,
        Rule::R6CheckNormality,
        Rule::R7SoundComparison,
        Rule::R8RightStatistic,
        Rule::R9DocumentSetup,
        Rule::R10ParallelTime,
        Rule::R11Bounds,
        Rule::R12Plots,
    ];

    /// Rule number, 1–12.
    pub fn number(&self) -> u8 {
        match self {
            Rule::R1SpeedupBaseCase => 1,
            Rule::R2NoCherryPicking => 2,
            Rule::R3CorrectMean => 3,
            Rule::R4NoRatioAverages => 4,
            Rule::R5ReportVariability => 5,
            Rule::R6CheckNormality => 6,
            Rule::R7SoundComparison => 7,
            Rule::R8RightStatistic => 8,
            Rule::R9DocumentSetup => 9,
            Rule::R10ParallelTime => 10,
            Rule::R11Bounds => 11,
            Rule::R12Plots => 12,
        }
    }

    /// The rule's statement, abridged from the paper.
    pub fn statement(&self) -> &'static str {
        match self {
            Rule::R1SpeedupBaseCase => {
                "When publishing parallel speedup, report if the base case is a single \
                 parallel process or best serial execution, as well as the absolute \
                 execution performance of the base case."
            }
            Rule::R2NoCherryPicking => {
                "Specify the reason for only reporting subsets of standard benchmarks or \
                 applications or not using all system resources."
            }
            Rule::R3CorrectMean => {
                "Use the arithmetic mean only for summarizing costs. Use the harmonic \
                 mean for summarizing rates."
            }
            Rule::R4NoRatioAverages => {
                "Avoid summarizing ratios; summarize the costs or rates that the ratios \
                 base on instead. Only if these are not available use the geometric mean."
            }
            Rule::R5ReportVariability => {
                "Report if the measurement values are deterministic. For nondeterministic \
                 data, report confidence intervals of the measurement."
            }
            Rule::R6CheckNormality => {
                "Do not assume normality of collected data (e.g., based on the number of \
                 samples) without diagnostic checking."
            }
            Rule::R7SoundComparison => {
                "Compare nondeterministic data in a statistically sound way, e.g., using \
                 non-overlapping confidence intervals or ANOVA."
            }
            Rule::R8RightStatistic => {
                "Carefully investigate if measures of central tendency such as mean or \
                 median are useful to report. Some problems, such as worst-case latency, \
                 may require other percentiles."
            }
            Rule::R9DocumentSetup => {
                "Document all varying factors and their levels as well as the complete \
                 experimental setup to facilitate reproducibility and provide \
                 interpretability."
            }
            Rule::R10ParallelTime => {
                "For parallel time measurements, report all measurement, (optional) \
                 synchronization, and summarization techniques."
            }
            Rule::R11Bounds => {
                "If possible, show upper performance bounds to facilitate \
                 interpretability of the measured results."
            }
            Rule::R12Plots => {
                "Plot as much information as needed to interpret the experimental \
                 results. Only connect measurements by lines if they indicate trends and \
                 the interpolation is valid."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rule {}: {}", self.number(), self.statement())
    }
}

/// Audit verdict for one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The report satisfies the rule.
    Pass,
    /// The rule is violated.
    Fail,
    /// The rule is satisfiable but something deserves attention.
    Warn,
    /// The rule does not apply to this report.
    NotApplicable,
}

/// One audited rule with its verdict and explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The audited rule.
    pub rule: Rule,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable justification.
    pub message: String,
}

/// The full audit of a report.
///
/// ```
/// use scibench::report::ExperimentReport;
/// use scibench::rules::RuleAudit;
/// let audit = RuleAudit::check(&ExperimentReport::new("bare"));
/// // A bare report fails Rule 9 (nothing documented).
/// assert!(!audit.passed());
/// assert_eq!(audit.findings.len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RuleAudit {
    /// One finding per rule, in rule order.
    pub findings: Vec<Finding>,
}

impl RuleAudit {
    /// Audits an experiment report against all twelve rules.
    pub fn check(report: &ExperimentReport) -> Self {
        let mut findings = Vec::with_capacity(12);
        for rule in Rule::ALL {
            findings.push(Self::check_rule(rule, report));
        }
        Self { findings }
    }

    /// Whether no rule failed.
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.verdict != Verdict::Fail)
    }

    /// The failed rules.
    pub fn failures(&self) -> Vec<Rule> {
        self.findings
            .iter()
            .filter(|f| f.verdict == Verdict::Fail)
            .map(|f| f.rule)
            .collect()
    }

    /// Renders the audit as a checklist.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let mark = match f.verdict {
                Verdict::Pass => "PASS",
                Verdict::Fail => "FAIL",
                Verdict::Warn => "WARN",
                Verdict::NotApplicable => "n/a ",
            };
            out.push_str(&format!(
                "[{mark}] Rule {:>2}: {}\n",
                f.rule.number(),
                f.message
            ));
        }
        out
    }

    fn check_rule(rule: Rule, r: &ExperimentReport) -> Finding {
        let (verdict, message) = match rule {
            Rule::R1SpeedupBaseCase => {
                if r.speedups.is_empty() {
                    (Verdict::NotApplicable, "no speedups reported".into())
                } else {
                    // The Speedup type cannot exist without a base case and
                    // its absolute time.
                    (
                        Verdict::Pass,
                        format!(
                            "{} speedup(s) carry base case and absolute base time",
                            r.speedups.len()
                        ),
                    )
                }
            }
            Rule::R2NoCherryPicking => match &r.subset_justification {
                None => (Verdict::Pass, "full benchmarks / all resources used".into()),
                Some(reason) if !reason.trim().is_empty() => {
                    (Verdict::Pass, format!("subset justified: {reason}"))
                }
                Some(_) => (Verdict::Fail, "subset used without justification".into()),
            },
            Rule::R3CorrectMean => {
                // Enforced by the Cost/Rate types; the audit confirms that
                // entries carry cost/rate units at all.
                if r.entries.is_empty() {
                    (Verdict::NotApplicable, "no measurements".into())
                } else {
                    (
                        Verdict::Pass,
                        "means computed through typed Cost/Rate summaries".into(),
                    )
                }
            }
            Rule::R4NoRatioAverages => {
                if r.ratio_geomean_used {
                    if r.notes.to_lowercase().contains("geometric") {
                        (
                            Verdict::Warn,
                            "geometric mean of ratios used (justified in notes)".into(),
                        )
                    } else {
                        (
                            Verdict::Fail,
                            "geometric mean of ratios used without justification".into(),
                        )
                    }
                } else {
                    (Verdict::Pass, "no ratio averaging".into())
                }
            }
            Rule::R5ReportVariability => {
                let mut missing = Vec::new();
                for e in &r.entries {
                    let s = &e.summary;
                    if !s.deterministic && s.median_ci.is_none() && s.mean_ci.is_none() {
                        missing.push(s.name.clone());
                    }
                }
                if r.entries.is_empty() {
                    (Verdict::NotApplicable, "no measurements".into())
                } else if missing.is_empty() {
                    (
                        Verdict::Pass,
                        "determinism flagged; CIs reported for all nondeterministic entries".into(),
                    )
                } else {
                    (
                        Verdict::Fail,
                        format!("nondeterministic entries without CI: {missing:?}"),
                    )
                }
            }
            Rule::R6CheckNormality => {
                let mut unchecked = Vec::new();
                for e in &r.entries {
                    let s = &e.summary;
                    if s.mean_ci_valid && s.normality.is_none() {
                        unchecked.push(s.name.clone());
                    }
                }
                if r.entries.is_empty() {
                    (Verdict::NotApplicable, "no measurements".into())
                } else if unchecked.is_empty() {
                    (
                        Verdict::Pass,
                        "normality diagnostics run before any parametric CI".into(),
                    )
                } else {
                    (
                        Verdict::Fail,
                        format!("parametric CI without normality check: {unchecked:?}"),
                    )
                }
            }
            Rule::R7SoundComparison => {
                if r.comparisons.is_empty() {
                    (Verdict::NotApplicable, "no configurations compared".into())
                } else {
                    (
                        Verdict::Pass,
                        format!(
                            "{} comparison(s) with tests and CI overlap analysis",
                            r.comparisons.len()
                        ),
                    )
                }
            }
            Rule::R8RightStatistic => {
                if r.comparisons.iter().any(|c| !c.quantile_effects.is_empty()) {
                    (Verdict::Pass, "quantile-level effects examined".into())
                } else if r.comparisons.is_empty() {
                    (Verdict::NotApplicable, "no comparisons".into())
                } else {
                    (
                        Verdict::Warn,
                        "only central tendencies compared; consider tail percentiles".into(),
                    )
                }
            }
            Rule::R9DocumentSetup => {
                let missing = r.environment.missing_classes();
                if missing.is_empty() {
                    (
                        Verdict::Pass,
                        "all nine documentation classes covered".into(),
                    )
                } else {
                    (
                        Verdict::Fail,
                        format!(
                            "undocumented classes: {:?}",
                            missing.iter().map(|c| c.label()).collect::<Vec<_>>()
                        ),
                    )
                }
            }
            Rule::R10ParallelTime => match &r.parallel {
                None => (Verdict::NotApplicable, "serial experiment".into()),
                Some(p) => {
                    if p.synchronization.trim().is_empty() {
                        (Verdict::Fail, "synchronization scheme not described".into())
                    } else if !p.anova_checked {
                        (
                            Verdict::Warn,
                            "per-process ANOVA not performed before summarizing".into(),
                        )
                    } else {
                        (
                            Verdict::Pass,
                            format!(
                                "{} processes, sync: {}, summary: {:?}, ANOVA checked",
                                p.processes, p.synchronization, p.summarization
                            ),
                        )
                    }
                }
            },
            Rule::R11Bounds => {
                if r.bounds.is_empty() {
                    (Verdict::Warn, "no bounds model shown".into())
                } else {
                    (
                        Verdict::Pass,
                        format!(
                            "bounds shown: {}",
                            r.bounds
                                .iter()
                                .map(|b| b.label())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                }
            }
            Rule::R12Plots => {
                if r.plots.is_empty() {
                    (Verdict::Warn, "no plots attached".into())
                } else {
                    (Verdict::Pass, format!("{} plot(s) attached", r.plots.len()))
                }
            }
        };
        Finding {
            rule,
            verdict,
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare_two;
    use crate::experiment::environment::{DocumentationClass, EnvironmentDoc};
    use crate::experiment::measurement::{MeasurementPlan, StoppingRule};
    use crate::parallel::CrossProcessSummary;
    use crate::report::ParallelMethodology;
    use crate::units::Unit;

    fn full_env() -> EnvironmentDoc {
        let mut env = EnvironmentDoc::new();
        for c in DocumentationClass::ALL {
            env = env.document(c, "documented");
        }
        env
    }

    fn summary(name: &str) -> crate::experiment::measurement::MeasurementSummary {
        let mut x = 7u64;
        MeasurementPlan::new(name)
            .stopping(StoppingRule::FixedCount(100))
            .run(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                1.0 + (x % 101) as f64 / 500.0
            })
            .unwrap()
            .summarize(0.95)
            .unwrap()
    }

    fn sample(n: usize, mu: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                mu + 0.1 * scibench_stats::dist::normal::std_normal_inv_cdf(u)
            })
            .collect()
    }

    fn good_report() -> ExperimentReport {
        let a = sample(200, 1.7);
        let b = sample(200, 1.8);
        ExperimentReport::new("good")
            .environment(full_env())
            .speedup(crate::speedup::Speedup::from_times(
                2.0,
                1.0,
                crate::speedup::BaseCase::BestSerial,
            ))
            .entry(summary("op"), Unit::Seconds)
            .comparison(compare_two("a", &a, "b", &b, 0.95, &[0.5, 0.9], 1).unwrap())
            .bound(crate::bounds::ScalingBound::IdealLinear)
            .parallel(ParallelMethodology {
                processes: 8,
                synchronization: "window-based".into(),
                summarization: CrossProcessSummary::Max,
                anova_checked: true,
            })
            .plot("latency density", "density", None)
    }

    #[test]
    fn good_report_passes() {
        let audit = RuleAudit::check(&good_report());
        assert!(audit.passed(), "{}", audit.render());
        assert_eq!(audit.findings.len(), 12);
    }

    #[test]
    fn undocumented_setup_fails_rule9() {
        let mut r = good_report();
        r.environment = EnvironmentDoc::new();
        let audit = RuleAudit::check(&r);
        assert!(!audit.passed());
        assert!(audit.failures().contains(&Rule::R9DocumentSetup));
        assert!(audit.render().contains("FAIL"));
    }

    #[test]
    fn unjustified_geomean_fails_rule4() {
        let mut r = good_report();
        r.ratio_geomean_used = true;
        let audit = RuleAudit::check(&r);
        assert!(audit.failures().contains(&Rule::R4NoRatioAverages));
        // With a justification it degrades to a warning.
        r.notes = "geometric mean used because raw costs unavailable".into();
        let audit = RuleAudit::check(&r);
        assert!(!audit.failures().contains(&Rule::R4NoRatioAverages));
    }

    #[test]
    fn unjustified_subset_fails_rule2() {
        let mut r = good_report();
        r.subset_justification = Some("".into());
        assert!(RuleAudit::check(&r)
            .failures()
            .contains(&Rule::R2NoCherryPicking));
        r.subset_justification =
            Some("compiler transformation cannot handle 2 of 10 NAS kernels".into());
        assert!(!RuleAudit::check(&r)
            .failures()
            .contains(&Rule::R2NoCherryPicking));
    }

    #[test]
    fn missing_sync_description_fails_rule10() {
        let mut r = good_report();
        r.parallel = Some(ParallelMethodology {
            processes: 8,
            synchronization: "  ".into(),
            summarization: CrossProcessSummary::Max,
            anova_checked: true,
        });
        assert!(RuleAudit::check(&r)
            .failures()
            .contains(&Rule::R10ParallelTime));
    }

    #[test]
    fn serial_experiment_rule10_na() {
        let mut r = good_report();
        r.parallel = None;
        let audit = RuleAudit::check(&r);
        let f = audit
            .findings
            .iter()
            .find(|f| f.rule == Rule::R10ParallelTime)
            .unwrap();
        assert_eq!(f.verdict, Verdict::NotApplicable);
    }

    #[test]
    fn missing_bounds_and_plots_warn() {
        let mut r = good_report();
        r.bounds.clear();
        r.plots.clear();
        let audit = RuleAudit::check(&r);
        assert!(audit.passed()); // warnings don't fail
        let b = audit
            .findings
            .iter()
            .find(|f| f.rule == Rule::R11Bounds)
            .unwrap();
        let p = audit
            .findings
            .iter()
            .find(|f| f.rule == Rule::R12Plots)
            .unwrap();
        assert_eq!(b.verdict, Verdict::Warn);
        assert_eq!(p.verdict, Verdict::Warn);
    }

    #[test]
    fn all_rules_have_statements_and_numbers() {
        for (i, rule) in Rule::ALL.iter().enumerate() {
            assert_eq!(rule.number() as usize, i + 1);
            assert!(rule.statement().len() > 40);
            assert!(rule.to_string().starts_with(&format!("Rule {}", i + 1)));
        }
    }

    #[test]
    fn render_is_a_checklist() {
        let text = RuleAudit::check(&good_report()).render();
        assert_eq!(text.lines().count(), 12);
        assert!(text.contains("[PASS] Rule  1"));
    }
}
