//! Data model of the literature survey.

/// The three anonymized conferences of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Conference {
    /// "ConfA".
    A,
    /// "ConfB".
    B,
    /// "ConfC".
    C,
}

impl Conference {
    /// All conferences.
    pub const ALL: [Conference; 3] = [Conference::A, Conference::B, Conference::C];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Conference::A => "ConfA",
            Conference::B => "ConfB",
            Conference::C => "ConfC",
        }
    }
}

/// Years covered by the survey.
pub const YEARS: [u16; 4] = [2011, 2012, 2013, 2014];

/// The nine experimental-design documentation classes (upper block of
/// Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignCriterion {
    /// Processor model / accelerator.
    Processor,
    /// RAM size / type / bus.
    Memory,
    /// NIC model / network.
    Network,
    /// Compiler version / flags.
    Compiler,
    /// Kernel / libraries version.
    Runtime,
    /// Filesystem / storage.
    Filesystem,
    /// Software and input.
    Input,
    /// Measurement setup.
    MeasurementSetup,
    /// Code available online.
    CodeAvailability,
}

impl DesignCriterion {
    /// All nine criteria in Table 1 row order.
    pub const ALL: [DesignCriterion; 9] = [
        DesignCriterion::Processor,
        DesignCriterion::Memory,
        DesignCriterion::Network,
        DesignCriterion::Compiler,
        DesignCriterion::Runtime,
        DesignCriterion::Filesystem,
        DesignCriterion::Input,
        DesignCriterion::MeasurementSetup,
        DesignCriterion::CodeAvailability,
    ];

    /// Table 1 row label.
    pub fn label(&self) -> &'static str {
        match self {
            DesignCriterion::Processor => "Processor Model / Accelerator",
            DesignCriterion::Memory => "RAM Size / Type / Bus Infos",
            DesignCriterion::Network => "NIC Model / Network Infos",
            DesignCriterion::Compiler => "Compiler Version / Flags",
            DesignCriterion::Runtime => "Kernel / Libraries Version",
            DesignCriterion::Filesystem => "Filesystem / Storage",
            DesignCriterion::Input => "Software and Input",
            DesignCriterion::MeasurementSetup => "Measurement Setup",
            DesignCriterion::CodeAvailability => "Code Available Online",
        }
    }

    /// The count of satisfying papers published in Table 1 (out of 95
    /// applicable).
    pub fn published_count(&self) -> usize {
        match self {
            DesignCriterion::Processor => 79,
            DesignCriterion::Memory => 26,
            DesignCriterion::Network => 60,
            DesignCriterion::Compiler => 35,
            DesignCriterion::Runtime => 20,
            DesignCriterion::Filesystem => 12,
            DesignCriterion::Input => 48,
            DesignCriterion::MeasurementSetup => 30,
            DesignCriterion::CodeAvailability => 7,
        }
    }
}

/// The four data-analysis rows (lower block of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisCriterion {
    /// Uses a mean to summarize results.
    Mean,
    /// Reports best / worst performance.
    BestWorst,
    /// Uses rank-based statistics (median, percentiles).
    RankBased,
    /// Reports a measure of variation.
    Variation,
}

impl AnalysisCriterion {
    /// All four criteria in Table 1 row order.
    pub const ALL: [AnalysisCriterion; 4] = [
        AnalysisCriterion::Mean,
        AnalysisCriterion::BestWorst,
        AnalysisCriterion::RankBased,
        AnalysisCriterion::Variation,
    ];

    /// Table 1 row label.
    pub fn label(&self) -> &'static str {
        match self {
            AnalysisCriterion::Mean => "Mean",
            AnalysisCriterion::BestWorst => "Best / Worst Performance",
            AnalysisCriterion::RankBased => "Rank Based Statistics",
            AnalysisCriterion::Variation => "Measure of Variation",
        }
    }

    /// The count published in Table 1 (out of 95 applicable).
    pub fn published_count(&self) -> usize {
        match self {
            AnalysisCriterion::Mean => 51,
            AnalysisCriterion::BestWorst => 13,
            AnalysisCriterion::RankBased => 9,
            AnalysisCriterion::Variation => 17,
        }
    }
}

/// Grade of one paper on one criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grade {
    /// The paper satisfies the criterion (✓ in Table 1).
    Satisfied,
    /// The paper does not satisfy the criterion (blank in Table 1).
    Unsatisfied,
    /// The paper is not applicable (· in Table 1).
    NotApplicable,
}

/// One surveyed paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperRecord {
    /// Conference the paper appeared at.
    pub conference: Conference,
    /// Publication year.
    pub year: u16,
    /// Index within its conference-year group (0..10).
    pub index: usize,
    /// Whether the paper reports real-world performance numbers at all.
    pub applicable: bool,
    /// Grades on the nine design criteria (order of
    /// [`DesignCriterion::ALL`]).
    pub design: [Grade; 9],
    /// Grades on the four analysis criteria (order of
    /// [`AnalysisCriterion::ALL`]).
    pub analysis: [Grade; 4],
    /// Whether the paper reports speedups (§2.1.1: 39 papers do).
    pub reports_speedup: bool,
    /// Whether a reported speedup includes the absolute base-case
    /// performance (§2.1.1: 15 of the 39 do not).
    pub speedup_base_given: bool,
    /// Whether all units in the paper are unambiguous (§2.1.2: only 2 of
    /// 95).
    pub units_unambiguous: bool,
}

impl PaperRecord {
    /// The paper's design-documentation score: number of satisfied design
    /// criteria, 0..=9 (what Table 1's box plots aggregate).
    pub fn design_score(&self) -> usize {
        self.design
            .iter()
            .filter(|g| matches!(g, Grade::Satisfied))
            .count()
    }

    /// Grade on one design criterion.
    pub fn design_grade(&self, c: DesignCriterion) -> Grade {
        let idx = DesignCriterion::ALL
            .iter()
            .position(|&x| x == c)
            .expect("valid criterion");
        self.design[idx]
    }

    /// Grade on one analysis criterion.
    pub fn analysis_grade(&self, c: AnalysisCriterion) -> Grade {
        let idx = AnalysisCriterion::ALL
            .iter()
            .position(|&x| x == c)
            .expect("valid criterion");
        self.analysis[idx]
    }
}

/// The full survey: a set of paper records with aggregate queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Survey {
    /// All surveyed papers.
    pub papers: Vec<PaperRecord>,
}

impl Survey {
    /// Number of papers.
    pub fn len(&self) -> usize {
        self.papers.len()
    }

    /// Whether the survey is empty.
    pub fn is_empty(&self) -> bool {
        self.papers.is_empty()
    }

    /// Applicable papers (those reporting real performance numbers).
    pub fn applicable(&self) -> impl Iterator<Item = &PaperRecord> {
        self.papers.iter().filter(|p| p.applicable)
    }

    /// Count of applicable papers satisfying a design criterion.
    pub fn design_count(&self, c: DesignCriterion) -> usize {
        self.applicable()
            .filter(|p| p.design_grade(c) == Grade::Satisfied)
            .count()
    }

    /// Count of applicable papers satisfying an analysis criterion.
    pub fn analysis_count(&self, c: AnalysisCriterion) -> usize {
        self.applicable()
            .filter(|p| p.analysis_grade(c) == Grade::Satisfied)
            .count()
    }

    /// The papers of one conference-year group.
    pub fn group(&self, conf: Conference, year: u16) -> Vec<&PaperRecord> {
        self.papers
            .iter()
            .filter(|p| p.conference == conf && p.year == year)
            .collect()
    }

    /// §2.1.1 statistics: (papers reporting speedup, of which without the
    /// absolute base case).
    pub fn speedup_stats(&self) -> (usize, usize) {
        let with = self.applicable().filter(|p| p.reports_speedup).count();
        let missing_base = self
            .applicable()
            .filter(|p| p.reports_speedup && !p.speedup_base_given)
            .count();
        (with, missing_base)
    }

    /// §2.1.2 statistic: applicable papers with fully unambiguous units.
    pub fn unambiguous_units_count(&self) -> usize {
        self.applicable().filter(|p| p.units_unambiguous).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank_paper() -> PaperRecord {
        PaperRecord {
            conference: Conference::A,
            year: 2011,
            index: 0,
            applicable: true,
            design: [Grade::Unsatisfied; 9],
            analysis: [Grade::Unsatisfied; 4],
            reports_speedup: false,
            speedup_base_given: false,
            units_unambiguous: false,
        }
    }

    #[test]
    fn design_score_counts_satisfied() {
        let mut p = blank_paper();
        assert_eq!(p.design_score(), 0);
        p.design[0] = Grade::Satisfied;
        p.design[8] = Grade::Satisfied;
        assert_eq!(p.design_score(), 2);
        p.design[1] = Grade::NotApplicable;
        assert_eq!(p.design_score(), 2);
    }

    #[test]
    fn grade_lookup_by_criterion() {
        let mut p = blank_paper();
        p.design[2] = Grade::Satisfied;
        assert_eq!(p.design_grade(DesignCriterion::Network), Grade::Satisfied);
        assert_eq!(
            p.design_grade(DesignCriterion::Processor),
            Grade::Unsatisfied
        );
        p.analysis[3] = Grade::Satisfied;
        assert_eq!(
            p.analysis_grade(AnalysisCriterion::Variation),
            Grade::Satisfied
        );
    }

    #[test]
    fn survey_counts_skip_non_applicable() {
        let mut a = blank_paper();
        a.design[0] = Grade::Satisfied;
        let mut b = blank_paper();
        b.applicable = false;
        b.design[0] = Grade::Satisfied; // must not count
        let s = Survey { papers: vec![a, b] };
        assert_eq!(s.design_count(DesignCriterion::Processor), 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.applicable().count(), 1);
    }

    #[test]
    fn group_filter() {
        let mut a = blank_paper();
        a.year = 2012;
        let mut b = blank_paper();
        b.conference = Conference::B;
        b.year = 2012;
        let s = Survey { papers: vec![a, b] };
        assert_eq!(s.group(Conference::A, 2012).len(), 1);
        assert_eq!(s.group(Conference::B, 2012).len(), 1);
        assert_eq!(s.group(Conference::C, 2012).len(), 0);
    }

    #[test]
    fn speedup_and_unit_stats() {
        let mut a = blank_paper();
        a.reports_speedup = true;
        a.speedup_base_given = true;
        let mut b = blank_paper();
        b.reports_speedup = true;
        let mut c = blank_paper();
        c.units_unambiguous = true;
        let s = Survey {
            papers: vec![a, b, c],
        };
        assert_eq!(s.speedup_stats(), (2, 1));
        assert_eq!(s.unambiguous_units_count(), 1);
    }

    #[test]
    fn published_counts_match_paper_text() {
        // The headline numbers quoted in the prose.
        assert_eq!(DesignCriterion::Processor.published_count(), 79);
        assert_eq!(DesignCriterion::CodeAvailability.published_count(), 7);
        assert_eq!(AnalysisCriterion::Mean.published_count(), 51);
        assert_eq!(AnalysisCriterion::Variation.published_count(), 17);
    }

    #[test]
    fn labels_nonempty() {
        for c in DesignCriterion::ALL {
            assert!(!c.label().is_empty());
        }
        for c in AnalysisCriterion::ALL {
            assert!(!c.label().is_empty());
        }
        assert_eq!(Conference::A.label(), "ConfA");
    }
}
