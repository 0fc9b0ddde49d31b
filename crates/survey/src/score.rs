//! Per-paper scores and per-group distributions — the horizontal box
//! plots in the "Experimental Design" header of Table 1.

use scibench_stats::htest::kruskal_wallis;
use scibench_stats::quantile::FiveNumberSummary;
use scibench_stats::Sample;

use crate::model::{Conference, Survey, YEARS};

/// The score distribution of one conference-year group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupScores {
    /// Conference of the group.
    pub conference: Conference,
    /// Year of the group.
    pub year: u16,
    /// Design scores (0..=9) of the applicable papers in the group.
    pub scores: Vec<usize>,
    /// Box statistics over the scores (`None` when the whole group is not
    /// applicable).
    pub box_stats: Option<FiveNumberSummary>,
}

impl GroupScores {
    /// Median score, if any applicable papers exist.
    pub fn median(&self) -> Option<f64> {
        self.box_stats.map(|b| b.median)
    }
}

/// Computes the score distribution of every conference-year group, in
/// (conference, year) order.
pub fn group_scores(survey: &Survey) -> Vec<GroupScores> {
    let mut out = Vec::new();
    for conf in Conference::ALL {
        for &year in &YEARS {
            let scores: Vec<usize> = survey
                .group(conf, year)
                .iter()
                .filter(|p| p.applicable)
                .map(|p| p.design_score())
                .collect();
            let box_stats = if scores.is_empty() {
                None
            } else {
                let as_f64: Vec<f64> = scores.iter().map(|&s| s as f64).collect();
                Some(FiveNumberSummary::from_samples(&as_f64).expect("non-empty scores"))
            };
            out.push(GroupScores {
                conference: conf,
                year,
                scores,
                box_stats,
            });
        }
    }
    out
}

/// Renders one group's box as the Table 1 mini box plot: a 10-character
/// strip covering scores 0..=9 with `=` for the IQR, `|` for the median
/// and `-` for the whisker range.
pub fn render_mini_box(g: &GroupScores) -> String {
    let Some(b) = g.box_stats else {
        return " ".repeat(10);
    };
    let mut cells = vec![' '; 10];
    let clamp = |v: f64| (v.round().clamp(0.0, 9.0)) as usize;
    for c in cells.iter_mut().take(clamp(b.max) + 1).skip(clamp(b.min)) {
        *c = '-';
    }
    for c in cells.iter_mut().take(clamp(b.q3) + 1).skip(clamp(b.q1)) {
        *c = '=';
    }
    cells[clamp(b.median)] = '|';
    cells.into_iter().collect()
}

/// Tests whether a conference's design scores improve across the years.
///
/// The paper: "While the median scores of ConfA and ConfC seem to be
/// improving over the years, there is no statistically significant
/// evidence for this." This runs the Kruskal–Wallis test across the four
/// year-groups of one conference; `None` if any year has no applicable
/// papers.
pub fn year_trend_test(
    survey: &Survey,
    conference: Conference,
) -> Option<scibench_stats::htest::TestResult> {
    let mut year_scores = Vec::with_capacity(YEARS.len());
    for &year in &YEARS {
        let scores: Vec<f64> = survey
            .group(conference, year)
            .iter()
            .filter(|p| p.applicable)
            .map(|p| p.design_score() as f64)
            .collect();
        // An empty year is not a sample.
        year_scores.push(Sample::from_vec(scores).ok()?);
    }
    kruskal_wallis(&year_scores.iter().collect::<Vec<_>>()).ok()
}

/// Mean design score over all applicable papers — the headline "state of
/// the practice" number.
pub fn overall_mean_score(survey: &Survey) -> f64 {
    let scores: Vec<f64> = survey
        .applicable()
        .map(|p| p.design_score() as f64)
        .collect();
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().sum::<f64>() / scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::paper_dataset;

    #[test]
    fn twelve_groups() {
        let gs = group_scores(&paper_dataset());
        assert_eq!(gs.len(), 12);
        for g in &gs {
            assert!(g.scores.len() <= 10);
            assert!(
                !g.scores.is_empty(),
                "{:?} {} fully n/a?",
                g.conference,
                g.year
            );
        }
    }

    #[test]
    fn scores_bounded_by_nine() {
        for g in group_scores(&paper_dataset()) {
            for &s in &g.scores {
                assert!(s <= 9);
            }
            if let Some(b) = g.box_stats {
                assert!(b.min >= 0.0 && b.max <= 9.0);
                assert!(g.median().unwrap() >= b.min);
            }
        }
    }

    #[test]
    fn mini_box_renders_ten_cells() {
        for g in group_scores(&paper_dataset()) {
            let strip = render_mini_box(&g);
            assert_eq!(strip.chars().count(), 10);
            assert!(strip.contains('|'), "no median marker in {strip:?}");
        }
    }

    #[test]
    fn mini_box_empty_group() {
        let g = GroupScores {
            conference: Conference::A,
            year: 2011,
            scores: vec![],
            box_stats: None,
        };
        assert_eq!(render_mini_box(&g), " ".repeat(10));
        assert_eq!(g.median(), None);
    }

    #[test]
    fn no_significant_year_trend_in_any_conference() {
        // The paper's claim: apparent improvements are not statistically
        // significant. Our synthesized dataset spreads grades uniformly
        // over years, so the test must agree.
        let survey = paper_dataset();
        for conf in Conference::ALL {
            let t = year_trend_test(&survey, conf).expect("all groups populated");
            assert!(
                !t.significant_at(0.05),
                "{conf:?}: H = {}, p = {}",
                t.statistic,
                t.p_value
            );
        }
    }

    #[test]
    fn overall_mean_is_moderate() {
        // The paper's diagnosis: the average paper documents some but far
        // from all classes. Our dataset totals 317/95 ≈ 3.3.
        let m = overall_mean_score(&paper_dataset());
        assert!((2.5..4.5).contains(&m), "mean score {m}");
    }
}
