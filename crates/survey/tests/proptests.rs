//! Property-based tests of the survey aggregation logic against
//! synthetic surveys, plus cross-checks of the embedded dataset.

use proptest::prelude::*;

use scibench_survey::dataset::paper_dataset;
use scibench_survey::model::{
    AnalysisCriterion, Conference, DesignCriterion, Grade, PaperRecord, Survey, YEARS,
};
use scibench_survey::score::{group_scores, overall_mean_score, render_mini_box, year_trend_test};

fn any_grade() -> impl Strategy<Value = Grade> {
    prop_oneof![Just(Grade::Satisfied), Just(Grade::Unsatisfied)]
}

fn any_paper() -> impl Strategy<Value = PaperRecord> {
    (
        0usize..3,
        0usize..4,
        prop::collection::vec(any_grade(), 9),
        prop::collection::vec(any_grade(), 4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(conf, year, design, analysis, speedup, applicable)| PaperRecord {
                conference: Conference::ALL[conf],
                year: YEARS[year],
                index: 0,
                applicable,
                design: design.try_into().unwrap(),
                analysis: analysis.try_into().unwrap(),
                reports_speedup: speedup,
                speedup_base_given: !speedup,
                units_unambiguous: false,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn design_counts_bounded_by_applicable(papers in prop::collection::vec(any_paper(), 1..60)) {
        let survey = Survey { papers };
        let applicable = survey.applicable().count();
        for c in DesignCriterion::ALL {
            prop_assert!(survey.design_count(c) <= applicable);
        }
        for c in AnalysisCriterion::ALL {
            prop_assert!(survey.analysis_count(c) <= applicable);
        }
    }

    #[test]
    fn group_partition_is_complete(papers in prop::collection::vec(any_paper(), 1..60)) {
        let survey = Survey { papers };
        let mut total = 0;
        for conf in Conference::ALL {
            for &year in &YEARS {
                total += survey.group(conf, year).len();
            }
        }
        prop_assert_eq!(total, survey.len());
    }

    #[test]
    fn design_scores_bounded(papers in prop::collection::vec(any_paper(), 1..60)) {
        for p in &papers {
            prop_assert!(p.design_score() <= 9);
        }
        let survey = Survey { papers };
        for g in group_scores(&survey) {
            let strip = render_mini_box(&g);
            prop_assert_eq!(strip.chars().count(), 10);
            if let Some(b) = g.box_stats {
                prop_assert!(b.min >= 0.0 && b.max <= 9.0);
            }
        }
    }

    #[test]
    fn speedup_stats_consistent(papers in prop::collection::vec(any_paper(), 1..60)) {
        let survey = Survey { papers };
        let (with, missing) = survey.speedup_stats();
        prop_assert!(missing <= with);
        prop_assert!(with <= survey.applicable().count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn design_counts_add_up_to_the_applicable_design_scores(papers in prop::collection::vec(any_paper(), 1..60)) {
        // Counting satisfied (paper, criterion) pairs by criterion or by
        // paper gives the same total.
        let survey = Survey { papers };
        let by_criterion: usize = DesignCriterion::ALL.iter().map(|&c| survey.design_count(c)).sum();
        let by_paper: usize = survey.applicable().map(PaperRecord::design_score).sum();
        prop_assert_eq!(by_criterion, by_paper);
    }

    #[test]
    fn group_scores_hold_every_applicable_paper_once(papers in prop::collection::vec(any_paper(), 1..60)) {
        let survey = Survey { papers };
        let groups = group_scores(&survey);
        prop_assert_eq!(groups.len(), Conference::ALL.len() * YEARS.len());
        prop_assert_eq!(
            groups.iter().map(|g| g.scores.len()).sum::<usize>(),
            survey.applicable().count()
        );
        for g in &groups {
            prop_assert_eq!(g.box_stats.is_none(), g.scores.is_empty());
            if let (Some(b), Some(m)) = (g.box_stats, g.median()) {
                prop_assert!(b.min <= m && m <= b.max);
            }
        }
    }

    #[test]
    fn overall_mean_score_weighs_each_applicable_paper_once(papers in prop::collection::vec(any_paper(), 1..60)) {
        let survey = Survey { papers };
        let n = survey.applicable().count();
        let total: usize = group_scores(&survey).iter().flat_map(|g| g.scores.iter()).sum();
        let mean = overall_mean_score(&survey);
        if n == 0 {
            prop_assert_eq!(mean, 0.0);
        } else {
            prop_assert!((mean * n as f64 - total as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn mini_box_marks_the_median_inside_the_whiskers(papers in prop::collection::vec(any_paper(), 1..60)) {
        let survey = Survey { papers };
        for g in group_scores(&survey) {
            let strip: Vec<char> = render_mini_box(&g).chars().collect();
            match g.box_stats {
                None => prop_assert!(strip.iter().all(|&c| c == ' ')),
                Some(b) => {
                    let cell = |v: f64| v.round() as usize;
                    prop_assert_eq!(strip[cell(b.median)], '|');
                    for (i, &c) in strip.iter().enumerate() {
                        prop_assert_eq!(c != ' ', cell(b.min) <= i && i <= cell(b.max), "{:?}", strip);
                    }
                }
            }
        }
    }

    #[test]
    fn year_trend_p_values_are_probabilities(papers in prop::collection::vec(any_paper(), 1..120)) {
        let survey = Survey { papers };
        for conf in Conference::ALL {
            if let Some(r) = year_trend_test(&survey, conf) {
                prop_assert!((0.0..=1.0).contains(&r.p_value), "{:?}: {}", conf, r.p_value);
                prop_assert!(r.statistic >= 0.0 || r.statistic.abs() < 1e-12);
            }
        }
    }
}

#[test]
fn embedded_dataset_row_sums_match_columns() {
    // Cross-check: summing per-group satisfied counts reproduces the
    // global counts (the aggregation is a partition).
    let survey = paper_dataset();
    for c in DesignCriterion::ALL {
        let mut by_groups = 0;
        for conf in Conference::ALL {
            for &year in &YEARS {
                by_groups += survey
                    .group(conf, year)
                    .iter()
                    .filter(|p| p.applicable && p.design_grade(c) == Grade::Satisfied)
                    .count();
            }
        }
        assert_eq!(by_groups, c.published_count(), "{c:?}");
    }
}
