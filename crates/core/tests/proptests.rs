//! Property-based tests of the core library's invariants: typed metrics,
//! speedups, bounds ordering, plot data and dataset round trips.

use proptest::prelude::*;

use scibench::bounds::{
    CapabilityVector, LinearCostModel, OverheadModel, OverheadTerm, ScalingBound,
};
use scibench::data::DataSet;
use scibench::experiment::design::{Design, Factor};
use scibench::experiment::environment::{ClassDoc, DocumentationClass, EnvironmentDoc};
use scibench::metric::{Cost, Ratio};
use scibench::plot::boxplot::{BoxPlotStats, WhiskerRule};
use scibench::plot::series::Series;
use scibench::speedup::{BaseCase, Speedup};
use scibench::sync::barrier_sync_start;
use scibench::units::{format_quantity, Unit};
use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::machine::MachineSpec;
use scibench_sim::rng::SimRng;

fn positive_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..1e6, 2..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_aggregate_rate_equals_harmonic_mean_of_rates(times in positive_samples(), work in 0.1f64..1e6) {
        let cost = Cost::new(times.clone(), Unit::Seconds);
        let agg = cost.aggregate_rate(work).unwrap();
        let rates = cost.rate_for_work(work, Unit::FlopPerSecond);
        let hm = rates.mean().unwrap();
        prop_assert!((agg - hm).abs() < 1e-9 * (1.0 + agg.abs()), "{agg} vs {hm}");
    }

    #[test]
    fn arithmetic_mean_of_rates_never_below_harmonic(times in positive_samples(), work in 0.1f64..1e6) {
        // The misleading mean always flatters (AM >= HM).
        let rates = Cost::new(times, Unit::Seconds).rate_for_work(work, Unit::FlopPerSecond);
        prop_assert!(
            rates.arithmetic_mean_for_comparison_only().unwrap()
                >= rates.mean().unwrap() - 1e-9
        );
    }

    #[test]
    fn geometric_mean_of_ratios_bounded(ratios in prop::collection::vec(0.01f64..100.0, 2..50)) {
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        let g = Ratio::new(ratios).geometric_mean_last_resort().unwrap();
        prop_assert!(min - 1e-12 <= g && g <= max + 1e-12);
    }

    #[test]
    fn speedup_identities(base in 0.001f64..1e4, new in 0.001f64..1e4) {
        let s = Speedup::from_times(base, new, BaseCase::BestSerial);
        prop_assert!((s.factor() - base / new).abs() < 1e-12);
        prop_assert!((s.relative_gain() - (s.factor() - 1.0)).abs() < 1e-12);
        prop_assert_eq!(s.is_slowdown(), base < new);
        // Display always names the base case and its absolute time.
        let text = s.to_string();
        prop_assert!(text.contains("best serial"));
    }

    #[test]
    fn bounds_are_ordered_for_all_parameters(
        base in 0.001f64..10.0,
        b_frac in 0.0f64..0.5,
        p in 1usize..1024,
        ovh in 0.0f64..0.01,
    ) {
        let ideal = ScalingBound::IdealLinear;
        let amdahl = ScalingBound::Amdahl { serial_fraction: b_frac };
        let parallel = ScalingBound::ParallelOverhead {
            serial_fraction: b_frac,
            overhead: OverheadModel::uniform(OverheadTerm::LogLinear(ovh)),
        };
        let ti = ideal.time_bound_s(base, p);
        let ta = amdahl.time_bound_s(base, p);
        let tp = parallel.time_bound_s(base, p);
        prop_assert!(ti <= ta + 1e-15);
        prop_assert!(ta <= tp + 1e-15);
        // Speedup bounds never exceed p for ideal.
        prop_assert!((ideal.speedup_bound(base, p) - p as f64).abs() < 1e-9);
        // Amdahl bound at p=1 is exactly 1.
        prop_assert!((amdahl.speedup_bound(base, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_monotone_in_serial_fraction(b1 in 0.0f64..1.0, b2 in 0.0f64..1.0, p in 2usize..512) {
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let s_lo = ScalingBound::Amdahl { serial_fraction: lo }.speedup_bound(1.0, p);
        let s_hi = ScalingBound::Amdahl { serial_fraction: hi }.speedup_bound(1.0, p);
        prop_assert!(s_hi <= s_lo + 1e-12);
    }

    #[test]
    fn roofline_is_min_of_two_ceilings(flops in 1.0f64..1e6, bw in 1.0f64..1e6, intensity in 0.001f64..1e6) {
        let cap = CapabilityVector::roofline(flops, bw);
        let attainable = cap.roofline_attainable(intensity);
        prop_assert!(attainable <= flops + 1e-12);
        prop_assert!(attainable <= intensity * bw + 1e-12);
        prop_assert!(
            (attainable - flops).abs() < 1e-9 || (attainable - intensity * bw).abs() < 1e-9
        );
    }

    #[test]
    fn normalized_performance_in_unit_interval(
        peaks in prop::collection::vec(1.0f64..1e6, 1..6),
        fracs in prop::collection::vec(0.0f64..1.0, 6),
    ) {
        let named: Vec<(String, f64)> =
            peaks.iter().enumerate().map(|(i, &p)| (format!("f{i}"), p)).collect();
        let refs: Vec<(&str, f64)> = named.iter().map(|(n, p)| (n.as_str(), *p)).collect();
        let cap = CapabilityVector::new(&refs);
        let achieved: Vec<f64> =
            peaks.iter().zip(&fracs).map(|(&p, &f)| p * f).collect();
        let norm = cap.normalized(&achieved);
        prop_assert!(norm.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Bottleneck is an argmax.
        let (idx, _) = cap.bottleneck(&achieved);
        prop_assert!(norm.iter().all(|&v| v <= norm[idx] + 1e-12));
    }

    #[test]
    fn boxplot_invariants(xs in prop::collection::vec(-1e5f64..1e5, 4..200)) {
        for rule in [WhiskerRule::MinMax, WhiskerRule::TukeyIqr] {
            let b = BoxPlotStats::from_samples("x", &xs, rule).unwrap();
            prop_assert!(b.whisker_low <= b.five_number.q1 + 1e-12);
            prop_assert!(b.whisker_high >= b.five_number.q3 - 1e-12);
            // Outliers lie strictly outside the whiskers.
            for &o in &b.outliers {
                prop_assert!(o < b.whisker_low || o > b.whisker_high);
            }
            // Every observation is either inside the whiskers or an outlier.
            let inside =
                xs.iter().filter(|&&x| x >= b.whisker_low && x <= b.whisker_high).count();
            prop_assert_eq!(inside + b.outliers.len(), xs.len());
        }
    }

    #[test]
    fn series_sorted_and_range_contains_points(pts in prop::collection::vec((-1e4f64..1e4, -1e4f64..1e4), 1..50)) {
        let s = Series::from_xy("s", &pts, false);
        for w in s.points.windows(2) {
            prop_assert!(w[0].x <= w[1].x);
        }
        let (lo, hi) = s.y_range();
        for p in &s.points {
            prop_assert!(lo <= p.y && p.y <= hi);
        }
    }

    #[test]
    fn dataset_csv_round_trips(rows in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 3), 0..40)) {
        let mut d = DataSet::new(&["a", "b", "c"]).with_metadata("k", "v");
        for r in &rows {
            d.push_row(r);
        }
        let parsed = DataSet::from_csv(&d.to_csv()).unwrap();
        prop_assert_eq!(parsed.len(), rows.len());
        // Values survive the round trip to printed precision.
        if let (Some(orig), Some(back)) = (d.column("b"), parsed.column("b")) {
            for (o, b) in orig.iter().zip(&back) {
                prop_assert!((o - b).abs() < 1e-9 * (1.0 + o.abs()));
            }
        }
        prop_assert_eq!(parsed.metadata("k"), Some("v"));
    }

    #[test]
    fn full_factorial_size_and_uniqueness(a1 in 1usize..5, a2 in 1usize..5, a3 in 1usize..4) {
        let design = Design::new(vec![
            Factor::numeric("f1", &(0..a1).map(|i| i as f64).collect::<Vec<_>>()),
            Factor::numeric("f2", &(0..a2).map(|i| i as f64).collect::<Vec<_>>()),
            Factor::numeric("f3", &(0..a3).map(|i| i as f64).collect::<Vec<_>>()),
        ]);
        let points = design.full_factorial();
        prop_assert_eq!(points.len(), a1 * a2 * a3);
        let mut dedup = points.clone();
        dedup.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        dedup.dedup();
        prop_assert_eq!(dedup.len(), points.len());
    }

    #[test]
    fn format_quantity_always_names_the_unit(v in -1e15f64..1e15) {
        let text = format_quantity(v, Unit::FlopPerSecond);
        prop_assert!(text.contains("flop/s"), "{text}");
        let text = format_quantity(v, Unit::Bytes);
        prop_assert!(text.ends_with('B'), "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- Scaling bounds and cost models ----------------------------

    #[test]
    fn parallel_overhead_bound_adds_exactly_the_overhead(
        base in 0.001f64..10.0,
        b_frac in 0.0f64..1.0,
        p in 1usize..4096,
        c in 0.0f64..0.01,
    ) {
        let overhead = OverheadModel::uniform(OverheadTerm::LogLinear(c));
        let amdahl = ScalingBound::Amdahl { serial_fraction: b_frac }.time_bound_s(base, p);
        let parallel = ScalingBound::ParallelOverhead { serial_fraction: b_frac, overhead: overhead.clone() }
            .time_bound_s(base, p);
        prop_assert_eq!(parallel, amdahl + overhead.eval(p));
    }

    #[test]
    fn paper_overhead_model_matches_the_simulated_pi_reduction(p in 1usize..100_000) {
        // Figure 7(b)'s bound and the simulator it bounds share one
        // reduction cost, bit for bit, on both sides of each segment end.
        for q in [p, 1, 8, 9, 16, 17] {
            prop_assert_eq!(
                OverheadModel::paper_pi_reduction().eval(q).to_bits(),
                scibench_sim::pi::reduction_overhead_s(q).to_bits(),
                "p={}", q
            );
        }
    }

    #[test]
    fn piecewise_overhead_uses_the_first_segment_covering_p(
        caps in prop::collection::vec(1usize..1000, 1..6),
        p in 1usize..2000,
    ) {
        let mut caps = caps;
        caps.sort_unstable();
        caps.dedup();
        let segments: Vec<(usize, OverheadTerm)> =
            caps.iter().enumerate().map(|(i, &cap)| (cap, OverheadTerm::Fixed(i as f64))).collect();
        let model = OverheadModel::piecewise(segments);
        let want = |q: usize| caps.iter().position(|&cap| q <= cap).unwrap_or(caps.len() - 1) as f64;
        // Each segment's end belongs to it; the next p starts the next one.
        for q in caps.iter().flat_map(|&cap| [cap, cap + 1]).chain([p]) {
            prop_assert_eq!(model.eval(q), want(q), "p={}", q);
        }
    }

    #[test]
    fn linear_cost_model_refuses_what_it_cannot_fit(
        size in 0.0f64..1e6,
        times in prop::collection::vec(0.0f64..1e4, 2..20),
    ) {
        // Identical sizes leave the slope undefined; mismatched lengths
        // and non-finite times leave nothing to fit.
        let sizes = vec![size; times.len()];
        prop_assert!(LinearCostModel::fit(&sizes, &times).is_none());
        prop_assert!(LinearCostModel::fit(&sizes[1..], &times).is_none());
        let mut bad = times.clone();
        bad[0] = f64::NAN;
        let spread: Vec<f64> = (0..times.len()).map(|i| i as f64).collect();
        prop_assert!(LinearCostModel::fit(&spread, &bad).is_none());
    }

    // --- Metrics and synchronization -------------------------------

    #[test]
    fn rates_are_work_over_time(times in positive_samples(), work in 0.1f64..1e6) {
        let rates = Cost::new(times.clone(), Unit::Seconds).rate_for_work(work, Unit::FlopPerSecond);
        prop_assert_eq!(rates.unit(), Unit::FlopPerSecond);
        for (r, t) in rates.values().iter().zip(&times) {
            prop_assert_eq!(*r, work / t);
        }
    }

    #[test]
    fn environment_doc_keeps_the_last_word_on_each_class(
        ops in prop::collection::vec((0usize..9, any::<bool>(), 0u32..100), 0..30),
    ) {
        let mut doc = EnvironmentDoc::new();
        let mut want = vec![ClassDoc::Missing; DocumentationClass::ALL.len()];
        for (class, documented, tag) in ops {
            let text = format!("entry {tag}");
            let c = DocumentationClass::ALL[class];
            (doc, want[class]) = if documented {
                (doc.document(c, &text), ClassDoc::Documented(text))
            } else {
                (doc.not_applicable(c, &text), ClassDoc::NotApplicable(text))
            };
        }
        for (i, &c) in DocumentationClass::ALL.iter().enumerate() {
            prop_assert_eq!(doc.get(c), &want[i]);
        }
        let covered = want.iter().filter(|d| d.is_covered()).count();
        prop_assert_eq!(doc.coverage_score(), covered);
        prop_assert_eq!(doc.missing_classes().len(), DocumentationClass::ALL.len() - covered);
        prop_assert_eq!(doc.render().lines().count(), DocumentationClass::ALL.len());
    }

    #[test]
    fn negative_quantities_format_as_their_magnitude_with_a_sign(v in 1e-12f64..1e15) {
        for unit in [Unit::Seconds, Unit::FlopPerSecond, Unit::Bytes, Unit::Dimensionless] {
            prop_assert_eq!(format_quantity(-v, unit), format!("-{}", format_quantity(v, unit)));
        }
    }

    #[test]
    fn notch_overlap_is_symmetric_and_reflexive(
        xs in prop::collection::vec(-1e3f64..1e3, 10..200),
        ys in prop::collection::vec(-1e3f64..1e3, 10..200),
        shift in -2e3f64..2e3,
    ) {
        // The shift puts b's notch below, across and above a's.
        let ys: Vec<f64> = ys.iter().map(|y| y + shift).collect();
        let a = BoxPlotStats::from_samples("a", &xs, WhiskerRule::TukeyIqr).unwrap();
        let b = BoxPlotStats::from_samples("b", &ys, WhiskerRule::TukeyIqr).unwrap();
        prop_assert_eq!(a.notches_overlap(&b), b.notches_overlap(&a));
        prop_assert_eq!(a.notches_overlap(&a), a.notch.map(|_| true));
    }

    #[test]
    fn dataset_csv_round_trips_bit_exactly(
        rows in prop::collection::vec(prop::collection::vec((-1.0f64..1.0, -300i32..300), 2), 1..30),
    ) {
        // Rust prints the shortest decimal that parses back to the same
        // double, so a CSV export loses no bit.
        let mut d = DataSet::new(&["x", "y"]);
        let values: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&(m, e)| m * 10f64.powi(e)).collect())
            .collect();
        for v in &values {
            d.push_row(v);
        }
        d.push_row(&[-0.0, f64::MIN_POSITIVE / 4.0]);
        let back = DataSet::from_csv(&d.to_csv()).unwrap();
        for name in ["x", "y"] {
            let bits = |ds: &DataSet| ds.column(name).unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back), bits(&d));
        }
    }

    #[test]
    fn barrier_starts_end_by_the_protocol_end(p in 1usize..64, seed in any::<u64>()) {
        let machine = MachineSpec::piz_daint();
        let mut rng = SimRng::new(seed);
        let alloc = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, &mut rng);
        let out = barrier_sync_start(&machine, &alloc, &mut rng);
        prop_assert_eq!(out.start_global_ns.len(), p);
        prop_assert!(out.start_global_ns.iter().all(|&t| 0.0 <= t && t <= out.protocol_end_ns));
        let skew = out.max_skew_ns();
        prop_assert!(0.0 <= skew && skew <= out.protocol_end_ns);
    }
}

mod campaign_invariance {
    use proptest::prelude::*;

    use scibench::experiment::campaign::{run_campaign, CampaignConfig};
    use scibench::experiment::design::{Design, Factor};
    use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
    use scibench::experiment::resilience::{run_campaign_resilient, MeasureFailure, RetryPolicy};

    fn small_design(a: usize, b: usize) -> Design {
        Design::new(vec![
            Factor::numeric("f1", &(0..a).map(|i| i as f64).collect::<Vec<_>>()),
            Factor::numeric("f2", &(0..b).map(|i| i as f64).collect::<Vec<_>>()),
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn campaign_results_bit_identical_across_thread_counts(
            a in 1usize..4,
            b in 1usize..4,
            n in 3usize..25,
            seed in any::<u64>(),
        ) {
            // Thread count is a pure execution knob: every point's stream
            // derives from (seed, design index), so the full result —
            // every sample of every point — is identical at any width.
            let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(n));
            let measure = |point: &scibench::experiment::design::RunPoint,
                           rng: &mut scibench_sim::rng::SimRng| {
                let lvl: f64 = point.level(0).parse().unwrap();
                1.0 + lvl * 0.1 + rng.uniform()
            };
            let reference = run_campaign(
                &small_design(a, b),
                &plan,
                &CampaignConfig { seed, threads: 1 },
                measure,
            )
            .unwrap();
            for threads in [2usize, 8] {
                let wide = run_campaign(
                    &small_design(a, b),
                    &plan,
                    &CampaignConfig { seed, threads },
                    measure,
                )
                .unwrap();
                prop_assert_eq!(reference.runs.len(), wide.runs.len());
                for (r, w) in reference.runs.iter().zip(&wide.runs) {
                    prop_assert_eq!(&r.point, &w.point);
                    prop_assert_eq!(r.outcome.samples.len(), w.outcome.samples.len());
                    for (x, y) in r.outcome.samples.iter().zip(&w.outcome.samples) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }

        #[test]
        fn resilient_campaign_bit_identical_across_thread_counts(
            a in 1usize..4,
            n in 5usize..20,
            fail_rate in 0.0f64..0.3,
            seed in any::<u64>(),
        ) {
            let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(n));
            let measure = move |_point: &scibench::experiment::design::RunPoint,
                                rng: &mut scibench_sim::rng::SimRng| {
                if rng.uniform() < fail_rate {
                    Err(MeasureFailure::Failed("transient".into()))
                } else {
                    Ok(1.0 + rng.uniform())
                }
            };
            let run = |threads: usize| {
                run_campaign_resilient(
                    &small_design(a, 2),
                    &plan,
                    &CampaignConfig { seed, threads },
                    &RetryPolicy::default(),
                    measure,
                )
            };
            let reference = run(1);
            for threads in [2usize, 8] {
                let wide = run(threads);
                match (&reference, &wide) {
                    (Ok(r), Ok(w)) => {
                        prop_assert_eq!(r.health, w.health);
                        for (x, y) in r.runs.iter().zip(&w.runs) {
                            prop_assert_eq!(&x.point, &y.point);
                            prop_assert_eq!(&x.fate, &y.fate);
                            prop_assert_eq!(x.panics_contained, y.panics_contained);
                            match (&x.outcome, &y.outcome) {
                                (Some(ox), Some(oy)) => {
                                    prop_assert_eq!(ox.samples.len(), oy.samples.len());
                                    for (s, t) in ox.samples.iter().zip(&oy.samples) {
                                        prop_assert_eq!(s.to_bits(), t.to_bits());
                                    }
                                }
                                (None, None) => {}
                                other => prop_assert!(false, "outcome mismatch: {other:?}"),
                            }
                        }
                    }
                    (Err(re), Err(we)) => prop_assert_eq!(re, we),
                    other => prop_assert!(false, "result kind mismatch: {other:?}"),
                }
            }
        }
    }
}
