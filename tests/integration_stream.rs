//! Streaming statistics end-to-end: bounded-memory million-sample
//! campaigns that are bit-identical at any thread count.
//!
//! The acceptance properties under test:
//!
//! * a ≥ 10⁶-sample-per-point campaign runs in streaming mode with
//!   O(sketch) resident memory, and its quantiles stay within the
//!   sketch's rank-error bound of the exact answer, both analytic and
//!   from the vector campaign over the same draws;
//! * every point's summary is **bit-identical** across thread counts
//!   {1, 2, 8}: one worker builds it from the point's own stream, so the
//!   schedule never enters the result.

use proptest::prelude::*;

use scibench::experiment::stream::{run_campaign_stream, run_stream};
use scibench::experiment::{
    run_campaign, CampaignConfig, Design, Factor, MeasurementPlan, RunPoint, StoppingRule,
};
use scibench_sim::rng::SimRng;
use scibench_stats::quantile::QuantileMethod;
use scibench_stats::sketch::{MergeableSummary, StreamConfig, StreamingSummary};
use scibench_stats::sorted::SortedSamples;

const SEED: u64 = 0x57EA_0001;

fn demo_design() -> Design {
    Design::new(vec![
        Factor::new("system", &["a", "b"]),
        Factor::numeric("size", &[8.0, 64.0]),
    ])
}

/// Heavy-tailed (shifted exponential) measurement, CoV ≈ 0.9.
fn demo_measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
    let base = if point.level(0) == "a" { 0.1 } else { 0.2 };
    let u = rng.uniform().clamp(1e-12, 1.0 - 1e-12);
    base + (-u.ln())
}

fn fixed_plan(n: usize) -> MeasurementPlan {
    MeasurementPlan::new("stream-itest").stopping(StoppingRule::FixedCount(n))
}

/// The headline acceptance test: one million samples on a single design
/// point, streamed into a sketch. Memory stays O(sketch) — orders of
/// magnitude below the 8 MB a sample vector would hold — and the
/// quantiles land within the digest's rank-error bound of the analytic
/// answer (Exp(1) + 0.1 shift).
#[test]
fn million_sample_point_runs_in_bounded_memory() {
    let design = Design::new(vec![Factor::new("system", &["a"])]);
    let point = &design.full_factorial()[0];
    let plan = fixed_plan(1_000_000);
    let mut rng = SimRng::new(SEED).fork_indexed("campaign-point", 0);
    let out = run_stream(&plan, &StreamConfig::default(), || {
        demo_measure(point, &mut rng)
    })
    .unwrap();
    assert_eq!(out.samples_seen(), 1_000_000);
    assert!(!out.summary.is_exact(), "must have promoted to sketch mode");
    let resident = out.summary.resident_bytes();
    assert!(
        resident < 1_000_000 * 8 / 50,
        "resident {resident} bytes is not O(sketch) for n = 10^6"
    );
    // Exp(1): q(p) = −ln(1 − p), shifted by 0.1. The t-digest's rank
    // error at δ = 200 is far below 1%, so compare against the analytic
    // quantiles at p ± 1% rank.
    for p in [0.25f64, 0.5, 0.9, 0.99] {
        let analytic = |p: f64| 0.1 - (1.0 - p).ln();
        let (lo, hi) = (
            analytic((p - 0.01).max(1e-9)),
            analytic((p + 0.01).min(1.0 - 1e-9)),
        );
        let got = out.summary.quantile(p).unwrap();
        assert!(
            lo - 0.01 <= got && got <= hi + 0.01,
            "q{p} = {got} outside [{lo}, {hi}]"
        );
    }
    let mean = out.summary.mean().unwrap();
    assert!((mean - 1.1).abs() < 0.01, "mean {mean}");
}

/// The vector and streaming campaigns draw the same samples, so each
/// promoted sketch's quantiles can be held against the exact ones: within
/// 1% relative, and inside the exact quantiles at p ± 0.01.
#[test]
fn stream_campaign_quantiles_match_the_vector_campaign() {
    let design = demo_design();
    let plan = fixed_plan(50_000);
    let config = CampaignConfig {
        seed: 31,
        threads: 4,
    };
    let vector = run_campaign(&design, &plan, &config, demo_measure).unwrap();
    let stream = run_campaign_stream(
        &design,
        &plan,
        &StreamConfig::default(),
        &config,
        demo_measure,
    )
    .unwrap();
    assert_eq!((vector.runs.len(), stream.runs.len()), (4, 4));
    for (vr, sr) in vector.runs.iter().zip(&stream.runs) {
        assert_eq!(vr.point, sr.point);
        let sketch = &sr.outcome.summary;
        assert!(!sketch.is_exact(), "50k samples must promote");
        let sorted = SortedSamples::new(&vr.outcome.samples).unwrap();
        let exact = |p: f64| sorted.quantile(p, QuantileMethod::Interpolated).unwrap();
        for p in [0.5, 0.9, 0.99] {
            let (want, got) = (exact(p), sketch.quantile(p).unwrap());
            let rel = (got - want).abs() / want.abs();
            assert!(rel <= 0.01, "q{p} = {got} is {rel:.2e} off exact {want}");
            let (lo, hi) = (exact(p - 0.01), exact(p + 0.01));
            assert!(
                lo <= got && got <= hi,
                "q{p} = {got} outside the rank window [{lo}, {hi}]"
            );
        }
    }
}

/// Threads {1, 2, 8}: every point's summary, the campaign's partial for
/// that point, has the identical record. A streaming campaign runs in one
/// process, so its thread count is the only execution shape that varies.
#[test]
fn partials_bit_identical_across_threads_and_shards() {
    let design = demo_design();
    let plan = fixed_plan(50_000);
    let stream_cfg = StreamConfig {
        threshold: 4096,
        ..StreamConfig::default()
    };
    let records = |threads| -> Vec<String> {
        let config = CampaignConfig {
            seed: SEED,
            threads,
        };
        let campaign =
            run_campaign_stream(&design, &plan, &stream_cfg, &config, demo_measure).unwrap();
        assert_eq!(campaign.runs.len(), 4);
        campaign
            .runs
            .iter()
            .map(|r| {
                assert!(!r.outcome.summary.is_exact(), "50k samples must promote");
                r.outcome.summary.to_record()
            })
            .collect()
    };
    let want = records(1);
    for threads in [2usize, 8] {
        assert_eq!(records(threads), want, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact-vs-sketch error bounds on heavy-tailed, contaminated
    /// distributions: quantiles stay within ±1% rank of the exact
    /// order statistics, and the moments match the exact fold.
    #[test]
    fn sketch_tracks_exact_statistics_on_contaminated_data(
        seed in 1u64..10_000,
        shape in 0.3f64..0.9,
        contamination in 0.0f64..0.05,
    ) {
        let n = 30_000usize;
        let mut rng = SimRng::new(seed).fork("contaminated");
        let xs: Vec<f64> = (0..n)
            .map(|_| {
                let u = rng.uniform().clamp(1e-12, 1.0 - 1e-12);
                let base = (1.0 - u).powf(-shape); // Pareto-like tail
                if rng.uniform() < contamination {
                    base * 1e3 // gross outliers
                } else {
                    base
                }
            })
            .collect();
        let mut summary = StreamingSummary::new(StreamConfig {
            threshold: 1024,
            ..StreamConfig::default()
        })
        .unwrap();
        for &x in &xs {
            summary.push(x);
        }
        prop_assert!(!summary.is_exact());
        let sorted = SortedSamples::new(&xs).unwrap();
        for p in [0.1f64, 0.5, 0.9, 0.99] {
            let lo = sorted
                .quantile((p - 0.01).max(0.0), QuantileMethod::Interpolated)
                .unwrap();
            let hi = sorted
                .quantile((p + 0.01).min(1.0), QuantileMethod::Interpolated)
                .unwrap();
            let got = summary.quantile(p).unwrap();
            prop_assert!(
                lo <= got && got <= hi,
                "q{} = {} outside rank window [{}, {}]",
                p, got, lo, hi
            );
        }
        // The moment side of the summary is the exact Welford fold.
        let exact_mean = xs.iter().sum::<f64>() / n as f64;
        let got_mean = summary.mean().unwrap();
        prop_assert!(
            (got_mean - exact_mean).abs() / exact_mean.abs() < 1e-9,
            "mean {} vs {}", got_mean, exact_mean
        );
        prop_assert_eq!(summary.min().unwrap().to_bits(),
            sorted.quantile(0.0, QuantileMethod::Interpolated).unwrap().to_bits());
        prop_assert_eq!(summary.max().unwrap().to_bits(),
            sorted.quantile(1.0, QuantileMethod::Interpolated).unwrap().to_bits());
    }
}
