//! End-to-end observability properties: a fully traced measurement
//! campaign must be **bit-identical** to the untraced one at any thread
//! count (tracing is an observer, never a participant — the harness's
//! own Rule 4/5 obligation), and the non-schedule event stream must be
//! a pure function of the seed and design.

use proptest::prelude::*;

use scibench::experiment::campaign::{
    run_campaign, run_campaign_traced, CampaignConfig, CampaignResult,
};
use scibench::experiment::design::{Design, Factor, RunPoint};
use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench::experiment::resilience::{
    run_campaign_resilient, run_campaign_resilient_traced, RetryPolicy,
};
use scibench_sim::rng::SimRng;
use scibench_trace::{category, to_chrome_json, validate_chrome_trace, Trace, Tracer};

fn design(sizes: usize) -> Design {
    let levels: Vec<f64> = (0..sizes).map(|i| (1u64 << (3 + i)) as f64).collect();
    Design::new(vec![
        Factor::new("system", &["lib-a", "lib-b"]),
        Factor::numeric("size", &levels),
    ])
}

fn measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
    let base = if point.level(0) == "lib-a" { 1.0 } else { 1.5 };
    let size: f64 = point.level(1).parse().expect("numeric level");
    base + size.ln() * 0.1 + rng.uniform() * 0.3
}

fn plan(samples: usize) -> MeasurementPlan {
    MeasurementPlan::new("latency")
        .warmup(3)
        .stopping(StoppingRule::FixedCount(samples))
}

/// Runs the traced campaign, returning the result and drained trace.
fn traced(seed: u64, sizes: usize, samples: usize, threads: usize) -> (CampaignResult, Trace) {
    let tracer = Tracer::new();
    let result = run_campaign_traced(
        &design(sizes),
        &plan(samples),
        &CampaignConfig { seed, threads },
        Some(&tracer),
        measure,
    )
    .expect("traced campaign");
    (result, tracer.drain())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn traced_campaign_is_bit_identical_across_thread_counts(
        seed in 0u64..1_000_000,
        sizes in 1usize..4,
        samples in 5usize..40,
    ) {
        let untraced = run_campaign(
            &design(sizes),
            &plan(samples),
            &CampaignConfig { seed, threads: 1 },
            measure,
        ).expect("untraced campaign");
        for threads in [1usize, 2, 4, 8] {
            let (result, trace) = traced(seed, sizes, samples, threads);
            prop_assert_eq!(
                &result, &untraced,
                "traced result diverged at {} threads", threads
            );
            // One span + one counter per design point, at any thread count.
            let points = 2 * sizes;
            prop_assert_eq!(trace.count(category::CAMPAIGN), 2 * points);
            prop_assert_eq!(trace.count(category::POOL), points);
        }
    }

    #[test]
    fn trace_event_counts_are_a_function_of_the_seed(
        seed in 0u64..1_000_000,
        samples in 5usize..40,
    ) {
        let (_, at_one) = traced(seed, 2, samples, 1);
        for threads in [2usize, 4, 8] {
            let (_, trace) = traced(seed, 2, samples, threads);
            prop_assert_eq!(
                trace.deterministic_counts(),
                at_one.deterministic_counts(),
                "event counts at {} threads differ from 1 thread", threads
            );
            // The full export stays schema-valid for every seed.
            let json = to_chrome_json(&trace);
            prop_assert_eq!(validate_chrome_trace(&json), Ok(trace.len()));
        }
    }

    #[test]
    fn traced_resilient_campaign_is_bit_identical(
        seed in 0u64..1_000_000,
        samples in 5usize..30,
    ) {
        let policy = RetryPolicy::default();
        let plain = run_campaign_resilient(
            &design(2),
            &plan(samples),
            &CampaignConfig { seed, threads: 2 },
            &policy,
            |point, rng| Ok(measure(point, rng)),
        ).expect("untraced resilient campaign");
        let tracer = Tracer::new();
        let traced = run_campaign_resilient_traced(
            &design(2),
            &plan(samples),
            &CampaignConfig { seed, threads: 2 },
            &policy,
            Some(&tracer),
            |point, rng| Ok(measure(point, rng)),
        ).expect("traced resilient campaign");
        prop_assert_eq!(traced, plain);
        let trace = tracer.drain();
        // Every point opens a RESILIENCE point-span and an attempt-span.
        prop_assert!(trace.count(category::RESILIENCE) >= 2 * 4);
    }
}
