//! Ablation: fixed-count vs adaptive CI-driven stopping (§4.2.2).
//!
//! The adaptive rule spends as many samples as the target precision
//! requires; a fixed-count plan either wastes measurements on quiet
//! operations or under-samples noisy ones. Prints how many samples each
//! rule takes on a quiet and a noisy ping-pong source, and asserts that
//! the adaptive rule takes fewer on both.
//!
//! Run with: `cargo run --release -p scibench --example ablation_adaptive`

use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench_sim::machine::MachineSpec;
use scibench_sim::pingpong::{pingpong_latencies_us, PingPongConfig};
use scibench_sim::rng::SimRng;

fn make_source(noisy: bool) -> impl FnMut() -> f64 {
    let machine = if noisy {
        MachineSpec::piz_dora()
    } else {
        MachineSpec::test_machine(4)
    };
    let mut cfg = PingPongConfig::paper_64b(1);
    cfg.warmup_iterations = 0;
    if !noisy {
        cfg.node_b = 1;
    }
    let mut rng = SimRng::new(9);
    move || pingpong_latencies_us(&machine, &cfg, &mut rng)[0]
}

fn main() {
    let fixed = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(1_000));
    let adaptive = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMedianCi {
        confidence: 0.95,
        rel_error: 0.02,
        batch: 50,
        max_samples: 20_000,
    });
    for (label, noisy) in [("quiet", false), ("noisy", true)] {
        let n_fixed = fixed
            .run(make_source(noisy))
            .expect("fixed plan")
            .samples
            .len();
        let n_adaptive = adaptive
            .run(make_source(noisy))
            .expect("adaptive plan")
            .samples
            .len();
        println!("{label}: fixed takes {n_fixed} samples, adaptive takes {n_adaptive}");
        assert!(
            n_adaptive < n_fixed,
            "{label}: the adaptive rule took no fewer samples than the fixed one"
        );
    }
}
