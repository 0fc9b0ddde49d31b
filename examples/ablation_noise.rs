//! Ablation: which noise source produces which statistical signature?
//!
//! The simulator composes four mechanisms (folded jitter, slow path, OS
//! daemons, congestion). This ablation disables them one at a time on
//! the Pilatus model and prints the resulting latency statistics —
//! evidence that each figure's distribution shape comes from the
//! mechanism DESIGN.md attributes it to. It asserts the two attributions
//! EXPERIMENTS.md draws: the slow path sets the median, and congestion
//! sets the max.
//!
//! Run with: `cargo run --release -p scibench --example ablation_noise`

use std::collections::HashMap;

use scibench_sim::machine::MachineSpec;
use scibench_sim::pingpong::{pingpong_latencies_us, PingPongConfig};
use scibench_sim::rng::SimRng;
use scibench_stats::describe::describe;

fn variants() -> Vec<(&'static str, MachineSpec)> {
    let full = MachineSpec::pilatus();
    let mut no_jitter = full.clone();
    no_jitter.noise.jitter_sigma = 0.0;
    let mut no_slow_path = full.clone();
    no_slow_path.noise.slow_path_prob = 0.0;
    let mut no_congestion = full.clone();
    no_congestion.noise.congestion_prob = 0.0;
    let mut no_daemons = full.clone();
    no_daemons.noise.daemon_period_ns = 0.0;
    vec![
        ("full", full),
        ("no_jitter", no_jitter),
        ("no_slow_path", no_slow_path),
        ("no_congestion", no_congestion),
        ("no_daemons", no_daemons),
    ]
}

fn main() {
    // Variant name → (median, max) in microseconds.
    let mut stats = HashMap::new();
    for (name, machine) in variants() {
        let mut cfg = PingPongConfig::paper_64b(20_000);
        cfg.warmup_iterations = 0;
        let mut rng = SimRng::new(77);
        let lat = pingpong_latencies_us(&machine, &cfg, &mut rng);
        let d = describe(&lat).expect("20 000 finite latencies");
        println!(
            "{name:<14} median {:.3} us  mean {:.3}  max {:.2}  skew {:.2}",
            d.five_number.median,
            d.mean,
            d.five_number.max,
            d.skewness.unwrap_or(f64::NAN)
        );
        stats.insert(name, (d.five_number.median, d.five_number.max));
    }
    let (full_median, full_max) = stats["full"];
    assert!(
        stats["no_slow_path"].0 < full_median,
        "dropping the slow path did not lower the median"
    );
    assert!(
        stats["no_congestion"].1 < full_max,
        "dropping congestion did not lower the max"
    );
}
