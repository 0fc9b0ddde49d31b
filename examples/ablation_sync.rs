//! Ablation: barrier-based vs window-based synchronization (§4.2.1).
//!
//! Prints the mean start-time skew each scheme achieves over 50 rounds
//! at p = 8 and p = 64 — the design-choice data behind the paper's
//! recommendation of the window scheme — and asserts that the window
//! scheme starts the ranks closer together at both scales.
//!
//! Run with: `cargo run --release -p scibench --example ablation_sync`

use scibench::sync::{barrier_sync_start, window_sync_start};
use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::drift::ClockEnsemble;
use scibench_sim::machine::MachineSpec;
use scibench_sim::rng::SimRng;

fn main() {
    let machine = MachineSpec::piz_daint();
    for p in [8usize, 64] {
        let mut rng = SimRng::new(p as u64);
        let alloc = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Packed, &mut rng);
        let clocks = ClockEnsemble::sample(p, 10_000.0, 1e-6, &mut rng);

        let mut barrier_skew = 0.0;
        let mut window_skew = 0.0;
        let reps = 50;
        for _ in 0..reps {
            barrier_skew += barrier_sync_start(&machine, &alloc, &mut rng).max_skew_ns();
            window_skew +=
                window_sync_start(&machine, &alloc, &clocks, 1e6, &mut rng).max_skew_ns();
        }
        let barrier_skew = barrier_skew / reps as f64;
        let window_skew = window_skew / reps as f64;
        println!(
            "p={p}: mean start skew barrier {barrier_skew:.0} ns vs window {window_skew:.0} ns"
        );
        assert!(
            window_skew < barrier_skew,
            "p={p}: window sync did not lower the start skew"
        );
    }
}
