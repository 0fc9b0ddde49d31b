//! Property-based equivalence of the compiled-schedule replayer and the
//! collective interpreter: for every process count and message size (both
//! sides of the rendezvous threshold), replaying a compiled schedule must
//! produce per-rank completion times that are bit-identical to
//! interpreting the collective with the same RNG stream.

use proptest::prelude::*;

use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::collectives::{barrier, reduce};
use scibench_sim::compile::{CompiledSchedule, ReplayCtx};
use scibench_sim::machine::MachineSpec;
use scibench_sim::rng::SimRng;

/// Process counts stressing every algorithmic branch: p = 1 (degenerate),
/// powers of two (no fold phase), and 2^k ± 1 (fold phase, ragged trees).
const PROCS: &[usize] = &[1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129];

/// Message sizes spanning the Piz Daint eager/rendezvous threshold
/// (8192 B) — the protocol switch changes the base cost formula.
const BYTES: &[usize] = &[1, 64, 4096, 8192, 8193, 65536];

fn setup(p: usize, seed: u64) -> (MachineSpec, Allocation, SimRng) {
    let machine = MachineSpec::piz_daint();
    let root = SimRng::new(seed);
    let mut alloc_rng = root.fork("alloc");
    let alloc =
        Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, &mut alloc_rng);
    (machine, alloc, root)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn reduce_replay_is_bit_identical(
        p_idx in 0..PROCS.len(),
        b_idx in 0..BYTES.len(),
        seed in 0u64..10_000,
    ) {
        let (p, bytes) = (PROCS[p_idx], BYTES[b_idx]);
        let (machine, alloc, root) = setup(p, seed);
        let mut rng_a = root.fork("samples");
        let mut rng_b = root.fork("samples");
        let schedule = CompiledSchedule::compile_reduce(&machine, &alloc, bytes);
        let mut ctx = ReplayCtx::with_capacity(p);
        for _ in 0..3 {
            let interpreted = reduce(&machine, &alloc, bytes, &mut rng_a);
            let replayed = schedule.replay_into(&mut ctx, &mut rng_b);
            prop_assert_eq!(bits(&interpreted.per_rank_done_ns), bits(replayed));
        }
    }

    #[test]
    fn barrier_replay_is_bit_identical(
        p_idx in 0..PROCS.len(),
        seed in 0u64..10_000,
    ) {
        let p = PROCS[p_idx];
        let (machine, alloc, root) = setup(p, seed);
        let mut rng_a = root.fork("samples");
        let mut rng_b = root.fork("samples");
        let schedule = CompiledSchedule::compile_barrier(&machine, &alloc);
        let mut ctx = ReplayCtx::with_capacity(p);
        for _ in 0..3 {
            let interpreted = barrier(&machine, &alloc, &mut rng_a);
            let replayed = schedule.replay_into(&mut ctx, &mut rng_b);
            prop_assert_eq!(bits(&interpreted.per_rank_done_ns), bits(replayed));
        }
    }

    #[test]
    fn replay_reuses_its_arena(
        p_idx in 0..PROCS.len(),
        seed in 0u64..10_000,
    ) {
        // Zero-allocation contract: after the first replay the arena's
        // buffers never grow again for same-or-smaller schedules.
        let p = PROCS[p_idx];
        let (machine, alloc, root) = setup(p, seed);
        let schedule = CompiledSchedule::compile_reduce(&machine, &alloc, 8);
        let mut ctx = ReplayCtx::new();
        let mut rng = root.fork("samples");
        schedule.replay_into(&mut ctx, &mut rng);
        let caps = ctx.capacities();
        for _ in 0..5 {
            schedule.replay_into(&mut ctx, &mut rng);
            prop_assert_eq!(ctx.capacities(), caps);
        }
    }
}
