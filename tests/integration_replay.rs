//! Cross-crate validation of the compiled-schedule replay engine: the
//! figure pipelines and campaign runners that now replay compiled
//! schedules must produce exactly the results the interpreted hot loops
//! produced, independent of how many pool threads execute them.

use scibench::experiment::campaign::{run_campaign, run_campaign_scoped_traced, CampaignConfig};
use scibench::experiment::design::{Design, Factor};
use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench_bench::figures::{fig5_reduce, fig6_variation};
use scibench_bench::DEFAULT_SEED;
use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::collectives::reduce;
use scibench_sim::compile::{CompiledSchedule, ReplayCtx};
use scibench_sim::machine::MachineSpec;
use scibench_sim::rng::SimRng;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The interpreted Figure 5 inner loop, kept here as the reference the
/// compiled pipeline must reproduce bit-for-bit.
fn fig5_interpreted_point(p: usize, runs: usize, seed: u64) -> Vec<f64> {
    let machine = MachineSpec::piz_daint();
    let mut rng = SimRng::new(seed).fork_indexed("fig5", p as u64);
    let alloc = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, &mut rng);
    let mut out = Vec::with_capacity(runs);
    for _ in 0..runs {
        let outcome = reduce(&machine, &alloc, 8, &mut rng);
        out.push(outcome.max_ns().unwrap() * 1e-3);
    }
    out
}

#[test]
fn fig5_pipeline_matches_interpreted_reference() {
    let runs = 40;
    let fig = fig5_reduce::compute(runs, DEFAULT_SEED).unwrap();
    for pt in &fig.points {
        let reference = fig5_interpreted_point(pt.p, runs, DEFAULT_SEED);
        assert_eq!(
            bits(&pt.completion_us),
            bits(&reference),
            "fig5 diverged from interpreter at p={}",
            pt.p
        );
    }
}

#[test]
fn fig5_pipeline_is_reproducible_across_invocations() {
    // The pool parallelizes over process counts; per-p RNG forks make the
    // result invariant under scheduling, so two runs agree exactly.
    let a = fig5_reduce::compute(25, 7).unwrap();
    let b = fig5_reduce::compute(25, 7).unwrap();
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(bits(&x.completion_us), bits(&y.completion_us), "p={}", x.p);
    }
}

#[test]
fn fig6_pipeline_matches_interpreted_reference() {
    let (p, runs, seed) = (32usize, 50usize, DEFAULT_SEED);
    let fig = fig6_variation::compute(p, runs, seed).unwrap();

    let machine = MachineSpec::piz_daint();
    let mut rng = SimRng::new(seed).fork("fig6");
    let alloc = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, &mut rng);
    let mut per_rank_us: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); p];
    for _ in 0..runs {
        let outcome = reduce(&machine, &alloc, 8, &mut rng);
        for (r, &t) in outcome.per_rank_done_ns.iter().enumerate() {
            per_rank_us[r].push(t * 1e-3);
        }
    }
    for (r, (got, want)) in fig.per_rank_us.iter().zip(&per_rank_us).enumerate() {
        assert_eq!(bits(got), bits(want), "fig6 diverged at rank {r}");
    }
}

#[test]
fn scoped_campaign_with_replay_is_thread_invariant() {
    // A campaign whose measurement replays a compiled schedule through the
    // per-worker scratch arena must agree bit-for-bit with the interpreted
    // campaign at every thread count.
    let machine = MachineSpec::piz_daint();
    let design = Design::new(vec![Factor::numeric("procs", &[4.0, 9.0, 16.0, 33.0])]);
    let plan = MeasurementPlan::new("reduce").stopping(StoppingRule::FixedCount(30));

    let interpreted = run_campaign(
        &design,
        &plan,
        &CampaignConfig {
            seed: 21,
            threads: 1,
        },
        |point, rng| {
            let p = point.level(0).parse::<f64>().unwrap() as usize;
            let alloc = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, rng);
            reduce(&machine, &alloc, 8, rng).max_ns().unwrap()
        },
    )
    .unwrap();

    for threads in [1usize, 2, 8] {
        let replayed = run_campaign_scoped_traced(
            &design,
            &plan,
            &CampaignConfig { seed: 21, threads },
            None,
            ReplayCtx::new,
            |ctx, point, rng| {
                let p = point.level(0).parse::<f64>().unwrap() as usize;
                let alloc =
                    Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, rng);
                let schedule = CompiledSchedule::compile_reduce(&machine, &alloc, 8);
                let done = schedule.replay_into(ctx, rng);
                done.iter().cloned().reduce(f64::max).unwrap()
            },
        )
        .unwrap();
        assert_eq!(interpreted.runs.len(), replayed.runs.len());
        for (a, b) in interpreted.runs.iter().zip(&replayed.runs) {
            assert_eq!(
                bits(&a.outcome.samples),
                bits(&b.outcome.samples),
                "threads={threads}"
            );
        }
    }
}
