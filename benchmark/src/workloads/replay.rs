//! `replay_sweep`: compiled reduce and barrier schedules on Piz Daint,
//! replayed sample by sample through a campaign. Simulator replay and its
//! noise draws are nearly all the CPU; statistics are negligible.

use std::time::Instant;

use scibench::experiment::campaign::{run_campaign_scoped_traced, CampaignConfig, CampaignResult};
use scibench::experiment::{Design, Factor, MeasurementPlan, RunPoint, StoppingRule};
use scibench::parallel::{collapse_repetition, CrossProcessSummary};
use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::collectives;
use scibench_sim::compile::{CompiledSchedule, ReplayCtx};
use scibench_sim::machine::MachineSpec;
use scibench_sim::network::NetworkModel;
use scibench_sim::rng::SimRng;
use scibench_trace::{Trace, Tracer};

use crate::harness::{
    fnv1a, pool_layer, quantile, timed, Check, Layers, RepStats, Replayed, Workload, FNV_OFFSET,
};

const THREADS: usize = 1;
const POINT_STREAM: &str = "campaign-point";
/// Reduce payload in bytes.
const REDUCE_BYTES: usize = 8;
/// Samples per point checked against the interpreter.
const INTERPRETED_SAMPLES: usize = 32;

pub struct Replay {
    seed: u64,
    n: usize,
    machine: MachineSpec,
    design: Design,
    points: Vec<RunPoint>,
    allocs: Vec<Allocation>,
    schedules: Vec<CompiledSchedule>,
    plan: MeasurementPlan,
    config: CampaignConfig,
}

pub struct ReplayOut {
    campaign: CampaignResult,
    campaign_s: f64,
    summaries_s: f64,
}

fn is_reduce(point: &RunPoint) -> bool {
    point.level(0) == "reduce"
}

/// Completion time of one collective: the slowest rank.
fn completion(done: &[f64]) -> f64 {
    collapse_repetition(done, CrossProcessSummary::Max).unwrap_or(f64::NAN)
}

impl Replay {
    /// Compiles every schedule: one per (operation, process count), each
    /// on its own random allocation.
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let machine = MachineSpec::piz_daint();
        let design = Design::new(vec![
            Factor::new("op", &["reduce", "barrier"]),
            Factor::numeric("p", &[16.0, 64.0, 256.0]),
        ]);
        let points = design.full_factorial();
        let mut allocs = Vec::new();
        let mut schedules = Vec::new();
        for (idx, point) in points.iter().enumerate() {
            let p: usize = point
                .level(1)
                .parse()
                .map_err(|e| format!("process count: {e}"))?;
            let mut rng = SimRng::new(seed).fork_indexed("allocation", idx as u64);
            let alloc =
                Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, &mut rng);
            schedules.push(if is_reduce(point) {
                CompiledSchedule::compile_reduce(&machine, &alloc, REDUCE_BYTES)
            } else {
                CompiledSchedule::compile_barrier(&machine, &alloc)
            });
            allocs.push(alloc);
        }
        let n = if quick { 2_500 } else { 5_000 };
        Ok(Self {
            seed,
            n,
            machine,
            design,
            points,
            allocs,
            schedules,
            plan: MeasurementPlan::new("collective").stopping(StoppingRule::FixedCount(n)),
            config: CampaignConfig {
                seed,
                threads: THREADS,
            },
        })
    }

    fn schedule_of(&self, point: &RunPoint) -> &CompiledSchedule {
        let idx = self
            .points
            .iter()
            .position(|p| p.levels == point.levels)
            .expect("campaign points come from the same design");
        &self.schedules[idx]
    }

    fn messages(&self) -> f64 {
        self.schedules
            .iter()
            .map(|s| s.messages() as f64)
            .sum::<f64>()
            * self.n as f64
    }
}

impl Workload for Replay {
    type Output = ReplayOut;

    fn threads(&self) -> usize {
        THREADS
    }

    fn rep(&mut self, tracer: Option<&Tracer>) -> Result<ReplayOut, String> {
        let this = &*self;
        let (campaign, campaign_s) = timed(tracer, "campaign", || {
            run_campaign_scoped_traced(
                &this.design,
                &this.plan,
                &this.config,
                tracer,
                ReplayCtx::new,
                |ctx, point, rng| completion(this.schedule_of(point).replay_into(ctx, rng)),
            )
        });
        let campaign = campaign.map_err(|e| format!("replay campaign: {e}"))?;
        let (summaries, summaries_s) = timed(tracer, "summaries", || {
            campaign.summaries(0.95).map(|s| s.len())
        });
        summaries.map_err(|e| format!("summaries: {e}"))?;
        Ok(ReplayOut {
            campaign,
            campaign_s,
            summaries_s,
        })
    }

    fn stats(&self, out: &ReplayOut) -> RepStats {
        let mut digest = FNV_OFFSET;
        let mut bytes = 0u64;
        for run in &out.campaign.runs {
            for x in &run.outcome.samples {
                digest = fnv1a(digest, &x.to_bits().to_le_bytes());
            }
            bytes += 8 * run.outcome.samples.len() as u64;
        }
        RepStats {
            digest,
            samples: (self.points.len() * self.n) as u64,
            result_bytes: bytes,
            attempted: out.campaign.runs.len() as u64,
            failed: out.campaign.unconverged().len() as u64,
        }
    }

    /// Replays every point in isolation on its campaign stream, timing
    /// each `replay_into` call (which must reproduce the campaign's sample
    /// bit for bit), then times a `perturb` loop with the same number of
    /// noise draws.
    fn layers(&mut self, out: &ReplayOut, trace: &Trace, _: f64) -> Result<Layers, String> {
        let mut ctx = ReplayCtx::new();
        let mut replay_s = 0.0;
        let mut ns_per_msg = Vec::with_capacity(self.points.len() * self.n);
        let mut mismatches = 0usize;
        for (idx, (schedule, run)) in self.schedules.iter().zip(&out.campaign.runs).enumerate() {
            let mut rng = SimRng::new(self.seed).fork_indexed(POINT_STREAM, idx as u64);
            for &want in &run.outcome.samples {
                let t = Instant::now();
                let done = schedule.replay_into(&mut ctx, &mut rng);
                let secs = t.elapsed().as_secs_f64();
                replay_s += secs;
                ns_per_msg.push(secs * 1e9 / schedule.messages() as f64);
                mismatches += usize::from(completion(done).to_bits() != want.to_bits());
            }
        }

        let net = NetworkModel::new(&self.machine);
        let mut noise_s = 0.0;
        for (idx, (schedule, alloc)) in self.schedules.iter().zip(&self.allocs).enumerate() {
            let base = net.base_transfer_ns(alloc.node_of[0], alloc.node_of[1], schedule.bytes());
            let mut rng = SimRng::new(self.seed).fork_indexed("noise-probe", idx as u64);
            let draws = schedule.messages() * self.n;
            let t = Instant::now();
            let mut acc = 0.0;
            for _ in 0..draws {
                acc += self.machine.noise.perturb(base, &mut rng);
            }
            noise_s += t.elapsed().as_secs_f64();
            std::hint::black_box(acc);
        }

        let messages = self.messages();
        let mut values = pool_layer(trace, THREADS, out.campaign_s);
        values.extend([
            ("replay.messages", messages),
            (
                "replay.msg_time_p99_over_p50",
                quantile(&ns_per_msg, 0.99) / quantile(&ns_per_msg, 0.5),
            ),
        ]);
        Ok(Layers {
            explained_s: out.summaries_s,
            replayed: vec![
                Replayed::new("replay.share", replay_s, true).rate("replay.msgs_per_s", messages),
                // Replay draws its noise itself: the ledger counts it there.
                Replayed::new("noise.share", noise_s, false).rate("noise.draws_per_s", messages),
            ],
            values,
            checks: vec![Check::new(
                "isolated replay reproduces every campaign sample",
                mismatches == 0,
                format!("{mismatches} mismatched samples"),
            )],
        })
    }

    /// The first samples of every point must equal the interpreted
    /// (uncompiled) collective on the same stream, bit for bit.
    fn verify(&mut self, out: &ReplayOut) -> Vec<Check> {
        let mut mismatched = Vec::new();
        for (idx, (point, run)) in self.points.iter().zip(&out.campaign.runs).enumerate() {
            let alloc = &self.allocs[idx];
            let mut rng = SimRng::new(self.seed).fork_indexed(POINT_STREAM, idx as u64);
            let same = run
                .outcome
                .samples
                .iter()
                .take(INTERPRETED_SAMPLES)
                .all(|&want| {
                    let outcome = if is_reduce(point) {
                        collectives::reduce(&self.machine, alloc, REDUCE_BYTES, &mut rng)
                    } else {
                        collectives::barrier(&self.machine, alloc, &mut rng)
                    };
                    completion(&outcome.per_rank_done_ns).to_bits() == want.to_bits()
                });
            if !same {
                mismatched.push(idx);
            }
        }
        vec![Check::new(
            "compiled replay matches the interpreted collectives",
            mismatched.is_empty(),
            format!("mismatched points {mismatched:?}"),
        )]
    }
}
