//! `stream_1m` and `vector_1m`: the same 2×2 design, plan, seed and
//! heavy-tailed draw, summarized once through streaming sketches and once
//! through sorted sample vectors. A sketch change should move only the
//! first; a change to the shared executor shows on both.

use std::time::Instant;

use scibench::experiment::campaign::{run_campaign_traced, CampaignConfig, CampaignResult};
use scibench::experiment::stream::{run_campaign_stream, StreamCampaign};
use scibench::experiment::StoppingRule;
use scibench::experiment::{Design, Factor, MeasurementPlan, MeasurementSummary, RunPoint};
use scibench_sim::rng::SimRng;
use scibench_stats::ci::ConfidenceInterval;
use scibench_stats::quantile::FiveNumberSummary;
use scibench_stats::sketch::{MergeableSummary, StreamConfig, StreamingSummary};
use scibench_stats::sorted::SortedSamples;
use scibench_trace::{Trace, Tracer};

use crate::harness::{
    fnv1a, pool_layer, timed, Check, Layers, RepStats, Replayed, Workload, FNV_OFFSET,
};

/// Campaign threads: one, because two threads on a shared two-core box
/// measure the scheduler as much as the campaign.
const THREADS: usize = 1;

/// The label the campaign runners fork each point's stream from.
const POINT_STREAM: &str = "campaign-point";

fn design() -> Design {
    Design::new(vec![
        Factor::new("system", &["a", "b"]),
        Factor::numeric("size", &[8.0, 64.0]),
    ])
}

fn samples_per_point(quick: bool) -> usize {
    if quick {
        100_000
    } else {
        1_000_000
    }
}

/// A shifted exponential (CoV ≈ 0.9): the heavy-tailed regime where
/// quantile sketches have to earn their keep.
fn measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
    let base = if point.level(0) == "a" { 0.1 } else { 0.2 };
    let u = rng.uniform().clamp(1e-12, 1.0 - 1e-12);
    base + (-u.ln())
}

/// Regenerates design point `idx`'s sample stream into `out`, exactly as
/// the campaign drew it.
fn regenerate(seed: u64, idx: usize, point: &RunPoint, n: usize, out: &mut Vec<f64>) {
    let mut rng = SimRng::new(seed).fork_indexed(POINT_STREAM, idx as u64);
    out.clear();
    out.extend((0..n).map(|_| measure(point, &mut rng)));
}

/// What both campaign workloads share.
struct Setup {
    seed: u64,
    n: usize,
    design: Design,
    points: Vec<RunPoint>,
    plan: MeasurementPlan,
    config: CampaignConfig,
}

impl Setup {
    fn new(seed: u64, quick: bool) -> Self {
        let n = samples_per_point(quick);
        let design = design();
        Self {
            seed,
            n,
            points: design.full_factorial(),
            design,
            plan: MeasurementPlan::new("draw").stopping(StoppingRule::FixedCount(n)),
            config: CampaignConfig {
                seed,
                threads: THREADS,
            },
        }
    }

    fn total_samples(&self) -> u64 {
        (self.points.len() * self.n) as u64
    }
}

pub struct Stream {
    s: Setup,
    stream: StreamConfig,
}

pub struct StreamOut {
    campaign: StreamCampaign,
    queries: Vec<(ConfidenceInterval, FiveNumberSummary)>,
    query_s: f64,
}

impl Stream {
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let stream = StreamConfig::default();
        // Validates the configuration before any repetition runs.
        StreamingSummary::new(stream).map_err(|e| format!("stream config: {e}"))?;
        Ok(Self {
            s: Setup::new(seed, quick),
            stream,
        })
    }
}

impl Workload for Stream {
    type Output = StreamOut;

    fn threads(&self) -> usize {
        THREADS
    }

    fn rep(&mut self, tracer: Option<&Tracer>) -> Result<StreamOut, String> {
        let s = &self.s;
        // The streaming runner has no traced entry point: one span covers it.
        let (campaign, _) = timed(tracer, "campaign", || {
            run_campaign_stream(&s.design, &s.plan, &self.stream, &s.config, measure)
        });
        let campaign = campaign.map_err(|e| format!("stream campaign: {e}"))?;
        let (queries, query_s) = timed(tracer, "query", || {
            campaign
                .runs
                .iter()
                .map(|r| {
                    Ok((
                        r.outcome.summary.median_ci(0.95)?,
                        r.outcome.summary.five_number()?,
                    ))
                })
                .collect::<Result<Vec<_>, scibench_stats::StatsError>>()
        });
        let queries = queries.map_err(|e| format!("sketch query: {e}"))?;
        Ok(StreamOut {
            campaign,
            queries,
            query_s,
        })
    }

    fn stats(&self, out: &StreamOut) -> RepStats {
        let mut digest = FNV_OFFSET;
        for run in &out.campaign.runs {
            digest = fnv1a(digest, run.outcome.summary.to_record().as_bytes());
        }
        for (ci, five) in &out.queries {
            for x in [
                ci.lower,
                ci.estimate,
                ci.upper,
                five.min,
                five.q1,
                five.q3,
                five.max,
            ] {
                digest = fnv1a(digest, &x.to_bits().to_le_bytes());
            }
        }
        RepStats {
            digest,
            samples: self.s.total_samples(),
            result_bytes: out
                .campaign
                .runs
                .iter()
                .map(|r| r.outcome.summary.resident_bytes() as u64)
                .sum(),
            attempted: out.campaign.runs.len() as u64,
            failed: out.campaign.unconverged().len() as u64,
        }
    }

    /// Replays every point in isolation: regenerates its stream (the
    /// measure layer) and pushes it into a fresh sketch (the sketch
    /// layer), which must reproduce the campaign's sketch bit for bit.
    fn layers(&mut self, out: &StreamOut, _: &Trace, wall_s: f64) -> Result<Layers, String> {
        let s = &self.s;
        let (mut measure_s, mut push_s) = (0.0, 0.0);
        let mut mismatched = Vec::new();
        let mut xs = Vec::with_capacity(s.n);
        for (idx, (point, run)) in s.points.iter().zip(&out.campaign.runs).enumerate() {
            let t = Instant::now();
            regenerate(s.seed, idx, point, s.n, &mut xs);
            measure_s += t.elapsed().as_secs_f64();
            let mut sketch = StreamingSummary::new(self.stream).map_err(|e| e.to_string())?;
            let t = Instant::now();
            for &x in &xs {
                sketch.push(x);
            }
            push_s += t.elapsed().as_secs_f64();
            if sketch.to_record() != run.outcome.summary.to_record() {
                mismatched.push(idx);
            }
        }
        let total = s.total_samples() as f64;
        let runs = &out.campaign.runs;
        Ok(Layers {
            explained_s: out.query_s,
            replayed: vec![
                Replayed::new("measure.share", measure_s, true)
                    .rate("measure.samples_per_s", total),
                Replayed::new("sketch.push_share", push_s, true).rate("sketch.push_per_s", total),
            ],
            values: vec![
                ("sketch.query_share", out.query_s / wall_s),
                (
                    "sketch.promotions",
                    runs.iter()
                        .filter(|r| !r.outcome.summary.is_exact())
                        .count() as f64,
                ),
                (
                    "sketch.resident_bytes",
                    runs.iter()
                        .map(|r| r.outcome.summary.resident_bytes() as f64)
                        .sum(),
                ),
            ],
            checks: vec![Check::new(
                "isolated sketch replay is bit-identical to the campaign's",
                mismatched.is_empty(),
                format!("mismatched points {mismatched:?}"),
            )],
        })
    }

    /// Sketch quantiles at p ∈ {0.5, 0.9, 0.99} must fall inside the exact
    /// p ± 0.01 rank window of the same streams.
    fn verify(&mut self, out: &StreamOut) -> Vec<Check> {
        let s = &self.s;
        let mut xs = Vec::with_capacity(s.n);
        let mut checks = Vec::new();
        for (idx, (point, run)) in s.points.iter().zip(&out.campaign.runs).enumerate() {
            regenerate(s.seed, idx, point, s.n, &mut xs);
            xs.sort_unstable_by(f64::total_cmp);
            let n = xs.len() as f64;
            let mut misses = Vec::new();
            for p in [0.5, 0.9, 0.99] {
                let q = run.outcome.summary.quantile(p).unwrap_or(f64::NAN);
                let lo = xs[((p - 0.01) * n).floor() as usize];
                let hi = xs[(((p + 0.01) * n).ceil() as usize).min(xs.len() - 1)];
                if !(lo <= q && q <= hi) {
                    misses.push(format!("p={p}: {q} outside [{lo}, {hi}]"));
                }
            }
            checks.push(Check::new(
                format!("point {idx} sketch quantiles within the exact ±0.01 rank window"),
                misses.is_empty(),
                misses.join("; "),
            ));
        }
        checks
    }
}

pub struct Vector {
    s: Setup,
}

pub struct VectorOut {
    campaign: CampaignResult,
    summaries: Vec<MeasurementSummary>,
    campaign_s: f64,
    summaries_s: f64,
}

impl Vector {
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        Ok(Self {
            s: Setup::new(seed, quick),
        })
    }
}

impl Workload for Vector {
    type Output = VectorOut;

    fn threads(&self) -> usize {
        THREADS
    }

    fn rep(&mut self, tracer: Option<&Tracer>) -> Result<VectorOut, String> {
        let s = &self.s;
        let (campaign, campaign_s) = timed(tracer, "campaign", || {
            run_campaign_traced(&s.design, &s.plan, &s.config, tracer, measure)
        });
        let campaign = campaign.map_err(|e| format!("vector campaign: {e}"))?;
        let (summaries, summaries_s) = timed(tracer, "summaries", || {
            campaign
                .summaries(0.95)
                .map(|v| v.into_iter().map(|(_, s)| s).collect::<Vec<_>>())
        });
        let summaries = summaries.map_err(|e| format!("summaries: {e}"))?;
        Ok(VectorOut {
            campaign,
            summaries,
            campaign_s,
            summaries_s,
        })
    }

    fn stats(&self, out: &VectorOut) -> RepStats {
        let mut digest = FNV_OFFSET;
        let mut bytes = 0u64;
        for run in &out.campaign.runs {
            for x in &run.outcome.samples {
                digest = fnv1a(digest, &x.to_bits().to_le_bytes());
            }
            bytes += 8 * run.outcome.samples.len() as u64;
        }
        for summary in &out.summaries {
            let five = &summary.five_number;
            for x in [
                five.min,
                five.q1,
                five.median,
                five.q3,
                five.max,
                summary.mean,
            ] {
                digest = fnv1a(digest, &x.to_bits().to_le_bytes());
            }
        }
        RepStats {
            digest,
            samples: self.s.total_samples(),
            result_bytes: bytes,
            attempted: out.campaign.runs.len() as u64,
            failed: out.campaign.unconverged().len() as u64,
        }
    }

    /// Replays every point in isolation: regenerates its stream (which must
    /// equal the campaign's samples bit for bit) and sorts it (the sort
    /// inside the summaries).
    fn layers(&mut self, out: &VectorOut, trace: &Trace, wall_s: f64) -> Result<Layers, String> {
        let s = &self.s;
        let (mut measure_s, mut sort_s) = (0.0, 0.0);
        let mut mismatched = Vec::new();
        for (idx, (point, run)) in s.points.iter().zip(&out.campaign.runs).enumerate() {
            let mut xs = Vec::with_capacity(s.n);
            let t = Instant::now();
            regenerate(s.seed, idx, point, s.n, &mut xs);
            measure_s += t.elapsed().as_secs_f64();
            if !bit_equal(&xs, &run.outcome.samples) {
                mismatched.push(idx);
            }
            let t = Instant::now();
            let sorted = SortedSamples::from_vec(xs).map_err(|e| e.to_string())?;
            sort_s += t.elapsed().as_secs_f64();
            std::hint::black_box(sorted);
        }
        let total = s.total_samples() as f64;
        let mut values = pool_layer(trace, THREADS, out.campaign_s);
        values.push(("summary.share", out.summaries_s / wall_s));
        Ok(Layers {
            explained_s: out.summaries_s,
            replayed: vec![
                Replayed::new("measure.share", measure_s, true)
                    .rate("measure.samples_per_s", total),
                // The sort is part of the summaries the ledger counts.
                Replayed::new("sorted.sort_share", sort_s, false).rate("sorted.sort_per_s", total),
            ],
            values,
            checks: vec![Check::new(
                "regenerated point streams equal the campaign's samples",
                mismatched.is_empty(),
                format!("mismatched points {mismatched:?}"),
            )],
        })
    }

    fn verify(&mut self, out: &VectorOut) -> Vec<Check> {
        let s = &self.s;
        let mut xs = Vec::with_capacity(s.n);
        let mismatched: Vec<usize> = (0..s.points.len())
            .filter(|&idx| {
                regenerate(s.seed, idx, &s.points[idx], s.n, &mut xs);
                !bit_equal(&xs, &out.campaign.runs[idx].outcome.samples)
            })
            .collect();
        vec![Check::new(
            "campaign samples equal the regenerated point streams",
            mismatched.is_empty(),
            format!("mismatched points {mismatched:?}"),
        )]
    }
}

fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
