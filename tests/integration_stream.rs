//! Streaming statistics end-to-end: bounded-memory million-sample
//! campaigns with bit-identical cross-thread / cross-shard merges.
//!
//! The acceptance properties under test (ISSUE):
//!
//! * a ≥ 10⁶-sample-per-point campaign runs in streaming mode with
//!   O(sketch) resident memory, and its quantiles stay within the
//!   sketch's rank-error bound of the exact answer, both analytic and
//!   from the vector campaign over the same draws;
//! * the campaign's keyed partials are **bit-identical** across thread
//!   counts {1, 2, 8} and shard partitions {1, 2, 4} — the disjoint key
//!   union plus canonical ascending fold removes the schedule from the
//!   result;
//! * sketch records (including NaN-bearing ones) round-trip through the
//!   crash-consistent journal bit-exactly and resume without
//!   re-measurement.

use std::path::PathBuf;

use proptest::prelude::*;

use scibench::experiment::stream::{
    run_campaign_stream, run_campaign_stream_journaled_subset, run_stream,
};
use scibench::experiment::{
    run_campaign, CampaignConfig, Design, Factor, JournalSpec, MeasurementPlan, RunPoint,
    StoppingRule,
};
use scibench::parallel::shard::{collect_stream_partials, shard_assignment, shard_journal_path};
use scibench_sim::rng::SimRng;
use scibench_stats::error::StatsResult;
use scibench_stats::quantile::QuantileMethod;
use scibench_stats::sketch::{KeyedPartials, MergeableSummary, StreamConfig, StreamingSummary};
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

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scibench-stream-itest-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

/// Unions shard partials in the given order: a disjoint-key union, so
/// the order must not change a bit.
fn merge_shards(
    shards: &[KeyedPartials<StreamingSummary>],
) -> StatsResult<KeyedPartials<StreamingSummary>> {
    let mut total = KeyedPartials::new();
    for shard in shards {
        total.merge_from(shard)?;
    }
    Ok(total)
}

/// Threads {1, 2, 8} × shards {1, 2, 4}: every execution shape must
/// produce the identical partials record, whether each shard's partials
/// come back from its runner and are unioned in-process, or are
/// collected from the shard journals ([`collect_stream_partials`]).
#[test]
fn partials_bit_identical_across_threads_and_shards() {
    let design = demo_design();
    let plan = fixed_plan(50_000);
    let stream_cfg = StreamConfig {
        threshold: 4096,
        ..StreamConfig::default()
    };
    let reference = run_campaign_stream(
        &design,
        &plan,
        &stream_cfg,
        &CampaignConfig {
            seed: SEED,
            threads: 1,
        },
        demo_measure,
    )
    .unwrap();
    let want = reference.partials.to_record();
    assert_eq!(reference.runs.len(), 4);
    for r in &reference.runs {
        assert!(!r.outcome.summary.is_exact(), "50k samples must promote");
    }

    for threads in [1usize, 2, 8] {
        let config = CampaignConfig {
            seed: SEED,
            threads,
        };
        let whole =
            run_campaign_stream(&design, &plan, &stream_cfg, &config, demo_measure).unwrap();
        assert_eq!(whole.partials.to_record(), want, "threads={threads}");

        for shards in [1usize, 2, 4] {
            // In-process sharding: strided partition, then union.
            let dir = tmp_dir(&format!("threads-{threads}-shards-{shards}"));
            let parts: Vec<KeyedPartials<StreamingSummary>> = (0..shards)
                .map(|s| {
                    let path = shard_journal_path(&dir, s);
                    run_campaign_stream_journaled_subset(
                        &design,
                        &plan,
                        &stream_cfg,
                        &config,
                        &JournalSpec {
                            path: &path,
                            code_version: "itest",
                            config_fingerprint: "stream",
                        },
                        &shard_assignment(4, shards, s),
                        demo_measure,
                    )
                    .unwrap()
                    .partials
                })
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            let merged = merge_shards(&parts).unwrap();
            assert_eq!(
                merged.to_record(),
                want,
                "threads={threads} shards={shards}"
            );
            // Union order must not matter.
            let reversed: Vec<_> = parts.into_iter().rev().collect();
            let merged = merge_shards(&reversed).unwrap();
            assert_eq!(merged.to_record(), want, "reversed shard merge");
        }
    }

    // Journal-mediated sharding: each shard writes sketches into its own
    // journal; the supervisor-side collector unions them bit-exactly.
    for shards in [2usize, 4] {
        let dir = tmp_dir(&format!("journal-shards-{shards}"));
        for s in 0..shards {
            let path = shard_journal_path(&dir, s);
            let spec = JournalSpec {
                path: &path,
                code_version: "itest",
                config_fingerprint: "stream",
            };
            run_campaign_stream_journaled_subset(
                &design,
                &plan,
                &stream_cfg,
                &CampaignConfig {
                    seed: SEED,
                    threads: 2,
                },
                &spec,
                &shard_assignment(4, shards, s),
                demo_measure,
            )
            .unwrap();
        }
        let collected = collect_stream_partials(&dir, shards).unwrap();
        assert_eq!(collected.to_record(), want, "journal shards={shards}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// NaN-bearing sketches survive the journal bit-exactly and resume
/// without re-measurement.
#[test]
fn nan_bearing_sketches_journal_round_trip() {
    let design = demo_design();
    let plan = fixed_plan(2_000);
    let stream_cfg = StreamConfig {
        threshold: 256,
        ..StreamConfig::default()
    };
    let config = CampaignConfig {
        seed: SEED ^ 0xff,
        threads: 2,
    };
    // Every 97th draw is non-finite: the quarantine counters must ride
    // through journal serialization with the rest of the sketch.
    let nan_measure = |point: &RunPoint, rng: &mut SimRng| {
        let x = demo_measure(point, rng);
        if ((x * 1e6) as u64).is_multiple_of(97) {
            f64::NAN
        } else {
            x
        }
    };
    let dir = tmp_dir("nan-journal");
    let path = dir.join("shard-0.journal");
    let spec = JournalSpec {
        path: &path,
        code_version: "itest",
        config_fingerprint: "stream-nan",
    };
    let all = [0usize, 1, 2, 3];
    let first = run_campaign_stream_journaled_subset(
        &design,
        &plan,
        &stream_cfg,
        &config,
        &spec,
        &all,
        nan_measure,
    )
    .unwrap();
    assert_eq!(first.resume.points_executed, 4);
    let quarantined = first.partials.non_finite_count();
    assert!(quarantined > 0, "the contamination must actually fire");
    assert_eq!(
        first.partials.count() + quarantined,
        4 * 2_000,
        "every draw is either folded or quarantined"
    );

    let second = run_campaign_stream_journaled_subset(
        &design,
        &plan,
        &stream_cfg,
        &config,
        &spec,
        &all,
        |_: &RunPoint, _: &mut SimRng| panic!("resume must not re-measure"),
    )
    .unwrap();
    assert_eq!(second.resume.points_resumed, 4);
    assert_eq!(second.partials.to_record(), first.partials.to_record());
    assert_eq!(second.partials.non_finite_count(), quarantined);

    // The raw wire form itself round-trips bit-exactly.
    for (_, summary) in second.partials.iter() {
        let record = summary.to_record();
        let back = StreamingSummary::from_record(&record).unwrap();
        assert_eq!(back.to_record(), record);
    }
    let _ = std::fs::remove_dir_all(&dir);
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

    /// Merge algebra: keyed unions are bit-commutative and
    /// bit-associative; direct summary merges are
    /// commutative/associative *in effect* — any merge tree over the
    /// same chunks yields quantiles within the rank-error bound.
    #[test]
    fn merges_are_order_independent(
        seed in 1u64..10_000,
        cut1 in 0.1f64..0.45,
        cut2 in 0.55f64..0.9,
    ) {
        let n = 9_000usize;
        let mut rng = SimRng::new(seed).fork("merge");
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let (a, b) = ((n as f64 * cut1) as usize, (n as f64 * cut2) as usize);
        let chunks = [&xs[..a], &xs[a..b], &xs[b..]];
        let summaries: Vec<StreamingSummary> = chunks
            .iter()
            .map(|c| {
                let mut s = StreamingSummary::new(StreamConfig {
                    threshold: 512,
                    ..StreamConfig::default()
                })
                .unwrap();
                for &x in *c {
                    s.push(x);
                }
                s
            })
            .collect();

        // Keyed union: any insertion order gives the same bits.
        let orders = [[0usize, 1, 2], [2, 1, 0], [1, 0, 2]];
        let records: Vec<String> = orders
            .iter()
            .map(|order| {
                let mut p: KeyedPartials<StreamingSummary> = KeyedPartials::new();
                for &i in order {
                    p.insert(i as u64, summaries[i].clone()).unwrap();
                }
                p.to_record()
            })
            .collect();
        prop_assert_eq!(&records[0], &records[1]);
        prop_assert_eq!(&records[0], &records[2]);

        // Direct merges: (a ⊕ b) ⊕ c versus a ⊕ (b ⊕ c) agree on the
        // count exactly and on quantiles within the rank bound.
        let mut left = summaries[0].clone();
        left.merge_from(&summaries[1]).unwrap();
        left.merge_from(&summaries[2]).unwrap();
        let mut right_tail = summaries[1].clone();
        right_tail.merge_from(&summaries[2]).unwrap();
        let mut right = summaries[0].clone();
        right.merge_from(&right_tail).unwrap();
        prop_assert_eq!(left.count(), n as u64);
        prop_assert_eq!(right.count(), n as u64);
        let sorted = SortedSamples::new(&xs).unwrap();
        for p in [0.25f64, 0.5, 0.75] {
            let lo = sorted.quantile(p - 0.02, QuantileMethod::Interpolated).unwrap();
            let hi = sorted.quantile(p + 0.02, QuantileMethod::Interpolated).unwrap();
            for (side, s) in [("left", &left), ("right", &right)] {
                let got = s.quantile(p).unwrap();
                prop_assert!(
                    lo <= got && got <= hi,
                    "{} q{} = {} outside [{}, {}]", side, p, got, lo, hi
                );
            }
        }
    }
}
