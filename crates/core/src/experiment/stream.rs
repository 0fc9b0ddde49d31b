//! Streaming campaign execution: bounded-memory measurement with
//! mergeable sketches instead of O(n) sample vectors.
//!
//! The classic campaign runner ([`super::campaign`]) keeps every sample
//! of every point in memory, which is the right default for the paper's
//! n ≈ 30–10⁴ regime but breaks down for million-sample-per-point
//! campaigns. This module runs the same §4 execution discipline —
//! the same executor and the same stopping-rule loop — while each point
//! folds its samples into a [`StreamingSummary`] (exact below an adaptive
//! threshold, t-digest + moments above it; see
//! `scibench_stats::sketch`).
//!
//! Determinism contract: a point's summary is built **sequentially by
//! exactly one worker** from its own RNG stream (keyed by design index),
//! so the summary's canonical record is a pure function of `(seed,
//! design, plan, stream config)`. Cross-worker and cross-shard
//! combination happens through [`KeyedPartials`] — a disjoint-key map
//! union folded in ascending design order — so campaign totals are
//! bit-identical at any thread count and any shard count.
//!
//! The journaled variant writes each point's sketch record (not its
//! samples) into the crash-consistent journal of [`super::journal`] as
//! soon as the point finishes, keeping resume state O(sketch) per point.

use scibench_sim::rng::SimRng;
use scibench_stats::error::{StatsError, StatsResult};
use scibench_stats::sketch::{KeyedPartials, MergeableSummary, StreamConfig, StreamingSummary};

use super::campaign::{execute_points, CampaignConfig, PointJournal};
use super::design::{Design, RunPoint};
use super::journal::{JournalKey, JournalSpec, PointRecord};
use super::measurement::{MeasurementPlan, SampleSink};
use super::resilience::{CampaignError, PointFate, ResumeStats};

/// The bounded-memory result of measuring one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Operation name (from the plan).
    pub name: String,
    /// Whether the adaptive stopping criterion was met (always true for
    /// fixed-count plans).
    pub converged: bool,
    /// Warmup iterations executed and discarded (values are not kept —
    /// that is the point of streaming).
    pub warmup_seen: u64,
    /// The streamed summary of every recorded sample.
    pub summary: StreamingSummary,
}

impl StreamOutcome {
    /// Recorded sample count (finite + quarantined non-finite).
    pub fn samples_seen(&self) -> u64 {
        self.summary.moments().count() + self.summary.moments().non_finite_count()
    }
}

impl SampleSink for StreamingSummary {
    /// The summary answers the median CI itself.
    type MedianCache = ();

    #[inline]
    fn push(&mut self, x: f64) {
        MergeableSummary::push(self, x);
    }

    fn median_ci_tight(&self, _: &mut (), confidence: f64, rel_error: f64) -> StatsResult<bool> {
        match self.median_ci(confidence) {
            Ok(ci) => Ok(ci.relative_half_width().is_some_and(|r| r <= rel_error)),
            Err(StatsError::TooFewSamples { .. }) | Err(StatsError::EmptySample) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Runs a measurement plan in streaming mode: same warmup and stopping
/// semantics as [`MeasurementPlan::run`], but samples fold into a
/// [`StreamingSummary`] instead of accumulating in a vector.
///
/// Both modes run the same stopping-rule loop, so they stop after the
/// *same number of calls* to `operation` for the same sample stream: the
/// mean rule replans from identical Welford moments, and the median
/// rule's CI check is bit-identical while the summary is exact (below
/// `stream.threshold`) and rank-error-bounded after promotion.
pub fn run_stream(
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    mut operation: impl FnMut() -> f64,
) -> StatsResult<StreamOutcome> {
    plan.validate()?;
    let mut summary = StreamingSummary::new(*stream)?;
    for _ in 0..plan.warmup_iterations {
        // Warmup executes and discards (§4.1.2); nothing is recorded.
        let _ = operation();
    }
    let converged = plan.stopping.sample(&mut summary, operation)?;
    Ok(StreamOutcome {
        name: plan.name.clone(),
        converged,
        warmup_seen: plan.warmup_iterations as u64,
        summary,
    })
}

/// One streamed design point.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRun {
    /// The factor levels of this run.
    pub point: RunPoint,
    /// The bounded-memory outcome.
    pub outcome: StreamOutcome,
}

/// The executed streaming campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCampaign {
    /// Executed runs, in design (full-factorial) order.
    pub runs: Vec<StreamRun>,
    /// The same summaries keyed by design index. Shards hand theirs over
    /// point by point, as each summary's record in their journals
    /// ([`crate::parallel::shard::collect_stream_partials`]), and the
    /// union is the same set. `partials.finalize()` is the canonical
    /// whole-campaign pool.
    pub partials: KeyedPartials<StreamingSummary>,
}

impl StreamCampaign {
    /// The runs whose adaptive stopping did not converge.
    pub fn unconverged(&self) -> Vec<&RunPoint> {
        self.runs
            .iter()
            .filter(|r| !r.outcome.converged)
            .map(|r| &r.point)
            .collect()
    }
}

/// Executes `design` with `plan` at every point in streaming mode.
///
/// Execution order is randomized (§4.1.1) and points run on the
/// work-stealing pool, but every point's RNG stream is keyed by its
/// *design* index and its summary is built sequentially by one worker —
/// so `partials` (and therefore every statistic derived from them) is
/// bit-identical at any thread count.
pub fn run_campaign_stream<F>(
    design: &Design,
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    config: &CampaignConfig,
    measure: F,
) -> StatsResult<StreamCampaign>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(StatsError::EmptySample);
    }
    let all: Vec<usize> = (0..points.len()).collect();
    let mut partials = KeyedPartials::new();
    let mut runs = Vec::with_capacity(points.len());
    for (idx, run) in stream_points(&points, &all, plan, stream, config, None, &measure)? {
        partials
            .insert(idx as u64, run.outcome.summary.clone())
            .expect("design indices are unique keys");
        runs.push(run);
    }
    Ok(StreamCampaign { runs, partials })
}

/// Resume statistics of a journaled streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResume {
    /// How many of the covered points were replayed from the journal
    /// and how many executed this run.
    pub resume: ResumeStats,
    /// The covered points' summaries, keyed by design index.
    pub partials: KeyedPartials<StreamingSummary>,
}

/// Executes the design points in `indices` in streaming mode with
/// crash-consistent journaling — the building block a shard worker runs
/// on its assigned partition. The union of all shards' partials is
/// bit-identical to [`run_campaign_stream`]'s `partials` on the full
/// design, regardless of how the points were partitioned.
///
/// Each point appends a `begin` frame before it runs and, once it
/// finishes, a [`PointRecord`] whose `sketch` field carries the
/// summary's canonical record (no sample vector — resume state stays
/// O(sketch) per point). A run that dies mid-campaign therefore keeps
/// every finished point, and leaves a dangling `begin` for the point it
/// died on. On restart, journaled sketches are decoded and replayed
/// bit-exactly instead of re-measuring.
pub fn run_campaign_stream_journaled_subset<F>(
    design: &Design,
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    config: &CampaignConfig,
    spec: &JournalSpec<'_>,
    indices: &[usize],
    measure: F,
) -> Result<StreamResume, CampaignError>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(CampaignError::EmptyDesign);
    }
    let mut partials = KeyedPartials::new();
    // Only a record carrying a sketch counts as streaming-complete; a
    // sample-mode record for the same key is re-measured.
    let (journal, missing, resume) = PointJournal::open(
        design,
        &points,
        indices,
        config.seed,
        spec,
        sketch_record,
        |idx, r| {
            let Some(sketch) = r.sketch.as_deref() else {
                return Ok(false);
            };
            partials.insert(idx as u64, StreamingSummary::from_record(sketch)?)?;
            Ok(true)
        },
    )?;
    let runs = stream_points(
        &points,
        &missing,
        plan,
        stream,
        config,
        Some(&journal),
        &measure,
    )?;
    journal.finish()?;
    for (idx, run) in runs {
        partials.insert(idx as u64, run.outcome.summary)?;
    }
    Ok(StreamResume { resume, partials })
}

/// The streaming per-point body over the shared executor: measures
/// `indices` into summaries, sorted by design index.
fn stream_points<F>(
    points: &[RunPoint],
    indices: &[usize],
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    config: &CampaignConfig,
    journal: Option<&PointJournal<StreamRun>>,
    measure: &F,
) -> StatsResult<Vec<(usize, StreamRun)>>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    execute_points(
        indices,
        config,
        None,
        journal,
        || (),
        |(), idx, mut rng| {
            let point = &points[idx];
            let outcome = run_stream(plan, stream, || measure(point, &mut rng))?;
            Ok(StreamRun {
                point: point.clone(),
                outcome,
            })
        },
    )
}

/// The journal record of one streamed point: its sketch, no samples.
fn sketch_record(index: usize, key: JournalKey, run: &StreamRun) -> PointRecord {
    PointRecord {
        index,
        key,
        levels: run.point.levels.clone(),
        fate: PointFate::Completed {
            attempts: 1,
            samples_dropped: 0,
        },
        panics_contained: 0,
        outcome: None,
        notes: Vec::new(),
        sketch: Some(run.outcome.summary.to_record()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::design::Factor;
    use crate::experiment::journal::Journal;
    use crate::experiment::measurement::StoppingRule;
    use scibench_stats::sketch::DEFAULT_STREAM_THRESHOLD;
    use scibench_stats::summary::OnlineMoments;

    fn demo_design() -> Design {
        Design::new(vec![
            Factor::new("system", &["a", "b"]),
            Factor::numeric("size", &[8.0, 64.0]),
        ])
    }

    fn demo_measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
        let base = if point.level(0) == "a" { 1.0 } else { 2.0 };
        base + rng.uniform() * 0.01
    }

    fn fixed_plan(n: usize) -> MeasurementPlan {
        MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(n))
    }

    #[test]
    fn stream_matches_vector_path_in_exact_regime() {
        // Below the threshold the streamed statistics must be
        // bit-identical to the vector path on the same sample stream.
        let plan = fixed_plan(200).warmup(3);
        let mut rng = SimRng::new(42).fork("x");
        let vector = plan.run(|| rng.uniform()).unwrap();
        let mut rng = SimRng::new(42).fork("x");
        let stream = run_stream(&plan, &StreamConfig::default(), || rng.uniform()).unwrap();
        assert!(stream.summary.is_exact());
        assert_eq!(stream.samples_seen(), 200);
        assert_eq!(stream.warmup_seen, 3);
        assert!(stream.converged);
        let sorted = scibench_stats::sorted::SortedSamples::new(&vector.samples).unwrap();
        assert_eq!(
            stream.summary.median().unwrap().to_bits(),
            sorted
                .quantile(0.5, scibench_stats::quantile::QuantileMethod::Interpolated)
                .unwrap()
                .to_bits()
        );
        assert_eq!(
            stream.summary.mean().unwrap().to_bits(),
            vector
                .samples
                .iter()
                .copied()
                .collect::<OnlineMoments>()
                .mean()
                .unwrap()
                .to_bits()
        );
    }

    #[test]
    fn adaptive_rules_converge_and_stop_like_the_vector_path() {
        for stopping in [
            StoppingRule::AdaptiveMeanCi {
                confidence: 0.95,
                rel_error: 0.05,
                batch: 16,
                max_samples: 4096,
            },
            StoppingRule::AdaptiveMedianCi {
                confidence: 0.95,
                rel_error: 0.05,
                batch: 16,
                max_samples: 4096,
            },
        ] {
            let plan = MeasurementPlan::new("op").stopping(stopping);
            let mut rng = SimRng::new(7).fork("adapt");
            let vector = plan.run(|| 1.0 + rng.uniform() * 0.2).unwrap();
            let mut rng = SimRng::new(7).fork("adapt");
            let stream = run_stream(&plan, &StreamConfig::default(), || {
                1.0 + rng.uniform() * 0.2
            })
            .unwrap();
            assert!(vector.converged && stream.converged, "{stopping:?}");
            // Exact regime: the stopping decision is bit-identical, so
            // both modes consumed the same number of samples.
            assert!(stream.summary.is_exact());
            assert_eq!(
                stream.samples_seen() as usize,
                vector.samples.len(),
                "{stopping:?}"
            );
        }
    }

    #[test]
    fn million_scale_point_stays_bounded() {
        // One design point, 50k samples with a threshold of 1024: the
        // summary must promote and stay O(sketch), not O(n).
        let plan = fixed_plan(50_000);
        let stream_cfg = StreamConfig {
            threshold: 1024,
            ..StreamConfig::default()
        };
        let mut rng = SimRng::new(3).fork("big");
        let out = run_stream(&plan, &stream_cfg, || rng.uniform()).unwrap();
        assert!(!out.summary.is_exact());
        assert_eq!(out.samples_seen(), 50_000);
        assert!(
            out.summary.resident_bytes() < 50_000 * 8 / 10,
            "resident {} bytes",
            out.summary.resident_bytes()
        );
        let median = out.summary.median().unwrap();
        assert!((median - 0.5).abs() < 0.02, "median {median}");
    }

    #[test]
    fn campaign_partials_are_bit_identical_across_thread_counts() {
        let plan = fixed_plan(500);
        let stream_cfg = StreamConfig {
            threshold: 128,
            ..StreamConfig::default()
        };
        let baseline = run_campaign_stream(
            &demo_design(),
            &plan,
            &stream_cfg,
            &CampaignConfig {
                seed: 11,
                threads: 1,
            },
            demo_measure,
        )
        .unwrap();
        assert_eq!(baseline.runs.len(), 4);
        assert!(baseline.unconverged().is_empty());
        let record = baseline.partials.to_record();
        for threads in [2, 8] {
            let par = run_campaign_stream(
                &demo_design(),
                &plan,
                &stream_cfg,
                &CampaignConfig { seed: 11, threads },
                demo_measure,
            )
            .unwrap();
            assert_eq!(par.partials.to_record(), record, "threads={threads}");
            assert_eq!(par.runs, baseline.runs, "threads={threads}");
        }
    }

    fn journal_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scibench-stream-journal-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sharded_union_matches_unsharded_campaign() {
        let plan = fixed_plan(300);
        let stream_cfg = StreamConfig {
            threshold: 64,
            ..StreamConfig::default()
        };
        let config = CampaignConfig {
            seed: 23,
            threads: 2,
        };
        let whole =
            run_campaign_stream(&demo_design(), &plan, &stream_cfg, &config, demo_measure).unwrap();
        let dir = journal_dir("sharded");
        for shards in [1usize, 2, 4] {
            let mut merged = KeyedPartials::new();
            for s in 0..shards {
                let path = dir.join(format!("{shards}-{s}.journal"));
                let mine: Vec<usize> = (0..4).filter(|i| i % shards == s).collect();
                let part = run_campaign_stream_journaled_subset(
                    &demo_design(),
                    &plan,
                    &stream_cfg,
                    &config,
                    &JournalSpec {
                        path: &path,
                        code_version: "test",
                        config_fingerprint: "stream",
                    },
                    &mine,
                    demo_measure,
                )
                .unwrap();
                merged.merge_from(&part.partials).unwrap();
            }
            assert_eq!(
                merged.to_record(),
                whole.partials.to_record(),
                "shards={shards}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_subset_writes_each_point_ahead_of_the_next() {
        // A measure that panics on one point must leave every finished
        // point in the journal, plus a dangling `begin` for the point it
        // died on — the strike the shard supervisor charges.
        let dir = journal_dir("write-ahead");
        let path = dir.join("stream.journal");
        let plan = fixed_plan(200);
        let stream_cfg = StreamConfig {
            threshold: 64,
            ..StreamConfig::default()
        };
        let config = CampaignConfig {
            seed: 31,
            threads: 1,
        };
        let spec = JournalSpec {
            path: &path,
            code_version: "test",
            config_fingerprint: "stream",
        };
        let all = [0usize, 1, 2, 3];
        let crashed = std::panic::catch_unwind(|| {
            run_campaign_stream_journaled_subset(
                &demo_design(),
                &plan,
                &stream_cfg,
                &config,
                &spec,
                &all,
                |point, rng| {
                    if point.levels == ["b", "8"] {
                        panic!("worker died");
                    }
                    demo_measure(point, rng)
                },
            )
        });
        assert!(crashed.is_err(), "the panic must reach the caller");
        let snapshot = Journal::load_or_empty(&path).unwrap();
        assert_eq!(snapshot.records.len(), 3);
        assert!(snapshot.records.values().all(|r| r.sketch.is_some()));
        assert_eq!(snapshot.dangling_begins.len(), 1);
        assert_eq!(snapshot.dangling_begins[0].0, 2);

        let resumed = run_campaign_stream_journaled_subset(
            &demo_design(),
            &plan,
            &stream_cfg,
            &config,
            &spec,
            &all,
            demo_measure,
        )
        .unwrap();
        assert_eq!(resumed.resume.points_resumed, 3);
        assert_eq!(resumed.resume.points_executed, 1);
        let whole =
            run_campaign_stream(&demo_design(), &plan, &stream_cfg, &config, demo_measure).unwrap();
        assert_eq!(resumed.partials.to_record(), whole.partials.to_record());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_subset_resumes_sketches_bit_exactly() {
        let dir =
            std::env::temp_dir().join(format!("scibench-stream-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.journal");
        let _ = std::fs::remove_file(&path);
        let plan = fixed_plan(400);
        let stream_cfg = StreamConfig {
            threshold: 64,
            ..StreamConfig::default()
        };
        let config = CampaignConfig {
            seed: 5,
            threads: 2,
        };
        let spec = JournalSpec {
            path: &path,
            code_version: "test",
            config_fingerprint: "stream",
        };
        let all = [0usize, 1, 2, 3];
        let first = run_campaign_stream_journaled_subset(
            &demo_design(),
            &plan,
            &stream_cfg,
            &config,
            &spec,
            &all,
            demo_measure,
        )
        .unwrap();
        assert_eq!(first.resume.points_executed, 4);
        assert_eq!(first.resume.points_resumed, 0);
        // Second run must replay all four sketches from the journal —
        // and a panicking measure proves nothing re-executed.
        let second = run_campaign_stream_journaled_subset(
            &demo_design(),
            &plan,
            &stream_cfg,
            &config,
            &spec,
            &all,
            |_, _| panic!("resume must not re-measure"),
        )
        .unwrap();
        assert_eq!(second.resume.points_resumed, 4);
        assert_eq!(second.resume.points_executed, 0);
        assert_eq!(
            second.partials.to_record(),
            first.partials.to_record(),
            "journal replay must be bit-exact"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn default_threshold_is_documented_adaptive_boundary() {
        // The adaptive exact/sketch boundary the docs promise.
        assert_eq!(StreamConfig::default().threshold, DEFAULT_STREAM_THRESHOLD);
    }
}
