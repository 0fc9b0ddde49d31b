//! Campaign orchestration: a factorial [`Design`] executed through a
//! [`MeasurementPlan`] into an [`crate::report::ExperimentReport`].
//!
//! This is the piece that makes the library *a* benchmarking harness
//! rather than a box of parts: declare the factors, declare how to
//! measure one configuration, and the campaign runner handles randomized
//! execution order (§4.1.1), per-point adaptive measurement (§4.2.2),
//! deterministic seeding, and optional thread-parallel execution across
//! design points.
//!
//! Parallel execution is deterministic: every design point derives its
//! random stream from `(campaign seed, point index)`, and points execute
//! on the work-stealing pool of [`crate::parallel::pool`] whose output is
//! independent of scheduling — so results are bit-identical whether the
//! campaign runs on 1 thread or 16.
//!
//! Error semantics: all points run to completion (no early abort); if any
//! point fails, the error of the *lowest design index* is returned, and a
//! panicking measurement is re-raised after every other point finished.
//!
//! The vector, streaming ([`super::stream`]) and resilient
//! ([`super::resilience`]) runners are per-point bodies over one
//! crate-private executor defined here, which owns the order shuffle,
//! the per-point streams, pool dispatch, the journal's write-ahead hooks
//! and the design-order resolution of results.

use std::sync::Mutex;

use scibench_sim::rng::SimRng;
use scibench_stats::error::{StatsError, StatsResult};
use scibench_trace::{category, lane_of, ArgValue, Tracer};

use crate::obs;
use crate::parallel::pool;

use super::design::{Design, RunPoint};
use super::journal::{
    design_keys, Journal, JournalError, JournalKey, JournalMeta, JournalSpec, PointRecord,
};
use super::measurement::{MeasurementOutcome, MeasurementPlan, MeasurementSummary};
use super::resilience::{CampaignError, ResumeStats};

/// Configuration of a campaign run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Seed for order randomization and per-point streams.
    pub seed: u64,
    /// Worker threads (1 = sequential). Points are claimed dynamically
    /// from a work-stealing queue.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            threads: 1,
        }
    }
}

/// One executed design point.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// The factor levels of this run.
    pub point: RunPoint,
    /// The raw measurement outcome.
    pub outcome: MeasurementOutcome,
}

/// The executed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Executed runs, in design (full-factorial) order.
    pub runs: Vec<CampaignRun>,
}

impl CampaignResult {
    /// Summarizes every run at the given confidence level.
    ///
    /// Returns borrowed points: no `RunPoint` is cloned, and the first
    /// summarization error short-circuits before any tuple is built.
    pub fn summaries(&self, confidence: f64) -> StatsResult<Vec<(&RunPoint, MeasurementSummary)>> {
        self.runs
            .iter()
            .map(|r| {
                let summary = r.outcome.summarize(confidence)?;
                Ok((&r.point, summary))
            })
            .collect()
    }

    /// The runs whose adaptive stopping did not converge (these need
    /// attention before publication).
    pub fn unconverged(&self) -> Vec<&RunPoint> {
        self.runs
            .iter()
            .filter(|r| !r.outcome.converged)
            .map(|r| &r.point)
            .collect()
    }
}

/// Executes `design` with `plan` at every point.
///
/// `measure` maps `(point, rng)` to one measured cost; it is called
/// repeatedly per point under the plan's stopping rule. The function must
/// be `Sync` because points may execute on worker threads.
pub fn run_campaign<F>(
    design: &Design,
    plan: &MeasurementPlan,
    config: &CampaignConfig,
    measure: F,
) -> StatsResult<CampaignResult>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    run_campaign_traced(design, plan, config, None, measure)
}

/// [`run_campaign`] with optional tracing.
///
/// When `tracer` is `Some`, each design point records on its own lane
/// ([`obs::campaign_lane`]): one [`category::CAMPAIGN`] span covering
/// the point's whole measurement (with its design index, sample count,
/// convergence flag and factor levels as arguments) and one sample-count
/// counter — both deterministic for a fixed seed and design. Tracing
/// never touches the RNG streams or the measured values, so the result
/// is bit-identical to the untraced run at any thread count.
pub fn run_campaign_traced<F>(
    design: &Design,
    plan: &MeasurementPlan,
    config: &CampaignConfig,
    tracer: Option<&Tracer>,
    measure: F,
) -> StatsResult<CampaignResult>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    run_campaign_scoped_traced(
        design,
        plan,
        config,
        tracer,
        || (),
        |(), point, rng| measure(point, rng),
    )
}

/// [`run_campaign_traced`] with a per-worker scratch state.
///
/// `init` builds one private scratch value per pool lane (see
/// [`pool::run_indexed_scoped_traced`]); `measure` receives `&mut S`
/// alongside the point and its stream. This lets hot measurement loops
/// reuse per-lane arenas — e.g. a compiled-schedule replay context —
/// with no cross-thread sharing and no per-sample allocation. Results
/// stay bit-identical to [`run_campaign`] at any thread count as long as
/// the measured values do not depend on scratch contents carried across
/// points. Callers without a tracer pass `None`.
pub fn run_campaign_scoped_traced<S, I, F>(
    design: &Design,
    plan: &MeasurementPlan,
    config: &CampaignConfig,
    tracer: Option<&Tracer>,
    init: I,
    measure: F,
) -> StatsResult<CampaignResult>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &RunPoint, &mut SimRng) -> f64 + Sync,
{
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(StatsError::EmptySample);
    }
    let all: Vec<usize> = (0..points.len()).collect();
    let runs = execute_points(&all, config, tracer, None, init, |scratch, idx, mut rng| {
        let point = &points[idx];
        let mut lane = lane_of(tracer, obs::campaign_lane(idx));
        let span = lane.begin();
        let outcome = plan.run(|| measure(scratch, point, &mut rng));
        if lane.is_on() {
            let args = match &outcome {
                Ok(out) => {
                    lane.counter(category::CAMPAIGN, "samples", out.samples.len() as f64);
                    vec![
                        ("index", ArgValue::U64(idx as u64)),
                        ("samples", ArgValue::U64(out.samples.len() as u64)),
                        ("converged", ArgValue::Bool(out.converged)),
                        ("label", ArgValue::Str(point.levels.join("/"))),
                    ]
                }
                Err(e) => vec![
                    ("index", ArgValue::U64(idx as u64)),
                    ("failed", ArgValue::Bool(true)),
                    ("error", ArgValue::Str(e.to_string())),
                ],
            };
            lane.end(span, category::CAMPAIGN, "point", &args);
        }
        Ok(CampaignRun {
            point: point.clone(),
            outcome: outcome?,
        })
    })?;
    Ok(CampaignResult {
        runs: runs.into_iter().map(|(_, run)| run).collect(),
    })
}

/// Runs `body` once for every design index in `indices` on the pool —
/// the one point executor behind the vector, streaming and resilient
/// runners.
///
/// * Execution order is a `"campaign-order"` shuffle (§4.1.1), but each
///   point's stream is `fork_indexed("campaign-point", design index)`,
///   so no result depends on the order, the subset or the thread count.
/// * `init` builds one scratch value per pool lane; `tracer` records the
///   pool's task spans ([`pool::run_indexed_scoped_traced`]).
/// * With a `journal`, a `begin` frame precedes each point and the
///   point's record follows it, so a worker that dies leaves every
///   finished point on disk plus a dangling `begin` naming the point it
///   died on. The journal is synced once after the pool drains; the
///   first append or sync error waits in [`PointJournal::finish`].
/// * Results come back sorted by design index, and the lowest design
///   index decides which error is returned or which panic is re-raised —
///   after every point has run.
pub(crate) fn execute_points<S, T, E, I, F>(
    indices: &[usize],
    config: &CampaignConfig,
    tracer: Option<&Tracer>,
    journal: Option<&PointJournal<T>>,
    init: I,
    body: F,
) -> Result<Vec<(usize, T)>, E>
where
    S: Send,
    T: Send + Sync,
    E: Send + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, SimRng) -> Result<T, E> + Sync,
{
    let mut order = indices.to_vec();
    SimRng::new(config.seed)
        .fork("campaign-order")
        .shuffle(&mut order);
    let root = SimRng::new(config.seed);
    let positioned = pool::run_indexed_scoped_traced(
        order.len(),
        config.threads,
        tracer,
        init,
        |scratch, pos| {
            let idx = order[pos];
            if let Some(journal) = journal {
                journal.begin(idx);
            }
            let rng = root.fork_indexed("campaign-point", idx as u64);
            let out = body(scratch, idx, rng);
            if let (Some(journal), Ok(value)) = (journal, &out) {
                journal.point(idx, value);
            }
            out
        },
    );
    if let Some(journal) = journal {
        journal.sync();
    }
    // Un-shuffle into design order before resolving outcomes, so error
    // and panic precedence is by design index, not by execution order.
    let mut done: Vec<_> = order.into_iter().zip(positioned).collect();
    done.sort_by_key(|(idx, _)| *idx);
    done.into_iter()
        .map(|(idx, result)| match result {
            Ok(out) => out.map(|value| (idx, value)),
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

/// A campaign journal opened for [`execute_points`]' write-ahead hooks.
pub(crate) struct PointJournal<T> {
    /// The journal and the first error any append or sync hit; once an
    /// append fails nothing more is written, so no frame lands after a
    /// torn one.
    state: Mutex<(Journal, Option<JournalError>)>,
    /// Content-addressed key of every design point.
    keys: Vec<JournalKey>,
    /// The durable record of one finished point.
    record: fn(usize, JournalKey, &T) -> PointRecord,
}

impl<T> PointJournal<T> {
    /// Checks `indices` against the design, opens (or resumes) the
    /// journal at `spec.path` and hands every journaled record among
    /// `indices` to `replay`, which answers whether it stands in for the
    /// point. Returns the journal, the points still to execute and the
    /// resume bookkeeping.
    pub(crate) fn open(
        design: &Design,
        points: &[RunPoint],
        indices: &[usize],
        seed: u64,
        spec: &JournalSpec<'_>,
        record: fn(usize, JournalKey, &T) -> PointRecord,
        mut replay: impl FnMut(usize, &PointRecord) -> Result<bool, CampaignError>,
    ) -> Result<(Self, Vec<usize>, ResumeStats), CampaignError> {
        if let Some(&index) = indices.iter().find(|&&idx| idx >= points.len()) {
            return Err(CampaignError::BadPointIndex {
                index,
                points: points.len(),
            });
        }
        let meta = JournalMeta::new(design, seed, spec.code_version, spec.config_fingerprint);
        let keys = design_keys(&meta, points)?;
        let (journal, snapshot) = Journal::open_resume(spec.path, &meta)?;
        let mut missing = Vec::new();
        for &idx in indices {
            match snapshot.record_for(keys[idx]) {
                Some(record) if replay(idx, record)? => {}
                _ => missing.push(idx),
            }
        }
        let resume = ResumeStats {
            points_total: indices.len(),
            points_resumed: indices.len() - missing.len(),
            points_executed: missing.len(),
            torn_tail_dropped: snapshot.torn,
        };
        let journal = Self {
            state: Mutex::new((journal, None)),
            keys,
            record,
        };
        Ok((journal, missing, resume))
    }

    fn append(&self, frame: impl FnOnce(&mut Journal) -> Result<(), JournalError>) {
        let mut state = self.state.lock().expect("journal mutex");
        let (journal, failed) = &mut *state;
        if failed.is_none() {
            *failed = frame(journal).err();
        }
    }

    fn begin(&self, idx: usize) {
        self.append(|journal| journal.append_begin(idx, self.keys[idx]));
    }

    fn point(&self, idx: usize, value: &T) {
        let record = (self.record)(idx, self.keys[idx], value);
        self.append(|journal| journal.append_point(&record));
    }

    fn sync(&self) {
        self.append(Journal::sync);
    }

    /// The first append or sync error of the run, if any.
    pub(crate) fn finish(self) -> Result<(), JournalError> {
        match self.state.into_inner().expect("journal mutex").1 {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::design::Factor;
    use crate::experiment::measurement::StoppingRule;

    fn demo_design() -> Design {
        Design::new(vec![
            Factor::new("system", &["a", "b"]),
            Factor::numeric("size", &[8.0, 64.0, 512.0]),
        ])
    }

    fn demo_measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
        let base = if point.level(0) == "a" { 1.0 } else { 2.0 };
        let size: f64 = point.level(1).parse().unwrap();
        base + size * 0.001 + rng.uniform() * 0.01
    }

    #[test]
    fn campaign_covers_all_points_in_design_order() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(20));
        let result = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 1,
                threads: 1,
            },
            demo_measure,
        )
        .unwrap();
        assert_eq!(result.runs.len(), 6);
        assert_eq!(result.runs[0].point.levels, vec!["a", "8"]);
        assert_eq!(result.runs[5].point.levels, vec!["b", "512"]);
        assert!(result.unconverged().is_empty());
        for r in &result.runs {
            assert_eq!(r.outcome.samples.len(), 20);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(15));
        let seq = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 7,
                threads: 1,
            },
            demo_measure,
        )
        .unwrap();
        let par = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 7,
                threads: 4,
            },
            demo_measure,
        )
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn different_seeds_differ() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(5));
        let a = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 1,
                threads: 2,
            },
            demo_measure,
        )
        .unwrap();
        let b = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 2,
                threads: 2,
            },
            demo_measure,
        )
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn summaries_reflect_factor_effects() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(30));
        let result = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 3,
                threads: 2,
            },
            demo_measure,
        )
        .unwrap();
        let summaries = result.summaries(0.95).unwrap();
        // System "b" is slower than "a" at every size.
        for size in ["8", "64", "512"] {
            let mean_of = |sys: &str| {
                summaries
                    .iter()
                    .find(|(p, _)| p.level(0) == sys && p.level(1) == size)
                    .map(|(_, s)| s.mean)
                    .unwrap()
            };
            assert!(mean_of("b") > mean_of("a") + 0.5, "size {size}");
        }
    }

    #[test]
    fn adaptive_plans_work_in_campaigns() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMeanCi {
            confidence: 0.95,
            rel_error: 0.05,
            batch: 10,
            max_samples: 5_000,
        });
        let result = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 4,
                threads: 3,
            },
            demo_measure,
        )
        .unwrap();
        assert!(
            result.unconverged().is_empty(),
            "{:?}",
            result.unconverged()
        );
    }

    #[test]
    fn panicking_measurement_resurfaces_after_all_points_ran() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(3));
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(
                &demo_design(),
                &plan,
                &CampaignConfig {
                    seed: 6,
                    threads: 2,
                },
                |point, rng| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if point.level(1) == "64" {
                        panic!("driver bug at size 64");
                    }
                    demo_measure(point, rng)
                },
            )
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().unwrap();
        assert_eq!(*msg, "driver bug at size 64");
        // No early abort: the healthy points all executed their samples.
        assert!(ran.load(Ordering::SeqCst) >= 4 * 3 + 2);
    }

    #[test]
    fn traced_campaign_is_bit_identical_to_untraced() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(12));
        let config = CampaignConfig {
            seed: 9,
            threads: 1,
        };
        let plain = run_campaign(&demo_design(), &plan, &config, demo_measure).unwrap();
        for threads in [1, 2, 8] {
            let tracer = Tracer::new();
            let traced = run_campaign_traced(
                &demo_design(),
                &plan,
                &CampaignConfig { seed: 9, threads },
                Some(&tracer),
                demo_measure,
            )
            .unwrap();
            assert_eq!(plain, traced, "threads={threads}");
            let trace = tracer.drain();
            // One CAMPAIGN point span + one samples counter per point,
            // regardless of thread count.
            assert_eq!(trace.count(category::CAMPAIGN), 2 * 6, "threads={threads}");
            assert_eq!(trace.count(category::POOL), 6);
        }
    }

    #[test]
    fn traced_campaign_event_counts_deterministic_for_fixed_seed() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(8));
        let counts_for = |threads: usize| {
            let tracer = Tracer::new();
            run_campaign_traced(
                &demo_design(),
                &plan,
                &CampaignConfig { seed: 11, threads },
                Some(&tracer),
                demo_measure,
            )
            .unwrap();
            tracer.drain().deterministic_counts()
        };
        let seq = counts_for(1);
        let par = counts_for(4);
        assert_eq!(seq, par);
        assert!(seq.contains_key(category::CAMPAIGN));
        assert!(!seq.contains_key(category::SCHED));
    }

    #[test]
    fn scoped_campaign_is_bit_identical_to_plain() {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(12));
        let plain = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 13,
                threads: 1,
            },
            demo_measure,
        )
        .unwrap();
        for threads in [1, 2, 8] {
            let scoped = run_campaign_scoped_traced(
                &demo_design(),
                &plan,
                &CampaignConfig { seed: 13, threads },
                None,
                || Vec::<f64>::with_capacity(16),
                |arena, point, rng| {
                    // The arena is reused across samples and points but
                    // never influences the measured value.
                    arena.clear();
                    arena.push(rng.seed() as f64);
                    demo_measure(point, rng)
                },
            )
            .unwrap();
            assert_eq!(plain, scoped, "threads={threads}");
        }
    }

    #[test]
    fn failing_measurement_surfaces_error() {
        // A plan that cannot run (fixed count 0) propagates the error.
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(0));
        let err = run_campaign(
            &demo_design(),
            &plan,
            &CampaignConfig {
                seed: 5,
                threads: 2,
            },
            demo_measure,
        );
        assert!(err.is_err());
    }
}
