//! A resilient campaign runner: retry, timeout and graceful degradation.
//!
//! [`super::campaign::run_campaign`] aborts the whole campaign on the
//! first error — the right behaviour for a clean simulator, but not for
//! measurements on faulty hardware (or a fault-injected simulation, see
//! [`scibench_sim::fault`]). This module runs the same factorial design
//! with a failure budget instead:
//!
//! * every design point is attempted up to [`RetryPolicy::max_attempts`]
//!   times, with exponential backoff charged in *simulated* time between
//!   attempts;
//! * a per-point budget of simulated time quarantines points that cannot
//!   finish ([`PointFate::TimedOut`]);
//! * individual failed samples inside an attempt are recorded as NaN and
//!   later dropped by the sanitizing summary — up to
//!   [`RetryPolicy::max_contamination`], beyond which the attempt is
//!   retried wholesale;
//! * panics in the measurement closure are contained with
//!   [`std::panic::catch_unwind`] and count as failed attempts;
//! * instead of propagating the first error, the runner returns every
//!   surviving outcome plus a [`CampaignHealth`] summary disclosing, per
//!   Rule 4, how many points completed, were retried, timed out or were
//!   abandoned, and how many samples were dropped.
//!
//! Determinism is preserved: every attempt draws from a stream forked
//! from `(campaign seed, design index, attempt index)`, so results are
//! identical at any thread count and fault schedules never depend on
//! scheduling.

use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scibench_sim::fault::SimFault;
use scibench_sim::rng::SimRng;
use scibench_stats::error::StatsResult;
use scibench_trace::{category, lane_of, ArgValue, Tracer};

use crate::obs;

use super::campaign::{execute_points, CampaignConfig, PointJournal};
use super::design::{Design, RunPoint};
use super::journal::{JournalError, JournalSpec, PointRecord};
use super::measurement::{MeasurementOutcome, MeasurementPlan, MeasurementSummary};

/// Why one invocation of the measurement closure failed.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureFailure {
    /// An injected simulator fault (crash, link failure, clock jump).
    Fault(SimFault),
    /// Any other failure, described as text.
    Failed(String),
}

impl From<SimFault> for MeasureFailure {
    fn from(fault: SimFault) -> Self {
        MeasureFailure::Fault(fault)
    }
}

impl fmt::Display for MeasureFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureFailure::Fault(fault) => write!(f, "{fault}"),
            MeasureFailure::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for MeasureFailure {}

/// Retry, backoff and budget knobs of the resilient runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per design point before it is abandoned (min 1).
    pub max_attempts: usize,
    /// Simulated-time backoff charged after the first failed attempt.
    pub backoff_base_ns: f64,
    /// Multiplier applied to the backoff after each further failure.
    pub backoff_factor: f64,
    /// Per-point budget of simulated time (measurement cost + backoff);
    /// `None` = unlimited. A point that exceeds it is quarantined as
    /// [`PointFate::TimedOut`].
    pub point_budget_ns: Option<f64>,
    /// Highest tolerated fraction of failed samples within one attempt.
    /// At or below it the attempt succeeds with the failures recorded as
    /// dropped samples; above it the whole attempt is retried.
    pub max_contamination: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_ns: 1e6,
            backoff_factor: 2.0,
            point_budget_ns: None,
            max_contamination: 0.25,
        }
    }
}

impl RetryPolicy {
    /// Hard ceiling on any single backoff charge (~31.7 simulated years):
    /// far beyond any realistic budget, yet finite so accumulated waits
    /// stay comparable.
    pub const BACKOFF_CAP_NS: f64 = 1e18;

    /// Sets the number of attempts.
    pub fn attempts(mut self, n: usize) -> Self {
        self.max_attempts = n;
        self
    }

    /// Sets the per-point simulated-time budget.
    pub fn budget_ns(mut self, ns: f64) -> Self {
        self.point_budget_ns = Some(ns);
        self
    }

    /// Sets the tolerated per-attempt contamination fraction.
    pub fn contamination(mut self, fraction: f64) -> Self {
        self.max_contamination = fraction;
        self
    }

    /// The simulated-time backoff charged after `failed_attempts`
    /// consecutive failures (1-based): `base · factor^(failed_attempts−1)`,
    /// saturated so no policy — however extreme — can ever charge a
    /// negative, NaN or unbounded wait:
    ///
    /// * a NaN or negative base or factor is treated as 0 / 1 (no
    ///   backoff growth) instead of poisoning the budget arithmetic;
    /// * the exponent and the product are clamped to
    ///   [`RetryPolicy::BACKOFF_CAP_NS`], so `factor.powi(huge)` cannot
    ///   overflow to `inf` and make every later budget comparison lie.
    pub fn backoff_ns(&self, failed_attempts: usize) -> f64 {
        if failed_attempts == 0 {
            return 0.0;
        }
        let base = if self.backoff_base_ns.is_nan() {
            0.0
        } else {
            self.backoff_base_ns.clamp(0.0, Self::BACKOFF_CAP_NS)
        };
        let factor = if self.backoff_factor.is_nan() || self.backoff_factor <= 0.0 {
            1.0
        } else {
            self.backoff_factor
        };
        let exponent = (failed_attempts - 1).min(i32::MAX as usize) as i32;
        let raw = base * factor.powi(exponent);
        if raw.is_nan() {
            0.0
        } else {
            raw.clamp(0.0, Self::BACKOFF_CAP_NS)
        }
    }
}

/// Adds simulated-time charges without ever producing NaN or `inf`:
/// the budget comparison `elapsed > budget` must stay meaningful even
/// after pathological measure costs.
fn saturating_add_ns(acc: f64, charge: f64) -> f64 {
    let sum = acc + charge.max(0.0);
    if sum.is_nan() {
        f64::MAX
    } else {
        sum.min(f64::MAX)
    }
}

/// What finally happened to one design point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointFate {
    /// The point produced a usable outcome.
    Completed {
        /// Attempts consumed (1 = first try).
        attempts: usize,
        /// Failed samples recorded as NaN inside the successful attempt
        /// (dropped later by the sanitizing summary).
        samples_dropped: usize,
    },
    /// The simulated-time budget ran out; the point is quarantined.
    TimedOut {
        /// Attempts consumed when the budget was exceeded.
        attempts: usize,
        /// Simulated time spent on the point, nanoseconds.
        elapsed_ns: f64,
    },
    /// Every attempt failed; the point is quarantined.
    Abandoned {
        /// Attempts consumed.
        attempts: usize,
        /// Description of the last failure (fault, panic or statistics
        /// error).
        last_error: String,
    },
}

impl PointFate {
    /// Whether the point produced a usable outcome.
    pub fn completed(&self) -> bool {
        matches!(self, PointFate::Completed { .. })
    }
}

/// One design point executed by the resilient runner.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientRun {
    /// The factor levels of this run.
    pub point: RunPoint,
    /// The surviving outcome; `None` when the point was quarantined.
    pub outcome: Option<MeasurementOutcome>,
    /// What happened to the point.
    pub fate: PointFate,
    /// Panics contained while attempting this point.
    pub panics_contained: usize,
}

/// Rule-4 disclosure of how the campaign fared.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignHealth {
    /// Design points in the campaign.
    pub points_total: usize,
    /// Points that produced a usable outcome.
    pub points_completed: usize,
    /// Completed points that needed more than one attempt.
    pub points_retried: usize,
    /// Points quarantined after exceeding their budget.
    pub points_timed_out: usize,
    /// Points quarantined after exhausting their attempts.
    pub points_abandoned: usize,
    /// Attempts consumed across all points.
    pub attempts_total: usize,
    /// Failed samples recorded (and later dropped) inside completed
    /// points.
    pub samples_dropped: usize,
    /// Panics contained by the runner.
    pub panics_contained: usize,
    /// Worker OS processes killed and respawned by the shard supervisor
    /// ([`crate::parallel::shard`]); always 0 for in-process runners.
    pub workers_respawned: usize,
    /// Points quarantined as poisoned after repeatedly crashing a worker
    /// process; always 0 for in-process runners. (Poisoned points are
    /// also counted in `points_abandoned`.)
    pub points_poisoned: usize,
}

impl CampaignHealth {
    /// Whether every point completed on its first attempt with no
    /// dropped samples and no contained panics.
    pub fn pristine(&self) -> bool {
        self.points_completed == self.points_total
            && self.points_retried == 0
            && self.samples_dropped == 0
            && self.panics_contained == 0
            && self.workers_respawned == 0
            && self.points_poisoned == 0
    }

    /// Renders the health summary as one disclosure line (Rule 4).
    pub fn render(&self) -> String {
        format!(
            "campaign health: {}/{} points completed ({} retried), \
             {} timed out, {} abandoned; {} attempts; \
             {} samples dropped; {} panics contained; \
             {} workers respawned; {} points poisoned",
            self.points_completed,
            self.points_total,
            self.points_retried,
            self.points_timed_out,
            self.points_abandoned,
            self.attempts_total,
            self.samples_dropped,
            self.panics_contained,
            self.workers_respawned,
            self.points_poisoned,
        )
    }
}

/// The executed resilient campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientCampaignResult {
    /// Executed runs, in design (full-factorial) order. Quarantined
    /// points are present with `outcome: None`.
    pub runs: Vec<ResilientRun>,
    /// The aggregated health disclosure.
    pub health: CampaignHealth,
}

impl ResilientCampaignResult {
    /// Summarizes every *surviving* run at the given confidence level;
    /// quarantined points are skipped.
    ///
    /// Returns borrowed points: no `RunPoint` is cloned, and the first
    /// summarization error short-circuits before any tuple is built.
    pub fn summaries(&self, confidence: f64) -> StatsResult<Vec<(&RunPoint, MeasurementSummary)>> {
        self.runs
            .iter()
            .filter_map(|r| r.outcome.as_ref().map(|o| (&r.point, o)))
            .map(|(point, o)| Ok((point, o.summarize(confidence)?)))
            .collect()
    }

    /// The quarantined points (timed out or abandoned).
    pub fn quarantined(&self) -> Vec<&RunPoint> {
        self.runs
            .iter()
            .filter(|r| r.outcome.is_none())
            .map(|r| &r.point)
            .collect()
    }
}

/// Errors of the resilient runner.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The design expands to zero points.
    EmptyDesign,
    /// Not a single design point produced a usable outcome; the health
    /// disclosure explains what happened.
    AllPointsFailed {
        /// The aggregated health of the failed campaign.
        health: CampaignHealth,
    },
    /// The campaign journal failed (I/O, corruption before the tail, or
    /// a stale journal that must not be reused).
    Journal(JournalError),
    /// A subset runner was given a design index outside the design.
    BadPointIndex {
        /// The offending index.
        index: usize,
        /// Number of points in the design.
        points: usize,
    },
    /// A streaming sketch operation failed (malformed record, mismatched
    /// sketch configuration across merge partners).
    Stats(scibench_stats::StatsError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::EmptyDesign => write!(f, "design expands to zero points"),
            CampaignError::AllPointsFailed { health } => {
                write!(f, "no design point survived: {}", health.render())
            }
            CampaignError::Journal(err) => write!(f, "campaign journal error: {err}"),
            CampaignError::BadPointIndex { index, points } => {
                write!(f, "design index {index} out of range ({points} points)")
            }
            CampaignError::Stats(err) => write!(f, "streaming sketch error: {err}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(err: JournalError) -> Self {
        CampaignError::Journal(err)
    }
}

impl From<scibench_stats::StatsError> for CampaignError {
    fn from(err: scibench_stats::StatsError) -> Self {
        CampaignError::Stats(err)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Executes `design` with `plan` at every point, tolerating failures per
/// `policy`.
///
/// `measure` maps `(point, rng)` to the cost of one execution or a
/// [`MeasureFailure`]. Failed samples inside an attempt are recorded as
/// NaN and surface as dropped samples in the sanitizing summary (which
/// then withholds the parametric mean CI); attempts whose contamination
/// exceeds [`RetryPolicy::max_contamination`] — and attempts that panic
/// or fail their adaptive stopping rule — are retried with exponential
/// backoff until the point's budget or attempt count runs out. The
/// function must be `Sync` because points may execute on worker threads.
///
/// Returns [`CampaignError::AllPointsFailed`] only when *no* point
/// survives; any partial campaign is returned with its
/// [`CampaignHealth`] disclosure.
pub fn run_campaign_resilient<F>(
    design: &Design,
    plan: &MeasurementPlan,
    config: &CampaignConfig,
    policy: &RetryPolicy,
    measure: F,
) -> Result<ResilientCampaignResult, CampaignError>
where
    F: Fn(&RunPoint, &mut SimRng) -> Result<f64, MeasureFailure> + Sync,
{
    run_campaign_resilient_traced(design, plan, config, policy, None, measure)
}

/// [`run_campaign_resilient`] with optional tracing.
///
/// When `tracer` is `Some`, each design point records on its own lane
/// ([`obs::campaign_lane`]): a [`category::RESILIENCE`] span per point
/// and per attempt, instants for retries (with the charged backoff),
/// timeouts, abandonments and contained panics, a dropped-sample
/// counter, and one [`category::FAULT`] instant per failed measurement
/// call. All of these derive from the seeded RNG streams, so their
/// counts are deterministic for a fixed seed; tracing itself never
/// touches the streams, keeping results bit-identical to the untraced
/// runner at any thread count.
pub fn run_campaign_resilient_traced<F>(
    design: &Design,
    plan: &MeasurementPlan,
    config: &CampaignConfig,
    policy: &RetryPolicy,
    tracer: Option<&Tracer>,
    measure: F,
) -> Result<ResilientCampaignResult, CampaignError>
where
    F: Fn(&RunPoint, &mut SimRng) -> Result<f64, MeasureFailure> + Sync,
{
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(CampaignError::EmptyDesign);
    }
    let all: Vec<usize> = (0..points.len()).collect();
    let attempts = Attempts {
        plan,
        policy,
        tracer,
        measure: &measure,
    };
    let runs = attempts.execute(&points, &all, config, None);
    finish_campaign(runs.into_iter().map(|(_, run)| run).collect())
}

/// Folds executed runs into the Rule-4 health disclosure.
pub(crate) fn health_of(runs: &[ResilientRun]) -> CampaignHealth {
    let mut health = CampaignHealth {
        points_total: runs.len(),
        ..CampaignHealth::default()
    };
    for run in runs {
        health.panics_contained += run.panics_contained;
        match &run.fate {
            PointFate::Completed {
                attempts,
                samples_dropped,
            } => {
                health.points_completed += 1;
                if *attempts > 1 {
                    health.points_retried += 1;
                }
                health.attempts_total += attempts;
                health.samples_dropped += samples_dropped;
            }
            PointFate::TimedOut { attempts, .. } => {
                health.points_timed_out += 1;
                health.attempts_total += attempts;
            }
            PointFate::Abandoned { attempts, .. } => {
                health.points_abandoned += 1;
                health.attempts_total += attempts;
            }
        }
    }
    health
}

/// Wraps runs (in design order) into the campaign result, failing with
/// [`CampaignError::AllPointsFailed`] when nothing survived.
pub(crate) fn finish_campaign(
    runs: Vec<ResilientRun>,
) -> Result<ResilientCampaignResult, CampaignError> {
    let health = health_of(&runs);
    if health.points_completed == 0 {
        return Err(CampaignError::AllPointsFailed { health });
    }
    Ok(ResilientCampaignResult { runs, health })
}

/// The resilient runner's per-point body: `plan` under `policy`, with
/// failed samples, panics and budget overruns handled per attempt.
/// Attempt `k` draws from the point's stream forked by `k`, so a point's
/// run never depends on which subset, order or thread ran it.
struct Attempts<'a, F> {
    plan: &'a MeasurementPlan,
    policy: &'a RetryPolicy,
    tracer: Option<&'a Tracer>,
    measure: &'a F,
}

impl<F> Attempts<'_, F>
where
    F: Fn(&RunPoint, &mut SimRng) -> Result<f64, MeasureFailure> + Sync,
{
    /// Runs `indices` on the shared executor, appending each finished
    /// point to `journal` when given. Returns `(design index, run)` pairs
    /// sorted by design index. A point never fails — panics in `measure`
    /// are contained per attempt — so a panic that still reaches the pool
    /// is runner infrastructure and is re-raised.
    fn execute(
        &self,
        points: &[RunPoint],
        indices: &[usize],
        config: &CampaignConfig,
        journal: Option<&PointJournal<ResilientRun>>,
    ) -> Vec<(usize, ResilientRun)> {
        let Ok(runs) = execute_points(
            indices,
            config,
            self.tracer,
            journal,
            || (),
            |(), idx, rng| Ok::<_, Infallible>(self.run(&points[idx], idx, rng)),
        );
        runs
    }

    /// Attempts one design point until it completes, runs out of
    /// attempts or exceeds its budget.
    fn run(&self, point: &RunPoint, design_idx: usize, point_root: SimRng) -> ResilientRun {
        let (plan, policy) = (self.plan, self.policy);
        let max_attempts = policy.max_attempts.max(1);
        let budget = policy.point_budget_ns.unwrap_or(f64::INFINITY);
        let elapsed = Cell::new(0.0f64);
        let mut attempts = 0usize;
        let mut panics_contained = 0usize;
        let mut timed_out = false;
        let mut last_error = String::from("no attempt made");
        // The lane is borrowed both inside the measurement closure (fault
        // instants) and between attempts, so it lives in a RefCell like
        // the rest of the per-attempt bookkeeping.
        let lane = RefCell::new(lane_of(self.tracer, obs::campaign_lane(design_idx)));
        let point_span = lane.borrow().begin();

        while attempts < max_attempts {
            let attempt_idx = attempts as u64;
            attempts += 1;
            let mut rng = point_root.fork_indexed("campaign-attempt", attempt_idx);
            let attempt_span = lane.borrow().begin();
            // Per-attempt bookkeeping lives in cells so it stays readable
            // after a contained panic.
            let calls = Cell::new(0usize);
            let recorded_failures = Cell::new(0usize);
            let overran = Cell::new(false);
            let first_error: RefCell<Option<String>> = RefCell::new(None);

            let attempt = catch_unwind(AssertUnwindSafe(|| {
                plan.run(|| {
                    let call_idx = calls.get();
                    calls.set(call_idx + 1);
                    if elapsed.get() > budget {
                        overran.set(true);
                        return f64::NAN;
                    }
                    match (self.measure)(point, &mut rng) {
                        Ok(cost) => {
                            elapsed.set(saturating_add_ns(elapsed.get(), cost));
                            cost
                        }
                        Err(e) => {
                            {
                                let mut l = lane.borrow_mut();
                                if l.is_on() {
                                    l.instant(
                                        category::FAULT,
                                        "measure-failure",
                                        &[
                                            ("call", ArgValue::U64(call_idx as u64)),
                                            ("error", ArgValue::Str(e.to_string())),
                                        ],
                                    );
                                }
                            }
                            // Warmup failures cost nothing statistically;
                            // only recorded samples count as contaminated.
                            if call_idx >= plan.warmup_iterations {
                                recorded_failures.set(recorded_failures.get() + 1);
                            }
                            if first_error.borrow().is_none() {
                                *first_error.borrow_mut() = Some(e.to_string());
                            }
                            f64::NAN
                        }
                    }
                })
            }));

            {
                let mut l = lane.borrow_mut();
                l.end(
                    attempt_span,
                    category::RESILIENCE,
                    "attempt",
                    &[
                        ("attempt", ArgValue::U64(attempt_idx)),
                        ("ok", ArgValue::Bool(matches!(&attempt, Ok(Ok(_))))),
                    ],
                );
                if attempt.is_err() {
                    l.instant(
                        category::RESILIENCE,
                        "panic-contained",
                        &[("attempt", ArgValue::U64(attempt_idx))],
                    );
                }
            }

            match attempt {
                Err(payload) => {
                    panics_contained += 1;
                    last_error = format!("panicked: {}", panic_message(&*payload));
                }
                Ok(Err(stats_err)) => {
                    if overran.get() {
                        timed_out = true;
                        break;
                    }
                    last_error = first_error
                        .into_inner()
                        .unwrap_or_else(|| stats_err.to_string());
                }
                Ok(Ok(outcome)) => {
                    if overran.get() {
                        timed_out = true;
                        break;
                    }
                    let recorded = outcome.samples.len();
                    let failures = recorded_failures.get();
                    if recorded > 0 && failures as f64 <= policy.max_contamination * recorded as f64
                    {
                        {
                            let mut l = lane.borrow_mut();
                            if l.is_on() {
                                l.counter(category::RESILIENCE, "samples-dropped", failures as f64);
                                l.end(
                                    point_span,
                                    category::RESILIENCE,
                                    "point",
                                    &[
                                        ("index", ArgValue::U64(design_idx as u64)),
                                        ("fate", ArgValue::Str("completed".to_string())),
                                        ("attempts", ArgValue::U64(attempts as u64)),
                                    ],
                                );
                            }
                        }
                        return ResilientRun {
                            point: point.clone(),
                            outcome: Some(outcome),
                            fate: PointFate::Completed {
                                attempts,
                                samples_dropped: failures,
                            },
                            panics_contained,
                        };
                    }
                    last_error = first_error
                        .into_inner()
                        .unwrap_or_else(|| format!("{failures} of {recorded} samples failed"));
                }
            }

            // Exponential backoff charged against the simulated budget
            // (saturated: see [`RetryPolicy::backoff_ns`]).
            if attempts < max_attempts {
                let backoff = policy.backoff_ns(attempts);
                lane.borrow_mut().instant(
                    category::RESILIENCE,
                    "retry",
                    &[
                        ("attempt", ArgValue::U64(attempts as u64)),
                        ("backoff_ns", ArgValue::F64(backoff)),
                    ],
                );
                elapsed.set(saturating_add_ns(elapsed.get(), backoff));
                if elapsed.get() > budget {
                    timed_out = true;
                    break;
                }
            }
        }

        {
            let mut l = lane.borrow_mut();
            if l.is_on() {
                let fate_name = if timed_out { "timeout" } else { "abandoned" };
                l.instant(
                    category::RESILIENCE,
                    fate_name,
                    &[("attempts", ArgValue::U64(attempts as u64))],
                );
                l.end(
                    point_span,
                    category::RESILIENCE,
                    "point",
                    &[
                        ("index", ArgValue::U64(design_idx as u64)),
                        ("fate", ArgValue::Str(fate_name.to_string())),
                        ("attempts", ArgValue::U64(attempts as u64)),
                    ],
                );
            }
        }
        let fate = if timed_out {
            PointFate::TimedOut {
                attempts,
                elapsed_ns: elapsed.get(),
            }
        } else {
            PointFate::Abandoned {
                attempts,
                last_error,
            }
        };
        ResilientRun {
            point: point.clone(),
            outcome: None,
            fate,
            panics_contained,
        }
    }
}

/// Resume bookkeeping of a journaled campaign — deliberately *separate*
/// from [`CampaignHealth`]: how a result was obtained (fresh vs resumed)
/// must not leak into the result itself, or an interrupted-then-resumed
/// campaign could no longer be bit-identical to an uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeStats {
    /// Design points the runner was responsible for.
    pub points_total: usize,
    /// Points skipped because the journal already held their result.
    pub points_resumed: usize,
    /// Points actually executed (and appended) by this process.
    pub points_executed: usize,
    /// Whether a torn trailing record from a crash was truncated away.
    pub torn_tail_dropped: bool,
}

/// A journaled campaign: the (resume-invariant) result plus the resume
/// bookkeeping of this particular process.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledCampaign {
    /// The campaign result — bit-identical whether the campaign ran
    /// uninterrupted or was killed and resumed any number of times.
    pub result: ResilientCampaignResult,
    /// How much of it was replayed from the journal.
    pub resume: ResumeStats,
}

/// [`run_campaign_resilient`] with a crash-consistent write-ahead log.
///
/// Every completed design point is appended to the journal at `spec.path`
/// (created on first run); on restart, points whose content-addressed key
/// is already journaled are *not* re-executed — their recorded runs are
/// replayed bit-exactly — and only the missing points run. Because every
/// point's RNG stream is a pure function of `(seed, design index)`, the
/// merged result is bit-identical to an uninterrupted campaign at any
/// thread count and any number of kill/resume cycles.
///
/// A torn trailing record (the append in flight when the process died)
/// is truncated and re-executed; a corrupt frame elsewhere, or a journal
/// written by a different code version / config / seed / design, fails
/// with [`CampaignError::Journal`] instead of silently mixing results.
pub fn run_campaign_resilient_journaled<F>(
    design: &Design,
    plan: &MeasurementPlan,
    config: &CampaignConfig,
    policy: &RetryPolicy,
    spec: &JournalSpec<'_>,
    measure: F,
) -> Result<JournaledCampaign, CampaignError>
where
    F: Fn(&RunPoint, &mut SimRng) -> Result<f64, MeasureFailure> + Sync,
{
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(CampaignError::EmptyDesign);
    }
    let all: Vec<usize> = (0..points.len()).collect();
    let attempts = Attempts {
        plan,
        policy,
        tracer: None,
        measure: &measure,
    };
    let mut slots: Vec<Option<ResilientRun>> = vec![None; points.len()];
    let (journal, missing, resume) = PointJournal::open(
        design,
        &points,
        &all,
        config.seed,
        spec,
        PointRecord::from_run,
        |idx, record| {
            slots[idx] = Some(record.clone().into_run());
            Ok(true)
        },
    )?;
    for (idx, run) in attempts.execute(&points, &missing, config, Some(&journal)) {
        slots[idx] = Some(run);
    }
    journal.finish()?;
    let runs: Vec<ResilientRun> = slots
        .into_iter()
        .map(|s| s.expect("every design point journaled or executed"))
        .collect();
    Ok(JournaledCampaign {
        result: finish_campaign(runs)?,
        resume,
    })
}

/// Executes only the design points in `indices` (the ones not yet in the
/// journal), appending each to the journal at `spec.path` — the building
/// block a sharded worker process runs on its assigned partition.
///
/// Unlike [`run_campaign_resilient_journaled`] this performs no
/// completeness check and returns only the [`ResumeStats`]; the results
/// themselves live in the journal, where the supervisor merges them.
pub fn run_campaign_resilient_journaled_subset<F>(
    design: &Design,
    plan: &MeasurementPlan,
    config: &CampaignConfig,
    policy: &RetryPolicy,
    spec: &JournalSpec<'_>,
    indices: &[usize],
    measure: F,
) -> Result<ResumeStats, CampaignError>
where
    F: Fn(&RunPoint, &mut SimRng) -> Result<f64, MeasureFailure> + Sync,
{
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(CampaignError::EmptyDesign);
    }
    let attempts = Attempts {
        plan,
        policy,
        tracer: None,
        measure: &measure,
    };
    let (journal, missing, resume) = PointJournal::open(
        design,
        &points,
        indices,
        config.seed,
        spec,
        PointRecord::from_run,
        |_, _| Ok(true),
    )?;
    attempts.execute(&points, &missing, config, Some(&journal));
    journal.finish()?;
    Ok(resume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::design::Factor;
    use crate::experiment::measurement::StoppingRule;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn demo_design() -> Design {
        Design::new(vec![
            Factor::new("system", &["a", "b"]),
            Factor::numeric("size", &[8.0, 64.0]),
        ])
    }

    fn fixed_plan(n: usize) -> MeasurementPlan {
        MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(n))
    }

    fn clean_measure(point: &RunPoint, rng: &mut SimRng) -> Result<f64, MeasureFailure> {
        let base = if point.level(0) == "a" { 1.0 } else { 2.0 };
        Ok(base + rng.uniform() * 0.01)
    }

    #[test]
    fn fault_free_campaign_is_pristine() {
        let result = run_campaign_resilient(
            &demo_design(),
            &fixed_plan(20),
            &CampaignConfig {
                seed: 1,
                threads: 1,
            },
            &RetryPolicy::default(),
            clean_measure,
        )
        .unwrap();
        assert_eq!(result.runs.len(), 4);
        assert!(result.health.pristine(), "{}", result.health.render());
        assert_eq!(result.health.attempts_total, 4);
        assert!(result.quarantined().is_empty());
        for r in &result.runs {
            assert!(matches!(
                r.fate,
                PointFate::Completed {
                    attempts: 1,
                    samples_dropped: 0
                }
            ));
        }
        assert_eq!(result.summaries(0.95).unwrap().len(), 4);
    }

    #[test]
    fn failing_first_attempt_is_retried() {
        let calls = AtomicUsize::new(0);
        let result = run_campaign_resilient(
            &Design::new(vec![Factor::new("only", &["x"])]),
            &fixed_plan(10),
            &CampaignConfig {
                seed: 2,
                threads: 1,
            },
            &RetryPolicy::default(),
            |_point, _rng| {
                // The whole first attempt (10 samples) fails; the second
                // succeeds.
                if calls.fetch_add(1, Ordering::SeqCst) < 10 {
                    Err(MeasureFailure::Failed("transient".into()))
                } else {
                    Ok(1.0)
                }
            },
        )
        .unwrap();
        assert_eq!(result.runs.len(), 1);
        assert!(matches!(
            result.runs[0].fate,
            PointFate::Completed {
                attempts: 2,
                samples_dropped: 0
            }
        ));
        assert_eq!(result.health.points_retried, 1);
        assert_eq!(result.health.attempts_total, 2);
    }

    #[test]
    fn tolerated_contamination_survives_and_degrades_summary() {
        let result = run_campaign_resilient(
            &Design::new(vec![Factor::new("only", &["x"])]),
            &fixed_plan(100),
            &CampaignConfig {
                seed: 3,
                threads: 1,
            },
            &RetryPolicy::default().contamination(0.2),
            |_point, rng| {
                if rng.uniform() < 0.05 {
                    Err(SimFault::NodeCrashed {
                        node: 0,
                        at_ns: 0.0,
                    }
                    .into())
                } else {
                    Ok(1.0 + rng.uniform() * 0.1)
                }
            },
        )
        .unwrap();
        let run = &result.runs[0];
        let dropped = match run.fate {
            PointFate::Completed {
                samples_dropped, ..
            } => samples_dropped,
            ref other => panic!("unexpected fate {other:?}"),
        };
        assert!(dropped > 0, "5% failure rate never fired in 100 samples");
        assert_eq!(result.health.samples_dropped, dropped);
        let (_, summary) = &result.summaries(0.95).unwrap()[0];
        assert_eq!(summary.samples_dropped, dropped);
        assert_eq!(summary.n, 100 - dropped);
        assert!(!summary.mean_ci_valid);
        assert!(summary.median_ci.is_some());
    }

    #[test]
    fn budget_exhaustion_quarantines_the_point() {
        let design = Design::new(vec![Factor::new("node", &["slow", "fast"])]);
        let result = run_campaign_resilient(
            &design,
            &fixed_plan(10),
            &CampaignConfig {
                seed: 4,
                threads: 1,
            },
            &RetryPolicy::default().budget_ns(5e8),
            |point, rng| {
                if point.level(0) == "slow" {
                    Ok(1e9) // one sample blows the budget
                } else {
                    Ok(100.0 + rng.uniform())
                }
            },
        )
        .unwrap();
        assert_eq!(result.health.points_timed_out, 1);
        assert_eq!(result.health.points_completed, 1);
        let slow = result
            .runs
            .iter()
            .find(|r| r.point.level(0) == "slow")
            .unwrap();
        assert!(slow.outcome.is_none());
        assert!(matches!(slow.fate, PointFate::TimedOut { .. }));
        assert_eq!(result.quarantined().len(), 1);
        // Summaries skip the quarantined point.
        assert_eq!(result.summaries(0.95).unwrap().len(), 1);
    }

    #[test]
    fn backoff_is_charged_against_the_budget() {
        let result = run_campaign_resilient(
            &Design::new(vec![Factor::new("only", &["x"])]),
            &fixed_plan(5),
            &CampaignConfig {
                seed: 5,
                threads: 1,
            },
            &RetryPolicy {
                max_attempts: 100,
                backoff_base_ns: 1e9,
                backoff_factor: 2.0,
                point_budget_ns: Some(3e9),
                max_contamination: 0.0,
            },
            |_point, _rng| Err::<f64, _>(MeasureFailure::Failed("always".into())),
        );
        // Backoff (1e9, then 2e9) exceeds the 3e9 budget after two
        // failed attempts: timeout, not 100 attempts of abandonment.
        let err = result.unwrap_err();
        match err {
            CampaignError::AllPointsFailed { health } => {
                assert_eq!(health.points_timed_out, 1);
                assert!(health.attempts_total < 10, "{}", health.render());
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn all_points_failed_is_a_typed_error() {
        let err = run_campaign_resilient(
            &demo_design(),
            &fixed_plan(5),
            &CampaignConfig {
                seed: 6,
                threads: 2,
            },
            &RetryPolicy::default().attempts(2),
            |_point, _rng| {
                Err::<f64, _>(
                    SimFault::NodeCrashed {
                        node: 3,
                        at_ns: 1.0,
                    }
                    .into(),
                )
            },
        )
        .unwrap_err();
        match err {
            CampaignError::AllPointsFailed { health } => {
                assert_eq!(health.points_abandoned, 4);
                assert_eq!(health.points_completed, 0);
                assert_eq!(health.attempts_total, 8);
                assert!(health.render().contains("0/4 points completed"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn panics_are_contained_and_reported() {
        let design = Design::new(vec![Factor::new("mode", &["ok", "boom"])]);
        let result = run_campaign_resilient(
            &design,
            &fixed_plan(10),
            &CampaignConfig {
                seed: 7,
                threads: 1,
            },
            &RetryPolicy::default().attempts(2),
            |point, rng| {
                if point.level(0) == "boom" {
                    panic!("injected panic");
                }
                Ok(1.0 + rng.uniform())
            },
        )
        .unwrap();
        assert_eq!(result.health.points_completed, 1);
        assert_eq!(result.health.points_abandoned, 1);
        assert_eq!(result.health.panics_contained, 2);
        let boom = result
            .runs
            .iter()
            .find(|r| r.point.level(0) == "boom")
            .unwrap();
        match &boom.fate {
            PointFate::Abandoned { last_error, .. } => {
                assert!(last_error.contains("injected panic"), "{last_error}");
            }
            other => panic!("unexpected fate {other:?}"),
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let faulty = |_point: &RunPoint, rng: &mut SimRng| {
            if rng.uniform() < 0.1 {
                Err(MeasureFailure::Fault(SimFault::LinkFailed {
                    src: 0,
                    dst: 1,
                    drops: 4,
                }))
            } else {
                Ok(1.0 + rng.uniform() * 0.2)
            }
        };
        let run = |threads: usize| {
            run_campaign_resilient(
                &demo_design(),
                &fixed_plan(40),
                &CampaignConfig { seed: 8, threads },
                &RetryPolicy::default(),
                faulty,
            )
            .unwrap()
        };
        let seq = run(1);
        let par = run(8);
        // NaN placeholders defeat PartialEq, so compare bit-exactly.
        assert_eq!(seq.health, par.health);
        assert_eq!(seq.runs.len(), par.runs.len());
        for (a, b) in seq.runs.iter().zip(&par.runs) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.fate, b.fate);
            assert_eq!(a.panics_contained, b.panics_contained);
            let (oa, ob) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert_eq!(oa.samples.len(), ob.samples.len());
            for (x, y) in oa.samples.iter().zip(&ob.samples) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(seq.health.samples_dropped > 0 || seq.health.points_retried > 0);
    }

    #[test]
    fn traced_resilient_campaign_matches_untraced() {
        let faulty = |_point: &RunPoint, rng: &mut SimRng| {
            if rng.uniform() < 0.1 {
                Err(MeasureFailure::Fault(SimFault::LinkFailed {
                    src: 0,
                    dst: 1,
                    drops: 4,
                }))
            } else {
                Ok(1.0 + rng.uniform() * 0.2)
            }
        };
        let plain = run_campaign_resilient(
            &demo_design(),
            &fixed_plan(30),
            &CampaignConfig {
                seed: 12,
                threads: 1,
            },
            &RetryPolicy::default(),
            faulty,
        )
        .unwrap();
        for threads in [1, 2, 8] {
            let tracer = Tracer::new();
            let traced = run_campaign_resilient_traced(
                &demo_design(),
                &fixed_plan(30),
                &CampaignConfig { seed: 12, threads },
                &RetryPolicy::default(),
                Some(&tracer),
                faulty,
            )
            .unwrap();
            assert_eq!(plain.health, traced.health, "threads={threads}");
            for (a, b) in plain.runs.iter().zip(&traced.runs) {
                assert_eq!(a.fate, b.fate);
                let (oa, ob) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
                for (x, y) in oa.samples.iter().zip(&ob.samples) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            let trace = tracer.drain();
            // One point span + one attempt span (+ dropped counter) per
            // point; fault instants equal the failed measure calls.
            assert!(trace.count(category::RESILIENCE) >= 2 * plain.runs.len());
            let expected_faults: usize = plain.health.samples_dropped;
            assert_eq!(
                trace.count(category::FAULT),
                expected_faults,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn traced_event_counts_are_thread_invariant() {
        let faulty = |_point: &RunPoint, rng: &mut SimRng| {
            if rng.uniform() < 0.2 {
                Err(MeasureFailure::Failed("flaky".into()))
            } else {
                Ok(1.0 + rng.uniform() * 0.1)
            }
        };
        let counts_for = |threads: usize| {
            let tracer = Tracer::new();
            let _ = run_campaign_resilient_traced(
                &demo_design(),
                &fixed_plan(25),
                &CampaignConfig { seed: 13, threads },
                &RetryPolicy::default(),
                Some(&tracer),
                faulty,
            )
            .unwrap();
            tracer.drain().deterministic_counts()
        };
        assert_eq!(counts_for(1), counts_for(4));
    }

    #[test]
    fn campaign_error_display_is_informative() {
        let err = CampaignError::AllPointsFailed {
            health: CampaignHealth {
                points_total: 2,
                points_abandoned: 2,
                attempts_total: 6,
                ..CampaignHealth::default()
            },
        };
        assert!(err.to_string().contains("no design point survived"));
        assert!(err.to_string().contains("0/2 points completed"));
        assert!(CampaignError::EmptyDesign
            .to_string()
            .contains("zero points"));
    }

    #[test]
    fn health_render_is_one_line() {
        let health = CampaignHealth {
            points_total: 12,
            points_completed: 10,
            points_retried: 3,
            points_timed_out: 1,
            points_abandoned: 1,
            attempts_total: 17,
            samples_dropped: 42,
            panics_contained: 2,
            workers_respawned: 4,
            points_poisoned: 1,
        };
        let line = health.render();
        assert!(!line.contains('\n'));
        for needle in [
            "10/12",
            "3 retried",
            "1 timed out",
            "1 abandoned",
            "42 samples dropped",
            "2 panics contained",
            "4 workers respawned",
            "1 points poisoned",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        assert!(!health.pristine());
    }

    #[test]
    fn backoff_is_saturated_against_extremes() {
        let policy = RetryPolicy {
            max_attempts: usize::MAX,
            backoff_base_ns: 1e9,
            backoff_factor: 2.0,
            point_budget_ns: None,
            max_contamination: 0.0,
        };
        // Normal range unchanged: base · factor^(n−1).
        assert_eq!(policy.backoff_ns(1), 1e9);
        assert_eq!(policy.backoff_ns(2), 2e9);
        assert_eq!(policy.backoff_ns(3), 4e9);
        assert_eq!(policy.backoff_ns(0), 0.0);
        // Huge attempt counts saturate at the cap instead of inf.
        for n in [100, 10_000, usize::MAX] {
            let b = policy.backoff_ns(n);
            assert!(b.is_finite() && b >= 0.0, "backoff_ns({n}) = {b}");
            assert_eq!(b, RetryPolicy::BACKOFF_CAP_NS);
        }
        // Pathological policies never produce NaN or negative waits.
        let weird = |base: f64, factor: f64| RetryPolicy {
            backoff_base_ns: base,
            backoff_factor: factor,
            ..RetryPolicy::default()
        };
        for (base, factor) in [
            (-1e9, 2.0),
            (f64::NAN, 2.0),
            (1e9, f64::NAN),
            (1e9, -3.0),
            (f64::INFINITY, 2.0),
            (1e9, f64::INFINITY),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        ] {
            for n in [1usize, 2, 5, 1_000_000] {
                let b = weird(base, factor).backoff_ns(n);
                assert!(
                    b.is_finite() && (0.0..=RetryPolicy::BACKOFF_CAP_NS).contains(&b),
                    "backoff_ns({n}) = {b} for base={base}, factor={factor}"
                );
            }
        }
    }

    #[test]
    fn extreme_policy_still_terminates_with_finite_budget_accounting() {
        // factor = inf used to overflow the budget arithmetic to inf/NaN;
        // now every wait is capped and the point times out cleanly.
        let err = run_campaign_resilient(
            &Design::new(vec![Factor::new("only", &["x"])]),
            &fixed_plan(5),
            &CampaignConfig {
                seed: 5,
                threads: 1,
            },
            &RetryPolicy {
                max_attempts: 1_000,
                backoff_base_ns: 1e30,
                backoff_factor: f64::INFINITY,
                point_budget_ns: Some(1e12),
                max_contamination: 0.0,
            },
            |_point, _rng| Err::<f64, _>(MeasureFailure::Failed("always".into())),
        )
        .unwrap_err();
        match err {
            CampaignError::AllPointsFailed { health } => {
                assert_eq!(health.points_timed_out, 1);
                assert_eq!(health.attempts_total, 1, "{}", health.render());
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn saturating_add_never_leaves_the_finite_range() {
        assert_eq!(saturating_add_ns(1.0, 2.0), 3.0);
        assert_eq!(saturating_add_ns(5.0, -3.0), 5.0); // negative charges ignored
        assert_eq!(saturating_add_ns(f64::MAX, f64::MAX), f64::MAX);
        assert_eq!(saturating_add_ns(0.0, f64::NAN), 0.0);
        assert!(saturating_add_ns(f64::MAX, f64::INFINITY).is_finite());
    }

    fn journal_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scibench-resilience-journal-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn faulty_measure(_point: &RunPoint, rng: &mut SimRng) -> Result<f64, MeasureFailure> {
        if rng.uniform() < 0.1 {
            Err(MeasureFailure::Failed("flaky".into()))
        } else {
            Ok(1.0 + rng.uniform() * 0.2)
        }
    }

    fn assert_bit_identical(a: &ResilientCampaignResult, b: &ResilientCampaignResult) {
        assert_eq!(a.health, b.health);
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.point, y.point);
            assert_eq!(x.fate, y.fate);
            assert_eq!(x.panics_contained, y.panics_contained);
            match (&x.outcome, &y.outcome) {
                (None, None) => {}
                (Some(ox), Some(oy)) => {
                    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&ox.samples), bits(&oy.samples));
                    assert_eq!(bits(&ox.warmup_samples), bits(&oy.warmup_samples));
                }
                other => panic!("outcome mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn journaled_campaign_matches_plain_and_resumes_without_rerunning() {
        let dir = journal_dir("roundtrip");
        let path = dir.join("campaign.journal");
        let spec = JournalSpec {
            path: &path,
            code_version: "test-v1",
            config_fingerprint: "cfg",
        };
        let config = CampaignConfig {
            seed: 21,
            threads: 2,
        };
        let plain = run_campaign_resilient(
            &demo_design(),
            &fixed_plan(30),
            &config,
            &RetryPolicy::default(),
            faulty_measure,
        )
        .unwrap();
        let fresh = run_campaign_resilient_journaled(
            &demo_design(),
            &fixed_plan(30),
            &config,
            &RetryPolicy::default(),
            &spec,
            faulty_measure,
        )
        .unwrap();
        assert_bit_identical(&plain, &fresh.result);
        assert_eq!(fresh.resume.points_executed, 4);
        assert_eq!(fresh.resume.points_resumed, 0);
        // Second run: everything replayed from the journal — the measure
        // closure must not even be called.
        let resumed = run_campaign_resilient_journaled(
            &demo_design(),
            &fixed_plan(30),
            &config,
            &RetryPolicy::default(),
            &spec,
            |_point: &RunPoint, _rng: &mut SimRng| -> Result<f64, MeasureFailure> {
                panic!("resume must not re-execute journaled points")
            },
        )
        .unwrap();
        assert_bit_identical(&plain, &resumed.result);
        assert_eq!(resumed.resume.points_resumed, 4);
        assert_eq!(resumed.resume.points_executed, 0);
    }

    #[test]
    fn interrupted_journal_resumes_bit_identically() {
        // Simulate a kill after k completed points by truncating the
        // journal to its first k point records, then resume at several
        // thread counts: the merged result must be bit-identical.
        let dir = journal_dir("interrupted");
        let reference_path = dir.join("reference.journal");
        let spec = |path: &'static str| -> std::path::PathBuf { dir.join(path) };
        let config = CampaignConfig {
            seed: 22,
            threads: 1,
        };
        let reference = run_campaign_resilient_journaled(
            &demo_design(),
            &fixed_plan(25),
            &config,
            &RetryPolicy::default(),
            &JournalSpec {
                path: &reference_path,
                code_version: "test-v1",
                config_fingerprint: "cfg",
            },
            faulty_measure,
        )
        .unwrap();
        let full = std::fs::read_to_string(&reference_path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        for keep_frames in 1..lines.len() {
            for threads in [1usize, 2, 8] {
                let path = spec("cut.journal");
                let prefix: String = lines[..keep_frames]
                    .iter()
                    .map(|l| format!("{l}\n"))
                    .collect();
                std::fs::write(&path, prefix).unwrap();
                let resumed = run_campaign_resilient_journaled(
                    &demo_design(),
                    &fixed_plan(25),
                    &CampaignConfig { seed: 22, threads },
                    &RetryPolicy::default(),
                    &JournalSpec {
                        path: &path,
                        code_version: "test-v1",
                        config_fingerprint: "cfg",
                    },
                    faulty_measure,
                )
                .unwrap();
                assert_bit_identical(&reference.result, &resumed.result);
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn journaled_subset_feeds_a_full_resume() {
        // A "worker" executes half the points through the subset runner;
        // the full journaled run then only executes the other half and
        // still matches the plain campaign bit-for-bit.
        let dir = journal_dir("subset");
        let path = dir.join("campaign.journal");
        let spec = JournalSpec {
            path: &path,
            code_version: "test-v1",
            config_fingerprint: "cfg",
        };
        let config = CampaignConfig {
            seed: 23,
            threads: 1,
        };
        let stats = run_campaign_resilient_journaled_subset(
            &demo_design(),
            &fixed_plan(20),
            &config,
            &RetryPolicy::default(),
            &spec,
            &[0, 2],
            faulty_measure,
        )
        .unwrap();
        assert_eq!(stats.points_executed, 2);
        let full = run_campaign_resilient_journaled(
            &demo_design(),
            &fixed_plan(20),
            &config,
            &RetryPolicy::default(),
            &spec,
            faulty_measure,
        )
        .unwrap();
        assert_eq!(full.resume.points_resumed, 2);
        assert_eq!(full.resume.points_executed, 2);
        let plain = run_campaign_resilient(
            &demo_design(),
            &fixed_plan(20),
            &config,
            &RetryPolicy::default(),
            faulty_measure,
        )
        .unwrap();
        assert_bit_identical(&plain, &full.result);
        // Out-of-range index is a typed error.
        assert!(matches!(
            run_campaign_resilient_journaled_subset(
                &demo_design(),
                &fixed_plan(20),
                &config,
                &RetryPolicy::default(),
                &spec,
                &[99],
                faulty_measure,
            ),
            Err(CampaignError::BadPointIndex {
                index: 99,
                points: 4
            })
        ));
    }

    #[test]
    fn points_with_equal_levels_run_in_process_but_are_refused_a_journal() {
        let design = Design::new(vec![Factor::new("system", &["a", "a"])]);
        let config = CampaignConfig {
            seed: 25,
            threads: 1,
        };
        // In process, each point runs on the stream of its design index.
        let plain = run_campaign_resilient(
            &design,
            &fixed_plan(10),
            &config,
            &RetryPolicy::default(),
            clean_measure,
        )
        .unwrap();
        assert_eq!(plain.health.points_completed, 2);
        let samples = |i: usize| plain.runs[i].outcome.as_ref().unwrap().samples.clone();
        assert_ne!(samples(0), samples(1));
        // A journal would key both points alike and hand the first
        // point's record to the second on resume, so it is refused
        // before the journal file is created or any point runs.
        let dir = journal_dir("equal-levels");
        let path = dir.join("campaign.journal");
        let spec = JournalSpec {
            path: &path,
            code_version: "test-v1",
            config_fingerprint: "cfg",
        };
        let ran = AtomicUsize::new(0);
        let measure = |point: &RunPoint, rng: &mut SimRng| {
            ran.fetch_add(1, Ordering::SeqCst);
            clean_measure(point, rng)
        };
        let whole = run_campaign_resilient_journaled(
            &design,
            &fixed_plan(10),
            &config,
            &RetryPolicy::default(),
            &spec,
            measure,
        );
        let subset = run_campaign_resilient_journaled_subset(
            &design,
            &fixed_plan(10),
            &config,
            &RetryPolicy::default(),
            &spec,
            &[1],
            measure,
        );
        for err in [whole.map(|_| ()).unwrap_err(), subset.unwrap_err()] {
            assert_eq!(
                err,
                CampaignError::Journal(JournalError::DuplicateKey {
                    first: 0,
                    second: 1
                })
            );
        }
        assert!(!path.exists());
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_surfaces_as_campaign_error() {
        let dir = journal_dir("stale");
        let path = dir.join("campaign.journal");
        let config = CampaignConfig {
            seed: 24,
            threads: 1,
        };
        run_campaign_resilient_journaled(
            &demo_design(),
            &fixed_plan(10),
            &config,
            &RetryPolicy::default(),
            &JournalSpec {
                path: &path,
                code_version: "test-v1",
                config_fingerprint: "cfg",
            },
            clean_measure,
        )
        .unwrap();
        let err = run_campaign_resilient_journaled(
            &demo_design(),
            &fixed_plan(10),
            &config,
            &RetryPolicy::default(),
            &JournalSpec {
                path: &path,
                code_version: "test-v2",
                config_fingerprint: "cfg",
            },
            clean_measure,
        )
        .unwrap_err();
        match err {
            CampaignError::Journal(JournalError::Stale { field, .. }) => {
                assert_eq!(field, "code_version");
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(err.to_string().contains("stale journal refused"));
    }
}
