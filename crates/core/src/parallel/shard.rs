//! Supervised process-shard execution: shared-nothing campaign workers
//! in child OS processes, with kill-and-respawn recovery.
//!
//! The in-process resilient runner ([`crate::experiment::resilience`])
//! contains panics, but a segfault-class failure — stack overflow, OOM
//! kill, a crash in native code — still takes the whole campaign down,
//! because every worker thread shares one address space. This module
//! adds the missing isolation layer:
//!
//! * the design is partitioned **strided** across `shards` child
//!   processes (point `idx` belongs to shard `idx % shards`), each
//!   spawned from a [`WorkerSpec`] command in self-exec worker mode and
//!   writing its results to its own crash-consistent journal
//!   (`shard-<s>.journal`);
//! * a **heartbeat watchdog** treats shard-journal growth as liveness:
//!   a worker whose journal has not grown within
//!   [`ShardPolicy::heartbeat_timeout_ms`] is killed and respawned on
//!   its remaining points;
//! * a worker that **crashes** leaves a dangling `begin` record naming
//!   the point it was executing; the supervisor charges that point a
//!   *strike* (persisted in `quarantine.journal`, so strikes survive
//!   supervisor restarts) and respawns the worker without losing any
//!   completed point;
//! * a point that accumulates [`ShardPolicy::max_point_strikes`] strikes
//!   is **quarantined as poisoned**: it is excluded from every future
//!   spawn and reported as [`PointFate::Abandoned`] instead of failing
//!   the campaign;
//! * a worker that crashes repeatedly **without** ever beginning a point
//!   (a barren crash — broken binary, bad environment) aborts its shard
//!   after [`ShardPolicy::max_barren_crashes`] instead of respawning
//!   forever;
//! * a worker that exits cleanly but leaves points of its shard
//!   unjournaled is charged like a crashed one, so it cannot respawn
//!   forever either.
//!
//! When all shards finish, the supervisor merges the shard journals into
//! one [`ResilientCampaignResult`] — bit-identical to a single-process
//! run for every point that completed, since each point's RNG stream is
//! a pure function of `(seed, design index)` — and discloses every
//! recovery in [`CampaignHealth`](crate::experiment::resilience::CampaignHealth)
//! (`workers_respawned`, `points_poisoned`) per Rule 4.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::experiment::journal::{
    design_keys, Journal, JournalError, JournalKey, JournalMeta, JournalSnapshot,
};
use crate::experiment::resilience::{
    health_of, CampaignError, PointFate, ResilientCampaignResult, ResilientRun,
};
use crate::experiment::{CampaignConfig, Design};

/// CLI flag the supervisor appends before the worker's journal path.
pub const SHARD_JOURNAL_FLAG: &str = "--shard-journal";
/// CLI flag the supervisor appends before the worker's point list.
pub const SHARD_POINTS_FLAG: &str = "--shard-points";

/// Supervision knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Number of child worker processes (≥ 1).
    pub shards: usize,
    /// A worker whose journal has not grown for this long is presumed
    /// hung, killed and respawned. Must comfortably exceed the cost of
    /// one design point, since the journal only grows between points.
    pub heartbeat_timeout_ms: u64,
    /// Supervisor poll interval.
    pub poll_interval_ms: u64,
    /// Strikes (worker crashes attributed to a point) before the point
    /// is quarantined as poisoned (≥ 1).
    pub max_point_strikes: usize,
    /// Worker crashes *without* a dangling begin tolerated per shard
    /// before the shard is aborted instead of respawned.
    pub max_barren_crashes: usize,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            shards: 2,
            heartbeat_timeout_ms: 30_000,
            poll_interval_ms: 50,
            max_point_strikes: 3,
            max_barren_crashes: 2,
        }
    }
}

/// The command a worker process is spawned from. The supervisor appends
/// `--shard-journal <dir>/shard-<s>.journal --shard-points <csv>`; the
/// worker must execute exactly those design indices through
/// [`crate::experiment::resilience::run_campaign_resilient_journaled_subset`]
/// against that journal, then exit 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Program to execute (usually `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments placed before the supervisor-appended flags.
    pub args: Vec<String>,
}

/// Durable state locations and identity of a sharded campaign.
#[derive(Debug, Clone)]
pub struct ShardDurability<'a> {
    /// Directory holding `shard-<s>.journal` files and
    /// `quarantine.journal` (created if missing).
    pub dir: &'a Path,
    /// Code version bound into every journal header and key.
    pub code_version: &'a str,
    /// Machine/fault configuration fingerprint bound in likewise.
    pub config_fingerprint: &'a str,
}

/// Rule-4 disclosure of everything the supervisor did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardReport {
    /// Shards supervised.
    pub shards: usize,
    /// Worker processes spawned in total (including respawns).
    pub workers_spawned: usize,
    /// Workers respawned after a crash or hang kill.
    pub workers_respawned: usize,
    /// Workers killed by the heartbeat watchdog.
    pub hangs_killed: usize,
    /// Worker exits with a failure status or a kill signal, and clean
    /// exits that left points of their shard unjournaled.
    pub crashes_observed: usize,
    /// Design indices quarantined as poisoned, ascending.
    pub points_poisoned: Vec<usize>,
    /// Shards aborted after repeated barren crashes.
    pub shards_aborted: usize,
}

/// The merged campaign plus the supervision report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedCampaign {
    /// Merged result in design order; completed points are bit-identical
    /// to a single-process run, quarantined/aborted points are
    /// [`PointFate::Abandoned`].
    pub result: ResilientCampaignResult,
    /// What the supervisor had to do to get it.
    pub report: ShardReport,
}

/// Errors of the shard supervisor.
#[derive(Debug)]
pub enum ShardError {
    /// The policy is unusable (zero shards, zero strikes, ...).
    InvalidPolicy(&'static str),
    /// Spawning a worker process failed.
    Spawn {
        /// The shard whose worker could not be spawned.
        shard: usize,
        /// The underlying error, rendered.
        error: String,
    },
    /// A shard or quarantine journal failed.
    Journal(JournalError),
    /// The merged campaign failed (empty design, nothing survived).
    Campaign(CampaignError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::InvalidPolicy(msg) => write!(f, "invalid shard policy: {msg}"),
            ShardError::Spawn { shard, error } => {
                write!(f, "failed to spawn worker for shard {shard}: {error}")
            }
            ShardError::Journal(err) => write!(f, "shard journal error: {err}"),
            ShardError::Campaign(err) => write!(f, "sharded campaign failed: {err}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<JournalError> for ShardError {
    fn from(err: JournalError) -> Self {
        ShardError::Journal(err)
    }
}

impl From<CampaignError> for ShardError {
    fn from(err: CampaignError) -> Self {
        ShardError::Campaign(err)
    }
}

/// Strided partition: the design indices of shard `shard` out of
/// `shards` (those with `idx % shards == shard`).
pub fn shard_assignment(points: usize, shards: usize, shard: usize) -> Vec<usize> {
    (shard..points).step_by(shards.max(1)).collect()
}

/// Renders a point list for `--shard-points` (comma-separated indices).
pub fn format_point_list(indices: &[usize]) -> String {
    indices
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// A `--shard-points` token that is not a design index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointListError {
    /// The token as it appears in the list, surrounding spaces included.
    pub token: String,
    /// The token's position among the comma-separated tokens, from 0.
    pub position: usize,
}

impl fmt::Display for PointListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad design index {:?} in point list", self.token)
    }
}

impl std::error::Error for PointListError {}

impl From<PointListError> for String {
    fn from(err: PointListError) -> Self {
        err.to_string()
    }
}

/// Parses a `--shard-points` list back into indices. Each comma-separated
/// token is a decimal `usize`: ASCII digits, optionally surrounded by
/// whitespace. A blank list is empty.
pub fn parse_point_list(csv: &str) -> Result<Vec<usize>, PointListError> {
    if csv.trim().is_empty() {
        return Ok(Vec::new());
    }
    csv.split(',')
        .enumerate()
        .map(|(position, tok)| {
            let digits = tok.trim();
            match digits.parse::<usize>() {
                // `parse` also takes a leading `+`.
                Ok(index) if digits.bytes().all(|b| b.is_ascii_digit()) => Ok(index),
                _ => Err(PointListError {
                    token: tok.to_string(),
                    position,
                }),
            }
        })
        .collect()
}

/// The shard journal path of shard `shard` under `dir`.
pub fn shard_journal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.journal"))
}

/// The persistent quarantine journal path under `dir`.
pub fn quarantine_path(dir: &Path) -> PathBuf {
    dir.join("quarantine.journal")
}

/// Per-point strike counts recorded in the quarantine journal.
///
/// The quarantine reuses the journal's `begin` frame as its strike
/// record: one dangling begin per strike (no point record ever follows),
/// so crash attribution survives supervisor restarts with the same
/// torn-tail and stale-header protection as result journals.
fn strike_counts(snapshot: &JournalSnapshot) -> HashMap<usize, usize> {
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for (idx, _) in &snapshot.dangling_begins {
        *counts.entry(*idx).or_insert(0) += 1;
    }
    counts
}

struct ShardState {
    id: usize,
    assigned: Vec<usize>,
    journal_path: PathBuf,
    /// The shard journal as last loaded: at start-up, then once each time
    /// its worker is gone. One supervisor incarnation owns a journal
    /// directory, so once the shard is done nothing writes the journal
    /// again and this snapshot is final; the merge moves records out.
    snapshot: JournalSnapshot,
    child: Option<Child>,
    journal_len: u64,
    last_progress: Instant,
    barren_crashes: usize,
    aborted: bool,
    done: bool,
}

/// Everything mutable the supervisor tracks across the poll loop.
struct Supervisor<'a> {
    keys: &'a [JournalKey],
    policy: &'a ShardPolicy,
    worker: &'a WorkerSpec,
    quarantine: Journal,
    strikes: HashMap<usize, usize>,
    report: ShardReport,
}

impl Supervisor<'_> {
    fn poisoned(&self, idx: usize) -> bool {
        self.strikes
            .get(&idx)
            .is_some_and(|&n| n >= self.policy.max_point_strikes)
    }

    /// Points of `shard` still needing execution: assigned minus
    /// journaled (in its snapshot) minus quarantined.
    fn remaining(&self, shard: &ShardState) -> Vec<usize> {
        shard
            .assigned
            .iter()
            .copied()
            .filter(|&idx| {
                shard.snapshot.record_for(self.keys[idx]).is_none() && !self.poisoned(idx)
            })
            .collect()
    }

    fn spawn(&mut self, shard: &mut ShardState, remaining: &[usize]) -> Result<(), ShardError> {
        let child = Command::new(&self.worker.program)
            .args(&self.worker.args)
            .arg(SHARD_JOURNAL_FLAG)
            .arg(&shard.journal_path)
            .arg(SHARD_POINTS_FLAG)
            .arg(format_point_list(remaining))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| ShardError::Spawn {
                shard: shard.id,
                error: e.to_string(),
            })?;
        shard.child = Some(child);
        shard.journal_len = journal_len(&shard.journal_path);
        shard.last_progress = Instant::now();
        self.report.workers_spawned += 1;
        Ok(())
    }

    /// Handles a worker that is gone: loads its journal once, charges its
    /// death, then respawns or finishes the shard. A clean exit that left
    /// points of its shard unjournaled (a worker that ignores its point
    /// list, or stops early) is charged like a failed one, so it cannot
    /// respawn forever.
    fn worker_gone(&mut self, shard: &mut ShardState, failed: bool) -> Result<(), ShardError> {
        shard.snapshot = Journal::load_or_empty(&shard.journal_path)?;
        if failed || !self.remaining(shard).is_empty() {
            self.report.crashes_observed += 1;
            self.attribute_crash(shard)?;
        }
        self.respawn_or_finish(shard)
    }

    /// Attributes a worker death to the points it had begun (strikes,
    /// possibly quarantine) or to the shard itself (barren crash).
    fn attribute_crash(&mut self, shard: &mut ShardState) -> Result<(), ShardError> {
        let counts = strike_counts(&shard.snapshot);
        let mut struck = false;
        for &idx in counts.keys() {
            if !shard.assigned.contains(&idx) || self.poisoned(idx) {
                continue;
            }
            struck = true;
            self.quarantine.append_begin(idx, self.keys[idx])?;
            let strikes = self.strikes.entry(idx).or_insert(0);
            *strikes += 1;
        }
        if struck {
            self.quarantine.sync()?;
        } else {
            shard.barren_crashes += 1;
            if shard.barren_crashes > self.policy.max_barren_crashes {
                shard.aborted = true;
                self.report.shards_aborted += 1;
            }
        }
        Ok(())
    }

    /// Respawns `shard` on its remaining points, or marks it done.
    fn respawn_or_finish(&mut self, shard: &mut ShardState) -> Result<(), ShardError> {
        if shard.aborted {
            shard.done = true;
            return Ok(());
        }
        let remaining = self.remaining(shard);
        if remaining.is_empty() {
            shard.done = true;
            return Ok(());
        }
        self.report.workers_respawned += 1;
        self.spawn(shard, &remaining)
    }
}

fn journal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Runs `design` to completion across supervised child worker processes
/// and merges the shard journals into one campaign result.
///
/// Idempotent and restartable: completed points are never re-executed
/// (they are read back from the shard journals), strikes persist in the
/// quarantine journal, and killing the *supervisor* mid-campaign merely
/// means the next invocation resumes where the journals stop.
pub fn supervise_shards(
    design: &Design,
    config: &CampaignConfig,
    policy: &ShardPolicy,
    durability: &ShardDurability<'_>,
    worker: &WorkerSpec,
) -> Result<ShardedCampaign, ShardError> {
    if policy.shards == 0 {
        return Err(ShardError::InvalidPolicy("shards must be >= 1"));
    }
    if policy.max_point_strikes == 0 {
        return Err(ShardError::InvalidPolicy("max_point_strikes must be >= 1"));
    }
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(ShardError::Campaign(CampaignError::EmptyDesign));
    }
    let meta = JournalMeta::new(
        design,
        config.seed,
        durability.code_version,
        durability.config_fingerprint,
    );
    let keys = design_keys(&meta, &points)?;
    std::fs::create_dir_all(durability.dir).map_err(|e| {
        ShardError::Journal(JournalError::Io {
            path: durability.dir.display().to_string(),
            op: "create-dir",
            error: e.to_string(),
        })
    })?;

    let (quarantine, quarantine_snapshot) =
        Journal::open_resume(&quarantine_path(durability.dir), &meta)?;
    let mut supervisor = Supervisor {
        keys: &keys,
        policy,
        worker,
        quarantine,
        strikes: strike_counts(&quarantine_snapshot),
        report: ShardReport {
            shards: policy.shards,
            ..ShardReport::default()
        },
    };

    // Every shard journal gets a valid header before any worker runs, so
    // resume and merge always see one identity.
    let mut shards = (0..policy.shards)
        .map(|s| {
            let journal_path = shard_journal_path(durability.dir, s);
            let (_, snapshot) = Journal::open_resume(&journal_path, &meta)?;
            Ok(ShardState {
                id: s,
                assigned: shard_assignment(points.len(), policy.shards, s),
                journal_path,
                snapshot,
                child: None,
                journal_len: 0,
                last_progress: Instant::now(),
                barren_crashes: 0,
                aborted: false,
                done: false,
            })
        })
        .collect::<Result<Vec<ShardState>, ShardError>>()?;

    // Initial spawns (skipping shards with nothing left to do).
    for shard in &mut shards {
        let remaining = supervisor.remaining(shard);
        if remaining.is_empty() {
            shard.done = true;
        } else {
            supervisor.spawn(shard, &remaining)?;
        }
    }

    let heartbeat = Duration::from_millis(policy.heartbeat_timeout_ms.max(1));
    while shards.iter().any(|s| !s.done) {
        std::thread::sleep(Duration::from_millis(policy.poll_interval_ms.max(1)));
        for shard in shards.iter_mut().filter(|s| !s.done) {
            let Some(child) = shard.child.as_mut() else {
                shard.done = true;
                continue;
            };
            match child.try_wait() {
                Ok(Some(status)) => {
                    shard.child = None;
                    supervisor.worker_gone(shard, !status.success())?;
                }
                Ok(None) => {
                    // Heartbeat: journal growth is the liveness signal.
                    let len = journal_len(&shard.journal_path);
                    if len > shard.journal_len {
                        shard.journal_len = len;
                        shard.last_progress = Instant::now();
                    } else if shard.last_progress.elapsed() > heartbeat {
                        let _ = child.kill();
                        let _ = child.wait();
                        shard.child = None;
                        supervisor.report.hangs_killed += 1;
                        supervisor.worker_gone(shard, true)?;
                    }
                }
                Err(e) => {
                    return Err(ShardError::Spawn {
                        shard: shard.id,
                        error: format!("wait failed: {e}"),
                    });
                }
            }
        }
    }

    // Merge the final shard snapshots into design order, moving records
    // out; each key belongs to one point.
    let mut runs: Vec<Option<ResilientRun>> = vec![None; points.len()];
    for shard in shards {
        let mut records = shard.snapshot.records;
        for &idx in &shard.assigned {
            runs[idx] = records.remove(&keys[idx]).map(|record| record.into_run());
        }
    }
    let mut poisoned: Vec<usize> = Vec::new();
    let runs: Vec<ResilientRun> = runs
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| match slot {
            Some(run) => run,
            None => {
                let strikes = supervisor.strikes.get(&idx).copied().unwrap_or(0);
                let last_error = if supervisor.poisoned(idx) {
                    poisoned.push(idx);
                    format!("poisoned: crashed its worker {strikes} times")
                } else {
                    "shard aborted before executing this point".to_owned()
                };
                ResilientRun {
                    point: points[idx].clone(),
                    outcome: None,
                    fate: PointFate::Abandoned {
                        attempts: strikes,
                        last_error,
                    },
                    panics_contained: 0,
                }
            }
        })
        .collect();

    supervisor.report.points_poisoned = poisoned;
    let mut health = health_of(&runs);
    health.workers_respawned = supervisor.report.workers_respawned;
    health.points_poisoned = supervisor.report.points_poisoned.len();
    if health.points_completed == 0 {
        return Err(ShardError::Campaign(CampaignError::AllPointsFailed {
            health,
        }));
    }
    Ok(ShardedCampaign {
        result: ResilientCampaignResult { runs, health },
        report: supervisor.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::journal::{point_key, JournalSpec};
    use crate::experiment::measurement::{MeasurementPlan, StoppingRule};
    use crate::experiment::resilience::{
        run_campaign_resilient, run_campaign_resilient_journaled_subset, MeasureFailure,
        RetryPolicy,
    };
    use crate::experiment::{Factor, RunPoint};
    use scibench_sim::rng::SimRng;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scibench-shard-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_design() -> Design {
        Design::new(vec![
            Factor::new("system", &["a", "b"]),
            Factor::numeric("size", &[8.0, 64.0]),
        ])
    }

    fn plan() -> MeasurementPlan {
        MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(15))
    }

    fn config() -> CampaignConfig {
        CampaignConfig {
            seed: 77,
            threads: 1,
        }
    }

    fn measure(point: &RunPoint, rng: &mut SimRng) -> Result<f64, MeasureFailure> {
        let base = if point.level(0) == "a" { 1.0 } else { 2.0 };
        Ok(base + rng.uniform() * 0.1)
    }

    /// Runs the worker side in-process for every shard (what a real
    /// worker process does after parsing its flags).
    fn fill_shards(dir: &Path, shards: usize) {
        for s in 0..shards {
            let path = shard_journal_path(dir, s);
            let indices = shard_assignment(demo_design().size(), shards, s);
            run_campaign_resilient_journaled_subset(
                &demo_design(),
                &plan(),
                &config(),
                &RetryPolicy::default(),
                &JournalSpec {
                    path: &path,
                    code_version: "test-v1",
                    config_fingerprint: "cfg",
                },
                &indices,
                measure,
            )
            .unwrap();
        }
    }

    fn durability(dir: &Path) -> ShardDurability<'_> {
        ShardDurability {
            dir,
            code_version: "test-v1",
            config_fingerprint: "cfg",
        }
    }

    #[test]
    fn assignment_partitions_without_overlap() {
        for shards in [1usize, 2, 3, 4, 7] {
            let mut all: Vec<usize> = (0..shards)
                .flat_map(|s| shard_assignment(10, shards, s))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..10).collect::<Vec<_>>(), "shards={shards}");
        }
        assert!(shard_assignment(3, 8, 7).is_empty());
    }

    #[test]
    fn journal_paths_are_distinct_files_in_the_directory() {
        // The supervisor merges shard journals and keeps strikes in the
        // quarantine journal, all in one directory: no two may share a file.
        let dir = Path::new("campaign");
        let mut paths: Vec<PathBuf> = (0..64).map(|s| shard_journal_path(dir, s)).collect();
        paths.push(quarantine_path(dir));
        assert!(paths.iter().all(|p| p.parent() == Some(dir)));
        let mut distinct = paths.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), paths.len());
    }

    #[test]
    fn point_list_roundtrip() {
        let indices = vec![0usize, 3, 11];
        assert_eq!(format_point_list(&indices), "0,3,11");
        assert_eq!(parse_point_list("0,3,11").unwrap(), indices);
        assert_eq!(parse_point_list("").unwrap(), Vec::<usize>::new());
        let err = parse_point_list("1, x ,2").unwrap_err();
        assert_eq!((err.token.as_str(), err.position), (" x ", 1));
        assert_eq!(String::from(err), r#"bad design index " x " in point list"#);
    }

    /// The value of `tok` if it is a decimal `usize`, folded digit by
    /// digit with overflow checks.
    fn decimal_index(tok: &str) -> Option<usize> {
        let digits = tok.trim();
        if digits.is_empty() {
            return None;
        }
        digits.bytes().try_fold(0usize, |acc, b| {
            let digit = (b as char).to_digit(10)? as usize;
            acc.checked_mul(10)?.checked_add(digit)
        })
    }

    /// The indices of `csv` when every comma-separated token is a decimal
    /// `usize`; a blank list is empty.
    fn point_list_oracle(csv: &str) -> Option<Vec<usize>> {
        if csv.trim().is_empty() {
            return Some(Vec::new());
        }
        csv.split(',').map(decimal_index).collect()
    }

    /// Parses `csv`, which must not panic, and checks the answer against
    /// the oracle: the indices, or the first bad token and its position.
    /// Returns whether `csv` parsed.
    fn point_list_case(csv: &str) -> bool {
        let parsed = std::panic::catch_unwind(|| parse_point_list(csv))
            .unwrap_or_else(|_| panic!("parse_point_list panicked on {csv:?}"));
        match (parsed, point_list_oracle(csv)) {
            (Ok(got), Some(want)) => {
                assert_eq!(got, want, "{csv:?}");
                true
            }
            (Err(e), None) => {
                let tokens: Vec<&str> = csv.split(',').collect();
                assert_eq!(tokens[e.position], e.token, "{csv:?}");
                assert_eq!(decimal_index(&e.token), None, "{csv:?}: {e}");
                let earlier = &tokens[..e.position];
                assert!(earlier.iter().all(|t| decimal_index(t).is_some()));
                false
            }
            (got, want) => panic!("{csv:?}: parsed {got:?}, oracle {want:?}"),
        }
    }

    #[test]
    fn fuzzed_point_lists_give_indices_or_typed_errors() {
        // splitmix64 from a fixed seed: every run sees the same cases.
        let mut state = 0x5eed_0025_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for edge in [
            "18446744073709551615",
            "18446744073709551616",
            "0,,1",
            "1,",
            ",",
            " \t ",
            "+1",
            "-0",
            "1_000",
            "\u{663}",
        ] {
            point_list_case(edge);
        }
        let alphabet: Vec<char> = "0123456789,, +-x_\t\u{e9}\u{663}".chars().collect();
        let mut parsed = [0usize; 2];
        for _ in 0..3_000 {
            let len = (next() % 32) as usize;
            let csv: String = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect();
            parsed[point_list_case(&csv) as usize] += 1;
        }
        for _ in 0..1_000 {
            let v: Vec<usize> = (0..next() % 8)
                .map(|_| match next() % 4 {
                    0 => usize::MAX,
                    1 => (next() % 1_000) as usize,
                    _ => next() as usize,
                })
                .collect();
            let csv = format_point_list(&v);
            assert_eq!(parse_point_list(&csv), Ok(v), "{csv:?}");
            if !csv.is_empty() {
                let mut chars: Vec<char> = csv.chars().collect();
                let at = (next() % chars.len() as u64) as usize;
                chars[at] = alphabet[(next() % alphabet.len() as u64) as usize];
                parsed[point_list_case(&chars.into_iter().collect::<String>()) as usize] += 1;
            }
        }
        // Both answers are common, so each side of the oracle is tested.
        assert!(
            parsed.iter().all(|&n| n >= 500),
            "refused, parsed: {parsed:?}"
        );
    }

    #[test]
    fn invalid_policy_is_rejected() {
        let dir = tmp_dir("invalid-policy");
        let worker = WorkerSpec {
            program: PathBuf::from("/bin/true"),
            args: vec![],
        };
        for policy in [
            ShardPolicy {
                shards: 0,
                ..ShardPolicy::default()
            },
            ShardPolicy {
                max_point_strikes: 0,
                ..ShardPolicy::default()
            },
        ] {
            assert!(matches!(
                supervise_shards(
                    &demo_design(),
                    &config(),
                    &policy,
                    &durability(&dir),
                    &worker
                ),
                Err(ShardError::InvalidPolicy(_))
            ));
        }
    }

    #[test]
    fn merge_of_completed_shards_matches_single_process_run() {
        // Shard journals already complete: the supervisor spawns nothing
        // and the merge must reproduce the plain campaign bit-for-bit.
        let dir = tmp_dir("merge");
        fill_shards(&dir, 2);
        let worker = WorkerSpec {
            program: PathBuf::from("/bin/sh"),
            args: vec!["-c".into(), "exit 1".into()],
        };
        let sharded = supervise_shards(
            &demo_design(),
            &config(),
            &ShardPolicy::default(),
            &durability(&dir),
            &worker,
        )
        .unwrap();
        assert_eq!(sharded.report.workers_spawned, 0);
        assert_eq!(sharded.report.workers_respawned, 0);
        let plain = run_campaign_resilient(
            &demo_design(),
            &plan(),
            &config(),
            &RetryPolicy::default(),
            measure,
        )
        .unwrap();
        assert_eq!(sharded.result.health, plain.health);
        for (a, b) in sharded.result.runs.iter().zip(&plain.runs) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.fate, b.fate);
            let (oa, ob) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&oa.samples), bits(&ob.samples));
        }
    }

    #[test]
    fn points_with_equal_levels_are_refused_before_any_journal_or_worker() {
        // Equal levels give equal keys, but each point forks its stream
        // from its design index, so one record cannot stand in for both.
        let design = Design::new(vec![Factor::new("system", &["a", "a"])]);
        let root = tmp_dir("equal-levels");
        let (dir, spawned) = (root.join("shards"), root.join("spawned"));
        // A worker, if spawned, marks it and crashes, so the shards abort.
        let worker = WorkerSpec {
            program: PathBuf::from("/bin/sh"),
            args: vec![
                "-c".into(),
                format!("touch '{}'; exit 1", spawned.display()),
            ],
        };
        let err = supervise_shards(
            &design,
            &config(),
            &ShardPolicy::default(),
            &durability(&dir),
            &worker,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ShardError::Journal(JournalError::DuplicateKey {
                    first: 0,
                    second: 1
                })
            ),
            "{err}"
        );
        assert!(!dir.exists() && !spawned.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn crashing_point_is_quarantined_after_k_strikes_without_failing_campaign() {
        // Shard journals complete except point 1, which carries a
        // dangling begin — exactly what a worker killed mid-point leaves
        // behind. The replacement "worker" always crashes, so point 1
        // accumulates strikes until quarantine; the campaign still
        // completes with the other three points intact.
        let dir = tmp_dir("poison");
        fill_shards(&dir, 2);
        let design = demo_design();
        let points = design.full_factorial();
        let meta = JournalMeta::new(&design, config().seed, "test-v1", "cfg");
        let poison_idx = 1usize; // shard 1 (idx % 2)
        let shard_path = shard_journal_path(&dir, 1);
        // Rewrite shard 1's journal without point 1's record, plus a
        // dangling begin for it.
        let snapshot = Journal::load(&shard_path).unwrap();
        std::fs::remove_file(&shard_path).unwrap();
        let (mut journal, _) = Journal::open_resume(&shard_path, &meta).unwrap();
        let poison_key = point_key(&meta, &points[poison_idx]);
        for record in snapshot.records.values().filter(|r| r.key != poison_key) {
            journal.append_point(record).unwrap();
        }
        journal.append_begin(poison_idx, poison_key).unwrap();
        drop(journal);

        let strikes = 3usize;
        let policy = ShardPolicy {
            shards: 2,
            max_point_strikes: strikes,
            poll_interval_ms: 5,
            ..ShardPolicy::default()
        };
        let worker = WorkerSpec {
            program: PathBuf::from("/bin/sh"),
            args: vec!["-c".into(), "exit 7".into()],
        };
        let sharded =
            supervise_shards(&design, &config(), &policy, &durability(&dir), &worker).unwrap();
        assert_eq!(sharded.report.points_poisoned, vec![poison_idx]);
        assert_eq!(sharded.result.health.points_poisoned, 1);
        assert_eq!(sharded.result.health.points_completed, 3);
        assert!(sharded.result.health.workers_respawned >= 1);
        assert!(sharded.report.crashes_observed >= strikes);
        match &sharded.result.runs[poison_idx].fate {
            PointFate::Abandoned {
                attempts,
                last_error,
            } => {
                assert_eq!(*attempts, strikes);
                assert!(last_error.contains("poisoned"), "{last_error}");
            }
            other => panic!("unexpected fate {other:?}"),
        }
        // Strikes persisted: a fresh supervisor run sees the quarantine
        // and finishes immediately without spawning anything.
        let again =
            supervise_shards(&design, &config(), &policy, &durability(&dir), &worker).unwrap();
        assert_eq!(again.report.workers_spawned, 0);
        assert_eq!(again.report.points_poisoned, vec![poison_idx]);
        assert_eq!(again.result.health.points_completed, 3);
    }

    #[cfg(unix)]
    #[test]
    fn hung_worker_is_killed_and_its_shard_aborted_after_barren_crashes() {
        // Shard 0 complete; shard 1's worker hangs forever without
        // journaling anything. The watchdog kills it, the crashes are
        // barren, and the shard aborts — the campaign survives with
        // shard 0's points completed and shard 1's abandoned.
        let dir = tmp_dir("hang");
        fill_shards(&dir, 2);
        let design = demo_design();
        // Erase shard 1 so its points are genuinely pending.
        std::fs::remove_file(shard_journal_path(&dir, 1)).unwrap();
        let policy = ShardPolicy {
            shards: 2,
            heartbeat_timeout_ms: 200,
            poll_interval_ms: 10,
            max_barren_crashes: 0,
            ..ShardPolicy::default()
        };
        let worker = WorkerSpec {
            program: PathBuf::from("/bin/sh"),
            args: vec!["-c".into(), "sleep 60".into()],
        };
        let started = Instant::now();
        let sharded =
            supervise_shards(&design, &config(), &policy, &durability(&dir), &worker).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "watchdog failed to kill the hung worker"
        );
        assert_eq!(sharded.report.hangs_killed, 1);
        assert_eq!(sharded.report.shards_aborted, 1);
        assert_eq!(sharded.result.health.points_completed, 2);
        assert_eq!(sharded.result.health.points_abandoned, 2);
        for idx in [1usize, 3] {
            assert!(matches!(
                sharded.result.runs[idx].fate,
                PointFate::Abandoned { .. }
            ));
        }
    }

    #[cfg(unix)]
    #[test]
    fn clean_exit_with_points_left_is_charged_until_the_shards_abort() {
        // A worker that exits 0 without journaling its points is charged a
        // barren crash per exit, so each shard aborts after the third one
        // instead of respawning forever.
        let dir = tmp_dir("clean-exit");
        let policy = ShardPolicy {
            shards: 2,
            poll_interval_ms: 5,
            max_barren_crashes: 2,
            ..ShardPolicy::default()
        };
        let worker = WorkerSpec {
            program: PathBuf::from("/bin/sh"),
            args: vec!["-c".into(), "exit 0".into()],
        };
        let err = supervise_shards(
            &demo_design(),
            &config(),
            &policy,
            &durability(&dir),
            &worker,
        )
        .unwrap_err();
        let ShardError::Campaign(CampaignError::AllPointsFailed { health }) = err else {
            panic!("unexpected error {err}");
        };
        assert_eq!(health.points_abandoned, 4);
        assert_eq!(health.points_completed, 0);
        assert_eq!(health.workers_respawned, 2 * 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unspawnable_worker_is_a_typed_error() {
        let dir = tmp_dir("unspawnable");
        let worker = WorkerSpec {
            program: dir.join("no-such-binary"),
            args: vec![],
        };
        let err = supervise_shards(
            &demo_design(),
            &config(),
            &ShardPolicy::default(),
            &durability(&dir),
            &worker,
        )
        .unwrap_err();
        assert!(matches!(err, ShardError::Spawn { .. }), "{err}");
        assert!(err.to_string().contains("failed to spawn"));
    }
}
