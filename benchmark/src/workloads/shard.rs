//! `shard_journal`: many cheap points through the shard supervisor, two
//! worker processes and their crash-consistent journals. Measurement
//! costs milliseconds; journal encode/parse, process spawn and polling
//! dominate — including a journal parse whose cost per frame grows with
//! the square of the frame length.

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use scibench::experiment::journal::{
    point_key, result_digest, Journal, JournalMeta, JournalSpec, PointRecord,
};
use scibench::experiment::resilience::{
    run_campaign_resilient, run_campaign_resilient_journaled_subset, MeasureFailure, PointFate,
    RetryPolicy,
};
use scibench::experiment::{
    CampaignConfig, Design, Factor, MeasurementPlan, RunPoint, StoppingRule,
};
use scibench::parallel::shard::{
    parse_point_list, shard_journal_path, supervise_shards, ShardDurability, ShardPolicy,
    ShardedCampaign, WorkerSpec, SHARD_JOURNAL_FLAG, SHARD_POINTS_FLAG,
};
use scibench_sim::rng::SimRng;
use scibench_trace::{Trace, Tracer};

use crate::harness::{
    median, quantile, timed, Check, Layers, RepStats, Replayed, ScratchDir, Workload,
};
use crate::host;

/// Worker processes: the workload exists to exercise process-level
/// concurrency, so it uses both cores of the reference machine.
const SHARDS: usize = 2;
const CODE_VERSION: &str = concat!("benchmark-shard-journal-", env!("CARGO_PKG_VERSION"));
const CONFIG_FINGERPRINT: &str = "shifted-exponential-draw";

fn policy() -> ShardPolicy {
    ShardPolicy {
        shards: SHARDS,
        heartbeat_timeout_ms: 60_000,
        poll_interval_ms: 5,
        max_point_strikes: 3,
        max_barren_crashes: 2,
    }
}

/// 8 operations × 64 sizes = 512 points (64 points when quick).
fn design(quick: bool) -> Design {
    let sizes: Vec<f64> = (1..=if quick { 8 } else { 64 }).map(f64::from).collect();
    Design::new(vec![
        Factor::new("op", &["a", "b", "c", "d", "e", "f", "g", "h"]),
        Factor::numeric("size", &sizes),
    ])
}

/// 500 samples per point in both sizes: a journal frame's parse cost
/// grows with the square of its length, so the frame length is kept.
fn plan() -> MeasurementPlan {
    MeasurementPlan::new("draw").stopping(StoppingRule::FixedCount(500))
}

fn config(seed: u64) -> CampaignConfig {
    // One thread per worker: crash attribution needs at most one point in
    // flight per process.
    CampaignConfig { seed, threads: 1 }
}

fn measure(point: &RunPoint, rng: &mut SimRng) -> Result<f64, MeasureFailure> {
    let size: f64 = point.level(1).parse().unwrap_or(1.0);
    let u = rng.uniform().clamp(1e-12, 1.0 - 1e-12);
    Ok(size.ln_1p() - u.ln())
}

/// Where a worker records its own wall time and when it ended: next to
/// its journal.
fn wall_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_owned();
    name.push(".wall");
    PathBuf::from(name)
}

/// Seconds since the Unix epoch: the one clock the supervisor's process
/// and its workers share.
fn epoch_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

fn durability(dir: &Path) -> ShardDurability<'_> {
    ShardDurability {
        dir,
        code_version: CODE_VERSION,
        config_fingerprint: CONFIG_FINGERPRINT,
    }
}

pub struct ShardJournal {
    seed: u64,
    design: Design,
    plan: MeasurementPlan,
    worker: WorkerSpec,
    /// Made by the first repetition rather than in set-up: it is the
    /// benchmark's own plumbing, and its file-system calls would swamp a
    /// set-up time of microseconds.
    scratch: Option<ScratchDir>,
    reps: usize,
}

pub struct ShardOut {
    campaign: ShardedCampaign,
    dir: ScratchDir,
    /// When `supervise_shards` returned, in [`epoch_s`] seconds.
    returned: f64,
}

impl ShardJournal {
    /// Resolves the worker command: this binary in its `worker` mode.
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let program = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // Workers inherit the supervisor's pinning to one CPU; they widen
        // it again to every CPU the benchmark may use.
        let cpus: Vec<String> = host::cpus().iter().map(usize::to_string).collect();
        let mut args = vec![
            "worker".to_owned(),
            "--seed".to_owned(),
            seed.to_string(),
            "--cpus".to_owned(),
            cpus.join(","),
        ];
        if quick {
            args.push("--quick".to_owned());
        }
        Ok(Self {
            seed,
            design: design(quick),
            plan: plan(),
            worker: WorkerSpec { program, args },
            scratch: None,
            reps: 0,
        })
    }

    fn supervise(&self, dir: &Path) -> Result<ShardedCampaign, String> {
        supervise_shards(
            &self.design,
            &config(self.seed),
            &policy(),
            &durability(dir),
            &self.worker,
        )
        .map_err(|e| format!("supervise: {e}"))
    }

    fn journals(dir: &Path) -> Vec<PathBuf> {
        (0..SHARDS).map(|s| shard_journal_path(dir, s)).collect()
    }
}

impl Workload for ShardJournal {
    type Output = ShardOut;

    fn threads(&self) -> usize {
        1
    }

    fn shards(&self) -> usize {
        SHARDS
    }

    fn rep(&mut self, tracer: Option<&Tracer>) -> Result<ShardOut, String> {
        // Every repetition starts from an empty journal directory.
        if self.scratch.is_none() {
            self.scratch = Some(ScratchDir::new("shard_journal")?);
        }
        let scratch = self.scratch.as_ref().ok_or("no scratch directory")?;
        let dir = scratch.child(&format!("rep-{}", self.reps))?;
        self.reps += 1;
        let (campaign, _) = timed(tracer, "supervise", || self.supervise(dir.path()));
        Ok(ShardOut {
            campaign: campaign?,
            dir,
            returned: epoch_s(),
        })
    }

    fn stats(&self, out: &ShardOut) -> RepStats {
        let runs = &out.campaign.result.runs;
        let samples: u64 = runs
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .map(|o| o.samples.len() as u64)
            .sum();
        RepStats {
            digest: result_digest(&out.campaign.result),
            samples,
            result_bytes: 8 * samples,
            attempted: runs.len() as u64,
            failed: runs.iter().filter(|r| !r.fate.completed()).count() as u64,
        }
    }

    /// Reads the workers' own wall times and end times, which split the
    /// repetition into worker time and the supervisor's merge after the
    /// last worker ended; times `Journal::load` on the produced shard
    /// journals, re-appends the run's records to a scratch journal, and
    /// resumes the finished campaign from its journals.
    fn layers(&mut self, out: &ShardOut, _: &Trace, wall_s: f64) -> Result<Layers, String> {
        let dir = out.dir.path();
        let (mut worker_s, mut last_end) = (0.0f64, 0.0f64);
        let (mut parse_s, mut bytes, mut frames) = (0.0, 0u64, 0usize);
        let mut frame_bytes = Vec::new();
        for path in Self::journals(dir) {
            let side = std::fs::read_to_string(wall_path(&path))
                .map_err(|e| format!("worker wall time: {e}"))?;
            let parsed: Vec<f64> = side
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("worker wall time {side:?}: {e}"))?;
            let [wall, ended] = parsed[..] else {
                return Err(format!("worker wall time {side:?}: want two numbers"));
            };
            worker_s = worker_s.max(wall);
            last_end = last_end.max(ended);
            let raw = std::fs::read(&path).map_err(|e| format!("reading journal: {e}"))?;
            bytes += raw.len() as u64;
            let text = String::from_utf8_lossy(&raw);
            frame_bytes.extend(
                text.lines()
                    .filter(|l| l.contains("\"kind\":\"point\""))
                    .map(|l| l.len() as f64),
            );
            let t = Instant::now();
            let snapshot = Journal::load(&path).map_err(|e| format!("loading journal: {e}"))?;
            parse_s += t.elapsed().as_secs_f64();
            frames += snapshot.frames;
        }

        let scratch = dir.join("reappend.journal");
        let meta = JournalMeta::new(&self.design, self.seed, CODE_VERSION, CONFIG_FINGERPRINT);
        let (mut journal, _) =
            Journal::open_resume(&scratch, &meta).map_err(|e| format!("scratch journal: {e}"))?;
        let mut append_s = Vec::new();
        for (idx, run) in out.campaign.result.runs.iter().enumerate() {
            let record = PointRecord::from_run(idx, point_key(&meta, &run.point), run);
            let t = Instant::now();
            journal
                .append_point(&record)
                .map_err(|e| format!("append: {e}"))?;
            append_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        journal.sync().map_err(|e| format!("sync: {e}"))?;
        let sync_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let resumed = self.supervise(dir)?;
        let resume_s = t.elapsed().as_secs_f64();

        let report = &out.campaign.report;
        let stats = self.stats(out);
        // What the supervisor did after its last worker ended: confirm
        // that nothing is left to run and merge the journals.
        let merge_s = (out.returned - last_end).max(0.0);
        Ok(Layers {
            explained_s: worker_s + merge_s,
            replayed: vec![
                Replayed::new("journal.parse_share", parse_s, false)
                    .rate("journal.parse_bytes_per_s", bytes as f64),
                Replayed::new("journal.resume_ratio", resume_s, false),
            ],
            values: vec![
                ("shard.workers_spawned", report.workers_spawned as f64),
                ("shard.workers_respawned", report.workers_respawned as f64),
                ("shard.worker_share", worker_s / wall_s),
                ("shard.merge_share", merge_s / wall_s),
                ("journal.frames", frames as f64),
                ("journal.bytes", bytes as f64),
                ("journal.frame_bytes_p50", median(&frame_bytes)),
                ("journal.append_per_s", 1.0 / median(&append_s)),
                (
                    "journal.append_p99_over_p50",
                    quantile(&append_s, 0.99) / median(&append_s),
                ),
                ("journal.sync_per_s", 1.0 / sync_s),
            ],
            checks: vec![Check::new(
                "resume replays every point from the journals without a worker",
                result_digest(&resumed.result) == stats.digest
                    && resumed.report.workers_spawned == 0,
                format!(
                    "{} workers spawned on resume",
                    resumed.report.workers_spawned
                ),
            )],
        })
    }

    fn verify(&mut self, out: &ShardOut) -> Vec<Check> {
        let reference = run_campaign_resilient(
            &self.design,
            &self.plan,
            &config(self.seed),
            &RetryPolicy::default(),
            measure,
        );
        let merged = result_digest(&out.campaign.result);
        let (ok, detail) = match reference {
            Ok(r) => (
                result_digest(&r) == merged,
                format!("{:016x} vs {merged:016x}", result_digest(&r)),
            ),
            Err(e) => (false, e.to_string()),
        };
        let completed = out
            .campaign
            .result
            .runs
            .iter()
            .all(|r| matches!(r.fate, PointFate::Completed { attempts: 1, .. }));
        vec![
            Check::new(
                "merged shard result equals the in-process campaign",
                ok,
                detail,
            ),
            Check::new(
                "every point completed first time, no worker respawned",
                completed && out.campaign.report.workers_respawned == 0,
                format!("{} respawns", out.campaign.report.workers_respawned),
            ),
        ]
    }
}

/// The shard worker: runs its assigned points into its journal, then
/// writes its own wall time and its end time next to the journal.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let start = Instant::now();
    let (mut seed, mut quick, mut journal, mut points) = (None, false, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--quick" => quick = true,
            "--cpus" => {
                let cpus: Vec<usize> = value()?
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--cpus: {e}"))?;
                host::pin_current_thread(&cpus);
            }
            f if f == SHARD_JOURNAL_FLAG => journal = Some(PathBuf::from(value()?)),
            f if f == SHARD_POINTS_FLAG => points = Some(parse_point_list(value()?)?),
            other => return Err(format!("unknown worker argument {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let journal = journal.ok_or(format!("{SHARD_JOURNAL_FLAG} is required"))?;
    let points = points.ok_or(format!("{SHARD_POINTS_FLAG} is required"))?;
    run_campaign_resilient_journaled_subset(
        &design(quick),
        &plan(),
        &config(seed),
        &RetryPolicy::default(),
        &JournalSpec {
            path: &journal,
            code_version: CODE_VERSION,
            config_fingerprint: CONFIG_FINGERPRINT,
        },
        &points,
        measure,
    )
    .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    std::fs::write(wall_path(&journal), format!("{wall} {}", epoch_s()))
        .map_err(|e| format!("writing worker wall time: {e}"))
}
