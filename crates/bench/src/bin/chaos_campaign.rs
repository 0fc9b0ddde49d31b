//! Chaos harness for the durability layer: a fixed demo campaign that
//! can be journaled, killed with SIGKILL mid-run, resumed, sharded
//! across supervised worker processes, and deliberately poisoned — so
//! CI can assert the central durability guarantee end-to-end:
//!
//! > an interrupted-then-resumed campaign is **bit-identical** to an
//! > uninterrupted one, and a point that crashes its worker K times is
//! > quarantined without failing the campaign.
//!
//! Subcommands:
//!
//! * `reference [--threads T]` — run the demo campaign in-process and
//!   print its canonical result digest;
//! * `run --journal <path> [--threads T] [--slow-us N]` — the journaled
//!   run (kill it at any moment; rerun to resume);
//! * `worker --shard-journal <path> --shard-points <csv> [--slow-us N]
//!   [--poison-idx I]` — the self-exec shard worker mode the supervisor
//!   spawns;
//! * `supervise --journal-dir <dir> --shards N [--slow-us N]
//!   [--poison-idx I] [--strikes K] [--heartbeat-ms H]` — supervised
//!   process-shard execution of the same campaign;
//! * `selftest` — the whole chaos dance (reference digest equal to
//!   [`REFERENCE_DIGEST`], kill -9 + resume bit-identity, shard counts
//!   1/2/4, supervisor kill + resume, poisoned-point quarantine) with a
//!   non-zero exit on any violation.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use scibench::experiment::journal::{result_digest, JournalSpec};
use scibench::experiment::{
    run_campaign_resilient, run_campaign_resilient_journaled,
    run_campaign_resilient_journaled_subset, CampaignConfig, Design, Factor, MeasureFailure,
    MeasurementPlan, ResilientCampaignResult, RetryPolicy, RunPoint, StoppingRule,
};
use scibench::parallel::shard::{
    parse_point_list, supervise_shards, ShardDurability, ShardPolicy, ShardedCampaign, WorkerSpec,
    SHARD_JOURNAL_FLAG, SHARD_POINTS_FLAG,
};
use scibench_sim::rng::SimRng;

const CHAOS_SEED: u64 = 0xC0FF_EE01;
const CODE_VERSION: &str = concat!("chaos-campaign-", env!("CARGO_PKG_VERSION"));
const CONFIG_FINGERPRINT: &str = "chaos-demo-machine-v1";

/// Digest of the demo campaign's in-process result at any thread count.
/// A change that moves any bit of the campaign moves this digest.
const REFERENCE_DIGEST: u64 = 0xc699_31b4_b3e7_32e3;

fn chaos_design() -> Design {
    Design::new(vec![
        Factor::new("op", &["latency", "bandwidth", "reduce"]),
        Factor::numeric("size", &[8.0, 64.0, 512.0, 4096.0]),
    ])
}

fn chaos_plan() -> MeasurementPlan {
    MeasurementPlan::new("chaos-op").stopping(StoppingRule::FixedCount(20))
}

fn chaos_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed: CHAOS_SEED,
        threads,
    }
}

/// Runtime chaos knobs shared by all subcommands.
#[derive(Debug, Clone, Copy, Default)]
struct Knobs {
    /// Real-time sleep per measure call, so a parent has a window to
    /// SIGKILL this process mid-campaign.
    slow_us: u64,
    /// Design index whose measurement calls `abort()` — a segfault-class
    /// poisoned point for the quarantine path.
    poison_idx: Option<usize>,
}

/// The demo measurement: deterministic per (seed, design index), with a
/// small injected flake rate so retries and dropped samples occur.
fn chaos_measure(knobs: Knobs) -> impl Fn(&RunPoint, &mut SimRng) -> Result<f64, MeasureFailure> {
    let index_of: HashMap<Vec<String>, usize> = chaos_design()
        .full_factorial()
        .into_iter()
        .enumerate()
        .map(|(idx, p)| (p.levels, idx))
        .collect();
    move |point, rng| {
        if knobs.slow_us > 0 {
            std::thread::sleep(Duration::from_micros(knobs.slow_us));
        }
        if knobs.poison_idx.is_some() && knobs.poison_idx == index_of.get(&point.levels).copied() {
            // A crash the in-process runner cannot contain.
            std::process::abort();
        }
        if rng.uniform() < 0.05 {
            return Err(MeasureFailure::Failed("injected flake".into()));
        }
        let base = match point.level(0) {
            "latency" => 100.0,
            "bandwidth" => 200.0,
            _ => 300.0,
        };
        let size: f64 = point.level(1).parse().expect("numeric size level");
        Ok(base + size.ln() + rng.uniform())
    }
}

fn reference_result(threads: usize) -> Result<ResilientCampaignResult, String> {
    run_campaign_resilient(
        &chaos_design(),
        &chaos_plan(),
        &chaos_config(threads),
        &RetryPolicy::default(),
        chaos_measure(Knobs::default()),
    )
    .map_err(|e| e.to_string())
}

fn spec(path: &Path) -> JournalSpec<'_> {
    JournalSpec {
        path,
        code_version: CODE_VERSION,
        config_fingerprint: CONFIG_FINGERPRINT,
    }
}

// ---------------------------------------------------------------------------
// Argument plumbing.
// ---------------------------------------------------------------------------

struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(args: &[String], flags_with_value: &[&str]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flags_with_value.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            values.insert(flag.clone(), value.clone());
        }
        Ok(Args { values })
    }

    fn path(&self, flag: &str) -> Result<PathBuf, String> {
        self.values
            .get(flag)
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} is required"))
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.values.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
        }
    }

    fn knobs(&self) -> Result<Knobs, String> {
        Ok(Knobs {
            slow_us: self.num("--slow-us", 0u64)?,
            poison_idx: match self.values.get("--poison-idx") {
                None => None,
                Some(v) => Some(v.parse().map_err(|_| format!("bad --poison-idx: {v}"))?),
            },
        })
    }

    fn knob_args(&self) -> Vec<String> {
        let mut out = Vec::new();
        for flag in ["--slow-us", "--poison-idx"] {
            if let Some(v) = self.values.get(flag) {
                out.push(flag.to_owned());
                out.push(v.clone());
            }
        }
        out
    }
}

const COMMON_FLAGS: &[&str] = &["--slow-us", "--poison-idx", "--threads"];

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

fn cmd_reference(args: &Args) -> Result<(), String> {
    let threads = args.num("--threads", 1usize)?;
    let result = reference_result(threads)?;
    println!("digest={:016x}", result_digest(&result));
    println!("{}", result.health.render());
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let path = args.path("--journal")?;
    let threads = args.num("--threads", 2usize)?;
    let knobs = args.knobs()?;
    let campaign = run_campaign_resilient_journaled(
        &chaos_design(),
        &chaos_plan(),
        &chaos_config(threads),
        &RetryPolicy::default(),
        &spec(&path),
        chaos_measure(knobs),
    )
    .map_err(|e| e.to_string())?;
    println!("digest={:016x}", result_digest(&campaign.result));
    println!(
        "resumed={} executed={} torn={}",
        campaign.resume.points_resumed,
        campaign.resume.points_executed,
        campaign.resume.torn_tail_dropped
    );
    println!("{}", campaign.result.health.render());
    Ok(())
}

fn cmd_worker(args: &Args) -> Result<(), String> {
    let path = args.path(SHARD_JOURNAL_FLAG)?;
    let csv = args
        .values
        .get(SHARD_POINTS_FLAG)
        .ok_or_else(|| format!("{SHARD_POINTS_FLAG} is required"))?;
    let indices = parse_point_list(csv)?;
    let knobs = args.knobs()?;
    // One thread per worker: crash attribution needs at most one point
    // in flight per process.
    run_campaign_resilient_journaled_subset(
        &chaos_design(),
        &chaos_plan(),
        &chaos_config(1),
        &RetryPolicy::default(),
        &spec(&path),
        &indices,
        chaos_measure(knobs),
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

fn cmd_supervise(args: &Args) -> Result<(), String> {
    let dir = args.path("--journal-dir")?;
    let campaign = supervise(args, &dir)?;
    println!("digest={:016x}", result_digest(&campaign.result));
    println!(
        "spawned={} respawned={} hangs_killed={} crashes={} poisoned={:?} aborted={}",
        campaign.report.workers_spawned,
        campaign.report.workers_respawned,
        campaign.report.hangs_killed,
        campaign.report.crashes_observed,
        campaign.report.points_poisoned,
        campaign.report.shards_aborted,
    );
    println!("{}", campaign.result.health.render());
    Ok(())
}

fn supervise(args: &Args, dir: &Path) -> Result<ShardedCampaign, String> {
    let shards = args.num("--shards", 2usize)?;
    let strikes = args.num("--strikes", 3usize)?;
    let heartbeat_ms = args.num("--heartbeat-ms", 30_000u64)?;
    let program = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut worker_args = vec!["worker".to_owned()];
    worker_args.extend(args.knob_args());
    supervise_shards(
        &chaos_design(),
        &chaos_config(1),
        &ShardPolicy {
            shards,
            heartbeat_timeout_ms: heartbeat_ms,
            poll_interval_ms: 10,
            max_point_strikes: strikes,
            max_barren_crashes: 2,
        },
        &ShardDurability {
            dir,
            code_version: CODE_VERSION,
            config_fingerprint: CONFIG_FINGERPRINT,
        },
        &WorkerSpec {
            program,
            args: worker_args,
        },
    )
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Selftest: the full chaos dance.
// ---------------------------------------------------------------------------

fn selftest_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scibench-chaos-selftest-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create selftest dir");
    dir
}

fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        println!("PASS {what}");
        Ok(())
    } else {
        Err(format!("FAIL {what}"))
    }
}

/// Spawns this binary with `args`, SIGKILLs it after `after_ms`, and
/// reports whether the kill landed before a clean exit.
fn spawn_and_kill(args: &[&str], after_ms: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    std::thread::sleep(Duration::from_millis(after_ms));
    let still_running = child.try_wait().map_err(|e| e.to_string())?.is_none();
    child.kill().ok(); // SIGKILL on unix
    child.wait().map_err(|e| e.to_string())?;
    Ok(still_running)
}

/// Waits until every `shard-*.journal` under `dir` has stopped growing.
///
/// SIGKILLing a supervisor orphans its worker processes; they keep
/// appending to their shard journals until their subset is done. A
/// replacement supervisor must not truncate-and-reopen those files
/// while the orphans still hold them (same rule as production: one
/// supervisor incarnation per journal dir at a time).
fn wait_for_orphan_workers(dir: &Path) -> Result<(), String> {
    let lens = |dir: &Path| -> Vec<(PathBuf, u64)> {
        let mut out: Vec<(PathBuf, u64)> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".journal"))
            .map(|e| {
                let len = e.metadata().map(|m| m.len()).unwrap_or(0);
                (e.path(), len)
            })
            .collect();
        out.sort();
        out
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut last = lens(dir);
    loop {
        std::thread::sleep(Duration::from_millis(400));
        let now = lens(dir);
        if now == last {
            return Ok(());
        }
        if std::time::Instant::now() > deadline {
            return Err("orphaned workers still writing after 30s".into());
        }
        last = now;
    }
}

fn cmd_selftest() -> Result<(), String> {
    let reference = reference_result(1)?;
    let want = result_digest(&reference);
    println!("reference digest={want:016x}");
    check(
        want == REFERENCE_DIGEST,
        &format!("reference digest equals the pinned {REFERENCE_DIGEST:016x}"),
    )?;

    // 1. kill -9 a journaled run mid-campaign, then resume: the merged
    //    result must be bit-identical to the uninterrupted reference.
    let dir = selftest_dir("kill9");
    let journal = dir.join("campaign.journal");
    let journal_str = journal.display().to_string();
    let mut killed_midway = false;
    for attempt in 0..5 {
        // ~40ms/point (20 calls x 2ms): killing after 120ms lands mid-run.
        let interrupted = spawn_and_kill(
            &["run", "--journal", &journal_str, "--slow-us", "2000"],
            120,
        )?;
        let progressed = journal.exists();
        if interrupted && progressed {
            killed_midway = true;
            break;
        }
        println!(
            "note: kill window missed (attempt {attempt}, interrupted={interrupted}, \
             journal_exists={progressed}); retrying"
        );
        let _ = std::fs::remove_file(&journal);
    }
    check(killed_midway, "SIGKILL landed mid-campaign")?;
    let resumed = run_campaign_resilient_journaled(
        &chaos_design(),
        &chaos_plan(),
        &chaos_config(2),
        &RetryPolicy::default(),
        &spec(&journal),
        chaos_measure(Knobs::default()),
    )
    .map_err(|e| e.to_string())?;
    check(
        result_digest(&resumed.result) == want,
        "kill -9 + resume is bit-identical to the uninterrupted run",
    )?;
    check(
        resumed.resume.points_executed > 0,
        "resume executed the missing points itself",
    )?;

    // 2. Sharded execution at several shard counts reproduces the same
    //    digest, each from a cold start.
    for shards in [1usize, 2, 4] {
        let dir = selftest_dir(&format!("shards-{shards}"));
        let args = Args::parse(&["--shards".to_owned(), shards.to_string()], &["--shards"])?;
        let sharded = supervise(&args, &dir)?;
        check(
            result_digest(&sharded.result) == want,
            &format!("supervised {shards}-shard campaign is bit-identical"),
        )?;
    }

    // 3. Kill -9 the *supervisor* mid-campaign; a fresh supervisor over
    //    the same journal dir finishes the job bit-identically.
    let dir = selftest_dir("supervisor-kill");
    let dir_str = dir.display().to_string();
    spawn_and_kill(
        &[
            "supervise",
            "--journal-dir",
            &dir_str,
            "--shards",
            "2",
            "--slow-us",
            "2000",
        ],
        200,
    )?;
    wait_for_orphan_workers(&dir)?;
    let args = Args::parse(&[], &[])?;
    let finished = supervise(&args, &dir)?;
    check(
        result_digest(&finished.result) == want,
        "supervisor kill + restart resumes bit-identically",
    )?;

    // 4. A poisoned point (worker abort()s on design index 3) is
    //    quarantined after K strikes without failing the campaign.
    let dir = selftest_dir("poison");
    let strikes = 2usize;
    let args = Args::parse(
        &[
            "--poison-idx".to_owned(),
            "3".to_owned(),
            "--strikes".to_owned(),
            strikes.to_string(),
        ],
        &["--poison-idx", "--strikes"],
    )?;
    let poisoned = supervise(&args, &dir)?;
    check(
        poisoned.report.points_poisoned == vec![3],
        "poisoned point quarantined",
    )?;
    check(
        poisoned.result.health.points_poisoned == 1
            && poisoned.result.health.points_completed == chaos_design().size() - 1,
        "campaign completed around the quarantined point",
    )?;
    check(
        poisoned.result.health.workers_respawned >= 1,
        "supervisor disclosed its respawns",
    )?;
    // Every non-poisoned point still matches the reference bit-for-bit.
    let mut clean_matches = true;
    for (idx, (a, b)) in poisoned.result.runs.iter().zip(&reference.runs).enumerate() {
        if idx == 3 {
            continue;
        }
        let (oa, ob) = (a.outcome.as_ref(), b.outcome.as_ref());
        let bits = |o: Option<&scibench::experiment::MeasurementOutcome>| {
            o.map(|o| o.samples.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        if a.fate != b.fate || bits(oa) != bits(ob) {
            clean_matches = false;
        }
    }
    check(
        clean_matches,
        "non-poisoned points bit-identical to reference",
    )?;

    println!("selftest OK");
    Ok(())
}

// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("reference") => Args::parse(&argv[1..], COMMON_FLAGS).and_then(|a| cmd_reference(&a)),
        Some("run") => {
            let flags: Vec<&str> = COMMON_FLAGS.iter().copied().chain(["--journal"]).collect();
            Args::parse(&argv[1..], &flags).and_then(|a| cmd_run(&a))
        }
        Some("worker") => {
            let flags: Vec<&str> = COMMON_FLAGS
                .iter()
                .copied()
                .chain([SHARD_JOURNAL_FLAG, SHARD_POINTS_FLAG])
                .collect();
            Args::parse(&argv[1..], &flags).and_then(|a| cmd_worker(&a))
        }
        Some("supervise") => {
            let flags: Vec<&str> = COMMON_FLAGS
                .iter()
                .copied()
                .chain(["--journal-dir", "--shards", "--strikes", "--heartbeat-ms"])
                .collect();
            Args::parse(&argv[1..], &flags).and_then(|a| cmd_supervise(&a))
        }
        Some("selftest") => cmd_selftest(),
        other => Err(format!(
            "usage: chaos_campaign <reference|run|worker|supervise|selftest> [flags], got {other:?}"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("chaos_campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_digest_is_pinned_at_one_and_two_threads() {
        for threads in [1, 2] {
            let result = reference_result(threads).unwrap();
            assert_eq!(
                result_digest(&result),
                REFERENCE_DIGEST,
                "threads = {threads}"
            );
        }
    }
}
