//! The scibench benchmark: five workloads measured from outside the
//! library, end to end (untraced runs) and layer by layer (traced runs).
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--quick] [--report <file>]
//! benchmark compare <base.jsonl> <new.jsonl>
//! ```
//!
//! A run prints every metric with its unit, n, quartiles and median CI,
//! then, as its last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero when any output
//! check fails. `--report` appends the full record (environment, raw
//! per-repetition values, checks) to a file that `compare` reads. See
//! README.md for the workloads, metrics and findings.

mod compare;
mod contract;
mod harness;
mod host;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use scibench_trace::export::json_escape;
use scibench_trace::OverheadProbe;

use contract::{Contract, Spec};
use harness::{repo_root, RunOptions, RunResult, Summary, SETUP_REPEATS};
use host::REFERENCE_S;

/// A parsed `--workload` command line.
#[derive(Debug)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    report: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let (mut quick, mut report) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--report" => report = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        quick,
        report,
    })
}

/// Rule 9: what a reader needs to reproduce the numbers.
struct Environment {
    nproc: usize,
    rustc: String,
    commit: String,
    probe: OverheadProbe,
}

impl Environment {
    fn capture() -> Self {
        let root = repo_root();
        let run = |cmd: &mut Command| {
            cmd.output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        };
        let commit = if root.join(".git").exists() {
            run(Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]))
        } else {
            None
        };
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: run(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            commit: commit.unwrap_or_else(|| "unknown (not a git checkout)".into()),
            probe: OverheadProbe::measure(),
        }
    }
}

/// One printed metric: its declaration and per-repetition values.
struct Measured<'a> {
    spec: &'a Spec,
    values: Vec<f64>,
    /// False for a per-layer metric of a layer the workload does not
    /// exercise, which reads 0.
    exercised: bool,
}

/// The metrics a run prints: every end-to-end metric untraced, every
/// per-layer metric traced.
fn select<'a>(
    contract: &'a Contract,
    res: &RunResult,
    traced: bool,
) -> Result<Vec<Measured<'a>>, String> {
    if let Some(name) = res
        .layers
        .keys()
        .find(|n| !contract.per_layer.iter().any(|s| s.name == **n))
    {
        return Err(format!(
            "workload produced undeclared per-layer metric {name}"
        ));
    }
    let specs = if traced {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    specs
        .iter()
        .map(|spec| {
            let (values, exercised) = match spec.name.as_str() {
                "wall_s" => (res.wall_s.clone(), true),
                "samples_per_s" => (res.samples_per_s.clone(), true),
                "setup_s" => (res.setup_s.clone(), true),
                "result_bytes" => (vec![res.result_bytes as f64], true),
                name => match res.layers.get(name) {
                    Some(values) => (values.clone(), true),
                    None => (vec![0.0], false),
                },
            };
            if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
                return Err(format!("{} has no finite value: {values:?}", spec.name));
            }
            Ok(Measured {
                spec,
                values,
                exercised,
            })
        })
        .collect()
}

fn json_num(v: f64) -> String {
    format!("{v}")
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", items.join(","))
}

/// The full run record `--report` appends: arguments, environment, every
/// metric with n, quartiles, median CI and per-repetition values, and the
/// checks.
fn report_line(
    args: &RunArgs,
    env: &Environment,
    res: &RunResult,
    metrics: &[(&Measured<'_>, Summary)],
    correct: bool,
    failed: u64,
) -> String {
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\
         \"correct\":{correct},\"attempted\":{},\"failed\":{failed},",
        json_escape(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.traced),
        args.quick,
        res.attempted + res.checks.len() as u64,
    );
    let _ = write!(
        out,
        "\"environment\":{{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"threads\":{},\
         \"shards\":{},\"repetitions\":{},\"setup_repeats\":{SETUP_REPEATS},\
         \"timer_read_ns\":{},\"record_ns\":{}}},\"metrics\":{{",
        env.nproc,
        json_escape(&env.rustc),
        json_escape(&env.commit),
        res.threads,
        res.shards,
        res.wall_s.len(),
        json_num(env.probe.timer_read_ns),
        json_num(env.probe.record_ns),
    );
    let entries: Vec<String> = metrics
        .iter()
        .map(|(m, s)| {
            let ci = s
                .ci95
                .map_or("null".to_owned(), |(lo, hi)| json_list(&[lo, hi]));
            format!(
                "\"{}\":{{\"unit\":\"{}\",\"value\":{},\"n\":{},\"q1\":{},\"q3\":{},\
                 \"ci95\":{ci},\"values\":{}}}",
                json_escape(&m.spec.name),
                json_escape(&m.spec.unit),
                json_num(s.median),
                s.n,
                json_num(s.q1),
                json_num(s.q3),
                json_list(&m.values),
            )
        })
        .collect();
    out.push_str(&entries.join(","));
    let _ = write!(
        out,
        "}},\"host\":{{\"peak_rss_mib\":{},\"kernel_nominal_s\":{},\
         \"kernel_s\":{},\"raw_setup_s\":{},\"raw_wall_s\":{}",
        json_num(res.peak_rss_mib),
        json_num(REFERENCE_S),
        json_list(&res.kernel_s),
        json_list(&res.raw_setup_s),
        json_list(&res.raw_wall_s),
    );
    let checks: Vec<String> = res
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                json_escape(&c.name),
                c.ok,
                json_escape(&c.detail)
            )
        })
        .collect();
    let _ = write!(out, "}},\"checks\":[{}]}}", checks.join(","));
    out
}

fn run_workload(args: &RunArgs, contract: &Contract) -> Result<bool, String> {
    let env = Environment::capture();
    let res = workloads::run(
        &args.workload,
        args.seed,
        args.quick,
        RunOptions {
            budget: Duration::from_secs_f64(args.seconds),
            traced: args.traced,
            quick: args.quick,
        },
    )?;
    let measured = select(contract, &res, args.traced)?;
    let summaries: Vec<(&Measured<'_>, Summary)> = measured
        .iter()
        .map(|m| Ok((m, Summary::of(&m.values)?)))
        .collect::<Result<_, String>>()?;

    println!(
        "benchmark {} seed={} seconds={} trace={} quick={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.quick
    );
    println!(
        "environment: nproc={} rustc=\"{}\" commit={} threads={} shards={} repetitions={} \
         setup_repeats={SETUP_REPEATS} timer_read_ns={:.1} record_ns={:.1}",
        env.nproc,
        env.rustc,
        env.commit,
        res.threads,
        res.shards,
        res.wall_s.len(),
        env.probe.timer_read_ns,
        env.probe.record_ns,
    );
    println!(
        "host: sample kernel median {} s (timings rescaled to {REFERENCE_S} s); \
         raw wall median {} s, raw set-up median {} s; peak resident set {} MiB",
        harness::median(&res.kernel_s),
        harness::median(&res.raw_wall_s),
        harness::median(&res.raw_setup_s),
        res.peak_rss_mib,
    );
    for (m, s) in &summaries {
        if !m.exercised {
            println!(
                "metric {} [{}]: not exercised by this workload, reads 0",
                m.spec.name, m.spec.unit
            );
            continue;
        }
        let ci = s
            .ci95
            .map_or("n/a (n < 6)".to_owned(), |(lo, hi)| format!("[{lo}, {hi}]"));
        println!(
            "metric {} [{}]: median={} n={} q1={} q3={} ci95={ci} values={:?}",
            m.spec.name, m.spec.unit, s.median, s.n, s.q1, s.q3, m.values
        );
    }
    for c in &res.checks {
        let verdict = if c.ok { "PASS" } else { "FAIL" };
        println!("check {verdict} {}: {}", c.name, c.detail);
    }
    if let Some(json) = &res.trace_json {
        let dir = repo_root().join(".bench_scratch");
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, json))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace of the last traced repetition: {}", path.display());
    }

    let failed_checks = res.checks.iter().filter(|c| !c.ok).count() as u64;
    let failed = res.failed + failed_checks;
    let correct = failed == 0;
    if let Some(path) = &args.report {
        let line = report_line(args, &env, &res, &summaries, correct, failed);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    let metrics: Vec<String> = summaries
        .iter()
        .map(|(m, s)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_escape(&m.spec.name),
                json_num(s.median),
                json_escape(&m.spec.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        res.attempted + res.checks.len() as u64,
        metrics.join(",")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("worker") => workloads::shard::worker_main(&args[1..]).map(|()| true),
        Some("compare") => match &args[1..] {
            [base, new] => contract::load().and_then(|c| {
                compare::run(base.as_ref(), new.as_ref(), &c).map(|regressed| !regressed)
            }),
            _ => Err("usage: benchmark compare <base.jsonl> <new.jsonl>".into()),
        },
        _ => parse_run_args(&args)
            .and_then(|a| contract::load().map(|c| (a, c)))
            .and_then(|(a, c)| run_workload(&a, &c)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_arguments_parse_and_reject_bad_input() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_run_args(&argv("--workload figures --seed 3 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.traced),
            ("figures", 3, true)
        );
        assert!(
            parse_run_args(&argv("--workload figures --seed 3 --seconds 10 --trace 2")).is_err()
        );
        assert!(parse_run_args(&argv("--workload figures --seconds 10")).is_err());
        assert!(parse_run_args(&argv("--workload figures --seed -1 --seconds 1")).is_err());
    }
}
