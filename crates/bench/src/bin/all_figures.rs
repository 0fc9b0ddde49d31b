//! Regenerates every table and figure in one run, writing all text
//! renditions and CSV exports into `figures/`.
//!
//! Figures are independent of each other, so they execute concurrently on
//! the deterministic work-stealing pool ([`scibench::parallel::pool`]);
//! each figure derives its randomness from the shared seed alone, so the
//! output files are identical no matter how the figures are scheduled.
//! Progress messages are buffered per figure and printed in figure order.
//!
//! `SCIBENCH_SAMPLES` scales the ping-pong sample counts (default 1M,
//! matching the paper); a value that is not a positive decimal count
//! exits 2.
//!
//! `--trace <path>` records a low-overhead event trace of the whole run
//! (one [`category::FIGURE`] span per figure plus the pool's task and
//! scheduling events), validates it, writes it as chrome://tracing JSON,
//! and prints the self-accounting harness-overhead report (Rules 4–5).
//!
//! `--journal <path>` records each completed figure in a crash-consistent
//! journal ([`scibench::experiment::journal`]); `--resume` replays the
//! journal first and skips every figure already completed by an earlier
//! (possibly killed) invocation, re-printing its cached progress lines.
//! Without `--resume` an existing journal is discarded and the run starts
//! fresh. The journal is keyed to the sample count, seed and crate
//! version, so a stale journal from a different configuration is refused
//! rather than silently reused.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

use scibench::experiment::journal::{point_key, Journal, JournalKey, JournalMeta, PointRecord};
use scibench::experiment::{Design, Factor, PointFate, RunPoint};
use scibench::parallel::pool;
use scibench_bench::figures::*;
use scibench_bench::{output, samples_from_env, DEFAULT_SEED};
use scibench_trace::{
    category, lane_of, to_chrome_json, validate_chrome_trace, ArgValue, OverheadProbe,
    OverheadReport, Tracer,
};

/// Figure lanes live above the pool-worker lanes (0..threads) and the
/// campaign lanes (`1 << 16` block) so the three families never collide.
const FIGURE_LANE_BASE: u32 = 2 << 16;

/// One figure job: renders and writes its artifacts, returning the
/// progress lines to print (in figure order) on success.
type FigureJob = Box<dyn Fn() -> Result<Vec<String>, String> + Send + Sync>;

fn save(name: &str, text: &str) -> Result<String, String> {
    let path = output::figures_dir().join(format!("{name}.txt"));
    fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!("wrote {}", path.display()))
}

fn csv(name: &str, dataset: &scibench::data::DataSet) -> Result<String, String> {
    let path = output::write_csv(&output::figures_dir(), name, dataset)
        .map_err(|e| format!("csv {name}: {e}"))?;
    Ok(format!("wrote {}", path.display()))
}

/// Journal identity: a journal written by a different crate version must
/// never be resumed (the figure code may have changed).
const CODE_VERSION: &str = concat!("all-figures-", env!("CARGO_PKG_VERSION"));

/// Parsed command line, and the sample count of the 10⁶-sample figures.
#[derive(Debug, Default)]
struct CliArgs {
    trace: Option<PathBuf>,
    journal: Option<PathBuf>,
    resume: bool,
    samples: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("all_figures: {e}");
            return ExitCode::from(2);
        }
    };
    match run(cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("all_figures: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut cli = CliArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => {
                cli.trace = Some(PathBuf::from(it.next().ok_or("--trace requires a path")?));
            }
            "--journal" => {
                cli.journal = Some(PathBuf::from(it.next().ok_or("--journal requires a path")?));
            }
            "--resume" => cli.resume = true,
            other => {
                return Err(format!(
                    "unknown argument {other:?} \
                     (usage: all_figures [--trace <path>] [--journal <path> [--resume]])"
                ))
            }
        }
    }
    if cli.resume && cli.journal.is_none() {
        return Err("--resume requires --journal <path>".into());
    }
    cli.samples = samples_from_env(1_000_000)?;
    Ok(cli)
}

/// Per-run durability state when `--journal` is active.
struct FigureJournal {
    /// The open journal; figures append from pool threads.
    journal: Mutex<Journal>,
    /// Content-addressed key per figure (by job index).
    keys: Vec<JournalKey>,
    /// Progress lines of figures already completed in an earlier
    /// invocation (by job index); `None` means the figure must run.
    cached: Vec<Option<Vec<String>>>,
}

fn run(cli: CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    let trace_path = cli.trace;
    let big = cli.samples;
    let seed = DEFAULT_SEED;
    fs::create_dir_all(output::figures_dir())?;
    // Probe the primitive timer/record costs *before* the run so the
    // self-accounting report reflects an unloaded machine.
    let tracer = trace_path.as_ref().map(|_| Tracer::new());
    let probe = tracer.as_ref().map(|_| OverheadProbe::measure());

    let jobs: Vec<(&'static str, FigureJob)> = vec![
        (
            "fig1_hpl",
            Box::new(move || {
                let f = fig1_hpl::compute(50, seed).map_err(|e| e.to_string())?;
                Ok(vec![
                    save("fig1_hpl", &f.render())?,
                    csv("fig1_hpl", &f.dataset())?,
                ])
            }),
        ),
        (
            "table1",
            Box::new(|| {
                let t = table1::compute();
                Ok(vec![
                    save("table1_survey", &t.render())?,
                    csv("table1_scores", &t.dataset())?,
                ])
            }),
        ),
        (
            "fig2_normalization",
            Box::new(move || {
                let f = fig2_normalization::compute(big, seed).map_err(|e| e.to_string())?;
                Ok(vec![
                    save("fig2_normalization", &f.render())?,
                    csv("fig2_qq", &f.dataset())?,
                ])
            }),
        ),
        (
            "fig3_significance",
            Box::new(move || {
                let f = fig3_significance::compute(big, seed).map_err(|e| e.to_string())?;
                let mut msgs = vec![
                    save("fig3_significance", &f.render())?,
                    csv("fig3_significance", &f.dataset())?,
                ];
                // The reproduction audits itself against the twelve rules.
                let audit = scibench::rules::RuleAudit::check(&f.report());
                msgs.push(save("fig3_rule_audit", &audit.render())?);
                if !audit.passed() {
                    return Err(format!(
                        "figure 3 report failed its own audit:\n{}",
                        audit.render()
                    ));
                }
                Ok(msgs)
            }),
        ),
        (
            "fig4_quantreg",
            Box::new(move || {
                let f = fig4_quantreg::compute(big, seed).map_err(|e| e.to_string())?;
                Ok(vec![
                    save("fig4_quantile_regression", &f.render())?,
                    csv("fig4_quantreg", &f.dataset())?,
                ])
            }),
        ),
        (
            "fig5_reduce",
            Box::new(move || {
                let f = fig5_reduce::compute(1_000, seed).map_err(|e| e.to_string())?;
                Ok(vec![
                    save("fig5_reduce_scaling", &f.render())?,
                    csv("fig5_reduce", &f.dataset())?,
                ])
            }),
        ),
        (
            "fig6_variation",
            Box::new(move || {
                let f = fig6_variation::compute(64, 1_000, seed).map_err(|e| e.to_string())?;
                Ok(vec![
                    save("fig6_process_variation", &f.render())?,
                    csv("fig6_variation", &f.dataset())?,
                ])
            }),
        ),
        (
            "fig7ab_bounds",
            Box::new(move || {
                let f = fig7ab_bounds::compute(10, seed).map_err(|e| e.to_string())?;
                Ok(vec![
                    save("fig7ab_bounds", &f.render())?,
                    csv("fig7ab_bounds", &f.dataset())?,
                ])
            }),
        ),
        (
            "fig7c_plots",
            Box::new(move || {
                let f = fig7c_plots::compute(big, seed).map_err(|e| e.to_string())?;
                Ok(vec![
                    save("fig7c_plots", &f.render())?,
                    csv("fig7c_plots", &f.dataset())?,
                ])
            }),
        ),
        (
            "means_example",
            Box::new(|| {
                let ex = means_example::compute().map_err(|e| e.to_string())?;
                Ok(vec![save("means_worked_example", &ex.render())?])
            }),
        ),
    ];

    let figure_journal = match &cli.journal {
        None => None,
        Some(path) => {
            if !cli.resume {
                // A fresh (non-resume) run must not silently absorb an
                // old journal's records.
                match fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(format!("removing stale {}: {e}", path.display()).into()),
                }
            }
            // One synthetic factor whose levels are the figure names: the
            // journal machinery then keys each figure like a design point.
            let names: Vec<&str> = jobs.iter().map(|(name, _)| *name).collect();
            let design = Design::new(vec![Factor::new("figure", &names)]);
            let meta = JournalMeta::new(&design, seed, CODE_VERSION, &format!("samples={big}"));
            let (journal, snapshot) = Journal::open_resume(path, &meta)?;
            let keys: Vec<JournalKey> = names
                .iter()
                .map(|name| {
                    point_key(
                        &meta,
                        &RunPoint {
                            levels: vec![(*name).to_owned()],
                        },
                    )
                })
                .collect();
            let cached: Vec<Option<Vec<String>>> = keys
                .iter()
                .map(|k| snapshot.record_for(*k).map(|r| r.notes.clone()))
                .collect();
            Some(FigureJournal {
                journal: Mutex::new(journal),
                keys,
                cached,
            })
        }
    };

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let results = pool::run_indexed_scoped_traced(
        jobs.len(),
        threads,
        tracer.as_ref(),
        || (),
        |(), i| {
            // Each figure gets its own lane: a job runs entirely on one
            // worker, so the per-job lane has exactly one writer.
            let mut lane = lane_of(tracer.as_ref(), FIGURE_LANE_BASE + i as u32);
            let start = lane.begin();
            let out = match &figure_journal {
                Some(ctx) => match &ctx.cached[i] {
                    // Completed by an earlier invocation: replay, don't rerun.
                    Some(notes) => Ok(notes.clone()),
                    None => run_journaled(ctx, i, jobs[i].0, &jobs[i].1),
                },
                None => (jobs[i].1)(),
            };
            lane.end(
                start,
                category::FIGURE,
                jobs[i].0,
                &[("ok", ArgValue::Bool(out.is_ok()))],
            );
            out
        },
    );

    // Resolve in figure order: progress lines stay stable across thread
    // counts and the first failing figure (by index) wins.
    for (result, (name, _)) in results.into_iter().zip(&jobs) {
        match result {
            Ok(Ok(messages)) => {
                for line in messages {
                    println!("{line}");
                }
            }
            Ok(Err(e)) => return Err(format!("{name}: {e}").into()),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    if let (Some(ctx), Some(path)) = (&figure_journal, &cli.journal) {
        ctx.journal.lock().expect("journal lock poisoned").sync()?;
        let replayed = ctx.cached.iter().filter(|c| c.is_some()).count();
        println!(
            "journal {}: {replayed} figures replayed, {} executed",
            path.display(),
            jobs.len() - replayed
        );
    }

    if let (Some(path), Some(tracer), Some(probe)) = (&trace_path, &tracer, &probe) {
        export_trace(path, tracer, probe)?;
    }

    println!("\nall figures regenerated (seed {seed:#x}, {big} samples for 1M-sample figures)");
    Ok(())
}

/// Runs one figure under the journal: `begin` frame before, completed
/// [`PointRecord`] (with the progress lines as replayable notes) after.
/// A figure that fails writes no record, so a rerun retries it.
fn run_journaled(
    ctx: &FigureJournal,
    index: usize,
    name: &str,
    job: &FigureJob,
) -> Result<Vec<String>, String> {
    let key = ctx.keys[index];
    ctx.journal
        .lock()
        .expect("journal lock poisoned")
        .append_begin(index, key)
        .map_err(|e| e.to_string())?;
    let messages = job()?;
    let record = PointRecord {
        index,
        key,
        levels: vec![name.to_owned()],
        fate: PointFate::Completed {
            attempts: 1,
            samples_dropped: 0,
        },
        panics_contained: 0,
        outcome: None,
        notes: messages.clone(),
    };
    ctx.journal
        .lock()
        .expect("journal lock poisoned")
        .append_point(&record)
        .map_err(|e| e.to_string())?;
    Ok(messages)
}

/// Drains, validates, and writes the trace, then prints the Rule 4/5
/// self-accounting report. Every failure is a typed error (non-zero
/// exit), including the export I/O.
fn export_trace(
    path: &PathBuf,
    tracer: &Tracer,
    probe: &OverheadProbe,
) -> Result<(), Box<dyn std::error::Error>> {
    let trace = tracer.drain();
    let text = to_chrome_json(&trace);
    // Validate before writing so a malformed export never lands on disk.
    let validated =
        validate_chrome_trace(&text).map_err(|e| format!("trace failed validation: {e}"))?;
    fs::write(path, &text).map_err(|e| format!("writing trace {}: {e}", path.display()))?;
    println!(
        "wrote {} ({validated} events, chrome://tracing JSON)",
        path.display()
    );

    let report = OverheadReport::from_trace(&trace, probe, category::FIGURE);
    let rendered = report.render();
    print!("\n{rendered}");
    let report_path = output::figures_dir().join("harness_overhead.txt");
    fs::write(&report_path, &rendered)
        .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
    println!("wrote {}", report_path.display());
    Ok(())
}
