//! The measurement loop every workload shares.
//!
//! A run is a closed batch job on one process: the workload's set-up is
//! timed `SETUP_REPEATS` times, runs one untimed warm-up repetition, then
//! repeats its main operation until the wall-clock budget is spent, each
//! repetition starting when the previous one ended. A traced run
//! alternates an untraced and a traced repetition, so the tracing overhead
//! is the ratio of the two medians, and after each traced repetition the
//! workload replays its per-sample layers in isolation (untimed) to fill
//! the per-layer ledger.
//!
//! Every timing is host-normalized: the threads that make it are pinned to
//! CPUs whose speed [`HostSpeed`] samples throughout the run, and the
//! timing is rescaled to a host on which the sample kernel takes
//! [`REFERENCE_S`] (see the `host` module). Set-up and isolated replays
//! run on the calling thread and are rescaled by its CPU's speed; a
//! repetition by the mean speed of all the workload's CPUs. Raw times and
//! kernel times stay in the run record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scibench_stats::quantile::QuantileMethod;
use scibench_stats::sorted::SortedSamples;
use scibench_trace::{category, lane_of, to_chrome_json, validate_chrome_trace, Trace, Tracer};

use crate::host::{self, HostSpeed, REFERENCE_S};

/// Timed set-up batches per run; `setup_s` is the median per set-up.
pub const SETUP_REPEATS: usize = 15;

/// Wall clock one set-up batch aims for. Set-ups take microseconds, too
/// short to time one at a time; a batch this long holds about one speed
/// sample, so sampling costs every batch alike.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// Most set-ups in one batch.
const MAX_SETUP_BATCH: u32 = 1_000_000;

/// Fewest timed repetitions (or untraced/traced pairs) a run makes, even
/// when one repetition outlasts the budget.
const MIN_REPS: usize = 2;

/// Repetitions (or pairs) of a `--quick` run, whatever the budget.
const QUICK_REPS: usize = 5;

/// Largest share of the traced wall clock the layers may leave
/// unexplained before the ledger counts as not closing.
const LEDGER_TOLERANCE: f64 = 0.15;

/// Trace category of the spans the benchmark records around its calls.
const BENCH_CAT: &str = "bench";

/// Lane of those spans; above the pool (0..threads), orchestrator
/// (0xFFFF), campaign (1 << 16) and figure (2 << 16) lane blocks.
const BENCH_LANE: u32 = 3 << 16;

/// One output check: what was compared and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// What one repetition produced, as the harness needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepStats {
    /// Digest of every output bit; equal digests mean equal results.
    pub digest: u64,
    /// Samples the workload's stated input size asks for.
    pub samples: u64,
    /// Bytes of resident result state the repetition hands back.
    pub result_bytes: u64,
    /// Operations attempted (design points, figure jobs).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
}

/// The per-layer numbers of one traced repetition.
#[derive(Debug)]
pub struct Layers {
    /// Seconds of the traced wall clock accounted for by layers timed
    /// within the repetition itself (its trace, its spans, its workers).
    pub explained_s: f64,
    /// Layers re-timed in isolation after the repetition.
    pub replayed: Vec<Replayed>,
    /// Other per-layer metric values by name: counts, ratios, shares of
    /// spans within the repetition.
    pub values: Vec<(&'static str, f64)>,
    /// Checks made while replaying the layers.
    pub checks: Vec<Check>,
}

/// A layer re-timed in isolation after a traced repetition, on identical
/// inputs. The host's speed may have changed since the repetition, so the
/// harness rescales its seconds by the host's speed during the replays
/// before comparing them with the repetition's wall clock.
#[derive(Debug)]
pub struct Replayed {
    /// Per-layer metric of its time as a share of the traced wall clock.
    pub share: &'static str,
    /// Raw seconds the replay took.
    pub secs: f64,
    /// Whether the ledger adds it up; false for a layer nested in another
    /// layer the ledger already counts.
    pub ledger: bool,
    /// Per-layer metric of its rate on the reference host, and the items
    /// the replay processed.
    pub rate: Option<(&'static str, f64)>,
}

impl Replayed {
    pub fn new(share: &'static str, secs: f64, ledger: bool) -> Self {
        Self {
            share,
            secs,
            ledger,
            rate: None,
        }
    }

    pub fn rate(self, name: &'static str, items: f64) -> Self {
        Self {
            rate: Some((name, items)),
            ..self
        }
    }
}

/// A benchmark workload: one named set of inputs and the operation run on
/// them.
pub trait Workload {
    /// Everything a repetition returns.
    type Output;

    /// Worker threads the main operation uses.
    fn threads(&self) -> usize;

    /// Worker processes the main operation uses.
    fn shards(&self) -> usize {
        0
    }

    /// The untimed first repetition; may check outputs of its own.
    fn warm_up(&mut self) -> Result<Vec<Check>, String> {
        self.rep(None).map(|_| Vec::new())
    }

    /// One repetition of the main operation, traced when `tracer` is set.
    fn rep(&mut self, tracer: Option<&Tracer>) -> Result<Self::Output, String>;

    /// Digest, sizes and failure counts of a repetition's output.
    fn stats(&self, out: &Self::Output) -> RepStats;

    /// Per-layer numbers of a traced repetition: reads its trace and
    /// replays per-sample layers in isolation on identical inputs.
    fn layers(&mut self, out: &Self::Output, trace: &Trace, wall_s: f64) -> Result<Layers, String>;

    /// Untimed output checks on the last repetition.
    fn verify(&mut self, out: &Self::Output) -> Vec<Check>;
}

/// How long and how a run measures.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub budget: Duration,
    pub traced: bool,
    /// Fixed repetition count instead of a time budget (tests).
    pub quick: bool,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub threads: usize,
    pub shards: usize,
    /// Host-normalized seconds per set-up, one value per batch.
    pub setup_s: Vec<f64>,
    /// Host-normalized seconds per untraced repetition.
    pub wall_s: Vec<f64>,
    pub samples_per_s: Vec<f64>,
    /// Host-normalized seconds per traced repetition.
    pub traced_wall_s: Vec<f64>,
    /// Raw seconds per set-up, one value per batch.
    pub raw_setup_s: Vec<f64>,
    /// Raw seconds per untraced repetition.
    pub raw_wall_s: Vec<f64>,
    /// Mean sample-kernel seconds during each set-up batch, then during
    /// each untraced repetition.
    pub kernel_s: Vec<f64>,
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Peak resident set of the process through its timed repetitions,
    /// in MiB. Disclosed, not a regression metric: the figures workload's
    /// two-thread schedule swings it by up to a quarter between runs.
    pub peak_rss_mib: f64,
    pub result_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Chrome JSON of the last traced repetition.
    pub trace_json: Option<String>,
}

/// Runs a workload: set-up, warm-up, timed repetitions, checks.
pub fn run<W: Workload>(
    setup: impl Fn() -> Result<W, String>,
    opts: RunOptions,
) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let first = setup()?;
    res.threads = first.threads();
    res.shards = first.shards();
    drop(first);
    // The calling thread runs set-up, the repetitions of one-threaded
    // workloads, the shard supervisor and the isolated replays; pool
    // workloads pin their pool threads to the others.
    let cpus = host::cpus_for(res.threads);
    host::pin_current_thread(&cpus[..1]);
    let speed = HostSpeed::new(cpus);
    std::thread::scope(|scope| {
        let _sampling = speed.start(scope);
        measure(&setup, opts, &speed, &mut res)
    })?;
    Ok(res)
}

/// Set-ups one timed batch makes: doubles a trial batch until it takes a
/// quarter of [`SETUP_BATCH`], then scales it to the whole, so that a slow
/// first (cold) set-up cannot shrink the batches.
fn setup_batch<W>(setup: &impl Fn() -> Result<W, String>) -> Result<u32, String> {
    let mut batch = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            drop(setup()?);
        }
        let secs = t.elapsed().as_secs_f64();
        if secs >= SETUP_BATCH.as_secs_f64() / 4.0 || batch >= MAX_SETUP_BATCH {
            let scaled = f64::from(batch) * SETUP_BATCH.as_secs_f64() / secs.max(1e-9);
            return Ok(scaled.ceil().clamp(1.0, f64::from(MAX_SETUP_BATCH)) as u32);
        }
        batch *= 2;
    }
}

fn measure<W: Workload>(
    setup: &impl Fn() -> Result<W, String>,
    opts: RunOptions,
    speed: &HostSpeed,
    res: &mut RunResult,
) -> Result<(), String> {
    let batch = setup_batch(setup)?;
    for _ in 0..SETUP_REPEATS {
        let from = speed.now();
        let t = Instant::now();
        for _ in 0..batch {
            drop(setup()?);
        }
        let raw = t.elapsed().as_secs_f64() / f64::from(batch);
        let kernel = speed.kernel_s(0, from, speed.now());
        res.raw_setup_s.push(raw);
        res.kernel_s.push(kernel);
        res.setup_s.push(raw * REFERENCE_S / kernel);
    }
    let mut w = setup()?;

    let warm_checks = w.warm_up()?;
    res.checks.extend(warm_checks);

    let mut first_digest = None;
    let mut identical = true;
    let mut traced_identical = true;
    let mut trace_ok = true;
    let start = Instant::now();
    let mut reps = 0usize;
    let last = loop {
        // Traced runs alternate which repetition of the pair goes first,
        // so an order effect cannot pass for tracing overhead.
        let traced_first = opts.traced && reps % 2 == 1;
        let early = if traced_first {
            Some(timed_rep(&mut w, speed, true)?)
        } else {
            None
        };
        let rep = timed_rep(&mut w, speed, false)?;
        let stats = w.stats(&rep.out);
        res.raw_wall_s.push(rep.wall_s);
        res.kernel_s.push(rep.kernel_s);
        res.wall_s.push(rep.normalized());
        res.samples_per_s
            .push(stats.samples as f64 / rep.normalized());
        res.attempted += stats.attempted;
        res.failed += stats.failed;
        res.result_bytes = stats.result_bytes;
        let digest = *first_digest.get_or_insert(stats.digest);
        identical &= stats.digest == digest;

        let traced = match early {
            None if opts.traced => Some(timed_rep(&mut w, speed, true)?),
            early => early,
        };
        if let Some(Rep {
            out: traced_out,
            wall_s: traced_wall,
            kernel_s: kernel,
            trace: Some(trace),
        }) = traced
        {
            traced_identical &= w.stats(&traced_out).digest == digest;
            let normalized = traced_wall * REFERENCE_S / kernel;
            res.traced_wall_s.push(normalized);

            let from = speed.now();
            let layers = w.layers(&traced_out, &trace, traced_wall)?;
            let replay_kernel = speed.kernel_s(0, from, speed.now());
            res.checks.extend(layers.checks);
            let mut values = layers.values;
            let mut explained = layers.explained_s;
            for r in &layers.replayed {
                // The replay's seconds at the repetition's host speed.
                let secs = r.secs * kernel / replay_kernel;
                if r.ledger {
                    explained += secs;
                }
                values.push((r.share, secs / traced_wall));
                if let Some((rate, items)) = r.rate {
                    values.push((rate, items * replay_kernel / (r.secs * REFERENCE_S)));
                }
            }
            let unexplained = 1.0 - explained / traced_wall;
            values.push(("ledger.unexplained_frac", unexplained));
            values.push(("ledger.wall_s", normalized));
            values.push(("trace.events", trace.len() as f64));
            for (name, v) in values {
                res.layers.entry(name).or_default().push(v);
            }

            let json = to_chrome_json(&trace);
            trace_ok &= validate_chrome_trace(&json).map(|n| n == trace.len()) == Ok(true);
            res.trace_json = Some(json);
        }
        reps += 1;
        let done = if opts.quick {
            reps >= QUICK_REPS
        } else {
            reps >= MIN_REPS && start.elapsed() >= opts.budget
        };
        if done {
            break rep.out;
        }
    };

    res.peak_rss_mib = peak_rss_mib()?;
    res.checks.push(Check::new(
        "repetitions are bit-identical",
        identical,
        format!("{reps} repetitions"),
    ));
    if opts.traced {
        res.checks.push(Check::new(
            "traced repetitions match untraced ones",
            traced_identical,
            "",
        ));
        // A change that moves work off the paths the layers time (say,
        // batched sketch ingest) fails here until the workload's layer
        // model follows it: per-layer numbers that no longer add up to the
        // wall clock would mislead.
        let unexplained = median(&res.layers["ledger.unexplained_frac"]);
        res.checks.push(Check::new(
            "per-layer times add up to the traced wall clock",
            unexplained.abs() <= LEDGER_TOLERANCE,
            format!("median unexplained share {unexplained:.4}, tolerance ±{LEDGER_TOLERANCE}"),
        ));
        res.checks
            .push(Check::new("trace validates as chrome JSON", trace_ok, ""));
        let overhead = median(&res.traced_wall_s) / median(&res.wall_s) - 1.0;
        res.layers.insert("trace.overhead_frac", vec![overhead]);
    }
    res.checks.extend(w.verify(&last));
    Ok(())
}

/// One timed repetition.
struct Rep<T> {
    out: T,
    /// Raw seconds.
    wall_s: f64,
    /// Sample-kernel seconds at the mean speed of the workload's CPUs
    /// while it ran.
    kernel_s: f64,
    /// Its trace, when traced.
    trace: Option<Trace>,
}

impl<T> Rep<T> {
    fn normalized(&self) -> f64 {
        self.wall_s * REFERENCE_S / self.kernel_s
    }
}

fn timed_rep<W: Workload>(
    w: &mut W,
    speed: &HostSpeed,
    traced: bool,
) -> Result<Rep<W::Output>, String> {
    let tracer = traced.then(Tracer::new);
    let from = speed.now();
    let t = Instant::now();
    let out = w.rep(tracer.as_ref())?;
    let wall_s = t.elapsed().as_secs_f64();
    let kernel_s = speed.shared_kernel_s(from, speed.now());
    Ok(Rep {
        out,
        wall_s,
        kernel_s,
        trace: tracer.map(|t| t.drain()),
    })
}

/// Times `f`, recording it as a span on the benchmark's lane when traced.
pub fn timed<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let mut lane = lane_of(tracer, BENCH_LANE);
    let span = lane.begin();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    lane.end(span, BENCH_CAT, name, &[]);
    (out, secs)
}

/// The pool layer of a traced repetition: tasks, idle share and critical
/// path, relative to the span of the pool call (`pool_span_s`) on
/// `threads` workers.
pub fn pool_layer(trace: &Trace, threads: usize, pool_span_s: f64) -> Vec<(&'static str, f64)> {
    let durs: Vec<f64> = span_durations(trace, category::POOL, None);
    let busy: f64 = durs.iter().sum();
    let longest = durs.iter().copied().fold(0.0, f64::max);
    vec![
        ("pool.tasks", durs.len() as f64),
        (
            "pool.idle_frac",
            1.0 - busy / (threads as f64 * pool_span_s),
        ),
        ("pool.critical_path_frac", longest / pool_span_s),
    ]
}

/// Durations in seconds of the spans in `cat` (named `name`, if given).
pub fn span_durations(trace: &Trace, cat: &str, name: Option<&str>) -> Vec<f64> {
    trace
        .events
        .iter()
        .filter(|e| e.cat == cat && name.is_none_or(|n| e.name == n))
        .filter_map(|e| e.dur_ns())
        .map(|ns| ns as f64 * 1e-9)
        .collect()
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interpolated `p`-quantile of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    match SortedSamples::new(xs) {
        Ok(s) => s
            .quantile(p, QuantileMethod::Interpolated)
            .unwrap_or(f64::NAN),
        Err(_) => f64::NAN,
    }
}

/// n, quartiles and the nonparametric 95% median CI of a metric's values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `None` below the six values a nonparametric CI needs.
    pub ci95: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Result<Self, String> {
        let sorted = SortedSamples::new(xs).map_err(|e| format!("summary: {e}"))?;
        let five = sorted.five_number();
        Ok(Self {
            n: sorted.len(),
            q1: five.q1,
            median: five.median,
            q3: five.q3,
            ci95: sorted.median_ci(0.95).ok().map(|ci| (ci.lower, ci.upper)),
        })
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The repository root: the benchmark package's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// A scratch directory under the repository's ignored `.bench_scratch/`,
/// removed (with everything in it) when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(label: &str) -> Result<Self, String> {
        Self::at(
            repo_root()
                .join(".bench_scratch")
                .join(format!("{label}-{}", std::process::id())),
        )
    }

    /// A fresh subdirectory, removed on its own drop.
    pub fn child(&self, name: &str) -> Result<Self, String> {
        Self::at(self.path.join(name))
    }

    fn at(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
