//! `figures`: every paper figure and table computed and rendered into
//! memory on the work-stealing pool — the repository's headline
//! deliverable, dominated by statistics kernels and pool tail imbalance.

use std::sync::atomic::{AtomicUsize, Ordering};

use scibench::parallel::pool;
use scibench_bench::figures::*;
use scibench_bench::DEFAULT_SEED;
use scibench_trace::{category, lane_of, ArgValue, Trace, Tracer};

use crate::harness::{
    fnv1a, pool_layer, repo_root, span_durations, Check, Layers, RepStats, Workload, FNV_OFFSET,
};
use crate::host;

/// Pool threads: the workload exists to exercise concurrency, so it uses
/// both cores of the reference machine.
const THREADS: usize = 2;

/// Figure lanes, as `all_figures` numbers them.
const FIGURE_LANE_BASE: u32 = 2 << 16;

/// CSV digests of the reference-seed run (64-bit FNV-1a). The committed
/// CSVs predate the fast normal quantile and differ from today's output
/// in the tenth significant digit, so they cannot be compared byte for byte.
const CSV_DIGESTS: &str = include_str!("../../figure-csv-digests.txt");

/// One rendered file: name (with extension) and contents.
type File = (String, String);
type Job = Box<dyn Fn(u64) -> Result<Vec<File>, String> + Send + Sync>;

/// Sample counts the figures are computed at.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    big: usize,
    reduce_runs: usize,
}

impl Sizes {
    /// Samples the stated sizes ask for: four `big`-sample figures, 63
    /// reduce process counts and 64 variation ranks × `reduce_runs`, 50 HPL
    /// runs and 10 π repetitions.
    fn samples(&self) -> u64 {
        (4 * self.big + 63 * self.reduce_runs + 64 * self.reduce_runs + 50 + 10) as u64
    }
}

/// (job, per-layer metric) names, in job order.
const JOBS: [(&str, &str); 10] = [
    ("fig1_hpl", "figures.fig1_hpl_share"),
    ("table1", "figures.table1_share"),
    ("fig2_normalization", "figures.fig2_normalization_share"),
    ("fig3_significance", "figures.fig3_significance_share"),
    ("fig4_quantreg", "figures.fig4_quantreg_share"),
    ("fig5_reduce", "figures.fig5_reduce_share"),
    ("fig6_variation", "figures.fig6_variation_share"),
    ("fig7ab_bounds", "figures.fig7ab_bounds_share"),
    ("fig7c_plots", "figures.fig7c_plots_share"),
    ("means_example", "figures.means_example_share"),
];

fn files(txt: (&str, String), csv: Option<(&str, String)>) -> Vec<File> {
    let mut out = vec![(format!("{}.txt", txt.0), txt.1)];
    out.extend(csv.map(|(name, body)| (format!("{name}.csv"), body)));
    out
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The job table of `all_figures`, rendering into memory.
fn jobs(sizes: Sizes) -> Vec<Job> {
    let Sizes { big, reduce_runs } = sizes;
    vec![
        Box::new(|seed| {
            let f = fig1_hpl::compute(50, seed).map_err(err)?;
            Ok(files(
                ("fig1_hpl", f.render()),
                Some(("fig1_hpl", f.dataset().to_csv())),
            ))
        }),
        Box::new(|_| {
            let t = table1::compute();
            Ok(files(
                ("table1_survey", t.render()),
                Some(("table1_scores", t.dataset().to_csv())),
            ))
        }),
        Box::new(move |seed| {
            let f = fig2_normalization::compute(big, seed).map_err(err)?;
            Ok(files(
                ("fig2_normalization", f.render()),
                Some(("fig2_qq", f.dataset().to_csv())),
            ))
        }),
        Box::new(move |seed| {
            let f = fig3_significance::compute(big, seed).map_err(err)?;
            let audit = scibench::rules::RuleAudit::check(&f.report());
            if !audit.passed() {
                return Err(format!(
                    "figure 3 failed its rule audit:\n{}",
                    audit.render()
                ));
            }
            let mut out = files(
                ("fig3_significance", f.render()),
                Some(("fig3_significance", f.dataset().to_csv())),
            );
            out.extend(files(("fig3_rule_audit", audit.render()), None));
            Ok(out)
        }),
        Box::new(move |seed| {
            let f = fig4_quantreg::compute(big, seed).map_err(err)?;
            Ok(files(
                ("fig4_quantile_regression", f.render()),
                Some(("fig4_quantreg", f.dataset().to_csv())),
            ))
        }),
        Box::new(move |seed| {
            let f = fig5_reduce::compute(reduce_runs, seed).map_err(err)?;
            Ok(files(
                ("fig5_reduce_scaling", f.render()),
                Some(("fig5_reduce", f.dataset().to_csv())),
            ))
        }),
        Box::new(move |seed| {
            let f = fig6_variation::compute(64, reduce_runs, seed).map_err(err)?;
            Ok(files(
                ("fig6_process_variation", f.render()),
                Some(("fig6_variation", f.dataset().to_csv())),
            ))
        }),
        Box::new(|seed| {
            let f = fig7ab_bounds::compute(10, seed).map_err(err)?;
            Ok(files(
                ("fig7ab_bounds", f.render()),
                Some(("fig7ab_bounds", f.dataset().to_csv())),
            ))
        }),
        Box::new(move |seed| {
            let f = fig7c_plots::compute(big, seed).map_err(err)?;
            Ok(files(
                ("fig7c_plots", f.render()),
                Some(("fig7c_plots", f.dataset().to_csv())),
            ))
        }),
        Box::new(|_| {
            let ex = means_example::compute().map_err(err)?;
            Ok(files(("means_worked_example", ex.render()), None))
        }),
    ]
}

pub struct Figures {
    seed: u64,
    quick: bool,
    sizes: Sizes,
    jobs: Vec<Job>,
}

/// Per job: its files, or why it failed.
pub struct FiguresOut {
    results: Vec<Result<Vec<File>, String>>,
}

impl Figures {
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        // The committed figures are rendered at paper scale, so only a
        // full-size run can be checked against them.
        let sizes = if quick {
            Sizes {
                big: 20_000,
                reduce_runs: 50,
            }
        } else {
            Sizes {
                big: 1_000_000,
                reduce_runs: 1_000,
            }
        };
        Ok(Self {
            seed,
            quick,
            sizes,
            jobs: jobs(sizes),
        })
    }

    fn compute(&self, seed: u64, tracer: Option<&Tracer>) -> FiguresOut {
        // Each pool thread pins itself to its own CPU of the run, whose
        // speed the harness samples.
        let cpus = host::cpus_for(THREADS);
        let lanes = AtomicUsize::new(0);
        let pin_lane = || {
            let lane = lanes.fetch_add(1, Ordering::Relaxed);
            host::pin_current_thread(&[cpus[lane % cpus.len()]]);
        };
        let results =
            pool::run_indexed_scoped_traced(self.jobs.len(), THREADS, tracer, pin_lane, |(), i| {
                let mut lane = lane_of(tracer, FIGURE_LANE_BASE + i as u32);
                let start = lane.begin();
                let out = (self.jobs[i])(seed);
                lane.end(
                    start,
                    category::FIGURE,
                    JOBS[i].0,
                    &[("ok", ArgValue::Bool(out.is_ok()))],
                );
                out
            });
        FiguresOut {
            results: results
                .into_iter()
                .map(|r| r.unwrap_or_else(|_| Err("figure job panicked".into())))
                .collect(),
        }
    }
}

impl Workload for Figures {
    type Output = FiguresOut;

    fn threads(&self) -> usize {
        THREADS
    }

    /// At paper scale the warm-up renders the reference seed and checks
    /// every text file byte for byte against the committed `figures/`,
    /// and every CSV against its pinned digest.
    fn warm_up(&mut self) -> Result<Vec<Check>, String> {
        let out = self.compute(DEFAULT_SEED, None);
        if self.quick {
            return Ok(Vec::new());
        }
        let figures_dir = repo_root().join("figures");
        let mut checks = Vec::new();
        for (job, result) in JOBS.iter().zip(&out.results) {
            let files = match result {
                Ok(files) => files,
                Err(e) => {
                    checks.push(Check::new(format!("reference {}", job.0), false, e.clone()));
                    continue;
                }
            };
            for (name, body) in files {
                let check = if name.ends_with(".txt") {
                    let path = figures_dir.join(name);
                    let committed = std::fs::read_to_string(&path).unwrap_or_default();
                    Check::new(
                        format!("figures/{name} byte-identical at the reference seed"),
                        committed == *body,
                        format!("{} vs {} bytes", body.len(), committed.len()),
                    )
                } else {
                    let got = format!("{:016x}", fnv1a(FNV_OFFSET, body.as_bytes()));
                    let pinned = CSV_DIGESTS
                        .lines()
                        .filter_map(|l| l.split_once(' '))
                        .find(|(file, _)| file == name)
                        .map(|(_, digest)| digest.trim());
                    Check::new(
                        format!("{name} matches its pinned digest"),
                        pinned == Some(got.as_str()),
                        format!("got {name} {got}, pinned {pinned:?}"),
                    )
                };
                checks.push(check);
            }
        }
        Ok(checks)
    }

    fn rep(&mut self, tracer: Option<&Tracer>) -> Result<FiguresOut, String> {
        Ok(self.compute(self.seed, tracer))
    }

    fn stats(&self, out: &FiguresOut) -> RepStats {
        let mut digest = FNV_OFFSET;
        let mut bytes = 0u64;
        for files in out.results.iter().flatten() {
            for (name, body) in files {
                digest = fnv1a(digest, name.as_bytes());
                digest = fnv1a(digest, body.as_bytes());
                bytes += body.len() as u64;
            }
        }
        RepStats {
            digest,
            samples: self.sizes.samples(),
            result_bytes: bytes,
            attempted: out.results.len() as u64,
            failed: out.results.iter().filter(|r| r.is_err()).count() as u64,
        }
    }

    fn layers(&mut self, _: &FiguresOut, trace: &Trace, wall_s: f64) -> Result<Layers, String> {
        let busy: Vec<f64> = JOBS
            .iter()
            .map(|(job, _)| {
                span_durations(trace, category::FIGURE, Some(job))
                    .iter()
                    .sum()
            })
            .collect();
        let total: f64 = busy.iter().sum();
        let mut values = pool_layer(trace, THREADS, wall_s);
        for ((_, metric), b) in JOBS.iter().zip(&busy) {
            values.push((metric, b / total));
        }
        Ok(Layers {
            // The pool explains every instant in which some figure runs;
            // the rest is spawn, join and result collection.
            explained_s: covered_s(trace, category::FIGURE),
            replayed: Vec::new(),
            values,
            checks: Vec::new(),
        })
    }

    fn verify(&mut self, out: &FiguresOut) -> Vec<Check> {
        let failed: Vec<String> = JOBS
            .iter()
            .zip(&out.results)
            .filter_map(|((job, _), r)| r.as_ref().err().map(|e| format!("{job}: {e}")))
            .collect();
        vec![Check::new(
            "every figure job succeeded",
            failed.is_empty(),
            failed.join("; "),
        )]
    }
}

/// Seconds in which at least one span of `cat` is open (interval union).
fn covered_s(trace: &Trace, cat: &str) -> f64 {
    let mut spans: Vec<(u64, u64)> = trace
        .events
        .iter()
        .filter(|e| e.cat == cat)
        .filter_map(|e| e.dur_ns().map(|d| (e.t_ns, e.t_ns + d)))
        .collect();
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (start, end) in spans {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
        }
        reach = reach.max(end);
    }
    covered as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The job table above copies the one in `all_figures`; the files each
    /// writes are how a drift between the two would show.
    #[test]
    fn renders_the_files_all_figures_writes() {
        let source = repo_root().join("crates/bench/src/bin/all_figures.rs");
        let source = std::fs::read_to_string(source).expect("all_figures source");
        let mut written: Vec<String> = [("save(\"", "txt"), ("csv(\"", "csv")]
            .iter()
            .flat_map(|(call, ext)| {
                source.split(call).skip(1).map(move |rest| {
                    let name = rest.split('"').next().unwrap_or_default();
                    format!("{name}.{ext}")
                })
            })
            .collect();
        let figures = Figures::setup(1, true).expect("set-up");
        let mut rendered: Vec<String> = figures
            .compute(1, None)
            .results
            .into_iter()
            .flat_map(|r| r.expect("every job succeeds"))
            .map(|(name, _)| name)
            .collect();
        written.sort_unstable();
        rendered.sort_unstable();
        assert_eq!(rendered, written);
    }
}
