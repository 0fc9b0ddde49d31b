//! Figure 5: 1,000 `MPI_Reduce` runs for different process counts.
//!
//! Completion time (max across processes, the paper's choice "to assess
//! worst-case performance") versus the number of processes, with the
//! powers of two marked separately — they sit visibly below their
//! non-power-of-two neighbours because the reduce needs an extra fold
//! phase for the remainder ranks.

use scibench::data::DataSet;
use scibench::parallel::pool;
use scibench::parallel::{collapse_repetition, CrossProcessSummary};
use scibench::plot::series::Series;
use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::compile::{CompiledSchedule, ReplayCtx};
use scibench_sim::machine::MachineSpec;
use scibench_sim::rng::SimRng;
use scibench_stats::ci::median_ci;
use scibench_stats::error::StatsResult;
use scibench_stats::quantile::FiveNumberSummary;

/// Results for one process count.
#[derive(Debug, Clone)]
pub struct ReducePoint {
    /// Number of processes.
    pub p: usize,
    /// Whether `p` is a power of two.
    pub power_of_two: bool,
    /// Completion times (max across ranks) in µs, one per run.
    pub completion_us: Vec<f64>,
    /// Five-number summary of the completion times.
    pub summary: FiveNumberSummary,
}

/// Regenerated Figure 5 data.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// One point per process count, ascending.
    pub points: Vec<ReducePoint>,
    /// Runs per process count.
    pub runs: usize,
}

/// Runs the Figure 5 campaign: `runs` reductions at each process count in
/// 2..=64.
///
/// Each process count compiles its reduce once into a
/// [`CompiledSchedule`] and replays it `runs` times through a per-worker
/// [`ReplayCtx`] arena, so the hot loop does zero heap allocations. Every
/// `p` draws from its own `fork_indexed("fig5", p)` stream, so results are
/// bit-identical to the interpreted loop and invariant under the number of
/// pool threads.
pub fn compute(runs: usize, seed: u64) -> StatsResult<Fig5> {
    let machine = MachineSpec::piz_daint();
    let root = SimRng::new(seed);
    let ps: Vec<usize> = (2..=64).collect();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8);
    let computed = pool::run_indexed_scoped_traced(
        ps.len(),
        threads,
        None,
        ReplayCtx::new,
        |ctx, i| -> StatsResult<ReducePoint> {
            let p = ps[i];
            let mut rng = root.fork_indexed("fig5", p as u64);
            // Same allocation reused across runs (§4.1.2: "all other
            // experiments were repeated in the same allocation").
            let alloc =
                Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, &mut rng);
            let schedule = CompiledSchedule::compile_reduce(&machine, &alloc, 8);
            let mut completion_us = Vec::with_capacity(runs);
            for _ in 0..runs {
                let done = schedule.replay_into(ctx, &mut rng);
                let max_ns = collapse_repetition(done, CrossProcessSummary::Max)?;
                completion_us.push(max_ns * 1e-3);
            }
            let summary = FiveNumberSummary::from_samples(&completion_us)?;
            Ok(ReducePoint {
                p,
                power_of_two: p.is_power_of_two(),
                completion_us,
                summary,
            })
        },
    );
    let mut points = Vec::with_capacity(ps.len());
    for slot in computed {
        match slot {
            Ok(point) => points.push(point?),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    Ok(Fig5 { points, runs })
}

impl Fig5 {
    /// The two series of the figure (medians, CIs of the median).
    pub fn series(&self) -> StatsResult<(Series, Series)> {
        let mut pof2 = Vec::new();
        let mut others = Vec::new();
        for pt in &self.points {
            let ci = median_ci(&pt.completion_us, 0.95)?;
            if pt.power_of_two {
                pof2.push((pt.p as f64, ci));
            } else {
                others.push((pt.p as f64, ci));
            }
        }
        Ok((
            // Powers of two form a trend; arbitrary process counts do not
            // interpolate (Rule 12), hence connect only the former.
            Series::with_cis("Powers of Two", &pof2, true),
            Series::with_cis("Others", &others, false),
        ))
    }

    /// Renders the per-p summaries.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 5: {} MPI_Reduce runs per process count (Piz Daint model)\n\
             p    median[us]  q1[us]   q3[us]   max[us]  power-of-two\n",
            self.runs
        );
        for pt in &self.points {
            out.push_str(&format!(
                "{:<4} {:9.2} {:8.2} {:8.2} {:8.2}  {}\n",
                pt.p,
                pt.summary.median,
                pt.summary.q1,
                pt.summary.q3,
                pt.summary.max,
                if pt.power_of_two { "yes" } else { "" }
            ));
        }
        out
    }

    /// Exports medians/quartiles as CSV.
    pub fn dataset(&self) -> DataSet {
        let mut d = DataSet::new(&[
            "p",
            "power_of_two",
            "median_us",
            "q1_us",
            "q3_us",
            "min_us",
            "max_us",
        ])
        .with_metadata("figure", "5")
        .with_metadata("summary", "max across processes per run");
        for pt in &self.points {
            d.push_row(&[
                pt.p as f64,
                pt.power_of_two as u8 as f64,
                pt.summary.median,
                pt.summary.q1,
                pt.summary.q3,
                pt.summary.min,
                pt.summary.max,
            ]);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_two_beat_their_successors() {
        let f = compute(60, 42).unwrap();
        // For every power of two p in range, median(p) < median(p+1).
        for &p in &[4usize, 8, 16, 32] {
            let at = |q: usize| {
                f.points
                    .iter()
                    .find(|pt| pt.p == q)
                    .map(|pt| pt.summary.median)
                    .unwrap()
            };
            assert!(
                at(p) < at(p + 1),
                "median({p}) = {} should undercut median({}) = {}",
                at(p),
                p + 1,
                at(p + 1)
            );
        }
    }

    #[test]
    fn completion_grows_with_scale() {
        let f = compute(40, 7).unwrap();
        let first = f.points.first().unwrap().summary.median;
        let last = f.points.last().unwrap().summary.median;
        assert!(last > first * 1.5, "{first} vs {last}");
        // Microsecond magnitudes as in the paper (roughly 2..60 µs).
        assert!(first > 0.5 && last < 100.0, "{first}..{last}");
    }

    #[test]
    fn series_split_is_complete() {
        let f = compute(20, 1).unwrap();
        let (pof2, others) = f.series().unwrap();
        assert_eq!(pof2.points.len(), 6); // 2,4,8,16,32,64
        assert_eq!(others.points.len(), 63 - 6);
        assert!(pof2.connect_points);
        assert!(!others.connect_points);
    }

    #[test]
    fn render_and_dataset() {
        let f = compute(20, 2).unwrap();
        assert!(f.render().contains("power-of-two"));
        assert_eq!(f.dataset().len(), 63);
    }
}
