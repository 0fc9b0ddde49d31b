//! Cross-crate statistical validation: the statistics crate's machinery
//! applied to the simulator's output must reach the conclusions the
//! paper reaches about real machines.

use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::collectives::{barrier, broadcast, reduce};
use scibench_sim::drift::ClockEnsemble;
use scibench_sim::machine::MachineSpec;
use scibench_sim::pingpong::{pingpong_latencies_us, PingPongConfig};
use scibench_sim::rng::SimRng;
use scibench_stats::ci::{mean_ci, median_ci};
use scibench_stats::dist::{ChiSquared, ContinuousDistribution};
use scibench_stats::htest::{one_way_anova, TestResult};
use scibench_stats::normality::shapiro_wilk_thinned;
use scibench_stats::outlier::tukey_filter;
use scibench_stats::quantile::{quantile, QuantileMethod};
use scibench_stats::rank::{average_ranks, tie_correction};
use scibench_stats::summary::{arithmetic_mean, coefficient_of_variation};
use scibench_stats::{Sample, StatsError, StatsResult};

/// Kruskal–Wallis of slices, each checked as a [`Sample`] first.
fn kruskal_wallis_slices(groups: &[&[f64]]) -> StatsResult<TestResult> {
    let samples = groups
        .iter()
        .map(|g| Sample::new(g))
        .collect::<StatsResult<Vec<_>>>()?;
    scibench_stats::htest::kruskal_wallis(&samples.iter().collect::<Vec<_>>())
}

fn dora_latencies(n: usize, seed: u64) -> Vec<f64> {
    let mut cfg = PingPongConfig::paper_64b(n);
    cfg.warmup_iterations = 0;
    pingpong_latencies_us(&MachineSpec::piz_dora(), &cfg, &mut SimRng::new(seed))
}

#[test]
fn simulated_latencies_are_non_normal_and_right_skewed() {
    let xs = dora_latencies(20_000, 1);
    // Shapiro-Wilk rejects normality decisively (Rule 6's motivation).
    let sw = shapiro_wilk_thinned(&xs, 2000).unwrap();
    assert!(
        sw.rejects_normality(0.001),
        "W = {}, p = {}",
        sw.w,
        sw.p_value
    );
    // Right skew: mean > median.
    let mean = arithmetic_mean(&xs).unwrap();
    let median = quantile(&xs, 0.5, QuantileMethod::Interpolated).unwrap();
    assert!(mean > median);
}

#[test]
fn ci_coverage_of_the_simulated_median() {
    // Frequentist check: the 95% rank CI of the median must contain the
    // long-run median in ~95% of repeated experiments.
    let truth = {
        let xs = dora_latencies(200_000, 42);
        quantile(&xs, 0.5, QuantileMethod::Interpolated).unwrap()
    };
    let mut covered = 0;
    let reps = 200;
    for i in 0..reps {
        let xs = dora_latencies(300, 1000 + i);
        let ci = median_ci(&xs, 0.95).unwrap();
        if ci.lower <= truth && truth <= ci.upper {
            covered += 1;
        }
    }
    let coverage = covered as f64 / reps as f64;
    assert!(
        (0.90..=1.0).contains(&coverage),
        "median CI coverage {coverage} (want >= 0.90)"
    );
}

#[test]
fn mean_ci_narrows_with_sqrt_n() {
    let small = mean_ci(&dora_latencies(400, 7), 0.95).unwrap();
    let large = mean_ci(&dora_latencies(6400, 7), 0.95).unwrap();
    let ratio = small.width() / large.width();
    // sqrt(16) = 4; allow generous slack for the heavy tail.
    assert!((2.0..8.0).contains(&ratio), "width ratio {ratio}");
}

#[test]
fn kruskal_wallis_separates_systems_anova_ranks() {
    let dora = dora_latencies(5_000, 3);
    let mut cfg = PingPongConfig::paper_64b(5_000);
    cfg.warmup_iterations = 0;
    let pilatus = pingpong_latencies_us(&MachineSpec::pilatus(), &cfg, &mut SimRng::new(4));
    let kw = kruskal_wallis_slices(&[&dora, &pilatus]).unwrap();
    assert!(kw.significant_at(0.001));
    // Same system twice: no significance.
    let dora2 = dora_latencies(5_000, 5);
    let kw_null = kruskal_wallis_slices(&[&dora, &dora2]).unwrap();
    assert!(!kw_null.significant_at(0.01), "p = {}", kw_null.p_value);
}

/// Kruskal–Wallis in its pooled formulation: one mid-rank vector over all
/// observations, each group's rank sum added up in f64 in input order, and
/// the pooled tie correction. The merge-ranked test must match it bit for
/// bit, errors included.
fn pooled_kruskal_wallis(groups: &[&[f64]]) -> StatsResult<TestResult> {
    if groups.len() < 2 {
        return Err(StatsError::InvalidGroups(
            "Kruskal-Wallis needs at least two groups",
        ));
    }
    for g in groups {
        if g.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if g.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NonFiniteSample);
        }
    }
    let all: Vec<f64> = groups.concat();
    if all.len() < 3 {
        return Err(StatsError::TooFewSamples {
            required: 3,
            actual: all.len(),
        });
    }
    let ranks = average_ranks(&all)?;
    let nf = all.len() as f64;
    let mut h = 0.0;
    let mut offset = 0;
    for g in groups {
        let rank_sum: f64 = ranks[offset..offset + g.len()].iter().sum();
        h += rank_sum * rank_sum / g.len() as f64;
        offset += g.len();
    }
    h = 12.0 / (nf * (nf + 1.0)) * h - 3.0 * (nf + 1.0);
    let c = tie_correction(&all)?;
    if c <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    h /= c;
    let df = groups.len() as f64 - 1.0;
    let p_value = (1.0 - ChiSquared::new(df)?.cdf(h)).clamp(0.0, 1.0);
    Ok(TestResult {
        statistic: h,
        p_value,
        df: (df, 0.0),
    })
}

fn assert_matches_pooled(groups: &[&[f64]], case: &str) {
    let bits = |r: StatsResult<TestResult>| {
        r.map(|t| [t.statistic, t.p_value, t.df.0, t.df.1].map(f64::to_bits))
    };
    let want = bits(pooled_kruskal_wallis(groups));
    assert_eq!(bits(kruskal_wallis_slices(groups)), want, "{case}");
}

#[test]
fn kruskal_wallis_matches_the_pooled_ranks_bit_for_bit() {
    let root = SimRng::new(0x4B57);
    for k in 2..=5usize {
        for trial in 0..40u64 {
            let mut rng = root.fork_indexed("kw-groups", k as u64 * 1000 + trial);
            let family = trial % 3;
            let groups: Vec<Vec<f64>> = (0..k)
                .map(|g| {
                    let n = if trial < 3 { 1 + g } else { 1 + rng.index(200) };
                    (0..n)
                        .map(|_| match family {
                            0 => rng.lognormal(g as f64 * 0.05, 0.5),
                            // Integer draws: heavy ties within and across groups.
                            1 => rng.index(6 + g) as f64,
                            _ => [-0.0, 0.0, 1.0][rng.index(3)],
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = groups.iter().map(Vec::as_slice).collect();
            assert_matches_pooled(&refs, &format!("k = {k}, trial {trial}"));
        }
    }
    // Two systems at 1e5 ping-pong latencies each.
    let dora = dora_latencies(100_000, 21);
    let mut cfg = PingPongConfig::paper_64b(100_000);
    cfg.warmup_iterations = 0;
    let pilatus = pingpong_latencies_us(&MachineSpec::pilatus(), &cfg, &mut SimRng::new(22));
    assert_matches_pooled(&[&dora, &pilatus], "ping-pong");
}

#[test]
fn kruskal_wallis_keeps_its_error_variants() {
    let cases: [(&[&[f64]], StatsError); 5] = [
        (
            &[&[1.0, 2.0, 3.0]],
            StatsError::InvalidGroups("Kruskal-Wallis needs at least two groups"),
        ),
        (
            &[&[1.0], &[2.0]],
            StatsError::TooFewSamples {
                required: 3,
                actual: 2,
            },
        ),
        (&[&[1.0, 2.0], &[]], StatsError::EmptySample),
        (
            &[&[1.0, f64::NAN], &[2.0, 3.0]],
            StatsError::NonFiniteSample,
        ),
        (&[&[0.0, -0.0], &[-0.0, 0.0]], StatsError::ZeroVariance),
    ];
    for (groups, want) in cases {
        assert_eq!(kruskal_wallis_slices(groups).unwrap_err(), want);
        assert_matches_pooled(groups, &format!("{want:?}"));
    }
}

#[test]
fn anova_flags_reduce_rank_heterogeneity() {
    let machine = MachineSpec::piz_daint();
    let mut rng = SimRng::new(8);
    let alloc = Allocation::one_rank_per_node(&machine, 16, AllocationPolicy::Packed, &mut rng);
    let mut per_rank: Vec<Vec<f64>> = vec![Vec::new(); 16];
    for _ in 0..60 {
        let out = reduce(&machine, &alloc, 8, &mut rng);
        for (r, &t) in out.per_rank_done_ns.iter().enumerate() {
            per_rank[r].push(t);
        }
    }
    let groups: Vec<&[f64]> = per_rank.iter().map(Vec::as_slice).collect();
    let anova = one_way_anova(&groups).unwrap();
    assert!(
        anova.significant_at(0.001),
        "F = {}, p = {}",
        anova.f,
        anova.p_value
    );
}

#[test]
fn congestion_outliers_found_by_tukey() {
    let xs = dora_latencies(50_000, 9);
    let filtered = tukey_filter(&xs).unwrap();
    // Congestion spikes exist but are rare (< 5%).
    assert!(filtered.removed_count() > 0);
    assert!(
        filtered.removed_fraction() < 0.05,
        "{}",
        filtered.removed_fraction()
    );
    // All removed values sit above the upper fence (right-tail only).
    for &o in &filtered.removed {
        assert!(o > filtered.fences.upper);
    }
}

#[test]
fn cov_measures_system_stability() {
    // CoV of the quiet machine is 0; of Piz Dora small but positive.
    let quiet = {
        let machine = MachineSpec::test_machine(4);
        let mut cfg = PingPongConfig::paper_64b(500);
        cfg.node_b = 1;
        cfg.warmup_iterations = 0;
        pingpong_latencies_us(&machine, &cfg, &mut SimRng::new(1))
    };
    assert!(coefficient_of_variation(&quiet).unwrap() < 1e-12);
    let dora = dora_latencies(5_000, 10);
    let cov = coefficient_of_variation(&dora).unwrap();
    assert!((0.01..0.5).contains(&cov), "CoV {cov}");
}

#[test]
fn collectives_scale_consistently() {
    // Broadcast and barrier both scale ~log p on a quiet machine, and a
    // reduce costs at least as much as a broadcast (it also computes).
    let machine = MachineSpec::test_machine(64);
    let mut rng = SimRng::new(11);
    let mut last_bcast = 0.0;
    for p in [2usize, 4, 8, 16, 32, 64] {
        let alloc = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Packed, &mut rng);
        let b = broadcast(&machine, &alloc, 8, &mut rng).max_ns().unwrap();
        let bar = barrier(&machine, &alloc, &mut rng).max_ns().unwrap();
        let red = reduce(&machine, &alloc, 8, &mut rng).max_ns().unwrap();
        assert!(b >= last_bcast, "bcast not monotone at p={p}");
        assert!(red >= b, "reduce {red} cheaper than bcast {b} at p={p}");
        assert!(bar > 0.0);
        last_bcast = b;
    }
}

#[test]
fn window_sync_outperforms_barrier_sync_at_scale() {
    // The paper's recommendation quantified across process counts.
    let machine = MachineSpec::piz_daint();
    let root = SimRng::new(12);
    for p in [8usize, 32] {
        let mut rng = root.fork_indexed("sync", p as u64);
        let alloc = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Packed, &mut rng);
        let clocks = ClockEnsemble::sample(p, 10_000.0, 1e-6, &mut rng);
        let mut barrier_skew = 0.0;
        let mut window_skew = 0.0;
        for _ in 0..20 {
            barrier_skew +=
                scibench::sync::barrier_sync_start(&machine, &alloc, &mut rng).max_skew_ns();
            window_skew +=
                scibench::sync::window_sync_start(&machine, &alloc, &clocks, 1e6, &mut rng)
                    .max_skew_ns();
        }
        assert!(
            window_skew < barrier_skew,
            "p={p}: window {window_skew} vs barrier {barrier_skew}"
        );
    }
}

#[test]
fn allocation_policy_affects_hpl_like_workloads() {
    // Packed allocations have smaller mean hop distance than scattered —
    // the batch-system effect the paper requires documenting.
    let machine = MachineSpec::piz_daint();
    let mut rng = SimRng::new(13);
    let packed = Allocation::one_rank_per_node(&machine, 64, AllocationPolicy::Packed, &mut rng);
    let scattered = Allocation::one_rank_per_node(
        &machine,
        64,
        AllocationPolicy::Scattered { stride: 16 },
        &mut rng,
    );
    let random = Allocation::one_rank_per_node(&machine, 64, AllocationPolicy::Random, &mut rng);
    let hp = packed.mean_pairwise_hops(&machine);
    let hs = scattered.mean_pairwise_hops(&machine);
    let hr = random.mean_pairwise_hops(&machine);
    assert!(hp < hs, "packed {hp} vs scattered {hs}");
    assert!(hp < hr, "packed {hp} vs random {hr}");
}
