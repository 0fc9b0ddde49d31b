//! A bulk-synchronous (BSP) application model: noise propagation.
//!
//! §4.2.1 of the paper: "It is important to consider the impact of
//! system noise in the experimental design where small perturbations in
//! one process can propagate to other processes." A BSP code makes that
//! mechanism maximal: every iteration ends in a collective, so each
//! iteration runs at the pace of the *slowest* rank — the expected
//! iteration time grows like the expected maximum of `p` noisy draws,
//! which is how a 0.1 % per-rank noise level becomes a double-digit
//! slowdown at scale (Petrini et al., the paper's ref. 47; Hoefler et
//! al., ref. 26).
//!
//! The model also exposes per-rank *application* imbalance ("the
//! application (e.g., load balancing)" noise source of §1), separate
//! from system noise.

use crate::alloc::Allocation;
use crate::collectives::allreduce;
use crate::machine::MachineSpec;
use crate::rng::SimRng;

/// Configuration of a BSP application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BspConfig {
    /// Number of iterations (supersteps).
    pub iterations: usize,
    /// Mean compute time per rank per iteration, nanoseconds.
    pub work_ns: f64,
    /// Static application imbalance: rank `r`'s work is scaled by
    /// `1 + imbalance · r/(p−1)` (a linear skew; 0 = perfectly balanced).
    pub imbalance: f64,
    /// Payload of the per-iteration allreduce, bytes.
    pub allreduce_bytes: usize,
}

impl BspConfig {
    /// A balanced BSP kernel with the given per-iteration work.
    pub fn balanced(iterations: usize, work_ns: f64) -> Self {
        Self {
            iterations,
            work_ns,
            imbalance: 0.0,
            allreduce_bytes: 8,
        }
    }
}

/// Result of one BSP run.
#[derive(Debug, Clone, PartialEq)]
pub struct BspRun {
    /// Total wall time, nanoseconds.
    pub total_ns: f64,
    /// Per-rank time spent computing, nanoseconds.
    pub compute_ns: Vec<f64>,
    /// Per-rank time spent waiting at synchronization, nanoseconds.
    pub wait_ns: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
}

impl BspRun {
    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.compute_ns.len()
    }

    /// Fraction of the run each rank spent waiting (noise + imbalance
    /// cost).
    pub fn wait_fraction(&self, rank: usize) -> f64 {
        self.wait_ns[rank] / self.total_ns.max(1e-300)
    }

    /// The parallel efficiency proxy: mean compute time over total time.
    pub fn efficiency(&self) -> f64 {
        let mean_compute = self.compute_ns.iter().sum::<f64>() / self.compute_ns.len() as f64;
        mean_compute / self.total_ns.max(1e-300)
    }
}

/// Simulates one BSP run on an allocation.
pub fn bsp_run(
    machine: &MachineSpec,
    alloc: &Allocation,
    config: &BspConfig,
    rng: &mut SimRng,
) -> BspRun {
    let p = alloc.ranks();
    assert!(p >= 1, "BSP needs at least one rank");
    assert!(config.iterations >= 1, "BSP needs at least one iteration");

    let mut compute_ns = vec![0.0f64; p];
    let mut wait_ns = vec![0.0f64; p];
    let mut now = 0.0f64; // iterations are globally synchronized

    for _ in 0..config.iterations {
        // Compute phase: per-rank noisy work with static imbalance.
        let mut finish = vec![0.0f64; p];
        for r in 0..p {
            let skew = if p > 1 {
                1.0 + config.imbalance * r as f64 / (p as f64 - 1.0)
            } else {
                1.0
            };
            let work = machine.noise.perturb(config.work_ns * skew, rng);
            compute_ns[r] += work;
            finish[r] = now + work;
        }
        let compute_end = finish.iter().cloned().fold(0.0, f64::max);

        // Synchronization: allreduce starting when the slowest rank is
        // done (the collective's internal skew is modeled by the
        // collective itself).
        let sync = allreduce(machine, alloc, config.allreduce_bytes, rng);
        // p >= 1 is asserted by the collective, so the outcome is never empty.
        let iter_end = compute_end + sync.max_ns().unwrap_or(0.0);
        for r in 0..p {
            // Waiting = everything that is not own compute.
            wait_ns[r] += iter_end - finish[r];
        }
        now = iter_end;
    }

    BspRun {
        total_ns: now,
        compute_ns,
        wait_ns,
        iterations: config.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocationPolicy;

    fn run_on(machine: &MachineSpec, p: usize, config: &BspConfig, seed: u64) -> BspRun {
        let mut rng = SimRng::new(seed);
        let alloc = Allocation::one_rank_per_node(machine, p, AllocationPolicy::Packed, &mut rng);
        bsp_run(machine, &alloc, config, &mut rng)
    }

    #[test]
    fn quiet_balanced_run_has_no_wait_beyond_collectives() {
        let m = MachineSpec::test_machine(8);
        let c = BspConfig::balanced(10, 100_000.0);
        let r = run_on(&m, 8, &c, 1);
        assert_eq!(r.ranks(), 8);
        assert_eq!(r.iterations, 10);
        // All ranks compute the same amount on a quiet machine.
        for w in r.compute_ns.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6);
        }
        // Waiting is exactly the collective time (identical per rank).
        assert!(r.wait_fraction(0) < 0.2, "wait {}", r.wait_fraction(0));
        assert!(r.efficiency() > 0.8);
    }

    #[test]
    fn noise_amplifies_with_scale() {
        // The §4.2.1 effect: the same noisy machine wastes a larger
        // fraction of time at larger scale (max of p draws grows).
        let m = MachineSpec::piz_daint();
        let c = BspConfig::balanced(20, 1.0e6);
        let eff_small = run_on(&m, 4, &c, 2).efficiency();
        let eff_large = run_on(&m, 64, &c, 2).efficiency();
        assert!(
            eff_large < eff_small,
            "efficiency should drop with scale: {eff_small} -> {eff_large}"
        );
    }

    #[test]
    fn imbalance_shifts_waiting_to_fast_ranks() {
        let m = MachineSpec::test_machine(8);
        let c = BspConfig {
            imbalance: 0.5,
            ..BspConfig::balanced(10, 100_000.0)
        };
        let r = run_on(&m, 8, &c, 3);
        // Rank 0 (least work) waits the most; the last rank the least.
        assert!(r.wait_ns[0] > r.wait_ns[7], "{:?}", r.wait_ns);
        assert!(r.compute_ns[7] > r.compute_ns[0] * 1.4);
    }

    #[test]
    fn total_time_consistency() {
        let m = MachineSpec::test_machine(4);
        let c = BspConfig::balanced(5, 50_000.0);
        let r = run_on(&m, 4, &c, 4);
        // compute + wait = total, per rank.
        for rank in 0..4 {
            let sum = r.compute_ns[rank] + r.wait_ns[rank];
            assert!(
                (sum - r.total_ns).abs() < 1e-6,
                "rank {rank}: {sum} vs {}",
                r.total_ns
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = MachineSpec::piz_daint();
        let c = BspConfig::balanced(5, 1e5);
        let a = run_on(&m, 16, &c, 5);
        let b = run_on(&m, 16, &c, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn single_rank_never_waits_long() {
        let m = MachineSpec::test_machine(2);
        let c = BspConfig::balanced(5, 1e5);
        let r = run_on(&m, 1, &c, 6);
        assert!(r.wait_fraction(0) < 1e-9);
        assert!((r.efficiency() - 1.0).abs() < 1e-9);
    }
}
