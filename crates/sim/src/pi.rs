//! The π-digits scaling workload of Figure 7(a,b).
//!
//! The paper: "Figure 7 shows scaling results from calculating digits of
//! Pi on Piz Daint. The code is fully parallel until the execution of a
//! single reduction; the base case takes 20 ms of which 0.2 ms is caused
//! by a serial initialization (b = 0.01)." The final reduction follows the
//! empirical piecewise model
//!
//! ```text
//! f(p ≤ 8)        = 10 ns
//! f(8 < p ≤ 16)   = 0.1 ms · log₂ p
//! f(p > 16)       = 0.17 ms · log₂ p
//! ```
//!
//! (the three pieces reflect Piz Daint's intra-socket / intra-group /
//! inter-group communication tiers).

use crate::machine::MachineSpec;
use crate::rng::SimRng;

/// Configuration of the π workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiConfig {
    /// Total single-process runtime in seconds (paper: 20 ms).
    pub base_time_s: f64,
    /// Serial fraction `b` (paper: 0.01).
    pub serial_fraction: f64,
    /// Relative measurement noise (folded sigma); Figure 7's caption says
    /// the 95 % CI was within 5 % of the mean over 10 repetitions.
    pub noise_sigma: f64,
}

impl PiConfig {
    /// The paper's Figure 7 configuration.
    pub fn paper_figure7() -> Self {
        Self {
            base_time_s: 20e-3,
            serial_fraction: 0.01,
            noise_sigma: 0.012,
        }
    }

    /// Serial time (seconds).
    pub fn serial_time_s(&self) -> f64 {
        self.base_time_s * self.serial_fraction
    }

    /// Parallelizable time (seconds).
    pub fn parallel_time_s(&self) -> f64 {
        self.base_time_s * (1.0 - self.serial_fraction)
    }
}

/// The paper's piecewise reduction-overhead model, seconds.
pub fn reduction_overhead_s(p: usize) -> f64 {
    assert!(p >= 1);
    let log2p = (p as f64).log2();
    if p <= 8 {
        10e-9
    } else if p <= 16 {
        0.1e-3 * log2p
    } else {
        0.17e-3 * log2p
    }
}

/// Deterministic model time for `p` processes (the curve the bounds models
/// are compared against), seconds.
pub fn model_time_s(config: &PiConfig, p: usize) -> f64 {
    assert!(p >= 1);
    config.serial_time_s() + config.parallel_time_s() / p as f64 + reduction_overhead_s(p)
}

/// Simulates one measured run at `p` processes: the model time perturbed
/// by folded-lognormal noise (plus the machine's daemon duty cycle).
pub fn pi_run_s(machine: &MachineSpec, config: &PiConfig, p: usize, rng: &mut SimRng) -> f64 {
    let base = model_time_s(config, p);
    let jitter = (config.noise_sigma * rng.std_normal().abs()).exp();
    let daemon_factor = if machine.noise.daemon_period_ns > 0.0 {
        1.0 + machine.noise.daemon_cost_ns / machine.noise.daemon_period_ns
    } else {
        1.0
    };
    base * jitter * daemon_factor
}

/// Runs `reps` measurements at each process count in `process_counts`.
///
/// Returns one vector of measured times (seconds) per process count.
pub fn pi_scaling_study(
    machine: &MachineSpec,
    config: &PiConfig,
    process_counts: &[usize],
    reps: usize,
    rng: &mut SimRng,
) -> Vec<Vec<f64>> {
    process_counts
        .iter()
        .map(|&p| {
            (0..reps)
                .map(|_| pi_run_s(machine, config, p, rng))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_model_pieces() {
        assert_eq!(reduction_overhead_s(1), 10e-9);
        assert_eq!(reduction_overhead_s(8), 10e-9);
        assert!((reduction_overhead_s(16) - 0.1e-3 * 4.0).abs() < 1e-12);
        assert!((reduction_overhead_s(32) - 0.17e-3 * 5.0).abs() < 1e-12);
        // Discontinuity at the 8→9 boundary is upward.
        assert!(reduction_overhead_s(9) > reduction_overhead_s(8));
    }

    #[test]
    fn base_case_matches_paper() {
        let c = PiConfig::paper_figure7();
        assert!((c.serial_time_s() - 0.2e-3).abs() < 1e-12);
        assert!((model_time_s(&c, 1) - 20e-3).abs() < 1e-6);
    }

    #[test]
    fn speedup_is_sublinear_and_bounded_by_amdahl() {
        let c = PiConfig::paper_figure7();
        let t1 = model_time_s(&c, 1);
        for p in [2usize, 4, 8, 16, 32] {
            let speedup = t1 / model_time_s(&c, p);
            assert!(speedup < p as f64, "p={p} speedup={speedup}");
            let amdahl = 1.0 / (c.serial_fraction + (1.0 - c.serial_fraction) / p as f64);
            assert!(
                speedup <= amdahl + 1e-9,
                "p={p}: {speedup} vs Amdahl {amdahl}"
            );
        }
    }

    #[test]
    fn parallel_overhead_eventually_dominates() {
        // With the 0.17 ms·log₂ p overhead the model must flatten hard:
        // the speedup at 32 is well below Amdahl's bound.
        let c = PiConfig::paper_figure7();
        let t1 = model_time_s(&c, 1);
        let s32 = t1 / model_time_s(&c, 32);
        let amdahl32 = 1.0 / (0.01 + 0.99 / 32.0);
        assert!(s32 < 0.9 * amdahl32, "s32 = {s32}, amdahl = {amdahl32}");
    }

    #[test]
    fn measured_runs_are_close_to_model() {
        // Figure 7 caption: 95 % CI within 5 % of the mean.
        let m = MachineSpec::piz_daint();
        let c = PiConfig::paper_figure7();
        let mut rng = SimRng::new(1);
        for p in [1usize, 4, 16, 32] {
            let runs: Vec<f64> = (0..10).map(|_| pi_run_s(&m, &c, p, &mut rng)).collect();
            let model = model_time_s(&c, p);
            for &r in &runs {
                assert!(r >= model, "measurement below model");
                assert!(
                    r < model * 1.15,
                    "measurement {r} too far above model {model}"
                );
            }
        }
    }

    #[test]
    fn scaling_study_shapes() {
        let m = MachineSpec::piz_daint();
        let c = PiConfig::paper_figure7();
        let mut rng = SimRng::new(2);
        let counts = [1usize, 2, 4, 8];
        let data = pi_scaling_study(&m, &c, &counts, 5, &mut rng);
        assert_eq!(data.len(), 4);
        assert!(data.iter().all(|v| v.len() == 5));
        // Mean time decreases with p in this range.
        let means: Vec<f64> = data
            .iter()
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        for w in means.windows(2) {
            assert!(w[1] < w[0], "{means:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = MachineSpec::piz_daint();
        let c = PiConfig::paper_figure7();
        let a = pi_scaling_study(&m, &c, &[1, 2, 4], 3, &mut SimRng::new(7));
        let b = pi_scaling_study(&m, &c, &[1, 2, 4], 3, &mut SimRng::new(7));
        assert_eq!(a, b);
    }
}
