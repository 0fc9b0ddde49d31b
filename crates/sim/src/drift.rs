//! Per-process clock offset and drift (§4.2.1 "Parallel time").
//!
//! "Most of today's parallel systems are asynchronous and do not have a
//! common clock source. Furthermore, clock drift between processes could
//! impact measurements" — this module gives every simulated process its
//! own local clock, defined by an offset and a drift rate relative to
//! global (true) simulation time. The window-based synchronization scheme
//! the paper proposes is implemented on top of these clocks in the core
//! crate.

use crate::rng::SimRng;

/// A process-local clock: `local(t) = offset + t · (1 + drift)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftingClock {
    /// Offset from global time at t = 0, nanoseconds.
    pub offset_ns: f64,
    /// Fractional frequency error; e.g. 1e-6 = 1 µs/s fast.
    pub drift: f64,
}

impl DriftingClock {
    /// A perfect clock (zero offset, zero drift).
    pub fn perfect() -> Self {
        Self {
            offset_ns: 0.0,
            drift: 0.0,
        }
    }

    /// Samples a realistic clock: offsets up to ±`max_offset_ns`, drift
    /// rates normally distributed with standard deviation `drift_sd`
    /// (typical quartz crystals drift by a few ppm).
    pub fn sample(max_offset_ns: f64, drift_sd: f64, rng: &mut SimRng) -> Self {
        Self {
            offset_ns: rng.uniform_range(-max_offset_ns, max_offset_ns),
            drift: rng.normal(0.0, drift_sd),
        }
    }

    /// Converts a global timestamp to this process's local reading.
    pub fn local_from_global(&self, global_ns: f64) -> f64 {
        self.offset_ns + global_ns * (1.0 + self.drift)
    }

    /// Converts a local reading back to global time.
    pub fn global_from_local(&self, local_ns: f64) -> f64 {
        (local_ns - self.offset_ns) / (1.0 + self.drift)
    }

    /// Instantaneous skew between two processes' local readings of the
    /// same global instant.
    pub fn skew_to(&self, other: &DriftingClock, global_ns: f64) -> f64 {
        self.local_from_global(global_ns) - other.local_from_global(global_ns)
    }

    /// This clock after an injected step change of `jump_ns` (e.g. an NTP
    /// correction or a fault-injected clock jump): all subsequent local
    /// readings shift by the jump.
    pub fn with_jump(&self, jump_ns: f64) -> DriftingClock {
        DriftingClock {
            offset_ns: self.offset_ns + jump_ns,
            drift: self.drift,
        }
    }
}

/// The local clocks of a whole process group.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockEnsemble {
    clocks: Vec<DriftingClock>,
}

impl ClockEnsemble {
    /// Perfect clocks for `p` processes (noise-free baseline).
    pub fn perfect(p: usize) -> Self {
        Self {
            clocks: vec![DriftingClock::perfect(); p],
        }
    }

    /// Samples `p` drifting clocks.
    pub fn sample(p: usize, max_offset_ns: f64, drift_sd: f64, rng: &mut SimRng) -> Self {
        Self {
            clocks: (0..p)
                .map(|_| DriftingClock::sample(max_offset_ns, drift_sd, rng))
                .collect(),
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Whether the ensemble is empty.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// The clock of process `rank`.
    pub fn clock(&self, rank: usize) -> &DriftingClock {
        &self.clocks[rank]
    }

    /// The ensemble as observed at global time `at_ns` under a fault
    /// schedule: every process on a node whose scheduled clock jump has
    /// already fired reads a clock shifted by that jump. `node_of[rank]`
    /// maps each process to its node.
    pub fn with_fault_jumps(
        &self,
        schedule: &crate::fault::FaultSchedule,
        node_of: &[usize],
        at_ns: f64,
    ) -> ClockEnsemble {
        assert_eq!(
            node_of.len(),
            self.clocks.len(),
            "node_of must map every rank"
        );
        ClockEnsemble {
            clocks: self
                .clocks
                .iter()
                .zip(node_of)
                .map(|(clock, &node)| match schedule.clock_jump_of(node) {
                    Some(jump) if jump.at_ns <= at_ns => clock.with_jump(jump.jump_ns),
                    _ => *clock,
                })
                .collect(),
        }
    }

    /// Largest pairwise skew across the ensemble at a global instant.
    pub fn max_skew_ns(&self, global_ns: f64) -> f64 {
        let readings: Vec<f64> = self
            .clocks
            .iter()
            .map(|c| c.local_from_global(global_ns))
            .collect();
        let min = readings.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = readings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let c = DriftingClock::perfect();
        assert_eq!(c.local_from_global(12345.0), 12345.0);
        assert_eq!(c.global_from_local(12345.0), 12345.0);
    }

    #[test]
    fn conversions_round_trip() {
        let c = DriftingClock {
            offset_ns: 5_000.0,
            drift: 2e-6,
        };
        for &t in &[0.0, 1e3, 1e9, 1e12] {
            let back = c.global_from_local(c.local_from_global(t));
            assert!((back - t).abs() < 1e-3, "t = {t}");
        }
    }

    #[test]
    fn drift_grows_with_time() {
        let fast = DriftingClock {
            offset_ns: 0.0,
            drift: 1e-6,
        };
        let slow = DriftingClock {
            offset_ns: 0.0,
            drift: -1e-6,
        };
        let at_1s = fast.skew_to(&slow, 1e9);
        let at_10s = fast.skew_to(&slow, 1e10);
        assert!((at_1s - 2_000.0).abs() < 1e-6, "skew {at_1s}");
        assert!((at_10s - 20_000.0).abs() < 1e-5);
    }

    #[test]
    fn sampled_clocks_within_bounds() {
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            let c = DriftingClock::sample(10_000.0, 1e-6, &mut rng);
            assert!(c.offset_ns.abs() <= 10_000.0);
            assert!(c.drift.abs() < 1e-5);
        }
    }

    #[test]
    fn ensemble_skew() {
        let e = ClockEnsemble {
            clocks: vec![
                DriftingClock {
                    offset_ns: 0.0,
                    drift: 0.0,
                },
                DriftingClock {
                    offset_ns: 100.0,
                    drift: 0.0,
                },
                DriftingClock {
                    offset_ns: -50.0,
                    drift: 0.0,
                },
            ],
        };
        assert_eq!(e.max_skew_ns(0.0), 150.0);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    #[test]
    fn perfect_ensemble_has_zero_skew() {
        let e = ClockEnsemble::perfect(8);
        assert_eq!(e.max_skew_ns(1e9), 0.0);
    }

    #[test]
    fn jump_shifts_all_later_readings() {
        let c = DriftingClock::perfect().with_jump(500.0);
        assert_eq!(c.local_from_global(0.0), 500.0);
        assert_eq!(c.local_from_global(1000.0), 1500.0);
    }

    #[test]
    fn fault_jumps_apply_only_after_their_instant() {
        use crate::fault::{FaultPlan, FaultSchedule};
        use crate::rng::SimRng;
        let plan = FaultPlan {
            clock_jump_prob: 1.0,
            clock_jump_ns: 1_000.0,
            clock_jump_window_ns: 100.0,
            ..FaultPlan::none()
        };
        let schedule = FaultSchedule::compile(&plan, 4, &SimRng::new(5));
        let ensemble = ClockEnsemble::perfect(4);
        let node_of = [0usize, 1, 2, 3];
        // Before any jump fires the ensemble is unchanged.
        let before = ensemble.with_fault_jumps(&schedule, &node_of, -1.0);
        assert_eq!(before.max_skew_ns(0.0), 0.0);
        // After the window every node has jumped by ±1000 ns; skew is
        // nonzero unless every jump happened to share a direction.
        let after = ensemble.with_fault_jumps(&schedule, &node_of, 200.0);
        let readings: Vec<f64> = (0..4)
            .map(|r| after.clock(r).local_from_global(0.0))
            .collect();
        for r in &readings {
            assert_eq!(r.abs(), 1_000.0);
        }
    }

    #[test]
    fn sampled_ensemble_is_deterministic() {
        let mut r1 = SimRng::new(3);
        let mut r2 = SimRng::new(3);
        let a = ClockEnsemble::sample(4, 1000.0, 1e-6, &mut r1);
        let b = ClockEnsemble::sample(4, 1000.0, 1e-6, &mut r2);
        assert_eq!(a, b);
    }
}
