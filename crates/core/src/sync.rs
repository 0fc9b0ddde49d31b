//! Synchronizing parallel time measurements (§4.2.1 "Parallel time",
//! Rule 10).
//!
//! Two schemes are implemented over the simulator's drifting clocks:
//!
//! * **Barrier synchronization** ([`barrier_sync_start`]): processes leave
//!   a dissemination barrier and start "simultaneously" — but barrier exit
//!   times skew by network latency, which is why the paper calls barriers
//!   "unreliable" for timing;
//! * **Window synchronization** ([`window_sync_start`]): the paper's
//!   recommendation — "a master synchronizes the clocks of all processes
//!   and broadcasts a common start time for the operation. The start time
//!   is sufficiently far in the future that the broadcast will arrive
//!   before the time itself."
//!
//! Both return the *global* times at which each rank actually starts, so
//! experiments (and the `ablation_sync` example) can quantify the residual
//! skew of each scheme.

use scibench_sim::alloc::Allocation;
use scibench_sim::collectives;
use scibench_sim::drift::ClockEnsemble;
use scibench_sim::machine::MachineSpec;
use scibench_sim::network::NetworkModel;
use scibench_sim::rng::SimRng;

/// Result of one synchronization attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncOutcome {
    /// Global time at which each rank starts the measured operation.
    pub start_global_ns: Vec<f64>,
    /// Global time when the synchronization protocol itself finished
    /// (cost of synchronizing).
    pub protocol_end_ns: f64,
}

impl SyncOutcome {
    /// Maximum start-time skew across ranks — the figure of merit;
    /// smaller is better.
    pub fn max_skew_ns(&self) -> f64 {
        let min = self
            .start_global_ns
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = self
            .start_global_ns
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        max - min
    }
}

/// Barrier-based start: every rank begins as soon as it leaves a
/// dissemination barrier.
///
/// The skew equals the spread of barrier exit times ("neither MPI nor
/// OpenMP provides timing guarantees for their barrier calls").
pub fn barrier_sync_start(
    machine: &MachineSpec,
    alloc: &Allocation,
    rng: &mut SimRng,
) -> SyncOutcome {
    let outcome = collectives::barrier(machine, alloc, rng);
    // p >= 1 is asserted by the collective, so the outcome is never empty.
    let protocol_end_ns = outcome.max_ns().unwrap_or(0.0);
    SyncOutcome {
        start_global_ns: outcome.per_rank_done_ns,
        protocol_end_ns,
    }
}

/// Window-based start (the paper's recommended scheme).
///
/// 1. The master (rank 0) measures the offset of every worker clock with
///    a ping-pong exchange (`offset ≈ master_time − worker_time` at the
///    midpoint of the round trip, the classic Cristian method);
/// 2. it broadcasts a start deadline `window_ns` in the future (in its
///    own clock);
/// 3. each rank converts the deadline into its local clock using the
///    measured offset and busy-waits until then.
///
/// Residual skew comes only from the offset-estimation error (half the
/// round-trip asymmetry) and clock drift over the window — typically far
/// smaller than barrier skew.
pub fn window_sync_start(
    machine: &MachineSpec,
    alloc: &Allocation,
    clocks: &ClockEnsemble,
    window_ns: f64,
    rng: &mut SimRng,
) -> SyncOutcome {
    let p = alloc.ranks();
    assert_eq!(clocks.len(), p, "clock ensemble must match allocation");
    assert!(window_ns > 0.0, "window must be positive");
    let net = NetworkModel::new(machine);

    // Phase 1: offset measurement, sequential ping-pongs from the master.
    let mut global_now = 0.0f64;
    let mut offset_estimate = vec![0.0f64; p]; // worker-local minus master-local
    #[allow(clippy::needless_range_loop)] // r indexes three parallel structures
    for r in 1..p {
        let t_send = net.transfer_ns(alloc.node_of[0], alloc.node_of[r], 16, rng);
        let t_recv = net.transfer_ns(alloc.node_of[r], alloc.node_of[0], 16, rng);
        // Worker reads its clock when the request arrives.
        let worker_read_global = global_now + t_send;
        let worker_local = clocks.clock(r).local_from_global(worker_read_global);
        // Master timestamps send and receive on its own clock.
        let master_send_local = clocks.clock(0).local_from_global(global_now);
        let master_recv_local = clocks
            .clock(0)
            .local_from_global(global_now + t_send + t_recv);
        // Cristian: assume the worker read happened at the midpoint.
        let midpoint = 0.5 * (master_send_local + master_recv_local);
        offset_estimate[r] = worker_local - midpoint;
        global_now += t_send + t_recv;
    }

    // Phase 2: broadcast the deadline (master-local clock time).
    let deadline_master_local = clocks.clock(0).local_from_global(global_now) + window_ns;
    let bcast = collectives::broadcast(machine, alloc, 8, rng);
    let protocol_end_ns = global_now + bcast.max_ns().unwrap_or(0.0);

    // Phase 3: every rank waits until the deadline on its own clock.
    let mut start_global_ns = Vec::with_capacity(p);
    #[allow(clippy::needless_range_loop)] // r indexes three parallel structures
    for r in 0..p {
        let deadline_local = deadline_master_local + offset_estimate[r];
        let start_global = clocks.clock(r).global_from_local(deadline_local);
        // A rank that received the broadcast after the deadline starts
        // immediately (window too small).
        let arrival = global_now + bcast.per_rank_done_ns[r];
        start_global_ns.push(start_global.max(arrival));
    }
    SyncOutcome {
        start_global_ns,
        protocol_end_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scibench_sim::alloc::AllocationPolicy;

    fn setup(p: usize, seed: u64) -> (MachineSpec, Allocation, SimRng) {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(seed);
        let a = Allocation::one_rank_per_node(&m, p, AllocationPolicy::Packed, &mut rng);
        (m, a, rng)
    }

    #[test]
    fn barrier_skew_is_nonzero_on_noisy_machine() {
        let (m, a, mut rng) = setup(16, 1);
        let out = barrier_sync_start(&m, &a, &mut rng);
        assert_eq!(out.start_global_ns.len(), 16);
        assert!(out.max_skew_ns() > 0.0);
    }

    #[test]
    fn window_sync_beats_barrier_sync() {
        // The core claim of §4.2.1 — averaged over repetitions.
        let (m, a, mut rng) = setup(16, 2);
        let clocks = ClockEnsemble::sample(16, 50_000.0, 1e-6, &mut rng.fork("clocks"));
        let reps = 30;
        let mut barrier_total = 0.0;
        let mut window_total = 0.0;
        for _ in 0..reps {
            barrier_total += barrier_sync_start(&m, &a, &mut rng).max_skew_ns();
            window_total += window_sync_start(&m, &a, &clocks, 1e6, &mut rng).max_skew_ns();
        }
        assert!(
            window_total < barrier_total * 0.5,
            "window {window_total} vs barrier {barrier_total}"
        );
    }

    #[test]
    fn window_sync_with_perfect_clocks_has_tiny_skew() {
        let (m, a, mut rng) = setup(8, 3);
        let clocks = ClockEnsemble::perfect(8);
        let out = window_sync_start(&m, &a, &clocks, 1e6, &mut rng);
        // Perfect clocks: offsets estimated over a symmetric quiet-ish
        // link; skew bounded by noise asymmetry, far below barrier skew.
        assert!(out.max_skew_ns() < 2_000.0, "skew = {}", out.max_skew_ns());
    }

    #[test]
    fn too_small_window_degrades_to_broadcast_arrival() {
        let (m, a, mut rng) = setup(8, 4);
        let clocks = ClockEnsemble::perfect(8);
        // 1 ns window: deadline passes before the broadcast lands.
        let out = window_sync_start(&m, &a, &clocks, 1.0, &mut rng);
        // Ranks start when the broadcast arrives — skew like a broadcast
        // tree depth.
        assert!(out.max_skew_ns() > 500.0, "skew = {}", out.max_skew_ns());
    }

    #[test]
    fn start_times_are_after_protocol_on_generous_window() {
        let (m, a, mut rng) = setup(4, 5);
        let clocks = ClockEnsemble::perfect(4);
        let out = window_sync_start(&m, &a, &clocks, 1e9, &mut rng);
        for &s in &out.start_global_ns {
            assert!(s >= out.protocol_end_ns * 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "clock ensemble must match")]
    fn mismatched_clocks_panic() {
        let (m, a, mut rng) = setup(4, 6);
        let clocks = ClockEnsemble::perfect(3);
        window_sync_start(&m, &a, &clocks, 1e6, &mut rng);
    }
}
