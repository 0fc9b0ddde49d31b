//! Point-to-point message cost model (LogGP-style).
//!
//! The deterministic cost of sending `bytes` from node `a` to node `b` is
//!
//! ```text
//! T = injection + hops(a, b) · per_hop + bytes / bandwidth [+ rendezvous]
//! ```
//!
//! with the rendezvous handshake added above the eager threshold — the
//! protocol switch responsible for the piecewise latency curves every MPI
//! implementation exhibits. Noise is applied on top by callers through the
//! machine's [`crate::noise::NoiseProfile`].

use crate::fault::{FaultContext, SimFault};
use crate::machine::MachineSpec;
use crate::noise::NoiseProfile;
use crate::rng::SimRng;

/// Message transfer model bound to one machine.
#[derive(Debug, Clone)]
pub struct NetworkModel<'m> {
    machine: &'m MachineSpec,
}

impl<'m> NetworkModel<'m> {
    /// Creates the model for a machine.
    pub fn new(machine: &'m MachineSpec) -> Self {
        Self { machine }
    }

    /// The machine this model describes.
    pub fn machine(&self) -> &MachineSpec {
        self.machine
    }

    /// Deterministic (noise-free) transfer time in nanoseconds for a
    /// message of `bytes` from node `src` to node `dst`.
    pub fn base_transfer_ns(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        let net = &self.machine.network;
        if src == dst {
            // Intra-node (shared memory): a fraction of the injection cost
            // plus a fast memcpy.
            return net.injection_ns * 0.3 + bytes as f64 / (net.bandwidth_bytes_per_ns * 4.0);
        }
        let hops = net.topology.hops(src, dst) as f64;
        let mut t =
            net.injection_ns + hops * net.per_hop_ns + bytes as f64 / net.bandwidth_bytes_per_ns;
        if bytes > net.eager_threshold_bytes {
            t += net.rendezvous_ns;
        }
        t
    }

    /// Noisy transfer time: the base cost perturbed by the machine's noise
    /// profile.
    pub fn transfer_ns(&self, src: usize, dst: usize, bytes: usize, rng: &mut SimRng) -> f64 {
        let base = self.base_transfer_ns(src, dst, bytes);
        self.machine.noise.perturb(base, rng)
    }

    /// Noisy transfer time on a machine with injected faults.
    ///
    /// Checks the fault context before and during the transfer:
    /// a crashed endpoint fails the transfer outright; a straggler
    /// endpoint multiplies its cost; a flaky link pays a retransmit
    /// penalty per dropped packet and fails once the retransmit budget
    /// is exhausted. Noise draws still come from `rng` (the base stream),
    /// while link-drop coins come from the context's dedicated stream, so
    /// a transfer experiencing zero fault events costs exactly what
    /// [`NetworkModel::transfer_ns`] would report. On success the
    /// context's simulation clock advances by the total cost.
    pub fn transfer_faulty_ns(
        &self,
        src: usize,
        dst: usize,
        bytes: usize,
        ctx: &mut FaultContext,
        rng: &mut SimRng,
    ) -> Result<f64, SimFault> {
        let base = self.base_transfer_ns(src, dst, bytes);
        self.transfer_faulty_from_base_ns(src, dst, base, ctx, rng)
    }

    /// [`NetworkModel::transfer_faulty_ns`] with the deterministic base
    /// cost precomputed by the caller — the hot-path entry point used by
    /// the ping-pong loop and the compiled-schedule replayer, which hoist
    /// [`NetworkModel::base_transfer_ns`] out of their sample loops.
    /// `base_ns` must equal `base_transfer_ns(src, dst, bytes)` for the
    /// message this transfer models; noise and fault draws are then
    /// bit-identical to the recomputing variant.
    pub fn transfer_faulty_from_base_ns(
        &self,
        src: usize,
        dst: usize,
        base_ns: f64,
        ctx: &mut FaultContext,
        rng: &mut SimRng,
    ) -> Result<f64, SimFault> {
        faulty_transfer_ns(&self.machine.noise, src, dst, base_ns, ctx, rng)
    }

    /// Noisy transfer time under an overridden noise profile, to isolate
    /// one noise source.
    pub fn transfer_with_noise_ns(
        &self,
        src: usize,
        dst: usize,
        bytes: usize,
        noise: &NoiseProfile,
        rng: &mut SimRng,
    ) -> f64 {
        noise.perturb(self.base_transfer_ns(src, dst, bytes), rng)
    }
}

/// The fault rule of one transfer, shared by
/// [`NetworkModel::transfer_faulty_from_base_ns`] and
/// [`crate::compile::CompiledSchedule::replay_faulty_into`]: crash checks
/// on both endpoint nodes, the noise draw from `rng`, the slower
/// endpoint's straggler slowdown, one retransmit (penalty plus another
/// slowed base transfer) per link-drop coin from the context's own stream,
/// and the clock advance on success.
pub(crate) fn faulty_transfer_ns(
    noise: &NoiseProfile,
    src: usize,
    dst: usize,
    base_ns: f64,
    ctx: &mut FaultContext,
    rng: &mut SimRng,
) -> Result<f64, SimFault> {
    for node in [src, dst] {
        if let Some(fault) = ctx.crashed(node) {
            return Err(fault);
        }
    }
    let mut t = noise.perturb(base_ns, rng);
    let schedule = ctx.schedule();
    let slowdown = schedule.slowdown_of(src).max(schedule.slowdown_of(dst));
    t *= slowdown;
    let max_retransmits = schedule.plan().max_retransmits;
    let retransmit_penalty_ns = schedule.plan().retransmit_penalty_ns;
    let mut drops = 0u32;
    while ctx.link_drop_coin() {
        drops += 1;
        if drops > max_retransmits {
            return Err(SimFault::LinkFailed { src, dst, drops });
        }
        // Resend: pay the penalty plus another (deterministic) transfer.
        t += retransmit_penalty_ns + base_ns * slowdown;
    }
    ctx.advance(t);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;

    #[test]
    fn base_cost_components() {
        let m = MachineSpec::test_machine(8);
        let net = NetworkModel::new(&m);
        // Crossbar: 1 hop. injection 500 + 200 + 64/10 = 706.4
        let t = net.base_transfer_ns(0, 1, 64);
        assert!((t - 706.4).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let m = MachineSpec::test_machine(8);
        let net = NetworkModel::new(&m);
        let t1 = net.base_transfer_ns(0, 1, 0);
        let t2 = net.base_transfer_ns(0, 1, 1000);
        assert!((t2 - t1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rendezvous_kicks_in_above_threshold() {
        let m = MachineSpec::test_machine(8);
        let net = NetworkModel::new(&m);
        let below = net.base_transfer_ns(0, 1, m.network.eager_threshold_bytes);
        let above = net.base_transfer_ns(0, 1, m.network.eager_threshold_bytes + 1);
        let gap = above - below;
        // One extra byte of bandwidth time plus the full rendezvous cost.
        assert!(gap > m.network.rendezvous_ns * 0.99, "gap = {gap}");
    }

    #[test]
    fn intra_node_is_cheaper() {
        let m = MachineSpec::test_machine(8);
        let net = NetworkModel::new(&m);
        assert!(net.base_transfer_ns(3, 3, 64) < net.base_transfer_ns(3, 4, 64));
    }

    #[test]
    fn more_hops_cost_more() {
        let m = MachineSpec::piz_daint();
        let net = NetworkModel::new(&m);
        // Same router (1 hop) vs different group (3 hops).
        let near = net.base_transfer_ns(0, 1, 64);
        let far = net.base_transfer_ns(0, 900, 64);
        assert!(far > near);
        assert!((far - near - 2.0 * m.network.per_hop_ns).abs() < 1e-9);
    }

    #[test]
    fn quiet_machine_transfer_is_deterministic() {
        let m = MachineSpec::test_machine(4);
        let net = NetworkModel::new(&m);
        let mut rng = SimRng::new(1);
        let a = net.transfer_ns(0, 1, 64, &mut rng);
        let b = net.transfer_ns(0, 1, 64, &mut rng);
        assert_eq!(a, b);
        assert_eq!(a, net.base_transfer_ns(0, 1, 64));
    }

    #[test]
    fn faultless_context_matches_infallible_path() {
        use crate::fault::{FaultContext, FaultPlan};
        let m = MachineSpec::piz_dora();
        let net = NetworkModel::new(&m);
        let root = SimRng::new(99);
        let mut rng_a = root.fork("transfers");
        let mut rng_b = root.fork("transfers");
        let mut ctx = FaultContext::new(&FaultPlan::none(), m.nodes, &root);
        for _ in 0..100 {
            let plain = net.transfer_ns(0, 18, 64, &mut rng_a);
            let faulty = net
                .transfer_faulty_ns(0, 18, 64, &mut ctx, &mut rng_b)
                .unwrap();
            assert_eq!(plain, faulty);
        }
        assert!(ctx.now_ns() > 0.0);
    }

    #[test]
    fn crashed_node_fails_transfers() {
        use crate::fault::{FaultContext, FaultPlan, SimFault};
        let m = MachineSpec::test_machine(4);
        let net = NetworkModel::new(&m);
        let root = SimRng::new(1);
        let plan = FaultPlan {
            node_crash_prob: 1.0,
            crash_window_ns: 0.0, // crash immediately
            ..FaultPlan::none()
        };
        let mut ctx = FaultContext::new(&plan, 4, &root);
        let mut rng = root.fork("transfers");
        let err = net.transfer_faulty_ns(0, 1, 64, &mut ctx, &mut rng);
        assert!(matches!(err, Err(SimFault::NodeCrashed { .. })));
    }

    #[test]
    fn straggler_scales_transfer_cost() {
        use crate::fault::{FaultContext, FaultPlan};
        let m = MachineSpec::test_machine(4);
        let net = NetworkModel::new(&m);
        let root = SimRng::new(1);
        let plan = FaultPlan {
            straggler_prob: 1.0,
            straggler_slowdown: 3.0,
            ..FaultPlan::none()
        };
        let mut ctx = FaultContext::new(&plan, 4, &root);
        let mut rng = root.fork("transfers");
        let t = net
            .transfer_faulty_ns(0, 1, 64, &mut ctx, &mut rng)
            .unwrap();
        assert!((t - 3.0 * net.base_transfer_ns(0, 1, 64)).abs() < 1e-9);
    }

    #[test]
    fn straggler_slows_every_retransmit() {
        use crate::fault::{FaultContext, FaultPlan};
        let m = MachineSpec::test_machine(4);
        let net = NetworkModel::new(&m);
        let root = SimRng::new(3);
        let plan = FaultPlan {
            straggler_prob: 1.0,
            straggler_slowdown: 3.0,
            link_drop_prob: 0.5,
            retransmit_penalty_ns: 100.0,
            max_retransmits: 64,
            ..FaultPlan::none()
        };
        let mut ctx = FaultContext::new(&plan, 4, &root);
        let mut rng = root.fork("transfers");
        let slowed = 3.0 * net.base_transfer_ns(0, 1, 64);
        for _ in 0..50 {
            let drops_before = ctx.link_drops();
            let t = net
                .transfer_faulty_ns(0, 1, 64, &mut ctx, &mut rng)
                .unwrap();
            let drops = (ctx.link_drops() - drops_before) as f64;
            assert!((t - (slowed + drops * (100.0 + slowed))).abs() < 1e-6);
        }
        assert!(ctx.link_drops() > 0, "a 50% drop rate never fired");
    }

    #[test]
    fn certain_link_drop_exhausts_retransmit_budget() {
        use crate::fault::{FaultContext, FaultPlan, SimFault};
        let m = MachineSpec::test_machine(4);
        let net = NetworkModel::new(&m);
        let root = SimRng::new(1);
        let plan = FaultPlan {
            link_drop_prob: 1.0,
            retransmit_penalty_ns: 100.0,
            max_retransmits: 3,
            ..FaultPlan::none()
        };
        let mut ctx = FaultContext::new(&plan, 4, &root);
        let mut rng = root.fork("transfers");
        let err = net.transfer_faulty_ns(0, 1, 64, &mut ctx, &mut rng);
        assert_eq!(
            err,
            Err(SimFault::LinkFailed {
                src: 0,
                dst: 1,
                drops: 4
            })
        );
    }

    #[test]
    fn occasional_drops_add_retransmit_cost() {
        use crate::fault::{FaultContext, FaultPlan};
        let m = MachineSpec::test_machine(4);
        let net = NetworkModel::new(&m);
        let root = SimRng::new(5);
        let plan = FaultPlan {
            link_drop_prob: 0.3,
            retransmit_penalty_ns: 5_000.0,
            max_retransmits: 10,
            ..FaultPlan::none()
        };
        let mut ctx = FaultContext::new(&plan, 4, &root);
        let mut rng = root.fork("transfers");
        let base = net.base_transfer_ns(0, 1, 64);
        let mut saw_retransmit = false;
        for _ in 0..200 {
            let t = net
                .transfer_faulty_ns(0, 1, 64, &mut ctx, &mut rng)
                .unwrap();
            assert!(t >= base - 1e-9);
            if t > base + 4_999.0 {
                saw_retransmit = true;
            }
        }
        assert!(saw_retransmit, "30% drop rate never fired in 200 transfers");
    }

    #[test]
    fn noisy_machine_produces_spread() {
        let m = MachineSpec::piz_dora();
        let net = NetworkModel::new(&m);
        let mut rng = SimRng::new(7);
        let xs: Vec<f64> = (0..1000)
            .map(|_| net.transfer_ns(0, 8, 64, &mut rng))
            .collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.05, "min {min} max {max}");
        // All above half the base cost (noise only adds, modulo jitter).
        let base = net.base_transfer_ns(0, 8, 64);
        assert!(min > base * 0.5);
    }
}
