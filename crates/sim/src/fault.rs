//! Deterministic fault injection for resilience experiments.
//!
//! The paper's Rules 4–8 demand that honest reporting survive hostile
//! measurement environments. [`crate::noise`] models *benign* interference
//! (jitter, daemons, congestion) that perturbs costs but never loses them;
//! this module models *failure*: node crashes, straggler processes, flaky
//! links and clock jumps, any of which can render an operation's result
//! unusable. Operations on a faulted machine therefore return
//! `Result<cost, SimFault>` instead of silently succeeding.
//!
//! Everything is deterministic. A [`FaultPlan`] is pure configuration; it
//! is compiled into a [`FaultSchedule`] with [`FaultSchedule::compile`],
//! which draws every per-node decision (who crashes and when, who
//! straggles, whose clock jumps) from a stream forked off the caller's
//! [`SimRng`] under the label `"fault-schedule"`. Per-transfer link coins
//! come from a second fork (`"fault-coins"`) held inside [`FaultContext`],
//! so injecting faults never consumes draws from the base noise stream —
//! a run whose operations happen to experience zero fault events produces
//! **bit-identical** samples to the same run under [`FaultPlan::none`].

use crate::rng::SimRng;

/// A failure observed by a simulated operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimFault {
    /// A node participating in the operation crashed before it completed.
    NodeCrashed {
        /// The crashed node.
        node: usize,
        /// Global simulation time of the crash, nanoseconds.
        at_ns: f64,
    },
    /// A link dropped more consecutive packets than the retransmit budget
    /// allows.
    LinkFailed {
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
        /// Number of drops observed before giving up.
        drops: u32,
    },
    /// The local clock of a node jumped while a sample was being taken,
    /// making the timer reading unusable.
    ClockJumped {
        /// The node whose clock jumped.
        node: usize,
        /// Global simulation time of the jump, nanoseconds.
        at_ns: f64,
        /// Magnitude and direction of the jump, nanoseconds.
        jump_ns: f64,
    },
}

impl std::fmt::Display for SimFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimFault::NodeCrashed { node, at_ns } => {
                write!(f, "node {node} crashed at t = {at_ns:.0} ns")
            }
            SimFault::LinkFailed { src, dst, drops } => {
                write!(f, "link {src} -> {dst} failed after {drops} drops")
            }
            SimFault::ClockJumped {
                node,
                at_ns,
                jump_ns,
            } => {
                write!(
                    f,
                    "clock on node {node} jumped {jump_ns:+.0} ns at t = {at_ns:.0} ns"
                )
            }
        }
    }
}

impl std::error::Error for SimFault {}

/// Configuration of the faults injected into a machine. All probabilities
/// are in `[0, 1]`; the default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that any given node crashes during the experiment.
    pub node_crash_prob: f64,
    /// Crash instants are drawn uniformly in `[0, crash_window_ns)`.
    pub crash_window_ns: f64,
    /// Probability that any given node is a straggler (persistently slow).
    pub straggler_prob: f64,
    /// Multiplicative slowdown of transfers touching a straggler node
    /// (e.g. `3.0` = three times slower).
    pub straggler_slowdown: f64,
    /// Per-transfer probability that a packet is dropped and must be
    /// retransmitted.
    pub link_drop_prob: f64,
    /// Extra cost of each retransmission on top of resending the message,
    /// nanoseconds.
    pub retransmit_penalty_ns: f64,
    /// Consecutive drops beyond this budget fail the transfer with
    /// [`SimFault::LinkFailed`].
    pub max_retransmits: u32,
    /// Probability that any given node's clock jumps once during the
    /// experiment.
    pub clock_jump_prob: f64,
    /// Magnitude of clock jumps, nanoseconds (direction is drawn at
    /// compile time).
    pub clock_jump_ns: f64,
    /// Clock-jump instants are drawn uniformly in `[0, clock_jump_window_ns)`.
    pub clock_jump_window_ns: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults of any kind.
    pub fn none() -> Self {
        FaultPlan {
            node_crash_prob: 0.0,
            crash_window_ns: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            link_drop_prob: 0.0,
            retransmit_penalty_ns: 0.0,
            max_retransmits: 0,
            clock_jump_prob: 0.0,
            clock_jump_ns: 0.0,
            clock_jump_window_ns: 0.0,
        }
    }

    /// Whether this plan can produce any fault at all.
    pub fn is_none(&self) -> bool {
        self.node_crash_prob <= 0.0
            && self.straggler_prob <= 0.0
            && self.link_drop_prob <= 0.0
            && self.clock_jump_prob <= 0.0
    }

    /// A canonical mixed-fault plan scaled by a single `rate` knob in
    /// `[0, 1]`: at `rate = 0` nothing fails; at `rate = 1` every fault
    /// class is drawn aggressively. Used by the fault-ablation experiment
    /// to sweep failure intensity with one parameter.
    ///
    /// Only crashes, stragglers and link drops act on a transfer
    /// ([`crate::network::NetworkModel::transfer_faulty_ns`]). The clock
    /// jumps [`FaultSchedule::compile`] draws are read only by
    /// [`crate::pingpong::pingpong_latencies_faulty_ns`] and
    /// [`crate::drift::ClockEnsemble::with_fault_jumps`], which no
    /// experiment calls, so the jump rate changes no transfer. Its draws
    /// still keep every later node's crash and straggler draws aligned.
    pub fn with_failure_rate(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "failure rate must be in [0, 1], got {rate}"
        );
        FaultPlan {
            node_crash_prob: 0.05 * rate,
            crash_window_ns: 5.0e6,
            straggler_prob: 0.15 * rate,
            straggler_slowdown: 1.0 + 2.0 * rate,
            link_drop_prob: 0.02 * rate,
            retransmit_penalty_ns: 2_000.0,
            max_retransmits: 4,
            clock_jump_prob: 0.05 * rate,
            clock_jump_ns: 1.0e6,
            clock_jump_window_ns: 5.0e6,
        }
    }
}

/// A clock jump scheduled on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockJump {
    /// Global simulation time of the jump, nanoseconds.
    pub at_ns: f64,
    /// Signed magnitude of the jump, nanoseconds.
    pub jump_ns: f64,
}

/// The compiled, per-node realization of a [`FaultPlan`] — *which* nodes
/// crash/straggle/jump and when. A pure function of `(plan, nodes, seed)`:
/// compiling the same inputs always yields the same schedule, regardless
/// of thread count or call order.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    plan: FaultPlan,
    crash_at_ns: Vec<Option<f64>>,
    slowdown: Vec<f64>,
    clock_jump: Vec<Option<ClockJump>>,
}

impl FaultSchedule {
    /// Compiles `plan` for a machine of `nodes` nodes. All decisions are
    /// drawn from `rng.fork("fault-schedule")`, so the caller's stream is
    /// left untouched and the result depends only on the fork's seed.
    pub fn compile(plan: &FaultPlan, nodes: usize, rng: &SimRng) -> Self {
        let mut r = rng.fork("fault-schedule");
        let mut crash_at_ns = Vec::with_capacity(nodes);
        let mut slowdown = Vec::with_capacity(nodes);
        let mut clock_jump = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            // Draw every class for every node, even when its probability is
            // zero, so schedules for different plans with the same seed stay
            // aligned node-by-node (a point with only stragglers enabled
            // picks the same straggler nodes as a point with all classes on).
            let crash = r.bernoulli(plan.node_crash_prob.clamp(0.0, 1.0));
            let crash_t = r.uniform() * plan.crash_window_ns.max(0.0);
            crash_at_ns.push(if crash { Some(crash_t) } else { None });

            let straggles = r.bernoulli(plan.straggler_prob.clamp(0.0, 1.0));
            slowdown.push(if straggles {
                plan.straggler_slowdown.max(1.0)
            } else {
                1.0
            });

            let jumps = r.bernoulli(plan.clock_jump_prob.clamp(0.0, 1.0));
            let jump_t = r.uniform() * plan.clock_jump_window_ns.max(0.0);
            let jump_sign = if r.bernoulli(0.5) { 1.0 } else { -1.0 };
            clock_jump.push(if jumps {
                Some(ClockJump {
                    at_ns: jump_t,
                    jump_ns: jump_sign * plan.clock_jump_ns,
                })
            } else {
                None
            });
        }
        FaultSchedule {
            plan: plan.clone(),
            crash_at_ns,
            slowdown,
            clock_jump,
        }
    }

    /// A schedule with no faults on `nodes` nodes.
    pub fn healthy(nodes: usize) -> Self {
        FaultSchedule {
            plan: FaultPlan::none(),
            crash_at_ns: vec![None; nodes],
            slowdown: vec![1.0; nodes],
            clock_jump: vec![None; nodes],
        }
    }

    /// The plan this schedule was compiled from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of nodes covered by the schedule.
    pub fn nodes(&self) -> usize {
        self.slowdown.len()
    }

    /// When (if ever) `node` crashes.
    pub fn crash_at_ns(&self, node: usize) -> Option<f64> {
        self.crash_at_ns.get(node).copied().flatten()
    }

    /// Persistent slowdown factor of `node` (`1.0` = healthy).
    pub fn slowdown_of(&self, node: usize) -> f64 {
        self.slowdown.get(node).copied().unwrap_or(1.0)
    }

    /// The clock jump scheduled on `node`, if any.
    pub fn clock_jump_of(&self, node: usize) -> Option<ClockJump> {
        self.clock_jump.get(node).copied().flatten()
    }

    /// Number of nodes that crash at some point.
    pub fn crashed_nodes(&self) -> usize {
        self.crash_at_ns.iter().filter(|c| c.is_some()).count()
    }

    /// Number of straggler nodes.
    pub fn straggler_nodes(&self) -> usize {
        self.slowdown.iter().filter(|&&s| s > 1.0).count()
    }

    /// Number of nodes with a scheduled clock jump.
    pub fn clock_jump_nodes(&self) -> usize {
        self.clock_jump.iter().filter(|j| j.is_some()).count()
    }

    /// Whether the schedule can affect any operation (no scheduled events
    /// and no per-transfer link faults).
    pub fn is_trivial(&self) -> bool {
        self.crashed_nodes() == 0
            && self.straggler_nodes() == 0
            && self.clock_jump_nodes() == 0
            && self.plan.link_drop_prob <= 0.0
    }

    /// One-line Rule-9-style description for experiment reports.
    pub fn describe(&self) -> String {
        if self.is_trivial() {
            return "faults: none".into();
        }
        format!(
            "faults: {} crashed node(s), {} straggler(s) (x{:.1}), link drop p = {}, {} clock jump(s)",
            self.crashed_nodes(),
            self.straggler_nodes(),
            self.plan.straggler_slowdown,
            self.plan.link_drop_prob,
            self.clock_jump_nodes(),
        )
    }
}

/// Mutable per-run state for executing operations against a
/// [`FaultSchedule`]: the simulation clock (which decides when crashes
/// take effect) and the dedicated coin stream for per-transfer link
/// faults. Forked under `"fault-coins"`, so link coins never perturb the
/// caller's noise stream.
#[derive(Debug, Clone)]
pub struct FaultContext {
    schedule: FaultSchedule,
    coins: SimRng,
    now_ns: f64,
    coins_drawn: u64,
    link_drops: u64,
}

impl FaultContext {
    /// Compiles `plan` and builds a context, forking both the schedule
    /// stream and the coin stream off `rng` (whose state is not consumed).
    pub fn new(plan: &FaultPlan, nodes: usize, rng: &SimRng) -> Self {
        Self::from_schedule(FaultSchedule::compile(plan, nodes, rng), rng)
    }

    /// Builds a context around an already-compiled schedule.
    pub fn from_schedule(schedule: FaultSchedule, rng: &SimRng) -> Self {
        FaultContext {
            schedule,
            coins: rng.fork("fault-coins"),
            now_ns: 0.0,
            coins_drawn: 0,
            link_drops: 0,
        }
    }

    /// The compiled schedule driving this context.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Current global simulation time, nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Advances the simulation clock by `ns`.
    pub fn advance(&mut self, ns: f64) {
        self.now_ns += ns.max(0.0);
    }

    /// Returns the crash fault for `node` if it has crashed by the current
    /// simulation time.
    pub fn crashed(&self, node: usize) -> Option<SimFault> {
        match self.schedule.crash_at_ns(node) {
            Some(at_ns) if at_ns <= self.now_ns => Some(SimFault::NodeCrashed { node, at_ns }),
            _ => None,
        }
    }

    /// Draws one link-drop coin from the dedicated coin stream.
    pub fn link_drop_coin(&mut self) -> bool {
        let p = self.schedule.plan.link_drop_prob;
        if p <= 0.0 {
            return false;
        }
        self.coins_drawn += 1;
        let dropped = self.coins.bernoulli(p.min(1.0));
        if dropped {
            self.link_drops += 1;
        }
        dropped
    }

    /// Number of link-drop coins drawn so far (one per potentially lossy
    /// transfer attempt).
    pub fn coins_drawn(&self) -> u64 {
        self.coins_drawn
    }

    /// Number of those coins that came up "dropped" — the count of
    /// injected link faults so far.
    pub fn link_drops(&self) -> u64 {
        self.link_drops
    }

    /// Returns the clock jump on `node_a` or `node_b` that fired inside
    /// the window `(from_ns, to_ns]`, if any — i.e. the jump contaminating
    /// a sample taken across that window.
    pub fn jump_crossing(
        &self,
        nodes: [usize; 2],
        from_ns: f64,
        to_ns: f64,
    ) -> Option<(usize, ClockJump)> {
        for node in nodes {
            if let Some(j) = self.schedule.clock_jump_of(node) {
                if from_ns < j.at_ns && j.at_ns <= to_ns {
                    return Some((node, j));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_compiles_to_trivial_schedule() {
        let rng = SimRng::new(7);
        let s = FaultSchedule::compile(&FaultPlan::none(), 64, &rng);
        assert!(s.is_trivial());
        assert_eq!(s.crashed_nodes(), 0);
        assert_eq!(s.straggler_nodes(), 0);
        assert_eq!(s.clock_jump_nodes(), 0);
        assert_eq!(s, FaultSchedule::healthy(64));
    }

    #[test]
    fn compile_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::with_failure_rate(0.5);
        let a = FaultSchedule::compile(&plan, 128, &SimRng::new(11));
        let b = FaultSchedule::compile(&plan, 128, &SimRng::new(11));
        let c = FaultSchedule::compile(&plan, 128, &SimRng::new(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn compile_does_not_consume_parent_stream() {
        let plan = FaultPlan::with_failure_rate(0.8);
        let mut r1 = SimRng::new(3);
        let mut r2 = SimRng::new(3);
        let _ = FaultSchedule::compile(&plan, 64, &r1);
        assert_eq!(r1.uniform(), r2.uniform());
    }

    #[test]
    fn failure_rate_one_injects_heavily() {
        let plan = FaultPlan::with_failure_rate(1.0);
        let s = FaultSchedule::compile(&plan, 1000, &SimRng::new(5));
        // Expectations: 5% crashes, 15% stragglers, 5% jumps over 1000 nodes.
        assert!(
            (20..=90).contains(&s.crashed_nodes()),
            "{}",
            s.crashed_nodes()
        );
        assert!(
            (100..=220).contains(&s.straggler_nodes()),
            "{}",
            s.straggler_nodes()
        );
        assert!(s.clock_jump_nodes() > 10);
        assert!(!s.is_trivial());
    }

    #[test]
    fn failure_rate_zero_is_none() {
        assert!(FaultPlan::with_failure_rate(0.0).is_none());
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::with_failure_rate(0.3).is_none());
    }

    #[test]
    fn schedules_align_across_plans_with_same_seed() {
        // Enabling an extra fault class must not reshuffle which nodes
        // straggle: per-node draws are positionally aligned.
        let only_stragglers = FaultPlan {
            straggler_prob: 0.2,
            straggler_slowdown: 3.0,
            ..FaultPlan::none()
        };
        let everything = FaultPlan {
            straggler_prob: 0.2,
            straggler_slowdown: 3.0,
            node_crash_prob: 0.1,
            crash_window_ns: 1e6,
            ..FaultPlan::none()
        };
        let rng = SimRng::new(21);
        let a = FaultSchedule::compile(&only_stragglers, 256, &rng);
        let b = FaultSchedule::compile(&everything, 256, &rng);
        for node in 0..256 {
            assert_eq!(a.slowdown_of(node), b.slowdown_of(node), "node {node}");
        }
    }

    #[test]
    fn crash_takes_effect_only_after_its_instant() {
        let plan = FaultPlan {
            node_crash_prob: 1.0,
            crash_window_ns: 1000.0,
            ..FaultPlan::none()
        };
        let rng = SimRng::new(2);
        let mut ctx = FaultContext::new(&plan, 4, &rng);
        let at = ctx.schedule().crash_at_ns(0).unwrap();
        assert!(ctx.crashed(0).is_none() || at == 0.0);
        ctx.advance(1000.0);
        assert!(matches!(
            ctx.crashed(0),
            Some(SimFault::NodeCrashed { node: 0, .. })
        ));
    }

    #[test]
    fn jump_crossing_detects_window() {
        let plan = FaultPlan {
            clock_jump_prob: 1.0,
            clock_jump_ns: 500.0,
            clock_jump_window_ns: 1000.0,
            ..FaultPlan::none()
        };
        let rng = SimRng::new(9);
        let ctx = FaultContext::new(&plan, 2, &rng);
        let j = ctx.schedule().clock_jump_of(0).unwrap();
        assert!(ctx
            .jump_crossing([0, 1], j.at_ns - 1.0, j.at_ns + 1.0)
            .is_some());
        assert!(ctx
            .jump_crossing([0, 1], j.at_ns + 1.0, j.at_ns + 2.0)
            .map(|(n, _)| n != 0)
            .unwrap_or(true));
        assert_eq!(j.jump_ns.abs(), 500.0);
    }

    #[test]
    fn link_drop_tallies_count_coins_and_drops() {
        let plan = FaultPlan {
            link_drop_prob: 0.5,
            ..FaultPlan::none()
        };
        let rng = SimRng::new(8);
        let mut ctx = FaultContext::new(&plan, 4, &rng);
        for _ in 0..100 {
            let _ = ctx.link_drop_coin();
        }
        assert_eq!(ctx.coins_drawn(), 100);
        assert!(ctx.link_drops() > 10 && ctx.link_drops() < 90);
        // Tallies replay deterministically for the same seed.
        let mut ctx2 = FaultContext::new(&plan, 4, &rng);
        for _ in 0..100 {
            let _ = ctx2.link_drop_coin();
        }
        assert_eq!(ctx2.link_drops(), ctx.link_drops());
    }

    #[test]
    fn faultless_plan_draws_no_coins() {
        let mut ctx = FaultContext::new(&FaultPlan::none(), 4, &SimRng::new(8));
        assert!((0..100).all(|_| !ctx.link_drop_coin()));
        assert_eq!((ctx.coins_drawn(), ctx.link_drops()), (0, 0));
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut ctx = FaultContext::new(&FaultPlan::none(), 4, &SimRng::new(8));
        ctx.advance(250.0);
        ctx.advance(-100.0);
        assert_eq!(ctx.now_ns(), 250.0);
    }

    #[test]
    fn link_drops_alone_make_a_schedule_nontrivial() {
        let plan = FaultPlan {
            link_drop_prob: 0.01,
            ..FaultPlan::none()
        };
        let s = FaultSchedule::compile(&plan, 16, &SimRng::new(4));
        assert_eq!(
            s.crashed_nodes() + s.straggler_nodes() + s.clock_jump_nodes(),
            0
        );
        assert!(!s.is_trivial());
        assert!(
            s.describe().contains("link drop p = 0.01"),
            "{}",
            s.describe()
        );
        assert_eq!(FaultSchedule::healthy(16).describe(), "faults: none");
    }

    #[test]
    fn fault_display_is_informative() {
        let s = format!(
            "{}",
            SimFault::NodeCrashed {
                node: 3,
                at_ns: 10.0
            }
        );
        assert!(s.contains("node 3"));
        let s = format!(
            "{}",
            SimFault::LinkFailed {
                src: 1,
                dst: 2,
                drops: 5
            }
        );
        assert!(s.contains("1 -> 2"));
        let s = format!(
            "{}",
            SimFault::ClockJumped {
                node: 7,
                at_ns: 5.0,
                jump_ns: -100.0
            }
        );
        assert!(s.contains("-100"));
    }
}
