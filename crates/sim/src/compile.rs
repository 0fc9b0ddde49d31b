//! Compiled collective schedules: a zero-allocation replay engine for the
//! simulator hot path.
//!
//! The interpreter in [`crate::collectives`] re-derives the communication
//! structure of a collective — who sends to whom, in which round — on
//! every invocation, reallocating its `ready`/`done`/`have` buffers each
//! time and recomputing the deterministic LogGP base cost of every
//! message. Within one campaign point none of that changes: the machine,
//! the allocation, the operation and the payload are fixed, and only the
//! stochastic terms (noise, congestion, faults) differ between samples.
//!
//! [`CompiledSchedule`] lowers one collective, once, into a flat
//! structure-of-arrays *message program*: for each message in interpreter
//! order, its (src, dst) rank pair, the (src, dst) node pair, and the
//! precomputed deterministic base transfer cost. Replaying the program
//! against a reusable [`ReplayCtx`] scratch arena then performs **zero
//! heap allocations** per sample and draws exactly the stochastic terms,
//! from the same [`SimRng`], **in exactly the same order** as the
//! interpreter — so per-rank completion times are bit-identical (pinned
//! by proptests in `tests/replay_equivalence.rs`).
//!
//! The message order is not re-derived here: compilation *records* it by
//! running the interpreter's own `reduce_impl`/`broadcast_impl`/
//! `barrier_impl` loops with a transfer callback that logs each (src,
//! dst) pair instead of drawing noise. The control flow of all three
//! algorithms depends only on rank indices, never on transfer times, so
//! the recorded program is exact by construction and cannot drift from
//! the interpreter.

use std::convert::Infallible;

use scibench_trace::{category, ArgValue, LocalTracer};

use crate::alloc::Allocation;
use crate::collectives::{
    barrier_impl, broadcast_impl, pow2_floor, reduce_impl, reduction_op_ns, send_exit_ns,
    CollectiveOutcome,
};
use crate::fault::{FaultContext, SimFault};
use crate::machine::MachineSpec;
use crate::network::{faulty_transfer_ns, NetworkModel};
use crate::noise::NoiseProfile;
use crate::rng::SimRng;

/// Which collective a [`CompiledSchedule`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// `MPI_Reduce` to root 0 (fold-to-power-of-two + binomial tree).
    Reduce,
    /// Binomial-tree `MPI_Bcast` from root 0.
    Broadcast,
    /// Dissemination `MPI_Barrier`.
    Barrier,
}

/// One collective lowered to a flat message program for a fixed
/// `(machine, allocation, operation, message size)`.
///
/// All per-message data lives in parallel arrays (SoA) indexed by message
/// position in interpreter order; replay is a single linear walk.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSchedule {
    op: CollectiveOp,
    ranks: usize,
    bytes: usize,
    pof2: usize,
    /// Number of fold-phase messages (reduce only; 0 otherwise). The
    /// fold phase needs extra bookkeeping (`fold_end` barrier) on replay.
    fold_len: usize,
    /// Dissemination rounds (barrier only; each round has exactly
    /// `ranks` messages).
    rounds: usize,
    src_rank: Vec<u32>,
    dst_rank: Vec<u32>,
    src_node: Vec<u32>,
    dst_node: Vec<u32>,
    /// Deterministic LogGP base cost of each message, precomputed at
    /// compile time; bit-identical to what the interpreter recomputes.
    base_ns: Vec<f64>,
    send_exit_ns: f64,
    reduction_op_ns: f64,
    noise: NoiseProfile,
}

/// Unwraps a `Result` whose error type is uninhabited.
fn unwrap_infallible<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

impl CompiledSchedule {
    /// Compiles one `MPI_Reduce` to root 0 with payload `bytes`.
    pub fn compile_reduce(machine: &MachineSpec, alloc: &Allocation, bytes: usize) -> Self {
        let mut s = Self::record(machine, alloc, bytes, CollectiveOp::Reduce);
        s.fold_len = alloc.ranks() - pow2_floor(alloc.ranks());
        s
    }

    /// Compiles one binomial-tree `MPI_Bcast` from root 0 with payload
    /// `bytes`.
    pub fn compile_broadcast(machine: &MachineSpec, alloc: &Allocation, bytes: usize) -> Self {
        Self::record(machine, alloc, bytes, CollectiveOp::Broadcast)
    }

    /// Compiles one dissemination `MPI_Barrier` (1-byte signals).
    pub fn compile_barrier(machine: &MachineSpec, alloc: &Allocation) -> Self {
        let mut s = Self::record(machine, alloc, 1, CollectiveOp::Barrier);
        let p = alloc.ranks();
        let mut rounds = 0usize;
        let mut step = 1usize;
        while step < p {
            rounds += 1;
            step <<= 1;
        }
        debug_assert_eq!(s.base_ns.len(), rounds * p);
        s.rounds = rounds;
        s
    }

    /// Records the interpreter's message order for `op` by running its
    /// own algorithm loop with a logging transfer callback.
    fn record(machine: &MachineSpec, alloc: &Allocation, bytes: usize, op: CollectiveOp) -> Self {
        let p = alloc.ranks();
        let net = NetworkModel::new(machine);
        let mut src_rank = Vec::new();
        let mut dst_rank = Vec::new();
        let mut src_node = Vec::new();
        let mut dst_node = Vec::new();
        let mut base_ns = Vec::new();
        {
            let mut log = |s: usize, d: usize| -> Result<f64, Infallible> {
                let (sn, dn) = (alloc.node_of[s], alloc.node_of[d]);
                src_rank.push(s as u32);
                dst_rank.push(d as u32);
                src_node.push(sn as u32);
                dst_node.push(dn as u32);
                base_ns.push(net.base_transfer_ns(sn, dn, bytes));
                Ok(0.0)
            };
            match op {
                CollectiveOp::Reduce => {
                    unwrap_infallible(reduce_impl(machine, alloc, bytes, &mut log));
                }
                CollectiveOp::Broadcast => {
                    unwrap_infallible(broadcast_impl(alloc, &mut log));
                }
                CollectiveOp::Barrier => {
                    unwrap_infallible(barrier_impl(alloc, &mut log));
                }
            }
        }
        CompiledSchedule {
            op,
            ranks: p,
            bytes,
            pof2: pow2_floor(p),
            fold_len: 0,
            rounds: 0,
            src_rank,
            dst_rank,
            src_node,
            dst_node,
            base_ns,
            send_exit_ns: send_exit_ns(machine),
            reduction_op_ns: reduction_op_ns(bytes),
            noise: machine.noise,
        }
    }

    /// The operation this schedule encodes.
    pub fn op(&self) -> CollectiveOp {
        self.op
    }

    /// Number of participating ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Payload bytes per message (1 for barrier signals).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Total number of messages in the program.
    pub fn messages(&self) -> usize {
        self.base_ns.len()
    }

    /// Replays one sample into `ctx`, drawing noise from `rng` in
    /// interpreter order. Returns the per-rank completion times as a
    /// slice borrowed from `ctx`'s arena — **no heap allocation** occurs
    /// once the arena has grown to this schedule's rank count.
    pub fn replay_into<'a>(&self, ctx: &'a mut ReplayCtx, rng: &mut SimRng) -> &'a [f64] {
        let (a, b) = ctx.buffers(self.ranks);
        let mut noisy = |i: usize, r: &mut SimRng| -> Result<f64, Infallible> {
            Ok(self.noise.perturb(self.base_ns[i], r))
        };
        match self.op {
            CollectiveOp::Reduce => {
                unwrap_infallible(self.replay_reduce(a, b, &mut noisy, rng));
                b
            }
            CollectiveOp::Broadcast => {
                unwrap_infallible(self.replay_broadcast(a, &mut noisy, rng));
                a
            }
            CollectiveOp::Barrier => unwrap_infallible(self.replay_barrier(a, b, &mut noisy, rng)),
        }
    }

    /// [`CompiledSchedule::replay_into`] with a fresh allocation —
    /// convenience for call sites that want a [`CollectiveOutcome`].
    pub fn replay(&self, ctx: &mut ReplayCtx, rng: &mut SimRng) -> CollectiveOutcome {
        CollectiveOutcome {
            per_rank_done_ns: self.replay_into(ctx, rng).to_vec(),
        }
    }

    /// Replays one sample on a machine with injected faults, applying the
    /// fault rule of [`NetworkModel::transfer_faulty_ns`] (the same
    /// function) message by message: crash checks on both endpoint nodes,
    /// straggler slowdown, link-drop coins from the context's dedicated
    /// stream, and clock advancement. A run experiencing zero fault events
    /// is bit-identical to [`CompiledSchedule::replay_into`].
    pub fn replay_faulty_into<'a>(
        &self,
        ctx: &'a mut ReplayCtx,
        fctx: &mut FaultContext,
        rng: &mut SimRng,
    ) -> Result<&'a [f64], SimFault> {
        let (a, b) = ctx.buffers(self.ranks);
        let mut transfer = |i: usize, r: &mut SimRng| -> Result<f64, SimFault> {
            let (sn, dn) = (self.src_node[i] as usize, self.dst_node[i] as usize);
            faulty_transfer_ns(&self.noise, sn, dn, self.base_ns[i], fctx, r)
        };
        match self.op {
            CollectiveOp::Reduce => {
                self.replay_reduce(a, b, &mut transfer, rng)?;
                Ok(b)
            }
            CollectiveOp::Broadcast => {
                self.replay_broadcast(a, &mut transfer, rng)?;
                Ok(a)
            }
            CollectiveOp::Barrier => self.replay_barrier(a, b, &mut transfer, rng),
        }
    }

    /// Replays one sample with phase tracing, emitting exactly the events
    /// of the interpreter's traced variants ([`crate::collectives::reduce_traced`]
    /// et al.): the per-phase instants, then one [`category::SIM`] span
    /// whose `sim_ns` argument is the slowest rank. Tracing reads the wall
    /// clock but never touches `rng`, so the returned times are
    /// bit-identical to [`CompiledSchedule::replay_into`].
    pub fn replay_traced_into<'a>(
        &self,
        ctx: &'a mut ReplayCtx,
        rng: &mut SimRng,
        lane: &mut LocalTracer<'_>,
    ) -> &'a [f64] {
        let span = lane.begin();
        let p = self.ranks;
        if lane.is_on() {
            match self.op {
                CollectiveOp::Reduce => {
                    if self.pof2 < p {
                        lane.instant(
                            category::SIM,
                            "fold-phase",
                            &[("remainder_ranks", ArgValue::U64((p - self.pof2) as u64))],
                        );
                    }
                    lane.instant(
                        category::SIM,
                        "tree-phase",
                        &[("rounds", ArgValue::U64(self.pof2.trailing_zeros() as u64))],
                    );
                }
                CollectiveOp::Broadcast => {
                    let rounds = (usize::BITS - p.saturating_sub(1).leading_zeros()) as u64;
                    lane.instant(
                        category::SIM,
                        "tree-phase",
                        &[("rounds", ArgValue::U64(rounds))],
                    );
                }
                CollectiveOp::Barrier => {
                    let rounds = (usize::BITS - p.saturating_sub(1).leading_zeros()) as u64;
                    lane.instant(
                        category::SIM,
                        "dissemination-phase",
                        &[("rounds", ArgValue::U64(rounds))],
                    );
                }
            }
        }
        let done = self.replay_into(ctx, rng);
        let sim_ns = done.iter().cloned().reduce(f64::max).unwrap_or(0.0);
        match self.op {
            CollectiveOp::Reduce => lane.end(
                span,
                category::SIM,
                "reduce",
                &[
                    ("ranks", ArgValue::U64(p as u64)),
                    ("bytes", ArgValue::U64(self.bytes as u64)),
                    ("sim_ns", ArgValue::F64(sim_ns)),
                ],
            ),
            CollectiveOp::Broadcast => lane.end(
                span,
                category::SIM,
                "broadcast",
                &[
                    ("ranks", ArgValue::U64(p as u64)),
                    ("bytes", ArgValue::U64(self.bytes as u64)),
                    ("sim_ns", ArgValue::F64(sim_ns)),
                ],
            ),
            CollectiveOp::Barrier => lane.end(
                span,
                category::SIM,
                "barrier",
                &[
                    ("ranks", ArgValue::U64(p as u64)),
                    ("sim_ns", ArgValue::F64(sim_ns)),
                ],
            ),
        }
        done
    }

    /// Reduce replay: mirrors `reduce_impl` over the recorded message
    /// program. `a` is the `ready` buffer, `b` the `done` buffer.
    fn replay_reduce<E, F: FnMut(usize, &mut SimRng) -> Result<f64, E>>(
        &self,
        a: &mut [f64],
        b: &mut [f64],
        noisy: &mut F,
        rng: &mut SimRng,
    ) -> Result<(), E> {
        let p = self.ranks;
        a[..p].fill(0.0);
        b[..p].fill(f64::NAN);
        // Fold phase (non-power-of-two remainder): same update rule as the
        // tree, plus the fold_end barrier clamping the power-of-two group.
        if self.fold_len > 0 {
            let mut fold_end = 0.0f64;
            for i in 0..self.fold_len {
                let (s, d) = (self.src_rank[i] as usize, self.dst_rank[i] as usize);
                let t = noisy(i, rng)?;
                b[s] = a[s] + self.send_exit_ns;
                a[d] = a[d].max(a[s] + t) + self.reduction_op_ns;
                fold_end = fold_end.max(a[d]);
            }
            for r in a.iter_mut().take(self.pof2) {
                *r = r.max(fold_end);
            }
        }
        // Binomial tree: each recorded message is one sender's single send.
        for i in self.fold_len..self.base_ns.len() {
            let (s, d) = (self.src_rank[i] as usize, self.dst_rank[i] as usize);
            let t = noisy(i, rng)?;
            b[s] = a[s] + self.send_exit_ns;
            a[d] = a[d].max(a[s] + t) + self.reduction_op_ns;
        }
        b[0] = a[0];
        // Ranks that never sent (possible only when p == 1).
        for r in 0..p {
            if b[r].is_nan() {
                b[r] = a[r];
            }
        }
        Ok(())
    }

    /// Broadcast replay: mirrors `broadcast_impl` over the recorded
    /// message program. `a` is the `have` buffer.
    fn replay_broadcast<E, F: FnMut(usize, &mut SimRng) -> Result<f64, E>>(
        &self,
        a: &mut [f64],
        noisy: &mut F,
        rng: &mut SimRng,
    ) -> Result<(), E> {
        a[..self.ranks].fill(f64::NAN);
        a[0] = 0.0;
        for i in 0..self.base_ns.len() {
            let (s, d) = (self.src_rank[i] as usize, self.dst_rank[i] as usize);
            let t = noisy(i, rng)?;
            a[d] = a[s] + t;
        }
        Ok(())
    }

    /// Barrier replay: mirrors `barrier_impl`'s double-buffered
    /// dissemination rounds over the two halves of the arena, returning
    /// whichever buffer holds the final round.
    fn replay_barrier<'a, E, F: FnMut(usize, &mut SimRng) -> Result<f64, E>>(
        &self,
        a: &'a mut [f64],
        b: &'a mut [f64],
        noisy: &mut F,
        rng: &mut SimRng,
    ) -> Result<&'a [f64], E> {
        let p = self.ranks;
        a[..p].fill(0.0);
        let (mut ready, mut next) = (a, b);
        let mut i = 0usize;
        for _ in 0..self.rounds {
            for r in 0..p {
                let s = self.src_rank[i] as usize;
                let t = noisy(i, rng)?;
                next[r] = ready[r].max(ready[s] + t);
                i += 1;
            }
            std::mem::swap(&mut ready, &mut next);
        }
        Ok(&*ready)
    }
}

/// Reusable scratch arena for replaying [`CompiledSchedule`]s.
///
/// Holds the two per-rank working buffers every collective needs
/// (`ready`/`done`, `have`, or the barrier's double buffer). Buffers grow
/// monotonically and are reused across replays, so a steady-state replay
/// performs zero heap allocations. One context must be owned by exactly
/// one execution lane — sharing across worker threads would serialize
/// them and is prevented by `&mut` access.
#[derive(Debug, Clone, Default)]
pub struct ReplayCtx {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl ReplayCtx {
    /// Creates an empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an arena pre-sized for collectives of up to `ranks` ranks.
    pub fn with_capacity(ranks: usize) -> Self {
        ReplayCtx {
            a: vec![0.0; ranks],
            b: vec![0.0; ranks],
        }
    }

    /// Capacities of the two working buffers — the observable the
    /// zero-allocation tests pin: in steady state they never change.
    pub fn capacities(&self) -> (usize, usize) {
        (self.a.capacity(), self.b.capacity())
    }

    /// The two working buffers, grown to at least `ranks` slots.
    fn buffers(&mut self, ranks: usize) -> (&mut [f64], &mut [f64]) {
        if self.a.len() < ranks {
            self.a.resize(ranks, 0.0);
            self.b.resize(ranks, 0.0);
        }
        (&mut self.a[..ranks], &mut self.b[..ranks])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocationPolicy;
    use crate::collectives::{barrier, broadcast, reduce};
    use crate::fault::FaultPlan;

    fn setup(p: usize) -> (MachineSpec, Allocation, SimRng) {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(11);
        let a = Allocation::one_rank_per_node(&m, p, AllocationPolicy::Random, &mut rng);
        (m, a, rng)
    }

    #[test]
    fn reduce_replay_matches_interpreter_bitwise() {
        for p in [1usize, 2, 3, 8, 13, 64] {
            let (m, a, rng) = setup(p);
            let mut r1 = rng.fork("samples");
            let mut r2 = rng.fork("samples");
            let compiled = CompiledSchedule::compile_reduce(&m, &a, 8);
            let mut ctx = ReplayCtx::new();
            for _ in 0..10 {
                let interp = reduce(&m, &a, 8, &mut r1);
                let replay = compiled.replay_into(&mut ctx, &mut r2);
                assert_eq!(interp.per_rank_done_ns, replay, "p={p}");
            }
        }
    }

    #[test]
    fn broadcast_replay_matches_interpreter_bitwise() {
        for p in [1usize, 2, 5, 16, 33] {
            let (m, a, rng) = setup(p);
            let mut r1 = rng.fork("samples");
            let mut r2 = rng.fork("samples");
            let compiled = CompiledSchedule::compile_broadcast(&m, &a, 1 << 14);
            let mut ctx = ReplayCtx::new();
            for _ in 0..10 {
                let interp = broadcast(&m, &a, 1 << 14, &mut r1);
                let replay = compiled.replay_into(&mut ctx, &mut r2);
                assert_eq!(interp.per_rank_done_ns, replay, "p={p}");
            }
        }
    }

    #[test]
    fn barrier_replay_matches_interpreter_bitwise() {
        for p in [1usize, 2, 3, 7, 8, 32, 33] {
            let (m, a, rng) = setup(p);
            let mut r1 = rng.fork("samples");
            let mut r2 = rng.fork("samples");
            let compiled = CompiledSchedule::compile_barrier(&m, &a);
            let mut ctx = ReplayCtx::new();
            for _ in 0..10 {
                let interp = barrier(&m, &a, &mut r1);
                let replay = compiled.replay_into(&mut ctx, &mut r2);
                assert_eq!(interp.per_rank_done_ns, replay, "p={p}");
            }
        }
    }

    #[test]
    fn faulty_replay_matches_interpreter_including_failures() {
        use crate::collectives::reduce_faulty;
        let plan = FaultPlan::with_failure_rate(0.6);
        for seed in 0..8u64 {
            let m = MachineSpec::piz_daint();
            let root = SimRng::new(seed);
            let mut rng = SimRng::new(77);
            let a = Allocation::one_rank_per_node(&m, 32, AllocationPolicy::Random, &mut rng);
            let compiled = CompiledSchedule::compile_reduce(&m, &a, 8);
            let mut ctx = ReplayCtx::new();
            let mut fctx1 = FaultContext::new(&plan, m.nodes, &root);
            let mut fctx2 = FaultContext::new(&plan, m.nodes, &root);
            let mut r1 = root.fork("samples");
            let mut r2 = root.fork("samples");
            for _ in 0..5 {
                let interp = reduce_faulty(&m, &a, 8, &mut fctx1, &mut r1);
                let replay = compiled
                    .replay_faulty_into(&mut ctx, &mut fctx2, &mut r2)
                    .map(|d| CollectiveOutcome {
                        per_rank_done_ns: d.to_vec(),
                    });
                assert_eq!(interp, replay, "seed={seed}");
                assert_eq!(fctx1.now_ns(), fctx2.now_ns());
                assert_eq!(fctx1.coins_drawn(), fctx2.coins_drawn());
            }
        }
    }

    #[test]
    fn traced_replay_matches_interpreter_events_and_times() {
        use crate::collectives::reduce_traced;
        use scibench_trace::Tracer;
        let (m, a, rng) = setup(13);
        let mut r1 = rng.fork("samples");
        let mut r2 = rng.fork("samples");
        let t1 = Tracer::new();
        let t2 = Tracer::new();
        let interp = {
            let mut lane = t1.lane(0);
            reduce_traced(&m, &a, 8, &mut r1, &mut lane)
        };
        let compiled = CompiledSchedule::compile_reduce(&m, &a, 8);
        let mut ctx = ReplayCtx::new();
        let replay = {
            let mut lane = t2.lane(0);
            compiled
                .replay_traced_into(&mut ctx, &mut r2, &mut lane)
                .to_vec()
        };
        assert_eq!(interp.per_rank_done_ns, replay);
        let (e1, e2) = (t1.drain(), t2.drain());
        assert_eq!(e1.count(category::SIM), e2.count(category::SIM));
        assert_eq!(e1.kind_counts(), e2.kind_counts());
    }

    #[test]
    fn replay_is_zero_allocation_in_steady_state() {
        // Indirect check: the arena buffers keep their capacity across
        // replays at the same (or smaller) rank count.
        let (m, a, rng) = setup(64);
        let compiled = CompiledSchedule::compile_reduce(&m, &a, 8);
        let mut ctx = ReplayCtx::with_capacity(64);
        let (cap_a, cap_b) = (ctx.a.capacity(), ctx.b.capacity());
        let mut r = rng.fork("samples");
        for _ in 0..100 {
            let _ = compiled.replay_into(&mut ctx, &mut r);
        }
        assert_eq!(ctx.a.capacity(), cap_a);
        assert_eq!(ctx.b.capacity(), cap_b);
    }

    #[test]
    fn schedule_reports_shape() {
        let (m, a, _) = setup(9);
        let red = CompiledSchedule::compile_reduce(&m, &a, 8);
        assert_eq!(red.op(), CollectiveOp::Reduce);
        assert_eq!(red.ranks(), 9);
        assert_eq!(red.bytes(), 8);
        // 1 fold message (9 → 8) + 7 tree messages.
        assert_eq!(red.messages(), 8);
        let bar = CompiledSchedule::compile_barrier(&m, &a);
        // ceil(log2 9) = 4 rounds of 9 messages.
        assert_eq!(bar.messages(), 36);
    }
}
