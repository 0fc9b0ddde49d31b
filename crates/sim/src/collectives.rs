//! MPI-style collective operations over the machine model.
//!
//! Implements the algorithms whose *structure* produces the effects the
//! paper plots:
//!
//! - **Reduce** (Figures 5 and 6): fold-to-power-of-two followed by a
//!   binomial tree. Non-power-of-two process counts pay an extra message
//!   phase — the mechanism behind "several implementations perform better
//!   with 2^k processes than with 2^k + 1 processes" (§4.2).
//! - **Broadcast**: binomial tree from the root.
//! - **Barrier**: dissemination algorithm, ⌈log₂ p⌉ rounds.
//!
//! Every operation returns *per-rank completion times*: the paper's
//! Figure 6 shows exactly this per-process variation, and §4.2.1 ("Summarize
//! times across processes") prescribes ANOVA across the ranks before
//! summarizing.

use crate::alloc::Allocation;
use crate::machine::MachineSpec;
use crate::network::NetworkModel;
use crate::rng::SimRng;

/// Per-rank completion times of one collective invocation, nanoseconds
/// from the (synchronized) start of the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveOutcome {
    /// `per_rank_done_ns[r]` is when rank `r` exits the operation.
    pub per_rank_done_ns: Vec<f64>,
}

impl CollectiveOutcome {
    /// Completion time of the whole operation (slowest rank), or `None`
    /// for an empty outcome (no participating ranks).
    pub fn max_ns(&self) -> Option<f64> {
        self.per_rank_done_ns.iter().cloned().reduce(f64::max)
    }

    /// Earliest rank to leave the operation, or `None` for an empty
    /// outcome.
    pub fn min_ns(&self) -> Option<f64> {
        self.per_rank_done_ns.iter().cloned().reduce(f64::min)
    }

    /// Number of participating ranks.
    pub fn ranks(&self) -> usize {
        self.per_rank_done_ns.len()
    }
}

/// Cost of merging two partial reduction values of `bytes` payload
/// (local compute per tree merge), nanoseconds.
pub(crate) fn reduction_op_ns(bytes: usize) -> f64 {
    40.0 + bytes as f64 * 0.05
}

/// Cost for a sender to consider its part done after handing the message
/// to the NIC (it does not wait for delivery), nanoseconds.
pub(crate) fn send_exit_ns(machine: &MachineSpec) -> f64 {
    machine.network.injection_ns * 0.5
}

/// Largest power of two ≤ `p` (p ≥ 1).
pub(crate) fn pow2_floor(p: usize) -> usize {
    let mut v = 1usize;
    while v * 2 <= p {
        v *= 2;
    }
    v
}

/// Simulates one `MPI_Reduce` to root 0 with payload `bytes`.
///
/// Algorithm: ranks `[pof2, p)` first fold their value into
/// `rank − pof2`, then a binomial tree runs over the remaining power-of-two
/// group. For power-of-two `p` the fold phase is empty.
pub fn reduce(
    machine: &MachineSpec,
    alloc: &Allocation,
    bytes: usize,
    rng: &mut SimRng,
) -> CollectiveOutcome {
    let net = NetworkModel::new(machine);
    reduce_impl(machine, alloc, bytes, &mut |src, dst| {
        net.transfer_ns(alloc.node_of[src], alloc.node_of[dst], bytes, rng)
    })
}

/// The reduce algorithm over a rank-to-rank transfer function. Also the
/// single source of truth for the *message order* that [`crate::compile`]
/// records and replays.
pub(crate) fn reduce_impl(
    machine: &MachineSpec,
    alloc: &Allocation,
    bytes: usize,
    transfer: &mut dyn FnMut(usize, usize) -> f64,
) -> CollectiveOutcome {
    let p = alloc.ranks();
    assert!(p >= 1, "reduce requires at least one rank");
    let pof2 = pow2_floor(p);

    // ready[r]: when rank r's partial value is available for the next step.
    let mut ready = vec![0.0f64; p];
    // done[r]: when rank r exits the operation (set once).
    let mut done = vec![f64::NAN; p];

    // Fold phase for the non-power-of-two remainder. The fold renumbers
    // the communicator, so the binomial tree only starts once the whole
    // fold phase has completed — this is the extra phase that makes
    // non-power-of-two counts slower (§4.2, Figure 5).
    if pof2 < p {
        let mut fold_end = 0.0f64;
        for r in pof2..p {
            let dst = r - pof2;
            let t = transfer(r, dst);
            done[r] = ready[r] + send_exit_ns(machine);
            ready[dst] = ready[dst].max(ready[r] + t) + reduction_op_ns(bytes);
            fold_end = fold_end.max(ready[dst]);
        }
        for r in ready.iter_mut().take(pof2) {
            *r = r.max(fold_end);
        }
    }

    // Binomial tree over ranks [0, pof2).
    let mut mask = 1usize;
    while mask < pof2 {
        for r in 0..pof2 {
            if r & mask != 0 && done[r].is_nan() {
                // Sender: transmit to r - mask and leave.
                let dst = r - mask;
                let t = transfer(r, dst);
                done[r] = ready[r] + send_exit_ns(machine);
                // The receiver can merge once both its value and the
                // message are there.
                ready[dst] = ready[dst].max(ready[r] + t) + reduction_op_ns(bytes);
            }
        }
        mask <<= 1;
    }
    done[0] = ready[0];
    // Ranks that never sent (possible only when p == 1).
    for r in 0..p {
        if done[r].is_nan() {
            done[r] = ready[r];
        }
    }
    CollectiveOutcome {
        per_rank_done_ns: done,
    }
}

/// Simulates one binomial-tree `MPI_Bcast` from root 0 with payload
/// `bytes`.
pub fn broadcast(
    machine: &MachineSpec,
    alloc: &Allocation,
    bytes: usize,
    rng: &mut SimRng,
) -> CollectiveOutcome {
    let net = NetworkModel::new(machine);
    broadcast_impl(alloc, &mut |src, dst| {
        net.transfer_ns(alloc.node_of[src], alloc.node_of[dst], bytes, rng)
    })
}

/// The binomial broadcast algorithm over a rank-to-rank transfer function.
fn broadcast_impl(
    alloc: &Allocation,
    transfer: &mut dyn FnMut(usize, usize) -> f64,
) -> CollectiveOutcome {
    let p = alloc.ranks();
    assert!(p >= 1, "broadcast requires at least one rank");
    let mut have = vec![f64::NAN; p];
    have[0] = 0.0;
    // Highest power of two covering p.
    let mut mask = 1usize;
    while mask < p {
        mask <<= 1;
    }
    // Standard binomial bcast: in each round the holders send to
    // rank + mask/2 offsets.
    mask >>= 1;
    while mask > 0 {
        for r in 0..p {
            if !have[r].is_nan() && r & (mask - 1) == 0 && r & mask == 0 {
                let dst = r + mask;
                if dst < p && have[dst].is_nan() {
                    let t = transfer(r, dst);
                    have[dst] = have[r] + t;
                }
            }
        }
        mask >>= 1;
    }
    CollectiveOutcome {
        per_rank_done_ns: have,
    }
}

/// Simulates one `MPI_Allreduce` as reduce-to-root followed by a
/// binomial-tree broadcast (the small-message algorithm of most MPI
/// implementations).
pub fn allreduce(
    machine: &MachineSpec,
    alloc: &Allocation,
    bytes: usize,
    rng: &mut SimRng,
) -> CollectiveOutcome {
    let red = reduce(machine, alloc, bytes, rng);
    let bcast = broadcast(machine, alloc, bytes, rng);
    // Every rank finishes when the broadcast (starting at the root's reduce
    // completion) reaches it — never earlier than its own reduce
    // participation ended.
    let root_done = red.per_rank_done_ns[0];
    let per_rank_done_ns = red
        .per_rank_done_ns
        .iter()
        .zip(&bcast.per_rank_done_ns)
        .map(|(&r, &b)| r.max(root_done + b))
        .collect();
    CollectiveOutcome { per_rank_done_ns }
}

/// Simulates one dissemination `MPI_Barrier`.
///
/// Round k: rank r signals `(r + 2^k) mod p` and waits for the signal from
/// `(r − 2^k) mod p`; after ⌈log₂ p⌉ rounds every rank has transitively
/// heard from every other.
pub fn barrier(machine: &MachineSpec, alloc: &Allocation, rng: &mut SimRng) -> CollectiveOutcome {
    let net = NetworkModel::new(machine);
    barrier_impl(alloc, &mut |src, dst| {
        net.transfer_ns(alloc.node_of[src], alloc.node_of[dst], 1, rng)
    })
}

/// The dissemination-barrier algorithm over a rank-to-rank transfer
/// function. Also the source of the message order recorded by
/// [`crate::compile`].
pub(crate) fn barrier_impl(
    alloc: &Allocation,
    transfer: &mut dyn FnMut(usize, usize) -> f64,
) -> CollectiveOutcome {
    let p = alloc.ranks();
    assert!(p >= 1, "barrier requires at least one rank");
    // Double-buffered rounds: every slot of `next` is overwritten each
    // round, so the two buffers can be allocated once and swapped instead
    // of allocating a fresh `next` per round.
    let mut ready = vec![0.0f64; p];
    let mut next = vec![0.0f64; p];
    let mut step = 1usize;
    while step < p {
        for r in 0..p {
            let from = (r + p - step % p) % p;
            let t = transfer(from, r);
            next[r] = ready[r].max(ready[from] + t);
        }
        std::mem::swap(&mut ready, &mut next);
        step <<= 1;
    }
    CollectiveOutcome {
        per_rank_done_ns: ready,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocationPolicy;

    fn quiet_setup(p: usize) -> (MachineSpec, Allocation, SimRng) {
        let m = MachineSpec::test_machine(p.max(2));
        let mut rng = SimRng::new(1);
        let a = Allocation::one_rank_per_node(&m, p, AllocationPolicy::Packed, &mut rng);
        (m, a, rng)
    }

    #[test]
    fn pow2_floor_values() {
        assert_eq!(pow2_floor(1), 1);
        assert_eq!(pow2_floor(2), 2);
        assert_eq!(pow2_floor(3), 2);
        assert_eq!(pow2_floor(8), 8);
        assert_eq!(pow2_floor(63), 32);
        assert_eq!(pow2_floor(64), 64);
    }

    #[test]
    fn reduce_single_rank_is_instant() {
        let (m, a, mut rng) = quiet_setup(1);
        let out = reduce(&m, &a, 8, &mut rng);
        assert_eq!(out.ranks(), 1);
        assert_eq!(out.max_ns(), Some(0.0));
    }

    #[test]
    fn reduce_two_ranks_one_message() {
        let (m, a, mut rng) = quiet_setup(2);
        let out = reduce(&m, &a, 8, &mut rng);
        let net = NetworkModel::new(&m);
        let expected_root = net.base_transfer_ns(1, 0, 8) + reduction_op_ns(8);
        assert!((out.per_rank_done_ns[0] - expected_root).abs() < 1e-9);
        // The sender exits long before the root.
        assert!(out.per_rank_done_ns[1] < out.per_rank_done_ns[0]);
    }

    #[test]
    fn reduce_scales_logarithmically_on_quiet_machine() {
        // Root completion ≈ rounds · per-message: doubling p adds ~1 round.
        let times: Vec<f64> = [2usize, 4, 8, 16, 32]
            .iter()
            .map(|&p| {
                let (m, a, mut rng) = quiet_setup(p);
                reduce(&m, &a, 8, &mut rng).max_ns().unwrap()
            })
            .collect();
        for w in times.windows(2) {
            assert!(w[1] > w[0], "{times:?}");
        }
        // Growth per doubling roughly constant (tree depth +1).
        let d1 = times[1] - times[0];
        let d3 = times[4] - times[3];
        assert!((d3 - d1).abs() < d1 * 0.5, "{times:?}");
    }

    #[test]
    fn non_power_of_two_pays_extra_phase() {
        let t8 = {
            let (m, a, mut rng) = quiet_setup(8);
            reduce(&m, &a, 8, &mut rng).max_ns().unwrap()
        };
        let t9 = {
            let (m, a, mut rng) = quiet_setup(9);
            reduce(&m, &a, 8, &mut rng).max_ns().unwrap()
        };
        let t16 = {
            let (m, a, mut rng) = quiet_setup(16);
            reduce(&m, &a, 8, &mut rng).max_ns().unwrap()
        };
        // 9 ranks must cost more than 8 — and even more than 16 (the fold
        // serializes before the tree).
        assert!(t9 > t8, "t8={t8} t9={t9}");
        assert!(t9 >= t16, "t9={t9} t16={t16}");
    }

    #[test]
    fn reduce_root_finishes_last_on_quiet_machine() {
        let (m, a, mut rng) = quiet_setup(16);
        let out = reduce(&m, &a, 8, &mut rng);
        let root = out.per_rank_done_ns[0];
        for (r, &t) in out.per_rank_done_ns.iter().enumerate().skip(1) {
            assert!(t <= root, "rank {r} finished after root: {t} > {root}");
        }
        assert_eq!(out.max_ns(), Some(root));
    }

    #[test]
    fn reduce_leaves_finish_earliest() {
        let (m, a, mut rng) = quiet_setup(8);
        let out = reduce(&m, &a, 8, &mut rng);
        // Odd ranks send in round 0 and exit immediately.
        let leaf = out.per_rank_done_ns[7];
        let inner = out.per_rank_done_ns[4]; // receives once, then sends
        assert!(leaf < inner);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let (m, a, mut rng) = quiet_setup(13);
        let out = broadcast(&m, &a, 64, &mut rng);
        assert!(out.per_rank_done_ns.iter().all(|t| t.is_finite()));
        assert_eq!(out.per_rank_done_ns[0], 0.0);
        // Depth is ceil(log2 13) = 4 messages on the longest path.
        let net = NetworkModel::new(&m);
        let one_msg = net.base_transfer_ns(0, 1, 64);
        assert!(out.max_ns().unwrap() <= 4.0 * one_msg + 1e-9);
        assert!(out.max_ns().unwrap() >= one_msg);
    }

    #[test]
    fn barrier_costs_log_rounds() {
        let (m, a, mut rng) = quiet_setup(16);
        let out = barrier(&m, &a, &mut rng);
        let net = NetworkModel::new(&m);
        let one_msg = net.base_transfer_ns(0, 1, 1);
        // Dissemination: exactly 4 rounds on a quiet crossbar.
        for &t in &out.per_rank_done_ns {
            assert!((t - 4.0 * one_msg).abs() < 1e-6, "t = {t}");
        }
    }

    #[test]
    fn barrier_synchronizes_all_ranks_tightly() {
        let (m, a, mut rng) = quiet_setup(7);
        let out = barrier(&m, &a, &mut rng);
        let spread = out.max_ns().unwrap() - out.min_ns().unwrap();
        // On a quiet uniform machine all ranks leave simultaneously.
        assert!(spread < 1e-9, "spread = {spread}");
    }

    #[test]
    fn allreduce_costs_reduce_plus_broadcast() {
        let (m, a, mut rng) = quiet_setup(16);
        let all = allreduce(&m, &a, 8, &mut rng);
        let (m2, a2, mut rng2) = quiet_setup(16);
        let red = reduce(&m2, &a2, 8, &mut rng2);
        // Everyone finishes after the root's reduce time (plus bcast).
        assert!(all.min_ns().unwrap() >= red.max_ns().unwrap());
        assert_eq!(all.ranks(), 16);
        // And roughly reduce + bcast on the critical path.
        let bcast_depth = 4.0; // log2(16)
        let net = NetworkModel::new(&m);
        let one = net.base_transfer_ns(0, 1, 8);
        assert!(all.max_ns().unwrap() <= red.max_ns().unwrap() + bcast_depth * one + 1e-6);
    }

    #[test]
    fn allreduce_spread_is_bounded_by_broadcast_depth() {
        // Unlike reduce (where leaves exit after one send while the root
        // works through the whole tree), allreduce rank exits differ by
        // at most the broadcast arrival spread.
        let (m, a, mut rng) = quiet_setup(8);
        let all = allreduce(&m, &a, 8, &mut rng);
        let spread = all.max_ns().unwrap() - all.min_ns().unwrap();
        let net = NetworkModel::new(&m);
        let one = net.base_transfer_ns(0, 1, 8);
        // The root (rank 0) already holds the result when the broadcast
        // starts; the deepest leaf hears after ceil(log2 8) = 3 messages.
        assert!(spread <= 3.0 * one + 1e-9, "spread {spread}");
    }

    #[test]
    fn noisy_reduce_varies_between_runs() {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(9);
        let a = Allocation::one_rank_per_node(&m, 64, AllocationPolicy::Random, &mut rng);
        let t1 = reduce(&m, &a, 8, &mut rng).max_ns().unwrap();
        let t2 = reduce(&m, &a, 8, &mut rng).max_ns().unwrap();
        assert_ne!(t1, t2);
        // Magnitudes in the paper's Figure 5 ballpark (µs, not ms).
        assert!(t1 > 2_000.0 && t1 < 100_000.0, "t1 = {t1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = MachineSpec::piz_daint();
        let run = |seed: u64| {
            let mut rng = SimRng::new(seed);
            let a = Allocation::one_rank_per_node(&m, 32, AllocationPolicy::Random, &mut rng);
            reduce(&m, &a, 8, &mut rng).per_rank_done_ns
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }

    #[test]
    fn noisy_broadcast_barrier_and_allreduce_are_deterministic_given_seed() {
        let m = MachineSpec::piz_daint();
        let run = |seed: u64| {
            let mut rng = SimRng::new(seed);
            let a = Allocation::one_rank_per_node(&m, 24, AllocationPolicy::Random, &mut rng);
            let b = broadcast(&m, &a, 8, &mut rng);
            [b, barrier(&m, &a, &mut rng), allreduce(&m, &a, 8, &mut rng)]
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }

    #[test]
    fn empty_outcome_has_no_extremes() {
        let out = CollectiveOutcome {
            per_rank_done_ns: Vec::new(),
        };
        assert_eq!((out.ranks(), out.max_ns(), out.min_ns()), (0, None, None));
    }

    #[test]
    fn single_rank_broadcast_barrier_and_allreduce_are_instant() {
        let (m, a, mut rng) = quiet_setup(1);
        assert_eq!(broadcast(&m, &a, 8, &mut rng).per_rank_done_ns, [0.0]);
        assert_eq!(barrier(&m, &a, &mut rng).per_rank_done_ns, [0.0]);
        assert_eq!(allreduce(&m, &a, 8, &mut rng).per_rank_done_ns, [0.0]);
    }

    #[test]
    fn broadcast_reaches_each_rank_after_one_message_per_set_bit() {
        // The binomial tree's path from the root to rank r has popcount(r)
        // hops.
        let (m, a, mut rng) = quiet_setup(13);
        let one_msg = NetworkModel::new(&m).base_transfer_ns(0, 1, 64);
        let out = broadcast(&m, &a, 64, &mut rng);
        for (r, &t) in out.per_rank_done_ns.iter().enumerate() {
            assert!((t - r.count_ones() as f64 * one_msg).abs() < 1e-9, "{r}");
        }
    }

    #[test]
    fn allreduce_is_reduce_then_broadcast_on_one_stream() {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(3);
        let a = Allocation::one_rank_per_node(&m, 13, AllocationPolicy::Random, &mut rng);
        let (mut r1, mut r2) = (rng.fork("samples"), rng.fork("samples"));
        let all = allreduce(&m, &a, 8, &mut r1);
        let red = reduce(&m, &a, 8, &mut r2).per_rank_done_ns;
        let bcast = broadcast(&m, &a, 8, &mut r2).per_rank_done_ns;
        for r in 0..13 {
            let expected = red[r].max(red[0] + bcast[r]);
            assert_eq!(all.per_rank_done_ns[r], expected, "rank {r}");
        }
        assert_eq!(r1.uniform(), r2.uniform());
    }

    #[test]
    fn fold_senders_exit_after_one_send() {
        let (m, a, mut rng) = quiet_setup(12);
        let out = reduce(&m, &a, 8, &mut rng);
        for r in 8..12 {
            assert_eq!(out.per_rank_done_ns[r], send_exit_ns(&m), "rank {r}");
        }
    }

    #[test]
    fn tree_starts_only_after_the_whole_fold_phase() {
        // Ranks 8..12 fold into 0..4. Rank 5 receives no fold message, yet
        // its tree send waits for the fold phase as rank 1's does.
        let (m, a, mut rng) = quiet_setup(12);
        let done = reduce(&m, &a, 8, &mut rng).per_rank_done_ns;
        assert_eq!(done[5], done[1]);
        assert!(done[5] > send_exit_ns(&m));
    }

    #[test]
    fn reduce_sends_every_non_root_value_once_towards_the_root() {
        for p in 1..=33 {
            let (m, a, _) = quiet_setup(p);
            let mut sent = vec![0; p];
            reduce_impl(&m, &a, 8, &mut |s, d| {
                assert!(d < s, "p={p}: {s} -> {d}");
                sent[s] += 1;
                0.0
            });
            assert!(
                sent[0] == 0 && sent[1..].iter().all(|&n| n == 1),
                "{sent:?}"
            );
        }
    }

    #[test]
    fn barrier_round_k_hears_from_the_rank_2_pow_k_behind() {
        let (_, a, _) = quiet_setup(6);
        let mut log = Vec::new();
        barrier_impl(&a, &mut |s, d| {
            log.push((s, d));
            0.0
        });
        assert_eq!(log.len(), 6 * 3);
        for (i, &msg) in log.iter().enumerate() {
            let (r, step) = (i % 6, 1 << (i / 6));
            assert_eq!(msg, ((r + 6 - step) % 6, r), "message {i}");
        }
    }
}
