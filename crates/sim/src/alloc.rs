//! Batch-system node allocation policies.
//!
//! §4.1.2: "batch system allocation policies (e.g., packed or scattered
//! node layout) can play an important role for performance and need to be
//! mentioned", and for the Figure 1 HPL runs "we chose different
//! allocations for each experiment; all other experiments were repeated in
//! the same allocation. Allocated nodes were chosen by the batch system."

use crate::machine::MachineSpec;
use crate::rng::SimRng;

/// How the batch system places a job's processes onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Contiguous node ids starting at 0 (densest possible packing:
    /// minimizes hop distances).
    Packed,
    /// Nodes spread with a fixed stride (maximizes distances, models a
    /// fragmented machine).
    Scattered {
        /// Node-id stride between consecutive processes.
        stride: usize,
    },
    /// Uniformly random distinct nodes — what a busy batch system hands
    /// out in practice.
    Random,
}

/// A concrete job placement: `node_of[rank]` is the node of each process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Node id hosting each rank.
    pub node_of: Vec<usize>,
    /// The policy that produced this allocation.
    pub policy: AllocationPolicy,
}

impl Allocation {
    /// Allocates one node per rank for `p` ranks on `machine`.
    ///
    /// Panics if the machine has fewer nodes than ranks.
    pub fn one_rank_per_node(
        machine: &MachineSpec,
        p: usize,
        policy: AllocationPolicy,
        rng: &mut SimRng,
    ) -> Self {
        assert!(
            p <= machine.nodes,
            "cannot place {p} ranks on {} nodes one-per-node",
            machine.nodes
        );
        let node_of = match policy {
            AllocationPolicy::Packed => (0..p).collect(),
            AllocationPolicy::Scattered { stride } => {
                let stride = stride.max(1);
                (0..p).map(|r| (r * stride) % machine.nodes).collect()
            }
            AllocationPolicy::Random => {
                let mut nodes: Vec<usize> = (0..machine.nodes).collect();
                rng.shuffle(&mut nodes);
                nodes.truncate(p);
                nodes
            }
        };
        Self { node_of, policy }
    }

    /// Number of ranks in the job.
    pub fn ranks(&self) -> usize {
        self.node_of.len()
    }

    /// Mean topology hop count over all distinct rank pairs — a scalar
    /// "how spread out is this allocation" metric.
    pub fn mean_pairwise_hops(&self, machine: &MachineSpec) -> f64 {
        let p = self.node_of.len();
        if p < 2 {
            return 0.0;
        }
        let mut total = 0usize;
        let mut pairs = 0usize;
        for i in 0..p {
            for j in i + 1..p {
                total += machine
                    .network
                    .topology
                    .hops(self.node_of[i], self.node_of[j]);
                pairs += 1;
            }
        }
        total as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_is_contiguous() {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(1);
        let a = Allocation::one_rank_per_node(&m, 8, AllocationPolicy::Packed, &mut rng);
        assert_eq!(a.node_of, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(a.ranks(), 8);
    }

    #[test]
    fn scattered_uses_stride() {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(1);
        let a = Allocation::one_rank_per_node(
            &m,
            4,
            AllocationPolicy::Scattered { stride: 64 },
            &mut rng,
        );
        assert_eq!(a.node_of, vec![0, 64, 128, 192]);
    }

    #[test]
    fn random_nodes_are_distinct() {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(2);
        let a = Allocation::one_rank_per_node(&m, 64, AllocationPolicy::Random, &mut rng);
        let mut sorted = a.node_of.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
        assert!(sorted.iter().all(|&n| n < m.nodes));
    }

    #[test]
    fn random_is_seed_deterministic() {
        let m = MachineSpec::piz_daint();
        let a =
            Allocation::one_rank_per_node(&m, 16, AllocationPolicy::Random, &mut SimRng::new(5));
        let b =
            Allocation::one_rank_per_node(&m, 16, AllocationPolicy::Random, &mut SimRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn packed_has_fewer_hops_than_scattered() {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(3);
        let packed = Allocation::one_rank_per_node(&m, 16, AllocationPolicy::Packed, &mut rng);
        let scattered = Allocation::one_rank_per_node(
            &m,
            16,
            AllocationPolicy::Scattered { stride: 64 },
            &mut rng,
        );
        assert!(
            packed.mean_pairwise_hops(&m) < scattered.mean_pairwise_hops(&m),
            "{} vs {}",
            packed.mean_pairwise_hops(&m),
            scattered.mean_pairwise_hops(&m)
        );
    }

    #[test]
    fn single_rank_has_no_pairs() {
        let m = MachineSpec::test_machine(4);
        let mut rng = SimRng::new(1);
        let a = Allocation::one_rank_per_node(&m, 1, AllocationPolicy::Packed, &mut rng);
        assert_eq!(a.mean_pairwise_hops(&m), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn oversubscription_panics() {
        let m = MachineSpec::test_machine(2);
        let mut rng = SimRng::new(1);
        Allocation::one_rank_per_node(&m, 3, AllocationPolicy::Packed, &mut rng);
    }
}
