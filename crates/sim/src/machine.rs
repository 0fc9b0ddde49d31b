//! Machine specifications, with presets for the three systems the paper
//! measures (§4.1.2 "Our experimental setup").
//!
//! A [`MachineSpec`] bundles everything Rule 9 says an experimenter must
//! document: compute (node spec), network (topology, latency, bandwidth)
//! and the noise environment. The `describe()` method renders exactly that
//! documentation block, so experiment reports can embed a full setup
//! description mechanically.

use crate::fault::FaultPlan;
use crate::noise::NoiseProfile;
use crate::topology::Topology;

/// Compute-node description (the paper's "Processor Model / RAM" rows of
/// Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Marketing name of the CPU(s), e.g. "2x Intel Xeon E5-2690 v3".
    pub cpu_model: String,
    /// Total hardware cores per node.
    pub cores: usize,
    /// Memory per node in GiB.
    pub mem_gib: u32,
    /// Memory type descriptor, e.g. "DDR4-1600".
    pub mem_type: String,
    /// Optional accelerator description.
    pub accelerator: Option<String>,
    /// Peak double-precision rate of the whole node in flop/s.
    pub peak_flops: f64,
}

/// Interconnect description (the paper's "NIC Model / Network" row).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Interconnect family, e.g. "Cray Aries" or "InfiniBand FDR".
    pub name: String,
    /// Topology model.
    pub topology: Topology,
    /// Fixed injection overhead per message (LogGP `o`), nanoseconds.
    pub injection_ns: f64,
    /// Per-router-hop latency, nanoseconds.
    pub per_hop_ns: f64,
    /// Link bandwidth in bytes per nanosecond (= GB/s).
    pub bandwidth_bytes_per_ns: f64,
    /// Largest message sent eagerly; larger messages pay the rendezvous
    /// handshake.
    pub eager_threshold_bytes: usize,
    /// Extra cost of the rendezvous handshake, nanoseconds.
    pub rendezvous_ns: f64,
}

/// A complete machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable system name.
    pub name: String,
    /// System family / product, e.g. "Cray XC40".
    pub family: String,
    /// Number of compute nodes.
    pub nodes: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Interconnect model.
    pub network: NetworkSpec,
    /// Noise environment.
    pub noise: NoiseProfile,
    /// Fault-injection plan for resilience experiments (empty by default —
    /// presets model healthy machines).
    pub faults: FaultPlan,
    /// Software environment descriptor (compiler, MPI, batch system) —
    /// the Table 1 software rows.
    pub software: String,
    /// Timer granularity observed on this system, nanoseconds.
    pub timer_granularity_ns: u64,
}

impl MachineSpec {
    /// Total core count of the machine.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.node.cores
    }

    /// Aggregate peak floating-point rate in flop/s.
    pub fn peak_flops(&self) -> f64 {
        self.nodes as f64 * self.node.peak_flops
    }

    /// Renders the Rule-9 setup documentation block.
    pub fn describe(&self) -> String {
        let acc = self.node.accelerator.as_deref().unwrap_or("none");
        let faults = if self.faults.is_none() {
            String::new()
        } else {
            format!(
                "injected faults: crash p = {}, straggler p = {} (x{:.1}), \
                 link drop p = {}, clock jump p = {}\n",
                self.faults.node_crash_prob,
                self.faults.straggler_prob,
                self.faults.straggler_slowdown,
                self.faults.link_drop_prob,
                self.faults.clock_jump_prob,
            )
        };
        format!(
            "system: {} ({})\n\
             nodes: {} x [{} ({} cores), {} GiB {}, accelerator: {}]\n\
             network: {} ({:?}), injection {:.0} ns, {:.0} ns/hop, {:.1} GB/s\n\
             {}software: {}\n\
             timer granularity: {} ns",
            self.name,
            self.family,
            self.nodes,
            self.node.cpu_model,
            self.node.cores,
            self.node.mem_gib,
            self.node.mem_type,
            acc,
            self.network.name,
            self.network.topology,
            self.network.injection_ns,
            self.network.per_hop_ns,
            self.network.bandwidth_bytes_per_ns,
            faults,
            self.software,
            self.timer_granularity_ns,
        )
    }

    /// Returns this machine with the given fault plan attached (builder
    /// style, used by resilience experiments).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Piz Daint model (Cray XC30): 8-core Xeon E5-2670 + NVIDIA K20X per
    /// node, Aries Dragonfly. The HPL runs of Figure 1 use 64 nodes with a
    /// theoretical peak of 94.5 Tflop/s → ≈ 1.477 Tflop/s per node.
    pub fn piz_daint() -> Self {
        Self {
            name: "Piz Daint".into(),
            family: "Cray XC30".into(),
            nodes: 1024,
            node: NodeSpec {
                cpu_model: "Intel Xeon E5-2670".into(),
                cores: 8,
                mem_gib: 32,
                mem_type: "DDR3-1600".into(),
                accelerator: Some("NVIDIA Tesla K20X (6 GiB GDDR5)".into()),
                peak_flops: 1.477e12,
            },
            network: NetworkSpec {
                name: "Cray Aries".into(),
                topology: Topology::Dragonfly {
                    groups: 16,
                    routers_per_group: 16,
                    nodes_per_router: 4,
                },
                injection_ns: 900.0,
                per_hop_ns: 300.0,
                bandwidth_bytes_per_ns: 10.0,
                eager_threshold_bytes: 8192,
                rendezvous_ns: 1500.0,
            },
            noise: NoiseProfile {
                jitter_sigma: 0.12,
                daemon_period_ns: 1.0e6,
                daemon_cost_ns: 4_000.0,
                congestion_prob: 0.006,
                congestion_scale_ns: 2_000.0,
                congestion_shape: 3.0,
                slow_path_prob: 0.0,
                slow_path_extra_ns: 0.0,
            },
            faults: FaultPlan::none(),
            software: "CLE, Cray PE 5.1.29, slurm 14.03.7, gcc 4.8.2 -O3".into(),
            timer_granularity_ns: 10,
        }
    }

    /// Piz Dora model (Cray XC40): 2× 12-core Xeon E5-2690 v3 per node,
    /// Aries Dragonfly. Base system of the ping-pong experiments
    /// (Figures 2, 3, 4, 7(c)).
    pub fn piz_dora() -> Self {
        Self {
            name: "Piz Dora".into(),
            family: "Cray XC40".into(),
            nodes: 1024,
            node: NodeSpec {
                cpu_model: "2x Intel Xeon E5-2690 v3".into(),
                cores: 24,
                mem_gib: 64,
                mem_type: "DDR4-1600".into(),
                accelerator: None,
                peak_flops: 0.96e12,
            },
            network: NetworkSpec {
                name: "Cray Aries".into(),
                topology: Topology::Dragonfly {
                    groups: 16,
                    routers_per_group: 16,
                    nodes_per_router: 4,
                },
                injection_ns: 1000.0,
                per_hop_ns: 293.0,
                bandwidth_bytes_per_ns: 10.0,
                eager_threshold_bytes: 8192,
                rendezvous_ns: 1500.0,
            },
            noise: NoiseProfile {
                jitter_sigma: 0.15,
                daemon_period_ns: 1.2e6,
                daemon_cost_ns: 3_500.0,
                congestion_prob: 0.003,
                congestion_scale_ns: 1_500.0,
                congestion_shape: 4.0,
                slow_path_prob: 0.0,
                slow_path_extra_ns: 0.0,
            },
            faults: FaultPlan::none(),
            software: "CLE, Cray PE 5.2.40, slurm 14.03.7, gcc 4.8.2 -O3".into(),
            timer_granularity_ns: 10,
        }
    }

    /// Pilatus model: 2× 8-core Xeon E5-2670, InfiniBand FDR fat tree,
    /// MVAPICH2 1.9. Comparison system of Figures 3 and 4: slightly faster
    /// in the common case, markedly heavier latency tail.
    pub fn pilatus() -> Self {
        Self {
            name: "Pilatus".into(),
            family: "x86 cluster".into(),
            nodes: 324,
            node: NodeSpec {
                cpu_model: "2x Intel Xeon E5-2670".into(),
                cores: 16,
                mem_gib: 64,
                mem_type: "DDR3-1600".into(),
                accelerator: None,
                peak_flops: 0.66e12,
            },
            network: NetworkSpec {
                name: "InfiniBand FDR".into(),
                topology: Topology::FatTree {
                    radix: 36,
                    levels: 2,
                },
                injection_ns: 480.0,
                per_hop_ns: 250.0,
                bandwidth_bytes_per_ns: 6.8,
                eager_threshold_bytes: 12288,
                rendezvous_ns: 1800.0,
            },
            noise: NoiseProfile {
                jitter_sigma: 0.10,
                daemon_period_ns: 0.8e6,
                daemon_cost_ns: 5_000.0,
                congestion_prob: 0.012,
                congestion_scale_ns: 2_000.0,
                congestion_shape: 4.0,
                slow_path_prob: 0.35,
                slow_path_extra_ns: 700.0,
            },
            faults: FaultPlan::none(),
            software: "CentOS, MVAPICH2 1.9, slurm, gcc 4.8.2 -O3".into(),
            timer_granularity_ns: 20,
        }
    }

    /// A tiny quiet machine for unit tests: crossbar network, no noise.
    pub fn test_machine(nodes: usize) -> Self {
        Self {
            name: "TestBox".into(),
            family: "simulated".into(),
            nodes,
            node: NodeSpec {
                cpu_model: "test-cpu".into(),
                cores: 4,
                mem_gib: 8,
                mem_type: "DDR-test".into(),
                accelerator: None,
                peak_flops: 1e11,
            },
            network: NetworkSpec {
                name: "crossbar".into(),
                topology: Topology::Crossbar,
                injection_ns: 500.0,
                per_hop_ns: 200.0,
                bandwidth_bytes_per_ns: 10.0,
                eager_threshold_bytes: 4096,
                rendezvous_ns: 1000.0,
            },
            noise: NoiseProfile::quiet(),
            faults: FaultPlan::none(),
            software: "test".into(),
            timer_granularity_ns: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_hardware() {
        let daint = MachineSpec::piz_daint();
        assert_eq!(daint.node.cores, 8);
        assert!(daint.node.accelerator.is_some());
        assert_eq!(daint.family, "Cray XC30");

        let dora = MachineSpec::piz_dora();
        assert_eq!(dora.node.cores, 24);
        assert_eq!(dora.node.mem_gib, 64);
        assert!(dora.node.accelerator.is_none());

        let pilatus = MachineSpec::pilatus();
        assert_eq!(pilatus.node.cores, 16);
        assert!(matches!(pilatus.network.topology, Topology::FatTree { .. }));
    }

    #[test]
    fn hpl_peak_matches_paper() {
        // 64 nodes of Piz Daint: paper states 94.5 Tflop/s theoretical peak.
        let daint = MachineSpec::piz_daint();
        let peak64 = 64.0 * daint.node.peak_flops;
        assert!(
            (peak64 - 94.5e12).abs() / 94.5e12 < 0.01,
            "peak = {peak64:.3e}"
        );
    }

    #[test]
    fn totals() {
        let m = MachineSpec::test_machine(10);
        assert_eq!(m.total_cores(), 40);
        assert!((m.peak_flops() - 1e12).abs() < 1.0);
    }

    #[test]
    fn describe_contains_rule9_items() {
        let d = MachineSpec::piz_dora().describe();
        for needle in [
            "Piz Dora",
            "Cray XC40",
            "E5-2690",
            "DDR4",
            "Aries",
            "gcc",
            "slurm",
        ] {
            assert!(d.contains(needle), "missing {needle} in:\n{d}");
        }
    }

    #[test]
    fn topology_capacity_fits_nodes() {
        for m in [
            MachineSpec::piz_daint(),
            MachineSpec::piz_dora(),
            MachineSpec::pilatus(),
        ] {
            assert!(m.network.topology.capacity() >= m.nodes, "{}", m.name);
        }
    }

    #[test]
    fn test_machine_is_quiet() {
        assert!(MachineSpec::test_machine(4).noise.is_quiet());
    }

    #[test]
    fn with_faults_replaces_only_the_fault_plan() {
        let plan = FaultPlan::with_failure_rate(0.5);
        let faulty = MachineSpec::piz_daint().with_faults(plan.clone());
        assert_eq!(faulty.faults, plan);
        let restored = MachineSpec {
            faults: FaultPlan::none(),
            ..faulty
        };
        assert_eq!(restored, MachineSpec::piz_daint());
    }
}
