//! Property-based tests of the simulator's structural invariants:
//! topologies are metrics-ish, noise only slows things down, collectives
//! respect their trees, and everything is deterministic in the seed.

use proptest::prelude::*;

use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::collectives::{barrier, broadcast, reduce};
use scibench_sim::drift::DriftingClock;
use scibench_sim::fault::{FaultContext, FaultPlan, FaultSchedule};
use scibench_sim::machine::MachineSpec;
use scibench_sim::network::NetworkModel;
use scibench_sim::noise::NoiseProfile;
use scibench_sim::pi::{model_time_s, pi_run_s, PiConfig};
use scibench_sim::pingpong::{pingpong_latencies_ns, PingPongConfig};
use scibench_sim::rng::{fnv1a, splitmix64, SimRng, FNV_OFFSET};
use scibench_sim::topology::Topology;

fn any_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Crossbar),
        (2usize..6, 2usize..6, 1usize..5).prop_map(|(g, r, n)| Topology::Dragonfly {
            groups: g,
            routers_per_group: r,
            nodes_per_router: n,
        }),
        (4usize..16, 2usize..4).prop_map(|(radix, levels)| Topology::FatTree {
            radix: radix / 2 * 2, // even radix
            levels,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hops_are_symmetric_and_zero_on_diagonal(topo in any_topology(), a in 0usize..64, b in 0usize..64) {
        let cap = match topo {
            Topology::Crossbar => 64,
            _ => topo.capacity().min(64),
        };
        prop_assume!(cap > 0);
        let (a, b) = (a % cap, b % cap);
        prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
        prop_assert_eq!(topo.hops(a, a), 0);
        if a != b {
            prop_assert!(topo.hops(a, b) >= 1);
        }
        prop_assert!(topo.hops(a, b) <= topo.diameter());
    }

    #[test]
    fn noise_never_speeds_things_up(
        base in 0.0f64..1e7,
        sigma in 0.0f64..0.5,
        slow_prob in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let profile = NoiseProfile {
            jitter_sigma: sigma,
            daemon_period_ns: 1e5,
            daemon_cost_ns: 500.0,
            congestion_prob: 0.05,
            congestion_scale_ns: 1000.0,
            congestion_shape: 2.0,
            slow_path_prob: slow_prob,
            slow_path_extra_ns: 700.0,
        };
        let mut rng = SimRng::new(seed);
        for _ in 0..20 {
            prop_assert!(profile.perturb(base, &mut rng) >= base);
        }
    }

    #[test]
    fn transfer_cost_monotone_in_bytes(bytes1 in 0usize..100_000, bytes2 in 0usize..100_000) {
        let m = MachineSpec::piz_dora();
        let net = NetworkModel::new(&m);
        let (lo, hi) = if bytes1 <= bytes2 { (bytes1, bytes2) } else { (bytes2, bytes1) };
        prop_assert!(net.base_transfer_ns(0, 18, lo) <= net.base_transfer_ns(0, 18, hi));
    }

    #[test]
    fn reduce_outcome_shape(p in 1usize..100, seed in 0u64..500) {
        let m = MachineSpec::test_machine(p.max(2));
        let mut rng = SimRng::new(seed);
        let alloc = Allocation::one_rank_per_node(&m, p, AllocationPolicy::Packed, &mut rng);
        let out = reduce(&m, &alloc, 8, &mut rng);
        prop_assert_eq!(out.ranks(), p);
        prop_assert!(out.per_rank_done_ns.iter().all(|t| t.is_finite() && *t >= 0.0));
        // Root finishes last on a quiet machine.
        prop_assert!((out.per_rank_done_ns[0] - out.max_ns().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn broadcast_reaches_all_ranks(p in 1usize..100, seed in 0u64..500) {
        let m = MachineSpec::test_machine(p.max(2));
        let mut rng = SimRng::new(seed);
        let alloc = Allocation::one_rank_per_node(&m, p, AllocationPolicy::Packed, &mut rng);
        let out = broadcast(&m, &alloc, 64, &mut rng);
        prop_assert!(out.per_rank_done_ns.iter().all(|t| t.is_finite()));
        prop_assert_eq!(out.per_rank_done_ns[0], 0.0);
        // Depth bound: ceil(log2 p) messages of equal quiet cost.
        if p > 1 {
            let net = NetworkModel::new(&m);
            let one = net.base_transfer_ns(0, 1, 64);
            let depth = (p as f64).log2().ceil();
            prop_assert!(out.max_ns().unwrap() <= depth * one + 1e-6);
        }
    }

    #[test]
    fn barrier_synchronizes_quiet_ranks(p in 2usize..100, seed in 0u64..500) {
        let m = MachineSpec::test_machine(p);
        let mut rng = SimRng::new(seed);
        let alloc = Allocation::one_rank_per_node(&m, p, AllocationPolicy::Packed, &mut rng);
        let out = barrier(&m, &alloc, &mut rng);
        // All ranks leave together on a uniform quiet crossbar.
        prop_assert!(out.max_ns().unwrap() - out.min_ns().unwrap() < 1e-9);
    }

    #[test]
    fn power_of_two_reduce_never_slower_than_successor(k in 2u32..6, seed in 0u64..200) {
        let p = 2usize.pow(k);
        let run = |ranks: usize| {
            let m = MachineSpec::test_machine(ranks);
            let mut rng = SimRng::new(seed);
            let alloc =
                Allocation::one_rank_per_node(&m, ranks, AllocationPolicy::Packed, &mut rng);
            reduce(&m, &alloc, 8, &mut rng).max_ns().unwrap()
        };
        prop_assert!(run(p) <= run(p + 1));
    }

    #[test]
    fn random_allocation_nodes_distinct(p in 1usize..128, seed in 0u64..500) {
        let m = MachineSpec::piz_daint();
        let mut rng = SimRng::new(seed);
        let alloc = Allocation::one_rank_per_node(&m, p, AllocationPolicy::Random, &mut rng);
        let mut nodes = alloc.node_of.clone();
        nodes.sort_unstable();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), p);
        prop_assert!(alloc.node_of.iter().all(|&n| n < m.nodes));
    }

    #[test]
    fn drifting_clock_round_trips(offset in -1e9f64..1e9, drift in -1e-4f64..1e-4, t in 0.0f64..1e12) {
        let c = DriftingClock { offset_ns: offset, drift };
        let back = c.global_from_local(c.local_from_global(t));
        prop_assert!((back - t).abs() < 1e-2 * (1.0 + t.abs() * 1e-9));
    }

    #[test]
    fn rng_forks_are_reproducible(seed in 0u64..10_000, label in "[a-z]{1,8}") {
        let a: Vec<f64> = {
            let mut r = SimRng::new(seed).fork(&label);
            (0..5).map(|_| r.uniform()).collect()
        };
        let b: Vec<f64> = {
            let mut r = SimRng::new(seed).fork(&label);
            (0..5).map(|_| r.uniform()).collect()
        };
        prop_assert_eq!(a, b);
    }

    #[test]
    fn hpl_runs_are_physical(seed in 0u64..300) {
        use scibench_sim::hpl::{hpl_run, HplConfig};
        let m = MachineSpec::piz_daint();
        let c = HplConfig::paper_figure1();
        let mut rng = SimRng::new(seed);
        let r = hpl_run(&m, &c, &mut rng);
        // Efficiency in (0, best]; time consistent with rate.
        prop_assert!(r.efficiency > 0.0 && r.efficiency <= c.best_efficiency);
        prop_assert!((r.flops_per_s * r.time_s - c.flops()).abs() / c.flops() < 1e-9);
    }

    #[test]
    fn pi_model_time_monotone_in_segments(p in 1usize..8) {
        // Within the flat-overhead segment (p <= 8), time strictly
        // decreases with p.
        let c = PiConfig::paper_figure7();
        prop_assert!(model_time_s(&c, p + 1) < model_time_s(&c, p));
    }

    #[test]
    fn fault_schedules_are_deterministic(
        rate in 0.0f64..=1.0,
        nodes in 1usize..256,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::with_failure_rate(rate);
        let a = FaultSchedule::compile(&plan, nodes, &SimRng::new(seed));
        let b = FaultSchedule::compile(&plan, nodes, &SimRng::new(seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fault_schedule_counts_are_bounded(
        rate in 0.0f64..=1.0,
        nodes in 1usize..256,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::with_failure_rate(rate);
        let s = FaultSchedule::compile(&plan, nodes, &SimRng::new(seed));
        prop_assert_eq!(s.nodes(), nodes);
        prop_assert!(s.crashed_nodes() <= nodes);
        prop_assert!(s.straggler_nodes() <= nodes);
        prop_assert!(s.clock_jump_nodes() <= nodes);
        for node in 0..nodes {
            if let Some(t) = s.crash_at_ns(node) {
                prop_assert!(t >= 0.0 && t < plan.crash_window_ns);
            }
            prop_assert!(s.slowdown_of(node) >= 1.0);
        }
    }

    #[test]
    fn zero_rate_plans_are_trivial_for_any_seed(nodes in 1usize..256, seed in 0u64..10_000) {
        let plan = FaultPlan::with_failure_rate(0.0);
        prop_assert!(plan.is_none());
        let s = FaultSchedule::compile(&plan, nodes, &SimRng::new(seed));
        prop_assert!(s.is_trivial());
        prop_assert_eq!(s.crashed_nodes(), 0);
        prop_assert_eq!(s.straggler_nodes(), 0);
        prop_assert_eq!(s.clock_jump_nodes(), 0);
    }

    #[test]
    fn fault_context_coins_are_deterministic(
        rate in 0.0f64..=1.0,
        nodes in 1usize..64,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::with_failure_rate(rate);
        let flips = |s: u64| -> Vec<bool> {
            let mut ctx = FaultContext::new(&plan, nodes, &SimRng::new(s));
            (0..32).map(|_| ctx.link_drop_coin()).collect()
        };
        prop_assert_eq!(flips(seed), flips(seed));
    }
}

/// A machine of up to 64 nodes on `topology`, with the test machine's
/// quiet noise and link parameters.
fn machine_on(topology: Topology) -> MachineSpec {
    let mut machine = MachineSpec::test_machine(match topology {
        Topology::Crossbar => 64,
        _ => topology.capacity().min(64),
    });
    machine.network.topology = topology;
    machine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- Random streams --------------------------------------------

    #[test]
    fn uniform_draws_stay_in_their_range(seed in any::<u64>(), lo in -1e6f64..1e6, width in 1e-3f64..1e6) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
            let x = rng.uniform_range(lo, lo + width);
            prop_assert!(lo <= x && x <= lo + width, "{} outside [{}, {})", x, lo, lo + width);
        }
    }

    #[test]
    fn index_draws_stay_below_n(seed in any::<u64>(), n in 1usize..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.index(n) < n);
        }
    }

    #[test]
    fn forks_ignore_what_the_parent_has_drawn(
        seed in any::<u64>(),
        label in "[a-z]{1,8}",
        index in any::<u64>(),
        draws in 1usize..20,
    ) {
        let fresh = SimRng::new(seed);
        let mut used = SimRng::new(seed);
        for _ in 0..draws {
            used.uniform();
        }
        prop_assert_eq!(fresh.fork(&label).seed(), used.fork(&label).seed());
        prop_assert_eq!(
            fresh.fork_indexed(&label, index).seed(),
            used.fork_indexed(&label, index).seed()
        );
    }

    #[test]
    fn normal_and_lognormal_draws_transform_one_standard_draw(
        seed in any::<u64>(),
        mean in -1e3f64..1e3,
        sd in 0.0f64..1e3,
        sigma in 0.0f64..2.0,
    ) {
        // Each consumes exactly the words of one standard normal draw, so
        // the noise models stay aligned draw for draw.
        let z = SimRng::new(seed).std_normal();
        let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
        prop_assert_eq!(a.normal(mean, sd), mean + sd * z);
        prop_assert_eq!(b.lognormal(mean / 1e3, sigma), (mean / 1e3 + sigma * z).exp());
        let mut fresh = SimRng::new(seed);
        fresh.std_normal();
        let next = fresh.uniform();
        prop_assert_eq!(a.uniform(), next);
        prop_assert_eq!(b.uniform(), next);
    }

    #[test]
    fn fnv1a_chains_over_concatenation(a in "[ -~]{0,16}", b in "[ -~]{0,16}") {
        let whole = format!("{a}{b}");
        prop_assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, a.as_bytes()), b.as_bytes()),
            fnv1a(FNV_OFFSET, whole.as_bytes())
        );
    }

    #[test]
    fn splitmix64_maps_distinct_seeds_apart(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(splitmix64(a), splitmix64(b));
    }

    // --- Topology and clocks ---------------------------------------

    #[test]
    fn hops_form_an_ultrametric(topo in any_topology(), a in 0usize..64, b in 0usize..64, c in 0usize..64) {
        // Routes climb a hierarchy (router, group, tree level), so the
        // longer of two legs bounds the direct route.
        let cap = machine_on(topo).nodes;
        let (a, b, c) = (a % cap, b % cap, c % cap);
        prop_assert!(topo.hops(a, c) <= topo.hops(a, b).max(topo.hops(b, c)), "{:?}: {} {} {}", topo, a, b, c);
    }

    #[test]
    fn some_pair_of_nodes_is_a_diameter_apart(topo in any_topology()) {
        // Every generated topology has at least two groups, subtrees or
        // nodes, so the diameter is a distance that occurs.
        let cap = machine_on(topo).nodes;
        prop_assert!((0..cap).any(|b| topo.hops(0, b) == topo.diameter()), "{:?}", topo);
    }

    #[test]
    fn mean_pairwise_hops_lie_within_the_diameter(topo in any_topology(), share in 0.0f64..=1.0, seed in any::<u64>()) {
        let machine = machine_on(topo);
        let p = ((machine.nodes as f64 * share) as usize).clamp(1, machine.nodes);
        let a = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, &mut SimRng::new(seed));
        let hops = a.mean_pairwise_hops(&machine);
        if p == 1 {
            prop_assert_eq!(hops, 0.0);
        } else {
            // Distinct nodes are at least one hop apart.
            prop_assert!(1.0 <= hops && hops <= topo.diameter() as f64, "{} hops on {:?}", hops, topo);
        }
    }

    #[test]
    fn clock_skew_is_antisymmetric_and_follows_a_jump(
        o1 in -1e9f64..1e9,
        d1 in -1e-4f64..1e-4,
        o2 in -1e9f64..1e9,
        d2 in -1e-4f64..1e-4,
        jump in -1e6f64..1e6,
        t in 0.0f64..1e12,
    ) {
        let a = DriftingClock { offset_ns: o1, drift: d1 };
        let b = DriftingClock { offset_ns: o2, drift: d2 };
        prop_assert_eq!(a.skew_to(&b, t), -b.skew_to(&a, t));
        prop_assert_eq!(a.skew_to(&a, t), 0.0);
        let moved = a.with_jump(jump).skew_to(&b, t) - a.skew_to(&b, t);
        prop_assert!((moved - jump).abs() <= 1e-6 * (1.0 + o1.abs() + o2.abs() + t));
    }

    // --- Transfers and workloads -----------------------------------

    #[test]
    fn base_transfers_are_symmetric_and_pay_rendezvous_past_eager(
        topo in any_topology(),
        a in 0usize..64,
        b in 0usize..64,
        bytes in 0usize..100_000,
    ) {
        let machine = machine_on(topo);
        let (a, b) = (a % machine.nodes, b % machine.nodes);
        let net = NetworkModel::new(&machine);
        prop_assert_eq!(net.base_transfer_ns(a, b, bytes), net.base_transfer_ns(b, a, bytes));
        if a != b {
            let eager = machine.network.eager_threshold_bytes;
            let step = net.base_transfer_ns(a, b, eager + 1) - net.base_transfer_ns(a, b, eager);
            let want = machine.network.rendezvous_ns + 1.0 / machine.network.bandwidth_bytes_per_ns;
            prop_assert!((step - want).abs() < 1e-6, "step {} vs {}", step, want);
        }
    }

    #[test]
    fn quiet_pingpong_reads_the_base_round_trip(
        a in 0usize..64,
        b in 0usize..64,
        bytes in 0usize..100_000,
        warmup in 0usize..5,
        factor in 1.0f64..3.0,
    ) {
        // Without noise every sample is the mean of the two base transfers,
        // and each warm-up sample that times scaled by the warm-up factor.
        let machine = MachineSpec::test_machine(64);
        let config = PingPongConfig {
            bytes,
            samples: 8,
            node_a: a,
            node_b: b,
            warmup_iterations: warmup,
            warmup_factor: factor,
        };
        let net = NetworkModel::new(&machine);
        let round = 0.5 * (net.base_transfer_ns(a, b, bytes) + net.base_transfer_ns(b, a, bytes));
        let got = pingpong_latencies_ns(&machine, &config, &mut SimRng::new(0));
        for (i, &t) in got.iter().enumerate() {
            let want = if i < warmup { round * factor } else { round };
            prop_assert_eq!(t, want, "sample {}", i);
        }
    }

    #[test]
    fn pi_runs_never_beat_the_model_or_amdahls_floor(
        p in 1usize..512,
        serial in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let config = PiConfig { serial_fraction: serial, ..PiConfig::paper_figure7() };
        let machine = MachineSpec::piz_daint();
        let model = model_time_s(&config, p);
        prop_assert!(model >= config.serial_time_s());
        prop_assert!(pi_run_s(&machine, &config, p, &mut SimRng::new(seed)) >= model);
    }
}
