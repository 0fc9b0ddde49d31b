//! Network topologies: Dragonfly (Cray Aries, used by Piz Daint and Piz
//! Dora) and fat tree (InfiniBand FDR, used by Pilatus), plus a single
//! crossbar for small test systems.
//!
//! The topology contributes the *hop count* between two nodes; the
//! [`crate::network`] model converts hops into latency. §4.1.2 of the
//! paper insists that "details of the network (topology, latency, and
//! bandwidth) ... need to be specified" — the simulator models exactly
//! those three quantities.

/// A network topology with a deterministic node-to-node hop count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Full crossbar: every pair of distinct nodes is one hop apart.
    Crossbar,
    /// Dragonfly: routers grouped into all-to-all connected groups with
    /// all-to-all global links (the Cray Aries arrangement).
    Dragonfly {
        /// Number of groups.
        groups: usize,
        /// Routers per group.
        routers_per_group: usize,
        /// Nodes attached to each router.
        nodes_per_router: usize,
    },
    /// k-ary fat tree with the given radix and number of levels.
    FatTree {
        /// Switch radix (ports per switch); nodes per leaf switch is
        /// `radix / 2`.
        radix: usize,
        /// Number of switching levels (2 = leaf + spine).
        levels: usize,
    },
}

impl Topology {
    /// Total number of node slots the topology provides.
    pub fn capacity(&self) -> usize {
        match *self {
            Topology::Crossbar => usize::MAX,
            Topology::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            } => groups * routers_per_group * nodes_per_router,
            Topology::FatTree { radix, levels } => {
                // Half the ports of each leaf go down to nodes; each extra
                // level multiplies the leaf count by radix/2.
                let down = radix / 2;
                down.pow(levels as u32)
            }
        }
    }

    /// Number of router-to-router hops between two node slots.
    ///
    /// Same node → 0 hops (shared memory). The models follow the minimal
    /// routing path of each topology.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        match *self {
            Topology::Crossbar => 1,
            Topology::Dragonfly {
                routers_per_group,
                nodes_per_router,
                ..
            } => {
                let router_a = a / nodes_per_router;
                let router_b = b / nodes_per_router;
                if router_a == router_b {
                    // Same router: one router traversal.
                    1
                } else {
                    let group_a = router_a / routers_per_group;
                    let group_b = router_b / routers_per_group;
                    if group_a == group_b {
                        // Intra-group: source router → dest router.
                        2
                    } else {
                        // Minimal global route: src router → gateway →
                        // global link → gateway → dest router.
                        // Counted as 3 router-to-router traversals.
                        3
                    }
                }
            }
            Topology::FatTree { radix, levels } => {
                // Nodes under the same switch at level l share an ancestor;
                // path length is 2 · (level of lowest common ancestor).
                let down = (radix / 2).max(2);
                let mut la = a;
                let mut lb = b;
                for level in 1..=levels {
                    la /= down;
                    lb /= down;
                    if la == lb {
                        return 2 * level;
                    }
                }
                2 * levels
            }
        }
    }

    /// The maximum hop count the topology can produce (network diameter).
    pub fn diameter(&self) -> usize {
        match *self {
            Topology::Crossbar => 1,
            Topology::Dragonfly { .. } => 3,
            Topology::FatTree { levels, .. } => 2 * levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_hops() {
        let t = Topology::Crossbar;
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 99), 1);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn dragonfly_distances() {
        // 4 groups × 4 routers × 2 nodes = 32 nodes.
        let t = Topology::Dragonfly {
            groups: 4,
            routers_per_group: 4,
            nodes_per_router: 2,
        };
        assert_eq!(t.capacity(), 32);
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1); // same router
        assert_eq!(t.hops(0, 2), 2); // same group, different router
        assert_eq!(t.hops(0, 7), 2);
        assert_eq!(t.hops(0, 8), 3); // different group
        assert_eq!(t.hops(0, 31), 3);
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn dragonfly_symmetry() {
        let t = Topology::Dragonfly {
            groups: 3,
            routers_per_group: 2,
            nodes_per_router: 4,
        };
        for a in 0..t.capacity() {
            for b in 0..t.capacity() {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn fat_tree_distances() {
        // radix 4 → 2 nodes per leaf; 3 levels → capacity 8.
        let t = Topology::FatTree {
            radix: 4,
            levels: 3,
        };
        assert_eq!(t.capacity(), 8);
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 2); // same leaf
        assert_eq!(t.hops(0, 2), 4); // adjacent leaf
        assert_eq!(t.hops(0, 4), 6); // across the spine
        assert_eq!(t.diameter(), 6);
    }

    #[test]
    fn fat_tree_hops_nondecreasing_with_distance() {
        let t = Topology::FatTree {
            radix: 8,
            levels: 2,
        };
        assert_eq!(t.capacity(), 16);
        assert!(t.hops(0, 1) <= t.hops(0, 5));
    }

    #[test]
    fn hops_bounded_by_diameter() {
        let topos = [
            Topology::Crossbar,
            Topology::Dragonfly {
                groups: 5,
                routers_per_group: 3,
                nodes_per_router: 2,
            },
            Topology::FatTree {
                radix: 4,
                levels: 2,
            },
        ];
        for t in topos {
            let cap = match t {
                Topology::Crossbar => 16,
                _ => t.capacity(),
            };
            for a in 0..cap {
                for b in 0..cap {
                    assert!(t.hops(a, b) <= t.diameter());
                }
            }
        }
    }
}
