//! Observability glue: trace lane allocation.
//!
//! The tracing machinery itself lives in [`scibench_trace`]; this module
//! holds the lane convention the rest of the crate wires through it.
//! chrome://tracing `tid`s are carved into ranges so pool workers and
//! campaign points never collide: workers occupy `0..threads`, and design
//! point `i` records on [`CAMPAIGN_LANE_BASE`]` + i`.

/// First lane used for per-design-point campaign events: design point
/// `i` records on `CAMPAIGN_LANE_BASE + i`. Pool workers use lanes
/// `0..threads`, so the two ranges cannot collide for any realistic
/// thread count.
pub const CAMPAIGN_LANE_BASE: u32 = 1 << 16;

// Worker lanes (0..threads) must sit strictly below the campaign block.
const _: () = assert!(CAMPAIGN_LANE_BASE > 1024);

/// The lane carrying design point `design_idx`'s campaign events.
pub fn campaign_lane(design_idx: usize) -> u32 {
    CAMPAIGN_LANE_BASE + design_idx as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_do_not_collide() {
        assert_eq!(campaign_lane(0), CAMPAIGN_LANE_BASE);
        assert_ne!(campaign_lane(7), campaign_lane(8));
    }
}
