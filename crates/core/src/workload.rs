//! Workload classification for adaptive load balancing (paper §4.2).
//!
//! Active vertices are classified by their number of *light* edges:
//!
//! * `< β = 32` → **small** list, processed by the parent thread in
//!   the paper; here by a sub-warp gang matched to the wave's mean
//!   light degree (see [`gang_width`]);
//! * `β ..= α-1` (`α = 256`) → **medium** list, processed by one Warp
//!   (32 lanes);
//! * `>= α` → **large** list, processed via dynamic parallelism with
//!   Block-granularity child kernels (256 threads; vertices above 4096
//!   light edges get `⌈n/4096⌉` blocks — in the simulator, a child
//!   kernel with one thread per edge).
//!
//! Deviation from the paper: §4.2's text reads `⌊n/4096⌋` blocks, but a
//! floor leaves the remainder edges (up to 4095 of them) uncovered —
//! the simulator's child kernel relaxes one thread per edge, so the
//! cost model must charge for every edge. We use ceiling division; the
//! paper's floor is assumed to be shorthand for the usual grid-size
//! round-up.

/// Warp-granularity threshold β (number of light edges).
pub const BETA: u32 = 32;
/// Block-granularity threshold α.
pub const ALPHA: u32 = 256;
/// Edges per block above which multiple blocks are assigned.
pub const BLOCK_EDGE_LIMIT: u32 = 4096;

/// Which workload list an active vertex belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// A sub-warp gang (one thread in the paper) handles the edges.
    Small,
    /// One warp (32 lanes) cooperates.
    Medium,
    /// One or more blocks via a dynamic child kernel.
    Large,
}

/// Classify by light-edge count (§4.2's α/β rules).
#[inline]
pub fn classify(light_edges: u32) -> WorkloadClass {
    if light_edges >= ALPHA {
        WorkloadClass::Large
    } else if light_edges >= BETA {
        WorkloadClass::Medium
    } else {
        WorkloadClass::Small
    }
}

/// Number of 256-thread blocks assigned to a large vertex: one per
/// 4096 light edges, rounded *up* so remainder edges are still owned
/// by a block (ceiling division; see the module doc for why this
/// deviates from the paper's `⌊n/4096⌋` wording).
#[inline]
pub fn blocks_for(light_edges: u32) -> u32 {
    if light_edges <= BLOCK_EDGE_LIMIT {
        1
    } else {
        light_edges.div_ceil(BLOCK_EDGE_LIMIT)
    }
}

/// List index used for the three device-side queues.
impl WorkloadClass {
    pub const COUNT: usize = 3;

    #[inline]
    pub fn index(self) -> usize {
        match self {
            WorkloadClass::Small => 0,
            WorkloadClass::Medium => 1,
            WorkloadClass::Large => 2,
        }
    }
}

/// Widest gang a phase-1 small-list wave spreads one vertex over.
pub const SMALL_GANG_CAP: u32 = 16;

/// Lanes a wave should keep busy on a device of `num_sms` SMs: two
/// warps per SM. The Δ controller's utilization floor and the
/// small-list [`occupancy_cap`] both size against it.
#[inline]
pub fn target_lanes(num_sms: u32) -> u64 {
    num_sms as u64 * 32 * 2
}

/// Gang width matched to a wave's work: the next power of two at or
/// above the mean edge count per item, `⌈edges / items⌉`, capped at
/// `cap` (a power of two). Items with no edges get one lane.
#[inline]
pub fn gang_width(edges: u64, items: u64, cap: u32) -> u32 {
    let mean = edges.div_ceil(items.max(1)).max(1);
    mean.next_power_of_two().min(cap as u64) as u32
}

/// Cap on the small-list gang width of an `items`-vertex wave: the
/// largest power of two that keeps `items × width` within
/// `target_lanes`, at most [`SMALL_GANG_CAP`]. Only waves that leave
/// device lanes idle widen, so waves that already fill the device do
/// not pay extra warp-aggregated publish atomics.
#[inline]
pub fn occupancy_cap(items: u64, target_lanes: u64) -> u32 {
    let per_item = (target_lanes / items.max(1)).max(1);
    (1u64 << per_item.ilog2()).min(SMALL_GANG_CAP as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify(0), WorkloadClass::Small);
        assert_eq!(classify(6), WorkloadClass::Small); // paper's example
        assert_eq!(classify(31), WorkloadClass::Small);
        assert_eq!(classify(32), WorkloadClass::Medium);
        assert_eq!(classify(224), WorkloadClass::Medium); // paper's example
        assert_eq!(classify(255), WorkloadClass::Medium);
        assert_eq!(classify(256), WorkloadClass::Large);
        assert_eq!(classify(4000), WorkloadClass::Large); // paper's example
    }

    #[test]
    fn block_assignment() {
        assert_eq!(blocks_for(300), 1);
        assert_eq!(blocks_for(4096), 1);
        assert_eq!(blocks_for(8192), 2);
        // A remainder demands one extra block: 8193 edges do not fit in
        // two 4096-edge blocks.
        assert_eq!(blocks_for(8193), 3);
        assert_eq!(blocks_for(10_000), 3); // ⌈10000/4096⌉
    }

    #[test]
    fn list_indices_distinct() {
        let idx: Vec<_> = [WorkloadClass::Small, WorkloadClass::Medium, WorkloadClass::Large]
            .iter()
            .map(|c| c.index())
            .collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn gang_width_table() {
        // (edges, items, cap) -> width: the next power of two at or
        // above the mean, clamped to [1, cap].
        for (edges, items, cap, want) in [
            (0, 10, 32, 1),    // mean 0: edgeless items keep one lane
            (10, 10, 32, 1),   // mean 1
            (30, 10, 32, 4),   // mean 3
            (25, 10, 32, 4),   // mean 2.5 rounds up to 3
            (170, 10, 32, 32), // mean 17
            (170, 10, 16, 16), // mean 17 under the small-list cap
            (400, 10, 32, 32), // mean 40 capped at a warp
            (30, 10, 1, 1),    // a width-1 cap wins over any mean
            (5, 0, 32, 8),     // no items: the edge count is the mean
        ] {
            assert_eq!(gang_width(edges, items, cap), want, "{edges}/{items} cap {cap}");
        }
    }

    #[test]
    fn occupancy_cap_table() {
        let lanes = target_lanes(80);
        assert_eq!(lanes, 5120);
        for (items, want) in [
            (0, 16),   // empty wave: the small-list cap
            (83, 16),  // 61 lanes per item, capped at 16
            (400, 8),  // 12.8 lanes per item -> 8
            (1280, 4), // exactly 4 lanes per item
            (1281, 2), // just under 4
            (5120, 1), // the wave fills the device
            (100_000, 1),
        ] {
            assert_eq!(occupancy_cap(items, lanes), want, "{items} items");
        }
    }
}
