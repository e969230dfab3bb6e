//! Warp-lockstep trace replay: divergence, coalescing, caches, atomics.
//!
//! After a launch's lanes run functionally, [`replay_warp`] walks each
//! warp's lane spans of the op arena ([`crate::trace::OpArena`]) step
//! by step:
//!
//! * traces split into *segments* at [`Op::Conv`] reconvergence
//!   points (`__syncwarp`): every lane advances to the boundary
//!   before the next segment begins, so step counters re-align there
//!   — the warp-synchronous multisplit kernels place one per
//!   aggregation point, while scalar traces have none and replay as
//!   one segment; each segment's ends are found once;
//! * at step `s` of a segment, every lane whose segment is at least
//!   `s + 1` ops long is *active*; one pass over the lanes groups the
//!   active ones by [`OpKind`], and the groups issue in the fixed
//!   order Alu, Load, Store, Atomic (the order the cache model sees)
//!   — each group is one warp-level instruction (divergent kinds
//!   serialize, like SIMT branches taking both paths);
//! * memory groups coalesce their addresses into 32-byte sectors; each
//!   sector is one transaction probing the SM's cache hierarchy;
//! * atomic groups additionally count same-address conflicts, which
//!   serialize within the warp;
//! * ALU ops carry a repeat count: the group's cost is the maximum
//!   count among its lanes (lockstep execution).
//!
//! The result is the warp's cycle cost plus counter deltas.
//!
//! [`Op::Conv`]: crate::trace::Op::Conv
//! [`OpKind`]: crate::trace::OpKind

use crate::cache::{CacheHierarchy, CacheLevel};
use crate::counters::Counters;
use crate::device::DeviceConfig;
use crate::trace::{PackedOp, Span, GROUP_CONV};
use crate::{SECTOR_BYTES, WARP_SIZE};

/// Cost and counter outcome of one warp replay.
#[derive(Clone, Debug, Default)]
pub struct WarpOutcome {
    /// Cycles this warp occupies its SM.
    pub cycles: u64,
}

/// Replay one warp on SM `sm`: lane `i`'s ops are `ops[spans[i]]`.
/// Updates `counters` and the cache hierarchy and returns the warp's
/// cycle cost. `register` counts the warp and its threads; pass
/// `false` when replaying a continuation of an already-counted warp
/// (the gang-collective flush epilogue).
pub fn replay_warp(
    config: &DeviceConfig,
    caches: &mut CacheHierarchy,
    counters: &mut Counters,
    sm: usize,
    ops: &[PackedOp],
    spans: &[Span],
    register: bool,
) -> WarpOutcome {
    const W: usize = WARP_SIZE as usize;
    debug_assert!(spans.len() <= W);
    let mut cycles = 0u64;
    if register {
        counters.warps += 1;
        counters.threads += spans.iter().filter(|s| !s.is_empty()).count().max(1) as u64;
    }

    // Per-lane cursor, current-segment end (exclusive, at the next
    // `Op::Conv` or the span end) and span end, all arena positions.
    let mut cur = [0usize; W];
    let mut seg_end = [0usize; W];
    let mut end = [0usize; W];
    for (i, s) in spans.iter().enumerate() {
        cur[i] = s.start as usize;
        end[i] = s.end as usize;
    }
    let lanes = spans.len();
    // Addresses of the Load, Store and Atomic groups at one step, and
    // the deduplicated sectors of one group.
    let mut addrs = [[0u64; W]; 3];
    let mut sectors = [0u64; W];

    loop {
        // Delimit each lane's next segment; stop when all exhausted.
        let mut seg_max = 0usize;
        let mut alive = false;
        for i in 0..lanes {
            alive |= cur[i] < end[i];
            let mut e = cur[i];
            while e < end[i] && ops[e].group() != GROUP_CONV {
                e += 1;
            }
            seg_end[i] = e;
            seg_max = seg_max.max(e - cur[i]);
        }
        if !alive {
            break;
        }
        for step in 0..seg_max {
            // One pass groups the step's active lanes by kind.
            let mut active = [0u64; 4];
            let mut alu_max = 0u32;
            for i in 0..lanes {
                let pos = cur[i] + step;
                if pos >= seg_end[i] {
                    continue;
                }
                let op = ops[pos];
                let g = op.group();
                if g == 0 {
                    alu_max = alu_max.max(op.payload() as u32);
                } else {
                    addrs[g - 1][active[g] as usize] = op.payload();
                }
                active[g] += 1;
            }
            // Issue the groups in the fixed order Alu, Load, Store,
            // Atomic: the order feeds the cache model.
            for g in 0..4 {
                if active[g] == 0 {
                    continue;
                }
                counters.inst_executed += 1;
                counters.active_lane_sum += active[g];
                counters.lane_slot_sum += WARP_SIZE as u64;
                cycles += 1; // issue
                if g == 0 {
                    cycles += alu_max.saturating_sub(1) as u64;
                    continue;
                }
                let addrs = &mut addrs[g - 1][..active[g] as usize];
                match g {
                    1 => counters.inst_executed_global_loads += 1,
                    2 => counters.inst_executed_global_stores += 1,
                    _ => {
                        counters.inst_executed_atomics += 1;
                        // All simulated atomics target global memory
                        // (there is no shared-memory tier).
                        counters.inst_executed_global_atomics += 1;
                    }
                }
                // Coalesce into sectors.
                let sectors = &mut sectors[..addrs.len()];
                for (s, a) in sectors.iter_mut().zip(addrs.iter()) {
                    *s = a / SECTOR_BYTES;
                }
                sectors.sort_unstable();
                let distinct = dedup_sorted(sectors);
                let sectors = &sectors[..distinct];
                let txns = sectors.len() as u64;
                match g {
                    1 => counters.gld_transactions += txns,
                    2 => counters.gst_transactions += txns,
                    _ => counters.atom_transactions += txns,
                }
                // A warp memory instruction pays the latency of its
                // deepest-level transaction once (the sectors are
                // serviced in parallel — memory-level parallelism) plus
                // a port-throughput cost per extra sector, which is the
                // serialization uncoalesced access causes and
                // coalescing removes.
                let mut deepest = 0u64;
                for &sector in sectors {
                    let level = caches.access(sm, sector * SECTOR_BYTES);
                    counters.l1_accesses += 1;
                    match level {
                        CacheLevel::L1 => {
                            counters.l1_hits += 1;
                            deepest = deepest.max(config.l1_hit_cycles as u64);
                        }
                        CacheLevel::L2 => {
                            counters.l2_accesses += 1;
                            counters.l2_hits += 1;
                            deepest = deepest.max(config.l2_hit_cycles as u64);
                        }
                        CacheLevel::Dram => {
                            counters.l2_accesses += 1;
                            counters.dram_transactions += 1;
                            deepest = deepest.max(config.dram_cycles as u64);
                        }
                    }
                }
                cycles += deepest + txns.saturating_sub(1) * config.port_cycles as u64;
                if g == 3 {
                    // Same-address atomics serialize lane by lane.
                    addrs.sort_unstable();
                    let conflicts = (addrs.len() - dedup_sorted(addrs)) as u64;
                    counters.atomic_conflicts += conflicts;
                    cycles += conflicts * config.atomic_conflict_cycles as u64;
                }
            }
        }
        // Step past each lane's segment and its Conv delimiter.
        for i in 0..lanes {
            cur[i] = (seg_end[i] + 1).min(end[i]);
        }
    }
    WarpOutcome { cycles }
}

/// Move the distinct values of sorted `xs` to its front; returns how
/// many there are.
fn dedup_sorted(xs: &mut [u64]) -> usize {
    let mut n = 0;
    for i in 0..xs.len() {
        if n == 0 || xs[i] != xs[n - 1] {
            xs[n] = xs[i];
            n += 1;
        }
    }
    n
}

/// The per-lane-vector, four-pass replay kept as a test reference.
#[cfg(test)]
mod reference {
    use super::WarpOutcome;
    use crate::cache::{CacheHierarchy, CacheLevel};
    use crate::counters::Counters;
    use crate::device::DeviceConfig;
    use crate::trace::{Op, OpKind};
    use crate::{SECTOR_BYTES, WARP_SIZE};

    /// The four-pass replay [`super::replay_warp`] replaced, kept as the
    /// reference it is tested against: one `Vec<Op>` per lane, one pass
    /// over the lanes per [`OpKind`] at every step.
    ///
    /// Replay one warp's traces on SM `sm`, updating `counters` and the
    /// cache hierarchy, returning the warp's cycle cost. `register`
    /// counts the warp and its threads; pass `false` when replaying a
    /// continuation of an already-counted warp (the gang-collective
    /// flush epilogue).
    pub fn replay_warp(
        config: &DeviceConfig,
        caches: &mut CacheHierarchy,
        counters: &mut Counters,
        sm: usize,
        traces: &[Vec<Op>],
        register: bool,
    ) -> WarpOutcome {
        debug_assert!(traces.len() <= WARP_SIZE as usize);
        let mut cycles = 0u64;
        if register {
            counters.warps += 1;
            counters.threads += traces.iter().filter(|t| !t.is_empty()).count().max(1) as u64;
        }

        // Scratch reused across steps.
        let mut sectors: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        let mut addrs: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        // Per-lane cursor and current-segment end (exclusive, at the next
        // `Op::Conv` or the trace end).
        let mut cur = [0usize; WARP_SIZE as usize];
        let mut seg_end = [0usize; WARP_SIZE as usize];

        loop {
            // Delimit each lane's next segment; stop when all exhausted.
            let mut seg_max = 0usize;
            let mut alive = false;
            for (i, t) in traces.iter().enumerate() {
                alive |= cur[i] < t.len();
                let mut e = cur[i];
                while e < t.len() && t[e] != Op::Conv {
                    e += 1;
                }
                seg_end[i] = e;
                seg_max = seg_max.max(e - cur[i]);
            }
            if !alive {
                break;
            }
            for step in 0..seg_max {
                // Kinds present at this step, in fixed order for determinism.
                for kind in [OpKind::Alu, OpKind::Load, OpKind::Store, OpKind::Atomic] {
                    let mut active = 0u64;
                    let mut alu_max = 0u32;
                    addrs.clear();
                    for (i, t) in traces.iter().enumerate() {
                        let pos = cur[i] + step;
                        if pos >= seg_end[i] {
                            continue;
                        }
                        let op = &t[pos];
                        if op.kind() != kind {
                            continue;
                        }
                        active += 1;
                        match *op {
                            Op::Alu(n) => alu_max = alu_max.max(n),
                            Op::Load(a) | Op::LoadVolatile(a) | Op::Store(a) | Op::Atomic(a) => {
                                addrs.push(a);
                            }
                            Op::Conv => unreachable!("segment boundaries exclude Conv"),
                        }
                    }
                    if active == 0 {
                        continue;
                    }
                    counters.inst_executed += 1;
                    counters.active_lane_sum += active;
                    counters.lane_slot_sum += WARP_SIZE as u64;
                    cycles += 1; // issue

                    match kind {
                        OpKind::Conv => unreachable!("Conv never forms a group"),
                        OpKind::Alu => {
                            cycles += alu_max.saturating_sub(1) as u64;
                        }
                        OpKind::Load | OpKind::Store | OpKind::Atomic => {
                            match kind {
                                OpKind::Load => counters.inst_executed_global_loads += 1,
                                OpKind::Store => counters.inst_executed_global_stores += 1,
                                OpKind::Atomic => {
                                    counters.inst_executed_atomics += 1;
                                    // All simulated atomics target global
                                    // memory (there is no shared-memory tier).
                                    counters.inst_executed_global_atomics += 1;
                                }
                                OpKind::Alu | OpKind::Conv => unreachable!(),
                            }
                            // Coalesce into sectors.
                            sectors.clear();
                            sectors.extend(addrs.iter().map(|a| a / SECTOR_BYTES));
                            sectors.sort_unstable();
                            sectors.dedup();
                            let txns = sectors.len() as u64;
                            match kind {
                                OpKind::Load => counters.gld_transactions += txns,
                                OpKind::Store => counters.gst_transactions += txns,
                                OpKind::Atomic => counters.atom_transactions += txns,
                                OpKind::Alu | OpKind::Conv => unreachable!(),
                            }
                            // A warp memory instruction pays the latency of its
                            // deepest-level transaction once (the sectors are
                            // serviced in parallel — memory-level parallelism)
                            // plus a port-throughput cost per extra sector,
                            // which is the serialization uncoalesced access
                            // causes and coalescing removes.
                            let mut deepest = 0u64;
                            for &sector in &sectors {
                                let level = caches.access(sm, sector * SECTOR_BYTES);
                                counters.l1_accesses += 1;
                                match level {
                                    CacheLevel::L1 => {
                                        counters.l1_hits += 1;
                                        deepest = deepest.max(config.l1_hit_cycles as u64);
                                    }
                                    CacheLevel::L2 => {
                                        counters.l2_accesses += 1;
                                        counters.l2_hits += 1;
                                        deepest = deepest.max(config.l2_hit_cycles as u64);
                                    }
                                    CacheLevel::Dram => {
                                        counters.l2_accesses += 1;
                                        counters.dram_transactions += 1;
                                        deepest = deepest.max(config.dram_cycles as u64);
                                    }
                                }
                            }
                            cycles += deepest + txns.saturating_sub(1) * config.port_cycles as u64;
                            if kind == OpKind::Atomic {
                                // Same-address atomics serialize lane by lane.
                                addrs.sort_unstable();
                                let distinct = {
                                    let mut d = 1u64;
                                    for w in addrs.windows(2) {
                                        if w[0] != w[1] {
                                            d += 1;
                                        }
                                    }
                                    if addrs.is_empty() {
                                        0
                                    } else {
                                        d
                                    }
                                };
                                let conflicts = (addrs.len() as u64).saturating_sub(distinct);
                                counters.atomic_conflicts += conflicts;
                                cycles += conflicts * config.atomic_conflict_cycles as u64;
                            }
                        }
                    }
                }
            }
            // Step past each lane's segment and its Conv delimiter.
            for (i, t) in traces.iter().enumerate() {
                cur[i] = (seg_end[i] + 1).min(t.len());
            }
        }
        WarpOutcome { cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheHierarchy;
    use crate::trace::{Op, OpArena};
    use proptest::prelude::*;
    use proptest::strategy::Just;

    fn setup() -> (DeviceConfig, CacheHierarchy, Counters) {
        let cfg = DeviceConfig::test_tiny();
        let caches = CacheHierarchy::new(&cfg);
        (cfg, caches, Counters::default())
    }

    /// A warp's lanes laid out in an op arena, the way a launch
    /// records them.
    struct Warp {
        arena: OpArena,
        lanes: usize,
    }

    fn warp_of(ops_per_lane: Vec<Vec<Op>>) -> Warp {
        let mut arena = OpArena::default();
        arena.begin(ops_per_lane.len() as u64, false);
        for (lane, ops) in ops_per_lane.iter().enumerate() {
            let start = arena.cursor();
            for &op in ops {
                arena.push(start, op);
            }
            arena.close_lane(lane as u64, start);
        }
        Warp { arena, lanes: ops_per_lane.len() }
    }

    impl Warp {
        fn replay(
            &self,
            cfg: &DeviceConfig,
            caches: &mut CacheHierarchy,
            ctr: &mut Counters,
            register: bool,
        ) -> WarpOutcome {
            let spans = self.arena.lane_spans(0..self.lanes as u64);
            replay_warp(cfg, caches, ctr, 0, self.arena.ops(), spans, register)
        }
    }

    #[test]
    fn coalesced_load_is_few_transactions() {
        let (cfg, mut caches, mut ctr) = setup();
        // 32 lanes load consecutive words: 128 bytes = 4 sectors.
        let traces = warp_of((0..32).map(|i| vec![Op::Load(i * 4)]).collect());
        traces.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.inst_executed_global_loads, 1);
        assert_eq!(ctr.gld_transactions, 4);
        assert_eq!(ctr.warp_execution_efficiency(), 100.0);
    }

    #[test]
    fn scattered_load_is_many_transactions() {
        let (cfg, mut caches, mut ctr) = setup();
        // 32 lanes load words 1 KiB apart: 32 sectors.
        let traces = warp_of((0..32).map(|i| vec![Op::Load(i * 1024)]).collect());
        traces.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.inst_executed_global_loads, 1);
        assert_eq!(ctr.gld_transactions, 32);
    }

    #[test]
    fn divergent_kinds_serialize() {
        let (cfg, mut caches, mut ctr) = setup();
        // Half the warp loads, half stores at step 0 → 2 instructions.
        let traces = warp_of(
            (0..32u64)
                .map(|i| vec![if i % 2 == 0 { Op::Load(i * 4) } else { Op::Store(i * 4) }])
                .collect(),
        );
        traces.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.inst_executed, 2);
        assert_eq!(ctr.inst_executed_global_loads, 1);
        assert_eq!(ctr.inst_executed_global_stores, 1);
        assert!(ctr.warp_execution_efficiency() < 100.0);
    }

    #[test]
    fn unbalanced_lane_lengths_cost_max() {
        let (cfg, mut caches, mut ctr) = setup();
        // Lane 0 does 10 loads, others do 1: warp executes 10 load
        // instructions (the paper's load-imbalance pathology).
        let mut lanes: Vec<Vec<Op>> = vec![vec![Op::Load(0)]; 32];
        lanes[0] = (0..10).map(|i| Op::Load(i * 4096)).collect();
        let traces = warp_of(lanes);
        traces.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.inst_executed_global_loads, 10);
        assert!(ctr.warp_execution_efficiency() < 20.0);
    }

    #[test]
    fn atomic_conflicts_counted() {
        let (cfg, mut caches, mut ctr) = setup();
        // All 32 lanes atomically hit the same address.
        let traces = warp_of((0..32).map(|_| vec![Op::Atomic(64)]).collect());
        let out = traces.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.inst_executed_atomics, 1);
        assert_eq!(ctr.atomic_conflicts, 31);
        assert_eq!(ctr.atom_transactions, 1);
        assert!(out.cycles > 31);
    }

    #[test]
    fn distinct_atomics_do_not_conflict() {
        let (cfg, mut caches, mut ctr) = setup();
        let traces = warp_of((0..32).map(|i| vec![Op::Atomic(i * 256)]).collect());
        traces.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.atomic_conflicts, 0);
    }

    #[test]
    fn repeat_access_hits_l1() {
        let (cfg, mut caches, mut ctr) = setup();
        let t1 = warp_of(vec![vec![Op::Load(0)]]);
        t1.replay(&cfg, &mut caches, &mut ctr, true);
        let before = ctr.l1_hits;
        t1.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.l1_hits, before + 1);
        assert!(ctr.global_hit_rate() > 0.0);
    }

    #[test]
    fn alu_cost_is_lane_maximum() {
        let (cfg, mut caches, mut ctr) = setup();
        let traces = warp_of(vec![vec![Op::Alu(10)], vec![Op::Alu(2)]]);
        let out = traces.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(out.cycles, 10);
        assert_eq!(ctr.inst_executed, 1);
    }

    #[test]
    fn empty_warp() {
        let (cfg, mut caches, mut ctr) = setup();
        let out = warp_of(vec![]).replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(out.cycles, 0);
        assert_eq!(ctr.inst_executed, 0);
    }

    #[test]
    fn reconvergence_realigns_divergent_atomics() {
        // Lane 0 ran one more load than lane 1 before both reached the
        // same atomic. Without a convergence point the step counters
        // stay skewed and the two atomics replay as two instructions.
        let (cfg, mut caches, mut ctr) = setup();
        let divergent = warp_of(vec![
            vec![Op::Load(0), Op::Load(64), Op::Atomic(128)],
            vec![Op::Load(0), Op::Atomic(128)],
        ]);
        divergent.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.inst_executed_atomics, 2, "skewed steps must not merge");

        // A Conv (__syncwarp) before the atomic re-aligns the lanes:
        // the same program point now issues one warp instruction, and
        // the barrier itself retires nothing.
        let (_, mut caches, mut ctr) = setup();
        let converged = warp_of(vec![
            vec![Op::Load(0), Op::Load(64), Op::Conv, Op::Atomic(128)],
            vec![Op::Load(0), Op::Conv, Op::Atomic(128)],
        ]);
        converged.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!(ctr.inst_executed_atomics, 1, "converged atomics are one instruction");
        assert_eq!(ctr.inst_executed_global_loads, 2);
        assert_eq!(ctr.inst_executed, 3, "the Conv itself is free");
    }

    #[test]
    fn conv_counts_differ_across_lanes() {
        // Different loop trip counts leave the lanes with different
        // numbers of convergence points: replay must run out each
        // lane's segments without mixing a shorter lane's later ops
        // into an earlier segment.
        let (cfg, mut caches, mut ctr) = setup();
        let traces = warp_of(vec![
            vec![Op::Conv, Op::Atomic(0), Op::Conv, Op::Atomic(0), Op::Conv, Op::Atomic(0)],
            vec![Op::Conv, Op::Atomic(4)],
        ]);
        traces.replay(&cfg, &mut caches, &mut ctr, true);
        // Segment 1 merges both lanes' atomics; lane 0's remaining two
        // segments each issue one more.
        assert_eq!(ctr.inst_executed_atomics, 3);
    }

    #[test]
    fn unregistered_replay_skips_launch_accounting() {
        // The converged flush epilogue replays as a continuation of an
        // already-counted warp: instructions and cycles accrue, but the
        // launch's warp/thread occupancy must not double.
        let (cfg, mut caches, mut ctr) = setup();
        let traces = warp_of(vec![vec![Op::Atomic(0)], vec![Op::Atomic(4)]]);
        traces.replay(&cfg, &mut caches, &mut ctr, true);
        assert_eq!((ctr.warps, ctr.threads), (1, 2));
        traces.replay(&cfg, &mut caches, &mut ctr, false);
        assert_eq!((ctr.warps, ctr.threads), (1, 2), "epilogue must not re-register");
        assert_eq!(ctr.inst_executed_atomics, 2, "epilogue instructions still count");
    }

    /// One lane trace the way the old per-lane vector recorded it:
    /// consecutive ALU ops collapse.
    fn collapsed(ops: &[Op]) -> Vec<Op> {
        let mut t: Vec<Op> = Vec::new();
        for &op in ops {
            match (t.last_mut(), op) {
                (Some(Op::Alu(last)), Op::Alu(m)) => *last += m,
                _ => t.push(op),
            }
        }
        t
    }

    fn arb_addr() -> impl Strategy<Value = u64> {
        // A few shared sectors (same-address atomics, coalescing) and
        // a wide spread (misses, evictions).
        prop_oneof![(0u64..48).prop_map(|w| w * 4), (0u64..2048).prop_map(|w| w * 68)]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_addr().prop_map(Op::Load),
            arb_addr().prop_map(Op::LoadVolatile),
            arb_addr().prop_map(Op::Store),
            arb_addr().prop_map(Op::Atomic),
            (1u32..40).prop_map(Op::Alu),
            (1u32..3).prop_map(Op::Alu),
            Just(Op::Conv),
        ]
    }

    /// Up to three warps of 0–32 lanes, each registered or not.
    fn arb_warps() -> impl Strategy<Value = Vec<(Vec<Vec<Op>>, bool)>> {
        let lane = proptest::collection::vec(arb_op(), 0..12);
        let warp = (proptest::collection::vec(lane, 0..33), any::<bool>());
        proptest::collection::vec(warp, 1..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn single_pass_replay_matches_the_four_pass_reference(warps in arb_warps()) {
            let (cfg, mut caches, mut ctr) = setup();
            let (_, mut ref_caches, mut ref_ctr) = setup();
            let mut touched: Vec<u64> = Vec::new();
            for (w, (lanes, register)) in warps.iter().enumerate() {
                let sm = w % cfg.num_sms as usize;
                let warp = warp_of(lanes.clone());
                let spans = warp.arena.lane_spans(0..warp.lanes as u64);
                let out = replay_warp(&cfg, &mut caches, &mut ctr, sm, warp.arena.ops(), spans, *register);
                let traces: Vec<Vec<Op>> = lanes.iter().map(|ops| collapsed(ops)).collect();
                let expect = reference::replay_warp(&cfg, &mut ref_caches, &mut ref_ctr, sm, &traces, *register);
                prop_assert_eq!(out.cycles, expect.cycles);
                prop_assert_eq!(&ctr, &ref_ctr);
                touched.extend(lanes.iter().flatten().filter_map(Op::addr));
            }
            // Both replays must leave the caches in the same state: a
            // probe loading every touched address hits and misses alike.
            touched.sort_unstable();
            touched.dedup();
            for (w, chunk) in touched.chunks(WARP_SIZE as usize).enumerate() {
                let sm = w % cfg.num_sms as usize;
                let lanes: Vec<Vec<Op>> = chunk.iter().map(|&a| vec![Op::Load(a)]).collect();
                let probe = warp_of(lanes.clone());
                let spans = probe.arena.lane_spans(0..probe.lanes as u64);
                let out = replay_warp(&cfg, &mut caches, &mut ctr, sm, probe.arena.ops(), spans, true);
                let expect = reference::replay_warp(&cfg, &mut ref_caches, &mut ref_ctr, sm, &lanes, true);
                prop_assert_eq!(out.cycles, expect.cycles);
            }
            prop_assert_eq!(&ctr, &ref_ctr);
        }
    }
}
