//! Lane operation traces, packed into one op arena per device.
//!
//! While a thread's body runs, every simulated instruction appends an
//! [`Op`] to the device's [`OpArena`]: one flat vector of 8-byte
//! [`PackedOp`]s in which each lane owns a contiguous [`Span`]. Traces
//! live until their warp is replayed, which is not warp-local in
//! general: the gang-collective flush runs after every lane body of
//! the launch, and under schedule fuzzing a warp's lanes finish in any
//! order, so in those cases the arena holds the whole launch. In
//! ascending order with no flush requested so far, each warp replays
//! as soon as its last lane finishes and the arena drops its ops
//! ([`OpArena::retire`]), so it holds one warp. The arena is cleared
//! per launch and keeps its capacity: a steady stream of launches
//! allocates nothing, and a held lane costs 8 bytes per recorded op
//! plus 8 for its span. The flush appends each warp's epilogue to the
//! same arena.

/// One recorded lane operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Global memory load of a 4-byte word at a byte address.
    Load(u64),
    /// Volatile/L2-coherent load ([`crate::Lane::ld_volatile`]). Costs
    /// and coalesces exactly like [`Op::Load`] — the distinction exists
    /// so the sanitizer can tell a snapshot-semantics read from an
    /// intentionally racy live read.
    LoadVolatile(u64),
    /// Global memory store.
    Store(u64),
    /// Atomic read-modify-write (min/add/cas/exch all cost alike).
    Atomic(u64),
    /// `n` arithmetic/control instructions (collapsed).
    Alu(u32),
    /// Explicit warp reconvergence point (`__syncwarp`). Free at
    /// replay time — the hardware's convergence barrier retires no
    /// instruction the surrounding code did not already pay for — but
    /// it re-aligns the step counter across the warp's lanes: replay
    /// groups ops *within* a segment between two convergence points,
    /// so ops at the same post-sync program point coalesce into one
    /// warp instruction even when the lanes diverged earlier. The
    /// warp-synchronous multisplit kernels emit one per aggregation
    /// point; the scalar baseline kernels never do.
    Conv,
}

impl Op {
    /// Coarse kind used for divergence grouping during replay.
    #[inline]
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Load(_) | Op::LoadVolatile(_) => OpKind::Load,
            Op::Store(_) => OpKind::Store,
            Op::Atomic(_) => OpKind::Atomic,
            Op::Alu(_) => OpKind::Alu,
            Op::Conv => OpKind::Conv,
        }
    }

    /// Byte address for memory ops.
    #[inline]
    pub fn addr(&self) -> Option<u64> {
        match *self {
            Op::Load(a) | Op::LoadVolatile(a) | Op::Store(a) | Op::Atomic(a) => Some(a),
            Op::Alu(_) | Op::Conv => None,
        }
    }
}

/// Operation kind (divergence grouping key).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Global load (plain or volatile).
    Load,
    /// Global store.
    Store,
    /// Atomic read-modify-write.
    Atomic,
    /// Arithmetic/control instructions.
    Alu,
    /// Warp reconvergence point (replay segment boundary, zero cost).
    Conv,
}

/// The kind tag sits in the bits from here up; the payload (address or
/// ALU count) below.
const TAG_SHIFT: u32 = 61;
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// Largest byte address a [`PackedOp`] carries. Device addresses come
/// from a bump allocator far below it; a larger one is rejected, never
/// truncated into another buffer's range.
pub const MAX_ADDR: u64 = PAYLOAD_MASK;

// Kind tags. The first four are the replay groups, in the order replay
// issues them (see [`PackedOp::group`]).
const TAG_ALU: u64 = 0;
const TAG_LOAD: u64 = 1;
const TAG_STORE: u64 = 2;
const TAG_ATOMIC: u64 = 3;
const TAG_LOAD_VOLATILE: u64 = 4;
const TAG_CONV: u64 = 5;

/// Replay group of [`PackedOp::group`] for a reconvergence point.
pub const GROUP_CONV: usize = 4;

/// Replay group of each tag: Alu 0, Load 1 (plain and volatile),
/// Store 2, Atomic 3, Conv [`GROUP_CONV`].
const GROUP: [usize; 8] = [0, 1, 2, 3, 1, GROUP_CONV, GROUP_CONV, GROUP_CONV];

/// An [`Op`] packed into 8 bytes: a kind tag in the top 3 bits and the
/// address or ALU count below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedOp(u64);

impl PackedOp {
    /// Pack `op`; `None` when its address is past [`MAX_ADDR`].
    #[inline]
    pub fn pack(op: Op) -> Option<Self> {
        let (tag, payload) = match op {
            Op::Alu(n) => (TAG_ALU, u64::from(n)),
            Op::Load(a) => (TAG_LOAD, a),
            Op::LoadVolatile(a) => (TAG_LOAD_VOLATILE, a),
            Op::Store(a) => (TAG_STORE, a),
            Op::Atomic(a) => (TAG_ATOMIC, a),
            Op::Conv => (TAG_CONV, 0),
        };
        (payload <= PAYLOAD_MASK).then_some(Self(tag << TAG_SHIFT | payload))
    }

    /// The op this packs.
    pub fn unpack(self) -> Op {
        let p = self.payload();
        match self.0 >> TAG_SHIFT {
            TAG_ALU => Op::Alu(p as u32),
            TAG_LOAD => Op::Load(p),
            TAG_LOAD_VOLATILE => Op::LoadVolatile(p),
            TAG_STORE => Op::Store(p),
            TAG_ATOMIC => Op::Atomic(p),
            _ => Op::Conv,
        }
    }

    /// Replay group: 0 Alu, 1 Load, 2 Store, 3 Atomic, or
    /// [`GROUP_CONV`].
    #[inline]
    pub fn group(self) -> usize {
        GROUP[(self.0 >> TAG_SHIFT) as usize]
    }

    /// Address (memory ops) or instruction count (ALU ops).
    #[inline]
    pub fn payload(self) -> u64 {
        self.0 & PAYLOAD_MASK
    }
}

/// One lane's ops: `start..end` in the arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// First op.
    pub start: u32,
    /// One past the last op.
    pub end: u32,
}

impl Span {
    /// True when the lane recorded nothing.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// The lane traces of one launch not yet replayed (see the module
/// docs).
#[derive(Debug, Default)]
pub struct OpArena {
    ops: Vec<PackedOp>,
    /// Body spans of lanes `first_lane..`, lane `first_lane + i` at
    /// index `i`; flush epilogue spans follow them.
    spans: Vec<Span>,
    /// The lowest lane whose trace is still held.
    first_lane: u64,
    /// `(warp, first span)` of each warp's epilogue, ascending by warp.
    epilogues: Vec<(u64, usize)>,
}

impl OpArena {
    /// Start a launch of `lanes` lanes, dropping the previous launch's
    /// traces (the capacity stays). Lanes run in ascending order unless
    /// `permuted`, in which case every lane's span slot exists up front.
    pub fn begin(&mut self, lanes: u64, permuted: bool) {
        self.ops.clear();
        self.spans.clear();
        self.first_lane = 0;
        self.epilogues.clear();
        if permuted {
            self.spans.resize(lanes as usize, Span::default());
        }
    }

    /// Where the next op lands: the start of a lane's span.
    #[inline]
    pub fn cursor(&self) -> u32 {
        u32::try_from(self.ops.len()).expect("op arena exceeds 2^32 ops in one launch")
    }

    /// Append one op to the lane whose span starts at `start`. An
    /// ALU op following an ALU op of the same lane adds to it: graph
    /// kernels interleave long arithmetic runs with memory ops. The
    /// merge never reaches back past `start` into another lane's span.
    /// A memory address past [`MAX_ADDR`] faults.
    #[inline]
    pub fn push(&mut self, start: u32, op: Op) {
        if let Op::Alu(m) = op {
            if self.ops.len() > start as usize {
                let last = self.ops.last_mut().expect("non-empty span");
                if last.group() == 0 {
                    let sum = last.payload() as u32 + m;
                    *last = PackedOp(TAG_ALU << TAG_SHIFT | u64::from(sum));
                    return;
                }
            }
        }
        let packed = PackedOp::pack(op).unwrap_or_else(|| {
            panic!("op {op:?}: address out of bounds (ops carry addresses up to {MAX_ADDR:#x})")
        });
        self.ops.push(packed);
    }

    /// Close lane `lane`'s body span, begun at `start`.
    #[inline]
    pub fn close_lane(&mut self, lane: u64, start: u32) {
        let span = Span { start, end: self.cursor() };
        let i = (lane - self.first_lane) as usize;
        match self.spans.get_mut(i) {
            Some(slot) => *slot = span,
            None => {
                debug_assert_eq!(i, self.spans.len(), "ascending lanes close in order");
                self.spans.push(span);
            }
        }
    }

    /// Drop every trace held, once its lanes are replayed: the next
    /// lane to close is the first one held.
    pub fn retire(&mut self) {
        self.first_lane += self.spans.len() as u64;
        self.ops.clear();
        self.spans.clear();
    }

    /// Open warp `warp`'s flush epilogue; its lanes' spans follow with
    /// [`OpArena::close_epilogue_lane`], one per lane of the warp.
    pub fn begin_epilogue(&mut self, warp: u64) {
        self.epilogues.push((warp, self.spans.len()));
    }

    /// Close the next epilogue lane's span, begun at `start`.
    pub fn close_epilogue_lane(&mut self, start: u32) {
        self.spans.push(Span { start, end: self.cursor() });
    }

    /// Ops the arena can hold without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.ops.capacity()
    }

    /// The recorded ops.
    #[inline]
    pub fn ops(&self) -> &[PackedOp] {
        &self.ops
    }

    /// Body spans of lanes `lanes`, all still held.
    #[inline]
    pub fn lane_spans(&self, lanes: std::ops::Range<u64>) -> &[Span] {
        let start = (lanes.start - self.first_lane) as usize;
        &self.spans[start..start + (lanes.end - lanes.start) as usize]
    }

    /// The epilogue spans of warp `warp`, `width` lanes wide, if the
    /// flush gave it one.
    pub fn epilogue(&self, warp: u64, width: usize) -> Option<&[Span]> {
        let i = self.epilogues.binary_search_by_key(&warp, |&(w, _)| w).ok()?;
        let first = self.epilogues[i].1;
        Some(&self.spans[first..first + width])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_ops(arena: &OpArena, span: Span) -> Vec<Op> {
        arena.ops()[span.start as usize..span.end as usize].iter().map(|p| p.unpack()).collect()
    }

    #[test]
    fn alu_ops_collapse() {
        let mut a = OpArena::default();
        a.begin(1, false);
        let s = a.cursor();
        a.push(s, Op::Alu(2));
        a.push(s, Op::Alu(3));
        a.push(s, Op::Load(64));
        a.push(s, Op::Alu(1));
        a.close_lane(0, s);
        let span = a.lane_spans(0..1)[0];
        assert_eq!(lane_ops(&a, span), vec![Op::Alu(5), Op::Load(64), Op::Alu(1)]);
        // Retired lanes' ops are gone; the next lane's span is held.
        a.retire();
        let s = a.cursor();
        a.push(s, Op::Alu(4));
        a.close_lane(1, s);
        assert_eq!(lane_ops(&a, a.lane_spans(1..2)[0]), vec![Op::Alu(4)]);
    }

    #[test]
    fn kinds_and_addrs() {
        assert_eq!(Op::Load(8).kind(), OpKind::Load);
        assert_eq!(Op::LoadVolatile(8).kind(), OpKind::Load, "replay must group them together");
        assert_eq!(Op::LoadVolatile(12).addr(), Some(12));
        assert_eq!(Op::Store(8).addr(), Some(8));
        assert_eq!(Op::Alu(1).addr(), None);
        assert_eq!(Op::Atomic(4).kind(), OpKind::Atomic);
    }

    #[test]
    fn encoding_round_trips_at_its_limits() {
        let ops = [
            Op::Load(MAX_ADDR),
            Op::LoadVolatile(MAX_ADDR),
            Op::Store(MAX_ADDR),
            Op::Atomic(MAX_ADDR),
            Op::Load(0),
            Op::Alu(u32::MAX),
            Op::Alu(u32::MAX - 1),
            Op::Alu(1 << 31),
            Op::Conv,
        ];
        for op in ops {
            let packed = PackedOp::pack(op).expect("in range");
            assert_eq!(packed.unpack(), op);
            assert_eq!(packed.group() == GROUP_CONV, op == Op::Conv);
        }
        assert_eq!(PackedOp::pack(Op::LoadVolatile(8)).unwrap().group(), 1);
    }

    #[test]
    fn addresses_past_the_limit_are_rejected_not_truncated() {
        for op in [Op::Load(MAX_ADDR + 1), Op::Store(u64::MAX), Op::Atomic(1 << 62)] {
            assert_eq!(PackedOp::pack(op), None, "{op:?}");
        }
        let mut a = OpArena::default();
        a.begin(1, false);
        let err = std::panic::catch_unwind(move || a.push(0, Op::Atomic(MAX_ADDR + 1)))
            .expect_err("an unpackable address must fault");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("out of bounds"), "{msg}");
    }

    #[test]
    fn alu_never_merges_across_lanes() {
        // Lane k ends on an ALU op and lane k+1 starts with one: in a
        // shared arena they sit side by side, and a merge would move
        // lane k+1's instructions onto lane k, in any lane order.
        for order in [[0u64, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut a = OpArena::default();
            a.begin(3, order != [0, 1, 2]);
            for lane in order {
                let s = a.cursor();
                a.push(s, Op::Alu(lane as u32 + 1));
                a.push(s, Op::Alu(10));
                a.close_lane(lane, s);
            }
            for lane in 0..3 {
                let span = a.lane_spans(lane..lane + 1)[0];
                assert_eq!(lane_ops(&a, span), vec![Op::Alu(lane as u32 + 11)], "{order:?}");
            }
        }
    }
}
