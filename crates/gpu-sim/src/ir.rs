//! Retained access IR for schedule-universal static verification.
//!
//! The dynamic sanitizer ([`crate::san`]) checks the *observed*
//! interleaving and the schedule fuzzer checks N *sampled* lane
//! permutations; a race that no sampled schedule exercises ships
//! silently. This module retains a **bounded per-race-window access
//! summary** — per touched buffer word: which access classes hit it,
//! how often, and the first two *distinct threads* per class — and the
//! happens-before structure that orders windows (barriers, snapshot
//! kernel boundaries). Within a window every pair of lanes is treated
//! as concurrent, so any verdict computed over this IR quantifies over
//! **all** interleavings, not one.
//!
//! Memory stays O(touched words per window), not O(ops): the recorder
//! keeps two accessors per (word, class) — enough to witness every
//! pairwise hazard — plus lifetime contention tables folded at window
//! close. It never reads the lane traces: the timing model's op arena
//! ([`crate::trace::OpArena`]) holds at most one launch's traces and
//! drops them as their warps replay.
//!
//! The recorder is one of the two consumers of the access-event
//! stream ([`crate::access`]), which owns the wave state and decides
//! when a window closes. The IR is consumed by the `rdbs-statan`
//! crate, which runs the hazard matrix over it and emits typed
//! per-kernel certificates.

use std::collections::{BTreeMap, HashMap};

use crate::access::{AccessEvent, AccessKind, Accessor, WaveCtx};

/// Bounded summary of one access class on one word within a window:
/// a count plus the first two accessors from distinct threads. Two
/// witnesses suffice to decide every pairwise hazard, so retention is
/// O(1) per (word, class) no matter how many lanes pile on.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassSummary {
    /// Accesses of this class on this word in the current window.
    pub count: u64,
    /// First accessor observed.
    pub first: Option<Accessor>,
    /// First accessor observed on a *different thread* than `first`.
    pub second: Option<Accessor>,
}

impl ClassSummary {
    #[inline]
    fn note(&mut self, a: Accessor) {
        self.count += 1;
        match self.first {
            None => self.first = Some(a),
            Some(f) if self.second.is_none() && !f.same_thread(&a) => self.second = Some(a),
            _ => {}
        }
    }

    /// A pair of distinct-thread accessors within this class, if two
    /// different threads used it.
    #[inline]
    pub fn self_pair(&self) -> Option<(Accessor, Accessor)> {
        Some((self.first?, self.second?))
    }

    /// A pair of distinct-thread accessors, one from `self`, one from
    /// `other` (cross-class hazard witness).
    #[inline]
    pub fn cross_pair(&self, other: &ClassSummary) -> Option<(Accessor, Accessor)> {
        let (a, b) = (self.first?, other.first?);
        if !a.same_thread(&b) {
            return Some((a, b));
        }
        if let Some(b2) = other.second {
            return Some((a, b2));
        }
        let a2 = self.second?;
        Some((a2, b))
    }
}

/// Per-word access summary within one race window.
#[derive(Clone, Copy, Debug)]
pub struct WordSummary {
    /// Buffer label the word belongs to.
    pub buffer: &'static str,
    /// Word index within the buffer.
    pub index: u32,
    /// One summary per word-touching [`AccessKind`], indexed by
    /// discriminant.
    pub classes: [ClassSummary; 5],
}

/// Hazard classes the closure derives from a window. The first four
/// are red (unsanctioned); the last three are the memory-model idioms
/// the kernel discipline explicitly sanctions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HazardKind {
    /// Two plain stores to one word from distinct threads: the final
    /// value is schedule-chosen.
    WriteWrite,
    /// Plain store and atomic RMW on one word: the store is unordered
    /// against the atomic and can be lost or torn across it.
    MixedAtomic,
    /// Plain load of a word another thread writes in the same *live*
    /// window: plain loads have no coherence guarantee there.
    SnapshotRead,
    /// Plain store observed by a live volatile read: the consumer side
    /// is sanctioned but the publish side lacks atomic discipline, so
    /// the reader can observe a half-published state.
    UnsanctionedPublish,
    /// Only atomics touch the shared word (sanctioned idiom).
    AtomicShared,
    /// Volatile read of an atomically-published word (sanctioned idiom).
    VolatileRead,
    /// Reserved stores sharing a word with other reserved stores,
    /// atomics, or volatile readers: each slot is owned by exactly one
    /// lane via a gang-collective tail reservation, so the publish
    /// carries atomic-exchange discipline (sanctioned idiom).
    ReservedPublish,
}

impl HazardKind {
    /// Sanctioned idioms are reported for certificate provenance but
    /// do not make a kernel `Racy`.
    #[inline]
    pub fn sanctioned(&self) -> bool {
        matches!(
            self,
            HazardKind::AtomicShared | HazardKind::VolatileRead | HazardKind::ReservedPublish
        )
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            HazardKind::WriteWrite => "write-write",
            HazardKind::MixedAtomic => "mixed-atomic",
            HazardKind::SnapshotRead => "snapshot-read",
            HazardKind::UnsanctionedPublish => "unsanctioned-publish",
            HazardKind::AtomicShared => "atomic-shared",
            HazardKind::VolatileRead => "volatile-read",
            HazardKind::ReservedPublish => "reserved-publish",
        }
    }
}

/// One deduplicated hazard: a kind, the buffer it lives in, the kernel
/// pair it spans, a representative word and accessor pair, and how
/// many distinct words exhibited it.
#[derive(Clone, Debug)]
pub struct Hazard {
    /// Hazard class.
    pub kind: HazardKind,
    /// Buffer label.
    pub buffer: &'static str,
    /// Representative word index (first word that exhibited it).
    pub index: u32,
    /// Representative byte address.
    pub addr: u64,
    /// Representative accessor pair witnessing the hazard.
    pub accessors: [Accessor; 2],
    /// Whether the window was a snapshot (synchronous kernel) window.
    pub snapshot_window: bool,
    /// Number of distinct words that exhibited this (kind, buffer,
    /// kernel-pair) hazard across all windows.
    pub words: u64,
}

impl std::fmt::Display for Hazard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at {}[{}] (addr {:#x}) {} x {} lanes {}/{} waves {}/{} ({} word(s))",
            self.kind.name(),
            self.buffer,
            self.index,
            self.addr,
            self.accessors[0].kernel,
            self.accessors[1].kernel,
            self.accessors[0].lane,
            self.accessors[1].lane,
            self.accessors[0].wave,
            self.accessors[1].wave,
            self.words,
        )
    }
}

/// Static declaration of a device queue (tail cursor + overflow cell +
/// capacity), registered by queue constructors so the push-bound
/// certifier can recognize tail bumps and drops in the access stream.
#[derive(Clone, Copy, Debug)]
pub struct QueueDecl {
    /// Queue label (its data buffer's label).
    pub label: &'static str,
    /// Byte address of the tail cursor word.
    pub tail_addr: u64,
    /// Byte address of the overflow counter word.
    pub overflow_addr: u64,
    /// Slot capacity of the data buffer.
    pub capacity: u32,
    /// Whether the owner drains overshoot into another queue level
    /// instead of dropping (MLMQ spill path).
    pub spill: bool,
}

/// Observed push behaviour of one declared queue.
#[derive(Clone, Debug)]
pub struct QueueUsage {
    /// The declaration this usage was recorded against.
    pub decl: QueueDecl,
    /// Total device-side tail bumps (pushes) observed.
    pub pushes: u64,
    /// Highest tail value ever reached (device bumps mirrored against
    /// host drain resets).
    pub high_water: u64,
    /// Most pushes observed inside a single race window.
    pub max_window_pushes: u64,
    /// Device-side increments of the overflow counter (dropped pushes).
    pub drops: u64,
}

/// Per-kernel aggregates retained for gang lints and wave accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Waves this kernel name executed.
    pub waves: u64,
    /// Largest wave (in lanes).
    pub max_lanes: u64,
    /// Multi-lane gangs whose members were compared.
    pub gangs_checked: u64,
    /// Gangs whose members disagreed on the op-kind sequence.
    pub gangs_divergent: u64,
    /// Gangs whose members disagreed on child-launch counts.
    pub child_divergent: u64,
    /// Whether any wave of this kernel ran with snapshot semantics.
    pub snapshot: bool,
    /// Whether any wave of this kernel ran live (persistent session).
    pub live: bool,
}

/// Lifetime traffic + coalescing shape of one buffer label.
#[derive(Clone, Copy, Debug, Default)]
pub struct BufferTraffic {
    /// Plain + volatile loads.
    pub loads: u64,
    /// Plain stores.
    pub stores: u64,
    /// Atomic RMWs.
    pub atomics: u64,
    /// Adjacent-lane pairs that hit the *same* word (broadcast).
    pub same_word: u64,
    /// Adjacent-lane pairs at unit stride (perfectly coalesced).
    pub unit_stride: u64,
    /// Adjacent-lane pairs at small stride (2..=32 words).
    pub strided: u64,
    /// Adjacent-lane pairs with no spatial relation.
    pub scatter: u64,
}

/// The finished, retained access IR for one device. Everything a
/// static verifier needs; nothing proportional to instruction count.
#[derive(Clone, Debug, Default)]
pub struct AccessIr {
    /// Per-kernel wave/gang aggregates.
    pub kernels: BTreeMap<&'static str, KernelStats>,
    /// Deduplicated hazards across all closed windows.
    pub hazards: Vec<Hazard>,
    /// Push-bound observations for every declared queue, keyed by
    /// queue label then tail address (stable across runs).
    pub queues: Vec<QueueUsage>,
    /// Lifetime per-buffer traffic and coalescing shape.
    pub traffic: BTreeMap<&'static str, BufferTraffic>,
    /// Per-word atomic counts — the hotspot table for the multisplit
    /// scoping report. Keyed (buffer label, word index).
    pub atomic_sites: BTreeMap<(&'static str, u32), u64>,
    /// Race windows closed (barriers + snapshot kernels + final flush).
    pub windows: u64,
    /// Peak number of word summaries retained in any single window —
    /// the recorder's actual memory bound.
    pub peak_window_words: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct LaneSig {
    gang: u64,
    sig: u64,
}

#[derive(Clone, Debug)]
struct QueueTrack {
    decl: QueueDecl,
    epoch: u64,
    high_water: u64,
    pushes: u64,
    window_pushes: u64,
    max_window_pushes: u64,
    drops: u64,
}

/// Armed IR recorder: the access-event stream's retaining consumer
/// (see [`crate::Device::arm_ir`]).
#[derive(Default)]
pub struct IrState {
    window: HashMap<u64, WordSummary>,
    /// Dedup map: (kind, buffer, kernel-pair) → index into `hazards`.
    seen: HashMap<(HazardKind, &'static str, &'static str, &'static str), usize>,
    hazards: Vec<Hazard>,
    kernels: BTreeMap<&'static str, KernelStats>,
    /// Current wave's per-lane op-kind signature (FNV).
    wave_lanes: BTreeMap<u64, LaneSig>,
    queues: Vec<QueueTrack>,
    tail_index: HashMap<u64, usize>,
    overflow_index: HashMap<u64, usize>,
    traffic: BTreeMap<&'static str, BufferTraffic>,
    /// Per-buffer last (lane, index) for adjacent-lane stride pairing;
    /// cleared each wave.
    last_touch: HashMap<&'static str, (u64, u32)>,
    atomic_sites: BTreeMap<(&'static str, u32), u64>,
    windows: u64,
    peak_window_words: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl IrState {
    /// Register a device queue so tail/overflow traffic is certified
    /// against its capacity class. Re-declaring the same tail address
    /// replaces the declaration (pooled queues get re-assembled).
    pub fn declare_queue(&mut self, decl: QueueDecl) {
        if let Some(&i) = self.tail_index.get(&decl.tail_addr) {
            self.overflow_index.remove(&self.queues[i].decl.overflow_addr);
            self.queues[i].decl = decl;
            self.overflow_index.insert(decl.overflow_addr, i);
            return;
        }
        let i = self.queues.len();
        self.queues.push(QueueTrack {
            decl,
            epoch: 0,
            high_water: 0,
            pushes: 0,
            window_pushes: 0,
            max_window_pushes: 0,
            drops: 0,
        });
        self.tail_index.insert(decl.tail_addr, i);
        self.overflow_index.insert(decl.overflow_addr, i);
    }

    pub(crate) fn begin_wave(&mut self, ctx: &WaveCtx) {
        let st = self.kernels.entry(ctx.kernel).or_default();
        st.waves += 1;
        if ctx.snapshot {
            st.snapshot = true;
        } else {
            st.live = true;
        }
        self.wave_lanes.clear();
        self.last_touch.clear();
    }

    pub(crate) fn end_wave(&mut self, ctx: &WaveCtx) {
        self.check_gangs(ctx);
        let st = self.kernels.entry(ctx.kernel).or_default();
        st.max_lanes = st.max_lanes.max(self.wave_lanes.len() as u64);
    }

    fn note_lane(&mut self, lane: u64, gang: u64, kind_tag: u8) {
        let e = self.wave_lanes.entry(lane).or_insert(LaneSig { gang, sig: FNV_OFFSET });
        e.sig = (e.sig ^ kind_tag as u64).wrapping_mul(FNV_PRIME);
    }

    fn note_stride(&mut self, buffer: &'static str, lane: u64, index: u32) {
        if let Some(&(ll, li)) = self.last_touch.get(buffer) {
            if lane == ll + 1 {
                let t = self.traffic.entry(buffer).or_default();
                match (index as i64 - li as i64).unsigned_abs() {
                    0 => t.same_word += 1,
                    1 => t.unit_stride += 1,
                    2..=32 => t.strided += 1,
                    _ => t.scatter += 1,
                }
            }
        }
        self.last_touch.insert(buffer, (lane, index));
    }

    /// Record one event of the stream. A gang-aggregated queue bump
    /// covers `ev.covers` logical pushes (or drops): queue accounting
    /// stays per-element exact under aggregation, while the contention
    /// tables count the single instruction that ran. Reserved stores
    /// count as store traffic (they are one at the ISA level) but keep
    /// their own class, so the hazard matrix can sanction them like the
    /// atomic-exchange publish they replace.
    pub(crate) fn access(&mut self, who: Accessor, ev: &AccessEvent) {
        use AccessKind::*;
        let kind_tag = match ev.kind {
            PlainLoad | VolatileLoad => 1,
            Store => 2,
            Atomic => 3,
            ChildLaunch => 4,
            ReservedStore => 5,
        };
        self.note_lane(ev.lane, ev.gang, kind_tag);
        if ev.kind == ChildLaunch {
            return;
        }
        let w = self.window.entry(ev.addr).or_insert(WordSummary {
            buffer: ev.buffer,
            index: ev.index,
            classes: [ClassSummary::default(); 5],
        });
        w.classes[ev.kind as usize].note(who);
        self.peak_window_words = self.peak_window_words.max(self.window.len() as u64);
        let t = self.traffic.entry(ev.buffer).or_default();
        match ev.kind {
            PlainLoad | VolatileLoad => t.loads += 1,
            Atomic => {
                t.atomics += 1;
                *self.atomic_sites.entry((ev.buffer, ev.index)).or_default() += 1;
                if let Some(&i) = self.tail_index.get(&ev.addr) {
                    let q = &mut self.queues[i];
                    q.epoch += ev.covers;
                    q.pushes += ev.covers;
                    q.window_pushes += ev.covers;
                    q.high_water = q.high_water.max(q.epoch);
                } else if let Some(&i) = self.overflow_index.get(&ev.addr) {
                    self.queues[i].drops += ev.covers;
                }
            }
            _ => t.stores += 1,
        }
        self.note_stride(ev.buffer, ev.lane, ev.index);
    }

    /// Host-side word write (e.g. a drain resetting a queue tail):
    /// host writes happen between waves and re-anchor the mirrored
    /// tail epoch.
    pub(crate) fn host_write(&mut self, addr: u64, val: u32) {
        if let Some(&i) = self.tail_index.get(&addr) {
            self.queues[i].epoch = val as u64;
        }
    }

    /// Gang lints: members of one gang must agree on their op-kind
    /// sequence and on how many child kernels they launched.
    fn check_gangs(&mut self, ctx: &WaveCtx) {
        let children = |gang: u64, lane: u64| ctx.children.get(&(gang, lane)).copied().unwrap_or(0);
        let st = self.kernels.entry(ctx.kernel).or_default();
        // BTreeMap iteration is lane-ordered and gangs own consecutive
        // phys lanes, so one linear scan groups them.
        let mut lanes = self.wave_lanes.iter().peekable();
        while let Some((&lane0, first)) = lanes.next() {
            let kids = children(first.gang, lane0);
            let (mut members, mut sig_mismatch, mut child_mismatch) = (1, false, false);
            while let Some((&lane, sig)) = lanes.next_if(|(_, s)| s.gang == first.gang) {
                members += 1;
                sig_mismatch |= sig.sig != first.sig;
                child_mismatch |= children(sig.gang, lane) != kids;
            }
            if members >= 2 {
                st.gangs_checked += 1;
                st.gangs_divergent += u64::from(sig_mismatch);
                st.child_divergent += u64::from(child_mismatch);
            }
        }
    }

    fn record_hazard(
        &mut self,
        kind: HazardKind,
        w: &WordSummary,
        addr: u64,
        snapshot_window: bool,
        (a, b): (Accessor, Accessor),
    ) {
        // Symmetric kernel pair: order lexicographically for dedup.
        let (k1, k2) =
            if a.kernel <= b.kernel { (a.kernel, b.kernel) } else { (b.kernel, a.kernel) };
        match self.seen.get(&(kind, w.buffer, k1, k2)) {
            Some(&i) => self.hazards[i].words += 1,
            None => {
                self.seen.insert((kind, w.buffer, k1, k2), self.hazards.len());
                self.hazards.push(Hazard {
                    kind,
                    buffer: w.buffer,
                    index: w.index,
                    addr,
                    accessors: [a, b],
                    snapshot_window,
                    words: 1,
                });
            }
        }
    }

    /// Run the hazard matrix over the closing window and drop it.
    /// Every surviving fact is O(1)-sized; unshared words vanish here.
    pub(crate) fn close_window(&mut self, snapshot: bool) {
        if !self.window.is_empty() {
            self.windows += 1;
        }
        // Deterministic order: sort the touched addresses.
        let mut addrs: Vec<u64> = self.window.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            let w = self.window[&addr];
            let [pl, vl, st, at, rs] = w.classes;
            // Plain loads read the kernel-entry snapshot inside a
            // synchronous kernel, so they only race in live windows.
            let live = |pair: Option<(Accessor, Accessor)>| pair.filter(|_| !snapshot);
            use HazardKind::*;
            // Red hazards first, then sanctioned idioms; every
            // applicable kind is recorded (dedup bounds the volume).
            let found = [
                (WriteWrite, st.self_pair()),
                (MixedAtomic, st.cross_pair(&at)),
                // A plain store against a reserved store is still a
                // plain store against concurrent traffic: the reserved
                // side owns its slot, the plain side owns nothing.
                (WriteWrite, st.cross_pair(&rs)),
                (SnapshotRead, live(pl.cross_pair(&st))),
                (SnapshotRead, live(pl.cross_pair(&at))),
                (SnapshotRead, live(pl.cross_pair(&rs))),
                (UnsanctionedPublish, st.cross_pair(&vl)),
                (AtomicShared, at.self_pair()),
                (VolatileRead, vl.cross_pair(&at)),
                // Reserved publishes: slot ownership gives them atomic-
                // exchange discipline against each other, against
                // genuine atomics (a recycled slot raced by a scalar
                // exchange), and against live volatile readers (the
                // drain side).
                (ReservedPublish, rs.self_pair()),
                (ReservedPublish, rs.cross_pair(&at)),
                (ReservedPublish, vl.cross_pair(&rs)),
            ];
            for (kind, pair) in found {
                if let Some(pair) = pair {
                    self.record_hazard(kind, &w, addr, snapshot, pair);
                }
            }
        }
        self.window.clear();
        for q in &mut self.queues {
            q.max_window_pushes = q.max_window_pushes.max(q.window_pushes);
            q.window_pushes = 0;
        }
    }

    /// Close the trailing window and hand back the retained IR.
    pub(crate) fn finish(mut self, snapshot: bool) -> AccessIr {
        self.close_window(snapshot);
        let mut queues: Vec<QueueUsage> = self
            .queues
            .into_iter()
            .map(|q| QueueUsage {
                decl: q.decl,
                pushes: q.pushes,
                high_water: q.high_water,
                max_window_pushes: q.max_window_pushes,
                drops: q.drops,
            })
            .collect();
        queues.sort_by(|a, b| {
            (a.decl.label, a.decl.tail_addr).cmp(&(b.decl.label, b.decl.tail_addr))
        });
        AccessIr {
            kernels: self.kernels,
            hazards: self.hazards,
            queues,
            traffic: self.traffic,
            atomic_sites: self.atomic_sites,
            windows: self.windows,
            peak_window_words: self.peak_window_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind::*, AccessStream};

    fn recorder() -> AccessStream {
        AccessStream { ir: Some(IrState::default()), ..AccessStream::default() }
    }

    fn finish(s: AccessStream) -> AccessIr {
        s.ir.expect("armed").finish(s.ctx.snapshot)
    }

    fn acc(wave: u64, lane: u64) -> Accessor {
        Accessor { wave, lane, gang: lane, kernel: "k" }
    }

    #[test]
    fn class_summary_keeps_two_distinct_threads() {
        let mut c = ClassSummary::default();
        c.note(acc(1, 0));
        c.note(acc(1, 0)); // same thread — not a second witness
        assert!(c.self_pair().is_none());
        c.note(acc(1, 3));
        c.note(acc(1, 7)); // third thread — bounded retention ignores it
        let (a, b) = c.self_pair().expect("two distinct threads seen");
        assert_eq!((a.lane, b.lane), (0, 3));
        assert_eq!(c.count, 4);
    }

    #[test]
    fn cross_pair_skips_shared_thread() {
        let mut a = ClassSummary::default();
        let mut b = ClassSummary::default();
        a.note(acc(1, 5));
        b.note(acc(1, 5)); // same thread in both classes: no pair yet
        assert!(a.cross_pair(&b).is_none());
        b.note(acc(1, 6));
        let (x, y) = a.cross_pair(&b).expect("distinct pair via second");
        assert_eq!((x.lane, y.lane), (5, 6));
    }

    #[test]
    fn window_hazards_and_barrier_ordering() {
        let mut ir = recorder();
        ir.begin_wave("w", false, 0);
        ir.at(Store, 0x1000, 0, 0, "buf", 0, false);
        ir.at(Store, 0x1000, 1, 1, "buf", 0, false);
        ir.end_wave();
        ir.barrier();
        // Post-barrier store to the same word: ordered, no new hazard.
        ir.begin_wave("w", false, 0);
        ir.at(Store, 0x1000, 2, 2, "buf", 0, false);
        ir.end_wave();
        let out = finish(ir);
        let ww: Vec<_> = out.hazards.iter().filter(|h| h.kind == HazardKind::WriteWrite).collect();
        assert_eq!(ww.len(), 1, "{:?}", out.hazards);
        assert_eq!(ww[0].words, 1);
    }

    #[test]
    fn snapshot_window_sanctions_plain_loads() {
        let mut ir = recorder();
        ir.begin_wave("sync", true, 0);
        ir.at(PlainLoad, 0x1000, 0, 0, "dist", 0, false);
        ir.at(Atomic, 0x1000, 1, 1, "dist", 0, false);
        ir.end_wave();
        let out = finish(ir);
        assert!(
            out.hazards.iter().all(|h| h.kind != HazardKind::SnapshotRead),
            "{:?}",
            out.hazards
        );
        // The same shape in a live wave is a snapshot-read hazard.
        let mut ir = recorder();
        ir.begin_wave("live", false, 0);
        ir.at(PlainLoad, 0x1000, 0, 0, "dist", 0, false);
        ir.at(Atomic, 0x1000, 1, 1, "dist", 0, false);
        ir.end_wave();
        let out = finish(ir);
        assert!(out.hazards.iter().any(|h| h.kind == HazardKind::SnapshotRead));
    }

    #[test]
    fn queue_epochs_follow_device_and_host() {
        let mut ir = recorder();
        ir.ir.as_mut().expect("armed").declare_queue(QueueDecl {
            label: "q",
            tail_addr: 0x2000,
            overflow_addr: 0x3000,
            capacity: 4,
            spill: false,
        });
        ir.begin_wave("push", false, 0);
        for lane in 0..6 {
            ir.at(Atomic, 0x2000, lane, lane, "queue_tail", 0, false);
        }
        ir.end_wave();
        ir.host_write(0x2000, 0); // drain
        ir.begin_wave("push", false, 0);
        ir.at(Atomic, 0x2000, 0, 0, "queue_tail", 0, false);
        ir.at(Atomic, 0x3000, 1, 1, "queue_overflow", 0, false);
        ir.end_wave();
        let out = finish(ir);
        assert_eq!(out.queues.len(), 1);
        let q = &out.queues[0];
        assert_eq!(q.pushes, 7);
        assert_eq!(q.high_water, 6);
        assert_eq!(q.drops, 1);
        assert_eq!(q.max_window_pushes, 7, "no window boundary between the waves");
    }

    #[test]
    fn gang_signature_divergence_counted() {
        let mut ir = recorder();
        ir.begin_wave("gang", true, 0);
        // Gang 0 (lanes 0,1): same op sequence. Gang 1 (lanes 2,3):
        // lane 3 does an extra atomic.
        ir.at(PlainLoad, 0x10, 0, 0, "a", 0, false);
        ir.at(PlainLoad, 0x14, 1, 0, "a", 1, false);
        ir.at(PlainLoad, 0x18, 2, 1, "a", 2, false);
        ir.at(PlainLoad, 0x1c, 3, 1, "a", 3, false);
        ir.at(Atomic, 0x20, 3, 1, "acc", 0, false);
        ir.end_wave();
        let out = finish(ir);
        let st = out.kernels["gang"];
        assert_eq!(st.gangs_checked, 2);
        assert_eq!(st.gangs_divergent, 1);
    }
}
