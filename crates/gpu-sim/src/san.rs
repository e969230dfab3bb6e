//! Opt-in memory-model sanitizer: wave-level race detection, shadow
//! poison for uninitialized reads, and gang-divergence checks.
//!
//! The simulator executes lanes sequentially, so a kernel that races
//! on real hardware still produces one deterministic answer here —
//! correct by luck. The sanitizer closes that gap: it watches every
//! lane access while the kernel runs functionally and reports typed
//! [`SanViolation`]s wherever the program leaves the memory-model
//! discipline the kernels document:
//!
//! * plain loads ([`crate::Lane::ld`]) have snapshot semantics inside
//!   synchronous kernels and **no** guarantee at all inside live
//!   (wave/persistent-kernel) execution;
//! * volatile loads ([`crate::Lane::ld_volatile`]) may observe
//!   concurrent writes — the sanctioned racy-read idiom (the modelled
//!   accesses are aligned 32-bit words, which cannot tear);
//! * only atomics may write a location that another lane touches in
//!   the same race window.
//!
//! Race windows (one synchronous kernel, or the task waves between
//! two grid-wide barriers) are the access-event stream's
//! ([`crate::access`]); conflicts across the waves of one window are
//! real on hardware and are flagged here. The sanitizer is one of the
//! stream's two consumers, armed via [`crate::Device::arm_sanitizer`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use crate::access::{AccessEvent, AccessKind, Accessor, WaveCtx};

/// Which checks run. All on by default.
#[derive(Clone, Copy, Debug)]
pub struct SanConfig {
    /// Same-address conflict detection between lanes.
    pub races: bool,
    /// Poison-shadow uninitialized-read detection.
    pub uninit: bool,
    /// Gang child-launch agreement and intra-gang overlap checks.
    pub gangs: bool,
    /// Keep at most this many violations; further ones only count.
    pub max_violations: usize,
}

impl Default for SanConfig {
    fn default() -> Self {
        Self { races: true, uninit: true, gangs: true, max_violations: 10_000 }
    }
}

/// The typed violation classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SanCheck {
    /// Two different lanes plain-store the same word in one window.
    WriteWriteRace,
    /// A plain store and an atomic from different lanes hit the same
    /// word in one window — the plain side can be lost or torn.
    MixedAtomicRace,
    /// A plain load can observe (or miss) a same-window write by
    /// another lane under live-memory execution — the exact hazard
    /// `ld_volatile` exists for.
    SnapshotVisibility,
    /// A read of a word never written since alloc or pool recycle.
    UninitRead,
    /// Lanes of one gang launched differing child-kernel counts.
    GangChildDivergence,
    /// Two lanes of the *same* gang plain-stored the same word: the
    /// gang's rank-partitioned private region overlaps.
    GangOverlap,
}

impl SanCheck {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SanCheck::WriteWriteRace => "write-write-race",
            SanCheck::MixedAtomicRace => "mixed-atomic-race",
            SanCheck::SnapshotVisibility => "snapshot-visibility",
            SanCheck::UninitRead => "uninit-read",
            SanCheck::GangChildDivergence => "gang-child-divergence",
            SanCheck::GangOverlap => "gang-overlap",
        }
    }
}

/// One reported violation. Lane ids are global lane indexes within
/// their wave (`tid * gang_size + gang_rank`); for unary checks both
/// entries name the same lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SanViolation {
    /// The violated discipline rule.
    pub check: SanCheck,
    /// Kernel (site) whose lane performed the *second* access.
    pub kernel: &'static str,
    /// Label of the buffer containing the word.
    pub buffer: &'static str,
    /// Word index within the buffer.
    pub index: u32,
    /// Flat device byte address of the word.
    pub addr: u64,
    /// The two conflicting lanes: `[earlier, later]`.
    pub lanes: [u64; 2],
    /// Wave sequence numbers of the two accesses (equal when the
    /// conflict is within one wave).
    pub waves: [u64; 2],
    /// Command stream the violating (second) access ran on.
    pub stream: u32,
    /// Human-readable explanation of the specific conflict.
    pub detail: String,
}

impl fmt::Display for SanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}[{}] (addr {:#x}) lanes {}/{} waves {}/{} stream {}: {}",
            self.check.name(),
            self.kernel,
            self.buffer,
            self.index,
            self.addr,
            self.lanes[0],
            self.lanes[1],
            self.waves[0],
            self.waves[1],
            self.stream,
            self.detail
        )
    }
}

/// Per-address state within the current race window.
#[derive(Clone, Copy, Debug, Default)]
struct AccessRec {
    plain_store: Option<Accessor>,
    atomic: Option<Accessor>,
    /// First plain load under live-memory execution (snapshot-kernel
    /// plain loads are safe by construction and not recorded).
    plain_load: Option<Accessor>,
}

/// Lifetime access statistics for one word, accumulated across the
/// whole armed session (unlike the race-window map, never cleared at
/// window close).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WordStats {
    /// Plain + volatile loads of the word.
    pub loads: u64,
    /// Plain stores of the word.
    pub stores: u64,
    /// Atomic RMWs of the word.
    pub atomics: u64,
    /// First `(wave, lane)` to touch the word, for shared detection.
    first: Option<(u64, u64)>,
    shared: bool,
}

impl WordStats {
    /// Whether more than one logical thread (distinct `(wave, lane)`)
    /// touched the word.
    pub fn shared(&self) -> bool {
        self.shared
    }

    /// All accesses to the word.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.atomics
    }

    fn touch(&mut self, wave: u64, lane: u64) {
        match self.first {
            None => self.first = Some((wave, lane)),
            Some(f) if f != (wave, lane) => self.shared = true,
            Some(_) => {}
        }
    }
}

/// What the sanitizer learned about a run's memory behaviour: per-word
/// access counts and sharing, plus per-kernel wave windows. This is
/// the evidence the adversarial placement search scouts for — the
/// hottest contended words are where a mistimed fault is most likely
/// to slip past detection. Keyed by `(buffer label, word index)` in a
/// `BTreeMap` so iteration (and everything derived from it) is
/// deterministic.
#[derive(Clone, Debug, Default)]
pub struct AccessProfile {
    words: BTreeMap<(&'static str, u32), WordStats>,
    /// Per-kernel `(first wave, last wave)` windows, in wave numbers.
    kernels: BTreeMap<&'static str, (u64, u64)>,
    waves: u64,
}

impl AccessProfile {
    fn begin_wave(&mut self, kernel: &'static str, wave: u64) {
        self.waves = self.waves.max(wave);
        self.kernels.entry(kernel).and_modify(|(_, last)| *last = wave).or_insert((wave, wave));
    }

    fn stats(&mut self, buffer: &'static str, index: u32, wave: u64, lane: u64) -> &mut WordStats {
        let s = self.words.entry((buffer, index)).or_default();
        s.touch(wave, lane);
        s
    }

    /// Total waves observed.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Distinct words touched.
    pub fn words_touched(&self) -> usize {
        self.words.len()
    }

    /// The `(first wave, last wave)` window of a kernel, if it ran.
    pub fn kernel_window(&self, kernel: &str) -> Option<(u64, u64)> {
        self.kernels.get(kernel).copied()
    }

    /// Every kernel's wave window, in kernel-name order.
    pub fn kernel_windows(&self) -> Vec<(&'static str, u64, u64)> {
        self.kernels.iter().map(|(&k, &(a, b))| (k, a, b)).collect()
    }

    /// Stats for one word, if touched.
    pub fn word(&self, buffer: &'static str, index: u32) -> Option<WordStats> {
        self.words.get(&(buffer, index)).copied()
    }

    /// The top `k` *contended* words — touched by multiple logical
    /// threads with at least one atomic — ranked by atomic count, then
    /// total traffic (ties broken by key, so the ranking is
    /// deterministic). These are the shared-queue / distance hot words
    /// where the paper's async hot path concentrates.
    pub fn hottest_contended(&self, k: usize) -> Vec<(&'static str, u32, WordStats)> {
        let mut rows: Vec<(&'static str, u32, WordStats)> = self
            .words
            .iter()
            .filter(|(_, s)| s.shared && s.atomics > 0)
            .map(|(&(b, i), &s)| (b, i, s))
            .collect();
        rows.sort_by(|a, b| {
            (b.2.atomics, b.2.total())
                .cmp(&(a.2.atomics, a.2.total()))
                .then(a.0.cmp(b.0))
                .then(a.1.cmp(&b.1))
        });
        rows.truncate(k);
        rows
    }

    /// Words that mix atomic and plain traffic — the atomic-vs-plain
    /// overlap sites where dropped or duplicated atomics interact with
    /// snapshot visibility. Ranked like
    /// [`AccessProfile::hottest_contended`].
    pub fn overlap_sites(&self, k: usize) -> Vec<(&'static str, u32, WordStats)> {
        let mut rows: Vec<(&'static str, u32, WordStats)> = self
            .words
            .iter()
            .filter(|(_, s)| s.atomics > 0 && s.loads + s.stores > 0)
            .map(|(&(b, i), &s)| (b, i, s))
            .collect();
        rows.sort_by(|a, b| {
            (b.2.atomics, b.2.total())
                .cmp(&(a.2.atomics, a.2.total()))
                .then(a.0.cmp(b.0))
                .then(a.1.cmp(&b.1))
        });
        rows.truncate(k);
        rows
    }

    /// The top `k` most-*loaded* buffers, load counts summed across
    /// all their words — the read-hot data (e.g. CSR topology arrays)
    /// whose corruption hits every consumer downstream. Per-word
    /// rankings drown wide read-mostly arrays behind a few hot
    /// contended words; aggregating by buffer surfaces them.
    pub fn hottest_buffers(&self, k: usize) -> Vec<(&'static str, u64)> {
        let mut by_buf: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (&(b, _), s) in &self.words {
            if s.loads > 0 {
                *by_buf.entry(b).or_insert(0) += s.loads;
            }
        }
        let mut rows: Vec<(&'static str, u64)> = by_buf.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(k);
        rows
    }

    /// The top `k` most-*loaded* words regardless of sharing — the
    /// read-hot data (e.g. CSR topology arrays) whose corruption hits
    /// every consumer downstream. Ranked by load count, then total
    /// traffic, ties broken by key.
    pub fn hottest_loaded(&self, k: usize) -> Vec<(&'static str, u32, WordStats)> {
        let mut rows: Vec<(&'static str, u32, WordStats)> =
            self.words.iter().filter(|(_, s)| s.loads > 0).map(|(&(b, i), &s)| (b, i, s)).collect();
        rows.sort_by(|a, b| {
            (b.2.loads, b.2.total())
                .cmp(&(a.2.loads, a.2.total()))
                .then(a.0.cmp(b.0))
                .then(a.1.cmp(&b.1))
        });
        rows.truncate(k);
        rows
    }
}

/// Armed sanitizer state: the stream's race-judging consumer.
pub struct SanState {
    config: SanConfig,
    violations: Vec<SanViolation>,
    total: u64,
    seen: HashSet<(SanCheck, &'static str, u64)>,
    window: HashMap<u64, AccessRec>,
    /// Lifetime access profile (never window-cleared).
    profile: AccessProfile,
}

impl SanState {
    /// Fresh sanitizer state for a configuration.
    pub fn new(config: SanConfig) -> Self {
        Self {
            config,
            violations: Vec::new(),
            total: 0,
            seen: HashSet::new(),
            window: HashMap::new(),
            profile: AccessProfile::default(),
        }
    }

    /// The configuration this state was armed with.
    pub fn config(&self) -> &SanConfig {
        &self.config
    }

    /// Violations recorded so far (capped at `max_violations`).
    pub fn violations(&self) -> &[SanViolation] {
        &self.violations
    }

    /// Total violations including any beyond the cap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The lifetime access profile accumulated while armed.
    pub fn profile(&self) -> &AccessProfile {
        &self.profile
    }

    /// Report `check` at the word `at` names, with `second` the access
    /// that completed the conflict.
    fn record(
        &mut self,
        ctx: &WaveCtx,
        check: SanCheck,
        at: &AccessEvent,
        first: &Accessor,
        second: &Accessor,
        detail: String,
    ) {
        // One report per (check, site, address): kernels revisit the
        // same conflict every wave and would otherwise flood the log.
        if !self.seen.insert((check, second.kernel, at.addr)) {
            return;
        }
        self.total += 1;
        if self.violations.len() < self.config.max_violations {
            self.violations.push(SanViolation {
                check,
                kernel: second.kernel,
                buffer: at.buffer,
                index: at.index,
                addr: at.addr,
                lanes: [first.lane, second.lane],
                waves: [first.wave, second.wave],
                stream: ctx.stream,
                detail,
            });
        }
    }

    pub(crate) fn begin_wave(&mut self, ctx: &WaveCtx) {
        self.profile.begin_wave(ctx.kernel, ctx.wave);
    }

    /// Gang agreement on child launches.
    pub(crate) fn end_wave(&mut self, ctx: &WaveCtx) {
        if self.config.gangs {
            self.check_gang_launches(ctx);
        }
    }

    pub(crate) fn close_window(&mut self) {
        self.window.clear();
    }

    fn check_gang_launches(&mut self, ctx: &WaveCtx) {
        let mut per_gang: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
        for (&(gang, lane), &count) in &ctx.children {
            match per_gang.last_mut() {
                Some((g, lanes)) if *g == gang => lanes.push((lane, count)),
                _ => per_gang.push((gang, vec![(lane, count)])),
            }
        }
        for (gang, lanes) in per_gang {
            // A single launching lane (gang-leader pattern) and
            // uniform counts across launching lanes are both fine;
            // differing nonzero counts mean the gang diverged on the
            // launch decision.
            if lanes.len() < 2 {
                continue;
            }
            let (first_lane, first_count) = lanes[0];
            if let Some(&(lane, count)) = lanes.iter().find(|&&(_, c)| c != first_count) {
                let at = AccessEvent {
                    buffer: "(child launches)",
                    addr: gang,
                    ..AccessEvent::child_launch(lane, gang)
                };
                self.record(
                    ctx,
                    SanCheck::GangChildDivergence,
                    &at,
                    &ctx.accessor(first_lane, gang),
                    &ctx.accessor(lane, gang),
                    format!(
                        "gang {gang}: lane {first_lane} launched {first_count} child kernel(s), \
                         lane {lane} launched {count}"
                    ),
                );
            }
        }
    }

    /// Judge one event of the stream.
    pub(crate) fn access(&mut self, ctx: &WaveCtx, who: Accessor, ev: &AccessEvent) {
        use AccessKind::*;
        let how = match ev.kind {
            ChildLaunch => return, // tallied by the stream, judged at wave end
            PlainLoad => "plain load",
            VolatileLoad => "volatile load",
            Atomic => "atomic read-modify-write",
            Store | ReservedStore => "store",
        };
        let stats = self.profile.stats(ev.buffer, ev.index, who.wave, who.lane);
        match ev.kind {
            PlainLoad | VolatileLoad => stats.loads += 1,
            Atomic => stats.atomics += 1,
            _ => stats.stores += 1,
        }
        if self.config.uninit && ev.poisoned {
            self.record(
                ctx,
                SanCheck::UninitRead,
                ev,
                &who,
                &who,
                format!("{how} of a word never written since alloc/recycle"),
            );
        }
        if !self.config.races {
            return;
        }
        match ev.kind {
            // In a synchronous kernel a plain load reads the kernel-
            // entry snapshot: deterministic regardless of what other
            // lanes write, so it participates in no race.
            PlainLoad if !ctx.snapshot => self.plain_load(ctx, who, ev),
            Store => self.store(ctx, who, ev),
            Atomic | ReservedStore => self.atomic(ctx, who, ev),
            // Volatile loads are sanctioned to race with writes
            // (aligned words cannot tear).
            PlainLoad | VolatileLoad | ChildLaunch => {}
        }
    }

    /// A plain load under live-memory execution.
    fn plain_load(&mut self, ctx: &WaveCtx, who: Accessor, ev: &AccessEvent) {
        let rec = self.window.entry(ev.addr).or_default();
        let conflict = rec
            .plain_store
            .filter(|w| !w.same_thread(&who))
            .or_else(|| rec.atomic.filter(|w| !w.same_thread(&who)));
        if rec.plain_load.is_none() {
            rec.plain_load = Some(who);
        }
        if let Some(writer) = conflict {
            self.record(
                ctx,
                SanCheck::SnapshotVisibility,
                ev,
                &writer,
                &who,
                format!(
                    "plain load may or may not observe lane {}'s same-window write \
                     (use ld_volatile or order with a barrier)",
                    writer.lane
                ),
            );
        }
    }

    fn store(&mut self, ctx: &WaveCtx, who: Accessor, ev: &AccessEvent) {
        let rec = self.window.entry(ev.addr).or_default();
        let prior_store = rec.plain_store.filter(|w| !w.same_thread(&who));
        let prior_atomic = rec.atomic.filter(|w| !w.same_thread(&who));
        let prior_load = rec.plain_load.filter(|w| !w.same_thread(&who));
        if rec.plain_store.is_none() {
            rec.plain_store = Some(who);
        }
        if let Some(other) = prior_store {
            let same_gang = self.config.gangs
                && other.wave == who.wave
                && other.gang == who.gang
                && other.kernel == who.kernel;
            let (check, detail) = if same_gang {
                (
                    SanCheck::GangOverlap,
                    format!(
                        "lanes {} and {} of gang {} both plain-stored this word — \
                         rank-partitioned regions overlap",
                        other.lane, who.lane, who.gang
                    ),
                )
            } else {
                (
                    SanCheck::WriteWriteRace,
                    format!(
                        "plain stores from lanes {} and {} — last writer is \
                         schedule-dependent on hardware",
                        other.lane, who.lane
                    ),
                )
            };
            self.record(ctx, check, ev, &other, &who, detail);
        } else if let Some(other) = prior_atomic {
            self.record(
                ctx,
                SanCheck::MixedAtomicRace,
                ev,
                &other,
                &who,
                format!(
                    "plain store by lane {} races lane {}'s atomic on the same word",
                    who.lane, other.lane
                ),
            );
        } else if let Some(other) = prior_load {
            self.record(
                ctx,
                SanCheck::SnapshotVisibility,
                ev,
                &other,
                &who,
                format!(
                    "lane {}'s earlier plain load may or may not observe this store \
                     (use ld_volatile or order with a barrier)",
                    other.lane
                ),
            );
        }
    }

    /// An atomic, or a reserved store — a plain store into a slot this
    /// lane owns via a gang-collective tail reservation
    /// ([`crate::Lane::gang_push`]). The reservation hands each lane a
    /// distinct slot, so the store carries the same publish discipline
    /// as the `atomicExch` it replaces: both register in the atomic
    /// slot of the access record (clean against each other, red against
    /// plain stores and live plain loads).
    fn atomic(&mut self, ctx: &WaveCtx, who: Accessor, ev: &AccessEvent) {
        let rec = self.window.entry(ev.addr).or_default();
        let prior_store = rec.plain_store.filter(|w| !w.same_thread(&who));
        let prior_load = rec.plain_load.filter(|w| !w.same_thread(&who));
        if rec.atomic.is_none() {
            rec.atomic = Some(who);
        }
        let (what, result) = if ev.kind == AccessKind::ReservedStore {
            ("reserved store", "reserved store")
        } else {
            ("atomic", "atomic's result")
        };
        if let Some(other) = prior_store {
            self.record(
                ctx,
                SanCheck::MixedAtomicRace,
                ev,
                &other,
                &who,
                format!(
                    "{what} by lane {} races lane {}'s plain store on the same word",
                    who.lane, other.lane
                ),
            );
        } else if let Some(other) = prior_load {
            self.record(
                ctx,
                SanCheck::SnapshotVisibility,
                ev,
                &other,
                &who,
                format!(
                    "lane {}'s earlier plain load may or may not observe this {result} \
                     (use ld_volatile or order with a barrier)",
                    other.lane
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind::*, AccessStream};

    fn armed(config: SanConfig) -> AccessStream {
        AccessStream { san: Some(SanState::new(config)), ..AccessStream::default() }
    }

    fn state() -> AccessStream {
        armed(SanConfig::default())
    }

    fn san(s: &AccessStream) -> &SanState {
        s.san.as_ref().expect("armed")
    }

    #[test]
    fn write_write_race_between_lanes() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.at(Store, 64, 0, 0, "buf", 0, false);
        s.at(Store, 64, 5, 5, "buf", 0, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 1);
        let v = &san(&s).violations()[0];
        assert_eq!(v.check, SanCheck::WriteWriteRace);
        assert_eq!(v.lanes, [0, 5]);
        assert_eq!(v.buffer, "buf");
    }

    #[test]
    fn same_lane_never_conflicts_with_itself() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.at(Store, 64, 3, 3, "buf", 0, false);
        s.at(Store, 64, 3, 3, "buf", 0, false);
        s.at(PlainLoad, 64, 3, 3, "buf", 0, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 0);
    }

    #[test]
    fn atomics_on_both_sides_are_clean() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.at(Atomic, 64, 0, 0, "buf", 0, false);
        s.at(Atomic, 64, 1, 1, "buf", 0, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 0);
    }

    #[test]
    fn volatile_load_may_race_with_atomic() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.at(Atomic, 64, 0, 0, "buf", 0, false);
        s.at(VolatileLoad, 64, 1, 1, "buf", 0, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 0);
    }

    #[test]
    fn plain_load_vs_atomic_is_snapshot_visibility_in_live_window() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.at(PlainLoad, 64, 1, 1, "buf", 0, false);
        s.at(Atomic, 64, 0, 0, "buf", 0, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 1);
        assert_eq!(san(&s).violations()[0].check, SanCheck::SnapshotVisibility);
    }

    #[test]
    fn plain_load_in_snapshot_kernel_is_safe() {
        let mut s = state();
        s.begin_wave("k", true, 0);
        s.at(PlainLoad, 64, 1, 1, "buf", 0, false);
        s.at(Atomic, 64, 0, 0, "buf", 0, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 0);
    }

    #[test]
    fn window_spans_waves_until_barrier() {
        let mut s = state();
        s.begin_wave("w1", false, 0);
        s.at(Store, 64, 0, 0, "buf", 0, false);
        s.end_wave();
        s.begin_wave("w2", false, 0);
        // Same lane index, later wave: a different logical thread.
        s.at(Store, 64, 0, 0, "buf", 0, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 1);
        assert_eq!(san(&s).violations()[0].waves, [1, 2]);

        let mut s = state();
        s.begin_wave("w1", false, 0);
        s.at(Store, 64, 0, 0, "buf", 0, false);
        s.end_wave();
        s.barrier();
        s.begin_wave("w2", false, 0);
        s.at(Store, 64, 0, 0, "buf", 0, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 0, "barrier closes the window");
    }

    #[test]
    fn uninit_read_reported_once_per_site() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.at(PlainLoad, 64, 0, 0, "scratch", 3, true);
        s.at(PlainLoad, 64, 1, 1, "scratch", 3, true);
        s.end_wave();
        assert_eq!(san(&s).total(), 1);
        assert_eq!(san(&s).violations()[0].check, SanCheck::UninitRead);
        assert_eq!(san(&s).violations()[0].index, 3);
    }

    #[test]
    fn gang_divergent_child_launches_flagged() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.access(AccessEvent::child_launch(0, 7)); // gang 7, lane 0: one launch
        s.access(AccessEvent::child_launch(1, 7)); // gang 7, lane 1: two launches
        s.access(AccessEvent::child_launch(1, 7));
        s.access(AccessEvent::child_launch(8, 9)); // gang 9: single leader — fine
        s.end_wave();
        assert_eq!(san(&s).total(), 1);
        assert_eq!(san(&s).violations()[0].check, SanCheck::GangChildDivergence);
    }

    #[test]
    fn gang_overlap_classified() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.at(Store, 64, 4, 2, "out", 0, false); // gang 2, lane 4
        s.at(Store, 64, 5, 2, "out", 0, false); // gang 2, lane 5 — same gang
        s.end_wave();
        assert_eq!(san(&s).violations()[0].check, SanCheck::GangOverlap);
    }

    #[test]
    fn disabled_checks_stay_silent() {
        let mut s =
            armed(SanConfig { races: false, uninit: false, gangs: false, max_violations: 10 });
        s.begin_wave("k", false, 0);
        s.at(Store, 64, 0, 0, "buf", 0, false);
        s.at(Store, 64, 1, 1, "buf", 0, false);
        s.at(PlainLoad, 64, 2, 2, "buf", 0, true);
        s.end_wave();
        assert_eq!(san(&s).total(), 0);
    }

    #[test]
    fn cap_counts_but_stops_storing() {
        let mut s = armed(SanConfig { max_violations: 1, ..SanConfig::default() });
        s.begin_wave("k", false, 0);
        s.at(Store, 64, 0, 0, "buf", 0, false);
        s.at(Store, 64, 1, 1, "buf", 0, false);
        s.at(Store, 128, 0, 0, "buf", 1, false);
        s.at(Store, 128, 1, 1, "buf", 1, false);
        s.end_wave();
        assert_eq!(san(&s).total(), 2);
        assert_eq!(san(&s).violations().len(), 1);
    }

    #[test]
    fn profile_accumulates_across_windows() {
        let mut s = state();
        s.begin_wave("relax", false, 0);
        s.at(Atomic, 64, 0, 0, "dist", 0, false);
        s.at(Atomic, 64, 1, 1, "dist", 0, false);
        s.at(PlainLoad, 68, 0, 0, "dist", 1, false);
        s.end_wave();
        s.barrier(); // closes the race window, NOT the profile
        s.begin_wave("relax", false, 0);
        s.at(Atomic, 64, 2, 2, "dist", 0, false);
        s.at(Store, 128, 0, 0, "pending", 0, false);
        s.end_wave();
        let p = san(&s).profile();
        assert_eq!(p.waves(), 2);
        assert_eq!(p.kernel_window("relax"), Some((1, 2)));
        let hot = p.word("dist", 0).unwrap();
        assert_eq!(hot.atomics, 3);
        assert!(hot.shared());
        let solo = p.word("pending", 0).unwrap();
        assert_eq!(solo.stores, 1);
        assert!(!solo.shared(), "one logical thread only");
    }

    #[test]
    fn profile_ranks_contended_and_overlap_sites() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        // dist[0]: 3 atomics from distinct lanes (hot + contended).
        for lane in 0..3 {
            s.at(Atomic, 64, lane, lane, "dist", 0, false);
        }
        // dist[1]: 1 atomic + 1 plain load (overlap, less hot).
        s.at(Atomic, 68, 0, 0, "dist", 1, false);
        s.at(PlainLoad, 68, 1, 1, "dist", 1, false);
        // pending[0]: plain traffic only — in neither ranking.
        s.at(Store, 128, 0, 0, "pending", 0, false);
        s.end_wave();
        let p = san(&s).profile();
        let contended = p.hottest_contended(10);
        assert_eq!(contended[0].0, "dist");
        assert_eq!(contended[0].1, 0);
        assert!(contended.iter().all(|&(b, i, _)| !(b == "pending" && i == 0)));
        let overlap = p.overlap_sites(10);
        assert!(overlap.iter().any(|&(b, i, _)| b == "dist" && i == 1));
        assert!(overlap.iter().all(|&(b, _, _)| b != "pending"));
    }

    #[test]
    fn profile_ranking_is_deterministic() {
        let build = || {
            let mut s = state();
            s.begin_wave("k", false, 0);
            for w in 0..8u32 {
                s.at(Atomic, 64 + u64::from(w) * 4, 0, 0, "dist", w, false);
                s.at(Atomic, 64 + u64::from(w) * 4, 1, 1, "dist", w, false);
            }
            s.end_wave();
            san(&s).profile().hottest_contended(8)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn display_carries_site_lane_and_address() {
        let mut s = state();
        s.begin_wave("kern", false, 0);
        s.at(Store, 0x2040, 3, 3, "dist", 16, false);
        s.at(Store, 0x2040, 9, 9, "dist", 16, false);
        s.end_wave();
        let msg = san(&s).violations()[0].to_string();
        assert!(msg.contains("kern") && msg.contains("dist[16]"), "{msg}");
        assert!(msg.contains("0x2040") && msg.contains("3/9"), "{msg}");
    }
}
