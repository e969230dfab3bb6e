//! Static kernel verifier over the retained access IR.
//!
//! [`verify`] consumes the [`AccessIr`] a device records while armed
//! (see `rdbs_gpu_sim::Device::arm_ir`) and emits typed certificates:
//!
//! * a per-kernel [`Verdict`] — [`Verdict::RaceFree`],
//!   [`Verdict::SanctionedRacy`] (every shared access follows a
//!   sanctioned idiom, cited), or [`Verdict::Racy`] (red, with the
//!   witnessing hazards attached);
//! * a per-queue [`QueueClass`] push-bound certificate
//!   ([`QueueClass::Bounded`] / [`QueueClass::Spilling`] /
//!   [`QueueClass::Overflowing`]);
//! * an advisory gang-divergence lint folded into each kernel
//!   certificate;
//! * a coalescing / atomic-contention report
//!   ([`Analysis::buffers`], [`Analysis::hot_words`]).
//!
//! The verdicts quantify over **all** interleavings of a race window,
//! not the schedule that happened to run: within a window every pair
//! of distinct `(wave, lane)` threads is treated as concurrent, and
//! only barriers, synchronous-launch boundaries, and host drains order
//! windows. A kernel certified `RaceFree` here is race-free under
//! every lane permutation the schedule fuzzer could ever draw.

#![deny(missing_docs)]

use rdbs_gpu_sim::{AccessIr, Hazard, HazardKind};
use std::collections::BTreeMap;

/// Race-freedom verdict for one kernel. Ordered worst-last so
/// [`Ord::max`] is "worst wins" when merging runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No cross-thread hazard of any kind touches this kernel.
    RaceFree,
    /// Cross-thread sharing exists but every instance follows a
    /// sanctioned idiom (atomic-only word, or volatile read of an
    /// atomically-published word). The sanctioning kinds are cited on
    /// the certificate.
    SanctionedRacy,
    /// At least one unsanctioned hazard names this kernel: some
    /// interleaving of the recorded accesses produces a different
    /// result. Red.
    Racy,
}

impl Verdict {
    /// Stable display / baseline name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::RaceFree => "race-free",
            Verdict::SanctionedRacy => "sanctioned-racy",
            Verdict::Racy => "racy",
        }
    }

    /// Inverse of [`Verdict::name`], for baseline files.
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "race-free" => Some(Verdict::RaceFree),
            "sanctioned-racy" => Some(Verdict::SanctionedRacy),
            "racy" => Some(Verdict::Racy),
            _ => None,
        }
    }
}

/// Push-bound class for one declared device queue. Ordered worst-last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueueClass {
    /// Every push landed inside the declared capacity; the high-water
    /// mark never crossed it.
    Bounded,
    /// The tail overshot capacity but the queue was declared with a
    /// spill path (MLMQ `try_push` → next level), so no work was lost.
    Spilling,
    /// Pushes were dropped on the floor (overflow counter fired). Red:
    /// lost work means the algorithm silently under-relaxes.
    Overflowing,
}

impl QueueClass {
    /// Stable display / baseline name.
    pub fn name(&self) -> &'static str {
        match self {
            QueueClass::Bounded => "bounded",
            QueueClass::Spilling => "spilling",
            QueueClass::Overflowing => "overflowing",
        }
    }

    /// Inverse of [`QueueClass::name`], for baseline files.
    pub fn parse(s: &str) -> Option<QueueClass> {
        match s {
            "bounded" => Some(QueueClass::Bounded),
            "spilling" => Some(QueueClass::Spilling),
            "overflowing" => Some(QueueClass::Overflowing),
            _ => None,
        }
    }
}

/// Certificate for one kernel: the verdict, its provenance, and the
/// advisory gang-divergence lint counters.
#[derive(Clone, Debug)]
pub struct KernelCertificate {
    /// Kernel name (the label passed to `Device::execute`).
    pub kernel: &'static str,
    /// Schedule-universal race verdict.
    pub verdict: Verdict,
    /// Sanctioned idioms observed (deduplicated, sorted). Non-empty
    /// exactly when the verdict is at least `SanctionedRacy`.
    pub sanctions: Vec<HazardKind>,
    /// Unsanctioned hazards naming this kernel — the evidence behind
    /// a `Racy` verdict. Empty otherwise.
    pub findings: Vec<Hazard>,
    /// Waves launched under this name.
    pub waves: u64,
    /// Widest wave (lanes).
    pub max_lanes: u64,
    /// Consecutive-lane gangs whose op-kind signatures were compared.
    pub gangs_checked: u64,
    /// Gangs whose lanes disagreed on op-kind signature (advisory:
    /// degree loops legitimately diverge).
    pub gangs_divergent: u64,
    /// Gangs whose lanes launched different child-kernel counts.
    pub child_divergent: u64,
}

/// Push-bound certificate for one declared device queue.
#[derive(Clone, Debug)]
pub struct QueueCertificate {
    /// Queue label (shared by MLMQ sub-queues; usages are merged).
    pub label: &'static str,
    /// Largest declared capacity seen for this label.
    pub capacity: u32,
    /// Whether any declaration under this label has a spill path.
    pub spill: bool,
    /// Total device-side pushes.
    pub pushes: u64,
    /// Highest tail value reached within one fill epoch.
    pub high_water: u64,
    /// Most pushes any single race window issued — the static bound
    /// the certifier checks against the capacity class.
    pub max_window_pushes: u64,
    /// Pushes dropped by the overflow counter.
    pub drops: u64,
    /// Resulting class.
    pub class: QueueClass,
}

impl QueueCertificate {
    /// True when the per-window push bound alone already proves the
    /// queue cannot overflow from an empty start: no single window can
    /// fill it past capacity.
    pub fn window_bounded(&self) -> bool {
        self.max_window_pushes <= u64::from(self.capacity)
    }
}

/// The full analysis of one or more devices' retained IR.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Per-kernel certificates, keyed by kernel name.
    pub kernels: BTreeMap<&'static str, KernelCertificate>,
    /// Per-queue certificates, keyed by queue label.
    pub queues: BTreeMap<&'static str, QueueCertificate>,
    /// Lifetime per-buffer traffic and coalescing shape, summed.
    pub buffers: BTreeMap<&'static str, rdbs_gpu_sim::ir::BufferTraffic>,
    /// Per-word atomic counts, summed — feeds [`Analysis::hot_words`].
    pub atomic_sites: BTreeMap<(&'static str, u32), u64>,
    /// Race windows closed across all merged devices.
    pub windows: u64,
    /// Peak retained word summaries in any one window (memory bound).
    pub peak_window_words: u64,
    /// Devices merged into this analysis.
    pub devices: u64,
}

impl Analysis {
    /// Worst verdict across all kernel certificates ([`Verdict::RaceFree`]
    /// when no kernel ran).
    pub fn worst_verdict(&self) -> Verdict {
        self.kernels.values().map(|c| c.verdict).max().unwrap_or(Verdict::RaceFree)
    }

    /// Worst queue class across all queue certificates.
    pub fn worst_queue_class(&self) -> QueueClass {
        self.queues.values().map(|q| q.class).max().unwrap_or(QueueClass::Bounded)
    }

    /// The `k` hottest atomic words, sorted by contention descending
    /// then by (buffer, index) for determinism. This table scopes the
    /// multisplit work: a handful of words absorbing most atomics is
    /// the signature of a bucket-counter bottleneck.
    pub fn hot_words(&self, k: usize) -> Vec<(&'static str, u32, u64)> {
        let mut rows: Vec<_> =
            self.atomic_sites.iter().map(|(&(buf, idx), &n)| (buf, idx, n)).collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)).then(a.1.cmp(&b.1)));
        rows.truncate(k);
        rows
    }

    /// Fold another device's (or another run's) analysis into this
    /// one. Verdicts and queue classes take the worst of the two;
    /// counters sum; capacities and high-water marks take the max.
    pub fn merge(&mut self, other: Analysis) {
        for (name, cert) in other.kernels {
            match self.kernels.entry(name) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(cert);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let mine = o.get_mut();
                    mine.verdict = mine.verdict.max(cert.verdict);
                    for s in cert.sanctions {
                        if !mine.sanctions.contains(&s) {
                            mine.sanctions.push(s);
                        }
                    }
                    mine.sanctions.sort_unstable();
                    mine.findings.extend(cert.findings);
                    mine.waves += cert.waves;
                    mine.max_lanes = mine.max_lanes.max(cert.max_lanes);
                    mine.gangs_checked += cert.gangs_checked;
                    mine.gangs_divergent += cert.gangs_divergent;
                    mine.child_divergent += cert.child_divergent;
                }
            }
        }
        for (label, q) in other.queues {
            match self.queues.entry(label) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(q);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let mine = o.get_mut();
                    mine.class = mine.class.max(q.class);
                    mine.capacity = mine.capacity.max(q.capacity);
                    mine.spill |= q.spill;
                    mine.pushes += q.pushes;
                    mine.high_water = mine.high_water.max(q.high_water);
                    mine.max_window_pushes = mine.max_window_pushes.max(q.max_window_pushes);
                    mine.drops += q.drops;
                }
            }
        }
        for (label, t) in other.buffers {
            let mine = self.buffers.entry(label).or_default();
            mine.loads += t.loads;
            mine.stores += t.stores;
            mine.atomics += t.atomics;
            mine.same_word += t.same_word;
            mine.unit_stride += t.unit_stride;
            mine.strided += t.strided;
            mine.scatter += t.scatter;
        }
        for (site, n) in other.atomic_sites {
            *self.atomic_sites.entry(site).or_insert(0) += n;
        }
        self.windows += other.windows;
        self.peak_window_words = self.peak_window_words.max(other.peak_window_words);
        self.devices += other.devices;
    }
}

/// Classify one queue usage record.
fn classify_queue(u: &rdbs_gpu_sim::QueueUsage) -> QueueClass {
    if u.drops > 0 {
        QueueClass::Overflowing
    } else if u.high_water > u64::from(u.decl.capacity) {
        if u.decl.spill {
            QueueClass::Spilling
        } else {
            // Tail past capacity with no spill path and no recorded
            // drop: the push discipline was bypassed. Treat as red.
            QueueClass::Overflowing
        }
    } else {
        QueueClass::Bounded
    }
}

/// Verify one device's retained IR: derive every certificate from the
/// recorded summary. Pure function of the IR — no device access.
pub fn verify(ir: &AccessIr) -> Analysis {
    let mut out = Analysis {
        windows: ir.windows,
        peak_window_words: ir.peak_window_words,
        devices: 1,
        ..Analysis::default()
    };

    for (&name, stats) in &ir.kernels {
        out.kernels.insert(
            name,
            KernelCertificate {
                kernel: name,
                verdict: Verdict::RaceFree,
                sanctions: Vec::new(),
                findings: Vec::new(),
                waves: stats.waves,
                max_lanes: stats.max_lanes,
                gangs_checked: stats.gangs_checked,
                gangs_divergent: stats.gangs_divergent,
                child_divergent: stats.child_divergent,
            },
        );
    }

    for h in &ir.hazards {
        let mut names = [h.accessors[0].kernel, h.accessors[1].kernel];
        names.sort_unstable();
        let both = names[0] != names[1];
        for (i, &name) in names.iter().enumerate() {
            if i == 1 && !both {
                continue;
            }
            let cert = out.kernels.entry(name).or_insert_with(|| KernelCertificate {
                kernel: name,
                verdict: Verdict::RaceFree,
                sanctions: Vec::new(),
                findings: Vec::new(),
                waves: 0,
                max_lanes: 0,
                gangs_checked: 0,
                gangs_divergent: 0,
                child_divergent: 0,
            });
            if h.kind.sanctioned() {
                cert.verdict = cert.verdict.max(Verdict::SanctionedRacy);
                if !cert.sanctions.contains(&h.kind) {
                    cert.sanctions.push(h.kind);
                    cert.sanctions.sort_unstable();
                }
            } else {
                cert.verdict = Verdict::Racy;
                cert.findings.push(h.clone());
            }
        }
    }

    for u in &ir.queues {
        let class = classify_queue(u);
        match out.queues.entry(u.decl.label) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(QueueCertificate {
                    label: u.decl.label,
                    capacity: u.decl.capacity,
                    spill: u.decl.spill,
                    pushes: u.pushes,
                    high_water: u.high_water,
                    max_window_pushes: u.max_window_pushes,
                    drops: u.drops,
                    class,
                });
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                // MLMQ sub-queues share a label: merge usages.
                let mine = o.get_mut();
                mine.class = mine.class.max(class);
                mine.capacity = mine.capacity.max(u.decl.capacity);
                mine.spill |= u.decl.spill;
                mine.pushes += u.pushes;
                mine.high_water = mine.high_water.max(u.high_water);
                mine.max_window_pushes = mine.max_window_pushes.max(u.max_window_pushes);
                mine.drops += u.drops;
            }
        }
    }

    out.buffers = ir.traffic.clone();
    out.atomic_sites = ir.atomic_sites.clone();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_gpu_sim::ir::BufferTraffic;
    use rdbs_gpu_sim::{Accessor, KernelStats, QueueDecl, QueueUsage};

    fn acc(kernel: &'static str, wave: u64, lane: u64) -> Accessor {
        Accessor { wave, lane, gang: lane, kernel }
    }

    fn hazard(kind: HazardKind, a: &'static str, b: &'static str) -> Hazard {
        Hazard {
            kind,
            buffer: "buf",
            index: 0,
            addr: 0x40,
            accessors: [acc(a, 0, 0), acc(b, 0, 1)],
            snapshot_window: false,
            words: 1,
        }
    }

    fn usage(label: &'static str, capacity: u32, spill: bool, high: u64, drops: u64) -> QueueUsage {
        QueueUsage {
            decl: QueueDecl { label, tail_addr: 0x100, overflow_addr: 0x104, capacity, spill },
            pushes: high,
            high_water: high,
            max_window_pushes: high,
            drops,
        }
    }

    #[test]
    fn verdict_ordering_is_worst_last() {
        assert!(Verdict::RaceFree < Verdict::SanctionedRacy);
        assert!(Verdict::SanctionedRacy < Verdict::Racy);
        assert!(QueueClass::Bounded < QueueClass::Spilling);
        assert!(QueueClass::Spilling < QueueClass::Overflowing);
        for v in [Verdict::RaceFree, Verdict::SanctionedRacy, Verdict::Racy] {
            assert_eq!(Verdict::parse(v.name()), Some(v));
        }
        for c in [QueueClass::Bounded, QueueClass::Spilling, QueueClass::Overflowing] {
            assert_eq!(QueueClass::parse(c.name()), Some(c));
        }
    }

    #[test]
    fn unsanctioned_hazard_yields_racy_with_findings() {
        let mut ir = AccessIr::default();
        ir.kernels.insert("writer", KernelStats::default());
        ir.hazards.push(hazard(HazardKind::WriteWrite, "writer", "writer"));
        let a = verify(&ir);
        let cert = &a.kernels["writer"];
        assert_eq!(cert.verdict, Verdict::Racy);
        assert_eq!(cert.findings.len(), 1);
        assert_eq!(a.worst_verdict(), Verdict::Racy);
    }

    #[test]
    fn sanctioned_only_yields_sanctioned_racy_with_citation() {
        let mut ir = AccessIr::default();
        ir.hazards.push(hazard(HazardKind::AtomicShared, "relax", "relax"));
        ir.hazards.push(hazard(HazardKind::VolatileRead, "relax", "drain"));
        let a = verify(&ir);
        assert_eq!(a.kernels["relax"].verdict, Verdict::SanctionedRacy);
        assert_eq!(
            a.kernels["relax"].sanctions,
            vec![HazardKind::AtomicShared, HazardKind::VolatileRead]
        );
        assert_eq!(a.kernels["drain"].verdict, Verdict::SanctionedRacy);
        assert_eq!(a.kernels["drain"].sanctions, vec![HazardKind::VolatileRead]);
        assert_eq!(a.worst_verdict(), Verdict::SanctionedRacy);
    }

    #[test]
    fn queue_classes_cover_bounded_spilling_overflowing() {
        let mut ir = AccessIr::default();
        ir.queues.push(usage("ok", 64, false, 10, 0));
        ir.queues.push(usage("spilly", 8, true, 20, 0));
        ir.queues.push(usage("lossy", 8, false, 20, 5));
        let a = verify(&ir);
        assert_eq!(a.queues["ok"].class, QueueClass::Bounded);
        assert!(a.queues["ok"].window_bounded());
        assert_eq!(a.queues["spilly"].class, QueueClass::Spilling);
        assert_eq!(a.queues["lossy"].class, QueueClass::Overflowing);
        assert_eq!(a.worst_queue_class(), QueueClass::Overflowing);
    }

    #[test]
    fn mlmq_sub_queue_usages_merge_under_one_label() {
        let mut ir = AccessIr::default();
        ir.queues.push(usage("mlmq_lane", 16, true, 4, 0));
        ir.queues.push(usage("mlmq_lane", 16, true, 30, 0));
        let a = verify(&ir);
        let q = &a.queues["mlmq_lane"];
        assert_eq!(q.class, QueueClass::Spilling);
        assert_eq!(q.pushes, 34);
        assert_eq!(q.high_water, 30);
    }

    #[test]
    fn merge_takes_worst_and_sums() {
        let mut ir1 = AccessIr::default();
        ir1.kernels
            .insert("relax", KernelStats { waves: 2, max_lanes: 32, ..KernelStats::default() });
        ir1.traffic.insert("dist", BufferTraffic { loads: 10, ..BufferTraffic::default() });
        ir1.atomic_sites.insert(("tail", 0), 7);
        let mut ir2 = ir1.clone();
        ir2.hazards.push(hazard(HazardKind::WriteWrite, "relax", "relax"));
        let mut a = verify(&ir1);
        a.merge(verify(&ir2));
        assert_eq!(a.devices, 2);
        assert_eq!(a.kernels["relax"].verdict, Verdict::Racy);
        assert_eq!(a.kernels["relax"].waves, 4);
        assert_eq!(a.buffers["dist"].loads, 20);
        assert_eq!(a.atomic_sites[&("tail", 0)], 14);
        assert_eq!(a.hot_words(1), vec![("tail", 0, 14)]);
    }

    #[test]
    fn hot_words_breaks_count_ties_deterministically() {
        // Equal contention counts must rank by (buffer label, word
        // index) so the table — and everything diffed against it —
        // is stable across runs and merge orders. The multisplit
        // before/after comparison reads this table; a tie flapping
        // between orders would show up as a phantom regression.
        let mut ir = AccessIr::default();
        ir.atomic_sites.insert(("tail_b", 3), 9);
        ir.atomic_sites.insert(("tail_a", 7), 9);
        ir.atomic_sites.insert(("tail_a", 2), 9);
        ir.atomic_sites.insert(("tail_c", 0), 11);
        let a = verify(&ir);
        assert_eq!(
            a.hot_words(4),
            vec![("tail_c", 0, 11), ("tail_a", 2, 9), ("tail_a", 7, 9), ("tail_b", 3, 9)],
            "ties sort by buffer label then word index"
        );
        // Truncation must respect the same order: the top-2 are the
        // strict-count winner and the lexicographically first tie.
        assert_eq!(a.hot_words(2), vec![("tail_c", 0, 11), ("tail_a", 2, 9)]);
    }
}
