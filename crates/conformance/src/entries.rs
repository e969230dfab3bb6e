//! The one table of device-backed entry points: every simulated-GPU,
//! multi-GPU and resident-service entry the conformance sweeps run,
//! addressable by a stable id, each with exactly one meaning.
//!
//! A service id names one scenario — a fault-free warm-up query, then
//! the scored attempt — and every sweep flies that same scenario:
//! `verify` through the registry and [`run`] bare, `sanitize`,
//! `analyze` and `fuzz-schedules` through [`run`] with a [`Probe`]
//! armed, and `chaos` and the adversary through [`run_recovered`] with
//! a fault armed between warm-up and attempt. Each sweep's entry list
//! is an ordered id list over [`table()`] ([`VERIFY`], [`CHAOS`],
//! [`SANITIZE`], [`FUZZ`] and their quick subsets), resolved by
//! [`select`].

use rdbs_core::gpu::{
    run_gpu_on, FrontierKind, MultiGpuConfig, MultiGpuState, RdbsConfig, Variant,
};
use rdbs_core::recover::{
    run_gpu_recovered, run_gpu_recovered_refault, run_multi_recovered, run_service_recovered,
    warm_up, RecoveredRun,
};
use rdbs_core::service::{Backend, ServiceConfig, SsspService};
use rdbs_core::{Csr, SsspResult, VertexId, Weight};
use rdbs_gpu_sim::{
    AccessIr, AccessProfile, Device, DeviceConfig, FaultSpec, Fingerprint, SanConfig, SanViolation,
};

/// One device-backed entry point.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// Stable id used in reports and filters (e.g. `gpu/full`).
    pub id: &'static str,
    pub(crate) kind: EntryKind,
    /// `--frontier` override: run every RDBS-backed surface of this
    /// entry on this layout instead of its own.
    frontier: Option<FrontierKind>,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum EntryKind {
    /// One simulated device running the variant.
    Gpu(Variant),
    /// Same as `Gpu` unrecovered; recovered, the fault spec is
    /// re-armed on the rung-2 rerun device (persistent-fault
    /// semantics), so the recovery path itself runs under fire and
    /// must still never lie.
    GpuRefault(Variant),
    /// The multi-GPU exchange over `k` devices.
    MultiGpu(usize),
    /// The resident service running one scenario.
    Service(Scenario),
}

/// What a service entry does after its warm-up query.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scenario {
    /// `service/pooled`: one query on recycled pooled buffers (full
    /// RDBS, one stream).
    Pooled,
    /// `service/concurrent`: the scored query flies mid-batch in a
    /// three-source batch across four command streams, so it runs
    /// while sibling queries are in flight.
    Concurrent,
    /// `service/traffic`: the open-loop traffic tier on two streams.
    /// The scored query arrives first (an empty admission predictor
    /// always admits it), a sibling runs alongside, a past-deadline
    /// arrival exercises typed shedding, and a late repeat of the
    /// scored source is answered from the answer cache — the graded
    /// answer is the cache replay.
    Traffic,
    /// `service/mlmq-spill`: the concurrent batch on a deliberately
    /// under-provisioned multi-level frontier
    /// ([`spill_service_config`]), so hot-level overflow spills into
    /// the deferred level.
    Spill,
}

impl Scenario {
    /// The scored attempt on a warmed service. `Err` carries the text
    /// of a typed detection.
    fn attempt(self, svc: &mut SsspService, source: VertexId) -> Result<SsspResult, String> {
        let n = svc.num_vertices() as u32;
        let wrap = |k: u32| (source + k) % n;
        match self {
            Scenario::Pooled => svc.try_query(source).map_err(|e| e.to_string()),
            Scenario::Concurrent | Scenario::Spill => {
                Ok(svc.batch(&[wrap(2), source, wrap(3)]).swap_remove(1))
            }
            Scenario::Traffic => {
                use rdbs_core::service::cache::CacheConfig;
                use rdbs_core::service::traffic::{
                    ArrivalProcess, Outcome, Query, SourceMix, TrafficConfig,
                };
                let generous = 1e12;
                let queries = [
                    Query { source, arrival_ms: 0.0, deadline_ms: generous },
                    Query { source: wrap(2), arrival_ms: 0.0, deadline_ms: generous },
                    // Deadline already blown at arrival: deterministically
                    // shed (typed), never silently answered late.
                    Query { source: wrap(3), arrival_ms: 0.01, deadline_ms: 0.0 },
                    // Arrives long after the scored answer completes:
                    // served from the cache, bit-identical to the
                    // attempt's answer.
                    Query { source, arrival_ms: 1e6, deadline_ms: generous },
                ];
                let cfg = TrafficConfig {
                    arrivals: ArrivalProcess::Poisson { qps: 1.0 }, // unused: explicit queries
                    offered: queries.len(),
                    seed: 0,
                    slo_ms: generous,
                    tight_slo_ms: None,
                    tight_every: 0,
                    sources: SourceMix::Uniform,
                    shed_margin: 1.0,
                    cache: Some(CacheConfig::default()),
                    approx_on_shed: false,
                };
                let report = svc.serve_queries(&queries, &cfg);
                match report.outcomes.into_iter().nth(3).expect("four outcomes") {
                    Outcome::Exact { result, .. } => Ok(result),
                    other => panic!("the late repeat must be answered exactly, got {other:?}"),
                }
            }
        }
    }
}

/// Every device-backed entry, in one table.
pub fn table() -> Vec<Entry> {
    use EntryKind::*;
    let entry = |id, kind| Entry { id, kind, frontier: None };
    let rdbs = |cfg| Gpu(Variant::Rdbs(cfg));
    vec![
        entry("gpu/bl", Gpu(Variant::Baseline)),
        entry("gpu/sync-delta", rdbs(RdbsConfig::sync_delta())),
        entry("gpu/basyn", rdbs(RdbsConfig::basyn_only())),
        entry("gpu/basyn-pro", rdbs(RdbsConfig::basyn_pro())),
        entry("gpu/basyn-adwl", rdbs(RdbsConfig::basyn_adwl())),
        entry("gpu/full", rdbs(RdbsConfig::full())),
        entry("gpu/full-mlmq", rdbs(RdbsConfig::full().with_frontier(FrontierKind::Mlmq))),
        entry("gpu/refault", GpuRefault(Variant::Rdbs(RdbsConfig::full()))),
        entry("multi-gpu/k1", MultiGpu(1)),
        entry("multi-gpu/k2", MultiGpu(2)),
        entry("multi-gpu/k4", MultiGpu(4)),
        entry("service/pooled", Service(Scenario::Pooled)),
        entry("service/concurrent", Service(Scenario::Concurrent)),
        entry("service/traffic", Service(Scenario::Traffic)),
        entry("service/mlmq-spill", Service(Scenario::Spill)),
    ]
}

/// The device-backed entries of the differential matrix, in registry
/// order.
pub const VERIFY: &[&str] = &[
    "gpu/bl",
    "gpu/sync-delta",
    "gpu/basyn",
    "gpu/basyn-pro",
    "gpu/basyn-adwl",
    "gpu/full",
    "gpu/full-mlmq",
    "multi-gpu/k1",
    "multi-gpu/k2",
    "multi-gpu/k4",
    "service/pooled",
    "service/concurrent",
    "service/traffic",
];

/// The chaos matrix and the adversarial search.
pub const CHAOS: &[&str] = &[
    "gpu/full",
    "gpu/sync-delta",
    "gpu/basyn",
    "gpu/refault",
    "multi-gpu/k2",
    "service/pooled",
    "service/concurrent",
    "service/traffic",
    "service/mlmq-spill",
];

/// The reduced chaos sweep: the asynchronous single-device entry
/// (widest fault surface), the persistent-fault entry (recovery path
/// under fire), the multi-GPU exchange (message models), and every
/// service scenario (buffer reuse, in-flight concurrency, the answer
/// cache and shedding path, the cross-level spill path).
pub const CHAOS_QUICK: &[&str] = &[
    "gpu/full",
    "gpu/refault",
    "multi-gpu/k2",
    "service/pooled",
    "service/concurrent",
    "service/traffic",
    "service/mlmq-spill",
];

/// The sanitized and static-verification matrices: the baseline, all
/// RDBS ablation toggles, multi-GPU at k ∈ {1, 2, 4}, and the pooled
/// and concurrent service.
pub const SANITIZE: &[&str] = &[
    "gpu/bl",
    "gpu/sync-delta",
    "gpu/basyn",
    "gpu/basyn-pro",
    "gpu/basyn-adwl",
    "gpu/full",
    "multi-gpu/k1",
    "multi-gpu/k2",
    "multi-gpu/k4",
    "service/pooled",
    "service/concurrent",
];

/// The reduced sanitized / static sweep: the synchronous baseline, the
/// fully asynchronous single-device entry (widest race surface), the
/// multi-GPU exchange, the pooled service (buffer-recycle surface) and
/// the concurrent scheduler (cross-lane isolation surface).
pub const SANITIZE_QUICK: &[&str] =
    &["gpu/bl", "gpu/full", "multi-gpu/k2", "service/pooled", "service/concurrent"];

/// The schedule fuzzer: the chaos entries that run on one device.
/// `gpu/refault` differs from `gpu/full` only on the recovery ladder,
/// which fuzzing never climbs, and the multi-GPU exchange has no lane
/// permuter.
pub const FUZZ: &[&str] = &[
    "gpu/full",
    "gpu/sync-delta",
    "gpu/basyn",
    "service/pooled",
    "service/concurrent",
    "service/traffic",
    "service/mlmq-spill",
];

/// The reduced schedule-fuzz sweep.
pub const FUZZ_QUICK: &[&str] =
    &["gpu/full", "service/pooled", "service/concurrent", "service/traffic", "service/mlmq-spill"];

/// Look an entry up by its exact id.
pub fn find(id: &str) -> Option<Entry> {
    table().into_iter().find(|e| e.id == id)
}

/// Whether `s` passes an optional substring filter (`None` passes
/// everything).
pub fn substring(filter: &Option<String>, s: &str) -> bool {
    filter.as_ref().is_none_or(|f| s.contains(f.as_str()))
}

/// Resolve an id list in order, keeping the ids that pass `filter`,
/// each routed onto `frontier` when one is given.
pub fn select(ids: &[&str], filter: &Option<String>, frontier: Option<FrontierKind>) -> Vec<Entry> {
    ids.iter()
        .filter(|id| substring(filter, id))
        .map(|id| {
            let entry = find(id).unwrap_or_else(|| panic!("entry list names unknown id {id}"));
            match frontier {
                Some(kind) => entry.with_frontier(kind),
                None => entry,
            }
        })
        .collect()
}

/// The tiny-device multi-GPU configuration every multi-GPU entry runs.
fn multi_config(k: usize, delta0: Option<Weight>) -> MultiGpuConfig {
    MultiGpuConfig {
        num_devices: k,
        device: DeviceConfig::test_tiny(),
        interconnect_gbps: 50.0,
        exchange_latency_us: 5.0,
        delta0,
    }
}

/// The under-provisioned MLMQ service the spill entry runs on a graph
/// of `n` vertices: each lane's frontier gets about a third of the
/// vertex count in logical slots, so hot-level sub-queues overflow
/// into the deferred level on dense buckets, while the level pair still holds enough total slots
/// that a fault-free run never drops work. Real loss under fire is
/// still possible (that is the point) — it must surface as a typed
/// overflow and a counted host fallback through `batch`.
pub(crate) fn spill_service_config(n: usize) -> ServiceConfig {
    let capacity = (n as u32 / 3).max(8);
    ServiceConfig::rdbs(DeviceConfig::test_tiny())
        .with_streams(2)
        .with_frontier(FrontierKind::Mlmq)
        .with_queue_capacity(capacity)
}

impl Entry {
    /// Run every RDBS-backed surface of this entry on `kind`'s frontier
    /// layout (`--frontier`). The spill entry keeps its own MLMQ
    /// layout — its id names the layout it exists to exercise.
    #[must_use]
    pub fn with_frontier(mut self, kind: FrontierKind) -> Self {
        if !matches!(self.kind, EntryKind::Service(Scenario::Spill)) {
            self.frontier = Some(kind);
        }
        self
    }

    /// Whether message-channel fault models have injection sites here.
    pub fn carries_messages(&self) -> bool {
        matches!(self.kind, EntryKind::MultiGpu(k) if k > 1)
    }

    /// The single-device kernel variant this entry runs, when it has
    /// one — the adversarial scout profiles it under the sanitizer.
    pub(crate) fn scout_variant(&self) -> Option<Variant> {
        match self.kind {
            EntryKind::Gpu(v) | EntryKind::GpuRefault(v) => Some(self.variant(v, None)),
            EntryKind::MultiGpu(_) => None,
            EntryKind::Service(s) => match self.service_config(s, 0, None).backend {
                Backend::Gpu(v) => Some(v),
                Backend::MultiGpu(_) => None,
            },
        }
    }

    /// `v` with the Δ₀ override (when given) and the frontier override.
    fn variant(&self, v: Variant, delta0: Option<Weight>) -> Variant {
        match v {
            Variant::Rdbs(mut cfg) => {
                cfg.delta0 = delta0.or(cfg.delta0);
                cfg.frontier = self.frontier.unwrap_or(cfg.frontier);
                Variant::Rdbs(cfg)
            }
            v => v,
        }
    }

    /// The service a scenario runs, on a graph of `n` vertices.
    fn service_config(&self, s: Scenario, n: usize, delta0: Option<Weight>) -> ServiceConfig {
        let base = ServiceConfig::rdbs(DeviceConfig::test_tiny());
        let mut config = match s {
            Scenario::Pooled => base,
            Scenario::Concurrent => base.with_streams(4),
            Scenario::Traffic => base.with_streams(2),
            Scenario::Spill => spill_service_config(n),
        };
        if let Backend::Gpu(v) = &mut config.backend {
            *v = self.variant(*v, delta0);
        }
        config.delta0 = delta0.or(config.delta0);
        config
    }
}

/// Which observers an unrecovered [`run`] arms; the default arms none.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// The memory-model sanitizer.
    pub san: bool,
    /// The access-IR recorder.
    pub ir: bool,
    /// Seed of the lane-permutation schedule fuzzer (single-device
    /// backends only: the multi-GPU exchange has no permuter).
    pub perm_seed: Option<u64>,
}

/// What an unrecovered run leaves behind.
#[derive(Debug)]
pub struct Observed {
    pub result: SsspResult,
    /// Sanitizer violations (capped) and their true total; empty
    /// unless the probe armed the sanitizer.
    pub violations: Vec<SanViolation>,
    pub san_total: u64,
    /// The sanitizer's access profile (single-device backends only).
    pub profile: Option<AccessProfile>,
    /// Retained IR, one per device; empty unless the probe armed it.
    pub irs: Vec<AccessIr>,
    /// Model fingerprint of the run: distances and update stats, then
    /// every device's counters, kernel reports and clock, then the
    /// simulated latency series (see [`crate::fingerprints`]).
    pub fingerprint: u64,
}

/// Start a run's fingerprint with its answer.
fn answer_fingerprint(result: &SsspResult) -> Fingerprint {
    let mut fp = Fingerprint::default();
    fp.words(&result.dist);
    fp.bytes(format!("{:?}", result.stats).as_bytes());
    fp
}

fn arm(device: &mut Device, probe: Probe) {
    if probe.san {
        device.arm_sanitizer(SanConfig::default());
    }
    if probe.ir {
        device.arm_ir();
    }
    if let Some(seed) = probe.perm_seed {
        device.arm_schedule_fuzz(seed);
    }
}

/// Run an entry once, without recovery, with `probe`'s observers armed
/// from construction. `delta0` overrides the bucket width where the
/// entry has one. A typed service error panics.
pub fn run(
    entry: &Entry,
    graph: &Csr,
    source: VertexId,
    delta0: Option<Weight>,
    probe: Probe,
) -> Observed {
    match entry.kind {
        EntryKind::Gpu(v) | EntryKind::GpuRefault(v) => {
            let mut device = Device::new(DeviceConfig::test_tiny());
            arm(&mut device, probe);
            let run = run_gpu_on(&mut device, graph, source, entry.variant(v, delta0));
            let mut fp = answer_fingerprint(&run.result);
            fp.device(&device);
            Observed {
                result: run.result,
                violations: device.san_violations().to_vec(),
                san_total: device.san_total(),
                profile: device.san_profile().cloned(),
                irs: device.take_ir().into_iter().collect(),
                fingerprint: fp.value(),
            }
        }
        EntryKind::MultiGpu(k) => {
            assert!(
                probe.perm_seed.is_none(),
                "{}: the multi-GPU exchange has no permuter",
                entry.id
            );
            let mut state = MultiGpuState::new(graph, &multi_config(k, delta0));
            if probe.san {
                state.arm_sanitizer(SanConfig::default());
            }
            if probe.ir {
                state.arm_ir();
            }
            let run = state.run(source);
            let mut fp = answer_fingerprint(&run.result);
            for device in state.devices() {
                fp.device(device);
            }
            fp.series(&[run.elapsed_ms, run.exchange_ms]);
            fp.u64(run.exchanged_bytes);
            fp.u64(u64::from(run.supersteps) << 32 | u64::from(run.buckets));
            Observed {
                result: run.result,
                violations: state.san_violations().into_iter().map(|(_, v)| v).collect(),
                san_total: state.san_total(),
                profile: None,
                irs: state.take_irs(),
                fingerprint: fp.value(),
            }
        }
        EntryKind::Service(s) => {
            let config = entry.service_config(s, graph.num_vertices(), delta0);
            let mut svc = SsspService::new(graph, config);
            if probe.san {
                svc.arm_sanitizer(SanConfig::default());
            }
            if probe.ir {
                svc.arm_ir();
            }
            if let Some(seed) = probe.perm_seed {
                svc.arm_schedule_fuzz(seed);
            }
            warm_up(&mut svc, source);
            let result = s.attempt(&mut svc, source).unwrap_or_else(|e| panic!("{e}"));
            let mut fp = answer_fingerprint(&result);
            fp.counters(svc.device_counters().expect("service entries run one device"));
            fp.reports(svc.kernel_reports().expect("service entries run one device"));
            let stats = svc.stats();
            fp.series(&stats.per_query_sim_ms);
            fp.series(&stats.per_query_sojourn_ms);
            fp.f64(stats.sim_batch_ms);
            Observed {
                result,
                violations: svc.san_violations(),
                san_total: svc.san_total(),
                profile: svc.san_profile().cloned(),
                irs: svc.take_irs(),
                fingerprint: fp.value(),
            }
        }
    }
}

/// Run an entry through the detect-and-recover layer with `fault`
/// armed (the chaos matrix and the adversary's evaluations).
pub fn run_recovered(
    entry: &Entry,
    graph: &Csr,
    source: VertexId,
    fault: Option<FaultSpec>,
) -> RecoveredRun {
    let tiny = DeviceConfig::test_tiny;
    match entry.kind {
        EntryKind::Gpu(v) => {
            run_gpu_recovered(graph, source, entry.variant(v, None), tiny(), fault)
        }
        EntryKind::GpuRefault(v) => {
            run_gpu_recovered_refault(graph, source, entry.variant(v, None), tiny(), fault)
        }
        EntryKind::MultiGpu(k) => run_multi_recovered(graph, source, &multi_config(k, None), fault),
        EntryKind::Service(s) => {
            let config = entry.service_config(s, graph.num_vertices(), None);
            run_service_recovered(graph, source, config, fault, |svc| s.attempt(svc, source))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typo in an id list would silently drop coverage: every listed
    /// id must resolve to exactly one table entry, and each quick list
    /// must be a subset of its full list.
    #[test]
    fn every_listed_id_resolves_to_one_entry() {
        let table = table();
        let pairs = [
            (VERIFY, VERIFY),
            (CHAOS, CHAOS_QUICK),
            (SANITIZE, SANITIZE_QUICK),
            (FUZZ, FUZZ_QUICK),
        ];
        for (full, quick) in pairs {
            for id in full.iter().chain(quick) {
                assert_eq!(table.iter().filter(|e| e.id == *id).count(), 1, "{id}");
            }
            for id in quick {
                assert!(full.contains(id), "quick id {id} missing from its full list");
            }
        }
    }

    /// The concurrent scenario's warm-up runs alone, then its batch of
    /// three fills three of the four streams at once.
    #[test]
    fn concurrent_scenario_keeps_three_queries_in_flight() {
        let family = &crate::graphs::quick_families()[0];
        let graph = family.build();
        let source = family.sources(graph.num_vertices())[0];
        let entry = find("service/concurrent").unwrap();
        let EntryKind::Service(s) = entry.kind else { unreachable!() };
        let mut svc = SsspService::new(&graph, entry.service_config(s, graph.num_vertices(), None));
        warm_up(&mut svc, source);
        s.attempt(&mut svc, source).unwrap();
        assert_eq!(svc.stats().inflight_peak, 3);
    }
}
