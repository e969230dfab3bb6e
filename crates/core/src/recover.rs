//! Detect-and-recover execution: run a GPU SSSP entry point (possibly
//! under an armed fault plan), audit the result without an oracle, and
//! climb a recovery ladder until the answer is certified — so RDBS
//! never returns a silently wrong answer.
//!
//! Detection is cheap and oracle-free:
//!
//! * the per-bucket monotonicity audit inside [`crate::gpu::rdbs`]
//!   (distances never increase, settled vertices stay settled — only
//!   active when faults are armed, so fault-free runs pay nothing);
//! * a final O(V+E) post-pass, [`crate::validate::audit_sssp`]: no
//!   edge left relaxable, and every reached vertex certified by a
//!   tight-edge path from the source.
//!
//! The recovery ladder, each rung bounded and recorded in the
//! [`RecoveryReport`]:
//!
//! 1. **Repair sweep** — reset the audit-flagged vertices and run a
//!    bounded host-side re-relaxation seeded from the intact ones;
//! 2. **Synchronous rerun** — rerun fault-free with the barrier-per-
//!    layer [`RdbsConfig::sync_delta`] variant (for multi-GPU, a
//!    fault-free multi rerun);
//! 3. **Graceful degradation** — sequential Dijkstra.
//!
//! Recovery reruns are fault-free by default (transient-fault
//! semantics): the plan stays on the faulted device and is not
//! re-armed. [`run_gpu_recovered_refault`] models *persistent* faults
//! instead — the same spec is re-armed on the rerun device — and the
//! ladder still never returns silently wrong, because [`finish`]
//! audits the rerun's output and falls through to the sequential rung
//! when the re-faulted rerun is itself corrupt.
//!
//! Three entry shapes reach the ladder: one device
//! ([`run_gpu_recovered`] and its budgeted / refaulting forms), the
//! multi-GPU exchange ([`run_multi_recovered`]), and the resident
//! service ([`run_service_recovered`]), which takes the scored attempt
//! as a closure. This module defines no service workloads of its own:
//! each conformance entry id (`service/pooled`, `service/concurrent`,
//! `service/traffic`, `service/mlmq-spill`) names exactly one scenario
//! in `rdbs-conformance`'s entry table, and every sweep — the chaos
//! matrix here, and the unrecovered sanitizer, IR and schedule-fuzz
//! runs — flies that same scenario.

use crate::gpu::{
    multi_gpu_sssp, multi_gpu_sssp_faulted, run_gpu_on, MultiGpuConfig, RdbsConfig, Variant,
};
use crate::seq::dijkstra;
use crate::service::{ServiceConfig, SsspService};
use crate::stats::{SsspResult, UpdateStats};
use crate::validate::audit_sssp;
use crate::{saturating_relax, Csr, Dist, VertexId, INF};
use rdbs_gpu_sim::{Device, DeviceConfig, FaultEvent, FaultPlan, FaultSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Upper bound on full-edge re-relaxation rounds in the repair sweep.
const REPAIR_ROUNDS: u32 = 32;

/// Explicit retry budget for the recovery ladder. Every recovery is
/// bounded: at most `max_rungs` rungs are *attempted* (a rung skipped
/// for free — e.g. the repair sweep when the attempt panicked and left
/// no distances — costs nothing), and the rung-1 sweep re-relaxes for
/// at most `repair_rounds` rounds. When the budget runs out before a
/// rung certifies an answer, the run ends in the typed
/// [`RecoveryOutcome::Exhausted`] instead of climbing further — never
/// an unbounded or implicit loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryBudget {
    /// Maximum ladder rungs attempted: 1 = repair sweep only,
    /// 2 = + synchronous rerun, 3 = + sequential fallback (default).
    pub max_rungs: u32,
    /// Round bound for the rung-1 repair sweep.
    pub repair_rounds: u32,
}

impl Default for RecoveryBudget {
    fn default() -> Self {
        Self { max_rungs: 3, repair_rounds: REPAIR_ROUNDS }
    }
}

impl std::fmt::Display for RecoveryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rung(s), {} repair round(s)", self.max_rungs, self.repair_rounds)
    }
}

/// One rung climbed on the recovery ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Bounded re-relaxation seeded from the audit-flagged vertices.
    RepairSweep { rounds: u32, relaxations: u64, clean: bool },
    /// Fault-free rerun with the synchronous variant.
    SyncRerun { clean: bool },
    /// Graceful degradation to sequential Dijkstra.
    SequentialFallback,
}

impl std::fmt::Display for RecoveryStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryStep::RepairSweep { rounds, relaxations, clean } => write!(
                f,
                "repair sweep: {rounds} rounds, {relaxations} relaxations — {}",
                if *clean { "clean" } else { "still dirty" }
            ),
            RecoveryStep::SyncRerun { clean } => write!(
                f,
                "synchronous fault-free rerun — {}",
                if *clean { "clean" } else { "still dirty" }
            ),
            RecoveryStep::SequentialFallback => write!(f, "sequential Dijkstra fallback"),
        }
    }
}

/// How the run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The first attempt passed every audit — nothing to recover.
    Clean,
    /// A fault was detected and a ladder rung produced a certified
    /// answer.
    Recovered,
    /// All GPU-side rungs failed; the answer comes from sequential
    /// Dijkstra.
    Degraded,
    /// The retry budget ran out before any rung certified an answer.
    /// The carried distances are **best-effort and uncertified** —
    /// callers must treat them as unusable for correctness purposes
    /// (the chaos matrix grades this as an error cell, never compared
    /// against the oracle).
    Exhausted,
}

impl std::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryOutcome::Clean => "clean",
            RecoveryOutcome::Recovered => "recovered",
            RecoveryOutcome::Degraded => "degraded",
            RecoveryOutcome::Exhausted => "exhausted",
        })
    }
}

/// What was injected, what was detected, and what recovery did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The fault spec the run was executed under, if any.
    pub fault: Option<FaultSpec>,
    /// Total injections the plan performed.
    pub injections: u64,
    /// Injection log (capped device-side).
    pub fault_events: Vec<FaultEvent>,
    /// Per-bucket monotonicity audit hits during the run.
    pub monotonicity_hits: usize,
    /// Vertices flagged by the final audit of the faulted attempt.
    pub flagged: usize,
    /// Panic message if the faulted attempt crashed outright (e.g. a
    /// bit flip in a row offset driving an out-of-bounds access).
    pub panic: Option<String>,
    /// Ladder rungs climbed, in order (empty for a clean run).
    pub steps: Vec<RecoveryStep>,
    /// The retry budget the ladder ran under.
    pub budget: RecoveryBudget,
    pub outcome: RecoveryOutcome,
}

impl RecoveryReport {
    /// Whether any detector fired on the first attempt.
    pub fn detected(&self) -> bool {
        self.monotonicity_hits > 0 || self.flagged > 0 || self.panic.is_some()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fault {
            Some(spec) => writeln!(
                f,
                "fault: {} rate {} seed {} — {} injection(s)",
                spec.model, spec.rate, spec.seed, self.injections
            )?,
            None => writeln!(f, "fault: none")?,
        }
        write!(
            f,
            "detection: {} monotonicity hit(s), {} flagged vertex(es)",
            self.monotonicity_hits, self.flagged
        )?;
        if let Some(msg) = &self.panic {
            write!(f, ", attempt panicked: {msg}")?;
        }
        writeln!(f)?;
        if self.steps.is_empty() {
            writeln!(f, "ladder: not needed")?;
        } else {
            writeln!(f, "ladder (budget {}):", self.budget)?;
            for (i, step) in self.steps.iter().enumerate() {
                writeln!(f, "  {}. {step}", i + 1)?;
            }
        }
        write!(f, "outcome: {}", self.outcome)
    }
}

/// An SSSP result carrying the recovery evidence.
pub struct RecoveredRun {
    pub result: SsspResult,
    pub report: RecoveryReport,
}

/// Run a single-device GPU variant under `fault` (or fault-free when
/// `None`), audit, and recover. The returned distances are always
/// audit-certified.
pub fn run_gpu_recovered(
    graph: &Csr,
    source: VertexId,
    variant: Variant,
    device_config: DeviceConfig,
    fault: Option<FaultSpec>,
) -> RecoveredRun {
    run_gpu_recovered_with(
        graph,
        source,
        variant,
        device_config,
        fault,
        false,
        RecoveryBudget::default(),
    )
}

/// Like [`run_gpu_recovered`], with an explicit ladder retry budget.
/// With a budget too small to reach a certifying rung the run ends in
/// the typed [`RecoveryOutcome::Exhausted`] carrying best-effort,
/// **uncertified** distances.
pub fn run_gpu_recovered_budgeted(
    graph: &Csr,
    source: VertexId,
    variant: Variant,
    device_config: DeviceConfig,
    fault: Option<FaultSpec>,
    budget: RecoveryBudget,
) -> RecoveredRun {
    run_gpu_recovered_with(graph, source, variant, device_config, fault, false, budget)
}

/// Like [`run_gpu_recovered`], but with persistent-fault semantics:
/// the fault spec is re-armed on the fresh device used for the rung-2
/// synchronous rerun, so recovery itself executes under fire. Safe
/// because the rerun's output is audited before it is accepted — a
/// still-corrupt rerun is recorded as a dirty [`RecoveryStep::SyncRerun`]
/// and the ladder degrades to sequential Dijkstra.
pub fn run_gpu_recovered_refault(
    graph: &Csr,
    source: VertexId,
    variant: Variant,
    device_config: DeviceConfig,
    fault: Option<FaultSpec>,
) -> RecoveredRun {
    run_gpu_recovered_with(
        graph,
        source,
        variant,
        device_config,
        fault,
        true,
        RecoveryBudget::default(),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_gpu_recovered_with(
    graph: &Csr,
    source: VertexId,
    variant: Variant,
    device_config: DeviceConfig,
    fault: Option<FaultSpec>,
    refault_rerun: bool,
    budget: RecoveryBudget,
) -> RecoveredRun {
    let mut device = Device::new(device_config.clone());
    if let Some(spec) = fault {
        device.arm_faults(FaultPlan::new(spec));
    }
    let attempt =
        catch_unwind(AssertUnwindSafe(|| run_gpu_on(&mut device, graph, source, variant)));
    let (injections, fault_events) = match device.disarm_faults() {
        Some(plan) => (plan.injections(), plan.log().to_vec()),
        None => (0, Vec::new()),
    };
    let (attempt, panic) = match attempt {
        Ok(run) => (Some((run.result, run.audit.len())), None),
        Err(payload) => (None, Some(panic_text(payload.as_ref()))),
    };
    let delta0 = match variant {
        Variant::Rdbs(cfg) => cfg.delta0,
        Variant::Baseline => None,
    };
    let rerun = |graph: &Csr, source: VertexId| {
        let mut fresh = Device::new(device_config.clone());
        if refault_rerun {
            if let Some(spec) = fault {
                fresh.arm_faults(FaultPlan::new(spec));
            }
        }
        let cfg = RdbsConfig { delta0, ..RdbsConfig::sync_delta() };
        run_gpu_on(&mut fresh, graph, source, Variant::Rdbs(cfg)).result
    };
    finish(graph, source, fault, injections, fault_events, attempt, panic, &rerun, budget)
}

/// Run the resident batched service ([`crate::service`]) under
/// `fault`, audit, and recover: build the service, warm its pooled
/// buffers with one fault-free query ([`warm_up`]), arm `fault`, run
/// `attempt` under `catch_unwind`, disarm, and hand the outcome to the
/// ladder. The faulted attempt therefore exercises recycled pooled
/// buffers — the reuse path that must never turn a fault into a
/// silent wrong answer. `attempt` returns the scored answer, or `Err`
/// with the text of a typed detection (e.g. a [`ServiceError`] queue
/// overflow), recorded in the report's `panic` field alongside real
/// panics. Detection otherwise rests on the monotonicity audit (maxed
/// across every in-flight query of the attempt), the final O(V+E)
/// audit of the scored answer, and panic capture. Rung 2 is a
/// fault-free synchronous rerun on a fresh device.
///
/// The scenarios the conformance sweeps fly through this — a pooled
/// query, a mid-batch query on several streams, a cache replay on the
/// traffic tier — live with their entry ids in `rdbs-conformance`.
///
/// [`ServiceError`]: crate::service::ServiceError
pub fn run_service_recovered(
    graph: &Csr,
    source: VertexId,
    config: ServiceConfig,
    fault: Option<FaultSpec>,
    attempt: impl FnOnce(&mut SsspService) -> Result<SsspResult, String>,
) -> RecoveredRun {
    let device_config = config.device.clone();
    let delta0 = config.delta0;
    let mut service = SsspService::new(graph, config);
    warm_up(&mut service, source);
    if let Some(spec) = fault {
        service.arm_faults(spec);
    }
    let attempt = catch_unwind(AssertUnwindSafe(|| attempt(&mut service)));
    let (injections, fault_events) = service.disarm_faults().unwrap_or((0, Vec::new()));
    let (attempt, panic) = match attempt {
        Ok(Ok(result)) => (Some((result, service.last_audit_hits())), None),
        Ok(Err(detected)) => (None, Some(detected)),
        Err(payload) => (None, Some(panic_text(payload.as_ref()))),
    };
    let rerun = move |graph: &Csr, source: VertexId| {
        let mut fresh = Device::new(device_config.clone());
        let cfg = RdbsConfig { delta0, ..RdbsConfig::sync_delta() };
        run_gpu_on(&mut fresh, graph, source, Variant::Rdbs(cfg)).result
    };
    finish(
        graph,
        source,
        fault,
        injections,
        fault_events,
        attempt,
        panic,
        &rerun,
        RecoveryBudget::default(),
    )
}

/// The fault-free warm-up every service scenario opens with: one
/// query on the source after `source`, so the scored attempt runs on
/// recycled pooled buffers.
pub fn warm_up(service: &mut SsspService, source: VertexId) {
    let n = service.num_vertices() as u32;
    if n > 1 {
        let _ = service.query((source + 1) % n);
    }
}

/// Run the multi-GPU entry point under `fault` (armed on device 0),
/// audit, and recover. Rung 2 is a fault-free multi rerun.
pub fn run_multi_recovered(
    graph: &Csr,
    source: VertexId,
    config: &MultiGpuConfig,
    fault: Option<FaultSpec>,
) -> RecoveredRun {
    let attempt =
        catch_unwind(AssertUnwindSafe(|| multi_gpu_sssp_faulted(graph, source, config, fault)));
    let (attempt, injections, fault_events, panic) = match attempt {
        Ok(run) => (Some((run.result, 0)), run.fault_injections, run.fault_events, None),
        Err(payload) => (None, 0, Vec::new(), Some(panic_text(payload.as_ref()))),
    };
    let rerun = |graph: &Csr, source: VertexId| multi_gpu_sssp(graph, source, config).result;
    finish(
        graph,
        source,
        fault,
        injections,
        fault_events,
        attempt,
        panic,
        &rerun,
        RecoveryBudget::default(),
    )
}

/// Shared detection + ladder. `attempt` is the faulted attempt's
/// result plus its monotonicity-hit count (`None` if it panicked);
/// `rerun` is the fault-free rung-2 entry.
#[allow(clippy::too_many_arguments)]
fn finish(
    graph: &Csr,
    source: VertexId,
    fault: Option<FaultSpec>,
    injections: u64,
    fault_events: Vec<FaultEvent>,
    attempt: Option<(SsspResult, usize)>,
    panic: Option<String>,
    rerun: &dyn Fn(&Csr, VertexId) -> SsspResult,
    budget: RecoveryBudget,
) -> RecoveredRun {
    let mut report = RecoveryReport {
        fault,
        injections,
        fault_events,
        monotonicity_hits: 0,
        flagged: 0,
        panic,
        steps: Vec::new(),
        budget,
        outcome: RecoveryOutcome::Clean,
    };
    let mut rungs_used = 0u32;

    // ---- Detection ----
    let mut best = match attempt {
        Some((result, mono_hits)) => {
            report.monotonicity_hits = mono_hits;
            let audit = audit_sssp(graph, source, &result.dist);
            report.flagged = audit.flagged.len();
            if audit.is_clean() && mono_hits == 0 {
                return RecoveredRun { result, report };
            }
            // ---- Rung 1: bounded repair sweep ----
            if rungs_used >= budget.max_rungs {
                return exhaust(graph, source, Some(result), report);
            }
            rungs_used += 1;
            let mut repaired = result;
            let (rounds, relaxations, clean) = repair_sweep(
                graph,
                source,
                &mut repaired.dist,
                &audit.flagged,
                budget.repair_rounds,
            );
            report.steps.push(RecoveryStep::RepairSweep { rounds, relaxations, clean });
            if clean {
                report.outcome = RecoveryOutcome::Recovered;
                return RecoveredRun { result: repaired, report };
            }
            Some(repaired)
        }
        None => None, // panicked: no distances to repair
    };

    // ---- Rung 2: fault-free rerun of a synchronous variant ----
    if rungs_used >= budget.max_rungs {
        return exhaust(graph, source, best, report);
    }
    rungs_used += 1;
    match catch_unwind(AssertUnwindSafe(|| rerun(graph, source))) {
        Ok(rr) => {
            let clean = audit_sssp(graph, source, &rr.dist).is_clean();
            report.steps.push(RecoveryStep::SyncRerun { clean });
            if clean {
                report.outcome = RecoveryOutcome::Recovered;
                return RecoveredRun { result: rr, report };
            }
            best = Some(rr);
        }
        Err(_) => {
            report.steps.push(RecoveryStep::SyncRerun { clean: false });
        }
    }

    // ---- Rung 3: graceful degradation ----
    if rungs_used >= budget.max_rungs {
        return exhaust(graph, source, best, report);
    }
    report.steps.push(RecoveryStep::SequentialFallback);
    report.outcome = RecoveryOutcome::Degraded;
    RecoveredRun { result: dijkstra(graph, source), report }
}

/// Budget ran out before any rung certified an answer: end in the typed
/// [`RecoveryOutcome::Exhausted`], carrying the best uncertified
/// distances seen so far (or an all-`INF` placeholder when the attempt
/// panicked and no rung produced anything).
fn exhaust(
    graph: &Csr,
    source: VertexId,
    best: Option<SsspResult>,
    mut report: RecoveryReport,
) -> RecoveredRun {
    report.outcome = RecoveryOutcome::Exhausted;
    let result = best.unwrap_or_else(|| {
        let mut dist = vec![INF; graph.num_vertices()];
        dist[source as usize] = 0;
        SsspResult { source, dist, stats: UpdateStats::default() }
    });
    RecoveredRun { result, report }
}

/// Rung 1: reset the flagged vertices to `INF` (uncorrupted values are
/// kept as seeds) and re-relax over all edges, Bellman-Ford style,
/// until a fixpoint or the round budget. Never increases a kept value,
/// so an intact prefix of the solution is preserved. Returns
/// `(rounds, relaxations, audit-clean)`.
fn repair_sweep(
    graph: &Csr,
    source: VertexId,
    dist: &mut [Dist],
    flagged: &[VertexId],
    round_budget: u32,
) -> (u32, u64, bool) {
    for &v in flagged {
        dist[v as usize] = INF;
    }
    dist[source as usize] = if flagged.contains(&source) { 0 } else { dist[source as usize] };
    let mut rounds = 0u32;
    let mut relaxations = 0u64;
    while rounds < round_budget {
        rounds += 1;
        let mut changed = false;
        for (u, v, w) in graph.all_edges() {
            let du = dist[u as usize];
            if du == INF {
                continue;
            }
            let nd = saturating_relax(du, w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                relaxations += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let clean = audit_sssp(graph, source, dist).is_clean();
    (rounds, relaxations, clean)
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_against_dijkstra;
    use rdbs_gpu_sim::FaultModel;
    use rdbs_graph::builder::build_undirected;
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn graph(seed: u64) -> Csr {
        let mut el = erdos_renyi(120, 600, seed);
        uniform_weights(&mut el, seed + 9);
        build_undirected(&el)
    }

    fn tiny() -> DeviceConfig {
        DeviceConfig::test_tiny()
    }

    /// The pooled attempt: one query on the warmed service.
    fn pooled(source: VertexId) -> impl FnOnce(&mut SsspService) -> Result<SsspResult, String> {
        move |svc| svc.try_query(source).map_err(|e| e.to_string())
    }

    #[test]
    fn fault_free_run_is_clean() {
        let g = graph(1);
        let run = run_gpu_recovered(&g, 0, Variant::Rdbs(RdbsConfig::full()), tiny(), None);
        assert_eq!(run.report.outcome, RecoveryOutcome::Clean);
        assert!(run.report.steps.is_empty());
        assert!(!run.report.detected());
        check_against_dijkstra(&g, 0, &run.result.dist).unwrap();
    }

    #[test]
    fn dropped_atomics_are_never_silently_wrong() {
        let g = graph(2);
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let run =
                run_gpu_recovered(&g, 0, Variant::Rdbs(RdbsConfig::full()), tiny(), Some(spec));
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
        }
    }

    #[test]
    fn bit_flips_are_detected_and_recovered() {
        let g = graph(3);
        let mut detected_any = false;
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::BitFlip, 0.002, seed);
            let run =
                run_gpu_recovered(&g, 0, Variant::Rdbs(RdbsConfig::full()), tiny(), Some(spec));
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
            detected_any |= run.report.detected();
        }
        assert!(detected_any, "no seed produced a detectable flip");
    }

    #[test]
    fn repair_sweep_fixes_local_corruption() {
        let g = graph(4);
        let oracle = dijkstra(&g, 0);
        let mut dist = oracle.dist.clone();
        // Corrupt three vertices both ways.
        dist[10] = dist[10].saturating_add(1_000);
        dist[20] = dist[20].saturating_sub(dist[20].min(3));
        dist[30] = 0;
        let audit = audit_sssp(&g, 0, &dist);
        assert!(!audit.is_clean());
        let (_, _, clean) = repair_sweep(&g, 0, &mut dist, &audit.flagged, REPAIR_ROUNDS);
        assert!(clean);
        assert_eq!(dist, oracle.dist);
    }

    #[test]
    fn multi_gpu_message_loss_recovers() {
        let g = graph(5);
        let config = MultiGpuConfig {
            num_devices: 2,
            device: tiny(),
            interconnect_gbps: 50.0,
            exchange_latency_us: 5.0,
            delta0: None,
        };
        for seed in 0..3 {
            let spec = FaultSpec::new(FaultModel::LostMessage, 0.5, seed);
            let run = run_multi_recovered(&g, 0, &config, Some(spec));
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
        }
    }

    #[test]
    fn service_pooled_queries_are_never_silently_wrong() {
        // The faulted query runs on recycled pooled buffers (after a
        // fault-free warm-up) — reuse must not weaken the guarantee.
        let g = graph(7);
        let mut detected_any = false;
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let run =
                run_service_recovered(&g, 0, ServiceConfig::rdbs(tiny()), Some(spec), pooled(0));
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
            detected_any |= run.report.detected();
        }
        assert!(detected_any, "no seed tripped a detector on the pooled path");
    }

    #[test]
    fn concurrent_batches_are_never_silently_wrong() {
        // Faults land while three queries are in flight (the scored
        // one mid-batch) across four command streams — interleaved bucket execution must not
        // weaken the zero-silent-wrong guarantee for the scored query.
        let g = graph(10);
        let mut detected_any = false;
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let config = ServiceConfig::rdbs(tiny()).with_streams(4);
            let run = run_service_recovered(&g, 0, config, Some(spec), |svc| {
                Ok(svc.batch(&[2, 0, 3]).swap_remove(1))
            });
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
            detected_any |= run.report.detected();
        }
        assert!(detected_any, "no seed tripped a detector under concurrency");
    }

    #[test]
    fn service_fault_free_run_is_clean() {
        let g = graph(8);
        let run = run_service_recovered(&g, 3, ServiceConfig::rdbs(tiny()), None, pooled(3));
        assert_eq!(run.report.outcome, RecoveryOutcome::Clean);
        assert!(!run.report.detected());
        check_against_dijkstra(&g, 3, &run.result.dist).unwrap();
    }

    #[test]
    fn persistent_faults_exhaust_the_ladder_without_lying() {
        // A directed path running *against* CSR edge order (source at
        // the high end) under a total atomic-min drop: rung 1's
        // Bellman-Ford gains one vertex per round, so the 199-hop
        // diameter defeats its 32-round budget, and with the spec
        // re-armed the rung-2 rerun is corrupt too. The audit must
        // reject that rerun and degrade to Dijkstra — the persistent-
        // fault cell is kept honest by the gate, not a fault-free
        // retry.
        let mut el = rdbs_graph::builder::EdgeList::new(200);
        for i in 0..199u32 {
            el.push(i + 1, i, 1);
        }
        let g = rdbs_graph::builder::build_directed(&el);
        let source = 199;
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let run = run_gpu_recovered_refault(
            &g,
            source,
            Variant::Rdbs(RdbsConfig::full()),
            tiny(),
            Some(spec),
        );
        check_against_dijkstra(&g, source, &run.result.dist)
            .unwrap_or_else(|m| panic!("{m}\n{}", run.report));
        assert!(
            run.report.steps.iter().any(|s| matches!(s, RecoveryStep::SyncRerun { clean: false })),
            "refaulted rerun was not exercised or came back clean:\n{}",
            run.report
        );
        assert_eq!(run.report.outcome, RecoveryOutcome::Degraded, "{}", run.report);

        // Moderate persistent rates must also never be silently wrong.
        let g = graph(9);
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let run = run_gpu_recovered_refault(
                &g,
                0,
                Variant::Rdbs(RdbsConfig::full()),
                tiny(),
                Some(spec),
            );
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
        }
    }

    #[test]
    fn exhausted_budget_yields_typed_outcome_not_a_lie() {
        // Same adversarial 199-hop path as the persistent-fault test:
        // the rung-1 sweep cannot certify within its round budget, so a
        // one-rung budget must end in the typed `Exhausted` outcome
        // after exactly one (dirty) repair-sweep step — never a silent
        // wrong answer and never an implicit extra rung.
        let mut el = rdbs_graph::builder::EdgeList::new(200);
        for i in 0..199u32 {
            el.push(i + 1, i, 1);
        }
        let g = rdbs_graph::builder::build_directed(&el);
        let source = 199;
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let budget = RecoveryBudget { max_rungs: 1, repair_rounds: REPAIR_ROUNDS };
        let run = run_gpu_recovered_budgeted(
            &g,
            source,
            Variant::Rdbs(RdbsConfig::full()),
            tiny(),
            Some(spec),
            budget,
        );
        assert_eq!(run.report.outcome, RecoveryOutcome::Exhausted, "{}", run.report);
        assert_eq!(run.report.budget, budget);
        assert_eq!(run.report.steps.len(), 1, "{}", run.report);
        assert!(
            matches!(run.report.steps[0], RecoveryStep::RepairSweep { clean: false, .. }),
            "{}",
            run.report
        );
        assert!(run.report.to_string().contains("exhausted"), "{}", run.report);

        // The default budget reaches a certifying rung on the same input.
        let full =
            run_gpu_recovered(&g, source, Variant::Rdbs(RdbsConfig::full()), tiny(), Some(spec));
        check_against_dijkstra(&g, source, &full.result.dist)
            .unwrap_or_else(|m| panic!("{m}\n{}", full.report));
        assert_eq!(full.report.outcome, RecoveryOutcome::Recovered, "{}", full.report);

        // And an explicit default budget is behaviourally identical to
        // the unbudgeted entry point.
        let dflt = run_gpu_recovered_budgeted(
            &g,
            source,
            Variant::Rdbs(RdbsConfig::full()),
            tiny(),
            Some(spec),
            RecoveryBudget::default(),
        );
        assert_eq!(dflt.result.dist, full.result.dist);
        assert_eq!(dflt.report.outcome, full.report.outcome);
        assert_eq!(dflt.report.steps, full.report.steps);
    }

    #[test]
    fn report_displays_the_ladder() {
        let g = graph(6);
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let run = run_gpu_recovered(&g, 0, Variant::Rdbs(RdbsConfig::full()), tiny(), Some(spec));
        let text = run.report.to_string();
        assert!(text.contains("outcome:"), "{text}");
        assert!(text.contains("dropped-atomic"), "{text}");
    }
}
