//! The chaos matrix: every device fault model × recovered entry point
//! × graph family, with one invariant — **no silent wrong answer**.
//!
//! Each cell runs an SSSP entry point through the detect-and-recover
//! layer ([`rdbs_core::recover`]) with a seeded [`FaultSpec`] armed,
//! then grades the *final* distances against the Dijkstra oracle:
//!
//! * **Correct** — the answer matches, either because the run was
//!   clean, the faults happened to be benign, or a recovery-ladder
//!   rung repaired them (the cell records which);
//! * **Error** — the cell raised an explicit error instead of
//!   answering (a panic that escaped the harness). Loud failure is an
//!   acceptable outcome; lying is not;
//! * **SilentWrong** — wrong distances presented as good. This is the
//!   invariant violation the matrix exists to rule out, and the only
//!   verdict that makes a sweep red.
//!
//! Message-channel fault models only apply to the multi-GPU entry
//! point; on single-device entries they have no injection sites and
//! are skipped rather than swept as trivially-clean cells.
//!
//! The entries are ids in the one entry table ([`crate::entries`]),
//! run through [`entries::run_recovered`]; a service id flies the same
//! scenario here that the sanitizer, IR and schedule-fuzz sweeps fly.
//!
//! The `gpu/refault` entry re-arms the same fault spec on the rung-2
//! recovery rerun (persistent-fault semantics), so the recovery path
//! itself executes under fire: the ladder's audit gate on the rerun's
//! output — not fault-free luck — is what keeps that cell honest.

use crate::entries::{self, substring, Entry};
use crate::graphs::{self, GraphCase};
use rdbs_core::gpu::FrontierKind;
use rdbs_core::recover::{RecoveryOutcome, RecoveryReport};
use rdbs_core::seq::dijkstra;
use rdbs_core::validate::{check_against, Mismatch};
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::{FaultModel, FaultSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-model default injection rate: high enough that faults actually
/// land on the small matrix graphs, low enough that runs terminate.
/// (`BitFlip` corrupts persistently and can hit row offsets, so it is
/// kept rare; the drop/duplicate models need many opportunities to
/// matter.)
pub fn default_rate(model: FaultModel) -> f64 {
    match model {
        FaultModel::BitFlip => 0.002,
        FaultModel::DroppedAtomicMin => 0.25,
        FaultModel::DuplicatedAtomicMin => 0.25,
        FaultModel::FailedChildLaunch => 0.25,
        FaultModel::StaleRead => 0.1,
        FaultModel::LostMessage => 0.4,
        FaultModel::DuplicatedMessage => 0.4,
        FaultModel::ReorderedMessage => 0.4,
    }
}

/// What to sweep.
#[derive(Clone, Debug, Default)]
pub struct ChaosOptions {
    /// Reduced sweep: quick graph families, two entries, one seed.
    pub quick: bool,
    /// Only fault models whose name contains this substring.
    pub model_filter: Option<String>,
    /// Only entries whose id contains this substring.
    pub entry_filter: Option<String>,
    /// Only families whose name contains this substring.
    pub graph_filter: Option<String>,
    /// Override every model's default injection rate.
    pub rate: Option<f64>,
    /// Fault seeds to sweep; empty picks the defaults (`[1]` quick,
    /// `[1, 2]` full). A single explicit seed replays one schedule.
    pub seeds: Vec<u64>,
    /// Run every RDBS-backed entry on this frontier layout
    /// (`--frontier`); `None` keeps each entry's own.
    pub frontier: Option<FrontierKind>,
}

impl ChaosOptions {
    fn effective_seeds(&self) -> Vec<u64> {
        if !self.seeds.is_empty() {
            self.seeds.clone()
        } else if self.quick {
            vec![1]
        } else {
            vec![1, 2]
        }
    }
}

/// How a cell's final answer graded against the oracle.
#[derive(Clone, Debug)]
pub enum CellVerdict {
    /// Final distances match Dijkstra.
    Correct,
    /// The cell errored out loudly instead of answering.
    Error(String),
    /// Wrong distances presented as good — the invariant violation.
    SilentWrong(Mismatch),
}

impl std::fmt::Display for CellVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellVerdict::Correct => write!(f, "correct"),
            CellVerdict::Error(msg) => write!(f, "explicit error: {msg}"),
            CellVerdict::SilentWrong(m) => write!(f, "SILENT WRONG ANSWER: {m}"),
        }
    }
}

/// One (entry, model, graph, seed) cell of the chaos matrix.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    pub entry_id: &'static str,
    pub model: FaultModel,
    pub graph: &'static str,
    pub source: VertexId,
    pub seed: u64,
    pub rate: f64,
    /// The recovery evidence (`None` only when the cell errored before
    /// the recovery layer could report).
    pub report: Option<RecoveryReport>,
    pub verdict: CellVerdict,
}

impl ChaosCell {
    /// Whether any detector fired on the faulted attempt.
    pub fn detected(&self) -> bool {
        self.report.as_ref().is_some_and(rdbs_core::recover::RecoveryReport::detected)
    }

    pub fn outcome(&self) -> Option<RecoveryOutcome> {
        self.report.as_ref().map(|r| r.outcome)
    }

    pub fn injections(&self) -> u64 {
        self.report.as_ref().map_or(0, |r| r.injections)
    }
}

/// Outcome of a chaos sweep.
#[derive(Debug, Default)]
pub struct ChaosReport {
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// Green iff no cell returned a silently wrong answer. Explicitly
    /// errored cells stay green: the guarantee is about lying, not
    /// about surviving every fault.
    pub fn is_green(&self) -> bool {
        self.silent_wrong().next().is_none()
    }

    /// The violating cells, if any.
    pub fn silent_wrong(&self) -> impl Iterator<Item = &ChaosCell> {
        self.cells.iter().filter(|c| matches!(c.verdict, CellVerdict::SilentWrong(_)))
    }

    /// Cell counts: `(clean, recovered, degraded, errored, silent_wrong)`.
    pub fn tally(&self) -> (usize, usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0, 0);
        for c in &self.cells {
            match (&c.verdict, c.outcome()) {
                (CellVerdict::SilentWrong(_), _) => t.4 += 1,
                (CellVerdict::Error(_), _) => t.3 += 1,
                (_, Some(RecoveryOutcome::Clean)) => t.0 += 1,
                (_, Some(RecoveryOutcome::Recovered)) => t.1 += 1,
                (_, Some(RecoveryOutcome::Degraded)) => t.2 += 1,
                // Exhausted cells are always graded `Error` by
                // `run_cell`, so this arm is unreachable in practice —
                // kept exhaustive so a new outcome can't slip through.
                (_, Some(RecoveryOutcome::Exhausted)) | (_, None) => t.3 += 1,
            }
        }
        t
    }
}

/// Run one chaos cell and grade it.
pub fn run_cell(
    entry: &Entry,
    graph: &Csr,
    oracle_dist: &[u32],
    source: VertexId,
    spec: FaultSpec,
) -> (Option<RecoveryReport>, CellVerdict) {
    let attempt =
        catch_unwind(AssertUnwindSafe(|| entries::run_recovered(entry, graph, source, Some(spec))));
    match attempt {
        Ok(run) => grade_run(oracle_dist, run),
        Err(payload) => (None, CellVerdict::Error(crate::runner::panic_message(payload.as_ref()))),
    }
}

/// Grade a completed recovered run against the oracle. An
/// [`RecoveryOutcome::Exhausted`] run carries best-effort,
/// *uncertified* distances — it is graded as a loud error before any
/// oracle comparison, so an exhausted ladder can never be mistaken for
/// (or graded as) a silent wrong answer.
pub(crate) fn grade_run(
    oracle_dist: &[u32],
    run: rdbs_core::recover::RecoveredRun,
) -> (Option<RecoveryReport>, CellVerdict) {
    let verdict = if run.report.outcome == RecoveryOutcome::Exhausted {
        CellVerdict::Error(format!("recovery budget exhausted ({})", run.report.budget))
    } else {
        match check_against(oracle_dist, &run.result.dist) {
            Ok(()) => CellVerdict::Correct,
            Err(m) => CellVerdict::SilentWrong(m),
        }
    };
    (Some(run.report), verdict)
}

/// Sweep the chaos matrix. `progress` is called once per cell as it
/// completes; pass a no-op closure when output is unwanted.
pub fn run_chaos(opts: &ChaosOptions, mut progress: impl FnMut(&ChaosCell)) -> ChaosReport {
    let ids = if opts.quick { entries::CHAOS_QUICK } else { entries::CHAOS };
    let entries = entries::select(ids, &opts.entry_filter, opts.frontier);
    let families: Vec<GraphCase> =
        if opts.quick { graphs::quick_families() } else { graphs::families() }
            .into_iter()
            .filter(|g| substring(&opts.graph_filter, g.name))
            .collect();
    let models: Vec<FaultModel> =
        FaultModel::ALL.into_iter().filter(|m| substring(&opts.model_filter, m.name())).collect();
    let seeds = opts.effective_seeds();

    let mut report = ChaosReport::default();
    for family in &families {
        let graph = family.build();
        let source = family.sources(graph.num_vertices())[0];
        let oracle = dijkstra(&graph, source);
        for entry in &entries {
            for &model in &models {
                if model.is_message_model() && !entry.carries_messages() {
                    continue;
                }
                let rate = opts.rate.unwrap_or_else(|| default_rate(model));
                for &seed in &seeds {
                    let spec = FaultSpec::new(model, rate, seed);
                    let (cell_report, verdict) =
                        run_cell(entry, &graph, &oracle.dist, source, spec);
                    let cell = ChaosCell {
                        entry_id: entry.id,
                        model,
                        graph: family.name,
                        source,
                        seed,
                        rate,
                        report: cell_report,
                        verdict,
                    };
                    progress(&cell);
                    report.cells.push(cell);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{by_id, FAULT_OFF_BY_ONE};
    use rdbs_core::validate::audit_sssp;

    /// The acceptance gate: the quick chaos matrix must have zero
    /// silently-wrong cells — every cell is oracle-correct (clean or
    /// recovered) or an explicit error.
    #[test]
    fn quick_chaos_matrix_has_no_silent_wrong_answers() {
        let report = run_chaos(&ChaosOptions { quick: true, ..Default::default() }, |_| {});
        assert!(!report.cells.is_empty());
        let wrong: Vec<String> = report
            .silent_wrong()
            .map(|c| {
                format!("{}/{} on {} seed {}: {}", c.entry_id, c.model, c.graph, c.seed, c.verdict)
            })
            .collect();
        assert!(report.is_green(), "silent wrong answers:\n{}", wrong.join("\n"));
    }

    /// At least one quick cell must actually detect and climb the
    /// ladder — otherwise the matrix proves nothing about recovery.
    #[test]
    fn quick_chaos_matrix_exercises_recovery() {
        let report = run_chaos(&ChaosOptions { quick: true, ..Default::default() }, |_| {});
        assert!(report.cells.iter().any(|c| c.injections() > 0), "no cell injected anything");
        assert!(
            report.cells.iter().any(super::ChaosCell::detected),
            "no cell detected a fault — rates too low to mean anything"
        );
    }

    #[test]
    fn filters_restrict_the_sweep() {
        let opts = ChaosOptions {
            quick: true,
            model_filter: Some("dropped-atomic".into()),
            entry_filter: Some("gpu/full".into()),
            graph_filter: Some("erdos".into()),
            seeds: vec![7],
            ..Default::default()
        };
        let report = run_chaos(&opts, |_| {});
        assert_eq!(report.cells.len(), 1);
        let c = &report.cells[0];
        assert_eq!(c.model, FaultModel::DroppedAtomicMin);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn chaos_cells_replay_deterministically() {
        let opts = ChaosOptions {
            quick: true,
            model_filter: Some("bit-flip".into()),
            entry_filter: Some("gpu/full".into()),
            seeds: vec![3],
            ..Default::default()
        };
        let a = run_chaos(&opts, |_| {});
        let b = run_chaos(&opts, |_| {});
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.injections(), y.injections());
            assert_eq!(x.detected(), y.detected());
            assert_eq!(x.outcome(), y.outcome());
        }
    }

    /// Regression: an exhausted recovery budget surfaces as a loud
    /// `Error` cell verdict — never compared against the oracle, never
    /// `SilentWrong`, even when the carried best-effort distances are
    /// wrong.
    #[test]
    fn exhausted_budget_grades_as_error_not_silent_wrong() {
        use rdbs_core::gpu::{RdbsConfig, Variant};
        use rdbs_core::recover::{run_gpu_recovered_budgeted, RecoveryBudget};
        use rdbs_gpu_sim::DeviceConfig;

        // The adversarial 199-hop path from the recover tests: rung 1
        // cannot certify inside its round budget, so one rung exhausts.
        let mut el = rdbs_graph::builder::EdgeList::new(200);
        for i in 0..199u32 {
            el.push(i + 1, i, 1);
        }
        let g = rdbs_graph::builder::build_directed(&el);
        let source = 199;
        let oracle = dijkstra(&g, source);
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let run = run_gpu_recovered_budgeted(
            &g,
            source,
            Variant::Rdbs(RdbsConfig::full()),
            DeviceConfig::test_tiny(),
            Some(spec),
            RecoveryBudget { max_rungs: 1, repair_rounds: 32 },
        );
        assert_eq!(run.report.outcome, RecoveryOutcome::Exhausted, "{}", run.report);
        assert_ne!(run.result.dist, oracle.dist, "exhausted run accidentally correct");
        let (report, verdict) = grade_run(&oracle.dist, run);
        assert!(
            matches!(&verdict, CellVerdict::Error(msg) if msg.contains("budget exhausted")),
            "expected a loud budget-exhausted error, got: {verdict}"
        );
        assert_eq!(report.unwrap().outcome, RecoveryOutcome::Exhausted);

        // And the tally counts it as an errored cell.
        let cell = ChaosCell {
            entry_id: "gpu/full",
            model: FaultModel::DroppedAtomicMin,
            graph: "path-199",
            source,
            seed: 0,
            rate: 1.0,
            report: None,
            verdict,
        };
        let report = ChaosReport { cells: vec![cell] };
        assert!(report.is_green());
        assert_eq!(report.tally(), (0, 0, 0, 1, 0));
    }

    /// The spill-path invariant: with faults landing while the
    /// under-provisioned MLMQ frontier spills across levels, no cell
    /// may present a wrong answer as good — every outcome is correct
    /// (possibly via a counted host fallback) or a loud error.
    #[test]
    fn faulted_mlmq_spill_is_never_silently_wrong() {
        let opts = ChaosOptions {
            quick: true,
            entry_filter: Some("mlmq-spill".into()),
            ..Default::default()
        };
        let report = run_chaos(&opts, |_| {});
        assert!(!report.cells.is_empty(), "the spill entry swept nothing");
        assert!(
            report.cells.iter().any(|c| c.injections() > 0),
            "no fault ever landed on the spill path"
        );
        let wrong: Vec<String> = report
            .silent_wrong()
            .map(|c| format!("{}/{}: {}", c.model, c.graph, c.verdict))
            .collect();
        assert!(report.is_green(), "faulted spill lied:\n{}", wrong.join("\n"));
    }

    /// The spill entry's under-provisioning must be absorbed by the
    /// level pair when no faults are armed: the batch completes
    /// without escalation and without host fallback, so a red spill
    /// cell can only ever be the fault's doing.
    #[test]
    fn spill_entry_config_is_clean_without_faults() {
        use crate::entries::spill_service_config;
        use rdbs_core::service::SsspService;

        for family in graphs::quick_families() {
            let graph = family.build();
            let source = family.sources(graph.num_vertices())[0];
            let oracle = dijkstra(&graph, source);
            let mut svc = SsspService::new(&graph, spill_service_config(graph.num_vertices()));
            let results = svc.batch(&[source, (source + 1) % graph.num_vertices() as u32]);
            check_against(&oracle.dist, &results[0].dist).unwrap();
            let stats = svc.stats();
            assert_eq!(stats.escalations, 0, "{}: MLMQ must spill, not escalate", family.name);
            assert_eq!(stats.fallbacks, 0, "{}: fault-free spill dropped work", family.name);
        }
    }

    /// `--frontier` reroutes every RDBS-backed entry: the quick sweep
    /// stays green on the MLMQ layout too.
    #[test]
    fn chaos_frontier_axis_stays_green() {
        let opts = ChaosOptions {
            quick: true,
            model_filter: Some("dropped-atomic".into()),
            entry_filter: Some("gpu/full".into()),
            graph_filter: Some("erdos".into()),
            frontier: Some(FrontierKind::Mlmq),
            ..Default::default()
        };
        let report = run_chaos(&opts, |_| {});
        assert!(!report.cells.is_empty());
        assert!(report.is_green(), "MLMQ frontier lied under faults");
    }

    /// Regression for the PR-1 fault specimen: the deliberately broken
    /// Dijkstra must be caught by the oracle-free audit alone — the
    /// detection layer cannot depend on having an oracle around.
    #[test]
    fn off_by_one_specimen_is_caught_by_the_audit() {
        let specimen = by_id(FAULT_OFF_BY_ONE).unwrap();
        let mut caught = false;
        for family in graphs::quick_families() {
            let g = family.build();
            let source = family.sources(g.num_vertices())[0];
            let r = specimen.run(&g, source, None);
            let audit = audit_sssp(&g, source, &r.dist);
            let oracle = dijkstra(&g, source);
            if r.dist != oracle.dist {
                assert!(
                    !audit.is_clean(),
                    "{}: specimen is wrong but the audit saw nothing",
                    family.name
                );
                caught = true;
            }
        }
        assert!(caught, "specimen never diverged on the quick families");
    }
}
