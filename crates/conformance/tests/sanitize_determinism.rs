//! Property: sanitizer output is deterministic. The simulator is
//! sequential and the sanitizer's shadow state is updated in program
//! order, so the same (entry, graph, source) cell must render a
//! byte-identical violation report on every run — that is what makes
//! `rdbs-cli sanitize` reports replayable evidence rather than a
//! flaky signal.

use proptest::prelude::*;
use rdbs_conformance::entries::{select, SANITIZE};
use rdbs_conformance::graphs::quick_families;
use rdbs_conformance::sanitize::{planted_race_specimen, run_cell};
use rdbs_core::seq::dijkstra;

/// Render everything observable about a cell, violations included,
/// exactly as a report consumer would see it.
fn render(cell: &rdbs_conformance::SanCell) -> String {
    let mut out = format!(
        "{} {} source {} total {} mismatch {:?} panic {:?}\n",
        cell.entry_id, cell.graph, cell.source, cell.total, cell.mismatch, cell.panic
    );
    for v in &cell.violations {
        out.push_str(&format!("  {v}\n"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn sanitizer_reports_are_byte_identical_across_runs(
        entry_pick in 0usize..64,
        family_pick in 0usize..64,
        source_pick in 0usize..8,
    ) {
        let entries = select(SANITIZE, &None, None);
        let entry = &entries[entry_pick % entries.len()];
        let families = quick_families();
        let family = &families[family_pick % families.len()];
        let graph = family.build();
        let sources = family.sources(graph.num_vertices());
        let source = sources[source_pick % sources.len()];
        let oracle = dijkstra(&graph, source);

        let first = render(&run_cell(entry, &graph, &oracle.dist, source));
        let second = render(&run_cell(entry, &graph, &oracle.dist, source));
        prop_assert_eq!(first, second);
    }
}

/// The planted-race specimen is the one cell guaranteed to produce
/// violations, so it pins down determinism of non-empty reports.
#[test]
fn specimen_report_is_byte_identical_across_runs() {
    let render =
        |vs: &[rdbs_gpu_sim::SanViolation]| vs.iter().map(|v| format!("{v}\n")).collect::<String>();
    let first = render(&planted_race_specimen());
    let second = render(&planted_race_specimen());
    assert!(!first.is_empty(), "specimen produced no violations");
    assert_eq!(first, second);
}
