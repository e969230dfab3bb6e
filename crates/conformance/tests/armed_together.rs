//! Property: the sanitizer and the IR recorder are two consumers of
//! one access-event stream, so arming both on one device changes
//! neither's output. Violations, the access profile's rankings and the
//! static verifier's certificates must equal those from arming each
//! one alone — on a single-device RDBS entry (`gpu/full`) and on the
//! concurrent resident service (`service/concurrent`), for every
//! frontier layout.

use rdbs_conformance::entries::{find, run, Probe};
use rdbs_conformance::graphs::quick_families;
use rdbs_core::gpu::FrontierKind;
use rdbs_gpu_sim::{AccessIr, AccessProfile, SanViolation};

/// Which consumers a run arms.
#[derive(Clone, Copy)]
struct Arm {
    san: bool,
    ir: bool,
}

/// Everything an armed run leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    dist: Vec<u32>,
    violations: Option<(Vec<SanViolation>, u64)>,
    rankings: Option<String>,
    certificates: Option<String>,
}

fn rankings(p: &AccessProfile) -> String {
    format!(
        "contended {:?}\noverlap {:?}\nbuffers {:?}\nloaded {:?}\nkernels {:?}\nwaves {} words {}",
        p.hottest_contended(16),
        p.overlap_sites(16),
        p.hottest_buffers(16),
        p.hottest_loaded(16),
        p.kernel_windows(),
        p.waves(),
        p.words_touched(),
    )
}

/// The statan analysis of every device's IR, rendered in full:
/// verdicts, sanctions, findings with their witnesses, queue bounds.
fn certificates(irs: &[AccessIr]) -> String {
    irs.iter().map(|ir| format!("{:?}\n", rdbs_statan::verify(ir))).collect()
}

/// One entry of the shared table, run with `arm`'s flags as the probe.
fn observe(
    id: &str,
    graph: &rdbs_core::Csr,
    source: u32,
    frontier: FrontierKind,
    arm: Arm,
) -> Observed {
    let entry = find(id).expect("entry id").with_frontier(frontier);
    let run = run(&entry, graph, source, None, Probe { san: arm.san, ir: arm.ir, perm_seed: None });
    Observed {
        dist: run.result.dist,
        violations: arm.san.then_some((run.violations, run.san_total)),
        rankings: run.profile.as_ref().map(rankings),
        certificates: arm.ir.then(|| certificates(&run.irs)),
    }
}

fn assert_both_armed_equals_each_alone(name: &str) {
    let family = &quick_families()[0];
    let graph = family.build();
    let source = family.sources(graph.num_vertices())[0];
    for frontier in FrontierKind::ALL {
        let san = observe(name, &graph, source, frontier, Arm { san: true, ir: false });
        let ir = observe(name, &graph, source, frontier, Arm { san: false, ir: true });
        let both = observe(name, &graph, source, frontier, Arm { san: true, ir: true });
        assert!(san.rankings.is_some() && ir.certificates.is_some(), "{name}@{frontier}");
        assert_eq!(both.dist, san.dist, "{name}@{frontier}: arming moved the answer");
        assert_eq!(both.dist, ir.dist, "{name}@{frontier}: arming moved the answer");
        assert_eq!(both.violations, san.violations, "{name}@{frontier}: violations moved");
        assert_eq!(both.rankings, san.rankings, "{name}@{frontier}: profile rankings moved");
        assert_eq!(both.certificates, ir.certificates, "{name}@{frontier}: certificates moved");
    }
}

#[test]
fn gpu_entry_reports_the_same_armed_together() {
    assert_both_armed_equals_each_alone("gpu/full");
}

#[test]
fn concurrent_service_reports_the_same_armed_together() {
    assert_both_armed_equals_each_alone("service/concurrent");
}
