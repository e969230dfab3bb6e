//! Property: the sanitizer and the IR recorder are two consumers of
//! one access-event stream, so arming both on one device changes
//! neither's output. Violations, the access profile's rankings and the
//! static verifier's certificates must equal those from arming each
//! one alone — on a single-device RDBS entry (`gpu/full`) and on the
//! concurrent resident service (`service/concurrent`), for every
//! frontier layout.

use rdbs_conformance::graphs::quick_families;
use rdbs_core::gpu::{run_gpu_on, FrontierKind, RdbsConfig, Variant};
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::{AccessIr, AccessProfile, Device, DeviceConfig, SanConfig, SanViolation};

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

/// `gpu/full` on one device.
fn gpu_full(graph: &Csr, source: VertexId, frontier: FrontierKind, arm: Arm) -> Observed {
    let mut device = Device::new(DeviceConfig::test_tiny());
    if arm.san {
        device.arm_sanitizer(SanConfig::default());
    }
    if arm.ir {
        device.arm_ir();
    }
    let variant = Variant::Rdbs(RdbsConfig::full().with_frontier(frontier));
    let run = run_gpu_on(&mut device, graph, source, variant);
    Observed {
        dist: run.result.dist,
        violations: arm.san.then(|| (device.san_violations().to_vec(), device.san_total())),
        rankings: device.san_profile().map(rankings),
        certificates: device.take_ir().map(|ir| certificates(&[ir])),
    }
}

/// `service/concurrent`: four sources in flight on four streams.
fn service_concurrent(graph: &Csr, source: VertexId, frontier: FrontierKind, arm: Arm) -> Observed {
    let config =
        ServiceConfig::rdbs(DeviceConfig::test_tiny()).with_streams(4).with_frontier(frontier);
    let mut svc = SsspService::new(graph, config);
    if arm.san {
        svc.arm_sanitizer(SanConfig::default());
    }
    if arm.ir {
        svc.arm_ir();
    }
    let n = graph.num_vertices();
    let other = |k: usize| VertexId::try_from((source as usize + k) % n).expect("fits");
    let mut results = svc.batch(&[source, other(1), other(2), other(3)]);
    Observed {
        dist: results.swap_remove(0).dist,
        violations: arm.san.then(|| (svc.san_violations(), svc.san_total())),
        rankings: svc.san_profile().map(rankings),
        certificates: arm.ir.then(|| certificates(&svc.take_irs())),
    }
}

fn assert_both_armed_equals_each_alone(
    name: &str,
    run: impl Fn(&Csr, VertexId, FrontierKind, Arm) -> Observed,
) {
    let family = &quick_families()[0];
    let graph = family.build();
    let source = family.sources(graph.num_vertices())[0];
    for frontier in FrontierKind::ALL {
        let san = run(&graph, source, frontier, Arm { san: true, ir: false });
        let ir = run(&graph, source, frontier, Arm { san: false, ir: true });
        let both = run(&graph, source, frontier, Arm { san: true, ir: true });
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
    assert_both_armed_equals_each_alone("gpu/full", gpu_full);
}

#[test]
fn concurrent_service_reports_the_same_armed_together() {
    assert_both_armed_equals_each_alone("service/concurrent", service_concurrent);
}
