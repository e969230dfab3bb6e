//! The implementation registry: every public SSSP entry point in the
//! workspace, addressable by a stable string id and runnable through
//! one uniform signature `(graph, source, Δ₀) → SsspResult`.
//!
//! The differential runner enumerates [`all()`]; the CLI and the
//! shrinker look entries up with [`by_id()`]. A deliberately broken
//! implementation ([`FAULT_OFF_BY_ONE`]) is kept out of [`all()`] and
//! exists to demonstrate (and regression-test) the shrinker and
//! localizer end to end.

use crate::entries::{self, Entry, EntryKind, Probe};
use rdbs_core::gpu::{FrontierKind, Variant};
use rdbs_core::stats::{SsspResult, UpdateStats};
use rdbs_core::{cpu, default_delta, saturating_relax, seq, Csr, VertexId, Weight, INF};
use rdbs_gpu_sim::{Device, DeviceConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Worker count for the CPU-parallel implementations (kept small so
/// the full matrix stays fast and deterministic to schedule).
const THREADS: usize = 2;

/// Id of the deliberately broken implementation (an off-by-one loop
/// bound that skips the last out-edge of every vertex).
pub const FAULT_OFF_BY_ONE: &str = "fault/off-by-one";

/// Which layer of the workspace an implementation lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Sequential references (`rdbs-core::seq`).
    Seq,
    /// Native-thread CPU implementations (`rdbs-core::cpu`).
    Cpu,
    /// Simulated-GPU RDBS and its ablations (`rdbs-core::gpu`).
    Gpu,
    /// The multi-GPU port.
    MultiGpu,
    /// The resident batched service (`rdbs-core::service`).
    Service,
    /// Comparators (`rdbs-baselines`).
    Baseline,
    /// The graph-framework integration (`rdbs-framework`).
    Framework,
    /// Deliberately broken (shrinker/localizer self-test only).
    Fault,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Dijkstra,
    BellmanFord,
    Dial,
    DeltaStepping,
    CpuParallel,
    CpuAsync,
    /// A simulated-GPU, multi-GPU or service entry from the one entry
    /// table ([`crate::entries`]).
    Device(Entry),
    Adds,
    NearFar,
    FrontierBf,
    PqDelta,
    RhoStepping,
    SepGraph,
    Framework,
    FaultOffByOne,
}

/// One runnable SSSP entry point.
#[derive(Clone, Copy, Debug)]
pub struct Implementation {
    /// Stable id, `family/name` (e.g. `gpu/basyn-pro`).
    pub id: &'static str,
    pub family: Family,
    kind: Kind,
}

impl Implementation {
    /// Run this entry on the given frontier layout (where it has one;
    /// non-RDBS entries ignore it).
    #[must_use]
    pub fn with_frontier(mut self, frontier: FrontierKind) -> Self {
        if let Kind::Device(entry) = &mut self.kind {
            *entry = entry.with_frontier(frontier);
        }
        self
    }

    /// Run this implementation. `delta0` overrides the bucket width
    /// where the algorithm has one (ignored otherwise); `None` uses
    /// each implementation's own default.
    pub fn run(&self, graph: &Csr, source: VertexId, delta0: Option<Weight>) -> SsspResult {
        let delta = || delta0.unwrap_or_else(|| default_delta(graph)).max(1);
        match self.kind {
            Kind::Dijkstra => seq::dijkstra(graph, source),
            Kind::BellmanFord => seq::bellman_ford(graph, source),
            Kind::Dial => seq::dial(graph, source),
            Kind::DeltaStepping => seq::delta_stepping(graph, source, delta()),
            Kind::CpuParallel => cpu::parallel_delta_stepping(graph, source, delta(), THREADS),
            Kind::CpuAsync => cpu::async_bucket_sssp(graph, source, delta(), THREADS),
            Kind::Device(entry) => {
                entries::run(&entry, graph, source, delta0, Probe::default()).result
            }
            Kind::Adds => {
                let mut device = Device::new(DeviceConfig::test_tiny());
                rdbs_baselines::adds(&mut device, graph, source, delta())
            }
            Kind::NearFar => {
                let mut device = Device::new(DeviceConfig::test_tiny());
                rdbs_baselines::near_far(&mut device, graph, source, delta())
            }
            Kind::FrontierBf => {
                let mut device = Device::new(DeviceConfig::test_tiny());
                rdbs_baselines::frontier_bf(&mut device, graph, source)
            }
            Kind::PqDelta => rdbs_baselines::pq_delta_stepping(graph, source, THREADS, None),
            Kind::RhoStepping => rdbs_baselines::rho_stepping(graph, source, THREADS, 0.3),
            Kind::SepGraph => {
                let mut device = Device::new(DeviceConfig::test_tiny());
                rdbs_baselines::sep_graph(&mut device, graph, source).0
            }
            Kind::Framework => {
                rdbs_framework::algorithms::sssp(DeviceConfig::test_tiny(), graph, source).0
            }
            Kind::FaultOffByOne => faulty_dijkstra_off_by_one(graph, source),
        }
    }

    /// Whether the localizer's relaxation tracing covers this
    /// implementation (the instrumented kernels live in
    /// `seq::delta_stepping`, `gpu::rdbs`, and — via the sharded
    /// sink's worker handles — `cpu::parallel_delta` and
    /// `cpu::async_bucket`).
    pub fn traced(&self) -> bool {
        matches!(
            self.kind,
            Kind::DeltaStepping
                | Kind::Device(Entry { kind: EntryKind::Gpu(Variant::Rdbs(_)), .. })
                | Kind::CpuParallel
                | Kind::CpuAsync
        )
    }
}

/// Every conforming entry point, in registry order. The Dijkstra
/// oracle itself is included as a self-check of the harness.
pub fn all() -> Vec<Implementation> {
    use Family::*;
    let imp = |id, family, kind| Implementation { id, family, kind };
    let device = |entry: Entry| {
        let family = match entry.kind {
            EntryKind::Gpu(_) | EntryKind::GpuRefault(_) => Gpu,
            EntryKind::MultiGpu(_) => MultiGpu,
            EntryKind::Service(_) => Service,
        };
        imp(entry.id, family, Kind::Device(entry))
    };
    let mut v = vec![
        imp("seq/dijkstra", Seq, Kind::Dijkstra),
        imp("seq/bellman-ford", Seq, Kind::BellmanFord),
        imp("seq/dial", Seq, Kind::Dial),
        imp("seq/delta-stepping", Seq, Kind::DeltaStepping),
        imp("cpu/parallel-delta", Cpu, Kind::CpuParallel),
        imp("cpu/async-bucket", Cpu, Kind::CpuAsync),
    ];
    v.extend(entries::select(entries::VERIFY, &None, None).into_iter().map(device));
    v.extend([
        imp("baseline/adds", Baseline, Kind::Adds),
        imp("baseline/near-far", Baseline, Kind::NearFar),
        imp("baseline/frontier-bf", Baseline, Kind::FrontierBf),
        imp("baseline/pq-delta", Baseline, Kind::PqDelta),
        imp("baseline/rho-stepping", Baseline, Kind::RhoStepping),
        imp("baseline/sep-graph", Baseline, Kind::SepGraph),
        imp("framework/sssp", Framework, Kind::Framework),
    ]);
    v
}

/// [`all()`] plus the deliberately broken implementation.
pub fn with_faults() -> Vec<Implementation> {
    let mut v = all();
    v.push(Implementation {
        id: FAULT_OFF_BY_ONE,
        family: Family::Fault,
        kind: Kind::FaultOffByOne,
    });
    v
}

/// Look an implementation up by its exact id (including faults).
pub fn by_id(id: &str) -> Option<Implementation> {
    with_faults().into_iter().find(|i| i.id == id)
}

/// Dijkstra with a classic off-by-one loop bound: the last out-edge of
/// every vertex with two or more neighbours is never relaxed. Kept as
/// a live fault specimen so the shrinker and localizer are exercised
/// against a real wrong answer, not a mock.
fn faulty_dijkstra_off_by_one(graph: &Csr, source: VertexId) -> SsspResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![INF; n];
    let mut stats = UpdateStats::default();
    let mut heap: BinaryHeap<Reverse<(u32, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        let degree = graph.degree(u) as usize;
        // BUG (intentional): `degree - 1` drops the final edge.
        for (v, w) in graph.edges(u).take(degree.saturating_sub(1)) {
            let nd = saturating_relax(d, w);
            stats.checks += 1;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                stats.total_updates += 1;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    SsspResult { source, dist, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_graph::builder::{build_undirected, EdgeList};

    #[test]
    fn ids_are_unique_and_resolvable() {
        let impls = with_faults();
        for (i, a) in impls.iter().enumerate() {
            for b in &impls[i + 1..] {
                assert_ne!(a.id, b.id, "duplicate id");
            }
            assert_eq!(by_id(a.id).unwrap().id, a.id);
        }
        assert!(by_id("no/such-impl").is_none());
    }

    #[test]
    fn every_registered_impl_solves_a_path() {
        let el = EdgeList::from_edges(4, (0..3).map(|i| (i, i + 1, 2)).collect());
        let g = build_undirected(&el);
        for imp in all() {
            let r = imp.run(&g, 0, None);
            assert_eq!(r.dist, vec![0, 2, 4, 6], "{}", imp.id);
        }
    }

    #[test]
    fn fault_specimen_is_actually_wrong() {
        // A star: vertex 0 connects to 1, 2, 3. The faulty Dijkstra
        // drops 0's last edge, so one leaf stays unreachable.
        let el = EdgeList::from_edges(4, vec![(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let g = build_undirected(&el);
        let r = by_id(FAULT_OFF_BY_ONE).unwrap().run(&g, 0, None);
        let oracle = seq::dijkstra(&g, 0);
        assert_ne!(r.dist, oracle.dist);
    }
}
