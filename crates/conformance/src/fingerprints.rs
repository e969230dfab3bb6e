//! Committed model fingerprints: the mechanical "no model change"
//! check.
//!
//! [`compute`] runs every device-backed entry of the one entry table
//! ([`crate::entries::table`]) on every frontier layout, plus the
//! paper's Fig. 8 variants on the V100 preset, over two fixed small
//! graphs, and hashes each run's distances, counters, kernel reports
//! and simulated latencies into one 64-bit [`rdbs_gpu_sim::Fingerprint`].
//! The result is committed as [`PATH`]; a tier-1 test recomputes it
//! and fails on any difference. A change that moves the model on
//! purpose rewrites the file with `rdbs-cli fingerprints --write` and
//! names the changed keys.

use std::collections::BTreeMap;

use crate::analyze::parse_baseline;
use crate::entries::{self, Probe};
use crate::graphs::families;
use rdbs_core::gpu::{run_gpu, FrontierKind, Variant};
use rdbs_gpu_sim::{DeviceConfig, Fingerprint};

/// The committed fingerprint file, relative to the repository root.
pub const PATH: &str = "results/FINGERPRINTS.json";

/// The graph families fingerprinted: Kronecker skew (hubs, child
/// launches, the medium and large lists) and the high-diameter grid
/// (many buckets, small lists).
const FAMILIES: [&str; 2] = ["kronecker", "grid"];

/// Every fingerprint, keyed `family/entry@frontier` for the entry
/// table and `family/fig8/LABEL@v100` for the Fig. 8 variants, each
/// value a 16-digit hex hash. Deterministic.
pub fn compute() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for family in families().into_iter().filter(|f| FAMILIES.contains(&f.name)) {
        let graph = family.build();
        let source = family.sources(graph.num_vertices())[0];
        for entry in entries::table() {
            for kind in FrontierKind::ALL {
                let observed = entries::run(
                    &entry.with_frontier(kind),
                    &graph,
                    source,
                    None,
                    Probe::default(),
                );
                let key = format!("{}/{}@{}", family.name, entry.id, kind.name());
                out.insert(key, format!("{:016x}", observed.fingerprint));
            }
        }
        for variant in Variant::fig8_variants() {
            let run = run_gpu(&graph, source, variant, DeviceConfig::v100());
            let mut fp = Fingerprint::default();
            fp.words(&run.result.dist);
            fp.counters(&run.counters);
            fp.f64(run.elapsed_ms);
            let key = format!("{}/fig8/{}@v100", family.name, variant.label());
            out.insert(key, format!("{:016x}", fp.value()));
        }
    }
    out
}

/// The fingerprint file for `map`, one `"key": "hash"` pair per line.
pub fn to_json(map: &BTreeMap<String, String>) -> String {
    let mut out = String::from("{\n  \"format\": \"rdbs-fingerprints-v1\",\n  \"fingerprints\": {");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{k}\": \"{v}\""));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Every key whose hash differs between the committed file's text and
/// `actual`, or that only one side has, one line each. Empty when the
/// model is unchanged.
pub fn diff(committed: &str, actual: &BTreeMap<String, String>) -> Vec<String> {
    let expected = parse_baseline(committed);
    let mut lines = Vec::new();
    for (k, want) in &expected {
        match actual.get(k) {
            Some(got) if got == want => {}
            Some(got) => lines.push(format!("changed {k}: {want} -> {got}")),
            None => lines.push(format!("missing {k} (committed {want})")),
        }
    }
    for (k, got) in actual {
        if !expected.contains_key(k) {
            lines.push(format!("new {k}: {got}"));
        }
    }
    lines
}
