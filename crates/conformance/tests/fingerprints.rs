//! The committed model fingerprints must match the model: any change
//! to distances, counters, kernel reports or simulated latencies of a
//! fingerprinted run fails here. Refresh on purpose with
//! `rdbs-cli fingerprints --write` and name the changed keys.

use rdbs_conformance::fingerprints;

#[test]
fn committed_fingerprints_match_the_model() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../", "results/FINGERPRINTS.json");
    let committed = std::fs::read_to_string(path).expect("results/FINGERPRINTS.json is committed");
    let drift = fingerprints::diff(&committed, &fingerprints::compute());
    assert!(drift.is_empty(), "model fingerprints drifted:\n{}", drift.join("\n"));
}
