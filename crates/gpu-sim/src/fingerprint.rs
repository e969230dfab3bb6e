//! Model fingerprints: one FNV-1a hash over everything a run of the
//! model produced.
//!
//! A change that should leave the model alone (a faster replay, a new
//! trace layout) must leave every distance, counter, kernel report
//! and simulated latency bit-identical. Hashing them all into one
//! 64-bit value per run turns that into a diff of short strings: the
//! conformance crate fingerprints a fixed set of runs and a tier-1 test
//! compares them against the committed `results/FINGERPRINTS.json`.
//! The hash is the same FNV-1a the standalone benchmark prints.

use crate::counters::{Counters, KernelReport};
use crate::device::Device;

/// A running FNV-1a (64-bit) hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Fold in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in an `f64` by its bit pattern (bit-identical, not close).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold in a length-prefixed word array (distances).
    pub fn words(&mut self, words: &[u32]) {
        self.u64(words.len() as u64);
        for &w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    /// Fold in a length-prefixed series of floats (latencies).
    pub fn series(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    /// Fold in every counter (through `Debug`, so a new counter field
    /// is covered without touching this function).
    pub fn counters(&mut self, c: &Counters) {
        self.bytes(format!("{c:?}").as_bytes());
    }

    /// Fold in a kernel-report sequence, every field of every report.
    pub fn reports(&mut self, reports: &[KernelReport]) {
        self.u64(reports.len() as u64);
        for r in reports {
            self.bytes(r.name.as_bytes());
            self.u64(r.threads);
            self.u64(r.warp_instructions);
            self.u64(r.atomics);
            self.f64(r.compute_ns);
            self.f64(r.memory_ns);
            self.f64(r.total_ns);
            self.u64(u64::from(r.child) | u64::from(r.stream) << 1);
        }
    }

    /// Fold in a device's counters, kernel reports and simulated clock.
    pub fn device(&mut self, d: &Device) {
        self.counters(d.counters());
        self.reports(d.reports());
        self.f64(d.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fingerprint::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fingerprint::default();
        h.bytes(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fingerprint::default();
        h.bytes(b"foobar");
        assert_eq!(h.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn float_bits_matter() {
        let hash = |x: f64| {
            let mut h = Fingerprint::default();
            h.f64(x);
            h.value()
        };
        assert_ne!(hash(0.0), hash(-0.0));
        assert_ne!(hash(1.0), hash(1.0 + f64::EPSILON));
    }
}
