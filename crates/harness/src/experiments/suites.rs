//! suites — sweep every negotiable cipher suite through the real ESP
//! datapath.
//!
//! The paper treats the cipher as a black box (its argument needs only
//! unforgeability), but the reproduction's per-message budget is
//! dominated by exactly that box. This experiment opens the suite axis:
//! for each [`CryptoSuite`] it measures seal and verify+window+decrypt
//! wall time per packet — packet-at-a-time and through the batched
//! drain whose ICV verification is amortized per SA
//! ([`reset_crypto::CipherSuite::verify_batch`]) — plus the wire
//! overhead the suite's ICV size costs.

use std::time::Instant;

use reset_ipsec::{CryptoSuite, Inbound, Outbound, SaKeys, SecurityAssociation};
use reset_stable::MemStable;

use crate::report::Table;

/// Measurements for one suite.
#[derive(Debug, Clone)]
pub struct SuiteRecord {
    /// The measured suite.
    pub suite: CryptoSuite,
    /// Suite name as reported by its transform.
    pub name: &'static str,
    /// Header + IV + ICV bytes added to every packet.
    pub overhead_bytes: usize,
    /// Seal cost per packet (ns).
    pub protect_ns: f64,
    /// Receive cost per packet, one frame per call (a batch of one, ns).
    pub process_ns: f64,
    /// Batched-drain receive cost per packet (ns).
    pub batch_ns: f64,
}

/// Runs one suite over `packets` packets of `payload_len` bytes.
///
/// # Panics
///
/// Panics if any packet fails to deliver — the sweep measures the happy
/// path and every suite must sustain it.
pub fn run(suite: CryptoSuite, packets: usize, payload_len: usize) -> SuiteRecord {
    assert!(packets > 0);
    let keys = SaKeys::derive(b"suite-sweep", b"d");
    let sa = SecurityAssociation::new(0x5EED, keys).with_suite(suite);
    let name = sa.cipher().name();
    let payload = vec![0xAB; payload_len];

    let mut tx = Outbound::new(sa.clone(), MemStable::new(), 1 << 40);
    let t0 = Instant::now();
    let wires: Vec<_> = (0..packets)
        .map(|_| tx.protect(&payload).unwrap().expect("endpoint up"))
        .collect();
    let protect_ns = t0.elapsed().as_nanos() as f64 / packets as f64;
    let overhead_bytes = wires[0].len() - payload_len;

    let mut rx = Inbound::new(sa.clone(), MemStable::new(), 1 << 40, 1024);
    let t0 = Instant::now();
    for w in &wires {
        assert!(rx.process(w).unwrap().is_delivered());
    }
    let process_ns = t0.elapsed().as_nanos() as f64 / packets as f64;

    let mut rx_batch = Inbound::new(sa, MemStable::new(), 1 << 40, 1024);
    let t0 = Instant::now();
    let results = rx_batch.process_batch(&wires).unwrap();
    let batch_ns = t0.elapsed().as_nanos() as f64 / packets as f64;
    assert!(results.iter().all(|r| r.is_delivered()));

    SuiteRecord {
        suite,
        name,
        overhead_bytes,
        protect_ns,
        process_ns,
        batch_ns,
    }
}

/// Renders the suite sweep for all negotiable suites.
pub fn table(packets: usize, payload_len: usize) -> Table {
    let mut t = Table::new(
        format!("suites: cipher-suite sweep over the ESP datapath ({payload_len}B payloads)"),
        &[
            "suite",
            "wire overhead",
            "protect",
            "process",
            "process_batch",
        ],
    );
    for &suite in CryptoSuite::ALL {
        let r = run(suite, packets, payload_len);
        t.row_owned(vec![
            r.name.to_string(),
            format!("{}B", r.overhead_bytes),
            format!("{:.0}ns", r.protect_ns),
            format!("{:.0}ns", r.process_ns),
            format!("{:.0}ns", r.batch_ns),
        ]);
    }
    t.note(format!(
        "{packets} packets per cell, single SA, window 1024, ESN on"
    ));
    t.note(
        "process is one frame per call (a batch of one); process_batch drains all packets at once",
    );
    t.note("both verify ICVs through CipherSuite::verify_batch (amortized per SA run)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_sustains_traffic() {
        for &suite in CryptoSuite::ALL {
            let r = run(suite, 200, 64);
            assert!(r.protect_ns > 0.0, "{:?}", suite);
            assert!(r.process_ns > 0.0, "{:?}", suite);
        }
    }

    #[test]
    fn overheads_reflect_icv_sizes() {
        let legacy = run(CryptoSuite::HmacSha256WithKeystream, 50, 64);
        let aead = run(CryptoSuite::ChaCha20Poly1305, 50, 64);
        // 16-byte Poly1305 tag vs 12-byte truncated HMAC.
        assert_eq!(aead.overhead_bytes, legacy.overhead_bytes + 4);
    }

    #[test]
    fn table_has_one_row_per_suite() {
        let t = table(100, 64);
        assert_eq!(t.len(), CryptoSuite::ALL.len());
        // Default preference order: the AEAD leads with its 16-byte tag.
        assert_eq!(t.cell(0, 0), Some("chacha20-poly1305"));
        assert_eq!(t.cell(0, 1), Some("28B"));
        assert_eq!(t.cell(1, 0), Some("hmac-sha256-keystream"));
        assert_eq!(t.cell(1, 1), Some("24B"));
    }
}
