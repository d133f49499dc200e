//! Shared helpers for the cross-crate integration tests.
//!
//! These tests span the whole stack — protocol core, IPsec datapath,
//! channel faults, APN semantics, the experiment harness — so common
//! builders live here rather than being copy-pasted per test file.

use bytes::Bytes;
use reset_ipsec::{DpdConfig, IpsecPeer, RxResult, SaKeys, Sadb, SecurityAssociation};
use reset_stable::{MemStable, StableStore};

/// Builds a bidirectional peer pair (`A ⇄ B`) with fresh in-memory
/// persistent stores, save interval `k` and window size `w`.
pub fn peer_pair(k: u64, w: u64) -> (IpsecPeer<MemStable>, IpsecPeer<MemStable>) {
    let keys_ab = SaKeys::derive(b"it-master", b"a->b");
    let keys_ba = SaKeys::derive(b"it-master", b"b->a");
    let a = IpsecPeer::new(
        "A",
        SecurityAssociation::new(0xA2B, keys_ab.clone()),
        SecurityAssociation::new(0xB2A, keys_ba.clone()),
        MemStable::new(),
        MemStable::new(),
        k,
        w,
        DpdConfig::default(),
    );
    let b = IpsecPeer::new(
        "B",
        SecurityAssociation::new(0xB2A, keys_ba),
        SecurityAssociation::new(0xA2B, keys_ab),
        MemStable::new(),
        MemStable::new(),
        k,
        w,
        DpdConfig::default(),
    );
    (a, b)
}

/// One frame through the SADB's receive verb, [`Sadb::process_batch`]:
/// a batch of one.
pub fn process_one<S: StableStore>(db: &mut Sadb<S>, wire: &Bytes) -> RxResult {
    let mut results = db
        .process_batch(std::slice::from_ref(wire))
        .expect("failures are reported in-line");
    results.pop().expect("one result per frame")
}

/// Drives `n` packets A→B, asserting delivery, and returns the recorded
/// wire bytes (what an adversary would have captured).
pub fn drive_traffic(
    a: &mut IpsecPeer<MemStable>,
    b: &mut IpsecPeer<MemStable>,
    n: u32,
) -> Vec<Bytes> {
    let mut recorded = Vec::new();
    for i in 0..n {
        let wire = a
            .send_data(format!("pkt-{i}").as_bytes())
            .expect("datapath")
            .expect("endpoint up");
        recorded.push(wire.clone());
        let ev = b.handle_wire(&wire, i as u64).expect("authenticated");
        assert!(
            matches!(ev, reset_ipsec::PeerEvent::Data(_)),
            "packet {i}: {ev:?}"
        );
    }
    recorded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_working_pair() {
        let (mut a, mut b) = peer_pair(10, 64);
        let recorded = drive_traffic(&mut a, &mut b, 5);
        assert_eq!(recorded.len(), 5);
    }
}
