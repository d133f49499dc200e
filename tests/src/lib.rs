//! Shared helpers for the cross-crate integration tests.
//!
//! These tests span the whole stack — protocol core, IPsec datapath,
//! channel faults, APN semantics, the experiment harness — so common
//! builders live here rather than being copy-pasted per test file.

use bytes::Bytes;
use reset_ipsec::{Gateway, GatewayBuilder, GatewayEvent, RxResult, Sadb};
use reset_stable::{MemStable, StableStore};

/// The SPI of the SA pair [`peer_pair`] installs.
pub const PAIR_SPI: u32 = 0xA2B;

/// Builds a bidirectional gateway pair (`A ⇄ B`) over one SA pair with
/// direction-separated keys and fresh in-memory persistent stores, save
/// interval `k` and window size `w`.
pub fn peer_pair(k: u64, w: u64) -> (Gateway<MemStable>, Gateway<MemStable>) {
    peer_pair_from(|| GatewayBuilder::in_memory().save_interval(k).window(w))
}

/// [`peer_pair`] with both hosts' engine policy taken from `builder`
/// (e.g. to arm DPD).
pub fn peer_pair_from(
    builder: impl Fn() -> GatewayBuilder<MemStable>,
) -> (Gateway<MemStable>, Gateway<MemStable>) {
    let mut a = builder().build();
    let mut b = builder().build();
    a.add_peer_between(PAIR_SPI, b"it-master", b"a", b"b");
    b.add_peer_between(PAIR_SPI, b"it-master", b"b", b"a");
    (a, b)
}

/// Seals `payload` on `gw`'s half of the pair.
pub fn send(gw: &mut Gateway<MemStable>, payload: &[u8]) -> Bytes {
    gw.protect(PAIR_SPI, payload)
        .expect("datapath")
        .expect("endpoint up")
        .wire
}

/// `gw` crashes, wakes via FETCH + leap and announces itself: returns
/// the §6 recovery notify — simply its first protected frame after
/// [`Gateway::recover`].
pub fn reset_and_notify(gw: &mut Gateway<MemStable>) -> Bytes {
    gw.reset();
    gw.recover().expect("mem store");
    gw.poll_events();
    send(gw, b"recovered")
}

/// One frame through [`Gateway::push_wire`]; returns its verdict (any
/// events already queued are drained with it and must not exist).
pub fn push_one(gw: &mut Gateway<MemStable>, wire: &Bytes) -> GatewayEvent {
    gw.push_wire(wire).expect("verdicts are events");
    let mut events = gw.poll_events();
    assert_eq!(events.len(), 1, "one event per frame: {events:?}");
    events.remove(0)
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
pub fn drive_traffic(a: &mut Gateway<MemStable>, b: &mut Gateway<MemStable>, n: u32) -> Vec<Bytes> {
    (0..n)
        .map(|i| {
            let wire = send(a, format!("pkt-{i}").as_bytes());
            let ev = push_one(b, &wire);
            assert!(
                matches!(ev, GatewayEvent::Delivered { .. }),
                "packet {i}: {ev:?}"
            );
            wire
        })
        .collect()
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
