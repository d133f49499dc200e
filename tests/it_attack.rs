//! Integration: adversary campaigns against the full ESP datapath.
//!
//! Attacks operate on real wire bytes (recorded ciphertext), not
//! abstract sequence numbers: forgery, truncation, bit flips, cross-SA
//! splicing, reflection, and massed replay during every protocol phase.

use bytes::Bytes;
use reset_ipsec::{GatewayEvent, Inbound, Outbound};
use reset_ipsec::{IpsecError, RxResult, SaKeys, SecurityAssociation};
use reset_stable::MemStable;
use system_tests::{drive_traffic, peer_pair, push_one, reset_and_notify, PAIR_SPI};

fn endpoints(k: u64) -> (Outbound<MemStable>, Inbound<MemStable>) {
    let keys = SaKeys::derive(b"attack-secret", b"p->q");
    let sa = SecurityAssociation::new(0x77, keys);
    (
        Outbound::new(sa.clone(), MemStable::new(), k),
        Inbound::new(sa, MemStable::new(), k, 64),
    )
}

#[test]
fn massed_replay_at_every_phase() {
    let (mut tx, mut rx) = endpoints(10);
    let mut recorded = Vec::new();
    for i in 0..50u32 {
        let w = tx.protect(format!("m{i}").as_bytes()).unwrap().unwrap();
        recorded.push(w.clone());
        rx.process(&w).unwrap();
    }
    rx.save_completed().unwrap();

    // Phase 1: replay against a live receiver.
    for w in &recorded {
        assert!(
            !rx.process(w).unwrap().is_delivered(),
            "live replay accepted"
        );
    }
    // Phase 2: replay against a down receiver (drops, then still safe).
    rx.reset();
    for w in &recorded {
        assert_eq!(rx.process(w).unwrap(), RxResult::DroppedDown);
    }
    // Phase 3: replay during the wake-up SAVE (buffered, then rejected).
    rx.begin_wakeup().unwrap();
    for w in recorded.iter().take(10) {
        assert_eq!(rx.process(w).unwrap(), RxResult::Buffered);
    }
    let resolved = rx.finish_wakeup().unwrap();
    assert_eq!(resolved.len(), 10);
    assert!(
        resolved.iter().all(|r| !r.is_delivered()),
        "buffered replay accepted: {resolved:?}"
    );
    // Phase 4: replay after full recovery.
    for w in &recorded {
        assert!(
            !rx.process(w).unwrap().is_delivered(),
            "post-recovery replay"
        );
    }
}

#[test]
fn forgery_and_tampering_rejected_before_window() {
    let (mut tx, mut rx) = endpoints(10);
    let w = tx.protect(b"genuine").unwrap().unwrap();
    rx.process(&w).unwrap();
    let edge_before = rx.seq_state().right_edge();

    // Flip every byte in turn: authentication must fail and the window
    // must be untouched (RFC 2406 ordering).
    for i in 0..w.len() {
        let mut bad = w.to_vec();
        bad[i] ^= 0x80;
        assert!(
            rx.process(&Bytes::from(bad)).is_err(),
            "tamper at byte {i} accepted"
        );
    }
    assert_eq!(
        rx.seq_state().right_edge(),
        edge_before,
        "window touched by forgeries"
    );
    // SPI-byte flips fail as UnknownSa before any crypto runs; the other
    // 27 positions all fail authentication.
    assert_eq!(rx.auth_failures(), w.len() as u64 - 4);

    // Truncations.
    for cut in [0usize, 1, 7, 11, w.len() - 1] {
        assert!(
            rx.process(&w.slice(..cut)).is_err(),
            "truncation to {cut} accepted"
        );
    }
}

#[test]
fn sequence_number_forgery_cannot_shift_window() {
    // The §3 both-reset attack needed a *recorded* high-sequence packet.
    // Here the adversary instead forges one with seq = 1,000,000: the ICV
    // must stop it, so the window edge never moves.
    let (mut tx, mut rx) = endpoints(10);
    let w = tx.protect(b"x").unwrap().unwrap();
    rx.process(&w).unwrap();
    let mut forged = w.to_vec();
    forged[4..8].copy_from_slice(&1_000_000u32.to_be_bytes());
    assert!(matches!(
        rx.process(&Bytes::from(forged)),
        Err(IpsecError::Wire(reset_wire::WireError::IcvMismatch))
    ));
    assert_eq!(rx.seq_state().right_edge().value(), 1);
}

#[test]
fn cross_sa_splicing_rejected() {
    // Bytes recorded on one SA replayed into another (same SPI rewritten):
    // different keys ⇒ ICV failure; different SPI ⇒ unknown SA.
    let (mut tx_a, _) = endpoints(10);
    let keys_b = SaKeys::derive(b"attack-secret", b"other-sa");
    let sa_b = SecurityAssociation::new(0x88, keys_b);
    let mut rx_b = Inbound::new(sa_b, MemStable::new(), 10, 64);

    let w = tx_a.protect(b"for sa a").unwrap().unwrap();
    // Unmodified: wrong SPI for rx_b.
    assert!(matches!(
        rx_b.process(&w),
        Err(IpsecError::UnknownSa { spi: 0x77 })
    ));
    // SPI rewritten to B's: now the ICV (computed under A's key) fails.
    let mut spliced = w.to_vec();
    spliced[0..4].copy_from_slice(&0x88u32.to_be_bytes());
    assert!(matches!(
        rx_b.process(&Bytes::from(spliced)),
        Err(IpsecError::Wire(reset_wire::WireError::IcvMismatch))
    ));
}

#[test]
fn reflection_attack_rejected() {
    // A→B traffic reflected back at A: A's inbound SA holds the B→A
    // keys, so reflected bytes never authenticate.
    let (mut a, mut b) = peer_pair(10, 64);
    let recorded = drive_traffic(&mut a, &mut b, 10);
    for w in &recorded {
        assert_eq!(
            push_one(&mut a, w),
            GatewayEvent::AuthFailed { spi: PAIR_SPI },
            "reflection accepted"
        );
    }
}

#[test]
fn replayed_recovery_notify_cannot_reset_peer_state() {
    let (mut a, mut b) = peer_pair(10, 64);
    drive_traffic(&mut a, &mut b, 30);
    drive_traffic(&mut b, &mut a, 30);
    b.save_completed().unwrap();

    let notify = reset_and_notify(&mut b);
    assert!(matches!(
        push_one(&mut a, &notify),
        GatewayEvent::Delivered { .. }
    ));
    let edge_after_notify = a.right_edge(PAIR_SPI);

    // The adversary replays the notify 100 times: every copy rejected,
    // edge unmoved — the paper's closing-attack defence.
    for _ in 0..100 {
        assert!(matches!(
            push_one(&mut a, &notify),
            GatewayEvent::ReplayDropped { .. }
        ));
    }
    assert_eq!(a.right_edge(PAIR_SPI), edge_after_notify);
}

#[test]
fn adversary_cannot_extend_sa_lifetime_with_replays() {
    use reset_ipsec::SaLifetime;
    // Usage accounting only advances on *delivered* packets, so replays
    // cannot burn (or stretch) the SA lifetime.
    let keys = SaKeys::derive(b"attack-secret", b"lt");
    let sa = SecurityAssociation::new(0x9, keys).with_lifetime(SaLifetime {
        max_packets: 1_000,
        max_bytes: u64::MAX,
    });
    let mut tx = Outbound::new(sa.clone(), MemStable::new(), 10);
    let mut rx = Inbound::new(sa, MemStable::new(), 10, 64);
    let w = tx.protect(b"once").unwrap().unwrap();
    rx.process(&w).unwrap();
    let used_before = rx.sa().usage().packets;
    for _ in 0..50 {
        let _ = rx.process(&w).unwrap();
    }
    assert_eq!(
        rx.sa().usage().packets,
        used_before,
        "replays charged the SA"
    );
}
