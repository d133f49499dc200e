//! Integration: §6 prolonged-reset recovery across the whole stack —
//! DPD, grace periods, secured notifies, and gateway-scale recovery.

use reset_ipsec::{
    rekey, CryptoSuite, DpdAction, DpdConfig, IpsecPeer, PeerEvent, RekeyRequest, RxResult, SaKeys,
    Sadb, SecurityAssociation,
};
use reset_stable::MemStable;
use system_tests::{drive_traffic, peer_pair, process_one};

#[test]
fn full_section6_timeline() {
    let dpd = DpdConfig {
        idle_timeout_ns: 1_000,
        probe_interval_ns: 500,
        max_probes: 2,
        grace_period_ns: 100_000,
    };
    let keys_ab = SaKeys::derive(b"s6", b"a->b");
    let keys_ba = SaKeys::derive(b"s6", b"b->a");
    let mut a = IpsecPeer::new(
        "A",
        SecurityAssociation::new(1, keys_ab.clone()),
        SecurityAssociation::new(2, keys_ba.clone()),
        MemStable::new(),
        MemStable::new(),
        10,
        64,
        dpd,
    );
    let mut b = IpsecPeer::new(
        "B",
        SecurityAssociation::new(2, keys_ba),
        SecurityAssociation::new(1, keys_ab),
        MemStable::new(),
        MemStable::new(),
        10,
        64,
        dpd,
    );

    // Traffic up to t=0; then B crashes.
    for i in 0..20u64 {
        let w = b.send_data(b"keepalive").unwrap().unwrap();
        a.handle_wire(&w, i).unwrap();
    }
    b.save_completed_out().unwrap();
    b.reset();

    // A probes, then enters grace; SAs stay alive.
    assert_eq!(a.dpd_mut().poll(2_000), DpdAction::SendProbe);
    assert_eq!(a.dpd_mut().poll(2_600), DpdAction::SendProbe);
    assert_eq!(a.dpd_mut().poll(3_200), DpdAction::PeerPresumedDown);
    assert!(a.dpd().in_grace());
    assert!(a.dpd().sas_alive());

    // B recovers within grace; A accepts and leaves grace.
    let notify = b.recover().unwrap();
    assert!(matches!(
        a.handle_wire(&notify, 10_000).unwrap(),
        PeerEvent::PeerRecovered { .. }
    ));
    assert!(!a.dpd().in_grace());
}

#[test]
fn grace_expiry_without_recovery_tears_down() {
    let dpd = DpdConfig {
        idle_timeout_ns: 1_000,
        probe_interval_ns: 500,
        max_probes: 1,
        grace_period_ns: 5_000,
    };
    let keys = SaKeys::derive(b"s6", b"x");
    let mut a = IpsecPeer::new(
        "A",
        SecurityAssociation::new(1, keys.clone()),
        SecurityAssociation::new(2, keys),
        MemStable::new(),
        MemStable::new(),
        10,
        64,
        dpd,
    );
    a.dpd_mut().on_traffic(0);
    assert_eq!(a.dpd_mut().poll(1_500), DpdAction::SendProbe);
    assert_eq!(a.dpd_mut().poll(2_100), DpdAction::PeerPresumedDown);
    // No recovery arrives: grace runs out, the paper's bounded wait ends.
    assert_eq!(a.dpd_mut().poll(8_000), DpdAction::TearDown);
    assert!(!a.dpd().sas_alive());
}

#[test]
fn both_peers_reset_and_both_recover() {
    let (mut a, mut b) = peer_pair(10, 64);
    drive_traffic(&mut a, &mut b, 25);
    drive_traffic(&mut b, &mut a, 25);
    a.save_completed_out().unwrap();
    a.save_completed_in().unwrap();
    b.save_completed_out().unwrap();
    b.save_completed_in().unwrap();

    a.reset();
    b.reset();
    let notify_a = a.recover().unwrap();
    let notify_b = b.recover().unwrap();
    // Each accepts the other's notify (leaps exceed all pre-reset seqs).
    assert!(matches!(
        b.handle_wire(&notify_a, 1).unwrap(),
        PeerEvent::PeerRecovered { .. }
    ));
    assert!(matches!(
        a.handle_wire(&notify_b, 1).unwrap(),
        PeerEvent::PeerRecovered { .. }
    ));
    // Bidirectional traffic converges again within 2K each way.
    fn converge(x: &mut IpsecPeer<MemStable>, y: &mut IpsecPeer<MemStable>) {
        let mut sacrificed = 0;
        loop {
            let w = x.send_data(b"resume").unwrap().unwrap();
            match y.handle_wire(&w, 2).unwrap() {
                PeerEvent::Data(_) => break,
                PeerEvent::Rejected => sacrificed += 1,
                other => panic!("{other:?}"),
            }
            assert!(sacrificed <= 20, "2K bound per direction");
        }
    }
    converge(&mut a, &mut b);
    converge(&mut b, &mut a);
}

#[test]
fn naive_reset_to_one_scheme_would_be_replayable() {
    // The paper's concluding remark: a special "let's both reset to 1"
    // message could itself be replayed. Our recovery notify is an
    // ordinary protected packet whose *sequence number* proves freshness,
    // so the attack surface is exactly the anti-replay window. Show that
    // even 1000 replays of old notifies never move the peer's window.
    let (mut a, mut b) = peer_pair(5, 64);
    drive_traffic(&mut b, &mut a, 15);
    b.save_completed_out().unwrap();

    let mut notifies = Vec::new();
    for _ in 0..3 {
        b.reset();
        notifies.push(b.recover().unwrap());
    }
    // Deliver them in order; each later notify has a strictly higher seq.
    let mut last_seq = 0;
    for n in &notifies {
        match a.handle_wire(n, 5).unwrap() {
            PeerEvent::PeerRecovered { seq } => {
                assert!(seq.value() > last_seq);
                last_seq = seq.value();
            }
            other => panic!("{other:?}"),
        }
    }
    // Massive replay of all old notifies: every copy rejected.
    let edge = a.inbound().seq_state().right_edge();
    for _ in 0..1_000 {
        for n in &notifies {
            assert_eq!(a.handle_wire(n, 6).unwrap(), PeerEvent::Rejected);
        }
    }
    assert_eq!(a.inbound().seq_state().right_edge(), edge);
}

#[test]
fn recovery_after_suite_change_converges_and_blocks_stale_suite_replays() {
    // A gateway rekeys one SA from the legacy suite to the AEAD suite,
    // then the whole host resets. SAVE/FETCH recovery must rescue the
    // *migrated* SA (counters only — the new suite and keys live in the
    // SADB, exactly the paper's point that only counters change per
    // packet), while frames recorded under the old suite stay dead.
    let spi = 0x900u32;
    let keys0 = SaKeys::derive(b"rec-mig", b"gen0");
    let sa0 = SecurityAssociation::new(spi, keys0).with_suite(CryptoSuite::HmacSha256WithKeystream);
    let mut db: Sadb<MemStable> = Sadb::new();
    db.install_outbound(sa0.clone(), MemStable::new(), 10);
    db.install_inbound(sa0, MemStable::new(), 10, 64);
    let mut stale = Vec::new();
    for i in 0..20u32 {
        let w = db
            .protect(spi, format!("old {i}").as_bytes())
            .unwrap()
            .unwrap();
        stale.push(w.clone());
        assert!(process_one(&mut db, &w).is_delivered());
    }

    // Rekey in place: tear down both directions, install the AEAD SA
    // under the same SPI with fresh stores (new number space).
    let migrated = rekey(&RekeyRequest {
        skeyid: b"rec-mig-skeyid".to_vec(),
        nonce_i: [1; 16],
        nonce_r: [2; 16],
        new_spi: spi,
        suite: CryptoSuite::ChaCha20Poly1305,
    })
    .sa;
    assert!(db.remove(spi).is_some());
    db.install_outbound(migrated.clone(), MemStable::new(), 10);
    db.install_inbound(migrated, MemStable::new(), 10, 64);

    // Traffic on the migrated SA, durably saved, then a host reset.
    for i in 0..15u32 {
        let w = db
            .protect(spi, format!("new {i}").as_bytes())
            .unwrap()
            .unwrap();
        assert!(process_one(&mut db, &w).is_delivered());
    }
    db.outbound_mut(spi).unwrap().save_completed().unwrap();
    db.inbound_mut(spi).unwrap().save_completed().unwrap();
    db.reset_all();
    assert_eq!(db.recover_all().unwrap(), 2);

    // Stale-suite recordings fail authentication outright (and do not
    // touch the window), post-recovery or not.
    for w in &stale {
        assert!(
            matches!(process_one(&mut db, w), RxResult::Rejected(_)),
            "stale-suite frame accepted"
        );
    }
    // Fresh AEAD traffic converges within the 2K + 2K leap budget.
    let mut tries = 0;
    loop {
        let w = db.protect(spi, b"post-recovery").unwrap().unwrap();
        if process_one(&mut db, &w).is_delivered() {
            break;
        }
        tries += 1;
        assert!(tries <= 40, "migrated SA never converged");
    }
}

#[test]
fn gateway_scale_recovery_mixed_suites_all_converge() {
    // Like gateway_scale_recovery_all_sas_converge, but the SAs cycle
    // through every negotiable suite — recovery is suite-agnostic.
    let n = 9u32;
    let mut db: Sadb<MemStable> = Sadb::new();
    for spi in 1..=n {
        let suite = CryptoSuite::ALL[(spi as usize - 1) % CryptoSuite::ALL.len()];
        let keys = SaKeys::derive(b"gw-mixed", &spi.to_be_bytes());
        let sa = SecurityAssociation::new(spi, keys).with_suite(suite);
        db.install_outbound(sa.clone(), MemStable::new(), 10);
        db.install_inbound(sa, MemStable::new(), 10, 64);
    }
    for spi in 1..=n {
        for _ in 0..(spi * 2) {
            let w = db.protect(spi, b"t").unwrap().unwrap();
            process_one(&mut db, &w);
        }
        db.outbound_mut(spi).unwrap().save_completed().unwrap();
        db.inbound_mut(spi).unwrap().save_completed().unwrap();
    }
    db.reset_all();
    assert_eq!(db.recover_all().unwrap(), 2 * n as usize);
    for spi in 1..=n {
        let mut tries = 0;
        loop {
            let w = db.protect(spi, b"post").unwrap().unwrap();
            if process_one(&mut db, &w).is_delivered() {
                break;
            }
            tries += 1;
            assert!(tries <= 40, "spi {spi} never converged");
        }
    }
}

#[test]
fn gateway_scale_recovery_all_sas_converge() {
    let n = 20u32;
    let mut db: Sadb<MemStable> = Sadb::new();
    for spi in 1..=n {
        let keys = SaKeys::derive(b"gw", &spi.to_be_bytes());
        let sa = SecurityAssociation::new(spi, keys);
        db.install_outbound(sa.clone(), MemStable::new(), 10);
        db.install_inbound(sa, MemStable::new(), 10, 64);
    }
    // Mixed traffic volume per SA so counters diverge.
    for spi in 1..=n {
        for _ in 0..(spi * 3) {
            let w = db.protect(spi, b"t").unwrap().unwrap();
            process_one(&mut db, &w);
        }
        db.outbound_mut(spi).unwrap().save_completed().unwrap();
        db.inbound_mut(spi).unwrap().save_completed().unwrap();
    }
    db.reset_all();
    assert_eq!(db.recover_all().unwrap(), 2 * n as usize);
    // Every SA converges within its own 2K + 2K.
    for spi in 1..=n {
        let mut tries = 0;
        loop {
            let w = db.protect(spi, b"post").unwrap().unwrap();
            if process_one(&mut db, &w).is_delivered() {
                break;
            }
            tries += 1;
            assert!(tries <= 40, "spi {spi} never converged");
        }
    }
}
