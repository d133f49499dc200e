//! Integration: §6 prolonged-reset recovery across the whole stack —
//! DPD, grace periods, secured notifies, and gateway-scale recovery.
//!
//! The secured recovery notify is the first frame a host protects after
//! `recover()`: its sequence number (FETCH + `2K` leap) is what proves
//! freshness, so the survivor's verdict on it is an ordinary
//! `Delivered` / `ReplayDropped`.

use bytes::Bytes;
use reset_ipsec::{
    rekey, CryptoSuite, DpdConfig, Gateway, GatewayBuilder, GatewayEvent, IpsecError, RekeyRequest,
    RxResult, SaKeys, Sadb, SecurityAssociation,
};
use reset_stable::MemStable;
use system_tests::{
    drive_traffic, peer_pair, peer_pair_from, process_one, push_one, reset_and_notify, send,
    PAIR_SPI,
};

/// A pair with save interval 10, window 64 and `dpd` armed on both hosts.
fn dpd_pair(dpd: DpdConfig) -> (Gateway<MemStable>, Gateway<MemStable>) {
    peer_pair_from(|| {
        GatewayBuilder::in_memory()
            .save_interval(10)
            .window(64)
            .dpd(dpd)
    })
}

/// The sequence number `a` accepted `notify` under.
fn accept_notify(a: &mut Gateway<MemStable>, notify: &Bytes) -> u64 {
    match push_one(a, notify) {
        GatewayEvent::Delivered { seq, .. } => seq.value(),
        other => panic!("{other:?}"),
    }
}

#[test]
fn full_section6_timeline() {
    let (mut a, mut b) = dpd_pair(DpdConfig {
        idle_timeout_ns: 1_000,
        probe_interval_ns: 500,
        max_probes: 2,
        grace_period_ns: 100_000,
    });

    // Traffic up to t=19; then B crashes.
    for t in 0..20u64 {
        a.tick(t);
        let w = send(&mut b, b"keepalive");
        assert!(matches!(
            push_one(&mut a, &w),
            GatewayEvent::Delivered { .. }
        ));
    }
    b.save_completed().unwrap();
    b.reset();

    // A probes, then enters grace; SAs stay alive.
    let probe_due = vec![GatewayEvent::ProbeDue { spi: PAIR_SPI }];
    a.tick(2_000);
    assert_eq!(a.poll_events(), probe_due);
    a.tick(2_600);
    assert_eq!(a.poll_events(), probe_due);
    a.tick(3_200);
    assert_eq!(a.poll_events(), vec![], "presumed down is not an event");
    assert_eq!(a.in_grace(PAIR_SPI), Some(true));
    assert!(a.right_edge(PAIR_SPI).is_some(), "grace keeps the SAs");

    // B recovers within grace; A accepts and leaves grace.
    b.recover().unwrap();
    let notify = send(&mut b, b"recovered");
    a.tick(10_000);
    assert!(
        accept_notify(&mut a, &notify) > 20,
        "leaped past the history"
    );
    assert_eq!(a.in_grace(PAIR_SPI), Some(false));
}

#[test]
fn grace_expiry_without_recovery_tears_down() {
    let (mut a, _) = dpd_pair(DpdConfig {
        idle_timeout_ns: 1_000,
        probe_interval_ns: 500,
        max_probes: 1,
        grace_period_ns: 5_000,
    });
    a.tick(0);
    a.tick(1_500);
    assert_eq!(
        a.poll_events(),
        vec![GatewayEvent::ProbeDue { spi: PAIR_SPI }]
    );
    a.tick(2_100);
    assert_eq!(a.in_grace(PAIR_SPI), Some(true));
    // No recovery arrives: grace runs out, the paper's bounded wait ends.
    a.tick(8_000);
    assert_eq!(
        a.poll_events(),
        vec![GatewayEvent::PeerDead { spi: PAIR_SPI }]
    );
    assert!(matches!(
        a.protect(PAIR_SPI, b"gone"),
        Err(IpsecError::UnknownSa { spi: PAIR_SPI })
    ));
}

#[test]
fn replayed_notify_during_grace_does_not_refresh_liveness() {
    let (mut a, mut b) = dpd_pair(DpdConfig {
        idle_timeout_ns: 1_000,
        probe_interval_ns: 500,
        max_probes: 1,
        grace_period_ns: 5_000,
    });
    a.tick(0);
    drive_traffic(&mut b, &mut a, 15);
    b.save_completed().unwrap();
    // B recovers once, announces itself, then goes silent for good.
    let notify = reset_and_notify(&mut b);
    accept_notify(&mut a, &notify);
    a.tick(1_000); // probe
    a.tick(1_500); // presumed down: grace runs until 6_500
    assert_eq!(a.in_grace(PAIR_SPI), Some(true));
    a.poll_events();

    // The adversary replays the (authentic) notify mid-grace. It bounces
    // off the window, and only *delivered* traffic proves liveness.
    a.tick(4_000);
    assert!(matches!(
        push_one(&mut a, &notify),
        GatewayEvent::ReplayDropped { .. }
    ));
    assert_eq!(a.in_grace(PAIR_SPI), Some(true));
    a.tick(6_499);
    assert_eq!(a.poll_events(), vec![]);
    a.tick(6_500);
    assert_eq!(
        a.poll_events(),
        vec![GatewayEvent::PeerDead { spi: PAIR_SPI }],
        "teardown on the original schedule"
    );
}

#[test]
fn both_peers_reset_and_both_recover() {
    let (mut a, mut b) = peer_pair(10, 64);
    drive_traffic(&mut a, &mut b, 25);
    drive_traffic(&mut b, &mut a, 25);
    a.save_completed().unwrap();
    b.save_completed().unwrap();

    let notify_a = reset_and_notify(&mut a);
    let notify_b = reset_and_notify(&mut b);
    // Each accepts the other's notify (leaps exceed all pre-reset seqs).
    accept_notify(&mut b, &notify_a);
    accept_notify(&mut a, &notify_b);
    // Bidirectional traffic converges again within 2K each way.
    fn converge(x: &mut Gateway<MemStable>, y: &mut Gateway<MemStable>) {
        let mut sacrificed = 0;
        loop {
            let w = send(x, b"resume");
            match push_one(y, &w) {
                GatewayEvent::Delivered { .. } => break,
                GatewayEvent::ReplayDropped { .. } => sacrificed += 1,
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
    b.save_completed().unwrap();

    let notifies: Vec<_> = (0..3).map(|_| reset_and_notify(&mut b)).collect();
    // Deliver them in order; each later notify has a strictly higher seq.
    let mut last_seq = 0;
    for n in &notifies {
        let seq = accept_notify(&mut a, n);
        assert!(seq > last_seq);
        last_seq = seq;
    }
    // Massive replay of all old notifies: every copy rejected.
    let edge = a.right_edge(PAIR_SPI);
    for _ in 0..1_000 {
        for n in &notifies {
            assert!(matches!(
                push_one(&mut a, n),
                GatewayEvent::ReplayDropped { .. }
            ));
        }
    }
    assert_eq!(a.right_edge(PAIR_SPI), edge);
}

#[test]
fn double_reset_recovery_still_monotone() {
    let (mut a, mut b) = peer_pair(10, 64);
    drive_traffic(&mut b, &mut a, 15);
    b.save_completed().unwrap();
    let n1 = reset_and_notify(&mut b);
    let s1 = accept_notify(&mut a, &n1);
    // Immediately reset again (before any further background save).
    let n2 = reset_and_notify(&mut b);
    let s2 = accept_notify(&mut a, &n2);
    assert!(s2 > s1, "second recovery strictly beyond the first");
}

#[test]
fn down_peer_drops_traffic() {
    let (mut a, mut b) = peer_pair(10, 64);
    b.reset();
    let w = send(&mut a, b"into the void");
    assert_eq!(
        push_one(&mut b, &w),
        GatewayEvent::DroppedDown { spi: PAIR_SPI }
    );
    assert!(b.protect(PAIR_SPI, b"from the void").unwrap().is_none());
}

#[test]
fn recovery_after_suite_change_converges_and_blocks_stale_suite_replays() {
    // A gateway rekeys one SA from the auth-only suite to the AEAD suite,
    // then the whole host resets. SAVE/FETCH recovery must rescue the
    // *migrated* SA (counters only — the new suite and keys live in the
    // SADB, exactly the paper's point that only counters change per
    // packet), while frames recorded under the old suite stay dead.
    let spi = 0x900u32;
    let keys0 = SaKeys::derive(b"rec-mig", b"gen0");
    let sa0 = SecurityAssociation::new(spi, keys0).with_suite(CryptoSuite::HmacSha256AuthOnly);
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
    });
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
