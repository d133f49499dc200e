//! Integration: the full ESP pipeline — IKE establishment through
//! datapath through reset recovery — with real crypto end to end.

use reset_crypto::{oakley_group2, toy_group};
use reset_ipsec::{
    run_handshake, CryptoSuite, Inbound, Outbound, RxResult, SaKeys, Sadb, SecurityAssociation,
};
use reset_stable::{Durability, FileStable, MemStable};
use system_tests::process_one;

#[test]
fn ike_established_keys_drive_the_datapath() {
    // Keys negotiated by the handshake must actually interoperate on the
    // wire (initiator seals, responder opens).
    let pair = run_handshake(
        toy_group(),
        b"psk",
        b"init-secret",
        b"resp-secret",
        0x10,
        0x20,
    )
    .expect("handshake");
    let mut tx = Outbound::new(pair.sa_i2r.clone(), MemStable::new(), 25);
    let mut rx = Inbound::new(pair.sa_i2r, MemStable::new(), 25, 64);
    for i in 0..20u32 {
        let w = tx
            .protect(format!("ike-keyed {i}").as_bytes())
            .unwrap()
            .unwrap();
        match rx.process(&w).unwrap() {
            RxResult::Delivered { payload, .. } => {
                assert_eq!(payload, format!("ike-keyed {i}").as_bytes());
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn oakley_group2_handshake_also_works() {
    // 1024-bit group: slower but must function identically.
    let pair = run_handshake(
        oakley_group2(),
        b"psk",
        b"initiator-secret-material",
        b"responder-secret-material",
        1,
        2,
    )
    .expect("group 2 handshake");
    assert_eq!(pair.cost.modexps, 4);
    assert_ne!(pair.sa_i2r.keys(), pair.sa_r2i.keys());
}

#[test]
fn auth_only_suite_end_to_end_with_resets() {
    let keys = SaKeys::derive(b"ikm", b"auth-only");
    let sa = SecurityAssociation::new(5, keys).with_suite(CryptoSuite::HmacSha256AuthOnly);
    let mut tx = Outbound::new(sa.clone(), MemStable::new(), 10);
    let mut rx = Inbound::new(sa, MemStable::new(), 10, 64);
    for _ in 0..30 {
        let w = tx.protect(b"cleartext but authentic").unwrap().unwrap();
        rx.process(&w).unwrap();
    }
    rx.save_completed().unwrap();
    rx.reset();
    rx.wake_up().unwrap();
    // Convergence: replay rejected, traffic resumes within 2K.
    let mut sacrificed = 0;
    loop {
        let w = tx.protect(b"resume").unwrap().unwrap();
        if rx.process(&w).unwrap().is_delivered() {
            break;
        }
        sacrificed += 1;
        assert!(sacrificed <= 20);
    }
}

#[test]
fn file_backed_stores_survive_process_style_reset() {
    // The "reset" here drops the endpoint objects entirely and rebuilds
    // them from the same directory — the closest a test can get to a
    // process crash + restart.
    let dir = std::env::temp_dir().join(format!(
        "it-esp-file-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let keys = SaKeys::derive(b"ikm", b"file-backed");
    let sa = SecurityAssociation::new(0xF11E, keys);

    let recorded: Vec<_> = {
        let store_tx = FileStable::open(dir.join("tx"), Durability::ProcessCrash).unwrap();
        let store_rx = FileStable::open(dir.join("rx"), Durability::ProcessCrash).unwrap();
        let mut tx = Outbound::new(sa.clone(), store_tx, 10);
        let mut rx = Inbound::new(sa.clone(), store_rx, 10, 64);
        let mut rec = Vec::new();
        for i in 0..35u32 {
            let w = tx
                .protect(format!("persisted {i}").as_bytes())
                .unwrap()
                .unwrap();
            rec.push(w.clone());
            assert!(rx.process(&w).unwrap().is_delivered());
        }
        tx.save_completed().unwrap();
        rx.save_completed().unwrap();
        rec
        // tx and rx dropped here: the "crash".
    };

    // Restart: fresh endpoints over the same directories.
    let store_tx = FileStable::open(dir.join("tx"), Durability::ProcessCrash).unwrap();
    let store_rx = FileStable::open(dir.join("rx"), Durability::ProcessCrash).unwrap();
    let mut tx = Outbound::new(sa.clone(), store_tx, 10);
    let mut rx = Inbound::new(sa, store_rx, 10, 64);
    // Both consider themselves freshly constructed; put them through the
    // reset/wake cycle to adopt the persisted counters.
    tx.reset();
    tx.wake_up().unwrap();
    rx.reset();
    rx.wake_up().unwrap();

    // All pre-crash traffic is replay now.
    for w in &recorded {
        assert!(
            !rx.process(w).unwrap().is_delivered(),
            "replay across restart"
        );
    }
    // Fresh traffic converges within 2K + 2K.
    let mut tries = 0;
    loop {
        let w = tx.protect(b"post-restart").unwrap().unwrap();
        if rx.process(&w).unwrap().is_delivered() {
            break;
        }
        tries += 1;
        assert!(tries <= 40, "never converged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sadb_mixed_suites_and_teardown() {
    let mut db: Sadb<MemStable> = Sadb::new();
    for spi in 1..=6u32 {
        let keys = SaKeys::derive(b"ikm", &spi.to_be_bytes());
        let mut sa = SecurityAssociation::new(spi, keys);
        if spi % 2 == 0 {
            sa = sa.with_suite(CryptoSuite::HmacSha256AuthOnly);
        }
        db.install_outbound(sa.clone(), MemStable::new(), 10);
        db.install_inbound(sa, MemStable::new(), 10, 64);
    }
    for spi in 1..=6u32 {
        let w = db.protect(spi, b"mixed").unwrap().unwrap();
        assert!(process_one(&mut db, &w).is_delivered(), "spi {spi}");
    }
    // Tear down half; they must stop working, others unaffected.
    for spi in [2u32, 4, 6] {
        let removed = db.remove(spi).expect("installed");
        assert!(removed.outbound.is_some() && removed.inbound.is_some());
    }
    assert!(db.protect(2, b"x").is_err());
    assert!(db.protect(1, b"x").unwrap().is_some());
}

#[test]
fn lifetime_expiry_blocks_protect() {
    use reset_ipsec::{IpsecError, SaLifetime};
    let keys = SaKeys::derive(b"ikm", b"short-life");
    let sa = SecurityAssociation::new(9, keys).with_lifetime(SaLifetime {
        max_packets: 5,
        max_bytes: u64::MAX,
    });
    let mut tx = Outbound::new(sa, MemStable::new(), 10);
    for _ in 0..5 {
        assert!(tx.protect(b"ok").unwrap().is_some());
    }
    assert!(matches!(
        tx.protect(b"over"),
        Err(IpsecError::LifetimeExpired { spi: 9 })
    ));
}

#[test]
fn esn_long_stream_with_mid_stream_resets() {
    // A long stream (tens of thousands of packets) with two receiver
    // resets; ESN reconstruction and the leap must stay aligned.
    let keys = SaKeys::derive(b"ikm", b"esn-long");
    let sa = SecurityAssociation::new(0xE54, keys);
    let k = 50;
    let mut tx = Outbound::new(sa.clone(), MemStable::new(), k);
    let mut rx = Inbound::new(sa, MemStable::new(), k, 128);
    let mut delivered = 0u64;
    for i in 0..30_000u64 {
        if i == 10_000 || i == 20_000 {
            rx.save_completed().unwrap();
            rx.reset();
            rx.wake_up().unwrap();
        }
        let w = tx.protect(b"esn").unwrap().unwrap();
        if rx.process(&w).unwrap().is_delivered() {
            delivered += 1;
        }
        if i % 100 == 0 {
            tx.save_completed().unwrap();
            rx.save_completed().unwrap();
        }
    }
    // Two resets cost at most 2 × 2K sacrificed packets.
    assert!(delivered >= 30_000 - 2 * (2 * k), "delivered {delivered}");
}
