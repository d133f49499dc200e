//! Integration: rekeying interacts correctly with SAVE/FETCH.
//!
//! The paper separates two lifecycle events that legacy practice
//! conflated: a *reset* (only counters lost — rescue with SAVE/FETCH)
//! and a *rekey* (keys exhausted or grace expired — renegotiate). These
//! tests drive both through the full datapath and check they compose.

use reset_ipsec::{
    rekey, rekey_due, CryptoSuite, Inbound, Outbound, RekeyRequest, SaKeys, SaLifetime,
    SecurityAssociation,
};
use reset_stable::{MemStable, SlotId, StableStore};

fn fresh_pair(sa: &SecurityAssociation, k: u64) -> (Outbound<MemStable>, Inbound<MemStable>) {
    (
        Outbound::new(sa.clone(), MemStable::new(), k),
        Inbound::new(sa.clone(), MemStable::new(), k, 64),
    )
}

#[test]
fn rekey_at_lifetime_then_savefetch_reset_on_new_sa() {
    // Phase 1: run the first SA to its packet lifetime.
    let lifetime = SaLifetime {
        max_packets: 40,
        max_bytes: u64::MAX,
    };
    let keys = SaKeys::derive(b"phase1", b"gen0");
    let sa0 = SecurityAssociation::new(0x100, keys).with_lifetime(lifetime);
    let (mut tx0, mut rx0) = fresh_pair(&sa0, 10);
    let mut recorded_gen0 = Vec::new();
    for i in 0..40u32 {
        let w = tx0.protect(format!("g0-{i}").as_bytes()).unwrap().unwrap();
        recorded_gen0.push(w.clone());
        assert!(rx0.process(&w).unwrap().is_delivered());
    }
    assert!(tx0.protect(b"over").is_err(), "lifetime enforced");
    assert!(rekey_due(tx0.sa(), &lifetime));

    // Phase 2: quick-mode rekey to generation 1.
    let out = rekey(&RekeyRequest {
        skeyid: b"phase1-skeyid".to_vec(),
        nonce_i: [3; 16],
        nonce_r: [4; 16],
        new_spi: 0x101,
        suite: CryptoSuite::default(),
    });
    let (mut tx1, mut rx1) = fresh_pair(&out.sa, 10);

    // Generation-0 recordings are dead against generation 1 (different
    // SPI => unknown SA; respliced SPI => ICV failure).
    for w in &recorded_gen0 {
        assert!(rx1.process(w).is_err());
    }

    // Phase 3: traffic on gen 1, then a reset — SAVE/FETCH rescues the
    // *new* SA without another rekey.
    let mut recorded_gen1 = Vec::new();
    for i in 0..30u32 {
        let w = tx1.protect(format!("g1-{i}").as_bytes()).unwrap().unwrap();
        recorded_gen1.push(w.clone());
        assert!(rx1.process(&w).unwrap().is_delivered());
    }
    rx1.save_completed().unwrap();
    rx1.reset();
    rx1.wake_up().unwrap();
    for w in &recorded_gen1 {
        assert!(!rx1.process(w).unwrap().is_delivered(), "gen1 replay");
    }
    // Fresh gen-1 traffic converges within 2K.
    let mut sacrificed = 0;
    loop {
        let w = tx1.protect(b"post-reset").unwrap().unwrap();
        if rx1.process(&w).unwrap().is_delivered() {
            break;
        }
        sacrificed += 1;
        assert!(sacrificed <= 20);
    }
}

#[test]
fn rekey_reusing_spi_resets_counters_and_slots() {
    // Rekeying may reuse the SPI (new keys). The persistent slot then
    // belongs to the *old* SA's counters; a correct deployment erases it
    // at rekey so a later FETCH cannot resurrect stale state into the
    // new SA's number space.
    let keys0 = SaKeys::derive(b"phase1", b"old");
    let sa0 = SecurityAssociation::new(0x200, keys0);
    let mut store = MemStable::new();
    {
        let mut tx0 = Outbound::new(sa0, MemStable::new(), 5);
        for _ in 0..20 {
            tx0.protect(b"old").unwrap();
        }
        // Simulate the old counters having been persisted.
        store.store(SlotId::sender(0x200), 20).unwrap();
    }
    // Rekey with SPI reuse; tear down the old slot (SA teardown duty).
    store.erase(SlotId::sender(0x200)).unwrap();
    let out = rekey(&RekeyRequest {
        skeyid: b"phase1-skeyid".to_vec(),
        nonce_i: [7; 16],
        nonce_r: [8; 16],
        new_spi: 0x200,
        suite: CryptoSuite::default(),
    });
    let mut tx1 = Outbound::new(out.sa, store, 5);
    // A reset + wake on the brand-new SA must leap from zero (2K = 10),
    // not from the stale 20 + 10 = 30.
    tx1.reset();
    let resumed = tx1.wake_up().unwrap();
    assert_eq!(resumed.value(), 10, "stale slot would have given 30");
}

#[test]
fn rekey_to_aead_suite_delivers_in_order_and_rejects_stale_suite_frames() {
    // Generation 0 runs the legacy HMAC+keystream suite.
    let keys = SaKeys::derive(b"phase1", b"mig0");
    let sa0 =
        SecurityAssociation::new(0x400, keys).with_suite(CryptoSuite::HmacSha256WithKeystream);
    assert_eq!(sa0.suite(), CryptoSuite::HmacSha256WithKeystream);
    let (mut tx0, mut rx0) = fresh_pair(&sa0, 10);
    let mut recorded_gen0 = Vec::new();
    for i in 0..25u32 {
        let w = tx0.protect(format!("g0-{i}").as_bytes()).unwrap().unwrap();
        recorded_gen0.push(w.clone());
        assert!(rx0.process(&w).unwrap().is_delivered());
    }

    // Quick-mode rekey migrates the SA (same SPI) to ChaCha20-Poly1305.
    let out = rekey(&RekeyRequest {
        skeyid: b"phase1-skeyid".to_vec(),
        nonce_i: [9; 16],
        nonce_r: [10; 16],
        new_spi: 0x400,
        suite: CryptoSuite::ChaCha20Poly1305,
    });
    assert_eq!(out.sa.suite(), CryptoSuite::ChaCha20Poly1305);
    let (mut tx1, mut rx1) = fresh_pair(&out.sa, 10);

    // Every stale-suite frame fails authentication against the new SA —
    // wrong transform *and* wrong keys, counted as auth failures.
    for w in &recorded_gen0 {
        assert!(rx1.process(w).is_err(), "stale-suite frame accepted");
    }
    assert_eq!(rx1.auth_failures(), recorded_gen0.len() as u64);

    // Fresh AEAD traffic delivers strictly in order from sequence 1.
    let mut recorded_gen1 = Vec::new();
    for i in 0..30u64 {
        let w = tx1.protect(format!("g1-{i}").as_bytes()).unwrap().unwrap();
        recorded_gen1.push(w.clone());
        match rx1.process(&w).unwrap() {
            reset_ipsec::RxResult::Delivered { payload, seq } => {
                assert_eq!(payload, format!("g1-{i}").as_bytes());
                assert_eq!(seq.value(), i + 1, "in-order delivery after migration");
            }
            other => panic!("g1-{i}: {other:?}"),
        }
    }

    // SAVE/FETCH recovery still works on the migrated SA: reset, wake,
    // replays bounce, fresh traffic converges within 2K.
    rx1.save_completed().unwrap();
    rx1.reset();
    rx1.wake_up().unwrap();
    for w in &recorded_gen1 {
        assert!(!rx1.process(w).unwrap().is_delivered(), "gen1 replay");
    }
    let mut sacrificed = 0;
    loop {
        let w = tx1.protect(b"post-reset").unwrap().unwrap();
        if rx1.process(&w).unwrap().is_delivered() {
            break;
        }
        sacrificed += 1;
        assert!(sacrificed <= 20, "2K bound");
    }
}

#[test]
fn rekey_costs_stay_far_below_main_mode() {
    use reset_ipsec::CostModel;
    let quick = rekey(&RekeyRequest {
        skeyid: b"skeyid".to_vec(),
        nonce_i: [1; 16],
        nonce_r: [2; 16],
        new_spi: 9,
        suite: CryptoSuite::default(),
    })
    .cost;
    // From the t5 ledger: main mode = 6 msgs / 3 RTT / 4 modexps.
    assert!(quick.messages < 6);
    assert_eq!(quick.modexps, 0);
    let m = CostModel::paper_era();
    // Quick mode ≈ 2 RTTs (80 ms paper-era); main mode ≥ 160 ms.
    assert!(quick.estimate_ns(&m) < 100_000_000);
}

#[test]
fn chained_rekeys_always_separate_key_material() {
    let mut seen = std::collections::HashSet::new();
    for gen in 0u8..10 {
        let out = rekey(&RekeyRequest {
            skeyid: b"phase1-skeyid".to_vec(),
            nonce_i: [gen; 16],
            nonce_r: [gen ^ 0xFF; 16],
            new_spi: 0x300 + gen as u32,
            suite: CryptoSuite::default(),
        });
        assert!(
            seen.insert(out.sa.keys().auth),
            "generation {gen} repeated auth key"
        );
        assert!(
            seen.insert(out.sa.keys().enc),
            "generation {gen} repeated enc key"
        );
    }
}
