//! Integration: the `Gateway` engine event loop across the whole stack —
//! the §3 reset-while-replaying attack over real ESP frames, recovery
//! event ordering, policy rekeys, DPD teardown, and batch parity, for
//! every negotiable cipher suite.

use bytes::Bytes;
use reset_ipsec::{
    Backend, CryptoSuite, DpdConfig, Gateway, GatewayBuilder, GatewayEvent, IpsecError, SaLifetime,
    DRAIN_SLICE,
};
use reset_sim::DetRng;
use reset_stable::MemStable;
use reset_wire::seal_frame;

const SPI: u32 = 0x6A7E;
const MASTER: &[u8] = b"it-gateway-master";

/// The two transforms the §3 experiments sweep: auth-only (delivered
/// without a copy) and the AEAD (decrypted through the drain's arena).
const SUITES: [CryptoSuite; 2] = [
    CryptoSuite::HmacSha256AuthOnly,
    CryptoSuite::ChaCha20Poly1305,
];

fn gateway_pair(suite: CryptoSuite, k: u64, w: u64) -> (Gateway<MemStable>, Gateway<MemStable>) {
    let build = || {
        GatewayBuilder::in_memory()
            .suite(suite)
            .save_interval(k)
            .window(w)
            .build()
    };
    let (mut p, mut q) = (build(), build());
    p.add_peer(SPI, MASTER);
    q.add_peer(SPI, MASTER);
    (p, q)
}

/// Sends `n` frames p→q, asserts delivery, returns the recorded wires.
fn drive(p: &mut Gateway<MemStable>, q: &mut Gateway<MemStable>, n: u32) -> Vec<Bytes> {
    let mut recorded = Vec::new();
    for i in 0..n {
        let f = p
            .protect(SPI, format!("pkt-{i}").as_bytes())
            .expect("datapath")
            .expect("endpoint up");
        recorded.push(f.wire.clone());
        q.push_wire(&f.wire).expect("mem store");
    }
    let events = q.poll_events();
    assert!(
        events
            .iter()
            .all(|e| matches!(e, GatewayEvent::Delivered { .. })),
        "{events:?}"
    );
    recorded
}

#[test]
fn section3_reset_while_replaying_rejected_for_both_suites() {
    for suite in SUITES {
        let (mut p, mut q) = gateway_pair(suite, 10, 64);
        let recorded = drive(&mut p, &mut q, 60);
        q.save_completed().unwrap();

        // The receiver is struck mid-replay: the adversary is already
        // pumping the recorded history when the host goes down, keeps
        // pumping through the wake-up SAVE, and finishes after recovery.
        q.reset();
        for w in &recorded[..20] {
            q.push_wire(w).unwrap();
        }
        assert!(
            q.poll_events()
                .iter()
                .all(|e| matches!(e, GatewayEvent::DroppedDown { .. })),
            "{suite:?}: down host must drop"
        );

        q.begin_recover().unwrap();
        for w in &recorded[20..40] {
            q.push_wire(w).unwrap();
        }
        assert!(
            q.poll_events()
                .iter()
                .all(|e| matches!(e, GatewayEvent::Buffered { .. })),
            "{suite:?}: waking host must buffer"
        );

        q.finish_recover().unwrap();
        let events = q.poll_events();
        // Event order: Recovered first, then the buffered replays
        // resolve — every one rejected by the leaped window.
        assert!(
            matches!(events[0], GatewayEvent::Recovered { sas: 2 }),
            "{suite:?}: {events:?}"
        );
        assert_eq!(events.len(), 21, "{suite:?}");
        assert!(
            events[1..]
                .iter()
                .all(|e| matches!(e, GatewayEvent::ReplayDropped { .. })),
            "{suite:?}: a buffered replay survived recovery: {events:?}"
        );

        // The tail of the attack, after recovery: still nothing lands.
        for w in &recorded[40..] {
            q.push_wire(w).unwrap();
        }
        assert!(
            q.poll_events()
                .iter()
                .all(|e| matches!(e, GatewayEvent::ReplayDropped { .. })),
            "{suite:?}: post-recovery replay accepted"
        );

        // Condition (ii): fresh traffic converges within 2K.
        let mut sacrificed = 0;
        loop {
            let f = p.protect(SPI, b"fresh").unwrap().unwrap();
            q.push_wire(&f.wire).unwrap();
            match q.poll_events().pop().expect("one event per frame") {
                GatewayEvent::Delivered { .. } => break,
                GatewayEvent::ReplayDropped { .. } => sacrificed += 1,
                other => panic!("{suite:?}: {other:?}"),
            }
            assert!(sacrificed <= 2 * 10, "{suite:?}: condition (ii) bound");
        }
    }
}

#[test]
fn batch_replay_after_recovery_matches_sequential_for_both_suites() {
    for suite in SUITES {
        let (mut p, mut q_seq) = gateway_pair(suite, 10, 64);
        let (_, mut q_batch) = gateway_pair(suite, 10, 64);
        let mut wires = Vec::new();
        for i in 0..40u32 {
            let f = p
                .protect(SPI, format!("b-{i}").as_bytes())
                .unwrap()
                .unwrap();
            wires.push(f.wire);
        }
        // Both receivers consume the stream, crash, recover, then face
        // the full replay — one frame at a time vs one NIC-queue drain.
        for q in [&mut q_seq, &mut q_batch] {
            q.push_wire_batch(&wires).unwrap();
            q.save_completed().unwrap();
            q.reset();
            q.recover().unwrap();
            q.poll_events();
        }
        for w in &wires {
            q_seq.push_wire(w).unwrap();
        }
        q_batch.push_wire_batch(&wires).unwrap();
        let seq_events = q_seq.poll_events();
        let batch_events = q_batch.poll_events();
        assert_eq!(seq_events, batch_events, "{suite:?}");
        assert!(
            seq_events
                .iter()
                .all(|e| matches!(e, GatewayEvent::ReplayDropped { .. })),
            "{suite:?}"
        );
    }
}

#[test]
fn policy_rekey_keeps_peers_in_lockstep_and_kills_replay_library() {
    let lifetime = SaLifetime {
        max_packets: 30,
        max_bytes: u64::MAX,
    };
    let build = || {
        GatewayBuilder::in_memory()
            .save_interval(10)
            .rekey_after(lifetime)
            .skeyid(b"shared-phase1")
            .build()
    };
    let (mut p, mut q) = (build(), build());
    p.add_peer(SPI, MASTER);
    q.add_peer(SPI, MASTER);
    let recorded = drive(&mut p, &mut q, 30);

    // Both gateways tick; both counted 30 packets on the SA, so both
    // rekey to the same generation — deriving identical replacements.
    p.tick(1_000);
    q.tick(1_000);
    for gw in [&mut p, &mut q] {
        let events = gw.poll_events();
        assert_eq!(
            events,
            vec![
                GatewayEvent::RekeyStarted { spi: SPI },
                GatewayEvent::RekeyCompleted {
                    spi: SPI,
                    suite: CryptoSuite::default()
                },
            ]
        );
    }
    // The recorded generation-0 ciphertext is dead under the new keys.
    for w in &recorded {
        q.push_wire(w).unwrap();
    }
    assert!(
        q.poll_events()
            .iter()
            .all(|e| matches!(e, GatewayEvent::AuthFailed { .. })),
        "old-generation frame authenticated after rekey"
    );
    // And fresh traffic interoperates from sequence 1.
    let f = p.protect(SPI, b"gen-1").unwrap().unwrap();
    assert_eq!(f.seq.value(), 1);
    q.push_wire(&f.wire).unwrap();
    assert!(matches!(
        q.poll_events()[..],
        [GatewayEvent::Delivered { .. }]
    ));
}

#[test]
fn dpd_grace_honours_recovery_but_tears_down_silence() {
    let dpd = DpdConfig {
        idle_timeout_ns: 1_000,
        probe_interval_ns: 500,
        max_probes: 2,
        grace_period_ns: 10_000,
    };
    let build = || {
        GatewayBuilder::in_memory()
            .save_interval(10)
            .dpd(dpd)
            .build()
    };

    // Peer recovers within grace: the pair survives.
    let mut a = build();
    let mut b = GatewayBuilder::in_memory().save_interval(10).build();
    a.add_peer(SPI, MASTER);
    b.add_peer(SPI, MASTER);
    drive(&mut b, &mut a, 3);
    a.tick(100);
    a.tick(1_500); // probe 1
    a.tick(2_100); // probe 2
    a.tick(2_700); // presumed down, grace opens
    assert_eq!(a.in_grace(SPI), Some(true));
    let probes = a
        .poll_events()
        .iter()
        .filter(|e| matches!(e, GatewayEvent::ProbeDue { .. }))
        .count();
    assert_eq!(probes, 2);
    // b recovers and proves liveness with authenticated traffic.
    b.save_completed().unwrap();
    b.reset();
    b.recover().unwrap();
    let f = b.protect(SPI, b"i am back").unwrap().unwrap();
    a.push_wire(&f.wire).unwrap();
    assert_eq!(a.in_grace(SPI), Some(false), "liveness exits grace");
    a.tick(20_000);
    assert!(
        !a.poll_events()
            .iter()
            .any(|e| matches!(e, GatewayEvent::PeerDead { .. })),
        "recovered peer must not be torn down"
    );

    // No recovery: grace expires and the pair dies (§6 bounded wait).
    let mut c = build();
    c.add_peer(SPI, MASTER);
    c.tick(0); // first tick arms the detector
    c.tick(1_500);
    c.tick(2_100);
    c.tick(2_700);
    c.tick(20_000);
    assert!(c
        .poll_events()
        .contains(&GatewayEvent::PeerDead { spi: SPI }));
    assert!(matches!(
        c.protect(SPI, b"gone"),
        Err(IpsecError::UnknownSa { spi: SPI })
    ));
}

#[test]
fn rekey_erases_persistent_slots_so_a_crash_recovers_the_fresh_generation() {
    // Persistent (file-backed) stores keyed by SPI only: the rekey must
    // erase the old generation's slots, or a post-rekey crash would
    // FETCH the stale counter and leap the new SA into the old number
    // space — rejecting the peer's fresh seq 1, 2, 3... forever.
    use reset_ipsec::SaDirection;
    use reset_stable::{Durability, FileStable};
    let dir = std::env::temp_dir().join(format!(
        "it-gw-rekey-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let factory_dir = dir.clone();
    let make = move |spi: u32, d: SaDirection| {
        FileStable::open(
            factory_dir.join(format!("{spi}-{d:?}")),
            Durability::ProcessCrash,
        )
        .expect("store dir")
    };
    let mut gw = GatewayBuilder::with_stores(make).save_interval(10).build();
    gw.add_peer(SPI, MASTER);
    // Drive the counter to ~51 and make the SAVE durable.
    for _ in 0..50 {
        gw.protect(SPI, b"x").unwrap().unwrap();
    }
    gw.save_completed().unwrap();
    gw.rekey_now(SPI);
    gw.poll_events();
    // Crash before the new generation performs any save, then recover.
    gw.reset();
    gw.recover().unwrap();
    gw.poll_events();
    // FETCH must find nothing (slots erased at rekey): the leap is
    // 0 + 2K = 20. Without erasure it would be the stale 51 + 2K = 71.
    let f = gw.protect(SPI, b"fresh").unwrap().unwrap();
    assert_eq!(f.seq.value(), 20, "stale pre-rekey counter resurrected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handshake_keyed_gateways_interoperate() {
    // Keys negotiated by real IKE drive the engine end to end.
    use reset_harness::{run_handshake, toy_group};
    let pair = run_handshake(toy_group(), b"psk", b"init", b"resp", 0x10, 0x20).unwrap();
    let mut initiator = GatewayBuilder::in_memory().build();
    let mut responder = GatewayBuilder::in_memory().build();
    initiator.install_outbound(pair.sa_i2r.clone());
    responder.install_inbound(pair.sa_i2r);
    assert_eq!(responder.sadb().len(), 1);
    for i in 0..10u32 {
        let f = initiator
            .protect(0x10, format!("ike-{i}").as_bytes())
            .unwrap()
            .unwrap();
        responder.push_wire(&f.wire).unwrap();
    }
    let events = responder.poll_events();
    assert_eq!(events.len(), 10);
    assert!(events
        .iter()
        .all(|e| matches!(e, GatewayEvent::Delivered { .. })));
}

/// A store that appends the slot of every SAVE it performs to a log
/// shared by the whole gateway.
struct Recording {
    inner: MemStable,
    saves: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
}

impl reset_stable::StableStore for Recording {
    fn store(
        &mut self,
        slot: reset_stable::SlotId,
        value: u64,
    ) -> Result<(), reset_stable::StableError> {
        self.saves.lock().unwrap().push(slot.to_string());
        self.inner.store(slot, value)
    }
    fn load(&self, slot: reset_stable::SlotId) -> Result<Option<u64>, reset_stable::StableError> {
        self.inner.load(slot)
    }
    fn erase(&mut self, slot: reset_stable::SlotId) -> Result<(), reset_stable::StableError> {
        self.inner.erase(slot)
    }
}

#[test]
fn owed_saves_are_reported_and_completed_in_store_order_across_a_recovery() {
    // The order in which `save_completed` reaches the stores is part of
    // the contract (WAL bytes and seeded fault schedules hang on it):
    // outbound SPIs ascending, then inbound — whatever order the SAVEs
    // were issued in, before and after a recovery sweep.
    let saves = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = std::sync::Arc::clone(&saves);
    let mut q = GatewayBuilder::with_stores(move |_, _| Recording {
        inner: MemStable::new(),
        saves: std::sync::Arc::clone(&log),
    })
    .save_interval(4)
    .build();
    let mut p = GatewayBuilder::in_memory().save_interval(4).build();
    for spi in [0x30, 0x10, 0x20] {
        p.add_peer(spi, MASTER);
        q.add_peer(spi, MASTER);
    }
    let taken = || std::mem::take(&mut *saves.lock().unwrap());

    // A mixed backlog: `q` owes outbound SAVEs on 0x20 and 0x10 and
    // inbound ones on 0x30 and 0x10, issued in no particular order.
    let backlog = |p: &mut Gateway<MemStable>, q: &mut Gateway<Recording>| {
        for (sends, spi) in [(false, 0x30), (true, 0x20), (false, 0x10), (true, 0x10)] {
            for _ in 0..8 {
                if sends {
                    q.protect(spi, b"out").unwrap().unwrap();
                } else {
                    let f = p.protect(spi, b"in").unwrap().unwrap();
                    q.push_wire(&f.wire).unwrap();
                }
            }
        }
        q.poll_events();
    };
    assert!(!q.pending_save());
    backlog(&mut p, &mut q);
    assert!(q.pending_save());
    assert_eq!(taken(), Vec::<String>::new(), "issued, not yet written");
    q.save_completed().unwrap();
    assert_eq!(taken(), ["tx:0x10", "tx:0x20", "rx:0x10", "rx:0x30"]);
    assert!(!q.pending_save());

    // Between the recovery halves every waking SA owes its wake-up SAVE,
    // and `finish_recover` lands them in the same order.
    q.reset();
    assert!(!q.pending_save(), "a reset loses the SAVEs in flight");
    q.begin_recover().unwrap();
    assert!(q.pending_save());
    q.finish_recover().unwrap();
    let all_six = [
        "tx:0x10", "tx:0x20", "tx:0x30", "rx:0x10", "rx:0x20", "rx:0x30",
    ];
    assert_eq!(taken(), all_six);
    q.save_completed().unwrap();
    assert!(!q.pending_save());
    assert_eq!(taken(), Vec::<String>::new(), "nothing was left to write");

    // ... or a completion between the halves does, and the second half
    // finds them written.
    q.reset();
    q.begin_recover().unwrap();
    q.save_completed().unwrap();
    assert_eq!(taken(), all_six);
    assert!(!q.pending_save());
    q.finish_recover().unwrap();
    assert_eq!(taken(), Vec::<String>::new());
    q.poll_events();

    // Two recoveries leaped `q`'s windows 4K ahead of `p`; once `p` has
    // caught up, the same backlog completes in the same order after the
    // sweeps as before them.
    for _ in 0..4 {
        backlog(&mut p, &mut q);
    }
    q.save_completed().unwrap();
    taken();
    backlog(&mut p, &mut q);
    assert!(q.pending_save());
    q.save_completed().unwrap();
    assert_eq!(taken(), ["tx:0x10", "tx:0x20", "rx:0x10", "rx:0x30"]);
    assert!(!q.pending_save());
}

/// The send look-ahead's oracle at the engine: whatever a `Gateway` has
/// computed ahead, every frame it sends is byte for byte the scalar
/// suite's seal of that payload, at the sequence number reported, under
/// the SA's key *as of that send* — and a peer keyed in lockstep delivers
/// it. The seeded script is runs on one SPI broken by singletons on the
/// others, with the outbound key changing in the middle of a run every
/// way it can; each run then goes on past the sequence numbers the
/// look-ahead held when the key changed, so a block that outlived its key
/// is asked for by its exact name. What each sub-case guards, in
/// `reset_ipsec`'s `sadb.rs`:
///
/// * singletons between and before runs — the owner check in
///   `Sadb::protect_on` (every SA counts from 1, so one SPI's cached
///   blocks are exactly what the next asks for);
/// * `rekey_now`, the policy rekey out of `tick`, `remove_peer` +
///   `add_peer` under another master — the drop in `Sadb::install_outbound`;
/// * `reset` + `recover` — nothing on the wire can: the key survives and
///   the leap only misses. That drop (and `Sadb::remove`'s) is pinned on
///   the look-ahead itself by `send_look_ahead_is_dropped_wherever_its_key_
///   can_change` in `sadb.rs`; here the sub-case checks that frames after
///   the leap are sealed afresh.
///
/// Under `RESET_CRYPTO_BACKEND=scalar` the gateway *is* the oracle and
/// the test is vacuous; unset, `lanes4` and `avx2` are the three
/// look-ahead shapes (CI runs them all).
#[test]
fn sent_frames_equal_the_scalar_seal_across_runs_rekeys_teardown_and_resets() {
    const SPIS: [u32; 3] = [0x51, 0x52, 0x53];
    const K: u64 = 8;
    let lifetime = SaLifetime {
        max_packets: 40,
        max_bytes: u64::MAX,
    };
    let build = || {
        GatewayBuilder::in_memory()
            .suite(CryptoSuite::ChaCha20Poly1305)
            .save_interval(K)
            .window(64)
            .rekey_after(lifetime)
            .skeyid(b"look-ahead-phase1")
            .build()
    };
    let (mut p, mut q) = (build(), build());
    for spi in SPIS {
        p.add_peer(spi, MASTER);
        q.add_peer(spi, MASTER);
    }
    let mut rng = DetRng::new(0x5EA1_A4EA);
    let send = |p: &mut Gateway<MemStable>, q: &mut Gateway<MemStable>, spi: u32, len| {
        let payload = vec![len as u8 ^ 0x5A; len];
        let f = p.protect(spi, &payload).expect("datapath").expect("up");
        let sa = p.sadb().outbound(spi).expect("installed").sa().clone();
        let sa = sa.with_backend(Backend::Scalar);
        let expect = seal_frame(spi, f.seq.value(), &payload, sa.cipher(), sa.esn()).unwrap();
        assert_eq!(
            f.wire,
            expect,
            "spi {spi:#x} seq {} len {len}",
            f.seq.value()
        );
        q.push_wire(&f.wire).expect("mem store");
        let events = q.poll_events();
        assert!(
            matches!(events[..], [GatewayEvent::Delivered { .. }]),
            "spi {spi:#x} seq {}: {events:?}",
            f.seq.value()
        );
    };
    let (mut now, mut policy_rekeys) = (0u64, 0usize);
    for round in 0..80u32 {
        let spi = *rng.pick(&SPIS);
        for other in SPIS.into_iter().filter(|&o| o != spi) {
            if rng.chance(0.5) {
                send(&mut p, &mut q, other, 64);
            }
        }
        // Mostly the benchmark's frame, sometimes another shape per run.
        let len = [64, 64, 64, 0, 200, 1400][rng.below(6) as usize];
        for _ in 0..rng.range_inclusive(1, 6) {
            send(&mut p, &mut q, spi, len);
        }
        // The run is cut in two; whatever the look-ahead holds for `spi`
        // was computed under the key of the first half.
        let held_up_to = p.next_seq(spi).expect("installed").value() + 8;
        match round % 4 {
            0 => {
                p.rekey_now(spi);
                q.rekey_now(spi);
            }
            1 => {
                let master = format!("master-of-round-{round}");
                for gw in [&mut p, &mut q] {
                    assert!(gw.remove_peer(spi));
                    gw.add_peer(spi, master.as_bytes());
                }
            }
            2 => {
                p.save_completed().unwrap();
                p.reset();
                p.recover().unwrap();
            }
            _ => {} // the policy rekey below is the only key change
        }
        now += 1_000;
        p.tick(now);
        q.tick(now);
        let started = |e: &GatewayEvent| matches!(e, GatewayEvent::RekeyStarted { .. });
        let p_rekeys = p.poll_events().into_iter().filter(started).count();
        assert_eq!(
            p_rekeys,
            q.poll_events().into_iter().filter(started).count(),
            "the peers rekey in lockstep"
        );
        policy_rekeys += p_rekeys - usize::from(round % 4 == 0);
        let first = p.next_seq(spi).expect("installed").value();
        for _ in 0..held_up_to.saturating_sub(first) + rng.below(8) {
            send(&mut p, &mut q, spi, len);
        }
        p.save_completed().unwrap();
        q.save_completed().unwrap();
    }
    assert!(
        policy_rekeys >= 10,
        "policy rekeys fired inside runs: {policy_rekeys}"
    );
}

/// A fresh frame on `spi`, sealed by `p`.
fn fresh(p: &mut Gateway<MemStable>, spi: u32) -> Bytes {
    let f = p.protect(spi, &[spi as u8; 48]).expect("datapath");
    f.expect("endpoint up").wire
}

/// `push_wire_batch` drains in slices of `DRAIN_SLICE` frames, and the
/// slices must not show. One batch of `3 × DRAIN_SLICE + 37` frames and
/// the same frames pushed one at a time leave equal event streams, equal
/// `auth_failures`, equal DPD state and equal rekey due-sets. The last
/// two are the gateway's own: their equality is read off `in_grace`, the
/// timer count and the events the clock then draws from them — every
/// heap entry fires in (deadline, push) order, the due-set's SAs rekey
/// at the first tick — all equal, tick by tick.
///
/// The batch holds a run of 16 across each slice boundary, singleton
/// runs, an unknown SPI, runts, replays and flipped ICVs. One SA's ESN
/// crosses 2³² in the second slice after its earlier frames sat in the
/// first, and a frame right after the crossing is one whose high half,
/// guessed at slice start, the crossing made stale. Half of the SAs are
/// in DPD grace when the batch lands, so a delivery pulls their deadline
/// earlier; the other half were installed after the last tick, so a
/// delivery arms them. Both push heap entries, in the order of the notes.
#[test]
fn drain_slices_are_invisible_for_both_suites() {
    const GRACE: [u32; 4] = [0x71, 0x72, 0x73, 0x74];
    const LATE: [u32; 4] = [0x75, 0x76, 0x77, 0x78];
    const ESN_SPI: u32 = 0x79;
    const N: usize = 3 * DRAIN_SLICE + 37;
    const WRAP: u64 = 1 << 32;
    let dpd = DpdConfig {
        idle_timeout_ns: 1_000,
        probe_interval_ns: 500,
        max_probes: 1,
        grace_period_ns: 2_000,
    };
    let lifetime = SaLifetime {
        max_packets: 90,
        max_bytes: u64::MAX,
    };
    let spis: Vec<u32> = GRACE.into_iter().chain(LATE).collect();
    for suite in SUITES {
        let build = || {
            GatewayBuilder::in_memory()
                .suite(suite)
                .save_interval(8)
                .window(64)
                .dpd(dpd)
                .rekey_after(lifetime)
                .skeyid(b"drain-slices-phase1")
                .build()
        };
        let (mut p, mut batch, mut single) = (build(), build(), build());
        for spi in GRACE.into_iter().chain([ESN_SPI]) {
            for gw in [&mut p, &mut batch, &mut single] {
                gw.add_peer(spi, MASTER);
            }
        }
        for gw in [&mut batch, &mut single] {
            for t in [0, 1_000, 1_500] {
                gw.tick(t);
            }
            gw.poll_events();
            assert_eq!(gw.in_grace(GRACE[0]), Some(true), "{suite:?}");
        }
        for spi in LATE {
            for gw in [&mut p, &mut batch, &mut single] {
                gw.add_peer(spi, MASTER);
            }
        }

        let esn_sa = p.sadb().outbound(ESN_SPI).expect("installed").sa().clone();
        let esn = |seq: u64| seal_frame(ESN_SPI, seq, b"esn", esn_sa.cipher(), true).unwrap();
        let mut rng = DetRng::new(0x511C_E5ED ^ suite.wire_id() as u64);
        let mut frames: Vec<Bytes> = Vec::with_capacity(N);
        // Singletons and short runs, skewed towards the first SAs so that
        // some cross the rekey lifetime and some do not, with a replay of
        // an earlier frame now and then.
        let mut fill = |frames: &mut Vec<Bytes>, p: &mut Gateway<MemStable>, until: usize| {
            while frames.len() < until {
                if rng.chance(0.1) {
                    let old = frames[rng.below(frames.len() as u64) as usize].clone();
                    frames.push(old);
                    continue;
                }
                let skew = rng.below(spis.len() as u64) + 1;
                let spi = spis[rng.below(skew) as usize];
                let len = if rng.chance(0.6) {
                    1
                } else {
                    rng.range_inclusive(2, 5)
                };
                for _ in 0..len.min((until - frames.len()) as u64) {
                    frames.push(fresh(p, spi));
                }
            }
        };
        let junk = |frames: &mut Vec<Bytes>, p: &mut Gateway<MemStable>, spi: u32| {
            let mut flipped = fresh(p, spi).to_vec();
            *flipped.last_mut().unwrap() ^= 1;
            let mut unknown = fresh(p, spi).to_vec();
            unknown[..4].copy_from_slice(&0xDEAD_u32.to_be_bytes());
            frames.extend([
                Bytes::from(flipped),
                Bytes::from(unknown),
                Bytes::copy_from_slice(&[0xAB; 3]),
            ]);
        };
        // Slice 1: the ESN SA's first frames, far below 2³².
        frames.push(esn(100));
        frames.extend((WRAP - 48..WRAP - 40).map(esn));
        junk(&mut frames, &mut p, GRACE[1]);
        fill(&mut frames, &mut p, DRAIN_SLICE - 8);
        for boundary in 1..=3 {
            // A run of 16 across the boundary.
            let spi = spis[boundary];
            frames.extend((0..16).map(|_| fresh(&mut p, spi)));
            if boundary == 1 {
                // Slice 2: the ESN SA crosses 2³² in one run; the frame
                // after the crossing was sealed under high half 0, which
                // the slice-start edge infers and the live edge does not.
                fill(&mut frames, &mut p, DRAIN_SLICE + 40);
                frames.extend((WRAP - 8..WRAP + 8).map(esn));
                frames.push(esn((1 << 31) + 3));
                frames.push(esn(WRAP - 44));
            }
            junk(&mut frames, &mut p, LATE[boundary]);
            fill(
                &mut frames,
                &mut p,
                ((boundary + 1) * DRAIN_SLICE - 8).min(N),
            );
        }
        assert_eq!(frames.len(), N);
        for boundary in (1..=3).map(|b| b * DRAIN_SLICE) {
            let spi = |i: usize| frames[i][..4].to_vec();
            assert!((boundary - 8..boundary + 8).all(|i| spi(i) == spi(boundary)));
        }

        batch.push_wire_batch(&frames).unwrap();
        for wire in &frames {
            single.push_wire(wire).unwrap();
        }
        let events = batch.poll_events();
        assert_eq!(events, single.poll_events(), "{suite:?}");
        let count = |kind: fn(&GatewayEvent) -> bool| events.iter().filter(|e| kind(e)).count();
        assert!(count(|e| matches!(e, GatewayEvent::Delivered { .. })) > N / 2);
        assert!(count(|e| matches!(e, GatewayEvent::ReplayDropped { .. })) >= 10);
        // Four of each were put in; a replay may have copied more.
        let sent = |kind: fn(&Bytes) -> bool| frames.iter().filter(|f| kind(f)).count();
        let unknown = sent(|f| f.starts_with(&0xDEAD_u32.to_be_bytes()));
        let runts = sent(|f| f.len() < 4);
        assert!(
            unknown >= 4 && runts >= 4,
            "{suite:?}: {unknown} unknown, {runts} runts"
        );
        assert_eq!(
            count(|e| matches!(e, GatewayEvent::UnknownSa { spi: 0xDEAD })),
            unknown
        );
        assert_eq!(
            count(|e| matches!(e, GatewayEvent::AuthFailed { spi: 0 })),
            runts
        );
        let stale = GatewayEvent::AuthFailed { spi: ESN_SPI };
        assert!(events.contains(&stale), "{suite:?}: the stale guess");
        assert_eq!(batch.right_edge(ESN_SPI).unwrap().value(), WRAP + 7);
        for spi in spis.iter().copied().chain([ESN_SPI]) {
            let failures =
                |gw: &Gateway<MemStable>| gw.sadb().inbound(spi).unwrap().auth_failures();
            assert_eq!(
                failures(&batch),
                failures(&single),
                "{suite:?} spi {spi:#x}"
            );
            assert_eq!(
                batch.in_grace(spi),
                single.in_grace(spi),
                "{suite:?} spi {spi:#x}"
            );
        }
        assert_eq!(format!("{batch:?}"), format!("{single:?}"), "{suite:?}");

        // The clock runs on past every deadline the drain scheduled.
        let (mut probes, mut rekeys) = (0, 0);
        for t in (1_750..=9_000).step_by(250) {
            batch.tick(t);
            single.tick(t);
            let fired = batch.poll_events();
            assert_eq!(fired, single.poll_events(), "{suite:?} at {t} ns");
            assert_eq!(format!("{batch:?}"), format!("{single:?}"), "{suite:?}");
            for e in &fired {
                probes += usize::from(matches!(e, GatewayEvent::ProbeDue { .. }));
                rekeys += usize::from(matches!(e, GatewayEvent::RekeyStarted { .. }));
            }
        }
        assert!(probes >= spis.len(), "{suite:?}: {probes} probes");
        assert!(
            (1..spis.len()).contains(&rekeys),
            "{suite:?}: {rekeys} rekeys"
        );
    }
}
