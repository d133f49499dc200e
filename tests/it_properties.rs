//! Property-style tests of the core invariants.
//!
//! Random adversaries are stronger than hand-written ones: these
//! properties throw arbitrary streams, fault schedules and corruptions at
//! the window, the SAVE/FETCH processes, the wire codec and the bignum,
//! and check the paper's invariants on every generated case. Cases are
//! generated from the repository's own seeded [`DetRng`] (the offline
//! build has no proptest), so every run is bit-for-bit reproducible from
//! the literal seeds below.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use anti_replay::{AntiReplayWindow, SeqNum, SfDriver};
use bytes::Bytes;
use reset_crypto::{ChaCha20Poly1305Suite, HmacSha256Suite};
use reset_ipsec::{
    CryptoSuite, Gateway, GatewayBuilder, GatewayEvent, SaKeys, SecurityAssociation, ShardedGateway,
};
use reset_sim::DetRng;
use reset_stable::{MemStable, SlotId};

const CASES: u64 = 48;

fn bytes(gen: &mut DetRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| gen.next_u64() as u8).collect()
}

// ---------------------------------------------------------------------
// Anti-replay window
// ---------------------------------------------------------------------

/// Discrimination holds for ANY stream: no sequence number is ever
/// delivered (Fresh) twice, regardless of order or duplication.
#[test]
fn window_never_delivers_twice() {
    let mut gen = DetRng::new(0x17_0001);
    for case in 0..CASES {
        let w = 1 + gen.below(199);
        let n = 1 + gen.below(399) as usize;
        let mut win = AntiReplayWindow::new(w);
        let mut delivered = HashSet::new();
        for _ in 0..n {
            let s = 1 + gen.below(499);
            if win.check_and_accept(SeqNum::new(s)).is_deliverable() {
                assert!(delivered.insert(s), "case {case}: seq {s} delivered twice");
            }
        }
    }
}

/// w-Delivery: a stream whose reorder degree stays below w delivers
/// every distinct message exactly once.
#[test]
fn window_delivers_all_with_bounded_reorder() {
    let mut gen = DetRng::new(0x17_0002);
    for case in 0..CASES {
        let w = 4 + gen.below(124);
        let n = 1 + gen.below(299);
        // Shuffle within chunks of w/2: displacement < w guaranteed.
        let mut seqs: Vec<u64> = (1..=n).collect();
        for chunk in seqs.chunks_mut((w as usize / 2).max(1)) {
            gen.shuffle(chunk);
        }
        let degrees = reset_harness::reorder_degrees(&seqs);
        if !degrees.iter().all(|&d| d < w) {
            continue; // premise violated by this draw; skip like prop_assume
        }
        let mut win = AntiReplayWindow::new(w);
        let mut delivered = 0;
        for &s in &seqs {
            if win.check_and_accept(SeqNum::new(s)).is_deliverable() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, n, "case {case} (w={w})");
    }
}

/// check() never mutates: any interleaving of checks between accepts
/// leaves the same final state as the accepts alone.
#[test]
fn window_check_is_pure() {
    let mut gen = DetRng::new(0x17_0003);
    for case in 0..CASES {
        let w = 1 + gen.below(63);
        let n = gen.below(60) as usize;
        let accepts: Vec<u64> = (0..n).map(|_| 1 + gen.below(199)).collect();
        let probes: Vec<u64> = (0..n).map(|_| 1 + gen.below(199)).collect();
        let mut a = AntiReplayWindow::new(w);
        let mut b = AntiReplayWindow::new(w);
        for (i, &s) in accepts.iter().enumerate() {
            if a.check(SeqNum::new(s)).is_deliverable() {
                a.accept(SeqNum::new(s));
            }
            if let Some(&p) = probes.get(i) {
                let _ = a.check(SeqNum::new(p));
            }
            if b.check(SeqNum::new(s)).is_deliverable() {
                b.accept(SeqNum::new(s));
            }
        }
        assert_eq!(a, b, "case {case}");
    }
}

/// The oracle test guarding the word-level slide rewrite:
/// [`AntiReplayWindow`] and a naive HashSet-of-seen model make identical
/// deliver/reject decisions over 100k packets with reorder, duplication
/// and large jumps.
#[test]
fn window_implementations_match_hashset_oracle_100k() {
    // Oracle: remembers every in-window delivery exactly; rejects left
    // of the window, duplicates inside it.
    struct Oracle {
        w: u64,
        right: u64,
        seen: HashSet<u64>,
    }
    impl Oracle {
        fn deliver(&mut self, s: u64) -> bool {
            let fresh = if s > self.right {
                true
            } else if s as u128 + self.w as u128 <= self.right as u128 {
                false
            } else {
                !self.seen.contains(&s)
            };
            if fresh {
                self.seen.insert(s);
                self.right = self.right.max(s);
                // Stale entries are never consulted (the staleness test
                // runs first), so prune only occasionally for memory.
                if self.seen.len() as u64 >= 2 * self.w {
                    let left = (self.right + 1).saturating_sub(self.w);
                    self.seen.retain(|&x| x >= left);
                }
            }
            fresh
        }
    }

    let w = 4096u64;
    let mut reference = AntiReplayWindow::new(w);
    let mut oracle = Oracle {
        w,
        right: 0,
        seen: HashSet::new(),
    };

    let mut gen = DetRng::new(0x17_0004);
    let mut next = 1u64;
    let mut history: Vec<u64> = Vec::new();
    let mut packets = 0u64;
    while packets < 100_000 {
        // One burst per loop: in-order run, shuffled run, replay burst,
        // or a large jump past the whole window.
        match gen.below(8) {
            0..=2 => {
                // In-order run.
                for _ in 0..gen.range_inclusive(1, 64) {
                    history.push(next);
                    next += 1;
                }
            }
            3..=4 => {
                // Reordered run: shuffle a chunk of fresh numbers.
                let len = gen.range_inclusive(2, 512) as usize;
                let mut chunk: Vec<u64> = (next..next + len as u64).collect();
                next += len as u64;
                gen.shuffle(&mut chunk);
                history.extend_from_slice(&chunk);
            }
            5..=6 => {
                // Replay burst: duplicates of recent or ancient traffic.
                for _ in 0..gen.range_inclusive(1, 128) {
                    if history.is_empty() {
                        break;
                    }
                    let idx = gen.below(history.len() as u64) as usize;
                    let replayed = history[idx];
                    history.push(replayed);
                }
            }
            _ => {
                // Large jump: leap far beyond the window, then continue.
                next += w + gen.below(3 * w);
                history.push(next);
                next += 1;
            }
        }
        while packets < 100_000 {
            let Some(&s) = history.get(packets as usize) else {
                break;
            };
            let seq = SeqNum::new(s);
            let d_ref = reference.check_and_accept(seq).is_deliverable();
            let d_oracle = oracle.deliver(s);
            assert_eq!(
                d_ref, d_oracle,
                "packet {packets}: reference vs oracle on seq {s}"
            );
            packets += 1;
        }
    }
    assert!(oracle.right > w, "stream actually exercised sliding");
}

// ---------------------------------------------------------------------
// SAVE/FETCH processes under random fault schedules
// ---------------------------------------------------------------------

/// Freshness + bounded waste for arbitrary schedules respecting the
/// premise (a SAVE completes within K subsequent sends): every wake-up
/// resumes strictly above all used sequence numbers and skips at most 2K.
#[test]
fn sender_wakeups_always_fresh() {
    let mut gen = DetRng::new(0x17_0005);
    for _ in 0..CASES {
        let k = 2 + gen.below(38);
        let n_ops = 1 + gen.below(199);
        let mut p = SfDriver::sender(MemStable::new(), SlotId::sender(1), k);
        let mut max_used = 0u64;
        let mut sends_since_issue = 0u64;
        for _ in 0..n_ops {
            match gen.below(9) {
                0..=5 => {
                    // Enforce the premise: a pending SAVE must complete
                    // within K sends of being issued.
                    if p.pending_save().is_some() && sends_since_issue >= k - 1 {
                        p.save_completed().expect("mem store");
                        sends_since_issue = 0;
                    }
                    let had_pending = p.pending_save().is_some();
                    if let Some(s) = p.send_next() {
                        max_used = max_used.max(s.value());
                        if p.pending_save().is_some() {
                            sends_since_issue = if had_pending {
                                sends_since_issue + 1
                            } else {
                                0
                            };
                        }
                    }
                }
                6..=7 => {
                    p.save_completed().expect("mem store");
                    sends_since_issue = 0;
                }
                _ => {
                    let old_next = p.machine().next_seq().expect("sender");
                    let was_running = p.phase() == anti_replay::Phase::Running;
                    p.reset();
                    let resumed = p.wake_up().expect("mem store").resumed;
                    assert!(
                        resumed.value() > max_used,
                        "resumed {} <= max_used {}",
                        resumed.value(),
                        max_used
                    );
                    if was_running {
                        let lost = resumed.value().saturating_sub(old_next.value());
                        assert!(lost <= 2 * k, "lost {lost} > 2K");
                    }
                    sends_since_issue = 0;
                }
            }
        }
    }
}

/// The receiver under random in-order traffic + resets never accepts
/// a replay of anything previously delivered.
#[test]
fn receiver_never_reaccepts_after_wakeup() {
    let mut gen = DetRng::new(0x17_0006);
    for _ in 0..CASES {
        let k = 2 + gen.below(28);
        let total = 50 + gen.below(450);
        let n_resets = gen.below(4) as usize;
        let mut reset_points: Vec<u64> = (0..n_resets).map(|_| 1 + gen.below(499)).collect();
        reset_points.sort_unstable();
        reset_points.dedup();
        let w = 4 * k + 32;
        let mut q = SfDriver::receiver(MemStable::new(), SlotId::receiver(1), k, w);
        let mut delivered: Vec<u64> = Vec::new();
        let mut next_reset = 0usize;
        let mut since_issue = 0u64;
        for s in 1..=total {
            // Premise: complete pending saves within K receives.
            if q.pending_save().is_some() {
                since_issue += 1;
                if since_issue >= k - 1 {
                    q.save_completed().expect("mem store");
                    since_issue = 0;
                }
            }
            if next_reset < reset_points.len() && s == reset_points[next_reset] {
                q.reset();
                q.wake_up().expect("mem store");
                next_reset += 1;
                since_issue = 0;
                // The §3 attack at the worst moment: replay everything.
                for &old in &delivered {
                    let out = q.receive(SeqNum::new(old));
                    assert!(!out.is_delivered(), "replayed {old} accepted after wakeup");
                }
            }
            if q.receive(SeqNum::new(s)).is_delivered() {
                delivered.push(s);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Wire codec + crypto
// ---------------------------------------------------------------------

/// seal/open round-trips arbitrary payloads and parameters.
#[test]
fn wire_round_trip() {
    let mut gen = DetRng::new(0x17_0008);
    for _ in 0..CASES {
        let spi = gen.next_u64() as u32;
        let seq = 1 + gen.below(u32::MAX as u64 - 1);
        let payload_len = gen.below(512) as usize;
        let payload = bytes(&mut gen, payload_len);
        let key: [u8; 32] = bytes(&mut gen, 32).try_into().expect("32 bytes");
        let suite = ChaCha20Poly1305Suite::new(key);
        let wire = reset_wire::seal_frame(spi, seq, &payload, &suite, false).expect("seal");
        let pkt = reset_wire::open_frame(&wire, &suite, None).expect("open");
        assert_eq!(pkt.spi, spi);
        assert_eq!(pkt.seq_lo, seq as u32);
        assert_eq!(&pkt.payload[..], &payload[..]);
    }
}

/// Any single-bit corruption is rejected.
#[test]
fn wire_rejects_any_bit_flip() {
    let mut gen = DetRng::new(0x17_0009);
    for _ in 0..CASES {
        let payload_len = gen.below(128) as usize;
        let payload = bytes(&mut gen, payload_len);
        let suite = HmacSha256Suite::auth_only(b"key");
        let wire = reset_wire::seal_frame(7, 42, &payload, &suite, false).expect("seal");
        let mut bad = wire.to_vec();
        let pos = gen.below((bad.len() * 8) as u64) as usize;
        bad[pos / 8] ^= 1 << (pos % 8);
        assert!(reset_wire::verify_frame_with(&bad, &suite, None).is_err());
    }
}

/// ESN inference reconstructs any in-window 64-bit sequence number
/// from its low 32 bits.
#[test]
fn esn_inference_round_trips() {
    let mut gen = DetRng::new(0x17_000A);
    for _ in 0..CASES * 8 {
        let edge = gen.below(1u64 << 40);
        let delta = gen.below(4000) as i64 - 2000;
        let seq = edge.saturating_add_signed(delta);
        let inferred = reset_wire::infer_esn(seq as u32, edge);
        assert_eq!(inferred, seq, "edge {edge} delta {delta}");
    }
}

/// Stable-store records survive round trips and reject corruption.
#[test]
fn record_round_trip_and_corruption() {
    use reset_stable::{decode_record, encode_record, RECORD_LEN};
    let mut gen = DetRng::new(0x17_000B);
    for _ in 0..CASES * 4 {
        let slot = SlotId::raw(gen.next_u64());
        let value = gen.next_u64();
        let rec = encode_record(slot, value);
        assert_eq!(decode_record(slot, &rec).expect("decode"), value);
        let mut bad = rec;
        let pos = gen.below((RECORD_LEN * 8) as u64) as usize;
        bad[pos / 8] ^= 1 << (pos % 8);
        assert!(decode_record(slot, &bad).is_err());
    }
}

/// prf_plus output length is exact and prefix-stable.
#[test]
fn prf_plus_properties() {
    let mut gen = DetRng::new(0x17_000C);
    for _ in 0..CASES {
        let key_len = gen.below(64) as usize;
        let key = bytes(&mut gen, key_len);
        let seed_len = gen.below(64) as usize;
        let seed = bytes(&mut gen, seed_len);
        let len_a = gen.below(200) as usize;
        let len_b = gen.below(200) as usize;
        let a = reset_crypto::prf_plus(&key, &seed, len_a);
        let b = reset_crypto::prf_plus(&key, &seed, len_b);
        assert_eq!(a.len(), len_a);
        let shared = len_a.min(len_b);
        assert_eq!(&a[..shared], &b[..shared]);
    }
}

/// BigUint modular arithmetic agrees with u128 reference math.
#[test]
fn bignum_matches_u128() {
    use reset_crypto::BigUint;
    let mut gen = DetRng::new(0x17_000D);
    for _ in 0..CASES * 4 {
        let a = 1 + gen.next_u64() % (u64::MAX - 1);
        let b = 1 + gen.next_u64() % (u64::MAX - 1);
        let m = 2 + gen.below((1u64 << 32) - 2);
        let big = BigUint::from_u64(a).mod_mul(&BigUint::from_u64(b), &BigUint::from_u64(m));
        let expect = ((a as u128 * b as u128) % m as u128) as u64;
        assert_eq!(big, BigUint::from_u64(expect), "{a} * {b} mod {m}");
    }
}

// ---------------------------------------------------------------------
// Sharded fleet reset storms: the §3 invariant per SA, with a
// DetRng-driven schedule shrinker
// ---------------------------------------------------------------------

/// One step of a randomized storm schedule against a sharded receiver
/// fleet. Schedules are plain data so a failing one can be *shrunk* to
/// a minimal counterexample before being reported.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StormOp {
    /// Protect and push one fresh frame per listed SA (repeats allowed),
    /// as a single batch — the batch fans out shard-parallel.
    Burst(Vec<u32>),
    /// The adversary replays recorded ciphertext: each pick indexes the
    /// recorded history modulo its current length.
    Replay(Vec<u64>),
    /// Background SAVEs reach the disk (the §4 premise).
    SaveDone,
    /// The receiver fleet crashes and runs the shard-parallel
    /// SAVE/FETCH recovery (saves completed first, modelling the
    /// premise that a SAVE lands within K receives).
    ResetRecover,
}

const STORM_SAS: u32 = 24;
const STORM_SHARDS: usize = 4;
const STORM_K: u64 = 10;

fn storm_sa(spi: u32) -> SecurityAssociation {
    SecurityAssociation::new(spi, SaKeys::derive(b"storm-master", &spi.to_be_bytes()))
        .with_suite(CryptoSuite::default())
}

/// Executes one schedule and checks, per SA, the §3 invariant online:
/// no sequence number is ever delivered twice (0 replays accepted
/// post-FETCH), and the fresh frames sacrificed to leaps stay within
/// `2K x resets`. Returns the first violation, rendered.
fn run_storm(ops: &[StormOp]) -> Result<(), String> {
    let mut tx: Gateway<MemStable> = GatewayBuilder::in_memory().save_interval(STORM_K).build();
    let mut rx: ShardedGateway<MemStable> = GatewayBuilder::in_memory_sharded(STORM_SHARDS)
        .save_interval(STORM_K)
        .window(64)
        .build_sharded();
    for spi in 1..=STORM_SAS {
        tx.install_outbound(storm_sa(spi));
        rx.install_inbound(storm_sa(spi));
    }
    let mut recorded: Vec<Bytes> = Vec::new();
    let mut delivered: HashMap<u32, HashSet<u64>> = HashMap::new();
    let mut fresh_lost: HashMap<u32, u64> = HashMap::new();
    let mut resets = 0u64;

    // Consumes one batch's events, correlating each event back to the
    // pushed frame through per-SPI FIFO tags (true = fresh).
    let check = |rx: &mut ShardedGateway<MemStable>,
                 batch: &[Bytes],
                 mut tags: BTreeMap<u32, VecDeque<bool>>,
                 delivered: &mut HashMap<u32, HashSet<u64>>,
                 fresh_lost: &mut HashMap<u32, u64>,
                 resets: u64|
     -> Result<(), String> {
        rx.push_wire_batch(batch).map_err(|e| e.to_string())?;
        for ev in rx.poll_events() {
            match ev {
                GatewayEvent::Delivered { spi, seq, .. } => {
                    let _fresh = tags.get_mut(&spi).and_then(|q| q.pop_front());
                    if !delivered.entry(spi).or_default().insert(seq.value()) {
                        return Err(format!(
                            "SA {spi}: seq {} delivered twice after {resets} reset(s) — \
                             replay accepted post-FETCH",
                            seq.value()
                        ));
                    }
                }
                GatewayEvent::ReplayDropped { spi, seq, .. } => {
                    let fresh = tags
                        .get_mut(&spi)
                        .and_then(|q| q.pop_front())
                        .unwrap_or(false);
                    let seen = delivered
                        .get(&spi)
                        .is_some_and(|s| s.contains(&seq.value()));
                    if fresh && !seen {
                        let lost = fresh_lost.entry(spi).or_default();
                        *lost += 1;
                        if *lost > 2 * STORM_K * resets {
                            return Err(format!(
                                "SA {spi}: {lost} fresh frames sacrificed after {resets} \
                                 reset(s) — exceeds the 2K bound {}",
                                2 * STORM_K * resets
                            ));
                        }
                    }
                }
                GatewayEvent::AuthFailed { spi } | GatewayEvent::UnknownSa { spi } => {
                    return Err(format!("SA {spi}: genuine frame failed authentication"));
                }
                _ => {}
            }
        }
        Ok(())
    };

    for op in ops {
        match op {
            StormOp::Burst(spis) => {
                let mut batch = Vec::with_capacity(spis.len());
                let mut tags: BTreeMap<u32, VecDeque<bool>> = BTreeMap::new();
                for &spi in spis {
                    let f = tx
                        .protect(spi, b"storm payload")
                        .map_err(|e| e.to_string())?
                        .expect("tx never resets");
                    recorded.push(f.wire.clone());
                    batch.push(f.wire);
                    tags.entry(spi).or_default().push_back(true);
                }
                check(
                    &mut rx,
                    &batch,
                    tags,
                    &mut delivered,
                    &mut fresh_lost,
                    resets,
                )?;
            }
            StormOp::Replay(picks) => {
                if recorded.is_empty() {
                    continue;
                }
                let mut batch = Vec::with_capacity(picks.len());
                let mut tags: BTreeMap<u32, VecDeque<bool>> = BTreeMap::new();
                for &p in picks {
                    let wire = recorded[(p % recorded.len() as u64) as usize].clone();
                    let spi = reset_wire::peek_spi(&wire).expect("recorded frames carry SPIs");
                    tags.entry(spi).or_default().push_back(false);
                    batch.push(wire);
                }
                check(
                    &mut rx,
                    &batch,
                    tags,
                    &mut delivered,
                    &mut fresh_lost,
                    resets,
                )?;
            }
            StormOp::SaveDone => {
                rx.save_completed().map_err(|e| e.to_string())?;
                tx.save_completed().map_err(|e| e.to_string())?;
            }
            StormOp::ResetRecover => {
                // Premise: pending SAVEs land before the crash strikes.
                rx.save_completed().map_err(|e| e.to_string())?;
                rx.reset();
                rx.recover().map_err(|e| e.to_string())?;
                resets += 1;
                rx.poll_events(); // Recovered + DroppedDown noise
            }
        }
    }
    Ok(())
}

fn generate_storm_schedule(seed: u64) -> Vec<StormOp> {
    let mut gen = DetRng::new(seed);
    let n_ops = 30 + gen.below(40);
    (0..n_ops)
        .map(|_| match gen.below(12) {
            0..=6 => {
                let n = 1 + gen.below(48);
                StormOp::Burst(
                    (0..n)
                        .map(|_| 1 + gen.below(STORM_SAS as u64) as u32)
                        .collect(),
                )
            }
            7..=8 => {
                let n = 1 + gen.below(32);
                StormOp::Replay((0..n).map(|_| gen.next_u64()).collect())
            }
            9 => StormOp::SaveDone,
            _ => StormOp::ResetRecover,
        })
        .collect()
}

/// Greedy delta-debugging shrink: repeatedly delete the largest chunk
/// whose removal keeps the schedule failing, halving the chunk size
/// until single-op deletions no longer help. Deterministic; the result
/// is 1-minimal (no single op can be removed).
fn shrink_schedule<T: Clone>(ops: &[T], fails: &dyn Fn(&[T]) -> bool) -> Vec<T> {
    let mut cur = ops.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut cand = cur.clone();
            cand.drain(start..end);
            if !cand.is_empty() && fails(&cand) {
                cur = cand;
                shrunk = true;
                // Retry the same offset: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            if !shrunk {
                return cur;
            }
        } else if !shrunk {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// The fleet reset-storm property: for every seeded schedule of
/// concurrent batched pushes, adversary replays and shard-parallel
/// `reset`/`recover_all` cycles, the §3 invariant holds on every SA —
/// 0 replays accepted post-FETCH and at most `2K x resets` fresh frames
/// sacrificed. A failing schedule is shrunk to a minimal
/// counterexample before being reported.
#[test]
fn sharded_fleet_storm_holds_section3_invariant_per_sa() {
    let mut gen = DetRng::new(0x17_0010);
    for case in 0..12u64 {
        let seed = gen.next_u64();
        let schedule = generate_storm_schedule(seed);
        if run_storm(&schedule).is_err() {
            let fails = |ops: &[StormOp]| run_storm(ops).is_err();
            let minimal = shrink_schedule(&schedule, &fails);
            let verdict = run_storm(&minimal).expect_err("shrunk schedules keep failing");
            panic!(
                "case {case} (seed {seed:#x}): §3 invariant violated: {verdict}\n\
                 minimal schedule ({} of {} ops):\n{minimal:#?}",
                minimal.len(),
                schedule.len()
            );
        }
    }
}

/// The shrinker itself, exercised on a synthetic failure predicate
/// (the real property holding would leave it dead code): it must find
/// the exact 3-op core of a 60-op schedule.
#[test]
fn schedule_shrinker_finds_minimal_counterexample() {
    let schedule = generate_storm_schedule(0x17_0011);
    assert!(schedule.len() >= 30);
    // Synthetic bug: "fails" whenever ≥ 2 resets and ≥ 1 replay remain.
    let fails = |ops: &[StormOp]| {
        let resets = ops.iter().filter(|o| **o == StormOp::ResetRecover).count();
        let replays = ops
            .iter()
            .filter(|o| matches!(o, StormOp::Replay(_)))
            .count();
        resets >= 2 && replays >= 1
    };
    // Ensure the generated schedule actually triggers it.
    let mut schedule = schedule;
    schedule.push(StormOp::ResetRecover);
    schedule.push(StormOp::Replay(vec![1]));
    schedule.push(StormOp::ResetRecover);
    assert!(fails(&schedule));
    let minimal = shrink_schedule(&schedule, &fails);
    assert_eq!(minimal.len(), 3, "minimal core: two resets + one replay");
    assert!(fails(&minimal));
    assert_eq!(
        minimal
            .iter()
            .filter(|o| **o == StormOp::ResetRecover)
            .count(),
        2
    );
}
