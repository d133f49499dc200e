//! Differential: batched ICV verification must agree with per-packet
//! verification — bit for bit, verdict for verdict — on randomized,
//! corrupted, truncated and mixed-suite traffic.
//!
//! `CipherSuite::verify_batch` exists purely as an amortization (the
//! HMAC suite's two-pass verifier); it must never change results. These
//! tests pin that at three levels: the raw suite API against the wire
//! codec, the drain — through `Inbound` (scratch local to the call) and
//! through `Sadb` (one persistent scratch and arena) — against a
//! per-frame oracle assembled from the wire codec and a plain window,
//! and the `Sadb` drain against itself under every cut of the queue
//! into batches.

use anti_replay::{AntiReplayWindow, RxOutcome, SeqNum, Verdict};
use bytes::Bytes;
use reset_crypto::{ChaCha20Poly1305Suite, CipherSuite, FrameToVerify, HmacSha256Suite};
use reset_ipsec::{CryptoSuite, Inbound, RxReject, RxResult, SaKeys, Sadb, SecurityAssociation};
use reset_sim::DetRng;
use reset_stable::{MemStable, SlotId, StableStore};
use reset_wire::{
    frame_overhead, infer_esn, open_frame, peek_spi, seal_frame, verify_frame_with, WireError,
    HEADER_LEN,
};

fn suites() -> Vec<Box<dyn CipherSuite>> {
    vec![
        Box::new(HmacSha256Suite::with_keystream(
            b"differential-auth-key",
            b"differential-enc-key",
        )),
        Box::new(HmacSha256Suite::auth_only(b"differential-auth-key")),
        Box::new(ChaCha20Poly1305Suite::new([0xC7; 32])),
    ]
}

/// One randomized frame: which suite sealed it, the (possibly mutated)
/// wire bytes, and the ESN high half the receiver would infer.
struct TestFrame {
    suite_idx: usize,
    wire: Vec<u8>,
    esn_hi: Option<u32>,
}

/// Generates `n` frames across all suites; roughly a third are mutated
/// (flipped ICV bytes, flipped body bytes, truncations).
fn generate_frames(n: usize, seed: u64) -> Vec<TestFrame> {
    let suites = suites();
    let mut rng = DetRng::new(seed);
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        let suite_idx = rng.below(suites.len() as u64) as usize;
        let suite = suites[suite_idx].as_ref();
        let esn = rng.chance(0.5);
        let seq = 1 + if esn {
            rng.below(1 << 40)
        } else {
            rng.below(u32::MAX as u64)
        };
        let mut payload = vec![0u8; rng.below(120) as usize];
        rng.fill_bytes(&mut payload);
        let spi = 0x1000 + suite_idx as u32;
        let mut wire = seal_frame(spi, seq, &payload, suite, esn).unwrap().to_vec();
        match rng.below(9) {
            0 => {
                // Flip a bit inside the ICV.
                let idx = wire.len() - 1 - rng.below(suite.icv_len() as u64) as usize;
                wire[idx] ^= 1 << rng.below(8);
            }
            1 => {
                // Truncate anywhere, including into the header.
                wire.truncate(rng.below(wire.len() as u64 + 1) as usize);
            }
            2 => {
                // Flip a bit anywhere in the frame.
                let idx = rng.below(wire.len() as u64) as usize;
                wire[idx] ^= 1 << rng.below(8);
            }
            _ => {}
        }
        let esn_hi = esn.then_some((seq >> 32) as u32);
        frames.push(TestFrame {
            suite_idx,
            wire,
            esn_hi,
        });
    }
    frames
}

#[test]
fn verify_batch_agrees_with_sequential_on_10k_randomized_frames() {
    let frames = generate_frames(10_000, 0xD1FF_5EED);
    let suites = suites();
    let mut verified = 0usize;
    let mut rejected = 0usize;
    for (suite_idx, suite) in suites.iter().enumerate() {
        let suite = suite.as_ref();
        let overhead = frame_overhead(suite);
        let body_off = HEADER_LEN + suite.iv_len();
        // Sequential ground truth through the wire codec.
        let mine: Vec<&TestFrame> = frames.iter().filter(|f| f.suite_idx == suite_idx).collect();
        let sequential: Vec<bool> = mine
            .iter()
            .map(|f| verify_frame_with(&f.wire, suite, f.esn_hi).is_ok())
            .collect();
        // Batch path over the frames that parse (the wire layer rejects
        // the rest before any crypto — they must all be sequential
        // failures too).
        let mut items: Vec<FrameToVerify<'_>> = Vec::new();
        let mut item_of_frame: Vec<Option<usize>> = Vec::with_capacity(mine.len());
        for f in &mine {
            let well_framed = f.wire.len() >= overhead && {
                let declared = u32::from_be_bytes(f.wire[8..12].try_into().unwrap()) as usize;
                declared == f.wire.len() - overhead
            };
            if !well_framed {
                item_of_frame.push(None);
                continue;
            }
            let seq_lo = u32::from_be_bytes(f.wire[4..8].try_into().unwrap());
            let seq = match f.esn_hi {
                Some(hi) => ((hi as u64) << 32) | seq_lo as u64,
                None => seq_lo as u64,
            };
            let ct_end = f.wire.len() - suite.icv_len();
            items.push(FrameToVerify {
                seq,
                header: &f.wire[..body_off],
                ciphertext: &f.wire[body_off..ct_end],
                esn_hi: f.esn_hi,
                icv: &f.wire[ct_end..],
            });
            item_of_frame.push(Some(items.len() - 1));
        }
        let mut verdicts = Vec::new();
        suite.verify_batch(&items, &mut verdicts);
        assert_eq!(verdicts.len(), items.len());
        for (i, (f, seq_ok)) in mine.iter().zip(&sequential).enumerate() {
            match item_of_frame[i] {
                Some(slot) => assert_eq!(
                    verdicts[slot],
                    *seq_ok,
                    "{} frame {} (len {}) diverged",
                    suite.name(),
                    i,
                    f.wire.len()
                ),
                None => assert!(
                    !seq_ok,
                    "{} frame {}: malformed framing must fail sequentially",
                    suite.name(),
                    i
                ),
            }
            if *seq_ok {
                verified += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // The mix must actually exercise both outcomes, heavily.
    assert!(verified > 5_000, "verified {verified}");
    assert!(rejected > 1_500, "rejected {rejected}");
}

/// What a receiver holding `window` must say about `wire`, predicted
/// from the layers below `reset_ipsec` only: the wire codec's verify and
/// open, ESN inference, and a plain anti-replay window.
fn oracle_verdict(
    wire: &Bytes,
    spi: u32,
    cipher: &dyn CipherSuite,
    window: &mut AntiReplayWindow,
) -> RxResult {
    // SPI and the low sequence half (8 bytes) are read before any crypto.
    if wire.len() < 8 {
        return RxResult::Rejected(RxReject::Wire(WireError::Truncated {
            needed: 8,
            got: wire.len(),
        }));
    }
    let named = peek_spi(wire).expect("at least 8 bytes");
    if named != spi {
        return RxResult::Rejected(RxReject::UnknownSa { spi: named });
    }
    let seq_lo = u32::from_be_bytes(wire[4..8].try_into().unwrap());
    let seq64 = infer_esn(seq_lo, window.right_edge().value());
    let esn_hi = Some((seq64 >> 32) as u32);
    if let Err(e) = verify_frame_with(wire, cipher, esn_hi) {
        return RxResult::Rejected(RxReject::Wire(e));
    }
    let seq = SeqNum::new(seq64);
    match window.check_and_accept(seq) {
        Verdict::Fresh => RxResult::Delivered {
            payload: open_frame(wire, cipher, esn_hi).expect("verified").payload,
            seq,
        },
        Verdict::Stale => RxResult::AntiReplay {
            outcome: RxOutcome::DiscardedStale,
            seq,
        },
        Verdict::Duplicate => RxResult::AntiReplay {
            outcome: RxOutcome::DiscardedDuplicate,
            seq,
        },
    }
}

/// A seeded stream of fresh, reordered, replayed, bit-flipped, truncated
/// and foreign-SPI frames for one SA. It starts just above `edge0`, 40
/// below 2^32, walks across the boundary and then jumps ahead by almost
/// 2^31 — so in a drain that takes it whole the ESN guesses made at the
/// start go stale and the re-verify branch carries the tail.
fn hostile_stream(spi: u32, cipher: &dyn CipherSuite, edge0: u64, rng: &mut DetRng) -> Vec<Bytes> {
    let mut fresh: Vec<Bytes> = Vec::new();
    let mut stream: Vec<Bytes> = Vec::new();
    let mut seq = edge0;
    for i in 0..160u32 {
        seq += 1 + rng.below(3); // small gaps leave holes behind the edge
        if i == 110 {
            seq += (1 << 31) - 25;
        }
        let mut payload = vec![0u8; rng.below(90) as usize];
        rng.fill_bytes(&mut payload);
        let wire = seal_frame(spi, seq, &payload, cipher, true).unwrap();
        fresh.push(wire.clone());
        stream.push(wire);
        let victim = fresh[rng.below(fresh.len() as u64) as usize].clone();
        match rng.below(8) {
            0 => stream.push(victim), // replay
            1 => {
                let mut bad = victim.to_vec();
                let idx = rng.below(bad.len() as u64) as usize;
                bad[idx] ^= 1 << rng.below(8);
                stream.push(Bytes::from(bad));
            }
            2 => stream.push(victim.slice(..rng.below(victim.len() as u64) as usize)),
            3 => {
                let mut foreign = victim.to_vec();
                foreign[0..4].copy_from_slice(&0x0BAD_5B1Du32.to_be_bytes());
                stream.push(Bytes::from(foreign));
            }
            4 if stream.len() >= 2 => {
                let last = stream.len() - 1;
                stream.swap(last, last - 1); // reorder
            }
            _ => {}
        }
    }
    stream
}

/// A store from which FETCH + 2K leap wakes a receiver exactly at `edge0`.
fn store_waking_at(spi: u32, edge0: u64, k: u64) -> MemStable {
    let mut store = MemStable::new();
    store.store(SlotId::receiver(spi), edge0 - 2 * k).unwrap();
    store
}

#[test]
fn inbound_drain_matches_wire_and_window_oracle_across_esn_boundary() {
    // The one receive path against an independent reference, over the
    // hostile stream: every cut of it must reproduce the oracle's
    // per-frame prediction exactly.
    const SPI: u32 = 0x0E5A;
    const K: u64 = 10;
    const W: u64 = 64;
    let edge0 = (1u64 << 32) - 40;
    for (n, &suite) in CryptoSuite::ALL.iter().enumerate() {
        let sa = SecurityAssociation::new(SPI, SaKeys::derive(b"oracle", b"d")).with_suite(suite);
        let cipher = sa.cipher();
        let mut rng = DetRng::new(0x0E5A_0000 + n as u64);
        let stream = hostile_stream(SPI, cipher, edge0, &mut rng);

        let mut window = AntiReplayWindow::with_right_edge(W, SeqNum::new(edge0), true);
        let predicted: Vec<RxResult> = stream
            .iter()
            .map(|wire| oracle_verdict(wire, SPI, cipher, &mut window))
            .collect();
        let delivered = predicted.iter().filter(|r| r.is_delivered()).count();
        let replayed = predicted
            .iter()
            .filter(|r| matches!(r, RxResult::AntiReplay { .. }))
            .count();
        assert!(delivered >= 150, "{suite:?}: delivered {delivered}");
        assert!(replayed >= 5, "{suite:?}: replayed {replayed}");
        assert!(window.right_edge().value() > (1 << 32) + (1 << 31));

        for chunk in [1, 7, stream.len()] {
            // A receiver woken by FETCH + 2K leap exactly at `edge0`.
            let mut rx = Inbound::new(sa.clone(), store_waking_at(SPI, edge0, K), K, W);
            rx.reset();
            rx.wake_up().unwrap();
            assert_eq!(rx.seq_state().right_edge().value(), edge0);
            let got: Vec<RxResult> = stream
                .chunks(chunk)
                .flat_map(|c| rx.process_batch(c).unwrap())
                .collect();
            for (i, (got, want)) in got.iter().zip(&predicted).enumerate() {
                assert_eq!(got, want, "{suite:?} chunk {chunk} frame {i}");
            }
            assert_eq!(got.len(), predicted.len());
        }
    }
}

#[test]
fn sadb_drain_with_persistent_scratch_matches_the_oracle_and_a_fresh_scratch() {
    // The twin of the test above for the path a gateway runs: the `Sadb`
    // keeps ONE scratch and ONE arena across every SPI run of every
    // batch, so anything a run or a batch leaves behind in it — a stale
    // verdict, a decrypt job, a result fix-up, arena bytes — would reach
    // the next. Two SAs of different suites, each with its own hostile
    // stream across the ESN boundary, interleaved in runs of 1–5 frames;
    // the queue is cut into batches of 1, of 7, whole, and one large batch
    // followed by small ones (the arena shrinks back into a buffer sized
    // for more). Each batch's results are checked and DROPPED before the
    // next batch, so the arena really is recycled, against
    //  * the per-frame oracle, and
    //  * the same frames through standalone `Inbound`s, whose scratch is
    //    fresh for every call. (A `Sadb` cannot be swapped for a fresh one
    //    mid-stream without losing its windows, so the fresh scratch comes
    //    from the standalone verb; both run the same drain body.)
    const SPIS: [u32; 2] = [0x0E5A, 0x0E5B];
    const K: u64 = 10;
    const W: u64 = 64;
    let edge0 = (1u64 << 32) - 40;
    for (n, &suite) in CryptoSuite::ALL.iter().enumerate() {
        let suites = [suite, CryptoSuite::ALL[(n + 1) % CryptoSuite::ALL.len()]];
        let sas = [0, 1].map(|i| {
            SecurityAssociation::new(SPIS[i], SaKeys::derive(b"oracle-sadb", &[i as u8]))
                .with_suite(suites[i])
        });
        let mut rng = DetRng::new(0x5ADB_0E5A + n as u64);
        let mut streams =
            [0, 1].map(|i| hostile_stream(SPIS[i], sas[i].cipher(), edge0, &mut rng).into_iter());
        let mut queue: Vec<Bytes> = Vec::new();
        while streams.iter().any(|s| s.len() > 0) {
            let from = rng.below(2) as usize;
            queue.extend(streams[from].by_ref().take(1 + rng.below(5) as usize));
        }

        // The per-frame prediction: what `Sadb` adds to the SA-level
        // oracle is the SPI lookup in front of it.
        let mut windows =
            [0, 1].map(|_| AntiReplayWindow::with_right_edge(W, SeqNum::new(edge0), true));
        let predicted: Vec<RxResult> = queue
            .iter()
            .map(|wire| match peek_spi(wire) {
                None => RxResult::Rejected(RxReject::Wire(WireError::Truncated {
                    needed: 4,
                    got: wire.len(),
                })),
                Some(spi) => match SPIS.iter().position(|&s| s == spi) {
                    None => RxResult::Rejected(RxReject::UnknownSa { spi }),
                    Some(i) => oracle_verdict(wire, spi, sas[i].cipher(), &mut windows[i]),
                },
            })
            .collect();
        let delivered = predicted.iter().filter(|r| r.is_delivered()).count();
        assert!(delivered >= 300, "{suites:?}: delivered {delivered}");
        assert!(windows
            .iter()
            .all(|w| w.right_edge().value() > (1 << 32) + (1 << 31)));

        let n_frames = queue.len();
        // (name, first batch, every later batch)
        let cuts = [
            ("1", 1, 1),
            ("7", 7, 7),
            ("whole", n_frames, n_frames),
            ("large-then-small", n_frames * 3 / 4, 3),
        ];
        for (cut, first, rest) in cuts {
            let mut db: Sadb<MemStable> = Sadb::new();
            let mut alone: Vec<Inbound<MemStable>> = Vec::new();
            for (i, sa) in sas.iter().enumerate() {
                let rx = db.install_inbound(sa.clone(), store_waking_at(SPIS[i], edge0, K), K, W);
                rx.reset();
                rx.wake_up().unwrap();
                assert_eq!(rx.seq_state().right_edge().value(), edge0);
                let mut rx = Inbound::new(sa.clone(), store_waking_at(SPIS[i], edge0, K), K, W);
                rx.reset();
                rx.wake_up().unwrap();
                alone.push(rx);
            }
            // One payload of the first batch is kept to the end: it pins
            // that drain's arena, which later drains must not touch.
            let mut kept: Option<(usize, Bytes)> = None;
            let (mut at, mut size) = (0, first);
            while at < n_frames {
                let batch = &queue[at..n_frames.min(at + size)];
                let got = db.process_batch(batch).unwrap();
                assert_eq!(got.len(), batch.len());
                for (i, (got, want)) in got.iter().zip(&predicted[at..]).enumerate() {
                    assert_eq!(got, want, "{suites:?} cut {cut} frame {}", at + i);
                }
                // The fresh-scratch twin: this batch's frames, per SA,
                // through the standalone verb.
                for (i, rx) in alone.iter_mut().enumerate() {
                    let is_mine = |w: &&Bytes| peek_spi(w) == Some(SPIS[i]);
                    let mine: Vec<Bytes> = batch.iter().filter(is_mine).cloned().collect();
                    let theirs: Vec<&RxResult> = batch
                        .iter()
                        .zip(&got)
                        .filter(|(w, _)| is_mine(w))
                        .map(|(_, r)| r)
                        .collect();
                    let fresh = rx.process_batch(&mine).unwrap();
                    assert_eq!(
                        fresh.iter().collect::<Vec<_>>(),
                        theirs,
                        "{suites:?} cut {cut}"
                    );
                }
                if kept.is_none() {
                    kept = got.iter().enumerate().find_map(|(i, r)| match r {
                        RxResult::Delivered { payload, .. } if !payload.is_empty() => {
                            Some((at + i, payload.clone()))
                        }
                        _ => None,
                    });
                }
                at += batch.len();
                size = rest;
                // `got` drops here, and with it every payload but `kept`.
            }
            let (i, payload) = kept.expect("something was delivered");
            assert!(
                matches!(&predicted[i], RxResult::Delivered { payload: want, .. } if *want == payload),
                "{suites:?} cut {cut}: a retained payload was overwritten by a later drain"
            );
            for (i, rx) in alone.iter().enumerate() {
                let through_db = db.inbound(SPIS[i]).unwrap();
                assert_eq!(through_db.auth_failures(), rx.auth_failures(), "cut {cut}");
                assert_eq!(
                    through_db.seq_state().right_edge(),
                    windows[i].right_edge(),
                    "cut {cut}"
                );
            }
        }
    }
}

#[test]
fn sadb_batch_drain_matches_sequential_on_mixed_suite_queue() {
    // Three SAs, one per suite, interleaved bursts with replays,
    // forgeries, runts and a foreign SPI — draining the queue whole
    // (verify_batch per SA run), in batches of seven, or one frame at a
    // time (the sequential receiver) must agree result for result.
    let mut rng = DetRng::new(0x5ADB);
    let build_db = || {
        let mut db: Sadb<MemStable> = Sadb::new();
        for (spi, suite) in CryptoSuite::ALL.iter().enumerate() {
            let spi = spi as u32 + 1;
            let keys = SaKeys::derive(b"sadb-mixed", &spi.to_be_bytes());
            let sa = SecurityAssociation::new(spi, keys).with_suite(*suite);
            db.install_outbound(sa.clone(), MemStable::new(), 50);
            db.install_inbound(sa, MemStable::new(), 50, 256);
        }
        db
    };
    let mut tx = build_db();

    let mut queue: Vec<Bytes> = Vec::new();
    for round in 0..60u32 {
        let spi = 1 + rng.below(CryptoSuite::ALL.len() as u64) as u32;
        for i in 0..(1 + rng.below(6)) {
            let payload = format!("r{round} s{spi} p{i}");
            queue.push(tx.protect(spi, payload.as_bytes()).unwrap().unwrap());
        }
    }
    // Replays: re-queue a random slice.
    let replay_from = rng.below(queue.len() as u64 / 2) as usize;
    queue.extend_from_slice(&queue.clone()[replay_from..replay_from + 20]);
    // Forgeries: flip bits in some copies.
    for _ in 0..15 {
        let mut forged = queue[rng.below(queue.len() as u64) as usize].to_vec();
        let idx = rng.below(forged.len() as u64) as usize;
        forged[idx] ^= 1 << rng.below(8);
        queue.push(Bytes::from(forged));
    }
    // A runt and a foreign SPI.
    queue.push(Bytes::copy_from_slice(&[0x01, 0x02]));
    let mut foreign = queue[0].to_vec();
    foreign[3] = 0x77;
    queue.push(Bytes::from(foreign));
    // Shuffle so SA runs interleave unpredictably.
    let mut order: Vec<usize> = (0..queue.len()).collect();
    rng.shuffle(&mut order);
    let queue: Vec<Bytes> = order.into_iter().map(|i| queue[i].clone()).collect();

    let whole = build_db().process_batch(&queue).unwrap();
    assert_eq!(whole.len(), queue.len());
    let delivered = whole.iter().filter(|r| r.is_delivered()).count();
    assert!(delivered > 100, "delivered {delivered}");
    for chunk in [1, 7] {
        let mut db = build_db();
        let cut: Vec<RxResult> = queue
            .chunks(chunk)
            .flat_map(|c| db.process_batch(c).unwrap())
            .collect();
        for (i, (cut, whole)) in cut.iter().zip(&whole).enumerate() {
            assert_eq!(cut, whole, "chunk {chunk} packet {i}");
        }
    }
}
