//! Scalar-vs-lane differential: every SIMD backend must be
//! byte-identical to the scalar oracle through the full suite surface —
//! `encrypt`, `decrypt`, `icv`, `verify_batch`, `decrypt_batch` — over
//! randomized batches of mixed payload sizes, mixed suites, ESN and
//! non-ESN frames, and deliberate corruptions; and through the sending
//! verb, `seal`, with its look-ahead carried from frame to frame the way
//! a sender carries it. The suite-level KATs (RFC 8439 seal equivalence,
//! raw-HMAC equivalence) re-run per backend.

use reset_crypto::{
    chacha20_poly1305_seal, hmac_sha256_96, Backend, ChaCha20Poly1305Suite, CipherSuite,
    FrameToVerify, HmacSha256Suite, SealAhead,
};

/// Payload sizes exercising block boundaries of both suites.
const SIZES: [usize; 6] = [0, 1, 63, 64, 65, 1400];

const TOTAL_FRAMES: usize = 10_000;
const BATCH: usize = 32;

/// Owned frame material backing a `FrameToVerify` borrow:
/// (seq, header, ciphertext, esn_hi, icv — possibly corrupted).
type OwnedFrame = (u64, Vec<u8>, Vec<u8>, Option<u32>, Vec<u8>);

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = (self.next() & 0xff) as u8;
        }
    }
}

/// The three registered suite configurations, as (oracle, backend) pairs
/// over identical key material.
fn suite_pairs(backend: Backend) -> Vec<(Box<dyn CipherSuite>, Box<dyn CipherSuite>)> {
    vec![
        (
            Box::new(
                HmacSha256Suite::with_keystream(b"diff-auth", b"diff-enc")
                    .with_backend(Backend::Scalar),
            ),
            Box::new(
                HmacSha256Suite::with_keystream(b"diff-auth", b"diff-enc").with_backend(backend),
            ),
        ),
        (
            Box::new(HmacSha256Suite::auth_only(b"diff-auth").with_backend(Backend::Scalar)),
            Box::new(HmacSha256Suite::auth_only(b"diff-auth").with_backend(backend)),
        ),
        (
            Box::new(ChaCha20Poly1305Suite::new([0x42; 32]).with_backend(Backend::Scalar)),
            Box::new(ChaCha20Poly1305Suite::new([0x42; 32]).with_backend(backend)),
        ),
    ]
}

fn simd_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| *b != Backend::Scalar && b.is_supported())
        .collect()
}

#[test]
fn randomized_10k_frame_differential_every_supported_backend() {
    for backend in simd_backends() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let pairs = suite_pairs(backend);
        let mut frames_done = 0usize;
        let mut batch_no = 0u64;
        while frames_done < TOTAL_FRAMES {
            let (oracle, lane) = &pairs[(batch_no % pairs.len() as u64) as usize];
            batch_no += 1;
            let n = BATCH.min(TOTAL_FRAMES - frames_done);
            frames_done += n;

            // Build n frames: random size, random header, seq-derived
            // body, ESN on some, corruption on some.
            let mut storage: Vec<OwnedFrame> = Vec::new();
            for i in 0..n {
                let seq = batch_no * 1000 + i as u64;
                let size = SIZES[(rng.next() % SIZES.len() as u64) as usize];
                let mut header = vec![0u8; 12];
                rng.fill(&mut header);
                let mut body = vec![0u8; size];
                rng.fill(&mut body);
                let esn_hi = if rng.next().is_multiple_of(3) {
                    Some((rng.next() & 0xffff_ffff) as u32)
                } else {
                    None
                };
                // Encrypt with both suites; ciphertexts must agree.
                let mut ct_oracle = body.clone();
                oracle.encrypt(seq, &mut ct_oracle);
                let mut ct_lane = body;
                lane.encrypt(seq, &mut ct_lane);
                assert_eq!(
                    ct_oracle, ct_lane,
                    "{backend} encrypt seq {seq} size {size}"
                );

                // ICVs from both suites must agree too.
                let icv_oracle = oracle.icv(seq, &header, &ct_oracle, esn_hi);
                let icv_lane = lane.icv(seq, &header, &ct_oracle, esn_hi);
                assert_eq!(&icv_oracle[..], &icv_lane[..], "{backend} icv seq {seq}");

                let mut icv = icv_oracle.to_vec();
                match rng.next() % 8 {
                    0 => icv[0] ^= 0x01,              // flipped tag bit
                    1 => icv.truncate(icv.len() - 1), // truncated tag
                    _ => {}
                }
                storage.push((seq, header, ct_oracle, esn_hi, icv));
            }
            let frames: Vec<FrameToVerify<'_>> = storage
                .iter()
                .map(|(seq, h, ct, esn, icv)| FrameToVerify {
                    seq: *seq,
                    header: h,
                    ciphertext: ct,
                    esn_hi: *esn,
                    icv,
                })
                .collect();

            // verify_batch verdicts must be identical.
            let mut ok_oracle = Vec::new();
            let mut ok_lane = Vec::new();
            oracle.verify_batch(&frames, &mut ok_oracle);
            lane.verify_batch(&frames, &mut ok_lane);
            assert_eq!(ok_oracle, ok_lane, "{backend} batch {batch_no}");
            // Both against the per-frame reference.
            let sequential: Vec<bool> = frames.iter().map(|f| oracle.verify(f)).collect();
            assert_eq!(ok_oracle, sequential, "oracle batch vs sequential");

            // decrypt_batch: pack all ciphertexts into one arena.
            if oracle.encrypts() {
                let mut arena_oracle = Vec::new();
                let mut jobs = Vec::new();
                for (seq, _, ct, _, _) in &storage {
                    let start = arena_oracle.len();
                    arena_oracle.extend_from_slice(ct);
                    jobs.push((*seq, start..start + ct.len()));
                }
                let mut arena_lane = arena_oracle.clone();
                oracle.decrypt_batch(&mut arena_oracle, &jobs);
                lane.decrypt_batch(&mut arena_lane, &jobs);
                assert_eq!(
                    arena_oracle, arena_lane,
                    "{backend} decrypt batch {batch_no}"
                );
            }
        }
    }
}

/// The oracle for the send look-ahead: `seal` must be `encrypt` + `icv`
/// of the scalar suite, byte for byte, whatever a look-ahead that is used
/// the way a sender uses it happens to hold. One look-ahead serves three
/// keys under the owner rule (cleared whenever the key sealing differs
/// from the key that sealed last — `SealAhead`'s contract, and the only
/// thing that keeps a block from being served under the wrong key);
/// sequence numbers mostly step by one, sometimes leap `2K`, sometimes
/// fall back to a smaller value; lengths sit on and around every block
/// and lane-group edge.
#[test]
fn seal_with_a_carried_look_ahead_matches_scalar_encrypt_then_icv() {
    const SEALS: usize = 12_000;
    const TWO_K: u64 = 50;
    // 64-byte blocks incl. counter 0: 448 B is eight (one AVX2 group),
    // 192 B four (one 4-lane group), 960 B sixteen, 1400 B twenty-three.
    const EDGES: [usize; 19] = [
        0, 1, 63, 64, 65, 127, 128, 191, 192, 193, 447, 448, 449, 959, 960, 961, 1400, 1999, 2000,
    ];
    for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        let mut rng = XorShift(0x5ea1_a4ea_d000_0001);
        let keys = [[0x11u8; 32], [0x22; 32], [0x33; 32]];
        let lanes = keys.map(|k| ChaCha20Poly1305Suite::new(k).with_backend(backend));
        let oracles = keys.map(|k| ChaCha20Poly1305Suite::new(k).with_backend(Backend::Scalar));
        // Every key starts at the same number, so a block left over from
        // one key is exactly what another would ask for next.
        let mut seqs = [u32::MAX as u64 - 3_000; 3];
        let mut ahead = SealAhead::default();
        let (mut key, mut owner) = (0usize, usize::MAX);
        let mut run_len = 64usize;
        for i in 0..SEALS {
            // Runs on one key, broken by singletons on the others.
            if rng.next().is_multiple_of(6) {
                key = (rng.next() % 3) as usize;
            }
            if key != owner {
                ahead.clear();
                owner = key;
            }
            if rng.next().is_multiple_of(97) {
                ahead.clear();
            }
            let seq = match rng.next() % 40 {
                0 => seqs[key] + TWO_K,
                1 => seqs[key].saturating_sub(1 + rng.next() % 7),
                _ => seqs[key] + 1,
            };
            seqs[key] = seq;
            // Runs of one length (the case speculation bets on), edges,
            // and anything in between.
            let len = match rng.next() % 4 {
                0 => EDGES[(rng.next() % EDGES.len() as u64) as usize],
                1 => (rng.next() % 2_001) as usize,
                _ => run_len,
            };
            run_len = len;
            let esn_hi = rng.next().is_multiple_of(2).then_some((seq >> 32) as u32);
            let mut header = [0u8; 12];
            rng.fill(&mut header);
            let mut plain = vec![0u8; len];
            rng.fill(&mut plain);

            let mut expect = plain.clone();
            oracles[key].encrypt(seq, &mut expect);
            let expect_icv = oracles[key].icv(seq, &header, &expect, esn_hi);
            let mut body = plain;
            let icv = lanes[key].seal(seq, &header, &mut body, esn_hi, &mut ahead);
            let at = format!("{backend} seal {i}: key {key} seq {seq} len {len} esn {esn_hi:?}");
            assert_eq!(body, expect, "{at}");
            assert_eq!(icv, expect_icv, "{at}");
        }
    }
}

/// The Poly1305 lanes inside one message: `icv` and `seal` of the AEAD
/// suite at **every** ciphertext length 0..=2 048 — every count of whole
/// blocks on either side of a lane group, every ragged end, both sides of
/// the strided threshold — with and without `esn_hi` (a 16- and a 12-byte
/// AAD), over random and all-`0xff` (wraparound-heavy) payloads, against
/// the scalar suite. If the strided filler drops or double-counts the
/// whole blocks it leaves to the scalar tail, the lengths from the
/// threshold up whose block count is not a multiple of the lane count
/// fail here; if it mishandles the ragged end, the lengths that are not a
/// multiple of 16 do.
#[test]
fn icv_and_seal_match_scalar_at_every_length_to_2048() {
    let key = [0x9c; 32];
    let oracle = ChaCha20Poly1305Suite::new(key).with_backend(Backend::Scalar);
    let mut rng = XorShift(0x0b5e_55ed_0123_4567);
    let header = [0xa5u8; 12];
    for len in 0..=2_048usize {
        for wraparound in [false, true] {
            let seq = (len as u64) << 1 | wraparound as u64;
            // The ciphertext is what the MAC reads: make *it* all-ones
            // in the wraparound case by sealing its decryption.
            let mut plain = vec![0xffu8; len];
            if wraparound {
                oracle.decrypt(seq, &mut plain);
            } else {
                rng.fill(&mut plain);
            }
            let mut ct = plain.clone();
            oracle.encrypt(seq, &mut ct);
            for esn_hi in [None, Some(0xfeed_0000 | len as u32)] {
                let expect = oracle.icv(seq, &header, &ct, esn_hi);
                for backend in simd_backends() {
                    let lane = ChaCha20Poly1305Suite::new(key).with_backend(backend);
                    let at = format!("{backend} len {len} esn {esn_hi:?} 0xff {wraparound}");
                    assert_eq!(lane.icv(seq, &header, &ct, esn_hi), expect, "icv {at}");
                    let mut body = plain.clone();
                    let icv = lane.seal(seq, &header, &mut body, esn_hi, &mut SealAhead::default());
                    assert_eq!(body, ct, "seal body {at}");
                    assert_eq!(icv, expect, "seal icv {at}");
                }
            }
        }
    }
}

/// The Poly1305 lanes across the frames of a batch: `verify_batch` over
/// 5 000 seeded batches of 1..=17 frames must equal the scalar suite's
/// per-frame `verify`, element for element. Batches are runs of one
/// length, fully mixed lengths, or a run with the length changed at one
/// position (so a shape change lands in every position of a lane group,
/// and the frames before it form every size of partial group); lengths
/// sit on each side of the strided threshold and of every block edge;
/// most batches carry one flipped bit — in the ICV, the header, `esn_hi`
/// or the ciphertext (its first block, a middle one, the ragged end) — in
/// a frame chosen so every lane position is hit; some carry a truncated
/// ICV or a header longer than a block. If the across filler mishandles
/// the ragged last block, the equal-length batches whose length is not a
/// multiple of 16 accept a ciphertext flipped in its last bytes, or
/// reject an intact frame; if a partial group's pad lanes leak into real
/// ones, the batches of 3, 7, 11 and 15 equal frames fail.
#[test]
fn verify_batch_matches_scalar_verify_over_shapes_and_single_bit_flips() {
    const BATCHES: usize = 5_000;
    const LENS: [usize; 24] = [
        0, 1, 15, 16, 17, 31, 32, 47, 48, 63, 64, 65, 80, 127, 128, 255, 256, 303, 304, 319, 320,
        321, 336, 1400,
    ];
    let key = [0x17; 32];
    let oracle = ChaCha20Poly1305Suite::new(key).with_backend(Backend::Scalar);
    let lanes: Vec<ChaCha20Poly1305Suite> = simd_backends()
        .into_iter()
        .map(|b| ChaCha20Poly1305Suite::new(key).with_backend(b))
        .collect();
    let mut rng = XorShift(0xacc0_55f4_a3e5_0001);
    let mut seq = 1u64 << 33;
    let mut verdicts = [0usize; 2];
    for batch in 0..BATCHES {
        let n = 1 + batch % 17;
        let pick = |rng: &mut XorShift| LENS[(rng.next() % LENS.len() as u64) as usize];
        let run_len = pick(&mut rng);
        let (other_len, change_at) = (pick(&mut rng), (batch / 17) % n);
        let esn_all = rng.next().is_multiple_of(2);
        let mut storage: Vec<OwnedFrame> = (0..n)
            .map(|i| {
                seq += 1 + rng.next() % 3;
                let len = match batch % 3 {
                    0 => run_len,
                    1 => pick(&mut rng),
                    _ if i == change_at => other_len,
                    _ => run_len,
                };
                // Mostly the 12-byte ESP header; sometimes one that makes
                // the AAD longer than a block.
                let mut header = vec![
                    0u8;
                    if rng.next().is_multiple_of(23) {
                        20
                    } else {
                        12
                    }
                ];
                rng.fill(&mut header);
                let mut body = vec![0u8; len];
                rng.fill(&mut body);
                // ESN on the whole batch, or (rarely) on one frame only:
                // a shape change that is not a length change.
                let esn_hi = (esn_all ^ (i == change_at && rng.next().is_multiple_of(5)))
                    .then_some((seq >> 32) as u32);
                oracle.encrypt(seq, &mut body);
                let icv = oracle.icv(seq, &header, &body, esn_hi).to_vec();
                (seq, header, body, esn_hi, icv)
            })
            .collect();
        // One fault in one frame; the victim walks through the batch so
        // every lane position of every group size gets each kind.
        let victim = &mut storage[(batch / 7) % n];
        match rng.next() % 8 {
            0 => victim.4[(rng.next() % 16) as usize] ^= 1 << (rng.next() % 8),
            1 => victim.1[(rng.next() % 12) as usize] ^= 1 << (rng.next() % 8),
            2 => victim.3 = victim.3.map(|hi| hi ^ 1 << (rng.next() % 32)),
            3 if !victim.2.is_empty() => victim.2[0] ^= 0x80,
            4 if !victim.2.is_empty() => {
                let last = victim.2.len() - 1;
                victim.2[last] ^= 1;
            }
            5 if !victim.2.is_empty() => {
                let mid = (rng.next() % victim.2.len() as u64) as usize;
                victim.2[mid] ^= 1 << (rng.next() % 8);
            }
            6 => victim.4.truncate(15),
            _ => {}
        }
        let frames: Vec<FrameToVerify<'_>> = storage
            .iter()
            .map(|(seq, h, ct, esn, icv)| FrameToVerify {
                seq: *seq,
                header: h,
                ciphertext: ct,
                esn_hi: *esn,
                icv,
            })
            .collect();
        let expect: Vec<bool> = frames.iter().map(|f| oracle.verify(f)).collect();
        for v in &expect {
            verdicts[*v as usize] += 1;
        }
        let mut ok = vec![true; 3]; // stale content must be cleared
        for lane in &lanes {
            lane.verify_batch(&frames, &mut ok);
            let lens: Vec<usize> = storage.iter().map(|f| f.2.len()).collect();
            assert_eq!(ok, expect, "{} batch {batch} lens {lens:?}", lane.backend());
        }
    }
    assert!(
        verdicts[0] > BATCHES / 3 && verdicts[1] > BATCHES * 4,
        "{verdicts:?}"
    );
}

#[test]
fn aead_suite_kat_per_backend() {
    // The suite must equal the validated one-shot RFC 8439 seal for the
    // same (key, nonce, aad) on every backend — including the multi-lane
    // same-key mode on a payload long enough to fill all lanes.
    let key = [0x5Au8; 32];
    let header = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
    let seq = 0x0102_0304_0506_0708u64;
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&seq.to_be_bytes());
    for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        let suite = ChaCha20Poly1305Suite::new(key).with_backend(backend);
        for size in [16usize, 600] {
            let plain: Vec<u8> = (0..size).map(|i| (i * 7) as u8).collect();
            let mut body = plain.clone();
            suite.encrypt(seq, &mut body);
            let icv = suite.icv(seq, &header, &body, None);

            let mut reference = plain.clone();
            let tag = chacha20_poly1305_seal(&key, &nonce, &header, &mut reference);
            assert_eq!(body, reference, "{backend} ciphertext size {size}");
            assert_eq!(&icv[..], &tag, "{backend} tag size {size}");

            suite.decrypt(seq, &mut body);
            assert_eq!(body, plain, "{backend} round trip size {size}");
        }
    }
}

#[test]
fn hmac_suite_kat_per_backend() {
    // Batch verify must accept exactly the tags raw HMAC-SHA-256-96
    // produces over header ‖ ciphertext ‖ esn, on every backend, for a
    // batch large enough to exercise full lane groups.
    for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        let suite = HmacSha256Suite::with_keystream(b"kat-auth", b"kat-enc").with_backend(backend);
        let mut storage = Vec::new();
        for i in 0..24u64 {
            let header = vec![i as u8; 12];
            let ct: Vec<u8> = (0..(i as usize % 5) * 31)
                .map(|j| (i as usize + j) as u8)
                .collect();
            let esn = if i.is_multiple_of(2) {
                Some(i as u32 + 9)
            } else {
                None
            };
            let mut concat = header.clone();
            concat.extend_from_slice(&ct);
            if let Some(hi) = esn {
                concat.extend_from_slice(&hi.to_be_bytes());
            }
            let icv = hmac_sha256_96(b"kat-auth", &concat).to_vec();
            storage.push((i, header, ct, esn, icv));
        }
        let frames: Vec<FrameToVerify<'_>> = storage
            .iter()
            .map(|(seq, h, ct, esn, icv)| FrameToVerify {
                seq: *seq,
                header: h,
                ciphertext: ct,
                esn_hi: *esn,
                icv,
            })
            .collect();
        let mut ok = Vec::new();
        suite.verify_batch(&frames, &mut ok);
        assert_eq!(ok, vec![true; frames.len()], "{backend}");
    }
}

#[test]
fn forced_backend_construction_panics_when_unsupported() {
    if Backend::Avx2.is_supported() {
        return; // nothing to assert on an AVX2 host
    }
    let caught = std::panic::catch_unwind(|| {
        let _ = ChaCha20Poly1305Suite::new([0u8; 32]).with_backend(Backend::Avx2);
    });
    assert!(caught.is_err(), "forcing an unsupported backend must panic");
}
