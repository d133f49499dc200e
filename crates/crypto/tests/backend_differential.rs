//! Scalar-vs-lane differential: every SIMD backend must be
//! byte-identical to the scalar oracle through the full suite surface —
//! `encrypt`, `decrypt`, `icv`, `verify_batch`, `decrypt_batch` — over
//! randomized batches of mixed payload sizes, mixed suites, ESN and
//! non-ESN frames, and deliberate corruptions; through the sending verb,
//! `seal`, with its look-ahead carried from frame to frame the way a
//! sender carries it and as a wide fleet's first sends; and through the
//! cross-key verbs on batches too short to fill a lane group. The HMAC
//! suites have no backend: they ride the randomized batches with their
//! amortized `verify_batch` checked against the reference `verify`. The
//! suite-level KATs are RFC 8439 seal equivalence, per backend, and
//! raw-HMAC equivalence.

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

/// A suite (the scalar oracle where it has a backend) and its
/// counterpart on a forced backend over identical key material. The HMAC
/// suite has no backend and so no counterpart.
type SuitePair = (Box<dyn CipherSuite>, Option<Box<dyn CipherSuite>>);

/// The two registered suite configurations.
fn suite_pairs(backend: Backend) -> Vec<SuitePair> {
    vec![
        (Box::new(HmacSha256Suite::auth_only(b"diff-auth")), None),
        (
            Box::new(ChaCha20Poly1305Suite::new([0x42; 32]).with_backend(Backend::Scalar)),
            Some(Box::new(
                ChaCha20Poly1305Suite::new([0x42; 32]).with_backend(backend),
            )),
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
                // Encrypt with both suites; ciphertexts must agree, and
                // ICVs too.
                let mut ct_oracle = body.clone();
                oracle.encrypt(seq, &mut ct_oracle);
                let icv_oracle = oracle.icv(seq, &header, &ct_oracle, esn_hi);
                if let Some(lane) = lane {
                    let mut ct_lane = body;
                    lane.encrypt(seq, &mut ct_lane);
                    assert_eq!(
                        ct_oracle, ct_lane,
                        "{backend} encrypt seq {seq} size {size}"
                    );
                    let icv_lane = lane.icv(seq, &header, &ct_oracle, esn_hi);
                    assert_eq!(&icv_oracle[..], &icv_lane[..], "{backend} icv seq {seq}");
                }

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

            // verify_batch verdicts must be identical, and equal to the
            // per-frame reference.
            let mut ok_oracle = Vec::new();
            oracle.verify_batch(&frames, &mut ok_oracle);
            let sequential: Vec<bool> = frames.iter().map(|f| oracle.verify(f)).collect();
            assert_eq!(ok_oracle, sequential, "oracle batch vs sequential");
            assert_mixed_key_decrypt_matches_scalar(backend, batch_no as usize, &storage);
            let Some(lane) = lane else {
                continue;
            };
            let mut ok_lane = Vec::new();
            lane.verify_batch(&frames, &mut ok_lane);
            assert_eq!(ok_oracle, ok_lane, "{backend} batch {batch_no}");

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

/// The decrypt differential's mixed-key input: the batch's bodies as
/// payloads, each sealed under one of five keys (cycling, so a lane
/// group's neighbours differ) and decrypted under it in one
/// `decrypt_batch_across`, against each frame's scalar suite. A victim
/// walked through the batch has one ciphertext bit flipped — the stream
/// cipher passes it through to exactly that plaintext bit — and another
/// frame was sealed under its neighbour's key, so it must not decrypt to
/// its payload.
fn assert_mixed_key_decrypt_matches_scalar(backend: Backend, batch: usize, storage: &[OwnedFrame]) {
    const KEYS: usize = 5;
    let key = |k: usize| [0x60 + k as u8; 32];
    let oracles: [_; KEYS] =
        std::array::from_fn(|k| ChaCha20Poly1305Suite::new(key(k)).with_backend(Backend::Scalar));
    let lanes: [_; KEYS] =
        std::array::from_fn(|k| ChaCha20Poly1305Suite::new(key(k)).with_backend(backend));
    let n = storage.len();
    let claimed = |i: usize| (batch + i) % KEYS;
    let (victim, stranger) = (batch % n, (batch / 3) % n);
    let mut arena = Vec::new();
    let mut jobs = Vec::new();
    for (i, (seq, _, payload, _, _)) in storage.iter().enumerate() {
        let mut ct = payload.clone();
        oracles[claimed(i + usize::from(i == stranger))].encrypt(*seq, &mut ct);
        if i == victim && !ct.is_empty() {
            let at = batch % ct.len();
            ct[at] ^= 1 << (batch % 8);
        }
        let start = arena.len();
        arena.extend_from_slice(&ct);
        jobs.push((claimed(i), *seq, start..start + ct.len()));
    }
    let mut expect = arena.clone();
    for (k, seq, range) in &jobs {
        oracles[*k].decrypt(*seq, &mut expect[range.clone()]);
    }
    let across = jobs
        .iter()
        .map(|(k, seq, range)| (&lanes[*k], *seq, range.clone()));
    ChaCha20Poly1305Suite::decrypt_batch_across(&mut arena, across);
    assert_eq!(arena, expect, "{backend} mixed-key decrypt batch {batch}");
    for (i, (_, _, payload, _, _)) in storage.iter().enumerate() {
        let got = &arena[jobs[i].2.clone()];
        let flipped = got.iter().zip(payload).filter(|(a, b)| a != b).count();
        match i {
            _ if payload.len() < 8 => {}
            _ if i == stranger => {
                assert!(flipped > 1, "batch {batch}: a neighbour's key decrypted")
            }
            _ if i == victim => assert_eq!(flipped, 1, "batch {batch}"),
            _ => assert_eq!(flipped, 0, "batch {batch} frame {i}"),
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

/// A wide fleet's sends: every seal is a first send. The look-ahead is
/// cleared and the key changes before each one, as when consecutive
/// sends name different SAs, so nothing is computed ahead and the
/// frame's own counter 0 and payload blocks — 1 to 5 of them for 0..=200
/// bytes — are the whole lane group: the partial groups a vector backend
/// runs on its row kernel (or, past `ROW_MAX`, padded). Sequence numbers
/// step by one from seal to seal, so a look-ahead that was not cleared
/// would be in a run. Against the scalar suite's `encrypt` + `icv`, at
/// every length, with and without `esn_hi`.
#[test]
fn first_sends_match_scalar_encrypt_then_icv() {
    const KEYS: usize = 3;
    let key = |k: usize| [0x70 + k as u8; 32];
    let oracles: [_; KEYS] =
        std::array::from_fn(|k| ChaCha20Poly1305Suite::new(key(k)).with_backend(Backend::Scalar));
    for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        let lanes: [_; KEYS] =
            std::array::from_fn(|k| ChaCha20Poly1305Suite::new(key(k)).with_backend(backend));
        let mut rng = XorShift(0xf125_75e4_d000_0001);
        let mut ahead = SealAhead::default();
        let mut seq = (1u64 << 32) - 200;
        for len in 0..=200usize {
            for esn in [false, true] {
                seq += 1;
                let k = (seq % KEYS as u64) as usize;
                ahead.clear();
                let esn_hi = esn.then_some((seq >> 32) as u32);
                let mut header = [0u8; 12];
                rng.fill(&mut header);
                let mut plain = vec![0u8; len];
                rng.fill(&mut plain);
                let mut expect = plain.clone();
                oracles[k].encrypt(seq, &mut expect);
                let expect_icv = oracles[k].icv(seq, &header, &expect, esn_hi);
                let mut body = plain;
                let icv = lanes[k].seal(seq, &header, &mut body, esn_hi, &mut ahead);
                let at = format!("{backend} first send: key {k} seq {seq} len {len} esn {esn}");
                assert_eq!(body, expect, "{at}");
                assert_eq!(icv, expect_icv, "{at}");
            }
        }
    }
}

/// The cross-key verbs on batches too short to fill a lane group: 1..=5
/// frames of 0..=200 bytes, each under its own key. The verify's units
/// are the frames' counter-0 blocks and the decrypt's their payload
/// blocks, so every batch ends in a partial group of every size.
/// `verify_batch_across` must give each frame's scalar `verify`, with one
/// frame's tag flipped in a third of the batches (the victim walks
/// through the positions), and `decrypt_batch_across` each frame's
/// scalar `decrypt`.
#[test]
fn across_verbs_on_short_batches_match_scalar() {
    const KEYS: usize = 5;
    let key = |k: usize| [0x90 + k as u8; 32];
    let oracles: [_; KEYS] =
        std::array::from_fn(|k| ChaCha20Poly1305Suite::new(key(k)).with_backend(Backend::Scalar));
    for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        let lanes: [_; KEYS] =
            std::array::from_fn(|k| ChaCha20Poly1305Suite::new(key(k)).with_backend(backend));
        let mut rng = XorShift(0xac20_55b4_7c40_0001);
        let mut seq = 1u64 << 40;
        for n in 1..=KEYS {
            for first in 0..=200usize {
                let mut storage: Vec<OwnedFrame> = (0..n)
                    .map(|i| {
                        seq += 1;
                        let mut header = vec![0u8; 12];
                        rng.fill(&mut header);
                        let mut body = vec![0u8; (first + 41 * i) % 201];
                        rng.fill(&mut body);
                        let esn_hi = (i % 2 == 1).then_some((seq >> 32) as u32);
                        oracles[i].encrypt(seq, &mut body);
                        let icv = oracles[i].icv(seq, &header, &body, esn_hi).to_vec();
                        (seq, header, body, esn_hi, icv)
                    })
                    .collect();
                if first % 3 == 0 {
                    storage[first % n].4[first % 16] ^= 1 << (first % 8);
                }
                let at = format!("{backend} batch of {n} from len {first}");
                let frames = borrowed(&storage);
                let expect: Vec<bool> = (frames.iter().enumerate())
                    .map(|(i, f)| oracles[i].verify(f))
                    .collect();
                let across: Vec<_> = (frames.iter().enumerate())
                    .map(|(i, f)| (&lanes[i], *f))
                    .collect();
                let mut ok = Vec::new();
                ChaCha20Poly1305Suite::verify_batch_across(&across, &mut ok);
                assert_eq!(ok, expect, "verify {at}");

                let mut arena = Vec::new();
                let mut jobs = Vec::new();
                for (i, (seq, _, ct, _, _)) in storage.iter().enumerate() {
                    let start = arena.len();
                    arena.extend_from_slice(ct);
                    jobs.push((i, *seq, start..start + ct.len()));
                }
                let mut expect = arena.clone();
                for (i, seq, range) in &jobs {
                    oracles[*i].decrypt(*seq, &mut expect[range.clone()]);
                }
                let across = (jobs.iter()).map(|(i, seq, range)| (&lanes[*i], *seq, range.clone()));
                ChaCha20Poly1305Suite::decrypt_batch_across(&mut arena, across);
                assert_eq!(arena, expect, "decrypt {at}");
            }
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
///
/// Every batch is also one more input under a key per frame, through
/// `verify_batch_across`: the same shapes and fault, keys cycling through
/// five so a lane group's neighbours differ, and one frame — walked through
/// the batch like the victim — sealed under its neighbour's key, which
/// must fail. If a lane read a neighbour's key row, the frames around it
/// would fail and the misplaced one could pass.
#[test]
fn verify_batch_matches_scalar_verify_over_shapes_and_single_bit_flips() {
    const BATCHES: usize = 5_000;
    const KEYS: usize = 5;
    let key = |k: usize| [0x17 + k as u8; 32];
    let oracles: [ChaCha20Poly1305Suite; KEYS] =
        std::array::from_fn(|k| ChaCha20Poly1305Suite::new(key(k)).with_backend(Backend::Scalar));
    let lanes: Vec<[ChaCha20Poly1305Suite; KEYS]> = Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported())
        .map(|b| std::array::from_fn(|k| ChaCha20Poly1305Suite::new(key(k)).with_backend(b)))
        .collect();
    let mut rng = XorShift(0xacc0_55f4_a3e5_0001);
    let mut seq = 1u64 << 33;
    let mut verdicts = [0usize; 2];
    for batch in 0..BATCHES {
        let n = 1 + batch % 17;
        let storage = shaped_batch(&mut rng, batch, &mut seq, |_| &oracles[0]);
        let frames = borrowed(&storage);
        let expect: Vec<bool> = frames.iter().map(|f| oracles[0].verify(f)).collect();
        for v in &expect {
            verdicts[*v as usize] += 1;
        }
        let mut ok = vec![true; 3]; // stale content must be cleared
        for lane in &lanes {
            lane[0].verify_batch(&frames, &mut ok);
            let lens: Vec<usize> = storage.iter().map(|f| f.2.len()).collect();
            assert_eq!(
                ok,
                expect,
                "{} batch {batch} lens {lens:?}",
                lane[0].backend()
            );
        }

        // The mixed-key input.
        let claimed = |i: usize| (batch + i) % KEYS;
        let stranger = (batch / 3) % n;
        let sealer = |i: usize| &oracles[claimed(i + usize::from(i == stranger))];
        let storage = shaped_batch(&mut rng, batch, &mut seq, sealer);
        let frames = borrowed(&storage);
        let expect: Vec<bool> = (frames.iter().enumerate())
            .map(|(i, f)| oracles[claimed(i)].verify(f))
            .collect();
        assert!(
            !expect[stranger],
            "batch {batch}: a neighbour's key verified"
        );
        for lane in &lanes {
            let across: Vec<_> = (frames.iter().enumerate())
                .map(|(i, f)| (&lane[claimed(i)], *f))
                .collect();
            ChaCha20Poly1305Suite::verify_batch_across(&across, &mut ok);
            let lens: Vec<usize> = storage.iter().map(|f| f.2.len()).collect();
            let at = format!("{} mixed batch {batch} lens {lens:?}", lane[0].backend());
            assert_eq!(ok, expect, "{at}");
        }
    }
    assert!(
        verdicts[0] > BATCHES / 3 && verdicts[1] > BATCHES * 4,
        "{verdicts:?}"
    );
}

/// The frames of `storage`, borrowed for a verify call.
fn borrowed(storage: &[OwnedFrame]) -> Vec<FrameToVerify<'_>> {
    storage
        .iter()
        .map(|(seq, h, ct, esn, icv)| FrameToVerify {
            seq: *seq,
            header: h,
            ciphertext: ct,
            esn_hi: *esn,
            icv,
        })
        .collect()
}

/// One batch of the shaped differential: `1 + batch % 17` frames, frame
/// `i` sealed by `sealer(i)`, in one of three shapes — a run of one
/// length, fully mixed lengths, or a run with the length changed at one
/// position — with one fault in one frame.
fn shaped_batch<'s>(
    rng: &mut XorShift,
    batch: usize,
    seq: &mut u64,
    sealer: impl Fn(usize) -> &'s ChaCha20Poly1305Suite,
) -> Vec<OwnedFrame> {
    const LENS: [usize; 24] = [
        0, 1, 15, 16, 17, 31, 32, 47, 48, 63, 64, 65, 80, 127, 128, 255, 256, 303, 304, 319, 320,
        321, 336, 1400,
    ];
    let n = 1 + batch % 17;
    let pick = |rng: &mut XorShift| LENS[(rng.next() % LENS.len() as u64) as usize];
    let run_len = pick(rng);
    let (other_len, change_at) = (pick(rng), (batch / 17) % n);
    let esn_all = rng.next().is_multiple_of(2);
    let mut storage: Vec<OwnedFrame> = (0..n)
        .map(|i| {
            *seq += 1 + rng.next() % 3;
            let len = match batch % 3 {
                0 => run_len,
                1 => pick(rng),
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
                .then_some((*seq >> 32) as u32);
            sealer(i).encrypt(*seq, &mut body);
            let icv = sealer(i).icv(*seq, &header, &body, esn_hi).to_vec();
            (*seq, header, body, esn_hi, icv)
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
    storage
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
fn hmac_suite_kat() {
    // Batch verify must accept exactly the tags raw HMAC-SHA-256-96
    // produces over header ‖ ciphertext ‖ esn.
    let suite = HmacSha256Suite::auth_only(b"kat-auth");
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
    assert_eq!(ok, vec![true; frames.len()]);
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
