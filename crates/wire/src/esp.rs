//! ESP-style packet sealing and opening (RFC 2406 shape).
//!
//! Layout on the wire, for a [`CipherSuite`] with an `IVLEN`-byte
//! explicit IV and an `ICVLEN`-byte integrity check value:
//!
//! ```text
//! +--------+--------+-----------+-----------+------------------+-------------+
//! | SPI: 4 | SEQ: 4 | PAYLEN: 4 | IV: IVLEN | PAYLOAD: PAYLEN  | ICV: ICVLEN |
//! +--------+--------+-----------+-----------+------------------+-------------+
//! ```
//!
//! The ICV authenticates everything before it (header and IV as
//! associated data, the encrypted payload as ciphertext) under the SA's
//! suite — `HMAC-SHA-256-96` for the HMAC suites (no IV, 12-byte ICV), a
//! Poly1305 tag for ChaCha20-Poly1305 (16 bytes). As in real IPsec, only
//! the **low 32 bits** of the sequence number travel on the wire; with
//! extended sequence numbers (ESN) the high 32 bits are implicit and are
//! included in the ICV computation, which lets the receiver detect a
//! wrong high-half guess.
//!
//! There is one codec: [`seal_frame_ahead`] encodes ([`seal_frame`] and
//! [`seal_frame_into`] are it, over a look-ahead local to the call),
//! [`verify_frame_with`] authenticates without touching the payload (the
//! receive datapath's order: authenticate, consult the window, only then
//! decrypt), and [`open_frame`] verifies and decrypts in one step. Any
//! [`reset_crypto::CipherSuite`] plugs in.

use bytes::{BufMut, Bytes, BytesMut};
use reset_crypto::{CipherSuite, FrameToVerify, SealAhead, MAX_IV_LEN};

use crate::WireError;

/// Fixed header length (SPI + SEQ + PAYLEN).
pub const HEADER_LEN: usize = 12;

/// A parsed, verified ESP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EspPacket {
    /// Security Parameter Index identifying the SA.
    pub spi: u32,
    /// Low 32 bits of the sequence number as seen on the wire.
    pub seq_lo: u32,
    /// Decrypted/parsed payload.
    pub payload: Bytes,
}

/// Total per-packet wire overhead of `suite`: fixed header plus the
/// suite's explicit IV and ICV lengths.
pub fn frame_overhead(suite: &dyn CipherSuite) -> usize {
    HEADER_LEN + suite.iv_len() + suite.icv_len()
}

/// Seals a plaintext payload under `suite` into a caller-owned buffer:
/// header, the suite's explicit IV (if any), the encrypted payload, and
/// the suite's ICV. The buffer is cleared first and its allocation
/// reused, so a sender draining a queue through one scratch `BytesMut`
/// seals packets without per-packet allocation.
///
/// `seq` is the full 64-bit sequence number; its low half goes on the
/// wire, and if `esn` is true the high half is mixed into the ICV (the
/// RFC 4304 construction).
///
/// # Errors
///
/// Returns [`WireError::SeqOverflow`] if `seq` exceeds `u32::MAX` while
/// `esn` is false.
///
/// # Examples
///
/// ```
/// use bytes::BytesMut;
/// use reset_crypto::ChaCha20Poly1305Suite;
/// use reset_wire::{open_frame, seal_frame_into};
///
/// let suite = ChaCha20Poly1305Suite::new([7u8; 32]);
/// let mut buf = BytesMut::with_capacity(1500);
/// seal_frame_into(&mut buf, 9, 1, b"aead payload", &suite, false)?;
/// let pkt = open_frame(&buf.freeze(), &suite, None)?;
/// assert_eq!(&pkt.payload[..], b"aead payload");
/// # Ok::<(), reset_wire::WireError>(())
/// ```
pub fn seal_frame_into(
    buf: &mut BytesMut,
    spi: u32,
    seq: u64,
    payload: &[u8],
    suite: &dyn CipherSuite,
    esn: bool,
) -> Result<(), WireError> {
    seal_frame_ahead(
        buf,
        spi,
        seq,
        payload,
        suite,
        esn,
        &mut SealAhead::default(),
    )
}

/// The sealing body behind [`seal_frame_into`] and [`seal_frame`]: lays
/// the frame out in `buf` and hands header, payload and `ahead` to
/// [`CipherSuite::seal`], the suite's one sending verb. A sender that
/// seals consecutive sequence numbers under one key keeps one `ahead`
/// across the calls, so the lanes one frame leaves spare compute
/// keystream for the next; [`SealAhead`] says what that sender owes when
/// the key changes. The bytes written never depend on `ahead`.
///
/// # Errors
///
/// Same as [`seal_frame_into`]; on an error neither `buf` nor `ahead` is
/// touched.
pub fn seal_frame_ahead(
    buf: &mut BytesMut,
    spi: u32,
    seq: u64,
    payload: &[u8],
    suite: &dyn CipherSuite,
    esn: bool,
    ahead: &mut SealAhead,
) -> Result<(), WireError> {
    if !esn && seq > u32::MAX as u64 {
        return Err(WireError::SeqOverflow);
    }
    let iv_len = suite.iv_len();
    assert!(iv_len <= MAX_IV_LEN, "explicit IV too long for the codec");
    buf.clear();
    buf.reserve(HEADER_LEN + iv_len + payload.len() + suite.icv_len());
    buf.put_u32(spi);
    buf.put_u32(seq as u32);
    buf.put_u32(payload.len() as u32);
    if iv_len > 0 {
        let mut iv = [0u8; MAX_IV_LEN];
        suite.fill_iv(seq, &mut iv[..iv_len]);
        buf.put_slice(&iv[..iv_len]);
    }
    let body_start = buf.len();
    buf.put_slice(payload);
    let esn_hi = if esn { Some((seq >> 32) as u32) } else { None };
    let (aad, body) = buf.as_mut().split_at_mut(body_start);
    let icv = suite.seal(seq, aad, body, esn_hi, ahead);
    buf.put_slice(&icv);
    Ok(())
}

/// [`seal_frame_into`] returning freshly allocated wire bytes.
///
/// # Errors
///
/// Same as [`seal_frame_into`].
pub fn seal_frame(
    spi: u32,
    seq: u64,
    payload: &[u8],
    suite: &dyn CipherSuite,
    esn: bool,
) -> Result<Bytes, WireError> {
    let mut buf = BytesMut::with_capacity(frame_overhead(suite) + payload.len());
    seal_frame_into(&mut buf, spi, seq, payload, suite, esn)?;
    Ok(buf.freeze())
}

/// Framing + authentication under `suite` without touching the payload:
/// returns `(spi, seq_lo, payload_len)` once the ICV verified. The
/// (still-encrypted) payload occupies
/// `wire[HEADER_LEN + suite.iv_len()..][..payload_len]`; callers decrypt
/// it with [`CipherSuite::decrypt`] only after the anti-replay check.
///
/// `esn_hi` must be `Some(high_half)` when the SA uses extended sequence
/// numbers — the receiver guesses the high half from its window (see
/// [`crate::infer_esn`]) and a wrong guess fails authentication, exactly
/// as RFC 4304 specifies. It both participates in authentication and
/// reconstructs the 64-bit nonce for AEAD suites.
///
/// # Errors
///
/// * [`WireError::Truncated`] / [`WireError::BadLength`] on malformed
///   framing.
/// * [`WireError::IcvMismatch`] when authentication fails; the caller must
///   drop the packet without touching the anti-replay window.
pub fn verify_frame_with(
    wire: &[u8],
    suite: &dyn CipherSuite,
    esn_hi: Option<u32>,
) -> Result<(u32, u32, usize), WireError> {
    let overhead = frame_overhead(suite);
    let (spi, seq_lo, declared) = check_frame_length(wire, overhead)?;
    let seq = esn_seq(seq_lo, esn_hi);
    let aad_end = HEADER_LEN + suite.iv_len();
    let ct_end = wire.len() - suite.icv_len();
    let ok = suite.verify(&FrameToVerify {
        seq,
        header: &wire[..aad_end],
        ciphertext: &wire[aad_end..ct_end],
        esn_hi,
        icv: &wire[ct_end..],
    });
    if !ok {
        return Err(WireError::IcvMismatch);
    }
    Ok((spi, seq_lo, declared))
}

/// Validates the fixed framing of a frame whose total per-packet
/// overhead is `overhead` bytes: minimum length and the declared-length
/// consistency check. Returns `(spi, seq_lo, payload_len)`. This is
/// the single definition of the framing rules — [`verify_frame_with`]
/// and `reset_ipsec`'s batched `Inbound::process_batch` both call it, so
/// their framing semantics cannot drift.
///
/// # Errors
///
/// [`WireError::Truncated`] / [`WireError::BadLength`] as in
/// [`verify_frame_with`].
pub fn check_frame_length(wire: &[u8], overhead: usize) -> Result<(u32, u32, usize), WireError> {
    if wire.len() < overhead {
        return Err(WireError::Truncated {
            needed: overhead,
            got: wire.len(),
        });
    }
    let spi = u32::from_be_bytes(wire[0..4].try_into().expect("fixed"));
    let seq_lo = u32::from_be_bytes(wire[4..8].try_into().expect("fixed"));
    let declared = u32::from_be_bytes(wire[8..12].try_into().expect("fixed")) as usize;
    let available = wire.len() - overhead;
    if declared != available {
        return Err(WireError::BadLength {
            declared,
            available,
        });
    }
    Ok((spi, seq_lo, declared))
}

/// Reads the SPI from a frame's fixed header without verifying anything
/// — the pre-crypto dispatch step every demultiplexer (SADB, gateway)
/// performs. Returns `None` for frames too short to carry an SPI.
pub fn peek_spi(wire: &[u8]) -> Option<u32> {
    wire.get(0..4)
        .map(|b| u32::from_be_bytes(b.try_into().expect("fixed")))
}

/// Maps an SPI onto one of `shards` receive queues — the RSS-style
/// dispatch a multi-queue gateway performs right after [`peek_spi`].
/// The SPI is mixed through a SplitMix64-style finalizer first, so
/// sequentially allocated SPIs (the common negotiation pattern) still
/// spread evenly instead of landing on `spi % shards` stripes.
///
/// One definition on purpose: the sharded SADB's install path and its
/// per-frame routing must agree bit-for-bit, or a frame would be
/// dispatched to a shard that does not own its SA.
///
/// # Panics
///
/// Panics if `shards` is 0 (a gateway with no receive queues).
pub fn spi_shard(spi: u32, shards: usize) -> usize {
    assert!(shards > 0, "spi_shard: shards must be non-zero");
    let mut x = spi as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// Reconstructs the full 64-bit sequence number from the wire's low
/// half and the implicit ESN high half — the one definition every
/// verification and decryption site shares.
pub fn esn_seq(seq_lo: u32, esn_hi: Option<u32>) -> u64 {
    match esn_hi {
        Some(hi) => ((hi as u64) << 32) | seq_lo as u64,
        None => seq_lo as u64,
    }
}

/// Verifies and decrypts one suite frame, copying the payload out
/// (zero-copy when the suite does not encrypt).
///
/// # Errors
///
/// Same as [`verify_frame_with`].
pub fn open_frame(
    wire: &Bytes,
    suite: &dyn CipherSuite,
    esn_hi: Option<u32>,
) -> Result<EspPacket, WireError> {
    let (spi, seq_lo, declared) = verify_frame_with(wire, suite, esn_hi)?;
    let start = HEADER_LEN + suite.iv_len();
    let payload = if suite.encrypts() {
        let seq = esn_seq(seq_lo, esn_hi);
        let mut body = BytesMut::with_capacity(declared);
        body.extend_from_slice(&wire[start..start + declared]);
        suite.decrypt(seq, body.as_mut());
        body.freeze()
    } else {
        wire.slice(start..start + declared)
    };
    Ok(EspPacket {
        spi,
        seq_lo,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reset_crypto::HmacSha256Suite;

    const KEY: &[u8] = b"test-auth-key";

    fn hmac() -> HmacSha256Suite {
        HmacSha256Suite::auth_only(KEY)
    }

    #[test]
    fn seal_open_round_trip() {
        let wire = seal_frame(1, 100, b"payload bytes", &hmac(), false).unwrap();
        let pkt = open_frame(&wire, &hmac(), None).unwrap();
        assert_eq!(pkt.spi, 1);
        assert_eq!(pkt.seq_lo, 100);
        assert_eq!(&pkt.payload[..], b"payload bytes");
    }

    #[test]
    fn empty_payload_ok() {
        let wire = seal_frame(9, 1, b"", &hmac(), false).unwrap();
        assert_eq!(wire.len(), frame_overhead(&hmac()));
        let pkt = open_frame(&wire, &hmac(), None).unwrap();
        assert!(pkt.payload.is_empty());
    }

    #[test]
    fn wrong_key_rejected() {
        let wire = seal_frame(1, 5, b"data", &hmac(), false).unwrap();
        let other = HmacSha256Suite::auth_only(b"other");
        assert_eq!(open_frame(&wire, &other, None), Err(WireError::IcvMismatch));
    }

    #[test]
    fn any_bit_flip_rejected() {
        let wire = seal_frame(3, 77, b"sensitive", &hmac(), false).unwrap();
        for i in 0..wire.len() {
            for bit in [0x01, 0x80] {
                let mut bad = wire.to_vec();
                bad[i] ^= bit;
                assert!(
                    open_frame(&Bytes::from(bad), &hmac(), None).is_err(),
                    "flip {bit:#x} at byte {i} accepted"
                );
            }
        }
    }

    #[test]
    fn truncated_rejected() {
        // Every cut: below the suite's overhead the frame is Truncated,
        // above it the declared length no longer matches.
        let wire = seal_frame(1, 1, b"abc", &hmac(), false).unwrap();
        for cut in 0..wire.len() {
            let err = verify_frame_with(&wire[..cut], &hmac(), None).unwrap_err();
            if cut < frame_overhead(&hmac()) {
                assert!(matches!(err, WireError::Truncated { .. }), "cut {cut}");
            } else {
                assert!(matches!(err, WireError::BadLength { .. }), "cut {cut}");
            }
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let wire = seal_frame(1, 1, b"abcd", &hmac(), false).unwrap();
        // Chop one payload byte: declared length no longer matches.
        let mut bad = wire.to_vec();
        bad.remove(HEADER_LEN); // drop first payload byte
        assert!(matches!(
            verify_frame_with(&bad, &hmac(), None),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn seq_overflow_without_esn() {
        assert_eq!(
            seal_frame(1, u32::MAX as u64 + 1, b"", &hmac(), false),
            Err(WireError::SeqOverflow)
        );
        // Boundary value still fits.
        assert!(seal_frame(1, u32::MAX as u64, b"", &hmac(), false).is_ok());
    }

    #[test]
    fn esn_high_half_participates_in_icv() {
        let seq = (5u64 << 32) | 10;
        let wire = seal_frame(1, seq, b"x", &hmac(), true).unwrap();
        // Correct high half verifies.
        assert!(verify_frame_with(&wire, &hmac(), Some(5)).is_ok());
        // Wrong high half fails authentication (RFC 4304 behaviour).
        assert_eq!(
            verify_frame_with(&wire, &hmac(), Some(4)),
            Err(WireError::IcvMismatch)
        );
        assert_eq!(
            verify_frame_with(&wire, &hmac(), None),
            Err(WireError::IcvMismatch)
        );
    }

    #[test]
    fn esn_allows_seq_beyond_u32() {
        let seq = u32::MAX as u64 + 123;
        let wire = seal_frame(1, seq, b"x", &hmac(), true).unwrap();
        let pkt = open_frame(&wire, &hmac(), Some(1)).unwrap();
        assert_eq!(pkt.seq_lo, 122); // low 32 bits wrapped
    }

    #[test]
    fn replayed_bytes_open_identically() {
        // Replay is NOT detectable at the wire layer — byte-identical
        // packets verify again. Only the anti-replay window catches them;
        // this test pins the division of labour.
        let wire = seal_frame(1, 55, b"resend me", &hmac(), false).unwrap();
        let first = open_frame(&wire, &hmac(), None).unwrap();
        let replayed = open_frame(&wire, &hmac(), None).unwrap();
        assert_eq!(first, replayed);
    }

    #[test]
    fn seal_frame_into_reuses_buffer_across_packets() {
        let mut buf = BytesMut::with_capacity(256);
        let mut cap = None;
        for seq in 1..=10u64 {
            seal_frame_into(&mut buf, 5, seq, b"same-size payload", &hmac(), false).unwrap();
            let (_, seq_lo, _) = verify_frame_with(&buf, &hmac(), None).unwrap();
            assert_eq!(seq_lo, seq as u32);
            match cap {
                None => cap = Some(buf.capacity()),
                Some(c) => assert_eq!(buf.capacity(), c, "no regrowth while reused"),
            }
        }
    }

    #[test]
    fn auth_only_suite_round_trip_is_zero_copy() {
        let suite = HmacSha256Suite::auth_only(b"auth-key");
        let wire = seal_frame(8, 5, b"plain on the wire", &suite, false).unwrap();
        let pkt = open_frame(&wire, &suite, None).unwrap();
        assert_eq!(&pkt.payload[..], b"plain on the wire");
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        assert!(wire_range.contains(&(pkt.payload.as_ptr() as usize)));
    }

    #[test]
    fn chacha_suite_round_trip_and_bit_flip_rejection() {
        use reset_crypto::ChaCha20Poly1305Suite;
        let suite = ChaCha20Poly1305Suite::new([0x42; 32]);
        let wire = seal_frame(7, 99, b"aead sensitive", &suite, false).unwrap();
        assert_eq!(wire.len(), frame_overhead(&suite) + b"aead sensitive".len());
        // Ciphertext never leaks the plaintext.
        assert!(!wire.windows(4).any(|w| w == b"aead"));
        let pkt = open_frame(&wire, &suite, None).unwrap();
        assert_eq!(&pkt.payload[..], b"aead sensitive");
        for i in 0..wire.len() {
            let mut bad = wire.to_vec();
            bad[i] ^= 0x01;
            assert!(
                verify_frame_with(&bad, &suite, None).is_err(),
                "bit flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn chacha_esn_high_half_participates() {
        use reset_crypto::ChaCha20Poly1305Suite;
        let suite = ChaCha20Poly1305Suite::new([0x13; 32]);
        let seq = (9u64 << 32) | 77;
        let wire = seal_frame(1, seq, b"x", &suite, true).unwrap();
        assert!(verify_frame_with(&wire, &suite, Some(9)).is_ok());
        assert_eq!(
            verify_frame_with(&wire, &suite, Some(8)),
            Err(WireError::IcvMismatch)
        );
        assert_eq!(
            verify_frame_with(&wire, &suite, None),
            Err(WireError::IcvMismatch)
        );
    }

    #[test]
    fn suite_frames_reject_truncation_and_length_lies() {
        use reset_crypto::ChaCha20Poly1305Suite;
        let suite = ChaCha20Poly1305Suite::new([1; 32]);
        let wire = seal_frame(1, 1, b"abcdef", &suite, false).unwrap();
        for len in 0..frame_overhead(&suite) {
            assert!(matches!(
                verify_frame_with(&wire[..len.min(wire.len())], &suite, None),
                Err(WireError::Truncated { .. })
            ));
        }
        let mut bad = wire.to_vec();
        bad.remove(HEADER_LEN);
        assert!(matches!(
            verify_frame_with(&bad, &suite, None),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn explicit_iv_region_is_laid_out_and_authenticated() {
        use reset_crypto::Icv;
        /// A test-only suite with a 8-byte explicit IV riding on the
        /// wire, delegating crypto to the HMAC suite — exercises the
        /// layout math for `iv_len > 0`.
        #[derive(Debug)]
        struct ExplicitIv(HmacSha256Suite);
        impl CipherSuite for ExplicitIv {
            fn name(&self) -> &'static str {
                "test-explicit-iv"
            }
            fn key_len(&self) -> usize {
                self.0.key_len()
            }
            fn iv_len(&self) -> usize {
                8
            }
            fn icv_len(&self) -> usize {
                self.0.icv_len()
            }
            fn encrypts(&self) -> bool {
                true
            }
            fn encrypt(&self, seq: u64, body: &mut [u8]) {
                self.0.encrypt(seq, body);
            }
            fn decrypt(&self, seq: u64, body: &mut [u8]) {
                self.0.decrypt(seq, body);
            }
            fn icv(&self, seq: u64, header: &[u8], ct: &[u8], esn_hi: Option<u32>) -> Icv {
                self.0.icv(seq, header, ct, esn_hi)
            }
        }
        let suite = ExplicitIv(HmacSha256Suite::with_keystream(b"a", b"e"));
        let wire = seal_frame(4, 0x0102, b"iv payload", &suite, false).unwrap();
        assert_eq!(wire.len(), HEADER_LEN + 8 + b"iv payload".len() + 12);
        // Default fill_iv: seq big-endian in the IV's trailing bytes.
        assert_eq!(&wire[HEADER_LEN..HEADER_LEN + 8], &0x0102u64.to_be_bytes());
        let pkt = open_frame(&wire, &suite, None).unwrap();
        assert_eq!(&pkt.payload[..], b"iv payload");
        // Corrupting the IV region breaks authentication (it is AAD).
        let mut bad = wire.to_vec();
        bad[HEADER_LEN + 2] ^= 1;
        assert_eq!(
            verify_frame_with(&bad, &suite, None),
            Err(WireError::IcvMismatch)
        );
    }

    #[test]
    fn spi_shard_is_stable_in_range_and_spreads_sequential_spis() {
        for shards in [1usize, 2, 3, 4, 8, 16] {
            let mut occupancy = vec![0u32; shards];
            for spi in 0..1024u32 {
                let s = spi_shard(spi, shards);
                assert!(s < shards);
                assert_eq!(s, spi_shard(spi, shards), "routing must be stable");
                occupancy[s] += 1;
            }
            // Sequential SPIs must not stripe onto a subset of shards:
            // every shard owns a meaningful share of a 1024-SA fleet.
            let min = *occupancy.iter().min().unwrap();
            let expect = 1024 / shards as u32;
            assert!(
                min >= expect / 2,
                "shards={shards}: occupancy {occupancy:?} too skewed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn spi_shard_rejects_zero_shards() {
        spi_shard(1, 0);
    }
}
