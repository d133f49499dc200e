//! Malformed-frame hardening: the codec must reject — never panic on —
//! every truncation, every PAYLEN lie, and every ICV corruption, for
//! every suite family, and the ICV comparison must be constant-time
//! (pinned here by behaviour: the verification outcome depends only on
//! whether the tag matches, not on which byte differs).

use bytes::Bytes;
use reset_crypto::{ChaCha20Poly1305Suite, CipherSuite, HmacSha256Suite};
use reset_wire::{frame_overhead, open_frame, seal_frame, verify_frame_with, WireError};

const KEY: &[u8] = b"malformed-test-key";

/// One suite per ICV/IV layout: 12-byte HMAC ICV and 16-byte AEAD tag.
fn suites() -> Vec<Box<dyn CipherSuite>> {
    vec![
        Box::new(HmacSha256Suite::auth_only(KEY)),
        Box::new(ChaCha20Poly1305Suite::new([0x3C; 32])),
    ]
}

/// Every input shorter than a full empty frame — including length 0 —
/// errors cleanly, through both the verify-only and the opening entry
/// point.
#[test]
fn every_short_length_rejected_without_panic() {
    for suite in suites() {
        let suite = suite.as_ref();
        let wire = seal_frame(1, 1, b"", suite, false).unwrap();
        assert_eq!(wire.len(), frame_overhead(suite));
        for len in 0..wire.len() {
            assert!(
                matches!(
                    verify_frame_with(&wire[..len], suite, None),
                    Err(WireError::Truncated { .. })
                ),
                "{} len {len}",
                suite.name()
            );
            assert!(
                open_frame(&wire.slice(..len), suite, None).is_err(),
                "{} len {len}",
                suite.name()
            );
        }
    }
}

/// Arbitrary garbage of every short length — not just truncated valid
/// frames — is rejected without panicking.
#[test]
fn garbage_of_every_short_length_rejected() {
    for suite in suites() {
        let suite = suite.as_ref();
        for len in 0..frame_overhead(suite) {
            let garbage: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(0xA7)).collect();
            assert!(
                verify_frame_with(&garbage, suite, None).is_err(),
                "{} len {len}",
                suite.name()
            );
        }
    }
}

/// A PAYLEN that disagrees with the actual buffer — shorter or longer,
/// including values near `u32::MAX` that would overflow a naive
/// computation — is rejected as `BadLength` before any ICV work.
#[test]
fn every_paylen_lie_rejected() {
    let payload = [0x5Au8; 32];
    let actual = payload.len() as u32;
    let lies = [
        0u32,
        1,
        actual - 1,
        actual + 1,
        2 * actual,
        u32::MAX - 1,
        u32::MAX,
    ];
    for suite in suites() {
        let suite = suite.as_ref();
        let wire = seal_frame(9, 77, &payload, suite, false).unwrap();
        for lie in lies {
            let mut bad = wire.to_vec();
            bad[8..12].copy_from_slice(&lie.to_be_bytes());
            assert!(
                matches!(
                    verify_frame_with(&bad, suite, None),
                    Err(WireError::BadLength { .. })
                ),
                "{} declared {lie}",
                suite.name()
            );
        }
    }
}

/// Flipping any single byte of the ICV fails authentication with exactly
/// the same observable outcome regardless of position — the behavioural
/// contract of a constant-time tag comparison.
#[test]
fn every_icv_byte_flip_fails_identically() {
    for suite in suites() {
        let suite = suite.as_ref();
        let wire = seal_frame(3, 5, b"protected payload", suite, false).unwrap();
        let icv_start = wire.len() - suite.icv_len();
        for i in icv_start..wire.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = wire.to_vec();
                bad[i] ^= flip;
                assert_eq!(
                    verify_frame_with(&bad, suite, None),
                    Err(WireError::IcvMismatch),
                    "{} byte {i} flip {flip:#04x}",
                    suite.name()
                );
            }
        }
        // And the untouched frame still verifies (the flips above were
        // the only difference).
        assert!(verify_frame_with(&wire, suite, None).is_ok());
    }
}

/// The zero-copy open (a non-encrypting suite slices the input) and the
/// copying open (an encrypting suite decrypts into a fresh buffer) agree
/// on every malformed input: both HMAC suites share the authentication
/// key, so they must reject — and accept — exactly the same bytes.
#[test]
fn zero_copy_open_rejects_exactly_like_open() {
    let zero_copy = HmacSha256Suite::auth_only(KEY);
    let copying = HmacSha256Suite::with_keystream(KEY, b"malformed-enc-key");
    let wire = seal_frame(3, 5, b"agree on rejects", &zero_copy, false).unwrap();
    assert!(open_frame(&wire, &zero_copy, None).is_ok());
    assert!(open_frame(&wire, &copying, None).is_ok());
    for i in 0..wire.len() {
        let mut bad = wire.to_vec();
        bad[i] ^= 0x40;
        let bad = Bytes::from(bad);
        let rejected = open_frame(&bad, &zero_copy, None).err();
        assert!(rejected.is_some(), "byte {i}");
        assert_eq!(rejected, open_frame(&bad, &copying, None).err(), "byte {i}");
    }
}
