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

/// The zero-copy open (the auth-only suite slices the input) and the
/// copying open (the AEAD decrypts into a fresh buffer) agree on every
/// malformed input. The same payload sealed under each opens to the same
/// bytes; a flipped byte of the header or the payload, which both frames
/// lay out alike, is rejected with the same error by both; a flipped ICV
/// byte fails authentication under both.
#[test]
fn zero_copy_open_rejects_exactly_like_open() {
    let zero_copy = HmacSha256Suite::auth_only(KEY);
    let copying = ChaCha20Poly1305Suite::new([0x3C; 32]);
    let payload = b"agree on rejects";
    let rejects = |suite: &dyn CipherSuite| -> Vec<Option<WireError>> {
        let wire = seal_frame(3, 5, payload, suite, false).unwrap();
        let opened = open_frame(&wire, suite, None).unwrap();
        assert_eq!(&opened.payload[..], payload, "{}", suite.name());
        (0..wire.len())
            .map(|i| {
                let mut bad = wire.to_vec();
                bad[i] ^= 0x40;
                open_frame(&Bytes::from(bad), suite, None).err()
            })
            .collect()
    };
    let (zero_copy_rejects, copying_rejects) = (rejects(&zero_copy), rejects(&copying));
    let shared = frame_overhead(&zero_copy) - zero_copy.icv_len() + payload.len();
    assert_eq!(zero_copy_rejects[..shared], copying_rejects[..shared]);
    for (i, rejected) in zero_copy_rejects.iter().enumerate() {
        assert!(rejected.is_some(), "byte {i}");
    }
    for rejected in zero_copy_rejects[shared..]
        .iter()
        .chain(&copying_rejects[shared..])
    {
        assert_eq!(*rejected, Some(WireError::IcvMismatch));
    }
}
