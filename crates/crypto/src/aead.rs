//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8), from scratch.
//!
//! The construction the suite layer exposes as a real cipher: the
//! Poly1305 one-time key comes from the ChaCha20 block at counter 0, the
//! plaintext is encrypted from counter 1, and the tag authenticates
//! `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ len(aad) ‖ len(ciphertext)`.
//! Validated against the RFC 8439 §2.8.2 vector.

use crate::backend::Backend;
use crate::chacha::{chacha20_block, chacha20_xor, CHACHA_KEY_LEN, CHACHA_NONCE_LEN};
use crate::ct::ct_eq;
use crate::lanes::POLY_MAX_LANES;
use crate::poly1305::{poly1305_across, Poly1305, POLY1305_TAG_LEN};

/// AEAD tag length in bytes.
pub const AEAD_TAG_LEN: usize = POLY1305_TAG_LEN;

/// The RFC 8439 §2.8 tag over AAD supplied in parts (treated as their
/// concatenation) and a ciphertext. Exposed so the suite layer can
/// authenticate `header ‖ esn_high` without materializing one buffer.
/// Scalar throughout: this is the RFC reference the suites' laned paths
/// are differenced against.
pub fn chacha20_poly1305_tag(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; CHACHA_NONCE_LEN],
    aad_parts: &[&[u8]],
    ciphertext: &[u8],
) -> [u8; AEAD_TAG_LEN] {
    let otk_block = chacha20_block(key, 0, nonce);
    let mut otk = [0u8; 32];
    otk.copy_from_slice(&otk_block[..32]);
    poly1305_aead_tag(Backend::Scalar, &otk, aad_parts, ciphertext)
}

/// The Poly1305 half of the RFC 8439 tag, given an already-derived
/// one-time key; [`chacha20_poly1305_tag`] is exactly
/// `otk-from-block-0` + this on [`Backend::Scalar`]. On a vector backend
/// a long enough ciphertext goes through the lanes strided
/// ([`Poly1305::update_wide`]); the AAD, the padding and the length block
/// are scalar blocks either way, and so is every byte of the tag.
pub(crate) fn poly1305_aead_tag(
    backend: Backend,
    otk: &[u8; 32],
    aad_parts: &[&[u8]],
    ciphertext: &[u8],
) -> [u8; AEAD_TAG_LEN] {
    let mut mac = Poly1305::new(otk);
    let zeros = [0u8; 16];
    let mut aad_len = 0usize;
    for part in aad_parts {
        mac.update(part);
        aad_len += part.len();
    }
    mac.update(&zeros[..(16 - aad_len % 16) % 16]);
    mac.update_wide(backend, ciphertext);
    mac.update(&zeros[..(16 - ciphertext.len() % 16) % 16]);
    mac.update(&lengths_block(aad_len, ciphertext.len()));
    mac.finalize()
}

/// The closing block of the AEAD layout: both lengths, little-endian.
fn lengths_block(aad_len: usize, ciphertext_len: usize) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(&(aad_len as u64).to_le_bytes());
    block[8..].copy_from_slice(&(ciphertext_len as u64).to_le_bytes());
    block
}

/// [`poly1305_aead_tag`] for up to a Poly1305 lane group of frames of
/// **one shape** at once — every `aads[l]` holds the same number of AAD bytes
/// (`aad_len`, at most 16, zero-padded to the block) and every
/// `ciphertexts[l]` has the same length — each under its own one-time key:
/// lane `l` is frame `l`, one kernel pass ([`poly1305_across`]). Every
/// block of the layout is a whole block (the AAD and the ciphertext's
/// ragged end are zero-padded by construction), so the lanes run it from
/// first block to last. Tags come back in frame order.
pub(crate) fn poly1305_aead_tags_across(
    backend: Backend,
    otks: &[[u8; 32]],
    aad_len: usize,
    aads: &[[u8; 16]],
    ciphertexts: &[&[u8]],
) -> [[u8; AEAD_TAG_LEN]; POLY_MAX_LANES] {
    let len = ciphertexts[0].len();
    let whole = len / 16;
    // Blocks, in order: the AAD, the whole ciphertext blocks, the ragged
    // end zero-padded (if there is one), the lengths.
    let mut ragged = [[0u8; 16]; POLY_MAX_LANES];
    for (pad, ct) in ragged.iter_mut().zip(ciphertexts) {
        pad[..len % 16].copy_from_slice(&ct[whole * 16..]);
    }
    let lengths = lengths_block(aad_len, len);
    let steps = 1 + len.div_ceil(16) + 1;
    poly1305_across(backend, otks, steps, |step, l| match step {
        0 => aads[l],
        _ if step <= whole => {
            let at = (step - 1) * 16;
            ciphertexts[l][at..at + 16].try_into().expect("fixed")
        }
        _ if step == steps - 1 => lengths,
        _ => ragged[l],
    })
}

fn mac_data(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; CHACHA_NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; AEAD_TAG_LEN] {
    chacha20_poly1305_tag(key, nonce, &[aad], ciphertext)
}

/// Encrypts `data` in place and returns the authentication tag over
/// `(aad, ciphertext)`.
///
/// # Examples
///
/// ```
/// use reset_crypto::{chacha20_poly1305_open, chacha20_poly1305_seal};
///
/// let key = [1u8; 32];
/// let nonce = [2u8; 12];
/// let mut buf = *b"secret payload";
/// let tag = chacha20_poly1305_seal(&key, &nonce, b"header", &mut buf);
/// assert!(chacha20_poly1305_open(&key, &nonce, b"header", &mut buf, &tag));
/// assert_eq!(&buf, b"secret payload");
/// ```
pub fn chacha20_poly1305_seal(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; CHACHA_NONCE_LEN],
    aad: &[u8],
    data: &mut [u8],
) -> [u8; AEAD_TAG_LEN] {
    chacha20_xor(key, 1, nonce, data);
    mac_data(key, nonce, aad, data)
}

/// Verifies `tag` and, on success, decrypts `data` in place. Returns
/// whether authentication succeeded; on failure `data` is left
/// untouched (still ciphertext).
#[must_use]
pub fn chacha20_poly1305_open(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; CHACHA_NONCE_LEN],
    aad: &[u8],
    data: &mut [u8],
    tag: &[u8],
) -> bool {
    let expect = mac_data(key, nonce, aad, data);
    if !ct_eq(tag, &expect) {
        return false;
    }
    chacha20_xor(key, 1, nonce, data);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, to_hex};

    fn rfc_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_aead_vector() {
        // §2.8.2: sunscreen plaintext, 12-byte AAD.
        let key = rfc_key();
        let nonce: [u8; 12] = from_hex("070000004041424344454647")
            .unwrap()
            .try_into()
            .unwrap();
        let aad = from_hex("50515253c0c1c2c3c4c5c6c7").unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        let tag = chacha20_poly1305_seal(&key, &nonce, &aad, &mut data);
        assert_eq!(
            to_hex(&data),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(to_hex(&tag), "1ae10b594f09e26a7e902ecbd0600691");
        // And open round-trips.
        assert!(chacha20_poly1305_open(&key, &nonce, &aad, &mut data, &tag));
        assert!(data.starts_with(b"Ladies and Gentlemen"));
    }

    #[test]
    fn tampered_ciphertext_or_aad_or_tag_rejected() {
        let key = [9u8; 32];
        let nonce = [4u8; 12];
        let mut data = b"payload under test".to_vec();
        let tag = chacha20_poly1305_seal(&key, &nonce, b"aad", &mut data);
        let sealed = data.clone();

        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert!(!chacha20_poly1305_open(
            &key, &nonce, b"aad", &mut bad, &tag
        ));
        assert_eq!(bad[0], sealed[0] ^ 1, "failed open must not decrypt");

        let mut ct = sealed.clone();
        assert!(!chacha20_poly1305_open(&key, &nonce, b"AAD", &mut ct, &tag));

        let mut ct = sealed.clone();
        let mut bad_tag = tag;
        bad_tag[15] ^= 0x80;
        assert!(!chacha20_poly1305_open(
            &key, &nonce, b"aad", &mut ct, &bad_tag
        ));

        let mut ct = sealed;
        assert!(!chacha20_poly1305_open(
            &key,
            &nonce,
            b"aad",
            &mut ct,
            &tag[..12]
        ));
    }

    #[test]
    fn empty_aad_and_empty_plaintext() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut empty: [u8; 0] = [];
        let tag = chacha20_poly1305_seal(&key, &nonce, b"", &mut empty);
        assert!(chacha20_poly1305_open(&key, &nonce, b"", &mut empty, &tag));
        let mut data = *b"x";
        let tag2 = chacha20_poly1305_seal(&key, &nonce, b"", &mut data);
        assert_ne!(tag, tag2);
    }

    #[test]
    fn nonce_reuse_across_packets_is_caught_by_distinct_nonces() {
        // Different nonces give unrelated ciphertexts for equal input —
        // the suite layer maps each sequence number to a fresh nonce.
        let key = [7u8; 32];
        let mut a = *b"same plaintext";
        let mut b = *b"same plaintext";
        let ta = chacha20_poly1305_seal(&key, &[0u8; 12], b"", &mut a);
        let tb = chacha20_poly1305_seal(&key, &[1u8; 12], b"", &mut b);
        assert_ne!(a, b);
        assert_ne!(ta, tb);
    }
}
