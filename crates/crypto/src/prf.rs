//! Key derivation: an HMAC-based PRF+ expansion (in the style of
//! ISAKMP/IKE SKEYID derivation).
//!
//! PRF+ has one body, [`prf_plus_with`], keyed by a precomputed
//! [`HmacKey`]: every output block starts from the key's ipad/opad
//! states, so the key schedule runs once per key, not once per block,
//! and the chained `T(n-1)` lives on the stack. [`prf_plus`] is that
//! body under a schedule built for the one call. A caller that derives
//! many keys under one master — a gateway installing a fleet, as IKEv2
//! derives every child SA under one SK_d (RFC 7296 §2.17) — builds the
//! master's schedule once and calls the keyed form.

use crate::hmac::HmacKey;

/// Expands `(key, seed)` into `out_len` pseudorandom bytes:
/// `T1 = HMAC(key, seed || 0x01)`, `Tn = HMAC(key, T(n-1) || seed || n)`.
///
/// # Examples
///
/// ```
/// use reset_crypto::prf_plus;
///
/// let k1 = prf_plus(b"skeyid", b"sa-keys", 32);
/// let k2 = prf_plus(b"skeyid", b"sa-keys", 32);
/// assert_eq!(k1, k2);           // deterministic
/// assert_eq!(k1.len(), 32);
/// assert_ne!(k1, prf_plus(b"skeyid", b"other", 32));
/// ```
///
/// # Panics
///
/// Panics if `out_len` would require more than 255 blocks (8160 bytes),
/// mirroring the RFC 4306 PRF+ bound.
pub fn prf_plus(key: &[u8], seed: &[u8], out_len: usize) -> Vec<u8> {
    prf_plus_with(&HmacKey::new(key), seed, out_len)
}

/// [`prf_plus`] under a precomputed [`HmacKey`]: the one PRF+ body.
/// Each 32-byte block costs its message compressions only; the output
/// is identical to [`prf_plus`] under the same key bytes.
///
/// # Examples
///
/// ```
/// use reset_crypto::{prf_plus, prf_plus_with, HmacKey};
///
/// let master = HmacKey::new(b"skeyid");
/// assert_eq!(prf_plus_with(&master, b"sa-keys", 64), prf_plus(b"skeyid", b"sa-keys", 64));
/// ```
///
/// # Panics
///
/// As [`prf_plus`]: more than 255 blocks.
pub fn prf_plus_with(key: &HmacKey, seed: &[u8], out_len: usize) -> Vec<u8> {
    assert!(out_len <= 255 * 32, "prf+ output too long");
    let mut out = Vec::with_capacity(out_len);
    let mut t = [0u8; 32];
    let mut counter = 1u8;
    while out.len() < out_len {
        let chained: &[u8] = if counter == 1 { &[] } else { &t };
        t = key.mac_parts(&[chained, seed, &[counter]]);
        let take = (out_len - out.len()).min(t.len());
        out.extend_from_slice(&t[..take]);
        // Wraps only past the 255th block, which ends the loop.
        counter = counter.wrapping_add(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_plus_lengths() {
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            assert_eq!(prf_plus(b"k", b"s", len).len(), len);
        }
    }

    #[test]
    fn prf_plus_prefix_consistency() {
        // Requesting more output extends, never rewrites, the prefix.
        let short = prf_plus(b"k", b"s", 16);
        let long = prf_plus(b"k", b"s", 64);
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    fn prf_plus_key_and_seed_sensitivity() {
        let base = prf_plus(b"k", b"s", 32);
        assert_ne!(base, prf_plus(b"K", b"s", 32));
        assert_ne!(base, prf_plus(b"k", b"S", 32));
    }

    /// The per-block PRF+ the keyed body replaced: a fresh key schedule
    /// and a heap `T(n-1)` for every 32-byte block. Its counter wraps
    /// after the last block, where the original's `checked_add` panicked
    /// at exactly 255 blocks.
    fn prf_plus_per_block(key: &[u8], seed: &[u8], out_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(out_len);
        let mut prev: Vec<u8> = Vec::new();
        let mut counter = 1u8;
        while out.len() < out_len {
            let mut h = crate::hmac::HmacSha256::new(key);
            h.update(&prev);
            h.update(seed);
            h.update(&[counter]);
            let t = h.finalize();
            let take = (out_len - out.len()).min(t.len());
            out.extend_from_slice(&t[..take]);
            prev = t.to_vec();
            counter = counter.wrapping_add(1);
        }
        out
    }

    #[test]
    fn keyed_body_matches_the_per_block_loop() {
        // Keys of 65 and 200 bytes take RFC 2104's pre-hash branch; seeds
        // of 55/56/64 bytes put `T(n-1) || seed || n` across the SHA-256
        // padding and block edges.
        for key_len in [0usize, 1, 32, 64, 65, 200] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 3) as u8).collect();
            let keyed = HmacKey::new(&key);
            for seed_len in [0usize, 8, 55, 56, 64, 100] {
                let seed: Vec<u8> = (0..seed_len).map(|i| (i * 13 + 1) as u8).collect();
                for out_len in [0usize, 1, 31, 32, 33, 64, 96] {
                    let want = prf_plus_per_block(&key, &seed, out_len);
                    assert_eq!(
                        prf_plus_with(&keyed, &seed, out_len),
                        want,
                        "key {key_len}, seed {seed_len}, out {out_len}"
                    );
                    assert_eq!(prf_plus(&key, &seed, out_len), want);
                }
            }
        }
    }

    #[test]
    fn prf_plus_longest_output() {
        // 255 blocks is the bound itself, not past it.
        let longest = prf_plus(b"k", b"s", 255 * 32);
        assert_eq!(longest.len(), 255 * 32);
        assert_eq!(longest, prf_plus_per_block(b"k", b"s", 255 * 32));
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn prf_plus_overlong_panics() {
        let _ = prf_plus(b"k", b"s", 255 * 32 + 1);
    }
}
