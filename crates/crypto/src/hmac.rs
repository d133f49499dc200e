//! HMAC-SHA-256 (RFC 2104), the integrity primitive behind ESP's ICV.
//!
//! IPsec's anti-replay guarantee rests on authenticity: an adversary can
//! *replay* recorded packets but cannot *forge* new ones. The ICV computed
//! here is what enforces that asymmetry in our ESP pipeline.
//!
//! Two entry points exist because the per-packet cost matters (the
//! paper's whole argument is a ~4 µs message budget):
//!
//! * [`hmac_sha256`] / [`HmacSha256::new`] — one-shot; reruns the key
//!   schedule (two extra compression calls) every time.
//! * [`HmacKey`] — precomputes the ipad/opad-absorbed states once per
//!   key. Each subsequent MAC starts from cheap state clones, so a
//!   64-byte packet costs 3 compression calls instead of 5. This is what
//!   the SA datapath holds. Its [`HmacKey::mac_parts`] is the batch
//!   verify's one path: the inner hash straight from the ipad chain
//!   value, the outer one fixed-layout compression, each on whatever
//!   `crate::sha256::compress_block` runs in this process (the SHA
//!   extensions, or the scalar oracle).

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// A precomputed HMAC-SHA-256 key schedule.
///
/// Holds the hash states that result from absorbing the ipad- and
/// opad-masked key blocks, so per-message MACs skip the key schedule
/// entirely: [`HmacKey::begin`] is two small struct clones.
///
/// # Examples
///
/// ```
/// use reset_crypto::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"sa-auth-key");
/// assert_eq!(key.mac(b"packet"), hmac_sha256(b"sa-auth-key", b"packet"));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HmacKey {
    /// State after absorbing `key ⊕ ipad` (one compression).
    inner: Sha256,
    /// State after absorbing `key ⊕ opad` (one compression).
    outer: Sha256,
}

/// Names the type and nothing else: both fields are keyed hash states,
/// and either one forges MACs under the key.
impl core::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

impl HmacKey {
    /// Precomputes the schedule for `key` (any length; long keys are
    /// pre-hashed per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Starts an incremental MAC from the precomputed states.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }

    /// One-shot 32-byte tag over `msg`.
    pub fn mac(&self, msg: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = self.begin();
        h.update(msg);
        h.finalize()
    }

    /// Finishes an HMAC from an already-computed inner digest with a
    /// single compression — the batch-verify fast path.
    ///
    /// The outer hash of HMAC-SHA-256 always absorbs exactly
    /// `BLOCK_LEN + DIGEST_LEN = 96` bytes: the opad-masked key block
    /// (one compression, precomputed at [`HmacKey::new`]) followed by
    /// the 32-byte inner digest. Its final block therefore has a fixed
    /// layout — digest, `0x80`, zeros, the constant bit length 768 —
    /// so finishing costs one `compress` of a stack template instead of
    /// cloning a hasher and running the buffered `update`/`finalize`
    /// machinery. Identical output to the reference path (see tests).
    pub fn finish_outer(&self, inner_digest: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        block[..DIGEST_LEN].copy_from_slice(inner_digest);
        block[DIGEST_LEN] = 0x80;
        let bit_len = ((BLOCK_LEN + DIGEST_LEN) as u64) * 8;
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let mut state = self.outer.state_words();
        crate::sha256::compress_block(&mut state, &block);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot MAC over the concatenation of `parts` with minimal
    /// bookkeeping: the inner hash runs straight from the precomputed
    /// ipad chain value through a stack block buffer (no hasher clone,
    /// no buffered `update`), and the outer hash is the single
    /// fixed-layout compression of [`HmacKey::finish_outer`]. Identical
    /// output to `mac` over the same bytes — the batch-verify hot path.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let inner = crate::sha256::digest_parts_from_state(
            self.inner.state_words(),
            BLOCK_LEN as u64,
            parts,
        );
        self.finish_outer(&inner)
    }
}

/// Incremental HMAC-SHA-256.
///
/// # Examples
///
/// ```
/// use reset_crypto::{hmac_sha256, to_hex};
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     to_hex(&tag),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

/// As [`HmacKey`]: the context is two keyed hash states.
impl core::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("HmacSha256(<redacted>)")
    }
}

impl HmacSha256 {
    /// Creates an HMAC context for `key` (any length; long keys are
    /// pre-hashed per RFC 2104). For repeated MACs under one key, build
    /// an [`HmacKey`] once and call [`HmacKey::begin`] instead.
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(key);
    h.update(msg);
    h.finalize()
}

/// Truncated 96-bit tag as used by `HMAC-SHA-256-96` style ESP transforms.
pub fn hmac_sha256_96(key: &[u8], msg: &[u8]) -> [u8; 12] {
    let full = hmac_sha256(key, msg);
    let mut out = [0u8; 12];
    out.copy_from_slice(&full[..12]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2_short_key() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_repeated_bytes() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4_combined_key_and_data() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let msg = [0xcd; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            to_hex(&tag),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_5_truncated_tag() {
        let key = [0x0c; 20];
        let tag = hmac_sha256_96(&key, b"Test With Truncation");
        // RFC 4231 truncates to 128 bits; our ESP transform keeps 96, a
        // prefix of the same output.
        assert_eq!(to_hex(&tag), "a3b6167473100ee06e0c796c");
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            &b"This is a test using a larger than block-size key and a larger than \
block-size data. The key needs to be hashed before being used by the HMAC algorithm."[..],
        );
        assert_eq!(
            to_hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"secret";
        let msg = b"hello world, this spans updates";
        let mut h = HmacSha256::new(key);
        h.update(&msg[..7]);
        h.update(&msg[7..]);
        assert_eq!(h.finalize(), hmac_sha256(key, msg));
    }

    #[test]
    fn truncated_tag_is_prefix() {
        let t96 = hmac_sha256_96(b"k", b"m");
        let full = hmac_sha256(b"k", b"m");
        assert_eq!(&t96[..], &full[..12]);
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn precomputed_key_matches_oneshot_all_key_lengths() {
        // Short, block-length, and longer-than-block keys all agree with
        // the RFC 2104 reference path.
        for key_len in [0usize, 1, 31, 63, 64, 65, 130] {
            let key: Vec<u8> = (0..key_len).map(|i| i as u8).collect();
            let hk = HmacKey::new(&key);
            for msg_len in [0usize, 1, 12, 55, 64, 200] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 7) as u8).collect();
                assert_eq!(
                    hk.mac(&msg),
                    hmac_sha256(&key, &msg),
                    "key_len {key_len} msg_len {msg_len}"
                );
            }
        }
    }

    #[test]
    fn precomputed_key_is_reusable() {
        let hk = HmacKey::new(b"reused");
        let a = hk.mac(b"first");
        let b = hk.mac(b"second");
        let a2 = hk.mac(b"first");
        assert_eq!(a, a2, "state must not be consumed between MACs");
        assert_ne!(a, b);
    }

    #[test]
    fn finish_outer_matches_reference_path() {
        for key_len in [0usize, 1, 16, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13) as u8).collect();
            let hk = HmacKey::new(&key);
            for msg_len in [0usize, 1, 12, 55, 64, 200] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 3 + 1) as u8).collect();
                let mut inner = hk.inner.clone();
                inner.update(&msg);
                let fast = hk.finish_outer(&inner.finalize());
                assert_eq!(fast, hk.mac(&msg), "key_len {key_len} msg_len {msg_len}");
            }
        }
    }

    #[test]
    fn mac_parts_matches_reference_path() {
        let hk = HmacKey::new(b"parts-key");
        for msg_len in [0usize, 1, 12, 51, 52, 55, 64, 76, 119, 120, 300] {
            let msg: Vec<u8> = (0..msg_len).map(|i| (i * 7 + 3) as u8).collect();
            for split in [0usize, msg_len / 3, msg_len / 2, msg_len] {
                let parts: [&[u8]; 2] = [&msg[..split], &msg[split..]];
                assert_eq!(
                    hk.mac_parts(&parts),
                    hk.mac(&msg),
                    "msg_len {msg_len} split {split}"
                );
            }
            assert_eq!(hk.mac_parts(&[&msg]), hk.mac(&msg));
        }
        assert_eq!(hk.mac_parts(&[]), hk.mac(b""));
    }

    #[test]
    fn begin_supports_multi_part_messages() {
        let hk = HmacKey::new(b"k");
        let mut h = hk.begin();
        h.update(b"part one | ");
        h.update(b"part two");
        assert_eq!(h.finalize(), hk.mac(b"part one | part two"));
    }
}
