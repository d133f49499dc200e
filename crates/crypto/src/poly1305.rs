//! Poly1305 one-time authenticator (RFC 8439 §2.5), from scratch.
//!
//! [`Poly1305`] is the scalar MAC: a radix-2⁴⁴ accumulator (three limbs)
//! with 128-bit products — the 64-bit "donna" shape: 9 wide multiplies
//! per 16-byte block instead of the 25 a 26-bit-limb accumulator needs,
//! entirely in safe integer arithmetic (`u128` is a built-in). It is the
//! RFC reference, the **oracle** every lane result is differenced
//! against, the only Poly1305 [`Backend::Scalar`] ever runs, and on the
//! vector backends the tail: whatever does not fill a lane — a short
//! message, the blocks left over past a whole number of lane groups, a
//! ragged last block, the finalization — is absorbed here.
//!
//! The MAC is a polynomial in `r`, and Horner's rule over it is not
//! inherently sequential. Two fillers put it on the multiplier-per-lane
//! kernel in `crate::lanes` (radix 2²⁶, the limb size whose products fit
//! `pmuludq`), and this module owns both, and the one conversion between
//! the two radices ([`to26`] / [`from26`]):
//!
//! * **strided, inside one message** ([`Poly1305::update_wide`]): with
//!   `L` lanes, lane `l` absorbs blocks `l, l + L, l + 2L, …` with every
//!   multiplier `r^L`; the last step multiplies lane `l` by `r^(L−l)`
//!   instead and the lanes are summed. Costs three scalar multiplications
//!   for the powers and two conversions, so only messages of
//!   `POLY_STRIDED_FROM` bytes or more take it.
//! * **across messages** ([`poly1305_across`]): `L` messages of one shape,
//!   lane `l` = message `l` under its own one-time `r` — no powers, no
//!   fold, a scalar finalization per lane. This is where runs of short
//!   frames gain.
//!
//! The key is one-time: the AEAD suite derives a fresh one per packet
//! from the ChaCha20 block at counter 0. Validated against the RFC 8439
//! §2.5.2 vector, the §2.6.2 key-generation vector and the eleven
//! Appendix A.3 vectors, the last through the scalar code and through
//! both fillers on every backend the host supports.

use crate::backend::Backend;
use crate::lanes::{
    poly1305_lanes, poly1305_steps, Limbs26, MASK26, POLY_MAX_LANES, POLY_STRIDED_FROM,
};

/// Key length in bytes (`r || s`).
pub const POLY1305_KEY_LEN: usize = 32;

/// Tag length in bytes.
pub const POLY1305_TAG_LEN: usize = 16;

/// Incremental Poly1305 MAC over a one-time key.
///
/// # Examples
///
/// ```
/// use reset_crypto::Poly1305;
///
/// let key = [0x42u8; 32]; // one-time! never reuse across messages
/// let mut mac = Poly1305::new(&key);
/// mac.update(b"message");
/// let tag = mac.finalize();
/// assert_eq!(tag.len(), 16);
/// ```
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r`, radix 2⁴⁴ (limbs of 44, 44, 42 bits).
    r: [u64; 3],
    /// Precomputed wrap terms `20·r1`, `20·r2`: a product spilling past
    /// 2¹³⁰ re-enters at `·5`, and the limb offsets contribute the `·4`.
    s: [u64; 2],
    /// Accumulator, radix 2⁴⁴.
    h: [u64; 3],
    /// The `s` half of the key, added at the end mod 2¹²⁸.
    pad: [u64; 2],
    buf: [u8; 16],
    buf_len: usize,
}

/// Reports progress and never state: `r` and `pad` are the one-time key,
/// and `h` with a known message gives `r` away.
impl core::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Poly1305")
            .field("key", &"<redacted>")
            .field("buffered", &self.buf_len)
            .finish()
    }
}

/// Low-limb mask (44 bits).
const MASK44: u64 = 0x0fff_ffff_ffff;
/// High-limb mask (42 bits).
const MASK42: u64 = 0x03ff_ffff_ffff;

impl Poly1305 {
    /// A MAC context for the 32-byte one-time key `r || s`.
    pub fn new(key: &[u8; POLY1305_KEY_LEN]) -> Self {
        let le = |i: usize| u64::from_le_bytes(key[i..i + 8].try_into().expect("fixed"));
        let (t0, t1) = (le(0), le(8));
        // Clamp r (RFC 8439 §2.5: top bits of key nibbles cleared) and
        // split into 44/44/42-bit limbs; the clamp masks are the §2.5
        // byte masks re-expressed at the limb boundaries.
        let r = [
            t0 & 0x0ffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0x0fff_ffc0_ffff,
            (t1 >> 24) & 0x000f_ffff_fc0f,
        ];
        let s = [r[1] * 20, r[2] * 20];
        let pad = [le(16), le(24)];
        Poly1305 {
            r,
            s,
            h: [0; 3],
            pad,
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorbs one 16-byte block; `hibit` is `1 << 40` (bit 128 at limb
    /// 2's offset) for full blocks and 0 for the padded final block.
    fn block(&mut self, m: &[u8; 16], hibit: u64) {
        let t0 = u64::from_le_bytes(m[..8].try_into().expect("fixed"));
        let t1 = u64::from_le_bytes(m[8..].try_into().expect("fixed"));
        let h0 = self.h[0] + (t0 & MASK44);
        let h1 = self.h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44);
        let h2 = self.h[2] + ((t1 >> 24) | hibit);
        self.h = self.mul_r([h0, h1, h2]);
    }

    /// `h·r mod 2¹³⁰ − 5`, partially carried: limbs come back as 44, 44
    /// (plus at most a few bits) and 42 bits. `h`'s limbs may be a few
    /// bits over that coming in — an accumulator with a block just added.
    fn mul_r(&self, [h0, h1, h2]: [u64; 3]) -> [u64; 3] {
        let [r0, r1, r2] = self.r;
        let [s1, s2] = self.s;
        // Three column products in u128, the wrap folded in via the
        // precomputed s terms.
        let d0 = h0 as u128 * r0 as u128 + h1 as u128 * s2 as u128 + h2 as u128 * s1 as u128;
        let d1 = h0 as u128 * r1 as u128 + h1 as u128 * r0 as u128 + h2 as u128 * s2 as u128;
        let d2 = h0 as u128 * r2 as u128 + h1 as u128 * r1 as u128 + h2 as u128 * r0 as u128;
        // Partial carry propagation back to 44/44/42-bit limbs.
        let mut c = (d0 >> 44) as u64;
        let h0 = d0 as u64 & MASK44;
        let d1 = d1 + c as u128;
        c = (d1 >> 44) as u64;
        let h1 = d1 as u64 & MASK44;
        let d2 = d2 + c as u128;
        c = (d2 >> 42) as u64;
        let h2 = d2 as u64 & MASK42;
        let h0 = h0 + c * 5;
        c = h0 >> 44;
        [h0 & MASK44, h1 + c, h2]
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.block(&block, 1 << 40);
                self.buf_len = 0;
            }
        }
        while data.len() >= 16 {
            let (block, rest) = data.split_at(16);
            self.block(block.try_into().expect("fixed"), 1 << 40);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Produces the 16-byte tag.
    pub fn finalize(mut self) -> [u8; POLY1305_TAG_LEN] {
        if self.buf_len > 0 {
            // RFC 8439: append 0x01 then zero-pad; no high bit.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.block(&block, 0);
        }
        // Full carry.
        let [mut h0, mut h1, mut h2] = self.h;
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        // g = h + 5 - 2^130; select g when h >= p = 2^130 - 5.
        let mut g0 = h0 + 5;
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1 + c;
        c = g1 >> 44;
        g1 &= MASK44;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);
        // g2's sign bit is set iff the subtraction borrowed (h < p):
        // all-ones mask selects g when it did not.
        let mask = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);
        // Serialize h mod 2^128 and add s.
        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let t = lo as u128 + self.pad[0] as u128;
        let lo = t as u64;
        let hi = hi.wrapping_add(self.pad[1]).wrapping_add((t >> 64) as u64);
        let mut out = [0u8; POLY1305_TAG_LEN];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }

    /// [`Poly1305::update`], with the whole blocks of a long enough
    /// `data` strided through `backend`'s lanes (module docs): lane `l`
    /// takes blocks `l, l + L, …` under `r^L`, the last step multiplies
    /// lane `l` by `r^(L−l)`, the lanes are summed, and what is left —
    /// under `L` whole blocks and a ragged end — is scalar. Whether the
    /// lanes are used is decided by lengths and the backend only, and
    /// never changes a byte of the tag.
    pub(crate) fn update_wide(&mut self, backend: Backend, data: &[u8]) {
        let lanes = poly1305_lanes(backend);
        if lanes == 1 || self.buf_len != 0 || data.len() < POLY_STRIDED_FROM {
            return self.update(data);
        }
        let strided = self.absorb_strided(backend, data);
        self.update(&data[strided..]);
    }

    /// The strided filler: absorbs the largest whole number of lane
    /// groups of 16-byte blocks at the front of `data` and returns how
    /// many bytes that was. The caller has checked that no partial block
    /// is buffered and that `backend` has lanes.
    fn absorb_strided(&mut self, backend: Backend, data: &[u8]) -> usize {
        let lanes = poly1305_lanes(backend);
        let steps = data.len() / (16 * lanes);
        if steps == 0 {
            return 0;
        }
        // Lane `l`'s closing multiplier is r^(L−l): walk the powers up
        // from r in the last lane to r^L in lane 0, which is also every
        // lane's multiplier until then.
        let mut power = self.r;
        let mut closing = [[0u64; POLY_MAX_LANES]; 5];
        for l in (0..lanes).rev() {
            set_lane(&mut closing, l, to26(power));
            if l > 0 {
                power = self.mul_r(power);
            }
        }
        let mut stride = closing;
        for limb in stride.iter_mut() {
            *limb = [limb[0]; POLY_MAX_LANES];
        }
        // What has been absorbed so far rides in lane 0, in front of the
        // first block.
        let mut h = [[0u64; POLY_MAX_LANES]; 5];
        set_lane(&mut h, 0, to26(self.h));
        let block = |step: usize, lane: usize| -> [u8; 16] {
            let at = (step * lanes + lane) * 16;
            data[at..at + 16].try_into().expect("fixed")
        };
        poly1305_steps(backend, &mut h, &stride, steps - 1, block);
        poly1305_steps(backend, &mut h, &closing, 1, |_, lane| {
            block(steps - 1, lane)
        });
        self.h = from26(h.map(|limb| limb[..lanes].iter().sum()));
        steps * lanes * 16
    }
}

/// The across-messages filler: `keys.len()` messages (at most
/// [`poly1305_lanes`]) of `steps` whole 16-byte blocks each, message `l`
/// under its own one-time key `keys[l]`, block `step` of it supplied by
/// `block(step, l)`; returns the tags, in order. One kernel pass with a
/// multiplier row per lane, then a scalar finalization per lane; lanes
/// past `keys.len()` repeat the last message and are dropped.
pub(crate) fn poly1305_across(
    backend: Backend,
    keys: &[[u8; POLY1305_KEY_LEN]],
    steps: usize,
    block: impl Fn(usize, usize) -> [u8; 16],
) -> [[u8; POLY1305_TAG_LEN]; POLY_MAX_LANES] {
    let last = keys.len() - 1;
    let macs: [Poly1305; POLY_MAX_LANES] =
        core::array::from_fn(|l| Poly1305::new(&keys[l.min(last)]));
    let mut rows = [[0u64; POLY_MAX_LANES]; 5];
    for (l, mac) in macs.iter().enumerate() {
        set_lane(&mut rows, l, to26(mac.r));
    }
    let mut h = [[0u64; POLY_MAX_LANES]; 5];
    poly1305_steps(backend, &mut h, &rows, steps, |step, l| {
        block(step, l.min(last))
    });
    let mut tags = [[0u8; POLY1305_TAG_LEN]; POLY_MAX_LANES];
    for (l, (mut mac, tag)) in macs.into_iter().zip(&mut tags).enumerate().take(keys.len()) {
        mac.h = from26(h.map(|limb| limb[l]));
        *tag = mac.finalize();
    }
    tags
}

/// Radix 2⁴⁴ → 2²⁶: the one place a scalar accumulator (or multiplier)
/// becomes lane limbs. Takes the partially carried shape `mul_r` leaves
/// (44 bits, 44 and a few, 42); every limb comes out at most 2²⁶.
fn to26([x0, x1, x2]: [u64; 3]) -> [u64; 5] {
    let low = x0 as u128 + ((x1 as u128) << 44);
    let high = (low >> 78) as u64 + (x2 << 10);
    [
        low as u64 & MASK26,
        (low >> 26) as u64 & MASK26,
        (low >> 52) as u64 & MASK26,
        high & MASK26,
        high >> 26,
    ]
}

/// Radix 2²⁶ → 2⁴⁴: the one place lane limbs become a scalar accumulator
/// again, in the shape `mul_r` leaves. Limbs may be as large as 2³⁰ (a
/// sum of lanes); what spills past bit 130 re-enters at ·5.
fn from26([l0, l1, l2, l3, l4]: [u64; 5]) -> [u64; 3] {
    let low = l0 as u128 + ((l1 as u128) << 26) + ((l2 as u128) << 52) + ((l3 as u128) << 78);
    let x2 = (low >> 88) as u64 + (l4 << 16);
    let x0 = (low as u64 & MASK44) + (x2 >> 42) * 5;
    let x1 = ((low >> 44) as u64 & MASK44) + (x0 >> 44);
    [x0 & MASK44, x1, x2 & MASK42]
}

/// Writes one value's five limbs into lane `l` of a limb-major set.
fn set_lane(limbs: &mut Limbs26, l: usize, value: [u64; 5]) {
    for (limb, v) in limbs.iter_mut().zip(value) {
        limb[l] = v;
    }
}

/// Test hook for the kernel tests in `crate::lanes`, which cannot see
/// this module's fields: the scalar oracle over whole blocks, in lane
/// limbs on both sides.
#[cfg(test)]
impl Poly1305 {
    /// Runs the scalar `block` over `blocks` under the (clamped)
    /// multiplier `r`, from the accumulator `h`; returns the accumulator
    /// and the multiplier actually used.
    pub(crate) fn scalar_blocks(
        r: &[u8; 16],
        h: [u64; 5],
        blocks: &[[u8; 16]],
    ) -> ([u64; 5], [u64; 5]) {
        let mut key = [0u8; POLY1305_KEY_LEN];
        key[..16].copy_from_slice(r);
        let mut mac = Poly1305::new(&key);
        mac.h = from26(h);
        for m in blocks {
            mac.block(m, 1 << 40);
        }
        (to26(mac.h), to26(mac.r))
    }
}

/// One-shot Poly1305 tag.
pub fn poly1305(key: &[u8; POLY1305_KEY_LEN], msg: &[u8]) -> [u8; POLY1305_TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update(msg);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::chacha20_block;
    use crate::sha256::{from_hex, to_hex};

    #[test]
    fn rfc8439_tag_vector() {
        // §2.5.2.
        let key: [u8; 32] =
            from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .unwrap()
                .try_into()
                .unwrap();
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(to_hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn rfc8439_key_generation_vector() {
        // §2.6.2: the one-time key is the first 32 bytes of the ChaCha20
        // block at counter 0.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let nonce: [u8; 12] = from_hex("000000000001020304050607")
            .unwrap()
            .try_into()
            .unwrap();
        let block = chacha20_block(&key, 0, &nonce);
        assert_eq!(
            to_hex(&block[..32]),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
        );
    }

    /// RFC 8439 Appendix A.3, test vectors #1–#11: `(r, s, message, tag)`,
    /// short hex zero-padded to 16 bytes.
    fn a3_vectors() -> Vec<([u8; 32], Vec<u8>, [u8; 16])> {
        const IETF: &str = "Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made within the \
context of an IETF activity is considered an \"IETF Contribution\". Such statements include \
oral statements in IETF sessions, as well as written and electronic communications made at any \
time or place, which are addressed to";
        const JABBERWOCKY: &str = "'Twas brillig, and the slithy toves\nDid gyre and gimble \
in the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
        let pad16 = |hex: &str| -> [u8; 16] {
            let mut out = [0u8; 16];
            let bytes = from_hex(hex).unwrap();
            out[..bytes.len()].copy_from_slice(&bytes);
            out
        };
        let rep = |hex: &str, n: usize| from_hex(hex).unwrap().repeat(n);
        let vector = |r: &str, s: &str, msg: Vec<u8>, tag: &str| {
            let mut key = [0u8; 32];
            key[..16].copy_from_slice(&pad16(r));
            key[16..].copy_from_slice(&pad16(s));
            (key, msg, pad16(tag))
        };
        let ten = [
            rep("e33594d7505e43b9", 1),
            rep("00", 8),
            rep("3394d7505e4379cd01", 1),
            rep("00", 7),
            rep("00", 16),
            rep("01", 1),
            rep("00", 15),
        ]
        .concat();
        vec![
            vector("", "", vec![0; 64], ""),
            vector(
                "",
                "36e5f6b5c5e06070f0efca96227a863e",
                IETF.into(),
                "36e5f6b5c5e06070f0efca96227a863e",
            ),
            vector(
                "36e5f6b5c5e06070f0efca96227a863e",
                "",
                IETF.into(),
                "f3477e7cd95417af89a6b8794c310cf0",
            ),
            vector(
                "1c9240a5eb55d38af333888604f6b5f0",
                "473917c1402b80099dca5cbc207075c0",
                JABBERWOCKY.into(),
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            vector("02", "", rep("ff", 16), "03"),
            vector(
                "02",
                &"ff".repeat(16),
                [rep("02", 1), rep("00", 15)].concat(),
                "03",
            ),
            vector(
                "01",
                "",
                [
                    rep("ff", 16),
                    rep("f0", 1),
                    rep("ff", 15),
                    rep("11", 1),
                    rep("00", 15),
                ]
                .concat(),
                "05",
            ),
            vector(
                "01",
                "",
                [rep("ff", 16), rep("fb", 1), rep("fe", 15), rep("01", 16)].concat(),
                "",
            ),
            vector(
                "02",
                "",
                [rep("fd", 1), rep("ff", 15)].concat(),
                &("fa".to_owned() + &"ff".repeat(15)),
            ),
            vector(
                "01000000000000000400000000000000",
                "",
                ten.clone(),
                "14000000000000005500000000000000",
            ),
            vector(
                "01000000000000000400000000000000",
                "",
                ten[..48].to_vec(),
                "13",
            ),
        ]
    }

    fn vector_backends() -> impl Iterator<Item = Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| poly1305_lanes(*b) > 1 && b.is_supported())
    }

    #[test]
    fn rfc8439_appendix_a3_vectors_scalar_strided_and_across() {
        let vectors = a3_vectors();
        assert_eq!(vectors.len(), 11);
        assert_eq!((vectors[1].1.len(), vectors[3].1.len()), (375, 127));
        for (n, (key, msg, tag)) in vectors.iter().enumerate() {
            let n = n + 1;
            assert_eq!(&poly1305(key, msg), tag, "A.3 #{n} scalar");
            for backend in vector_backends() {
                let lanes = poly1305_lanes(backend);
                // Strided, wherever the message holds a lane group: the
                // filler itself, below the threshold too.
                if msg.len() >= 16 * lanes {
                    let mut mac = Poly1305::new(key);
                    let strided = mac.absorb_strided(backend, msg);
                    assert_eq!(strided, msg.len() / (16 * lanes) * (16 * lanes));
                    mac.update(&msg[strided..]);
                    assert_eq!(&mac.finalize(), tag, "A.3 #{n} strided on {backend}");
                }
                let mut mac = Poly1305::new(key);
                mac.update_wide(backend, msg);
                assert_eq!(&mac.finalize(), tag, "A.3 #{n} update_wide on {backend}");
                // Across, for the vectors made of whole blocks: in every
                // lane position, the other lanes holding other vectors'
                // keys over the same bytes.
                if msg.len() % 16 != 0 {
                    continue;
                }
                for pos in 0..lanes {
                    let keys: Vec<[u8; 32]> = (0..lanes)
                        .map(|l| {
                            if l == pos {
                                *key
                            } else {
                                vectors[(n + l) % 11].0
                            }
                        })
                        .collect();
                    let block = |step: usize, _: usize| msg[step * 16..][..16].try_into().unwrap();
                    let tags = poly1305_across(backend, &keys, msg.len() / 16, block);
                    for (l, k) in keys.iter().enumerate() {
                        assert_eq!(tags[l], poly1305(k, msg), "A.3 #{n} lane {l} on {backend}");
                    }
                    assert_eq!(&tags[pos], tag, "A.3 #{n} across, lane {pos} on {backend}");
                }
            }
        }
    }

    /// Deterministic xorshift for test data — no RNG dependency.
    fn fill(state: &mut u64, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *b = *state as u8;
        }
    }

    #[test]
    fn strided_filler_equals_scalar_at_every_length_and_start() {
        // Every length through several lane groups (so every tail: no
        // whole block left, 1..L−1 whole blocks, a ragged end with and
        // without them), from an empty accumulator and after a prefix,
        // random and wraparound-heavy bytes, ordinary and extreme keys.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut keys = vec![[0xffu8; 32], [0u8; 32]];
        keys.resize(6, [0u8; 32]);
        for key in &mut keys[2..] {
            fill(&mut seed, key);
        }
        for backend in vector_backends() {
            for key in &keys {
                for len in 0..=16 * 4 * 5 + 17 {
                    let mut msg = vec![0xffu8; len];
                    if len % 3 != 0 {
                        fill(&mut seed, &mut msg);
                    }
                    for prefix in [0usize, 16, 48] {
                        let mut wide = Poly1305::new(key);
                        wide.update(&msg[..prefix.min(len)]);
                        let mut scalar = wide.clone();
                        let rest = &msg[prefix.min(len)..];
                        let strided = wide.absorb_strided(backend, rest);
                        wide.update(&rest[strided..]);
                        scalar.update(rest);
                        let at = format!("{backend} len {len} prefix {prefix}");
                        assert_eq!(wide.finalize(), scalar.finalize(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn update_wide_is_update_on_either_side_of_the_threshold() {
        let mut seed = 77u64;
        let key = [0x3cu8; 32];
        // (Clamped so a scratch build that forces the threshold to 0 or
        // to `usize::MAX` still runs this.)
        let edge = POLY_STRIDED_FROM.clamp(33, 4096);
        for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
            for len in (0..40)
                .chain(edge - 33..edge + 97)
                .chain([1400, 4096, 4097])
            {
                let mut msg = vec![0u8; len];
                fill(&mut seed, &mut msg);
                // Aligned, and with a partial block already buffered
                // (which keeps the whole update scalar).
                for head in [0usize, 5] {
                    let mut wide = Poly1305::new(&key);
                    wide.update(&msg[..head.min(len)]);
                    wide.update_wide(backend, &msg[head.min(len)..]);
                    assert_eq!(
                        wide.finalize(),
                        poly1305(&key, &msg),
                        "{backend} len {len} head {head}"
                    );
                }
            }
        }
    }

    #[test]
    fn across_filler_pads_a_partial_group_and_keeps_order() {
        let mut seed = 4242u64;
        for backend in vector_backends() {
            let lanes = poly1305_lanes(backend);
            for steps in [0usize, 1, 2, 6, 23] {
                for n in 1..=lanes {
                    let mut keys = vec![[0u8; 32]; n];
                    let mut msgs = vec![vec![0u8; steps * 16]; n];
                    for (k, m) in keys.iter_mut().zip(&mut msgs) {
                        fill(&mut seed, k);
                        fill(&mut seed, m);
                    }
                    let tags = poly1305_across(backend, &keys, steps, |step, l| {
                        msgs[l][step * 16..][..16].try_into().unwrap()
                    });
                    for l in 0..n {
                        assert_eq!(
                            tags[l],
                            poly1305(&keys[l], &msgs[l]),
                            "{backend} {steps} steps, lane {l} of {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn debug_prints_no_key_material() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0xa0 + i as u8;
        }
        let mut mac = Poly1305::new(&key);
        mac.update(b"seven b");
        let shown = format!("{mac:?}");
        assert_eq!(shown, "Poly1305 { key: \"<redacted>\", buffered: 7 }");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = [0x77u8; 32];
        let msg: Vec<u8> = (0..100u8).collect();
        for split in [0usize, 1, 15, 16, 17, 31, 32, 99] {
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), poly1305(&key, &msg), "split {split}");
        }
    }

    #[test]
    fn partial_and_exact_block_lengths() {
        // Lengths straddling the 16-byte block boundary all differ and
        // are stable (guards the padded-final-block path).
        let key = [0x13u8; 32];
        let mut tags = std::collections::HashSet::new();
        for len in [0usize, 1, 15, 16, 17, 32, 33] {
            let msg = vec![0xEE; len];
            assert!(tags.insert(poly1305(&key, &msg)), "len {len} collided");
        }
    }

    #[test]
    fn key_sensitivity() {
        let m = b"same message";
        assert_ne!(poly1305(&[1u8; 32], m), poly1305(&[2u8; 32], m));
    }

    #[test]
    fn wraparound_heavy_input() {
        // All-0xff blocks drive the accumulator through the 2^130-5
        // reduction repeatedly; cross-check determinism only (no
        // published vector), plus the §2.5 clamp making r high bits
        // irrelevant.
        let k1 = [0x55u8; 32];
        let tag1 = poly1305(&k1, &[0xff; 160]);
        // Setting clamped-away bits of r must not change the tag.
        let mut k2 = k1;
        k2[3] |= 0xf0;
        k2[4] |= 0x03;
        assert_eq!(poly1305(&k2, &[0xff; 160]), tag1);
    }
}
