//! Multi-lane kernels: interleaved ChaCha20 blocks, multi-buffer
//! SHA-256 compression, and Poly1305 with one multiplier per lane.
//!
//! Each kernel computes N independent streams per pass by holding one
//! state *word* across N lanes of a vector register — the classic
//! multi-buffer layout. The two bit-mixing kernels share one generic
//! body each via the [`Vec32`] trait: a portable `[u32; 4]` manual-lane
//! fallback, SSE2 (`__m128i`, 4 lanes), and AVX2 (`__m256i`, 8 lanes).
//! The arithmetic one, [`poly1305_kernel`], runs over [`Vec64`] — the
//! same registers cut into half as many 64-bit lanes (portable
//! `[u64; 2]`, SSE2 2, AVX2 4), because its limb products need the
//! width. The arithmetic is identical in every implementation, so every
//! backend is byte-for-byte equal to the scalar functions in
//! [`crate::chacha`] / [`crate::sha256`] / [`crate::poly1305`] — the
//! unit tests below pin that per lane position, and
//! `tests/backend_differential.rs` pins it end-to-end through the
//! suites.
//!
//! This is the only module in the crate allowed to contain `unsafe`
//! code, and every unsafe block is one of exactly three shapes: a call
//! to a `std::arch` intrinsic (safe by the target-feature contract of
//! the enclosing dispatch, documented at each site), a `transmute`
//! between a vector register and its exact-size `[u32; N]` / `[u64; N]`
//! representation, or — in `store_blocks` only — an unaligned vector
//! store through a pointer into a slice whose bounds are checked at the
//! site. The Poly1305 kernel adds instances of the first two and none of
//! the third: its limbs and message words pass by register.

use crate::backend::Backend;
use crate::chacha::{chacha20_block, chacha20_xor, CHACHA_KEY_LEN, CHACHA_NONCE_LEN, SIGMA};
use crate::sha256::K;
use core::ops::Range;

/// The widest lane count any backend uses ([`Backend::Avx2`]).
pub(crate) const MAX_LANES: usize = 8;

/// One ChaCha20 block request: `(counter, nonce)` under a shared key.
pub(crate) type BlockJob = (u32, [u8; CHACHA_NONCE_LEN]);

/// 32-bit SIMD lane abstraction. One value holds `LANES` independent
/// `u32` streams; all ops are lane-wise with wrapping arithmetic.
trait Vec32: Copy {
    /// Number of lanes.
    const LANES: usize;
    /// Broadcasts `x` into every lane.
    fn splat(x: u32) -> Self;
    /// Loads the first `LANES` values of `xs`.
    fn load(xs: &[u32]) -> Self;
    /// Stores the lanes into the first `LANES` slots of `out`.
    fn store(self, out: &mut [u32]);
    /// Lane-wise wrapping add.
    fn add(self, o: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, o: Self) -> Self;
    /// Lane-wise AND.
    fn and(self, o: Self) -> Self;
    /// Lane-wise `(!self) & o` (the SHA-256 `Ch` building block).
    fn andnot(self, o: Self) -> Self;
    /// Lane-wise logical shift left by `n` bits (`0 < n < 32`).
    fn shl(self, n: u32) -> Self;
    /// Lane-wise logical shift right by `n` bits (`0 < n < 32`).
    fn shr(self, n: u32) -> Self;
    /// Lane-wise rotate left.
    #[inline(always)]
    fn rotl(self, n: u32) -> Self {
        self.shl(n).xor(self.shr(32 - n))
    }
    /// Lane-wise rotate left by 16 — byte-aligned, so backends can use
    /// a byte/halfword shuffle (1–2 ops) instead of the shift pair (3).
    #[inline(always)]
    fn rotl16(self) -> Self {
        self.rotl(16)
    }
    /// Lane-wise rotate left by 8 — byte-aligned, as above.
    #[inline(always)]
    fn rotl8(self) -> Self {
        self.rotl(8)
    }
    /// Lane-wise rotate right.
    #[inline(always)]
    fn rotr(self, n: u32) -> Self {
        self.rotl(32 - n)
    }
    /// Writes 16 finalized state words (one vector per word, lanes
    /// across blocks) as `LANES` contiguous little-endian 64-byte
    /// blocks. The default scatters through a stack array; the x86
    /// types override it with in-register transposes, turning 16·LANES
    /// four-byte stores into LANES·2 full-width ones.
    #[inline(always)]
    fn store_blocks(words: &[Self; 16], out: &mut [[u8; 64]]) {
        let mut tmp = [0u32; MAX_LANES];
        for (i, w) in words.iter().enumerate() {
            w.store(&mut tmp);
            for (l, block) in out.iter_mut().enumerate() {
                block[i * 4..i * 4 + 4].copy_from_slice(&tmp[l].to_le_bytes());
            }
        }
    }
}

/// Portable 4-lane fallback: plain arrays the optimizer may or may not
/// vectorize. Used for `Backend::Lanes4` off x86_64 and as a kernel
/// cross-check in tests.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[derive(Copy, Clone)]
struct P4([u32; 4]);

impl Vec32 for P4 {
    const LANES: usize = 4;
    #[inline(always)]
    fn splat(x: u32) -> Self {
        P4([x; 4])
    }
    #[inline(always)]
    fn load(xs: &[u32]) -> Self {
        P4([xs[0], xs[1], xs[2], xs[3]])
    }
    #[inline(always)]
    fn store(self, out: &mut [u32]) {
        out[..4].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        P4([
            self.0[0].wrapping_add(o.0[0]),
            self.0[1].wrapping_add(o.0[1]),
            self.0[2].wrapping_add(o.0[2]),
            self.0[3].wrapping_add(o.0[3]),
        ])
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        P4([
            self.0[0] ^ o.0[0],
            self.0[1] ^ o.0[1],
            self.0[2] ^ o.0[2],
            self.0[3] ^ o.0[3],
        ])
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        P4([
            self.0[0] & o.0[0],
            self.0[1] & o.0[1],
            self.0[2] & o.0[2],
            self.0[3] & o.0[3],
        ])
    }
    #[inline(always)]
    fn andnot(self, o: Self) -> Self {
        P4([
            !self.0[0] & o.0[0],
            !self.0[1] & o.0[1],
            !self.0[2] & o.0[2],
            !self.0[3] & o.0[3],
        ])
    }
    #[inline(always)]
    fn shl(self, n: u32) -> Self {
        P4([
            self.0[0] << n,
            self.0[1] << n,
            self.0[2] << n,
            self.0[3] << n,
        ])
    }
    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        P4([
            self.0[0] >> n,
            self.0[1] >> n,
            self.0[2] >> n,
            self.0[3] >> n,
        ])
    }
    #[inline(always)]
    fn rotl(self, n: u32) -> Self {
        P4([
            self.0[0].rotate_left(n),
            self.0[1].rotate_left(n),
            self.0[2].rotate_left(n),
            self.0[3].rotate_left(n),
        ])
    }
}

/// The most 64-bit lanes any backend gives the Poly1305 kernel
/// ([`Backend::Avx2`]).
pub(crate) const POLY_MAX_LANES: usize = 4;

/// 64-bit SIMD lane abstraction for the Poly1305 kernel. One value holds
/// `LANES` independent `u64` streams; all ops are lane-wise and wrapping.
trait Vec64: Copy {
    /// Number of lanes.
    const LANES: usize;
    /// Broadcasts `x` into every lane.
    fn splat(x: u64) -> Self;
    /// Loads the first `LANES` values of `xs`.
    fn load(xs: &[u64]) -> Self;
    /// Stores the lanes into the first `LANES` slots of `out`.
    fn store(self, out: &mut [u64]);
    /// The first `LANES` blocks as two vectors of little-endian words:
    /// lane `l` of the first is bytes `0..8` of `blocks[l]`, lane `l` of
    /// the second bytes `8..16`.
    fn words(blocks: &[[u8; 16]; POLY_MAX_LANES]) -> (Self, Self);
    /// Lane-wise wrapping add.
    fn add(self, o: Self) -> Self;
    /// Lane-wise AND.
    fn and(self, o: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, o: Self) -> Self;
    /// Lane-wise logical shift left by `n` bits (`0 < n < 64`).
    fn shl(self, n: u32) -> Self;
    /// Lane-wise logical shift right by `n` bits (`0 < n < 64`).
    fn shr(self, n: u32) -> Self;
    /// Lane-wise 32×32→64 multiply of the **low halves**: the high 32
    /// bits of each operand lane are ignored, exactly as `pmuludq` does.
    fn mul32(self, o: Self) -> Self;
}

/// Portable 2-lane fallback for the Poly1305 kernel: `Backend::Lanes4`
/// off x86_64, and a kernel cross-check in tests.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[derive(Copy, Clone)]
struct P2([u64; 2]);

impl Vec64 for P2 {
    const LANES: usize = 2;
    #[inline(always)]
    fn splat(x: u64) -> Self {
        P2([x; 2])
    }
    #[inline(always)]
    fn load(xs: &[u64]) -> Self {
        P2([xs[0], xs[1]])
    }
    #[inline(always)]
    fn store(self, out: &mut [u64]) {
        out[..2].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn words(blocks: &[[u8; 16]; POLY_MAX_LANES]) -> (Self, Self) {
        let word = |l: usize, at: usize| {
            u64::from_le_bytes(blocks[l][at..at + 8].try_into().expect("fixed"))
        };
        (P2([word(0, 0), word(1, 0)]), P2([word(0, 8), word(1, 8)]))
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        P2([
            self.0[0].wrapping_add(o.0[0]),
            self.0[1].wrapping_add(o.0[1]),
        ])
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        P2([self.0[0] & o.0[0], self.0[1] & o.0[1]])
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        P2([self.0[0] | o.0[0], self.0[1] | o.0[1]])
    }
    #[inline(always)]
    fn shl(self, n: u32) -> Self {
        P2([self.0[0] << n, self.0[1] << n])
    }
    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        P2([self.0[0] >> n, self.0[1] >> n])
    }
    #[inline(always)]
    fn mul32(self, o: Self) -> Self {
        let lo = |x: u64| x & 0xffff_ffff;
        P2([lo(self.0[0]) * lo(o.0[0]), lo(self.0[1]) * lo(o.0[1])])
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    //! SSE2 and AVX2 lane types plus the `#[target_feature]` kernel
    //! entry points. Safety model: SSE2 is part of the x86_64 baseline
    //! ISA, so the SSE2 intrinsics are sound on every x86_64 host; the
    //! AVX2 intrinsics only execute inside `*_avx2` entry points, which
    //! the dispatchers in the parent module call strictly behind a
    //! runtime `is_x86_feature_detected!("avx2")` check.

    use super::{
        chacha_blocks_kernel, poly1305_kernel, sha256_multiway_kernel, BlockJob, Limbs26, Vec32,
        Vec64, POLY_MAX_LANES,
    };
    use crate::chacha::CHACHA_KEY_LEN;
    use std::arch::x86_64::*;

    /// Four lanes in one `__m128i` (SSE2).
    #[derive(Copy, Clone)]
    pub(super) struct S4(__m128i);

    impl Vec32 for S4 {
        const LANES: usize = 4;
        #[inline(always)]
        fn splat(x: u32) -> Self {
            // SAFETY: sse2 is part of the x86_64 baseline ISA.
            S4(unsafe { _mm_set1_epi32(x as i32) })
        }
        #[inline(always)]
        fn load(xs: &[u32]) -> Self {
            // SAFETY: as above; lane values pass by register, not pointer.
            S4(unsafe { _mm_set_epi32(xs[3] as i32, xs[2] as i32, xs[1] as i32, xs[0] as i32) })
        }
        #[inline(always)]
        fn store(self, out: &mut [u32]) {
            // SAFETY: `__m128i` and `[u32; 4]` have identical size and
            // no invalid bit patterns.
            let lanes: [u32; 4] = unsafe { core::mem::transmute(self.0) };
            out[..4].copy_from_slice(&lanes);
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: sse2 is part of the x86_64 baseline ISA.
            S4(unsafe { _mm_add_epi32(self.0, o.0) })
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: as above.
            S4(unsafe { _mm_xor_si128(self.0, o.0) })
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: as above.
            S4(unsafe { _mm_and_si128(self.0, o.0) })
        }
        #[inline(always)]
        fn andnot(self, o: Self) -> Self {
            // SAFETY: as above. `_mm_andnot_si128(a, b)` computes `!a & b`.
            S4(unsafe { _mm_andnot_si128(self.0, o.0) })
        }
        #[inline(always)]
        fn shl(self, n: u32) -> Self {
            // SAFETY: as above.
            S4(unsafe { _mm_sll_epi32(self.0, _mm_cvtsi32_si128(n as i32)) })
        }
        #[inline(always)]
        fn shr(self, n: u32) -> Self {
            // SAFETY: as above.
            S4(unsafe { _mm_srl_epi32(self.0, _mm_cvtsi32_si128(n as i32)) })
        }
        #[inline(always)]
        fn rotl16(self) -> Self {
            // Swapping the 16-bit halves of each 32-bit word IS the
            // 16-bit rotate; two SSE2 halfword shuffles beat the
            // three-op shift pair.
            // SAFETY: sse2 is part of the x86_64 baseline ISA.
            S4(unsafe {
                _mm_shufflehi_epi16(_mm_shufflelo_epi16(self.0, 0b10_11_00_01), 0b10_11_00_01)
            })
        }
        #[inline(always)]
        fn store_blocks(words: &[Self; 16], out: &mut [[u8; 64]]) {
            debug_assert_eq!(out.len(), 4);
            // Four 4×4 in-register transposes: quartet q of state words
            // becomes bytes 16q..16q+16 of each lane's block, stored as
            // one unaligned 128-bit write (x86 is little-endian, so a
            // register store IS the LE serialization).
            // SAFETY: sse2 is part of the x86_64 baseline ISA; each
            // store targets 16 in-bounds bytes of a 64-byte block.
            unsafe {
                for q in 0..4 {
                    let t0 = _mm_unpacklo_epi32(words[q * 4].0, words[q * 4 + 1].0);
                    let t1 = _mm_unpacklo_epi32(words[q * 4 + 2].0, words[q * 4 + 3].0);
                    let t2 = _mm_unpackhi_epi32(words[q * 4].0, words[q * 4 + 1].0);
                    let t3 = _mm_unpackhi_epi32(words[q * 4 + 2].0, words[q * 4 + 3].0);
                    let rows = [
                        _mm_unpacklo_epi64(t0, t1),
                        _mm_unpackhi_epi64(t0, t1),
                        _mm_unpacklo_epi64(t2, t3),
                        _mm_unpackhi_epi64(t2, t3),
                    ];
                    for (l, row) in rows.iter().enumerate() {
                        _mm_storeu_si128(out[l][q * 16..].as_mut_ptr().cast::<__m128i>(), *row);
                    }
                }
            }
        }
    }

    /// Eight lanes in one `__m256i` (AVX2). Values of this type only
    /// flow inside the `*_avx2` entry points below.
    #[derive(Copy, Clone)]
    pub(super) struct A8(__m256i);

    impl Vec32 for A8 {
        const LANES: usize = 8;
        #[inline(always)]
        fn splat(x: u32) -> Self {
            // SAFETY: reachable only from the `*_avx2` entry points,
            // which dispatch strictly behind a runtime AVX2 check.
            A8(unsafe { _mm256_set1_epi32(x as i32) })
        }
        #[inline(always)]
        fn load(xs: &[u32]) -> Self {
            // SAFETY: as above.
            A8(unsafe {
                _mm256_set_epi32(
                    xs[7] as i32,
                    xs[6] as i32,
                    xs[5] as i32,
                    xs[4] as i32,
                    xs[3] as i32,
                    xs[2] as i32,
                    xs[1] as i32,
                    xs[0] as i32,
                )
            })
        }
        #[inline(always)]
        fn store(self, out: &mut [u32]) {
            // SAFETY: `__m256i` and `[u32; 8]` have identical size and
            // no invalid bit patterns.
            let lanes: [u32; 8] = unsafe { core::mem::transmute(self.0) };
            out[..8].copy_from_slice(&lanes);
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: reachable only behind the runtime AVX2 check.
            A8(unsafe { _mm256_add_epi32(self.0, o.0) })
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: as above.
            A8(unsafe { _mm256_xor_si256(self.0, o.0) })
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: as above.
            A8(unsafe { _mm256_and_si256(self.0, o.0) })
        }
        #[inline(always)]
        fn andnot(self, o: Self) -> Self {
            // SAFETY: as above. `_mm256_andnot_si256(a, b)` computes `!a & b`.
            A8(unsafe { _mm256_andnot_si256(self.0, o.0) })
        }
        #[inline(always)]
        fn shl(self, n: u32) -> Self {
            // SAFETY: as above.
            A8(unsafe { _mm256_sll_epi32(self.0, _mm_cvtsi32_si128(n as i32)) })
        }
        #[inline(always)]
        fn shr(self, n: u32) -> Self {
            // SAFETY: as above.
            A8(unsafe { _mm256_srl_epi32(self.0, _mm_cvtsi32_si128(n as i32)) })
        }
        #[inline(always)]
        fn rotl16(self) -> Self {
            // Byte-aligned rotate as a single in-lane byte shuffle: for
            // each little-endian word [b0 b1 b2 b3], rotl16 permutes to
            // [b2 b3 b0 b1]. Indices repeat per 128-bit half, which is
            // exactly `vpshufb`'s lane model.
            const MASK: [u8; 32] = [
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            ];
            // SAFETY: reachable only behind the runtime AVX2 check;
            // `[u8; 32]` and `__m256i` are layout-identical.
            A8(unsafe {
                _mm256_shuffle_epi8(self.0, core::mem::transmute::<[u8; 32], __m256i>(MASK))
            })
        }
        #[inline(always)]
        fn rotl8(self) -> Self {
            // rotl8 permutes each word [b0 b1 b2 b3] to [b3 b0 b1 b2].
            const MASK: [u8; 32] = [
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            ];
            // SAFETY: as above.
            A8(unsafe {
                _mm256_shuffle_epi8(self.0, core::mem::transmute::<[u8; 32], __m256i>(MASK))
            })
        }
        #[inline(always)]
        fn store_blocks(words: &[Self; 16], out: &mut [[u8; 64]]) {
            debug_assert_eq!(out.len(), 8);
            // Two 8×8 in-register transposes (state words 0..8 and
            // 8..16): unpack 32-bit pairs, then 64-bit quads, then stitch
            // the 128-bit halves. Each lane's half-block leaves as one
            // unaligned 256-bit store — `_mm256_unpack*_epi32/64` work
            // per 128-bit half, which is why lane j and lane j+4 fall
            // out of the same `u` pair via the two permute selectors.
            // SAFETY: reachable only behind the runtime AVX2 check; each
            // store targets 32 in-bounds bytes of a 64-byte block.
            unsafe {
                for half in 0..2 {
                    let w = &words[half * 8..half * 8 + 8];
                    let t0 = _mm256_unpacklo_epi32(w[0].0, w[1].0);
                    let t1 = _mm256_unpackhi_epi32(w[0].0, w[1].0);
                    let t2 = _mm256_unpacklo_epi32(w[2].0, w[3].0);
                    let t3 = _mm256_unpackhi_epi32(w[2].0, w[3].0);
                    let t4 = _mm256_unpacklo_epi32(w[4].0, w[5].0);
                    let t5 = _mm256_unpackhi_epi32(w[4].0, w[5].0);
                    let t6 = _mm256_unpacklo_epi32(w[6].0, w[7].0);
                    let t7 = _mm256_unpackhi_epi32(w[6].0, w[7].0);
                    let pairs = [
                        (_mm256_unpacklo_epi64(t0, t2), _mm256_unpacklo_epi64(t4, t6)),
                        (_mm256_unpackhi_epi64(t0, t2), _mm256_unpackhi_epi64(t4, t6)),
                        (_mm256_unpacklo_epi64(t1, t3), _mm256_unpacklo_epi64(t5, t7)),
                        (_mm256_unpackhi_epi64(t1, t3), _mm256_unpackhi_epi64(t5, t7)),
                    ];
                    for (j, (lo, hi)) in pairs.iter().enumerate() {
                        let row_lo = _mm256_permute2x128_si256::<0x20>(*lo, *hi);
                        let row_hi = _mm256_permute2x128_si256::<0x31>(*lo, *hi);
                        _mm256_storeu_si256(
                            out[j][half * 32..].as_mut_ptr().cast::<__m256i>(),
                            row_lo,
                        );
                        _mm256_storeu_si256(
                            out[j + 4][half * 32..].as_mut_ptr().cast::<__m256i>(),
                            row_hi,
                        );
                    }
                }
            }
        }
    }

    /// Two 64-bit lanes in one `__m128i` (SSE2).
    #[derive(Copy, Clone)]
    pub(super) struct S2(__m128i);

    impl Vec64 for S2 {
        const LANES: usize = 2;
        #[inline(always)]
        fn splat(x: u64) -> Self {
            // SAFETY: sse2 is part of the x86_64 baseline ISA.
            S2(unsafe { _mm_set1_epi64x(x as i64) })
        }
        #[inline(always)]
        fn load(xs: &[u64]) -> Self {
            let lanes: [u64; 2] = xs[..2].try_into().expect("fixed");
            // SAFETY: `[u64; 2]` and `__m128i` have identical size and
            // no invalid bit patterns.
            S2(unsafe { core::mem::transmute::<[u64; 2], __m128i>(lanes) })
        }
        #[inline(always)]
        fn store(self, out: &mut [u64]) {
            // SAFETY: `__m128i` and `[u64; 2]` have identical size and
            // no invalid bit patterns.
            let lanes: [u64; 2] = unsafe { core::mem::transmute(self.0) };
            out[..2].copy_from_slice(&lanes);
        }
        #[inline(always)]
        fn words(blocks: &[[u8; 16]; POLY_MAX_LANES]) -> (Self, Self) {
            // A block in a register is its two words, low word in the low
            // half (x86 is little-endian); one unpack pair transposes.
            // SAFETY: `[u8; 16]` and `__m128i` have identical size and no
            // invalid bit patterns; sse2 is part of the x86_64 baseline.
            unsafe {
                let [m0, m1, ..] = blocks.map(|m| core::mem::transmute::<[u8; 16], __m128i>(m));
                (
                    S2(_mm_unpacklo_epi64(m0, m1)),
                    S2(_mm_unpackhi_epi64(m0, m1)),
                )
            }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: sse2 is part of the x86_64 baseline ISA.
            S2(unsafe { _mm_add_epi64(self.0, o.0) })
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: as above.
            S2(unsafe { _mm_and_si128(self.0, o.0) })
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: as above.
            S2(unsafe { _mm_or_si128(self.0, o.0) })
        }
        #[inline(always)]
        fn shl(self, n: u32) -> Self {
            // SAFETY: as above.
            S2(unsafe { _mm_sll_epi64(self.0, _mm_cvtsi32_si128(n as i32)) })
        }
        #[inline(always)]
        fn shr(self, n: u32) -> Self {
            // SAFETY: as above.
            S2(unsafe { _mm_srl_epi64(self.0, _mm_cvtsi32_si128(n as i32)) })
        }
        #[inline(always)]
        fn mul32(self, o: Self) -> Self {
            // SAFETY: as above. `pmuludq` reads the low 32 bits of each
            // 64-bit lane and writes the full 64-bit product.
            S2(unsafe { _mm_mul_epu32(self.0, o.0) })
        }
    }

    /// Four 64-bit lanes in one `__m256i` (AVX2). Values of this type
    /// only flow inside `poly1305_avx2` below.
    #[derive(Copy, Clone)]
    pub(super) struct A4(__m256i);

    impl Vec64 for A4 {
        const LANES: usize = 4;
        #[inline(always)]
        fn splat(x: u64) -> Self {
            // SAFETY: reachable only from `poly1305_avx2`, which
            // dispatches strictly behind a runtime AVX2 check.
            A4(unsafe { _mm256_set1_epi64x(x as i64) })
        }
        #[inline(always)]
        fn load(xs: &[u64]) -> Self {
            let lanes: [u64; 4] = xs[..4].try_into().expect("fixed");
            // SAFETY: `[u64; 4]` and `__m256i` have identical size and
            // no invalid bit patterns.
            A4(unsafe { core::mem::transmute::<[u64; 4], __m256i>(lanes) })
        }
        #[inline(always)]
        fn store(self, out: &mut [u64]) {
            // SAFETY: `__m256i` and `[u64; 4]` have identical size and
            // no invalid bit patterns.
            let lanes: [u64; 4] = unsafe { core::mem::transmute(self.0) };
            out[..4].copy_from_slice(&lanes);
        }
        #[inline(always)]
        fn words(blocks: &[[u8; 16]; POLY_MAX_LANES]) -> (Self, Self) {
            // Blocks 0 and 2 share one register, 1 and 3 another; the
            // unpack pair works per 128-bit half, so lanes come out in
            // order: (0, 1 | 2, 3).
            // SAFETY: `[u8; 16]` and `__m128i` have identical size and no
            // invalid bit patterns; reachable only behind the runtime
            // AVX2 check.
            unsafe {
                let [m0, m1, m2, m3] = blocks.map(|m| core::mem::transmute::<[u8; 16], __m128i>(m));
                let (even, odd) = (_mm256_set_m128i(m2, m0), _mm256_set_m128i(m3, m1));
                (
                    A4(_mm256_unpacklo_epi64(even, odd)),
                    A4(_mm256_unpackhi_epi64(even, odd)),
                )
            }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: reachable only behind the runtime AVX2 check.
            A4(unsafe { _mm256_add_epi64(self.0, o.0) })
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: as above.
            A4(unsafe { _mm256_and_si256(self.0, o.0) })
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: as above.
            A4(unsafe { _mm256_or_si256(self.0, o.0) })
        }
        #[inline(always)]
        fn shl(self, n: u32) -> Self {
            // SAFETY: as above.
            A4(unsafe { _mm256_sll_epi64(self.0, _mm_cvtsi32_si128(n as i32)) })
        }
        #[inline(always)]
        fn shr(self, n: u32) -> Self {
            // SAFETY: as above.
            A4(unsafe { _mm256_srl_epi64(self.0, _mm_cvtsi32_si128(n as i32)) })
        }
        #[inline(always)]
        fn mul32(self, o: Self) -> Self {
            // SAFETY: as above. `vpmuludq`: low halves in, 64 bits out.
            A4(unsafe { _mm256_mul_epu32(self.0, o.0) })
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn chacha_blocks_sse2(
        key: &[u8; CHACHA_KEY_LEN],
        jobs: &[BlockJob],
        out: &mut [[u8; 64]],
    ) {
        chacha_blocks_kernel::<S4>(key, jobs, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn chacha_blocks_avx2(
        key: &[u8; CHACHA_KEY_LEN],
        jobs: &[BlockJob],
        out: &mut [[u8; 64]],
    ) {
        chacha_blocks_kernel::<A8>(key, jobs, out);
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn sha256_multiway_sse2(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        sha256_multiway_kernel::<S4>(states, blocks);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn sha256_multiway_avx2(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        sha256_multiway_kernel::<A8>(states, blocks);
    }

    /// The 2-lane kernel. Safe and without `#[target_feature]` (sse2 is
    /// the x86_64 baseline; [`S2`] says so at each intrinsic) because it
    /// must be `#[inline(never)]`, and rustc drops that attribute from
    /// `#[target_feature]` functions. Merged into a caller that starts
    /// every accumulator from a constant zero, LLVM proves the operands of
    /// `pmuludq` narrow, strips the masking that makes each product one
    /// instruction, loses the proof across the loop and emits a
    /// three-multiply 64-bit product instead (measured: 18 ns a step
    /// against 11). Behind a call the limbs are just memory.
    #[inline(never)]
    pub(super) fn poly1305_sse2(
        h: &mut Limbs26,
        rows: &Limbs26,
        steps: usize,
        block: impl Fn(usize, usize) -> [u8; 16],
    ) {
        poly1305_kernel::<S2>(h, rows, steps, block);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn poly1305_avx2(
        h: &mut Limbs26,
        rows: &Limbs26,
        steps: usize,
        block: impl Fn(usize, usize) -> [u8; 16],
    ) {
        poly1305_kernel::<A4>(h, rows, steps, block);
    }
}

/// N interleaved ChaCha20 blocks under one key: lane `l` computes the
/// RFC 8439 block for `jobs[l] = (counter, nonce)`. Identical output to
/// N calls of [`chacha20_block`].
#[inline(always)]
fn chacha_blocks_kernel<V: Vec32>(
    key: &[u8; CHACHA_KEY_LEN],
    jobs: &[BlockJob],
    out: &mut [[u8; 64]],
) {
    let lanes = V::LANES;
    debug_assert_eq!(jobs.len(), lanes);
    debug_assert_eq!(out.len(), lanes);
    // State words 0..12 are lane-uniform (constants + shared key); the
    // counter (word 12) and nonce (words 13..16) differ per lane.
    let mut init = [V::splat(0); 16];
    for i in 0..4 {
        init[i] = V::splat(SIGMA[i]);
    }
    for i in 0..8 {
        init[4 + i] = V::splat(u32::from_le_bytes(
            key[i * 4..i * 4 + 4].try_into().expect("fixed"),
        ));
    }
    let mut tmp = [0u32; MAX_LANES];
    for (l, job) in jobs.iter().enumerate() {
        tmp[l] = job.0;
    }
    init[12] = V::load(&tmp);
    for w in 0..3 {
        for (l, job) in jobs.iter().enumerate() {
            tmp[l] = u32::from_le_bytes(job.1[w * 4..w * 4 + 4].try_into().expect("fixed"));
        }
        init[13 + w] = V::load(&tmp);
    }
    let mut x = init;
    for _ in 0..10 {
        // Column round.
        vector_quarter_round(&mut x, 0, 4, 8, 12);
        vector_quarter_round(&mut x, 1, 5, 9, 13);
        vector_quarter_round(&mut x, 2, 6, 10, 14);
        vector_quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        vector_quarter_round(&mut x, 0, 5, 10, 15);
        vector_quarter_round(&mut x, 1, 6, 11, 12);
        vector_quarter_round(&mut x, 2, 7, 8, 13);
        vector_quarter_round(&mut x, 3, 4, 9, 14);
    }
    for i in 0..16 {
        x[i] = x[i].add(init[i]);
    }
    V::store_blocks(&x, out);
}

#[inline(always)]
fn vector_quarter_round<V: Vec32>(x: &mut [V; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].add(x[b]);
    x[d] = x[d].xor(x[a]).rotl16();
    x[c] = x[c].add(x[d]);
    x[b] = x[b].xor(x[c]).rotl(12);
    x[a] = x[a].add(x[b]);
    x[d] = x[d].xor(x[a]).rotl8();
    x[c] = x[c].add(x[d]);
    x[b] = x[b].xor(x[c]).rotl(7);
}

/// N-way SHA-256 compression: lane `l` compresses `blocks[l]` into
/// `states[l]`. Identical to N calls of the scalar `compress_block`.
#[inline(always)]
fn sha256_multiway_kernel<V: Vec32>(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    let lanes = V::LANES;
    debug_assert_eq!(states.len(), lanes);
    debug_assert_eq!(blocks.len(), lanes);
    let mut tmp = [0u32; MAX_LANES];
    let mut w = [V::splat(0); 64];
    for i in 0..16 {
        for (l, block) in blocks.iter().enumerate() {
            tmp[l] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("fixed"));
        }
        w[i] = V::load(&tmp);
    }
    for i in 16..64 {
        let s0 = w[i - 15]
            .rotr(7)
            .xor(w[i - 15].rotr(18))
            .xor(w[i - 15].shr(3));
        let s1 = w[i - 2]
            .rotr(17)
            .xor(w[i - 2].rotr(19))
            .xor(w[i - 2].shr(10));
        w[i] = w[i - 16].add(s0).add(w[i - 7]).add(s1);
    }
    let mut v = [V::splat(0); 8];
    for (j, slot) in v.iter_mut().enumerate() {
        for (l, state) in states.iter().enumerate() {
            tmp[l] = state[j];
        }
        *slot = V::load(&tmp);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = v;
    for i in 0..64 {
        let s1 = e.rotr(6).xor(e.rotr(11)).xor(e.rotr(25));
        let ch = e.and(f).xor(e.andnot(g));
        let t1 = h.add(s1).add(ch).add(V::splat(K[i])).add(w[i]);
        let s0 = a.rotr(2).xor(a.rotr(13)).xor(a.rotr(22));
        let maj = a.and(b).xor(a.and(c)).xor(b.and(c));
        let t2 = s0.add(maj);
        h = g;
        g = f;
        f = e;
        e = d.add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.add(t2);
    }
    for (j, vv) in [a, b, c, d, e, f, g, h].iter().enumerate() {
        vv.store(&mut tmp);
        for (l, state) in states.iter_mut().enumerate() {
            state[j] = state[j].wrapping_add(tmp[l]);
        }
    }
}

/// A Poly1305 value per lane in radix 2²⁶, limb-major: `limbs[i][l]` is
/// limb `i` (weight 2^(26·i)) of lane `l`. Accumulators and multiplier
/// rows both travel in this shape; `crate::poly1305` owns the conversion
/// to and from the scalar code's radix 2⁴⁴.
pub(crate) type Limbs26 = [[u64; POLY_MAX_LANES]; 5];

/// Low 26 bits: one radix-2²⁶ limb.
pub(crate) const MASK26: u64 = (1 << 26) - 1;

/// `steps` Poly1305 steps in every lane at once: lane `l` runs
/// `h_l ← (h_l + m)·r_l mod 2¹³⁰ − 5` with `m = block(step, l)` (a whole
/// 16-byte block: bit 128 is set, as for every block but a message's
/// ragged last) and `r_l` the lane's own row of `rows`. What the lanes
/// hold is the caller's business — `crate::poly1305` fills them with one
/// message strided under powers of one `r`, or with one message each
/// under unrelated one-time keys; the step is the same.
///
/// Limb bounds, which are what make `pmuludq`'s 32-bit operands enough:
/// rows at most 2²⁶ per limb (so `5·r` is under 2²⁹), accumulator limbs at
/// most 2²⁶ + 2¹² coming in; then `h + m` is under 2²⁸, each of the 25
/// products under 2⁵⁷, each column sum under 2⁶⁰, and the carry chain
/// leaves limbs 0, 2, 3 under 2²⁶, limb 1 under 2²⁶ + 2¹² and limb 4 under
/// 2²⁶ + 2⁹ — the bound it started from. No branch, index or trip count
/// depends on a limb or a message byte.
#[inline(always)]
fn poly1305_kernel<V: Vec64>(
    h: &mut Limbs26,
    rows: &Limbs26,
    steps: usize,
    block: impl Fn(usize, usize) -> [u8; 16],
) {
    let load = |limbs: &Limbs26| -> [V; 5] { core::array::from_fn(|i| V::load(&limbs[i])) };
    let r = load(rows);
    // 2¹³⁰ ≡ 5: a product that spills past limb 4 re-enters at ·5.
    let s: [V; 4] = core::array::from_fn(|i| r[i + 1].add(r[i + 1].shl(2)));
    let mask = V::splat(MASK26);
    let bit128 = V::splat(1 << 24);
    let mut acc = load(h);
    for step in 0..steps {
        // The one message-to-limbs split: each lane's block as two
        // little-endian words, cut at the 26-bit boundaries.
        let mut blocks = [[0u8; 16]; POLY_MAX_LANES];
        for (l, m) in blocks[..V::LANES].iter_mut().enumerate() {
            *m = block(step, l);
        }
        let (t0, t1) = V::words(&blocks);
        let x = [
            acc[0].add(t0.and(mask)),
            acc[1].add(t0.shr(26).and(mask)),
            acc[2].add(t0.shr(52).or(t1.shl(12)).and(mask)),
            acc[3].add(t1.shr(14).and(mask)),
            acc[4].add(t1.shr(40).or(bit128)),
        ];
        acc = poly1305_mul_carry(&x, &r, &s, mask);
    }
    for (limb, v) in h.iter_mut().zip(acc) {
        v.store(limb);
    }
}

/// The one multiply-and-carry body: `x·r mod 2¹³⁰ − 5` per lane, five
/// schoolbook columns with the wrap folded in through `s = 5·r[1..]`,
/// then one pass of carries run as two interleaved chains (0→1→2→3→4
/// and 3→4→0→1) so the dependency chain is four links, not six.
#[inline(always)]
fn poly1305_mul_carry<V: Vec64>(x: &[V; 5], r: &[V; 5], s: &[V; 4], mask: V) -> [V; 5] {
    let col = |a: V, b: V, c: V, d: V, e: V| a.add(b).add(c.add(d)).add(e);
    let [x0, x1, x2, x3, x4] = *x;
    let [r0, r1, r2, r3, r4] = *r;
    let [s1, s2, s3, s4] = *s;
    #[rustfmt::skip]
    let [d0, d1, d2, d3, d4] = [
        col(x0.mul32(r0), x1.mul32(s4), x2.mul32(s3), x3.mul32(s2), x4.mul32(s1)),
        col(x0.mul32(r1), x1.mul32(r0), x2.mul32(s4), x3.mul32(s3), x4.mul32(s2)),
        col(x0.mul32(r2), x1.mul32(r1), x2.mul32(r0), x3.mul32(s4), x4.mul32(s3)),
        col(x0.mul32(r3), x1.mul32(r2), x2.mul32(r1), x3.mul32(r0), x4.mul32(s4)),
        col(x0.mul32(r4), x1.mul32(r3), x2.mul32(r2), x3.mul32(r1), x4.mul32(r0)),
    ];
    let (d1, d4) = (d1.add(d0.shr(26)), d4.add(d3.shr(26)));
    let (d0, d3) = (d0.and(mask), d3.and(mask));
    // The carry out of limb 4 can exceed 32 bits: ·5 by shift and add,
    // never by `mul32`.
    let c4 = d4.shr(26);
    let (d2, d0) = (d2.add(d1.shr(26)), d0.add(c4).add(c4.shl(2)));
    let (d1, d4) = (d1.and(mask), d4.and(mask));
    let (d3, d1) = (d3.add(d2.shr(26)), d1.add(d0.shr(26)));
    let (d2, d0) = (d2.and(mask), d0.and(mask));
    let d4 = d4.add(d3.shr(26));
    [d0, d1, d2, d3.and(mask), d4]
}

/// Computes `jobs.len()` ChaCha20 blocks under one key. For SIMD
/// backends `jobs.len()` must equal [`Backend::lanes`]; the scalar
/// backend accepts any length.
#[allow(unsafe_code)]
pub(crate) fn chacha_blocks(
    backend: Backend,
    key: &[u8; CHACHA_KEY_LEN],
    jobs: &[BlockJob],
    out: &mut [[u8; 64]],
) {
    assert_eq!(jobs.len(), out.len());
    match backend {
        Backend::Scalar => {
            for (job, block) in jobs.iter().zip(out.iter_mut()) {
                *block = chacha20_block(key, job.0, &job.1);
            }
        }
        Backend::Lanes4 => {
            assert_eq!(jobs.len(), 4);
            #[cfg(target_arch = "x86_64")]
            // SAFETY: sse2 is part of the x86_64 baseline ISA.
            unsafe {
                x86::chacha_blocks_sse2(key, jobs, out)
            }
            #[cfg(not(target_arch = "x86_64"))]
            chacha_blocks_kernel::<P4>(key, jobs, out)
        }
        Backend::Avx2 => {
            assert_eq!(jobs.len(), 8);
            assert!(
                Backend::Avx2.is_supported(),
                "avx2 backend invoked on a host without AVX2"
            );
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assert above proves runtime AVX2 support.
            unsafe {
                x86::chacha_blocks_avx2(key, jobs, out)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 backend is never supported off x86_64")
        }
    }
}

/// Compresses `blocks[l]` into `states[l]` for each lane. For SIMD
/// backends the slice lengths must equal [`Backend::lanes`]; the scalar
/// backend accepts any length.
#[allow(unsafe_code)]
pub(crate) fn sha256_multiway(backend: Backend, states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    assert_eq!(states.len(), blocks.len());
    match backend {
        Backend::Scalar => {
            for (state, block) in states.iter_mut().zip(blocks.iter()) {
                crate::sha256::compress_block(state, block);
            }
        }
        Backend::Lanes4 => {
            assert_eq!(states.len(), 4);
            #[cfg(target_arch = "x86_64")]
            // SAFETY: sse2 is part of the x86_64 baseline ISA.
            unsafe {
                x86::sha256_multiway_sse2(states, blocks)
            }
            #[cfg(not(target_arch = "x86_64"))]
            sha256_multiway_kernel::<P4>(states, blocks)
        }
        Backend::Avx2 => {
            assert_eq!(states.len(), 8);
            assert!(
                Backend::Avx2.is_supported(),
                "avx2 backend invoked on a host without AVX2"
            );
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assert above proves runtime AVX2 support.
            unsafe {
                x86::sha256_multiway_avx2(states, blocks)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 backend is never supported off x86_64")
        }
    }
}

/// How many 64-bit lanes the Poly1305 kernel runs on `backend`: half the
/// backend's 32-bit lanes, and 1 — no lane code at all, the scalar
/// `Poly1305` only — on [`Backend::Scalar`].
pub(crate) fn poly1305_lanes(backend: Backend) -> usize {
    match backend {
        Backend::Scalar => 1,
        Backend::Lanes4 | Backend::Avx2 => backend.lanes() / 2,
    }
}

/// Runs [`poly1305_kernel`] on `backend`'s registers: `steps` steps over
/// the first [`poly1305_lanes`] lanes of `h` under `rows`. Callers come
/// here only with a vector backend (`poly1305_lanes(backend) > 1`).
#[allow(unsafe_code)]
pub(crate) fn poly1305_steps(
    backend: Backend,
    h: &mut Limbs26,
    rows: &Limbs26,
    steps: usize,
    block: impl Fn(usize, usize) -> [u8; 16],
) {
    match backend {
        Backend::Scalar => unreachable!("the scalar backend runs no lane code"),
        Backend::Lanes4 => {
            #[cfg(target_arch = "x86_64")]
            x86::poly1305_sse2(h, rows, steps, block);
            #[cfg(not(target_arch = "x86_64"))]
            poly1305_kernel::<P2>(h, rows, steps, block)
        }
        Backend::Avx2 => {
            assert!(
                Backend::Avx2.is_supported(),
                "avx2 backend invoked on a host without AVX2"
            );
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assert above proves runtime AVX2 support.
            unsafe {
                x86::poly1305_avx2(h, rows, steps, block)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 backend is never supported off x86_64")
        }
    }
}

/// XORs up to 64 keystream bytes into `dst` in `u64` words (the
/// optimizer widens the pair of word loads/stores to vector ops), with a
/// byte tail for non-multiple-of-8 payload ends.
#[inline(always)]
pub(crate) fn xor_keystream(dst: &mut [u8], ks: &[u8; 64]) {
    let words = dst.len() / 8;
    for i in 0..words {
        let off = i * 8;
        let v = u64::from_ne_bytes(dst[off..off + 8].try_into().expect("fixed"))
            ^ u64::from_ne_bytes(ks[off..off + 8].try_into().expect("fixed"));
        dst[off..off + 8].copy_from_slice(&v.to_ne_bytes());
    }
    for i in words * 8..dst.len() {
        dst[i] ^= ks[i];
    }
}

/// A partial lane group of at least this many blocks runs on the vector
/// kernel, padded to its width; a smaller one is scalar blocks. A kernel
/// pass costs about two scalar blocks on both vector backends (measured:
/// 190–225 ns against 87–118 ns), so two real blocks are a wash — and
/// left scalar, a fleet whose runs are single frames never touches the
/// wide registers at all.
const PAD_FROM: usize = 3;

/// Message bytes from which `Poly1305::update_wide` runs a message's
/// whole blocks strided through the lanes; a shorter one is scalar
/// blocks. Striding costs a fixed ~60 ns (three scalar multiplications
/// for the powers of `r`, the radix conversions, two kernel entries), so
/// it has a break-even. Measured, one AEAD tag, scalar → 2 lanes (SSE2) /
/// 4 lanes (AVX2), ns: 256 B 144 → 156 / 141; 288 B 163 → 158 / 161;
/// 320 B 183 → 175 / 161; 384 B 229 → 209 / 174; 1 400 B 802 → 549 /
/// 391; 4 096 B 2 102 → 1 295 / 762. Both widths tie between 256 and
/// 304 B and win from 320.
pub(crate) const POLY_STRIDED_FROM: usize = 320;

/// A partial Poly1305 lane group of at least this many equal-shape frames
/// runs the across-frames pass, padded to its width; a smaller one is
/// MACs of their own. A pass costs the same whatever it holds, so on four
/// lanes three frames still win and two do not. Measured, ns per frame,
/// a MAC of its own → a pass of 4 / 3 / 2 (AVX2): 64 B 50 → 32 / 39 / 57;
/// 256 B 148 → 65 / 83 / 119; 1 400 B 381 (strided) → 273 / 364 / 539.
/// On two lanes (SSE2) only a full group ever passes; it wins from 128 B
/// (81 → 72; 1 400 B 537 → 485) and is a wash at 64 B (50 → 53).
pub(crate) const POLY_PAD_FROM: usize = 3;

/// The one keystream scheduler. `units` are 64-byte block requests under
/// one key, each with a caller's tag saying where its keystream goes;
/// they fill a stack group of lanes in order, every full group is one
/// kernel pass, and `sink` receives each block with its tag, in order.
/// Every user — `encrypt` / `decrypt` / `decrypt_batch` through
/// [`chacha20_xor_jobs`], the one-time keys of `verify_batch`, the fused
/// `seal` — comes through here, and what happens to the last group when
/// it is *not* full is decided here and nowhere else:
///
/// * `extra` are blocks the caller could use but does not need. They are
///   drawn only to top up lanes the last group would otherwise pad —
///   never to start a group, and not at all when nothing is pending;
/// * [`PAD_FROM`] or more blocks then run on the kernel, the pad lanes
///   repeating the last real job (so nothing is computed, and no counter
///   advanced, that nobody asked for); fewer are scalar blocks.
///
/// Nothing is allocated. The working arrays are locals of this function,
/// not fields of a scheduler object, on purpose: the kernels take them by
/// pointer, and an object they pointed into would pin its fill count in
/// memory too (measured: +12 % on a 16-frame `decrypt_batch`).
#[inline(always)]
pub(crate) fn chacha_units<T: Copy + Default>(
    backend: Backend,
    key: &[u8; CHACHA_KEY_LEN],
    units: impl Iterator<Item = (BlockJob, T)>,
    extra: impl Iterator<Item = (BlockJob, T)>,
    mut sink: impl FnMut(T, &[u8; 64]),
) {
    let lanes = backend.lanes();
    let mut jobs = [(0u32, [0u8; CHACHA_NONCE_LEN]); MAX_LANES];
    let mut tags = [T::default(); MAX_LANES];
    let mut ks = [[0u8; 64]; MAX_LANES];
    let mut filled = 0;
    for (job, tag) in units {
        jobs[filled] = job;
        tags[filled] = tag;
        filled += 1;
        if filled == lanes {
            chacha_blocks(backend, key, &jobs[..lanes], &mut ks[..lanes]);
            for (tag, block) in tags[..lanes].iter().zip(&ks) {
                sink(*tag, block);
            }
            filled = 0;
        }
    }
    if filled == 0 {
        return;
    }
    for (job, tag) in extra.take(lanes - filled) {
        jobs[filled] = job;
        tags[filled] = tag;
        filled += 1;
    }
    if filled >= PAD_FROM {
        let last = jobs[filled - 1];
        jobs[filled..lanes].fill(last);
        chacha_blocks(backend, key, &jobs[..lanes], &mut ks[..lanes]);
        for (tag, block) in tags[..filled].iter().zip(&ks) {
            sink(*tag, block);
        }
    } else {
        for (tag, job) in tags[..filled].iter().zip(&jobs) {
            sink(*tag, &chacha20_block(key, job.0, &job.1));
        }
    }
}

/// XORs the ChaCha20 keystream into several disjoint regions of `buf`,
/// one `(nonce, start counter, byte range)` job per region, batching
/// 64-byte blocks *across* jobs so small packets still fill every lane;
/// one job is the same-key multi-block mode `encrypt` / `decrypt` run on
/// a single payload. Byte-identical to running [`chacha20_xor`] per job,
/// including the counter-overflow panic. The jobs stream through
/// [`chacha_units`]: nothing is allocated.
pub(crate) fn chacha20_xor_jobs(
    backend: Backend,
    key: &[u8; CHACHA_KEY_LEN],
    buf: &mut [u8],
    jobs: impl Iterator<Item = ([u8; CHACHA_NONCE_LEN], u32, Range<usize>)>,
) {
    if backend.lanes() == 1 {
        for (nonce, counter, range) in jobs {
            chacha20_xor(key, counter, &nonce, &mut buf[range]);
        }
        return;
    }
    // Every job is cut into 64-byte keystream units tagged with their
    // span of `buf`. Like `chacha20_xor`, a job may not end on the last
    // counter: the one after each unit must exist.
    let units = jobs.flat_map(|(nonce, counter, range)| {
        let end = range.end;
        range.step_by(64).zip(1u32..).map(move |(off, nth)| {
            let after = counter.checked_add(nth);
            let ctr = after.expect("chacha20 counter overflow") - 1;
            ((ctr, nonce), (off, (end - off).min(64)))
        })
    });
    chacha_units(
        backend,
        key,
        units,
        std::iter::empty(),
        |(off, len), block| xor_keystream(&mut buf[off..off + len], block),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Sha256;

    fn supported_simd_backends() -> Vec<Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| *b != Backend::Scalar && b.is_supported())
            .collect()
    }

    /// Deterministic xorshift for test data — no RNG dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn fill(state: &mut u64, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = (xorshift(state) & 0xff) as u8;
        }
    }

    #[test]
    fn chacha_blocks_matches_scalar_rfc_vector_in_every_lane() {
        // The RFC 8439 §2.3.2 block, placed in each lane position with
        // differing jobs in the other lanes.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let mut rfc_nonce = [0u8; 12];
        rfc_nonce[3] = 0x09;
        rfc_nonce[7] = 0x4a;
        let expect = chacha20_block(&key, 1, &rfc_nonce);
        for backend in supported_simd_backends() {
            let lanes = backend.lanes();
            for pos in 0..lanes {
                let mut jobs = Vec::new();
                for l in 0..lanes {
                    if l == pos {
                        jobs.push((1u32, rfc_nonce));
                    } else {
                        jobs.push((l as u32 * 7 + 2, [l as u8; 12]));
                    }
                }
                let mut out = vec![[0u8; 64]; lanes];
                chacha_blocks(backend, &key, &jobs, &mut out);
                assert_eq!(out[pos], expect, "{backend} lane {pos}");
                for (l, job) in jobs.iter().enumerate() {
                    let scalar = chacha20_block(&key, job.0, &job.1);
                    assert_eq!(out[l], scalar, "{backend} lane {l}");
                }
            }
        }
    }

    #[test]
    fn portable_kernel_matches_scalar() {
        // The portable fallback is dead code on x86_64 production
        // builds; keep it honest here regardless of host ISA.
        let key = [0x42u8; 32];
        let jobs: Vec<BlockJob> = (0..4)
            .map(|l| (l as u32 + 1, [l as u8 ^ 0x5a; 12]))
            .collect();
        let mut out = [[0u8; 64]; 4];
        chacha_blocks_kernel::<P4>(&key, &jobs, &mut out);
        for (l, job) in jobs.iter().enumerate() {
            assert_eq!(out[l], chacha20_block(&key, job.0, &job.1), "lane {l}");
        }
        let mut states = [[0u32; 8]; 4];
        let mut blocks = [[0u8; 64]; 4];
        let mut seed = 99u64;
        for l in 0..4 {
            states[l] = Sha256::new().state_words();
            fill(&mut seed, &mut blocks[l]);
        }
        let mut expect = states;
        for l in 0..4 {
            crate::sha256::compress_block(&mut expect[l], &blocks[l]);
        }
        sha256_multiway_kernel::<P4>(&mut states, &blocks);
        assert_eq!(states, expect);
        let run =
            |h: &mut Limbs26, rows: &Limbs26, steps, block: &dyn Fn(usize, usize) -> [u8; 16]| {
                poly1305_kernel::<P2>(h, rows, steps, block)
            };
        for steps in [1usize, 2, 9] {
            let per_lane = [poly_lane(&mut seed, steps), poly_lane(&mut seed, steps)];
            assert_poly_steps_match_scalar(run, 2, &per_lane, &format!("portable {steps} steps"));
        }
    }

    /// The value of five radix-2²⁶ limbs (any size) mod 2¹³⁰ − 5, by the
    /// crate's bignum: two accumulators are the same number iff these are
    /// equal, whatever their carries look like.
    fn poly_value(limbs: [u64; 5]) -> crate::bignum::BigUint {
        use crate::bignum::BigUint;
        let p = BigUint::from_hex("3fffffffffffffffffffffffffffffffb");
        let mut sum = BigUint::zero();
        for limb in limbs.iter().rev() {
            for _ in 0..26 {
                sum = sum.shl1();
            }
            sum = sum.add(&BigUint::from_u64(*limb));
        }
        sum.rem(&p)
    }

    /// One lane of a kernel test: multiplier bytes (clamped by the
    /// oracle), starting accumulator limbs, blocks to absorb.
    type PolyLane = ([u8; 16], [u64; 5], Vec<[u8; 16]>);

    /// Runs `steps` kernel steps with `(r, h, blocks)` per lane and checks
    /// every lane against the scalar `Poly1305::block` chain.
    fn assert_poly_steps_match_scalar(
        run: impl Fn(&mut Limbs26, &Limbs26, usize, &dyn Fn(usize, usize) -> [u8; 16]),
        lanes: usize,
        per_lane: &[PolyLane],
        at: &str,
    ) {
        let steps = per_lane[0].2.len();
        let (mut h, mut rows) = ([[0u64; POLY_MAX_LANES]; 5], [[0u64; POLY_MAX_LANES]; 5]);
        let mut expect = Vec::new();
        for (l, (r, start, blocks)) in per_lane.iter().enumerate() {
            let (after, row) = crate::poly1305::Poly1305::scalar_blocks(r, *start, blocks);
            for i in 0..5 {
                h[i][l] = start[i];
                rows[i][l] = row[i];
            }
            expect.push(after);
        }
        run(&mut h, &rows, steps, &|step, l| per_lane[l].2[step]);
        for l in 0..lanes {
            let got = h.map(|limb| limb[l]);
            assert_eq!(poly_value(got), poly_value(expect[l]), "{at} lane {l}");
            // And the bound the next step relies on.
            assert!(
                got.iter().all(|&x| x <= (1 << 26) + (1 << 12)),
                "{at} lane {l}: {got:x?}"
            );
        }
    }

    fn poly_lane(seed: &mut u64, steps: usize) -> PolyLane {
        let mut r = [0u8; 16];
        fill(seed, &mut r);
        let h = [0u64; 5].map(|_| xorshift(seed) & MASK26);
        let mut blocks = vec![[0u8; 16]; steps];
        for b in &mut blocks {
            fill(seed, b);
        }
        (r, h, blocks)
    }

    #[test]
    fn poly1305_kernel_matches_scalar_block_chains_in_every_lane() {
        let mut seed = 0x0123_4567_89ab_cdefu64;
        for backend in supported_simd_backends() {
            let lanes = poly1305_lanes(backend);
            let run = |h: &mut Limbs26,
                       rows: &Limbs26,
                       steps,
                       block: &dyn Fn(usize, usize) -> [u8; 16]| {
                poly1305_steps(backend, h, rows, steps, block)
            };
            for steps in 1..=40 {
                // One stream in each lane position in turn, decoys — other
                // keys, accumulators and blocks — in the others.
                let stream = poly_lane(&mut seed, steps);
                for pos in 0..lanes {
                    let per_lane: Vec<_> = (0..lanes)
                        .map(|l| {
                            if l == pos {
                                stream.clone()
                            } else {
                                poly_lane(&mut seed, steps)
                            }
                        })
                        .collect();
                    let at = format!("{backend} {steps} steps, stream in lane {pos}");
                    assert_poly_steps_match_scalar(run, lanes, &per_lane, &at);
                }
            }
        }
    }

    #[test]
    fn poly1305_kernel_holds_at_the_limb_edges() {
        // Multipliers 0, 1, 2 and the clamp maximum
        // 0ffffffc0ffffffc0ffffffc0fffffff (all-ones bytes, clamped);
        // accumulators 0, p − 1, every limb at the kernel's entry bound,
        // and every limb all-ones; blocks all 0xff, all zero, and the
        // A.3 #10 blocks that end on a 2¹³⁰ carry.
        let small = |x: u8| {
            let mut r = [0u8; 16];
            r[0] = x;
            r
        };
        let multipliers = [small(0), small(1), small(2), [0xff; 16]];
        let m26 = MASK26;
        let accumulators = [
            [0u64; 5],
            [m26 - 5, m26, m26, m26, m26],
            [(1 << 26) + (1 << 12); 5],
            [m26; 5],
        ];
        let a3 =
            |hex: &str| -> [u8; 16] { crate::sha256::from_hex(hex).unwrap().try_into().unwrap() };
        let chains = [
            vec![[0xffu8; 16]; 8],
            vec![[0u8; 16]; 3],
            vec![
                a3("e33594d7505e43b90000000000000000"),
                a3("3394d7505e4379cd0100000000000000"),
                a3("00000000000000000000000000000000"),
                a3("01000000000000000000000000000000"),
            ],
        ];
        for backend in supported_simd_backends() {
            let lanes = poly1305_lanes(backend);
            let run = |h: &mut Limbs26,
                       rows: &Limbs26,
                       steps,
                       block: &dyn Fn(usize, usize) -> [u8; 16]| {
                poly1305_steps(backend, h, rows, steps, block)
            };
            for (ci, chain) in chains.iter().enumerate() {
                for (ri, _) in multipliers.iter().enumerate() {
                    for (ai, _) in accumulators.iter().enumerate() {
                        // Lane l takes the (l + ri)-th multiplier and the
                        // (l + ai)-th accumulator: every pair meets in
                        // every lane.
                        let per_lane: Vec<_> = (0..lanes)
                            .map(|l| {
                                (
                                    multipliers[(l + ri) % 4],
                                    accumulators[(l + ai) % 4],
                                    chain.clone(),
                                )
                            })
                            .collect();
                        let at = format!("{backend} chain {ci} multiplier {ri} accumulator {ai}");
                        assert_poly_steps_match_scalar(run, lanes, &per_lane, &at);
                    }
                }
            }
        }
    }

    #[test]
    fn sha256_multiway_matches_scalar_compression() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        for backend in supported_simd_backends() {
            let lanes = backend.lanes();
            for _round in 0..16 {
                let mut states = vec![[0u32; 8]; lanes];
                let mut blocks = vec![[0u8; 64]; lanes];
                for l in 0..lanes {
                    // Start from the real IV and from random chain values.
                    if l % 2 == 0 {
                        states[l] = Sha256::new().state_words();
                    } else {
                        for w in states[l].iter_mut() {
                            *w = xorshift(&mut seed) as u32;
                        }
                    }
                    fill(&mut seed, &mut blocks[l]);
                }
                let mut expect = states.clone();
                for l in 0..lanes {
                    crate::sha256::compress_block(&mut expect[l], &blocks[l]);
                }
                sha256_multiway(backend, &mut states, &blocks);
                assert_eq!(states, expect, "{backend}");
            }
        }
    }

    #[test]
    fn xor_backend_matches_scalar_for_all_sizes() {
        let key = [0x31u8; 32];
        let nonce = [0x77u8; 12];
        let mut seed = 7u64;
        for backend in supported_simd_backends() {
            for len in [0usize, 1, 63, 64, 65, 128, 257, 512, 513, 1400, 4096, 4097] {
                let mut data = vec![0u8; len];
                fill(&mut seed, &mut data);
                let mut expect = data.clone();
                chacha20_xor(&key, 1, &nonce, &mut expect);
                let whole = 0..data.len();
                chacha20_xor_jobs(backend, &key, &mut data, [(nonce, 1, whole)].into_iter());
                assert_eq!(data, expect, "{backend} len {len}");
            }
        }
    }

    /// Packs `sizes` back to back into one buffer, one job each with its
    /// own nonce and start counter, and checks `chacha20_xor_jobs`
    /// against the scalar oracle run per job.
    fn assert_xor_jobs_match_scalar(backend: Backend, sizes: &[usize], seed: &mut u64) {
        let key = [0x09u8; 32];
        let mut buf = vec![0u8; sizes.iter().sum()];
        fill(seed, &mut buf);
        let mut jobs = Vec::new();
        let mut off = 0;
        for (i, len) in sizes.iter().enumerate() {
            jobs.push(([i as u8; 12], 1u32 + i as u32, off..off + len));
            off += len;
        }
        let mut expect = buf.clone();
        for (nonce, counter, range) in &jobs {
            chacha20_xor(&key, *counter, nonce, &mut expect[range.clone()]);
        }
        chacha20_xor_jobs(backend, &key, &mut buf, jobs.into_iter());
        assert_eq!(buf, expect, "{backend} sizes {sizes:?}");
    }

    #[test]
    fn xor_jobs_matches_scalar_per_job() {
        let mut seed = 1234u64;
        for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
            // Mixed job sizes across several nonces/counters, all packed
            // into one buffer.
            let sizes = [0usize, 1, 63, 64, 65, 130, 1400, 64, 64, 64, 64];
            assert_xor_jobs_match_scalar(backend, &sizes, &mut seed);
        }
    }

    #[test]
    fn xor_jobs_matches_scalar_when_jobs_straddle_lane_groups() {
        // The units of a job stream through one stack group of lanes, so
        // the shapes that matter are the ones where a job starts, ends or
        // vanishes in the middle of a group: every length 0..=200 (0 to 4
        // units, full and partial) in job counts around the lane widths.
        let mut seed = 0x57AD_D1E5u64;
        for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
            assert_xor_jobs_match_scalar(backend, &[], &mut seed);
            assert_xor_jobs_match_scalar(backend, &[0], &mut seed);
            for jobs in [1usize, 2, 3, 5, 7, 9, 13] {
                for first in 0..=200usize {
                    let sizes: Vec<usize> = (0..jobs).map(|j| (first + 37 * j) % 201).collect();
                    assert_xor_jobs_match_scalar(backend, &sizes, &mut seed);
                }
            }
        }
    }
}
