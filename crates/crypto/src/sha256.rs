//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The offline dependency set has no crypto crates, and the IPsec
//! substrate needs a real hash for ESP integrity checks and IKE key
//! derivation, so we implement the full compression function here and
//! validate it against the NIST test vectors.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size in bytes (needed by HMAC).
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// The round constants — shared with the multi-buffer compression in
/// [`crate::lanes`], which runs the same schedule across N lanes.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use reset_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     reset_crypto::to_hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

/// Equality over the *logical* hash state: chain value, absorbed length
/// and the live prefix of the block buffer. Bytes of `buf` beyond
/// `buf_len` are stale leftovers that depend on `update` chunking
/// history and must not participate.
impl PartialEq for Sha256 {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
            && self.total_len == other.total_len
            && self.buf[..self.buf_len] == other.buf[..other.buf_len]
    }
}

impl Eq for Sha256 {}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            self.compress(block.try_into().expect("fixed"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes, producing the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit length —
        // assembled in one tail buffer and absorbed in a single update
        // (at most two compressions), not byte by byte.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[0] = 0x80;
        let zeros = if self.buf_len < 56 {
            55 - self.buf_len
        } else {
            BLOCK_LEN + 55 - self.buf_len
        };
        let tail_len = 1 + zeros + 8;
        tail[1 + zeros..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&tail[..tail_len]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        compress_block(&mut self.state, block);
    }

    /// The raw chain value — what the batch-verify fast path resumes
    /// from when it bypasses the buffered `update`/`finalize` machinery.
    pub(crate) fn state_words(&self) -> [u32; 8] {
        self.state
    }
}

/// One compression of `block` into `state`, exposed crate-internally so
/// [`crate::HmacKey::finish_outer`] can run a single precomputed-layout
/// compression without a full hasher object. [`Sha256`],
/// `HmacKey::new` / `mac_parts` / `finish_outer` and `prf_plus_with` all
/// compress here, on one of two bodies: the SHA-extensions kernel in
/// [`crate::lanes`] where the process selected it (the CPU has `sha`,
/// `ssse3` and `sse4.1`, and [`crate::Backend::select`] is not
/// [`crate::Backend::Scalar`]), else [`compress_block_scalar`]. Both give
/// the same bytes.
pub(crate) fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    if crate::lanes::sha_ext_selected() {
        crate::lanes::sha256_compress_ext(state, block)
    } else {
        compress_block_scalar(state, block)
    }
}

/// The scalar compression: pure safe Rust, the oracle every other SHA-256
/// body is differenced against.
///
/// The round loop is 2×-unrolled: two rounds per iteration with renamed
/// working variables, so the eight-way register rotation of the textbook
/// loop happens once per pair instead of once per round.
pub(crate) fn compress_block_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("fixed"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {{
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$i])
                .wrapping_add(w[$i]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        }};
    }
    for i in (0..64).step_by(2) {
        // Round i leaves the logical order (h a b c d e f g); round i+1
        // consumes it with renamed variables and leaves (g h a b c d e f).
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        let (x, y) = (g, h);
        g = e;
        h = f;
        e = c;
        f = d;
        c = a;
        d = b;
        a = x;
        b = y;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Digests the concatenation of `parts`, resuming from a chain value
/// that has `already_absorbed` bytes behind it (must be a multiple of
/// [`BLOCK_LEN`]). A stack block buffer and direct compressions replace
/// the [`Sha256`] struct's clone-and-update machinery — the per-message
/// fast path under batched HMAC verification.
pub(crate) fn digest_parts_from_state(
    mut state: [u32; 8],
    already_absorbed: u64,
    parts: &[&[u8]],
) -> [u8; DIGEST_LEN] {
    debug_assert_eq!(already_absorbed % BLOCK_LEN as u64, 0);
    let mut buf = [0u8; BLOCK_LEN];
    let mut buf_len = 0usize;
    let mut total = already_absorbed;
    for part in parts {
        let mut data = *part;
        total += data.len() as u64;
        if buf_len > 0 {
            let take = (BLOCK_LEN - buf_len).min(data.len());
            buf[buf_len..buf_len + take].copy_from_slice(&data[..take]);
            buf_len += take;
            data = &data[take..];
            if buf_len == BLOCK_LEN {
                compress_block(&mut state, &buf);
                buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            compress_block(&mut state, block.try_into().expect("fixed"));
            data = rest;
        }
        if !data.is_empty() {
            buf[..data.len()].copy_from_slice(data);
            buf_len = data.len();
        }
    }
    let bit_len = total.wrapping_mul(8);
    buf[buf_len] = 0x80;
    if buf_len + 1 > BLOCK_LEN - 8 {
        buf[buf_len + 1..].fill(0);
        compress_block(&mut state, &buf);
        buf = [0u8; BLOCK_LEN];
    } else {
        buf[buf_len + 1..BLOCK_LEN - 8].fill(0);
    }
    buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
    compress_block(&mut state, &buf);
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Renders bytes as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    s
}

/// Parses a hex string (either case, no separators) back into bytes —
/// the inverse of [`to_hex`], used to transcribe published test vectors.
/// Returns `None` on odd length or a non-hex character.
///
/// # Examples
///
/// ```
/// use reset_crypto::{from_hex, to_hex};
///
/// let bytes = from_hex("00ff0a").unwrap();
/// assert_eq!(bytes, [0x00, 0xff, 0x0a]);
/// assert_eq!(to_hex(&bytes), "00ff0a");
/// assert!(from_hex("abc").is_none()); // odd length
/// assert!(from_hex("zz").is_none()); // not hex
/// ```
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..255u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 128, 255] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundary_inputs() {
        // 55, 56, 63, 64 bytes straddle the padding edge cases.
        for n in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x61u8; n];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {n}");
        }
    }

    #[test]
    fn equality_ignores_stale_buffer_bytes() {
        // Same absorbed data through different chunkings leaves different
        // stale bytes beyond buf_len; the states are logically identical
        // and must compare equal.
        let data: Vec<u8> = (0..67u8).collect();
        let mut a = Sha256::new();
        a.update(&data[..1]);
        a.update(&data[1..64]);
        a.update(&data[64..]);
        let mut b = Sha256::new();
        b.update(&data);
        assert_eq!(a, b);
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn nist_four_block_896_bit() {
        // FIPS 180-4 long-message vector: 112 bytes, so the padding and
        // length land in an extra block (multi-block + boundary case).
        assert_eq!(
            to_hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn digest_parts_matches_incremental_hasher() {
        // Resume from the state after one absorbed block and compare
        // against the reference hasher over every chunking.
        let prefix = [0x36u8; BLOCK_LEN];
        let mut base = Sha256::new();
        base.update(&prefix);
        let tail: Vec<u8> = (0..200u8).collect();
        for split in [0usize, 1, 11, 52, 63, 64, 65, 127, 128, 200] {
            let parts: [&[u8]; 2] = [&tail[..split], &tail[split..]];
            let fast = digest_parts_from_state(base.state_words(), BLOCK_LEN as u64, &parts);
            let mut reference = base.clone();
            reference.update(&tail);
            assert_eq!(fast, reference.finalize(), "split {split}");
        }
        // Empty-parts edge: just the padding of the absorbed block.
        let fast = digest_parts_from_state(base.state_words(), BLOCK_LEN as u64, &[]);
        assert_eq!(fast, base.finalize());
    }

    #[test]
    fn to_hex_formats() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x0a]), "00ff0a");
        assert_eq!(to_hex(&[]), "");
        assert_eq!(to_hex(&[0x12, 0x34, 0xab, 0xcd]), "1234abcd");
    }

    #[test]
    fn from_hex_parses_both_cases() {
        assert_eq!(from_hex("deadBEEF").unwrap(), [0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn from_hex_rejects_malformed() {
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("0g").is_none(), "non-hex digit");
        assert!(from_hex("a b0").is_none(), "whitespace");
    }

    #[test]
    fn hex_round_trips() {
        for len in [0usize, 1, 2, 31, 32, 33, 100] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            let hex = to_hex(&bytes);
            assert_eq!(hex.len(), 2 * len);
            assert_eq!(from_hex(&hex).unwrap(), bytes, "len {len}");
        }
    }
}
