//! The pluggable cipher-suite layer: one trait over seal/open that the
//! wire codec and the SA datapath program against.
//!
//! A [`CipherSuite`] bundles everything suite-specific about an ESP
//! transform — key/IV/ICV lengths, the confidentiality transform, the
//! integrity tag, and (optionally) an amortized batch verifier. Two
//! in-repo implementations exist:
//!
//! * [`HmacSha256Suite`] — integrity only: an HMAC-SHA-256-96 ICV with
//!   null encryption (RFC 2410), so its payloads travel in the clear and
//!   are delivered without a copy. Its [`CipherSuite::verify_batch`] is
//!   one amortized HMAC per frame.
//! * [`ChaCha20Poly1305Suite`] — the AEAD, and the only suite that
//!   encrypts: RFC 8439 ChaCha20 encryption with a Poly1305 tag over the
//!   ESP header (and implicit ESN high half) as AAD.
//!
//! Per-packet nonces are derived from the 64-bit sequence number, which
//! IPsec guarantees unique per SA per direction, so neither suite
//! carries an explicit IV on the wire ([`CipherSuite::iv_len`] is 0);
//! the frame layout nevertheless honours non-zero IV lengths.
//!
//! # The backend model
//!
//! The AEAD suite runs its bulk primitives — ChaCha20 block generation
//! and the Poly1305 multiply — through a [`Backend`] fixed **once at
//! suite construction** and never re-probed on the datapath:
//!
//! * [`Backend::Scalar`] — one stream at a time, pure safe Rust; the
//!   reference implementation.
//! * [`Backend::Lanes4`] — 4 interleaved lanes (SSE2 on x86_64, a
//!   portable manual-lane fallback elsewhere).
//! * [`Backend::Avx2`] — 8 interleaved lanes (x86_64 with runtime-
//!   detected AVX2 only).
//!
//! Poly1305 rides the same registers as 64-bit lanes — two on
//! `Lanes4`, four on `Avx2`, none on `Scalar`, whose only Poly1305 is the
//! scalar MAC — in one kernel whose step is `h ← (h + m)·r` **with a
//! multiplier per lane**, filled two ways:
//!
//! * *strided, inside one message:* lane `l` holds blocks
//!   `l, l + L, l + 2L, …` of the ciphertext under `r^L` (closing with
//!   `r^(L−l)`, then the lanes are summed). `seal`, `icv`, `verify` and
//!   the odd frames of `verify_batch` take it for a ciphertext of 320
//!   bytes or more: the powers and the radix conversions cost a fixed
//!   ~60 ns, and under that length the scalar MAC is as fast.
//! * *across frames, inside `verify_batch`:* lane `l` holds frame `l`
//!   under its own one-time `r`, for `L` consecutive frames of one shape
//!   (equal AAD length, at most a block of it, and equal ciphertext
//!   length); a partial group of three still runs, padded, and a smaller
//!   one is MACs of their own. This is where runs of short frames gain. On
//!   `Lanes4` a pass is two frames: it wins from 128 B and is a wash at
//!   64 B.
//!
//! Both thresholds are constants beside the kernel (`POLY_STRIDED_FROM`,
//! `POLY_PAD_FROM` in `crate::lanes`, each with the measurement that fixed
//! it), selection reads lengths and the backend only, and the AAD, the
//! padding, the length block, the blocks past a whole lane group and
//! every finalization stay on the scalar MAC.
//!
//! A ChaCha20 lane takes its **key** per lane too: the key words are a
//! row loaded like the counter and nonce rows, so one kernel pass serves
//! as many keys as it has lanes. That is what the AEAD suite's cross-key
//! verbs are for — [`ChaCha20Poly1305Suite::verify_batch_across`] and
//! [`ChaCha20Poly1305Suite::decrypt_batch_across`], the multi-buffer
//! technique (Gueron and Krasnov, 2012) applied across flows. A receiver
//! whose frames name many SAs — a wide fleet, where each SA's run is one
//! frame — hands them a whole drain's frames, each with its own SA's
//! suite, and the lanes fill across SAs; a Poly1305 across pass needs
//! equal shapes, not equal keys. The single-key `verify_batch` /
//! `decrypt_batch` are those verbs with one key in every lane: one
//! scheduler, no second path. A cross-key call runs on its first suite's
//! backend, which changes no byte.
//!
//! The HMAC suite has no backend and no lanes. SHA-256 chains block on
//! block, so every HMAC, batch verify included, is one single-stream
//! hash per frame ([`HmacKey::mac_parts`]) on whatever SHA-256 the
//! process selected: the SHA extensions where the CPU has them and the
//! selection below is not `scalar`, the scalar oracle otherwise. They do
//! not run on a wide hot path, as `ARCHITECTURE.md` records.
//!
//! The auto-selecting constructor ([`ChaCha20Poly1305Suite::new`]) picks
//! a backend in this order:
//!
//! 1. the `RESET_CRYPTO_BACKEND` environment variable, when it names a
//!    backend this host supports (`scalar` / `lanes4` / `avx2`) — the
//!    CI determinism knob, read once per process;
//! 2. runtime feature detection — AVX2 if the CPU has it, else 4-lane;
//! 3. scalar, unconditionally, everywhere else.
//!
//! **The scalar path is the oracle.** A backend may only change how many
//! packets (or blocks) one pass computes, never an output byte: every
//! ICV verdict, tag, ciphertext, and plaintext must be byte-identical
//! across backends. The per-lane kernel KATs in `crate::lanes`, the
//! existing suite KATs re-run per backend, and the randomized 10k-frame
//! differentials in `tests/backend_differential.rs` enforce this for
//! every backend the host supports.
//!
//! # The sealing rule
//!
//! A lane group is one kernel pass: [`Backend::lanes`] ChaCha20 blocks,
//! each with its own `(key, nonce, counter)` — one key throughout for a
//! frame's own blocks and its look-ahead, a key per frame in the
//! cross-key verbs. Every batch verb
//! fills groups across packets; where the last group cannot be filled,
//! one rule (written once, `chacha_units` in `crate::lanes`) decides:
//! **up to half a group — four blocks on `Avx2`, two on `Lanes4` — runs
//! on the row kernel, one block per four lanes; more run on the column
//! kernel, padded to its width.** A row pass costs about one scalar
//! block: measured on AVX2, two blocks 125–138 ns and four 168–178 ns
//! against 274–330 ns for two scalar blocks and 278–296 ns for a padded
//! 8-lane pass (`ROW_MAX` in `crate::lanes` has both widths). No vector
//! backend computes a scalar block. `encrypt` / `decrypt` /
//! `decrypt_batch` pad by repeating their last real block (nothing they
//! did not ask for is computed).
//!
//! [`CipherSuite::seal`] has something better to put in those lanes. A
//! sender knows its future — `s := s + 1` per message — so the nonce of
//! the *next* frame is known before its payload exists. The AEAD suite's
//! `seal` sends counter 0 (the Poly1305 one-time key) and counters
//! `1..=n` (the payload keystream) of its frame through the lanes
//! together, and the lanes its last group would pad compute the lowest
//! counters of the sequence numbers that follow — `(seq + 1, 0)`,
//! `(seq + 1, 1)`, … "the next frames look like this one" — into a
//! [`SealAhead`], at most one group of blocks (blocks offered this way
//! are real blocks: a group they top up is a full column pass, and only
//! a group they cannot fill meets the rule above). It bets only on a
//! run:
//! the look-ahead remembers the sequence number it sealed last, and a
//! frame is computed ahead for only when it follows that number by one —
//! a first send's group meets the rule above like everyone else's (a
//! 64-byte frame's counters 0 and 1 are one row pass), computes nothing
//! it may not use and copies nothing. The next `seal` first
//! takes the blocks cached under its exact `(seq, counter)`, computes
//! only what is missing, and forgets whatever was cached at or before its
//! own sequence number: a block is used at most once, a leap simply
//! misses, and a guess about a frame that turns out shorter, longer or
//! never sent costs nothing but the lanes that were spare anyway. On a
//! run of 64-byte frames that is, from the second frame on, one 8-lane
//! pass per four frames instead of a row pass per frame.
//!
//! The look-ahead changes no byte: a cached block is the same pure
//! function of `(key, seq, counter)` it would be if computed on demand,
//! which is why it must never be offered to another key ([`SealAhead`]
//! states the lender's side of that). The scalar backend seals by the
//! trait default — `encrypt`, then `icv` — and stays the oracle:
//! `tests/backend_differential.rs` drives 12k seals per backend through
//! one carried look-ahead (three keys, leaps, fall-backs, clears, every
//! block and group edge) against exactly that pair.
//!
//! Forcing a backend (tests, benches, the differential oracle) bypasses
//! selection entirely:
//!
//! ```
//! use reset_crypto::{Backend, ChaCha20Poly1305Suite, CipherSuite};
//!
//! let key = [7u8; 32];
//! // The scalar oracle, regardless of host features or environment:
//! let oracle = ChaCha20Poly1305Suite::new(key).with_backend(Backend::Scalar);
//! assert_eq!(oracle.backend(), Backend::Scalar);
//! // The strongest backend this host supports (panics if forced to an
//! // unsupported one, so probe with `Backend::is_supported` first):
//! let best = Backend::ALL.into_iter().rev().find(|b| b.is_supported()).unwrap();
//! let fast = ChaCha20Poly1305Suite::new(key).with_backend(best);
//!
//! let mut a = *b"one hundred and twenty-eight bytes of payload ..........";
//! let mut b = a;
//! oracle.encrypt(5, &mut a);
//! fast.encrypt(5, &mut b);
//! assert_eq!(a, b, "backends are byte-identical");
//! ```

use crate::aead::{poly1305_aead_tag, poly1305_aead_tags_across, AEAD_TAG_LEN};
use crate::backend::Backend;
use crate::chacha::{chacha20_block, CHACHA_KEY_LEN, CHACHA_NONCE_LEN};
use crate::ct::ct_eq;
use crate::hmac::HmacKey;
use crate::lanes::{
    chacha20_xor_jobs, chacha_units, poly1305_lanes, xor_block, MAX_LANES, POLY_MAX_LANES,
    POLY_PAD_FROM,
};
use crate::sha256::DIGEST_LEN;
use core::ops::Range;

/// The largest ICV any in-repo suite emits (the Poly1305 tag).
pub const MAX_ICV_LEN: usize = 16;

/// The largest explicit IV the wire codec will stage on the stack.
pub const MAX_IV_LEN: usize = 16;

/// An integrity check value as produced by a suite: a fixed-capacity
/// inline buffer, so the datapath never allocates for tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Icv {
    len: usize,
    bytes: [u8; MAX_ICV_LEN],
}

impl Icv {
    /// Wraps `tag` (at most [`MAX_ICV_LEN`] bytes).
    ///
    /// # Panics
    ///
    /// Panics if `tag` exceeds the inline capacity.
    pub fn new(tag: &[u8]) -> Self {
        assert!(tag.len() <= MAX_ICV_LEN, "ICV too long");
        let mut bytes = [0u8; MAX_ICV_LEN];
        bytes[..tag.len()].copy_from_slice(tag);
        Icv {
            len: tag.len(),
            bytes,
        }
    }
}

impl std::ops::Deref for Icv {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// One parsed frame submitted to [`CipherSuite::verify`] /
/// [`CipherSuite::verify_batch`]: the authenticated regions plus the
/// ICV to compare against. All slices borrow from the wire buffer.
#[derive(Debug, Clone, Copy)]
pub struct FrameToVerify<'a> {
    /// Full 64-bit sequence number (nonce input for AEAD suites).
    pub seq: u64,
    /// The ESP header bytes (SPI, low sequence, length).
    pub header: &'a [u8],
    /// The (still-encrypted) payload bytes.
    pub ciphertext: &'a [u8],
    /// ESN high half when the SA runs extended sequence numbers; it is
    /// authenticated as if appended to the packet (RFC 4304).
    pub esn_hi: Option<u32>,
    /// The ICV carried on the wire.
    pub icv: &'a [u8],
}

/// The send look-ahead: keystream blocks a [`CipherSuite::seal`] computed
/// in lanes its own frame left spare, kept for the frames that follow it
/// (module docs, "The sealing rule"). At most one lane group of blocks,
/// inline — about 0.6 KB, no heap.
///
/// A cached block is keystream, so it lives and dies with its key: the
/// owner lends one look-ahead to one key at a time and calls
/// [`SealAhead::clear`] before lending it to another (or when the key is
/// replaced, removed or lost). A call-local `SealAhead::default()` is the
/// standalone form: nothing carries over, nothing can go stale.
pub struct SealAhead {
    /// `(seq, block counter)` of each cached block; the first `len` live.
    tags: [(u64, u32); MAX_LANES],
    blocks: [[u8; 64]; MAX_LANES],
    len: usize,
    /// The sequence number sealed last through this look-ahead: two in a
    /// row are a run, and only a run is worth computing ahead for.
    last: Option<u64>,
    /// Whether `blocks` has held keystream since it was last overwritten.
    used: bool,
}

impl Default for SealAhead {
    fn default() -> Self {
        SealAhead {
            tags: [(0, 0); MAX_LANES],
            blocks: [[0; 64]; MAX_LANES],
            len: 0,
            last: None,
            used: false,
        }
    }
}

/// Reports how much is cached and never what: the blocks are keystream.
impl std::fmt::Debug for SealAhead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealAhead")
            .field("cached", &self.len)
            .finish()
    }
}

impl SealAhead {
    /// Drops every cached block, overwriting the storage if it ever held
    /// one, and forgets the run: the next seal starts from nothing.
    pub fn clear(&mut self) {
        if self.used {
            self.blocks = [[0; 64]; MAX_LANES];
            self.used = false;
        }
        self.len = 0;
        self.last = None;
    }

    /// Notes that `seq` is being sealed; true iff the seal before it was
    /// for `seq - 1` — the sender is in a run, and the next frame's
    /// sequence number is worth betting spare lanes on.
    fn in_run(&mut self, seq: u64) -> bool {
        let before = self.last.replace(seq);
        before.is_some_and(|last| last.checked_add(1) == Some(seq))
    }

    /// Hands the blocks cached for counters `..blocks` of `seq` to
    /// `place` and forgets everything at or before `seq`: a block is used
    /// at most once, and a sequence number that has passed is never sent
    /// again. Returns the counters placed, as a bit mask.
    fn take(&mut self, seq: u64, blocks: u32, mut place: impl FnMut(u32, &[u8; 64])) -> u32 {
        let (mut have, mut kept) = (0, 0);
        for i in 0..self.len {
            let (s, ctr) = self.tags[i];
            if s > seq {
                self.tags[kept] = self.tags[i];
                self.blocks[kept] = self.blocks[i];
                kept += 1;
            } else if s == seq && ctr < blocks.min(u32::BITS) && have & (1 << ctr) == 0 {
                // (Never twice: a second XOR would undo the first.)
                place(ctr, &self.blocks[i]);
                have |= 1 << ctr;
            }
        }
        self.len = kept;
        have
    }

    fn holds(&self, seq: u64, ctr: u32) -> bool {
        self.tags[..self.len].contains(&(seq, ctr))
    }

    fn room(&self) -> usize {
        MAX_LANES - self.len
    }

    fn push(&mut self, seq: u64, ctr: u32, block: &[u8; 64]) {
        self.tags[self.len] = (seq, ctr);
        self.blocks[self.len] = *block;
        self.len += 1;
        self.used = true;
    }
}

/// A pluggable ESP transform: confidentiality + integrity + layout
/// metadata, dispatched dynamically by the wire codec and the SA.
///
/// # Adding a suite
///
/// Implement the trait (see `crates/crypto/src/suite.rs` for the two
/// in-repo examples), give [`crate::CipherSuite::icv_len`] its tag
/// size, and wire an enum variant + key derivation into
/// `reset_ipsec::CryptoSuite`. The known-answer and differential tests
/// in `crates/crypto` and `tests/it_suites.rs` are the gate: a new
/// suite needs published vectors for its primitives and a
/// batch-vs-sequential differential run before the datapath may use it.
pub trait CipherSuite {
    /// Human-readable suite name (reports, benches).
    fn name(&self) -> &'static str;

    /// Bytes of key material the suite consumes.
    fn key_len(&self) -> usize;

    /// Explicit per-packet IV bytes carried on the wire (0 for both
    /// in-repo suites: their nonces derive from the sequence number).
    fn iv_len(&self) -> usize {
        0
    }

    /// ICV/tag bytes appended to each frame.
    fn icv_len(&self) -> usize;

    /// Writes the explicit per-packet IV (only called when
    /// [`CipherSuite::iv_len`] is non-zero; `iv` has exactly that
    /// length, at most [`MAX_IV_LEN`]). The default derives the IV from
    /// the sequence number, big-endian in the trailing bytes — the
    /// counter-style explicit IV shape.
    fn fill_iv(&self, seq: u64, iv: &mut [u8]) {
        let n = iv.len().min(8);
        let start = iv.len() - n;
        iv[..start].fill(0);
        iv[start..].copy_from_slice(&seq.to_be_bytes()[8 - n..]);
    }

    /// Whether the payload is encrypted on the wire (false for
    /// auth-only / null-encryption configurations, enabling zero-copy
    /// delivery).
    fn encrypts(&self) -> bool;

    /// Encrypts `body` in place for sequence number `seq`.
    fn encrypt(&self, seq: u64, body: &mut [u8]);

    /// Decrypts `body` in place. Callers must have verified the ICV
    /// first (RFC 2406 order: authenticate, then window, then decrypt).
    fn decrypt(&self, seq: u64, body: &mut [u8]);

    /// Computes the ICV over `header ‖ ciphertext ‖ esn_hi?`.
    fn icv(&self, seq: u64, header: &[u8], ciphertext: &[u8], esn_hi: Option<u32>) -> Icv;

    /// The sending half in one verb: encrypts `body` in place and returns
    /// the ICV over `header ‖ ciphertext ‖ esn_hi?` — byte for byte
    /// [`CipherSuite::encrypt`] followed by [`CipherSuite::icv`], which is
    /// the default. A suite overrides it only to amortize: `ahead` is
    /// working memory it may fill with keystream for the sequence numbers
    /// after `seq` and draw on when they come (see [`SealAhead`] for what
    /// the lender owes), never to change a byte.
    fn seal(
        &self,
        seq: u64,
        header: &[u8],
        body: &mut [u8],
        esn_hi: Option<u32>,
        ahead: &mut SealAhead,
    ) -> Icv {
        let _ = ahead;
        self.encrypt(seq, body);
        self.icv(seq, header, body, esn_hi)
    }

    /// Constant-time ICV check for one frame.
    fn verify(&self, frame: &FrameToVerify<'_>) -> bool {
        frame.icv.len() == self.icv_len()
            && ct_eq(
                frame.icv,
                &self.icv(frame.seq, frame.header, frame.ciphertext, frame.esn_hi),
            )
    }

    /// Verifies a whole batch of frames for one SA, appending one
    /// verdict per frame to `ok` (cleared first). Equivalent to calling
    /// [`CipherSuite::verify`] per frame — suites override this only to
    /// amortize, never to change results (differential-tested in
    /// `tests/it_suites.rs`).
    fn verify_batch(&self, frames: &[FrameToVerify<'_>], ok: &mut Vec<bool>) {
        ok.clear();
        ok.extend(frames.iter().map(|f| self.verify(f)));
    }

    /// Decrypts several already-verified frames that share one arena
    /// buffer: each job is `(seq, byte range)` and the ranges are
    /// disjoint. Equivalent to calling [`CipherSuite::decrypt`] per job
    /// — suites override this only to amortize (e.g. filling SIMD lanes
    /// with blocks from *different* packets), never to change results.
    fn decrypt_batch(&self, buf: &mut [u8], jobs: &[(u64, Range<usize>)]) {
        for (seq, range) in jobs {
            self.decrypt(*seq, &mut buf[range.clone()]);
        }
    }
}

/// ICV length of [`HmacSha256Suite`] (HMAC-SHA-256 truncated to 96
/// bits, the classic ESP transform).
pub const HMAC_ICV_LEN: usize = 12;

/// The integrity-only suite: HMAC-SHA-256-96 with null encryption
/// (RFC 2410), so `encrypt` and `decrypt` leave the payload as it is.
///
/// # Examples
///
/// ```
/// use reset_crypto::{CipherSuite, HmacSha256Suite};
///
/// let suite = HmacSha256Suite::auth_only(b"auth-key");
/// assert!(!suite.encrypts());
/// let icv = suite.icv(7, b"header", b"payload", None);
/// assert_eq!(icv.len(), suite.icv_len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmacSha256Suite {
    auth: HmacKey,
}

impl HmacSha256Suite {
    /// Integrity only (ESP with null encryption, RFC 2410 style).
    pub fn auth_only(auth_key: &[u8]) -> Self {
        HmacSha256Suite {
            auth: HmacKey::new(auth_key),
        }
    }

    fn tag(&self, header: &[u8], ciphertext: &[u8], esn_hi: Option<u32>) -> [u8; DIGEST_LEN] {
        let mut h = self.auth.begin();
        h.update(header);
        h.update(ciphertext);
        if let Some(hi) = esn_hi {
            h.update(&hi.to_be_bytes());
        }
        h.finalize()
    }
}

impl CipherSuite for HmacSha256Suite {
    fn name(&self) -> &'static str {
        "hmac-sha256-auth-only"
    }

    fn key_len(&self) -> usize {
        32
    }

    fn icv_len(&self) -> usize {
        HMAC_ICV_LEN
    }

    fn encrypts(&self) -> bool {
        false
    }

    fn encrypt(&self, _seq: u64, _body: &mut [u8]) {}

    fn decrypt(&self, _seq: u64, _body: &mut [u8]) {}

    fn icv(&self, _seq: u64, header: &[u8], ciphertext: &[u8], esn_hi: Option<u32>) -> Icv {
        Icv::new(&self.tag(header, ciphertext, esn_hi)[..HMAC_ICV_LEN])
    }

    /// The amortized batch path, built on [`HmacKey::mac_parts`]: every
    /// frame's inner hash resumes straight from the one precomputed ipad
    /// chain value through a stack block buffer, and the outer hash is
    /// the single fixed-layout compression of [`HmacKey::finish_outer`].
    /// The sequential [`CipherSuite::verify`] deliberately stays on the
    /// independent reference path (`begin`/`update`/`finalize`), so the
    /// differential tests compare genuinely distinct implementations.
    fn verify_batch(&self, frames: &[FrameToVerify<'_>], ok: &mut Vec<bool>) {
        ok.clear();
        ok.extend(frames.iter().map(|f| {
            let full = match f.esn_hi {
                Some(hi) => self
                    .auth
                    .mac_parts(&[f.header, f.ciphertext, &hi.to_be_bytes()]),
                None => self.auth.mac_parts(&[f.header, f.ciphertext]),
            };
            f.icv.len() == HMAC_ICV_LEN && ct_eq(f.icv, &full[..HMAC_ICV_LEN])
        }));
    }
}

/// The ChaCha20-Poly1305 AEAD suite (RFC 8439): ChaCha20 keystream from
/// block counter 1, Poly1305 tag keyed from block 0, ESP header (and
/// ESN high half) as AAD. The per-packet nonce is the 64-bit sequence
/// number big-endian in the low 8 nonce bytes.
///
/// # Examples
///
/// ```
/// use reset_crypto::{ChaCha20Poly1305Suite, CipherSuite};
///
/// let suite = ChaCha20Poly1305Suite::new([7u8; 32]);
/// assert_eq!(suite.icv_len(), 16);
/// let mut body = *b"secret";
/// suite.encrypt(1, &mut body);
/// let icv = suite.icv(1, b"hdr", &body, None);
/// assert!(suite.verify(&reset_crypto::FrameToVerify {
///     seq: 1,
///     header: b"hdr",
///     ciphertext: &body,
///     esn_hi: None,
///     icv: &icv,
/// }));
/// ```
#[derive(Clone)]
pub struct ChaCha20Poly1305Suite {
    key: [u8; CHACHA_KEY_LEN],
    backend: Backend,
}

/// Reports the backend and never the key.
impl std::fmt::Debug for ChaCha20Poly1305Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha20Poly1305Suite")
            .field("key", &"<redacted>")
            .field("backend", &self.backend)
            .finish()
    }
}

/// Equality is over the key only — the backend changes how the bytes
/// are computed, never what they are.
impl PartialEq for ChaCha20Poly1305Suite {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for ChaCha20Poly1305Suite {}

impl ChaCha20Poly1305Suite {
    /// A suite over the 256-bit cipher key. The backend is
    /// auto-selected (see [`Backend::select`]).
    pub fn new(key: [u8; CHACHA_KEY_LEN]) -> Self {
        ChaCha20Poly1305Suite {
            key,
            backend: Backend::select(),
        }
    }

    /// Forces a specific backend, bypassing auto-selection — tests,
    /// benches, and the scalar differential oracle use this.
    ///
    /// # Panics
    ///
    /// Panics if this host cannot run `backend`
    /// ([`Backend::is_supported`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        assert!(
            backend.is_supported(),
            "backend {backend} is not supported on this host"
        );
        self.backend = backend;
        self
    }

    /// The backend this suite computes its bulk primitives with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    fn nonce(seq: u64) -> [u8; CHACHA_NONCE_LEN] {
        let mut n = [0u8; CHACHA_NONCE_LEN];
        n[4..].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// Poly1305 over the RFC 8439 AEAD layout under the one-time key
    /// `otk` (the first half of the frame's counter-0 block); a long
    /// ciphertext goes through `backend`'s lanes strided.
    fn tag_with_otk(
        backend: Backend,
        otk: &[u8; 32],
        header: &[u8],
        ciphertext: &[u8],
        esn_hi: Option<u32>,
    ) -> [u8; AEAD_TAG_LEN] {
        match esn_hi {
            Some(hi) => {
                let hi = hi.to_be_bytes();
                poly1305_aead_tag(backend, otk, &[header, &hi], ciphertext)
            }
            None => poly1305_aead_tag(backend, otk, &[header], ciphertext),
        }
    }

    /// Verifies frames sealed under different keys: frame `i` of `frames`
    /// is checked under the suite it is paired with, exactly as that
    /// suite's [`CipherSuite::verify`] would, with one verdict per frame
    /// appended to `ok` (cleared first). This is the batch verify of a
    /// receiver whose frames name many SAs — a wide fleet, where each SA's
    /// run is one frame: the one-time keys of the whole list fill the
    /// ChaCha20 lanes a key per lane, and consecutive frames of one shape
    /// share a Poly1305 pass whatever their keys (module docs, "The
    /// backend model"). [`CipherSuite::verify_batch`] is this call with one
    /// suite throughout. It runs on the first suite's backend; a backend
    /// changes no verdict.
    ///
    /// # Examples
    ///
    /// ```
    /// use reset_crypto::{ChaCha20Poly1305Suite, CipherSuite, FrameToVerify};
    ///
    /// let (a, b) = (ChaCha20Poly1305Suite::new([1; 32]), ChaCha20Poly1305Suite::new([2; 32]));
    /// let mut body = *b"for b";
    /// b.encrypt(9, &mut body);
    /// let icv = b.icv(9, b"hdr", &body, None);
    /// let frame = FrameToVerify { seq: 9, header: b"hdr", ciphertext: &body, esn_hi: None, icv: &icv };
    /// let mut ok = Vec::new();
    /// ChaCha20Poly1305Suite::verify_batch_across(&[(&b, frame), (&a, frame)], &mut ok);
    /// assert_eq!(ok, [true, false], "a frame verifies under its own key only");
    /// ```
    pub fn verify_batch_across(
        frames: &[(&ChaCha20Poly1305Suite, FrameToVerify<'_>)],
        ok: &mut Vec<bool>,
    ) {
        let backend = frames
            .first()
            .map_or(Backend::Scalar, |(suite, _)| suite.backend);
        Self::verify_keyed(backend, frames.len(), |i| (frames[i].0, &frames[i].1), ok);
    }

    /// Decrypts already-verified payloads sealed under different keys, in
    /// place in one buffer: each job is `(suite, seq, byte range)`, the
    /// ranges disjoint — exactly as each job's suite's
    /// [`CipherSuite::decrypt`] would. The 64-byte keystream units of every
    /// job stream through the lanes together, a key per lane, so the short
    /// payloads of many SAs fill them. [`CipherSuite::decrypt_batch`] is
    /// this call with one suite throughout. It runs on the first job's
    /// backend; a backend changes no byte.
    pub fn decrypt_batch_across<'k>(
        buf: &mut [u8],
        jobs: impl IntoIterator<Item = (&'k ChaCha20Poly1305Suite, u64, Range<usize>)>,
    ) {
        let mut jobs = jobs.into_iter().peekable();
        let Some(&(first, ..)) = jobs.peek() else {
            return;
        };
        let jobs = jobs.map(|(suite, seq, range)| (&suite.key, Self::nonce(seq), 1, range));
        chacha20_xor_jobs(first.backend, buf, jobs);
    }

    /// The one verify scheduler, for one key or a key per frame: frame
    /// `i` of `n` is `at(i)`, under its suite's key. Every frame needs one
    /// ChaCha20 block at counter 0 (the Poly1305 one-time key), and those
    /// blocks differ only in their keys and seq-derived nonces — exactly
    /// the shape the interleaved kernel wants: each lane group of frames
    /// computes its keys in one pass (a partial tail group as
    /// `chacha_units` decides). The keys are then spent a Poly1305 lane
    /// group at a time: consecutive frames of one shape run one
    /// across-frames pass, lane `l` = frame `l` under its own key; a frame
    /// whose neighbours differ is a MAC of its own, strided through the
    /// lanes if it is long (module docs, "The backend model"). On
    /// [`Backend::Scalar`] every frame is its suite's per-frame
    /// [`CipherSuite::verify`], kept as the independent oracle path.
    fn verify_keyed<'a, 'f: 'a>(
        backend: Backend,
        n: usize,
        at: impl Fn(usize) -> (&'a Self, &'a FrameToVerify<'f>) + Copy,
        ok: &mut Vec<bool>,
    ) {
        ok.clear();
        if backend == Backend::Scalar {
            ok.extend((0..n).map(|i| {
                let (suite, frame) = at(i);
                suite.verify(frame)
            }));
            return;
        }
        ok.reserve(n);
        let lanes = poly1305_lanes(backend);
        let frame = move |i| at(i).1;
        // Keys come back in frame order, so the frames that hold a key
        // and no verdict yet are always the `waiting` just before `i`.
        let mut otks = [[0u8; 32]; POLY_MAX_LANES];
        let mut waiting = 0;
        let units = (0..n).map(|i| {
            let (suite, f) = at(i);
            ((&suite.key, 0, Self::nonce(f.seq)), i)
        });
        chacha_units(backend, units, std::iter::empty(), |i, block0| {
            if waiting > 0 && !same_shape(frame(i), frame(i - 1)) {
                verify_group(backend, frame, i - waiting..i, &otks[..waiting], ok);
                waiting = 0;
            }
            otks[waiting].copy_from_slice(&block0[..32]);
            waiting += 1;
            if waiting == lanes {
                verify_group(backend, frame, i + 1 - waiting..i + 1, &otks[..waiting], ok);
                waiting = 0;
            }
        });
        verify_group(backend, frame, n - waiting..n, &otks[..waiting], ok);
    }
}

/// Verdicts for the consecutive frames `frame(range)`, of one shape
/// ([`same_shape`]) and at most a Poly1305 lane group of them, under their
/// one-time keys: appended to `ok` in order. A full group, or a partial
/// one of at least [`POLY_PAD_FROM`], is one across-frames pass with lane
/// `l` = frame `l`; fewer frames, or AAD longer than a block, are MACs of
/// their own.
fn verify_group<'a, 'f: 'a>(
    backend: Backend,
    frame: impl Fn(usize) -> &'a FrameToVerify<'f>,
    range: Range<usize>,
    otks: &[[u8; 32]],
    ok: &mut Vec<bool>,
) {
    if range.is_empty() {
        return;
    }
    let first = frame(range.start);
    let full = range.len() == poly1305_lanes(backend);
    if aad_len(first) > 16 || !(full || range.len() >= POLY_PAD_FROM) {
        ok.extend(range.zip(otks).map(|(i, otk)| {
            let f = frame(i);
            let tag =
                ChaCha20Poly1305Suite::tag_with_otk(backend, otk, f.header, f.ciphertext, f.esn_hi);
            icv_is(f, &tag)
        }));
        return;
    }
    let mut aads = [[0u8; 16]; POLY_MAX_LANES];
    let mut ciphertexts = [&[][..]; POLY_MAX_LANES];
    for (l, i) in range.clone().enumerate() {
        let f = frame(i);
        aads[l][..f.header.len()].copy_from_slice(f.header);
        if let Some(hi) = f.esn_hi {
            aads[l][f.header.len()..][..4].copy_from_slice(&hi.to_be_bytes());
        }
        ciphertexts[l] = f.ciphertext;
    }
    let tags = poly1305_aead_tags_across(
        backend,
        otks,
        aad_len(first),
        &aads,
        &ciphertexts[..range.len()],
    );
    ok.extend(range.zip(&tags).map(|(i, tag)| icv_is(frame(i), tag)));
}

/// Whether the frame carries exactly `tag`, compared in constant time.
fn icv_is(f: &FrameToVerify<'_>, tag: &[u8; AEAD_TAG_LEN]) -> bool {
    f.icv.len() == AEAD_TAG_LEN && ct_eq(f.icv, tag)
}

/// Authenticated bytes in front of the ciphertext: the header and, on an
/// ESN SA, the four bytes of the high half.
fn aad_len(f: &FrameToVerify<'_>) -> usize {
    f.header.len() + if f.esn_hi.is_some() { 4 } else { 0 }
}

/// Whether two frames lay out the same Poly1305 blocks — equal AAD and
/// ciphertext lengths — and so can share an across-frames pass. Lengths
/// only: nothing here reads a key or a byte.
fn same_shape(a: &FrameToVerify<'_>, b: &FrameToVerify<'_>) -> bool {
    aad_len(a) == aad_len(b) && a.ciphertext.len() == b.ciphertext.len()
}

impl CipherSuite for ChaCha20Poly1305Suite {
    fn name(&self) -> &'static str {
        "chacha20-poly1305"
    }

    fn key_len(&self) -> usize {
        CHACHA_KEY_LEN
    }

    fn icv_len(&self) -> usize {
        AEAD_TAG_LEN
    }

    fn encrypts(&self) -> bool {
        true
    }

    fn encrypt(&self, seq: u64, body: &mut [u8]) {
        // One job of the batch scheduler: the lanes fill with this
        // packet's sequential block counters (the same-key multi-block
        // mode); on `Backend::Scalar` this is exactly `chacha20_xor`.
        let whole = 0..body.len();
        let job = (&self.key, Self::nonce(seq), 1, whole);
        chacha20_xor_jobs(self.backend, body, [job].into_iter());
    }

    fn decrypt(&self, seq: u64, body: &mut [u8]) {
        // Counter-mode: decryption is the same keystream XOR.
        self.encrypt(seq, body);
    }

    fn icv(&self, seq: u64, header: &[u8], ciphertext: &[u8], esn_hi: Option<u32>) -> Icv {
        let block0 = chacha20_block(&self.key, 0, &Self::nonce(seq));
        let otk = block0[..32].try_into().expect("fixed");
        Icv::new(&Self::tag_with_otk(
            self.backend,
            otk,
            header,
            ciphertext,
            esn_hi,
        ))
    }

    /// The fused seal (module docs, "The sealing rule"): counter 0 and
    /// the payload's counters go through the lanes together, blocks the
    /// look-ahead holds for exactly this `(seq, counter)` are taken
    /// instead of computed, and the lanes the last group would pad
    /// compute the lowest counters of the sequence numbers that follow.
    /// On [`Backend::Scalar`] this is the trait default, the oracle.
    fn seal(
        &self,
        seq: u64,
        header: &[u8],
        body: &mut [u8],
        esn_hi: Option<u32>,
        ahead: &mut SealAhead,
    ) -> Icv {
        if self.backend.lanes() == 1 {
            self.encrypt(seq, body);
            return self.icv(seq, header, body, esn_hi);
        }
        /// Counter 0 keys Poly1305; counter `c` covers payload block `c - 1`.
        fn place(block0: &mut [u8; 64], body: &mut [u8], ctr: u32, block: &[u8; 64]) {
            match ctr as usize {
                0 => *block0 = *block,
                c => {
                    let end = body.len().min(c * 64);
                    xor_block(&mut body[(c - 1) * 64..end], block);
                }
            }
        }
        let blocks = u32::try_from(1 + body.len().div_ceil(64)).expect("chacha20 counter overflow");
        let mut block0 = [0u8; 64];
        let in_run = ahead.in_run(seq);
        let have = ahead.take(seq, blocks, |ctr, block| {
            place(&mut block0, body, ctr, block)
        });
        if have.count_ones() < blocks {
            let cached = |ctr: u32| ctr < u32::BITS && have & (1 << ctr) != 0;
            let needed = (0..blocks).filter(|&ctr| !cached(ctr));
            // In a run the next frames look like this one: their
            // counters, lowest first, are what spare lanes compute. A
            // first send offers nothing, so it bets and copies nothing.
            let mut upcoming = [(0u64, 0u32); MAX_LANES];
            let mut offered = 0;
            if in_run {
                let next = (seq..u64::MAX)
                    .flat_map(|s| (0..blocks).map(move |ctr| (s + 1, ctr)))
                    .filter(|&(s, ctr)| !ahead.holds(s, ctr));
                for (slot, unit) in upcoming[..ahead.room()].iter_mut().zip(next) {
                    *slot = unit;
                    offered += 1;
                }
            }
            // Tagged `(seq, counter)`: this frame's blocks are placed,
            // every other sequence number's go to the look-ahead.
            let unit = |(s, ctr): (u64, u32)| ((&self.key, ctr, Self::nonce(s)), (s, ctr));
            chacha_units(
                self.backend,
                needed.map(|ctr| unit((seq, ctr))),
                upcoming[..offered].iter().copied().map(unit),
                |(s, ctr), block| {
                    if s == seq {
                        place(&mut block0, body, ctr, block);
                    } else {
                        ahead.push(s, ctr, block);
                    }
                },
            );
        }
        let otk = block0[..32].try_into().expect("fixed");
        Icv::new(&Self::tag_with_otk(self.backend, otk, header, body, esn_hi))
    }

    /// The laned batch verify, both halves of the tag: the cross-key
    /// verify ([`ChaCha20Poly1305Suite::verify_batch_across`]) with this
    /// suite's key in every lane. On [`Backend::Scalar`] it is the trait
    /// default (per-frame [`CipherSuite::verify`]), kept as the independent
    /// oracle path.
    fn verify_batch(&self, frames: &[FrameToVerify<'_>], ok: &mut Vec<bool>) {
        Self::verify_keyed(self.backend, frames.len(), |i| (self, &frames[i]), ok);
    }

    /// The laned batch decrypt: the cross-key decrypt
    /// ([`ChaCha20Poly1305Suite::decrypt_batch_across`]) with this suite's
    /// key in every lane — jobs are cut into 64-byte keystream units that
    /// stream through the lanes across packet boundaries (eight 64-byte
    /// packets decrypt in one AVX2 pass), without allocating. On
    /// [`Backend::Scalar`] it decrypts job by job, as the trait default
    /// does.
    fn decrypt_batch(&self, buf: &mut [u8], jobs: &[(u64, Range<usize>)]) {
        let jobs = jobs.iter().map(|(seq, range)| (self, *seq, range.clone()));
        Self::decrypt_batch_across(buf, jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aead::chacha20_poly1305_seal;
    use crate::hmac::hmac_sha256_96;

    fn frame<'a>(
        seq: u64,
        header: &'a [u8],
        ct: &'a [u8],
        esn_hi: Option<u32>,
        icv: &'a [u8],
    ) -> FrameToVerify<'a> {
        FrameToVerify {
            seq,
            header,
            ciphertext: ct,
            esn_hi,
            icv,
        }
    }

    #[test]
    fn hmac_suite_matches_raw_hmac_over_concatenation() {
        let suite = HmacSha256Suite::auth_only(b"auth");
        let header = b"HDRBYTES0012";
        let ct = b"ciphertext region";
        let icv = suite.icv(5, header, ct, None);
        let mut concat = header.to_vec();
        concat.extend_from_slice(ct);
        assert_eq!(&icv[..], &hmac_sha256_96(b"auth", &concat));
        // ESN high half participates like appended bytes.
        let icv_esn = suite.icv(5, header, ct, Some(3));
        concat.extend_from_slice(&3u32.to_be_bytes());
        assert_eq!(&icv_esn[..], &hmac_sha256_96(b"auth", &concat));
    }

    #[test]
    fn hmac_batch_agrees_with_sequential_including_corruption() {
        let suite = HmacSha256Suite::auth_only(b"batch-auth");
        let mut storage: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..50u64 {
            let header = vec![i as u8; 12];
            let ct: Vec<u8> = (0..(i % 7) * 9).map(|j| (i + j) as u8).collect();
            let esn = if i % 3 == 0 { Some(i as u32) } else { None };
            let mut icv = suite.icv(i, &header, &ct, esn).to_vec();
            match i % 5 {
                1 => icv[0] ^= 0x40,  // flipped tag byte
                2 => icv.truncate(8), // truncated tag
                3 => icv.push(0),     // overlong tag
                _ => {}
            }
            storage.push((header, ct, icv));
        }
        let frames: Vec<FrameToVerify<'_>> = storage
            .iter()
            .enumerate()
            .map(|(i, (h, c, t))| {
                frame(
                    i as u64,
                    h,
                    c,
                    if i % 3 == 0 { Some(i as u32) } else { None },
                    t,
                )
            })
            .collect();
        let mut batch = Vec::new();
        suite.verify_batch(&frames, &mut batch);
        let sequential: Vec<bool> = frames.iter().map(|f| suite.verify(f)).collect();
        assert_eq!(batch, sequential);
        assert!(batch.iter().any(|&b| b), "some frames verify");
        assert!(batch.iter().any(|&b| !b), "corrupted frames fail");
    }

    #[test]
    fn default_verify_batch_loops_verify() {
        // The AEAD suite uses the trait default; results must match too.
        let suite = ChaCha20Poly1305Suite::new([0x21; 32]);
        let mut bodies = Vec::new();
        for i in 0..10u64 {
            let mut body = vec![i as u8; 20];
            suite.encrypt(i, &mut body);
            let mut icv = suite.icv(i, b"h", &body, None).to_vec();
            if i == 4 {
                icv[15] ^= 1;
            }
            bodies.push((body, icv));
        }
        let frames: Vec<FrameToVerify<'_>> = bodies
            .iter()
            .enumerate()
            .map(|(i, (b, t))| frame(i as u64, b"h", b, None, t))
            .collect();
        let mut out = Vec::new();
        suite.verify_batch(&frames, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(out.iter().filter(|&&b| !b).count(), 1);
    }

    #[test]
    fn aead_suite_matches_rfc_construction() {
        // The suite's encrypt + icv must equal the validated one-shot
        // RFC 8439 seal for the same (key, nonce, aad).
        let key = [0x5Au8; 32];
        let suite = ChaCha20Poly1305Suite::new(key);
        let header = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        let seq = 0x0102_0304_0506_0708u64;
        let mut body = b"the aead payload".to_vec();
        suite.encrypt(seq, &mut body);
        let icv = suite.icv(seq, &header, &body, None);

        let mut reference = b"the aead payload".to_vec();
        let nonce = ChaCha20Poly1305Suite::nonce(seq);
        let tag = chacha20_poly1305_seal(&key, &nonce, &header, &mut reference);
        assert_eq!(body, reference);
        assert_eq!(&icv[..], &tag);
    }

    #[test]
    fn aead_esn_high_half_is_authenticated() {
        let suite = ChaCha20Poly1305Suite::new([9u8; 32]);
        let mut body = b"x".to_vec();
        suite.encrypt(1, &mut body);
        let icv = suite.icv(1, b"hdr", &body, Some(7));
        assert!(suite.verify(&frame(1, b"hdr", &body, Some(7), &icv)));
        assert!(!suite.verify(&frame(1, b"hdr", &body, Some(8), &icv)));
        assert!(!suite.verify(&frame(1, b"hdr", &body, None, &icv)));
    }

    #[test]
    fn suites_reject_each_others_tags() {
        let hmac = HmacSha256Suite::auth_only(b"k");
        let aead = ChaCha20Poly1305Suite::new([1u8; 32]);
        let body = b"payload".to_vec();
        let hmac_icv = hmac.icv(1, b"hdr", &body, None);
        let aead_icv = aead.icv(1, b"hdr", &body, None);
        assert!(!aead.verify(&frame(1, b"hdr", &body, None, &hmac_icv)));
        assert!(!hmac.verify(&frame(1, b"hdr", &body, None, &aead_icv)));
    }

    #[test]
    fn metadata_is_consistent() {
        let ha = HmacSha256Suite::auth_only(b"a");
        let cc = ChaCha20Poly1305Suite::new([0u8; 32]);
        for s in [&ha as &dyn CipherSuite, &cc] {
            assert!(s.icv_len() <= MAX_ICV_LEN, "{}", s.name());
            assert_eq!(s.iv_len(), 0, "{}", s.name());
            assert!(s.key_len() >= 32, "{}", s.name());
        }
        assert!(!ha.encrypts());
        assert!(cc.encrypts());
        assert_ne!(ha.name(), cc.name());
    }

    #[test]
    fn auth_only_encrypt_is_identity() {
        let suite = HmacSha256Suite::auth_only(b"a");
        let mut body = *b"cleartext";
        suite.encrypt(3, &mut body);
        assert_eq!(&body, b"cleartext");
    }

    #[test]
    fn encrypt_decrypt_round_trip_all_suites() {
        let suites: Vec<Box<dyn CipherSuite>> = vec![
            Box::new(HmacSha256Suite::auth_only(b"a")),
            Box::new(ChaCha20Poly1305Suite::new([3u8; 32])),
        ];
        for suite in &suites {
            for len in [0usize, 1, 63, 64, 65, 300] {
                let original: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let mut body = original.clone();
                suite.encrypt(42, &mut body);
                suite.decrypt(42, &mut body);
                assert_eq!(body, original, "{} len {len}", suite.name());
            }
        }
    }

    /// `seal` through `ahead` against the scalar suite's `encrypt` + `icv`.
    fn assert_seal_matches_oracle(
        suite: &ChaCha20Poly1305Suite,
        ahead: &mut SealAhead,
        seq: u64,
        len: usize,
    ) {
        let oracle = suite.clone().with_backend(Backend::Scalar);
        let plain: Vec<u8> = (0..len).map(|i| (i as u64 ^ seq) as u8).collect();
        let mut expect = plain.clone();
        oracle.encrypt(seq, &mut expect);
        let expect_icv = oracle.icv(seq, b"hdr-of-12-by", &expect, Some(1));
        let mut body = plain;
        let icv = suite.seal(seq, b"hdr-of-12-by", &mut body, Some(1), ahead);
        let at = format!("{} seq {seq} len {len}", suite.backend());
        assert_eq!(body, expect, "{at}");
        assert_eq!(icv, expect_icv, "{at}");
    }

    #[test]
    fn a_cached_block_is_served_once_and_only_to_its_own_sequence_number() {
        for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
            let suite = ChaCha20Poly1305Suite::new([0x6b; 32]).with_backend(backend);
            let lanes = backend.lanes();
            let mut ahead = SealAhead::default();
            // A first send bets nothing. The second in a row is a run: a
            // 64-byte frame needs counters 0 and 1, and the other lanes of
            // its one group compute the same two for the frames after it.
            assert_seal_matches_oracle(&suite, &mut ahead, 5, 64);
            assert_eq!(ahead.len, 0, "{backend}");
            assert_seal_matches_oracle(&suite, &mut ahead, 6, 64);
            let spare = if lanes == 1 { 0 } else { lanes - 2 };
            let want: Vec<(u64, u32)> = (0..spare as u64)
                .map(|i| (7 + i / 2, (i % 2) as u32))
                .collect();
            assert_eq!(&ahead.tags[..ahead.len], &want[..], "{backend}");
            // Sequence number 7 takes its two blocks out; sealing 7 again
            // finds nothing under its name and computes afresh.
            assert_seal_matches_oracle(&suite, &mut ahead, 7, 64);
            assert!(!ahead.holds(7, 0) && !ahead.holds(7, 1), "{backend}");
            assert_eq!(ahead.len, spare.saturating_sub(2), "{backend}");
            assert_seal_matches_oracle(&suite, &mut ahead, 7, 64);
            assert!(ahead.tags[..ahead.len].iter().all(|&(s, _)| s > 7));
            // A leap misses and leaves nothing of the passed numbers.
            assert_seal_matches_oracle(&suite, &mut ahead, 40, 64);
            assert!(ahead.tags[..ahead.len].iter().all(|&(s, _)| s > 40));
            ahead.clear();
            assert_eq!(ahead.len, 0);
            assert!(ahead.blocks.iter().all(|b| b == &[0; 64]), "overwritten");
        }
    }

    #[test]
    fn speculation_for_another_length_never_changes_a_byte() {
        // "The next frames look like this one" is a guess about shape:
        // when the next frame is longer it takes what was cached and
        // computes the rest; when it is shorter the surplus is dropped.
        let lens = [
            64usize, 300, 0, 1400, 1, 449, 448, 65, 2000, 64, 64, 0, 0, 129,
        ];
        for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
            let suite = ChaCha20Poly1305Suite::new([0x3c; 32]).with_backend(backend);
            let mut ahead = SealAhead::default();
            for (seq, &len) in (u32::MAX as u64 - 5..).zip(&lens) {
                assert_seal_matches_oracle(&suite, &mut ahead, seq, len);
                assert!(ahead.len <= MAX_LANES);
                assert!(ahead.tags[..ahead.len].iter().all(|&(s, _)| s > seq));
            }
        }
    }

    #[test]
    #[should_panic(expected = "ICV too long")]
    fn icv_capacity_is_enforced() {
        let _ = Icv::new(&[0u8; MAX_ICV_LEN + 1]);
    }
}
