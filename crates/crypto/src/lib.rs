//! # reset-crypto — from-scratch primitives for the IPsec substrate
//!
//! The offline build has no cryptography crates, so the pieces IPsec needs
//! are implemented here and validated against published test vectors:
//!
//! * [`Sha256`] / [`sha256()`] — FIPS 180-4, NIST vectors.
//! * [`HmacSha256`] / [`hmac_sha256`] / [`hmac_sha256_96`] — RFC 2104 /
//!   RFC 4231 vectors; the ESP integrity check (ICV) that makes replay the
//!   *only* attack available to the adversary, exactly as the paper
//!   assumes.
//! * [`HmacKey`] — the precomputed per-SA key schedule behind the fast
//!   ICV path: the ipad/opad states are absorbed once at SA install, so
//!   each packet's MAC skips the key schedule (3 compressions instead of
//!   5 for a 64-byte payload).
//! * [`ct_eq`] — constant-time tag comparison.
//! * [`prf_plus`] — key derivation.
//! * [`chacha20_block`] / [`Poly1305`] / [`chacha20_poly1305_seal`] —
//!   RFC 8439 ChaCha20, the Poly1305 one-time MAC, and their AEAD
//!   composition, each checked against the RFC's vectors.
//! * [`BigUint`] — arbitrary-precision modular arithmetic: the oracle
//!   the Poly1305 lane kernel is checked against, and the modular
//!   exponentiation under `reset-harness`'s OAKLEY Diffie–Hellman (the
//!   IETF "renegotiate the whole SA" remedy the paper argues against).
//!
//! # Cipher suites
//!
//! [`CipherSuite`] is the pluggable transform boundary the wire codec
//! and SA datapath program against: a trait over seal/open with the
//! suite's key, IV and ICV lengths as metadata, plus an overridable
//! [`CipherSuite::verify_batch`] for amortized per-SA batch
//! verification. In-repo implementations: [`HmacSha256Suite`]
//! (HMAC-SHA-256-96 with null encryption, integrity only, with a batch
//! verifier built on [`HmacKey::mac_parts`]) and [`ChaCha20Poly1305Suite`]
//! (the RFC 8439 AEAD, the only suite that encrypts). To add a suite: implement the trait here with published
//! known-answer vectors for its primitives, then register it in
//! `reset_ipsec::CryptoSuite` so IKE can negotiate it and SAs can build
//! it from derived key material; `tests/it_suites.rs` differential-runs
//! every registered suite through the wire codec.
//!
//! # Backends
//!
//! The AEAD suite runs its bulk primitives through a [`Backend`] chosen
//! once at construction: the scalar reference path, 4-lane SSE2/portable
//! kernels, or 8-lane AVX2 kernels (see the [`suite`](CipherSuite)
//! rustdoc for the selection order and the scalar-oracle guarantee, and
//! the repo-level `ARCHITECTURE.md` for where backends sit in the crate
//! map and how to add one). The HMAC suite has no backend: SHA-256 runs
//! on the SHA extensions where the process selects them, and on the
//! scalar oracle elsewhere.
//!
//! Scope note: these implementations model *behaviour and cost* for the
//! reproduction. They are not hardened against side channels (except
//! [`ct_eq`]) and must not be lifted into production use.
//!
//! # Examples
//!
//! ```
//! use reset_crypto::{hmac_sha256_96, ct_eq};
//!
//! let key = b"sa-auth-key";
//! let packet = b"spi=1 seq=42 payload";
//! let icv = hmac_sha256_96(key, packet);
//! // The receiver recomputes and compares in constant time:
//! assert!(ct_eq(&icv, &hmac_sha256_96(key, packet)));
//! ```

// `deny`, not `forbid`: the SIMD kernels in `lanes` carry a scoped
// `allow(unsafe_code)` for `std::arch` intrinsics and register↔array
// transmutes. Everything else in the crate stays unsafe-free, and every
// unsafe block there states why it is sound in a `// SAFETY:` comment.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod aead;
mod backend;
mod bignum;
mod chacha;
mod ct;
mod hmac;
mod lanes;
mod poly1305;
mod prf;
mod sha256;
mod suite;

pub use aead::{
    chacha20_poly1305_open, chacha20_poly1305_seal, chacha20_poly1305_tag, AEAD_TAG_LEN,
};
pub use backend::{Backend, BACKEND_ENV};
pub use bignum::BigUint;
pub use chacha::{chacha20_block, chacha20_xor, CHACHA_KEY_LEN, CHACHA_NONCE_LEN};
pub use ct::ct_eq;
pub use hmac::{hmac_sha256, hmac_sha256_96, HmacKey, HmacSha256};
pub use poly1305::{poly1305, Poly1305, POLY1305_KEY_LEN, POLY1305_TAG_LEN};
pub use prf::{prf_plus, prf_plus_with};
pub use sha256::{from_hex, sha256, to_hex, Sha256, BLOCK_LEN, DIGEST_LEN};
pub use suite::{
    ChaCha20Poly1305Suite, CipherSuite, FrameToVerify, HmacSha256Suite, Icv, SealAhead,
    HMAC_ICV_LEN, MAX_ICV_LEN, MAX_IV_LEN,
};
