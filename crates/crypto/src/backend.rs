//! Crypto backend selection: scalar oracle vs. multi-lane SIMD kernels.
//!
//! Every [`crate::CipherSuite`] implementation in this crate runs its bulk
//! primitives (ChaCha20 keystream generation, SHA-256 compression) through
//! one of the backends below, chosen **once at suite construction** and
//! never re-probed on the datapath. The backend only changes *how many
//! packets (or blocks) a single pass computes* — never a single output
//! byte. [`Backend::Scalar`] is the reference implementation and the
//! differential oracle: `tests/backend_differential.rs` replays randomized
//! batch sweeps through every backend the host supports and requires
//! byte-identical verdicts, tags, and plaintexts.
//!
//! Selection order (see [`Backend::select`]; decided once per process):
//!
//! 1. the `RESET_CRYPTO_BACKEND` environment variable, if it names a
//!    backend the host supports (CI determinism knob);
//! 2. runtime feature detection — [`Backend::Avx2`] where the CPU has
//!    AVX2, else [`Backend::Lanes4`];
//! 3. [`Backend::Scalar`] as the unconditional fallback.
//!
//! Single-stream SHA-256 carries no backend: [`crate::Sha256`],
//! [`crate::HmacKey`] (`new`, `mac_parts`, `finish_outer`) and PRF+
//! follow [`Backend::select`], not a suite's forced backend. Where it is
//! not [`Backend::Scalar`] and the CPU has the SHA extensions (`sha`,
//! `ssse3`, `sse4.1`), they compress on those; otherwise on the scalar
//! body. So `RESET_CRYPTO_BACKEND=scalar` makes the whole process the
//! pure oracle, while a suite built `with_backend(Backend::Scalar)` in a
//! process that selected a vector backend hashes its HMAC frames on the
//! SHA extensions — the same bytes either way.

use core::fmt;
use std::sync::OnceLock;

/// Environment variable that forces a backend for the auto-selecting
/// suite constructors ([`Backend::select`]). Recognized values are the
/// [`Backend::name`] strings: `scalar`, `lanes4`, `avx2`. A value that
/// is unrecognized — or names a backend this host cannot run — is
/// ignored and selection falls back to runtime detection, so a fleet-wide
/// `RESET_CRYPTO_BACKEND=avx2` does not break the one legacy runner.
pub const BACKEND_ENV: &str = "RESET_CRYPTO_BACKEND";

/// How the suites compute their bulk crypto: one stream at a time, or
/// several interleaved lanes per pass.
///
/// A `Backend` is data, not capability: holding a variant does not prove
/// the host can run it. The forced suite constructors (e.g.
/// [`crate::ChaCha20Poly1305Suite::with_backend`]) panic on an
/// unsupported backend, and the crate-internal kernels re-assert support
/// before entering feature-gated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// One stream at a time; pure safe Rust; byte-for-byte the reference
    /// (“oracle”) implementation every other backend is differenced
    /// against. Always supported.
    Scalar,
    /// Four interleaved lanes per pass: SSE2 `std::arch` kernels on
    /// x86_64 (where SSE2 is part of the baseline ISA), a portable
    /// manual-lane `[u32; 4]` implementation elsewhere (which LLVM
    /// auto-vectorizes where it can). Always supported.
    Lanes4,
    /// Eight interleaved lanes per pass using AVX2 `std::arch` kernels.
    /// Supported only on x86_64 hosts whose CPU reports AVX2 at runtime.
    Avx2,
}

impl Backend {
    /// All backend variants, in preference order from weakest to
    /// strongest. Tests iterate this and skip unsupported entries.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Lanes4, Backend::Avx2];

    /// The stable lowercase name used by [`BACKEND_ENV`] and reported as
    /// the crypto backend in the benchmark of record's results.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Lanes4 => "lanes4",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a [`Backend::name`] string (as found in [`BACKEND_ENV`]).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "scalar" => Some(Backend::Scalar),
            "lanes4" => Some(Backend::Lanes4),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    /// How many independent streams one kernel pass computes.
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Lanes4 => 4,
            Backend::Avx2 => 8,
        }
    }

    /// Whether this host can run the backend. `Scalar` and `Lanes4` are
    /// always supported (`Lanes4` falls back to a portable manual-lane
    /// implementation off x86_64); `Avx2` requires runtime CPU support.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar | Backend::Lanes4 => true,
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// Picks the backend the auto-selecting suite constructors use:
    /// [`BACKEND_ENV`] override (if supported), else the strongest
    /// backend runtime detection reports, else [`Backend::Scalar`].
    ///
    /// Decided once per process, on the first call: every SA install
    /// builds a suite, and the environment lookup and feature probe
    /// behind the answer cost ~70 ns a time (2²⁰ installs on a wide
    /// fleet). [`BACKEND_ENV`] is therefore read at first use and a later
    /// change to it is not seen; forcing a backend per suite
    /// (`with_backend`) is unaffected.
    pub fn select() -> Backend {
        static SELECTED: OnceLock<Backend> = OnceLock::new();
        *SELECTED.get_or_init(Backend::detect)
    }

    /// The selection itself (see [`Backend::select`]).
    fn detect() -> Backend {
        if let Ok(name) = std::env::var(BACKEND_ENV) {
            if let Some(forced) = Backend::from_name(name.trim()) {
                if forced.is_supported() {
                    return forced;
                }
            }
        }
        if Backend::Avx2.is_supported() {
            Backend::Avx2
        } else if cfg!(target_arch = "x86_64") {
            Backend::Lanes4
        } else {
            // Portable lanes help only where LLVM vectorizes them; off
            // x86_64 we have no runtime evidence it will, so default to
            // the oracle and let RESET_CRYPTO_BACKEND opt in.
            Backend::Scalar
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("sse9"), None);
    }

    #[test]
    fn scalar_and_lanes4_always_supported() {
        assert!(Backend::Scalar.is_supported());
        assert!(Backend::Lanes4.is_supported());
    }

    #[test]
    fn select_returns_a_supported_backend() {
        assert!(Backend::select().is_supported());
    }

    #[test]
    fn lane_counts() {
        assert_eq!(Backend::Scalar.lanes(), 1);
        assert_eq!(Backend::Lanes4.lanes(), 4);
        assert_eq!(Backend::Avx2.lanes(), 8);
    }
}
