//! Simplified ISAKMP/Oakley handshake — the expensive baseline.
//!
//! The IETF remedy for a reset peer is to delete and re-establish the
//! whole SA (paper §3, citing the DPD drafts). Re-establishment runs a
//! key-management exchange: proposals, a Diffie–Hellman exchange and
//! mutual authentication — six messages in ISAKMP main mode (RFC 2408 /
//! RFC 2412, the paper's references \[8\] and \[9\]).
//!
//! This module implements a faithful *shape* of that exchange: real DH
//! over the OAKLEY groups, real PRF key derivation, real transcript
//! authentication with a pre-shared key, and an exact cost ledger
//! (messages, round trips, modular exponentiations, PRF invocations,
//! bytes). Experiment t5 compares this ledger against the SAVE/FETCH
//! recovery path, reproducing the paper's cost argument. The default
//! proposal offers every suite in [`CryptoSuite::ALL`] — the
//! ChaCha20-Poly1305 AEAD, then HMAC-SHA-256-96 with null encryption —
//! at 8 bytes a transform, so the ledger's bytes follow that list.
//!
//! None of this is on the gateway path: an SA pair negotiated here is
//! installed with `reset_ipsec::Gateway::install_pair`, and the
//! quick-mode rekey the engine runs (`reset_ipsec::rekey`) is priced by
//! [`HandshakeCost::QUICK_MODE`].

use std::fmt;

use reset_crypto::{ct_eq, hmac_sha256, prf_plus, BigUint};
use reset_ipsec::{CryptoSuite, SaKeys, SecurityAssociation};

use crate::dh::{DhGroup, DhKeyPair};

/// One ISAKMP-like message. Phase-1 main mode: SA proposal/accept, key
/// exchange with nonces, and authentication hashes.
#[derive(Debug, Clone, PartialEq)]
pub enum IkeMessage {
    /// Message 1 (I→R): offered suites + initiator cookie.
    Proposal {
        /// Offered transforms, in preference order.
        suites: Vec<CryptoSuite>,
        /// Initiator nonce/cookie.
        nonce_i: [u8; 16],
    },
    /// Message 2 (R→I): chosen suite + responder cookie.
    Accept {
        /// Chosen transform.
        suite: CryptoSuite,
        /// Responder nonce/cookie.
        nonce_r: [u8; 16],
    },
    /// Message 3 (I→R): initiator DH public value.
    KeyExchangeI {
        /// `g^i mod p`, big-endian.
        public: Vec<u8>,
    },
    /// Message 4 (R→I): responder DH public value.
    KeyExchangeR {
        /// `g^r mod p`, big-endian.
        public: Vec<u8>,
    },
    /// Message 5 (I→R): initiator transcript authentication.
    AuthI {
        /// `HMAC(skeyid, transcript || "I")`.
        tag: [u8; 32],
    },
    /// Message 6 (R→I): responder transcript authentication.
    AuthR {
        /// `HMAC(skeyid, transcript || "R")`.
        tag: [u8; 32],
    },
}

impl IkeMessage {
    /// Approximate on-the-wire size in bytes (for the cost ledger).
    pub fn wire_len(&self) -> usize {
        match self {
            IkeMessage::Proposal { suites, .. } => 28 + suites.len() * 8 + 16,
            IkeMessage::Accept { .. } => 28 + 8 + 16,
            IkeMessage::KeyExchangeI { public } | IkeMessage::KeyExchangeR { public } => {
                28 + public.len()
            }
            IkeMessage::AuthI { .. } | IkeMessage::AuthR { .. } => 28 + 32,
        }
    }
}

/// Cost ledger of a handshake (both sides summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandshakeCost {
    /// Messages exchanged.
    pub messages: u64,
    /// Network round trips (messages / 2 for this ping-pong exchange).
    pub round_trips: u64,
    /// Modular exponentiations performed (the dominant CPU cost).
    pub modexps: u64,
    /// PRF/HMAC invocations.
    pub prf_calls: u64,
    /// Total bytes on the wire.
    pub bytes: u64,
}

impl HandshakeCost {
    /// The ledger of one quick-mode rekey under an existing phase-1
    /// secret (`reset_ipsec::rekey`): 3 messages, HDR+HASH+SA+Ni /
    /// HDR+HASH+SA+Nr / HDR+HASH. Each carries one HMAC; key derivation
    /// adds two PRF expansions per side. No DH: this model omits PFS,
    /// matching the cheap path.
    pub const QUICK_MODE: HandshakeCost = HandshakeCost {
        messages: 3,
        round_trips: 2,
        modexps: 0,
        prf_calls: 3 + 4,
        bytes: 3 * 76,
    };

    /// Estimated wall time under a [`CostModel`].
    pub fn estimate_ns(&self, m: &CostModel) -> u64 {
        self.modexps * m.modexp_ns
            + self.prf_calls * m.prf_ns
            + self.round_trips * m.rtt_ns
            + self.bytes * m.per_byte_ns
    }
}

/// Unit costs used to turn a [`HandshakeCost`] ledger into time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// One modular exponentiation.
    pub modexp_ns: u64,
    /// One PRF/HMAC invocation.
    pub prf_ns: u64,
    /// One network round trip.
    pub rtt_ns: u64,
    /// Per wire byte (serialization + transmission).
    pub per_byte_ns: u64,
}

impl CostModel {
    /// Costs in the paper's hardware era (Pentium III 730 MHz, WAN):
    /// ~10 ms per 768-bit modexp, ~5 µs per HMAC, 40 ms RTT.
    pub const fn paper_era() -> CostModel {
        CostModel {
            modexp_ns: 10_000_000,
            prf_ns: 5_000,
            rtt_ns: 40_000_000,
            per_byte_ns: 80, // ~100 Mb/s effective
        }
    }

    /// LAN-era costs: 1 ms modexp, 1 µs PRF, 500 µs RTT.
    pub const fn modern_lan() -> CostModel {
        CostModel {
            modexp_ns: 1_000_000,
            prf_ns: 1_000,
            rtt_ns: 500_000,
            per_byte_ns: 1,
        }
    }
}

/// The handshake's one failure: the two sides' transcript tags disagree,
/// because the peers hold different pre-shared keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeAuthFailed;

impl fmt::Display for HandshakeAuthFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("handshake authentication failed")
    }
}

impl std::error::Error for HandshakeAuthFailed {}

/// Result of a completed handshake: one SA per direction plus the ledger.
#[derive(Debug, Clone)]
pub struct EstablishedPair {
    /// SA protecting initiator→responder traffic.
    pub sa_i2r: SecurityAssociation,
    /// SA protecting responder→initiator traffic.
    pub sa_r2i: SecurityAssociation,
    /// Combined cost of the exchange.
    pub cost: HandshakeCost,
}

fn transcript_digest(
    nonce_i: &[u8; 16],
    nonce_r: &[u8; 16],
    pub_i: &[u8],
    pub_r: &[u8],
) -> Vec<u8> {
    let mut t = Vec::with_capacity(32 + pub_i.len() + pub_r.len());
    t.extend_from_slice(nonce_i);
    t.extend_from_slice(nonce_r);
    t.extend_from_slice(pub_i);
    t.extend_from_slice(pub_r);
    t
}

/// Runs the full six-message exchange in-process and returns the
/// established SA pair with its cost ledger.
///
/// `secret_i` / `secret_r` are the two sides' DH secrets (caller-supplied
/// so simulations stay deterministic); `psk` authenticates the exchange;
/// `spi_i2r` / `spi_r2i` name the resulting SAs.
///
/// # Errors
///
/// [`HandshakeAuthFailed`] if the PSKs differ.
///
/// # Examples
///
/// ```
/// use reset_harness::{run_handshake, toy_group};
///
/// let pair = run_handshake(
///     toy_group(),
///     b"pre-shared-key",
///     b"initiator-dh-secret",
///     b"responder-dh-secret",
///     0x1000,
///     0x2000,
/// )?;
/// assert_eq!(pair.cost.messages, 6);
/// assert_eq!(pair.cost.modexps, 4);
/// # Ok::<(), reset_harness::HandshakeAuthFailed>(())
/// ```
pub fn run_handshake(
    group: DhGroup,
    psk: &[u8],
    secret_i: &[u8],
    secret_r: &[u8],
    spi_i2r: u32,
    spi_r2i: u32,
) -> Result<EstablishedPair, HandshakeAuthFailed> {
    run_handshake_with_suites(
        group,
        psk,
        secret_i,
        secret_r,
        spi_i2r,
        spi_r2i,
        CryptoSuite::ALL,
    )
}

/// [`run_handshake`] with an explicit suite proposal list (preference
/// order). The responder accepts the first offered suite it supports —
/// in-repo that is always `offered[0]` — and both SAs are installed with
/// it, so experiments can sweep transforms by varying the offer.
///
/// # Errors
///
/// [`HandshakeAuthFailed`] if the PSKs differ.
///
/// # Panics
///
/// Panics if `offered` is empty (an IKE proposal must carry at least
/// one transform).
pub fn run_handshake_with_suites(
    group: DhGroup,
    psk: &[u8],
    secret_i: &[u8],
    secret_r: &[u8],
    spi_i2r: u32,
    spi_r2i: u32,
    offered: &[CryptoSuite],
) -> Result<EstablishedPair, HandshakeAuthFailed> {
    assert!(!offered.is_empty(), "empty suite proposal");
    let mut cost = HandshakeCost::default();
    let mut ledger = |m: &IkeMessage| {
        cost.messages += 1;
        cost.bytes += m.wire_len() as u64;
    };

    // Messages 1-2: proposal / accept. The proposal carries the suites'
    // wire ids ([`CryptoSuite::wire_id`]); the responder echoes its
    // choice back in the accept.
    let nonce_i = derive_nonce(psk, secret_i, b"ni");
    let nonce_r = derive_nonce(psk, secret_r, b"nr");
    cost.prf_calls += 2;
    let m1 = IkeMessage::Proposal {
        suites: offered.to_vec(),
        nonce_i,
    };
    ledger(&m1);
    let suite = match &m1 {
        IkeMessage::Proposal { suites, .. } => {
            // Responder-side selection, modelled through the id codec a
            // real wire format would round-trip.
            CryptoSuite::from_wire_id(suites[0].wire_id()).expect("offered suites are known")
        }
        _ => unreachable!(),
    };
    let m2 = IkeMessage::Accept { suite, nonce_r };
    ledger(&m2);

    // Messages 3-4: DH exchange (2 modexps per side: keygen + shared).
    let kp_i = DhKeyPair::from_secret(group.clone(), secret_i);
    let kp_r = DhKeyPair::from_secret(group, secret_r);
    cost.modexps += 2;
    let pub_i = kp_i.public().to_be_bytes();
    let pub_r = kp_r.public().to_be_bytes();
    let m3 = IkeMessage::KeyExchangeI {
        public: pub_i.clone(),
    };
    ledger(&m3);
    let m4 = IkeMessage::KeyExchangeR {
        public: pub_r.clone(),
    };
    ledger(&m4);
    let shared_i = kp_i.shared_secret(&BigUint::from_be_bytes(&pub_r));
    let shared_r = kp_r.shared_secret(&BigUint::from_be_bytes(&pub_i));
    cost.modexps += 2;
    debug_assert_eq!(shared_i, shared_r);

    // SKEYID = prf(psk, Ni | Nr | g^ir), as in RFC 2409 PSK mode.
    let mut skeyid_seed = Vec::new();
    skeyid_seed.extend_from_slice(&nonce_i);
    skeyid_seed.extend_from_slice(&nonce_r);
    skeyid_seed.extend_from_slice(&shared_i);
    let skeyid_i = prf_plus(psk, &skeyid_seed, 32);
    let skeyid_r = prf_plus(psk, &skeyid_seed, 32);
    cost.prf_calls += 2;

    // Messages 5-6: transcript authentication.
    let transcript = transcript_digest(&nonce_i, &nonce_r, &pub_i, &pub_r);
    let tag_i = auth_tag(&skeyid_i, &transcript, b"I");
    let tag_r = auth_tag(&skeyid_r, &transcript, b"R");
    cost.prf_calls += 4; // each side computes its tag and verifies peer's
    let m5 = IkeMessage::AuthI { tag: tag_i };
    ledger(&m5);
    let m6 = IkeMessage::AuthR { tag: tag_r };
    ledger(&m6);
    // Verification (both sides share the PSK, so this succeeds; a PSK
    // mismatch surfaces here).
    let verify_i = auth_tag(&skeyid_r, &transcript, b"I");
    let verify_r = auth_tag(&skeyid_i, &transcript, b"R");
    if !ct_eq(&tag_i, &verify_i) || !ct_eq(&tag_r, &verify_r) {
        return Err(HandshakeAuthFailed);
    }

    cost.round_trips = cost.messages / 2;

    // Derive the directional SA keys from SKEYID.
    let keys_i2r = SaKeys::derive(&skeyid_i, b"i2r");
    let keys_r2i = SaKeys::derive(&skeyid_i, b"r2i");
    cost.prf_calls += 2;

    Ok(EstablishedPair {
        sa_i2r: SecurityAssociation::new(spi_i2r, keys_i2r).with_suite(suite),
        sa_r2i: SecurityAssociation::new(spi_r2i, keys_r2i).with_suite(suite),
        cost,
    })
}

/// Simulates a handshake where the responder holds a different PSK; the
/// transcript tags then disagree.
///
/// # Errors
///
/// Always returns [`HandshakeAuthFailed`] when the keys
/// differ (this function exists so tests and experiments can exercise the
/// failure path deterministically).
pub fn run_handshake_mismatched_psk(
    group: DhGroup,
    psk_i: &[u8],
    psk_r: &[u8],
    secret_i: &[u8],
    secret_r: &[u8],
) -> Result<EstablishedPair, HandshakeAuthFailed> {
    if psk_i == psk_r {
        return run_handshake(group, psk_i, secret_i, secret_r, 1, 2);
    }
    // Tags computed under different SKEYIDs can only collide with
    // negligible probability; model the rejection directly.
    let _ = (group, secret_i, secret_r);
    Err(HandshakeAuthFailed)
}

fn derive_nonce(psk: &[u8], secret: &[u8], label: &[u8]) -> [u8; 16] {
    let mut seed = Vec::new();
    seed.extend_from_slice(secret);
    seed.extend_from_slice(label);
    let h = hmac_sha256(psk, &seed);
    let mut out = [0u8; 16];
    out.copy_from_slice(&h[..16]);
    out
}

fn auth_tag(skeyid: &[u8], transcript: &[u8], role: &[u8]) -> [u8; 32] {
    let mut msg = Vec::with_capacity(transcript.len() + role.len());
    msg.extend_from_slice(transcript);
    msg.extend_from_slice(role);
    hmac_sha256(skeyid, &msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dh::toy_group;

    fn pair() -> EstablishedPair {
        run_handshake(toy_group(), b"psk", b"dh-secret-i", b"dh-secret-r", 10, 20).unwrap()
    }

    #[test]
    fn six_messages_three_round_trips() {
        let p = pair();
        assert_eq!(p.cost.messages, 6);
        assert_eq!(p.cost.round_trips, 3);
        assert_eq!(p.cost.modexps, 4);
        assert!(p.cost.prf_calls >= 8);
        assert!(p.cost.bytes > 100);
    }

    #[test]
    fn directional_keys_differ() {
        let p = pair();
        assert_ne!(p.sa_i2r.keys(), p.sa_r2i.keys());
        assert_eq!(p.sa_i2r.spi(), 10);
        assert_eq!(p.sa_r2i.spi(), 20);
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let a = pair();
        let b = pair();
        assert_eq!(a.sa_i2r.keys(), b.sa_i2r.keys());
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn different_secrets_different_keys() {
        let a = pair();
        let b =
            run_handshake(toy_group(), b"psk", b"other-secret", b"dh-secret-r", 10, 20).unwrap();
        assert_ne!(a.sa_i2r.keys(), b.sa_i2r.keys());
    }

    #[test]
    fn negotiating_each_suite_installs_it() {
        for &suite in CryptoSuite::ALL {
            let p = run_handshake_with_suites(toy_group(), b"psk", b"si", b"sr", 1, 2, &[suite])
                .unwrap();
            assert_eq!(p.sa_i2r.suite(), suite);
            assert_eq!(p.sa_r2i.suite(), suite);
        }
    }

    #[test]
    fn preference_order_decides() {
        let p = run_handshake_with_suites(
            toy_group(),
            b"psk",
            b"si",
            b"sr",
            1,
            2,
            &[
                CryptoSuite::ChaCha20Poly1305,
                CryptoSuite::HmacSha256AuthOnly,
            ],
        )
        .unwrap();
        assert_eq!(p.sa_i2r.suite(), CryptoSuite::ChaCha20Poly1305);
    }

    #[test]
    fn psk_mismatch_fails_auth() {
        let err = run_handshake_mismatched_psk(toy_group(), b"psk-a", b"psk-b", b"si", b"sr")
            .unwrap_err();
        assert_eq!(err, HandshakeAuthFailed);
        assert!(err.to_string().contains("auth"));
    }

    #[test]
    fn cost_model_estimates_scale() {
        let p = pair();
        let paper = p.cost.estimate_ns(&CostModel::paper_era());
        let lan = p.cost.estimate_ns(&CostModel::modern_lan());
        assert!(paper > lan);
        // Paper-era full handshake: ≥ 4 modexps × 10 ms = 40 ms at least.
        assert!(paper >= 40_000_000, "paper-era estimate {paper} ns");
    }

    #[test]
    fn rekey_is_much_cheaper_than_main_mode() {
        let quick = HandshakeCost::QUICK_MODE;
        assert_eq!(quick.modexps, 0);
        let model = CostModel::paper_era();
        // Main mode: 4 modexps ≈ 40 ms alone. Quick mode: PRF + 2 RTTs.
        assert!(quick.estimate_ns(&model) < 100_000_000);
        assert!(quick.estimate_ns(&model) > 0);
        assert!(quick.estimate_ns(&model) < pair().cost.estimate_ns(&model));
    }

    #[test]
    fn wire_lengths_nonzero() {
        let p = IkeMessage::Proposal {
            suites: vec![CryptoSuite::HmacSha256AuthOnly],
            nonce_i: [0; 16],
        };
        assert!(p.wire_len() > 16);
        assert!(IkeMessage::AuthR { tag: [0; 32] }.wire_len() >= 60);
    }
}
