//! SA rekeying (quick-mode style) — the lifecycle event SAVE/FETCH does
//! *not* eliminate.
//!
//! The paper's point is that a **reset** should not force renegotiation,
//! because only the counters were lost. Rekeying for *lifetime expiry*
//! (RFC 2401 byte/packet limits, or the §6 warning that an SA left alive
//! too long invites cryptanalysis) is still required — but a rekey under
//! an existing phase-1 secret is a cheap 3-message quick mode, not the
//! full 6-message main mode.
//!
//! Rekeying also changes the adversary's position: every packet recorded
//! under the old SA fails authentication under the new keys, so a rekey
//! (unlike a SAVE/FETCH recovery) wipes the replay library.

use reset_crypto::{hmac_sha256, prf_plus};

use crate::sa::{CryptoSuite, SaKeys, SaLifetime, SecurityAssociation};
use crate::HandshakeCost;

/// Inputs for a quick-mode rekey under an existing phase-1 SKEYID.
#[derive(Debug, Clone)]
pub struct RekeyRequest {
    /// The phase-1 shared secret both peers already hold.
    pub skeyid: Vec<u8>,
    /// Fresh initiator nonce.
    pub nonce_i: [u8; 16],
    /// Fresh responder nonce.
    pub nonce_r: [u8; 16],
    /// SPI for the replacement SA.
    pub new_spi: u32,
    /// Suite for the replacement SA. A rekey may migrate the SA to a
    /// different transform (e.g. legacy HMAC+keystream → ChaCha20-
    /// Poly1305); the suite id is bound into both the key derivation
    /// and the quick-mode authentication tag, so a downgraded or
    /// up-graded exchange cannot be spliced from another rekey's
    /// messages.
    pub suite: CryptoSuite,
}

/// Outcome of a rekey: the replacement SA and the exchange's cost ledger.
#[derive(Debug, Clone)]
pub struct RekeyOutcome {
    /// The replacement SA (fresh keys, zeroed usage).
    pub sa: SecurityAssociation,
    /// Cost of the 3-message quick mode (no DH unless PFS is requested;
    /// this model omits PFS, matching the cheap path).
    pub cost: HandshakeCost,
}

/// Derives the replacement SA. Both peers call this with the same inputs
/// and obtain identical keys — the quick-mode exchange itself only
/// transports the nonces and authenticates with SKEYID.
///
/// # Examples
///
/// ```
/// use reset_ipsec::{rekey, RekeyRequest};
///
/// let out = rekey(&RekeyRequest {
///     skeyid: b"phase-1-shared-secret".to_vec(),
///     nonce_i: [1; 16],
///     nonce_r: [2; 16],
///     new_spi: 0x2002,
///     suite: reset_ipsec::CryptoSuite::ChaCha20Poly1305,
/// });
/// assert_eq!(out.sa.spi(), 0x2002);
/// assert_eq!(out.sa.suite(), reset_ipsec::CryptoSuite::ChaCha20Poly1305);
/// assert_eq!(out.cost.messages, 3);
/// assert_eq!(out.cost.modexps, 0); // no DH on the cheap path
/// ```
pub fn rekey(req: &RekeyRequest) -> RekeyOutcome {
    // KEYMAT = prf+(SKEYID, Ni | Nr | SPI | suite-id), per the RFC 2409
    // quick-mode shape (protocol id folded into the SPI here; the suite
    // id keeps keymat domains separate across transform migrations).
    let mut seed = Vec::with_capacity(37);
    seed.extend_from_slice(&req.nonce_i);
    seed.extend_from_slice(&req.nonce_r);
    seed.extend_from_slice(&req.new_spi.to_be_bytes());
    seed.push(req.suite.wire_id());
    let keymat = prf_plus(&req.skeyid, &seed, 64);
    let keys = SaKeys::from_keymat(&keymat);
    // 3 messages: HDR+HASH+SA+Ni / HDR+HASH+SA+Nr / HDR+HASH. Each
    // carries one HMAC; key derivation adds two PRF expansions per side.
    let cost = HandshakeCost {
        messages: 3,
        round_trips: 2,
        modexps: 0,
        prf_calls: 3 + 4,
        bytes: 3 * 76,
    };
    RekeyOutcome {
        sa: SecurityAssociation::new(req.new_spi, keys).with_suite(req.suite),
        cost,
    }
}

/// Convenience: is this SA due for a rekey under `lifetime`?
pub fn rekey_due(sa: &SecurityAssociation, lifetime: &SaLifetime) -> bool {
    sa.usage().packets >= lifetime.max_packets || sa.usage().bytes >= lifetime.max_bytes
}

/// Authenticated rekey-notify tag (binds the nonces, SPI and suite id
/// to SKEYID), so the 3 quick-mode messages cannot be mixed and matched
/// across rekeys — nor a suite migration downgraded in flight.
pub fn rekey_auth_tag(req: &RekeyRequest) -> [u8; 32] {
    let mut msg = Vec::with_capacity(37);
    msg.extend_from_slice(&req.nonce_i);
    msg.extend_from_slice(&req.nonce_r);
    msg.extend_from_slice(&req.new_spi.to_be_bytes());
    msg.push(req.suite.wire_id());
    hmac_sha256(&req.skeyid, &msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esp::{Inbound, Outbound};
    use reset_stable::MemStable;

    fn req(spi: u32) -> RekeyRequest {
        RekeyRequest {
            skeyid: b"phase1-skeyid".to_vec(),
            nonce_i: [0xAA; 16],
            nonce_r: [0xBB; 16],
            new_spi: spi,
            suite: CryptoSuite::default(),
        }
    }

    #[test]
    fn both_sides_derive_identical_keys() {
        let a = rekey(&req(0x30));
        let b = rekey(&req(0x30));
        assert_eq!(a.sa.keys(), b.sa.keys());
    }

    #[test]
    fn nonces_and_spi_separate_keys() {
        let base = rekey(&req(0x30));
        let mut r = req(0x30);
        r.nonce_i = [0xCC; 16];
        assert_ne!(rekey(&r).sa.keys(), base.sa.keys());
        assert_ne!(rekey(&req(0x31)).sa.keys(), base.sa.keys());
    }

    #[test]
    fn rekey_is_much_cheaper_than_main_mode() {
        use crate::CostModel;
        let quick = rekey(&req(1)).cost;
        assert_eq!(quick.modexps, 0);
        let model = CostModel::paper_era();
        // Main mode: 4 modexps ≈ 40 ms alone. Quick mode: PRF + 2 RTTs.
        assert!(quick.estimate_ns(&model) < 100_000_000);
        assert!(quick.estimate_ns(&model) > 0);
    }

    #[test]
    fn old_recorded_traffic_useless_after_rekey() {
        // The adversary's replay library dies with the old keys.
        let old = rekey(&req(0x40));
        let mut tx_old = Outbound::new(old.sa.clone(), MemStable::new(), 25);
        let recorded: Vec<_> = (0..10)
            .map(|_| tx_old.protect(b"old").unwrap().unwrap())
            .collect();

        let new = rekey(&RekeyRequest {
            nonce_i: [0xDD; 16],
            ..req(0x40) // same SPI reused for the replacement
        });
        let mut rx_new = Inbound::new(new.sa, MemStable::new(), 25, 64);
        for w in &recorded {
            assert!(rx_new.process(w).is_err(), "old-SA packet authenticated");
        }
    }

    #[test]
    fn new_sa_starts_counters_from_scratch() {
        let out = rekey(&req(0x50));
        let sa = out.sa.clone();
        let mut tx = Outbound::new(sa.clone(), MemStable::new(), 25);
        let mut rx = Inbound::new(sa, MemStable::new(), 25, 64);
        let w = tx.protect(b"first").unwrap().unwrap();
        match rx.process(&w).unwrap() {
            crate::RxResult::Delivered { seq, .. } => assert_eq!(seq.value(), 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(out.sa.usage().packets, 0, "usage zeroed");
    }

    #[test]
    fn rekey_due_tracks_lifetime() {
        let out = rekey(&req(0x60));
        let mut sa = out.sa;
        let lt = SaLifetime {
            max_packets: 2,
            max_bytes: u64::MAX,
        };
        assert!(!rekey_due(&sa, &lt));
        sa.account(10);
        sa.account(10);
        assert!(rekey_due(&sa, &lt));
    }

    #[test]
    fn auth_tag_binds_all_inputs() {
        let t0 = rekey_auth_tag(&req(1));
        let mut r = req(1);
        r.nonce_r = [0; 16];
        assert_ne!(rekey_auth_tag(&r), t0);
        assert_ne!(rekey_auth_tag(&req(2)), t0);
        let mut s = req(1);
        s.suite = CryptoSuite::HmacSha256WithKeystream;
        assert_ne!(rekey_auth_tag(&s), t0, "suite id must be bound");
        assert_eq!(rekey_auth_tag(&req(1)), t0);
    }

    #[test]
    fn suite_migration_derives_distinct_keys_and_installs_suite() {
        let aead = rekey(&req(0x70)); // default suite: the AEAD
        let mut r = req(0x70);
        r.suite = CryptoSuite::HmacSha256WithKeystream;
        let legacy = rekey(&r);
        assert_eq!(aead.sa.suite(), CryptoSuite::ChaCha20Poly1305);
        assert_eq!(legacy.sa.suite(), CryptoSuite::HmacSha256WithKeystream);
        assert_ne!(
            legacy.sa.keys(),
            aead.sa.keys(),
            "keymat domains separated by suite id"
        );
    }
}
