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

use reset_crypto::prf_plus;

use crate::sa::{CryptoSuite, SaKeys, SaLifetime, SecurityAssociation};

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
    /// different transform (e.g. HMAC auth-only → ChaCha20-Poly1305);
    /// the suite id is bound into the key derivation, so the
    /// replacement's keys differ from those the same nonces and SPI
    /// would derive under any other suite.
    pub suite: CryptoSuite,
}

/// Derives the replacement SA (fresh keys, zeroed usage). Both peers
/// call this with the same inputs and obtain identical keys — the
/// quick-mode exchange itself only transports the nonces and
/// authenticates with SKEYID. The exchange's cost ledger is figure code
/// and lives with the main-mode handshake in `reset-harness`.
///
/// # Examples
///
/// ```
/// use reset_ipsec::{rekey, RekeyRequest};
///
/// let sa = rekey(&RekeyRequest {
///     skeyid: b"phase-1-shared-secret".to_vec(),
///     nonce_i: [1; 16],
///     nonce_r: [2; 16],
///     new_spi: 0x2002,
///     suite: reset_ipsec::CryptoSuite::ChaCha20Poly1305,
/// });
/// assert_eq!(sa.spi(), 0x2002);
/// assert_eq!(sa.suite(), reset_ipsec::CryptoSuite::ChaCha20Poly1305);
/// assert_eq!(sa.usage().packets, 0);
/// ```
pub fn rekey(req: &RekeyRequest) -> SecurityAssociation {
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
    SecurityAssociation::new(req.new_spi, keys).with_suite(req.suite)
}

/// Convenience: is this SA due for a rekey under `lifetime`?
pub fn rekey_due(sa: &SecurityAssociation, lifetime: &SaLifetime) -> bool {
    sa.usage().packets >= lifetime.max_packets || sa.usage().bytes >= lifetime.max_bytes
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
        assert_eq!(a.keys(), b.keys());
    }

    #[test]
    fn nonces_and_spi_separate_keys() {
        let base = rekey(&req(0x30));
        let mut r = req(0x30);
        r.nonce_i = [0xCC; 16];
        assert_ne!(rekey(&r).keys(), base.keys());
        assert_ne!(rekey(&req(0x31)).keys(), base.keys());
    }

    #[test]
    fn old_recorded_traffic_useless_after_rekey() {
        // The adversary's replay library dies with the old keys.
        let old = rekey(&req(0x40));
        let mut tx_old = Outbound::new(old.clone(), MemStable::new(), 25);
        let recorded: Vec<_> = (0..10)
            .map(|_| tx_old.protect(b"old").unwrap().unwrap())
            .collect();

        let new = rekey(&RekeyRequest {
            nonce_i: [0xDD; 16],
            ..req(0x40) // same SPI reused for the replacement
        });
        let mut rx_new = Inbound::new(new, MemStable::new(), 25, 64);
        for w in &recorded {
            assert!(rx_new.process(w).is_err(), "old-SA packet authenticated");
        }
    }

    #[test]
    fn new_sa_starts_counters_from_scratch() {
        let sa = rekey(&req(0x50));
        let mut tx = Outbound::new(sa.clone(), MemStable::new(), 25);
        let mut rx = Inbound::new(sa.clone(), MemStable::new(), 25, 64);
        let w = tx.protect(b"first").unwrap().unwrap();
        match rx.process(&w).unwrap() {
            crate::RxResult::Delivered { seq, .. } => assert_eq!(seq.value(), 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(sa.usage().packets, 0, "usage zeroed");
    }

    #[test]
    fn rekey_due_tracks_lifetime() {
        let mut sa = rekey(&req(0x60));
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
    fn suite_migration_derives_distinct_keys_and_installs_suite() {
        let aead = rekey(&req(0x70)); // default suite: the AEAD
        let mut r = req(0x70);
        r.suite = CryptoSuite::HmacSha256AuthOnly;
        let auth_only = rekey(&r);
        assert_eq!(aead.suite(), CryptoSuite::ChaCha20Poly1305);
        assert_eq!(auth_only.suite(), CryptoSuite::HmacSha256AuthOnly);
        assert_ne!(
            auth_only.keys(),
            aead.keys(),
            "keymat domains separated by suite id"
        );
    }
}
