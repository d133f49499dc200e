//! Diffie–Hellman over the OAKLEY groups (RFC 2412), for the IKE baseline.
//!
//! The paper's cost argument compares rescuing an SA with SAVE/FETCH
//! against the IETF remedy of renegotiating the whole SA — whose dominant
//! cost is these modular exponentiations. The primes below are the actual
//! OAKLEY "Well-Known Group" moduli cited by the paper's reference \[9\].

use reset_crypto::BigUint;

/// A Diffie–Hellman group (prime modulus + generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhGroup {
    /// Human-readable name.
    pub name: &'static str,
    /// Prime modulus.
    pub prime: BigUint,
    /// Generator.
    pub generator: BigUint,
}

/// OAKLEY Well-Known Group 1 (768-bit MODP, RFC 2412 §E.1).
pub fn oakley_group1() -> DhGroup {
    DhGroup {
        name: "oakley-group-1-768",
        prime: BigUint::from_hex(
            "FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
             29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
             EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
             E485B576 625E7EC6 F44C42E9 A63A3620 FFFFFFFF FFFFFFFF",
        ),
        generator: BigUint::from_u64(2),
    }
}

/// OAKLEY Well-Known Group 2 (1024-bit MODP, RFC 2412 §E.2).
pub fn oakley_group2() -> DhGroup {
    DhGroup {
        name: "oakley-group-2-1024",
        prime: BigUint::from_hex(
            "FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
             29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
             EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
             E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
             EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE65381
             FFFFFFFF FFFFFFFF",
        ),
        generator: BigUint::from_u64(2),
    }
}

/// A tiny 64-bit group for fast unit tests. **Not secure** — exists so the
/// protocol logic can be exercised cheaply; experiments that measure cost
/// use the real OAKLEY groups.
pub fn toy_group() -> DhGroup {
    DhGroup {
        name: "toy-64",
        prime: BigUint::from_hex("ffffffffffffffc5"), // 2^64 - 59
        generator: BigUint::from_u64(2),
    }
}

/// One side's ephemeral DH state.
#[derive(Debug, Clone)]
pub struct DhKeyPair {
    group: DhGroup,
    private: BigUint,
    public: BigUint,
}

impl DhKeyPair {
    /// Generates a key pair from caller-supplied secret bytes (the caller
    /// owns the RNG; determinism stays in the simulation's hands).
    ///
    /// # Panics
    ///
    /// Panics if `secret` is empty or reduces to 0 or 1 modulo the group
    /// prime (probability ~2^-bits for real groups; tests use fixed
    /// secrets).
    pub fn from_secret(group: DhGroup, secret: &[u8]) -> Self {
        assert!(!secret.is_empty(), "empty DH secret");
        let private = BigUint::from_be_bytes(secret).rem(&group.prime);
        assert!(
            private > BigUint::one(),
            "degenerate DH secret (0 or 1 mod p)"
        );
        let public = group.generator.mod_pow(&private, &group.prime);
        DhKeyPair {
            group,
            private,
            public,
        }
    }

    /// This side's public value `g^x mod p`.
    pub fn public(&self) -> &BigUint {
        &self.public
    }

    /// The group in use.
    pub fn group(&self) -> &DhGroup {
        &self.group
    }

    /// Computes the shared secret `other_pub^x mod p` as big-endian bytes.
    pub fn shared_secret(&self, other_pub: &BigUint) -> Vec<u8> {
        other_pub
            .mod_pow(&self.private, &self.group.prime)
            .to_be_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_group_agreement() {
        let g = toy_group();
        let alice = DhKeyPair::from_secret(g.clone(), b"alice-secret-bytes");
        let bob = DhKeyPair::from_secret(g, b"bob-secret-bytes!!");
        let s1 = alice.shared_secret(bob.public());
        let s2 = bob.shared_secret(alice.public());
        assert_eq!(s1, s2);
        assert!(!s1.is_empty());
    }

    #[test]
    fn group1_prime_shape() {
        let g = oakley_group1();
        assert_eq!(g.prime.bits(), 768);
        // RFC 2412: both ends of the prime are all-ones words.
        let bytes = g.prime.to_be_bytes();
        assert_eq!(&bytes[..8], &[0xff; 8]);
        assert_eq!(&bytes[bytes.len() - 8..], &[0xff; 8]);
    }

    #[test]
    fn group2_prime_shape() {
        let g = oakley_group2();
        assert_eq!(g.prime.bits(), 1024);
    }

    #[test]
    fn group1_agreement() {
        // One full-size exchange to pin the real-group path (slow-ish but
        // bounded: four 768-bit modexps).
        let g = oakley_group1();
        let a = DhKeyPair::from_secret(g.clone(), &[0x42; 24]);
        let b = DhKeyPair::from_secret(g, &[0x17; 24]);
        assert_eq!(a.shared_secret(b.public()), b.shared_secret(a.public()));
    }

    #[test]
    fn public_value_nontrivial() {
        let g = toy_group();
        let kp = DhKeyPair::from_secret(g, b"some secret");
        assert!(kp.public() > &BigUint::one());
    }

    #[test]
    #[should_panic(expected = "empty DH secret")]
    fn empty_secret_panics() {
        let _ = DhKeyPair::from_secret(toy_group(), b"");
    }

    #[test]
    fn distinct_secrets_distinct_publics() {
        let g = toy_group();
        let a = DhKeyPair::from_secret(g.clone(), b"secret-a");
        let b = DhKeyPair::from_secret(g, b"secret-b");
        assert_ne!(a.public(), b.public());
    }
}
