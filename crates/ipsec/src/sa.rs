//! Security associations (RFC 2401 shape).
//!
//! The paper's observation that motivates SAVE/FETCH: of all the SA's
//! attributes, *only* the sequence number and the anti-replay window
//! change per packet. Keys, algorithms and lifetimes are stable for the
//! SA's lifetime — so persisting the two counters is enough to rescue the
//! whole SA across a reset, avoiding a full renegotiation.

use reset_crypto::{Backend, ChaCha20Poly1305Suite, CipherSuite, HmacKey, HmacSha256Suite};

use crate::IpsecError;

/// The negotiable cipher suites (RFC 2407-style transform identifiers).
/// Each maps to a concrete [`reset_crypto::CipherSuite`] implementation
/// built from the SA's derived key material; IKE proposals and rekeys
/// carry the [`CryptoSuite::wire_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CryptoSuite {
    /// HMAC-SHA-256-96 integrity with null encryption (RFC 2410): the
    /// payload travels in the clear and is delivered without a copy.
    HmacSha256AuthOnly,
    /// ChaCha20-Poly1305 AEAD (RFC 8439): one transform providing both
    /// confidentiality and a 128-bit tag. The default, and the only
    /// suite that encrypts.
    #[default]
    ChaCha20Poly1305,
}

impl CryptoSuite {
    /// Every negotiable suite, in default preference order (the AEAD
    /// first: it is the only one that encrypts).
    pub const ALL: &'static [CryptoSuite] = &[
        CryptoSuite::ChaCha20Poly1305,
        CryptoSuite::HmacSha256AuthOnly,
    ];

    /// Stable lowercase label (matches the concrete transform's
    /// [`reset_crypto::CipherSuite::name`]); telemetry uses it as the
    /// SA-class key.
    pub fn name(self) -> &'static str {
        match self {
            CryptoSuite::HmacSha256AuthOnly => "hmac-sha256-auth-only",
            CryptoSuite::ChaCha20Poly1305 => "chacha20-poly1305",
        }
    }

    /// The transform identifier carried in IKE proposals and rekey
    /// exchanges. Id 1, the retired HMAC-CTR keystream transform, is
    /// never reused.
    pub fn wire_id(self) -> u8 {
        match self {
            CryptoSuite::HmacSha256AuthOnly => 2,
            CryptoSuite::ChaCha20Poly1305 => 3,
        }
    }

    /// Decodes a transform identifier (`None` for unknown ids, which a
    /// responder must reject rather than default).
    pub fn from_wire_id(id: u8) -> Option<CryptoSuite> {
        match id {
            2 => Some(CryptoSuite::HmacSha256AuthOnly),
            3 => Some(CryptoSuite::ChaCha20Poly1305),
            _ => None,
        }
    }

    /// Builds the concrete transform for this suite from derived keys,
    /// with the crypto backend auto-selected
    /// ([`reset_crypto::Backend::select`]).
    fn build(self, keys: &SaKeys) -> SuiteState {
        match self {
            CryptoSuite::HmacSha256AuthOnly => {
                SuiteState::Hmac(Box::new(HmacSha256Suite::auth_only(&keys.auth)))
            }
            CryptoSuite::ChaCha20Poly1305 => SuiteState::Aead(ChaCha20Poly1305Suite::new(keys.enc)),
        }
    }
}

/// The SA's instantiated transform: the enum keeps
/// [`SecurityAssociation`] `Clone + PartialEq` while
/// [`SecurityAssociation::cipher`] hands the datapath a `&dyn
/// CipherSuite`.
///
/// The HMAC suite is boxed. Its precomputed key schedule (the ipad and
/// opad states) is 224 bytes, against the AEAD's 32-byte key; inline,
/// every SA — the default AEAD fleet included — would carry that much in
/// its record. The cost falls on HMAC SAs alone: one pointer chase per
/// crypto call and one allocation per install. That suite is off the
/// wide fleet's hot path (ARCHITECTURE.md, "The backend model").
#[derive(Debug, Clone, PartialEq, Eq)]
enum SuiteState {
    Hmac(Box<HmacSha256Suite>),
    Aead(ChaCha20Poly1305Suite),
}

impl SuiteState {
    fn as_dyn(&self) -> &dyn CipherSuite {
        match self {
            SuiteState::Hmac(s) => &**s,
            SuiteState::Aead(s) => s,
        }
    }
}

/// Keys derived for one unidirectional SA.
///
/// Both keys are inline: every key the repo derives or negotiates —
/// [`SaKeys::derive`], [`crate::rekey()`], the IKE handshake — is 32
/// bytes, so an SA carries its 64 key bytes without two heap copies.
#[derive(Clone, PartialEq, Eq)]
pub struct SaKeys {
    /// Authentication (ICV) key.
    pub auth: [u8; 32],
    /// Encryption key: the AEAD's cipher key; unused for auth-only suites.
    pub enc: [u8; 32],
}

/// Reports the key lengths and never the keys: an SA, and everything
/// that holds one, is printed by tests and error paths.
impl std::fmt::Debug for SaKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaKeys")
            .field("auth_len", &self.auth.len())
            .field("enc_len", &self.enc.len())
            .finish()
    }
}

impl SaKeys {
    /// Derives both keys from keying material (e.g. a DH shared secret)
    /// and a direction label, using the PRF+ expansion.
    pub fn derive(material: &[u8], label: &[u8]) -> SaKeys {
        SaKeys::derive_with(&HmacKey::new(material), label)
    }

    /// [`SaKeys::derive`] under the material's precomputed PRF schedule,
    /// for callers that derive many SAs under one master.
    /// The 64 bytes are PRF+'s first two blocks over the seed
    /// `label ‖ "-key"`, computed here into the stack so an install
    /// allocates nothing: `T1 = prf(K, seed ‖ 1)`, `T2 = prf(K, T1 ‖ seed ‖ 2)`.
    pub(crate) fn derive_with(material: &HmacKey, label: &[u8]) -> SaKeys {
        let t1 = material.mac_parts(&[label, b"-key", &[1]]);
        let t2 = material.mac_parts(&[&t1, label, b"-key", &[2]]);
        SaKeys { auth: t1, enc: t2 }
    }

    /// Splits 64 bytes of KEYMAT into the two keys, `auth` first.
    pub(crate) fn from_keymat(keymat: &[u8]) -> SaKeys {
        let (auth, enc) = keymat.split_at(32);
        SaKeys {
            auth: auth.try_into().expect("64 bytes of keymat"),
            enc: enc.try_into().expect("64 bytes of keymat"),
        }
    }
}

/// Usage limits of an SA (RFC 2401 lifetimes). The paper notes lifetimes
/// are among the attributes that *don't* change per packet — but usage
/// counts do, so the accounting lives in [`SaUsage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaLifetime {
    /// Maximum packets this SA may protect.
    pub max_packets: u64,
    /// Maximum payload bytes this SA may protect.
    pub max_bytes: u64,
}

impl SaLifetime {
    /// Effectively unlimited (simulation default).
    pub const UNLIMITED: SaLifetime = SaLifetime {
        max_packets: u64::MAX,
        max_bytes: u64::MAX,
    };
}

impl Default for SaLifetime {
    fn default() -> Self {
        SaLifetime::UNLIMITED
    }
}

/// Per-SA usage accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaUsage {
    /// Packets protected/verified so far.
    pub packets: u64,
    /// Payload bytes protected/verified so far.
    pub bytes: u64,
}

/// One unidirectional security association.
///
/// # Examples
///
/// ```
/// use reset_ipsec::{SaKeys, SecurityAssociation};
///
/// let keys = SaKeys::derive(b"shared-secret", b"initiator->responder");
/// let sa = SecurityAssociation::new(0x1001, keys);
/// assert_eq!(sa.spi(), 0x1001);
/// assert!(sa.check_lifetime().is_ok());
/// ```
///
/// # Layout
///
/// `#[repr(C)]` keeps the raw keys first and everything a frame reads
/// after them, in one run to the end of the struct: the lifetime (read
/// by every send), the transform with its key, the usage, the SPI and
/// the ESN flag. The endpoints place their per-frame state right after
/// the SA, so that run continues into it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C)]
pub struct SecurityAssociation {
    /// The negotiated keys, kept to rebuild the transform; no frame
    /// reads them.
    keys: SaKeys,
    lifetime: SaLifetime,
    /// The instantiated transform: precomputed key schedules (HMAC
    /// ipad/opad states, ChaCha key words) built once at SA install so
    /// the per-packet path never reruns a key schedule.
    cipher: SuiteState,
    usage: SaUsage,
    spi: u32,
    /// Extended sequence numbers enabled (64-bit counters on a 32-bit
    /// wire field) — the realistic approximation of the paper's unbounded
    /// integers.
    esn: bool,
    suite: CryptoSuite,
}

impl SecurityAssociation {
    /// An SA with default suite, unlimited lifetime and ESN enabled.
    pub fn new(spi: u32, keys: SaKeys) -> Self {
        let suite = CryptoSuite::default();
        let cipher = suite.build(&keys);
        SecurityAssociation {
            keys,
            lifetime: SaLifetime::UNLIMITED,
            cipher,
            usage: SaUsage::default(),
            spi,
            esn: true,
            suite,
        }
    }

    /// Sets the crypto suite (builder style), rebuilding the transform
    /// from this SA's key material.
    pub fn with_suite(mut self, suite: CryptoSuite) -> Self {
        self.suite = suite;
        self.cipher = suite.build(&self.keys);
        self
    }

    /// Forces a specific crypto [`Backend`] (builder style) on the
    /// built transform; the key schedules stand, since a backend changes
    /// how the bytes are computed, never what they are. By default SAs
    /// auto-select the strongest backend the host supports
    /// ([`Backend::select`]); forcing matters for backend differential
    /// tests. An HMAC transform has no backend (its SHA-256 follows the
    /// process's selection) and passes through unchanged.
    ///
    /// # Panics
    ///
    /// Panics if this host cannot run `backend`
    /// ([`Backend::is_supported`]) and the transform is the AEAD.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        if let SuiteState::Aead(s) = self.cipher {
            self.cipher = SuiteState::Aead(s.with_backend(backend));
        }
        self
    }

    /// Sets the lifetime (builder style).
    pub fn with_lifetime(mut self, lifetime: SaLifetime) -> Self {
        self.lifetime = lifetime;
        self
    }

    /// Enables/disables extended sequence numbers (builder style).
    pub fn with_esn(mut self, esn: bool) -> Self {
        self.esn = esn;
        self
    }

    /// The SPI.
    pub fn spi(&self) -> u32 {
        self.spi
    }

    /// The negotiated keys.
    pub fn keys(&self) -> &SaKeys {
        &self.keys
    }

    /// The instantiated transform — what the ESP datapath hands to
    /// [`reset_wire::seal_frame_into`] and
    /// [`reset_wire::verify_frame_with`]. Key schedules are precomputed
    /// at SA install, so per-packet crypto never re-derives them.
    pub fn cipher(&self) -> &dyn CipherSuite {
        self.cipher.as_dyn()
    }

    /// The transform as the AEAD suite, when it is that one: the receive
    /// drain verifies and decrypts such an SA's frames in lane groups
    /// shared with other SAs.
    pub(crate) fn aead(&self) -> Option<&ChaCha20Poly1305Suite> {
        match &self.cipher {
            SuiteState::Aead(suite) => Some(suite),
            SuiteState::Hmac(_) => None,
        }
    }

    /// The SA's words for the receive drain's warm pass
    /// ([`crate::Inbound`]'s `warm`): the head of the transform, which
    /// starts the receive run, and the SPI near its end. The value means
    /// nothing; the loads are the point.
    pub(crate) fn warm(&self) -> u64 {
        let head = match &self.cipher {
            // An HMAC SA's transform is the pointer to its schedules.
            SuiteState::Hmac(suite) => std::ptr::from_ref::<HmacSha256Suite>(suite).addr() as u64,
            // Equality reads the key. Without `black_box` the compiler
            // sees the key compared with itself and loads nothing.
            SuiteState::Aead(suite) => u64::from(suite == std::hint::black_box(suite)),
        };
        head ^ u64::from(self.spi)
    }

    /// The negotiated suite.
    pub fn suite(&self) -> CryptoSuite {
        self.suite
    }

    /// Whether ESN is enabled.
    pub fn esn(&self) -> bool {
        self.esn
    }

    /// Usage so far.
    pub fn usage(&self) -> SaUsage {
        self.usage
    }

    /// Records one protected/verified packet of `len` payload bytes.
    pub fn account(&mut self, len: usize) {
        self.usage.packets = self.usage.packets.saturating_add(1);
        self.usage.bytes = self.usage.bytes.saturating_add(len as u64);
    }

    /// Checks the lifetime.
    ///
    /// # Errors
    ///
    /// [`IpsecError::LifetimeExpired`] when either limit is reached.
    pub fn check_lifetime(&self) -> Result<(), IpsecError> {
        if self.usage.packets >= self.lifetime.max_packets
            || self.usage.bytes >= self.lifetime.max_bytes
        {
            Err(IpsecError::LifetimeExpired { spi: self.spi })
        } else {
            Ok(())
        }
    }
}

/// `(address, length)` of `field`, for the record layout tests.
#[cfg(test)]
pub(crate) fn span_of<T>(field: &T) -> (usize, usize) {
    (std::ptr::from_ref(field) as usize, std::mem::size_of::<T>())
}

#[cfg(test)]
impl SecurityAssociation {
    /// The fields a frame reads — the transform with its key, the usage,
    /// the SPI and the ESN flag, and on a send the lifetime — for the
    /// record layout test (`sadb::tests`).
    pub(crate) fn frame_fields(&self, send: bool) -> Vec<(usize, usize)> {
        let mut fields = vec![
            span_of(&self.cipher),
            span_of(&self.usage),
            span_of(&self.spi),
            span_of(&self.esn),
        ];
        if send {
            fields.push(span_of(&self.lifetime));
        }
        fields
    }

    /// Where [`SecurityAssociation::warm`] reads, for the same test.
    pub(crate) fn warm_fields(&self) -> [(usize, usize); 2] {
        let head = match &self.cipher {
            SuiteState::Hmac(suite) => span_of(suite),
            SuiteState::Aead(suite) => span_of(suite),
        };
        [head, span_of(&self.spi)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_derivation_is_deterministic_and_direction_separated() {
        let a = SaKeys::derive(b"secret", b"i->r");
        let b = SaKeys::derive(b"secret", b"i->r");
        let c = SaKeys::derive(b"secret", b"r->i");
        assert_eq!(a, b);
        assert_ne!(a.auth, c.auth);
        assert_ne!(a.enc, c.enc);
        assert_ne!(a.auth, a.enc, "auth and enc keys differ");
        assert_eq!(a.auth.len(), 32);
        assert_eq!(a.enc.len(), 32);
    }

    #[test]
    fn derive_matches_the_recorded_keys() {
        // The benchmark's master and first SPI; the hex is what the
        // per-block PRF+ derived before the keyed body replaced it.
        let keys = SaKeys::derive(b"gateway-benchmark-master", &0x1000u32.to_be_bytes());
        assert_eq!(
            reset_crypto::to_hex(&keys.auth),
            "2ba5c52ae4d50b1f0a1c4ad71958f9778280b4dc70ed771dd0e80f1c413e231d"
        );
        assert_eq!(
            reset_crypto::to_hex(&keys.enc),
            "56d751cf54eb2977b92d17c2ec83752fbb26b8b50e74170b3760455b470b24c0"
        );
    }

    #[test]
    fn lifetime_enforced_on_packets() {
        let keys = SaKeys::derive(b"s", b"l");
        let mut sa = SecurityAssociation::new(1, keys).with_lifetime(SaLifetime {
            max_packets: 3,
            max_bytes: u64::MAX,
        });
        for _ in 0..3 {
            assert!(sa.check_lifetime().is_ok());
            sa.account(10);
        }
        assert!(matches!(
            sa.check_lifetime(),
            Err(IpsecError::LifetimeExpired { spi: 1 })
        ));
    }

    #[test]
    fn lifetime_enforced_on_bytes() {
        let keys = SaKeys::derive(b"s", b"l");
        let mut sa = SecurityAssociation::new(2, keys).with_lifetime(SaLifetime {
            max_packets: u64::MAX,
            max_bytes: 100,
        });
        sa.account(100);
        assert!(sa.check_lifetime().is_err());
    }

    #[test]
    fn builder_chain() {
        let keys = SaKeys::derive(b"s", b"l");
        let sa = SecurityAssociation::new(7, keys)
            .with_suite(CryptoSuite::HmacSha256AuthOnly)
            .with_esn(false);
        assert_eq!(sa.suite(), CryptoSuite::HmacSha256AuthOnly);
        assert!(!sa.esn());
    }

    #[test]
    fn wire_ids_round_trip() {
        for &s in CryptoSuite::ALL {
            assert_eq!(CryptoSuite::from_wire_id(s.wire_id()), Some(s));
        }
        assert_eq!(CryptoSuite::from_wire_id(0), None);
        assert_eq!(CryptoSuite::from_wire_id(99), None);
        // Id 1 named the retired HMAC-CTR keystream transform: a proposal
        // or rekey that carries it is refused, not read as another suite.
        assert_eq!(CryptoSuite::from_wire_id(1), None);
    }

    #[test]
    fn cipher_metadata_tracks_suite() {
        let keys = SaKeys::derive(b"s", b"m");
        let auth_only =
            SecurityAssociation::new(1, keys).with_suite(CryptoSuite::HmacSha256AuthOnly);
        assert_eq!(auth_only.cipher().icv_len(), 12);
        assert!(!auth_only.cipher().encrypts());
        let aead = auth_only.clone().with_suite(CryptoSuite::ChaCha20Poly1305);
        assert_eq!(aead.cipher().icv_len(), 16);
        assert!(aead.cipher().encrypts());
    }

    #[test]
    fn default_suite_is_the_aead() {
        let keys = SaKeys::derive(b"s", b"d");
        let sa = SecurityAssociation::new(1, keys);
        assert_eq!(sa.suite(), CryptoSuite::ChaCha20Poly1305);
        assert_eq!(CryptoSuite::ALL[0], CryptoSuite::default());
    }

    #[test]
    fn usage_accumulates() {
        let keys = SaKeys::derive(b"s", b"l");
        let mut sa = SecurityAssociation::new(1, keys);
        sa.account(10);
        sa.account(20);
        assert_eq!(sa.usage().packets, 2);
        assert_eq!(sa.usage().bytes, 30);
    }
}
