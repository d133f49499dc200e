//! §6 prolonged-reset recovery: bidirectional peers, secured recovery
//! notifies, and the replayed-notify attack.
//!
//! The paper's closing remarks sketch the full picture: IPsec traffic is
//! usually bidirectional, so each host owns an outbound and an inbound
//! SA. When a host detects its peer's unavailability it keeps both SAs
//! alive for a bounded grace period. When the reset host wakes up, it
//! runs FETCH + leap, then sends a **secured message** announcing the new
//! sequence number. The surviving host accepts that message iff its
//! sequence number exceeds the right edge of its anti-replay window —
//! "because every sequence number used after a reset should be larger
//! than all sequence numbers used before the reset". A replayed notify
//! therefore bounces off the window, defeating the attack the paper warns
//! about for naive "let's both reset to 1" schemes.
//!
//! The whole scheme leans on the paper's assumption that persistent
//! memory is trustworthy. [`IpsecPeer::recover`] therefore runs the
//! generation-checked FETCH: when the store serves a corrupt record or an
//! *older* snapshot than the peer last acknowledged durable (a rollback —
//! the state that would leap *below* sequence numbers already used),
//! recovery errors out and the peer **stays down**. No recovery notify is
//! emitted from untrusted state; the operator (or the gateway layer's
//! [`crate::GatewayEvent::FailedClosed`] machinery) must replace the SA
//! pair instead.

use bytes::Bytes;
use reset_stable::{StableError, StableStore};

use anti_replay::SeqNum;

use crate::dpd::{DpdConfig, DpdDetector};
use crate::esp::{Inbound, Outbound, RxResult};
use crate::sa::SecurityAssociation;
use crate::IpsecError;

/// Control-plane payload tags carried inside protected packets.
const TAG_DATA: u8 = 0;
const TAG_RECOVERY: u8 = 1;
const TAG_PROBE: u8 = 2;
const TAG_PROBE_ACK: u8 = 3;

/// What a processed inbound packet meant to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerEvent {
    /// Application data.
    Data(Bytes),
    /// The peer announced it recovered from a reset; its new send counter
    /// starts at `seq`.
    PeerRecovered {
        /// The announced (leaped) sequence number.
        seq: SeqNum,
    },
    /// The peer asked "R U THERE"; answer with
    /// [`IpsecPeer::make_probe_ack`].
    ProbeReceived,
    /// The peer answered our probe.
    ProbeAck,
    /// Authenticated but rejected by anti-replay (includes replayed
    /// recovery notifies — the §6 attack).
    Rejected,
    /// Dropped (endpoint down) or buffered (waking).
    NotProcessed,
}

/// One host's half of a bidirectional SA pair with DPD and recovery.
///
/// # Examples
///
/// See [`crate`] docs and `tests/it_recovery.rs` for the full §6
/// scenario.
#[derive(Debug, Clone)]
pub struct IpsecPeer<S> {
    name: &'static str,
    out: Outbound<S>,
    inb: Inbound<S>,
    dpd: DpdDetector,
}

impl<S: StableStore> IpsecPeer<S> {
    /// Builds a peer from its two directional SAs and stores.
    // One parameter per SA-pair ingredient; a builder would obscure that
    // the two directions are symmetric.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &'static str,
        sa_out: SecurityAssociation,
        sa_in: SecurityAssociation,
        store_out: S,
        store_in: S,
        k: u64,
        w: u64,
        dpd: DpdConfig,
    ) -> Self {
        IpsecPeer {
            name,
            out: Outbound::new(sa_out, store_out, k),
            inb: Inbound::new(sa_in, store_in, k, w),
            dpd: DpdDetector::new(dpd),
        }
    }

    /// This peer's name (for traces).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The outbound endpoint.
    pub fn outbound(&self) -> &Outbound<S> {
        &self.out
    }

    /// The inbound endpoint.
    pub fn inbound(&self) -> &Inbound<S> {
        &self.inb
    }

    /// The DPD detector.
    pub fn dpd(&self) -> &DpdDetector {
        &self.dpd
    }

    /// Mutable DPD access (for polling).
    pub fn dpd_mut(&mut self) -> &mut DpdDetector {
        &mut self.dpd
    }

    /// Mutable outbound access — escape hatch for store fault injection.
    pub fn outbound_mut(&mut self) -> &mut Outbound<S> {
        &mut self.out
    }

    /// Mutable inbound access — escape hatch for store fault injection.
    pub fn inbound_mut(&mut self) -> &mut Inbound<S> {
        &mut self.inb
    }

    /// Protects application data. `None` while down/waking.
    ///
    /// # Errors
    ///
    /// Propagates datapath errors.
    pub fn send_data(&mut self, payload: &[u8]) -> Result<Option<Bytes>, IpsecError> {
        let mut framed = Vec::with_capacity(payload.len() + 1);
        framed.push(TAG_DATA);
        framed.extend_from_slice(payload);
        self.out.protect(&framed)
    }

    /// Builds an R-U-THERE probe.
    ///
    /// # Errors
    ///
    /// Propagates datapath errors.
    pub fn make_probe(&mut self) -> Result<Option<Bytes>, IpsecError> {
        self.out.protect(&[TAG_PROBE])
    }

    /// Builds a probe acknowledgement.
    ///
    /// # Errors
    ///
    /// Propagates datapath errors.
    pub fn make_probe_ack(&mut self) -> Result<Option<Bytes>, IpsecError> {
        self.out.protect(&[TAG_PROBE_ACK])
    }

    /// Background-save completion passthroughs (simulator hooks).
    ///
    /// # Errors
    ///
    /// Store failures (retryable).
    pub fn save_completed_out(&mut self) -> Result<(), StableError> {
        self.out.save_completed()
    }

    /// See [`IpsecPeer::save_completed_out`].
    ///
    /// # Errors
    ///
    /// Store failures (retryable).
    pub fn save_completed_in(&mut self) -> Result<(), StableError> {
        self.inb.save_completed()
    }

    /// A reset strikes this host: both directions lose volatile state.
    pub fn reset(&mut self) {
        self.out.reset();
        self.inb.reset();
    }

    /// Wake up after a reset: FETCH + leap both directions, then build
    /// the §6 secured recovery notify carrying the new sequence number
    /// (in its authenticated header).
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn recover(&mut self) -> Result<Bytes, IpsecError> {
        self.out.wake_up()?;
        self.inb.wake_up()?;
        let wire = self
            .out
            .protect(&[TAG_RECOVERY])?
            .expect("endpoint is up right after wake_up");
        Ok(wire)
    }

    /// Processes one inbound wire packet at `now_ns` (for DPD).
    ///
    /// # Errors
    ///
    /// Wire/auth errors (forgery, foreign SPI). Replays are NOT errors —
    /// they surface as [`PeerEvent::Rejected`].
    pub fn handle_wire(&mut self, wire: &Bytes, now_ns: u64) -> Result<PeerEvent, IpsecError> {
        match self.inb.process(wire)? {
            RxResult::Delivered { payload, seq } => {
                // Authenticated traffic proves liveness.
                self.dpd.on_traffic(now_ns);
                Ok(match payload.first() {
                    Some(&TAG_DATA) => PeerEvent::Data(payload.slice(1..)),
                    Some(&TAG_RECOVERY) => PeerEvent::PeerRecovered { seq },
                    Some(&TAG_PROBE) => PeerEvent::ProbeReceived,
                    Some(&TAG_PROBE_ACK) => PeerEvent::ProbeAck,
                    _ => PeerEvent::Data(payload), // untagged legacy data
                })
            }
            RxResult::AntiReplay { .. } | RxResult::Rejected(_) => Ok(PeerEvent::Rejected),
            RxResult::Buffered | RxResult::DroppedDown => Ok(PeerEvent::NotProcessed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::SaKeys;
    use reset_stable::MemStable;

    /// Builds the two ends of a bidirectional pair (A⇄B).
    fn peer_pair(k: u64, w: u64) -> (IpsecPeer<MemStable>, IpsecPeer<MemStable>) {
        let keys_ab = SaKeys::derive(b"master", b"a->b");
        let keys_ba = SaKeys::derive(b"master", b"b->a");
        let sa_ab = |spi| SecurityAssociation::new(spi, keys_ab.clone());
        let sa_ba = |spi| SecurityAssociation::new(spi, keys_ba.clone());
        let a = IpsecPeer::new(
            "A",
            sa_ab(0xA2B),
            sa_ba(0xB2A),
            MemStable::new(),
            MemStable::new(),
            k,
            w,
            DpdConfig::default(),
        );
        let b = IpsecPeer::new(
            "B",
            sa_ba(0xB2A),
            sa_ab(0xA2B),
            MemStable::new(),
            MemStable::new(),
            k,
            w,
            DpdConfig::default(),
        );
        (a, b)
    }

    #[test]
    fn bidirectional_data_flow() {
        let (mut a, mut b) = peer_pair(10, 64);
        let wire = a.send_data(b"hello b").unwrap().unwrap();
        assert_eq!(
            b.handle_wire(&wire, 0).unwrap(),
            PeerEvent::Data(Bytes::from_static(b"hello b"))
        );
        let wire = b.send_data(b"hello a").unwrap().unwrap();
        assert_eq!(
            a.handle_wire(&wire, 0).unwrap(),
            PeerEvent::Data(Bytes::from_static(b"hello a"))
        );
    }

    #[test]
    fn probe_round_trip() {
        let (mut a, mut b) = peer_pair(10, 64);
        let probe = a.make_probe().unwrap().unwrap();
        assert_eq!(b.handle_wire(&probe, 0).unwrap(), PeerEvent::ProbeReceived);
        let ack = b.make_probe_ack().unwrap().unwrap();
        assert_eq!(a.handle_wire(&ack, 0).unwrap(), PeerEvent::ProbeAck);
    }

    #[test]
    fn section6_recovery_accepted_replay_rejected() {
        let (mut a, mut b) = peer_pair(10, 64);
        // Steady traffic both ways.
        for i in 0..30u32 {
            let w1 = a.send_data(format!("a{i}").as_bytes()).unwrap().unwrap();
            b.handle_wire(&w1, i as u64).unwrap();
            let w2 = b.send_data(format!("b{i}").as_bytes()).unwrap().unwrap();
            a.handle_wire(&w2, i as u64).unwrap();
        }
        // Make B's saves durable, then crash B.
        b.save_completed_out().unwrap();
        b.save_completed_in().unwrap();
        b.reset();
        // B wakes and emits the secured recovery notify.
        let notify = b.recover().unwrap();
        // A accepts it: the notify's sequence number exceeds A's window
        // edge (leap guarantees it).
        match a.handle_wire(&notify, 1_000).unwrap() {
            PeerEvent::PeerRecovered { seq } => {
                assert!(seq.value() > 30, "leaped seq {seq}");
            }
            other => panic!("{other:?}"),
        }
        // The adversary replays the very same notify later: rejected by
        // the anti-replay window (not by authentication).
        assert_eq!(a.handle_wire(&notify, 2_000).unwrap(), PeerEvent::Rejected);
        // Traffic resumes in both directions. B→A is immediate (B's send
        // counter leaped above A's window). A→B sacrifices at most 2K
        // fresh messages — A's counter sits inside B's leaped window —
        // then flows again: exactly §5 condition (ii).
        let w = b.send_data(b"back online").unwrap().unwrap();
        assert!(matches!(
            a.handle_wire(&w, 3_000).unwrap(),
            PeerEvent::Data(_)
        ));
        let mut sacrificed = 0u64;
        loop {
            let w = a.send_data(b"welcome back").unwrap().unwrap();
            match b.handle_wire(&w, 3_000).unwrap() {
                PeerEvent::Data(_) => break,
                PeerEvent::Rejected => sacrificed += 1,
                other => panic!("{other:?}"),
            }
            assert!(sacrificed <= 2 * 10, "condition (ii) bound violated");
        }
        assert!(sacrificed <= 2 * 10);
    }

    #[test]
    fn replayed_old_data_rejected_after_recovery() {
        let (mut a, mut b) = peer_pair(10, 64);
        let mut recorded = Vec::new();
        for i in 0..25u32 {
            let w = b.send_data(format!("pre-{i}").as_bytes()).unwrap().unwrap();
            recorded.push(w.clone());
            a.handle_wire(&w, i as u64).unwrap();
        }
        b.save_completed_out().unwrap();
        b.reset();
        let notify = b.recover().unwrap();
        a.handle_wire(&notify, 100).unwrap();
        // Replaying all pre-reset traffic from B: every packet rejected.
        for w in &recorded {
            assert_eq!(a.handle_wire(w, 200).unwrap(), PeerEvent::Rejected);
        }
    }

    #[test]
    fn rolled_back_store_keeps_the_peer_down() {
        use reset_stable::{Fault, FaultyStable};
        let keys_ab = SaKeys::derive(b"master", b"a->b");
        let keys_ba = SaKeys::derive(b"master", b"b->a");
        let mut b = IpsecPeer::new(
            "B",
            SecurityAssociation::new(0xB2A, keys_ba),
            SecurityAssociation::new(0xA2B, keys_ab),
            FaultyStable::new(MemStable::new()),
            FaultyStable::new(MemStable::new()),
            10,
            64,
            DpdConfig::default(),
        );
        // Two SAVE generations become durable for the send counter.
        for _ in 0..15 {
            b.send_data(b"x").unwrap().unwrap();
        }
        b.save_completed_out().unwrap();
        for _ in 0..10 {
            b.send_data(b"x").unwrap().unwrap();
        }
        b.save_completed_out().unwrap();
        b.reset();
        // The disk was restored from backup: FETCH serves the *first*
        // generation. Leaping from it would re-use live sequence numbers,
        // so recovery must fail closed — no notify, peer stays down.
        b.outbound_mut().store_mut().push_fault(Fault::RollbackLoad);
        let err = b.recover().expect_err("rollback must fail recovery");
        assert!(err.to_string().contains("rollback"), "{err}");
        assert!(
            b.send_data(b"still down").unwrap().is_none(),
            "no traffic from untrusted recovery state"
        );
    }

    #[test]
    fn down_peer_drops_traffic() {
        let (mut a, mut b) = peer_pair(10, 64);
        b.reset();
        let w = a.send_data(b"into the void").unwrap().unwrap();
        assert_eq!(b.handle_wire(&w, 0).unwrap(), PeerEvent::NotProcessed);
        assert!(b.send_data(b"from the void").unwrap().is_none());
    }

    #[test]
    fn double_reset_recovery_still_monotone() {
        let (mut a, mut b) = peer_pair(10, 64);
        for i in 0..15u32 {
            let w = b.send_data(b"x").unwrap().unwrap();
            a.handle_wire(&w, i as u64).unwrap();
        }
        b.save_completed_out().unwrap();
        b.reset();
        let n1 = b.recover().unwrap();
        let s1 = match a.handle_wire(&n1, 100).unwrap() {
            PeerEvent::PeerRecovered { seq } => seq,
            other => panic!("{other:?}"),
        };
        // Immediately reset again (before any further background save).
        b.reset();
        let n2 = b.recover().unwrap();
        let s2 = match a.handle_wire(&n2, 200).unwrap() {
            PeerEvent::PeerRecovered { seq } => seq,
            other => panic!("{other:?}"),
        };
        assert!(s2 > s1, "second recovery strictly beyond the first");
    }
}
