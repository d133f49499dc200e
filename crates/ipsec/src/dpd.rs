//! Dead peer detection — the §6 trigger for keeping SAs alive.
//!
//! The paper's prolonged-reset scheme: a host that notices its peer is
//! unreachable (the paper mentions ICMP unreachable, RFC 792; the IETF
//! drafts it cites use traffic-based DPD probes) keeps the SA pair alive
//! for a bounded grace period instead of deleting it. If the peer wakes
//! up and proves liveness within the grace period, the SAs resume via
//! SAVE/FETCH; if not, they are torn down — the paper warns the wait
//! cannot be unbounded "otherwise an adversary will have enough time to
//! apply cryptographic analysis".
//!
//! Timing here is plain `u64` nanoseconds so the type works under the
//! simulator or a real clock.

/// What the DPD state machine wants the host to do now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpdAction {
    /// Nothing to do.
    Idle,
    /// Send an R-U-THERE probe to the peer.
    SendProbe,
    /// The peer is presumed down: keep SAs alive, start the grace timer.
    PeerPresumedDown,
    /// The grace period expired: tear the SAs down (IETF behaviour).
    TearDown,
}

/// Configuration of the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpdConfig {
    /// Silence after which we start probing.
    pub idle_timeout_ns: u64,
    /// Gap between successive probes.
    pub probe_interval_ns: u64,
    /// Probes without answer before declaring the peer down.
    pub max_probes: u32,
    /// How long SAs stay alive awaiting the peer's recovery (§6: bounded!).
    pub grace_period_ns: u64,
}

impl Default for DpdConfig {
    fn default() -> Self {
        DpdConfig {
            idle_timeout_ns: 10_000_000_000,  // 10 s
            probe_interval_ns: 2_000_000_000, // 2 s
            max_probes: 3,
            grace_period_ns: 60_000_000_000, // 60 s
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum DpdPhase {
    /// Traffic (or probe replies) flowing normally.
    #[default]
    Alive,
    /// Probing after silence.
    Probing {
        probes_sent: u32,
        last_probe_ns: u64,
    },
    /// Peer presumed down; grace timer running.
    Grace { since_ns: u64 },
    /// SAs torn down.
    Dead,
}

/// Traffic-based dead peer detection with a §6 grace period.
///
/// The detector is the per-SA state only (24 bytes); the timing
/// parameters are the host's one [`DpdConfig`], handed to the calls that
/// read them, so a fleet does not keep a copy per SA.
///
/// # Examples
///
/// ```
/// use reset_ipsec::{DpdAction, DpdConfig, DpdDetector};
///
/// let cfg = DpdConfig {
///     idle_timeout_ns: 1_000,
///     probe_interval_ns: 500,
///     max_probes: 2,
///     grace_period_ns: 10_000,
/// };
/// let mut dpd = DpdDetector::new();
/// dpd.on_traffic(0);
/// assert_eq!(dpd.poll(500, &cfg), DpdAction::Idle);      // recent traffic
/// assert_eq!(dpd.poll(1_500, &cfg), DpdAction::SendProbe); // silence
/// ```
#[derive(Debug, Clone, Default)]
pub struct DpdDetector {
    last_heard_ns: u64,
    phase: DpdPhase,
}

impl DpdDetector {
    /// A detector that assumes the peer was alive at time 0.
    pub fn new() -> Self {
        DpdDetector::default()
    }

    /// Notes authenticated traffic (or a probe ack) from the peer.
    /// Anything unauthenticated must NOT reach this method — otherwise an
    /// adversary could keep a dead SA alive forever.
    pub fn on_traffic(&mut self, now_ns: u64) {
        self.last_heard_ns = now_ns;
        if self.phase != DpdPhase::Dead {
            self.phase = DpdPhase::Alive;
        }
    }

    /// True while the SAs should still exist (alive, probing or grace).
    pub fn sas_alive(&self) -> bool {
        self.phase != DpdPhase::Dead
    }

    /// True once the peer is presumed down but within grace — the window
    /// in which a §6 recovery notify will be honoured.
    pub fn in_grace(&self) -> bool {
        matches!(self.phase, DpdPhase::Grace { .. })
    }

    /// The earliest instant at which [`DpdDetector::poll`] under `cfg`
    /// could do anything other than return [`DpdAction::Idle`] — the
    /// deadline a heap should arm for this detector. `None` means the
    /// detector never transitions again on its own: either it is
    /// `Dead`, or the deadline arithmetic would overflow `u64`
    /// nanoseconds (in which case `poll`'s saturating subtraction can
    /// never reach the threshold either, so "never" is exact, not an
    /// approximation).
    pub fn next_deadline(&self, cfg: &DpdConfig) -> Option<u64> {
        match self.phase {
            DpdPhase::Alive => self.last_heard_ns.checked_add(cfg.idle_timeout_ns),
            // Both the next probe and the presumed-down verdict fire
            // one probe interval after the last probe.
            DpdPhase::Probing { last_probe_ns, .. } => {
                last_probe_ns.checked_add(cfg.probe_interval_ns)
            }
            DpdPhase::Grace { since_ns } => since_ns.checked_add(cfg.grace_period_ns),
            DpdPhase::Dead => None,
        }
    }

    /// Advances the detector to `now_ns` under `cfg` and reports the
    /// action to take.
    pub fn poll(&mut self, now_ns: u64, cfg: &DpdConfig) -> DpdAction {
        match self.phase {
            DpdPhase::Dead => DpdAction::TearDown,
            DpdPhase::Alive => {
                if now_ns.saturating_sub(self.last_heard_ns) >= cfg.idle_timeout_ns {
                    self.phase = DpdPhase::Probing {
                        probes_sent: 1,
                        last_probe_ns: now_ns,
                    };
                    DpdAction::SendProbe
                } else {
                    DpdAction::Idle
                }
            }
            DpdPhase::Probing {
                probes_sent,
                last_probe_ns,
            } => {
                if now_ns.saturating_sub(last_probe_ns) < cfg.probe_interval_ns {
                    return DpdAction::Idle;
                }
                if probes_sent >= cfg.max_probes {
                    self.phase = DpdPhase::Grace { since_ns: now_ns };
                    DpdAction::PeerPresumedDown
                } else {
                    self.phase = DpdPhase::Probing {
                        probes_sent: probes_sent + 1,
                        last_probe_ns: now_ns,
                    };
                    DpdAction::SendProbe
                }
            }
            DpdPhase::Grace { since_ns } => {
                if now_ns.saturating_sub(since_ns) >= cfg.grace_period_ns {
                    self.phase = DpdPhase::Dead;
                    DpdAction::TearDown
                } else {
                    DpdAction::Idle
                }
            }
        }
    }
}

/// A receiving SA's dead-peer state on a [`crate::Gateway`]: its
/// detector, and the deadline of its one live entry in the gateway's
/// deadline heap. The heap has no cancel: an entry that fires with any
/// other deadline — superseded, or scheduled for a previous owner of the
/// SPI — is stale and ignored.
#[derive(Debug, Clone, Default)]
pub(crate) struct DpdState {
    /// `None` until the first clock reading (and always, when DPD is off).
    pub(crate) detector: Option<DpdDetector>,
    /// Deadline of the SPI's single live heap entry.
    pub(crate) deadline: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DpdConfig {
        DpdConfig {
            idle_timeout_ns: 1_000,
            probe_interval_ns: 500,
            max_probes: 3,
            grace_period_ns: 10_000,
        }
    }

    #[test]
    fn quiet_then_probe_sequence() {
        let (mut d, c) = (DpdDetector::new(), cfg());
        d.on_traffic(100);
        assert_eq!(d.poll(500, &c), DpdAction::Idle);
        assert_eq!(d.poll(1_200, &c), DpdAction::SendProbe); // probe 1
        assert_eq!(d.poll(1_400, &c), DpdAction::Idle); // too soon
        assert_eq!(d.poll(1_800, &c), DpdAction::SendProbe); // probe 2
        assert_eq!(d.poll(2_400, &c), DpdAction::SendProbe); // probe 3
        assert_eq!(d.poll(3_000, &c), DpdAction::PeerPresumedDown);
        assert!(d.in_grace());
        assert!(d.sas_alive(), "grace keeps SAs");
    }

    #[test]
    fn traffic_during_probing_revives() {
        let (mut d, c) = (DpdDetector::new(), cfg());
        d.on_traffic(0);
        assert_eq!(d.poll(1_100, &c), DpdAction::SendProbe);
        d.on_traffic(1_200); // probe answered
        assert_eq!(d.poll(1_700, &c), DpdAction::Idle);
        assert!(d.sas_alive());
        assert!(!d.in_grace());
    }

    #[test]
    fn grace_expiry_tears_down() {
        let (mut d, c) = (DpdDetector::new(), cfg());
        d.on_traffic(0);
        d.poll(1_100, &c); // probe 1
        d.poll(1_700, &c); // probe 2
        d.poll(2_300, &c); // probe 3
        assert_eq!(d.poll(2_900, &c), DpdAction::PeerPresumedDown);
        assert_eq!(d.poll(5_000, &c), DpdAction::Idle); // in grace
        assert_eq!(d.poll(13_000, &c), DpdAction::TearDown);
        assert!(!d.sas_alive());
        // Dead is terminal.
        assert_eq!(d.poll(20_000, &c), DpdAction::TearDown);
    }

    #[test]
    fn recovery_during_grace_revives() {
        let (mut d, c) = (DpdDetector::new(), cfg());
        d.on_traffic(0);
        d.poll(1_100, &c);
        d.poll(1_700, &c);
        d.poll(2_300, &c);
        d.poll(2_900, &c); // presumed down, grace starts
        assert!(d.in_grace());
        // §6: the reset host wakes up and its secured notify arrives
        // within the grace period.
        d.on_traffic(6_000);
        assert!(d.sas_alive());
        assert!(!d.in_grace());
        assert_eq!(d.poll(6_500, &c), DpdAction::Idle);
    }

    /// `next_deadline` must predict exactly when `poll` stops being
    /// `Idle`, in every phase: one tick earlier is `Idle`, at the
    /// deadline it transitions.
    #[test]
    fn next_deadline_predicts_every_transition() {
        let (mut d, c) = (DpdDetector::new(), cfg());
        d.on_traffic(100);
        // Alive: idle timeout after last traffic.
        assert_eq!(d.next_deadline(&c), Some(1_100));
        assert_eq!(d.poll(1_099, &c), DpdAction::Idle);
        assert_eq!(d.poll(1_100, &c), DpdAction::SendProbe);
        // Probing: one probe interval after the last probe — both for
        // the next probe and for the presumed-down verdict.
        assert_eq!(d.next_deadline(&c), Some(1_600));
        assert_eq!(d.poll(1_599, &c), DpdAction::Idle);
        assert_eq!(d.poll(1_600, &c), DpdAction::SendProbe); // probe 2
        assert_eq!(d.next_deadline(&c), Some(2_100));
        assert_eq!(d.poll(2_100, &c), DpdAction::SendProbe); // probe 3
        assert_eq!(d.next_deadline(&c), Some(2_600));
        assert_eq!(d.poll(2_599, &c), DpdAction::Idle);
        assert_eq!(d.poll(2_600, &c), DpdAction::PeerPresumedDown);
        // Grace: grace period after entering it.
        assert_eq!(d.next_deadline(&c), Some(12_600));
        assert_eq!(d.poll(12_599, &c), DpdAction::Idle);
        assert_eq!(d.poll(12_600, &c), DpdAction::TearDown);
        // Dead is terminal: nothing left to arm.
        assert_eq!(d.next_deadline(&c), None);
    }

    /// Regression (the u64-overflow class PR 7 fixed in the save-due
    /// threshold): deadlines computed near `u64::MAX` must not wrap.
    /// A naive `last_heard_ns + idle_timeout_ns` would overflow here —
    /// panicking in debug, or wrapping to a tiny deadline in release
    /// that fires a probe for a peer heard from 10 ns ago.
    #[test]
    fn deadline_arithmetic_near_u64_max_does_not_wrap() {
        let (mut d, c) = (DpdDetector::new(), cfg());
        d.on_traffic(u64::MAX - 10);
        // The true deadline overflows: the detector can never go
        // silent long enough, so there is nothing to arm...
        assert_eq!(d.next_deadline(&c), None);
        // ...which matches poll: even at the end of time the idle gap
        // (10 ns) is below the timeout.
        assert_eq!(d.poll(u64::MAX, &c), DpdAction::Idle);
        assert!(d.sas_alive());

        // Same class in the probing phase: a probe sent near the end
        // of time never gets a follow-up deadline.
        let (mut d, c) = (DpdDetector::new(), cfg());
        d.on_traffic(u64::MAX - 2_000);
        assert_eq!(d.poll(u64::MAX - 100, &c), DpdAction::SendProbe);
        assert_eq!(d.next_deadline(&c), None);
        assert_eq!(d.poll(u64::MAX, &c), DpdAction::Idle);

        // And in grace: entering grace near the end of time keeps the
        // SAs alive (bounded only by the clock itself).
        let cfg_short = DpdConfig {
            idle_timeout_ns: 100,
            probe_interval_ns: 10,
            max_probes: 1,
            grace_period_ns: u64::MAX,
        };
        let (mut d, c) = (DpdDetector::new(), cfg_short);
        d.on_traffic(0);
        assert_eq!(d.poll(200, &c), DpdAction::SendProbe);
        assert_eq!(d.poll(300, &c), DpdAction::PeerPresumedDown);
        assert_eq!(d.next_deadline(&c), None);
        assert_eq!(d.poll(u64::MAX, &c), DpdAction::Idle);
        assert!(d.in_grace());
    }

    #[test]
    fn default_config_is_sane() {
        let c = DpdConfig::default();
        assert!(c.grace_period_ns > c.idle_timeout_ns);
        assert!(c.max_probes >= 1);
    }
}
