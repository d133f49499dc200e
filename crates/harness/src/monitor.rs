//! Online convergence monitor — ground truth for the paper's theorem.
//!
//! The scenario runner attaches one [`Monitor`] per SA next to the
//! gateway pair and feeds it every send, delivery and discard. The
//! monitor checks, *while the run executes*, the three §5 guarantees:
//!
//! * **No replay accepted** — no sequence number is ever delivered twice
//!   (Discrimination). Under the broken §3 baseline this is also what an
//!   accepted adversary replay or a reused post-reset counter produces.
//! * **Condition (i)** — a sender reset wastes at most `2Kp` sequence
//!   numbers, and (absent reorder) no fresh message is discarded.
//! * **Condition (ii)** — a receiver reset causes at most `2Kq` fresh
//!   discards.
//!
//! Identity model: every *send* is one **instance** with a caller-chosen
//! [`MsgId`]; channel duplicates and adversary copies carry the same id
//! as the instance they copy. Sequence numbers alone cannot serve as
//! identity because the broken baseline *reuses* them after a reset —
//! precisely the behaviour under test. The monitor is deliberately
//! independent of the protocol code: it keeps its own delivered sets, so
//! a protocol bug cannot hide from it.

use std::collections::HashSet;

use anti_replay::SeqNum;

/// Identity of one sent message instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct MsgId(pub(crate) u64);

/// Where a received packet copy came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Origin {
    /// The sender's original transmission.
    Original,
    /// A duplicate created by the channel.
    ChannelDup,
    /// A copy injected by the adversary (a replay).
    Adversary,
}

/// A violation of a §5 guarantee, found by the scenario's monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A sequence number was delivered more than once — Discrimination
    /// broken; equivalently, a replayed (or counter-reusing) message was
    /// accepted.
    DoubleDelivery {
        /// The offending sequence number.
        seq: SeqNum,
    },
    /// A sender wake-up resumed at or below a previously used number.
    StaleResume {
        /// Where the sender resumed.
        resumed: SeqNum,
        /// The highest sequence number used before the reset.
        max_used: SeqNum,
    },
    /// More sequence numbers were wasted by a leap than `2K`.
    LeapTooLarge {
        /// Observed waste.
        lost: u64,
        /// The `2K` bound.
        bound: u64,
    },
}

/// Ground-truth results of a monitored scenario run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Messages sent by the sender (original instances).
    pub sent: u64,
    /// Instances that reached the application (through any copy).
    pub fresh_delivered: u64,
    /// Original instances discarded without ever being delivered — the
    /// §5(ii) casualty count.
    pub fresh_discarded: u64,
    /// Sequence numbers delivered twice — accepted replays / reuse. Must
    /// be 0 under SAVE/FETCH; grows without bound under the §3 baseline.
    pub replays_accepted: u64,
    /// Adversary-injected copies rejected by the receiver.
    pub replays_rejected: u64,
    /// Adversary copies that were the *first* delivery of their instance
    /// (the original was lost). Benign: Discrimination still holds; the
    /// adversary merely played postman.
    pub adversary_first_deliveries: u64,
    /// Sequence numbers wasted by sender leaps (§5(i)).
    pub seqs_lost_to_leaps: u64,
    /// Detected violations (empty = the theorem held).
    pub violations: Vec<Violation>,
}

impl Report {
    /// True iff no guarantee was violated.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another SA's report into this one: counters sum,
    /// violations concatenate. Fleet scenarios (one [`Monitor`] per
    /// SA) merge their per-SA reports into one aggregate this way —
    /// the fold lives here, next to the fields, so a counter added to
    /// [`Report`] cannot be silently dropped from aggregates.
    pub(crate) fn merge(&mut self, other: &Report) {
        let Report {
            sent,
            fresh_delivered,
            fresh_discarded,
            replays_accepted,
            replays_rejected,
            adversary_first_deliveries,
            seqs_lost_to_leaps,
            violations,
        } = other;
        self.sent += sent;
        self.fresh_delivered += fresh_delivered;
        self.fresh_discarded += fresh_discarded;
        self.replays_accepted += replays_accepted;
        self.replays_rejected += replays_rejected;
        self.adversary_first_deliveries += adversary_first_deliveries;
        self.seqs_lost_to_leaps += seqs_lost_to_leaps;
        self.violations.extend(violations.iter().cloned());
    }
}

/// Ground-truth tracker for one unidirectional SA.
#[derive(Debug, Clone, Default)]
pub(crate) struct Monitor {
    delivered_seqs: HashSet<u64>,
    delivered_instances: HashSet<MsgId>,
    discarded_instances: HashSet<MsgId>,
    max_used: u64,
    report: Report,
}

impl Monitor {
    /// A fresh monitor.
    pub(crate) fn new() -> Self {
        Monitor::default()
    }

    /// Records an original transmission.
    pub(crate) fn on_send(&mut self, seq: SeqNum) {
        self.report.sent += 1;
        self.max_used = self.max_used.max(seq.value());
    }

    /// Records a delivery of a copy of instance `id` (if known) carrying
    /// `seq`, received via `origin`.
    pub(crate) fn on_deliver(&mut self, id: Option<MsgId>, seq: SeqNum, origin: Origin) {
        if !self.delivered_seqs.insert(seq.value()) {
            // Discrimination broken: this sequence number already reached
            // the application once.
            self.report
                .violations
                .push(Violation::DoubleDelivery { seq });
            self.report.replays_accepted += 1;
            return;
        }
        let first_for_instance = match id {
            Some(id) => self.delivered_instances.insert(id),
            None => true,
        };
        if first_for_instance {
            self.report.fresh_delivered += 1;
        }
        if origin == Origin::Adversary {
            self.report.adversary_first_deliveries += 1;
        }
    }

    /// Records a discard of a copy of instance `id`.
    pub(crate) fn on_discard(&mut self, id: Option<MsgId>, origin: Origin) {
        match origin {
            Origin::Original => {
                // A discarded original whose instance never got delivered
                // through any other copy is a lost fresh message. Count
                // each instance at most once.
                let delivered = id
                    .map(|i| self.delivered_instances.contains(&i))
                    .unwrap_or(false);
                let already = id
                    .map(|i| !self.discarded_instances.insert(i))
                    .unwrap_or(false);
                if !delivered && !already {
                    self.report.fresh_discarded += 1;
                }
            }
            Origin::Adversary => self.report.replays_rejected += 1,
            Origin::ChannelDup => {}
        }
    }

    /// Records a sender wake-up: it previously would have used
    /// `old_next`, and resumed at `resumed`. Checks freshness and the
    /// `2K` waste bound.
    pub(crate) fn on_sender_wakeup(&mut self, old_next: SeqNum, resumed: SeqNum, k: u64) {
        if resumed.value() <= self.max_used {
            self.report.violations.push(Violation::StaleResume {
                resumed,
                max_used: SeqNum::new(self.max_used),
            });
        }
        let lost = resumed.gap_from(old_next);
        self.report.seqs_lost_to_leaps += lost;
        if lost > 2 * k {
            self.report
                .violations
                .push(Violation::LeapTooLarge { lost, bound: 2 * k });
        }
    }

    /// Finalizes the run.
    pub(crate) fn into_report(self) -> Report {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> SeqNum {
        SeqNum::new(v)
    }

    #[test]
    fn rejected_replay_keeps_the_report_clean() {
        let mut m = Monitor::new();
        m.on_send(n(1));
        m.on_deliver(Some(MsgId(0)), n(1), Origin::Original);
        // The adversary replays it; the protocol (correctly) rejects:
        m.on_discard(Some(MsgId(0)), Origin::Adversary);
        let report = m.into_report();
        assert!(report.clean());
        assert_eq!(report.replays_rejected, 1);
    }

    #[test]
    fn merge_sums_counters_and_concatenates_violations() {
        let mut a = Monitor::new();
        a.on_send(n(1));
        a.on_deliver(Some(MsgId(0)), n(1), Origin::Original);
        a.on_discard(Some(MsgId(0)), Origin::Adversary);
        let mut b = Monitor::new();
        b.on_send(n(1));
        b.on_deliver(Some(MsgId(1)), n(1), Origin::Original);
        b.on_deliver(Some(MsgId(1)), n(1), Origin::Adversary); // double
        let mut total = a.into_report();
        total.merge(&b.into_report());
        assert_eq!(total.sent, 2);
        assert_eq!(total.fresh_delivered, 2);
        assert_eq!(total.replays_rejected, 1);
        assert_eq!(total.replays_accepted, 1);
        assert_eq!(total.violations.len(), 1);
        assert!(!total.clean(), "one dirty SA dirties the aggregate");
    }

    #[test]
    fn clean_run_reports_clean() {
        let mut m = Monitor::new();
        for s in 1..=10u64 {
            m.on_send(n(s));
            m.on_deliver(Some(MsgId(s)), n(s), Origin::Original);
        }
        let r = m.into_report();
        assert!(r.clean());
        assert_eq!(r.sent, 10);
        assert_eq!(r.fresh_delivered, 10);
        assert_eq!(r.fresh_discarded, 0);
    }

    #[test]
    fn double_delivery_is_flagged() {
        let mut m = Monitor::new();
        m.on_send(n(1));
        m.on_deliver(Some(MsgId(0)), n(1), Origin::Original);
        m.on_deliver(Some(MsgId(0)), n(1), Origin::Adversary);
        let r = m.into_report();
        assert!(!r.clean());
        assert_eq!(r.replays_accepted, 1);
        assert!(matches!(
            r.violations[0],
            Violation::DoubleDelivery { seq } if seq == n(1)
        ));
    }

    #[test]
    fn seq_reuse_across_incarnations_is_double_delivery() {
        // The §3 baseline reuses sequence numbers after a sender reset;
        // delivering the reused number is indistinguishable from an
        // accepted replay.
        let mut m = Monitor::new();
        m.on_send(n(1));
        m.on_deliver(Some(MsgId(0)), n(1), Origin::Original);
        m.on_send(n(1)); // reused counter, new instance
        m.on_deliver(Some(MsgId(1)), n(1), Origin::Original);
        assert_eq!(m.report.replays_accepted, 1);
    }

    #[test]
    fn adversary_first_delivery_is_benign_but_counted() {
        // Original was lost in transit; adversary's copy delivered first.
        let mut m = Monitor::new();
        m.on_send(n(5));
        m.on_deliver(Some(MsgId(0)), n(5), Origin::Adversary);
        let r = m.into_report();
        assert_eq!(r.adversary_first_deliveries, 1);
        assert_eq!(r.replays_accepted, 0);
        assert!(r.clean(), "discrimination not violated");
    }

    #[test]
    fn discarded_fresh_counted_once_per_instance() {
        let mut m = Monitor::new();
        m.on_send(n(1));
        m.on_deliver(Some(MsgId(0)), n(1), Origin::Original);
        m.on_discard(Some(MsgId(0)), Origin::ChannelDup); // dup rejected: fine
        m.on_send(n(2));
        m.on_discard(Some(MsgId(1)), Origin::Original); // real fresh loss
        m.on_discard(Some(MsgId(1)), Origin::Original); // repeat not recounted
        let r = m.into_report();
        assert_eq!(r.fresh_discarded, 1);
        assert!(r.clean());
    }

    #[test]
    fn discard_after_adversary_delivered_instance_not_fresh_loss() {
        // Adversary copy beat the original; the late original's discard
        // is not a loss — the instance reached the application.
        let mut m = Monitor::new();
        m.on_send(n(3));
        m.on_deliver(Some(MsgId(0)), n(3), Origin::Adversary);
        m.on_discard(Some(MsgId(0)), Origin::Original);
        let r = m.into_report();
        assert_eq!(r.fresh_discarded, 0);
        assert_eq!(r.fresh_delivered, 1);
    }

    #[test]
    fn sender_wakeup_freshness_checked() {
        let mut m = Monitor::new();
        for s in 1..=30u64 {
            m.on_send(n(s));
        }
        // Good resume: above max_used, waste within 2K.
        m.on_sender_wakeup(n(31), n(41), 10);
        assert!(m.report.clean());
        assert_eq!(m.report.seqs_lost_to_leaps, 10);
        // Bad resume: at or below max_used.
        m.on_sender_wakeup(n(31), n(30), 10);
        assert!(matches!(
            m.report.violations[0],
            Violation::StaleResume { .. }
        ));
    }

    #[test]
    fn oversized_leap_flagged() {
        let mut m = Monitor::new();
        m.on_send(n(1));
        m.on_sender_wakeup(n(2), n(100), 10);
        assert!(m.report.violations.iter().any(|v| matches!(
            v,
            Violation::LeapTooLarge {
                lost: 98,
                bound: 20
            }
        )));
    }

    #[test]
    fn replay_rejection_counted() {
        let mut m = Monitor::new();
        m.on_send(n(1));
        m.on_deliver(Some(MsgId(0)), n(1), Origin::Original);
        for _ in 0..5 {
            m.on_discard(Some(MsgId(0)), Origin::Adversary);
        }
        assert_eq!(m.report.replays_rejected, 5);
    }
}
