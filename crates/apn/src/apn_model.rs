//! The paper's processes, transcribed into the APN runtime.
//!
//! This module wires the protocol state machines into
//! [`System`] so the *exact* nondeterministic semantics of the
//! paper — one action at a time, weak fairness, background SAVEs whose
//! completion races with everything else — can be executed and
//! exhaustively explored.
//!
//! The background SAVE is modelled as its *own action* (`save completes`)
//! whose guard is "a SAVE is pending": the scheduler is free to delay it
//! arbitrarily, which is precisely the paper's "the execution of SAVE
//! takes some time". A reset injected while that action has not fired
//! reproduces the Fig 1/Fig 2 stale-FETCH races without any clock.

use anti_replay::{BaselineReceiver, BaselineSender, Phase, RxOutcome, SeqNum, SfDriver};
use reset_stable::{MemStable, SlotId};

use crate::{ApnProcess, GuardKind, Outbox, ProcId, Schedule, System};

/// Process index of the sender `p`.
pub const P: ProcId = 0;
/// Process index of the receiver `q`.
pub const Q: ProcId = 1;

/// A process of either protocol variant (original §2 or SAVE/FETCH §4).
///
/// Heterogeneous systems need one enum type; the four variants are the
/// paper's two protocols × two roles. A §4 process counts the messages
/// it handled itself, as the baseline processes do: the driver counts
/// nothing.
#[derive(Debug, Clone)]
pub enum PaperProc {
    /// §2 sender: one action, `true → send msg(s); s := s + 1`.
    OrigP(BaselineSender),
    /// §2 receiver: one receive action with the three-case window logic.
    OrigQ(BaselineReceiver),
    /// §4 sender: send action + background-SAVE-completes action.
    SfP {
        /// The SAVE/FETCH sender.
        sf: SfDriver<MemStable>,
        /// Messages sent.
        sent: u64,
    },
    /// §4 receiver: receive action + background-SAVE-completes action.
    SfQ {
        /// The SAVE/FETCH receiver.
        sf: SfDriver<MemStable>,
        /// Messages delivered to the application.
        delivered: u64,
        /// Messages discarded by the window (stale or duplicate).
        discarded: u64,
    },
}

impl PaperProc {
    /// The underlying SAVE/FETCH sender, if this is one.
    pub fn as_sf_sender(&self) -> Option<&SfDriver<MemStable>> {
        match self {
            PaperProc::SfP { sf, .. } => Some(sf),
            _ => None,
        }
    }

    /// The underlying SAVE/FETCH receiver, if this is one.
    pub fn as_sf_receiver(&self) -> Option<&SfDriver<MemStable>> {
        match self {
            PaperProc::SfQ { sf, .. } => Some(sf),
            _ => None,
        }
    }

    /// The underlying baseline receiver, if this is one.
    pub fn as_orig_receiver(&self) -> Option<&BaselineReceiver> {
        match self {
            PaperProc::OrigQ(q) => Some(q),
            _ => None,
        }
    }

    /// Messages a sender of either protocol has sent; `None` for a
    /// receiver.
    pub fn sent(&self) -> Option<u64> {
        match self {
            PaperProc::OrigP(p) => Some(p.total_sent()),
            PaperProc::SfP { sent, .. } => Some(*sent),
            _ => None,
        }
    }

    /// Messages a receiver of either protocol has delivered; `None` for
    /// a sender.
    pub fn delivered(&self) -> Option<u64> {
        match self {
            PaperProc::OrigQ(q) => Some(q.total_delivered()),
            PaperProc::SfQ { delivered, .. } => Some(*delivered),
            _ => None,
        }
    }

    /// Messages a receiver of either protocol has discarded; `None` for
    /// a sender.
    pub fn discarded(&self) -> Option<u64> {
        match self {
            PaperProc::OrigQ(q) => Some(q.total_discarded()),
            PaperProc::SfQ { discarded, .. } => Some(*discarded),
            _ => None,
        }
    }
}

impl ApnProcess for PaperProc {
    type Msg = SeqNum;

    fn name(&self) -> &'static str {
        match self {
            PaperProc::OrigP(_) | PaperProc::SfP { .. } => "p",
            PaperProc::OrigQ(_) | PaperProc::SfQ { .. } => "q",
        }
    }

    fn action_count(&self) -> usize {
        match self {
            PaperProc::OrigP(_) | PaperProc::OrigQ(_) => 1,
            PaperProc::SfP { .. } | PaperProc::SfQ { .. } => 2,
        }
    }

    fn guard(&self, action: usize) -> GuardKind {
        match self {
            PaperProc::OrigP(_) | PaperProc::SfP { .. } => GuardKind::Local,
            PaperProc::OrigQ(_) | PaperProc::SfQ { .. } => {
                if action == 0 {
                    GuardKind::Receive { from: P }
                } else {
                    GuardKind::Local
                }
            }
        }
    }

    fn local_enabled(&self, action: usize) -> bool {
        match self {
            // §2 sender: its single action's guard is literally `true`.
            PaperProc::OrigP(_) => action == 0,
            PaperProc::OrigQ(_) => false,
            PaperProc::SfP { sf, .. } => match action {
                0 => sf.phase() == Phase::Running,
                1 => sf.pending_save().is_some(),
                _ => false,
            },
            PaperProc::SfQ { sf, .. } => action == 1 && sf.pending_save().is_some(),
        }
    }

    fn fire_local(&mut self, action: usize, out: &mut Outbox<SeqNum>) {
        match self {
            PaperProc::OrigP(p) => out.send(Q, p.send_next()),
            PaperProc::OrigQ(_) => unreachable!("orig q has no local action"),
            PaperProc::SfP { sf, sent } if action == 0 => {
                if let Some(seq) = sf.send_next() {
                    *sent += 1;
                    out.send(Q, seq);
                }
            }
            PaperProc::SfP { sf, .. } | PaperProc::SfQ { sf, .. } => {
                sf.save_completed().expect("mem store is infallible");
            }
        }
    }

    fn fire_receive(
        &mut self,
        _action: usize,
        _from: ProcId,
        msg: SeqNum,
        _out: &mut Outbox<SeqNum>,
    ) {
        match self {
            PaperProc::OrigQ(q) => {
                let _ = q.receive(msg);
            }
            PaperProc::SfQ {
                sf,
                delivered,
                discarded,
            } => match sf.receive(msg) {
                RxOutcome::Delivered => *delivered += 1,
                RxOutcome::DiscardedStale | RxOutcome::DiscardedDuplicate => *discarded += 1,
                RxOutcome::Buffered | RxOutcome::DroppedDown => {}
            },
            _ => unreachable!("p has no receive action"),
        }
    }

    fn on_reset(&mut self) {
        match self {
            // The baseline has no down phase: reset and wake collapse.
            PaperProc::OrigP(p) => p.reset_and_wake(),
            PaperProc::OrigQ(q) => q.reset_and_wake(),
            PaperProc::SfP { sf, .. } | PaperProc::SfQ { sf, .. } => sf.reset(),
        }
    }

    fn on_wakeup(&mut self) {
        // The paper's wake-up action is only enabled after a reset; an
        // environment wake of a running process is a no-op, which keeps
        // fault-injection schedules (and exhaustive explorers) free to
        // fire hooks in any order. The wake-up is atomic, so nothing is
        // buffered for it to classify.
        match self {
            PaperProc::OrigP(_) | PaperProc::OrigQ(_) => {}
            PaperProc::SfP { sf, .. } | PaperProc::SfQ { sf, .. } => {
                if sf.phase() == Phase::Down {
                    sf.wake_up().expect("mem store is infallible");
                }
            }
        }
    }
}

/// Builds the §2 (original) protocol system.
///
/// # Examples
///
/// ```
/// use reset_apn::apn_model::{original_system, Q};
/// use reset_apn::Schedule;
///
/// let mut sys = original_system(32, Schedule::RoundRobin);
/// sys.run(100);
/// let q = sys.proc(Q).as_orig_receiver().unwrap();
/// assert!(q.total_delivered() > 0);
/// ```
pub fn original_system(w: u64, schedule: Schedule) -> System<PaperProc> {
    System::new(
        vec![
            PaperProc::OrigP(BaselineSender::new()),
            PaperProc::OrigQ(BaselineReceiver::new(w)),
        ],
        schedule,
    )
}

/// Builds the §4 (SAVE/FETCH) protocol system with save intervals `kp`
/// and `kq` and window size `w`. Each process gets its own in-memory
/// persistent store, surviving injected resets.
pub fn savefetch_system(kp: u64, kq: u64, w: u64, schedule: Schedule) -> System<PaperProc> {
    System::new(
        vec![
            PaperProc::SfP {
                sf: SfDriver::sender(MemStable::new(), SlotId::sender(1), kp),
                sent: 0,
            },
            PaperProc::SfQ {
                sf: SfDriver::receiver(MemStable::new(), SlotId::receiver(1), kq, w),
                delivered: 0,
                discarded: 0,
            },
        ],
        schedule,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use reset_sim::DetRng;

    fn right_edge(sys: &System<PaperProc>) -> SeqNum {
        let q = sys.proc(Q).as_sf_receiver().unwrap();
        q.machine().window().unwrap().right_edge()
    }

    #[test]
    fn original_protocol_delivers_in_order_traffic() {
        let mut sys = original_system(32, Schedule::RoundRobin);
        sys.run(200);
        let delivered = sys.proc(Q).delivered().unwrap();
        assert!(delivered >= 90, "delivered {delivered}");
        assert_eq!(
            sys.proc(Q).discarded(),
            Some(0),
            "clean channel, no discards"
        );
    }

    #[test]
    fn savefetch_protocol_runs_and_saves() {
        let mut sys = savefetch_system(5, 5, 32, Schedule::RoundRobin);
        sys.run(300);
        assert!(sys.proc(P).sent().unwrap() > 50);
        assert!(sys.proc(Q).delivered().unwrap() > 50);
        // `lst` starts at 1 (sender) / 0 (receiver) and moves, without a
        // reset, only when a SAVE is issued.
        assert!(sys.proc(P).as_sf_sender().unwrap().last_stored() > 1);
        assert!(sys.proc(Q).as_sf_receiver().unwrap().last_stored() > 0);
    }

    #[test]
    fn reset_wakeup_roundtrip_under_apn() {
        let mut sys = savefetch_system(5, 5, 32, Schedule::RoundRobin);
        sys.run(100);
        let edge_before = right_edge(&sys);
        sys.inject_reset(Q);
        sys.inject_wakeup(Q);
        let edge_after = right_edge(&sys);
        assert!(
            edge_after >= edge_before,
            "leaped edge {edge_after} must cover pre-reset edge {edge_before}"
        );
        // Continue running: traffic eventually flows again (sender seqs
        // catch up past the leaped edge).
        sys.run(2000);
        assert!(sys.proc(Q).delivered().unwrap() > 0);
    }

    #[test]
    fn random_schedule_reproducible() {
        let run = |seed: u64| {
            let mut sys = savefetch_system(3, 3, 16, Schedule::Random(DetRng::new(seed)));
            sys.run(500);
            (sys.proc(Q).delivered().unwrap(), right_edge(&sys))
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn adversary_injection_under_apn_is_rejected() {
        let mut sys = savefetch_system(5, 5, 32, Schedule::RoundRobin);
        sys.run(200);
        let delivered_before = sys.proc(Q).delivered().unwrap();
        // Replay sequence number 1 three times.
        for _ in 0..3 {
            sys.inject(P, Q, SeqNum::new(1));
        }
        sys.run(50);
        assert!(sys.proc(Q).discarded().unwrap() >= 3);
        // Deliveries continue but none of the replays got through: the
        // delivered count only grows by fresh traffic (seq > edge).
        assert!(sys.proc(Q).delivered().unwrap() >= delivered_before);
    }
}
