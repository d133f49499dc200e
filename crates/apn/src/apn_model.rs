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

use anti_replay::{BaselineReceiver, BaselineSender, Phase, SeqNum, SfReceiver, SfSender};
use reset_stable::{MemStable, SlotId};

use crate::{ApnProcess, GuardKind, Outbox, ProcId, Schedule, System};

/// Process index of the sender `p`.
pub const P: ProcId = 0;
/// Process index of the receiver `q`.
pub const Q: ProcId = 1;

/// A process of either protocol variant (original §2 or SAVE/FETCH §4).
///
/// Heterogeneous systems need one enum type; the four variants are the
/// paper's two protocols × two roles.
#[derive(Debug, Clone)]
pub enum PaperProc {
    /// §2 sender: one action, `true → send msg(s); s := s + 1`.
    OrigP(BaselineSender),
    /// §2 receiver: one receive action with the three-case window logic.
    OrigQ(BaselineReceiver),
    /// §4 sender: send action + background-SAVE-completes action.
    SfP(SfSender<MemStable>),
    /// §4 receiver: receive action + background-SAVE-completes action.
    SfQ(SfReceiver<MemStable>),
}

impl PaperProc {
    /// The underlying SAVE/FETCH sender, if this is one.
    pub fn as_sf_sender(&self) -> Option<&SfSender<MemStable>> {
        match self {
            PaperProc::SfP(p) => Some(p),
            _ => None,
        }
    }

    /// The underlying SAVE/FETCH receiver, if this is one.
    pub fn as_sf_receiver(&self) -> Option<&SfReceiver<MemStable>> {
        match self {
            PaperProc::SfQ(q) => Some(q),
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
}

impl ApnProcess for PaperProc {
    type Msg = SeqNum;

    fn name(&self) -> &'static str {
        match self {
            PaperProc::OrigP(_) | PaperProc::SfP(_) => "p",
            PaperProc::OrigQ(_) | PaperProc::SfQ(_) => "q",
        }
    }

    fn action_count(&self) -> usize {
        match self {
            PaperProc::OrigP(_) | PaperProc::OrigQ(_) => 1,
            PaperProc::SfP(_) | PaperProc::SfQ(_) => 2,
        }
    }

    fn guard(&self, action: usize) -> GuardKind {
        match self {
            PaperProc::OrigP(_) | PaperProc::SfP(_) => GuardKind::Local,
            PaperProc::OrigQ(_) | PaperProc::SfQ(_) => {
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
            PaperProc::SfP(p) => match action {
                0 => p.phase() == Phase::Running,
                1 => p.pending_save().is_some(),
                _ => false,
            },
            PaperProc::SfQ(q) => match action {
                1 => q.pending_save().is_some(),
                _ => false,
            },
        }
    }

    fn fire_local(&mut self, action: usize, out: &mut Outbox<SeqNum>) {
        match self {
            PaperProc::OrigP(p) => out.send(Q, p.send_next()),
            PaperProc::OrigQ(_) => unreachable!("orig q has no local action"),
            PaperProc::SfP(p) => match action {
                0 => {
                    if let Some(seq) = p.send_next().expect("mem store is infallible") {
                        out.send(Q, seq);
                    }
                }
                _ => {
                    p.save_completed().expect("mem store is infallible");
                }
            },
            PaperProc::SfQ(q) => {
                q.save_completed().expect("mem store is infallible");
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
            PaperProc::SfQ(q) => {
                let _ = q.receive(msg).expect("mem store is infallible");
            }
            _ => unreachable!("p has no receive action"),
        }
    }

    fn on_reset(&mut self) {
        match self {
            // The baseline has no down phase: reset and wake collapse.
            PaperProc::OrigP(p) => p.reset_and_wake(),
            PaperProc::OrigQ(q) => q.reset_and_wake(),
            PaperProc::SfP(p) => p.reset(),
            PaperProc::SfQ(q) => q.reset(),
        }
    }

    fn on_wakeup(&mut self) {
        // The paper's wake-up action is only enabled after a reset; an
        // environment wake of a running process is a no-op, which keeps
        // fault-injection schedules (and exhaustive explorers) free to
        // fire hooks in any order.
        match self {
            PaperProc::OrigP(_) | PaperProc::OrigQ(_) => {}
            PaperProc::SfP(p) => {
                if p.phase() == Phase::Down {
                    p.wake_up().expect("mem store is infallible");
                }
            }
            PaperProc::SfQ(q) => {
                if q.phase() == Phase::Down {
                    q.wake_up().expect("mem store is infallible");
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
            PaperProc::SfP(SfSender::new(MemStable::new(), SlotId::sender(1), kp)),
            PaperProc::SfQ(SfReceiver::new(
                MemStable::new(),
                SlotId::receiver(1),
                kq,
                w,
            )),
        ],
        schedule,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use reset_sim::DetRng;

    #[test]
    fn original_protocol_delivers_in_order_traffic() {
        let mut sys = original_system(32, Schedule::RoundRobin);
        sys.run(200);
        let q = sys.proc(Q).as_orig_receiver().unwrap();
        assert!(
            q.total_delivered() >= 90,
            "delivered {}",
            q.total_delivered()
        );
        assert_eq!(q.total_discarded(), 0, "clean channel, no discards");
    }

    #[test]
    fn savefetch_protocol_runs_and_saves() {
        let mut sys = savefetch_system(5, 5, 32, Schedule::RoundRobin);
        sys.run(300);
        let p = sys.proc(P).as_sf_sender().unwrap();
        let q = sys.proc(Q).as_sf_receiver().unwrap();
        assert!(p.stats().sent > 50);
        assert!(q.stats().delivered > 50);
        assert!(p.stats().saves_issued > 0);
        assert!(q.stats().saves_issued > 0);
    }

    #[test]
    fn reset_wakeup_roundtrip_under_apn() {
        let mut sys = savefetch_system(5, 5, 32, Schedule::RoundRobin);
        sys.run(100);
        let edge_before = sys.proc(Q).as_sf_receiver().unwrap().right_edge();
        sys.inject_reset(Q);
        sys.inject_wakeup(Q);
        let edge_after = sys.proc(Q).as_sf_receiver().unwrap().right_edge();
        assert!(
            edge_after >= edge_before,
            "leaped edge {edge_after} must cover pre-reset edge {edge_before}"
        );
        // Continue running: traffic eventually flows again (sender seqs
        // catch up past the leaped edge).
        sys.run(2000);
        let q = sys.proc(Q).as_sf_receiver().unwrap();
        assert!(q.stats().delivered > 0);
    }

    #[test]
    fn random_schedule_reproducible() {
        let run = |seed: u64| {
            let mut sys = savefetch_system(3, 3, 16, Schedule::Random(DetRng::new(seed)));
            sys.run(500);
            let q = sys.proc(Q).as_sf_receiver().unwrap();
            (q.stats().delivered, q.right_edge())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn adversary_injection_under_apn_is_rejected() {
        let mut sys = savefetch_system(5, 5, 32, Schedule::RoundRobin);
        sys.run(200);
        let delivered_before = sys.proc(Q).as_sf_receiver().unwrap().stats().delivered;
        // Replay sequence number 1 three times.
        for _ in 0..3 {
            sys.inject(P, Q, SeqNum::new(1));
        }
        sys.run(50);
        let q = sys.proc(Q).as_sf_receiver().unwrap();
        assert!(q.stats().discarded_stale + q.stats().discarded_duplicate >= 3);
        // Deliveries continue but none of the replays got through: the
        // delivered count only grows by fresh traffic (seq > edge).
        assert!(q.stats().delivered >= delivered_before);
    }
}
