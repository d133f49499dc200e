//! The reset-naive receiver of §2/§3 — the paper's baseline.
//!
//! Without SAVE/FETCH, a reset throws the counters back to their initial
//! values (`s = 1`, `r = 0`, window forgotten). §3 shows this admits an
//! **unbounded** number of accepted replays (receiver reset), an
//! unbounded number of discarded fresh messages (sender reset), and a
//! blackhole attack (both reset). Experiment t6 drives this receiver's
//! bare window through faulty channels; t3 runs the same naive restart on
//! the engine (the scenario runner's [`Protocol::Baseline`]).
//!
//! The §3 attack and the §4 defence, side by side:
//!
//! ```
//! use anti_replay::{SeqNum, SfDriver};
//! use reset_harness::BaselineReceiver;
//! use reset_stable::{MemStable, SlotId};
//!
//! // Baseline: receiver reset forgets the window...
//! let mut naive = BaselineReceiver::new(32);
//! for s in 1..=100u64 {
//!     naive.receive(SeqNum::new(s));
//! }
//! naive.reset_and_wake();
//! // ...so a replayed old message is accepted:
//! assert!(naive.receive(SeqNum::new(1)).is_deliverable());
//!
//! // SAVE/FETCH: the counter was saved every K = 10 messages.
//! let mut patched = SfDriver::receiver(MemStable::new(), SlotId::receiver(1), 10, 32);
//! for s in 1..=100u64 {
//!     patched.receive(SeqNum::new(s));
//!     patched.save_completed()?; // background save completes promptly
//! }
//! patched.reset();
//! patched.wake_up()?; // FETCH + leap 2K
//! // Every replay of old traffic is rejected:
//! for s in 1..=100u64 {
//!     assert!(!patched.receive(SeqNum::new(s)).is_delivered());
//! }
//! # Ok::<(), reset_stable::StableError>(())
//! ```
//!
//! [`Protocol::Baseline`]: crate::Protocol::Baseline

use anti_replay::{AntiReplayWindow, SeqNum, Verdict};

/// Process `q` of §2: window + right edge, forgotten on reset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineReceiver {
    window: AntiReplayWindow,
    delivered: u64,
    discarded: u64,
}

impl BaselineReceiver {
    /// A receiver with window size `w` at the paper's initial state.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn new(w: u64) -> Self {
        BaselineReceiver {
            window: AntiReplayWindow::new(w),
            delivered: 0,
            discarded: 0,
        }
    }

    /// Classifies and records one received sequence number.
    pub fn receive(&mut self, seq: SeqNum) -> Verdict {
        let v = self.window.check_and_accept(seq);
        if v.is_deliverable() {
            self.delivered += 1;
        } else {
            self.discarded += 1;
        }
        v
    }

    /// Right edge `r`.
    pub fn right_edge(&self) -> SeqNum {
        self.window.right_edge()
    }

    /// Reset + wake-up without SAVE/FETCH: the §3 naive restart (`r = 0`,
    /// all entries forgotten) that accepts arbitrary replays.
    pub fn reset_and_wake(&mut self) {
        self.window.reset_naive();
    }

    /// Messages delivered across all incarnations.
    pub fn total_delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages discarded across all incarnations.
    pub fn total_discarded(&self) -> u64 {
        self.discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Process `p` of §2 is a bare counter: sends `s`, then increments.
    /// Its naive restart is `*p = SeqNum::FIRST`.
    fn send(p: &mut SeqNum) -> SeqNum {
        let seq = *p;
        *p = p.next();
        seq
    }

    #[test]
    fn normal_operation_is_correct() {
        // Without resets the baseline satisfies both §2 conditions.
        let mut p = SeqNum::FIRST;
        let mut q = BaselineReceiver::new(32);
        for _ in 0..100 {
            let s = send(&mut p);
            assert!(q.receive(s).is_deliverable());
        }
        // Full replay: all discarded.
        for s in 1..=100u64 {
            assert!(!q.receive(SeqNum::new(s)).is_deliverable());
        }
        assert_eq!(q.total_delivered(), 100);
        assert_eq!(q.total_discarded(), 100);
    }

    #[test]
    fn section3_receiver_reset_accepts_unbounded_replays() {
        let mut p = SeqNum::FIRST;
        let mut q = BaselineReceiver::new(32);
        let x = 500; // pre-reset traffic, "unbounded" in the paper
        for _ in 0..x {
            q.receive(send(&mut p));
        }
        q.reset_and_wake();
        // The adversary replays 1..=x in order: ALL are accepted.
        let mut accepted = 0;
        for s in 1..=x {
            if q.receive(SeqNum::new(s)).is_deliverable() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, x, "every replayed message accepted");
    }

    #[test]
    fn section3_sender_reset_discards_unbounded_fresh() {
        let mut p = SeqNum::FIRST;
        let mut q = BaselineReceiver::new(32);
        let y = 500;
        for _ in 0..y {
            q.receive(send(&mut p));
        }
        p = SeqNum::FIRST;
        // Fresh messages restart at 1: everything left of y − w + 1 is
        // discarded as a presumed replay.
        let mut discarded = 0;
        for _ in 0..400 {
            if !q.receive(send(&mut p)).is_deliverable() {
                discarded += 1;
            }
        }
        assert_eq!(discarded, 400, "all fresh messages discarded");
    }

    #[test]
    fn section3_both_reset_blackhole_attack() {
        let mut p = SeqNum::FIRST;
        let mut q = BaselineReceiver::new(32);
        let z = 300u64; // highest recorded sequence number
        for _ in 0..z {
            q.receive(send(&mut p));
        }
        p = SeqNum::FIRST;
        q.reset_and_wake();
        // Adversary replays msg(z): q's fresh window accepts it and the
        // right edge jumps to z.
        assert!(q.receive(SeqNum::new(z)).is_deliverable());
        assert_eq!(q.right_edge(), SeqNum::new(z));
        // Every fresh message from p (1, 2, ...) is now blackholed.
        let mut blackholed = 0;
        for _ in 0..200 {
            if !q.receive(send(&mut p)).is_deliverable() {
                blackholed += 1;
            }
        }
        assert_eq!(blackholed, 200);
    }
}
