//! The SAVE/FETCH-augmented anti-replay protocol — §4 of the paper.
//!
//! Sender `p` gains constants `Kp` (save interval) and a variable `lst`
//! (last sequence number handed to a SAVE); receiver `q` gains `Kq` and
//! `lst` likewise. Every `K` messages a **background** SAVE of the
//! current counter is issued; on wake-up after a reset the process
//! FETCHes the last durable counter, **leaps by `2K`**, synchronously
//! SAVEs the leaped value, and only then resumes.
//!
//! # Architecture: pure machine, thin driver
//!
//! All protocol *logic* lives in [`crate::machine::SfMachine`], a pure
//! transition function `step(SfEvent) → SfEffects` with no store, no
//! clock and no allocation beyond its own state — which is what lets the
//! `reset-model` crate exhaustively enumerate every bounded interleaving
//! of sends, resets, save races and adversary schedules, and replay any
//! failing schedule as a one-line regression test.
//!
//! [`SfDriver`] is the one *driver*, for either role, built like the
//! machine it drives ([`SfDriver::sender`], [`SfDriver::receiver`]). It
//! owns a one-slot [`BackgroundSaver`] over a [`StableStore`] and
//! translates machine effects into store operations —
//! [`SaveIssued`](crate::machine::SfEffect::SaveIssued) becomes
//! [`BackgroundSaver::issue`], a wake-up FETCH feeds
//! [`BeginWakeup`](crate::machine::SfEvent::BeginWakeup), store faults
//! become [`FetchFault`](crate::machine::SfEvent::FetchFault). The two
//! roles differ only in what advances the counter, so only
//! [`send_next`](SfDriver::send_next) and [`receive`](SfDriver::receive)
//! are role-specific, and the machine enforces the role. The driver
//! counts nothing: every count a caller wants follows from what the
//! verbs return.
//!
//! Lifecycle (both roles):
//!
//! ```text
//!   Running ──reset()──▶ Down ──begin_wakeup()──▶ Waking ──finish_wakeup()──▶ Running
//! ```
//!
//! `begin_wakeup` performs FETCH and *issues* the synchronous SAVE;
//! `finish_wakeup` marks its completion. The split exists because the
//! paper requires the sender to wait for that SAVE (and the receiver to
//! buffer arrivals) while it runs — and because another reset may strike
//! in between, which must recover the *old* counter and simply repeat the
//! wake-up. The one-call [`SfDriver::wake_up`] convenience does both
//! steps atomically for untimed runs.
//!
//! The receiver's wake-up buffer is **bounded**
//! ([`crate::machine::DEFAULT_WAKEUP_BUFFER`] entries unless
//! [`SfDriver::set_buffer_limit`] says otherwise); arrivals beyond the
//! cap are reported as [`RxOutcome::DroppedDown`] rather than growing
//! memory without bound under a mid-wake-up frame flood.

use reset_stable::{BackgroundSaver, SlotId, StableError, StableStore};

use crate::machine::{FetchFaultKind, SfEffect, SfEvent, SfMachine};
use crate::seq::SeqNum;

pub use crate::machine::{Phase, RxOutcome};

/// Projects a driver-level store error onto the machine's fault alphabet.
fn fault_kind(e: &StableError) -> FetchFaultKind {
    match e {
        StableError::Rollback { .. } => FetchFaultKind::Rollback,
        StableError::Corrupt { .. } => FetchFaultKind::Corrupt,
        _ => FetchFaultKind::Io,
    }
}

/// A finished wake-up, as [`SfDriver::finish_wakeup`] reports it: the
/// machine's [`WokeUp`](SfEffect::WokeUp) and the verdicts of the
/// arrivals buffered meanwhile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wakeup {
    /// The leaped counter the process resumed at.
    pub resumed: SeqNum,
    /// Sender only: the sequence numbers this wake-up actually made
    /// unusable (≤ `2K` by §5 condition (i)) — the true gap, smaller
    /// than the nominal `2K` when FETCH finds a fresh counter. Receivers
    /// report 0.
    pub unusable_gap: u64,
    /// Receiver only: each arrival buffered during the wake-up,
    /// classified in arrival order against the leaped window.
    pub buffered: Vec<(SeqNum, RxOutcome)>,
}

/// The paper's process `p` or `q` with SAVE and FETCH: an [`SfMachine`]
/// over a one-slot [`BackgroundSaver`].
///
/// `#[repr(C)]`: the saver, whose last field is the SAVE in flight, then
/// the machine, whose first fields are what every message reads. A
/// message's driver state is the tail of the saver and the head of the
/// machine, one run; the store handle sits just before it.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct SfDriver<S> {
    saver: BackgroundSaver<S>,
    machine: SfMachine,
}

impl<S: StableStore> SfDriver<S> {
    /// The sender `p`, persisting to `slot` of `store`, saving every `k`
    /// messages.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (the paper requires a positive save interval).
    ///
    /// # Examples
    ///
    /// ```
    /// use anti_replay::SfDriver;
    /// use reset_stable::{MemStable, SlotId};
    ///
    /// let mut p = SfDriver::sender(MemStable::new(), SlotId::sender(1), 25);
    /// let s1 = p.send_next().unwrap();
    /// assert_eq!(s1.value(), 1);
    ///
    /// p.reset();
    /// assert!(p.send_next().is_none()); // wait = true: nothing sent
    /// let woke = p.wake_up()?;
    /// // Never saved, so FETCH finds nothing (0) and the leap gives 2K = 50;
    /// // strictly above every previously used sequence number.
    /// assert_eq!(woke.resumed.value(), 50);
    /// assert_eq!(woke.unusable_gap, 48); // 2..50 were never used
    /// # Ok::<(), reset_stable::StableError>(())
    /// ```
    pub fn sender(store: S, slot: SlotId, k: u64) -> Self {
        SfDriver {
            saver: BackgroundSaver::new(store, slot),
            machine: SfMachine::sender(k),
        }
    }

    /// The receiver `q`, persisting to `slot` of `store`, saving every
    /// `k` right-edge advances, with an anti-replay window of `w`
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `w == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use anti_replay::{RxOutcome, SeqNum, SfDriver};
    /// use reset_stable::{MemStable, SlotId};
    ///
    /// let mut q = SfDriver::receiver(MemStable::new(), SlotId::receiver(1), 25, 64);
    /// assert_eq!(q.receive(SeqNum::new(1)), RxOutcome::Delivered);
    /// assert_eq!(q.receive(SeqNum::new(1)), RxOutcome::DiscardedDuplicate);
    /// ```
    pub fn receiver(store: S, slot: SlotId, k: u64, w: u64) -> Self {
        SfDriver {
            saver: BackgroundSaver::new(store, slot),
            machine: SfMachine::receiver(k, w),
        }
    }

    /// The save interval `K`.
    pub fn k(&self) -> u64 {
        self.machine.k()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.machine.phase()
    }

    /// The last counter value handed to a SAVE (paper's `lst`).
    pub fn last_stored(&self) -> u64 {
        self.machine.last_stored()
    }

    /// The pure transition machine this driver wraps (read-only): the
    /// sender's next sequence number, the receiver's window, and the
    /// state the `reset-model` explorer cross-checks against.
    pub fn machine(&self) -> &SfMachine {
        &self.machine
    }

    /// Caps a receiver's wake-up buffer at `limit` messages (clamped to
    /// ≥ 1; default [`crate::machine::DEFAULT_WAKEUP_BUFFER`]). Arrivals
    /// beyond the cap while `Waking` are dropped
    /// ([`RxOutcome::DroppedDown`]) instead of growing memory without
    /// bound. No effect on a sender.
    pub fn set_buffer_limit(&mut self, limit: usize) {
        self.machine.set_buffer_limit(limit);
    }

    /// The value of the background SAVE currently in flight, if any.
    pub fn pending_save(&self) -> Option<u64> {
        self.saver.pending()
    }

    /// Applies one machine event: every SAVE it issues goes to the
    /// saver, every other effect to `on`, in emission order.
    #[inline]
    fn step(&mut self, event: SfEvent, mut on: impl FnMut(SfEffect)) {
        for &effect in self.machine.step(event).iter() {
            match effect {
                SfEffect::SaveIssued(v) => self.saver.issue(v),
                other => on(other),
            }
        }
    }

    /// The sender's action: `∼wait → send msg(s); s := s + 1;` then
    /// issue a background SAVE when `s ≥ Kp + lst`. Returns the sequence
    /// number to attach to the outgoing message, or `None` while down or
    /// waking (`wait = true`).
    ///
    /// # Panics
    ///
    /// Panics on a running receiver: the machine enforces the role.
    pub fn send_next(&mut self) -> Option<SeqNum> {
        let mut sent = None;
        self.step(SfEvent::Send, |effect| {
            if let SfEffect::Sent(seq) = effect {
                sent = Some(seq);
            }
        });
        sent
    }

    /// The receiver's action: classify against the window, deliver or
    /// discard, then issue a background SAVE when `r ≥ Kq + lst`. While
    /// `Waking`, arrivals are buffered (up to the
    /// [buffer limit](Self::set_buffer_limit); beyond it they are
    /// dropped); while `Down`, dropped.
    ///
    /// # Panics
    ///
    /// Panics on a running sender: the machine enforces the role.
    pub fn receive(&mut self, seq: SeqNum) -> RxOutcome {
        let mut outcome = None;
        self.step(SfEvent::Receive(seq), |effect| {
            if let SfEffect::Rx { outcome: o, .. } = effect {
                outcome = Some(o);
            }
        });
        outcome.expect("Receive produces one Rx")
    }

    /// Completion event for a background SAVE (driven by the simulator
    /// after the device latency elapses). Returns the value made
    /// durable, or `None` if nothing was in flight.
    ///
    /// # Errors
    ///
    /// Propagates store failures; the pending save is retained for retry.
    pub fn save_completed(&mut self) -> Result<Option<u64>, StableError> {
        self.saver.complete()
    }

    /// [`BackgroundSaver::stage`]s the SAVE in flight: `true` iff it is owed
    /// to the flush that the completion then settles on.
    pub fn stage_save(&mut self) -> Result<bool, StableError> {
        self.saver.stage()
    }

    /// Drops the in-flight background SAVE without completing it — the
    /// device failed the write. Volatile protocol state is untouched
    /// (`lst` advanced at issue time), so a later FETCH simply finds an
    /// older durable value, which the `2K` leap already covers. A
    /// fault-injection hook for the `reset-model` explorer.
    pub fn drop_pending_save(&mut self) {
        self.saver.crash();
        self.machine.step(SfEvent::SaveLost);
    }

    /// `(process is reset) → wait := true`: all volatile state — the
    /// counter or window, `lst`, buffered arrivals and any in-flight
    /// SAVE — is lost.
    pub fn reset(&mut self) {
        self.machine.step(SfEvent::Reset);
        self.saver.crash();
    }

    /// First half of the wake-up action: FETCH, add the `2K` leap, and
    /// issue the synchronous SAVE of the leaped value. Returns the leaped
    /// counter. Until [`finish_wakeup`](Self::finish_wakeup) a sender
    /// cannot send and a receiver buffers its arrivals, exactly as §4
    /// prescribes.
    ///
    /// The FETCH is generation-checked
    /// ([`BackgroundSaver::fetch_checked`]): a store serving an *older*
    /// snapshot than the last acknowledged SAVE (rollback) fails the
    /// wake-up instead of resuming from a resurrected counter — or a
    /// window below sequence numbers already accepted.
    ///
    /// # Errors
    ///
    /// Propagates FETCH failures — including [`StableError::Rollback`] and
    /// [`StableError::Corrupt`] — and the process stays `Down`; the layer
    /// above must fail closed (replace the SA) rather than retry blindly.
    ///
    /// # Panics
    ///
    /// Panics if the process is not `Down`.
    pub fn begin_wakeup(&mut self) -> Result<SeqNum, StableError> {
        assert_eq!(
            self.machine.phase(),
            Phase::Down,
            "wake_up requires a prior reset"
        );
        let fetched = match self.saver.fetch_checked() {
            Ok(v) => v.unwrap_or(0),
            Err(e) => {
                self.machine.step(SfEvent::FetchFault(fault_kind(&e)));
                return Err(e);
            }
        };
        let effects = self.machine.step(SfEvent::BeginWakeup { fetched });
        let [SfEffect::SaveIssued(leaped)] = effects[..] else {
            unreachable!("BeginWakeup produced {effects:?}");
        };
        self.saver.issue(leaped);
        Ok(SeqNum::new(leaped))
    }

    /// Second half of the wake-up: the synchronous SAVE completed; the
    /// counter — or the window, rebuilt at the leaped right edge with
    /// **every entry marked received** ("every sequence number up to r
    /// should be assumed to be already received") — resumes at the
    /// leaped value, and a receiver classifies its buffered arrivals in
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates store failures (the process stays `Waking`; retry).
    ///
    /// # Panics
    ///
    /// Panics if not `Waking`.
    pub fn finish_wakeup(&mut self) -> Result<Wakeup, StableError> {
        assert_eq!(
            self.machine.phase(),
            Phase::Waking,
            "no wake-up in progress"
        );
        self.saver.complete()?;
        let mut woke = None;
        let mut buffered = Vec::new();
        self.step(SfEvent::SaveDone, |effect| match effect {
            SfEffect::WokeUp {
                resumed,
                unusable_gap,
            } => woke = Some((resumed, unusable_gap)),
            SfEffect::Rx { seq, outcome } => buffered.push((seq, outcome)),
            other => unreachable!("wake-up SaveDone produced {other:?}"),
        });
        let (resumed, unusable_gap) = woke.expect("a waking machine's SaveDone wakes it");
        Ok(Wakeup {
            resumed,
            unusable_gap,
            buffered,
        })
    }

    /// Atomic wake-up for untimed runs: both halves back to back. Nothing
    /// can arrive in between, so a receiver's `buffered` is empty.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    pub fn wake_up(&mut self) -> Result<Wakeup, StableError> {
        self.begin_wakeup()?;
        self.finish_wakeup()
    }

    /// Access to the underlying store (assertions, teardown).
    pub fn store(&self) -> &S {
        self.saver.store()
    }

    /// Mutable access to the underlying store — SA teardown (erasing the
    /// slot) and fault-injection tests.
    pub fn store_mut(&mut self) -> &mut S {
        self.saver.store_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reset_stable::MemStable;

    #[test]
    fn the_machine_follows_the_saver() {
        // The saver ends in its SAVE in flight (reset-stable pins that),
        // so the machine's per-message head continues the run.
        use std::mem::{offset_of, size_of};
        fn check<S>() {
            assert_eq!(offset_of!(SfDriver<S>, saver), 0);
            assert_eq!(
                offset_of!(SfDriver<S>, machine),
                size_of::<BackgroundSaver<S>>()
            );
        }
        check::<MemStable>();
        check::<Box<dyn StableStore + Send>>();
    }

    fn sender(k: u64) -> SfDriver<MemStable> {
        SfDriver::sender(MemStable::new(), SlotId::sender(1), k)
    }

    fn receiver(k: u64, w: u64) -> SfDriver<MemStable> {
        SfDriver::receiver(MemStable::new(), SlotId::receiver(1), k, w)
    }

    fn next_seq(p: &SfDriver<MemStable>) -> SeqNum {
        p.machine().next_seq().expect("sender")
    }

    // ------------------------------------------------------------------
    // Sender
    // ------------------------------------------------------------------

    #[test]
    fn sender_counts_from_one() {
        let mut p = sender(5);
        for want in 1..=10u64 {
            assert_eq!(p.send_next(), Some(SeqNum::new(want)));
        }
        assert_eq!(next_seq(&p), SeqNum::new(11));
    }

    #[test]
    fn sender_saves_every_k() {
        let mut p = sender(5);
        // lst starts at 1; first save when s (post-increment) >= 5 + 1 = 6,
        // i.e. after sending seq 5.
        for _ in 0..4 {
            p.send_next();
        }
        assert_eq!(p.pending_save(), None, "no save after 4 sends");
        p.send_next(); // seq 5; s becomes 6 = K + lst
        assert_eq!(p.pending_save(), Some(6), "save issued");
        assert_eq!(p.last_stored(), 6);
        // Saves repeat every K sends.
        p.save_completed().unwrap();
        for _ in 0..5 {
            p.send_next();
        }
        assert_eq!(p.pending_save(), Some(11));
        assert_eq!(p.store().load(SlotId::sender(1)).unwrap(), Some(6));
    }

    #[test]
    fn sender_reset_blocks_sending() {
        let mut p = sender(5);
        p.send_next();
        p.reset();
        assert_eq!(p.phase(), Phase::Down);
        assert_eq!(p.send_next(), None);
        assert_eq!(p.last_stored(), 0, "lst is volatile");
    }

    #[test]
    fn wakeup_without_any_save_leaps_from_zero() {
        let mut p = sender(25);
        for _ in 0..10 {
            p.send_next();
        }
        p.reset();
        let resumed = p.wake_up().unwrap().resumed;
        assert_eq!(resumed.value(), 50, "0 + 2K");
        // Strictly above every used sequence number (max was 10).
        assert!(resumed.value() > 10);
        assert_eq!(p.send_next(), Some(SeqNum::new(50)));
    }

    #[test]
    fn fig1_case1_reset_during_save_gap_at_most_2k() {
        // SAVE(s) in flight when the reset hits: FETCH returns s − K.
        let k = 10;
        let mut p = sender(k);
        // Drive until the second save is issued but NOT completed.
        // First save at s=11 (value 11), complete it; lst = 11.
        for _ in 0..10 {
            p.send_next();
        }
        p.save_completed().unwrap();
        // Next save issues when s = 21.
        for _ in 0..10 {
            p.send_next();
        }
        assert_eq!(p.pending_save(), Some(21));
        // Send t < K more messages, reset mid-save.
        for _ in 0..7 {
            p.send_next();
        }
        let next_unused = next_seq(&p); // 28
        p.reset();
        let resumed = p.wake_up().unwrap().resumed;
        // FETCH found 11 (the stale value); resumed = 11 + 2K = 31.
        assert_eq!(resumed.value(), 31);
        // Freshness: strictly above everything previously used.
        assert!(resumed > next_unused);
        // Condition (i): the gap of unusable numbers is ≤ 2K.
        assert!(resumed.value() - next_unused.value() <= 2 * k);
    }

    #[test]
    fn fig1_case2_reset_after_save_gap_at_most_k() {
        let k = 10;
        let mut p = sender(k);
        for _ in 0..10 {
            p.send_next();
        }
        p.save_completed().unwrap(); // SAVE(11) durable
        for _ in 0..6 {
            p.send_next(); // u = 6 < K more sends
        }
        let next_unused = next_seq(&p); // 17
        p.reset();
        let resumed = p.wake_up().unwrap().resumed;
        // FETCH found 11; resumed = 31; gap = 31 − 17 = 14 ≤ 2K.
        assert_eq!(resumed.value(), 31);
        assert!(resumed.value() - next_unused.value() <= 2 * k);
        assert!(resumed > next_unused);
    }

    #[test]
    fn double_reset_before_first_save_still_fresh() {
        // §4's second consideration: a reset strikes again before the
        // post-wake-up state is used. The synchronous SAVE at wake-up is
        // what makes the second recovery safe.
        let mut p = sender(10);
        for _ in 0..5 {
            p.send_next();
        }
        p.reset();
        let first = p.wake_up().unwrap().resumed; // 0 + 20 = 20, durably saved
                                                  // Immediately reset again — before any new background save.
        p.reset();
        let second = p.wake_up().unwrap().resumed;
        // FETCH finds 20 (saved synchronously at previous wake-up).
        assert_eq!(second.value(), 40);
        assert!(second > first, "every wake-up moves strictly forward");
    }

    #[test]
    fn reset_during_wakeup_save_recovers_old_value() {
        let mut p = sender(10);
        for _ in 0..10 {
            p.send_next();
        }
        p.save_completed().unwrap(); // 11 durable
        p.reset();
        let target = p.begin_wakeup().unwrap();
        assert_eq!(target.value(), 31);
        assert_eq!(p.phase(), Phase::Waking);
        assert_eq!(p.send_next(), None, "still waiting");
        // Reset strikes during the wake-up SAVE: it never became durable.
        p.reset();
        let resumed = p.wake_up().unwrap().resumed;
        assert_eq!(resumed.value(), 31, "FETCH saw 11 again, not 31");
    }

    #[test]
    fn leap_stat_records_true_gap_not_nominal_bound() {
        // Regression (pre-fix code recorded 2K per wake-up regardless):
        // FETCH finding a *fresh* value must shrink the recorded leap.
        let k = 5;
        let mut p = sender(k);
        for _ in 0..5 {
            p.send_next(); // save of 6 issued at seq 5
        }
        p.save_completed().unwrap(); // 6 durable — perfectly fresh
        for _ in 0..2 {
            p.send_next(); // next unused s = 8
        }
        p.reset();
        let woke = p.wake_up().unwrap();
        assert_eq!(woke.resumed.value(), 16, "6 + 2K");
        // The unusable gap is 16 − 8 = 8, strictly below the 2K = 10 the
        // old bookkeeping charged.
        assert_eq!(woke.unusable_gap, 8);
        assert!(woke.unusable_gap <= 2 * k);
    }

    #[test]
    fn save_threshold_near_sequence_ceiling_is_well_defined() {
        // Regression: the save-due comparison `s ≥ k + lst` overflowed
        // u64 once a FETCHed counter put lst near the ceiling (debug
        // panic / release wrap → spurious save). The checked form sends
        // fine and issues no save.
        let k = 3u64;
        let slot = SlotId::sender(1);
        let mut store = MemStable::new();
        use reset_stable::StableStore as _;
        store.store(slot, u64::MAX - 2 * k - 2).unwrap();
        let mut p = SfDriver::sender(store, slot, k);
        p.reset();
        let resumed = p.wake_up().unwrap().resumed;
        assert_eq!(resumed.value(), u64::MAX - 2);
        assert_eq!(
            p.send_next(),
            Some(SeqNum::new(u64::MAX - 2)),
            "send near the ceiling must not overflow the save threshold"
        );
        assert_eq!(p.pending_save(), None, "no spurious save");
    }

    #[test]
    #[should_panic(expected = "requires a prior reset")]
    fn wakeup_while_running_panics() {
        let mut p = sender(5);
        let _ = p.begin_wakeup();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let _ = sender(0);
    }

    // ------------------------------------------------------------------
    // Receiver
    // ------------------------------------------------------------------

    #[test]
    fn receiver_delivers_fresh_discards_replay() {
        let mut q = receiver(5, 32);
        assert_eq!(q.receive(SeqNum::new(1)), RxOutcome::Delivered);
        assert_eq!(q.receive(SeqNum::new(1)), RxOutcome::DiscardedDuplicate);
    }

    #[test]
    fn receiver_saves_every_k_edge_advances() {
        let mut q = receiver(5, 32);
        // lst = 0; save when r >= 5.
        for s in 1..=4u64 {
            q.receive(SeqNum::new(s));
        }
        assert_eq!(q.pending_save(), None);
        q.receive(SeqNum::new(5));
        assert_eq!(q.pending_save(), Some(5));
        assert_eq!(q.last_stored(), 5);
    }

    #[test]
    fn receiver_down_drops_waking_buffers() {
        let mut q = receiver(5, 32);
        q.receive(SeqNum::new(1));
        q.reset();
        assert_eq!(q.receive(SeqNum::new(2)), RxOutcome::DroppedDown);
        q.begin_wakeup().unwrap();
        assert_eq!(q.receive(SeqNum::new(3)), RxOutcome::Buffered);
        let woke = q.finish_wakeup().unwrap();
        assert_eq!(
            woke.buffered,
            [(SeqNum::new(3), RxOutcome::DiscardedDuplicate)]
        );
        assert_eq!(woke.unusable_gap, 0, "a receiver reports no gap");
    }

    #[test]
    fn wakeup_buffer_is_bounded_overflow_drops() {
        // Regression (pre-fix code buffered without bound — an OOM
        // vector under a mid-wake-up frame flood).
        let mut q = receiver(5, 32);
        q.set_buffer_limit(4);
        assert_eq!(q.machine().buffer_limit(), 4);
        q.receive(SeqNum::new(1));
        q.reset();
        q.begin_wakeup().unwrap();
        for s in 10..14u64 {
            assert_eq!(q.receive(SeqNum::new(s)), RxOutcome::Buffered);
        }
        for s in 14..20u64 {
            assert_eq!(
                q.receive(SeqNum::new(s)),
                RxOutcome::DroppedDown,
                "arrival {s} beyond the cap must be dropped, not buffered"
            );
        }
        assert_eq!(q.machine().buffered().len(), 4);
        let woke = q.finish_wakeup().unwrap();
        assert_eq!(
            woke.buffered.len(),
            4,
            "only the capped buffer is classified"
        );
    }

    #[test]
    fn fig2_wakeup_rejects_all_old_replays() {
        let k = 10;
        let mut q = receiver(k, 32);
        // Receive 1..=25 in order; saves at r=10 (durable) and r=20
        // (in flight when the reset strikes).
        for s in 1..=25u64 {
            q.receive(SeqNum::new(s));
            if s == 10 {
                q.save_completed().unwrap();
            }
        }
        assert_eq!(q.pending_save(), Some(20));
        q.reset();
        let leaped = q.wake_up().unwrap().resumed;
        // FETCH found 10; leaped = 10 + 2K = 30 ≥ 25 (the real edge).
        assert_eq!(leaped.value(), 30);
        // The adversary replays the entire history: all rejected.
        for s in 1..=25u64 {
            let out = q.receive(SeqNum::new(s));
            assert!(
                matches!(
                    out,
                    RxOutcome::DiscardedStale | RxOutcome::DiscardedDuplicate
                ),
                "replayed {s} got {out:?}"
            );
        }
        // Condition (ii): fresh messages in (25, 30] are sacrificed, but
        // that's at most 2K; anything beyond the leap is accepted.
        assert_eq!(q.receive(SeqNum::new(31)), RxOutcome::Delivered);
    }

    #[test]
    fn fig2_discarded_fresh_bounded_by_2k() {
        let k = 10;
        let mut q = receiver(k, 64);
        for s in 1..=15u64 {
            q.receive(SeqNum::new(s));
            if s == 10 {
                q.save_completed().unwrap();
            }
        }
        q.reset();
        let leaped = q.wake_up().unwrap().resumed; // 10 + 20 = 30
                                                   // Sender continues from 16; fresh 16..=30 are discarded, 31+ flow.
        let mut discarded_fresh = 0;
        for s in 16..=40u64 {
            match q.receive(SeqNum::new(s)) {
                RxOutcome::Delivered => {}
                _ => discarded_fresh += 1,
            }
        }
        assert_eq!(discarded_fresh, leaped.value() - 15);
        assert!(discarded_fresh <= 2 * k, "condition (ii) bound");
    }

    #[test]
    fn receiver_buffered_messages_classified_after_leap() {
        let k = 5;
        let mut q = receiver(k, 32);
        for s in 1..=12u64 {
            q.receive(SeqNum::new(s));
            if s == 5 {
                q.save_completed().unwrap();
            }
        }
        q.reset();
        q.begin_wakeup().unwrap(); // leap target = 5 + 10 = 15
                                   // While the wake-up SAVE runs: a replay (3) and a fresh-but-
                                   // sacrificed (13) and a genuinely new (16) arrive.
        q.receive(SeqNum::new(3));
        q.receive(SeqNum::new(13));
        q.receive(SeqNum::new(16));
        let outcomes = q.finish_wakeup().unwrap().buffered;
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].1.is_delivered(), "replay rejected");
        assert!(!outcomes[1].1.is_delivered(), "sacrificed (≤ 2K) fresh");
        assert!(outcomes[2].1.is_delivered(), "post-leap fresh delivered");
    }

    #[test]
    fn receiver_double_reset_never_reaccepts() {
        let mut q = receiver(5, 32);
        for s in 1..=7u64 {
            q.receive(SeqNum::new(s));
        }
        q.reset();
        let first = q.wake_up().unwrap().resumed; // 0or5 + 10
        q.reset();
        let second = q.wake_up().unwrap().resumed;
        assert!(second > first);
        // The full history replay still bounces.
        for s in 1..=7u64 {
            assert!(!q.receive(SeqNum::new(s)).is_delivered());
        }
    }

    #[test]
    fn completing_every_save_keeps_durable_within_2k_of_live() {
        // Weak fairness for the background SAVE: when every issued SAVE
        // completes before the next step, the durable counter trails the
        // live one by at most 2K, in either role.
        let k = 5;
        let mut p = sender(k);
        let mut q = receiver(k, 16);
        for step in 0..2_000 {
            let seq = p.send_next().expect("running");
            q.receive(seq);
            p.save_completed().unwrap();
            q.save_completed().unwrap();
            let p_durable = p.store().load(SlotId::sender(1)).unwrap().unwrap_or(0);
            let q_durable = q.store().load(SlotId::receiver(1)).unwrap().unwrap_or(0);
            let p_live = next_seq(&p).value();
            let q_live = q.machine().window().expect("receiver").right_edge().value();
            assert!(p_live - p_durable <= 2 * k, "step {step}: sender lag");
            assert!(q_live - q_durable <= 2 * k, "step {step}: receiver lag");
        }
    }

    #[test]
    fn sender_receiver_end_to_end_with_sender_reset_no_fresh_loss() {
        // Condition (i): sender reset, in-order channel ⇒ zero fresh
        // messages discarded (some sequence numbers are skipped, but
        // every *sent* message is delivered).
        let mut p = sender(10);
        let mut q = receiver(10, 64);
        let mut sent = 0u64;
        let mut delivered = 0u64;
        for round in 0..200u64 {
            if round == 90 {
                p.reset();
                p.wake_up().unwrap();
                continue;
            }
            if round % 25 == 24 {
                p.save_completed().unwrap();
            }
            if let Some(seq) = p.send_next() {
                sent += 1;
                if q.receive(seq).is_delivered() {
                    delivered += 1;
                }
            }
        }
        assert_eq!(sent, delivered, "no fresh message discarded");
    }
}
