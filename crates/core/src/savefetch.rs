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
//! [`SfSender`] and [`SfReceiver`] are the *drivers*: each owns a
//! [`BackgroundSaver`] over a [`StableStore`] and translates machine
//! effects into store operations —
//! [`SaveIssued`](crate::machine::SfEffect::SaveIssued) becomes
//! [`BackgroundSaver::issue`], a wake-up FETCH feeds
//! [`BeginWakeup`](crate::machine::SfEvent::BeginWakeup), store faults
//! become [`FetchFault`](crate::machine::SfEvent::FetchFault) — and
//! keeps self-reported statistics. The driver API is exactly the
//! pre-refactor one.
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
//! wake-up. The one-call [`SfSender::wake_up`] /
//! [`SfReceiver::wake_up`] convenience does both steps atomically for
//! untimed runs.
//!
//! The receiver's wake-up buffer is **bounded**
//! ([`crate::machine::DEFAULT_WAKEUP_BUFFER`] entries unless
//! [`SfReceiver::set_buffer_limit`] says otherwise); arrivals beyond the
//! cap are reported as [`RxOutcome::DroppedDown`] rather than growing
//! memory without bound under a mid-wake-up frame flood.

use reset_stable::{BackgroundSaver, PendingSave, SlotId, StableError, StableStore};

use crate::machine::{FetchFaultKind, SfEffect, SfEvent, SfMachine};
use crate::seq::SeqNum;
use crate::window::AntiReplayWindow;

pub use crate::machine::{Phase, RxOutcome};

/// Projects a driver-level store error onto the machine's fault alphabet.
fn fault_kind(e: &StableError) -> FetchFaultKind {
    match e {
        StableError::Rollback { .. } => FetchFaultKind::Rollback,
        StableError::Corrupt { .. } => FetchFaultKind::Corrupt,
        _ => FetchFaultKind::Io,
    }
}

/// Counters the sender keeps about itself (for experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Messages sent.
    pub sent: u64,
    /// Background SAVEs issued.
    pub saves_issued: u64,
    /// Resets experienced.
    pub resets: u64,
    /// Total sequence numbers actually made unusable by wake-up leaps
    /// (`resumed − s_pre_reset` summed over wake-ups, each ≤ `2K`). Note
    /// this is the *true* gap — when FETCH finds a fresh counter the gap
    /// is smaller than the nominal `2K` bound, and experiments no longer
    /// overcount.
    pub seqs_leaped: u64,
}

/// The paper's process `p` with SAVE and FETCH.
///
/// # Examples
///
/// ```
/// use anti_replay::SfSender;
/// use reset_stable::{MemStable, SlotId};
///
/// let mut p = SfSender::new(MemStable::new(), SlotId::sender(1), 25);
/// let s1 = p.send_next()?.unwrap();
/// assert_eq!(s1.value(), 1);
///
/// p.reset();
/// assert!(p.send_next()?.is_none()); // wait = true: nothing sent
/// let resumed = p.wake_up()?;
/// // Never saved, so FETCH finds nothing (0) and the leap gives 2K = 50;
/// // strictly above every previously used sequence number.
/// assert_eq!(resumed.value(), 50);
/// # Ok::<(), reset_stable::StableError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SfSender<S> {
    saver: BackgroundSaver<S>,
    slot: SlotId,
    machine: SfMachine,
    stats: SenderStats,
}

impl<S: StableStore> SfSender<S> {
    /// A sender persisting to `slot` of `store`, saving every `k`
    /// messages.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (the paper requires a positive save interval).
    pub fn new(store: S, slot: SlotId, k: u64) -> Self {
        SfSender {
            saver: BackgroundSaver::new(store),
            slot,
            machine: SfMachine::sender(k),
            stats: SenderStats::default(),
        }
    }

    /// The save interval `Kp`.
    pub fn k(&self) -> u64 {
        self.machine.k()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.machine.phase()
    }

    /// The next sequence number that would be sent (paper's `s`).
    pub fn next_seq(&self) -> SeqNum {
        self.machine.next_seq().expect("sender machine")
    }

    /// The last counter value handed to a SAVE (paper's `lst`).
    pub fn last_stored(&self) -> u64 {
        self.machine.last_stored()
    }

    /// Self-reported statistics.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// The pure transition machine this driver wraps (read-only) — the
    /// state the `reset-model` explorer cross-checks against.
    pub fn machine(&self) -> &SfMachine {
        &self.machine
    }

    /// The background SAVE currently in flight, if any.
    pub fn pending_save(&self) -> Option<PendingSave> {
        self.saver.pending()
    }

    /// The paper's first action: `∼wait → send msg(s); s := s + 1;` then
    /// issue a background SAVE when `s ≥ Kp + lst`. Returns the sequence
    /// number to attach to the outgoing message, or `None` while down or
    /// waking (`wait = true`).
    ///
    /// # Errors
    ///
    /// Never errs itself; the `Result` mirrors the receiver API and keeps
    /// room for stores that fail on `issue` bookkeeping.
    pub fn send_next(&mut self) -> Result<Option<SeqNum>, StableError> {
        let mut sent = None;
        for &effect in self.machine.step(SfEvent::Send).iter() {
            match effect {
                SfEffect::Sent(seq) => {
                    self.stats.sent += 1;
                    sent = Some(seq);
                }
                SfEffect::SaveIssued(v) => {
                    self.saver.issue(self.slot, v);
                    self.stats.saves_issued += 1;
                }
                SfEffect::Blocked => {}
                other => unreachable!("Send produced {other:?}"),
            }
        }
        Ok(sent)
    }

    /// Completion event for a background SAVE (driven by the simulator
    /// after the device latency elapses).
    ///
    /// # Errors
    ///
    /// Propagates store failures; the pending save is retained for retry.
    pub fn save_completed(&mut self) -> Result<Option<PendingSave>, StableError> {
        self.saver.complete()
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

    /// The paper's second action: `(process p is reset) → wait := true`.
    /// All volatile state — `s`, `lst`, and any in-flight SAVE — is lost.
    pub fn reset(&mut self) {
        self.machine.step(SfEvent::Reset);
        self.saver.crash();
        self.stats.resets += 1;
    }

    /// First half of the wake-up action: FETCH, add the `2Kp` leap, and
    /// issue the synchronous SAVE of the leaped value. Returns the leaped
    /// counter. The sender stays unable to send until
    /// [`finish_wakeup`](Self::finish_wakeup).
    ///
    /// The FETCH is generation-checked: a store serving an *older*
    /// snapshot than the last acknowledged SAVE (rollback) fails the
    /// wake-up instead of leaping from a resurrected counter.
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
        let fetched = match self.saver.fetch_checked(self.slot) {
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
        self.saver.issue(self.slot, leaped);
        Ok(SeqNum::new(leaped))
    }

    /// Second half of the wake-up: the synchronous SAVE completed; set
    /// `s` and `lst` to the leaped value and clear `wait`.
    ///
    /// # Errors
    ///
    /// Propagates store failures (the process stays `Waking`; retry).
    ///
    /// # Panics
    ///
    /// Panics if not `Waking`.
    pub fn finish_wakeup(&mut self) -> Result<SeqNum, StableError> {
        assert_eq!(
            self.machine.phase(),
            Phase::Waking,
            "no wake-up in progress"
        );
        self.saver.complete()?;
        let effects = self.machine.step(SfEvent::SaveDone);
        let [SfEffect::WokeUp {
            resumed,
            unusable_gap,
        }] = effects[..]
        else {
            unreachable!("sender SaveDone produced {effects:?}");
        };
        // Leap bookkeeping for the experiments: the *actual* unusable gap
        // (≤ 2Kp by §5 condition (i)), not the nominal bound.
        self.stats.seqs_leaped += unusable_gap;
        Ok(resumed)
    }

    /// Atomic wake-up for untimed runs: both halves back to back.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    pub fn wake_up(&mut self) -> Result<SeqNum, StableError> {
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

/// Counters the receiver keeps about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Messages discarded as stale (left of window).
    pub discarded_stale: u64,
    /// Messages discarded as duplicates.
    pub discarded_duplicate: u64,
    /// Messages buffered during a wake-up.
    pub buffered: u64,
    /// Messages dropped because the machine was down — or because the
    /// bounded wake-up buffer was full.
    pub dropped_down: u64,
    /// Background SAVEs issued.
    pub saves_issued: u64,
    /// Resets experienced.
    pub resets: u64,
}

/// The paper's process `q` with SAVE and FETCH.
///
/// # Examples
///
/// ```
/// use anti_replay::{RxOutcome, SeqNum, SfReceiver};
/// use reset_stable::{MemStable, SlotId};
///
/// let mut q = SfReceiver::new(MemStable::new(), SlotId::receiver(1), 25, 64);
/// assert_eq!(q.receive(SeqNum::new(1))?, RxOutcome::Delivered);
/// assert_eq!(q.receive(SeqNum::new(1))?, RxOutcome::DiscardedDuplicate);
/// # Ok::<(), reset_stable::StableError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SfReceiver<S> {
    saver: BackgroundSaver<S>,
    slot: SlotId,
    machine: SfMachine,
    stats: ReceiverStats,
}

impl<S: StableStore> SfReceiver<S> {
    /// A receiver persisting to `slot` of `store`, saving every `k`
    /// right-edge advances, with an anti-replay window of `w` entries.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `w == 0`.
    pub fn new(store: S, slot: SlotId, k: u64, w: u64) -> Self {
        SfReceiver {
            saver: BackgroundSaver::new(store),
            slot,
            machine: SfMachine::receiver(k, w),
            stats: ReceiverStats::default(),
        }
    }

    /// The save interval `Kq`.
    pub fn k(&self) -> u64 {
        self.machine.k()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.machine.phase()
    }

    /// The anti-replay window (read-only).
    pub fn window(&self) -> &AntiReplayWindow {
        self.machine.window().expect("receiver machine")
    }

    /// The window's right edge `r`.
    pub fn right_edge(&self) -> SeqNum {
        self.window().right_edge()
    }

    /// The last counter value handed to a SAVE.
    pub fn last_stored(&self) -> u64 {
        self.machine.last_stored()
    }

    /// Self-reported statistics.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// The pure transition machine this driver wraps (read-only) — the
    /// state the `reset-model` explorer cross-checks against.
    pub fn machine(&self) -> &SfMachine {
        &self.machine
    }

    /// Caps the wake-up buffer at `limit` messages (clamped to ≥ 1).
    /// Default: [`crate::machine::DEFAULT_WAKEUP_BUFFER`]. Arrivals
    /// beyond the cap while `Waking` are dropped
    /// ([`RxOutcome::DroppedDown`]) instead of growing memory without
    /// bound.
    pub fn set_buffer_limit(&mut self, limit: usize) {
        self.machine.set_buffer_limit(limit);
    }

    /// The configured wake-up buffer cap.
    pub fn buffer_limit(&self) -> usize {
        self.machine.buffer_limit()
    }

    /// The background SAVE currently in flight, if any.
    pub fn pending_save(&self) -> Option<PendingSave> {
        self.saver.pending()
    }

    /// Applies one machine event and folds its effects into stats and
    /// store operations, handing the `Rx` outcomes to `on_rx` in order.
    fn drive(&mut self, event: SfEvent, mut on_rx: impl FnMut(SeqNum, RxOutcome)) {
        for &effect in self.machine.step(event).iter() {
            match effect {
                SfEffect::Rx { seq, outcome } => {
                    match outcome {
                        RxOutcome::Delivered => self.stats.delivered += 1,
                        RxOutcome::DiscardedStale => self.stats.discarded_stale += 1,
                        RxOutcome::DiscardedDuplicate => self.stats.discarded_duplicate += 1,
                        RxOutcome::Buffered => self.stats.buffered += 1,
                        RxOutcome::DroppedDown => self.stats.dropped_down += 1,
                    }
                    on_rx(seq, outcome);
                }
                SfEffect::SaveIssued(v) => {
                    self.saver.issue(self.slot, v);
                    self.stats.saves_issued += 1;
                }
                SfEffect::WokeUp { .. } => {}
                other => unreachable!("receiver event produced {other:?}"),
            }
        }
    }

    /// The paper's receive action: classify against the window, deliver
    /// or discard, then issue a background SAVE when `r ≥ Kq + lst`.
    /// While `Waking`, arrivals are buffered (up to
    /// [`SfReceiver::buffer_limit`]; beyond it they are dropped); while
    /// `Down`, dropped.
    ///
    /// # Errors
    ///
    /// Never errs today; mirrors the sender API for forward-compatible
    /// stores.
    pub fn receive(&mut self, seq: SeqNum) -> Result<RxOutcome, StableError> {
        let mut outcome = None;
        self.drive(SfEvent::Receive(seq), |_, o| outcome = Some(o));
        Ok(outcome.expect("Receive produces one Rx"))
    }

    /// Completion event for a background SAVE.
    ///
    /// # Errors
    ///
    /// Propagates store failures; the pending save is retained for retry.
    pub fn save_completed(&mut self) -> Result<Option<PendingSave>, StableError> {
        self.saver.complete()
    }

    /// Drops the in-flight background SAVE without completing it — see
    /// [`SfSender::drop_pending_save`].
    pub fn drop_pending_save(&mut self) {
        self.saver.crash();
        self.machine.step(SfEvent::SaveLost);
    }

    /// `(process q is reset) → wait := true`: volatile window, `lst` and
    /// in-flight SAVE are lost.
    pub fn reset(&mut self) {
        self.machine.step(SfEvent::Reset);
        self.saver.crash();
        self.stats.resets += 1;
    }

    /// First half of wake-up: FETCH, leap by `2Kq`, issue the synchronous
    /// SAVE. Arrivals from now until [`finish_wakeup`](Self::finish_wakeup)
    /// are buffered, exactly as §4 prescribes.
    ///
    /// The FETCH is generation-checked (see
    /// [`BackgroundSaver::fetch_checked`]): a rolled-back store would
    /// resume the replay window below sequence numbers already accepted,
    /// so it fails the wake-up instead.
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
        let fetched = match self.saver.fetch_checked(self.slot) {
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
        self.saver.issue(self.slot, leaped);
        Ok(SeqNum::new(leaped))
    }

    /// Second half of wake-up: the SAVE completed. Rebuild the window at
    /// the leaped right edge with **every entry marked received** ("every
    /// sequence number up to r should be assumed to be already
    /// received"), then classify the buffered arrivals in order.
    ///
    /// # Errors
    ///
    /// Propagates store failures (stays `Waking`; retry).
    ///
    /// # Panics
    ///
    /// Panics if not `Waking`.
    pub fn finish_wakeup(&mut self) -> Result<Vec<(SeqNum, RxOutcome)>, StableError> {
        assert_eq!(
            self.machine.phase(),
            Phase::Waking,
            "no wake-up in progress"
        );
        self.saver.complete()?;
        let mut outcomes = Vec::new();
        self.drive(SfEvent::SaveDone, |seq, outcome| {
            outcomes.push((seq, outcome))
        });
        Ok(outcomes)
    }

    /// Atomic wake-up (both halves) for untimed runs. Returns the leaped
    /// right edge.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    pub fn wake_up(&mut self) -> Result<SeqNum, StableError> {
        let leaped = self.begin_wakeup()?;
        self.finish_wakeup()?;
        Ok(leaped)
    }

    /// Access to the underlying store.
    pub fn store(&self) -> &S {
        self.saver.store()
    }

    /// Mutable access to the underlying store — SA teardown and
    /// fault-injection tests.
    pub fn store_mut(&mut self) -> &mut S {
        self.saver.store_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reset_stable::MemStable;

    fn sender(k: u64) -> SfSender<MemStable> {
        SfSender::new(MemStable::new(), SlotId::sender(1), k)
    }

    fn receiver(k: u64, w: u64) -> SfReceiver<MemStable> {
        SfReceiver::new(MemStable::new(), SlotId::receiver(1), k, w)
    }

    // ------------------------------------------------------------------
    // Sender
    // ------------------------------------------------------------------

    #[test]
    fn sender_counts_from_one() {
        let mut p = sender(5);
        for want in 1..=10u64 {
            assert_eq!(p.send_next().unwrap(), Some(SeqNum::new(want)));
        }
        assert_eq!(p.stats().sent, 10);
    }

    #[test]
    fn sender_saves_every_k() {
        let mut p = sender(5);
        // lst starts at 1; first save when s (post-increment) >= 5 + 1 = 6,
        // i.e. after sending seq 5.
        for _ in 0..4 {
            p.send_next().unwrap();
        }
        assert_eq!(p.pending_save(), None, "no save after 4 sends");
        p.send_next().unwrap(); // seq 5; s becomes 6 = K + lst
        let pending = p.pending_save().expect("save issued");
        assert_eq!(pending.value, 6);
        assert_eq!(p.last_stored(), 6);
        // Saves repeat every K sends.
        p.save_completed().unwrap();
        for _ in 0..5 {
            p.send_next().unwrap();
        }
        assert_eq!(p.pending_save().map(|s| s.value), Some(11));
        assert_eq!(p.stats().saves_issued, 2);
    }

    #[test]
    fn sender_reset_blocks_sending() {
        let mut p = sender(5);
        p.send_next().unwrap();
        p.reset();
        assert_eq!(p.phase(), Phase::Down);
        assert_eq!(p.send_next().unwrap(), None);
        assert_eq!(p.stats().resets, 1);
    }

    #[test]
    fn wakeup_without_any_save_leaps_from_zero() {
        let mut p = sender(25);
        for _ in 0..10 {
            p.send_next().unwrap();
        }
        p.reset();
        let resumed = p.wake_up().unwrap();
        assert_eq!(resumed.value(), 50, "0 + 2K");
        // Strictly above every used sequence number (max was 10).
        assert!(resumed.value() > 10);
        assert_eq!(p.send_next().unwrap(), Some(SeqNum::new(50)));
    }

    #[test]
    fn fig1_case1_reset_during_save_gap_at_most_2k() {
        // SAVE(s) in flight when the reset hits: FETCH returns s − K.
        let k = 10;
        let mut p = sender(k);
        // Drive until the second save is issued but NOT completed.
        // First save at s=11 (value 11), complete it; lst = 11.
        for _ in 0..10 {
            p.send_next().unwrap();
        }
        p.save_completed().unwrap();
        // Next save issues when s = 21.
        for _ in 0..10 {
            p.send_next().unwrap();
        }
        assert_eq!(p.pending_save().map(|s| s.value), Some(21));
        // Send t < K more messages, reset mid-save.
        for _ in 0..7 {
            p.send_next().unwrap();
        }
        let next_unused = p.next_seq(); // 28
        p.reset();
        let resumed = p.wake_up().unwrap();
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
            p.send_next().unwrap();
        }
        p.save_completed().unwrap(); // SAVE(11) durable
        for _ in 0..6 {
            p.send_next().unwrap(); // u = 6 < K more sends
        }
        let next_unused = p.next_seq(); // 17
        p.reset();
        let resumed = p.wake_up().unwrap();
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
            p.send_next().unwrap();
        }
        p.reset();
        let first = p.wake_up().unwrap(); // 0 + 20 = 20, durably saved
                                          // Immediately reset again — before any new background save.
        p.reset();
        let second = p.wake_up().unwrap();
        // FETCH finds 20 (saved synchronously at previous wake-up).
        assert_eq!(second.value(), 40);
        assert!(second > first, "every wake-up moves strictly forward");
    }

    #[test]
    fn reset_during_wakeup_save_recovers_old_value() {
        let mut p = sender(10);
        for _ in 0..10 {
            p.send_next().unwrap();
        }
        p.save_completed().unwrap(); // 11 durable
        p.reset();
        let target = p.begin_wakeup().unwrap();
        assert_eq!(target.value(), 31);
        assert_eq!(p.phase(), Phase::Waking);
        assert_eq!(p.send_next().unwrap(), None, "still waiting");
        // Reset strikes during the wake-up SAVE: it never became durable.
        p.reset();
        let resumed = p.wake_up().unwrap();
        assert_eq!(resumed.value(), 31, "FETCH saw 11 again, not 31");
    }

    #[test]
    fn leap_stat_records_true_gap_not_nominal_bound() {
        // Regression (pre-fix code recorded 2K per wake-up regardless):
        // FETCH finding a *fresh* value must shrink the recorded leap.
        let k = 5;
        let mut p = sender(k);
        for _ in 0..5 {
            p.send_next().unwrap(); // save of 6 issued at seq 5
        }
        p.save_completed().unwrap(); // 6 durable — perfectly fresh
        for _ in 0..2 {
            p.send_next().unwrap(); // next unused s = 8
        }
        p.reset();
        let resumed = p.wake_up().unwrap();
        assert_eq!(resumed.value(), 16, "6 + 2K");
        // The unusable gap is 16 − 8 = 8, strictly below the 2K = 10 the
        // old bookkeeping charged.
        assert_eq!(p.stats().seqs_leaped, 8);
        assert!(p.stats().seqs_leaped <= 2 * k);
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
        let mut p = SfSender::new(store, slot, k);
        p.reset();
        let resumed = p.wake_up().unwrap();
        assert_eq!(resumed.value(), u64::MAX - 2);
        assert_eq!(
            p.send_next().unwrap(),
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
        assert_eq!(q.receive(SeqNum::new(1)).unwrap(), RxOutcome::Delivered);
        assert_eq!(
            q.receive(SeqNum::new(1)).unwrap(),
            RxOutcome::DiscardedDuplicate
        );
        assert_eq!(q.stats().delivered, 1);
        assert_eq!(q.stats().discarded_duplicate, 1);
    }

    #[test]
    fn receiver_saves_every_k_edge_advances() {
        let mut q = receiver(5, 32);
        // lst = 0; save when r >= 5.
        for s in 1..=4u64 {
            q.receive(SeqNum::new(s)).unwrap();
        }
        assert_eq!(q.pending_save(), None);
        q.receive(SeqNum::new(5)).unwrap();
        assert_eq!(q.pending_save().map(|p| p.value), Some(5));
        assert_eq!(q.last_stored(), 5);
    }

    #[test]
    fn receiver_down_drops_waking_buffers() {
        let mut q = receiver(5, 32);
        q.receive(SeqNum::new(1)).unwrap();
        q.reset();
        assert_eq!(q.receive(SeqNum::new(2)).unwrap(), RxOutcome::DroppedDown);
        q.begin_wakeup().unwrap();
        assert_eq!(q.receive(SeqNum::new(3)).unwrap(), RxOutcome::Buffered);
        let outcomes = q.finish_wakeup().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(q.stats().dropped_down, 1);
        assert_eq!(q.stats().buffered, 1);
    }

    #[test]
    fn wakeup_buffer_is_bounded_overflow_drops() {
        // Regression (pre-fix code buffered without bound — an OOM
        // vector under a mid-wake-up frame flood).
        let mut q = receiver(5, 32);
        q.set_buffer_limit(4);
        assert_eq!(q.buffer_limit(), 4);
        q.receive(SeqNum::new(1)).unwrap();
        q.reset();
        q.begin_wakeup().unwrap();
        for s in 10..14u64 {
            assert_eq!(q.receive(SeqNum::new(s)).unwrap(), RxOutcome::Buffered);
        }
        for s in 14..20u64 {
            assert_eq!(
                q.receive(SeqNum::new(s)).unwrap(),
                RxOutcome::DroppedDown,
                "arrival {s} beyond the cap must be dropped, not buffered"
            );
        }
        assert_eq!(q.stats().buffered, 4);
        assert_eq!(q.stats().dropped_down, 6);
        let outcomes = q.finish_wakeup().unwrap();
        assert_eq!(outcomes.len(), 4, "only the capped buffer is classified");
    }

    #[test]
    fn fig2_wakeup_rejects_all_old_replays() {
        let k = 10;
        let mut q = receiver(k, 32);
        // Receive 1..=25 in order; saves at r=10 (durable) and r=20
        // (in flight when the reset strikes).
        for s in 1..=25u64 {
            q.receive(SeqNum::new(s)).unwrap();
            if s == 10 {
                q.save_completed().unwrap();
            }
        }
        assert_eq!(q.pending_save().map(|p| p.value), Some(20));
        q.reset();
        let leaped = q.wake_up().unwrap();
        // FETCH found 10; leaped = 10 + 2K = 30 ≥ 25 (the real edge).
        assert_eq!(leaped.value(), 30);
        // The adversary replays the entire history: all rejected.
        for s in 1..=25u64 {
            let out = q.receive(SeqNum::new(s)).unwrap();
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
        assert_eq!(q.receive(SeqNum::new(31)).unwrap(), RxOutcome::Delivered);
    }

    #[test]
    fn fig2_discarded_fresh_bounded_by_2k() {
        let k = 10;
        let mut q = receiver(k, 64);
        for s in 1..=15u64 {
            q.receive(SeqNum::new(s)).unwrap();
            if s == 10 {
                q.save_completed().unwrap();
            }
        }
        q.reset();
        let leaped = q.wake_up().unwrap(); // 10 + 20 = 30
                                           // Sender continues from 16; fresh 16..=30 are discarded, 31+ flow.
        let mut discarded_fresh = 0;
        for s in 16..=40u64 {
            match q.receive(SeqNum::new(s)).unwrap() {
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
            q.receive(SeqNum::new(s)).unwrap();
            if s == 5 {
                q.save_completed().unwrap();
            }
        }
        q.reset();
        q.begin_wakeup().unwrap(); // leap target = 5 + 10 = 15
                                   // While the wake-up SAVE runs: a replay (3) and a fresh-but-
                                   // sacrificed (13) and a genuinely new (16) arrive.
        q.receive(SeqNum::new(3)).unwrap();
        q.receive(SeqNum::new(13)).unwrap();
        q.receive(SeqNum::new(16)).unwrap();
        let outcomes = q.finish_wakeup().unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].1.is_delivered(), "replay rejected");
        assert!(!outcomes[1].1.is_delivered(), "sacrificed (≤ 2K) fresh");
        assert!(outcomes[2].1.is_delivered(), "post-leap fresh delivered");
    }

    #[test]
    fn receiver_double_reset_never_reaccepts() {
        let mut q = receiver(5, 32);
        for s in 1..=7u64 {
            q.receive(SeqNum::new(s)).unwrap();
        }
        q.reset();
        let first = q.wake_up().unwrap(); // 0or5 + 10
        q.reset();
        let second = q.wake_up().unwrap();
        assert!(second > first);
        // The full history replay still bounces.
        for s in 1..=7u64 {
            assert!(!q.receive(SeqNum::new(s)).unwrap().is_delivered());
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
            if let Some(seq) = p.send_next().unwrap() {
                sent += 1;
                if q.receive(seq).unwrap().is_delivered() {
                    delivered += 1;
                }
            }
        }
        assert_eq!(sent, delivered, "no fresh message discarded");
    }
}
