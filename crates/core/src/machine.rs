//! The SAVE/FETCH protocol as a **pure transition function**.
//!
//! [`SfMachine`] is the §4 protocol with every effectful dependency —
//! the stable store, the save device, the clock — factored out. It holds
//! only the *volatile* protocol variables (`s` or the window, `lst`, the
//! phase, the wake-up target) and advances exclusively through
//! [`SfMachine::step`], which consumes one [`SfEvent`] and returns the
//! [`SfEffect`]s the environment must perform. Nothing in here performs
//! I/O, reads time, or touches randomness: `step` is a total function of
//! `(state, event)`, so any schedule can be replayed verbatim and any
//! state can be hashed, compared and enumerated. The per-message events
//! ([`Send`](SfEvent::Send), [`Receive`](SfEvent::Receive)) emit at most
//! two effects, which [`SfEffects`] holds inline: a step on the datapath
//! touches no heap.
//!
//! Two layers sit on top:
//!
//! * [`SfDriver`](crate::SfDriver) (`savefetch.rs`) is the one thin
//!   **driver**, for either role: it owns a one-slot
//!   [`reset_stable::BackgroundSaver`] and translates effects into store
//!   operations (`SaveIssued` → `issue`, a wake-up FETCH → the
//!   [`SfEvent::BeginWakeup`] payload). It counts nothing; what the
//!   effects report — a sent number, a receive outcome, the
//!   [`WokeUp`](SfEffect::WokeUp) gap — its verbs return.
//! * `reset-model`'s bounded explorer enumerates *all* interleavings of
//!   sends, resets, save completions/losses and adversary
//!   replay/reorder/drop for small bounds, asserting the §3/§4
//!   invariants at every reachable state and cross-checking the machine
//!   against the real driver endpoints on every trace.
//!
//! # Event/effect dictionary
//!
//! | Event | Meaning | Effects produced |
//! |---|---|---|
//! | [`Send`](SfEvent::Send) | the application asks to send | [`Sent`](SfEffect::Sent) (+ [`SaveIssued`](SfEffect::SaveIssued)) or [`Blocked`](SfEffect::Blocked) |
//! | [`Receive`](SfEvent::Receive) | a message arrives | [`Rx`](SfEffect::Rx) (+ [`SaveIssued`](SfEffect::SaveIssued)) |
//! | [`Reset`](SfEvent::Reset) | the process crashes | none (volatile state is gone) |
//! | [`BeginWakeup`](SfEvent::BeginWakeup) | FETCH returned | [`SaveIssued`](SfEffect::SaveIssued) — the synchronous SAVE of the leaped counter |
//! | [`SaveDone`](SfEvent::SaveDone) | the in-flight SAVE became durable | [`WokeUp`](SfEffect::WokeUp) + buffered [`Rx`](SfEffect::Rx)s when `Waking`, nothing when `Running` |
//! | [`SaveLost`](SfEvent::SaveLost) | the device dropped the in-flight background SAVE | none |
//! | [`FetchFault`](SfEvent::FetchFault) | FETCH failed (rollback/corrupt/IO) | [`FailedClosed`](SfEffect::FailedClosed) — the machine stays `Down` |

use crate::seq::SeqNum;
use crate::window::{AntiReplayWindow, Verdict};

/// Liveness state of a SAVE/FETCH process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Normal operation (`wait = false` in the paper).
    Running,
    /// Reset has struck; volatile state is gone (`wait = true`).
    Down,
    /// Woken up; the synchronous SAVE of the leaped counter is in flight.
    Waking,
}

/// Outcome of handing one received sequence number to the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RxOutcome {
    /// Delivered to the application.
    Delivered,
    /// Discarded: left of the window (assumed replayed).
    DiscardedStale,
    /// Discarded: already received (definite replay).
    DiscardedDuplicate,
    /// Held in the wake-up buffer; resolved when the wake-up finishes.
    Buffered,
    /// The machine is down (or its wake-up buffer is full); the packet
    /// evaporates.
    DroppedDown,
}

impl RxOutcome {
    pub(crate) fn from_verdict(v: Verdict) -> RxOutcome {
        match v {
            Verdict::Fresh => RxOutcome::Delivered,
            Verdict::Stale => RxOutcome::DiscardedStale,
            Verdict::Duplicate => RxOutcome::DiscardedDuplicate,
        }
    }

    /// True iff the message reached the application.
    pub fn is_delivered(self) -> bool {
        self == RxOutcome::Delivered
    }
}

/// Default cap on the wake-up buffer: messages arriving while the
/// synchronous wake-up SAVE is in flight are held for classification, and
/// without a bound a frame flood mid-wake-up is an OOM vector. Overflow
/// is reported as [`RxOutcome::DroppedDown`] — indistinguishable, to the
/// peer, from the message having arrived a moment earlier while the
/// process was still down.
pub const DEFAULT_WAKEUP_BUFFER: usize = 1024;

/// Why a FETCH failed (the driver's
/// [`reset_stable::StableError`] projected onto the pure machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchFaultKind {
    /// The store served state older than a witnessed durable SAVE.
    Rollback,
    /// The store served unparseable state.
    Corrupt,
    /// The device failed outright.
    Io,
}

/// One input to the pure transition function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfEvent {
    /// The application hands the sender one message to send.
    Send,
    /// One message arrives at the receiver.
    Receive(SeqNum),
    /// The process is reset: all volatile state is lost.
    Reset,
    /// Wake-up begins: the environment performed the FETCH and reports
    /// the last durable counter (`0` when nothing was ever saved). The
    /// machine computes the `2K` leap and issues the synchronous SAVE.
    BeginWakeup {
        /// The FETCHed durable counter value.
        fetched: u64,
    },
    /// The SAVE most recently issued by this machine became durable.
    /// While `Waking` this is the synchronous wake-up SAVE and completes
    /// the wake-up; while `Running` it is a background SAVE completing.
    SaveDone,
    /// The in-flight *background* SAVE was dropped by the device without
    /// becoming durable (write failure). The machine's variables are
    /// unaffected — `lst` already advanced at issue time, exactly like
    /// the driver, so a later FETCH simply finds an older value.
    SaveLost,
    /// The wake-up FETCH failed; the process must stay down and the
    /// layer above fails closed.
    FetchFault(FetchFaultKind),
}

/// One obligation or observation handed back to the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfEffect {
    /// Send the message under this sequence number.
    Sent(SeqNum),
    /// The send was refused: the process is down or waking.
    Blocked,
    /// The receive outcome for `seq` (delivery, discard, buffering…).
    Rx {
        /// The classified sequence number.
        seq: SeqNum,
        /// What happened to it.
        outcome: RxOutcome,
    },
    /// Hand `SAVE(value)` to the save device. During a wake-up this is
    /// the synchronous SAVE the process must wait for; otherwise it is a
    /// background SAVE.
    SaveIssued(u64),
    /// The wake-up completed and the process is `Running` again.
    WokeUp {
        /// The leaped counter the process resumed at.
        resumed: SeqNum,
        /// Sender only: the *actual* number of sequence numbers made
        /// unusable by this wake-up (`resumed − s_pre_reset`), which the
        /// §5 theorem bounds by `2K`. Receivers report `0` — their
        /// sacrifice is a property of the traffic, not the machine.
        unusable_gap: u64,
    },
    /// A FETCH fault was recorded; the machine remains `Down`.
    FailedClosed(FetchFaultKind),
}

/// The effects of one [`SfMachine::step`], in emission order: iterate it
/// (`for effect in m.step(e)`), or read it as a slice (`fx[0]`,
/// `fx.len()`, `fx[..]` patterns) and compare it with an array.
///
/// Every event but one emits at most two effects, and those live in the
/// value itself. Only the wake-up
/// [`SaveDone`](SfEvent::SaveDone) that replays a buffered backlog emits
/// more; it spills to the heap, off the per-message path. `SfEffect` is
/// `Copy`, so code on that path reads the slice (`for &effect in
/// fx.iter()`), which is cheaper than consuming the value.
pub struct SfEffects {
    /// The effects while at most `INLINE` were emitted; `Blocked` pads
    /// the unused tail.
    inline: [SfEffect; Self::INLINE],
    /// Effects held in `inline`; 0 once spilled.
    len: usize,
    /// All effects once more than `INLINE` were emitted, else empty.
    spill: Vec<SfEffect>,
}

impl SfEffects {
    /// The most effects a step emits without touching the heap.
    const INLINE: usize = 2;

    #[inline]
    fn new() -> Self {
        SfEffects {
            inline: [SfEffect::Blocked; Self::INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, effect: SfEffect) {
        if self.spill.is_empty() && self.len < Self::INLINE {
            self.inline[self.len] = effect;
            self.len += 1;
            return;
        }
        self.spill.extend_from_slice(&self.inline[..self.len]);
        self.len = 0;
        self.spill.push(effect);
    }
}

impl std::ops::Deref for SfEffects {
    type Target = [SfEffect];
    #[inline]
    fn deref(&self) -> &[SfEffect] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl IntoIterator for SfEffects {
    type Item = SfEffect;
    type IntoIter = std::iter::Chain<
        std::iter::Take<std::array::IntoIter<SfEffect, { SfEffects::INLINE }>>,
        std::vec::IntoIter<SfEffect>,
    >;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().take(self.len).chain(self.spill)
    }
}

impl std::fmt::Debug for SfEffects {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<const N: usize> PartialEq<[SfEffect; N]> for SfEffects {
    fn eq(&self, other: &[SfEffect; N]) -> bool {
        self[..] == other[..]
    }
}

/// Role-specific volatile state. The sender's pair fits beside the
/// window's bitmap tag, which doubles as the role's, so a role is the
/// window's 40 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Role {
    Sender {
        /// Next sequence number to send (paper's `s`, initially 1).
        s: SeqNum,
        /// The value of `s` when the most recent `Running → Down`
        /// transition happened: the first sequence number that was never
        /// used. Survives further resets while down/waking (the counter
        /// never resumed in between), so the wake-up can report the true
        /// unusable gap instead of the nominal `2K` bound.
        pre_reset_s: u64,
    },
    Receiver {
        /// The anti-replay window (volatile).
        window: AntiReplayWindow,
    },
}

/// The §4 SAVE/FETCH process as a pure state machine — see the
/// [module docs](self) for the architecture.
///
/// # Examples
///
/// A sender that crashes before its first SAVE resumes at `2K`:
///
/// ```
/// use anti_replay::machine::{SfEffect, SfEvent, SfMachine};
/// use anti_replay::{Phase, SeqNum};
///
/// let mut m = SfMachine::sender(25);
/// assert_eq!(m.step(SfEvent::Send), [SfEffect::Sent(SeqNum::new(1))]);
/// m.step(SfEvent::Reset);
/// assert_eq!(m.phase(), Phase::Down);
/// // The environment FETCHed nothing (0); the machine leaps 2K = 50 and
/// // issues the synchronous SAVE of the leaped value.
/// let fx = m.step(SfEvent::BeginWakeup { fetched: 0 });
/// assert_eq!(fx, [SfEffect::SaveIssued(50)]);
/// // The SAVE becomes durable: the machine resumes, reporting the true
/// // unusable gap (50 − 2 = 48 ≤ 2K; sequence number 1 was used).
/// let fx = m.step(SfEvent::SaveDone);
/// assert_eq!(
///     fx,
///     [SfEffect::WokeUp { resumed: SeqNum::new(50), unusable_gap: 48 }]
/// );
/// assert_eq!(m.step(SfEvent::Send), [SfEffect::Sent(SeqNum::new(50))]);
/// ```
///
/// # Layout
///
/// `#[repr(C)]` puts what every message reads first, in one 57-byte run:
/// `K`, `lst`, the role (the sender's counter, or the receiver's
/// window) and the phase. What only a reset or a wake-up reads follows
/// it: the wake-up target and the receiver's wake-up buffer and cap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct SfMachine {
    k: u64,
    /// Last counter value handed to a SAVE (paper's `lst`).
    lst: u64,
    role: Role,
    phase: Phase,
    /// The leaped counter chosen at `BeginWakeup`, applied at `SaveDone`.
    waking_target: Option<SeqNum>,
    /// Receiver: messages that arrived while the wake-up SAVE was in
    /// flight. Always empty for a sender.
    buffer: Vec<SeqNum>,
    /// Receiver: hard cap on `buffer` (see [`DEFAULT_WAKEUP_BUFFER`]).
    buffer_limit: usize,
}

impl SfMachine {
    /// A sender machine saving every `k` messages (paper's process `p`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn sender(k: u64) -> Self {
        assert!(k > 0, "save interval must be positive");
        SfMachine {
            k,
            lst: SeqNum::FIRST.value(),
            role: Role::Sender {
                s: SeqNum::FIRST,
                pre_reset_s: SeqNum::FIRST.value(),
            },
            phase: Phase::Running,
            waking_target: None,
            buffer: Vec::new(),
            buffer_limit: DEFAULT_WAKEUP_BUFFER,
        }
    }

    /// A receiver machine saving every `k` right-edge advances over a
    /// reference window of `w` entries (paper's process `q`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `w == 0`.
    pub fn receiver(k: u64, w: u64) -> Self {
        assert!(k > 0, "save interval must be positive");
        SfMachine {
            k,
            lst: 0,
            role: Role::Receiver {
                window: AntiReplayWindow::new(w),
            },
            phase: Phase::Running,
            waking_target: None,
            buffer: Vec::new(),
            buffer_limit: DEFAULT_WAKEUP_BUFFER,
        }
    }

    /// Caps the receiver's wake-up buffer at `limit` messages (clamped
    /// to ≥ 1); arrivals beyond it while `Waking` are reported as
    /// [`RxOutcome::DroppedDown`]. No effect on sender machines.
    pub fn set_buffer_limit(&mut self, limit: usize) {
        if let Role::Receiver { .. } = self.role {
            self.buffer_limit = limit.max(1);
        }
    }

    /// The receiver's wake-up buffer cap ([`DEFAULT_WAKEUP_BUFFER`]
    /// unless overridden); `usize::MAX` reported for senders.
    pub fn buffer_limit(&self) -> usize {
        match self.role {
            Role::Receiver { .. } => self.buffer_limit,
            Role::Sender { .. } => usize::MAX,
        }
    }

    /// The save interval `K`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Last counter value handed to a SAVE (paper's `lst`).
    pub fn last_stored(&self) -> u64 {
        self.lst
    }

    /// The leaped counter a wake-up in progress will resume at.
    pub fn waking_target(&self) -> Option<SeqNum> {
        self.waking_target
    }

    /// Sender: the next sequence number that would be sent. `None` for
    /// receivers.
    pub fn next_seq(&self) -> Option<SeqNum> {
        match &self.role {
            Role::Sender { s, .. } => Some(*s),
            Role::Receiver { .. } => None,
        }
    }

    /// Receiver: the anti-replay window. `None` for senders.
    pub fn window(&self) -> Option<&AntiReplayWindow> {
        match &self.role {
            Role::Receiver { window, .. } => Some(window),
            Role::Sender { .. } => None,
        }
    }

    /// Receiver: sequence numbers currently held in the wake-up buffer
    /// (empty for senders).
    pub fn buffered(&self) -> &[SeqNum] {
        &self.buffer
    }

    /// `k + lst` with the overflow made well-defined: near the `SeqNum`
    /// ceiling the sum can exceed `u64::MAX`, in which case the threshold
    /// is unreachable (no counter value can satisfy it) and no SAVE is
    /// due — the sequence space runs into the documented
    /// [`SeqNum::next`] overflow panic first. The unchecked form
    /// (`value >= self.k + self.lst`) panicked in debug builds and
    /// wrapped in release, issuing spurious saves.
    fn save_due(&self, value: u64) -> bool {
        self.k.checked_add(self.lst).is_some_and(|t| value >= t)
    }

    /// Classifies `seq` against the window and issues a background SAVE
    /// when the right edge crosses the threshold. Running phase only.
    fn classify(&mut self, seq: SeqNum, effects: &mut SfEffects) {
        let Role::Receiver { window, .. } = &mut self.role else {
            panic!("Receive is a receiver event");
        };
        let outcome = RxOutcome::from_verdict(window.check_and_accept(seq));
        effects.push(SfEffect::Rx { seq, outcome });
        let r = window.right_edge().value();
        if self.save_due(r) {
            self.lst = r;
            effects.push(SfEffect::SaveIssued(r));
        }
    }

    /// Advances the machine by one event. Pure: the only outputs are the
    /// returned effects and the updated `self`.
    ///
    /// # Panics
    ///
    /// * [`SfEvent::BeginWakeup`] / [`SfEvent::FetchFault`] while not
    ///   `Down` ("wake_up requires a prior reset") — the same contract
    ///   the driver endpoints always had.
    /// * [`SfEvent::Send`] on a receiver, [`SfEvent::Receive`] on a
    ///   sender.
    /// * Sequence-number overflow (the documented [`SeqNum`] ceiling).
    pub fn step(&mut self, event: SfEvent) -> SfEffects {
        let mut effects = SfEffects::new();
        match event {
            SfEvent::Send => {
                if self.phase != Phase::Running {
                    effects.push(SfEffect::Blocked);
                    return effects;
                }
                let Role::Sender { s, .. } = &mut self.role else {
                    panic!("Send is a sender event");
                };
                let seq = *s;
                *s = s.next();
                let next = s.value();
                effects.push(SfEffect::Sent(seq));
                if self.save_due(next) {
                    self.lst = next;
                    effects.push(SfEffect::SaveIssued(next));
                }
            }
            SfEvent::Receive(seq) => {
                match self.phase {
                    Phase::Down => {
                        effects.push(SfEffect::Rx {
                            seq,
                            outcome: RxOutcome::DroppedDown,
                        });
                    }
                    Phase::Waking => {
                        let Role::Receiver { .. } = self.role else {
                            panic!("Receive is a receiver event");
                        };
                        // The cap is what keeps a frame flood mid-wake-up
                        // from growing the buffer without bound.
                        let outcome = if self.buffer.len() < self.buffer_limit {
                            self.buffer.push(seq);
                            RxOutcome::Buffered
                        } else {
                            RxOutcome::DroppedDown
                        };
                        effects.push(SfEffect::Rx { seq, outcome });
                    }
                    Phase::Running => self.classify(seq, &mut effects),
                }
            }
            SfEvent::Reset => {
                self.phase = Phase::Down;
                self.waking_target = None;
                self.lst = 0;
                match &mut self.role {
                    Role::Sender { s, pre_reset_s } => {
                        // Record the first never-used number only when the
                        // counter was actually live; a reset while already
                        // down/waking leaves the last live value in place.
                        if s.value() != SeqNum::ZERO.value() {
                            *pre_reset_s = s.value();
                        }
                        // Poison the volatile counter so misuse is loud.
                        *s = SeqNum::ZERO;
                    }
                    Role::Receiver { window } => {
                        self.buffer.clear();
                        window.reset_naive(); // poison: rebuilt on wake-up
                    }
                }
            }
            SfEvent::BeginWakeup { fetched } => {
                assert_eq!(self.phase, Phase::Down, "wake_up requires a prior reset");
                let leaped = SeqNum::new(fetched).leap(2 * self.k);
                self.waking_target = Some(leaped);
                self.phase = Phase::Waking;
                effects.push(SfEffect::SaveIssued(leaped.value()));
            }
            SfEvent::SaveDone => {
                if self.phase != Phase::Waking {
                    // A background SAVE completed; `lst` already advanced
                    // at issue time, so there is nothing to update.
                    return effects;
                }
                let leaped = self.waking_target.take().expect("set by BeginWakeup");
                self.lst = leaped.value();
                self.phase = Phase::Running;
                let mut buffered = Vec::new();
                match &mut self.role {
                    Role::Sender { s, pre_reset_s } => {
                        // The true unusable gap: everything in
                        // [pre_reset_s, leaped) was skipped. When the slot
                        // only ever held this machine's own saves the FETCHed
                        // value never exceeds the last live counter, so the
                        // gap is ≤ 2K (§5, condition (i)) — an invariant the
                        // explorer asserts on every trace. A machine adopting
                        // a foreign slot (new SA over an old store) can see a
                        // larger gap, which is still the honest number.
                        let gap = leaped.value().saturating_sub(*pre_reset_s);
                        *s = leaped;
                        effects.push(SfEffect::WokeUp {
                            resumed: leaped,
                            unusable_gap: gap,
                        });
                    }
                    Role::Receiver { window } => {
                        // §4: every sequence number up to the leaped edge
                        // is assumed already received.
                        window.resume_at(leaped);
                        buffered = std::mem::take(&mut self.buffer);
                        effects.push(SfEffect::WokeUp {
                            resumed: leaped,
                            unusable_gap: 0,
                        });
                    }
                }
                for seq in buffered {
                    self.classify(seq, &mut effects);
                }
            }
            SfEvent::SaveLost => {
                // The device dropped a background write. Volatile state is
                // untouched: `lst` tracks what was *handed* to the device,
                // so the next threshold crossing is unchanged and a later
                // FETCH simply finds an older durable value — the exact
                // situation the 2K leap already covers.
            }
            SfEvent::FetchFault(kind) => {
                assert_eq!(self.phase, Phase::Down, "wake_up requires a prior reset");
                effects.push(SfEffect::FailedClosed(kind));
            }
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes of an [`SfMachine`] every message reads: `K`, `lst`,
    /// the role and the phase. `reset-ipsec`'s record layout test counts
    /// on this prefix (`sadb::tests::MACHINE_RUN`).
    const PER_MESSAGE: usize = 57;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn per_message_fields_lead_the_machine() {
        use std::mem::{offset_of, size_of};
        assert_eq!(
            size_of::<Role>(),
            size_of::<AntiReplayWindow>(),
            "the role tag is a niche"
        );
        assert_eq!(offset_of!(SfMachine, k), 0);
        assert_eq!(offset_of!(SfMachine, lst), 8);
        assert_eq!(offset_of!(SfMachine, role), 16);
        assert_eq!(offset_of!(SfMachine, phase) + 1, PER_MESSAGE);
        for cold in [
            offset_of!(SfMachine, waking_target),
            offset_of!(SfMachine, buffer),
            offset_of!(SfMachine, buffer_limit),
        ] {
            assert!(
                cold >= PER_MESSAGE,
                "a wake-up field at {cold} splits the run"
            );
        }
        // The sender's counter is inside the role's bytes too.
        let m = SfMachine::sender(4);
        let base = std::ptr::from_ref(&m) as usize;
        let Role::Sender { s, .. } = &m.role else {
            unreachable!()
        };
        let s = std::ptr::from_ref(s) as usize - base;
        assert!((16..PER_MESSAGE - 8).contains(&s), "s at {s}");
        assert!(size_of::<SfMachine>() <= 112, "{}", size_of::<SfMachine>());
    }

    fn sent(fx: &[SfEffect]) -> Option<SeqNum> {
        fx.iter().find_map(|e| match e {
            SfEffect::Sent(s) => Some(*s),
            _ => None,
        })
    }

    #[test]
    fn sender_counts_and_saves() {
        let mut m = SfMachine::sender(5);
        for want in 1..=4u64 {
            let fx = m.step(SfEvent::Send);
            assert_eq!(sent(&fx), Some(SeqNum::new(want)));
            assert_eq!(fx.len(), 1, "no save yet: {fx:?}");
        }
        let fx = m.step(SfEvent::Send); // s becomes 6 = K + lst
        assert_eq!(fx[1], SfEffect::SaveIssued(6));
        assert_eq!(m.last_stored(), 6);
    }

    #[test]
    fn sender_blocked_while_down_and_waking() {
        let mut m = SfMachine::sender(5);
        m.step(SfEvent::Reset);
        assert_eq!(m.step(SfEvent::Send), [SfEffect::Blocked]);
        m.step(SfEvent::BeginWakeup { fetched: 0 });
        assert_eq!(m.step(SfEvent::Send), [SfEffect::Blocked]);
    }

    #[test]
    fn sender_true_gap_reported_not_nominal_2k() {
        let k = 5;
        let mut m = SfMachine::sender(k);
        for _ in 0..5 {
            m.step(SfEvent::Send); // save issued at s = 6
        }
        m.step(SfEvent::SaveDone); // background: 6 durable
        m.step(SfEvent::Send);
        m.step(SfEvent::Send); // s = 8 next
        m.step(SfEvent::Reset);
        m.step(SfEvent::BeginWakeup { fetched: 6 });
        let fx = m.step(SfEvent::SaveDone);
        // Leaped to 16; the true gap is 16 − 8 = 8, strictly below 2K=10.
        assert_eq!(
            fx,
            [SfEffect::WokeUp {
                resumed: SeqNum::new(16),
                unusable_gap: 8
            }]
        );
    }

    #[test]
    fn double_reset_keeps_pre_reset_s() {
        let mut m = SfMachine::sender(5);
        m.step(SfEvent::Send); // used 1; s = 2
        m.step(SfEvent::Reset);
        m.step(SfEvent::BeginWakeup { fetched: 0 });
        m.step(SfEvent::Reset); // reset mid-wake-up
        m.step(SfEvent::BeginWakeup { fetched: 0 });
        let fx = m.step(SfEvent::SaveDone);
        // Still measured against s = 2, the only counter ever live.
        assert_eq!(
            fx,
            [SfEffect::WokeUp {
                resumed: SeqNum::new(10),
                unusable_gap: 8
            }]
        );
    }

    #[test]
    fn save_threshold_near_ceiling_does_not_overflow() {
        // lst near u64::MAX: the unchecked `k + lst` comparison overflowed
        // (debug panic / release wrap-and-spurious-save). The checked form
        // treats the unreachable threshold as "no save due".
        let k = 3;
        let mut m = SfMachine::sender(k);
        m.step(SfEvent::Reset);
        m.step(SfEvent::BeginWakeup {
            fetched: u64::MAX - 2 * k - 2,
        });
        m.step(SfEvent::SaveDone); // s = lst = u64::MAX − 2
        let fx = m.step(SfEvent::Send);
        assert_eq!(sent(&fx), Some(SeqNum::new(u64::MAX - 2)));
        assert_eq!(fx.len(), 1, "no spurious save near the ceiling: {fx:?}");
    }

    #[test]
    fn receiver_threshold_near_ceiling_does_not_overflow() {
        let k = 3;
        let mut m = SfMachine::receiver(k, 8);
        m.step(SfEvent::Reset);
        m.step(SfEvent::BeginWakeup {
            fetched: u64::MAX - 2 * k - 2,
        });
        m.step(SfEvent::SaveDone);
        let fx = m.step(SfEvent::Receive(SeqNum::new(u64::MAX - 1)));
        assert_eq!(
            fx,
            [SfEffect::Rx {
                seq: SeqNum::new(u64::MAX - 1),
                outcome: RxOutcome::Delivered
            }],
            "delivered with no spurious save"
        );
    }

    #[test]
    fn receiver_buffers_until_limit_then_drops() {
        let mut m = SfMachine::receiver(5, 8);
        m.set_buffer_limit(3);
        m.step(SfEvent::Reset);
        m.step(SfEvent::BeginWakeup { fetched: 0 });
        for s in 1..=3u64 {
            let fx = m.step(SfEvent::Receive(SeqNum::new(s)));
            assert_eq!(
                fx[0],
                SfEffect::Rx {
                    seq: SeqNum::new(s),
                    outcome: RxOutcome::Buffered
                }
            );
        }
        let fx = m.step(SfEvent::Receive(SeqNum::new(4)));
        assert_eq!(
            fx[0],
            SfEffect::Rx {
                seq: SeqNum::new(4),
                outcome: RxOutcome::DroppedDown
            },
            "overflow counts as DroppedDown"
        );
        assert_eq!(m.buffered().len(), 3);
        // finish_wakeup classifies exactly the capped buffer.
        let fx = m.step(SfEvent::SaveDone);
        let rx: Vec<_> = fx
            .iter()
            .filter(|e| matches!(e, SfEffect::Rx { .. }))
            .collect();
        assert_eq!(rx.len(), 3);
    }

    #[test]
    fn wakeup_backlog_keeps_emission_order_past_the_inline_capacity() {
        // WokeUp + three buffered arrivals, the last crossing the save
        // threshold: five effects, more than a step holds inline. Slice
        // view, by-value iteration and array equality must all agree.
        let mut m = SfMachine::receiver(5, 8);
        m.step(SfEvent::Reset);
        m.step(SfEvent::BeginWakeup { fetched: 0 }); // leaps to 10
        for s in [1u64, 11, 15] {
            m.step(SfEvent::Receive(SeqNum::new(s)));
        }
        let rx = |s: u64, outcome| SfEffect::Rx {
            seq: SeqNum::new(s),
            outcome,
        };
        let want = [
            SfEffect::WokeUp {
                resumed: SeqNum::new(10),
                unusable_gap: 0,
            },
            rx(1, RxOutcome::DiscardedStale),
            rx(11, RxOutcome::Delivered),
            rx(15, RxOutcome::Delivered),
            SfEffect::SaveIssued(15),
        ];
        let fx = m.step(SfEvent::SaveDone);
        assert_eq!(fx, want);
        assert_eq!(fx.len(), 5);
        assert_eq!(fx[4], SfEffect::SaveIssued(15));
        assert_eq!(fx.into_iter().collect::<Vec<_>>(), want);
        // Two effects stay inline and read the same way.
        let fx = m.step(SfEvent::Receive(SeqNum::new(20)));
        assert_eq!(fx, [rx(20, RxOutcome::Delivered), SfEffect::SaveIssued(20)]);
        assert_eq!(fx.into_iter().count(), 2);
    }

    #[test]
    fn receiver_wakeup_rejects_history() {
        let k = 10;
        let mut m = SfMachine::receiver(k, 32);
        for s in 1..=25u64 {
            m.step(SfEvent::Receive(SeqNum::new(s)));
            if s == 10 {
                m.step(SfEvent::SaveDone);
            }
        }
        m.step(SfEvent::Reset);
        m.step(SfEvent::BeginWakeup { fetched: 10 });
        let fx = m.step(SfEvent::SaveDone);
        assert_eq!(
            fx[0],
            SfEffect::WokeUp {
                resumed: SeqNum::new(30),
                unusable_gap: 0
            }
        );
        for s in 1..=25u64 {
            let fx = m.step(SfEvent::Receive(SeqNum::new(s)));
            assert!(
                matches!(
                    fx[0],
                    SfEffect::Rx {
                        outcome: RxOutcome::DiscardedStale | RxOutcome::DiscardedDuplicate,
                        ..
                    }
                ),
                "replayed {s}: {fx:?}"
            );
        }
    }

    #[test]
    fn fetch_fault_stays_down() {
        let mut m = SfMachine::sender(5);
        m.step(SfEvent::Reset);
        let fx = m.step(SfEvent::FetchFault(FetchFaultKind::Rollback));
        assert_eq!(fx, [SfEffect::FailedClosed(FetchFaultKind::Rollback)]);
        assert_eq!(m.phase(), Phase::Down);
        // A later healthy wake-up still works.
        m.step(SfEvent::BeginWakeup { fetched: 0 });
        m.step(SfEvent::SaveDone);
        assert_eq!(m.phase(), Phase::Running);
    }

    #[test]
    fn save_lost_leaves_variables_untouched() {
        let mut m = SfMachine::sender(5);
        for _ in 0..5 {
            m.step(SfEvent::Send);
        }
        let before = m.clone();
        assert_eq!(m.step(SfEvent::SaveLost), []);
        assert_eq!(m, before);
    }

    #[test]
    #[should_panic(expected = "requires a prior reset")]
    fn begin_wakeup_while_running_panics() {
        let mut m = SfMachine::sender(5);
        let _ = m.step(SfEvent::BeginWakeup { fetched: 0 });
    }
}
