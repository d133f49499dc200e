//! Bounded exhaustive model checking of the SAVE/FETCH protocol.
//!
//! The pure [`SfMachine`] (see `anti-replay`'s `machine` module) makes the
//! §4 protocol a total function of `(state, event)`. This crate closes
//! the loop: [`explore`] enumerates **every** interleaving of
//!
//! * up to `max_sends` application sends at the sender `p`,
//! * up to `max_resets_p` / `max_resets_q` resets (striking anywhere —
//!   mid-SAVE, mid-wake-up, back to back),
//! * background-save completions and device losses,
//! * and an adversary that reorders (deliver any in-flight message),
//!   drops (remove any in-flight message), and replays (re-inject any
//!   sequence number ever seen on the wire, up to `max_replays` times),
//!
//! within a [`Config`]'s bounds, asserting at every reachable state:
//!
//! 1. **Replay-freedom** (§5, Theorem, part 1): no sequence number is
//!    delivered twice — across resets, wake-up races, and replays. The
//!    §5 proof runs through the leap bound, so this too carries the
//!    timing proviso of invariant 2: once a *receiver-side* save has
//!    been superseded or device-lost, a reset can FETCH a value lagging
//!    the true edge by more than `2·Kq`, the leap lands below numbers
//!    already accepted, and a replay of those is genuinely accepted
//!    (by model *and* real driver — parity stays armed).
//! 2. **Sender freshness + ≤ 2K sacrifice** (§5 condition (i)): every
//!    sender wake-up resumes strictly above every sequence number it
//!    ever used, and skips at most `2·Kp` numbers — *provided the §4
//!    timing assumption held*. The paper assumes a background SAVE
//!    completes within `K` messages; within the model's adversary that
//!    can fail three ways (the device loses a save, a new issue
//!    supersedes a still-pending one, or a reset destroys an in-flight
//!    save whose value leapt ahead of the cadence because the *peer*
//!    woke up). The explorer states the assumption semantically — at
//!    every reset it checks whether the durable counter lagged the live
//!    one by more than `2K` — and relaxes bounds 1–3 on exactly those
//!    branches, while every other invariant and the differential oracle
//!    stay fully armed.
//! 3. **Receiver sacrifice ≤ 2K** (§5 condition (ii)): the leaped right
//!    edge exceeds the pre-reset edge by at most `2·Kq` (same timing
//!    proviso).
//! 4. **Wake-up monotonicity**: successive wake-ups of one process
//!    resume at strictly increasing counters.
//! 5. **Durable floor**: while running, the live counter (sender) /
//!    window right edge (receiver) never sits below the process's last
//!    durable SAVE — even when a reset lands mid-SAVE or mid-wake-up.
//!
//! Every transition is simultaneously executed against the **real**
//! driver (one `SfDriver` per role over `MemStable`), and full
//! machine-state parity is asserted at every state (differential
//! oracle): the store-owning production drivers and the pure machine can
//! never disagree on any schedule within bounds.
//!
//! # What the bounds do and don't prove
//!
//! Exhaustive enumeration at `N ≤ 6, R ≤ 2, K ≤ 3, w ≤ 4` is not a proof
//! for unbounded parameters — it is a *small-scope* check: protocol
//! bugs in this family (off-by-one leap arithmetic, a forgotten
//! in-flight save, acceptance below the durable edge) manifest at tiny
//! bounds because the protocol's case analysis (reset before/during/
//! after a SAVE; replay before/after FETCH) is finite. The §5 theorem
//! provides the unbounded-parameter argument; the explorer mechanically
//! covers every schedule the proof's case split quantifies over, plus
//! the adversary and device faults the paper assumes away.
//!
//! # Deterministic replay
//!
//! [`explore`] reports a violation as the exact [`Action`] trace that
//! reached it; [`shrink`] greedily minimizes it, and [`replay`] runs a
//! trace verbatim — so any explorer finding becomes a one-line
//! regression test (see `tests/it_model.rs` at the repository root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use anti_replay::machine::{Phase, RxOutcome, SfEffect, SfEvent, SfMachine};
use anti_replay::{SeqNum, SfDriver};
use reset_stable::{MemStable, SlotId, StableStore};

/// Exploration bounds: the product of these budgets defines the schedule
/// space the explorer covers exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    /// Sender save interval `Kp`.
    pub k_p: u64,
    /// Receiver save interval `Kq`.
    pub k_q: u64,
    /// Receiver window size `w`.
    pub w: u64,
    /// Application messages the sender may emit.
    pub max_sends: u32,
    /// Resets that may strike the sender.
    pub max_resets_p: u32,
    /// Resets that may strike the receiver.
    pub max_resets_q: u32,
    /// Adversary replay injections (each re-delivers any historical
    /// sequence number).
    pub max_replays: u32,
    /// Receiver wake-up buffer cap (`None` = driver default). Small
    /// values exercise the overflow → `DroppedDown` path differentially.
    pub buffer_limit: Option<usize>,
}

impl Config {
    /// The issue's reference bounds: `N=4, R=1+1, K=2, w=4` — small
    /// enough to finish in seconds, large enough to cover every §4 case
    /// split (reset before/during/after SAVE, double reset, replay
    /// before/after FETCH).
    pub fn small() -> Self {
        Config {
            k_p: 2,
            k_q: 2,
            w: 4,
            max_sends: 4,
            max_resets_p: 1,
            max_resets_q: 1,
            max_replays: 1,
            buffer_limit: None,
        }
    }
}

/// One schedule step — the alphabet traces are written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// The application hands the sender one message.
    Send,
    /// The adversary lets in-flight message `i` (index into the sorted
    /// in-flight multiset) arrive at the receiver.
    Deliver(usize),
    /// The adversary drops in-flight message `i`.
    Drop(usize),
    /// The adversary re-injects historical sequence number `s`.
    Replay(u64),
    /// A reset strikes the sender.
    ResetP,
    /// A reset strikes the receiver.
    ResetQ,
    /// The sender wakes up: FETCH + `2K` leap + issue synchronous SAVE.
    WakeP,
    /// The receiver wakes up.
    WakeQ,
    /// The sender's in-flight SAVE becomes durable.
    SaveDoneP,
    /// The receiver's in-flight SAVE becomes durable.
    SaveDoneQ,
    /// The device loses the sender's in-flight background SAVE.
    SaveLostP,
    /// The device loses the receiver's in-flight background SAVE.
    SaveLostQ,
}

/// An invariant or parity failure, with the exact schedule that reached
/// it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// The actions from the initial state to the failure, in order.
    pub trace: Vec<Action>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.message)?;
        writeln!(f, "minimal schedule ({} steps):", self.trace.len())?;
        for a in &self.trace {
            writeln!(f, "  Action::{a:?},")?;
        }
        Ok(())
    }
}

impl std::error::Error for Violation {}

/// Coverage counters from one exhaustive run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Distinct reachable states (after dedup).
    pub states: u64,
    /// Transitions executed (every one differentially cross-checked).
    pub transitions: u64,
    /// Complete schedules (maximal action sequences), counted exactly
    /// via dynamic programming over the deduplicated state graph.
    pub traces: u128,
}

/// The simulated save device of one process: at most one SAVE in flight
/// (a new issue supersedes, matching `BackgroundSaver`), one durable
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct Env {
    durable: Option<u64>,
    pending: Option<u64>,
}

/// Everything behavior-relevant — the memoization key. Excludes the real
/// endpoints: given parity (asserted at every state), they are a
/// function of this.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ModelState {
    p: SfMachine,
    q: SfMachine,
    env_p: Env,
    env_q: Env,
    /// In-flight messages, kept sorted (the adversary chooses arrival
    /// order explicitly, so in-flight order carries no information).
    channel: Vec<u64>,
    /// Every sequence number ever placed on the wire (replay library).
    history: BTreeSet<u64>,
    /// Every sequence number delivered to the application.
    delivered: BTreeSet<u64>,
    sends_left: u32,
    resets_p_left: u32,
    resets_q_left: u32,
    replays_left: u32,
    /// The §4 timing assumption ("a background SAVE completes within the
    /// next K messages") failed to hold for p/q: at some reset, the
    /// durable counter lagged the live one by more than `2K`. The causes
    /// within bounds are a device-lost save, a superseding issue voiding
    /// a still-pending one, or a reset destroying an in-flight save
    /// whose value had jumped ahead by a peer's wake-up leap. The flag is
    /// computed *semantically at each reset* (lag > 2K) rather than from
    /// causes, so branches where a breach self-heals before the reset
    /// stay fully checked. Invariants 1–3 relax on flagged branches;
    /// everything else, including the differential oracle, stays armed.
    p_lag_unbounded: bool,
    q_lag_unbounded: bool,
    /// Last wake-up counters (0 = never woke) for monotonicity.
    last_wake_p: u64,
    last_wake_q: u64,
    /// Largest sequence number the sender ever emitted.
    max_sent: u64,
    /// Receiver right edge at the moment of its last reset.
    edge_at_reset_q: u64,
}

/// Model + real endpoints advancing in lockstep.
#[derive(Debug, Clone)]
struct World {
    cfg: Config,
    m: ModelState,
    real_p: SfDriver<MemStable>,
    real_q: SfDriver<MemStable>,
}

const SLOT_P: SlotId = SlotId::sender(1);
const SLOT_Q: SlotId = SlotId::receiver(1);

/// Why an [`Action`] could not be applied.
enum ApplyError {
    /// The action is not enabled in this state (only possible when
    /// replaying a hand-edited or shrunk trace).
    Disabled(&'static str),
    /// An invariant or the differential oracle failed.
    Violation(String),
}

impl World {
    fn new(cfg: Config) -> World {
        let mut real_q = SfDriver::receiver(MemStable::new(), SLOT_Q, cfg.k_q, cfg.w);
        let mut q = SfMachine::receiver(cfg.k_q, cfg.w);
        if let Some(limit) = cfg.buffer_limit {
            real_q.set_buffer_limit(limit);
            q.set_buffer_limit(limit);
        }
        World {
            cfg,
            m: ModelState {
                p: SfMachine::sender(cfg.k_p),
                q,
                env_p: Env::default(),
                env_q: Env::default(),
                channel: Vec::new(),
                history: BTreeSet::new(),
                delivered: BTreeSet::new(),
                sends_left: cfg.max_sends,
                resets_p_left: cfg.max_resets_p,
                resets_q_left: cfg.max_resets_q,
                replays_left: cfg.max_replays,
                p_lag_unbounded: false,
                q_lag_unbounded: false,
                last_wake_p: 0,
                last_wake_q: 0,
                max_sent: 0,
                edge_at_reset_q: 0,
            },
            real_p: SfDriver::sender(MemStable::new(), SLOT_P, cfg.k_p),
            real_q,
        }
    }

    /// All actions enabled in this state. Symmetry reduction: `Deliver`/
    /// `Drop` act on the first index of each *distinct* in-flight value
    /// (the channel is a multiset; acting on either copy is equivalent).
    fn enabled(&self) -> Vec<Action> {
        let m = &self.m;
        let mut acts = Vec::new();
        if m.sends_left > 0 && m.p.phase() == Phase::Running {
            acts.push(Action::Send);
        }
        let mut prev = None;
        for (i, &s) in m.channel.iter().enumerate() {
            if prev == Some(s) {
                continue;
            }
            prev = Some(s);
            acts.push(Action::Deliver(i));
            acts.push(Action::Drop(i));
        }
        if m.replays_left > 0 {
            for &s in &m.history {
                acts.push(Action::Replay(s));
            }
        }
        if m.resets_p_left > 0 {
            acts.push(Action::ResetP);
        }
        if m.resets_q_left > 0 {
            acts.push(Action::ResetQ);
        }
        if m.p.phase() == Phase::Down {
            acts.push(Action::WakeP);
        }
        if m.q.phase() == Phase::Down {
            acts.push(Action::WakeQ);
        }
        if m.env_p.pending.is_some() {
            acts.push(Action::SaveDoneP);
            if m.p.phase() == Phase::Running {
                // Only a *background* save can be silently lost; losing
                // the synchronous wake-up save is a reset (covered).
                acts.push(Action::SaveLostP);
            }
        }
        if m.env_q.pending.is_some() {
            acts.push(Action::SaveDoneQ);
            if m.q.phase() == Phase::Running {
                acts.push(Action::SaveLostQ);
            }
        }
        acts
    }

    /// Receiver-side classification shared by `Deliver`, `Replay` and
    /// the wake-up flush: checks replay-freedom on delivery.
    ///
    /// Replay-freedom is §5's headline claim, but the proof runs through
    /// the leap bound: the wake-up edge `FETCH + 2K` covers the true
    /// pre-reset edge only while the §4 timing assumption bounds the
    /// FETCH lag. Once q reset with its durable edge lagging by more
    /// than `2Kq`, the leap can land *below* sequence numbers q already
    /// accepted, and a replay of those genuinely gets through — the real
    /// driver does the same (parity stays armed). So the check is gated
    /// on `q_lag_unbounded`, like invariant 3; the insert itself stays
    /// unconditional so the memo key remains schedule-independent.
    fn note_rx(&mut self, seq: SeqNum, outcome: RxOutcome) -> Result<(), ApplyError> {
        if outcome == RxOutcome::Delivered
            && !self.m.delivered.insert(seq.value())
            && !self.m.q_lag_unbounded
        {
            return Err(ApplyError::Violation(format!(
                "replayed sequence number {} delivered twice",
                seq.value()
            )));
        }
        Ok(())
    }

    fn receive_at_q(&mut self, seq: u64) -> Result<(), ApplyError> {
        let fx = self.m.q.step(SfEvent::Receive(SeqNum::new(seq)));
        let mut model_outcome = None;
        for e in fx {
            match e {
                SfEffect::Rx { seq, outcome } => {
                    self.note_rx(seq, outcome)?;
                    model_outcome = Some(outcome);
                }
                SfEffect::SaveIssued(v) => {
                    // A new issue while one is pending supersedes it (the
                    // older value can never become durable); whether that
                    // breaks the §4 lag bound is judged at the next reset.
                    self.m.env_q.pending = Some(v);
                }
                other => {
                    return Err(ApplyError::Violation(format!(
                        "unexpected receive effect {other:?}"
                    )))
                }
            }
        }
        let real = self.real_q.receive(SeqNum::new(seq));
        if Some(real) != model_outcome {
            return Err(ApplyError::Violation(format!(
                "differential: receive({seq}) → machine {model_outcome:?}, driver {real:?}"
            )));
        }
        Ok(())
    }

    fn apply(&mut self, action: Action) -> Result<(), ApplyError> {
        if !self.enabled().contains(&action) {
            return Err(ApplyError::Disabled("action not enabled"));
        }
        match action {
            Action::Send => {
                self.m.sends_left -= 1;
                let fx = self.m.p.step(SfEvent::Send);
                let mut sent = None;
                for e in fx {
                    match e {
                        SfEffect::Sent(s) => sent = Some(s),
                        SfEffect::SaveIssued(v) => {
                            // Supersedes any pending save; the §4 lag
                            // bound is judged at the next reset.
                            self.m.env_p.pending = Some(v);
                        }
                        SfEffect::Blocked => {}
                        other => {
                            return Err(ApplyError::Violation(format!(
                                "unexpected send effect {other:?}"
                            )))
                        }
                    }
                }
                let seq = sent.expect("Send enabled only while Running");
                self.m.max_sent = self.m.max_sent.max(seq.value());
                self.m.history.insert(seq.value());
                let i = self.m.channel.partition_point(|&x| x <= seq.value());
                self.m.channel.insert(i, seq.value());
                let real = self.real_p.send_next();
                if real != Some(seq) {
                    return Err(ApplyError::Violation(format!(
                        "differential: send → machine {seq:?}, driver {real:?}"
                    )));
                }
            }
            Action::Deliver(i) => {
                let seq = self.m.channel.remove(i);
                self.receive_at_q(seq)?;
            }
            Action::Drop(i) => {
                self.m.channel.remove(i);
            }
            Action::Replay(s) => {
                self.m.replays_left -= 1;
                self.receive_at_q(s)?;
            }
            Action::ResetP => {
                self.m.resets_p_left -= 1;
                // §4 timing assumption, stated semantically: the leap
                // `durable + 2K` must resume strictly above every number
                // used. If the durable counter lags further at the
                // moment of the reset, the bounds of invariants 1–3
                // provably cannot hold on this branch.
                let durable = self.m.env_p.durable.unwrap_or(0);
                self.m.p_lag_unbounded |=
                    self.m.max_sent >= durable.saturating_add(2 * self.cfg.k_p);
                self.m.p.step(SfEvent::Reset);
                self.m.env_p.pending = None;
                self.real_p.reset();
            }
            Action::ResetQ => {
                self.m.resets_q_left -= 1;
                if self.m.q.phase() == Phase::Running {
                    let edge = self
                        .m
                        .q
                        .window()
                        .expect("receiver machine")
                        .right_edge()
                        .value();
                    self.m.edge_at_reset_q = edge;
                }
                // Same semantic check for q: the leap only covers the
                // pre-reset edge if the durable edge lagged by ≤ 2K.
                let durable = self.m.env_q.durable.unwrap_or(0);
                self.m.q_lag_unbounded |=
                    self.m.edge_at_reset_q > durable.saturating_add(2 * self.cfg.k_q);
                self.m.q.step(SfEvent::Reset);
                self.m.env_q.pending = None;
                self.real_q.reset();
            }
            Action::WakeP => {
                let fetched = self.m.env_p.durable.unwrap_or(0);
                let fx = self.m.p.step(SfEvent::BeginWakeup { fetched });
                let [SfEffect::SaveIssued(leaped)] = fx[..] else {
                    return Err(ApplyError::Violation(format!("wake effects {fx:?}")));
                };
                self.m.env_p.pending = Some(leaped);
                let real = self
                    .real_p
                    .begin_wakeup()
                    .map_err(|e| ApplyError::Violation(format!("real wake_p errored: {e}")))?;
                if real.value() != leaped {
                    return Err(ApplyError::Violation(format!(
                        "differential: wake_p → machine {leaped}, driver {}",
                        real.value()
                    )));
                }
            }
            Action::WakeQ => {
                let fetched = self.m.env_q.durable.unwrap_or(0);
                let fx = self.m.q.step(SfEvent::BeginWakeup { fetched });
                let [SfEffect::SaveIssued(leaped)] = fx[..] else {
                    return Err(ApplyError::Violation(format!("wake effects {fx:?}")));
                };
                self.m.env_q.pending = Some(leaped);
                let real = self
                    .real_q
                    .begin_wakeup()
                    .map_err(|e| ApplyError::Violation(format!("real wake_q errored: {e}")))?;
                if real.value() != leaped {
                    return Err(ApplyError::Violation(format!(
                        "differential: wake_q → machine {leaped}, driver {}",
                        real.value()
                    )));
                }
            }
            Action::SaveDoneP => {
                let v = self.m.env_p.pending.take().expect("enabled");
                self.m.env_p.durable = Some(v);
                let was_waking = self.m.p.phase() == Phase::Waking;
                let fx = self.m.p.step(SfEvent::SaveDone);
                if was_waking {
                    let [SfEffect::WokeUp {
                        resumed,
                        unusable_gap,
                    }] = fx[..]
                    else {
                        return Err(ApplyError::Violation(format!("wakeup effects {fx:?}")));
                    };
                    // Invariant 2 — both halves conditional on the §4
                    // timing assumption having held at the reset: a
                    // durable counter lagging beyond 2K legitimately
                    // defeats the leap.
                    if !self.m.p_lag_unbounded && resumed.value() <= self.m.max_sent {
                        return Err(ApplyError::Violation(format!(
                            "sender resumed at {} ≤ max used {}",
                            resumed.value(),
                            self.m.max_sent
                        )));
                    }
                    if !self.m.p_lag_unbounded && unusable_gap > 2 * self.cfg.k_p {
                        return Err(ApplyError::Violation(format!(
                            "sender leap gap {unusable_gap} > 2Kp = {}",
                            2 * self.cfg.k_p
                        )));
                    }
                    // Invariant 4: strictly monotone wake-ups.
                    if resumed.value() <= self.m.last_wake_p {
                        return Err(ApplyError::Violation(format!(
                            "sender wake-up {} not above previous {}",
                            resumed.value(),
                            self.m.last_wake_p
                        )));
                    }
                    self.m.last_wake_p = resumed.value();
                    let real = self.real_p.finish_wakeup().map_err(|e| {
                        ApplyError::Violation(format!("real finish_wakeup errored: {e}"))
                    })?;
                    if (real.resumed, real.unusable_gap) != (resumed, unusable_gap) {
                        return Err(ApplyError::Violation(format!(
                            "differential: finish_wakeup → machine {resumed:?}, driver {real:?}"
                        )));
                    }
                } else {
                    self.real_p
                        .save_completed()
                        .map_err(|e| ApplyError::Violation(format!("real complete: {e}")))?;
                }
            }
            Action::SaveDoneQ => {
                let v = self.m.env_q.pending.take().expect("enabled");
                self.m.env_q.durable = Some(v);
                let was_waking = self.m.q.phase() == Phase::Waking;
                let fx = self.m.q.step(SfEvent::SaveDone);
                if was_waking {
                    let mut model_rx = Vec::new();
                    let mut resumed_at = None;
                    for e in fx {
                        match e {
                            SfEffect::WokeUp { resumed, .. } => resumed_at = Some(resumed),
                            SfEffect::Rx { seq, outcome } => {
                                self.note_rx(seq, outcome)?;
                                model_rx.push((seq, outcome));
                            }
                            SfEffect::SaveIssued(v) => {
                                // Buffered arrivals crossing a save
                                // threshold right after the wake-up save.
                                self.m.env_q.pending = Some(v);
                            }
                            other => {
                                return Err(ApplyError::Violation(format!(
                                    "unexpected wakeup effect {other:?}"
                                )))
                            }
                        }
                    }
                    let resumed = resumed_at.expect("receiver wakeup emits WokeUp");
                    // Invariant 3: sacrifice ≤ 2Kq while the §4 lag
                    // bound held at the reset.
                    let sacrifice = resumed.value().saturating_sub(self.m.edge_at_reset_q);
                    if !self.m.q_lag_unbounded && sacrifice > 2 * self.cfg.k_q {
                        return Err(ApplyError::Violation(format!(
                            "receiver sacrifice {sacrifice} > 2Kq = {}",
                            2 * self.cfg.k_q
                        )));
                    }
                    // Invariant 4: strictly monotone wake-ups.
                    if resumed.value() <= self.m.last_wake_q {
                        return Err(ApplyError::Violation(format!(
                            "receiver wake-up {} not above previous {}",
                            resumed.value(),
                            self.m.last_wake_q
                        )));
                    }
                    self.m.last_wake_q = resumed.value();
                    let real = self.real_q.finish_wakeup().map_err(|e| {
                        ApplyError::Violation(format!("real finish_wakeup errored: {e}"))
                    })?;
                    if (real.resumed, &real.buffered) != (resumed, &model_rx) {
                        return Err(ApplyError::Violation(format!(
                            "differential: wakeup flush → machine {model_rx:?}, driver {real:?}"
                        )));
                    }
                } else {
                    self.real_q
                        .save_completed()
                        .map_err(|e| ApplyError::Violation(format!("real complete: {e}")))?;
                }
            }
            Action::SaveLostP => {
                self.m.env_p.pending = None;
                self.m.p.step(SfEvent::SaveLost);
                self.real_p.drop_pending_save();
            }
            Action::SaveLostQ => {
                self.m.env_q.pending = None;
                self.m.q.step(SfEvent::SaveLost);
                self.real_q.drop_pending_save();
            }
        }
        self.check_state()
    }

    /// State invariants + full differential parity, asserted after every
    /// transition.
    fn check_state(&self) -> Result<(), ApplyError> {
        let m = &self.m;
        // Differential oracle: the driver's embedded machine must be
        // bit-identical to the model's.
        if self.real_p.machine() != &m.p {
            return Err(ApplyError::Violation(format!(
                "parity: sender machine diverged\n model: {:?}\ndriver: {:?}",
                m.p,
                self.real_p.machine()
            )));
        }
        if self.real_q.machine() != &m.q {
            return Err(ApplyError::Violation(format!(
                "parity: receiver machine diverged\n model: {:?}\ndriver: {:?}",
                m.q,
                self.real_q.machine()
            )));
        }
        // The simulated save device must mirror the real BackgroundSaver
        // and MemStable exactly.
        let real_pending_p = self.real_p.pending_save();
        if real_pending_p != m.env_p.pending {
            return Err(ApplyError::Violation(format!(
                "parity: sender pending save model {:?} vs driver {real_pending_p:?}",
                m.env_p.pending
            )));
        }
        let real_pending_q = self.real_q.pending_save();
        if real_pending_q != m.env_q.pending {
            return Err(ApplyError::Violation(format!(
                "parity: receiver pending save model {:?} vs driver {real_pending_q:?}",
                m.env_q.pending
            )));
        }
        let durable_p = self.real_p.store().load(SLOT_P).unwrap_or(None);
        if durable_p != m.env_p.durable {
            return Err(ApplyError::Violation(format!(
                "parity: sender durable model {:?} vs store {durable_p:?}",
                m.env_p.durable
            )));
        }
        let durable_q = self.real_q.store().load(SLOT_Q).unwrap_or(None);
        if durable_q != m.env_q.durable {
            return Err(ApplyError::Violation(format!(
                "parity: receiver durable model {:?} vs store {durable_q:?}",
                m.env_q.durable
            )));
        }
        // Invariant 5: the durable value is a floor on live state.
        if m.p.phase() == Phase::Running {
            let s = m.p.next_seq().expect("sender").value();
            if let Some(d) = m.env_p.durable {
                if s < d {
                    return Err(ApplyError::Violation(format!(
                        "sender counter {s} below durable SAVE {d}"
                    )));
                }
            }
        }
        if m.q.phase() == Phase::Running {
            let edge = m.q.window().expect("receiver").right_edge().value();
            if let Some(d) = m.env_q.durable {
                if edge < d {
                    return Err(ApplyError::Violation(format!(
                        "receiver right edge {edge} below durable SAVE {d}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Exhaustively explores every schedule within `cfg`'s bounds.
///
/// Returns coverage counters, or the first [`Violation`] found (with its
/// full — not yet shrunk — trace; pass it to [`shrink`]).
///
/// # Errors
///
/// A [`Violation`] carries the offending schedule.
pub fn explore(cfg: Config) -> Result<Report, Violation> {
    let world = World::new(cfg);
    let mut report = Report::default();
    let mut memo: HashMap<ModelState, u128> = HashMap::new();
    let mut trace = Vec::new();
    let traces = dfs(&world, &mut trace, &mut memo, &mut report)?;
    report.traces = traces;
    report.states = memo.len() as u64;
    Ok(report)
}

fn dfs(
    world: &World,
    trace: &mut Vec<Action>,
    memo: &mut HashMap<ModelState, u128>,
    report: &mut Report,
) -> Result<u128, Violation> {
    if let Some(&t) = memo.get(&world.m) {
        return Ok(t);
    }
    let actions = world.enabled();
    let mut traces: u128 = if actions.is_empty() { 1 } else { 0 };
    for a in actions {
        let mut next = world.clone();
        trace.push(a);
        report.transitions += 1;
        match next.apply(a) {
            Ok(()) => {}
            Err(ApplyError::Violation(message)) => {
                return Err(Violation {
                    message,
                    trace: trace.clone(),
                });
            }
            Err(ApplyError::Disabled(_)) => unreachable!("enabled() said otherwise"),
        }
        traces += dfs(&next, trace, memo, report)?;
        trace.pop();
    }
    memo.insert(world.m.clone(), traces);
    Ok(traces)
}

/// Replays `trace` verbatim against a fresh world — the regression-test
/// entry point. Succeeds iff every action is enabled in sequence and no
/// invariant or parity check fails.
///
/// # Errors
///
/// The [`Violation`] the trace reproduces, if any. A trace containing a
/// disabled action fails with a `Violation` naming the offending step
/// (it reproduces nothing).
pub fn replay(cfg: Config, trace: &[Action]) -> Result<(), Violation> {
    let mut world = World::new(cfg);
    for (i, &a) in trace.iter().enumerate() {
        match world.apply(a) {
            Ok(()) => {}
            Err(ApplyError::Violation(message)) => {
                return Err(Violation {
                    message,
                    trace: trace[..=i].to_vec(),
                })
            }
            Err(ApplyError::Disabled(why)) => {
                return Err(Violation {
                    message: format!("step {i} ({a:?}) is not a legal schedule: {why}"),
                    trace: trace[..=i].to_vec(),
                })
            }
        }
    }
    Ok(())
}

/// True iff `trace` still reproduces a genuine violation (not a
/// disabled-action artifact).
fn still_fails(cfg: Config, trace: &[Action]) -> bool {
    match replay(cfg, trace) {
        Err(v) => !v.message.contains("not a legal schedule"),
        Ok(()) => false,
    }
}

/// Greedy delta-debugging: repeatedly drops actions that are not needed
/// to reproduce the violation, until no single removal preserves it. The
/// result replays verbatim (`replay(cfg, &minimal)` fails with the same
/// class of violation).
pub fn shrink(cfg: Config, trace: &[Action]) -> Vec<Action> {
    let mut current: Vec<Action> = trace.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if still_fails(cfg, &candidate) {
                current = candidate;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_bounds_explore_clean() {
        let report = explore(Config {
            k_p: 1,
            k_q: 1,
            w: 2,
            max_sends: 2,
            max_resets_p: 1,
            max_resets_q: 0,
            max_replays: 1,
            buffer_limit: None,
        })
        .expect("no violation");
        assert!(report.states > 10, "{report:?}");
        assert!(report.traces > 0);
    }

    #[test]
    fn reference_bounds_explore_clean() {
        let report = explore(Config::small()).expect("no violation");
        assert!(report.states > 1000, "{report:?}");
    }

    #[test]
    fn replay_of_legal_schedule_passes() {
        replay(
            Config::small(),
            &[
                Action::Send,
                Action::Send,
                Action::Deliver(0),
                Action::ResetQ,
                Action::WakeQ,
                Action::Deliver(0),
                Action::SaveDoneQ,
                Action::Replay(1),
            ],
        )
        .unwrap_or_else(|v| panic!("{v}"));
    }

    #[test]
    fn illegal_schedule_is_reported_not_panicking() {
        let err = replay(Config::small(), &[Action::WakeP]).unwrap_err();
        assert!(err.message.contains("not a legal schedule"), "{err}");
    }

    #[test]
    fn shrink_keeps_only_needed_actions() {
        // Build a trace that is legal but contains padding; a synthetic
        // "violation" is simulated by shrinking against a trace whose
        // failure is a disabled action — shrink must return it unchanged
        // (nothing reproduces, nothing shrinks).
        let trace = [Action::Send, Action::Send, Action::Drop(0)];
        let out = shrink(Config::small(), &trace);
        assert_eq!(out.len(), 3, "legal traces don't shrink");
    }
}
