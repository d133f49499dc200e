//! Regression traces for the bugs fixed alongside the machine extraction,
//! replayed deterministically through the model checker's [`replay`]
//! harness, plus a fail-closed differential between the pure machine and
//! the store-owning drivers under injected FETCH faults.
//!
//! Each trace is the shrunk schedule (or a hand-written minimal one) that
//! exercises the fixed behavior; `replay` runs the full differential
//! oracle at every step, so a regression in either the machine or a
//! driver trips the corresponding invariant or the parity check.

use anti_replay::machine::{FetchFaultKind, Phase, SfEffect, SfEvent, SfMachine};
use anti_replay::{RxOutcome, SeqNum, SfDriver};
use reset_model::{replay, Action, Config};
use reset_stable::{Fault, FaultyStable, MemStable, SlotId};

// ----------------------------------------------------------------------
// Bug 1 — unbounded wake-up buffer (now capped, overflow drops)
// ----------------------------------------------------------------------

/// With `buffer_limit = 1`, a mid-wake-up flood buffers exactly one frame
/// and drops the rest; the flush classifies only the capped buffer. The
/// model runs the capped real receiver in lockstep, so this trace fails
/// on pre-fix code (parity break: the unbounded driver buffers both).
#[test]
fn trace_wakeup_buffer_cap() {
    let cfg = Config {
        k_p: 2,
        k_q: 2,
        w: 4,
        max_sends: 4,
        max_resets_p: 0,
        max_resets_q: 1,
        max_replays: 0,
        buffer_limit: Some(1),
    };
    replay(
        cfg,
        &[
            Action::Send,
            Action::Send,
            Action::ResetQ,
            Action::WakeQ,
            Action::Deliver(0), // buffered (cap 1)
            Action::Deliver(0), // dropped, not buffered
            Action::SaveDoneQ,  // flush classifies the single buffered frame
        ],
    )
    .unwrap_or_else(|v| panic!("{v}"));
}

// ----------------------------------------------------------------------
// Bug 2 — `seqs_leaped` recorded the nominal 2K, not the true gap
// ----------------------------------------------------------------------

/// A wake-up whose FETCH finds a perfectly fresh save skips fewer than
/// 2K numbers; the stat must record the true gap. The schedule is also
/// replayed through the model (invariant 2 bounds the machine's
/// `unusable_gap` by 2K on un-lagged branches).
#[test]
fn trace_leap_gap_is_true_not_nominal() {
    replay(
        Config::small(),
        &[
            Action::Send,
            Action::Send,
            Action::Send,
            Action::SaveDoneP,
            Action::ResetP,
            Action::WakeP,
            Action::SaveDoneP,
        ],
    )
    .unwrap_or_else(|v| panic!("{v}"));

    // Driver-level cross-check with K large enough that the true gap
    // (8) is strictly below the nominal 2K (10) the old stat charged.
    let k = 5;
    let mut p = SfDriver::sender(MemStable::new(), SlotId::sender(0x51), k);
    for _ in 0..5 {
        p.send_next();
    }
    p.save_completed().unwrap();
    for _ in 0..2 {
        p.send_next();
    }
    p.reset();
    let woke = p.wake_up().unwrap();
    assert_eq!(woke.resumed.value(), 16);
    assert_eq!(woke.unusable_gap, 8, "true gap, not 2K = 10");
}

// ----------------------------------------------------------------------
// Bug 3 — save-due threshold overflowed u64 near the sequence ceiling
// ----------------------------------------------------------------------

/// The pure machine must answer the save-due question without wrapping
/// when `lst` sits within 2K of `u64::MAX` (pre-fix: debug panic /
/// release wrap issuing a spurious save).
#[test]
fn machine_save_threshold_near_ceiling() {
    let k = 3u64;
    let mut m = SfMachine::sender(k);
    m.step(SfEvent::Reset);
    let fx = m.step(SfEvent::BeginWakeup {
        fetched: u64::MAX - 2 * k - 2,
    });
    assert!(matches!(fx[..], [SfEffect::SaveIssued(_)]));
    m.step(SfEvent::SaveDone);
    let fx = m.step(SfEvent::Send);
    assert_eq!(
        fx,
        [SfEffect::Sent(SeqNum::new(u64::MAX - 2))],
        "a send near the ceiling must not trip an overflowed threshold"
    );
    assert_eq!(m.last_stored(), u64::MAX - 2 * k - 2 + 2 * k);
}

// ----------------------------------------------------------------------
// Explorer finding — the §4 timing assumption is load-bearing
// ----------------------------------------------------------------------

/// Shrunk schedule found by `explore` under the reference bounds: the
/// sender's wake-up leap makes q's edge jump by 2·Kp in one message, so
/// q's in-flight save lags durable by more than 2·Kq when the reset
/// destroys it; the subsequent leap lands below an accepted number and a
/// replay of it is genuinely delivered twice — by the model *and* the
/// real driver. The replay must pass: the explorer recognizes the branch
/// as a semantic §4 breach (lag > 2K at the reset) rather than a
/// protocol violation. If gating ever regresses, this trace fails.
#[test]
fn trace_section4_lag_makes_replay_acceptance_legitimate() {
    replay(
        Config::small(),
        &[
            Action::Send,
            Action::Send,
            Action::Send,
            Action::Deliver(0),
            Action::Deliver(0),
            Action::Deliver(0),
            Action::SaveDoneP,
            Action::ResetP,
            Action::WakeP,
            Action::SaveDoneP,
            Action::Send,
            Action::SaveDoneQ,
            Action::Deliver(0),
            Action::ResetQ,
            Action::WakeQ,
            Action::Replay(7),
            Action::SaveDoneQ,
        ],
    )
    .unwrap_or_else(|v| panic!("{v}"));
}

/// An illegal schedule reports "not a legal schedule" instead of
/// panicking or masquerading as an invariant violation.
#[test]
fn illegal_trace_reports_cleanly() {
    let err = replay(Config::small(), &[Action::SaveDoneP]).unwrap_err();
    assert!(err.message.contains("not a legal schedule"), "{err}");
}

// ----------------------------------------------------------------------
// FETCH-fault differential: driver and pure machine fail closed in step
// ----------------------------------------------------------------------

/// For each injected FETCH fault the driver must return the error,
/// remain Down (fail closed), and land in exactly the state the pure
/// machine reaches via `FetchFault(kind)` — full structural parity.
#[test]
fn fetch_fault_differential_fail_closed() {
    let cases = [
        (Fault::CorruptLoad, FetchFaultKind::Corrupt),
        (Fault::RollbackLoad, FetchFaultKind::Rollback),
    ];
    for (fault, kind) in cases {
        let slot = SlotId::receiver(0xF0);
        let store = FaultyStable::new(MemStable::new());
        let mut q = SfDriver::receiver(store, slot, 5, 32);

        // Two SAVEs witnessed *by the receiver's own saver* (edges 5 and
        // 10), so a rollback has a stale generation to serve and the
        // witness has a baseline to catch it against.
        let mut pure = SfMachine::receiver(5, 32);
        for s in 1..=10u64 {
            q.receive(SeqNum::new(s));
            pure.step(SfEvent::Receive(SeqNum::new(s)));
            if s % 5 == 0 {
                q.save_completed().unwrap();
                pure.step(SfEvent::SaveDone);
            }
        }
        q.reset();
        pure.step(SfEvent::Reset);

        q.store_mut().push_fault(fault);
        let err = q
            .begin_wakeup()
            .expect_err("scripted FETCH fault must surface");
        let fx = pure.step(SfEvent::FetchFault(kind));
        assert_eq!(fx, [SfEffect::FailedClosed(kind)], "{err}");
        assert_eq!(q.machine(), &pure, "driver/machine parity after {kind:?}");
        assert_eq!(q.phase(), Phase::Down, "fail closed: still down");
        assert_eq!(
            q.receive(SeqNum::new(11)),
            RxOutcome::DroppedDown,
            "no traffic is accepted after a failed-closed FETCH"
        );

        // The fault script is exhausted: a retry recovers and the leap
        // covers the newest witnessed SAVE.
        let leaped = q.wake_up().unwrap().resumed;
        assert_eq!(leaped.value(), 10 + 10);
        assert_eq!(q.phase(), Phase::Running);
    }
}
