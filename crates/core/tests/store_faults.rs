//! Persistent-memory failures must never weaken the anti-replay
//! guarantee — at worst they delay convergence.
//!
//! The paper assumes SAVE/FETCH succeed; a real disk occasionally
//! doesn't. These tests script store failures into every phase of the
//! protocol and check the safety half of the theorem (no replay
//! accepted, wake-ups stay fresh) survives, with the failure surfaced as
//! a retryable error rather than silent corruption.

use anti_replay::{Phase, SeqNum, SfDriver};
use reset_stable::{Fault, FaultyStable, MemStable, SlotId};

type Driver = SfDriver<FaultyStable<MemStable>>;

fn sender(k: u64) -> Driver {
    SfDriver::sender(FaultyStable::new(MemStable::new()), SlotId::sender(1), k)
}

fn receiver(k: u64, w: u64) -> Driver {
    SfDriver::receiver(
        FaultyStable::new(MemStable::new()),
        SlotId::receiver(1),
        k,
        w,
    )
}

/// Scripts the next store write to fail.
fn fail_next(d: &mut Driver) {
    d.store_mut().push_fault(Fault::FailStore);
}

#[test]
fn background_save_failure_is_retryable() {
    let mut p = sender(5);
    for _ in 0..5 {
        p.send_next();
    }
    assert!(p.pending_save().is_some());
    fail_next(&mut p);
    assert!(p.save_completed().is_err(), "scripted failure surfaces");
    assert!(p.pending_save().is_some(), "pending retained for retry");
    assert_eq!(p.save_completed().unwrap(), Some(6), "retry lands");
}

#[test]
fn wakeup_save_failure_keeps_process_waking() {
    let mut p = sender(5);
    for _ in 0..5 {
        p.send_next();
    }
    p.save_completed().unwrap(); // durable 6
    p.reset();
    p.begin_wakeup().unwrap();
    fail_next(&mut p);
    assert!(p.finish_wakeup().is_err(), "wake-up SAVE failed");
    assert_eq!(p.phase(), Phase::Waking, "must not resume un-persisted");
    assert_eq!(p.send_next(), None, "still blocked");
    // Retry succeeds; resumed value unchanged and fresh.
    let resumed = p.finish_wakeup().unwrap().resumed;
    assert_eq!(resumed.value(), 16, "6 + 2K");
}

#[test]
fn receiver_wakeup_failure_keeps_buffering() {
    let mut q = receiver(5, 32);
    for s in 1..=10u64 {
        q.receive(SeqNum::new(s));
    }
    q.save_completed().unwrap();
    q.reset();
    q.begin_wakeup().unwrap();
    q.receive(SeqNum::new(100)); // buffered
    fail_next(&mut q);
    assert!(q.finish_wakeup().is_err());
    assert_eq!(q.phase(), Phase::Waking);
    // Buffered traffic is still held; the retry resolves it.
    let outcomes = q.finish_wakeup().unwrap().buffered;
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].1.is_delivered(), "fresh buffered packet kept");
}

#[test]
fn failed_save_never_advances_durable_state() {
    // A failed SAVE must leave the previous durable value intact, so the
    // next FETCH is stale-but-safe (covered by the 2K leap), never
    // corrupt.
    let mut p = sender(5);
    for _ in 0..5 {
        p.send_next();
    }
    p.save_completed().unwrap(); // durable 6
    for _ in 0..5 {
        p.send_next();
    }
    fail_next(&mut p);
    let _ = p.save_completed(); // SAVE(11) fails
    p.reset();
    let resumed = p.wake_up().unwrap().resumed;
    // FETCH must see 6 (not 11, not garbage): resumed = 6 + 10.
    assert_eq!(resumed.value(), 16);
    assert!(resumed.value() > 10, "fresh above all used seqs");
}

#[test]
fn corrupt_fetch_is_an_error_not_a_stale_resume() {
    let mut q = receiver(5, 32);
    for s in 1..=10u64 {
        q.receive(SeqNum::new(s));
    }
    q.save_completed().unwrap();
    q.reset();
    q.store_mut().push_fault(Fault::CorruptLoad);
    assert!(q.begin_wakeup().is_err(), "corruption must surface");
    assert_eq!(q.phase(), Phase::Down, "no resume on corrupt FETCH");
    // A second attempt (storage recovered) proceeds normally.
    let leaped = q.wake_up().unwrap().resumed;
    assert!(leaped.value() >= 10);
}

#[test]
fn repeated_failures_delay_but_never_break_safety() {
    let mut q = receiver(4, 32);
    let mut delivered: Vec<u64> = Vec::new();
    for s in 1..=60u64 {
        // Every third completion attempt fails.
        if s % 3 == 0 {
            fail_next(&mut q);
        }
        let _ = q.save_completed();
        if q.receive(SeqNum::new(s)).is_delivered() {
            delivered.push(s);
        }
        if s % 20 == 0 {
            q.reset();
            // A scripted failure may still be queued; the wake-up retries
            // until storage cooperates — never resuming un-persisted.
            loop {
                let step = match q.phase() {
                    Phase::Down => q.begin_wakeup().map(|_| ()),
                    Phase::Waking => q.finish_wakeup().map(|_| ()),
                    Phase::Running => break,
                };
                let _ = step; // errors only delay; retry
            }
            // Replay of everything delivered so far: still all rejected.
            for &old in &delivered {
                assert!(
                    !q.receive(SeqNum::new(old)).is_delivered(),
                    "replay of {old} accepted under store failures"
                );
            }
        }
    }
}
