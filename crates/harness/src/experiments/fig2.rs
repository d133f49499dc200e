//! Fig 2 — analysis of a reset occurring at process `q` (the receiver).
//!
//! Mirror of Fig 1: sweeping the reset offset across the receiver's save
//! cycle, measure the FETCH staleness gap, verify the leaped right edge
//! rejects **every** replay of pre-reset traffic, and count the fresh
//! messages sacrificed by the leap (condition (ii): ≤ `2Kq`).

use anti_replay::{RxOutcome, SeqNum, SfDriver};
use reset_stable::{MemStable, SlotId};

use crate::report::Table;

/// One measured point of the receiver sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig2Point {
    /// Right-edge advances after the last SAVE was issued, at reset time.
    pub offset: u64,
    /// Whether the in-flight SAVE completed before the reset.
    pub save_completed: bool,
    /// Window right edge when the reset struck.
    pub last_received: u64,
    /// Value FETCH recovered.
    pub fetched: u64,
    /// Right edge after the `2Kq` leap.
    pub resumed: u64,
    /// `last_received − fetched`.
    pub gap: u64,
    /// Replayed pre-reset messages that were *accepted* (must be 0).
    pub replays_accepted: u64,
    /// Fresh messages sacrificed before traffic resumed (≤ `2Kq`).
    pub fresh_sacrificed: u64,
}

/// Runs one receiver reset at offset `t` into the save cycle.
pub fn run_one(k: u64, t: u64, completed: bool) -> Fig2Point {
    assert!(t < k, "offset must fall inside one save cycle");
    let w = 4 * k + 16; // wide enough that staleness, not w, dominates
    let mut q = SfDriver::receiver(MemStable::new(), SlotId::receiver(1), k, w);
    // Cycle 1: receive 1..=k in order; SAVE(k) issues and completes.
    for s in 1..=k {
        q.receive(SeqNum::new(s));
    }
    q.save_completed().expect("mem store");
    // Cycle 2: receive up to 2k; SAVE(2k) issues.
    for s in k + 1..=2 * k {
        q.receive(SeqNum::new(s));
    }
    if completed {
        q.save_completed().expect("mem store");
    }
    // `t` further advances, then the reset.
    for s in 2 * k + 1..=2 * k + t {
        q.receive(SeqNum::new(s));
    }
    let last_received = q.machine().window().expect("receiver").right_edge().value();
    q.reset();
    let fetched = q.store().iter().next().map(|(_, v)| v).unwrap_or(0);
    let resumed = q.wake_up().expect("mem store").resumed.value();

    // The §3 adversary: replay the entire pre-reset history in order.
    let mut replays_accepted = 0;
    for s in 1..=last_received {
        if q.receive(SeqNum::new(s)).is_delivered() {
            replays_accepted += 1;
        }
    }
    // The sender (which did not reset) continues from last_received + 1;
    // count sacrificed fresh messages until delivery resumes.
    let mut fresh_sacrificed = 0;
    for s in last_received + 1..=resumed + 1 {
        match q.receive(SeqNum::new(s)) {
            RxOutcome::Delivered => break,
            _ => fresh_sacrificed += 1,
        }
    }
    Fig2Point {
        offset: t,
        save_completed: completed,
        last_received,
        fetched,
        resumed,
        gap: last_received.saturating_sub(fetched),
        replays_accepted,
        fresh_sacrificed,
    }
}

/// Sweeps reset offsets for both Fig 2 cases.
pub fn sweep(k: u64, samples: u64) -> Vec<Fig2Point> {
    let mut points = Vec::new();
    for completed in [false, true] {
        for i in 0..samples {
            let t = i * k.max(1) / samples.max(1);
            points.push(run_one(k, t, completed));
        }
        points.push(run_one(k, k - 1, completed));
    }
    points
}

/// Renders the Fig 2 table, asserting the paper's bounds along the way.
///
/// # Panics
///
/// Panics if any point accepts a replay, exceeds the gap bound, or
/// sacrifices more than `2Kq` fresh messages.
pub fn table(k: u64) -> Table {
    let mut t = Table::new(
        format!("fig2: reset at receiver q (Kq = {k})"),
        &[
            "case",
            "offset",
            "last_recv",
            "fetched",
            "resumed",
            "gap",
            "gap_bound",
            "replays_accepted",
            "fresh_sacrificed",
            "sacrifice_bound",
        ],
    );
    for pt in sweep(k, 8) {
        let case = if pt.save_completed {
            "after-SAVE"
        } else {
            "during-SAVE"
        };
        let gap_bound = if pt.save_completed { k } else { 2 * k };
        assert!(pt.gap <= gap_bound, "gap {} > {gap_bound}", pt.gap);
        assert_eq!(pt.replays_accepted, 0, "replay accepted at {pt:?}");
        assert!(
            pt.fresh_sacrificed <= 2 * k,
            "sacrificed {} > 2K",
            pt.fresh_sacrificed
        );
        t.row_owned(vec![
            case.to_string(),
            pt.offset.to_string(),
            pt.last_received.to_string(),
            pt.fetched.to_string(),
            pt.resumed.to_string(),
            pt.gap.to_string(),
            gap_bound.to_string(),
            pt.replays_accepted.to_string(),
            pt.fresh_sacrificed.to_string(),
            (2 * k).to_string(),
        ]);
    }
    t.note("paper: gap ≤ 2Kq during SAVE, ≤ Kq after; 0 replays accepted; ≤ 2Kq fresh discarded");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_replay_ever_accepted() {
        for k in [5u64, 10, 25] {
            for t in [0, k / 2, k - 1] {
                for completed in [false, true] {
                    let pt = run_one(k, t, completed);
                    assert_eq!(pt.replays_accepted, 0, "{pt:?}");
                }
            }
        }
    }

    #[test]
    fn during_save_gap_matches_paper() {
        // Fetched = r − K where r = 2k was being saved; reset at r + t.
        for k in [5u64, 10, 25] {
            for t in [0, k - 1] {
                let pt = run_one(k, t, false);
                assert_eq!(pt.gap, k + t);
                assert!(pt.gap <= 2 * k);
            }
        }
    }

    #[test]
    fn after_save_gap_matches_paper() {
        for k in [5u64, 10, 25] {
            for u in [0, k - 1] {
                let pt = run_one(k, u, true);
                assert_eq!(pt.gap, u);
                assert!(pt.gap <= k);
            }
        }
    }

    #[test]
    fn sacrifice_bounded_and_worst_case_reached() {
        let k = 25;
        let pts = sweep(k, 25);
        let max = pts.iter().map(|p| p.fresh_sacrificed).max().unwrap();
        assert!(max <= 2 * k, "condition (ii)");
        assert_eq!(max, 2 * k, "worst case (reset right after SAVE done, t=0)");
    }

    #[test]
    fn table_renders() {
        let t = table(10);
        assert!(t.render().contains("fig2"));
        assert!(t.len() >= 18);
    }
}
