//! Fig 1 — analysis of a reset occurring at process `p` (the sender).
//!
//! The paper's figure analyses two cases: the reset lands while `SAVE(s)`
//! is still executing (FETCH then returns `s − Kp`), or after it finished
//! (FETCH returns `s`). Sweeping the reset offset across the save cycle,
//! we measure for each offset:
//!
//! * the gap between the last-used sequence number and the fetched one
//!   (the paper bounds it by `2Kp` in case 1 and `Kp` in case 2),
//! * the number of sequence numbers wasted by the `2Kp` leap
//!   (condition (i): ≤ `2Kp`),
//! * that the resumed counter is strictly fresh.
//!
//! Instead of re-deriving the paper's arithmetic, the experiment runs the
//! real [`SfDriver`] sender against a real store and *measures*.

use anti_replay::SfDriver;
use reset_stable::{MemStable, SlotId};

use crate::report::Table;

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig1Point {
    /// Messages sent after the last SAVE was issued, when the reset hit.
    pub offset: u64,
    /// Whether the in-flight SAVE had completed before the reset.
    pub save_completed: bool,
    /// Last sequence number actually used before the reset.
    pub last_used: u64,
    /// Value FETCH recovered.
    pub fetched: u64,
    /// Counter after the `2Kp` leap.
    pub resumed: u64,
    /// `last_used − fetched` (the paper's "gap").
    pub gap: u64,
    /// Sequence numbers wasted (`resumed − (last_used + 1)`).
    pub lost: u64,
}

/// Runs the sweep for save interval `k`, sampling `samples` offsets per
/// case.
pub fn sweep(k: u64, samples: u64) -> Vec<Fig1Point> {
    let mut points = Vec::new();
    for case_completed in [false, true] {
        for i in 0..samples {
            let t = i * k.max(1) / samples.max(1); // offsets spread over [0, k)
            points.push(run_one(k, t, case_completed));
        }
        // Always include the worst offset.
        points.push(run_one(k, k - 1, case_completed));
    }
    points
}

/// Runs one reset at offset `t` into the save cycle.
///
/// The sender first completes a full save cycle (so a durable value
/// exists), then issues its next SAVE; `completed` selects the Fig 1
/// case. It then sends `t` further messages and is reset.
pub fn run_one(k: u64, t: u64, completed: bool) -> Fig1Point {
    assert!(t < k, "offset must fall inside one save cycle");
    let mut p = SfDriver::sender(MemStable::new(), SlotId::sender(1), k);
    // Cycle 1: reach the first SAVE (issued after sending seq k, value
    // k+1) and let it complete — the durable baseline.
    for _ in 0..k {
        p.send_next();
    }
    p.save_completed().expect("mem store");
    // Cycle 2: reach the second SAVE (value 2k+1).
    for _ in 0..k {
        p.send_next();
    }
    if completed {
        p.save_completed().expect("mem store");
    }
    // `t` more sends, then the reset.
    for _ in 0..t {
        p.send_next();
    }
    let last_used = p.machine().next_seq().expect("sender").value() - 1;
    p.reset();
    let fetched = p.store().iter().next().map(|(_, v)| v).unwrap_or(0);
    let resumed = p.wake_up().expect("mem store").resumed.value();
    Fig1Point {
        offset: t,
        save_completed: completed,
        last_used,
        fetched,
        resumed,
        // Saturating: right after a completed SAVE the stored value is the
        // *next-to-send* counter, one ahead of the last used number.
        gap: last_used.saturating_sub(fetched),
        lost: resumed - (last_used + 1),
    }
}

/// Renders the sweep as the Fig 1 table and checks the paper's bounds.
///
/// # Panics
///
/// Panics if any measured point violates the paper's analysis — the
/// experiment doubles as an assertion.
pub fn table(k: u64) -> Table {
    let mut t = Table::new(
        format!("fig1: reset at sender p (Kp = {k})"),
        &[
            "case",
            "offset",
            "last_used",
            "fetched",
            "resumed",
            "gap",
            "gap_bound",
            "lost_seqs",
            "lost_bound",
            "fresh",
        ],
    );
    for pt in sweep(k, 8) {
        let case = if pt.save_completed {
            "after-SAVE"
        } else {
            "during-SAVE"
        };
        let gap_bound = if pt.save_completed { k } else { 2 * k };
        let fresh = pt.resumed > pt.last_used;
        assert!(pt.gap <= gap_bound, "gap {} > bound {gap_bound}", pt.gap);
        assert!(pt.lost <= 2 * k, "lost {} > 2K", pt.lost);
        assert!(
            fresh,
            "resumed {} not fresh vs {}",
            pt.resumed, pt.last_used
        );
        t.row_owned(vec![
            case.to_string(),
            pt.offset.to_string(),
            pt.last_used.to_string(),
            pt.fetched.to_string(),
            pt.resumed.to_string(),
            pt.gap.to_string(),
            gap_bound.to_string(),
            pt.lost.to_string(),
            (2 * k).to_string(),
            fresh.to_string(),
        ]);
    }
    t.note("paper: gap ≤ 2Kp during SAVE, ≤ Kp after; lost ≤ 2Kp; resumed always fresh");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn during_save_gap_is_k_plus_t_minus_1() {
        // Paper: reset at s+t with SAVE(s) in flight → fetched = s − K,
        // gap = K + t. The stored value is the next-to-send counter, so
        // the last *used* number at offset t is s − 1 + t, giving a
        // measured gap of K + t − 1 — one inside the paper's bound.
        for k in [5u64, 10, 25] {
            for t in [0, k / 2, k - 1] {
                let pt = run_one(k, t, false);
                assert_eq!(pt.gap, (k + t).saturating_sub(1), "k={k} t={t}");
                assert!(pt.gap <= 2 * k);
            }
        }
    }

    #[test]
    fn after_save_gap_is_t_minus_1() {
        // Paper: reset at s+u with SAVE(s) durable → gap = u (measured:
        // u − 1 for the same next-to-send reason).
        for k in [5u64, 10, 25] {
            for u in [0, k / 2, k - 1] {
                let pt = run_one(k, u, true);
                assert_eq!(pt.gap, u.saturating_sub(1), "k={k} u={u}");
                assert!(pt.gap <= k);
            }
        }
    }

    #[test]
    fn worst_case_loss_is_exactly_2k() {
        // Reset immediately after a SAVE is issued (t = 0, in flight):
        // lost = resumed − next_unused = (fetched+2K) − (last+1) = 2K−1−...
        // measure the maximum over the sweep instead of re-deriving.
        let k = 25;
        let max_lost = sweep(k, 25).iter().map(|p| p.lost).max().unwrap();
        assert!(max_lost <= 2 * k);
        assert!(max_lost >= 2 * k - 1, "sweep should reach the worst case");
    }

    #[test]
    fn freshness_always_holds() {
        for pt in sweep(10, 10) {
            assert!(pt.resumed > pt.last_used, "{pt:?}");
        }
    }

    #[test]
    fn table_renders_and_asserts() {
        let t = table(25);
        assert!(t.len() >= 18);
        assert!(t.render().contains("during-SAVE"));
    }
}
