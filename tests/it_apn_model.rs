//! Integration: the paper's processes under APN semantics, including an
//! exhaustive interleaving exploration that *finds the §3 attack* on the
//! baseline automatically — and proves (to the explored depth) that
//! SAVE/FETCH admits no such path.

use reset_apn::apn_model::{original_system, savefetch_system, PaperProc, P, Q};
use reset_apn::{Schedule, System};
use reset_sim::DetRng;

/// The safety predicate: the receiver must never have delivered more
/// messages than the sender sent distinct sequence numbers. Under the
/// no-reuse SAVE/FETCH discipline, `delivered > sent` can only happen by
/// accepting a replayed copy.
fn savefetch_safe(sys: &System<PaperProc>) -> bool {
    let p = sys.proc(P).as_sf_sender().expect("sf sender");
    let q = sys.proc(Q).as_sf_receiver().expect("sf receiver");
    q.stats().delivered <= p.stats().sent
}

fn baseline_safe(sys: &System<PaperProc>) -> bool {
    let q = sys.proc(Q).as_orig_receiver().expect("orig receiver");
    let delivered = q.total_delivered();
    // For the baseline, the sender may reuse sequence numbers after a
    // reset; ground truth is distinct seqs over all incarnations, which
    // equals max(counter progress), conservatively bounded by sent.
    // Double delivery beyond total sends = replay definitely accepted.
    delivered <= sent_baseline(sys)
}

fn sent_baseline(sys: &System<PaperProc>) -> u64 {
    match sys.proc(P) {
        PaperProc::OrigP(p) => p.total_sent(),
        _ => unreachable!("baseline sender"),
    }
}

/// All environment moves the explorer may interleave with protocol steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnvMove {
    ResetP,
    WakeP,
    ResetQ,
    WakeQ,
    /// Adversary duplicates the front message of the p→q channel (a
    /// replayed copy of recorded traffic).
    DupFront,
}

fn apply_env(sys: &mut System<PaperProc>, mv: EnvMove) {
    match mv {
        EnvMove::ResetP => sys.inject_reset(P),
        EnvMove::WakeP => sys.inject_wakeup(P),
        EnvMove::ResetQ => sys.inject_reset(Q),
        EnvMove::WakeQ => sys.inject_wakeup(Q),
        EnvMove::DupFront => sys.duplicate(P, Q, 0),
    }
}

/// Depth-first exploration of protocol steps × environment moves.
/// Returns a violating trace if the predicate ever fails.
fn explore(
    sys: &System<PaperProc>,
    safe: fn(&System<PaperProc>) -> bool,
    depth: usize,
    budget: &mut usize,
) -> Option<Vec<String>> {
    if !safe(sys) {
        return Some(vec!["<violation>".into()]);
    }
    if depth == 0 || *budget == 0 {
        return None;
    }
    *budget -= 1;
    // Protocol steps.
    for step in sys.enabled() {
        let mut next = sys.clone();
        next.fire(step);
        if let Some(mut trace) = explore(&next, safe, depth - 1, budget) {
            trace.insert(0, format!("step p{}a{}", step.proc, step.action));
            return Some(trace);
        }
    }
    // Environment moves. Wake only makes sense after a reset; the hooks
    // are no-ops / idempotent otherwise, so just try all.
    for mv in [
        EnvMove::ResetP,
        EnvMove::WakeP,
        EnvMove::ResetQ,
        EnvMove::WakeQ,
        EnvMove::DupFront,
    ] {
        let mut next = sys.clone();
        apply_env(&mut next, mv);
        if let Some(mut trace) = explore(&next, safe, depth - 1, budget) {
            trace.insert(0, format!("{mv:?}"));
            return Some(trace);
        }
    }
    None
}

#[test]
fn exhaustive_exploration_finds_the_attack_on_the_baseline() {
    // With the baseline, some interleaving of {send, deliver, reset,
    // duplicate} double-delivers: the §3 replay acceptance, discovered
    // by search rather than scripted.
    let sys = original_system(4, Schedule::RoundRobin);
    let mut budget = 200_000;
    let violation = explore(&sys, baseline_safe, 7, &mut budget);
    assert!(
        violation.is_some(),
        "exploration should find the §3 replay acceptance"
    );
    let trace = violation.expect("checked");
    // The trace must involve a reset and a duplication (the attack's
    // ingredients).
    let rendered = trace.join(" -> ");
    assert!(
        rendered.contains("ResetQ") || rendered.contains("ResetP"),
        "{rendered}"
    );
    assert!(rendered.contains("DupFront"), "{rendered}");
}

#[test]
fn exhaustive_exploration_savefetch_is_safe_to_depth() {
    // The same search against SAVE/FETCH (wake-up modelled atomically by
    // the hook) finds no violation within the same depth.
    let sys = savefetch_system(2, 2, 4, Schedule::RoundRobin);
    let mut budget = 200_000;
    let violation = explore(&sys, savefetch_safe, 7, &mut budget);
    assert!(
        violation.is_none(),
        "SAVE/FETCH violated at depth 7: {violation:?}"
    );
}

#[test]
fn random_walks_with_fault_injection_stay_safe() {
    // Longer horizons than the exhaustive search can reach: 200 random
    // walks of 400 mixed steps (protocol + faults + duplications).
    for seed in 0..200u64 {
        let mut rng = DetRng::new(seed);
        let mut sys = savefetch_system(3, 3, 8, Schedule::Random(DetRng::new(seed ^ 0xFF)));
        for _ in 0..400 {
            match rng.below(12) {
                0 => sys.inject_reset(P),
                1 => sys.inject_wakeup(P),
                2 => sys.inject_reset(Q),
                3 => sys.inject_wakeup(Q),
                4 => {
                    let len = sys.channel(P, Q).len();
                    if len > 0 {
                        sys.duplicate(P, Q, (rng.below(len as u64)) as usize);
                    }
                }
                5 => {
                    let len = sys.channel(P, Q).len();
                    if len > 0 {
                        sys.lose(P, Q, (rng.below(len as u64)) as usize);
                    }
                }
                6 => {
                    sys.reorder_front(P, Q, rng.below(4) as usize);
                }
                _ => {
                    let _ = sys.step();
                }
            }
            assert!(savefetch_safe(&sys), "seed {seed}: safety violated");
        }
        // Liveness probe: after waking everyone up, traffic flows again.
        sys.inject_wakeup(P);
        sys.inject_wakeup(Q);
        let before = sys
            .proc(Q)
            .as_sf_receiver()
            .expect("receiver")
            .stats()
            .delivered;
        sys.run(5_000);
        let after = sys
            .proc(Q)
            .as_sf_receiver()
            .expect("receiver")
            .stats()
            .delivered;
        assert!(after > before, "seed {seed}: no convergence after storm");
    }
}

#[test]
fn weak_fairness_keeps_background_saves_completing() {
    // Under the round-robin scheduler the save-completion action fires
    // regularly, so the durable counter tracks the live one within 2K.
    let mut sys = savefetch_system(5, 5, 16, Schedule::RoundRobin);
    sys.run(2_000);
    let p = sys.proc(P).as_sf_sender().expect("sender");
    let durable = p.store().iter().next().map(|(_, v)| v).unwrap_or(0);
    let live = p.next_seq().value();
    assert!(
        live - durable <= 2 * 5,
        "durable {durable} trails live {live} too far"
    );
}

#[test]
fn literal_paper_actions_under_round_robin_converge_after_reset() {
    let mut sys = savefetch_system(4, 4, 16, Schedule::RoundRobin);
    sys.run(500);
    let edge_before = sys.proc(Q).as_sf_receiver().expect("q").right_edge();

    // Reset q; replay the §3 attack using channel duplication before the
    // wake-up (messages still in flight get copied).
    sys.inject_reset(Q);
    for _ in 0..8 {
        sys.duplicate(P, Q, 0);
    }
    sys.inject_wakeup(Q);
    sys.run(3_000);

    let q = sys.proc(Q).as_sf_receiver().expect("q");
    let p = sys.proc(P).as_sf_sender().expect("p");
    assert!(q.right_edge() >= edge_before, "leap covered the old edge");
    assert!(savefetch_safe(&sys));
    assert!(
        p.stats().sent >= q.stats().delivered,
        "no phantom deliveries"
    );
}
