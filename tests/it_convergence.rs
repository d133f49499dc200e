//! Integration: the §5 convergence theorem under the full timed stack.
//!
//! Exercises the scenario runner (simulator + channel + adversary +
//! latency-modelled stores + monitor) across fault schedules and
//! parameter sweeps that unit tests don't reach.

use reset_harness::{run_scenario, AdversaryPlan, LinkConfig, Protocol, ScenarioConfig, Workload};
use reset_sim::{SimDuration, SimTime};
use reset_stable::SaveLatencyModel;

/// Sweep seeds × reset times: the theorem must hold in every single run.
#[test]
fn condition_i_and_ii_over_seed_sweep() {
    for seed in 0..12u64 {
        let cfg = ScenarioConfig {
            seed,
            sender_resets: vec![SimTime::from_micros(2_500 + 113 * seed)],
            receiver_resets: vec![SimTime::from_micros(6_500 + 97 * seed)],
            adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
            downtime: SimDuration::from_micros(150),
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert!(
            out.monitor.clean(),
            "seed {seed}: {:?}",
            out.monitor.violations
        );
        assert_eq!(out.monitor.replays_accepted, 0, "seed {seed}");
        assert!(
            out.monitor.fresh_discarded <= 2 * 25,
            "seed {seed}: {} fresh lost",
            out.monitor.fresh_discarded
        );
        assert!(
            out.monitor.seqs_lost_to_leaps <= 2 * 25,
            "seed {seed}: {} seqs lost",
            out.monitor.seqs_lost_to_leaps
        );
    }
}

/// The bounds hold regardless of where in the save cycle the reset lands
/// (fine-grained reset-time sweep, the timed analogue of fig1/fig2).
#[test]
fn bounds_hold_across_reset_phase_sweep() {
    for offset_us in (0..100).step_by(7) {
        let cfg = ScenarioConfig {
            seed: 1,
            receiver_resets: vec![SimTime::from_micros(4_000 + offset_us)],
            adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert!(out.monitor.clean(), "offset {offset_us}us");
        assert_eq!(out.monitor.replays_accepted, 0, "offset {offset_us}us");
        assert!(out.monitor.fresh_discarded <= 50, "offset {offset_us}us");
    }
}

/// Bursty and Poisson workloads: the message-count save trigger keeps the
/// bounds regardless of traffic shape.
#[test]
fn bounds_hold_under_irregular_workloads() {
    let workloads = vec![
        Workload::bursty(
            SimDuration::from_micros(4),
            100,
            SimDuration::from_millis(1),
        ),
        Workload::poisson(SimDuration::from_micros(10)),
    ];
    for (i, workload) in workloads.into_iter().enumerate() {
        let cfg = ScenarioConfig {
            seed: 5 + i as u64,
            workload,
            duration: SimDuration::from_millis(30),
            sender_resets: vec![SimTime::from_millis(9)],
            receiver_resets: vec![SimTime::from_millis(18)],
            adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert!(
            out.monitor.clean(),
            "workload {i}: {:?}",
            out.monitor.violations
        );
        assert_eq!(out.monitor.replays_accepted, 0, "workload {i}");
        assert!(out.monitor.fresh_discarded <= 2 * 25, "workload {i}");
    }
}

/// A slow device (save latency near the K·t_msg premise boundary) still
/// converges when K is calibrated to it.
#[test]
fn slow_device_with_calibrated_k_converges() {
    // Device: 400 µs per SAVE; messages every 4 µs ⇒ K must be ≥ 100.
    let k = 100u64;
    let cfg = ScenarioConfig {
        seed: 3,
        kp: k,
        kq: k,
        save_latency: SaveLatencyModel::fixed_ns(400_000),
        duration: SimDuration::from_millis(20),
        sender_resets: vec![SimTime::from_millis(7)],
        receiver_resets: vec![SimTime::from_millis(14)],
        adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
        ..ScenarioConfig::default()
    };
    let out = run_scenario(cfg);
    assert!(out.monitor.clean(), "{:?}", out.monitor.violations);
    assert!(out.monitor.fresh_discarded <= 2 * k);
    assert!(out.monitor.seqs_lost_to_leaps <= 2 * k);
}

/// Jittered save latency (the paper notes SAVE duration varies with CPU
/// load) never breaks the bound as long as the worst case fits in K.
#[test]
fn jittered_save_latency_within_k_is_safe() {
    let cfg = ScenarioConfig {
        seed: 11,
        kp: 50,
        kq: 50,
        // Worst case 150 µs ⇒ ≤ 38 messages per SAVE < K = 50.
        save_latency: SaveLatencyModel {
            base_ns: 50_000,
            jitter_ns: 100_000,
        },
        sender_resets: vec![SimTime::from_millis(3), SimTime::from_millis(7)],
        adversary: AdversaryPlan::PeriodicRandom {
            every: SimDuration::from_micros(300),
            count: 2,
        },
        ..ScenarioConfig::default()
    };
    let out = run_scenario(cfg);
    assert!(out.monitor.clean(), "{:?}", out.monitor.violations);
    assert_eq!(
        out.monitor.fresh_discarded, 0,
        "in-order channel, sender resets only"
    );
}

/// The baseline violates in the very same runs where SAVE/FETCH holds —
/// the theorem is about the protocol, not an artifact of the harness.
#[test]
fn baseline_violates_where_savefetch_does_not() {
    for seed in 0..4u64 {
        let mk = |protocol| ScenarioConfig {
            seed,
            protocol,
            receiver_resets: vec![SimTime::from_millis(4)],
            adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
            ..ScenarioConfig::default()
        };
        let base = run_scenario(mk(Protocol::Baseline));
        let sf = run_scenario(mk(Protocol::SaveFetch));
        assert!(base.monitor.replays_accepted > 100, "seed {seed}");
        assert!(!base.monitor.clean(), "seed {seed}");
        assert_eq!(sf.monitor.replays_accepted, 0, "seed {seed}");
        assert!(sf.monitor.clean(), "seed {seed}");
    }
}

/// Loss + duplication + resets + replay noise all at once, long run.
#[test]
fn kitchen_sink_long_run() {
    let cfg = ScenarioConfig {
        seed: 99,
        duration: SimDuration::from_millis(50),
        link: LinkConfig {
            drop_prob: 0.08,
            duplicate_prob: 0.08,
            ..LinkConfig::perfect()
        },
        sender_resets: vec![
            SimTime::from_millis(8),
            SimTime::from_millis(22),
            SimTime::from_millis(37),
        ],
        receiver_resets: vec![
            SimTime::from_millis(15),
            SimTime::from_millis(29),
            SimTime::from_millis(44),
        ],
        downtime: SimDuration::from_micros(400),
        adversary: AdversaryPlan::PeriodicRandom {
            every: SimDuration::from_micros(250),
            count: 2,
        },
        ..ScenarioConfig::default()
    };
    let out = run_scenario(cfg);
    assert!(out.monitor.clean(), "{:?}", out.monitor.violations);
    assert_eq!(out.monitor.replays_accepted, 0);
    assert!(
        out.monitor.sent > 8_000,
        "long run really ran: {}",
        out.monitor.sent
    );
    assert!(out.monitor.fresh_delivered > 6_000);
    assert_eq!(out.sender_resets, 3);
    assert_eq!(out.receiver_resets, 3);
}
