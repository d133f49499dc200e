//! Long-haul churn soak and the adversary zoo, strategy by strategy.
//!
//! This is the CI entry point for [`reset_harness::run_churn`]: a live
//! fleet under continuous SA churn, staggered reboots, reset storms,
//! mid-flight rekeys and link faults, with §3's attack surface replayed
//! by an adversary zoo. Each zoo strategy also gets its own test
//! proving the invariant it targets: **zero replay acceptance**, per
//! strategy, not just in aggregate.
//!
//! Override the soak seed with `CHURN_SEED=<u64>` to reproduce or
//! explore (the seed in use is always printed), and set
//! `CHURN_REPORT=<path>` to write the machine-readable
//! `reset-report/v1` JSON document the CI lane archives.

use reset_harness::{run_churn, AdversaryZoo, ChurnConfig};

fn churn_seed() -> u64 {
    match std::env::var("CHURN_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("CHURN_SEED must be a u64, got {s:?}")),
        Err(_) => 0x50AC_2026,
    }
}

/// One zoo strategy at a time: the run must stay clean, and the
/// strategy must actually have fired.
fn run_single_strategy(zoo: AdversaryZoo, seed_salt: u64) -> reset_harness::ChurnReport {
    let cfg = ChurnConfig {
        adversaries: zoo,
        ..ChurnConfig::quick(churn_seed() ^ seed_salt)
    };
    let report = run_churn(cfg);
    assert_eq!(
        report.totals.replays_accepted, 0,
        "seed {:#x}: replay accepted",
        report.seed
    );
    assert!(
        report.clean(),
        "seed {:#x}: {:?}",
        report.seed,
        report.verdicts
    );
    report
}

#[test]
fn delayed_replay_across_reset_never_lands() {
    let zoo = AdversaryZoo {
        delayed_replay: true,
        ..AdversaryZoo::NONE
    };
    let report = run_single_strategy(zoo, 0xDE1A);
    assert!(report.delayed_replays > 0, "strategy never fired");
    assert!(
        report.totals.replays_rejected > 0,
        "the 2K leap must actually have rejected the stash"
    );
}

#[test]
fn highest_seq_replay_never_lands() {
    let zoo = AdversaryZoo {
        highest_seq: true,
        ..AdversaryZoo::NONE
    };
    let report = run_single_strategy(zoo, 0x415E);
    assert!(report.highest_seq_replays > 0, "strategy never fired");
}

#[test]
fn single_shard_replay_flood_never_lands() {
    let zoo = AdversaryZoo {
        shard_flood: true,
        ..AdversaryZoo::NONE
    };
    let report = run_single_strategy(zoo, 0xF100);
    assert!(report.shard_flood_replays > 0, "strategy never fired");
    // The flood aims at one canonical partition, so the receiver's
    // telemetry must show per-shard load skew — the evidence the
    // occupancy-aware rebalancing in ROADMAP's "Give the shard pool its
    // verdict" would consume.
    let frames = report.telemetry.shard_frames();
    let (min, max) = (
        frames.iter().min().copied().unwrap_or(0),
        frames.iter().max().copied().unwrap_or(0),
    );
    assert!(max > min, "flood produced no shard skew: {frames:?}");
}

#[test]
fn cross_sa_reflection_dies_at_authentication() {
    let zoo = AdversaryZoo {
        reflection: true,
        ..AdversaryZoo::NONE
    };
    let report = run_single_strategy(zoo, 0x5EF1);
    assert!(report.reflections > 0, "strategy never fired");
}

#[test]
fn duplicate_trains_never_double_deliver() {
    let zoo = AdversaryZoo {
        duplicates: true,
        ..AdversaryZoo::NONE
    };
    let report = run_single_strategy(zoo, 0xD0B1);
    assert!(report.duplicate_injections > 0, "strategy never fired");
}

#[test]
fn churn_verdicts_are_shard_count_invariant() {
    // The soak schedule never reads shard-dependent state and per-SPI
    // event subsequences are identical at any shard count, so every
    // per-SA verdict — and the fleet totals — must be *identical* at
    // shards 1 and 4. Only the telemetry's per-shard attribution may
    // differ.
    let run = |shards: usize| {
        run_churn(ChurnConfig {
            shards,
            ..ChurnConfig::quick(churn_seed())
        })
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.verdicts, four.verdicts);
    assert_eq!(one.totals, four.totals);
    assert_eq!(one.timeline, four.timeline);
    assert_eq!(one.delayed_replays, four.delayed_replays);
    assert_eq!(one.shard_flood_replays, four.shard_flood_replays);
    assert_eq!(one.telemetry.shards.len(), 1);
    assert_eq!(four.telemetry.shards.len(), 4);
    assert_eq!(one.telemetry.total_frames(), four.telemetry.total_frames());
    assert!(one.clean(), "seed {:#x}", one.seed);
}

/// The CI `churn-soak` lane entry: ten simulated hours of churn with
/// the full zoo, every §3 invariant asserted per SA, and the unified
/// JSON report written for archiving when `CHURN_REPORT` is set.
#[test]
fn long_haul_soak_holds_every_invariant() {
    let seed = churn_seed();
    eprintln!("churn soak: seed={seed:#x} (override with CHURN_SEED=<u64>)");
    let cfg = ChurnConfig::soak(seed);
    let report = run_churn(cfg);
    eprintln!(
        "churn soak: {} SAs ({} retired), {} delivered, {} rejected, \
         {} storms, {} rekeys over {:.1} simulated hours",
        report.verdicts.len(),
        report.leaves,
        report.totals.delivered,
        report.totals.replays_rejected,
        report.storms,
        report.rekeys,
        report.sim_ns as f64 / 3.6e12
    );
    assert!(report.clean(), "seed {seed:#x}: {:?}", report.verdicts);
    assert_eq!(report.totals.replays_accepted, 0, "seed {seed:#x}");
    assert!(report.storms >= 3, "soak must include ≥3 reset storms");
    assert!(report.sim_ns >= (10.0 * 3.6e12) as u64 - 1, "≥10 sim hours");
    assert!(report.rekeys > 0 && report.joins > 0 && report.leaves > 0);
    assert!(
        report.delayed_replays > 0
            && report.highest_seq_replays > 0
            && report.shard_flood_replays > 0
            && report.reflections > 0
            && report.duplicate_injections > 0,
        "every zoo strategy must fire in the soak"
    );
    // Recovery latency histogram covered every storm.
    assert!(report.telemetry.recover_ns.count >= report.storms);
    if let Ok(path) = std::env::var("CHURN_REPORT") {
        let json = report.to_run_report().render_json();
        std::fs::write(&path, &json).expect("write CHURN_REPORT");
        eprintln!("churn soak: report written to {path}");
    }
}
