//! Reset storm: repeated crashes of both peers under lossy traffic and
//! continuous replay noise — over real ESP frames, at fleet scale.
//!
//! ```text
//! cargo run -p system-tests --example reset_storm
//! ```
//!
//! Stress-cases the convergence theorem on the sharded `Gateway`
//! engine: a 64-SA fleet on a 4-shard [`reset_ipsec::ShardedGateway`]
//! pair — four persistent pool workers per side, spawned once when the
//! scenario builds its gateways and serving every frame and recovery
//! job of the run — eight resets (both sides, overlapping), 5% loss,
//! 5% duplication, and an adversary injecting recorded ciphertext
//! every 200 µs — including the §4 "double reset before the first
//! SAVE" pattern (two resets back to back). Every reset strikes the
//! whole fleet, so each wake-up submits the shard-parallel recovery
//! halves to all four workers over their work queues. The monitor
//! checks after every event that no replay is accepted on any SA and
//! all losses stay bounded.

use reset_harness::{run_scenario, AdversaryPlan, LinkConfig, Protocol, ScenarioConfig, Transport};
use reset_ipsec::CryptoSuite;
use reset_sim::{SimDuration, SimTime};

fn main() {
    let k = 25u64;
    let sa_count = 64u32;
    let shards = 4usize;
    let cfg = ScenarioConfig {
        seed: 7,
        protocol: Protocol::SaveFetch,
        transport: Transport::esp_fleet(CryptoSuite::default(), sa_count, shards),
        kp: k,
        kq: k,
        duration: SimDuration::from_millis(40),
        link: LinkConfig {
            drop_prob: 0.05,
            duplicate_prob: 0.05,
            ..LinkConfig::perfect()
        },
        // Overlapping storms, including back-to-back resets of the same
        // side (the double-crash case the synchronous wake-up SAVE
        // exists for).
        sender_resets: vec![
            SimTime::from_millis(5),
            SimTime::from_micros(5_400), // strikes during the wake-up
            SimTime::from_millis(20),
            SimTime::from_millis(31),
        ],
        receiver_resets: vec![
            SimTime::from_millis(10),
            SimTime::from_micros(10_400),
            SimTime::from_millis(25),
            SimTime::from_millis(31), // simultaneous with a sender reset
        ],
        downtime: SimDuration::from_micros(300),
        adversary: AdversaryPlan::PeriodicRandom {
            every: SimDuration::from_micros(200),
            count: 3,
        },
        ..ScenarioConfig::default()
    };
    let out = run_scenario(cfg);

    println!(
        "=== reset storm over {} of real {:?} ESP traffic, {sa_count} SAs x {shards} shards ===",
        out.end_time,
        CryptoSuite::default()
    );
    println!("messages sent:           {}", out.monitor.sent);
    println!("delivered:               {}", out.monitor.fresh_delivered);
    println!("sender resets:           {}", out.sender_resets);
    println!("receiver resets:         {}", out.receiver_resets);
    println!(
        "link drops / dups:       {} / {}",
        out.link.dropped, out.link.duplicated
    );
    println!("adversary injections:    {}", out.injected);
    println!("replays rejected:        {}", out.monitor.replays_rejected);
    println!("replays ACCEPTED:        {}", out.monitor.replays_accepted);
    println!(
        "fresh discarded:         {} (per-SA bound: resets x 2K = {})",
        out.monitor.fresh_discarded,
        out.receiver_resets * 2 * k
    );
    println!(
        "seqs lost to leaps:      {} (fleet bound: resets x 2K x SAs = {})",
        out.monitor.seqs_lost_to_leaps,
        out.sender_resets * 2 * k * sa_count as u64
    );
    println!("dropped while down:      {}", out.dropped_down);
    println!("violations:              {:?}", out.monitor.violations);

    assert_eq!(
        out.monitor.replays_accepted, 0,
        "no replay ever accepted on any SA"
    );
    assert!(out.monitor.clean(), "convergence theorem held fleet-wide");
    // The paper's bounds are per SA: each SA sacrifices at most 2K per
    // reset of each side.
    for (i, r) in out.per_sa.iter().enumerate() {
        assert_eq!(r.replays_accepted, 0, "SA {}", i + 1);
        assert!(
            r.fresh_discarded <= (out.receiver_resets + out.sender_resets) * 2 * k,
            "SA {}: {} fresh discarded",
            i + 1,
            r.fresh_discarded
        );
    }
    println!(
        "\nresult: eight overlapping fleet-wide resets, zero replays accepted on any of the \
         {sa_count} SAs, all losses bounded."
    );
}
