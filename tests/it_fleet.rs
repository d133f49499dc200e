//! Idle-tick flatness across fleet sizes (ROADMAP item 2: "a million
//! tunnels").
//!
//! The control-plane property the hierarchical timer wheel exists for:
//! an *idle* `tick` costs the same whether the SADB holds a few hundred
//! SAs or a million, because tick work is proportional to the number of
//! *due* timers, not to fleet size. The pre-wheel implementation swept
//! every DPD detector and every SA on every tick, so this assertion was
//! impossible to meet.
//!
//! Tier-1 checks it at 2^8 vs 2^14 SA pairs, where a reintroduced
//! fleet-proportional sweep reads about 64x. The full scale — 10^3 vs
//! 10^6 SA pairs, then a 4096-frame batch drained through the million-SA
//! gateway to prove the datapath still delivers under the slab SADB — is
//! gated behind `IT_FLEET_1M=1`, because installing 10^6 SA pairs takes
//! real time and memory; the CI scaling lane opts in explicitly.

use bytes::Bytes;
use reset_ipsec::{
    DpdConfig, Gateway, GatewayBuilder, GatewayEvent, SaKeys, SaLifetime, SecurityAssociation,
};
use reset_stable::MemStable;
use std::time::Instant;

const MASTER: &[u8] = b"fleet-master-secret";

/// Install `n` SA pairs with shared keys (one derivation, not `n` —
/// key uniqueness is irrelevant to timer-wheel scaling).
fn build_fleet(n: u32) -> Gateway<MemStable> {
    let keys = SaKeys::derive(MASTER, b"fleet-shared");
    let mut gw = GatewayBuilder::in_memory()
        .save_interval(64)
        .dpd(DpdConfig::default())
        .rekey_after(SaLifetime {
            max_packets: 1_000_000,
            max_bytes: u64::MAX,
        })
        .build();
    for spi in 1..=n {
        gw.install_pair(SecurityAssociation::new(spi, keys.clone()));
    }
    // First tick arms every DPD detector and populates the wheel; this
    // is the one fleet-proportional tick and stays outside the timed
    // region.
    gw.tick(1_000);
    gw.poll_events();
    gw
}

/// Median-of-5 wall time for `rounds` idle ticks.
fn time_idle_ticks(gw: &mut Gateway<MemStable>, rounds: u64) -> std::time::Duration {
    let mut samples = Vec::new();
    let mut now = 1_000u64;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..rounds {
            now += 1;
            gw.tick(now);
        }
        samples.push(start.elapsed());
    }
    samples.sort();
    samples[2]
}

/// Asserts that `ROUNDS` idle ticks over a `large` fleet cost within 2x
/// of the same over a `small` one; returns the large fleet.
fn assert_idle_tick_flat(small: u32, large: u32) -> Gateway<MemStable> {
    const ROUNDS: u64 = 100_000;
    let mut fleet = build_fleet(small);
    let t_small = time_idle_ticks(&mut fleet, ROUNDS);
    drop(fleet);

    let mut fleet = build_fleet(large);
    let t_large = time_idle_ticks(&mut fleet, ROUNDS);
    eprintln!("idle tick x{ROUNDS}: {small} SAs {t_small:?}, {large} SAs {t_large:?}");

    // Within 2x of the small fleet. The additive floor absorbs scheduler
    // noise when both medians are near-zero.
    let budget = t_small * 2 + std::time::Duration::from_millis(10);
    assert!(
        t_large <= budget,
        "idle tick over {large} SAs took {t_large:?}, budget {budget:?} \
         (2x the {small}-SA fleet's {t_small:?} + 10ms noise floor): \
         tick cost must track due timers, not fleet size"
    );
    fleet
}

#[test]
fn million_sa_idle_tick_costs_the_same_as_a_thousand() {
    assert_idle_tick_flat(1 << 8, 1 << 14);
    if std::env::var("IT_FLEET_1M").is_err() {
        eprintln!(
            "million_sa_idle_tick_costs_the_same_as_a_thousand: 10^6 SKIPPED \
             (set IT_FLEET_1M=1 to install 10^6 SA pairs and assert flat idle-tick cost)"
        );
        return;
    }
    let mut fleet = assert_idle_tick_flat(1_000, 1_000_000);

    // Datapath smoke at full fleet size: a 4096-frame batch across the
    // first 1024 SPIs drains through the slab SADB and delivers.
    let keys = SaKeys::derive(MASTER, b"fleet-shared");
    let mut tx = GatewayBuilder::in_memory().save_interval(64).build();
    for spi in 1..=1_024u32 {
        tx.install_pair(SecurityAssociation::new(spi, keys.clone()));
    }
    let wires: Vec<Bytes> = (0..4_096u32)
        .map(|i| {
            let spi = 1 + (i % 1_024);
            tx.protect(spi, format!("fleet frame {i}").as_bytes())
                .unwrap()
                .unwrap()
                .wire
        })
        .collect();
    fleet.push_wire_batch(&wires).unwrap();
    let delivered = fleet
        .poll_events()
        .into_iter()
        .filter(|e| matches!(e, GatewayEvent::Delivered { .. }))
        .count();
    assert_eq!(delivered, 4_096, "all batch frames deliver at 1M-SA scale");
}
