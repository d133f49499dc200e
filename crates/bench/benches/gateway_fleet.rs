//! Bench: control-plane tick cost at fleet scale (ROADMAP item 2).
//!
//! The hierarchical timer wheel exists so `Gateway::tick` costs
//! O(due timers), not O(fleet). Two idle-tick groups pin that down:
//!
//! * `tick_idle_1k/plain_gateway` — idle tick over 10^3 SA pairs with
//!   DPD armed and a rekey policy set (every SA holds a live wheel
//!   entry; none are due).
//! * `tick_idle_1m/plain_gateway` — the same tick over 10^6 SA pairs.
//!
//! `tools/bench_check.rs` enforces `tick_idle_1m <= 2x tick_idle_1k`:
//! if tick cost grows with fleet size again, the ratio ceiling trips
//! even on hosts whose absolute numbers drifted. (The pre-wheel sweep
//! visited all 10^6 detectors and SAs per tick, so a reintroduced
//! sweep lands orders of magnitude over the ceiling, not near it.)
//!
//! The receive path over a wide fleet is measured by the benchmark of
//! record's `fleet_wide` workload (SPIs uniform over 2^18 SA pairs),
//! not here.

use criterion::{criterion_group, criterion_main, Criterion};

use reset_ipsec::{DpdConfig, Gateway, GatewayBuilder, SaKeys, SaLifetime, SecurityAssociation};
use reset_stable::MemStable;

/// One derivation shared across the fleet — key uniqueness is
/// irrelevant to timer-wheel and SADB-layout scaling.
fn shared_keys() -> SaKeys {
    SaKeys::derive(b"fleet-bench-master", b"fleet-shared")
}

/// A fleet with every control-plane timer armed: DPD detectors live on
/// the wheel, a rekey lifetime is set. The post-build tick arms the
/// detectors (the one fleet-proportional tick, off the clock).
fn armed_fleet(n: u32) -> Gateway<MemStable> {
    let keys = shared_keys();
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
    gw.tick(1_000);
    gw.poll_events();
    gw
}

fn bench_tick_idle(c: &mut Criterion, label: &str, fleet_size: u32) {
    let mut g = c.benchmark_group(format!("gateway_fleet_1m/{label}"));
    g.sample_size(10);
    let mut gw = armed_fleet(fleet_size);
    let mut now = 1_000u64;
    g.bench_function("plain_gateway", |b| {
        b.iter(|| {
            now += 1;
            gw.tick(now);
        })
    });
    g.finish();
}

fn bench_tick_idle_1k(c: &mut Criterion) {
    bench_tick_idle(c, "tick_idle_1k", 1_000);
}

fn bench_tick_idle_1m(c: &mut Criterion) {
    bench_tick_idle(c, "tick_idle_1m", 1_000_000);
}

criterion_group!(benches, bench_tick_idle_1k, bench_tick_idle_1m);
criterion_main!(benches);
