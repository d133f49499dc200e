//! Bench: the sharded gateway's reset recovery on the persistent
//! worker-pool runtime, swept over worker-shard counts on a 256-SA
//! fleet.
//!
//! One benchmark, at shards ∈ {1, 2, 4, 8} plus a `plain_gateway`
//! baseline (the unsharded [`Gateway`], same fleet — the parity bar the
//! pool must meet on one core):
//!
//! * `recover_storm_256sa` — `reset()` + shard-parallel `recover()` of
//!   the whole fleet (FETCH + `2K` leap + synchronous SAVE on all 256
//!   SA directions) on the persistent pool. Before the pool this group
//!   isolated the scoped spawn-per-verb cost (~30 µs/thread on the CI
//!   kernel); now it must sit at parity or better vs `plain_gateway`
//!   even on one core.
//!
//! The receive-path sweeps that used to live here (`rx_fresh_*`,
//! `rx_replay_*`, `pipeline_*`) are the `sharded_small` workload and the
//! `ipsec.shard.*` rows of the benchmark of record (`benchmark/`).
//!
//! Shard scaling is a *core-count* lever: on a single-core host (CI
//! containers) the sweep measures the pool machinery — queue
//! round-trips, deterministic event merge — which must stay small.
//! `BENCH_datapath.json` records `cores` with every entry so readers
//! know which kind of host produced the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use reset_ipsec::{
    CryptoSuite, Gateway, GatewayBuilder, SaKeys, SecurityAssociation, ShardedGateway,
};
use reset_stable::MemStable;

const N_SAS: u32 = 256;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn sa_for(spi: u32) -> SecurityAssociation {
    SecurityAssociation::new(
        spi,
        SaKeys::derive(b"shard-bench-master", &spi.to_be_bytes()),
    )
    .with_suite(CryptoSuite::default())
}

fn rx_fleet(shards: usize) -> ShardedGateway<MemStable> {
    let mut rx = GatewayBuilder::in_memory_sharded(shards)
        .save_interval(64)
        .window(64)
        .build_sharded();
    for spi in 1..=N_SAS {
        rx.install_inbound(sa_for(spi));
    }
    rx
}

fn plain_rx_fleet() -> Gateway<MemStable> {
    let mut rx = GatewayBuilder::in_memory()
        .save_interval(64)
        .window(64)
        .build();
    for spi in 1..=N_SAS {
        rx.install_inbound(sa_for(spi));
    }
    rx
}

fn bench_recover_storm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gateway_shard/recover_storm_256sa");
    g.throughput(Throughput::Elements(N_SAS as u64));
    g.sample_size(10);
    {
        let mut rx = plain_rx_fleet();
        g.bench_function("plain_gateway", |b| {
            b.iter(|| {
                rx.reset();
                let sas = rx.recover().unwrap();
                assert_eq!(sas, N_SAS as usize);
                rx.poll_events()
            })
        });
    }
    for shards in SHARD_COUNTS {
        // Built once: reset + recover cycle on the persistent pool is
        // the entire measured region — no construction, no spawn, no
        // drop inside the closure.
        let mut rx = rx_fleet(shards);
        g.bench_function(BenchmarkId::from_parameter(shards), |b| {
            b.iter(|| {
                rx.reset();
                let sas = rx.recover().unwrap();
                assert_eq!(sas, N_SAS as usize);
                rx.poll_events()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_recover_storm);
criterion_main!(benches);
