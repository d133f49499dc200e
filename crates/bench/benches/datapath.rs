//! Bench: the ESP receive datapath, from one SA's drain up to the
//! gateway's. (The primitive-level groups that used to open this file —
//! `icv_64B`, `sha256`, `icv_batch_64B` — are the `crypto.verify_batch_ns`
//! and `wire.verify_ns` rows of the benchmark of record, `benchmark/`.)
//!
//! * `suite_rx` — the batched receive pipeline per negotiable cipher
//!   suite (legacy HMAC+keystream, auth-only, ChaCha20-Poly1305),
//!   pinned to the scalar crypto backend so the CI-gated numbers are
//!   comparable across hosts.
//! * `suite_rx_<backend>` — the same pipeline per SIMD backend
//!   supported on this host (`lanes4`, `avx2`). Advisory in the gate:
//!   their baseline entries carry a `backend` field and are skipped on
//!   runners lacking the feature.
//! * `gateway_drain` — `Sadb::process_batch` over a 512-packet NIC
//!   queue.
//! * `telemetry_overhead` — a full `Gateway::push_wire_batch` +
//!   `poll_events` drain with no telemetry handle vs an attached one
//!   (claim: the uninstrumented path costs the same — every recording
//!   site is one `Option` branch — and instrumentation itself stays
//!   within noise of the drain).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bytes::Bytes;
use reset_ipsec::{
    Backend, CryptoSuite, GatewayBuilder, Inbound, Outbound, SaKeys, Sadb, SecurityAssociation,
};
use reset_stable::MemStable;
use reset_telemetry::Telemetry;

fn suite_rx_group(c: &mut Criterion, group: &str, backend: Backend) {
    // The per-suite receive pipeline: batched drain of a 1024-packet
    // in-order stream per negotiable suite (the harness `suites`
    // experiment's hot loop, pinned here for the perf trajectory).
    const STREAM: usize = 1024;
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(STREAM as u64));
    for &suite in CryptoSuite::ALL {
        let keys = SaKeys::derive(b"suite-bench", b"d");
        let sa = SecurityAssociation::new(0x5111, keys)
            .with_suite(suite)
            .with_backend(backend);
        let mut tx = Outbound::new(sa.clone(), MemStable::new(), 1 << 40);
        let wires: Vec<Bytes> = (0..STREAM)
            .map(|_| tx.protect(&[0xC3u8; 64]).unwrap().unwrap())
            .collect();
        let name = sa.cipher().name();
        g.bench_function(BenchmarkId::new("process_batch_64B", name), |b| {
            b.iter(|| {
                let mut rx = Inbound::new(sa.clone(), MemStable::new(), 1 << 40, 1024);
                std::hint::black_box(rx.process_batch(&wires).unwrap())
            })
        });
    }
    // MTU-sized AEAD frames: the entry where the multi-lane backend
    // pays off most — bulk ChaCha20 dominates, so the same-key lane
    // mode and cross-packet OTK batching carry the whole pipeline.
    {
        let keys = SaKeys::derive(b"suite-bench", b"d");
        let sa = SecurityAssociation::new(0x5112, keys)
            .with_suite(CryptoSuite::ChaCha20Poly1305)
            .with_backend(backend);
        let mut tx = Outbound::new(sa.clone(), MemStable::new(), 1 << 40);
        let wires: Vec<Bytes> = (0..STREAM)
            .map(|_| tx.protect(&[0xC3u8; 1400]).unwrap().unwrap())
            .collect();
        let name = sa.cipher().name();
        g.bench_function(BenchmarkId::new("process_batch_1400B", name), |b| {
            b.iter(|| {
                let mut rx = Inbound::new(sa.clone(), MemStable::new(), 1 << 40, 1024);
                std::hint::black_box(rx.process_batch(&wires).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_suite_rx(c: &mut Criterion) {
    // The gated group runs on the scalar backend so its numbers mean
    // the same thing on every runner; the production datapath still
    // auto-detects (Backend::select).
    suite_rx_group(c, "datapath/suite_rx", Backend::Scalar);
}

fn bench_suite_rx_backends(c: &mut Criterion) {
    // One advisory group per SIMD backend the host supports. Absent
    // backends simply produce no results; bench_check skips their
    // baseline entries with a notice instead of failing completeness.
    for backend in Backend::ALL {
        if backend == Backend::Scalar || !backend.is_supported() {
            continue;
        }
        let group = format!("datapath/suite_rx_{backend}");
        suite_rx_group(c, &group, backend);
    }
}

fn bench_gateway_drain(c: &mut Criterion) {
    // A gateway drains a 512-packet queue spread over 8 SAs (64-byte
    // payloads), arriving in bursts per SA as a NIC RSS queue would.
    const QUEUE: usize = 512;
    const SAS: u32 = 8;
    let fresh_db = || {
        let mut db: Sadb<MemStable> = Sadb::new();
        for spi in 1..=SAS {
            let keys = SaKeys::derive(b"gw-secret", &spi.to_be_bytes());
            db.install_outbound(
                SecurityAssociation::new(spi, keys.clone()),
                MemStable::new(),
                1 << 40,
            );
            db.install_inbound(
                SecurityAssociation::new(spi, keys),
                MemStable::new(),
                1 << 40,
                1024,
            );
        }
        db
    };
    let mut tx_db = fresh_db();
    let queue: Vec<Bytes> = (0..QUEUE)
        .map(|i| {
            let spi = 1 + (i as u32 / 16) % SAS; // bursts of 16 per SA
            tx_db.protect(spi, &[0xE1u8; 64]).unwrap().unwrap()
        })
        .collect();

    let mut g = c.benchmark_group("datapath/gateway_drain");
    g.throughput(Throughput::Elements(QUEUE as u64));
    g.bench_with_input(
        BenchmarkId::new("process_batch", QUEUE),
        &queue,
        |b, queue| {
            b.iter(|| {
                let mut db = fresh_db();
                std::hint::black_box(db.process_batch(queue).unwrap())
            })
        },
    );
    g.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The full engine-level drain (push_wire_batch + poll_events) of a
    // 512-packet queue over 8 SAs, with and without a telemetry handle
    // attached. The queue is sealed once; each iteration rebuilds the
    // receiving gateway, exactly like gateway_drain above, so the two
    // sides differ only in the handle.
    const QUEUE: usize = 512;
    const SAS: u32 = 8;
    let fresh_rx = |telemetry: Option<Telemetry>| {
        let mut builder = GatewayBuilder::in_memory()
            .save_interval(1 << 40)
            .window(1024);
        if let Some(t) = telemetry {
            builder = builder.telemetry(t);
        }
        let mut gw = builder.build();
        for spi in 1..=SAS {
            gw.add_peer(spi, b"telemetry-bench-master");
        }
        gw
    };
    let mut tx = fresh_rx(None);
    let queue: Vec<Bytes> = (0..QUEUE)
        .map(|i| {
            let spi = 1 + (i as u32 / 16) % SAS; // bursts of 16 per SA
            tx.protect(spi, &[0xE1u8; 64]).unwrap().unwrap().wire
        })
        .collect();

    let mut g = c.benchmark_group("datapath/telemetry_overhead");
    g.throughput(Throughput::Elements(QUEUE as u64));
    g.bench_with_input(BenchmarkId::new("off", QUEUE), &queue, |b, queue| {
        b.iter(|| {
            let mut gw = fresh_rx(None);
            gw.push_wire_batch(queue).unwrap();
            std::hint::black_box(gw.poll_events())
        })
    });
    g.bench_with_input(BenchmarkId::new("on", QUEUE), &queue, |b, queue| {
        // One handle for the whole measurement — attaching is a
        // lifecycle cost, recording is the hot path under test.
        let telemetry = Telemetry::new();
        b.iter(|| {
            let mut gw = fresh_rx(Some(telemetry.clone()));
            gw.push_wire_batch(queue).unwrap();
            std::hint::black_box(gw.poll_events())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_suite_rx,
    bench_suite_rx_backends,
    bench_gateway_drain,
    bench_telemetry_overhead
);
criterion_main!(benches);
