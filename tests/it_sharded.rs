//! Parallel-vs-sequential differential suite for the sharded gateway.
//!
//! The [`reset_ipsec::ShardedGateway`] contract has two halves, both
//! locked here against a plain [`reset_ipsec::Gateway`] fed the exact
//! same 10k-frame randomized wire stream (fresh traffic across a 64-SA
//! fleet, replays, corruptions, garbage, truncations, and mid-run
//! reset/recover cycles with frames buffered during the wake-up):
//!
//! * **shards = 1** — the merged event stream is *bit-identical* to the
//!   single gateway's: same events, same global order.
//! * **shards ∈ {2, 4, 8}** — the global interleaving may differ (events
//!   merge in stable shard-then-arrival order), but the **per-SPI event
//!   subsequences** and the **global verdict counts** are exactly equal.
//!   Per-SA order is the unit the paper's guarantees are stated in, so
//!   this is the equivalence that matters.
//!
//! Both cipher suites run the whole matrix, seeded; failures print the
//! seed and diverging SPI.
//!
//! Since the persistent worker-pool runtime landed, the sharded side of
//! every differential runs on long-lived worker threads fed over
//! per-shard work queues — the same differential therefore also locks
//! the pool's completion-barrier event merge. Additional lifecycle
//! coverage here: drop-with-work-in-flight shuts down cleanly, a
//! panicking shard job surfaces as [`reset_ipsec::IpsecError`]
//! (`WorkerPanicked`) on the caller instead of hanging, and the
//! env-gated `shard_scaling_meets_multicore_floor` measures the ≥1.5×
//! 4-shard throughput floor on hosts with ≥4 cores (the CI scaling
//! lane sets `IT_SHARD_SCALING=1` after checking `nproc`).
//!
//! Set `IT_SHARDED_SOAK=<n>` to multiply the frame count (the CI soak
//! lane runs the suite at 5× with the thread-heavy 8-shard config).

use bytes::Bytes;
use reset_ipsec::{
    CryptoSuite, Gateway, GatewayBuilder, GatewayEvent, SaKeys, SecurityAssociation, ShardedGateway,
};
use reset_sim::DetRng;
use reset_stable::MemStable;

/// The two transforms: auth-only (delivered without a copy) and the
/// AEAD (decrypted through each shard's arena).
const SUITES: [CryptoSuite; 2] = [
    CryptoSuite::HmacSha256AuthOnly,
    CryptoSuite::ChaCha20Poly1305,
];

const N_SAS: u32 = 64;
const BASE_FRAMES: usize = 10_000;

/// Non-contiguous SPIs: the hash router must cope with arbitrary
/// allocation patterns, not just 1..=N.
fn fleet_spis() -> Vec<u32> {
    (0..N_SAS).map(|i| 0x2000 + i * 37 + (i % 5)).collect()
}

fn frames_target() -> usize {
    match std::env::var("IT_SHARDED_SOAK") {
        Ok(v) => BASE_FRAMES * v.parse::<usize>().unwrap_or(1).max(1),
        Err(_) => BASE_FRAMES,
    }
}

fn sa_for(suite: CryptoSuite, spi: u32) -> SecurityAssociation {
    let keys = SaKeys::derive(b"differential-master", &spi.to_be_bytes());
    SecurityAssociation::new(spi, keys).with_suite(suite)
}

fn tx_gateway(suite: CryptoSuite) -> Gateway<MemStable> {
    let mut tx = GatewayBuilder::in_memory()
        .suite(suite)
        .save_interval(10)
        .build();
    for spi in fleet_spis() {
        tx.install_outbound(sa_for(suite, spi));
    }
    tx
}

fn rx_reference(suite: CryptoSuite) -> Gateway<MemStable> {
    let mut rx = GatewayBuilder::in_memory()
        .suite(suite)
        .save_interval(10)
        .window(64)
        .build();
    for spi in fleet_spis() {
        rx.install_inbound(sa_for(suite, spi));
    }
    rx
}

fn rx_sharded(suite: CryptoSuite, shards: usize) -> ShardedGateway<MemStable> {
    let mut rx = GatewayBuilder::in_memory_sharded(shards)
        .suite(suite)
        .save_interval(10)
        .window(64)
        .build_sharded();
    for spi in fleet_spis() {
        rx.install_inbound(sa_for(suite, spi));
    }
    rx
}

/// One randomized chunked wire stream: mostly fresh fleet traffic with
/// replays, single-byte corruptions, garbage and truncations mixed in.
/// Returned as chunks (NIC-queue drains of random size).
fn generate_chunks(suite: CryptoSuite, seed: u64, total: usize) -> Vec<Vec<Bytes>> {
    let mut gen = DetRng::new(seed);
    let mut tx = tx_gateway(suite);
    let spis = fleet_spis();
    let mut recorded: Vec<Bytes> = Vec::new();
    let mut chunks: Vec<Vec<Bytes>> = Vec::new();
    let mut chunk: Vec<Bytes> = Vec::new();
    let mut produced = 0usize;
    while produced < total {
        let wire: Bytes = match gen.below(10) {
            0..=5 => {
                let spi = *gen.pick(&spis);
                let payload_len = gen.below(48) as usize;
                let mut payload = vec![0u8; payload_len];
                gen.fill_bytes(&mut payload);
                let f = tx.protect(spi, &payload).unwrap().expect("tx up");
                recorded.push(f.wire.clone());
                f.wire
            }
            6 if !recorded.is_empty() => {
                let idx = gen.below(recorded.len() as u64) as usize;
                recorded[idx].clone()
            }
            7 if !recorded.is_empty() => {
                let idx = gen.below(recorded.len() as u64) as usize;
                let mut bad = recorded[idx].to_vec();
                let pos = gen.below(bad.len() as u64) as usize;
                bad[pos] ^= 1 << gen.below(8);
                Bytes::from(bad)
            }
            8 => {
                let len = gen.below(24) as usize;
                let mut junk = vec![0u8; len];
                gen.fill_bytes(&mut junk);
                Bytes::from(junk)
            }
            _ if !recorded.is_empty() => {
                let idx = gen.below(recorded.len() as u64) as usize;
                let cut = gen.below(recorded[idx].len() as u64 + 1) as usize;
                recorded[idx].slice(..cut)
            }
            _ => Bytes::new(),
        };
        chunk.push(wire);
        produced += 1;
        if chunk.len() as u64 > gen.below(64) {
            chunks.push(std::mem::take(&mut chunk));
        }
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    chunks
}

/// The receiver verbs the differential drives — implemented for both
/// the plain engine and the sharded one so one driver exercises both.
trait Rx {
    fn push(&mut self, chunk: &[Bytes]);
    fn poll(&mut self) -> Vec<GatewayEvent>;
    fn save(&mut self);
    fn crash(&mut self);
    fn begin(&mut self);
    fn finish(&mut self);
}

impl Rx for Gateway<MemStable> {
    fn push(&mut self, chunk: &[Bytes]) {
        self.push_wire_batch(chunk).unwrap();
    }
    fn poll(&mut self) -> Vec<GatewayEvent> {
        self.poll_events()
    }
    fn save(&mut self) {
        self.save_completed().unwrap();
    }
    fn crash(&mut self) {
        self.reset();
    }
    fn begin(&mut self) {
        self.begin_recover().unwrap();
    }
    fn finish(&mut self) {
        self.finish_recover().unwrap();
    }
}

impl Rx for ShardedGateway<MemStable> {
    fn push(&mut self, chunk: &[Bytes]) {
        self.push_wire_batch(chunk).unwrap();
    }
    fn poll(&mut self) -> Vec<GatewayEvent> {
        self.poll_events()
    }
    fn save(&mut self) {
        self.save_completed().unwrap();
    }
    fn crash(&mut self) {
        self.reset();
    }
    fn begin(&mut self) {
        self.begin_recover().unwrap();
    }
    fn finish(&mut self) {
        self.finish_recover().unwrap();
    }
}

/// Drives one receiver through the chunk stream with two reset/recover
/// cycles, frames arriving mid-wake-up on the second one. Returns every
/// event emitted, in order.
fn drive<R: Rx>(rx: &mut R, chunks: &[Vec<Bytes>]) -> Vec<GatewayEvent> {
    let mut events = Vec::new();
    let n = chunks.len();
    let (r1, r2) = (n / 3, 2 * n / 3);
    for (i, chunk) in chunks.iter().enumerate() {
        if i == r1 {
            // Atomic reset/recover between two chunks.
            rx.save();
            rx.crash();
            rx.begin();
            rx.finish();
        }
        if i == r2 {
            // Split recovery: this chunk arrives during the wake-up and
            // is buffered, resolving at finish.
            rx.save();
            rx.crash();
            rx.begin();
        }
        rx.push(chunk);
        if i == r2 {
            rx.finish();
        }
        events.extend(rx.poll());
    }
    events
}

fn run_reference(suite: CryptoSuite, chunks: &[Vec<Bytes>]) -> Vec<GatewayEvent> {
    drive(&mut rx_reference(suite), chunks)
}

fn run_sharded(suite: CryptoSuite, shards: usize, chunks: &[Vec<Bytes>]) -> Vec<GatewayEvent> {
    drive(&mut rx_sharded(suite, shards), chunks)
}

/// The SPI an event anchors to (`None` for the fleet-wide `Recovered`).
fn event_spi(ev: &GatewayEvent) -> Option<u32> {
    match ev {
        GatewayEvent::Delivered { spi, .. }
        | GatewayEvent::ReplayDropped { spi, .. }
        | GatewayEvent::AuthFailed { spi }
        | GatewayEvent::UnknownSa { spi }
        | GatewayEvent::Buffered { spi }
        | GatewayEvent::DroppedDown { spi }
        | GatewayEvent::RekeyStarted { spi }
        | GatewayEvent::RekeyCompleted { spi, .. }
        | GatewayEvent::ProbeDue { spi }
        | GatewayEvent::PeerDead { spi }
        | GatewayEvent::FailedClosed { spi, .. } => Some(*spi),
        GatewayEvent::Recovered { .. } => None,
    }
}

/// A stable name for an event's verdict class (global count comparison).
fn verdict_class(ev: &GatewayEvent) -> &'static str {
    match ev {
        GatewayEvent::Delivered { .. } => "delivered",
        GatewayEvent::ReplayDropped { .. } => "replay_dropped",
        GatewayEvent::AuthFailed { .. } => "auth_failed",
        GatewayEvent::UnknownSa { .. } => "unknown_sa",
        GatewayEvent::Buffered { .. } => "buffered",
        GatewayEvent::DroppedDown { .. } => "dropped_down",
        GatewayEvent::Recovered { .. } => "recovered",
        GatewayEvent::RekeyStarted { .. } => "rekey_started",
        GatewayEvent::RekeyCompleted { .. } => "rekey_completed",
        GatewayEvent::ProbeDue { .. } => "probe_due",
        GatewayEvent::PeerDead { .. } => "peer_dead",
        GatewayEvent::FailedClosed { .. } => "failed_closed",
    }
}

fn per_spi_streams(events: &[GatewayEvent]) -> std::collections::BTreeMap<u32, Vec<GatewayEvent>> {
    let mut map: std::collections::BTreeMap<u32, Vec<GatewayEvent>> = Default::default();
    for ev in events {
        if let Some(spi) = event_spi(ev) {
            map.entry(spi).or_default().push(ev.clone());
        }
    }
    map
}

fn verdict_counts(events: &[GatewayEvent]) -> std::collections::BTreeMap<&'static str, usize> {
    let mut map: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for ev in events {
        *map.entry(verdict_class(ev)).or_default() += 1;
    }
    map
}

fn recovered_sas_total(events: &[GatewayEvent]) -> usize {
    events
        .iter()
        .filter_map(|ev| match ev {
            GatewayEvent::Recovered { sas } => Some(*sas),
            _ => None,
        })
        .sum()
}

/// The headline differential: 10k randomized frames, both suites,
/// shards ∈ {1, 2, 4, 8}, vs the plain `Gateway`.
#[test]
fn sharded_event_stream_matches_gateway_for_all_shard_counts() {
    let total = frames_target();
    for suite in SUITES {
        let seed = 0x5A_0001 ^ suite.wire_id() as u64;
        let chunks = generate_chunks(suite, seed, total);
        let reference = run_reference(suite, &chunks);
        // One final verdict per frame: frames buffered mid-wake-up emit
        // `Buffered` at push time *plus* their resolved verdict after
        // `finish_recover`, so exclude the transient `Buffered` marks.
        assert_eq!(
            reference
                .iter()
                .filter(|e| event_spi(e).is_some() && !matches!(e, GatewayEvent::Buffered { .. }))
                .count(),
            total,
            "{suite:?}: one verdict per frame"
        );
        let ref_per_spi = per_spi_streams(&reference);
        let ref_counts = verdict_counts(&reference);
        for shards in [1usize, 2, 4, 8] {
            let sharded = run_sharded(suite, shards, &chunks);
            if shards == 1 {
                assert_eq!(
                    reference, sharded,
                    "{suite:?} seed {seed}: single shard must be bit-identical"
                );
            }
            let got_per_spi = per_spi_streams(&sharded);
            assert_eq!(
                ref_per_spi.keys().collect::<Vec<_>>(),
                got_per_spi.keys().collect::<Vec<_>>(),
                "{suite:?} shards={shards}: SPI coverage differs"
            );
            for (spi, ref_stream) in &ref_per_spi {
                assert_eq!(
                    ref_stream,
                    &got_per_spi[spi],
                    "{suite:?} seed {seed} shards={shards}: per-SPI stream diverged at spi {spi:#x}"
                );
            }
            assert_eq!(
                ref_counts,
                verdict_counts(&sharded),
                "{suite:?} seed {seed} shards={shards}: global verdict counts"
            );
            assert_eq!(
                recovered_sas_total(&reference),
                recovered_sas_total(&sharded),
                "{suite:?} shards={shards}: recovered SA totals"
            );
        }
        // The stream actually exercised every verdict class.
        for class in [
            "delivered",
            "replay_dropped",
            "auth_failed",
            "unknown_sa",
            "buffered",
        ] {
            assert!(
                ref_counts.get(class).copied().unwrap_or(0) > 0,
                "{suite:?}: stream never produced {class}: {ref_counts:?}"
            );
        }
    }
}

/// Malformed-input hardening: every way of truncating or corrupting
/// bytes must come back as exactly one `AuthFailed`/`UnknownSa` event
/// per frame — never a panic, never a missing event — through the full
/// peek_spi → shard routing → `push_wire_batch` path at several shard
/// counts.
#[test]
fn malformed_frames_become_events_never_panics() {
    let suite = CryptoSuite::default();
    let spis = fleet_spis();
    let mut tx = tx_gateway(suite);
    let genuine = tx.protect(spis[0], b"golden frame").unwrap().unwrap().wire;

    // Deterministic table: every truncation of a genuine frame, header
    // field mutations, declared-length lies, runts and empties.
    let mut table: Vec<Bytes> = Vec::new();
    for cut in 0..=genuine.len() {
        table.push(genuine.slice(..cut));
    }
    for i in 0..genuine.len() {
        let mut bad = genuine.to_vec();
        bad[i] ^= 0xFF;
        table.push(Bytes::from(bad));
    }
    // Declared payload length lies (field at offset 8..12).
    for lie in [0u32, 1, 0xFFFF_FFFF, genuine.len() as u32] {
        let mut bad = genuine.to_vec();
        bad[8..12].copy_from_slice(&lie.to_be_bytes());
        table.push(Bytes::from(bad));
    }
    table.push(Bytes::new());
    table.push(Bytes::copy_from_slice(&[0xFF]));
    // Random garbage, seeded.
    let mut gen = DetRng::new(0x5A_0002);
    for _ in 0..500 {
        let len = gen.below(80) as usize;
        let mut junk = vec![0u8; len];
        gen.fill_bytes(&mut junk);
        table.push(Bytes::from(junk));
    }

    for shards in [1usize, 2, 4, 8] {
        let mut rx = rx_sharded(suite, shards);
        rx.push_wire_batch(&table).unwrap();
        let events = rx.poll_events();
        assert_eq!(
            events.len(),
            table.len(),
            "shards={shards}: exactly one event per malformed frame"
        );
        for (i, ev) in events.iter().enumerate() {
            assert!(
                matches!(
                    ev,
                    GatewayEvent::AuthFailed { .. }
                        | GatewayEvent::UnknownSa { .. }
                        | GatewayEvent::Delivered { .. }
                ),
                "shards={shards} event {i}: unexpected {ev:?}"
            );
        }
        // Only the one uncorrupted prefix (the full-length "truncation")
        // may deliver.
        let delivered = events
            .iter()
            .filter(|e| matches!(e, GatewayEvent::Delivered { .. }))
            .count();
        assert_eq!(delivered, 1, "shards={shards}: the intact copy only");
        // And the gateway is still healthy afterwards.
        let fresh = tx.protect(spis[1], b"still alive").unwrap().unwrap();
        rx.push_wire(&fresh.wire).unwrap();
        assert!(matches!(
            rx.poll_events()[..],
            [GatewayEvent::Delivered { .. }]
        ));
    }
}

/// Seal a frame under one suite, push it at a fleet negotiated under
/// the other: must surface as `AuthFailed`, not a parse confusion, on
/// the sharded path too (the suites disagree about IV/ICV layout).
#[test]
fn cross_suite_frames_fail_authentication_through_shard_routing() {
    let spis = fleet_spis();
    let mut tx_auth_only = tx_gateway(CryptoSuite::HmacSha256AuthOnly);
    let mut rx_aead = rx_sharded(CryptoSuite::ChaCha20Poly1305, 4);
    let frames: Vec<Bytes> = spis
        .iter()
        .take(16)
        .map(|&spi| {
            tx_auth_only
                .protect(spi, b"wrong suite")
                .unwrap()
                .unwrap()
                .wire
        })
        .collect();
    rx_aead.push_wire_batch(&frames).unwrap();
    let events = rx_aead.poll_events();
    assert_eq!(events.len(), 16);
    assert!(events
        .iter()
        .all(|e| matches!(e, GatewayEvent::AuthFailed { .. })));
}

// ----------------------------------------------------------------------
// Worker-pool lifecycle
// ----------------------------------------------------------------------

/// Dropping a pooled fleet with whole batches still queued on the
/// workers must drain and join cleanly — no hang (the test would time
/// out), no panic, no abort.
#[test]
fn dropping_fleet_with_queued_batches_shuts_down_cleanly() {
    let suite = CryptoSuite::default();
    let mut tx = tx_gateway(suite);
    let spis = fleet_spis();
    let frames: Vec<Bytes> = (0..6)
        .flat_map(|_| {
            spis.iter()
                .map(|&spi| tx.protect(spi, b"in flight").unwrap().unwrap().wire)
                .collect::<Vec<_>>()
        })
        .collect();
    for shards in [1usize, 4, 8] {
        let mut rx = rx_sharded(suite, shards);
        // Pipeline several submissions and drop without draining.
        for chunk in frames.chunks(96) {
            rx.submit_batch(chunk);
        }
        drop(rx);
    }
}

/// A store that FETCHes normally until armed, then panics — injected
/// through the public `GatewayBuilder::with_stores` factory so the
/// panic fires *inside a shard worker's job* during `begin_recover`.
struct PanicOnLoad {
    inner: MemStable,
    armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl reset_stable::StableStore for PanicOnLoad {
    fn store(
        &mut self,
        slot: reset_stable::SlotId,
        value: u64,
    ) -> Result<(), reset_stable::StableError> {
        self.inner.store(slot, value)
    }
    fn load(&self, slot: reset_stable::SlotId) -> Result<Option<u64>, reset_stable::StableError> {
        if self.armed.load(std::sync::atomic::Ordering::Relaxed) {
            panic!("injected store panic on FETCH of {slot}");
        }
        self.inner.load(slot)
    }
    fn erase(&mut self, slot: reset_stable::SlotId) -> Result<(), reset_stable::StableError> {
        self.inner.erase(slot)
    }
}

/// A panicking shard job must come back to the caller as
/// `IpsecError::WorkerPanicked` — an error, not a hang and not a
/// caller-side abort — and the pool must still shut down cleanly
/// afterwards.
#[test]
fn panicking_shard_job_surfaces_as_error_not_hang() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let armed = Arc::new(AtomicBool::new(false));
    let factory_armed = Arc::clone(&armed);
    let mut rx = reset_ipsec::GatewayBuilder::with_stores(move |_, _| PanicOnLoad {
        inner: MemStable::new(),
        armed: Arc::clone(&factory_armed),
    })
    .shards(4)
    .save_interval(10)
    .build_sharded();
    let suite = CryptoSuite::default();
    let mut tx = tx_gateway(suite);
    for spi in fleet_spis() {
        rx.install_inbound(sa_for(suite, spi));
    }
    let frames: Vec<Bytes> = fleet_spis()
        .iter()
        .map(|&spi| tx.protect(spi, b"healthy traffic").unwrap().unwrap().wire)
        .collect();
    rx.push_wire_batch(&frames).unwrap();
    assert_eq!(rx.poll_events().len(), frames.len());

    // Arm the trap: the next FETCH — executed by the shard workers
    // inside begin_recover jobs — panics.
    armed.store(true, Ordering::Relaxed);
    rx.reset();
    let err = rx.begin_recover().expect_err("armed FETCH must fail");
    match &err {
        reset_ipsec::IpsecError::WorkerPanicked { message, .. } => {
            assert!(
                message.contains("injected store panic"),
                "panic message lost: {message}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // The workers caught the panic and keep serving; disarm and the
    // fleet recovers normally, then drops cleanly.
    armed.store(false, Ordering::Relaxed);
    rx.begin_recover().unwrap();
    rx.finish_recover().unwrap();
    assert!(matches!(
        rx.poll_events()[..],
        [GatewayEvent::Recovered { .. }]
    ));
}

// ----------------------------------------------------------------------
// Multi-core scaling floor (env-gated: the CI scaling lane)
// ----------------------------------------------------------------------

/// Measured wall-clock for draining `batches` pre-sealed 4096-frame
/// NIC-queue bursts through a 256-SA fleet at `shards` shards.
fn drain_elapsed(shards: usize, batches: &[Vec<Bytes>]) -> std::time::Duration {
    let mut rx = reset_ipsec::GatewayBuilder::in_memory_sharded(shards)
        .save_interval(64)
        .window(64)
        .build_sharded();
    for spi in 1..=256u32 {
        let keys = SaKeys::derive(b"scaling-master", &spi.to_be_bytes());
        rx.install_inbound(SecurityAssociation::new(spi, keys).with_suite(CryptoSuite::default()));
    }
    // Warm up on the first two batches (pool queues, caches, arenas).
    for batch in &batches[..2] {
        rx.push_wire_batch(batch).unwrap();
        rx.poll_events();
    }
    let t = std::time::Instant::now();
    for batch in &batches[2..] {
        rx.push_wire_batch(batch).unwrap();
        rx.poll_events();
    }
    t.elapsed()
}

/// The assertion PR 4's one-core container could never run: on a host
/// with ≥4 cores, 4 worker shards must deliver ≥1.5× the aggregate
/// receive throughput of 1 shard on a 256-SA fleet. Gated on
/// `IT_SHARD_SCALING=1` — the CI scaling lane sets it after checking
/// `nproc`, so single-core runners skip with a notice instead of
/// recording a physically impossible failure.
#[test]
fn shard_scaling_meets_multicore_floor() {
    if std::env::var("IT_SHARD_SCALING").is_err() {
        eprintln!(
            "shard_scaling_meets_multicore_floor: SKIPPED (set IT_SHARD_SCALING=1 on a \
             >=4-core host to run the 4-shard >=1.5x throughput assertion)"
        );
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert!(
        cores >= 4,
        "IT_SHARD_SCALING set on a {cores}-core host: the 4-shard speedup floor needs >=4 cores"
    );
    // Pre-seal everything so only the receive path is on the clock:
    // 26 batches x 4096 frames, 16 per SA per batch, seqs advancing so
    // every batch delivers fresh.
    let mut tx: Gateway<MemStable> = GatewayBuilder::in_memory().save_interval(64).build();
    for spi in 1..=256u32 {
        let keys = SaKeys::derive(b"scaling-master", &spi.to_be_bytes());
        tx.install_outbound(SecurityAssociation::new(spi, keys).with_suite(CryptoSuite::default()));
    }
    let payload = [0x5Au8; 64];
    let batches: Vec<Vec<Bytes>> = (0..26)
        .map(|_| {
            (0..4096)
                .map(|i| {
                    let spi = 1 + (i as u32 % 256);
                    tx.protect(spi, &payload).unwrap().expect("tx up").wire
                })
                .collect()
        })
        .collect();
    let one = drain_elapsed(1, &batches);
    let four = drain_elapsed(4, &batches);
    let speedup = one.as_nanos() as f64 / four.as_nanos().max(1) as f64;
    eprintln!(
        "shard scaling on {cores} cores: 1 shard {one:?}, 4 shards {four:?} => {speedup:.2}x"
    );
    assert!(
        speedup >= 1.5,
        "4 shards on {cores} cores delivered only {speedup:.2}x over 1 shard \
         (floor: 1.5x); 1 shard {one:?}, 4 shards {four:?}"
    );
}
