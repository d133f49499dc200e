//! Allocation regression for the gateway datapath.
//!
//! The paper's cost argument is that SAVE/FETCH adds one background SAVE
//! per `K` messages to a per-message path that is otherwise as cheap as
//! plain anti-replay. A heap allocation per frame — or per SPI run, which
//! is per frame once SPIs are uniform over a wide fleet — is not that, so
//! this binary counts them: after one warm-up batch the receive drain
//! allocates a small constant **per batch**, whatever the frame count and
//! however the batch falls into SPI runs — and so does the whole cycle
//! with the background SAVEs of the default `K` issued and completed
//! every batch; a single-frame `push_wire` allocates nothing; the machine
//! and its drivers allocate nothing per message; an idle `tick` allocates
//! nothing.
//!
//! A counting `#[global_allocator]` sees every thread (the sharded drain
//! allocates on its workers), so everything lives in **one** `#[test]`:
//! with a second test in the binary, the harness's other threads would
//! bleed into the armed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use anti_replay::{SeqNum, SfEvent, SfMachine, SfReceiver, SfSender};
use bytes::{Bytes, BytesMut};
use reset_ipsec::{
    Backend, DpdConfig, Gateway, GatewayBuilder, GatewayEvent, SaKeys, SaLifetime,
    SecurityAssociation, ShardedGateway,
};
use reset_stable::{MemStable, SlotId};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed; returns its result and how many heap
/// allocations (on any thread) happened meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

const SPI_BASE: u32 = 0x4000;
const BATCH: usize = 4096;
const PAYLOAD: [u8; 64] = [0xA7; 64];

/// What a drain may allocate per batch once warm. Measured: 1, the event
/// vector `poll_events` returns — with or without SAVEs issued and
/// completed around it; the rest is slack for a queue that grows late.
/// Before ISSUE 17 the drain allocated 2.6 per *frame* on runs of 16
/// (10 800 a batch) and 11 per frame on singleton runs (45 000); before
/// ISSUE 18 a batch that issued its SAVEs allocated 42.
const PER_BATCH: u64 = 4;
/// The same through a 2-shard pool, which adds its fan-out per batch: the
/// shared `Arc<[Bytes]>`, per-shard route vectors (grown by doubling),
/// jobs, completions and per-shard event vectors. Measured: 33–35, and
/// 42–43 with a `save_completed` (one more job per shard) in the cycle.
const PER_SHARDED_BATCH: u64 = 64;

fn sa(spi: u32, backend: Backend) -> SecurityAssociation {
    let keys = SaKeys::derive(b"it-alloc", &spi.to_be_bytes());
    SecurityAssociation::new(spi, keys).with_backend(backend)
}

/// A save interval no SA reaches: the fleets built with it issue no
/// SAVE, so what is counted on them is the drain alone. (Before the SADB
/// kept its owed SAVEs in one reused vector this was also the only way to
/// a per-batch constant — the pending-save sets cost a B-tree node per ~6
/// SAVEs issued. The fleets built with [`DEFAULT_K`] count that cycle
/// now.)
const NO_SAVES: u64 = 1 << 40;
/// The builder's default save interval: with 16 frames per SA per batch,
/// SAVEs are issued in two batches of every three.
const DEFAULT_K: u64 = 25;

/// A plain gateway over `sas` SA pairs, default suite, DPD off.
fn gateway(sas: u32, backend: Backend, k: u64) -> Gateway<MemStable> {
    let mut gw = GatewayBuilder::in_memory().save_interval(k).build();
    for spi in SPI_BASE..SPI_BASE + sas {
        gw.install_pair(sa(spi, backend));
    }
    gw
}

/// The same fleet behind a 2-shard pool.
fn sharded_gateway(sas: u32, backend: Backend, k: u64) -> ShardedGateway<MemStable> {
    let mut gw = GatewayBuilder::in_memory()
        .save_interval(k)
        .shards(2)
        .build_sharded();
    for spi in SPI_BASE..SPI_BASE + sas {
        gw.install_pair(sa(spi, backend));
    }
    gw
}

/// Seals one batch of `BATCH` frames in runs of `run` consecutive frames
/// per SA, round-robin over `sas` SAs.
fn seal_batch(tx: &mut Gateway<MemStable>, sas: u32, run: usize) -> Vec<Bytes> {
    (0..BATCH)
        .map(|i| {
            let spi = SPI_BASE + (i / run) as u32 % sas;
            tx.protect(spi, &PAYLOAD).unwrap().unwrap().wire
        })
        .collect()
}

fn assert_all_delivered(events: &[GatewayEvent], what: &str) {
    assert_eq!(events.len(), BATCH, "{what}");
    for ev in events {
        match ev {
            GatewayEvent::Delivered { payload, .. } => assert_eq!(&payload[..], &PAYLOAD, "{what}"),
            other => panic!("{what}: {other:?}"),
        }
    }
}

/// `warm_up` batches through `drain` (a receiver's `push_wire_batch` +
/// `poll_events`, and whatever else its cycle does), then the most any
/// one of `measured` further batches allocates.
fn drain_allocs(
    (sas, run): (u32, usize),
    backend: Backend,
    (warm_up, measured): (usize, usize),
    mut drain: impl FnMut(&[Bytes]) -> Vec<GatewayEvent>,
) -> u64 {
    let mut tx = gateway(sas, backend, NO_SAVES);
    for _ in 0..warm_up {
        assert_all_delivered(&drain(&seal_batch(&mut tx, sas, run)), "warm-up");
    }
    (0..measured)
        .map(|_| {
            let batch = seal_batch(&mut tx, sas, run);
            let (events, allocs) = counted(|| drain(&batch));
            assert_all_delivered(&events, "counted batch");
            allocs
        })
        .max()
        .expect("at least one measured batch")
}

#[test]
fn the_datapath_allocates_per_batch_not_per_frame() {
    // ---- vendor/bytes: the empty buffers own nothing.
    let ((), allocs) = counted(|| {
        let mut held = Bytes::new();
        let taken = std::mem::take(&mut held);
        let arena = BytesMut::recycle(taken, 0);
        assert!(BytesMut::new().is_empty() && arena.freeze().is_empty());
    });
    assert_eq!(allocs, 0, "empty Bytes/BytesMut must not allocate");
    // ... and a recycled one keeps both its bytes and its `Arc`.
    let frozen = BytesMut::with_capacity(256).freeze();
    let ((), allocs) = counted(|| {
        let mut arena = BytesMut::recycle(frozen, 128);
        arena.extend_from_slice(&PAYLOAD);
        drop(arena.freeze());
    });
    assert_eq!(allocs, 0, "recycling a unique buffer must not allocate");

    // ---- anti-replay: a Send or Receive step is heap-free, bare and
    // through the drivers (K = 5, so SaveIssued effects are in the mix).
    let mut p = SfMachine::sender(5);
    let mut q = SfMachine::receiver(5, 64);
    let mut tx = SfSender::new(MemStable::new(), SlotId::sender(1), 5);
    let mut rx = SfReceiver::new(MemStable::new(), SlotId::receiver(1), 5, 64);
    let ((), allocs) = counted(|| {
        for s in 1..=100u64 {
            assert_eq!(p.step(SfEvent::Send).len(), 1 + usize::from(s % 5 == 0));
            let fx = q.step(SfEvent::Receive(SeqNum::new(s)));
            assert_eq!(fx.len(), 1 + usize::from(s % 5 == 0));
            let seq = tx.send_next().unwrap().expect("running");
            assert!(rx.receive(seq).unwrap().is_delivered());
            assert!(!rx.receive(seq).unwrap().is_delivered());
        }
    });
    assert_eq!(allocs, 0, "SfMachine::step / send_next / receive allocated");

    // ---- the control plane: an idle tick only compares `now` against
    // the timer wheel's cached lower bound, even on a fleet with live DPD
    // detectors, armed wheel entries and a rekey policy.
    let mut gw = GatewayBuilder::in_memory()
        .dpd(DpdConfig::default())
        .rekey_after(SaLifetime {
            max_packets: 1_000_000,
            max_bytes: u64::MAX,
        })
        .build();
    for spi in 1..=256u32 {
        gw.add_peer(spi, b"alloc-probe-master");
    }
    let frame = gw.protect(7, b"warm the datapath").unwrap().unwrap();
    gw.push_wire(&frame.wire).unwrap();
    // The first tick arms every detector and fills the wheel: it may
    // allocate.
    gw.tick(1_000);
    gw.poll_events();
    let ((), allocs) = counted(|| {
        for step in 1..=64u64 {
            gw.tick(1_000 + step);
        }
    });
    assert_eq!(allocs, 0, "64 idle ticks over 256 SAs allocated");
    assert_eq!(gw.poll_events(), vec![], "idle ticks must not emit events");

    for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        // ---- the drain: per-batch constant, whatever the run length.
        // (a) 16-frame runs over 256 SAs; (b) singleton runs over 4 096
        // distinct SAs — every frame a different SA than the last.
        for (sas, run) in [(256u32, 16usize), (BATCH as u32, 1)] {
            let mut rx = gateway(sas, backend, NO_SAVES);
            let allocs = drain_allocs((sas, run), backend, (1, 1), |batch| {
                rx.push_wire_batch(batch).unwrap();
                rx.poll_events()
            });
            assert!(
                allocs <= PER_BATCH,
                "{backend}: {BATCH} frames in runs of {run} over {sas} SAs allocated \
                 {allocs} times (limit {PER_BATCH} per batch)"
            );
            let mut rx = sharded_gateway(sas, backend, NO_SAVES);
            let allocs = drain_allocs((sas, run), backend, (1, 1), |batch| {
                rx.push_wire_batch(batch).unwrap();
                rx.poll_events()
            });
            assert!(
                allocs <= PER_SHARDED_BATCH,
                "{backend}: 2 shards, runs of {run} over {sas} SAs allocated {allocs} \
                 times (limit {PER_SHARDED_BATCH} per batch)"
            );
        }

        // ---- the whole receive cycle at the default K: every SA issues a
        // SAVE in two batches of three and the driver completes them after
        // each batch. Owing and completing SAVEs is per-batch bookkeeping
        // in reused memory, so the constants are the drain's. Warm until
        // every SA has saved once (its store has the slot); then no batch
        // of a full issue pattern may exceed them.
        let shape = (256u32, 16usize);
        let mut rx = gateway(shape.0, backend, DEFAULT_K);
        let mut batches_that_saved = 0;
        let allocs = drain_allocs(shape, backend, (2, 6), |batch| {
            rx.push_wire_batch(batch).unwrap();
            let events = rx.poll_events();
            batches_that_saved += u32::from(rx.pending_save());
            rx.save_completed().unwrap();
            events
        });
        assert!(batches_that_saved >= 4, "the cycle must issue SAVEs");
        assert!(
            allocs <= PER_BATCH,
            "{backend}: a batch with its SAVEs issued and completed allocated {allocs} \
             times (limit {PER_BATCH} per batch)"
        );
        let mut rx = sharded_gateway(shape.0, backend, DEFAULT_K);
        let allocs = drain_allocs(shape, backend, (2, 6), |batch| {
            rx.push_wire_batch(batch).unwrap();
            let events = rx.poll_events();
            rx.save_completed().unwrap();
            events
        });
        assert!(
            allocs <= PER_SHARDED_BATCH,
            "{backend}: 2 shards, a batch with its SAVEs issued and completed allocated \
             {allocs} times (limit {PER_SHARDED_BATCH} per batch)"
        );

        // ---- single frames: push_wire allocates nothing at all once
        // warm, and protect only what it hands out (the frame's buffer
        // and its reference count).
        let (mut tx, mut rx) = (gateway(8, backend, NO_SAVES), gateway(8, backend, NO_SAVES));
        let (mut push, mut protect) = (0, 0);
        for i in 0..BATCH as u32 + 64 {
            let spi = SPI_BASE + i % 8;
            let (frame, sealed) = counted(|| tx.protect(spi, &PAYLOAD).unwrap().unwrap());
            let ((), pushed) = counted(|| rx.push_wire(&frame.wire).unwrap());
            // The consumer drops each payload before the next frame.
            let events = rx.poll_events();
            assert!(matches!(events[..], [GatewayEvent::Delivered { .. }]));
            if i >= 64 {
                push += pushed;
                protect += sealed;
            }
        }
        assert_eq!(push, 0, "{backend}: push_wire allocated per frame");
        assert!(
            protect <= 2 * BATCH as u64,
            "{backend}: protect allocated {protect} times for {BATCH} frames \
             (the frame it returns is 2)"
        );
    }
}
