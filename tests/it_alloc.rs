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
//! every batch; a drain whose arena is still pinned by held payloads
//! allocates one fresh arena more (and the auth-only suite, whose payloads
//! are slices of their frames, pins no arena and allocates exactly its
//! event vector); a single-frame `push_wire` allocates
//! nothing and `protect` exactly the one buffer it returns; the machine
//! and its driver allocate nothing per message, nor to complete a
//! witnessed SAVE or a wake-up; an idle `tick` allocates nothing, and
//! installing an SA pair nothing but its share of the fleet's growth.
//! The datapath counts hold on every crypto backend, for the default
//! suite and for the HMAC auth-only one.
//!
//! A counting `#[global_allocator]` sees every thread (the sharded drain
//! allocates on its workers), so everything lives in **one** `#[test]`:
//! with a second test in the binary, the harness's other threads would
//! bleed into the armed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use anti_replay::{SeqNum, SfDriver, SfEvent, SfMachine};
use bytes::{Bytes, BytesMut};
use reset_ipsec::{
    Backend, CryptoSuite, DpdConfig, Gateway, GatewayBuilder, GatewayEvent, SaKeys, SaLifetime,
    SecurityAssociation, ShardedGateway,
};
use reset_stable::{MemStable, SlotId, StableError, StableStore};

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

/// A one-slot store that witnesses a generation per write, as a WAL
/// does, and allocates nothing.
#[derive(Debug, Default)]
struct GenStore {
    value: Option<u64>,
    generation: u64,
}

impl StableStore for GenStore {
    fn store(&mut self, _: SlotId, value: u64) -> Result<(), StableError> {
        self.store_witnessed(SlotId::raw(0), value).map(drop)
    }
    fn load(&self, _: SlotId) -> Result<Option<u64>, StableError> {
        Ok(self.value)
    }
    fn erase(&mut self, _: SlotId) -> Result<(), StableError> {
        self.value = None;
        Ok(())
    }
    fn store_witnessed(&mut self, _: SlotId, value: u64) -> Result<u64, StableError> {
        self.value = Some(value);
        self.generation += 1;
        Ok(self.generation)
    }
    fn load_witnessed(&self, _: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        Ok(self.value.map(|v| (v, self.generation)))
    }
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
/// What a plain gateway's drain allocates per batch, exactly, when every
/// payload is a slice of its frame (the auth-only suite): the event
/// vector. No arena is reserved, reclaimed or pinned.
const ZERO_COPY_BATCH: u64 = 1;
/// The same through a 2-shard pool, exactly, for runs of 16 over 256 SAs
/// and for singleton runs over 4 096: the fan-out adds the shared
/// `Arc<[Bytes]>`, one route vector per shard reserved for the whole
/// batch, and per job its box, its reply slot and its shard's event
/// vector. While the route vectors grew by doubling the counts were 30
/// and 31; before the reply was a one-slot `Mutex` and `Condvar` it was
/// a fresh channel per job, which allocated once more when the waiter
/// had to block: 33–35, a function of thread timing.
const SHARDED_BATCH: [u64; 2] = [12, 12];
/// The 2-shard cycle at the default `K` with a `save_completed` (one
/// more job per shard), exactly (36 with growing route vectors, 42–44
/// with the reply channel).
const SHARDED_SAVE_CYCLE: u64 = 18;

/// The transform a fleet runs: its suite, and the crypto backend forced
/// on it.
type Crypto = (CryptoSuite, Backend);

/// Whether a plain gateway's per-batch count is the suite's: exactly
/// [`ZERO_COPY_BATCH`] without a copy, at most [`PER_BATCH`] through the
/// decryption arena.
fn plain_batch_ok(suite: CryptoSuite, allocs: u64) -> bool {
    match suite {
        CryptoSuite::HmacSha256AuthOnly => allocs == ZERO_COPY_BATCH,
        CryptoSuite::ChaCha20Poly1305 => allocs <= PER_BATCH,
    }
}

fn sa(spi: u32, (suite, backend): Crypto) -> SecurityAssociation {
    let keys = SaKeys::derive(b"it-alloc", &spi.to_be_bytes());
    SecurityAssociation::new(spi, keys)
        .with_suite(suite)
        .with_backend(backend)
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

/// A plain gateway over `sas` SA pairs, DPD off.
fn gateway(sas: u32, crypto: Crypto, k: u64) -> Gateway<MemStable> {
    let mut gw = GatewayBuilder::in_memory().save_interval(k).build();
    for spi in SPI_BASE..SPI_BASE + sas {
        gw.install_pair(sa(spi, crypto));
    }
    gw
}

/// The same fleet behind a 2-shard pool.
fn sharded_gateway(sas: u32, crypto: Crypto, k: u64) -> ShardedGateway<MemStable> {
    let mut gw = GatewayBuilder::in_memory()
        .save_interval(k)
        .shards(2)
        .build_sharded();
    for spi in SPI_BASE..SPI_BASE + sas {
        gw.install_pair(sa(spi, crypto));
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
    crypto: Crypto,
    (warm_up, measured): (usize, usize),
    mut drain: impl FnMut(&[Bytes]) -> Vec<GatewayEvent>,
) -> u64 {
    let mut tx = gateway(sas, crypto, NO_SAVES);
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
    // ... a buffer is one allocation, bytes and counts together, and
    // `freeze` hands it on ...
    let (copied, allocs) = counted(|| Bytes::copy_from_slice(&PAYLOAD));
    assert_eq!(allocs, 1, "Bytes::copy_from_slice");
    let vec = PAYLOAD.to_vec();
    let (converted, allocs) = counted(|| Bytes::from(vec));
    assert_eq!(allocs, 1, "Bytes::from(Vec)");
    assert_eq!(copied, converted);
    let mut filled = BytesMut::with_capacity(256);
    filled.extend_from_slice(&PAYLOAD);
    let (frozen, allocs) = counted(|| filled.freeze());
    assert_eq!(allocs, 0, "BytesMut::freeze");
    // ... and a recycled one is that allocation again.
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
    let mut tx = SfDriver::sender(MemStable::new(), SlotId::sender(1), 5);
    let mut rx = SfDriver::receiver(MemStable::new(), SlotId::receiver(1), 5, 64);
    let ((), allocs) = counted(|| {
        for s in 1..=100u64 {
            assert_eq!(p.step(SfEvent::Send).len(), 1 + usize::from(s % 5 == 0));
            let fx = q.step(SfEvent::Receive(SeqNum::new(s)));
            assert_eq!(fx.len(), 1 + usize::from(s % 5 == 0));
            let seq = tx.send_next().expect("running");
            assert!(rx.receive(seq).is_delivered());
            assert!(!rx.receive(seq).is_delivered());
        }
    });
    assert_eq!(allocs, 0, "SfMachine::step / send_next / receive allocated");

    // ---- ... nor does completing a SAVE the store witnesses (the
    // rollback witness is one generation per driver, not a map), nor a
    // wake-up (the receiver rebuilds its window in place).
    let mut tx = SfDriver::sender(GenStore::default(), SlotId::sender(1), 5);
    let mut rx = SfDriver::receiver(GenStore::default(), SlotId::receiver(1), 5, 64);
    for s in 1..=5u64 {
        tx.send_next().expect("running");
        assert!(rx.receive(SeqNum::new(s)).is_delivered());
    }
    let ((), allocs) = counted(|| {
        assert_eq!(tx.save_completed().unwrap(), Some(6));
        assert_eq!(rx.save_completed().unwrap(), Some(5));
        tx.reset();
        rx.reset();
        assert_eq!(tx.wake_up().unwrap().resumed, SeqNum::new(16));
        assert_eq!(rx.wake_up().unwrap().resumed, SeqNum::new(15));
    });
    assert_eq!(allocs, 0, "a witnessed SAVE or a wake-up allocated");
    assert_eq!((tx.store().generation, rx.store().generation), (2, 2));

    // ---- the control plane: an idle tick only compares `now` against
    // the earliest DPD deadline in the heap, even on a fleet with live
    // DPD detectors, scheduled deadlines and a rekey policy.
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
    // The first tick arms every detector and fills the deadline heap:
    // it may allocate.
    gw.tick(1_000);
    gw.poll_events();
    let ((), allocs) = counted(|| {
        for step in 1..=64u64 {
            gw.tick(1_000 + step);
        }
    });
    assert_eq!(allocs, 0, "64 idle ticks over 256 SAs allocated");
    assert_eq!(gw.poll_events(), vec![], "idle ticks must not emit events");

    // ---- installing an SA pair allocates nothing per pair: the keys
    // derive into the stack and the window's words are inline. What is
    // left is the slab's and the index's growth, amortized over the
    // fleet: 1 024 installs after 2 048.
    let mut gw = GatewayBuilder::in_memory().build();
    for spi in 1..=2048u32 {
        gw.add_peer(spi, b"alloc-install-master");
    }
    let ((), allocs) = counted(|| {
        for spi in 2049..=3072u32 {
            gw.add_peer(spi, b"alloc-install-master");
        }
    });
    let per_pair = allocs as f64 / 1024.0;
    assert!(
        per_pair <= 0.01,
        "add_peer allocated {per_pair:.2} times per SA pair ({allocs} for 1 024)"
    );

    // Every backend, for the default suite and the auth-only one.
    for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        for suite in [CryptoSuite::default(), CryptoSuite::HmacSha256AuthOnly] {
            let crypto = (suite, backend);
            // ---- the drain: per-batch constant, whatever the run length.
            // (a) 16-frame runs over 256 SAs; (b) singleton runs over 4 096
            // distinct SAs — every frame a different SA than the last.
            for ((sas, run), sharded) in [(256u32, 16usize), (BATCH as u32, 1)]
                .into_iter()
                .zip(SHARDED_BATCH)
            {
                let mut rx = gateway(sas, crypto, NO_SAVES);
                let allocs = drain_allocs((sas, run), crypto, (1, 1), |batch| {
                    rx.push_wire_batch(batch).unwrap();
                    rx.poll_events()
                });
                assert!(
                    plain_batch_ok(suite, allocs),
                    "{suite:?} on {backend}: {BATCH} frames in runs of {run} over {sas} SAs \
                     allocated {allocs} times (limit {PER_BATCH} per batch, exactly \
                     {ZERO_COPY_BATCH} zero-copy)"
                );
                let mut rx = sharded_gateway(sas, crypto, NO_SAVES);
                let allocs = drain_allocs((sas, run), crypto, (1, 1), |batch| {
                    rx.push_wire_batch(batch).unwrap();
                    rx.poll_events()
                });
                assert_eq!(
                    allocs, sharded,
                    "{suite:?} on {backend}: 2 shards, runs of {run} over {sas} SAs allocated \
                     {allocs} times a batch"
                );
            }

            // ---- the whole receive cycle at the default K: every SA issues a
            // SAVE in two batches of three and the driver completes them after
            // each batch. Owing and completing SAVEs is per-batch bookkeeping
            // in reused memory, so the constants are the drain's. Warm until
            // every SA has saved once (its store has the slot); then no batch
            // of a full issue pattern may exceed them.
            let shape = (256u32, 16usize);
            let mut rx = gateway(shape.0, crypto, DEFAULT_K);
            let mut batches_that_saved = 0;
            let allocs = drain_allocs(shape, crypto, (2, 6), |batch| {
                rx.push_wire_batch(batch).unwrap();
                let events = rx.poll_events();
                batches_that_saved += u32::from(rx.pending_save());
                rx.save_completed().unwrap();
                events
            });
            assert!(batches_that_saved >= 4, "the cycle must issue SAVEs");
            assert!(
                plain_batch_ok(suite, allocs),
                "{suite:?} on {backend}: a batch with its SAVEs issued and completed \
                 allocated {allocs} times (limit {PER_BATCH} per batch, exactly \
                 {ZERO_COPY_BATCH} zero-copy)"
            );
            let mut rx = sharded_gateway(shape.0, crypto, DEFAULT_K);
            let allocs = drain_allocs(shape, crypto, (2, 6), |batch| {
                rx.push_wire_batch(batch).unwrap();
                let events = rx.poll_events();
                rx.save_completed().unwrap();
                events
            });
            assert_eq!(
                allocs, SHARDED_SAVE_CYCLE,
                "{suite:?} on {backend}: 2 shards, a batch with its SAVEs issued and \
                 completed allocated {allocs} times"
            );

            // ---- a drain whose previous payloads are still held cannot
            // reclaim its arena: it allocates one fresh one, its bytes and
            // counts in a single allocation, on top of a free drain's count.
            // A zero-copy payload holds its frame, not an arena.
            let fresh_arenas = match suite {
                CryptoSuite::HmacSha256AuthOnly => 0,
                CryptoSuite::ChaCha20Poly1305 => 1,
            };
            let shape = (256u32, 16usize);
            let mut tx = gateway(shape.0, crypto, NO_SAVES);
            let mut rx = gateway(shape.0, crypto, NO_SAVES);
            let mut drain = |batch: &[Bytes]| {
                rx.push_wire_batch(batch).unwrap();
                rx.poll_events()
            };
            let events = drain(&seal_batch(&mut tx, shape.0, shape.1));
            assert_all_delivered(&events, "warm-up");
            let batch = seal_batch(&mut tx, shape.0, shape.1);
            let (held, pinned) = counted(|| drain(&batch));
            assert_all_delivered(&held, "pinned batch");
            drop(events);
            drop(held);
            let batch = seal_batch(&mut tx, shape.0, shape.1);
            let (events, free) = counted(|| drain(&batch));
            assert_all_delivered(&events, "free batch");
            assert_eq!(
                pinned,
                free + fresh_arenas,
                "{suite:?} on {backend}: a drain behind held payloads must allocate exactly \
                 {fresh_arenas} fresh arena(s)"
            );

            // ---- single frames: push_wire allocates nothing at all once
            // warm, and protect only what it hands out: the frame's one
            // buffer, bytes and reference counts together.
            let (mut tx, mut rx) = (gateway(8, crypto, NO_SAVES), gateway(8, crypto, NO_SAVES));
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
            assert_eq!(
                push, 0,
                "{suite:?} on {backend}: push_wire allocated per frame"
            );
            assert_eq!(
                protect, BATCH as u64,
                "{suite:?} on {backend}: protect allocated {protect} times for {BATCH} frames \
                 (the frame it returns is 1)"
            );
        }
    }
}
