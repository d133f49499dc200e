//! Same-run cost ratios: three contracts no end-to-end metric can hold.
//!
//! The benchmark of record (`BENCHMARK.json`) compares a change against
//! its parent, workload by workload. These claims compare two
//! configurations of *one* build inside one process instead, so they
//! hold on any host whatever its absolute speed:
//!
//! * **Observability is nearly free.** A gateway drain with a
//!   [`Telemetry`] handle attached costs at most [`TELEMETRY_CEILING`]×
//!   the bare drain (measured ~1.05×): every recording site is one
//!   `Option` branch and a relaxed atomic add.
//! * **The shared WAL is why it exists.** A fleet-wide SAVE round — one
//!   SAVE for each of 1 024 slots — is at least [`WAL_FLOOR`]× cheaper on
//!   a [`WalStable`] (one append to an open file per SAVE) than on a
//!   [`FileStable`] (create + write + rename per SAVE); about 300× has
//!   been observed. Both run at `Durability::ProcessCrash`, the paper's
//!   reset model: `PowerLoss` adds an fsync to either and does not change
//!   which is cheaper.
//! * **A sweep is one write.** [`SWEEP`] SAVEs staged on a `WalStable`
//!   and flushed once are at least [`STAGED_FLOOR`]× cheaper than the
//!   same SAVEs one `store_witnessed` (one `write(2)`) each; 10–20× has
//!   been measured.
//!
//! Each side is sampled several times, interleaved with the other, and
//! the minima are compared: the minimum is the run the scheduler and the
//! page cache disturbed least, on both sides alike. Everything lives in
//! **one** `#[test]`: the harness runs a binary's tests on parallel
//! threads, and a second test would be timed against the first.

use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::Bytes;
use reset_ipsec::{Gateway, GatewayBuilder, GatewayEvent};
use reset_stable::{Durability, FileStable, MemStable, SlotId, StableStore, WalStable};
use reset_telemetry::Telemetry;

/// How much an attached [`Telemetry`] may add to the drain.
const TELEMETRY_CEILING: f64 = 1.5;
/// How much cheaper the shared WAL's SAVE round must be than
/// file-per-slot's.
const WAL_FLOOR: f64 = 5.0;
/// How much cheaper a sweep's staged SAVEs and one flush must be than
/// its SAVEs written one by one.
const STAGED_FLOOR: f64 = 4.0;

/// The drain: 512 frames of 64 B over 8 SAs, in bursts of 16 per SA as a
/// NIC RSS queue delivers them.
const QUEUE: usize = 512;
const SAS: u32 = 8;
/// Interleaved drain samples per side.
const DRAIN_SAMPLES: usize = 21;

/// The SAVE round: one SAVE per slot.
const SLOTS: u64 = 1024;
/// Interleaved SAVE rounds per backend (file-per-slot rounds are slow).
const SAVE_ROUNDS: u64 = 5;

/// The sweep: one SAVE per slot, staged or written one by one.
const SWEEP: u64 = 512;
/// Interleaved sweep samples per side.
const SWEEP_SAMPLES: u64 = 11;

/// A gateway over `SAS` SAs, with or without `telemetry`.
fn gateway(telemetry: Option<&Telemetry>) -> Gateway<MemStable> {
    let mut builder = GatewayBuilder::in_memory()
        .save_interval(1 << 40)
        .window(1024);
    if let Some(t) = telemetry {
        builder = builder.telemetry(t.clone());
    }
    let mut gw = builder.build();
    for spi in 1..=SAS {
        gw.add_peer(spi, b"cost-ratio-master");
    }
    gw
}

/// Times one `push_wire_batch` + `poll_events` of `queue` on `gw`.
/// Building the gateway and dropping it and its events stay off the
/// clock.
fn time_drain(mut gw: Gateway<MemStable>, queue: &[Bytes]) -> Duration {
    let start = Instant::now();
    gw.push_wire_batch(queue).unwrap();
    let events = black_box(gw.poll_events());
    let elapsed = start.elapsed();
    assert_eq!(events.len(), QUEUE);
    assert!(events
        .iter()
        .all(|e| matches!(e, GatewayEvent::Delivered { .. })));
    elapsed
}

/// Times one SAVE of every slot, round `round`.
fn time_save_round(store: &mut impl StableStore, round: u64) -> Duration {
    let start = Instant::now();
    for slot in 0..SLOTS {
        store
            .store(SlotId::raw(slot), round * SLOTS + slot)
            .expect("SAVE");
    }
    start.elapsed()
}

/// Times one sweep over [`SWEEP`] slots, round `round`: every SAVE
/// staged and one flush, or every SAVE written by itself.
fn time_sweep(wal: &mut WalStable, round: u64, staged: bool) -> Duration {
    let start = Instant::now();
    for slot in 0..SWEEP {
        let (slot, value) = (SlotId::raw(slot), round * SWEEP + slot);
        if staged {
            wal.stage_witnessed(slot, value).expect("stage");
        } else {
            wal.store_witnessed(slot, value).expect("SAVE");
        }
    }
    if staged {
        wal.flush(SlotId::raw(SWEEP - 1)).expect("flush");
    }
    start.elapsed()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("it-cost-ratios-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn telemetry_and_the_wal_keep_their_cost_ratios() {
    // ---- telemetry on vs off, one handle for every attached sample:
    // attaching is a lifecycle cost, recording is the hot path.
    let mut tx = gateway(None);
    let queue: Vec<Bytes> = (0..QUEUE)
        .map(|i| {
            let spi = 1 + (i as u32 / 16) % SAS;
            tx.protect(spi, &[0xE1u8; 64]).unwrap().unwrap().wire
        })
        .collect();
    let telemetry = Telemetry::new();
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for _ in 0..DRAIN_SAMPLES {
        off = off.min(time_drain(gateway(None), &queue));
        on = on.min(time_drain(gateway(Some(&telemetry)), &queue));
    }
    let ratio = on.as_secs_f64() / off.as_secs_f64();
    eprintln!("drain of {QUEUE} frames: telemetry off {off:?}, on {on:?} ({ratio:.2}x)");
    assert!(
        ratio <= TELEMETRY_CEILING,
        "a telemetry-attached drain took {on:?}, {ratio:.2}x the bare drain's {off:?} \
         (ceiling {TELEMETRY_CEILING}x)"
    );

    // ---- a fleet-wide SAVE round: file-per-slot vs the shared WAL.
    let (file_dir, wal_dir) = (scratch_dir("file"), scratch_dir("wal"));
    let mut files = FileStable::open(&file_dir, Durability::ProcessCrash).expect("open file store");
    let mut wal =
        WalStable::open(wal_dir.join("fleet.wal"), Durability::ProcessCrash).expect("open wal");
    let (mut file_round, mut wal_round) = (Duration::MAX, Duration::MAX);
    for round in 1..=SAVE_ROUNDS {
        file_round = file_round.min(time_save_round(&mut files, round));
        wal_round = wal_round.min(time_save_round(&mut wal, round));
    }
    drop((files, wal));
    let _ = fs::remove_dir_all(&file_dir);
    let _ = fs::remove_dir_all(&wal_dir);
    let ratio = file_round.as_secs_f64() / wal_round.as_secs_f64();
    eprintln!(
        "SAVE round over {SLOTS} slots: file-per-slot {file_round:?}, WAL {wal_round:?} \
         ({ratio:.1}x)"
    );
    assert!(
        ratio >= WAL_FLOOR,
        "a WAL SAVE round took {wal_round:?}, only {ratio:.1}x cheaper than file-per-slot's \
         {file_round:?} (floor {WAL_FLOOR}x)"
    );

    // ---- a sweep of SAVEs on the WAL: staged and flushed once, vs one
    // write each.
    let sweep_dir = scratch_dir("sweep");
    let mut wal =
        WalStable::open(sweep_dir.join("sweep.wal"), Durability::ProcessCrash).expect("open wal");
    let (mut one_by_one, mut staged) = (Duration::MAX, Duration::MAX);
    for round in 1..=SWEEP_SAMPLES {
        one_by_one = one_by_one.min(time_sweep(&mut wal, 2 * round, false));
        staged = staged.min(time_sweep(&mut wal, 2 * round + 1, true));
    }
    drop(wal);
    let _ = fs::remove_dir_all(&sweep_dir);
    let ratio = one_by_one.as_secs_f64() / staged.as_secs_f64();
    eprintln!(
        "sweep of {SWEEP} WAL SAVEs: one write each {one_by_one:?}, staged + one flush \
         {staged:?} ({ratio:.1}x)"
    );
    assert!(
        ratio >= STAGED_FLOOR,
        "a staged sweep took {staged:?}, only {ratio:.1}x cheaper than {SWEEP} single writes' \
         {one_by_one:?} (floor {STAGED_FLOOR}x)"
    );
}
