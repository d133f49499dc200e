//! The engines over one shared write-ahead log.
//!
//! A [`WalStable`] stages a sweep's SAVEs — a recovery's wake-up SAVEs,
//! one `save_completed` — and writes them with one `write(2)`. That
//! changes *when* a SAVE reaches the disk inside a call, never what the
//! engine reports, so the same seeded run over `WalStable` clones and over
//! `MemStable` must emit the same events and send the same frames: on a
//! plain [`Gateway`], and on a [`ShardedGateway`] at 1 and 2 shards, whose
//! shard threads share the one log. The run has duplicates, resets of
//! every SA's both roles, the fused and the split recovery, and a
//! `save_completed` between the split's halves. Afterwards the log,
//! reopened, must serve each slot's last acknowledged value under the
//! generation it was acknowledged with, and the generations a slot was
//! acknowledged with must rise.
//!
//! On Linux the plain gateway's `recover()` and each `save_completed()`
//! that owes a SAVE must make exactly one write system call on the
//! calling thread (`/proc/thread-self/io`, `syscw`), through the
//! `Box<dyn StableStore + Send>` stores a deployment builds.
//!
//! A failed group write loses every record staged before it; then one
//! retry of the recovery's second half, or of a `save_completed`, must
//! land the whole sweep.

use std::collections::BTreeMap;
use std::fs;
use std::sync::{Arc, Mutex};

use anti_replay::Phase;
use bytes::Bytes;
use reset_ipsec::{Gateway, GatewayBuilder, GatewayEvent, ShardedGateway};
use reset_sim::DetRng;
use reset_stable::{Durability, SlotId, StableError, StableStore, WalStable};

type Store = Box<dyn StableStore + Send>;

const SAS: u32 = 16;
const MASTER: &[u8] = b"wal-differential-master";
const STEPS: usize = 60;
/// Where the fused and the split recovery strike.
const FUSED_AT: usize = 20;
const SPLIT_AT: usize = 40;

fn spis() -> impl Iterator<Item = u32> {
    (0..SAS).map(|i| 0x3100 + 7 * i)
}

/// Each slot's last acknowledged `(value, generation)`.
type AckedLog = Arc<Mutex<BTreeMap<SlotId, (u64, u64)>>>;

/// Scripted failed group writes, shared by every handle: when armed, the
/// next flush fails, and every record staged before it is lost with it.
#[derive(Default)]
struct Losses {
    fail_next: bool,
    /// Failed writes so far; a record staged under a smaller count is lost.
    failed: u64,
}

type LossLog = Arc<Mutex<Losses>>;

/// A `WalStable` handle that notes every write it acknowledged durable.
struct Acked {
    wal: WalStable,
    /// The staged record: slot, value and the failed writes before it.
    staged: Option<(SlotId, u64, u64)>,
    acked: AckedLog,
    losses: LossLog,
}

impl Acked {
    fn ack(&self, slot: SlotId, value: u64, generation: u64) {
        let mut acked = self.acked.lock().unwrap();
        if let Some(&(_, before)) = acked.get(&slot) {
            assert!(
                generation > before,
                "{slot}: generation {generation} after {before}"
            );
        }
        acked.insert(slot, (value, generation));
    }
}

impl StableStore for Acked {
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
        self.store_witnessed(slot, value).map(drop)
    }
    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
        self.wal.load(slot)
    }
    fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
        self.wal.erase(slot)
    }
    fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        let generation = self.wal.store_witnessed(slot, value)?;
        self.ack(slot, value, generation);
        Ok(generation)
    }
    fn stage_witnessed(&mut self, slot: SlotId, value: u64) -> Result<Option<u64>, StableError> {
        let staged = self.wal.stage_witnessed(slot, value)?;
        match staged {
            Some(generation) => self.ack(slot, value, generation),
            None => self.staged = Some((slot, value, self.losses.lock().unwrap().failed)),
        }
        Ok(staged)
    }
    fn flush(&mut self, slot: SlotId) -> Result<u64, StableError> {
        let staged = self.staged.take();
        let mut losses = self.losses.lock().unwrap();
        losses.failed += u64::from(std::mem::take(&mut losses.fail_next));
        if staged.is_some_and(|(_, _, before)| before < losses.failed) {
            return Err(StableError::Injected(
                "a failed group write lost the record",
            ));
        }
        drop(losses);
        let generation = self.wal.flush(slot)?;
        if let Some((slot, value, _)) = staged {
            self.ack(slot, value, generation);
        }
        Ok(generation)
    }
    fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        self.wal.load_witnessed(slot)
    }
}

/// The write system calls this thread has made, where the kernel says.
fn syscw() -> Option<u64> {
    let io = fs::read_to_string("/proc/thread-self/io").ok()?;
    let line = io.lines().find_map(|l| l.strip_prefix("syscw:"))?;
    line.trim().parse().ok()
}

/// The verbs the run drives, on either engine.
trait Engine {
    fn protect(&mut self, spi: u32, payload: &[u8]) -> Option<Bytes>;
    fn push(&mut self, wires: &[Bytes]);
    fn poll(&mut self) -> Vec<GatewayEvent>;
    fn owes_save(&self) -> bool;
    fn save(&mut self);
    fn reset(&mut self);
    fn recover(&mut self);
    fn begin(&mut self);
    fn finish(&mut self);
    fn try_finish(&mut self) -> bool;
    fn try_save(&mut self) -> bool;
    fn phase(&self, spi: u32) -> Option<Phase>;
}

macro_rules! engine {
    ($engine:ident) => {
        impl<S: StableStore + Send + 'static> Engine for $engine<S> {
            fn protect(&mut self, spi: u32, payload: &[u8]) -> Option<Bytes> {
                $engine::protect(self, spi, payload)
                    .unwrap()
                    .map(|f| f.wire)
            }
            fn push(&mut self, wires: &[Bytes]) {
                self.push_wire_batch(wires).unwrap();
            }
            fn poll(&mut self) -> Vec<GatewayEvent> {
                self.poll_events()
            }
            fn owes_save(&self) -> bool {
                self.pending_save()
            }
            fn save(&mut self) {
                self.save_completed().unwrap();
            }
            fn reset(&mut self) {
                $engine::reset(self);
            }
            fn recover(&mut self) {
                $engine::recover(self).unwrap();
            }
            fn begin(&mut self) {
                self.begin_recover().unwrap();
            }
            fn finish(&mut self) {
                self.finish_recover().unwrap();
            }
            fn try_finish(&mut self) -> bool {
                self.finish_recover().is_ok()
            }
            fn try_save(&mut self) -> bool {
                self.save_completed().is_ok()
            }
            fn phase(&self, spi: u32) -> Option<Phase> {
                $engine::phase(self, spi)
            }
        }
    };
}
engine!(Gateway);
engine!(ShardedGateway);

/// What a run shows: every event and every frame the engine sent.
#[derive(Debug, PartialEq)]
struct Run {
    events: Vec<GatewayEvent>,
    sent: Vec<Bytes>,
}

/// Runs `f`; with `count`, asserts it made exactly one write system call
/// on this thread, and counts the check.
fn one_write<E>(count: bool, checked: &mut usize, engine: &mut E, what: &str, f: fn(&mut E)) {
    let before = if count { syscw() } else { None };
    f(engine);
    if let Some(before) = before {
        let writes = syscw().expect("read before") - before;
        assert_eq!(writes, 1, "{what}: one sweep, one write(2)");
        *checked += 1;
    }
}

/// The seeded run. A peer gateway over in-memory stores is the other end
/// of every SA; it seals what the engine receives, fresh and replayed,
/// and receives what the engine seals.
fn drive<E: Engine>(engine: &mut E, count_writes: bool) -> (Run, usize) {
    let mut peer = GatewayBuilder::in_memory()
        .save_interval(8)
        .window(64)
        .build();
    for spi in spis() {
        peer.add_peer(spi, MASTER);
    }
    let spis: Vec<u32> = spis().collect();
    let mut rng = DetRng::new(0x3A1_D1FF);
    let mut history: Vec<Bytes> = Vec::new();
    let mut run = Run {
        events: Vec::new(),
        sent: Vec::new(),
    };
    let mut checked = 0;
    let batch = |rng: &mut DetRng, peer: &mut Gateway<_>, history: &mut Vec<Bytes>| {
        let mut wires = Vec::new();
        for _ in 0..rng.range_inclusive(1, 24) {
            let spi = *rng.pick(&spis);
            let wire = peer.protect(spi, b"to the engine").unwrap().unwrap().wire;
            history.push(wire.clone());
            wires.push(wire);
        }
        for _ in 0..rng.below(4) {
            wires.push(history[rng.below(history.len() as u64) as usize].clone());
        }
        wires
    };
    for step in 0..STEPS {
        if step == FUSED_AT {
            engine.reset();
            one_write(count_writes, &mut checked, engine, "recover", E::recover);
        }
        let wires = batch(&mut rng, &mut peer, &mut history);
        if step == SPLIT_AT {
            // The frames of a split recovery's wake-up are buffered; a
            // completion between the halves lands the wake-up SAVEs.
            engine.reset();
            engine.begin();
            engine.push(&wires);
            one_write(
                count_writes,
                &mut checked,
                engine,
                "save_completed",
                E::save,
            );
            engine.finish();
        } else {
            engine.push(&wires);
        }
        for _ in 0..rng.below(8) {
            let spi = *rng.pick(&spis);
            if let Some(wire) = engine.protect(spi, b"to the peer") {
                peer.push_wire(&wire).unwrap();
                run.sent.push(wire);
            }
        }
        if rng.chance(0.3) && engine.owes_save() {
            one_write(
                count_writes,
                &mut checked,
                engine,
                "save_completed",
                E::save,
            );
        }
        run.events.extend(engine.poll());
        peer.poll_events();
    }
    if engine.owes_save() {
        engine.save();
    }
    (run, checked)
}

fn wal_builder(wal: &WalStable, acked: &AckedLog, losses: &LossLog) -> GatewayBuilder<Store> {
    let (wal, acked, losses) = (wal.clone(), Arc::clone(acked), Arc::clone(losses));
    GatewayBuilder::with_stores(move |_, _| {
        Box::new(Acked {
            wal: wal.clone(),
            staged: None,
            acked: Arc::clone(&acked),
            losses: Arc::clone(&losses),
        }) as Store
    })
    .save_interval(8)
    .window(64)
}

fn install<E: Engine>(engine: &mut E, add_peer: fn(&mut E, u32, &[u8])) {
    for spi in spis() {
        add_peer(engine, spi, MASTER);
    }
}

/// The reopened log serves every slot's last acknowledged value, under
/// its generation.
fn reopen_serves_the_acked_values(path: &std::path::Path, acked: &AckedLog, what: &str) {
    let acked = acked.lock().unwrap();
    assert_eq!(acked.len(), 2 * SAS as usize, "{what}: every slot saved");
    let reopened = WalStable::open(path, Durability::ProcessCrash).unwrap();
    for (&slot, &served) in acked.iter() {
        assert_eq!(
            reopened.load_witnessed(slot).unwrap(),
            Some(served),
            "{what}: {slot}"
        );
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("it-wal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir.join("fleet.wal")
}

#[test]
fn a_wal_backed_gateway_reports_what_an_in_memory_one_does() {
    let mut mem = GatewayBuilder::in_memory()
        .save_interval(8)
        .window(64)
        .build();
    install(&mut mem, Gateway::add_peer);
    let (expected, _) = drive(&mut mem, false);
    let count =
        |class: fn(&GatewayEvent) -> bool| expected.events.iter().filter(|e| class(e)).count();
    assert_eq!(count(|e| matches!(e, GatewayEvent::Recovered { .. })), 2);
    assert!(count(|e| matches!(e, GatewayEvent::Buffered { .. })) > 0);
    assert!(count(|e| matches!(e, GatewayEvent::ReplayDropped { .. })) > 0);
    assert!(count(|e| matches!(e, GatewayEvent::Delivered { .. })) > 100);

    let path = scratch("gateway");
    let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
    let acked = AckedLog::default();
    let mut gw = wal_builder(&wal, &acked, &LossLog::default()).build();
    install(&mut gw, Gateway::add_peer);
    let (got, checked) = drive(&mut gw, syscw().is_some());
    assert_eq!(
        got, expected,
        "the WAL changes when a SAVE lands, not what is reported"
    );
    if syscw().is_some() {
        assert!(
            checked >= 4,
            "only {checked} sweeps had their writes counted"
        );
    } else {
        eprintln!("no /proc/thread-self/io: write-call counts not checked");
    }

    reopen_serves_the_acked_values(&path, &acked, "gateway");
    // And what was acknowledged is what the in-memory twin holds.
    for (&slot, &(value, _)) in acked.lock().unwrap().iter() {
        let spi = slot.spi();
        let store = if slot.is_receiver() {
            mem.sadb().inbound(spi).unwrap().seq_state().store()
        } else {
            mem.sadb().outbound(spi).unwrap().seq_state().store()
        };
        assert_eq!(store.load(slot).unwrap(), Some(value), "{slot}");
    }
    let _ = fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn a_wal_backed_pool_reports_what_an_in_memory_one_does() {
    for shards in [1, 2] {
        let mut mem = GatewayBuilder::in_memory_sharded(shards)
            .save_interval(8)
            .window(64)
            .build_sharded();
        install(&mut mem, ShardedGateway::add_peer);
        let (expected, _) = drive(&mut mem, false);

        let path = scratch(&format!("pool-{shards}"));
        let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        let acked = AckedLog::default();
        let mut pool = wal_builder(&wal, &acked, &LossLog::default())
            .shards(shards)
            .build_sharded();
        install(&mut pool, ShardedGateway::add_peer);
        let (got, _) = drive(&mut pool, false);
        assert_eq!(got, expected, "{shards} shards over one log");
        drop(pool);
        reopen_serves_the_acked_values(&path, &acked, &format!("{shards} shards"));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}

/// Drives `engine` until it owes SAVEs in both roles of every SA: each
/// SA sends and receives more than one save interval's frames.
fn owe_saves<E: Engine>(engine: &mut E, peer: &mut Gateway<reset_stable::MemStable>) {
    for _ in 0..9 {
        let wires: Vec<Bytes> = spis()
            .map(|spi| peer.protect(spi, b"in").unwrap().unwrap().wire)
            .collect();
        engine.push(&wires);
        for spi in spis() {
            let wire = engine.protect(spi, b"out").expect("running");
            peer.push_wire(&wire).unwrap();
        }
    }
    engine.poll();
    peer.poll_events();
}

/// Fails the next group write: `f` must fail once and land on one retry.
fn one_retry<E: Engine>(engine: &mut E, losses: &LossLog, what: &str, f: fn(&mut E) -> bool) {
    losses.lock().unwrap().fail_next = true;
    assert!(!f(engine), "{what}: the failed write is reported");
    assert!(f(engine), "{what}: one retry lands the whole sweep");
}

fn a_failed_group_write_costs_one_retry<E: Engine>(engine: &mut E, losses: &LossLog) {
    let mut peer = GatewayBuilder::in_memory()
        .save_interval(8)
        .window(64)
        .build();
    install(&mut peer, Gateway::add_peer);
    owe_saves(engine, &mut peer);
    engine.save();
    engine.reset();
    engine.begin();
    one_retry(engine, losses, "finish_recover", E::try_finish);
    for spi in spis() {
        assert_eq!(engine.phase(spi), Some(Phase::Running), "{spi:#x} woke");
    }
    owe_saves(engine, &mut peer);
    assert!(engine.owes_save());
    one_retry(engine, losses, "save_completed", E::try_save);
    assert!(!engine.owes_save(), "every SAVE landed");
}

#[test]
fn one_retry_lands_a_sweep_whose_group_write_failed() {
    let path = scratch("retry-gateway");
    let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
    let (acked, losses) = (AckedLog::default(), LossLog::default());
    let mut gw = wal_builder(&wal, &acked, &losses).build();
    install(&mut gw, Gateway::add_peer);
    a_failed_group_write_costs_one_retry(&mut gw, &losses);
    reopen_serves_the_acked_values(&path, &acked, "gateway retry");
    let _ = fs::remove_dir_all(path.parent().unwrap());

    let path = scratch("retry-pool");
    let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
    let (acked, losses) = (AckedLog::default(), LossLog::default());
    let mut pool = wal_builder(&wal, &acked, &losses).shards(2).build_sharded();
    install(&mut pool, ShardedGateway::add_peer);
    a_failed_group_write_costs_one_retry(&mut pool, &losses);
    drop(pool);
    reopen_serves_the_acked_values(&path, &acked, "pool retry");
    let _ = fs::remove_dir_all(path.parent().unwrap());
}
