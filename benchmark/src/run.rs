//! One engine pair under one workload: setup, the batch cycle, resets.
//!
//! A batch is three separate phases — the untimed generator, the timed
//! calls into the gateways, the oracle — driven closed-loop from the
//! caller's thread, in process: no sockets, no link.

use std::error::Error;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::Bytes;
use reset_ipsec::{DpdConfig, Gateway, GatewayBuilder, GatewayEvent, IpsecError, ShardedGateway};
use reset_stable::{Durability, MemStable, StableError, StableStore, WalStable};

use crate::alloc;
use crate::oracle::{Oracle, Verdict, AUTH_FAILED, BUFFERED, DROPPED_DOWN, UNKNOWN_SA};
use crate::trace;
use crate::trace::Twins;
use crate::workload::{
    Batch, Expect, Generator, Pick, Plan, Sent, Spec, StoreKind, BATCH, MASTER, SPI_BASE, WINDOW,
};

/// The benchmark's error type: any `Err` from a timed call aborts the
/// run with a non-zero exit.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// Every SA's store: `MemStable` or a `WalStable` handle.
pub type Store = Box<dyn StableStore + Send>;
/// The plain engine.
pub type Plain = Gateway<Store>;

/// Virtual nanoseconds `tick` advances per batch. Small enough that no
/// DPD deadline (10 s idle) comes due within a run, so `tick` measures
/// a populated wheel with nothing to expire.
pub const TICK_STEP_NS: u64 = 100_000;

/// The verbs the benchmark drives on a receiver, plain or sharded.
pub trait Engine {
    /// `add_peer`.
    fn add_peer(&mut self, spi: u32, master: &[u8]);
    /// `push_wire_batch`.
    fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError>;
    /// `poll_events`.
    fn poll_events(&mut self) -> Vec<GatewayEvent>;
    /// `save_completed`.
    fn save_completed(&mut self) -> Result<(), StableError>;
    /// `pending_save`.
    fn pending_save(&self) -> bool;
    /// `tick`.
    fn tick(&mut self, now_ns: u64);
    /// `reset`.
    fn reset(&mut self);
    /// `recover`.
    fn recover(&mut self) -> Result<usize, IpsecError>;
}

macro_rules! impl_engine {
    ($engine:ident) => {
        impl Engine for $engine<Store> {
            fn add_peer(&mut self, spi: u32, master: &[u8]) {
                $engine::add_peer(self, spi, master)
            }
            fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError> {
                $engine::push_wire_batch(self, wires)
            }
            fn poll_events(&mut self) -> Vec<GatewayEvent> {
                $engine::poll_events(self)
            }
            fn save_completed(&mut self) -> Result<(), StableError> {
                $engine::save_completed(self)
            }
            fn pending_save(&self) -> bool {
                $engine::pending_save(self)
            }
            fn tick(&mut self, now_ns: u64) {
                $engine::tick(self, now_ns)
            }
            fn reset(&mut self) {
                $engine::reset(self)
            }
            fn recover(&mut self) -> Result<usize, IpsecError> {
                $engine::recover(self)
            }
        }
    };
}
impl_engine!(Gateway);
impl_engine!(ShardedGateway);

/// The benchmark's scratch directory, `benchmark/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Store factory for one engine set. WAL files live in a fresh
/// directory under `benchmark/out`, removed on drop.
#[derive(Debug)]
pub struct Stores {
    dir: Option<PathBuf>,
}

impl Stores {
    /// Stores of `kind`; `tag` names the WAL directory.
    pub fn new(kind: StoreKind, tag: &str) -> Res<Stores> {
        let dir = match kind {
            StoreKind::Mem => None,
            StoreKind::Wal => {
                let dir = out_dir().join(format!("wal-{}-{tag}", std::process::id()));
                // A stale directory of a killed run with a recycled pid
                // would replay old records into the new fleet.
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir)?;
                Some(dir)
            }
        };
        Ok(Stores { dir })
    }

    /// The WAL named `name`, or `None` when the stores are in memory.
    pub fn wal(&self, name: &str) -> Result<Option<WalStable>, StableError> {
        self.dir
            .as_ref()
            .map(|dir| WalStable::open(dir.join(format!("{name}.wal")), Durability::ProcessCrash))
            .transpose()
    }

    /// A source of stores: handles on the one WAL `name`, or a fresh
    /// `MemStable` per call.
    pub fn factory(&self, name: &str) -> Result<Box<dyn FnMut() -> Store + Send>, StableError> {
        Ok(match self.wal(name)? {
            Some(wal) => Box::new(move || Box::new(wal.clone()) as Store),
            None => Box::new(|| Box::new(MemStable::new()) as Store),
        })
    }

    /// A gateway builder for `spec` whose SAs persist through
    /// [`Stores::factory`]`(name)`.
    pub fn builder(&self, name: &str, spec: &Spec) -> Result<GatewayBuilder<Store>, StableError> {
        let mut store = self.factory(name)?;
        let builder = GatewayBuilder::with_stores(move |_, _| store())
            .save_interval(spec.k)
            .window(WINDOW);
        Ok(if spec.dpd {
            builder.dpd(DpdConfig::default())
        } else {
            builder
        })
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            // Best effort: a leftover directory sits under the ignored
            // `out/` and is replaced by the next run that reuses its name.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The timed calls of one batch, in call order: indices into [`Cost`].
pub const PROTECT: usize = 0;
/// The sender's `save_completed`.
pub const TX_SAVE: usize = 1;
/// `push_wire_batch`.
pub const PUSH: usize = 2;
/// `poll_events`.
pub const POLL: usize = 3;
/// The receiver's `save_completed`.
pub const RX_SAVE: usize = 4;
/// `tick`.
pub const TICK: usize = 5;

/// Start, wall time and heap allocations of each timed call of one
/// batch (allocations read 0 unless the counting allocator is armed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// When each call began, in nanoseconds since [`trace::since_epoch`]'s
    /// epoch.
    pub start: [u64; 6],
    /// Nanoseconds per call.
    pub ns: [u64; 6],
    /// Allocations per call.
    pub allocs: [u64; 6],
}

/// Sender side of a per-call array: `protect` calls plus the sender's
/// `save_completed`.
pub fn tx_of(calls: &[u64; 6]) -> u64 {
    calls[PROTECT] + calls[TX_SAVE]
}

/// Receiver side of a per-call array: push, poll, `save_completed`, tick.
pub fn rx_of(calls: &[u64; 6]) -> u64 {
    calls[PUSH] + calls[POLL] + calls[RX_SAVE] + calls[TICK]
}

struct Meter {
    at: Instant,
    allocs: u64,
}

impl Meter {
    fn start() -> Meter {
        Meter {
            at: Instant::now(),
            allocs: alloc::total(),
        }
    }

    /// Closes the interval since the previous lap into `cost[call]`.
    fn lap(&mut self, cost: &mut Cost, call: usize) {
        let (now, allocs) = (Instant::now(), alloc::total());
        cost.start[call] = trace::since_epoch(self.at);
        cost.ns[call] = (now - self.at).as_nanos() as u64;
        cost.allocs[call] = allocs - self.allocs;
        *self = Meter { at: now, allocs };
    }
}

/// Everything one batch produced.
#[derive(Debug)]
pub struct Io {
    /// What was sealed.
    pub plan: Plan,
    /// What was pushed, with the generator's records.
    pub batch: Batch,
    /// What the receiver reported.
    pub events: Vec<GatewayEvent>,
    /// What the timed calls cost.
    pub cost: Cost,
}

/// One step of the stream: a batch, and the reset that followed it.
#[derive(Debug)]
pub struct Step {
    /// What the batch's timed calls cost.
    pub cost: Cost,
    /// Frames the sender sealed for it.
    pub sealed: usize,
    /// `reset()` + `recover()` + `poll_events()` wall time per SA
    /// direction recovered, when a reset was due after this batch.
    pub recover_ns_per_sa: Option<f64>,
}

/// What one setup cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupCost {
    /// Build both engines, open stores, install every SA, one warm-up
    /// batch.
    pub seconds: f64,
    /// RSS growth across the installs per SA pair.
    pub rss_bytes_per_sa: f64,
}

/// Resident set size from `/proc/self/statm` (pages are 4 KiB on every
/// platform the repo targets).
fn rss_bytes() -> Res<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm")?;
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .ok_or("statm has no resident field")?
        .parse()?;
    Ok(pages * 4096)
}

/// An engine pair, its traffic source and its oracle.
pub struct Bench {
    /// The workload.
    pub spec: Spec,
    tx: Plain,
    rx: Box<dyn Engine>,
    /// The traffic source.
    pub gen: Generator,
    /// The judge of everything `rx` reports.
    pub oracle: Oracle,
    now_ns: u64,
    since_reset: u64,
    receiver_next: bool,
    /// Batches pushed since the last reset, as the adversary recorded
    /// them (storm only).
    history: Vec<Batch>,
    // Last: the WAL directory outlives the engines' file handles.
    _stores: Stores,
}

impl Bench {
    /// Builds and warms the pair. With `plain_rx` the receiver is a
    /// plain `Gateway` whatever the spec says (the traced pass measures
    /// the sharded engine as one of its twins instead).
    ///
    /// Also returns the warm-up batch: twins that shadow this pair must
    /// see it too.
    pub fn setup(spec: &Spec, seed: u64, tag: &str, plain_rx: bool) -> Res<(Bench, SetupCost, Io)> {
        let gen = Generator::new(spec, seed);
        let oracle = Oracle::new(spec.sas, spec.k);
        let started = Instant::now();
        let stores = Stores::new(spec.store, tag)?;
        let mut tx = stores.builder("tx", spec)?.build();
        let rx_builder = stores.builder("rx", spec)?;
        let mut rx: Box<dyn Engine> = match spec.shards {
            Some(shards) if !plain_rx => Box::new(rx_builder.shards(shards).build_sharded()),
            _ => Box::new(rx_builder.build()),
        };
        let rss_before = rss_bytes()?;
        for spi in SPI_BASE..SPI_BASE + spec.sas {
            tx.add_peer(spi, MASTER);
            rx.add_peer(spi, MASTER);
        }
        let rss_bytes_per_sa = rss_bytes()?.saturating_sub(rss_before) as f64 / spec.sas as f64;
        let mut bench = Bench {
            spec: spec.clone(),
            tx,
            rx,
            gen,
            oracle,
            now_ns: 0,
            since_reset: 0,
            receiver_next: true,
            history: Vec::new(),
            _stores: stores,
        };
        let warm_up = bench.batch(spec.pick)?;
        let seconds = started.elapsed().as_secs_f64();
        let cost = SetupCost {
            seconds,
            rss_bytes_per_sa,
        };
        Ok((bench, cost, warm_up))
    }

    /// SA directions installed on each gateway.
    fn installed(&self) -> usize {
        2 * self.spec.sas as usize
    }

    /// One batch: plan, seal (timed), assemble, push (timed), judge.
    pub fn batch(&mut self, pick: Pick) -> Res<Io> {
        let plan = self.gen.plan(pick);
        let mut cost = Cost::default();

        let mut sealed = Vec::with_capacity(plan.protects.len());
        let mut meter = Meter::start();
        for (sa, payload) in &plan.protects {
            let frame = self.tx.protect(SPI_BASE + sa, self.gen.payload(payload))?;
            sealed.push(frame.ok_or("the sender is down")?);
        }
        meter.lap(&mut cost, PROTECT);
        self.tx.save_completed()?;
        meter.lap(&mut cost, TX_SAVE);

        let batch = self.gen.assemble(&plan, sealed);
        let events = self.push(&batch, &mut cost)?;
        if self.tx.pending_save() {
            return Err("a sender SAVE is still pending after save_completed".into());
        }
        if self.spec.storm {
            self.history.push(Batch {
                wires: batch.wires.clone(),
                sent: batch.sent.iter().map(as_replay).collect(),
            });
        }
        Ok(Io {
            plan,
            batch,
            events,
            cost,
        })
    }

    /// The receiver-side timed calls on `batch`, then the oracle.
    fn push(&mut self, batch: &Batch, cost: &mut Cost) -> Res<Vec<GatewayEvent>> {
        self.now_ns += TICK_STEP_NS;
        let mut meter = Meter::start();
        self.rx.push_wire_batch(&batch.wires)?;
        meter.lap(cost, PUSH);
        let events = self.rx.poll_events();
        meter.lap(cost, POLL);
        self.rx.save_completed()?;
        meter.lap(cost, RX_SAVE);
        self.rx.tick(self.now_ns);
        meter.lap(cost, TICK);

        if self.rx.pending_save() {
            return Err("a receiver SAVE is still pending after save_completed".into());
        }
        let mut verdicts = Vec::with_capacity(events.len());
        for event in &events {
            verdicts.push(verdict_of(event)?);
        }
        let gen = &self.gen;
        self.oracle
            .check_batch(&batch.sent, verdicts.into_iter(), |sent| {
                gen.payload(&sent.payload)
            });
        Ok(events)
    }

    /// `reset()` + `recover()` + `poll_events()` on one gateway; returns
    /// the wall time per SA direction recovered. After a storm reset the
    /// adversary replays everything it recorded since the previous one.
    pub fn reset(&mut self, receiver: bool) -> Res<f64> {
        let gateway: &mut dyn Engine = if receiver {
            &mut *self.rx
        } else {
            &mut self.tx
        };
        let started = Instant::now();
        gateway.reset();
        let woke = gateway.recover()?;
        let events = gateway.poll_events();
        let ns = started.elapsed().as_nanos() as f64;

        let failed_closed = events
            .iter()
            .filter(|e| matches!(e, GatewayEvent::FailedClosed { .. }))
            .count() as u64;
        if !matches!(events.first(), Some(GatewayEvent::Recovered { sas }) if *sas == woke) {
            return Err(format!("recover() = {woke} but events began {:?}", events.first()).into());
        }
        self.oracle.recovery(woke, self.installed(), failed_closed);
        if receiver {
            self.oracle.receiver_reset();
        }
        for recorded in std::mem::take(&mut self.history) {
            self.push(&recorded, &mut Cost::default())?;
        }
        Ok(ns / woke.max(1) as f64)
    }

    /// One batch of the workload's stream, then the in-stream reset if
    /// one is due. `twins` (the traced pass) see the same batch and the
    /// same reset.
    pub fn step(&mut self, mut twins: Option<&mut Twins>) -> Res<Step> {
        let io = self.batch(self.spec.pick)?;
        let (cost, sealed) = (io.cost, io.plan.protects.len());
        if let Some(twins) = twins.as_deref_mut() {
            twins.batch(io, &self.gen)?;
        }
        self.since_reset += 1;
        let mut recover_ns_per_sa = None;
        if self.since_reset == self.spec.reset_every {
            self.since_reset = 0;
            let receiver = self.spec.storm && self.receiver_next;
            self.receiver_next = !self.receiver_next;
            let ns = self.reset(receiver)?;
            if let Some(twins) = twins {
                twins.reset(receiver, ns, &self.gen)?;
            }
            recover_ns_per_sa = Some(ns);
        }
        Ok(Step {
            cost,
            sealed,
            recover_ns_per_sa,
        })
    }

    /// The closing drill: the receiver resets, then round-robin batches
    /// over the sample run until every sampled SA's sacrifice window has
    /// closed. Leaves a wide fleet's unsampled SAs inside theirs, so
    /// nothing may be measured on this pair afterwards.
    /// Returns the drill's recovery time per SA direction.
    pub fn final_drill(&mut self) -> Res<f64> {
        let recover_ns_per_sa = self.reset(true)?;
        for _ in 0..self.spec.convergence_batches() {
            self.batch(Pick::Runs)?;
        }
        Ok(recover_ns_per_sa)
    }
}

fn as_replay(sent: &Sent) -> Sent {
    Sent {
        expect: Expect::Replay,
        payload: 0..0,
        ..sent.clone()
    }
}

/// Reduces a per-frame event to `(sa, verdict)`. Lifecycle events are
/// not expected from a push (no rekey policy, no DPD deadline due).
fn verdict_of(event: &GatewayEvent) -> Res<(u32, Verdict<'_>)> {
    let (spi, verdict) = match event {
        GatewayEvent::Delivered { spi, seq, payload } => (
            spi,
            Verdict::Delivered {
                seq: seq.value(),
                payload,
            },
        ),
        GatewayEvent::ReplayDropped { spi, seq, .. } => {
            (spi, Verdict::ReplayDropped { seq: seq.value() })
        }
        GatewayEvent::AuthFailed { spi } => (spi, Verdict::Other(AUTH_FAILED)),
        GatewayEvent::UnknownSa { spi } => (spi, Verdict::Other(UNKNOWN_SA)),
        GatewayEvent::Buffered { spi } => (spi, Verdict::Other(BUFFERED)),
        GatewayEvent::DroppedDown { spi } => (spi, Verdict::Other(DROPPED_DOWN)),
        other => return Err(format!("unexpected lifecycle event {other:?}").into()),
    };
    Ok((spi.wrapping_sub(SPI_BASE), verdict))
}

/// Per-frame samples of the end-to-end timings.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// `rx_ns_per_frame`, one per batch.
    pub rx: Vec<f64>,
    /// `tx_ns_per_frame`, one per batch.
    pub tx: Vec<f64>,
    /// `push_wire_batch` alone, one per batch.
    pub push: Vec<f64>,
    /// `recover_ns_per_sa`, one per reset.
    pub recover: Vec<f64>,
}

impl Samples {
    /// Files one step's costs.
    pub fn record(&mut self, step: &Step) {
        let cost = &step.cost;
        self.rx.push(rx_of(&cost.ns) as f64 / BATCH as f64);
        self.tx.push(tx_of(&cost.ns) as f64 / step.sealed as f64);
        self.push.push(cost.ns[PUSH] as f64 / BATCH as f64);
        self.recover.extend(step.recover_ns_per_sa);
    }
}

/// Sender resets a pair closes with.
const CLOSING_RESETS: usize = 3;

impl Bench {
    /// One timed round: steps until `duration` has passed.
    pub fn round(&mut self, duration: Duration, samples: &mut Samples) -> Res<()> {
        let started = Instant::now();
        while started.elapsed() < duration {
            samples.record(&self.step(None)?);
        }
        Ok(())
    }

    /// The pair's last act: [`CLOSING_RESETS`] sender resets, a batch
    /// after each to complete the leap's SAVEs. They give
    /// `recover_ns_per_sa` its samples on a stream that never resets,
    /// and leave the receivers owing a SAVE each, so no round may follow.
    pub fn closing_resets(&mut self, samples: &mut Samples) -> Res<()> {
        for _ in 0..CLOSING_RESETS {
            samples.recover.push(self.reset(false)?);
            self.batch(self.spec.pick)?;
        }
        Ok(())
    }
}

/// Exact per-seed quantities from the counting pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Counted {
    /// Heap allocations inside the receiver-side calls per frame pushed.
    pub rx_allocs_per_frame: f64,
    /// Heap allocations inside the sender-side calls per frame sealed.
    pub tx_allocs_per_frame: f64,
    /// Heap allocations inside `push_wire_batch` alone per frame.
    pub push_allocs_per_frame: f64,
    /// Mean fresh sequence numbers sacrificed per (receiver reset, SA).
    pub seq_sacrificed_per_reset: f64,
    /// How many (receiver reset, SA) pairs that mean is over.
    pub sacrifice_samples: u64,
    /// The closing drill's recovery, per SA direction (allocator down).
    pub drill_recover_ns_per_sa: f64,
}

impl Bench {
    /// The counting pass: a fixed number of steps with the counting
    /// allocator armed, then the closing drill. The work depends on the
    /// seed alone, so every count repeats exactly for a seed.
    pub fn counting_pass(&mut self) -> Res<Counted> {
        let (mut rx, mut tx, mut push, mut sealed) = (0u64, 0u64, 0u64, 0u64);
        let steps = self.spec.counting_batches;
        alloc::arm(true);
        let stream = (0..steps).try_for_each(|_| {
            let step = self.step(None)?;
            rx += rx_of(&step.cost.allocs);
            tx += tx_of(&step.cost.allocs);
            push += step.cost.allocs[PUSH];
            sealed += step.sealed as u64;
            Ok::<(), Box<dyn Error>>(())
        });
        alloc::arm(false);
        stream?;
        let drill_recover_ns_per_sa = self.final_drill()?;
        let pushed = (steps * BATCH as u64) as f64;
        let (seq_sacrificed_per_reset, sacrifice_samples) = self.oracle.sacrifice();
        Ok(Counted {
            rx_allocs_per_frame: rx as f64 / pushed,
            tx_allocs_per_frame: tx as f64 / sealed as f64,
            push_allocs_per_frame: push as f64 / pushed,
            seq_sacrificed_per_reset,
            sacrifice_samples,
            drill_recover_ns_per_sa,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn an_untraced_round_leaves_the_allocation_counter_alone() {
        let _guard = alloc::tests::ALLOC_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let (mut bench, _, _) = Bench::setup(&WORKLOADS[0], 3, "unit-round", false).unwrap();
        let mut samples = Samples::default();
        let before = alloc::total();
        bench
            .round(Duration::from_millis(50), &mut samples)
            .unwrap();
        assert_eq!(
            alloc::total(),
            before,
            "the counting allocator is armed in a timed round"
        );
        assert!(!samples.rx.is_empty() && samples.rx.len() == samples.tx.len());
        assert_eq!(bench.oracle.failed, 0, "{:?}", bench.oracle.violations);
    }

    #[test]
    fn a_storm_keeps_the_papers_bounds_and_the_oracle_sees_every_frame() {
        let spec = &WORKLOADS[4];
        let (mut bench, _, _) = Bench::setup(spec, 11, "unit-storm", false).unwrap();
        // Two in-stream resets, then half an interval of traffic so the
        // sender's leap is behind it when the drill resets the receiver.
        let steps = 2 * spec.reset_every + spec.reset_every / 2;
        for _ in 0..steps {
            bench.step(None).unwrap();
        }
        bench.final_drill().unwrap();
        assert_eq!(bench.oracle.failed, 0, "{:?}", bench.oracle.violations);
        // Every batch before the drill is pushed twice — fresh, then
        // replayed by the adversary after the next reset.
        let batches = 2 * (1 + steps) + spec.convergence_batches();
        assert_eq!(bench.oracle.ops, batches * BATCH as u64 + 3);
        let (sacrificed, samples) = bench.oracle.sacrifice();
        assert_eq!(samples, 2 * spec.sas as u64);
        assert!(
            sacrificed > spec.k as f64 && sacrificed <= 2.0 * spec.k as f64,
            "{sacrificed}"
        );
    }
}
