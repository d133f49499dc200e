//! The traced pass: a per-layer ledger measured purely from outside.
//!
//! Beside the engine pair under test the pass keeps one *twin* per rung
//! of the stack — gateways (telemetry-attached, 1-shard, 2-shard), a bare
//! `Sadb`, per-SA `Inbound`/`Outbound`, per-SA cipher suites, per-SA
//! `SfMachine`s and windows, a bare store — and feeds them the same
//! batches and the same resets in lock-step, timing each rung's public
//! calls. Every timed call is one span; spans stay in memory until the
//! run ends. Nothing inside the crates is instrumented.

use std::collections::HashMap;
use std::hint::black_box;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

use anti_replay::{AntiReplayWindow, SeqNum, SfEffect, SfEvent, SfMachine};
use bytes::BytesMut;
use reset_crypto::FrameToVerify;
use reset_ipsec::{
    GatewayEvent, Inbound, IpsecError, Outbound, RxResult, SaKeys, Sadb, SecurityAssociation,
    ShardedGateway,
};
use reset_stable::{SlotId, WalStable};
use reset_telemetry::{Json, Telemetry};
use reset_wire::{
    check_frame_length, frame_overhead, open_frame, peek_spi, seal_frame_into, spi_shard,
    verify_frame_with, HEADER_LEN,
};

use crate::alloc;
use crate::record::Metric;
use crate::run::{
    Engine, Io, Plain, Res, Store, Stores, POLL, PROTECT, PUSH, RX_SAVE, TICK, TICK_STEP_NS,
};
use crate::workload::{Generator, Spec, BATCH, MASTER, SPI_BASE, WINDOW};

/// Nanoseconds from the process-wide span epoch to `at`.
pub fn since_epoch(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// One timed call into one rung, for one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The batch the call worked on — spans of one batch share it.
    pub batch: u64,
    /// `<layer>.<name>`, also the name of the metric it feeds.
    pub metric: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Frames (or saves, or SA directions) the call covered.
    pub units: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn per_unit(&self) -> f64 {
        self.ns() as f64 / self.units.max(1) as f64
    }
}

/// The rung above `metric`: the span that, in the real call tree, would
/// contain it.
pub fn parent(metric: &str) -> Option<&'static str> {
    Some(match metric {
        "ipsec.sadb.process_batch_ns" => "ipsec.gateway.push_ns",
        "ipsec.esp.process_batch_ns" | "ipsec.sadb.lookup_ns" => "ipsec.sadb.process_batch_ns",
        "wire.parse_ns" | "crypto.verify_batch_ns" | "core.machine_ns" | "crypto.decrypt_ns" => {
            "ipsec.esp.process_batch_ns"
        }
        "core.window_ns" => "core.machine_ns",
        "ipsec.sadb.protect_ns" => "ipsec.gateway.protect_ns",
        "ipsec.esp.protect_ns" => "ipsec.sadb.protect_ns",
        "wire.seal_ns" | "core.machine_send_ns" => "ipsec.esp.protect_ns",
        "crypto.seal_ns" => "wire.seal_ns",
        "ipsec.shard.submit_ns" | "ipsec.shard.drain_wait_ns" => "ipsec.shard.push_ns_2",
        _ => return None,
    })
}

/// A rung's self time for one batch: its span minus its child rungs'
/// spans. The twins run one after another, not nested, so the children
/// cover their full durations; a child that ran slower than its parent
/// (noise between twins) saturates at zero.
pub fn self_ns(parent: &Span, children: &[&Span]) -> u64 {
    parent
        .ns()
        .saturating_sub(children.iter().map(|c| c.ns()).sum())
}

/// Times `work` as one span of `metric`.
fn timed<R>(
    spans: &mut Vec<Span>,
    batch: u64,
    metric: &'static str,
    units: usize,
    work: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = work();
    let end = Instant::now();
    spans.push(Span {
        batch,
        metric,
        start_ns: since_epoch(start),
        end_ns: since_epoch(end),
        units: units as u64,
    });
    out
}

fn delivered(events: &[GatewayEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, GatewayEvent::Delivered { .. }))
        .count()
}

/// Batches the twins gather before working them rung by rung. Divides
/// every workload's reset interval, so a chunk never straddles a reset.
const CHUNK: usize = 8;

/// One batch waiting for the twins, with what later rungs need from
/// earlier ones.
struct Held {
    /// Batch number: the identifier its spans share.
    no: u64,
    io: Io,
    /// Frames the pair under test delivered.
    want: usize,
    /// Runs of consecutive frames of one SA.
    runs: Vec<(usize, Range<usize>)>,
    /// Which frames the machine twin found fresh.
    fresh: Vec<bool>,
    /// `(sa, value)` of each SAVE the machine twin issued.
    issued: Vec<(u32, u64)>,
}

/// One run's fresh ciphertext and the decrypt jobs over it.
#[derive(Default)]
struct Arena {
    sa: usize,
    bytes: Vec<u8>,
    jobs: Vec<(u64, Range<usize>)>,
    /// Batch index of each job's frame.
    frames: Vec<usize>,
}

/// The twins of one traced pass.
pub struct Twins {
    spec: Spec,
    spans: Vec<Span>,
    batch: u64,
    held: Vec<Held>,

    with_telemetry: Plain,
    telemetry: Telemetry,
    one_shard: ShardedGateway<Store>,
    two_shards: ShardedGateway<Store>,
    pool_telemetry: Telemetry,
    sadb_rx: Sadb<Store>,
    sadb_tx: Sadb<Store>,
    inbound: Vec<Inbound<Store>>,
    outbound: Vec<Outbound<Store>>,
    /// Per-SA suites, reached through `SecurityAssociation::cipher()`.
    sas: Vec<SecurityAssociation>,
    rx_machines: Vec<SfMachine>,
    tx_machines: Vec<SfMachine>,
    /// What each machine twin last saved — its next FETCH.
    rx_durable: Vec<u64>,
    tx_durable: Vec<u64>,
    windows: Vec<AntiReplayWindow>,
    store: Store,
    store_wal: Option<WalStable>,
    store_telemetry: Telemetry,

    verify_calls: u64,
    saves: u64,
    machine_allocs: u64,
    machine_alloc_frames: u64,
    /// Delivered / replay-dropped / recovered events of the pair under
    /// test over the batches the telemetry twin also saw.
    expected_events: [u64; 3],
    shard_frames: [u64; 2],
    // Last: the WAL directory outlives the twins' file handles.
    _stores: Stores,
}

impl Twins {
    /// Builds every twin with the fleet of `spec`, keyed like
    /// `Gateway::add_peer` keys the pair under test.
    pub fn new(spec: &Spec, tag: &str) -> Res<Twins> {
        let stores = Stores::new(spec.store, tag)?;
        let sas: Vec<SecurityAssociation> = (SPI_BASE..SPI_BASE + spec.sas)
            .map(|spi| SecurityAssociation::new(spi, SaKeys::derive(MASTER, &spi.to_be_bytes())))
            .collect();
        let telemetry = Telemetry::new();
        let pool_telemetry = Telemetry::with_shards(2);
        let mut with_telemetry = stores
            .builder("telemetry", spec)?
            .telemetry(telemetry.clone())
            .build();
        let mut one_shard = stores.builder("shard1", spec)?.shards(1).build_sharded();
        let mut two_shards = stores
            .builder("shard2", spec)?
            .shards(2)
            .telemetry(pool_telemetry.clone())
            .build_sharded();
        let (mut sadb_rx, mut sadb_tx) = (Sadb::new(), Sadb::new());
        let mut sadb_rx_store = stores.factory("sadb_rx")?;
        let mut sadb_tx_store = stores.factory("sadb_tx")?;
        let mut inbound_store = stores.factory("inbound")?;
        let mut outbound_store = stores.factory("outbound")?;
        let (mut inbound, mut outbound) = (Vec::new(), Vec::new());
        for sa in &sas {
            with_telemetry.install_inbound(sa.clone());
            one_shard.install_inbound(sa.clone());
            two_shards.install_inbound(sa.clone());
            sadb_rx.install_inbound(sa.clone(), sadb_rx_store(), spec.k, WINDOW);
            sadb_tx.install_outbound(sa.clone(), sadb_tx_store(), spec.k);
            inbound.push(Inbound::new(sa.clone(), inbound_store(), spec.k, WINDOW));
            outbound.push(Outbound::new(sa.clone(), outbound_store(), spec.k));
        }
        let store_wal = stores.wal("store")?;
        let store_telemetry = Telemetry::new();
        if let Some(wal) = &store_wal {
            wal.attach_telemetry(&store_telemetry);
        }
        let n = spec.sas as usize;
        Ok(Twins {
            spec: spec.clone(),
            spans: Vec::new(),
            batch: 0,
            held: Vec::new(),
            with_telemetry,
            telemetry,
            one_shard,
            two_shards,
            pool_telemetry,
            sadb_rx,
            sadb_tx,
            inbound,
            outbound,
            sas,
            rx_machines: vec![SfMachine::receiver(spec.k, WINDOW); n],
            tx_machines: vec![SfMachine::sender(spec.k); n],
            rx_durable: vec![0; n],
            tx_durable: vec![0; n],
            windows: vec![AntiReplayWindow::new(WINDOW); n],
            store: match &store_wal {
                Some(wal) => Box::new(wal.clone()),
                None => stores.factory("store")?(),
            },
            store_wal,
            store_telemetry,
            verify_calls: 0,
            saves: 0,
            machine_allocs: 0,
            machine_alloc_frames: 0,
            expected_events: [0; 3],
            shard_frames: [0; 2],
            _stores: stores,
        })
    }

    /// Takes one batch of the pair under test. Batches are held until
    /// [`CHUNK`] have gathered (or a reset intervenes) and then go
    /// through the twins rung by rung, so every rung — like the pair
    /// under test — works several batches back to back on a warm cache
    /// instead of finding its state evicted by the other rungs.
    pub fn batch(&mut self, io: Io, gen: &Generator) -> Res<()> {
        self.batch += 1;
        let want = delivered(&io.events);
        self.expected_events[0] += want as u64;
        self.expected_events[1] += (io.events.len() - want) as u64;
        // Runs of consecutive frames of one SA, as `Sadb::process_batch`
        // forms them.
        let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
        for (i, s) in io.batch.sent.iter().enumerate() {
            match runs.last_mut() {
                Some((sa, run)) if *sa == s.sa as usize => run.end = i + 1,
                _ => runs.push((s.sa as usize, i..i + 1)),
            }
        }
        self.held.push(Held {
            no: self.batch,
            io,
            want,
            runs,
            fresh: Vec::new(),
            issued: Vec::new(),
        });
        if self.held.len() == CHUNK {
            self.flush(gen)?;
        }
        Ok(())
    }

    /// Runs the held batches through every rung.
    fn flush(&mut self, gen: &Generator) -> Res<()> {
        let mut held = std::mem::take(&mut self.held);
        for h in &held {
            for (metric, call, units) in [
                (
                    "ipsec.gateway.protect_ns",
                    PROTECT,
                    h.io.plan.protects.len(),
                ),
                ("ipsec.gateway.push_ns", PUSH, BATCH),
                ("ipsec.gateway.poll_ns", POLL, BATCH),
                ("ipsec.gateway.save_completed_ns", RX_SAVE, BATCH),
                ("ipsec.gateway.tick_ns", TICK, BATCH),
            ] {
                self.spans.push(Span {
                    batch: h.no,
                    metric,
                    start_ns: h.io.cost.start[call],
                    end_ns: h.io.cost.start[call] + h.io.cost.ns[call],
                    units: units as u64,
                });
            }
        }
        self.engines(&held)?;
        self.receive_layers(&mut held, gen)?;
        self.store_layer(&held)?;
        self.send_layers(&held, gen)
    }

    fn in_step(name: &str, got: usize, want: usize) -> Res<()> {
        if got == want {
            Ok(())
        } else {
            Err(format!("twin {name} delivered {got} frames, the pair under test {want}").into())
        }
    }

    /// The gateway-shaped twins: telemetry attached, one shard, two.
    fn engines(&mut self, held: &[Held]) -> Res<()> {
        let spans = &mut self.spans;
        let whole: [(&mut dyn Engine, &'static str, &str); 2] = [
            (
                &mut self.with_telemetry,
                "telemetry.attached_push_ns",
                "telemetry",
            ),
            (&mut self.one_shard, "ipsec.shard.push_ns_1", "shard1"),
        ];
        for (gw, metric, name) in whole {
            for h in held {
                timed(spans, h.no, metric, BATCH, || {
                    gw.push_wire_batch(&h.io.batch.wires)
                })?;
                Self::in_step(name, delivered(&gw.poll_events()), h.want)?;
                gw.save_completed()?;
                gw.tick(h.no * TICK_STEP_NS);
            }
        }
        let gw = &mut self.two_shards;
        for h in held {
            let first = spans.len();
            timed(spans, h.no, "ipsec.shard.submit_ns", BATCH, || {
                gw.submit_batch(&h.io.batch.wires)
            });
            let events = timed(spans, h.no, "ipsec.shard.drain_wait_ns", BATCH, || {
                gw.drain_events()
            })?;
            spans.push(Span {
                metric: "ipsec.shard.push_ns_2",
                start_ns: spans[first].start_ns,
                ..spans[first + 1].clone()
            });
            Self::in_step("shard2", delivered(&events), h.want)?;
            gw.save_completed()?;
            gw.tick(h.no * TICK_STEP_NS);
            for sent in &h.io.batch.sent {
                self.shard_frames[spi_shard(SPI_BASE + sent.sa, 2)] += 1;
            }
        }
        Ok(())
    }

    /// The receive path rung by rung. Fills in which frames the machine
    /// twin found fresh and the SAVEs it issued.
    fn receive_layers(&mut self, held: &mut [Held], gen: &Generator) -> Res<()> {
        let spans = &mut self.spans;

        let sadb = &mut self.sadb_rx;
        for h in held.iter() {
            let results = timed(spans, h.no, "ipsec.sadb.process_batch_ns", BATCH, || {
                sadb.process_batch(&h.io.batch.wires)
            })?;
            let got = results.iter().filter(|r| r.is_delivered()).count();
            Self::in_step("sadb", got, h.want)?;
            for (sa, _) in &h.runs {
                let inbound = sadb.inbound_mut(SPI_BASE + *sa as u32);
                inbound.expect("installed").save_completed()?;
            }
        }
        for h in held.iter() {
            timed(spans, h.no, "ipsec.sadb.lookup_ns", BATCH, || {
                for s in &h.io.batch.sent {
                    black_box(sadb.inbound(SPI_BASE + s.sa).is_some());
                }
            });
        }

        let inbound = &mut self.inbound;
        for h in held.iter() {
            let wires = &h.io.batch.wires;
            let mut results: Vec<Vec<RxResult>> = Vec::with_capacity(h.runs.len());
            timed(spans, h.no, "ipsec.esp.process_batch_ns", BATCH, || {
                h.runs.iter().try_for_each(|(sa, run)| {
                    results.push(inbound[*sa].process_batch(&wires[run.clone()])?);
                    Ok::<(), IpsecError>(())
                })
            })?;
            let got = results
                .iter()
                .flatten()
                .filter(|r| r.is_delivered())
                .count();
            Self::in_step("inbound", got, h.want)?;
            for (sa, _) in &h.runs {
                inbound[*sa].save_completed()?;
            }
        }

        let suite = |sa: usize| self.sas[sa].cipher();
        let overhead = frame_overhead(suite(0));
        let body_at = HEADER_LEN + suite(0).iv_len();
        let icv_len = suite(0).icv_len();
        for h in held.iter() {
            timed(spans, h.no, "wire.parse_ns", BATCH, || {
                for wire in &h.io.batch.wires {
                    black_box(peek_spi(wire));
                    black_box(check_frame_length(wire, overhead).is_ok());
                }
            });
        }

        for h in held.iter() {
            let (wires, sent) = (&h.io.batch.wires, &h.io.batch.sent);
            let to_verify: Vec<Vec<FrameToVerify<'_>>> = h
                .runs
                .iter()
                .map(|(_, run)| {
                    run.clone()
                        .map(|i| {
                            let (wire, seq) = (&wires[i], sent[i].seq);
                            let icv_at = wire.len() - icv_len;
                            FrameToVerify {
                                seq,
                                header: &wire[..body_at],
                                ciphertext: &wire[body_at..icv_at],
                                esn_hi: Some((seq >> 32) as u32),
                                icv: &wire[icv_at..],
                            }
                        })
                        .collect()
                })
                .collect();
            let mut verdicts = Vec::with_capacity(BATCH);
            let mut verified = 0;
            timed(spans, h.no, "crypto.verify_batch_ns", BATCH, || {
                for ((sa, _), frames) in h.runs.iter().zip(&to_verify) {
                    suite(*sa).verify_batch(frames, &mut verdicts);
                    verified += verdicts.iter().filter(|&&ok| ok).count();
                }
            });
            if verified != BATCH {
                return Err("twin suites rejected a frame the sender sealed".into());
            }
            self.verify_calls += h.runs.len() as u64;
        }

        let machines = &mut self.rx_machines;
        for h in held.iter_mut() {
            let sent = &h.io.batch.sent;
            let mut fresh = vec![false; BATCH];
            let mut issued: Vec<(u32, u64)> = Vec::with_capacity(BATCH);
            let mut classify = || {
                for (i, s) in sent.iter().enumerate() {
                    let event = SfEvent::Receive(SeqNum::new(s.seq));
                    for effect in machines[s.sa as usize].step(event) {
                        match effect {
                            SfEffect::Rx { outcome, .. } => fresh[i] = outcome.is_delivered(),
                            SfEffect::SaveIssued(value) => issued.push((s.sa, value)),
                            _ => {}
                        }
                    }
                }
                for (sa, _) in &issued {
                    machines[*sa as usize].step(SfEvent::SaveDone);
                }
            };
            // One batch in eight counts the machine's allocations instead
            // of timing it: the armed counter would taint the span.
            if h.no % 8 == 0 {
                alloc::arm(true);
                let before = alloc::total();
                classify();
                self.machine_allocs += alloc::total() - before;
                alloc::arm(false);
                self.machine_alloc_frames += BATCH as u64;
            } else {
                timed(spans, h.no, "core.machine_ns", BATCH, classify);
            }
            Self::in_step("machine", fresh.iter().filter(|&&f| f).count(), h.want)?;
            for (sa, value) in &issued {
                self.rx_durable[*sa as usize] = *value;
            }
            self.saves += issued.len() as u64;
            (h.fresh, h.issued) = (fresh, issued);
        }

        let windows = &mut self.windows;
        for h in held.iter() {
            timed(spans, h.no, "core.window_ns", BATCH, || {
                for s in &h.io.batch.sent {
                    black_box(windows[s.sa as usize].check_and_accept(SeqNum::new(s.seq)));
                }
            });
        }

        // Per run, the fresh frames' ciphertext in one arena plus the
        // decrypt jobs over it — the shape `Inbound::process_batch` hands
        // to `decrypt_batch`.
        let body = body_at..body_at + self.spec.payload;
        for h in held.iter() {
            let (wires, sent) = (&h.io.batch.wires, &h.io.batch.sent);
            let mut arenas: Vec<Arena> = h
                .runs
                .iter()
                .map(|(sa, run)| {
                    let mut arena = Arena {
                        sa: *sa,
                        ..Arena::default()
                    };
                    for i in run.clone().filter(|&i| h.fresh[i]) {
                        let start = arena.bytes.len();
                        arena.bytes.extend_from_slice(&wires[i][body.clone()]);
                        arena.jobs.push((sent[i].seq, start..arena.bytes.len()));
                        arena.frames.push(i);
                    }
                    arena
                })
                .collect();
            timed(spans, h.no, "crypto.decrypt_ns", BATCH, || {
                for arena in &mut arenas {
                    suite(arena.sa).decrypt_batch(&mut arena.bytes, &arena.jobs);
                }
            });
            for arena in &arenas {
                for ((_, at), &i) in arena.jobs.iter().zip(&arena.frames) {
                    if arena.bytes[at.clone()] != *gen.payload(&sent[i].payload) {
                        return Err("twin suites decrypted a payload that was not sent".into());
                    }
                }
            }
        }

        // The sequential tier of the codec on the same frames.
        let mut ok = true;
        for h in held.iter() {
            timed(spans, h.no, "wire.verify_ns", BATCH, || {
                for (wire, s) in h.io.batch.wires.iter().zip(&h.io.batch.sent) {
                    ok &= verify_frame_with(wire, suite(s.sa as usize), Some(0)).is_ok();
                }
            });
        }
        for h in held.iter() {
            timed(spans, h.no, "wire.open_ns", BATCH, || {
                for (wire, s) in h.io.batch.wires.iter().zip(&h.io.batch.sent) {
                    ok &= open_frame(wire, suite(s.sa as usize), Some(0)).is_ok();
                }
            });
        }
        if !ok {
            return Err("the sequential codec rejected a frame the sender sealed".into());
        }
        Ok(())
    }

    /// The bare store: the SAVEs the machine twin issued, and a FETCH of
    /// each.
    fn store_layer(&mut self, held: &[Held]) -> Res<()> {
        let store = &mut self.store;
        let slot = |sa: &u32| SlotId::receiver(SPI_BASE + sa);
        for h in held.iter().filter(|h| !h.issued.is_empty()) {
            timed(
                &mut self.spans,
                h.no,
                "stable.save_ns",
                h.issued.len(),
                || {
                    h.issued
                        .iter()
                        .try_for_each(|(sa, value)| store.store(slot(sa), *value))
                },
            )?;
            timed(
                &mut self.spans,
                h.no,
                "stable.fetch_ns",
                h.issued.len(),
                || {
                    h.issued
                        .iter()
                        .try_for_each(|(sa, _)| black_box(store.load(slot(sa))).map(|_| ()))
                },
            )?;
        }
        Ok(())
    }

    /// The send path rung by rung.
    fn send_layers(&mut self, held: &[Held], gen: &Generator) -> Res<()> {
        let spans = &mut self.spans;

        let sadb = &mut self.sadb_tx;
        for h in held {
            let protects = &h.io.plan.protects;
            let mut wires = Vec::with_capacity(protects.len());
            timed(spans, h.no, "ipsec.sadb.protect_ns", protects.len(), || {
                protects.iter().try_for_each(|(sa, payload)| {
                    wires.push(sadb.protect(SPI_BASE + sa, gen.payload(payload))?);
                    Ok::<(), IpsecError>(())
                })
            })?;
            for (sa, _) in protects {
                let outbound = sadb.outbound_mut(SPI_BASE + sa);
                outbound.expect("installed").save_completed()?;
            }
        }

        let outbound = &mut self.outbound;
        for h in held {
            let protects = &h.io.plan.protects;
            let mut wires = Vec::with_capacity(protects.len());
            timed(spans, h.no, "ipsec.esp.protect_ns", protects.len(), || {
                protects.iter().try_for_each(|(sa, payload)| {
                    wires.push(outbound[*sa as usize].protect(gen.payload(payload))?);
                    Ok::<(), IpsecError>(())
                })
            })?;
            if wires.iter().any(Option::is_none) {
                return Err("a twin sender is down".into());
            }
            for (sa, _) in protects {
                outbound[*sa as usize].save_completed()?;
            }
        }

        // The sequence numbers the machine twin assigns feed the codec
        // and cipher rungs below.
        let machines = &mut self.tx_machines;
        let mut seqs: Vec<Vec<u64>> = Vec::with_capacity(held.len());
        for h in held {
            let protects = &h.io.plan.protects;
            let mut sent = Vec::with_capacity(protects.len());
            let mut issued: Vec<(u32, u64)> = Vec::with_capacity(protects.len());
            timed(spans, h.no, "core.machine_send_ns", protects.len(), || {
                for (sa, _) in protects {
                    for effect in machines[*sa as usize].step(SfEvent::Send) {
                        match effect {
                            SfEffect::Sent(seq) => sent.push(seq.value()),
                            SfEffect::SaveIssued(value) => issued.push((*sa, value)),
                            _ => {}
                        }
                    }
                }
                for (sa, _) in &issued {
                    machines[*sa as usize].step(SfEvent::SaveDone);
                }
            });
            if sent.len() != protects.len() {
                return Err("a twin sender machine is down".into());
            }
            for (sa, value) in issued {
                self.tx_durable[sa as usize] = value;
            }
            seqs.push(sent);
        }

        let suite = |sa: u32| self.sas[sa as usize].cipher();
        let mut frame = BytesMut::with_capacity(frame_overhead(suite(0)) + self.spec.payload);
        for (h, seqs) in held.iter().zip(&seqs) {
            let protects = &h.io.plan.protects;
            timed(spans, h.no, "wire.seal_ns", protects.len(), || {
                protects
                    .iter()
                    .zip(seqs)
                    .try_for_each(|((sa, payload), seq)| {
                        let payload = gen.payload(payload);
                        seal_frame_into(&mut frame, SPI_BASE + sa, *seq, payload, suite(*sa), true)
                    })
            })?;
        }

        let header = vec![0u8; HEADER_LEN + suite(0).iv_len()];
        for (h, seqs) in held.iter().zip(&seqs) {
            let protects = &h.io.plan.protects;
            let mut bodies: Vec<u8> = protects
                .iter()
                .flat_map(|(_, payload)| gen.payload(payload))
                .copied()
                .collect();
            timed(spans, h.no, "crypto.seal_ns", protects.len(), || {
                let bodies = bodies.chunks_exact_mut(self.spec.payload);
                for (((sa, _), seq), body) in protects.iter().zip(seqs).zip(bodies) {
                    suite(*sa).encrypt(*seq, body);
                    black_box(suite(*sa).icv(*seq, &header, body, Some(0)));
                }
            });
        }
        Ok(())
    }

    /// Mirrors a reset of the pair under test onto every twin of that
    /// side. `recover_ns_per_sa` is what the pair's own recovery cost.
    pub fn reset(&mut self, receiver: bool, recover_ns_per_sa: f64, gen: &Generator) -> Res<()> {
        self.flush(gen)?;
        let directions = 2 * self.spec.sas as u64;
        let end_ns = since_epoch(Instant::now());
        self.spans.push(Span {
            batch: self.batch,
            metric: "ipsec.gateway.recover_ns",
            start_ns: end_ns.saturating_sub((recover_ns_per_sa * directions as f64) as u64),
            end_ns,
            units: directions,
        });
        let two_k = 2 * self.spec.k;
        if receiver {
            self.expected_events[2] += 1;
            let gateways: [&mut dyn Engine; 3] = [
                &mut self.with_telemetry,
                &mut self.one_shard,
                &mut self.two_shards,
            ];
            for gw in gateways {
                gw.reset();
                gw.recover()?;
                gw.poll_events();
            }
            self.sadb_rx.reset_all();
            self.sadb_rx.recover_all()?;
            for inbound in &mut self.inbound {
                inbound.reset();
                inbound.wake_up()?;
            }
            let twins = self.rx_machines.iter_mut().zip(&mut self.rx_durable);
            for ((machine, durable), window) in twins.zip(&mut self.windows) {
                *durable = wake(machine, *durable, two_k);
                *window = AntiReplayWindow::with_right_edge(WINDOW, SeqNum::new(*durable), true);
            }
        } else {
            self.sadb_tx.reset_all();
            self.sadb_tx.recover_all()?;
            for outbound in &mut self.outbound {
                outbound.reset();
                outbound.wake_up()?;
            }
            for (machine, durable) in self.tx_machines.iter_mut().zip(&mut self.tx_durable) {
                *durable = wake(machine, *durable, two_k);
            }
        }
        Ok(())
    }
}

/// Reset + FETCH(`durable`) + leap + SAVE on a machine twin; returns the
/// leaped counter, which is what the wake-up SAVE made durable.
fn wake(machine: &mut SfMachine, durable: u64, two_k: u64) -> u64 {
    machine.step(SfEvent::Reset);
    machine.step(SfEvent::BeginWakeup { fetched: durable });
    machine.step(SfEvent::SaveDone);
    durable + two_k
}

/// What a traced pass produced.
#[derive(Debug)]
pub struct Ledger {
    /// The per-layer metrics the pass measured.
    pub metrics: Vec<Metric>,
    /// Every span, in recording order.
    pub spans: Vec<Span>,
}

impl Twins {
    /// Reduces the spans to the per-layer metrics. `untraced_push_ns` is
    /// the quiet percentile of `push_wire_batch` in the untraced timed pass.
    pub fn finish(mut self, untraced_push_ns: f64, gen: &Generator) -> Res<Ledger> {
        self.flush(gen)?;
        let mut by_metric: HashMap<&str, Vec<&Span>> = HashMap::new();
        let mut by_batch: HashMap<(u64, &str), &Span> = HashMap::new();
        for span in &self.spans {
            by_metric.entry(span.metric).or_default().push(span);
            by_batch.insert((span.batch, span.metric), span);
        }
        let samples = |metric: &str| -> Vec<f64> {
            let spans = by_metric.get(metric).map_or(&[][..], |s| s);
            spans.iter().map(|s| s.per_unit()).collect()
        };
        let quiet = |metric: &'static str| Metric::quiet(metric, "ns", samples(metric));
        // Per batch, `f(a, b)` over the spans of two metrics.
        let paired = |a: &str, b: &str, f: fn(f64, f64) -> f64| -> Vec<f64> {
            let spans = by_metric.get(a).map_or(&[][..], |s| s);
            spans
                .iter()
                .filter_map(|x| {
                    let y = by_batch.get(&(x.batch, b))?;
                    Some(f(x.per_unit(), y.per_unit()))
                })
                .collect()
        };
        let self_time = |name: &'static str, of: &'static str| {
            let spans = by_metric.get(of).map_or(&[][..], |s| s);
            let per_frame = spans.iter().filter_map(|rung| {
                let children: Vec<&Span> = by_metric
                    .keys()
                    .filter(|m| parent(m) == Some(of))
                    .map(|m| by_batch.get(&(rung.batch, *m)).copied())
                    .collect::<Option<_>>()?;
                Some(self_ns(rung, &children) as f64 / rung.units as f64)
            });
            Metric::median(name, "ns", per_frame.collect())
        };

        let mut metrics: Vec<Metric> = [
            "wire.parse_ns",
            "wire.seal_ns",
            "wire.verify_ns",
            "wire.open_ns",
            "crypto.verify_batch_ns",
            "crypto.decrypt_ns",
            "crypto.seal_ns",
            "core.window_ns",
            "core.machine_ns",
            "core.machine_send_ns",
            "stable.save_ns",
            "stable.fetch_ns",
            "ipsec.esp.process_batch_ns",
            "ipsec.esp.protect_ns",
            "ipsec.sadb.process_batch_ns",
            "ipsec.sadb.lookup_ns",
            "ipsec.sadb.protect_ns",
            "ipsec.gateway.push_ns",
            "ipsec.gateway.poll_ns",
            "ipsec.gateway.save_completed_ns",
            "ipsec.gateway.tick_ns",
            "ipsec.gateway.protect_ns",
            "ipsec.gateway.recover_ns",
            "ipsec.shard.push_ns_1",
            "ipsec.shard.push_ns_2",
            "ipsec.shard.submit_ns",
            "ipsec.shard.drain_wait_ns",
        ]
        .into_iter()
        .map(quiet)
        .collect();
        let value = |metrics: &[Metric], name: &str| {
            let found = metrics.iter().find(|m| m.name == name);
            found.map_or(0.0, |m| m.value)
        };

        metrics.extend([
            self_time("ipsec.esp.self_ns", "ipsec.esp.process_batch_ns"),
            self_time("ipsec.sadb.self_ns", "ipsec.sadb.process_batch_ns"),
            self_time("ipsec.gateway.push_self_ns", "ipsec.gateway.push_ns"),
            Metric::median(
                "ipsec.shard.overhead_ns",
                "ns",
                paired("ipsec.shard.push_ns_1", "ipsec.gateway.push_ns", |a, b| {
                    a - b
                }),
            ),
            Metric::median(
                "ipsec.shard.speedup_2",
                "ratio",
                paired("ipsec.gateway.push_ns", "ipsec.shard.push_ns_2", |a, b| {
                    a / b
                }),
            ),
            Metric::median(
                "telemetry.overhead_ns",
                "ns",
                paired(
                    "telemetry.attached_push_ns",
                    "ipsec.gateway.push_ns",
                    |a, b| a - b,
                ),
            ),
        ]);

        let frames = (self.batch * BATCH as u64).max(1) as f64;
        let suite = self.sas[0].cipher();
        metrics.extend([
            Metric::exact("wire.overhead_bytes", "B", frame_overhead(suite) as f64),
            Metric::exact(
                "crypto.lane_fill",
                "count",
                frames / self.verify_calls.max(1) as f64,
            ),
            Metric::exact(
                "core.machine_allocs",
                "count",
                self.machine_allocs as f64 / self.machine_alloc_frames.max(1) as f64,
            ),
            Metric::exact(
                "core.saves_per_kframe",
                "count",
                1000.0 * self.saves as f64 / frames,
            ),
        ]);

        let wal = self.store_telemetry.snapshot();
        metrics.extend([
            Metric::exact(
                "stable.wal_bytes_per_save",
                "B",
                wal.wal_append_bytes as f64 / wal.wal_appends.max(1) as f64,
            ),
            Metric::exact(
                "stable.compactions",
                "count",
                self.store_wal.as_ref().map_or(0, |w| w.compactions()) as f64,
            ),
        ]);

        let pool = self.pool_telemetry.snapshot();
        let busy: u64 = pool.shards.iter().map(|s| s.drain_ns.sum).sum();
        let depth: u64 = pool
            .shards
            .iter()
            .map(|s| s.queue_depth.quantile(0.5))
            .sum();
        let mean_frames = self.shard_frames.iter().sum::<u64>().max(1) as f64 / 2.0;
        metrics.extend([
            Metric::exact(
                "ipsec.shard.imbalance",
                "ratio",
                *self.shard_frames.iter().max().unwrap_or(&0) as f64 / mean_frames,
            ),
            Metric::exact("ipsec.pool.busy_ns", "ns", busy as f64 / frames),
            Metric::exact("ipsec.pool.queue_depth_p50", "count", depth as f64 / 2.0),
        ]);

        let started = Instant::now();
        let snapshot = self.telemetry.snapshot();
        let snapshot_us = started.elapsed().as_nanos() as f64 / 1000.0;
        let mismatch: u64 = ["delivered", "replay_dropped", "recovered"]
            .iter()
            .zip(self.expected_events)
            .map(|(kind, want)| snapshot.event(kind).abs_diff(want))
            .sum();
        metrics.extend([
            Metric::exact("telemetry.snapshot_us", "us", snapshot_us),
            Metric::exact("telemetry.counter_mismatch", "count", mismatch as f64),
        ]);

        let push = value(&metrics, "ipsec.gateway.push_ns");
        let attributed: f64 = [
            "wire.parse_ns",
            "ipsec.sadb.lookup_ns",
            "crypto.verify_batch_ns",
            "core.machine_ns",
            "crypto.decrypt_ns",
        ]
        .iter()
        .map(|leaf| value(&metrics, leaf))
        .sum();
        // The rung that stands for the engine of the untraced pass.
        let same_engine = match self.spec.shards {
            Some(_) => value(&metrics, "ipsec.shard.push_ns_2"),
            None => push,
        };
        metrics.extend([
            Metric::exact("ledger.unattributed_ns", "ns", push - attributed),
            Metric::exact(
                "ledger.unattributed_share",
                "ratio",
                if push > 0.0 {
                    (push - attributed) / push
                } else {
                    0.0
                },
            ),
            Metric::exact(
                "trace.overhead_pct",
                "%",
                if untraced_push_ns > 0.0 {
                    100.0 * (same_engine / untraced_push_ns - 1.0)
                } else {
                    0.0
                },
            ),
        ]);
        Ok(Ledger {
            metrics,
            spans: self.spans,
        })
    }
}

/// One span per line: `{workload, batch, layer, name, start_ns, end_ns,
/// parent, units}`; `parent` names the rung above for the same batch.
pub fn spans_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        let (layer, name) = span.metric.rsplit_once('.').unwrap_or(("", span.metric));
        let line = Json::obj(vec![
            ("workload", Json::str(workload)),
            ("batch", Json::U64(span.batch)),
            ("layer", Json::str(layer)),
            ("name", Json::str(name)),
            ("start_ns", Json::U64(span.start_ns)),
            ("end_ns", Json::U64(span.end_ns)),
            ("parent", parent(span.metric).map_or(Json::Null, Json::str)),
            ("units", Json::U64(span.units)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(metric: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            batch: 1,
            metric,
            start_ns,
            end_ns,
            units: 10,
        }
    }

    #[test]
    fn self_time_subtracts_every_child_rung() {
        let esp = span("ipsec.esp.process_batch_ns", 0, 1000);
        let verify = span("crypto.verify_batch_ns", 1000, 1400);
        let machine = span("core.machine_ns", 1400, 1500);
        let decrypt = span("crypto.decrypt_ns", 1500, 1700);
        assert_eq!(self_ns(&esp, &[&verify, &machine, &decrypt]), 300);
        assert_eq!(self_ns(&esp, &[]), 1000);
        // Children that (by noise) outlast the parent leave no self time.
        assert_eq!(self_ns(&machine, &[&esp]), 0);
    }

    #[test]
    fn every_parent_is_itself_a_rung_and_the_tree_has_no_cycle() {
        for leaf in [
            "crypto.seal_ns",
            "core.window_ns",
            "ipsec.shard.submit_ns",
            "wire.parse_ns",
        ] {
            let (mut at, mut depth) = (leaf, 0);
            while let Some(up) = parent(at) {
                at = up;
                depth += 1;
                assert!(depth < 8, "cycle above {leaf}");
            }
            assert!(
                at.starts_with("ipsec.gateway.") || at == "ipsec.shard.push_ns_2",
                "{at}"
            );
        }
    }

    #[test]
    fn span_lines_carry_layer_name_and_parent() {
        let line = spans_jsonl("steady_small", &[span("ipsec.sadb.lookup_ns", 5, 9)]);
        assert_eq!(
            line,
            "{\"workload\":\"steady_small\",\"batch\":1,\"layer\":\"ipsec.sadb\",\
             \"name\":\"lookup_ns\",\"start_ns\":5,\"end_ns\":9,\
             \"parent\":\"ipsec.sadb.process_batch_ns\",\"units\":10}\n"
        );
    }
}
