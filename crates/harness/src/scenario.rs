//! The timed scenario runner: one unidirectional SA under faults.
//!
//! A scenario wires together the paper's whole cast: sender `p` and
//! receiver `q` (SAVE/FETCH or the §2/§3 baseline), the faulty channel,
//! the replay adversary, the background-save latency of the persistent
//! store, reset/wake-up schedules, and an online [`Monitor`] checking the
//! §5 guarantees. All randomness forks from one seed; runs are exactly
//! reproducible.
//!
//! Every scenario runs the shipped engine: a
//! [`reset_ipsec::ShardedGateway`] pair exchanging suite-framed wire
//! bytes over the faulty link, so the adversary replays recorded
//! ciphertext and every fault/adversary/reset scenario can sweep cipher
//! suites. [`Protocol`] is the one switch between SAVE/FETCH and the §3
//! naive restart. Fleet transports ([`Transport::esp_fleet`] with
//! `shards > 1`) run on the engine's persistent worker-pool runtime: the
//! pool's threads are spawned once when the scenario builds its
//! gateways, every `protect`/`push_wire` routes as a job to the owning
//! shard's long-lived worker, and the timed wake-up hooks (`Ev::Wake` →
//! `begin_recover`, `Ev::FinishWake` → `finish_recover`) submit the
//! recovery halves shard-parallel while the simulator models the SAVE
//! device latency between them. With `shards == 1` (the default) the
//! pool is degenerate — zero threads, jobs run inline — so single-tunnel
//! scenarios cost exactly what a plain [`reset_ipsec::Gateway`] would.

use std::collections::{BTreeMap, VecDeque};

use anti_replay::{Phase, SeqNum};
use bytes::Bytes;
use reset_ipsec::{
    CryptoSuite, GatewayBuilder, GatewayEvent, SaKeys, SecurityAssociation, ShardedGateway,
};
use reset_sim::{DetRng, SimDuration, SimTime, Simulator};
use reset_stable::{MemStable, SaveLatencyModel};
use reset_telemetry::Json;

use crate::channel::{Link, LinkConfig, LinkStats, Tap};
use crate::monitor::{Monitor, MsgId, Origin, Report};
use crate::report::{RunReport, RunTotals, SaVerdict};
use crate::workload::Workload;

/// Which protocol variant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// §4: SAVE/FETCH with the `2K` leap.
    SaveFetch,
    /// §2 protocol with the §3 naive restart (the vulnerable baseline):
    /// a reset rebuilds the struck gateway from scratch — counters at 1,
    /// window empty, tearing down and respawning the whole pool, which is
    /// exactly what a naive restart costs.
    Baseline,
}

/// What crosses the link: real ESP frames sealed by a
/// [`reset_ipsec::ShardedGateway`] pair on the persistent worker-pool
/// runtime. The adversary replays recorded *ciphertext*, resets strike
/// whole gateways, and recovery runs the engine's shard-parallel
/// SAVE/FETCH path on the pool's long-lived workers.
///
/// Build it with [`Transport::esp`] or [`Transport::esp_fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transport {
    /// Cipher suite every SA of the fleet negotiates.
    pub suite: CryptoSuite,
    /// How many SAs (SPIs `1..=sa_count`) the gateway pair serves; the
    /// workload round-robins sends across them. `1` reproduces the
    /// paper's single-tunnel experiments.
    pub sa_count: u32,
    /// Worker shards per gateway (see
    /// [`reset_ipsec::GatewayBuilder::shards`]). `1` is the
    /// single-threaded engine, bit-identical to [`reset_ipsec::Gateway`].
    pub shards: usize,
}

impl Transport {
    /// Single-SA, single-shard transport — the paper's one-tunnel
    /// experiments.
    pub fn esp(suite: CryptoSuite) -> Transport {
        Transport::esp_fleet(suite, 1, 1)
    }

    /// A many-SA fleet between one sharded gateway pair: reset storms
    /// exercise `recover_all` at gateway scale, shard-parallel.
    pub fn esp_fleet(suite: CryptoSuite, sa_count: u32, shards: usize) -> Transport {
        Transport {
            suite,
            sa_count: sa_count.max(1),
            shards: shards.max(1),
        }
    }
}

/// What the adversary does during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryPlan {
    /// Passive (records but never injects).
    None,
    /// Replays the entire recorded history the moment the receiver
    /// restarts — the §3 attack on a reset receiver.
    ReplayAllOnReceiverRestart,
    /// Replays the highest recorded sequence number after a restart —
    /// the §3 blackhole attack (aimed at a freshly reset receiver while
    /// the sender also restarted).
    ReplayLatestOnRestart,
    /// Injects `count` random recorded messages every `every`.
    PeriodicRandom {
        /// Injection period.
        every: SimDuration,
        /// Copies per injection.
        count: usize,
    },
}

/// Full scenario parameterization.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Root RNG seed.
    pub seed: u64,
    /// Protocol variant.
    pub protocol: Protocol,
    /// The gateway pair's suite, fleet size and shard count (default:
    /// one SA, one shard, the default suite).
    pub transport: Transport,
    /// Sender save interval `Kp`.
    pub kp: u64,
    /// Receiver save interval `Kq`.
    pub kq: u64,
    /// Anti-replay window size `w`.
    pub w: u64,
    /// Message arrival process.
    pub workload: Workload,
    /// SAVE device latency.
    pub save_latency: SaveLatencyModel,
    /// Channel faults.
    pub link: LinkConfig,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Instants at which the sender is reset.
    pub sender_resets: Vec<SimTime>,
    /// Instants at which the receiver is reset.
    pub receiver_resets: Vec<SimTime>,
    /// How long a reset machine stays down before waking.
    pub downtime: SimDuration,
    /// Adversary behaviour.
    pub adversary: AdversaryPlan,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0,
            protocol: Protocol::SaveFetch,
            transport: Transport::esp(CryptoSuite::default()),
            kp: 25,
            kq: 25,
            w: 64,
            workload: Workload::paper_rate(),
            save_latency: SaveLatencyModel::paper_disk(),
            link: LinkConfig::perfect(),
            duration: SimDuration::from_millis(10),
            sender_resets: Vec::new(),
            receiver_resets: Vec::new(),
            downtime: SimDuration::from_millis(1),
            adversary: AdversaryPlan::None,
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The monitors' ground-truth report, aggregated across every SA of
    /// the fleet (§5 guarantees; sums of counters, concatenated
    /// violations).
    pub monitor: Report,
    /// One ground-truth report per SA (index `spi - 1`) — the paper's
    /// guarantees are per-SA, so fleet experiments assert on these.
    pub per_sa: Vec<Report>,
    /// Messages whose delivery hit a down receiver.
    pub dropped_down: u64,
    /// Channel statistics.
    pub link: LinkStats,
    /// Adversary injections performed.
    pub injected: u64,
    /// Final sender counter (next to send).
    pub final_next_seq: u64,
    /// Final receiver right edge.
    pub final_right_edge: u64,
    /// Sender resets executed.
    pub sender_resets: u64,
    /// Receiver resets executed.
    pub receiver_resets: u64,
    /// Virtual time at the end of the run.
    pub end_time: SimTime,
}

impl ScenarioOutcome {
    /// Converts into the unified `reset-report/v1` schema. Monitors are
    /// ground truth here, so the totals come from them rather than from
    /// gateway telemetry: `delivered` counts fresh instances,
    /// `sacrificed` is the §5(i) leap loss, and each SA of the fleet
    /// gets a verdict row (`spi = index + 1`). Scenario-specific
    /// counters ride in `extra`.
    pub fn to_run_report(&self, seed: u64) -> RunReport {
        let mut report = RunReport::new("scenario", seed);
        report.totals = RunTotals {
            delivered: self.monitor.fresh_delivered,
            replays_rejected: self.monitor.replays_rejected,
            replays_accepted: self.monitor.replays_accepted,
            sacrificed: self.monitor.seqs_lost_to_leaps,
            failed_closed: 0,
            resets: self.sender_resets + self.receiver_resets,
        };
        report.verdicts = self
            .per_sa
            .iter()
            .enumerate()
            .map(|(i, r)| SaVerdict {
                spi: i as u32 + 1,
                sent: r.sent,
                delivered: r.fresh_delivered,
                sacrificed: r.seqs_lost_to_leaps,
                replays_rejected: r.replays_rejected,
                epochs: 1, // scenarios never rekey
                resets_survived: self.receiver_resets,
                ok: r.clean() && r.replays_accepted == 0,
            })
            .collect();
        report.extra = vec![
            ("dropped_down".into(), Json::U64(self.dropped_down)),
            ("injected".into(), Json::U64(self.injected)),
            ("final_next_seq".into(), Json::U64(self.final_next_seq)),
            ("final_right_edge".into(), Json::U64(self.final_right_edge)),
            ("end_time_ns".into(), Json::U64(self.end_time.as_nanos())),
        ];
        report
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    P,
    Q,
}

/// One message instance on the wire: the SA it belongs to, the sequence
/// number the protocol sees, the ground-truth instance identity the
/// monitor tracks, and the sealed frame the adversary records and
/// replays byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Msg {
    id: MsgId,
    spi: u32,
    seq: SeqNum,
    wire: Bytes,
}

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Msg is a few words; boxing would cost more
enum Ev {
    Send,
    Deliver(Msg, Origin),
    SaveDone(Side),
    Reset(Side),
    Wake(Side),
    FinishWake(Side),
    AdversaryTick,
}

/// The representative SA every scenario serves (SPI 1 of the fleet):
/// phase probes and the outcome's final counters read it.
const ESP_SPI: u32 = 1;
/// Shared keying material both gateway halves derive the fleet from.
const ESP_MASTER: &[u8] = b"scenario-esp-master";
/// Fixed application payload.
const ESP_PAYLOAD: &[u8] = b"scenario payload";

/// One half of the gateway pair at its initial state: the sender `p`
/// holds the outbound fleet and saves every `kp`, the receiver `q` the
/// inbound fleet and saves every `kq`.
fn esp_gateway(cfg: &ScenarioConfig, side: Side) -> ShardedGateway<MemStable> {
    let Transport {
        suite,
        sa_count,
        shards,
    } = cfg.transport;
    let k = match side {
        Side::P => cfg.kp,
        Side::Q => cfg.kq,
    };
    let mut gw = GatewayBuilder::in_memory_sharded(shards)
        .suite(suite)
        .save_interval(k)
        .window(cfg.w)
        .build_sharded();
    for spi in 1..=sa_count {
        let keys = SaKeys::derive(ESP_MASTER, &spi.to_be_bytes());
        let sa = SecurityAssociation::new(spi, keys).with_suite(suite);
        match side {
            Side::P => gw.install_outbound(sa),
            Side::Q => gw.install_inbound(sa),
        }
    }
    gw
}

/// Runs one scenario to completion.
///
/// # Examples
///
/// ```
/// use reset_harness::{run_scenario, ScenarioConfig};
///
/// let outcome = run_scenario(ScenarioConfig::default());
/// assert!(outcome.monitor.clean());
/// assert!(outcome.monitor.fresh_delivered > 0);
/// ```
pub fn run_scenario(config: ScenarioConfig) -> ScenarioOutcome {
    ScenarioRunner::new(config).run()
}

struct ScenarioRunner {
    cfg: ScenarioConfig,
    sim: Simulator<Ev>,
    /// The sender `p`'s gateway (outbound fleet).
    tx: ShardedGateway<MemStable>,
    /// The receiver `q`'s gateway (inbound fleet).
    rx: ShardedGateway<MemStable>,
    /// [`Protocol::Baseline`]: resets rebuild the struck gateway and
    /// nothing is saved.
    baseline: bool,
    /// One ground-truth monitor per SA (index `spi - 1`; the paper's
    /// guarantees — and sequence-number identity — are per-SA).
    monitors: Vec<Monitor>,
    tap: Tap<Msg>,
    link: Link,
    workload: Workload,
    workload_rng: DetRng,
    latency_rng: DetRng,
    adv_rng: DetRng,
    p_save_outstanding: bool,
    q_save_outstanding: bool,
    /// Ground-truth identities of frames buffered during a wake-up,
    /// keyed per SA: recovery resolves buffered frames grouped by SA
    /// (shard-then-SPI order), so a single global FIFO would misattach
    /// identities once more than one SA buffers.
    buffered_meta: BTreeMap<u32, VecDeque<(MsgId, Origin)>>,
    next_msg_id: u64,
    /// Round-robin cursor spreading sends across the fleet.
    send_attempts: u64,
    dropped_down: u64,
    /// Per-SA sender counters captured at the last reset (index
    /// `spi - 1`).
    p_next_at_reset: Vec<SeqNum>,
    p_resets: u64,
    q_resets: u64,
    /// Baseline both-reset bookkeeping for ReplayLatestOnRestart.
    pending_latest_replay: bool,
}

impl ScenarioRunner {
    fn new(mut cfg: ScenarioConfig) -> Self {
        // The constructors clamp these, but the fields are public —
        // clamp again so a hand-built `sa_count: 0` degrades to the
        // minimal fleet instead of panicking mid-run.
        cfg.transport.sa_count = cfg.transport.sa_count.max(1);
        cfg.transport.shards = cfg.transport.shards.max(1);
        let mut sim = Simulator::new(cfg.seed);
        let link_rng = sim.rng().fork();
        let workload_rng = sim.rng().fork();
        let latency_rng = sim.rng().fork();
        let adv_rng = sim.rng().fork();
        let sa_count = cfg.transport.sa_count as usize;
        let link = Link::new(cfg.link, link_rng);
        let workload = cfg.workload.clone();
        ScenarioRunner {
            tx: esp_gateway(&cfg, Side::P),
            rx: esp_gateway(&cfg, Side::Q),
            baseline: cfg.protocol == Protocol::Baseline,
            cfg,
            sim,
            monitors: (0..sa_count).map(|_| Monitor::new()).collect(),
            tap: Tap::new(),
            link,
            workload,
            workload_rng,
            latency_rng,
            adv_rng,
            p_save_outstanding: false,
            q_save_outstanding: false,
            buffered_meta: BTreeMap::new(),
            next_msg_id: 0,
            send_attempts: 0,
            dropped_down: 0,
            p_next_at_reset: vec![SeqNum::ZERO; sa_count],
            p_resets: 0,
            q_resets: 0,
            pending_latest_replay: false,
        }
    }

    fn run(mut self) -> ScenarioOutcome {
        self.sim.schedule_at(SimTime::ZERO, Ev::Send);
        for &t in &self.cfg.sender_resets {
            self.sim.schedule_at(t, Ev::Reset(Side::P));
        }
        for &t in &self.cfg.receiver_resets {
            self.sim.schedule_at(t, Ev::Reset(Side::Q));
        }
        if let AdversaryPlan::PeriodicRandom { every, .. } = self.cfg.adversary {
            self.sim
                .schedule_at(SimTime::ZERO + every, Ev::AdversaryTick);
        }
        let deadline = SimTime::ZERO + self.cfg.duration;
        // Pump events up to the deadline; later ones stay queued.
        loop {
            match self.sim.peek_time() {
                Some(t) if t <= deadline => {}
                _ => break,
            }
            let (now, ev) = self.sim.next_event().expect("peeked");
            self.handle(now, ev);
        }
        self.finish()
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Send => self.on_send(now),
            Ev::Deliver(seq, origin) => self.on_deliver(seq, origin),
            Ev::SaveDone(side) => self.on_save_done(side),
            Ev::Reset(side) => self.on_reset(now, side),
            Ev::Wake(side) => self.on_wake(now, side),
            Ev::FinishWake(side) => self.on_finish_wake(side),
            Ev::AdversaryTick => self.on_adversary_tick(now),
        }
    }

    /// The monitor owning `spi`'s ground truth.
    fn mon(&mut self, spi: u32) -> &mut Monitor {
        &mut self.monitors[spi.saturating_sub(1) as usize]
    }

    /// The gateway of `side`.
    fn gateway(&mut self, side: Side) -> &mut ShardedGateway<MemStable> {
        match side {
            Side::P => &mut self.tx,
            Side::Q => &mut self.rx,
        }
    }

    /// The next sequence number of every SA of the sender's fleet.
    fn sender_counters(&self) -> Vec<SeqNum> {
        (1..=self.cfg.transport.sa_count)
            .map(|spi| self.tx.next_seq(spi).expect("sa installed"))
            .collect()
    }

    fn on_send(&mut self, now: SimTime) {
        // Sends round-robin across the fleet (SPI 1..=sa_count); with a
        // single SA this degenerates to the original fixed-SPI stream.
        let spi = 1 + (self.send_attempts % self.monitors.len() as u64) as u32;
        self.send_attempts += 1;
        if let Some(frame) = self.tx.protect(spi, ESP_PAYLOAD).expect("mem store") {
            let msg = Msg {
                id: MsgId(self.next_msg_id),
                spi,
                seq: frame.seq,
                wire: frame.wire,
            };
            self.next_msg_id += 1;
            self.mon(spi).on_send(msg.seq);
            self.tap.record(msg.clone());
            self.transmit(now, msg, true);
            self.maybe_schedule_save(Side::P, now);
        }
        let gap = self.workload.next_gap(&mut self.workload_rng);
        self.sim.schedule_at(now + gap, Ev::Send);
    }

    /// Pushes one message instance through the link; `fresh` marks the
    /// sender's original (vs an adversary injection).
    fn transmit(&mut self, now: SimTime, msg: Msg, fresh: bool) {
        let deliveries = self.link.transmit(now, msg);
        for (i, (at, msg)) in deliveries.into_iter().enumerate() {
            let origin = if !fresh {
                Origin::Adversary
            } else if i == 0 {
                Origin::Original
            } else {
                Origin::ChannelDup
            };
            self.sim.schedule_at(at, Ev::Deliver(msg, origin));
        }
    }

    fn on_deliver(&mut self, msg: Msg, origin: Origin) {
        self.rx.push_wire(&msg.wire).expect("mem store");
        for ev in self.rx.poll_events() {
            self.note_gateway_event(ev, &msg, origin);
        }
        // Receiver-side background save (SAVE/FETCH only).
        let now = self.sim.now();
        self.maybe_schedule_save(Side::Q, now);
    }

    /// Maps one receiver-gateway event onto the owning SA's ground
    /// truth. `msg` is the instance whose push produced the event.
    fn note_gateway_event(&mut self, ev: GatewayEvent, msg: &Msg, origin: Origin) {
        match ev {
            GatewayEvent::Delivered { seq, .. } => {
                self.mon(msg.spi).on_deliver(Some(msg.id), seq, origin)
            }
            GatewayEvent::ReplayDropped { .. } => {
                self.mon(msg.spi).on_discard(Some(msg.id), origin)
            }
            GatewayEvent::Buffered { .. } => self
                .buffered_meta
                .entry(msg.spi)
                .or_default()
                .push_back((msg.id, origin)),
            GatewayEvent::DroppedDown { .. } => self.dropped_down += 1,
            // Genuine recorded frames always authenticate; reaching here
            // would be a harness bug, but count it as a discard rather
            // than corrupting the run.
            GatewayEvent::AuthFailed { .. } | GatewayEvent::UnknownSa { .. } => {
                self.mon(msg.spi).on_discard(Some(msg.id), origin)
            }
            // No DPD/rekey policies are configured on scenario gateways.
            _ => {}
        }
    }

    fn maybe_schedule_save(&mut self, side: Side, now: SimTime) {
        // The baseline performs no SAVEs (its restart ignores the store),
        // so only SAVE/FETCH gateways model save latency.
        if self.baseline || !self.gateway(side).pending_save() {
            return;
        }
        let outstanding = match side {
            Side::P => &mut self.p_save_outstanding,
            Side::Q => &mut self.q_save_outstanding,
        };
        if !*outstanding {
            *outstanding = true;
            let d = self.cfg.save_latency.sample_ns(self.latency_rng.next_u64());
            self.sim
                .schedule_at(now + SimDuration::from_nanos(d), Ev::SaveDone(side));
        }
    }

    fn on_save_done(&mut self, side: Side) {
        match side {
            Side::P => self.p_save_outstanding = false,
            Side::Q => self.q_save_outstanding = false,
        }
        self.gateway(side).save_completed().expect("mem store");
        // A superseding issue may already be pending again.
        let now = self.sim.now();
        self.maybe_schedule_save(side, now);
    }

    fn on_reset(&mut self, now: SimTime, side: Side) {
        if self.baseline {
            // §3 naive restart: the struck gateway is rebuilt from
            // scratch — counters at 1, window empty, same keys — and
            // resumes immediately.
            match side {
                Side::P => {
                    let old_next = self.sender_counters();
                    self.tx = esp_gateway(&self.cfg, Side::P);
                    self.p_resets += 1;
                    let kp = self.cfg.kp;
                    for (i, old) in old_next.into_iter().enumerate() {
                        self.mon(i as u32 + 1)
                            .on_sender_wakeup(old, SeqNum::FIRST, kp);
                    }
                    if self.cfg.adversary == AdversaryPlan::ReplayLatestOnRestart {
                        self.pending_latest_replay = true;
                        self.try_latest_replay();
                    }
                }
                Side::Q => {
                    self.buffered_meta.clear();
                    self.rx = esp_gateway(&self.cfg, Side::Q);
                    self.q_resets += 1;
                    self.post_receiver_wakeup_adversary();
                }
            }
            return;
        }
        // SAVE/FETCH: the whole fleet goes down and recovers through the
        // engine's shard-parallel FETCH + 2K leap after the configured
        // downtime.
        match side {
            Side::P => {
                if self.tx.phase(ESP_SPI) == Some(Phase::Running) {
                    self.p_next_at_reset = self.sender_counters();
                }
                self.tx.reset();
                self.p_resets += 1;
            }
            Side::Q => {
                self.buffered_meta.clear();
                self.rx.reset();
                self.q_resets += 1;
            }
        }
        self.sim
            .schedule_at(now + self.cfg.downtime, Ev::Wake(side));
    }

    /// Adversary injection happens at the receiver's last hop: the §2
    /// threat model lets the adversary insert copies "at any instant",
    /// so injections do not queue behind in-flight fresh traffic.
    fn inject_now(&mut self, msg: Msg) {
        self.sim.schedule_now(Ev::Deliver(msg, Origin::Adversary));
    }

    fn try_latest_replay(&mut self) {
        if self.pending_latest_replay {
            if let Some(msg) = self.tap.replay_latest() {
                self.inject_now(msg);
                self.pending_latest_replay = false;
            }
        }
    }

    fn replay_all(&mut self) {
        for msg in self.tap.replay_all() {
            self.inject_now(msg);
        }
    }

    fn on_wake(&mut self, now: SimTime, side: Side) {
        let d = self.cfg.save_latency.sample_ns(self.latency_rng.next_u64());
        let gw = self.gateway(side);
        // Stale wakes after overlapping resets are ignored.
        if gw.phase(ESP_SPI) != Some(Phase::Down) {
            return;
        }
        gw.begin_recover().expect("mem store");
        self.sim
            .schedule_at(now + SimDuration::from_nanos(d), Ev::FinishWake(side));
    }

    fn on_finish_wake(&mut self, side: Side) {
        let gw = self.gateway(side);
        if gw.phase(ESP_SPI) != Some(Phase::Waking) {
            return;
        }
        gw.finish_recover().expect("mem store");
        let events = gw.poll_events();
        match side {
            Side::P => {
                // Recovered{..} only: the monitor tracks senders itself.
                let kp = self.cfg.kp;
                for (i, resumed) in self.sender_counters().into_iter().enumerate() {
                    let old = self.p_next_at_reset[i];
                    self.mon(i as u32 + 1).on_sender_wakeup(old, resumed, kp);
                }
            }
            Side::Q => {
                for ev in events {
                    match ev {
                        GatewayEvent::Recovered { .. } => {}
                        // Buffered frames resolve grouped by SA, each
                        // SA's in arrival order; their ground-truth
                        // identities queued per SA at buffering time.
                        GatewayEvent::Delivered { spi, seq, .. } => {
                            let (id, origin) = self.pop_buffered_meta(spi);
                            self.mon(spi).on_deliver(id, seq, origin);
                        }
                        GatewayEvent::ReplayDropped { spi, .. } => {
                            let (id, origin) = self.pop_buffered_meta(spi);
                            self.mon(spi).on_discard(id, origin);
                        }
                        other => unreachable!("unexpected recovery event {other:?}"),
                    }
                }
                self.post_receiver_wakeup_adversary();
            }
        }
    }

    fn pop_buffered_meta(&mut self, spi: u32) -> (Option<MsgId>, Origin) {
        self.buffered_meta
            .get_mut(&spi)
            .and_then(|q| q.pop_front())
            .map(|(i, o)| (Some(i), o))
            .unwrap_or((None, Origin::Original))
    }

    /// The §3 adversary strikes the moment the receiver is back up.
    fn post_receiver_wakeup_adversary(&mut self) {
        match self.cfg.adversary {
            AdversaryPlan::ReplayAllOnReceiverRestart => self.replay_all(),
            AdversaryPlan::ReplayLatestOnRestart => {
                self.pending_latest_replay = true;
                self.try_latest_replay();
            }
            _ => {}
        }
    }

    fn on_adversary_tick(&mut self, now: SimTime) {
        if let AdversaryPlan::PeriodicRandom { every, count } = self.cfg.adversary {
            let picks = self.tap.replay_random(count, &mut self.adv_rng);
            for msg in picks {
                self.inject_now(msg);
            }
            self.sim.schedule_at(now + every, Ev::AdversaryTick);
        }
    }

    fn finish(self) -> ScenarioOutcome {
        let final_next_seq = self.tx.next_seq(ESP_SPI).expect("sa installed").value();
        let final_right_edge = self.rx.right_edge(ESP_SPI).expect("sa installed").value();
        let per_sa: Vec<Report> = self
            .monitors
            .into_iter()
            .map(Monitor::into_report)
            .collect();
        // Counters sum and violations concatenate in SPI order, so the
        // aggregate is clean only if every SA's run was.
        let monitor = per_sa.iter().fold(Report::default(), |mut total, r| {
            total.merge(r);
            total
        });
        ScenarioOutcome {
            monitor,
            per_sa,
            dropped_down: self.dropped_down,
            link: self.link.stats(),
            injected: self.tap.injected(),
            final_next_seq,
            final_right_edge,
            sender_resets: self.p_resets,
            receiver_resets: self.q_resets,
            end_time: self.sim.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_report_renders_the_unified_schema() {
        let out = run_scenario(ScenarioConfig::default());
        let report = out.to_run_report(0);
        assert_eq!(report.totals.delivered, out.monitor.fresh_delivered);
        let json = report.render_json();
        assert!(
            json.starts_with("{\"schema\":\"reset-report/v1\",\"kind\":\"scenario\""),
            "{json}"
        );
        assert!(json.contains("\"final_right_edge\":"), "{json}");
    }

    #[test]
    fn reproducible_for_seed() {
        let run = |seed| {
            let cfg = ScenarioConfig {
                seed,
                link: LinkConfig::lossy(0.1),
                receiver_resets: vec![SimTime::from_millis(3)],
                adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
                ..ScenarioConfig::default()
            };
            let o = run_scenario(cfg);
            (
                o.monitor.sent,
                o.monitor.fresh_delivered,
                o.final_right_edge,
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn savefetch_sender_reset_no_fresh_loss_in_order() {
        let cfg = ScenarioConfig {
            sender_resets: vec![SimTime::from_millis(4)],
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert!(out.monitor.clean(), "{:?}", out.monitor.violations);
        assert_eq!(out.monitor.fresh_discarded, 0, "condition (i)");
        assert_eq!(out.monitor.replays_accepted, 0);
        assert!(out.monitor.seqs_lost_to_leaps <= 2 * 25);
        assert_eq!(out.sender_resets, 1);
    }

    #[test]
    fn baseline_sender_reset_discards_fresh() {
        let cfg = ScenarioConfig {
            protocol: Protocol::Baseline,
            sender_resets: vec![SimTime::from_millis(4)],
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert!(
            out.monitor.fresh_discarded > 100,
            "unbounded fresh loss: {}",
            out.monitor.fresh_discarded
        );
    }

    #[test]
    fn periodic_replay_noise_never_accepted_by_savefetch() {
        let cfg = ScenarioConfig {
            adversary: AdversaryPlan::PeriodicRandom {
                every: SimDuration::from_micros(100),
                count: 3,
            },
            link: LinkConfig::lossy(0.05),
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert_eq!(out.monitor.replays_accepted, 0);
        assert!(out.injected > 100);
        assert!(out.monitor.clean());
    }

    #[test]
    fn lossy_link_duplicates_never_double_deliver() {
        let cfg = ScenarioConfig {
            link: LinkConfig {
                drop_prob: 0.1,
                duplicate_prob: 0.2,
                ..LinkConfig::perfect()
            },
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert!(out.monitor.clean());
        assert_eq!(out.monitor.replays_accepted, 0, "dups never double-deliver");
    }

    /// The two transforms the §3 experiments must sweep: the auth-only
    /// one delivers without a copy, the AEAD through the drain's arena.
    const ESP_SUITES: [CryptoSuite; 2] = [
        CryptoSuite::HmacSha256AuthOnly,
        CryptoSuite::ChaCha20Poly1305,
    ];

    /// The default scenario (the `ChaCha20Poly1305` half) and the same
    /// under the HMAC suite.
    #[test]
    fn esp_transport_default_run_is_clean_for_both_suites() {
        for suite in ESP_SUITES {
            let cfg = ScenarioConfig {
                transport: Transport::esp(suite),
                ..ScenarioConfig::default()
            };
            let end = SimTime::ZERO + cfg.duration;
            let out = run_scenario(cfg);
            assert!(
                out.monitor.clean(),
                "{suite:?}: {:?}",
                out.monitor.violations
            );
            assert!(out.monitor.sent > 1000, "{suite:?}: paper rate over 10ms");
            assert!(out.monitor.fresh_delivered > 500, "{suite:?}");
            assert_eq!(out.monitor.fresh_discarded, 0, "{suite:?}");
            assert_eq!(out.monitor.replays_accepted, 0, "{suite:?}");
            assert!(
                out.end_time <= end,
                "{suite:?}: an event past the run's end was handled"
            );
        }
    }

    #[test]
    fn esp_transport_savefetch_defeats_section3_attack_for_both_suites() {
        for suite in ESP_SUITES {
            let cfg = ScenarioConfig {
                transport: Transport::esp(suite),
                receiver_resets: vec![SimTime::from_millis(4)],
                adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
                ..ScenarioConfig::default()
            };
            let out = run_scenario(cfg);
            assert!(
                out.monitor.clean(),
                "{suite:?}: {:?}",
                out.monitor.violations
            );
            assert_eq!(out.monitor.replays_accepted, 0, "{suite:?}");
            assert!(out.monitor.replays_rejected > 0, "{suite:?}: attack ran");
            assert!(
                out.monitor.fresh_discarded <= 2 * 25,
                "{suite:?}: condition (ii): {} > 2K",
                out.monitor.fresh_discarded
            );
            assert!(out.dropped_down > 0, "{suite:?}: downtime drops traffic");
        }
    }

    #[test]
    fn esp_transport_baseline_falls_to_section3_attack_for_both_suites() {
        for suite in ESP_SUITES {
            let cfg = ScenarioConfig {
                protocol: Protocol::Baseline,
                transport: Transport::esp(suite),
                receiver_resets: vec![SimTime::from_millis(4)],
                adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
                ..ScenarioConfig::default()
            };
            let out = run_scenario(cfg);
            assert!(
                out.monitor.replays_accepted > 100,
                "{suite:?}: the naive restart must accept the replayed \
                 ciphertext wholesale: {}",
                out.monitor.replays_accepted
            );
            assert!(!out.monitor.clean(), "{suite:?}");
        }
    }

    #[test]
    fn esp_transport_is_reproducible_for_seed() {
        let run = |seed| {
            let cfg = ScenarioConfig {
                seed,
                transport: Transport::esp(CryptoSuite::ChaCha20Poly1305),
                link: LinkConfig::lossy(0.1),
                receiver_resets: vec![SimTime::from_millis(3)],
                adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
                duration: SimDuration::from_millis(6),
                ..ScenarioConfig::default()
            };
            let o = run_scenario(cfg);
            (
                o.monitor.sent,
                o.monitor.fresh_delivered,
                o.final_right_edge,
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn multiple_resets_both_sides_stay_safe() {
        let cfg = ScenarioConfig {
            sender_resets: vec![SimTime::from_millis(2), SimTime::from_millis(6)],
            receiver_resets: vec![SimTime::from_millis(4), SimTime::from_millis(8)],
            adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
            link: LinkConfig::lossy(0.02),
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert_eq!(out.monitor.replays_accepted, 0);
        assert!(out.monitor.clean(), "{:?}", out.monitor.violations);
        assert_eq!(out.sender_resets, 2);
        assert_eq!(out.receiver_resets, 2);
    }

    #[test]
    fn esp_fleet_reset_storm_holds_section3_invariant_per_sa() {
        let cfg = ScenarioConfig {
            transport: Transport::esp_fleet(CryptoSuite::default(), 96, 4),
            receiver_resets: vec![SimTime::from_millis(4), SimTime::from_millis(7)],
            sender_resets: vec![SimTime::from_millis(5)],
            adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
            link: LinkConfig::lossy(0.02),
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert_eq!(out.per_sa.len(), 96);
        assert!(out.monitor.clean(), "{:?}", out.monitor.violations);
        assert!(out.monitor.replays_rejected > 0, "attack actually ran");
        let resets = out.receiver_resets + out.sender_resets;
        for (i, r) in out.per_sa.iter().enumerate() {
            assert_eq!(r.replays_accepted, 0, "SA {}", i + 1);
            assert!(
                r.fresh_discarded <= resets * 2 * 25,
                "SA {}: condition (ii) fleet-wide: {} > resets x 2K",
                i + 1,
                r.fresh_discarded
            );
        }
        // The round-robin workload actually exercised the whole fleet.
        assert!(out.per_sa.iter().all(|r| r.sent > 0));
    }

    #[test]
    fn esp_fleet_verdicts_are_shard_count_invariant() {
        // The scenario pushes one frame per link delivery, so per-SA
        // ground truth must be *identical* at any shard count — the
        // sharding is pure partitioning, not semantics.
        let run = |shards: usize| {
            let cfg = ScenarioConfig {
                seed: 23,
                transport: Transport::esp_fleet(CryptoSuite::default(), 32, shards),
                receiver_resets: vec![SimTime::from_millis(3)],
                adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
                link: LinkConfig::lossy(0.05),
                duration: SimDuration::from_millis(6),
                ..ScenarioConfig::default()
            };
            run_scenario(cfg)
        };
        let one = run(1);
        let four = run(4);
        let eight = run(8);
        assert_eq!(one.per_sa, four.per_sa);
        assert_eq!(one.per_sa, eight.per_sa);
        assert_eq!(one.final_right_edge, four.final_right_edge);
        assert!(one.monitor.clean(), "{:?}", one.monitor.violations);
    }

    #[test]
    fn esp_fleet_baseline_falls_to_the_attack_on_every_sa_it_reaches() {
        let cfg = ScenarioConfig {
            protocol: Protocol::Baseline,
            transport: Transport::esp_fleet(CryptoSuite::default(), 16, 2),
            receiver_resets: vec![SimTime::from_millis(4)],
            adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
            ..ScenarioConfig::default()
        };
        let out = run_scenario(cfg);
        assert!(
            out.monitor.replays_accepted > 100,
            "the naive fleet restart accepts the replayed ciphertext wholesale: {}",
            out.monitor.replays_accepted
        );
        assert!(!out.monitor.clean());
        // The damage is fleet-wide, not confined to one SA.
        let hit = out.per_sa.iter().filter(|r| r.replays_accepted > 0).count();
        assert!(hit >= 8, "only {hit}/16 SAs hit by the replay storm");
    }
}
