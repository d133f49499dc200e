//! Long-haul churn soak: a live fleet under continuous lifecycle churn
//! and an adversary zoo.
//!
//! The scenario runner proves the §3 invariants for a *fixed* fleet and
//! the fault campaign proves them against a hostile disk. This module
//! attacks the remaining axis: **time and churn**. One sender gateway
//! and one sharded receiver run for a compressed virtual span (the soak
//! preset covers ten simulated hours) while:
//!
//! * SAs join and leave continuously (SPIs are never reused — key
//!   derivation depends only on `(master, spi, direction)`, so reusing
//!   an SPI would let old recorded ciphertext authenticate under the
//!   "new" SA, a genuine deployment error rather than a protocol flaw);
//! * staggered reboots and full reset storms strike, with replay
//!   injection mid-outage, fresh traffic mid-wake-up, and the adversary
//!   zoo unleashed the moment recovery completes;
//! * mid-flight lockstep rekeys roll keys under live traffic;
//! * the link misbehaves: partitions eat whole batches, bounded
//!   reordering shuffles them (displacement < the window, so no false
//!   sacrifices), and duplicate trains re-deliver what just arrived.
//!
//! The adversary zoo ([`AdversaryZoo`]) mirrors §3's attack surface:
//! delay-then-replay across a reset (defeated by the `2K` leap),
//! highest-sequence replay per SA (the blackhole probe), single-shard
//! replay floods (load skew aimed at one worker), and cross-SA
//! reflection (defeated by direction-separated keys — restricted to
//! epoch-1 SAs because [`reset_ipsec::Gateway::rekey_now`] derives
//! symmetric replacement keys).
//!
//! The adversary taps the wire: its library holds only frames whose
//! delivery was *confirmed*, so any adversary injection is a true
//! replay and **zero adversary deliveries** is an exact invariant, not
//! a statistical one. Every accepted duplicate `(SA, epoch, seq)` is
//! counted as a replay acceptance and fails the run.
//!
//! Everything derives from one seed; per-SA verdicts are
//! **shard-count-invariant** (the schedule never reads shard-dependent
//! state, and per-SPI event subsequences are identical at any shard
//! count), which `tests/it_churn.rs` asserts at shards {1, 4}.

use std::collections::{BTreeMap, HashSet};

use bytes::Bytes;
use reset_ipsec::{CryptoSuite, Gateway, GatewayBuilder, GatewayEvent, ShardedGateway};
use reset_sim::splitmix64;
use reset_stable::MemStable;
use reset_telemetry::{Json, Snapshot, Telemetry};
use reset_wire::spi_shard;

use crate::report::{RunReport, RunTotals, SaVerdict, TimelinePoint};

/// Which adversary strategies run (all on by default). Per-strategy
/// unit tests switch on exactly one and assert its counter moved while
/// zero replays were accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversaryZoo {
    /// Stash delivered frames before a reset, replay them after
    /// recovery (the §3 attack the `2K` leap defeats).
    pub delayed_replay: bool,
    /// Replay each active SA's highest delivered sequence number after
    /// recovery (the blackhole probe).
    pub highest_seq: bool,
    /// Flood replays at the SAs of one canonical partition
    /// ([`ChurnConfig::flood_partitions`]) — load skew aimed at a
    /// single worker shard.
    pub shard_flood: bool,
    /// Reflect a delivered frame back into its own sender, and rewrite
    /// its SPI onto a sibling SA — both die at authentication.
    pub reflection: bool,
    /// Duplicate trains: re-push copies of frames the link just
    /// delivered.
    pub duplicates: bool,
}

impl AdversaryZoo {
    /// Every strategy enabled.
    pub const ALL: AdversaryZoo = AdversaryZoo {
        delayed_replay: true,
        highest_seq: true,
        shard_flood: true,
        reflection: true,
        duplicates: true,
    };

    /// Every strategy disabled (the base churn workload only).
    pub const NONE: AdversaryZoo = AdversaryZoo {
        delayed_replay: false,
        highest_seq: false,
        shard_flood: false,
        reflection: false,
        duplicates: false,
    };
}

/// Churn soak shape. Use [`ChurnConfig::quick`] for CI-speed runs and
/// [`ChurnConfig::soak`] for the long-haul lane.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Master seed; the whole run (churn, faults, storms, adversary
    /// schedules) reproduces from it.
    pub seed: u64,
    /// Cipher suite for every SA of the fleet.
    pub suite: CryptoSuite,
    /// Receiver worker shards.
    pub shards: usize,
    /// SAVE interval `K` (the sacrifice bound is `2K` per reset).
    pub save_interval: u64,
    /// Anti-replay window `w` (reorder displacement stays below it).
    pub window: u64,
    /// SAs installed before the first round.
    pub initial_sas: u32,
    /// Cap on simultaneously active SAs (joins stop here).
    pub max_sas: u32,
    /// Traffic rounds.
    pub rounds: u32,
    /// Fresh frames per round, round-robined across active SAs.
    pub packets_per_round: u32,
    /// Virtual span the rounds compress (drives the report timeline).
    pub sim_hours: f64,
    /// Full receiver reset storms, evenly spaced (every other storm
    /// also reboots the sender — the staggered-reboot case).
    pub reset_storms: u32,
    /// Lockstep-rekey one SA every this many rounds (0 disables).
    pub rekey_every_rounds: u32,
    /// Canonical partition count for the shard-flood strategy. Fixed
    /// independently of [`ChurnConfig::shards`] so the flood schedule —
    /// and with it every per-SA verdict — is shard-count-invariant
    /// while still generating per-shard skew evidence.
    pub flood_partitions: usize,
    /// Which adversary strategies run.
    pub adversaries: AdversaryZoo,
}

impl ChurnConfig {
    /// A CI-speed churn run: every mechanism exercised, ~a second of
    /// wall clock.
    pub fn quick(seed: u64) -> Self {
        ChurnConfig {
            seed,
            suite: CryptoSuite::default(),
            shards: 4,
            save_interval: 25,
            window: 64,
            initial_sas: 8,
            max_sas: 24,
            rounds: 60,
            packets_per_round: 48,
            sim_hours: 0.5,
            reset_storms: 3,
            rekey_every_rounds: 12,
            flood_partitions: 4,
            adversaries: AdversaryZoo::ALL,
        }
    }

    /// The long-haul soak: ten simulated hours of churn, six reset
    /// storms, a bigger fleet. Still seconds of wall clock — virtual
    /// time is compressed, not slept.
    pub fn soak(seed: u64) -> Self {
        ChurnConfig {
            initial_sas: 16,
            max_sas: 64,
            rounds: 400,
            packets_per_round: 120,
            sim_hours: 10.0,
            reset_storms: 6,
            rekey_every_rounds: 20,
            ..ChurnConfig::quick(seed)
        }
    }
}

/// Per-SA ledger (kept for retired SAs too — their verdicts still
/// count).
#[derive(Debug, Clone, Default)]
struct SaLedger {
    epoch: u32,
    sent: u64,
    delivered: u64,
    sacrificed: u64,
    replays_rejected: u64,
    replays_accepted: u64,
    resets_survived: u64,
    dropped_down: u64,
    active: bool,
    /// Last sequence number protect() issued in the current epoch — the
    /// monotonic-counter invariant is checked on every send.
    last_seq: u64,
}

/// Everything a finished churn run reports.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// The run's seed.
    pub seed: u64,
    /// Receiver shard count the run used.
    pub shards: usize,
    /// Per-SA verdicts, including retired SAs, in SPI order.
    pub verdicts: Vec<SaVerdict>,
    /// Fleet-wide totals.
    pub totals: RunTotals,
    /// Throughput timeline (one point per sampled round).
    pub timeline: Vec<TimelinePoint>,
    /// The receiver gateway's telemetry at the end of the run
    /// (per-shard skew, recovery-latency histogram, event counts).
    pub telemetry: Snapshot,
    /// Delay-then-replay injections performed.
    pub delayed_replays: u64,
    /// Highest-sequence replay injections performed.
    pub highest_seq_replays: u64,
    /// Shard-flood replay injections performed.
    pub shard_flood_replays: u64,
    /// Reflection/SPI-rewrite injections performed.
    pub reflections: u64,
    /// Duplicate-train injections performed.
    pub duplicate_injections: u64,
    /// SAs that joined after the initial install.
    pub joins: u64,
    /// SAs retired mid-run.
    pub leaves: u64,
    /// Lockstep rekeys performed.
    pub rekeys: u64,
    /// Reset storms executed.
    pub storms: u64,
    /// Sender reboots (the staggered half of the storms).
    pub sender_resets: u64,
    /// Virtual span covered.
    pub sim_ns: u64,
}

impl ChurnReport {
    /// True iff zero replays were accepted and every SA's sacrifice
    /// stayed within the paper's `2K · resets` bound.
    pub fn clean(&self) -> bool {
        self.totals.replays_accepted == 0 && self.verdicts.iter().all(|v| v.ok)
    }

    /// Converts into the unified `reset-report/v1` schema
    /// (`kind = "churn"`); strategy counters and churn statistics ride
    /// in `extra`.
    pub fn to_run_report(&self) -> RunReport {
        let mut report = RunReport::new("churn", self.seed);
        report.totals = self.totals.clone();
        report.verdicts = self.verdicts.clone();
        report.timeline = self.timeline.clone();
        report.telemetry = Some(self.telemetry.clone());
        report.extra = vec![
            ("shards".into(), Json::U64(self.shards as u64)),
            ("sim_ns".into(), Json::U64(self.sim_ns)),
            ("delayed_replays".into(), Json::U64(self.delayed_replays)),
            (
                "highest_seq_replays".into(),
                Json::U64(self.highest_seq_replays),
            ),
            (
                "shard_flood_replays".into(),
                Json::U64(self.shard_flood_replays),
            ),
            ("reflections".into(), Json::U64(self.reflections)),
            (
                "duplicate_injections".into(),
                Json::U64(self.duplicate_injections),
            ),
            ("joins".into(), Json::U64(self.joins)),
            ("leaves".into(), Json::U64(self.leaves)),
            ("rekeys".into(), Json::U64(self.rekeys)),
            ("storms".into(), Json::U64(self.storms)),
            ("sender_resets".into(), Json::U64(self.sender_resets)),
        ];
        report
    }
}

/// Shared keying material the fleet derives from.
const CHURN_MASTER: &[u8] = b"churn-soak-master";
/// Fixed application payload.
const CHURN_PAYLOAD: &[u8] = b"churn payload";
/// Frames per storm taken from the pre-reset library for the
/// delay-then-replay strategy.
const DELAYED_REPLAY_BATCH: usize = 96;
/// Copies per flooded frame in the shard-flood strategy.
const FLOOD_TRAIN: usize = 8;
/// Fresh frames pushed mid-wake-up per storm (buffered, resolved by
/// `finish_recover`; far below the wake-up buffer cap so none are
/// silently shed).
const MID_WAKE_FRESH: usize = 12;
/// Maximum reorder displacement — must stay below the window so a
/// reordered fresh batch never produces false sacrifices.
const REORDER_SPAN: usize = 8;

/// Runs one churn soak to completion.
///
/// # Panics
///
/// Panics (with the seed in the message) if the harness itself loses
/// track of a frame — invariant *violations* (accepted replays, blown
/// sacrifice bounds) are reported via [`ChurnReport`], not panics, so
/// tests can assert on them.
///
/// # Examples
///
/// ```
/// use reset_harness::{run_churn, ChurnConfig};
///
/// let report = run_churn(ChurnConfig::quick(7));
/// assert!(report.clean());
/// assert_eq!(report.totals.replays_accepted, 0);
/// ```
pub fn run_churn(cfg: ChurnConfig) -> ChurnReport {
    ChurnRunner::new(cfg).run()
}

struct ChurnRunner {
    cfg: ChurnConfig,
    rng: u64,
    tx: Gateway<MemStable>,
    rx: ShardedGateway<MemStable>,
    telemetry: Telemetry,
    /// Every SA ever installed, by SPI (retired SAs keep their ledger).
    sas: BTreeMap<u32, SaLedger>,
    /// Next SPI to hand out — never reused (see the module docs).
    next_spi: u32,
    /// Every `(spi, epoch, seq)` delivered so far; a second delivery of
    /// any key is an accepted replay.
    delivered: HashSet<(u32, u32, u64)>,
    /// The adversary's tap: wire bytes of *confirmed-delivered* frames,
    /// keyed `(spi, epoch, seq)` (BTreeMap so injection order is
    /// deterministic).
    library: BTreeMap<(u32, u32, u64), Bytes>,
    /// Fresh frames pushed but not yet resolved (buffered during a
    /// wake-up, or awaiting this drain's events).
    pending: BTreeMap<(u32, u32, u64), Bytes>,
    now_ns: u64,
    report: ChurnReportAcc,
}

/// Mutable accumulator for the scalar report fields.
#[derive(Debug, Default)]
struct ChurnReportAcc {
    delayed_replays: u64,
    highest_seq_replays: u64,
    shard_flood_replays: u64,
    reflections: u64,
    duplicate_injections: u64,
    joins: u64,
    leaves: u64,
    rekeys: u64,
    storms: u64,
    sender_resets: u64,
    receiver_resets: u64,
    replays_accepted: u64,
    replays_rejected: u64,
    timeline: Vec<TimelinePoint>,
    interval_delivered: u64,
    interval_rejected: u64,
}

impl ChurnRunner {
    fn new(cfg: ChurnConfig) -> Self {
        let telemetry = Telemetry::with_shards(cfg.shards);
        let tx = GatewayBuilder::in_memory()
            .suite(cfg.suite)
            .save_interval(cfg.save_interval)
            .window(cfg.window)
            .build();
        let rx = GatewayBuilder::in_memory_sharded(cfg.shards)
            .suite(cfg.suite)
            .save_interval(cfg.save_interval)
            .window(cfg.window)
            .telemetry(telemetry.clone())
            .build_sharded();
        let rng = cfg.seed ^ 0xC0FF_EE00_5EED_5EED;
        let mut runner = ChurnRunner {
            cfg,
            rng,
            tx,
            rx,
            telemetry,
            sas: BTreeMap::new(),
            next_spi: 1,
            delivered: HashSet::new(),
            library: BTreeMap::new(),
            pending: BTreeMap::new(),
            now_ns: 0,
            report: ChurnReportAcc::default(),
        };
        for _ in 0..runner.cfg.initial_sas.max(1) {
            runner.join_sa();
        }
        runner
    }

    fn rand(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Installs a fresh SA on both ends with direction-separated keys
    /// (tx is "tx"→"rx"; rx installs the mirror).
    fn join_sa(&mut self) {
        let spi = self.next_spi;
        self.next_spi += 1;
        self.tx.add_peer_between(spi, CHURN_MASTER, b"tx", b"rx");
        self.rx.add_peer_between(spi, CHURN_MASTER, b"rx", b"tx");
        self.sas.insert(
            spi,
            SaLedger {
                epoch: 1,
                active: true,
                ..SaLedger::default()
            },
        );
    }

    /// Retires `spi` on both ends (its ledger — and verdict — remain).
    fn leave_sa(&mut self, spi: u32) {
        self.tx.remove_peer(spi);
        self.rx.remove_peer(spi);
        if let Some(sa) = self.sas.get_mut(&spi) {
            sa.active = false;
        }
        self.report.leaves += 1;
    }

    fn active_spis(&self) -> Vec<u32> {
        self.sas
            .iter()
            .filter(|(_, s)| s.active)
            .map(|(&spi, _)| spi)
            .collect()
    }

    fn run(mut self) -> ChurnReport {
        let cfg = self.cfg.clone();
        let round_ns = ((cfg.sim_hours * 3_600e9) / cfg.rounds.max(1) as f64) as u64;
        // Evenly spaced storm rounds (never round 0 — the fleet sends
        // first, so every storm has history to replay).
        let storm_rounds: HashSet<u32> = (1..=cfg.reset_storms)
            .map(|i| i * cfg.rounds / (cfg.reset_storms + 1))
            .collect();
        // Sample the timeline at most ~64 times regardless of length.
        let sample_every = (cfg.rounds / 64).max(1);
        for round in 0..cfg.rounds {
            self.now_ns += round_ns;
            self.churn_step();
            self.maybe_rekey(round);
            self.fresh_round(round);
            self.complete_saves();
            if storm_rounds.contains(&round) {
                self.storm(round);
                self.complete_saves();
            }
            assert!(
                self.pending.is_empty(),
                "seed {}: round {round} left {} fresh frames unresolved",
                cfg.seed,
                self.pending.len()
            );
            if round % sample_every == sample_every - 1 {
                let acc = &mut self.report;
                acc.timeline.push(TimelinePoint {
                    t_ns: self.now_ns,
                    delivered: acc.interval_delivered,
                    rejected: acc.interval_rejected,
                });
                acc.interval_delivered = 0;
                acc.interval_rejected = 0;
            }
        }
        self.finish(round_ns * cfg.rounds as u64)
    }

    /// SA lifecycle churn: joins push toward `max_sas`, leaves keep at
    /// least half the initial fleet alive.
    fn churn_step(&mut self) {
        let active = self.active_spis();
        if (active.len() as u32) < self.cfg.max_sas && self.rand().is_multiple_of(4) {
            self.join_sa();
            self.report.joins += 1;
        }
        let floor = (self.cfg.initial_sas / 2).max(2) as usize;
        if active.len() > floor && self.rand().is_multiple_of(8) {
            let victim = active[(self.rand() % active.len() as u64) as usize];
            self.leave_sa(victim);
        }
    }

    /// Lockstep rekey of one active SA: both ends derive the same
    /// replacement generation from the shared skeyid, the epoch bumps,
    /// and the adversary's library for the old epoch dies with the old
    /// keys.
    fn maybe_rekey(&mut self, round: u32) {
        let every = self.cfg.rekey_every_rounds;
        if every == 0 || round % every != every - 1 {
            return;
        }
        let active = self.active_spis();
        if active.is_empty() {
            return;
        }
        let spi = active[(round / every) as usize % active.len()];
        self.tx.rekey_now(spi);
        self.rx.rekey_now(spi);
        self.tx.poll_events();
        let events = self.rx.poll_events();
        self.account(&events, Drain::Lifecycle);
        let sa = self.sas.get_mut(&spi).expect("active SA has a ledger");
        sa.epoch += 1;
        sa.last_seq = 0;
        self.report.rekeys += 1;
    }

    /// The SAVE device finishes every in-flight background save. The
    /// soak completes saves at round boundaries — within one round of
    /// issue — so the durable counters trail the live ones by at most
    /// `K` plus a round of traffic, which the `2K` leap absorbs.
    /// (Skipping this is exactly the §3 failure: recovery would leap
    /// from an ancient save and resurrect replayable state.)
    fn complete_saves(&mut self) {
        self.tx.save_completed().expect("mem store");
        self.rx.save_completed().expect("mem store");
    }

    /// One round of fresh traffic: protect `packets_per_round` frames
    /// round-robin across the active fleet, run them through the faulty
    /// link, push, drain, account.
    fn fresh_round(&mut self, _round: u32) {
        let active = self.active_spis();
        if active.is_empty() {
            return;
        }
        let mut wires = Vec::with_capacity(self.cfg.packets_per_round as usize);
        for i in 0..self.cfg.packets_per_round {
            let spi = active[i as usize % active.len()];
            if let Some(frame) = self.protect_fresh(spi) {
                wires.push(frame);
            }
        }
        // Link faults. Partition: the whole batch evaporates before the
        // receiver — and before the adversary's tap, which only records
        // confirmed deliveries anyway.
        if self.rand().is_multiple_of(16) {
            for key in wires {
                self.pending.remove(&key);
            }
            return;
        }
        // Bounded reorder: swap within REORDER_SPAN (< window), so
        // nothing falls off the left edge.
        if self.rand().is_multiple_of(4) {
            for i in 0..wires.len() {
                let j = i + (self.rand() as usize % REORDER_SPAN).min(wires.len() - 1 - i);
                wires.swap(i, j);
            }
        }
        let batch: Vec<Bytes> = wires
            .iter()
            .map(|k| self.pending.get(k).expect("just inserted").clone())
            .collect();
        self.rx.push_wire_batch(&batch).expect("mem store");
        let events = self.rx.poll_events();
        self.account(&events, Drain::Fresh);
        // Duplicate train: the link re-delivers a slice of what it just
        // carried. Copies of delivered frames — true replays.
        if self.cfg.adversaries.duplicates && self.rand().is_multiple_of(4) {
            let dups: Vec<Bytes> = wires
                .iter()
                .filter_map(|k| self.library.get(k).cloned())
                .take(6)
                .collect();
            self.report.duplicate_injections += dups.len() as u64;
            self.inject(&dups);
        }
    }

    /// Protects one fresh frame for `spi`, checks the monotonic-counter
    /// invariant, and parks it in `pending` until its verdict arrives.
    /// Returns the pending key.
    fn protect_fresh(&mut self, spi: u32) -> Option<(u32, u32, u64)> {
        let frame = self.tx.protect(spi, CHURN_PAYLOAD).expect("mem store")?;
        let sa = self.sas.get_mut(&spi).expect("active SA has a ledger");
        assert!(
            frame.seq.value() > sa.last_seq,
            "seed {}: sender counter for SA {spi} not monotonic ({} after {})",
            self.cfg.seed,
            frame.seq.value(),
            sa.last_seq
        );
        sa.last_seq = frame.seq.value();
        sa.sent += 1;
        let key = (spi, sa.epoch, frame.seq.value());
        self.pending.insert(key, frame.wire);
        Some(key)
    }

    /// Pushes adversary frames and accounts the resulting events.
    fn inject(&mut self, wires: &[Bytes]) {
        if wires.is_empty() {
            return;
        }
        self.rx.push_wire_batch(wires).expect("mem store");
        let events = self.rx.poll_events();
        self.account(&events, Drain::Adversary);
    }

    /// One reset storm: receiver down, replays hammer the outage,
    /// (every other storm) the sender reboots too, fresh traffic lands
    /// mid-wake-up, and the zoo strikes the instant recovery completes.
    fn storm(&mut self, round: u32) {
        self.report.storms += 1;
        let staggered = self.report.storms.is_multiple_of(2);
        // The delay-then-replay stash is taken *before* the reset: what
        // the adversary recorded in the old life.
        let stash: Vec<Bytes> = self
            .library
            .values()
            .take(DELAYED_REPLAY_BATCH)
            .cloned()
            .collect();
        self.rx.reset();
        self.report.receiver_resets += 1;
        for sa in self.sas.values_mut().filter(|s| s.active) {
            sa.resets_survived += 1;
        }
        // Mid-outage replays evaporate (DroppedDown) — the receiver is
        // a brick, not a window.
        let mid_outage: Vec<Bytes> = self.library.values().rev().take(16).cloned().collect();
        self.inject(&mid_outage);
        if staggered {
            // Staggered reboot: the sender crashes too and recovers
            // first — its counters leap 2K forward, never backward.
            self.tx.reset();
            self.tx.begin_recover().expect("mem store");
            self.tx.finish_recover().expect("mem store");
            self.tx.poll_events();
            self.report.sender_resets += 1;
            for sa in self.sas.values_mut().filter(|s| s.active) {
                // The leap voids the last-seq floor upward only; the
                // monotonicity assert still holds across it.
                sa.resets_survived += 1;
            }
        }
        self.rx.begin_recover().expect("mem store");
        // Fresh traffic mid-wake-up buffers and resolves after
        // finish_recover (kept far below the wake-up buffer cap).
        let active = self.active_spis();
        let mut awaited = 0;
        for i in 0..MID_WAKE_FRESH {
            let spi = active[i % active.len()];
            if let Some(key) = self.protect_fresh(spi) {
                let wire = self.pending.get(&key).expect("just inserted").clone();
                self.rx.push_wire_batch(&[wire]).expect("mem store");
                awaited += 1;
            }
        }
        let buffered = self.rx.poll_events();
        self.account(&buffered, Drain::Fresh);
        self.rx.finish_recover().expect("mem store");
        let events = self.rx.poll_events();
        self.account(&events, Drain::Fresh);
        let _ = (awaited, round);
        // Recovery done — release the zoo.
        if self.cfg.adversaries.delayed_replay {
            self.report.delayed_replays += stash.len() as u64;
            self.inject(&stash);
        }
        if self.cfg.adversaries.highest_seq {
            let probes: Vec<Bytes> = self
                .active_spis()
                .into_iter()
                .filter_map(|spi| {
                    let epoch = self.sas[&spi].epoch;
                    self.library
                        .range((spi, epoch, 0)..=(spi, epoch, u64::MAX))
                        .next_back()
                        .map(|(_, w)| w.clone())
                })
                .collect();
            self.report.highest_seq_replays += probes.len() as u64;
            self.inject(&probes);
        }
        if self.cfg.adversaries.shard_flood {
            // Canonical partition 0 under the *fixed* flood_partitions
            // count — the same SAs are flooded at any real shard count.
            let flood: Vec<Bytes> = self
                .active_spis()
                .into_iter()
                .filter(|&spi| spi_shard(spi, self.cfg.flood_partitions) == 0)
                .filter_map(|spi| {
                    let epoch = self.sas[&spi].epoch;
                    self.library
                        .range((spi, epoch, 0)..=(spi, epoch, u64::MAX))
                        .next_back()
                        .map(|(_, w)| w.clone())
                })
                .flat_map(|w| std::iter::repeat_n(w, FLOOD_TRAIN))
                .collect();
            self.report.shard_flood_replays += flood.len() as u64;
            self.inject(&flood);
        }
        if self.cfg.adversaries.reflection {
            self.reflect();
        }
    }

    /// Cross-SA reflection: a frame the sender sealed is played back
    /// *into the sender*, and its SPI is rewritten onto a sibling SA.
    /// Both must die at authentication. Direct reflection only targets
    /// epoch-1 SAs: `rekey_now` derives symmetric replacement keys, so
    /// only `add_peer_between`'s original direction-separated epoch
    /// still proves the directional-key property.
    fn reflect(&mut self) {
        let actives = self.active_spis();
        let mut reflected = Vec::new();
        for &spi in &actives {
            let sa = &self.sas[&spi];
            if sa.epoch != 1 {
                continue;
            }
            if let Some((_, wire)) = self
                .library
                .range((spi, 1, 0)..=(spi, 1, u64::MAX))
                .next_back()
            {
                reflected.push(wire.clone());
            }
        }
        if !reflected.is_empty() {
            self.report.reflections += reflected.len() as u64;
            self.tx.push_wire_batch(&reflected).expect("mem store");
            for ev in self.tx.poll_events() {
                match ev {
                    GatewayEvent::AuthFailed { .. } | GatewayEvent::UnknownSa { .. } => {}
                    GatewayEvent::Delivered { spi, .. }
                    | GatewayEvent::ReplayDropped { spi, .. } => {
                        // A reflected frame passing authentication on
                        // its own sender breaks the directional-key
                        // property — count it as an accepted replay.
                        self.report.replays_accepted += 1;
                        if let Some(sa) = self.sas.get_mut(&spi) {
                            sa.replays_accepted += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        // SPI rewrite onto a sibling: the SPI is inside the ICV, so the
        // rewritten frame cannot authenticate under any SA.
        if actives.len() >= 2 {
            if let Some((&(_, _, _), wire)) = self.library.iter().next_back() {
                let mut mangled = wire.to_vec();
                let target = actives[0];
                mangled[0..4].copy_from_slice(&target.to_be_bytes());
                self.report.reflections += 1;
                self.inject(&[Bytes::from(mangled)]);
            }
        }
    }

    /// Maps one drain's events onto the ledgers. `Drain::Fresh` may
    /// contain sacrifices (fresh frames inside the post-recovery leap);
    /// in adversary drains *any* delivery is an accepted replay.
    fn account(&mut self, events: &[GatewayEvent], drain: Drain) {
        for ev in events {
            match ev {
                GatewayEvent::Delivered { spi, seq, .. } => {
                    let epoch = self.sas.get(spi).map(|s| s.epoch).unwrap_or(0);
                    let key = (*spi, epoch, seq.value());
                    if !self.delivered.insert(key) || drain == Drain::Adversary {
                        self.report.replays_accepted += 1;
                        if let Some(sa) = self.sas.get_mut(spi) {
                            sa.replays_accepted += 1;
                        }
                        continue;
                    }
                    if let Some(wire) = self.pending.remove(&key) {
                        // Confirmed delivery: the adversary's tap may
                        // record it now.
                        self.library.insert(key, wire);
                    }
                    if let Some(sa) = self.sas.get_mut(spi) {
                        sa.delivered += 1;
                    }
                    self.report.interval_delivered += 1;
                }
                GatewayEvent::ReplayDropped { spi, seq, .. } => {
                    let epoch = self.sas.get(spi).map(|s| s.epoch).unwrap_or(0);
                    let key = (*spi, epoch, seq.value());
                    if self.pending.remove(&key).is_some() {
                        // A fresh frame rejected by the window: a
                        // sacrifice inside the post-recovery leap,
                        // bounded by 2K per reset.
                        if let Some(sa) = self.sas.get_mut(spi) {
                            sa.sacrificed += 1;
                        }
                    } else {
                        if let Some(sa) = self.sas.get_mut(spi) {
                            sa.replays_rejected += 1;
                        }
                        self.report.replays_rejected += 1;
                        self.report.interval_rejected += 1;
                    }
                }
                GatewayEvent::AuthFailed { spi } | GatewayEvent::UnknownSa { spi } => {
                    if let Some(sa) = self.sas.get_mut(spi) {
                        sa.replays_rejected += 1;
                    }
                    self.report.replays_rejected += 1;
                    self.report.interval_rejected += 1;
                }
                GatewayEvent::DroppedDown { spi } => {
                    let epoch = self.sas.get(spi).map(|s| s.epoch).unwrap_or(0);
                    // A fresh frame that hit the outage is lost, not
                    // sacrificed; adversary frames that evaporate count
                    // as rejected.
                    let mut was_fresh = false;
                    if let Some(sa) = self.sas.get_mut(spi) {
                        let keys: Vec<_> = self
                            .pending
                            .range((*spi, epoch, 0)..=(*spi, epoch, u64::MAX))
                            .map(|(k, _)| *k)
                            .collect();
                        // DroppedDown carries no sequence number, so
                        // fresh pushes while down are matched FIFO.
                        if let Some(k) = keys.first() {
                            self.pending.remove(k);
                            sa.dropped_down += 1;
                            was_fresh = true;
                        }
                    }
                    if !was_fresh {
                        self.report.replays_rejected += 1;
                        self.report.interval_rejected += 1;
                    }
                }
                GatewayEvent::Buffered { .. }
                | GatewayEvent::Recovered { .. }
                | GatewayEvent::RekeyStarted { .. }
                | GatewayEvent::RekeyCompleted { .. } => {}
                GatewayEvent::ProbeDue { .. }
                | GatewayEvent::PeerDead { .. }
                | GatewayEvent::FailedClosed { .. } => {
                    unreachable!("churn configures neither DPD nor faulty stores: {ev:?}")
                }
            }
        }
        let _ = drain;
    }

    fn finish(self, sim_ns: u64) -> ChurnReport {
        let k = self.cfg.save_interval;
        let verdicts: Vec<SaVerdict> = self
            .sas
            .iter()
            .map(|(&spi, sa)| SaVerdict {
                spi,
                sent: sa.sent,
                delivered: sa.delivered,
                sacrificed: sa.sacrificed,
                replays_rejected: sa.replays_rejected,
                epochs: sa.epoch,
                resets_survived: sa.resets_survived,
                ok: sa.replays_accepted == 0 && sa.sacrificed <= 2 * k * sa.resets_survived,
            })
            .collect();
        let acc = self.report;
        let totals = RunTotals {
            delivered: verdicts.iter().map(|v| v.delivered).sum(),
            replays_rejected: acc.replays_rejected,
            replays_accepted: acc.replays_accepted,
            sacrificed: verdicts.iter().map(|v| v.sacrificed).sum(),
            failed_closed: 0,
            resets: acc.receiver_resets + acc.sender_resets,
        };
        ChurnReport {
            seed: self.cfg.seed,
            shards: self.cfg.shards,
            verdicts,
            totals,
            timeline: acc.timeline,
            telemetry: self.telemetry.snapshot(),
            delayed_replays: acc.delayed_replays,
            highest_seq_replays: acc.highest_seq_replays,
            shard_flood_replays: acc.shard_flood_replays,
            reflections: acc.reflections,
            duplicate_injections: acc.duplicate_injections,
            joins: acc.joins,
            leaves: acc.leaves,
            rekeys: acc.rekeys,
            storms: acc.storms,
            sender_resets: acc.sender_resets,
            sim_ns,
        }
    }
}

/// Which side of the tap a drain's frames came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drain {
    /// The sender's original frames (may contain leap sacrifices).
    Fresh,
    /// Adversary injections — any delivery is an accepted replay.
    Adversary,
    /// Rekey/lifecycle events only.
    Lifecycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_churn_is_clean_and_exercises_everything() {
        let r = run_churn(ChurnConfig::quick(42));
        assert!(r.clean(), "verdicts: {:?}", r.verdicts);
        assert_eq!(r.totals.replays_accepted, 0);
        assert!(r.totals.delivered > 1000, "{}", r.totals.delivered);
        assert!(r.totals.replays_rejected > 0);
        assert_eq!(r.storms, 3);
        assert!(r.rekeys > 0);
        assert!(r.joins > 0);
        assert!(r.leaves > 0);
        assert!(!r.timeline.is_empty());
    }

    #[test]
    fn churn_is_reproducible_for_seed() {
        let fingerprint = |seed| {
            let r = run_churn(ChurnConfig::quick(seed));
            (r.totals.clone(), r.verdicts.len(), r.delayed_replays)
        };
        assert_eq!(fingerprint(3), fingerprint(3));
        assert_ne!(fingerprint(3), fingerprint(4));
    }

    #[test]
    fn telemetry_snapshot_reflects_the_run() {
        let r = run_churn(ChurnConfig::quick(9));
        // Gateway event counts and harness ground truth must agree.
        assert_eq!(
            r.telemetry.event("delivered"),
            r.totals.delivered + r.totals.replays_accepted
        );
        assert_eq!(r.telemetry.shards.len(), r.shards);
        assert!(r.telemetry.recover_ns.count >= r.storms);
        assert!(r.telemetry.total_frames() > 0);
    }

    #[test]
    fn run_report_renders_the_unified_schema() {
        let r = run_churn(ChurnConfig::quick(5));
        let run = r.to_run_report();
        assert!(run.clean());
        let json = run.render_json();
        assert!(json.starts_with("{\"schema\":\"reset-report/v1\",\"kind\":\"churn\""));
        assert!(json.contains("\"telemetry\":{"));
        assert!(json.contains("\"delayed_replays\""));
    }
}
