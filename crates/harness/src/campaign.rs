//! Seeded fault-injection campaign: §3 invariants under a hostile disk.
//!
//! The scenario runner ([`crate::run_scenario`]) proves the paper's
//! claims when persistent memory behaves. This module attacks the other
//! assumption: every store behind the receiving gateway is wrapped in a
//! [`FaultyStable`] armed with a seeded probabilistic fault — clean SAVE
//! failures, torn writes that persist garbage behind a successful
//! return, corrupt FETCHes, stale-generation rollbacks — while a replay
//! adversary records everything and resets strike between rounds.
//!
//! Swept across cipher suites and shard counts, every run asserts the
//! §3 invariants, now *including* the fail-closed extension:
//!
//! * **0 replays accepted** — no `(SA, rekey-epoch, sequence)` is ever
//!   delivered twice, and the recorded library never lands post-FETCH;
//! * **sacrifice ≤ 2K · resets** per SA — condition (ii) survives the
//!   fault schedule;
//! * **no counter rollback** — the sender's sequence numbers stay
//!   strictly increasing within an epoch, and a store that *does* roll
//!   back is caught by the generation witness and surfaces as
//!   [`GatewayEvent::FailedClosed`] (SA replaced), never as replayable
//!   state.
//!
//! Every assertion message carries the campaign seed, so a CI failure
//! is reproducible with `CampaignConfig { seed, ..Default::default() }`.

use std::collections::{BTreeMap, HashSet};

use bytes::Bytes;
use reset_ipsec::{CryptoSuite, GatewayBuilder, GatewayEvent, SaDirection};
use reset_sim::splitmix64;
use reset_stable::{Fault, FaultyStable, MemStable};
use reset_telemetry::Json;

use crate::report::{RunReport, RunTotals};

/// Campaign shape: the sweep axes and per-run intensity.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every run seed, fault schedule, reset schedule and
    /// traffic pattern derives from it.
    pub seed: u64,
    /// Cipher suites swept.
    pub suites: Vec<CryptoSuite>,
    /// Shard counts swept (1 = the plain-gateway-equivalent pool).
    pub shard_counts: Vec<usize>,
    /// SAs in the fleet.
    pub sas: u32,
    /// Traffic rounds per run.
    pub rounds: usize,
    /// Fresh frames per round.
    pub packets_per_round: usize,
    /// The paper's save interval `K`.
    pub save_interval: u64,
    /// Per-operation fault probability, in thousandths.
    pub fault_per_mille: u16,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x0001_cdc5_2003,
            suites: vec![
                CryptoSuite::HmacSha256AuthOnly,
                CryptoSuite::ChaCha20Poly1305,
            ],
            shard_counts: vec![1, 4],
            sas: 8,
            rounds: 12,
            packets_per_round: 48,
            save_interval: 10,
            fault_per_mille: 60,
        }
    }
}

impl CampaignConfig {
    /// A small single-suite configuration for unit tests.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            seed,
            suites: vec![CryptoSuite::HmacSha256AuthOnly],
            shard_counts: vec![1],
            sas: 3,
            rounds: 6,
            packets_per_round: 24,
            ..CampaignConfig::default()
        }
    }
}

/// Aggregate counts across the whole sweep (one entry per invariant-
/// relevant outcome; the invariants themselves are asserted inline).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Runs executed (suites × shard counts).
    pub runs: usize,
    /// Resets injected across all runs.
    pub resets: u64,
    /// Fresh frames delivered.
    pub delivered: u64,
    /// Adversary replays rejected (window or authentication).
    pub replays_rejected: u64,
    /// Fresh frames sacrificed inside post-recovery leap windows.
    pub sacrificed: u64,
    /// SAs replaced because recovery failed closed on untrusted state.
    pub failed_closed: u64,
}

impl CampaignReport {
    /// Converts into the unified `reset-report/v1` schema (the
    /// campaign tracks aggregate counters only, so `verdicts` and
    /// `timeline` stay empty and `runs` rides in `extra`).
    pub fn to_run_report(&self, seed: u64) -> RunReport {
        let mut report = RunReport::new("campaign", seed);
        report.totals = RunTotals {
            delivered: self.delivered,
            replays_rejected: self.replays_rejected,
            replays_accepted: 0, // any acceptance panics inside the run
            sacrificed: self.sacrificed,
            failed_closed: self.failed_closed,
            resets: self.resets,
        };
        report
            .extra
            .push(("runs".to_string(), Json::U64(self.runs as u64)));
        report
    }
}

/// Runs the full sweep, panicking (with the seed in the message) on any
/// §3 invariant violation.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut report = CampaignReport::default();
    let mut seed_stream = cfg.seed;
    for &suite in &cfg.suites {
        for &shards in &cfg.shard_counts {
            let run_seed = splitmix64(&mut seed_stream);
            run_one(suite, shards, run_seed, cfg, &mut report);
            report.runs += 1;
        }
    }
    report
}

fn run_one(
    suite: CryptoSuite,
    shards: usize,
    run_seed: u64,
    cfg: &CampaignConfig,
    report: &mut CampaignReport,
) {
    let ctx = format!(
        "campaign seed={:#x} run_seed={run_seed:#x} suite={suite:?} shards={shards}",
        cfg.seed
    );
    let k = cfg.save_interval;
    let mut rng = run_seed;

    // The receiving fleet persists through fault-armed stores: each store
    // (including the fresh ones a fail-closed rekey creates) draws its
    // own fault kind and schedule from the run seed.
    let per_mille = cfg.fault_per_mille;
    let mut store_counter: u64 = 0;
    let mut factory_rng = run_seed ^ 0x0FA0_17ED;
    let make_store = move |spi: u32, dir: SaDirection| {
        store_counter += 1;
        let mut s = factory_rng
            ^ (u64::from(spi) << 20)
            ^ ((matches!(dir, SaDirection::Inbound) as u64) << 19)
            ^ store_counter;
        factory_rng = factory_rng.wrapping_add(0x9E37_79B9);
        let fault = match splitmix64(&mut s) % 5 {
            0 => Fault::FailStore,
            1 => Fault::TornStore,
            2 => Fault::CorruptLoad,
            3 => Fault::RollbackLoad,
            _ => Fault::FailErase,
        };
        let mut store = FaultyStable::new(MemStable::new());
        store.auto_probabilistic(splitmix64(&mut s), per_mille, fault);
        store
    };

    const SKEYID: &[u8] = b"fault-campaign-skeyid";
    let mut tx = GatewayBuilder::in_memory()
        .suite(suite)
        .save_interval(k)
        .window(64)
        .skeyid(SKEYID)
        .build();
    let mut rx = GatewayBuilder::with_stores(make_store)
        .suite(suite)
        .save_interval(k)
        .window(64)
        .skeyid(SKEYID)
        .shards(shards)
        .build_sharded();
    for spi in 1..=cfg.sas {
        tx.add_peer(spi, b"campaign-master");
        rx.add_peer(spi, b"campaign-master");
    }

    // Invariant state.
    let mut epoch: BTreeMap<u32, u32> = (1..=cfg.sas).map(|spi| (spi, 0)).collect();
    let mut delivered_keys: HashSet<(u32, u32, u64)> = HashSet::new();
    let mut last_sent: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut sacrificed: BTreeMap<u32, u64> = BTreeMap::new();
    let mut library: Vec<Bytes> = Vec::new();
    let mut resets: u64 = 0;

    // Processes one drained event stream. `fresh` marks drains whose
    // Delivered/ReplayDropped verdicts belong to frames we just sent
    // (adversary drains must deliver nothing at all).
    macro_rules! account {
        ($events:expr, $fresh:expr) => {
            for ev in $events {
                match ev {
                    GatewayEvent::Delivered { spi, seq, .. } => {
                        assert!(
                            $fresh,
                            "[{ctx}] adversary replay delivered: spi={spi} seq={seq}"
                        );
                        let key = (spi, epoch[&spi], seq.value());
                        assert!(
                            delivered_keys.insert(key),
                            "[{ctx}] replay accepted: {key:?} delivered twice"
                        );
                        report.delivered += 1;
                    }
                    GatewayEvent::ReplayDropped { spi, .. } => {
                        if $fresh {
                            let n = sacrificed.entry(spi).or_insert(0);
                            *n += 1;
                            assert!(
                                *n <= 2 * k * resets,
                                "[{ctx}] condition (ii) violated: spi={spi} sacrificed {n} \
                                 > 2K·resets = {}",
                                2 * k * resets
                            );
                            report.sacrificed += 1;
                        } else {
                            report.replays_rejected += 1;
                        }
                    }
                    GatewayEvent::AuthFailed { .. } | GatewayEvent::UnknownSa { .. } => {
                        assert!(!$fresh, "[{ctx}] fresh frame failed auth: {ev:?}");
                        report.replays_rejected += 1;
                    }
                    GatewayEvent::FailedClosed { spi, .. } => {
                        // Untrusted state was refused; the gateway already
                        // replaced its SA. Keep the sender in lockstep by
                        // performing the same rekey generation.
                        report.failed_closed += 1;
                        tx.rekey_now(spi);
                        tx.poll_events();
                        *epoch.get_mut(&spi).expect("known spi") += 1;
                    }
                    GatewayEvent::Buffered { .. }
                    | GatewayEvent::DroppedDown { .. }
                    | GatewayEvent::Recovered { .. }
                    | GatewayEvent::RekeyStarted { .. }
                    | GatewayEvent::RekeyCompleted { .. }
                    | GatewayEvent::ProbeDue { .. }
                    | GatewayEvent::PeerDead { .. } => {}
                }
            }
        };
    }

    for _round in 0..cfg.rounds {
        // Fresh traffic, randomly spread over the fleet. The sender's
        // counters must be strictly monotonic within an epoch (a tx-side
        // rollback would be a SAVE/FETCH bug).
        let mut batch = Vec::with_capacity(cfg.packets_per_round);
        for _ in 0..cfg.packets_per_round {
            let spi = 1 + (splitmix64(&mut rng) % u64::from(cfg.sas)) as u32;
            let frame = tx
                .protect(spi, b"campaign payload")
                .expect("tx datapath")
                .expect("tx is never down");
            let key = (spi, epoch[&spi]);
            let prev = last_sent.get(&key).copied().unwrap_or(0);
            assert!(
                frame.seq.value() > prev,
                "[{ctx}] sender counter rollback: spi={spi} {} after {prev}",
                frame.seq.value()
            );
            last_sent.insert(key, frame.seq.value());
            library.push(frame.wire.clone());
            batch.push(frame.wire);
        }
        rx.push_wire_batch(&batch)
            .unwrap_or_else(|e| panic!("[{ctx}] push_wire_batch: {e}"));
        account!(rx.poll_events(), true);

        // Background saves reach the (faulty) disk; failures are
        // retryable and simply leave the save pending.
        if !splitmix64(&mut rng).is_multiple_of(4) {
            let _ = rx.save_completed();
            tx.save_completed().expect("mem store");
        }

        // The adversary replays a random slice of its library.
        for _ in 0..16 {
            let w = &library[(splitmix64(&mut rng) as usize) % library.len()];
            rx.push_wire(w)
                .unwrap_or_else(|e| panic!("[{ctx}] replay push: {e}"));
        }
        account!(rx.poll_events(), false);

        // Roughly every third round a reset strikes — possibly with
        // SAVEs still in flight (the Fig 1 race) and always with the
        // adversary pumping replays straight through the outage.
        if splitmix64(&mut rng).is_multiple_of(3) {
            resets += 1;
            report.resets += 1;
            rx.reset();
            for _ in 0..8 {
                let w = &library[(splitmix64(&mut rng) as usize) % library.len()];
                rx.push_wire(w)
                    .unwrap_or_else(|e| panic!("[{ctx}] down push: {e}"));
            }
            account!(rx.poll_events(), false);

            rx.begin_recover()
                .unwrap_or_else(|e| panic!("[{ctx}] begin_recover: {e}"));
            // Fresh frames land mid-wake-up: buffered, verdicts at finish.
            let mut waking = Vec::new();
            for _ in 0..8 {
                let spi = 1 + (splitmix64(&mut rng) % u64::from(cfg.sas)) as u32;
                let frame = tx
                    .protect(spi, b"mid-wakeup")
                    .expect("tx datapath")
                    .expect("tx is never down");
                last_sent.insert((spi, epoch[&spi]), frame.seq.value());
                library.push(frame.wire.clone());
                waking.push(frame.wire);
            }
            rx.push_wire_batch(&waking)
                .unwrap_or_else(|e| panic!("[{ctx}] waking push: {e}"));
            account!(rx.poll_events(), true);

            // The wake-up SAVE itself runs on the faulty disk: retry
            // until the schedule lets it through.
            let mut attempts = 0;
            loop {
                match rx.finish_recover() {
                    Ok(_) => break,
                    Err(e) => {
                        attempts += 1;
                        assert!(
                            attempts < 1000,
                            "[{ctx}] finish_recover never converged: {e}"
                        );
                    }
                }
            }
            account!(rx.poll_events(), true);
        }
    }

    // Endgame: the adversary unloads its entire recording. Nothing — not
    // one frame from any round, any epoch, any outage — may deliver.
    rx.push_wire_batch(&library)
        .unwrap_or_else(|e| panic!("[{ctx}] endgame push: {e}"));
    account!(rx.poll_events(), false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_holds_invariants_and_delivers() {
        let report = run_campaign(&CampaignConfig::quick(7));
        assert_eq!(report.runs, 1);
        assert!(report.delivered > 0, "{report:?}");
        assert!(report.replays_rejected > 0, "{report:?}");
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let a = run_campaign(&CampaignConfig::quick(42));
        let b = run_campaign(&CampaignConfig::quick(42));
        assert_eq!(a, b, "same seed must reproduce the same campaign");
        let c = run_campaign(&CampaignConfig::quick(43));
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn campaign_report_renders_the_unified_schema() {
        let report = run_campaign(&CampaignConfig::quick(7));
        let json = report.to_run_report(7).render_json();
        assert!(
            json.starts_with("{\"schema\":\"reset-report/v1\",\"kind\":\"campaign\""),
            "{json}"
        );
        assert!(json.contains("\"telemetry\":null"), "{json}");
        assert!(json.contains("\"runs\":1"), "{json}");
    }

    #[test]
    fn faults_actually_fire_and_fail_closed() {
        // Crank the fault rate until fail-closed recoveries are certain;
        // the invariants must survive even then.
        let mut cfg = CampaignConfig::quick(11);
        cfg.fault_per_mille = 400;
        cfg.rounds = 10;
        let report = run_campaign(&cfg);
        assert!(
            report.failed_closed > 0,
            "a 40% fault rate must trip fail-closed recovery: {report:?}"
        );
        assert!(report.delivered > 0, "{report:?}");
    }
}
