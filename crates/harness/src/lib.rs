//! # reset-harness — experiments regenerating every figure and table
//!
//! This crate turns the reproduction into numbers: a deterministic timed
//! [scenario runner](run_scenario) that drives the shipped engine — a
//! [`reset_ipsec::ShardedGateway`] pair under SAVE/FETCH or under the §3
//! naive restart — over the paper's §2 channel (a faulty [`LinkConfig`]
//! link and a replay adversary), a latency-modelled persistent store and
//! an online monitor of the §5 guarantees (its [`Report`]), plus one
//! module per figure/table of the paper under [`experiments`].
//!
//! It also holds the figure code that has no place on the gateway path:
//! the reset-naive §2 receiver ([`BaselineReceiver`], for t6) and the
//! ISAKMP main-mode handshake over the OAKLEY Diffie–Hellman groups with
//! its cost ledger ([`run_handshake`], [`HandshakeCost`], [`CostModel`],
//! for t5).
//!
//! Run everything:
//!
//! ```text
//! cargo run -p reset-harness --bin experiments -- all
//! cargo run -p reset-harness --bin experiments -- fig1 t3
//! ```
//!
//! # The unified report schema (`reset-report/v1`)
//!
//! Every machine-readable result — fault campaigns
//! ([`CampaignReport::to_run_report`]), timed scenarios
//! ([`ScenarioOutcome::to_run_report`]), and churn soaks
//! ([`ChurnReport::to_run_report`]) — serializes through one
//! [`RunReport`] structure rendered by the zero-dependency
//! [`reset_telemetry::Json`] writer. The document is a single object:
//!
//! * `schema` — the literal [`REPORT_SCHEMA`] version tag;
//! * `kind` — `"campaign"`, `"scenario"`, or `"churn"`;
//! * `seed` — reproduces the run exactly;
//! * `totals` — fleet-wide counters (`delivered`, `replays_rejected`,
//!   `replays_accepted` — must be 0 — `sacrificed`, `failed_closed`,
//!   `resets`);
//! * `verdicts` — one row per SA (`spi`, `sent`, `delivered`,
//!   `sacrificed`, `replays_rejected`, `epochs`, `resets_survived`,
//!   `ok`), empty when the workload only tracks totals;
//! * `timeline` — throughput samples (`t_ns`, `delivered`, `rejected`),
//!   empty when not sampled;
//! * `telemetry` — the observed gateway's
//!   [`reset_telemetry::Snapshot`] (per-shard skew, latency
//!   histograms, event counts), or `null` when none was attached;
//! * `extra` — kind-specific counters (e.g. the churn soak's
//!   per-adversary-strategy injection counts).
//!
//! Keys render in insertion order, so the same run produces
//! byte-identical JSON.
//!
//! # Examples
//!
//! ```
//! use reset_harness::{run_scenario, AdversaryPlan, ScenarioConfig};
//! use reset_sim::SimTime;
//!
//! // The §3 attack against the SAVE/FETCH protocol: reset the receiver
//! // mid-run and replay the whole history. Nothing gets through.
//! let cfg = ScenarioConfig {
//!     receiver_resets: vec![SimTime::from_millis(4)],
//!     adversary: AdversaryPlan::ReplayAllOnReceiverRestart,
//!     ..ScenarioConfig::default()
//! };
//! let out = run_scenario(cfg);
//! assert_eq!(out.monitor.replays_accepted, 0);
//! assert!(out.monitor.fresh_discarded <= 2 * 25); // condition (ii)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
pub mod campaign;
mod channel;
pub mod churn;
mod dh;
pub mod experiments;
mod ike;
mod monitor;
mod report;
mod scenario;
mod workload;

pub use baseline::BaselineReceiver;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use channel::{reorder_degrees, LinkConfig, LinkStats};
pub use churn::{run_churn, AdversaryZoo, ChurnConfig, ChurnReport};
pub use dh::{oakley_group1, oakley_group2, toy_group, DhGroup, DhKeyPair};
pub use ike::{
    run_handshake, run_handshake_mismatched_psk, run_handshake_with_suites, CostModel,
    EstablishedPair, HandshakeAuthFailed, HandshakeCost, IkeMessage,
};
pub use monitor::{Report, Violation};
pub use report::{RunReport, RunTotals, SaVerdict, Table, TimelinePoint, REPORT_SCHEMA};
pub use scenario::{
    run_scenario, AdversaryPlan, Protocol, ScenarioConfig, ScenarioOutcome, Transport,
};
pub use workload::Workload;
