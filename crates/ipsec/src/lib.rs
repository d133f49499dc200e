//! # reset-ipsec — the IPsec substrate around the anti-replay core
//!
//! The paper's protocol lives inside a larger system: security
//! associations with keys and lifetimes (RFC 2401), an ESP datapath that
//! authenticates before it checks replay (RFC 2406), dead-peer detection
//! (the drafts in the paper's references \[3\] and \[7\]), and the §6
//! bidirectional recovery scheme. The ISAKMP/Oakley key exchange whose
//! cost motivates rescuing SAs instead of rebuilding them (RFC 2408/2412)
//! is figure code: it lives above the gateway, in `reset-harness`, and
//! hands its SA pair to [`Gateway::install_pair`].
//!
//! The repo-level `ARCHITECTURE.md` maps how this crate sits on top of
//! `anti-replay`, `reset-wire`, `reset-crypto` and `reset-stable`, and
//! documents the gateway lifecycle and the shard determinism contract
//! in one place.
//!
//! # The `Gateway` engine
//!
//! The primary public API is [`Gateway`], an event-driven engine that
//! owns the whole receiver-under-reset story — SADB, datapath,
//! SAVE/FETCH recovery, DPD, and lifetime-driven rekeys — behind four
//! verbs: [`Gateway::protect`], [`Gateway::push_wire_batch`] (a NIC
//! queue drain; [`Gateway::push_wire`] is a batch of one),
//! [`Gateway::tick`], and [`Gateway::poll_events`]. Configuration is
//! fixed up front in [`GatewayBuilder`] (suite, window, save interval,
//! store factory, rekey/DPD policies); every per-packet and lifecycle
//! verdict surfaces as a [`GatewayEvent`].
//!
//! ```
//! use reset_ipsec::{GatewayBuilder, GatewayEvent};
//!
//! // Two gateways sharing one SA pair (normally keyed via IKE).
//! let mut p = GatewayBuilder::in_memory().save_interval(25).window(64).build();
//! let mut q = GatewayBuilder::in_memory().save_interval(25).window(64).build();
//! p.add_peer(0x1001, b"master-secret");
//! q.add_peer(0x1001, b"master-secret");
//!
//! let frame = p.protect(0x1001, b"payload")?.expect("endpoint up");
//! q.push_wire(&frame.wire)?;
//! // A replay of the same bytes authenticates but is rejected:
//! q.push_wire(&frame.wire)?;
//! let events = q.poll_events();
//! assert!(matches!(events[0], GatewayEvent::Delivered { .. }));
//! assert!(matches!(events[1], GatewayEvent::ReplayDropped { .. }));
//! # Ok::<(), reset_ipsec::IpsecError>(())
//! ```
//!
//! # Scaling out: the `ShardedGateway`
//!
//! The paper's SAVE/FETCH guarantees are per-SA, so a gateway serving a
//! large SA fleet parallelizes without any cross-SA coordination.
//! [`ShardedGateway`] (built via [`GatewayBuilder::build_sharded`] /
//! [`GatewayBuilder::shards`]) partitions the SADB by SPI hash
//! ([`reset_wire::spi_shard`]) across N worker shards — each shard a
//! full [`Gateway`] owned **permanently by a long-lived worker
//! thread** spawned once at build time. Verbs are jobs on the owning
//! shard's work queue: the batched receive path, `tick`, `reset` and
//! recovery fan one job out per shard and wait on the completions in
//! shard index order, merging events in stable shard-then-arrival
//! order (no thread is ever spawned per call); the pipelined
//! [`ShardedGateway::submit_batch`] / [`ShardedGateway::drain_events`]
//! pair lets a driver overlap frame generation with shard processing.
//! Dropping the value closes the queues and joins the workers — a
//! clean, bounded shutdown even with jobs still queued — and a
//! panicking shard job surfaces on the caller (as
//! [`IpsecError::WorkerPanicked`] from fallible verbs), never as a
//! hang. Determinism is part of the contract: single-shard output is
//! bit-identical to [`Gateway`], and at any shard count the per-SPI
//! event subsequences (the unit the paper's guarantees are stated in)
//! are identical too — see the [`shard`](ShardedGateway) module docs
//! and `tests/it_sharded.rs`.
//!
//! # The million-SA control plane
//!
//! Three structural choices keep the control plane flat as the fleet
//! grows from thousands of SAs to a million:
//!
//! * **One deadline heap.** Every DPD probe/teardown deadline lives in
//!   one `BinaryHeap` ordered by (deadline, scheduling order), and rekey
//!   checks ride a due-set marked at accounting time, so
//!   [`Gateway::tick`] touches only *due* work: an idle tick is one
//!   heap `peek` — ~9 ns and zero allocations whether the SADB
//!   holds 10³ or 10⁶ SAs (`tests/it_alloc.rs` pins the allocation
//!   claim with a counting global allocator; `tests/it_fleet.rs` pins
//!   the flatness with a same-run 2× ceiling, at 2⁸ vs 2¹⁴ SAs in tier-1
//!   and 10³ vs 10⁶ in the CI scaling lane).
//! * **One record per SA.** [`Sadb`] keeps everything the host holds
//!   for an SPI — both directional endpoints and the gateway's policy
//!   state (DPD detector, live DPD deadline, rekey generation) — as
//!   one record in one slab vector (freed slots reused), so batch
//!   drains walk dense memory and a torn-down SA takes all of its state
//!   with it; one hashed SPI → slot index finds a record in one probe,
//!   and sweeps sort the live SPIs to fix their order. What lives
//!   outside the records is
//!   only work that is due: a reused due-list of owed SAVEs answers
//!   [`Gateway::pending_save`] / [`Gateway::save_completed`] without
//!   scanning a million endpoints, and every entry of it — as of the
//!   gateway's own due-lists — is verified against its record when
//!   drained, so nothing needs removing at teardown.
//! * **Zero-copy shard fan-out.** [`ShardedGateway::submit_batch`]
//!   shares one `Arc<[Bytes]>` batch across the worker pool and routes
//!   per-shard *frame indices* (`Vec<u32>`) instead of cloning `Bytes`
//!   handles per shard; per-shard frame counts still flow to
//!   telemetry, feeding the occupancy signal the deferred
//!   rebalancing work (ROADMAP, "Give the shard pool its verdict")
//!   would consume.
//!
//! ## One receive path
//!
//! A frame is authenticated, windowed and decrypted in one drain body
//! and nowhere else. Every receive verb feeds it:
//! [`Sadb::process_batch`] cuts a queue into runs of equal SPI, resolves
//! them all, then verifies, windows and decrypts across them,
//! [`Gateway::push_wire_batch`] turns the results
//! into events, [`Inbound::process_batch`] runs it over one SA's frames,
//! and the single-frame verbs ([`Inbound::process`],
//! [`Gateway::push_wire`], [`ShardedGateway::push_wire`]) are batches
//! of one. The body's working vectors and its decryption arena belong
//! to the [`Sadb`] (one per gateway, one per shard), not to each SA:
//! after warm-up a drain allocates nothing per frame and nothing per
//! run, and the arena is frozen once per drain — so a retained payload
//! pins the whole drain's arena (copy out what you keep).
//!
//! Code that still hand-wires the layer types below maps onto
//! the engine like this:
//!
//! | layer types                             | `Gateway` engine                        |
//! |-----------------------------------------|-----------------------------------------|
//! | `Outbound::new` / `Inbound::new` / `Sadb::install_*` | [`GatewayBuilder`] + [`Gateway::add_peer`] / [`Gateway::install_pair`] |
//! | `tx.protect(payload)` → `Bytes`         | [`Gateway::protect`] → [`SentFrame`] (seq + bytes) |
//! | `Inbound::process_batch` / `Sadb::process_batch` → `match RxResult` | [`Gateway::push_wire_batch`] + [`Gateway::poll_events`] |
//! | `reset()` + `wake_up()` / `recover_all` | [`Gateway::reset`] + [`Gateway::recover`] (or the `begin`/`finish` halves) |
//! | `DpdDetector::poll` + `rekey_due` + `rekey` by hand | [`GatewayBuilder::dpd`] / [`GatewayBuilder::rekey_after`] + [`Gateway::tick`] |
//!
//! # Layer types
//!
//! The engine is built from these, all public:
//!
//! * [`SecurityAssociation`] / [`SaKeys`] / [`SaLifetime`] — SA state;
//!   only the counters change per packet, which is the whole point.
//! * [`Sadb`] — a host's SA database; `recover_all` is the cheap
//!   SAVE/FETCH reboot path.
//! * [`rekey`] — the quick-mode key derivation a lifetime rekey runs
//!   under the existing phase-1 secret.
//! * [`Outbound`] / [`Inbound`] / [`RxResult`] — the ESP datapath with
//!   SAVE/FETCH-protected counters and RFC 4304 ESN.
//! * [`DpdDetector`] — detects the peer's unavailability and opens the
//!   bounded §6 grace window.
//!
//! The §6 secured recovery notify ("I am up again; my counter is now
//! X") has no type of its own: it is the first frame a host
//! [`Gateway::protect`]s after [`Gateway::recover`]. The FETCH + `2K`
//! leap puts its sequence number above everything sent before the
//! reset, so the survivor accepts it iff it clears the right edge of
//! its window — [`GatewayEvent::Delivered`] ends the DPD grace
//! ([`Gateway::in_grace`]), and a replayed copy is an ordinary
//! [`GatewayEvent::ReplayDropped`] that proves nothing about liveness.
//! A FETCH that hits untrusted state emits no notify at all: the SA
//! fails closed ([`GatewayEvent::FailedClosed`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dpd;
mod error;
mod esp;
mod gateway;
mod pool;
mod rekey;
mod sa;
mod sadb;
mod shard;

pub use dpd::{DpdAction, DpdConfig, DpdDetector};
pub use error::IpsecError;
pub use esp::{Inbound, Outbound, RxReject, RxResult, DRAIN_SLICE};
pub use gateway::{Gateway, GatewayBuilder, GatewayEvent, SaDirection, SentFrame};
pub use rekey::{rekey, rekey_due, RekeyRequest};
pub use reset_crypto::Backend;
pub use sa::{CryptoSuite, SaKeys, SaLifetime, SaUsage, SecurityAssociation};
pub use sadb::{RemovedSa, Sadb};
pub use shard::ShardedGateway;
