//! The `Gateway` engine: one event-driven entry point over the whole
//! IPsec substrate.
//!
//! Everything the paper's receiver-under-reset story needs — the SADB,
//! the ESP datapath, SAVE/FETCH recovery, DPD, lifetime-driven rekeys —
//! previously had to be hand-wired per experiment. A [`Gateway`] owns
//! all of it behind four verbs:
//!
//! * [`Gateway::protect`] — seal application data on an outbound SA;
//! * [`Gateway::push_wire`] / [`Gateway::push_wire_batch`] — feed
//!   received frames in; nothing is returned in-line, every per-packet
//!   verdict becomes a [`GatewayEvent`];
//! * [`Gateway::tick`] — advance wall-clock policies (DPD probing and
//!   grace expiry, lifetime-driven rekeys);
//! * [`Gateway::poll_events`] — drain what happened, in order.
//!
//! Resets are first-class: [`Gateway::reset`] models the host crash,
//! [`Gateway::recover`] (or the [`Gateway::begin_recover`] /
//! [`Gateway::finish_recover`] halves, for timed drivers that model the
//! wake-up SAVE's latency) runs the paper's FETCH + `2K` leap over every
//! SA and reports `Recovered`.
//!
//! Construction goes through [`GatewayBuilder`]: cipher suite, window
//! size, save interval, the persistent-store factory, and the optional
//! rekey/DPD policies are fixed up front, then SAs are added with
//! [`Gateway::add_peer`] (symmetric shortcut) or
//! [`Gateway::install_pair`] (e.g. an SA pair negotiated by IKE).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt;
use std::time::Instant;

use bytes::Bytes;
use reset_crypto::{ct_eq, hmac_sha256, HmacKey};
use reset_stable::{MemStable, SlotId, StableError, StableStore};
use reset_telemetry::{EventKind, Severity, Telemetry};

use anti_replay::{Phase, RxOutcome, SeqNum};

use crate::dpd::{DpdAction, DpdConfig, DpdDetector, DpdState};
use crate::esp::{Inbound, Outbound, RxReject, RxResult};
use crate::rekey::{rekey, rekey_due, RekeyRequest};
use crate::sa::{CryptoSuite, SaKeys, SaLifetime, SecurityAssociation};
use crate::sadb::{SaRecord, Sadb};
use crate::IpsecError;

/// Which directional endpoint a store is being created for (the
/// argument to the [`GatewayBuilder::with_stores`] factory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaDirection {
    /// The sender half (persists the send counter).
    Outbound,
    /// The receiver half (persists the window's right edge).
    Inbound,
}

/// One sealed outbound frame: the wire bytes plus the sequence number
/// the frame carries (the harness monitor and tests correlate on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentFrame {
    /// The SA that sealed the frame.
    pub spi: u32,
    /// The full (64-bit) sequence number sealed into the frame.
    pub seq: SeqNum,
    /// The wire bytes.
    pub wire: Bytes,
}

/// What happened inside the gateway, in order. Drained by
/// [`Gateway::poll_events`]; each pushed frame produces exactly one of
/// the first six variants, lifecycle operations append the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayEvent {
    /// A frame authenticated, passed the anti-replay window, and its
    /// payload was delivered.
    Delivered {
        /// Receiving SA.
        spi: u32,
        /// ESN-reconstructed sequence number.
        seq: SeqNum,
        /// Decrypted payload.
        payload: Bytes,
    },
    /// A frame authenticated but the anti-replay window rejected it —
    /// a replay (or a fresh frame sacrificed inside the post-recovery
    /// leap, which the paper bounds by `2K`).
    ReplayDropped {
        /// Receiving SA.
        spi: u32,
        /// The rejected sequence number.
        seq: SeqNum,
        /// Stale or duplicate.
        outcome: RxOutcome,
    },
    /// A frame failed framing or ICV verification (forged, corrupted,
    /// or sealed under different keys/suite). `spi` is 0 when the frame
    /// was too short to carry one.
    AuthFailed {
        /// The SPI the frame named (0 if unparseable).
        spi: u32,
    },
    /// A frame named an SPI with no installed inbound SA.
    UnknownSa {
        /// The unknown SPI.
        spi: u32,
    },
    /// A frame arrived during a wake-up and was buffered; its verdict
    /// follows [`Gateway::finish_recover`] as a normal
    /// `Delivered`/`ReplayDropped` event.
    Buffered {
        /// Receiving SA.
        spi: u32,
    },
    /// A frame arrived while the gateway was down and evaporated.
    DroppedDown {
        /// Receiving SA.
        spi: u32,
    },
    /// The rekey policy found an SA due and began a quick-mode rekey.
    RekeyStarted {
        /// The SA being rekeyed.
        spi: u32,
    },
    /// The rekey completed; the SA now runs fresh keys (and counters)
    /// under `suite`.
    RekeyCompleted {
        /// The rekeyed SA.
        spi: u32,
        /// The replacement SA's transform.
        suite: CryptoSuite,
    },
    /// DPD wants an R-U-THERE probe sent for this SA pair (the caller
    /// owns actual transmission — the gateway has no wire of its own).
    ProbeDue {
        /// The silent peer's SA.
        spi: u32,
    },
    /// DPD's bounded grace period expired without the peer recovering;
    /// the SA pair was torn down (the paper's "the wait cannot be
    /// unbounded" rule).
    PeerDead {
        /// The torn-down SA.
        spi: u32,
    },
    /// SAVE/FETCH recovery completed: `sas` SA directions woke up via
    /// FETCH + `2K` leap (compare one IKE handshake *per SA* for the
    /// IETF remedy).
    Recovered {
        /// SA directions recovered.
        sas: usize,
    },
    /// An SA's wake-up FETCH hit untrusted persistent state — a torn or
    /// corrupt record, or a store serving an *older* generation than the
    /// SA last acknowledged durable (rollback) — and recovery **failed
    /// closed**: no window leaped from that state is safe, so instead of
    /// resurrecting replayable counters the gateway replaced the SA with
    /// a fresh generation (fresh keys, fresh counters; recorded replays
    /// die at authentication). A peer gateway sharing the builder's
    /// `skeyid` re-synchronizes by performing the same rekey generation
    /// ([`Gateway::rekey_now`]).
    FailedClosed {
        /// The replaced SA.
        spi: u32,
        /// The store error that made the persisted state untrusted.
        reason: String,
    },
}

/// The telemetry [`EventKind`] a [`GatewayEvent`] counts as (the enums
/// mirror each other variant-for-variant; telemetry sits below this
/// crate, so the mapping lives here).
fn event_kind(ev: &GatewayEvent) -> EventKind {
    match ev {
        GatewayEvent::Delivered { .. } => EventKind::Delivered,
        GatewayEvent::ReplayDropped { .. } => EventKind::ReplayDropped,
        GatewayEvent::AuthFailed { .. } => EventKind::AuthFailed,
        GatewayEvent::UnknownSa { .. } => EventKind::UnknownSa,
        GatewayEvent::Buffered { .. } => EventKind::Buffered,
        GatewayEvent::DroppedDown { .. } => EventKind::DroppedDown,
        GatewayEvent::RekeyStarted { .. } => EventKind::RekeyStarted,
        GatewayEvent::RekeyCompleted { .. } => EventKind::RekeyCompleted,
        GatewayEvent::ProbeDue { .. } => EventKind::ProbeDue,
        GatewayEvent::PeerDead { .. } => EventKind::PeerDead,
        GatewayEvent::Recovered { .. } => EventKind::Recovered,
        GatewayEvent::FailedClosed { .. } => EventKind::FailedClosed,
    }
}

/// Builds a [`Gateway`]: engine-wide policy is fixed here, SAs are
/// added to the built engine afterwards.
///
/// # Examples
///
/// ```
/// use reset_ipsec::{GatewayBuilder, CryptoSuite};
///
/// let mut gw = GatewayBuilder::in_memory()
///     .suite(CryptoSuite::ChaCha20Poly1305)
///     .save_interval(25)
///     .window(64)
///     .build();
/// gw.add_peer(0x1001, b"master-secret");
/// let frame = gw.protect(0x1001, b"hello")?.expect("endpoint up");
/// assert_eq!(frame.seq.value(), 1);
/// # Ok::<(), reset_ipsec::IpsecError>(())
/// ```
pub struct GatewayBuilder<S> {
    pub(crate) suite: CryptoSuite,
    pub(crate) k: u64,
    pub(crate) w: u64,
    pub(crate) rekey_after: Option<SaLifetime>,
    pub(crate) dpd: Option<DpdConfig>,
    pub(crate) skeyid: Vec<u8>,
    pub(crate) shards: Option<usize>,
    pub(crate) wakeup_buffer: usize,
    pub(crate) telemetry: Option<Telemetry>,
    pub(crate) make_store: Box<dyn FnMut(u32, SaDirection) -> S + Send>,
}

impl GatewayBuilder<MemStable> {
    /// A builder whose SAs persist to fresh in-memory stores — the
    /// simulation default.
    pub fn in_memory() -> Self {
        GatewayBuilder::with_stores(|_, _| MemStable::new())
    }
}

impl<S: StableStore> GatewayBuilder<S> {
    /// A builder creating one persistent store per SA direction through
    /// `make_store` (e.g. a [`reset_stable::FileStable`] directory per
    /// SPI).
    pub fn with_stores(make_store: impl FnMut(u32, SaDirection) -> S + Send + 'static) -> Self {
        GatewayBuilder {
            suite: CryptoSuite::default(),
            k: 25, // the paper's calibrated Pentium-III save interval
            w: 64,
            rekey_after: None,
            dpd: None,
            skeyid: b"gateway-phase1-skeyid".to_vec(),
            shards: None,
            wakeup_buffer: anti_replay::machine::DEFAULT_WAKEUP_BUFFER,
            telemetry: None,
            make_store: Box::new(make_store),
        }
    }

    /// Cipher suite applied to SAs added via [`Gateway::add_peer`] and
    /// to policy-driven rekeys. Default: [`CryptoSuite::default()`].
    pub fn suite(mut self, suite: CryptoSuite) -> Self {
        self.suite = suite;
        self
    }

    /// SAVE interval `K` (packets between background counter saves).
    /// Default 25.
    pub fn save_interval(mut self, k: u64) -> Self {
        self.k = k;
        self
    }

    /// Anti-replay window size `w`. Default 64.
    pub fn window(mut self, w: u64) -> Self {
        self.w = w;
        self
    }

    /// Enables the rekey policy: an SA whose usage reaches `lifetime` is
    /// marked in a due-set at accounting time (protect/deliver/install —
    /// wherever usage state changes), and the next [`Gateway::tick`]
    /// quick-mode-rekeys exactly the marked SAs (fresh keys and counters
    /// under the builder's suite; the adversary's replay library dies
    /// with the old keys). No per-tick fleet sweep happens: an idle tick
    /// stays O(1) no matter how large the SADB is. Disabled by default.
    pub fn rekey_after(mut self, lifetime: SaLifetime) -> Self {
        self.rekey_after = Some(lifetime);
        self
    }

    /// Enables dead-peer detection: [`Gateway::tick`] emits
    /// [`GatewayEvent::ProbeDue`] after silence and tears the pair down
    /// ([`GatewayEvent::PeerDead`]) when the §6 grace period expires.
    /// Probe/teardown deadlines live in one min-heap, so a tick visits
    /// only detectors whose deadline has arrived — never the whole
    /// fleet. Disabled by default.
    pub fn dpd(mut self, cfg: DpdConfig) -> Self {
        self.dpd = Some(cfg);
        self
    }

    /// The phase-1 shared secret rekeys derive from. Two gateways that
    /// share it (and the same suite/policies) derive identical
    /// replacement SAs from the same rekey generation.
    pub fn skeyid(mut self, skeyid: &[u8]) -> Self {
        self.skeyid = skeyid.to_vec();
        self
    }

    /// Worker-shard count for [`GatewayBuilder::build_sharded`] (clamped
    /// to ≥ 1). Ignored by [`GatewayBuilder::build`]. Default: the
    /// host's available parallelism.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Per-SPI cap on frames buffered while a wake-up SAVE is in flight
    /// (clamped to ≥ 1). Overflow is dropped, not stored — without a cap
    /// a frame flood aimed at a recovering SA grows its buffer without
    /// bound. Default:
    /// [`anti_replay::machine::DEFAULT_WAKEUP_BUFFER`].
    pub fn wakeup_buffer(mut self, limit: usize) -> Self {
        self.wakeup_buffer = limit.max(1);
        self
    }

    /// Attaches a shared [`Telemetry`] handle: the gateway then records
    /// per-event-kind counts, batch drain latencies, queue depths,
    /// recover/rekey latencies, per-SA-class lifecycle counters, and a
    /// lifecycle trace into it. Strictly opt-in — without a handle every
    /// recording site is a single `Option` branch, so the uninstrumented
    /// datapath cost is unchanged. [`GatewayBuilder::build_sharded`]
    /// clones the handle into every shard, attributing each shard's
    /// events to its own slot (size the handle with
    /// `Telemetry::with_shards` accordingly).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Builds the engine (no SAs installed yet).
    pub fn build(self) -> Gateway<S> {
        Gateway {
            sadb: Sadb::new(),
            suite: self.suite,
            k: self.k,
            w: self.w,
            rekey_after: self.rekey_after,
            dpd_cfg: self.dpd,
            skeyid: self.skeyid,
            master_schedule: None,
            wakeup_buffer: self.wakeup_buffer,
            telemetry: self.telemetry,
            shard_index: 0,
            recover_started: None,
            make_store: self.make_store,
            dpd_unarmed: BTreeSet::new(),
            dpd_heap: BinaryHeap::new(),
            dpd_pushed: 0,
            timer_scratch: Vec::new(),
            rx_scratch: Vec::new(),
            rekey_due: BTreeSet::new(),
            pending_fail_closed: Vec::new(),
            events: VecDeque::new(),
            now_ns: 0,
        }
    }
}

impl<S> fmt::Debug for GatewayBuilder<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatewayBuilder")
            .field("suite", &self.suite)
            .field("k", &self.k)
            .field("w", &self.w)
            .field("rekey_after", &self.rekey_after)
            .field("dpd", &self.dpd)
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

/// The engine: owns the SADB and every lifecycle manager, exposes the
/// event-driven surface described in the [crate docs](crate).
///
/// # Examples
///
/// The §3 attack in six lines — record, reset, recover, replay:
///
/// ```
/// use reset_ipsec::{GatewayBuilder, GatewayEvent};
///
/// let mut p = GatewayBuilder::in_memory().build();
/// let mut q = GatewayBuilder::in_memory().build();
/// p.add_peer(7, b"shared-master");
/// q.add_peer(7, b"shared-master");
///
/// let frame = p.protect(7, b"secret")?.expect("up");
/// q.push_wire(&frame.wire)?;
/// q.save_completed()?; // the background SAVE reaches the disk
/// q.reset();
/// q.recover()?; // FETCH + 2K leap
/// q.push_wire(&frame.wire)?; // the adversary replays
/// let events = q.poll_events();
/// assert!(matches!(events[0], GatewayEvent::Delivered { .. }));
/// assert!(matches!(events[1], GatewayEvent::Recovered { .. }));
/// assert!(matches!(events[2], GatewayEvent::ReplayDropped { .. }));
/// # Ok::<(), reset_ipsec::IpsecError>(())
/// ```
pub struct Gateway<S> {
    sadb: Sadb<S>,
    suite: CryptoSuite,
    k: u64,
    w: u64,
    rekey_after: Option<SaLifetime>,
    dpd_cfg: Option<DpdConfig>,
    skeyid: Vec<u8>,
    /// The PRF schedule of the last master [`Gateway::add_peer`] /
    /// [`Gateway::add_peer_between`] derived under, beside that master's
    /// bytes: one entry, rebuilt when the master changes. Volatile,
    /// so [`Gateway::reset`] drops it; key material, so `{:?}` never
    /// shows it.
    master_schedule: Option<(Vec<u8>, HmacKey)>,
    /// Per-SPI cap on frames buffered during a wake-up (OOM guard).
    wakeup_buffer: usize,
    /// Optional instrumentation (see [`GatewayBuilder::telemetry`]).
    telemetry: Option<Telemetry>,
    /// Which telemetry shard slot this gateway records into (0 for a
    /// plain gateway; [`GatewayBuilder::build_sharded`] assigns each
    /// shard its index).
    shard_index: usize,
    /// Wall-clock start of an in-flight recovery: set by
    /// [`Gateway::begin_recover`], consumed when
    /// [`Gateway::finish_recover`] succeeds (so the recorded latency
    /// spans the whole FETCH → wake-up SAVE window, retries included).
    recover_started: Option<Instant>,
    make_store: Box<dyn FnMut(u32, SaDirection) -> S + Send>,
    // Per-SA state (detector, live DPD deadline, rekey generation) is
    // in the SA's record in the SADB — the dead-peer state in its inbound
    // half, the rekey generation in its `SaPolicy` — and leaves with it.
    // The SPI-keyed fields below hold only work that is due: each entry
    // is a hint, verified against the live record when drained, so none
    // needs removing at teardown.
    /// Due-list: inbound SPIs whose detector is to be armed. Arming waits
    /// for the first [`Gateway::tick`] (or delivered frame) so the idle
    /// clock starts at the driver's real time, not at install time.
    dpd_unarmed: BTreeSet<u32>,
    /// Every scheduled DPD deadline as `(deadline, push number, SPI)`,
    /// earliest first; the push number (`dpd_pushed` at the push) makes
    /// equal deadlines fire in scheduling order. Only the entry whose
    /// deadline matches the inbound half's `DpdState::deadline` is live —
    /// superseded ones, and those of an SA torn down since, fire as stale
    /// no-ops. The live deadline never
    /// exceeds the detector's true next transition, so a tick can skip
    /// every SPI the heap does not surface; an entry that fires early
    /// merely polls `Idle` and re-arms at the true deadline.
    dpd_heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Entries ever pushed onto `dpd_heap`.
    dpd_pushed: u64,
    /// Reusable drain buffer for due timers — the idle tick touches it
    /// without allocating.
    timer_scratch: Vec<(u64, u32)>,
    /// Reusable result buffer of the receive drain: each drain's verdicts
    /// land here and leave as events, so a single-frame
    /// [`Gateway::push_wire`] does not allocate a vector per frame.
    rx_scratch: Vec<RxResult>,
    /// Due-list: SPIs whose usage crossed the rekey lifetime, marked at
    /// accounting time (protect / delivery / install) and drained by
    /// [`Gateway::tick`] — dueness is usage-driven, so it cannot be
    /// kept in the deadline heap.
    rekey_due: BTreeSet<u32>,
    /// Due-list: SAs whose wake-up FETCH failed in
    /// [`Gateway::begin_recover`], with the reason, carried to
    /// [`Gateway::finish_recover`] where those still down are replaced
    /// (fail closed) after the healthy SAs' recovery is reported.
    pending_fail_closed: Vec<(u32, String)>,
    events: VecDeque<GatewayEvent>,
    /// Wall clock as of the last [`Gateway::tick`]; timestamps DPD
    /// liveness evidence from pushed frames.
    now_ns: u64,
}

impl<S> fmt::Debug for Gateway<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("suite", &self.suite)
            .field("k", &self.k)
            .field("w", &self.w)
            .field("sas", &self.sadb.len())
            .field("scheduled_timers", &self.dpd_heap.len())
            .field("pending_events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl<S: StableStore> Gateway<S> {
    // ------------------------------------------------------------------
    // SA installation
    // ------------------------------------------------------------------

    /// Installs a bidirectional SA pair under `spi` with keys derived
    /// from `master` and the builder's suite. Two gateways calling this
    /// with the same arguments interoperate (each direction uses the
    /// same derived keys on both ends).
    ///
    /// Because the two directions share one key, a host's own sent
    /// frames would authenticate against its own inbound SA — fine for
    /// loopback demos and unidirectional experiments, but a real
    /// bidirectional deployment should use [`Gateway::add_peer_between`]
    /// (direction-separated keys, reflection-proof) or install
    /// handshake-negotiated SAs via [`Gateway::install_pair`].
    ///
    /// The keys are [`SaKeys::derive`]'s. The gateway keeps the PRF
    /// schedule (HMAC ipad/opad states) of the last master it derived
    /// under, with that master's bytes, so a fleet installed under one
    /// master runs the master's key schedule once, not twice per SA.
    /// A different master replaces the entry; [`Gateway::reset`] drops
    /// it like any volatile state, and `{:?}` never prints it.
    pub fn add_peer(&mut self, spi: u32, master: &[u8]) {
        let keys = self.derive_keys(master, &spi.to_be_bytes());
        let sa = SecurityAssociation::new(spi, keys).with_suite(self.suite);
        self.install_pair(sa);
    }

    /// Installs a bidirectional SA pair under `spi` with
    /// *direction-separated* keys: outbound protects `local → remote`,
    /// inbound expects `remote → local`. The peer gateway calls this
    /// with the names swapped, so the two interoperate while a frame a
    /// host sent can never be reflected back into that same host (it
    /// fails authentication). Both directions derive under the cached
    /// schedule of [`Gateway::add_peer`].
    pub fn add_peer_between(&mut self, spi: u32, master: &[u8], local: &[u8], remote: &[u8]) {
        let label = |from: &[u8], to: &[u8]| {
            let mut l = Vec::with_capacity(4 + from.len() + 2 + to.len());
            l.extend_from_slice(&spi.to_be_bytes());
            l.extend_from_slice(from);
            l.extend_from_slice(b"->");
            l.extend_from_slice(to);
            l
        };
        let out_keys = self.derive_keys(master, &label(local, remote));
        let in_keys = self.derive_keys(master, &label(remote, local));
        self.install_outbound(SecurityAssociation::new(spi, out_keys).with_suite(self.suite));
        self.install_inbound(SecurityAssociation::new(spi, in_keys).with_suite(self.suite));
    }

    /// [`SaKeys::derive`]`(master, label)` under the cached schedule,
    /// rebuilt first when `master` is not the one it was built from.
    fn derive_keys(&mut self, master: &[u8], label: &[u8]) -> SaKeys {
        if !matches!(&self.master_schedule, Some((cached, _)) if ct_eq(cached, master)) {
            self.master_schedule = Some((master.to_vec(), HmacKey::new(master)));
        }
        let (_, schedule) = self.master_schedule.as_ref().expect("filled above");
        SaKeys::derive_with(schedule, label)
    }

    /// Installs an externally built SA (e.g. negotiated by IKE, or from
    /// [`crate::rekey`]) in both directions,
    /// with fresh stores from the builder's factory.
    pub fn install_pair(&mut self, sa: SecurityAssociation) {
        self.install_outbound(sa.clone());
        self.install_inbound(sa);
    }

    /// Counts an install and marks the due-at-install edge (a zero
    /// lifetime): there is no tick sweep, so dueness must be marked
    /// wherever usage state enters.
    fn note_install(&mut self, sa: &SecurityAssociation) {
        if let Some(t) = &self.telemetry {
            t.class(sa.suite().name()).installs.incr();
        }
        if self
            .rekey_after
            .is_some_and(|lifetime| rekey_due(sa, &lifetime))
        {
            self.rekey_due.insert(sa.spi());
        }
    }

    /// Installs an SA for sending only.
    pub fn install_outbound(&mut self, sa: SecurityAssociation) {
        self.note_install(&sa);
        let store = (self.make_store)(sa.spi(), SaDirection::Outbound);
        self.sadb.install_outbound(sa, store, self.k);
    }

    /// Installs an SA for receiving only. When the builder configured
    /// DPD, the SPI's detector arms at the next [`Gateway::tick`] (not
    /// here — install happens before the driver's clock is known, and
    /// arming at a stale instant would make the first tick see a huge
    /// phantom idle gap).
    pub fn install_inbound(&mut self, sa: SecurityAssociation) {
        let spi = sa.spi();
        self.note_install(&sa);
        let store = (self.make_store)(spi, SaDirection::Inbound);
        self.sadb
            .install_inbound(sa, store, self.k, self.w)
            .set_wakeup_buffer(self.wakeup_buffer);
        if self.dpd_cfg.is_some() {
            // Installing over a live receiver restarts its detector too:
            // the one it had judged the SA this one replaces.
            let record = self.sadb.record_mut(spi).expect("just installed");
            record.dpd_mut().expect("just installed").detector = None;
            self.dpd_unarmed.insert(spi);
        }
    }

    /// Tears down both directions of `spi`. The record leaves the SADB
    /// with everything kept for the SA (a deadline it still has in the
    /// heap fires as a stale no-op), so a later SA under the same SPI
    /// starts from scratch. Best-effort erases the directions' persistent slots (so a
    /// later FETCH cannot resurrect this SA's counters into a reused
    /// SPI). Returns whether anything was removed.
    pub fn remove_peer(&mut self, spi: u32) -> bool {
        let Some(mut removed) = self.sadb.remove(spi) else {
            return false;
        };
        erase_slots(spi, removed.outbound.as_mut(), removed.inbound.as_mut());
        if let Some(t) = &self.telemetry {
            for sa in [
                removed.outbound.as_ref().map(|o| o.sa()),
                removed.inbound.as_ref().map(|i| i.sa()),
            ]
            .into_iter()
            .flatten()
            {
                t.class(sa.suite().name()).removals.incr();
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Datapath
    // ------------------------------------------------------------------

    /// Seals `payload` on the outbound SA `spi`. Returns `None` while
    /// the gateway is down or waking (nothing can be sent).
    ///
    /// # Errors
    ///
    /// [`IpsecError::UnknownSa`], lifetime exhaustion, or store
    /// failures.
    pub fn protect(&mut self, spi: u32, payload: &[u8]) -> Result<Option<SentFrame>, IpsecError> {
        let (wire, seq, record) = self.sadb.protect_on(spi, payload)?;
        // Marked here, where usage changes: the rekey due-list is what
        // lets `tick` skip the rest of the fleet.
        if let (Some(lifetime), Some(out)) = (self.rekey_after, record.outbound()) {
            if rekey_due(out.sa(), &lifetime) {
                self.rekey_due.insert(spi);
            }
        }
        Ok(wire.map(|wire| SentFrame { spi, seq, wire }))
    }

    /// Feeds one received frame in — a drain of one. The verdict is
    /// appended to the event queue (exactly one event per frame); nothing
    /// is returned in-line.
    ///
    /// # Errors
    ///
    /// As [`Gateway::push_wire_batch`] — per-packet failures (forgery,
    /// unknown SPI, replay) are events, not errors.
    pub fn push_wire(&mut self, wire: &Bytes) -> Result<(), IpsecError> {
        self.push_wire_routed(1, |_| wire)
    }

    /// Feeds a burst of frames (a NIC queue drain) through the batched
    /// pipeline: ICVs verify in lane groups that cross SA runs (the HMAC
    /// suites per run) and delivered payloads share one decryption arena.
    /// One event per frame, in arrival order.
    ///
    /// # Errors
    ///
    /// Reserved for non-per-packet infrastructure failures.
    pub fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError> {
        self.push_wire_routed(wires.len(), |i| &wires[i])
    }

    /// The drain behind every `push_wire*` verb: feeds the `n` frames
    /// `at(0..n)` through [`Sadb::process_batch_routed`] and emits one
    /// event per frame, in that order. The sharded fan-out passes
    /// `|i| &batch[route[i]]`, so shards read the one shared batch in
    /// place instead of receiving per-shard clones; telemetry counts
    /// the `n` frames against this shard either way.
    pub(crate) fn push_wire_routed<'w>(
        &mut self,
        n: usize,
        at: impl Fn(usize) -> &'w Bytes + Copy,
    ) -> Result<(), IpsecError> {
        // Timing is gated on the handle so the uninstrumented path
        // never reads the clock.
        let started = self.telemetry.as_ref().map(|_| Instant::now());
        let (sadb, out, mut notes) = self.drain_parts();
        sadb.process_batch_routed(n, at, out, |inbound| notes.note(inbound));
        self.emit_rx();
        if let (Some(t), Some(started)) = (&self.telemetry, started) {
            t.record_drain(
                self.shard_index,
                n as u64,
                started.elapsed().as_nanos() as u64,
                self.events.len() as u64,
            );
        }
        Ok(())
    }

    /// What a receive drain works on: the SADB, the result vector it
    /// fills and the delivery notes it takes, borrowed apart.
    fn drain_parts(&mut self) -> (&mut Sadb<S>, &mut Vec<RxResult>, DeliveryNotes<'_>) {
        let notes = DeliveryNotes {
            dpd_cfg: self.dpd_cfg.as_ref(),
            rekey_after: self.rekey_after,
            now_ns: self.now_ns,
            dpd_heap: &mut self.dpd_heap,
            dpd_pushed: &mut self.dpd_pushed,
            rekey_due: &mut self.rekey_due,
        };
        (&mut self.sadb, &mut self.rx_scratch, notes)
    }

    /// Turns the verdicts the SADB just left in `rx_scratch` into events,
    /// in order, walking the SPI runs it recorded beside them: a run names
    /// its SPI, so no frame is parsed and no SA looked up again. What the
    /// deliveries meant for the SAs' policies the drain has already noted.
    fn emit_rx(&mut self) {
        let mut results = std::mem::take(&mut self.rx_scratch);
        let runs = std::mem::take(self.sadb.runs_mut());
        let mut verdicts = results.drain(..);
        for run in &runs {
            for result in verdicts.by_ref().take(run.len) {
                self.emit(event_from_rx(run.spi, result));
            }
        }
        drop(verdicts);
        self.rx_scratch = results;
        *self.sadb.runs_mut() = runs;
    }

    /// Appends `ev` to the event queue, counting its kind into the
    /// attached telemetry (one branch when uninstrumented).
    fn emit(&mut self, ev: GatewayEvent) {
        if let Some(t) = &self.telemetry {
            t.record_event(self.shard_index, event_kind(&ev));
        }
        self.events.push_back(ev);
    }

    /// Records a lifecycle trace event when telemetry is attached.
    fn trace(&self, severity: Severity, code: &'static str, spi: u32, detail: u64) {
        if let Some(t) = &self.telemetry {
            t.trace(self.now_ns, severity, code, spi, detail);
        }
    }

    /// Routes this gateway's telemetry into shard slot `index`
    /// (`build_sharded` assigns each shard its own).
    pub(crate) fn set_shard_index(&mut self, index: usize) {
        self.shard_index = index;
    }

    /// Drains everything that happened since the last poll, in order.
    pub fn poll_events(&mut self) -> Vec<GatewayEvent> {
        self.events.drain(..).collect()
    }

    /// Events queued but not yet polled.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    // ------------------------------------------------------------------
    // Clock-driven policies
    // ------------------------------------------------------------------

    /// Advances the gateway's clock and runs the *due* work only: DPD
    /// deadlines at or before `now_ns`, in (deadline, scheduling) order,
    /// and rekeys for SAs the accounting paths marked in the due-set
    /// since the last tick. There is no per-SA sweep — an idle tick
    /// (nothing due) is one heap `peek` regardless of SADB size. Emits
    /// [`GatewayEvent::ProbeDue`], [`GatewayEvent::PeerDead`],
    /// [`GatewayEvent::RekeyStarted`]/[`GatewayEvent::RekeyCompleted`].
    ///
    /// `now_ns` should never decrease. A tick whose clock runs backward
    /// fires only the deadlines due at its own `now_ns`; nothing is
    /// clamped to the latest clock seen.
    pub fn tick(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        // Arm detectors installed since the last tick: their idle clock
        // starts now, the first instant the driver's time is known. An
        // entry whose receiver is gone, or was armed by a delivery since,
        // is stale.
        while let Some(spi) = self.dpd_unarmed.pop_first() {
            let (Some(cfg), Some(record)) = (&self.dpd_cfg, self.sadb.record_mut(spi)) else {
                continue;
            };
            let Some(dpd) = record.dpd_mut() else {
                continue;
            };
            if dpd.detector.is_none() {
                heard_from(
                    dpd,
                    cfg,
                    now_ns,
                    &mut self.dpd_heap,
                    &mut self.dpd_pushed,
                    spi,
                );
            }
        }
        // DPD first: a peer torn down here must not be rekeyed below.
        // Only SPIs the heap surfaces as due are polled — tick cost is
        // proportional to *due* timers, not fleet size, and an idle tick
        // (nothing due) allocates nothing. Every due entry is popped
        // before any is handled, so one scheduled below (a zero-length
        // interval) waits for the next tick.
        while let Some(&Reverse((deadline, _, spi))) = self.dpd_heap.peek() {
            if deadline > now_ns {
                break;
            }
            self.dpd_heap.pop();
            self.timer_scratch.push((deadline, spi));
        }
        if !self.timer_scratch.is_empty() {
            let mut due = std::mem::take(&mut self.timer_scratch);
            let cfg = self
                .dpd_cfg
                .expect("only a configured gateway arms deadlines");
            for &(deadline, spi) in &due {
                let Some(dpd) = self.sadb.record_mut(spi).and_then(SaRecord::dpd_mut) else {
                    continue; // torn down: stale entry
                };
                if dpd.deadline != Some(deadline) {
                    continue; // superseded, or a previous SA's: stale entry
                }
                dpd.deadline = None;
                let Some(det) = dpd.detector.as_mut() else {
                    continue;
                };
                let action = det.poll(now_ns, &cfg);
                if action == DpdAction::TearDown {
                    self.remove_peer(spi);
                    self.trace(Severity::Warn, "peer_dead", spi, 0);
                    self.emit(GatewayEvent::PeerDead { spi });
                    continue; // record gone; nothing to re-arm
                }
                schedule_dpd(dpd, &cfg, &mut self.dpd_heap, &mut self.dpd_pushed, spi);
                if action == DpdAction::SendProbe {
                    self.emit(GatewayEvent::ProbeDue { spi });
                }
            }
            due.clear();
            self.timer_scratch = due;
        }
        // Rekeys fire from the due-set populated at accounting time.
        // Drained by value so a rekey that immediately re-dues (e.g. a
        // zero lifetime) waits for the next tick instead of looping. The
        // set is a superset — dueness is re-verified against the live SA
        // so a mark staled by a reset or teardown does not force a rekey.
        if !self.rekey_due.is_empty() {
            let due = std::mem::take(&mut self.rekey_due);
            for spi in due {
                let still_due = self.rekey_after.is_some_and(|lifetime| {
                    self.sadb.record(spi).is_some_and(|record| {
                        record
                            .outbound()
                            .is_some_and(|o| rekey_due(o.sa(), &lifetime))
                            || record
                                .inbound()
                                .is_some_and(|i| rekey_due(i.sa(), &lifetime))
                    })
                });
                if still_due {
                    self.rekey_now(spi);
                }
            }
        }
    }

    /// Quick-mode-rekeys `spi` immediately: fresh keys and counters
    /// under the builder's suite, derived deterministically from the
    /// shared `skeyid` and the per-SPI generation counter (so two peer
    /// gateways performing the same generation derive identical SAs).
    /// Emits `RekeyStarted` + `RekeyCompleted`.
    pub fn rekey_now(&mut self, spi: u32) {
        let Some(record) = self.sadb.record_mut(spi) else {
            return;
        };
        let started = self.telemetry.as_ref().map(|_| Instant::now());
        record.policy.rekey_generation += 1;
        let generation = record.policy.rekey_generation;
        // Erase the old generation's persistent slots: the replacement
        // starts a fresh number space, and a stale FETCH after a
        // post-rekey crash must not leap the new SA to the old
        // generation's counters.
        let (outbound, inbound) = record.halves_mut();
        let (had_outbound, had_inbound) = (outbound.is_some(), inbound.is_some());
        erase_slots(spi, outbound, inbound);
        self.emit(GatewayEvent::RekeyStarted { spi });
        let request = RekeyRequest {
            skeyid: self.skeyid.clone(),
            nonce_i: rekey_nonce(&self.skeyid, b"ni", spi, generation),
            nonce_r: rekey_nonce(&self.skeyid, b"nr", spi, generation),
            new_spi: spi,
            suite: self.suite,
        };
        let replacement = rekey(&request);
        // The new endpoints go in over the old ones, in the same record:
        // the detector, its live deadline and the generation just counted
        // are the SA's, not a generation's, and stay.
        if had_outbound {
            let store = (self.make_store)(spi, SaDirection::Outbound);
            self.sadb
                .install_outbound(replacement.clone(), store, self.k);
        }
        if had_inbound {
            let store = (self.make_store)(spi, SaDirection::Inbound);
            self.sadb
                .install_inbound(replacement.clone(), store, self.k, self.w)
                .set_wakeup_buffer(self.wakeup_buffer);
        }
        let suite = replacement.suite();
        self.emit(GatewayEvent::RekeyCompleted { spi, suite });
        if let (Some(t), Some(started)) = (&self.telemetry, started) {
            let elapsed = started.elapsed().as_nanos() as u64;
            t.record_rekey_ns(elapsed);
            t.class(suite.name()).rekeys.incr();
            t.trace(self.now_ns, Severity::Info, "rekey", spi, elapsed);
        }
    }

    // ------------------------------------------------------------------
    // Reset and recovery
    // ------------------------------------------------------------------

    /// The host crashes: every SA loses its volatile counters and
    /// buffered frames. Traffic pushed while down evaporates
    /// ([`GatewayEvent::DroppedDown`]).
    pub fn reset(&mut self) {
        self.trace(Severity::Warn, "reset", 0, self.sadb.len() as u64);
        self.master_schedule = None;
        self.sadb.reset_all();
    }

    /// SAVE/FETCH recovery of the whole gateway in one call: FETCH +
    /// `2K` leap + synchronous SAVE on every SA. Emits
    /// [`GatewayEvent::Recovered`]. Returns the number of SA directions
    /// recovered.
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn recover(&mut self) -> Result<usize, IpsecError> {
        self.begin_recover()?;
        self.finish_recover()
    }

    /// First recovery half: FETCH + leap + issue the synchronous SAVE
    /// on every down SA. Frames pushed until [`Gateway::finish_recover`]
    /// are buffered ([`GatewayEvent::Buffered`]).
    ///
    /// A FETCH that hits untrusted state — a corrupt record or a
    /// generation rollback — does **not** abort the sweep or resurrect
    /// the SA: the failing SA is noted, stays down through
    /// [`Gateway::finish_recover`], and is then replaced (fail closed;
    /// see [`GatewayEvent::FailedClosed`]). Healthy SAs wake normally.
    ///
    /// # Errors
    ///
    /// Reserved for infrastructure failures; per-SA store failures are
    /// handled by failing the SA closed, not returned.
    pub fn begin_recover(&mut self) -> Result<(), IpsecError> {
        if self.telemetry.is_some() && self.recover_started.is_none() {
            self.recover_started = Some(Instant::now());
        }
        let failed = self.sadb.begin_recover_all();
        self.pending_fail_closed
            .extend(failed.into_iter().map(|(spi, e)| (spi, e.to_string())));
        Ok(())
    }

    /// Second recovery half: the wake-up SAVEs completed. Emits
    /// `Recovered { sas }` followed by one `Delivered`/`ReplayDropped`
    /// event per frame buffered during the wake-up (the §3 test: a
    /// replay stream spanning the reset must surface as `ReplayDropped`
    /// here, never `Delivered`). Finally, every SA whose FETCH failed in
    /// [`Gateway::begin_recover`] and that is still down — not torn down,
    /// replaced or woken since — is **failed closed**: one
    /// [`GatewayEvent::FailedClosed`] followed by its replacement rekey's
    /// events. Returns the recovered direction count.
    ///
    /// # Errors
    ///
    /// Store failures completing the wake-up SAVEs (the gateway stays
    /// waking; retry — the paper's SAVE device is merely slow, not
    /// untrusted, so retrying the completion is safe).
    pub fn finish_recover(&mut self) -> Result<usize, IpsecError> {
        let (sadb, out, mut notes) = self.drain_parts();
        let sas = sadb.finish_recover_all(out, |inbound| notes.note(inbound))?;
        self.emit(GatewayEvent::Recovered { sas });
        self.emit_rx();
        if let (Some(t), Some(started)) = (&self.telemetry, self.recover_started.take()) {
            let elapsed = started.elapsed().as_nanos() as u64;
            t.record_recovery_ns(elapsed);
            t.class(self.suite.name()).recoveries.incr();
            t.trace(self.now_ns, Severity::Info, "recovered", 0, elapsed);
        }
        // Replace every SA that woke into untrusted state. A note stands
        // only while an installed half of its SA is still down: one torn
        // down, replaced or woken since the FETCH failed needs no
        // replacement, nor does one just replaced for its other half's
        // note — the peer must resynchronize exactly once.
        for (spi, reason) in std::mem::take(&mut self.pending_fail_closed) {
            let still_down = self.sadb.record(spi).is_some_and(|record| {
                record.outbound().is_some_and(|o| o.phase() == Phase::Down)
                    || record.inbound().is_some_and(|i| i.phase() == Phase::Down)
            });
            if !still_down {
                continue;
            }
            if let Some(t) = &self.telemetry {
                t.class(self.suite.name()).failed_closed.incr();
                t.trace(self.now_ns, Severity::Error, "failed_closed", spi, 0);
            }
            self.emit(GatewayEvent::FailedClosed { spi, reason });
            self.rekey_now(spi);
        }
        Ok(sas)
    }

    // ------------------------------------------------------------------
    // Background-save plumbing and introspection
    // ------------------------------------------------------------------

    /// True iff any SA has a background SAVE in flight (timed drivers
    /// schedule a completion after the device latency) — the wake-up
    /// SAVEs between the recovery halves included. Answered from the
    /// SADB's SAVE due-list — O(SAs queued), not a fleet sweep.
    pub fn pending_save(&self) -> bool {
        self.sadb.has_pending_save()
    }

    /// Completes every in-flight background SAVE (the device finished
    /// writing), outbound SPIs ascending, then inbound. Walks only the
    /// SADB's SAVE due-list, so a million-SA fleet pays for the saves it
    /// owes, not for its size.
    ///
    /// # Errors
    ///
    /// Store failures (pending saves are retained for retry).
    pub fn save_completed(&mut self) -> Result<(), StableError> {
        self.sadb.complete_pending_saves()
    }

    /// The next sequence number the outbound SA `spi` would send.
    pub fn next_seq(&self, spi: u32) -> Option<SeqNum> {
        self.sadb.outbound(spi).map(|o| o.next_seq())
    }

    /// The inbound SA's anti-replay right edge.
    pub fn right_edge(&self, spi: u32) -> Option<SeqNum> {
        self.sadb.inbound(spi).map(|i| i.right_edge())
    }

    /// The SA's liveness phase (outbound half preferred when both
    /// directions are installed; a reset strikes the whole host, so the
    /// two move together).
    pub fn phase(&self, spi: u32) -> Option<Phase> {
        self.sadb
            .outbound(spi)
            .map(|o| o.phase())
            .or_else(|| self.sadb.inbound(spi).map(|i| i.phase()))
    }

    /// Whether the DPD detector for `spi` is inside the §6 grace window
    /// (peer presumed down, SAs kept alive awaiting its recovery).
    /// `None` when DPD is not configured or the SPI unknown.
    pub fn in_grace(&self, spi: u32) -> Option<bool> {
        let detector = self.sadb.inbound(spi)?.dpd.detector.as_ref()?;
        Some(detector.in_grace())
    }

    /// Read access to the underlying SADB.
    pub fn sadb(&self) -> &Sadb<S> {
        &self.sadb
    }
}

/// What a delivery means for an SA's policies, with the gateway's state
/// it updates borrowed for one drain ([`Gateway::drain_parts`]).
struct DeliveryNotes<'a> {
    dpd_cfg: Option<&'a DpdConfig>,
    rekey_after: Option<SaLifetime>,
    now_ns: u64,
    dpd_heap: &'a mut BinaryHeap<Reverse<(u64, u64, u32)>>,
    dpd_pushed: &'a mut u64,
    rekey_due: &'a mut BTreeSet<u32>,
}

impl DeliveryNotes<'_> {
    /// Authenticated traffic arrived on `inbound`: only that proves the
    /// peer alive (and gives a detector still waiting for its first clock
    /// reading one), and it is where inbound usage grows. A drain notes
    /// each run that delivered, right after windowing it, and a wake-up
    /// each SA whose buffered frames did. Every step is idempotent at a
    /// fixed clock and usage only grows, so noting an SA again later in
    /// the same drain — a second run of it, or one run cut in two by a
    /// slice — leaves what noting it once after the drain would.
    fn note<S: StableStore>(&mut self, inbound: &mut Inbound<S>) {
        let spi = inbound.sa().spi();
        if let Some(cfg) = self.dpd_cfg {
            // Re-scheduling is usually a no-op (traffic pushes the
            // deadline later); a grace-exit can pull it earlier, which
            // must supersede the live entry.
            heard_from(
                &mut inbound.dpd,
                cfg,
                self.now_ns,
                self.dpd_heap,
                self.dpd_pushed,
                spi,
            );
        }
        if let Some(lifetime) = &self.rekey_after {
            if rekey_due(inbound.sa(), lifetime) {
                self.rekey_due.insert(spi);
            }
        }
    }
}

/// The event a drained frame's verdict becomes (`spi` is the SPI of the
/// frame's run).
fn event_from_rx(spi: u32, result: RxResult) -> GatewayEvent {
    match result {
        RxResult::Delivered { payload, seq } => GatewayEvent::Delivered { spi, seq, payload },
        RxResult::AntiReplay { outcome, seq } => GatewayEvent::ReplayDropped { spi, seq, outcome },
        RxResult::Rejected(RxReject::UnknownSa { spi }) => GatewayEvent::UnknownSa { spi },
        RxResult::Rejected(RxReject::Wire(_)) => GatewayEvent::AuthFailed { spi },
        RxResult::Buffered => GatewayEvent::Buffered { spi },
        RxResult::DroppedDown => GatewayEvent::DroppedDown { spi },
    }
}

/// Best-effort erasure of an SA's persistent slots — the teardown duty
/// [`Sadb::remove`]'s docs assign to the caller, and a rekey's towards
/// the generation it replaces. Erase failures are swallowed: the slot
/// then merely retains a stale value, which is no worse than before.
fn erase_slots<S: StableStore>(
    spi: u32,
    outbound: Option<&mut Outbound<S>>,
    inbound: Option<&mut Inbound<S>>,
) {
    if let Some(o) = outbound {
        let _ = o.store_mut().erase(SlotId::sender(spi));
    }
    if let Some(i) = inbound {
        let _ = i.store_mut().erase(SlotId::receiver(spi));
    }
}

/// Notes that `spi`'s peer is alive at `now_ns` — authenticated traffic,
/// or the first clock reading of a freshly installed receiver — creating
/// the detector on first use, and keeps its heap entry in step.
fn heard_from(
    dpd: &mut DpdState,
    cfg: &DpdConfig,
    now_ns: u64,
    heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
    pushed: &mut u64,
    spi: u32,
) {
    dpd.detector
        .get_or_insert_with(DpdDetector::new)
        .on_traffic(now_ns);
    schedule_dpd(dpd, cfg, heap, pushed, spi);
}

/// (Re-)schedules `spi`'s live heap entry at its detector's next
/// transition deadline. An existing entry that is already at or before
/// the new deadline stays live (it fires early and re-arms); a later one
/// is superseded so detection is never delayed.
fn schedule_dpd(
    dpd: &mut DpdState,
    cfg: &DpdConfig,
    heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
    pushed: &mut u64,
    spi: u32,
) {
    let Some(deadline) = dpd.detector.as_ref().and_then(|det| det.next_deadline(cfg)) else {
        // Dead detector or none: whatever heap entry remains is stale
        // and will be ignored when it fires.
        dpd.deadline = None;
        return;
    };
    if dpd.deadline.is_none_or(|live| live > deadline) {
        dpd.deadline = Some(deadline);
        heap.push(Reverse((deadline, *pushed, spi)));
        *pushed += 1;
    }
}

/// Deterministic quick-mode nonce: both peers derive the same nonce for
/// the same (skeyid, role, spi, generation), so policy rekeys stay in
/// lockstep without an extra exchange being modelled.
fn rekey_nonce(skeyid: &[u8], role: &[u8], spi: u32, generation: u32) -> [u8; 16] {
    let mut msg = Vec::with_capacity(role.len() + 8);
    msg.extend_from_slice(role);
    msg.extend_from_slice(&spi.to_be_bytes());
    msg.extend_from_slice(&generation.to_be_bytes());
    let h = hmac_sha256(skeyid, &msg);
    let mut out = [0u8; 16];
    out.copy_from_slice(&h[..16]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(suite: CryptoSuite) -> (Gateway<MemStable>, Gateway<MemStable>) {
        let mut p = GatewayBuilder::in_memory()
            .suite(suite)
            .save_interval(10)
            .window(64)
            .build();
        let mut q = GatewayBuilder::in_memory()
            .suite(suite)
            .save_interval(10)
            .window(64)
            .build();
        p.add_peer(0x11, b"gw-test-master");
        q.add_peer(0x11, b"gw-test-master");
        (p, q)
    }

    #[test]
    fn traffic_flows_and_events_carry_payloads() {
        let (mut p, mut q) = pair(CryptoSuite::default());
        for i in 0..20u32 {
            let f = p
                .protect(0x11, format!("m{i}").as_bytes())
                .unwrap()
                .unwrap();
            assert_eq!(f.seq.value(), i as u64 + 1);
            q.push_wire(&f.wire).unwrap();
        }
        let events = q.poll_events();
        assert_eq!(events.len(), 20);
        for (i, ev) in events.iter().enumerate() {
            match ev {
                GatewayEvent::Delivered { spi, seq, payload } => {
                    assert_eq!(*spi, 0x11);
                    assert_eq!(seq.value(), i as u64 + 1);
                    assert_eq!(&payload[..], format!("m{i}").as_bytes());
                }
                other => panic!("packet {i}: {other:?}"),
            }
        }
        assert_eq!(q.pending_events(), 0);
    }

    #[test]
    fn batch_push_matches_sequential_push() {
        // Partition invariance: one frame per push, batches of seven and
        // the whole burst at once must emit identical event streams.
        let (mut p, mut q_whole) = pair(CryptoSuite::default());
        let mut wires = Vec::new();
        for i in 0..30u32 {
            wires.push(
                p.protect(0x11, format!("b{i}").as_bytes())
                    .unwrap()
                    .unwrap()
                    .wire,
            );
        }
        wires.push(wires[4].clone()); // replay
        let mut forged = wires[6].to_vec();
        let n = forged.len();
        forged[n - 1] ^= 0x40;
        wires.push(Bytes::from(forged));
        q_whole.push_wire_batch(&wires).unwrap();
        let whole = q_whole.poll_events();
        assert_eq!(whole.len(), wires.len());

        let (_, mut q_single) = pair(CryptoSuite::default());
        for w in &wires {
            q_single.push_wire(w).unwrap();
        }
        assert_eq!(q_single.poll_events(), whole);

        let (_, mut q_sevens) = pair(CryptoSuite::default());
        for chunk in wires.chunks(7) {
            q_sevens.push_wire_batch(chunk).unwrap();
        }
        assert_eq!(q_sevens.poll_events(), whole);
    }

    #[test]
    fn forged_and_foreign_frames_become_events_not_errors() {
        let (mut p, mut q) = pair(CryptoSuite::default());
        let f = p.protect(0x11, b"x").unwrap().unwrap();
        let mut forged = f.wire.to_vec();
        forged[9] ^= 0xFF;
        q.push_wire(&Bytes::from(forged)).unwrap();
        let mut foreign = f.wire.to_vec();
        foreign[3] = 0x99;
        q.push_wire(&Bytes::from(foreign)).unwrap();
        q.push_wire(&Bytes::copy_from_slice(&[1, 2])).unwrap();
        assert_eq!(
            q.poll_events(),
            vec![
                GatewayEvent::AuthFailed { spi: 0x11 },
                GatewayEvent::UnknownSa { spi: 0x99 },
                GatewayEvent::AuthFailed { spi: 0 },
            ]
        );
    }

    #[test]
    fn frames_for_an_outbound_only_spi_are_unknown_in_arrival_order() {
        // The receiver sends on 0x22 but does not receive on it: the
        // SPI's record is live, yet no frame naming it is served, and its
        // verdicts keep their places among the delivered ones.
        let (mut p, mut q) = pair(CryptoSuite::default());
        let send_only = SecurityAssociation::new(0x22, SaKeys::derive(b"gw-test", b"0x22"));
        p.install_outbound(send_only.clone());
        q.install_outbound(send_only);
        let mut seal = |spi| p.protect(spi, b"x").unwrap().unwrap().wire;
        let batch = [seal(0x11), seal(0x22), seal(0x22), seal(0x11), seal(0x22)];
        q.push_wire_batch(&batch).unwrap();
        let kinds: Vec<_> = q
            .poll_events()
            .iter()
            .map(|ev| match ev {
                GatewayEvent::Delivered { spi, seq, .. } => (*spi, Some(seq.value())),
                GatewayEvent::UnknownSa { spi } => (*spi, None),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                (0x11, Some(1)),
                (0x22, None),
                (0x22, None),
                (0x11, Some(2)),
                (0x22, None)
            ]
        );
        // The send half is untouched.
        assert_eq!(q.protect(0x22, b"y").unwrap().unwrap().seq.value(), 1);
    }

    #[test]
    fn protect_on_unknown_spi_errors() {
        let (mut p, _) = pair(CryptoSuite::default());
        assert!(matches!(
            p.protect(0xDEAD, b"x"),
            Err(IpsecError::UnknownSa { spi: 0xDEAD })
        ));
    }

    #[test]
    fn rekey_now_replaces_keys_and_counters() {
        let (mut p, mut q) = pair(CryptoSuite::default());
        let old = p.protect(0x11, b"old traffic").unwrap().unwrap();
        q.push_wire(&old.wire).unwrap();
        p.rekey_now(0x11);
        q.rekey_now(0x11);
        let events = p.poll_events();
        assert!(events.contains(&GatewayEvent::RekeyStarted { spi: 0x11 }));
        assert!(matches!(
            events.last(),
            Some(GatewayEvent::RekeyCompleted { spi: 0x11, .. })
        ));
        q.poll_events();
        // The replay library died with the old keys.
        q.push_wire(&old.wire).unwrap();
        assert_eq!(
            q.poll_events(),
            vec![GatewayEvent::AuthFailed { spi: 0x11 }]
        );
        // Fresh traffic flows from sequence 1 under the new keys.
        let fresh = p.protect(0x11, b"new traffic").unwrap().unwrap();
        assert_eq!(fresh.seq.value(), 1);
        q.push_wire(&fresh.wire).unwrap();
        assert!(matches!(q.poll_events()[0], GatewayEvent::Delivered { .. }));
    }

    #[test]
    fn directional_peers_interoperate_but_reject_reflection() {
        let mut a = GatewayBuilder::in_memory().build();
        let mut b = GatewayBuilder::in_memory().build();
        a.add_peer_between(9, b"m", b"gw-a", b"gw-b");
        b.add_peer_between(9, b"m", b"gw-b", b"gw-a");
        let f = a.protect(9, b"to b").unwrap().unwrap();
        // The adversary reflects a's own frame back at a: the inbound SA
        // holds the other direction's keys, so authentication fails.
        a.push_wire(&f.wire).unwrap();
        assert_eq!(a.poll_events(), vec![GatewayEvent::AuthFailed { spi: 9 }]);
        // The intended receiver accepts it, and the reverse direction
        // interoperates too.
        b.push_wire(&f.wire).unwrap();
        assert!(matches!(
            b.poll_events()[..],
            [GatewayEvent::Delivered { .. }]
        ));
        let g = b.protect(9, b"to a").unwrap().unwrap();
        a.push_wire(&g.wire).unwrap();
        assert!(matches!(
            a.poll_events()[..],
            [GatewayEvent::Delivered { .. }]
        ));
    }

    #[test]
    fn cached_master_schedule_follows_the_master() {
        // One gateway installs under masters A, B, A and a 100-byte one
        // (RFC 2104 pre-hashes it), by both install verbs; each peer is
        // keyed under one master.
        let long: Vec<u8> = (0..100u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let masters: [&[u8]; 4] = [
            b"fleet-master-a",
            b"fleet-master-b",
            b"fleet-master-a",
            &long,
        ];
        let mut gw = GatewayBuilder::in_memory().build();
        let mut peers: Vec<Gateway<MemStable>> = (0..3)
            .map(|_| GatewayBuilder::in_memory().build())
            .collect();
        let peer_of = |m: usize| [0, 1, 0, 2][m];
        for (m, master) in masters.iter().enumerate() {
            let (one_key, between) = (m as u32 + 1, m as u32 + 11);
            gw.add_peer(one_key, master);
            gw.add_peer_between(between, master, b"gw", b"peer");
            peers[peer_of(m)].add_peer(one_key, master);
            peers[peer_of(m)].add_peer_between(between, master, b"peer", b"gw");
        }
        for m in 0..masters.len() {
            let peer = &mut peers[peer_of(m)];
            for spi in [m as u32 + 1, m as u32 + 11] {
                let to_gw = peer.protect(spi, b"to gw").unwrap().unwrap();
                gw.push_wire(&to_gw.wire).unwrap();
                assert!(
                    matches!(gw.poll_events()[..], [GatewayEvent::Delivered { .. }]),
                    "master {m}, spi {spi}: peer to gateway"
                );
                let to_peer = gw.protect(spi, b"to peer").unwrap().unwrap();
                peer.push_wire(&to_peer.wire).unwrap();
                assert!(
                    matches!(peer.poll_events()[..], [GatewayEvent::Delivered { .. }]),
                    "master {m}, spi {spi}: gateway to peer"
                );
            }
        }
        // A frame sealed under A to the SPI the gateway keyed under B.
        peers[0].add_peer(2, masters[0]);
        let forged = peers[0].protect(2, b"wrong master").unwrap().unwrap();
        gw.push_wire(&forged.wire).unwrap();
        assert_eq!(gw.poll_events(), vec![GatewayEvent::AuthFailed { spi: 2 }]);

        // No master and no derived key shows in `{:?}`, in runs of three
        // bytes, decimal (as Rust prints byte arrays) or hex.
        let mut secrets: Vec<Vec<u8>> = masters.iter().map(|m| m.to_vec()).collect();
        for spi in gw.sadb.spis() {
            for sa in [
                gw.sadb.outbound(spi).unwrap().sa(),
                gw.sadb.inbound(spi).unwrap().sa(),
            ] {
                secrets.push(sa.keys().auth.to_vec());
                secrets.push(sa.keys().enc.to_vec());
            }
        }
        for shown in [format!("{gw:?}"), format!("{gw:#?}")] {
            let flat: String = shown.split_whitespace().collect();
            for run in secrets.iter().flat_map(|s| s.windows(3)) {
                let decimal = format!("{},{},{}", run[0], run[1], run[2]);
                let hex = format!("{:02x}{:02x}{:02x}", run[0], run[1], run[2]);
                let leaked = flat.contains(&decimal) || flat.to_lowercase().contains(&hex);
                assert!(!leaked, "bytes {run:?} in {shown}");
            }
        }
    }

    #[test]
    fn rekey_policy_fires_from_tick() {
        let mut p = GatewayBuilder::in_memory()
            .save_interval(10)
            .rekey_after(SaLifetime {
                max_packets: 5,
                max_bytes: u64::MAX,
            })
            .build();
        p.add_peer(0x22, b"policy-master");
        for _ in 0..5 {
            p.protect(0x22, b"use it up").unwrap().unwrap();
        }
        p.tick(1_000);
        let events = p.poll_events();
        assert_eq!(
            events,
            vec![
                GatewayEvent::RekeyStarted { spi: 0x22 },
                GatewayEvent::RekeyCompleted {
                    spi: 0x22,
                    suite: CryptoSuite::default()
                },
            ]
        );
        // Counters restarted: the SA is usable again from sequence 1.
        let f = p.protect(0x22, b"gen 2").unwrap().unwrap();
        assert_eq!(f.seq.value(), 1);
    }

    #[test]
    fn dpd_probes_then_tears_down_silent_peer() {
        let mut p = GatewayBuilder::in_memory()
            .dpd(DpdConfig {
                idle_timeout_ns: 1_000,
                probe_interval_ns: 500,
                max_probes: 2,
                grace_period_ns: 5_000,
            })
            .build();
        p.add_peer(0x33, b"dpd-master");
        assert_eq!(p.poll_events(), vec![]);
        // The detector arms at the first tick — a later first tick must
        // not count install-to-tick wall time as peer silence.
        p.tick(500);
        assert_eq!(p.poll_events(), vec![], "no phantom idle at arming");
        p.tick(1_500);
        assert_eq!(p.poll_events(), vec![GatewayEvent::ProbeDue { spi: 0x33 }]);
        p.tick(2_100); // probe 2
        p.tick(2_700); // presumed down: grace starts
        assert_eq!(p.in_grace(0x33), Some(true));
        p.poll_events();
        p.tick(10_000); // grace expired
        assert_eq!(p.poll_events(), vec![GatewayEvent::PeerDead { spi: 0x33 }]);
        assert!(matches!(
            p.protect(0x33, b"gone"),
            Err(IpsecError::UnknownSa { spi: 0x33 })
        ));
    }

    /// With every interval zero each deadline a tick schedules is due at
    /// once, yet it fires only at the next tick: the detector moves one
    /// step per tick, never cascading through several in one.
    #[test]
    fn zero_intervals_move_dpd_one_step_per_tick() {
        let mut p = GatewayBuilder::in_memory()
            .dpd(DpdConfig {
                idle_timeout_ns: 0,
                probe_interval_ns: 0,
                max_probes: 2,
                grace_period_ns: 0,
            })
            .build();
        p.add_peer(0x34, b"zero-dpd-master");
        let mut step = || {
            p.tick(7_000);
            (p.poll_events(), p.in_grace(0x34))
        };
        assert_eq!(
            step(),
            (vec![GatewayEvent::ProbeDue { spi: 0x34 }], Some(false))
        );
        assert_eq!(
            step(),
            (vec![GatewayEvent::ProbeDue { spi: 0x34 }], Some(false))
        );
        assert_eq!(step(), (vec![], Some(true)), "presumed down: grace");
        assert_eq!(step(), (vec![GatewayEvent::PeerDead { spi: 0x34 }], None));
        assert_eq!(step(), (vec![], None));
    }

    #[test]
    fn authenticated_traffic_keeps_dpd_alive() {
        let dpd_cfg = DpdConfig {
            idle_timeout_ns: 1_000,
            probe_interval_ns: 500,
            max_probes: 1,
            grace_period_ns: 2_000,
        };
        let mut p = GatewayBuilder::in_memory().dpd(dpd_cfg).build();
        let mut q = GatewayBuilder::in_memory().build();
        p.add_peer(0x44, b"alive-master");
        q.add_peer(0x44, b"alive-master");
        for t in 0..10u64 {
            let f = q.protect(0x44, b"keepalive").unwrap().unwrap();
            p.tick(t * 900);
            p.push_wire(&f.wire).unwrap();
        }
        assert!(
            !p.poll_events()
                .iter()
                .any(|e| matches!(e, GatewayEvent::ProbeDue { .. })),
            "traffic within the idle timeout must suppress probes"
        );
    }

    #[test]
    fn a_run_cut_by_a_drain_slice_is_noted_as_the_whole_run() {
        // SPI 0x21's run of 16 starts 8 frames before the first slice
        // ends, so `cut` windows and notes it as two runs; `whole` drains
        // the same run in a batch of its own. Both detectors are in grace,
        // so the first note pulls the deadline earlier and pushes a heap
        // entry; the rekey lifetime falls in the run's second half.
        use crate::esp::DRAIN_SLICE;
        let dpd = DpdConfig {
            idle_timeout_ns: 1_000,
            probe_interval_ns: 500,
            max_probes: 1,
            grace_period_ns: 2_000,
        };
        let lifetime = SaLifetime {
            max_packets: 12,
            max_bytes: u64::MAX,
        };
        let build = || {
            GatewayBuilder::in_memory()
                .dpd(dpd)
                .rekey_after(lifetime)
                .build()
        };
        let (mut p, mut cut, mut whole) = (build(), build(), build());
        for gw in [&mut p, &mut cut, &mut whole] {
            gw.add_peer(0x20, b"slice-master");
            gw.add_peer(0x21, b"slice-master");
        }
        for gw in [&mut cut, &mut whole] {
            for t in [0, 1_000, 1_500] {
                gw.tick(t);
            }
            gw.poll_events();
            assert_eq!(gw.in_grace(0x21), Some(true));
        }
        let mut seal = |spi, n| -> Vec<Bytes> {
            let mut frame = || p.protect(spi, b"x").unwrap().unwrap().wire;
            (0..n).map(|_| frame()).collect()
        };
        let (filler, run) = (seal(0x20, DRAIN_SLICE - 8), seal(0x21, 16));
        cut.push_wire_batch(&[filler.clone(), run.clone()].concat())
            .unwrap();
        whole.push_wire_batch(&filler).unwrap();
        whole.push_wire_batch(&run).unwrap();
        let runs: Vec<_> = cut.sadb.runs_mut().iter().map(|r| (r.spi, r.len)).collect();
        assert_eq!(runs, [(0x20, DRAIN_SLICE - 8), (0x21, 8), (0x21, 8)]);

        assert_eq!(cut.poll_events(), whole.poll_events());
        let dpd_state =
            |gw: &Gateway<MemStable>| format!("{:?}", gw.sadb.inbound(0x21).unwrap().dpd);
        assert_eq!(dpd_state(&cut), dpd_state(&whole));
        assert_eq!(cut.in_grace(0x21), Some(false));
        let heap = |gw: &Gateway<MemStable>| (gw.dpd_heap.clone().into_sorted_vec(), gw.dpd_pushed);
        assert_eq!(heap(&cut), heap(&whole));
        assert_eq!(cut.rekey_due, whole.rekey_due);
        assert!(cut.rekey_due.contains(&0x21));
    }

    type FaultyGateway = Gateway<reset_stable::FaultyStable<MemStable>>;

    /// A pair over SPI 0x55 whose receiver `q` persists through
    /// fault-injecting stores: 30 frames in, SAVEs durable, then the
    /// reset strikes and the receiver's persisted window record is
    /// scripted to come back corrupt on the next FETCH. Returns the
    /// recorded frames too.
    fn struck_with_a_corrupt_record() -> (Gateway<MemStable>, FaultyGateway, Vec<Bytes>) {
        use reset_stable::{Fault, FaultyStable};
        let mut p = GatewayBuilder::in_memory().save_interval(10).build();
        let mut q = GatewayBuilder::with_stores(|_, _| FaultyStable::new(MemStable::new()))
            .save_interval(10)
            .build();
        p.add_peer(0x55, b"fail-closed-master");
        q.add_peer(0x55, b"fail-closed-master");

        let mut recorded = Vec::new();
        for i in 0..30u32 {
            let f = p
                .protect(0x55, format!("m{i}").as_bytes())
                .unwrap()
                .unwrap();
            recorded.push(f.wire.clone());
            q.push_wire(&f.wire).unwrap();
        }
        q.save_completed().unwrap();
        q.poll_events();

        q.reset();
        q.sadb
            .inbound_mut(0x55)
            .unwrap()
            .store_mut()
            .push_fault(Fault::CorruptLoad);
        (p, q, recorded)
    }

    #[test]
    fn corrupt_fetch_fails_closed_and_replaces_the_sa() {
        let (mut p, mut q, recorded) = struck_with_a_corrupt_record();
        let sas = q.recover().unwrap();
        assert_eq!(sas, 1, "only the healthy outbound direction woke");
        let events = q.poll_events();
        assert!(matches!(events[0], GatewayEvent::Recovered { sas: 1 }));
        assert!(
            matches!(events[1], GatewayEvent::FailedClosed { spi: 0x55, .. }),
            "{events:?}"
        );
        assert!(matches!(
            events[2],
            GatewayEvent::RekeyStarted { spi: 0x55 }
        ));
        assert!(matches!(
            events[3],
            GatewayEvent::RekeyCompleted { spi: 0x55, .. }
        ));

        // The peer resynchronizes by performing the same rekey generation.
        p.rekey_now(0x55);
        p.poll_events();

        // The recorded history died with the old keys: 0 post-FETCH
        // replays, provably — they cannot even authenticate.
        for w in &recorded {
            q.push_wire(w).unwrap();
        }
        assert!(
            q.poll_events()
                .iter()
                .all(|e| matches!(e, GatewayEvent::AuthFailed { spi: 0x55 })),
            "replays against a replaced SA must fail authentication"
        );

        // Fresh traffic flows on the replacement.
        let f = p.protect(0x55, b"fresh start").unwrap().unwrap();
        assert_eq!(f.seq.value(), 1);
        q.push_wire(&f.wire).unwrap();
        assert!(matches!(
            q.poll_events()[..],
            [GatewayEvent::Delivered { .. }]
        ));
    }

    #[test]
    fn a_fail_closed_note_dies_with_the_sa_it_was_written_for() {
        // The FETCH fails in the first half; before the second, the SA is
        // torn down (`remove_peer`, or DPD's teardown from a tick). There
        // is nothing left to fail closed — and no `FailedClosed` without
        // its replacement rekey's events.
        let (_, mut q, _) = struck_with_a_corrupt_record();
        q.begin_recover().unwrap();
        assert!(q.remove_peer(0x55));
        assert_eq!(q.finish_recover().unwrap(), 0);
        assert_eq!(q.poll_events(), vec![GatewayEvent::Recovered { sas: 0 }]);
    }

    #[test]
    fn a_fail_closed_note_spares_the_sa_that_took_over_its_spi() {
        // As above, but the SPI is keyed afresh before the second half:
        // the note was about the SA that is gone, and the healthy,
        // never-reset one under its SPI must not be replaced under its
        // peer.
        let (_, mut q, _) = struck_with_a_corrupt_record();
        q.begin_recover().unwrap();
        assert!(q.remove_peer(0x55));
        q.add_peer(0x55, b"another-master");
        assert_eq!(q.finish_recover().unwrap(), 0);
        assert_eq!(q.poll_events(), vec![GatewayEvent::Recovered { sas: 0 }]);
        // Still the keys it was installed with.
        let mut peer = GatewayBuilder::in_memory().build();
        peer.add_peer(0x55, b"another-master");
        let f = peer.protect(0x55, b"still in step").unwrap().unwrap();
        q.push_wire(&f.wire).unwrap();
        assert!(matches!(
            q.poll_events()[..],
            [GatewayEvent::Delivered { .. }]
        ));
    }

    #[test]
    fn a_reused_slot_inherits_nothing_from_the_sa_it_held() {
        const A: u32 = 0xA;
        const B: u32 = 0xB;
        let dpd = DpdConfig {
            idle_timeout_ns: 1_000,
            probe_interval_ns: 500,
            max_probes: 1,
            grace_period_ns: 10_000,
        };
        let receiver = || {
            GatewayBuilder::in_memory()
                .save_interval(10)
                .dpd(dpd)
                .build()
        };
        let (mut p, mut q) = (GatewayBuilder::in_memory().build(), receiver());
        p.add_peer(A, b"first");
        q.add_peer(A, b"first");

        // Give A everything a record can hold: two rekey generations, an
        // armed detector deep in grace with a live heap entry at the
        // grace expiry (1_500 + 10_000), and a SAVE owed.
        q.tick(0);
        for gw in [&mut p, &mut q] {
            gw.rekey_now(A);
            gw.rekey_now(A);
        }
        for _ in 0..10 {
            let f = p.protect(A, b"to the first").unwrap().unwrap();
            q.push_wire(&f.wire).unwrap();
        }
        q.tick(1_000); // probe
        q.tick(1_500); // presumed down: grace
        assert_eq!(q.in_grace(A), Some(true));
        assert!(q.pending_save());
        q.poll_events();

        // `(spi, master)` keyed into the slot A's teardown freed must look
        // exactly like the same SA on a gateway that never held A.
        let starts_from_scratch = |q: &mut Gateway<MemStable>, spi: u32, master: &[u8]| {
            q.add_peer(spi, master);
            assert_eq!(q.sadb.len(), 2, "one pair, in the one slot");
            assert_eq!(
                q.in_grace(spi),
                None,
                "no detector before its own clock reading"
            );
            assert!(!q.pending_save(), "owes no SAVE");
            // Its first rekey is generation 1: the same keys, hence the
            // same bytes, as on the fresh gateway.
            let mut fresh = receiver();
            fresh.add_peer(spi, master);
            q.rekey_now(spi);
            fresh.rekey_now(spi);
            assert_eq!(
                q.protect(spi, b"generation 1").unwrap(),
                fresh.protect(spi, b"generation 1").unwrap()
            );
            q.poll_events();
        };
        assert!(q.remove_peer(A));
        assert!(!q.pending_save(), "A took its owed SAVE with it");
        starts_from_scratch(&mut q, B, b"second");

        // B arms at its own first tick. When A's heap entry comes due,
        // it finds no A: the only thing that happens at that instant is
        // B's own first probe.
        q.tick(2_000);
        assert_eq!(q.in_grace(B), Some(false));
        assert_eq!(q.poll_events(), vec![]);
        q.tick(11_500);
        assert_eq!(q.poll_events(), vec![GatewayEvent::ProbeDue { spi: B }]);

        // Re-adding A itself is no different: its old entries name its
        // SPI, but the record they were about is gone.
        assert!(q.remove_peer(B));
        starts_from_scratch(&mut q, A, b"first");
    }

    #[test]
    fn down_gateway_drops_then_recovery_reports_order() {
        let (mut p, mut q) = pair(CryptoSuite::default());
        let mut recorded = Vec::new();
        for i in 0..30u32 {
            let f = p
                .protect(0x11, format!("r{i}").as_bytes())
                .unwrap()
                .unwrap();
            recorded.push(f.wire.clone());
            q.push_wire(&f.wire).unwrap();
        }
        q.save_completed().unwrap();
        q.poll_events();
        q.reset();
        q.push_wire(&recorded[0]).unwrap();
        assert_eq!(
            q.poll_events(),
            vec![GatewayEvent::DroppedDown { spi: 0x11 }]
        );
        q.begin_recover().unwrap();
        q.push_wire(&recorded[1]).unwrap();
        assert_eq!(q.poll_events(), vec![GatewayEvent::Buffered { spi: 0x11 }]);
        let sas = q.finish_recover().unwrap();
        assert_eq!(sas, 2);
        let events = q.poll_events();
        assert!(matches!(events[0], GatewayEvent::Recovered { sas: 2 }));
        assert!(
            matches!(events[1], GatewayEvent::ReplayDropped { .. }),
            "buffered replay resolved after recovery: {events:?}"
        );
    }

    #[test]
    fn telemetry_counts_events_and_latencies() {
        use reset_telemetry::{EventKind, Telemetry};
        let t = Telemetry::new();
        let mut tx = GatewayBuilder::in_memory().build();
        let mut rx = GatewayBuilder::in_memory().telemetry(t.clone()).build();
        tx.add_peer(9, b"telemetry-master");
        rx.add_peer(9, b"telemetry-master");

        let frames: Vec<_> = (0..8)
            .map(|_| tx.protect(9, b"observed").unwrap().unwrap().wire)
            .collect();
        rx.push_wire_batch(&frames).unwrap();
        rx.push_wire(&frames[0]).unwrap(); // replay
        rx.save_completed().unwrap();
        rx.reset();
        rx.recover().unwrap();
        rx.rekey_now(9);
        let _ = rx.poll_events();

        assert_eq!(t.event_count(EventKind::Delivered), 8);
        assert_eq!(t.event_count(EventKind::ReplayDropped), 1);
        assert_eq!(t.event_count(EventKind::Recovered), 1);
        assert_eq!(t.event_count(EventKind::RekeyCompleted), 1);
        let s = t.snapshot();
        assert_eq!(s.recover_ns.count, 1);
        assert_eq!(s.rekey_ns.count, 1);
        // Every pushed frame is a drained frame: 8 batched + 1 single.
        assert_eq!(s.shards[0].batches, 2);
        assert_eq!(s.shards[0].frames, 9);
        assert_eq!(s.shards[0].drain_ns.count, 2);
        // add_peer installed both directions (rekey reinstalls go
        // straight to the SADB and count as rekeys, not installs).
        let class = &s.classes[0];
        assert_eq!(class.label, CryptoSuite::default().name());
        assert_eq!(class.installs, 2);
        assert_eq!(class.rekeys, 1);
        assert_eq!(class.recoveries, 1);
        // The reset and the recovery both left lifecycle trace events.
        let codes: Vec<&str> = s.trace.iter().map(|e| e.code).collect();
        assert!(codes.contains(&"reset"), "{codes:?}");
        assert!(codes.contains(&"recovered"), "{codes:?}");
        assert!(codes.contains(&"rekey"), "{codes:?}");
    }

    #[test]
    fn uninstrumented_gateway_behaves_identically() {
        let mk = |telemetry: Option<reset_telemetry::Telemetry>| {
            let mut b = GatewayBuilder::in_memory();
            if let Some(t) = telemetry {
                b = b.telemetry(t);
            }
            let mut tx = GatewayBuilder::in_memory().build();
            let mut rx = b.build();
            tx.add_peer(3, b"parity-master");
            rx.add_peer(3, b"parity-master");
            let frames: Vec<_> = (0..40)
                .map(|_| tx.protect(3, b"parity").unwrap().unwrap().wire)
                .collect();
            rx.push_wire_batch(&frames).unwrap();
            rx.save_completed().unwrap();
            rx.reset();
            rx.recover().unwrap();
            rx.push_wire_batch(&frames).unwrap(); // all replays
            rx.poll_events()
        };
        let plain = mk(None);
        let observed = mk(Some(reset_telemetry::Telemetry::new()));
        assert_eq!(plain, observed);
    }
}
