//! Refactor tripwire: everything an engine lets its driver observe under
//! churn, folded into one SHA-256 per (suite, engine).
//!
//! A seeded operation mix drives the engine under test — a plain
//! [`Gateway`] and a 2-shard [`ShardedGateway`], both suites — beside
//! a plain peer gateway: installs and teardowns with SPI and slot reuse,
//! `protect`, batches of fresh / replayed / corrupted / unknown-SPI / runt
//! frames in long SPI runs and in singletons, `save_completed`, `tick`
//! across DPD probe / grace / teardown deadlines, policy rekeys from a
//! small `rekey_after`, `rekey_now`, `reset` + `recover` and the split
//! halves with frames buffered in between, over stores that fail, tear,
//! corrupt and roll back on a fixed schedule (so recoveries end in
//! `FailedClosed`). The digest folds, in order, every event, every sealed
//! frame, every verb's result, periodic state probes, and — per shard —
//! every store operation with its outcome.
//!
//! No other test pins *global* event order with timers armed and SAs
//! coming and going, and it is the one property a change to how per-SA
//! state is stored must not move. The `ChaCha20Poly1305` constants below
//! were recorded at commit `66ffa97` (the parent of ISSUE 18), the
//! `HmacSha256AuthOnly` ones by running this mix at commit `1dad588`, the
//! last with the HMAC-CTR keystream suite, with auth-only in that suite's
//! row. Neither is to be re-recorded by a refactor: a mismatch means
//! behaviour moved. One sequence is kept
//! out of the mix on purpose — tearing down, replacing or re-fetching an SA
//! between `begin_recover` and `finish_recover` — because ISSUE 18 fixes a
//! bug there (`gateway.rs` unit tests pin the fixed behaviour).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use anti_replay::{Phase, SeqNum};
use bytes::Bytes;
use reset_crypto::{to_hex, Sha256};
use reset_ipsec::{
    CryptoSuite, DpdConfig, Gateway, GatewayBuilder, GatewayEvent, IpsecError, SaDirection, SaKeys,
    SaLifetime, SecurityAssociation, SentFrame, ShardedGateway,
};
use reset_stable::{Fault, FaultyStable, MemStable, SlotId, StableError, StableStore};
use reset_wire::spi_shard;

/// Operations per (suite, engine) run: ~20k over the four.
const OPS: u32 = 5_000;
/// SPIs the mix installs from; SPI 0 (what a runt frame reports) is one.
const POOL: u32 = 320;
const SKEYID: &[u8] = b"digest-skeyid";

/// Recorded before the refactors they guard; see the module docs.
const EXPECTED: [(CryptoSuite, &str, &str); 2] = [
    (
        CryptoSuite::HmacSha256AuthOnly,
        "1e5804752b6e9c5b1b300c55b302645596f53b5224e8c6a45aa7f772028b0af8",
        "51d174d63d1b2930ba918ab062714a5bd61d7b80349febec434ebf36d2cd1a18",
    ),
    (
        CryptoSuite::ChaCha20Poly1305,
        "246834f4dd610e317308932143a4244a7a34ce7417dd33edb01eed581a1ac4e7",
        "8b383553fc4282bff48acde90b12a086563c7260b5a0ec91341a9695ae5b170b",
    ),
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fault-armed store that appends every operation and its outcome to
/// the log of the shard that owns it, so the digest also pins the order
/// in which an engine touches its stores.
struct Logged {
    inner: FaultyStable<MemStable>,
    log: Arc<Mutex<Sha256>>,
}

impl Logged {
    fn note<T: Debug>(&self, op: &str, slot: SlotId, outcome: T) -> T {
        let line = format!("{op} {slot} {outcome:?}\n");
        self.log.lock().expect("log").update(line.as_bytes());
        outcome
    }
}

impl StableStore for Logged {
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
        let outcome = self.inner.store(slot, value);
        self.note(&format!("store {value}"), slot, outcome)
    }
    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
        self.note("load", slot, self.inner.load(slot))
    }
    fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
        let outcome = self.inner.erase(slot);
        self.note("erase", slot, outcome)
    }
    fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        let outcome = self.inner.store_witnessed(slot, value);
        self.note(&format!("store {value}"), slot, outcome)
    }
    fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        self.note("load", slot, self.inner.load_witnessed(slot))
    }
}

/// The store factory of the engine under test: about a third of the
/// stores misbehave, each on its own fixed schedule. The choice depends
/// only on (SPI, direction, how many stores that pair has had), never on
/// the order in which shards ask, so it is the same at any shard count.
fn stores(
    seed: u64,
    logs: Vec<Arc<Mutex<Sha256>>>,
) -> impl FnMut(u32, SaDirection) -> Logged + Send + 'static {
    let mut made: HashMap<(u32, bool), u64> = HashMap::new();
    move |spi, dir| {
        let inbound = matches!(dir, SaDirection::Inbound);
        let nth = made.entry((spi, inbound)).or_insert(0);
        *nth += 1;
        let mut s = seed ^ (u64::from(spi) << 8) ^ u64::from(inbound) ^ (*nth << 44);
        let mut inner = FaultyStable::new(MemStable::new());
        match splitmix64(&mut s) % 16 {
            0 => inner.auto_every_kth(2, Fault::CorruptLoad),
            1 => inner.auto_every_kth(3, Fault::RollbackLoad),
            2 => inner.auto_every_kth(5, Fault::FailStore),
            3 => inner.auto_every_kth(7, Fault::TornStore),
            4 => inner.auto_every_kth(1, Fault::FailErase),
            _ => {}
        }
        let log = Arc::clone(&logs[spi_shard(spi, logs.len())]);
        Logged { inner, log }
    }
}

/// The verbs the mix drives, as both engines spell them.
trait Engine {
    fn add_peer(&mut self, spi: u32, master: &[u8]);
    fn add_peer_between(&mut self, spi: u32, master: &[u8], local: &[u8], remote: &[u8]);
    fn install_outbound(&mut self, sa: SecurityAssociation);
    fn install_inbound(&mut self, sa: SecurityAssociation);
    fn remove_peer(&mut self, spi: u32) -> bool;
    fn protect(&mut self, spi: u32, payload: &[u8]) -> Result<Option<SentFrame>, IpsecError>;
    fn push_wire(&mut self, wire: &Bytes) -> Result<(), IpsecError>;
    fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError>;
    fn poll_events(&mut self) -> Vec<GatewayEvent>;
    fn tick(&mut self, now_ns: u64);
    fn rekey_now(&mut self, spi: u32);
    fn reset(&mut self);
    fn recover(&mut self) -> Result<usize, IpsecError>;
    fn begin_recover(&mut self) -> Result<(), IpsecError>;
    fn finish_recover(&mut self) -> Result<usize, IpsecError>;
    fn pending_save(&self) -> bool;
    fn save_completed(&mut self) -> Result<(), StableError>;
    fn next_seq(&self, spi: u32) -> Option<SeqNum>;
    fn right_edge(&self, spi: u32) -> Option<SeqNum>;
    fn phase(&self, spi: u32) -> Option<Phase>;
}

macro_rules! engine {
    ($ty:ident) => {
        impl Engine for $ty<Logged> {
            fn add_peer(&mut self, spi: u32, master: &[u8]) {
                $ty::add_peer(self, spi, master)
            }
            fn add_peer_between(&mut self, spi: u32, master: &[u8], local: &[u8], remote: &[u8]) {
                $ty::add_peer_between(self, spi, master, local, remote)
            }
            fn install_outbound(&mut self, sa: SecurityAssociation) {
                $ty::install_outbound(self, sa)
            }
            fn install_inbound(&mut self, sa: SecurityAssociation) {
                $ty::install_inbound(self, sa)
            }
            fn remove_peer(&mut self, spi: u32) -> bool {
                $ty::remove_peer(self, spi)
            }
            fn protect(
                &mut self,
                spi: u32,
                payload: &[u8],
            ) -> Result<Option<SentFrame>, IpsecError> {
                $ty::protect(self, spi, payload)
            }
            fn push_wire(&mut self, wire: &Bytes) -> Result<(), IpsecError> {
                $ty::push_wire(self, wire)
            }
            fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError> {
                $ty::push_wire_batch(self, wires)
            }
            fn poll_events(&mut self) -> Vec<GatewayEvent> {
                $ty::poll_events(self)
            }
            fn tick(&mut self, now_ns: u64) {
                $ty::tick(self, now_ns)
            }
            fn rekey_now(&mut self, spi: u32) {
                $ty::rekey_now(self, spi)
            }
            fn reset(&mut self) {
                $ty::reset(self)
            }
            fn recover(&mut self) -> Result<usize, IpsecError> {
                $ty::recover(self)
            }
            fn begin_recover(&mut self) -> Result<(), IpsecError> {
                $ty::begin_recover(self)
            }
            fn finish_recover(&mut self) -> Result<usize, IpsecError> {
                $ty::finish_recover(self)
            }
            fn pending_save(&self) -> bool {
                $ty::pending_save(self)
            }
            fn save_completed(&mut self) -> Result<(), StableError> {
                $ty::save_completed(self)
            }
            fn next_seq(&self, spi: u32) -> Option<SeqNum> {
                $ty::next_seq(self, spi)
            }
            fn right_edge(&self, spi: u32) -> Option<SeqNum> {
                $ty::right_edge(self, spi)
            }
            fn phase(&self, spi: u32) -> Option<Phase> {
                $ty::phase(self, spi)
            }
        }
    };
}
engine!(Gateway);
engine!(ShardedGateway);

fn event_name(ev: &GatewayEvent) -> &'static str {
    match ev {
        GatewayEvent::Delivered { .. } => "Delivered",
        GatewayEvent::ReplayDropped { .. } => "ReplayDropped",
        GatewayEvent::AuthFailed { .. } => "AuthFailed",
        GatewayEvent::UnknownSa { .. } => "UnknownSa",
        GatewayEvent::Buffered { .. } => "Buffered",
        GatewayEvent::DroppedDown { .. } => "DroppedDown",
        GatewayEvent::RekeyStarted { .. } => "RekeyStarted",
        GatewayEvent::RekeyCompleted { .. } => "RekeyCompleted",
        GatewayEvent::ProbeDue { .. } => "ProbeDue",
        GatewayEvent::PeerDead { .. } => "PeerDead",
        GatewayEvent::Recovered { .. } => "Recovered",
        GatewayEvent::FailedClosed { .. } => "FailedClosed",
    }
}

/// The engine under test (`a`), its peer (`b`, never reset, plain stores,
/// no policies of its own: it follows `a`'s rekeys and teardowns), and
/// what the driver knows about them.
struct Mix<E> {
    rng: u64,
    suite: CryptoSuite,
    a: E,
    b: Gateway<MemStable>,
    now_ns: u64,
    /// Pool SPIs installed on `a` right now.
    installed: Vec<u32>,
    installs: u32,
    /// Frames `b` sealed for `a`, what an adversary would have recorded.
    library: Vec<Bytes>,
    sealed: u64,
    digest: Sha256,
    seen: BTreeMap<&'static str, u64>,
}

impl<E: Engine> Mix<E> {
    fn draw(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.rng) % n
    }

    fn fold(&mut self, what: impl Debug) {
        self.digest.update(format!("{what:?}\n").as_bytes());
    }

    /// Folds `a`'s queued events and keeps `b` in step with the lifecycle
    /// ones: the same rekey generation, the same teardown.
    fn drain(&mut self) {
        for ev in self.a.poll_events() {
            *self.seen.entry(event_name(&ev)).or_insert(0) += 1;
            match ev {
                GatewayEvent::RekeyCompleted { spi, .. } => self.b.rekey_now(spi),
                GatewayEvent::PeerDead { spi } => {
                    self.b.remove_peer(spi);
                    self.installed.retain(|&s| s != spi);
                }
                _ => {}
            }
            self.fold(ev);
        }
        self.b.poll_events();
    }

    fn pool_spi(i: u64) -> u32 {
        if i == 0 {
            0
        } else {
            0x0100 + 37 * i as u32
        }
    }

    /// An installed SPI: three times in four one of the 24 longest
    /// installed (busy SAs that deliver, save and rekey), else any (quiet
    /// SAs that DPD probes, graces and tears down).
    fn some_installed(&mut self) -> Option<u32> {
        if self.installed.is_empty() {
            return None;
        }
        let among = match self.draw(4) {
            0 => self.installed.len(),
            _ => self.installed.len().min(24),
        };
        let i = self.draw(among as u64) as usize;
        Some(self.installed[i])
    }

    /// A fresh frame `b → a` on `spi`, recorded for later replay. `None`
    /// when `b` cannot send on it (`a` alone holds that direction).
    fn fresh(&mut self, spi: u32) -> Option<Bytes> {
        self.sealed += 1;
        let payload = format!(
            "b{}-{}",
            self.sealed,
            "x".repeat((self.sealed % 41) as usize)
        );
        let wire = self.b.protect(spi, payload.as_bytes()).ok()??.wire;
        if self.library.len() < 4096 {
            self.library.push(wire.clone());
        } else {
            let at = self.draw(4096) as usize;
            self.library[at] = wire.clone();
        }
        Some(wire)
    }

    /// A frame naming an SPI the pool never installs.
    fn foreign(&mut self, spi: u32) -> Bytes {
        let mut bytes = vec![0u8; 40];
        bytes[..4].copy_from_slice(&spi.to_be_bytes());
        for b in &mut bytes[4..] {
            *b = self.draw(256) as u8;
        }
        Bytes::from(bytes)
    }

    /// `wire` with one byte past the SPI flipped.
    fn corrupted(&mut self, wire: &Bytes) -> Bytes {
        let mut bytes = wire.to_vec();
        let at = 4 + self.draw(bytes.len() as u64 - 4) as usize;
        bytes[at] ^= 1 << self.draw(8);
        Bytes::from(bytes)
    }

    /// A batch of long SPI runs: a few SAs, 8–32 consecutive frames each,
    /// fresh ones mixed with duplicates and corruptions of the same run.
    fn run_batch(&mut self) -> Vec<Bytes> {
        let mut batch = Vec::new();
        for _ in 0..1 + self.draw(4) {
            let len = 8 + self.draw(25);
            if self.draw(10) == 0 {
                let spi = 0xFFFF_0000 | self.draw(1 << 16) as u32;
                batch.extend((0..len).map(|_| self.foreign(spi)));
                continue;
            }
            let Some(spi) = self.some_installed() else {
                continue;
            };
            let start = batch.len();
            for _ in 0..len {
                let earlier = batch.len() - start;
                let frame = match self.draw(10) {
                    0 | 1 if earlier > 0 => {
                        batch[start + self.draw(earlier as u64) as usize].clone()
                    }
                    2 if earlier > 0 => {
                        let of = batch[start + self.draw(earlier as u64) as usize].clone();
                        self.corrupted(&of)
                    }
                    _ => match self.fresh(spi) {
                        Some(wire) => wire,
                        None => break,
                    },
                };
                batch.push(frame);
            }
        }
        batch
    }

    /// A batch of singletons: every frame picks its SA (and its fate)
    /// afresh, so nearly every run has length one.
    fn singleton_batch(&mut self) -> Vec<Bytes> {
        let mut batch = Vec::new();
        for _ in 0..1 + self.draw(48) {
            let kind = self.draw(100);
            let frame = if kind < 70 || self.library.is_empty() {
                let Some(spi) = self.some_installed() else {
                    continue;
                };
                match self.fresh(spi) {
                    Some(wire) => wire,
                    None => continue,
                }
            } else if kind < 82 {
                let at = self.draw(self.library.len() as u64) as usize;
                self.library[at].clone()
            } else if kind < 88 {
                let at = self.draw(self.library.len() as u64) as usize;
                let of = self.library[at].clone();
                self.corrupted(&of)
            } else if kind < 94 {
                let spi = 0xFFFF_0000 | self.draw(1 << 16) as u32;
                self.foreign(spi)
            } else {
                let len = self.draw(8) as usize;
                Bytes::from((0..len).map(|_| self.draw(256) as u8).collect::<Vec<u8>>())
            };
            batch.push(frame);
        }
        batch
    }

    /// Pushes one batch into `a` — as a batch, or frame by frame through
    /// the single-frame verb — and folds the verdicts.
    fn push(&mut self) {
        let batch = if self.draw(2) == 0 {
            self.run_batch()
        } else {
            self.singleton_batch()
        };
        if self.draw(8) == 0 {
            for wire in batch.iter().take(6) {
                let pushed = self.a.push_wire(wire);
                self.fold(pushed);
            }
        } else {
            let pushed = self.a.push_wire_batch(&batch);
            self.fold(pushed);
        }
        self.drain();
    }

    /// `a` seals a handful of frames and `b` receives them.
    fn send(&mut self) {
        let mut sent = Vec::new();
        for i in 0..1 + self.draw(16) {
            let Some(spi) = self.some_installed() else {
                break;
            };
            let frame = self
                .a
                .protect(spi, format!("a{i}-{}", self.now_ns).as_bytes());
            if let Ok(Some(frame)) = &frame {
                sent.push(frame.wire.clone());
            }
            self.fold(frame);
        }
        self.b.push_wire_batch(&sent).expect("plain stores");
        self.b.poll_events();
        self.drain();
    }

    fn install(&mut self) {
        for _ in 0..1 + self.draw(6) {
            let spi = Self::pool_spi(self.draw(u64::from(POOL)));
            let present = self.installed.contains(&spi);
            self.installs += 1;
            let master = format!("digest-master-{}", self.installs);
            let master = master.as_bytes();
            let suite = self.suite;
            let one_way = || {
                let keys = SaKeys::derive(master, &spi.to_be_bytes());
                SecurityAssociation::new(spi, keys).with_suite(suite)
            };
            match self.draw(10) {
                // Re-keying an installed SPI in place, without a teardown.
                0 if present => {
                    self.a.add_peer(spi, master);
                    self.b.add_peer(spi, master);
                }
                _ if present => continue,
                0..=4 => {
                    self.a.add_peer_between(spi, master, b"a", b"b");
                    self.b.add_peer_between(spi, master, b"b", b"a");
                }
                5..=7 => {
                    self.a.add_peer(spi, master);
                    self.b.add_peer(spi, master);
                }
                8 => {
                    self.a.install_outbound(one_way());
                    self.b.install_inbound(one_way());
                }
                _ => {
                    self.a.install_inbound(one_way());
                    self.b.install_outbound(one_way());
                }
            }
            if !present {
                self.installed.push(spi);
            }
            self.fold(("installed", spi));
        }
        self.drain();
    }

    fn remove(&mut self) {
        let Some(spi) = self.some_installed() else {
            return;
        };
        let removed = self.a.remove_peer(spi);
        self.fold(("removed", spi, removed));
        self.b.remove_peer(spi);
        self.installed.retain(|&s| s != spi);
        self.drain();
    }

    /// Retries the second recovery half while a store refuses the wake-up
    /// SAVE (every store that fails does so on a schedule, so this ends).
    fn finish(&mut self, mut result: Result<usize, IpsecError>) {
        for _ in 0..64 {
            let done = result.is_ok();
            self.fold(result);
            if done {
                self.drain();
                return;
            }
            result = self.a.finish_recover();
        }
        panic!("recovery never completed");
    }

    fn recover(&mut self) {
        self.a.reset();
        self.push();
        let result = self.a.recover();
        self.finish(result);
    }

    /// The split halves with traffic, sends and SAVE completions in
    /// between — and nothing that removes, replaces or re-fetches an SA
    /// (module docs).
    fn split_recover(&mut self) {
        self.a.reset();
        if self.draw(2) == 0 {
            self.push();
        }
        let begun = self.a.begin_recover();
        self.fold(begun);
        for _ in 0..self.draw(4) {
            match self.draw(3) {
                0 => self.send(),
                1 => {
                    let completed = self.a.save_completed();
                    self.fold(completed);
                }
                _ => self.push(),
            }
            let pending = self.a.pending_save();
            self.fold(pending);
        }
        let result = self.a.finish_recover();
        self.finish(result);
    }

    fn step(&mut self, op: u32) {
        if self.installed.len() < 120 {
            self.install();
        }
        match self.draw(100) {
            0..=37 => self.push(),
            38..=49 => self.send(),
            50..=59 => {
                let completed = self.a.save_completed();
                self.fold(completed);
                self.b.save_completed().expect("plain stores");
            }
            60..=73 => {
                self.now_ns += [200, 1_000, 3_000, 6_000, 12_000][self.draw(5) as usize];
                self.a.tick(self.now_ns);
                self.drain();
            }
            74..=81 => self.install(),
            82..=86 => self.remove(),
            87..=90 => {
                if let Some(spi) = self.some_installed() {
                    self.a.rekey_now(spi);
                    self.drain();
                }
            }
            91 => self.recover(),
            92 | 93 => self.split_recover(),
            _ => self.push(),
        }
        if op.is_multiple_of(8) {
            let spi = Self::pool_spi(self.draw(u64::from(POOL)));
            let probe = (
                self.a.pending_save(),
                self.a.next_seq(spi),
                self.a.right_edge(spi),
                self.a.phase(spi),
            );
            self.fold(probe);
        }
    }
}

/// Runs the mix against the engine `build` makes from a builder and
/// returns the digest.
fn digest_of<E: Engine>(
    suite: CryptoSuite,
    shards: usize,
    build: impl FnOnce(GatewayBuilder<Logged>) -> E,
) -> String {
    let logs: Vec<_> = (0..shards)
        .map(|_| Arc::new(Mutex::new(Sha256::new())))
        .collect();
    let builder = GatewayBuilder::with_stores(stores(0x00D1_6E57, logs.clone()))
        .suite(suite)
        .save_interval(4)
        .window(64)
        .wakeup_buffer(24)
        .skeyid(SKEYID)
        .rekey_after(SaLifetime {
            max_packets: 40,
            max_bytes: u64::MAX,
        })
        .dpd(DpdConfig {
            idle_timeout_ns: 60_000,
            probe_interval_ns: 15_000,
            max_probes: 2,
            grace_period_ns: 90_000,
        })
        .shards(shards);
    let peer = GatewayBuilder::in_memory()
        .suite(suite)
        .save_interval(4)
        .window(64)
        .skeyid(SKEYID);
    let mut mix = Mix {
        rng: 0x0018_5EED,
        suite,
        a: build(builder),
        b: peer.build(),
        now_ns: 0,
        installed: Vec::new(),
        installs: 0,
        library: Vec::new(),
        sealed: 0,
        digest: Sha256::new(),
        seen: BTreeMap::new(),
    };
    for op in 0..OPS {
        mix.step(op);
    }
    eprintln!("digest mix {suite:?}/{shards}: {:?}", mix.seen);
    // The mix must keep reaching every kind of event, or it pins less
    // than it says.
    assert_eq!(mix.seen.len(), 12, "{suite:?}/{shards}: {:?}", mix.seen);
    assert!(
        mix.seen.values().all(|&n| n >= 20),
        "{suite:?}/{shards}: {:?}",
        mix.seen
    );
    for log in &logs {
        let ops = log.lock().expect("log").clone().finalize();
        mix.digest.update(&ops);
    }
    to_hex(&mix.digest.finalize())
}

#[test]
fn the_observable_behaviour_under_churn_is_the_recorded_one() {
    let got = EXPECTED.map(|(suite, _, _)| {
        let plain = digest_of(suite, 1, |b| b.build());
        let sharded = digest_of(suite, 2, |b| b.build_sharded());
        (suite, plain, sharded)
    });
    let want = EXPECTED.map(|(suite, plain, sharded)| (suite, plain.into(), sharded.into()));
    assert_eq!(got, want, "(suite, plain gateway, 2 shards)");
}
