//! # `reset_telemetry` — observe the gateway without slowing it down
//!
//! A zero-dependency metrics and event-tracing layer for the
//! SAVE/FETCH stack. Everything the datapath touches is lock-free:
//! per-event-kind [`Counter`]s and log₂-bucket [`Histogram`]s are
//! plain relaxed atomics, recorded inline with no allocation. The
//! pieces that *do* take a lock — the [`TraceRing`] lifecycle trace
//! and the per-SA-class registry — are only touched on lifecycle
//! edges (install, rekey, recover, fail-closed), never per packet.
//!
//! A [`Telemetry`] handle is a cheap-clone `Arc`; one handle is shared
//! by every shard of a `ShardedGateway`, its WAL store, and the
//! harness that reads it. Instrumentation is strictly opt-in at the
//! recording sites (`Option<Telemetry>` checked with one branch), so
//! an uninstrumented gateway pays nothing.
//!
//! [`Telemetry::snapshot`] produces a plain-data [`Snapshot`] that
//! serializes to JSON through the hand-rolled [`Json`] writer — the
//! one report schema the whole workspace emits (see the harness crate
//! docs for the schema).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
mod json;
mod trace;

pub use counter::Counter;
pub use histogram::{Bucket, Histogram, HistogramSnapshot, BUCKETS};
pub use json::Json;
pub use trace::{Severity, TraceEvent, TraceRing};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The kinds of gateway events telemetry counts, mirroring
/// `reset_ipsec::GatewayEvent` variant-for-variant (telemetry sits
/// below the ipsec crate, so the mapping lives on the gateway side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Fresh payload delivered to the application.
    Delivered,
    /// Anti-replay window rejected a frame.
    ReplayDropped,
    /// ICV verification failed.
    AuthFailed,
    /// No SA matched the frame's SPI.
    UnknownSa,
    /// Frame buffered during recovery wakeup.
    Buffered,
    /// Frame dropped because the SA was down.
    DroppedDown,
    /// Rekey began.
    RekeyStarted,
    /// Rekey finished.
    RekeyCompleted,
    /// Dead-peer-detection probe is due.
    ProbeDue,
    /// Dead-peer-detection declared the peer dead.
    PeerDead,
    /// Recovery completed.
    Recovered,
    /// Recovery failed closed and the SA was replaced.
    FailedClosed,
}

impl EventKind {
    /// Every kind, in declaration order (the order snapshots use).
    pub const ALL: [EventKind; 12] = [
        EventKind::Delivered,
        EventKind::ReplayDropped,
        EventKind::AuthFailed,
        EventKind::UnknownSa,
        EventKind::Buffered,
        EventKind::DroppedDown,
        EventKind::RekeyStarted,
        EventKind::RekeyCompleted,
        EventKind::ProbeDue,
        EventKind::PeerDead,
        EventKind::Recovered,
        EventKind::FailedClosed,
    ];

    /// Stable snake_case label, used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Delivered => "delivered",
            EventKind::ReplayDropped => "replay_dropped",
            EventKind::AuthFailed => "auth_failed",
            EventKind::UnknownSa => "unknown_sa",
            EventKind::Buffered => "buffered",
            EventKind::DroppedDown => "dropped_down",
            EventKind::RekeyStarted => "rekey_started",
            EventKind::RekeyCompleted => "rekey_completed",
            EventKind::ProbeDue => "probe_due",
            EventKind::PeerDead => "peer_dead",
            EventKind::Recovered => "recovered",
            EventKind::FailedClosed => "failed_closed",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One counter per [`EventKind`] — a fixed array, indexed without
/// hashing or locking.
#[derive(Debug, Default)]
pub struct EventCounters {
    counts: [Counter; 12],
}

impl EventCounters {
    /// Counts one event of `kind`.
    #[inline]
    pub fn record(&self, kind: EventKind) {
        self.counts[kind.index()].incr();
    }

    /// Current count for `kind`.
    pub fn get(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()].get()
    }

    fn snapshot(&self) -> Vec<(&'static str, u64)> {
        EventKind::ALL
            .iter()
            .map(|&k| (k.name(), self.get(k)))
            .collect()
    }
}

/// Lifecycle counters for one SA class (one cipher-suite label). The
/// class registry is resolved at install/rekey/recover time only —
/// never per packet — so its interior `Mutex` stays off the hot path.
#[derive(Debug, Default)]
pub struct ClassStats {
    /// SAs installed under this class.
    pub installs: Counter,
    /// SAs removed.
    pub removals: Counter,
    /// Rekeys completed.
    pub rekeys: Counter,
    /// Recoveries completed.
    pub recoveries: Counter,
    /// Fail-closed replacements.
    pub failed_closed: Counter,
}

/// Per-shard registries: event counts, batch drain timings, queue
/// depths.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Event counts attributed to this shard.
    pub events: EventCounters,
    /// `push_wire_batch` calls drained on this shard.
    pub batches: Counter,
    /// Wire frames drained on this shard.
    pub frames: Counter,
    /// Wall-clock nanoseconds per batch drain.
    pub drain_ns: Histogram,
    /// Pending event-queue depth observed at the end of each drain.
    pub queue_depth: Histogram,
}

/// WAL store statistics (recorded by `reset_stable`'s WAL backend).
#[derive(Debug, Default)]
struct WalStats {
    appends: Counter,
    append_bytes: Counter,
    compactions: Counter,
    compact_ns: Histogram,
}

#[derive(Debug)]
struct Inner {
    events: EventCounters,
    shards: Box<[ShardStats]>,
    recover_ns: Histogram,
    rekey_ns: Histogram,
    wal: WalStats,
    classes: Mutex<BTreeMap<String, Arc<ClassStats>>>,
    trace: TraceRing,
}

/// Default capacity of the lifecycle trace ring.
const TRACE_CAPACITY: usize = 256;

/// The shared telemetry handle: a cheap-clone `Arc` every layer of the
/// stack records into. See the crate docs for the locking discipline.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A handle with a single shard slot (a plain `Gateway`).
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// A handle with `shards` per-shard registries (minimum 1). Out of
    /// range shard indices clamp to the last slot rather than panic —
    /// telemetry must never take the datapath down.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Telemetry {
            inner: Arc::new(Inner {
                events: EventCounters::default(),
                shards: (0..shards).map(|_| ShardStats::default()).collect(),
                recover_ns: Histogram::new(),
                rekey_ns: Histogram::new(),
                wal: WalStats::default(),
                classes: Mutex::new(BTreeMap::new()),
                trace: TraceRing::new(TRACE_CAPACITY),
            }),
        }
    }

    /// Number of per-shard registries.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    fn shard(&self, index: usize) -> &ShardStats {
        let last = self.inner.shards.len() - 1;
        &self.inner.shards[index.min(last)]
    }

    /// Counts one gateway event, globally and against `shard`.
    #[inline]
    pub fn record_event(&self, shard: usize, kind: EventKind) {
        self.inner.events.record(kind);
        self.shard(shard).events.record(kind);
    }

    /// Global count for `kind`.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        self.inner.events.get(kind)
    }

    /// Records one batch drain on `shard`: `frames` wires processed in
    /// `elapsed_ns`, leaving `queue_depth` events pending.
    pub fn record_drain(&self, shard: usize, frames: u64, elapsed_ns: u64, queue_depth: u64) {
        let s = self.shard(shard);
        s.batches.incr();
        s.frames.add(frames);
        s.drain_ns.record(elapsed_ns);
        s.queue_depth.record(queue_depth);
    }

    /// Records one completed recovery's wall-clock latency.
    pub fn record_recovery_ns(&self, ns: u64) {
        self.inner.recover_ns.record(ns);
    }

    /// Records one completed rekey's wall-clock latency.
    pub fn record_rekey_ns(&self, ns: u64) {
        self.inner.rekey_ns.record(ns);
    }

    /// Records one WAL append of `bytes` bytes.
    pub fn record_wal_append(&self, bytes: u64) {
        self.inner.wal.appends.incr();
        self.inner.wal.append_bytes.add(bytes);
    }

    /// Records one WAL compaction taking `ns` nanoseconds.
    pub fn record_wal_compaction(&self, ns: u64) {
        self.inner.wal.compactions.incr();
        self.inner.wal.compact_ns.record(ns);
    }

    /// The lifecycle counters for SA class `label` (e.g. a cipher
    /// suite name), created on first use. Takes the registry lock —
    /// call on lifecycle edges only, and hold the returned `Arc` if
    /// repeated access is needed.
    pub fn class(&self, label: &str) -> Arc<ClassStats> {
        let mut classes = self.inner.classes.lock().expect("class registry poisoned");
        classes
            .entry(label.to_string())
            .or_insert_with(|| Arc::new(ClassStats::default()))
            .clone()
    }

    /// Appends a lifecycle event to the trace ring.
    pub fn trace(&self, at_ns: u64, severity: Severity, code: &'static str, spi: u32, detail: u64) {
        self.inner.trace.push(at_ns, severity, code, spi, detail);
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let (trace, trace_dropped) = self.inner.trace.drain_ordered();
        let classes = self
            .inner
            .classes
            .lock()
            .expect("class registry poisoned")
            .iter()
            .map(|(label, stats)| ClassSnapshot {
                label: label.clone(),
                installs: stats.installs.get(),
                removals: stats.removals.get(),
                rekeys: stats.rekeys.get(),
                recoveries: stats.recoveries.get(),
                failed_closed: stats.failed_closed.get(),
            })
            .collect();
        Snapshot {
            events: self.inner.events.snapshot(),
            shards: self
                .inner
                .shards
                .iter()
                .enumerate()
                .map(|(index, s)| ShardSnapshot {
                    index,
                    events: s.events.snapshot(),
                    batches: s.batches.get(),
                    frames: s.frames.get(),
                    drain_ns: s.drain_ns.snapshot(),
                    queue_depth: s.queue_depth.snapshot(),
                })
                .collect(),
            recover_ns: self.inner.recover_ns.snapshot(),
            rekey_ns: self.inner.rekey_ns.snapshot(),
            wal_appends: self.inner.wal.appends.get(),
            wal_append_bytes: self.inner.wal.append_bytes.get(),
            wal_compactions: self.inner.wal.compactions.get(),
            wal_compact_ns: self.inner.wal.compact_ns.snapshot(),
            classes,
            trace,
            trace_dropped,
        }
    }
}

/// Plain-data copy of one shard's registries.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub index: usize,
    /// Event counts, in [`EventKind::ALL`] order.
    pub events: Vec<(&'static str, u64)>,
    /// Batch drains served.
    pub batches: u64,
    /// Wire frames drained.
    pub frames: u64,
    /// Drain latency distribution.
    pub drain_ns: HistogramSnapshot,
    /// Event-queue depth distribution.
    pub queue_depth: HistogramSnapshot,
}

/// Plain-data copy of one SA class's lifecycle counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSnapshot {
    /// The class label (cipher suite name).
    pub label: String,
    /// SAs installed.
    pub installs: u64,
    /// SAs removed.
    pub removals: u64,
    /// Rekeys completed.
    pub rekeys: u64,
    /// Recoveries completed.
    pub recoveries: u64,
    /// Fail-closed replacements.
    pub failed_closed: u64,
}

/// A point-in-time copy of a [`Telemetry`] handle's registries —
/// plain data, safe to move across threads, serializable via
/// [`Snapshot::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Global event counts, in [`EventKind::ALL`] order.
    pub events: Vec<(&'static str, u64)>,
    /// Per-shard registries.
    pub shards: Vec<ShardSnapshot>,
    /// Recovery latency distribution (nanoseconds).
    pub recover_ns: HistogramSnapshot,
    /// Rekey latency distribution (nanoseconds).
    pub rekey_ns: HistogramSnapshot,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL bytes appended.
    pub wal_append_bytes: u64,
    /// WAL compactions run.
    pub wal_compactions: u64,
    /// WAL compaction latency distribution (nanoseconds).
    pub wal_compact_ns: HistogramSnapshot,
    /// Per-SA-class lifecycle counters, sorted by label.
    pub classes: Vec<ClassSnapshot>,
    /// Retained lifecycle trace, chronological.
    pub trace: Vec<TraceEvent>,
    /// Trace events overwritten by ring wraparound.
    pub trace_dropped: u64,
}

impl Snapshot {
    /// The global count for the event named `name` (see
    /// [`EventKind::name`]); 0 for unknown names.
    pub fn event(&self, name: &str) -> u64 {
        self.events
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Total frames drained across all shards — the numerator of the
    /// per-shard skew calculation.
    pub fn total_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.frames).sum()
    }

    /// Per-shard frame counts (the skew profile occupancy-aware
    /// rebalancing would consume).
    pub fn shard_frames(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.frames).collect()
    }

    /// Serializes the snapshot as a [`Json`] tree.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("events", counts_json(&self.events)),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("index", Json::U64(s.index as u64)),
                                ("batches", Json::U64(s.batches)),
                                ("frames", Json::U64(s.frames)),
                                ("events", counts_json(&s.events)),
                                ("drain_ns", hist_json(&s.drain_ns)),
                                ("queue_depth", hist_json(&s.queue_depth)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("recover_ns", hist_json(&self.recover_ns)),
            ("rekey_ns", hist_json(&self.rekey_ns)),
            (
                "wal",
                Json::obj(vec![
                    ("appends", Json::U64(self.wal_appends)),
                    ("append_bytes", Json::U64(self.wal_append_bytes)),
                    ("compactions", Json::U64(self.wal_compactions)),
                    ("compact_ns", hist_json(&self.wal_compact_ns)),
                ]),
            ),
            (
                "classes",
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("label", Json::str(c.label.clone())),
                                ("installs", Json::U64(c.installs)),
                                ("removals", Json::U64(c.removals)),
                                ("rekeys", Json::U64(c.rekeys)),
                                ("recoveries", Json::U64(c.recoveries)),
                                ("failed_closed", Json::U64(c.failed_closed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "trace",
                Json::obj(vec![
                    ("dropped", Json::U64(self.trace_dropped)),
                    (
                        "events",
                        Json::Arr(
                            self.trace
                                .iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("seq", Json::U64(e.seq)),
                                        ("at_ns", Json::U64(e.at_ns)),
                                        ("severity", Json::str(e.severity.name())),
                                        ("code", Json::str(e.code)),
                                        ("spi", Json::U64(e.spi as u64)),
                                        ("detail", Json::U64(e.detail)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

/// `[["delivered", 3], …]` rendered as an ordered JSON object.
fn counts_json(counts: &[(&'static str, u64)]) -> Json {
    Json::Obj(
        counts
            .iter()
            .map(|&(name, n)| (name.to_string(), Json::U64(n)))
            .collect(),
    )
}

/// Histogram snapshot as JSON: aggregates plus non-empty buckets.
fn hist_json(h: &HistogramSnapshot) -> Json {
    Json::obj(vec![
        ("count", Json::U64(h.count)),
        ("sum", Json::U64(h.sum)),
        ("min", Json::U64(h.min)),
        ("max", Json::U64(h.max)),
        ("mean", Json::F64(h.mean())),
        ("p50", Json::U64(h.quantile(0.5))),
        ("p99", Json::U64(h.quantile(0.99))),
        (
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|b| Json::Arr(vec![Json::U64(b.upper), Json::U64(b.count)]))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_route_to_global_and_shard_registries() {
        let t = Telemetry::with_shards(4);
        t.record_event(0, EventKind::Delivered);
        t.record_event(3, EventKind::Delivered);
        t.record_event(3, EventKind::ReplayDropped);
        // Out-of-range shard index clamps instead of panicking.
        t.record_event(99, EventKind::AuthFailed);
        let s = t.snapshot();
        assert_eq!(t.event_count(EventKind::Delivered), 2);
        assert_eq!(s.shards[0].events[0], ("delivered", 1));
        assert_eq!(s.shards[3].events[0], ("delivered", 1));
        assert_eq!(s.shards[3].events[1], ("replay_dropped", 1));
        assert_eq!(s.shards[3].events[2], ("auth_failed", 1));
    }

    #[test]
    fn drains_accumulate_per_shard_skew() {
        let t = Telemetry::with_shards(2);
        t.record_drain(0, 100, 5_000, 10);
        t.record_drain(0, 100, 6_000, 12);
        t.record_drain(1, 10, 700, 1);
        let s = t.snapshot();
        assert_eq!(s.shard_frames(), vec![200, 10]);
        assert_eq!(s.total_frames(), 210);
        assert_eq!(s.shards[0].batches, 2);
        assert_eq!(s.shards[0].drain_ns.count, 2);
        assert_eq!(s.shards[1].queue_depth.max, 1);
    }

    #[test]
    fn class_registry_is_shared_and_sorted() {
        let t = Telemetry::new();
        t.class("zeta").installs.incr();
        t.class("alpha").installs.incr();
        t.class("alpha").rekeys.incr();
        let s = t.snapshot();
        let labels: Vec<&str> = s.classes.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["alpha", "zeta"]);
        assert_eq!(s.classes[0].rekeys, 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let t = Telemetry::with_shards(2);
        t.record_event(1, EventKind::Delivered);
        t.record_recovery_ns(1_500);
        t.record_wal_append(64);
        t.record_wal_compaction(9_000);
        t.trace(42, Severity::Warn, "reset", 7, 1);
        let rendered = t.snapshot().to_json().render();
        for needle in [
            "\"events\":{\"delivered\":1",
            "\"shards\":[",
            "\"recover_ns\":{\"count\":1",
            "\"wal\":{\"appends\":1,\"append_bytes\":64,\"compactions\":1",
            "\"trace\":{\"dropped\":0",
            "\"code\":\"reset\"",
        ] {
            assert!(rendered.contains(needle), "missing {needle} in {rendered}");
        }
        // Deterministic rendering: same state, same bytes.
        assert_eq!(rendered, t.snapshot().to_json().render());
    }

    #[test]
    fn handles_share_state_across_clones() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t2.record_event(0, EventKind::FailedClosed);
        assert_eq!(t.event_count(EventKind::FailedClosed), 1);
        assert_eq!(t.shard_count(), 1);
    }
}
