//! The sharded gateway: one engine, N persistent worker shards, zero
//! shared locks on any datapath.
//!
//! The paper's SAVE/FETCH guarantees are *per SA* — nothing in the §4
//! protocol couples one SA's counters to another's — so a gateway
//! serving a large SA fleet is embarrassingly parallel. A
//! [`ShardedGateway`] exploits exactly that: the SADB is partitioned by
//! SPI hash ([`reset_wire::spi_shard`]) across N inner [`Gateway`]
//! shards, each shard owning its SAs outright — counters, replay
//! windows, persistent-store slots, DPD detectors and rekey generations
//! all live inside one shard and are never touched by another. The only
//! shared state is the builder's store factory, consulted (briefly,
//! behind a mutex) when an SA is installed or rekeyed, never per packet.
//!
//! # Threading model: a persistent worker pool
//!
//! [`GatewayBuilder::build_sharded`] spawns one long-lived worker
//! thread per shard and moves that shard's [`Gateway`] into it
//! permanently (see [`crate::pool`]'s internals). Every verb on
//! [`ShardedGateway`] is a *job* submitted over the owning shard's
//! work queue:
//!
//! * Routed verbs ([`ShardedGateway::protect`],
//!   [`ShardedGateway::push_wire`], installs, the read accessors) are
//!   one job on the owning shard, awaited synchronously.
//! * Fleet verbs ([`ShardedGateway::push_wire_batch`],
//!   [`ShardedGateway::tick`], [`ShardedGateway::reset`], the recovery
//!   halves) submit one job to every (non-idle) shard and then wait on
//!   the completions **in shard index order** — the completion barrier
//!   that makes the event merge deterministic, below.
//! * The pipelined pair [`ShardedGateway::submit_batch`] /
//!   [`ShardedGateway::drain_events`] splits `push_wire_batch` into its
//!   fan-out and its barrier, so a driver can seal the *next* batch
//!   while the shards chew on the current one.
//!
//! No thread is spawned per call anywhere — the per-batch scoped-spawn
//! model this replaced paid ~30 µs per thread per verb on the CI
//! kernel, which swamped the per-shard work at realistic batch sizes.
//! Each shard's queue is single-producer single-consumer and processed
//! strictly in submission order, so per-shard sequencing is a property
//! of the queue; no interior mutability, no `unsafe`, no datapath lock.
//!
//! # Determinism: why single-shard ≡ [`Gateway`]
//!
//! Every event-producing job ends by draining its own shard's event
//! queue and shipping those events back with the completion; the
//! caller appends them to one merged queue in **stable
//! shard-then-arrival order** (shard 0's events first, in the order
//! that shard produced them, then shard 1's, and so on). Thread
//! scheduling can reorder *execution*, but never the merge — the
//! merged stream is a pure function of the inputs, so seeded
//! experiments stay bit-for-bit reproducible at any shard count. Two
//! consequences, both locked by `tests/it_sharded.rs`:
//!
//! * with one shard the merge is the identity, so a
//!   `ShardedGateway` built with `.shards(1)` emits **exactly** the
//!   event stream a plain [`Gateway`] would — same events, same order;
//! * with N shards the *global* interleaving across SPIs changes (one
//!   batch's events appear grouped by shard), but the **per-SPI
//!   subsequence is identical** to the single-gateway stream: an SPI
//!   lives in exactly one shard and each shard preserves arrival order,
//!   so per-SA verdict sequences — the unit the paper's guarantees are
//!   stated in — cannot differ. Global verdict *counts* are therefore
//!   also identical.
//!
//! The one deliberate event rewrite: [`ShardedGateway::finish_recover`]
//! coalesces the shards' per-shard [`GatewayEvent::Recovered`] events
//! into a single fleet-wide `Recovered { sas }` (summed), placed before
//! the buffered-frame verdicts, matching the single-gateway shape.
//!
//! # Shutdown and failure semantics
//!
//! Dropping a [`ShardedGateway`] closes every shard's work queue and
//! joins the workers; jobs already queued are drained first, so a drop
//! with work in flight is a clean, bounded shutdown. A job that
//! *panics* is caught on the worker, and the panic surfaces on the
//! caller — as [`IpsecError::WorkerPanicked`] from the fallible verbs,
//! or re-raised as a panic from the infallible ones — never as a hang.
//! The shard's worker survives a job panic and keeps serving; its
//! state is whatever the interrupted operation left, exactly as a
//! panic mid-call leaves a plain [`Gateway`].
//!
//! # Reset storms
//!
//! [`ShardedGateway::reset`] and the recovery halves run shard-parallel
//! so a reset storm's FETCH + `2K` leap + synchronous SAVE cost is
//! amortized across cores — the multi-core analogue of the paper's §3
//! argument that SAVE/FETCH beats per-SA renegotiation on a gateway
//! with "multiple SAs existing at the same time".

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread;

use bytes::Bytes;
use reset_stable::{MemStable, StableError, StableStore};

use anti_replay::{Phase, SeqNum};

use crate::gateway::{Gateway, GatewayBuilder, GatewayEvent, SaDirection, SentFrame};
use crate::pool::{Completion, ShardWorker};
use crate::sa::SecurityAssociation;
use crate::IpsecError;

/// The builder's store factory, shared across shards behind a mutex
/// (consulted at install/rekey time only — never on a datapath).
type SharedStoreFactory<S> = Arc<Mutex<Box<dyn FnMut(u32, SaDirection) -> S + Send>>>;

/// What one shard reports back for a batch job: the verb's result plus
/// the events the shard produced, in arrival order.
type BatchDone = (Result<(), IpsecError>, Vec<GatewayEvent>);

/// What one shard reports back for a recovery job: recovered direction
/// count plus the shard's events.
type RecoverDone = (Result<usize, IpsecError>, Vec<GatewayEvent>);

impl GatewayBuilder<MemStable> {
    /// [`GatewayBuilder::in_memory`] pre-set to `shards` worker shards —
    /// shorthand for the common test/bench fleet setup.
    pub fn in_memory_sharded(shards: usize) -> Self {
        GatewayBuilder::in_memory().shards(shards)
    }
}

impl<S: StableStore + Send + 'static> GatewayBuilder<S> {
    /// Builds a [`ShardedGateway`] with the builder's shard count (or
    /// the host's available parallelism when unset), spawning the
    /// persistent worker threads that own the shards for the value's
    /// whole lifetime. All engine-wide policy — suite, window, save
    /// interval, rekey/DPD, skeyid — is replicated into every shard;
    /// the store factory is shared behind a mutex (contended only when
    /// several shards install or rekey SAs at the same instant).
    pub fn build_sharded(self) -> ShardedGateway<S> {
        let n = self
            .shards
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
            .max(1);
        let factory: SharedStoreFactory<S> = Arc::new(Mutex::new(self.make_store));
        let workers = (0..n)
            .map(|idx| {
                let f = Arc::clone(&factory);
                let mut gateway = GatewayBuilder {
                    suite: self.suite,
                    k: self.k,
                    w: self.w,
                    rekey_after: self.rekey_after,
                    dpd: self.dpd,
                    skeyid: self.skeyid.clone(),
                    shards: None,
                    wakeup_buffer: self.wakeup_buffer,
                    // Every shard records into the one shared handle,
                    // each attributing its events to its own slot.
                    telemetry: self.telemetry.clone(),
                    make_store: Box::new(move |spi, dir| {
                        (f.lock().expect("store factory poisoned"))(spi, dir)
                    }),
                }
                .build();
                gateway.set_shard_index(idx);
                if n == 1 {
                    // The degenerate pool: one shard spawns no thread —
                    // jobs run inline, keeping `shards(1)` identical to
                    // a plain `Gateway` in cost as well as output.
                    ShardWorker::inline(idx, gateway)
                } else {
                    ShardWorker::spawn(idx, gateway)
                }
            })
            .collect();
        ShardedGateway {
            in_flight: VecDeque::new(),
            stashed_error: None,
            events: VecDeque::new(),
            workers,
        }
    }
}

/// N-shard wrapper over [`Gateway`]: same verbs, same events, SA fleet
/// partitioned by SPI hash, batch datapath and reset recovery running
/// on a persistent worker pool. See the [crate docs](crate) for the
/// threading, determinism and shutdown model.
///
/// # Examples
///
/// ```
/// use reset_ipsec::{GatewayBuilder, GatewayEvent};
///
/// let mut p = GatewayBuilder::in_memory_sharded(4).build_sharded();
/// let mut q = GatewayBuilder::in_memory_sharded(4).build_sharded();
/// for spi in 1..=64 {
///     p.add_peer(spi, b"fleet-master");
///     q.add_peer(spi, b"fleet-master");
/// }
/// let frames: Vec<_> = (1..=64)
///     .map(|spi| p.protect(spi, b"hello").unwrap().expect("up").wire)
///     .collect();
/// q.push_wire_batch(&frames)?; // the worker shards drain their queues in parallel
/// let events = q.poll_events();
/// assert_eq!(events.len(), 64);
/// assert!(events.iter().all(|e| matches!(e, GatewayEvent::Delivered { .. })));
/// # Ok::<(), reset_ipsec::IpsecError>(())
/// ```
pub struct ShardedGateway<S> {
    /// Batch submissions not yet waited on, FIFO. Each entry is one
    /// `submit_batch` call's per-shard completions in shard index
    /// order. (Declared before `workers` so pending completions drop
    /// before the workers are joined.)
    in_flight: VecDeque<Vec<Completion<BatchDone>>>,
    /// An error observed while flushing in-flight work from a verb
    /// with no error channel; returned by the next fallible verb.
    stashed_error: Option<IpsecError>,
    /// The merged event queue, filled in stable shard-then-arrival
    /// order as completions are waited on.
    events: VecDeque<GatewayEvent>,
    /// One persistent worker per shard, each owning its `Gateway`.
    workers: Vec<ShardWorker<S>>,
}

impl<S> std::fmt::Debug for ShardedGateway<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGateway")
            .field("shards", &self.workers.len())
            .field("pending_events", &self.events.len())
            .field("in_flight_batches", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

impl<S: StableStore + Send + 'static> ShardedGateway<S> {
    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Which shard owns `spi` — [`reset_wire::spi_shard`], the one
    /// routing definition install and dispatch share.
    pub fn shard_of(&self, spi: u32) -> usize {
        reset_wire::spi_shard(spi, self.workers.len())
    }

    /// Runs `f` against one shard's inner engine on that shard's worker
    /// thread and returns its result (diagnostics, tests, occupancy
    /// inspection). The replacement for handing out `&Gateway`
    /// references, which cannot outlive a worker-owned shard.
    pub fn with_shard<R: Send + 'static>(
        &self,
        idx: usize,
        f: impl FnOnce(&Gateway<S>) -> R + Send + 'static,
    ) -> R {
        self.workers[idx].run(move |g| f(&*g))
    }

    /// Every installed SPI across all shards, ascending.
    pub fn spis(&self) -> Vec<u32> {
        let mut spis: Vec<u32> = self
            .gather(|g| g.sadb().spis())
            .into_iter()
            .flatten()
            .collect();
        spis.sort_unstable();
        spis
    }

    /// Total installed SA endpoints across all shards (both directions).
    pub fn sa_endpoints(&self) -> usize {
        self.gather(|g| g.sadb().len()).into_iter().sum()
    }

    /// Submits a read job to every shard in parallel and returns the
    /// results in shard index order.
    fn gather<R: Send + 'static>(
        &self,
        f: impl Fn(&mut Gateway<S>) -> R + Clone + Send + 'static,
    ) -> Vec<R> {
        let completions: Vec<_> = self
            .workers
            .iter()
            .map(|w| {
                let f = f.clone();
                w.submit(move |g| f(g))
            })
            .collect();
        completions
            .into_iter()
            .map(|c| c.wait().unwrap_or_else(|p| p.resume()))
            .collect()
    }

    /// Waits on one fleet submission's completions in shard index
    /// order, appending each shard's events to the merged queue.
    /// Returns the first error (a shard's verb error, or a job panic
    /// mapped to [`IpsecError::WorkerPanicked`]).
    fn barrier(&mut self, completions: Vec<Completion<BatchDone>>) -> Option<IpsecError> {
        let mut first = None;
        for completion in completions {
            match completion.wait() {
                Ok((result, events)) => {
                    self.events.extend(events);
                    if let Err(e) = result {
                        first.get_or_insert(e);
                    }
                }
                Err(panic) => {
                    first.get_or_insert(panic.into_error());
                }
            }
        }
        first
    }

    /// Completes every in-flight `submit_batch`, oldest first, merging
    /// events. Returns the first error (including one stashed by an
    /// earlier infallible verb).
    fn flush_in_flight(&mut self) -> Option<IpsecError> {
        let mut first = self.stashed_error.take();
        while let Some(group) = self.in_flight.pop_front() {
            if let Some(e) = self.barrier(group) {
                first.get_or_insert(e);
            }
        }
        first
    }

    /// [`ShardedGateway::flush_in_flight`] for verbs that can return
    /// the error to the caller.
    fn flushed(&mut self) -> Result<(), IpsecError> {
        match self.flush_in_flight() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// [`ShardedGateway::flush_in_flight`] for verbs with no error
    /// channel: an error is stashed and surfaces from the next
    /// fallible verb instead of being dropped.
    fn flush_stashing(&mut self) {
        if let Some(e) = self.flush_in_flight() {
            self.stashed_error = Some(e);
        }
    }

    // ------------------------------------------------------------------
    // SA installation (routed to the owning shard)
    // ------------------------------------------------------------------

    /// [`Gateway::add_peer`] on the shard owning `spi`.
    pub fn add_peer(&mut self, spi: u32, master: &[u8]) {
        let master = master.to_vec();
        self.workers[self.shard_of(spi)].run(move |g| g.add_peer(spi, &master));
    }

    /// [`Gateway::add_peer_between`] on the shard owning `spi`.
    pub fn add_peer_between(&mut self, spi: u32, master: &[u8], local: &[u8], remote: &[u8]) {
        let (master, local, remote) = (master.to_vec(), local.to_vec(), remote.to_vec());
        self.workers[self.shard_of(spi)]
            .run(move |g| g.add_peer_between(spi, &master, &local, &remote));
    }

    /// [`Gateway::install_pair`] on the shard owning the SA's SPI.
    pub fn install_pair(&mut self, sa: SecurityAssociation) {
        self.workers[self.shard_of(sa.spi())].run(move |g| g.install_pair(sa));
    }

    /// [`Gateway::install_outbound`] on the shard owning the SA's SPI.
    pub fn install_outbound(&mut self, sa: SecurityAssociation) {
        self.workers[self.shard_of(sa.spi())].run(move |g| g.install_outbound(sa));
    }

    /// [`Gateway::install_inbound`] on the shard owning the SA's SPI.
    pub fn install_inbound(&mut self, sa: SecurityAssociation) {
        self.workers[self.shard_of(sa.spi())].run(move |g| g.install_inbound(sa));
    }

    /// [`Gateway::remove_peer`] on the shard owning `spi`.
    pub fn remove_peer(&mut self, spi: u32) -> bool {
        self.workers[self.shard_of(spi)].run(move |g| g.remove_peer(spi))
    }

    // ------------------------------------------------------------------
    // Datapath
    // ------------------------------------------------------------------

    /// Seals `payload` on the outbound SA `spi` (one job on the owning
    /// shard; see [`Gateway::protect`]).
    ///
    /// # Errors
    ///
    /// [`IpsecError::UnknownSa`], lifetime exhaustion, store failures,
    /// or [`IpsecError::WorkerPanicked`] — including an error stashed
    /// by an earlier infallible verb, surfaced here like from every
    /// other fallible verb.
    pub fn protect(&mut self, spi: u32, payload: &[u8]) -> Result<Option<SentFrame>, IpsecError> {
        self.flushed()?;
        let worker = &self.workers[self.shard_of(spi)];
        if let Some(result) = worker.run_borrowed(|g| g.protect(spi, payload)) {
            return result; // single-shard inline: no copy, no queue
        }
        let payload = payload.to_vec();
        worker
            .submit(move |g| g.protect(spi, &payload))
            .wait()
            .unwrap_or_else(|p| Err(p.into_error()))
    }

    /// Feeds one received frame to the shard owning its SPI — a
    /// [`ShardedGateway::push_wire_batch`] of one. Frames too short to
    /// carry an SPI route to the shard owning SPI 0, which reports them
    /// as [`GatewayEvent::AuthFailed`] with `spi: 0` — exactly what a
    /// plain [`Gateway`] reports.
    ///
    /// # Errors
    ///
    /// Store failures or [`IpsecError::WorkerPanicked`]; per-packet
    /// failures are events.
    pub fn push_wire(&mut self, wire: &Bytes) -> Result<(), IpsecError> {
        self.push_wire_batch(std::slice::from_ref(wire))
    }

    /// Feeds a burst of frames through the fleet and waits for every
    /// shard: frames fan out to their owning shards by
    /// [`reset_wire::peek_spi`] (arrival order preserved within each
    /// shard), every non-idle shard drains its queue through
    /// [`Gateway::push_wire_batch`] on its persistent worker, and the
    /// shards' event streams are merged in stable shard-then-arrival
    /// order. One event per frame; per-SPI event order is identical to
    /// pushing the same burst through one [`Gateway`]. Equivalent to
    /// [`ShardedGateway::submit_batch`] + [`ShardedGateway::drain_events`].
    ///
    /// # Errors
    ///
    /// First shard store failure or worker panic (other shards' events
    /// are still merged).
    pub fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError> {
        self.flushed()?;
        if let Some((result, events)) =
            self.workers[0].run_borrowed(|g| (g.push_wire_batch(wires), g.poll_events()))
        {
            // Single-shard inline: the burst is borrowed straight into
            // the engine — no fan-out clone, byte-identical in cost to
            // a plain `Gateway` drain.
            self.events.extend(events);
            return result;
        }
        self.submit_batch(wires);
        self.flushed()
    }

    /// First half of a pipelined [`ShardedGateway::push_wire_batch`]:
    /// fans `wires` out to the owning shards' work queues and returns
    /// **without waiting**. The shards process while the caller does
    /// other work (sealing the next batch, generating traffic);
    /// [`ShardedGateway::drain_events`] is the matching barrier.
    /// Submissions queue FIFO — submitting twice before draining is
    /// fine, and the merged event order is the same as two sequential
    /// `push_wire_batch` calls.
    ///
    /// The fan-out is zero-copy: the batch is shared (`Arc<[Bytes]>`,
    /// one reference-count bump per frame total) and each shard receives
    /// only the *indices* of its frames, in arrival order — no per-shard
    /// `Bytes` clones, no per-destination queue materialization.
    pub fn submit_batch(&mut self, wires: &[Bytes]) {
        let n = self.workers.len();
        let batch: Arc<[Bytes]> = Arc::from(wires);
        // Each route is reserved for the whole batch once, so routing
        // never regrows it.
        let mut routes: Vec<Vec<u32>> = (0..n).map(|_| Vec::with_capacity(wires.len())).collect();
        for (i, wire) in batch.iter().enumerate() {
            let spi = reset_wire::peek_spi(wire).unwrap_or(0);
            routes[reset_wire::spi_shard(spi, n)].push(i as u32);
        }
        let group: Vec<Completion<BatchDone>> = self
            .workers
            .iter()
            .zip(routes)
            .filter(|(_, route)| !route.is_empty())
            .map(|(w, route)| {
                let batch = Arc::clone(&batch);
                w.submit(move |g| {
                    let drained = g.push_wire_routed(route.len(), |i| &batch[route[i] as usize]);
                    (drained, g.poll_events())
                })
            })
            .collect();
        self.in_flight.push_back(group);
    }

    /// Barrier for [`ShardedGateway::submit_batch`]: waits for every
    /// in-flight submission (oldest first, shards in index order),
    /// merges their events, and drains the merged queue.
    ///
    /// # Errors
    ///
    /// First shard store failure or worker panic across the flushed
    /// submissions (all completed shards' events are still returned on
    /// the next call).
    pub fn drain_events(&mut self) -> Result<Vec<GatewayEvent>, IpsecError> {
        self.flushed()?;
        Ok(self.events.drain(..).collect())
    }

    /// Drains the merged event queue (see the [crate docs](crate) for
    /// the merge order). Completes any in-flight
    /// [`ShardedGateway::submit_batch`] first; an error discovered
    /// while doing so is deferred to the next fallible verb.
    pub fn poll_events(&mut self) -> Vec<GatewayEvent> {
        self.flush_stashing();
        self.events.drain(..).collect()
    }

    /// Merged events queued but not yet polled (does not count events
    /// still inside in-flight batch submissions).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    // ------------------------------------------------------------------
    // Clock-driven policies
    // ------------------------------------------------------------------

    /// Advances every shard's clock (one job per shard, events merged
    /// in shard index order — DPD and rekey work is independent per
    /// shard, so parallel execution with an index-ordered barrier is
    /// indistinguishable from the sequential sweep).
    pub fn tick(&mut self, now_ns: u64) {
        self.flush_stashing();
        let group: Vec<Completion<BatchDone>> = self
            .workers
            .iter()
            .map(|w| {
                w.submit(move |g| {
                    g.tick(now_ns);
                    (Ok(()), g.poll_events())
                })
            })
            .collect();
        if let Some(e) = self.barrier(group) {
            // Keep the *first* stashed error (an earlier flush may
            // already hold one the caller hasn't seen yet).
            self.stashed_error.get_or_insert(e);
        }
    }

    /// [`Gateway::rekey_now`] on the shard owning `spi`.
    pub fn rekey_now(&mut self, spi: u32) {
        self.flush_stashing();
        let events = self.workers[self.shard_of(spi)].run(move |g| {
            g.rekey_now(spi);
            g.poll_events()
        });
        self.events.extend(events);
    }

    // ------------------------------------------------------------------
    // Reset and recovery (shard-parallel)
    // ------------------------------------------------------------------

    /// The host crashes: every SA in every shard loses its volatile
    /// counters, in parallel.
    pub fn reset(&mut self) {
        self.flush_stashing();
        let group: Vec<Completion<BatchDone>> = self
            .workers
            .iter()
            .map(|w| {
                w.submit(|g| {
                    g.reset();
                    (Ok(()), Vec::new())
                })
            })
            .collect();
        if let Some(e) = self.barrier(group) {
            // Keep the *first* stashed error, as in `tick`.
            self.stashed_error.get_or_insert(e);
        }
    }

    /// SAVE/FETCH recovery of the whole fleet: both halves fused into
    /// **one job per shard** (half the completion barriers of calling
    /// the halves separately — this is the reset-storm hot verb).
    /// Emits one coalesced [`GatewayEvent::Recovered`]. Returns the
    /// number of SA directions recovered.
    ///
    /// # Errors
    ///
    /// First shard store failure or worker panic. On a partial failure
    /// the *other* shards complete both halves (with the split calls a
    /// begin-error would leave them merely begun); retrying `recover`
    /// wakes the failed shard and re-runs no-op halves on the rest.
    pub fn recover(&mut self) -> Result<usize, IpsecError> {
        self.flushed()?;
        let completions: Vec<_> = self
            .workers
            .iter()
            .map(|w| {
                w.submit(|g| {
                    (
                        g.begin_recover().and_then(|()| g.finish_recover()),
                        g.poll_events(),
                    )
                })
            })
            .collect();
        self.coalesce_recovered(completions)
    }

    /// First recovery half on every shard in parallel: FETCH + leap +
    /// issue the synchronous SAVE on every down SA. Frames pushed until
    /// [`ShardedGateway::finish_recover`] are buffered per SA.
    ///
    /// # Errors
    ///
    /// First shard store failure (its shard stays down; others may
    /// already be waking — retry, exactly as with [`Gateway`]).
    pub fn begin_recover(&mut self) -> Result<(), IpsecError> {
        self.flushed()?;
        let group: Vec<Completion<BatchDone>> = self
            .workers
            .iter()
            .map(|w| w.submit(|g| (g.begin_recover(), Vec::new())))
            .collect();
        match self.barrier(group) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Second recovery half on every shard in parallel. The shards'
    /// individual `Recovered` events are coalesced into one fleet-wide
    /// `Recovered { sas }` (summed), followed by the buffered-frame
    /// verdicts in shard-then-SPI order — the same shape a single
    /// [`Gateway`] emits. Returns the recovered direction count.
    ///
    /// # Errors
    ///
    /// First shard store failure or worker panic (successful shards'
    /// events are still merged after the coalesced `Recovered`).
    pub fn finish_recover(&mut self) -> Result<usize, IpsecError> {
        self.flushed()?;
        let completions: Vec<_> = self
            .workers
            .iter()
            .map(|w| w.submit(|g| (g.finish_recover(), g.poll_events())))
            .collect();
        self.coalesce_recovered(completions)
    }

    /// Waits (shard index order) on per-shard recovery completions,
    /// coalescing their `Recovered` events into one fleet-wide event
    /// placed before the buffered-frame verdicts.
    fn coalesce_recovered(
        &mut self,
        completions: Vec<Completion<RecoverDone>>,
    ) -> Result<usize, IpsecError> {
        let mut total = 0usize;
        let mut first_err = None;
        let mut verdicts: Vec<GatewayEvent> = Vec::new();
        for completion in completions {
            match completion.wait() {
                Ok((result, events)) => {
                    match result {
                        Ok(sas) => total += sas,
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                    for ev in events {
                        match ev {
                            GatewayEvent::Recovered { .. } => {} // re-emitted coalesced below
                            other => verdicts.push(other),
                        }
                    }
                }
                Err(panic) => {
                    first_err.get_or_insert(panic.into_error());
                }
            }
        }
        // On a partial failure the successful shards' recovery is still
        // *reported* (their counts would otherwise be lost — a retried
        // finish_recover returns 0 for already-woken shards), keeping
        // the Recovered-before-verdicts shape; the caller retries the
        // failed shard via another finish_recover, which emits a second
        // Recovered for the remainder.
        if total > 0 || first_err.is_none() {
            self.events
                .push_back(GatewayEvent::Recovered { sas: total });
        }
        self.events.extend(verdicts);
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    // ------------------------------------------------------------------
    // Background-save plumbing and introspection (routed / swept)
    // ------------------------------------------------------------------

    /// True iff any SA in any shard has a background SAVE in flight.
    /// (Queries ride the same per-shard queues as mutations, so the
    /// answer reflects every previously submitted job.)
    pub fn pending_save(&self) -> bool {
        self.gather(|g| g.pending_save()).into_iter().any(|p| p)
    }

    /// Completes every in-flight background SAVE across all shards, in
    /// parallel.
    ///
    /// # Errors
    ///
    /// First store failure in shard index order (pending saves are
    /// retained for retry).
    pub fn save_completed(&mut self) -> Result<(), StableError> {
        self.flush_stashing();
        self.gather(|g| g.save_completed())
            .into_iter()
            .find(|r| r.is_err())
            .unwrap_or(Ok(()))
    }

    /// The next sequence number the outbound SA `spi` would send.
    pub fn next_seq(&self, spi: u32) -> Option<SeqNum> {
        self.workers[self.shard_of(spi)].run(move |g| g.next_seq(spi))
    }

    /// The inbound SA's anti-replay right edge.
    pub fn right_edge(&self, spi: u32) -> Option<SeqNum> {
        self.workers[self.shard_of(spi)].run(move |g| g.right_edge(spi))
    }

    /// The SA's liveness phase (see [`Gateway::phase`]).
    pub fn phase(&self, spi: u32) -> Option<Phase> {
        self.workers[self.shard_of(spi)].run(move |g| g.phase(spi))
    }

    /// Whether `spi`'s DPD detector is inside the §6 grace window.
    pub fn in_grace(&self, spi: u32) -> Option<bool> {
        self.workers[self.shard_of(spi)].run(move |g| g.in_grace(spi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::CryptoSuite;

    fn fleet(shards: usize, sas: u32) -> (ShardedGateway<MemStable>, ShardedGateway<MemStable>) {
        let mut p = GatewayBuilder::in_memory_sharded(shards)
            .save_interval(10)
            .build_sharded();
        let mut q = GatewayBuilder::in_memory_sharded(shards)
            .save_interval(10)
            .build_sharded();
        for spi in 1..=sas {
            p.add_peer(spi, b"shard-test-master");
            q.add_peer(spi, b"shard-test-master");
        }
        (p, q)
    }

    #[test]
    fn installs_route_by_spi_hash_and_cover_all_shards() {
        let (p, _) = fleet(4, 64);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.spis().len(), 64);
        assert_eq!(p.sa_endpoints(), 128);
        for idx in 0..4 {
            assert!(
                !p.with_shard(idx, |g| g.sadb().is_empty()),
                "shard {idx} owns no SA out of 64"
            );
        }
        for spi in 1..=64 {
            assert!(p.with_shard(p.shard_of(spi), move |g| g.sadb().outbound(spi).is_some()));
        }
    }

    #[test]
    fn fleet_traffic_flows_on_every_sa() {
        let (mut p, mut q) = fleet(3, 32);
        let frames: Vec<Bytes> = (1..=32)
            .map(|spi| p.protect(spi, b"data").unwrap().unwrap().wire)
            .collect();
        q.push_wire_batch(&frames).unwrap();
        let events = q.poll_events();
        assert_eq!(events.len(), 32);
        assert!(events
            .iter()
            .all(|e| matches!(e, GatewayEvent::Delivered { .. })));
        // Merged in shard-then-arrival order: each SPI appears once, and
        // SPIs of the same shard keep their arrival order.
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for e in &events {
            if let GatewayEvent::Delivered { spi, .. } = e {
                per_shard[q.shard_of(*spi)].push(*spi);
            }
        }
        let mut arrival: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for spi in 1..=32 {
            arrival[q.shard_of(spi)].push(spi);
        }
        assert_eq!(per_shard, arrival);
    }

    #[test]
    fn single_shard_stream_is_bit_identical_to_gateway() {
        let mut reference = GatewayBuilder::in_memory().save_interval(10).build();
        let (mut p, mut q) = fleet(1, 8);
        for spi in 1..=8 {
            reference.add_peer(spi, b"shard-test-master");
        }
        let mut wires: Vec<Bytes> = Vec::new();
        for round in 0..5u32 {
            for spi in 1..=8 {
                wires.push(
                    p.protect(spi, format!("r{round}").as_bytes())
                        .unwrap()
                        .unwrap()
                        .wire,
                );
            }
        }
        wires.push(wires[3].clone()); // replay
        wires.push(Bytes::copy_from_slice(&[9, 9])); // runt
        reference.push_wire_batch(&wires).unwrap();
        q.push_wire_batch(&wires).unwrap();
        assert_eq!(reference.poll_events(), q.poll_events());
    }

    #[test]
    fn submit_drain_split_matches_push_wire_batch() {
        let (mut p, mut q_sync) = fleet(4, 16);
        let (_, mut q_pipelined) = fleet(4, 16);
        let chunks: Vec<Vec<Bytes>> = (0..4)
            .map(|round| {
                (1..=16)
                    .map(|spi| {
                        p.protect(spi, format!("c{round}").as_bytes())
                            .unwrap()
                            .unwrap()
                            .wire
                    })
                    .collect()
            })
            .collect();
        let mut sync_events = Vec::new();
        for chunk in &chunks {
            q_sync.push_wire_batch(chunk).unwrap();
            sync_events.extend(q_sync.poll_events());
        }
        // Pipelined: all four chunks in flight before the one barrier.
        for chunk in &chunks {
            q_pipelined.submit_batch(chunk);
        }
        let pipelined_events = q_pipelined.drain_events().unwrap();
        assert_eq!(sync_events, pipelined_events);
    }

    #[test]
    fn reset_storm_recovers_shard_parallel_with_coalesced_event() {
        for shards in [1usize, 4] {
            let (mut p, mut q) = fleet(shards, 24);
            let mut recorded: Vec<Bytes> = Vec::new();
            for _ in 0..12 {
                for spi in 1..=24 {
                    let f = p.protect(spi, b"pre").unwrap().unwrap();
                    recorded.push(f.wire);
                }
            }
            q.push_wire_batch(&recorded).unwrap();
            q.save_completed().unwrap();
            q.poll_events();
            q.reset();
            assert_eq!(q.phase(1), Some(Phase::Down));
            let sas = q.recover().unwrap();
            assert_eq!(sas, 48, "24 SAs x 2 directions, shards={shards}");
            let events = q.poll_events();
            assert_eq!(
                events[0],
                GatewayEvent::Recovered { sas: 48 },
                "one coalesced Recovered, shards={shards}"
            );
            // The §3 replay of the entire fleet history: nothing lands.
            q.push_wire_batch(&recorded).unwrap();
            assert!(
                q.poll_events()
                    .iter()
                    .all(|e| matches!(e, GatewayEvent::ReplayDropped { .. })),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn buffered_frames_resolve_after_parallel_finish() {
        let (mut p, mut q) = fleet(4, 16);
        for spi in 1..=16 {
            for _ in 0..12 {
                let f = p.protect(spi, b"pre").unwrap().unwrap();
                q.push_wire(&f.wire).unwrap();
            }
        }
        q.save_completed().unwrap();
        q.poll_events();
        q.reset();
        q.begin_recover().unwrap();
        // Push the senders past the leap, then one fresh frame per SA
        // arrives mid-wake-up.
        let fresh: Vec<Bytes> = (1..=16)
            .map(|spi| {
                for _ in 0..25 {
                    p.protect(spi, b"skip").unwrap();
                }
                p.protect(spi, b"fresh").unwrap().unwrap().wire
            })
            .collect();
        q.push_wire_batch(&fresh).unwrap();
        let buffered = q.poll_events();
        assert_eq!(buffered.len(), 16);
        assert!(buffered
            .iter()
            .all(|e| matches!(e, GatewayEvent::Buffered { .. })));
        q.finish_recover().unwrap();
        let events = q.poll_events();
        assert!(matches!(events[0], GatewayEvent::Recovered { sas: 32 }));
        assert_eq!(events.len(), 17, "Recovered + one verdict per buffered");
        assert!(events[1..]
            .iter()
            .all(|e| matches!(e, GatewayEvent::Delivered { .. })));
    }

    #[test]
    fn rekey_routes_to_owner_and_stays_in_lockstep() {
        let (mut p, mut q) = fleet(4, 8);
        let old = p.protect(5, b"old").unwrap().unwrap();
        q.push_wire(&old.wire).unwrap();
        q.poll_events();
        p.rekey_now(5);
        q.rekey_now(5);
        assert!(p
            .poll_events()
            .contains(&GatewayEvent::RekeyStarted { spi: 5 }));
        q.poll_events();
        q.push_wire(&old.wire).unwrap();
        assert_eq!(
            q.poll_events(),
            vec![GatewayEvent::AuthFailed { spi: 5 }],
            "old generation died with the rekey"
        );
        let fresh = p.protect(5, b"new").unwrap().unwrap();
        assert_eq!(fresh.seq.value(), 1);
        q.push_wire(&fresh.wire).unwrap();
        assert!(matches!(
            q.poll_events()[..],
            [GatewayEvent::Delivered { .. }]
        ));
    }

    #[test]
    fn default_shard_count_is_available_parallelism() {
        let gw: ShardedGateway<MemStable> = GatewayBuilder::in_memory().build_sharded();
        let expect = thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(gw.shard_count(), expect);
    }

    #[test]
    fn unknown_and_runt_frames_become_events_on_any_shard_count() {
        for shards in [1usize, 2, 8] {
            let (mut p, mut q) = fleet(shards, 4);
            let good = p.protect(2, b"ok").unwrap().unwrap().wire;
            let mut foreign = good.to_vec();
            foreign[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
            let wires = vec![
                good.clone(),
                Bytes::from(foreign),
                Bytes::new(),
                Bytes::copy_from_slice(&[1, 2, 3]),
            ];
            q.push_wire_batch(&wires).unwrap();
            let mut events = q.poll_events();
            assert_eq!(events.len(), 4, "shards={shards}");
            // Global order varies with the shard count; verdict
            // multiset must not.
            events.sort_by_key(|e| match e {
                GatewayEvent::Delivered { .. } => 0,
                GatewayEvent::UnknownSa { .. } => 1,
                GatewayEvent::AuthFailed { .. } => 2,
                _ => 3,
            });
            assert!(matches!(events[0], GatewayEvent::Delivered { spi: 2, .. }));
            assert!(matches!(
                events[1],
                GatewayEvent::UnknownSa { spi: 0xDEAD_BEEF }
            ));
            assert!(matches!(events[2], GatewayEvent::AuthFailed { spi: 0 }));
            assert!(matches!(events[3], GatewayEvent::AuthFailed { spi: 0 }));
        }
    }

    #[test]
    fn suites_sweep_through_the_sharded_path() {
        for &suite in CryptoSuite::ALL {
            let mut p = GatewayBuilder::in_memory_sharded(2)
                .suite(suite)
                .build_sharded();
            let mut q = GatewayBuilder::in_memory_sharded(2)
                .suite(suite)
                .build_sharded();
            for spi in 1..=6 {
                p.add_peer(spi, b"suite-master");
                q.add_peer(spi, b"suite-master");
            }
            let frames: Vec<Bytes> = (1..=6)
                .map(|spi| p.protect(spi, b"x").unwrap().unwrap().wire)
                .collect();
            q.push_wire_batch(&frames).unwrap();
            assert_eq!(q.poll_events().len(), 6, "{suite:?}");
        }
    }

    #[test]
    fn drop_with_batches_in_flight_shuts_down_cleanly() {
        let (mut p, mut q) = fleet(4, 32);
        let frames: Vec<Bytes> = (0..8)
            .flat_map(|_| {
                (1..=32)
                    .map(|spi| p.protect(spi, b"queued").unwrap().unwrap().wire)
                    .collect::<Vec<_>>()
            })
            .collect();
        for chunk in frames.chunks(64) {
            q.submit_batch(chunk);
        }
        // Dropped with four workers' queues full: the pool must drain
        // and join without hanging or panicking.
        drop(q);
    }

    #[test]
    fn index_fanout_is_byte_identical_and_attributes_shard_frames() {
        use reset_telemetry::Telemetry;
        let shards = 4;
        let t = Telemetry::with_shards(shards);
        let mut tx = GatewayBuilder::in_memory().save_interval(10).build();
        let mut reference = GatewayBuilder::in_memory().save_interval(10).build();
        let mut rx = GatewayBuilder::in_memory_sharded(shards)
            .save_interval(10)
            .telemetry(t.clone())
            .build_sharded();
        let spis: Vec<u32> = (1..=24).collect();
        for &spi in &spis {
            tx.add_peer(spi, b"fanout-master");
            reference.add_peer(spi, b"fanout-master");
            rx.add_peer(spi, b"fanout-master");
        }
        let mut wires: Vec<Bytes> = Vec::new();
        for round in 0..6u32 {
            for &spi in &spis {
                wires.push(
                    tx.protect(spi, format!("r{round} s{spi}").as_bytes())
                        .unwrap()
                        .unwrap()
                        .wire,
                );
            }
        }
        wires.push(wires[10].clone()); // replay
        let mut forged = wires[11].to_vec();
        *forged.last_mut().unwrap() ^= 0x01;
        wires.push(Bytes::from(forged)); // bad ICV
        wires.push(Bytes::copy_from_slice(&[7])); // runt → spi 0
        reference.push_wire_batch(&wires).unwrap();
        rx.submit_batch(&wires); // the shared-batch + index-route path
        let sharded = rx.drain_events().unwrap();
        let plain = reference.poll_events();
        assert_eq!(sharded.len(), plain.len());
        // Byte-identical per-SPI event subsequences (payload bytes
        // included — `GatewayEvent`'s `Eq` compares them).
        let spi_of = |e: &GatewayEvent| match e {
            GatewayEvent::Delivered { spi, .. }
            | GatewayEvent::ReplayDropped { spi, .. }
            | GatewayEvent::AuthFailed { spi }
            | GatewayEvent::UnknownSa { spi }
            | GatewayEvent::Buffered { spi }
            | GatewayEvent::DroppedDown { spi } => *spi,
            _ => u32::MAX,
        };
        for &spi in spis.iter().chain([0u32].iter()) {
            let a: Vec<_> = plain.iter().filter(|e| spi_of(e) == spi).collect();
            let b: Vec<_> = sharded.iter().filter(|e| spi_of(e) == spi).collect();
            assert_eq!(a, b, "per-SPI stream diverged for spi {spi}");
        }
        // Telemetry attributed every routed frame to its owning shard —
        // the occupancy signal deferred rebalancing (ROADMAP, "Give the
        // shard pool its verdict") would consume.
        let mut expected = vec![0u64; shards];
        for wire in &wires {
            let spi = reset_wire::peek_spi(wire).unwrap_or(0);
            expected[reset_wire::spi_shard(spi, shards)] += 1;
        }
        assert_eq!(t.snapshot().shard_frames(), expected);
    }

    #[test]
    fn telemetry_counts_every_pushed_frame_whatever_the_verb() {
        use reset_telemetry::Telemetry;
        for shards in [1usize, 2] {
            let t = Telemetry::with_shards(shards);
            let mut tx = GatewayBuilder::in_memory().build();
            let mut rx = GatewayBuilder::in_memory_sharded(shards)
                .telemetry(t.clone())
                .build_sharded();
            for spi in 1..=8 {
                tx.add_peer(spi, b"frames-master");
                rx.add_peer(spi, b"frames-master");
            }
            let frames: Vec<Bytes> = (0..30u32)
                .map(|i| tx.protect(1 + i % 8, b"counted").unwrap().unwrap().wire)
                .collect();
            for wire in &frames[..5] {
                rx.push_wire(wire).unwrap();
            }
            rx.push_wire_batch(&frames[5..17]).unwrap();
            rx.submit_batch(&frames[17..]);
            rx.push_wire(&Bytes::copy_from_slice(&[7])).unwrap(); // runt → shard of SPI 0
            assert_eq!(rx.drain_events().unwrap().len(), 31);
            let counted: u64 = t.snapshot().shard_frames().iter().sum();
            assert_eq!(counted, 31, "shards={shards}");
        }
    }

    #[test]
    fn telemetry_attributes_events_to_their_shards() {
        use reset_telemetry::{EventKind, Telemetry};
        let shards = 4;
        let t = Telemetry::with_shards(shards);
        let mut tx = GatewayBuilder::in_memory().build();
        let mut rx = GatewayBuilder::in_memory()
            .shards(shards)
            .telemetry(t.clone())
            .build_sharded();
        let spis: Vec<u32> = (1..=32).collect();
        for &spi in &spis {
            tx.add_peer(spi, b"shard-telemetry");
            rx.add_peer(spi, b"shard-telemetry");
        }
        let frames: Vec<_> = spis
            .iter()
            .map(|&spi| tx.protect(spi, b"x").unwrap().unwrap().wire)
            .collect();
        rx.push_wire_batch(&frames).unwrap();
        let events = rx.poll_events();
        assert_eq!(events.len(), 32);

        let snap = t.snapshot();
        assert_eq!(t.event_count(EventKind::Delivered), 32);
        // Each frame was counted on the shard its SPI hashes to.
        let mut expected = vec![0u64; shards];
        for &spi in &spis {
            expected[reset_wire::spi_shard(spi, shards)] += 1;
        }
        assert_eq!(snap.shard_frames(), expected);
        for (idx, shard) in snap.shards.iter().enumerate() {
            let delivered = shard
                .events
                .iter()
                .find(|(name, _)| *name == "delivered")
                .unwrap()
                .1;
            assert_eq!(delivered, expected[idx], "shard {idx}");
        }
    }
}
