//! Security association database (SADB).
//!
//! A host — the paper's example is a gateway with "multiple SAs existing
//! at the same time, either for the same peer or for different peers" —
//! keeps its SAs here. The §3 cost argument is about exactly this
//! object: after a reboot, the IETF remedy renegotiates *every* SA, while
//! SAVE/FETCH wakes them all up with one FETCH + SAVE each.
//!
//! # Storage layout
//!
//! The paper's SA is self-contained — its counter, its window, its one
//! SAVE slot, nothing shared — and so is its storage: everything kept
//! for one SPI is **one record** in one slab vector (one free-list; freed
//! slots are reused). A record holds the outbound and inbound halves
//! (either may be absent), the SPI and a crate-internal policy block: the
//! rekey generation and this module's "SAVE queued" bits. The
//! [`crate::Gateway`]'s DPD detector and the deadline of its one live
//! heap entry are in the inbound half, and an install over a live one
//! carries them over. A reused slot starts from a vacant record, so
//! nothing a torn-down SA knew reaches its successor.
//!
//! The record is `#[repr(C)]`, and so is every type inside it, so that
//! what a frame reads on each direction is one run at a fixed place: a
//! send reads 185 bytes from the outbound SA's lifetime to its machine's
//! phase, a receive 209 bytes from the inbound SA's key to its machine's
//! phase, with the DPD state, the SAVE in flight and the window between.
//! Keys, wake-up buffers and the rekey generation lie outside both runs.
//! `tests::each_directions_frame_fields_are_one_short_run` measures them
//! (ARCHITECTURE.md, "Who owns per-SA state").
//!
//! One `HashMap<spi, slot>` under std's default keyed hasher is the
//! index. Every lookup by SPI — a drained run, a send (`protect_on`),
//! `record` / `record_mut` — is one probe, not a walk down a tree whose
//! nodes a fleet past the cache misses one by one. The key is
//! deliberately not `reset_wire::spi_shard`'s fixed public mix: in IKE the
//! peer picks the SPI we send on, and every SPI on the receive path comes
//! off the wire, so a public hash would let an outsider build collision
//! chains. Nothing observable reads the map's order. Every SPI-ordered
//! sweep — [`Sadb::recover_all`], the split recovery, [`Sadb::spis`], the
//! wake-up event order a [`crate::Gateway`] reports — walks the live
//! `(spi, slot)` pairs sorted by SPI, outbound halves first, then
//! inbound, which seeded scenarios and the order of store operations rely
//! on. The sorted order is kept from sweep to sweep and dropped when an
//! SPI is installed or removed, so one index serves both; a second,
//! ordered one beside it would cost every install, and sorting anew for
//! each recovery half cost a 2¹⁸-SA fleet ~20 % of `recover_ns_per_sa`.
//!
//! The [`Sadb::process_batch`] drain resolves first. Walk (i) is two
//! loops. *Resolve* cuts the batch into runs of one SPI and probes the
//! index for every run's slot; it reads no record. *Warm* then reads each
//! resolved record: a slot with no inbound half serves no run (its frames
//! are unknown SAs), and every other run's inbound half loads one word a
//! line of its receive run. The loads of one loop do not wait on each
//! other, so a wide fleet's misses overlap instead of coming one record
//! at a time (see [`crate::esp`], "One receive path", for why the loop is
//! separate and why it uses demand loads). The walks that verify, window
//! and decrypt follow over the resolved runs, and the gateway gets each
//! run's slot.
//!
//! The stated cost: a record with one direction installed carries the
//! other's empty half inline (304 B outbound, 384 B inbound; an SA keeps
//! its keys inline and an HMAC SA boxes its schedules, and the SAVE/FETCH
//! driver is a machine over a one-slot saver, 160 B). A database keyed in
//! both directions — every gateway — pays nothing; a sender-only or
//! receiver-only one pays it per SA. The halves are not boxed to avoid
//! it: that is a pointer chase and an allocation per SA on the path a
//! wide fleet measures.
//!
//! # The drain scratch and the arena
//!
//! The database owns the receive drain's one `DrainScratch` (working
//! vectors plus the handle that recycles the decryption arena; see
//! [`crate::esp`]) and lends it to the SA of every SPI run of every batch
//! — and, during a split recovery, to each waking SA's buffered frames.
//! Endpoints own no working memory of their own, so per-SA state stays
//! what the protocol needs and a fleet of 2¹⁸ SAs keeps one arena, not
//! 2¹⁸. The arena is opened at the start of a drain, frozen once at its
//! end, and reclaimed by the next drain when the consumer has dropped
//! every payload of this one; until then the next drain allocates a
//! fresh arena.
//!
//! # The send look-ahead
//!
//! The sender is the one process that knows its future: the next frame
//! on an SA carries the next sequence number. The AEAD suite's fused
//! seal ([`reset_crypto::CipherSuite::seal`]) uses the crypto lanes one
//! frame leaves spare to compute keystream for the frames after it, and
//! keeps it in a [`reset_crypto::SealAhead`] — at most one lane group of
//! blocks, ~0.6 KB inline. Like the drain scratch it is working memory,
//! so the database owns **one** (one per gateway, so one per shard; never
//! one per SA) and lends it down [`Sadb::protect`] → `Outbound` →
//! `reset_wire::seal_frame_ahead` → the suite.
//!
//! A cached block is keystream, so it lives and dies with its key. The
//! look-ahead belongs to the outbound key of the SPI that sent last, and
//! is dropped (and overwritten):
//!
//! * when another SPI sends (the owner check in `protect_on`);
//! * when any outbound half is installed or replaced —
//!   [`Sadb::install_outbound`] is the only place an outbound key
//!   changes: rekeys, the fail-closed replacement and an install over a
//!   live SPI all come through it;
//! * when a record is removed ([`Sadb::remove`]);
//! * in [`Sadb::reset_all`]: volatile state is lost on a reset — the
//!   paper's model — and this is volatile state.
//!
//! Within one key, entries are matched on the exact `(seq, counter)`,
//! used at most once and forgotten once their sequence number has passed,
//! so the `2K` leap after a recovery simply misses. The last two drops
//! are hygiene rather than correctness (a removed SPI must be reinstalled
//! before it can send; a reset keeps the key) and are pinned on the
//! look-ahead itself in this module's tests; the first two are what
//! `tests/it_gateway.rs` catches on the wire.
//!
//! The gain needs a property of the traffic: *consecutive sends on one
//! SA*. A send whose predecessor on this database named another SPI finds
//! nothing cached and computes exactly what it did before (a 64 B frame:
//! two scalar blocks) and nothing ahead: the suite bets spare lanes
//! only from the second consecutive sequence number on, so a fleet whose
//! sends are runs of one never fills (or has to overwrite) the
//! look-ahead at all.
//! Stated costs: the database grows by the look-ahead, per shard, not per
//! SA; the standalone [`Outbound::protect`] seals over a look-ahead local
//! to the call and so gains nothing from a run; and an endpoint swapped
//! wholesale through [`Sadb::outbound_mut`] (assigning through the
//! handle) is a key change nothing here observes — install through
//! [`Sadb::install_outbound`].
//!
//! # Due-lists carry work, never state
//!
//! Outside the records lives only *work that is due* — here, the SAVEs
//! that may be owed: `(half, spi, slot)` entries in one reused vector.
//! Every operation that can put a SAVE in flight (a send, a drained run,
//! a wake-up) queues its half unless the record's queued bit says an
//! entry is waiting, and [`crate::Gateway::save_completed`] sorts the list
//! — outbound SPIs ascending, then inbound: the store-operation order —
//! and completes it in time proportional to the SAs queued, not to the
//! fleet. An entry is a hint, re-verified against its record when
//! drained: one whose slot changed hands, whose half is gone, or whose
//! SAVE was completed on the endpoint directly is dropped without
//! touching a store. So teardown and replacement need no list surgery,
//! and nothing kept in a list can outlive its SA. The gateway's own
//! due-lists (detectors to arm, rekeys due, SAs to fail closed) follow
//! the same rule.

use std::collections::HashMap;

use bytes::Bytes;
use reset_crypto::SealAhead;
use reset_stable::{StableError, StableStore};

use anti_replay::{Phase, SeqNum, SfDriver};

use crate::dpd::DpdState;
use crate::esp::{drain, DrainScratch, Inbound, Outbound, Receivers, Run, RxResult};
use crate::IpsecError;

/// Both directional endpoints torn out of the database by
/// [`Sadb::remove`] — whichever of the two existed for the SPI.
#[derive(Debug)]
pub struct RemovedSa<S> {
    /// The outbound endpoint, if one was installed.
    pub outbound: Option<Outbound<S>>,
    /// The inbound endpoint, if one was installed.
    pub inbound: Option<Inbound<S>>,
}

/// Which half of a record a sweep or a queued SAVE is about. Outbound
/// sorts first: sweeps and SAVE completion both go outbound SPIs
/// ascending, then inbound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Half {
    Outbound,
    Inbound,
}

impl Half {
    const BOTH: [Half; 2] = [Half::Outbound, Half::Inbound];
}

/// What the host keeps per SA besides the endpoints and outside the
/// frame path — state, as opposed to the due-lists' work (module docs).
/// A standalone [`Sadb`] counts no rekeys. (The dead-peer state a
/// [`crate::Gateway`] keeps per SA is in the inbound half, where a
/// delivery reads it; see [`Inbound`].)
#[derive(Debug, Default)]
#[repr(C)]
pub(crate) struct SaPolicy {
    /// Per [`Half`]: an entry for it is in the database's SAVE due-list.
    save_queued: [bool; 2],
    /// Rekeys performed on this SA, folded into the deterministic nonces
    /// so each generation derives fresh key material.
    pub(crate) rekey_generation: u32,
}

/// Everything the host keeps for one SPI (module docs, "Storage layout").
/// A free slab slot holds a vacant record: no halves, default policy.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct SaRecord<S> {
    outbound: Option<Outbound<S>>,
    inbound: Option<Inbound<S>>,
    spi: u32,
    pub(crate) policy: SaPolicy,
}

impl<S: StableStore> SaRecord<S> {
    fn vacant() -> Self {
        SaRecord {
            outbound: None,
            inbound: None,
            spi: 0,
            policy: SaPolicy::default(),
        }
    }

    /// The inbound half's dead-peer state, if that half is installed.
    pub(crate) fn dpd_mut(&mut self) -> Option<&mut DpdState> {
        self.inbound.as_mut().map(|inbound| &mut inbound.dpd)
    }

    pub(crate) fn outbound(&self) -> Option<&Outbound<S>> {
        self.outbound.as_ref()
    }

    pub(crate) fn inbound(&self) -> Option<&Inbound<S>> {
        self.inbound.as_ref()
    }

    /// Both halves at once (installing or removing one goes through the
    /// database, which counts them).
    pub(crate) fn halves_mut(&mut self) -> (Option<&mut Outbound<S>>, Option<&mut Inbound<S>>) {
        (self.outbound.as_mut(), self.inbound.as_mut())
    }

    /// The SAVE/FETCH driver of `half`, if installed: the sweeps treat
    /// both halves alike.
    fn driver(&self, half: Half) -> Option<&SfDriver<S>> {
        match half {
            Half::Outbound => self.outbound().map(Outbound::seq_state),
            Half::Inbound => self.inbound().map(Inbound::seq_state),
        }
    }

    /// [`SaRecord::driver`], mutably.
    fn driver_mut(&mut self, half: Half) -> Option<&mut SfDriver<S>> {
        match half {
            Half::Outbound => self.outbound.as_mut().map(Outbound::driver_mut),
            Half::Inbound => self.inbound.as_mut().map(Inbound::driver_mut),
        }
    }

    /// Completes the wake-up of installed `half` and returns the
    /// verdicts of the frames buffered meanwhile: the inbound endpoint
    /// drains them, a sender buffers none.
    fn finish_wakeup(
        &mut self,
        half: Half,
        scratch: &mut DrainScratch,
    ) -> Result<Vec<RxResult>, StableError> {
        match half {
            Half::Inbound => {
                let inbound = self.inbound.as_mut().expect("installed");
                inbound.finish_wakeup_with(scratch)
            }
            Half::Outbound => {
                let driver = self.driver_mut(half).expect("installed");
                driver.finish_wakeup().map(|_| Vec::new())
            }
        }
    }

    /// True iff `half` is installed and has a SAVE in flight.
    fn owes_save(&self, half: Half) -> bool {
        self.driver(half)
            .is_some_and(|d| d.pending_save().is_some())
    }

    /// The one capture of "this half may now owe a SAVE": queues it unless
    /// an entry is already waiting. Called after every operation that can
    /// issue one — so the endpoint, just used, is asked first, and the
    /// policy block is only read for the one frame in `K` that saves.
    fn queue_save(&mut self, half: Half, slot: u32, saves: &mut Vec<(Half, u32, u32)>) {
        if self.owes_save(half) && !self.policy.save_queued[half as usize] {
            self.policy.save_queued[half as usize] = true;
            saves.push((half, self.spi, slot));
        }
    }
}

/// The database as a drain sees it: the records walk (i) resolved its
/// runs to, and the due-list a windowed run queues its SAVE on.
struct Records<'a, S> {
    slots: &'a mut [SaRecord<S>],
    saves: &'a mut Vec<(Half, u32, u32)>,
}

impl<S: StableStore> Receivers<S> for Records<'_, S> {
    fn receiver(&self, slot: u32) -> &Inbound<S> {
        self.slots[slot as usize]
            .inbound()
            .expect("walk (i) resolved the run on it")
    }

    fn receiver_mut(&mut self, slot: u32) -> &mut Inbound<S> {
        let inbound = self.slots[slot as usize].inbound.as_mut();
        inbound.expect("walk (i) resolved the run on it")
    }

    fn windowed(&mut self, slot: u32) {
        self.slots[slot as usize].queue_save(Half::Inbound, slot, self.saves);
    }
}

/// The SA database of one host.
///
/// One record per SPI in a slab vector, behind one hashed SPI → slot
/// index (module docs, "Storage layout"): a lookup is one probe, sweeps
/// go in SPI order, and the records themselves sit in contiguous storage
/// for cache-dense batch drains. The database also owns the
/// receive drain's working memory and its one decryption arena, reused
/// from run to run and drain to drain ([`Sadb::process_batch`]).
///
/// # Examples
///
/// ```
/// use reset_ipsec::{Sadb, SaKeys, SecurityAssociation};
/// use reset_stable::MemStable;
///
/// let mut sadb: Sadb<MemStable> = Sadb::new();
/// let keys = SaKeys::derive(b"secret", b"out");
/// sadb.install_outbound(SecurityAssociation::new(1, keys), MemStable::new(), 25);
/// assert_eq!(sadb.len(), 1);
/// let wire = sadb.protect(1, b"data")?.expect("up");
/// # Ok::<(), reset_ipsec::IpsecError>(())
/// ```
#[derive(Debug, Default)]
pub struct Sadb<S> {
    /// One record per SPI, slab order (a free slot holds a vacant one).
    slots: Vec<SaRecord<S>>,
    /// SPI → slab-slot index, under std's keyed hasher; never iterated
    /// but to be sorted (module docs).
    index: HashMap<u32, u32>,
    /// The sweep order ([`Sadb::take_order`]); `None` when an install or
    /// removal has made it stale, or while a sweep holds it.
    order: Option<Vec<(u32, u32)>>,
    /// Reusable slots.
    free: Vec<u32>,
    /// Installed endpoints, both directions ([`Sadb::len`]).
    endpoints: usize,
    /// Due-list of SAVEs that may be owed: `(half, spi, slot)`, one entry
    /// per set queued bit, verified against the record when drained.
    saves: Vec<(Half, u32, u32)>,
    /// The receive drain's working memory (see the module docs).
    scratch: DrainScratch,
    /// The send look-ahead (module docs): keystream computed ahead for
    /// the outbound key of `ahead_owner`, the SPI that sent last.
    ahead: SealAhead,
    ahead_owner: Option<u32>,
}

impl<S> Sadb<S> {
    /// Total number of installed SA endpoints (outbound + inbound; an SA
    /// pair installed in both directions counts twice, matching what
    /// [`Sadb::recover_all`] reports).
    pub fn len(&self) -> usize {
        self.endpoints
    }

    /// True iff no SA is installed in either direction.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

impl<S: StableStore> Sadb<S> {
    /// An empty database.
    pub fn new() -> Self {
        Sadb {
            slots: Vec::new(),
            index: HashMap::new(),
            order: None,
            free: Vec::new(),
            endpoints: 0,
            saves: Vec::new(),
            scratch: DrainScratch::default(),
            ahead: SealAhead::default(),
            ahead_owner: None,
        }
    }

    /// Drops the send look-ahead: the key it was computed under is about
    /// to change hands, or is gone.
    fn drop_ahead(&mut self) {
        // Unowned means empty: installing a fleet overwrites nothing.
        if self.ahead_owner.take().is_some() {
            self.ahead.clear();
        }
    }

    /// Every `(spi, slot)` pair, SPI ascending: the order every sweep
    /// walks. The hashed index has none, so the pairs are sorted here, off
    /// the datapath.
    fn sorted(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> =
            self.index.iter().map(|(&spi, &slot)| (spi, slot)).collect();
        pairs.sort_unstable();
        pairs
    }

    /// [`Sadb::sorted`] for a sweep, which puts it back in `order` when
    /// done: the order is kept from sweep to sweep until an SPI is
    /// installed or removed, so a recovery of a fleet that did not change
    /// sorts nothing.
    fn take_order(&mut self) -> Vec<(u32, u32)> {
        self.order.take().unwrap_or_else(|| self.sorted())
    }

    /// The slot of `spi`'s record, allocating one — off the free-list,
    /// else by growing the slab — if the SPI is new.
    fn slot_for(&mut self, spi: u32) -> usize {
        let slot = *self.index.entry(spi).or_insert_with(|| {
            self.order = None;
            let slot = self.free.pop().unwrap_or_else(|| {
                self.slots.push(SaRecord::vacant());
                (self.slots.len() - 1) as u32
            });
            self.slots[slot as usize].spi = spi;
            slot
        });
        slot as usize
    }

    /// Installs an outbound SA with its persistent store and save
    /// interval. Replaces any previous outbound SA with the same SPI, in
    /// its record; everything else the record holds stays.
    pub fn install_outbound(
        &mut self,
        sa: crate::SecurityAssociation,
        store: S,
        k: u64,
    ) -> &mut Outbound<S> {
        // The only place an outbound key changes: a rekey, a fail-closed
        // replacement and an install over a live SPI all come through here.
        self.drop_ahead();
        let slot = self.slot_for(sa.spi());
        let half = &mut self.slots[slot].outbound;
        self.endpoints += usize::from(half.is_none());
        half.insert(Outbound::new(sa, store, k))
    }

    /// Installs an inbound SA (as [`Sadb::install_outbound`]).
    pub fn install_inbound(
        &mut self,
        sa: crate::SecurityAssociation,
        store: S,
        k: u64,
        w: u64,
    ) -> &mut Inbound<S> {
        let slot = self.slot_for(sa.spi());
        let half = &mut self.slots[slot].inbound;
        self.endpoints += usize::from(half.is_none());
        // The dead-peer state is the SA's, not a generation's: a rekey or
        // a replacement keeps it (the gateway restarts the detector where
        // an install must).
        let dpd = half.take().map(|old| old.dpd).unwrap_or_default();
        let inbound = half.insert(Inbound::new(sa, store, k, w));
        inbound.dpd = dpd;
        inbound
    }

    /// The record serving `spi`, if either direction is installed.
    pub(crate) fn record(&self, spi: u32) -> Option<&SaRecord<S>> {
        let slot = *self.index.get(&spi)?;
        Some(&self.slots[slot as usize])
    }

    /// Mutable form of [`Sadb::record`].
    pub(crate) fn record_mut(&mut self, spi: u32) -> Option<&mut SaRecord<S>> {
        let slot = *self.index.get(&spi)?;
        Some(&mut self.slots[slot as usize])
    }

    /// The record in slab slot `slot`, as a [`Run`] of the last drain
    /// names it — no lookup by SPI.
    pub(crate) fn record_at_mut(&mut self, slot: u32) -> &mut SaRecord<S> {
        &mut self.slots[slot as usize]
    }

    /// Looks up an outbound SA (read-only).
    pub fn outbound(&self, spi: u32) -> Option<&Outbound<S>> {
        self.record(spi)?.outbound()
    }

    /// Looks up an inbound SA (read-only).
    pub fn inbound(&self, spi: u32) -> Option<&Inbound<S>> {
        self.record(spi)?.inbound()
    }

    /// Looks up an outbound SA.
    ///
    /// Note for direct datapath use: a background SAVE issued through
    /// this handle (rather than through [`Sadb::protect`]) is not queued
    /// on the SAVE due-list — nothing observes the handle — and stays
    /// invisible to it until the next send through the database queues
    /// the half. Complete such saves directly on the endpoint.
    pub fn outbound_mut(&mut self, spi: u32) -> Option<&mut Outbound<S>> {
        self.record_mut(spi)?.outbound.as_mut()
    }

    /// Looks up an inbound SA (the caveat on [`Sadb::outbound_mut`]
    /// applies here too, with the next drained run in place of the next
    /// send).
    pub fn inbound_mut(&mut self, spi: u32) -> Option<&mut Inbound<S>> {
        self.record_mut(spi)?.inbound.as_mut()
    }

    /// Removes both directions of `spi` (SA teardown) — the whole record,
    /// policy block included. Returns the removed endpoints — e.g. to
    /// erase their persistent slots, which a correct teardown must do
    /// before the SPI can be reused — or `None` if the SPI was not
    /// installed in either direction. The freed slab slot is reused by a
    /// later install.
    pub fn remove(&mut self, spi: u32) -> Option<RemovedSa<S>> {
        let slot = self.index.remove(&spi)?;
        self.order = None;
        self.drop_ahead();
        self.free.push(slot);
        let vacated = std::mem::replace(&mut self.slots[slot as usize], SaRecord::vacant());
        let (outbound, inbound) = (vacated.outbound, vacated.inbound);
        self.endpoints -= usize::from(outbound.is_some()) + usize::from(inbound.is_some());
        Some(RemovedSa { outbound, inbound })
    }

    /// Protects a payload on the outbound SA `spi`.
    ///
    /// # Errors
    ///
    /// [`IpsecError::UnknownSa`] if no such SA; datapath errors otherwise.
    pub fn protect(&mut self, spi: u32, payload: &[u8]) -> Result<Option<Bytes>, IpsecError> {
        self.protect_on(spi, payload).map(|(wire, ..)| wire)
    }

    /// [`Sadb::protect`], and its implementation, for the gateway: also
    /// returns the sequence number the frame carries and the record it
    /// was sealed on, whose post-send usage the rekey policy reads
    /// without a second lookup.
    pub(crate) fn protect_on(
        &mut self,
        spi: u32,
        payload: &[u8],
    ) -> Result<(Option<Bytes>, SeqNum, &SaRecord<S>), IpsecError> {
        let slot = *self.index.get(&spi).ok_or(IpsecError::UnknownSa { spi })?;
        let record = &mut self.slots[slot as usize];
        let out = record
            .outbound
            .as_mut()
            .ok_or(IpsecError::UnknownSa { spi })?;
        let seq = out.next_seq();
        if self.ahead_owner != Some(spi) {
            self.ahead.clear();
            self.ahead_owner = Some(spi);
        }
        debug_assert_eq!(self.ahead_owner, Some(out.sa().spi()));
        let sealed = out.protect_ahead(payload, &mut self.ahead);
        record.queue_save(Half::Outbound, slot, &mut self.saves);
        Ok((sealed?, seq, record))
    }

    /// Drains a queue of inbound packets, in arrival order, with one
    /// result per packet.
    ///
    /// Packets are dispatched in runs of equal SPI so the SA lookup is
    /// paid per run rather than per packet, and verified and decrypted in
    /// lane groups that cross runs, so a batch of many SAs' frames fills
    /// the crypto lanes too (module docs, "Storage layout"); the
    /// working memory and the decryption arena belong to the database
    /// and are reused from run to run and batch to batch, so a warmed-up
    /// drain allocates its result vector and nothing else. Per-packet
    /// failures — unknown SPI, bad framing, failed authentication — come
    /// back in-line as [`RxResult::Rejected`] instead of aborting the
    /// drain. This is the database's only receive verb: a single frame
    /// is a batch of one.
    ///
    /// Memory caveat: every encrypted payload this call delivers, for
    /// whichever SA, is a slice of the drain's one arena. Retaining any
    /// of them pins that whole buffer and makes the next drain allocate
    /// a fresh one; copy out (`Bytes::copy_from_slice`, one allocation)
    /// what you keep.
    ///
    /// # Errors
    ///
    /// Reserved for non-per-packet infrastructure failures; today all
    /// failures are reported in-line and the call returns `Ok`.
    ///
    /// # Examples
    ///
    /// ```
    /// use reset_ipsec::{Sadb, SaKeys, SecurityAssociation};
    /// use reset_stable::MemStable;
    ///
    /// let mut sadb: Sadb<MemStable> = Sadb::new();
    /// let keys = SaKeys::derive(b"secret", b"pair");
    /// sadb.install_outbound(SecurityAssociation::new(1, keys.clone()), MemStable::new(), 25);
    /// sadb.install_inbound(SecurityAssociation::new(1, keys), MemStable::new(), 25, 64);
    /// let queue: Vec<_> = (0..4)
    ///     .map(|i| sadb.protect(1, format!("pkt {i}").as_bytes()).unwrap().unwrap())
    ///     .collect();
    /// let results = sadb.process_batch(&queue)?;
    /// assert!(results.iter().all(|r| r.is_delivered()));
    /// # Ok::<(), reset_ipsec::IpsecError>(())
    /// ```
    pub fn process_batch(&mut self, wires: &[Bytes]) -> Result<Vec<RxResult>, IpsecError> {
        let mut out = Vec::with_capacity(wires.len());
        self.process_batch_routed(wires.len(), |i| &wires[i], &mut out);
        Ok(out)
    }

    /// Routed form of [`Sadb::process_batch`], and its implementation:
    /// drains the `n` frames `at(0..n)` in that order, appending one
    /// result per frame to `out` (the gateway passes a vector it reuses).
    /// The sharded fan-out passes `|i| &batch[route[i]]` to drain its
    /// share of a *shared* batch without cloning a per-shard `Vec<Bytes>`
    /// first; the slice form passes `|i| &wires[i]`. This is walk (i) of
    /// the drain, resolve then warm (module docs, "Storage layout"); the
    /// rest is `esp::drain`, inside one drain of the database's scratch,
    /// which also keeps the list of runs ([`Sadb::runs_mut`]).
    pub(crate) fn process_batch_routed<'w>(
        &mut self,
        n: usize,
        at: impl Fn(usize) -> &'w Bytes + Copy,
        out: &mut Vec<RxResult>,
    ) {
        self.scratch.begin((0..n).map(|i| at(i).len()).sum());
        // ---- Walk (i), resolve: cut the frames into runs of one SPI and
        // probe the index for every run's slot. No record is read here, so
        // the probes do not wait on each other's misses.
        let mut i = 0;
        while i < n {
            let wire = at(i);
            let mut j = i + 1;
            let (spi, slot) = match reset_wire::peek_spi(wire) {
                Some(spi) => {
                    while j < n && at(j).get(0..4) == Some(&wire[0..4]) {
                        j += 1;
                    }
                    (spi, self.index.get(&spi).copied())
                }
                // A frame too short to name an SPI is a run of its own,
                // reported as SPI 0.
                None => (0, None),
            };
            self.scratch.resolved.push(Run {
                spi,
                slot,
                len: j - i,
            });
            i = j;
        }
        // ---- Walk (i), warm: a slot with no inbound half serves no run;
        // every other run's record is read one word a line, in a loop of
        // its own, so the misses of many records are in flight at once.
        let mut warm = 0;
        self.scratch.runs.clear();
        for run in &mut self.scratch.resolved {
            if let Some(slot) = run.slot {
                match self.slots[slot as usize].inbound() {
                    Some(inbound) => warm ^= inbound.warm(),
                    None => run.slot = None,
                }
            }
            self.scratch.runs.push(*run);
        }
        std::hint::black_box(warm);
        let mut records = Records {
            slots: &mut self.slots,
            saves: &mut self.saves,
        };
        drain(&mut self.scratch, &mut records, at, out);
    }

    /// How the result vector of the last [`Sadb::process_batch_routed`]
    /// or [`Sadb::finish_recover_all`] falls into SPI runs. The gateway
    /// takes the list while it walks it and puts it back, so it is
    /// allocated once.
    pub(crate) fn runs_mut(&mut self) -> &mut Vec<Run> {
        &mut self.scratch.runs
    }

    /// A host-wide reset: every SA loses its volatile counters (and any
    /// in-flight background SAVE with them).
    pub fn reset_all(&mut self) {
        for record in &mut self.slots {
            if let Some(o) = &mut record.outbound {
                o.reset();
            }
            if let Some(i) = &mut record.inbound {
                i.reset();
            }
            record.policy.save_queued = [false; 2];
        }
        self.saves.clear();
        // Volatile state, lost with the rest of it.
        self.drop_ahead();
    }

    /// SAVE/FETCH wake-up of the whole database; returns the number of
    /// SAs recovered (the t5 experiment's cheap path — compare with one
    /// full IKE handshake *per SA* for the IETF remedy).
    ///
    /// # Errors
    ///
    /// First store failure aborts the sweep.
    pub fn recover_all(&mut self) -> Result<usize, StableError> {
        self.in_order(|db, order| {
            let mut n = 0;
            for half in Half::BOTH {
                for &(_, slot) in order {
                    let record = &mut db.slots[slot as usize];
                    if let Some(driver) = record.driver_mut(half) {
                        driver.begin_wakeup()?;
                        record.finish_wakeup(half, &mut db.scratch)?;
                        n += 1;
                    }
                }
            }
            Ok(n)
        })
    }

    /// Runs an SPI-ordered sweep over the kept order ([`Sadb::take_order`])
    /// and keeps it again for the next one.
    fn in_order<R>(&mut self, sweep: impl FnOnce(&mut Self, &[(u32, u32)]) -> R) -> R {
        let order = self.take_order();
        let result = sweep(self, &order);
        self.order = Some(order);
        result
    }

    /// First half of [`Sadb::recover_all`], split for the gateway's timed
    /// drivers: FETCH + leap + issue the synchronous wake-up SAVE on every
    /// SA that is down. Inbound traffic arriving before
    /// [`Sadb::finish_recover_all`] is buffered per SA.
    ///
    /// A FETCH failure — a corrupt record, or a generation rollback
    /// caught by the store witness — does not abort the sweep: the
    /// failing SA direction stays `Down` and is reported in the returned
    /// list, while every healthy SA proceeds with its wake-up. The
    /// [`crate::Gateway`] **fails the reported SAs closed**: no window
    /// leaped from untrusted state is safe, so the SA is replaced rather
    /// than resumed.
    pub(crate) fn begin_recover_all(&mut self) -> Vec<(u32, StableError)> {
        self.in_order(|db, order| {
            let mut failed = Vec::new();
            for half in Half::BOTH {
                for &(spi, slot) in order {
                    let record = &mut db.slots[slot as usize];
                    let down = record.driver_mut(half).filter(|d| d.phase() == Phase::Down);
                    let Some(driver) = down else {
                        continue;
                    };
                    match driver.begin_wakeup() {
                        // The wake-up SAVE is owed until the second half —
                        // or a completion in between — lands it.
                        Ok(_) => record.queue_save(half, slot, &mut db.saves),
                        Err(e) => failed.push((spi, e)),
                    }
                }
            }
            failed
        })
    }

    /// Second half of [`Sadb::recover_all`]: completes the wake-up SAVE
    /// on every waking SA, rebuilds the windows at the leaped edges and
    /// classifies the packets buffered in between. Returns the number of
    /// SA directions recovered. The buffered packets' outcomes — per
    /// inbound SA in SPI order, each SA's in arrival order — are appended
    /// to `out` in the shape of a drain: [`Sadb::runs_mut`] describes
    /// them, one run per SA that had any.
    ///
    /// # Errors
    ///
    /// First store failure aborts the sweep, and the outcomes gathered so
    /// far are dropped with it.
    pub(crate) fn finish_recover_all(
        &mut self,
        out: &mut Vec<RxResult>,
    ) -> Result<usize, StableError> {
        self.scratch.runs.clear();
        let unswept = out.len();
        self.in_order(|db, order| {
            let mut n = 0;
            for half in Half::BOTH {
                for &(spi, slot) in order {
                    let record = &mut db.slots[slot as usize];
                    if record.driver(half).map(SfDriver::phase) != Some(Phase::Waking) {
                        continue;
                    }
                    let buffered = match record.finish_wakeup(half, &mut db.scratch) {
                        Ok(buffered) => buffered,
                        Err(e) => {
                            // The verdicts of the SAs that did wake go with
                            // the failed sweep; a retry reports the rest.
                            out.truncate(unswept);
                            return Err(e);
                        }
                    };
                    // Classifying buffered frames can put a *new*
                    // background SAVE in flight behind the wake-up one.
                    record.queue_save(half, slot, &mut db.saves);
                    if !buffered.is_empty() {
                        let len = buffered.len();
                        let slot = Some(slot);
                        db.scratch.runs.push(Run { spi, slot, len });
                        out.extend(buffered);
                    }
                    n += 1;
                }
            }
            Ok(n)
        })
    }

    /// True iff any SA actually has a background SAVE in flight. Walks
    /// the SAVE due-list, verifying each entry against its record —
    /// O(queued), not O(fleet).
    pub(crate) fn has_pending_save(&self) -> bool {
        self.saves.iter().any(|&(half, spi, slot)| {
            let record = &self.slots[slot as usize];
            record.spi == spi && record.owes_save(half)
        })
    }

    /// Completes every in-flight background SAVE on the due-list
    /// (outbound SPIs ascending, then inbound), dropping entries their
    /// record no longer backs along the way. On a store failure the
    /// failing entry (and everything after it) stays queued so the
    /// completion can be retried.
    pub(crate) fn complete_pending_saves(&mut self) -> Result<(), StableError> {
        self.saves.sort_unstable();
        let mut done = 0;
        let mut result = Ok(());
        for &(half, spi, slot) in &self.saves {
            let record = &mut self.slots[slot as usize];
            // A slot that changed hands answers for its new SPI only,
            // which queues (and sorts) under its own entry.
            if record.spi == spi {
                if record.owes_save(half) {
                    let driver = record.driver_mut(half).expect("owes a SAVE");
                    result = driver.save_completed().map(drop);
                    if result.is_err() {
                        break;
                    }
                }
                record.policy.save_queued[half as usize] = false;
            }
            done += 1;
        }
        self.saves.drain(..done);
        result
    }

    /// Every installed SPI (either direction), ascending — the sweep
    /// order fleet-wide operations (sharded recovery accounting, per-SA
    /// scenario bookkeeping) iterate in.
    pub fn spis(&self) -> Vec<u32> {
        let sorted;
        let order = match &self.order {
            Some(order) => order,
            None => {
                sorted = self.sorted();
                &sorted
            }
        };
        order.iter().map(|&(spi, _)| spi).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esp::RxReject;
    use crate::sa::{span_of, SaKeys, SecurityAssociation};
    use reset_stable::MemStable;

    fn sa(spi: u32) -> SecurityAssociation {
        SecurityAssociation::new(spi, SaKeys::derive(b"secret", &spi.to_be_bytes()))
    }

    /// One frame through the database's only receive verb.
    fn process_one<S: StableStore>(db: &mut Sadb<S>, wire: &Bytes) -> RxResult {
        let mut results = db.process_batch(std::slice::from_ref(wire)).unwrap();
        results.pop().expect("one result per frame")
    }

    fn sadb_with(n: u32) -> Sadb<MemStable> {
        let mut db = Sadb::new();
        for spi in 1..=n {
            db.install_outbound(sa(spi), MemStable::new(), 10);
            db.install_inbound(sa(spi), MemStable::new(), 10, 64);
        }
        db
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn records_stay_small() {
        // A wide fleet's memory is these records (ROADMAP 4(c),
        // `rss_bytes_per_sa`): an SA carries its keys inline and boxes
        // the HMAC schedules an AEAD SA never uses, and each half's
        // SAVE/FETCH driver is a machine over a one-slot saver that
        // counts nothing. The record is the one the benchmark's fleet
        // holds, over a boxed store; `MemStable` puts 48 more bytes in
        // each half.
        let sa = std::mem::size_of::<SecurityAssociation>();
        let driver = std::mem::size_of::<SfDriver<Box<dyn StableStore + Send>>>();
        let record = std::mem::size_of::<SaRecord<Box<dyn StableStore + Send>>>();
        assert!(
            sa <= 160,
            "SecurityAssociation is {sa} B, over 160 (ROADMAP 4(c), rss_bytes_per_sa)"
        );
        assert!(
            driver <= 160,
            "SfDriver is {driver} B, over 160 (ROADMAP 4(c), rss_bytes_per_sa)"
        );
        assert!(
            record <= 736,
            "SaRecord is {record} B, over 736 (ROADMAP 4(c), rss_bytes_per_sa)"
        );
    }

    /// `SfMachine`'s per-message head (`K`, `lst`, role, phase), which
    /// `anti_replay::machine::tests::per_message_fields_lead_the_machine`
    /// pins.
    const MACHINE_RUN: usize = 57;

    /// Bytes from the first to the end of the last of `fields`.
    fn run_of(fields: &[(usize, usize)]) -> usize {
        let start = fields.iter().map(|&(at, _)| at).min().unwrap();
        let end = fields.iter().map(|&(at, len)| at + len).max().unwrap();
        end - start
    }

    /// The longest run each direction may read per frame. A send's is
    /// three lines. A receive's is the floor of this nesting: the SA's
    /// tail (64 B), the dead-peer state (40), the saver (48) and the
    /// machine's head (57). The saver's store handle, slot and witness
    /// (32 B) sit inside it, because the saver is one struct and its
    /// last field is the SAVE in flight.
    const SEND_RUN: usize = 192;
    const RECEIVE_RUN: usize = 209;

    type Boxed = Box<dyn StableStore + Send>;

    /// SPI 1 both ways over boxed stores, the record the benchmark's fleet
    /// holds.
    fn boxed_pair() -> Sadb<Boxed> {
        let mut db: Sadb<Boxed> = Sadb::new();
        db.install_outbound(sa(1), Box::new(MemStable::new()), 10);
        db.install_inbound(sa(1), Box::new(MemStable::new()), 10, 64);
        db
    }

    /// A driver's per-message fields: the saver's tail, which ends in the
    /// SAVE in flight (reset-stable pins that), and the machine's head
    /// right after it.
    fn driver_run(d: &SfDriver<Boxed>) -> [(usize, usize); 2] {
        let (saver, machine) = (span_of(d).0, span_of(d.machine()).0);
        [(saver, machine - saver), (machine, MACHINE_RUN)]
    }

    /// The fields a received frame reads.
    fn receive_fields(inb: &Inbound<Boxed>) -> Vec<(usize, usize)> {
        let mut rx = inb.sa().frame_fields(false);
        rx.push(span_of(&inb.dpd));
        rx.extend(driver_run(inb.seq_state()));
        rx.push(span_of(inb.seq_state().machine().window().unwrap()));
        rx
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn each_directions_frame_fields_are_one_short_run() {
        // ARCHITECTURE.md, "Who owns per-SA state": the fields a frame
        // reads on each direction sit in one run of the record, so a wide
        // fleet misses on few lines per frame. A field added inside a run
        // lengthens it and fails here.
        let db = boxed_pair();
        let record = db.record(1).unwrap();
        let (out, inb) = (record.outbound().unwrap(), record.inbound().unwrap());
        let mut tx = out.sa().frame_fields(true);
        tx.extend(driver_run(out.seq_state()));
        let (tx, rx) = (run_of(&tx), run_of(&receive_fields(inb)));
        assert!(tx <= SEND_RUN, "a send reads a {tx} B run");
        assert!(rx <= RECEIVE_RUN, "a receive reads a {rx} B run");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_warm_pass_reads_every_line_of_the_receive_run() {
        // The drain's warm pass (`Inbound::warm`) loads one field on each
        // 64-byte line of the receive run, so walks (ii) and (iii) find
        // the run in cache. A layout change that lengthens the run or
        // opens a gap of more than a line between two of these fields
        // leaves a line cold for some placement of the record, and fails
        // here. The list mirrors `Inbound::warm`.
        let db = boxed_pair();
        let inb = db.record(1).unwrap().inbound().unwrap();
        let run = receive_fields(inb);
        let start = run.iter().map(|&(at, _)| at).min().unwrap();
        let end = start + run_of(&run);
        let machine = span_of(inb.seq_state().machine()).0;
        let pending = std::mem::size_of::<Option<u64>>();
        let mut reads = inb.sa().warm_fields().to_vec();
        reads.extend([
            span_of(&inb.dpd.deadline),
            span_of(&inb.dpd.detector),
            (machine - pending, pending),
            span_of(inb.seq_state().machine().window().unwrap()),
            // The phase closes the machine's head.
            (machine + MACHINE_RUN - 1, 1),
        ]);
        for &(at, len) in &reads {
            assert!(
                start <= at && at + len <= end,
                "a warm read at {at} is outside the run"
            );
        }
        // The record where it lies (shift 0), and every other placement
        // its alignment allows.
        let align = std::mem::align_of::<SaRecord<Boxed>>();
        for shift in (0..64).step_by(align) {
            let line = |at: usize| (at + shift) / 64;
            for l in line(start)..=line(end - 1) {
                assert!(
                    reads.iter().any(|&(at, _)| line(at) == l),
                    "shifted {shift} B, line {} of the receive run has no warm read",
                    l - line(start)
                );
            }
        }
    }

    #[test]
    fn install_and_count() {
        let mut db = sadb_with(5);
        assert_eq!(db.len(), 10, "5 SAs x 2 directions");
        assert_eq!(db.spis(), vec![1, 2, 3, 4, 5]);
        assert!((1..=5).all(|spi| db.outbound(spi).is_some() && db.inbound(spi).is_some()));
        // Replacing a half in place adds no endpoint; a first half does.
        db.install_outbound(sa(5), MemStable::new(), 10);
        assert_eq!(db.len(), 10);
        db.install_inbound(sa(6), MemStable::new(), 10, 64);
        assert_eq!(db.len(), 11);
        assert!(db.outbound(6).is_none() && db.inbound(6).is_some());
    }

    #[test]
    fn protect_and_process_dispatch_by_spi() {
        let mut db = sadb_with(3);
        let wire = db.protect(2, b"to sa 2").unwrap().unwrap();
        match process_one(&mut db, &wire) {
            RxResult::Delivered { payload, .. } => assert_eq!(&payload[..], b"to sa 2"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_spi_errors() {
        let mut db = sadb_with(1);
        assert!(matches!(
            db.protect(99, b"x"),
            Err(IpsecError::UnknownSa { spi: 99 })
        ));
        let wire = db.protect(1, b"x").unwrap().unwrap();
        let mut foreign = wire.to_vec();
        foreign[3] = 42; // SPI 42 unknown — rejected before any crypto
        assert_eq!(
            process_one(&mut db, &Bytes::from(foreign)),
            RxResult::Rejected(RxReject::UnknownSa { spi: 42 })
        );
    }

    #[test]
    fn a_drain_never_serves_an_spi_without_an_inbound_half() {
        // SPI 9 has a record, but only its outbound half: the warm pass
        // must drop its runs, so every frame naming it is an unknown SA
        // and no run hands the record on to the gateway.
        let mut db = sadb_with(2);
        db.install_outbound(sa(9), MemStable::new(), 10);
        let mut seal = |spi| db.protect(spi, b"x").unwrap().unwrap();
        let batch = [seal(1), seal(9), seal(9), seal(2), seal(9)];
        let results = db.process_batch(&batch).unwrap();
        let unknown = RxResult::Rejected(RxReject::UnknownSa { spi: 9 });
        assert!(results[0].is_delivered() && results[3].is_delivered());
        assert_eq!([&results[1], &results[2], &results[4]], [&unknown; 3]);
        let runs: Vec<_> = db
            .runs_mut()
            .iter()
            .map(|r| (r.spi, r.slot.is_some(), r.len))
            .collect();
        assert_eq!(
            runs,
            [(1, true, 1), (9, false, 2), (2, true, 1), (9, false, 1)]
        );
        assert!(db.inbound(9).is_none());
        assert_eq!(
            db.outbound(9)
                .unwrap()
                .seq_state()
                .machine()
                .next_seq()
                .unwrap()
                .value(),
            4
        );
    }

    #[test]
    fn remove_tears_down_both_directions() {
        let mut db = sadb_with(2);
        assert_eq!(db.len(), 4);
        let removed = db.remove(1).expect("spi 1 installed");
        assert_eq!(removed.outbound.expect("outbound half").sa().spi(), 1);
        assert_eq!(removed.inbound.expect("inbound half").sa().spi(), 1);
        assert!(db.remove(1).is_none(), "second remove is a no-op");
        assert!(db.outbound(1).is_none() && db.inbound(1).is_none());
        assert_eq!(db.spis(), vec![2]);
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert!(db.protect(1, b"x").is_err());
    }

    #[test]
    fn freed_slots_are_reused_and_churn_keeps_spi_order() {
        let mut db = sadb_with(4);
        let slots_before = db.slots.len();
        db.remove(2);
        db.remove(3);
        // Two new SPIs must reuse the two freed slots, not grow the slab.
        db.install_outbound(sa(100), MemStable::new(), 10);
        db.install_inbound(sa(100), MemStable::new(), 10, 64);
        db.install_outbound(sa(50), MemStable::new(), 10);
        db.install_inbound(sa(50), MemStable::new(), 10, 64);
        assert_eq!(db.slots.len(), slots_before, "slab did not grow");
        assert!(db.free.is_empty(), "both free slots consumed");
        // The deterministic index still sweeps in SPI order.
        assert_eq!(db.spis(), vec![1, 4, 50, 100]);
        assert_eq!(db.len(), 8);
        // And the datapath routes to the right endpoints after churn.
        let wire = db.protect(50, b"to fifty").unwrap().unwrap();
        match process_one(&mut db, &wire) {
            RxResult::Delivered { payload, .. } => assert_eq!(&payload[..], b"to fifty"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pending_save_index_tracks_background_saves() {
        let mut db = sadb_with(2);
        assert!(!db.has_pending_save());
        // K=10: the 10th packet puts a background save in flight on
        // both the sender and (after processing) the receiver.
        for _ in 0..10 {
            let w = db.protect(1, b"data").unwrap().unwrap();
            process_one(&mut db, &w);
        }
        assert!(db.has_pending_save());
        let queued: Vec<(Half, u32)> = db.saves.iter().map(|&(half, spi, _)| (half, spi)).collect();
        assert_eq!(queued, [(Half::Outbound, 1), (Half::Inbound, 1)]);
        // Another K packets issue another SAVE each way; the halves are
        // queued already, so the list does not grow.
        for _ in 0..10 {
            let w = db.protect(1, b"data").unwrap().unwrap();
            process_one(&mut db, &w);
        }
        assert_eq!(db.saves.len(), 2, "one entry per half, not per SAVE");
        db.complete_pending_saves().unwrap();
        assert!(!db.has_pending_save());
        assert!(db.saves.is_empty());

        // Completing a save directly on the endpoint (the documented
        // escape hatch) leaves a stale index entry — a false positive
        // the next sweep verifies away without touching the store.
        for _ in 0..10 {
            db.protect(2, b"data").unwrap().unwrap();
        }
        assert!(db.has_pending_save());
        db.outbound_mut(2).unwrap().save_completed().unwrap();
        assert!(
            !db.has_pending_save(),
            "entries are verified, never trusted"
        );
        db.complete_pending_saves().unwrap();
        assert!(db.saves.is_empty());

        // An entry outlives its SA harmlessly: the slot's next owner is
        // not mistaken for it, and queues for itself.
        for _ in 0..10 {
            db.protect(2, b"data").unwrap().unwrap();
        }
        db.remove(2);
        assert!(!db.has_pending_save(), "the SA took its SAVE with it");
        db.install_outbound(sa(9), MemStable::new(), 10);
        for _ in 0..10 {
            db.protect(9, b"data").unwrap().unwrap();
        }
        assert_eq!(db.saves.len(), 2, "stale entry + the new owner's own");
        assert_eq!(db.saves[0].2, db.saves[1].2, "same slot, reused");
        db.complete_pending_saves().unwrap();
        assert!(db.saves.is_empty());
        assert!(db.outbound(9).unwrap().seq_state().pending_save().is_none());
    }

    #[test]
    fn send_look_ahead_is_dropped_wherever_its_key_can_change() {
        // Each arm is one line of the invalidation list in the module
        // docs. The last two cannot be seen on the wire — a removed SPI
        // must be reinstalled before it sends, and a reset keeps the key
        // — so they are pinned here, on the look-ahead itself.
        if crate::Backend::select().lanes() == 1 {
            return; // the scalar pair computes nothing ahead
        }
        let empty = format!("{:?}", SealAhead::default());
        let mut db = sadb_with(3);
        let fill = |db: &mut Sadb<MemStable>, spi: u32| {
            for _ in 0..2 {
                db.protect(spi, &[7; 64]).unwrap().unwrap();
            }
            assert_eq!(db.ahead_owner, Some(spi));
            assert_ne!(
                format!("{:?}", db.ahead),
                empty,
                "the second 64 B send of a run fills its spare lanes"
            );
        };
        let assert_dropped = |db: &Sadb<MemStable>, after: &str| {
            assert_eq!(db.ahead_owner, None, "{after}");
            assert_eq!(format!("{:?}", db.ahead), empty, "{after}");
        };
        fill(&mut db, 1);
        fill(&mut db, 2); // another SPI sends: it owns what is cached now
        db.install_outbound(sa(2), MemStable::new(), 10);
        assert_dropped(&db, "an outbound half replaced");
        fill(&mut db, 2);
        db.install_outbound(sa(7), MemStable::new(), 10);
        assert_dropped(&db, "an outbound half installed");
        fill(&mut db, 1);
        db.remove(3);
        assert_dropped(&db, "a record removed");
        fill(&mut db, 1);
        db.reset_all();
        assert_dropped(&db, "a host reset");
        // What does not touch an outbound key leaves it alone.
        db.recover_all().unwrap();
        fill(&mut db, 1);
        db.install_inbound(sa(8), MemStable::new(), 10, 64);
        assert!(db.remove(99).is_none());
        assert_eq!(db.ahead_owner, Some(1));
    }

    #[test]
    fn gateway_reboot_recover_all() {
        let mut db = sadb_with(10);
        // Traffic on every SA; saves made durable.
        for spi in 1..=10u32 {
            for _ in 0..15 {
                let w = db.protect(spi, b"data").unwrap().unwrap();
                process_one(&mut db, &w);
            }
            db.outbound_mut(spi).unwrap().save_completed().unwrap();
            db.inbound_mut(spi).unwrap().save_completed().unwrap();
        }
        db.reset_all();
        // Every SA is down.
        assert!(db.protect(3, b"x").unwrap().is_none());
        let recovered = db.recover_all().unwrap();
        assert_eq!(recovered, 20, "10 SAs × 2 directions");
        // Traffic flows again on all SAs; old replays bounce.
        for spi in 1..=10u32 {
            let w = db.protect(spi, b"fresh").unwrap().unwrap();
            // Sender leaped above receiver edge: delivered or (for the
            // sacrificed ≤2K range) rejected — never an error. Drive a
            // few packets to cross the leap.
            let mut delivered = false;
            let mut wire = w;
            for _ in 0..25 {
                if process_one(&mut db, &wire).is_delivered() {
                    delivered = true;
                    break;
                }
                wire = db.protect(spi, b"fresh").unwrap().unwrap();
            }
            assert!(delivered, "spi {spi} never resumed");
        }
    }

    #[test]
    fn process_batch_dispatches_runs_and_reports_unknown_spis() {
        let mut db = sadb_with(3);
        // Interleaved SPI runs + one unknown SPI + one runt packet.
        let mut queue: Vec<Bytes> = Vec::new();
        for _ in 0..4 {
            queue.push(db.protect(1, b"one").unwrap().unwrap());
        }
        for _ in 0..3 {
            queue.push(db.protect(2, b"two").unwrap().unwrap());
        }
        let mut foreign = db.protect(3, b"three").unwrap().unwrap().to_vec();
        foreign[3] = 99; // SPI 99 unknown
        queue.push(Bytes::from(foreign));
        queue.push(Bytes::copy_from_slice(&[0xAB; 2])); // runt
        for _ in 0..2 {
            queue.push(db.protect(1, b"one again").unwrap().unwrap());
        }

        let results = db.process_batch(&queue).unwrap();
        assert_eq!(results.len(), queue.len());
        assert!(results[..7].iter().all(|r| r.is_delivered()));
        assert!(matches!(
            results[7],
            RxResult::Rejected(RxReject::UnknownSa { spi: 99 })
        ));
        assert!(matches!(results[8], RxResult::Rejected(RxReject::Wire(_))));
        assert!(results[9..].iter().all(|r| r.is_delivered()));
    }

    #[test]
    fn process_batch_agrees_with_process() {
        // Partition invariance: frame-at-a-time, batches of seven and the
        // whole queue at once must classify identically.
        let mut tx = sadb_with(4);
        let mut queue: Vec<Bytes> = Vec::new();
        for round in 0..10u32 {
            for spi in 1..=4u32 {
                queue.push(
                    tx.protect(spi, format!("r{round} s{spi}").as_bytes())
                        .unwrap()
                        .unwrap(),
                );
            }
        }
        // Duplicate a slice of the queue: replays.
        queue.extend(queue[5..15].to_vec());
        let whole = sadb_with(4).process_batch(&queue).unwrap();
        assert_eq!(whole.iter().filter(|r| r.is_delivered()).count(), 40);
        for chunk in [1, 7] {
            let mut db = sadb_with(4);
            let cut: Vec<RxResult> = queue
                .chunks(chunk)
                .flat_map(|c| db.process_batch(c).unwrap())
                .collect();
            assert_eq!(cut, whole, "chunk {chunk}");
        }
    }

    #[test]
    fn process_batch_routed_agrees_with_contiguous_batch() {
        let mut db_routed = sadb_with(4);
        let mut db_contig = sadb_with(4);
        let mut batch: Vec<Bytes> = Vec::new();
        for round in 0..8u32 {
            for spi in 1..=4u32 {
                let payload = format!("r{round} s{spi}");
                batch.push(db_routed.protect(spi, payload.as_bytes()).unwrap().unwrap());
                // Keep db_contig's outbound counters identical so both
                // receivers face byte-identical wires.
                db_contig.protect(spi, payload.as_bytes()).unwrap();
            }
        }
        let mut foreign = batch[0].to_vec();
        foreign[3] = 99;
        batch.push(Bytes::from(foreign)); // unknown SPI
        batch.push(Bytes::copy_from_slice(&[0xCD; 3])); // runt
                                                        // A shard's view: every other frame, arrival order preserved.
        let route: Vec<u32> = (0..batch.len() as u32).filter(|i| i % 2 == 0).collect();
        let gathered: Vec<Bytes> = route.iter().map(|&i| batch[i as usize].clone()).collect();
        let mut routed = Vec::new();
        db_routed.process_batch_routed(route.len(), |i| &batch[route[i] as usize], &mut routed);
        let contig = db_contig.process_batch(&gathered).unwrap();
        assert_eq!(routed.len(), route.len());
        assert_eq!(routed, contig);
        assert!(routed.iter().any(|r| r.is_delivered()));
    }

    #[test]
    fn spis_unions_both_directions_sorted_deduped() {
        let mut db: Sadb<MemStable> = Sadb::new();
        db.install_outbound(sa(9), MemStable::new(), 10);
        db.install_outbound(sa(3), MemStable::new(), 10);
        db.install_inbound(sa(3), MemStable::new(), 10, 64);
        db.install_inbound(sa(7), MemStable::new(), 10, 64);
        assert_eq!(db.spis(), vec![3, 7, 9]);
        assert!(Sadb::<MemStable>::new().spis().is_empty());
    }

    #[test]
    fn begin_recover_collects_failures_and_wakes_the_rest() {
        use reset_stable::{Fault, FaultyStable};
        let mut db: Sadb<FaultyStable<MemStable>> = Sadb::new();
        for spi in 1..=3u32 {
            db.install_outbound(sa(spi), FaultyStable::new(MemStable::new()), 10);
            db.install_inbound(sa(spi), FaultyStable::new(MemStable::new()), 10, 64);
        }
        for spi in 1..=3u32 {
            for _ in 0..15 {
                let w = db.protect(spi, b"data").unwrap().unwrap();
                process_one(&mut db, &w);
            }
            db.outbound_mut(spi).unwrap().save_completed().unwrap();
            db.inbound_mut(spi).unwrap().save_completed().unwrap();
        }
        db.reset_all();
        // SA 2's inbound FETCH will come back corrupt.
        db.inbound_mut(2)
            .unwrap()
            .store_mut()
            .push_fault(Fault::CorruptLoad);
        let failed = db.begin_recover_all();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!(failed[0].0, 2);
        // The sweep did not abort: the other five directions woke.
        let recovered = db.finish_recover_all(&mut Vec::new()).unwrap();
        assert_eq!(recovered, 5, "3 outbound + 2 healthy inbound");
        assert_eq!(db.inbound(2).unwrap().phase(), Phase::Down);
    }

    #[test]
    fn split_recovery_matches_atomic_recover_all() {
        let mut db = sadb_with(4);
        for spi in 1..=4u32 {
            for _ in 0..15 {
                let w = db.protect(spi, b"data").unwrap().unwrap();
                process_one(&mut db, &w);
            }
            db.outbound_mut(spi).unwrap().save_completed().unwrap();
            db.inbound_mut(spi).unwrap().save_completed().unwrap();
        }
        db.reset_all();
        assert!(db.begin_recover_all().is_empty(), "healthy stores");
        // A packet arriving mid-recovery is buffered, then classified.
        let w = {
            let mut other = sadb_with(4);
            for _ in 0..40 {
                other.protect(2, b"ahead").unwrap();
            }
            other.protect(2, b"fresh").unwrap().unwrap()
        };
        assert_eq!(process_one(&mut db, &w), RxResult::Buffered);
        let mut buffered = Vec::new();
        let recovered = db.finish_recover_all(&mut buffered).unwrap();
        assert_eq!(recovered, 8, "4 SAs x 2 directions");
        assert_eq!(buffered.len(), 1);
        assert!(buffered[0].is_delivered(), "{buffered:?}");
        let runs: Vec<(u32, usize)> = db.runs_mut().iter().map(|r| (r.spi, r.len)).collect();
        assert_eq!(runs, [(2, 1)], "one run, for the SA that buffered");
    }
}
