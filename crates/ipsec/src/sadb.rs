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
//! Endpoints live in slab vectors (`Vec<Option<...>>`, one per
//! direction, with free-lists for slot reuse), so the hot
//! [`Sadb::process_batch`] drain walks cache-dense contiguous storage
//! instead of chasing tree nodes. A `BTreeMap<spi, slot>` per direction
//! is kept purely as the *deterministic index*: every SPI-ordered sweep
//! — [`Sadb::recover_all`], [`Sadb::iter_outbound`], the wake-up event
//! order a [`crate::Gateway`] reports — walks the index, which the
//! seeded harness scenarios rely on.
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
//! # The pending-save index
//!
//! Alongside the slabs, the database maintains one ordered due-set per
//! direction of SPIs that *may* have a background SAVE in flight. Every
//! datapath entry point records the no-save → save-pending transition
//! into it, so [`crate::Gateway::save_completed`] completes in time
//! proportional to the SAs that actually owe a save instead of sweeping
//! a million-entry fleet. The set is a superset (entries are verified
//! against the endpoint before completing, and false positives are
//! dropped), which keeps the maintenance a single capture around each
//! mutation instead of a bookkeeping protocol.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use reset_stable::{StableError, StableStore};

use anti_replay::{Phase, SeqNum};

use crate::esp::{DrainScratch, Inbound, Outbound, RxReject, RxResult};
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

/// The SA database of one host.
///
/// Endpoint storage is slab-based with a `BTreeMap` SPI index per
/// direction (see the [crate docs](crate)): lookups and iteration are
/// SPI-deterministic, while the endpoints themselves sit in contiguous
/// vectors for cache-dense batch drains. The database also owns the
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
/// assert_eq!(sadb.outbound_count(), 1);
/// let wire = sadb.protect(1, b"data")?.expect("up");
/// # Ok::<(), reset_ipsec::IpsecError>(())
/// ```
#[derive(Debug, Default)]
pub struct Sadb<S> {
    /// Outbound endpoints, slab order (holes are free slots).
    out_slots: Vec<Option<Outbound<S>>>,
    /// Inbound endpoints, slab order.
    in_slots: Vec<Option<Inbound<S>>>,
    /// Deterministic SPI → slab-slot index, outbound.
    out_index: BTreeMap<u32, u32>,
    /// Deterministic SPI → slab-slot index, inbound.
    in_index: BTreeMap<u32, u32>,
    /// Reusable outbound slots.
    out_free: Vec<u32>,
    /// Reusable inbound slots.
    in_free: Vec<u32>,
    /// SPIs whose outbound endpoint may owe a background SAVE.
    saves_out: BTreeSet<u32>,
    /// SPIs whose inbound endpoint may owe a background SAVE.
    saves_in: BTreeSet<u32>,
    /// True when a fleet-wide recovery sweep left the save index out of
    /// date (wake-up SAVEs issued or completed in bulk). Consumers
    /// rebuild via [`Sadb::resync_saves`] before trusting the sets —
    /// deferring the rebuild keeps the recover-storm loop free of
    /// per-SA index maintenance it would immediately throw away.
    saves_stale: bool,
    /// The receive drain's working memory (see the module docs).
    scratch: DrainScratch,
}

impl<S> Sadb<S> {
    /// Total number of installed SA endpoints (outbound + inbound; an SA
    /// pair installed in both directions counts twice, matching what
    /// [`Sadb::recover_all`] reports).
    pub fn len(&self) -> usize {
        self.out_index.len() + self.in_index.len()
    }

    /// True iff no SA is installed in either direction.
    pub fn is_empty(&self) -> bool {
        self.out_index.is_empty() && self.in_index.is_empty()
    }
}

impl<S: StableStore> Sadb<S> {
    /// An empty database.
    pub fn new() -> Self {
        Sadb {
            out_slots: Vec::new(),
            in_slots: Vec::new(),
            out_index: BTreeMap::new(),
            in_index: BTreeMap::new(),
            out_free: Vec::new(),
            in_free: Vec::new(),
            saves_out: BTreeSet::new(),
            saves_in: BTreeSet::new(),
            saves_stale: false,
            scratch: DrainScratch::default(),
        }
    }

    /// Installs an outbound SA with its persistent store and save
    /// interval. Replaces any previous SA with the same SPI (reusing its
    /// slab slot).
    pub fn install_outbound(
        &mut self,
        sa: crate::SecurityAssociation,
        store: S,
        k: u64,
    ) -> &mut Outbound<S> {
        let spi = sa.spi();
        let ep = Outbound::new(sa, store, k);
        // A fresh endpoint owes no save; drop any stale index entry
        // from a replaced predecessor.
        self.saves_out.remove(&spi);
        let slot = match self.out_index.get(&spi).copied() {
            Some(slot) => {
                self.out_slots[slot as usize] = Some(ep);
                slot
            }
            None => {
                let slot = match self.out_free.pop() {
                    Some(slot) => {
                        self.out_slots[slot as usize] = Some(ep);
                        slot
                    }
                    None => {
                        self.out_slots.push(Some(ep));
                        (self.out_slots.len() - 1) as u32
                    }
                };
                self.out_index.insert(spi, slot);
                slot
            }
        };
        self.out_slots[slot as usize]
            .as_mut()
            .expect("just installed")
    }

    /// Installs an inbound SA.
    pub fn install_inbound(
        &mut self,
        sa: crate::SecurityAssociation,
        store: S,
        k: u64,
        w: u64,
    ) -> &mut Inbound<S> {
        let spi = sa.spi();
        let ep = Inbound::new(sa, store, k, w);
        self.saves_in.remove(&spi);
        let slot = match self.in_index.get(&spi).copied() {
            Some(slot) => {
                self.in_slots[slot as usize] = Some(ep);
                slot
            }
            None => {
                let slot = match self.in_free.pop() {
                    Some(slot) => {
                        self.in_slots[slot as usize] = Some(ep);
                        slot
                    }
                    None => {
                        self.in_slots.push(Some(ep));
                        (self.in_slots.len() - 1) as u32
                    }
                };
                self.in_index.insert(spi, slot);
                slot
            }
        };
        self.in_slots[slot as usize]
            .as_mut()
            .expect("just installed")
    }

    /// Number of outbound SAs.
    pub fn outbound_count(&self) -> usize {
        self.out_index.len()
    }

    /// Number of inbound SAs.
    pub fn inbound_count(&self) -> usize {
        self.in_index.len()
    }

    /// Looks up an outbound SA (read-only).
    pub fn outbound(&self, spi: u32) -> Option<&Outbound<S>> {
        let slot = self.out_index.get(&spi).copied()?;
        self.out_slots[slot as usize].as_ref()
    }

    /// Looks up an inbound SA (read-only).
    pub fn inbound(&self, spi: u32) -> Option<&Inbound<S>> {
        let slot = self.in_index.get(&spi).copied()?;
        self.in_slots[slot as usize].as_ref()
    }

    /// Looks up an outbound SA.
    ///
    /// Note for direct datapath use: a background SAVE issued through
    /// this handle (rather than through [`Sadb::protect`]) is invisible
    /// to the pending-save index until the next indexed operation on
    /// the SPI — complete such saves directly on the endpoint.
    pub fn outbound_mut(&mut self, spi: u32) -> Option<&mut Outbound<S>> {
        let slot = self.out_index.get(&spi).copied()?;
        self.out_slots[slot as usize].as_mut()
    }

    /// Looks up an inbound SA (the caveat on [`Sadb::outbound_mut`]
    /// applies here too).
    pub fn inbound_mut(&mut self, spi: u32) -> Option<&mut Inbound<S>> {
        let slot = self.in_index.get(&spi).copied()?;
        self.in_slots[slot as usize].as_mut()
    }

    /// Iterates over outbound endpoints in SPI order.
    pub fn iter_outbound(&self) -> impl Iterator<Item = (u32, &Outbound<S>)> {
        self.out_index.iter().map(|(&spi, &slot)| {
            (
                spi,
                self.out_slots[slot as usize].as_ref().expect("indexed"),
            )
        })
    }

    /// Iterates over inbound endpoints in SPI order.
    pub fn iter_inbound(&self) -> impl Iterator<Item = (u32, &Inbound<S>)> {
        self.in_index
            .iter()
            .map(|(&spi, &slot)| (spi, self.in_slots[slot as usize].as_ref().expect("indexed")))
    }

    /// Mutably iterates over outbound endpoints in SPI order (save
    /// completion sweeps, fault injection). Collects the references up
    /// front, so it is a cold-path tool, not a drain loop.
    pub fn iter_outbound_mut(&mut self) -> impl Iterator<Item = (u32, &mut Outbound<S>)> {
        let mut refs: Vec<(u32, &mut Outbound<S>)> = self
            .out_slots
            .iter_mut()
            .filter_map(|s| s.as_mut())
            .map(|o| (o.sa().spi(), o))
            .collect();
        refs.sort_unstable_by_key(|(spi, _)| *spi);
        refs.into_iter()
    }

    /// Mutably iterates over inbound endpoints in SPI order.
    pub fn iter_inbound_mut(&mut self) -> impl Iterator<Item = (u32, &mut Inbound<S>)> {
        let mut refs: Vec<(u32, &mut Inbound<S>)> = self
            .in_slots
            .iter_mut()
            .filter_map(|s| s.as_mut())
            .map(|i| (i.sa().spi(), i))
            .collect();
        refs.sort_unstable_by_key(|(spi, _)| *spi);
        refs.into_iter()
    }

    /// Removes both directions of `spi` (SA teardown). Returns the
    /// removed endpoints — e.g. to erase their persistent slots, which a
    /// correct teardown must do before the SPI can be reused — or `None`
    /// if the SPI was not installed in either direction. Freed slab
    /// slots are reused by later installs.
    pub fn remove(&mut self, spi: u32) -> Option<RemovedSa<S>> {
        let outbound = self.out_index.remove(&spi).map(|slot| {
            self.out_free.push(slot);
            self.out_slots[slot as usize].take().expect("indexed")
        });
        let inbound = self.in_index.remove(&spi).map(|slot| {
            self.in_free.push(slot);
            self.in_slots[slot as usize].take().expect("indexed")
        });
        if outbound.is_none() && inbound.is_none() {
            return None;
        }
        self.saves_out.remove(&spi);
        self.saves_in.remove(&spi);
        Some(RemovedSa { outbound, inbound })
    }

    /// Protects a payload on the outbound SA `spi`.
    ///
    /// # Errors
    ///
    /// [`IpsecError::UnknownSa`] if no such SA; datapath errors otherwise.
    pub fn protect(&mut self, spi: u32, payload: &[u8]) -> Result<Option<Bytes>, IpsecError> {
        let slot = self
            .out_index
            .get(&spi)
            .copied()
            .ok_or(IpsecError::UnknownSa { spi })?;
        let out = self.out_slots[slot as usize].as_mut().expect("indexed");
        let was_pending = out.seq_state().pending_save().is_some();
        let res = out.protect(payload);
        let now_pending = out.seq_state().pending_save().is_some();
        if now_pending && !was_pending {
            self.saves_out.insert(spi);
        }
        res
    }

    /// Drains a queue of inbound packets, in arrival order, with one
    /// result per packet.
    ///
    /// Packets are dispatched in runs of equal SPI so the SA lookup (and
    /// the run's batched verify and decrypt inside the drain body) is
    /// amortized across each run rather than paid per packet; the
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
    /// a fresh one; copy out (`Bytes::copy_from_slice`) what you keep.
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
    /// first; the slice form passes `|i| &wires[i]`. Runs of equal SPI
    /// are detected over that view and handed to the SA's drain body,
    /// all inside one drain of the database's scratch.
    pub(crate) fn process_batch_routed<'w>(
        &mut self,
        n: usize,
        at: impl Fn(usize) -> &'w Bytes + Copy,
        out: &mut Vec<RxResult>,
    ) {
        self.scratch.begin((0..n).map(|i| at(i).len()).sum());
        let mut i = 0;
        while i < n {
            let wire = at(i);
            let Some(spi) = reset_wire::peek_spi(wire) else {
                out.push(RxResult::Rejected(RxReject::Wire(
                    reset_wire::WireError::Truncated {
                        needed: 4,
                        got: wire.len(),
                    },
                )));
                i += 1;
                continue;
            };
            // Extend the run of consecutive packets for the same SA.
            let mut j = i + 1;
            while j < n && at(j).get(0..4) == Some(&wire[0..4]) {
                j += 1;
            }
            match self.in_index.get(&spi).copied() {
                Some(slot) => {
                    let inbound = self.in_slots[slot as usize].as_mut().expect("indexed");
                    let was_pending = inbound.seq_state().pending_save().is_some();
                    inbound.drain_run(&mut self.scratch, (i..j).map(at), out);
                    let now_pending = inbound.seq_state().pending_save().is_some();
                    if now_pending && !was_pending {
                        self.saves_in.insert(spi);
                    }
                }
                None => {
                    out.extend((i..j).map(|_| RxResult::Rejected(RxReject::UnknownSa { spi })));
                }
            }
            i = j;
        }
        self.scratch.finish(out);
    }

    /// A host-wide reset: every SA loses its volatile counters (and any
    /// in-flight background SAVE with them).
    pub fn reset_all(&mut self) {
        for o in self.out_slots.iter_mut().flatten() {
            o.reset();
        }
        for i in self.in_slots.iter_mut().flatten() {
            i.reset();
        }
        self.saves_out.clear();
        self.saves_in.clear();
        self.saves_stale = false;
    }

    /// SAVE/FETCH wake-up of the whole database; returns the number of
    /// SAs recovered (the t5 experiment's cheap path — compare with one
    /// full IKE handshake *per SA* for the IETF remedy).
    ///
    /// # Errors
    ///
    /// First store failure aborts the sweep.
    pub fn recover_all(&mut self) -> Result<usize, StableError> {
        let res = self.recover_all_sweep();
        self.saves_stale = true;
        res
    }

    fn recover_all_sweep(&mut self) -> Result<usize, StableError> {
        let mut n = 0;
        for &slot in self.out_index.values() {
            let o = self.out_slots[slot as usize].as_mut().expect("indexed");
            o.wake_up()?;
            n += 1;
        }
        for &slot in self.in_index.values() {
            let i = self.in_slots[slot as usize].as_mut().expect("indexed");
            i.wake_up()?;
            n += 1;
        }
        Ok(n)
    }

    /// First half of [`Sadb::recover_all`] for timed drivers: FETCH +
    /// leap + issue the synchronous wake-up SAVE on every SA that is
    /// down. Inbound traffic arriving before
    /// [`Sadb::finish_recover_all`] is buffered per SA.
    ///
    /// A FETCH failure — a corrupt record, or a generation rollback
    /// caught by the store witness — no longer aborts the sweep: the
    /// failing SA direction stays `Down` and is reported in the returned
    /// list, while every healthy SA proceeds with its wake-up. The layer
    /// above ([`crate::Gateway`]) **fails the reported SAs closed**:
    /// no window leaped from untrusted state is safe, so the SA is
    /// replaced rather than resumed.
    pub fn begin_recover_all(&mut self) -> Vec<(u32, StableError)> {
        let mut failed = Vec::new();
        for (&spi, &slot) in self.out_index.iter() {
            let o = self.out_slots[slot as usize].as_mut().expect("indexed");
            if o.phase() == Phase::Down {
                if let Err(e) = o.begin_wakeup() {
                    failed.push((spi, e));
                }
            }
        }
        for (&spi, &slot) in self.in_index.iter() {
            let i = self.in_slots[slot as usize].as_mut().expect("indexed");
            if i.phase() == Phase::Down {
                if let Err(e) = i.begin_wakeup() {
                    failed.push((spi, e));
                }
            }
        }
        // The wake-up SAVEs issued above are pending until
        // `finish_recover_all`; consumers resync before trusting the
        // index.
        self.saves_stale = true;
        failed
    }

    /// Second half of [`Sadb::recover_all`]: completes the wake-up SAVE
    /// on every waking SA, rebuilds the windows at the leaped edges and
    /// classifies the packets buffered in between. Returns the number of
    /// SA directions recovered and, per inbound SA in SPI order, the
    /// buffered packets' outcomes in arrival order.
    ///
    /// # Errors
    ///
    /// First store failure aborts the sweep.
    #[allow(clippy::type_complexity)]
    pub fn finish_recover_all(&mut self) -> Result<(usize, Vec<(u32, RxResult)>), StableError> {
        let res = self.finish_recover_all_sweep();
        // The wake-up SAVEs are done, but classifying buffered frames
        // can put *new* background SAVEs in flight — the deferred
        // rebuild picks those up.
        self.saves_stale = true;
        res
    }

    fn finish_recover_all_sweep(&mut self) -> Result<(usize, Vec<(u32, RxResult)>), StableError> {
        let mut n = 0;
        for &slot in self.out_index.values() {
            let o = self.out_slots[slot as usize].as_mut().expect("indexed");
            if o.phase() == Phase::Waking {
                o.finish_wakeup()?;
                n += 1;
            }
        }
        let mut buffered = Vec::new();
        for (&spi, &slot) in self.in_index.iter() {
            let i = self.in_slots[slot as usize].as_mut().expect("indexed");
            if i.phase() == Phase::Waking {
                let outcomes = i.finish_wakeup_with(&mut self.scratch)?;
                buffered.extend(outcomes.into_iter().map(|r| (spi, r)));
                n += 1;
            }
        }
        Ok((n, buffered))
    }

    /// Rebuilds the pending-save index from the endpoints' own state —
    /// the bulk form of the per-endpoint transition tracking, for the
    /// fleet-wide recovery sweeps where per-SPI set surgery would pay a
    /// tree rebalance per SA (measured ~40% on a 256-SA recover storm).
    /// Index iteration yields SPIs in ascending order, so the collect
    /// takes `BTreeSet`'s O(n) sorted bulk-build path, and the rebuild
    /// is exact: a superset of the truly pending endpoints with no
    /// stale carry-over.
    fn resync_saves(&mut self) {
        let slots = &self.out_slots;
        self.saves_out = self
            .out_index
            .iter()
            .filter(|&(_, &slot)| {
                slots[slot as usize]
                    .as_ref()
                    .expect("indexed")
                    .seq_state()
                    .pending_save()
                    .is_some()
            })
            .map(|(&spi, _)| spi)
            .collect();
        let slots = &self.in_slots;
        self.saves_in = self
            .in_index
            .iter()
            .filter(|&(_, &slot)| {
                slots[slot as usize]
                    .as_ref()
                    .expect("indexed")
                    .seq_state()
                    .pending_save()
                    .is_some()
            })
            .map(|(&spi, _)| spi)
            .collect();
    }

    /// Marks `spi`'s outbound endpoint as possibly owing a background
    /// SAVE — for callers (the gateway's `protect`) that drive the
    /// endpoint through [`Sadb::outbound_mut`] and observe the
    /// no-save → save-pending transition themselves.
    pub(crate) fn note_outbound_save(&mut self, spi: u32) {
        self.saves_out.insert(spi);
    }

    /// True iff any SA actually has a background SAVE in flight. Walks
    /// the pending-save index (a superset), verifying each candidate
    /// against its endpoint — O(pending), not O(fleet).
    pub(crate) fn has_pending_save(&self) -> bool {
        if self.saves_stale {
            // A recovery sweep invalidated the index; answer from the
            // endpoints directly (`&self` can't rebuild the sets).
            return self
                .out_slots
                .iter()
                .flatten()
                .any(|o| o.seq_state().pending_save().is_some())
                || self
                    .in_slots
                    .iter()
                    .flatten()
                    .any(|i| i.seq_state().pending_save().is_some());
        }
        self.saves_out.iter().any(
            |&spi| matches!(self.outbound(spi), Some(o) if o.seq_state().pending_save().is_some()),
        ) || self.saves_in.iter().any(
            |&spi| matches!(self.inbound(spi), Some(i) if i.seq_state().pending_save().is_some()),
        )
    }

    /// Completes every in-flight background SAVE (outbound SPIs
    /// ascending, then inbound), dropping verified-stale index entries
    /// along the way. On a store failure the failing SPI (and everything
    /// after it) stays indexed so the completion can be retried.
    pub(crate) fn complete_pending_saves(&mut self) -> Result<(), StableError> {
        if self.saves_stale {
            self.resync_saves();
            self.saves_stale = false;
        }
        while let Some(&spi) = self.saves_out.iter().next() {
            let slot = self.out_index.get(&spi).copied();
            if let Some(slot) = slot {
                let o = self.out_slots[slot as usize].as_mut().expect("indexed");
                if o.seq_state().pending_save().is_some() {
                    o.save_completed()?;
                }
            }
            self.saves_out.remove(&spi);
        }
        while let Some(&spi) = self.saves_in.iter().next() {
            let slot = self.in_index.get(&spi).copied();
            if let Some(slot) = slot {
                let i = self.in_slots[slot as usize].as_mut().expect("indexed");
                if i.seq_state().pending_save().is_some() {
                    i.save_completed()?;
                }
            }
            self.saves_in.remove(&spi);
        }
        Ok(())
    }

    /// Every installed SPI (either direction), ascending and deduplicated
    /// — the sweep order fleet-wide operations (sharded recovery
    /// accounting, per-SA scenario bookkeeping) iterate in.
    pub fn spis(&self) -> Vec<u32> {
        let mut spis: Vec<u32> = self
            .out_index
            .keys()
            .chain(self.in_index.keys())
            .copied()
            .collect();
        spis.sort_unstable();
        spis.dedup();
        spis
    }

    /// Iterates over outbound `(spi, next_seq)` pairs.
    pub fn outbound_seqs(&self) -> impl Iterator<Item = (u32, SeqNum)> + '_ {
        self.iter_outbound()
            .map(|(spi, o)| (spi, o.seq_state().next_seq()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::{SaKeys, SecurityAssociation};
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
    fn install_and_count() {
        let db = sadb_with(5);
        assert_eq!(db.outbound_count(), 5);
        assert_eq!(db.inbound_count(), 5);
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
    fn remove_tears_down_both_directions() {
        let mut db = sadb_with(2);
        assert_eq!(db.len(), 4);
        let removed = db.remove(1).expect("spi 1 installed");
        assert_eq!(removed.outbound.expect("outbound half").sa().spi(), 1);
        assert_eq!(removed.inbound.expect("inbound half").sa().spi(), 1);
        assert!(db.remove(1).is_none(), "second remove is a no-op");
        assert_eq!(db.outbound_count(), 1);
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert!(db.protect(1, b"x").is_err());
    }

    #[test]
    fn freed_slots_are_reused_and_churn_keeps_spi_order() {
        let mut db = sadb_with(4);
        let slots_before = db.out_slots.len();
        db.remove(2);
        db.remove(3);
        // Two new SPIs must reuse the two freed slots, not grow the slab.
        db.install_outbound(sa(100), MemStable::new(), 10);
        db.install_inbound(sa(100), MemStable::new(), 10, 64);
        db.install_outbound(sa(50), MemStable::new(), 10);
        db.install_inbound(sa(50), MemStable::new(), 10, 64);
        assert_eq!(db.out_slots.len(), slots_before, "slab did not grow");
        assert!(db.out_free.is_empty(), "both free slots consumed");
        // The deterministic index still iterates in SPI order.
        let outs: Vec<u32> = db.iter_outbound().map(|(spi, _)| spi).collect();
        assert_eq!(outs, vec![1, 4, 50, 100]);
        let ins: Vec<u32> = db.iter_inbound().map(|(spi, _)| spi).collect();
        assert_eq!(ins, outs);
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
        assert!(db.saves_out.contains(&1));
        assert!(db.saves_in.contains(&1));
        assert!(!db.saves_out.contains(&2), "untouched SA not indexed");
        db.complete_pending_saves().unwrap();
        assert!(!db.has_pending_save());
        assert!(db.saves_out.is_empty() && db.saves_in.is_empty());

        // Completing a save directly on the endpoint (the documented
        // escape hatch) leaves a stale index entry — a false positive
        // the next sweep verifies away without touching the store.
        for _ in 0..10 {
            db.protect(2, b"data").unwrap().unwrap();
        }
        assert!(db.has_pending_save());
        db.outbound_mut(2).unwrap().save_completed().unwrap();
        assert!(!db.has_pending_save(), "index verifies, never trusts");
        db.complete_pending_saves().unwrap();
        assert!(db.saves_out.is_empty());
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
    fn outbound_seqs_iterates() {
        let mut db = sadb_with(3);
        db.protect(1, b"x").unwrap();
        let seqs: std::collections::HashMap<u32, SeqNum> = db.outbound_seqs().collect();
        assert_eq!(seqs.len(), 3);
        assert_eq!(seqs[&1], SeqNum::new(2));
        assert_eq!(seqs[&2], SeqNum::new(1));
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
    fn iterators_walk_spis_in_order() {
        let mut db = Sadb::new();
        for &spi in &[9u32, 3, 7, 1] {
            db.install_outbound(sa(spi), MemStable::new(), 10);
            db.install_inbound(sa(spi), MemStable::new(), 10, 64);
        }
        let outs: Vec<u32> = db.iter_outbound().map(|(spi, _)| spi).collect();
        let ins: Vec<u32> = db.iter_inbound().map(|(spi, _)| spi).collect();
        assert_eq!(outs, vec![1, 3, 7, 9], "deterministic SPI order");
        assert_eq!(ins, outs);
        let outs_mut: Vec<u32> = db.iter_outbound_mut().map(|(spi, _)| spi).collect();
        let ins_mut: Vec<u32> = db.iter_inbound_mut().map(|(spi, _)| spi).collect();
        assert_eq!(outs_mut, vec![1, 3, 7, 9]);
        assert_eq!(ins_mut, outs_mut);
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
        let (recovered, _) = db.finish_recover_all().unwrap();
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
        let (recovered, buffered) = db.finish_recover_all().unwrap();
        assert_eq!(recovered, 8, "4 SAs x 2 directions");
        assert_eq!(buffered.len(), 1);
        assert_eq!(buffered[0].0, 2);
        assert!(buffered[0].1.is_delivered(), "{buffered:?}");
    }
}
