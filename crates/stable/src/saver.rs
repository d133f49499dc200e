//! Background SAVE semantics — the race at the heart of the paper.
//!
//! Section 4: *"the execution of SAVE takes some time, during which the
//! computer can still send (or receive) messages"*. A SAVE issued at
//! counter value `c` only becomes durable when the write completes; a
//! reset in between recovers the **previous** saved value. That staleness
//! is what forces the `2K` leap (Figs 1 and 2).
//!
//! [`BackgroundSaver`] models this honestly for one process's one slot:
//! [`issue`] records a pending write (volatile!), [`complete`] commits it
//! to the wrapped [`StableStore`], and [`crash`] — a reset — discards
//! whatever was in flight. The completion *instant* is chosen by the
//! driver (simulator or real clock) using a [`SaveLatencyModel`].
//!
//! A completion is two steps, [`stage`](BackgroundSaver::stage) and a
//! settle: a sweep over many savers that share one device stages every
//! SAVE first, and the first settle writes them all ([`StableStore::flush`]).
//!
//! [`issue`]: BackgroundSaver::issue
//! [`complete`]: BackgroundSaver::complete
//! [`crash`]: BackgroundSaver::crash

use crate::{SlotId, StableError, StableStore};

/// Latency model for one SAVE, in nanoseconds.
///
/// The paper's running example: a write-to-file takes 100 µs on a
/// Pentium III 730 MHz running Linux 2.4.18, while sending a 1000-byte
/// message takes 4 µs — hence a save interval of at least 25 messages.
/// `SaveLatencyModel::paper_disk()` encodes exactly that device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveLatencyModel {
    /// Minimum duration of a SAVE.
    pub base_ns: u64,
    /// Maximum extra duration (uniform jitter; the paper notes the time
    /// "can be different according to the current load of CPU").
    pub jitter_ns: u64,
}

impl SaveLatencyModel {
    /// A SAVE that completes instantaneously (APN-style untimed runs).
    pub const fn instant() -> Self {
        SaveLatencyModel {
            base_ns: 0,
            jitter_ns: 0,
        }
    }

    /// Fixed-duration SAVE.
    pub const fn fixed_ns(ns: u64) -> Self {
        SaveLatencyModel {
            base_ns: ns,
            jitter_ns: 0,
        }
    }

    /// The paper's disk: 100 µs per write-to-file.
    pub const fn paper_disk() -> Self {
        SaveLatencyModel {
            base_ns: 100_000,
            jitter_ns: 0,
        }
    }

    /// Duration of one SAVE given a raw 64-bit random draw.
    pub fn sample_ns(&self, raw: u64) -> u64 {
        if self.jitter_ns == 0 {
            self.base_ns
        } else {
            self.base_ns + raw % (self.jitter_ns + 1)
        }
    }

    /// Worst-case duration (base + full jitter) — the "reasonable upper
    /// bound of the execution time of SAVE" the paper uses to pick `K`.
    pub const fn worst_case_ns(&self) -> u64 {
        self.base_ns + self.jitter_ns
    }
}

/// Wraps a [`StableStore`] with in-flight SAVE semantics for one slot —
/// the paper's process SAVEs one counter, so its saver serves one slot,
/// given at construction.
///
/// # Examples
///
/// ```
/// use reset_stable::{BackgroundSaver, MemStable, SlotId};
///
/// let mut saver = BackgroundSaver::new(MemStable::new(), SlotId::sender(1));
/// saver.issue(100);                         // SAVE(100) begins...
/// saver.crash();                            // ...reset strikes first
/// assert_eq!(saver.fetch_checked()?, None); // nothing was ever durable
///
/// saver.issue(200);
/// saver.complete()?;                        // SAVE finished
/// saver.crash();
/// assert_eq!(saver.fetch_checked()?, Some(200));
/// # Ok::<(), reset_stable::StableError>(())
/// ```
///
/// `#[repr(C)]` puts the SAVE in flight last, where an owner that
/// places its own per-message state right after the saver reads both
/// in one run; the store handle, slot and witness come first.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct BackgroundSaver<S> {
    store: S,
    slot: SlotId,
    /// Newest store generation witnessed as durable for the slot. This
    /// is the rollback witness: it survives
    /// [`crash`](BackgroundSaver::crash) the same way the store handle
    /// itself does (think TPM-style monotonic counter living next to the
    /// persistent memory), so a FETCH served an older generation is
    /// caught by [`fetch_checked`](BackgroundSaver::fetch_checked). Plain
    /// stores witness generation 0 and the check is vacuous.
    acked: u64,
    /// The value of the SAVE in flight, if any, and whether it was staged,
    /// so that `complete` settles it on a flush without staging it again.
    pending: Option<(u64, bool)>,
}

impl<S: StableStore> BackgroundSaver<S> {
    /// Wraps `store`, saving into `slot`, with no SAVE in flight.
    pub fn new(store: S, slot: SlotId) -> Self {
        BackgroundSaver {
            store,
            slot,
            acked: 0,
            pending: None,
        }
    }

    /// The SAVE in flight is durable under `generation` (0: a plain store).
    fn durable(&mut self, generation: u64) {
        self.acked = self.acked.max(generation);
        self.pending = None;
    }

    /// Begins a background SAVE of `value`. A SAVE already in flight is
    /// superseded: the disk queue collapses to the newest value.
    pub fn issue(&mut self, value: u64) {
        self.pending = Some((value, false));
    }

    /// The first half of [`complete`](BackgroundSaver::complete): hands
    /// the SAVE in flight to [`StableStore::stage_witnessed`]. `true` iff
    /// it is staged, owed to the flush `complete` then settles on; `false`
    /// if durable already or none is in flight. Each call stages anew, so
    /// a sweep retried after a failed write re-stages what that write lost.
    ///
    /// # Errors
    ///
    /// Propagates the underlying store error; the pending save is kept so
    /// the caller may retry.
    pub fn stage(&mut self) -> Result<bool, StableError> {
        let Some((value, _)) = self.pending else {
            return Ok(false);
        };
        match self.store.stage_witnessed(self.slot, value)? {
            Some(generation) => self.durable(generation),
            None => self.pending = Some((value, true)),
        }
        Ok(self.pending.is_some())
    }

    /// Completes the in-flight SAVE, making it durable: a staged one
    /// settles on the store's flush, any other is
    /// [`stage`](BackgroundSaver::stage)d first. Returns the committed
    /// value, or `None` if nothing was pending (e.g. the save was wiped by
    /// a crash before its completion event fired).
    ///
    /// # Errors
    ///
    /// Propagates the underlying store error; the pending save is kept so
    /// the caller may retry (a failed flush lost a staged write, so the
    /// retry stages it anew).
    pub fn complete(&mut self) -> Result<Option<u64>, StableError> {
        let value = self.pending();
        if matches!(self.pending, Some((_, true))) || self.stage()? {
            self.pending = value.map(|value| (value, false));
            let generation = self.store.flush(self.slot)?;
            self.durable(generation);
        }
        Ok(value)
    }

    /// A reset: the in-flight SAVE (volatile) is lost; durable state is
    /// untouched.
    pub fn crash(&mut self) {
        self.pending = None;
    }

    /// FETCH with rollback detection: the last durable value of the slot
    /// (pending saves invisible), checked by comparing the generation the
    /// store serves against the newest generation this saver witnessed as
    /// durable. A store serving an older generation — or nothing at all
    /// after a witnessed save — has rolled back, and the caller must fail
    /// closed rather than resume from the stale counter.
    ///
    /// # Errors
    ///
    /// [`StableError::Rollback`] on a detected rollback; otherwise the
    /// underlying store error (e.g. a corrupt record).
    pub fn fetch_checked(&self) -> Result<Option<u64>, StableError> {
        let (slot, acked) = (self.slot, self.acked);
        match self.store.load_witnessed(slot)? {
            Some((_, served)) if served < acked => Err(StableError::Rollback {
                slot,
                served,
                acked,
            }),
            Some((value, _)) => Ok(Some(value)),
            None if acked > 0 => Err(StableError::Rollback {
                slot,
                served: 0,
                acked,
            }),
            None => Ok(None),
        }
    }

    /// The value of the SAVE currently in flight, if any.
    pub fn pending(&self) -> Option<u64> {
        self.pending.map(|(value, _)| value)
    }

    /// Shared access to the wrapped store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the wrapped store (for SA teardown / tests).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Unwraps, returning the underlying store.
    pub fn into_inner(self) -> S {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStable;

    #[test]
    fn the_save_in_flight_is_the_last_field() {
        use std::mem::{offset_of, size_of};
        fn check<S>() {
            let end = offset_of!(BackgroundSaver<S>, pending) + size_of::<Option<u64>>();
            assert_eq!(end, size_of::<BackgroundSaver<S>>());
        }
        check::<MemStable>();
        check::<Box<dyn StableStore + Send>>();
    }

    const SLOT: SlotId = SlotId::raw(1);

    fn saver<S: StableStore>(store: S) -> BackgroundSaver<S> {
        BackgroundSaver::new(store, SLOT)
    }

    #[test]
    fn pending_save_is_invisible_until_complete() {
        let mut s = saver(MemStable::new());
        s.issue(10);
        assert_eq!(s.store().load(SLOT).unwrap(), None, "not durable yet");
        assert_eq!(s.complete().unwrap(), Some(10));
        assert_eq!(s.store().load(SLOT).unwrap(), Some(10));
    }

    #[test]
    fn crash_before_complete_recovers_previous_value() {
        // Exactly the Fig 1 "reset during SAVE" case: SAVE(s) in flight,
        // crash, FETCH returns s - K (the previously saved value).
        let mut s = saver(MemStable::new());
        s.issue(100);
        s.complete().unwrap(); // SAVE(100) durable
        s.issue(125); // SAVE(125) in flight...
        s.crash(); // ...reset
        assert_eq!(s.store().load(SLOT).unwrap(), Some(100));
        assert_eq!(s.pending(), None);
    }

    #[test]
    fn crash_after_complete_recovers_latest() {
        // Fig 1 "reset after SAVE finished" case.
        let mut s = saver(MemStable::new());
        s.issue(100);
        s.complete().unwrap();
        s.issue(125);
        s.complete().unwrap();
        s.crash();
        assert_eq!(s.store().load(SLOT).unwrap(), Some(125));
    }

    #[test]
    fn issue_supersedes_previous_pending() {
        let mut s = saver(MemStable::new());
        s.issue(1);
        s.issue(2);
        assert_eq!(s.pending(), Some(2), "second issue supersedes");
        assert_eq!(s.complete().unwrap(), Some(2));
        assert_eq!(s.store().load(SLOT).unwrap(), Some(2), "newest value wins");
        assert_eq!(s.complete().unwrap(), None, "the superseded SAVE is gone");
    }

    #[test]
    fn complete_with_nothing_pending_is_none() {
        let mut s = saver(MemStable::new());
        assert_eq!(s.complete().unwrap(), None);
    }

    #[test]
    fn a_plain_store_stages_durable_at_once() {
        let mut s = saver(MemStable::new());
        s.issue(77);
        assert!(!s.stage().unwrap(), "nothing owed to a flush");
        assert_eq!(s.store().load(SLOT).unwrap(), Some(77));
        assert_eq!(s.pending(), None, "nothing left in flight");
        assert_eq!(s.complete().unwrap(), None);
    }

    #[test]
    fn latency_model_samples() {
        let m = SaveLatencyModel::fixed_ns(500);
        assert_eq!(m.sample_ns(12345), 500);
        assert_eq!(m.worst_case_ns(), 500);

        let j = SaveLatencyModel {
            base_ns: 100,
            jitter_ns: 50,
        };
        for raw in 0..200u64 {
            let d = j.sample_ns(raw.wrapping_mul(0x9E37_79B9));
            assert!((100..=150).contains(&d));
        }
        assert_eq!(j.worst_case_ns(), 150);
    }

    #[test]
    fn paper_disk_matches_paper_numbers() {
        let m = SaveLatencyModel::paper_disk();
        assert_eq!(m.worst_case_ns(), 100_000); // 100 us
                                                // 100 us save / 4 us per message = 25 messages per save: the
                                                // paper's minimum save interval.
        assert_eq!(m.worst_case_ns() / 4_000, 25);
    }

    /// A store whose served generation the test scripts directly.
    #[derive(Debug, Default)]
    struct GenStore {
        inner: MemStable,
        next_gen: u64,
        serve_gen: std::cell::Cell<Option<u64>>,
    }

    impl StableStore for GenStore {
        fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
            self.inner.store(slot, value)
        }
        fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
            self.inner.load(slot)
        }
        fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
            self.inner.erase(slot)
        }
        fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
            self.inner.store(slot, value)?;
            self.next_gen += 1;
            Ok(self.next_gen)
        }
        fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
            let gen = self.serve_gen.get().unwrap_or(self.next_gen);
            Ok(self.inner.load(slot)?.map(|v| (v, gen)))
        }
    }

    #[test]
    fn fetch_checked_passes_on_current_generation() {
        let mut s = saver(GenStore::default());
        s.issue(100);
        s.complete().unwrap();
        s.issue(125);
        s.complete().unwrap();
        assert_eq!(s.acked, 2);
        s.crash();
        assert_eq!(s.fetch_checked().unwrap(), Some(125));
    }

    #[test]
    fn fetch_checked_flags_stale_generation_as_rollback() {
        let mut s = saver(GenStore::default());
        s.issue(100);
        s.complete().unwrap();
        s.issue(125);
        s.complete().unwrap();
        // The store rolls back: it serves generation 1 after acking 2.
        s.store().serve_gen.set(Some(1));
        let err = s.fetch_checked().unwrap_err();
        assert!(
            matches!(
                err,
                StableError::Rollback {
                    served: 1,
                    acked: 2,
                    ..
                }
            ),
            "{err}"
        );
        // Plain fetch stays oblivious — the witness is what catches it.
        assert_eq!(s.store().load(SLOT).unwrap(), Some(125));
    }

    #[test]
    fn fetch_checked_flags_vanished_slot_as_rollback() {
        let mut s = saver(GenStore::default());
        s.issue(100);
        s.complete().unwrap();
        s.store_mut().inner.erase(SLOT).unwrap(); // data loss behind our back
        let err = s.fetch_checked().unwrap_err();
        assert!(
            matches!(err, StableError::Rollback { served: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn fetch_checked_is_vacuous_for_plain_stores() {
        let mut s = saver(MemStable::new());
        s.issue(77);
        s.complete().unwrap();
        assert_eq!(s.acked, 0);
        assert_eq!(s.fetch_checked().unwrap(), Some(77));
        s.store_mut().erase(SLOT).unwrap();
        // A plain store can't witness, so a vanished slot reads as None.
        assert_eq!(s.fetch_checked().unwrap(), None);
    }

    #[test]
    fn into_inner_returns_store() {
        let mut s = saver(MemStable::new());
        s.issue(5);
        s.complete().unwrap();
        let store = s.into_inner();
        assert_eq!(store.load(SLOT).unwrap(), Some(5));
    }
}
