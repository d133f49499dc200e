//! The `StableStore` abstraction: the paper's persistent memory.
//!
//! The paper assumes "the content of the persistent memory of a computer
//! will not be corrupted or erased by a reset of that computer". A
//! [`StableStore`] is exactly that contract: values written with
//! [`StableStore::store`] survive process resets; everything else (the
//! protocol's volatile variables) is reconstructed from scratch on wake-up
//! via [`StableStore::load`] — the paper's FETCH.

use std::fmt;

use crate::StableError;

/// Identifies one persisted counter.
///
/// The paper needs one slot per process; the IPsec substrate needs one per
/// (SA, direction), so slots are an SPI plus a direction tag packed into a
/// single id.
///
/// # Examples
///
/// ```
/// use reset_stable::SlotId;
///
/// let tx = SlotId::sender(0x1234);
/// let rx = SlotId::receiver(0x1234);
/// assert_ne!(tx, rx);
/// assert_eq!(tx.spi(), 0x1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(u64);

impl SlotId {
    const DIR_BIT: u64 = 1 << 63;

    /// Slot for a sender-side counter of the SA identified by `spi`.
    pub const fn sender(spi: u32) -> SlotId {
        SlotId(spi as u64)
    }

    /// Slot for a receiver-side counter of the SA identified by `spi`.
    pub const fn receiver(spi: u32) -> SlotId {
        SlotId(spi as u64 | Self::DIR_BIT)
    }

    /// An arbitrary raw slot (tests, single-process experiments).
    pub const fn raw(id: u64) -> SlotId {
        SlotId(id)
    }

    /// The SPI component.
    pub const fn spi(self) -> u32 {
        (self.0 & !Self::DIR_BIT) as u32
    }

    /// True iff this is a receiver-side slot.
    pub const fn is_receiver(self) -> bool {
        self.0 & Self::DIR_BIT != 0
    }

    /// The packed 64-bit representation.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_receiver() {
            write!(f, "rx:{:#x}", self.spi())
        } else {
            write!(f, "tx:{:#x}", self.spi())
        }
    }
}

/// Persistent memory holding one `u64` counter per slot.
///
/// Implementations must guarantee that a successful [`store`] is visible to
/// every later [`load`] of the same slot, *including after a process
/// reset*. This is the paper's SAVE (store) / FETCH (load) pair.
///
/// The *duration* of a SAVE — the window during which the old value is
/// still what a crash would recover — is modelled separately by
/// [`BackgroundSaver`](crate::BackgroundSaver), keeping implementations of
/// this trait simple and synchronous.
///
/// [`store`]: StableStore::store
/// [`load`]: StableStore::load
pub trait StableStore {
    /// Durably records `value` in `slot`, replacing any previous value.
    ///
    /// # Errors
    ///
    /// Returns [`StableError`] if the device fails or a fault was injected;
    /// in that case the previous value of the slot must be unchanged.
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError>;

    /// Reads the last durably stored value of `slot`, or `None` if the slot
    /// has never been written.
    ///
    /// # Errors
    ///
    /// Returns [`StableError::Corrupt`] if the stored record fails its
    /// integrity check.
    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError>;

    /// Removes a slot (used when an SA is torn down). Removing an absent
    /// slot is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`StableError`] if the device fails.
    fn erase(&mut self, slot: SlotId) -> Result<(), StableError>;

    /// Like [`store`](StableStore::store), but additionally returns the
    /// **generation number** under which the store durably recorded the
    /// write. Generation-aware backends ([`WalStable`](crate::WalStable))
    /// return a per-store monotonically increasing value; plain backends
    /// keep the default, which returns `0` — making the rollback check in
    /// [`BackgroundSaver::fetch_checked`](crate::BackgroundSaver::fetch_checked)
    /// vacuous for them.
    ///
    /// # Errors
    ///
    /// Same contract as [`store`](StableStore::store).
    fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        self.store(slot, value)?;
        Ok(0)
    }

    /// The first phase of a two-phase witnessed write, with the errors of
    /// [`store`](StableStore::store): durable at once, `Some(generation)`
    /// as [`store_witnessed`](StableStore::store_witnessed) gives (the
    /// default), or staged, `None`, and owed to this handle's next
    /// [`flush`](StableStore::flush); until then loads serve the old value.
    fn stage_witnessed(&mut self, slot: SlotId, value: u64) -> Result<Option<u64>, StableError> {
        self.store_witnessed(slot, value).map(Some)
    }

    /// The second phase: `Ok` once this handle's last staged write, of
    /// `slot`, is durable, with its generation (`0` if it owes none). A
    /// failed flush loses the staged write; stage it again.
    fn flush(&mut self, _slot: SlotId) -> Result<u64, StableError> {
        Ok(0)
    }

    /// Like [`load`](StableStore::load), but pairs the value with the
    /// generation it was recorded under (`0` for backends without
    /// generation tracking). A caller holding a newer witnessed generation
    /// than the one served has observed a **rollback** and must fail
    /// closed.
    ///
    /// # Errors
    ///
    /// Same contract as [`load`](StableStore::load).
    fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        Ok(self.load(slot)?.map(|v| (v, 0)))
    }
}

impl<S: StableStore + ?Sized> StableStore for &mut S {
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
        (**self).store(slot, value)
    }
    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
        (**self).load(slot)
    }
    fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
        (**self).erase(slot)
    }
    fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        (**self).store_witnessed(slot, value)
    }
    fn stage_witnessed(&mut self, slot: SlotId, value: u64) -> Result<Option<u64>, StableError> {
        (**self).stage_witnessed(slot, value)
    }
    fn flush(&mut self, slot: SlotId) -> Result<u64, StableError> {
        (**self).flush(slot)
    }
    fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        (**self).load_witnessed(slot)
    }
}

impl<S: StableStore + ?Sized> StableStore for Box<S> {
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
        (**self).store(slot, value)
    }
    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
        (**self).load(slot)
    }
    fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
        (**self).erase(slot)
    }
    fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        (**self).store_witnessed(slot, value)
    }
    fn stage_witnessed(&mut self, slot: SlotId, value: u64) -> Result<Option<u64>, StableError> {
        (**self).stage_witnessed(slot, value)
    }
    fn flush(&mut self, slot: SlotId) -> Result<u64, StableError> {
        (**self).flush(slot)
    }
    fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        (**self).load_witnessed(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_receiver_slots_are_distinct() {
        for spi in [0u32, 1, 0xdead_beef, u32::MAX] {
            let s = SlotId::sender(spi);
            let r = SlotId::receiver(spi);
            assert_ne!(s, r);
            assert_eq!(s.spi(), spi);
            assert_eq!(r.spi(), spi);
            assert!(!s.is_receiver());
            assert!(r.is_receiver());
        }
    }

    #[test]
    fn display_shows_direction() {
        assert_eq!(SlotId::sender(0x10).to_string(), "tx:0x10");
        assert_eq!(SlotId::receiver(0x10).to_string(), "rx:0x10");
    }

    #[test]
    fn trait_object_usable_through_box() {
        let mut store: Box<dyn StableStore> = Box::new(crate::MemStable::new());
        store.store(SlotId::raw(1), 99).unwrap();
        assert_eq!(store.load(SlotId::raw(1)).unwrap(), Some(99));
    }

    #[test]
    fn plain_stores_witness_generation_zero() {
        // Backends without generation tracking must report generation 0 on
        // both sides, which makes the rollback comparison vacuous.
        let mut store: Box<dyn StableStore> = Box::new(crate::MemStable::new());
        assert_eq!(store.store_witnessed(SlotId::raw(2), 5).unwrap(), 0);
        assert_eq!(store.load_witnessed(SlotId::raw(2)).unwrap(), Some((5, 0)));
        assert_eq!(store.load_witnessed(SlotId::raw(3)).unwrap(), None);
    }
}
