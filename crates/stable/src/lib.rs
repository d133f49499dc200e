//! # reset-stable — the paper's persistent memory (SAVE / FETCH substrate)
//!
//! *Convergence of IPsec in Presence of Resets* rescues an IPsec security
//! association across resets by periodically **SAVE**-ing the current
//! sequence number to persistent memory and **FETCH**-ing it on wake-up.
//! The paper assumes that memory is perfect — never corrupted, never
//! rolled back. This crate supplies the persistent memory *and* the
//! machinery to survive the cases where that assumption breaks.
//!
//! ## Store backends
//!
//! | backend | durability | cost per SAVE | when to use |
//! |---|---|---|---|
//! | [`MemStable`] | process lifetime (harness owns it) | ~ns | simulation, tests |
//! | [`FileStable`] | one atomic file per slot | 1 create + write + rename (+ 2 fsync) | few SAs, simple ops |
//! | [`WalStable`] | one shared append-only log | 1 append (+ 1 fsync) per *sweep* of SAVEs, amortised compaction | fleets — a whole shard's slots coalesce into one append per sweep |
//!
//! [`FileStable`] is the paper's literal "write-to-file" device: atomic
//! rename per slot, checksummed records, `O(slots)` files. [`WalStable`]
//! batches an entire fleet's counter SAVEs into appends on a single log —
//! the layout that makes 1k+ SA gateways cheap — with CRC-protected
//! records, periodic compaction, and crash-recoverable replay (a torn
//! tail is truncated to the last good record on open). Handles are
//! cheaply cloneable, so one WAL can serve every slot of a shard. A sweep
//! of SAVEs (a recovery's wake-ups, one `save_completed`) stages them all
//! ([`StableStore::stage_witnessed`]) and the first
//! [`StableStore::flush`] writes them; the others are durable at once.
//!
//! ## Generations and failing closed
//!
//! Every [`WalStable`] record carries a **monotonic generation number**.
//! [`BackgroundSaver`] witnesses the generation of each acknowledged SAVE
//! and [`BackgroundSaver::fetch_checked`] compares it against what the
//! store serves on FETCH: if the store answers with an *older* generation
//! than the caller saw durably acknowledged — a restored-from-backup
//! rollback, exactly the state that would resurrect replayable counters —
//! the FETCH fails with [`StableError::Rollback`]. Torn or corrupt records
//! likewise surface as [`StableError::Corrupt`]. Either way the recovery
//! path **fails closed**: the gateway above abandons the window and
//! replaces the SA instead of guessing.
//!
//! Plain backends report generation `0` on both sides, making the check
//! vacuous — no false alarms when there is nothing to witness.
//!
//! ## Fault model
//!
//! [`FaultyStable`] wraps any backend and injects scripted or seeded
//! faults: clean SAVE failures, torn writes that persist garbage behind a
//! successful return, stale-generation rollbacks on FETCH, erase failures.
//! It drives the fault-injection campaign in the harness crate.
//!
//! # Examples
//!
//! The Fig 1 race in five lines — a reset during an in-flight SAVE
//! recovers the *previous* saved counter:
//!
//! ```
//! use reset_stable::{BackgroundSaver, MemStable, SlotId};
//!
//! let mut disk = BackgroundSaver::new(MemStable::new(), SlotId::sender(0x22));
//! disk.issue(100);
//! disk.complete()?;            // SAVE(100) completed earlier
//! disk.issue(125);             // SAVE(125) still in flight...
//! disk.crash();                // ...when the reset strikes
//! assert_eq!(disk.fetch_checked()?, Some(100)); // FETCH sees the stale value
//! # Ok::<(), reset_stable::StableError>(())
//! ```
//!
//! And the rollback the paper's assumption rules out, caught by the
//! generation witness:
//!
//! ```
//! use reset_stable::{BackgroundSaver, Fault, FaultyStable, MemStable, SlotId, StableError};
//!
//! let store = FaultyStable::new(MemStable::new());
//! let mut disk = BackgroundSaver::new(store, SlotId::receiver(0x22));
//! for value in [100, 125] {
//!     disk.issue(value);
//!     disk.complete()?;        // both SAVEs acknowledged durable
//! }
//! disk.store_mut().push_fault(Fault::RollbackLoad); // ...but the disk was restored
//! assert!(matches!(
//!     disk.fetch_checked(),
//!     Err(StableError::Rollback { .. })  // FETCH fails closed
//! ));
//! # Ok::<(), reset_stable::StableError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod faulty;
mod file;
mod mem;
mod record;
mod saver;
mod store;
mod wal;

pub use error::StableError;
pub use faulty::{Fault, FaultyStable};
pub use file::{Durability, FileStable};
pub use mem::MemStable;
pub use record::{
    decode_record, decode_wal_record, encode_record, encode_wal_record, WalRecord, RECORD_LEN,
    WAL_RECORD_LEN,
};
pub use saver::{BackgroundSaver, SaveLatencyModel};
pub use store::{SlotId, StableStore};
pub use wal::WalStable;
