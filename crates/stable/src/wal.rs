//! Write-ahead-log stable store: one append per sweep of SAVEs.
//!
//! [`FileStable`](crate::FileStable) pays a create + write + rename per
//! SAVE per slot — fine at 256 SAs, ruinous at the million-SA fleets the
//! roadmap targets. [`WalStable`] coalesces every slot's counter SAVEs
//! into a **single append-only log**: a SAVE is one checksummed record
//! appended to one already-open file, an erase is a tombstone record, and
//! the log is periodically **compacted** (snapshot of the live table
//! written to a temp file, fsynced, atomically renamed over the log).
//!
//! A staged record waits in one buffer on the shared log; a flush writes
//! all that any handle staged with one `write_all` (and one `sync_all`
//! under [`Durability::PowerLoss`]), then applies it to the table. A
//! handle's flush is `Ok` once *its* last staged record is durable — one
//! generation compare, or a look at its slot's entry for one staged before
//! a failed write — so a sweep's first flush writes the whole sweep.
//!
//! Every record carries a **monotonic generation number**. The generation
//! is the rollback witness: [`StableStore::store_witnessed`] returns it,
//! [`BackgroundSaver`](crate::BackgroundSaver) remembers the newest acked
//! generation of its slot, and a FETCH that is served an *older* generation
//! (a restored-from-backup or otherwise rolled-back log) fails closed
//! with [`StableError::Rollback`] instead of resurrecting a replayable
//! anti-replay window.
//!
//! A failed write is not written behind ([`open`](WalStable::open) would
//! stop at its torn prefix): the log is truncated to its durable length,
//! and every record it carried is lost (its handle's flush is `Err`) until
//! staged again. If the truncate fails too, the log refuses every call.
//!
//! Crash recovery on [`open`](WalStable::open):
//!
//! * orphaned compaction temp files (crash between snapshot write and
//!   rename) are deleted — the log itself is still authoritative;
//! * the log is replayed record by record; the first torn or corrupt
//!   record marks the **torn tail** and the log is truncated there, so a
//!   crash mid-write loses at most the SAVEs not yet flushed (exactly the
//!   semantics [`BackgroundSaver`](crate::BackgroundSaver) models);
//! * the generation counter resumes past the highest replayed generation,
//!   so generations stay monotonic across process crashes.
//!
//! A [`WalStable`] **clone shares the same log** (handle semantics over
//! `Arc<Mutex<..>>`): pass clones to
//! `GatewayBuilder::with_stores(move |_, _| wal.clone())` and one WAL
//! serves every (SA, direction) slot of a whole shard or fleet.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use reset_telemetry::Telemetry;

use crate::record::{decode_wal_record, encode_wal_record, WalRecord, WAL_RECORD_LEN};
use crate::{Durability, SlotId, StableError, StableStore};

/// Default number of appended records between compactions.
const DEFAULT_COMPACT_EVERY: u64 = 8192;

#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    generation: u64,
    /// `None` marks a tombstone. Tombstones are kept (and re-written by
    /// compaction) so the per-slot generation high-water mark survives
    /// erase + reuse of the same slot id.
    value: Option<u64>,
}

#[derive(Debug)]
struct WalInner {
    path: PathBuf,
    file: fs::File,
    durability: Durability,
    table: HashMap<u64, SlotEntry>,
    next_generation: u64,
    /// The records staged since the last write, and their table entries.
    staged_bytes: Vec<u8>,
    staged: Vec<(u64, SlotEntry)>,
    /// The newest generations durable and lost to a failed write, and
    /// the log's durable length.
    durable: u64,
    lost: u64,
    len: u64,
    /// A failed write could not be truncated away: every call is refused.
    broken: bool,
    appended_since_compact: u64,
    compact_every: u64,
    compactions: u64,
    /// Optional instrumentation: append/compaction stats flow into the
    /// shared [`Telemetry`] handle when one is attached. `None` (the
    /// default) keeps the store unobserved at zero cost.
    telemetry: Option<Telemetry>,
    /// Test hooks: a power loss inside the next compaction, and a next
    /// write that lands half its bytes, plus one, and fails.
    #[cfg(test)]
    crash_next_compaction: Option<tests::CompactionCrash>,
    #[cfg(test)]
    tear_next_write: bool,
}

/// Shared-file write-ahead-log store. See the [crate docs](crate).
///
/// # Examples
///
/// ```no_run
/// use reset_stable::{Durability, SlotId, StableStore, WalStable};
///
/// let mut wal = WalStable::open("/tmp/fleet.wal", Durability::ProcessCrash)?;
/// let mut handle = wal.clone(); // same log, shareable across slots
/// wal.store(SlotId::sender(1), 100)?;
/// handle.store(SlotId::receiver(1), 40)?;
/// assert_eq!(wal.load(SlotId::receiver(1))?, Some(40));
/// # Ok::<(), reset_stable::StableError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WalStable {
    inner: Arc<Mutex<WalInner>>,
    /// The generation of this handle's last staged record not yet flushed,
    /// or 0 (a clone owes what its original owes).
    staged: u64,
}

impl WalStable {
    /// Opens (creating if needed) the log at `path`, replaying any
    /// existing records: orphaned compaction temp files are removed and a
    /// torn tail is truncated at the first corrupt record.
    ///
    /// # Errors
    ///
    /// Real I/O failures only — torn or corrupt tails are recovered from,
    /// not reported.
    pub fn open(path: impl AsRef<Path>, durability: Durability) -> Result<Self, StableError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        // A crash between snapshot write and rename leaves an orphan temp
        // file; the log is still authoritative, so just drop the orphan.
        let _ = fs::remove_file(Self::tmp_path(&path));

        let mut table = HashMap::new();
        let mut max_generation = 0u64;
        let mut good_len = 0u64;
        match fs::File::open(&path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                let mut off = 0usize;
                while off + WAL_RECORD_LEN <= bytes.len() {
                    match decode_wal_record(&bytes[off..off + WAL_RECORD_LEN]) {
                        Ok(rec) => {
                            max_generation = max_generation.max(rec.generation);
                            table.insert(
                                rec.slot.as_u64(),
                                SlotEntry {
                                    generation: rec.generation,
                                    value: if rec.tombstone { None } else { Some(rec.value) },
                                },
                            );
                            off += WAL_RECORD_LEN;
                        }
                        // Torn tail: everything from here on is the debris
                        // of a crash mid-append. Truncate and move on.
                        Err(_) => break,
                    }
                }
                good_len = off as u64;
                let file_len = bytes.len() as u64;
                if good_len < file_len {
                    let f = fs::OpenOptions::new().write(true).open(&path)?;
                    f.set_len(good_len)?;
                    if durability == Durability::PowerLoss {
                        f.sync_all()?;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }

        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        debug_assert_eq!(file.metadata()?.len(), good_len);
        Ok(WalStable {
            inner: Arc::new(Mutex::new(WalInner {
                path,
                file,
                durability,
                table,
                next_generation: max_generation + 1,
                staged_bytes: Vec::new(),
                staged: Vec::new(),
                durable: max_generation,
                lost: 0,
                len: good_len,
                broken: false,
                appended_since_compact: 0,
                compact_every: DEFAULT_COMPACT_EVERY,
                compactions: 0,
                telemetry: None,
                #[cfg(test)]
                crash_next_compaction: None,
                #[cfg(test)]
                tear_next_write: false,
            })),
            staged: 0,
        })
    }

    fn tmp_path(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".compact.tmp");
        PathBuf::from(os)
    }

    fn lock(&self) -> MutexGuard<'_, WalInner> {
        self.inner.lock().expect("wal store poisoned")
    }

    /// [`WalStable::lock`] for a store operation: refused once broken.
    fn live(&self) -> Result<MutexGuard<'_, WalInner>, StableError> {
        let inner = Some(self.lock()).filter(|inner| !inner.broken);
        inner.ok_or_else(|| io::Error::other("log refused after a failed truncate").into())
    }

    /// How many compactions have run on this handle's log since open.
    pub fn compactions(&self) -> u64 {
        self.lock().compactions
    }

    /// Attaches a [`Telemetry`] handle: every subsequent append records
    /// its record size and every compaction its wall-clock duration.
    /// All clones of this store share the attachment (it lives in the
    /// shared log state, like the table itself).
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        self.lock().telemetry = Some(telemetry.clone());
    }

    /// A stage and a flush of `value` (`None`: a tombstone) for `slot`.
    fn append(&mut self, slot: SlotId, value: Option<u64>) -> Result<u64, StableError> {
        let generation = self.live()?.stage(slot, value);
        self.staged = generation;
        self.flush(slot)
    }
}

impl WalInner {
    /// Stages a record, owed to a write; returns its generation.
    fn stage(&mut self, slot: SlotId, value: Option<u64>) -> u64 {
        let (generation, tombstone) = (self.next_generation, value.is_none());
        self.next_generation += 1;
        let record = encode_wal_record(&WalRecord {
            slot,
            generation,
            value: value.unwrap_or(0),
            tombstone,
        });
        let entry = SlotEntry { generation, value };
        self.staged_bytes.extend_from_slice(&record);
        self.staged.push((slot.as_u64(), entry));
        generation
    }

    /// Writes every staged record with one `write_all`, then applies them
    /// to the table; appends may trigger a compaction.
    fn write(&mut self) -> Result<(), StableError> {
        let written = (|| {
            #[cfg(test)]
            if std::mem::take(&mut self.tear_next_write) {
                let torn = self.staged_bytes.len() / 2 + 1;
                self.file.write_all(&self.staged_bytes[..torn])?;
                return Err(io::Error::other("write torn by a test"));
            }
            self.file.write_all(&self.staged_bytes)?;
            match self.durability {
                Durability::PowerLoss => self.file.sync_all(),
                Durability::ProcessCrash => Ok(()),
            }
        })();
        let bytes = self.staged_bytes.len() as u64;
        self.staged_bytes.clear();
        if let Err(e) = written {
            // Truncate the failed write away, and lose the whole group.
            self.lost = self.next_generation - 1;
            self.staged.clear();
            self.broken = self.file.set_len(self.len).is_err();
            return Err(e.into());
        }
        self.len += bytes;
        self.durable = self.next_generation - 1;
        self.appended_since_compact += self.staged.len() as u64;
        for (slot, entry) in self.staged.drain(..) {
            self.table.insert(slot, entry);
            if let Some(t) = &self.telemetry {
                t.record_wal_append(WAL_RECORD_LEN as u64);
            }
        }
        if self.appended_since_compact >= self.compact_every {
            let started = Instant::now();
            self.compact()?;
            if let Some(t) = &self.telemetry {
                t.record_wal_compaction(started.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    }

    /// Snapshot the live table to a temp file and atomically rename it
    /// over the log. Tombstones are re-written too: they carry the slot's
    /// generation high-water mark.
    fn compact(&mut self) -> Result<(), StableError> {
        let tmp = WalStable::tmp_path(&self.path);
        #[cfg(test)]
        let crash = self.crash_next_compaction.take();
        let mut snapshot = Vec::with_capacity(self.table.len() * WAL_RECORD_LEN);
        let mut slots: Vec<u64> = self.table.keys().copied().collect();
        slots.sort_unstable();
        for slot in slots {
            let entry = self.table[&slot];
            snapshot.extend_from_slice(&encode_wal_record(&WalRecord {
                slot: SlotId::raw(slot),
                generation: entry.generation,
                value: entry.value.unwrap_or(0),
                tombstone: entry.value.is_none(),
            }));
        }
        {
            let mut f = fs::File::create(&tmp)?;
            #[cfg(test)]
            if crash == Some(tests::CompactionCrash::TornSnapshot) {
                f.write_all(&snapshot[..snapshot.len() / 2 + 1])?;
                f.sync_all()?;
                return Err(StableError::Injected("power loss mid-compaction snapshot"));
            }
            f.write_all(&snapshot)?;
            if self.durability == Durability::PowerLoss {
                f.sync_all()?;
            }
        }
        #[cfg(test)]
        if crash == Some(tests::CompactionCrash::BeforeRename) {
            return Err(StableError::Injected("power loss before compaction rename"));
        }
        fs::rename(&tmp, &self.path)?;
        if self.durability == Durability::PowerLoss {
            if let Some(parent) = self.path.parent() {
                if !parent.as_os_str().is_empty() {
                    fs::File::open(parent)?.sync_all()?;
                }
            }
        }
        // The append handle still points at the renamed-away inode;
        // reopen on the snapshot.
        self.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        self.len = snapshot.len() as u64;
        self.appended_since_compact = 0;
        self.compactions += 1;
        Ok(())
    }
}

impl StableStore for WalStable {
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
        self.append(slot, Some(value)).map(drop)
    }

    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
        Ok(self.live()?.table.get(&slot.as_u64()).and_then(|e| e.value))
    }

    fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
        if self.live()?.table.contains_key(&slot.as_u64()) {
            self.append(slot, None)?;
        }
        Ok(())
    }

    fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        self.append(slot, Some(value))
    }

    fn stage_witnessed(&mut self, slot: SlotId, value: u64) -> Result<Option<u64>, StableError> {
        let generation = self.live()?.stage(slot, Some(value));
        self.staged = generation;
        Ok(None)
    }

    fn flush(&mut self, slot: SlotId) -> Result<u64, StableError> {
        let generation = std::mem::take(&mut self.staged);
        let mut inner = self.live()?;
        // Staged before the last failed write: durable only if the slot holds it.
        if generation > inner.durable.max(inner.lost) {
            inner.write()?;
        } else if generation != 0
            && generation <= inner.lost
            && inner.table.get(&slot.as_u64()).map(|e| e.generation) != Some(generation)
        {
            return Err(io::Error::other("staged record lost to a failed write").into());
        }
        Ok(generation)
    }

    fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        Ok(self
            .live()?
            .table
            .get(&slot.as_u64())
            .and_then(|e| e.value.map(|v| (v, e.generation))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackgroundSaver;

    /// Where an injected power loss strikes during compaction: the
    /// compaction returns [`StableError::Injected`] with the on-disk state
    /// frozen there, and reopening the log must recover the pre-compaction
    /// contents.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum CompactionCrash {
        /// Power dies halfway through writing the snapshot temp file: a
        /// torn temp file exists, the log is untouched.
        TornSnapshot,
        /// Power dies after the snapshot is fully written but before the
        /// rename: a complete orphan temp file exists, the log is untouched.
        BeforeRename,
    }

    fn tmpwal(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "reset-stable-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d.join("log.wal")
    }

    /// Compact after this many appended records (default 8192).
    fn set_compact_every(w: &WalStable, records: u64) {
        w.lock().compact_every = records;
    }

    fn cleanup(path: &Path) {
        if let Some(parent) = path.parent() {
            let _ = fs::remove_dir_all(parent);
        }
    }

    #[test]
    fn round_trip_and_reopen() {
        let path = tmpwal("rt");
        {
            let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
            w.store(SlotId::sender(1), 100).unwrap();
            w.store(SlotId::receiver(1), 40).unwrap();
            w.store(SlotId::sender(1), 125).unwrap();
        }
        let w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        assert_eq!(w.load(SlotId::sender(1)).unwrap(), Some(125));
        assert_eq!(w.load(SlotId::receiver(1)).unwrap(), Some(40));
        assert_eq!(w.load(SlotId::sender(2)).unwrap(), None);
        cleanup(&path);
    }

    #[test]
    fn generations_are_monotonic_across_reopen() {
        let path = tmpwal("gen");
        let g1;
        {
            let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
            let a = w.store_witnessed(SlotId::raw(1), 10).unwrap();
            let b = w.store_witnessed(SlotId::raw(1), 20).unwrap();
            assert!(b > a);
            g1 = b;
        }
        let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        assert_eq!(w.load_witnessed(SlotId::raw(1)).unwrap(), Some((20, g1)));
        let g2 = w.store_witnessed(SlotId::raw(1), 30).unwrap();
        assert!(g2 > g1, "generation must survive the reopen: {g2} vs {g1}");
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_good_record() {
        let path = tmpwal("torn");
        {
            let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
            w.store(SlotId::raw(1), 100).unwrap();
            w.store(SlotId::raw(1), 125).unwrap();
        }
        // A crash mid-append: half a record of debris at the tail.
        let mut bytes = fs::read(&path).unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&[0xAB; WAL_RECORD_LEN / 2]);
        fs::write(&path, &bytes).unwrap();
        let w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        assert_eq!(w.load(SlotId::raw(1)).unwrap(), Some(125));
        assert_eq!(fs::metadata(&path).unwrap().len(), good as u64);
        cleanup(&path);
    }

    #[test]
    fn corrupt_mid_record_truncates_from_there() {
        let path = tmpwal("corrupt");
        {
            let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
            w.store(SlotId::raw(1), 100).unwrap();
            w.store(SlotId::raw(2), 7).unwrap();
        }
        // Flip a bit inside the second record: replay keeps the first and
        // truncates the rest.
        let mut bytes = fs::read(&path).unwrap();
        let idx = WAL_RECORD_LEN + 21;
        bytes[idx] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        assert_eq!(w.load(SlotId::raw(1)).unwrap(), Some(100));
        assert_eq!(w.load(SlotId::raw(2)).unwrap(), None);
        cleanup(&path);
    }

    #[test]
    fn erase_tombstones_and_survives_reopen() {
        let path = tmpwal("erase");
        {
            let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
            w.store(SlotId::raw(5), 1).unwrap();
            w.erase(SlotId::raw(5)).unwrap();
            w.erase(SlotId::raw(99)).unwrap(); // absent: no-op, no record
            assert_eq!(w.load(SlotId::raw(5)).unwrap(), None);
        }
        let w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        assert_eq!(w.load(SlotId::raw(5)).unwrap(), None);
        assert_eq!(
            w.lock().table.len(),
            1,
            "one tombstone, none for the absent slot"
        );
        cleanup(&path);
    }

    #[test]
    fn compaction_shrinks_log_and_preserves_contents() {
        let path = tmpwal("compact");
        let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        set_compact_every(&w, 64);
        for round in 0..10u64 {
            for slot in 0..16u64 {
                w.store(SlotId::raw(slot), round * 100 + slot).unwrap();
            }
        }
        assert!(w.compactions() >= 1, "160 appends at compact_every=64");
        let len = fs::metadata(&path).unwrap().len();
        assert!(
            len <= (64 + 16) as u64 * WAL_RECORD_LEN as u64,
            "log should stay near the live set, got {len} bytes"
        );
        for slot in 0..16u64 {
            assert_eq!(w.load(SlotId::raw(slot)).unwrap(), Some(900 + slot));
        }
        // And the compacted log replays identically.
        drop(w);
        let w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        for slot in 0..16u64 {
            assert_eq!(w.load(SlotId::raw(slot)).unwrap(), Some(900 + slot));
        }
        cleanup(&path);
    }

    #[test]
    fn power_loss_mid_compaction_recovers_from_log() {
        for crash in [CompactionCrash::TornSnapshot, CompactionCrash::BeforeRename] {
            let path = tmpwal(match crash {
                CompactionCrash::TornSnapshot => "plc-torn",
                CompactionCrash::BeforeRename => "plc-rename",
            });
            let mut w = WalStable::open(&path, Durability::PowerLoss).unwrap();
            set_compact_every(&w, 8);
            for i in 0..7u64 {
                w.store(SlotId::raw(i), i + 1).unwrap();
            }
            w.lock().crash_next_compaction = Some(crash);
            // The 8th append triggers the compaction, which "loses power".
            let err = w.store(SlotId::raw(7), 8).unwrap_err();
            assert!(matches!(err, StableError::Injected(_)), "{err}");
            // The process dies with it; a fresh open must recover every
            // value from the untouched log (the append itself landed
            // before the compaction began) and clear the orphan temp file.
            drop(w);
            assert!(WalStable::tmp_path(&path).exists(), "orphan left behind");
            let w = WalStable::open(&path, Durability::PowerLoss).unwrap();
            assert!(!WalStable::tmp_path(&path).exists(), "orphan cleaned");
            for i in 0..8u64 {
                assert_eq!(w.load(SlotId::raw(i)).unwrap(), Some(i + 1), "{crash:?}");
            }
            cleanup(&path);
        }
    }

    #[test]
    fn clones_share_one_log() {
        let path = tmpwal("share");
        let mut a = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        let mut b = a.clone();
        a.store(SlotId::sender(1), 11).unwrap();
        b.store(SlotId::sender(2), 22).unwrap();
        assert_eq!(a.load(SlotId::sender(2)).unwrap(), Some(22));
        assert_eq!(b.load(SlotId::sender(1)).unwrap(), Some(11));
        assert_eq!(a.lock().table.len(), 2);
        cleanup(&path);
    }

    #[test]
    fn a_sweep_of_staged_saves_is_one_write() {
        let path = tmpwal("sweep");
        let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        let mut handles = [wal.clone(), wal.clone(), wal.clone()];
        let mut staged = Vec::new();
        for (slot, h) in handles.iter_mut().enumerate() {
            assert_eq!(
                h.stage_witnessed(SlotId::raw(slot as u64), 7).unwrap(),
                None
            );
            staged.push(h.staged);
        }
        assert_eq!(fs::metadata(&path).unwrap().len(), 0, "staged, not written");
        assert_eq!(wal.load(SlotId::raw(0)).unwrap(), None, "not durable yet");
        assert_eq!(handles[1].flush(SlotId::raw(1)).unwrap(), staged[1]);
        let group = 3 * WAL_RECORD_LEN as u64;
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            group,
            "one write, all three"
        );
        for (slot, (h, generation)) in handles.iter_mut().zip(staged).enumerate() {
            // Handle 1 owes nothing now; the others' records landed with
            // its write, so their flushes write nothing.
            let owed = if slot == 1 { 0 } else { generation };
            assert_eq!(h.flush(SlotId::raw(slot as u64)).unwrap(), owed);
            let served = h.load_witnessed(SlotId::raw(slot as u64)).unwrap();
            assert_eq!(served, Some((7, generation)));
        }
        assert_eq!(fs::metadata(&path).unwrap().len(), group);
        cleanup(&path);
    }

    #[test]
    fn boxed_and_borrowed_handles_forward_the_staged_write() {
        let path = tmpwal("forward");
        let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        let mut boxed: Box<dyn StableStore + Send> = Box::new(wal.clone());
        let mut handle = wal.clone();
        let mut borrowed = &mut handle;
        let stores: [&mut dyn StableStore; 2] = [&mut boxed, &mut borrowed];
        for (slot, store) in stores.into_iter().enumerate() {
            let slot = SlotId::raw(slot as u64);
            assert_eq!(store.stage_witnessed(slot, 9).unwrap(), None, "deferred");
            let generation = store.flush(slot).unwrap();
            assert_eq!(wal.load_witnessed(slot).unwrap(), Some((9, generation)));
        }
        cleanup(&path);
    }

    #[test]
    fn a_torn_group_write_fails_every_handle_and_is_truncated_away() {
        let path = tmpwal("torn-group");
        let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        let mut savers: Vec<_> = (0..4u64)
            .map(|slot| BackgroundSaver::new(wal.clone(), SlotId::raw(slot)))
            .collect();
        let sweep = |savers: &mut Vec<BackgroundSaver<WalStable>>, base: u64| {
            for (slot, s) in savers.iter_mut().enumerate() {
                s.issue(base + slot as u64);
                assert!(s.stage().unwrap(), "a WAL defers to the flush");
            }
        };
        sweep(&mut savers, 10);
        for s in &mut savers {
            s.complete().unwrap();
        }
        let durable_len = fs::metadata(&path).unwrap().len();

        // The next sweep's one write lands half its bytes and fails.
        sweep(&mut savers, 20);
        wal.lock().tear_next_write = true;
        for (slot, s) in savers.iter_mut().enumerate() {
            assert!(s.complete().is_err(), "slot {slot}: its record was lost");
            assert_eq!(s.pending(), Some(20 + slot as u64), "still owed");
            assert_eq!(
                wal.load(SlotId::raw(slot as u64)).unwrap(),
                Some(10 + slot as u64)
            );
        }
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            durable_len,
            "torn prefix removed"
        );

        // A retry stages again and lands, behind the last durable record.
        for s in savers.iter_mut() {
            assert!(s.stage().unwrap());
        }
        for (slot, s) in savers.iter_mut().enumerate() {
            assert_eq!(s.complete().unwrap(), Some(20 + slot as u64));
        }
        drop(savers);
        drop(wal);
        let reopened = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        for slot in 0..4u64 {
            let saver = BackgroundSaver::new(reopened.clone(), SlotId::raw(slot));
            assert_eq!(
                saver.fetch_checked().unwrap(),
                Some(20 + slot),
                "every acked value"
            );
        }
        cleanup(&path);
    }

    #[test]
    fn a_sweep_retried_after_a_torn_write_lands_in_one_retry() {
        let path = tmpwal("retry");
        let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        let mut savers: Vec<_> = (0..4u64)
            .map(|slot| BackgroundSaver::new(wal.clone(), SlotId::raw(slot)))
            .collect();
        // A sweep as the gateway runs one: stage every SAVE, then settle
        // in order and stop at the first failure.
        let sweep = |savers: &mut [BackgroundSaver<WalStable>]| {
            for s in savers.iter_mut() {
                assert!(s.stage().unwrap(), "a WAL defers to the flush");
            }
            savers.iter_mut().try_for_each(|s| s.complete().map(drop))
        };
        for (slot, s) in savers.iter_mut().enumerate() {
            s.issue(30 + slot as u64);
        }
        wal.lock().tear_next_write = true;
        assert!(sweep(&mut savers).is_err(), "the group write failed");
        assert_eq!(fs::metadata(&path).unwrap().len(), 0, "torn prefix removed");
        // Only the first saver settled; the others still hold the staged
        // flag of a record the failed write lost. One retry lands all.
        sweep(&mut savers).unwrap();
        let group = 4 * WAL_RECORD_LEN as u64;
        assert_eq!(fs::metadata(&path).unwrap().len(), group, "one write");
        drop((savers, wal));
        let reopened = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        for slot in 0..4u64 {
            assert_eq!(reopened.load(SlotId::raw(slot)).unwrap(), Some(30 + slot));
        }
        cleanup(&path);
    }

    #[test]
    fn a_record_another_handle_wrote_outlives_a_later_failed_write() {
        let path = tmpwal("outlives");
        let wal = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        let [mut a, mut b, mut c, mut d] = [(); 4].map(|()| wal.clone());
        let slot = SlotId::raw;
        assert_eq!(a.stage_witnessed(slot(0), 1).unwrap(), None);
        assert_eq!(b.stage_witnessed(slot(1), 2).unwrap(), None);
        let written = b.flush(slot(1)).unwrap();
        // A later group fails: c's and d's records are lost, a's was
        // written with b's.
        assert_eq!(c.stage_witnessed(slot(2), 3).unwrap(), None);
        assert_eq!(d.stage_witnessed(slot(3), 4).unwrap(), None);
        wal.lock().tear_next_write = true;
        assert!(c.flush(slot(2)).is_err());
        assert!(d.flush(slot(3)).is_err(), "staged before the failed write");
        let generation = a.flush(slot(0)).unwrap();
        assert_eq!(generation, written - 1, "a staged just before b");
        assert_eq!(wal.load_witnessed(slot(0)).unwrap(), Some((1, generation)));
        assert_eq!(wal.load(slot(3)).unwrap(), None);
        cleanup(&path);
    }

    #[test]
    fn a_write_that_cannot_be_truncated_away_refuses_every_call() {
        let path = tmpwal("broken");
        let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        w.store(SlotId::raw(1), 5).unwrap();
        // A read-only descriptor: the write fails, and so does the truncate.
        w.lock().file = fs::File::open(&path).unwrap();
        assert!(w.store(SlotId::raw(1), 6).is_err());
        assert!(w.load(SlotId::raw(1)).is_err(), "refused");
        assert!(
            w.clone().store(SlotId::raw(2), 1).is_err(),
            "refused on every handle"
        );
        drop(w);
        let w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        assert_eq!(w.load(SlotId::raw(1)).unwrap(), Some(5));
        cleanup(&path);
    }

    #[test]
    fn concurrent_handles_from_threads() {
        let path = tmpwal("threads");
        let w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let mut h = w.clone();
                scope.spawn(move || {
                    for v in 0..50u64 {
                        h.store(SlotId::sender(t), v).unwrap();
                    }
                });
            }
        });
        for t in 0..4u32 {
            assert_eq!(w.load(SlotId::sender(t)).unwrap(), Some(49));
        }
        cleanup(&path);
    }

    #[test]
    fn attached_telemetry_sees_appends_and_compactions() {
        let path = tmpwal("telemetry");
        let w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        let t = Telemetry::new();
        w.attach_telemetry(&t);
        set_compact_every(&w, 8);
        let mut clone = w.clone(); // shares the attachment
        for v in 0..20u64 {
            clone.store(SlotId::sender(1), v).unwrap();
        }
        let s = t.snapshot();
        assert_eq!(s.wal_appends, 20);
        assert_eq!(s.wal_append_bytes, 20 * WAL_RECORD_LEN as u64);
        assert_eq!(s.wal_compactions, w.compactions());
        assert!(s.wal_compactions >= 2, "20 appends at compact_every=8");
        assert_eq!(s.wal_compact_ns.count, s.wal_compactions);
        cleanup(&path);
    }
}
