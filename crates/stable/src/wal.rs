//! Write-ahead-log stable store: one append per SAVE, fleet-wide.
//!
//! [`FileStable`](crate::FileStable) pays a create + write + rename per
//! SAVE per slot — fine at 256 SAs, ruinous at the million-SA fleets the
//! roadmap targets. [`WalStable`] coalesces every slot's counter SAVEs
//! into a **single append-only log**: a SAVE is one checksummed record
//! appended to one already-open file, an erase is a tombstone record, and
//! the log is periodically **compacted** (snapshot of the live table
//! written to a temp file, fsynced, atomically renamed over the log).
//!
//! Every record carries a **monotonic generation number**. The generation
//! is the rollback witness: [`StableStore::store_witnessed`] returns it,
//! [`BackgroundSaver`](crate::BackgroundSaver) remembers the newest acked
//! generation of its slot, and a FETCH that is served an *older* generation
//! (a restored-from-backup or otherwise rolled-back log) fails closed
//! with [`StableError::Rollback`] instead of resurrecting a replayable
//! anti-replay window.
//!
//! Crash recovery on [`open`](WalStable::open):
//!
//! * orphaned compaction temp files (crash between snapshot write and
//!   rename) are deleted — the log itself is still authoritative;
//! * the log is replayed record by record; the first torn or corrupt
//!   record marks the **torn tail** and the log is truncated there, so a
//!   crash mid-append loses at most the in-flight SAVE (exactly the
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
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use reset_telemetry::Telemetry;

use crate::record::{decode_wal_record, encode_wal_record, WalRecord, WAL_RECORD_LEN};
use crate::{Durability, SlotId, StableError, StableStore};

/// Default number of appended records between compactions.
const DEFAULT_COMPACT_EVERY: u64 = 8192;

/// Where an injected power loss strikes during compaction (test hook for
/// the fault-injection campaign).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionCrash {
    /// Power dies halfway through writing the snapshot temp file: a torn
    /// temp file exists, the log is untouched.
    TornSnapshot,
    /// Power dies after the snapshot is fully written but before the
    /// rename: a complete orphan temp file exists, the log is untouched.
    BeforeRename,
}

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
    appended_since_compact: u64,
    compact_every: u64,
    compactions: u64,
    crash_next_compaction: Option<CompactionCrash>,
    /// Optional instrumentation: append/compaction stats flow into the
    /// shared [`Telemetry`] handle when one is attached. `None` (the
    /// default) keeps the store unobserved at zero cost.
    telemetry: Option<Telemetry>,
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
                appended_since_compact: 0,
                compact_every: DEFAULT_COMPACT_EVERY,
                compactions: 0,
                crash_next_compaction: None,
                telemetry: None,
            })),
        })
    }

    fn tmp_path(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".compact.tmp");
        PathBuf::from(os)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().expect("wal store poisoned")
    }

    /// The log file backing this store.
    pub fn path(&self) -> PathBuf {
        self.lock().path.clone()
    }

    /// Compact after this many appended records (default 8192).
    pub fn set_compact_every(&self, records: u64) {
        self.lock().compact_every = records.max(1);
    }

    /// How many compactions have run on this handle's log since open.
    pub fn compactions(&self) -> u64 {
        self.lock().compactions
    }

    /// Number of live (non-tombstone) slots in the table.
    pub fn live_slots(&self) -> usize {
        self.lock()
            .table
            .values()
            .filter(|e| e.value.is_some())
            .count()
    }

    /// Attaches a [`Telemetry`] handle: every subsequent append records
    /// its record size and every compaction its wall-clock duration.
    /// All clones of this store share the attachment (it lives in the
    /// shared log state, like the table itself).
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        self.lock().telemetry = Some(telemetry.clone());
    }

    /// Arms an injected power loss inside the *next* compaction (consumed
    /// once). The compaction returns [`StableError::Injected`] with the
    /// on-disk state frozen at the chosen point; reopening the log from
    /// disk must then recover the pre-compaction contents.
    pub fn crash_next_compaction(&self, at: CompactionCrash) {
        self.lock().crash_next_compaction = Some(at);
    }

    fn append(&self, rec: WalRecord) -> Result<u64, StableError> {
        let mut inner = self.lock();
        let generation = inner.next_generation;
        let rec = WalRecord { generation, ..rec };
        let bytes = encode_wal_record(&rec);
        inner.file.write_all(&bytes)?;
        if inner.durability == Durability::PowerLoss {
            inner.file.sync_all()?;
        }
        inner.next_generation += 1;
        inner.table.insert(
            rec.slot.as_u64(),
            SlotEntry {
                generation,
                value: if rec.tombstone { None } else { Some(rec.value) },
            },
        );
        inner.appended_since_compact += 1;
        if let Some(t) = &inner.telemetry {
            t.record_wal_append(WAL_RECORD_LEN as u64);
        }
        if inner.appended_since_compact >= inner.compact_every {
            let started = Instant::now();
            Self::compact(&mut inner)?;
            if let Some(t) = &inner.telemetry {
                t.record_wal_compaction(started.elapsed().as_nanos() as u64);
            }
        }
        Ok(generation)
    }

    /// Snapshot the live table to a temp file and atomically rename it
    /// over the log. Tombstones are re-written too: they carry the slot's
    /// generation high-water mark.
    fn compact(inner: &mut WalInner) -> Result<(), StableError> {
        let tmp = Self::tmp_path(&inner.path);
        let crash = inner.crash_next_compaction.take();
        let mut snapshot = Vec::with_capacity(inner.table.len() * WAL_RECORD_LEN);
        let mut slots: Vec<u64> = inner.table.keys().copied().collect();
        slots.sort_unstable();
        for slot in slots {
            let entry = inner.table[&slot];
            snapshot.extend_from_slice(&encode_wal_record(&WalRecord {
                slot: SlotId::raw(slot),
                generation: entry.generation,
                value: entry.value.unwrap_or(0),
                tombstone: entry.value.is_none(),
            }));
        }
        {
            let mut f = fs::File::create(&tmp)?;
            if crash == Some(CompactionCrash::TornSnapshot) {
                f.write_all(&snapshot[..snapshot.len() / 2 + 1])?;
                f.sync_all()?;
                return Err(StableError::Injected("power loss mid-compaction snapshot"));
            }
            f.write_all(&snapshot)?;
            if inner.durability == Durability::PowerLoss {
                f.sync_all()?;
            }
        }
        if crash == Some(CompactionCrash::BeforeRename) {
            return Err(StableError::Injected("power loss before compaction rename"));
        }
        fs::rename(&tmp, &inner.path)?;
        if inner.durability == Durability::PowerLoss {
            if let Some(parent) = inner.path.parent() {
                if !parent.as_os_str().is_empty() {
                    fs::File::open(parent)?.sync_all()?;
                }
            }
        }
        // The append handle still points at the renamed-away inode;
        // reopen on the snapshot.
        inner.file = fs::OpenOptions::new().append(true).open(&inner.path)?;
        inner.appended_since_compact = 0;
        inner.compactions += 1;
        Ok(())
    }
}

impl StableStore for WalStable {
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
        self.append(WalRecord {
            slot,
            generation: 0,
            value,
            tombstone: false,
        })
        .map(|_| ())
    }

    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
        Ok(self.lock().table.get(&slot.as_u64()).and_then(|e| e.value))
    }

    fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
        if self.lock().table.contains_key(&slot.as_u64()) {
            self.append(WalRecord {
                slot,
                generation: 0,
                value: 0,
                tombstone: true,
            })?;
        }
        Ok(())
    }

    fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        self.append(WalRecord {
            slot,
            generation: 0,
            value,
            tombstone: false,
        })
    }

    fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        Ok(self
            .lock()
            .table
            .get(&slot.as_u64())
            .and_then(|e| e.value.map(|v| (v, e.generation))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpwal(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "reset-stable-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d.join("log.wal")
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
        assert_eq!(w.live_slots(), 0);
        cleanup(&path);
    }

    #[test]
    fn compaction_shrinks_log_and_preserves_contents() {
        let path = tmpwal("compact");
        let mut w = WalStable::open(&path, Durability::ProcessCrash).unwrap();
        w.set_compact_every(64);
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
            w.set_compact_every(8);
            for i in 0..7u64 {
                w.store(SlotId::raw(i), i + 1).unwrap();
            }
            w.crash_next_compaction(crash);
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
        assert_eq!(a.live_slots(), 2);
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
        w.set_compact_every(8);
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
