//! File-backed stable store — the paper's "write-to-file" SAVE.
//!
//! Each slot is one file under a directory, written atomically: the record
//! is written to a temporary file, flushed, then renamed over the slot
//! file. A crash therefore leaves either the old record or the new one,
//! never a mix — the same property the in-memory simulation assumes.
//!
//! This store backs the calibration experiment (t4): measuring a real SAVE
//! on the host reproduces the paper's Pentium III arithmetic
//! (`100 µs per write-to-file / 4 µs per message ⇒ save every ≥ 25
//! messages`).

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::record::{decode_record, encode_record};
use crate::{SlotId, StableError, StableStore};

/// Durability level for [`FileStable`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Write + rename only; survives process crashes (the paper's "reset")
    /// but not necessarily power loss. This is the default and matches the
    /// paper's 100 µs write-to-file cost model.
    #[default]
    ProcessCrash,
    /// Additionally `fsync` file and directory; survives power loss.
    PowerLoss,
}

/// Stable store persisting each slot as an atomic file.
///
/// # Examples
///
/// ```no_run
/// use reset_stable::{Durability, FileStable, SlotId, StableStore};
///
/// let mut disk = FileStable::open("/tmp/sa-counters", Durability::ProcessCrash)?;
/// disk.store(SlotId::sender(7), 1_000)?;
/// assert_eq!(disk.load(SlotId::sender(7))?, Some(1_000));
/// # Ok::<(), reset_stable::StableError>(())
/// ```
#[derive(Debug)]
pub struct FileStable {
    dir: PathBuf,
    durability: Durability,
}

impl FileStable {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// Orphaned `.tmp` files — the residue of a crash between the write and
    /// the rename — are removed: they hold at best a record the crash made
    /// non-durable, and leaving them around would leak one file per
    /// interrupted SAVE forever. A temp is named after the process that
    /// wrote it (`slot-<id>.<pid>.tmp`), and the sweep spares this
    /// process's own: those belong to live handles, mid-store. Another
    /// process's temps and legacy ones without a pid are swept, so a
    /// crashed process's residue goes at the next process's open.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created or scanned.
    pub fn open(dir: impl AsRef<Path>, durability: Durability) -> Result<Self, StableError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let own = format!(".{}", std::process::id());
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let residue = path.extension().is_some_and(|e| e == "tmp")
                && !path
                    .file_stem()
                    .is_some_and(|stem| stem.to_string_lossy().ends_with(&own));
            if residue {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(FileStable { dir, durability })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn slot_path(&self, slot: SlotId) -> PathBuf {
        self.dir.join(format!("slot-{:016x}.sav", slot.as_u64()))
    }

    fn tmp_path(&self, slot: SlotId) -> PathBuf {
        let pid = std::process::id();
        self.dir
            .join(format!("slot-{:016x}.{pid}.tmp", slot.as_u64()))
    }
}

impl StableStore for FileStable {
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
        let tmp = self.tmp_path(slot);
        let dst = self.slot_path(slot);
        let rec = encode_record(slot, value);
        // An `open()` of the same directory in *another* process sweeps
        // this process's temps as a crash's residue, and can race this
        // write's temp away between the write and the rename (an open in
        // this process spares it). Each open sweeps once, so redoing the
        // write converges; the bound only guards against a pathological
        // storm of opens from other processes.
        for attempt in 0..16 {
            {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(&rec)?;
                if self.durability == Durability::PowerLoss {
                    f.sync_all()?;
                }
            }
            match fs::rename(&tmp, &dst) {
                Ok(()) => break,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound && attempt < 15 => continue,
                Err(e) => return Err(e.into()),
            }
        }
        if self.durability == Durability::PowerLoss {
            // Persist the rename itself: `PowerLoss` promises the new value
            // survives, so a failed directory fsync must fail the SAVE.
            fs::File::open(&self.dir)?.sync_all()?;
        }
        Ok(())
    }

    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
        let dst = self.slot_path(slot);
        let buf = match fs::read(&dst) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        decode_record(slot, &buf).map(Some)
    }

    fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
        match fs::remove_file(self.slot_path(slot)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "reset-stable-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip_through_filesystem() {
        let dir = tmpdir("rt");
        let mut s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        s.store(SlotId::sender(1), 77).unwrap();
        assert_eq!(s.load(SlotId::sender(1)).unwrap(), Some(77));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn survives_reopen_like_a_reset() {
        let dir = tmpdir("reopen");
        {
            let mut s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
            s.store(SlotId::receiver(2), 4242).unwrap();
        }
        // "Reset": the old handle is dropped; a fresh process re-opens.
        let s2 = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        assert_eq!(s2.load(SlotId::receiver(2)).unwrap(), Some(4242));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_slot_is_none() {
        let dir = tmpdir("missing");
        let s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        assert_eq!(s.load(SlotId::raw(9)).unwrap(), None);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn erase_removes_file() {
        let dir = tmpdir("erase");
        let mut s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        s.store(SlotId::raw(3), 1).unwrap();
        s.erase(SlotId::raw(3)).unwrap();
        assert_eq!(s.load(SlotId::raw(3)).unwrap(), None);
        s.erase(SlotId::raw(3)).unwrap(); // idempotent
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupted_file_is_reported_not_returned() {
        let dir = tmpdir("corrupt");
        let mut s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        s.store(SlotId::raw(4), 1000).unwrap();
        // Corrupt the record on disk.
        let path = s.slot_path(SlotId::raw(4));
        let mut bytes = fs::read(&path).unwrap();
        bytes[15] ^= 0x55;
        fs::write(&path, &bytes).unwrap();
        let err = s.load(SlotId::raw(4)).unwrap_err();
        assert!(matches!(err, StableError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let dir = tmpdir("overwrite");
        let mut s = FileStable::open(&dir, Durability::PowerLoss).unwrap();
        for v in [1u64, 2, 3] {
            s.store(SlotId::raw(5), v).unwrap();
        }
        assert_eq!(s.load(SlotId::raw(5)).unwrap(), Some(3));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn open_cleans_orphaned_tmp_files() {
        let dir = tmpdir("orphan");
        let mut s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        s.store(SlotId::raw(6), 11).unwrap();
        // Simulate a crash between write and rename: a stray .tmp of the
        // crashed process (another pid than this one) remains.
        let orphan = crashed_tmp(&dir, 7);
        fs::write(&orphan, b"partial record from a crashed SAVE").unwrap();
        drop(s);
        let s2 = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        assert!(!orphan.exists(), "reopen must sweep orphaned .tmp files");
        assert_eq!(
            s2.load(SlotId::raw(6)).unwrap(),
            Some(11),
            "durable slots survive the sweep"
        );
        let _ = fs::remove_dir_all(dir);
    }

    /// The temp of slot `slot` as a process that is gone left it: no
    /// process has pid `u32::MAX`.
    fn crashed_tmp(dir: &Path, slot: u64) -> PathBuf {
        dir.join(format!("slot-{slot:016x}.{}.tmp", u32::MAX))
    }

    #[test]
    fn open_sweeps_legacy_and_foreign_temps_but_not_its_own() {
        let dir = tmpdir("foreign");
        let s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        let own = s.tmp_path(SlotId::raw(1));
        let foreign = crashed_tmp(&dir, 2);
        let legacy = dir.join(format!("slot-{:016x}.tmp", 3));
        for path in [&own, &foreign, &legacy] {
            fs::write(path, b"partial").unwrap();
        }
        drop(FileStable::open(&dir, Durability::ProcessCrash).unwrap());
        assert!(own.exists(), "a live handle's temp in this process");
        assert!(!foreign.exists() && !legacy.exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn open_sweep_does_not_break_concurrent_writers() {
        // open() sweeps `.tmp` residue, but never this process's own, so
        // a handle mid-store is not raced by opens in its own process.
        let dir = tmpdir("sweep-race");
        let dir2 = dir.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut s = FileStable::open(&dir2, Durability::ProcessCrash).unwrap();
                for v in 0..500u64 {
                    s.store(SlotId::raw(1), v).unwrap();
                }
            });
            for _ in 0..200 {
                let _ = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
            }
        });
        let s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        assert_eq!(s.load(SlotId::raw(1)).unwrap(), Some(499));
        let own = format!(".{}.tmp", std::process::id());
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(&own))
            .collect();
        assert!(left.is_empty(), "temps left behind: {left:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_distinct_slots() {
        // Distinct slots map to distinct files, so parallel writers on
        // different slots never interfere.
        let dir = tmpdir("conc");
        let dir2 = dir.clone();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let d = dir2.clone();
                scope.spawn(move || {
                    let mut s = FileStable::open(&d, Durability::ProcessCrash).unwrap();
                    for v in 0..50u64 {
                        s.store(SlotId::sender(t), v).unwrap();
                    }
                });
            }
        });
        let s = FileStable::open(&dir, Durability::ProcessCrash).unwrap();
        for t in 0..4u32 {
            assert_eq!(s.load(SlotId::sender(t)).unwrap(), Some(49));
        }
        let _ = fs::remove_dir_all(dir);
    }
}
