//! Real-process crash recovery: kill the process mid-campaign, reopen
//! the stores, and check that every acknowledged SAVE survived.
//!
//! The unit tests in `reset-stable` simulate crashes by dropping and
//! reopening handles inside one process. This test goes one step
//! further: it re-spawns the test binary as a **child process** that
//! populates a [`FileStable`] and a [`WalStable`] in a shared temp
//! directory and then dies via [`std::process::abort`] — no `Drop`
//! glue, no graceful shutdown, exactly the paper's "reset". The parent
//! then reopens both stores from the on-disk bytes alone and asserts
//! the last durable generation of every slot.
//!
//! A second scenario truncates the WAL mid-record (a torn tail, as left
//! by a power cut during an append) before reopening, asserting that
//! replay keeps every complete record and drops only the torn one.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::{env, fs};

use reset_stable::{Durability, FileStable, SlotId, StableStore, WalStable, WAL_RECORD_LEN};

const CHILD_ENV: &str = "CRASH_RECOVERY_CHILD";
const DIR_ENV: &str = "CRASH_RECOVERY_DIR";

const SPIS: u32 = 8;
const ROUNDS: u64 = 5;

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("fleet.wal")
}

fn file_dir(dir: &Path) -> PathBuf {
    dir.join("slots")
}

/// The work the child does before dying: a deterministic mini-campaign
/// over both backends, ending with an erase (tombstone) so recovery has
/// to honour deletions too.
fn populate(dir: &Path) {
    let mut files =
        FileStable::open(file_dir(dir), Durability::ProcessCrash).expect("open file store");
    let mut wal = WalStable::open(wal_path(dir), Durability::ProcessCrash).expect("open wal");

    for round in 1..=ROUNDS {
        for spi in 1..=SPIS {
            let value = round * 100 + u64::from(spi);
            files
                .store(SlotId::sender(spi), value)
                .expect("file store SAVE");
            wal.store(SlotId::sender(spi), value).expect("wal SAVE");
            wal.store(SlotId::receiver(spi), value + 7)
                .expect("wal SAVE");
        }
    }
    // A torn-down SA: stored, then erased. Must stay gone after crash.
    wal.store(SlotId::sender(99), 4242).expect("wal SAVE");
    wal.erase(SlotId::sender(99)).expect("wal erase");
}

/// Child entry point, disguised as a test. In a normal run (env unset)
/// it is a no-op pass; when the parent re-spawns the binary with
/// `CRASH_RECOVERY_CHILD=1` it populates the stores and aborts.
#[test]
fn crash_child() {
    if env::var(CHILD_ENV).is_err() {
        return;
    }
    let dir = PathBuf::from(env::var(DIR_ENV).expect("child needs CRASH_RECOVERY_DIR"));
    populate(&dir);
    // Die without unwinding or flushing anything.
    std::process::abort();
}

fn spawn_child_and_crash(dir: &Path) {
    let exe = env::current_exe().expect("test binary path");
    // Capture the child's output: its libtest lines end mid-line at the
    // abort and would otherwise splice into the parent's own test lines.
    let out = Command::new(exe)
        .args(["crash_child", "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .env(DIR_ENV, dir)
        .output()
        .expect("spawn child");
    assert!(
        !out.status.success(),
        "child must die by abort, got {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = env::temp_dir().join(format!("reset-crash-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("mkdir");
    d
}

fn assert_recovered(dir: &Path, torn_tail: bool) {
    let files =
        FileStable::open(file_dir(dir), Durability::ProcessCrash).expect("reopen file store");
    let wal = WalStable::open(wal_path(dir), Durability::ProcessCrash).expect("reopen wal");

    for spi in 1..=SPIS {
        let last = ROUNDS * 100 + u64::from(spi);
        assert_eq!(
            files.load(SlotId::sender(spi)).expect("file FETCH"),
            Some(last),
            "file-per-slot lost spi {spi} across the crash"
        );
        // The torn tail only ever claims the *last appended* record (the
        // erased slot's tombstone is appended after all counter SAVEs),
        // so every counter slot must still read its final round.
        assert_eq!(
            wal.load(SlotId::sender(spi)).expect("wal FETCH"),
            Some(last),
            "WAL lost sender slot {spi} across the crash"
        );
        assert_eq!(
            wal.load(SlotId::receiver(spi)).expect("wal FETCH"),
            Some(last + 7),
            "WAL lost receiver slot {spi} across the crash"
        );
    }
    if torn_tail {
        // The torn record was the tombstone for slot 99: replay must
        // drop it, resurfacing the last complete record for that slot.
        assert_eq!(
            wal.load(SlotId::sender(99)).expect("wal FETCH"),
            Some(4242),
            "a torn tombstone must not be applied"
        );
    } else {
        assert_eq!(
            wal.load(SlotId::sender(99)).expect("wal FETCH"),
            None,
            "erased slot resurrected by WAL replay"
        );
    }
}

#[test]
fn process_abort_preserves_every_acknowledged_save() {
    let dir = fresh_dir("abort");
    spawn_child_and_crash(&dir);
    assert_recovered(&dir, false);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_dropped_on_reopen() {
    let dir = fresh_dir("torn");
    spawn_child_and_crash(&dir);

    // Simulate a power cut mid-append: chop the WAL mid-way through its
    // final record (the slot-99 tombstone).
    let wal_file = wal_path(&dir);
    let len = fs::metadata(&wal_file).expect("wal metadata").len();
    assert!(len >= WAL_RECORD_LEN as u64, "wal too short to tear");
    let torn = len - (WAL_RECORD_LEN as u64) / 2;
    let f = fs::OpenOptions::new()
        .write(true)
        .open(&wal_file)
        .expect("open wal for tearing");
    f.set_len(torn).expect("truncate wal");
    drop(f);

    assert_recovered(&dir, true);

    // Recovery must also have truncated the torn tail away, so further
    // appends start on a clean record boundary.
    let healed = fs::metadata(&wal_file).expect("wal metadata").len();
    assert_eq!(
        healed % WAL_RECORD_LEN as u64,
        0,
        "reopen left a partial record on disk"
    );
    let _ = fs::remove_dir_all(&dir);
}
