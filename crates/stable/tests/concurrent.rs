//! Concurrency stress: a single saver thread owns the store while
//! datapath threads stream counter updates at it — the deployment shape
//! a real IPsec stack would use (the paper's background SAVE must not
//! block the datapath). Built on std channels and scoped threads; the
//! offline build has no crossbeam.

use std::sync::mpsc;

use reset_stable::{BackgroundSaver, MemStable, SlotId, StableStore};

#[derive(Debug)]
enum Op {
    Issue { sa: u32, value: u64 },
    Complete { sa: u32 },
    Crash,
    Done,
}

#[test]
fn saver_thread_serializes_concurrent_sa_updates() {
    let (tx, rx) = mpsc::channel::<Op>();
    let n_sas = 8u32;
    let updates_per_sa = 500u64;

    let saver_thread = std::thread::spawn(move || {
        // One saver per SA, as each SA SAVEs its one slot.
        let mut savers: Vec<_> = (0..n_sas)
            .map(|sa| BackgroundSaver::new(MemStable::new(), SlotId::sender(sa)))
            .collect();
        let mut done = 0;
        loop {
            match rx.recv().expect("channel open") {
                Op::Issue { sa, value } => savers[sa as usize].issue(value),
                Op::Complete { sa } => {
                    savers[sa as usize].complete().expect("mem store");
                }
                // A reset loses every SAVE in flight.
                Op::Crash => savers.iter_mut().for_each(BackgroundSaver::crash),
                Op::Done => {
                    done += 1;
                    if done == n_sas {
                        // Flush the last pending saves before reporting.
                        for saver in &mut savers {
                            saver.complete().expect("mem store");
                        }
                        return savers;
                    }
                }
            }
        }
    });

    std::thread::scope(|scope| {
        for sa in 0..n_sas {
            let tx = tx.clone();
            scope.spawn(move || {
                for v in 1..=updates_per_sa {
                    tx.send(Op::Issue { sa, value: v }).expect("send");
                    if v % 25 == 0 {
                        tx.send(Op::Complete { sa }).expect("send");
                    }
                    if v % 181 == 0 {
                        tx.send(Op::Crash).expect("send");
                    }
                }
                tx.send(Op::Done).expect("send");
            });
        }
    });

    let savers = saver_thread.join().expect("saver thread clean");
    // Every slot holds SOME durable value ≤ its final counter, and at
    // least one slot made real progress. (Interleaving is nondeterministic
    // across SAs; monotonicity per slot is what matters.)
    let mut populated = 0;
    for (sa, saver) in savers.iter().enumerate() {
        let slot = SlotId::sender(sa as u32);
        if let Some(v) = saver.store().load(slot).expect("load") {
            assert!(v <= updates_per_sa, "slot {sa} overshot: {v}");
            populated += 1;
        }
    }
    assert!(populated >= 1, "no slot was ever persisted");
}

#[test]
fn file_store_parallel_writers_distinct_slots() {
    use reset_stable::{Durability, FileStable};
    let dir = std::env::temp_dir().join(format!(
        "stable-concurrent-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::thread::scope(|scope| {
        for t in 0..6u32 {
            let dir = dir.clone();
            scope.spawn(move || {
                let mut store = FileStable::open(&dir, Durability::ProcessCrash).expect("open");
                for v in 1..=100u64 {
                    store.store(SlotId::receiver(t), v).expect("store");
                }
            });
        }
    });
    let store = reset_stable::FileStable::open(&dir, Durability::ProcessCrash).expect("open");
    for t in 0..6u32 {
        assert_eq!(store.load(SlotId::receiver(t)).expect("load"), Some(100));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
