//! Fault-injecting wrapper for stress-testing recovery paths.
//!
//! Wraps any [`StableStore`] and injects faults from two sources:
//!
//! * a **scripted queue** per operation kind (store / load / erase) —
//!   deterministic, for targeted unit tests;
//! * an optional **seeded auto mode** — fire a chosen fault on every k-th
//!   matching operation or probabilistically (SplitMix64, reproducible
//!   from the seed) — for randomized fault-injection campaigns.
//!
//! Beyond clean failures, the fault model covers the real-world disk
//! betrayals the paper's "persistent memory is never corrupted" assumption
//! rules out by fiat:
//!
//! * [`Fault::TornStore`] — the write *appears* to succeed but persists
//!   only a prefix; every later load of that slot reports
//!   [`StableError::Corrupt`] until the slot is successfully rewritten;
//! * [`Fault::RollbackLoad`] — the store serves the slot's *previous*
//!   durable snapshot (value **and** generation), modelling a
//!   restored-from-backup rollback. A plain `load` swallows it silently;
//!   only the generation witness
//!   ([`BackgroundSaver::fetch_checked`](crate::BackgroundSaver::fetch_checked))
//!   catches it — which is exactly what the campaign proves.
//! * [`Fault::FailErase`] — the erase reports failure and removes nothing.
//!
//! To make the witness real even over plain inner stores, `FaultyStable`
//! tracks **shadow generations**: each successful store bumps a per-slot
//! generation returned through
//! [`StableStore::store_witnessed`]/[`StableStore::load_witnessed`], so a
//! campaign over `FaultyStable<MemStable>` exercises the same
//! fail-closed machinery a [`WalStable`](crate::WalStable) deployment
//! relies on.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};

use crate::{SlotId, StableError, StableStore};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The next store fails with [`StableError::Injected`]; nothing is
    /// written.
    FailStore,
    /// The next store *appears* to succeed but persists only a torn
    /// prefix: later loads of the slot report [`StableError::Corrupt`]
    /// until a later store succeeds.
    TornStore,
    /// The next load fails as corrupt.
    CorruptLoad,
    /// The next load serves the slot's previous durable snapshot (stale
    /// value and stale generation) instead of the newest one.
    RollbackLoad,
    /// The next erase fails with [`StableError::Injected`]; the slot
    /// remains.
    FailErase,
    /// The next operation succeeds normally.
    Pass,
}

/// Which operation a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Store,
    Load,
    Erase,
}

impl Fault {
    fn op(self) -> Option<Op> {
        match self {
            Fault::FailStore | Fault::TornStore => Some(Op::Store),
            Fault::CorruptLoad | Fault::RollbackLoad => Some(Op::Load),
            Fault::FailErase => Some(Op::Erase),
            Fault::Pass => None,
        }
    }
}

/// SplitMix64: the one-liner seeded generator (no external deps).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone)]
enum AutoMode {
    /// Fire on every k-th matching operation (the k-th, 2k-th, ...).
    EveryKth { k: u64, seen: u64 },
    /// Fire on each matching operation with probability `per_mille`/1000,
    /// drawn from a SplitMix64 stream seeded at arm time.
    Probabilistic { per_mille: u16, rng: u64 },
}

#[derive(Debug, Clone)]
struct AutoFaults {
    mode: AutoMode,
    fault: Fault,
}

/// Last two durable snapshots of a slot, for rollback serving.
#[derive(Debug, Clone, Copy, Default)]
struct Shadow {
    generation: u64,
    newest: Option<(u64, u64)>,   // (generation, value)
    previous: Option<(u64, u64)>, // the snapshot RollbackLoad serves
}

/// All mutable injection state, unified behind one `RefCell` so the
/// `&self` load path and the `&mut self` store/erase paths share a single
/// script source (the pre-PR-6 split store/load scripts are gone).
#[derive(Debug, Clone, Default)]
struct ScriptState {
    scripts: HashMap<u8, VecDeque<Fault>>, // keyed by Op discriminant
    auto: Option<AutoFaults>,
    torn: HashSet<SlotId>,
    shadow: HashMap<SlotId, Shadow>,
    injected: u64,
}

impl ScriptState {
    fn script(&mut self, op: Op) -> &mut VecDeque<Fault> {
        self.scripts.entry(op as u8).or_default()
    }

    /// The fault governing this operation, if any: scripted entries take
    /// precedence (and `Pass` consumes one slot), then the auto mode.
    fn next_fault(&mut self, op: Op) -> Option<Fault> {
        if let Some(f) = self.script(op).pop_front() {
            return match f {
                Fault::Pass => None,
                other => Some(other),
            };
        }
        let auto = self.auto.as_mut()?;
        if auto.fault.op() != Some(op) {
            return None;
        }
        let fire = match &mut auto.mode {
            AutoMode::EveryKth { k, seen } => {
                *seen += 1;
                *seen % *k == 0
            }
            AutoMode::Probabilistic { per_mille, rng } => {
                splitmix64(rng) % 1000 < *per_mille as u64
            }
        };
        fire.then_some(auto.fault)
    }
}

/// A [`StableStore`] decorator that injects faults. See the
/// [crate docs](crate) for the fault model.
///
/// # Examples
///
/// ```
/// use reset_stable::{Fault, FaultyStable, MemStable, SlotId, StableStore};
///
/// let mut s = FaultyStable::new(MemStable::new());
/// s.push_fault(Fault::FailStore);
/// assert!(s.store(SlotId::raw(1), 5).is_err()); // scripted failure
/// assert!(s.store(SlotId::raw(1), 5).is_ok());  // script exhausted
/// ```
#[derive(Debug, Clone)]
pub struct FaultyStable<S> {
    inner: S,
    state: RefCell<ScriptState>,
}

impl<S: StableStore> FaultyStable<S> {
    /// Wraps `inner` with an empty fault script (fully transparent).
    pub fn new(inner: S) -> Self {
        FaultyStable {
            inner,
            state: RefCell::new(ScriptState::default()),
        }
    }

    /// Appends a fault to the script of the operation it applies to
    /// (`Pass` pads the store script, preserving the historical API).
    pub fn push_fault(&mut self, fault: Fault) {
        let op = fault.op().unwrap_or(Op::Store);
        self.state.borrow_mut().script(op).push_back(fault);
    }

    /// Schedules the next `n` stores to fail.
    pub fn fail_next_stores(&mut self, n: usize) {
        for _ in 0..n {
            self.push_fault(Fault::FailStore);
        }
    }

    /// Arms the seeded auto mode: inject `fault` on every `k`-th
    /// operation of its kind (scripted entries still take precedence).
    pub fn auto_every_kth(&mut self, k: u64, fault: Fault) {
        self.state.borrow_mut().auto = Some(AutoFaults {
            mode: AutoMode::EveryKth {
                k: k.max(1),
                seen: 0,
            },
            fault,
        });
    }

    /// Arms the seeded auto mode: inject `fault` on each operation of its
    /// kind with probability `per_mille`/1000, reproducible from `seed`.
    pub fn auto_probabilistic(&mut self, seed: u64, per_mille: u16, fault: Fault) {
        self.state.borrow_mut().auto = Some(AutoFaults {
            mode: AutoMode::Probabilistic {
                per_mille: per_mille.min(1000),
                rng: seed,
            },
            fault,
        });
    }

    /// Disarms the auto mode (scripted entries are kept).
    pub fn clear_auto(&mut self) {
        self.state.borrow_mut().auto = None;
    }

    /// Number of injected faults so far (all kinds).
    pub fn injected_failures(&self) -> u64 {
        self.state.borrow().injected
    }

    /// Shared access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, returning the underlying store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The store mutation shared by `store` and `store_witnessed`:
    /// consult the fault source, keep the shadow generation history in
    /// sync, and return the generation the write was witnessed under.
    fn store_impl(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        let fault = self.state.borrow_mut().next_fault(Op::Store);
        match fault {
            Some(Fault::FailStore) => {
                self.state.borrow_mut().injected += 1;
                Err(StableError::Injected("store failed by script"))
            }
            Some(Fault::TornStore) => {
                // The caller sees success and will ack the generation; the
                // medium holds garbage. Only a later load can find out.
                let mut st = self.state.borrow_mut();
                st.injected += 1;
                st.torn.insert(slot);
                let shadow = st.shadow.entry(slot).or_default();
                shadow.generation += 1;
                Ok(shadow.generation)
            }
            _ => {
                self.inner.store(slot, value)?;
                let mut st = self.state.borrow_mut();
                st.torn.remove(&slot);
                let shadow = st.shadow.entry(slot).or_default();
                shadow.generation += 1;
                shadow.previous = shadow.newest;
                shadow.newest = Some((shadow.generation, value));
                Ok(shadow.generation)
            }
        }
    }

    /// The load path shared by `load` and `load_witnessed`.
    fn load_impl(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        let mut st = self.state.borrow_mut();
        if st.torn.contains(&slot) {
            return Err(StableError::Corrupt {
                slot,
                reason: "torn write",
            });
        }
        match st.next_fault(Op::Load) {
            Some(Fault::CorruptLoad) => {
                st.injected += 1;
                Err(StableError::Corrupt {
                    slot,
                    reason: "corrupted by script",
                })
            }
            Some(Fault::RollbackLoad) => {
                st.injected += 1;
                // Serve the previous snapshot: value and generation both
                // stale — or nothing, if the slot had only one write.
                let shadow = st.shadow.get(&slot).copied().unwrap_or_default();
                Ok(shadow.previous.map(|(gen, v)| (v, gen)))
            }
            _ => {
                let gen = st
                    .shadow
                    .get(&slot)
                    .and_then(|s| s.newest)
                    .map_or(0, |(gen, _)| gen);
                drop(st);
                Ok(self.inner.load(slot)?.map(|v| (v, gen)))
            }
        }
    }
}

impl<S: StableStore> StableStore for FaultyStable<S> {
    fn store(&mut self, slot: SlotId, value: u64) -> Result<(), StableError> {
        self.store_impl(slot, value).map(|_| ())
    }

    fn load(&self, slot: SlotId) -> Result<Option<u64>, StableError> {
        Ok(self.load_impl(slot)?.map(|(v, _)| v))
    }

    fn erase(&mut self, slot: SlotId) -> Result<(), StableError> {
        let fault = self.state.borrow_mut().next_fault(Op::Erase);
        if matches!(fault, Some(Fault::FailErase)) {
            self.state.borrow_mut().injected += 1;
            return Err(StableError::Injected("erase failed by script"));
        }
        self.inner.erase(slot)?;
        let mut st = self.state.borrow_mut();
        st.torn.remove(&slot);
        st.shadow.remove(&slot);
        Ok(())
    }

    fn store_witnessed(&mut self, slot: SlotId, value: u64) -> Result<u64, StableError> {
        self.store_impl(slot, value)
    }

    fn load_witnessed(&self, slot: SlotId) -> Result<Option<(u64, u64)>, StableError> {
        self.load_impl(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackgroundSaver, MemStable};

    #[test]
    fn transparent_without_script() {
        let mut s = FaultyStable::new(MemStable::new());
        s.store(SlotId::raw(1), 9).unwrap();
        assert_eq!(s.load(SlotId::raw(1)).unwrap(), Some(9));
    }

    #[test]
    fn scripted_store_failure_preserves_old_value() {
        let mut s = FaultyStable::new(MemStable::new());
        s.store(SlotId::raw(1), 10).unwrap();
        s.push_fault(Fault::FailStore);
        assert!(s.store(SlotId::raw(1), 20).is_err());
        assert_eq!(
            s.load(SlotId::raw(1)).unwrap(),
            Some(10),
            "failed store must not clobber"
        );
        assert_eq!(s.injected_failures(), 1);
    }

    #[test]
    fn pass_entries_let_one_through() {
        let mut s = FaultyStable::new(MemStable::new());
        s.push_fault(Fault::Pass);
        s.push_fault(Fault::FailStore);
        s.store(SlotId::raw(1), 1).unwrap();
        assert!(s.store(SlotId::raw(1), 2).is_err());
    }

    #[test]
    fn corrupt_load_fires_once() {
        let mut s = FaultyStable::new(MemStable::new());
        s.store(SlotId::raw(2), 5).unwrap();
        s.push_fault(Fault::CorruptLoad);
        assert!(matches!(
            s.load(SlotId::raw(2)),
            Err(StableError::Corrupt { .. })
        ));
        assert_eq!(s.load(SlotId::raw(2)).unwrap(), Some(5));
    }

    #[test]
    fn fail_next_stores_counts() {
        let mut s = FaultyStable::new(MemStable::new());
        s.fail_next_stores(3);
        for _ in 0..3 {
            assert!(s.store(SlotId::raw(1), 0).is_err());
        }
        assert!(s.store(SlotId::raw(1), 0).is_ok());
    }

    #[test]
    fn works_under_background_saver() {
        let mut inner = FaultyStable::new(MemStable::new());
        inner.push_fault(Fault::FailStore);
        let mut saver = BackgroundSaver::new(inner, SlotId::raw(1));
        saver.issue(42);
        // Completion hits the scripted failure; pending is retained.
        assert!(saver.complete().is_err());
        assert!(saver.pending().is_some(), "retry remains possible");
        // Retry succeeds.
        assert_eq!(saver.complete().unwrap(), Some(42));
        assert_eq!(saver.fetch_checked().unwrap(), Some(42));
    }

    #[test]
    fn torn_store_reports_success_then_corrupt_loads() {
        let slot = SlotId::raw(3);
        let mut s = FaultyStable::new(MemStable::new());
        s.store(slot, 10).unwrap();
        s.push_fault(Fault::TornStore);
        // The betrayal: the write "succeeds"...
        s.store(slot, 20).unwrap();
        // ...but the slot is now unreadable, repeatedly.
        for _ in 0..3 {
            assert!(matches!(s.load(slot), Err(StableError::Corrupt { .. })));
        }
        // A successful rewrite heals it.
        s.store(slot, 30).unwrap();
        assert_eq!(s.load(slot).unwrap(), Some(30));
    }

    #[test]
    fn rollback_load_serves_previous_snapshot_with_stale_generation() {
        let slot = SlotId::raw(4);
        let mut s = FaultyStable::new(MemStable::new());
        let g1 = s.store_witnessed(slot, 100).unwrap();
        let g2 = s.store_witnessed(slot, 125).unwrap();
        assert!(g2 > g1);
        s.push_fault(Fault::RollbackLoad);
        // Stale value AND stale generation — invisible to a plain load,
        // caught by the generation witness.
        assert_eq!(s.load_witnessed(slot).unwrap(), Some((100, g1)));
        assert_eq!(s.load_witnessed(slot).unwrap(), Some((125, g2)));
    }

    #[test]
    fn rollback_on_single_write_serves_nothing() {
        let slot = SlotId::raw(5);
        let mut s = FaultyStable::new(MemStable::new());
        s.store(slot, 7).unwrap();
        s.push_fault(Fault::RollbackLoad);
        assert_eq!(s.load(slot).unwrap(), None, "no previous snapshot exists");
    }

    #[test]
    fn rollback_is_caught_by_fetch_checked_not_fetch() {
        let slot = SlotId::raw(6);
        let mut saver = BackgroundSaver::new(FaultyStable::new(MemStable::new()), slot);
        saver.issue(100);
        saver.complete().unwrap();
        saver.issue(125);
        saver.complete().unwrap();
        saver.store_mut().push_fault(Fault::RollbackLoad);
        saver.store_mut().push_fault(Fault::RollbackLoad);
        // The plain FETCH resurrects the replayable counter...
        assert_eq!(saver.store().load(slot).unwrap(), Some(100));
        // ...the witnessed FETCH fails closed.
        assert!(matches!(
            saver.fetch_checked(),
            Err(StableError::Rollback { .. })
        ));
    }

    #[test]
    fn erase_faults_and_passthrough() {
        let slot = SlotId::raw(7);
        let mut s = FaultyStable::new(MemStable::new());
        s.store(slot, 1).unwrap();
        s.push_fault(Fault::FailErase);
        assert!(s.erase(slot).is_err());
        assert_eq!(
            s.load(slot).unwrap(),
            Some(1),
            "failed erase removes nothing"
        );
        s.erase(slot).unwrap();
        assert_eq!(s.load(slot).unwrap(), None);
        assert_eq!(s.injected_failures(), 1);
    }

    #[test]
    fn auto_every_kth_fires_periodically() {
        let mut s = FaultyStable::new(MemStable::new());
        s.auto_every_kth(3, Fault::FailStore);
        let mut failures = 0;
        for i in 0..9u64 {
            if s.store(SlotId::raw(1), i).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3, "every 3rd of 9 stores");
        // Scripted entries take precedence over the auto mode.
        s.push_fault(Fault::Pass);
        assert!(s.store(SlotId::raw(1), 99).is_ok());
    }

    #[test]
    fn auto_probabilistic_is_seeded_and_reproducible() {
        let run = |seed: u64| {
            let mut s = FaultyStable::new(MemStable::new());
            s.auto_probabilistic(seed, 250, Fault::FailStore);
            (0..400u64)
                .map(|i| u64::from(s.store(SlotId::raw(1), i).is_err()))
                .sum::<u64>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same schedule");
        assert!(a > 40 && a < 160, "~25% of 400, got {a}");
        assert_ne!(a, run(43), "different seed, different schedule");
    }

    #[test]
    fn auto_mode_respects_operation_kind() {
        let mut s = FaultyStable::new(MemStable::new());
        s.auto_every_kth(1, Fault::CorruptLoad);
        // Load faults never fire on stores or erases.
        s.store(SlotId::raw(1), 1).unwrap();
        s.erase(SlotId::raw(1)).unwrap();
        s.store(SlotId::raw(1), 2).unwrap();
        assert!(s.load(SlotId::raw(1)).is_err());
        s.clear_auto();
        assert_eq!(s.load(SlotId::raw(1)).unwrap(), Some(2));
    }

    #[test]
    fn shadow_generations_make_memstable_witnessed() {
        let slot = SlotId::raw(8);
        let mut s = FaultyStable::new(MemStable::new());
        assert_eq!(s.load_witnessed(slot).unwrap(), None);
        let g1 = s.store_witnessed(slot, 5).unwrap();
        let g2 = s.store_witnessed(slot, 6).unwrap();
        assert!(g1 >= 1 && g2 > g1);
        assert_eq!(s.load_witnessed(slot).unwrap(), Some((6, g2)));
        // Erase resets the slot's shadow entirely.
        s.erase(slot).unwrap();
        assert_eq!(s.load_witnessed(slot).unwrap(), None);
    }
}
