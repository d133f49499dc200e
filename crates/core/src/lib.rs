//! # anti-replay — IPsec anti-replay with SAVE/FETCH reset convergence
//!
//! A faithful, executable reproduction of the protocols in:
//!
//! > Chin-Tser Huang, Mohamed G. Gouda, E.N. Elnozahy.
//! > *Convergence of IPsec in Presence of Resets.* ICDCS 2003
//! > (journal version: J. High Speed Networks 15(2), 2006).
//!
//! IPsec's anti-replay service keeps a sequence counter at the sender and
//! a sliding window at the receiver — both in volatile memory. A reset of
//! either peer therefore admits **unbounded** replay acceptance or
//! **unbounded** fresh-message loss (§3). The paper's fix: **SAVE** the
//! counter to persistent memory every `K` messages (in the background),
//! and on wake-up **FETCH** it, **leap by `2K`**, synchronously SAVE the
//! leaped value, and resume. The `2K` leap covers the worst-case
//! staleness of a FETCH that races an in-flight SAVE, giving (§5):
//!
//! * no replayed message is ever accepted,
//! * a sender reset wastes ≤ `2Kp` sequence numbers (and, without
//!   reorder, loses **zero** fresh messages),
//! * a receiver reset discards ≤ `2Kq` fresh messages.
//!
//! # Layout
//!
//! * [`SeqNum`] — sequence numbers (the paper's unbounded integers).
//! * [`AntiReplayWindow`] / [`Verdict`] — the §2 window with its three
//!   receive cases.
//! * [`SfMachine`] ([`machine`]) — the §4 protocol as a **pure
//!   transition function** `step(SfEvent) → SfEffects`: no store, no
//!   clock, hashable state — the substrate the `reset-model` bounded
//!   exhaustive explorer enumerates and cross-checks.
//! * [`SfDriver`] — the one thin **driver** over [`SfMachine`], for
//!   either role, that owns the stable store: the §4 protocol with
//!   SAVE/FETCH, background-save races, wake-up leap and (bounded)
//!   receive buffering.
//!
//! The §2 protocol with the §3 naive restart (the vulnerable baseline)
//! is figure code and lives above the gateway, in `reset-harness`. This
//! crate is the root of the workspace's dependency graph — it depends
//! on `reset-stable` alone — and the
//! repo-level `ARCHITECTURE.md` maps the crates built on top of it
//! (wire format, IPsec substrate, stores, harnesses) and the
//! invariants they share.
//!
//! # Performance
//!
//! The paper's premise is that the anti-replay check must be negligible
//! next to a ~4 µs per-message budget. The window datapath is tuned
//! accordingly (measured as `core.window_ns` by the benchmark of record,
//! `BENCHMARK.json`, and across window sizes by experiment t6):
//!
//! * [`AntiReplayWindow::check_and_accept`] is fused: the in-window path
//!   computes the bit index once and tests-and-sets in a single pass;
//!   the slide path clears newly entered bits at **word** granularity
//!   (whole `u64` stores, masked edges) instead of one bit at a time,
//!   and skips the accepted bit entirely — the dominant in-order slide
//!   (distance 1) clears nothing.
//! * Result: ~2.1–2.8 ns per in-order packet at `w = 1024` with exact
//!   (non-rounded) window semantics, about half the cost of a
//!   bit-at-a-time slide. Correctness is pinned by a 100k-packet
//!   differential against a `HashSet` model (`tests/it_properties.rs`)
//!   and a slide-distance sweep against a bit-model in `window.rs`.
//! * The surrounding ESP pipeline amortizes the remaining per-packet
//!   costs: precomputed per-SA HMAC key schedules (1.59× ICV throughput
//!   on 64-byte payloads), zero-copy payload delivery, and a recycled
//!   decryption arena (`reset-ipsec`'s `Inbound::process_batch`).
//!
//! # Examples
//!
//! The §4 defence against the §3 attack (a receiver reset followed by a
//! replay of the whole history):
//!
//! ```
//! use anti_replay::{SeqNum, SfDriver};
//! use reset_stable::{MemStable, SlotId};
//!
//! // SAVE/FETCH: the counter was saved every K = 10 messages.
//! let mut patched = SfDriver::receiver(MemStable::new(), SlotId::receiver(1), 10, 32);
//! for s in 1..=100u64 {
//!     patched.receive(SeqNum::new(s));
//!     patched.save_completed()?; // background save completes promptly
//! }
//! patched.reset();
//! patched.wake_up()?; // FETCH + leap 2K
//! // Every replay of old traffic is rejected:
//! for s in 1..=100u64 {
//!     assert!(!patched.receive(SeqNum::new(s)).is_delivered());
//! }
//! # Ok::<(), reset_stable::StableError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod machine;
mod savefetch;
mod seq;
mod window;

pub use machine::{FetchFaultKind, SfEffect, SfEvent, SfMachine};
pub use savefetch::{Phase, RxOutcome, SfDriver, Wakeup};
pub use seq::SeqNum;
pub use window::{AntiReplayWindow, Verdict};
