//! # reset-apn — Abstract Protocol Notation runtime
//!
//! The paper specifies its protocols in Gouda's Abstract Protocol
//! Notation (APN): each process is a set of constants, variables and
//! guarded actions `<guard> → <statement>`, executed one at a time under
//! weak fairness. This crate embeds that notation in Rust so the paper's
//! processes `p` and `q` can be transcribed action-for-action and
//! executed — including the environment's fault moves (message loss,
//! duplication, adversary injection, reset and wake-up).
//!
//! * [`ApnProcess`] — a process: actions with [`GuardKind::Local`] or
//!   [`GuardKind::Receive`] guards, plus reset/wake-up fault hooks.
//! * [`System`] — channels + scheduler; [`Schedule::RoundRobin`] delivers
//!   the notation's weak fairness, [`Schedule::Random`] explores seeded
//!   interleavings, and [`System::enabled`] / [`System::fire`] support
//!   exhaustive state-space exploration in tests.
//!
//! The runtime ([`ApnProcess`], [`System`]) is protocol-agnostic; the
//! paper's processes `p` and `q`, transcribed onto it from
//! `anti-replay`'s endpoints, are in [`apn_model`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apn_model;
mod process;
mod system;

pub use process::{ApnProcess, GuardKind, Outbox, ProcId};
pub use system::{Schedule, Step, System};
