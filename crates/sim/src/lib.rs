//! # reset-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the execution substrate for the reproduction of
//! *Convergence of IPsec in Presence of Resets* (Huang, Gouda, Elnozahy).
//! The paper's guarantees are statements about orderings of sends,
//! receives, background SAVE completions and crash instants; a seeded
//! discrete-event simulator lets the experiments explore exactly those
//! orderings reproducibly.
//!
//! The pieces:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual nanosecond clock.
//! * [`DetRng`] — a locally implemented xoshiro256++ generator so random
//!   streams are stable across toolchains; forkable per component.
//! * [`Simulator`] — time-ordered event queue with cancellation and
//!   deterministic FIFO tie-breaking.
//! * [`TraceLog`] — bounded human-readable execution traces.
//! * [`Summary`] / [`Histogram`] — online statistics for experiment
//!   reports.
//!
//! # Examples
//!
//! ```
//! use reset_sim::{ControlFlow, SimDuration, Simulator};
//!
//! // A two-event "protocol": a send and its delivery.
//! #[derive(Debug)]
//! enum Ev { Send(u64), Deliver(u64) }
//!
//! let mut sim = Simulator::new(0xC0FFEE);
//! sim.schedule_in(SimDuration::from_micros(1), Ev::Send(1));
//! let mut delivered = Vec::new();
//! sim.run(1_000, |sim, _, ev| {
//!     match ev {
//!         Ev::Send(s) => {
//!             sim.schedule_in(SimDuration::from_micros(40), Ev::Deliver(s));
//!         }
//!         Ev::Deliver(s) => delivered.push(s),
//!     }
//!     ControlFlow::Continue
//! });
//! assert_eq!(delivered, vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod simulator;
mod stats;
mod time;
mod trace;

pub use rng::{splitmix64, DetRng};
pub use simulator::{ControlFlow, EventId, Simulator};
pub use stats::{Histogram, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEntry, TraceLog};
