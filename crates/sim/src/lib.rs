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
//! * [`Simulator`] — time-ordered event queue with deterministic FIFO
//!   tie-breaking.
//!
//! # Examples
//!
//! ```
//! use reset_sim::{SimDuration, SimTime, Simulator};
//!
//! // A two-event "protocol": a send and its delivery.
//! #[derive(Debug)]
//! enum Ev { Send(u64), Deliver(u64) }
//!
//! let mut sim = Simulator::new(0xC0FFEE);
//! sim.schedule_at(SimTime::ZERO + SimDuration::from_micros(1), Ev::Send(1));
//! let mut delivered = Vec::new();
//! while let Some((now, ev)) = sim.next_event() {
//!     match ev {
//!         Ev::Send(s) => sim.schedule_at(now + SimDuration::from_micros(40), Ev::Deliver(s)),
//!         Ev::Deliver(s) => delivered.push((now.as_micros(), s)),
//!     }
//! }
//! assert_eq!(delivered, vec![(41, 1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod simulator;
mod time;

pub use rng::{splitmix64, DetRng};
pub use simulator::Simulator;
pub use time::{SimDuration, SimTime};
