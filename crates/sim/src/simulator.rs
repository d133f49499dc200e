//! The discrete-event simulation core.
//!
//! A [`Simulator`] owns a virtual clock and a priority queue of pending
//! events. Callers pump events with [`Simulator::next_event`]; handler
//! logic lives outside the simulator so that protocol state machines stay
//! pure and the simulator stays generic over the event type.
//!
//! Two events scheduled for the same instant are delivered in scheduling
//! order (FIFO tie-break), which keeps runs deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::rng::DetRng;
use crate::time::SimTime;

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    /// Scheduling order: breaks ties between equal `at`.
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first. Equal times fall back to scheduling order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulator generic over the event type.
///
/// # Examples
///
/// ```
/// use reset_sim::{SimTime, Simulator};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut sim = Simulator::new(1);
/// sim.schedule_at(SimTime::from_nanos(5), Ev::Pong);
/// sim.schedule_at(SimTime::from_nanos(1), Ev::Ping);
/// assert_eq!(sim.peek_time(), Some(SimTime::from_nanos(1)));
/// let (t1, e1) = sim.next_event().unwrap();
/// assert_eq!((t1.as_nanos(), e1), (1, Ev::Ping));
/// let (t2, e2) = sim.next_event().unwrap();
/// assert_eq!((t2.as_nanos(), e2), (5, Ev::Pong));
/// assert!(sim.next_event().is_none());
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    rng: DetRng,
}

impl<E> Simulator<E> {
    /// Creates a simulator whose root RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            rng: DetRng::new(seed),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulator's root RNG. Components should [`DetRng::fork`] their
    /// own stream from it at setup time.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Simulator::now`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Schedules `event` at the current instant (delivered after any
    /// already-queued events for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let s = self.queue.pop()?;
        debug_assert!(s.at >= self.now, "time must be monotone");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// The timestamp of the next event, without delivering it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|s| s.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq, Clone)]
    enum Ev {
        A,
        B,
        C,
    }

    #[test]
    fn delivers_in_time_order() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_nanos(30), Ev::C);
        sim.schedule_at(SimTime::from_nanos(10), Ev::A);
        sim.schedule_at(SimTime::from_nanos(20), Ev::B);
        assert_eq!(sim.peek_time(), Some(SimTime::from_nanos(10)));
        let order: Vec<_> = std::iter::from_fn(|| sim.next_event())
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, vec![Ev::A, Ev::B, Ev::C]);
        assert_eq!(sim.peek_time(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_nanos(5), Ev::A);
        sim.schedule_at(SimTime::from_nanos(5), Ev::B);
        sim.schedule_at(SimTime::from_nanos(5), Ev::C);
        let order: Vec<_> = std::iter::from_fn(|| sim.next_event())
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, vec![Ev::A, Ev::B, Ev::C]);
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::ZERO + SimDuration::from_micros(7), Ev::A);
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t.as_micros(), 7);
        assert_eq!(sim.now().as_micros(), 7);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_nanos(10), Ev::A);
        let _ = sim.next_event();
        sim.schedule_at(SimTime::from_nanos(5), Ev::B);
    }

    #[test]
    fn handler_may_schedule_more_events() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_nanos(1), 0u32);
        let mut total = 0;
        while let Some((now, n)) = sim.next_event() {
            total += 1;
            if n < 5 {
                sim.schedule_at(now + SimDuration::from_nanos(1), n + 1);
            }
        }
        assert_eq!(total, 6);
        assert_eq!(sim.now().as_nanos(), 6);
    }
}
