//! The paper's message channel and replay adversary.
//!
//! Between the paper's processes `p` and `q` sits a channel that "may
//! lose or reorder" messages, plus an adversary who "can insert … a copy
//! of any message t that was sent earlier by p" (§2). The scenario
//! runner and t6 model both with this module:
//!
//! * [`Link`] / [`LinkConfig`] — loss, duplication, delay, jitter
//!   (reordering), optional FIFO clamping. A link executes nothing
//!   itself: it maps each send to zero or more `(delivery_time, message)`
//!   pairs which the caller schedules on its simulator, keeping all event
//!   ordering in one place.
//! * [`Tap`] — records traffic and replays it: whole-history replay (the
//!   §3 receiver-reset attack), highest-sequence replay (the §3
//!   both-reset attack) and random noise. Injection goes back through
//!   the caller's simulator, so replayed traffic shares the normal
//!   delivery path.
//! * [`reorder_degrees`] / [`max_reorder_degree`] — the §2 reorder degree
//!   actually experienced, so w-Delivery experiments can check their
//!   premise.

use reset_sim::{DetRng, SimDuration, SimTime};

/// Fault and timing parameters of the scenario's link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Probability a sent message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is additionally duplicated.
    pub duplicate_prob: f64,
    /// Minimum propagation delay.
    pub base_delay: SimDuration,
    /// Uniform extra delay in `[0, jitter]`; jitter larger than the
    /// inter-send gap is what produces reordering.
    pub jitter: SimDuration,
    /// When true, delivery order is forced to match send order (delays are
    /// clamped to be non-decreasing): a lossy FIFO pipe.
    pub fifo: bool,
}

impl LinkConfig {
    /// A perfect link: no loss, no duplication, fixed small delay, FIFO.
    pub fn perfect() -> Self {
        LinkConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            base_delay: SimDuration::from_micros(50),
            jitter: SimDuration::ZERO,
            fifo: true,
        }
    }

    /// A lossy but ordered link.
    pub(crate) fn lossy(drop_prob: f64) -> Self {
        LinkConfig {
            drop_prob,
            ..LinkConfig::perfect()
        }
    }

    /// An unordered link whose jitter spans `jitter`; combined with the
    /// send rate this controls the reorder degree seen by the receiver.
    pub(crate) fn jittery(jitter: SimDuration) -> Self {
        LinkConfig {
            jitter,
            fifo: false,
            ..LinkConfig::perfect()
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::perfect()
    }
}

/// Statistics the scenario's link keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages handed to the link.
    pub sent: u64,
    /// Messages scheduled for delivery (incl. duplicates).
    pub delivered: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
}

/// A unidirectional faulty link.
#[derive(Debug, Clone)]
pub(crate) struct Link {
    config: LinkConfig,
    rng: DetRng,
    stats: LinkStats,
    last_delivery: SimTime,
}

impl Link {
    /// A link with the given fault configuration and its own RNG stream.
    pub(crate) fn new(config: LinkConfig, rng: DetRng) -> Self {
        Link {
            config,
            rng,
            stats: LinkStats::default(),
            last_delivery: SimTime::ZERO,
        }
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Maps one send at `now` to its deliveries. Returns zero entries on a
    /// drop, one normally, two when duplicated. Deliveries are
    /// `(time, message)` pairs for the caller to schedule.
    pub(crate) fn transmit<M: Clone>(&mut self, now: SimTime, msg: M) -> Vec<(SimTime, M)> {
        self.stats.sent += 1;
        if self.rng.chance(self.config.drop_prob) {
            self.stats.dropped += 1;
            return Vec::new();
        }
        let mut out = Vec::with_capacity(2);
        let first = self.delivery_time(now);
        out.push((first, msg.clone()));
        self.stats.delivered += 1;
        if self.rng.chance(self.config.duplicate_prob) {
            let second = self.delivery_time(now);
            out.push((second, msg));
            self.stats.delivered += 1;
            self.stats.duplicated += 1;
        }
        out
    }

    fn delivery_time(&mut self, now: SimTime) -> SimTime {
        let jitter_ns = if self.config.jitter.is_zero() {
            0
        } else {
            self.rng.below(self.config.jitter.as_nanos() + 1)
        };
        let mut at = now + self.config.base_delay + SimDuration::from_nanos(jitter_ns);
        if self.config.fifo && at < self.last_delivery {
            at = self.last_delivery;
        }
        self.last_delivery = self.last_delivery.max(at);
        at
    }
}

/// Passive recorder + active replayer sitting on a link.
#[derive(Debug, Clone)]
pub(crate) struct Tap<M> {
    recorded: Vec<M>,
    injected: u64,
}

impl<M: Clone> Tap<M> {
    /// An empty tap.
    pub(crate) fn new() -> Self {
        Tap {
            recorded: Vec::new(),
            injected: 0,
        }
    }

    /// Records one message passing over the link.
    pub(crate) fn record(&mut self, msg: M) {
        self.recorded.push(msg);
    }

    /// Total messages injected across all replay calls.
    pub(crate) fn injected(&self) -> u64 {
        self.injected
    }

    /// Replays the full recorded history in original order — the §3
    /// attack after a receiver reset ("replay in order all the messages
    /// with sequence numbers within the range from 1 to x").
    pub(crate) fn replay_all(&mut self) -> Vec<M> {
        self.injected += self.recorded.len() as u64;
        self.recorded.clone()
    }

    /// Replays the most recently recorded message — the §3 "both reset"
    /// attack injects the *highest* sequence number to shift the window.
    pub(crate) fn replay_latest(&mut self) -> Option<M> {
        let m = self.recorded.last().cloned();
        if m.is_some() {
            self.injected += 1;
        }
        m
    }

    /// Replays `count` uniformly random recorded messages (with
    /// replacement) — background replay noise for stress tests.
    pub(crate) fn replay_random(&mut self, count: usize, rng: &mut DetRng) -> Vec<M> {
        if self.recorded.is_empty() {
            return Vec::new();
        }
        self.injected += count as u64;
        (0..count)
            .map(|_| self.recorded[rng.below(self.recorded.len() as u64) as usize].clone())
            .collect()
    }
}

/// Computes the maximum reorder degree of a received stream.
///
/// `receive_order` lists the *send indices* of messages in the order the
/// receiver saw them (duplicates allowed; only the first arrival of each
/// message defines its degree).
pub(crate) fn max_reorder_degree(receive_order: &[u64]) -> u64 {
    reorder_degrees(receive_order)
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// Per-arrival reorder degrees, aligned with `receive_order`.
///
/// §2 of the paper: *"A message m is said to suffer a reorder of degree w
/// iff the w-th message sent (by p) after m is received (by q) before
/// m."* So the degree of the arrival at position `p` carrying send index
/// `i` is `max(j − i)` over send indices `j > i` seen strictly before `p`
/// (0 when none). The w-Delivery condition only promises delivery of
/// messages with degree < w — exactly the set the window can still
/// discriminate when they arrive. Since only the running maximum of
/// earlier indices matters, this is linear time.
pub fn reorder_degrees(receive_order: &[u64]) -> Vec<u64> {
    let mut max_seen: Option<u64> = None;
    let mut out = Vec::with_capacity(receive_order.len());
    for &i in receive_order {
        let degree = match max_seen {
            Some(m) if m > i => m - i,
            _ => 0,
        };
        out.push(degree);
        max_seen = Some(max_seen.map_or(i, |m| m.max(i)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xBEEF)
    }

    #[test]
    fn lossy_link_traffic_is_recorded_and_replayed() {
        let mut rng = DetRng::new(7);
        let mut link = Link::new(LinkConfig::lossy(0.1), rng.fork());
        let mut tap: Tap<u64> = Tap::new();
        // Normal traffic is recorded as it crosses the wire.
        for seq in 1..=10u64 {
            for (_at, msg) in link.transmit(SimTime::from_micros(seq), seq) {
                tap.record(msg);
            }
        }
        // Later, the adversary replays the whole recorded history.
        let replayed = tap.replay_all();
        assert!(!replayed.is_empty());
    }

    #[test]
    fn perfect_link_delays_its_one_delivery() {
        let mut rng = DetRng::new(1);
        let mut link = Link::new(LinkConfig::perfect(), rng.fork());
        let deliveries = link.transmit(SimTime::ZERO, "msg(1)");
        assert_eq!(deliveries.len(), 1);
        assert!(deliveries[0].0 > SimTime::ZERO); // propagation delay
    }

    #[test]
    fn perfect_link_delivers_everything_in_order() {
        let mut link = Link::new(LinkConfig::perfect(), rng());
        let mut last = SimTime::ZERO;
        for i in 0..100u64 {
            let now = SimTime::from_micros(i);
            let d = link.transmit(now, i);
            assert_eq!(d.len(), 1);
            assert!(d[0].0 >= last, "FIFO violated");
            last = d[0].0;
        }
        assert_eq!(link.stats().dropped, 0);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut link = Link::new(LinkConfig::lossy(1.0), rng());
        for i in 0..10u64 {
            assert!(link.transmit(SimTime::from_micros(i), i).is_empty());
        }
        assert_eq!(link.stats().dropped, 10);
        assert_eq!(link.stats().delivered, 0);
    }

    #[test]
    fn partial_loss_rate_roughly_matches() {
        let mut link = Link::new(LinkConfig::lossy(0.25), rng());
        let mut delivered = 0;
        for i in 0..10_000u64 {
            if !link.transmit(SimTime::from_micros(i), i).is_empty() {
                delivered += 1;
            }
        }
        assert!((7_000..8_000).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    fn duplication_produces_two_copies() {
        let cfg = LinkConfig {
            duplicate_prob: 1.0,
            ..LinkConfig::perfect()
        };
        let mut link = Link::new(cfg, rng());
        let d = link.transmit(SimTime::ZERO, 42u64);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].1, 42);
        assert_eq!(d[1].1, 42);
        assert_eq!(link.stats().duplicated, 1);
    }

    #[test]
    fn jitter_without_fifo_can_reorder() {
        let cfg = LinkConfig::jittery(SimDuration::from_micros(500));
        let mut link = Link::new(cfg, rng());
        // Send fast relative to jitter; check some pair is out of order.
        let mut times = Vec::new();
        for i in 0..200u64 {
            let d = link.transmit(SimTime::from_micros(i), i);
            times.push(d[0].0);
        }
        let reordered = times.windows(2).any(|w| w[1] < w[0]);
        assert!(reordered, "expected at least one inversion");
    }

    #[test]
    fn fifo_clamps_jitter() {
        let cfg = LinkConfig {
            jitter: SimDuration::from_micros(500),
            fifo: true,
            ..LinkConfig::perfect()
        };
        let mut link = Link::new(cfg, rng());
        let mut last = SimTime::ZERO;
        for i in 0..200u64 {
            let d = link.transmit(SimTime::from_micros(i), i);
            assert!(d[0].0 >= last);
            last = d[0].0;
        }
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let mk = || {
            let mut link = Link::new(
                LinkConfig {
                    drop_prob: 0.3,
                    duplicate_prob: 0.2,
                    jitter: SimDuration::from_micros(100),
                    fifo: false,
                    ..LinkConfig::perfect()
                },
                DetRng::new(777),
            );
            (0..100u64)
                .flat_map(|i| link.transmit(SimTime::from_micros(i), i))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn tap_replays_the_whole_history_in_order() {
        let mut tap = Tap::new();
        tap.record("msg(1)");
        tap.record("msg(2)");
        // The §3 attack: after the receiver resets, replay the entire
        // recorded history in order.
        assert_eq!(tap.replay_all(), vec!["msg(1)", "msg(2)"]);
        assert_eq!(tap.injected(), 2);
    }

    #[test]
    fn replay_all_preserves_order_and_counts() {
        let mut tap = Tap::new();
        tap.record("a");
        tap.record("b");
        assert_eq!(tap.replay_all(), vec!["a", "b"]);
        assert_eq!(tap.replay_all(), vec!["a", "b"], "replay is repeatable");
        assert_eq!(tap.injected(), 4);
    }

    #[test]
    fn replay_latest_is_highest_recorded() {
        let mut tap = Tap::new();
        assert_eq!(tap.replay_latest(), None);
        tap.record(1u64);
        tap.record(99);
        assert_eq!(tap.replay_latest(), Some(99));
        assert_eq!(tap.injected(), 1);
    }

    #[test]
    fn replay_random_draws_from_recorded() {
        let mut tap = Tap::new();
        for i in 0..4u32 {
            tap.record(i);
        }
        let mut rng = DetRng::new(5);
        let picks = tap.replay_random(100, &mut rng);
        assert_eq!(picks.len(), 100);
        assert!(picks.iter().all(|p| *p < 4));
        assert_eq!(tap.injected(), 100);
    }

    #[test]
    fn replay_random_on_empty_is_empty() {
        let mut tap: Tap<u32> = Tap::new();
        let mut rng = DetRng::new(5);
        assert!(tap.replay_random(10, &mut rng).is_empty());
        assert_eq!(tap.injected(), 0);
    }

    #[test]
    fn max_reorder_degree_is_the_furthest_overtake() {
        assert_eq!(max_reorder_degree(&[0, 1, 2, 3]), 0); // in order
        assert_eq!(max_reorder_degree(&[1, 0]), 1); // msg 1 overtook msg 0
        assert_eq!(max_reorder_degree(&[3, 0]), 3); // the 3rd-after overtook
        assert_eq!(max_reorder_degree(&[1, 2, 3, 0]), 3);
    }

    #[test]
    fn in_order_stream_has_degree_zero() {
        assert_eq!(max_reorder_degree(&(0..100).collect::<Vec<_>>()), 0);
        assert_eq!(max_reorder_degree(&[]), 0);
        assert_eq!(max_reorder_degree(&[5]), 0);
    }

    #[test]
    fn single_swap_is_degree_one() {
        assert_eq!(max_reorder_degree(&[0, 2, 1, 3]), 1);
    }

    #[test]
    fn deeply_late_message() {
        // Message 0 arrives after message 5: the 5th message sent after
        // it was received first, so degree 5.
        assert_eq!(max_reorder_degree(&[1, 2, 3, 4, 5, 0]), 5);
    }

    #[test]
    fn offset_counts_even_with_losses() {
        // Only messages 9 then 1 arrive: msg 8-after-1 overtook → degree 8.
        assert_eq!(max_reorder_degree(&[9, 1]), 8);
    }

    #[test]
    fn duplicates_use_offset_too() {
        // The same later message received thrice still gives offset 2.
        assert_eq!(max_reorder_degree(&[2, 2, 2, 0]), 2);
    }

    #[test]
    fn per_arrival_degrees() {
        assert_eq!(reorder_degrees(&[1, 0, 2]), vec![0, 1, 0]);
        assert_eq!(reorder_degrees(&[3, 0, 1, 4, 2]), vec![0, 3, 2, 0, 2]);
    }

    #[test]
    fn reversed_stream_worst_case() {
        let rev: Vec<u64> = (0..10).rev().collect();
        assert_eq!(max_reorder_degree(&rev), 9);
    }

    #[test]
    fn degree_matches_window_staleness() {
        // The whole point of the definition: first-arrival degree < w
        // iff the arrival is not yet left of a w-window whose right edge
        // is the max index seen so far.
        let order = [5u64, 9, 2, 14, 3];
        let degrees = reorder_degrees(&order);
        let mut max_seen = None::<u64>;
        for (pos, &i) in order.iter().enumerate() {
            if let Some(m) = max_seen {
                let w = 6u64;
                let stale = i + w <= m;
                assert_eq!(stale, degrees[pos] >= w, "pos {pos}");
            }
            max_seen = Some(max_seen.map_or(i, |m| m.max(i)));
        }
    }
}
