//! t6 — the §2 conditions: w-Delivery and Discrimination.
//!
//! Without resets, the anti-replay window promises:
//!
//! * **w-Delivery** — every message neither lost nor reordered by degree
//!   ≥ w is delivered (at least once);
//! * **Discrimination** — at most one copy of every message is delivered.
//!
//! The experiment drives the window through channels with loss,
//! duplication and jitter, measures the actual reorder degree
//! (per the §2 definition), and checks both conditions exactly — also
//! demonstrating the caveat the paper cites from \[2\]: severe reorder
//! (degree ≥ w) may discard good messages.

use std::collections::HashSet;

use anti_replay::SeqNum;
use reset_sim::{DetRng, SimDuration, SimTime};

use crate::baseline::BaselineReceiver;
use crate::channel::{max_reorder_degree, reorder_degrees, Link, LinkConfig};
use crate::report::Table;

/// Result of one channel configuration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T6Row {
    /// Configuration label.
    pub label: String,
    /// Window size.
    pub w: u64,
    /// Messages sent.
    pub sent: u64,
    /// Messages the channel delivered at least one copy of.
    pub arrived: u64,
    /// Distinct messages delivered by the window.
    pub delivered: u64,
    /// Copies rejected as duplicates.
    pub dup_rejected: u64,
    /// Copies rejected as stale (reorder ≥ w casualties).
    pub stale_rejected: u64,
    /// Maximum reorder degree observed.
    pub max_reorder: u64,
    /// Messages entitled to delivery (arrived with reorder < w) that were
    /// delivered — must equal `entitled`.
    pub entitled: u64,
    /// Of the entitled, how many were delivered.
    pub entitled_delivered: u64,
    /// Double deliveries (must be 0 — Discrimination).
    pub double_delivered: u64,
}

/// Runs one configuration: `n` messages through `link_cfg` into a window
/// of size `w`.
pub fn run_one(label: &str, link_cfg: LinkConfig, w: u64, n: u64, seed: u64) -> T6Row {
    let mut rng = DetRng::new(seed);
    let mut link = Link::new(link_cfg, rng.fork());
    // Collect all deliveries as (time, event-id, seq) and sort by time to
    // obtain the receive order.
    let mut deliveries: Vec<(SimTime, u64, u64)> = Vec::new();
    let mut eid = 0u64;
    for s in 1..=n {
        let now = SimTime::from_micros(s * 4);
        for (at, msg) in link.transmit(now, s) {
            deliveries.push((at, eid, msg));
            eid += 1;
        }
    }
    deliveries.sort();
    let receive_order: Vec<u64> = deliveries.iter().map(|&(_, _, s)| s).collect();

    // Per-message reorder degree (paper §2 definition), computed on the
    // first arrival of each message.
    let degrees = reorder_degrees(&receive_order);
    let mut first_degree: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for (i, &s) in receive_order.iter().enumerate() {
        first_degree.entry(s).or_insert(degrees[i]);
    }

    let mut q = BaselineReceiver::new(w);
    let mut delivered_set: HashSet<u64> = HashSet::new();
    let mut double_delivered = 0;
    let mut dup_rejected = 0;
    let mut stale_rejected = 0;
    for &s in &receive_order {
        use anti_replay::Verdict;
        match q.receive(SeqNum::new(s)) {
            Verdict::Fresh => {
                if !delivered_set.insert(s) {
                    double_delivered += 1;
                }
            }
            Verdict::Duplicate => dup_rejected += 1,
            Verdict::Stale => stale_rejected += 1,
        }
    }

    let arrived: HashSet<u64> = receive_order.iter().copied().collect();
    // Entitled: arrived and first arrival reordered by less than w.
    let entitled: Vec<u64> = arrived
        .iter()
        .copied()
        .filter(|s| first_degree.get(s).copied().unwrap_or(0) < w)
        .collect();
    let entitled_delivered = entitled
        .iter()
        .filter(|s| delivered_set.contains(s))
        .count() as u64;

    T6Row {
        label: label.to_string(),
        w,
        sent: n,
        arrived: arrived.len() as u64,
        delivered: delivered_set.len() as u64,
        dup_rejected,
        stale_rejected,
        max_reorder: max_reorder_degree(&receive_order),
        entitled: entitled.len() as u64,
        entitled_delivered,
        double_delivered,
    }
}

/// Renders the t6 table across channel configurations.
///
/// # Panics
///
/// Panics if Discrimination or w-Delivery is violated in any run.
pub fn table(w: u64, n: u64, seed: u64) -> Table {
    let configs: Vec<(&str, LinkConfig)> = vec![
        ("perfect FIFO", LinkConfig::perfect()),
        ("10% loss, FIFO", LinkConfig::lossy(0.10)),
        (
            "10% duplication",
            LinkConfig {
                duplicate_prob: 0.10,
                ..LinkConfig::perfect()
            },
        ),
        (
            "mild jitter (reorder < w)",
            LinkConfig::jittery(SimDuration::from_micros(40)),
        ),
        (
            "severe jitter (reorder may reach w)",
            LinkConfig::jittery(SimDuration::from_micros(4_000)),
        ),
        (
            "loss+dup+jitter",
            LinkConfig {
                drop_prob: 0.05,
                duplicate_prob: 0.05,
                jitter: SimDuration::from_micros(100),
                fifo: false,
                ..LinkConfig::perfect()
            },
        ),
    ];
    let mut t = Table::new(
        format!("t6: w-Delivery & Discrimination (w = {w}, {n} messages)"),
        &[
            "channel",
            "sent",
            "arrived",
            "delivered",
            "dup_rej",
            "stale_rej",
            "max_reorder",
            "entitled",
            "entitled_delivered",
            "double",
        ],
    );
    for (label, cfg) in configs {
        let r = run_one(label, cfg, w, n, seed);
        assert_eq!(r.double_delivered, 0, "Discrimination violated: {label}");
        assert_eq!(
            r.entitled, r.entitled_delivered,
            "w-Delivery violated: {label}"
        );
        t.row_owned(vec![
            r.label.clone(),
            r.sent.to_string(),
            r.arrived.to_string(),
            r.delivered.to_string(),
            r.dup_rejected.to_string(),
            r.stale_rejected.to_string(),
            r.max_reorder.to_string(),
            r.entitled.to_string(),
            r.entitled_delivered.to_string(),
            r.double_delivered.to_string(),
        ]);
    }
    t.note("entitled = arrived with first-arrival reorder degree < w; all must be delivered");
    t.note(
        "severe jitter shows the [2] caveat: reorder >= w may discard good messages (stale_rej)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_channel_delivers_all_exactly_once() {
        let r = run_one("perfect", LinkConfig::perfect(), 32, 500, 1);
        assert_eq!(r.delivered, 500);
        assert_eq!(r.dup_rejected + r.stale_rejected, 0);
        assert_eq!(r.double_delivered, 0);
        assert_eq!(r.max_reorder, 0);
    }

    #[test]
    fn duplication_rejected_not_double_delivered() {
        let cfg = LinkConfig {
            duplicate_prob: 0.5,
            ..LinkConfig::perfect()
        };
        let r = run_one("dup", cfg, 32, 500, 2);
        assert!(r.dup_rejected > 100);
        assert_eq!(r.double_delivered, 0);
        assert_eq!(r.delivered, 500);
    }

    #[test]
    fn mild_reorder_loses_nothing() {
        let cfg = LinkConfig::jittery(SimDuration::from_micros(40));
        let r = run_one("jitter", cfg, 64, 500, 3);
        assert!(r.max_reorder > 0, "jitter should reorder something");
        assert!(r.max_reorder < 64);
        assert_eq!(r.delivered, 500, "reorder < w loses nothing");
    }

    #[test]
    fn severe_reorder_discards_only_unentitled() {
        let cfg = LinkConfig::jittery(SimDuration::from_micros(4_000));
        let r = run_one("severe", cfg, 16, 800, 4);
        assert!(r.max_reorder >= 16, "jitter should exceed w");
        assert!(r.stale_rejected > 0, "the [2] caveat shows up");
        assert_eq!(r.entitled, r.entitled_delivered, "w-Delivery still holds");
        assert_eq!(r.double_delivered, 0);
    }

    #[test]
    fn table_builds_all_rows() {
        let t = table(32, 300, 5);
        assert_eq!(t.len(), 6);
    }
}
