//! t7 — §6's prolonged-reset recovery, end to end.
//!
//! Timeline reproduced: bidirectional traffic → B is reset and stays
//! down → A's dead-peer detection probes, then presumes B down and keeps
//! the SA pair alive (grace) → B wakes up, FETCHes, leaps, and sends the
//! secured "I am up, my counter is now X" notify → A validates it
//! against the right edge of its anti-replay window and resumes → the
//! adversary replays the notify and every pre-reset packet: all rejected.

use bytes::Bytes;
use reset_ipsec::{DpdConfig, Gateway, GatewayBuilder, GatewayEvent};
use reset_stable::MemStable;

use crate::report::Table;

/// The one SA pair between A and B (direction-separated keys).
const SPI: u32 = 0xA2B;

/// Metrics from one full §6 run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T7Outcome {
    /// Probes A sent before presuming B down.
    pub probes_sent: u32,
    /// Virtual time (ns) at which A presumed B down.
    pub presumed_down_at: u64,
    /// The leaped counter B announced.
    pub announced_seq: u64,
    /// Did A accept the recovery notify?
    pub notify_accepted: bool,
    /// Was the replayed notify rejected?
    pub replayed_notify_rejected: bool,
    /// Pre-reset packets replayed and rejected.
    pub replayed_data_rejected: u64,
    /// Fresh A→B messages sacrificed after recovery (≤ 2K).
    pub fresh_sacrificed: u64,
    /// Save interval used.
    pub k: u64,
}

/// Seals `payload` on the pair's outbound SA.
fn send(gw: &mut Gateway<MemStable>, payload: &[u8]) -> Bytes {
    gw.protect(SPI, payload).expect("up").expect("wire").wire
}

/// Pushes one frame and returns its verdict.
fn push(gw: &mut Gateway<MemStable>, wire: &Bytes) -> GatewayEvent {
    gw.push_wire(wire).expect("verdicts are events");
    let mut events = gw.poll_events();
    assert_eq!(events.len(), 1, "one event per frame: {events:?}");
    events.remove(0)
}

/// Runs the §6 scenario with save interval `k`.
pub fn run(k: u64) -> T7Outcome {
    let host = |local: &[u8], remote: &[u8]| {
        let mut gw = GatewayBuilder::in_memory()
            .save_interval(k)
            .window(64)
            .dpd(DpdConfig {
                idle_timeout_ns: 1_000_000,
                probe_interval_ns: 500_000,
                max_probes: 3,
                grace_period_ns: 60_000_000,
            })
            .build();
        gw.add_peer_between(SPI, b"ikm", local, remote);
        gw
    };
    let mut a = host(b"a", b"b");
    let mut b = host(b"b", b"a");

    // Phase 1: bidirectional traffic; record B→A for the replay attack.
    let mut recorded_b2a = Vec::new();
    let mut now = 0u64;
    for i in 0..40u64 {
        now = i * 10_000;
        a.tick(now);
        let w = send(&mut a, format!("a{i}").as_bytes());
        assert!(matches!(push(&mut b, &w), GatewayEvent::Delivered { .. }));
        let w = send(&mut b, format!("b{i}").as_bytes());
        assert!(matches!(push(&mut a, &w), GatewayEvent::Delivered { .. }));
        recorded_b2a.push(w);
    }
    // Make B's counters durable, then crash B.
    b.save_completed().expect("store");
    b.reset();

    // Phase 2: A's DPD notices the silence.
    let mut probes_sent = 0u32;
    while a.in_grace(SPI) != Some(true) {
        now += 250_000;
        a.tick(now);
        for ev in a.poll_events() {
            match ev {
                GatewayEvent::ProbeDue { .. } => {
                    probes_sent += 1;
                    // B is down; the probe evaporates.
                    let probe = send(&mut a, b"R-U-THERE");
                    assert!(matches!(
                        push(&mut b, &probe),
                        GatewayEvent::DroppedDown { .. }
                    ));
                }
                other => panic!("grace must not expire yet: {other:?}"),
            }
        }
    }
    let presumed_down_at = now;

    // Phase 3: B wakes up within the grace period and announces itself —
    // the notify is simply its first protected frame after FETCH + leap.
    now += 5_000_000;
    a.tick(now);
    b.recover().expect("wake");
    b.poll_events();
    let notify = send(&mut b, b"recovered");
    let (notify_accepted, announced_seq) = match push(&mut a, &notify) {
        GatewayEvent::Delivered { seq, .. } => (true, seq.value()),
        _ => (false, 0),
    };
    assert_eq!(a.in_grace(SPI), Some(false), "recovery revives the peer");

    // Phase 4: the adversary replays the notify and the old traffic.
    let replayed_notify_rejected =
        matches!(push(&mut a, &notify), GatewayEvent::ReplayDropped { .. });
    let replayed_data_rejected = recorded_b2a
        .iter()
        .filter(|w| matches!(push(&mut a, w), GatewayEvent::ReplayDropped { .. }))
        .count() as u64;

    // Phase 5: A→B traffic resumes, sacrificing at most 2K messages
    // (B's inbound window leaped ahead of A's live counter).
    let mut fresh_sacrificed = 0u64;
    loop {
        let w = send(&mut a, b"resume");
        match push(&mut b, &w) {
            GatewayEvent::Delivered { .. } => break,
            GatewayEvent::ReplayDropped { .. } => fresh_sacrificed += 1,
            other => panic!("{other:?}"),
        }
        assert!(fresh_sacrificed <= 2 * k + 1, "sacrifice exceeded bound");
    }

    T7Outcome {
        probes_sent,
        presumed_down_at,
        announced_seq,
        notify_accepted,
        replayed_notify_rejected,
        replayed_data_rejected,
        fresh_sacrificed,
        k,
    }
}

/// Renders the t7 table over several save intervals.
///
/// # Panics
///
/// Panics if any §6 property fails.
pub fn table(ks: &[u64]) -> Table {
    let mut t = Table::new(
        "t7: prolonged reset — DPD grace + secured recovery notify (§6)",
        &[
            "K",
            "probes",
            "announced_seq",
            "notify_accepted",
            "replayed_notify_rejected",
            "old_replays_rejected",
            "fresh_sacrificed",
            "bound(2K)",
        ],
    );
    for &k in ks {
        let o = run(k);
        assert!(o.notify_accepted, "recovery notify must be accepted");
        assert!(o.replayed_notify_rejected, "replayed notify must bounce");
        assert_eq!(o.replayed_data_rejected, 40, "all old traffic rejected");
        assert!(o.fresh_sacrificed <= 2 * k);
        t.row_owned(vec![
            k.to_string(),
            o.probes_sent.to_string(),
            o.announced_seq.to_string(),
            o.notify_accepted.to_string(),
            o.replayed_notify_rejected.to_string(),
            o.replayed_data_rejected.to_string(),
            o.fresh_sacrificed.to_string(),
            (2 * k).to_string(),
        ]);
    }
    t.note("the notify is validated against the window right edge, exactly as §6 prescribes");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scenario_properties() {
        let o = run(10);
        assert_eq!(o.probes_sent, 3);
        // Last traffic at 390 µs + 1 ms idle + three 0.5 ms probe gaps.
        assert_eq!(o.presumed_down_at, 2_890_000);
        assert!(o.notify_accepted);
        assert!(o.replayed_notify_rejected);
        assert_eq!(o.replayed_data_rejected, 40);
        assert!(o.fresh_sacrificed <= 20);
        assert!(o.announced_seq > 40, "leaped beyond pre-reset counter");
    }

    #[test]
    fn table_over_ks() {
        let t = table(&[5, 25]);
        assert_eq!(t.len(), 2);
    }
}
