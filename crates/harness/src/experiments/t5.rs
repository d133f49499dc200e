//! t5 — the cost argument: rescuing an SA vs re-establishing it.
//!
//! §3: "reestablishing the entire IPsec SA is very expensive. It takes
//! the recomputation of most attributes of this SA, especially the keys
//! and shared secrets, and the renegotiation of all these attributes
//! using a secured connection. Moreover, a host may have multiple SAs
//! … Requiring \[it\] to drop and reestablish all the existing SAs because
//! of a reset stands for a huge amount of overhead."
//!
//! Two measurements per row:
//!
//! * a **ledger estimate** using the handshake's exact operation counts
//!   under the paper-era cost model (modexp 10 ms, RTT 40 ms) — what the
//!   authors' hardware would have paid;
//! * a **real wall-clock measurement** on this host: an actual OAKLEY
//!   group-1 handshake (four 768-bit modexps + PRF) vs an actual
//!   SAVE/FETCH recovery against the file-backed store.
//!
//! The shape to reproduce: recovery is orders of magnitude cheaper, and
//! the gap scales linearly with the number of SAs on the host.

use std::time::Instant;

use reset_stable::{Durability, FileStable, SlotId};

use anti_replay::SfDriver;

use crate::dh::oakley_group1;
use crate::ike::{run_handshake, CostModel, HandshakeCost};
use crate::report::Table;

/// Ledger for one SAVE/FETCH recovery (per SA direction): one FETCH read
/// + one synchronous SAVE write, no network, no modexp.
pub fn recovery_cost_ns(t_save_ns: u64) -> u64 {
    // FETCH (read) is bounded by a write; model both as t_save.
    2 * t_save_ns
}

/// Measures one real handshake on this host (wall time, ns).
pub fn measure_handshake_ns() -> (HandshakeCost, u64) {
    let t0 = Instant::now();
    let pair = run_handshake(
        oakley_group1(),
        b"benchmark-psk",
        b"initiator-dh-secret-material",
        b"responder-dh-secret-material",
        0x1000,
        0x2000,
    )
    .expect("handshake succeeds");
    (pair.cost, t0.elapsed().as_nanos() as u64)
}

/// Measures one real SAVE/FETCH recovery against the file store.
pub fn measure_recovery_ns() -> u64 {
    let dir = std::env::temp_dir().join(format!(
        "ipsec-reset-t5-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let store = FileStable::open(&dir, Durability::ProcessCrash).expect("temp dir");
    let mut sender = SfDriver::sender(store, SlotId::sender(1), 25);
    for _ in 0..30 {
        sender.send_next();
    }
    sender.save_completed().expect("store");
    sender.reset();
    let t0 = Instant::now();
    sender.wake_up().expect("store");
    let ns = t0.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    ns
}

/// Renders the t5 table for host SA counts `ns_sas`.
///
/// # Panics
///
/// Panics if recovery is not decisively cheaper than re-establishment —
/// the paper's claim must reproduce.
pub fn table(ns_sas: &[u64]) -> Table {
    let (cost, hs_real_ns) = measure_handshake_ns();
    let rec_real_ns = measure_recovery_ns();
    let model = CostModel::paper_era();
    let hs_model_ns = cost.estimate_ns(&model);
    let rec_model_ns = recovery_cost_ns(100_000); // the paper's disk

    let mut t = Table::new(
        "t5: reset recovery cost — IKE re-establishment vs SAVE/FETCH",
        &[
            "SAs on host",
            "IKE est. (paper-era)",
            "SAVE/FETCH est. (paper-era)",
            "est. ratio",
            "IKE measured (this host)",
            "SAVE/FETCH measured",
            "measured ratio",
        ],
    );
    for &n in ns_sas {
        let hs_model = hs_model_ns * n;
        let rec_model = rec_model_ns * n;
        let hs_real = hs_real_ns * n;
        let rec_real = rec_real_ns.max(1) * n;
        let model_ratio = hs_model as f64 / rec_model.max(1) as f64;
        let real_ratio = hs_real as f64 / rec_real as f64;
        assert!(
            model_ratio > 50.0,
            "paper-era ratio should be large: {model_ratio}"
        );
        assert!(
            real_ratio > 2.0,
            "even on this host recovery must win clearly: {real_ratio}"
        );
        t.row_owned(vec![
            n.to_string(),
            format!("{:.1}ms", hs_model as f64 / 1e6),
            format!("{:.2}ms", rec_model as f64 / 1e6),
            format!("{model_ratio:.0}x"),
            format!("{:.2}ms", hs_real as f64 / 1e6),
            format!("{:.3}ms", rec_real as f64 / 1e6),
            format!("{real_ratio:.0}x"),
        ]);
    }
    t.note(format!(
        "handshake ledger: {} messages, {} round trips, {} modexps, {} PRF calls, {} bytes",
        cost.messages, cost.round_trips, cost.modexps, cost.prf_calls, cost.bytes
    ));
    t.note("SAVE/FETCH per SA: 1 FETCH + 1 synchronous SAVE, zero network round trips");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_ledger_is_two_device_ops() {
        assert_eq!(recovery_cost_ns(100_000), 200_000);
    }

    #[test]
    fn paper_era_gap_is_huge() {
        let (cost, _) = measure_handshake_ns();
        let hs = cost.estimate_ns(&CostModel::paper_era());
        let rec = recovery_cost_ns(100_000);
        // ≥ 3 RTTs (120 ms) + 4 modexps (40 ms) vs 200 µs: > 500×.
        assert!(hs / rec > 500, "hs={hs} rec={rec}");
    }

    #[test]
    fn real_measurements_favor_recovery() {
        let (_, hs_real) = measure_handshake_ns();
        let rec_real = measure_recovery_ns();
        assert!(
            hs_real > rec_real,
            "handshake {hs_real}ns should exceed recovery {rec_real}ns"
        );
    }

    #[test]
    fn table_scales_with_sa_count() {
        let t = table(&[1, 10]);
        assert_eq!(t.len(), 2);
    }
}
