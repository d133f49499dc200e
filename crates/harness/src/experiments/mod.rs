//! The experiment suite — one module per figure/table of the paper.
//!
//! | id | paper source | module |
//! |----|--------------|--------|
//! | `fig1` | Fig 1 (reset at sender) | [`fig1`] |
//! | `fig2` | Fig 2 (reset at receiver) | [`fig2`] |
//! | `t1` | §5 condition (i) | [`t1`] |
//! | `t2` | §5 condition (ii) | [`t2`] |
//! | `t3` | §3 baseline failures | [`t3`] |
//! | `t4` | §4 calibration example | [`t4`] |
//! | `t5` | §3/§6 cost argument | [`t5`] |
//! | `t6` | §2 w-Delivery & Discrimination | [`t6`] |
//! | `t7` | §6 prolonged resets | [`t7`] |
//! | `ablation` | §4 design choices (A: save interval, B: SAVE trigger) | [`ablation`] |
//! | `suites` | cipher-suite sweep (beyond the paper) | [`suites`] |
//!
//! Each module exposes raw `run`/`sweep` functions returning typed
//! records (used by the integration tests) and a `table` function that
//! renders — and *asserts* — the paper's claims.

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod suites;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t7;

use crate::report::Table;

/// Standard (full-size) parameterizations used by the `experiments`
/// binary. Each returns the rendered tables for one experiment id.
pub fn run_by_id(id: &str) -> Option<Vec<Table>> {
    match id {
        "fig1" => Some(vec![fig1::table(25)]),
        "fig2" => Some(vec![fig2::table(25)]),
        "t1" => Some(vec![t1::table(&[8, 16, 32, 64, 128, 256], 10)]),
        "t2" => Some(vec![t2::table(&[8, 16, 32, 64, 128, 256], 10)]),
        "t3" => Some(vec![
            t3::table_a(&[100, 500, 1000, 2000], 1),
            t3::table_b(&[100, 500, 1000, 2000], 1),
            t3::table_c(&[200, 500, 1000], 1),
        ]),
        "t4" => Some(vec![t4::table()]),
        "t5" => Some(vec![t5::table(&[1, 10, 100])]),
        "t6" => Some(vec![t6::table(64, 2000, 42)]),
        "t7" => Some(vec![t7::table(&[5, 10, 25, 100])]),
        "ablation" => Some(vec![
            ablation::k_sweep_table(&[1, 5, 25, 100, 500], 5),
            ablation::policy_table(5_000, 25, 42),
        ]),
        "suites" => Some(vec![suites::table(20_000, 64)]),
        _ => None,
    }
}

/// All experiment ids, in run order.
pub const ALL_IDS: &[&str] = &[
    "fig1", "fig2", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "ablation", "suites",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id("nope").is_none());
    }

    #[test]
    fn all_ids_resolve() {
        // Cheap smoke check on id wiring only: fig1 is fast to run.
        assert!(ALL_IDS.contains(&"fig1"));
        assert!(run_by_id("fig1").is_some());
    }
}
