//! The reproduction as a gate: every experiment whose output does not
//! depend on the host re-renders byte for byte to the tables recorded in
//! `EXPECTED_experiments.txt` at the repository root.
//!
//! The file is what `experiments fig1 fig2 t1 t2 t3 t6 t7 ablation`
//! prints: each id of [`ALL_IDS`] in order, minus the three that measure
//! the host (t4's "THIS HOST" row, t5's timed columns, the `suites`
//! timings), each table followed by a blank line. A change that moves a
//! paper number re-records the file in the same diff and says which cell
//! moved and why:
//!
//! ```text
//! cargo run --release -p reset-harness --bin experiments -- \
//!     fig1 fig2 t1 t2 t3 t6 t7 ablation > EXPECTED_experiments.txt
//! ```

use reset_harness::experiments::{run_by_id, ALL_IDS};

const EXPECTED: &str = include_str!("../EXPECTED_experiments.txt");

/// Experiments whose tables carry wall-clock measurements of the host.
const HOST_MEASURED: [&str; 3] = ["t4", "t5", "suites"];

#[test]
fn deterministic_experiments_reproduce_the_recorded_tables() {
    let mut rendered = String::new();
    for id in ALL_IDS.iter().filter(|id| !HOST_MEASURED.contains(id)) {
        for table in run_by_id(id).expect("listed id resolves") {
            rendered.push_str(&format!("{table}\n"));
        }
    }
    if rendered == EXPECTED {
        return;
    }
    let mut got = rendered.lines();
    let mut want = EXPECTED.lines();
    for line in 1.. {
        match (got.next(), want.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (g, w) => panic!(
                "EXPECTED_experiments.txt differs first at line {line}:\n  \
                 expected: {w:?}\n  rendered: {g:?}"
            ),
        }
    }
}
