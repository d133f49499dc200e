//! The `model-check` CI lane: exhaustive bounded exploration of the
//! SAVE/FETCH machine with the machine-vs-driver differential oracle.
//!
//! Prints per-config state/transition/trace counts; exits non-zero (with
//! the shrunk, replayable schedule) on any invariant or parity failure,
//! and when a rung's (states, transitions) differ from the recorded pair.
//!
//! The explorer deduplicates states by `SfMachine`'s `Eq`/`Hash`, so a
//! layout or representation change that altered either would move the
//! counts silently. A change that alters the model on purpose re-records
//! the pairs below and says which rung moved and why.

use std::process::ExitCode;
use std::time::Instant;

use reset_model::{explore, shrink, Config};

fn main() -> ExitCode {
    // A ladder of bounds: the cheap rungs localize a failure fast; the
    // top rungs are the actual coverage target (N sends × R resets ×
    // save races × replay/reorder/drop adversary). Each rung carries its
    // recorded (states, transitions).
    let configs = [
        (
            "tiny (K=1, N=2, R=1+0)",
            (1_636, 6_072),
            Config {
                k_p: 1,
                k_q: 1,
                w: 2,
                max_sends: 2,
                max_resets_p: 1,
                max_resets_q: 0,
                max_replays: 1,
                buffer_limit: None,
            },
        ),
        (
            "reference (K=2, N=4, R=1+1)",
            (281_713, 1_265_782),
            Config::small(),
        ),
        (
            "tight-buffer (K=2, N=4, R=0+1, cap=1)",
            (48_534, 330_574),
            Config {
                k_p: 2,
                k_q: 2,
                w: 4,
                max_sends: 4,
                max_resets_p: 0,
                max_resets_q: 1,
                max_replays: 2,
                buffer_limit: Some(1),
            },
        ),
        (
            "deep (K=3, N=4, R=1+1, w=4)",
            (151_992, 664_697),
            Config {
                k_p: 3,
                k_q: 3,
                w: 4,
                max_sends: 4,
                max_resets_p: 1,
                max_resets_q: 1,
                max_replays: 1,
                buffer_limit: None,
            },
        ),
    ];

    let mut total_states = 0u64;
    let mut total_transitions = 0u64;
    let mut moved = false;
    for (name, recorded, cfg) in configs {
        let t0 = Instant::now();
        match explore(cfg) {
            Ok(report) => {
                total_states += report.states;
                total_transitions += report.transitions;
                println!(
                    "model-check {name}: {} states, {} transitions, {} complete schedules, {:.2?}",
                    report.states,
                    report.transitions,
                    report.traces,
                    t0.elapsed()
                );
                if (report.states, report.transitions) != recorded {
                    eprintln!(
                        "model-check {name}: counts moved from the recorded {} states, \
                         {} transitions",
                        recorded.0, recorded.1
                    );
                    moved = true;
                }
            }
            Err(violation) => {
                eprintln!("model-check {name}: FAILED");
                let minimal = shrink(cfg, &violation.trace);
                eprintln!(
                    "{}",
                    reset_model::Violation {
                        message: violation.message,
                        trace: minimal,
                    }
                );
                eprintln!("replay with: reset_model::replay(cfg, &trace)");
                return ExitCode::FAILURE;
            }
        }
    }
    if moved {
        eprintln!("model-check FAILED: state counts differ from the recorded ones (see above)");
        return ExitCode::FAILURE;
    }
    println!(
        "model-check PASS: {total_states} states, {total_transitions} transitions, \
         every transition differentially cross-checked against the SfDriver of each role"
    );
    ExitCode::SUCCESS
}
