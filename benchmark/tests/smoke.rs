//! Drives the built binary in `--smoke` mode: every workload, the
//! oracle, both passes, in a few seconds — and checks that what must
//! repeat exactly for a seed does.

use std::process::Command;

/// Runs the benchmark and returns its last stdout line.
fn last_line(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gateway-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    stdout.lines().last().expect("a result line").to_string()
}

/// The `value` of `metric` in a contract line.
fn value(line: &str, metric: &str) -> f64 {
    let key = format!("\"{metric}\":{{\"value\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{metric} missing in {line}"))
        + key.len();
    let end = line[at..].find(',').expect("a unit follows the value");
    line[at..at + end].parse().expect("a number")
}

/// The metric names of a contract line, in order.
fn names(line: &str) -> Vec<&str> {
    let metrics = &line[line.find("\"metrics\":{").expect("metrics") + 11..];
    let keys = metrics.split("\":{\"value\":");
    let mut names: Vec<&str> = keys.map(|k| k.rsplit('"').next().expect("a key")).collect();
    names.pop(); // what follows the last value is no key
    names
}

/// The names `BENCHMARK.json` lists under `section`, in order.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let from = file.find(&format!("\"{section}\": [")).expect("section");
    let body = &file[from..from + file[from..].find("\n  ]").expect("section end")];
    let entries = body.split("{\"name\": \"").skip(1);
    entries
        .map(|e| e[..e.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn the_binary_prints_exactly_the_metrics_benchmark_json_lists() {
    let run =
        |trace: &str| last_line(&["--smoke", "--trace", trace, "--workload", "sharded_small"]);
    assert_eq!(names(&run("0")), listed("end_to_end"));
    assert_eq!(names(&run("1")), listed("per_layer"));
    let workloads = [
        "steady_small",
        "steady_mtu",
        "fleet_wide",
        "sharded_small",
        "reset_storm",
    ];
    assert_eq!(listed("workloads"), workloads);
}

#[test]
fn smoke_run_is_correct_and_exact_counts_repeat_for_a_seed() {
    let exact = [
        "seq_sacrificed_per_reset",
        "rx_allocs_per_frame",
        "tx_allocs_per_frame",
    ];
    for workload in ["steady_small", "fleet_wide", "reset_storm"] {
        let args = ["--smoke", "--trace", "0", "--workload", workload, "--seed"];
        let run = |seed: &str| last_line(&[&args[..], &[seed]].concat());
        let (first, again, other) = (run("7"), run("7"), run("8"));
        assert!(
            first.starts_with("{\"correct\":true,\"attempted\":"),
            "{first}"
        );
        assert!(first.contains("\"failed\":0,"), "{first}");
        for metric in exact {
            assert_eq!(
                value(&first, metric),
                value(&again, metric),
                "{workload} {metric}"
            );
            assert!(value(&first, metric) > 0.0, "{workload} {metric}");
        }
        assert!(value(&other, "rx_ns_per_frame") > 0.0);
    }
}

#[test]
fn traced_smoke_run_reports_every_layer_and_exact_event_counts() {
    let args = [
        "--smoke",
        "--trace",
        "1",
        "--workload",
        "reset_storm",
        "--seed",
    ];
    let run = |seed: &str| last_line(&[&args[..], &[seed]].concat());
    let (first, again, other) = (run("7"), run("7"), run("8"));
    // From the counting pass, whose work is fixed; the traced pass runs
    // for a time, so its own counts follow the batches it got through.
    for metric in [
        "events.delivered",
        "events.replay_dropped",
        "ipsec.gateway.push_allocs",
    ] {
        assert_eq!(value(&first, metric), value(&again, metric), "{metric}");
    }
    // Another seed draws other duplicates: the counts move, the verdict
    // does not.
    assert_ne!(
        value(&first, "events.replay_dropped"),
        value(&other, "events.replay_dropped")
    );
    assert!(other.starts_with("{\"correct\":true,"));
    assert_eq!(value(&first, "telemetry.counter_mismatch"), 0.0);
    assert_eq!(value(&first, "events.auth_failed"), 0.0);
    assert_eq!(value(&first, "core.machine_allocs"), 1.0);
    assert!(value(&first, "ipsec.gateway.push_ns") > 0.0);
    assert!(value(&first, "ledger.unattributed_ns").is_finite());
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_gateway-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
