//! CI bench-regression gate.
//!
//! Compares a criterion run (the vendored shim's `CRITERION_JSON` line
//! output) against the recorded baselines in `BENCH_datapath.json` and
//! fails when any *fast-group* benchmark regressed by more than the
//! threshold (default 25%, absorbing the box-to-box variance the
//! baseline file documents at ~15–20%).
//!
//! ```text
//! bench_check <BENCH_datapath.json> <criterion-results.json> [--threshold 25]
//! ```
//!
//! Gated groups (cheap enough to run timed on every push):
//!
//! * `datapath/suite_rx` — the batched cipher-suite receive pipeline;
//! * `window/in_order` — the anti-replay window fast path;
//! * `datapath/telemetry_overhead` — the same sealed drain with and
//!   without a `Telemetry` attached (the observability-cost sentinel);
//! * `gateway_shard/recover_storm_256sa` — the pooled reset-storm
//!   recovery (the spawn-overhead sentinel);
//! * `store_save/fleet_save_1024sa` — the fleet-wide SAVE round on the
//!   durable backends (file-per-slot vs shard-shared WAL);
//! * `gateway_fleet_1m/tick_idle` — the idle control-plane tick at 10^3
//!   and 10^6 SAs (the timer-wheel sentinel): beyond the absolute
//!   threshold, a `RATIO_CEILINGS` entry holds the million-SA tick
//!   within 2x of the thousand-SA one in the same run, so a
//!   reintroduced fleet-proportional sweep (which would show up as
//!   ~1000x, not 2x) trips the gate on any host.
//!
//! Noise-floor awareness: a relative regression must also exceed an
//! absolute `NOISE_FLOOR_NS` (25 ns) delta to fail. The single-digit-ns
//! tick sentinels sit at the clock's own granularity — ±25% there is
//! one timer quantum and 2x swings on identical code are routine —
//! while the failure they guard against (a reintroduced
//! fleet-proportional sweep) lands 1000x over the floor.
//!
//! Disk-bound awareness: `store_save/` timings are dominated by the
//! container's filesystem and vary >2x run-to-run on identical code, so
//! their absolute numbers are compared **advisorily** (reported, never
//! failing). What gates instead is the *relative* claim, which is
//! stable across that noise: the shared WAL must stay at least 5x
//! cheaper per slot than file-per-slot in the same run (the
//! `RATIO_FLOORS` table). The same-run trick also bounds *added* cost:
//! `RATIO_CEILINGS` holds the telemetry-attached drain within 1.5x of
//! the bare one regardless of how noisy the box is.
//!
//! Backend awareness: baseline entries carrying a `backend` field
//! (`"lanes4"`, `"avx2"` — the advisory SIMD groups
//! `datapath/suite_rx_<backend>`) are never gated: their numbers are
//! CPU-feature-dependent, so they are compared **advisorily** when the
//! runner produced a measurement and skipped with a notice when it did
//! not (the runner lacks the feature, or the bench emitted nothing).
//! Skipped backend entries are exempt from the completeness check —
//! the scalar `datapath/suite_rx` group is the gated path and must
//! always report.
//!
//! Core-count awareness: baseline entries record the `cores` of the
//! host that produced them. Multi-shard entries of the
//! parallelism-sensitive `gateway_shard/` group are compared
//! **advisorily** (reported, never failing) when the runner's core
//! count differs from the baseline's — a 4-shard time measured on one
//! core is not comparable to one measured on four. The group's
//! single-threaded members (`/plain_gateway`, the inline `/1`) and
//! all other groups gate regardless of cores.
//!
//! Escape hatch: set `BENCH_REGRESSION_OK=1` to report regressions
//! without failing the lane — for intentional re-records, with the new
//! numbers landing in `BENCH_datapath.json` in the same change.
//!
//! No dependencies: both inputs are line-oriented enough for the tiny
//! field extractors below (unit-tested), keeping this tool buildable
//! in the offline container.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Benchmark-id prefixes the gate enforces.
const FAST_GROUPS: [&str; 6] = [
    "datapath/suite_rx",
    "window/in_order",
    "datapath/telemetry_overhead",
    "gateway_shard/recover_storm_256sa",
    "store_save/fleet_save_1024sa",
    "gateway_fleet_1m/tick_idle",
];

/// Groups whose timings depend on the host's parallelism: advisory
/// when baseline and runner core counts differ. The single-threaded
/// members of the group — the `plain_gateway` baseline and the
/// inline zero-thread `1`-shard variant — are carved out below and
/// gate on any host: a reintroduced per-verb spawn or a slowed
/// recovery path must not hide behind the multi-shard advisory.
const CORE_SENSITIVE: [&str; 1] = ["gateway_shard/"];

/// Benchmark-id suffixes that are single-threaded even inside a
/// core-sensitive group.
const SINGLE_THREADED_SUFFIXES: [&str; 2] = ["/plain_gateway", "/1"];

/// Groups whose absolute timings are disk-bound (>2x run-to-run noise
/// in CI containers): always advisory against their recorded baseline.
/// Their gating story is the `RATIO_FLOORS` table instead.
const IO_BOUND: [&str; 1] = ["store_save/"];

/// Same-run relative floors: `slow` must be at least `floor` times the
/// measured time of `fast`, or the gate fails. Ratios cancel the
/// filesystem noise that makes `IO_BOUND` absolutes ungateable.
const RATIO_FLOORS: [(&str, &str, f64); 1] = [(
    "store_save/fleet_save_1024sa/file_per_slot",
    "store_save/fleet_save_1024sa/wal_shared",
    5.0,
)];

/// Same-run relative ceilings: `candidate` must stay within `ceiling`
/// times the measured time of `reference`, or the gate fails. The
/// inverse of `RATIO_FLOORS`: these bound *added* cost rather than
/// prove a speedup. Two contracts today: attaching a `Telemetry` must
/// never cost more than 50% over the bare drain, and an idle tick over
/// a million SAs must stay within 2x of one over a thousand (the timer
/// wheel's O(due) claim — the pre-wheel sweep visited every DPD
/// detector and SA per tick, so its cost scaled with the fleet).
const RATIO_CEILINGS: [(&str, &str, f64); 2] = [
    (
        "datapath/telemetry_overhead/on/512",
        "datapath/telemetry_overhead/off/512",
        1.5,
    ),
    (
        "gateway_fleet_1m/tick_idle_1m/plain_gateway",
        "gateway_fleet_1m/tick_idle_1k/plain_gateway",
        2.0,
    ),
];

#[derive(Debug, Clone, PartialEq)]
struct Baseline {
    mean_ns: f64,
    cores: Option<u64>,
    /// SIMD backend this entry was measured on (`"lanes4"`, `"avx2"`).
    /// Tagged entries never gate: they are advisory when measured and
    /// skipped (with a notice) when the runner lacks the feature.
    backend: Option<String>,
}

/// Extracts `"key": <number>` from a JSON-ish line (the shim and the
/// baseline file both keep one entry per line).
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "value"` from a JSON-ish line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

/// Parses the `"benchmarks": { ... }` block of `BENCH_datapath.json`:
/// one `"group/bench/param": { "mean_ns": N, ..., "cores": C }` entry
/// per line. Entries outside that block (the acceptance records) are
/// ignored.
fn parse_baseline(text: &str) -> BTreeMap<String, Baseline> {
    let mut out = BTreeMap::new();
    let mut in_block = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("\"benchmarks\"") {
            in_block = true;
            continue;
        }
        if in_block {
            if trimmed == "}," || trimmed == "}" {
                break;
            }
            let Some(id) = trimmed.strip_prefix('"').and_then(|r| r.split('"').next()) else {
                continue;
            };
            let Some(mean_ns) = field_f64(trimmed, "mean_ns") else {
                continue;
            };
            out.insert(
                id.to_string(),
                Baseline {
                    mean_ns,
                    cores: field_f64(trimmed, "cores").map(|c| c as u64),
                    backend: field_str(trimmed, "backend").map(str::to_string),
                },
            );
        }
    }
    out
}

/// Parses the shim's `CRITERION_JSON` output: one
/// `{"id":"...","mean_ns":N,...}` line per benchmark. A re-run appends,
/// so later lines win.
fn parse_results(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if let (Some(id), Some(mean)) = (field_str(line, "id"), field_f64(line, "mean_ns")) {
            out.insert(id.to_string(), mean);
        }
    }
    out
}

fn in_fast_groups(id: &str) -> bool {
    FAST_GROUPS.iter().any(|g| id.starts_with(g))
}

fn core_sensitive(id: &str) -> bool {
    CORE_SENSITIVE.iter().any(|g| id.starts_with(g))
        && !SINGLE_THREADED_SUFFIXES.iter().any(|s| id.ends_with(s))
}

fn io_bound(id: &str) -> bool {
    IO_BOUND.iter().any(|g| id.starts_with(g))
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Improved,
    Regressed,
    Advisory,
    /// Relatively over threshold but absolutely inside
    /// [`NOISE_FLOOR_NS`] — timer-granularity jitter, not a regression.
    WithinNoise,
}

/// Absolute slack under the relative threshold: a regression must also
/// exceed this many nanoseconds over its baseline to fail the gate.
/// Single-digit-ns benchmarks (the ~4 ns idle-tick sentinels) sit at
/// the clock's own granularity, where ±25% is one timer quantum and
/// run-to-run swings of 2x on identical code are routine; the failures
/// those sentinels exist to catch (a reintroduced fleet-proportional
/// sweep) land 1000x over, far beyond any floor. Microsecond-scale
/// groups are unaffected — 25 ns is below their threshold anyway.
const NOISE_FLOOR_NS: f64 = 25.0;

/// Judges one benchmark against its baseline.
fn judge(id: &str, measured: f64, base: &Baseline, threshold_pct: f64, cores: u64) -> Verdict {
    let ratio = measured / base.mean_ns;
    let mismatched_cores = base.cores.is_some_and(|c| c != cores);
    if ratio > 1.0 + threshold_pct / 100.0 {
        if measured - base.mean_ns <= NOISE_FLOOR_NS {
            Verdict::WithinNoise
        } else if base.backend.is_some() || io_bound(id) || (core_sensitive(id) && mismatched_cores)
        {
            Verdict::Advisory
        } else {
            Verdict::Regressed
        }
    } else if ratio < 1.0 - threshold_pct / 100.0 {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn run(baseline_path: &str, results_path: &str, threshold_pct: f64) -> Result<ExitCode, String> {
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let results_text = std::fs::read_to_string(results_path)
        .map_err(|e| format!("cannot read results {results_path}: {e}"))?;
    let baselines = parse_baseline(&baseline_text);
    let results = parse_results(&results_text);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get()) as u64;
    let allow = std::env::var("BENCH_REGRESSION_OK").is_ok();

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut seen_groups = vec![false; FAST_GROUPS.len()];
    for (id, measured) in results.iter().filter(|(id, _)| in_fast_groups(id)) {
        for (i, g) in FAST_GROUPS.iter().enumerate() {
            if id.starts_with(g) {
                seen_groups[i] = true;
            }
        }
        let Some(base) = baselines.get(id) else {
            println!("NEW        {id}: {measured:.0} ns (no baseline recorded)");
            continue;
        };
        compared += 1;
        let ratio = measured / base.mean_ns;
        match judge(id, *measured, base, threshold_pct, cores) {
            Verdict::Regressed => {
                regressions += 1;
                println!(
                    "REGRESSED  {id}: {measured:.0} ns vs baseline {:.0} ns ({:+.1}%)",
                    base.mean_ns,
                    (ratio - 1.0) * 100.0
                );
            }
            Verdict::Advisory if base.backend.is_some() => println!(
                "ADVISORY   {id}: {measured:.0} ns vs baseline {:.0} ns ({:+.1}%) — \
                 {} backend entry, CPU-feature-dependent, not gated",
                base.mean_ns,
                (ratio - 1.0) * 100.0,
                base.backend.as_deref().unwrap_or("?")
            ),
            Verdict::Advisory if io_bound(id) => println!(
                "ADVISORY   {id}: {measured:.0} ns vs baseline {:.0} ns ({:+.1}%) — \
                 disk-bound group, absolute time not gated (the ratio floor is)",
                base.mean_ns,
                (ratio - 1.0) * 100.0
            ),
            Verdict::Advisory => println!(
                "ADVISORY   {id}: {measured:.0} ns vs baseline {:.0} ns ({:+.1}%) — \
                 baseline recorded on {} core(s), runner has {cores}; not gating",
                base.mean_ns,
                (ratio - 1.0) * 100.0,
                base.cores.unwrap_or(0)
            ),
            Verdict::Improved => println!(
                "IMPROVED   {id}: {measured:.0} ns vs baseline {:.0} ns ({:+.1}%)",
                base.mean_ns,
                (ratio - 1.0) * 100.0
            ),
            Verdict::WithinNoise => println!(
                "OK         {id}: {measured:.1} ns vs baseline {:.1} ns ({:+.1}%) — \
                 within the {NOISE_FLOOR_NS} ns noise floor, not gated",
                base.mean_ns,
                (ratio - 1.0) * 100.0
            ),
            Verdict::Ok => println!(
                "OK         {id}: {measured:.0} ns vs baseline {:.0} ns ({:+.1}%)",
                base.mean_ns,
                (ratio - 1.0) * 100.0
            ),
        }
    }
    // Backend-tagged baselines the runner produced no measurement for:
    // the runner lacks the CPU feature (the bench self-skips), so the
    // entry is reported and exempt from every gate — including the
    // group-completeness check below, which only counts gated paths.
    for (id, base) in baselines.iter().filter(|(id, _)| in_fast_groups(id)) {
        if let Some(backend) = &base.backend {
            if !results.contains_key(id) {
                println!(
                    "SKIPPED    {id}: baseline {:.0} ns needs the {backend} backend, \
                     which this runner did not produce (feature not supported here)",
                    base.mean_ns
                );
            }
        }
    }
    // Every gated group must have contributed: a renamed group or a
    // drifted ci.yml filter silently losing coverage is itself a
    // failure, not a pass.
    for (i, g) in FAST_GROUPS.iter().enumerate() {
        if !seen_groups[i] {
            return Err(format!(
                "gated group {g:?} produced no results in {results_path} — did its \
                 bench filter in ci.yml drift, or the group get renamed? (run with \
                 CRITERION_JSON set to an absolute path)"
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "no fast-group benchmarks matched a recorded baseline in {results_path}"
        ));
    }
    // Same-run relative floors: immune to the noise that makes the
    // IO_BOUND absolutes advisory, so these fail hard.
    for (slow_id, fast_id, floor) in RATIO_FLOORS {
        let (Some(slow), Some(fast)) = (results.get(slow_id), results.get(fast_id)) else {
            return Err(format!(
                "ratio floor {slow_id:?} / {fast_id:?} is missing a measurement in \
                 {results_path} — did a bench get renamed or filtered out in ci.yml?"
            ));
        };
        let ratio = slow / fast;
        if ratio < floor {
            regressions += 1;
            println!(
                "REGRESSED  {fast_id}: only {ratio:.1}x cheaper than {slow_id} \
                 (floor {floor}x)"
            );
        } else {
            println!("OK         {fast_id}: {ratio:.1}x cheaper than {slow_id} (floor {floor}x)");
        }
    }
    // Same-run relative ceilings: bound added cost (e.g. telemetry on
    // vs off) with the same noise immunity as the floors.
    for (candidate_id, reference_id, ceiling) in RATIO_CEILINGS {
        let (Some(candidate), Some(reference)) =
            (results.get(candidate_id), results.get(reference_id))
        else {
            return Err(format!(
                "ratio ceiling {candidate_id:?} / {reference_id:?} is missing a measurement \
                 in {results_path} — did a bench get renamed or filtered out in ci.yml?"
            ));
        };
        let ratio = candidate / reference;
        if ratio > ceiling {
            regressions += 1;
            println!(
                "REGRESSED  {candidate_id}: {ratio:.2}x the cost of {reference_id} \
                 (ceiling {ceiling}x)"
            );
        } else {
            println!(
                "OK         {candidate_id}: {ratio:.2}x the cost of {reference_id} \
                 (ceiling {ceiling}x)"
            );
        }
    }
    println!(
        "bench_check: {compared} compared, {regressions} regression(s), threshold {threshold_pct}%"
    );
    if regressions > 0 {
        if allow {
            println!(
                "BENCH_REGRESSION_OK is set: letting {regressions} regression(s) through \
                 (intentional re-record — update BENCH_datapath.json in this change)"
            );
            return Ok(ExitCode::SUCCESS);
        }
        println!(
            "bench gate FAILED; if this change intentionally trades this performance, \
             re-record BENCH_datapath.json and set BENCH_REGRESSION_OK=1 on the lane"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 25.0f64;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            threshold = it.next().and_then(|v| v.parse().ok()).unwrap_or(threshold);
        } else {
            paths.push(a.clone());
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_check <BENCH_datapath.json> <criterion-results.json> [--threshold PCT]"
        );
        return ExitCode::FAILURE;
    }
    match run(&paths[0], &paths[1], threshold) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench_check: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "description": "x",
  "acceptance": {
    "thing": { "before_ns": 10.0, "after_ns": 5.0 },
    "window/in_order/1024": { "mean_ns": 53860.0 }
  },
  "benchmarks": {
    "datapath/suite_rx/process_batch_64B/chacha20-poly1305": { "mean_ns": 500000.0, "cores": 1 },
    "datapath/suite_rx_avx2/process_batch_64B/chacha20-poly1305": { "mean_ns": 200000.0, "cores": 1, "backend": "avx2" },
    "window/in_order/1024": { "mean_ns": 24000.0, "cores": 1 },
    "gateway_shard/recover_storm_256sa/4": { "mean_ns": 40000.0, "cores": 1 },
    "datapath/gateway_drain/process_batch/512": { "mean_ns": 274580.0, "cores": 1 }
  }
}"#;

    #[test]
    fn baseline_parser_scopes_to_the_benchmarks_block() {
        let b = parse_baseline(BASELINE);
        assert_eq!(b.len(), 5);
        assert_eq!(b["window/in_order/1024"].mean_ns, 24000.0);
        assert_eq!(b["window/in_order/1024"].cores, Some(1));
        assert_eq!(b["window/in_order/1024"].backend, None);
        assert_eq!(
            b["datapath/suite_rx_avx2/process_batch_64B/chacha20-poly1305"].backend,
            Some("avx2".to_string())
        );
        // An identically named entry outside the block must not
        // clobber the live baseline.
        assert_ne!(b["window/in_order/1024"].mean_ns, 53860.0);
    }

    #[test]
    fn backend_tagged_baselines_never_gate() {
        // A SIMD-backend entry over threshold is advisory on any host:
        // its absolute time depends on the CPU feature set, and its
        // correctness story is the scalar differential, not the gate.
        let base = Baseline {
            mean_ns: 1000.0,
            cores: Some(1),
            backend: Some("avx2".to_string()),
        };
        assert_eq!(
            judge(
                "datapath/suite_rx_avx2/process_batch_64B/chacha20-poly1305",
                2000.0,
                &base,
                25.0,
                1
            ),
            Verdict::Advisory
        );
        // The untagged scalar entry of the same group still gates.
        let scalar = Baseline {
            mean_ns: 1000.0,
            cores: Some(1),
            backend: None,
        };
        assert_eq!(
            judge(
                "datapath/suite_rx/process_batch_64B/chacha20-poly1305",
                2000.0,
                &scalar,
                25.0,
                1
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn results_parser_takes_the_last_line_per_id() {
        let text = "\
{\"id\":\"window/in_order/1024\",\"mean_ns\":25000.00,\"median_ns\":24900.00,\"elements\":10000}\n\
not json at all\n\
{\"id\":\"window/in_order/1024\",\"mean_ns\":23000.00,\"median_ns\":22900.00}\n";
        let r = parse_results(text);
        assert_eq!(r.len(), 1);
        assert_eq!(r["window/in_order/1024"], 23000.0);
    }

    #[test]
    fn fast_group_filter() {
        assert!(in_fast_groups("window/in_order/64"));
        assert!(in_fast_groups(
            "gateway_shard/recover_storm_256sa/plain_gateway"
        ));
        assert!(!in_fast_groups("window/replay_storm/w=64"));
        assert!(!in_fast_groups("datapath/gateway_drain/process_batch/512"));
        assert!(in_fast_groups("store_save/fleet_save_1024sa/wal_shared"));
        assert!(in_fast_groups("store_save/fleet_save_1024sa/file_per_slot"));
        assert!(in_fast_groups(
            "gateway_fleet_1m/tick_idle_1k/plain_gateway"
        ));
        assert!(in_fast_groups(
            "gateway_fleet_1m/tick_idle_1m/plain_gateway"
        ));
    }

    #[test]
    fn regression_vs_improvement_vs_ok() {
        let base = Baseline {
            mean_ns: 1000.0,
            cores: Some(1),
            backend: None,
        };
        let id = "window/in_order/64";
        assert_eq!(judge(id, 1400.0, &base, 25.0, 1), Verdict::Regressed);
        assert_eq!(judge(id, 1200.0, &base, 25.0, 1), Verdict::Ok);
        assert_eq!(judge(id, 700.0, &base, 25.0, 1), Verdict::Improved);
    }

    #[test]
    fn nanosecond_scale_regressions_inside_the_noise_floor_pass() {
        // A ~4 ns sentinel doubling is one timer quantum, not a
        // regression — the absolute delta is what gates it.
        let base = Baseline {
            mean_ns: 4.0,
            cores: Some(1),
            backend: None,
        };
        let id = "gateway_fleet_1m/tick_idle_1k/plain_gateway";
        assert_eq!(judge(id, 8.0, &base, 25.0, 1), Verdict::WithinNoise);
        assert_eq!(judge(id, 29.0, &base, 25.0, 1), Verdict::WithinNoise);
        // A reintroduced fleet-proportional sweep lands far beyond any
        // noise floor and still fails.
        assert_eq!(judge(id, 4000.0, &base, 25.0, 1), Verdict::Regressed);
        // Microsecond-scale groups are unaffected: their 25% threshold
        // already dwarfs the floor.
        let base_us = Baseline {
            mean_ns: 100_000.0,
            cores: Some(1),
            backend: None,
        };
        assert_eq!(
            judge("window/in_order/64", 130_000.0, &base_us, 25.0, 1),
            Verdict::Regressed
        );
    }

    #[test]
    fn core_sensitive_groups_go_advisory_on_core_mismatch() {
        let base = Baseline {
            mean_ns: 1000.0,
            cores: Some(1),
            backend: None,
        };
        // Parallelism-sensitive id on a 4-core runner vs 1-core record.
        assert_eq!(
            judge(
                "gateway_shard/recover_storm_256sa/4",
                1500.0,
                &base,
                25.0,
                4
            ),
            Verdict::Advisory
        );
        // Same mismatch still gates a single-threaded group.
        assert_eq!(
            judge("window/in_order/64", 1500.0, &base, 25.0, 4),
            Verdict::Regressed
        );
        // ...and the single-threaded members of the sensitive group:
        // the plain-Gateway baseline and the inline 1-shard variant
        // run no pool thread, so core count is irrelevant to them.
        assert_eq!(
            judge(
                "gateway_shard/recover_storm_256sa/plain_gateway",
                1500.0,
                &base,
                25.0,
                4
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                "gateway_shard/recover_storm_256sa/1",
                1500.0,
                &base,
                25.0,
                4
            ),
            Verdict::Regressed
        );
        // Matching cores gate everything.
        assert_eq!(
            judge(
                "gateway_shard/recover_storm_256sa/4",
                1500.0,
                &base,
                25.0,
                1
            ),
            Verdict::Regressed
        );
        // The fleet group's tick sentinels are single-threaded: they
        // gate on any host.
        assert_eq!(
            judge(
                "gateway_fleet_1m/tick_idle_1m/plain_gateway",
                1500.0,
                &base,
                25.0,
                4
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn io_bound_groups_are_always_advisory_on_absolute_time() {
        let base = Baseline {
            mean_ns: 1000.0,
            cores: Some(1),
            backend: None,
        };
        // A 3x blowup in a disk-bound group: reported, never failing —
        // container filesystems move absolute times >2x run-to-run.
        assert_eq!(
            judge(
                "store_save/fleet_save_1024sa/file_per_slot",
                3000.0,
                &base,
                25.0,
                1
            ),
            Verdict::Advisory
        );
        // Improvements still report as improvements.
        assert_eq!(
            judge(
                "store_save/fleet_save_1024sa/wal_shared",
                500.0,
                &base,
                25.0,
                1
            ),
            Verdict::Improved
        );
    }

    #[test]
    fn ratio_floor_table_points_at_measured_benchmarks() {
        // The floor pair must stay inside the gated fast groups, or the
        // lane could drop the measurements the ratio needs.
        for (slow, fast, floor) in RATIO_FLOORS {
            assert!(in_fast_groups(slow), "{slow} not in FAST_GROUPS");
            assert!(in_fast_groups(fast), "{fast} not in FAST_GROUPS");
            assert!(floor >= 1.0);
        }
        for (candidate, reference, ceiling) in RATIO_CEILINGS {
            assert!(in_fast_groups(candidate), "{candidate} not in FAST_GROUPS");
            assert!(in_fast_groups(reference), "{reference} not in FAST_GROUPS");
            assert!(ceiling >= 1.0);
        }
    }

    #[test]
    fn field_extractors() {
        let line = r#"{"id":"a/b","mean_ns":123.45,"elements":10}"#;
        assert_eq!(field_str(line, "id"), Some("a/b"));
        assert_eq!(field_f64(line, "mean_ns"), Some(123.45));
        assert_eq!(field_f64(line, "elements"), Some(10.0));
        assert_eq!(field_f64(line, "missing"), None);
    }
}
