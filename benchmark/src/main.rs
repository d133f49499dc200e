//! The repo's benchmark of record: five named workloads through the
//! full gateway path, eight end-to-end metrics, an outside-in per-layer
//! ledger. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```

mod alloc;
mod oracle;
mod record;
mod run;
mod stats;
mod trace;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use reset_telemetry::Json;

use oracle::{Counts, AUTH_FAILED, BUFFERED, UNKNOWN_SA};
use record::{contract_fields, metrics_json, print_table, Metric};
use run::{out_dir, Bench, Counted, Res, Samples, SetupCost};
use stats::Summary;
use trace::{spans_jsonl, Twins};
use workload::{Spec, StoreKind, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Timed rounds per workload; with several workloads the rounds
/// interleave round-robin, so every workload meets both machine modes.
const ROUNDS: u32 = 6;
/// Rounds one pair serves before a fresh one is set up: the setups behind
/// `setup_s` and each pair's closing resets spread over the run as the
/// rounds do.
const ROUNDS_PER_PAIR: u32 = 2;

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    /// Measuring time per workload.
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: true,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                args.workloads = vec![found.ok_or(bad("no such workload"))?.clone()];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("out of range"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.smoke {
        // One short round, and a fleet small enough to install at once.
        args.seconds = 0.4;
        for spec in &mut args.workloads {
            spec.sas = spec.sas.min(4096);
        }
    }
    Ok(args)
}

/// A fixed integer kernel: its ns/iter names the machine mode a round
/// ran in, so a slow-box run is recognisable from its own output.
fn calibrate() -> f64 {
    const ITERS: u64 = 4_000_000;
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_nanos() as f64 / ITERS as f64
}

/// One workload's state across the passes.
struct Run {
    spec: Spec,
    setups: Vec<SetupCost>,
    counted: Counted,
    /// Event counts of the counting pass: exact for a seed.
    counts: Counts,
    /// The pair the timed rounds run on.
    bench: Option<Bench>,
    samples: Samples,
    per_layer: Vec<Metric>,
    ops: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Run {
    /// The counting pass, on a pair of its own.
    fn prepare(spec: &Spec, seed: u64) -> Res<Run> {
        let (mut bench, first, _) = Bench::setup(spec, seed, "count", false)?;
        let counted = bench.counting_pass()?;
        let mut run = Run {
            spec: spec.clone(),
            setups: vec![first],
            counted,
            counts: bench.oracle.counts.clone(),
            bench: None,
            samples: Samples::default(),
            per_layer: Vec::new(),
            ops: 0,
            failed: 0,
            violations: Vec::new(),
        };
        run.samples
            .recover
            .push(run.counted.drill_recover_ns_per_sa);
        run.retire(bench);
        Ok(run)
    }

    /// Closes the pair the last rounds ran on and sets up the next.
    fn next_pair(&mut self, seed: u64) -> Res<()> {
        self.close_pair()?;
        // A small fleet's setup costs milliseconds: it is repeated (to
        // eight times) while the repeats sum to less than a tenth of a
        // second, so `setup_s` has samples from each pair's moment of
        // the run.
        let (mut repeats, mut spent) = (0, 0.0);
        loop {
            let (bench, cost, _) = Bench::setup(&self.spec, seed, "timed", false)?;
            repeats += 1;
            spent += cost.seconds;
            self.setups.push(cost);
            if repeats == 8 || spent >= 0.1 {
                self.bench = Some(bench);
                return Ok(());
            }
            self.retire(bench);
        }
    }

    /// Retires the timed pair, if any, after its closing resets.
    fn close_pair(&mut self) -> Res<()> {
        if let Some(mut bench) = self.bench.take() {
            bench.closing_resets(&mut self.samples)?;
            self.retire(bench);
        }
        Ok(())
    }

    /// Folds a finished pair's oracle into the run's totals.
    fn retire(&mut self, bench: Bench) {
        self.ops += bench.oracle.ops;
        self.failed += bench.oracle.failed;
        self.violations
            .extend(bench.oracle.violations.iter().cloned());
    }

    /// The traced pass on a fresh plain pair plus twins.
    fn traced(&mut self, seed: u64, duration: Duration) -> Res<()> {
        let mut twins = Twins::new(&self.spec, "twins")?;
        let (mut bench, _, warm_up) = Bench::setup(&self.spec, seed, "trace", true)?;
        twins.batch(warm_up, &bench.gen)?;
        let started = Instant::now();
        while started.elapsed() < duration {
            bench.step(Some(&mut twins))?;
        }
        // The stream may have no reset, or none within the pass: close
        // with one sender reset so `ipsec.gateway.recover_ns` has a span.
        let recover_ns_per_sa = bench.reset(false)?;
        twins.reset(false, recover_ns_per_sa, &bench.gen)?;
        let untraced_push = Summary::of(self.samples.push.clone()).map_or(0.0, |s| s.quiet);
        let ledger = twins.finish(untraced_push, &bench.gen)?;
        self.retire(bench);
        let path = out_dir().join(format!("trace-{}.jsonl", self.spec.name));
        std::fs::write(path, spans_jsonl(self.spec.name, &ledger.spans))?;
        self.per_layer = ledger.metrics;
        let c = &self.counts;
        self.per_layer.extend([
            Metric::exact(
                "ipsec.gateway.push_allocs",
                "count",
                self.counted.push_allocs_per_frame,
            ),
            Metric::exact("events.delivered", "count", c.delivered as f64),
            Metric::exact("events.replay_dropped", "count", c.replay_dropped as f64),
            Metric::exact("events.auth_failed", "count", c.other[AUTH_FAILED] as f64),
            Metric::exact("events.unknown_sa", "count", c.other[UNKNOWN_SA] as f64),
            Metric::exact("events.buffered", "count", c.other[BUFFERED] as f64),
            Metric::exact("events.failed_closed", "count", c.failed_closed as f64),
        ]);
        Ok(())
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let setup_s = self.setups.iter().map(|s| s.seconds).collect();
        // A threaded receiver is fast only while the hypervisor runs both
        // vCPUs at once; the quiet percentile picks those batches, and how
        // many there are is a lottery (p1 250–344 ns over six runs of
        // `sharded_small`, p50 466–521; its installs, a round trip to a
        // worker each, 0.0065–0.015 s over ten). Its figures are medians.
        let rx_side = match self.spec.shards {
            Some(_) => Metric::median,
            None => Metric::quiet,
        };
        vec![
            rx_side("setup_s", "s", setup_s),
            rx_side("rx_ns_per_frame", "ns", self.samples.rx.clone()),
            Metric::quiet("tx_ns_per_frame", "ns", self.samples.tx.clone()),
            Metric::quiet("recover_ns_per_sa", "ns", self.samples.recover.clone()),
            Metric::exact(
                "seq_sacrificed_per_reset",
                "count",
                self.counted.seq_sacrificed_per_reset,
            ),
            Metric::exact(
                "rx_allocs_per_frame",
                "count",
                self.counted.rx_allocs_per_frame,
            ),
            Metric::exact(
                "tx_allocs_per_frame",
                "count",
                self.counted.tx_allocs_per_frame,
            ),
            // The first setup: later ones reuse what the first freed.
            Metric::exact("rss_bytes_per_sa", "B", self.setups[0].rss_bytes_per_sa),
        ]
    }

    fn json(&self, end_to_end: &[Metric]) -> Json {
        let store = match self.spec.store {
            StoreKind::Mem => "MemStable",
            StoreKind::Wal => "WalStable, Durability::ProcessCrash (page cache, no fsync)",
        };
        Json::obj(vec![
            ("name", Json::str(self.spec.name)),
            ("sas", Json::U64(self.spec.sas as u64)),
            ("payload_bytes", Json::U64(self.spec.payload as u64)),
            ("save_interval_k", Json::U64(self.spec.k)),
            ("shards", Json::U64(self.spec.shards.unwrap_or(0) as u64)),
            ("store", Json::str(store)),
            ("ops", Json::U64(self.ops)),
            ("failed_ops", Json::U64(self.failed)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            (
                "sacrifice_samples",
                Json::U64(self.counted.sacrifice_samples),
            ),
            ("end_to_end", metrics_json(end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
        ])
    }
}

fn git_commit() -> String {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let out = std::process::Command::new("git")
        .args(["-C", manifest, "rev-parse", "HEAD"])
        .output();
    match out {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn cpu_model() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo.lines().find(|l| l.starts_with("model name"));
    model
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string())
}

fn benchmark(args: &Args) -> Res<bool> {
    std::fs::create_dir_all(out_dir())?;
    let backend = reset_crypto::Backend::select();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "gateway benchmark: seed {}, {} s per workload, trace {}, crypto backend {backend}, \
         nproc {nproc}; closed loop, one caller thread, in process (no sockets)",
        args.seed, args.seconds, args.trace as u8
    );

    let mut runs = Vec::new();
    for spec in &args.workloads {
        runs.push(Run::prepare(spec, args.seed)?);
    }

    // With the traced pass to fit in, the untraced rounds keep enough of
    // the time to anchor `trace.overhead_pct`.
    let timed = args.seconds * if args.trace { 0.4 } else { 1.0 };
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let round = Duration::from_secs_f64(timed / rounds as f64);
    let mut calib = Vec::new();
    for r in 0..rounds {
        for run in &mut runs {
            if r % ROUNDS_PER_PAIR == 0 {
                run.next_pair(args.seed)?;
            }
            calib.push(calibrate());
            let bench = run.bench.as_mut().expect("prepared");
            bench.round(round, &mut run.samples)?;
            calib.push(calibrate());
        }
    }
    for run in &mut runs {
        // The timed pair goes first: a wide fleet and its twins would not
        // want to be resident together.
        run.close_pair()?;
        if args.trace {
            run.traced(args.seed, Duration::from_secs_f64(args.seconds - timed))?;
        }
    }
    let end_to_end: Vec<Vec<Metric>> = runs.iter().map(Run::end_to_end).collect();

    for (run, end_to_end) in runs.iter().zip(&end_to_end) {
        let title = format!(
            "{}: {} SA pairs, {} B, K = {}, {} ops, {} failed",
            run.spec.name, run.spec.sas, run.spec.payload, run.spec.k, run.ops, run.failed
        );
        print_table(&title, end_to_end);
        if args.trace {
            print_table(&format!("{} — layer ledger", run.spec.name), &run.per_layer);
        }
        for violation in &run.violations {
            println!("VIOLATION {}: {violation}", run.spec.name);
        }
    }
    let calib = Summary::of(calib).ok_or("no calibration samples")?;
    println!(
        "\ncalib_ns: p1 {:.3}  p50 {:.3}  n {}",
        calib.quiet, calib.p50, calib.n
    );

    let record = Json::obj(vec![
        ("schema", Json::str("gateway-benchmark/v1")),
        ("seed", Json::U64(args.seed)),
        ("seconds_per_workload", Json::F64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_commit", Json::str(git_commit())),
        ("nproc", Json::U64(nproc as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("crypto_backend", Json::str(backend.name())),
        (
            "calib_ns",
            Json::obj(vec![
                ("n", Json::U64(calib.n as u64)),
                ("p1", Json::F64(calib.quiet)),
                ("p50", Json::F64(calib.p50)),
            ]),
        ),
        (
            "workloads",
            Json::Arr(
                runs.iter()
                    .zip(&end_to_end)
                    .map(|(run, e2e)| run.json(e2e))
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir().join(format!("result-{}.json", args.seed));
    std::fs::write(&path, record.render())?;
    println!("record: {}", path.display());

    // The contract's last line. One workload: its metrics by name;
    // several: `<workload>/<name>`.
    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let fields = runs.iter().zip(&end_to_end).flat_map(|(run, end_to_end)| {
        let metrics = if args.trace {
            &run.per_layer
        } else {
            end_to_end
        };
        let prefix = match runs.len() {
            1 => String::new(),
            _ => format!("{}/", run.spec.name),
        };
        contract_fields(metrics, &prefix)
    });
    let metrics = Json::Obj(fields.collect());
    let last = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(ops)),
        ("failed", Json::U64(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", last.render());
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(what) => {
            eprintln!("gateway-benchmark: {what}");
            return ExitCode::from(2);
        }
    };
    match benchmark(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gateway-benchmark: aborted: {e}");
            ExitCode::FAILURE
        }
    }
}
