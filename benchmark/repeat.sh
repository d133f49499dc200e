#!/usr/bin/env bash
# Repeats the benchmark the way its acceptance does: every workload of
# BENCHMARK.json, `runs` times, each time with another seed, untraced.
# Prints min / median / max of every end-to-end metric and its spread
# (interquartile range over median, Python's statistics.quantiles)
# against the metric's bound; exits 1 if a spread exceeds its bound
# (setup_s excepted: it is gated on its median alone).
#
#   benchmark/repeat.sh [runs=3] [first_seed=1]
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-3}" "${2:-1}" <<'PY'
import json, statistics, subprocess, sys

runs, first_seed = int(sys.argv[1]), int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
over = False
for workload in (w["name"] for w in spec["workloads"]):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first_seed, first_seed + runs):
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(spec["command"] + args, check=True, capture_output=True, text=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"\n{workload} ({runs} runs, seeds {first_seed}..{first_seed + runs - 1})")
    print(f"  {'metric':<26}{'min':>14}{'median':>14}{'max':>14}{'spread':>9}{'bound':>8}")
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / median
        gated = metric["name"] != "setup_s"
        flag = "  OVER" if gated and spread > metric["bound"] else ""
        over |= bool(flag)
        print(f"  {metric['name']:<26}{min(v):>14.4f}{median:>14.4f}{max(v):>14.4f}"
              f"{spread:>9.2%}{metric['bound']:>8.0%}{flag}")
sys.exit(1 if over else 0)
PY
