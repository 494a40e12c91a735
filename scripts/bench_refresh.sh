#!/usr/bin/env bash
# Regenerates the committed benchmarks:
#   * BENCH_net.json     — the E25 one-shot query workload;
#   * BENCH_monitor.json — the E26 streaming monitor workload;
#   * BENCH_engine.json  — the E27 kernel medians (bench_inclusion +
#     bench_engine, --benchmark_min_time=0.2, note: NO trailing "s" — the
#     packaged google-benchmark rejects the suffixed form);
#   * BENCH_petri.json   — the E15/E29 Petri-unfold medians (bench_petri:
#     scenario families, the budget-governed unfolder, and the `.pn`
#     format round-trip), with the unfolder's per-run counters
#     (graph_states, charged_states, peak_memory_bytes) carried through.
# The serving files hold the loadgen summary line followed by the daemon's
# stats record for the same run; the engine file holds per-benchmark median
# real times and, when BASELINE_INCLUSION/BASELINE_ENGINE point at JSON
# captures of an earlier build, the speedup against that baseline. Run on
# an otherwise idle machine with a Release build dir; numbers move with
# core count and with -O level.
#
# usage: [BASELINE_INCLUSION=old.json] [BASELINE_ENGINE=old.json] \
#          [BASELINE_PETRI=old.json] scripts/bench_refresh.sh [port] [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-7424}"
BUILD="${2:-build}"

cmake --build "$BUILD" --target rlvd rlv_loadgen -j

"$BUILD"/tools/rlvd --serve "$PORT" --jobs 2 &
SERVER=$!
trap 'kill -9 "$SERVER" 2>/dev/null || true' EXIT
sleep 1

"$BUILD"/tools/rlv_loadgen --port "$PORT" \
  --connections 4 --requests 256 --stats > BENCH_net.json

"$BUILD"/tools/rlv_loadgen --port "$PORT" --monitor \
  --sessions 8 --events 2000 --batch 64 --stats > BENCH_monitor.json

kill -TERM "$SERVER"
wait "$SERVER"
trap - EXIT

cmake --build "$BUILD" --target bench_inclusion bench_engine -j

"$BUILD"/bench/bench_inclusion --benchmark_min_time=0.2 \
  --benchmark_format=json > /tmp/rlv_bench_inclusion.json
"$BUILD"/bench/bench_engine --benchmark_min_time=0.2 \
  --benchmark_format=json > /tmp/rlv_bench_engine.json

python3 - <<'PYEOF' > BENCH_engine.json
import json, os

def medians(path):
    out = {}
    if not path or not os.path.exists(path):
        return out
    for b in json.load(open(path))["benchmarks"]:
        # With a single run per benchmark the iteration entry is the
        # median; with --benchmark_repetitions the aggregate row wins.
        if b.get("aggregate_name") not in (None, "median"):
            continue
        out[b["name"].removesuffix("_median")] = (b["real_time"],
                                                  b["time_unit"])
    return out

doc = {"schema": "rlv-bench-engine-v1", "min_time": 0.2, "suites": {}}
for suite, fresh, base_env in (
        ("bench_inclusion", "/tmp/rlv_bench_inclusion.json",
         "BASELINE_INCLUSION"),
        ("bench_engine", "/tmp/rlv_bench_engine.json", "BASELINE_ENGINE")):
    base = medians(os.environ.get(base_env, ""))
    rows = {}
    for name, (t, unit) in medians(fresh).items():
        row = {"real_time": round(t, 4), "time_unit": unit}
        if name in base and base[name][0] > 0:
            row["baseline_real_time"] = round(base[name][0], 4)
            row["speedup"] = round(base[name][0] / t, 2) if t > 0 else None
        rows[name] = row
    doc["suites"][suite] = rows
print(json.dumps(doc, indent=1))
PYEOF

cmake --build "$BUILD" --target bench_petri -j

"$BUILD"/bench/bench_petri --benchmark_min_time=0.2 \
  --benchmark_format=json > /tmp/rlv_bench_petri.json

python3 - <<'PYEOF' > BENCH_petri.json
import json, os

doc = {"schema": "rlv-bench-petri-v1", "min_time": 0.2, "benchmarks": {}}
base_path = os.environ.get("BASELINE_PETRI", "")
base = {}
if base_path and os.path.exists(base_path):
    for b in json.load(open(base_path))["benchmarks"]:
        if b.get("aggregate_name") in (None, "median"):
            base[b["name"].removesuffix("_median")] = b["real_time"]
for b in json.load(open("/tmp/rlv_bench_petri.json"))["benchmarks"]:
    if b.get("aggregate_name") not in (None, "median"):
        continue
    name = b["name"].removesuffix("_median")
    row = {"real_time": round(b["real_time"], 4),
           "time_unit": b["time_unit"]}
    # The unfolder's observability counters (graph_states, deadlocks,
    # charged_states, peak_memory_bytes, bytes, transitions).
    for key in ("graph_states", "deadlocks", "charged_states",
                "peak_memory_bytes", "bytes", "transitions"):
        if key in b:
            row[key] = int(b[key])
    if name in base and base[name] > 0 and b["real_time"] > 0:
        row["baseline_real_time"] = round(base[name], 4)
        row["speedup"] = round(base[name] / b["real_time"], 2)
    doc["benchmarks"][name] = row
print(json.dumps(doc, indent=1))
PYEOF

echo "wrote BENCH_net.json, BENCH_monitor.json, BENCH_engine.json, BENCH_petri.json:"
head -c 400 BENCH_net.json; echo
head -c 400 BENCH_monitor.json; echo
head -c 400 BENCH_engine.json; echo
head -c 400 BENCH_petri.json; echo
