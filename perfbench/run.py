#!/usr/bin/env python3
"""The rlv benchmark: build, run one workload, or compare two result sets.

Run (from the repository root):

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 15 --trace 0

builds rlvd and the benchmark program from source into $CARGO_TARGET_DIR
(default .bench_build) and runs one workload. The program prints a record
line (host block, seed, details) and then the result line
{"correct", "attempted", "failed", "metrics"}. Workloads and metrics are
listed in BENCHMARK.json; perfbench/METRICS.md explains them.

Compare two result sets (files holding the stdout of any number of runs):

    python3 perfbench/run.py --compare before.ndjson after.ndjson

prints, per (workload, metric), each side's median and quartiles and
whether the change stays within the metric's bound.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_warm", "serve_cold", "monitor_stream", "petri_abstraction"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds rlvd and perfbench; both steps are quick
    no-ops when nothing changed. All build output goes to stderr."""
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "perfbench", "rlvd",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return bdir


def git_commit():
    """HEAD's commit read from .git inside the tree; "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so records from trees
    without git history still name what was measured."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run(args):
    bdir = build()
    out_dir = os.path.join(bdir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rlvd", os.path.join(bdir, "rlv-tools", "rlvd"),
           "--out-dir", out_dir, "--commit", git_commit(),
           "--source-sha", source_digest()]
    sys.stdout.flush()
    return subprocess.call(cmd)


def load_records(path):
    """Record lines (those carrying a host block) of one result set."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{") and '"host"' in line:
                records.append(json.loads(line))
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(before_path, after_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    sides = []
    for path in (before_path, after_path):
        table = {}
        for rec in load_records(path):
            for name, m in rec["metrics"].items():
                key = (rec["workload"], rec["trace"], name)
                table.setdefault(key, []).append(m["value"])
        sides.append(table)
    before, after = sides

    print("%-18s %-5s %-34s %12s %12s %12s %12s %8s  %s" % (
        "workload", "trace", "metric", "before_med", "before_iqr",
        "after_med", "after_iqr", "change", "verdict"))
    regressions = 0
    for key in sorted(set(before) & set(after)):
        workload, trace, name = key
        b1, bm, b3 = quartiles(before[key])
        a1, am, a3 = quartiles(after[key])
        m = metrics.get(name, {})
        change = (am - bm) / bm if bm else float("nan")
        worse = change if m.get("better") == "lower" else -change
        bound = m.get("bound")
        if bound is None:
            verdict = "no bound"
        elif worse > bound:
            verdict = "REGRESSED"
            regressions += 1
        elif (b3 - b1) / bm > bound if bm else True:
            verdict = "unresolved (spread above bound)"
        else:
            verdict = "within bound"
        print("%-18s %-5s %-34s %12.6g %12.6g %12.6g %12.6g %+7.1f%%  %s" % (
            workload, trace, name, bm, b3 - b1, am, a3 - a1, 100 * change,
            verdict))

    # Tracing overhead: traced end-to-end medians against untraced ones.
    for label, table, path in (("before", before, before_path),
                               ("after", after, after_path)):
        for rec in load_records(path):
            if rec["trace"] != 1:
                continue
            for workload, b in rec["details"].get("breakdown", {}).items():
                untraced = table.get((workload, 0, "p50_us"))
                if untraced:
                    base = statistics.median(untraced)
                    print("%s: tracing overhead on %s: traced p50 %.6g us vs "
                          "untraced %.6g us (%+.1f%%)" % (
                              label, workload, b["e2e_p50_us"], base,
                              100 * (b["e2e_p50_us"] - base) / base))
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
