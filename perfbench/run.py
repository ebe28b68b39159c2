#!/usr/bin/env python3
"""Build and run the heus wall-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tenant_day --seed 1 --seconds 45 \
        --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --list-metrics

The first call configures and builds perfbench/ (the heus libraries from
src/ plus the benchmark binary) into .bench_build/perfbench; later calls
rebuild only what changed. The binary's output is passed through; its last
line is the JSON result. A traced run (--trace 1) writes its spans to
.bench_out/spans-<workload>-seed<N>.csv.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build(targets):
    """Configure (once) and build `targets`; exit 1 with the log on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
                          "--target"] + targets)
            for cmd in steps:
                if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                    log.flush()
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    sys.stderr.write("perfbench: build failed: %s\n"
                                     % " ".join(cmd))
                    sys.exit(1)


def binary(name):
    return os.path.join(BUILD, name)


def list_metrics():
    out = subprocess.run([binary("heus_perfbench"), "--list-metrics"],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def check_listing_against_benchmark_json():
    """The binary's metric table and BENCHMARK.json must agree."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listing = {m["name"]: m for m in list_metrics()}
    problems = []
    declared = set()
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            declared.add(m["name"])
            got = listing.get(m["name"])
            if got is None:
                problems.append("%s: in BENCHMARK.json, not in the binary"
                                % m["name"])
                continue
            for key in ("unit", "better"):
                if got[key] != m[key]:
                    problems.append("%s: %s %r != %r" % (m["name"], key,
                                                         got[key], m[key]))
            if got["kind"] != kind:
                problems.append("%s: kind %s != %s" % (m["name"],
                                                       got["kind"], kind))
    for name in listing:
        if name not in declared:
            problems.append("%s: in the binary, not in BENCHMARK.json" % name)
    workloads = {w["name"] for w in bench["workloads"]}
    for m in listing.values():
        for w in m["workloads"].split(","):
            if w not in workloads:
                problems.append("%s: unknown workload %s" % (m["name"], w))
        for pair in filter(None, m["moves"].split(",")):
            metric, _, w = pair.partition("@")
            if metric not in listing or w not in workloads:
                problems.append("%s: bad moves entry %s" % (m["name"], pair))
    for p in problems:
        print("FAIL", p)
    print("%s listing agrees with BENCHMARK.json (%d metrics)"
          % ("ok  " if not problems else "FAIL", len(listing)))
    return not problems


def selftest():
    build(["heus_perfbench", "perfbench_selftest"])
    ok = subprocess.call([binary("perfbench_selftest")]) == 0
    return 0 if check_listing_against_benchmark_json() and ok else 1


def run(args):
    build(["heus_perfbench"])
    cmd = [binary("heus_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, "spans-%s-seed%d.csv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        return done.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: no result line\n")
        return 1
    sys.stdout.write(done.stdout)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=["tenant_day", "policy_sweep"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--list-metrics", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.list_metrics:
        build(["heus_perfbench"])
        print(json.dumps(list_metrics(), indent=2))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in 1..600")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
