#!/usr/bin/env python3
"""End-to-end benchmark of FairMove, run from the root of a checkout.

    python3 e2ebench/run.py --workload gt_full|train_full|report \
        --seed N --seconds S --trace 0|1

Builds the library and the workload binaries from source into .bench_build/
(CMake, RelWithDebInfo), then runs one closed loop of identical ops of the
workload in a child process for --seconds seconds (at least one op):

    gt_full     one GT day on the full Shenzhen fleet (20,130 taxis)
    train_full  one full-scale CMA2C training episode
    report      the six-method comparison at scale 0.08 (1,610 taxis),
                5 training episodes per method

BENCHMARK.json gates gt_full and report. train_full runs the same way by
hand; it is left out there because one ~20 s episode per run varied by up
to 20% (quartile spread over median) between runs on a 4-vCPU VM.

Time metrics are scaled to a reference speed: a fixed pass of the
benchmark's own code (ReferencePass in workloads.cc, ~60 ms on one thread)
runs before every set-up and between ops, and each measured time is
multiplied by 0.060 s / (time of the passes around it). On a shared VM the
host's speed swings by 1.3-1.8x within minutes, so unscaled times of the
same code spread past any usable bound; the unscaled readings print on the
`unscaled:` line. peak_rss_mb leaves out the pass's own 33 MiB.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload for half of --seconds untraced, then for the other half in the
traced binary, requires their output digests to be equal, and reports the
per-layer metrics plus the tracing overhead (median op wall time, traced
over untraced). The last stdout line is the result document:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--scale/--episodes/--days shrink the workload (used by smoke_test.py).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_BUDGET_S = 175.0


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("FairMove sources (src/) not found; run from a checkout root")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(name, args, deadline):
    """Runs one workload binary; echoes its lines, returns its document."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + name)
    try:
        proc = subprocess.run([os.path.join(BUILD_DIR, name)] + args,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within the run budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{name} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def pick(doc, specs):
    """The metrics named by BENCHMARK.json, with their units checked."""
    out = {}
    for spec in specs:
        got = doc["metrics"].get(spec["name"])
        if got is None:
            fail(f"metric {spec['name']} missing from the run")
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["gt_full", "train_full", "report"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", type=float, default=0.0)
    parser.add_argument("--episodes", type=int, default=0)
    parser.add_argument("--days", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--scale={args.scale}", f"--episodes={args.episodes}",
              f"--days={args.days}"]
    if args.trace == 0:
        doc = run_binary("fm_e2e", common + [f"--seconds={args.seconds}"],
                         deadline)
        metrics = pick(doc, bench["end_to_end"])
        attempted, failed = doc["ops"], doc["failed"]
        errors = list(doc["errors"])
        samples = int(doc["metrics"]["slot_samples"]["value"])
        print(f"slot latency over {samples} slots")
        # Every end-to-end metric is a time, a size or a latency: > 0.
        for name, m in metrics.items():
            if not (math.isfinite(m["value"]) and m["value"] > 0):
                errors.append(f"{name} = {m['value']} is not positive")
    else:
        half = [f"--seconds={args.seconds / 2}", "--setups=1"]
        base = run_binary("fm_e2e", common + half, deadline)
        spans = os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        doc = run_binary("fm_e2e_traced",
                         common + half + ["--trace", f"--spans-out={spans}"],
                         deadline)
        doc["metrics"]["trace.overhead_pct"] = {
            "value": 100.0 * (doc["metrics"]["wall_s"]["value"] /
                              base["metrics"]["wall_s"]["value"] - 1.0),
            "unit": "%"}
        metrics = pick(doc, bench["per_layer"])
        attempted = base["ops"] + doc["ops"]
        failed = base["failed"] + doc["failed"]
        errors = base["errors"] + doc["errors"]
        if doc["digest"] != base["digest"]:
            failed += 1
            errors.append(f"traced digest {doc['digest']} differs from "
                          f"untraced {base['digest']}")
        print(f"spans written to {spans}")

    print("machine: " + json.dumps(doc["machine"]))
    print("unscaled: " + json.dumps(
        {name: m["value"] for name, m in doc["unscaled"].items()}))
    print("readings: " + json.dumps(doc["readings"]))
    for e in errors:
        print("error: " + e)
    result = {"correct": failed == 0 and not errors,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
