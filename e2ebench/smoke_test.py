#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny scale (well under a minute).

    python3 e2ebench/smoke_test.py        # from the checkout root

For every workload it checks that
  - run.py prints every BENCHMARK.json metric with its unit, untraced and
    traced, and reports the run correct;
  - the seed changes the output digest;
  - the traced binary reproduces the untraced digest;
  - 1-lane and 4-lane runs produce the same digest;
and that the report's rebuilt fan-out equals FairMoveSystem::RunComparison
byte for byte. Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build")
TINY = {"scale": "0.02", "episodes": "1", "days": "1"}
WORKLOADS = ["gt_full", "train_full", "report"]


def check(ok, message):
    if not ok:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def last_json(cmd, env=None):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, **(env or {})))
    if proc.returncode != 0:
        check(False, f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_py(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace)]
    for key, value in TINY.items():
        cmd += ["--" + key, value]
    return last_json(cmd)


def digest(binary, workload, seed, extra=(), env=None):
    cmd = [os.path.join(BUILD_DIR, binary), f"--workload={workload}",
           f"--seed={seed}", "--max-ops=1", "--setups=1", *extra]
    cmd += [f"--{key}={value}" for key, value in TINY.items()]
    doc = last_json(cmd, env)
    check(doc["failed"] == 0, f"{binary} {workload} seed {seed} "
          f"{' '.join(extra)} {env or ''} passes its output checks")
    return doc["digest"]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            doc = run_py(workload, trace)
            check(doc["correct"] and doc["failed"] == 0 and
                  doc["attempted"] >= 1,
                  f"{workload} trace {trace} is correct")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in doc["metrics"].items()}
            check(got == want,
                  f"{workload} trace {trace} prints every metric with its "
                  "unit")
        base = digest("fm_e2e", workload, 1)
        check(digest("fm_e2e", workload, 2) != base,
              f"{workload}: the seed changes the digest")
        check(digest("fm_e2e_traced", workload, 1, ["--trace"]) == base,
              f"{workload}: traced digest equals untraced")
        one = digest("fm_e2e", workload, 1, env={"FAIRMOVE_THREADS": "1"})
        four = digest("fm_e2e", workload, 1, env={"FAIRMOVE_THREADS": "4"})
        check(one == four == base,
              f"{workload}: 1-lane and 4-lane digests are equal")
    digest("fm_e2e", "report", 1, ["--reference"])
    print("e2ebench smoke test passed")


if __name__ == "__main__":
    main()
