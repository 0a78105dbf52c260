#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe from source with
dune (in _build/, nothing outside the checkout), runs it, checks that its
last line is the result object and that it names exactly the metrics
BENCHMARK.json lists for the chosen trace mode, and exits with the
benchmark's status. Workloads, metrics and their meaning: README.md
beside this file.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    if dune is None:
        die("dune not found on PATH")
    return dune


def build(env):
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s is missing: run from a full checkout of the repository" % needed)
    cmd = [find_dune(), "build", "--root", ".", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if r.returncode != 0:
        die("build failed", 1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("benchmark run timed out", 1)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("the benchmark printed no result (exit %d)" % r.returncode, 1)
    if got != expected_metrics(args.trace == 1):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("printed metrics differ from BENCHMARK.json", 1)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
