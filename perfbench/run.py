#!/usr/bin/env python3
"""Run one workload of the whole-stack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark executable (bench.exe) and the mfoptd daemon from
source (dune, build directory .bench_build/dune), runs bench.exe once,
relays its report and checks that the last line — the result object —
names exactly the metrics BENCHMARK.json lists for this trace mode.  Run
it from the root of a checkout; every file it writes stays under
.bench_build/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["exact-close", "deadline-mix", "daemon-storm", "dynamic-line"]
BUILD_DIR = os.path.join(".bench_build", "dune")
RUN_DIR = os.path.join(".bench_build", "run")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_bench(cmd):
    """Runs bench.exe in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    finally:
        # bench.exe reaps its daemons; this catches anything it left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1", 2)

    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin", "BENCHMARK.json")):
        return fail("not the root of a full checkout (dune-project, lib/, bin/ missing)", 2)

    # DUNE_CACHE=disabled keeps dune out of the shared cache in the home
    # directory: the benchmark writes only under .bench_build/.
    os.makedirs(RUN_DIR, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
         "./perfbench/bench.exe", "./bin/mfoptd.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        return fail("build failed", 3)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    mfoptd = os.path.join(BUILD_DIR, "default", "bin", "mfoptd.exe")
    code, out = run_bench(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--mfoptd", mfoptd, "--run-dir", RUN_DIR])
    if code is None:
        return fail(f"bench.exe exceeded {RUN_TIMEOUT_S} s", 4)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if code != 0:
        return fail(f"bench.exe exited with code {code}", 5)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail("bench.exe printed no result line", 5)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(args.trace == 1)
    if got != want:
        return fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}", 6)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
