#!/usr/bin/env python3
"""End-to-end SQL benchmark: builds the engine and the benchmark program
from source, runs one workload, and prints the result as the last line.

Run from the repository root:

    python3 sqlbench/run.py --workload olap_mem --seed 1 --seconds 10 --trace 0

Workloads: olap_mem, olap_par, olap_disk, short_queries (see
sqlbench/WORKLOADS.md). --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

    --capture FILE   also append {"workload", "seed", "trace", "result"} to
                     FILE, the input of sqlbench/compare.py
    --selfcheck      run the traced workload with --seed twice and with
                     --seed + 1 once, and fail unless the table digests and
                     the counts repeat exactly for one seed and the digests
                     differ for the other

The build goes to .bench_build/sqlbench and page files to .bench_build/tmp,
both under the directory it runs from; the page files are removed on exit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "sqlbench")
TMP_DIR = os.path.join(".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "sqlbench")
RUN_TIMEOUT_S = 170


def newest_source_mtime(here):
    """The newest modification time of any input of the build."""
    repo = os.path.join(here, "..")
    paths = [os.path.join(repo, "CMakeLists.txt")]
    paths += [os.path.join(here, f) for f in os.listdir(here)]
    for root, _, files in os.walk(os.path.join(repo, "src")):
        paths += [os.path.join(root, f) for f in files]
    return max(os.path.getmtime(p) for p in paths)


def build(here):
    repo = os.path.join(here, "..")
    if not (os.path.isdir(os.path.join(repo, "src")) and
            os.path.isfile(os.path.join(repo, "CMakeLists.txt"))):
        sys.exit("sqlbench: run from the repository root; the engine sources "
                 "(src/, CMakeLists.txt) are missing")
    if (os.path.exists(BINARY) and
            os.path.getmtime(BINARY) > newest_source_mtime(here)):
        return
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", here, "-B", BUILD_DIR],
                ["cmake", "--build", BUILD_DIR, "--target", "sqlbench",
                 "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            sys.exit("sqlbench: build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, counts dict or None)."""
    os.makedirs(TMP_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", TMP_DIR]
    if trace:
        cmd += ["--spans", os.path.join(".bench_build", "spans",
                                        "%s-%d.jsonl" % (workload, seed))]
    try:
        # An empty environment, so the measured process starts with the
        # same stack contents whatever directory or shell it runs from.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env={})
    except subprocess.TimeoutExpired:
        sys.exit("sqlbench: %s timed out" % workload)
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("sqlbench: %s exited with %d" % (workload, done.returncode))
    counts = None
    for line in lines[:-1]:
        if line.startswith("sqlbench.counts "):
            counts = json.loads(line[len("sqlbench.counts "):])
    return json.loads(lines[-1]), counts


def selfcheck(workload, seed, seconds):
    _, first = run_binary(workload, seed, seconds, 1)
    _, again = run_binary(workload, seed, seconds, 1)
    _, other = run_binary(workload, seed + 1, seconds, 1)
    problems = []
    for key in sorted(first):
        if first[key] != again[key]:
            problems.append("%s differs between two runs of seed %d: %s vs %s"
                            % (key, seed, first[key], again[key]))
    for table, digest in first["digests"].items():
        if other["digests"][table] == digest and table not in (
                "region", "nation"):
            problems.append("digest of %s does not change with the seed"
                            % table)
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"selfcheck": not problems, "counts": first}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build(here)
    if args.selfcheck:
        return selfcheck(args.workload, args.seed, args.seconds)
    result, _ = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if args.capture:
        with open(args.capture, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
