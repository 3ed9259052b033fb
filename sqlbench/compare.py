#!/usr/bin/env python3
"""Compares two benchmark captures, per workload and metric.

    python3 sqlbench/compare.py BEFORE.jsonl AFTER.jsonl

A capture is the file `run.py --capture FILE` appends to, one run per line;
make one per commit with the same seeds and --seconds. For each workload
and metric present in both captures it prints the median and quartiles of
each side and the change of the median. End-to-end metrics are judged
against their bound from BENCHMARK.json:

    regression   the median got worse by more than the bound
    unresolved   either side's quartile spread (as a share of its median)
                 is wider than the bound, unless every AFTER run is better
                 than every BEFORE run
    ok           otherwise

Per-layer metrics have no bound and are listed without a verdict. Exits 1
if any metric regressed.
"""

import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, metric in run["result"]["metrics"].items():
                key = (run["workload"], name)
                runs.setdefault(key, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    print("%-14s %-28s %12s %23s %12s %23s %8s %6s  %s" % (
        "workload", "metric", "before", "quartiles", "after", "quartiles",
        "delta", "bound", "verdict"))
    for key in sorted(set(before) & set(after)):
        workload, name = key
        b, a = before[key], after[key]
        b1, bm, b3 = quartiles(b)
        a1, am, a3 = quartiles(a)
        delta = (am - bm) / bm if bm else 0.0
        metric = declared.get(name, {})
        bound = metric.get("bound")
        verdict = ""
        if bound is not None:
            lower_better = metric["better"] == "lower"
            worse = delta if lower_better else -delta
            spread = max((b3 - b1) / bm if bm else 0.0,
                         (a3 - a1) / am if am else 0.0)
            all_better = (max(a) < min(b)) if lower_better else (min(a) > max(b))
            if worse > bound:
                verdict = "regression"
                regressed = True
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
        print("%-14s %-28s %12.5g [%10.5g,%10.5g] %12.5g [%10.5g,%10.5g] "
              "%+7.1f%% %6s  %s" % (
                  workload, name, bm, b1, b3, am, a1, a3, 100 * delta,
                  "" if bound is None else "%.2f" % bound, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
