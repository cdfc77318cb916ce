#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the captured stdout of perfbench/run.py runs, one
file per run (*.out). Runs are grouped by workload and --trace value.
For every metric the script prints each side's median and quartiles
(statistics.quantiles(n=4)) and, for end-to-end metrics, the verdict
against the bound in BENCHMARK.json:

  worse        the change's median is worse than the base median by
               more than the bound;
  unresolved   the base's own quartile spread exceeds the bound and not
               every change run beats every base run;
  ok           otherwise.

Results are only comparable when they come from the same build type,
SIMD backend, compiler, CPU count and pool size: the script refuses (exit
2) when any two runs carry different build stamps. Exit 1 when a metric
is worse, else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """(workload, trace) -> list of (stamp, metrics) per run."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if len(lines) < 2:
            raise SystemExit("%s/%s: not a perfbench/run.py output"
                             % (directory, name))
        detail = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
        key = (detail["workload"], detail["trace"])
        runs.setdefault(key, []).append((detail["stamp"], result["metrics"]))
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])

    stamps = {json.dumps(stamp, sort_keys=True)
              for side in (base, change) for runs in side.values()
              for stamp, _ in runs}
    if len(stamps) > 1:
        print("refusing to compare runs with different build stamps:")
        for stamp in sorted(stamps):
            print("  " + stamp)
        return 2

    worse = False
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print("%s (trace %d): %d base runs, %d change runs"
              % (workload, trace, len(base[key]), len(change[key])))
        for name in base[key][0][1]:
            b = [m[name]["value"] for _, m in base[key]]
            c = [m[name]["value"] for _, m in change[key]]
            bq1, bmed, bq3 = summary(b)
            cq1, cmed, cq3 = summary(c)
            verdict = ""
            spec = e2e.get(name) if not trace else None
            if spec and bmed:
                sign = 1.0 if spec["better"] == "lower" else -1.0
                delta = sign * (cmed - bmed) / abs(bmed)
                spread = (bq3 - bq1) / abs(bmed)
                beats = (max(c) < min(b) if sign > 0 else min(c) > max(b))
                if delta > spec["bound"]:
                    verdict = "worse"
                    worse = True
                elif spread > spec["bound"] and not beats:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                verdict = "%+.1f%% %s" % (100.0 * (cmed - bmed) / abs(bmed),
                                          verdict)
            print("  %-28s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]"
                  "  %s" % (name, bmed, bq1, bq3, cmed, cq1, cq3, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
