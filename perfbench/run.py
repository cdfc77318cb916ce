#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/CMakeLists.txt (the
vspec library from src/ plus the benchmark driver) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
workload in its own process and prints two lines on stdout:

  {"perfbench": {...}}   detail: build stamp, digest of the simulated
                         statistics, checks, percentile sample counts, the
                         workload's own metric names and simulated results
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The last line holds every end_to_end metric of BENCHMARK.json with
--trace 0, and every per_layer metric with --trace 1. A traced run makes
three measurements, each in its own process: the traced run itself, an
untraced run of the same number of episodes (tracing overhead is the
difference of their timed phases, rescaled to the reference speed as all
host times are) and, for fleet_scale, an untraced
run on one pool worker (parallel speedup). Per-layer metrics of layers a
workload does not exercise read 0. The exit code is 0 only when the
build, every process and every output check succeeded.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("calibrate", "speculate", "selftest", "fleet_scale")
# Each run must end within 180 s; no single process may use more.
PROCESS_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configure (once) and build the benchmark; output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return out


def run_driver(exe, args):
    """Run the driver once; returns (exit code, its JSON document)."""
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("driver printed no result (exit %d)"
                           % proc.returncode)
    return proc.returncode, json.loads(lines[-1])


def amdahl_serial_fraction(speedup, workers):
    """Serial share f with speedup = 1 / (f + (1 - f) / workers)."""
    if workers <= 1 or speedup <= 0:
        return 1.0
    return min(1.0, max(0.0, (workers / speedup - 1.0) / (workers - 1.0)))


def measure(exe, args, declared):
    """Run the measurement processes.

    Returns (detail, metrics, attempted, failed, ok).
    """
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if not args.trace:
        code, doc = run_driver(exe, base)
        docs, codes = [doc], [code]
        metrics = doc["e2e"]
    else:
        spans = os.path.join(build_dir(), "spans-%s-%d.jsonl"
                             % (args.workload, args.seed))
        code, doc = run_driver(exe, base + ["--trace", spans])
        same_work = base + ["--episodes", str(doc["episodes"])]
        plain_code, plain = run_driver(exe, same_work)
        docs, codes = [doc, plain], [code, plain_code]
        metrics = dict(doc["layers"])
        # Timed phases at the reference speed, so host drift between the
        # two processes does not masquerade as overhead or speedup.
        metrics["trace.overhead_s"] = {
            "value": doc["timed_s"] - plain["timed_s"], "unit": "s"}
        metrics["trace.top_span_coverage"] = {
            "value": doc["top_span_s"] / doc["run_wall_s"],
            "unit": "ratio"}
        if args.workload == "fleet_scale":
            one_code, one = run_driver(exe, same_work + ["--workers", "1"])
            docs.append(one)
            codes.append(one_code)
            speedup = one["timed_s"] / plain["timed_s"]
            workers = plain["stamp"]["pool_workers"]
            metrics["fleet.parallel_speedup"] = {"value": speedup,
                                                 "unit": "ratio"}
            metrics["fleet.serial_frac"] = {
                "value": amdahl_serial_fraction(speedup, workers),
                "unit": "ratio"}

    result_metrics = {}
    not_measured = [name for name, _ in declared if name not in metrics]
    for name, unit in declared:
        got = metrics.get(name, {"value": 0.0, "unit": unit})
        if got["unit"] != unit:
            raise RuntimeError("metric %s has unit %s, BENCHMARK.json says %s"
                               % (name, got["unit"], unit))
        result_metrics[name] = {"value": got["value"], "unit": unit}

    attempted = sum(d["checks"]["attempted"] for d in docs)
    failed = sum(d["checks"]["failed"] for d in docs)
    digests = {d["digest"] for d in docs}
    if len(digests) != 1:
        # The processes of one traced run simulate the same episodes.
        failed += 1
    attempted += len(docs) - 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": doc["stamp"],
        "digest": doc["digest"],
        "episodes": doc["episodes"],
        "work_unit": doc["work_unit"],
        "step": doc["step"],
        "failed_frac": failed / attempted,
        "checks": {"attempted": attempted, "failed": failed,
                   "messages": [m for d in docs
                                for m in d["checks"]["messages"]]},
        "percentiles": {k: v for k, v in doc["percentiles"].items()
                        if k in result_metrics},
        "named": doc["named"],
        "raw": doc["raw"],
        "not_measured": not_measured,
    }
    if args.trace:
        detail["self_ms"] = doc["self_ms"]
        detail["spans_file"] = os.path.relpath(spans, ROOT)
    ok = failed == 0 and all(c == 0 for c in codes)
    return detail, result_metrics, attempted, failed, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        section = "per_layer" if args.trace else "end_to_end"
        declared = [(m["name"], m["unit"]) for m in bench[section]]
        exe = os.path.join(build(), "perfbench")
        detail, metrics, attempted, failed, ok = measure(exe, args,
                                                         declared)
    except (OSError, KeyError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    print(json.dumps({"perfbench": detail}, allow_nan=False))
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics},
                     allow_nan=False))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
