#!/usr/bin/env python3
"""Run every workload N times, print medians and quartiles, check spreads.

    python3 perfbench/repeat.py --repeat 10
    python3 perfbench/repeat.py --repeat 5 --save a.json
    python3 perfbench/repeat.py --repeat 5 --compare a.json

Every workload of BENCHMARK.json runs N times, each a fresh process of
run.py for run_seconds with its own seed (1, 2, ..., N). For every metric
the table shows the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median. An
end-to-end metric fails when its spread exceeds its bound in
BENCHMARK.json and is flagged when it exceeds a third of it. --compare fails a metric whose median is worse than the
saved one by more than its bound. --save writes every value, the medians
and host facts as JSON. Exits 1 on any failure or failed op.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("repeat: %s exited with %d"
                 % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(saved, now, better):
    if saved == 0:
        return 0.0
    change = (now - saved) / abs(saved)
    return change if better == "lower" else -change


def host_facts():
    # streak_bench's compile flags show the build type the top-level project
    # chose (RelWithDebInfo: -O2 -g -DNDEBUG).
    flags = "unknown"
    path = os.path.join(ROOT, ".bench_build", "cmake", "CMakeFiles",
                        "streak_bench.dir", "flags.make")
    if os.path.isfile(path):
        with open(path) as f:
            m = re.search(r"^CXX_FLAGS = (.*)$", f.read(), re.M)
            if m:
                flags = m.group(1)
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system(), "cxx_flags": flags}


def main():
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    if args.repeat < 2:
        parser.error("--repeat must be at least 2 for quartiles")

    specs = {m["name"]: m for m in
             contract["end_to_end" if args.trace == 0 else "per_layer"]}
    saved = None
    if args.compare:
        with open(args.compare) as f:
            saved = json.load(f)
    seconds = contract["run_seconds"]
    seeds = list(range(1, args.repeat + 1))
    report = {"seconds": seconds, "trace": args.trace, "seeds": seeds,
              "host": host_facts(), "workloads": {}}
    failures = 0
    for workload in names:
        runs = [run_once(workload, s, seconds, args.trace) for s in seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        if failed or not all(r["correct"] for r in runs):
            failures += 1
        print("\n%s: %d runs, %d ops attempted, %d failed"
              % (workload, len(runs), attempted, failed))
        print("  %-30s %14s %14s %14s %8s %7s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", ""))
        entry = {"attempted": [r["attempted"] for r in runs], "metrics": {}}
        for name, spec in specs.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            bound = spec.get("bound")
            status = ""
            if bound is not None:
                if spread > bound:
                    status = "FAIL: spread above bound"
                elif spread > bound / 3:
                    status = "wide: spread above bound/3"
            if saved is not None and bound is not None:
                old = saved["workloads"][workload]["metrics"][name]["median"]
                if worse_by(old, med, spec["better"]) > bound:
                    status = "FAIL: median worse than saved %.6g" % old
            if status.startswith("FAIL"):
                failures += 1
            print("  %-30s %14.6g %14.6g %14.6g %8.4f %7s  %s"
                  % (name, med, q1, q3, spread,
                     "" if bound is None else bound, status))
            entry["metrics"][name] = {
                "unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": values}
        report["workloads"][workload] = entry
    if args.save:
        with open(args.save, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
