#!/usr/bin/env python3
"""Smoke test of streak_bench: every workload, two ops, both modes.

    python3 perfbench/smoke.py STREAK_BENCH OUTDIR

Runs STREAK_BENCH for each workload in BENCHMARK.json with --ops 2, once
with --trace 0 and once with --trace 1 (trace written to OUTDIR). Fails
unless every run is correct, names every end-to-end or per-layer metric of
BENCHMARK.json with its unit, and writes a trace whose B and E events nest
and balance on every track.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    open_spans = {}
    spans = 0
    for ev in events:
        track = open_spans.setdefault((ev["pid"], ev["tid"]), [])
        if ev["ph"] == "B":
            track.append(ev["name"])
            spans += 1
        elif ev["ph"] == "E":
            if not track or track.pop() != ev["name"]:
                return "unmatched E event for " + ev["name"]
    if any(open_spans.values()):
        return "B events without an E event"
    return None if spans else "no spans"


def main():
    binary, outdir = sys.argv[1], sys.argv[2]
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    problems = []
    for workload in (w["name"] for w in contract["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            trace_path = os.path.join(outdir, workload + ".json")
            cmd = [binary, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--ops", "2"]
            if trace:
                cmd += ["--trace-out", trace_path]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=240)
            where = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode())
                problems.append("%s: exit code %d" % (where, proc.returncode))
                continue
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.stderr.write(proc.stderr.decode())
                problems.append(where + ": not correct")
            for metric in contract[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s: metric %s missing or not in %s"
                                    % (where, metric["name"], metric["unit"]))
            if trace:
                bad = check_trace(trace_path)
                if bad:
                    problems.append("%s: trace: %s" % (where, bad))
    for p in problems:
        print("FAIL " + p)
    print("smoke: %d problems" % len(problems))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
