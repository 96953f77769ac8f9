#!/usr/bin/env python3
"""Run one benchmark workload and relay its result.

    python3 perfbench/run.py --workload open-mixed --seed 1 --seconds 25 \
        --trace 0

Builds the bench program, streak_bench, from the enclosing checkout into
.bench_build/ first; that is a no-op when the build is up to date. The last
line of stdout is streak_bench's result JSON. With --trace 1 the chrome trace
is written to .bench_build/traces/<workload>-seed<N>.json.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "cmake")
BINARY = os.path.join(BUILD, "streak_bench")
# A run must end within 180 s; give up on streak_bench before that.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(code)


def run_child(cmd, timeout=None, **kwargs):
    """subprocess.run that also stops the child when this script is
    terminated, so no process outlives the run."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        def stop(signum, _frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, stop)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "flow", "streak.hpp")):
        fail("no Streak sources next to perfbench/ in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "streak_bench",
                  "-j", jobs])
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if run_child(cmd, stdout=log, stderr=subprocess.STDOUT)[0] != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, out = run_child(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("streak_bench did not finish within %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("streak_bench exited with %d" % code, code if code > 0 else 1)
    out = out.decode()
    lines = out.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("streak_bench printed no result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
