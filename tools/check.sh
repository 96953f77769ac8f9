#!/usr/bin/env bash
# Correctness-tooling driver (DESIGN.md "Correctness tooling"):
#
#   1. clang-tidy curated ruleset   (skipped when clang-tidy is absent)
#   2. -Werror build                (CMake preset `werror`)
#   3. sanitizer smoke test         (preset `asan-ubsan`, flow_test +
#                                    clustering_equivalence_test +
#                                    problem_build_equivalence_test +
#                                    topology_equivalence_test +
#                                    pd_equivalence_test +
#                                    lp_kernel_equivalence_test +
#                                    route_test + thread_pool_test)
#   4. ThreadSanitizer              (preset `tsan`, thread pool,
#                                    determinism and per-run session
#                                    tests)
#   5. observability exports        (route a generated design with
#                                    --report/--trace, validate both with
#                                    tools/report_check)
#   6. static analysis              (tools/analyze: the project lint
#                                    rules, determinism rule pack and
#                                    module layering DAG over src/ and
#                                    tools/, SARIF artifact at
#                                    build/analyze.sarif)
#   7. chaos + deadline drill       (fault-injection sweep under
#                                    ASan/UBSan, then a --deadline= CLI
#                                    run whose report must validate with
#                                    the robust section present)
#   8. incremental ECO drill        (eco_test differential equivalence
#                                    suite, checkpoint-reader fuzz under
#                                    ASan/UBSan, then a checkpoint ->
#                                    delta -> `streak eco --cold-check`
#                                    CLI run whose report must validate,
#                                    carry the closure run's hot-path
#                                    counters, and re-solve strictly
#                                    fewer groups than a cold re-route)
#   9. campaign regression gate     (`streak campaign run` sweeps every
#                                    builtin config over the shrunk
#                                    synth1-7 into a JSONL store;
#                                    `campaign diff` against the
#                                    committed BENCH_campaign.jsonl must
#                                    compare all 28 runs with no
#                                    regression, and must flag an
#                                    injected 2x maze-pop regression
#                                    with exit code 8)
#
# Usage:  tools/check.sh [--full]
#   --full   run the entire ctest suite (not just the smoke subsets)
#            under ASan/UBSan and TSan; slower but what CI should do.
set -euo pipefail

cd "$(dirname "$0")/.."
FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== [1/9] clang-tidy =="
cmake --preset dev >/dev/null
if command -v clang-tidy >/dev/null 2>&1; then
    # The dev preset exports compile_commands.json.
    mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
    clang-tidy -p build --quiet "${SOURCES[@]}"
else
    echo "clang-tidy not installed; skipping (rules live in .clang-tidy)"
fi

echo "== [2/9] -Werror build =="
cmake --preset werror >/dev/null
cmake --build --preset werror -j "$JOBS"

echo "== [3/9] ASan/UBSan =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$JOBS"
if [[ "$FULL" == 1 ]]; then
    ctest --preset asan-ubsan -j "$JOBS"
else
    # Smoke: the end-to-end flow exercises every stage (and, with
    # STREAK_CHECKS=deep baked into the preset, every stage auditor).
    ./build-asan/tests/flow_test
    # Bottom-up clustering's flat n x n pair-cost caches, indexed across
    # hundreds of congested designs against the literal Alg. 3 oracle.
    ./build-asan/tests/clustering_equivalence_test
    # Problem build's shared backbone shapes and flat ratio memos against
    # the per-layer-pair expansion oracle, over 72 designs.
    ./build-asan/tests/problem_build_equivalence_test
    # Topology's sorted edge vector, in-place segment merges and flat
    # CSR wire graph against the hash-set reference.
    ./build-asan/tests/topology_equivalence_test
    # Incremental Alg. 2 (tight-element index, cached costs) and the
    # distance-report reuse against the literal loop, over 80 designs.
    ./build-asan/tests/pd_equivalence_test
    # The sparse LP rows, their merges and the reused relaxation
    # workspace against the dense tableau, bit for bit.
    ./build-asan/tests/lp_kernel_equivalence_test
    # The maze router's A* and growing windows against the plain
    # Dijkstra oracle, edge for edge.
    ./build-asan/tests/route_test
    # Worker sets outlive the pools that borrow them and are torn down
    # at thread exit; ASan checks those lifetimes.
    ./build-asan/tests/thread_pool_test
fi

echo "== [4/9] ThreadSanitizer =="
cmake --preset tsan >/dev/null
if [[ "$FULL" == 1 ]]; then
    cmake --build --preset tsan -j "$JOBS"
    ctest --preset tsan -j "$JOBS"
else
    # The pool's own unit tests plus the thread-count invariance suite
    # cover every parallel seam in the flow; the session suite runs two
    # flows at once, each recording into a session of its own.
    cmake --build --preset tsan -j "$JOBS" \
        --target thread_pool_test parallel_determinism_test obs_session_test
    ./build-tsan/tests/thread_pool_test
    ./build-tsan/tests/parallel_determinism_test
    ./build-tsan/tests/obs_session_test
fi

echo "== [5/9] observability exports =="
cmake --build --preset dev --target streak_cli report_check -j "$JOBS" >/dev/null
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./build/tools/streak generate 1 "$OBS_TMP/synth1.streak" >/dev/null
./build/tools/streak route "$OBS_TMP/synth1.streak" \
    --report="$OBS_TMP/report.json" --trace="$OBS_TMP/trace.json" --quiet
./build/tools/report_check "$OBS_TMP/report.json" "$OBS_TMP/trace.json"

echo "== [6/9] static analysis =="
# Full rule set: the seven lint rules, the determinism pack, and the
# module layering DAG (tools/analyze/layers.txt), with waiver-rot
# checking. The SARIF artifact is written even on a clean run so CI
# always has it to upload.
cmake --build --preset dev --target streak_analyze -j "$JOBS" >/dev/null
./build/tools/analyze/streak_analyze \
    --layers tools/analyze/layers.txt \
    --sarif build/analyze.sarif \
    src tools

echo "== [7/9] chaos + deadline drill =="
# Fault-tolerance contract (DESIGN.md "Robustness"): sweep every
# cataloged fault site across the shrunk synth suites under ASan/UBSan —
# every run must end in an audited solution or a structured StreakError,
# never a crash. robust_test covers the deadline/cancellation plumbing.
cmake --build --preset asan-ubsan -j "$JOBS" \
    --target chaos_test robust_test >/dev/null
./build-asan/tests/chaos_test
./build-asan/tests/robust_test
# Deadline drill: a generous budget must change nothing, and the JSON
# run report must carry the robust section (deadline, degradations) that
# report_check validates.
./build/tools/streak route "$OBS_TMP/synth1.streak" \
    --deadline=60 --report="$OBS_TMP/deadline.json" --quiet
./build/tools/report_check "$OBS_TMP/deadline.json"

echo "== [8/9] incremental ECO drill =="
# Differential equivalence contract (DESIGN.md "Incremental ECO"): an
# incremental re-route of the affected-group closure is byte-identical
# to a from-scratch re-route of the mutated design.
cmake --build --preset dev --target eco_test -j "$JOBS" >/dev/null
./build/tests/eco_test
# Checkpoint-reader fuzz (truncation / bit flips / version skew) under
# the sanitizers: hostile input must fail structurally, never with UB.
cmake --build --preset asan-ubsan -j "$JOBS" --target fuzz_test >/dev/null
./build-asan/tests/fuzz_test --gtest_filter='CheckpointFuzz.*'
# CLI drill: checkpoint a routed suite, apply a one-pin ECO, verify the
# incremental result against a cold re-route, validate the report,
# require --report to have turned on the closure run's hot-path counters,
# and require the closure to be a strict subset of the design's groups.
./build/tools/streak generate 4 "$OBS_TMP/synth4.streak" >/dev/null
./build/tools/streak route "$OBS_TMP/synth4.streak" --no-post \
    --checkpoint="$OBS_TMP/synth4.ckpt" --quiet >/dev/null
PIN=$(grep -m1 '^PIN' "$OBS_TMP/synth4.streak")
printf 'MOVEPIN 0 0 0 %d %d\n' \
    "$(($(echo "$PIN" | cut -d' ' -f2) + 1))" \
    "$(echo "$PIN" | cut -d' ' -f3)" > "$OBS_TMP/fix.eco"
./build/tools/streak eco "$OBS_TMP/synth4.ckpt" \
    --deltas="$OBS_TMP/fix.eco" --cold-check \
    --report="$OBS_TMP/eco.json" | tee "$OBS_TMP/eco.out"
./build/tools/report_check "$OBS_TMP/eco.json"
if ! grep -q '"solve/pd.iterations"' "$OBS_TMP/eco.json"; then
    echo "check.sh: the eco report lacks the solve/pd.iterations counter" \
         "(detail instrumentation was off for the closure run)" >&2
    exit 1
fi
grep -q 'byte-identical' "$OBS_TMP/eco.out"
read -r RESOLVED TOTAL < <(sed -n \
    's|^eco: re-solved \([0-9]*\)/\([0-9]*\) .*|\1 \2|p' "$OBS_TMP/eco.out")
if [[ "$RESOLVED" -ge "$TOTAL" ]]; then
    echo "check.sh: eco resolved $RESOLVED/$TOTAL groups (expected a" \
         "strict subset for a single-pin move)" >&2
    exit 1
fi

echo "== [9/9] campaign regression gate =="
# Sweep every builtin config (pd, pd-nopost, ilp, manual) over the
# shrunk synth suites at one thread and diff the store against the
# committed reference BENCH_campaign.jsonl: every one of the 28 sweep
# points must compare, counters may grow at most 10% and quality not at
# all (wall time is recorded but never compared; perfbench/ owns timing).
# With maze pops scaled 2x the diff must exit 8 (the campaign-regression
# code), proving the alarm fires.
./build/tools/streak campaign run --store="$OBS_TMP/campaign.jsonl" \
    --threads=1 --quiet
./build/tools/streak campaign diff "$OBS_TMP/campaign.jsonl" \
    --baseline=BENCH_campaign.jsonl --counter-pct=10 \
    --verdict="$OBS_TMP/verdict.json"
if ! grep -q '"comparedRuns": 28,' "$OBS_TMP/verdict.json"; then
    echo "check.sh: campaign diff did not compare all 28 sweep points" \
         "against BENCH_campaign.jsonl" >&2
    exit 1
fi
./build/tools/streak campaign run --store="$OBS_TMP/drill.jsonl" \
    --suites=1 --configs=manual --threads=1 \
    --scale-counter=route/maze.pops:2 --quiet
DRILL_RC=0
./build/tools/streak campaign diff "$OBS_TMP/drill.jsonl" \
    --baseline=BENCH_campaign.jsonl \
    --verdict="$OBS_TMP/drill-verdict.json" --quiet 2>/dev/null \
    || DRILL_RC=$?
if [[ "$DRILL_RC" -ne 8 ]]; then
    echo "check.sh: campaign diff missed the injected 2x maze-pop" \
         "regression (exit $DRILL_RC, expected 8)" >&2
    exit 1
fi

echo "check.sh: all stages passed"
