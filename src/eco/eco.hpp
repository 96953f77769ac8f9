// Incremental ECO re-routing (DESIGN.md "Incremental ECO").
//
// Given a checkpoint of a finished run and a list of deltas, runEco()
// computes the affected-group closure, re-solves exactly those groups
// through the ordinary flow on a sub-design that shares the mutated
// grid, and carries every untouched group's routing over verbatim. The
// result is byte-identical to a from-scratch re-route of the mutated
// design (metrics, usage, topologies, per-group cluster partitions,
// distance flags) — tests/eco_test.cpp proves it differentially over
// every delta kind and thread count.
//
// Why this is sound (the projection argument): groups interact only
// through shared edge/via capacity — pair costs are intra-group. Every
// wire a group can ever occupy lies inside its pin bounding box,
// expanded by the refinement detour margin when post optimization is
// on. So if two groups' windows are disjoint, their candidate edge sets
// are disjoint, and the primal-dual global-argmin loop (or the ILP's
// per-component solves) makes the same per-group choices whether or not
// the other group is in the problem. The invalidation closure is the
// fixpoint of window overlap seeded by the deltas' dirty rectangles,
// which over-approximates capacity interaction — conservative, never
// unsound.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/signal.hpp"
#include "core/solution.hpp"
#include "eco/checkpoint.hpp"
#include "eco/delta.hpp"
#include "flow/streak.hpp"
#include "geom/rect.hpp"
#include "obs/json.hpp"
#include "robust/recovery.hpp"

namespace streak::eco {

/// The G-Cell window that bounds every wire group `groupIndex` can ever
/// occupy under `opts`: the bounding box of all its pins, expanded by
/// maxDetourShift * (maxPinsPerBit - 1) when distance refinement may add
/// detours, clamped to the grid.
[[nodiscard]] geom::Rect groupWindow(const Design& design, int groupIndex,
                                     const StreakOptions& opts);

/// The affected-group closure of `deltas`: groups whose window overlaps
/// a delta's dirty rectangle (plus every moved-pin group), closed
/// transitively under window overlap. Moved groups use the union of
/// their pre- and post-move windows. Returns sorted group indices.
[[nodiscard]] std::vector<int> affectedGroups(const Design& before,
                                              const Design& after,
                                              const StreakOptions& opts,
                                              const std::vector<Delta>& deltas);

/// Output of one incremental re-route. Owns the mutated design and the
/// closure sub-design because the embedded flow artifacts point into
/// them (RoutingProblem holds a Design*, EdgeUsage a RoutingGrid*).
struct EcoResult {
    /// The checkpointed design with every delta applied.
    std::unique_ptr<Design> design;
    /// Closure groups only (original relative order), sharing the
    /// mutated grid. Null when the closure is empty.
    std::unique_ptr<Design> subDesign;
    /// The closure re-route's full flow result. Null when the closure is
    /// empty.
    std::unique_ptr<StreakResult> sub;
    /// Stitched routed design over design->grid: carried bits verbatim,
    /// re-solved bits with group indices rewritten to global. Its
    /// unroutedMembers is empty — object indices are run-local and do
    /// not survive stitching; use unroutedBits instead.
    std::unique_ptr<RoutedDesign> routed;
    /// Unrouted bits as sorted (groupIndex, bitIndex) pairs.
    std::vector<std::pair<int, int>> unroutedBits;
    std::vector<char> groupDistanceBefore;
    std::vector<char> groupDistanceAfter;
    Metrics metrics;
    int distanceViolationsBefore = 0;
    int distanceViolationsAfter = 0;
    /// The closure, ascending global group indices.
    std::vector<int> resolvedGroups;
    int totalGroups = 0;
    [[nodiscard]] int carriedGroups() const {
        return totalGroups - static_cast<int>(resolvedGroups.size());
    }
    int threadsUsed = 1;
    int pdIterations = 0;
    bool hitTimeLimit = false;
    /// Degradation rungs the closure re-route took (empty when clean or
    /// when the closure was empty).
    std::vector<robust::Degradation> degradations;
};

/// Apply `deltas` to the checkpointed design and re-route only the
/// affected-group closure. `threadsOverride` >= 0 replaces the
/// checkpoint's thread count (the result is identical either way).
/// Raises robust::StreakException on invalid deltas or when the closure
/// re-route fails without a recovery rung.
[[nodiscard]] EcoResult runEco(const Checkpoint& ckpt,
                               const std::vector<Delta>& deltas,
                               int threadsOverride = -1);

/// Freeze an ECO result so another delta batch can chain on top of it.
[[nodiscard]] Checkpoint makeCheckpoint(const EcoResult& eco,
                                        const StreakOptions& opts);

/// Byte-level equivalence between an incremental result and a cold
/// re-route of the same mutated design: metrics (double fields compared
/// bit-for-bit), per-edge and per-cell usage, every bit's topology and
/// trunk layers, per-group cluster partitions, the unrouted set and the
/// per-group distance flags. On mismatch returns false and, when `diff`
/// is non-null, stores a description of the first difference.
[[nodiscard]] bool equivalent(const EcoResult& eco, const StreakResult& cold,
                              std::string* diff = nullptr);

/// Run-report document for an ECO run: the standard streak-run-report
/// schema (validated by tools/report_check) plus an "eco" section with
/// the resolved/carried split and wall times. `coldSeconds` < 0 means no
/// cold reference run was taken.
[[nodiscard]] obs::json::Value buildEcoReport(const EcoResult& eco,
                                              const StreakOptions& opts,
                                              double incrementalSeconds,
                                              double coldSeconds);

}  // namespace streak::eco
